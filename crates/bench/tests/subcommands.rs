//! Drives the `hyde-bench` binary's subcommands end to end: exit codes,
//! the paper-table totals, the PLA dump and the BLIF `map` writes.

use hyde_logic::pla::Pla;
use hyde_map::flow::FlowKind;
use hyde_map::session::{Job, Session};
use std::process::{Command, Output};

fn hyde_bench(args: &[&str]) -> Output {
    let out = Command::new(env!("CARGO_BIN_EXE_hyde-bench"))
        .args(args)
        .output()
        .expect("hyde-bench runs");
    let stderr = String::from_utf8_lossy(&out.stderr);
    assert!(out.status.code() != Some(2) || stderr.starts_with("error: "));
    out
}

#[test]
fn table2_small_prints_the_suite_totals() {
    let out = hyde_bench(&["table2", "--small"]);
    assert!(out.status.success(), "{out:?}");
    let stdout = String::from_utf8(out.stdout).expect("utf-8");
    let total = stdout.lines().find(|l| l.starts_with("Total"));
    let total: Vec<&str> = total.expect("a Total row").split_whitespace().collect();
    assert_eq!(total, ["Total", "149", "145", "142"]);
}

#[test]
fn paper_subcommands_exit_zero() {
    for command in ["figures", "ablation", "sweep"] {
        let out = hyde_bench(&[command]);
        assert!(out.status.success() && !out.stdout.is_empty(), "{out:?}");
    }
}

#[test]
fn dump_then_map_matches_a_session_byte_for_byte() {
    let dir = std::path::Path::new(env!("CARGO_TARGET_TMPDIR")).join("dump_then_map");
    let _ = std::fs::remove_dir_all(&dir);
    let out = hyde_bench(&["dump", dir.to_str().expect("utf-8 path")]);
    assert!(out.status.success(), "{out:?}");
    let entries = std::fs::read_dir(&dir).expect("dump dir");
    let plas = entries.filter(|e| {
        e.as_ref()
            .is_ok_and(|e| e.path().extension() == Some("pla".as_ref()))
    });
    assert_eq!(plas.count(), 25);

    let input = dir.join("rd73.pla");
    let input = input.to_str().expect("utf-8 path");
    let out = hyde_bench(&["map", input]);
    assert!(out.status.success(), "{out:?}");
    let pla = Pla::parse(&std::fs::read_to_string(input).expect("rd73.pla")).expect("parses");
    let job = Job::new(input.trim_end_matches(".pla"), pla.output_tables());
    let session = Session::new(5, FlowKind::hyde(0xDA98));
    let expected = session.run(&job).expect("rd73 maps").blif();
    assert_eq!(String::from_utf8(out.stdout).expect("utf-8"), expected);
}

#[test]
fn usage_errors_exit_two() {
    for args in [
        &["frobnicate"][..],
        &["--frobnicate"],
        &["table1", "--large"],
        &["figures", "fig99"],
        &["map", "x.pla", "--flow", "espresso"],
        // The flows need LUTs of at least 3 inputs.
        &["--circuits", "rd73", "--k", "2", "--stdout"],
        &["map", "x.pla", "--k", "2"],
    ] {
        assert_eq!(hyde_bench(args).status.code(), Some(2), "{args:?}");
    }
}
