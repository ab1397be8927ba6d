//! `hyde-bench ablation`: studies of the design choices called out in
//! `DESIGN.md`.
//!
//! * `encoding` — class-count objective (HYDE) vs cube-count (Murgai-like)
//!   vs random vs lexicographic, measured as total LUTs on the small suite.
//! * `dc` — don't-care assignment on/off: compatible class counts on
//!   incompletely specified charts.
//! * `hyper` — hyper-function flow vs per-output vs column encoding.

use hyde_bench::{run_suite, totals, Flow};
use hyde_core::chart::{class_count, IsfChart};
use hyde_core::dc_assign::assign_dont_cares;
use hyde_core::encoding::EncoderKind;
use hyde_logic::{Isf, TruthTable};
use hyde_map::flow::FlowKind;
use hyde_map::session::Session;
use rand::rngs::StdRng;
use rand::{Rng, SeedableRng};

/// Study names `hyde-bench ablation` accepts.
pub const NAMES: [&str; 3] = ["encoding", "dc", "hyper"];

/// Prints the named studies (all of them when `names` is empty).
pub fn run(names: &[String]) -> super::CmdResult {
    let want = |s: &str| names.is_empty() || names.iter().any(|a| a == s);
    if want("encoding") {
        ablate_encoding()?;
    }
    if want("dc") {
        ablate_dc();
    }
    if want("hyper") {
        ablate_hyper()?;
    }
    Ok(())
}

/// Prints `heading`, then each flow's total 5-LUT count over the small
/// suite, with the label column (headed `column`) `width` wide.
fn print_totals(
    heading: &str,
    column: &str,
    width: usize,
    flows: impl IntoIterator<Item = (&'static str, FlowKind)>,
) -> super::CmdResult {
    println!("{heading}");
    let flows: Vec<Flow> = flows
        .into_iter()
        .map(|(name, kind)| (name, Session::new(5, kind)))
        .collect();
    let rows = run_suite(&hyde_circuits::suite_small(), &flows)?;
    println!("{column:<width$}{:>10}", "luts");
    for ((name, _), total) in flows.iter().zip(totals(&rows, |r| r.luts)) {
        println!("{name:<width$}{total:>10}");
    }
    println!();
    Ok(())
}

fn ablate_encoding() -> super::CmdResult {
    let encoders = [
        ("lexicographic", EncoderKind::Lexicographic),
        ("random", EncoderKind::Random { seed: 77 }),
        (
            "cube-min [3]",
            EncoderKind::CubeMin {
                seed: 77,
                iters: 30,
            },
        ),
        ("hyde (class-count)", EncoderKind::Hyde { seed: 77 }),
    ];
    print_totals(
        "== Ablation A1: encoding objective (total 5-LUTs, small suite) ==",
        "encoder",
        22,
        encoders.map(|(name, encoder)| (name, FlowKind::SharedAlpha { encoder })),
    )
}

fn ablate_dc() {
    println!("== Ablation A2: don't-care assignment (Section 3.1) ==");
    let mut rng = StdRng::seed_from_u64(3);
    let mut with_dc = 0usize;
    let mut without_dc = 0usize;
    let trials = 40;
    for _ in 0..trials {
        let on = TruthTable::random(8, &mut rng);
        let dc_mask = TruthTable::from_fn(8, |_| rng.gen_bool(0.3));
        let dc = &dc_mask & &!&on;
        let f = Isf::new(on.clone(), dc).expect("arities agree");
        let bound = [0usize, 1, 2, 3];
        // Without assignment: treat dc as 0.
        without_dc += class_count(&on, &bound).expect("valid bound");
        // With clique-partitioning assignment.
        let a = assign_dont_cares(&f, &bound).expect("valid bound");
        with_dc += a.classes.len();
        // The chart view agrees.
        let chart = IsfChart::new(&f, &bound).expect("valid bound");
        assert_eq!(chart.columns().len(), 16);
    }
    println!("{trials} random 8-var ISFs (30% dc), bound size 4:");
    println!("  total classes without dc assignment: {without_dc}");
    println!("  total classes with clique partitioning: {with_dc}");
    println!(
        "  reduction: {:.1}%\n",
        100.0 * (without_dc - with_dc) as f64 / without_dc as f64
    );
}

fn ablate_hyper() -> super::CmdResult {
    let hyde = EncoderKind::Hyde { seed: 5 };
    print_totals(
        "== Ablation A3: multi-output strategy (total 5-LUTs, small suite) ==",
        "flow",
        18,
        [
            (
                "per-output",
                FlowKind::PerOutput {
                    encoder: hyde.clone(),
                },
            ),
            ("shared-alpha", FlowKind::SharedAlpha { encoder: hyde }),
            ("column-enc [4]", FlowKind::fgsyn_like()),
            ("hyper (HYDE)", FlowKind::hyde(5)),
        ],
    )
}
