//! `hyde-bench`: the paper's tables and figures, file mapping, and the
//! end-to-end runtime benchmark, as subcommands of one binary.
//!
//! With no subcommand it times the HYDE flow over the bundled circuit
//! suite and writes `BENCH_<name>.json` (per-circuit wall time, LUT
//! count, depth, thread count). `cargo xtask perf-diff` compares two
//! such documents and is the wall-clock gate. `--trace <path>` (or
//! `HYDE_TRACE=<path>`) additionally collects spans for the whole run,
//! embeds the per-phase breakdown in the JSON (`"obs"` section), and
//! writes Chrome-trace + folded-stack artifacts.

#![forbid(unsafe_code)]
#![warn(missing_docs)]

mod ablation;
mod figures;

use hyde_bench::perf::{chaos_to_json, run_bench, run_chaos, to_json, validate_json, ChaosStatus};
use hyde_bench::{job_error, run_suite, totals, Flow, PaperTable, FLOWS, TABLE1, TABLE2};
use hyde_circuits::Circuit;
use hyde_guard::Budget;
use hyde_logic::diag::{Code, Diagnostic};
use hyde_logic::{blif, pla::Pla, TruthTable};
use hyde_map::session::{Job, Session};
use std::path::Path;
use std::process::ExitCode;

const USAGE: &str = "\
hyde-bench: the HYDE paper's tables and figures, file mapping, and the
runtime benchmark

Usage: hyde-bench [OPTIONS]        time the HYDE flow, write BENCH_<NAME>.json
       hyde-bench <COMMAND> [ARGS]

Commands:
  table1 [--small]     Table 1 (XC3000 CLBs) beside the paper's numbers
  table2 [--small]     Table 2 (5-LUT counts) beside the paper's numbers
                       (--small: the small suite instead of all 25 circuits)
  figures [FIG...]     worked examples: fig1 fig2 fig4 ... fig10 (default all)
  ablation [STUDY...]  ablations A1-A3: encoding dc hyper (default all)
  sweep                each flow's total LUTs on the small suite, k = 4, 5, 6
  map <FILE> [--flow hyde|imodec|fgsyn|per-output] [--k <K>] [--out <FILE>]
      [--seed <N>]     map a PLA/BLIF file (default hyde, k 5); BLIF goes
                       to --out or stdout, statistics to stderr
  dump [DIR]           write the suite as PLA files (default: suite_pla)

Options (no command):
  --name <NAME>      run label; default output path is BENCH_<NAME>.json
                     (default: hot_path)
  --out <FILE>       explicit output path
  --smoke            3-circuit subset (rd73, misex1, z4ml) instead of all 25
                     (`cargo xtask perf-diff` gates it against the committed
                     BENCH_smoke.json)
  --circuits <LIST>  comma-separated circuit names to run (overrides --smoke)
  --k <K>            LUT size, at least 3 (default 5)
  --chaos <SEED>     chaos drill: arm the deterministic fault-injection
                     layer (budget exhaustions, BDD allocation failures,
                     per-circuit panics) on SEED, isolate every circuit,
                     and write CHAOS_<NAME>.json instead of a benchmark
  --budget-ms <MS>          wall-clock deadline for the whole run
  --budget-bdd-nodes <N>    cap live BDD nodes per manager
  --budget-candidates <N>   cap bound-set candidates per decomposition step
                     (exhausting any budget degrades down the hyde-map
                     fallback ladder instead of failing; the events are
                     counted via hyde-obs and, under --chaos, recorded in
                     the CHAOS JSON)
  --trace <FILE>     collect spans: embed the obs breakdown in the JSON and
                     write a Chrome trace to FILE plus a .folded flamegraph
                     next to it (HYDE_TRACE=<FILE> is equivalent)
  --stdout           print the JSON to stdout instead of writing a file
  -h, --help         this message

Exit codes: 0 success, 1 a run failed, 2 usage error";

/// Circuits in the `--smoke` subset; kept in sync with the CI smoke step.
const SMOKE_CIRCUITS: [&str; 3] = ["rd73", "misex1", "z4ml"];

/// What a subcommand's run returns; its error exits 1.
type CmdResult = Result<(), Box<dyn std::error::Error>>;

fn main() -> ExitCode {
    let args: Vec<String> = std::env::args().skip(1).collect();
    if args.iter().any(|a| a == "-h" || a == "--help") {
        println!("{USAGE}");
        return ExitCode::SUCCESS;
    }
    let run = match args.split_first() {
        Some((command, rest)) if !command.starts_with('-') => subcommand(command, rest),
        _ => parse_bench(&args).map(|opts| bench(&opts)),
    };
    match run {
        Ok(Ok(())) => ExitCode::SUCCESS,
        Ok(Err(e)) => {
            eprintln!("error: {e}");
            ExitCode::FAILURE
        }
        Err(usage) => {
            eprintln!("error: {usage}");
            ExitCode::from(2)
        }
    }
}

/// Runs `hyde-bench <command> <args>`; `Err` is a usage error.
fn subcommand(command: &str, args: &[String]) -> Result<CmdResult, String> {
    Ok(match (command, args) {
        ("table1" | "table2", [] | [_]) if args.iter().all(|a| a == "--small") => {
            let table = if command == "table1" { TABLE1 } else { TABLE2 };
            print_table(&table, !args.is_empty())
        }
        ("figures", _) => {
            figures::run(known(args, &figures::NAMES)?);
            Ok(())
        }
        ("ablation", _) => ablation::run(known(args, &ablation::NAMES)?),
        ("sweep", []) => sweep(),
        ("map", _) => map_file(&parse_map(args)?),
        ("dump", []) => dump(Path::new("suite_pla")),
        ("dump", [dir]) if !dir.starts_with('-') => dump(Path::new(dir)),
        ("table1" | "table2" | "sweep" | "dump", [.., last]) => return Err(unknown(last)),
        _ => return Err(format!("unknown command '{command}' (try --help)")),
    })
}

type Args<'a> = std::slice::Iter<'a, String>;

/// The value following `flag`.
fn value<'a>(it: &mut Args<'a>, flag: &str) -> Result<&'a str, String> {
    it.next()
        .map(String::as_str)
        .ok_or_else(|| format!("{flag} needs a value"))
}

fn num<T: std::str::FromStr>(it: &mut Args, flag: &str) -> Result<T, String> {
    let v = value(it, flag)?;
    v.parse().map_err(|_| format!("bad {flag} value '{v}'"))
}

/// A LUT size: the flows decompose into LUTs of at least 3 inputs.
fn lut_size(it: &mut Args, flag: &str) -> Result<usize, String> {
    match num(it, flag)? {
        k if k < 3 => Err(format!(
            "bad {flag} value '{k}': LUT size must be at least 3"
        )),
        k => Ok(k),
    }
}

fn unknown(arg: &str) -> String {
    format!("unknown argument '{arg}' (try --help)")
}

/// `args`, once every one is checked to be among `names`.
fn known<'a>(args: &'a [String], names: &[&str]) -> Result<&'a [String], String> {
    match args.iter().find(|a| !names.contains(&a.as_str())) {
        Some(a) => Err(unknown(a)),
        None => Ok(args),
    }
}

/// Options of the default (benchmark) run.
struct Options {
    name: String,
    out: Option<String>,
    circuits: Vec<Circuit>,
    k: usize,
    chaos: Option<u64>,
    budget: Budget,
    trace: Option<String>,
    stdout: bool,
}

fn parse_bench(args: &[String]) -> Result<Options, String> {
    let mut opts = Options {
        name: "hot_path".into(),
        out: None,
        circuits: hyde_circuits::suite(),
        k: 5,
        chaos: None,
        budget: Budget::unlimited(),
        trace: None,
        stdout: false,
    };
    let (mut smoke, mut names) = (false, None);
    let mut it = args.iter();
    while let Some(arg) = it.next() {
        match arg.as_str() {
            "--name" => opts.name = value(&mut it, "--name")?.to_owned(),
            "--out" => opts.out = Some(value(&mut it, "--out")?.to_owned()),
            "--smoke" => smoke = true,
            "--circuits" => names = Some(value(&mut it, "--circuits")?),
            "--k" => opts.k = lut_size(&mut it, "--k")?,
            "--chaos" => opts.chaos = Some(num(&mut it, "--chaos")?),
            "--budget-ms" => {
                let ms: u64 = num(&mut it, "--budget-ms")?;
                opts.budget = opts
                    .budget
                    .with_deadline(std::time::Duration::from_millis(ms));
            }
            "--budget-bdd-nodes" => {
                opts.budget = opts
                    .budget
                    .with_bdd_nodes(num(&mut it, "--budget-bdd-nodes")?);
            }
            "--budget-candidates" => {
                opts.budget = opts
                    .budget
                    .with_candidates(num(&mut it, "--budget-candidates")?);
            }
            "--trace" => opts.trace = Some(value(&mut it, "--trace")?.to_owned()),
            "--stdout" => opts.stdout = true,
            other => return Err(unknown(other)),
        }
    }
    let all = std::mem::take(&mut opts.circuits);
    opts.circuits = match names {
        Some(names) => names
            .split(',')
            .map(|want| {
                let want = want.trim();
                all.iter()
                    .find(|c| c.name == want)
                    .cloned()
                    .ok_or_else(|| format!("unknown circuit '{want}'"))
            })
            .collect::<Result<_, _>>()?,
        None if smoke => all
            .into_iter()
            .filter(|c| SMOKE_CIRCUITS.contains(&c.name.as_str()))
            .collect(),
        None => all,
    };
    Ok(opts)
}

/// The default run: time the HYDE flow and write `BENCH_<name>.json`
/// (or, under `--chaos`, the chaos drill).
fn bench(opts: &Options) -> CmdResult {
    let trace_path = opts.trace.clone().or_else(hyde_obs::init_from_env);
    if let Some(seed) = opts.chaos {
        return chaos(opts, seed);
    }
    let traced = trace_path.is_some();
    eprintln!(
        "hyde-bench: {} circuit(s), k={}, run '{}'{}",
        opts.circuits.len(),
        opts.k,
        opts.name,
        if traced { " [traced]" } else { "" }
    );
    let run = run_bench(&opts.name, &opts.circuits, opts.k, opts.budget, traced)
        .map_err(|e| format!("benchmark flow failed: {e}"))?;
    for s in &run.samples {
        eprintln!(
            "  {:<10} {:>9.1}ms  luts={:<4} depth={}",
            s.name, s.wall_ms, s.luts, s.depth
        );
    }
    let json = to_json(&run);
    validate_json(&json).map_err(|e| format!("emitted JSON failed validation: {e}"))?;
    eprintln!(
        "hyde-bench: total {:.1}ms over {} circuit(s), {} thread(s)",
        run.total_wall_ms(),
        run.samples.len(),
        run.threads
    );
    let dropped = hyde_obs::dropped();
    if traced && dropped > 0 {
        eprintln!(
            "hyde-bench: {}",
            Diagnostic::new(
                Code::ObsDroppedEvents,
                format!(
                    "{dropped} trace event(s) dropped at the buffer cap; the exported \
                     timeline is truncated (counters and histogram percentiles are complete)"
                )
            )
        );
    }
    if let Some(path) = &trace_path {
        let folded = hyde_obs::write_artifacts(path)
            .map_err(|e| format!("cannot write trace '{path}': {e}"))?;
        eprintln!("hyde-bench: trace written to {path} and {folded}");
    }
    write_doc(opts, &json, format!("BENCH_{}.json", opts.name))
}

/// The `--chaos` drill: arm deterministic fault injection, run every
/// selected circuit with panic isolation, and write `CHAOS_<name>.json`.
/// Injected panics and degradations are expected outcomes; the drill only
/// fails on *typed* mapping errors, which mean a rung of the fallback
/// ladder broke.
fn chaos(opts: &Options, seed: u64) -> CmdResult {
    // Only this batch driver opts in to injected panics; library users
    // and the lint suite never see process-level faults.
    std::env::set_var("HYDE_CHAOS_PANIC", "1");
    // Injected panics are expected and recorded in the report — silence
    // the default all-caps panic banner for the duration of the drill.
    let prev_hook = std::panic::take_hook();
    std::panic::set_hook(Box::new(|_| {}));
    let run = run_chaos(&opts.name, &opts.circuits, opts.k, seed, opts.budget);
    std::panic::set_hook(prev_hook);
    std::env::remove_var("HYDE_CHAOS_PANIC");
    eprintln!(
        "hyde-bench: chaos drill over {} circuit(s), seed {seed}",
        run.samples.len()
    );
    let mut failed = 0usize;
    for s in &run.samples {
        let status = match &s.status {
            ChaosStatus::Ok { luts } => format!("ok (luts={luts})"),
            ChaosStatus::Panicked { .. } => "panicked (isolated)".to_owned(),
            ChaosStatus::Failed { error } => {
                failed += 1;
                format!("FAILED: {error}")
            }
        };
        eprintln!(
            "  {:<10} degradations={:<3} {status}",
            s.name,
            s.degradations.len()
        );
    }
    write_doc(
        opts,
        &chaos_to_json(&run),
        format!("CHAOS_{}.json", opts.name),
    )?;
    eprintln!(
        "hyde-bench: chaos totals: {} degradation(s), {failed} hard failure(s)",
        run.total_degradations()
    );
    if failed > 0 {
        return Err(format!("{failed} circuit(s) failed the chaos drill").into());
    }
    Ok(())
}

/// Prints `json` under `--stdout`, else writes it to `--out` or `default`.
fn write_doc(opts: &Options, json: &str, default: String) -> CmdResult {
    if opts.stdout {
        println!("{json}");
        return Ok(());
    }
    let path = opts.out.clone().unwrap_or(default);
    std::fs::write(&path, json).map_err(|e| format!("cannot write '{path}': {e}"))?;
    eprintln!("hyde-bench: wrote {path}");
    Ok(())
}

/// `table1` / `table2`: the measured table beside the paper's.
fn print_table(table: &PaperTable, small: bool) -> CmdResult {
    let circuits = if small {
        hyde_circuits::suite_small()
    } else {
        hyde_circuits::suite()
    };
    eprintln!("mapping {} circuits...", circuits.len());
    print!("{}", table.render(&circuits)?);
    Ok(())
}

/// `sweep`: LUT-size sensitivity. The paper evaluates k = 4/5 devices
/// (XC3000 CLBs and 5-LUTs); the sweep shows where the flows' orderings
/// hold across the LUT-size axis.
fn sweep() -> CmdResult {
    let circuits = hyde_circuits::suite_small();
    println!("{:<12}{:>10}{:>10}{:>10}", "flow", "k=4", "k=5", "k=6");
    for (_, label, kind) in FLOWS {
        let flows: Vec<Flow> = [4, 5, 6]
            .map(|k| ("", Session::new(k, kind(0xDA98))))
            .into();
        let mut row = format!("{label:<12}");
        for total in totals(&run_suite(&circuits, &flows)?, |r| r.luts) {
            row.push_str(&format!("{total:>10}"));
        }
        println!("{row}");
    }
    println!("\n(total 5-LUT-equivalent node counts over the small suite; lower is better)");
    Ok(())
}

/// Options of `hyde-bench map`.
struct MapOptions {
    input: String,
    session: Session,
    out: Option<String>,
}

fn parse_map(args: &[String]) -> Result<MapOptions, String> {
    let (mut input, mut flow, mut k, mut out, mut seed) = (None, "hyde", 5, None, 0xDA98);
    let mut it = args.iter();
    while let Some(arg) = it.next() {
        match arg.as_str() {
            "--flow" => flow = value(&mut it, "--flow")?,
            "--k" => k = lut_size(&mut it, "--k")?,
            "--out" => out = Some(value(&mut it, "--out")?.to_owned()),
            "--seed" => seed = num(&mut it, "--seed")?,
            other if other.starts_with('-') || input.is_some() => return Err(unknown(other)),
            other => input = Some(other.to_owned()),
        }
    }
    let (_, _, kind) = FLOWS
        .iter()
        .find(|(name, _, _)| *name == flow)
        .ok_or_else(|| format!("unknown flow '{flow}' (hyde|imodec|fgsyn|per-output)"))?;
    Ok(MapOptions {
        input: input.ok_or("map needs an input file (try --help)")?,
        session: Session::new(k, kind(seed)),
        out,
    })
}

/// `map`: the downstream-user entry point — the flows the paper's
/// evaluation uses, driven from a PLA or BLIF file instead of the suite.
fn map_file(opts: &MapOptions) -> CmdResult {
    let input = &opts.input;
    let text = std::fs::read_to_string(input).map_err(|e| format!("read {input}: {e}"))?;
    let too_wide = |n: usize| format!("{n} inputs exceed the exact-mapping limit of 20");
    // Load outputs as truth tables over the shared input space.
    let (name, outputs): (String, Vec<TruthTable>) = if input.ends_with(".blif") {
        let net = blif::parse(&text)?;
        if net.inputs().len() > 20 {
            return Err(too_wide(net.inputs().len()).into());
        }
        let tables = net.global_tables();
        let outs = net
            .outputs()
            .iter()
            .map(|(_, id)| tables[id].clone())
            .collect();
        (net.name().to_owned(), outs)
    } else {
        let pla = Pla::parse(&text)?;
        if pla.inputs > 20 {
            return Err(too_wide(pla.inputs).into());
        }
        let name = input.trim_end_matches(".pla").to_owned();
        (name, pla.output_tables())
    };
    let job = Job::new(name, outputs);
    let report = opts.session.run(&job).map_err(job_error)?.report;
    eprintln!(
        "{}: {} ({} LUTs{}, depth {}, {:.2}s)",
        job.name,
        report.network.stats(),
        report.luts,
        report
            .clbs
            .map_or(String::new(), |c| format!(", {c} XC3000 CLBs")),
        report.depth,
        report.elapsed.as_secs_f64()
    );
    let text = blif::write(&report.network);
    match &opts.out {
        Some(path) => std::fs::write(path, text).map_err(|e| format!("write {path}: {e}"))?,
        None => print!("{text}"),
    }
    Ok(())
}

/// `dump`: the suite as PLA files, for external tools (or to inspect
/// exactly what this reproduction maps).
fn dump(dir: &Path) -> CmdResult {
    std::fs::create_dir_all(dir)?;
    let suite = hyde_circuits::suite();
    let mut total_cubes = 0usize;
    for circuit in &suite {
        let pla = circuit.to_pla();
        let path = dir.join(format!("{}.pla", circuit.name));
        std::fs::write(&path, pla.to_text())?;
        total_cubes += pla.rows.len();
        println!(
            "{:<10} {} in, {} out, {} cubes -> {}",
            circuit.name,
            circuit.inputs,
            circuit.output_count(),
            pla.rows.len(),
            path.display()
        );
    }
    println!("{} circuits, {total_cubes} cubes total", suite.len());
    Ok(())
}
