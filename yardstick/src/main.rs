//! yardstick: the repository benchmark.
//!
//! One command runs one workload for a fixed time, checks every output
//! with its own oracle and prints the metrics as the last line of
//! stdout:
//!
//! ```text
//! yardstick --workload <suite-1t|serve-small|prove-suite> --seed <n>
//!           --seconds <s> --trace <0|1>
//! ```
//!
//! With `--trace 0` the line carries the end-to-end metrics, measured
//! with hyde-obs collection off; with `--trace 1` it carries the
//! per-layer metrics of a traced run. A detail line before it records
//! the host fingerprint and the per-circuit QoR. `yardstick/run.sh`
//! builds the benchmark and `hyde-serve` from source and forwards its
//! arguments here. `README.md` in this directory explains the
//! workloads and what each metric should move.

mod inproc;
mod oracle;
mod serve;
mod stats;

use std::collections::BTreeMap;
use std::fmt::Write as _;
use std::path::PathBuf;
use std::process::ExitCode;

/// LUT size every workload maps to.
pub const K: usize = 5;

/// End-to-end metrics: name and unit, in output order. Every workload
/// reports all of them.
pub const END_TO_END: &[(&str, &str)] = &[
    ("setup_s", "s"),
    ("pass_s", "s"),
    ("job_p50_ms", "ms"),
    ("job_tail_ms", "ms"),
    ("jobs_per_s", "1/s"),
    ("luts_total", "count"),
    ("depth_sum", "levels"),
    ("ok_frac", "ratio"),
    ("peak_rss_mb", "MB"),
];

/// Per-layer metrics of a traced run: name and unit. A layer a workload
/// does not reach reads 0.
pub const PER_LAYER: &[(&str, &str)] = &[
    ("core.varpart.score_self_s", "s"),
    ("core.varpart.floor_self_s", "s"),
    ("core.varpart.candidates", "count"),
    ("core.varpart.candidates_per_select", "count"),
    ("core.varpart.select_best_p50_us", "us"),
    ("core.chart.build_self_s", "s"),
    ("core.encoding.encode_self_s", "s"),
    ("core.decompose.steps", "count"),
    ("core.decompose.classes", "count"),
    ("core.hyper.fold_self_s", "s"),
    ("core.hyper.decompose_self_s", "s"),
    ("core.npn.hits", "count"),
    ("core.npn.misses", "count"),
    ("core.npn.hit_ratio", "ratio"),
    ("core.npn.canonize_s", "s"),
    ("core.parallel.steals", "count"),
    ("core.parallel.blocks", "count"),
    ("map.session_run_ms_p50", "ms"),
    ("map.session_run_ms_tail", "ms"),
    ("map.cover_self_s", "s"),
    ("map.verify_self_s", "s"),
    ("map.outputs_self_s", "s"),
    ("serve.submit_rtt_ms_p50", "ms"),
    ("serve.polls_per_job", "count"),
    ("serve.queue_wait_ms_mean", "ms"),
    ("serve.queue_wait_ms_p50", "ms"),
    ("serve.queue_wait_ms_tail", "ms"),
    ("serve.job_wall_ms_mean", "ms"),
    ("serve.job_wall_ms_p50", "ms"),
    ("serve.job_wall_ms_tail", "ms"),
    ("serve.request_us_p50", "us"),
    ("serve.journal_events", "count"),
    ("serve.retries", "count"),
    ("serve.rejected", "count"),
    ("logic.pla_parse_ms", "ms"),
    ("sat.cec_call_ms_p50", "ms"),
    ("sat.cec_call_ms_tail", "ms"),
    ("sat.proofs", "count"),
    ("sat.conflicts", "count"),
    ("sat.vars", "count"),
    ("sat.clauses", "count"),
    ("sat.solve_self_s", "s"),
    ("bdd.nodes", "count"),
    ("bdd.cache_hit_ratio", "ratio"),
    ("obs.trace_overhead", "ratio"),
    ("obs.dropped_events", "count"),
    ("bench.tail_pct", "pct"),
    ("bench.samples", "count"),
    ("failed_frac", "ratio"),
];

/// The workloads, by the names `--workload` accepts.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum Workload {
    /// The 25-circuit suite through one fresh `Session` per pass.
    Suite1t,
    /// Small PLA jobs served by `hyde-serve` to two closed-loop clients.
    ServeSmall,
    /// SAT equivalence proofs of the mapped suite and of mutants.
    ProveSuite,
}

impl Workload {
    fn parse(name: &str) -> Option<Self> {
        match name {
            "suite-1t" => Some(Workload::Suite1t),
            "serve-small" => Some(Workload::ServeSmall),
            "prove-suite" => Some(Workload::ProveSuite),
            _ => None,
        }
    }

    fn name(self) -> &'static str {
        match self {
            Workload::Suite1t => "suite-1t",
            Workload::ServeSmall => "serve-small",
            Workload::ProveSuite => "prove-suite",
        }
    }

    /// `HYDE_THREADS` the mapping runs at.
    fn threads(self) -> &'static str {
        match self {
            Workload::ServeSmall => "2",
            Workload::Suite1t | Workload::ProveSuite => "1",
        }
    }
}

/// Command-line arguments.
#[derive(Debug, Clone)]
pub struct Args {
    pub workload: Workload,
    pub seed: u64,
    /// Measurement window; passes start while it is still open.
    pub seconds: f64,
    pub trace: bool,
    /// The `hyde-serve` executable (serve-small only), from the same
    /// build directory as this benchmark.
    pub serve_bin: PathBuf,
    /// Scratch directory for journals and result files.
    pub out_dir: PathBuf,
}

const USAGE: &str = "usage: yardstick --workload <suite-1t|serve-small|prove-suite> \
--seed <n> --seconds <s> --trace <0|1>";

fn parse_args() -> Result<Args, String> {
    let target = PathBuf::from(std::env::var("CARGO_TARGET_DIR").unwrap_or(".bench_build".into()));
    let mut workload = None;
    let mut seed = None;
    let mut seconds = None;
    let mut trace = None;
    let mut it = std::env::args().skip(1);
    while let Some(flag) = it.next() {
        let mut value = || it.next().ok_or(format!("{flag} needs a value"));
        match flag.as_str() {
            "--workload" => {
                let v = value()?;
                workload = Some(Workload::parse(&v).ok_or(format!("unknown workload '{v}'"))?);
            }
            "--seed" => {
                seed = Some(
                    value()?
                        .parse::<u64>()
                        .map_err(|e| format!("--seed: {e}"))?,
                )
            }
            "--seconds" => {
                let s: f64 = value()?.parse().map_err(|e| format!("--seconds: {e}"))?;
                if !(s.is_finite() && s > 0.0) {
                    return Err("--seconds must be positive".into());
                }
                seconds = Some(s);
            }
            "--trace" => {
                trace = Some(match value()?.as_str() {
                    "0" => false,
                    "1" => true,
                    v => return Err(format!("--trace must be 0 or 1, not '{v}'")),
                })
            }
            other => return Err(format!("unknown argument '{other}'")),
        }
    }
    Ok(Args {
        workload: workload.ok_or("--workload is required")?,
        seed: seed.ok_or("--seed is required")?,
        seconds: seconds.ok_or("--seconds is required")?,
        trace: trace.ok_or("--trace is required")?,
        serve_bin: target.join("release").join("hyde-serve"),
        out_dir: target.join("yardstick"),
    })
}

/// QoR and timing of one circuit, so a `luts_total` move can be traced
/// to the circuit that moved.
#[derive(Debug, Clone)]
pub struct CircuitRow {
    pub name: String,
    pub luts: usize,
    pub depth: usize,
    /// Median time of the workload's per-circuit operation.
    pub ms: f64,
}

/// What a workload measured.
#[derive(Debug, Default)]
pub struct Report {
    pub attempted: u64,
    pub failed: u64,
    /// Metric values by name (units come from the tables above).
    pub metrics: BTreeMap<&'static str, f64>,
    pub circuits: Vec<CircuitRow>,
    /// The tail percentile behind `job_tail_ms`.
    pub tail: Option<stats::Tail>,
    /// One line per failed operation.
    pub failures: Vec<String>,
    /// Facts about the generated inputs worth keeping with the result.
    pub notes: Vec<String>,
}

impl Report {
    pub fn set(&mut self, name: &'static str, value: f64) {
        self.metrics.insert(name, value);
    }

    /// Records one failed operation.
    pub fn fail(&mut self, why: String) {
        self.failed += 1;
        self.failures.push(why);
    }

    /// Sets `failed_frac`/`ok_frac` from the counts.
    pub fn finish_counts(&mut self) {
        let frac = self.failed as f64 / self.attempted.max(1) as f64;
        self.set("failed_frac", frac);
        self.set("ok_frac", 1.0 - frac);
    }
}

/// Peak resident set (VmHWM) of a process, in MB.
pub fn peak_rss_mb(pid: &str) -> Result<f64, String> {
    let status = std::fs::read_to_string(format!("/proc/{pid}/status"))
        .map_err(|e| format!("read /proc/{pid}/status: {e}"))?;
    status
        .lines()
        .find_map(|l| l.strip_prefix("VmHWM:"))
        .and_then(|v| v.trim().trim_end_matches("kB").trim().parse::<f64>().ok())
        .map(|kb| kb / 1024.0)
        .ok_or_else(|| "no VmHWM in /proc status".into())
}

fn command_line(program: &str, args: &[&str]) -> Option<String> {
    let out = std::process::Command::new(program)
        .args(args)
        .output()
        .ok()?;
    let text = String::from_utf8_lossy(&out.stdout).trim().to_owned();
    (out.status.success() && !text.is_empty()).then_some(text)
}

fn json_str(s: &str) -> String {
    format!("\"{}\"", hyde_obs::json::escape(s))
}

/// Host fingerprint: where and on what these numbers were taken.
fn fingerprint(args: &Args) -> String {
    let cpu = std::fs::read_to_string("/proc/cpuinfo")
        .ok()
        .and_then(|t| {
            t.lines()
                .find_map(|l| l.strip_prefix("model name"))
                .map(|v| v.trim_start_matches([' ', '\t', ':']).trim().to_owned())
        })
        .unwrap_or_else(|| "unknown".into());
    let nproc = std::thread::available_parallelism().map_or(0, usize::from);
    let rustc = command_line("rustc", &["--version"]).unwrap_or_else(|| "unknown".into());
    let commit = command_line("git", &["rev-parse", "HEAD"]).unwrap_or_else(|| "unknown".into());
    format!(
        "{{\"cpu\":{},\"nproc\":{nproc},\"rustc\":{},\"hyde_threads\":{},\"commit\":{},\
         \"workload\":{},\"seed\":{},\"seconds\":{},\"trace\":{}}}",
        json_str(&cpu),
        json_str(&rustc),
        json_str(args.workload.threads()),
        json_str(&commit),
        json_str(args.workload.name()),
        args.seed,
        args.seconds,
        u8::from(args.trace)
    )
}

/// The metrics table this run reports, with each value. Fails if a
/// workload left an end-to-end metric unset or produced a non-finite
/// value.
fn selected(
    args: &Args,
    report: &Report,
) -> Result<Vec<(&'static str, &'static str, f64)>, String> {
    let table = if args.trace { PER_LAYER } else { END_TO_END };
    table
        .iter()
        .map(|&(name, unit)| {
            let v = match report.metrics.get(name) {
                Some(&v) => v,
                None if args.trace => 0.0,
                None => return Err(format!("workload did not measure {name}")),
            };
            if v.is_finite() {
                Ok((name, unit, v))
            } else {
                Err(format!("{name} is not finite ({v})"))
            }
        })
        .collect()
}

fn detail_json(args: &Args, report: &Report, fp: &str) -> String {
    let mut s = format!("{{\"yardstick\":{{\"host\":{fp},\"circuits\":[");
    for (i, c) in report.circuits.iter().enumerate() {
        let sep = if i == 0 { "" } else { "," };
        let _ = write!(
            s,
            "{sep}{{\"name\":{},\"luts\":{},\"depth\":{},\"ms\":{}}}",
            json_str(&c.name),
            c.luts,
            c.depth,
            c.ms
        );
    }
    s.push(']');
    if let Some(t) = report.tail {
        let _ = write!(
            s,
            ",\"job_tail\":{{\"pct\":{},\"value_ms\":{},\"beyond\":{},\"samples\":{}}}",
            t.pct, t.value, t.beyond, t.samples
        );
    }
    for (key, lines) in [("failures", &report.failures), ("notes", &report.notes)] {
        let _ = write!(s, ",\"{key}\":[");
        for (i, line) in lines.iter().enumerate() {
            let sep = if i == 0 { "" } else { "," };
            let _ = write!(s, "{sep}{}", json_str(line));
        }
        s.push(']');
    }
    let _ = write!(s, ",\"trace\":{}}}}}", u8::from(args.trace));
    s
}

fn result_json(report: &Report, metrics: &[(&str, &str, f64)]) -> String {
    let mut s = format!(
        "{{\"correct\": {}, \"attempted\": {}, \"failed\": {}, \"metrics\": {{",
        report.failed == 0,
        report.attempted,
        report.failed
    );
    for (i, (name, unit, v)) in metrics.iter().enumerate() {
        let sep = if i == 0 { "" } else { ", " };
        let _ = write!(
            s,
            "{sep}\"{name}\": {{\"value\": {v}, \"unit\": \"{unit}\"}}"
        );
    }
    s.push_str("}}");
    s
}

fn run(args: &Args) -> Result<(), String> {
    std::fs::create_dir_all(&args.out_dir)
        .map_err(|e| format!("create {}: {e}", args.out_dir.display()))?;
    // The in-process workloads read HYDE_THREADS at every fan-out; set it
    // before any mapping thread exists. serve-small passes it to the
    // server's environment instead.
    std::env::set_var("HYDE_THREADS", args.workload.threads());
    let mut report = match args.workload {
        Workload::Suite1t => inproc::suite_1t(args)?,
        Workload::ProveSuite => inproc::prove_suite(args)?,
        Workload::ServeSmall => serve::serve_small(args)?,
    };
    if report.attempted == 0 {
        return Err("no operation was attempted".into());
    }
    report.finish_counts();
    let metrics = selected(args, &report)?;
    let fp = fingerprint(args);
    let detail = detail_json(args, &report, &fp);
    let path = args.out_dir.join(format!(
        "{}-s{}-t{}.json",
        args.workload.name(),
        args.seed,
        u8::from(args.trace)
    ));
    std::fs::write(&path, format!("{detail}\n"))
        .map_err(|e| format!("write {}: {e}", path.display()))?;

    eprintln!(
        "yardstick {} seed {} host {fp}",
        args.workload.name(),
        args.seed
    );
    for c in &report.circuits {
        eprintln!(
            "  {:<8} luts {:>4} depth {:>2} {:>10.3} ms",
            c.name, c.luts, c.depth, c.ms
        );
    }
    for (name, unit, v) in &metrics {
        eprintln!("  {name:<38} {v:>14.6} {unit}");
    }
    if let Some(t) = report.tail {
        eprintln!(
            "  job tail is p{} over {} samples ({} beyond)",
            t.pct, t.samples, t.beyond
        );
    }
    eprintln!(
        "  failed_frac {} ({} of {})",
        report.metrics["failed_frac"], report.failed, report.attempted
    );
    for n in &report.notes {
        eprintln!("  {n}");
    }
    for f in &report.failures {
        eprintln!("  FAILED: {f}");
    }
    println!("{detail}");
    println!("{}", result_json(&report, &metrics));
    Ok(())
}

fn main() -> ExitCode {
    let args = match parse_args() {
        Ok(a) => a,
        Err(e) => {
            eprintln!("yardstick: {e}\n{USAGE}");
            return ExitCode::from(2);
        }
    };
    match run(&args) {
        Ok(()) => ExitCode::SUCCESS,
        Err(e) => {
            eprintln!("yardstick: {e}");
            ExitCode::FAILURE
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    /// Names and units in `BENCHMARK.json` must be the ones printed.
    #[test]
    fn metric_tables_match_benchmark_json() {
        let path = concat!(env!("CARGO_MANIFEST_DIR"), "/../BENCHMARK.json");
        let text = std::fs::read_to_string(path).expect("BENCHMARK.json at the repository root");
        let doc = hyde_obs::json::parse(&text).expect("valid JSON");
        for (key, table) in [("end_to_end", END_TO_END), ("per_layer", PER_LAYER)] {
            let listed: Vec<(String, String)> = doc
                .get(key)
                .and_then(|v| v.as_arr())
                .expect("metric list")
                .iter()
                .map(|m| {
                    let field = |k: &str| m.get(k).and_then(|v| v.as_str()).expect(k).to_owned();
                    (field("name"), field("unit"))
                })
                .collect();
            let printed: Vec<(String, String)> = table
                .iter()
                .map(|(n, u)| ((*n).to_owned(), (*u).to_owned()))
                .collect();
            assert_eq!(listed, printed, "{key}");
        }
    }

    #[test]
    fn result_line_has_exactly_the_four_result_keys() {
        let mut r = Report {
            attempted: 4,
            ..Report::default()
        };
        r.fail("x".into());
        let line = result_json(&r, &[("pass_s", "s", 1.25)]);
        let doc = hyde_obs::json::parse(&line).unwrap();
        assert_eq!(doc.get("correct"), Some(&hyde_obs::json::Json::Bool(false)));
        assert_eq!(doc.get("attempted").and_then(|v| v.as_num()), Some(4.0));
        assert_eq!(doc.get("failed").and_then(|v| v.as_num()), Some(1.0));
        let m = doc.get("metrics").and_then(|m| m.get("pass_s")).unwrap();
        assert_eq!(m.get("value").and_then(|v| v.as_num()), Some(1.25));
    }
}
