//! End-to-end performance measurement with JSON output (`hyde-bench`).
//!
//! Unlike the table subcommands (which reproduce the paper's numbers), this
//! module measures *runtime*: per-circuit wall time of the HYDE flow,
//! with the LUT count and depth of each mapped network. Every column is
//! measured on the mapping flow itself. Results serialize to a
//! `BENCH_<name>.json` document that `cargo xtask perf-diff` compares
//! against a recorded run.
//!
//! The JSON is hand-rolled (the build is offline, no serde); the schema is
//! deliberately flat and versioned by the `schema` field. Every reader
//! parses it with [`hyde_obs::json::parse`].

use hyde_circuits::Circuit;
use hyde_core::CoreError;
use hyde_map::flow::FlowKind;
use hyde_map::session::{BudgetSpec, Job, JobErrorKind, Session};
use hyde_obs::json::{self, Json};
use std::fmt::Write as _;
use std::time::Instant;

/// Schema tag written into every benchmark JSON. v4 dropped the
/// `bdd_nodes`, `bdd_cache_hit_rate` and `bdd_unique_probes` columns,
/// which came from a BDD build the mapping flow never runs.
pub const SCHEMA: &str = "hyde-bench-v4";

/// Per-circuit measurement.
#[derive(Debug, Clone)]
pub struct CircuitSample {
    /// Circuit name.
    pub name: String,
    /// Primary input count.
    pub inputs: usize,
    /// Primary output count.
    pub outputs: usize,
    /// Wall-clock milliseconds of the end-to-end HYDE flow.
    pub wall_ms: f64,
    /// LUTs in the mapped network.
    pub luts: usize,
    /// Logic depth in LUT levels.
    pub depth: usize,
}

/// One full benchmark run.
#[derive(Debug, Clone)]
pub struct BenchRun {
    /// Run label (`BENCH_<name>.json`).
    pub name: String,
    /// LUT size the flow targeted.
    pub k: usize,
    /// Worker threads the parallel fan-out loops used.
    pub threads: usize,
    /// Per-circuit samples, in suite order.
    pub samples: Vec<CircuitSample>,
    /// Per-phase observability breakdown, when the run was traced;
    /// serialized under `"obs"`.
    pub obs: Option<hyde_obs::ObsReport>,
}

impl BenchRun {
    /// Total flow wall time in milliseconds.
    pub fn total_wall_ms(&self) -> f64 {
        self.samples.iter().map(|s| s.wall_ms).sum()
    }

    /// Total LUT count.
    pub fn total_luts(&self) -> usize {
        self.samples.iter().map(|s| s.luts).sum()
    }
}

/// Describes a [`hyde_guard::Budget`] as a serializable
/// [`BudgetSpec`]: an absolute deadline becomes the milliseconds still
/// remaining, restarted at each attempt.
fn budget_spec(budget: &hyde_guard::Budget) -> BudgetSpec {
    BudgetSpec {
        deadline_ms: budget
            .deadline
            .map(|d| d.saturating_duration_since(Instant::now()).as_millis() as u64),
        bdd_nodes: budget.bdd_nodes,
        candidates: budget.candidates,
    }
}

/// Runs the HYDE flow (k-input LUTs) over `circuits` under `budget`,
/// measuring each. Exhausting the budget degrades down the hyde-map
/// fallback ladder instead of failing the run.
///
/// With `traced`, span/counter collection is active for the run: the
/// returned [`BenchRun`] carries the aggregated [`hyde_obs::ObsReport`]
/// and the raw events stay in the global collector, so the caller can
/// also export Chrome-trace/folded artifacts with
/// [`hyde_obs::write_artifacts`].
///
/// # Errors
///
/// Propagates the first mapping failure. A panicking circuit surfaces as
/// [`CoreError::Verification`] rather than aborting the process.
pub fn run_bench(
    name: &str,
    circuits: &[Circuit],
    k: usize,
    budget: hyde_guard::Budget,
    traced: bool,
) -> Result<BenchRun, CoreError> {
    if traced {
        hyde_obs::reset();
        hyde_obs::enable();
    }
    let samples = measure(circuits, k, &budget);
    if traced {
        hyde_obs::disable();
    }
    Ok(BenchRun {
        name: name.to_owned(),
        k,
        threads: hyde_core::parallel::thread_count(),
        samples: samples?,
        obs: traced.then(hyde_obs::report),
    })
}

fn measure(
    circuits: &[Circuit],
    k: usize,
    budget: &hyde_guard::Budget,
) -> Result<Vec<CircuitSample>, CoreError> {
    let session = Session::new(k, FlowKind::hyde(0xDA98));
    let spec = budget_spec(budget);
    let mut samples = Vec::with_capacity(circuits.len());
    for c in circuits {
        let _obs = hyde_obs::span!("bench.circuit");
        let start = Instant::now();
        let job = Job::new(&c.name, c.outputs.clone()).with_budget(spec);
        let report = session.run(&job).map_err(crate::job_error)?.report;
        let wall_ms = start.elapsed().as_secs_f64() * 1e3;
        hyde_obs::observe("bench.circuit_wall_us", (wall_ms * 1e3) as u64);
        samples.push(CircuitSample {
            name: c.name.clone(),
            inputs: c.inputs,
            outputs: c.output_count(),
            wall_ms,
            luts: report.luts,
            depth: report.depth,
        });
    }
    Ok(samples)
}

fn push_f64(out: &mut String, v: f64) {
    if v.is_finite() {
        let _ = write!(out, "{v:.3}");
    } else {
        out.push_str("null");
    }
}

/// Serializes a run to the benchmark JSON schema ([`SCHEMA`]).
pub fn to_json(run: &BenchRun) -> String {
    let mut s = String::new();
    s.push_str("{\n");
    let _ = writeln!(s, "  \"schema\": \"{SCHEMA}\",");
    let _ = writeln!(s, "  \"name\": \"{}\",", json::escape(&run.name));
    let _ = writeln!(s, "  \"k\": {},", run.k);
    let _ = writeln!(s, "  \"threads\": {},", run.threads);
    s.push_str("  \"circuits\": [\n");
    for (i, c) in run.samples.iter().enumerate() {
        let _ = write!(
            s,
            "    {{\"name\": \"{}\", \"inputs\": {}, \"outputs\": {}, \"wall_ms\": ",
            json::escape(&c.name),
            c.inputs,
            c.outputs
        );
        push_f64(&mut s, c.wall_ms);
        let _ = write!(s, ", \"luts\": {}, \"depth\": {}}}", c.luts, c.depth);
        if i + 1 < run.samples.len() {
            s.push(',');
        }
        s.push('\n');
    }
    s.push_str("  ],\n");
    s.push_str("  \"totals\": {\"wall_ms\": ");
    push_f64(&mut s, run.total_wall_ms());
    let _ = write!(s, ", \"luts\": {}}}", run.total_luts());
    if let Some(obs) = &run.obs {
        s.push_str(",\n  \"obs\": ");
        s.push_str(obs.to_json("  ").trim_start());
    }
    s.push_str("\n}\n");
    s
}

/// Parses `text` and checks that its `schema` tag is `tag`.
fn parse_tagged(text: &str, tag: &str) -> Result<Json, String> {
    let doc = json::parse(text).map_err(|e| format!("not JSON: {e}"))?;
    match doc.get("schema").and_then(Json::as_str) {
        Some(t) if t == tag => Ok(doc),
        Some(t) => Err(format!("schema tag \"{t}\" is not {tag}")),
        None => Err(format!("missing schema tag {tag}")),
    }
}

/// Structural check used by `cargo xtask bench`: the document must parse,
/// carry the current schema tag, give every circuit a name and a wall
/// time, and have a non-negative `totals.wall_ms`.
pub fn validate_json(text: &str) -> Result<(), String> {
    let doc = parse_tagged(text, SCHEMA)?;
    let circuits = doc
        .get("circuits")
        .and_then(Json::as_arr)
        .ok_or("missing circuits array")?;
    for c in circuits {
        if c.get("name").and_then(Json::as_str).is_none()
            || c.get("wall_ms").and_then(Json::as_num).is_none()
        {
            return Err("circuit entry without a name or wall_ms".into());
        }
    }
    match doc
        .get("totals")
        .and_then(|t| t.get("wall_ms"))
        .and_then(Json::as_num)
    {
        Some(ms) if ms >= 0.0 => Ok(()),
        Some(ms) => Err(format!("negative total wall_ms {ms}")),
        None => Err("totals.wall_ms not a number".into()),
    }
}

/// Schema tag of chaos-drill reports (`CHAOS_<name>.json`).
pub const CHAOS_SCHEMA: &str = "hyde-chaos-v1";

/// How one circuit fared under a chaos drill.
#[derive(Debug, Clone)]
pub enum ChaosStatus {
    /// Mapped and passed the flow's CEC gate.
    Ok {
        /// LUTs in the (possibly degraded) network.
        luts: usize,
    },
    /// The flow returned a typed error.
    Failed {
        /// The error text.
        error: String,
    },
    /// The flow panicked (isolated per circuit; chaos injects these
    /// deliberately when `HYDE_CHAOS_PANIC=1`).
    Panicked {
        /// The panic message.
        message: String,
    },
}

/// Per-circuit record of a chaos drill.
#[derive(Debug, Clone)]
pub struct ChaosSample {
    /// Circuit name.
    pub name: String,
    /// Outcome.
    pub status: ChaosStatus,
    /// Degradation events the ladder recorded for this circuit.
    pub degradations: Vec<hyde_guard::DegradationEvent>,
}

/// One full chaos drill over the suite.
#[derive(Debug, Clone)]
pub struct ChaosRun {
    /// Run label (`CHAOS_<name>.json`).
    pub name: String,
    /// The chaos seed driving the fault schedule.
    pub seed: u64,
    /// LUT size the flow targeted.
    pub k: usize,
    /// Per-circuit samples, in suite order.
    pub samples: Vec<ChaosSample>,
}

impl ChaosRun {
    /// Total degradation events across all circuits.
    pub fn total_degradations(&self) -> usize {
        self.samples.iter().map(|s| s.degradations.len()).sum()
    }
}

/// Runs the HYDE flow over `circuits` with the chaos layer armed on
/// `seed`: budget exhaustions, simulated BDD allocation failures and (when
/// `HYDE_CHAOS_PANIC=1`) injected panics, every circuit isolated so the
/// drill always completes. `budget` adds *real* resource caps on top of
/// the injected ones (pass [`hyde_guard::Budget::unlimited`] for
/// injection-only drills). Each circuit runs as a single-attempt
/// [`Session`] job, so panic isolation and degradation capture are the
/// same supervised path `hyde-serve` uses; every `Ok` sample's network
/// already passed the flow's CEC verification gate.
pub fn run_chaos(
    name: &str,
    circuits: &[Circuit],
    k: usize,
    seed: u64,
    budget: hyde_guard::Budget,
) -> ChaosRun {
    let session = Session::new(k, FlowKind::hyde(0xDA98)).with_chaos(seed);
    let spec = budget_spec(&budget);
    let mut samples = Vec::with_capacity(circuits.len());
    for c in circuits {
        let _obs = hyde_obs::span!("bench.chaos_circuit");
        let job = Job::new(&c.name, c.outputs.clone()).with_budget(spec);
        let (status, degradations) = match session.run(&job) {
            Ok(result) => (
                ChaosStatus::Ok {
                    luts: result.report.luts,
                },
                result.degradations,
            ),
            Err(e) => {
                let status = match e.kind {
                    JobErrorKind::Panicked(message) => ChaosStatus::Panicked { message },
                    JobErrorKind::Mapping(error) => ChaosStatus::Failed { error },
                    JobErrorKind::OutOfBudget(ob) => ChaosStatus::Failed {
                        error: CoreError::OutOfBudget(ob).to_string(),
                    },
                };
                (status, e.degradations)
            }
        };
        samples.push(ChaosSample {
            name: c.name.clone(),
            status,
            degradations,
        });
    }
    ChaosRun {
        name: name.to_owned(),
        seed,
        k,
        samples,
    }
}

/// Serializes a chaos drill to `CHAOS_<name>.json` (schema
/// [`CHAOS_SCHEMA`]).
pub fn chaos_to_json(run: &ChaosRun) -> String {
    let mut s = String::new();
    s.push_str("{\n");
    let _ = writeln!(s, "  \"schema\": \"{CHAOS_SCHEMA}\",");
    let _ = writeln!(s, "  \"name\": \"{}\",", json::escape(&run.name));
    let _ = writeln!(s, "  \"seed\": {},", run.seed);
    let _ = writeln!(s, "  \"k\": {},", run.k);
    s.push_str("  \"circuits\": [\n");
    for (i, c) in run.samples.iter().enumerate() {
        let _ = write!(s, "    {{\"name\": \"{}\", ", json::escape(&c.name));
        match &c.status {
            ChaosStatus::Ok { luts } => {
                let _ = write!(s, "\"status\": \"ok\", \"luts\": {luts}");
            }
            ChaosStatus::Failed { error } => {
                let _ = write!(
                    s,
                    "\"status\": \"failed\", \"error\": \"{}\"",
                    json::escape(error)
                );
            }
            ChaosStatus::Panicked { message } => {
                let _ = write!(
                    s,
                    "\"status\": \"panicked\", \"error\": \"{}\"",
                    json::escape(message)
                );
            }
        }
        s.push_str(", \"degradations\": [");
        for (j, e) in c.degradations.iter().enumerate() {
            let _ = write!(
                s,
                "{}{{\"stage\": \"{}\", \"from\": \"{}\", \"to\": \"{}\", \
                 \"resource\": \"{}\", \"injected\": {}}}",
                if j > 0 { ", " } else { "" },
                json::escape(&e.stage),
                e.from,
                e.to,
                e.resource,
                e.injected
            );
        }
        s.push_str("]}");
        if i + 1 < run.samples.len() {
            s.push(',');
        }
        s.push('\n');
    }
    s.push_str("  ],\n");
    let ok = run
        .samples
        .iter()
        .filter(|s| matches!(s.status, ChaosStatus::Ok { .. }))
        .count();
    let failed = run
        .samples
        .iter()
        .filter(|s| matches!(s.status, ChaosStatus::Failed { .. }))
        .count();
    let panicked = run
        .samples
        .iter()
        .filter(|s| matches!(s.status, ChaosStatus::Panicked { .. }))
        .count();
    let _ = write!(
        s,
        "  \"totals\": {{\"ok\": {ok}, \"failed\": {failed}, \"panicked\": {panicked}, \
         \"degradations\": {}}}",
        run.total_degradations()
    );
    s.push_str("\n}\n");
    s
}

/// Structural check used by `cargo xtask chaos`: the document must
/// parse, carry the chaos schema tag and a circuits array, and report
/// zero hard failures in its totals (a `failed` circuit means a rung of
/// the fallback ladder broke, which the drill treats as a defect).
pub fn validate_chaos_json(text: &str) -> Result<(), String> {
    let doc = parse_tagged(text, CHAOS_SCHEMA)?;
    if doc.get("circuits").and_then(Json::as_arr).is_none() {
        return Err("missing circuits array".into());
    }
    match doc
        .get("totals")
        .and_then(|t| t.get("failed"))
        .and_then(Json::as_num)
    {
        Some(0.0) => Ok(()),
        Some(n) => Err(format!("{n} circuit(s) failed with typed errors")),
        None => Err("totals.failed not a number".into()),
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use hyde_guard::Budget;

    fn sample_run() -> BenchRun {
        BenchRun {
            name: "unit".into(),
            k: 5,
            threads: 1,
            obs: None,
            samples: vec![
                CircuitSample {
                    name: "a".into(),
                    inputs: 4,
                    outputs: 2,
                    wall_ms: 12.5,
                    luts: 3,
                    depth: 2,
                },
                CircuitSample {
                    name: "b".into(),
                    inputs: 5,
                    outputs: 1,
                    wall_ms: 7.5,
                    luts: 2,
                    depth: 1,
                },
            ],
        }
    }

    #[test]
    fn json_round_trips_totals() {
        let json = to_json(&sample_run());
        validate_json(&json).unwrap();
        let doc = json::parse(&json).unwrap();
        let totals = doc.get("totals").unwrap();
        let ms = totals.get("wall_ms").and_then(Json::as_num).unwrap();
        assert!((ms - 20.0).abs() < 1e-6);
        assert_eq!(totals.get("luts").and_then(Json::as_num), Some(5.0));
        assert!(!json.contains("bdd_"), "v4 has no BDD columns:\n{json}");
    }

    #[test]
    fn names_with_quotes_and_backslashes_stay_valid_json() {
        let mut run = sample_run();
        run.name = r#"we"ird\name"#.into();
        run.samples[0].name = "tab\there \"quoted\"".into();
        let json = to_json(&run);
        let doc = json::parse(&json).expect("escaped document parses");
        assert_eq!(
            doc.get("name").and_then(Json::as_str),
            Some(run.name.as_str())
        );
        let first = &doc.get("circuits").and_then(Json::as_arr).unwrap()[0];
        assert_eq!(
            first.get("name").and_then(Json::as_str),
            Some(run.samples[0].name.as_str())
        );
        validate_json(&json).unwrap();
    }

    #[test]
    fn writer_and_perf_diff_reader_agree() {
        // A smoke circuit well above the 2ms slack, so the ratio decides.
        let doc_with_misex1_at = |wall_ms: f64| {
            let mut run = sample_run();
            run.samples[0].name = "misex1".into();
            run.samples[0].wall_ms = wall_ms;
            to_json(&run)
        };
        let old = doc_with_misex1_at(100.0);
        let slower = crate::diff::diff(&old, &doc_with_misex1_at(140.0)).unwrap();
        assert!(slower.regressed(), "1.4x must fail:\n{}", slower.render());
        assert!(slower.regressions[0].contains("misex1"));
        let within = crate::diff::diff(&old, &doc_with_misex1_at(120.0)).unwrap();
        assert!(!within.regressed(), "1.2x must pass:\n{}", within.render());
        assert_eq!(within.circuits.len(), 2);
    }

    #[test]
    fn validate_rejects_garbage_and_other_tags() {
        assert!(validate_json("{}").is_err());
        assert!(validate_json("not json").is_err());
        let v3 = to_json(&sample_run()).replace(SCHEMA, "hyde-bench-v3");
        assert!(validate_json(&v3).is_err());
        // An unescaped quote inside a name is not JSON.
        let broken = to_json(&sample_run()).replace("\"name\": \"a\"", "\"name\": \"a\"b\"");
        assert!(validate_json(&broken).is_err());
    }

    #[test]
    fn obs_section_embeds_and_stays_valid_json() {
        let mut run = sample_run();
        run.obs = Some(hyde_obs::report());
        let json = to_json(&run);
        validate_json(&json).unwrap();
        assert!(json::parse(&json).unwrap().get("obs").is_some());
    }

    #[test]
    fn chaos_json_round_trips_and_validates() {
        let run = ChaosRun {
            name: "unit".into(),
            seed: 42,
            k: 5,
            samples: vec![
                ChaosSample {
                    name: "a".into(),
                    status: ChaosStatus::Ok { luts: 7 },
                    degradations: Vec::new(),
                },
                ChaosSample {
                    name: "b".into(),
                    status: ChaosStatus::Panicked {
                        message: "chaos: injected \"panic\"".into(),
                    },
                    degradations: Vec::new(),
                },
            ],
        };
        let json = chaos_to_json(&run);
        validate_chaos_json(&json).unwrap();

        let mut failed = run.clone();
        failed.samples[0].status = ChaosStatus::Failed {
            error: "rung broke".into(),
        };
        let err = validate_chaos_json(&chaos_to_json(&failed)).unwrap_err();
        assert!(err.contains("failed"), "{err}");
        assert!(validate_chaos_json("{}").is_err());
        assert!(validate_chaos_json(&json.replace(CHAOS_SCHEMA, SCHEMA)).is_err());
    }

    #[test]
    fn run_bench_smoke() {
        let circuits = vec![hyde_circuits::rd73()];
        let run = run_bench("smoke", &circuits, 5, Budget::unlimited(), false).unwrap();
        assert_eq!(run.samples.len(), 1);
        assert!(run.samples[0].wall_ms >= 0.0);
        assert!(run.samples[0].luts > 0);
        assert!(run.obs.is_none());
        validate_json(&to_json(&run)).unwrap();
    }

    #[test]
    fn forced_bdd_rung_reports_bdd_counters_in_obs() {
        // Candidate exhaustion degrades Exact -> BddThreshold (the same
        // forcing trick as hyde-map's ladder tests), so the flow itself
        // creates and drops BDD managers; a traced run sees them as
        // `bdd.*` counters.
        let circuits = vec![hyde_circuits::rd73()];
        let budget = Budget::unlimited().with_candidates(0);
        let run = run_bench("forced", &circuits, 5, budget, true).unwrap();
        let obs = run.obs.expect("traced run carries a report");
        let managers = obs.counter("bdd.managers").map_or(0, |c| c.sum);
        assert!(managers > 0, "BDD rung never ran a manager");
        assert!(obs.counter("bdd.cache_lookups").map_or(0, |c| c.sum) > 0);
    }
}
