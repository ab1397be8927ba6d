//! The in-process workloads: `suite-1t` (mapping) and `prove-suite`
//! (equivalence proofs). Both call the crates' public entry points
//! directly: `hyde_map::Session::run` and
//! `hyde_sat::cec_network_vs_tables`.

use crate::oracle;
use crate::stats::{self, ratio, SplitMix};
use crate::{Args, CircuitRow, Report, K};
use hyde_circuits::Circuit;
use hyde_logic::{Network, NodeRole, TruthTable};
use hyde_map::{FlowKind, Job, MappingReport, Session};
use hyde_obs::ObsReport;
use hyde_sat::{CecOutcome, CecProof};
use std::collections::BTreeMap;
use std::time::{Duration, Instant};

/// Encoder seed of the HYDE flow, as in the paper-table drivers.
const FLOW_SEED: u64 = 0xDA98;
/// Passes every run makes at least; each is one job in the `job_*`
/// metrics. prove-suite's passes are long, so it makes fewer.
const SUITE_MIN_PASSES: usize = 4;
const PROVE_MIN_PASSES: usize = 2;
/// Set-ups timed per suite-1t run (`setup_s` is their median). One takes
/// 10 to 20 ms, so 101 of them span more than a second and a short slow
/// spell of the host does not set the median.
const SUITE_SETUPS: usize = 101;
/// Set-ups timed per prove-suite run; each maps the whole suite.
const PROVE_SETUPS: usize = 2;
/// Per-call proof budget. A proof that runs out is inconclusive, which
/// counts as a failed operation.
const PROOF_TIME: Duration = Duration::from_secs(60);

fn session() -> Session {
    Session::new(K, FlowKind::hyde(FLOW_SEED))
}

fn suite_jobs(circuits: &[Circuit]) -> Vec<Job> {
    circuits
        .iter()
        .map(|c| Job::new(&c.name, c.outputs.clone()))
        .collect()
}

/// Runs `f` with hyde-obs collecting when `on`, returning its report.
fn traced<T>(on: bool, f: impl FnOnce() -> T) -> (T, Option<ObsReport>) {
    if !on {
        return (f(), None);
    }
    hyde_obs::reset();
    hyde_obs::enable();
    let v = f();
    hyde_obs::disable();
    (v, Some(hyde_obs::report()))
}

fn self_s(r: &ObsReport, span: &str) -> f64 {
    r.phase(span).map_or(0.0, |p| p.self_us as f64 / 1e6)
}

fn sum(r: &ObsReport, counter: &str) -> f64 {
    r.counter(counter).map_or(0.0, |c| c.sum as f64)
}

/// Per-layer metrics read from one traced pass's hyde-obs report.
fn obs_layers(r: &ObsReport) -> BTreeMap<&'static str, f64> {
    let selects = r.phase("varpart.select_best");
    let (hits, misses) = (sum(r, "hyde.npn.hits"), sum(r, "hyde.npn.misses"));
    BTreeMap::from([
        ("core.varpart.score_self_s", self_s(r, "varpart.score")),
        ("core.varpart.floor_self_s", self_s(r, "varpart.floor")),
        ("core.varpart.candidates", sum(r, "varpart.candidates")),
        (
            "core.varpart.candidates_per_select",
            ratio(
                sum(r, "varpart.candidates"),
                selects.map_or(0.0, |p| p.count as f64),
            ),
        ),
        (
            "core.varpart.select_best_p50_us",
            selects.and_then(|p| p.p50_us).unwrap_or(0.0),
        ),
        ("core.chart.build_self_s", self_s(r, "chart.build")),
        ("core.encoding.encode_self_s", self_s(r, "encoding.encode")),
        ("core.decompose.steps", sum(r, "decompose.steps")),
        ("core.decompose.classes", sum(r, "decompose.classes")),
        ("core.hyper.fold_self_s", self_s(r, "hyper.fold")),
        ("core.hyper.decompose_self_s", self_s(r, "hyper.decompose")),
        ("core.npn.hits", hits),
        ("core.npn.misses", misses),
        ("core.npn.hit_ratio", ratio(hits, hits + misses)),
        ("core.npn.canonize_s", sum(r, "hyde.npn.canonize_us") / 1e6),
        ("core.parallel.steals", sum(r, "sched.steal.steals")),
        ("core.parallel.blocks", sum(r, "sched.steal.blocks")),
        ("map.cover_self_s", self_s(r, "map.cover")),
        ("map.verify_self_s", self_s(r, "map.verify")),
        ("map.outputs_self_s", self_s(r, "map.outputs")),
        ("sat.solve_self_s", self_s(r, "sat.solve")),
        ("bdd.nodes", sum(r, "bdd.nodes")),
        (
            "bdd.cache_hit_ratio",
            ratio(sum(r, "bdd.cache_hits"), sum(r, "bdd.cache_lookups")),
        ),
        ("obs.dropped_events", r.dropped_events as f64),
    ])
}

/// One timed pass and, when traced, its per-layer metrics.
struct Pass<T> {
    wall_s: f64,
    call_ms: Vec<f64>,
    out: T,
    layers: Option<BTreeMap<&'static str, f64>>,
}

/// Runs passes until the window closes, and at least `min` of them. In a
/// traced run, odd passes are traced and even passes are not, so the run
/// also yields the tracing overhead.
fn run_passes<T>(
    args: &Args,
    min: usize,
    mut pass: impl FnMut(&mut Vec<f64>) -> T,
) -> Vec<Pass<T>> {
    let window = Duration::from_secs_f64(args.seconds);
    let start = Instant::now();
    let mut passes = Vec::new();
    while passes.len() < min || start.elapsed() < window {
        let on = args.trace && passes.len() % 2 == 1;
        let mut call_ms = Vec::new();
        let t = Instant::now();
        let (out, report) = traced(on, || pass(&mut call_ms));
        let wall_s = t.elapsed().as_secs_f64();
        passes.push(Pass {
            wall_s,
            call_ms,
            out,
            layers: report.as_ref().map(obs_layers),
        });
    }
    passes
}

fn ms_since(t: Instant) -> f64 {
    t.elapsed().as_secs_f64() * 1e3
}

/// Times each repetition of `setup`, returning the last result and the
/// median time in seconds.
fn timed_setup<T>(reps: usize, mut setup: impl FnMut() -> T) -> (T, f64) {
    let mut times = Vec::with_capacity(reps);
    let mut last = None;
    for _ in 0..reps {
        let t = Instant::now();
        last = Some(std::hint::black_box(setup()));
        times.push(t.elapsed().as_secs_f64());
    }
    (last.expect("at least one set-up"), stats::median(&times))
}

/// Sets the metrics both in-process workloads share: pass time, job
/// latency and throughput, tracing overhead and the traced layer medians.
///
/// The job is a whole pass. A single call's time swings too much on a
/// shared host for a bounded metric, so the per-call p50 and tail are
/// per-layer metrics, named by `call_layer`.
fn pass_metrics<T>(report: &mut Report, passes: &[Pass<T>], call_layer: [&'static str; 2]) {
    let (traced, plain): (Vec<&Pass<T>>, Vec<&Pass<T>>) =
        passes.iter().partition(|p| p.layers.is_some());
    let walls = |ps: &[&Pass<T>]| stats::median(&ps.iter().map(|p| p.wall_s).collect::<Vec<_>>());
    let calls = |ps: &[&Pass<T>]| {
        ps.iter()
            .flat_map(|p| p.call_ms.iter().copied())
            .collect::<Vec<f64>>()
    };

    let all: Vec<&Pass<T>> = passes.iter().collect();
    let job_ms: Vec<f64> = plain.iter().map(|p| p.wall_s * 1e3).collect();
    let tail = stats::tail(&job_ms);
    let total_s: f64 = plain.iter().map(|p| p.wall_s).sum();
    report.set("pass_s", walls(&plain));
    report.set("job_p50_ms", stats::median(&job_ms));
    report.set("job_tail_ms", tail.value);
    report.set("jobs_per_s", job_ms.len() as f64 / total_s);
    report.tail = Some(tail);
    report.attempted = calls(&all).len() as u64;

    if traced.is_empty() {
        return;
    }
    let keys: std::collections::BTreeSet<&'static str> = traced
        .iter()
        .flat_map(|p| p.layers.as_ref().expect("traced").keys().copied())
        .collect();
    for key in keys {
        let v: Vec<f64> = traced
            .iter()
            .map(|p| {
                p.layers
                    .as_ref()
                    .expect("traced")
                    .get(key)
                    .copied()
                    .unwrap_or(0.0)
            })
            .collect();
        report.set(key, stats::median(&v));
    }
    let traced_calls = calls(&traced);
    let t = stats::tail(&traced_calls);
    report.set(call_layer[0], stats::median(&traced_calls));
    report.set(call_layer[1], t.value);
    report.set("bench.tail_pct", t.pct);
    report.set("bench.samples", t.samples as f64);
    report.set("obs.trace_overhead", walls(&traced) / walls(&plain));
}

fn own_rss(report: &mut Report) -> Result<(), String> {
    report.set("peak_rss_mb", crate::peak_rss_mb("self")?);
    Ok(())
}

/// Oracle check of one mapped circuit; returns its QoR or the failure.
fn check_mapping(c: &Circuit, net: &Network) -> Result<oracle::Qor, String> {
    let blif = hyde_logic::blif::write(net);
    let check = oracle::check(&blif, &c.outputs, K).map_err(|e| format!("{}: {e}", c.name))?;
    match check.mismatch.iter().position(Option::is_some) {
        None => Ok(check.qor),
        Some(o) => Err(format!(
            "{}: output {o} differs from its spec at minterm {}",
            c.name,
            check.mismatch[o].expect("mismatch")
        )),
    }
}

/// Oracle check of one mapped circuit, with its LUT count and depth
/// cross-checked against what the mapper reports.
fn check_report(c: &Circuit, m: &MappingReport) -> Result<oracle::Qor, String> {
    let q = check_mapping(c, &m.network)?;
    if q.luts == m.luts && q.depth == m.depth {
        Ok(q)
    } else {
        Err(format!(
            "{}: mapper reports {} LUTs / depth {}, netlist has {} / {}",
            c.name, m.luts, m.depth, q.luts, q.depth
        ))
    }
}

/// `suite-1t`: the 25 suite circuits mapped one after another through a
/// fresh `Session` per pass (cold NPN cache), single-threaded.
///
/// The input is the suite itself. The seed does not reorder it: the
/// decomposition cache is shared across a session's circuits and is not
/// result-neutral, so the order is part of the workload's definition.
pub fn suite_1t(args: &Args) -> Result<Report, String> {
    let mut report = Report::default();
    let ((circuits, jobs), setup_s) = timed_setup(SUITE_SETUPS, || {
        let circuits = hyde_circuits::suite();
        let jobs = suite_jobs(&circuits);
        (circuits, jobs)
    });
    report.set("setup_s", setup_s);

    let passes = run_passes(args, SUITE_MIN_PASSES, |call_ms| {
        let s = session();
        jobs.iter()
            .map(|job| {
                let t = Instant::now();
                let r = s.run(job);
                call_ms.push(ms_since(t));
                r.map(|r| r.report).map_err(|e| e.to_string())
            })
            .collect::<Vec<_>>()
    });
    own_rss(&mut report)?;
    pass_metrics(
        &mut report,
        &passes,
        ["map.session_run_ms_p50", "map.session_run_ms_tail"],
    );

    // Outside the window: every netlist of the first pass is checked by
    // the oracle on its own. A later netlist that reproduces the first
    // pass's node for node shares its verdict, so a wrong netlist fails
    // once in every pass that returns it; any other is checked on its own.
    let verdicts: Vec<Option<Result<oracle::Qor, String>>> = circuits
        .iter()
        .zip(&passes[0].out)
        .map(|(c, r)| r.as_ref().ok().map(|m| check_report(c, m)))
        .collect();
    for p in &passes {
        for (i, (c, r)) in circuits.iter().zip(&p.out).enumerate() {
            let verdict = match (r, &passes[0].out[i]) {
                (Err(e), _) => Err(format!("{}: {e}", c.name)),
                (Ok(m), Ok(f)) if same_network(&m.network, &f.network) => {
                    verdicts[i].clone().expect("first pass mapped")
                }
                (Ok(m), _) => check_report(c, m),
            };
            if let Err(e) = verdict {
                report.fail(e);
            }
        }
    }
    report.circuits = circuits
        .iter()
        .zip(&verdicts)
        .enumerate()
        .filter_map(|(i, (c, v))| {
            let q = v.as_ref()?.as_ref().ok()?;
            let plain: Vec<f64> = passes
                .iter()
                .filter(|p| p.layers.is_none())
                .map(|p| p.call_ms[i])
                .collect();
            Some(CircuitRow {
                name: c.name.clone(),
                luts: q.luts,
                depth: q.depth,
                ms: stats::median(&plain),
            })
        })
        .collect();
    set_qor_totals(&mut report);
    Ok(report)
}

/// Whether two networks have the same nodes, fanins, functions and
/// outputs.
fn same_network(a: &Network, b: &Network) -> bool {
    let ids = a.node_ids();
    ids == b.node_ids()
        && a.outputs() == b.outputs()
        && ids.iter().all(|&id| {
            a.role(id) == b.role(id)
                && a.node_name(id) == b.node_name(id)
                && (a.role(id) != NodeRole::Internal
                    || (a.fanins(id) == b.fanins(id) && a.function(id) == b.function(id)))
        })
}

fn set_qor_totals(report: &mut Report) {
    let luts: usize = report.circuits.iter().map(|c| c.luts).sum();
    let depth: usize = report.circuits.iter().map(|c| c.depth).sum();
    report.set("luts_total", luts as f64);
    report.set("depth_sum", depth as f64);
}

/// A one-LUT-bit mutant: one seeded internal node with one seeded bit of
/// its local function flipped. Whether the flip is observable at an
/// output is for the oracle to decide.
fn mutant(net: &Network, seed: u64, circuit: &str) -> Result<Network, String> {
    let luts: Vec<_> = net
        .node_ids()
        .into_iter()
        .filter(|&id| net.role(id) == NodeRole::Internal && !net.fanins(id).is_empty())
        .collect();
    if luts.is_empty() {
        return Err(format!("{circuit}: no LUT to mutate"));
    }
    let mut rng = SplitMix::new(seed, circuit);
    let id = luts[rng.below(luts.len())];
    let mut f: TruthTable = net.function(id).clone();
    let bit = rng.below(f.num_minterms()) as u32;
    f.set(bit, !f.eval(bit));
    let mut m = net.clone();
    m.replace_node(id, net.fanins(id).to_vec(), f)
        .map_err(|e| format!("{circuit}: mutate: {e}"))?;
    Ok(m)
}

/// The verdict a proof gave, checked against the oracle's known answer.
/// `expected[o]` is the oracle's first mismatching minterm of output `o`
/// (`None` when the output is equivalent).
pub fn score_proofs(
    proofs: &[CecProof],
    expected: &[Option<u32>],
    differs: impl Fn(usize, u32) -> bool,
) -> Result<(), String> {
    if proofs.len() != expected.len() {
        return Err(format!(
            "{} proofs for {} outputs",
            proofs.len(),
            expected.len()
        ));
    }
    for (p, want) in proofs.iter().zip(expected) {
        match (p.outcome, want) {
            (CecOutcome::Equivalent, None) => {}
            (CecOutcome::Differ(m), Some(_)) if differs(p.output, m) => {}
            (CecOutcome::Differ(m), Some(_)) => {
                return Err(format!(
                    "output {}: counterexample {m} is not one",
                    p.output
                ))
            }
            (CecOutcome::Equivalent, Some(m)) => {
                return Err(format!(
                    "output {}: proved, but differs at minterm {m}",
                    p.output
                ))
            }
            (CecOutcome::Differ(m), None) => {
                return Err(format!(
                    "output {}: refuted at {m}, but is equivalent",
                    p.output
                ))
            }
            (CecOutcome::Unknown, _) => return Err(format!("output {}: inconclusive", p.output)),
        }
    }
    Ok(())
}

/// `prove-suite`: time to verdict of the SAT equivalence checker on
/// every mapped suite circuit and on one seeded mutant per circuit.
pub fn prove_suite(args: &Args) -> Result<Report, String> {
    let mut report = Report::default();
    let (setup, setup_s) = timed_setup(PROVE_SETUPS, || -> Result<_, String> {
        let circuits = hyde_circuits::suite();
        let s = session();
        let mut mapped = Vec::with_capacity(circuits.len());
        let mut mutants = Vec::with_capacity(circuits.len());
        for c in &circuits {
            let m = s
                .run(&Job::new(&c.name, c.outputs.clone()))
                .map_err(|e| format!("set-up mapping: {e}"))?
                .report;
            mutants.push(mutant(&m.network, args.seed, &c.name)?);
            mapped.push(m);
        }
        Ok((circuits, mapped, mutants))
    });
    let (circuits, mapped, mutants) = setup?;
    report.set("setup_s", setup_s);
    let budget = hyde_sat::Budget {
        max_conflicts: u64::MAX,
        max_time: PROOF_TIME,
    };
    // Each circuit's mapped network, then its mutant.
    let nets: Vec<(&Circuit, &Network)> = circuits
        .iter()
        .zip(&mapped)
        .zip(&mutants)
        .flat_map(|((c, m), mutant)| [(c, &m.network), (c, mutant)])
        .collect();

    let passes = run_passes(args, PROVE_MIN_PASSES, |call_ms| {
        nets.iter()
            .map(|(c, net)| {
                let t = Instant::now();
                let proofs = hyde_sat::cec_network_vs_tables(net, &c.outputs, &budget);
                call_ms.push(ms_since(t));
                proofs
            })
            .collect::<Vec<_>>()
    });
    own_rss(&mut report)?;
    pass_metrics(
        &mut report,
        &passes,
        ["sat.cec_call_ms_p50", "sat.cec_call_ms_tail"],
    );
    let per_pass = |f: fn(&CecProof) -> f64| {
        let sums: Vec<f64> = passes
            .iter()
            .filter(|p| p.layers.is_some())
            .map(|p| p.out.iter().flatten().map(f).sum())
            .collect();
        stats::median(&sums)
    };
    report.set("sat.proofs", per_pass(|_| 1.0));
    report.set("sat.conflicts", per_pass(|p| p.conflicts as f64));
    report.set("sat.vars", per_pass(|p| p.vars as f64));
    report.set("sat.clauses", per_pass(|p| p.clauses as f64));

    // Outside the window: the oracle's known answers, then every verdict
    // of every pass against them.
    let mut answers = Vec::with_capacity(nets.len());
    for (c, net) in &nets {
        let blif = hyde_logic::blif::write(net);
        let check = oracle::check(&blif, &c.outputs, K).map_err(|e| format!("{}: {e}", c.name))?;
        answers.push(check);
    }
    for (i, (c, m)) in circuits.iter().zip(&mapped).enumerate() {
        if !answers[2 * i].equivalent() {
            report.fail(format!("{}: the mapped network is wrong", c.name));
        }
        report.circuits.push(CircuitRow {
            name: c.name.clone(),
            luts: answers[2 * i].qor.luts,
            depth: answers[2 * i].qor.depth,
            ms: stats::median(
                &passes
                    .iter()
                    .filter(|p| p.layers.is_none())
                    .map(|p| p.call_ms[2 * i] + p.call_ms[2 * i + 1])
                    .collect::<Vec<_>>(),
            ),
        });
        if answers[2 * i].qor.luts != m.luts {
            report.fail(format!("{}: LUT count disagrees with the mapper", c.name));
        }
    }
    let differing = answers
        .iter()
        .skip(1)
        .step_by(2)
        .filter(|a| !a.equivalent());
    report.notes.push(format!(
        "known answers: {} of {} mutants differ from their spec",
        differing.count(),
        mutants.len()
    ));
    for p in &passes {
        for (((c, _), proofs), answer) in nets.iter().zip(&p.out).zip(&answers) {
            if let Err(e) = score_proofs(proofs, &answer.mismatch, |o, m| answer.differs(o, m)) {
                report.fail(format!("{}: {e}", c.name));
            }
        }
    }
    set_qor_totals(&mut report);
    Ok(report)
}

#[cfg(test)]
mod tests {
    use super::*;

    fn proof(output: usize, outcome: CecOutcome) -> CecProof {
        CecProof {
            output,
            outcome,
            vars: 0,
            clauses: 0,
            conflicts: 0,
            decisions: 0,
            propagations: 0,
            elapsed: Duration::ZERO,
        }
    }

    #[test]
    fn an_always_equivalent_checker_fails_on_a_real_mutant() {
        let expected = [None, Some(5)];
        let yes = [
            proof(0, CecOutcome::Equivalent),
            proof(1, CecOutcome::Equivalent),
        ];
        assert!(score_proofs(&yes, &expected, |_, _| true).is_err());
    }

    #[test]
    fn verdicts_are_scored_against_known_answers() {
        let expected = [None, Some(5)];
        let right = [
            proof(0, CecOutcome::Equivalent),
            proof(1, CecOutcome::Differ(5)),
        ];
        assert!(score_proofs(&right, &expected, |_, m| m == 5).is_ok());
        // A refutation whose counterexample does not reproduce fails.
        let bogus = [
            proof(0, CecOutcome::Equivalent),
            proof(1, CecOutcome::Differ(6)),
        ];
        assert!(score_proofs(&bogus, &expected, |_, m| m == 5).is_err());
        // So do refuting an equivalent output and an inconclusive proof.
        let refute = [
            proof(0, CecOutcome::Differ(1)),
            proof(1, CecOutcome::Differ(5)),
        ];
        assert!(score_proofs(&refute, &expected, |_, _| true).is_err());
        let unknown = [
            proof(0, CecOutcome::Unknown),
            proof(1, CecOutcome::Differ(5)),
        ];
        assert!(score_proofs(&unknown, &expected, |_, _| true).is_err());
    }

    #[test]
    fn mutants_are_seeded_and_flip_one_bit() {
        let c = hyde_circuits::rd73();
        let m = session()
            .run(&Job::new(&c.name, c.outputs.clone()))
            .unwrap()
            .report;
        let mutated = mutant(&m.network, 3, "rd73").unwrap();
        let again = mutant(&m.network, 3, "rd73").unwrap();
        assert_eq!(
            hyde_logic::blif::write(&mutated),
            hyde_logic::blif::write(&again)
        );
        let changed: Vec<_> = m
            .network
            .node_ids()
            .into_iter()
            .filter(|&id| m.network.role(id) == NodeRole::Internal)
            .filter(|&id| mutated.function(id) != m.network.function(id))
            .collect();
        assert_eq!(changed.len(), 1);
        let id = changed[0];
        let flipped = (mutated.function(id).as_words()[0] ^ m.network.function(id).as_words()[0])
            .count_ones();
        assert_eq!(flipped, 1);
    }
}
