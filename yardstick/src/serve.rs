//! The `serve-small` workload: small PLA jobs sent to the shipped
//! `hyde-serve` binary over its newline-JSON protocol by two closed-loop
//! clients.
//!
//! Each batch starts a fresh server (`--workers 1`, `HYDE_THREADS=2`,
//! fresh journal), warms it with every job circuit once, then lets two
//! client connections run a fixed number of seeded jobs: a client
//! submits its next job only after the previous one is terminal and its
//! BLIF has been fetched. The server retains every job's result, so the
//! job count per server is fixed to keep its peak RSS comparable.

use crate::oracle;
use crate::stats::{self, ratio, SplitMix};
use crate::{Args, CircuitRow, Report, K};
use hyde_circuits::Circuit;
use hyde_obs::json::{self, Json};
use hyde_obs::prom::{self, Sample};
use std::collections::{BTreeMap, HashMap};
use std::io::{BufRead as _, BufReader, Read as _, Write as _};
use std::net::TcpStream;
use std::path::Path;
use std::process::{Child, ChildStdout, Command, Stdio};
use std::time::{Duration, Instant};

/// The suite circuits that map in under 50 ms: the synthetic job mix.
pub const JOB_CIRCUITS: [&str; 14] = [
    "rd73", "z4ml", "9sym", "rd84", "clip", "count", "5xp1", "des", "alu2", "f51m", "misex1",
    "sao2", "C880", "rot",
];
/// Closed-loop client connections.
const CLIENTS: usize = 2;
/// Timed jobs per server instance (split evenly over the clients).
const BATCH_JOBS: usize = 200;
/// Batches every run makes at least. Latency figures are per batch: 200
/// jobs put each batch's tail on the p95 rung of the ladder, and the
/// median of 7 batches is one batch's value.
const MIN_BATCHES: usize = 7;
/// Pause between two status polls of one client.
const POLL: Duration = Duration::from_millis(1);
/// A job not terminal after this long counts as failed (timeout).
const JOB_TIMEOUT: Duration = Duration::from_secs(30);
const IO_TIMEOUT: Duration = Duration::from_secs(60);

/// The circuit (index into [`JOB_CIRCUITS`]) of each job one client
/// sends in one batch: a seeded draw with replacement.
pub fn job_sequence(seed: u64, batch: usize, client: usize, n: usize) -> Vec<usize> {
    let mut rng = SplitMix::new(seed, &format!("serve-small/{batch}/{client}"));
    (0..n).map(|_| rng.below(JOB_CIRCUITS.len())).collect()
}

/// A running `hyde-serve` child; killed and reaped on drop.
struct Server {
    child: Child,
    _stdout: BufReader<ChildStdout>,
    addr: String,
}

impl Server {
    fn start(bin: &Path, journal: &Path) -> Result<Server, String> {
        let mut child = Command::new(bin)
            .args([
                "--addr",
                "127.0.0.1:0",
                "--workers",
                "1",
                "--print-addr",
                "--journal",
            ])
            .arg(journal)
            .env("HYDE_THREADS", "2")
            .env_remove("HYDE_TRACE")
            .env_remove("HYDE_CHAOS")
            .stdin(Stdio::piped())
            .stdout(Stdio::piped())
            .stderr(Stdio::inherit())
            .spawn()
            .map_err(|e| format!("spawn {}: {e}", bin.display()))?;
        let mut stdout = BufReader::new(child.stdout.take().expect("piped stdout"));
        let mut addr = String::new();
        let read = stdout.read_line(&mut addr);
        let server = Server {
            child,
            _stdout: stdout,
            addr: addr.trim().to_owned(),
        };
        match read {
            Ok(n) if n > 0 && !server.addr.is_empty() => Ok(server),
            _ => Err("hyde-serve exited before printing its address".into()),
        }
    }

    fn pid(&self) -> String {
        self.child.id().to_string()
    }

    /// Asks the server to stop, closes its stdin and waits for it.
    fn shutdown(mut self) -> Result<(), String> {
        let mut conn = Conn::open(&self.addr)?;
        conn.call("{\"op\":\"shutdown\"}")?;
        drop(self.child.stdin.take());
        let deadline = Instant::now() + IO_TIMEOUT;
        loop {
            match self.child.try_wait() {
                Ok(Some(status)) if status.success() => return Ok(()),
                Ok(Some(status)) => return Err(format!("hyde-serve exited with {status}")),
                Ok(None) if Instant::now() < deadline => {
                    std::thread::sleep(Duration::from_millis(5))
                }
                Ok(None) => return Err("hyde-serve did not stop".into()),
                Err(e) => return Err(format!("wait for hyde-serve: {e}")),
            }
        }
    }
}

impl Drop for Server {
    fn drop(&mut self) {
        if let Ok(None) = self.child.try_wait() {
            let _ = self.child.kill();
        }
        let _ = self.child.wait();
    }
}

/// One protocol connection: a request line out, a response line back.
struct Conn {
    reader: BufReader<TcpStream>,
    writer: TcpStream,
}

impl Conn {
    fn open(addr: &str) -> Result<Conn, String> {
        let s = TcpStream::connect(addr).map_err(|e| format!("connect {addr}: {e}"))?;
        s.set_read_timeout(Some(IO_TIMEOUT))
            .map_err(|e| e.to_string())?;
        s.set_nodelay(true).map_err(|e| e.to_string())?;
        let writer = s.try_clone().map_err(|e| e.to_string())?;
        Ok(Conn {
            reader: BufReader::new(s),
            writer,
        })
    }

    fn call(&mut self, request: &str) -> Result<Json, String> {
        self.writer
            .write_all(format!("{request}\n").as_bytes())
            .map_err(|e| format!("send: {e}"))?;
        let mut line = String::new();
        match self.reader.read_line(&mut line) {
            Ok(n) if n > 0 => {
                json::parse(line.trim_end()).map_err(|e| format!("bad response: {e}"))
            }
            Ok(_) => Err("server closed the connection".into()),
            Err(e) => Err(format!("receive: {e}")),
        }
    }
}

/// One job as the client saw it.
#[derive(Debug, Clone)]
struct Served {
    circuit: usize,
    /// Submit-send to result fetched.
    ms: f64,
    /// Submit-send to acknowledgement.
    submit_ms: f64,
    polls: u64,
    /// The fetched result, or why the job failed.
    outcome: Result<Done, String>,
}

#[derive(Debug, Clone)]
struct Done {
    blif: String,
    luts: usize,
    depth: usize,
}

fn num(doc: &Json, key: &str) -> Option<usize> {
    doc.get(key).and_then(Json::as_num).map(|v| v as usize)
}

fn run_job(conn: &mut Conn, id: &str, circuit: usize, pla: &str) -> Result<Served, String> {
    let submit = format!(
        "{{\"op\":\"submit\",\"id\":\"{id}\",\"kind\":\"pla\",\"name\":\"{}\",\"pla\":\"{pla}\"}}",
        JOB_CIRCUITS[circuit]
    );
    let poll = format!("{{\"op\":\"result\",\"id\":\"{id}\"}}");
    let t0 = Instant::now();
    let ack = conn.call(&submit)?;
    let submit_ms = t0.elapsed().as_secs_f64() * 1e3;
    let mut polls = 0;
    let outcome = if ack.get("ok") != Some(&Json::Bool(true)) {
        Err(format!("submit refused: {ack:?}"))
    } else {
        loop {
            let r = conn.call(&poll)?;
            let state = r.get("state").and_then(Json::as_str).unwrap_or("");
            match state {
                "done" => {
                    break match (
                        r.get("blif").and_then(Json::as_str),
                        num(&r, "luts"),
                        num(&r, "depth"),
                    ) {
                        (Some(blif), Some(luts), Some(depth)) => Ok(Done {
                            blif: blif.to_owned(),
                            luts,
                            depth,
                        }),
                        _ => Err(format!("malformed result: {r:?}")),
                    };
                }
                "queued" | "running" if t0.elapsed() < JOB_TIMEOUT => {
                    polls += 1;
                    std::thread::sleep(POLL);
                }
                "queued" | "running" => break Err("timed out".into()),
                other => break Err(format!("job ended {other}: {r:?}")),
            }
        }
    };
    Ok(Served {
        circuit,
        ms: t0.elapsed().as_secs_f64() * 1e3,
        submit_ms,
        polls,
        outcome,
    })
}

/// Fetches `/metrics` from the server's HTTP side.
fn scrape(addr: &str) -> Result<String, String> {
    let mut s = TcpStream::connect(addr).map_err(|e| format!("connect {addr}: {e}"))?;
    s.set_read_timeout(Some(IO_TIMEOUT))
        .map_err(|e| e.to_string())?;
    s.write_all(b"GET /metrics HTTP/1.1\r\nHost: localhost\r\n\r\n")
        .map_err(|e| format!("scrape: {e}"))?;
    let mut text = String::new();
    s.read_to_string(&mut text)
        .map_err(|e| format!("scrape: {e}"))?;
    text.split_once("\r\n\r\n")
        .map(|(_, body)| body.to_owned())
        .ok_or_else(|| "scrape: no HTTP body".into())
}

/// Parses one `/metrics` scrape.
fn samples(text: &str) -> Result<Vec<Sample>, String> {
    prom::parse(text).map_err(|e| format!("scrape: {e}"))
}

/// The change in the server's telemetry over one batch.
struct Delta {
    before: Vec<Sample>,
    after: Vec<Sample>,
}

impl Delta {
    /// Every `metric` series whose label `key` is `value`, with its
    /// change over the batch.
    fn series(&self, metric: &str, (key, value): (&str, &str)) -> Vec<(&Sample, f64)> {
        self.after
            .iter()
            .filter(|s| s.metric == metric && s.label(key) == Some(value))
            .map(|s| {
                let was = self
                    .before
                    .iter()
                    .find(|b| b.metric == s.metric && b.labels == s.labels)
                    .map_or(0.0, |b| b.value);
                (s, s.value - was)
            })
            .collect()
    }

    fn get(&self, metric: &str, label: (&str, &str)) -> f64 {
        self.series(metric, label)
            .iter()
            .fold(0.0, |acc, (_, d)| acc + d)
    }

    fn counter(&self, name: &str) -> f64 {
        self.get("hyde_counter_total", ("counter", name))
    }

    /// Bucket bounds and counts of one histogram series (`+Inf` last).
    fn buckets(&self, metric: &str, label: (&str, &str)) -> Vec<(f64, f64)> {
        let mut b: Vec<(f64, f64)> = self
            .series(&format!("{metric}_bucket"), label)
            .into_iter()
            .filter_map(|(s, d)| {
                let bound = match s.label("le")? {
                    "+Inf" => f64::INFINITY,
                    le => le.parse().ok()?,
                };
                Some((bound, d))
            })
            .collect();
        b.sort_by(|x, y| x.0.total_cmp(&y.0));
        b
    }

    /// Quantile `q` by linear interpolation inside the bucket that holds
    /// it, as Prometheus' `histogram_quantile` does. The exposition's
    /// buckets are decades, so this is coarse.
    fn quantile(&self, metric: &str, label: (&str, &str), q: f64) -> f64 {
        let b = self.buckets(metric, label);
        let total = b.last().map_or(0.0, |x| x.1);
        if total <= 0.0 {
            return 0.0;
        }
        let rank = q * total;
        let (mut lo, mut below) = (0.0, 0.0);
        for &(le, count) in &b {
            if count >= rank {
                if le.is_infinite() {
                    return lo;
                }
                let inside = count - below;
                return if inside > 0.0 {
                    lo + (le - lo) * (rank - below) / inside
                } else {
                    le
                };
            }
            (lo, below) = (le, count);
        }
        lo
    }

    fn mean(&self, metric: &str, label: (&str, &str)) -> f64 {
        ratio(
            self.get(&format!("{metric}_sum"), label),
            self.get(&format!("{metric}_count"), label),
        )
    }

    /// Events the server dropped at its buffer cap since it started.
    fn dropped_events(&self) -> f64 {
        self.after
            .iter()
            .find(|s| s.metric == "hyde_obs_dropped_events_total")
            .map_or(0.0, |s| s.value)
    }
}

/// Per-layer metrics of one traced batch.
fn batch_layers(d: &Delta, jobs: &[Served], tail_pct: f64) -> BTreeMap<&'static str, f64> {
    let family = |f| ("family", f);
    let q = |f, q| d.quantile("hyde_observed", family(f), q) / 1e3;
    let select = ("span", "varpart.select_best");
    let selects = d.get("hyde_span_duration_seconds_count", select);
    let (hits, misses) = (d.counter("hyde.npn.hits"), d.counter("hyde.npn.misses"));
    let polls: u64 = jobs.iter().map(|j| j.polls).sum();
    let submit: Vec<f64> = jobs.iter().map(|j| j.submit_ms).collect();
    BTreeMap::from([
        ("core.varpart.candidates", d.counter("varpart.candidates")),
        (
            "core.varpart.candidates_per_select",
            ratio(d.counter("varpart.candidates"), selects),
        ),
        (
            "core.varpart.select_best_p50_us",
            d.quantile("hyde_span_duration_seconds", select, 0.5) * 1e6,
        ),
        ("core.decompose.steps", d.counter("decompose.steps")),
        ("core.decompose.classes", d.counter("decompose.classes")),
        ("core.npn.hits", hits),
        ("core.npn.misses", misses),
        ("core.npn.hit_ratio", ratio(hits, hits + misses)),
        (
            "core.npn.canonize_s",
            d.counter("hyde.npn.canonize_us") / 1e6,
        ),
        ("core.parallel.steals", d.counter("sched.steal.steals")),
        ("core.parallel.blocks", d.counter("sched.steal.blocks")),
        ("serve.submit_rtt_ms_p50", stats::median(&submit)),
        (
            "serve.polls_per_job",
            ratio(polls as f64, jobs.len() as f64),
        ),
        (
            "serve.queue_wait_ms_mean",
            d.mean("hyde_observed", family("serve.queue_wait_us")) / 1e3,
        ),
        ("serve.queue_wait_ms_p50", q("serve.queue_wait_us", 0.5)),
        (
            "serve.queue_wait_ms_tail",
            q("serve.queue_wait_us", tail_pct / 100.0),
        ),
        (
            "serve.job_wall_ms_mean",
            d.mean("hyde_observed", family("serve.job_wall_us")) / 1e3,
        ),
        ("serve.job_wall_ms_p50", q("serve.job_wall_us", 0.5)),
        (
            "serve.job_wall_ms_tail",
            q("serve.job_wall_us", tail_pct / 100.0),
        ),
        ("serve.request_us_p50", q("serve.request_us", 0.5) * 1e3),
        ("serve.journal_events", d.counter("serve.journal.events")),
        ("serve.retries", d.counter("serve.retries")),
        ("serve.rejected", d.counter("serve.rejected")),
        ("bdd.nodes", d.counter("bdd.nodes")),
        (
            "bdd.cache_hit_ratio",
            ratio(d.counter("bdd.cache_hits"), d.counter("bdd.cache_lookups")),
        ),
        ("obs.dropped_events", d.dropped_events()),
    ])
}

/// What one server instance did.
struct Batch {
    setup_s: f64,
    wall_s: f64,
    rss_mb: f64,
    warmup: Vec<Served>,
    jobs: Vec<Served>,
    layers: Option<BTreeMap<&'static str, f64>>,
}

fn batch(args: &Args, b: usize, plas: &[String]) -> Result<Batch, String> {
    let journal = args
        .out_dir
        .join(format!("serve-small-s{}-b{b}.jsonl", args.seed));
    let _ = std::fs::remove_file(&journal);
    let t = Instant::now();
    let server = Server::start(&args.serve_bin, &journal)?;
    let mut conn = Conn::open(&server.addr)?;
    let warmup = (0..JOB_CIRCUITS.len())
        .map(|i| run_job(&mut conn, &format!("w{b}-{i}"), i, &plas[i]))
        .collect::<Result<Vec<_>, _>>()?;
    drop(conn);
    let setup_s = t.elapsed().as_secs_f64();

    let before = if args.trace {
        samples(&scrape(&server.addr)?)?
    } else {
        Vec::new()
    };
    let t = Instant::now();
    let per_client = BATCH_JOBS / CLIENTS;
    let results: Vec<Result<Vec<Served>, String>> = std::thread::scope(|scope| {
        let handles: Vec<_> = (0..CLIENTS)
            .map(|c| {
                let addr = &server.addr;
                scope.spawn(move || -> Result<Vec<Served>, String> {
                    let mut conn = Conn::open(addr)?;
                    job_sequence(args.seed, b, c, per_client)
                        .into_iter()
                        .enumerate()
                        .map(|(j, i)| run_job(&mut conn, &format!("b{b}-c{c}-j{j}"), i, &plas[i]))
                        .collect()
                })
            })
            .collect();
        handles
            .into_iter()
            .map(|h| {
                h.join()
                    .unwrap_or_else(|_| Err("client thread panicked".into()))
            })
            .collect()
    });
    let wall_s = t.elapsed().as_secs_f64();
    let mut jobs = Vec::with_capacity(BATCH_JOBS);
    for r in results {
        jobs.extend(r?);
    }
    let layers = if args.trace {
        let delta = Delta {
            before,
            after: samples(&scrape(&server.addr)?)?,
        };
        let ms: Vec<f64> = jobs.iter().map(|j| j.ms).collect();
        Some(batch_layers(&delta, &jobs, stats::tail(&ms).pct))
    } else {
        None
    };
    let rss_mb = crate::peak_rss_mb(&server.pid())?;
    server.shutdown()?;
    let _ = std::fs::remove_file(&journal);
    Ok(Batch {
        setup_s,
        wall_s,
        rss_mb,
        warmup,
        jobs,
        layers,
    })
}

fn job_circuits() -> Result<Vec<Circuit>, String> {
    let suite = hyde_circuits::suite();
    JOB_CIRCUITS
        .iter()
        .map(|name| {
            suite
                .iter()
                .find(|c| c.name == *name)
                .cloned()
                .ok_or_else(|| format!("no suite circuit {name}"))
        })
        .collect()
}

/// Mean time of `Pla::parse` over the job mix, in ms: the parse the
/// server runs on every submission, timed on the same texts.
fn pla_parse_ms(texts: &[String], batches: &[Batch]) -> Result<f64, String> {
    let mut per_circuit = Vec::with_capacity(texts.len());
    for text in texts {
        let mut times = Vec::new();
        for _ in 0..5 {
            let t = Instant::now();
            std::hint::black_box(hyde_logic::pla::Pla::parse(text).map_err(|e| e.to_string())?);
            times.push(t.elapsed().as_secs_f64() * 1e3);
        }
        per_circuit.push(stats::median(&times));
    }
    let jobs: Vec<f64> = batches
        .iter()
        .flat_map(|b| b.jobs.iter().map(|j| per_circuit[j.circuit]))
        .collect();
    Ok(jobs.iter().sum::<f64>() / jobs.len().max(1) as f64)
}

/// `serve-small`: see the module documentation.
pub fn serve_small(args: &Args) -> Result<Report, String> {
    let mut report = Report::default();
    let circuits = job_circuits()?;
    let texts: Vec<String> = circuits.iter().map(|c| c.to_pla().to_text()).collect();
    let plas: Vec<String> = texts.iter().map(|t| json::escape(t)).collect();

    // hyde-serve traces unconditionally, so a traced run differs from a
    // plain one only by the two /metrics scrapes around each batch, taken
    // outside its timed window.
    let window = Duration::from_secs_f64(args.seconds);
    let start = Instant::now();
    let mut batches: Vec<Batch> = Vec::new();
    while batches.len() < MIN_BATCHES || start.elapsed() < window {
        batches.push(batch(args, batches.len(), &plas)?);
    }

    // Every figure is taken per batch, and the run reports the median
    // across batches, so one batch slowed by the host does not set it. A
    // job the server refused, quarantined or timed out counts as missing
    // every latency limit.
    let latency = |j: &Served| match j.outcome {
        Ok(_) => j.ms,
        Err(_) => JOB_TIMEOUT.as_secs_f64() * 1e3,
    };
    let per_batch =
        |f: &dyn Fn(&Batch) -> f64| stats::median(&batches.iter().map(f).collect::<Vec<_>>());
    let job_ms = |b: &Batch| b.jobs.iter().map(latency).collect::<Vec<_>>();
    let tails: Vec<stats::Tail> = batches.iter().map(|b| stats::tail(&job_ms(b))).collect();
    let tail = stats::Tail {
        value: stats::median(&tails.iter().map(|t| t.value).collect::<Vec<_>>()),
        ..tails[0]
    };
    report.set("setup_s", per_batch(&|b| b.setup_s));
    report.set("pass_s", per_batch(&|b| b.wall_s));
    report.set("job_p50_ms", per_batch(&|b| stats::median(&job_ms(b))));
    report.set("job_tail_ms", tail.value);
    report.set("jobs_per_s", per_batch(&|b| b.jobs.len() as f64 / b.wall_s));
    report.set("peak_rss_mb", per_batch(&|b| b.rss_mb));
    report.tail = Some(tail);
    report.notes.push(format!(
        "job_tail_ms is the median over {} batches of each batch's p{} over {} jobs",
        batches.len(),
        tail.pct,
        tail.samples
    ));
    for (i, (b, t)) in batches.iter().zip(&tails).enumerate() {
        report.notes.push(format!(
            "batch {i}: {:.3} s, job p50 {:.3} ms, p{} {:.3} ms",
            b.wall_s,
            stats::median(&job_ms(b)),
            t.pct,
            t.value
        ));
    }
    if args.trace {
        let keys: std::collections::BTreeSet<&'static str> = batches
            .iter()
            .flat_map(|b| b.layers.as_ref().expect("traced").keys().copied())
            .collect();
        for key in keys {
            report.set(key, per_batch(&|b| b.layers.as_ref().expect("traced")[key]));
        }
        report.set("bench.tail_pct", tail.pct);
        report.set("bench.samples", tail.samples as f64);
        // Not measurable here: the server always traces.
        report.set("obs.trace_overhead", 0.0);
        report.set("logic.pla_parse_ms", pla_parse_ms(&texts, &batches)?);
    }

    // Outside the window: every fetched netlist through the oracle, once
    // per distinct BLIF.
    let mut verdicts: HashMap<(usize, String), Result<oracle::Qor, String>> = HashMap::new();
    let mut qor: BTreeMap<usize, (oracle::Qor, Vec<f64>)> = BTreeMap::new();
    for b in &batches {
        for (j, warm) in b
            .jobs
            .iter()
            .map(|j| (j, false))
            .chain(b.warmup.iter().map(|j| (j, true)))
        {
            report.attempted += 1;
            let c = &circuits[j.circuit];
            let done = match &j.outcome {
                Ok(done) => done,
                Err(e) => {
                    report.fail(format!("{}: {e}", c.name));
                    continue;
                }
            };
            let verdict = verdicts
                .entry((j.circuit, done.blif.clone()))
                .or_insert_with(|| {
                    let check = oracle::check(&done.blif, &c.outputs, K)?;
                    if check.equivalent() {
                        Ok(check.qor)
                    } else {
                        Err("served netlist differs from its spec".into())
                    }
                });
            match verdict {
                Ok(q) if q.luts == done.luts && q.depth == done.depth => {
                    let entry = qor.entry(j.circuit).or_insert((*q, Vec::new()));
                    if entry.0 != *q {
                        report.fail(format!("{}: QoR differs between jobs", c.name));
                    }
                    if !warm {
                        entry.1.push(j.ms);
                    }
                }
                Ok(q) => report.fail(format!(
                    "{}: server reports {} LUTs / depth {}, netlist has {} / {}",
                    c.name, done.luts, done.depth, q.luts, q.depth
                )),
                Err(e) => report.fail(format!("{}: {e}", c.name)),
            }
        }
    }
    report.circuits = qor
        .iter()
        .map(|(&i, (q, ms))| CircuitRow {
            name: circuits[i].name.clone(),
            luts: q.luts,
            depth: q.depth,
            ms: stats::median(ms),
        })
        .collect();
    report.set(
        "luts_total",
        report.circuits.iter().map(|c| c.luts as f64).sum(),
    );
    report.set(
        "depth_sum",
        report.circuits.iter().map(|c| c.depth as f64).sum(),
    );
    Ok(report)
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn a_seed_fixes_the_job_sequence() {
        let a = job_sequence(42, 1, 0, 150);
        assert_eq!(a, job_sequence(42, 1, 0, 150));
        assert_ne!(a, job_sequence(43, 1, 0, 150));
        assert_ne!(a, job_sequence(42, 1, 1, 150));
        assert!(a.iter().all(|&i| i < JOB_CIRCUITS.len()));
        // With replacement: 150 draws from 14 circuits repeat some.
        let distinct: std::collections::BTreeSet<_> = a.iter().collect();
        assert!(distinct.len() < a.len());
    }

    #[test]
    fn job_circuits_are_suite_circuits_and_fit_a_frame() {
        for c in job_circuits().unwrap() {
            assert!(
                json::escape(&c.to_pla().to_text()).len() < 60 * 1024,
                "{}",
                c.name
            );
        }
    }

    #[test]
    fn histogram_quantile_interpolates_inside_a_bucket() {
        let text = "x_bucket{f=\"a\",le=\"10\"} 0\nx_bucket{f=\"a\",le=\"100\"} 50\n\
                    x_bucket{f=\"a\",le=\"+Inf\"} 100\nx_sum{f=\"a\"} 9000\nx_count{f=\"a\"} 100\n";
        let d = Delta {
            before: Vec::new(),
            after: samples(text).unwrap(),
        };
        assert_eq!(d.quantile("x", ("f", "a"), 0.25), 55.0);
        assert_eq!(d.quantile("x", ("f", "a"), 0.99), 100.0);
        assert_eq!(d.mean("x", ("f", "a")), 90.0);
    }
}
