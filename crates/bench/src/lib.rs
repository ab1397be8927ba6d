//! Shared harness for regenerating the HYDE paper's tables and figures.
//!
//! The `hyde-bench` subcommands `table1`, `table2`, `ablation` and `sweep`
//! map the suite through [`run_suite`]; this library also holds the named
//! flows, the embedded paper numbers for side-by-side comparison, and the
//! table formatting. Bare `hyde-bench` runs the timing benchmark in
//! [`perf`].

#![forbid(unsafe_code)]
#![warn(missing_docs)]

pub mod diff;
pub mod perf;

use hyde_circuits::Circuit;
use hyde_core::encoding::EncoderKind;
use hyde_core::CoreError;
use hyde_map::flow::FlowKind;
use hyde_map::session::{Job, JobError, JobErrorKind, Session};
use hyde_map::MappingReport;
use std::fmt::Write as _;

/// One row of a paper table: circuit, the baselines' numbers in column
/// order, and HYDE's number. `None` marks a dash in the paper.
type PaperRow = (&'static str, &'static [Option<u32>], u32);

/// Table 1 (XC3000 CLB counts): IMODEC and FGSyn, then HYDE.
const PAPER_TABLE1: &[PaperRow] = &[
    ("5xp1", &[Some(9), Some(9)], 10),
    ("9sym", &[Some(7), Some(7)], 6),
    ("alu2", &[Some(46), Some(55)], 43),
    ("alu4", &[Some(168), Some(56)], 140),
    ("apex6", &[Some(129), Some(181)], 135),
    ("apex7", &[Some(41), Some(43)], 39),
    ("clip", &[Some(12), Some(18)], 11),
    ("count", &[Some(26), Some(23)], 24),
    ("des", &[Some(489), None], 408),
    ("duke2", &[Some(122), Some(85)], 75),
    ("e64", &[Some(55), Some(44)], 48),
    ("f51m", &[Some(8), Some(8)], 8),
    ("misex1", &[Some(9), Some(8)], 9),
    ("misex2", &[Some(21), Some(22)], 22),
    ("rd73", &[Some(5), Some(5)], 5),
    ("rd84", &[Some(8), Some(8)], 7),
    ("rot", &[Some(127), Some(136)], 125),
    ("sao2", &[Some(17), Some(25)], 17),
    ("vg2", &[Some(19), Some(17)], 18),
    ("z4ml", &[Some(4), Some(4)], 4),
    ("C499", &[Some(50), Some(54)], 50),
    ("C880", &[Some(81), Some(87)], 68),
];

/// Table 2 (5-input LUT counts): `[8]` w/o resub, `[8]` w/ resub and
/// `[8]` PO, then HYDE.
const PAPER_TABLE2: &[PaperRow] = &[
    ("5xp1", &[Some(15), Some(11), Some(10)], 13),
    ("9sym", &[Some(7), Some(7), Some(7)], 6),
    ("alu2", &[Some(48), Some(48), Some(48)], 50),
    ("alu4", &[Some(172), Some(90), Some(56)], 206),
    ("apex4", &[Some(374), Some(374), Some(374)], 354),
    ("apex6", &[Some(192), Some(161), Some(155)], 186),
    ("apex7", &[Some(120), Some(61), Some(54)], 54),
    ("b9", &[Some(53), Some(39), Some(37)], 36),
    ("clip", &[Some(18), Some(11), Some(14)], 14),
    ("count", &[Some(52), Some(31), Some(31)], 31),
    ("des", &[None, None, None], 561),
    ("duke2", &[Some(175), Some(155), Some(150)], 116),
    ("e64", &[None, None, None], 80),
    ("f51m", &[Some(12), Some(10), Some(8)], 12),
    ("misex1", &[Some(12), Some(10), Some(10)], 13),
    ("misex2", &[Some(40), Some(36), Some(36)], 29),
    ("misex3", &[Some(195), Some(213), Some(120)], 131),
    ("rd73", &[Some(8), Some(6), Some(6)], 6),
    ("rd84", &[Some(12), Some(7), Some(8)], 9),
    ("rot", &[None, None, None], 185),
    ("sao2", &[Some(23), Some(21), Some(21)], 22),
    ("vg2", &[Some(44), Some(21), Some(17)], 18),
    ("z4ml", &[Some(6), Some(5), Some(4)], 5),
    ("C499", &[None, None, None], 70),
    ("C880", &[None, None, None], 81),
];

/// A flow under comparison: its column label and the session mapping
/// with it.
pub type Flow = (&'static str, Session);

/// A flow selectable by name: `(name, sweep label, kind)`. The seed
/// reaches only HYDE's encoder.
pub type NamedFlow = (&'static str, &'static str, fn(u64) -> FlowKind);

/// The named flows, in `sweep` row order; `hyde-bench map --flow <name>`
/// accepts each name.
pub const FLOWS: &[NamedFlow] = &[
    ("per-output", "per-output", |_| FlowKind::PerOutput {
        encoder: EncoderKind::Lexicographic,
    }),
    ("imodec", "shared", |_| FlowKind::imodec_like()),
    ("fgsyn", "fgsyn", |_| FlowKind::fgsyn_like()),
    ("hyde", "hyde", FlowKind::hyde),
];

/// Maps every circuit under every flow, returning one row per circuit
/// with one report per flow. Each circuit runs as one [`Job`] on each
/// flow's [`Session`], so a flow's decomposition cache carries across the
/// circuits in order.
///
/// # Errors
///
/// Returns the first failing job as a [`CoreError`] (the suite is
/// expected to map cleanly; failures indicate bugs). A panicking circuit
/// is caught by its session and reported as [`CoreError::Verification`].
pub fn run_suite(
    circuits: &[Circuit],
    flows: &[Flow],
) -> Result<Vec<Vec<MappingReport>>, CoreError> {
    circuits
        .iter()
        .map(|c| {
            let job = Job::new(&c.name, c.outputs.clone());
            flows
                .iter()
                .map(|(_, session)| session.run(&job).map(|r| r.report).map_err(job_error))
                .collect()
        })
        .collect()
}

/// The [`CoreError`] a batch driver stops on when a job fails.
pub fn job_error(e: JobError) -> CoreError {
    match e.kind {
        JobErrorKind::Panicked(msg) => {
            CoreError::Verification(format!("circuit '{}' panicked: {msg}", e.name))
        }
        JobErrorKind::Mapping(msg) => CoreError::Verification(msg),
        JobErrorKind::OutOfBudget(ob) => CoreError::OutOfBudget(ob),
    }
}

/// Sums `metric` over `rows`, one total per flow.
pub fn totals(rows: &[Vec<MappingReport>], metric: impl Fn(&MappingReport) -> usize) -> Vec<usize> {
    let mut sums = vec![0; rows.first().map_or(0, Vec::len)];
    for row in rows {
        for (sum, report) in sums.iter_mut().zip(row) {
            *sum += metric(report);
        }
    }
    sums
}

/// The flow set for Table 1: IMODEC-like, FGSyn-like, HYDE.
fn table1_flows(k: usize) -> Vec<Flow> {
    vec![
        ("imodec-like", Session::new(k, FlowKind::imodec_like())),
        ("fgsyn-like", Session::new(k, FlowKind::fgsyn_like())),
        ("hyde", Session::new(k, FlowKind::hyde(0xDA98))),
    ]
}

/// The flow set for Table 2: no sharing, structural sharing, HYDE.
fn table2_flows(k: usize) -> Vec<Flow> {
    let no_share = FlowKind::PerOutput {
        encoder: EncoderKind::Lexicographic,
    };
    vec![
        ("no-share", Session::new(k, no_share)),
        ("shared", Session::new(k, FlowKind::imodec_like())),
        ("hyde", Session::new(k, FlowKind::hyde(0xDA98))),
    ]
}

/// One of the paper's result tables, regenerated on this suite: the
/// flows it compares (HYDE last), the number each mapping contributes,
/// and the paper's own columns (heading, width) and rows.
pub struct PaperTable {
    number: u8,
    heading: &'static str,
    flows: fn(usize) -> Vec<Flow>,
    metric: fn(&MappingReport) -> usize,
    paper_columns: &'static [(&'static str, usize)],
    paper_rows: &'static [PaperRow],
}

/// Table 1: XC3000 CLB counts.
pub const TABLE1: PaperTable = PaperTable {
    number: 1,
    heading: "XC3000 CLB counts",
    flows: table1_flows,
    metric: |r| r.clbs.expect("k=5 flows always pack CLBs"),
    paper_columns: &[("IMODEC[5]", 14), ("FGSyn[4]", 14), ("HYDE", 14)],
    paper_rows: PAPER_TABLE1,
};

/// Table 2: 5-input 1-output LUT counts.
pub const TABLE2: PaperTable = PaperTable {
    number: 2,
    heading: "5-input LUT counts",
    flows: table2_flows,
    metric: |r| r.luts,
    paper_columns: &[
        ("[8] no-rs", 14),
        ("[8] resub", 14),
        ("[8] PO", 14),
        ("HYDE", 10),
    ],
    paper_rows: PAPER_TABLE2,
};

impl PaperTable {
    /// Maps `circuits` under the table's flows at k=5 and renders the
    /// measured table (with per-circuit time), HYDE's wins/ties/losses
    /// against the best baseline, and the paper's rows.
    ///
    /// # Errors
    ///
    /// The first failing job, as [`run_suite`] reports it.
    pub fn render(&self, circuits: &[Circuit]) -> Result<String, CoreError> {
        let flows = (self.flows)(5);
        let rows = run_suite(circuits, &flows)?;
        let metric = self.metric;
        let mut s = String::new();
        let _ = writeln!(
            s,
            "== Table {}: {} (measured on this reproduction's suite) ==",
            self.number, self.heading
        );
        let _ = write!(s, "{:<10}", "circuit");
        for (name, _) in &flows {
            let _ = write!(s, "{name:>14}");
        }
        let _ = writeln!(s, "{:>10}", "time(s)");
        let (mut wins, mut ties, mut losses) = (0, 0, 0);
        for (circuit, row) in circuits.iter().zip(&rows) {
            let _ = write!(s, "{:<10}", circuit.name);
            for r in row {
                let _ = write!(s, "{:>14}", metric(r));
            }
            let t: f64 = row.iter().map(|r| r.elapsed.as_secs_f64()).sum();
            let _ = writeln!(s, "{t:>10.2}");
            if let Some((hyde, baselines)) = row.split_last() {
                let best = baselines.iter().map(metric).min().unwrap_or(usize::MAX);
                match metric(hyde).cmp(&best) {
                    std::cmp::Ordering::Less => wins += 1,
                    std::cmp::Ordering::Equal => ties += 1,
                    std::cmp::Ordering::Greater => losses += 1,
                }
            }
        }
        let _ = write!(s, "{:<10}", "Total");
        for t in totals(&rows, metric) {
            let _ = write!(s, "{t:>14}");
        }
        let _ = writeln!(
            s,
            "\n\nHYDE vs best baseline: {wins} wins, {ties} ties, {losses} losses\n"
        );
        let _ = writeln!(
            s,
            "== Paper's Table {} (original MCNC circuits, for shape reference) ==",
            self.number
        );
        let _ = write!(s, "{:<10}", "circuit");
        for (heading, width) in self.paper_columns {
            let _ = write!(s, "{heading:>width$}");
        }
        for &(name, baselines, hyde) in self.paper_rows {
            let _ = write!(s, "\n{name:<10}");
            let cells = baselines.iter().copied().chain([Some(hyde)]);
            for (v, (_, width)) in cells.zip(self.paper_columns) {
                let _ = write!(s, "{:>width$}", v.map_or("-".into(), |x| x.to_string()));
            }
        }
        let _ = writeln!(s);
        Ok(s)
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn paper_tables_are_consistent_with_published_totals() {
        // Table 1 subtotal over rows where every tool has a number:
        // IMODEC 964, FGSyn 895, HYDE 864 (paper's Subtotal line).
        let (mut i_sum, mut f_sum, mut h_sum) = (0u32, 0u32, 0u32);
        for &(_, baselines, h) in PAPER_TABLE1 {
            if let [Some(i), Some(f)] = *baselines {
                i_sum += i;
                f_sum += f;
                h_sum += h;
            }
        }
        assert_eq!(i_sum, 964);
        assert_eq!(f_sum, 895);
        assert_eq!(h_sum, 864);
        // Table 1 full totals: IMODEC 1453, HYDE 1272.
        let i_total: u32 = PAPER_TABLE1.iter().filter_map(|r| r.1[0]).sum();
        let h_total: u32 = PAPER_TABLE1.iter().map(|r| r.2).sum();
        assert_eq!(i_total, 1453);
        assert_eq!(h_total, 1272);
    }

    #[test]
    fn paper_table2_totals() {
        // HYDE total 1311 (over rows where [8] reports a number);
        // subtotal (-alu4) comparison 1110 vs 1105.
        let h_total: u32 = PAPER_TABLE2
            .iter()
            .filter(|r| r.1[0].is_some())
            .map(|r| r.2)
            .sum();
        assert_eq!(h_total, 1311);
        let po_sub: u32 = PAPER_TABLE2
            .iter()
            .filter(|r| r.0 != "alu4")
            .filter_map(|r| r.1[2])
            .sum();
        let h_sub: u32 = PAPER_TABLE2
            .iter()
            .filter(|r| r.0 != "alu4" && r.1[2].is_some())
            .map(|r| r.2)
            .sum();
        assert_eq!(po_sub, 1110);
        assert_eq!(h_sub, 1105);
    }

    #[test]
    fn run_suite_smoke() {
        let circuits = vec![hyde_circuits::rd73()];
        let rows = run_suite(&circuits, &table2_flows(5)).unwrap();
        assert_eq!(rows.len(), 1);
        assert_eq!(totals(&rows, |r| r.luts), [8, 7, 6]);
        for table in [TABLE1, TABLE2] {
            let text = table.render(&circuits).unwrap();
            for needle in ["rd73", "Total", "HYDE vs best baseline", "Paper's Table"] {
                assert!(text.contains(needle), "{needle} missing from\n{text}");
            }
        }
    }
}
