//! Conflict-driven clause-learning SAT solver.
//!
//! A compact MiniSat-style core: two-watched-literal propagation,
//! first-UIP learning, VSIDS-lite activities, Luby restarts, and
//! assumption-based solving with failed-assumption extraction. There is
//! no clause deletion — the proofs HYDE runs are small enough that the
//! learned database stays modest, and keeping every learned clause makes
//! incremental re-solving under different assumptions cheaper.

use crate::cnf::Lit;
use std::time::{Duration, Instant};

/// Result of a (budgeted) solve call.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum Outcome {
    /// A satisfying assignment was found; read it with
    /// [`Solver::model_value`].
    Sat,
    /// The clauses (under the given assumptions) are unsatisfiable; the
    /// failed assumptions are available via [`Solver::unsat_core`].
    Unsat,
    /// The conflict or time budget ran out before an answer was proved.
    Unknown,
}

/// Search-effort counters, cumulative over the solver's lifetime.
#[derive(Debug, Clone, Copy, Default)]
pub struct Stats {
    /// Number of variables allocated.
    pub vars: usize,
    /// Number of problem clauses added (after root-level simplification).
    pub clauses: usize,
    /// Number of learned clauses currently kept.
    pub learned: usize,
    /// Conflicts encountered.
    pub conflicts: u64,
    /// Decisions taken.
    pub decisions: u64,
    /// Literals propagated.
    pub propagations: u64,
    /// Restarts performed.
    pub restarts: u64,
}

/// Effort bound for one solve call.
#[derive(Debug, Clone, Copy)]
pub struct Budget {
    /// Maximum number of conflicts before giving up with
    /// [`Outcome::Unknown`].
    pub max_conflicts: u64,
    /// Wall-clock limit for the call.
    pub max_time: Duration,
}

impl Budget {
    /// A practically unlimited budget.
    pub fn unlimited() -> Self {
        Budget {
            max_conflicts: u64::MAX,
            max_time: Duration::from_secs(u64::MAX / 4),
        }
    }

    /// A budget with the given conflict cap and a generous time cap.
    pub fn conflicts(max_conflicts: u64) -> Self {
        Budget {
            max_conflicts,
            max_time: Duration::from_secs(3600),
        }
    }
}

impl Default for Budget {
    fn default() -> Self {
        Budget {
            max_conflicts: 200_000,
            max_time: Duration::from_secs(10),
        }
    }
}

const UNASSIGNED: i8 = 0;
const NO_REASON: i32 = -1;
const VAR_DECAY: f64 = 0.95;
const RESCALE_LIMIT: f64 = 1e100;
const RESTART_BASE: u64 = 256;

#[derive(Debug)]
struct Clause {
    lits: Vec<Lit>,
}

/// The CDCL solver.
///
/// # Example
///
/// ```
/// use hyde_sat::{Lit, Outcome, Solver};
///
/// let mut s = Solver::new();
/// let a = Lit::pos(s.new_var());
/// let b = Lit::pos(s.new_var());
/// s.add_clause(&[a, b]);
/// s.add_clause(&[!a, b]);
/// assert_eq!(s.solve(&[]), Outcome::Sat);
/// assert!(s.model_value(b.var()));
/// assert_eq!(s.solve(&[!b]), Outcome::Unsat);
/// assert_eq!(s.unsat_core(), &[!b]);
/// ```
#[derive(Debug)]
pub struct Solver {
    clauses: Vec<Clause>,
    /// `watches[lit.index()]` lists clauses to inspect when `lit`
    /// becomes true (they watch `!lit`).
    watches: Vec<Vec<u32>>,
    /// Per-variable truth value: `1` true, `-1` false, `0` unassigned.
    assign: Vec<i8>,
    level: Vec<u32>,
    reason: Vec<i32>,
    trail: Vec<Lit>,
    trail_lim: Vec<usize>,
    qhead: usize,
    activity: Vec<f64>,
    var_inc: f64,
    polarity: Vec<bool>,
    seen: Vec<bool>,
    core: Vec<Lit>,
    /// Snapshot of `assign` at the last [`Outcome::Sat`] answer; the
    /// search itself backtracks to the root so the solver stays
    /// incremental (more clauses/solves may follow).
    model: Vec<i8>,
    ok: bool,
    stats: Stats,
}

impl Default for Solver {
    fn default() -> Self {
        Self::new()
    }
}

impl Solver {
    /// Creates an empty solver.
    pub fn new() -> Self {
        Solver {
            clauses: Vec::new(),
            watches: Vec::new(),
            assign: Vec::new(),
            level: Vec::new(),
            reason: Vec::new(),
            trail: Vec::new(),
            trail_lim: Vec::new(),
            qhead: 0,
            activity: Vec::new(),
            var_inc: 1.0,
            polarity: Vec::new(),
            seen: Vec::new(),
            core: Vec::new(),
            model: Vec::new(),
            ok: true,
            stats: Stats::default(),
        }
    }

    /// Allocates a fresh variable and returns its index.
    pub fn new_var(&mut self) -> usize {
        let v = self.assign.len();
        self.assign.push(UNASSIGNED);
        self.level.push(0);
        self.reason.push(NO_REASON);
        self.activity.push(0.0);
        self.polarity.push(false);
        self.seen.push(false);
        self.watches.push(Vec::new());
        self.watches.push(Vec::new());
        self.stats.vars = self.assign.len();
        v
    }

    /// Number of variables allocated so far.
    pub fn num_vars(&self) -> usize {
        self.assign.len()
    }

    /// Cumulative search statistics.
    pub fn stats(&self) -> Stats {
        self.stats
    }

    /// Whether the clause set is still possibly satisfiable (false once
    /// a root-level contradiction has been derived).
    pub fn is_ok(&self) -> bool {
        self.ok
    }

    fn value(&self, l: Lit) -> i8 {
        let a = self.assign[l.var()];
        if l.is_neg() {
            -a
        } else {
            a
        }
    }

    fn decision_level(&self) -> usize {
        self.trail_lim.len()
    }

    /// Adds a clause. Must be called at decision level 0 (i.e. outside
    /// of `solve`). Returns `false` if the clause set became trivially
    /// unsatisfiable.
    ///
    /// # Panics
    ///
    /// Panics if any literal's variable has not been allocated.
    pub fn add_clause(&mut self, lits: &[Lit]) -> bool {
        assert_eq!(self.decision_level(), 0, "add_clause during search");
        if !self.ok {
            return false;
        }
        let mut c: Vec<Lit> = lits.to_vec();
        for l in &c {
            assert!(l.var() < self.assign.len(), "literal {l} out of range");
        }
        c.sort_unstable();
        c.dedup();
        // Tautology or already-satisfied at root level.
        for w in c.windows(2) {
            if w[0].var() == w[1].var() {
                return true;
            }
        }
        if c.iter().any(|&l| self.value(l) == 1) {
            return true;
        }
        c.retain(|&l| self.value(l) != -1);
        match c.len() {
            0 => {
                self.ok = false;
                false
            }
            1 => {
                self.enqueue(c[0], NO_REASON);
                if self.propagate().is_some() {
                    self.ok = false;
                }
                self.ok
            }
            _ => {
                self.attach(c, false);
                true
            }
        }
    }

    fn attach(&mut self, lits: Vec<Lit>, learned: bool) -> usize {
        let ci = self.clauses.len();
        self.watches[(!lits[0]).index()].push(ci as u32);
        self.watches[(!lits[1]).index()].push(ci as u32);
        self.clauses.push(Clause { lits });
        if learned {
            self.stats.learned += 1;
        } else {
            self.stats.clauses += 1;
        }
        ci
    }

    fn enqueue(&mut self, l: Lit, reason: i32) {
        debug_assert_eq!(self.value(l), UNASSIGNED);
        self.assign[l.var()] = if l.is_neg() { -1 } else { 1 };
        self.level[l.var()] = self.decision_level() as u32;
        self.reason[l.var()] = reason;
        self.trail.push(l);
    }

    /// Runs unit propagation to fixpoint; returns a conflicting clause
    /// index if one is found.
    fn propagate(&mut self) -> Option<usize> {
        while self.qhead < self.trail.len() {
            let p = self.trail[self.qhead];
            self.qhead += 1;
            self.stats.propagations += 1;
            let false_lit = !p;
            let widx = p.index();
            let mut i = 0;
            while i < self.watches[widx].len() {
                let ci = self.watches[widx][i] as usize;
                // Normalize so the falsified watched literal sits at 1.
                if self.clauses[ci].lits[0] == false_lit {
                    self.clauses[ci].lits.swap(0, 1);
                }
                let first = self.clauses[ci].lits[0];
                if self.value(first) == 1 {
                    i += 1;
                    continue;
                }
                let mut moved = false;
                for k in 2..self.clauses[ci].lits.len() {
                    if self.value(self.clauses[ci].lits[k]) != -1 {
                        self.clauses[ci].lits.swap(1, k);
                        let new_watch = (!self.clauses[ci].lits[1]).index();
                        self.watches[widx].swap_remove(i);
                        self.watches[new_watch].push(ci as u32);
                        moved = true;
                        break;
                    }
                }
                if moved {
                    continue;
                }
                if self.value(first) == -1 {
                    // Conflict: flush the queue so the caller restarts
                    // propagation cleanly after backtracking.
                    self.qhead = self.trail.len();
                    return Some(ci);
                }
                self.enqueue(first, ci as i32);
                i += 1;
            }
        }
        None
    }

    fn bump(&mut self, var: usize) {
        self.activity[var] += self.var_inc;
        if self.activity[var] > RESCALE_LIMIT {
            for a in &mut self.activity {
                *a /= RESCALE_LIMIT;
            }
            self.var_inc /= RESCALE_LIMIT;
        }
    }

    fn decay(&mut self) {
        self.var_inc /= VAR_DECAY;
    }

    /// First-UIP conflict analysis. Returns the learned clause (with the
    /// asserting literal at index 0 and a highest-level literal at index
    /// 1) and the backjump level.
    fn analyze(&mut self, conflict: usize) -> (Vec<Lit>, usize) {
        let current = self.decision_level();
        let mut learnt: Vec<Lit> = vec![Lit::pos(0)]; // placeholder for UIP
        let mut counter = 0usize;
        let mut idx = self.trail.len();
        let mut ci = conflict;
        let mut skip_head = false;
        loop {
            let start = usize::from(skip_head);
            for k in start..self.clauses[ci].lits.len() {
                let q = self.clauses[ci].lits[k];
                let v = q.var();
                if !self.seen[v] && self.level[v] > 0 {
                    self.seen[v] = true;
                    self.bump(v);
                    if self.level[v] as usize == current {
                        counter += 1;
                    } else {
                        learnt.push(q);
                    }
                }
            }
            // Walk back to the next marked literal on the trail.
            loop {
                idx -= 1;
                if self.seen[self.trail[idx].var()] {
                    break;
                }
            }
            let p = self.trail[idx];
            self.seen[p.var()] = false;
            counter -= 1;
            if counter == 0 {
                learnt[0] = !p;
                break;
            }
            ci = self.reason[p.var()] as usize;
            skip_head = true; // reason clause holds p at index 0
        }
        for l in &learnt[1..] {
            self.seen[l.var()] = false;
        }
        let mut back = 0usize;
        if learnt.len() > 1 {
            let mut max_at = 1;
            for k in 2..learnt.len() {
                if self.level[learnt[k].var()] > self.level[learnt[max_at].var()] {
                    max_at = k;
                }
            }
            learnt.swap(1, max_at);
            back = self.level[learnt[1].var()] as usize;
        }
        (learnt, back)
    }

    /// Computes the subset of assumptions responsible for forcing
    /// `failed` false (the failed-assumption / UNSAT-core set).
    fn analyze_final(&mut self, failed: Lit) -> Vec<Lit> {
        let mut core = vec![failed];
        if self.decision_level() == 0 {
            return core;
        }
        self.seen[failed.var()] = true;
        for i in (self.trail_lim[0]..self.trail.len()).rev() {
            let l = self.trail[i];
            let v = l.var();
            if !self.seen[v] {
                continue;
            }
            self.seen[v] = false;
            let r = self.reason[v];
            if r == NO_REASON {
                // Decisions below the first conflict are assumptions.
                core.push(l);
            } else {
                for &q in &self.clauses[r as usize].lits[1..] {
                    if self.level[q.var()] > 0 {
                        self.seen[q.var()] = true;
                    }
                }
            }
        }
        self.seen[failed.var()] = false;
        core
    }

    fn backtrack(&mut self, to_level: usize) {
        if self.decision_level() <= to_level {
            return;
        }
        let bound = self.trail_lim[to_level];
        while self.trail.len() > bound {
            let l = self.trail.pop().expect("trail bounded below by lim");
            self.polarity[l.var()] = !l.is_neg();
            self.assign[l.var()] = UNASSIGNED;
            self.reason[l.var()] = NO_REASON;
        }
        self.trail_lim.truncate(to_level);
        self.qhead = self.qhead.min(self.trail.len());
    }

    fn pick_branch_var(&self) -> Option<usize> {
        let mut best: Option<usize> = None;
        for (v, &a) in self.assign.iter().enumerate() {
            if a != UNASSIGNED {
                continue;
            }
            match best {
                Some(b) if self.activity[b] >= self.activity[v] => {}
                _ => best = Some(v),
            }
        }
        best
    }

    /// Solves under the given assumptions with an unlimited budget.
    pub fn solve(&mut self, assumptions: &[Lit]) -> Outcome {
        self.solve_budgeted(assumptions, &Budget::unlimited())
    }

    /// Solves under the given assumptions, giving up with
    /// [`Outcome::Unknown`] once the budget is exhausted.
    pub fn solve_budgeted(&mut self, assumptions: &[Lit], budget: &Budget) -> Outcome {
        let _obs = hyde_obs::span!("sat.solve");
        let before = self.stats;
        let out = self.solve_budgeted_inner(assumptions, budget);
        if hyde_obs::enabled() {
            hyde_obs::counter("sat.solves", 1);
            hyde_obs::counter("sat.vars", self.stats.vars as u64);
            hyde_obs::counter("sat.clauses", self.stats.clauses as u64);
            hyde_obs::counter("sat.conflicts", self.stats.conflicts - before.conflicts);
            hyde_obs::counter("sat.decisions", self.stats.decisions - before.decisions);
            hyde_obs::counter(
                "sat.propagations",
                self.stats.propagations - before.propagations,
            );
            hyde_obs::counter("sat.restarts", self.stats.restarts - before.restarts);
        }
        out
    }

    fn solve_budgeted_inner(&mut self, assumptions: &[Lit], budget: &Budget) -> Outcome {
        self.core.clear();
        if !self.ok {
            return Outcome::Unsat;
        }
        // sa:allow(SA002): the time budget decides only whether we stop
        // with Outcome::Unknown; it cannot alter a Sat/Unsat answer.
        let start = Instant::now();
        let start_conflicts = self.stats.conflicts;
        self.backtrack(0);
        if self.propagate().is_some() {
            self.ok = false;
            return Outcome::Unsat;
        }
        let mut restart_seq = 1u64;
        let mut conflicts_since_restart = 0u64;
        loop {
            if let Some(ci) = self.propagate() {
                self.stats.conflicts += 1;
                conflicts_since_restart += 1;
                if self.decision_level() == 0 {
                    self.ok = false;
                    return Outcome::Unsat;
                }
                let (learnt, back) = self.analyze(ci);
                self.backtrack(back);
                if learnt.len() == 1 {
                    self.enqueue(learnt[0], NO_REASON);
                } else {
                    let asserting = learnt[0];
                    let ci = self.attach(learnt, true);
                    self.enqueue(asserting, ci as i32);
                }
                self.decay();
                if self.stats.conflicts - start_conflicts >= budget.max_conflicts
                    || start.elapsed() >= budget.max_time
                {
                    self.backtrack(0);
                    return Outcome::Unknown;
                }
                if conflicts_since_restart >= luby(restart_seq) * RESTART_BASE {
                    restart_seq += 1;
                    conflicts_since_restart = 0;
                    self.stats.restarts += 1;
                    self.backtrack(0);
                }
            } else if self.decision_level() < assumptions.len() {
                let a = assumptions[self.decision_level()];
                assert!(a.var() < self.assign.len(), "assumption {a} out of range");
                match self.value(a) {
                    1 => self.trail_lim.push(self.trail.len()),
                    -1 => {
                        self.core = self.analyze_final(a);
                        self.backtrack(0);
                        return Outcome::Unsat;
                    }
                    _ => {
                        self.trail_lim.push(self.trail.len());
                        self.enqueue(a, NO_REASON);
                    }
                }
            } else if let Some(v) = self.pick_branch_var() {
                if start.elapsed() >= budget.max_time {
                    self.backtrack(0);
                    return Outcome::Unknown;
                }
                self.stats.decisions += 1;
                self.trail_lim.push(self.trail.len());
                self.enqueue(Lit::new(v, !self.polarity[v]), NO_REASON);
            } else {
                self.model.clone_from(&self.assign);
                self.backtrack(0);
                return Outcome::Sat;
            }
        }
    }

    /// The truth value of `var` in the model found by the last
    /// [`Outcome::Sat`] answer.
    ///
    /// # Panics
    ///
    /// Panics if `var` is out of range; the value is only meaningful
    /// directly after a `Sat` outcome (before further clauses/solves).
    pub fn model_value(&self, var: usize) -> bool {
        self.model[var] == 1
    }

    /// After an [`Outcome::Unsat`] answer under assumptions: the subset
    /// of assumption literals that together are contradictory. Empty if
    /// the clause set is unsatisfiable regardless of assumptions.
    pub fn unsat_core(&self) -> &[Lit] {
        &self.core
    }
}

/// The Luby restart sequence 1, 1, 2, 1, 1, 2, 4, ...
fn luby(mut i: u64) -> u64 {
    // 1-based: 1 1 2 1 1 2 4 1 1 2 1 1 2 4 8 ... If i+1 is a power of
    // two then i = 2^k - 1 ends a block and the value is 2^(k-1);
    // otherwise strip the largest complete block below i and recurse.
    loop {
        if (i + 1).is_power_of_two() {
            return (i + 1) >> 1;
        }
        let k = 63 - (i + 1).leading_zeros();
        i -= (1u64 << k) - 1;
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    fn lit(v: usize, neg: bool) -> Lit {
        Lit::new(v, neg)
    }

    fn fresh(s: &mut Solver, n: usize) -> Vec<Lit> {
        (0..n).map(|_| Lit::pos(s.new_var())).collect()
    }

    #[test]
    fn luby_prefix_matches_reference() {
        let got: Vec<u64> = (1..=15).map(luby).collect();
        assert_eq!(got, vec![1, 1, 2, 1, 1, 2, 4, 1, 1, 2, 1, 1, 2, 4, 8]);
    }

    #[test]
    fn unit_propagation_chains_to_fixpoint() {
        // a, a->b, b->c forces c without any decision.
        let mut s = Solver::new();
        let v = fresh(&mut s, 3);
        s.add_clause(&[v[0]]);
        s.add_clause(&[!v[0], v[1]]);
        s.add_clause(&[!v[1], v[2]]);
        assert_eq!(s.solve(&[]), Outcome::Sat);
        assert_eq!(s.stats().decisions, 0);
        assert!(s.model_value(v[2].var()));
    }

    #[test]
    fn root_contradiction_is_unsat() {
        let mut s = Solver::new();
        let v = fresh(&mut s, 1);
        s.add_clause(&[v[0]]);
        assert!(!s.add_clause(&[!v[0]]));
        assert_eq!(s.solve(&[]), Outcome::Unsat);
        assert!(s.unsat_core().is_empty());
    }

    #[test]
    fn conflict_analysis_learns_and_solves_xor_chain() {
        // x1 xor x2 xor x3 = 1 as CNF; satisfiable, needs real search.
        let mut s = Solver::new();
        let v = fresh(&mut s, 3);
        s.add_clause(&[v[0], v[1], v[2]]);
        s.add_clause(&[v[0], !v[1], !v[2]]);
        s.add_clause(&[!v[0], v[1], !v[2]]);
        s.add_clause(&[!v[0], !v[1], v[2]]);
        assert_eq!(s.solve(&[]), Outcome::Sat);
        let parity = s.model_value(0) ^ s.model_value(1) ^ s.model_value(2);
        assert!(parity);
    }

    #[test]
    fn conflict_analysis_proves_pigeonhole_3_into_2() {
        // p[i][j]: pigeon i in hole j. 3 pigeons, 2 holes: UNSAT, and the
        // proof requires learning (no root-level contradiction exists).
        let mut s = Solver::new();
        let p: Vec<Vec<Lit>> = (0..3).map(|_| fresh(&mut s, 2)).collect();
        for row in &p {
            s.add_clause(row);
        }
        for i in 0..3 {
            for k in (i + 1)..3 {
                for (a, b) in p[i].iter().zip(&p[k]) {
                    s.add_clause(&[!*a, !*b]);
                }
            }
        }
        assert_eq!(s.solve(&[]), Outcome::Unsat);
        assert!(s.stats().conflicts > 0, "PHP needs conflict analysis");
    }

    #[test]
    fn assumptions_yield_minimal_failed_set() {
        // a & b -> bot, c free. Core must mention a and b only.
        let mut s = Solver::new();
        let v = fresh(&mut s, 3);
        s.add_clause(&[!v[0], !v[1]]);
        assert_eq!(s.solve(&[v[0], v[2], v[1]]), Outcome::Unsat);
        let mut core = s.unsat_core().to_vec();
        core.sort_unstable();
        assert_eq!(core, vec![v[0], v[1]]);
        // Still satisfiable under the remaining assumption alone.
        assert_eq!(s.solve(&[v[2]]), Outcome::Sat);
    }

    #[test]
    fn unsat_core_traces_through_propagation() {
        // Assumptions a, d; a -> b, b -> c, c & d -> bot. The core must
        // pull in `a` through the implication chain, not just `d`.
        let mut s = Solver::new();
        let v = fresh(&mut s, 4);
        s.add_clause(&[!v[0], v[1]]);
        s.add_clause(&[!v[1], v[2]]);
        s.add_clause(&[!v[2], !v[3]]);
        assert_eq!(s.solve(&[v[0], v[3]]), Outcome::Unsat);
        let mut core = s.unsat_core().to_vec();
        core.sort_unstable();
        assert_eq!(core, vec![v[0], v[3]]);
    }

    #[test]
    fn budget_zero_time_reports_unknown() {
        let mut s = Solver::new();
        let v = fresh(&mut s, 2);
        s.add_clause(&[v[0], v[1]]);
        let b = Budget {
            max_conflicts: u64::MAX,
            max_time: Duration::from_secs(0),
        };
        assert_eq!(s.solve_budgeted(&[], &b), Outcome::Unknown);
        // The solver stays usable after an Unknown answer.
        assert_eq!(s.solve(&[]), Outcome::Sat);
    }

    #[test]
    fn random_3sat_agrees_with_brute_force() {
        // Deterministic xorshift so the test is reproducible.
        let mut state = 0x1234_5678_9abc_def0u64;
        let mut next = move || {
            state ^= state << 13;
            state ^= state >> 7;
            state ^= state << 17;
            state
        };
        for round in 0..60 {
            let nvars = 6 + (round % 4);
            let nclauses = 2 * nvars + (round % 7);
            let mut s = Solver::new();
            let v = fresh(&mut s, nvars);
            let mut cls: Vec<Vec<Lit>> = Vec::new();
            for _ in 0..nclauses {
                let mut c = Vec::new();
                for _ in 0..3 {
                    let r = next() as usize;
                    c.push(lit(r % nvars, (r >> 8) & 1 == 1));
                }
                cls.push(c);
            }
            for c in &cls {
                s.add_clause(c);
            }
            let brute = (0u32..1 << nvars).any(|m| {
                cls.iter()
                    .all(|c| c.iter().any(|l| (m >> l.var() & 1 == 1) != l.is_neg()))
            });
            let got = s.solve(&[]);
            assert_eq!(
                got,
                if brute { Outcome::Sat } else { Outcome::Unsat },
                "round {round} disagrees with brute force"
            );
            if got == Outcome::Sat {
                for c in &cls {
                    assert!(
                        c.iter().any(|l| s.model_value(l.var()) != l.is_neg()),
                        "model does not satisfy clause"
                    );
                }
            }
            let _ = &v;
        }
    }
}
