//! The BDD manager: unique table, operation cache, and algorithms.
//!
//! Storage follows the CUDD playbook rather than `std::collections`:
//!
//! * the **unique table** is an open-addressed array of node indices with
//!   power-of-two capacity, multiplicative integer hashing and linear
//!   probing. The manager is append-only, so the table never deletes and
//!   needs no tombstones; growth doubles the bucket array and reinserts.
//! * the **operation cache** is a fixed-size direct-mapped array of
//!   `(op, operands, result)` slots. Lookups hash to exactly one slot;
//!   inserts overwrite whatever lives there (lossy, like CUDD's computed
//!   table). Losing an entry only costs a recomputation — results are
//!   canonical either way.
//!
//! Both tables feed per-manager [`BddStats`] counters exposed through
//! [`Bdd::stats`], so benchmarks and the deep verification passes can
//! report hit rates alongside their own metrics.

use std::cell::RefCell;
use std::collections::HashMap;

/// Reference to a BDD node owned by a [`Bdd`] manager.
///
/// Refs are only meaningful together with the manager that produced them;
/// equal refs denote equal functions (canonicity of ROBDDs).
#[derive(Debug, Clone, Copy, PartialEq, Eq, Hash, PartialOrd, Ord)]
pub struct Ref(u32);

impl Ref {
    /// The constant-false node.
    pub const FALSE: Ref = Ref(0);
    /// The constant-true node.
    pub const TRUE: Ref = Ref(1);

    /// Raw index (diagnostics only).
    pub fn index(self) -> usize {
        self.0 as usize
    }
}

const NO_VAR: u32 = u32::MAX;

/// `var` sentinel for a node slot reclaimed by [`Bdd::gc`]: the slot is
/// on the free list and will be reused by the next `mk` allocation. Dead
/// slots never appear in the unique table or in [`Bdd::node_triples`].
const DEAD: u32 = u32::MAX - 1;

/// Empty bucket sentinel in the unique table.
const EMPTY: u32 = u32::MAX;

/// Multiplicative mixing of a node triple / operation key into a bucket
/// hash (Fx/golden-ratio style: three odd constants, one avalanche shift).
#[inline]
fn mix3(a: u32, b: u32, c: u32) -> u64 {
    let mut h = u64::from(a).wrapping_mul(0x9E37_79B9_7F4A_7C15);
    h ^= u64::from(b).wrapping_mul(0xA24B_AED4_963E_E407);
    h ^= u64::from(c).wrapping_mul(0x9FB2_1C65_1E98_DF25);
    h ^ (h >> 29)
}

#[derive(Debug, Clone, Copy)]
struct Node {
    var: u32,
    lo: Ref,
    hi: Ref,
}

/// Operation tags for the computed cache.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
enum Op {
    Ite = 1,
    Exists = 2,
    Compose = 3,
    Restrict = 4,
}

/// One direct-mapped computed-cache slot. `op == 0` marks an empty slot.
#[derive(Debug, Clone, Copy)]
struct CacheSlot {
    op: u8,
    a: u32,
    b: u32,
    c: u32,
    result: Ref,
}

const EMPTY_SLOT: CacheSlot = CacheSlot {
    op: 0,
    a: 0,
    b: 0,
    c: 0,
    result: Ref::FALSE,
};

/// Per-manager storage and traffic counters (see [`Bdd::stats`]).
#[derive(Debug, Clone, Copy, Default, PartialEq, Eq)]
pub struct BddStats {
    /// Allocated nodes, including the two terminals.
    pub nodes: usize,
    /// Unique-table lookups (one per canonical `mk`).
    pub unique_lookups: u64,
    /// Total buckets inspected across all unique-table lookups; the ratio
    /// to `unique_lookups` is the mean probe length.
    pub unique_probes: u64,
    /// Unique-table hits (an existing node was returned).
    pub unique_hits: u64,
    /// Operation-cache lookups.
    pub cache_lookups: u64,
    /// Operation-cache hits.
    pub cache_hits: u64,
    /// Occupied cache slots overwritten by a different key (direct-mapped
    /// replacement losses).
    pub cache_evictions: u64,
    /// Unique-table doublings (growth events) since the last reset.
    pub unique_growths: u64,
    /// Computed-cache doublings under eviction pressure since the last
    /// reset.
    pub cache_growths: u64,
    /// Garbage collections performed (see [`Bdd::gc`]).
    pub gc_runs: u64,
    /// Dead nodes reclaimed across all collections.
    pub gc_reclaimed: u64,
}

impl BddStats {
    /// Operation-cache hit rate in `[0, 1]` (zero when nothing was looked
    /// up).
    pub fn cache_hit_rate(&self) -> f64 {
        if self.cache_lookups == 0 {
            0.0
        } else {
            self.cache_hits as f64 / self.cache_lookups as f64
        }
    }

    /// Operation-cache misses.
    pub fn cache_misses(&self) -> u64 {
        self.cache_lookups - self.cache_hits
    }

    /// Mean unique-table probe length (1.0 means no collisions at all).
    pub fn mean_probe_length(&self) -> f64 {
        if self.unique_lookups == 0 {
            0.0
        } else {
            self.unique_probes as f64 / self.unique_lookups as f64
        }
    }
}

/// Default unique-table bucket count for [`Bdd::new`] (power of two).
const DEFAULT_UNIQUE_BUCKETS: usize = 1 << 10;
/// Default computed-cache slots for [`Bdd::new`] (power of two).
const DEFAULT_CACHE_SLOTS: usize = 1 << 13;
/// Computed-cache slot bounds for [`Bdd::with_capacity`] and adaptive
/// growth (1M slots × 16 bytes = 16 MiB worst case per manager).
const MIN_CACHE_SLOTS: usize = 1 << 10;
const MAX_CACHE_SLOTS: usize = 1 << 20;

/// A reduced ordered BDD manager over a fixed number of variables.
///
/// Variable `0` is the topmost in the order. The manager is append-only
/// (no garbage collection): decomposition workloads build, query, and drop
/// the whole manager.
#[derive(Debug, Clone)]
pub struct Bdd {
    num_vars: usize,
    nodes: Vec<Node>,
    /// Open-addressed unique table: buckets hold node indices, [`EMPTY`]
    /// marks a free bucket. Capacity is a power of two; `unique_mask` is
    /// `capacity - 1`.
    unique: Vec<u32>,
    unique_mask: usize,
    /// Occupied bucket count (drives amortized growth at 3/4 load).
    unique_len: usize,
    /// Direct-mapped computed cache; `cache_mask` is `len - 1`.
    cache: Vec<CacheSlot>,
    cache_mask: usize,
    /// Evictions since the cache last grew; when this exceeds a quarter of
    /// the slot count the cache is thrashing and doubles (up to
    /// [`MAX_CACHE_SLOTS`]), CUDD-style adaptive resizing.
    cache_pressure: u64,
    /// Optional node cap (see [`Bdd::set_node_cap`]). `None` means the
    /// manager grows without bound, as before.
    node_cap: Option<usize>,
    /// Poison flag: set when an allocation was refused because of the
    /// node cap (or injected by the chaos layer). While set, `mk`
    /// returns [`Ref::FALSE`] without touching the tables, so a capped
    /// computation unwinds cheaply instead of thrashing; results are
    /// garbage and must be discarded via [`Bdd::guarded`].
    exhausted: bool,
    /// Node slots reclaimed by [`Bdd::gc`], reused (LIFO) by `mk` before
    /// the node vector grows. Indices stay stable across collections, so
    /// live [`Ref`]s are never invalidated.
    free: Vec<u32>,
    /// Growth-pressure GC trigger: [`Bdd::maybe_gc`] collects when the
    /// in-use node count reaches this. `None` disables safe-point GC;
    /// `Some(0)` forces a collection at every safe point (test mode).
    gc_threshold: Option<usize>,
    /// Chaos hook for the sweep: when armed, a tripped site poisons the
    /// manager right after a collection, simulating an allocation failure
    /// inside node management (drained via [`Bdd::guarded`]).
    gc_chaos: Option<(hyde_guard::Chaos, String)>,
    stats: StatCells,
    /// Scratch memo reused by [`Bdd::permute`] (cleared per call, never
    /// reallocated).
    permute_memo: HashMap<Ref, Ref>,
    /// Scratch memo reused by [`Bdd::sat_count`] (interior mutability:
    /// counting takes `&self`).
    sat_memo: RefCell<HashMap<Ref, u128>>,
}

/// Interior-mutable counters: lookups happen in `&self` contexts (e.g.
/// probing during reads) and must not force `&mut` through the public API.
#[derive(Debug, Clone, Default)]
struct StatCells {
    unique_lookups: std::cell::Cell<u64>,
    unique_probes: std::cell::Cell<u64>,
    unique_hits: std::cell::Cell<u64>,
    cache_lookups: std::cell::Cell<u64>,
    cache_hits: std::cell::Cell<u64>,
    cache_evictions: std::cell::Cell<u64>,
    unique_growths: std::cell::Cell<u64>,
    cache_growths: std::cell::Cell<u64>,
    gc_runs: std::cell::Cell<u64>,
    gc_reclaimed: std::cell::Cell<u64>,
}

impl Bdd {
    /// Creates a manager over `num_vars` variables with default table
    /// sizes (suited to small helper managers; hot paths should call
    /// [`Bdd::with_capacity`]).
    pub fn new(num_vars: usize) -> Self {
        Self::with_tables(num_vars, DEFAULT_UNIQUE_BUCKETS, DEFAULT_CACHE_SLOTS)
    }

    /// Creates a manager pre-sized for roughly `hint` nodes: the unique
    /// table starts large enough to hold them below 3/4 load and the
    /// operation cache is scaled to match, so warm-up proceeds without a
    /// single rehash.
    pub fn with_capacity(num_vars: usize, hint: usize) -> Self {
        // Buckets so that `hint` entries stay under 3/4 load.
        let buckets = (hint.saturating_mul(4) / 3 + 1)
            .next_power_of_two()
            .max(DEFAULT_UNIQUE_BUCKETS);
        let cache = buckets.clamp(MIN_CACHE_SLOTS, MAX_CACHE_SLOTS);
        Self::with_tables(num_vars, buckets, cache)
    }

    fn with_tables(num_vars: usize, unique_buckets: usize, cache_slots: usize) -> Self {
        debug_assert!(unique_buckets.is_power_of_two());
        debug_assert!(cache_slots.is_power_of_two());
        let nodes = vec![
            Node {
                var: NO_VAR,
                lo: Ref::FALSE,
                hi: Ref::FALSE,
            },
            Node {
                var: NO_VAR,
                lo: Ref::TRUE,
                hi: Ref::TRUE,
            },
        ];
        Bdd {
            num_vars,
            nodes,
            unique: vec![EMPTY; unique_buckets],
            unique_mask: unique_buckets - 1,
            unique_len: 0,
            cache: vec![EMPTY_SLOT; cache_slots],
            cache_mask: cache_slots - 1,
            cache_pressure: 0,
            node_cap: None,
            exhausted: false,
            free: Vec::new(),
            gc_threshold: None,
            gc_chaos: None,
            stats: StatCells::default(),
            permute_memo: HashMap::new(),
            sat_memo: RefCell::new(HashMap::new()),
        }
    }

    /// Number of variables in the order.
    pub fn num_vars(&self) -> usize {
        self.num_vars
    }

    /// Total number of allocated node slots (including both terminals
    /// and any dead slots awaiting reuse after a [`Bdd::gc`]).
    pub fn len(&self) -> usize {
        self.nodes.len()
    }

    /// Number of in-use nodes: allocated slots minus the free list. This
    /// is the count the node cap and the GC trigger are measured against.
    pub fn live_len(&self) -> usize {
        self.nodes.len() - self.free.len()
    }

    /// Whether only the terminals exist.
    pub fn is_empty(&self) -> bool {
        self.nodes.len() <= 2
    }

    /// A snapshot of the manager's storage counters.
    pub fn stats(&self) -> BddStats {
        BddStats {
            nodes: self.nodes.len(),
            unique_lookups: self.stats.unique_lookups.get(),
            unique_probes: self.stats.unique_probes.get(),
            unique_hits: self.stats.unique_hits.get(),
            cache_lookups: self.stats.cache_lookups.get(),
            cache_hits: self.stats.cache_hits.get(),
            cache_evictions: self.stats.cache_evictions.get(),
            unique_growths: self.stats.unique_growths.get(),
            cache_growths: self.stats.cache_growths.get(),
            gc_runs: self.stats.gc_runs.get(),
            gc_reclaimed: self.stats.gc_reclaimed.get(),
        }
    }

    /// Zeroes the traffic counters without touching the node store or the
    /// tables, so per-phase deltas can be taken from one long-lived
    /// manager (`stats()` → work → `stats()`) instead of constructing a
    /// fresh manager per phase. The `nodes` field of [`BddStats`] is a
    /// point-in-time size, not a counter, and is unaffected.
    pub fn reset_stats(&self) {
        self.stats.unique_lookups.set(0);
        self.stats.unique_probes.set(0);
        self.stats.unique_hits.set(0);
        self.stats.cache_lookups.set(0);
        self.stats.cache_hits.set(0);
        self.stats.cache_evictions.set(0);
        self.stats.unique_growths.set(0);
        self.stats.cache_growths.set(0);
        self.stats.gc_runs.set(0);
        self.stats.gc_reclaimed.set(0);
    }

    /// Current unique-table bucket count (diagnostics/tests).
    pub fn unique_capacity(&self) -> usize {
        self.unique.len()
    }

    /// Computed-cache slot count (fixed for the manager's lifetime).
    pub fn cache_capacity(&self) -> usize {
        self.cache.len()
    }

    /// Caps the node store at `cap` nodes (including the two terminals);
    /// `None` removes the cap. When an allocation would exceed the cap,
    /// `mk` refuses it, poisons the manager, and returns [`Ref::FALSE`]
    /// for this and every subsequent allocation until the poison is
    /// cleared. Run capped work through [`Bdd::guarded`] to turn the
    /// poison into a typed [`hyde_guard::OutOfBudget`].
    ///
    /// Setting a cap also arms safe-point garbage collection at 3/4 of
    /// the cap (unless a GC threshold was already configured), so capped
    /// workloads that call [`Bdd::maybe_gc`] reclaim dead nodes before
    /// the cap poisons the manager.
    pub fn set_node_cap(&mut self, cap: Option<usize>) {
        self.node_cap = cap;
        if let Some(c) = cap {
            if self.gc_threshold.is_none() {
                self.gc_threshold = Some((c / 4).max(1) * 3);
            }
        }
    }

    /// The node cap, if one is set.
    pub fn node_cap(&self) -> Option<usize> {
        self.node_cap
    }

    /// Whether the manager refused an allocation (poisoned state). All
    /// refs produced since the poison was set are garbage.
    pub fn is_exhausted(&self) -> bool {
        self.exhausted
    }

    /// Poisons the manager as if an allocation had just been refused.
    /// Used by the chaos layer to simulate a unique-table allocation
    /// failure at an arbitrary point.
    pub fn inject_exhaustion(&mut self) {
        self.exhausted = true;
    }

    /// Runs `f` against the manager and returns its result, or a typed
    /// [`hyde_guard::OutOfBudget`] if the node cap was hit (or an
    /// exhaustion was injected) at any point during `f`.
    ///
    /// Clears any pre-existing poison first, so one manager can host a
    /// sequence of independently guarded computations. On error the
    /// poison is also cleared, but nodes allocated before the refusal
    /// remain (append-only manager) — callers that loop should budget
    /// for that or build a fresh manager per attempt.
    pub fn guarded<T>(
        &mut self,
        f: impl FnOnce(&mut Bdd) -> T,
    ) -> Result<T, hyde_guard::OutOfBudget> {
        self.exhausted = false;
        let out = f(self);
        if std::mem::take(&mut self.exhausted) {
            Err(hyde_guard::OutOfBudget::new(
                hyde_guard::Resource::BddNodes,
                self.node_cap.unwrap_or(0) as u64,
            ))
        } else {
            Ok(out)
        }
    }

    /// Configures the safe-point GC trigger (see [`Bdd::maybe_gc`]):
    /// collect when the in-use node count reaches `threshold`. `None`
    /// disables; `Some(0)` forces a collection at every safe point,
    /// which the GC correctness tests use to prove collections are
    /// semantically invisible.
    pub fn set_gc_threshold(&mut self, threshold: Option<usize>) {
        self.gc_threshold = threshold;
    }

    /// The current safe-point GC trigger, if armed.
    pub fn gc_threshold(&self) -> Option<usize> {
        self.gc_threshold
    }

    /// Arms the chaos hook inside the GC sweep: after a collection under
    /// `chaos`, the site `bddgc:<ctx>` may deterministically poison the
    /// manager, simulating an allocation failure inside node management.
    /// The poison surfaces as a typed [`hyde_guard::OutOfBudget`] at the
    /// enclosing [`Bdd::guarded`] boundary, so degradation ladders (and
    /// the `hyde-bench --chaos` drills) exercise the GC path too.
    pub fn set_gc_chaos(&mut self, chaos: hyde_guard::Chaos, ctx: &str) {
        self.gc_chaos = Some((chaos, ctx.to_string()));
    }

    /// Collects garbage if the in-use node count has reached the
    /// configured threshold (see [`Bdd::set_gc_threshold`]); returns the
    /// number of nodes reclaimed (0 when no collection ran).
    ///
    /// Call this only at *safe points*: moments when `roots` is the
    /// complete set of [`Ref`]s that must survive. Never call it while
    /// intermediate results are held outside `roots` (e.g. mid-recursion
    /// cofactors) — they would be swept and their indices reused.
    ///
    /// After a collection that reclaims less than half of the in-use
    /// nodes, the threshold doubles (growth-pressure backoff) so mostly
    /// -live managers stop paying for futile sweeps.
    pub fn maybe_gc(&mut self, roots: &[Ref]) -> usize {
        let Some(threshold) = self.gc_threshold else {
            return 0;
        };
        if self.live_len() < threshold.max(2) {
            return 0;
        }
        let reclaimed = self.gc(roots);
        if self.live_len() * 2 > threshold {
            self.gc_threshold = Some(threshold.saturating_mul(2));
        }
        reclaimed
    }

    /// Collects every node unreachable from `roots` (and the terminals):
    /// dead slots go on the free list for reuse by `mk`, the unique table
    /// is rebuilt from the survivors, and the operation cache plus the
    /// permute/sat-count memos are invalidated (their entries may
    /// reference swept nodes). Returns the number of nodes reclaimed.
    ///
    /// Live refs keep their indices — collections never move nodes — so
    /// a GC is semantically invisible to any computation whose inputs are
    /// all in `roots`. The same safe-point contract as [`Bdd::maybe_gc`]
    /// applies.
    pub fn gc(&mut self, roots: &[Ref]) -> usize {
        // Mark phase: walk from the roots; terminals are always live.
        let mut live = vec![false; self.nodes.len()];
        live[0] = true;
        live[1] = true;
        let mut stack: Vec<u32> = Vec::new();
        for r in roots {
            let i = r.0 as usize;
            if i < live.len() && !live[i] {
                live[i] = true;
                stack.push(r.0);
            }
        }
        while let Some(i) = stack.pop() {
            let n = self.nodes[i as usize];
            for child in [n.lo.0, n.hi.0] {
                if !live[child as usize] {
                    live[child as usize] = true;
                    stack.push(child);
                }
            }
        }
        // Sweep phase: dead slots become free-list entries. Already-dead
        // slots (from an earlier collection) stay on the free list.
        let mut reclaimed = 0usize;
        for (i, node) in self.nodes.iter_mut().enumerate().skip(2) {
            if live[i] || node.var == DEAD {
                continue;
            }
            *node = Node {
                var: DEAD,
                lo: Ref::FALSE,
                hi: Ref::FALSE,
            };
            self.free.push(i as u32);
            reclaimed += 1;
        }
        // Rebuild the unique table from the survivors (capacity is kept:
        // it is sized for the peak, and shrinking would force an
        // immediate regrow on the next burst).
        let mask = self.unique_mask;
        for bucket in &mut self.unique {
            *bucket = EMPTY;
        }
        self.unique_len = 0;
        for (i, node) in self.nodes.iter().enumerate().skip(2) {
            if node.var == DEAD {
                continue;
            }
            let mut idx = mix3(node.var, node.lo.0, node.hi.0) as usize & mask;
            while self.unique[idx] != EMPTY {
                idx = (idx + 1) & mask;
            }
            self.unique[idx] = i as u32;
            self.unique_len += 1;
        }
        // The op cache and memos may hold swept refs as keys or results:
        // invalidate them wholesale.
        for slot in &mut self.cache {
            *slot = EMPTY_SLOT;
        }
        self.cache_pressure = 0;
        self.permute_memo.clear();
        self.sat_memo.borrow_mut().clear();
        self.stats.gc_runs.set(self.stats.gc_runs.get() + 1);
        self.stats
            .gc_reclaimed
            .set(self.stats.gc_reclaimed.get() + reclaimed as u64);
        if let Some((chaos, ctx)) = &self.gc_chaos {
            // Chaos site inside the sweep: a tripped site models the
            // allocator failing during node management.
            if chaos.trips(&format!("bddgc:{ctx}"), 4) {
                self.exhausted = true;
            }
        }
        reclaimed
    }

    /// Iterates over the non-terminal nodes as `(index, var, lo, hi)`
    /// triples, in allocation order.
    ///
    /// Exposed for the `hyde-verify` BDD audit (ordering invariant and
    /// unique-table consistency); terminals (indices 0 and 1) are skipped.
    pub fn node_triples(&self) -> impl Iterator<Item = (usize, usize, Ref, Ref)> + '_ {
        self.nodes
            .iter()
            .enumerate()
            .skip(2)
            .filter(|(_, n)| n.var != DEAD)
            .map(|(i, n)| (i, n.var as usize, n.lo, n.hi))
    }

    /// Appends a node bypassing the unique table and the reduction rules.
    ///
    /// This deliberately corrupts the manager; it exists so the
    /// `hyde-verify` mutation tests can exercise the BDD audit lints
    /// (`HY301`/`HY302`). Never use it in flows.
    #[doc(hidden)]
    pub fn raw_push_node(&mut self, var: usize, lo: Ref, hi: Ref) -> Ref {
        let r = Ref(self.nodes.len() as u32);
        self.nodes.push(Node {
            var: var as u32,
            lo,
            hi,
        });
        r
    }

    /// The constant-false function.
    pub fn zero(&self) -> Ref {
        Ref::FALSE
    }

    /// The constant-true function.
    pub fn one(&self) -> Ref {
        Ref::TRUE
    }

    /// The projection function of variable `var`.
    ///
    /// # Panics
    ///
    /// Panics if `var >= num_vars`.
    pub fn var(&mut self, var: usize) -> Ref {
        assert!(var < self.num_vars, "variable out of range");
        self.mk(var as u32, Ref::FALSE, Ref::TRUE)
    }

    /// The complemented projection of variable `var`.
    ///
    /// # Panics
    ///
    /// Panics if `var >= num_vars`.
    pub fn nvar(&mut self, var: usize) -> Ref {
        assert!(var < self.num_vars, "variable out of range");
        self.mk(var as u32, Ref::TRUE, Ref::FALSE)
    }

    fn mk(&mut self, var: u32, lo: Ref, hi: Ref) -> Ref {
        if lo == hi {
            return lo;
        }
        if self.exhausted {
            // Poisoned: unwind without allocating. Every result derived
            // from here on is garbage; `guarded` turns the flag into a
            // typed error at the call boundary.
            return Ref::FALSE;
        }
        self.stats
            .unique_lookups
            .set(self.stats.unique_lookups.get() + 1);
        let mask = self.unique_mask;
        let mut idx = mix3(var, lo.0, hi.0) as usize & mask;
        let mut probes = 1u64;
        loop {
            let bucket = self.unique[idx];
            if bucket == EMPTY {
                break;
            }
            let n = self.nodes[bucket as usize];
            if n.var == var && n.lo == lo && n.hi == hi {
                self.stats
                    .unique_probes
                    .set(self.stats.unique_probes.get() + probes);
                self.stats.unique_hits.set(self.stats.unique_hits.get() + 1);
                return Ref(bucket);
            }
            idx = (idx + 1) & mask;
            probes += 1;
        }
        self.stats
            .unique_probes
            .set(self.stats.unique_probes.get() + probes);
        if let Some(cap) = self.node_cap {
            if self.live_len() >= cap {
                self.exhausted = true;
                return Ref::FALSE;
            }
        }
        let r = if let Some(slot) = self.free.pop() {
            self.nodes[slot as usize] = Node { var, lo, hi };
            Ref(slot)
        } else {
            let r = Ref(self.nodes.len() as u32);
            self.nodes.push(Node { var, lo, hi });
            r
        };
        self.unique[idx] = r.0;
        self.unique_len += 1;
        if self.unique_len * 4 >= self.unique.len() * 3 {
            self.grow_unique();
        }
        r
    }

    /// Doubles the unique table and reinserts every bucket. Node indices
    /// are stable, so only the bucket array moves.
    fn grow_unique(&mut self) {
        let new_cap = self.unique.len() * 2;
        let mask = new_cap - 1;
        let mut table = vec![EMPTY; new_cap];
        for &bucket in &self.unique {
            if bucket == EMPTY {
                continue;
            }
            let n = self.nodes[bucket as usize];
            let mut idx = mix3(n.var, n.lo.0, n.hi.0) as usize & mask;
            while table[idx] != EMPTY {
                idx = (idx + 1) & mask;
            }
            table[idx] = bucket;
        }
        self.unique = table;
        self.unique_mask = mask;
        self.stats
            .unique_growths
            .set(self.stats.unique_growths.get() + 1);
    }

    /// Computed-cache probe: returns the memoized result when the slot
    /// holds exactly this key.
    #[inline]
    fn cache_get(&self, op: Op, a: u32, b: u32, c: u32) -> Option<Ref> {
        self.stats
            .cache_lookups
            .set(self.stats.cache_lookups.get() + 1);
        let slot = &self.cache[(mix3(a, b, c ^ ((op as u32) << 28)) as usize) & self.cache_mask];
        if slot.op == op as u8 && slot.a == a && slot.b == b && slot.c == c {
            self.stats.cache_hits.set(self.stats.cache_hits.get() + 1);
            Some(slot.result)
        } else {
            None
        }
    }

    /// Computed-cache insert: overwrites the slot unconditionally
    /// (direct-mapped, lossy). Sustained eviction pressure doubles the
    /// cache so long candidate-evaluation loops keep their cross-candidate
    /// memoization instead of thrashing.
    #[inline]
    fn cache_put(&mut self, op: Op, a: u32, b: u32, c: u32, result: Ref) {
        if self.exhausted {
            // Poisoned results must not be memoized: they would survive
            // the `guarded` reset and corrupt later, in-budget work.
            return;
        }
        let idx = (mix3(a, b, c ^ ((op as u32) << 28)) as usize) & self.cache_mask;
        let slot = &mut self.cache[idx];
        if slot.op != 0 && !(slot.op == op as u8 && slot.a == a && slot.b == b && slot.c == c) {
            self.stats
                .cache_evictions
                .set(self.stats.cache_evictions.get() + 1);
            self.cache_pressure += 1;
        }
        *slot = CacheSlot {
            op: op as u8,
            a,
            b,
            c,
            result,
        };
        if self.cache_pressure * 4 > self.cache.len() as u64 && self.cache.len() < MAX_CACHE_SLOTS {
            self.grow_cache();
        }
    }

    /// Doubles the computed cache, rehashing live entries into their new
    /// slots (colliding pairs separate; same-slot survivors keep warm).
    fn grow_cache(&mut self) {
        let new_len = self.cache.len() * 2;
        let mask = new_len - 1;
        let mut table = vec![EMPTY_SLOT; new_len];
        for slot in &self.cache {
            if slot.op != 0 {
                let idx =
                    (mix3(slot.a, slot.b, slot.c ^ (u32::from(slot.op) << 28)) as usize) & mask;
                table[idx] = *slot;
            }
        }
        self.cache = table;
        self.cache_mask = mask;
        self.cache_pressure = 0;
        self.stats
            .cache_growths
            .set(self.stats.cache_growths.get() + 1);
    }

    fn node(&self, r: Ref) -> Node {
        self.nodes[r.0 as usize]
    }

    fn var_of(&self, r: Ref) -> u32 {
        self.nodes[r.0 as usize].var
    }

    /// If-then-else: `f ? g : h`. All boolean connectives reduce to this.
    pub fn ite(&mut self, f: Ref, g: Ref, h: Ref) -> Ref {
        // Terminal cases.
        if f == Ref::TRUE {
            return g;
        }
        if f == Ref::FALSE {
            return h;
        }
        if g == h {
            return g;
        }
        if g == Ref::TRUE && h == Ref::FALSE {
            return f;
        }
        if let Some(r) = self.cache_get(Op::Ite, f.0, g.0, h.0) {
            return r;
        }
        let top = [f, g, h]
            .iter()
            .map(|&x| self.var_of(x))
            .min()
            .expect("non-empty");
        let (f0, f1) = self.cofactors_at(f, top);
        let (g0, g1) = self.cofactors_at(g, top);
        let (h0, h1) = self.cofactors_at(h, top);
        let lo = self.ite(f0, g0, h0);
        let hi = self.ite(f1, g1, h1);
        let r = self.mk(top, lo, hi);
        self.cache_put(Op::Ite, f.0, g.0, h.0, r);
        r
    }

    fn cofactors_at(&self, f: Ref, var: u32) -> (Ref, Ref) {
        let n = self.node(f);
        if n.var == var {
            (n.lo, n.hi)
        } else {
            (f, f)
        }
    }

    /// Conjunction.
    pub fn and(&mut self, f: Ref, g: Ref) -> Ref {
        self.ite(f, g, Ref::FALSE)
    }

    /// Disjunction.
    pub fn or(&mut self, f: Ref, g: Ref) -> Ref {
        self.ite(f, Ref::TRUE, g)
    }

    /// Exclusive or.
    pub fn xor(&mut self, f: Ref, g: Ref) -> Ref {
        let ng = self.not(g);
        self.ite(f, ng, g)
    }

    /// Negation.
    pub fn not(&mut self, f: Ref) -> Ref {
        self.ite(f, Ref::FALSE, Ref::TRUE)
    }

    /// Cofactor of `f` with `var` fixed to `value`.
    ///
    /// # Panics
    ///
    /// Panics if `var >= num_vars`.
    pub fn cofactor(&mut self, f: Ref, var: usize, value: bool) -> Ref {
        assert!(var < self.num_vars, "variable out of range");
        self.restrict_rec(f, var as u32, value)
    }

    pub(crate) fn restrict_rec(&mut self, f: Ref, var: u32, value: bool) -> Ref {
        let n = self.node(f);
        if n.var == NO_VAR || n.var > var {
            return f;
        }
        if n.var == var {
            return if value { n.hi } else { n.lo };
        }
        if let Some(r) = self.cache_get(Op::Restrict, f.0, var, u32::from(value)) {
            return r;
        }
        let lo = self.restrict_rec(n.lo, var, value);
        let hi = self.restrict_rec(n.hi, var, value);
        let r = self.mk(n.var, lo, hi);
        self.cache_put(Op::Restrict, f.0, var, u32::from(value), r);
        r
    }

    /// Existential quantification of `var`.
    ///
    /// # Panics
    ///
    /// Panics if `var >= num_vars`.
    pub fn exists(&mut self, f: Ref, var: usize) -> Ref {
        assert!(var < self.num_vars);
        if let Some(r) = self.cache_get(Op::Exists, f.0, var as u32, 0) {
            return r;
        }
        let c0 = self.restrict_rec(f, var as u32, false);
        let c1 = self.restrict_rec(f, var as u32, true);
        let r = self.or(c0, c1);
        self.cache_put(Op::Exists, f.0, var as u32, 0, r);
        r
    }

    /// Universal quantification of `var`.
    ///
    /// # Panics
    ///
    /// Panics if `var >= num_vars`.
    pub fn forall(&mut self, f: Ref, var: usize) -> Ref {
        let c0 = self.restrict_rec(f, var as u32, false);
        let c1 = self.restrict_rec(f, var as u32, true);
        self.and(c0, c1)
    }

    /// Functional composition: substitutes `g` for variable `var` in `f`.
    ///
    /// # Panics
    ///
    /// Panics if `var >= num_vars`.
    pub fn compose(&mut self, f: Ref, var: usize, g: Ref) -> Ref {
        assert!(var < self.num_vars);
        if let Some(r) = self.cache_get(Op::Compose, f.0, var as u32, g.0) {
            return r;
        }
        let c1 = self.restrict_rec(f, var as u32, true);
        let c0 = self.restrict_rec(f, var as u32, false);
        let r = self.ite(g, c1, c0);
        self.cache_put(Op::Compose, f.0, var as u32, g.0, r);
        r
    }

    /// Variables `f` depends on, ascending.
    pub fn support(&self, f: Ref) -> Vec<usize> {
        let mut seen = vec![false; self.nodes.len()];
        let mut on = vec![false; self.num_vars];
        let mut stack = vec![f];
        while let Some(r) = stack.pop() {
            if r == Ref::TRUE || r == Ref::FALSE || std::mem::replace(&mut seen[r.index()], true) {
                continue;
            }
            let n = self.node(r);
            on[n.var as usize] = true;
            stack.push(n.lo);
            stack.push(n.hi);
        }
        (0..self.num_vars).filter(|&v| on[v]).collect()
    }

    /// Number of satisfying assignments over all `num_vars` variables.
    pub fn sat_count(&self, f: Ref) -> u128 {
        // Reuse the manager-owned memo: cleared (capacity kept), not
        // reallocated per call.
        let mut memo = self.sat_memo.borrow_mut();
        memo.clear();
        self.sat_count_rec(f, &mut memo) << self.level_gap(f)
    }

    fn level_gap(&self, f: Ref) -> u32 {
        let top = self.var_of(f);
        if top == NO_VAR {
            self.num_vars as u32
        } else {
            top
        }
    }

    fn sat_count_rec(&self, f: Ref, memo: &mut HashMap<Ref, u128>) -> u128 {
        if f == Ref::FALSE {
            return 0;
        }
        if f == Ref::TRUE {
            return 1;
        }
        if let Some(&c) = memo.get(&f) {
            return c;
        }
        let n = self.node(f);
        let lo = self.sat_count_rec(n.lo, memo);
        let hi = self.sat_count_rec(n.hi, memo);
        let lo_gap = self.level_gap(n.lo).saturating_sub(n.var + 1);
        let hi_gap = self.level_gap(n.hi).saturating_sub(n.var + 1);
        let c = (lo << lo_gap) + (hi << hi_gap);
        memo.insert(f, c);
        c
    }

    /// Evaluates `f` on the minterm whose bit `i` is variable `i`.
    pub fn eval(&self, f: Ref, minterm: u32) -> bool {
        let mut r = f;
        loop {
            match r {
                Ref::FALSE => return false,
                Ref::TRUE => return true,
                _ => {
                    let n = self.node(r);
                    r = if minterm >> n.var & 1 == 1 {
                        n.hi
                    } else {
                        n.lo
                    };
                }
            }
        }
    }

    /// Number of nodes reachable from `f` (excluding terminals) — the
    /// classical BDD size metric.
    pub fn node_count(&self, f: Ref) -> usize {
        let mut seen = vec![false; self.nodes.len()];
        let mut stack = vec![f];
        let mut count = 0;
        while let Some(r) = stack.pop() {
            if r == Ref::TRUE || r == Ref::FALSE || std::mem::replace(&mut seen[r.index()], true) {
                continue;
            }
            count += 1;
            let n = self.node(r);
            stack.push(n.lo);
            stack.push(n.hi);
        }
        count
    }

    /// Builds a BDD from a predicate over minterms (`2^num_vars` calls).
    ///
    /// # Panics
    ///
    /// Panics if `num_vars > 28` (guard against runaway enumeration).
    pub fn from_fn<F: FnMut(u32) -> bool>(&mut self, mut f: F) -> Ref {
        assert!(self.num_vars <= 28, "from_fn limited to 28 variables");
        self.build_rec(0, 0, &mut f)
    }

    fn build_rec<F: FnMut(u32) -> bool>(&mut self, var: usize, prefix: u32, f: &mut F) -> Ref {
        if var == self.num_vars {
            return if f(prefix) { Ref::TRUE } else { Ref::FALSE };
        }
        let lo = self.build_rec(var + 1, prefix, f);
        let hi = self.build_rec(var + 1, prefix | (1 << var), f);
        self.mk(var as u32, lo, hi)
    }

    /// Renames variables: variable `i` of `f` becomes `map[i]`.
    ///
    /// The map must be injective on the support of `f`.
    ///
    /// # Panics
    ///
    /// Panics if `map.len() != num_vars` or a target is out of range.
    pub fn permute(&mut self, f: Ref, map: &[usize]) -> Ref {
        assert_eq!(map.len(), self.num_vars, "map must cover every variable");
        for &t in map {
            assert!(t < self.num_vars, "map target out of range");
        }
        // Rebuild bottom-up through fresh literals. The memo is manager
        // owned scratch: taken out for the recursion (borrow discipline),
        // cleared rather than reallocated, and put back afterwards.
        let mut memo = std::mem::take(&mut self.permute_memo);
        memo.clear();
        let r = self.permute_rec(f, map, &mut memo);
        self.permute_memo = memo;
        r
    }

    fn permute_rec(&mut self, f: Ref, map: &[usize], memo: &mut HashMap<Ref, Ref>) -> Ref {
        if f == Ref::TRUE || f == Ref::FALSE {
            return f;
        }
        if let Some(&r) = memo.get(&f) {
            return r;
        }
        let n = self.node(f);
        let lo = self.permute_rec(n.lo, map, memo);
        let hi = self.permute_rec(n.hi, map, memo);
        let v = self.var(map[n.var as usize]);
        let r = self.ite(v, hi, lo);
        memo.insert(f, r);
        r
    }

    /// Enumerates the distinct subfunctions (compatible class
    /// representatives) obtained by cofactoring `f` on every assignment of
    /// `bound` — the BDD-cut view of Roth–Karp decomposition used by the
    /// λ-set selection of reference `[2]`.
    ///
    /// Returns one entry per bound-set assignment (index = assignment in
    /// little-endian order of `bound`), containing the canonical `Ref` of
    /// that cofactor. The number of *distinct* refs is the compatible class
    /// count.
    ///
    /// # Panics
    ///
    /// Panics if `bound.len() > 20` or a variable repeats/exceeds range.
    pub fn cut_subfunctions(&mut self, f: Ref, bound: &[usize]) -> Vec<Ref> {
        assert!(bound.len() <= 20, "bound set too large to enumerate");
        let mut seen = std::collections::HashSet::new();
        for &v in bound {
            assert!(v < self.num_vars, "bound variable out of range");
            assert!(seen.insert(v), "bound variable repeated");
        }
        let mut out = Vec::with_capacity(1 << bound.len());
        for a in 0u32..(1u32 << bound.len()) {
            let mut g = f;
            for (i, &v) in bound.iter().enumerate() {
                g = self.restrict_rec(g, v as u32, a >> i & 1 == 1);
            }
            out.push(g);
        }
        out
    }

    /// Convenience: the number of distinct cofactors of `f` under `bound`.
    ///
    /// # Panics
    ///
    /// Same conditions as [`Bdd::cut_subfunctions`].
    pub fn compatible_class_count(&mut self, f: Ref, bound: &[usize]) -> usize {
        let mut subs = self.cut_subfunctions(f, bound);
        subs.sort_unstable();
        subs.dedup();
        subs.len()
    }

    /// Decomposes a non-terminal node into `(var, lo, hi)` — the raw
    /// Shannon triple, used by structural copies between managers.
    ///
    /// # Panics
    ///
    /// Panics if `f` is a terminal.
    pub fn node_parts(&self, f: Ref) -> (usize, Ref, Ref) {
        assert!(
            f != Ref::TRUE && f != Ref::FALSE,
            "terminals have no Shannon triple"
        );
        let n = self.node(f);
        (n.var as usize, n.lo, n.hi)
    }

    /// Conjoins `f` with a cube given as `(var, value)` literals.
    ///
    /// # Panics
    ///
    /// Panics if a variable is out of range.
    pub fn and_cube(&mut self, f: Ref, literals: &[(usize, bool)]) -> Ref {
        let mut acc = f;
        for &(v, val) in literals {
            let lit = if val { self.var(v) } else { self.nvar(v) };
            acc = self.and(acc, lit);
        }
        acc
    }

    /// Restricts `f` by a cube: every listed variable is fixed to its value.
    ///
    /// # Panics
    ///
    /// Panics if a variable is out of range.
    pub fn restrict_cube(&mut self, f: Ref, literals: &[(usize, bool)]) -> Ref {
        let mut acc = f;
        for &(v, val) in literals {
            assert!(v < self.num_vars, "variable out of range");
            acc = self.restrict_rec(acc, v as u32, val);
        }
        acc
    }

    /// Enumerates the minterms of `f` (ascending). Intended for small
    /// functions; the result has `sat_count` entries.
    ///
    /// # Panics
    ///
    /// Panics if `num_vars > 24` (guard against huge enumerations).
    pub fn minterms(&self, f: Ref) -> Vec<u32> {
        assert!(
            self.num_vars <= 24,
            "minterm enumeration limited to 24 vars"
        );
        (0..(1u32 << self.num_vars))
            .filter(|&m| self.eval(f, m))
            .collect()
    }

    /// Emits a Graphviz `dot` description of the BDD rooted at `f`
    /// (terminals as boxes, else-edges dashed) — handy when debugging
    /// decomposition cuts.
    pub fn to_dot(&self, f: Ref, name: &str) -> String {
        let mut s = String::new();
        // sa:allow(SA012): fmt::Write into a String is infallible
        let _ = self.to_dot_into(&mut s, f, name);
        s
    }

    fn to_dot_into(&self, s: &mut String, f: Ref, name: &str) -> std::fmt::Result {
        use std::fmt::Write as _;
        writeln!(s, "digraph \"{name}\" {{")?;
        writeln!(s, "  T [shape=box,label=\"1\"]; F [shape=box,label=\"0\"];")?;
        let mut seen = std::collections::HashSet::new();
        let mut stack = vec![f];
        while let Some(r) = stack.pop() {
            if r == Ref::TRUE || r == Ref::FALSE || !seen.insert(r) {
                continue;
            }
            let n = self.node(r);
            writeln!(s, "  n{} [label=\"x{}\"];", r.0, n.var)?;
            let fmt_ref = |x: Ref| match x {
                Ref::TRUE => "T".to_string(),
                Ref::FALSE => "F".to_string(),
                other => format!("n{}", other.0),
            };
            writeln!(s, "  n{} -> {} [style=dashed];", r.0, fmt_ref(n.lo))?;
            writeln!(s, "  n{} -> {};", r.0, fmt_ref(n.hi))?;
            stack.push(n.lo);
            stack.push(n.hi);
        }
        s.push_str("}\n");
        Ok(())
    }
}

impl Drop for Bdd {
    /// Flushes the manager's traffic counters into the hyde-obs registry
    /// when tracing is active, so an `ObsReport` aggregates BDD work
    /// across every manager the run constructed (including the
    /// per-worker managers inside parallel fan-outs).
    fn drop(&mut self) {
        if !hyde_obs::enabled() {
            return;
        }
        let s = self.stats();
        hyde_obs::counter("bdd.managers", 1);
        hyde_obs::counter("bdd.nodes", s.nodes as u64);
        hyde_obs::counter("bdd.unique_lookups", s.unique_lookups);
        hyde_obs::counter("bdd.unique_probes", s.unique_probes);
        hyde_obs::counter("bdd.unique_hits", s.unique_hits);
        hyde_obs::counter("bdd.cache_lookups", s.cache_lookups);
        hyde_obs::counter("bdd.cache_hits", s.cache_hits);
        hyde_obs::counter("bdd.cache_evictions", s.cache_evictions);
        hyde_obs::counter("bdd.unique_growths", s.unique_growths);
        hyde_obs::counter("bdd.cache_growths", s.cache_growths);
        hyde_obs::counter("bdd.gc.runs", s.gc_runs);
        hyde_obs::counter("bdd.gc.reclaimed", s.gc_reclaimed);
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn terminals() {
        let bdd = Bdd::new(3);
        assert_eq!(bdd.zero(), Ref::FALSE);
        assert_eq!(bdd.one(), Ref::TRUE);
        assert_eq!(bdd.sat_count(Ref::TRUE), 8);
        assert_eq!(bdd.sat_count(Ref::FALSE), 0);
    }

    #[test]
    fn reset_stats_zeroes_counters_without_touching_nodes() {
        let mut bdd = Bdd::new(4);
        let a = bdd.var(0);
        let b = bdd.var(1);
        let _f = bdd.and(a, b);
        let before = bdd.stats();
        assert!(before.unique_lookups > 0);
        assert!(before.cache_lookups > 0);
        bdd.reset_stats();
        let after = bdd.stats();
        assert_eq!(after.unique_lookups, 0);
        assert_eq!(after.unique_probes, 0);
        assert_eq!(after.unique_hits, 0);
        assert_eq!(after.cache_lookups, 0);
        assert_eq!(after.cache_hits, 0);
        assert_eq!(after.cache_evictions, 0);
        assert_eq!(after.unique_growths, 0);
        assert_eq!(after.cache_growths, 0);
        // Node store untouched: nodes is a size, not a counter.
        assert_eq!(after.nodes, before.nodes);
        // Counters accumulate again after the reset (per-phase deltas).
        let c = bdd.var(2);
        let _g = bdd.or(a, c);
        assert!(bdd.stats().unique_lookups > 0);
    }

    #[test]
    fn growth_events_are_counted() {
        // Small initial tables so building a chain of conjunctions forces
        // at least one unique-table doubling.
        let mut bdd = Bdd::with_tables(12, 1 << 4, 1 << 10);
        let mut f = bdd.one();
        for v in 0..12 {
            let x = bdd.var(v);
            f = bdd.and(f, x);
        }
        let s = bdd.stats();
        assert!(s.unique_growths > 0, "expected unique-table growth: {s:?}");
        assert_eq!(bdd.unique_capacity() > 1 << 4, s.unique_growths > 0);
        bdd.reset_stats();
        assert_eq!(bdd.stats().unique_growths, 0);
    }

    /// Reference function used by the GC tests: a mildly irregular
    /// 8-variable function with plenty of intermediate garbage.
    fn gc_workload(bdd: &mut Bdd) -> Ref {
        let mut acc = bdd.zero();
        for i in 0..8u32 {
            let f = bdd.from_fn(|m| (m.wrapping_mul(2654435761) >> i) & 1 == 1);
            acc = bdd.xor(acc, f);
            let g = bdd.exists(acc, (i as usize) % 8);
            acc = bdd.or(acc, g);
        }
        acc
    }

    #[test]
    fn gc_reclaims_dead_nodes_and_preserves_semantics() {
        let mut bdd = Bdd::new(8);
        let root = gc_workload(&mut bdd);
        let truth: Vec<bool> = (0..256).map(|m| bdd.eval(root, m)).collect();
        let allocated = bdd.len();
        let live = bdd.node_count(root) + 2;
        assert!(allocated > live, "workload left no garbage to collect");
        let reclaimed = bdd.gc(&[root]);
        assert_eq!(reclaimed, allocated - live);
        assert_eq!(bdd.live_len(), live);
        assert_eq!(bdd.stats().gc_runs, 1);
        assert_eq!(bdd.stats().gc_reclaimed, reclaimed as u64);
        // The root still denotes the same function...
        for (m, &want) in truth.iter().enumerate() {
            assert_eq!(bdd.eval(root, m as u32), want, "minterm {m}");
        }
        // ...and the manager is fully usable: new work reuses dead slots
        // without growing the node vector past its previous peak.
        let a = bdd.var(3);
        let again = bdd.and(root, a);
        assert!(bdd.len() <= allocated);
        assert_eq!(bdd.eval(again, 0b0000_1000), truth[0b0000_1000]);
        assert!(!bdd.eval(again, 0));
    }

    #[test]
    fn gc_forced_every_op_matches_never() {
        // Byte-identical results with GC forced at every safe point vs.
        // never collecting: collections must be semantically invisible.
        let mut never = Bdd::new(8);
        let clean = gc_workload(&mut never);
        let expect: Vec<bool> = (0..256).map(|m| never.eval(clean, m)).collect();

        let mut forced = Bdd::new(8);
        forced.set_gc_threshold(Some(0));
        let mut acc = forced.zero();
        for i in 0..8u32 {
            let f = forced.from_fn(|m| (m.wrapping_mul(2654435761) >> i) & 1 == 1);
            acc = forced.xor(acc, f);
            forced.maybe_gc(&[acc]);
            let g = forced.exists(acc, (i as usize) % 8);
            forced.maybe_gc(&[acc, g]);
            acc = forced.or(acc, g);
            forced.maybe_gc(&[acc]);
        }
        assert!(forced.stats().gc_runs >= 8, "forced mode never collected");
        let got: Vec<bool> = (0..256).map(|m| forced.eval(acc, m)).collect();
        assert_eq!(got, expect);
        // Structural sanity after heavy collection: the audit iterator
        // sees only live, well-formed nodes.
        for (_, var, lo, hi) in forced.node_triples() {
            assert!(var < 8, "dead or corrupt node leaked: var {var}");
            assert_ne!(lo, hi);
        }
    }

    #[test]
    fn maybe_gc_honors_threshold_and_backs_off() {
        let mut bdd = Bdd::new(8);
        bdd.set_gc_threshold(Some(1 << 20));
        let root = gc_workload(&mut bdd);
        // Far below the threshold: no collection.
        assert_eq!(bdd.maybe_gc(&[root]), 0);
        assert_eq!(bdd.stats().gc_runs, 0);
        // Tight threshold: collects, then doubles because most nodes
        // survive relative to the tiny trigger.
        bdd.set_gc_threshold(Some(2));
        let reclaimed = bdd.maybe_gc(&[root]);
        assert!(reclaimed > 0);
        assert_eq!(bdd.gc_threshold(), Some(4));
    }

    #[test]
    fn node_cap_measures_live_nodes_after_gc() {
        let mut bdd = Bdd::new(8);
        let root = gc_workload(&mut bdd);
        let live = bdd.node_count(root) + 2;
        // A cap below the allocated peak but above the live count: dead
        // slots must not count against it once collected.
        bdd.set_node_cap(Some(live + 8));
        assert!(bdd.len() > live + 8, "peak should exceed the cap");
        bdd.gc(&[root]);
        let a = bdd.var(5);
        let r = bdd.guarded(|b| {
            let x = b.and(root, a);
            b.or(x, a)
        });
        assert!(r.is_ok(), "post-GC allocation under the cap failed: {r:?}");
    }

    #[test]
    fn gc_chaos_site_poisons_deterministically() {
        // Find a seed whose sweep site trips, then check the poison is
        // surfaced as a typed budget error by `guarded`.
        let ctx = "testckt";
        let seed = (0..u64::MAX)
            .find(|&s| hyde_guard::Chaos::new(s).trips(&format!("bddgc:{ctx}"), 4))
            .unwrap();
        let mut bdd = Bdd::new(8);
        bdd.set_gc_chaos(hyde_guard::Chaos::new(seed), ctx);
        let err = bdd
            .guarded(|b| {
                let root = gc_workload(b);
                b.gc(&[root]);
                root
            })
            .unwrap_err();
        assert_eq!(err.resource, hyde_guard::Resource::BddNodes);
        // A seed that does not trip leaves the collection clean.
        let calm = (0..u64::MAX)
            .find(|&s| !hyde_guard::Chaos::new(s).trips(&format!("bddgc:{ctx}"), 4))
            .unwrap();
        let mut bdd = Bdd::new(8);
        bdd.set_gc_chaos(hyde_guard::Chaos::new(calm), ctx);
        let ok = bdd.guarded(|b| {
            let root = gc_workload(b);
            b.gc(&[root]);
        });
        assert!(ok.is_ok());
    }

    #[test]
    fn canonical_hash_consing() {
        let mut bdd = Bdd::new(2);
        let a1 = bdd.var(0);
        let a2 = bdd.var(0);
        assert_eq!(a1, a2);
        let b = bdd.var(1);
        let ab1 = bdd.and(a1, b);
        let ab2 = bdd.and(b, a1);
        assert_eq!(ab1, ab2);
    }

    #[test]
    fn connectives_match_semantics() {
        let mut bdd = Bdd::new(3);
        let a = bdd.var(0);
        let b = bdd.var(1);
        let c = bdd.var(2);
        let ab = bdd.and(a, b);
        let f = bdd.or(ab, c);
        let x = bdd.xor(a, b);
        for m in 0u32..8 {
            let (av, bv, cv) = (m & 1 == 1, m >> 1 & 1 == 1, m >> 2 & 1 == 1);
            assert_eq!(bdd.eval(f, m), (av && bv) || cv);
            assert_eq!(bdd.eval(x, m), av != bv);
        }
    }

    #[test]
    fn not_is_involution() {
        let mut bdd = Bdd::new(4);
        let a = bdd.var(0);
        let b = bdd.var(3);
        let f = bdd.xor(a, b);
        let nf = bdd.not(f);
        let nnf = bdd.not(nf);
        assert_eq!(f, nnf);
        assert_ne!(f, nf);
    }

    #[test]
    fn cofactor_and_quantification() {
        let mut bdd = Bdd::new(3);
        let a = bdd.var(0);
        let b = bdd.var(1);
        let f = bdd.and(a, b);
        let c1 = bdd.cofactor(f, 0, true);
        assert_eq!(c1, b);
        let c0 = bdd.cofactor(f, 0, false);
        assert_eq!(c0, Ref::FALSE);
        let e = bdd.exists(f, 0);
        assert_eq!(e, b);
        let u = bdd.forall(f, 0);
        assert_eq!(u, Ref::FALSE);
    }

    #[test]
    fn compose_substitutes() {
        let mut bdd = Bdd::new(3);
        let a = bdd.var(0);
        let b = bdd.var(1);
        let c = bdd.var(2);
        let f = bdd.and(a, b);
        let g = bdd.compose(f, 0, c);
        let expect = bdd.and(c, b);
        assert_eq!(g, expect);
    }

    #[test]
    fn support_tracks_dependencies() {
        let mut bdd = Bdd::new(5);
        let a = bdd.var(1);
        let b = bdd.var(4);
        let f = bdd.or(a, b);
        assert_eq!(bdd.support(f), vec![1, 4]);
        assert!(bdd.support(Ref::TRUE).is_empty());
    }

    #[test]
    fn sat_count_with_gaps() {
        let mut bdd = Bdd::new(4);
        // f = x1 (vars 0,2,3 free): 8 satisfying assignments.
        let f = bdd.var(1);
        assert_eq!(bdd.sat_count(f), 8);
        let g = bdd.var(3);
        let fg = bdd.and(f, g);
        assert_eq!(bdd.sat_count(fg), 4);
    }

    #[test]
    fn from_fn_matches_predicate() {
        let mut bdd = Bdd::new(4);
        let f = bdd.from_fn(|m| m.count_ones() % 2 == 1);
        for m in 0u32..16 {
            assert_eq!(bdd.eval(f, m), m.count_ones() % 2 == 1);
        }
        // Parity over n vars has n internal nodes per level... just check
        // canonicity of the well-known size: 2 nodes per level except top.
        assert_eq!(bdd.node_count(f), 7);
    }

    #[test]
    fn permute_renames_variables() {
        let mut bdd = Bdd::new(3);
        let a = bdd.var(0);
        let b = bdd.var(1);
        let f = bdd.and(a, b);
        let g = bdd.permute(f, &[2, 1, 0]);
        let b2 = bdd.var(1);
        let c = bdd.var(2);
        let expect = bdd.and(c, b2);
        assert_eq!(g, expect);
    }

    #[test]
    fn cut_subfunctions_counts_classes() {
        let mut bdd = Bdd::new(4);
        // f = (x0 & x1) | (x2 & x3): bound {0,1} gives 2 classes
        // (cofactors: x2&x3, TRUE).
        let a = bdd.var(0);
        let b = bdd.var(1);
        let c = bdd.var(2);
        let d = bdd.var(3);
        let ab = bdd.and(a, b);
        let cd = bdd.and(c, d);
        let f = bdd.or(ab, cd);
        assert_eq!(bdd.compatible_class_count(f, &[0, 1]), 2);
        // Bound {0,2}: cofactors x1|x3... let's just check bounds.
        let n = bdd.compatible_class_count(f, &[0, 2]);
        assert!((2..=4).contains(&n));
    }

    #[test]
    fn cut_subfunctions_full_assignment_order() {
        let mut bdd = Bdd::new(2);
        let a = bdd.var(0);
        let b = bdd.var(1);
        let f = bdd.xor(a, b);
        let subs = bdd.cut_subfunctions(f, &[0, 1]);
        assert_eq!(subs.len(), 4);
        assert_eq!(subs[0], Ref::FALSE); // a=0,b=0
        assert_eq!(subs[1], Ref::TRUE); // a=1,b=0
        assert_eq!(subs[2], Ref::TRUE);
        assert_eq!(subs[3], Ref::FALSE);
    }

    #[test]
    fn parity_has_single_class_pairs() {
        let mut bdd = Bdd::new(6);
        let f = bdd.from_fn(|m| m.count_ones() % 2 == 1);
        // Any bound set of a parity function yields exactly 2 classes.
        assert_eq!(bdd.compatible_class_count(f, &[0, 1, 2]), 2);
        assert_eq!(bdd.compatible_class_count(f, &[1, 3, 5]), 2);
    }

    #[test]
    fn random_equivalence_with_semantics() {
        use rand::{Rng, SeedableRng};
        let mut rng = rand::rngs::StdRng::seed_from_u64(1234);
        for _ in 0..20 {
            let mut bdd = Bdd::new(6);
            let bits: Vec<bool> = (0..64).map(|_| rng.gen()).collect();
            let f = bdd.from_fn(|m| bits[m as usize]);
            for (m, &b) in bits.iter().enumerate() {
                assert_eq!(bdd.eval(f, m as u32), b);
            }
            assert_eq!(
                bdd.sat_count(f),
                bits.iter().filter(|&&b| b).count() as u128
            );
        }
    }

    #[test]
    #[should_panic(expected = "variable out of range")]
    fn var_out_of_range_panics() {
        let mut bdd = Bdd::new(2);
        let _ = bdd.var(2);
    }

    #[test]
    fn cube_operations() {
        let mut bdd = Bdd::new(4);
        let f = bdd.from_fn(|m| m.count_ones() >= 2);
        let g = bdd.and_cube(f, &[(0, true), (1, false)]);
        for m in 0u32..16 {
            let inside = m & 1 == 1 && m >> 1 & 1 == 0;
            assert_eq!(bdd.eval(g, m), inside && m.count_ones() >= 2);
        }
        let h = bdd.restrict_cube(f, &[(0, true), (1, true)]);
        // With two ones already fixed, h is the tautology.
        assert_eq!(h, Ref::TRUE);
    }

    #[test]
    fn minterm_enumeration() {
        let mut bdd = Bdd::new(3);
        let a = bdd.var(0);
        let c = bdd.var(2);
        let f = bdd.and(a, c);
        assert_eq!(bdd.minterms(f), vec![0b101, 0b111]);
    }

    #[test]
    fn dot_export_mentions_every_node() {
        let mut bdd = Bdd::new(3);
        let f = bdd.from_fn(|m| m.count_ones() % 2 == 1);
        let dot = bdd.to_dot(f, "parity3");
        assert!(dot.starts_with("digraph"));
        assert_eq!(dot.matches("label=\"x").count(), bdd.node_count(f));
        assert!(dot.contains("style=dashed"));
    }

    #[test]
    fn unique_table_grows_and_stays_canonical() {
        // Build well past the default bucket count; hash consing must keep
        // returning the same refs across growths. A pseudo-random function
        // has ~2^n/n nodes, far beyond the default table.
        let pred = |m: u32| {
            let mut h = m.wrapping_mul(0x9E37_79B9);
            h ^= h >> 15;
            h = h.wrapping_mul(0x85EB_CA6B);
            h ^= h >> 13;
            h & 1 != 0
        };
        let mut bdd = Bdd::new(16);
        let f = bdd.from_fn(pred);
        assert!(bdd.len() > DEFAULT_UNIQUE_BUCKETS / 2);
        assert!(bdd.unique_capacity() > DEFAULT_UNIQUE_BUCKETS);
        // Load stays under 3/4 after growth.
        assert!((bdd.len() - 2) * 4 < bdd.unique_capacity() * 3);
        let g = bdd.from_fn(pred);
        assert_eq!(f, g, "rebuild after growth must hash-cons to the same ref");
        let stats = bdd.stats();
        assert!(stats.unique_hits > 0);
        assert!(stats.unique_probes >= stats.unique_lookups);
    }

    #[test]
    fn with_capacity_presizes_tables() {
        let bdd = Bdd::with_capacity(10, 50_000);
        assert!(bdd.unique_capacity() >= 50_000 * 4 / 3);
        assert!(bdd.unique_capacity().is_power_of_two());
        assert!(bdd.cache_capacity().is_power_of_two());
        assert!(bdd.cache_capacity() >= DEFAULT_CACHE_SLOTS);
        // Small hints never go below the defaults.
        let small = Bdd::with_capacity(4, 1);
        assert_eq!(small.unique_capacity(), DEFAULT_UNIQUE_BUCKETS);
    }

    #[test]
    fn with_capacity_avoids_rehash_during_warmup() {
        let mut bdd = Bdd::with_capacity(12, 1 << 13);
        let before = bdd.unique_capacity();
        let _ = bdd.from_fn(|m| m.wrapping_mul(2654435761) & 0x10 != 0);
        assert_eq!(
            bdd.unique_capacity(),
            before,
            "pre-sized table must not rehash during warm-up"
        );
    }

    #[test]
    fn stats_count_cache_traffic() {
        let mut bdd = Bdd::new(8);
        let f = bdd.from_fn(|m| m.count_ones() >= 4);
        let g = bdd.from_fn(|m| m % 3 == 0);
        let _ = bdd.and(f, g);
        let s1 = bdd.stats();
        assert!(s1.cache_lookups > 0);
        assert_eq!(s1.nodes, bdd.len());
        // Repeating the same op must hit the computed cache at the root.
        let _ = bdd.and(f, g);
        let s2 = bdd.stats();
        assert!(s2.cache_hits > s1.cache_hits);
        assert!(s2.cache_hit_rate() > 0.0);
        assert!(s2.mean_probe_length() >= 1.0);
    }

    #[test]
    fn cache_eviction_is_lossy_but_correct() {
        // A tiny cache forces evictions; results must stay canonical.
        let mut bdd = Bdd::with_tables(10, 1 << 10, 1 << 4);
        let f = bdd.from_fn(|m| (m ^ (m >> 3)).count_ones() % 2 == 1);
        let g = bdd.from_fn(|m| m.count_ones() >= 5);
        let fg1 = bdd.and(f, g);
        let or1 = bdd.or(f, g);
        let x1 = bdd.xor(f, g);
        let fg2 = bdd.and(f, g);
        assert_eq!(fg1, fg2);
        for m in (0u32..1024).step_by(7) {
            assert_eq!(bdd.eval(fg1, m), bdd.eval(f, m) && bdd.eval(g, m));
            assert_eq!(bdd.eval(or1, m), bdd.eval(f, m) || bdd.eval(g, m));
            assert_eq!(bdd.eval(x1, m), bdd.eval(f, m) != bdd.eval(g, m));
        }
        assert!(bdd.stats().cache_evictions > 0, "tiny cache must evict");
    }

    #[test]
    fn node_cap_poisons_instead_of_growing() {
        let mut bdd = Bdd::new(12);
        bdd.set_node_cap(Some(16));
        // Full 12-bit parity needs ~2 nodes per level, well over 16.
        let err = bdd
            .guarded(|b| b.from_fn(|m| m.count_ones() % 2 == 1))
            .unwrap_err();
        assert_eq!(err.resource, hyde_guard::Resource::BddNodes);
        assert_eq!(err.limit, 16);
        assert!(bdd.len() <= 16, "cap must bound the node store");
        // The guard clears the poison; once the cap is raised, new
        // allocations succeed again (the store is append-only, so the
        // failed attempt's nodes still count against the cap).
        bdd.set_node_cap(Some(64));
        let v = bdd.guarded(|b| b.var(0)).expect("tiny build fits");
        assert_ne!(v, Ref::FALSE);
    }

    #[test]
    fn guarded_passes_in_budget_work_through() {
        let mut capped = Bdd::new(8);
        capped.set_node_cap(Some(1 << 12));
        let f = capped
            .guarded(|b| b.from_fn(|m| m.count_ones() % 2 == 1))
            .expect("parity fits in 4096 nodes");
        let mut free = Bdd::new(8);
        let g = free.from_fn(|m| m.count_ones() % 2 == 1);
        for m in 0u32..256 {
            assert_eq!(capped.eval(f, m), free.eval(g, m));
        }
    }

    #[test]
    fn injected_exhaustion_reports_as_out_of_budget() {
        let mut bdd = Bdd::new(6);
        bdd.inject_exhaustion();
        assert!(bdd.is_exhausted());
        // mk refuses while poisoned.
        assert_eq!(bdd.var(3), Ref::FALSE);
        let err = bdd.guarded(|b| b.inject_exhaustion()).unwrap_err();
        assert_eq!(err.resource, hyde_guard::Resource::BddNodes);
        assert!(!bdd.is_exhausted(), "guarded clears the poison");
    }

    #[test]
    fn scratch_memos_are_reused() {
        let mut bdd = Bdd::new(6);
        let f = bdd.from_fn(|m| m.count_ones() % 2 == 1);
        let map: Vec<usize> = (0..6).rev().collect();
        let p1 = bdd.permute(f, &map);
        let p2 = bdd.permute(f, &map);
        assert_eq!(p1, p2);
        // Parity is symmetric: a permutation is the same function.
        assert_eq!(p1, f);
        let c1 = bdd.sat_count(f);
        let c2 = bdd.sat_count(f);
        assert_eq!(c1, c2);
        assert_eq!(c1, 32);
    }
}
