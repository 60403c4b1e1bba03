//! The bounding engine (§4): from a [`PcSet`] and an aggregate query to a
//! deterministic result range.
//!
//! Pipeline: decompose the constraints into satisfiable cells inside the
//! query region (Optimization 1 pushdown included), derive per-cell value
//! bounds (`Uᵢ`/`Lᵢ` — the most restrictive of the active constraints'
//! value ranges, the cell box, and the query), then allocate rows to cells
//! with the MILP of §4.2 — or the greedy per-variable optimum when the set
//! is disjoint (the "Faster Algorithm in Special Cases").
//!
//! Every answer that builds cells runs through one body,
//! `BoundEngine::bound_slices`. A query hands it *slices* — the cells each
//! connected component of the constraint-interaction graph keeps inside
//! the region ([`crate::shard`]) — and one closure verdict. No frequency
//! row spans two components, so `COUNT` and `SUM` add the slices' own
//! bounds; `MIN`, `MAX` and `AVG` bound the one slice's own problem, or
//! one joint problem over every slice's cells. A one-shot bound
//! decomposes its slices; a [`crate::Session`] specializes one slice per
//! shard of its epoch. With [`BoundOptions::shard`] off, the whole
//! catalog is one slice, decomposed in full: the reference path.
//!
//! With [`BoundOptions::shard`] on, a one-shot bound first keeps only the
//! constraints whose predicate meets `query ∩ domain` (the ones the query
//! *reaches*). A constraint it does not reach has no cell in the region,
//! so the whole pipeline — closure probe, interaction components,
//! decomposition, frequency rows, allocation — runs on the reached
//! sub-catalog, and its cost follows what the query touches, not the
//! catalog size. So does the box-volume order behind
//! [`BoundOptions::ordering`], computed over the reached constraints
//! alone: a sub-catalog keeps the catalog's domain, so its members keep
//! their volumes and their relative order. Reached constraints that form
//! one component are one slice of that sub-catalog, with no further
//! copy. An unreached constraint can still change one verdict: a
//! frequency floor whose allowed region misses the domain has nowhere to
//! put its rows, so the call fails [`BoundError::Infeasible`] exactly as
//! the full-catalog path does. On the reached sub-catalog the closure
//! probe runs first: when it finds the region open and no reached
//! constraint keeps a frequency floor in it, the closure rule below fixes
//! the range, and the call returns before interaction components or any
//! cell are built.
//!
//! Soundness details the paper leaves implicit, made explicit here:
//!
//! * **Frequency lower bounds under pushdown.** Restricting attention to
//!   cells inside the query keeps every `≤ ku` constraint valid, but a
//!   `≥ kl` constraint may be satisfied by rows *outside* the query; `kl`
//!   is therefore only enforced when the constraint's entire allowed
//!   region lies inside the query region, and relaxed to 0 otherwise.
//! * **Closure.** If some point of the query region is covered by no
//!   predicate, missing rows may exist there in unbounded number with
//!   unbounded values, and the affected side(s) of the range become
//!   infinite. [`BoundReport::closed`] records this. When no constraint
//!   forces rows into such an open region either (no frequency floor
//!   kept under the previous bullet's rule), the probe alone fixes the
//!   range — `[0, ∞)` for `COUNT`, `(−∞, ∞)` for `SUM`, `AVG`, `MIN` and
//!   `MAX` — and a one-shot bound answers it with no cell, SAT check or
//!   solve.
//! * **Value-infeasible cells.** A cell whose combined value ranges are
//!   empty can hold no rows; its allocation is pinned to zero (a
//!   tightening the MILP exploits, and the source of `Infeasible` errors
//!   when a frequency lower bound has nowhere to go).

use crate::decompose::{decompose_ordered_budgeted, Parallelism, NAIVE_LIMIT};
use crate::estimate;
use crate::shard::ShardedCellSet;
use crate::{ActiveSet, BoundError, Cell, DecomposeStats, PcSet, PredicateConstraint, Strategy};
use pc_budget::{QueryBudget, WorkGate};
use pc_predicate::Region;
use pc_solver::{
    greedy, solve_lp_tableau, solve_milp_budgeted, CanonicalTableau, ConstraintOp, LinearProgram,
    MilpOptions, MilpProblem, SearchStats, Sense, WarmStart, Warmth,
};
use pc_storage::{AggKind, AggQuery};
use std::cell::Cell as StdCell;
use std::collections::HashMap;
use std::panic::{catch_unwind, AssertUnwindSafe};
use std::sync::{Arc, Mutex, MutexGuard};

/// Engine configuration.
#[derive(Debug, Clone, Copy)]
pub struct BoundOptions {
    /// Cell decomposition strategy (default: DFS + rewrite).
    pub strategy: Strategy,
    /// MILP search knobs. Its [`MilpOptions::warmth`] sets the warm-start
    /// tier of every LP chain the engine runs, not only of branch & bound:
    /// the probes of one AVG binary search, the root relaxations of
    /// consecutive allocation MILPs, and the queries one worker serves in
    /// a [`crate::Session`] (whose per-worker caches carry tableaux across
    /// queries and epochs). [`Warmth::Cold`] turns every chain off;
    /// structure mismatches demote a carried tableau to its basis
    /// automatically. Never affects results, only work — see
    /// [`BoundReport::solver`] for the counters.
    pub milp: MilpOptions,
    /// Whether to run the closure check; when disabled the report assumes
    /// closure (callers that constructed provably-closed sets skip the
    /// extra SAT call).
    pub check_closure: bool,
    /// Above this many allocation variables, solve the *LP relaxation*
    /// instead of the exact MILP. Integrality constraints only tighten the
    /// optimum, so the relaxation is still a hard bound — just possibly a
    /// slightly wider one. This is the practical lever for heavily
    /// overlapping sets (Rand-PC) where decomposition yields many cells.
    pub lp_relax_cell_limit: usize,
    /// Worker threads for decomposition fan-out, parallel GROUP-BY
    /// groups, and the parallel witness search inside wide SAT checks.
    /// `0` = auto-detect the machine's parallelism, `1` = strictly
    /// sequential (also forcing the allocation MILP sequential — see
    /// [`MilpOptions::threads`] for the solver-level knob, which inherits
    /// this value unless set explicitly). Decomposed cell signatures,
    /// regions, and order are bit-identical across thread counts and
    /// bounds agree up to the branch & bound pruning tolerance (~1e-6 — a
    /// parallel search may prune a node that would have improved the
    /// incumbent by less than that, exactly as a sequential search may in
    /// a different order). Cell *witnesses* may be different equally
    /// genuine points when the first-hit-wins parallel witness search
    /// engages, and `parallel_subtrees` in [`DecomposeStats`] may differ.
    pub threads: usize,
    /// Fork the decomposition at every eligible split from the root
    /// instead of once it has run [`WorkGate::GRAIN`] inline (see
    /// [`Parallelism::eager`]; off by default). Never changes results:
    /// the oracle for "forked == inline" tests.
    pub eager_fork: bool,
    /// Factor the cell set over the constraint-interaction graph of the
    /// constraints the query region reaches (on by default): a one-shot
    /// bound drops every constraint whose predicate misses
    /// `query ∩ domain` (each is a component with no cells in the region;
    /// see the module docs), and the connected components of the reached
    /// constraints' pairwise attribute-box overlap graph decompose
    /// independently, one slice each, as parallel shards whose bounds
    /// recombine exactly (see [`crate::shard`]). Reached sets that are
    /// one component, and disjoint-hinted sets (their own fast path), are
    /// one slice of the reached constraints: the same work as the
    /// reference path on that sub-catalog. So
    /// [`Strategy::Naive`]'s [`crate::decompose::NAIVE_LIMIT`] and
    /// [`Strategy::EarlyStop`]'s depth count reached constraints. Under
    /// the exact strategies the sharded and reference answers are
    /// identical (property-tested); under [`Strategy::EarlyStop`] both
    /// are sound but may admit different unverified cells. Disable to
    /// A/B against the reference path — one slice of the whole catalog,
    /// with no reach scoping and no factoring — which is also the
    /// property-test oracle. An open region that no reached constraint
    /// forces rows into is answered from the closure probe before any of
    /// this (module docs): such a cell-free answer reports zero cells and
    /// zero shards.
    pub shard: bool,
    /// Box-volume search ordering (on by default; see
    /// [`crate::estimate`]): the decomposition decides include/exclude
    /// splits smallest-normalized-box-volume first, ties by index (so
    /// unsatisfiable branches die early and budget-tripped frontiers
    /// cover the least-determined constraints), and the allocation MILP
    /// branches on volume-weighted fractionality instead of raw
    /// most-fractional. The order is a pure function of the set searched,
    /// so repeated bounds do identical work. Semantics-free: the produced
    /// cell *set*, every verdict, and every bound are identical with the
    /// knob off (property-tested) — only the visit order, the
    /// SAT-check/node counts, and witness identity change. Off is the
    /// declaration-order oracle, and pins the historical cell order
    /// exactly.
    pub ordering: bool,
}

impl Default for BoundOptions {
    fn default() -> Self {
        BoundOptions {
            strategy: Strategy::DfsRewrite,
            milp: MilpOptions::default(),
            check_closure: true,
            lp_relax_cell_limit: 150,
            threads: 0,
            eager_fork: false,
            shard: true,
            ordering: true,
        }
    }
}

/// A deterministic result range: the aggregate is guaranteed in
/// `[lo, hi]` for every missing-data instance satisfying the constraints.
#[derive(Debug, Clone, Copy, PartialEq)]
pub struct ResultRange {
    /// Lower end (may be `-∞`).
    pub lo: f64,
    /// Upper end (may be `+∞`).
    pub hi: f64,
}

impl ResultRange {
    /// True if both ends are finite.
    pub fn is_bounded(&self) -> bool {
        self.lo.is_finite() && self.hi.is_finite()
    }

    /// True if `v` falls inside the range (bound "success").
    pub fn contains(&self, v: f64) -> bool {
        self.lo - 1e-9 <= v && v <= self.hi + 1e-9
    }

    /// Shift both ends by a constant — combining a missing-data range with
    /// the certain partition's exact answer for `SUM`/`COUNT`.
    pub fn offset(&self, by: f64) -> ResultRange {
        ResultRange {
            lo: self.lo + by,
            hi: self.hi + by,
        }
    }
}

/// Aggregated LP/MILP work counters of one bounding call — the serving
/// layer's view of the warm-start tiers (see [`pc_solver::SolveStats`]
/// and [`pc_solver::SearchStats`] for the per-solve species). "Carried"
/// solves reused a canonical tableau (branch & bound children answered
/// in O(1) pivots, or a chained LP re-priced under a new objective);
/// "rebuilt" solves standardized and built a tableau from scratch.
#[derive(Debug, Clone, Copy, Default, PartialEq, Eq)]
pub struct LpWork {
    /// Total simplex pivots across every LP solve of the call.
    pub pivots: u64,
    /// Solves answered from a carried canonical tableau.
    pub carried: u64,
    /// Solves that rebuilt a tableau from scratch.
    pub rebuilt: u64,
    /// Branch & bound nodes explored by the call's allocation MILPs.
    pub nodes: u64,
    /// Incumbent installs made by a first-explored ("near") branch child
    /// across the call's searches — how often the best-first child order
    /// paid off (see [`SearchStats::incumbent_first_hits`]).
    pub incumbent_first: u64,
}

impl LpWork {
    /// Fold another call's counters into these, field by field.
    fn absorb(&mut self, other: LpWork) {
        self.pivots += other.pivots;
        self.carried += other.carried;
        self.rebuilt += other.rebuilt;
        self.nodes += other.nodes;
        self.incumbent_first += other.incumbent_first;
    }

    fn absorb_search(&mut self, nodes: usize, s: SearchStats) {
        self.pivots += s.pivots();
        self.carried += s.carried_nodes;
        self.rebuilt += s.rebuilt_nodes;
        self.nodes += nodes as u64;
        self.incumbent_first += s.incumbent_first_hits;
    }

    fn absorb_lp(&mut self, s: pc_solver::SolveStats) {
        self.pivots += s.pivots;
        if s.rebuilt {
            self.rebuilt += 1;
        } else {
            self.carried += 1;
        }
    }
}

/// The output of a bounding call.
#[derive(Debug, Clone)]
pub struct BoundReport {
    /// The result range.
    pub range: ResultRange,
    /// Whether the constraint set covered the entire query region. `false`
    /// means one or both ends were forced to ±∞.
    pub closed: bool,
    /// Decomposition work counters, summed over the answer's slices. An
    /// answer of several slices reports their shard topology
    /// ([`DecomposeStats::shards`]); a one-shot answer of one slice
    /// reports none, and a [`crate::Session`] answer reports its epoch's.
    /// All zero on a cell-free answer (an open region the closure probe
    /// answered alone; module docs) and on a session answer taken from
    /// its epoch's answer memo, which does no work
    /// ([`crate::Session::memo_stats`]).
    pub stats: DecomposeStats,
    /// LP/MILP work counters (pivots, carried vs rebuilt tableaux, branch
    /// & bound nodes) — the measured side of the warm-start tiers. All
    /// zero on a session answer taken from its epoch's answer memo.
    pub solver: LpWork,
    /// `true` when the query's [`QueryBudget`] tripped somewhere along the
    /// pipeline and the engine degraded instead of erroring: the
    /// decomposition stopped at frontier cells, a closure check was
    /// skipped (assumed open), or a branch & bound search fell back to its
    /// LP relaxation. The range is still a **sound** container of the
    /// exact answer — only possibly looser than an unbudgeted run's.
    /// Always `false` for unlimited-budget calls.
    pub degraded: bool,
    /// Per-slice SAT-check counts when the answer had two or more slices
    /// ([`BoundOptions::shard`], [`crate::shard`]), in shard order — the
    /// skew profile of the factored decomposition. A one-shot bound
    /// counts the shards of the constraints its region reaches; a
    /// [`crate::Session`] counts every shard of its epoch. Empty on an
    /// answer of one slice and on cell-free answers.
    pub shard_sat_checks: Vec<u64>,
    /// Why the budget tripped, when [`BoundReport::degraded`] is set and
    /// the cause is known: the budget's sticky first-trip record, or
    /// [`pc_budget::TripReason::Deadline`] for queries the admission
    /// layer degraded or shed pre-emptively. `None` on exact answers.
    pub trip: Option<pc_budget::TripReason>,
    /// Per-query scheduling observability (queue wait, admission verdict,
    /// backlog at admission) — stamped by the session's serve path;
    /// `None` on direct engine calls.
    pub sched: Option<pc_budget::pressure::SchedReport>,
}

/// Simplex state kept across the LP solves of a chain, keyed by
/// tableau-shape-determining facts (probe kind and dimensions) so a
/// prior is only offered to a structurally compatible successor.
/// Lookups additionally probe *neighboring* row counts through
/// [`take_cached`]: a serving epoch's add/retire moves one constraint's
/// rows while keeping the variables, and the solver's delta-adaptation
/// tier (`pc_solver::solve_lp_tableau`) absorbs exactly that — while
/// shapes farther apart than the adaptation ceiling keep their own
/// slots, so interleaved query shapes never evict each other's chains.
type WarmKey = (Sense, bool, usize, usize);

/// Take the warm entry for `key`: the exact slot first, else the closest
/// slot with the same probe kind and variable count whose row count is
/// within the solver's [`pc_solver::ADAPT_MAX_DELTA`] **and whose carried
/// tableau verifies as reusable for `lp`** (exact re-price or in-ceiling
/// row delta — the cross-epoch churn case). The reuse check is what keeps
/// neighbor probing from *evicting*: stealing a tableau the solver would
/// only demote-and-discard would destroy another query shape's chain for
/// nothing, so incompatible neighbors (and basis entries, whose shape
/// cannot fit a different row count anyway) stay put.
/// Lock a warm-start cache, recovering from mutex poisoning. A panicked
/// solve task can die between a cache `take` and the re-insert; whatever
/// it left behind is suspect (a torn or half-repriced tableau would be
/// *demoted* by the solver's reuse checks, but there is no reason to keep
/// gambling on it), so recovery clears the slot map — the next solves
/// rebuild their chains cold. Correctness is unaffected either way; this
/// only removes the poisoned-mutex panic from every later query.
pub(crate) fn lock_warm(cache: &WarmCache) -> MutexGuard<'_, HashMap<WarmKey, CachedWarm>> {
    cache.lock().unwrap_or_else(|poisoned| {
        let mut map = poisoned.into_inner();
        map.clear();
        map
    })
}

fn take_cached(cache: &WarmCache, key: WarmKey, lp: &LinearProgram) -> Option<CachedWarm> {
    let mut map = lock_warm(cache);
    if let Some(hit) = map.remove(&key) {
        return Some(hit);
    }
    let (sense, extra, nvars, rows) = key;
    let neighbor = map
        .iter()
        .filter(|(&(s, e, v, r), entry)| {
            s == sense
                && e == extra
                && v == nvars
                && r.abs_diff(rows) <= pc_solver::ADAPT_MAX_DELTA
                && matches!(entry, CachedWarm::Tableau(t) if t.can_reuse(lp))
        })
        .map(|(&k, _)| k)
        .min_by_key(|&(_, _, _, r)| r.abs_diff(rows));
    neighbor.and_then(|k| map.remove(&k))
}

/// What a chain slot holds between solves: the whole canonical tableau
/// at [`Warmth::Carry`], or just the basis at [`Warmth::Basis`]. A
/// carried tableau whose structure no longer matches the next program
/// demotes itself to its basis inside the solver.
pub(crate) enum CachedWarm {
    Basis(WarmStart),
    Tableau(Box<CanonicalTableau>),
}

/// Shared warm-start store for one chain of related bounding calls (a
/// standalone `bound()`, or the queries one worker serves in a
/// [`crate::Session`]).
/// `Arc<Mutex>`: chains are *effectively* single-threaded — the drivers
/// hand each worker its own store — but tasks are stealable, so the
/// store must tolerate whichever thread ends up running them. The mutex
/// is uncontended in that design; a stale or racing basis can cost a
/// cold fallback, never correctness. Entries are *taken* (moved) for the
/// duration of a solve and re-inserted after — carrying a tableau must
/// not clone it.
pub(crate) type WarmCache = Arc<Mutex<HashMap<WarmKey, CachedWarm>>>;

/// One warm-start cache per pool worker (plus one for the calling
/// thread): tasks solved on the same worker chain their simplex bases
/// from one LP to the next without cross-thread contention. A
/// [`crate::Session`] keeps one long-lived set of chains across all of
/// its queries.
pub(crate) struct WarmCaches {
    slots: Option<Vec<WarmCache>>,
}

impl WarmCaches {
    pub(crate) fn new(enabled: bool) -> Self {
        let slots = enabled.then(|| {
            (0..=rayon::current_num_threads())
                .map(|_| Arc::new(Mutex::new(HashMap::new())))
                .collect()
        });
        WarmCaches { slots }
    }

    /// The cache owned by the executing worker (last slot for calls from
    /// outside the pool), or `None` when warm starting is disabled.
    pub(crate) fn for_current_worker(&self) -> Option<WarmCache> {
        let slots = self.slots.as_ref()?;
        let i = rayon::current_thread_index().unwrap_or(slots.len() - 1);
        Some(Arc::clone(&slots[i]))
    }
}

/// Run `f` over every item, returning results in input order — the
/// fan-out driver shared by the GROUP-BY keys and
/// [`crate::Session::bound_many`]. Items run inline, in order, until the
/// call has worked [`WorkGate::GRAIN`]; the rest then become stealable
/// pool tasks, one per item. A batch of small items so never pays a pool
/// hand-off, and past the grain there are no chunk barriers: a slow item
/// delays only itself, and idle workers steal whatever remains.
///
/// **Panic isolation**: each task runs inside `catch_unwind`, so one
/// poisoned item cannot take down its siblings or unwind through the
/// pool. A panicked item's slot comes back as `None`; everything the
/// dead task had *taken* from a warm cache is simply dropped (never
/// re-inserted), so no torn solver state survives it.
pub(crate) fn pooled_map_catch<T, R, F>(items: &[T], threads: usize, f: &F) -> Vec<Option<R>>
where
    T: Sync,
    R: Send,
    F: Fn(&T) -> R + Sync,
{
    let run = |item: &T| catch_unwind(AssertUnwindSafe(|| f(item))).ok();
    let gate = if threads <= 1 {
        WorkGate::INLINE
    } else {
        WorkGate::start(false)
    };
    let mut out: Vec<Option<R>> = Vec::with_capacity(items.len());
    // The last item never forks: nothing would run beside it.
    while out.len() + 1 < items.len() && !gate.is_open() {
        out.push(run(&items[out.len()]));
    }
    let rest = &items[out.len()..];
    if rest.len() <= 1 {
        out.extend(rest.iter().map(run));
        return out;
    }
    let slots: Vec<Mutex<Option<R>>> = rest.iter().map(|_| Mutex::new(None)).collect();
    rayon::scope(|s| {
        for (slot, item) in slots.iter().zip(rest) {
            s.spawn(move |_| {
                // Catch *before* touching the slot: the slot mutex is
                // only ever locked around this store, so it cannot be
                // poisoned by a task panic.
                let result = run(item);
                *slot.lock().unwrap() = result;
            });
        }
    });
    out.extend(slots.into_iter().map(|slot| slot.into_inner().unwrap()));
    out
}

/// The cell allocation problem shared by every aggregate.
pub(crate) struct CellProblem {
    cells: Vec<Cell>,
    /// Per-cell max/min achievable value of the aggregated attribute.
    u: Vec<f64>,
    l: Vec<f64>,
    /// Per-cell allocation cap (min `ku` of active constraints; 0 if the
    /// cell is value-infeasible).
    cap: Vec<f64>,
    /// Per constraint: `(kl_eff, ku, member cell indices)`.
    pc_rows: Vec<(f64, f64, Vec<usize>)>,
    /// Per-cell branch weights for the allocation MILP's volume-guided
    /// branching ([`BoundOptions::ordering`]), `2 − Π volume` over the
    /// cell's active constraints, in `[1, 2]`: a *selective* cell (small
    /// product of its active constraints' normalized box volumes) weighs
    /// ~2 and gets its fractional variable decided first — its allocation
    /// is the most constrained, so fixing it prunes fastest. `None` when
    /// ordering is off (the classic most-fractional rule).
    branch_weights: Option<Vec<f64>>,
    closed: bool,
    stats: DecomposeStats,
    /// The warm-start chain this problem's LP solves draw on; `None`
    /// when warm starting is off.
    warm: Option<WarmCache>,
    /// LP/MILP work counters accumulated while solving this problem
    /// (interior-mutable: the per-aggregate bounds take `&CellProblem`).
    work: StdCell<LpWork>,
    /// The query's cooperative budget: charged per branch & bound node,
    /// consulted between AVG binary-search probes.
    budget: QueryBudget,
    /// Whether any stage degraded under the budget (frontier cells in the
    /// decomposition, a skipped closure check, or a budget-aborted MILP
    /// falling back to its LP relaxation). Interior-mutable for the same
    /// reason as `work`.
    degraded: StdCell<bool>,
}

/// One slice of a bounding call (see [`BoundEngine::bound_slices`]): the
/// cells the query keeps of one interaction component, and the work newly
/// charged producing them.
pub(crate) struct ShardSlice<'s> {
    /// The component's constraints as their own set (local indices) with
    /// each one's index in the engine's set, or `None` when the slice is
    /// the engine's whole set and its cells carry the engine's indices.
    pub(crate) part: Option<(&'s PcSet, &'s [usize])>,
    pub(crate) cells: Vec<Cell>,
    pub(crate) stats: DecomposeStats,
    /// The session shard behind the slice, exactly when the query region
    /// contains every member box, making its domain-wide summaries exact.
    pub(crate) cache: Option<&'s crate::shard::Shard>,
}

impl ShardSlice<'_> {
    /// The slice of the engine's whole set holding `cells`.
    fn whole(cells: Vec<Cell>, stats: DecomposeStats) -> Self {
        ShardSlice {
            part: None,
            cells,
            stats,
            cache: None,
        }
    }
}

impl CellProblem {
    fn record_search(&self, nodes: usize, s: SearchStats) {
        let mut w = self.work.get();
        w.absorb_search(nodes, s);
        self.work.set(w);
    }

    fn record_lp(&self, s: pc_solver::SolveStats) {
        let mut w = self.work.get();
        w.absorb_lp(s);
        self.work.set(w);
    }
}

/// Computes result ranges for aggregate queries against one [`PcSet`].
pub struct BoundEngine<'a> {
    pub(crate) set: &'a PcSet,
    pub(crate) options: BoundOptions,
}

impl<'a> BoundEngine<'a> {
    /// Engine with default options.
    pub fn new(set: &'a PcSet) -> Self {
        Self::with_options(set, BoundOptions::default())
    }

    /// Engine with explicit options.
    pub fn with_options(set: &'a PcSet, options: BoundOptions) -> Self {
        BoundEngine { set, options }
    }

    /// The engine's configuration.
    pub fn options(&self) -> &BoundOptions {
        &self.options
    }

    /// Compute the result range of `query` over the missing partition.
    pub fn bound(&self, query: &AggQuery) -> Result<BoundReport, BoundError> {
        self.bound_budgeted(query, &QueryBudget::unlimited())
    }

    /// [`BoundEngine::bound`] under a [`QueryBudget`]: a deadline, SAT or
    /// node cap, or explicit cancel interrupts the pipeline at its next
    /// cooperative check (per decomposition split, per branch & bound
    /// node, per AVG probe) and the call **degrades instead of erroring**
    /// — the report's range still contains the exact answer, with
    /// [`BoundReport::degraded`] set. See the [`crate::budget`] module
    /// docs for the exact check sites and soundness argument.
    pub fn bound_budgeted(
        &self,
        query: &AggQuery,
        budget: &QueryBudget,
    ) -> Result<BoundReport, BoundError> {
        // One bounding call can solve many structurally identical LPs (the
        // AVG binary search runs ~80 feasibility probes); give it its own
        // warm-start chain.
        let warm = (self.options.milp.warmth != Warmth::Cold)
            .then(|| Arc::new(Mutex::new(HashMap::new())));
        // Tag the call's pool tasks (decomposition forks, B&B fan-out)
        // with the budget's deadline so they ride the EDF lane; stamp the
        // trip reason on degraded reports.
        let mut result = rayon::with_task_deadline(budget.deadline(), || {
            self.bound_with_warm(query, warm, budget)
        });
        if let Ok(report) = &mut result {
            if report.degraded && report.trip.is_none() {
                report.trip = budget.trip_reason();
            }
        }
        result
    }

    /// [`BoundEngine::bound_budgeted`] with an externally owned warm-start
    /// chain — how a [`crate::Session`] threads one cache through many
    /// queries instead of each call starting cold. With
    /// [`BoundOptions::shard`] on, the pipeline runs on the constraints
    /// the query region reaches (module docs).
    pub(crate) fn bound_with_warm(
        &self,
        query: &AggQuery,
        warm: Option<WarmCache>,
        budget: &QueryBudget,
    ) -> Result<BoundReport, BoundError> {
        // Optimization 1: push the query predicate into decomposition.
        let mut base = query.predicate.to_region(self.set.schema());
        base.intersect(self.set.domain());
        if !self.options.shard {
            return self.bound_factored(query, &base, warm, budget);
        }
        let reached = self.reached(&base)?;
        if reached.len() == self.set.len() {
            return self.bound_factored(query, &base, warm, budget);
        }
        let sub = crate::shard::sub_set(self.set, &reached);
        BoundEngine::with_options(&sub, self.options).bound_factored(query, &base, warm, budget)
    }

    /// The constraints whose predicate meets `base` (ascending), decided
    /// by [`crate::specialize::overlaps_region`], which allocates nothing.
    /// Fails [`BoundError::Infeasible`] when a constraint it drops carries
    /// a frequency floor the reference path's rows would keep: the dropped
    /// constraint has no cell in `base`, so the rows it forces have
    /// nowhere to go.
    fn reached(&self, base: &Region) -> Result<Vec<usize>, BoundError> {
        let mut reached = Vec::with_capacity(self.set.len());
        for (j, pc) in self.set.constraints().iter().enumerate() {
            if crate::specialize::overlaps_region(pc, base) {
                reached.push(j);
            } else if self.floor_kept(pc, base) {
                return Err(BoundError::Infeasible);
            }
        }
        Ok(reached)
    }

    /// Bound over this engine's whole set. With [`BoundOptions::shard`]
    /// on, an open region no floor forces rows into is answered from the
    /// closure probe alone ([`BoundEngine::cell_free_answer`]), and a set
    /// whose interaction graph has two or more components decomposes one
    /// slice per component. Otherwise — one component, a disjoint-hinted
    /// set, or `shard: false` — the set is one slice of its own cells.
    fn bound_factored(
        &self,
        query: &AggQuery,
        base: &Region,
        warm: Option<WarmCache>,
        budget: &QueryBudget,
    ) -> Result<BoundReport, BoundError> {
        let closed = self.closure(base, None, budget);
        let mut components = Vec::new();
        if self.options.shard {
            if let Some(report) = self.cell_free_answer(query.agg, base, closed, budget) {
                return Ok(report);
            }
            if !self.set.disjoint_hint() && self.set.len() >= 2 {
                components = crate::shard::interaction_components(self.set);
            }
        }
        let no_stats = DecomposeStats::default();
        if components.len() < 2 {
            let (cells, stats) = self.cells_for_base_budgeted(base, budget)?;
            let slices = vec![ShardSlice::whole(cells, stats)];
            return self.bound_slices(query, base, closed, slices, no_stats, warm, budget);
        }
        let mut parts =
            crate::shard::decompose_components(self.set, &self.options, base, &components, budget)?;
        let slices = parts
            .iter_mut()
            .map(|c| ShardSlice {
                part: Some((&c.sub, &c.members)),
                cells: std::mem::take(&mut c.cells),
                stats: c.stats,
                cache: None,
            })
            .collect();
        self.bound_slices(query, base, closed, slices, no_stats, warm, budget)
    }

    /// The closure verdict over `base`. Closure is a global question — one
    /// verdict for the whole set, never per slice. `check_closure: false`
    /// assumes closure. A session passes its epoch's cells, whose hoisted
    /// verdict answers first: a sub-region of a closed base is closed,
    /// and the base's cached counterexample inside `base` proves it open,
    /// with no SAT call. Otherwise one probe decides; a tripped budget
    /// skips it and assumes *open* — the sound direction (affected range
    /// ends widen to ±∞) — and its sticky trip marks the answer degraded.
    pub(crate) fn closure(
        &self,
        base: &Region,
        epoch: Option<&ShardedCellSet>,
        budget: &QueryBudget,
    ) -> bool {
        if !self.options.check_closure {
            return true;
        }
        if let Some(cells) = epoch {
            if cells.closed() {
                return true;
            }
            if cells.uncovered().is_some_and(|w| base.contains_row(w)) {
                return false;
            }
        }
        budget.proceed() && self.set.is_closed_within_with(base, self.par_witness())
    }

    /// The closure rule (module docs) with no cell built: when `base` is
    /// open and no constraint keeps a frequency floor in it, missing rows
    /// may number anywhere from none to unboundedly many with unbounded
    /// values, so COUNT is `[0, ∞)` and every other aggregate `(−∞, ∞)`.
    /// `None` when the region is closed, when a kept floor forces rows
    /// (they raise COUNT's lower end, and with nowhere to go fail
    /// [`BoundError::Infeasible`]), or when [`Strategy::Naive`] past
    /// [`NAIVE_LIMIT`] still owes its `TooManyConstraints` verdict. A
    /// probe skipped under a tripped budget counts as open, and the
    /// answer is then marked degraded.
    fn cell_free_answer(
        &self,
        agg: AggKind,
        base: &Region,
        closed: bool,
        budget: &QueryBudget,
    ) -> Option<BoundReport> {
        let naive_overflow =
            self.options.strategy == Strategy::Naive && self.set.len() > NAIVE_LIMIT;
        if closed
            || naive_overflow
            || self
                .set
                .constraints()
                .iter()
                .any(|pc| self.floor_kept(pc, base))
        {
            return None;
        }
        let lo = if agg == AggKind::Count {
            0.0
        } else {
            f64::NEG_INFINITY
        };
        Some(BoundReport {
            range: ResultRange {
                lo,
                hi: f64::INFINITY,
            },
            closed: false,
            stats: DecomposeStats::default(),
            solver: LpWork::default(),
            degraded: budget.is_tripped(),
            shard_sat_checks: Vec::new(),
            trip: None,
            sched: None,
        })
    }

    /// The one bounding body: bound `query` over `slices` — the cells
    /// each interaction component keeps inside `base` — under the global
    /// closure verdict `closed`. No frequency row spans two components,
    /// so the allocation MILP is block-diagonal: `COUNT` and `SUM` add
    /// the slices' own bounds. `MIN`, `MAX` and `AVG` bound the one
    /// slice's own problem, or, over several slices, one joint problem
    /// over their cells in this engine's indices — by the factoring
    /// theorem exactly the flat cell set (the AVG probe's `Σxᵢ ≥ 1` row
    /// couples every slice). An empty slice list (an empty catalog) is
    /// one empty slice of the engine's set. `base_stats` carries the
    /// container's counters when the cells came from a session's epoch.
    /// Several slices report their shard topology and per-slice SAT
    /// checks; one slice keeps `base_stats`' topology.
    #[allow(clippy::too_many_arguments)]
    pub(crate) fn bound_slices(
        &self,
        query: &AggQuery,
        base: &Region,
        closed: bool,
        mut slices: Vec<ShardSlice<'_>>,
        base_stats: DecomposeStats,
        warm: Option<WarmCache>,
        budget: &QueryBudget,
    ) -> Result<BoundReport, BoundError> {
        if slices.is_empty() {
            slices.push(ShardSlice::whole(Vec::new(), DecomposeStats::default()));
        }
        let mut stats = base_stats;
        for slice in &slices {
            stats.absorb(&slice.stats);
        }
        stats.cells = slices.iter().map(|s| s.cells.len()).sum();
        let mut shard_sat_checks = Vec::new();
        if slices.len() > 1 {
            stats.shards = slices.len();
            stats.max_shard_constraints = slices
                .iter()
                .filter_map(|s| s.part.map(|(sub, _)| sub.len()))
                .max()
                .unwrap_or(0);
            shard_sat_checks = slices.iter().map(|s| s.stats.sat_checks).collect();
        }
        let attr = query.attr;
        // A slice's problem, built by an engine over the slice's own
        // constraints, or by this engine for a slice of its whole set.
        let problem = |slice: ShardSlice<'_>, stats, warm| {
            let sub_engine;
            let engine = match slice.part {
                None => self,
                Some((sub, _)) => {
                    sub_engine = BoundEngine::with_options(sub, self.options);
                    &sub_engine
                }
            };
            engine.problem_from_cells_budgeted(attr, base, slice.cells, stats, closed, warm, budget)
        };
        let mut report = match query.agg {
            AggKind::Count | AggKind::Sum => {
                // Each slice's problem is built under the global closure
                // verdict, so an unplaceable floor still fails
                // `Infeasible`. A slice whose shard the region contains
                // serves the shard's query-independent domain-wide
                // interval, or stores it after a clean, closed, untripped
                // answer.
                let tag = u8::from(query.agg == AggKind::Sum);
                let mut range = ResultRange { lo: 0.0, hi: 0.0 };
                let mut solver = LpWork::default();
                let mut degraded = stats.frontier_cells > 0 || budget.is_tripped();
                for slice in slices {
                    let shard = slice.cache;
                    let (lo, hi) = match shard.and_then(|s| s.cached_summary(tag, attr)) {
                        Some(summary) => summary,
                        None => {
                            let slice_stats = slice.stats;
                            let p = problem(slice, slice_stats, warm.clone())?;
                            let r = self.bound_problem(query.agg, &p)?;
                            if let Some(shard) = shard {
                                if closed && !r.degraded && !budget.is_tripped() {
                                    shard.store_summary(tag, attr, r.range.lo, r.range.hi);
                                }
                            }
                            degraded |= r.degraded;
                            solver.absorb(r.solver);
                            (r.range.lo, r.range.hi)
                        }
                    };
                    range.lo += lo;
                    range.hi += hi;
                }
                if !closed {
                    // A summary holds a closed region's ends; an open one
                    // forces them infinite, as each slice's own bound does.
                    range.hi = f64::INFINITY;
                    if query.agg == AggKind::Sum {
                        range.lo = f64::NEG_INFINITY;
                    }
                }
                BoundReport {
                    range,
                    closed,
                    stats,
                    solver,
                    degraded,
                    shard_sat_checks: Vec::new(),
                    trip: None,
                    sched: None,
                }
            }
            AggKind::Min | AggKind::Max | AggKind::Avg if slices.len() == 1 => {
                let p = problem(slices.pop().expect("one slice"), stats, warm)?;
                self.bound_problem(query.agg, &p)?
            }
            AggKind::Min | AggKind::Max | AggKind::Avg => {
                let mut cells = Vec::with_capacity(stats.cells);
                for slice in slices {
                    let index = |i: usize| slice.part.map_or(i, |(_, members)| members[i]);
                    cells.extend(slice.cells.into_iter().map(|cell| Cell {
                        region: cell.region,
                        active: cell.active.iter().map(index).collect(),
                        witness: cell.witness,
                        undecided: cell.undecided.iter().map(index).collect(),
                    }));
                }
                let p = self
                    .problem_from_cells_budgeted(attr, base, cells, stats, closed, warm, budget)?;
                self.bound_problem(query.agg, &p)?
            }
        };
        report.shard_sat_checks = shard_sat_checks;
        Ok(report)
    }

    /// Whether wide satisfiability checks (closure, specialization
    /// re-checks) may use the parallel witness search: any engine not
    /// pinned strictly sequential. The search itself stays inline below
    /// [`pc_predicate::sat::PAR_WITNESS_CUTOFF`] live exclusions and on a
    /// one-worker pool.
    pub(crate) fn par_witness(&self) -> bool {
        self.options.threads != 1
    }

    /// Threads to spread a batch of independent tasks (GROUP-BY keys,
    /// session queries) over.
    pub(crate) fn task_threads(&self, n_items: usize) -> usize {
        self.decompose_policy()
            .resolved_threads()
            .min(n_items)
            .max(1)
    }

    /// Dispatch a constructed problem to the per-aggregate bound.
    pub(crate) fn bound_problem(
        &self,
        agg: AggKind,
        problem: &CellProblem,
    ) -> Result<BoundReport, BoundError> {
        match agg {
            AggKind::Count => self.bound_count(problem),
            AggKind::Sum => self.bound_sum(problem),
            AggKind::Avg => self.bound_avg(problem),
            AggKind::Min => self.bound_min(problem),
            AggKind::Max => self.bound_max(problem),
        }
    }

    // ------------------------------------------------------------------
    // Problem construction
    // ------------------------------------------------------------------

    /// The decomposition fan-out policy under the engine's options.
    fn decompose_policy(&self) -> Parallelism {
        Parallelism {
            threads: self.options.threads,
            eager: self.options.eager_fork,
        }
    }

    /// Satisfiable cells inside `base`: the disjoint fast path or a
    /// (possibly parallel) decomposition of this engine's whole set — one
    /// slice, or one component's shard. A budget trip leaves the
    /// unexplored subtrees as frontier cells
    /// ([`DecomposeStats::frontier_cells`]). The disjoint fast path does
    /// no search and never trips.
    pub(crate) fn cells_for_base_budgeted(
        &self,
        base: &Region,
        budget: &QueryBudget,
    ) -> Result<(Vec<Cell>, DecomposeStats), BoundError> {
        if self.set.disjoint_hint() {
            return Ok(self.disjoint_cells(base));
        }
        let order =
            (self.options.ordering && self.set.len() > 1).then(|| estimate::volume_order(self.set));
        decompose_ordered_budgeted(
            self.set,
            base,
            self.options.strategy,
            self.decompose_policy(),
            budget,
            order.as_deref(),
        )
        .map_err(BoundError::from)
    }

    /// Assemble the allocation problem from an explicit cell list (either
    /// freshly decomposed or specialized from a session's cached
    /// decomposition). `base` is the effective query region the cells live
    /// in — it decides which frequency lower bounds survive pushdown.
    /// Frontier cells (budget-tripped decompositions) get conservative
    /// treatment — see the inline comments for the soundness argument of
    /// each rule.
    #[allow(clippy::too_many_arguments)]
    pub(crate) fn problem_from_cells_budgeted(
        &self,
        attr: usize,
        base: &Region,
        cells: Vec<Cell>,
        stats: DecomposeStats,
        closed: bool,
        warm: Option<WarmCache>,
        budget: &QueryBudget,
    ) -> Result<CellProblem, BoundError> {
        let volumes =
            (self.options.ordering && !cells.is_empty()).then(|| estimate::volumes(self.set));
        let mut u = Vec::with_capacity(cells.len());
        let mut l = Vec::with_capacity(cells.len());
        let mut cap = Vec::with_capacity(cells.len());
        let mut weights = volumes.as_ref().map(|_| Vec::with_capacity(cells.len()));
        for cell in &cells {
            if let (Some(w), Some(volumes)) = (&mut weights, &volumes) {
                // Selectivity of the cell = product of its active
                // constraints' volumes (each in [0, 1]); mapped to a
                // bounded weight so fractionality still matters.
                let vol: f64 = cell.active.iter().map(|j| volumes[j]).product();
                w.push(2.0 - vol);
            }
            // Only *active* constraints narrow a cell's value interval and
            // cap — an undecided (frontier) constraint may be violated by
            // the cell's rows, so using its value ranges or `ku` as a
            // per-row restriction would be unsound. Skipping them only
            // loosens u/l/cap.
            let mut hi = cell.region.interval(attr).sup();
            let mut lo = cell.region.interval(attr).inf();
            let mut k = f64::INFINITY;
            let mut feasible = true;
            for j in cell.active.iter() {
                let pc = &self.set.constraints()[j];
                k = k.min(pc.frequency.hi as f64);
                for (va, iv) in pc.values.ranges() {
                    let narrowed = cell.region.interval(*va).intersect(iv);
                    if narrowed.is_empty(cell.region.attr_type(*va)) {
                        feasible = false;
                    }
                    if *va == attr {
                        hi = hi.min(iv.sup());
                        lo = lo.max(iv.inf());
                    }
                }
            }
            if cell.active.is_empty() && cell.is_frontier() {
                // Active-empty frontier cell: every row of it satisfies at
                // least one undecided constraint (rows covered by *no*
                // predicate belong to the closure question, not a cell),
                // and constraint `j` admits at most `ku_j` rows anywhere —
                // so Σ ku over the geometrically reachable undecided
                // constraints caps the cell. Unreachable ones contribute
                // nothing (cap 0 when none overlap: the cell is empty).
                k = cell
                    .undecided
                    .iter()
                    .filter(|&j| {
                        crate::specialize::overlaps_region(&self.set.constraints()[j], &cell.region)
                    })
                    .map(|j| self.set.constraints()[j].frequency.hi as f64)
                    .sum();
            }
            if hi < lo {
                feasible = false;
            }
            u.push(hi);
            l.push(lo);
            cap.push(if feasible { k } else { 0.0 });
        }

        // Per-constraint frequency rows with pushdown-safe lower bounds.
        let mut pc_rows = Vec::with_capacity(self.set.len());
        for (j, pc) in self.set.constraints().iter().enumerate() {
            // Frontier membership is conservative: a cell belongs to row
            // `j` only when `j` is *active* in it. Rows hiding in a
            // frontier cell that would satisfy `j` are then missing from
            // the `≤ ku` row — which only relaxes it (sound) — but they
            // could also be the rows meant to satisfy a `≥ kl`, so any
            // constraint undecided somewhere must have its lower bound
            // relaxed to 0 or the LP could overstate the minimum.
            let undecided_somewhere = cells.iter().any(|c| c.undecided.contains(j));
            let members: Vec<usize> = cells
                .iter()
                .enumerate()
                .filter_map(|(i, c)| c.is_active(j).then_some(i))
                .collect();
            let floor = !undecided_somewhere && self.floor_kept(pc, base);
            let kl_eff = if floor { pc.frequency.lo as f64 } else { 0.0 };
            if kl_eff > 0.0 {
                let capacity: f64 = members.iter().map(|&i| cap[i]).sum();
                if capacity < kl_eff {
                    return Err(BoundError::Infeasible);
                }
            }
            pc_rows.push((kl_eff, pc.frequency.hi as f64, members));
        }

        Ok(CellProblem {
            degraded: StdCell::new(stats.frontier_cells > 0 || budget.is_tripped()),
            cells,
            u,
            l,
            cap,
            pc_rows,
            branch_weights: weights,
            closed,
            stats,
            warm,
            work: StdCell::new(LpWork::default()),
            budget: budget.clone(),
        })
    }

    /// Whether `pc` has a frequency floor that survives pushdown into
    /// `base`: its whole allowed region within the domain lies inside the
    /// base, so every row the floor forces must land in a cell of the base.
    fn floor_kept(&self, pc: &PredicateConstraint, base: &Region) -> bool {
        if pc.frequency.lo == 0 {
            return false;
        }
        let mut allowed = pc.allowed_region(self.set.schema());
        allowed.intersect(self.set.domain());
        base.contains_region(&allowed)
    }

    /// Fast path for disjoint sets: every constraint overlapping the base
    /// region is its own cell; no SAT calls at all.
    fn disjoint_cells(&self, base: &Region) -> (Vec<Cell>, DecomposeStats) {
        let schema = self.set.schema();
        let mut cells = Vec::new();
        for (j, pc) in self.set.constraints().iter().enumerate() {
            let mut region = pc.predicate.to_region(schema);
            region.intersect(base);
            if region.is_empty() {
                continue;
            }
            let witness = region.pick_witness();
            cells.push(Cell {
                region: Arc::new(region),
                active: [j].into_iter().collect(),
                witness,
                undecided: ActiveSet::new(),
            });
        }
        let stats = DecomposeStats {
            cells: cells.len(),
            ..DecomposeStats::default()
        };
        (cells, stats)
    }

    // ------------------------------------------------------------------
    // Shared allocation solver
    // ------------------------------------------------------------------

    /// Optimize `Σ coefᵢ·xᵢ` over feasible allocations. `extra_min_total`
    /// adds `Σ xᵢ ≥ 1` (used by AVG feasibility probes).
    ///
    /// Value-infeasible (cap = 0) cells are excluded from the program
    /// entirely; the remaining variables need no explicit upper bounds —
    /// each appears with coefficient 1 in its active constraints' `≤ ku`
    /// rows, which bound it. That keeps the tableau at
    /// `O(constraints) × O(cells)` instead of quadratic in cells.
    fn allocate(
        &self,
        p: &CellProblem,
        coef: &[f64],
        sense: Sense,
        extra_min_total: bool,
    ) -> Result<f64, BoundError> {
        // A minimizing simplex reports `−max(−c·x)`, so an empty optimum
        // comes back as `−0.0`. Every endpoint an allocation decides
        // passes here: fold the sign once, so a zero end is `0` on every
        // path, as the cell-free answer's is.
        let objective = self.solve_allocation(p, coef, sense, extra_min_total)?;
        Ok(if objective == 0.0 { 0.0 } else { objective })
    }

    /// [`BoundEngine::allocate`]'s solve, with the solver's signed zero.
    fn solve_allocation(
        &self,
        p: &CellProblem,
        coef: &[f64],
        sense: Sense,
        extra_min_total: bool,
    ) -> Result<f64, BoundError> {
        // Greedy special case: every cell has exactly one active
        // constraint and every constraint at most one member cell — the
        // problem is separable per variable. The AVG probe's extra
        // `Σ xᵢ ≥ 1` coupling row stays greedy too: if the separable
        // optimum allocates nothing, force one row into the best cell.
        let diagonal = p
            .cells
            .iter()
            .all(|c| c.active.len() == 1 && c.undecided.is_empty())
            && p.pc_rows.iter().all(|(_, _, m)| m.len() <= 1);
        if diagonal {
            let mut freq = Vec::with_capacity(p.cells.len());
            for (i, cell) in p.cells.iter().enumerate() {
                let j = cell
                    .active
                    .first_index()
                    .expect("diagonal cell is non-empty");
                let (kl, ku, _) = p.pc_rows[j];
                let hi = ku.min(p.cap[i]);
                let lo = kl.min(hi);
                freq.push((lo, hi));
            }
            let mut sol = match sense {
                Sense::Maximize => greedy::maximize_disjoint(coef, &freq),
                Sense::Minimize => greedy::minimize_disjoint(coef, &freq),
            };
            if extra_min_total && sol.x.iter().sum::<f64>() < 1.0 {
                // all coefficients point away from allocating; place the
                // single required row where it costs least
                let best = (0..freq.len())
                    .filter(|&i| freq[i].1 >= 1.0)
                    .max_by(|&a, &b| {
                        let ca = if sense == Sense::Maximize {
                            coef[a]
                        } else {
                            -coef[a]
                        };
                        let cb = if sense == Sense::Maximize {
                            coef[b]
                        } else {
                            -coef[b]
                        };
                        ca.partial_cmp(&cb).expect("no NaN coefficients")
                    });
                match best {
                    Some(i) => {
                        sol.objective += coef[i];
                        sol.x[i] += 1.0;
                    }
                    None => return Err(BoundError::Infeasible),
                }
            }
            return Ok(sol.objective);
        }

        // Map live (cap > 0) cells to dense variable indices.
        let live: Vec<usize> = (0..p.cells.len()).filter(|&i| p.cap[i] > 0.0).collect();
        if live.is_empty() {
            if extra_min_total {
                return Err(BoundError::Infeasible);
            }
            return Ok(0.0);
        }
        let mut var_of = vec![usize::MAX; p.cells.len()];
        for (v, &i) in live.iter().enumerate() {
            var_of[i] = v;
        }
        let live_coef: Vec<f64> = live.iter().map(|&i| coef[i]).collect();
        let mut lp = match sense {
            Sense::Maximize => LinearProgram::maximize(live_coef),
            Sense::Minimize => LinearProgram::minimize(live_coef),
        };
        let mut in_row = vec![false; live.len()];
        for (kl, ku, members) in &p.pc_rows {
            let terms: Vec<(usize, f64)> = members
                .iter()
                .filter(|&&i| var_of[i] != usize::MAX)
                .map(|&i| (var_of[i], 1.0))
                .collect();
            if terms.is_empty() {
                continue;
            }
            for &(v, _) in &terms {
                in_row[v] = true;
            }
            lp.add_constraint(terms.clone(), ConstraintOp::Le, *ku);
            if *kl > 0.0 {
                lp.add_constraint(terms, ConstraintOp::Ge, *kl);
            }
        }
        // An active-empty frontier cell sits in no `≤ ku` row (membership
        // needs an *active* constraint), so its variable must carry its
        // cap as an explicit bound or the program is unbounded.
        for (v, &i) in live.iter().enumerate() {
            if !in_row[v] {
                lp.set_bounds(v, 0.0, p.cap[i]);
            }
        }
        if extra_min_total {
            let all: Vec<(usize, f64)> = (0..live.len()).map(|v| (v, 1.0)).collect();
            lp.add_constraint(all, ConstraintOp::Ge, 1.0);
        }
        if live.len() > self.options.lp_relax_cell_limit {
            // LP relaxation: a hard (if slightly wider) bound — see
            // `BoundOptions::lp_relax_cell_limit`.
            return Ok(self.solve_lp_maybe_warm(p, &lp, sense, extra_min_total)?);
        }
        // The chain carry reaches into branch & bound too: consecutive
        // allocation MILPs of one chain (the probes of an AVG binary
        // search foremost) share constraint structure and differ only in
        // objective, so each solve seeds the next solve's *root*
        // relaxation with its carried tableau. Same cache slots as the
        // plain LP chain; a structural mismatch demotes inside the solver.
        let milp_options = self.milp_options();
        let key: WarmKey = (sense, extra_min_total, lp.num_vars(), lp.constraints.len());
        let chain = (milp_options.warmth == Warmth::Carry)
            .then_some(&p.warm)
            .and_then(|w| w.as_ref());
        let prior = chain.and_then(|cache| match take_cached(cache, key, &lp) {
            Some(CachedWarm::Tableau(t)) => Some(*t),
            // a basis entry under a carry-enabled engine cannot occur
            // (carry-on chains always store tableaux); drop defensively
            Some(CachedWarm::Basis(_)) | None => None,
        });
        let mut milp_problem = MilpProblem::all_integer(lp.clone());
        if let Some(w) = &p.branch_weights {
            // Volume-guided branching: the solver decides the most
            // selective cells' variables first (weights ride the live
            // variable mapping).
            milp_problem = milp_problem.with_branch_scores(live.iter().map(|&i| w[i]).collect());
        }
        match solve_milp_budgeted(&milp_problem, milp_options, prior, &p.budget) {
            Ok((sol, root)) => {
                p.record_search(sol.nodes, sol.search);
                if let (Some(cache), Some(root)) = (chain, root) {
                    lock_warm(cache).insert(key, CachedWarm::Tableau(Box::new(root)));
                }
                Ok(sol.objective)
            }
            // A pathological branch & bound tree is not a reason to fail a
            // *bounding* call: the LP relaxation dominates the integer
            // optimum in the optimization direction, so it is still sound.
            Err(pc_solver::SolverError::LimitExceeded(_)) => {
                Ok(self.solve_lp_maybe_warm(p, &lp, sense, extra_min_total)?)
            }
            // Budget trip mid-search: same LP-relaxation degradation, but
            // *reported* — the caller promised an answer by the deadline
            // and gets the sound, wider one.
            Err(pc_solver::SolverError::BudgetExhausted(_)) => {
                p.degraded.set(true);
                Ok(self.solve_lp_maybe_warm(p, &lp, sense, extra_min_total)?)
            }
            Err(e) => Err(e.into()),
        }
    }

    /// The branch & bound configuration for this engine's allocation
    /// MILPs: [`BoundOptions::milp`] with its thread count reconciled. A
    /// strictly sequential engine (`threads: 1`) forces a sequential
    /// search; otherwise `milp.threads` left at its sequential default
    /// inherits the engine's fan-out (set it explicitly to decouple the
    /// two).
    fn milp_options(&self) -> MilpOptions {
        let threads = if self.options.threads == 1 {
            1
        } else if self.options.milp.threads == 1 {
            self.options.threads
        } else {
            self.options.milp.threads
        };
        MilpOptions {
            threads,
            ..self.options.milp
        }
    }

    /// Solve an LP, consulting and refreshing the problem's warm-start
    /// cache when a chain supplied one. The cache key pins the probe kind
    /// and the tableau dimensions; the solver additionally verifies
    /// structural/basis compatibility and falls back tier by tier (carry
    /// → basis crash → cold), so a stale entry can cost time but never
    /// correctness. At [`Warmth::Carry`] the slot holds
    /// the whole canonical tableau — moved out for the solve and moved
    /// back after — so an AVG binary search re-prices one tableau across
    /// all its probes and a [`crate::Session`] carries tableaux across
    /// queries, not just bases.
    fn solve_lp_maybe_warm(
        &self,
        p: &CellProblem,
        lp: &LinearProgram,
        sense: Sense,
        extra_min_total: bool,
    ) -> Result<f64, pc_solver::SolverError> {
        // Cache creation is already gated on the warmth at both
        // construction sites (`bound_budgeted`, a session's `WarmCaches`).
        let Some(cache) = &p.warm else {
            let (sol, ct) = solve_lp_tableau(lp, None, None)?;
            p.record_lp(ct.stats());
            return Ok(sol.objective);
        };
        let key: WarmKey = (sense, extra_min_total, lp.num_vars(), lp.constraints.len());
        let (prior, basis) = match take_cached(cache, key, lp) {
            Some(CachedWarm::Tableau(t)) => (Some(*t), None),
            Some(CachedWarm::Basis(b)) => (None, Some(b)),
            None => (None, None),
        };
        let (sol, ct) = solve_lp_tableau(lp, prior, basis.as_ref())?;
        p.record_lp(ct.stats());
        let entry = if self.options.milp.warmth == Warmth::Carry {
            CachedWarm::Tableau(Box::new(ct))
        } else {
            CachedWarm::Basis(ct.warm_start())
        };
        lock_warm(cache).insert(key, entry);
        Ok(sol.objective)
    }

    // ------------------------------------------------------------------
    // Per-aggregate bounds
    // ------------------------------------------------------------------

    fn bound_count(&self, p: &CellProblem) -> Result<BoundReport, BoundError> {
        let ones = vec![1.0; p.cells.len()];
        let lo = if p.cells.is_empty() {
            0.0
        } else {
            self.allocate(p, &ones, Sense::Minimize, false)?
        };
        let hi = if !p.closed {
            f64::INFINITY
        } else if p.cells.is_empty() {
            0.0
        } else {
            self.allocate(p, &ones, Sense::Maximize, false)?
        };
        Ok(report(lo, hi, p))
    }

    fn bound_sum(&self, p: &CellProblem) -> Result<BoundReport, BoundError> {
        if !p.closed {
            return Ok(report(f64::NEG_INFINITY, f64::INFINITY, p));
        }
        if p.cells.is_empty() {
            return Ok(report(0.0, 0.0, p));
        }
        // An unbounded value range in a usable cell blows the corresponding
        // side of the range.
        let hi_unbounded =
            p.u.iter()
                .zip(&p.cap)
                .any(|(&ui, &cap)| ui == f64::INFINITY && cap > 0.0);
        let lo_unbounded =
            p.l.iter()
                .zip(&p.cap)
                .any(|(&li, &cap)| li == f64::NEG_INFINITY && cap > 0.0);
        let hi = if hi_unbounded {
            f64::INFINITY
        } else {
            // Coefficients for infeasible (cap = 0) cells are irrelevant;
            // zero them to keep the LP numerically clean.
            let coef: Vec<f64> =
                p.u.iter()
                    .zip(&p.cap)
                    .map(|(&ui, &cap)| if cap > 0.0 { ui } else { 0.0 })
                    .collect();
            self.allocate(p, &coef, Sense::Maximize, false)?
        };
        let lo = if lo_unbounded {
            f64::NEG_INFINITY
        } else {
            let coef: Vec<f64> =
                p.l.iter()
                    .zip(&p.cap)
                    .map(|(&li, &cap)| if cap > 0.0 { li } else { 0.0 })
                    .collect();
            self.allocate(p, &coef, Sense::Minimize, false)?
        };
        Ok(report(lo, hi, p))
    }

    fn bound_max(&self, p: &CellProblem) -> Result<BoundReport, BoundError> {
        let usable: Vec<usize> = (0..p.cells.len()).filter(|&i| p.cap[i] >= 1.0).collect();
        if usable.is_empty() && p.closed {
            return Err(BoundError::EmptyAggregate);
        }
        let hi = if !p.closed {
            f64::INFINITY
        } else {
            usable
                .iter()
                .map(|&i| p.u[i])
                .fold(f64::NEG_INFINITY, f64::max)
        };
        // Conditional lower bound: every instance's MAX is at least the
        // cheapest placement of any forced row; with no forced rows, at
        // least one row is assumed (non-empty aggregate semantics).
        let forced: Vec<f64> = p
            .pc_rows
            .iter()
            .filter(|(kl, _, members)| *kl >= 1.0 && !members.is_empty())
            .map(|(_, _, members)| {
                members
                    .iter()
                    .filter(|&&i| p.cap[i] >= 1.0)
                    .map(|&i| p.l[i])
                    .fold(f64::INFINITY, f64::min)
            })
            .collect();
        let lo = if !forced.is_empty() {
            forced.into_iter().fold(f64::NEG_INFINITY, f64::max)
        } else {
            usable.iter().map(|&i| p.l[i]).fold(f64::INFINITY, f64::min)
        };
        let lo = if p.closed { lo } else { f64::NEG_INFINITY };
        Ok(report(lo, hi, p))
    }

    fn bound_min(&self, p: &CellProblem) -> Result<BoundReport, BoundError> {
        let usable: Vec<usize> = (0..p.cells.len()).filter(|&i| p.cap[i] >= 1.0).collect();
        if usable.is_empty() && p.closed {
            return Err(BoundError::EmptyAggregate);
        }
        let lo = if !p.closed {
            f64::NEG_INFINITY
        } else {
            usable.iter().map(|&i| p.l[i]).fold(f64::INFINITY, f64::min)
        };
        let forced: Vec<f64> = p
            .pc_rows
            .iter()
            .filter(|(kl, _, members)| *kl >= 1.0 && !members.is_empty())
            .map(|(_, _, members)| {
                members
                    .iter()
                    .filter(|&&i| p.cap[i] >= 1.0)
                    .map(|&i| p.u[i])
                    .fold(f64::NEG_INFINITY, f64::max)
            })
            .collect();
        let hi = if !forced.is_empty() {
            forced.into_iter().fold(f64::INFINITY, f64::min)
        } else {
            usable
                .iter()
                .map(|&i| p.u[i])
                .fold(f64::NEG_INFINITY, f64::max)
        };
        let hi = if p.closed { hi } else { f64::INFINITY };
        Ok(report(lo, hi, p))
    }

    fn bound_avg(&self, p: &CellProblem) -> Result<BoundReport, BoundError> {
        if !p.closed {
            return Ok(report(f64::NEG_INFINITY, f64::INFINITY, p));
        }
        let usable: Vec<usize> = (0..p.cells.len()).filter(|&i| p.cap[i] >= 1.0).collect();
        if usable.is_empty() {
            return Err(BoundError::EmptyAggregate);
        }
        let max_u = usable
            .iter()
            .map(|&i| p.u[i])
            .fold(f64::NEG_INFINITY, f64::max);
        let min_l = usable.iter().map(|&i| p.l[i]).fold(f64::INFINITY, f64::min);
        if max_u == f64::INFINITY || min_l == f64::NEG_INFINITY {
            let hi = if max_u == f64::INFINITY {
                f64::INFINITY
            } else {
                max_u
            };
            let lo = if min_l == f64::NEG_INFINITY {
                f64::NEG_INFINITY
            } else {
                min_l
            };
            return Ok(report(lo, hi, p));
        }

        let no_forced = p.pc_rows.iter().all(|(kl, _, _)| *kl == 0.0);
        if no_forced {
            // A single row in the best/worst cell realizes the extremes.
            return Ok(report(min_l, max_u, p));
        }

        // §4.2: binary search the feasible average. `max AVG ≥ r` iff some
        // allocation with ≥ 1 row has Σ xᵢ(Uᵢ − r) ≥ 0 (each allocated row
        // contributes at most Uᵢ − r to `sum − r·count`).
        let hi = self.search_avg(p, true, min_l, max_u)?;
        let lo = self.search_avg(p, false, min_l, max_u)?;
        Ok(report(lo, hi, p))
    }

    /// Binary-search the extreme feasible average. The returned endpoint
    /// is always taken from the *infeasible* side of the final bracket, so
    /// the tolerance can only widen the range, never clip the true
    /// optimum.
    fn search_avg(
        &self,
        p: &CellProblem,
        upper: bool,
        min_l: f64,
        max_u: f64,
    ) -> Result<f64, BoundError> {
        let feasible = |r: f64| -> Result<bool, BoundError> {
            // `max AVG ≥ r` iff some allocation with ≥1 row has
            // Σ xᵢ(Uᵢ − r) ≥ 0; `min AVG ≤ r` iff Σ xᵢ(Lᵢ − r) ≤ 0.
            let coef: Vec<f64> = if upper {
                p.u.iter()
                    .zip(&p.cap)
                    .map(|(&ui, &cap)| if cap > 0.0 { ui - r } else { 0.0 })
                    .collect()
            } else {
                p.l.iter()
                    .zip(&p.cap)
                    .map(|(&li, &cap)| if cap > 0.0 { li - r } else { 0.0 })
                    .collect()
            };
            let sense = if upper {
                Sense::Maximize
            } else {
                Sense::Minimize
            };
            let opt = self.allocate(p, &coef, sense, true)?;
            Ok(if upper { opt >= -1e-9 } else { opt <= 1e-9 })
        };

        let extreme = if upper { max_u } else { min_l };
        match feasible(extreme) {
            Ok(true) => return Ok(extreme),
            Ok(false) => {}
            // No allocation with ≥1 row exists at all (the probe's
            // constraints do not depend on r): the aggregate is empty.
            Err(BoundError::Infeasible) => return Err(BoundError::EmptyAggregate),
            Err(e) => return Err(e),
        }
        // Invariant: `good` side is feasible (every instance's average
        // lies in [min_l, max_u], so the opposite extreme is feasible),
        // `bad` side is not.
        let (mut good, mut bad) = if upper {
            (min_l, max_u)
        } else {
            (max_u, min_l)
        };
        let tol = (max_u - min_l).abs().max(1.0) * 1e-9;
        for _ in 0..80 {
            if (bad - good).abs() <= tol {
                break;
            }
            // Out of budget: stop refining the bracket. `bad` always
            // over-covers the optimum, so an early return is just a wider
            // (still sound) endpoint.
            if p.budget.is_tripped() {
                p.degraded.set(true);
                break;
            }
            let r = good + (bad - good) / 2.0;
            if feasible(r)? {
                good = r;
            } else {
                bad = r;
            }
        }
        // `bad` over-covers the optimum by at most `tol` — sound.
        Ok(bad)
    }
}

fn report(lo: f64, hi: f64, p: &CellProblem) -> BoundReport {
    BoundReport {
        range: ResultRange { lo, hi },
        closed: p.closed,
        stats: p.stats,
        solver: p.work.get(),
        degraded: p.degraded.get(),
        shard_sat_checks: Vec::new(),
        trip: None,
        sched: None,
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::{FrequencyConstraint, PredicateConstraint, ValueConstraint};
    use pc_predicate::{Atom, AttrType, Interval, Predicate, Schema};

    fn schema() -> Schema {
        Schema::new(vec![("utc", AttrType::Int), ("price", AttrType::Float)])
    }

    /// §4.4 disjoint example.
    fn disjoint_set() -> PcSet {
        let mut set = PcSet::new(schema())
            .with(PredicateConstraint::new(
                Predicate::atom(Atom::bucket(0, 11.0, 12.0)),
                ValueConstraint::none().with(1, Interval::closed(0.99, 129.99)),
                FrequencyConstraint::between(50, 100),
            ))
            .with(PredicateConstraint::new(
                Predicate::atom(Atom::bucket(0, 12.0, 13.0)),
                ValueConstraint::none().with(1, Interval::closed(0.99, 149.99)),
                FrequencyConstraint::between(50, 100),
            ));
        let mut domain = Region::full(&schema());
        domain.set_interval(0, Interval::half_open(11.0, 13.0));
        set.set_domain(domain);
        set
    }

    /// §4.4 overlapping example.
    fn overlapping_set() -> PcSet {
        let mut set = PcSet::new(schema())
            .with(PredicateConstraint::new(
                Predicate::atom(Atom::bucket(0, 11.0, 12.0)),
                ValueConstraint::none().with(1, Interval::closed(0.99, 129.99)),
                FrequencyConstraint::between(50, 100),
            ))
            .with(PredicateConstraint::new(
                Predicate::atom(Atom::bucket(0, 11.0, 13.0)),
                ValueConstraint::none().with(1, Interval::closed(0.99, 149.99)),
                FrequencyConstraint::between(75, 125),
            ));
        let mut domain = Region::full(&schema());
        domain.set_interval(0, Interval::half_open(11.0, 13.0));
        set.set_domain(domain);
        set
    }

    fn sum_query() -> AggQuery {
        AggQuery::new(AggKind::Sum, 1, Predicate::always())
    }

    #[test]
    fn paper_disjoint_sum_range() {
        let set = disjoint_set();
        let r = BoundEngine::new(&set).bound(&sum_query()).unwrap();
        assert!(r.closed);
        assert!((r.range.lo - 99.0).abs() < 1e-6, "lo = {}", r.range.lo);
        assert!((r.range.hi - 27_998.0).abs() < 1e-6, "hi = {}", r.range.hi);
    }

    #[test]
    fn paper_overlapping_sum_range() {
        let set = overlapping_set();
        let r = BoundEngine::new(&set).bound(&sum_query()).unwrap();
        // [50·0.99 + 25·0.99, 50·129.99 + 75·149.99] = [74.25, 17748.75]
        assert!((r.range.lo - 74.25).abs() < 1e-6, "lo = {}", r.range.lo);
        assert!((r.range.hi - 17_748.75).abs() < 1e-6, "hi = {}", r.range.hi);
    }

    #[test]
    fn count_range_overlapping() {
        let set = overlapping_set();
        let q = AggQuery::count(Predicate::always());
        let r = BoundEngine::new(&set).bound(&q).unwrap();
        // count: t2 forces ≥ 75 total; t1 allows ≤ 100 in [11,12) and t2
        // caps the total at 125
        assert_eq!(r.range.lo, 75.0);
        assert_eq!(r.range.hi, 125.0);
    }

    #[test]
    fn pushdown_single_day() {
        let set = disjoint_set();
        // query only Nov-12: second PC alone, kl kept (fully inside)
        let q = AggQuery::new(
            AggKind::Sum,
            1,
            Predicate::atom(Atom::bucket(0, 12.0, 13.0)),
        );
        let r = BoundEngine::new(&set).bound(&q).unwrap();
        assert!((r.range.lo - 50.0 * 0.99).abs() < 1e-6);
        assert!((r.range.hi - 100.0 * 149.99).abs() < 1e-6);
    }

    #[test]
    fn pushdown_relaxes_partial_kl() {
        let set = overlapping_set();
        // query [11, 12): t2 straddles the boundary so its kl must relax;
        // t1 is fully inside and keeps kl = 50
        let q = AggQuery::count(Predicate::atom(Atom::bucket(0, 11.0, 12.0)));
        let r = BoundEngine::new(&set).bound(&q).unwrap();
        assert_eq!(r.range.lo, 50.0);
        assert_eq!(r.range.hi, 100.0);
    }

    #[test]
    fn closure_violation_inflates_upper() {
        // constraints only cover [11, 13) but the domain is the full line
        let set = {
            let mut s = disjoint_set();
            s.set_domain(Region::full(&schema()));
            s
        };
        let r = BoundEngine::new(&set)
            .bound(&AggQuery::count(Predicate::always()))
            .unwrap();
        assert!(!r.closed);
        assert_eq!(r.range.hi, f64::INFINITY);
        assert_eq!(r.range.lo, 100.0); // forced rows still counted
    }

    #[test]
    fn min_max_ranges() {
        let set = disjoint_set();
        let rmax = BoundEngine::new(&set)
            .bound(&AggQuery::new(AggKind::Max, 1, Predicate::always()))
            .unwrap();
        assert_eq!(rmax.range.hi, 149.99);
        // forced rows exist in both buckets; the adversary can price all
        // of them at 0.99 → guaranteed MAX ≥ 0.99
        assert!((rmax.range.lo - 0.99).abs() < 1e-9);

        let rmin = BoundEngine::new(&set)
            .bound(&AggQuery::new(AggKind::Min, 1, Predicate::always()))
            .unwrap();
        assert_eq!(rmin.range.lo, 0.99);
        // each bucket forces rows with value ≤ its upper bound; min over
        // buckets of U = 129.99
        assert!((rmin.range.hi - 129.99).abs() < 1e-9);
    }

    #[test]
    fn avg_range_disjoint() {
        let set = disjoint_set();
        let r = BoundEngine::new(&set)
            .bound(&AggQuery::new(AggKind::Avg, 1, Predicate::always()))
            .unwrap();
        // max avg: 100 rows at 129.99 + 50 rows at 149.99? No: maximize
        // (sum − r·count): best is 50 rows at 129.99 (forced, cheap) and
        // 100 at 149.99 → avg = (50·129.99 + 100·149.99)/150 = 143.32…
        let best = (50.0 * 129.99 + 100.0 * 149.99) / 150.0;
        assert!((r.range.hi - best).abs() < 1e-3, "hi = {}", r.range.hi);
        // min avg: everything at 0.99
        assert!((r.range.lo - 0.99).abs() < 1e-3, "lo = {}", r.range.lo);
    }

    #[test]
    fn infeasible_constraints_detected() {
        // force 10 rows in a bucket that another constraint caps at 0
        let mut set = PcSet::new(schema())
            .with(PredicateConstraint::new(
                Predicate::atom(Atom::bucket(0, 0.0, 10.0)),
                ValueConstraint::none(),
                FrequencyConstraint::between(10, 20),
            ))
            .with(PredicateConstraint::new(
                Predicate::atom(Atom::bucket(0, 0.0, 20.0)),
                ValueConstraint::none(),
                FrequencyConstraint::at_most(0),
            ));
        let mut domain = Region::full(&schema());
        domain.set_interval(0, Interval::half_open(0.0, 20.0));
        set.set_domain(domain);
        let err = BoundEngine::new(&set)
            .bound(&AggQuery::count(Predicate::always()))
            .unwrap_err();
        assert_eq!(err, BoundError::Infeasible);
    }

    #[test]
    fn conflicting_overlap_enforces_most_restrictive() {
        // c1: Chicago ≤ 5 rows ≤ 149.99; c2: everywhere ≤ 100 rows ≤ 149.99
        // (the §3.1 interaction example — Chicago can't exceed 5)
        let s = Schema::new(vec![("branch", AttrType::Cat), ("price", AttrType::Float)]);
        let mut set = PcSet::new(s.clone())
            .with(PredicateConstraint::new(
                Predicate::atom(Atom::eq(0, 0.0)),
                ValueConstraint::none().with(1, Interval::closed(0.0, 149.99)),
                FrequencyConstraint::at_most(5),
            ))
            .with(PredicateConstraint::new(
                Predicate::always(),
                ValueConstraint::none().with(1, Interval::closed(0.0, 149.99)),
                FrequencyConstraint::at_most(100),
            ));
        let mut domain = Region::full(&s);
        domain.set_interval(0, Interval::closed(0.0, 3.0));
        set.set_domain(domain);

        // all sales in Chicago: at most 5 rows → ≤ 5 × 149.99
        let q = AggQuery::new(AggKind::Sum, 1, Predicate::atom(Atom::eq(0, 0.0)));
        let r = BoundEngine::new(&set).bound(&q).unwrap();
        assert!((r.range.hi - 5.0 * 149.99).abs() < 1e-6);

        // across all branches: ≤ 100 rows total
        let r = BoundEngine::new(&set)
            .bound(&AggQuery::count(Predicate::always()))
            .unwrap();
        assert_eq!(r.range.hi, 100.0);
    }

    #[test]
    fn value_infeasible_cell_capped_at_zero() {
        // two overlapping constraints with contradictory price ranges in
        // the overlap: rows there are impossible
        let mut set = PcSet::new(schema())
            .with(PredicateConstraint::new(
                Predicate::atom(Atom::bucket(0, 0.0, 10.0)),
                ValueConstraint::none().with(1, Interval::closed(0.0, 10.0)),
                FrequencyConstraint::at_most(100),
            ))
            .with(PredicateConstraint::new(
                Predicate::atom(Atom::bucket(0, 5.0, 15.0)),
                ValueConstraint::none().with(1, Interval::closed(50.0, 60.0)),
                FrequencyConstraint::at_most(100),
            ));
        let mut domain = Region::full(&schema());
        domain.set_interval(0, Interval::half_open(0.0, 15.0));
        set.set_domain(domain);
        let r = BoundEngine::new(&set)
            .bound(&AggQuery::count(Predicate::always()))
            .unwrap();
        // overlap cell [5,10) contributes nothing; 100 + 100 remain
        assert_eq!(r.range.hi, 200.0);
    }

    #[test]
    fn unconstrained_value_attr_gives_infinite_sum() {
        let mut set = PcSet::new(schema()).with(PredicateConstraint::new(
            Predicate::atom(Atom::bucket(0, 0.0, 10.0)),
            ValueConstraint::none(), // price unconstrained!
            FrequencyConstraint::at_most(5),
        ));
        let mut domain = Region::full(&schema());
        domain.set_interval(0, Interval::half_open(0.0, 10.0));
        set.set_domain(domain);
        let r = BoundEngine::new(&set).bound(&sum_query()).unwrap();
        assert_eq!(r.range.hi, f64::INFINITY);
        assert_eq!(r.range.lo, f64::NEG_INFINITY);
        // …but COUNT is still bounded
        let rc = BoundEngine::new(&set)
            .bound(&AggQuery::count(Predicate::always()))
            .unwrap();
        assert_eq!(rc.range.hi, 5.0);
    }

    #[test]
    fn empty_aggregate_error() {
        let mut set = PcSet::new(schema()).with(PredicateConstraint::new(
            Predicate::atom(Atom::bucket(0, 0.0, 10.0)),
            ValueConstraint::none().with(1, Interval::closed(0.0, 1.0)),
            FrequencyConstraint::at_most(5),
        ));
        let mut domain = Region::full(&schema());
        domain.set_interval(0, Interval::half_open(0.0, 10.0));
        set.set_domain(domain);
        // query a region no missing row can reach
        let q = AggQuery::new(
            AggKind::Avg,
            1,
            Predicate::atom(Atom::bucket(0, 50.0, 60.0)),
        );
        let err = BoundEngine::new(&set).bound(&q).unwrap_err();
        assert_eq!(err, BoundError::EmptyAggregate);
    }

    #[test]
    fn tableau_carry_never_changes_ranges_and_counts_work() {
        // Floors force Ge rows (real phase 1) and an AVG binary search —
        // the chain shape the carry accelerates. Carry on and off must
        // agree on every range; the carry run must actually carry.
        let mut set = PcSet::new(schema())
            .with(PredicateConstraint::new(
                Predicate::atom(Atom::bucket(0, 11.0, 12.0)),
                ValueConstraint::none().with(1, Interval::closed(0.99, 129.99)),
                FrequencyConstraint::between(50, 100),
            ))
            .with(PredicateConstraint::new(
                Predicate::atom(Atom::bucket(0, 11.0, 13.0)),
                ValueConstraint::none().with(1, Interval::closed(0.99, 149.99)),
                FrequencyConstraint::between(75, 125),
            ))
            .with(PredicateConstraint::new(
                Predicate::atom(Atom::bucket(0, 12.0, 13.0)),
                ValueConstraint::none().with(1, Interval::closed(5.0, 80.0)),
                FrequencyConstraint::between(10, 60),
            ));
        let mut domain = Region::full(&schema());
        domain.set_interval(0, Interval::half_open(11.0, 13.0));
        set.set_domain(domain);

        let carry_engine = BoundEngine::new(&set);
        let mut basis = BoundOptions::default();
        basis.milp.warmth = Warmth::Basis;
        let basis_engine = BoundEngine::with_options(&set, basis);
        let mut carried_total = 0;
        for agg in [
            AggKind::Sum,
            AggKind::Count,
            AggKind::Avg,
            AggKind::Min,
            AggKind::Max,
        ] {
            let q = AggQuery::new(agg, 1, Predicate::always());
            let with = carry_engine.bound(&q).unwrap();
            let without = basis_engine.bound(&q).unwrap();
            assert!(
                (with.range.lo - without.range.lo).abs() < 1e-5
                    && (with.range.hi - without.range.hi).abs() < 1e-5,
                "{agg:?}: carry [{}, {}] vs basis [{}, {}]",
                with.range.lo,
                with.range.hi,
                without.range.lo,
                without.range.hi
            );
            assert_eq!(
                without.solver.carried, 0,
                "{agg:?}: basis run must not carry"
            );
            carried_total += with.solver.carried;
        }
        assert!(
            carried_total > 0,
            "the AVG chain must answer probes from carried tableaux"
        );
    }

    #[test]
    fn disjoint_hint_matches_full_decomposition() {
        let mut hinted = disjoint_set();
        hinted.set_disjoint_hint(true);
        let full = disjoint_set();
        for q in [
            sum_query(),
            AggQuery::count(Predicate::always()),
            AggQuery::new(AggKind::Max, 1, Predicate::always()),
        ] {
            let a = BoundEngine::new(&hinted).bound(&q).unwrap();
            let b = BoundEngine::new(&full).bound(&q).unwrap();
            assert_eq!(a.range, b.range, "{q:?}");
            assert_eq!(a.stats.sat_checks, 0, "hinted path must not call SAT");
        }
    }

    #[test]
    fn count_range_respects_true_result() {
        // sanity: a concrete instance's count lies in the range
        let set = overlapping_set();
        let q = AggQuery::count(Predicate::always());
        let r = BoundEngine::new(&set).bound(&q).unwrap().range;
        // instance: 50 rows on Nov-11, 30 on Nov-12 → t1: 50 ∈ [50,100] ✓,
        // t2: 80 ∈ [75,125] ✓
        assert!(r.contains(80.0));
        // 40 on Nov-11 would violate t1's lower bound — outside the range
        // is not required, but 130 total violates t2 and must be outside
        assert!(!r.contains(130.0));
    }

    // ------------------------------------------------------------------
    // Budgets and graceful degradation
    // ------------------------------------------------------------------

    #[test]
    fn unlimited_budget_never_reports_degraded() {
        let set = overlapping_set();
        let engine = BoundEngine::new(&set);
        for q in [sum_query(), AggQuery::count(Predicate::always())] {
            let r = engine.bound(&q).unwrap();
            assert!(!r.degraded, "{q:?} must not degrade without a budget");
        }
    }

    /// For every SAT-check cap from 0 up to the exact run's own usage, a
    /// budgeted bound must contain the exact range and must flag itself
    /// degraded whenever the budget actually tripped.
    #[test]
    fn sat_cap_degradation_is_sound_at_every_cap() {
        let set = overlapping_set();
        let engine = BoundEngine::new(&set);
        for agg in [AggKind::Sum, AggKind::Count, AggKind::Max, AggKind::Min] {
            let q = AggQuery::new(agg, 1, Predicate::always());
            let exact = engine.bound(&q).unwrap();
            let full_checks = exact.stats.sat_checks.max(1);
            for cap in 0..=full_checks {
                let budget = QueryBudget::armed().with_sat_cap(cap);
                let r = engine.bound_budgeted(&q, &budget).unwrap();
                assert!(
                    r.range.lo <= exact.range.lo + 1e-9 && r.range.hi >= exact.range.hi - 1e-9,
                    "{agg:?} cap {cap}: degraded [{}, {}] must contain exact [{}, {}]",
                    r.range.lo,
                    r.range.hi,
                    exact.range.lo,
                    exact.range.hi
                );
                assert_eq!(
                    r.degraded,
                    budget.is_tripped(),
                    "{agg:?} cap {cap}: degraded flag must track the trip"
                );
            }
        }
    }

    #[test]
    fn node_cap_falls_back_to_lp_relaxation() {
        let set = overlapping_set();
        let engine = BoundEngine::new(&set);
        let q = AggQuery::count(Predicate::always());
        let exact = engine.bound(&q).unwrap();
        // Zero B&B nodes: every allocation MILP trips immediately and the
        // engine answers from the LP relaxation instead.
        let budget = QueryBudget::armed().with_node_cap(0);
        let r = engine.bound_budgeted(&q, &budget).unwrap();
        assert!(r.degraded, "node-cap trip must be reported");
        assert!(r.range.lo <= exact.range.lo && r.range.hi >= exact.range.hi);
        assert!(r.range.lo.is_finite() && r.range.hi.is_finite());
    }

    #[test]
    fn cancelled_query_still_answers_soundly() {
        let set = overlapping_set();
        let engine = BoundEngine::new(&set);
        let q = sum_query();
        let exact = engine.bound(&q).unwrap();
        let budget = QueryBudget::armed().with_sat_cap(u64::MAX);
        budget.cancel_token().unwrap().cancel();
        let r = engine.bound_budgeted(&q, &budget).unwrap();
        assert!(r.degraded);
        assert_eq!(budget.trip_reason(), Some(pc_budget::TripReason::Cancelled));
        assert!(r.range.lo <= exact.range.lo && r.range.hi >= exact.range.hi);
    }

    /// Twenty overlapping `utc` buckets of unequal widths and a SUM query
    /// over `utc ∈ [50, 70)`, which reaches buckets 4, 5 and 6 only.
    fn reach_fixture() -> (PcSet, AggQuery) {
        let mut set = PcSet::new(schema());
        for i in 0..20 {
            let lo = 10.0 * i as f64;
            let width = 15.0 - (i % 3) as f64;
            set.push(PredicateConstraint::new(
                Predicate::atom(Atom::bucket(0, lo, lo + width)),
                ValueConstraint::none().with(1, Interval::closed(0.0, 10.0 + i as f64)),
                FrequencyConstraint::at_most(10 + i),
            ));
        }
        let mut domain = Region::full(&schema());
        domain.set_interval(0, Interval::half_open(0.0, 215.0));
        set.set_domain(domain);
        let q = AggQuery::new(
            AggKind::Sum,
            1,
            Predicate::atom(Atom::bucket(0, 50.0, 70.0)),
        );
        (set, q)
    }

    const REACHED: [usize; 3] = [4, 5, 6];

    #[test]
    fn fresh_engine_estimates_only_the_reached_constraints() {
        let (set, q) = reach_fixture();
        let fresh = BoundEngine::new(&set);
        let mut base = q.predicate.to_region(set.schema());
        base.intersect(set.domain());
        assert_eq!(fresh.reached(&base).unwrap(), REACHED);
        let r = fresh.bound(&q).unwrap();
        assert!(r.stats.ordered_splits > 0, "the reached constraints split");
    }

    /// An unclosed closure check skipped under a tripped budget must
    /// answer "not closed" (hi = ∞ for COUNT), never "closed".
    #[test]
    fn skipped_closure_check_assumes_open() {
        let mut set = disjoint_set();
        set.set_domain(Region::full(&schema()));
        let engine = BoundEngine::new(&set);
        let q = AggQuery::count(Predicate::always());
        let budget = QueryBudget::armed().with_sat_cap(0);
        let r = engine.bound_budgeted(&q, &budget).unwrap();
        assert!(r.degraded);
        assert!(!r.closed);
        assert_eq!(r.range.hi, f64::INFINITY);
    }

    // ------------------------------------------------------------------
    // Open regions answered from the closure probe
    // ------------------------------------------------------------------

    const AGGS: [AggKind; 5] = [
        AggKind::Count,
        AggKind::Sum,
        AggKind::Avg,
        AggKind::Min,
        AggKind::Max,
    ];

    /// Two tiles on disjoint `utc` ranges of a domain they leave partly
    /// uncovered, so a query over the whole domain is open and reaches two
    /// shards. The first tile forces `floor` rows.
    fn open_tiles(floor: u64) -> PcSet {
        let mut set = PcSet::new(schema())
            .with(PredicateConstraint::new(
                Predicate::atom(Atom::bucket(0, 0.0, 10.0)),
                ValueConstraint::none().with(1, Interval::closed(1.0, 20.0)),
                FrequencyConstraint::between(floor, 5),
            ))
            .with(PredicateConstraint::new(
                Predicate::atom(Atom::bucket(0, 20.0, 30.0)),
                ValueConstraint::none().with(1, Interval::closed(2.0, 40.0)),
                FrequencyConstraint::at_most(7),
            ));
        let mut domain = Region::full(&schema());
        domain.set_interval(0, Interval::half_open(0.0, 40.0));
        set.set_domain(domain);
        set
    }

    fn flat_engine(set: &PcSet) -> BoundEngine<'_> {
        BoundEngine::with_options(
            set,
            BoundOptions {
                shard: false,
                ..BoundOptions::default()
            },
        )
    }

    #[test]
    fn open_floor_free_region_is_answered_without_cells() {
        let set = open_tiles(0);
        assert_eq!(crate::shard::interaction_components(&set).len(), 2);
        for agg in AGGS {
            let q = AggQuery::new(agg, 1, Predicate::always());
            let r = BoundEngine::new(&set).bound(&q).unwrap();
            let oracle = flat_engine(&set).bound(&q).unwrap();
            assert_eq!(
                (r.range, r.closed),
                (oracle.range, oracle.closed),
                "{agg:?}"
            );
            let lo = if agg == AggKind::Count {
                0.0
            } else {
                f64::NEG_INFINITY
            };
            assert_eq!(
                r.range,
                ResultRange {
                    lo,
                    hi: f64::INFINITY
                },
                "{agg:?}"
            );
            assert!(!r.closed && !r.degraded, "{agg:?}");
            assert_eq!(
                (r.stats.cells, r.stats.sat_checks, r.solver.pivots),
                (0, 0, 0),
                "{agg:?}: no cell, SAT check or pivot"
            );
            assert_eq!(r.stats.shards, 0, "{agg:?}");
            assert!(r.shard_sat_checks.is_empty(), "{agg:?}");
        }
    }

    #[test]
    fn a_kept_floor_brings_back_cells_and_shards() {
        let set = open_tiles(1);
        for agg in AGGS {
            let q = AggQuery::new(agg, 1, Predicate::always());
            let r = BoundEngine::new(&set).bound(&q).unwrap();
            let oracle = flat_engine(&set).bound(&q).unwrap();
            assert_eq!(
                (r.range, r.closed),
                (oracle.range, oracle.closed),
                "{agg:?}"
            );
            assert_eq!(r.stats.cells, 2, "{agg:?}");
            assert_eq!(r.stats.shards, 2, "{agg:?}");
            assert_eq!(r.shard_sat_checks.len(), 2, "{agg:?}");
        }
        let count = BoundEngine::new(&set)
            .bound(&AggQuery::count(Predicate::always()))
            .unwrap();
        assert_eq!(
            count.range,
            ResultRange {
                lo: 1.0,
                hi: f64::INFINITY
            }
        );
    }

    #[test]
    fn an_unplaceable_kept_floor_is_still_infeasible() {
        // The first tile's predicate caps `price` at 10 while its value
        // range starts at 20: its forced row has nowhere to go.
        let mut set = PcSet::new(schema())
            .with(PredicateConstraint::new(
                Predicate::atom(Atom::bucket(0, 0.0, 10.0)).and(Atom::between(1, 0.0, 10.0)),
                ValueConstraint::none().with(1, Interval::closed(20.0, 30.0)),
                FrequencyConstraint::between(1, 5),
            ))
            .with(PredicateConstraint::new(
                Predicate::atom(Atom::bucket(0, 20.0, 30.0)),
                ValueConstraint::none().with(1, Interval::closed(2.0, 40.0)),
                FrequencyConstraint::at_most(7),
            ));
        let mut domain = Region::full(&schema());
        domain.set_interval(0, Interval::half_open(0.0, 40.0));
        set.set_domain(domain);
        for agg in AGGS {
            let q = AggQuery::new(agg, 1, Predicate::always());
            for engine in [BoundEngine::new(&set), flat_engine(&set)] {
                let shard = engine.options().shard;
                assert_eq!(
                    engine.bound(&q).map(|r| r.range),
                    Err(BoundError::Infeasible),
                    "{agg:?} (shard: {shard})"
                );
            }
        }
    }

    #[test]
    fn naive_past_its_limit_still_refuses_an_open_component() {
        // 26 overlapping buckets chained along `utc`: one component, and
        // the domain runs past the last bucket, so every query is open.
        let mut set = PcSet::new(schema());
        for i in 0..=NAIVE_LIMIT {
            let lo = i as f64;
            set.push(PredicateConstraint::new(
                Predicate::atom(Atom::bucket(0, lo, lo + 2.0)),
                ValueConstraint::none().with(1, Interval::closed(0.0, 10.0)),
                FrequencyConstraint::at_most(3),
            ));
        }
        let mut domain = Region::full(&schema());
        domain.set_interval(0, Interval::half_open(0.0, 100.0));
        set.set_domain(domain);
        assert_eq!(crate::shard::interaction_components(&set).len(), 1);
        let engine = BoundEngine::with_options(
            &set,
            BoundOptions {
                strategy: Strategy::Naive,
                ..BoundOptions::default()
            },
        );
        let err = engine
            .bound(&AggQuery::count(Predicate::always()))
            .unwrap_err();
        assert!(
            matches!(
                err,
                BoundError::Decompose(crate::decompose::DecomposeError::TooManyConstraints { .. })
            ),
            "{err:?}"
        );
    }

    #[test]
    fn cancelled_budget_answers_an_open_region_degraded() {
        let set = open_tiles(0);
        let budget = QueryBudget::armed();
        budget.cancel_token().unwrap().cancel();
        let r = BoundEngine::new(&set)
            .bound_budgeted(&sum_query(), &budget)
            .unwrap();
        assert_eq!(
            r.range,
            ResultRange {
                lo: f64::NEG_INFINITY,
                hi: f64::INFINITY
            }
        );
        assert!(r.degraded && !r.closed);
        assert_eq!(r.trip, Some(pc_budget::TripReason::Cancelled));
    }

    /// A minimizing allocation MILP whose optimum places no row reports
    /// its objective as `−0.0`; every endpoint leaves `allocate` as `+0`.
    #[test]
    fn zero_endpoints_are_never_negative_zero() {
        // Overlapping floor-free buckets: the overlap makes the allocation
        // a MILP rather than the greedy disjoint case.
        let set = {
            let mut s = PcSet::new(schema())
                .with(PredicateConstraint::new(
                    Predicate::atom(Atom::bucket(0, 0.0, 10.0)),
                    ValueConstraint::none().with(1, Interval::closed(0.0, 20.0)),
                    FrequencyConstraint::at_most(5),
                ))
                .with(PredicateConstraint::new(
                    Predicate::atom(Atom::bucket(0, 5.0, 15.0)),
                    ValueConstraint::none().with(1, Interval::closed(0.0, 40.0)),
                    FrequencyConstraint::at_most(7),
                ));
            let mut domain = Region::full(&schema());
            domain.set_interval(0, Interval::half_open(0.0, 15.0));
            s.set_domain(domain);
            s
        };
        let negative_zero = |v: f64| v == 0.0 && v.is_sign_negative();
        let engine = BoundEngine::new(&set);
        let keys: Vec<f64> = (0..15).map(f64::from).collect();
        for agg in [AggKind::Count, AggKind::Sum] {
            let base = AggQuery::new(agg, 1, Predicate::always());
            let r = engine.bound(&base).unwrap();
            assert!(r.closed && r.range.lo == 0.0, "{agg:?}: {:?}", r.range);
            assert!(!negative_zero(r.range.lo), "{agg:?}: {:?}", r.range);
            for group in engine.bound_group_by(&base, 0, keys.clone()) {
                let range = group.report.unwrap().range;
                assert!(
                    !negative_zero(range.lo) && !negative_zero(range.hi),
                    "{agg:?} key {}: {range:?}",
                    group.key
                );
            }
        }
    }
}
