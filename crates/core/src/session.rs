//! The session layer: a long-lived, **versioned** serving handle over a
//! mutable constraint catalog.
//!
//! [`BoundEngine::bound`] rebuilds the cell decomposition — the engine's
//! exponential-worst-case step — on every call. That is the right shape
//! for one-shot contingency questions and exactly the wrong shape for a
//! serving system answering heavy query traffic against one PC set. A
//! [`Session`] amortizes the expensive work across queries *and* across
//! constraint churn:
//!
//! # Catalog and epochs
//!
//! A session **owns** its constraints as a catalog of stable
//! [`ConstraintId`]s. [`Session::add_constraint`],
//! [`Session::retire_constraint`], and [`Session::replace_constraint`]
//! mutate the catalog; each mutation produces a new **epoch** — an
//! immutable snapshot (`Arc<PcSet>` + `Arc<ShardedCellSet>`) stamped with a
//! monotonically increasing [`Session::epoch`] number. Queries **pin**
//! the epoch current when they start and run entirely against it
//! (snapshot isolation): a mutation never changes the answer of an
//! in-flight [`Session::bound`] or [`Session::bound_many`], and a whole
//! batch is answered against one epoch. Mutations serialize against each
//! other and only briefly block *new* pins.
//!
//! # Shard-local incremental epoch derivation
//!
//! A new epoch's cells are not re-decomposed from scratch. The epoch
//! holds a [`ShardedCellSet`] — the decomposition factored over the
//! connected components of the constraint-interaction graph
//! ([`crate::shard`]) — so the first question a mutation asks is
//! *which shards does the churned constraint's box overlap?* Every
//! shard it misses carries to the new epoch untouched by `Arc`: cells,
//! witnesses, and cached domain-wide summary bounds all survive
//! verbatim. Only the owning shard(s) pay:
//!
//! * an **add** overlapping *no* shard appends a fresh singleton shard
//!   (one cell, zero SAT checks); overlapping *one* shard delta-derives
//!   just that shard; overlapping *several* merges them into one
//!   component and re-decomposes only the merged members;
//! * a **retire** is resolved inside the owning shard, which may split
//!   back into several components (each derived cell lands in the
//!   fragment its active clique lives in — no SAT checks either way);
//!   the other shards just shift their member indices.
//!
//! Within the owning shard, PC decomposition is monotone in the
//! constraint list, so its cells are **delta-derived**:
//!
//! * **add** — only the cells the new constraint's box cuts are split
//!   (one include/exclude level, cached witnesses settling one branch
//!   free, at most one SAT check for the other); untouched cells are
//!   shared with the previous epoch by `Arc`, witnesses included, plus
//!   one check for the new-constraint-only signature
//!   ([`CellSet::derive_add`](CellSet));
//! * **retire** — **zero** SAT checks: unchanged cells keep everything
//!   (signature indices shift down), a retired cell folds into its
//!   exclude-sibling or survives with its region re-widened to what a
//!   fresh decomposition would give, witness carried;
//! * the closure verdict/counterexample carries the same way: coverage
//!   only moves inside the churned constraint's box, so a cached
//!   counterexample (or the closed verdict) re-checks only when that box
//!   overlaps it.
//!
//! Each epoch's [`CellSet::stats`] report the *derivation's own* work
//! ([`crate::DecomposeStats::incremental_splits`] counts the touched
//! cells), which is what the `constraint_churn` bench compares against
//! the rebuild-per-epoch ablation ([`SessionOptions::incremental`] off).
//! Derivation only happens when the previous epoch's cells were actually
//! built — mutations before the first query stay free, and the first
//! query then decomposes the current catalog directly.
//!
//! # Serving machinery (per epoch)
//!
//! * each query **specializes** the pinned epoch's cells to its region,
//!   one slice per shard, whatever the shard count — interval
//!   intersections to drop and share cells, plus an exact SAT re-check
//!   for only the cells the region genuinely cuts (see
//!   [`crate::specialize`]) — and bounds the slices with the one-shot
//!   engine's own bounding body (each shard's own problem; see
//!   [`crate::shard`]). A shard the region misses is skipped, and a
//!   shard inside the region serves `COUNT`/`SUM` from its cached
//!   domain-wide summary;
//! * the epoch-level **closure verdict is hoisted** into the engine's
//!   one closure ladder: a sub-region of a closed region is closed; for
//!   a non-closed epoch the cached *counterexample point* proves any
//!   query containing it non-closed without a SAT call;
//! * simplex **warm starts chain across queries and across epochs**: the
//!   session keeps per-worker [`WarmCaches`] alive for its whole
//!   lifetime. At [`crate::Warmth::Carry`] (the default
//!   [`crate::MilpOptions::warmth`]) each chain slot holds the whole
//!   **canonical tableau**; a successor
//!   LP with identical constraint structure re-prices it under its new
//!   objective, and — new with the versioned API — a successor whose
//!   rows differ by the *one constraint an epoch added or retired* is
//!   **adapted in place**: the changed row is appended to / deleted from
//!   the carried tableau with a dual restore (see
//!   `pc_solver::solve_lp_tableau`), instead of falling all the way back
//!   to a cold rebuild. A larger structural mismatch still rebuilds
//!   cold, so churn can cost work but never correctness;
//! * each epoch keeps one **answer memo**. A range depends only on the
//!   catalog and the query, and an epoch's catalog never changes, so an
//!   exact answer stays exact for the epoch's whole life. The memo is
//!   keyed by the query's canonical form — its aggregate, its
//!   aggregated attribute, and its region ∩ the catalog domain, which is
//!   all the serve path reads of a query — and each entry is marked
//!   exact or shed. An exact-rung run that answers `Ok`, undegraded and
//!   untripped, stores its range and closure flag; a later single query
//!   or batch item with the same key takes that answer before
//!   admission, as long as its budget can still proceed (a cancelled or
//!   expired query degrades as it would have), and does no work: no
//!   ticket is judged ([`Session::admit`] issues none for an answer the
//!   epoch holds), nothing is specialized or solved, and the report
//!   carries a [`SchedReport::bypass`] and no work counters. A shed
//!   entry holds the pre-tripped one-granule walk's answer and serves
//!   only later shed-rung runs of its key (under overload, rejections
//!   are the bulk of the traffic). The memo dies with its epoch, so a
//!   mutation always starts an empty one; it holds at most a fixed
//!   number of entries and stops inserting there; and it is off under
//!   [`SessionOptions::cache_cells`]` = false`, the cold baseline. A
//!   GROUP-BY call's keys store their answers but always compute them.
//!   [`Session::memo_stats`] counts its hits and misses.
//!
//! # What mutations invalidate (and what they don't)
//!
//! Shared, untouched cells keep their identity across epochs — including
//! their cached witnesses. Split or re-widened cells may carry *new*
//! witnesses (equally genuine points of the same cell), so witness
//! identity is only stable for cells the churned box never touched —
//! the same caveat as the parallel witness search
//! ([`crate::decompose`]). A derived epoch's *cells* are exactly a fresh
//! decomposition's. Its bounds equal a session freshly built on the
//! mutated catalog up to solver tolerance (~1e-6), and the one thing that
//! can still move them is the session's per-worker warm chains: a
//! carried or adapted tableau depends on which queries the worker
//! answered before, and can land on a different vertex of a degenerate
//! optimum or round differently in the last bits than a cold solve (the
//! caveat [`crate::BoundOptions::threads`] documents). Branch & bound
//! itself is one sequential search and adds no variation. This is
//! property-tested in `tests/prop_epoch.rs` over random add/retire
//! sequences, sequentially and on the pinned multi-worker pool. Under the approximate [`crate::Strategy::EarlyStop`] derived
//! epochs keep unverified cells admitted (bounds may stay wider than a
//! fresh rebuild's, never unsoundly narrower).
//!
//! # One way in
//!
//! Every operation has two public forms: the plain one
//! ([`Session::bound`], [`Session::bound_many`],
//! [`Session::bound_group_by`], [`Session::add_constraint`],
//! [`Session::retire_constraint`], [`Session::replace_constraint`]) and a
//! `_stamped` one that takes the [`QueryBudget`] and returns the number
//! of the epoch it ran against — the stamp a serving tier puts on its
//! response. [`Session::bound_ticketed_stamped`] also takes the ticket
//! [`Session::admit`] issued at the query's arrival. Underneath, every
//! admitted unit of work — a single query, each item of a batch, one
//! GROUP-BY call — runs through one private path: it takes the unit's
//! ticket (issuing one at run start when there is none), turns it into
//! the report's [`SchedReport`], re-checks the verdict against the slack
//! left, runs the rung, and settles the ticket through one guard on
//! every exit, an unwind included. A deadline picks the rung, never the
//! order in which the pool runs the unit's tasks: the pool schedules
//! every task alike. Mutations likewise share one shape:
//! an add and a retire are each one delta on a draft of the next epoch,
//! a replace chains the two, and nothing is installed before the last
//! delta is done — so a mutation that panics leaves the current epoch,
//! and the session, as they were.
//!
//! `pc batch` drives all of this from the command line: `+ <constraint>`
//! and `- <id>` directive lines interleave catalog churn with the query
//! stream, and the `query_throughput` bench records the
//! incremental-vs-rebuild ablation to `BENCH_serve.json`.

use crate::bounds::{pooled_map_catch, ShardSlice, WarmCaches};
use crate::decompose::DecomposeStats;
use crate::groupby::bound_keys;
use crate::shard::ShardedCellSet;
use crate::specialize::CellSet;
use crate::{
    BoundEngine, BoundError, BoundOptions, BoundReport, GroupBound, LpWork, PcSet,
    PredicateConstraint, ResultRange, Warmth,
};
use pc_budget::pressure::{AdmissionVerdict, PressureGauge, SchedReport, SchedTicket};
use pc_budget::{CancelToken, QueryBudget, TripReason};
use pc_predicate::Region;
use pc_storage::{AggKind, AggQuery};
use std::collections::hash_map::Entry;
use std::collections::HashMap;
use std::fmt;
use std::str::FromStr;
use std::sync::atomic::{AtomicBool, AtomicU64, Ordering};
use std::sync::{Arc, Condvar, Mutex, MutexGuard, OnceLock, PoisonError, RwLock};
use std::time::{Duration, Instant};

/// Stable handle of one catalog constraint, assigned by the session at
/// admission and never reused. Renders as `c<N>` (`pc batch` retire
/// directives parse either `c3` or `3`).
#[derive(Debug, Clone, Copy, PartialEq, Eq, Hash, PartialOrd, Ord)]
pub struct ConstraintId(u64);

impl fmt::Display for ConstraintId {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        write!(f, "c{}", self.0)
    }
}

impl FromStr for ConstraintId {
    type Err = String;

    fn from_str(s: &str) -> Result<Self, String> {
        let digits = s.strip_prefix('c').unwrap_or(s);
        digits
            .parse::<u64>()
            .map(ConstraintId)
            .map_err(|_| format!("`{s}` is not a constraint id (expected cN or N)"))
    }
}

/// A mutation named a [`ConstraintId`] the catalog does not hold (never
/// admitted, or already retired).
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub struct UnknownConstraint(pub ConstraintId);

impl fmt::Display for UnknownConstraint {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        write!(f, "no live constraint {} in the session catalog", self.0)
    }
}

impl std::error::Error for UnknownConstraint {}

/// Session configuration.
#[derive(Debug, Clone, Copy)]
pub struct SessionOptions {
    /// Engine knobs shared by every query of the session.
    pub bound: BoundOptions,
    /// Decompose each epoch once and answer queries by specializing the
    /// cached cells, and keep each epoch's answer memo (the default; see
    /// the module docs). Disabled, every query decomposes its own region
    /// from scratch and nothing is memoized, not even shed answers — the
    /// cold baseline, kept as an honest A/B switch
    /// (`pc … --no-session-cache`); warm-start chaining across queries
    /// stays on either way unless `bound.milp.warmth` is
    /// [`Warmth::Cold`].
    pub cache_cells: bool,
    /// Derive each mutation's epoch incrementally from the previous one
    /// (the default): re-split only the cells the churned constraint's
    /// box cuts, share the rest. Disabled, every mutation schedules a
    /// full re-decomposition — the rebuild-per-epoch baseline the
    /// `constraint_churn` bench ablates against. Never affects results,
    /// only [`crate::DecomposeStats`] work.
    pub incremental: bool,
    /// Admission control + load shedding (the default; engages only for
    /// queries with an armed deadline): the session's [`PressureGauge`]
    /// judges each arrival against the queued backlog, re-routing
    /// queries that cannot finish exactly down the degradation ladder at
    /// admission, and answering hopeless ones from the cheapest sound
    /// path immediately (see [`pc_budget::pressure`]). Every answer
    /// remains a superset of the exact range. Off = the baseline the
    /// `deadline_stress/burst_no_admission` bench row records.
    pub admission: bool,
}

impl Default for SessionOptions {
    fn default() -> Self {
        SessionOptions {
            bound: BoundOptions::default(),
            cache_cells: true,
            incremental: true,
            admission: true,
        }
    }
}

/// One immutable catalog snapshot: the materialized set, the live ids (in
/// constraint-index order), and the lazily built / eagerly derived cells.
struct Epoch {
    number: u64,
    set: Arc<PcSet>,
    ids: Vec<ConstraintId>,
    cells: OnceLock<Result<Arc<ShardedCellSet>, BoundError>>,
    /// The answer memo (module docs): exact and shed answers by query
    /// key. Both are deterministic per epoch — the catalog is fixed, and
    /// a shed run's budget is born tripped — and the memo dies with the
    /// epoch, so a catalog mutation can never serve a stale range.
    memo: Mutex<HashMap<MemoKey, Memoized>>,
}

/// Most entries one epoch's memo holds: past it, the memo stops
/// inserting, and a new query answers as usual without being stored.
const MEMO_CAP: usize = 1024;

/// A query's canonical form against one catalog: its aggregate, its
/// aggregated attribute, and its region ∩ the catalog domain, one
/// `(lo, hi, lo_open, hi_open)` per attribute with the endpoints by bit
/// pattern. That is everything of a query the serve path reads, so one
/// key has one answer per epoch. (Two spellings of one set, say `[3, 5]`
/// and `(2, 6)` over an integer attribute, are two keys: a miss, never
/// a wrong answer.)
#[derive(Debug, PartialEq, Eq, Hash)]
struct MemoKey {
    agg: AggKind,
    attr: usize,
    region: Vec<(u64, u64, bool, bool)>,
}

impl MemoKey {
    fn new(query: &AggQuery, target: &Region) -> MemoKey {
        MemoKey {
            agg: query.agg,
            attr: query.attr,
            region: (0..target.width())
                .map(|attr| {
                    let iv = target.interval(attr);
                    (iv.lo.to_bits(), iv.hi.to_bits(), iv.lo_open, iv.hi_open)
                })
                .collect(),
        }
    }
}

/// One memoized answer, marked by the rung that computed it.
enum Memoized {
    /// An exact-rung answer: all a hit reports besides its schedule.
    Exact { range: ResultRange, closed: bool },
    /// The shed rung's whole report.
    Shed(Box<BoundReport>),
}

impl Epoch {
    /// Epoch `number` of the catalog `set` with live `ids`. Derived
    /// `cells` are published as its decomposition; without them the
    /// first query that needs cells builds them.
    fn new(
        number: u64,
        set: Arc<PcSet>,
        ids: Vec<ConstraintId>,
        cells: Option<Arc<ShardedCellSet>>,
    ) -> Epoch {
        let built = OnceLock::new();
        if let Some(cells) = cells {
            let _ = built.set(Ok(cells));
        }
        Epoch {
            number,
            set,
            ids,
            cells: built,
            memo: Mutex::new(HashMap::new()),
        }
    }

    /// The memo, recovered if a holder panicked: every update under the
    /// lock is one map operation, so the map is valid either way.
    fn memo(&self) -> MutexGuard<'_, HashMap<MemoKey, Memoized>> {
        self.memo.lock().unwrap_or_else(PoisonError::into_inner)
    }

    /// The exact answer memoized for `key`: its range and closure flag.
    fn exact_answer(&self, key: &MemoKey) -> Option<(ResultRange, bool)> {
        match self.memo().get(key) {
            Some(&Memoized::Exact { range, closed }) => Some((range, closed)),
            _ => None,
        }
    }

    /// The shed report memoized for `key`.
    fn shed_answer(&self, key: &MemoKey) -> Option<BoundReport> {
        match self.memo().get(key) {
            Some(Memoized::Shed(report)) => Some(BoundReport::clone(report)),
            _ => None,
        }
    }

    /// Store an answer under `key`. An exact answer replaces a shed one,
    /// never the reverse; a full memo takes no new key.
    fn memoize(&self, key: MemoKey, answer: Memoized) {
        let mut memo = self.memo();
        let full = memo.len() >= MEMO_CAP;
        match memo.entry(key) {
            Entry::Occupied(mut held)
                if matches!(
                    (held.get(), &answer),
                    (Memoized::Shed(_), Memoized::Exact { .. })
                ) =>
            {
                held.insert(answer);
            }
            Entry::Vacant(slot) if !full => {
                slot.insert(answer);
            }
            _ => {}
        }
    }
}

/// `query`'s region ∩ the catalog domain: the region the serve path
/// bounds over.
fn target_region(set: &PcSet, query: &AggQuery) -> Region {
    let mut target = query.predicate.to_region(set.schema());
    target.intersect(set.domain());
    target
}

/// A long-lived, mutable query-serving handle over a constraint catalog:
/// decompose once, specialize per query, delta-derive per mutation, chain
/// warm starts across queries and epochs. See the module docs.
///
/// All methods — including the catalog mutations — take `&self`; a
/// session is safe to share across threads. Queries pin the epoch current
/// when they start (snapshot isolation); mutations serialize.
pub struct Session {
    options: SessionOptions,
    current: Mutex<Arc<Epoch>>,
    /// Serializes catalog mutations *around* the expensive derivation so
    /// `current` — which every query's pin takes — is only ever held for
    /// an `Arc` read or swap. Lock order: `mutations` strictly before
    /// `current`.
    mutations: Mutex<()>,
    next_id: AtomicU64,
    warm: WarmCaches,
    /// Aggregate queued-deadline-pressure tracker driving admission
    /// control ([`SessionOptions::admission`]).
    pressure: PressureGauge,
    /// Cumulative answer-memo outcomes across every epoch (the memos
    /// themselves die with their epoch; the counters survive so
    /// `--stats` and the serve `stats` verb can report hit rates).
    memo_hits: AtomicU64,
    memo_misses: AtomicU64,
    shed_hits: AtomicU64,
    shed_misses: AtomicU64,
}

/// Cumulative answer-memo outcomes for one session, across every epoch.
/// See [`Session::memo_stats`] and the module docs.
#[derive(Debug, Clone, Copy, Default, PartialEq, Eq)]
pub struct MemoStats {
    /// Single queries and batch items answered from a stored exact
    /// answer, with no work.
    pub hits: u64,
    /// Single queries and batch items that looked up the memo and found
    /// no exact answer, so they ran (a query whose budget could no
    /// longer proceed does not look up).
    pub misses: u64,
    /// Shed answers served straight from the memo.
    pub shed_hits: u64,
    /// Shed answers that paid the one-granule walk (and stored it for
    /// the next repeat of the same key).
    pub shed_misses: u64,
}

impl Session {
    /// A session with default options. The seed constraints are admitted
    /// in order as ids `c0..cN-1`, at epoch 0.
    pub fn new(set: PcSet) -> Self {
        Session::with_options(set, SessionOptions::default())
    }

    /// A session with explicit options.
    pub fn with_options(set: PcSet, options: SessionOptions) -> Self {
        let seeded = set.len() as u64;
        let ids = (0..seeded).map(ConstraintId).collect();
        Session {
            options,
            current: Mutex::new(Arc::new(Epoch::new(0, Arc::new(set), ids, None))),
            mutations: Mutex::new(()),
            next_id: AtomicU64::new(seeded),
            warm: WarmCaches::new(options.bound.milp.warmth != Warmth::Cold),
            pressure: PressureGauge::new(),
            memo_hits: AtomicU64::new(0),
            memo_misses: AtomicU64::new(0),
            shed_hits: AtomicU64::new(0),
            shed_misses: AtomicU64::new(0),
        }
    }

    /// Cumulative answer-memo hit/miss counters (see [`MemoStats`]).
    /// Monotone across epochs. A high exact hit rate means repeated
    /// queries are answering from lookups instead of solves; a high shed
    /// hit rate under overload, that rejections are answering from
    /// lookups instead of one-granule walks.
    pub fn memo_stats(&self) -> MemoStats {
        MemoStats {
            hits: self.memo_hits.load(Ordering::Relaxed),
            misses: self.memo_misses.load(Ordering::Relaxed),
            shed_hits: self.shed_hits.load(Ordering::Relaxed),
            shed_misses: self.shed_misses.load(Ordering::Relaxed),
        }
    }

    /// The session's admission-control gauge (diagnostics: backlog and
    /// cumulative exact/degraded/shed counts).
    pub fn pressure(&self) -> &PressureGauge {
        &self.pressure
    }

    /// The session's configuration.
    pub fn options(&self) -> &SessionOptions {
        &self.options
    }

    /// The current epoch number: 0 at construction, +1 per catalog
    /// mutation.
    pub fn epoch(&self) -> u64 {
        self.pin().number
    }

    /// The live constraint ids, in the current epoch's constraint-index
    /// order.
    pub fn constraint_ids(&self) -> Vec<ConstraintId> {
        self.pin().ids.clone()
    }

    /// A snapshot of the current epoch's materialized constraint set.
    pub fn pc_set(&self) -> Arc<PcSet> {
        Arc::clone(&self.pin().set)
    }

    /// The current epoch's domain-wide decomposition as one flat
    /// (global-index) [`CellSet`], built on first use. Internally the
    /// epoch holds a [`ShardedCellSet`] — see [`Session::sharded_cell_set`]
    /// — whose flattening this lazily materializes. Fails with the
    /// decomposition's error (e.g. a [`crate::Strategy::Naive`]
    /// overflow), which every later query of this epoch then reports too.
    pub fn cell_set(&self) -> Result<Arc<CellSet>, BoundError> {
        let epoch = self.pin();
        Ok(self.cells_of(&epoch)?.flatten(&epoch.set))
    }

    /// The current epoch's decomposition factored over the
    /// constraint-interaction graph (one [`crate::shard::Shard`] per
    /// connected component), built on first use.
    pub fn sharded_cell_set(&self) -> Result<Arc<ShardedCellSet>, BoundError> {
        let epoch = self.pin();
        self.cells_of(&epoch)
    }

    /// Whether wide SAT checks may fan out (mirrors
    /// [`BoundEngine::par_witness`]).
    fn par_witness(&self) -> bool {
        self.options.bound.threads != 1
    }

    /// Pin the current epoch (the snapshot every query runs against).
    fn pin(&self) -> Arc<Epoch> {
        Arc::clone(&self.current.lock().unwrap())
    }

    /// The pinned epoch's cells, building them on first use.
    fn cells_of(&self, epoch: &Epoch) -> Result<Arc<ShardedCellSet>, BoundError> {
        epoch
            .cells
            .get_or_init(|| self.build_cells(epoch, &QueryBudget::unlimited()))
            .clone()
    }

    /// The pinned epoch's cells under a query budget. An already-built
    /// epoch is served as-is (zero extra work). A cold epoch is built
    /// under the budget — and **published only when the build finished
    /// clean**: a degraded decomposition (frontier cells, skipped closure
    /// probe) answers the triggering query and is then thrown away, so
    /// one starved query can never poison the epoch cache every later
    /// query reads.
    fn cells_of_budgeted(
        &self,
        epoch: &Epoch,
        budget: &QueryBudget,
    ) -> Result<Arc<ShardedCellSet>, BoundError> {
        if budget.is_unlimited() {
            return self.cells_of(epoch);
        }
        if let Some(built) = epoch.cells.get() {
            return built.clone();
        }
        let built = self.build_cells(epoch, budget);
        if budget.is_tripped() {
            return built;
        }
        // Clean build: publish (first writer wins; a concurrent clean
        // build of the same epoch is identical up to witness choice).
        let _ = epoch.cells.set(built);
        epoch.cells.get().expect("just published").clone()
    }

    /// One domain-wide decomposition of `epoch`'s catalog — one pool task
    /// per interaction-graph component ([`ShardedCellSet::build`]) — plus
    /// the closure counterexample cache. Under an armed budget the
    /// closure probe — potentially the widest SAT query of all — is
    /// skipped once the budget trips, and the container marked so
    /// [`ShardedCellSet::closed`] answers "open" (sound) instead of
    /// lying.
    fn build_cells(
        &self,
        epoch: &Epoch,
        budget: &QueryBudget,
    ) -> Result<Arc<ShardedCellSet>, BoundError> {
        let base = epoch.set.domain().clone();
        let mut sharded =
            ShardedCellSet::build(&epoch.set, &self.options.bound, base.clone(), budget)?;
        // Cache the closure *counterexample*, not just the verdict: a
        // non-closed epoch would otherwise re-prove non-closure with the
        // widest SAT query on every bound. Closure is a global question,
        // probed once across all shards.
        let mut closure_skipped = false;
        let uncovered = if !self.options.bound.check_closure {
            None
        } else if !budget.proceed() {
            closure_skipped = true;
            None
        } else {
            epoch.set.uncovered_witness_with(&base, self.par_witness())
        };
        sharded.set_closure(uncovered, closure_skipped);
        Ok(Arc::new(sharded))
    }

    // ------------------------------------------------------------------
    // Catalog mutations
    // ------------------------------------------------------------------

    /// Admit a constraint into the catalog, producing a new epoch. The
    /// returned id is stable for the session's lifetime.
    pub fn add_constraint(&self, pc: PredicateConstraint) -> ConstraintId {
        self.add_constraint_stamped(pc, &QueryBudget::unlimited()).0
    }

    /// [`Session::add_constraint`] with the incremental derivation
    /// metered by `budget`, additionally returning the epoch number the
    /// mutation created — the number a serving tier stamps on the
    /// mutation's wire response, captured inside the mutation lock so
    /// concurrent mutations cannot misattribute it. The mutation itself
    /// **always succeeds** — the new epoch's catalog is installed
    /// regardless. What the budget governs is the eager cell derivation:
    /// if it trips mid-derivation, the partially-derived cells are
    /// **discarded** (never published as the epoch's cache) and the
    /// epoch's cells stay lazy, rebuilt by the first query that needs
    /// them. The catalog never serves a half-built [`CellSet`].
    pub fn add_constraint_stamped(
        &self,
        pc: PredicateConstraint,
        budget: &QueryBudget,
    ) -> (ConstraintId, u64) {
        let mut mutation = self.mutation();
        let id = mutation.add(pc, budget);
        (id, mutation.install())
    }

    /// Retire a constraint from the catalog, producing a new epoch.
    pub fn retire_constraint(&self, id: ConstraintId) -> Result<(), UnknownConstraint> {
        self.retire_constraint_stamped(id).map(|_| ())
    }

    /// [`Session::retire_constraint`], returning the epoch number the
    /// retirement created (see [`Session::add_constraint_stamped`]).
    pub fn retire_constraint_stamped(&self, id: ConstraintId) -> Result<u64, UnknownConstraint> {
        let mut mutation = self.mutation();
        mutation.retire(id)?;
        Ok(mutation.install())
    }

    /// Swap one constraint for another in a **single** epoch (a retire
    /// and an add fused, so no query can observe the half-churned
    /// catalog). Returns the replacement's fresh id.
    pub fn replace_constraint(
        &self,
        id: ConstraintId,
        pc: PredicateConstraint,
    ) -> Result<ConstraintId, UnknownConstraint> {
        self.replace_constraint_stamped(id, pc, &QueryBudget::unlimited())
            .map(|(new_id, _)| new_id)
    }

    /// [`Session::replace_constraint`] with the add half's derivation
    /// metered by `budget` (the contract of
    /// [`Session::add_constraint_stamped`]: the swap always lands; a
    /// tripped derivation is discarded and the new epoch's cells rebuild
    /// lazily), returning the replacement id *and* the epoch number the
    /// swap created.
    pub fn replace_constraint_stamped(
        &self,
        id: ConstraintId,
        pc: PredicateConstraint,
        budget: &QueryBudget,
    ) -> Result<(ConstraintId, u64), UnknownConstraint> {
        let mut mutation = self.mutation();
        mutation.retire(id)?;
        let new_id = mutation.add(pc, budget);
        Ok((new_id, mutation.install()))
    }

    /// Start a catalog mutation: take the mutation lock and draft the next
    /// epoch from the current one.
    fn mutation(&self) -> Mutation<'_> {
        // A mutation that unwound installed nothing, so the lock it
        // poisoned still guards an intact current epoch.
        let lock = self
            .mutations
            .lock()
            .unwrap_or_else(PoisonError::into_inner);
        // `prev` cannot move under us: only mutations swap `current`, and
        // they all serialize on the lock above — so the expensive
        // derivation runs with `current` free for query pins.
        let prev = self.pin();
        Mutation {
            session: self,
            _lock: lock,
            ids: prev.ids.clone(),
            set: Arc::clone(&prev.set),
            cells: self.derivable(&prev),
            work: DecomposeStats::default(),
            prev,
        }
    }

    /// The add half of a derivation: closure counterexample carry (a
    /// closed base stays closed; a dodging counterexample carries; a
    /// swallowed one re-checks), then the **shard-local** incremental
    /// cell split ([`ShardedCellSet::derive_add`]): only the shard(s)
    /// whose boxes the new constraint overlaps re-derive, the rest carry
    /// by `Arc`. The base's *known-closed* verdict is passed down so the
    /// owning shard can skip the new-constraint-only probe outright (no
    /// point of a closed base avoids every old predicate).
    fn derived_add(
        &self,
        prev_cells: &ShardedCellSet,
        pc: &PredicateConstraint,
        set: &PcSet,
        budget: &QueryBudget,
    ) -> Result<ShardedCellSet, BoundError> {
        let parallel = self.par_witness();
        let check_closure = self.options.bound.check_closure;
        let base_known_closed = check_closure && prev_cells.closed();
        let uncovered = if !check_closure {
            None
        } else {
            match prev_cells.uncovered() {
                // coverage grows: a closed epoch stays closed
                None => None,
                // the cached counterexample dodges the new predicate:
                // still uncovered, no SAT call
                Some(w) if !pc.predicate.eval(w) => Some(w.to_vec()),
                // the new constraint swallowed the counterexample — one
                // exact re-check decides (skipped once the budget trips:
                // the tripped derivation is discarded by the caller, so
                // the placeholder value is never served)
                Some(_) => {
                    if budget.proceed() {
                        set.uncovered_witness_with(set.domain(), parallel)
                    } else {
                        None
                    }
                }
            }
        };
        prev_cells.derive_add(
            set,
            &self.options.bound,
            uncovered,
            base_known_closed,
            budget,
        )
    }

    /// The previous epoch's cells, when the new epoch should be derived
    /// from them: incremental mode on, the cell cache on, and the cells
    /// actually built (mutations before the first query stay free — the
    /// first query then decomposes the new catalog directly). A previous
    /// epoch whose build *errored* replays the error lazily instead.
    fn derivable(&self, prev: &Epoch) -> Option<Arc<ShardedCellSet>> {
        if !(self.options.incremental && self.options.cache_cells) {
            return None;
        }
        match prev.cells.get() {
            Some(Ok(cells)) => Some(Arc::clone(cells)),
            _ => None,
        }
    }

    /// Closure counterexample after retiring `removed`: an uncovered
    /// point stays uncovered when coverage shrinks; a previously closed
    /// epoch can only open a hole inside the retired constraint's box, so
    /// the re-check is confined there.
    fn retired_uncovered(
        &self,
        prev_cells: &ShardedCellSet,
        removed: &PredicateConstraint,
        new_set: &PcSet,
    ) -> Option<Vec<f64>> {
        if !self.options.bound.check_closure {
            return None;
        }
        match prev_cells.uncovered() {
            Some(w) => Some(w.to_vec()),
            None => {
                let mut within = prev_cells.base().clone();
                for atom in removed.predicate.atoms() {
                    within.intersect_atom(atom);
                }
                new_set.uncovered_witness_with(&within, self.par_witness())
            }
        }
    }

    // ------------------------------------------------------------------
    // Serving
    // ------------------------------------------------------------------

    /// Compute the result range of one query against the epoch current at
    /// the call, reusing its cached decomposition and the session's
    /// warm-start chains. Returns what [`BoundEngine::bound`] would
    /// against the same catalog snapshot, up to solver tolerance (see
    /// the module docs' invalidation section: the warm chains are what
    /// can move the last bits).
    pub fn bound(&self, query: &AggQuery) -> Result<BoundReport, BoundError> {
        self.bound_ticketed_stamped(query, &QueryBudget::unlimited(), None)
            .1
    }

    /// Arrival-time admission for open-loop serving: judge the query
    /// against the pressure gauge *now* — before it is enqueued — and
    /// return the detached ticket to hand to
    /// [`Session::bound_ticketed_stamped`] wherever the query eventually
    /// runs. Under sustained overload the queue is where deadlines die;
    /// judging at run start would admit every arrival into a queue none
    /// of them can survive. `None` when the query bypasses admission (no
    /// deadline, or admission off) or when the current epoch's memo
    /// already holds its exact answer: a lookup is no backlog, so it
    /// charges none. Pass the result through either way; should the run
    /// land on a newer epoch and miss, it is judged when it starts.
    pub fn admit(&self, query: &AggQuery, budget: &QueryBudget) -> Option<SchedTicket> {
        self.admission_deadline(budget)?;
        let epoch = self.pin();
        let target = target_region(&epoch.set, query);
        if self
            .memo_key(query, &target)
            .is_some_and(|key| epoch.exact_answer(&key).is_some())
        {
            return None;
        }
        self.judge(budget, || self.cost_factor(&epoch, &target))
    }

    /// [`Session::bound`] under a [`QueryBudget`], on the verdict of
    /// `ticket`, additionally returning the number of the epoch the
    /// answer was computed against — the **snapshot stamp** a serving
    /// tier puts on every wire response. The stamp and the answer come
    /// from the same single pin, so under concurrent catalog churn the
    /// pair is consistent by construction.
    ///
    /// `ticket` is the arrival-time verdict from [`Session::admit`]; with
    /// `None`, a deadline-armed query is judged when its run starts. The
    /// scheduling outcome is stamped on [`BoundReport::sched`], and the
    /// ticket is settled however the run ends, a panic included. A query
    /// the epoch has already answered exactly takes that answer from the
    /// memo before admission (module docs): a ticket issued before the
    /// answer was stored is settled with no run time, so a hit never
    /// calibrates the gauge.
    ///
    /// The budget meters the whole serve path — epoch build (cold epochs
    /// only), per-query specialization, closure checks, and the
    /// allocation MILPs. On a trip the query still answers, sound but
    /// wider, with [`BoundReport::degraded`] set; a degraded epoch build
    /// serves only this query and is never published to the epoch cache
    /// (see [`crate::budget`] for the degradation ladder).
    pub fn bound_ticketed_stamped(
        &self,
        query: &AggQuery,
        budget: &QueryBudget,
        ticket: Option<SchedTicket>,
    ) -> (u64, Result<BoundReport, BoundError>) {
        let epoch = self.pin();
        let result = self.bound_admitted(&epoch, query, budget, ticket);
        (epoch.number, result)
    }

    /// The deadline admission judges `budget` by: `None` when admission
    /// does not apply (no armed deadline, or admission off).
    fn admission_deadline(&self, budget: &QueryBudget) -> Option<Instant> {
        budget.deadline().filter(|_| self.options.admission)
    }

    /// Judge an arrival against the pressure gauge at `cost_factor()`:
    /// `None` when admission does not apply, and the query then runs
    /// exact.
    fn judge(
        &self,
        budget: &QueryBudget,
        cost_factor: impl FnOnce() -> f64,
    ) -> Option<SchedTicket> {
        let deadline = self.admission_deadline(budget)?;
        Some(self.pressure.admit_ticket(cost_factor(), Some(deadline)))
    }

    /// One query against `epoch`: from the memo when the epoch holds its
    /// exact answer, otherwise through [`Session::run_admitted`].
    fn bound_admitted(
        &self,
        epoch: &Epoch,
        query: &AggQuery,
        budget: &QueryBudget,
        ticket: Option<SchedTicket>,
    ) -> Result<BoundReport, BoundError> {
        let target = target_region(&epoch.set, query);
        let key = self.memo_key(query, &target);
        if let Some(report) = key
            .as_ref()
            .and_then(|key| self.recall_exact(epoch, key, budget))
        {
            // A hit runs no rung: its charge goes back, and its (zero)
            // run time says nothing about any rung's service cost.
            if let Some(ticket) = ticket {
                self.pressure.settle_waited(ticket, None, None);
            }
            return Ok(report);
        }
        self.run_admitted(
            budget,
            ticket,
            || self.cost_factor(epoch, &target),
            Result::is_ok,
            |sched| self.run_rung(epoch, query, &target, key, budget, sched),
        )
    }

    /// The memo key of `query`, whose region ∩ the catalog domain is
    /// `target`, or `None` when the session keeps no memo
    /// ([`SessionOptions::cache_cells`] off).
    fn memo_key(&self, query: &AggQuery, target: &Region) -> Option<MemoKey> {
        self.options
            .cache_cells
            .then(|| MemoKey::new(query, target))
    }

    /// The epoch's exact answer for `key`, reported with no work and a
    /// bypass schedule — but only while `budget` can still proceed: a
    /// cancelled or expired query runs (and degrades) as it would have.
    fn recall_exact(
        &self,
        epoch: &Epoch,
        key: &MemoKey,
        budget: &QueryBudget,
    ) -> Option<BoundReport> {
        if !budget.proceed() {
            return None;
        }
        let Some((range, closed)) = epoch.exact_answer(key) else {
            self.memo_misses.fetch_add(1, Ordering::Relaxed);
            return None;
        };
        self.memo_hits.fetch_add(1, Ordering::Relaxed);
        Some(BoundReport {
            range,
            closed,
            stats: DecomposeStats::default(),
            solver: LpWork::default(),
            degraded: false,
            shard_sat_checks: Vec::new(),
            trip: None,
            sched: Some(SchedReport::bypass(budget)),
        })
    }

    /// The one run path of every admitted unit of work: a single query,
    /// each item of a batch, or one whole GROUP-BY call.
    ///
    /// * The ticket comes from [`Session::admit`] at arrival; given
    ///   `None`, it is issued here at run start, at `cost_factor()`,
    ///   wherever admission applies ([`Session::judge`]). No ticket means
    ///   the exact rung and a [`SchedReport::bypass`].
    /// * The ticket becomes the run's [`SchedReport`], after the
    ///   pop-time re-check: the verdict was judged against a *predicted*
    ///   queue wait, and by now the wait is a fact. A query whose
    ///   remaining slack no longer covers its rung's estimated cost would
    ///   burn pool work on an answer that will degrade mid-run anyway, so
    ///   it is demoted to the cheapest sound path (the shed rung)
    ///   instead. Expired deadlines are the zero-slack special case.
    /// * `run` executes the rung.
    /// * One guard settles the ticket on every exit path, unwinding
    ///   included. The run time calibrates the gauge's service estimates
    ///   only when `calibrates` accepts the outcome of the rung the ticket
    ///   was charged for; the queue wait an arrival ticket observed feeds
    ///   the drain-rate feedback either way.
    fn run_admitted<T>(
        &self,
        budget: &QueryBudget,
        ticket: Option<SchedTicket>,
        cost_factor: impl FnOnce() -> f64,
        calibrates: fn(&T) -> bool,
        run: impl FnOnce(SchedReport) -> T,
    ) -> T {
        // A ticket issued at run start has no queue wait to observe.
        let arrived = ticket.is_some();
        let ticket = ticket.or_else(|| self.judge(budget, cost_factor));
        // The wait ends where the run starts, not where it returns.
        let mut sched = SchedReport::bypass(budget);
        let run_started = Instant::now();
        let mut demoted = false;
        let mut settle = Settle {
            gauge: &self.pressure,
            ticket: None,
            observed_wait: None,
            run_time: None,
        };
        if let Some(ticket) = ticket {
            demoted = ticket.verdict() != AdmissionVerdict::Shed
                && budget.deadline().is_some_and(|d| {
                    d.saturating_duration_since(run_started) < ticket.estimated_cost()
                });
            sched = SchedReport {
                verdict: if demoted {
                    AdmissionVerdict::Shed
                } else {
                    ticket.verdict()
                },
                backlog: ticket.backlog_at_admission(),
                estimated_cost: ticket.estimated_cost(),
                ..sched
            };
            settle.observed_wait = arrived.then_some(sched.queue_wait);
            settle.ticket = Some(ticket);
        }
        let out = run(sched);
        // A demoted run took the shed path, not the rung the ticket was
        // charged for: its (near-zero) elapsed time says nothing about
        // that rung's service cost.
        if !demoted && calibrates(&out) {
            settle.run_time = Some(run_started.elapsed());
        }
        out
    }

    /// Execute one rung of the admission ladder: Degraded skips straight
    /// to the cheap engine configuration (LP relaxation instead of
    /// branch & bound) under the caller's own budget; Shed runs under a
    /// budget born tripped, so every stage — the closure probe included —
    /// degrades within its first granule, which is the cheapest sound
    /// answer the engine has. Note `check_closure` stays as configured:
    /// turning it off *assumes* closure (a tightening), while a tripped
    /// budget skips the probe as "open" (a widening) — only the latter
    /// is sound. Both rungs only ever *widen* the range (property-tested
    /// in `prop_sched.rs`). The rung is `sched.verdict`, which the report
    /// carries.
    ///
    /// With a memo `key`, a shed run first looks for the epoch's shed
    /// answer, and the run's answer is stored: an exact one when it
    /// answered `Ok`, undegraded and untripped (range and closure flag
    /// only), a shed one always.
    fn run_rung(
        &self,
        epoch: &Epoch,
        query: &AggQuery,
        target: &Region,
        key: Option<MemoKey>,
        budget: &QueryBudget,
        sched: SchedReport,
    ) -> Result<BoundReport, BoundError> {
        let verdict = sched.verdict;
        let mut opts = self.options.bound;
        let shed_budget;
        let run_budget = match verdict {
            AdmissionVerdict::Exact => budget,
            AdmissionVerdict::Degraded => {
                opts.lp_relax_cell_limit = 0;
                budget
            }
            AdmissionVerdict::Shed => {
                opts.lp_relax_cell_limit = 0;
                // Serial on the caller's worker: a shed query is a
                // *rejection* — forking its (budget-tripped, trivial)
                // per-cell tasks would hand other workers steals that
                // compete with the admitted queries the shed exists to
                // protect, for tasks of one granule each.
                opts.threads = 1;
                if let Some(key) = &key {
                    if let Some(mut report) = epoch.shed_answer(key) {
                        self.shed_hits.fetch_add(1, Ordering::Relaxed);
                        report.sched = Some(sched);
                        return Ok(report);
                    }
                    self.shed_misses.fetch_add(1, Ordering::Relaxed);
                }
                shed_budget = QueryBudget::pre_tripped(TripReason::Deadline);
                &shed_budget
            }
        };
        let mut result = self.bound_serve(epoch, query, target, run_budget, opts);
        if let Ok(report) = &mut result {
            report.degraded |= verdict != AdmissionVerdict::Exact;
            report.sched = Some(sched);
            if report.degraded && report.trip.is_none() {
                report.trip = run_budget
                    .trip_reason()
                    .or(Some(TripReason::Deadline).filter(|_| verdict != AdmissionVerdict::Exact));
            }
            match (key, verdict) {
                (Some(key), AdmissionVerdict::Exact)
                    if !report.degraded && !run_budget.is_tripped() =>
                {
                    let (range, closed) = (report.range, report.closed);
                    epoch.memoize(key, Memoized::Exact { range, closed });
                }
                (Some(key), AdmissionVerdict::Shed) => {
                    epoch.memoize(key, Memoized::Shed(Box::new(report.clone())));
                }
                _ => {}
            }
        }
        result
    }

    /// Estimated relative cost of `query` against this epoch: the
    /// normalized box volumes ([`crate::estimate::volume`]) of the
    /// constraints the query region reaches (the engine's reach test,
    /// [`crate::specialize::overlaps_region`]), over the whole catalog's.
    /// A query touching about half the catalog's mass scores ~1.0; the
    /// gauge multiplies this into its learned per-query service-time
    /// EWMA. `target` is the query's region ∩ the catalog domain
    /// ([`target_region`]).
    fn cost_factor(&self, epoch: &Epoch, target: &Region) -> f64 {
        let mut total = 0.0;
        let mut touched = 0.0;
        for pc in epoch.set.constraints() {
            let volume = crate::estimate::volume(&epoch.set, pc);
            total += volume;
            if crate::specialize::overlaps_region(pc, target) {
                touched += volume;
            }
        }
        if total <= 0.0 {
            1.0
        } else {
            (1.0 + touched) / (1.0 + 0.5 * total)
        }
    }

    /// The serve body: specialize the pinned epoch's cells to the query,
    /// whose region ∩ the catalog domain is `target`, and bound. `opts`
    /// is the admission layer's (possibly downgraded) engine
    /// configuration.
    fn bound_serve(
        &self,
        epoch: &Epoch,
        query: &AggQuery,
        target: &Region,
        budget: &QueryBudget,
        opts: BoundOptions,
    ) -> Result<BoundReport, BoundError> {
        let warm = self.warm.for_current_worker();
        let set = &*epoch.set;
        let engine = BoundEngine::with_options(set, opts);
        if !self.options.cache_cells {
            // Cold cells, warm chains: the honest baseline for the cache
            // knob still benefits from cross-query tableau reuse.
            return engine.bound_with_warm(query, warm, budget);
        }
        let sharded = self.cells_of_budgeted(epoch, budget)?;

        // One slice per epoch shard: only shards whose boxes the query
        // region touches pay specialization; an untouched shard
        // contributes an empty slice (no satisfiable cell of it meets the
        // region), and a shard wholly *inside* the region shares its
        // domain-wide cells verbatim — offering its cached per-aggregate
        // summary too.
        let mut slices = Vec::with_capacity(sharded.shards().len());
        for shard in sharded.shards() {
            // A shard holding the whole catalog in catalog order is the
            // epoch's own set: its cells already carry the engine's
            // indices, so the engine bounds it with no sub-engine.
            let members = shard.members();
            let whole = members.iter().copied().eq(0..set.len());
            let part = (!whole).then(|| (&**shard.set(), members));
            let mut stats = DecomposeStats::default();
            let (cells, cache) = if !shard.touches(target) {
                (Vec::new(), None)
            } else if shard.contained_in(target) {
                // every member box ⊆ target ⇒ every cell region ⊆ target:
                // specialization is the identity, share without the scan
                (shard.cells().cells().to_vec(), Some(&**shard))
            } else {
                let cells = shard.cells().specialize_budgeted(
                    shard.set(),
                    target,
                    &mut stats,
                    engine.par_witness(),
                    budget,
                );
                (cells, None)
            };
            slices.push(ShardSlice {
                part,
                cells,
                stats,
                cache,
            });
        }
        let closed = engine.closure(target, Some(&sharded), budget);
        engine.bound_slices(query, target, closed, slices, sharded.stats(), warm, budget)
    }

    /// Bound a batch of queries, each as its own stealable pool task;
    /// results come back in input order. The **whole batch pins one
    /// epoch** — a concurrent mutation affects either every result or
    /// none (tested in `tests/prop_epoch.rs`). The cell cache is primed
    /// once before the fan-out so the workers specialize instead of
    /// racing to decompose.
    pub fn bound_many(&self, queries: &[AggQuery]) -> Vec<Result<BoundReport, BoundError>> {
        self.bound_many_stamped(queries, &QueryBudget::unlimited())
            .1
    }

    /// [`Session::bound_many`] under one [`QueryBudget`] shared by the
    /// whole batch, additionally returning the number of the single epoch
    /// the whole batch was answered from, for serving tiers that stamp
    /// responses. Every query's SAT checks and branch-and-bound nodes
    /// charge the same meter, and a deadline cuts the *batch*, not each
    /// query separately; each query is admitted on its own when its task
    /// starts. Tripped queries degrade individually (sound, wider,
    /// [`BoundReport::degraded`] set) — the batch always returns one
    /// result per query, in input order.
    ///
    /// Each query runs behind a panic boundary: a query whose solve
    /// panics comes back as [`BoundError::Panicked`] while its siblings,
    /// the session, and the epoch cache stay intact (the panicking
    /// worker's warm-cache slot is cleared on next use, so no torn
    /// solver state survives).
    pub fn bound_many_stamped(
        &self,
        queries: &[AggQuery],
        budget: &QueryBudget,
    ) -> (u64, Vec<Result<BoundReport, BoundError>>) {
        let epoch = self.pin();
        let threads = self.fan_out(&epoch, budget, queries.len());
        let results = pooled_map_catch(queries, threads, &|query| {
            self.bound_admitted(&epoch, query, budget, None)
        })
        .into_iter()
        .map(|result| result.unwrap_or(Err(BoundError::Panicked)))
        .collect();
        (epoch.number, results)
    }

    /// Bound a GROUP-BY against the epoch current at the call: every key
    /// is one keyed query (the base predicate with `group_attr = key`
    /// conjoined, see [`BoundEngine::bound_group_by`]) run on the rung a
    /// [`Session::bound_many`] query runs, so each key specializes the
    /// epoch's cell cache to its slice. A key stores its answer in the
    /// epoch's memo but never takes one from it: every key is computed.
    /// Results come back in key order.
    pub fn bound_group_by(
        &self,
        base: &AggQuery,
        group_attr: usize,
        keys: impl IntoIterator<Item = f64>,
    ) -> Vec<GroupBound> {
        self.bound_group_by_stamped(base, group_attr, keys, &QueryBudget::unlimited())
            .1
    }

    /// [`Session::bound_group_by`] under one [`QueryBudget`] shared by
    /// every key, additionally returning the number of the single epoch
    /// every group was answered from, for serving tiers that stamp
    /// responses. With a deadline armed and admission on, the whole call
    /// is admitted once, at the cost of all its keys, and every key runs
    /// the rung of that one verdict; each key's report carries the
    /// call's [`SchedReport`]. A tripped or shed key still answers, sound
    /// but wider, with [`BoundReport::degraded`] and its trip reason set.
    /// A key whose task panics comes back as [`BoundError::Panicked`].
    pub fn bound_group_by_stamped(
        &self,
        base: &AggQuery,
        group_attr: usize,
        keys: impl IntoIterator<Item = f64>,
        budget: &QueryBudget,
    ) -> (u64, Vec<GroupBound>) {
        let epoch = self.pin();
        let keys: Vec<f64> = keys.into_iter().collect();
        let threads = self.fan_out(&epoch, budget, keys.len());
        let groups = self.run_admitted(
            budget,
            None,
            || {
                let target = target_region(&epoch.set, base);
                self.cost_factor(&epoch, &target) * keys.len().max(1) as f64
            },
            |_| true,
            |sched| {
                bound_keys(base, group_attr, &keys, threads, &|query| {
                    let target = target_region(&epoch.set, query);
                    let key = self.memo_key(query, &target);
                    self.run_rung(&epoch, query, &target, key, budget, sched)
                })
            },
        );
        (epoch.number, groups)
    }

    /// Prepare a fan-out of `n` tasks against `epoch`: prime its cell
    /// cache once, so the tasks specialize instead of racing to
    /// decompose, and return the task thread count. A build error replays
    /// in each task; under a budget, a degraded build stays unpublished
    /// and each task rebuilds or degrades for itself.
    fn fan_out(&self, epoch: &Epoch, budget: &QueryBudget, n: usize) -> usize {
        if self.options.cache_cells && n > 0 {
            let _ = self.cells_of_budgeted(epoch, budget);
        }
        BoundEngine::with_options(&epoch.set, self.options.bound).task_threads(n)
    }
}

/// One catalog mutation in progress. It holds the session's mutation
/// lock and drafts the next epoch one delta at a time: an add or a retire
/// moves the drafted catalog and, when the previous epoch's cells were
/// built, its incrementally derived cells by one constraint; a replace chains a retire and an add. Nothing is visible
/// to queries before [`Mutation::install`]: a mutation dropped without it
/// (an unknown id, or an unwind) leaves the current epoch as it was.
struct Mutation<'s> {
    session: &'s Session,
    _lock: MutexGuard<'s, ()>,
    prev: Arc<Epoch>,
    ids: Vec<ConstraintId>,
    set: Arc<PcSet>,
    /// The drafted catalog's cells; `None` when the new epoch builds its
    /// cells lazily (none to derive from, or a derivation that failed or
    /// tripped its budget).
    cells: Option<Arc<ShardedCellSet>>,
    /// The derivation work of this mutation's deltas so far.
    work: DecomposeStats,
}

impl Mutation<'_> {
    /// The add delta: append `pc` under a fresh id, deriving the cells
    /// under `budget`.
    fn add(&mut self, pc: PredicateConstraint, budget: &QueryBudget) -> ConstraintId {
        let session = self.session;
        let id = ConstraintId(session.next_id.fetch_add(1, Ordering::SeqCst));
        self.ids.push(id);
        let mut set = (*self.set).clone();
        // a new constraint may overlap the existing ones arbitrarily; the
        // disjointness fast path must not survive on a stale hint
        set.set_disjoint_hint(false);
        set.push(pc.clone());
        self.set = Arc::new(set);
        // A failed shard re-decomposition (e.g. a merge overflowing the
        // naive strategy) stays unpublished; the error replays from the
        // lazy rebuild instead.
        let derived = self
            .cells
            .take()
            .and_then(|prev| session.derived_add(&prev, &pc, &self.set, budget).ok());
        if let Some(cells) = derived.filter(|_| !budget.is_tripped()) {
            self.adopt(cells);
        }
        id
    }

    /// The retire delta: drop `id` from the catalog (zero SAT checks in
    /// the cells).
    fn retire(&mut self, id: ConstraintId) -> Result<(), UnknownConstraint> {
        let Some(index) = self.ids.iter().position(|&i| i == id) else {
            return Err(UnknownConstraint(id));
        };
        self.ids.remove(index);
        let mut set = (*self.set).clone();
        let removed = set.remove_constraint(index);
        self.set = Arc::new(set);
        if let Some(prev) = self.cells.take() {
            let session = self.session;
            let uncovered = session.retired_uncovered(&prev, &removed, &self.set);
            self.adopt(prev.derive_retire(&self.set, index, &session.options.bound, uncovered));
        }
        Ok(())
    }

    /// Draft one delta's derived cells; their stats report the work of
    /// every delta of this mutation.
    fn adopt(&mut self, mut cells: ShardedCellSet) {
        cells.absorb_stats(self.work);
        self.work = cells.stats();
        self.cells = Some(Arc::new(cells));
    }

    /// Swap the drafted epoch in — the only place `current` is written,
    /// held just long enough for the `Arc` assignment — and return its
    /// number.
    fn install(self) -> u64 {
        let number = self.prev.number + 1;
        let epoch = Epoch::new(number, self.set, self.ids, self.cells);
        let mut current = self.session.current.lock().unwrap();
        debug_assert!(
            Arc::ptr_eq(&current, &self.prev),
            "mutations serialize on the mutation lock"
        );
        *current = Arc::new(epoch);
        number
    }
}

/// Settles an admission ticket when dropped, so every exit of a run — a
/// return, an error or an unwind — releases the ticket's charge on the
/// gauge exactly once. `run_time`, set only on a calibrating success,
/// feeds the service estimates; `observed_wait` the drain-rate feedback.
struct Settle<'g> {
    gauge: &'g PressureGauge,
    ticket: Option<SchedTicket>,
    observed_wait: Option<Duration>,
    run_time: Option<Duration>,
}

impl Drop for Settle<'_> {
    fn drop(&mut self) {
        if let Some(ticket) = self.ticket.take() {
            self.gauge
                .settle_waited(ticket, self.run_time, self.observed_wait);
        }
    }
}

// ----------------------------------------------------------------------
// Multi-tenant registry
// ----------------------------------------------------------------------

/// The tenant name already has a catalog ([`SessionRegistry::create`]).
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct TenantExists(pub String);

impl std::fmt::Display for TenantExists {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        write!(f, "tenant `{}` already exists", self.0)
    }
}

impl std::error::Error for TenantExists {}

/// In-flight bookkeeping behind [`SessionRegistry`]'s drain protocol:
/// how many queries are running, the cancel token of each (keyed by a
/// registry-issued serial so drops are exact under concurrency), and how
/// many [`SessionRegistry::drained_within`] calls wait for the count to
/// reach 0 — the last guard to drop notifies only when one does, so the
/// per-query path pays no wake-up syscall outside a drain.
#[derive(Default)]
struct Inflight {
    count: usize,
    tokens: HashMap<u64, CancelToken>,
    waiters: usize,
}

/// A multi-tenant catalog directory plus the serving tier's **drain
/// protocol** — the piece of graceful shutdown that must live next to
/// the sessions rather than in the network layer.
///
/// * **Tenants**: one [`Session`] per name, created/dropped/listed under
///   a `RwLock` (reads are the per-request lookup path; mutations are
///   rare admin verbs). Each tenant owns its catalog, its epochs, its
///   warm caches, and its own [`PressureGauge`] — one tenant's overload
///   sheds *its* queries, not its neighbors'.
/// * **Drain**: every query registers via [`SessionRegistry::begin_query`]
///   before running and holds the returned [`QueryGuard`] for its
///   duration. [`SessionRegistry::begin_drain`] flips the registry into
///   draining (all later `begin_query` calls answer `None` — reject new
///   work) and fires the [`CancelToken`] of every in-flight query, which
///   trips their budgets at the next granule — they finish early with
///   sound degraded answers. [`SessionRegistry::drained_within`] then
///   waits (bounded) for the guards to drop.
pub struct SessionRegistry {
    tenants: RwLock<HashMap<String, Arc<Session>>>,
    inflight: Mutex<Inflight>,
    idle: Condvar,
    draining: AtomicBool,
    next_query: AtomicU64,
}

impl Default for SessionRegistry {
    fn default() -> Self {
        SessionRegistry::new()
    }
}

impl SessionRegistry {
    /// An empty registry, accepting work.
    pub fn new() -> Self {
        SessionRegistry {
            tenants: RwLock::new(HashMap::new()),
            inflight: Mutex::new(Inflight::default()),
            idle: Condvar::new(),
            draining: AtomicBool::new(false),
            next_query: AtomicU64::new(0),
        }
    }

    /// Register `session` under `name`. Errors if the name is taken —
    /// admin verbs should fail loudly, not silently swap a live catalog
    /// out from under its connections.
    pub fn create(&self, name: &str, session: Session) -> Result<Arc<Session>, TenantExists> {
        let mut tenants = self.tenants.write().unwrap();
        if tenants.contains_key(name) {
            return Err(TenantExists(name.to_string()));
        }
        let session = Arc::new(session);
        tenants.insert(name.to_string(), Arc::clone(&session));
        Ok(session)
    }

    /// Drop the tenant; `true` if it existed. Connections still holding
    /// the `Arc` finish their in-flight queries against the final epoch;
    /// new lookups fail.
    pub fn drop_tenant(&self, name: &str) -> bool {
        self.tenants.write().unwrap().remove(name).is_some()
    }

    /// The tenant's session, if registered.
    pub fn get(&self, name: &str) -> Option<Arc<Session>> {
        self.tenants.read().unwrap().get(name).cloned()
    }

    /// Registered tenant names, sorted (stable listing for the wire).
    pub fn names(&self) -> Vec<String> {
        let mut names: Vec<String> = self.tenants.read().unwrap().keys().cloned().collect();
        names.sort();
        names
    }

    /// Number of queries currently in flight (guards alive).
    pub fn inflight(&self) -> usize {
        self.inflight.lock().unwrap().count
    }

    /// Whether [`SessionRegistry::begin_drain`] has been called.
    pub fn is_draining(&self) -> bool {
        self.draining.load(Ordering::SeqCst)
    }

    /// Admit one query into the in-flight set: `None` once draining
    /// (callers answer "shutting down" and send no work), otherwise a
    /// guard whose drop retires the query. The budget's [`CancelToken`]
    /// — if armed — is held for the guard's lifetime so a later drain
    /// can trip the query mid-run.
    pub fn begin_query(&self, budget: &QueryBudget) -> Option<QueryGuard<'_>> {
        let mut inflight = self.inflight.lock().unwrap();
        // Checked under the lock: `begin_drain` fires tokens under the
        // same lock, so a query admitted here is either cancelled by the
        // drain or finishes before the drain observes the set — never
        // missed.
        if self.is_draining() {
            return None;
        }
        let key = self.next_query.fetch_add(1, Ordering::Relaxed);
        inflight.count += 1;
        if let Some(token) = budget.cancel_token() {
            inflight.tokens.insert(key, token);
        }
        Some(QueryGuard {
            registry: self,
            key,
        })
    }

    /// Stop accepting queries and cancel every in-flight one. Idempotent.
    pub fn begin_drain(&self) {
        let inflight = self.inflight.lock().unwrap();
        self.draining.store(true, Ordering::SeqCst);
        for token in inflight.tokens.values() {
            token.cancel();
        }
    }

    /// Wait (bounded) for the in-flight set to empty. `true` when every
    /// query retired inside `timeout`; `false` means something is still
    /// running — the caller decides whether to detach or keep waiting.
    pub fn drained_within(&self, timeout: Duration) -> bool {
        let deadline = Instant::now() + timeout;
        let mut inflight = self.inflight.lock().unwrap();
        inflight.waiters += 1;
        while inflight.count > 0 {
            let Some(left) = deadline.checked_duration_since(Instant::now()) else {
                break;
            };
            inflight = self.idle.wait_timeout(inflight, left).unwrap().0;
        }
        inflight.waiters -= 1;
        inflight.count == 0
    }
}

/// Liveness token for one in-flight query (see
/// [`SessionRegistry::begin_query`]). Drop it when the query's work is
/// done: `pc serve` drops it once the response is built, before the
/// response is written, so a drain never waits on a peer's reads.
pub struct QueryGuard<'a> {
    registry: &'a SessionRegistry,
    key: u64,
}

impl Drop for QueryGuard<'_> {
    fn drop(&mut self) {
        // A `Drop` must not panic. A poisoned lock still guards a valid
        // `Inflight`: every update under it leaves the fields consistent.
        let mut inflight = self
            .registry
            .inflight
            .lock()
            .unwrap_or_else(PoisonError::into_inner);
        inflight.count -= 1;
        inflight.tokens.remove(&self.key);
        if inflight.count == 0 && inflight.waiters > 0 {
            self.registry.idle.notify_all();
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::{FrequencyConstraint, PcSet, PredicateConstraint, Strategy, ValueConstraint};
    use pc_predicate::{Atom, AttrType, Interval, Predicate, Region, Schema};
    use pc_storage::{AggKind, AggQuery};

    fn schema() -> Schema {
        Schema::new(vec![("utc", AttrType::Int), ("price", AttrType::Float)])
    }

    fn pc_utc(lo: f64, hi: f64, price_hi: f64, freq: FrequencyConstraint) -> PredicateConstraint {
        PredicateConstraint::new(
            Predicate::atom(Atom::bucket(0, lo, hi)),
            ValueConstraint::none().with(1, Interval::closed(0.99, price_hi)),
            freq,
        )
    }

    fn overlapping_set() -> PcSet {
        let mut set = PcSet::new(schema())
            .with(pc_utc(
                11.0,
                12.0,
                129.99,
                FrequencyConstraint::between(50, 100),
            ))
            .with(pc_utc(
                11.0,
                13.0,
                149.99,
                FrequencyConstraint::between(75, 125),
            ));
        let mut domain = Region::full(&schema());
        domain.set_interval(0, Interval::half_open(11.0, 13.0));
        set.set_domain(domain);
        set
    }

    fn queries() -> Vec<AggQuery> {
        vec![
            AggQuery::new(AggKind::Sum, 1, Predicate::always()),
            AggQuery::count(Predicate::always()),
            AggQuery::count(Predicate::atom(Atom::bucket(0, 11.0, 12.0))),
            AggQuery::new(
                AggKind::Sum,
                1,
                Predicate::atom(Atom::bucket(0, 12.0, 13.0)),
            ),
            AggQuery::new(AggKind::Avg, 1, Predicate::always()),
            AggQuery::new(AggKind::Max, 1, Predicate::always()),
        ]
    }

    /// Fresh-engine oracle against the session's current catalog.
    fn assert_matches_fresh(session: &Session, qs: &[AggQuery]) {
        let set = session.pc_set();
        let engine = BoundEngine::new(&set);
        for q in qs {
            let fresh = engine.bound(q);
            let served = session.bound(q);
            match (&fresh, &served) {
                (Ok(a), Ok(b)) => {
                    assert!(
                        (a.range.lo - b.range.lo).abs() < 1e-5
                            || (a.range.lo.is_infinite() && a.range.lo == b.range.lo),
                        "{q:?}: fresh {:?} vs served {:?}",
                        a.range,
                        b.range
                    );
                    assert!(
                        (a.range.hi - b.range.hi).abs() < 1e-5
                            || (a.range.hi.is_infinite() && a.range.hi == b.range.hi),
                        "{q:?}: fresh {:?} vs served {:?}",
                        a.range,
                        b.range
                    );
                    assert_eq!(a.closed, b.closed, "{q:?}");
                }
                (Err(a), Err(b)) => assert_eq!(a, b, "{q:?}"),
                (a, b) => panic!("{q:?}: {a:?} vs {b:?}"),
            }
        }
    }

    #[test]
    fn session_matches_fresh_engine() {
        let session = Session::new(overlapping_set());
        assert_matches_fresh(&session, &queries());
    }

    #[test]
    fn repeated_queries_pay_no_new_sat_checks() {
        let q = AggQuery::new(AggKind::Sum, 1, Predicate::always());
        // The first ask decomposes its (cold) epoch. A repeat on that
        // epoch would be a memo hit, so the repeat runs on a second
        // session whose epoch is already built.
        let first = Session::new(overlapping_set()).bound(&q).unwrap();
        let session = Session::new(overlapping_set());
        session.cell_set().unwrap();
        let second = session.bound(&q).unwrap();
        assert_eq!(first.range, second.range);
        // the full-domain query is answered by sharing every cached cell:
        // the only sat_checks are the cached decomposition's own
        assert_eq!(
            second.stats.sat_checks,
            session.cell_set().unwrap().stats().sat_checks
        );
    }

    #[test]
    fn bound_many_preserves_order_and_results() {
        let session = Session::new(overlapping_set());
        let qs = queries();
        let batch = session.bound_many(&qs);
        assert_eq!(batch.len(), qs.len());
        // One at a time on a second session: on the batch's own epoch
        // every repeat would be a memo hit of the batch's answer.
        let single = Session::new(overlapping_set());
        for (q, got) in qs.iter().zip(&batch) {
            let want = single.bound(q);
            match (&want, got) {
                (Ok(a), Ok(b)) => {
                    assert_eq!(a.range, b.range, "{q:?}");
                    assert_eq!(a.closed, b.closed, "{q:?}");
                }
                (Err(a), Err(b)) => assert_eq!(a, b),
                (a, b) => panic!("{q:?}: {a:?} vs {b:?}"),
            }
        }
    }

    #[test]
    fn cache_disabled_still_matches() {
        let session = Session::with_options(
            overlapping_set(),
            SessionOptions {
                cache_cells: false,
                ..SessionOptions::default()
            },
        );
        assert_matches_fresh(&session, &queries());
    }

    #[test]
    fn non_closed_sets_reuse_the_cached_counterexample() {
        // constraints cover utc ∈ [11, 13) but the domain spans [11, 15):
        // the epoch is not closed and the session caches a witness of the
        // uncovered part
        let mut set = overlapping_set();
        let mut domain = Region::full(&schema());
        domain.set_interval(0, Interval::half_open(11.0, 15.0));
        set.set_domain(domain);
        let session = Session::new(set);

        let cs = session.cell_set().unwrap();
        let w = cs.uncovered().expect("epoch is not closed").to_vec();

        // a query containing the counterexample is non-closed for free; a
        // query dodging the uncovered part pays one exact check — both
        // must match the fresh engine
        assert_matches_fresh(
            &session,
            &[
                AggQuery::count(Predicate::always()),
                AggQuery::count(Predicate::atom(Atom::bucket(0, 11.0, 12.0))),
            ],
        );
        // sanity on the cached point itself
        let set = session.pc_set();
        assert!(set.domain().contains_row(&w));
        for pc in set.constraints() {
            assert!(!pc.predicate.eval(&w));
        }
    }

    #[test]
    fn naive_overflow_surfaces_per_query() {
        let mut set = PcSet::new(schema());
        for i in 0..(crate::decompose::NAIVE_LIMIT + 1) {
            set.push(PredicateConstraint::new(
                Predicate::atom(Atom::bucket(0, i as f64, i as f64 + 2.0)),
                ValueConstraint::none(),
                FrequencyConstraint::at_most(5),
            ));
        }
        let session = Session::with_options(
            set,
            SessionOptions {
                bound: BoundOptions {
                    strategy: Strategy::Naive,
                    ..BoundOptions::default()
                },
                ..SessionOptions::default()
            },
        );
        let q = AggQuery::count(Predicate::always());
        assert!(matches!(session.bound(&q), Err(BoundError::Decompose(_))));
        // and again — the cached error replays without re-decomposing
        assert!(session.bound(&q).is_err());
    }

    // ------------------------------------------------------------------
    // Catalog mutations
    // ------------------------------------------------------------------

    #[test]
    fn ids_and_epochs_are_stable() {
        let session = Session::new(overlapping_set());
        assert_eq!(session.epoch(), 0);
        assert_eq!(
            session.constraint_ids(),
            vec![ConstraintId(0), ConstraintId(1)]
        );
        let id = session.add_constraint(pc_utc(12.0, 13.0, 80.0, FrequencyConstraint::at_most(60)));
        assert_eq!(id, ConstraintId(2));
        assert_eq!(session.epoch(), 1);
        session.retire_constraint(ConstraintId(0)).unwrap();
        assert_eq!(session.epoch(), 2);
        assert_eq!(
            session.constraint_ids(),
            vec![ConstraintId(1), ConstraintId(2)]
        );
        // retired ids are gone for good
        assert_eq!(
            session.retire_constraint(ConstraintId(0)),
            Err(UnknownConstraint(ConstraintId(0)))
        );
        // display + parse round-trip
        assert_eq!(id.to_string(), "c2");
        assert_eq!("c2".parse::<ConstraintId>().unwrap(), id);
        assert_eq!("2".parse::<ConstraintId>().unwrap(), id);
        assert!("x2".parse::<ConstraintId>().is_err());
    }

    #[test]
    fn add_and_retire_match_fresh_engine() {
        let session = Session::new(overlapping_set());
        let qs = queries();
        // prime the epoch so mutations derive incrementally
        session.cell_set().unwrap();
        assert_matches_fresh(&session, &qs);

        let id = session.add_constraint(pc_utc(11.5, 12.5, 90.0, FrequencyConstraint::at_most(40)));
        assert_matches_fresh(&session, &qs);
        // the derived epoch really was incremental, not a rebuild
        let stats = session.cell_set().unwrap().stats();
        assert!(stats.incremental_splits > 0, "{stats:?}");

        session.retire_constraint(id).unwrap();
        assert_matches_fresh(&session, &qs);
        assert_eq!(session.cell_set().unwrap().stats().sat_checks, 0);

        let replaced = session
            .replace_constraint(
                ConstraintId(0),
                pc_utc(11.0, 12.0, 110.0, FrequencyConstraint::between(40, 90)),
            )
            .unwrap();
        assert_eq!(session.constraint_ids(), vec![ConstraintId(1), replaced]);
        assert_matches_fresh(&session, &qs);
    }

    #[test]
    fn closure_verdict_tracks_churn() {
        // start closed; retiring the wide cover opens a hole; adding it
        // back closes it again — all against the fresh oracle
        let session = Session::new(overlapping_set());
        session.cell_set().unwrap();
        assert!(session.cell_set().unwrap().closed());

        session.retire_constraint(ConstraintId(1)).unwrap();
        let cs = session.cell_set().unwrap();
        assert!(!cs.closed(), "retiring the [11,13) cover must open a hole");
        let w = cs.uncovered().unwrap();
        assert!(session.pc_set().domain().contains_row(w));
        assert_matches_fresh(&session, &[AggQuery::count(Predicate::always())]);

        session.add_constraint(pc_utc(
            11.0,
            13.0,
            149.99,
            FrequencyConstraint::between(75, 125),
        ));
        assert!(session.cell_set().unwrap().closed());
        assert_matches_fresh(&session, &queries());
    }

    #[test]
    fn mutations_before_first_query_stay_lazy() {
        let session = Session::new(overlapping_set());
        let id = session.add_constraint(pc_utc(12.0, 13.0, 80.0, FrequencyConstraint::at_most(60)));
        session.retire_constraint(id).unwrap();
        assert_eq!(session.epoch(), 2);
        // nothing was decomposed yet; the first query decomposes the
        // current catalog directly (no derivation chain to pay)
        assert_matches_fresh(&session, &queries());
        assert_eq!(session.cell_set().unwrap().stats().incremental_splits, 0);
    }

    #[test]
    fn degraded_epoch_build_is_never_published() {
        let session = Session::new(overlapping_set());
        let q = AggQuery::new(AggKind::Sum, 1, Predicate::always());
        let exact = BoundEngine::new(&session.pc_set()).bound(&q).unwrap();

        // Cold epoch + starved budget: the build degrades to frontier
        // cells, the query still answers a sound (wider) range…
        let budget = QueryBudget::armed().with_sat_cap(0);
        let r = session.bound_ticketed_stamped(&q, &budget, None).1.unwrap();
        assert!(budget.is_tripped());
        assert!(r.degraded);
        assert!(
            r.range.lo <= exact.range.lo + 1e-9 && r.range.hi >= exact.range.hi - 1e-9,
            "degraded {:?} must contain exact {:?}",
            r.range,
            exact.range
        );

        // …and the degraded cell set was thrown away: the next unbudgeted
        // query builds (and publishes) a clean epoch.
        let clean = session.bound(&q).unwrap();
        assert!(!clean.degraded);
        assert!((clean.range.lo - exact.range.lo).abs() < 1e-5);
        assert!((clean.range.hi - exact.range.hi).abs() < 1e-5);
        assert_eq!(session.cell_set().unwrap().stats().frontier_cells, 0);
    }

    #[test]
    fn warm_epoch_serves_budgeted_queries_from_the_cache() {
        let session = Session::new(overlapping_set());
        session.cell_set().unwrap(); // publish a clean epoch
        let q = AggQuery::new(AggKind::Sum, 1, Predicate::always());
        // The oracle runs on a second warm session: on this one, the
        // budgeted repeat would be a memo hit, not a cache ride.
        let oracle = Session::new(overlapping_set());
        oracle.cell_set().unwrap();
        let exact = oracle.bound(&q).unwrap();
        // A warm epoch costs no decomposition, so a generous budget rides
        // the cache and stays exact.
        let budget = QueryBudget::armed()
            .with_sat_cap(10_000)
            .with_node_cap(1_000_000);
        let r = session.bound_ticketed_stamped(&q, &budget, None).1.unwrap();
        assert!(!r.degraded);
        assert_eq!(r.range, exact.range);
    }

    #[test]
    fn tripped_derivation_is_discarded_for_lazy_rebuild() {
        let session = Session::new(overlapping_set());
        session.cell_set().unwrap(); // prime so mutations derive
        let budget = QueryBudget::armed().with_sat_cap(1_000);
        budget.cancel_token().unwrap().cancel(); // trip before any work
        session.add_constraint_stamped(
            pc_utc(11.5, 12.5, 90.0, FrequencyConstraint::at_most(40)),
            &budget,
        );
        assert_eq!(session.epoch(), 1, "the mutation itself always lands");
        // the discarded derivation forces a from-scratch (clean) rebuild
        let cells = session.cell_set().unwrap();
        assert_eq!(cells.stats().incremental_splits, 0);
        assert_eq!(cells.stats().frontier_cells, 0);
        assert_matches_fresh(&session, &queries());
    }

    #[test]
    fn budgeted_batch_degrades_but_answers_every_query() {
        let session = Session::new(overlapping_set());
        let qs = queries();
        // The oracle runs on a second session: on this one, the starved
        // batch would take the exact answers from the memo, not degrade.
        let exact = Session::new(overlapping_set()).bound_many(&qs);
        session.cell_set().unwrap(); // the warm epoch an exact batch leaves
        let budget = QueryBudget::armed().with_sat_cap(0);
        let degraded = session.bound_many_stamped(&qs, &budget).1;
        assert_eq!(degraded.len(), qs.len());
        for (q, (e, d)) in qs.iter().zip(exact.iter().zip(&degraded)) {
            match (e, d) {
                (Ok(e), Ok(d)) => {
                    assert!(
                        d.range.lo <= e.range.lo + 1e-9 && d.range.hi >= e.range.hi - 1e-9,
                        "{q:?}: degraded {:?} must contain exact {:?}",
                        d.range,
                        e.range
                    );
                }
                // a starved query may degrade where the exact run errored
                // (EmptyAggregate proofs need SAT work) — but never the
                // other way around
                (Err(_), Ok(_)) => {}
                (Ok(e), Err(d)) => panic!("{q:?}: exact {e:?} but degraded errored {d:?}"),
                (Err(_), Err(_)) => {}
            }
        }
    }

    /// A query without a deadline bypasses admission: its queue wait is
    /// the time from arming its budget to the start of its run, however
    /// long the run itself takes.
    #[test]
    fn bypassing_query_reports_its_wait_not_its_run() {
        // A cold session over a dozen overlapping buckets: the first query
        // decomposes the whole epoch, far above timer resolution.
        let mut set = PcSet::new(schema());
        for i in 0..12 {
            let lo = 3.0 * f64::from(i);
            set.push(pc_utc(
                lo,
                lo + 7.0,
                10.0 + f64::from(i),
                FrequencyConstraint::between(1, 20),
            ));
        }
        let mut domain = Region::full(&schema());
        domain.set_interval(0, Interval::half_open(0.0, 45.0));
        set.set_domain(domain);
        let session = Session::new(set);
        let q = AggQuery::new(AggKind::Avg, 1, Predicate::always());
        let budget = QueryBudget::armed();
        let started = Instant::now();
        let r = session.bound_ticketed_stamped(&q, &budget, None).1.unwrap();
        let elapsed = started.elapsed();
        let sched = r.sched.expect("the serve path stamps its schedule");
        assert_eq!(sched.verdict, AdmissionVerdict::Exact);
        assert!(
            sched.queue_wait < elapsed / 2,
            "queue wait {:?} of a {elapsed:?} call",
            sched.queue_wait
        );
    }

    // ------------------------------------------------------------------
    // The per-epoch answer memo
    // ------------------------------------------------------------------

    /// The number of answers the current epoch's memo holds.
    fn memo_len(session: &Session) -> usize {
        let epoch = session.pin();
        let len = epoch.memo().len();
        len
    }

    #[test]
    fn a_repeated_query_is_a_memo_hit_with_no_work() {
        let session = Session::new(overlapping_set());
        for q in queries() {
            let before = session.memo_stats();
            let first = session.bound(&q).unwrap();
            assert!(first.stats.cells > 0, "{q:?}: the first ask runs");
            let second = session.bound(&q).unwrap();
            let after = session.memo_stats();
            assert_eq!(after.hits, before.hits + 1, "{q:?}");
            assert_eq!(after.misses, before.misses + 1, "{q:?}");
            assert_eq!(
                (first.range.lo.to_bits(), first.range.hi.to_bits()),
                (second.range.lo.to_bits(), second.range.hi.to_bits()),
                "{q:?}: a hit returns the stored range bit for bit"
            );
            assert_eq!(first.closed, second.closed, "{q:?}");
            assert_eq!(second.stats, DecomposeStats::default(), "{q:?}");
            assert_eq!(second.solver, LpWork::default(), "{q:?}");
            assert!(second.shard_sat_checks.is_empty(), "{q:?}");
            assert!(!second.degraded && second.trip.is_none(), "{q:?}");
            let sched = second.sched.expect("a hit stamps a bypass schedule");
            assert_eq!(sched.verdict, AdmissionVerdict::Exact);
            assert_eq!(sched.estimated_cost, Duration::ZERO);
        }
        // A batch item with a stored answer is a hit too.
        let before = session.memo_stats();
        let batch = session.bound_many(&queries());
        assert!(batch
            .iter()
            .all(|r| r.as_ref().unwrap().solver == LpWork::default()));
        assert_eq!(
            session.memo_stats().hits,
            before.hits + queries().len() as u64
        );
    }

    #[test]
    fn a_mutation_starts_an_empty_memo() {
        let session = Session::new(overlapping_set());
        let qs = queries();
        session.bound_many(&qs);
        assert_eq!(memo_len(&session), qs.len());
        session.add_constraint(pc_utc(11.5, 12.5, 90.0, FrequencyConstraint::at_most(40)));
        assert_eq!(memo_len(&session), 0, "a new epoch starts with no answers");
        let hits = session.memo_stats().hits;
        assert_matches_fresh(&session, &qs);
        assert_eq!(
            session.memo_stats().hits,
            hits,
            "no answer crossed the epoch"
        );
        // …and the new epoch's repeats hit its own answers, which still
        // match a fresh engine on the mutated catalog.
        assert_matches_fresh(&session, &qs);
        assert_eq!(session.memo_stats().hits, hits + qs.len() as u64);
    }

    #[test]
    fn a_budget_that_cannot_proceed_never_takes_a_hit() {
        let session = Session::new(overlapping_set());
        let q = AggQuery::new(AggKind::Sum, 1, Predicate::always());
        session.bound(&q).unwrap();
        let cancelled = QueryBudget::armed();
        cancelled.cancel_token().unwrap().cancel();
        let expired = QueryBudget::armed().with_timeout(Duration::ZERO);
        for (budget, reason) in [
            (cancelled, TripReason::Cancelled),
            (expired, TripReason::Deadline),
        ] {
            let hits = session.memo_stats().hits;
            let r = session.bound_ticketed_stamped(&q, &budget, None).1.unwrap();
            assert_eq!(session.memo_stats().hits, hits, "{reason}: no hit");
            assert!(r.degraded, "{reason}: the run degrades as it would have");
            assert_eq!(r.degraded, budget.is_tripped(), "{reason}");
            assert_eq!(r.trip, Some(reason));
        }
    }

    #[test]
    fn cache_disabled_never_hits() {
        let session = Session::with_options(
            overlapping_set(),
            SessionOptions {
                cache_cells: false,
                ..SessionOptions::default()
            },
        );
        for q in queries() {
            session.bound(&q).unwrap();
            let again = session.bound(&q).unwrap();
            assert!(again.stats.cells > 0, "{q:?}: the repeat runs");
        }
        assert_eq!(session.memo_stats(), MemoStats::default());
        assert_eq!(memo_len(&session), 0);
    }

    #[test]
    fn a_hit_settles_its_admit_ticket_without_calibrating_the_gauge() {
        let session = Session::new(overlapping_set());
        let q = AggQuery::new(AggKind::Avg, 1, Predicate::always());
        // A deadline-armed miss runs the exact rung and calibrates.
        let budget = QueryBudget::armed().with_timeout(Duration::from_secs(3600));
        let ticket = session.admit(&q, &budget);
        assert!(ticket.is_some(), "a deadline-armed query is judged");
        session
            .bound_ticketed_stamped(&q, &budget, ticket)
            .1
            .unwrap();
        let calibrated = session.pressure().stats();
        assert!(calibrated.ewma_exact > Duration::ZERO);
        assert_eq!(session.pressure().backlog(), Duration::ZERO);

        // An arrival the epoch already answers is not charged at all…
        let budget = QueryBudget::armed().with_timeout(Duration::from_secs(3600));
        assert!(session.admit(&q, &budget).is_none(), "a stored answer");
        assert_eq!(session.pressure().backlog(), Duration::ZERO);
        let r = session.bound_ticketed_stamped(&q, &budget, None).1.unwrap();
        assert_eq!(r.solver, LpWork::default(), "…and its run is a hit");

        // A ticket issued before its answer was stored settles on the hit.
        let q = AggQuery::new(AggKind::Max, 1, Predicate::always());
        let budget = QueryBudget::armed().with_timeout(Duration::from_secs(3600));
        let ticket = session.admit(&q, &budget);
        assert!(
            session.pressure().backlog() > Duration::ZERO,
            "the ticket is charged"
        );
        session.bound(&q).unwrap();
        let hits = session.memo_stats().hits;
        let r = session
            .bound_ticketed_stamped(&q, &budget, ticket)
            .1
            .unwrap();
        assert_eq!(session.memo_stats().hits, hits + 1);
        assert_eq!(r.solver, LpWork::default());
        let settled = session.pressure().stats();
        assert_eq!(settled.ewma_exact, calibrated.ewma_exact);
        assert_eq!(settled.ewma_degraded, calibrated.ewma_degraded);
        assert_eq!(settled.drain_mult_milli, calibrated.drain_mult_milli);
        assert_eq!(session.pressure().backlog(), Duration::ZERO);
    }

    #[test]
    fn the_memo_stops_inserting_at_its_cap() {
        let session = Session::new(overlapping_set());
        let set = session.pc_set();
        let engine = BoundEngine::new(&set);
        // Distinct regions: price at most 1, 2, 3, …
        let q = |i: usize| {
            AggQuery::new(
                AggKind::Sum,
                1,
                Predicate::atom(Atom::between(1, 0.0, 1.0 + i as f64)),
            )
        };
        let qs: Vec<AggQuery> = (0..MEMO_CAP).map(q).collect();
        session.bound_many(&qs);
        assert_eq!(memo_len(&session), MEMO_CAP);
        // Past the cap a new query still answers correctly…
        let extra = q(MEMO_CAP);
        assert_matches_fresh(&session, std::slice::from_ref(&extra));
        assert_eq!(memo_len(&session), MEMO_CAP, "…but is not stored");
        // …so its repeat runs again, and still matches.
        let before = session.memo_stats();
        let again = session.bound(&extra).unwrap();
        let fresh = engine.bound(&extra).unwrap();
        assert!((again.range.hi - fresh.range.hi).abs() < 1e-5);
        assert!(again.stats.cells > 0, "the repeat ran");
        assert_eq!(session.memo_stats().hits, before.hits);
        assert_eq!(session.memo_stats().misses, before.misses + 1);
        // Stored answers keep serving.
        session.bound(&qs[0]).unwrap();
        assert_eq!(session.memo_stats().hits, before.hits + 1);
    }

    #[test]
    fn drain_wait_wakes_when_the_last_guard_drops() {
        let registry = SessionRegistry::new();
        let guard = registry.begin_query(&QueryBudget::armed()).unwrap();
        let (tx, rx) = std::sync::mpsc::channel();
        std::thread::scope(|s| {
            s.spawn(|| {
                let _ = tx.send(registry.drained_within(Duration::from_secs(10)));
            });
            // Drop the guard only once the waiter is inside the wait: it
            // registers under the lock and gives the lock up only there.
            while registry.inflight.lock().unwrap().waiters == 0 {
                std::thread::yield_now();
            }
            assert_eq!(registry.inflight(), 1);
            drop(guard);
            // Woken by the drop, not by its 10 s timeout.
            assert_eq!(rx.recv_timeout(Duration::from_secs(5)), Ok(true));
        });
        assert_eq!(registry.inflight.lock().unwrap().waiters, 0);
    }

    #[test]
    fn drain_wait_times_out_while_a_query_runs() {
        let registry = SessionRegistry::new();
        let guard = registry.begin_query(&QueryBudget::armed()).unwrap();
        assert!(!registry.drained_within(Duration::from_millis(50)));
        assert_eq!(registry.inflight.lock().unwrap().waiters, 0);
        drop(guard);
        assert!(registry.drained_within(Duration::ZERO));
    }

    #[test]
    fn drain_rejects_new_queries_and_cancels_running_ones() {
        let registry = SessionRegistry::new();
        let budget = QueryBudget::armed();
        let _guard = registry.begin_query(&budget).unwrap();
        assert!(budget.proceed());
        registry.begin_drain();
        assert!(registry.is_draining());
        assert!(registry.begin_query(&QueryBudget::armed()).is_none());
        assert!(!budget.proceed(), "a running query's next check must trip");
        assert_eq!(budget.trip_reason(), Some(TripReason::Cancelled));
        assert_eq!(registry.inflight(), 1);
    }

    #[test]
    fn rebuild_ablation_matches_incremental() {
        let build = |incremental| {
            Session::with_options(
                overlapping_set(),
                SessionOptions {
                    incremental,
                    ..SessionOptions::default()
                },
            )
        };
        let fast = build(true);
        let slow = build(false);
        let qs = queries();
        for s in [&fast, &slow] {
            s.cell_set().unwrap();
            s.add_constraint(pc_utc(11.5, 12.5, 90.0, FrequencyConstraint::at_most(40)));
        }
        for q in &qs {
            let a = fast.bound(q).unwrap();
            let b = slow.bound(q).unwrap();
            assert!(
                (a.range.lo - b.range.lo).abs() < 1e-5 && (a.range.hi - b.range.hi).abs() < 1e-5,
                "{q:?}: {:?} vs {:?}",
                a.range,
                b.range
            );
        }
        // and the ablation really did rebuild: a fresh decomposition
        // reports no incremental splits and more SAT checks
        let inc = fast.cell_set().unwrap().stats();
        let reb = slow.cell_set().unwrap().stats();
        assert!(inc.incremental_splits > 0);
        assert_eq!(reb.incremental_splits, 0);
        assert!(inc.sat_checks < reb.sat_checks, "{inc:?} vs {reb:?}");
    }
}
