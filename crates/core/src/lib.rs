//! The Predicate-Constraint (PC) framework — the paper's primary
//! contribution.
//!
//! A [`PredicateConstraint`] states: *"for all missing rows satisfying
//! predicate ψ, their attribute values lie in the ranges ν, and between kl
//! and ku such rows exist"* (Definition 3.1). A [`PcSet`] collects such
//! constraints; the [`BoundEngine`] computes the deterministic **result
//! range** — the min and max value any `COUNT / SUM / AVG / MIN / MAX`
//! aggregate query could take over all missing-data instances consistent
//! with the set (§4), via:
//!
//! 1. **Cell decomposition** ([`decompose()`](decompose())) of possibly-overlapping
//!    predicates into disjoint satisfiable cells, with the paper's four
//!    optimizations: query-predicate pushdown, DFS prefix pruning, the
//!    `X ∧ ¬Y` rewrite, and approximate early stopping. Pushdown goes
//!    past the paper's: a one-shot bound drops the constraints the query
//!    region does not reach before anything runs, so its whole pipeline
//!    (closure probe, decomposition, frequency rows, allocation) costs
//!    what the query touches, not the catalog size. The closure probe
//!    runs first, and an open region that no kept frequency floor forces
//!    rows into is answered from it alone, with no cell. Past that point
//!    a one-shot bound and a [`Session`] query share one pipeline: one
//!    closure ladder and one bounding body over per-component slices
//!    (item 5). The rewrite
//!    generalizes into a **carried witness**: each DFS node keeps a point
//!    of its prefix, which settles one branch of every split for free
//!    (one SAT probe per split, no re-solve at the leaves). Searches are
//!    **sequential first**: the decomposition DFS, the SAT witness
//!    search, branch & bound and the batch fan-outs all run inline until
//!    they have worked one [`budget::WorkGate::GRAIN`], and only then
//!    hand subtrees to the work-stealing pool, with bit-identical cells,
//!    bitset cell signatures ([`ActiveSet`]), and clone-on-tighten region
//!    sharing.
//! 2. A **mixed-integer linear program** (§4.2) allocating rows to cells,
//!    solved by `pc-solver`, with the greedy fast path for disjoint sets
//!    and simplex **warm starts** chained across related solves.
//! 3. **Join bounds** (§5): the naive Cartesian-product bound and the
//!    tighter fractional-edge-cover bound derived from Friedgut's
//!    generalized weighted entropy inequality.
//! 4. **GROUP-BY as a union of keyed queries** (§2,
//!    [`BoundEngine::bound_group_by`]): each key's query is the base
//!    predicate with `group = key` conjoined, bounded by the one-shot
//!    pipeline above, so a key pays only for the constraints its slice
//!    reaches. Keys run as stealable pool tasks; a [`Session`] serves
//!    them from one pinned epoch's cell cache under one admission
//!    decision for the call.
//! 5. **Sharded decomposition** ([`shard`]): the cell set is factored
//!    over the connected components of the **constraint-interaction
//!    graph** (union-find over pairwise attribute-box overlap). Each
//!    component ("shard") decomposes independently as a parallel pool
//!    task, so the exponential decomposition cost is paid per shard,
//!    not for the whole catalog. Every answer that builds cells, one-shot
//!    or served, runs through one bounding body over one slice per
//!    component: `COUNT`/`SUM` bounds are sums of per-slice
//!    block-diagonal allocations, and `MIN`/`MAX`/`AVG` bound one joint
//!    problem (one slice: its own). A one-shot bound factors only the
//!    constraints its query region reaches, and reached constraints of
//!    one component are one slice of its own set; a session keeps every
//!    shard of its epoch, a query region only specializes the shards it
//!    geometrically touches, and a shard fully inside the region answers
//!    `COUNT`/`SUM` from its cached domain-wide interval.
//! 6. A **versioned session layer** ([`Session`]) for serving query
//!    traffic under constraint churn: the session owns a catalog of
//!    stable [`ConstraintId`]s, each mutation
//!    ([`Session::add_constraint`] / [`Session::retire_constraint`] /
//!    [`Session::replace_constraint`]) produces a new **epoch** whose
//!    `Arc`-shared [`specialize::CellSet`] is *derived incrementally*
//!    from the previous one (only cells the churned constraint's box
//!    cuts are re-checked; a retire is SAT-free), queries pin the epoch
//!    they start on (snapshot isolation), each query specializes the
//!    pinned cells to its region, and simplex warm starts chain *across*
//!    queries and epochs through per-worker caches (a churned LP adapts
//!    the carried tableau by one appended/deleted row).
//!    [`Session::bound_many`] fans a batch out over the work-stealing
//!    pool against a single pinned epoch.
//!    Epoch derivation is **shard-local**: a mutation re-derives only
//!    the shard(s) its box overlaps, the rest carry by `Arc`. Each epoch
//!    keeps a bounded **answer memo** keyed by the query's canonical
//!    form (aggregate, attribute, region ∩ domain): a query the epoch
//!    has already answered exactly takes that answer before admission,
//!    with no work ([`Session::memo_stats`]); a mutation starts an empty
//!    memo.
//! 7. **Box-volume search ordering** ([`estimate`]): each constraint's
//!    normalized box volume over the domain, computed where it is used
//!    from the set being searched — nothing is learned or kept from one
//!    run to the next, so a repeated bound does identical work. The
//!    decomposition decides the smallest-volume constraint first, ties
//!    by index (DFS prefix pruning kills subtrees before the
//!    uninformative splits multiply them), the allocation MILP branches
//!    on the most selective cells' variables (fractionality ×
//!    `2 − Π volume`), and a session's admission scales its cost
//!    estimate by the volume a query reaches. Ordering is a visit-order
//!    permutation only — cells, verdicts, bounds, and closure flags are
//!    bit-identical with it on or off ([`BoundOptions::ordering`]); the
//!    win is counted in SAT checks and branch & bound nodes
//!    ([`DecomposeStats::ordered_splits`], [`LpWork::incumbent_first`]).
//! 8. **Budgets and graceful degradation** ([`QueryBudget`], re-exported
//!    from [`budget`]): every engine entry point takes a budget — a
//!    deadline / SAT-check cap / branch & bound node cap /
//!    [`CancelToken`] — in one form ([`BoundEngine::bound_budgeted`],
//!    and the `_stamped` form of each [`Session`] operation), checked
//!    cooperatively at task-granule boundaries through the whole stack.
//!    A tripped budget never errors
//!    and never hangs: the decomposition emits its frontier un-split,
//!    SAT probes are admitted unverified (the EarlyStop argument), the
//!    MILP falls back to its LP relaxation, and the answer comes back
//!    sound-but-wider with [`BoundReport::degraded`] set. A batch panics
//!    one query at a time ([`BoundError::Panicked`]) behind per-task
//!    unwind boundaries, and a degraded or interrupted epoch build is
//!    never published to the session's cell cache. See [`budget`] for
//!    the granularity guarantee and the degradation ladder.
//! 9. **Deadline-aware scheduling, admission control, and load
//!    shedding** ([`SessionOptions::deadline_sched`] /
//!    [`SessionOptions::admission`]): armed deadlines drive task order —
//!    a session fan-out tags its pool jobs with the query deadline and
//!    the vendored pool serves tagged work earliest-deadline-first
//!    (stealing respects priority: a worker blocked in a join only takes
//!    external work at least as urgent as what it is waiting on). In
//!    front of the pool, a **pressure gauge** ([`Session::pressure`],
//!    [`pc_budget::pressure`]) tracks per-verdict cost EWMAs and the
//!    aggregate deadline-keyed backlog, corrected by a learned
//!    drain-rate multiplier; each arrival is admitted **exact**,
//!    admitted **early-degraded** (LP-relaxation rung — closure checks
//!    are never skipped), or **shed** when even the degraded estimate
//!    cannot meet the deadline. A shed query still answers — it runs the
//!    pre-tripped one-granule walk (kept in the epoch's answer memo), so
//!    its wider range stays sound and its latency stays flat. A pop-time
//!    feasibility re-check demotes stale admissions, and every query
//!    carries a [`SchedReport`] (verdict, queue wait, estimate) surfaced
//!    by `pc batch --stats`. Every admitted unit — a query, each batch
//!    item, one GROUP-BY call — runs through one session path, judged at
//!    arrival ([`Session::admit`]) or at run start, and its admission
//!    ticket is settled however the run ends, a panic included.
//!    Scheduling never moves an answer: EDF and
//!    FIFO orders are property-tested bit-identical, and shed/degraded
//!    ranges always contain the exact range.
//! 10. A **multi-tenant serving front-end** (`pc serve`, the `pc-serve`
//!     crate): a std-only TCP listener speaking a line-oriented text
//!     protocol over a [`SessionRegistry`] — one versioned [`Session`]
//!     catalog per tenant with stable `cN` constraint ids as the wire
//!     API. Query verbs fan onto the pool through each tenant's own
//!     admission gauge and serialize their [`SchedReport`]; mutation
//!     verbs interleave with in-flight reads under the epoch MVCC, and
//!     **every response stamps the epoch it answered from**: each
//!     [`Session`] operation has two forms, the plain one and a
//!     `_stamped` one that takes the budget and returns the epoch stamp.
//!     The registry also owns the drain
//!     protocol behind graceful shutdown: draining rejects new work
//!     ([`SessionRegistry::begin_query`]) and fires the [`CancelToken`]
//!     of every in-flight query, which finish early with sound degraded
//!     answers. See the `pc-serve` crate docs for the wire reference.
//!
//! Parallelism and warm starts are knobs on [`BoundOptions`] (`threads`,
//! `eager_fork`, and the warm-start tier `milp.warmth`, one [`Warmth`]);
//! under the exact strategies every configuration returns identical
//! bounds — the knobs trade machine resources for latency, not accuracy.
//!
//! Constraints are *testable*: [`PcSet::validate`] checks a set against
//! historical data, returning every violation, which is the paper's
//! argument for reproducible contingency analysis.
//!
//! # Example
//!
//! The paper's §4.4 disjoint example, end to end:
//!
//! ```
//! use pc_core::*;
//! use pc_predicate::{Atom, AttrType, Interval, Predicate, Region, Schema};
//! use pc_storage::{AggKind, AggQuery};
//!
//! let schema = Schema::new(vec![("utc", AttrType::Int), ("price", AttrType::Float)]);
//! let mut set = PcSet::new(schema.clone());
//! // Nov-11: 50-100 sales, each in [0.99, 129.99]
//! set.push(PredicateConstraint::new(
//!     Predicate::atom(Atom::bucket(0, 11.0, 12.0)),
//!     ValueConstraint::none().with(1, Interval::closed(0.99, 129.99)),
//!     FrequencyConstraint::between(50, 100),
//! ));
//! // Nov-12: 50-100 sales, each in [0.99, 149.99]
//! set.push(PredicateConstraint::new(
//!     Predicate::atom(Atom::bucket(0, 12.0, 13.0)),
//!     ValueConstraint::none().with(1, Interval::closed(0.99, 149.99)),
//!     FrequencyConstraint::between(50, 100),
//! ));
//! let mut domain = Region::full(&schema);
//! domain.set_interval(0, Interval::half_open(11.0, 13.0));
//! set.set_domain(domain);
//!
//! let report = BoundEngine::new(&set)
//!     .bound(&AggQuery::new(AggKind::Sum, 1, Predicate::always()))
//!     .unwrap();
//! assert_eq!((report.range.lo, report.range.hi), (99.0, 27_998.0));
//! ```

#![warn(missing_docs)]

mod bounds;
mod cell;
mod constraint;
pub mod decompose;
pub mod dsl;
mod error;
pub mod estimate;
mod groupby;
pub mod join;
mod pcset;
mod session;
pub mod shard;
pub mod specialize;

pub use bounds::{BoundEngine, BoundOptions, BoundReport, LpWork, ResultRange};
pub use cell::{ActiveSet, Cell};
pub use constraint::{FrequencyConstraint, PredicateConstraint, ValueConstraint};
pub use decompose::{
    decompose, decompose_with, DecomposeError, DecomposeStats, Parallelism, Strategy,
    PAR_SEQ_CUTOFF,
};
pub use dsl::{parse_constraint, parse_pcset};
pub use error::BoundError;
pub use groupby::GroupBound;
pub use pc_budget as budget;
pub use pc_budget::pressure::{AdmissionVerdict, PressureGauge, PressureStats, SchedReport};
pub use pc_budget::{CancelToken, QueryBudget, TripReason};
pub use pc_solver::{MilpOptions, Warmth};
pub use pcset::{PcSet, Violation};
pub use session::{
    ConstraintId, MemoStats, QueryGuard, Session, SessionOptions, SessionRegistry, TenantExists,
    UnknownConstraint,
};
pub use shard::{interaction_components, Shard, ShardedCellSet};
pub use specialize::CellSet;
