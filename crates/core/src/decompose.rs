//! Cell decomposition (§4.1) with the paper's optimizations, a parallel
//! fork/join driver, and allocation-conscious region handling.
//!
//! For `n` predicate constraints there are up to `2ⁿ` cells — conjunctions
//! choosing, for every constraint, either its predicate or the negation.
//! Only satisfiable cells take part in the MILP. The strategies:
//!
//! * [`Strategy::Naive`] — test all `2ⁿ` conjunctions independently
//!   (the "No Optimization" series of Fig 7).
//! * [`Strategy::Dfs`] — Optimization 2: depth-first search over
//!   include/exclude decisions, pruning whole subtrees whose prefix is
//!   already unsatisfiable (a conjunction can only shrink).
//! * [`Strategy::DfsRewrite`] — Optimization 3 on top, generalized into
//!   a **carried witness**. Every node holds a point of its prefix
//!   `X = region ∧ ¬excluded`, starting from any point of the base at the
//!   root. Deciding `ψ` at the node, the point settles the branch it falls
//!   in (`ψ(w)` true: `X ∧ ψ`, else `X ∧ ¬ψ`) without a solver call, so
//!   only the other branch is probed, and that probe's witness rides into
//!   its child. The paper's rewrite rule (`X` satisfiable and `X ∧ ψ` not,
//!   so `X ∧ ¬ψ` is satisfiable for free) is the special case where the
//!   probed branch is the include branch and comes back unsatisfiable.
//!   Leaves emit the point they carry as the cell's witness, so no leaf
//!   re-solves. One probe per split instead of up to two.
//! * [`Strategy::EarlyStop`] — Optimization 4: [`Strategy::DfsRewrite`]
//!   down to depth `K`, then stop verifying and admit every remaining
//!   cell as satisfiable. False-positive cells add allocation variables
//!   but no constraints, so bounds stay correct and only get (possibly)
//!   looser.
//!
//! [`Strategy::Dfs`] never carries a point across a split: it probes both
//! branches of every split, as the paper's Fig 7 "DFS" series does, and
//! only hands each probe's witness to the child it admitted.
//!
//! Query-predicate pushdown (Optimization 1) enters through the `base`
//! region: cells are decomposed inside `query ∩ domain`, so constraints
//! not overlapping the query never spawn cells. The one-shot engine goes
//! further: with [`crate::BoundOptions::shard`] on it drops every
//! constraint whose predicate misses the base *before* the search (see
//! `crate::bounds`), so the DFS never splits on them at all.
//!
//! # Parallelism
//!
//! The DFS strategies accept a [`Parallelism`] policy
//! ([`decompose_with`]). The search runs sequentially until it has done
//! [`WorkGate::GRAIN`] of work inline: a cold hand-off to the pool costs
//! about as much as a whole small decomposition, so forking one only adds
//! latency. Past the grain, whenever *both* branches of a node survive and
//! the remaining subtree is worth forking (more than [`PAR_SEQ_CUTOFF`]
//! undecided constraints), they run as independent stealable tasks
//! (`rayon::join` on the work-stealing pool), each accumulating into its
//! own cell vector and [`DecomposeStats`], merged include-first
//! afterwards — so the emitted cell order, the cell signatures and
//! regions, and every counter except [`DecomposeStats::parallel_subtrees`]
//! are *identical* to the sequential run (property-tested in
//! `tests/prop_decompose.rs` under the eager gate,
//! [`Parallelism::eager`], which forks at every eligible split from the
//! root). The one representation-level difference: a parallel policy also
//! lets each SAT probe fan out under its own gate
//! ([`pc_predicate::sat::find_witness_gated`]), which is first-hit-wins, so
//! a cell's stored *witness* may be a different — equally genuine — point
//! of the same cell than the sequential run's. Carried witnesses, prefix
//! pruning and the rewrite case are per-branch decisions and survive the
//! split untouched.
//!
//! # Allocation discipline
//!
//! Regions travel the tree as [`Arc<Region>`]: a branch clones the box
//! only when one of its atoms genuinely tightens an interval
//! ([`Region::tightened_by`]), and a clone copies only the interval
//! buffer (the attribute types are shared with the schema); otherwise the
//! child shares the parent's allocation. Cell signatures are
//! [`ActiveSet`] bitsets, not index vectors.
//!
//! The prefix's exclusions live on one stack per search, sized for the
//! deepest path when the search starts. The exclude probe and the exclude
//! branch push the split's predicate and pop it on return; the include
//! branch reuses the stack as it is. Only a fork past the gate copies it,
//! once, for the include task. Each SAT probe then refills its thread's
//! region and exclusion buffers and allocates only the witness it
//! returns, however deep its search runs ([`pc_predicate::sat`],
//! "Allocation discipline").
//!
//! # Sharding: factoring over the constraint-interaction graph
//!
//! The `2ⁿ` worst case counts *interacting* constraints. Two constraints
//! whose attribute boxes (predicate region ∩ domain) are geometrically
//! disjoint can never both be active in a satisfiable cell, so the cell
//! set of the whole catalog *factors*: build the **constraint-interaction
//! graph** (vertices = constraints, edges = pairwise box overlap), take
//! its connected components, and decompose each component — a **shard** —
//! independently. Every satisfiable flat cell's active set lies inside
//! exactly one component (active constraints pairwise overlap, so they
//! form a clique), and excluding another shard's predicate is vacuous on
//! the cell's region; hence the flat cell set is precisely the disjoint
//! union of the shard-local cell sets, and a 1000-constraint catalog of
//! 14-constraint components costs the *sum* of its shards, not their
//! product. The shard layer lives in [`crate::shard`]; the engine routes
//! through it automatically ([`crate::BoundOptions::shard`]), and
//! [`DecomposeStats::shards`] / [`DecomposeStats::max_shard_constraints`]
//! report the factoring.

use crate::estimate::SplitOrdering;
use crate::{ActiveSet, Cell, PcSet};
use pc_budget::{QueryBudget, WorkGate};
use pc_predicate::sat::SatOutcome;
use pc_predicate::{sat, Predicate, Region};
use std::fmt;
use std::sync::Arc;

/// Constraint-count ceiling for [`Strategy::Naive`]: `2ⁿ` cells past this
/// are pointless to enumerate (and would overflow the mask well before
/// exhausting patience). A one-shot bound with
/// [`crate::BoundOptions::shard`] on counts only the constraints its
/// query region reaches.
pub const NAIVE_LIMIT: usize = 25;

/// Which decomposition algorithm to run.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum Strategy {
    /// Evaluate all `2ⁿ` cells independently.
    Naive,
    /// DFS with prefix-unsatisfiability pruning (Optimization 2).
    Dfs,
    /// DFS plus the `X ∧ ¬Y` rewrite (Optimization 3), generalized into
    /// a witness carried down the tree (module docs). The default.
    DfsRewrite,
    /// [`Strategy::DfsRewrite`] down to `depth`, then admit unverified
    /// cells (Optimization 4).
    EarlyStop {
        /// Depth (number of constraints decided) after which verification
        /// stops.
        depth: usize,
    },
}

/// Why a decomposition could not run.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum DecomposeError {
    /// [`Strategy::Naive`] was asked to enumerate more than
    /// [`NAIVE_LIMIT`] constraints' worth of cells.
    TooManyConstraints {
        /// Constraints in the set.
        n: usize,
        /// The enforced ceiling.
        limit: usize,
    },
}

impl fmt::Display for DecomposeError {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        match self {
            DecomposeError::TooManyConstraints { n, limit } => write!(
                f,
                "naive decomposition of {n} constraints would enumerate 2^{n} cells \
                 (limit: {limit}); use a DFS strategy"
            ),
        }
    }
}

impl std::error::Error for DecomposeError {}

/// Counters describing the work a decomposition performed; the
/// "number of evaluated cells" metric of Fig 7 is [`DecomposeStats::sat_checks`].
#[derive(Debug, Clone, Copy, Default, PartialEq, Eq)]
pub struct DecomposeStats {
    /// Satisfiability-solver invocations.
    pub sat_checks: u64,
    /// Satisfiable cells emitted.
    pub cells: usize,
    /// Subtrees pruned by an unsatisfiable prefix.
    pub pruned_subtrees: u64,
    /// Splits whose include branch probed unsatisfiable, admitting the
    /// exclude branch without a check (the paper's rewrite rule; the
    /// carried witness saves a check at every other split too, which
    /// shows in [`DecomposeStats::sat_checks`], not here).
    pub rewrite_skips: u64,
    /// Cells admitted without verification by early stopping.
    pub assumed_sat: u64,
    /// Subtrees executed as independent parallel tasks (0 in sequential
    /// runs; the only counter that may differ between sequential and
    /// parallel runs of the same decomposition).
    pub parallel_subtrees: u64,
    /// Always 0: no code path counts into it. Kept because the
    /// benchmark harness (`perfbench`) reads it.
    pub splice_memo_hits: u64,
    /// Cells an incremental epoch derivation touched — split by an added
    /// constraint's box, or merged/widened by a retired one (see
    /// [`crate::CellSet`]'s derive paths). Cells outside the churned
    /// box are shared untouched and not counted; a full decomposition
    /// reports 0.
    pub incremental_splits: u64,
    /// Frontier cells emitted because the [`QueryBudget`] tripped before
    /// the subtree below them was explored ([`Cell::undecided`]
    /// non-empty). `0` means the decomposition ran to completion; any
    /// other value marks the cell set as *degraded* — sound, but with
    /// bounds possibly looser than the exact decomposition's.
    pub frontier_cells: u64,
    /// Include/exclude splits decided under an estimate-guided order
    /// ([`crate::estimate`]) instead of declaration order. `0` when
    /// ordering was off (or the search never split).
    pub ordered_splits: u64,
    /// Connected components of the constraint-interaction graph the cell
    /// set was factored over ([`crate::shard::ShardedCellSet`]). A
    /// one-shot bound factors only the constraints its query region
    /// reaches, so it counts *reached* shards; a session counts every
    /// shard of its epoch. `0` on a one-shot answer of one slice — the
    /// reference path, a disjoint-hinted set, or reached constraints that
    /// form one component — and on a cell-free one-shot answer (an open
    /// region the closure probe answered alone, see
    /// [`crate::BoundOptions::shard`]); `1` means a session epoch of a
    /// single component.
    pub shards: usize,
    /// The largest shard's constraint count — the quantity that actually
    /// drives the exponential worst case once the set is factored (over
    /// reached shards for a one-shot bound, as for
    /// [`DecomposeStats::shards`]). `0` wherever `shards` is `0`.
    pub max_shard_constraints: usize,
}

impl DecomposeStats {
    /// Fold another subtree's counters into this one (`cells` is derived
    /// from the merged cell vector by the caller, not summed here).
    pub fn absorb(&mut self, other: &DecomposeStats) {
        self.sat_checks += other.sat_checks;
        self.pruned_subtrees += other.pruned_subtrees;
        self.rewrite_skips += other.rewrite_skips;
        self.assumed_sat += other.assumed_sat;
        self.parallel_subtrees += other.parallel_subtrees;
        self.splice_memo_hits += other.splice_memo_hits;
        self.incremental_splits += other.incremental_splits;
        self.frontier_cells += other.frontier_cells;
        self.ordered_splits += other.ordered_splits;
        // Shard topology is a property of the whole set, not additive
        // work: folding two views keeps the widest one.
        self.shards = self.shards.max(other.shards);
        self.max_shard_constraints = self.max_shard_constraints.max(other.max_shard_constraints);
    }
}

/// Minimum number of *undecided* constraints below a node for its
/// include/exclude split to fork as pool tasks. Below this the subtree is
/// at most `2^PAR_SEQ_CUTOFF` satisfiability checks — cheaper to finish
/// inline than to make stealable.
pub const PAR_SEQ_CUTOFF: usize = 3;

/// How far to fan the decomposition DFS out across threads.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub struct Parallelism {
    /// Worker threads to target. `0` = auto-detect
    /// (`rayon::current_num_threads`), `1` = sequential.
    pub threads: usize,
    /// Open the search's [`WorkGate`] at the root: fork every eligible
    /// split, instead of only once the search has run
    /// [`WorkGate::GRAIN`] inline. Cells are identical either way; this
    /// is the oracle for "forked == inline" tests, not a tuning knob.
    pub eager: bool,
}

impl Parallelism {
    /// Strictly sequential execution.
    pub const SEQUENTIAL: Parallelism = Parallelism {
        threads: 1,
        eager: false,
    };

    /// Auto-detected thread count, forking once the search has run the
    /// grain inline.
    pub const AUTO: Parallelism = Parallelism {
        threads: 0,
        eager: false,
    };

    /// The thread count after auto-detection.
    pub fn resolved_threads(&self) -> usize {
        if self.threads == 0 {
            rayon::current_num_threads()
        } else {
            self.threads
        }
    }

    /// The gate of a search starting now under this policy:
    /// [`WorkGate::INLINE`] when it resolves to one thread (`eager` cannot
    /// re-enable forking on a sequential policy).
    fn gate(&self) -> WorkGate {
        if self.resolved_threads() <= 1 {
            WorkGate::INLINE
        } else {
            WorkGate::start(self.eager)
        }
    }
}

impl Default for Parallelism {
    fn default() -> Self {
        Parallelism::SEQUENTIAL
    }
}

/// Decompose the constraint set inside `base` (= query region ∩ domain),
/// sequentially. See [`decompose_with`] for the parallel driver.
///
/// Cells whose active set is empty are not emitted; whether missing rows
/// may exist outside every predicate is the closure question, answered by
/// [`PcSet::is_closed_within`].
pub fn decompose(
    set: &PcSet,
    base: &Region,
    strategy: Strategy,
) -> Result<(Vec<Cell>, DecomposeStats), DecomposeError> {
    decompose_with(set, base, strategy, Parallelism::SEQUENTIAL)
}

/// Decompose with an explicit [`Parallelism`] policy.
///
/// The emitted cell signatures, regions, and order are identical to the
/// sequential run; only [`DecomposeStats::parallel_subtrees`] (and
/// possibly the identity of stored witnesses — see the module docs)
/// depends on the policy.
/// [`Strategy::Naive`] ignores the policy — it exists as the unoptimized
/// baseline and parallelizing it would only flatter it.
pub fn decompose_with(
    set: &PcSet,
    base: &Region,
    strategy: Strategy,
    par: Parallelism,
) -> Result<(Vec<Cell>, DecomposeStats), DecomposeError> {
    decompose_budgeted(set, base, strategy, par, &QueryBudget::unlimited())
}

/// Decompose under a [`QueryBudget`]: the cooperative-cancellation entry
/// point. The budget is checked at every DFS node (so a deadline or
/// cancel returns within one include/exclude split) and each
/// satisfiability probe charges one unit against the SAT-check cap.
///
/// When the budget trips the search does **not** discard partial work or
/// return an error: every subtree it never descended into is emitted as a
/// single *frontier cell* — region and `active` from the node's prefix,
/// [`Cell::undecided`] listing the constraints `[idx..n)` that were never
/// split on. The result is a sound over-approximation of the exact cell
/// set (rows of a frontier cell may belong to any subset of its undecided
/// constraints; the bounding engine accounts for that conservatively), so
/// budget-tripped bounds still contain the exact answer — they are just
/// looser. [`DecomposeStats::frontier_cells`] > 0 flags the degradation.
pub fn decompose_budgeted(
    set: &PcSet,
    base: &Region,
    strategy: Strategy,
    par: Parallelism,
    budget: &QueryBudget,
) -> Result<(Vec<Cell>, DecomposeStats), DecomposeError> {
    decompose_ordered_budgeted(set, base, strategy, par, budget, None)
}

/// [`decompose_budgeted`] with an optional estimate-guided decision order
/// ([`crate::estimate::SplitOrdering`]): the DFS decides constraint
/// `ordering.constraint_at(depth)` at depth `depth` instead of constraint
/// `depth` — most-selective-first, so unsatisfiable branches die near the
/// root and frontier cells left by a budget trip are the least-determined
/// ones. Cell signatures still use catalog indices, so the emitted cell
/// *set* (signatures, regions, satisfiability) is identical to the
/// declaration-order run — only the DFS visit order, the per-cell witness
/// identity, and the work counters change (see [`crate::estimate`] for
/// the argument). Split survival is staged on `ordering` for the caller
/// to publish after an untripped run. [`Strategy::Naive`] ignores the
/// order (mask enumeration has no prefix structure to help).
pub fn decompose_ordered_budgeted(
    set: &PcSet,
    base: &Region,
    strategy: Strategy,
    par: Parallelism,
    budget: &QueryBudget,
    ordering: Option<&SplitOrdering>,
) -> Result<(Vec<Cell>, DecomposeStats), DecomposeError> {
    let mut stats = DecomposeStats::default();
    let mut cells = Vec::new();
    let n = set.len();
    debug_assert!(
        ordering.is_none_or(|o| o.order().len() == n),
        "ordering must cover the whole set"
    );
    if base.is_empty() {
        return Ok((cells, stats));
    }
    match strategy {
        Strategy::Naive => {
            if n > NAIVE_LIMIT {
                return Err(DecomposeError::TooManyConstraints {
                    n,
                    limit: NAIVE_LIMIT,
                });
            }
            for mask in 0u64..(1 << n) {
                if !budget.proceed() {
                    // Naive has no prefix structure to cut at: cover every
                    // unenumerated mask with one all-undecided frontier
                    // cell over the whole base. Overlap with the cells
                    // already emitted only loosens the bound.
                    push_frontier(
                        Arc::new(base.clone()),
                        ActiveSet::new(),
                        (0..n).collect(),
                        &mut cells,
                        &mut stats,
                    );
                    break;
                }
                let mut region = base.clone();
                let mut active = ActiveSet::new();
                let mut negs: Vec<&Predicate> = Vec::new();
                for (i, pc) in set.constraints().iter().enumerate() {
                    if mask & (1 << i) != 0 {
                        active.insert(i);
                        for atom in pc.predicate.atoms() {
                            region.intersect_atom(atom);
                        }
                    } else {
                        negs.push(&pc.predicate);
                    }
                }
                match sat::find_witness_budgeted(&region, &negs, false, budget) {
                    SatOutcome::Sat(witness) => {
                        stats.sat_checks += 1;
                        if !active.is_empty() {
                            cells.push(Cell {
                                region: Arc::new(region),
                                active,
                                witness: Some(witness),
                                undecided: ActiveSet::new(),
                            });
                        }
                    }
                    SatOutcome::Unsat => stats.sat_checks += 1,
                    SatOutcome::Tripped => {
                        push_frontier(
                            Arc::new(base.clone()),
                            ActiveSet::new(),
                            (0..n).collect(),
                            &mut cells,
                            &mut stats,
                        );
                        break;
                    }
                }
            }
        }
        Strategy::Dfs | Strategy::DfsRewrite | Strategy::EarlyStop { .. } => {
            let (carry, stop_depth) = match strategy {
                Strategy::Dfs => (false, usize::MAX),
                Strategy::DfsRewrite => (true, usize::MAX),
                Strategy::EarlyStop { depth } => (true, depth),
                Strategy::Naive => unreachable!(),
            };
            let frame = Frame {
                set,
                carry,
                stop_depth,
                gate: par.gate(),
                eager: par.eager,
                budget,
                ordering,
            };
            let root = Node {
                region: Arc::new(base.clone()),
                active: ActiveSet::new(),
                // The root prefix has no exclusions: any point of the
                // (non-empty) base is a witness of it.
                witness: base.pick_witness(),
            };
            // One exclusion stack for the whole search: depth ≤ n.
            let mut excluded = Vec::with_capacity(n);
            dfs(&frame, &mut excluded, root, 0, &mut cells, &mut stats);
        }
    }
    stats.cells = cells.len();
    Ok((cells, stats))
}

/// Emit the frontier cell covering the unexplored subtree rooted at a
/// node: `undecided` lists every constraint the prefix never split on
/// (under an estimate-guided order, the *remaining order entries* — not a
/// contiguous index range).
fn push_frontier(
    region: Arc<Region>,
    active: ActiveSet,
    undecided: ActiveSet,
    cells: &mut Vec<Cell>,
    stats: &mut DecomposeStats,
) {
    debug_assert!(!undecided.is_empty(), "a frontier must have open splits");
    // Unlike ordinary cells, an active-empty frontier cell IS emitted: its
    // rows may satisfy any subset of the undecided constraints, so it is
    // not the all-negated region the closure check accounts for.
    cells.push(Cell {
        region,
        active,
        witness: None,
        undecided,
    });
    stats.frontier_cells += 1;
}

/// Invariant parameters of one decomposition, threaded through the DFS by
/// reference instead of as separate arguments.
struct Frame<'a> {
    set: &'a PcSet,
    /// Carry a witness across splits so it settles one branch for free
    /// (every DFS strategy but [`Strategy::Dfs`]).
    carry: bool,
    stop_depth: usize,
    /// The search's fork gate, started at entry; [`WorkGate::INLINE`]
    /// means sequential.
    gate: WorkGate,
    /// [`Parallelism::eager`]: the gate above and each SAT probe's own
    /// gate start open.
    eager: bool,
    /// Cooperative budget, checked once per DFS node and charged once per
    /// satisfiability probe. [`QueryBudget::unlimited`] in the classic
    /// entry points.
    budget: &'a QueryBudget,
    /// Estimate-guided decision order: depth `d` decides constraint
    /// `ordering.constraint_at(d)` instead of constraint `d`. `None` =
    /// declaration order. Also the staging area for survival updates.
    ordering: Option<&'a SplitOrdering>,
}

/// One DFS node: the prefix box, the constraints included so far, and a
/// point of `region ∧ ¬excluded` when the prefix was verified (`None` once
/// early stopping admits it unverified). The prefix's exclusions live on
/// the search's shared stack, not in the node.
struct Node {
    region: Arc<Region>,
    active: ActiveSet,
    witness: Option<Vec<f64>>,
}

/// The verdict on one branch of a split: `None` = pruned, `Some(None)` =
/// admitted unverified (early stop), `Some(Some(w))` = proven with
/// witness `w`.
type Branch = Option<Option<Vec<f64>>>;

impl<'a> Frame<'a> {
    /// Fork the split at `idx`? Only once the search's gate is open, and
    /// only when the subtree still holds enough undecided constraints to
    /// amortize a stealable task.
    fn should_fork(&self, idx: usize) -> bool {
        self.set.len() - idx > PAR_SEQ_CUTOFF && self.gate.is_open()
    }

    /// The catalog index of the constraint decided at DFS depth `idx`.
    fn constraint_at(&self, idx: usize) -> usize {
        self.ordering.map_or(idx, |o| o.constraint_at(idx))
    }

    /// The undecided set of a frontier cut at depth `idx`: every
    /// constraint the prefix has not yet split on, in whatever order the
    /// run decides them.
    fn frontier_undecided(&self, idx: usize) -> ActiveSet {
        match self.ordering {
            Some(o) => o.order()[idx..].iter().copied().collect(),
            None => (idx..self.set.len()).collect(),
        }
    }

    /// Budget-aware satisfiability probe, counted in `stats`: the branch
    /// verdict when the check ran, `None` when the budget tripped (before
    /// or during the search — a tripped probe must never be read as
    /// "unsatisfiable").
    fn probe(
        &self,
        region: &Region,
        negs: &[&Predicate],
        stats: &mut DecomposeStats,
    ) -> Option<Branch> {
        // A parallel search also lets each probe fan its branch disjuncts
        // out, under a gate of the probe's own.
        let gate = if self.gate == WorkGate::INLINE {
            WorkGate::INLINE
        } else {
            WorkGate::start(self.eager)
        };
        let verdict = match sat::find_witness_gated(region, negs, gate, self.budget) {
            SatOutcome::Sat(w) => Some(Some(w)),
            SatOutcome::Unsat => None,
            SatOutcome::Tripped => return None,
        };
        stats.sat_checks += 1;
        Some(verdict)
    }

    /// [`Frame::probe`] of `region ∧ ¬excluded ∧ ¬psi`: pushes `psi` onto
    /// the exclusion stack for the probe and pops it again.
    fn probe_excluding(
        &self,
        region: &Region,
        excluded: &mut Vec<&'a Predicate>,
        psi: &'a Predicate,
        stats: &mut DecomposeStats,
    ) -> Option<Branch> {
        excluded.push(psi);
        let verdict = self.probe(region, excluded, stats);
        excluded.pop();
        verdict
    }
}

/// DFS over include/exclude decisions for constraint `idx`, with the
/// invariant that the node's prefix (region ∧ ¬excluded) is satisfiable
/// (or assumed so past `stop_depth`) and, when verified, witnessed by the
/// node's point. `excluded` is the search's one exclusion stack: the
/// exclude probe and the exclude branch push the split's predicate and pop
/// it on return, so the stack holds exactly the prefix's exclusions on
/// entry and on exit. A node whose branches *both* survive forks them as
/// stealable pool tasks whenever [`Frame::should_fork`] allows; only then
/// is the stack copied, once, for the include task.
fn dfs<'a>(
    frame: &Frame<'a>,
    excluded: &mut Vec<&'a Predicate>,
    node: Node,
    idx: usize,
    cells: &mut Vec<Cell>,
    stats: &mut DecomposeStats,
) {
    let set = frame.set;
    let Node {
        region,
        active,
        witness,
    } = node;
    if idx == set.len() {
        if !active.is_empty() {
            cells.push(Cell {
                region,
                active,
                // The carried point is the cell's witness: no re-solve.
                // Early stop never stores one, even on leaves whose every
                // split happened to be verified.
                witness: witness.filter(|_| frame.stop_depth == usize::MAX),
                undecided: ActiveSet::new(),
            });
        }
        return;
    }
    // One budget check per node: a trip cuts the whole subtree below this
    // split and records it as a single frontier cell.
    if !frame.budget.proceed() {
        push_frontier(region, active, frame.frontier_undecided(idx), cells, stats);
        return;
    }
    // Under an estimate-guided order, depth `idx` decides the idx-th most
    // selective constraint; signatures always use the catalog index.
    let ci = frame.constraint_at(idx);
    let psi = &set.constraints()[ci].predicate;

    // Include branch box: clone-on-tighten — most constraints repeat
    // intervals the prefix already fixed, and those branches share the
    // parent's allocation.
    let inc_region = match region.tightened_by(psi.atoms()) {
        Some(tightened) => Arc::new(tightened),
        None => Arc::clone(&region),
    };

    let (inc, exc): (Branch, Branch) = if idx >= frame.stop_depth {
        // Past the early-stop depth: admit both branches unverified.
        stats.assumed_sat += 2;
        (Some(None), Some(None))
    } else {
        let verdicts = match witness.filter(|_| frame.carry) {
            // The carried point lies in X = region ∧ ¬excluded, so it
            // proves the branch it falls in; only the other is probed.
            Some(w) if psi.eval(&w) => frame
                .probe_excluding(&region, excluded, psi, stats)
                .map(|exc| (Some(Some(w)), exc)),
            Some(w) => frame.probe(&inc_region, excluded, stats).map(|inc| {
                if inc.is_none() {
                    // X ∧ ψ is empty: the rewrite rule's case.
                    stats.rewrite_skips += 1;
                }
                (inc, Some(Some(w)))
            }),
            // Strategy::Dfs: probe both branches.
            None => frame
                .probe(&inc_region, excluded, stats)
                .and_then(|inc| Some((inc, frame.probe_excluding(&region, excluded, psi, stats)?))),
        };
        let Some((inc, exc)) = verdicts else {
            push_frontier(region, active, frame.frontier_undecided(idx), cells, stats);
            return;
        };
        stats.pruned_subtrees += u64::from(inc.is_none()) + u64::from(exc.is_none());
        // Stage the split's survival for the estimate layer (published by
        // the caller only if the whole run finishes untripped).
        if let Some(ordering) = frame.ordering {
            ordering.record_split(ci, u64::from(inc.is_some()) + u64::from(exc.is_some()));
            stats.ordered_splits += 1;
        }
        (inc, exc)
    };

    let include = |witness| {
        let mut active = active.clone();
        active.insert(ci);
        Node {
            region: Arc::clone(&inc_region),
            active,
            witness,
        }
    };
    match (inc, exc) {
        (Some(iw), Some(ew)) => {
            let inc_node = include(iw);
            let exc_node = Node {
                region,
                active,
                witness: ew,
            };
            if !frame.should_fork(idx) {
                dfs(frame, excluded, inc_node, idx + 1, cells, stats);
                excluded.push(psi);
                dfs(frame, excluded, exc_node, idx + 1, cells, stats);
                excluded.pop();
            } else {
                // Fork: the include task gets its own copy of the stack,
                // each subtree its own accumulator; merge include-first so
                // the output order matches sequential.
                let mut inc_excluded = Vec::with_capacity(set.len());
                inc_excluded.extend_from_slice(excluded);
                excluded.push(psi);
                let (mut inc_out, mut exc_out) = (
                    (Vec::new(), DecomposeStats::default()),
                    (Vec::new(), DecomposeStats::default()),
                );
                rayon::join(
                    || {
                        dfs(
                            frame,
                            &mut inc_excluded,
                            inc_node,
                            idx + 1,
                            &mut inc_out.0,
                            &mut inc_out.1,
                        )
                    },
                    || {
                        dfs(
                            frame,
                            excluded,
                            exc_node,
                            idx + 1,
                            &mut exc_out.0,
                            &mut exc_out.1,
                        )
                    },
                );
                excluded.pop();
                stats.parallel_subtrees += 2;
                stats.absorb(&inc_out.1);
                stats.absorb(&exc_out.1);
                cells.append(&mut inc_out.0);
                cells.append(&mut exc_out.0);
            }
        }
        (Some(iw), None) => dfs(frame, excluded, include(iw), idx + 1, cells, stats),
        (None, Some(ew)) => {
            let exc_node = Node {
                region,
                active,
                witness: ew,
            };
            excluded.push(psi);
            dfs(frame, excluded, exc_node, idx + 1, cells, stats);
            excluded.pop();
        }
        (None, None) => {}
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::{FrequencyConstraint, PredicateConstraint, ValueConstraint};
    use pc_predicate::{Atom, AttrType, Schema};

    fn schema() -> Schema {
        Schema::new(vec![("utc", AttrType::Int), ("price", AttrType::Float)])
    }

    fn pc_on_utc(lo: f64, hi: f64) -> PredicateConstraint {
        PredicateConstraint::new(
            pc_predicate::Predicate::atom(Atom::bucket(0, lo, hi)),
            ValueConstraint::none(),
            FrequencyConstraint::at_most(100),
        )
    }

    fn paper_444_set() -> PcSet {
        // §4.4 overlapping example: t1 = [11, 12), t2 = [11, 13)
        PcSet::new(schema())
            .with(pc_on_utc(11.0, 12.0))
            .with(pc_on_utc(11.0, 13.0))
    }

    fn cell_signatures(cells: &[Cell]) -> Vec<Vec<usize>> {
        let mut sigs: Vec<Vec<usize>> = cells.iter().map(|c| c.active.to_vec()).collect();
        sigs.sort();
        sigs
    }

    #[test]
    fn paper_example_two_satisfiable_cells() {
        let set = paper_444_set();
        let base = Region::full(set.schema());
        for strategy in [Strategy::Naive, Strategy::Dfs, Strategy::DfsRewrite] {
            let (cells, _) = decompose(&set, &base, strategy).unwrap();
            // c1 = t1∧t2 and c2 = ¬t1∧t2; c3 = t1∧¬t2 is unsatisfiable
            assert_eq!(
                cell_signatures(&cells),
                vec![vec![0, 1], vec![1]],
                "{strategy:?}"
            );
        }
    }

    #[test]
    fn strategies_agree_on_random_overlaps() {
        let set = PcSet::new(schema())
            .with(pc_on_utc(0.0, 10.0))
            .with(pc_on_utc(5.0, 15.0))
            .with(pc_on_utc(8.0, 20.0))
            .with(pc_on_utc(0.0, 20.0));
        let base = Region::full(set.schema());
        let (naive, naive_stats) = decompose(&set, &base, Strategy::Naive).unwrap();
        let (dfs, dfs_stats) = decompose(&set, &base, Strategy::Dfs).unwrap();
        let (rw, rw_stats) = decompose(&set, &base, Strategy::DfsRewrite).unwrap();
        assert_eq!(cell_signatures(&naive), cell_signatures(&dfs));
        assert_eq!(cell_signatures(&naive), cell_signatures(&rw));
        // the rewrite can only remove checks relative to plain DFS; naive
        // always evaluates exactly 2^n cells (DFS wins at scale when whole
        // subtrees prune — see the Fig 7 experiment — but on 4 dense
        // constraints its 2·(2ⁿ−1) node checks can exceed 2ⁿ)
        assert!(dfs_stats.sat_checks >= rw_stats.sat_checks);
        assert_eq!(naive_stats.sat_checks, 16);
    }

    #[test]
    fn parallel_matches_sequential_exactly() {
        let set = PcSet::new(schema())
            .with(pc_on_utc(0.0, 10.0))
            .with(pc_on_utc(5.0, 15.0))
            .with(pc_on_utc(8.0, 20.0))
            .with(pc_on_utc(0.0, 20.0))
            .with(pc_on_utc(12.0, 30.0));
        let base = Region::full(set.schema());
        let (seq, seq_stats) = decompose(&set, &base, Strategy::DfsRewrite).unwrap();
        for threads in [2usize, 4, 8] {
            let par = Parallelism {
                threads,
                eager: true,
            };
            let (pcells, pstats) = decompose_with(&set, &base, Strategy::DfsRewrite, par).unwrap();
            // same cells in the same order, not just as a set
            assert_eq!(
                seq.iter().map(|c| c.active.to_vec()).collect::<Vec<_>>(),
                pcells.iter().map(|c| c.active.to_vec()).collect::<Vec<_>>(),
                "threads = {threads}"
            );
            assert_eq!(seq_stats.sat_checks, pstats.sat_checks);
            assert_eq!(seq_stats.rewrite_skips, pstats.rewrite_skips);
            assert_eq!(seq_stats.pruned_subtrees, pstats.pruned_subtrees);
            assert_eq!(seq_stats.cells, pstats.cells);
            assert!(pstats.parallel_subtrees > 0, "fan-out must engage");
        }
    }

    #[test]
    fn gate_derivation() {
        // sequential policies never fork, even when eager
        assert_eq!(Parallelism::SEQUENTIAL.gate(), WorkGate::INLINE);
        let p = |threads, eager| Parallelism { threads, eager };
        assert_eq!(p(1, true).gate(), WorkGate::INLINE);
        // parallel policies fork: at once when eager, else past the grain
        assert!(p(2, true).gate().is_open());
        assert_ne!(p(8, false).gate(), WorkGate::INLINE);
    }

    #[test]
    fn default_gate_keeps_a_small_search_inline() {
        let set = PcSet::new(schema())
            .with(pc_on_utc(0.0, 10.0))
            .with(pc_on_utc(5.0, 15.0))
            .with(pc_on_utc(8.0, 20.0))
            .with(pc_on_utc(0.0, 20.0))
            .with(pc_on_utc(12.0, 30.0));
        let base = Region::full(set.schema());
        let par = Parallelism {
            threads: 4,
            eager: false,
        };
        let (_, stats) = decompose_with(&set, &base, Strategy::DfsRewrite, par).unwrap();
        assert_eq!(
            stats.parallel_subtrees, 0,
            "a search under the grain never forks"
        );
    }

    #[test]
    fn sequential_cutoff_keeps_small_trees_inline() {
        // a subtree of ≤ PAR_SEQ_CUTOFF undecided constraints never forks
        let frame = |n: usize| Frame {
            set: Box::leak(Box::new({
                let mut s = PcSet::new(schema());
                for i in 0..n {
                    s.push(pc_on_utc(i as f64, i as f64 + 2.0));
                }
                s
            })),
            carry: true,
            stop_depth: usize::MAX,
            gate: WorkGate::start(true),
            eager: true,
            budget: Box::leak(Box::new(QueryBudget::unlimited())),
            ordering: None,
        };
        let f = frame(PAR_SEQ_CUTOFF);
        assert!(!f.should_fork(0), "tiny tree stays sequential");
        let f = frame(PAR_SEQ_CUTOFF + 1);
        assert!(f.should_fork(0), "root of a big tree forks");
        assert!(!f.should_fork(1), "but its bottom levels do not");
    }

    #[test]
    fn naive_overflow_is_an_error_not_a_panic() {
        let mut set = PcSet::new(schema());
        for i in 0..(NAIVE_LIMIT + 1) {
            set.push(pc_on_utc(i as f64, i as f64 + 2.0));
        }
        let base = Region::full(set.schema());
        let err = decompose(&set, &base, Strategy::Naive).unwrap_err();
        assert_eq!(
            err,
            DecomposeError::TooManyConstraints {
                n: NAIVE_LIMIT + 1,
                limit: NAIVE_LIMIT
            }
        );
        assert!(err.to_string().contains("naive decomposition"));
        // the DFS strategies handle the same set fine
        assert!(decompose(&set, &base, Strategy::DfsRewrite).is_ok());
    }

    #[test]
    fn witnesses_are_genuine() {
        let set = paper_444_set();
        let base = Region::full(set.schema());
        let (cells, _) = decompose(&set, &base, Strategy::DfsRewrite).unwrap();
        for cell in &cells {
            let w = cell
                .witness
                .as_ref()
                .expect("exact mode provides witnesses");
            assert!(cell.region.contains_row(w));
            for (i, pc) in set.constraints().iter().enumerate() {
                assert_eq!(
                    pc.predicate.eval(w),
                    cell.is_active(i),
                    "witness membership must match activity"
                );
            }
        }
    }

    #[test]
    fn carried_witnesses_are_genuine_for_every_strategy() {
        let two_d = |x0: f64, x1: f64, y0: f64, y1: f64| {
            PredicateConstraint::new(
                pc_predicate::Predicate::always()
                    .and(Atom::between(0, x0, x1))
                    .and(Atom::between(1, y0, y1)),
                ValueConstraint::none(),
                FrequencyConstraint::at_most(10),
            )
        };
        let set = PcSet::new(schema())
            .with(two_d(0.0, 10.0, 0.0, 5.0))
            .with(two_d(5.0, 15.0, 2.0, 8.0))
            .with(two_d(8.0, 20.0, 0.0, 10.0))
            .with(two_d(0.0, 20.0, 4.0, 6.0))
            .with(two_d(3.0, 4.0, 0.0, 10.0))
            .with(pc_on_utc(12.0, 30.0));
        let mut base = Region::full(set.schema());
        base.intersect_atom(&Atom::between(1, 1.0, 9.0));
        let n = set.len();
        for strategy in [
            Strategy::Naive,
            Strategy::Dfs,
            Strategy::DfsRewrite,
            Strategy::EarlyStop { depth: 3 },
            Strategy::EarlyStop { depth: n },
        ] {
            let (cells, _) = decompose(&set, &base, strategy).unwrap();
            assert!(!cells.is_empty(), "{strategy:?}");
            let exact = !matches!(strategy, Strategy::EarlyStop { .. });
            for cell in &cells {
                assert_eq!(cell.witness.is_some(), exact, "{strategy:?}");
                let Some(w) = &cell.witness else { continue };
                assert!(cell.region.contains_row(w), "{strategy:?}");
                for (i, pc) in set.constraints().iter().enumerate() {
                    assert_eq!(pc.predicate.eval(w), cell.is_active(i), "{strategy:?}");
                }
            }
        }
    }

    #[test]
    fn pushdown_excludes_non_overlapping() {
        let set = paper_444_set();
        // query touches only utc ∈ [12, 13): t1 cannot be active
        let mut base = Region::full(set.schema());
        base.intersect_atom(&Atom::bucket(0, 12.0, 13.0));
        let (cells, _) = decompose(&set, &base, Strategy::DfsRewrite).unwrap();
        assert_eq!(cell_signatures(&cells), vec![vec![1]]);
    }

    #[test]
    fn early_stop_superset_of_exact() {
        let set = PcSet::new(schema())
            .with(pc_on_utc(0.0, 10.0))
            .with(pc_on_utc(20.0, 30.0)) // disjoint from the first
            .with(pc_on_utc(5.0, 25.0));
        let base = Region::full(set.schema());
        let (exact, _) = decompose(&set, &base, Strategy::DfsRewrite).unwrap();
        let (approx, stats) = decompose(&set, &base, Strategy::EarlyStop { depth: 1 }).unwrap();
        let exact_sigs = cell_signatures(&exact);
        let approx_sigs = cell_signatures(&approx);
        for sig in &exact_sigs {
            assert!(
                approx_sigs.contains(sig),
                "early stop must not lose satisfiable cells"
            );
        }
        assert!(approx_sigs.len() >= exact_sigs.len());
        assert!(stats.assumed_sat > 0);
    }

    #[test]
    fn empty_base_no_cells() {
        let set = paper_444_set();
        let mut base = Region::full(set.schema());
        base.intersect_atom(&Atom::bucket(0, 100.0, 100.0));
        let (cells, stats) = decompose(&set, &base, Strategy::DfsRewrite).unwrap();
        assert!(cells.is_empty());
        assert_eq!(stats.sat_checks, 0);
    }

    #[test]
    fn no_constraints_no_cells() {
        let set = PcSet::new(schema());
        let base = Region::full(set.schema());
        let (cells, _) = decompose(&set, &base, Strategy::DfsRewrite).unwrap();
        assert!(cells.is_empty());
    }

    /// Every exact cell must be *covered* by some budgeted cell: the
    /// witness lies in the budgeted cell's region, every budgeted-active
    /// constraint holds at it, and any disagreement is confined to the
    /// budgeted cell's undecided set.
    fn assert_covers_exact(set: &PcSet, exact: &[Cell], budgeted: &[Cell]) {
        for e in exact {
            let w = e.witness.as_ref().expect("exact mode carries witnesses");
            let covered = budgeted.iter().any(|b| {
                b.region.contains_row(w)
                    && set.constraints().iter().enumerate().all(|(j, pc)| {
                        let holds = pc.predicate.eval(w);
                        if b.active.contains(j) {
                            holds
                        } else {
                            b.undecided.contains(j) || !holds
                        }
                    })
            });
            assert!(
                covered,
                "exact cell {:?} lost by the budgeted run",
                e.active
            );
        }
    }

    #[test]
    fn unlimited_budget_is_the_plain_decomposition() {
        let set = paper_444_set();
        let base = Region::full(set.schema());
        for strategy in [Strategy::Naive, Strategy::DfsRewrite] {
            let (plain, plain_stats) = decompose(&set, &base, strategy).unwrap();
            let (budgeted, stats) = decompose_budgeted(
                &set,
                &base,
                strategy,
                Parallelism::SEQUENTIAL,
                &QueryBudget::unlimited(),
            )
            .unwrap();
            assert_eq!(cell_signatures(&plain), cell_signatures(&budgeted));
            assert_eq!(plain_stats.sat_checks, stats.sat_checks);
            assert_eq!(stats.frontier_cells, 0);
            assert!(budgeted.iter().all(|c| !c.is_frontier()));
        }
    }

    #[test]
    fn sat_cap_trip_degrades_to_a_sound_frontier() {
        let set = PcSet::new(schema())
            .with(pc_on_utc(0.0, 10.0))
            .with(pc_on_utc(5.0, 15.0))
            .with(pc_on_utc(8.0, 20.0))
            .with(pc_on_utc(0.0, 20.0));
        let base = Region::full(set.schema());
        let (exact, exact_stats) = decompose(&set, &base, Strategy::DfsRewrite).unwrap();
        // trip at every cap below the exact run's check count: the result
        // must always remain a sound over-approximation
        let mut tripped_at_least_once = false;
        for cap in 0..exact_stats.sat_checks {
            let budget = QueryBudget::armed().with_sat_cap(cap);
            let (cells, stats) = decompose_budgeted(
                &set,
                &base,
                Strategy::DfsRewrite,
                Parallelism::SEQUENTIAL,
                &budget,
            )
            .unwrap();
            if stats.frontier_cells > 0 {
                tripped_at_least_once = true;
                assert!(budget.is_tripped());
                assert!(cells.iter().any(|c| c.is_frontier()));
            }
            assert_covers_exact(&set, &exact, &cells);
        }
        assert!(tripped_at_least_once, "caps below exhaustive must trip");
    }

    #[test]
    fn cancel_cuts_the_search_to_one_frontier_cell() {
        let set = PcSet::new(schema())
            .with(pc_on_utc(0.0, 10.0))
            .with(pc_on_utc(5.0, 15.0))
            .with(pc_on_utc(8.0, 20.0));
        let base = Region::full(set.schema());
        let budget = QueryBudget::armed();
        budget.cancel_token().expect("armed budget").cancel();
        let (cells, stats) = decompose_budgeted(
            &set,
            &base,
            Strategy::DfsRewrite,
            Parallelism::SEQUENTIAL,
            &budget,
        )
        .unwrap();
        // cancelled before the first split: everything is one frontier
        assert_eq!(stats.frontier_cells, 1);
        assert_eq!(stats.sat_checks, 0);
        assert_eq!(cells.len(), 1);
        assert!(cells[0].active.is_empty());
        assert_eq!(cells[0].undecided.to_vec(), vec![0, 1, 2]);
        let (exact, _) = decompose(&set, &base, Strategy::DfsRewrite).unwrap();
        assert_covers_exact(&set, &exact, &cells);
    }

    #[test]
    fn naive_trip_covers_unenumerated_masks() {
        let set = paper_444_set();
        let base = Region::full(set.schema());
        let (exact, _) = decompose(&set, &base, Strategy::Naive).unwrap();
        for cap in 0..4 {
            let budget = QueryBudget::armed().with_sat_cap(cap);
            let (cells, stats) = decompose_budgeted(
                &set,
                &base,
                Strategy::Naive,
                Parallelism::SEQUENTIAL,
                &budget,
            )
            .unwrap();
            assert_eq!(stats.frontier_cells, 1, "cap {cap}");
            assert_covers_exact(&set, &exact, &cells);
        }
    }

    #[test]
    fn parallel_budgeted_run_stays_sound() {
        let set = PcSet::new(schema())
            .with(pc_on_utc(0.0, 10.0))
            .with(pc_on_utc(5.0, 15.0))
            .with(pc_on_utc(8.0, 20.0))
            .with(pc_on_utc(0.0, 20.0))
            .with(pc_on_utc(12.0, 30.0));
        let base = Region::full(set.schema());
        let (exact, _) = decompose(&set, &base, Strategy::DfsRewrite).unwrap();
        let par = Parallelism {
            threads: 4,
            eager: true,
        };
        for cap in [0u64, 2, 5, 9] {
            let budget = QueryBudget::armed().with_sat_cap(cap);
            let (cells, _) =
                decompose_budgeted(&set, &base, Strategy::DfsRewrite, par, &budget).unwrap();
            assert_covers_exact(&set, &exact, &cells);
        }
    }
}
