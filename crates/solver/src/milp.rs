//! Branch & bound mixed-integer linear programming — warm-started,
//! tableau-carrying, and parallel.
//!
//! The PC bounding problem (§4.2 of the paper) requires *integer* row
//! allocations per cell. We solve it by branch & bound over the LP
//! relaxation: at each node solve the relaxation; if the optimum is
//! integral we have a candidate, otherwise branch on the most fractional
//! variable with `x ≤ ⌊v⌋` and `x ≥ ⌈v⌉` children. Nodes whose relaxation
//! bound cannot beat the incumbent are pruned.
//!
//! # Warm starts down the tree: the three tiers
//!
//! A child node's LP differs from its parent's by a single tightened
//! variable bound, which the engine exploits at three escalating levels:
//!
//! 1. **Cold crash** ([`Warmth::Cold`]) — every node standardizes its
//!    LP, builds a tableau, and runs phase 1 from the slack/artificial
//!    basis. The property-tested oracle.
//! 2. **Basis restore** ([`Warmth::Basis`]) — the parent's
//!    optimal simplex *basis* is threaded into
//!    [`solve_lp_tableau`]: the child still
//!    rebuilds its tableau from scratch, then crashes the parent basis
//!    in (O(m) pivots) and dual-restores feasibility, skipping phase 1.
//!    Basis incompatibility silently degrades to a cold solve.
//! 3. **Tableau carry** ([`Warmth::Carry`], the default) —
//!    the parent's whole [`CanonicalTableau`] is carried: the child
//!    appends its branch bound as one row, runs a single elimination
//!    pass against the parent-optimal basis, and dual-restores — **O(1)
//!    pivots per node** instead of the O(m) rebuild + crash of tier 2.
//!    Parents hand the tableau to both children through an [`Arc`]
//!    snapshot: the near child (explored first, on the same worker)
//!    clones the core lazily, and the far child — which by then usually
//!    holds the last reference, whether it ran locally or was stolen —
//!    takes it by move. A carried solve that stalls (dual-restore
//!    iteration cap, numerically degenerate re-optimization) falls back
//!    to a fresh rebuild, and every
//!    [`TABLEAU_REFRESH_DEPTH`] consecutive carries the node rebuilds
//!    anyway, bounding floating-point drift down deep chains. Appended
//!    branch rows are garbage-collected on the way down: a cut that
//!    dominates an earlier cut on the same (variable, direction) retires
//!    the superseded row at append time, so a deep descent carries
//!    O(root m + variables) rows rather than one per level — and the
//!    periodic refresh folds the survivors into the node's merged bounds
//!    for free (the rebuild standardizes from bounds, not rows).
//!
//!    Each tier includes the ones below it: the carried tableau *is*
//!    the warm start's deeper tier.
//!
//!    Interaction with the all-Le auto-disable: for a program whose rows
//!    are all `≤` with nonnegative rhs, a cold phase 1 is free, so the
//!    *basis-restore* tier is auto-disabled (crash + restore would be
//!    pure overhead). The tableau carry stays active there — the work it
//!    eliminates is the rebuild itself, which exists regardless of
//!    phase-1 cost. (Branching only tightens variable bounds, so the
//!    all-Le verdict holds for every node of the tree.)
//!
//!    Per-node pivot and rebuild counters ([`SearchStats`], on
//!    [`MilpSolution::search`]) make the O(m) → O(1) claim measurable:
//!    `benches/milp.rs` records them next to the wall-clock ablations,
//!    and `tests/prop_milp_carry.rs` asserts carried nodes pivot
//!    strictly less than rebuilt ones on Ge-bearing programs.
//!
//! * **Parallel search** ([`MilpOptions::threads`]): once the search has
//!   run [`WorkGate::GRAIN`] inline (a cold pool hand-off costs about as
//!   much as a whole small search), children are explored as stealable
//!   tasks on the work-stealing pool (`rayon::join`), the branch nearer
//!   the relaxation running hot on the current worker and the far branch
//!   exposed for stealing. Before that the same recursion runs both
//!   children inline, near first. The incumbent objective is
//!   shared through an [`AtomicU64`] (bit-cast `f64`) read lock-free at
//!   every prune test, so a bound proven on one worker prunes subtrees on
//!   all of them. The full incumbent updates under a mutex with
//!   deterministic tie-breaking — among the incumbents actually offered,
//!   equal objectives resolve to the lexicographically smaller solution
//!   vector rather than to whichever worker got there first. (Which
//!   optima are *offered* can still vary: a subtree tying the incumbent
//!   within the pruning tolerance may be pruned in one schedule and
//!   explored in another, so the returned `x` — and the objective, by at
//!   most that tolerance — can differ run to run.) Every mode proves an
//!   optimal objective up to the 1e-6 pruning tolerance; `threads: 1`
//!   additionally fixes the exact node visit order (the classic DFS
//!   stack).

use crate::simplex::{
    solve_lp_tableau, BranchBound, CanonicalTableau, ChildSolve, SolveStats, WarmStart,
};
use crate::{Sense, SolverError};
use pc_budget::{QueryBudget, TripReason, WorkGate};
use std::collections::HashMap;
use std::sync::atomic::{AtomicBool, AtomicU64, AtomicUsize, Ordering};
use std::sync::{Arc, Mutex};

/// Tolerance within which a value counts as integral.
const INT_TOL: f64 = 1e-6;

/// Objective difference below which two incumbents count as tied (and the
/// lexicographically smaller solution vector wins).
const TIE_TOL: f64 = 1e-12;

/// Parallel recursion depth past which a subtree switches to the
/// explicit-stack sequential search, bounding native stack growth on
/// pathological branching chains.
const PAR_DEPTH_LIMIT: usize = 64;

/// Consecutive carried solves after which a node rebuilds its tableau
/// from scratch even though the carry succeeded: each carried child
/// inherits its parent's accumulated floating-point error, and a
/// periodic refactorization bounds the drift at a bounded (and counted —
/// see [`SearchStats::rebuilt_nodes`]) cost.
pub const TABLEAU_REFRESH_DEPTH: u32 = 32;

/// A mixed-integer program: a [`LinearProgram`](crate::LinearProgram)
/// plus integrality flags.
#[derive(Debug, Clone)]
pub struct MilpProblem {
    /// The relaxation.
    pub lp: crate::LinearProgram,
    /// `integer[i]` marks variable `i` as integral.
    pub integer: Vec<bool>,
    /// Optional per-variable branch weights (estimate-guided search
    /// ordering). At a fractional node the search branches on the
    /// variable maximizing `fractionality × weight` instead of raw
    /// fractionality, so callers that know which variables are the most
    /// *selective* (the PC engine scores each cell's allocation variable
    /// by its constraints' box-volume estimates) get those decided first
    /// and prune earlier. `None` — or any all-equal weights — reproduces
    /// the classic most-fractional rule exactly. Weights never affect
    /// the optimum, only the node order; must be finite, positive, and
    /// one per variable.
    pub branch_scores: Option<Vec<f64>>,
}

impl MilpProblem {
    /// A problem where *all* variables are integers (the PC allocation
    /// case).
    pub fn all_integer(lp: crate::LinearProgram) -> Self {
        let n = lp.num_vars();
        MilpProblem {
            lp,
            integer: vec![true; n],
            branch_scores: None,
        }
    }

    /// Attach per-variable branch weights (see
    /// [`MilpProblem::branch_scores`]).
    pub fn with_branch_scores(mut self, scores: Vec<f64>) -> Self {
        self.branch_scores = Some(scores);
        self
    }
}

/// Knobs for the branch & bound search.
#[derive(Debug, Clone, Copy)]
pub struct MilpOptions {
    /// Maximum number of branch & bound nodes to explore; past it the
    /// search fails [`SolverError::LimitExceeded`].
    pub node_limit: usize,
    /// Worker threads for the search: `1` (the default) runs the
    /// deterministic sequential DFS; `0` or `≥ 2` explores children as
    /// stealable tasks on the global work-stealing pool once the search
    /// has run [`WorkGate::GRAIN`] inline (the pool's size, not this
    /// number, decides actual concurrency). Objective and feasibility are
    /// identical in every mode.
    pub threads: usize,
    /// How much of its parent's solve each node inherits (the tiers of
    /// the module docs; [`Warmth::Carry`] by default). Never affects
    /// results, only work.
    pub warmth: Warmth,
}

/// The warm-start tier of a chain of related LP solves: branch & bound
/// parent-to-child here, and, in the PC engine, the LP and root-MILP
/// chains across probes and queries. Each tier includes the one below.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum Warmth {
    /// Every solve standardizes and runs phase 1 from scratch.
    Cold,
    /// Hand each solve the previous optimal simplex basis: the successor
    /// rebuilds its tableau, crashes the basis in and dual-restores.
    Basis,
    /// Hand each solve the previous whole canonical tableau (append a
    /// branch row, re-price, or adapt by one row); a structural mismatch
    /// demotes to the basis tier.
    Carry,
}

impl Default for MilpOptions {
    fn default() -> Self {
        MilpOptions {
            node_limit: 50_000,
            threads: 1,
            warmth: Warmth::Carry,
        }
    }
}

/// Work counters of one branch & bound search — the honest-measurement
/// side of the warm-start tiers. "Carried" nodes were answered from the
/// parent's canonical tableau (tier 3); "rebuilt" nodes standardized and
/// built a tableau from scratch (tiers 1/2, including the root, carry
/// stalls, and periodic refreshes). Nodes pruned before any LP solve
/// (inconsistent branch bounds) appear in neither.
#[derive(Debug, Clone, Copy, Default, PartialEq, Eq)]
pub struct SearchStats {
    /// Nodes whose relaxation was solved on a carried tableau.
    pub carried_nodes: u64,
    /// Nodes whose relaxation rebuilt a tableau from scratch.
    pub rebuilt_nodes: u64,
    /// Simplex pivots spent in carried node solves.
    pub carried_pivots: u64,
    /// Simplex pivots spent in rebuilt node solves (crash + phase 1 +
    /// dual restore + phase 2).
    pub rebuilt_pivots: u64,
    /// Incumbent installs (improvements or tie-break replacements) made
    /// by a **near** child — the branch direction the best-first child
    /// order explores first. A high ratio of hits to installs means the
    /// child order is doing its job: incumbents arrive on the first
    /// descent, and the far siblings are pruned instead of searched.
    pub incumbent_first_hits: u64,
}

impl SearchStats {
    /// Total simplex pivots across the search.
    pub fn pivots(&self) -> u64 {
        self.carried_pivots + self.rebuilt_pivots
    }
}

/// A proven-optimal MILP solution.
#[derive(Debug, Clone, PartialEq)]
pub struct MilpSolution {
    /// Objective value at the returned point.
    pub objective: f64,
    /// Variable assignment (integral on the flagged variables).
    pub x: Vec<f64>,
    /// Number of branch & bound nodes explored.
    pub nodes: usize,
    /// Per-node pivot/rebuild counters (see [`SearchStats`]).
    pub search: SearchStats,
}

/// One node's accumulated bound overrides: `(var, lo, hi)` entries applied
/// on top of the root LP.
type Overrides = Vec<(usize, f64, f64)>;

/// Solve a MILP by branch & bound.
pub fn solve_milp(
    problem: &MilpProblem,
    options: MilpOptions,
) -> Result<MilpSolution, SolverError> {
    solve_milp_carried(problem, options, None).map(|(solution, _)| solution)
}

/// [`solve_milp`] with a carried *root* tableau: chains of MILPs whose
/// LPs share constraint structure and differ only in the objective — the
/// AVG binary search solves one such MILP per probe — hand each solve's
/// root [`CanonicalTableau`] to the next, which re-prices it instead of
/// rebuilding (a structural mismatch demotes to the basis tier inside
/// [`solve_lp_tableau`], exactly like the LP chains). Returns the root
/// tableau for the next solve in the chain when [`MilpOptions::warmth`]
/// is [`Warmth::Carry`] and the search reached a root solve (`None`
/// otherwise — e.g. `prior` arrived poisoned or the tier is lower);
/// `prior` is ignored below the carry tier.
pub fn solve_milp_carried(
    problem: &MilpProblem,
    options: MilpOptions,
    prior: Option<CanonicalTableau>,
) -> Result<(MilpSolution, Option<CanonicalTableau>), SolverError> {
    solve_milp_budgeted(problem, options, prior, &QueryBudget::unlimited())
}

/// [`solve_milp_carried`] under a [`QueryBudget`]: every claimed node
/// charges the budget, and a trip (deadline, node cap, explicit cancel)
/// drains the search within one node granule — in-flight node tasks
/// finish their single LP solve, no new nodes start. A tripped search
/// reports [`SolverError::BudgetExhausted`]; callers that can degrade
/// (the PC bounding engine) fall back to the root LP relaxation, an
/// outer bound of the MILP optimum.
pub fn solve_milp_budgeted(
    problem: &MilpProblem,
    options: MilpOptions,
    prior: Option<CanonicalTableau>,
    budget: &QueryBudget,
) -> Result<(MilpSolution, Option<CanonicalTableau>), SolverError> {
    if problem.integer.len() != problem.lp.num_vars() {
        return Err(SolverError::BadModel(
            "integrality flags length must equal variable count".into(),
        ));
    }
    if let Some(scores) = &problem.branch_scores {
        if scores.len() != problem.lp.num_vars() {
            return Err(SolverError::BadModel(
                "branch_scores length must equal variable count".into(),
            ));
        }
        if scores.iter().any(|w| !w.is_finite() || *w <= 0.0) {
            return Err(SolverError::BadModel(
                "branch_scores must be finite and positive".into(),
            ));
        }
    }
    // Node *basis* warm starts pay when a cold node solve has a real
    // phase 1 — i.e. some row standardizes with an artificial (Ge/Eq, or
    // a Le whose negative rhs flips). An all-Le program starts feasible
    // on its slack basis for free, so there the crash-and-restore
    // machinery is pure per-node overhead; skip it. (Branching only
    // tightens variable bounds, so the verdict holds for every node of
    // the tree.) The tableau carry is *not* auto-disabled: the rebuild it
    // eliminates exists regardless of phase-1 cost.
    let phase1_is_real = problem.lp.constraints.iter().any(|c| match c.op {
        crate::ConstraintOp::Ge | crate::ConstraintOp::Eq => true,
        crate::ConstraintOp::Le => c.rhs < 0.0,
    });
    let basis_restore = options.warmth != Warmth::Cold && phase1_is_real;
    let search = Search::new(problem, options, basis_restore, budget);
    if options.warmth == Warmth::Carry {
        *search.root_prior.lock().unwrap() = prior;
    }
    if options.threads == 1 {
        search.run_stack(Vec::new(), Inherited::Cold);
    } else {
        search.run_parallel(Vec::new(), Inherited::Cold, 0, false);
    }
    search.finish()
}

/// What a node inherits from its parent to warm its relaxation solve.
#[derive(Clone)]
enum Inherited {
    /// Nothing (the root, or the cold tier).
    Cold,
    /// The parent's optimal basis (tier 2).
    Basis(Arc<WarmStart>),
    /// The parent's canonical tableau plus the number of consecutive
    /// carries since the last rebuild (tier 3).
    Carried(Arc<CanonicalTableau>, u32),
}

/// Shared state of one branch & bound search, readable from every worker.
struct Search<'a> {
    problem: &'a MilpProblem,
    options: MilpOptions,
    /// Whether rebuilt nodes crash their parent's basis in: the tier asks
    /// for it and a cold phase 1 is not free (see `solve_milp_budgeted`).
    basis_restore: bool,
    /// The caller's cooperative budget, charged once per claimed node.
    budget: &'a QueryBudget,
    /// When [`Search::run_parallel`] may start forking children.
    gate: WorkGate,
    maximizing: bool,
    /// Best incumbent objective, bit-cast, for lock-free prune tests.
    /// Initialized to the sense's identity (−∞ / +∞) so "no incumbent"
    /// never prunes.
    best_bits: AtomicU64,
    /// The full incumbent `(objective, x)`; tie-broken deterministically.
    incumbent: Mutex<Option<(f64, Vec<f64>)>>,
    nodes: AtomicUsize,
    carried_nodes: AtomicU64,
    rebuilt_nodes: AtomicU64,
    carried_pivots: AtomicU64,
    rebuilt_pivots: AtomicU64,
    incumbent_first: AtomicU64,
    limit_hit: AtomicBool,
    /// Set when the budget tripped *during this search* (distinct from
    /// [`Search::limit_hit`], which is the solver's own node cap).
    budget_hit: AtomicBool,
    failed: AtomicBool,
    error: Mutex<Option<SolverError>>,
    /// A carried tableau for the *root* relaxation (chained in by
    /// [`solve_milp_carried`]; taken exactly once).
    root_prior: Mutex<Option<CanonicalTableau>>,
    /// The root's own canonical tableau, handed back to the chain.
    root_out: Mutex<Option<Arc<CanonicalTableau>>>,
}

impl<'a> Search<'a> {
    fn new(
        problem: &'a MilpProblem,
        options: MilpOptions,
        basis_restore: bool,
        budget: &'a QueryBudget,
    ) -> Self {
        let maximizing = problem.lp.sense == Sense::Maximize;
        let identity = if maximizing {
            f64::NEG_INFINITY
        } else {
            f64::INFINITY
        };
        Search {
            problem,
            options,
            basis_restore,
            budget,
            gate: if options.threads == 1 {
                WorkGate::INLINE
            } else {
                WorkGate::start(false)
            },
            maximizing,
            best_bits: AtomicU64::new(identity.to_bits()),
            incumbent: Mutex::new(None),
            nodes: AtomicUsize::new(0),
            carried_nodes: AtomicU64::new(0),
            rebuilt_nodes: AtomicU64::new(0),
            carried_pivots: AtomicU64::new(0),
            rebuilt_pivots: AtomicU64::new(0),
            incumbent_first: AtomicU64::new(0),
            limit_hit: AtomicBool::new(false),
            budget_hit: AtomicBool::new(false),
            failed: AtomicBool::new(false),
            error: Mutex::new(None),
            root_prior: Mutex::new(None),
            root_out: Mutex::new(None),
        }
    }

    /// Claim the right to process one node, or flag the limit. Charges
    /// the query budget first: a tripped budget refuses the claim — the
    /// per-node granule at which a deadline/cancel drains the whole
    /// search (all workers' claims fail from here on).
    fn try_claim_node(&self) -> bool {
        if !self.budget.charge_node() {
            self.budget_hit.store(true, Ordering::SeqCst);
            return false;
        }
        loop {
            let n = self.nodes.load(Ordering::SeqCst);
            if n >= self.options.node_limit {
                self.limit_hit.store(true, Ordering::SeqCst);
                return false;
            }
            if self
                .nodes
                .compare_exchange(n, n + 1, Ordering::SeqCst, Ordering::SeqCst)
                .is_ok()
            {
                return true;
            }
        }
    }

    fn record_error(&self, e: SolverError) {
        let mut slot = self.error.lock().unwrap();
        if slot.is_none() {
            *slot = Some(e);
        }
        self.failed.store(true, Ordering::SeqCst);
    }

    fn record_carried(&self, pivots: u64) {
        self.carried_nodes.fetch_add(1, Ordering::Relaxed);
        self.carried_pivots.fetch_add(pivots, Ordering::Relaxed);
    }

    fn record_rebuilt(&self, stats: SolveStats) {
        self.rebuilt_nodes.fetch_add(1, Ordering::Relaxed);
        self.rebuilt_pivots
            .fetch_add(stats.pivots, Ordering::Relaxed);
    }

    fn aborted(&self) -> bool {
        self.failed.load(Ordering::SeqCst)
    }

    fn best(&self) -> f64 {
        f64::from_bits(self.best_bits.load(Ordering::Acquire))
    }

    /// `a` strictly better than `b` in the optimization direction.
    fn better(&self, a: f64, b: f64) -> bool {
        if self.maximizing {
            a > b
        } else {
            a < b
        }
    }

    /// Install `(obj, x)` as the incumbent if it beats the current one —
    /// or ties it with a lexicographically smaller `x` (the deterministic
    /// tie-break that makes the reported solution independent of worker
    /// scheduling).
    fn offer_incumbent(&self, obj: f64, x: Vec<f64>, is_near: bool) {
        let mut slot = self.incumbent.lock().unwrap();
        let replace = match &*slot {
            None => true,
            Some((best, best_x)) => {
                if self.better(obj, *best) {
                    true
                } else {
                    (obj - best).abs() <= TIE_TOL && lex_less(&x, best_x)
                }
            }
        };
        if replace {
            self.best_bits.store(obj.to_bits(), Ordering::Release);
            *slot = Some((obj, x));
            if is_near {
                self.incumbent_first.fetch_add(1, Ordering::Relaxed);
            }
        }
    }

    /// Fold the node's bound overrides over the root bounds; `false`
    /// means some variable's interval emptied (the node is trivially
    /// infeasible, no LP needed).
    fn consistent_bounds(&self, overrides: &Overrides) -> bool {
        if overrides.is_empty() {
            return true;
        }
        let mut acc: HashMap<usize, (f64, f64)> = HashMap::with_capacity(overrides.len());
        for &(var, lo, hi) in overrides {
            let e = acc
                .entry(var)
                .or_insert_with(|| self.problem.lp.bounds[var]);
            e.0 = e.0.max(lo);
            e.1 = e.1.min(hi);
            if e.0 > e.1 {
                return false;
            }
        }
        true
    }

    /// The node's LP: the root relaxation with the accumulated bound
    /// overrides applied. Only built when a node actually rebuilds (the
    /// carried path never needs it).
    fn node_lp(&self, overrides: &Overrides) -> crate::LinearProgram {
        let mut lp = self.problem.lp.clone();
        for &(var, lo, hi) in overrides {
            let (cur_lo, cur_hi) = lp.bounds[var];
            lp.set_bounds(var, cur_lo.max(lo), cur_hi.min(hi));
        }
        lp
    }

    /// Solve one (already claimed) node. `is_near` says whether this node
    /// is the first-explored ("near") child of its parent's branch — it
    /// only feeds the [`SearchStats::incumbent_first_hits`] counter.
    /// Returns branch instructions — `(variable, fractional value, what the
    /// children inherit)` — or `None` when the node was pruned,
    /// infeasible, integral, or errored.
    fn process_node(
        &self,
        overrides: &Overrides,
        inherited: Inherited,
        is_near: bool,
    ) -> Option<(usize, f64, Inherited)> {
        if !self.consistent_bounds(overrides) {
            return None;
        }

        // Tier 3: answer the node from the carried parent tableau. The
        // node's *last* override is its own branch bound; everything
        // before it is already baked into the parent's tableau.
        let mut solved: Option<(crate::LpSolution, Inherited)> = None;
        if let Inherited::Carried(parent, carries) = &inherited {
            if *carries < TABLEAU_REFRESH_DEPTH {
                let &(var, lo, hi) = overrides.last().expect("carried node has a branch");
                let bound = if lo.is_finite() {
                    BranchBound::Lower(lo)
                } else {
                    BranchBound::Upper(hi)
                };
                match CanonicalTableau::solve_child(Arc::clone(parent), var, bound) {
                    ChildSolve::Solved { solution, tableau } => {
                        self.record_carried(tableau.stats().pivots);
                        solved =
                            Some((solution, Inherited::Carried(Arc::new(tableau), carries + 1)));
                    }
                    ChildSolve::Infeasible { pivots } => {
                        self.record_carried(pivots);
                        return None;
                    }
                    // Stall: fall through to a fresh rebuild below.
                    ChildSolve::Stalled => {}
                }
            }
        }

        // Tiers 2/1 (and the root, carry stalls, periodic refreshes):
        // rebuild the node LP from scratch, crashing the parent basis in
        // when tier 2 is on.
        let (relax, child_inherited) = match solved {
            Some(pair) => pair,
            None => {
                let lp = self.node_lp(overrides);
                // A carried parent still donates its *basis* when the
                // carry itself didn't run (stall, periodic refresh): the
                // rebuild then costs the basis-crash tier, not a full
                // cold phase 1. A branched parent's shape may no longer
                // match the fresh standardization — crash_basis detects
                // that and degrades cold, so offering it is free.
                let basis = match (&inherited, self.basis_restore) {
                    (Inherited::Basis(b), true) => Some((**b).clone()),
                    (Inherited::Carried(p, _), true) => Some(p.warm_start()),
                    _ => None,
                };
                // The root consults the *chain* prior (solve_milp_carried):
                // an AVG probe's root differs from the previous probe's
                // only in the objective, so the carried tableau re-prices
                // with zero rebuild — counted as a carried solve below.
                let is_root = overrides.is_empty();
                let prior = if is_root {
                    self.root_prior.lock().unwrap().take()
                } else {
                    None
                };
                match solve_lp_tableau(&lp, prior, basis.as_ref()) {
                    Ok((solution, tableau)) => {
                        if tableau.stats().rebuilt {
                            self.record_rebuilt(tableau.stats());
                        } else {
                            self.record_carried(tableau.stats().pivots);
                        }
                        let next = if self.options.warmth == Warmth::Carry {
                            let tableau = Arc::new(tableau);
                            if is_root {
                                *self.root_out.lock().unwrap() = Some(Arc::clone(&tableau));
                            }
                            Inherited::Carried(tableau, 0)
                        } else if self.basis_restore {
                            Inherited::Basis(Arc::new(tableau.warm_start()))
                        } else {
                            Inherited::Cold
                        };
                        (solution, next)
                    }
                    Err(SolverError::Infeasible) => return None,
                    Err(e) => {
                        self.record_error(e);
                        return None;
                    }
                }
            }
        };

        // Prune by bound against the (possibly slightly stale) shared
        // incumbent: staleness can only delay a prune, never cause one.
        let best = self.best();
        let bound = relax.objective;
        let no_better = if self.maximizing {
            bound <= best + INT_TOL
        } else {
            bound >= best - INT_TOL
        };
        if no_better {
            return None;
        }

        // Find the branch variable: among the fractional integral
        // variables, maximize fractionality × branch weight (estimate
        // score). Without scores every weight is 1.0 and this is exactly
        // the classic most-fractional rule; ties keep the lowest index
        // either way.
        let mut branch_var = None;
        let mut best_score = 0.0;
        for (i, (&is_int, &v)) in self.problem.integer.iter().zip(&relax.x).enumerate() {
            if !is_int {
                continue;
            }
            let frac = (v - v.round()).abs();
            if frac <= INT_TOL {
                continue;
            }
            let weight = self.problem.branch_scores.as_ref().map_or(1.0, |s| s[i]);
            let score = frac * weight;
            if score > best_score {
                best_score = score;
                branch_var = Some((i, v));
            }
        }

        match branch_var {
            None => {
                // Integral (within tolerance): round and offer as incumbent.
                let mut x = relax.x;
                for (i, &is_int) in self.problem.integer.iter().enumerate() {
                    if is_int {
                        x[i] = x[i].round();
                    }
                }
                let obj = self.problem.lp.objective_at(&x);
                if self.problem.lp.is_feasible(&x, 1e-5) {
                    self.offer_incumbent(obj, x, is_near);
                }
                None
            }
            Some((var, v)) => Some((var, v, child_inherited)),
        }
    }

    /// The two children of a branch, `(near, far)`: the rounding direction
    /// closer to the relaxation first — better incumbents earlier, more
    /// pruning.
    fn children(overrides: Overrides, var: usize, v: f64) -> (Overrides, Overrides) {
        let mut down = overrides.clone();
        down.push((var, f64::NEG_INFINITY, v.floor()));
        let mut up = overrides;
        up.push((var, v.ceil(), f64::INFINITY));
        if v - v.floor() > 0.5 {
            (up, down)
        } else {
            (down, up)
        }
    }

    /// Deterministic sequential DFS with an explicit stack (the near child
    /// is pushed last, so it pops first — the pre-parallel visit order).
    fn run_stack(&self, overrides: Overrides, inherited: Inherited) {
        let mut stack: Vec<(Overrides, Inherited, bool)> = vec![(overrides, inherited, false)];
        while let Some((overrides, inherited, is_near)) = stack.pop() {
            if self.aborted() || !self.try_claim_node() {
                return;
            }
            if let Some((var, v, child_inherited)) =
                self.process_node(&overrides, inherited, is_near)
            {
                let (near, far) = Self::children(overrides, var, v);
                stack.push((far, child_inherited.clone(), false));
                stack.push((near, child_inherited, true));
            }
        }
    }

    /// Parallel exploration: once the gate is open, the near child runs
    /// hot on this worker and the far child becomes a stealable task;
    /// before that both run inline, near first. Deep chains fall back to
    /// the stack search to bound recursion.
    fn run_parallel(
        &self,
        overrides: Overrides,
        inherited: Inherited,
        depth: usize,
        is_near: bool,
    ) {
        if depth >= PAR_DEPTH_LIMIT {
            return self.run_stack(overrides, inherited);
        }
        if self.aborted() || !self.try_claim_node() {
            return;
        }
        let Some((var, v, child_inherited)) = self.process_node(&overrides, inherited, is_near)
        else {
            return;
        };
        let (near, far) = Self::children(overrides, var, v);
        let far_inherited = child_inherited.clone();
        if self.gate.is_open() {
            rayon::join(
                || self.run_parallel(near, child_inherited, depth + 1, true),
                || self.run_parallel(far, far_inherited, depth + 1, false),
            );
        } else {
            self.run_parallel(near, child_inherited, depth + 1, true);
            self.run_parallel(far, far_inherited, depth + 1, false);
        }
    }

    fn finish(self) -> Result<(MilpSolution, Option<CanonicalTableau>), SolverError> {
        // The root tableau for the caller's chain: by now every node task
        // has finished, so the Arc is usually unique and the unwrap is a
        // move, not a copy.
        let root = self
            .root_out
            .into_inner()
            .unwrap()
            .map(|arc| Arc::try_unwrap(arc).unwrap_or_else(|arc| (*arc).clone()));
        if let Some(e) = self.error.into_inner().unwrap() {
            return Err(e);
        }
        let nodes = self.nodes.into_inner();
        let search = SearchStats {
            carried_nodes: self.carried_nodes.into_inner(),
            rebuilt_nodes: self.rebuilt_nodes.into_inner(),
            carried_pivots: self.carried_pivots.into_inner(),
            rebuilt_pivots: self.rebuilt_pivots.into_inner(),
            incumbent_first_hits: self.incumbent_first.into_inner(),
        };
        let incumbent = self.incumbent.into_inner().unwrap();
        if self.budget_hit.into_inner() {
            // A cooperative abort, surfaced explicitly so the caller can
            // degrade (the engine falls back to the LP relaxation — a
            // sound outer bound — and marks the report degraded). The
            // incumbent, if any, is an *inner* bound and deliberately not
            // returned as if it were the answer.
            let reason = self.budget.trip_reason().unwrap_or(TripReason::NodeCap);
            return Err(SolverError::BudgetExhausted(reason));
        }
        if self.limit_hit.into_inner() {
            // The incumbent is an inner bound here, not the optimum.
            return Err(SolverError::LimitExceeded(self.options.node_limit));
        }
        match incumbent {
            Some((objective, x)) => Ok((
                MilpSolution {
                    objective,
                    x,
                    nodes,
                    search,
                },
                root,
            )),
            None => Err(SolverError::Infeasible),
        }
    }
}

/// Strict lexicographic order on solution vectors (`total_cmp`, so ties
/// resolve identically on every platform and schedule).
fn lex_less(a: &[f64], b: &[f64]) -> bool {
    for (x, y) in a.iter().zip(b) {
        match x.total_cmp(y) {
            std::cmp::Ordering::Less => return true,
            std::cmp::Ordering::Greater => return false,
            std::cmp::Ordering::Equal => {}
        }
    }
    false
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::ConstraintOp::*;
    use crate::LinearProgram;

    fn assert_close(a: f64, b: f64) {
        assert!((a - b).abs() < 1e-6, "{a} != {b}");
    }

    /// Every (threads, warmth) combination the engine supports.
    fn all_modes() -> [MilpOptions; 6] {
        let base = MilpOptions::default();
        let tiers = [Warmth::Cold, Warmth::Basis, Warmth::Carry];
        let mut out = [base; 6];
        let mut i = 0;
        for threads in [1usize, 0] {
            for warmth in tiers {
                out[i] = MilpOptions {
                    threads,
                    warmth,
                    ..base
                };
                i += 1;
            }
        }
        out
    }

    #[test]
    fn knapsack() {
        // max 8a + 11b + 6c + 4d, 5a + 7b + 4c + 3d ≤ 14, binary → 21 (b,c,d)
        let mut lp = LinearProgram::maximize(vec![8.0, 11.0, 6.0, 4.0]);
        lp.add_constraint(vec![(0, 5.0), (1, 7.0), (2, 4.0), (3, 3.0)], Le, 14.0);
        for i in 0..4 {
            lp.set_bounds(i, 0.0, 1.0);
        }
        for options in all_modes() {
            let sol = solve_milp(&MilpProblem::all_integer(lp.clone()), options).unwrap();
            assert_close(sol.objective, 21.0);
            assert_eq!(
                sol.x.iter().map(|v| v.round() as i64).collect::<Vec<_>>(),
                vec![0, 1, 1, 1],
                "{options:?}"
            );
        }
    }

    #[test]
    fn lp_relaxation_would_be_fractional() {
        // max x + y s.t. 2x + 2y ≤ 3, integers → 1 (relaxation gives 1.5)
        let mut lp = LinearProgram::maximize(vec![1.0, 1.0]);
        lp.add_constraint(vec![(0, 2.0), (1, 2.0)], Le, 3.0);
        let sol = solve_milp(&MilpProblem::all_integer(lp), MilpOptions::default()).unwrap();
        assert_close(sol.objective, 1.0);
    }

    #[test]
    fn maximal_independent_set_reduction() {
        // §4.3 of the paper: a path graph v1 - v2 - v3.
        // Vertex vars x1,x2,x3 ∈ {0,1}; edge constraints x1+x2 ≤ 1,
        // x2+x3 ≤ 1. Max independent set = {v1, v3} → 2.
        let mut lp = LinearProgram::maximize(vec![1.0, 1.0, 1.0]);
        lp.add_constraint(vec![(0, 1.0), (1, 1.0)], Le, 1.0);
        lp.add_constraint(vec![(1, 1.0), (2, 1.0)], Le, 1.0);
        for i in 0..3 {
            lp.set_bounds(i, 0.0, 1.0);
        }
        let sol = solve_milp(&MilpProblem::all_integer(lp), MilpOptions::default()).unwrap();
        assert_close(sol.objective, 2.0);
    }

    #[test]
    fn paper_overlapping_example() {
        // §4.4: cells c1 (t1∧t2) and c2 (¬t1∧t2);
        // t1: 50 ≤ x1 ≤ 100, t2: 75 ≤ x1 + x2 ≤ 125,
        // max 129.99·x1 + 149.99·x2 = 50·129.99 + 75·149.99 = 17748.75
        let mut lp = LinearProgram::maximize(vec![129.99, 149.99]);
        lp.add_constraint(vec![(0, 1.0)], Ge, 50.0);
        lp.add_constraint(vec![(0, 1.0)], Le, 100.0);
        lp.add_constraint(vec![(0, 1.0), (1, 1.0)], Ge, 75.0);
        lp.add_constraint(vec![(0, 1.0), (1, 1.0)], Le, 125.0);
        for options in all_modes() {
            let sol = solve_milp(&MilpProblem::all_integer(lp.clone()), options).unwrap();
            assert_close(sol.objective, 50.0 * 129.99 + 75.0 * 149.99);
            assert_close(sol.x[0], 50.0);
            assert_close(sol.x[1], 75.0);
        }
    }

    #[test]
    fn minimization() {
        // min x + y s.t. x + y ≥ 3.5, integers → 4
        let mut lp = LinearProgram::minimize(vec![1.0, 1.0]);
        lp.add_constraint(vec![(0, 1.0), (1, 1.0)], Ge, 3.5);
        for options in all_modes() {
            let sol = solve_milp(&MilpProblem::all_integer(lp.clone()), options).unwrap();
            assert_close(sol.objective, 4.0);
        }
    }

    #[test]
    fn mixed_integrality() {
        // max 2x + y, x ≤ 1.5, x + y ≤ 2.5, only x integral
        // → x = 1, y = 1.5 → 3.5
        let mut lp = LinearProgram::maximize(vec![2.0, 1.0]);
        lp.add_constraint(vec![(0, 1.0)], Le, 1.5);
        lp.add_constraint(vec![(0, 1.0), (1, 1.0)], Le, 2.5);
        let problem = MilpProblem {
            lp,
            integer: vec![true, false],
            branch_scores: None,
        };
        let sol = solve_milp(&problem, MilpOptions::default()).unwrap();
        assert_close(sol.objective, 3.5);
        assert_close(sol.x[0], 1.0);
        assert_close(sol.x[1], 1.5);
    }

    #[test]
    fn infeasible_integer_hole() {
        // 0.4 ≤ x ≤ 0.6 has no integer point
        let mut lp = LinearProgram::maximize(vec![1.0]);
        lp.set_bounds(0, 0.4, 0.6);
        for options in all_modes() {
            let r = solve_milp(&MilpProblem::all_integer(lp.clone()), options);
            assert_eq!(r, Err(SolverError::Infeasible));
        }
    }

    #[test]
    fn all_le_program_still_carries_tableaux() {
        // The all-Le auto-disable turns off the *basis* tier (phase 1 is
        // free), not the carry tier: children must still be answered from
        // carried tableaux, and the objective must match the cold oracle.
        let mut lp = LinearProgram::maximize(vec![1.0, 1.0]);
        lp.add_constraint(vec![(0, 2.0), (1, 2.0)], Le, 3.0);
        let problem = MilpProblem::all_integer(lp);
        let cold = solve_milp(
            &problem,
            MilpOptions {
                warmth: Warmth::Cold,
                ..MilpOptions::default()
            },
        )
        .unwrap();
        let carry = solve_milp(&problem, MilpOptions::default()).unwrap();
        assert_close(cold.objective, carry.objective);
        assert_eq!(cold.search.carried_nodes, 0);
        assert!(
            carry.search.carried_nodes > 0,
            "all-Le trees must still carry: {:?}",
            carry.search
        );
    }

    #[test]
    fn budget_node_cap_trips_with_explicit_error() {
        let mut lp = LinearProgram::maximize(vec![1.0, 1.0]);
        lp.add_constraint(vec![(0, 2.0), (1, 2.0)], Le, 3.0);
        let problem = MilpProblem::all_integer(lp);
        let budget = QueryBudget::unlimited().with_node_cap(1);
        let r = solve_milp_budgeted(&problem, MilpOptions::default(), None, &budget);
        assert!(
            matches!(r, Err(SolverError::BudgetExhausted(TripReason::NodeCap))),
            "expected BudgetExhausted, got {r:?}"
        );
        assert!(budget.is_tripped());
    }

    #[test]
    fn cancelled_budget_aborts_search() {
        let mut lp = LinearProgram::maximize(vec![1.0, 1.0]);
        lp.add_constraint(vec![(0, 2.0), (1, 2.0)], Le, 3.0);
        let problem = MilpProblem::all_integer(lp);
        let budget = QueryBudget::armed();
        budget.cancel_token().expect("armed").cancel();
        let r = solve_milp_budgeted(&problem, MilpOptions::default(), None, &budget);
        assert!(
            matches!(r, Err(SolverError::BudgetExhausted(TripReason::Cancelled))),
            "expected cancelled abort, got {r:?}"
        );
    }

    #[test]
    fn unlimited_budget_changes_nothing() {
        let mut lp = LinearProgram::maximize(vec![8.0, 11.0, 6.0, 4.0]);
        lp.add_constraint(vec![(0, 5.0), (1, 7.0), (2, 4.0), (3, 3.0)], Le, 14.0);
        for i in 0..4 {
            lp.set_bounds(i, 0.0, 1.0);
        }
        let problem = MilpProblem::all_integer(lp);
        let plain = solve_milp(&problem, MilpOptions::default()).unwrap();
        let (budgeted, _) = solve_milp_budgeted(
            &problem,
            MilpOptions::default(),
            None,
            &QueryBudget::unlimited(),
        )
        .unwrap();
        assert_close(plain.objective, budgeted.objective);
    }

    #[test]
    fn node_limit_errors() {
        let mut lp = LinearProgram::maximize(vec![1.0, 1.0]);
        lp.add_constraint(vec![(0, 2.0), (1, 2.0)], Le, 3.0);
        let r = solve_milp(
            &MilpProblem::all_integer(lp),
            MilpOptions {
                node_limit: 1,
                ..MilpOptions::default()
            },
        );
        assert_eq!(r, Err(SolverError::LimitExceeded(1)));
    }

    #[test]
    fn warm_start_does_not_change_the_optimum() {
        // a denser problem where warm starts genuinely engage
        let mut lp = LinearProgram::maximize(vec![5.0, 4.0, 3.0, 6.0]);
        lp.add_constraint(vec![(0, 2.0), (1, 3.0), (2, 1.0), (3, 2.0)], Le, 9.5);
        lp.add_constraint(vec![(0, 4.0), (1, 1.0), (2, 2.0)], Le, 10.5);
        lp.add_constraint(vec![(1, 1.0), (2, 4.0), (3, 3.0)], Le, 8.5);
        for i in 0..4 {
            lp.set_bounds(i, 0.0, 4.0);
        }
        let problem = MilpProblem::all_integer(lp);
        let cold = solve_milp(
            &problem,
            MilpOptions {
                warmth: Warmth::Cold,
                ..MilpOptions::default()
            },
        )
        .unwrap();
        let warm = solve_milp(
            &problem,
            MilpOptions {
                warmth: Warmth::Basis,
                ..MilpOptions::default()
            },
        )
        .unwrap();
        assert_close(cold.objective, warm.objective);
        assert!(problem.lp.is_feasible(&warm.x, 1e-5));
    }

    #[test]
    fn branch_scores_never_change_the_optimum() {
        // Weighted branching reorders the tree, not the answer: every
        // mode, with deliberately skewed weights, must match the unscored
        // solve exactly (same proven optimum; x may legitimately differ
        // between distinct optima, so only the objective is pinned).
        let mut lp = LinearProgram::maximize(vec![5.0, 4.0, 3.0, 6.0]);
        lp.add_constraint(vec![(0, 2.0), (1, 3.0), (2, 1.0), (3, 2.0)], Le, 9.5);
        lp.add_constraint(vec![(0, 4.0), (1, 1.0), (2, 2.0)], Le, 10.5);
        lp.add_constraint(vec![(1, 1.0), (2, 4.0), (3, 3.0)], Le, 8.5);
        for i in 0..4 {
            lp.set_bounds(i, 0.0, 4.0);
        }
        let plain = MilpProblem::all_integer(lp);
        let scored = plain.clone().with_branch_scores(vec![16.0, 0.25, 4.0, 1.0]);
        let reference = solve_milp(&plain, MilpOptions::default()).unwrap();
        for options in all_modes() {
            let sol = solve_milp(&scored, options).unwrap();
            assert_close(sol.objective, reference.objective);
        }
    }

    #[test]
    fn malformed_branch_scores_are_rejected() {
        let lp = LinearProgram::maximize(vec![1.0, 1.0]);
        for bad in [
            vec![1.0],
            vec![1.0, f64::NAN],
            vec![1.0, 0.0],
            vec![1.0, -2.0],
        ] {
            let p = MilpProblem::all_integer(lp.clone()).with_branch_scores(bad.clone());
            let r = solve_milp(&p, MilpOptions::default());
            assert!(
                matches!(r, Err(SolverError::BadModel(_))),
                "scores {bad:?} must be rejected, got {r:?}"
            );
        }
    }

    #[test]
    fn carried_nodes_pivot_less_than_rebuilt_on_ge_programs() {
        // The measured O(m) → O(1): on a Ge-bearing allocation shape the
        // average pivots per carried node must be strictly below the
        // average per rebuilt node of the basis-only run.
        let mut lp = LinearProgram::maximize(vec![5.9, 4.9, 3.9, 6.9, 2.9]);
        lp.add_constraint(vec![(0, 1.0), (1, 1.0), (2, 1.0)], Ge, 2.0);
        lp.add_constraint(vec![(2, 1.0), (3, 1.0), (4, 1.0)], Ge, 3.0);
        lp.add_constraint(vec![(0, 2.0), (1, 3.0), (2, 1.0), (3, 2.0)], Le, 9.5);
        lp.add_constraint(vec![(0, 4.0), (1, 1.0), (2, 2.0), (4, 1.0)], Le, 10.5);
        lp.add_constraint(vec![(1, 1.0), (2, 4.0), (3, 3.0)], Le, 8.5);
        for i in 0..5 {
            lp.set_bounds(i, 0.0, 4.0);
        }
        let problem = MilpProblem::all_integer(lp);
        let carry = solve_milp(&problem, MilpOptions::default()).unwrap();
        let basis = solve_milp(
            &problem,
            MilpOptions {
                warmth: Warmth::Basis,
                ..MilpOptions::default()
            },
        )
        .unwrap();
        assert_close(carry.objective, basis.objective);
        assert!(carry.search.carried_nodes > 0, "{:?}", carry.search);
        let carried_avg = carry.search.carried_pivots as f64 / carry.search.carried_nodes as f64;
        let rebuilt_avg = basis.search.rebuilt_pivots as f64 / basis.search.rebuilt_nodes as f64;
        assert!(
            carried_avg < rebuilt_avg,
            "carried {carried_avg:.2} pivots/node vs rebuilt {rebuilt_avg:.2}"
        );
    }
}
