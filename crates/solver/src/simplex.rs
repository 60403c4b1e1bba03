//! Dense two-phase primal simplex with a tableau-carrying warm start.
//!
//! The solver accepts the general [`LinearProgram`] model (arbitrary
//! variable bounds, ≤ / ≥ / = rows, maximize or minimize) and reduces it to
//! standard form `max cᵀy, Ay = b, y ≥ 0, b ≥ 0` by shifting, mirroring, or
//! splitting variables and adding slack/surplus/artificial columns. Phase 1
//! drives artificial variables to zero (or proves infeasibility); phase 2
//! optimizes the real objective. Bland's rule is used throughout, which
//! guarantees termination at the cost of some speed — the right trade-off
//! for a bounding engine where correctness is the product.
//!
//! # The two warm-start tiers
//!
//! * **Cold** — [`solve_lp`]: standardize, build the tableau, run phase 1
//!   from the slack/artificial basis, then phase 2. This path is the
//!   property-tested oracle the carry must agree with.
//! * **Tableau carry** — [`solve_lp_tableau`] / [`CanonicalTableau`]: keep
//!   the whole *canonical tableau* of a solve. The tableau is split into
//!   an owned canonical core (the dense matrix in canonical form with
//!   respect to the optimal basis, plus the standardization metadata:
//!   variable maps, cost vector, a structural snapshot of the constraints
//!   and bounds) and cheap child views built from it:
//!
//!   * [`CanonicalTableau::solve_child`] answers a branch & bound child —
//!     the parent LP with one variable bound tightened — by appending the
//!     branch bound as a single ≤-row whose slack enters the basis,
//!     running **one elimination pass** against the parent-optimal basis
//!     (a row operation, not a pivot), and dual-restoring primal
//!     feasibility. Because the parent basis stays dual-feasible under a
//!     bound cut, this costs O(1) pivots per node where a cold rebuild
//!     pays O(m). Parents are shared with both children via `Arc`; the
//!     first child to run clones the core lazily, the second moves it.
//!   * [`solve_lp_tableau`] with a prior whose constraints and bounds
//!     match the new program exactly re-optimizes the carried tableau
//!     under the **new objective** with zero rebuild work — the shape of
//!     an AVG binary search, where ~80 probes differ only in objective
//!     coefficients. A prior whose rows differ by a *small delta* (up to
//!     [`ADAPT_MAX_DELTA`] inserted and/or deleted ≤/≥ rows at one
//!     position, bounds unchanged — the shape of a serving session's
//!     constraint churn, where an epoch adds or retires one constraint)
//!     is **adapted in place**: deleted rows leave through their slack
//!     columns (`delete_row_of_slack`), new rows append exactly like
//!     branch bounds, and one dual restore re-establishes feasibility. A
//!     prior whose structure cannot be reused is dropped, and the program
//!     rebuilds cold.
//!
//!   Branch-bound rows are garbage-collected as the descent deepens: a
//!   non-redundant cut on a (variable, direction) pair strictly dominates
//!   any earlier cut on the same pair (`x ≤ 2` after `x ≤ 3`), so
//!   [`CanonicalTableau::solve_child`] retires the superseded row before
//!   appending the new one — a deep chain branching the same variables
//!   holds O(root m + variables) rows, not one row per level.
//!
//!   Carried solves count their work in [`SolveStats`] (`pivots`,
//!   `rebuilt`), so the O(m) → O(1) claim is measured, not assumed.
//!
//! Correctness never depends on the carry succeeding: every carried path
//! either proves its exit condition (optimality via phase-2 pricing,
//! infeasibility via an all-nonnegative row with negative rhs) or reports
//! [`ChildSolve::Stalled`] / falls back so the caller can arbitrate with a
//! cold solve.

use crate::{Constraint, ConstraintOp, LinearProgram, Sense, SolverError};
use std::sync::Arc;

/// Numeric tolerance for pivoting and feasibility decisions.
const TOL: f64 = 1e-9;

/// Spare columns reserved at build time for the slack of branch-bound
/// rows appended by [`CanonicalTableau::solve_child`]; when a descent
/// exhausts them the core re-strides with [`COL_GROW`] more.
const COL_HEADROOM: usize = 8;

/// Column-capacity growth step once the headroom is exhausted.
const COL_GROW: usize = 16;

/// Ceiling on the number of inserted + deleted constraint rows a carried
/// tableau absorbs in one adaptation ([`solve_lp_tableau`] with a prior
/// whose rows differ); past it the program rebuilds cold. One
/// retired or added serving-session constraint is 1–2 rows (`≤ ku`, and
/// `≥ kl` when a floor survives pushdown), so 4 covers a replace.
pub const ADAPT_MAX_DELTA: usize = 4;

/// Consecutive delta adaptations after which a prior is dropped and the
/// program rebuilds cold even though the delta would fit: every adaptation
/// pivots a dead row out on an uncontrolled element and permanently
/// blocks its column, so an endless serving churn chain would accumulate
/// floating-point drift and dead tableau width without bound. The
/// rebuild resets both — the adapt-path mirror of the branch & bound
/// descent's `TABLEAU_REFRESH_DEPTH`.
const ADAPT_REFRESH_LIMIT: u32 = 16;

/// An optimal LP solution.
#[derive(Debug, Clone, PartialEq)]
pub struct LpSolution {
    /// Optimal objective value (in the original sense).
    pub objective: f64,
    /// Optimal assignment for the original variables.
    pub x: Vec<f64>,
}

/// How an original variable is represented in standard form.
#[derive(Debug, Clone, Copy)]
enum VarMap {
    /// `x = y_col + lo` with `y ≥ 0`.
    Shifted { col: usize, lo: f64 },
    /// `x = hi − y_col` with `y ≥ 0` (used when only an upper bound is
    /// finite).
    Mirrored { col: usize, hi: f64 },
    /// `x = y_pos − y_neg`, both `≥ 0` (free variable).
    Split { pos: usize, neg: usize },
}

/// Standard-form row: dense coefficients over structural columns.
struct StdRow {
    coefs: Vec<f64>,
    op: ConstraintOp,
    rhs: f64,
}

/// Work counters of one LP solve — the honest-measurement companion of
/// the warm-start tiers. Exposed through [`CanonicalTableau::stats`] and
/// aggregated into `MilpSolution::search` by branch & bound.
#[derive(Debug, Clone, Copy, Default, PartialEq, Eq)]
pub struct SolveStats {
    /// Simplex pivots performed by this solve (phase 1 + dual restore +
    /// phase 2 together).
    pub pivots: u64,
    /// `true` when the solve standardized the program and built a tableau
    /// from scratch (a cold solve); `false` when it reused a carried
    /// canonical tableau (the O(1)-pivot carry).
    pub rebuilt: bool,
}

/// Solve a linear program with the two-phase simplex method.
pub fn solve_lp(lp: &LinearProgram) -> Result<LpSolution, SolverError> {
    solve_core(lp, None, false).map(|(solution, _)| solution)
}

/// Solve and keep the whole canonical tableau for carrying.
///
/// `prior` is a tableau from a previous solve: when its constraint rows
/// and variable bounds match `lp` exactly, the tableau is **carried** —
/// only the objective is re-priced and phase 2 re-runs from the old
/// optimum (no standardization, no build; `stats().rebuilt` is
/// `false`); when its rows differ by a small delta it is adapted in
/// place (see the module docs). A prior that fits neither way is
/// dropped and `lp` is solved cold, exactly as [`solve_lp`] solves it.
///
/// Both tiers return the same `LpSolution` (up to simplex tolerance) —
/// a prior only ever changes the work, never the result.
pub fn solve_lp_tableau(
    lp: &LinearProgram,
    prior: Option<CanonicalTableau>,
) -> Result<(LpSolution, CanonicalTableau), SolverError> {
    solve_core(lp, prior, true)
}

/// One new bound a branch & bound child imposes on a single variable.
#[derive(Debug, Clone, Copy, PartialEq)]
pub enum BranchBound {
    /// `x_var ≤ value` (the down branch).
    Upper(f64),
    /// `x_var ≥ value` (the up branch).
    Lower(f64),
}

/// Outcome of a carried child solve ([`CanonicalTableau::solve_child`]).
#[allow(clippy::large_enum_variant)]
#[derive(Debug)]
pub enum ChildSolve {
    /// The child LP was solved to optimality on the carried tableau.
    Solved {
        /// The child's optimal relaxation.
        solution: LpSolution,
        /// The child's own canonical tableau, ready to carry further
        /// down the tree (its [`CanonicalTableau::stats`] cover this
        /// child solve only).
        tableau: CanonicalTableau,
    },
    /// The child LP is infeasible: the appended bound row reached a
    /// negative basic value with no negative entry to pivot on — a
    /// certificate that no nonnegative solution satisfies it. `pivots`
    /// records the dual pivots spent reaching the certificate.
    Infeasible {
        /// Dual-simplex pivots spent before the certificate.
        pivots: u64,
    },
    /// The carry could not decide the child (dual-restore iteration cap,
    /// or a numerically degenerate re-optimization). The caller must
    /// arbitrate with a rebuild; correctness never rests on this variant
    /// not occurring.
    Stalled,
}

/// The owned canonical core of a solved LP: the dense simplex tableau in
/// canonical form with respect to its optimal basis, together with the
/// standardization metadata (variable maps, phase-2 cost vector, and a
/// structural snapshot of the constraints and bounds) needed to answer
/// descendants incrementally. See the module docs for the carry tiers
/// built on top: [`CanonicalTableau::solve_child`] (branch & bound
/// children in O(1) pivots) and [`solve_lp_tableau`] (same constraints,
/// new objective — zero rebuild).
#[derive(Debug, Clone)]
pub struct CanonicalTableau {
    tab: Tableau,
    maps: Vec<VarMap>,
    /// Phase-2 cost over the live columns (`len == tab.total`).
    cost: Vec<f64>,
    obj_const: f64,
    sign: f64,
    /// Original variable count.
    n: usize,
    /// Structural column count of the standardization.
    ncols: usize,
    /// Whether the structural snapshot below was captured (only
    /// [`solve_lp_tableau`] keeps it — a one-shot [`solve_lp`] skips the
    /// clone, and a snapshot-less tableau never matches).
    has_snapshot: bool,
    /// Structural snapshot for [`solve_lp_tableau`] reuse: the carried
    /// tableau is valid for a new program exactly when these match
    /// (bounds are updated by [`CanonicalTableau::solve_child`], whose
    /// appended rows enforce the tightening), and adaptable when the rows
    /// differ by a small delta (see the module docs).
    constraints: Vec<Constraint>,
    bounds: Vec<(f64, f64)>,
    /// Per snapshot constraint: the tableau column of its slack/surplus
    /// (`usize::MAX` for Eq rows, which have none). A constraint's row is
    /// identified across pivots by its slack *column*, not a row index —
    /// row deletion (delta adaptation, branch-row GC) looks rows up by it.
    con_slack: Vec<usize>,
    /// Branch-bound rows appended by [`CanonicalTableau::solve_child`],
    /// tracked so a later dominating cut on the same (variable,
    /// direction) retires the row it supersedes.
    branch_rows: Vec<BranchRow>,
    /// Consecutive delta adaptations since the last rebuild; at
    /// [`ADAPT_REFRESH_LIMIT`] the next delta rebuilds cold, bounding
    /// drift and dead-column growth on endless churn.
    adapt_streak: u32,
    stats: SolveStats,
}

/// One appended branch-bound row of a carried descent: which original
/// variable and direction it cuts, and the slack column that owns its
/// tableau row (rows are found by slack column, never by position).
#[derive(Debug, Clone, Copy)]
struct BranchRow {
    var: usize,
    upper: bool,
    slack: usize,
}

impl CanonicalTableau {
    /// Work counters of the solve that produced this tableau.
    pub fn stats(&self) -> SolveStats {
        self.stats
    }

    /// Whether offering this tableau as a prior for `lp` can actually pay:
    /// an exact structural match (re-price) or an in-ceiling row delta
    /// with identical bounds (adapt, streak permitting). Chain caches use
    /// this to decide whether to *take* a neighboring slot's tableau —
    /// stealing an incompatible one would discard it, evicting another
    /// query shape's chain for nothing.
    pub fn can_reuse(&self, lp: &LinearProgram) -> bool {
        if !self.has_snapshot || self.bounds != lp.bounds {
            return false;
        }
        self.constraints == lp.constraints
            || (self.adapt_streak < ADAPT_REFRESH_LIMIT
                && delta_plan(&self.constraints, &lp.constraints).is_some())
    }

    /// Translate an original-variable row `Σ terms · x ≤ rhs` (or the
    /// negation of a ≥ row when `negate`) into standard-form columns
    /// under this tableau's variable maps.
    fn std_terms(
        &self,
        terms: &[(usize, f64)],
        rhs: f64,
        negate: bool,
    ) -> (Vec<(usize, f64)>, f64) {
        let sgn = if negate { -1.0 } else { 1.0 };
        let mut out = Vec::with_capacity(terms.len() + 1);
        let mut r = rhs * sgn;
        for &(var, coef) in terms {
            let coef = coef * sgn;
            match self.maps[var] {
                VarMap::Shifted { col, lo } => {
                    out.push((col, coef));
                    r -= coef * lo;
                }
                VarMap::Mirrored { col, hi } => {
                    out.push((col, -coef));
                    r -= coef * hi;
                }
                VarMap::Split { pos, neg } => {
                    out.push((pos, coef));
                    out.push((neg, -coef));
                }
            }
        }
        (out, r)
    }

    /// Mutate the carried tableau from its snapshot's rows to `lp`'s:
    /// delete the `deleted` snapshot rows at `prefix` through their slack
    /// columns, then append the `inserted` new rows (each entering on its
    /// own basic slack). Dual restore and re-optimization are the
    /// caller's job. `false` means a deletion hit a numerically unusable
    /// pivot — the tableau is then untrustworthy and must be discarded.
    fn apply_delta(
        &mut self,
        lp: &LinearProgram,
        prefix: usize,
        deleted: usize,
        inserted: usize,
    ) -> bool {
        for k in (prefix..prefix + deleted).rev() {
            let slack = self.con_slack[k];
            debug_assert_ne!(slack, usize::MAX, "delta_plan rejects Eq rows");
            if !self.tab.delete_row_of_slack(slack) {
                return false;
            }
            self.con_slack.remove(k);
        }
        for k in 0..inserted {
            let cons = &lp.constraints[prefix + k];
            let negate = match cons.op {
                ConstraintOp::Le => false,
                ConstraintOp::Ge => true,
                ConstraintOp::Eq => return false,
            };
            let (terms, rhs) = self.std_terms(&cons.terms, cons.rhs, negate);
            let slack = self.tab.append_le_row(&terms, rhs);
            self.con_slack.insert(prefix + k, slack);
        }
        true
    }

    /// Recover the original-variable solution from the tableau's basic
    /// values.
    fn recover(&self, value: f64) -> LpSolution {
        let mut y = vec![0.0; self.tab.total];
        for r in 0..self.tab.m {
            y[self.tab.basis[r]] = self.tab.rhs(r);
        }
        let mut x = vec![0.0; self.n];
        for (i, map) in self.maps.iter().enumerate() {
            x[i] = match *map {
                VarMap::Shifted { col, lo } => y[col] + lo,
                VarMap::Mirrored { col, hi } => hi - y[col],
                VarMap::Split { pos, neg } => y[pos] - y[neg],
            };
        }
        LpSolution {
            objective: (value + self.obj_const) * self.sign,
            x,
        }
    }

    /// Solve the child LP obtained by tightening one variable bound — the
    /// branch & bound hot path. The parent is shared via [`Arc`] so both
    /// children can descend from one snapshot: the first to run clones
    /// the core lazily, the last moves it (zero copies).
    ///
    /// The child appends its branch bound as one ≤-row (slack basic, rhs
    /// possibly negative — this is the point: dual simplex repairs it),
    /// eliminates the row against the parent-optimal basis in a single
    /// pass, dual-restores, and re-verifies phase-2 optimality. Because
    /// the parent basis stays dual-feasible under a bound cut, this is
    /// O(1) pivots per node where a cold rebuild pays O(m).
    ///
    /// Every exit is either proven ([`ChildSolve::Solved`] by phase-2
    /// pricing, [`ChildSolve::Infeasible`] by an all-nonnegative row with
    /// negative rhs — valid independent of the basis, since the row is a
    /// linear combination of the original equations) or an explicit
    /// [`ChildSolve::Stalled`] the caller must arbitrate cold.
    pub fn solve_child(parent: Arc<Self>, var: usize, bound: BranchBound) -> ChildSolve {
        if var >= parent.n || !parent.has_snapshot {
            // No snapshot means no bounds bookkeeping to branch against —
            // only solve_lp_tableau-produced parents can carry children.
            return ChildSolve::Stalled;
        }
        let mut ct = Arc::try_unwrap(parent).unwrap_or_else(|arc| (*arc).clone());
        let (cur_lo, cur_hi) = ct.bounds[var];
        let (new_lo, new_hi, redundant) = match bound {
            BranchBound::Upper(h) => (cur_lo, cur_hi.min(h), h >= cur_hi),
            BranchBound::Lower(l) => (cur_lo.max(l), cur_hi, l <= cur_lo),
        };
        if new_lo > new_hi {
            return ChildSolve::Infeasible { pivots: 0 };
        }
        let start = ct.tab.pivots;
        if !redundant {
            ct.bounds[var] = (new_lo, new_hi);
            let upper = matches!(bound, BranchBound::Upper(_));
            // Dominated-row GC: a non-redundant cut on the same (variable,
            // direction) strictly tightens the earlier one (`x ≤ 2` after
            // `x ≤ 3`), so the superseded row is implied by the new row —
            // retire it before appending. A deep descent branching the
            // same variables holds O(root m + variables) rows instead of
            // one per level; at the periodic refresh the survivors fold
            // into the node bounds for free (the rebuild standardizes from
            // the merged bounds, not from rows).
            if let Some(pos) = ct
                .branch_rows
                .iter()
                .position(|b| b.var == var && b.upper == upper)
            {
                let dead = ct.branch_rows[pos].slack;
                if !ct.tab.delete_row_of_slack(dead) {
                    return ChildSolve::Stalled;
                }
                ct.branch_rows.remove(pos);
            }
            // Translate the bound into standard-form coordinates. All
            // three shapes become a ≤-row with a fresh basic slack; the
            // rhs is *not* sign-normalized (a negative basic value is
            // exactly what the dual restore exists to repair).
            let (terms, rhs): ([(usize, f64); 2], f64) = match (ct.maps[var], bound) {
                (VarMap::Shifted { col, lo }, BranchBound::Upper(h)) => {
                    ([(col, 1.0), (col, 0.0)], h - lo)
                }
                (VarMap::Shifted { col, lo }, BranchBound::Lower(l)) => {
                    ([(col, -1.0), (col, 0.0)], lo - l)
                }
                (VarMap::Mirrored { col, hi }, BranchBound::Upper(h)) => {
                    ([(col, -1.0), (col, 0.0)], h - hi)
                }
                (VarMap::Mirrored { col, hi }, BranchBound::Lower(l)) => {
                    ([(col, 1.0), (col, 0.0)], hi - l)
                }
                (VarMap::Split { pos, neg }, BranchBound::Upper(h)) => {
                    ([(pos, 1.0), (neg, -1.0)], h)
                }
                (VarMap::Split { pos, neg }, BranchBound::Lower(l)) => {
                    ([(pos, -1.0), (neg, 1.0)], -l)
                }
            };
            let slack = ct.tab.append_le_row(&terms, rhs);
            ct.branch_rows.push(BranchRow { var, upper, slack });
            ct.cost.push(0.0);
            debug_assert_eq!(ct.cost.len(), ct.tab.total);
            match ct.tab.dual_restore(&ct.cost) {
                DualOutcome::Feasible => {}
                DualOutcome::Infeasible => {
                    return ChildSolve::Infeasible {
                        pivots: ct.tab.pivots - start,
                    }
                }
                DualOutcome::Stalled => return ChildSolve::Stalled,
            }
        }
        match ct.tab.optimize(&ct.cost) {
            Ok(value) => {
                ct.stats = SolveStats {
                    pivots: ct.tab.pivots - start,
                    rebuilt: false,
                };
                let solution = ct.recover(value);
                ChildSolve::Solved {
                    solution,
                    tableau: ct,
                }
            }
            // A child of a bounded parent cannot be genuinely unbounded
            // and a pivot-limit blowup means the carry went numerically
            // sideways either way: hand the node back for a cold rebuild.
            Err(_) => ChildSolve::Stalled,
        }
    }
}

/// Standard form of one [`LinearProgram`]: the variable mapping, the
/// translated objective, and the translated rows — everything needed to
/// build (or price) a tableau.
struct StdForm {
    maps: Vec<VarMap>,
    c: Vec<f64>,
    obj_const: f64,
    sign: f64,
    rows: Vec<StdRow>,
    ncols: usize,
    real_cols: usize,
}

/// Map `lp.objective` into structural costs under an existing variable
/// mapping. Returns `(c, obj_const, sign)`.
fn objective_under(maps: &[VarMap], ncols: usize, lp: &LinearProgram) -> (Vec<f64>, f64, f64) {
    let sign = match lp.sense {
        Sense::Maximize => 1.0,
        Sense::Minimize => -1.0,
    };
    let mut c = vec![0.0; ncols];
    let mut obj_const = 0.0;
    for (i, &ci) in lp.objective.iter().enumerate() {
        let ci = ci * sign;
        match maps[i] {
            VarMap::Shifted { col, lo } => {
                c[col] += ci;
                obj_const += ci * lo;
            }
            VarMap::Mirrored { col, hi } => {
                c[col] -= ci;
                obj_const += ci * hi;
            }
            VarMap::Split { pos, neg } => {
                c[pos] += ci;
                c[neg] -= ci;
            }
        }
    }
    (c, obj_const, sign)
}

impl StdForm {
    /// Standardize a validated program (steps 1–2 of the classic
    /// reduction: variable mapping, objective, constraint and bound rows).
    fn new(lp: &LinearProgram) -> StdForm {
        let n = lp.num_vars();

        // --- 1. Map variables into non-negative standard-form columns. ---
        let mut maps = Vec::with_capacity(n);
        let mut ncols = 0usize;
        for &(lo, hi) in &lp.bounds {
            let m = if lo.is_finite() {
                let col = ncols;
                ncols += 1;
                VarMap::Shifted { col, lo }
            } else if hi.is_finite() {
                let col = ncols;
                ncols += 1;
                VarMap::Mirrored { col, hi }
            } else {
                let pos = ncols;
                let neg = ncols + 1;
                ncols += 2;
                VarMap::Split { pos, neg }
            };
            maps.push(m);
        }

        let (c, obj_const, sign) = objective_under(&maps, ncols, lp);

        // --- 2. Translate constraints (and finite upper bounds) to rows. -
        let mut rows: Vec<StdRow> = Vec::with_capacity(lp.constraints.len() + n);
        for cons in &lp.constraints {
            let mut coefs = vec![0.0; ncols];
            let mut rhs = cons.rhs;
            for &(var, coef) in &cons.terms {
                match maps[var] {
                    VarMap::Shifted { col, lo } => {
                        coefs[col] += coef;
                        rhs -= coef * lo;
                    }
                    VarMap::Mirrored { col, hi } => {
                        coefs[col] -= coef;
                        rhs -= coef * hi;
                    }
                    VarMap::Split { pos, neg } => {
                        coefs[pos] += coef;
                        coefs[neg] -= coef;
                    }
                }
            }
            rows.push(StdRow {
                coefs,
                op: cons.op,
                rhs,
            });
        }
        // Bounds not absorbed by the shift become explicit rows.
        for (i, &(lo, hi)) in lp.bounds.iter().enumerate() {
            match maps[i] {
                VarMap::Shifted { col, lo: shift } if hi.is_finite() => {
                    let mut coefs = vec![0.0; ncols];
                    coefs[col] = 1.0;
                    rows.push(StdRow {
                        coefs,
                        op: ConstraintOp::Le,
                        rhs: hi - shift,
                    });
                }
                VarMap::Split { pos, neg } => {
                    // Free variable: both bounds infinite, nothing to add.
                    debug_assert!(!lo.is_finite() && !hi.is_finite());
                    let _ = (pos, neg);
                }
                _ => {}
            }
        }

        let n_slack = rows
            .iter()
            .filter(|r| !matches!(r.op, ConstraintOp::Eq))
            .count();
        StdForm {
            maps,
            c,
            obj_const,
            sign,
            rows,
            ncols,
            real_cols: ncols + n_slack,
        }
    }

    /// Build the simplex tableau with slacks and artificials (plus column
    /// headroom for carried branch rows). Returns the tableau and the
    /// artificial column indices.
    fn build_tableau(&self) -> (Tableau, Vec<usize>) {
        let m = self.rows.len();
        // Columns: structural | slack/surplus | artificial | headroom | rhs
        let total = self.real_cols + m; // upper bound on artificial count
        let stride = total + COL_HEADROOM + 1;
        let mut a = vec![0.0; m * stride];
        let mut basis = vec![usize::MAX; m];
        let mut slack_at = self.ncols;
        let mut art_at = self.real_cols;
        let mut artificials = Vec::new();

        for (r, row) in self.rows.iter().enumerate() {
            let (mut coefs, mut rhs) = (row.coefs.clone(), row.rhs);
            let mut op = row.op;
            if rhs < 0.0 {
                for v in &mut coefs {
                    *v = -*v;
                }
                rhs = -rhs;
                op = match op {
                    ConstraintOp::Le => ConstraintOp::Ge,
                    ConstraintOp::Ge => ConstraintOp::Le,
                    ConstraintOp::Eq => ConstraintOp::Eq,
                };
            }
            for (j, &v) in coefs.iter().enumerate() {
                a[r * stride + j] = v;
            }
            a[r * stride + stride - 1] = rhs;
            match op {
                ConstraintOp::Le => {
                    a[r * stride + slack_at] = 1.0;
                    basis[r] = slack_at;
                    slack_at += 1;
                }
                ConstraintOp::Ge => {
                    a[r * stride + slack_at] = -1.0;
                    slack_at += 1;
                    a[r * stride + art_at] = 1.0;
                    basis[r] = art_at;
                    artificials.push(art_at);
                    art_at += 1;
                }
                ConstraintOp::Eq => {
                    a[r * stride + art_at] = 1.0;
                    basis[r] = art_at;
                    artificials.push(art_at);
                    art_at += 1;
                }
            }
        }
        (
            Tableau {
                a,
                basis,
                m,
                total,
                stride,
                blocked: Vec::new(),
                pivots: 0,
            },
            artificials,
        )
    }
}

/// Row delta between a carried snapshot and a new program: the longest
/// common prefix and suffix bracket one block of `deleted` prior rows
/// replaced by `inserted` new rows — the shape of a serving epoch's
/// add/retire/replace. `None` when the delta exceeds [`ADAPT_MAX_DELTA`]
/// or touches an Eq row (no slack column to delete by; an insert would
/// need two rows).
fn delta_plan(old: &[Constraint], new: &[Constraint]) -> Option<(usize, usize, usize)> {
    let prefix = old.iter().zip(new).take_while(|(a, b)| a == b).count();
    let max_suffix = old.len().min(new.len()) - prefix;
    let suffix = (0..max_suffix)
        .take_while(|&k| old[old.len() - 1 - k] == new[new.len() - 1 - k])
        .count();
    let deleted = old.len() - prefix - suffix;
    let inserted = new.len() - prefix - suffix;
    if deleted + inserted == 0 || deleted + inserted > ADAPT_MAX_DELTA {
        return None;
    }
    let no_eq = |c: &Constraint| c.op != ConstraintOp::Eq;
    if !old[prefix..prefix + deleted].iter().all(no_eq)
        || !new[prefix..prefix + inserted].iter().all(no_eq)
    {
        return None;
    }
    Some((prefix, deleted, inserted))
}

/// Answer `lp` on a carried prior. An exact structural match re-prices
/// in place; a small row delta (same bounds) is absorbed by
/// [`CanonicalTableau::apply_delta`] + dual restore. Every success is
/// re-verified by phase-2 pricing, so a prior can cost work but never
/// change a result. `None` means the prior could not answer `lp`: the
/// caller rebuilds cold.
fn try_prior(
    mut ct: CanonicalTableau,
    lp: &LinearProgram,
) -> Option<(LpSolution, CanonicalTableau)> {
    if !ct.has_snapshot || ct.bounds != lp.bounds {
        return None;
    }
    let exact = ct.constraints == lp.constraints;
    let start = ct.tab.pivots;
    if !exact {
        // Past the streak limit, rebuild instead of adapting forever (see
        // ADAPT_REFRESH_LIMIT).
        if ct.adapt_streak >= ADAPT_REFRESH_LIMIT {
            return None;
        }
        let (prefix, deleted, inserted) = delta_plan(&ct.constraints, &lp.constraints)?;
        if !ct.apply_delta(lp, prefix, deleted, inserted) {
            return None;
        }
    }
    let adapted = !exact;
    let (c, obj_const, sign) = objective_under(&ct.maps, ct.ncols, lp);
    let mut cost = vec![0.0; ct.tab.total];
    cost[..ct.ncols].copy_from_slice(&c);
    // On an exact match the basis is primal-feasible (the prior ended
    // optimal on the same rows) and only the pricing changed; an adapted
    // tableau first restores the feasibility its row churn may have
    // broken. A restore that cannot finish — including an infeasibility
    // certificate, which on a freshly mutated tableau we do not trust to
    // decide the result — drops the prior and lets the cold oracle
    // arbitrate.
    if adapted && ct.tab.dual_restore(&cost) != DualOutcome::Feasible {
        return None;
    }
    // A carried re-optimization that errors (iteration cap on a drifted
    // tableau, or an apparent unbounded ray) must not decide the result
    // either: the cold rebuild arbitrates, and a genuinely unbounded
    // program re-derives its error there.
    let value = ct.tab.optimize(&cost).ok()?;
    ct.cost = cost;
    ct.obj_const = obj_const;
    ct.sign = sign;
    if adapted {
        ct.constraints = lp.constraints.clone();
        ct.adapt_streak += 1;
    }
    ct.stats = SolveStats {
        pivots: ct.tab.pivots - start,
        rebuilt: false,
    };
    let solution = ct.recover(value);
    Some((solution, ct))
}

/// The shared solver core behind every public entry point. `prior` is a
/// carried tableau, reused outright on a structural match and adapted on
/// a small row delta; otherwise (or without one) the program is
/// standardized and solved cold.
fn solve_core(
    lp: &LinearProgram,
    prior: Option<CanonicalTableau>,
    keep_snapshot: bool,
) -> Result<(LpSolution, CanonicalTableau), SolverError> {
    lp.validate()?;

    // --- Carried tableau: re-price, or adapt a small row delta. ----------
    if let Some(hit) = prior.and_then(|ct| try_prior(ct, lp)) {
        return Ok(hit);
    }

    // --- Cold: standardize and build fresh. -------------------------------
    let std_form = StdForm::new(lp);
    let (mut tab, artificials) = std_form.build_tableau();
    let total = tab.total;
    let real_cols = std_form.real_cols;

    // Phase 1 drives artificials out.
    if !artificials.is_empty() {
        let mut phase1_cost = vec![0.0; total];
        for &j in &artificials {
            phase1_cost[j] = -1.0;
        }
        let value = tab.optimize(&phase1_cost)?;
        if value < -1e-7 {
            return Err(SolverError::Infeasible);
        }
        // Pivot any artificial still in the basis out (degenerate rows),
        // or verify its value is zero.
        for r in 0..tab.m {
            if artificials.contains(&tab.basis[r]) {
                let pivot_col =
                    (0..real_cols).find(|&j| tab.at(r, j).abs() > TOL && !artificials.contains(&j));
                if let Some(j) = pivot_col {
                    tab.pivot(r, j);
                } else {
                    // Row is all-zero over real columns: redundant.
                    debug_assert!(tab.rhs(r).abs() <= 1e-7);
                }
            }
        }
        // Freeze artificial columns at zero so phase 2 never re-enters
        // them.
        for &j in &artificials {
            for r in 0..tab.m {
                if tab.basis[r] != j {
                    tab.set(r, j, 0.0);
                }
            }
        }
        tab.blocked = artificials;
    }

    // Phase 2: the real objective.
    let mut cost = vec![0.0; total];
    cost[..std_form.ncols].copy_from_slice(&std_form.c);
    let value = tab.optimize(&cost)?;

    let pivots = tab.pivots;
    let (constraints, bounds, con_slack) = if keep_snapshot {
        // Slack columns are assigned one per non-Eq row in row order, and
        // the constraint rows precede the bound rows (a build-time
        // sign-flip swaps Le/Ge but never adds or removes the slack).
        let mut slack_at = std_form.ncols;
        let con_slack = lp
            .constraints
            .iter()
            .map(|c| match c.op {
                ConstraintOp::Eq => usize::MAX,
                ConstraintOp::Le | ConstraintOp::Ge => {
                    let s = slack_at;
                    slack_at += 1;
                    s
                }
            })
            .collect();
        (lp.constraints.clone(), lp.bounds.clone(), con_slack)
    } else {
        // The caller only wants the solution (solve_lp): skip the
        // structural clone it would immediately drop.
        (Vec::new(), Vec::new(), Vec::new())
    };
    let ct = CanonicalTableau {
        tab,
        maps: std_form.maps,
        cost,
        obj_const: std_form.obj_const,
        sign: std_form.sign,
        n: lp.num_vars(),
        ncols: std_form.ncols,
        has_snapshot: keep_snapshot,
        constraints,
        bounds,
        con_slack,
        branch_rows: Vec::new(),
        adapt_streak: 0,
        stats: SolveStats {
            pivots,
            rebuilt: true,
        },
    };
    let solution = ct.recover(value);
    Ok((solution, ct))
}

/// Exit state of a dual-simplex restore.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
enum DualOutcome {
    /// Primal feasibility restored.
    Feasible,
    /// A row with negative basic value has no negative entry over the
    /// admissible columns: the canonical row `Σ aⱼ yⱼ = rhs < 0` with all
    /// `aⱼ ≥ 0` is a linear combination of the original equations, so no
    /// `y ≥ 0` can satisfy it — an infeasibility certificate that holds
    /// regardless of the starting basis.
    Infeasible,
    /// Iteration cap: give up, let the caller rebuild cold.
    Stalled,
}

/// Dense row-major simplex tableau in canonical form (basis columns are
/// unit vectors). The backing rows are allocated with spare column
/// capacity (`stride − 1 − total` zero columns between the live columns
/// and the rhs, which sits at `stride − 1`), so a carried descent can
/// append branch rows and their slack columns without re-laying the
/// matrix out; `grow` re-strides when the headroom runs dry.
#[derive(Debug, Clone)]
struct Tableau {
    a: Vec<f64>,
    basis: Vec<usize>,
    m: usize,
    /// Live column count (structural + slack + artificial + appended).
    total: usize,
    /// Allocated row width; rhs at `stride - 1`.
    stride: usize,
    /// Artificial columns frozen after phase 1; never re-enter the basis.
    blocked: Vec<usize>,
    /// Lifetime pivot count (for [`SolveStats`]).
    pivots: u64,
}

impl Tableau {
    #[inline]
    fn at(&self, r: usize, j: usize) -> f64 {
        self.a[r * self.stride + j]
    }

    #[inline]
    fn set(&mut self, r: usize, j: usize, v: f64) {
        self.a[r * self.stride + j] = v;
    }

    #[inline]
    fn rhs(&self, r: usize) -> f64 {
        self.a[r * self.stride + self.stride - 1]
    }

    /// Re-stride every row with `extra` more spare columns (the rhs moves
    /// to the new last column; live columns keep their indices).
    fn grow(&mut self, extra: usize) {
        let new_stride = self.stride + extra;
        let mut a = vec![0.0; self.m * new_stride];
        for r in 0..self.m {
            let src = r * self.stride;
            let dst = r * new_stride;
            a[dst..dst + self.stride - 1].copy_from_slice(&self.a[src..src + self.stride - 1]);
            a[dst + new_stride - 1] = self.a[src + self.stride - 1];
        }
        self.a = a;
        self.stride = new_stride;
    }

    /// Claim the next spare column (growing if needed). Spare columns are
    /// all-zero by construction and stay so under row operations, so the
    /// claimed column is a valid fresh slack.
    fn append_column(&mut self) -> usize {
        if self.total + 1 >= self.stride {
            self.grow(COL_GROW);
        }
        let col = self.total;
        self.total += 1;
        col
    }

    /// Append `terms · y ≤ rhs` as a canonical row: a fresh slack enters
    /// the basis and the row is eliminated against the current basis in
    /// **one pass** of row operations (no pivots — each basic column of a
    /// canonical tableau is a unit vector, so subtracting
    /// `new_row[basis[r]] · row_r` per row zeroes them all without
    /// interaction). The rhs is left sign-as-is: a negative basic slack
    /// is the dual restore's job. Returns the new row's slack column (the
    /// handle [`Tableau::delete_row_of_slack`] retires it by).
    fn append_le_row(&mut self, terms: &[(usize, f64)], rhs: f64) -> usize {
        let slack = self.append_column();
        let last = self.m;
        self.a.extend(std::iter::repeat_n(0.0, self.stride));
        self.m += 1;
        self.basis.push(slack);
        let base = last * self.stride;
        for &(j, v) in terms {
            self.a[base + j] += v;
        }
        self.a[base + slack] = 1.0;
        self.a[base + self.stride - 1] = rhs;
        for r in 0..last {
            let bcol = self.basis[r];
            let f = self.a[base + bcol];
            if f == 0.0 {
                continue;
            }
            let row = r * self.stride;
            for j in 0..self.stride {
                let v = self.a[row + j];
                if v != 0.0 {
                    self.a[base + j] -= f * v;
                }
            }
            // Exact zero on the eliminated basic column kills roundoff.
            self.a[base + bcol] = 0.0;
        }
        slack
    }

    /// Remove the constraint row owned by slack/surplus column `s` from
    /// the canonical tableau. The column `s` is (±) the `B⁻¹`-image of
    /// that original row's unit vector, so once `s` is basic in some row,
    /// every *other* tableau row carries zero weight of the original row
    /// — dropping the basic row (and blocking the dead column) yields
    /// exactly the canonical tableau of the system without it. A nonbasic
    /// `s` is first pivoted in on its largest-magnitude entry; primal and
    /// dual feasibility may break, which the caller's dual restore +
    /// re-optimization repair. Returns `false` when no usable pivot
    /// exists (degenerate numerics) — the tableau is then untrustworthy
    /// and must be rebuilt.
    fn delete_row_of_slack(&mut self, s: usize) -> bool {
        let row = match (0..self.m).find(|&r| self.basis[r] == s) {
            Some(r) => r,
            None => {
                let Some(r) = (0..self.m).max_by(|&a, &b| {
                    self.at(a, s)
                        .abs()
                        .partial_cmp(&self.at(b, s).abs())
                        .expect("no NaN in tableau")
                }) else {
                    return false;
                };
                if self.at(r, s).abs() <= TOL {
                    return false;
                }
                self.pivot(r, s);
                r
            }
        };
        let start = row * self.stride;
        self.a.drain(start..start + self.stride);
        self.basis.remove(row);
        self.m -= 1;
        // The dead column is all-zero in the remaining rows (it was
        // basic); block it so a deleted original row can never re-enter.
        self.blocked.push(s);
        true
    }

    /// Gauss-pivot on `(row, col)` and update the basis.
    fn pivot(&mut self, row: usize, col: usize) {
        #[cfg(feature = "fault")]
        pc_budget::fault::point("simplex::pivot");
        let w = self.stride;
        let p = self.at(row, col);
        debug_assert!(p.abs() > TOL, "pivot on (near-)zero element");
        let inv = 1.0 / p;
        for j in 0..w {
            self.a[row * w + j] *= inv;
        }
        for r in 0..self.m {
            if r == row {
                continue;
            }
            let f = self.at(r, col);
            if f == 0.0 {
                continue;
            }
            for j in 0..w {
                let v = self.a[row * w + j];
                self.a[r * w + j] -= f * v;
            }
        }
        self.basis[row] = col;
        self.pivots += 1;
    }

    /// Dual simplex pivots from a (near-)dual-feasible basis: repeatedly
    /// pivot the most negative basic value out, entering the column that
    /// keeps reduced costs non-positive (min ratio `dⱼ / a_rⱼ` over
    /// `a_rⱼ < 0`, index tie-break). This is the warm-start workhorse for
    /// branch & bound: a parent-optimal basis stays dual-feasible after a
    /// child tightens one variable bound, so feasibility comes back in a
    /// handful of pivots instead of a cold phase 1.
    ///
    /// Returns [`DualOutcome::Feasible`] when primal feasibility was
    /// restored, [`DualOutcome::Infeasible`] when a leaving row had no
    /// admissible entering column (a basis-independent infeasibility
    /// certificate — see the variant docs), and [`DualOutcome::Stalled`]
    /// at the iteration cap. A freshly adapted prior treats the last two
    /// identically ("give up, rebuild cold" — the cold path is the
    /// arbiter); a carried branch & bound child trusts the certificate to
    /// prune without a rebuild.
    fn dual_restore(&mut self, cost: &[f64]) -> DualOutcome {
        let iter_limit = 100 + 10 * (self.m + self.total);
        for _ in 0..iter_limit {
            // Leaving row: most negative basic value.
            let mut leave: Option<(usize, f64)> = None;
            for r in 0..self.m {
                let v = self.rhs(r);
                if v < -1e-7 && leave.is_none_or(|(_, worst)| v < worst) {
                    leave = Some((r, v));
                }
            }
            let Some((row, _)) = leave else {
                return DualOutcome::Feasible;
            };
            // Entering column: among negative entries of the leaving row,
            // the one whose reduced cost-to-entry ratio is smallest keeps
            // d ≤ 0 everywhere after the pivot.
            let mut enter: Option<(usize, f64)> = None;
            for j in 0..self.total {
                if self.blocked.contains(&j) {
                    continue;
                }
                let arj = self.at(row, j);
                if arj < -TOL {
                    let mut d = cost[j];
                    for r2 in 0..self.m {
                        let cb = cost[self.basis[r2]];
                        if cb != 0.0 {
                            d -= cb * self.at(r2, j);
                        }
                    }
                    let ratio = d / arj;
                    let better = match enter {
                        None => true,
                        Some((_, best)) => ratio < best - TOL,
                    };
                    if better {
                        enter = Some((j, ratio));
                    }
                }
            }
            let Some((col, _)) = enter else {
                return DualOutcome::Infeasible;
            };
            self.pivot(row, col);
        }
        DualOutcome::Stalled
    }

    /// Maximize `cost · y` from the current basic feasible solution.
    /// Returns the optimal objective value. Uses Bland's rule.
    fn optimize(&mut self, cost: &[f64]) -> Result<f64, SolverError> {
        let iter_limit = 200 + 50 * (self.m + self.total);
        for _ in 0..iter_limit {
            // Reduced costs: c_j − c_B · B⁻¹A_j (computed from the
            // canonical tableau).
            let mut entering = None;
            for j in 0..self.total {
                if self.blocked.contains(&j) {
                    continue;
                }
                let mut red = cost[j];
                for r in 0..self.m {
                    let cb = cost[self.basis[r]];
                    if cb != 0.0 {
                        red -= cb * self.at(r, j);
                    }
                }
                if red > TOL {
                    entering = Some(j);
                    break; // Bland: smallest index
                }
            }
            let Some(col) = entering else {
                // Optimal: objective = c_B · x_B
                let mut v = 0.0;
                for r in 0..self.m {
                    v += cost[self.basis[r]] * self.rhs(r);
                }
                return Ok(v);
            };
            // Ratio test, Bland tie-break on basis variable index.
            let mut leave: Option<(usize, f64)> = None;
            for r in 0..self.m {
                let arj = self.at(r, col);
                if arj > TOL {
                    let ratio = self.rhs(r) / arj;
                    match leave {
                        None => leave = Some((r, ratio)),
                        Some((lr, lratio)) => {
                            if ratio < lratio - TOL
                                || ((ratio - lratio).abs() <= TOL && self.basis[r] < self.basis[lr])
                            {
                                leave = Some((r, ratio));
                            }
                        }
                    }
                }
            }
            let Some((row, _)) = leave else {
                return Err(SolverError::Unbounded);
            };
            self.pivot(row, col);
        }
        Err(SolverError::LimitExceeded(iter_limit))
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::ConstraintOp::*;

    fn assert_close(a: f64, b: f64) {
        assert!((a - b).abs() < 1e-6, "{a} != {b}");
    }

    #[test]
    fn textbook_max() {
        // max 3x + 5y s.t. x ≤ 4, 2y ≤ 12, 3x + 2y ≤ 18  → 36 at (2, 6)
        let mut lp = LinearProgram::maximize(vec![3.0, 5.0]);
        lp.add_constraint(vec![(0, 1.0)], Le, 4.0);
        lp.add_constraint(vec![(1, 2.0)], Le, 12.0);
        lp.add_constraint(vec![(0, 3.0), (1, 2.0)], Le, 18.0);
        let s = solve_lp(&lp).unwrap();
        assert_close(s.objective, 36.0);
        assert_close(s.x[0], 2.0);
        assert_close(s.x[1], 6.0);
    }

    #[test]
    fn minimize_with_ge() {
        // min 2x + 3y s.t. x + y ≥ 4, x ≥ 1 → 9 at (4? ...)
        // optimum: put everything on the cheaper x: x=4,y=0 → 8
        let mut lp = LinearProgram::minimize(vec![2.0, 3.0]);
        lp.add_constraint(vec![(0, 1.0), (1, 1.0)], Ge, 4.0);
        lp.add_constraint(vec![(0, 1.0)], Ge, 1.0);
        let s = solve_lp(&lp).unwrap();
        assert_close(s.objective, 8.0);
        assert_close(s.x[0], 4.0);
    }

    #[test]
    fn equality_constraints() {
        // max x + y s.t. x + y = 5, x − y = 1 → x=3, y=2
        let mut lp = LinearProgram::maximize(vec![1.0, 1.0]);
        lp.add_constraint(vec![(0, 1.0), (1, 1.0)], Eq, 5.0);
        lp.add_constraint(vec![(0, 1.0), (1, -1.0)], Eq, 1.0);
        let s = solve_lp(&lp).unwrap();
        assert_close(s.objective, 5.0);
        assert_close(s.x[0], 3.0);
        assert_close(s.x[1], 2.0);
    }

    #[test]
    fn infeasible_detected() {
        let mut lp = LinearProgram::maximize(vec![1.0]);
        lp.add_constraint(vec![(0, 1.0)], Ge, 5.0);
        lp.add_constraint(vec![(0, 1.0)], Le, 3.0);
        assert_eq!(solve_lp(&lp), Err(SolverError::Infeasible));
    }

    #[test]
    fn unbounded_detected() {
        let mut lp = LinearProgram::maximize(vec![1.0, 0.0]);
        lp.add_constraint(vec![(1, 1.0)], Le, 1.0);
        assert_eq!(solve_lp(&lp), Err(SolverError::Unbounded));
    }

    #[test]
    fn variable_upper_bounds_respected() {
        let mut lp = LinearProgram::maximize(vec![1.0, 1.0]);
        lp.set_bounds(0, 0.0, 2.5);
        lp.set_bounds(1, 1.0, 4.0);
        let s = solve_lp(&lp).unwrap();
        assert_close(s.objective, 6.5);
        assert_close(s.x[0], 2.5);
        assert_close(s.x[1], 4.0);
    }

    #[test]
    fn lower_bound_shift() {
        // min x s.t. x ≥ -10 with lo = -10: optimum at -10
        let mut lp = LinearProgram::minimize(vec![1.0]);
        lp.set_bounds(0, -10.0, f64::INFINITY);
        let s = solve_lp(&lp).unwrap();
        assert_close(s.objective, -10.0);
    }

    #[test]
    fn mirrored_variable() {
        // max x with x ≤ 7 only (lo = −∞): optimum 7
        let mut lp = LinearProgram::maximize(vec![1.0]);
        lp.set_bounds(0, f64::NEG_INFINITY, 7.0);
        let s = solve_lp(&lp).unwrap();
        assert_close(s.objective, 7.0);
    }

    #[test]
    fn free_variable_split() {
        // min x + y s.t. x + y ≥ −3, x free, y ≥ 0 → −3
        let mut lp = LinearProgram::minimize(vec![1.0, 1.0]);
        lp.set_bounds(0, f64::NEG_INFINITY, f64::INFINITY);
        lp.add_constraint(vec![(0, 1.0), (1, 1.0)], Ge, -3.0);
        let s = solve_lp(&lp).unwrap();
        assert_close(s.objective, -3.0);
    }

    #[test]
    fn negative_rhs_handled() {
        // max −x s.t. −x ≥ −4 (i.e. x ≤ 4), x ≥ 2 → −2 at x = 2
        let mut lp = LinearProgram::maximize(vec![-1.0]);
        lp.add_constraint(vec![(0, -1.0)], Ge, -4.0);
        lp.add_constraint(vec![(0, 1.0)], Ge, 2.0);
        let s = solve_lp(&lp).unwrap();
        assert_close(s.objective, -2.0);
        assert_close(s.x[0], 2.0);
    }

    #[test]
    fn degenerate_does_not_cycle() {
        // classic degenerate example; Bland's rule must terminate
        let mut lp = LinearProgram::maximize(vec![0.75, -150.0, 0.02, -6.0]);
        lp.add_constraint(vec![(0, 0.25), (1, -60.0), (2, -0.04), (3, 9.0)], Le, 0.0);
        lp.add_constraint(vec![(0, 0.5), (1, -90.0), (2, -0.02), (3, 3.0)], Le, 0.0);
        lp.add_constraint(vec![(2, 1.0)], Le, 1.0);
        let s = solve_lp(&lp).unwrap();
        assert_close(s.objective, 0.05);
    }

    #[test]
    fn solution_is_feasible_for_model() {
        let mut lp = LinearProgram::maximize(vec![5.0, 4.0, 3.0]);
        lp.add_constraint(vec![(0, 2.0), (1, 3.0), (2, 1.0)], Le, 5.0);
        lp.add_constraint(vec![(0, 4.0), (1, 1.0), (2, 2.0)], Le, 11.0);
        lp.add_constraint(vec![(0, 3.0), (1, 4.0), (2, 2.0)], Le, 8.0);
        let s = solve_lp(&lp).unwrap();
        assert!(lp.is_feasible(&s.x, 1e-6));
        assert_close(s.objective, 13.0);
    }

    #[test]
    fn fec_shape_lp() {
        // The fractional-edge-cover LP for the triangle query:
        // min c1 + c2 + c3 s.t. each attribute covered:
        //  a: c1 + c3 ≥ 1, b: c1 + c2 ≥ 1, c: c2 + c3 ≥ 1 → all 0.5, sum 1.5
        let mut lp = LinearProgram::minimize(vec![1.0, 1.0, 1.0]);
        lp.add_constraint(vec![(0, 1.0), (2, 1.0)], Ge, 1.0);
        lp.add_constraint(vec![(0, 1.0), (1, 1.0)], Ge, 1.0);
        lp.add_constraint(vec![(1, 1.0), (2, 1.0)], Ge, 1.0);
        let s = solve_lp(&lp).unwrap();
        assert_close(s.objective, 1.5);
    }

    // ------------------------------------------------------------------
    // Tableau carry
    // ------------------------------------------------------------------

    /// A Ge-bearing allocation-shaped LP (floors force a real phase 1).
    fn ge_lp() -> LinearProgram {
        let mut lp = LinearProgram::maximize(vec![5.0, 4.0, 3.0, 6.0]);
        lp.add_constraint(vec![(0, 1.0), (1, 1.0), (2, 1.0)], Ge, 2.0);
        lp.add_constraint(vec![(0, 2.0), (1, 3.0), (2, 1.0), (3, 2.0)], Le, 9.5);
        lp.add_constraint(vec![(0, 4.0), (1, 1.0), (2, 2.0)], Le, 10.5);
        lp.add_constraint(vec![(1, 1.0), (2, 4.0), (3, 3.0)], Le, 8.5);
        for i in 0..4 {
            lp.set_bounds(i, 0.0, 4.0);
        }
        lp
    }

    /// Cold-solve `lp` with `var`'s bounds tightened — the oracle a
    /// carried child must match.
    fn cold_child(lp: &LinearProgram, var: usize, bound: BranchBound) -> Result<f64, SolverError> {
        let mut lp = lp.clone();
        let (lo, hi) = lp.bounds[var];
        match bound {
            BranchBound::Upper(h) => lp.set_bounds(var, lo, hi.min(h)),
            BranchBound::Lower(l) => lp.set_bounds(var, lo.max(l), hi),
        }
        solve_lp(&lp).map(|s| s.objective)
    }

    #[test]
    fn child_carry_matches_cold() {
        let lp = ge_lp();
        let (root, ct) = solve_lp_tableau(&lp, None).unwrap();
        assert!(ct.stats().rebuilt);
        let parent = Arc::new(ct);
        for (var, bound) in [
            (0, BranchBound::Upper(1.0)),
            (0, BranchBound::Lower(2.0)),
            (1, BranchBound::Upper(0.0)),
            (3, BranchBound::Lower(3.0)), // infeasible child (row 3 caps x3)
        ] {
            let want = cold_child(&lp, var, bound);
            match (
                CanonicalTableau::solve_child(Arc::clone(&parent), var, bound),
                want,
            ) {
                (ChildSolve::Solved { solution, tableau }, Ok(want)) => {
                    assert!(
                        (solution.objective - want).abs() < 1e-6,
                        "{var}/{bound:?}: carried {} vs cold {want}",
                        solution.objective
                    );
                    assert!(!tableau.stats().rebuilt);
                    // carried bound must be enforced on the recovered x
                    match bound {
                        BranchBound::Upper(h) => assert!(solution.x[var] <= h + 1e-6),
                        BranchBound::Lower(l) => assert!(solution.x[var] >= l - 1e-6),
                    }
                    // a child optimum never beats its parent relaxation
                    assert!(want <= root.objective + 1e-6);
                }
                (ChildSolve::Infeasible { .. }, Err(SolverError::Infeasible)) => {}
                (got, want) => panic!("{var}/{bound:?}: carried {got:?} vs cold {want:?}"),
            }
        }
    }

    #[test]
    fn deep_child_chain_matches_cold_and_grows_headroom() {
        // Branch the same program COL_HEADROOM + 4 times: exercises the
        // spare-column headroom *and* the re-stride growth path.
        let mut lp = LinearProgram::maximize(vec![3.0, 2.0, 1.0]);
        lp.add_constraint(vec![(0, 1.0), (1, 1.0), (2, 1.0)], Ge, 1.0);
        lp.add_constraint(vec![(0, 1.0), (1, 2.0), (2, 3.0)], Le, 30.0);
        let (_, ct) = solve_lp_tableau(&lp, None).unwrap();
        let mut parent = Arc::new(ct);
        let mut oracle = lp.clone();
        for step in 0..(COL_HEADROOM + 4) {
            let var = step % 3;
            // alternate shrinking upper bounds so every row is non-redundant
            let (lo, hi) = oracle.bounds[var];
            let h = if hi.is_finite() {
                hi - 0.5
            } else {
                9.0 - step as f64 * 0.25
            };
            if h < lo {
                break;
            }
            oracle.set_bounds(var, lo, h);
            let want = solve_lp(&oracle).unwrap().objective;
            match CanonicalTableau::solve_child(parent, var, BranchBound::Upper(h)) {
                ChildSolve::Solved { solution, tableau } => {
                    assert!(
                        (solution.objective - want).abs() < 1e-6,
                        "step {step}: carried {} vs cold {want}",
                        solution.objective
                    );
                    parent = Arc::new(tableau);
                }
                other => panic!("step {step}: expected Solved, got {other:?}"),
            }
        }
    }

    #[test]
    fn child_carry_detects_infeasibility() {
        let mut lp = LinearProgram::maximize(vec![1.0, 1.0]);
        lp.add_constraint(vec![(0, 1.0), (1, 1.0)], Ge, 3.0);
        lp.add_constraint(vec![(0, 1.0), (1, 1.0)], Le, 5.0);
        let (_, ct) = solve_lp_tableau(&lp, None).unwrap();
        // x0 ≤ 1 then x1 ≤ 1 leaves Σ ≤ 2 < 3: infeasible
        let parent = Arc::new(ct);
        let ChildSolve::Solved { tableau, .. } =
            CanonicalTableau::solve_child(parent, 0, BranchBound::Upper(1.0))
        else {
            panic!("first cut still feasible");
        };
        match CanonicalTableau::solve_child(Arc::new(tableau), 1, BranchBound::Upper(1.0)) {
            ChildSolve::Infeasible { .. } => {}
            other => panic!("expected Infeasible, got {other:?}"),
        }
        // oracle agrees
        let mut oracle = lp;
        oracle.set_bounds(0, 0.0, 1.0);
        oracle.set_bounds(1, 0.0, 1.0);
        assert_eq!(solve_lp(&oracle), Err(SolverError::Infeasible));
    }

    #[test]
    fn objective_carry_reuses_tableau_without_rebuild() {
        // Same constraints, changing objective — the AVG-probe shape.
        let lp = ge_lp();
        let (_, mut ct) = solve_lp_tableau(&lp, None).unwrap();
        for step in 1..6 {
            let r = f64::from(step) * 0.7;
            let mut probe = lp.clone();
            probe.objective = vec![5.0 - r, 4.0 - r, 3.0 - r, 6.0 - r];
            let want = solve_lp(&probe).unwrap().objective;
            let (got, next) = solve_lp_tableau(&probe, Some(ct)).unwrap();
            assert!(
                (got.objective - want).abs() < 1e-6,
                "step {step}: carried {} vs cold {want}",
                got.objective
            );
            assert!(!next.stats().rebuilt, "step {step} must carry, not rebuild");
            ct = next;
        }
    }

    #[test]
    fn objective_carry_handles_sense_flip() {
        let lp = ge_lp();
        let (_, ct) = solve_lp_tableau(&lp, None).unwrap();
        let mut min = lp.clone();
        min.sense = Sense::Minimize;
        let want = solve_lp(&min).unwrap().objective;
        let (got, next) = solve_lp_tableau(&min, Some(ct)).unwrap();
        assert!((got.objective - want).abs() < 1e-6);
        assert!(!next.stats().rebuilt);
    }

    #[test]
    fn mismatched_prior_adapts_or_rebuilds_cold() {
        let lp = ge_lp();
        // a different rhs on one row used to force a rebuild; it is now a
        // one-row delta the adapt tier absorbs — still the oracle's result
        let (_, ct) = solve_lp_tableau(&lp, None).unwrap();
        let mut other = lp.clone();
        other.constraints[1].rhs = 7.5;
        let want = solve_lp(&other).unwrap().objective;
        let (got, next) = solve_lp_tableau(&other, Some(ct)).unwrap();
        assert!((got.objective - want).abs() < 1e-6);
        assert!(!next.stats().rebuilt, "a one-row rhs change now adapts");

        // changed variable bounds remain a genuine mismatch: drop the
        // prior, rebuild cold and re-solve correctly
        let (_, ct) = solve_lp_tableau(&lp, None).unwrap();
        let mut rebound = lp.clone();
        rebound.set_bounds(2, 0.0, 2.0);
        let want = solve_lp(&rebound).unwrap().objective;
        let (got, next) = solve_lp_tableau(&rebound, Some(ct)).unwrap();
        assert!((got.objective - want).abs() < 1e-6);
        assert!(next.stats().rebuilt, "a bounds mismatch must rebuild");
    }

    #[test]
    fn unusable_prior_rebuilds_cold_like_solve_lp() {
        // Priors whose structure cannot be reused: another variable
        // count, other bounds, an Eq row insert, a duplicated-Eq program
        // (whose optimal basis keeps an artificial on the redundant row)
        // offered to an independent-row one, and a delta past the
        // ceiling. Each is dropped: the solve rebuilds and answers
        // exactly as the cold oracle does, bit for bit.
        let base = ge_lp();
        let mut small = LinearProgram::maximize(vec![1.0]);
        small.add_constraint(vec![(0, 1.0)], Le, 5.0);
        let mut big = LinearProgram::maximize(vec![3.0, 5.0]);
        big.add_constraint(vec![(0, 1.0)], Le, 4.0);
        big.add_constraint(vec![(1, 2.0)], Le, 12.0);
        big.add_constraint(vec![(0, 3.0), (1, 2.0)], Le, 18.0);
        let mut rebound = base.clone();
        rebound.set_bounds(2, 0.0, 2.0);
        let mut with_eq = base.clone();
        with_eq.add_constraint(vec![(0, 1.0), (1, 1.0)], Eq, 2.5);
        let mut redundant = LinearProgram::maximize(vec![0.0, 0.0, 1.0]);
        redundant.add_constraint(vec![(0, 1.0), (1, 1.0), (2, 1.0)], Eq, 3.0);
        redundant.add_constraint(vec![(0, 1.0), (1, 1.0), (2, 1.0)], Eq, 3.0);
        let mut independent = LinearProgram::maximize(vec![0.0, 0.0, 1.0]);
        independent.add_constraint(vec![(0, 1.0), (1, 1.0), (2, 1.0)], Eq, 3.0);
        independent.add_constraint(vec![(0, 1.0), (1, 2.0), (2, -1.0)], Eq, 3.0);
        let mut grown = base.clone();
        for k in 0..(ADAPT_MAX_DELTA + 1) {
            grown.add_constraint(vec![(0, 1.0), (1, 1.0 + k as f64)], Le, 20.0 + k as f64);
        }
        for (from, to) in [
            (&small, &big),
            (&base, &rebound),
            (&base, &with_eq),
            (&redundant, &independent),
            (&base, &grown),
        ] {
            let (_, prior) = solve_lp_tableau(from, None).unwrap();
            assert!(!prior.can_reuse(to));
            let (got, next) = solve_lp_tableau(to, Some(prior)).unwrap();
            assert!(next.stats().rebuilt, "an unusable prior must rebuild");
            assert_eq!(got, solve_lp(to).unwrap());
        }
        assert_close(solve_lp(&independent).unwrap().objective, 1.0);
    }

    #[test]
    fn prior_adapts_to_appended_row_without_rebuild() {
        // One trailing Le row more — the serving epoch's add-constraint
        // shape. The prior must absorb it (append + dual restore), match
        // the cold oracle, and come back as a first-class prior.
        let lp = ge_lp();
        let (_, ct) = solve_lp_tableau(&lp, None).unwrap();
        let mut grown = lp.clone();
        grown.add_constraint(vec![(0, 1.0), (3, 1.0)], Le, 5.5);
        let want = solve_lp(&grown).unwrap().objective;
        let (got, next) = solve_lp_tableau(&grown, Some(ct)).unwrap();
        assert_close(got.objective, want);
        assert!(!next.stats().rebuilt, "one appended row must adapt");

        // the adapted tableau re-prices a follow-up objective exactly
        let mut probe = grown.clone();
        probe.objective = vec![1.0, 2.0, 3.0, 4.0];
        let want2 = solve_lp(&probe).unwrap().objective;
        let (got2, next2) = solve_lp_tableau(&probe, Some(next)).unwrap();
        assert_close(got2.objective, want2);
        assert!(!next2.stats().rebuilt);
    }

    #[test]
    fn prior_adapts_to_deleted_rows_without_rebuild() {
        // Deleting a middle Le row and, separately, the Ge row (whose
        // surplus column carries the −1 sign) — the retire-constraint
        // shape. Both must adapt in place and match the cold oracle.
        let lp = ge_lp();
        for gone in [0usize, 2] {
            let (_, ct) = solve_lp_tableau(&lp, None).unwrap();
            let mut shrunk = lp.clone();
            shrunk.constraints.remove(gone);
            let want = solve_lp(&shrunk).unwrap().objective;
            let (got, next) = solve_lp_tableau(&shrunk, Some(ct)).unwrap();
            assert_close(got.objective, want);
            assert!(!next.stats().rebuilt, "deleting row {gone} must adapt");
        }
    }

    #[test]
    fn prior_adapts_to_replaced_row_without_rebuild() {
        // delete + insert at one position — the replace_constraint shape
        let lp = ge_lp();
        let (_, ct) = solve_lp_tableau(&lp, None).unwrap();
        let mut swapped = lp.clone();
        swapped.constraints[1] = Constraint {
            terms: vec![(0, 1.0), (1, 2.0), (3, 1.0)],
            op: Le,
            rhs: 7.0,
        };
        let want = solve_lp(&swapped).unwrap().objective;
        let (got, next) = solve_lp_tableau(&swapped, Some(ct)).unwrap();
        assert_close(got.objective, want);
        assert!(!next.stats().rebuilt, "a one-row swap must adapt");
    }

    #[test]
    fn oversized_delta_demotes_to_rebuild() {
        let lp = ge_lp();
        let (_, ct) = solve_lp_tableau(&lp, None).unwrap();
        let mut other = lp.clone();
        for k in 0..(ADAPT_MAX_DELTA + 1) {
            other.add_constraint(vec![(0, 1.0), (1, 1.0 + k as f64)], Le, 20.0 + k as f64);
        }
        let want = solve_lp(&other).unwrap().objective;
        let (got, next) = solve_lp_tableau(&other, Some(ct)).unwrap();
        assert_close(got.objective, want);
        assert!(next.stats().rebuilt, "a 5-row delta must rebuild");
    }

    #[test]
    fn endless_churn_hits_the_adapt_refresh() {
        // alternately appending and deleting one row keeps every step
        // within the delta ceiling, but the streak limit must force a
        // periodic rebuild so drift/dead columns cannot grow forever
        let lp0 = ge_lp();
        let (_, first) = solve_lp_tableau(&lp0, None).unwrap();
        let mut ct = first;
        let mut lp = lp0.clone();
        let mut rebuilds = 0;
        for step in 0..40 {
            if step % 2 == 0 {
                lp.add_constraint(vec![(0, 1.0), (1, 1.0)], Le, 12.0 + step as f64);
            } else {
                lp.constraints.pop();
            }
            let want = solve_lp(&lp).unwrap().objective;
            let (got, next) = solve_lp_tableau(&lp, Some(ct)).unwrap();
            assert_close(got.objective, want);
            if next.stats().rebuilt {
                rebuilds += 1;
            }
            ct = next;
        }
        assert!(
            rebuilds >= 1,
            "40 churn steps must cross ADAPT_REFRESH_LIMIT at least once"
        );
        assert!(
            rebuilds <= 5,
            "the refresh must stay periodic, not per-step ({rebuilds} rebuilds)"
        );
    }

    #[test]
    fn eq_row_delta_demotes_to_rebuild() {
        let lp = ge_lp();
        let (_, ct) = solve_lp_tableau(&lp, None).unwrap();
        let mut other = lp.clone();
        other.add_constraint(vec![(0, 1.0), (1, 1.0)], Eq, 2.5);
        let want = solve_lp(&other).unwrap().objective;
        let (got, next) = solve_lp_tableau(&other, Some(ct)).unwrap();
        assert_close(got.objective, want);
        assert!(next.stats().rebuilt, "an Eq insert cannot adapt");
    }

    #[test]
    fn adapted_infeasible_program_still_detected() {
        // Appending a row that makes the program infeasible: the adapt
        // path must not mask it (it discards the prior and lets the cold
        // oracle decide).
        let lp = ge_lp();
        let (_, ct) = solve_lp_tableau(&lp, None).unwrap();
        let mut dead = lp.clone();
        dead.add_constraint(vec![(0, 1.0), (1, 1.0), (2, 1.0)], Le, 1.0); // vs Ge 2.0
        assert_eq!(solve_lp(&dead), Err(SolverError::Infeasible));
        assert_eq!(
            solve_lp_tableau(&dead, Some(ct)).map(|(s, _)| s),
            Err(SolverError::Infeasible)
        );
    }

    #[test]
    fn branch_row_gc_keeps_row_count_flat() {
        // Repeatedly tightening the same variable's upper bound must not
        // grow the tableau: each new cut retires the row it dominates.
        let mut lp = LinearProgram::maximize(vec![3.0, 2.0]);
        lp.add_constraint(vec![(0, 1.0), (1, 1.0)], Ge, 1.0);
        lp.add_constraint(vec![(0, 1.0), (1, 2.0)], Le, 20.0);
        let (_, ct) = solve_lp_tableau(&lp, None).unwrap();
        let root_rows = ct.tab.m;
        let mut parent = Arc::new(ct);
        let mut oracle = lp.clone();
        for step in 0..6 {
            let h = 8.0 - step as f64;
            oracle.set_bounds(0, 0.0, h);
            let want = solve_lp(&oracle).unwrap().objective;
            match CanonicalTableau::solve_child(parent, 0, BranchBound::Upper(h)) {
                ChildSolve::Solved { solution, tableau } => {
                    assert_close(solution.objective, want);
                    assert!(
                        tableau.tab.m <= root_rows + 1,
                        "step {step}: dominated rows must be retired, m = {}",
                        tableau.tab.m
                    );
                    parent = Arc::new(tableau);
                }
                other => panic!("step {step}: {other:?}"),
            }
        }
    }

    #[test]
    fn carried_tableau_counts_fewer_pivots_than_rebuild() {
        // The O(m) → O(1) claim, measured: a carried child must pivot
        // strictly less than a cold rebuild on a Ge-bearing program.
        let lp = ge_lp();
        let (_, ct) = solve_lp_tableau(&lp, None).unwrap();
        let parent = Arc::new(ct);
        let ChildSolve::Solved { tableau, .. } =
            CanonicalTableau::solve_child(parent, 0, BranchBound::Upper(1.0))
        else {
            panic!("child solvable");
        };
        let carried_pivots = tableau.stats().pivots;

        let mut child = lp.clone();
        child.set_bounds(0, 0.0, 1.0);
        let (_, rebuilt) = solve_lp_tableau(&child, None).unwrap();
        assert!(rebuilt.stats().rebuilt);
        assert!(
            carried_pivots < rebuilt.stats().pivots,
            "carried {} pivots vs rebuilt {}",
            carried_pivots,
            rebuilt.stats().pivots
        );
    }
}
