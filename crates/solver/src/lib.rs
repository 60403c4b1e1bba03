//! Linear and mixed-integer linear programming for the Predicate-Constraint
//! framework.
//!
//! The paper's bounding algorithm (§4.2) formulates row allocation over
//! decomposed cells as a mixed-integer linear program, and its join bound
//! (§5.2) solves a small linear program for the tightest fractional edge
//! cover. Off-the-shelf solvers are not available offline, so this crate
//! implements both from scratch:
//!
//! * [`simplex`] — a dense two-phase primal simplex solver with Bland's
//!   anti-cycling rule, whose canonical tableau can be carried to the
//!   next related solve.
//! * [`milp`] — sequential depth-first branch & bound over the LP
//!   relaxation with incumbent pruning.
//! * [`greedy`] — the paper's fast special case for *disjoint* predicate
//!   constraints, where the MILP degenerates to per-variable choices.
//!
//! Problem sizes in the paper are modest (tens of overlapping PCs yielding
//! hundreds of cells; thousands of disjoint PCs which take the greedy
//! path), so a dense tableau is the right trade-off.

#![warn(missing_docs)]

mod error;
pub mod greedy;
mod linprog;
pub mod milp;
pub mod simplex;

pub use error::SolverError;
pub use linprog::{Constraint, ConstraintOp, LinearProgram, Sense};
pub use milp::{
    solve_milp, solve_milp_budgeted, MilpOptions, MilpProblem, MilpSolution, SearchStats, Warmth,
};
pub use simplex::{
    solve_lp, solve_lp_tableau, BranchBound, CanonicalTableau, ChildSolve, LpSolution, SolveStats,
    ADAPT_MAX_DELTA,
};
