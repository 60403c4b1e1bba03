//! Typed predicate language, region algebra, and an exact cell
//! satisfiability solver for the Predicate-Constraint framework.
//!
//! The paper ("Fast and Reliable Missing Data Contingency Analysis with
//! Predicate-Constraints", SIGMOD 2020) restricts predicates to
//! *conjunctions of ranges and inequalities* over the attributes of a
//! relation (§3.1). That restriction is what makes satisfiability of
//! decomposed cells decidable without a general SMT solver: a predicate is
//! an axis-aligned box, and a cell is a box minus a union of boxes.
//!
//! This crate provides:
//!
//! * [`Value`], [`AttrType`], and [`Schema`] — the typed data model shared
//!   by the storage engine and the bounding engine.
//! * [`Interval`] and [`IntervalSet`] — one-dimensional range algebra with
//!   open/closed endpoints and type-aware (discrete vs. continuous)
//!   emptiness and complement.
//! * [`Atom`] and [`Predicate`] — conjunctive range predicates.
//! * [`Region`] — an axis-aligned box over a schema, the geometric form of
//!   a predicate.
//! * [`sat`] — the exact satisfiability routine for `base ∧ ¬ψ₁ ∧ … ∧ ¬ψₖ`
//!   used by cell decomposition. This is the component that replaces Z3 in
//!   the paper's implementation.

#![warn(missing_docs)]

mod atom;
mod interval;
mod interval_set;
mod predicate;
mod region;
pub mod sat;
mod schema;
pub mod text;
mod value;

pub use atom::Atom;
pub use interval::{Complement, Interval};
pub use interval_set::IntervalSet;
pub use predicate::Predicate;
pub use region::Region;
pub use schema::{AttrType, Schema};
pub use value::Value;
