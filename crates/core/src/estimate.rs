//! Per-constraint selectivity estimates driving search order.
//!
//! Every search in the engine used to run in **declaration order**:
//! decomposition explored include/exclude splits in catalog order, branch
//! & bound branched on the first fractional variable, and the witness DFS
//! tried disjuncts as written. On skewed catalogs that pays for the
//! *unselective* splits first — the branches that almost never die — and
//! prunes late. This module ports the Atreides-join idea (tribles-rust):
//! keep **O(1)-maintained estimates** per constraint and always decide
//! the most selective thing next, with no planner pass.
//!
//! # What is maintained
//!
//! One [`ConstraintEstimate`] per catalog constraint:
//!
//! * **normalized box volume** — the product over attributes of the
//!   constraint's allowed-box width divided by the domain width (an
//!   unbounded or degenerate domain axis contributes 1.0). Pure geometry,
//!   computed once per constraint in O(attrs).
//! * **a live split-survival counter** ([`SurvivalCounter`]) — how many
//!   include/exclude branches a decomposition opened on this constraint
//!   and how many survived (were satisfiable). Updated as decomposition
//!   runs, Laplace-smoothed, shared across epochs by `Arc`.
//!
//! The **score** of a constraint is `volume × (survivals+1)/(splits+2)`:
//! small volume or a history of dying branches ⇒ small score ⇒ decided
//! *first*, so unsatisfiable branches die near the root and — under a
//! budget trip — the frontier cells left undecided are the *least*
//! determined ones.
//!
//! # Per-delta maintenance cost
//!
//! [`Estimates::derive_add`] / [`Estimates::derive_retire`] touch only
//! their own entry: an add computes one new volume (O(attrs)) and clones
//! the entry vector (`Arc`-shared counters, so the clone is shallow); a
//! retire removes one entry. Shard merges and splits recombine per-member
//! stats through [`Estimates::restrict`], which *shares* the member
//! counters — survival observed while decomposing a merged shard flows
//! back into the catalog-wide estimates.
//!
//! # One-shot bounds
//!
//! A one-shot [`crate::BoundEngine`] that holds no table yet estimates
//! only the constraints its query region reaches (see `crate::bounds`):
//! a fresh table has no survival history, so over the same domain it
//! orders the splits exactly as the whole catalog's table restricted to
//! them would. An engine that holds a table (a session's, or one built
//! by an earlier GROUP-BY or call that reached every constraint)
//! restricts it and publishes into the shared counters. So a standalone
//! engine reused for several reach-scoped bounds keeps no survival
//! history from one bound to the next.
//!
//! # Why ordering is semantics-free
//!
//! A cell of the decomposition is identified by *which* constraints it
//! includes, not by the order they were decided: its region is the base
//! tightened by the intersection of the included boxes (intersection
//! commutes) and its satisfiability is a property of the conjunction.
//! Reordering the DFS therefore permutes the emitted cell list and may
//! pick different (equally genuine) witnesses, but the *set* of cells —
//! and every bound computed from them — is unchanged. The same argument
//! covers the B&B branch order (any order enumerates the same integer
//! lattice) and the witness-search disjunct order (a disjunction is
//! order-independent). Property-tested in `tests/prop_ordering.rs`.
//!
//! # Budget trips
//!
//! Survival updates are **staged** on the [`SplitOrdering`] handed to the
//! decomposition and published into the shared counters only when the
//! run's budget never tripped — mirroring the session rule that a tripped
//! epoch build is never published. A starved decomposition observes a
//! biased sample (branches it never probed look like deaths); discarding
//! the stage keeps the counters honest.

use crate::{PcSet, PredicateConstraint};
use pc_predicate::Interval;
use std::sync::atomic::{AtomicU64, Ordering};
use std::sync::Arc;

/// Live include/exclude survival tally of one constraint, shared across
/// epochs (and shard rebuilds) by `Arc`. `splits` counts branches a
/// decomposition opened on the constraint, `survivals` how many were
/// satisfiable.
#[derive(Debug, Default)]
pub struct SurvivalCounter {
    splits: AtomicU64,
    survivals: AtomicU64,
}

impl SurvivalCounter {
    /// Branches opened so far.
    pub fn splits(&self) -> u64 {
        self.splits.load(Ordering::Relaxed)
    }

    /// Branches that survived (were satisfiable).
    pub fn survivals(&self) -> u64 {
        self.survivals.load(Ordering::Relaxed)
    }

    /// Add a finished run's staged tally.
    fn add(&self, splits: u64, survivals: u64) {
        if splits > 0 {
            self.splits.fetch_add(splits, Ordering::Relaxed);
            self.survivals.fetch_add(survivals, Ordering::Relaxed);
        }
    }

    /// Laplace-smoothed survival rate in (0, 1): ½ with no history, so
    /// geometry dominates until real observations arrive.
    pub fn rate(&self) -> f64 {
        (self.survivals() as f64 + 1.0) / (self.splits() as f64 + 2.0)
    }
}

/// Selectivity estimate of one constraint: geometry (volume) plus the
/// live survival history.
#[derive(Debug, Clone)]
pub struct ConstraintEstimate {
    /// Normalized allowed-box volume over the domain, in `[0, 1]`.
    pub volume: f64,
    /// Shared live split-survival tally.
    pub survival: Arc<SurvivalCounter>,
}

impl ConstraintEstimate {
    /// A fresh estimate of `pc` over `set`'s schema and domain: its
    /// volume in O(attrs), an empty survival history.
    fn fresh(set: &PcSet, pc: &PredicateConstraint) -> ConstraintEstimate {
        let allowed = pc.allowed_region(set.schema());
        let domain = set.domain();
        let volume = (0..allowed.width())
            .map(|a| width_ratio(allowed.interval(a), domain.interval(a)))
            .product();
        ConstraintEstimate {
            volume,
            survival: Arc::new(SurvivalCounter::default()),
        }
    }

    /// The ordering score: smaller = more selective = decided earlier.
    pub fn score(&self) -> f64 {
        self.volume * self.survival.rate()
    }
}

/// Width of `iv` clipped to `domain`, as a fraction of the domain width.
/// Unbounded or degenerate domain axes give 1.0 (no information); a point
/// or empty clip gives 0.0 (maximally selective).
fn width_ratio(iv: &Interval, domain: &Interval) -> f64 {
    let dom_width = domain.hi - domain.lo;
    if !dom_width.is_finite() || dom_width <= 0.0 {
        return if iv.lo.is_infinite() && iv.hi.is_infinite() {
            1.0
        } else {
            // a finite cap on an unbounded axis: selective, but how much
            // is unknowable — rank it below full-width constraints
            0.5
        };
    }
    let clipped = iv.intersect(domain);
    let width = (clipped.hi - clipped.lo).max(0.0);
    (width / dom_width).clamp(0.0, 1.0)
}

/// The catalog's estimate table: one [`ConstraintEstimate`] per
/// constraint, in constraint-index order. Cheap to build (O(constraints ×
/// attrs)), cheap to maintain per epoch delta, and the single source every
/// search's ordering is derived from.
#[derive(Debug, Clone, Default)]
pub struct Estimates {
    entries: Vec<ConstraintEstimate>,
}

impl Estimates {
    /// Compute fresh estimates for every constraint of `set` (survival
    /// counters start empty — geometry decides until runs publish).
    pub fn for_set(set: &PcSet) -> Estimates {
        let entries = set
            .constraints()
            .iter()
            .map(|pc| ConstraintEstimate::fresh(set, pc))
            .collect();
        Estimates { entries }
    }

    /// Number of constraints estimated.
    pub fn len(&self) -> usize {
        self.entries.len()
    }

    /// True when no constraints are estimated.
    pub fn is_empty(&self) -> bool {
        self.entries.is_empty()
    }

    /// The per-constraint entries, in constraint-index order.
    pub fn entries(&self) -> &[ConstraintEstimate] {
        &self.entries
    }

    /// The ordering score of constraint `i` (smaller = decided earlier).
    pub fn score(&self, i: usize) -> f64 {
        self.entries[i].score()
    }

    /// The estimate-guided decision order: constraint indices ascending by
    /// score, ties broken by index (deterministic — two runs over the same
    /// estimates produce the same order, which is what keeps sequential
    /// and parallel decomposition bit-identical).
    pub fn order(&self) -> Vec<usize> {
        let mut order: Vec<usize> = (0..self.entries.len()).collect();
        order.sort_by(|&a, &b| {
            self.score(a)
                .partial_cmp(&self.score(b))
                .unwrap_or(std::cmp::Ordering::Equal)
                .then(a.cmp(&b))
        });
        order
    }

    /// Derive the estimate table of `set` — this table's constraints plus
    /// one appended — touching only the new entry (existing entries clone
    /// shallowly, `Arc` counters shared).
    pub fn derive_add(&self, set: &PcSet) -> Estimates {
        debug_assert_eq!(set.len(), self.entries.len() + 1);
        let added = set.constraints().last().expect("one constraint was added");
        let mut entries = Vec::with_capacity(set.len());
        entries.extend_from_slice(&self.entries);
        entries.push(ConstraintEstimate::fresh(set, added));
        Estimates { entries }
    }

    /// Derive the estimate table with the constraint at `removed` taken
    /// out: surviving entries keep their counters (indices shift down).
    pub fn derive_retire(&self, removed: usize) -> Estimates {
        let mut entries = self.entries.clone();
        entries.remove(removed);
        Estimates { entries }
    }

    /// The estimates of a member subset, in member order, **sharing** the
    /// members' survival counters — how shard merges and splits recombine
    /// per-member stats: survival observed while decomposing the sub-set
    /// publishes straight into the catalog-wide counters.
    pub fn restrict(&self, members: &[usize]) -> Estimates {
        Estimates {
            entries: members.iter().map(|&m| self.entries[m].clone()).collect(),
        }
    }

    /// Fold a finished run's staged tallies into the live counters. Only
    /// call for runs whose budget never tripped (see the module docs).
    pub fn publish(&self, ordering: &SplitOrdering) {
        debug_assert_eq!(ordering.stage.len(), self.entries.len());
        for (entry, stage) in self.entries.iter().zip(&ordering.stage) {
            entry.survival.add(
                stage.0.load(Ordering::Relaxed),
                stage.1.load(Ordering::Relaxed),
            );
        }
    }
}

/// One decomposition run's view of the estimates: the frozen decision
/// order (computed once, so the run is deterministic even while other
/// runs publish survival updates concurrently) plus a staged survival
/// tally that the caller publishes — or discards, after a budget trip —
/// when the run finishes.
#[derive(Debug)]
pub struct SplitOrdering {
    order: Vec<usize>,
    /// Per constraint (catalog index): staged (splits, survivals).
    stage: Vec<(AtomicU64, AtomicU64)>,
}

impl SplitOrdering {
    /// Freeze the current estimate-guided order for one run.
    pub fn from_estimates(estimates: &Estimates) -> SplitOrdering {
        let order = estimates.order();
        let stage = (0..order.len())
            .map(|_| (AtomicU64::new(0), AtomicU64::new(0)))
            .collect();
        SplitOrdering { order, stage }
    }

    /// The constraint decided at DFS depth `depth`.
    pub fn constraint_at(&self, depth: usize) -> usize {
        self.order[depth]
    }

    /// The frozen decision order.
    pub fn order(&self) -> &[usize] {
        &self.order
    }

    /// Stage one include/exclude split of constraint `i`: two branches
    /// opened, `survived` of them satisfiable. Thread-safe — the parallel
    /// decomposition records from every fork.
    pub fn record_split(&self, i: usize, survived: u64) {
        let (splits, survivals) = &self.stage[i];
        splits.fetch_add(2, Ordering::Relaxed);
        survivals.fetch_add(survived, Ordering::Relaxed);
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::{FrequencyConstraint, PredicateConstraint, ValueConstraint};
    use pc_predicate::{Atom, AttrType, Predicate, Region, Schema};

    fn schema() -> Schema {
        Schema::new(vec![("x", AttrType::Float), ("v", AttrType::Float)])
    }

    fn pc_box(lo: f64, hi: f64) -> PredicateConstraint {
        PredicateConstraint::new(
            Predicate::atom(Atom::bucket(0, lo, hi)),
            ValueConstraint::none(),
            FrequencyConstraint::at_most(10),
        )
    }

    fn set_with(domain_hi: f64, pcs: Vec<PredicateConstraint>) -> PcSet {
        let mut set = PcSet::new(schema());
        for pc in pcs {
            set.push(pc);
        }
        let mut domain = Region::full(&schema());
        domain.set_interval(0, Interval::half_open(0.0, domain_hi));
        set.set_domain(domain);
        set
    }

    #[test]
    fn narrow_boxes_score_below_wide_ones() {
        let set = set_with(
            100.0,
            vec![pc_box(0.0, 100.0), pc_box(10.0, 12.0), pc_box(0.0, 50.0)],
        );
        let est = Estimates::for_set(&set);
        assert!(est.score(1) < est.score(2));
        assert!(est.score(2) < est.score(0));
        // most selective first
        assert_eq!(est.order(), vec![1, 2, 0]);
    }

    #[test]
    fn unbounded_axes_contribute_no_information() {
        // attr 1 ("v") is unbounded in both the box and the domain, so the
        // volume is attr 0's ratio alone
        let set = set_with(100.0, vec![pc_box(0.0, 100.0), pc_box(0.0, 25.0)]);
        let est = Estimates::for_set(&set);
        assert_eq!(est.entries()[0].volume, 1.0);
        assert_eq!(est.entries()[1].volume, 0.25);
        assert!(
            (est.score(0) - 0.5).abs() < 1e-12,
            "full box, empty history"
        );
        assert!((est.score(1) - 0.125).abs() < 1e-12);
    }

    #[test]
    fn survival_history_reorders() {
        let set = set_with(100.0, vec![pc_box(0.0, 60.0), pc_box(0.0, 50.0)]);
        let est = Estimates::for_set(&set);
        assert_eq!(est.order(), vec![1, 0]);
        // observe constraint 0's branches dying constantly
        let ordering = SplitOrdering::from_estimates(&est);
        for _ in 0..50 {
            ordering.record_split(0, 0);
            ordering.record_split(1, 2);
        }
        est.publish(&ordering);
        assert_eq!(est.order(), vec![0, 1], "history outweighs geometry");
    }

    #[test]
    fn deltas_touch_only_their_entry() {
        let set = set_with(100.0, vec![pc_box(0.0, 60.0), pc_box(0.0, 50.0)]);
        let est = Estimates::for_set(&set);
        let ordering = SplitOrdering::from_estimates(&est);
        ordering.record_split(0, 1);
        est.publish(&ordering);

        let mut bigger = set.clone();
        bigger.push(pc_box(20.0, 25.0));
        let added = est.derive_add(&bigger);
        assert_eq!(added.len(), 3);
        // the new entry is exactly a fresh one
        assert_eq!(
            added.entries()[2].volume,
            Estimates::for_set(&bigger).entries()[2].volume
        );
        assert_eq!(added.entries()[2].survival.splits(), 0);
        // the surviving entries share their counters with the old table
        assert_eq!(added.entries()[0].survival.splits(), 2);
        assert!(Arc::ptr_eq(
            &added.entries()[0].survival,
            &est.entries()[0].survival
        ));

        let retired = added.derive_retire(1);
        assert_eq!(retired.len(), 2);
        assert!(Arc::ptr_eq(
            &retired.entries()[1].survival,
            &added.entries()[2].survival
        ));
    }

    #[test]
    fn restriction_shares_counters() {
        let set = set_with(
            100.0,
            vec![pc_box(0.0, 60.0), pc_box(0.0, 50.0), pc_box(5.0, 6.0)],
        );
        let est = Estimates::for_set(&set);
        let sub = est.restrict(&[2, 0]);
        assert_eq!(sub.len(), 2);
        // publishing against the restriction lands in the global counters
        let ordering = SplitOrdering::from_estimates(&sub);
        ordering.record_split(0, 2);
        sub.publish(&ordering);
        assert_eq!(est.entries()[2].survival.splits(), 2);
        assert_eq!(est.entries()[0].survival.splits(), 0);
    }

    #[test]
    fn tripped_stage_is_simply_dropped() {
        let set = set_with(100.0, vec![pc_box(0.0, 60.0), pc_box(0.0, 50.0)]);
        let est = Estimates::for_set(&set);
        let ordering = SplitOrdering::from_estimates(&est);
        ordering.record_split(0, 0);
        // caller saw a tripped budget: never publishes
        drop(ordering);
        assert_eq!(est.entries()[0].survival.splits(), 0);
        assert!((est.entries()[0].survival.rate() - 0.5).abs() < 1e-12);
    }
}
