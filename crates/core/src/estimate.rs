//! Box-volume search order.
//!
//! Every search in the engine can run in **declaration order**:
//! decomposition explores include/exclude splits in catalog order, branch
//! & bound branches on the first most-fractional variable. On skewed
//! catalogs that pays for the *unselective* splits first — the branches
//! that almost never die — and prunes late. Under
//! [`crate::BoundOptions::ordering`] the searches decide the most
//! selective constraint first instead, judged by one number per
//! constraint:
//!
//! * **normalized box volume** ([`volume`]) — the product over attributes
//!   of the constraint's allowed-box width divided by the domain width
//!   (an unbounded or degenerate domain axis contributes 1.0). Pure
//!   geometry, O(attrs) per constraint.
//!
//! The order is a pure function of the set being searched
//! ([`volume_order`]): ascending volume, ties by index. Nothing is
//! learned or kept between runs, so a bound does the same work however
//! often, and after whatever else, its engine or session has bounded.
//! Each consumer computes the volumes where it uses them, over the set it
//! searches: the decomposition DFS order, the allocation MILP's per-cell
//! branch weights (`2 − Π volume` over a cell's active constraints), and
//! a session's admission cost factor. A sub-set (one interaction
//! component, or the constraints a query reaches) keeps its catalog's
//! schema and domain, so its members' volumes — and their relative order
//! — are the catalog's.
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
//! lattice). Property-tested in `tests/prop_ordering.rs`.

use crate::{PcSet, PredicateConstraint};
use pc_predicate::Interval;

/// Normalized allowed-box volume of `pc` over `set`'s domain, in
/// `[0, 1]`: smaller = more selective = decided earlier. Each axis reads
/// the interval of [`PredicateConstraint::allowed_region`] without
/// building the region, so a volume costs no allocation.
pub fn volume(set: &PcSet, pc: &PredicateConstraint) -> f64 {
    let domain = set.domain();
    (0..domain.width())
        .map(|a| {
            let allowed = pc
                .predicate
                .interval_for(a)
                .intersect(&pc.values.interval_for(a));
            width_ratio(&allowed, domain.interval(a))
        })
        .product()
}

/// The [`volume`] of every constraint of `set`, in constraint-index order.
pub fn volumes(set: &PcSet) -> Vec<f64> {
    set.constraints().iter().map(|pc| volume(set, pc)).collect()
}

/// The decision order of `set`: constraint indices ascending by
/// [`volume`], ties by index (a stable sort of the index order). Two runs
/// over the same set produce the same order, which is what keeps
/// sequential and parallel decomposition bit-identical.
pub fn volume_order(set: &PcSet) -> Vec<usize> {
    let volumes = volumes(set);
    let mut order: Vec<usize> = (0..volumes.len()).collect();
    order.sort_by(|&a, &b| volumes[a].total_cmp(&volumes[b]));
    order
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
        let v = volumes(&set);
        assert!(v[1] < v[2]);
        assert!(v[2] < v[0]);
        // most selective first
        assert_eq!(volume_order(&set), vec![1, 2, 0]);
    }

    #[test]
    fn volume_reads_the_allowed_region() {
        // the predicate and a value range narrow the same axis; a value
        // cap narrows the unbounded one
        let pc = PredicateConstraint::new(
            Predicate::atom(Atom::bucket(0, 10.0, 60.0)),
            ValueConstraint::none()
                .with(0, Interval::closed(20.0, 90.0))
                .with(1, Interval::closed(0.0, 5.0)),
            FrequencyConstraint::at_most(10),
        );
        let set = set_with(100.0, vec![pc.clone()]);
        let allowed = pc.allowed_region(set.schema());
        let from_region: f64 = (0..allowed.width())
            .map(|a| width_ratio(allowed.interval(a), set.domain().interval(a)))
            .product();
        assert_eq!(volume(&set, &pc), from_region);
        assert_eq!(volume(&set, &pc), 0.4 * 0.5);
    }

    #[test]
    fn unbounded_axes_contribute_no_information() {
        // attr 1 ("v") is unbounded in both the box and the domain, so the
        // volume is attr 0's ratio alone
        let set = set_with(100.0, vec![pc_box(0.0, 100.0), pc_box(0.0, 25.0)]);
        let v = volumes(&set);
        assert_eq!(v[0], 1.0);
        assert_eq!(v[1], 0.25);
    }
}
