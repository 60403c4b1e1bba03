//! Property-based tests for the interval algebra and the cell SAT solver.
//!
//! The SAT solver is verified against a brute-force rasterization oracle:
//! over a small discrete grid, `base ∧ ¬ψ₁ ∧ … ∧ ¬ψₖ` is satisfiable iff
//! some grid point of `base` avoids every `ψⱼ`. On discrete (Int) domains
//! the grid enumeration is exhaustive, so the oracle is exact. Up to a
//! dozen exclusions over three attributes drive the search several levels
//! deep, so it narrows and restores intervals and re-partitions its
//! exclusions many times per case.

use pc_budget::{QueryBudget, WorkGate};
use pc_predicate::{sat, Atom, AttrType, Interval, IntervalSet, Predicate, Region, Schema};
use proptest::prelude::*;

const GRID: i64 = 8;

fn int_schema(width: usize) -> Schema {
    Schema::new(
        (0..width)
            .map(|i| (format!("a{i}"), AttrType::Int))
            .collect(),
    )
}

prop_compose! {
    /// A random sub-interval of [0, GRID] with random endpoint openness.
    fn arb_interval()(a in 0..=GRID, b in 0..=GRID, lo_open: bool, hi_open: bool) -> Interval {
        let (lo, hi) = if a <= b { (a, b) } else { (b, a) };
        Interval::new(lo as f64, lo_open, hi as f64, hi_open)
    }
}

prop_compose! {
    fn arb_predicate(width: usize)(
        atoms in prop::collection::vec((0..width, arb_interval()), 0..3)
    ) -> Predicate {
        Predicate::new(atoms.into_iter().map(|(attr, iv)| Atom::new(attr, iv)).collect())
    }
}

prop_compose! {
    /// A predicate with at least one atom: an excluded tautology refutes
    /// every cell at the first level, so deep-search properties draw their
    /// exclusions from here.
    fn arb_exclusion(width: usize)(
        atoms in prop::collection::vec((0..width, arb_interval()), 1..4)
    ) -> Predicate {
        Predicate::new(atoms.into_iter().map(|(attr, iv)| Atom::new(attr, iv)).collect())
    }
}

/// Exhaustive oracle over the integer grid [0, GRID]^width.
fn oracle_sat(base: &Region, negs: &[&Predicate], width: usize) -> bool {
    let mut idx = vec![0i64; width];
    loop {
        let row: Vec<f64> = idx.iter().map(|v| *v as f64).collect();
        if base.contains_row(&row) && negs.iter().all(|p| !p.eval(&row)) {
            return true;
        }
        // odometer increment
        let mut k = 0;
        loop {
            if k == width {
                return false;
            }
            idx[k] += 1;
            if idx[k] <= GRID {
                break;
            }
            idx[k] = 0;
            k += 1;
        }
    }
}

proptest! {
    #[test]
    fn sat_matches_grid_oracle(
        base_pred in arb_predicate(3),
        negs in prop::collection::vec(arb_exclusion(3), 0..12)
    ) {
        let schema = int_schema(3);
        let mut base = base_pred.to_region(&schema);
        // confine the base to the oracle's grid so both sides see the same
        // universe
        for attr in 0..3 {
            base.intersect_atom(&Atom::between(attr, 0.0, GRID as f64));
        }
        let neg_refs: Vec<&Predicate> = negs.iter().collect();
        let got = sat::is_sat(&base, &neg_refs);
        let want = oracle_sat(&base, &neg_refs, 3);
        prop_assert_eq!(got, want);
    }

    #[test]
    fn witness_is_genuine(
        base_pred in arb_predicate(3),
        negs in prop::collection::vec(arb_exclusion(3), 0..12)
    ) {
        let schema = int_schema(3);
        let base = base_pred.to_region(&schema);
        let neg_refs: Vec<&Predicate> = negs.iter().collect();
        if let Some(w) = sat::find_witness(&base, &neg_refs) {
            prop_assert!(base.contains_row(&w));
            for p in &neg_refs {
                prop_assert!(!p.eval(&w), "witness satisfies an excluded predicate");
            }
        }
    }

    /// The parallel witness search agrees with the sequential one on the
    /// *verdict* (the witness row itself is first-hit-wins and may
    /// differ), and its witnesses are genuine. The eager gate and
    /// exclusion lists above `PAR_WITNESS_CUTOFF` keep the fan-out path
    /// live on multi-worker pools; on a one-worker pool the call degrades
    /// to sequential, so the property holds on any host.
    #[test]
    fn parallel_witness_search_matches_sequential(
        base_pred in arb_predicate(3),
        negs in prop::collection::vec(arb_predicate(3), 0..10)
    ) {
        let schema = int_schema(3);
        let base = base_pred.to_region(&schema);
        let neg_refs: Vec<&Predicate> = negs.iter().collect();
        let seq = sat::find_witness(&base, &neg_refs);
        let par = sat::find_witness_gated(
            &base,
            &neg_refs,
            WorkGate::start(true),
            &QueryBudget::unlimited(),
        )
        .witness();
        prop_assert_eq!(seq.is_some(), par.is_some(), "SAT verdict must not depend on parallelism");
        if let Some(w) = par {
            prop_assert!(base.contains_row(&w));
            for p in &neg_refs {
                prop_assert!(!p.eval(&w), "parallel witness satisfies an excluded predicate");
            }
        }
    }

    /// The per-axis overlap test agrees with building the intersection.
    #[test]
    fn overlaps_matches_intersection(a in arb_predicate(3), b in arb_predicate(3)) {
        let schema = int_schema(3);
        let (a, b) = (a.to_region(&schema), b.to_region(&schema));
        prop_assert_eq!(a.overlaps(&b), !a.intersected(&b).is_empty());
    }

    #[test]
    fn intersect_is_conjunction(a in arb_interval(), b in arb_interval(), v in 0..=GRID) {
        let v = v as f64;
        let both = a.contains(v) && b.contains(v);
        prop_assert_eq!(a.intersect(&b).contains(v), both);
    }

    #[test]
    fn complement_partitions_line_int(iv in arb_interval(), v in 0..=GRID) {
        let v = v as f64;
        let in_iv = iv.normalize(AttrType::Int).contains(v);
        let in_comp = iv
            .complement(AttrType::Int)
            .iter()
            .any(|c| c.contains(v));
        prop_assert!(in_iv ^ in_comp, "every point is in exactly one side");
    }

    #[test]
    fn complement_partitions_line_float(iv in arb_interval(), num in -20i32..40, den in 1i32..4) {
        let v = f64::from(num) / f64::from(den);
        let in_iv = iv.contains(v);
        let in_comp = iv
            .complement(AttrType::Float)
            .iter()
            .any(|c| c.contains(v));
        prop_assert!(in_iv ^ in_comp);
    }

    #[test]
    fn interval_set_union_semantics(
        ivs in prop::collection::vec(arb_interval(), 0..6),
        v in 0..=GRID
    ) {
        let v = v as f64;
        let direct = ivs.iter().any(|iv| iv.normalize(AttrType::Int).contains(v));
        let set = IntervalSet::from_intervals(ivs.clone(), AttrType::Int);
        prop_assert_eq!(set.contains(v), direct);
        // pieces are pairwise disjoint and sorted
        let pieces = set.pieces();
        for w in pieces.windows(2) {
            prop_assert!(w[0].hi < w[1].lo, "pieces must be disjoint and sorted");
        }
    }

    #[test]
    fn interval_set_subtract_semantics(
        ivs in prop::collection::vec(arb_interval(), 1..5),
        cut in arb_interval(),
        v in 0..=GRID
    ) {
        let v = v as f64;
        let set = IntervalSet::from_intervals(ivs, AttrType::Int);
        let sub = set.subtract_interval(&cut, AttrType::Int);
        let want = set.contains(v) && !cut.normalize(AttrType::Int).contains(v);
        prop_assert_eq!(sub.contains(v), want);
    }

    #[test]
    fn containment_agrees_with_membership(a in arb_interval(), b in arb_interval()) {
        if a.contains_interval(&b, AttrType::Int) {
            for v in 0..=GRID {
                let v = v as f64;
                if b.normalize(AttrType::Int).contains(v) {
                    prop_assert!(a.contains(v));
                }
            }
        }
    }
}
