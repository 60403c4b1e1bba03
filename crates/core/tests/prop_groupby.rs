//! Property-based tests for GROUP-BY: for arbitrary overlapping
//! constraint sets, every group's bound (keyed queries fanned out over
//! the pool, each reach-scoped) must equal the bound the reference
//! engine — flat, declaration-order, sequential — computes for that
//! key's query on its own: same ranges, same closure verdicts, same
//! per-group errors.

use pc_core::{
    BoundEngine, BoundOptions, FrequencyConstraint, GroupBound, MilpOptions, PcSet,
    PredicateConstraint, ValueConstraint, Warmth,
};
use pc_predicate::{Atom, AttrType, Interval, Predicate, Region, Schema};
use pc_storage::{AggKind, AggQuery};
use proptest::prelude::*;

/// Group codes 0..=GMAX on attribute 0, values 0..=VMAX on attribute 1.
const GMAX: i64 = 7;
const VMAX: i64 = 30;

fn schema() -> Schema {
    Schema::new(vec![("g", AttrType::Cat), ("v", AttrType::Int)])
}

prop_compose! {
    /// A constraint over a random (group, value) box, with a value range
    /// and an upper frequency bound — sometimes also a lower bound.
    fn arb_pc()(
        a in 0..=GMAX, b in 0..=GMAX,
        c in 0..=VMAX, d in 0..=VMAX,
        ku in 1u64..8,
        forced: bool,
    ) -> PredicateConstraint {
        let (glo, ghi) = (a.min(b) as f64, a.max(b) as f64);
        let (vlo, vhi) = (c.min(d) as f64, c.max(d) as f64);
        let freq = if forced {
            FrequencyConstraint::between(1, ku)
        } else {
            FrequencyConstraint::at_most(ku)
        };
        PredicateConstraint::new(
            Predicate::always()
                .and(Atom::between(0, glo, ghi + 1.0))
                .and(Atom::between(1, vlo, vhi + 1.0)),
            ValueConstraint::none().with(1, Interval::closed(vlo, vhi)),
            freq,
        )
    }
}

fn build_set(pcs: Vec<PredicateConstraint>) -> PcSet {
    let mut set = PcSet::new(schema());
    let mut domain = Region::full(set.schema());
    domain.set_interval(0, Interval::closed(0.0, GMAX as f64));
    domain.set_interval(1, Interval::closed(0.0, VMAX as f64));
    for pc in pcs {
        set.push(pc);
    }
    set.set_domain(domain);
    set
}

/// The reference answer of every key: its keyed query (`query` with
/// `g = key` conjoined) bounded on its own by the flat, declaration-order,
/// sequential engine.
fn reference(set: &PcSet, query: &AggQuery, keys: &[f64]) -> Vec<GroupBound> {
    let engine = BoundEngine::with_options(
        set,
        BoundOptions {
            shard: false,
            threads: 1,
            ordering: false,
            ..BoundOptions::default()
        },
    );
    keys.iter()
        .map(|&key| {
            let predicate = query.predicate.clone().and(Atom::eq(0, key));
            GroupBound {
                key,
                report: engine.bound(&AggQuery::new(query.agg, query.attr, predicate)),
            }
        })
        .collect()
}

fn reports_equal(a: &GroupBound, b: &GroupBound) -> Result<(), String> {
    if a.key != b.key {
        return Err(format!("key mismatch: {} vs {}", a.key, b.key));
    }
    match (&a.report, &b.report) {
        (Ok(x), Ok(y)) => {
            // 1e-5, not 1e-6: the allocation B&B (parallel by default on
            // the pool) may prune a node tying the incumbent within its
            // 1e-6 tolerance in one run and explore it in the other
            let lo_ok = (x.range.lo - y.range.lo).abs() < 1e-5
                || (x.range.lo.is_infinite() && x.range.lo == y.range.lo);
            let hi_ok = (x.range.hi - y.range.hi).abs() < 1e-5
                || (x.range.hi.is_infinite() && x.range.hi == y.range.hi);
            if !lo_ok || !hi_ok {
                return Err(format!(
                    "key {}: [{}, {}] vs [{}, {}]",
                    a.key, x.range.lo, x.range.hi, y.range.lo, y.range.hi
                ));
            }
            if x.closed != y.closed {
                return Err(format!(
                    "key {}: closed {} vs {}",
                    a.key, x.closed, y.closed
                ));
            }
            Ok(())
        }
        (Err(x), Err(y)) if x == y => Ok(()),
        (x, y) => Err(format!("key {}: {:?} vs {:?}", a.key, x, y)),
    }
}

proptest! {
    #![proptest_config(ProptestConfig::with_cases(48))]

    #[test]
    fn group_by_equals_keyed_reference(
        pcs in prop::collection::vec(arb_pc(), 1..6),
        agg_pick in 0usize..5,
        qa in 0..=GMAX, qb in 0..=GMAX,
    ) {
        let agg = [AggKind::Sum, AggKind::Count, AggKind::Avg, AggKind::Min, AggKind::Max][agg_pick];
        let set = build_set(pcs);
        // a base query restricting the group range exercises pushdown
        // interplay (partially covered groups, relaxed lower bounds)
        let (qlo, qhi) = (qa.min(qb) as f64, qa.max(qb) as f64);
        let query = AggQuery::new(
            agg,
            1,
            Predicate::atom(Atom::between(0, qlo, qhi + 1.0)),
        );
        let keys: Vec<f64> = (0..=GMAX).map(|k| k as f64).collect();

        let groups = BoundEngine::new(&set).bound_group_by(&query, 0, keys.clone());
        let want = reference(&set, &query, &keys);

        prop_assert_eq!(groups.len(), want.len());
        for (s, b) in groups.iter().zip(&want) {
            if let Err(msg) = reports_equal(s, b) {
                return Err(TestCaseError::fail(msg));
            }
        }
    }

    #[test]
    fn parallel_groups_equal_sequential(
        pcs in prop::collection::vec(arb_pc(), 1..5),
        threads in 2usize..7,
    ) {
        let set = build_set(pcs);
        let query = AggQuery::new(AggKind::Sum, 1, Predicate::always());
        let keys: Vec<f64> = (0..=GMAX).map(|k| k as f64).collect();
        let sequential = BoundEngine::with_options(&set, BoundOptions {
            threads: 1,
            ..BoundOptions::default()
        })
        .bound_group_by(&query, 0, keys.clone());
        let parallel = BoundEngine::with_options(&set, BoundOptions {
            threads,
            ..BoundOptions::default()
        })
        .bound_group_by(&query, 0, keys.clone());
        prop_assert_eq!(sequential.len(), parallel.len());
        for (s, p) in sequential.iter().zip(&parallel) {
            if let Err(msg) = reports_equal(s, p) {
                return Err(TestCaseError::fail(msg));
            }
        }
    }

    #[test]
    fn warm_start_never_changes_bounds(
        pcs in prop::collection::vec(arb_pc(), 1..5),
        agg_pick in 0usize..5,
        lp_limit in 0usize..2,
    ) {
        let agg = [AggKind::Sum, AggKind::Count, AggKind::Avg, AggKind::Min, AggKind::Max][agg_pick];
        let set = build_set(pcs);
        let query = AggQuery::new(agg, 1, Predicate::always());
        let keys: Vec<f64> = (0..=GMAX).map(|k| k as f64).collect();
        // lp_limit 0 forces the warm-startable LP path for every solve
        let lp_relax_cell_limit = if lp_limit == 0 { 0 } else { 150 };
        let warm = BoundEngine::with_options(&set, BoundOptions {
            lp_relax_cell_limit,
            ..BoundOptions::default()
        })
        .bound_group_by(&query, 0, keys.clone());
        let cold = BoundEngine::with_options(&set, BoundOptions {
            lp_relax_cell_limit,
            milp: MilpOptions { warmth: Warmth::Cold, ..MilpOptions::default() },
            ..BoundOptions::default()
        })
        .bound_group_by(&query, 0, keys.clone());
        for (w, c) in warm.iter().zip(&cold) {
            if let Err(msg) = reports_equal(w, c) {
                return Err(TestCaseError::fail(msg));
            }
        }
    }
}

prop_compose! {
    /// A *key-local* constraint: the group attribute pinned to one key
    /// (a per-group floor/cap).
    fn arb_local_pc()(
        g in 0..=GMAX,
        c in 0..=VMAX, d in 0..=VMAX,
        ku in 1u64..8,
        forced: bool,
    ) -> PredicateConstraint {
        let (vlo, vhi) = (c.min(d) as f64, c.max(d) as f64);
        let freq = if forced {
            FrequencyConstraint::between(1, ku)
        } else {
            FrequencyConstraint::at_most(ku)
        };
        PredicateConstraint::new(
            Predicate::always()
                .and(Atom::eq(0, g as f64))
                .and(Atom::between(1, vlo, vhi + 1.0)),
            ValueConstraint::none().with(1, Interval::closed(vlo, vhi)),
            freq,
        )
    }
}

proptest! {
    #![proptest_config(ProptestConfig::with_cases(48))]

    /// GROUP-BY == the keyed reference on key-local-heavy sets: mostly
    /// (or entirely) key-pinned constraints, optionally mixed with a few
    /// cross-cutting ones, so most keys' slices reach only their own
    /// constraints plus the cross-cutting ones.
    #[test]
    fn group_by_equals_keyed_reference_on_key_local_heavy_sets(
        locals in prop::collection::vec(arb_local_pc(), 2..7),
        shared in prop::collection::vec(arb_pc(), 0..3),
        agg_pick in 0usize..5,
    ) {
        let agg = [AggKind::Sum, AggKind::Count, AggKind::Avg, AggKind::Min, AggKind::Max][agg_pick];
        let set = build_set(locals.into_iter().chain(shared).collect());
        let query = AggQuery::new(agg, 1, Predicate::always());
        let keys: Vec<f64> = (0..=GMAX).map(|k| k as f64).collect();

        let groups = BoundEngine::new(&set).bound_group_by(&query, 0, keys.clone());
        let want = reference(&set, &query, &keys);

        prop_assert_eq!(groups.len(), want.len());
        for (t, p) in groups.iter().zip(&want) {
            if let Err(msg) = reports_equal(t, p) {
                return Err(TestCaseError::fail(msg));
            }
        }
    }
}
