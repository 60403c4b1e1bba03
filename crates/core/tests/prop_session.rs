//! Property-based tests for the session layer: for arbitrary overlapping
//! constraint sets and arbitrary queries, a [`Session`]'s
//! specialize-from-cache answer must equal a from-scratch
//! [`BoundEngine::bound`] of the same query — same ranges, same closure
//! verdicts, same errors — with or without the cell cache, in batches,
//! and across repeated queries (warm-start chains must never drift).

use pc_core::{
    BoundEngine, BoundError, BoundOptions, FrequencyConstraint, PcSet, PredicateConstraint,
    Session, SessionOptions, ValueConstraint,
};
use pc_predicate::{Atom, AttrType, Interval, Predicate, Region, Schema};
use pc_storage::{AggKind, AggQuery};
use proptest::prelude::*;

/// Attribute 0 spans 0..=XMAX, attribute 1 (the aggregated value)
/// 0..=VMAX.
const XMAX: i64 = 10;
const VMAX: i64 = 30;

fn schema() -> Schema {
    Schema::new(vec![("x", AttrType::Int), ("v", AttrType::Int)])
}

prop_compose! {
    /// A constraint over a random (x, v) box with a value range and an
    /// upper frequency bound — sometimes also a lower bound.
    fn arb_pc()(
        a in 0..=XMAX, b in 0..=XMAX,
        c in 0..=VMAX, d in 0..=VMAX,
        ku in 1u64..8,
        forced: bool,
    ) -> PredicateConstraint {
        let (xlo, xhi) = (a.min(b) as f64, a.max(b) as f64);
        let (vlo, vhi) = (c.min(d) as f64, c.max(d) as f64);
        let freq = if forced {
            FrequencyConstraint::between(1, ku)
        } else {
            FrequencyConstraint::at_most(ku)
        };
        PredicateConstraint::new(
            Predicate::always()
                .and(Atom::between(0, xlo, xhi + 1.0))
                .and(Atom::between(1, vlo, vhi + 1.0)),
            ValueConstraint::none().with(1, Interval::closed(vlo, vhi)),
            freq,
        )
    }
}

prop_compose! {
    /// A random aggregate query over a random x-range.
    fn arb_query()(
        agg_pick in 0usize..5,
        a in 0..=XMAX, b in 0..=XMAX,
        full: bool,
    ) -> AggQuery {
        let agg = [AggKind::Sum, AggKind::Count, AggKind::Avg, AggKind::Min, AggKind::Max][agg_pick];
        let predicate = if full {
            Predicate::always()
        } else {
            let (lo, hi) = (a.min(b) as f64, a.max(b) as f64);
            Predicate::atom(Atom::between(0, lo, hi + 1.0))
        };
        AggQuery::new(agg, 1, predicate)
    }
}

fn build_set(pcs: Vec<PredicateConstraint>) -> PcSet {
    let mut set = PcSet::new(schema());
    let mut domain = Region::full(set.schema());
    domain.set_interval(0, Interval::closed(0.0, XMAX as f64));
    domain.set_interval(1, Interval::closed(0.0, VMAX as f64));
    for pc in pcs {
        set.push(pc);
    }
    set.set_domain(domain);
    set
}

fn results_equal(
    q: &AggQuery,
    a: &Result<pc_core::BoundReport, BoundError>,
    b: &Result<pc_core::BoundReport, BoundError>,
) -> Result<(), String> {
    match (a, b) {
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
                    "{q:?}: fresh [{}, {}] vs session [{}, {}]",
                    x.range.lo, x.range.hi, y.range.lo, y.range.hi
                ));
            }
            if x.closed != y.closed {
                return Err(format!("{q:?}: closed {} vs {}", x.closed, y.closed));
            }
            Ok(())
        }
        (Err(x), Err(y)) if x == y => Ok(()),
        (x, y) => Err(format!("{q:?}: {x:?} vs {y:?}")),
    }
}

proptest! {
    #![proptest_config(ProptestConfig::with_cases(48))]

    /// Session-specialized bounds == fresh-decomposition bounds on random
    /// queries — the tentpole's exactness claim.
    #[test]
    fn session_equals_fresh_engine(
        pcs in prop::collection::vec(arb_pc(), 1..6),
        qs in prop::collection::vec(arb_query(), 1..5),
    ) {
        let set = build_set(pcs);
        let engine = BoundEngine::new(&set);
        let session = Session::new(set.clone());
        for q in &qs {
            let fresh = engine.bound(q);
            let served = session.bound(q);
            if let Err(msg) = results_equal(q, &fresh, &served) {
                return Err(TestCaseError::fail(msg));
            }
        }
    }

    /// The cache knob is semantics-free: cache on == cache off, and a
    /// batch equals one-at-a-time serving in input order.
    #[test]
    fn bound_many_and_cache_knob_are_semantics_free(
        pcs in prop::collection::vec(arb_pc(), 1..5),
        qs in prop::collection::vec(arb_query(), 1..6),
    ) {
        let set = build_set(pcs);
        let cached = Session::new(set.clone());
        let uncached = Session::with_options(set, SessionOptions {
            cache_cells: false,
            ..SessionOptions::default()
        });
        let batch = cached.bound_many(&qs);
        prop_assert_eq!(batch.len(), qs.len());
        for (q, got) in qs.iter().zip(&batch) {
            let cold = uncached.bound(q);
            if let Err(msg) = results_equal(q, &cold, got) {
                return Err(TestCaseError::fail(msg));
            }
        }
    }

    /// Serving the same query repeatedly through one session never
    /// drifts (warm-start chains and the shared cell cache are
    /// result-invariant).
    #[test]
    fn repeated_serving_is_stable(
        pcs in prop::collection::vec(arb_pc(), 1..5),
        q in arb_query(),
        threads in 1usize..5,
    ) {
        let set = build_set(pcs);
        let session = Session::with_options(set, SessionOptions {
            bound: BoundOptions { threads, ..BoundOptions::default() },
            ..SessionOptions::default()
        });
        let first = session.bound(&q);
        for _ in 0..3 {
            // A repeat on one epoch is a memo hit. Swapping a constraint
            // for a copy of itself keeps the catalog and starts a fresh
            // epoch, so each repeat solves again through the session's
            // warm-start chains and derived cells.
            let id = session.constraint_ids()[0];
            let pc = session.pc_set().constraints()[0].clone();
            session.replace_constraint(id, pc).expect("a live id is replaced");
            let again = session.bound(&q);
            if let Err(msg) = results_equal(&q, &first, &again) {
                return Err(TestCaseError::fail(msg));
            }
        }
    }
}
