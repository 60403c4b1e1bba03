//! Soundness of graceful degradation under a [`QueryBudget`].
//!
//! The budget layer's contract (mirroring §4.3's early-stop argument): a
//! tripped budget may only *widen* a result range, never exclude the
//! exact one. We generate random constraint sets and throttle the engine
//! with random SAT-probe and branch-and-bound node caps — including
//! cap 0, which degrades every site the pipeline has — and check every
//! degraded range contains the unlimited oracle's range. A second
//! property pins the cancellation path: a budget cancelled before the
//! call still answers, degraded and sound, and reports `Cancelled`.
//!
//! Oracle-vs-truth soundness (the unlimited engine contains the real
//! aggregate) is `prop_bounds.rs`'s job; here the unlimited range *is*
//! the oracle.

use pc_core::{
    BoundEngine, BoundError, BoundOptions, FrequencyConstraint, PcSet, PredicateConstraint,
    QueryBudget, Session, SessionOptions, TripReason, ValueConstraint,
};
use pc_predicate::{Atom, AttrType, Interval, Predicate, Region, Schema};
use pc_storage::{AggKind, AggQuery};
use proptest::prelude::*;

const GMAX: i64 = 4;

fn schema() -> Schema {
    Schema::new(vec![("g", AttrType::Int), ("v", AttrType::Int)])
}

fn domain() -> Region {
    let mut d = Region::full(&schema());
    d.set_interval(0, Interval::closed(0.0, GMAX as f64));
    d
}

/// A raw overlapping constraint: bucket range on `g`, value range on `v`,
/// frequency window. Overlap between buckets is the point — it is what
/// makes the decomposition split, probe SAT, and hand the budget
/// something to interrupt.
#[derive(Debug, Clone)]
struct RawPc {
    g_lo: i64,
    g_hi: i64,
    v_lo: i64,
    v_hi: i64,
    k_lo: u64,
    k_hi: u64,
}

prop_compose! {
    fn arb_pc()(
        a in 0..=GMAX, b in 0..=GMAX,
        v1 in 0i64..8, v2 in 0i64..8,
        k in 0u64..4, k_extra in 0u64..6,
    ) -> RawPc {
        RawPc {
            g_lo: a.min(b),
            g_hi: a.max(b),
            v_lo: v1.min(v2),
            v_hi: v1.max(v2),
            k_lo: k,
            k_hi: k + k_extra,
        }
    }
}

fn build_set(raw: &[RawPc]) -> PcSet {
    let mut set = PcSet::new(schema());
    set.set_domain(domain());
    for r in raw {
        set.push(PredicateConstraint::new(
            Predicate::atom(Atom::between(0, r.g_lo as f64, r.g_hi as f64)),
            ValueConstraint::none().with(1, Interval::closed(r.v_lo as f64, r.v_hi as f64)),
            FrequencyConstraint::between(r.k_lo, r.k_hi),
        ));
    }
    set
}

/// `inner` must be inside `outer` (up to LP tolerance). Infinite ends
/// compare by `<=`, so a degraded `[-inf, inf]` contains everything.
fn assert_contains(outer: (f64, f64), inner: (f64, f64), ctx: &str) -> Result<(), TestCaseError> {
    prop_assert!(
        outer.0 <= inner.0 + 1e-9 && outer.1 >= inner.1 - 1e-9,
        "{ctx}: degraded [{}, {}] must contain exact [{}, {}]",
        outer.0,
        outer.1,
        inner.0,
        inner.1
    );
    Ok(())
}

proptest! {
    #![proptest_config(ProptestConfig::with_cases(64))]

    /// Any cap, any aggregate: the throttled engine's range contains the
    /// unlimited engine's range, and `degraded` tracks the trip exactly.
    #[test]
    fn degraded_ranges_contain_the_exact_range(
        raw in prop::collection::vec(arb_pc(), 1..4),
        sat_cap in 0u64..12,
        node_cap in 0u64..12,
        q_lo in 0..=GMAX, q_hi in 0..=GMAX,
    ) {
        let set = build_set(&raw);
        let engine = BoundEngine::new(&set);
        let qpred = Predicate::atom(Atom::between(0, q_lo.min(q_hi) as f64, q_lo.max(q_hi) as f64));
        for agg in [AggKind::Count, AggKind::Sum, AggKind::Avg, AggKind::Min, AggKind::Max] {
            let query = AggQuery::new(agg, 1, qpred.clone());
            let exact = match engine.bound(&query) {
                Ok(r) => r,
                // Empty: no missing row can match; Infeasible: the random
                // set is contradictory. Either way there is no exact range
                // for a widened answer to contain — a budgeted run may
                // legitimately degrade past the proof (admitting unsat
                // cells is the soundness argument, §4.3), so skip.
                Err(BoundError::EmptyAggregate) | Err(BoundError::Infeasible) => continue,
                Err(e) => return Err(TestCaseError::fail(format!("oracle error: {e}"))),
            };
            let budget = QueryBudget::armed().with_sat_cap(sat_cap).with_node_cap(node_cap);
            match engine.bound_budgeted(&query, &budget) {
                Ok(r) => {
                    assert_contains(
                        (r.range.lo, r.range.hi),
                        (exact.range.lo, exact.range.hi),
                        &format!("{agg:?} sat_cap={sat_cap} node_cap={node_cap}"),
                    )?;
                    prop_assert_eq!(
                        r.degraded, budget.is_tripped(),
                        "{:?}: degraded flag must track the trip", agg
                    );
                }
                Err(e) => return Err(TestCaseError::fail(format!(
                    "{agg:?}: budget must degrade, not error (oracle was Ok): {e}"
                ))),
            }
        }
    }

    /// A budget cancelled before the call behaves like any other trip:
    /// the query answers immediately with a sound (maximally wide)
    /// range, reports `Cancelled`, and a batch on the same cancelled
    /// budget answers *every* query the same way.
    #[test]
    fn cancelled_budgets_still_answer_every_query_soundly(
        raw in prop::collection::vec(arb_pc(), 1..4),
        q_lo in 0..=GMAX, q_hi in 0..=GMAX,
    ) {
        let set = build_set(&raw);
        let qpred = Predicate::atom(Atom::between(0, q_lo.min(q_hi) as f64, q_lo.max(q_hi) as f64));
        let queries: Vec<AggQuery> = [AggKind::Count, AggKind::Sum, AggKind::Min]
            .into_iter()
            .map(|agg| AggQuery::new(agg, 1, qpred.clone()))
            .collect();

        let session = Session::with_options(
            set.clone(),
            SessionOptions {
                bound: BoundOptions { threads: 1, ..BoundOptions::default() },
                cache_cells: true,
                incremental: true,
                ..SessionOptions::default()
            },
        );
        let oracle = session.bound_many(&queries);

        let budget = QueryBudget::armed().with_sat_cap(u64::MAX);
        budget.cancel_token().unwrap().cancel();
        prop_assert_eq!(budget.trip_reason(), Some(TripReason::Cancelled));
        let degraded = session.bound_many_stamped(&queries, &budget).1;

        prop_assert_eq!(oracle.len(), degraded.len());
        for ((q, exact), deg) in queries.iter().zip(&oracle).zip(&degraded) {
            match (exact, deg) {
                (Ok(e), Ok(d)) => {
                    assert_contains(
                        (d.range.lo, d.range.hi),
                        (e.range.lo, e.range.hi),
                        &format!("{:?} cancelled", q.agg),
                    )?;
                    prop_assert!(d.degraded, "{:?}: cancelled answer must be marked", q.agg);
                }
                // widening may turn a provably-empty or provably-
                // infeasible aggregate into a (sound) range, never the
                // other way around
                (Err(BoundError::EmptyAggregate), _) | (Err(BoundError::Infeasible), _) => {}
                (Ok(_), Err(e)) => return Err(TestCaseError::fail(format!(
                    "{:?}: cancellation must degrade, not error: {e}", q.agg
                ))),
                (Err(e), _) => return Err(TestCaseError::fail(format!("oracle error: {e}"))),
            }
        }
    }
}
