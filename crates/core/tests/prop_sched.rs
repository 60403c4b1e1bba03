//! Scheduling must never move an answer.
//!
//! Deadlines and the admission ladder are *scheduling* features: they
//! decide how much work a query is allowed, never what a given amount
//! of work computes. Two properties pin that contract:
//!
//! 1. **Armed/unarmed equivalence** — the same queries on the same set
//!    produce bit-identical bounds whether a far-future deadline is
//!    armed or no deadline at all. A deadline that never trips must not
//!    move a bound by even one bit.
//! 2. **Admission soundness** — a query the gauge degrades at admission
//!    or sheds outright still answers, and its (wider) range contains
//!    the exact range. The ladder only ever widens; see §4.3's
//!    early-stop argument.

use pc_core::{
    AdmissionVerdict, BoundOptions, FrequencyConstraint, PcSet, PredicateConstraint, QueryBudget,
    Session, SessionOptions, TripReason, ValueConstraint,
};
use pc_predicate::{Atom, AttrType, Interval, Predicate, Region, Schema};
use pc_storage::{AggKind, AggQuery};
use proptest::prelude::*;
use std::time::Duration;

const GMAX: i64 = 4;

fn schema() -> Schema {
    Schema::new(vec![("g", AttrType::Int), ("v", AttrType::Int)])
}

fn domain() -> Region {
    let mut d = Region::full(&schema());
    d.set_interval(0, Interval::closed(0.0, GMAX as f64));
    d
}

/// Overlapping buckets on `g` (same shape as `prop_budget.rs`): overlap
/// makes the decomposition split and the LPs pivot, so the fan-out has
/// real stealable tasks for the scheduler to reorder.
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

fn batch(q_lo: i64, q_hi: i64) -> Vec<AggQuery> {
    let qpred = Predicate::atom(Atom::between(
        0,
        q_lo.min(q_hi) as f64,
        q_lo.max(q_hi) as f64,
    ));
    [AggKind::Count, AggKind::Sum, AggKind::Min, AggKind::Max]
        .into_iter()
        .map(|agg| AggQuery::new(agg, 1, qpred.clone()))
        .collect()
}

fn session_with(set: &PcSet, admission: bool) -> Session {
    Session::with_options(
        set.clone(),
        SessionOptions {
            bound: BoundOptions {
                threads: 4,
                ..BoundOptions::default()
            },
            cache_cells: true,
            incremental: true,
            admission,
        },
    )
}

/// `outer` must contain `inner` (up to LP tolerance).
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
    #![proptest_config(ProptestConfig::with_cases(48))]

    /// The same batch with a far-future deadline and with no deadline at
    /// all returns bit-identical bounds, flags included. A far deadline
    /// never trips, so any difference would be the deadline changing an
    /// answer, which it must never do.
    #[test]
    fn armed_and_unarmed_serve_bit_identical_bounds(
        raw in prop::collection::vec(arb_pc(), 1..4),
        q_lo in 0..=GMAX, q_hi in 0..=GMAX,
    ) {
        let set = build_set(&raw);
        let queries = batch(q_lo, q_hi);
        // Admission off in both runs, so only the deadline differs.
        let mut oracle: Option<Vec<Result<_, _>>> = None;
        for armed in [true, false] {
            let session = session_with(&set, false);
            let budget = if armed {
                QueryBudget::armed().with_timeout(Duration::from_secs(3600))
            } else {
                QueryBudget::unlimited()
            };
            let got = session.bound_many_stamped(&queries, &budget).1;
            prop_assert!(!budget.is_tripped(), "a far-future deadline must not trip");
            match &oracle {
                None => oracle = Some(got),
                Some(base) => {
                    for (i, (b, g)) in base.iter().zip(&got).enumerate() {
                        match (b, g) {
                            (Ok(b), Ok(g)) => {
                                prop_assert_eq!(
                                    (b.range.lo, b.range.hi, b.degraded, b.closed),
                                    (g.range.lo, g.range.hi, g.degraded, g.closed),
                                    "query {} (armed={}): the deadline moved a bound",
                                    i, armed
                                );
                            }
                            (Err(b), Err(g)) => {
                                prop_assert_eq!(
                                    b.to_string(), g.to_string(),
                                    "query {}: error class must not depend on the deadline", i
                                );
                            }
                            _ => return Err(TestCaseError::fail(format!(
                                "query {i} (armed={armed}): Ok/Err disagreement"
                            ))),
                        }
                    }
                }
            }
        }
    }

    /// A calibrated gauge judging already-expired deadlines walks the
    /// ladder down to early-degraded and shed — and every one of those
    /// answers still contains the exact range. Shedding changes *how
    /// much* work a query gets, never the soundness of what it returns.
    #[test]
    fn shed_and_early_degraded_answers_contain_the_exact_range(
        raw in prop::collection::vec(arb_pc(), 1..4),
        q_lo in 0..=GMAX, q_hi in 0..=GMAX,
    ) {
        let set = build_set(&raw);
        let session = session_with(&set, true);
        let queries = batch(q_lo, q_hi);

        // Unlimited calls bypass admission: this is the exact oracle. It
        // runs on a second session, so the calibration batches below run
        // their exact rung here instead of taking its answers from the
        // epoch's memo.
        let oracle = session_with(&set, true).bound_many(&queries);

        // Calibrate the gauge's exact EWMA with generously-deadlined
        // batches (they admit exact and complete).
        for _ in 0..2 {
            let warm = QueryBudget::armed().with_timeout(Duration::from_secs(3600));
            let _ = session.bound_many_stamped(&queries, &warm).1;
        }

        // Now arrivals whose deadline has already passed: the first
        // round degrades at admission (the exact estimate no longer
        // fits), which calibrates the degraded EWMA, and later rounds
        // shed. Every answer must stay sound.
        for round in 0..3 {
            let expired = QueryBudget::armed().with_timeout(Duration::ZERO);
            let got = session.bound_many_stamped(&queries, &expired).1;
            for (i, (exact, g)) in oracle.iter().zip(&got).enumerate() {
                let exact = match exact {
                    Ok(r) => r,
                    // No exact range to contain (empty/infeasible): the
                    // degraded run may legitimately answer or error.
                    Err(_) => continue,
                };
                let g = match g {
                    Ok(r) => r,
                    Err(e) => return Err(TestCaseError::fail(format!(
                        "round {round} query {i}: an admitted-then-degraded query \
                         must answer, not error: {e}"
                    ))),
                };
                assert_contains(
                    (g.range.lo, g.range.hi),
                    (exact.range.lo, exact.range.hi),
                    &format!("round {round} query {i}"),
                )?;
                prop_assert!(
                    g.sched.is_some(),
                    "round {round} query {i}: admission must stamp a SchedReport"
                );
            }
        }

        // Verdict sanity: once the gauge has a real exact estimate, a
        // zero-slack arrival can never be admitted exact — the rounds
        // above must have degraded-at-admission or shed. (Guarded on the
        // calibration actually being coarse enough to survive the
        // cost-factor clamp's worst case.)
        let stats = session.pressure().stats();
        if stats.ewma_exact >= Duration::from_micros(20) {
            prop_assert!(
                stats.admitted_degraded + stats.shed > 0,
                "calibrated gauge at zero slack must degrade or shed (stats: {stats:?})"
            );
        }
    }
}

/// A session GROUP-BY is admitted once for the whole call, and every key
/// runs that verdict's rung through the serve path: each key of a
/// deadline-armed call reports the call's `SchedReport`, and a key the
/// gauge degrades or sheds says so (`degraded`, tripped by the deadline)
/// while still answering from the primed epoch cache — finite, and
/// containing the unlimited answer.
#[test]
fn group_by_keys_carry_the_calls_admission_outcome() {
    let pc = |g_lo, g_hi, v_lo, v_hi, k_lo, k_hi| RawPc {
        g_lo,
        g_hi,
        v_lo,
        v_hi,
        k_lo,
        k_hi,
    };
    let set = build_set(&[
        pc(0, 2, 1, 7, 1, 6),
        pc(1, 3, 0, 5, 0, 9),
        pc(2, 4, 2, 4, 0, 5),
    ]);
    let session = session_with(&set, true);
    session.cell_set().expect("the epoch cache builds");
    let base = AggQuery::new(AggKind::Sum, 1, Predicate::always());
    let keys: Vec<f64> = (0..=GMAX).map(|k| k as f64).collect();
    let unlimited = session.bound_group_by(&base, 0, keys.clone());

    // Calibrate the gauge with generously deadlined calls.
    for _ in 0..3 {
        let warm = QueryBudget::armed().with_timeout(Duration::from_secs(3600));
        for group in session
            .bound_group_by_stamped(&base, 0, keys.clone(), &warm)
            .1
        {
            let report = group.report.expect("a 1 h deadline answers every key");
            assert!(
                report.sched.is_some(),
                "key {}: a deadline-armed key carries the call's SchedReport",
                group.key
            );
        }
    }

    // Expired deadlines: the calibrated gauge degrades, then sheds.
    let mut not_exact = 0;
    for round in 0..3 {
        let expired = QueryBudget::armed().with_timeout(Duration::ZERO);
        let groups = session
            .bound_group_by_stamped(&base, 0, keys.clone(), &expired)
            .1;
        for (want, got) in unlimited.iter().zip(&groups) {
            let key = got.key;
            let want = want.report.as_ref().expect("every key has an exact range");
            let got = got.report.as_ref().expect("a degraded key still answers");
            let sched = got
                .sched
                .expect("a deadline-armed key carries a SchedReport");
            if sched.verdict == AdmissionVerdict::Exact {
                continue;
            }
            not_exact += 1;
            let ctx = format!("round {round} key {key} ({:?})", sched.verdict);
            assert!(got.degraded, "{ctx}: not flagged degraded");
            assert_eq!(got.trip, Some(TripReason::Deadline), "{ctx}");
            assert!(
                got.range.lo.is_finite() && got.range.hi.is_finite(),
                "{ctx}: {:?} must stay finite",
                got.range
            );
            assert!(
                got.range.lo <= want.range.lo + 1e-9 && got.range.hi >= want.range.hi - 1e-9,
                "{ctx}: {:?} must contain the unlimited {:?}",
                got.range,
                want.range
            );
        }
    }
    assert!(
        not_exact > 0,
        "a calibrated gauge at zero slack must degrade or shed ({:?})",
        session.pressure().stats()
    );
}
