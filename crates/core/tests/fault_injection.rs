//! Recovery from *real* unwinds and stalls, injected inside the engine
//! (`--features fault`; see `pc_budget::fault`).
//!
//! These tests prove the serving layer's three recovery stories against
//! genuine panics rather than simulated `Err`s:
//!
//! 1. **Per-query isolation** — a panic in one of a batch's queries
//!    fails that query alone ([`BoundError::Panicked`]); its 15 siblings
//!    return the same ranges they do without the fault.
//! 2. **No lasting poison** — after a panicked solve (mid-simplex-pivot,
//!    the worst spot), the very next query on the same session answers
//!    exactly; torn warm-start state is dropped, never replayed.
//! 3. **Deadline over straggler** — a solver stall does not hang a
//!    budgeted call; the deadline trips at the next cooperative check
//!    and the call returns degraded-but-sound.
//! 4. **Nothing held across an unwind** — a mutation that panics
//!    mid-derivation installs nothing and leaves the catalog mutable,
//!    and a query that panics after admission gives its charge back to
//!    the session's pressure gauge.
//!
//! The fault registry is process-global, so every test serializes on one
//! mutex and disarms in a drop guard (a failing test must not leak its
//! plan into the next).

#![cfg(feature = "fault")]

use pc_core::budget::fault::{self, Plan};
use pc_core::{
    BoundEngine, BoundError, BoundOptions, FrequencyConstraint, PcSet, PredicateConstraint,
    QueryBudget, Session, SessionOptions, TripReason, ValueConstraint,
};
use pc_predicate::{Atom, AttrType, Interval, Predicate, Region, Schema};
use pc_storage::{AggKind, AggQuery};
use std::panic::{catch_unwind, AssertUnwindSafe};
use std::sync::atomic::{AtomicU64, Ordering};
use std::sync::{Mutex, MutexGuard};
use std::time::{Duration, Instant};

static FAULT_LOCK: Mutex<()> = Mutex::new(());

/// Serialize on the global registry and guarantee a clean slate on both
/// ends, even when the test body panics.
fn armed_section() -> (MutexGuard<'static, ()>, DisarmOnDrop) {
    let guard = FAULT_LOCK.lock().unwrap_or_else(|p| p.into_inner());
    fault::disarm_all();
    (guard, DisarmOnDrop)
}

struct DisarmOnDrop;
impl Drop for DisarmOnDrop {
    fn drop(&mut self) {
        fault::disarm_all();
    }
}

fn schema() -> Schema {
    Schema::new(vec![("g", AttrType::Int), ("v", AttrType::Int)])
}

/// Overlapping buckets on `g`: the decomposition must split and
/// SAT-probe, which is where `sat::probe` lives, and the resulting cells
/// overlap enough that the allocation LPs pivot, which is where
/// `simplex::pivot` lives.
fn overlapping_set() -> PcSet {
    let mut set = PcSet::new(schema());
    let mut d = Region::full(&schema());
    d.set_interval(0, Interval::closed(0.0, 8.0));
    d.set_interval(1, Interval::closed(0.0, 20.0));
    set.set_domain(d);
    for i in 0..6 {
        let lo = i as f64;
        set.push(PredicateConstraint::new(
            Predicate::atom(Atom::between(0, lo, lo + 3.0)),
            ValueConstraint::none().with(1, Interval::closed(0.0, 10.0 + lo)),
            FrequencyConstraint::between(1, 5 + i as u64),
        ));
    }
    // catch-all so the set is closed over the domain — without it every
    // range is [-inf, inf] and no allocation LP ever runs (nothing for
    // `simplex::pivot` to interrupt)
    set.push(PredicateConstraint::new(
        Predicate::always(),
        ValueConstraint::none().with(1, Interval::closed(0.0, 20.0)),
        FrequencyConstraint::at_most(32),
    ));
    set
}

fn session(threads: usize, cache_cells: bool) -> Session {
    Session::with_options(
        overlapping_set(),
        SessionOptions {
            bound: BoundOptions {
                threads,
                ..BoundOptions::default()
            },
            cache_cells,
            incremental: true,
            ..SessionOptions::default()
        },
    )
}

/// Sixteen window queries, each cutting the overlap differently.
fn sixteen_queries() -> Vec<AggQuery> {
    (0..16)
        .map(|i| {
            let lo = (i % 8) as f64 * 0.75;
            let agg = if i % 2 == 0 {
                AggKind::Count
            } else {
                AggKind::Sum
            };
            AggQuery::new(agg, 1, Predicate::atom(Atom::between(0, lo, lo + 2.5)))
        })
        .collect()
}

#[test]
fn injected_panic_fails_exactly_one_of_sixteen_batch_queries() {
    let (_guard, _disarm) = armed_section();
    // cache_cells off: every query decomposes inside its own pool task,
    // so the injected probe panic unwinds inside exactly one task's
    // catch boundary — nothing shared is mid-flight when it fires.
    let s = session(4, false);
    let queries = sixteen_queries();
    let oracle = s.bound_many(&queries);
    assert!(oracle.iter().all(|r| r.is_ok()), "fixture must be clean");

    fault::arm("sat::probe", Plan::PanicAfter(0));
    let faulted = s.bound_many(&queries);

    let panicked: Vec<usize> = faulted
        .iter()
        .enumerate()
        .filter(|(_, r)| matches!(r, Err(BoundError::Panicked)))
        .map(|(i, _)| i)
        .collect();
    assert_eq!(
        panicked.len(),
        1,
        "one armed fault fires once and takes down exactly one query (got {panicked:?})"
    );
    for (i, (exact, got)) in oracle.iter().zip(&faulted).enumerate() {
        if i == panicked[0] {
            continue;
        }
        let (exact, got) = (exact.as_ref().unwrap(), got.as_ref().unwrap());
        assert_eq!(
            (exact.range.lo, exact.range.hi),
            (got.range.lo, got.range.hi),
            "query {i}: siblings of the panicked query must be untouched"
        );
        assert!(
            !got.degraded,
            "a sibling is not degraded, it is simply fine"
        );
    }

    // The session survives: re-running the dead query alone answers
    // exactly (the fired plan disarmed itself).
    let replay = s
        .bound(&queries[panicked[0]])
        .expect("session must recover");
    let exact = oracle[panicked[0]].as_ref().unwrap();
    assert_eq!(
        (replay.range.lo, replay.range.hi),
        (exact.range.lo, exact.range.hi)
    );
}

#[test]
fn panicked_pivot_leaves_no_torn_warm_state_behind() {
    let (_guard, _disarm) = armed_section();
    let s = session(1, true);
    let q = AggQuery::new(AggKind::Sum, 1, Predicate::always());

    // Panic deep inside the very first solve's simplex — mid-pivot, with
    // the tableau torn and half-built warm/cell state in flight.
    fault::arm("simplex::pivot", Plan::PanicAfter(0));
    let unwound = catch_unwind(AssertUnwindSafe(|| s.bound(&q)));
    assert!(unwound.is_err(), "the injected pivot panic must surface");

    // Next query on the same session: the torn state was dropped, the
    // chain rebuilds cold, the answer matches a never-faulted session's.
    let after = s
        .bound(&q)
        .expect("session must answer after a panicked solve");
    let exact = session(1, true).bound(&q).expect("clean fixture");
    assert_eq!(
        (after.range.lo, after.range.hi),
        (exact.range.lo, exact.range.hi)
    );
    assert!(!after.degraded);
}

#[test]
fn stalled_sat_probe_is_cut_by_the_deadline_not_waited_out() {
    let (_guard, _disarm) = armed_section();
    let s = session(1, false);
    let q = AggQuery::new(AggKind::Count, 1, Predicate::always());
    let exact = s.bound(&q).expect("fixture must be clean");

    // One probe stalls for 300ms against a 20ms deadline. The stall
    // itself is not interruptible (cooperative cancellation), but the
    // very next check after it must trip — the call returns degraded in
    // roughly one stall, instead of probing the remaining cells at
    // 300ms each.
    fault::arm(
        "sat::probe",
        Plan::StallAfter(0, Duration::from_millis(300)),
    );
    let budget = QueryBudget::armed().with_timeout(Duration::from_millis(20));
    let t0 = Instant::now();
    let r = s
        .bound_ticketed_stamped(&q, &budget, None)
        .1
        .expect("a deadline degrades, never errors");
    let elapsed = t0.elapsed();

    assert_eq!(budget.trip_reason(), Some(TripReason::Deadline));
    assert!(r.degraded, "a deadline trip must be reported");
    assert!(
        r.range.lo <= exact.range.lo && r.range.hi >= exact.range.hi,
        "degraded [{}, {}] must contain exact [{}, {}]",
        r.range.lo,
        r.range.hi,
        exact.range.lo,
        exact.range.hi
    );
    assert!(
        elapsed < Duration::from_secs(2),
        "stall must not be paid once per remaining probe (took {elapsed:?})"
    );
}

/// Hook installed on the pool's steal path (`rayon/fault`): counts the
/// sweeps and routes through the process-global fault registry, so a
/// test can stall a worker *mid-steal* — a straggler in the scheduler
/// itself rather than in the solver.
static STEAL_SWEEPS: AtomicU64 = AtomicU64::new(0);

fn steal_hook() {
    STEAL_SWEEPS.fetch_add(1, Ordering::Relaxed);
    fault::point("pool::steal");
}

struct UnhookOnDrop;
impl Drop for UnhookOnDrop {
    fn drop(&mut self) {
        rayon::fault::set_steal_hook(None);
    }
}

#[test]
fn stalled_worker_mid_steal_does_not_hang_a_deadline_batch() {
    let (_guard, _disarm) = armed_section();
    let s = session(4, false);
    let queries = sixteen_queries();
    let oracle = s.bound_many(&queries);
    assert!(oracle.iter().all(|r| r.is_ok()), "fixture must be clean");

    // A worker reaches the steal path and sleeps 250ms on the spot,
    // against a 50ms batch deadline. Nothing can preempt a sleeping
    // worker; the recovery story is that the *other* workers keep
    // draining the batch's tasks: the batch still answers, every result
    // is sound, and the call is bounded by roughly one stall — never a
    // hang, never a per-task re-payment of the stall.
    rayon::fault::set_steal_hook(Some(steal_hook));
    let _unhook = UnhookOnDrop;
    fault::arm(
        "pool::steal",
        Plan::StallAfter(0, Duration::from_millis(250)),
    );

    let budget = QueryBudget::armed().with_timeout(Duration::from_millis(50));
    let t0 = Instant::now();
    let results = s.bound_many_stamped(&queries, &budget).1;
    let elapsed = t0.elapsed();

    assert!(
        elapsed < Duration::from_secs(5),
        "a single stalled steal must not cascade (took {elapsed:?})"
    );
    for (i, (exact, got)) in oracle.iter().zip(&results).enumerate() {
        let exact = exact.as_ref().unwrap();
        let got = got
            .as_ref()
            .expect("a stalled worker degrades answers, never errors them");
        assert!(
            got.range.lo <= exact.range.lo && got.range.hi >= exact.range.hi,
            "query {i}: [{}, {}] must contain exact [{}, {}]",
            got.range.lo,
            got.range.hi,
            exact.range.lo,
            exact.range.hi
        );
    }
    if rayon::current_num_threads() > 1 {
        assert!(
            STEAL_SWEEPS.load(Ordering::Relaxed) > 0,
            "a multi-worker pool must have swept the steal path"
        );
    }

    // Recovery: hook off, registry clean — the same session answers the
    // same batch exactly again, nothing lingers from the stall.
    rayon::fault::set_steal_hook(None);
    fault::disarm_all();
    let after = s.bound_many(&queries);
    for (exact, got) in oracle.iter().zip(&after) {
        let (exact, got) = (exact.as_ref().unwrap(), got.as_ref().unwrap());
        assert_eq!(
            (exact.range.lo, exact.range.hi),
            (got.range.lo, got.range.hi),
            "after disarm the session must answer exactly again"
        );
        assert!(!got.degraded);
    }
}

/// `s` answers every query as a fresh engine over its current catalog does
/// (up to the solver tolerance).
fn assert_matches_fresh(s: &Session, queries: &[AggQuery]) {
    let set = s.pc_set();
    let engine = BoundEngine::new(&set);
    for (i, q) in queries.iter().enumerate() {
        let want = engine.bound(q).expect("fixture bounds every query");
        let got = s.bound(q).expect("the session answers every query");
        let close = |a: f64, b: f64| a == b || (a - b).abs() < 1e-6;
        assert!(
            close(want.range.lo, got.range.lo) && close(want.range.hi, got.range.hi),
            "query {i}: session [{}, {}] vs fresh engine [{}, {}]",
            got.range.lo,
            got.range.hi,
            want.range.lo,
            want.range.hi
        );
    }
}

#[test]
fn panicked_mutation_leaves_the_catalog_mutable() {
    let (_guard, _disarm) = armed_section();
    let s = session(1, true);
    let queries = sixteen_queries();
    // Build epoch 0's cells, so the add below derives its epoch from them.
    s.bound_many(&queries);
    let ids = s.constraint_ids();
    let pc = |cap: u64| {
        PredicateConstraint::new(
            Predicate::atom(Atom::between(0, 2.0, 5.0)),
            ValueConstraint::none().with(1, Interval::closed(0.0, 12.0)),
            FrequencyConstraint::at_most(cap),
        )
    };

    // Panic inside the add's incremental derivation, with the session's
    // mutation lock held.
    fault::arm("sat::probe", Plan::PanicAfter(0));
    let unwound = catch_unwind(AssertUnwindSafe(|| s.add_constraint(pc(9))));
    assert!(unwound.is_err(), "the injected probe panic must surface");
    fault::disarm_all();
    // Nothing was installed: the catalog is the one before the add.
    assert_eq!(s.epoch(), 0);
    assert_eq!(s.constraint_ids(), ids);
    assert_matches_fresh(&s, &queries);

    // Every kind of mutation still lands, and each new epoch answers as
    // a fresh engine on its catalog does.
    let added = s.add_constraint(pc(9));
    assert_matches_fresh(&s, &queries);
    s.retire_constraint(ids[0]).expect("a live id retires");
    assert_matches_fresh(&s, &queries);
    s.replace_constraint(added, pc(4))
        .expect("a live id is replaced");
    assert_matches_fresh(&s, &queries);
    assert_eq!(s.epoch(), 3);
}

#[test]
fn panicked_admitted_query_releases_its_gauge_charge() {
    let (_guard, _disarm) = armed_section();
    // cache_cells off: every query decomposes, so `sat::probe` fires
    // inside the query's own run.
    let s = session(1, false);
    let q = AggQuery::new(AggKind::Sum, 1, Predicate::always());
    let budget = || QueryBudget::armed().with_timeout(Duration::from_secs(3600));
    // Calibrate the gauge: admitted exact and completed, so later
    // arrivals are charged a nonzero service estimate.
    for _ in 0..3 {
        s.bound_ticketed_stamped(&q, &budget(), None)
            .1
            .expect("fixture must be clean");
    }
    assert_eq!(s.pressure().backlog(), Duration::ZERO);

    // Judged at arrival (a ticket from `admit`, as `pc serve` does) and
    // judged at run start (no ticket): the panicked run settles either.
    for ticketed in [true, false] {
        let b = budget();
        let ticket = if ticketed { s.admit(&q, &b) } else { None };
        if ticketed {
            assert!(
                s.pressure().backlog() > Duration::ZERO,
                "a calibrated gauge charges the arrival"
            );
        }
        fault::arm("sat::probe", Plan::PanicAfter(0));
        let unwound = catch_unwind(AssertUnwindSafe(|| {
            s.bound_ticketed_stamped(&q, &b, ticket)
        }));
        assert!(
            unwound.is_err(),
            "ticketed={ticketed}: the panic must surface"
        );
        assert_eq!(
            s.pressure().backlog(),
            Duration::ZERO,
            "ticketed={ticketed}: the panicked run must give its charge back"
        );
    }
}
