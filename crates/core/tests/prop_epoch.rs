//! Property tests for the versioned session: over arbitrary add / retire
//! / replace sequences, every incrementally derived epoch must equal a
//! **fresh full decomposition** of the materialized catalog — the same
//! cells (signatures *and* regions), genuine witnesses, the same closure
//! verdict, and the same query bounds — sequentially and with the
//! multi-worker engine knobs (the CI `test-multicore` job additionally
//! runs the whole file under a pinned 4-worker pool). A separate test
//! pins an epoch mid-`bound_many` while the catalog churns and asserts
//! the whole batch is answered by exactly one epoch's oracle (snapshot
//! isolation).

use pc_core::{
    decompose, BoundEngine, BoundError, BoundOptions, ConstraintId, FrequencyConstraint, PcSet,
    PredicateConstraint, Session, SessionOptions, Strategy, ValueConstraint,
};
use pc_predicate::{Atom, AttrType, Interval, Predicate, Region, Schema};
use pc_storage::{AggKind, AggQuery};
use proptest::prelude::*;
use std::sync::Arc;

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

/// One catalog mutation; retire/replace targets are picked by index seed
/// into the live-id list at application time.
#[derive(Debug, Clone)]
enum Op {
    Add(PredicateConstraint),
    Retire(usize),
    Replace(usize, PredicateConstraint),
}

prop_compose! {
    /// Adds weighted over retires over replaces (the catalog must grow to
    /// make later retires interesting).
    fn arb_op()(
        pick in 0usize..6,
        seed in 0usize..8,
        pc in arb_pc(),
    ) -> Op {
        match pick {
            0..=2 => Op::Add(pc),
            3 | 4 => Op::Retire(seed),
            _ => Op::Replace(seed, pc),
        }
    }
}

prop_compose! {
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

/// Apply `op` to the session, resolving index seeds against the live ids.
/// Returns false when the op degenerates to a no-op (nothing to retire).
fn apply(session: &Session, op: &Op) -> bool {
    let live: Vec<ConstraintId> = session.constraint_ids();
    match op {
        Op::Add(pc) => {
            session.add_constraint(pc.clone());
            true
        }
        Op::Retire(seed) => {
            if live.is_empty() {
                return false;
            }
            session
                .retire_constraint(live[seed % live.len()])
                .expect("live id retires");
            true
        }
        Op::Replace(seed, pc) => {
            if live.is_empty() {
                return false;
            }
            session
                .replace_constraint(live[seed % live.len()], pc.clone())
                .expect("live id replaces");
            true
        }
    }
}

/// The tentpole invariant: the session's (derived) epoch equals a fresh
/// full decomposition of the materialized catalog — cells, witnesses,
/// closure verdict.
fn epoch_equals_fresh(session: &Session) -> Result<(), TestCaseError> {
    let set = session.pc_set();
    let cells = session.cell_set().expect("decomposable catalog");
    let (fresh, _) = decompose(&set, set.domain(), Strategy::DfsRewrite).expect("fresh oracle");
    let shape = |cells: &[pc_core::Cell]| -> Vec<(Vec<usize>, Region)> {
        let mut out: Vec<_> = cells
            .iter()
            .map(|c| (c.active.to_vec(), (*c.region).clone()))
            .collect();
        out.sort_by(|a, b| a.0.cmp(&b.0));
        out
    };
    let (derived, oracle) = (shape(cells.cells()), shape(&fresh));
    prop_assert_eq!(derived, oracle, "epoch {} cells diverge", session.epoch());
    for cell in cells.cells() {
        let w = cell
            .witness
            .as_ref()
            .expect("exact strategy carries witnesses");
        prop_assert!(cell.region.contains_row(w));
        for (j, pc) in set.constraints().iter().enumerate() {
            prop_assert_eq!(pc.predicate.eval(w), cell.is_active(j));
        }
    }
    // closure verdict and counterexample validity
    let closed = set.is_closed_within(set.domain());
    prop_assert_eq!(cells.closed(), closed, "closure verdict diverges");
    if let Some(w) = cells.uncovered() {
        prop_assert!(set.domain().contains_row(w));
        for pc in set.constraints() {
            prop_assert!(!pc.predicate.eval(w), "counterexample is covered");
        }
    }
    Ok(())
}

fn results_equal(
    q: &AggQuery,
    a: &Result<pc_core::BoundReport, BoundError>,
    b: &Result<pc_core::BoundReport, BoundError>,
) -> Result<(), String> {
    match (a, b) {
        (Ok(x), Ok(y)) => {
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
    #![proptest_config(ProptestConfig::with_cases(32))]

    /// Random add/retire/replace sequences: after every mutation the
    /// derived epoch equals a fresh decomposition and serves the same
    /// bounds as a fresh engine on the materialized catalog. Each query
    /// is asked twice per epoch, so the epoch's memo hits face the same
    /// oracle as the runs that stored them.
    #[test]
    fn incremental_epochs_equal_fresh_decomposition(
        pcs in prop::collection::vec(arb_pc(), 1..4),
        ops in prop::collection::vec(arb_op(), 1..5),
        qs in prop::collection::vec(arb_query(), 1..3),
    ) {
        let session = Session::new(build_set(pcs));
        // prime epoch 0 so every mutation derives incrementally
        session.cell_set().expect("decomposable seed");
        epoch_equals_fresh(&session)?;
        for op in &ops {
            if !apply(&session, op) {
                continue;
            }
            epoch_equals_fresh(&session)?;
            let set = session.pc_set();
            let engine = BoundEngine::new(&set);
            for q in qs.iter().chain(&qs) {
                if let Err(msg) = results_equal(q, &engine.bound(q), &session.bound(q)) {
                    return Err(TestCaseError::fail(msg));
                }
            }
        }
    }

    /// The incremental knob is semantics-free: a rebuild-per-epoch
    /// session answers every query identically through the same churn.
    #[test]
    fn rebuild_ablation_is_semantics_free(
        pcs in prop::collection::vec(arb_pc(), 1..4),
        ops in prop::collection::vec(arb_op(), 1..4),
        q in arb_query(),
    ) {
        let fast = Session::new(build_set(pcs.clone()));
        let slow = Session::with_options(build_set(pcs), SessionOptions {
            incremental: false,
            ..SessionOptions::default()
        });
        fast.cell_set().expect("decomposable seed");
        slow.cell_set().expect("decomposable seed");
        for op in &ops {
            apply(&fast, op);
            apply(&slow, op);
            if let Err(msg) = results_equal(&q, &slow.bound(&q), &fast.bound(&q)) {
                return Err(TestCaseError::fail(msg));
            }
        }
    }

    /// Churn under the multi-worker engine knobs: the pinned pool's
    /// parallel witness search / batch fan-out never changes epochs'
    /// answers.
    #[test]
    fn churn_is_stable_across_thread_counts(
        pcs in prop::collection::vec(arb_pc(), 1..4),
        ops in prop::collection::vec(arb_op(), 1..4),
        qs in prop::collection::vec(arb_query(), 1..4),
        threads in 1usize..5,
    ) {
        let session = Session::with_options(build_set(pcs), SessionOptions {
            bound: BoundOptions { threads, ..BoundOptions::default() },
            ..SessionOptions::default()
        });
        session.cell_set().expect("decomposable seed");
        for op in &ops {
            if !apply(&session, op) {
                continue;
            }
            let set = session.pc_set();
            let engine = BoundEngine::new(&set);
            let batch = session.bound_many(&qs);
            for (q, got) in qs.iter().zip(&batch) {
                if let Err(msg) = results_equal(q, &engine.bound(q), got) {
                    return Err(TestCaseError::fail(msg));
                }
            }
        }
    }
}

/// Snapshot isolation: a batch launched concurrently with a mutation is
/// answered entirely by one epoch — either everything sees the catalog
/// before the add, or everything sees it after, never a mix.
#[test]
fn bound_many_pins_exactly_one_epoch_under_mutation() {
    let mut seed = build_set(vec![]);
    seed.push(PredicateConstraint::new(
        Predicate::always().and(Atom::between(0, 0.0, 11.0)),
        ValueConstraint::none().with(1, Interval::closed(0.0, 10.0)),
        FrequencyConstraint::at_most(20),
    ));
    let session = Arc::new(Session::new(seed));
    session.cell_set().unwrap();
    let queries: Vec<AggQuery> = (0..24)
        .map(|i| {
            let lo = (i % 8) as f64;
            let q = Predicate::atom(Atom::between(0, lo, lo + 3.0));
            if i % 2 == 0 {
                AggQuery::count(q)
            } else {
                AggQuery::new(AggKind::Sum, 1, q)
            }
        })
        .collect();
    // the mutation tightens every count, so the two epochs' oracles are
    // distinguishable on every query
    let extra = PredicateConstraint::new(
        Predicate::always().and(Atom::between(0, 0.0, 11.0)),
        ValueConstraint::none().with(1, Interval::closed(0.0, 10.0)),
        FrequencyConstraint::at_most(7),
    );
    let before = session.pc_set();
    let worker = {
        let session = Arc::clone(&session);
        let queries = queries.clone();
        std::thread::spawn(move || session.bound_many(&queries))
    };
    session.add_constraint(extra);
    let after = session.pc_set();
    let results = worker.join().unwrap();

    let oracle = |set: &PcSet| -> Vec<Result<pc_core::BoundReport, BoundError>> {
        let engine = BoundEngine::new(set);
        queries.iter().map(|q| engine.bound(q)).collect()
    };
    let matches = |oracle: &[Result<pc_core::BoundReport, BoundError>]| {
        queries
            .iter()
            .zip(&results)
            .zip(oracle)
            .all(|((q, got), want)| results_equal(q, want, got).is_ok())
    };
    let matches_before = matches(&oracle(&before));
    let matches_after = matches(&oracle(&after));
    assert!(
        matches_before || matches_after,
        "batch mixed epochs: matches neither the pre- nor post-mutation oracle"
    );
    // sanity: the two oracles really do differ on this workload
    assert_ne!(
        oracle(&before)
            .iter()
            .map(|r| r.as_ref().map(|b| b.range).map_err(|_| ()))
            .collect::<Vec<_>>(),
        oracle(&after)
            .iter()
            .map(|r| r.as_ref().map(|b| b.range).map_err(|_| ()))
            .collect::<Vec<_>>(),
        "mutation must be observable for the pinning test to mean anything"
    );
}
