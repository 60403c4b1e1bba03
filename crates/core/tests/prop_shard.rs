//! Property tests for sharded decomposition: over random catalogs mixing
//! tile-disjoint and cross-cutting constraints, every bound the sharded
//! engine computes (all five aggregates, arbitrary query regions,
//! GROUP-BY, and sessions under random mutation sequences) must equal the
//! unsharded oracle (`BoundOptions { shard: false }`) — the factoring
//! theorem is that connected components of the constraint-interaction
//! graph decompose and allocate independently. Some generated constraints
//! admit no row at all, so `Infeasible` verdicts are compared too. A
//! fault-feature test checks the isolation story: a budget trip inside
//! one shard's build degrades only that shard's contribution, and a skew
//! unit test checks the quantile re-ordering of heavy shards never moves
//! a bound.

use pc_core::{
    BoundEngine, BoundError, BoundOptions, ConstraintId, FrequencyConstraint, PcSet,
    PredicateConstraint, QueryBudget, Session, SessionOptions, ValueConstraint,
    SHARD_RESPLIT_THRESHOLD,
};
use pc_predicate::{Atom, AttrType, Interval, Predicate, Region, Schema};
use pc_storage::{AggKind, AggQuery};
use proptest::prelude::*;

/// Three tiles of width 4 on the x axis: [0,4), [4,8), [8,12).
const TILE: i64 = 4;
const TILES: i64 = 3;
const XMAX: i64 = TILE * TILES;
const VMAX: i64 = 20;

fn schema() -> Schema {
    Schema::new(vec![("x", AttrType::Int), ("v", AttrType::Int)])
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

fn pc_on(xlo: f64, xhi: f64, vlo: f64, vhi: f64, forced: bool, ku: u64) -> PredicateConstraint {
    let freq = if forced {
        FrequencyConstraint::between(1, ku)
    } else {
        FrequencyConstraint::at_most(ku)
    };
    PredicateConstraint::new(
        Predicate::always()
            .and(Atom::between(0, xlo, xhi))
            .and(Atom::between(1, vlo, vhi)),
        ValueConstraint::none().with(1, Interval::closed(vlo, vhi - 1.0)),
        freq,
    )
}

prop_compose! {
    /// A constraint whose x-box usually stays inside one tile (so random
    /// catalogs tend to factor into several interaction components) but
    /// sometimes spans tiles (merging components — the hard case).
    fn arb_pc()(
        tile in 0..TILES,
        a in 0..TILE, b in 0..TILE,
        c in 0..=VMAX, d in 0..=VMAX,
        ku in 1u64..8,
        forced: bool,
        cross in 0usize..10,
        stray in 0usize..20,
    ) -> PredicateConstraint {
        let (vlo, vhi) = (c.min(d) as f64, c.max(d) as f64 + 1.0);
        let mut pc = if cross < 3 {
            // cross-cutting: an arbitrary span that may bridge tiles
            let (xlo, xhi) = (
                (tile * TILE + a.min(b)) as f64,
                (tile * TILE + a.max(b)) as f64 + TILE as f64,
            );
            pc_on(xlo, xhi.min(XMAX as f64), vlo, vhi, forced, ku)
        } else {
            // tile-local: x-box inside tile `tile`
            let (xlo, xhi) = (
                (tile * TILE + a.min(b)) as f64,
                (tile * TILE + a.max(b)) as f64 + 1.0,
            );
            pc_on(xlo, xhi, vlo, vhi, forced, ku)
        };
        if stray == 0 {
            // About 1 in 20: a value range outside the predicate's v
            // interval, so the constraint admits no row at all — a forced
            // one makes the catalog infeasible, and both paths must say so.
            pc.values = ValueConstraint::none().with(1, Interval::closed(vhi + 1.0, vhi + 2.0));
        }
        pc
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

/// The sub-catalog of the constraints `q`'s region reaches: those whose
/// predicate box meets `query ∩ domain`, in catalog order.
fn reached_set(set: &PcSet, q: &AggQuery) -> PcSet {
    let mut region = q.predicate.to_region(set.schema());
    region.intersect(set.domain());
    let mut sub = PcSet::new(set.schema().clone());
    sub.set_domain(set.domain().clone());
    for pc in set.constraints() {
        if pc.predicate.to_region(set.schema()).overlaps(&region) {
            sub.push(pc.clone());
        }
    }
    sub
}

fn flat_options() -> BoundOptions {
    BoundOptions {
        shard: false,
        ..BoundOptions::default()
    }
}

fn results_equal(
    q: &AggQuery,
    flat: &Result<pc_core::BoundReport, BoundError>,
    sharded: &Result<pc_core::BoundReport, BoundError>,
) -> Result<(), String> {
    match (flat, sharded) {
        (Ok(x), Ok(y)) => {
            let lo_ok = (x.range.lo - y.range.lo).abs() < 1e-5
                || (x.range.lo.is_infinite() && x.range.lo == y.range.lo);
            let hi_ok = (x.range.hi - y.range.hi).abs() < 1e-5
                || (x.range.hi.is_infinite() && x.range.hi == y.range.hi);
            if !lo_ok || !hi_ok {
                return Err(format!(
                    "{q:?}: flat [{}, {}] vs sharded [{}, {}]",
                    x.range.lo, x.range.hi, y.range.lo, y.range.hi
                ));
            }
            if x.closed != y.closed {
                return Err(format!("{q:?}: closed {} vs {}", x.closed, y.closed));
            }
            Ok(())
        }
        (Err(x), Err(y)) if x == y => Ok(()),
        (x, y) => Err(format!("{q:?}: flat {x:?} vs sharded {y:?}")),
    }
}

/// One catalog mutation; retire/replace targets resolve by index seed
/// into the live-id list at application time.
#[derive(Debug, Clone)]
enum Op {
    Add(PredicateConstraint),
    Retire(usize),
    Replace(usize, PredicateConstraint),
}

prop_compose! {
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

proptest! {
    #![proptest_config(ProptestConfig::with_cases(24))]

    /// One-shot engine: sharded bounds equal the unsharded oracle for
    /// every aggregate and query region. An answer that built cells
    /// carries the shard topology whenever the constraints the query
    /// reaches genuinely factored; an open region answered from the
    /// closure probe alone reports no cell and no shard.
    #[test]
    fn sharded_bounds_equal_unsharded_oracle(
        pcs in prop::collection::vec(arb_pc(), 1..7),
        qs in prop::collection::vec(arb_query(), 1..4),
    ) {
        let set = build_set(pcs);
        let sharded = BoundEngine::new(&set);
        let flat = BoundEngine::with_options(&set, flat_options());
        for q in &qs {
            let s = sharded.bound(q);
            if let Err(msg) = results_equal(q, &flat.bound(q), &s) {
                return Err(TestCaseError::fail(msg));
            }
            let components = pc_core::interaction_components(&reached_set(&set, q)).len();
            let Ok(r) = &s else { continue };
            if r.stats.cells > 0 {
                if components > 1 {
                    prop_assert_eq!(r.stats.shards, components, "{:?}", q);
                    prop_assert_eq!(r.shard_sat_checks.len(), components, "{:?}", q);
                }
            } else {
                // Only an open region skips its cells.
                prop_assert!(components == 0 || !r.closed, "{:?}", q);
                prop_assert_eq!(r.stats.shards, 0, "{:?}", q);
                prop_assert!(r.shard_sat_checks.is_empty(), "{:?}", q);
            }
        }
    }

    /// GROUP-BY: every key's reach-scoped, sharded bound answers exactly
    /// as the flat, full-catalog bound of the same keyed query.
    #[test]
    fn sharded_group_by_equals_unsharded(
        pcs in prop::collection::vec(arb_pc(), 1..6),
        agg_pick in 0usize..5,
    ) {
        let set = build_set(pcs);
        let agg = [AggKind::Sum, AggKind::Count, AggKind::Avg, AggKind::Min, AggKind::Max][agg_pick];
        let base = AggQuery::new(agg, 1, Predicate::always());
        let keys: Vec<f64> = (0..XMAX).map(|x| x as f64).collect();
        let sharded = BoundEngine::new(&set).bound_group_by(&base, 0, keys.clone());
        let flat = BoundEngine::with_options(&set, flat_options())
            .bound_group_by(&base, 0, keys);
        prop_assert_eq!(sharded.len(), flat.len());
        for (s, f) in sharded.iter().zip(&flat) {
            prop_assert_eq!(s.key, f.key);
            let q = AggQuery::new(agg, 1, Predicate::atom(Atom::eq(0, s.key)));
            if let Err(msg) = results_equal(&q, &f.report, &s.report) {
                return Err(TestCaseError::fail(msg));
            }
        }
    }

    /// Sessions under churn: after every mutation the sharded session
    /// (shard-local epoch derivation, possibly merging and splitting
    /// components) serves the same bounds as an unsharded session freshly
    /// built on the materialized catalog.
    #[test]
    fn sharded_sessions_survive_churn(
        pcs in prop::collection::vec(arb_pc(), 1..4),
        ops in prop::collection::vec(arb_op(), 1..5),
        qs in prop::collection::vec(arb_query(), 1..3),
    ) {
        let session = Session::new(build_set(pcs));
        // prime epoch 0 so every mutation derives shard-locally
        session.cell_set().expect("decomposable seed");
        for op in &ops {
            if !apply(&session, op) {
                continue;
            }
            let set = session.pc_set();
            let oracle = Session::with_options((*set).clone(), SessionOptions {
                bound: flat_options(),
                ..SessionOptions::default()
            });
            for q in &qs {
                if let Err(msg) = results_equal(q, &oracle.bound(q), &session.bound(q)) {
                    return Err(TestCaseError::fail(msg));
                }
            }
        }
    }
}

/// Quantile re-ordering of a heavy shard is purely a work heuristic: a
/// single connected component past [`SHARD_RESPLIT_THRESHOLD`] members
/// must bound exactly like the unsharded engine (which never re-orders).
#[test]
fn skew_reorder_never_moves_a_bound() {
    // a chain of overlapping boxes: one component, > threshold members,
    // skewed toward the low end of the axis
    let n = SHARD_RESPLIT_THRESHOLD + 2;
    let mut set = PcSet::new(schema());
    let mut domain = Region::full(set.schema());
    domain.set_interval(0, Interval::closed(0.0, (2 * n) as f64));
    domain.set_interval(1, Interval::closed(0.0, VMAX as f64));
    for i in 0..n {
        // skew: the first half packs densely (step 0.5), the rest spreads
        // out (step 1.5) — every consecutive pair of width-2 boxes overlaps
        let lo = if i < n / 2 {
            i as f64 * 0.5
        } else {
            (n / 2) as f64 * 0.5 + (i - n / 2) as f64 * 1.5
        };
        set.push(pc_on(lo, lo + 2.0, 0.0, 10.0, i % 3 == 0, 4));
    }
    set.set_domain(domain);
    assert_eq!(pc_core::interaction_components(&set).len(), 1);

    let session = Session::new(set.clone());
    let cells = session.sharded_cell_set().expect("decomposable");
    assert_eq!(cells.stats().shards, 1);
    assert_eq!(cells.stats().max_shard_constraints, n);

    let flat = BoundEngine::with_options(&set, flat_options());
    for agg in [AggKind::Count, AggKind::Sum, AggKind::Max] {
        for pred in [
            Predicate::always(),
            Predicate::atom(Atom::between(0, 0.0, (n / 2) as f64)),
        ] {
            let q = AggQuery::new(agg, 1, pred);
            results_equal(&q, &flat.bound(&q), &session.bound(&q)).unwrap();
        }
    }
}

/// The fault-isolation story: two shards, a budget sized so the first
/// builds clean and the second trips mid-decomposition. A query touching
/// only the clean shard still gets its exact range (the other shard
/// contributes nothing to it); a query spanning both degrades soundly —
/// its range contains the exact one.
#[test]
fn budget_trip_in_one_shard_degrades_only_that_shard() {
    // shard A: two forced constraints on tile [0, 3)
    let mut pcs = vec![
        pc_on(0.0, 2.0, 0.0, 10.0, true, 4),
        pc_on(1.0, 3.0, 2.0, 12.0, true, 5),
    ];
    // shard B: a chain of eight overlapping constraints on [6, 15)
    for i in 0..8 {
        let lo = 6.0 + i as f64;
        pcs.push(pc_on(lo, lo + 2.0, 0.0, 15.0, true, 3));
    }
    let mut set = PcSet::new(schema());
    let mut domain = Region::full(set.schema());
    domain.set_interval(0, Interval::closed(0.0, 16.0));
    domain.set_interval(1, Interval::closed(0.0, VMAX as f64));
    for pc in pcs {
        set.push(pc);
    }
    set.set_domain(domain);
    assert_eq!(pc_core::interaction_components(&set).len(), 2);

    // How much SAT work does shard A's build need on its own?
    let a_only = {
        let mut a = PcSet::new(schema());
        a.set_domain(set.domain().clone());
        a.push(set.constraints()[0].clone());
        a.push(set.constraints()[1].clone());
        let s = Session::with_options(
            a,
            SessionOptions {
                bound: BoundOptions {
                    threads: 1,
                    ..BoundOptions::default()
                },
                ..SessionOptions::default()
            },
        );
        s.cell_set().unwrap().stats().sat_checks
    };

    let options = SessionOptions {
        bound: BoundOptions {
            threads: 1, // deterministic shard build order (A first)
            ..BoundOptions::default()
        },
        ..SessionOptions::default()
    };
    let exact = Session::with_options(set.clone(), options);
    let a_query = AggQuery::count(Predicate::atom(Atom::between(0, 0.0, 3.0)));
    let span_query = AggQuery::count(Predicate::always());
    let exact_a = exact.bound(&a_query).unwrap();
    let exact_span = exact.bound(&span_query).unwrap();

    // Cold session, budget = exactly shard A's build: A decomposes clean,
    // B trips to frontier cells.
    let starved = Session::with_options(set, options);
    let budget = QueryBudget::armed().with_sat_cap(a_only);
    let r_a = starved
        .bound_ticketed_stamped(&a_query, &budget, None)
        .1
        .unwrap();
    assert!(budget.is_tripped(), "shard B's build must exhaust the cap");
    // The clean shard's answer is *exact*, not just contained: shard B
    // never contributes to a query its boxes don't touch.
    assert!(
        (r_a.range.lo - exact_a.range.lo).abs() < 1e-9,
        "clean-shard lo {} must equal exact {}",
        r_a.range.lo,
        exact_a.range.lo
    );
    assert_eq!(r_a.range.hi, exact_a.range.hi, "clean-shard hi");

    // A query spanning both shards is sound but may be wider.
    let r_span = starved
        .bound_ticketed_stamped(&span_query, &budget, None)
        .1
        .unwrap();
    assert!(
        r_span.range.lo <= exact_span.range.lo + 1e-9
            && r_span.range.hi >= exact_span.range.hi - 1e-9,
        "degraded {:?} must contain exact {:?}",
        r_span.range,
        exact_span.range
    );
    assert!(
        r_span.range.lo < exact_span.range.lo - 1e-9 || r_span.degraded,
        "the spanning query saw the tripped shard"
    );
}

/// A catalog with an unsatisfiable forced constraint is infeasible for
/// every query, whether or not the query reaches that constraint and
/// whatever its closure verdict. `c1` forces a row whose value range
/// misses its own predicate's `v` interval; the two constraints sit on
/// disjoint `x` ranges, so the catalog factors into two shards, and
/// `SUM` over an open region must not skip the verdict on the sharded
/// path — one-shot or served from a session.
#[test]
fn unplaceable_floor_is_infeasible_on_every_path() {
    let schema = Schema::new(vec![("x", AttrType::Int), ("v", AttrType::Float)]);
    let mut domain = Region::full(&schema);
    domain.set_interval(0, Interval::closed(0.0, 10.0));
    domain.set_interval(1, Interval::closed(0.0, 100.0));
    let mut set = PcSet::new(schema)
        .with(PredicateConstraint::new(
            Predicate::atom(Atom::between(0, 0.0, 2.0)),
            ValueConstraint::none().with(1, Interval::closed(0.0, 10.0)),
            FrequencyConstraint::at_most(5),
        ))
        .with(PredicateConstraint::new(
            Predicate::atom(Atom::between(0, 5.0, 7.0)).and(Atom::between(1, 0.0, 10.0)),
            ValueConstraint::none().with(1, Interval::closed(20.0, 30.0)),
            FrequencyConstraint::between(1, 5),
        ));
    set.set_domain(domain);
    assert_eq!(pc_core::interaction_components(&set).len(), 2);

    let engines = [
        ("engine sharded", BoundEngine::new(&set)),
        (
            "engine flat",
            BoundEngine::with_options(&set, flat_options()),
        ),
    ];
    let sessions = [
        ("session sharded", Session::new(set.clone())),
        (
            "session flat",
            Session::with_options(
                set.clone(),
                SessionOptions {
                    bound: flat_options(),
                    ..SessionOptions::default()
                },
            ),
        ),
    ];
    // [0, 10] and [4, 8] reach c1 (both open); [0, 2] misses it (closed
    // by c0) and [8, 10] reaches nothing (open).
    for (lo, hi) in [(0.0, 10.0), (4.0, 8.0), (0.0, 2.0), (8.0, 10.0)] {
        for agg in [
            AggKind::Sum,
            AggKind::Count,
            AggKind::Avg,
            AggKind::Min,
            AggKind::Max,
        ] {
            let q = AggQuery::new(agg, 1, Predicate::atom(Atom::between(0, lo, hi)));
            let results = engines
                .iter()
                .map(|(name, e)| (name, e.bound(&q)))
                .chain(sessions.iter().map(|(name, s)| (name, s.bound(&q))));
            for (name, r) in results {
                assert_eq!(
                    r.as_ref().map(|r| r.range),
                    Err(&BoundError::Infeasible),
                    "{name}: {agg:?} over x in [{lo}, {hi}]"
                );
            }
        }
    }
}

/// A one-shot bound's work follows the constraints its region reaches:
/// on a single-component catalog (a catch-all joins everything), the
/// boxes far from the query window must cost nothing — not a split, not
/// a SAT check. The full catalog must bound exactly like the catalog of
/// only its reached constraints over the same domain: same range, same
/// cells, same SAT checks, same ordered splits.
#[test]
fn bound_work_follows_the_reached_constraints() {
    let catch_all = PredicateConstraint::new(
        Predicate::always(),
        ValueConstraint::none().with(1, Interval::closed(0.0, VMAX as f64)),
        FrequencyConstraint::at_most(40),
    );
    let near = [
        pc_on(0.0, 2.0, 0.0, 10.0, true, 4),
        pc_on(1.0, 3.0, 2.0, 12.0, true, 5),
        pc_on(2.0, 4.0, 5.0, 15.0, false, 3),
    ];
    let far = [
        pc_on(8.0, 10.0, 0.0, 10.0, true, 3),
        pc_on(9.0, 11.0, 5.0, 15.0, false, 4),
        pc_on(10.0, 12.0, 3.0, 9.0, true, 2),
    ];
    let mut all = vec![catch_all.clone()];
    all.extend(near.iter().cloned());
    all.extend(far.iter().cloned());
    let full = build_set(all);
    assert_eq!(pc_core::interaction_components(&full).len(), 1);
    let mut reached = vec![catch_all];
    reached.extend(near.iter().cloned());
    let reached = build_set(reached);

    let sequential = BoundOptions {
        threads: 1,
        ..BoundOptions::default()
    };
    let window = Predicate::atom(Atom::between(0, 0.0, 4.0));
    for agg in [
        AggKind::Sum,
        AggKind::Count,
        AggKind::Avg,
        AggKind::Min,
        AggKind::Max,
    ] {
        let q = AggQuery::new(agg, 1, window.clone());
        let got = BoundEngine::with_options(&full, sequential)
            .bound(&q)
            .unwrap();
        let want = BoundEngine::with_options(&reached, sequential)
            .bound(&q)
            .unwrap();
        assert_eq!(got.range, want.range, "{agg:?}");
        assert_eq!(got.stats.cells, want.stats.cells, "{agg:?}: cells");
        assert_eq!(
            got.stats.sat_checks, want.stats.sat_checks,
            "{agg:?}: sat checks"
        );
        assert_eq!(
            got.stats.ordered_splits, want.stats.ordered_splits,
            "{agg:?}: ordered splits"
        );
        assert!(want.stats.ordered_splits > 0, "{agg:?}: the search split");
    }
}

/// The catch-all cap over the whole domain: it closes every region and
/// joins every constraint into one interaction component.
fn catch_all() -> PredicateConstraint {
    PredicateConstraint::new(
        Predicate::always(),
        ValueConstraint::none().with(1, Interval::closed(0.0, VMAX as f64)),
        FrequencyConstraint::at_most(40),
    )
}

prop_compose! {
    /// A box anywhere in the domain, so a whole-domain query reaches it.
    fn arb_box_pc()(
        a in 0..=XMAX, b in 0..=XMAX,
        c in 0..=VMAX, d in 0..=VMAX,
        ku in 1u64..8,
        forced: bool,
    ) -> PredicateConstraint {
        let (vlo, vhi) = (c.min(d) as f64, c.max(d) as f64 + 1.0);
        pc_on(a.min(b) as f64, a.max(b) as f64 + 1.0, vlo, vhi, forced, ku)
    }
}

proptest! {
    #![proptest_config(ProptestConfig::with_cases(96))]

    /// A closed catalog of one interaction component, queried over a
    /// region that reaches every constraint, is one slice of the
    /// engine's own set: the sharded engine does exactly the flat
    /// reference's work — the same ranges bit for bit, the same closure
    /// flag, cells, SAT checks, ordered splits, pivots and B&B nodes.
    #[test]
    fn one_component_bound_does_the_flat_paths_work(
        pcs in prop::collection::vec(arb_box_pc(), 1..8),
    ) {
        let mut all = vec![catch_all()];
        all.extend(pcs);
        let set = build_set(all);
        prop_assert_eq!(pc_core::interaction_components(&set).len(), 1);
        let sequential = BoundOptions {
            threads: 1,
            ..BoundOptions::default()
        };
        let reference = BoundOptions {
            shard: false,
            ..sequential
        };
        let work = |r: &pc_core::BoundReport| {
            (
                r.stats.cells,
                r.stats.sat_checks,
                r.stats.ordered_splits,
                r.solver.pivots,
                r.solver.nodes,
            )
        };
        for agg in [AggKind::Sum, AggKind::Count, AggKind::Avg, AggKind::Min, AggKind::Max] {
            let q = AggQuery::new(agg, 1, Predicate::always());
            let sharded = BoundEngine::with_options(&set, sequential).bound(&q);
            let flat = BoundEngine::with_options(&set, reference).bound(&q);
            match (&flat, &sharded) {
                (Ok(f), Ok(s)) => {
                    prop_assert!(f.closed, "{:?}", agg);
                    let bits = |r: &pc_core::BoundReport| (r.range.lo.to_bits(), r.range.hi.to_bits());
                    prop_assert_eq!(bits(s), bits(f), "{:?}: {:?} vs {:?}", agg, s.range, f.range);
                    prop_assert_eq!(s.closed, f.closed, "{:?}", agg);
                    prop_assert_eq!(work(s), work(f), "{:?}", agg);
                }
                (Err(f), Err(s)) => prop_assert_eq!(f, s, "{:?}", agg),
                (f, s) => {
                    return Err(TestCaseError::fail(format!("{agg:?}: flat {f:?} vs sharded {s:?}")));
                }
            }
        }
    }
}

/// Two x-tiles of a (x, y, v) schema, `[0, 10)` and `[10, 20)`: each is
/// closed by a tile-wide cover (`v` in `[0, 50]`, at most
/// `TILE_COVER_KU` rows) and holds nine overlapping (x, y) boxes with
/// frequency floors, so each tile is one interaction component whose
/// allocation is a real branch & bound search. Box rows are
/// `(x0, x1, y0, y1, v_lo, v_hi, kl, ku)`, half-open on x and y.
type TileBox = (f64, f64, f64, f64, f64, f64, u64, u64);
const TILE_COVER_KU: [u64; 2] = [24, 25];
const TILE_BOXES: [[TileBox; 9]; 2] = [
    [
        (6.0, 10.0, 5.0, 10.0, 21.0, 34.0, 1, 2),
        (7.0, 10.0, 2.0, 7.0, 5.0, 23.0, 0, 2),
        (0.0, 4.0, 5.0, 9.0, 3.0, 18.0, 0, 4),
        (5.0, 10.0, 3.0, 6.0, 0.0, 23.0, 3, 6),
        (0.0, 4.0, 1.0, 3.0, 3.0, 39.0, 1, 8),
        (4.0, 7.0, 3.0, 8.0, 12.0, 32.0, 3, 5),
        (4.0, 6.0, 0.0, 3.0, 11.0, 23.0, 0, 2),
        (3.0, 7.0, 1.0, 6.0, 18.0, 23.0, 0, 7),
        (6.0, 8.0, 3.0, 7.0, 28.0, 59.0, 0, 5),
    ],
    [
        (10.0, 15.0, 3.0, 5.0, 18.0, 29.0, 1, 5),
        (17.0, 19.0, 7.0, 10.0, 6.0, 34.0, 2, 7),
        (10.0, 12.0, 3.0, 8.0, 6.0, 27.0, 2, 8),
        (12.0, 15.0, 5.0, 7.0, 11.0, 47.0, 3, 10),
        (11.0, 15.0, 1.0, 5.0, 1.0, 17.0, 2, 4),
        (16.0, 20.0, 6.0, 9.0, 9.0, 40.0, 2, 9),
        (10.0, 14.0, 2.0, 5.0, 13.0, 20.0, 2, 6),
        (12.0, 17.0, 7.0, 9.0, 27.0, 39.0, 1, 4),
        (14.0, 19.0, 6.0, 10.0, 11.0, 47.0, 3, 6),
    ],
];

/// The constraints of `tiles` over the two-tile domain.
fn two_tile_set(tiles: &[usize]) -> PcSet {
    let schema = Schema::new(vec![
        ("x", AttrType::Int),
        ("y", AttrType::Int),
        ("v", AttrType::Float),
    ]);
    let mut domain = Region::full(&schema);
    domain.set_interval(0, Interval::half_open(0.0, 20.0));
    domain.set_interval(1, Interval::half_open(0.0, 10.0));
    let mut set = PcSet::new(schema);
    for &t in tiles {
        let x0 = 10.0 * t as f64;
        set.push(PredicateConstraint::new(
            Predicate::atom(Atom::bucket(0, x0, x0 + 10.0)),
            ValueConstraint::none().with(2, Interval::closed(0.0, 50.0)),
            FrequencyConstraint::at_most(TILE_COVER_KU[t]),
        ));
        for &(x0, x1, y0, y1, vlo, vhi, kl, ku) in &TILE_BOXES[t] {
            set.push(PredicateConstraint::new(
                Predicate::atom(Atom::bucket(0, x0, x1)).and(Atom::bucket(1, y0, y1)),
                ValueConstraint::none().with(2, Interval::closed(vlo, vhi)),
                FrequencyConstraint::between(kl, ku),
            ));
        }
    }
    set.set_domain(domain);
    set
}

/// A sharded COUNT or SUM adds its components' bounds, so its solver
/// report is the field-wise sum of the reports of each component bounded
/// alone on its own tile — the incumbent-first installs included.
#[test]
fn sharded_count_and_sum_report_the_components_solver_work() {
    let sequential = BoundOptions {
        threads: 1,
        ..BoundOptions::default()
    };
    let both = two_tile_set(&[0, 1]);
    assert_eq!(pc_core::interaction_components(&both).len(), 2);
    for agg in [AggKind::Count, AggKind::Sum] {
        let got = BoundEngine::with_options(&both, sequential)
            .bound(&AggQuery::new(agg, 2, Predicate::always()))
            .unwrap();
        assert_eq!(got.stats.shards, 2, "{agg:?}");
        let mut want = pc_core::LpWork::default();
        for t in 0..2 {
            let x0 = 10.0 * t as f64;
            let own_tile = AggQuery::new(agg, 2, Predicate::atom(Atom::bucket(0, x0, x0 + 10.0)));
            let alone = BoundEngine::with_options(&two_tile_set(&[t]), sequential)
                .bound(&own_tile)
                .unwrap()
                .solver;
            want.pivots += alone.pivots;
            want.carried += alone.carried;
            want.rebuilt += alone.rebuilt;
            want.nodes += alone.nodes;
            want.incumbent_first += alone.incumbent_first;
        }
        assert!(
            want.incumbent_first > 0,
            "{agg:?}: a component's search installs an incumbent from its near child"
        );
        assert_eq!(got.solver, want, "{agg:?}");
    }
}

/// Ask distinct throwaway queries until the current epoch's answer memo
/// stops storing answers, so every later ask on the epoch runs the serve
/// path: a stored answer would be a memo hit, which reads no summary.
fn fill_the_memo(session: &Session) {
    for i in 0..100_000 {
        // COUNT over v ∈ [0, i/1000]: the one value v = 0, a new key each
        // time.
        let q = AggQuery::count(Predicate::atom(Atom::between(
            1,
            0.0,
            f64::from(i) / 1000.0,
        )));
        session.bound(&q).expect("a filler answers");
        let hits = session.memo_stats().hits;
        session.bound(&q).expect("a filler answers");
        if session.memo_stats().hits == hits {
            return;
        }
    }
    panic!("the answer memo never stopped storing");
}

/// A single-shard epoch answers a COUNT or SUM whose region contains
/// every member box from the shard's cached summary: the repeated answer
/// equals the first and the one-shot engine's, and runs no LP solve.
#[test]
fn single_shard_epoch_serves_a_contained_count_and_sum_from_its_summary() {
    // Two overlapping forced boxes under the catch-all: one component,
    // and the overlap cell makes the allocation a real MILP rather than
    // the greedy disjoint case.
    let set = build_set(vec![
        catch_all(),
        pc_on(0.0, 6.0, 0.0, 10.0, true, 4),
        pc_on(3.0, 9.0, 2.0, 12.0, true, 5),
    ]);
    let session = Session::new(set.clone());
    assert_eq!(session.sharded_cell_set().unwrap().shards().len(), 1);
    // With the memo full, the repeat below runs instead of taking the
    // first answer from the memo.
    fill_the_memo(&session);
    for agg in [AggKind::Count, AggKind::Sum] {
        let q = AggQuery::new(agg, 1, Predicate::always());
        let first = session.bound(&q).unwrap();
        assert!(
            first.solver.carried + first.solver.rebuilt > 0,
            "{agg:?}: the first answer solves its allocation"
        );
        let second = session.bound(&q).unwrap();
        assert_eq!(second.range, first.range, "{agg:?}");
        assert_eq!(
            second.solver.carried + second.solver.rebuilt,
            0,
            "{agg:?}: the second answer comes from the summary"
        );
        let oneshot = BoundEngine::new(&set).bound(&q);
        results_equal(&q, &oneshot, &Ok(second)).unwrap();
    }
}

/// A summary a shard stored under a closed verdict never answers an open
/// region. Retiring the second tile's constraints leaves one shard, whose
/// summaries carry into an epoch where nothing covers the second tile:
/// COUNT and SUM over the whole domain must come back open, as the flat
/// reference session says.
#[test]
fn a_carried_summary_never_answers_an_open_region() {
    let vtop = VMAX as f64 + 1.0;
    let set = build_set(vec![
        pc_on(0.0, 3.0, 0.0, vtop, false, 9),
        pc_on(1.0, 2.0, 2.0, 12.0, true, 4),
        pc_on(4.0, XMAX as f64, 0.0, vtop, false, 7),
        pc_on(5.0, 8.0, 3.0, 9.0, true, 3),
    ]);
    let session = Session::new(set);
    let queries =
        [AggKind::Count, AggKind::Sum].map(|agg| AggQuery::new(agg, 1, Predicate::always()));
    for q in &queries {
        let r = session.bound(q).unwrap();
        assert!(r.closed && r.range.is_bounded(), "{q:?}: {:?}", r.range);
    }
    let ids = session.constraint_ids();
    session.retire_constraint(ids[2]).unwrap();
    session.retire_constraint(ids[3]).unwrap();
    assert_eq!(session.sharded_cell_set().unwrap().shards().len(), 1);
    let oracle = Session::with_options(
        (*session.pc_set()).clone(),
        SessionOptions {
            bound: flat_options(),
            ..SessionOptions::default()
        },
    );
    for q in &queries {
        let r = session.bound(q).unwrap();
        assert!(
            !r.closed && r.range.hi == f64::INFINITY,
            "{q:?}: {:?}",
            r.range
        );
        results_equal(q, &oracle.bound(q), &Ok(r)).unwrap();
    }
}
