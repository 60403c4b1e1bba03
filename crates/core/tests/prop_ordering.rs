//! Property tests for box-volume search ordering (`pc_core::estimate`):
//! over random catalogs mixing tile-local and cross-cutting constraints,
//! every bound computed with ordering on (the default) must equal the
//! declaration-order oracle (`BoundOptions { ordering: false }`) — for all
//! five aggregates, arbitrary query regions, GROUP-BY fan-outs, sharded
//! catalogs, and sessions under random churn sequences. Ordering is a
//! visit-order permutation: the cell set, every verdict, every bound, and
//! the closure flag are invariant; only work counters and witness identity
//! may move. The order is a pure function of the set searched, so one
//! engine bounding one query again and again does identical work. A
//! deterministic skewed-catalog regression then checks the point of the
//! whole layer: with selective constraints declared *last* (the
//! adversarial order), ordering strictly reduces both the SAT-check count
//! of the decomposition and the branch & bound node count of the
//! allocation MILP.

use pc_core::{
    BoundEngine, BoundError, BoundOptions, BoundReport, ConstraintId, FrequencyConstraint, PcSet,
    PredicateConstraint, Session, SessionOptions, ValueConstraint,
};
use pc_predicate::{Atom, AttrType, Interval, Predicate, Region, Schema};
use pc_storage::{AggKind, AggQuery};
use proptest::prelude::*;

/// Three tiles of width 4 on the x axis (mirrors `prop_shard.rs`, so
/// random catalogs sometimes factor into several interaction components
/// and the per-shard ordering path is exercised too).
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
    /// Boxes of very different selectivity: some span whole tiles (wide,
    /// uninformative), some are slivers (selective) — the skew the
    /// volume order exists to exploit.
    fn arb_pc()(
        tile in 0..TILES,
        a in 0..TILE, b in 0..TILE,
        c in 0..=VMAX, d in 0..=VMAX,
        ku in 1u64..8,
        forced: bool,
        cross in 0usize..10,
    ) -> PredicateConstraint {
        let (vlo, vhi) = (c.min(d) as f64, c.max(d) as f64 + 1.0);
        if cross < 3 {
            let (xlo, xhi) = (
                (tile * TILE + a.min(b)) as f64,
                (tile * TILE + a.max(b)) as f64 + TILE as f64,
            );
            pc_on(xlo, xhi.min(XMAX as f64), vlo, vhi, forced, ku)
        } else {
            let (xlo, xhi) = (
                (tile * TILE + a.min(b)) as f64,
                (tile * TILE + a.max(b)) as f64 + 1.0,
            );
            pc_on(xlo, xhi, vlo, vhi, forced, ku)
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

/// Declaration-order oracle: everything else at defaults.
fn unordered() -> BoundOptions {
    BoundOptions {
        ordering: false,
        ..BoundOptions::default()
    }
}

/// `options` pinned to one thread, so the work counters are exact.
fn sequential(options: BoundOptions) -> BoundOptions {
    BoundOptions {
        threads: 1,
        ..options
    }
}

/// The work counters that the search order moves: SAT checks, ordered
/// splits, branch & bound nodes and simplex pivots (`None` for an error).
fn work(report: &Result<BoundReport, BoundError>) -> Option<(u64, u64, u64, u64)> {
    report.as_ref().ok().map(|r| {
        (
            r.stats.sat_checks,
            r.stats.ordered_splits,
            r.solver.nodes,
            r.solver.pivots,
        )
    })
}

fn results_equal(
    label: &str,
    off: &Result<BoundReport, BoundError>,
    on: &Result<BoundReport, BoundError>,
) -> Result<(), String> {
    match (off, on) {
        (Ok(x), Ok(y)) => {
            let lo_ok = (x.range.lo - y.range.lo).abs() < 1e-5
                || (x.range.lo.is_infinite() && x.range.lo == y.range.lo);
            let hi_ok = (x.range.hi - y.range.hi).abs() < 1e-5
                || (x.range.hi.is_infinite() && x.range.hi == y.range.hi);
            if !lo_ok || !hi_ok {
                return Err(format!(
                    "{label}: declaration order [{}, {}] vs volume order [{}, {}]",
                    x.range.lo, x.range.hi, y.range.lo, y.range.hi
                ));
            }
            if x.closed != y.closed {
                return Err(format!("{label}: closed {} vs {}", x.closed, y.closed));
            }
            Ok(())
        }
        (Err(x), Err(y)) if x == y => Ok(()),
        (x, y) => Err(format!(
            "{label}: declaration order {x:?} vs volume order {y:?}"
        )),
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

fn apply(session: &Session, op: &Op) {
    let live: Vec<ConstraintId> = session.constraint_ids();
    match op {
        Op::Add(pc) => {
            session.add_constraint(pc.clone());
        }
        Op::Retire(seed) => {
            if !live.is_empty() {
                session
                    .retire_constraint(live[seed % live.len()])
                    .expect("live id retires");
            }
        }
        Op::Replace(seed, pc) => {
            if !live.is_empty() {
                session
                    .replace_constraint(live[seed % live.len()], pc.clone())
                    .expect("live id replaces");
            }
        }
    }
}

proptest! {
    #![proptest_config(ProptestConfig::with_cases(24))]

    /// One-shot engine: volume-ordered bounds equal the
    /// declaration-order oracle for every aggregate and query region —
    /// including catalogs that factor over the interaction graph, where
    /// each shard's own engine orders its members by volume.
    #[test]
    fn ordering_never_moves_a_bound(
        pcs in prop::collection::vec(arb_pc(), 1..7),
        qs in prop::collection::vec(arb_query(), 1..4),
    ) {
        let set = build_set(pcs);
        let on = BoundEngine::new(&set);
        let off = BoundEngine::with_options(&set, unordered());
        for q in &qs {
            if let Err(msg) = results_equal("one-shot", &off.bound(q), &on.bound(q)) {
                return Err(TestCaseError::fail(msg));
            }
        }
    }

    /// Repeated queries against one sequential engine: the volume order
    /// is a pure function of the set searched, so every round answers
    /// the declaration-order oracle's bound with the first round's work.
    #[test]
    fn repeated_bounds_do_identical_work(
        pcs in prop::collection::vec(arb_pc(), 1..7),
        q in arb_query(),
    ) {
        let set = build_set(pcs);
        let on = BoundEngine::with_options(&set, sequential(BoundOptions::default()));
        let off = BoundEngine::with_options(&set, unordered());
        let oracle = off.bound(&q);
        let first = on.bound(&q);
        for round in 0..4 {
            let again = if round == 0 { first.clone() } else { on.bound(&q) };
            if let Err(msg) = results_equal(&format!("round {round}"), &oracle, &again) {
                return Err(TestCaseError::fail(msg));
            }
            prop_assert_eq!(work(&first), work(&again), "round {}", round);
        }
    }

    /// GROUP-BY fan-outs (one keyed query per key) answer the same with
    /// and without ordering.
    #[test]
    fn group_by_matches_declaration_order(
        pcs in prop::collection::vec(arb_pc(), 1..6),
        agg_pick in 0usize..3,
    ) {
        let set = build_set(pcs);
        let agg = [AggKind::Sum, AggKind::Count, AggKind::Max][agg_pick];
        let base = AggQuery::new(agg, 1, Predicate::always());
        let keys: Vec<f64> = (0..XMAX).map(|k| k as f64).collect();
        let on = BoundEngine::new(&set).bound_group_by(&base, 0, keys.clone());
        let off = BoundEngine::with_options(&set, unordered()).bound_group_by(&base, 0, keys);
        prop_assert_eq!(on.len(), off.len());
        for (y, x) in on.iter().zip(&off) {
            prop_assert_eq!(y.key, x.key);
            if let Err(msg) = results_equal("group", &x.report, &y.report) {
                return Err(TestCaseError::fail(msg));
            }
        }
    }

    /// Sessions under churn: the volume order of each epoch's shards
    /// (added, retired, replaced and merged members alike) never moves a
    /// served bound off the declaration-order session — or off a fresh
    /// engine of the final catalog.
    #[test]
    fn churned_sessions_match_declaration_order(
        pcs in prop::collection::vec(arb_pc(), 1..5),
        ops in prop::collection::vec(arb_op(), 1..6),
        qs in prop::collection::vec(arb_query(), 1..3),
    ) {
        let on = Session::new(build_set(pcs.clone()));
        let off = Session::with_options(
            build_set(pcs),
            SessionOptions { bound: unordered(), ..SessionOptions::default() },
        );
        for (i, op) in ops.iter().enumerate() {
            apply(&on, op);
            apply(&off, op);
            for q in &qs {
                if let Err(msg) =
                    results_equal(&format!("after op {i}"), &off.bound(q), &on.bound(q))
                {
                    return Err(TestCaseError::fail(msg));
                }
            }
        }
        // final catalog: the served answers also equal a cold engine's
        let set = on.pc_set();
        let fresh = BoundEngine::with_options(&set, unordered());
        for q in &qs {
            if let Err(msg) = results_equal("final vs fresh", &fresh.bound(q), &on.bound(q)) {
                return Err(TestCaseError::fail(msg));
            }
        }
    }

    /// Session GROUP-BY serves every keyed query from the epoch cache
    /// (each key specializes the cached cells to its slice) — answers
    /// must equal the engine's one-shot GROUP-BY on the same catalog.
    #[test]
    fn session_group_by_serves_from_epoch_cache(
        pcs in prop::collection::vec(arb_pc(), 1..6),
        agg_pick in 0usize..3,
    ) {
        let set = build_set(pcs);
        let agg = [AggKind::Sum, AggKind::Count, AggKind::Avg][agg_pick];
        let base = AggQuery::new(agg, 1, Predicate::always());
        let keys: Vec<f64> = (0..XMAX).map(|k| k as f64).collect();
        let engine_groups = BoundEngine::new(&set).bound_group_by(&base, 0, keys.clone());
        let session = Session::new(set);
        // prime the epoch cache, then serve the GROUP-BY from it
        session.cell_set().ok();
        let served = session.bound_group_by(&base, 0, keys);
        prop_assert_eq!(served.len(), engine_groups.len());
        for (s, e) in served.iter().zip(&engine_groups) {
            prop_assert_eq!(s.key, e.key);
            if let Err(msg) = results_equal("cached group", &e.report, &s.report) {
                return Err(TestCaseError::fail(msg));
            }
        }
    }
}

/// 3-attr constraint for the skewed catalog: a box in the x–y plane plus
/// a value band `[vlo, vhi]` on the third attribute.
#[allow(clippy::too_many_arguments)]
fn pc_xy(
    xlo: f64,
    xhi: f64,
    ylo: f64,
    yhi: f64,
    vlo: f64,
    vhi: f64,
    forced: bool,
    ku: u64,
) -> PredicateConstraint {
    let freq = if forced {
        FrequencyConstraint::between(1, ku)
    } else {
        FrequencyConstraint::at_most(ku)
    };
    PredicateConstraint::new(
        Predicate::always()
            .and(Atom::between(0, xlo, xhi))
            .and(Atom::between(1, ylo, yhi))
            .and(Atom::between(2, vlo, vhi)),
        ValueConstraint::none().with(2, Interval::closed(vlo, vhi)),
        freq,
    )
}

/// The adversarial declaration order the volume order exists to fix:
/// wide, overlapping, uninformative boxes declared first; tiny selective
/// boxes declared last. Volume order decides the selective constraints
/// early, so the DFS prunes whole subtrees the declaration order pays SAT
/// checks to explore — and the allocation MILP branches on the
/// selective-cell variables first, collapsing the fractional tail the
/// most-fractional rule re-explores.
///
/// Composition (schema `x, y ∈ [0,12]`, value `v ∈ [0,20]`):
/// * a non-forced cover box (finite bounds, and it couples every
///   constraint into one shard so the allocation MILP is joint);
/// * a 3×3 cross-hatch of wide forced strips — the SAT-check skew: in
///   declaration order the strips fragment the plane before anything
///   selective has been decided;
/// * two pentagon "rings" of forced boxes in which only cyclic
///   neighbours overlap, all sharing the value band `[5, 6]`. An odd
///   cycle's covering LP has a fractional optimum (2.5 tuples vs the
///   integral 3), so the MILP genuinely branches — and with two rings the
///   branch-variable choice decides how much of the product tree is
///   explored;
/// * three tiny slivers declared last: maximally selective, the cells the
///   volume order decides (and the MILP branches) first.
fn skewed_catalog() -> PcSet {
    let mut set = PcSet::new(Schema::new(vec![
        ("x", AttrType::Int),
        ("y", AttrType::Int),
        ("v", AttrType::Int),
    ]));
    let mut domain = Region::full(set.schema());
    domain.set_interval(0, Interval::closed(0.0, XMAX as f64));
    domain.set_interval(1, Interval::closed(0.0, XMAX as f64));
    domain.set_interval(2, Interval::closed(0.0, VMAX as f64));
    let xmax = XMAX as f64;
    let vmax = VMAX as f64;
    let mut pcs = vec![pc_xy(0.0, xmax, 0.0, xmax, 0.0, vmax, false, 9)];
    // 3×3 cross-hatch of wide forced strips
    for i in 0..3 {
        let lo = 4.0 * i as f64;
        pcs.push(pc_xy(lo, lo + 4.0, 0.0, xmax, 0.0, vmax, true, 9));
    }
    for i in 0..3 {
        let lo = 4.0 * i as f64;
        pcs.push(pc_xy(0.0, xmax, lo, lo + 4.0, 0.0, vmax, true, 9));
    }
    // pentagon ring at (0, 4): only cyclic neighbours overlap
    pcs.push(pc_xy(0.0, 4.0, 9.0, 12.0, 5.0, 6.0, true, 1));
    pcs.push(pc_xy(3.0, 8.0, 9.0, 11.0, 5.0, 6.0, true, 1));
    pcs.push(pc_xy(6.0, 8.0, 5.0, 10.0, 5.0, 6.0, true, 1));
    pcs.push(pc_xy(1.0, 7.0, 4.0, 6.0, 5.0, 6.0, true, 1));
    pcs.push(pc_xy(0.0, 2.0, 5.0, 10.0, 5.0, 6.0, true, 1));
    // tiny 4×4 ring at (8, 0)
    pcs.push(pc_xy(8.0, 10.0, 3.0, 4.0, 5.0, 6.0, true, 1));
    pcs.push(pc_xy(10.0, 12.0, 2.0, 4.0, 5.0, 6.0, true, 1));
    pcs.push(pc_xy(11.0, 12.0, 0.0, 2.0, 5.0, 6.0, true, 1));
    pcs.push(pc_xy(9.0, 11.0, 0.0, 1.0, 5.0, 6.0, true, 1));
    pcs.push(pc_xy(8.0, 9.0, 1.0, 3.0, 5.0, 6.0, true, 1));
    // three tiny slivers declared last
    pcs.push(pc_xy(1.0, 2.0, 10.0, 11.0, 15.0, 16.0, true, 1));
    pcs.push(pc_xy(7.0, 8.0, 9.0, 10.0, 17.0, 18.0, true, 1));
    pcs.push(pc_xy(10.0, 11.0, 5.0, 6.0, 12.0, 13.0, true, 1));
    for pc in pcs {
        set.push(pc);
    }
    set.set_domain(domain);
    set
}

/// Deterministic regression: on the skewed catalog, volume ordering
/// must *strictly* reduce both SAT checks (decomposition) and branch &
/// bound nodes (allocation MILP) — and still answer identically.
#[test]
fn skewed_catalog_orders_strictly_fewer_sat_checks_and_nodes() {
    let set = skewed_catalog();
    let q = AggQuery::new(AggKind::Sum, 2, Predicate::always());
    let on = BoundEngine::with_options(&set, sequential(BoundOptions::default()))
        .bound(&q)
        .expect("skewed catalog bounds");
    let off = BoundEngine::with_options(&set, sequential(unordered()))
        .bound(&q)
        .expect("skewed catalog bounds");
    assert!((on.range.lo - off.range.lo).abs() < 1e-5, "lo moved");
    assert!((on.range.hi - off.range.hi).abs() < 1e-5, "hi moved");
    assert!(
        on.stats.sat_checks < off.stats.sat_checks,
        "ordering must cut SAT checks: {} (ordered) vs {} (declaration)",
        on.stats.sat_checks,
        off.stats.sat_checks
    );
    assert!(
        on.solver.nodes < off.solver.nodes,
        "ordering must cut B&B nodes: {} (ordered) vs {} (declaration)",
        on.solver.nodes,
        off.solver.nodes
    );
    assert!(
        on.stats.ordered_splits > 0,
        "ordered splits must be counted"
    );
}

/// Deterministic case of `repeated_bounds_do_identical_work`: one
/// sequential engine bounds the skewed catalog's whole domain four times,
/// and every round answers with the first round's range and work.
#[test]
fn skewed_catalog_repeats_identical_work() {
    let set = skewed_catalog();
    let q = AggQuery::new(AggKind::Sum, 2, Predicate::always());
    let engine = BoundEngine::with_options(&set, sequential(BoundOptions::default()));
    let first = engine.bound(&q);
    assert!(first.is_ok(), "skewed catalog bounds");
    for round in 1..4 {
        let again = engine.bound(&q);
        results_equal(&format!("round {round}"), &first, &again).unwrap();
        assert_eq!(work(&first), work(&again), "round {round}");
    }
}
