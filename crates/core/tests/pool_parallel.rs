//! End-to-end engine equivalence on a real multi-worker pool.
//!
//! The unit and property tests of this crate run wherever the harness
//! puts them — on a single-core container the global pool has one worker
//! and every parallel path degrades to inline execution. This binary pins
//! `RAYON_NUM_THREADS=4` before anything touches the pool (its own
//! process, so the setting is race-free), making the decomposition under
//! the eager gate (a fork at every eligible split), the per-group GROUP-BY
//! tasks and the per-shard tasks genuinely concurrent, then checks the
//! results are exactly the sequential ones: the same bit patterns of
//! every range end and the same closure verdict, for engines fanning out
//! over 2 and 4 workers and over the whole pool. Only witness identity may
//! differ (the parallel witness search is first-hit-wins); allocation
//! MILPs are sequential searches and a one-shot engine's warm chains are
//! per call, so nothing else depends on the schedule.

use pc_core::{
    decompose, decompose_with, BoundEngine, BoundOptions, BoundReport, FrequencyConstraint,
    Parallelism, PcSet, PredicateConstraint, Strategy, ValueConstraint,
};
use pc_predicate::{Atom, AttrType, Interval, Predicate, Region, Schema};
use pc_storage::{AggKind, AggQuery};
use std::sync::Once;

fn pool4() {
    static INIT: Once = Once::new();
    INIT.call_once(|| {
        std::env::set_var("RAYON_NUM_THREADS", "4");
        assert_eq!(rayon::current_num_threads(), 4);
    });
}

fn schema() -> Schema {
    Schema::new(vec![("x", AttrType::Int), ("v", AttrType::Float)])
}

/// A deterministic, heavily overlapping constraint set: every pair of
/// boxes overlaps somewhere, so the include/exclude tree stays bushy and
/// forks at many levels.
fn overlapping_set(n: usize) -> PcSet {
    let mut set = PcSet::new(schema());
    for i in 0..n {
        let lo = (i * 3 % 17) as f64;
        let hi = lo + 8.0 + (i % 5) as f64;
        set.push(PredicateConstraint::new(
            Predicate::always()
                .and(Atom::between(0, lo, hi))
                .and(Atom::between(1, (i % 4) as f64 * 10.0, 100.0)),
            ValueConstraint::none().with(1, Interval::closed(0.0, 100.0 + i as f64)),
            FrequencyConstraint::at_most(20 + i as u64),
        ));
    }
    set
}

#[test]
fn forked_decomposition_is_bit_identical() {
    pool4();
    let set = overlapping_set(14);
    let base = Region::full(set.schema());
    let (seq_cells, seq_stats) = decompose(&set, &base, Strategy::DfsRewrite).unwrap();
    for threads in [0usize, 2, 4, 8] {
        let par = Parallelism {
            threads,
            eager: true,
        };
        let (cells, stats) = decompose_with(&set, &base, Strategy::DfsRewrite, par).unwrap();
        assert_eq!(seq_cells.len(), cells.len(), "threads={threads}");
        for (s, p) in seq_cells.iter().zip(&cells) {
            assert_eq!(s.active.to_vec(), p.active.to_vec());
            assert!(*s.region == *p.region);
            // Witness *identity* may differ: the parallel witness search
            // is first-hit-wins. Genuineness must hold regardless.
            let w = p.witness.as_ref().expect("exact mode carries witnesses");
            assert!(p.region.contains_row(w));
            for (j, pc) in set.constraints().iter().enumerate() {
                assert_eq!(pc.predicate.eval(w), p.is_active(j));
            }
        }
        assert_eq!(seq_stats.sat_checks, stats.sat_checks);
        assert_eq!(seq_stats.pruned_subtrees, stats.pruned_subtrees);
        assert_eq!(seq_stats.rewrite_skips, stats.rewrite_skips);
        if threads != 1 {
            assert!(stats.parallel_subtrees > 0, "forking must engage");
        }
    }
}

/// Engine fan-outs compared against the sequential (`threads: 1`)
/// oracle: 2 and 4 workers, and `0` for the whole pinned pool.
const FAN_OUTS: [usize; 3] = [2, 4, 0];

/// Both reports carry the same bit patterns of `lo` and `hi` and the same
/// closure verdict.
fn assert_same(a: &BoundReport, b: &BoundReport, what: &str) {
    assert!(
        a.range.lo.to_bits() == b.range.lo.to_bits()
            && a.range.hi.to_bits() == b.range.hi.to_bits(),
        "{what}: [{:e}, {:e}] vs [{:e}, {:e}]",
        a.range.lo,
        a.range.hi,
        b.range.lo,
        b.range.hi
    );
    assert_eq!(a.closed, b.closed, "{what}");
}

#[test]
fn parallel_engine_bounds_match_sequential() {
    pool4();
    let mut set = overlapping_set(12);
    // a catch-all constraint and a clipped domain keep the set closed, so
    // every aggregate gets finite, comparable bounds
    set.push(PredicateConstraint::new(
        Predicate::always(),
        ValueConstraint::none().with(1, Interval::closed(0.0, 200.0)),
        FrequencyConstraint::at_most(300),
    ));
    let mut domain = Region::full(set.schema());
    domain.set_interval(0, Interval::closed(0.0, 40.0));
    domain.set_interval(1, Interval::closed(0.0, 200.0));
    set.set_domain(domain);
    let sequential = BoundEngine::with_options(
        &set,
        BoundOptions {
            threads: 1,
            ..BoundOptions::default()
        },
    );
    // the default gate, and the eager one that forks every eligible split
    for threads in FAN_OUTS {
        for eager_fork in [false, true] {
            let parallel = BoundEngine::with_options(
                &set,
                BoundOptions {
                    threads,
                    eager_fork,
                    ..BoundOptions::default()
                },
            );
            bounds_match(&sequential, &parallel);
        }
    }
}

fn bounds_match(sequential: &BoundEngine, parallel: &BoundEngine) {
    for agg in [
        AggKind::Sum,
        AggKind::Count,
        AggKind::Min,
        AggKind::Max,
        AggKind::Avg,
    ] {
        let q = AggQuery::new(agg, 1, Predicate::always());
        let a = sequential.bound(&q);
        let b = parallel.bound(&q);
        match (a, b) {
            (Ok(a), Ok(b)) => assert_same(&a, &b, &format!("{agg:?}")),
            (a, b) => assert_eq!(
                a.map(|r| (r.range.lo, r.range.hi)),
                b.map(|r| (r.range.lo, r.range.hi)),
                "{agg:?}"
            ),
        }
    }
}

#[test]
fn pooled_group_by_matches_sequential_and_per_key() {
    pool4();
    let schema = Schema::new(vec![("g", AttrType::Cat), ("v", AttrType::Float)]);
    let mut domain = Region::full(&schema);
    domain.set_interval(0, Interval::closed(0.0, 9.0));
    let mut set = PcSet::new(schema);
    for (code, hi, k) in [(0u32, 149.99, 5u64), (3, 100.0, 10), (7, 50.0, 3)] {
        set.push(PredicateConstraint::new(
            Predicate::atom(Atom::eq(0, f64::from(code))),
            ValueConstraint::none().with(1, Interval::closed(0.0, hi)),
            FrequencyConstraint::at_most(k),
        ));
    }
    // cross-cutting constraints so slices genuinely interact
    set.push(PredicateConstraint::new(
        Predicate::atom(Atom::between(0, 0.0, 6.0)),
        ValueConstraint::none().with(1, Interval::closed(0.0, 120.0)),
        FrequencyConstraint::at_most(12),
    ));
    set.push(PredicateConstraint::new(
        Predicate::atom(Atom::between(0, 2.0, 9.0)),
        ValueConstraint::none().with(1, Interval::closed(0.0, 80.0)),
        FrequencyConstraint::between(2, 9),
    ));
    set.set_domain(domain);

    let keys: Vec<f64> = (0..10).map(f64::from).collect();
    for agg in [AggKind::Sum, AggKind::Count, AggKind::Avg] {
        let base = AggQuery::new(agg, 1, Predicate::always());
        let oracle = BoundEngine::with_options(
            &set,
            BoundOptions {
                threads: 1,
                ..BoundOptions::default()
            },
        )
        .bound_group_by(&base, 0, keys.clone());
        for threads in FAN_OUTS {
            let got = BoundEngine::with_options(
                &set,
                BoundOptions {
                    threads,
                    ..BoundOptions::default()
                },
            )
            .bound_group_by(&base, 0, keys.clone());
            assert_eq!(oracle.len(), got.len());
            for (o, g) in oracle.iter().zip(&got) {
                assert_eq!(o.key, g.key, "order must be key order");
                match (&o.report, &g.report) {
                    (Ok(a), Ok(b)) => {
                        assert_same(a, b, &format!("{agg:?} key {} (threads={threads})", o.key))
                    }
                    (Err(a), Err(b)) => assert_eq!(a, b, "key {}", o.key),
                    (a, b) => panic!("key {}: {a:?} vs {b:?}", o.key),
                }
            }
        }
    }
}

#[test]
fn repeated_parallel_group_by_is_stable() {
    pool4();
    let set = overlapping_set(10);
    let base = AggQuery::new(AggKind::Sum, 1, Predicate::always());
    let keys: Vec<f64> = (0..12).map(f64::from).collect();
    let engine = BoundEngine::with_options(
        &set,
        BoundOptions {
            threads: 0,
            ..BoundOptions::default()
        },
    );
    let first = engine.bound_group_by(&base, 0, keys.clone());
    for _ in 0..3 {
        let again = engine.bound_group_by(&base, 0, keys.clone());
        for (a, b) in first.iter().zip(&again) {
            assert_eq!(a.key, b.key);
            match (&a.report, &b.report) {
                (Ok(x), Ok(y)) => assert_same(x, y, &format!("key {}", a.key)),
                (Err(x), Err(y)) => assert_eq!(x, y),
                (x, y) => panic!("{x:?} vs {y:?}"),
            }
        }
    }
}
