//! End-to-end engine equivalence on a real multi-worker pool.
//!
//! The unit and property tests of this crate run wherever the harness
//! puts them — on a single-core container the global pool has one worker
//! and every parallel path degrades to inline execution. This binary pins
//! `RAYON_NUM_THREADS=4` before anything touches the pool (its own
//! process, so the setting is race-free), making the decomposition under
//! the eager gate (a fork at every eligible split), the per-group GROUP-BY
//! tasks, and the parallel MILP genuinely concurrent, then checks the
//! results are exactly the sequential ones.

use pc_core::{
    decompose, decompose_with, BoundEngine, BoundOptions, FrequencyConstraint, Parallelism, PcSet,
    PredicateConstraint, Strategy, ValueConstraint,
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

/// `a` and `b` equal within `tol`, treating equal infinities as equal
/// (`∞ − ∞` is NaN, which would fail a plain difference check).
fn close(a: f64, b: f64, tol: f64) -> bool {
    a == b || (a - b).abs() < tol
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
    for eager_fork in [false, true] {
        let parallel = BoundEngine::with_options(
            &set,
            BoundOptions {
                threads: 0,
                eager_fork,
                ..BoundOptions::default()
            },
        );
        bounds_match(&sequential, &parallel);
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
            (Ok(a), Ok(b)) => {
                assert!(
                    close(a.range.lo, b.range.lo, 1e-5) && close(a.range.hi, b.range.hi, 1e-5),
                    "{agg:?}: [{}, {}] vs [{}, {}]",
                    a.range.lo,
                    a.range.hi,
                    b.range.lo,
                    b.range.hi
                );
                assert_eq!(a.closed, b.closed, "{agg:?}");
            }
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
                shared_group_by: false,
                ..BoundOptions::default()
            },
        )
        .bound_group_by(&base, 0, keys.clone());
        for (threads, shared) in [(0usize, true), (4, true), (4, false)] {
            let got = BoundEngine::with_options(
                &set,
                BoundOptions {
                    threads,
                    shared_group_by: shared,
                    ..BoundOptions::default()
                },
            )
            .bound_group_by(&base, 0, keys.clone());
            assert_eq!(oracle.len(), got.len());
            for (o, g) in oracle.iter().zip(&got) {
                assert_eq!(o.key, g.key, "order must be key order");
                match (&o.report, &g.report) {
                    (Ok(a), Ok(b)) => {
                        assert!(
                            close(a.range.lo, b.range.lo, 1e-5)
                                && close(a.range.hi, b.range.hi, 1e-5),
                            "{agg:?} key {} (threads={threads}, shared={shared}): \
                             [{}, {}] vs [{}, {}]",
                            o.key,
                            a.range.lo,
                            a.range.hi,
                            b.range.lo,
                            b.range.hi
                        );
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
            // run-to-run wobble is bounded by the branch & bound pruning
            // tolerance (INT_TOL = 1e-6): a node whose bound beats the
            // incumbent by less than that may be pruned or explored
            // depending on which worker posted the incumbent first
            match (&a.report, &b.report) {
                (Ok(x), Ok(y)) => {
                    assert!(close(x.range.lo, y.range.lo, 2e-6));
                    assert!(close(x.range.hi, y.range.hi, 2e-6));
                }
                (Err(x), Err(y)) => assert_eq!(x, y),
                (x, y) => panic!("{x:?} vs {y:?}"),
            }
        }
    }
}
