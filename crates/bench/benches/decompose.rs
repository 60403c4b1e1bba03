//! Criterion bench for Fig 7 and the parallel/incremental bound engine.
//!
//! * `fig7_decompose` — cell decomposition of heavily overlapping PC sets
//!   under the three strategies (the paper's >1000× sat-check reduction at
//!   n = 20; wall-clock tracks the check counts).
//! * `parallel_decompose` — sequential vs forked DFS on an 18-constraint
//!   overlapping set at several thread counts.
//! * `group_by` — a 100-key GROUP-BY (one keyed query per key), cold and
//!   warm-started, with exact allocations and as LP relaxations.
//! * `shard_scaling` — 10×/30× replicas of the 14-pc overlapping set on
//!   disjoint attribute tiles: one `COUNT` bound end to end, sharded
//!   (per-component decomposition) vs flat (whole-catalog decomposition),
//!   plus the one-mutation epoch-derivation latency of a session on the
//!   30-tile catalog, shard-local vs flat-incremental.
//!
//! Set `PC_BENCH_JSON=/path/file.json` to append machine-readable results
//! (the repo's `BENCH_decompose.json` is produced this way).

use criterion::{criterion_group, criterion_main, BenchmarkId, Criterion};
use pc_bench::experiments::fig7::overlapping_set;
use pc_bench::Scale;
use pc_core::{
    decompose, decompose_with, BoundEngine, BoundOptions, FrequencyConstraint, MilpOptions,
    Parallelism, PcSet, PredicateConstraint, Session, SessionOptions, Strategy, ValueConstraint,
    Warmth,
};
use pc_datagen::intel::{self, IntelConfig};
use pc_predicate::{Atom, AttrType, Interval, Predicate, Region, Schema};
use pc_storage::{AggKind, AggQuery};

fn bench_decompose(c: &mut Criterion) {
    let table = intel::generate(IntelConfig {
        rows: 2_000,
        ..IntelConfig::default()
    });
    let _ = Scale::quick();
    let mut group = c.benchmark_group("fig7_decompose");
    group.sample_size(10);
    for n in [8usize, 12] {
        let set = overlapping_set(&table, n, 7);
        let base = Region::full(set.schema());
        for (name, strategy) in [
            ("naive", Strategy::Naive),
            ("dfs", Strategy::Dfs),
            ("dfs_rewrite", Strategy::DfsRewrite),
        ] {
            group.bench_with_input(BenchmarkId::new(name, n), &n, |b, _| {
                b.iter(|| decompose(&set, &base, strategy).unwrap())
            });
        }
        // early stopping for the approximate variant (Optimization 4)
        group.bench_with_input(BenchmarkId::new("early_stop", n), &n, |b, _| {
            b.iter(|| decompose(&set, &base, Strategy::EarlyStop { depth: n - 2 }).unwrap())
        });
    }
    group.finish();
}

/// Sequential vs fork/join decomposition of one large overlapping set.
/// The emitted cells are identical; only wall-clock differs.
fn bench_parallel_decompose(c: &mut Criterion) {
    let table = intel::generate(IntelConfig {
        rows: 2_000,
        ..IntelConfig::default()
    });
    let n = 18usize;
    let set = overlapping_set(&table, n, 7);
    let base = Region::full(set.schema());
    let mut group = c.benchmark_group("parallel_decompose");
    group.sample_size(10);
    group.bench_function(BenchmarkId::new("sequential", n), |b| {
        b.iter(|| decompose(&set, &base, Strategy::DfsRewrite).unwrap())
    });
    for threads in [2usize, 4, 8] {
        let par = Parallelism {
            threads,
            eager: false,
        };
        group.bench_function(BenchmarkId::new(format!("threads_{threads}"), n), |b| {
            b.iter(|| decompose_with(&set, &base, Strategy::DfsRewrite, par).unwrap())
        });
    }
    group.finish();
}

/// A categorical group attribute with `keys` groups, covered by `n_pc`
/// heavily overlapping 2-D boxes over (group, value) — each spanning
/// 40–90% of both ranges, like the paper's Rand-PC workload. Every group
/// slice still sees most constraints with overlapping value ranges, so
/// every key's query pays a real (exponential-family) DFS.
fn group_by_set(keys: usize, n_pc: usize, seed: u64) -> PcSet {
    use rand::rngs::StdRng;
    use rand::{Rng, SeedableRng};
    let schema = Schema::new(vec![("g", AttrType::Cat), ("v", AttrType::Float)]);
    let mut domain = Region::full(&schema);
    domain.set_interval(0, Interval::closed(0.0, (keys - 1) as f64));
    let mut set = PcSet::new(schema);
    let mut rng = StdRng::seed_from_u64(seed);
    let gmax = (keys - 1) as f64;
    let vmax = 1_000.0;
    for i in 0..n_pc {
        let gw = gmax * rng.gen_range(0.4..0.9);
        let glo = rng.gen_range(0.0..(gmax - gw));
        let vw = vmax * rng.gen_range(0.4..0.9);
        let vlo = rng.gen_range(0.0..(vmax - vw));
        set.push(PredicateConstraint::new(
            Predicate::always()
                .and(Atom::between(0, glo, glo + gw))
                .and(Atom::between(1, vlo, vlo + vw)),
            ValueConstraint::none().with(1, Interval::closed(vlo, vlo + vw)),
            FrequencyConstraint::at_most(40 + (i as u64 % 7)),
        ));
    }
    // catch-all constraint: keeps the set closed so every group produces a
    // finite range and the allocation solver actually runs
    set.push(PredicateConstraint::new(
        Predicate::always(),
        ValueConstraint::none().with(1, Interval::closed(0.0, vmax)),
        FrequencyConstraint::at_most(500),
    ));
    set.set_domain(domain);
    set
}

fn bench_group_by(c: &mut Criterion) {
    let keys: Vec<f64> = (0..100).map(f64::from).collect();
    let set = group_by_set(100, 20, 7);
    let query = AggQuery::new(AggKind::Sum, 1, Predicate::always());

    let mut group = c.benchmark_group("group_by");
    group.sample_size(10);

    let configs: [(&str, BoundOptions); 2] = [
        (
            "cold",
            BoundOptions {
                milp: MilpOptions {
                    warmth: Warmth::Cold,
                    ..MilpOptions::default()
                },
                threads: 1,
                ..BoundOptions::default()
            },
        ),
        (
            "warm",
            BoundOptions {
                threads: 1,
                ..BoundOptions::default()
            },
        ),
    ];
    for (name, options) in configs {
        let engine = BoundEngine::with_options(&set, options);
        group.bench_function(BenchmarkId::new(name, keys.len()), |b| {
            b.iter(|| engine.bound_group_by(&query, 0, keys.iter().copied()))
        });
    }
    // LP-relaxation variant: every allocation solved as a (warm-startable)
    // LP — the throughput configuration for wide GROUP-BYs (bounds stay
    // sound, possibly slightly wider).
    for (name, warmth) in [("lp_cold", Warmth::Cold), ("lp_warm", Warmth::Carry)] {
        let options = BoundOptions {
            lp_relax_cell_limit: 0,
            milp: MilpOptions {
                warmth,
                ..MilpOptions::default()
            },
            threads: 1,
            ..BoundOptions::default()
        };
        let engine = BoundEngine::with_options(&set, options);
        group.bench_function(BenchmarkId::new(name, keys.len()), |b| {
            b.iter(|| engine.bound_group_by(&query, 0, keys.iter().copied()))
        });
    }
    group.finish();
}

/// Replicas of the 14-pc heavily overlapping set on disjoint attribute
/// tiles (one interaction component per tile). The sharded engine
/// decomposes per component, so its cost grows ~linearly with the tile
/// count; the flat engine decomposes the whole catalog at once, where
/// every emitted cell pays exclusion work against every other tile's
/// constraints — superlinear in the tile count. Also measures the
/// one-mutation epoch-derivation latency on the largest catalog:
/// shard-local derivation re-derives one 14-constraint tile, the flat
/// baseline re-derives through the whole cell set.
fn bench_shard_scaling(c: &mut Criterion) {
    let table = intel::generate(IntelConfig {
        rows: 2_000,
        ..IntelConfig::default()
    });
    let query = AggQuery::count(Predicate::always());
    let mut group = c.benchmark_group("shard_scaling");
    group.sample_size(10);
    for tiles in [10usize, 30] {
        let set = pc_bench::pcgen::tiled_replica_set(&table, 14, tiles, 7);
        // tiles never merge; a tile may fracture into finer components
        assert!(pc_core::interaction_components(&set).len() >= tiles);
        let sharded = BoundEngine::new(&set);
        let flat = BoundEngine::with_options(
            &set,
            BoundOptions {
                shard: false,
                ..BoundOptions::default()
            },
        );
        // same answer before we time anything
        let (a, b) = (sharded.bound(&query).unwrap(), flat.bound(&query).unwrap());
        assert_eq!((a.range.lo, a.range.hi), (b.range.lo, b.range.hi));
        group.bench_function(BenchmarkId::new("sharded", tiles), |b| {
            b.iter(|| sharded.bound(&query).unwrap())
        });
        group.bench_function(BenchmarkId::new("flat", tiles), |b| {
            b.iter(|| flat.bound(&query).unwrap())
        });
    }

    // One-mutation epoch derivation on the 30-tile catalog: add a
    // constraint overlapping tile 0, then retire it (leaves the session
    // where it started, so every iteration derives from the same shape).
    let set = pc_bench::pcgen::tiled_replica_set(&table, 14, 30, 7);
    let extra = set.constraints()[0].clone();
    for (name, shard) in [("epoch_derive_sharded", true), ("epoch_derive_flat", false)] {
        let session = Session::with_options(
            set.clone(),
            SessionOptions {
                bound: BoundOptions {
                    shard,
                    ..BoundOptions::default()
                },
                ..SessionOptions::default()
            },
        );
        session.cell_set().unwrap(); // warm epoch 0
        group.bench_function(BenchmarkId::new(name, 30), |b| {
            b.iter(|| {
                let id = session.add_constraint(extra.clone());
                session.cell_set().unwrap();
                session.retire_constraint(id).unwrap();
                session.cell_set().unwrap();
            })
        });
    }
    group.finish();
}

/// Box-volume split ordering on the adversarial skewed catalog
/// (selective constraints declared last) vs a uniform control: ordering
/// on (the default) against the declaration-order oracle. The emitted
/// cell set and every bound are identical; the SAT-check and ordered-split
/// counters ride next to the timing rows as `ordering_pivots/...` lines.
fn bench_ordering(c: &mut Criterion) {
    let query = AggQuery::new(AggKind::Sum, 2, Predicate::always());
    let mut group = c.benchmark_group("ordering");
    group.sample_size(10);
    for (workload, set) in [
        ("skewed", pc_bench::pcgen::skewed_ordering_set()),
        ("uniform", pc_bench::pcgen::uniform_ordering_set(7)),
    ] {
        let on = BoundEngine::with_options(
            &set,
            BoundOptions {
                threads: 1,
                ..BoundOptions::default()
            },
        );
        let off = BoundEngine::with_options(
            &set,
            BoundOptions {
                threads: 1,
                ordering: false,
                ..BoundOptions::default()
            },
        );
        // same answer before we time anything — and the work profile
        // becomes the pivot columns of the artifact
        let (a, b) = (on.bound(&query).unwrap(), off.bound(&query).unwrap());
        assert_eq!((a.range.lo, a.range.hi), (b.range.lo, b.range.hi));
        for (mode, r) in [("on", &a), ("off", &b)] {
            pc_bench::emit_bench_json_line(&format!(
                "{{\"id\": \"ordering_pivots/{workload}_{mode}\", \"sat_checks\": {}, \
                 \"ordered_splits\": {}, \"nodes\": {}, \"incumbent_first\": {}}}",
                r.stats.sat_checks,
                r.stats.ordered_splits,
                r.solver.nodes,
                r.solver.incumbent_first
            ));
        }
        for (mode, engine) in [("on", &on), ("off", &off)] {
            group.bench_function(
                BenchmarkId::new(format!("{workload}_{mode}"), set.len()),
                |b| b.iter(|| engine.bound(&query).unwrap()),
            );
        }
    }
    group.finish();
}

criterion_group!(
    benches,
    bench_decompose,
    bench_parallel_decompose,
    bench_group_by,
    bench_shard_scaling,
    bench_ordering
);
criterion_main!(benches);
