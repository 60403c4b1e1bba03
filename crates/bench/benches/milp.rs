//! Criterion bench for the branch & bound MILP solver: the three
//! warm-start tiers (cold crash / basis restore / tableau carry) crossed
//! with sequential vs work-stealing-parallel search.
//!
//! The workload is a batch of PC-allocation-shaped problems — `max u·x`
//! over random subset rows `Σ_{i∈S} xᵢ ≤ ku` with box bounds `0 ≤ xᵢ ≤ 4`
//! — with *fractional* row capacities, so every relaxation sits at a
//! fractional vertex and the search genuinely branches (integral-data
//! instances solve at the root and would benchmark nothing).
//!
//! Besides the wall-clock rows, every mode's sanity pass aggregates the
//! solver's per-node counters ([`pc_solver::SearchStats`]) and emits them
//! as `milp_pivots/...` JSON lines next to the timing rows: carried vs
//! rebuilt node counts and their pivot totals — the measured
//! O(m) → O(1) rebuild elimination of the tableau carry.
//!
//! Parallel ids carry the pool size (`…_par_4w` = 4 workers): the global
//! pool is sized once per process from `RAYON_NUM_THREADS` / the
//! machine, so "1 vs N threads" here is sequential mode vs the whole
//! pool. On a single-core container the parallel rows only measure task
//! overhead; the scaling signal needs the multi-core CI runner (see
//! `BENCH_milp.json`'s host note).
//!
//! Set `PC_BENCH_JSON=/path/file.json` to append machine-readable results
//! (the repo's `BENCH_milp.json` is produced this way).

use criterion::{criterion_group, criterion_main, BenchmarkId, Criterion};
use pc_bench::emit_bench_json_line;
use pc_solver::{
    solve_milp, ConstraintOp, LinearProgram, MilpOptions, MilpProblem, SearchStats, Warmth,
};
use rand::rngs::StdRng;
use rand::{Rng, SeedableRng};

/// A random allocation-shaped MILP that forces real branching. Like the
/// paper's §4.2 programs it mixes `Σ x ≤ ku` caps with `Σ x ≥ kl` floors
/// (frequency lower bounds): the floors are what make phase 1 non-trivial
/// at every node — an all-slack basis is infeasible, a cold solve pays
/// artificial elimination, the basis tier's crash + dual restore skips
/// phase 1 but still rebuilds the tableau, and the carry tier skips the
/// rebuild too (one appended row + O(1) dual pivots per node).
fn try_alloc_problem(nvars: usize, nrows: usize, seed: u64) -> MilpProblem {
    let mut rng = StdRng::seed_from_u64(seed);
    let u: Vec<f64> = (0..nvars)
        .map(|_| rng.gen_range(1..20) as f64 + 0.99)
        .collect();
    let mut lp = LinearProgram::maximize(u);
    for i in 0..nvars {
        lp.set_bounds(i, 0.0, 4.0);
    }
    for row in 0..nrows {
        let k = rng.gen_range(2..=(nvars / 2).max(2));
        let mut members: Vec<usize> = (0..nvars).collect();
        // partial Fisher–Yates: the first k entries are a random subset
        for i in 0..k {
            let j = rng.gen_range(i..nvars);
            members.swap(i, j);
        }
        let terms: Vec<(usize, f64)> = members[..k].iter().map(|&i| (i, 1.0)).collect();
        // fractional capacity: the relaxation can never sit integral here
        let ku = rng.gen_range(5..11) as f64 + 0.5;
        if row % 3 != 0 {
            // a frequency floor on the same membership
            let kl = rng.gen_range(1..3) as f64;
            lp.add_constraint(terms.clone(), ConstraintOp::Ge, kl);
        }
        lp.add_constraint(terms, ConstraintOp::Le, ku);
    }
    MilpProblem::all_integer(lp)
}

/// First `count` *solvable* instances from the seed stream (random floors
/// can conflict across overlapping subsets; infeasible draws are skipped
/// so every mode benches identical productive work).
fn alloc_problems(nvars: usize, nrows: usize, count: usize) -> Vec<(MilpProblem, f64)> {
    let mut out = Vec::new();
    let mut seed = 0u64;
    while out.len() < count {
        let p = try_alloc_problem(nvars, nrows, seed);
        seed += 1;
        if let Ok(sol) = solve_milp(&p, MilpOptions::default()) {
            out.push((p, sol.objective));
        }
    }
    out
}

fn modes() -> Vec<(String, MilpOptions)> {
    let pool = rayon::current_num_threads();
    let tiers = [
        ("cold", Warmth::Cold),
        ("basis", Warmth::Basis),
        ("carry", Warmth::Carry),
    ];
    let mut out = Vec::new();
    for (tier, warmth) in tiers {
        out.push((
            format!("{tier}_seq"),
            MilpOptions {
                threads: 1,
                warmth,
                ..MilpOptions::default()
            },
        ));
    }
    for (tier, warmth) in tiers {
        out.push((
            format!("{tier}_par_{pool}w"),
            MilpOptions {
                threads: 0,
                warmth,
                ..MilpOptions::default()
            },
        ));
    }
    out
}

/// The pivot-count columns that ride next to criterion's timing rows.
fn emit_pivot_profile(id: &str, nodes: u64, s: &SearchStats) {
    emit_bench_json_line(&format!(
        "{{\"id\": \"{id}\", \"nodes\": {nodes}, \"carried_nodes\": {}, \"rebuilt_nodes\": {}, \
         \"carried_pivots\": {}, \"rebuilt_pivots\": {}, \"pivots\": {}}}",
        s.carried_nodes,
        s.rebuilt_nodes,
        s.carried_pivots,
        s.rebuilt_pivots,
        s.pivots()
    ));
}

fn bench_milp(c: &mut Criterion) {
    let sizes = [(10usize, 8usize), (14, 12)];
    let mut group = c.benchmark_group("milp_bnb");
    group.sample_size(10);
    for (nvars, nrows) in sizes {
        let problems = alloc_problems(nvars, nrows, 4);
        for (name, options) in modes() {
            // sanity outside the timed region: every mode proves the same
            // objective on every instance — and its aggregated node/pivot
            // profile becomes the pivot-count columns of the artifact
            let mut nodes = 0u64;
            let mut stats = SearchStats::default();
            for (p, want) in &problems {
                let got = solve_milp(p, options).expect("solvable in every mode");
                assert!(
                    (got.objective - want).abs() < 1e-6,
                    "{name}: {} vs {}",
                    got.objective,
                    want
                );
                nodes += got.nodes as u64;
                stats.carried_nodes += got.search.carried_nodes;
                stats.rebuilt_nodes += got.search.rebuilt_nodes;
                stats.carried_pivots += got.search.carried_pivots;
                stats.rebuilt_pivots += got.search.rebuilt_pivots;
            }
            emit_pivot_profile(
                &format!("milp_pivots/{name}/{nvars}x{nrows}"),
                nodes,
                &stats,
            );
            group.bench_with_input(
                BenchmarkId::new(name, format!("{nvars}x{nrows}")),
                &problems,
                |b, ps| {
                    b.iter(|| {
                        for (p, _) in ps {
                            solve_milp(p, options).expect("solvable");
                        }
                    })
                },
            );
        }
    }
    group.finish();
}

/// Volume-scored branch-variable selection, measured from the engine
/// side: the skewed ordering catalog's allocation MILPs branch on the
/// selective cells' variables first (weights = `2 − Π volume`), against the
/// classic most-fractional rule (`ordering: false`). Node and
/// incumbent-first counts ride next to the timing rows; the uniform
/// control shows the weights are a no-op when nothing is selective.
fn bench_ordering_nodes(c: &mut Criterion) {
    use pc_core::{BoundEngine, BoundOptions};
    use pc_predicate::Predicate;
    use pc_storage::{AggKind, AggQuery};

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
        let (a, b) = (on.bound(&query).unwrap(), off.bound(&query).unwrap());
        assert_eq!((a.range.lo, a.range.hi), (b.range.lo, b.range.hi));
        for (mode, r) in [("scored", &a), ("most_fractional", &b)] {
            emit_bench_json_line(&format!(
                "{{\"id\": \"ordering_nodes/{workload}_{mode}\", \"nodes\": {}, \
                 \"incumbent_first\": {}, \"sat_checks\": {}}}",
                r.solver.nodes, r.solver.incumbent_first, r.stats.sat_checks
            ));
        }
        for (mode, engine) in [("scored", &on), ("most_fractional", &off)] {
            group.bench_function(
                BenchmarkId::new(format!("{workload}_{mode}"), set.len()),
                |b| b.iter(|| engine.bound(&query).unwrap()),
            );
        }
    }
    group.finish();
}

criterion_group!(benches, bench_milp, bench_ordering_nodes);
criterion_main!(benches);
