//! Criterion bench for the LP/MILP substrate on PC-shaped allocation
//! problems (§4.2): interval row-sum constraints over cell variables.

use criterion::{criterion_group, criterion_main, BenchmarkId, Criterion};
use pc_solver::{
    greedy, solve_lp, solve_milp, ConstraintOp, LinearProgram, MilpOptions, MilpProblem,
};
use rand::rngs::StdRng;
use rand::{Rng, SeedableRng};

/// A random PC-shaped allocation problem: `cells` variables, `rows`
/// interval constraints over random subsets.
fn pc_shaped(cells: usize, rows: usize, seed: u64) -> LinearProgram {
    let mut rng = StdRng::seed_from_u64(seed);
    let obj: Vec<f64> = (0..cells).map(|_| rng.gen_range(0.0..150.0)).collect();
    let mut lp = LinearProgram::maximize(obj);
    let mut covered = vec![false; cells];
    for _ in 0..rows {
        let members: Vec<(usize, f64)> = (0..cells)
            .filter(|_| rng.gen_bool(0.3))
            .map(|i| (i, 1.0))
            .collect();
        if members.is_empty() {
            continue;
        }
        for &(i, _) in &members {
            covered[i] = true;
        }
        let ku = rng.gen_range(10.0..100.0_f64).round();
        lp.add_constraint(members.clone(), ConstraintOp::Le, ku);
        if rng.gen_bool(0.5) {
            lp.add_constraint(members, ConstraintOp::Ge, (ku / 4.0).round());
        }
    }
    // every real PC cell sits under at least one frequency cap; give any
    // uncovered variable one, or the program is unbounded by construction
    let stragglers: Vec<(usize, f64)> = covered
        .iter()
        .enumerate()
        .filter(|(_, c)| !**c)
        .map(|(i, _)| (i, 1.0))
        .collect();
    if !stragglers.is_empty() {
        lp.add_constraint(stragglers, ConstraintOp::Le, 100.0);
    }
    lp
}

fn bench_solvers(c: &mut Criterion) {
    let mut group = c.benchmark_group("solver");
    group.sample_size(10);
    for (cells, rows) in [(20usize, 8usize), (60, 20), (200, 40)] {
        let lp = pc_shaped(cells, rows, 42);
        group.bench_with_input(
            BenchmarkId::new("simplex_lp", format!("{cells}x{rows}")),
            &lp,
            |b, lp| b.iter(|| solve_lp(lp).expect("lp")),
        );
        let milp = MilpProblem::all_integer(lp.clone());
        group.bench_with_input(
            BenchmarkId::new("milp_bb", format!("{cells}x{rows}")),
            &milp,
            |b, p| {
                b.iter(|| {
                    solve_milp(
                        p,
                        MilpOptions {
                            node_limit: 20_000,
                            ..MilpOptions::default()
                        },
                    )
                    .expect("milp")
                })
            },
        );
    }
    // the disjoint greedy path at Fig 8 scale
    let u: Vec<f64> = (0..2000).map(|i| (i % 157) as f64).collect();
    let freq: Vec<(f64, f64)> = (0..2000).map(|i| (0.0, (i % 91 + 1) as f64)).collect();
    group.bench_function("greedy_disjoint_2000", |b| {
        b.iter(|| greedy::maximize_disjoint(&u, &freq))
    });
    group.finish();
}

criterion_group!(benches, bench_solvers);
criterion_main!(benches);
