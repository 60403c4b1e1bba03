//! Property-based equivalence of the branch & bound execution modes:
//! parallel must prove the same objective as sequential, and warm-started
//! must prove the same objective as cold, on random PC-allocation-shaped
//! MILPs (`max u·x` over `kl ≤ Σ_{i∈S} xᵢ ≤ ku` rows with `0 ≤ xᵢ ≤ cap`).
//!
//! Like `vendor/rayon/tests/stress.rs`, this binary pins
//! `RAYON_NUM_THREADS=4` before anything touches the pool, so the
//! parallel mode really runs on four workers even on a single-core CI
//! container (more workers than cores = maximum interleaving).

use pc_solver::{
    solve_milp, ConstraintOp, LinearProgram, MilpOptions, MilpProblem, SolverError, Warmth,
};
use proptest::prelude::*;
use std::sync::Once;

fn pool4() {
    static INIT: Once = Once::new();
    INIT.call_once(|| {
        std::env::set_var("RAYON_NUM_THREADS", "4");
        assert_eq!(rayon::current_num_threads(), 4);
    });
}

const NVARS: usize = 6;
const CAP: i64 = 5;

#[derive(Debug, Clone)]
struct AllocProblem {
    u: Vec<f64>,
    // (membership bitmask over NVARS, kl, ku)
    rows: Vec<(u8, i64, i64)>,
}

prop_compose! {
    fn arb_problem()(
        u in prop::collection::vec(-6..=6i64, NVARS),
        rows in prop::collection::vec(
            (1u8..(1 << NVARS), 0..=9i64, 0..=9i64),
            1..6,
        ),
    ) -> AllocProblem {
        AllocProblem {
            u: u.into_iter().map(|v| v as f64).collect(),
            rows: rows
                .into_iter()
                .map(|(mask, a, b)| (mask, a.min(b), a.max(b)))
                .collect(),
        }
    }
}

fn build_lp(p: &AllocProblem) -> LinearProgram {
    let mut lp = LinearProgram::maximize(p.u.clone());
    for i in 0..NVARS {
        lp.set_bounds(i, 0.0, CAP as f64);
    }
    for &(mask, kl, ku) in &p.rows {
        let terms: Vec<(usize, f64)> = (0..NVARS)
            .filter(|i| mask & (1 << i) != 0)
            .map(|i| (i, 1.0))
            .collect();
        lp.add_constraint(terms.clone(), ConstraintOp::Ge, kl as f64);
        lp.add_constraint(terms, ConstraintOp::Le, ku as f64);
    }
    lp
}

fn assert_equivalent(
    label: &str,
    a: &Result<pc_solver::MilpSolution, SolverError>,
    b: &Result<pc_solver::MilpSolution, SolverError>,
    lp: &LinearProgram,
) -> Result<(), TestCaseError> {
    match (a, b) {
        (Ok(sa), Ok(sb)) => {
            prop_assert!(
                (sa.objective - sb.objective).abs() < 1e-6,
                "{label}: {} vs {}",
                sa.objective,
                sb.objective
            );
            for sol in [sa, sb] {
                prop_assert!(lp.is_feasible(&sol.x, 1e-5), "{label}: infeasible x");
                for v in &sol.x {
                    prop_assert!((v - v.round()).abs() < 1e-6, "{label}: fractional x");
                }
            }
        }
        (Err(ea), Err(eb)) => prop_assert_eq!(ea, eb, "{}: errors differ", label),
        (a, b) => prop_assert!(false, "{label}: {a:?} vs {b:?}"),
    }
    Ok(())
}

proptest! {
    #![proptest_config(ProptestConfig::with_cases(96))]

    #[test]
    fn parallel_bnb_matches_sequential(p in arb_problem()) {
        pool4();
        let problem = MilpProblem::all_integer(build_lp(&p));
        let seq = solve_milp(&problem, MilpOptions { threads: 1, ..MilpOptions::default() });
        let par = solve_milp(&problem, MilpOptions { threads: 0, ..MilpOptions::default() });
        assert_equivalent("seq vs par", &seq, &par, &problem.lp)?;
    }

    #[test]
    fn warm_bnb_matches_cold(p in arb_problem()) {
        pool4();
        let problem = MilpProblem::all_integer(build_lp(&p));
        let cold = solve_milp(&problem, MilpOptions {
            warmth: Warmth::Cold, ..MilpOptions::default()
        });
        let warm = solve_milp(&problem, MilpOptions {
            warmth: Warmth::Basis, ..MilpOptions::default()
        });
        assert_equivalent("cold vs warm", &cold, &warm, &problem.lp)?;
    }

    #[test]
    fn parallel_warm_matches_sequential_cold(p in arb_problem()) {
        pool4();
        let problem = MilpProblem::all_integer(build_lp(&p));
        let base = solve_milp(&problem, MilpOptions {
            threads: 1, warmth: Warmth::Cold, ..MilpOptions::default()
        });
        let fast = solve_milp(&problem, MilpOptions {
            threads: 0, warmth: Warmth::Basis, ..MilpOptions::default()
        });
        assert_equivalent("baseline vs parallel+warm", &base, &fast, &problem.lp)?;
    }

    #[test]
    fn parallel_repeats_are_self_consistent(p in arb_problem()) {
        pool4();
        // scheduling nondeterminism must never leak into the objective
        let problem = MilpProblem::all_integer(build_lp(&p));
        let opts = MilpOptions { threads: 0, ..MilpOptions::default() };
        let first = solve_milp(&problem, opts);
        for _ in 0..3 {
            let again = solve_milp(&problem, opts);
            assert_equivalent("repeat", &first, &again, &problem.lp)?;
        }
    }
}

/// A 0-1 knapsack with a second, partial capacity row: hundreds of
/// branch & bound nodes, so a parallel search runs well past the fork
/// gate's grain before it finishes.
fn long_knapsack(n: usize) -> LinearProgram {
    let w: Vec<f64> = (0..n).map(|i| (37 + (i * 53) % 71) as f64).collect();
    let v: Vec<f64> = w
        .iter()
        .enumerate()
        .map(|(i, wi)| wi + ((i * 29) % 13) as f64)
        .collect();
    let mut lp = LinearProgram::maximize(v);
    for i in 0..n {
        lp.set_bounds(i, 0.0, 1.0);
    }
    let cap = w.iter().sum::<f64>() / 2.0 + 0.5;
    lp.add_constraint((0..n).map(|i| (i, w[i])).collect(), ConstraintOp::Le, cap);
    lp.add_constraint(
        (0..n).step_by(2).map(|i| (i, w[i])).collect(),
        ConstraintOp::Le,
        cap / 2.0 + 7.5,
    );
    lp
}

#[test]
fn long_parallel_search_proves_the_sequential_optimum() {
    // The small random programs above finish before the fork gate opens;
    // these run past it, so their children really fork onto the pool.
    pool4();
    for n in [12, 14, 16] {
        let problem = MilpProblem::all_integer(long_knapsack(n));
        let seq = solve_milp(
            &problem,
            MilpOptions {
                threads: 1,
                ..MilpOptions::default()
            },
        );
        assert!(seq.as_ref().is_ok_and(|s| s.nodes > 100), "{seq:?}");
        for _ in 0..2 {
            let par = solve_milp(
                &problem,
                MilpOptions {
                    threads: 0,
                    ..MilpOptions::default()
                },
            );
            assert_equivalent("long seq vs par", &seq, &par, &problem.lp).unwrap();
        }
    }
}
