//! Property-based equivalence of the tableau-carry tier (tier 3): a
//! branch & bound that answers each child from the parent's carried
//! canonical tableau must prove the same objective as the cold oracle on
//! random PC-allocation-shaped MILPs (`max u·x` over
//! `kl ≤ Σ_{i∈S} xᵢ ≤ ku` rows with `0 ≤ xᵢ ≤ cap`), sequentially and on
//! a pinned 4-worker pool — plus the pivot-count regression: carried
//! nodes must pivot strictly less (per node) than rebuilt nodes on
//! Ge-bearing programs, the measured O(m) → O(1) claim of the carry.
//!
//! Like `vendor/rayon/tests/stress.rs`, this binary pins
//! `RAYON_NUM_THREADS=4` before anything touches the pool, so the
//! parallel tests really run on four workers even on a single-core CI
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

const COLD: MilpOptions = MilpOptions {
    node_limit: 50_000,
    best_effort: false,
    threads: 1,
    warmth: Warmth::Cold,
};

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
                prop_assert!(sol.proven_optimal, "{label}: not proven");
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
    fn carry_matches_cold_sequential(p in arb_problem()) {
        pool4();
        let problem = MilpProblem::all_integer(build_lp(&p));
        let cold = solve_milp(&problem, COLD);
        let carry = solve_milp(&problem, MilpOptions { threads: 1, ..MilpOptions::default() });
        assert_equivalent("cold vs carry(seq)", &cold, &carry, &problem.lp)?;
    }

    #[test]
    fn carry_matches_cold_parallel(p in arb_problem()) {
        pool4();
        let problem = MilpProblem::all_integer(build_lp(&p));
        let cold = solve_milp(&problem, COLD);
        let carry = solve_milp(&problem, MilpOptions { threads: 0, ..MilpOptions::default() });
        assert_equivalent("cold vs carry(4w)", &cold, &carry, &problem.lp)?;
    }

    #[test]
    fn carry_matches_basis_tier(p in arb_problem()) {
        pool4();
        let problem = MilpProblem::all_integer(build_lp(&p));
        let basis = solve_milp(&problem, MilpOptions {
            threads: 1, warmth: Warmth::Basis, ..MilpOptions::default()
        });
        let carry = solve_milp(&problem, MilpOptions { threads: 1, ..MilpOptions::default() });
        assert_equivalent("basis vs carry", &basis, &carry, &problem.lp)?;
    }
}

/// A deterministic Ge-bearing allocation instance big enough that the
/// search genuinely branches (fractional row capacities force it).
fn branching_instance(shift: f64) -> MilpProblem {
    let mut lp =
        LinearProgram::maximize(vec![5.9 + shift, 4.9, 3.9 + shift, 6.9, 2.9, 4.4 + shift]);
    lp.add_constraint(vec![(0, 1.0), (1, 1.0), (2, 1.0)], ConstraintOp::Ge, 2.0);
    lp.add_constraint(vec![(2, 1.0), (3, 1.0), (4, 1.0)], ConstraintOp::Ge, 3.0);
    lp.add_constraint(vec![(3, 1.0), (4, 1.0), (5, 1.0)], ConstraintOp::Ge, 1.0);
    lp.add_constraint(
        vec![(0, 2.0), (1, 3.0), (2, 1.0), (3, 2.0)],
        ConstraintOp::Le,
        9.5,
    );
    lp.add_constraint(
        vec![(0, 4.0), (1, 1.0), (2, 2.0), (4, 1.0)],
        ConstraintOp::Le,
        10.5,
    );
    lp.add_constraint(
        vec![(1, 1.0), (2, 4.0), (3, 3.0), (5, 2.0)],
        ConstraintOp::Le,
        8.5,
    );
    for i in 0..6 {
        lp.set_bounds(i, 0.0, 4.0);
    }
    MilpProblem::all_integer(lp)
}

/// The pivot-count regression the ISSUE demands: on Ge-bearing programs,
/// nodes answered from a carried tableau pivot strictly less (per node)
/// than nodes that rebuild + crash — the O(m) rebuild elimination,
/// asserted rather than eyeballed.
#[test]
fn carried_nodes_pivot_strictly_less_than_rebuilt() {
    pool4();
    let mut carried_avgs = Vec::new();
    let mut rebuilt_avgs = Vec::new();
    for step in 0..4 {
        let problem = branching_instance(f64::from(step) * 0.3);
        let carry = solve_milp(&problem, MilpOptions::default()).expect("solvable");
        let basis = solve_milp(
            &problem,
            MilpOptions {
                warmth: Warmth::Basis,
                ..MilpOptions::default()
            },
        )
        .expect("solvable");
        assert!(
            (carry.objective - basis.objective).abs() < 1e-6,
            "objectives must agree: {} vs {}",
            carry.objective,
            basis.objective
        );
        assert!(
            carry.search.carried_nodes > 0,
            "instance {step} never carried: {:?}",
            carry.search
        );
        carried_avgs.push(carry.search.carried_pivots as f64 / carry.search.carried_nodes as f64);
        rebuilt_avgs.push(basis.search.rebuilt_pivots as f64 / basis.search.rebuilt_nodes as f64);
    }
    for (i, (c, r)) in carried_avgs.iter().zip(&rebuilt_avgs).enumerate() {
        assert!(
            c < r,
            "instance {i}: carried {c:.2} pivots/node must beat rebuilt {r:.2}"
        );
    }
}
