//! Property-based tests for cell decomposition: all exact strategies must
//! produce the same satisfiable cells on arbitrary overlapping constraint
//! sets, early stopping must only add cells, cells must genuinely
//! partition the predicate space (witnesses are exclusive), and the
//! parallel fork/join driver must emit exactly the sequential result
//! (run under the eager gate, so it forks at every eligible split).

use pc_core::{
    decompose, decompose_with, FrequencyConstraint, Parallelism, PcSet, PredicateConstraint,
    Strategy, ValueConstraint,
};
use pc_predicate::{Atom, AttrType, Interval, Predicate, Region, Schema};
use proptest::prelude::*;

const D: i64 = 10;

fn schema() -> Schema {
    Schema::new(vec![("x", AttrType::Int), ("y", AttrType::Int)])
}

prop_compose! {
    fn arb_box()(a in 0..=D, b in 0..=D, c in 0..=D, d in 0..=D) -> Predicate {
        Predicate::always()
            .and(Atom::between(0, a.min(b) as f64, a.max(b) as f64))
            .and(Atom::between(1, c.min(d) as f64, c.max(d) as f64))
    }
}

fn build_set(preds: Vec<Predicate>) -> PcSet {
    let mut set = PcSet::new(schema());
    for p in preds {
        set.push(PredicateConstraint::new(
            p,
            ValueConstraint::none(),
            FrequencyConstraint::at_most(10),
        ));
    }
    set
}

fn signatures(cells: &[pc_core::Cell]) -> Vec<Vec<usize>> {
    let mut sigs: Vec<Vec<usize>> = cells.iter().map(|c| c.active.to_vec()).collect();
    sigs.sort();
    sigs
}

proptest! {
    #![proptest_config(ProptestConfig::with_cases(64))]

    #[test]
    fn exact_strategies_agree(preds in prop::collection::vec(arb_box(), 1..6)) {
        let set = build_set(preds);
        let base = Region::full(set.schema());
        let (naive, _) = decompose(&set, &base, Strategy::Naive).unwrap();
        let (dfs, _) = decompose(&set, &base, Strategy::Dfs).unwrap();
        let (rw, _) = decompose(&set, &base, Strategy::DfsRewrite).unwrap();
        prop_assert_eq!(signatures(&naive), signatures(&dfs));
        prop_assert_eq!(signatures(&naive), signatures(&rw));
    }

    #[test]
    fn early_stop_is_a_superset(preds in prop::collection::vec(arb_box(), 2..6), depth in 0usize..4) {
        let set = build_set(preds);
        let base = Region::full(set.schema());
        let (exact, _) = decompose(&set, &base, Strategy::DfsRewrite).unwrap();
        let (approx, stats) = decompose(&set, &base, Strategy::EarlyStop { depth }).unwrap();
        let exact_sigs = signatures(&exact);
        let approx_sigs = signatures(&approx);
        for sig in &exact_sigs {
            prop_assert!(approx_sigs.contains(sig), "lost satisfiable cell {:?}", sig);
        }
        // approximation admits cells without verifying — never fewer
        prop_assert!(approx_sigs.len() >= exact_sigs.len());
        if depth < set.len() {
            prop_assert!(stats.assumed_sat > 0);
        }
    }

    #[test]
    fn parallel_equals_sequential(
        preds in prop::collection::vec(arb_box(), 1..7),
        threads in 2usize..9,
    ) {
        let set = build_set(preds);
        let base = Region::full(set.schema());
        let (seq_cells, seq_stats) = decompose(&set, &base, Strategy::DfsRewrite).unwrap();
        let par = Parallelism { threads, eager: true };
        let (par_cells, par_stats) =
            decompose_with(&set, &base, Strategy::DfsRewrite, par).unwrap();
        // identical cells in identical order — not merely as a set
        prop_assert_eq!(seq_cells.len(), par_cells.len());
        for (s, p) in seq_cells.iter().zip(&par_cells) {
            prop_assert_eq!(s.active.to_vec(), p.active.to_vec());
            prop_assert_eq!(&s.witness, &p.witness);
            prop_assert!(*s.region == *p.region, "cell boxes must match");
        }
        // every counter except the parallel bookkeeping is identical
        prop_assert_eq!(seq_stats.sat_checks, par_stats.sat_checks);
        prop_assert_eq!(seq_stats.cells, par_stats.cells);
        prop_assert_eq!(seq_stats.pruned_subtrees, par_stats.pruned_subtrees);
        prop_assert_eq!(seq_stats.rewrite_skips, par_stats.rewrite_skips);
        prop_assert_eq!(seq_stats.assumed_sat, par_stats.assumed_sat);
    }

    #[test]
    fn parallel_early_stop_equals_sequential(
        preds in prop::collection::vec(arb_box(), 2..6),
        depth in 0usize..4,
        threads in 2usize..6,
    ) {
        let set = build_set(preds);
        let base = Region::full(set.schema());
        let strategy = Strategy::EarlyStop { depth };
        let (seq_cells, seq_stats) = decompose(&set, &base, strategy).unwrap();
        let par = Parallelism { threads, eager: true };
        let (par_cells, par_stats) = decompose_with(&set, &base, strategy, par).unwrap();
        prop_assert_eq!(signatures(&seq_cells), signatures(&par_cells));
        prop_assert_eq!(seq_stats.assumed_sat, par_stats.assumed_sat);
        prop_assert_eq!(seq_stats.sat_checks, par_stats.sat_checks);
    }

    #[test]
    fn witnesses_are_exclusive(preds in prop::collection::vec(arb_box(), 1..6)) {
        let set = build_set(preds);
        let base = Region::full(set.schema());
        let (cells, _) = decompose(&set, &base, Strategy::DfsRewrite).unwrap();
        for cell in &cells {
            let w = cell.witness.as_ref().expect("exact mode emits witnesses");
            for (j, pc) in set.constraints().iter().enumerate() {
                prop_assert_eq!(
                    pc.predicate.eval(w),
                    cell.is_active(j),
                    "witness must match the cell's activity pattern exactly"
                );
            }
        }
    }

    #[test]
    fn every_grid_point_in_exactly_one_cell_or_uncovered(
        preds in prop::collection::vec(arb_box(), 1..5)
    ) {
        // disjointness: a domain point matching some predicate belongs to
        // exactly one emitted cell's activity pattern
        let set = build_set(preds);
        let base = Region::full(set.schema());
        let (cells, _) = decompose(&set, &base, Strategy::DfsRewrite).unwrap();
        for x in 0..=D {
            for y in 0..=D {
                let row = [x as f64, y as f64];
                let active: Vec<usize> = set
                    .constraints()
                    .iter()
                    .enumerate()
                    .filter(|(_, pc)| pc.predicate.eval(&row))
                    .map(|(j, _)| j)
                    .collect();
                let matching = cells
                    .iter()
                    .filter(|c| c.active.to_vec() == active)
                    .count();
                if active.is_empty() {
                    prop_assert_eq!(matching, 0, "all-negative points spawn no cell");
                } else {
                    prop_assert_eq!(matching, 1, "point ({},{}) pattern {:?}", x, y, active);
                }
            }
        }
    }

    #[test]
    fn pushdown_never_loses_query_cells(
        preds in prop::collection::vec(arb_box(), 1..5),
        qa in 0..=D, qb in 0..=D,
    ) {
        // decomposing inside the query region finds exactly the activity
        // patterns realized by points inside the region
        let set = build_set(preds);
        let (qlo, qhi) = (qa.min(qb) as f64, qa.max(qb) as f64);
        let mut base = Region::full(set.schema());
        base.intersect_atom(&Atom::between(0, qlo, qhi));
        let (cells, _) = decompose(&set, &base, Strategy::DfsRewrite).unwrap();
        let sigs = signatures(&cells);
        for x in (qlo as i64)..=(qhi as i64) {
            for y in 0..=D {
                let row = [x as f64, y as f64];
                let active: Vec<usize> = set
                    .constraints()
                    .iter()
                    .enumerate()
                    .filter(|(_, pc)| pc.predicate.eval(&row))
                    .map(|(j, _)| j)
                    .collect();
                if !active.is_empty() {
                    prop_assert!(
                        sigs.contains(&active),
                        "pattern {:?} at ({},{}) missing under pushdown", active, x, y
                    );
                }
            }
        }
    }

    #[test]
    fn interval_domains_respected(preds in prop::collection::vec(arb_box(), 1..5)) {
        // a restricted domain excludes cells outside it
        let mut set = build_set(preds);
        let mut domain = Region::full(set.schema());
        domain.set_interval(0, Interval::closed(0.0, 3.0));
        set.set_domain(domain.clone());
        let (cells, _) = decompose(&set, &domain, Strategy::DfsRewrite).unwrap();
        for cell in &cells {
            let w = cell.witness.as_ref().unwrap();
            prop_assert!(w[0] <= 3.0, "witness escaped the domain");
        }
    }
}
