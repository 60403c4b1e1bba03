//! **Figure 7**: cells evaluated during decomposition of ~20 heavily
//! overlapping PCs — naive 2ⁿ enumeration vs DFS pruning vs DFS plus the
//! rewrite rule. The paper reports >1000× reduction; the counter is
//! satisfiability-solver invocations.
//!
//! The third row runs [`Strategy::DfsRewrite`], whose rewrite rule is
//! generalized into a witness carried down the DFS: a known point of the
//! prefix settles one branch of every split, so it pays one probe per
//! split where the paper's rule saves the second probe only when the
//! include branch is empty. It therefore sits further below the DFS row
//! than the paper's third series. `tests/reproduction.rs` asserts the
//! strict order of all three rows at equal cell counts.

use super::intel_missing;
use crate::harness::Scale;
use crate::ExpTable;
use pc_core::{
    decompose, FrequencyConstraint, PcSet, PredicateConstraint, Strategy, ValueConstraint,
};
use pc_datagen::intel::cols;
use pc_predicate::{Atom, Predicate, Region};
use rand::rngs::StdRng;
use rand::{Rng, SeedableRng};

/// Heavily overlapping random boxes over (device, epoch), as in §6.4:
/// "20 random PCs that are very significantly overlapping".
pub fn overlapping_set(missing_like: &pc_storage::Table, n: usize, seed: u64) -> PcSet {
    let mut rng = StdRng::seed_from_u64(seed);
    let mut set = PcSet::new(missing_like.schema().clone());
    let attrs = [cols::DEVICE, cols::EPOCH];
    let domains: Vec<(f64, f64)> = attrs
        .iter()
        .map(|&a| missing_like.attr_range(a).unwrap_or((0.0, 1.0)))
        .collect();
    for _ in 0..n {
        let mut pred = Predicate::always();
        for (&attr, &(lo, hi)) in attrs.iter().zip(&domains) {
            let span = hi - lo;
            // wide boxes (40-90% of the domain) to force overlap
            let w = span * rng.gen_range(0.4..0.9);
            let start = lo + rng.gen_range(0.0..(span - w).max(f64::MIN_POSITIVE));
            pred = pred.and(Atom::between(attr, start, start + w));
        }
        set.push(PredicateConstraint::new(
            pred,
            ValueConstraint::none(),
            FrequencyConstraint::at_most(100),
        ));
    }
    set
}

/// Run the experiment.
pub fn run(scale: &Scale) -> ExpTable {
    // naive enumerates 2^n cells; keep n tractable in quick mode
    let n = if scale.queries >= 500 { 20 } else { 14 };
    let (missing, _) = intel_missing(scale, 0.3);
    let set = overlapping_set(&missing, n, 7);
    let base = Region::full(set.schema());
    let mut rows = Vec::new();
    for (name, strategy) in [
        ("No Optimization", Strategy::Naive),
        ("DFS", Strategy::Dfs),
        ("DFS + Re-writing", Strategy::DfsRewrite),
    ] {
        let (cells, stats) =
            decompose(&set, &base, strategy).expect("n is within the naive strategy's limit");
        rows.push(vec![
            name.into(),
            stats.sat_checks.to_string(),
            cells.len().to_string(),
        ]);
    }
    ExpTable {
        id: "fig7",
        title: "Cells evaluated during decomposition of heavily overlapping PCs",
        header: vec![
            "strategy".into(),
            "sat_checks".into(),
            "satisfiable_cells".into(),
        ],
        rows,
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn pruning_reduces_checks_dramatically() {
        let mut s = Scale::quick();
        s.rows = 2000;
        let t = run(&s);
        let naive: f64 = t.rows[0][1].parse().unwrap();
        let dfs: f64 = t.rows[1][1].parse().unwrap();
        let rw: f64 = t.rows[2][1].parse().unwrap();
        assert!(
            naive > 10.0 * rw,
            "rewrite must prune ≫: naive {naive} vs {rw}"
        );
        assert!(dfs >= rw, "rewrite only removes checks");
        // all strategies agree on the satisfiable cells
        assert_eq!(t.rows[0][2], t.rows[1][2]);
        assert_eq!(t.rows[0][2], t.rows[2][2]);
    }
}
