//! The paper's Fig 7 at quick scale, checked rather than only printed:
//! SAT checks fall strictly from naive enumeration to DFS prefix pruning
//! to DFS plus the rewrite rule, while all three find the same
//! satisfiable cells.

use pc_bench::experiments::fig7;
use pc_bench::Scale;

#[test]
fn fig7_checks_fall_strictly_at_equal_cell_counts() {
    let table = fig7::run(&Scale::quick());
    let strategies: Vec<&str> = table.rows.iter().map(|r| r[0].as_str()).collect();
    assert_eq!(
        strategies,
        ["No Optimization", "DFS", "DFS + Re-writing"],
        "one row per series, in the paper's order"
    );
    let checks: Vec<u64> = table.rows.iter().map(|r| r[1].parse().unwrap()).collect();
    let cells: Vec<usize> = table.rows.iter().map(|r| r[2].parse().unwrap()).collect();
    assert!(cells[0] > 0, "the overlapping set has satisfiable cells");
    assert!(
        cells.iter().all(|&c| c == cells[0]),
        "every strategy finds the same cells: {cells:?}"
    );
    assert!(
        checks[0] > checks[1] && checks[1] > checks[2],
        "SAT checks must fall strictly naive > DFS > DFS + rewrite: {checks:?}"
    );
}
