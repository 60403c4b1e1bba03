//! The paper's qualitative claims at quick scale, checked rather than only
//! printed:
//!
//! * Fig 7: SAT checks fall strictly from naive enumeration to DFS prefix
//!   pruning to DFS plus the rewrite rule, while all three find the same
//!   satisfiable cells.
//! * Fig 3 and Table 2: the predicate-constraint methods never fail — the
//!   true aggregate lies inside every range they report.

use pc_bench::experiments::{fig3, fig7, table2};
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

#[test]
fn fig3_pc_methods_never_fail() {
    let table = fig3::run(&Scale::quick());
    for method in ["Corr-PC", "Rand-PC"] {
        let rows: Vec<&Vec<String>> = table.rows.iter().filter(|r| r[1] == method).collect();
        assert_eq!(rows.len(), 5, "{method}: one row per missing fraction");
        for row in rows {
            let failure: f64 = row[2].parse().unwrap();
            assert_eq!(
                failure, 0.0,
                "{method} failed at missing fraction {}",
                row[0]
            );
        }
    }
}

#[test]
fn table2_corr_pc_column_is_zero() {
    let table = table2::run(&Scale::quick());
    let col = table.header.iter().position(|h| h == "Corr-PC").unwrap();
    assert!(!table.rows.is_empty());
    for row in &table.rows {
        assert_eq!(row[col], "0", "Corr-PC failures must be zero: {row:?}");
    }
}
