//! The paper's qualitative claims at quick scale, checked rather than only
//! printed:
//!
//! * Fig 7: SAT checks fall strictly from naive enumeration to DFS prefix
//!   pruning to DFS plus the rewrite rule, while all three find the same
//!   satisfiable cells.
//! * Figs 3, 4, 9, 10, 11 and Tables 1 and 2: the predicate-constraint
//!   methods never fail — the true aggregate lies inside every range they
//!   report.
//! * Fig 6: Corr-PC and Overlapping-PC never fail at any noise level.
//! * Figs 3, 4, 10 and 11: Corr-PC's median over-estimate is below
//!   Rand-PC's on every row.
//! * Fig 12: the fractional-edge-cover bound is at least the true join
//!   size wherever that size is computed, and below the elastic bound.

use pc_bench::experiments::{fig10, fig11, fig12, fig3, fig4, fig6, fig7, fig9, table1, table2};
use pc_bench::{ExpTable, Scale};

/// The value of column `name` in `row`.
fn cell<'r>(table: &ExpTable, row: &'r [String], name: &str) -> &'r str {
    let col = table
        .header
        .iter()
        .position(|h| h == name)
        .unwrap_or_else(|| panic!("{}: no column {name}", table.id));
    &row[col]
}

/// The rows of `method`, in table order.
fn method_rows<'t>(table: &'t ExpTable, method: &str) -> Vec<&'t Vec<String>> {
    table
        .rows
        .iter()
        .filter(|r| cell(table, r, "method") == method)
        .collect()
}

/// `method` reports a zero failure rate on every one of its `n` rows.
fn assert_never_fails(table: &ExpTable, method: &str, n: usize) {
    let rows = method_rows(table, method);
    assert_eq!(rows.len(), n, "{}: {method} rows", table.id);
    for row in rows {
        let failure: f64 = cell(table, row, "failure_pct").parse().unwrap();
        assert_eq!(failure, 0.0, "{}: {method} failed: {row:?}", table.id);
    }
}

/// Corr-PC's median over-estimate is below Rand-PC's on every row; the
/// two methods' rows pair up by their first column.
fn assert_corr_pc_tighter_than_rand_pc(table: &ExpTable) {
    let corr = method_rows(table, "Corr-PC");
    let rand = method_rows(table, "Rand-PC");
    assert!(!corr.is_empty(), "{}: no Corr-PC rows", table.id);
    assert_eq!(corr.len(), rand.len(), "{}", table.id);
    for (c, r) in corr.iter().zip(&rand) {
        assert_eq!(c[0], r[0], "{}: rows pair up", table.id);
        let over = |row: &[String]| -> f64 { cell(table, row, "median_over").parse().unwrap() };
        assert!(
            over(c) < over(r),
            "{}: Corr-PC {c:?} must over-estimate less than Rand-PC {r:?}",
            table.id
        );
    }
}

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

/// Fig 3 (COUNT) at five missing fractions: neither PC method fails, and
/// Corr-PC is the tighter of the two.
#[test]
fn fig3_pc_methods_never_fail() {
    let table = fig3::run(&Scale::quick());
    for method in ["Corr-PC", "Rand-PC"] {
        assert_never_fails(&table, method, 5);
    }
    assert_corr_pc_tighter_than_rand_pc(&table);
}

/// Fig 4: the Fig 3 protocol with SUM.
#[test]
fn fig4_corr_pc_never_fails_and_is_tighter_than_rand_pc() {
    let table = fig4::run(&Scale::quick());
    assert_never_fails(&table, "Corr-PC", 5);
    assert_corr_pc_tighter_than_rand_pc(&table);
}

#[test]
fn fig6_pc_methods_never_fail_under_noise() {
    let table = fig6::run(&Scale::quick());
    for method in ["Corr-PC", "Overlapping-PC"] {
        let levels: Vec<&str> = method_rows(&table, method)
            .iter()
            .map(|r| cell(&table, r, "noise_sd"))
            .collect();
        assert_eq!(levels, ["0", "1", "2", "3"], "{method}: one row per level");
        assert_never_fails(&table, method, 4);
    }
}

#[test]
fn fig9_corr_pc_never_fails_for_min_max_avg() {
    let table = fig9::run(&Scale::quick());
    let aggs: Vec<&str> = table.rows.iter().map(|r| r[0].as_str()).collect();
    assert_eq!(aggs, ["MIN", "MAX", "AVG"]);
    for row in &table.rows {
        let (failures, total) = cell(&table, row, "failures").split_once('/').unwrap();
        assert!(total.parse::<usize>().unwrap() > 0, "{row:?}");
        assert_eq!(failures, "0", "Corr-PC failed: {row:?}");
    }
}

#[test]
fn fig10_corr_pc_never_fails_and_is_tighter_than_rand_pc() {
    let table = fig10::run(&Scale::quick());
    assert_never_fails(&table, "Corr-PC", 2);
    assert_corr_pc_tighter_than_rand_pc(&table);
}

#[test]
fn fig11_corr_pc_never_fails_and_is_tighter_than_rand_pc() {
    let table = fig11::run(&Scale::quick());
    assert_never_fails(&table, "Corr-PC", 2);
    assert_corr_pc_tighter_than_rand_pc(&table);
}

#[test]
fn fig12_fec_bound_covers_the_join_and_undercuts_elastic() {
    let table = fig12::run(&Scale::quick());
    let mut with_truth = 0;
    for row in &table.rows {
        let bound = |name: &str| -> f64 { cell(&table, row, name).parse().unwrap() };
        assert!(
            bound("fec_bound") < bound("elastic_bound"),
            "FEC must be below elastic: {row:?}"
        );
        if cell(&table, row, "true_join_size") != "-" {
            with_truth += 1;
            assert!(
                bound("true_join_size") <= bound("fec_bound"),
                "FEC must bound the true join size: {row:?}"
            );
        }
    }
    assert!(with_truth > 0, "some join size is computed");
}

#[test]
fn table1_corr_pc_never_fails() {
    let table = table1::run(&Scale::quick());
    assert_never_fails(&table, "Corr-PC", 1);
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
