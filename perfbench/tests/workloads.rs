//! Every workload at tiny scale: each metric is emitted with its unit in
//! both the untraced and the traced run, and a corrupted oracle entry is
//! caught. Run with `cargo test --release` from this directory.

use perfbench::json::{self, Json};
use perfbench::report::{END_TO_END, END_TO_END_EXTRA, PER_LAYER};
use perfbench::{run, Config, WORKLOADS};

fn tiny(seed: u64, trace: bool, corrupt_oracle: bool) -> Config {
    Config {
        seed,
        seconds: 0.6,
        trace,
        corrupt_oracle,
    }
}

/// The result line's metrics, checked against the listed names and units.
fn assert_emitted(workload: &str, text: &str, listed: &[(&str, &str)]) {
    let result =
        json::parse(text.lines().last().expect("a result line")).expect("result line is JSON");
    assert_eq!(
        result.get("correct"),
        Some(&Json::Bool(true)),
        "{workload}: {text}"
    );
    let metrics = result
        .get("metrics")
        .and_then(Json::as_object)
        .expect("metrics object");
    assert_eq!(
        metrics.len(),
        listed.len(),
        "{workload}: exactly the listed metrics"
    );
    for (name, unit) in listed {
        let m = metrics
            .get(*name)
            .unwrap_or_else(|| panic!("{workload}: no {name}"));
        assert_eq!(
            m.get("unit").and_then(Json::as_str),
            Some(*unit),
            "{workload}: unit of {name}"
        );
        assert!(m
            .get("value")
            .and_then(Json::as_f64)
            .is_some_and(f64::is_finite));
    }
}

#[test]
fn every_metric_is_emitted_with_its_unit() {
    for workload in WORKLOADS {
        let untraced = run(workload, &tiny(5, false, false)).expect("untraced run sets up");
        assert!(untraced.correct(), "{workload}: {:?}", untraced.violations);
        let text = untraced.render(workload, false);
        assert_emitted(workload, &text, END_TO_END);
        for (name, unit) in END_TO_END.iter().chain(END_TO_END_EXTRA) {
            assert!(
                text.lines()
                    .any(|l| l.starts_with(&format!("metric {workload} {name} "))
                        && l.ends_with(&format!(" {unit}"))),
                "{workload}: no `{name}` line"
            );
        }
        for name in [
            "setup_s",
            "p50_us",
            "p99_us",
            "qps",
            "exact_frac",
            "peak_rss_mb",
        ] {
            assert!(
                untraced.metrics[name] > 0.0,
                "{workload}: {name} must never be 0"
            );
        }

        let traced = run(workload, &tiny(5, true, false)).expect("traced run sets up");
        assert!(traced.correct(), "{workload}: {:?}", traced.violations);
        assert_emitted(workload, &traced.render(workload, true), PER_LAYER);
        assert!(traced.metrics["trace.spans"] > 0.0, "{workload}: no spans");
    }
}

#[test]
fn a_corrupted_oracle_entry_is_caught() {
    for workload in WORKLOADS {
        for trace in [false, true] {
            let outcome = run(workload, &tiny(6, trace, true)).expect("run sets up");
            assert!(
                outcome.failed > 0,
                "{workload} trace={trace}: corruption went unnoticed"
            );
            assert!(!outcome.correct());
            let text = outcome.render(workload, trace);
            let result = json::parse(text.lines().last().unwrap()).unwrap();
            assert_eq!(result.get("correct"), Some(&Json::Bool(false)));
        }
    }
}
