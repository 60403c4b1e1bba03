//! `perfbench compare A B`: two sets of runs side by side. Each set is a
//! directory of files, one run's standard output per file. Per workload ×
//! metric it prints each side's median and quartiles, and for end-to-end
//! metrics whether the sides agree within the bound `BENCHMARK.json` fixes.

use crate::json::{self, Json};
use crate::stats;
use std::collections::BTreeMap;
use std::path::Path;

/// (workload, traced) → metric → (unit, values over the runs).
type RunSet = BTreeMap<(String, bool), BTreeMap<String, (String, Vec<f64>)>>;

/// Read every run in `dir`: its provenance line names the workload and
/// the trace flag, its last line is the result.
pub fn read_runs(dir: &Path) -> Result<RunSet, String> {
    let mut set = RunSet::new();
    let mut entries: Vec<_> = std::fs::read_dir(dir)
        .map_err(|e| format!("{}: {e}", dir.display()))?
        .flatten()
        .map(|e| e.path())
        .filter(|p| p.is_file())
        .collect();
    entries.sort();
    for path in entries {
        let text =
            std::fs::read_to_string(&path).map_err(|e| format!("{}: {e}", path.display()))?;
        let provenance = text
            .lines()
            .find_map(|l| l.strip_prefix("provenance "))
            .and_then(|p| json::parse(p).ok());
        let result = text
            .lines()
            .rev()
            .find(|l| !l.trim().is_empty())
            .and_then(|l| json::parse(l).ok());
        let (Some(provenance), Some(result)) = (provenance, result) else {
            eprintln!("skipping {}: no provenance or result line", path.display());
            continue;
        };
        let workload = provenance
            .get("workload")
            .and_then(Json::as_str)
            .unwrap_or("?")
            .to_string();
        let traced = provenance.get("trace").and_then(Json::as_f64) == Some(1.0);
        let metrics = set.entry((workload, traced)).or_default();
        let mut seen = Vec::new();
        let mut add = |name: &str, value: f64, unit: &str| {
            if seen.iter().any(|s| s == name) {
                return;
            }
            seen.push(name.to_string());
            let slot = metrics
                .entry(name.to_string())
                .or_insert_with(|| (unit.to_string(), Vec::new()));
            slot.1.push(value);
        };
        for (name, m) in result
            .get("metrics")
            .and_then(Json::as_object)
            .into_iter()
            .flatten()
        {
            if let (Some(value), Some(unit)) = (
                m.get("value").and_then(Json::as_f64),
                m.get("unit").and_then(Json::as_str),
            ) {
                add(name, value, unit);
            }
        }
        // the `metric` lines carry the figures kept out of the result line
        for line in text.lines() {
            if let ["metric", _, name, value, unit] =
                line.split_whitespace().collect::<Vec<_>>()[..]
            {
                if let Ok(value) = value.parse() {
                    add(name, value, unit);
                }
            }
        }
    }
    Ok(set)
}

/// Median and quartiles; a single run is its own quartiles.
fn summary(values: &[f64]) -> [f64; 3] {
    stats::quartiles(values).unwrap_or([values[0]; 3])
}

/// `bound` and `better` of every metric `BENCHMARK.json` lists (per-layer
/// metrics have no bound).
fn bounds(bench: &Json) -> BTreeMap<String, (Option<f64>, bool)> {
    let mut out = BTreeMap::new();
    for key in ["end_to_end", "per_layer"] {
        for m in bench.get(key).map(Json::as_array).unwrap_or_default() {
            if let Some(name) = m.get("name").and_then(Json::as_str) {
                let lower = m.get("better").and_then(Json::as_str) != Some("higher");
                out.insert(
                    name.to_string(),
                    (m.get("bound").and_then(Json::as_f64), lower),
                );
            }
        }
    }
    out
}

/// Print the comparison; `Ok(true)` when every bounded metric agrees.
pub fn compare(a: &Path, b: &Path, bench_path: &Path) -> Result<bool, String> {
    let bench_text = std::fs::read_to_string(bench_path)
        .map_err(|e| format!("{}: {e}", bench_path.display()))?;
    let limits = bounds(&json::parse(&bench_text)?);
    let (set_a, set_b) = (read_runs(a)?, read_runs(b)?);
    let mut all_agree = true;
    println!(
        "{:<14} {:<30} {:<12} {:>34} {:>34} {:>8} {:>6}  verdict",
        "workload",
        "metric",
        "unit",
        "A median [q1, q3] (n)",
        "B median [q1, q3] (n)",
        "worse/Δ",
        "bound"
    );
    for ((workload, traced), metrics_a) in &set_a {
        let Some(metrics_b) = set_b.get(&(workload.clone(), *traced)) else {
            println!(
                "{workload}: no runs in {} with trace={}",
                b.display(),
                u8::from(*traced)
            );
            all_agree = false;
            continue;
        };
        for (name, (unit, va)) in metrics_a {
            let Some((_, vb)) = metrics_b.get(name) else {
                continue;
            };
            let (sa, sb) = (summary(va), summary(vb));
            let (bound, lower) = limits.get(name).copied().unwrap_or((None, true));
            let base = sa[1].abs().max(f64::MIN_POSITIVE);
            let worse = if lower { sb[1] - sa[1] } else { sa[1] - sb[1] } / base;
            let verdict = match bound {
                None => "-".to_string(),
                Some(bound) => {
                    let spread = |s: [f64; 3]| (s[2] - s[0]) / s[1].abs().max(f64::MIN_POSITIVE);
                    let steady = name == "setup_s" || (spread(sa) <= bound && spread(sb) <= bound);
                    if worse <= bound && steady {
                        "agree".to_string()
                    } else {
                        all_agree = false;
                        format!("DIFFER (spread A {:.3}, B {:.3})", spread(sa), spread(sb))
                    }
                }
            };
            let cell =
                |s: [f64; 3], n: usize| format!("{:.4} [{:.4}, {:.4}] ({n})", s[1], s[0], s[2]);
            println!(
                "{:<14} {:<30} {:<12} {:>34} {:>34} {:>+8.3} {:>6}  {verdict}",
                workload,
                name,
                unit,
                cell(sa, va.len()),
                cell(sb, vb.len()),
                worse,
                bound.map_or("-".to_string(), |b| format!("{b}")),
            );
        }
    }
    Ok(all_agree)
}
