//! Metric names and units, the result line, and the provenance line.

use crate::json::quote;
use std::collections::BTreeMap;

/// End-to-end metrics of the result line, measured untraced on every
/// workload: the ones that stay within their bound from run to run on a
/// shared 2-vCPU host, so a change can be gated on them.
pub const END_TO_END: &[(&str, &str)] = &[
    ("setup_s", "s"),
    ("p50_us", "us"),
    ("exact_frac", "frac"),
    ("peak_rss_mb", "MB"),
];

/// End-to-end figures printed as `metric` lines but kept out of the
/// result line: `p99_us` and `qps` spread up to 0.3 (interquartile range
/// over median) across ten runs on such a host, more than any bound a
/// gated metric may have; `failed_frac` is 0 on a correct run (the line's
/// `failed` carries it); `mutation_p50_us` exists only where mutations
/// run (`serve_churn`; it is also in [`PER_LAYER`]).
pub const END_TO_END_EXTRA: &[(&str, &str)] = &[
    ("p99_us", "us"),
    ("qps", "1/s"),
    ("failed_frac", "frac"),
    ("mutation_p50_us", "us"),
];

/// Per-layer metrics of the traced run, emitted on every workload (0
/// where the workload leaves the layer idle).
pub const PER_LAYER: &[(&str, &str)] = &[
    ("serve.parse_us", "us"),
    ("serve.format_us", "us"),
    ("serve.wire_us", "us"),
    ("pressure.admit_us", "us"),
    ("pressure.queue_wait_p50_us", "us"),
    ("pressure.queue_wait_p99_us", "us"),
    ("pressure.exact", "count"),
    ("pressure.degraded", "count"),
    ("pressure.shed", "count"),
    ("session.bound_p50_us", "us"),
    ("session.bound_p99_us", "us"),
    ("session.cells_build_ms", "ms"),
    ("session.derive_us", "us"),
    ("specialize.sat_checks", "count/query"),
    ("decompose.build_ms", "ms"),
    ("decompose.sat_checks", "count/query"),
    ("decompose.cells", "count/query"),
    ("decompose.cells_per_sat_check", "frac"),
    ("decompose.pruned_subtrees", "count/query"),
    ("estimate.ordered_splits", "count/query"),
    ("shard.shards", "count/query"),
    ("shard.max_constraints", "count/query"),
    ("decompose.incremental_splits", "count/mutation"),
    ("derive.sat_checks", "count/mutation"),
    ("pcset.closure_us", "us"),
    ("solver.pivots", "count/query"),
    ("solver.nodes", "count/query"),
    ("solver.incumbent_first", "count/query"),
    ("solver.carried_frac", "frac"),
    ("groupby.bound_ms", "ms"),
    ("groupby.keys", "count/query"),
    ("groupby.splice_memo_hits", "count/query"),
    ("loadgen.late_p99_us", "us"),
    ("mutation_p50_us", "us"),
    ("trace.overhead_pct", "%"),
    ("trace.spans", "count"),
];

/// What one run measured and checked.
#[derive(Debug, Default)]
pub struct Outcome {
    pub attempted: u64,
    /// ERR responses, unanswered requests and oracle violations.
    pub failed: u64,
    /// The first few violations, for the log.
    pub violations: Vec<String>,
    pub metrics: BTreeMap<&'static str, f64>,
}

impl Outcome {
    /// Count one failed request, keeping its reason for the log.
    pub fn fail(&mut self, why: String) {
        self.failed += 1;
        if self.violations.len() < 10 {
            self.violations.push(why);
        }
    }

    /// Fold in the attempts and failures another thread counted.
    pub fn merge(&mut self, other: Outcome) {
        self.attempted += other.attempted;
        self.failed += other.failed;
        for v in other.violations {
            if self.violations.len() < 10 {
                self.violations.push(v);
            }
        }
    }

    pub fn set(&mut self, name: &'static str, value: f64) {
        self.metrics.insert(name, value);
    }

    pub fn correct(&self) -> bool {
        self.failed == 0 && self.attempted > 0
    }

    /// Every metric of `names` by name and unit, 0 where not measured.
    fn lines(
        &self,
        names: &[(&'static str, &'static str)],
    ) -> Vec<(&'static str, &'static str, f64)> {
        names
            .iter()
            .map(|&(n, u)| (n, u, self.metrics.get(n).copied().unwrap_or(0.0)))
            .collect()
    }

    /// Every metric of the run by name and unit, one `metric` line each,
    /// then the result line: end-to-end metrics untraced, per-layer
    /// metrics traced.
    pub fn render(&self, workload: &str, traced: bool) -> String {
        let mut text = String::new();
        for v in &self.violations {
            text.push_str(&format!("violation {workload}: {v}\n"));
        }
        let shown: Vec<_> = if traced {
            self.lines(PER_LAYER)
        } else {
            let mut all = self.lines(END_TO_END);
            all.extend(self.lines(END_TO_END_EXTRA));
            all
        };
        for (name, unit, value) in &shown {
            text.push_str(&format!("metric {workload} {name} {value} {unit}\n"));
        }
        let listed = if traced { PER_LAYER } else { END_TO_END };
        let metrics: Vec<String> = self
            .lines(listed)
            .iter()
            .map(|(n, u, v)| {
                format!(
                    "{}: {{\"value\": {}, \"unit\": {}}}",
                    quote(n),
                    num(*v),
                    quote(u)
                )
            })
            .collect();
        text.push_str(&format!(
            "{{\"correct\": {}, \"attempted\": {}, \"failed\": {}, \"metrics\": {{{}}}}}\n",
            self.correct(),
            self.attempted,
            self.failed,
            metrics.join(", ")
        ));
        text
    }
}

/// A finite JSON number with all its digits.
fn num(v: f64) -> String {
    if v.is_finite() {
        format!("{v:?}")
    } else {
        "0.0".into()
    }
}

/// Peak resident set size of this process in MB (`VmHWM`).
pub fn peak_rss_mb() -> f64 {
    std::fs::read_to_string("/proc/self/status")
        .ok()
        .and_then(|s| {
            s.lines()
                .find_map(|l| l.strip_prefix("VmHWM:"))
                .and_then(|v| v.trim().trim_end_matches("kB").trim().parse::<f64>().ok())
        })
        .map_or(0.0, |kb| kb / 1024.0)
}

/// The commit of the checkout when it is a git work tree, else `none`.
fn commit() -> String {
    std::process::Command::new("git")
        .args(["rev-parse", "--short=12", "HEAD"])
        .stderr(std::process::Stdio::null())
        .output()
        .ok()
        .filter(|o| o.status.success())
        .map(|o| String::from_utf8_lossy(&o.stdout).trim().to_string())
        .unwrap_or_else(|| "none".into())
}

/// FNV-1a digest of the sources the benchmark builds (the repository's
/// manifests, `src/`, `crates/` and `vendor/`), which identifies the code
/// measured even where the checkout is not a git work tree.
fn source_digest() -> String {
    fn walk(path: &std::path::Path, files: &mut Vec<std::path::PathBuf>) {
        if path.is_dir() {
            if let Ok(entries) = std::fs::read_dir(path) {
                for e in entries.flatten() {
                    walk(&e.path(), files);
                }
            }
        } else if path.is_file() {
            files.push(path.to_path_buf());
        }
    }
    let mut files = Vec::new();
    for root in ["Cargo.toml", "Cargo.lock", "src", "crates", "vendor"] {
        walk(std::path::Path::new(root), &mut files);
    }
    files.sort();
    let mut h: u64 = 0xcbf2_9ce4_8422_2325;
    let mut eat = |bytes: &[u8]| {
        for &b in bytes {
            h ^= u64::from(b);
            h = h.wrapping_mul(0x0100_0000_01b3);
        }
    };
    for f in &files {
        eat(f.to_string_lossy().as_bytes());
        eat(&std::fs::read(f).unwrap_or_default());
    }
    format!("{h:016x}")
}

/// Print the provenance line the compare command keys runs by: workload,
/// seed, trace flag, host cores, pool size, compiler, commit, and the
/// fixed load constants of the workload.
pub fn print_provenance(
    workload: &str,
    seed: u64,
    seconds: f64,
    traced: bool,
    pool: usize,
    constants: &[(&str, f64)],
) {
    let cores = std::thread::available_parallelism().map_or(1, |n| n.get());
    let consts: Vec<String> = constants
        .iter()
        .map(|(k, v)| format!("{}: {}", quote(k), num(*v)))
        .collect();
    println!(
        "provenance {{\"workload\": {}, \"seed\": {seed}, \"seconds\": {}, \"trace\": {}, \"host_cores\": {cores}, \
         \"pool_threads\": {pool}, \"rustc\": {}, \"commit\": {}, \"source_digest\": {}, \"constants\": {{{}}}}}",
        quote(workload),
        num(seconds),
        u8::from(traced),
        quote(env!("PERFBENCH_RUSTC")),
        quote(&commit()),
        quote(&source_digest()),
        consts.join(", ")
    );
}
