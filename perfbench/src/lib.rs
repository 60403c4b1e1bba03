//! The repository benchmark. One command runs one named workload at a
//! given seed against the public functions of the repository's crates,
//! checks every answer against an oracle, and prints every metric by name
//! with its unit; `--trace 1` runs the same workload with spans around
//! each call the benchmark makes into a layer and prints per-layer
//! metrics instead. See `perfbench/README.md` for the workloads and the
//! metrics each should move.

pub mod catalog;
pub mod compare;
pub mod json;
pub mod oneshot;
pub mod report;
pub mod serve;
pub mod stats;
pub mod trace;

use std::time::{Duration, Instant};

/// The workloads the command runs. `BENCHMARK.json` lists the last two:
/// `serve_read`'s open-loop latency spreads too widely from run to run on
/// a shared 2-vCPU host to gate a change on, so it runs on demand only.
pub const WORKLOADS: &[&str] = &["serve_read", "serve_churn", "oneshot_paper"];

/// Times each run sets its workload up; `setup_s` is the median.
pub const SETUP_REPS: usize = 9;

/// Length of the alternating traced / untraced slices of a traced run:
/// interleaving them lets the two halves share warm state and drift, so
/// their gap is the tracing overhead.
pub const TRACE_SLICE: Duration = Duration::from_millis(200);

/// One run's settings.
#[derive(Debug, Clone, Copy)]
pub struct Config {
    pub seed: u64,
    /// The measured window.
    pub seconds: f64,
    pub trace: bool,
    /// Shift one oracle entry, so the run must report a violation (the
    /// benchmark's own test of its oracle).
    pub corrupt_oracle: bool,
}

impl Config {
    pub fn window(&self) -> Duration {
        Duration::from_secs_f64(self.seconds)
    }
}

/// Run one workload. `Err` means it could not be set up; a run whose
/// answers fail the oracle returns an [`report::Outcome`] with failures.
pub fn run(workload: &str, cfg: &Config) -> Result<report::Outcome, String> {
    match workload {
        "serve_read" => serve::run_read(cfg),
        "serve_churn" => serve::run_churn(cfg),
        "oneshot_paper" => oneshot::run(cfg),
        other => Err(format!(
            "unknown workload `{other}` (one of {})",
            WORKLOADS.join(", ")
        )),
    }
}

/// Make this thread's sleeps wake on time: a timer slack of 1 ns instead
/// of Linux's default 50 µs, which would otherwise make every paced send
/// late by up to that much. A pacing thread calls this once; elsewhere
/// than Linux it does nothing.
pub fn precise_sleeps() {
    #[cfg(target_os = "linux")]
    {
        extern "C" {
            fn prctl(option: std::ffi::c_int, ...) -> std::ffi::c_int;
        }
        const PR_SET_TIMERSLACK: std::ffi::c_int = 29;
        // SAFETY: PR_SET_TIMERSLACK takes one integer argument and only
        // sets the calling thread's timer slack; no memory is passed. A
        // failure leaves the default slack, which is only less precise.
        unsafe {
            prctl(PR_SET_TIMERSLACK, 1 as std::ffi::c_ulong);
        }
    }
}

/// Sleep (never spin) until `t`: the load generator must not take a core
/// from the server on a 2-core host. How late this wakes is reported as
/// `loadgen.late_p99_us`.
pub fn sleep_until(t: Instant) {
    let mut now = Instant::now();
    while now < t {
        std::thread::sleep(t - now);
        now = Instant::now();
    }
}

/// Whether instant `at` of a traced run falls in a traced slice.
pub fn traced_slice(start: Instant, at: Instant) -> bool {
    (at.saturating_duration_since(start).as_nanos() / TRACE_SLICE.as_nanos()) % 2 == 1
}

/// Median of several set-ups, in seconds.
pub fn median_setup(times: &[Duration]) -> f64 {
    let secs: Vec<f64> = times.iter().map(Duration::as_secs_f64).collect();
    stats::median(&secs)
}
