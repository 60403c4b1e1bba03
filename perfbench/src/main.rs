//! The benchmark command.
//!
//! ```text
//! perfbench --workload <name> --seed <n> --seconds <s> --trace <0|1>
//! perfbench compare <runs-A> <runs-B> [--bench BENCHMARK.json]
//! ```
//!
//! Run from the repository root (it reads the sources there for the
//! provenance digest and writes traced spans under `.bench_out/`).

use perfbench::{report, serve, Config, WORKLOADS};
use std::path::Path;
use std::process::ExitCode;

fn usage() -> ExitCode {
    eprintln!(
        "usage: perfbench --workload <{}> --seed <n> --seconds <s> --trace <0|1>\n       \
         perfbench compare <runs-A-dir> <runs-B-dir> [--bench BENCHMARK.json]",
        WORKLOADS.join("|")
    );
    ExitCode::from(2)
}

fn main() -> ExitCode {
    let args: Vec<String> = std::env::args().skip(1).collect();
    if args.first().map(String::as_str) == Some("compare") {
        let (Some(a), Some(b)) = (args.get(1), args.get(2)) else {
            return usage();
        };
        let bench = match args.get(3).map(String::as_str) {
            Some("--bench") => args.get(4).map_or("BENCHMARK.json", String::as_str),
            _ => "BENCHMARK.json",
        };
        return match perfbench::compare::compare(Path::new(a), Path::new(b), Path::new(bench)) {
            Ok(true) => ExitCode::SUCCESS,
            Ok(false) => ExitCode::from(1),
            Err(e) => {
                eprintln!("compare: {e}");
                ExitCode::from(2)
            }
        };
    }

    let mut workload = None;
    let mut cfg = Config {
        seed: 1,
        seconds: 10.0,
        trace: false,
        corrupt_oracle: false,
    };
    let mut it = args.iter();
    while let Some(flag) = it.next() {
        let Some(value) = it.next() else {
            return usage();
        };
        let ok = match flag.as_str() {
            "--workload" => {
                workload = Some(value.clone());
                true
            }
            "--seed" => value.parse().map(|v| cfg.seed = v).is_ok(),
            "--seconds" => value
                .parse::<f64>()
                .ok()
                .filter(|s| s.is_finite() && *s > 0.0)
                .map(|v| cfg.seconds = v)
                .is_some(),
            "--trace" => match value.as_str() {
                "0" => true,
                "1" => {
                    cfg.trace = true;
                    true
                }
                _ => false,
            },
            _ => false,
        };
        if !ok {
            eprintln!("bad argument `{flag} {value}`");
            return usage();
        }
    }
    let Some(workload) = workload.filter(|w| WORKLOADS.contains(&w.as_str())) else {
        return usage();
    };

    // Size the pool to this host for this process only, before anything
    // touches it: every result depends on it and reports it.
    let cores = std::thread::available_parallelism().map_or(1, |n| n.get());
    std::env::set_var("RAYON_NUM_THREADS", cores.to_string());
    let constants = if workload == "oneshot_paper" {
        perfbench::oneshot::constants()
    } else {
        serve::constants(&workload)
    };
    report::print_provenance(
        &workload,
        cfg.seed,
        cfg.seconds,
        cfg.trace,
        cores,
        &constants,
    );

    match perfbench::run(&workload, &cfg) {
        Err(e) => {
            eprintln!("{workload}: {e}");
            ExitCode::from(1)
        }
        Ok(outcome) => {
            print!("{}", outcome.render(&workload, cfg.trace));
            if outcome.correct() {
                ExitCode::SUCCESS
            } else {
                ExitCode::from(1)
            }
        }
    }
}
