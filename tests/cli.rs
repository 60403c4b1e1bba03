//! Integration test for the `pc` CLI: the full text-in, range-out flow a
//! downstream analyst runs.

use std::process::Command;

fn pc_bin() -> Command {
    Command::new(env!("CARGO_BIN_EXE_pc"))
}

fn write_fixtures(dir: &std::path::Path) -> (String, String) {
    let data = dir.join("sales.csv");
    std::fs::write(
        &data,
        "utc,branch,price\n\
         1,Chicago,3.02\n\
         2,New York,6.71\n\
         3,Chicago,18.99\n",
    )
    .unwrap();
    let constraints = dir.join("assumptions.pc");
    std::fs::write(
        &constraints,
        "# outage assumptions\n\
         branch = 'Chicago' => price BETWEEN 0 AND 149.99, (0, 5)\n\
         TRUE => price BETWEEN 0 AND 149.99, (0, 100)\n",
    )
    .unwrap();
    (
        data.to_string_lossy().into_owned(),
        constraints.to_string_lossy().into_owned(),
    )
}

const SCHEMA: &str = "utc:int,branch:cat,price:float";

#[test]
fn bound_command_end_to_end() {
    let dir = std::env::temp_dir().join("pc-cli-test-bound");
    std::fs::create_dir_all(&dir).unwrap();
    let (data, constraints) = write_fixtures(&dir);
    let out = pc_bin()
        .args([
            "bound",
            "--data",
            &data,
            "--schema",
            SCHEMA,
            "--constraints",
            &constraints,
            "--query",
            "SELECT SUM(price) WHERE branch = 'Chicago'",
        ])
        .output()
        .unwrap();
    let stdout = String::from_utf8_lossy(&out.stdout);
    assert!(
        out.status.success(),
        "stderr: {}",
        String::from_utf8_lossy(&out.stderr)
    );
    assert!(stdout.contains("[0, 749.95"), "{stdout}");
}

#[test]
fn bound_group_by_matches_keyed_bounds() {
    let dir = std::env::temp_dir().join("pc-cli-test-groupby");
    std::fs::create_dir_all(&dir).unwrap();
    let (data, constraints) = write_fixtures(&dir);
    let bound = |query: &str, extra: &[&str]| -> (String, String) {
        let out = pc_bin()
            .args([
                "bound",
                "--data",
                &data,
                "--schema",
                SCHEMA,
                "--constraints",
                &constraints,
                "--query",
                query,
            ])
            .args(extra)
            .output()
            .unwrap();
        let stderr = String::from_utf8_lossy(&out.stderr).into_owned();
        assert!(out.status.success(), "{query}: {stderr}");
        (String::from_utf8_lossy(&out.stdout).into_owned(), stderr)
    };
    let (sums, _) = bound("SELECT SUM(price)", &["--group-by", "branch"]);
    assert!(sums.contains("Chicago: [0, 749.95]"), "{sums}");
    assert!(sums.contains("New York: [0, 14999]"), "{sums}");
    // every group's line is what `bound` prints for the keyed query
    for agg in [
        "COUNT(*)",
        "SUM(price)",
        "AVG(price)",
        "MIN(price)",
        "MAX(price)",
    ] {
        let (grouped, _) = bound(&format!("SELECT {agg}"), &["--group-by", "branch"]);
        for key in ["Chicago", "New York"] {
            let got = grouped
                .lines()
                .find(|l| l.starts_with(&format!("{key}: ")))
                .unwrap_or_else(|| panic!("{agg}: no line for {key} in {grouped}"));
            let (keyed, warnings) = bound(&format!("SELECT {agg} WHERE branch = '{key}'"), &[]);
            let want = if keyed.starts_with("EMPTY") {
                format!("{key}: empty (no missing row can reach this group)")
            } else {
                let range = keyed
                    .lines()
                    .find_map(|l| l.strip_prefix("result range: "))
                    .unwrap_or_else(|| panic!("{agg} {key}: no range in {keyed}"));
                let open = if warnings.contains("does not cover") {
                    "  (not closed)"
                } else {
                    ""
                };
                format!("{key}: {range}{open}")
            };
            assert_eq!(got, want, "{agg} GROUP BY branch");
        }
    }
}

#[test]
fn bound_with_combine() {
    let dir = std::env::temp_dir().join("pc-cli-test-combine");
    std::fs::create_dir_all(&dir).unwrap();
    let (data, constraints) = write_fixtures(&dir);
    let out = pc_bin()
        .args([
            "bound",
            "--combine",
            "--data",
            &data,
            "--schema",
            SCHEMA,
            "--constraints",
            &constraints,
            "--query",
            "SELECT COUNT(*)",
        ])
        .output()
        .unwrap();
    let stdout = String::from_utf8_lossy(&out.stdout);
    assert!(out.status.success());
    // 3 certain rows + missing ∈ [0, 100]
    assert!(stdout.contains("certain partition answer: 3"), "{stdout}");
    assert!(stdout.contains("[3, 103]"), "{stdout}");
}

#[test]
fn batch_command_streams_queries_through_one_session() {
    let dir = std::env::temp_dir().join("pc-cli-test-batch");
    std::fs::create_dir_all(&dir).unwrap();
    let (data, constraints) = write_fixtures(&dir);
    let queries = dir.join("queries.sql");
    std::fs::write(
        &queries,
        "# a stream of aggregate queries\n\
         SELECT SUM(price) WHERE branch = 'Chicago'\n\
         \n\
         SELECT COUNT(*)\n\
         SELECT SUM(price)\n",
    )
    .unwrap();
    for extra in [
        &[][..],
        &["--no-session-cache"],
        &["--warmth", "carry"],
        &["--warmth", "cold"],
    ] {
        let out = pc_bin()
            .args([
                "batch",
                "--data",
                &data,
                "--schema",
                SCHEMA,
                "--constraints",
                &constraints,
                "--queries",
                queries.to_str().unwrap(),
            ])
            .args(extra)
            .output()
            .unwrap();
        let stdout = String::from_utf8_lossy(&out.stdout);
        assert!(
            out.status.success(),
            "extra: {extra:?}, stderr: {}",
            String::from_utf8_lossy(&out.stderr)
        );
        // comment and blank lines skipped, results in input order,
        // identical with and without the session cache / warm starts
        let lines: Vec<&str> = stdout.lines().collect();
        assert_eq!(lines.len(), 3, "{stdout}");
        assert!(
            lines[0].contains("Chicago") && lines[0].contains("[0, 749.95"),
            "{stdout}"
        );
        assert!(
            lines[1].contains("COUNT(*)") && lines[1].contains("[0, 100]"),
            "{stdout}"
        );
        assert!(lines[2].starts_with("SELECT SUM(price) ->"), "{stdout}");
    }
}

#[test]
fn batch_update_directives_drive_a_churning_session() {
    let dir = std::env::temp_dir().join("pc-cli-test-batch-churn");
    std::fs::create_dir_all(&dir).unwrap();
    let (data, constraints) = write_fixtures(&dir);
    let queries = dir.join("churn.sql");
    // serve, tighten the global cap (c2), serve, retire it, serve: the
    // same COUNT query must see [0, 100] -> [0, 40] -> [0, 100]
    std::fs::write(
        &queries,
        "SELECT COUNT(*)\n\
         + TRUE => price BETWEEN 0 AND 149.99, (0, 40)\n\
         - c1\n\
         SELECT COUNT(*)\n\
         - c2\n\
         + TRUE => price BETWEEN 0 AND 149.99, (0, 100)\n\
         SELECT COUNT(*)\n",
    )
    .unwrap();
    let out = pc_bin()
        .args([
            "batch",
            "--data",
            &data,
            "--schema",
            SCHEMA,
            "--constraints",
            &constraints,
            "--queries",
            queries.to_str().unwrap(),
        ])
        .output()
        .unwrap();
    let stdout = String::from_utf8_lossy(&out.stdout);
    assert!(
        out.status.success(),
        "stderr: {}",
        String::from_utf8_lossy(&out.stderr)
    );
    let lines: Vec<&str> = stdout.lines().collect();
    assert_eq!(lines.len(), 7, "{stdout}");
    assert!(lines[0].contains("[0, 100]"), "{stdout}");
    assert!(
        lines[1].starts_with("+ TRUE") && lines[1].contains("c2 (epoch 1)"),
        "{stdout}"
    );
    assert!(lines[2].contains("c1 retired (epoch 2)"), "{stdout}");
    assert!(lines[3].contains("[0, 40]"), "{stdout}");
    assert!(lines[4].contains("c2 retired (epoch 3)"), "{stdout}");
    assert!(lines[5].contains("c3 (epoch 4)"), "{stdout}");
    assert!(lines[6].contains("[0, 100]"), "{stdout}");

    // directives need the session cache: the combination is rejected
    let out = pc_bin()
        .args([
            "batch",
            "--no-session-cache",
            "--data",
            &data,
            "--schema",
            SCHEMA,
            "--constraints",
            &constraints,
            "--queries",
            queries.to_str().unwrap(),
        ])
        .output()
        .unwrap();
    assert!(!out.status.success(), "directives + --no-session-cache");
    assert!(
        String::from_utf8_lossy(&out.stderr).contains("--no-session-cache"),
        "error must name the flag"
    );

    // an unknown id fails loudly, not silently
    let bad = dir.join("bad.sql");
    std::fs::write(&bad, "- c9\nSELECT COUNT(*)\n").unwrap();
    let out = pc_bin()
        .args([
            "batch",
            "--data",
            &data,
            "--schema",
            SCHEMA,
            "--constraints",
            &constraints,
            "--queries",
            bad.to_str().unwrap(),
        ])
        .output()
        .unwrap();
    assert!(!out.status.success());
    assert!(String::from_utf8_lossy(&out.stderr).contains("c9"));
}

#[test]
fn batch_per_query_budget_directives() {
    let dir = std::env::temp_dir().join("pc-cli-test-batch-at");
    std::fs::create_dir_all(&dir).unwrap();
    let (data, constraints) = write_fixtures(&dir);
    let queries = dir.join("at.sql");
    // the middle query carries its own (generous) caps: it must still be
    // answered in stream order, exactly, without degrading
    std::fs::write(
        &queries,
        "SELECT COUNT(*)\n\
         @timeout-ms=10000 @sat-cap=100000 @node-cap=1000000 SELECT COUNT(*) WHERE branch = 'Chicago'\n\
         SELECT SUM(price)\n",
    )
    .unwrap();
    let out = pc_bin()
        .args([
            "batch",
            "--data",
            &data,
            "--schema",
            SCHEMA,
            "--constraints",
            &constraints,
            "--queries",
            queries.to_str().unwrap(),
        ])
        .output()
        .unwrap();
    let stdout = String::from_utf8_lossy(&out.stdout);
    assert!(
        out.status.success(),
        "stderr: {}",
        String::from_utf8_lossy(&out.stderr)
    );
    let lines: Vec<&str> = stdout.lines().collect();
    assert_eq!(lines.len(), 3, "{stdout}");
    assert!(lines[0].contains("[0, 100]"), "{stdout}");
    // the directive tokens are stripped from the echoed SQL
    assert!(
        lines[1].starts_with("SELECT COUNT(*) WHERE branch = 'Chicago' ->")
            && lines[1].contains("[0, 5]")
            && !lines[1].contains("degraded"),
        "{stdout}"
    );
    assert!(lines[2].starts_with("SELECT SUM(price) ->"), "{stdout}");

    // malformed directives fail loudly, naming the line
    for bad in [
        "@sat-cap=abc SELECT COUNT(*)",
        "@sat-cap=5",
        "@wat=1 SELECT COUNT(*)",
    ] {
        let bad_file = dir.join("bad-at.sql");
        std::fs::write(&bad_file, format!("{bad}\n")).unwrap();
        let out = pc_bin()
            .args([
                "batch",
                "--data",
                &data,
                "--schema",
                SCHEMA,
                "--constraints",
                &constraints,
                "--queries",
                bad_file.to_str().unwrap(),
            ])
            .output()
            .unwrap();
        assert!(!out.status.success(), "must reject {bad:?}");
        assert!(
            String::from_utf8_lossy(&out.stderr).contains("line 1"),
            "{bad:?} error must name the line"
        );
    }
}

#[test]
fn bound_stats_reports_shards() {
    let dir = std::env::temp_dir().join("pc-cli-test-stats");
    std::fs::create_dir_all(&dir).unwrap();
    let (data, _) = write_fixtures(&dir);
    let bound_stats = |name: &str, constraints: &str| {
        let path = dir.join(name);
        std::fs::write(&path, constraints).unwrap();
        let out = pc_bin()
            .args([
                "bound",
                "--stats",
                "--data",
                &data,
                "--schema",
                SCHEMA,
                "--constraints",
                path.to_str().unwrap(),
                "--query",
                "SELECT COUNT(*)",
            ])
            .output()
            .unwrap();
        assert!(
            out.status.success(),
            "stderr: {}",
            String::from_utf8_lossy(&out.stderr)
        );
        (path, String::from_utf8_lossy(&out.stdout).into_owned())
    };

    // two floor-free constraints on disjoint utc ranges leave the region
    // open, which the closure probe answers alone: no cell, no shard
    let (_, stdout) = bound_stats(
        "open-tiles.pc",
        "utc BETWEEN 1 AND 2 => price BETWEEN 0 AND 10, (0, 5)\n\
         utc BETWEEN 10 AND 12 => price BETWEEN 0 AND 20, (0, 7)\n",
    );
    assert!(stdout.contains("result range: [0, inf]"), "{stdout}");
    assert!(stdout.contains("stats: 0 cells"), "{stdout}");
    assert!(!stdout.contains("shards:"), "{stdout}");

    // a kept floor forces rows into the first range: both interaction
    // components decompose, one shard each
    let (constraints, stdout) = bound_stats(
        "tiles.pc",
        "utc BETWEEN 1 AND 2 => price BETWEEN 0 AND 10, (1, 5)\n\
         utc BETWEEN 10 AND 12 => price BETWEEN 0 AND 20, (0, 7)\n",
    );
    assert!(stdout.contains("result range: [1, inf]"), "{stdout}");
    assert!(stdout.contains("stats: "), "{stdout}");
    assert!(
        stdout.contains("ordering: ") && stdout.contains("estimate-guided splits"),
        "{stdout}"
    );
    assert!(
        stdout.contains("shards: 2 (largest 1 constraints)"),
        "{stdout}"
    );
    assert!(stdout.contains("per-shard sat checks: [1, 1]"), "{stdout}");

    // batch prints one indented counter line under each query's result
    let queries = dir.join("q.sql");
    std::fs::write(&queries, "SELECT COUNT(*)\n").unwrap();
    let out = pc_bin()
        .args([
            "batch",
            "--stats",
            "--data",
            &data,
            "--schema",
            SCHEMA,
            "--constraints",
            constraints.to_str().unwrap(),
            "--queries",
            queries.to_str().unwrap(),
        ])
        .output()
        .unwrap();
    let stdout = String::from_utf8_lossy(&out.stdout);
    assert!(
        out.status.success(),
        "stderr: {}",
        String::from_utf8_lossy(&out.stderr)
    );
    assert!(
        stdout.contains("  stats: ")
            && stdout.contains("ordered splits")
            && stdout.contains("incumbent-first"),
        "{stdout}"
    );
}

#[test]
fn validate_flags_violations() {
    let dir = std::env::temp_dir().join("pc-cli-test-validate");
    std::fs::create_dir_all(&dir).unwrap();
    let (data, _) = write_fixtures(&dir);
    // constraint that the $18.99 Chicago sale violates
    let constraints = dir.join("strict.pc");
    std::fs::write(
        &constraints,
        "branch = 'Chicago' => price BETWEEN 0 AND 10, (0, 5)\n",
    )
    .unwrap();
    let out = pc_bin()
        .args([
            "validate",
            "--data",
            &data,
            "--schema",
            SCHEMA,
            "--constraints",
            constraints.to_str().unwrap(),
        ])
        .output()
        .unwrap();
    assert!(!out.status.success(), "violations must fail the exit code");
    let stdout = String::from_utf8_lossy(&out.stdout);
    assert!(stdout.contains("VIOLATION"), "{stdout}");
}

#[test]
fn check_reports_open_sets() {
    let dir = std::env::temp_dir().join("pc-cli-test-check");
    std::fs::create_dir_all(&dir).unwrap();
    let (data, _) = write_fixtures(&dir);
    let constraints = dir.join("open.pc");
    std::fs::write(
        &constraints,
        "branch = 'Chicago' => price BETWEEN 0 AND 10, (0, 5)\n",
    )
    .unwrap();
    let out = pc_bin()
        .args([
            "check",
            "--data",
            &data,
            "--schema",
            SCHEMA,
            "--constraints",
            constraints.to_str().unwrap(),
        ])
        .output()
        .unwrap();
    assert!(!out.status.success());
    assert!(String::from_utf8_lossy(&out.stdout).contains("NOT CLOSED"));
}

#[test]
fn helpful_errors_for_bad_input() {
    let out = pc_bin().args(["frobnicate"]).output().unwrap();
    assert!(!out.status.success());
    let out = pc_bin()
        .args(["bound", "--data", "/nonexistent.csv", "--schema", "a:int"])
        .output()
        .unwrap();
    assert!(!out.status.success());
    assert!(String::from_utf8_lossy(&out.stderr).contains("error"));
}

#[test]
fn unsupported_flag_combinations_are_rejected() {
    let dir = std::env::temp_dir().join("pc-cli-test-flagmix");
    std::fs::create_dir_all(&dir).unwrap();
    let (data, constraints) = write_fixtures(&dir);
    let queries = dir.join("q.sql");
    std::fs::write(&queries, "SELECT COUNT(*)\n").unwrap();
    let base = |cmd: &str| {
        let mut c = pc_bin();
        c.args([
            cmd,
            "--data",
            &data,
            "--schema",
            SCHEMA,
            "--constraints",
            &constraints,
        ]);
        c
    };
    // batch must not silently ignore bound-only flags
    for extra in [
        &["--queries", "q", "--group-by", "branch"][..],
        &["--queries", "q", "--combine"],
        &["--queries", "q", "--query", "SELECT COUNT(*)"],
    ] {
        let mut cmd = base("batch");
        // point --queries at the real file (first pair is a placeholder)
        let extra: Vec<&str> = extra
            .iter()
            .map(|s| {
                if *s == "q" {
                    queries.to_str().unwrap()
                } else {
                    *s
                }
            })
            .collect();
        let out = cmd.args(&extra).output().unwrap();
        assert!(!out.status.success(), "batch must reject {extra:?}");
        assert!(String::from_utf8_lossy(&out.stderr).contains("error"));
    }
    // the removed per-key A/B switch is an unknown flag everywhere
    for cmd in ["bound", "batch"] {
        let out = base(cmd)
            .args(["--group-by", "branch", "--per-key-groupby"])
            .output()
            .unwrap();
        assert!(!out.status.success(), "{cmd} must reject --per-key-groupby");
        assert!(
            String::from_utf8_lossy(&out.stderr).contains("unknown flag `--per-key-groupby`"),
            "{cmd}: {}",
            String::from_utf8_lossy(&out.stderr)
        );
    }
    // the pool has one scheduler: the removed FIFO switch is an unknown
    // flag everywhere
    for cmd in ["bound", "batch", "serve"] {
        let out = base(cmd).arg("--fifo").output().unwrap();
        assert_eq!(out.status.code(), Some(1), "{cmd} must reject --fifo");
        assert!(
            String::from_utf8_lossy(&out.stderr).contains("unknown flag `--fifo`"),
            "{cmd}: {}",
            String::from_utf8_lossy(&out.stderr)
        );
    }
    // and bound must not silently ignore --queries
    let out = base("bound")
        .args(["--queries", queries.to_str().unwrap()])
        .output()
        .unwrap();
    assert!(!out.status.success());
    assert!(String::from_utf8_lossy(&out.stderr).contains("--query"));
    // nor the session-only flags: bound answers without a session
    for flag in ["--no-admission", "--no-session-cache"] {
        let out = base("bound")
            .args(["--query", "SELECT COUNT(*)", flag])
            .output()
            .unwrap();
        assert!(!out.status.success(), "bound must reject {flag}");
        assert!(
            String::from_utf8_lossy(&out.stderr).contains(flag),
            "bound must name {flag}: {}",
            String::from_utf8_lossy(&out.stderr)
        );
    }
    // a warm-start tier the engine does not have (`basis` included) is
    // rejected for every command, naming the flag and the tiers it has,
    // never silently replaced by the default
    for cmd in ["bound", "batch"] {
        for tier in ["lukewarm", "basis"] {
            let out = base(cmd).args(["--warmth", tier]).output().unwrap();
            assert_eq!(out.status.code(), Some(1), "{cmd} must reject `{tier}`");
            let stderr = String::from_utf8_lossy(&out.stderr);
            assert!(
                stderr.contains(&format!("--warmth: `{tier}`"))
                    && stderr.contains("cold")
                    && stderr.contains("carry"),
                "{cmd} must name the flag, the value and the tiers it has: {stderr}"
            );
        }
    }
}

#[test]
fn serve_client_round_trip() {
    use std::io::BufRead;
    let dir = std::env::temp_dir().join("pc-cli-test-serve");
    std::fs::create_dir_all(&dir).unwrap();
    let (data, constraints) = write_fixtures(&dir);
    let script = dir.join("session.txt");
    std::fs::write(
        &script,
        "ping\n\
         bound SELECT COUNT(*)\n\
         + utc >= 2 => price BETWEEN 0 AND 10, (0, 3)\n\
         batch SELECT COUNT(*) ;; SELECT SUM(price)\n\
         # malformed lines answer ERR without killing the connection\n\
         ! bound @timeout-ms=0 SELECT COUNT(*)\n\
         ! frobnicate\n\
         stats\n\
         shutdown\n",
    )
    .unwrap();

    // port 0: the kernel picks; the server prints the bound address
    let mut server = pc_bin()
        .args([
            "serve",
            "--data",
            &data,
            "--schema",
            SCHEMA,
            "--constraints",
            &constraints,
            "--listen",
            "127.0.0.1:0",
        ])
        .stdout(std::process::Stdio::piped())
        .spawn()
        .unwrap();
    let mut banner = String::new();
    std::io::BufReader::new(server.stdout.take().unwrap())
        .read_line(&mut banner)
        .unwrap();
    let addr = banner
        .trim()
        .strip_prefix("listening on ")
        .unwrap_or_else(|| panic!("unexpected banner {banner:?}"))
        .to_string();

    let out = pc_bin()
        .args([
            "client",
            "--addr",
            &addr,
            "--script",
            script.to_str().unwrap(),
        ])
        .output()
        .unwrap();
    let stdout = String::from_utf8_lossy(&out.stdout);
    assert!(
        out.status.success(),
        "client failed\nstdout: {stdout}\nstderr: {}",
        String::from_utf8_lossy(&out.stderr)
    );
    assert!(stdout.contains("OK pong"), "{stdout}");
    assert!(stdout.contains("OK bound epoch=0"), "{stdout}");
    assert!(stdout.contains("OK added=c2 epoch=1"), "{stdout}");
    assert!(stdout.contains("OK batch epoch=1 n=2"), "{stdout}");
    assert!(stdout.contains("the minimum cap is 1"), "{stdout}");
    assert!(stdout.contains("shed-cache-hits="), "{stdout}");
    assert!(stdout.contains("OK draining"), "{stdout}");
    assert!(!stdout.contains("MISMATCH"), "{stdout}");

    // the scripted shutdown drains the server to a clean exit
    let status = server.wait().unwrap();
    assert!(status.success(), "server exited {status:?}");
}

#[test]
fn cap_flags_and_directives_reject_zero_negative_overflow() {
    let dir = std::env::temp_dir().join("pc-cli-test-capzero");
    std::fs::create_dir_all(&dir).unwrap();
    let (data, constraints) = write_fixtures(&dir);
    let queries = dir.join("q.sql");
    std::fs::write(&queries, "SELECT COUNT(*)\n").unwrap();
    // one shared parser behind the flags: 0, negative, and overflowing
    // values are rejected with the same diagnostics on every cap
    for flag in ["--timeout-ms", "--sat-cap", "--node-cap"] {
        for (value, needle) in [
            ("0", "minimum cap is 1"),
            ("-7", "is negative"),
            ("18446744073709551616", "overflows"),
        ] {
            let out = pc_bin()
                .args([
                    "bound",
                    "--data",
                    &data,
                    "--schema",
                    SCHEMA,
                    "--constraints",
                    &constraints,
                    "--query",
                    "SELECT COUNT(*)",
                    flag,
                    value,
                ])
                .output()
                .unwrap();
            assert!(!out.status.success(), "must reject {flag} {value}");
            let stderr = String::from_utf8_lossy(&out.stderr);
            assert!(
                stderr.contains(needle) && stderr.contains(flag),
                "{flag} {value}: {stderr}"
            );
        }
    }
    // and the same parser behind a batch line's @ directives
    let bad_file = dir.join("zero-at.sql");
    std::fs::write(&bad_file, "@sat-cap=0 SELECT COUNT(*)\n").unwrap();
    let out = pc_bin()
        .args([
            "batch",
            "--data",
            &data,
            "--schema",
            SCHEMA,
            "--constraints",
            &constraints,
            "--queries",
            bad_file.to_str().unwrap(),
        ])
        .output()
        .unwrap();
    assert!(!out.status.success());
    let stderr = String::from_utf8_lossy(&out.stderr);
    assert!(
        stderr.contains("line 1") && stderr.contains("minimum cap is 1"),
        "{stderr}"
    );
}
