//! `pc` — contingency analysis from the command line.
//!
//! ```text
//! pc bound    --data sales.csv --schema utc:int,branch:cat,price:float \
//!             --constraints assumptions.pc \
//!             --query "SELECT SUM(price) WHERE branch = 'Chicago'"
//! pc batch    --data sales.csv --schema ... --constraints assumptions.pc \
//!             --queries queries.sql                # one SQL query per line
//! pc validate --data history.csv --schema ... --constraints assumptions.pc
//! pc check    --data sales.csv --schema ... --constraints assumptions.pc   # closure
//! pc serve    --data sales.csv --schema ... --constraints assumptions.pc \
//!             --listen 127.0.0.1:7878             # multi-tenant TCP front-end
//! pc client   --addr 127.0.0.1:7878 --script session.txt   # or --request "ping"
//! ```
//!
//! * `--data` — CSV with a header row (used for the schema's dictionaries,
//!   for validation, and as the *certain* partition when `--combine` is
//!   given).
//! * `--schema` — `name:type` pairs (`int`, `float`, `cat`).
//! * `--constraints` — a predicate-constraint document in the paper's
//!   notation (see `pc_core::dsl`).
//! * `--query` — a SQL aggregate query (see `pc_storage::sql`).
//! * `--queries` — for `batch`: a file of SQL queries, one per line
//!   (blank lines and `#` comments skipped; `-` reads stdin). The whole
//!   stream is served through one `Session` — the constraint set is
//!   decomposed once and every query specializes the cached cells, with
//!   simplex warm starts chained across queries. Two **update
//!   directives** may interleave with the queries and drive the
//!   session's versioned catalog end-to-end:
//!
//!   ```text
//!   + <constraint line in the pc_core::dsl notation>
//!   - <constraint id, e.g. c2 (or just 2)>
//!   ```
//!
//!   `+` admits a constraint (the assigned id and new epoch are
//!   printed); `-` retires one. The constraints file seeds ids
//!   `c0..cN-1` in file order. Each directive produces a new epoch whose
//!   cell decomposition is *derived incrementally* from the previous one
//!   (only cells the churned constraint's box cuts are re-checked);
//!   queries between directives are batched against one pinned epoch.
//!   Directives require the session cache and are rejected under
//!   `--no-session-cache`.
//!
//!   A query line may also carry **per-query budget directives** — one
//!   or more `@timeout-ms=N` / `@sat-cap=N` / `@node-cap=N` tokens
//!   prefixed to the SQL:
//!
//!   ```text
//!   @timeout-ms=50 @sat-cap=200 SELECT SUM(price) WHERE utc >= 12
//!   ```
//!
//!   Each overrides the same-named stream-wide flag for that query
//!   only (unnamed caps inherit the flags). Such a query gets its own
//!   budget meter, so it is answered alone, in stream order, instead of
//!   sharing the surrounding batch's budget.
//! * `--combine` — add the certain partition's exact answer to the
//!   missing-data range (SUM/COUNT only).
//! * `--group-by COL` — bound the query once per distinct value of `COL`
//!   (dictionary codes for categorical columns, observed values
//!   otherwise). Each group's line is the answer of the query with
//!   `COL = <key>` conjoined to its WHERE clause, exactly what `bound`
//!   prints for that keyed query; the groups run in parallel.
//! * `--threads N` — worker threads for parallel decomposition, parallel
//!   GROUP-BY groups / batch queries, the parallel witness search, and
//!   the allocation MILP's branch & bound (`0` = auto-detect, `1` =
//!   sequential; bounds are identical at any setting up to the branch &
//!   bound pruning tolerance, ~1e-6).
//! * `--stats` — print the work counters alongside each result. For
//!   `bound` (single query): after the range, the cells, SAT checks, and
//!   branch & bound nodes, the estimate-guided ordering counters
//!   (splits taken in estimate order, incumbents installed by the
//!   branch-ordered near child — see `pc_core::estimate`), and, when the
//!   engine factored the catalog over its constraint-interaction graph
//!   (see `pc_core::shard`), the shard count, the largest shard's
//!   constraint count, and the per-shard SAT-check profile. For `batch`:
//!   one indented counter line under each query's result.
//! * `--no-session-cache` — for `batch`: decompose each query's region
//!   from scratch instead of specializing the session's cached domain
//!   decomposition (A/B baseline for the session layer). `bound` always
//!   runs cache-less — one query has nothing to amortize, and the
//!   per-query pushdown decomposition is never larger than the domain's.
//! * `--no-warm-start` — disable all simplex warm-start chaining
//!   (within queries, across queries, and inside branch & bound). Warm
//!   starting is what the tableau carry rides on, so this flag demands
//!   `--no-tableau-carry` too — the contradictory combination is
//!   rejected, not silently resolved.
//! * `--no-tableau-carry` — keep basis-level warm starts but disable the
//!   deeper tableau-carry tier (carrying whole canonical tableaux into
//!   branch & bound children, across AVG probes, and across a session's
//!   queries). A/B knob for the O(1)-pivot carry; never changes results.
//! * `--timeout-ms N` / `--sat-cap N` / `--node-cap N` — arm a
//!   [`QueryBudget`] (wall-clock deadline, SAT-probe cap, branch & bound
//!   node cap). A tripped budget never errors: the engine degrades
//!   gracefully and still answers, with the result marked `(degraded)` —
//!   the printed range is sound but possibly looser than the exact one.
//!   The budget is re-armed per engine call: for `bound` it covers the
//!   one query (or the whole GROUP BY fan-out); for `batch` it covers
//!   each run of consecutive queries (answered as one pinned-epoch
//!   batch) or each update directive's incremental derivation. A
//!   directive whose derivation trips still lands — its epoch's cells
//!   are simply rebuilt lazily by the next query. Cap values are
//!   validated by the shared parser (`pc_budget::caps`): `0`, negative,
//!   and overflowing values are rejected at parse time, identically on
//!   the flags, the `@` directives, and the `pc serve` wire protocol.
//! * `serve` — bind a TCP listener (`--listen ADDR`, default
//!   `127.0.0.1:7878`; port `0` picks a free port, scraped from the
//!   `listening on …` line) and serve the line protocol documented in
//!   the `pc-serve` crate: per-tenant versioned sessions, admission
//!   control, epoch-stamped responses. The `--data`/`--schema`/
//!   `--constraints` trio seeds the `default` tenant; engine knobs and
//!   budget caps above set every tenant's defaults. `--drain-ms N`
//!   bounds the graceful-shutdown drain.
//! * `client` — talk to a running server: `--addr ADDR` plus either
//!   `--request LINE` (one request, response echoed, exit code from
//!   `OK`/`ERR`) or `--script FILE` (`-` = stdin; one request per line,
//!   `#` comments, `!`-prefixed lines *expect* an `ERR` — exit code 0
//!   iff every expectation held).
//!
//! `batch` serves its stream **incrementally**: queries are answered
//! batch-by-batch as directives cut the stream, and a malformed line
//! aborts with `line N: …` *after* flushing every result already
//! produced — partial output is never lost to a late typo.

use predicate_constraints::core::budget::caps::{parse_cap_value, parse_line_caps, BudgetCaps};
use predicate_constraints::core::{
    dsl, BoundError, BoundOptions, BoundReport, ConstraintId, PcSet, QueryBudget, Session,
    SessionOptions, TripReason,
};
use predicate_constraints::predicate::{AttrType, Schema};
use predicate_constraints::serve::{run_script, Connection, ServeConfig, Server};
use predicate_constraints::storage::{
    evaluate, parse_query, table_from_csv, AggKind, AggQuery, Table,
};
use std::process::ExitCode;
use std::time::Duration;

fn fail(msg: &str) -> ExitCode {
    eprintln!("error: {msg}");
    ExitCode::FAILURE
}

struct Args {
    command: String,
    data: Option<String>,
    schema: Option<String>,
    constraints: Option<String>,
    query: Option<String>,
    queries: Option<String>,
    combine: bool,
    group_by: Option<String>,
    threads: usize,
    no_session_cache: bool,
    no_warm_start: bool,
    no_tableau_carry: bool,
    fifo: bool,
    no_admission: bool,
    stats: bool,
    caps: BudgetCaps,
    listen: Option<String>,
    addr: Option<String>,
    script: Option<String>,
    request: Option<String>,
    drain_ms: Option<u64>,
}

fn parse_args() -> Result<Args, String> {
    let mut argv = std::env::args().skip(1);
    let command = argv
        .next()
        .ok_or("usage: pc <bound|batch|validate|check|serve|client> …")?;
    let mut args = Args {
        command,
        data: None,
        schema: None,
        constraints: None,
        query: None,
        queries: None,
        combine: false,
        group_by: None,
        threads: 0,
        no_session_cache: false,
        no_warm_start: false,
        no_tableau_carry: false,
        fifo: false,
        no_admission: false,
        stats: false,
        caps: BudgetCaps::default(),
        listen: None,
        addr: None,
        script: None,
        request: None,
        drain_ms: None,
    };
    // Budget caps go through the shared validating parser (same code the
    // batch `@` directives and the wire protocol use), so `0`, negative,
    // and overflowing values are rejected uniformly at parse time.
    let parse_cap = |flag: &str, v: Option<String>| -> Result<u64, String> {
        let v = v.ok_or_else(|| format!("{flag} needs a value"))?;
        parse_cap_value(flag, &v)
    };
    while let Some(flag) = argv.next() {
        match flag.as_str() {
            "--data" => args.data = argv.next(),
            "--schema" => args.schema = argv.next(),
            "--constraints" => args.constraints = argv.next(),
            "--query" => args.query = argv.next(),
            "--queries" => args.queries = argv.next(),
            "--combine" => args.combine = true,
            "--group-by" => args.group_by = argv.next(),
            "--threads" => {
                let v = argv.next().ok_or("--threads needs a value")?;
                args.threads = v
                    .parse()
                    .map_err(|_| format!("--threads: `{v}` is not a number"))?;
            }
            "--stats" => args.stats = true,
            "--timeout-ms" => args.caps.timeout_ms = Some(parse_cap("--timeout-ms", argv.next())?),
            "--sat-cap" => args.caps.sat_cap = Some(parse_cap("--sat-cap", argv.next())?),
            "--node-cap" => args.caps.node_cap = Some(parse_cap("--node-cap", argv.next())?),
            "--listen" => args.listen = argv.next(),
            "--addr" => args.addr = argv.next(),
            "--script" => args.script = argv.next(),
            "--request" => args.request = argv.next(),
            "--drain-ms" => {
                let v = argv.next().ok_or("--drain-ms needs a value")?;
                args.drain_ms = Some(
                    v.parse()
                        .map_err(|_| format!("--drain-ms: `{v}` is not a number"))?,
                );
            }
            "--no-session-cache" => args.no_session_cache = true,
            "--no-warm-start" => args.no_warm_start = true,
            "--no-tableau-carry" => args.no_tableau_carry = true,
            "--fifo" => args.fifo = true,
            "--no-admission" => args.no_admission = true,
            other => return Err(format!("unknown flag `{other}`")),
        }
    }
    if args.no_warm_start && !args.no_tableau_carry {
        // Mirror the batch-flag hardening: the tableau carry is the warm
        // start's deeper tier, so "no warm starts, but keep carrying
        // tableaux" has no honest reading — demand the explicit pair
        // instead of silently disabling one side.
        return Err(
            "--no-warm-start also disables the tableau carry it rides on; \
             pass --no-tableau-carry alongside it"
                .into(),
        );
    }
    Ok(args)
}

/// The engine/session configuration the CLI knobs describe.
fn session_options(args: &Args) -> SessionOptions {
    SessionOptions {
        bound: BoundOptions {
            threads: args.threads,
            warm_start: !args.no_warm_start,
            tableau_carry: !args.no_tableau_carry,
            ..BoundOptions::default()
        },
        cache_cells: !args.no_session_cache,
        incremental: true,
        deadline_sched: !args.fifo,
        admission: !args.no_admission,
    }
}

/// A fresh budget from the stream-wide CLI caps.
fn query_budget(args: &Args) -> QueryBudget {
    args.caps.budget()
}

/// Suffix tags for a report line: degraded first (budget story, naming
/// *which* cap tripped), then closure (coverage story).
fn report_tags(degraded: bool, trip: Option<TripReason>, closed: bool) -> String {
    let mut tag = String::new();
    match (degraded, trip) {
        (true, Some(reason)) => tag.push_str(&format!("  (degraded: {reason})")),
        (true, None) => tag.push_str("  (degraded)"),
        _ => {}
    }
    if !closed {
        tag.push_str("  (not closed)");
    }
    tag
}

fn parse_schema(spec: &str) -> Result<Schema, String> {
    let mut attrs = Vec::new();
    for part in spec.split(',') {
        let (name, ty) = part
            .split_once(':')
            .ok_or_else(|| format!("schema entry `{part}` must be name:type"))?;
        let ty = match ty.trim().to_ascii_lowercase().as_str() {
            "int" => AttrType::Int,
            "float" => AttrType::Float,
            "cat" => AttrType::Cat,
            other => return Err(format!("unknown type `{other}` (int/float/cat)")),
        };
        attrs.push((name.trim().to_string(), ty));
    }
    Ok(Schema::new(attrs))
}

fn load_table(args: &Args) -> Result<Table, String> {
    let data_path = args.data.as_ref().ok_or("--data is required")?;
    let schema_spec = args.schema.as_ref().ok_or("--schema is required")?;
    let schema = parse_schema(schema_spec)?;
    let text =
        std::fs::read_to_string(data_path).map_err(|e| format!("cannot read {data_path}: {e}"))?;
    table_from_csv(schema, &text).map_err(|e| e.to_string())
}

fn load_constraints(args: &Args, table: &Table) -> Result<PcSet, String> {
    let path = args
        .constraints
        .as_ref()
        .ok_or("--constraints is required")?;
    let text = std::fs::read_to_string(path).map_err(|e| format!("cannot read {path}: {e}"))?;
    dsl::parse_pcset(table, &text).map_err(|e| e.to_string())
}

/// `pc client` — a scripted (or single-request) session against a
/// running `pc serve`. Needs no table, so it runs before the data
/// loading the other commands share.
fn run_client(args: &Args) -> ExitCode {
    let addr = match args.addr.as_deref() {
        Some(a) => a,
        None => return fail("--addr is required for `client`"),
    };
    if args.request.is_some() && args.script.is_some() {
        return fail("`client` takes --request or --script, not both");
    }
    if let Some(request) = &args.request {
        let mut conn = match Connection::connect(addr) {
            Ok(c) => c,
            Err(e) => return fail(&format!("cannot connect to {addr}: {e}")),
        };
        let response = match conn.send(request) {
            Ok(r) => r,
            Err(e) => return fail(&format!("request failed: {e}")),
        };
        println!("{}", response.header);
        for row in &response.rows {
            println!("{row}");
        }
        if response.is_ok() {
            ExitCode::SUCCESS
        } else {
            ExitCode::FAILURE
        }
    } else if let Some(path) = &args.script {
        let script = if path == "-" {
            use std::io::Read;
            let mut buf = String::new();
            if let Err(e) = std::io::stdin().read_to_string(&mut buf) {
                return fail(&format!("cannot read stdin: {e}"));
            }
            buf
        } else {
            match std::fs::read_to_string(path) {
                Ok(t) => t,
                Err(e) => return fail(&format!("cannot read {path}: {e}")),
            }
        };
        let mut out = std::io::stdout();
        match run_script(addr, &script, &mut out) {
            Ok(outcome) if outcome.passed() => ExitCode::SUCCESS,
            Ok(outcome) => fail(&format!(
                "{} of {} script expectations mismatched",
                outcome.mismatches, outcome.requests
            )),
            Err(e) => fail(&format!("client session failed: {e}")),
        }
    } else {
        fail("`client` needs --script <file|-> or --request <line>")
    }
}

fn main() -> ExitCode {
    let args = match parse_args() {
        Ok(a) => a,
        Err(e) => return fail(&e),
    };
    if args.command == "client" {
        return run_client(&args);
    }
    let table = match load_table(&args) {
        Ok(t) => t,
        Err(e) => return fail(&e),
    };

    match args.command.as_str() {
        "validate" => {
            let set = match load_constraints(&args, &table) {
                Ok(s) => s,
                Err(e) => return fail(&e),
            };
            let violations = set.validate(&table);
            if violations.is_empty() {
                println!("OK: all {} constraints hold on the data", set.len());
                ExitCode::SUCCESS
            } else {
                for v in &violations {
                    println!("VIOLATION: {v}");
                }
                ExitCode::FAILURE
            }
        }
        "check" => {
            let set = match load_constraints(&args, &table) {
                Ok(s) => s,
                Err(e) => return fail(&e),
            };
            if set.is_closed() {
                println!("CLOSED: every point of the domain is covered by some constraint");
                ExitCode::SUCCESS
            } else {
                println!(
                    "NOT CLOSED: some missing rows would be unconstrained — \
                     bounds on uncovered regions will be infinite"
                );
                ExitCode::FAILURE
            }
        }
        "batch" => {
            // Reject flags this command would otherwise silently ignore —
            // wrong-shaped output with exit code 0 is worse than an error.
            if args.group_by.is_some() {
                return fail("--group-by is not supported by `batch`; put GROUP BY queries through `bound --group-by`");
            }
            if args.combine {
                return fail("--combine is not supported by `batch` yet");
            }
            if args.query.is_some() {
                return fail("`batch` takes --queries (a file of queries), not --query");
            }
            let set = match load_constraints(&args, &table) {
                Ok(s) => s,
                Err(e) => return fail(&e),
            };
            let path = match &args.queries {
                Some(p) => p,
                None => {
                    return fail("--queries is required for `batch` (a file, or `-` for stdin)")
                }
            };
            let text = if path == "-" {
                use std::io::Read;
                let mut buf = String::new();
                if let Err(e) = std::io::stdin().read_to_string(&mut buf) {
                    return fail(&format!("cannot read stdin: {e}"));
                }
                buf
            } else {
                match std::fs::read_to_string(path) {
                    Ok(t) => t,
                    Err(e) => return fail(&format!("cannot read {path}: {e}")),
                }
            };
            // One session serves the whole stream: decompose once,
            // specialize per query, delta-derive per directive, chain warm
            // starts across queries and epochs. The stream is processed
            // line by line — consecutive queries batch against one pinned
            // epoch, directives cut the batch, and a malformed line fails
            // *after* the batches before it have printed their results.
            let session = Session::with_options(set, session_options(&args));
            let mut failed = false;
            let mut saw_item = false;
            let mut pending: Vec<(String, AggQuery)> = Vec::new();
            let emit = |sql: &str, report: Result<BoundReport, BoundError>, failed: &mut bool| {
                match report {
                    Ok(r) => {
                        let tag = report_tags(r.degraded, r.trip, r.closed);
                        println!("{sql} -> [{}, {}]{tag}", r.range.lo, r.range.hi);
                        if args.stats {
                            println!(
                                "  stats: {} cells, {} sat checks, {} branch&bound nodes, \
                                 {} ordered splits, {} incumbent-first",
                                r.stats.cells,
                                r.stats.sat_checks,
                                r.solver.nodes,
                                r.stats.ordered_splits,
                                r.solver.incumbent_first
                            );
                            if let Some(sched) = &r.sched {
                                println!(
                                    "  sched: {} (queue wait {:?}, backlog {:?}, est cost {:?})",
                                    sched.verdict,
                                    sched.queue_wait,
                                    sched.backlog,
                                    sched.estimated_cost
                                );
                            }
                        }
                    }
                    Err(BoundError::EmptyAggregate) => {
                        println!("{sql} -> empty (no missing row can match)");
                    }
                    Err(e) => {
                        *failed = true;
                        println!("{sql} -> error: {e}");
                    }
                }
            };
            let flush = |pending: &mut Vec<(String, AggQuery)>, failed: &mut bool| {
                if pending.is_empty() {
                    return;
                }
                let queries: Vec<AggQuery> = pending.iter().map(|(_, q)| q.clone()).collect();
                let budget = query_budget(&args);
                let reports = session.bound_many_budgeted(&queries, &budget);
                for ((sql, _), report) in pending.iter().zip(reports) {
                    emit(sql, report, failed);
                }
                pending.clear();
            };
            for (idx, raw) in text.lines().enumerate() {
                let lineno = idx + 1;
                let line = raw.trim();
                if line.is_empty() || line.starts_with('#') {
                    continue;
                }
                saw_item = true;
                if let Some(rest) = line.strip_prefix("+ ") {
                    if args.no_session_cache {
                        flush(&mut pending, &mut failed);
                        return fail(&format!(
                            "line {lineno}: update directives (+ / -) drive the session's \
                             incremental epochs and need the cell cache; drop --no-session-cache"
                        ));
                    }
                    match dsl::parse_constraint(&table, rest) {
                        Ok(pc) => {
                            flush(&mut pending, &mut failed);
                            let id = session.add_constraint_budgeted(pc, &query_budget(&args));
                            println!("+ {rest} -> {id} (epoch {})", session.epoch());
                        }
                        Err(e) => {
                            flush(&mut pending, &mut failed);
                            return fail(&format!("line {lineno}: {line}: {e}"));
                        }
                    }
                } else if let Some(rest) = line.strip_prefix("- ") {
                    if args.no_session_cache {
                        flush(&mut pending, &mut failed);
                        return fail(&format!(
                            "line {lineno}: update directives (+ / -) drive the session's \
                             incremental epochs and need the cell cache; drop --no-session-cache"
                        ));
                    }
                    match rest.trim().parse::<ConstraintId>() {
                        Ok(id) => {
                            flush(&mut pending, &mut failed);
                            match session.retire_constraint(id) {
                                Ok(()) => println!("- {id} retired (epoch {})", session.epoch()),
                                Err(e) => return fail(&format!("line {lineno}: {e}")),
                            }
                        }
                        Err(e) => {
                            flush(&mut pending, &mut failed);
                            return fail(&format!("line {lineno}: {line}: {e}"));
                        }
                    }
                } else if line.starts_with('@') {
                    // Per-query budget directives: this query gets its own
                    // meter (stream caps overridden field-wise), so it
                    // cannot share the surrounding batch's budget — answer
                    // it alone, in stream order.
                    let (line_caps, sql) = match parse_line_caps(line) {
                        Ok(parsed) => parsed,
                        Err(e) => {
                            flush(&mut pending, &mut failed);
                            return fail(&format!("line {lineno}: {line}: {e}"));
                        }
                    };
                    match parse_query(&table, sql) {
                        Ok(q) => {
                            flush(&mut pending, &mut failed);
                            let budget = args.caps.overridden_by(line_caps).budget();
                            emit(sql, session.bound_budgeted(&q, &budget), &mut failed);
                        }
                        Err(e) => {
                            flush(&mut pending, &mut failed);
                            return fail(&format!("line {lineno}: {line}: {e}"));
                        }
                    }
                } else {
                    match parse_query(&table, line) {
                        Ok(q) => pending.push((line.to_string(), q)),
                        Err(e) => {
                            flush(&mut pending, &mut failed);
                            return fail(&format!("line {lineno}: {line}: {e}"));
                        }
                    }
                }
            }
            if !saw_item {
                return fail("--queries: no queries found");
            }
            flush(&mut pending, &mut failed);
            if args.stats {
                // Session-lifetime counters (they survive epoch churn):
                // how often a shed query's pre-tripped walk was answered
                // from the per-epoch memo instead of re-run.
                let shed = session.shed_cache_stats();
                println!("shed cache: {} hits, {} misses", shed.hits, shed.misses);
            }
            if failed {
                ExitCode::FAILURE
            } else {
                ExitCode::SUCCESS
            }
        }
        "bound" => {
            if args.queries.is_some() {
                return fail("`bound` takes --query (one query), not --queries; use `batch` for a query file");
            }
            let set = match load_constraints(&args, &table) {
                Ok(s) => s,
                Err(e) => return fail(&e),
            };
            let sql = match &args.query {
                Some(q) => q,
                None => return fail("--query is required for `bound`"),
            };
            let query = match parse_query(&table, sql) {
                Ok(q) => q,
                Err(e) => return fail(&e.to_string()),
            };
            // --threads flows through the session/engine into
            // decomposition, GROUP-BY group tasks, the parallel witness
            // search, and the allocation MILP's branch & bound alike.
            // `bound` answers exactly one query, so the session's
            // domain-wide cell cache has nothing to amortize — worse, it
            // would trade the query-region pushdown for a possibly much
            // larger full-domain decomposition. Always serve `bound`
            // cache-less (per-query pushdown decomposition, as before the
            // session layer); `batch` is where the cache pays.
            let session = Session::with_options(
                set,
                SessionOptions {
                    cache_cells: false,
                    ..session_options(&args)
                },
            );

            if let Some(group_col) = &args.group_by {
                if args.stats {
                    return fail("--stats is not supported with --group-by yet");
                }
                if args.combine {
                    return fail(
                        "--combine cannot be used with --group-by \
                         (per-group certain-partition offsets are not supported yet)",
                    );
                }
                let Some(attr) = table.schema().index_of(group_col) else {
                    return fail(&format!("--group-by: no column named `{group_col}`"));
                };
                let keys: Vec<f64> = match table.dictionary(attr) {
                    // categorical: every dictionary code is a group
                    Some(dict) => (0..dict.len()).map(|c| c as f64).collect(),
                    // numeric: the distinct observed values. The CSV
                    // loader rejects NaN, but other frontends may not —
                    // filter explicitly and sort by total order rather
                    // than trusting partial_cmp.
                    None => {
                        let mut vals: Vec<f64> = (0..table.len())
                            .map(|r| table.encoded(r, attr))
                            .filter(|v| !v.is_nan())
                            .collect();
                        vals.sort_by(f64::total_cmp);
                        vals.dedup();
                        vals
                    }
                };
                if keys.is_empty() {
                    return fail("--group-by: no group keys found in the data");
                }
                println!("{sql} GROUP BY {group_col}");
                let budget = query_budget(&args);
                for group in session.bound_group_by_budgeted(&query, attr, keys, &budget) {
                    let label = table
                        .dictionary(attr)
                        .and_then(|d| d.label(group.key as u32))
                        .map(str::to_string)
                        .unwrap_or_else(|| group.key.to_string());
                    match group.report {
                        Ok(r) => {
                            let tag = report_tags(r.degraded, r.trip, r.closed);
                            println!("{label}: [{}, {}]{tag}", r.range.lo, r.range.hi);
                        }
                        Err(BoundError::EmptyAggregate) => {
                            println!("{label}: empty (no missing row can reach this group)");
                        }
                        Err(e) => println!("{label}: error: {e}"),
                    }
                }
                return ExitCode::SUCCESS;
            }

            let report = match session.bound_budgeted(&query, &query_budget(&args)) {
                Ok(r) => r,
                Err(BoundError::EmptyAggregate) => {
                    println!("EMPTY: no missing row can match this query");
                    return ExitCode::SUCCESS;
                }
                Err(e) => return fail(&e.to_string()),
            };
            if !report.closed {
                eprintln!("warning: constraint set does not cover the query region");
            }
            if report.degraded {
                match report.trip {
                    Some(reason) => eprintln!(
                        "warning: budget exhausted ({reason}) — the range is sound but may \
                         be looser than exact"
                    ),
                    None => eprintln!(
                        "warning: budget exhausted — the range is sound but may be looser \
                         than exact"
                    ),
                }
            }
            let range = if args.combine {
                if !matches!(query.agg, AggKind::Sum | AggKind::Count) {
                    return fail("--combine only makes sense for SUM/COUNT");
                }
                let certain = evaluate(&table, &query).unwrap_or(0.0);
                println!("certain partition answer: {certain}");
                report.range.offset(certain)
            } else {
                report.range
            };
            println!("{sql}");
            println!("result range: [{}, {}]", range.lo, range.hi);
            if args.stats {
                let s = report.stats;
                println!(
                    "stats: {} cells, {} sat checks, {} branch&bound nodes",
                    s.cells, s.sat_checks, report.solver.nodes
                );
                println!(
                    "ordering: {} estimate-guided splits, {} incumbent-first installs",
                    s.ordered_splits, report.solver.incumbent_first
                );
                if s.shards > 0 {
                    println!(
                        "shards: {} (largest {} constraints)",
                        s.shards, s.max_shard_constraints
                    );
                    let per_shard: Vec<String> =
                        report.shard_sat_checks.iter().map(u64::to_string).collect();
                    println!("per-shard sat checks: [{}]", per_shard.join(", "));
                }
            }
            ExitCode::SUCCESS
        }
        "serve" => {
            let set = match load_constraints(&args, &table) {
                Ok(s) => s,
                Err(e) => return fail(&e),
            };
            let addr = args.listen.as_deref().unwrap_or("127.0.0.1:7878");
            let mut config = ServeConfig {
                options: session_options(&args),
                caps: args.caps,
                ..ServeConfig::default()
            };
            if let Some(ms) = args.drain_ms {
                config.drain = Duration::from_millis(ms);
            }
            let server = match Server::bind(addr, table, set, config) {
                Ok(s) => s,
                Err(e) => return fail(&format!("cannot listen on {addr}: {e}")),
            };
            match server.local_addr() {
                // Printed to stdout (and flushed) so scripts can scrape
                // the bound port when --listen used port 0.
                Ok(local) => {
                    println!("listening on {local}");
                    use std::io::Write;
                    std::io::stdout().flush().ok();
                }
                Err(e) => return fail(&e.to_string()),
            }
            match server.run() {
                Ok(()) => ExitCode::SUCCESS,
                Err(e) => fail(&format!("serve failed: {e}")),
            }
        }
        other => fail(&format!(
            "unknown command `{other}` (bound/batch/validate/check/serve/client)"
        )),
    }
}
