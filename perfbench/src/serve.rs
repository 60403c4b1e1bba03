//! `serve_read` and `serve_churn`: an in-process `pc_serve::Server` on
//! loopback, one warm tenant over the serving catalog.
//!
//! The untraced run drives the server through its wire protocol only.
//! The traced run spends a third of its window on the same wire traffic
//! (round trips, queue waits, verdicts, pacer lateness) and two
//! thirds replaying the same stream in process through the public
//! functions the server's handler calls — `proto::parse_request`,
//! `pc_storage::parse_query`, `Session::admit`,
//! `Session::bound_ticketed_stamped`, `proto::report_fields`, and for
//! mutations `dsl::parse_constraint` and the `*_constraint_stamped`
//! calls — each wrapped in a span, in alternating traced and untraced
//! slices.

use crate::catalog::{self, Answer, Mutation, Oracle};
use crate::report::{peak_rss_mb, Outcome};
use crate::trace::{self, Span, Tracer};
use crate::{median_setup, precise_sleeps, sleep_until, stats, traced_slice, Config, SETUP_REPS};
use pc_core::budget::caps::BudgetCaps;
use pc_core::{AdmissionVerdict, BoundError, BoundReport, ConstraintId, Session, SessionOptions};
use pc_serve::{proto, Connection, Request, ServeConfig, Server, ServerHandle};
use pc_storage::Table;
use std::collections::HashMap;
use std::io::Write;
use std::sync::{mpsc, Mutex};
use std::thread;
use std::time::{Duration, Instant};

/// `serve_read` offered load: one request per this many microseconds on
/// one pipelined connection, about half of what the server sustains on a
/// 2-core host. Fixed, never calibrated per run.
pub const READ_INTERVAL_US: u64 = 100;
/// `serve_churn`: one mutation per this many milliseconds on the second
/// connection.
pub const MUTATION_INTERVAL_MS: u64 = 20;

/// The fixed load of each serving workload, for the provenance line.
pub fn constants(workload: &str) -> Vec<(&'static str, f64)> {
    let mut c = vec![
        (
            "catalog_constraints",
            catalog::SERVING_CONSTRAINTS as f64 + 1.0,
        ),
        ("windows", catalog::WINDOWS as f64),
    ];
    c.push(("deadline_every", catalog::DEADLINE_EVERY as f64));
    c.push(("deadline_ms", catalog::DEADLINE_MS as f64));
    if workload == "serve_read" {
        c.push(("interval_us", READ_INTERVAL_US as f64));
    } else {
        c.push(("mutation_interval_ms", MUTATION_INTERVAL_MS as f64));
        c.push(("mutation_cycle", catalog::CYCLE as f64));
    }
    c
}

/// A running server and the thread serving it.
struct Running {
    handle: ServerHandle,
    thread: thread::JoinHandle<std::io::Result<()>>,
}

impl Running {
    /// Shut down and wait for the server thread.
    fn stop(self) {
        self.handle.shutdown();
        let _ = self.thread.join();
    }
}

/// Bind, connect, start, and warm the tenant with one pass over the
/// request cycle (which builds its cells): the set-up `setup_s` times.
/// The connections are made before the accept loop starts, so they wait
/// in the listen backlog instead of for the loop's poll tick.
fn set_up(lines: &[String], conns: usize) -> Result<(Running, Vec<Connection>), String> {
    let server = Server::bind(
        "127.0.0.1:0",
        catalog::serving_table(),
        catalog::serving_set(catalog::SERVING_CONSTRAINTS),
        ServeConfig::default(),
    )
    .map_err(|e| format!("bind: {e}"))?;
    let addr = server.local_addr().map_err(|e| e.to_string())?;
    let mut connected = (0..conns)
        .map(|_| {
            let conn = Connection::connect(addr).map_err(|e| format!("connect: {e}"))?;
            conn.set_response_timeout(Some(Duration::from_secs(30)))
                .map_err(|e| e.to_string())?;
            Ok(conn)
        })
        .collect::<Result<Vec<_>, String>>()?;
    let running = Running {
        handle: server.handle(),
        thread: thread::spawn(move || server.run()),
    };
    for line in lines {
        let r = connected[0]
            .send(line)
            .map_err(|e| format!("warm-up: {e}"))?;
        if !r.is_ok() {
            return Err(format!("warm-up `{line}`: {}", r.header));
        }
    }
    Ok((running, connected))
}

/// Set up `SETUP_REPS` times; keep the last server, report the median.
fn timed_set_up(lines: &[String], conns: usize) -> Result<(Running, Vec<Connection>, f64), String> {
    let mut times = Vec::new();
    let mut kept: Option<(Running, Vec<Connection>)> = None;
    for _ in 0..SETUP_REPS {
        if let Some((running, conns)) = kept.take() {
            drop(conns);
            running.stop();
        }
        let t0 = Instant::now();
        kept = Some(set_up(lines, conns)?);
        times.push(t0.elapsed());
    }
    let (running, conns) = kept.expect("at least one set-up");
    Ok((running, conns, median_setup(&times)))
}

fn oracle_for(
    table: &Table,
    lines: &[String],
    mutations: &[Mutation],
    corrupt: bool,
) -> Result<Oracle, String> {
    let mut oracle = catalog::serving_oracle(table, lines, mutations)?;
    if corrupt {
        let entry = &mut oracle[0][0];
        *entry = Some(entry.map_or((0.0, 1.0), |(lo, hi)| (lo - 1.0, hi + 1.0)));
    }
    Ok(oracle)
}

/// One query answered over the wire and already checked against the
/// oracle, as a traced run keeps it for its per-layer figures.
#[derive(Clone, Copy)]
struct WireRow {
    k: u32,
    /// Send to answer.
    rtt_us: f64,
    /// How late the pacer sent.
    late_us: f64,
    /// The queue wait the server stamped.
    queue_us: f64,
    verdict: AdmissionVerdict,
}

/// Read a `bound` response header, check it against the oracle of its
/// stamped epoch, and count it.
#[allow(clippy::too_many_arguments)]
fn receive(
    k: usize,
    start: Instant,
    due: Instant,
    sent: Instant,
    recv: Instant,
    header: &str,
    oracle: &Oracle,
    sink: &mut Sink,
    out: &mut Outcome,
) {
    out.attempted += 1;
    let fail = |out: &mut Outcome, why: String| out.fail(format!("request {k}: {why}"));
    if !header.starts_with("OK bound") {
        return fail(out, format!("response `{header}`"));
    }
    let Some(epoch) = proto::field(header, "epoch").and_then(|e| e.parse::<usize>().ok()) else {
        return fail(out, format!("no epoch stamp in `{header}`"));
    };
    let verdict = match proto::field(header, "verdict") {
        Some("degraded") => AdmissionVerdict::Degraded,
        Some("shed") => AdmissionVerdict::Shed,
        _ => AdmissionVerdict::Exact,
    };
    let answer = if header.ends_with(" empty") {
        Answer::Empty
    } else if let Some((lo, hi)) = proto::parse_range(header) {
        let degraded = proto::field(header, "degraded") == Some("true");
        Answer::Range {
            lo,
            hi,
            exact: !degraded && verdict == AdmissionVerdict::Exact,
        }
    } else {
        return fail(out, format!("no range in `{header}`"));
    };
    let want = oracle[epoch % oracle.len()][k % oracle[0].len()];
    if let Err(e) = catalog::check(want, answer) {
        return fail(out, format!("at epoch {epoch}: {e}"));
    }
    let exact = !matches!(answer, Answer::Range { exact: false, .. });
    sink.chunks
        .push(micros(recv - due), (recv - start).as_secs_f64());
    sink.exact += usize::from(exact);
    if !sink.keep_rows {
        return;
    }
    sink.rows.push(WireRow {
        k: k as u32,
        rtt_us: micros(recv - sent),
        late_us: micros(sent - due),
        queue_us: proto::field(header, "queue-us")
            .and_then(|q| q.parse().ok())
            .unwrap_or(0.0),
        verdict,
    });
}

/// Where a wire loop puts the answers it checked: the chunked latency
/// figures always, each row only for a traced run (which reports no RSS).
struct Sink {
    keep_rows: bool,
    rows: Vec<WireRow>,
    chunks: stats::Chunked,
    exact: usize,
}

impl Sink {
    fn new(keep_rows: bool) -> Sink {
        Sink {
            keep_rows,
            rows: Vec::new(),
            chunks: stats::Chunked::new(),
            exact: 0,
        }
    }

    fn finish(self) -> WireRun {
        WireRun {
            rows: self.rows,
            summary: self.chunks.finish(),
            exact: self.exact,
        }
    }
}

/// What a wire loop measured.
struct WireRun {
    rows: Vec<WireRow>,
    summary: stats::ChunkSummary,
    exact: usize,
}

/// Open loop on one pipelined connection: request `k` is due at
/// `start + k × interval`; a writer thread sends on schedule while this
/// thread reads and checks the responses in order.
fn open_loop(
    conn: &mut Connection,
    lines: &[String],
    interval: Duration,
    window: Duration,
    oracle: &Oracle,
    sink: &mut Sink,
    out: &mut Outcome,
) -> Result<(), String> {
    let framed: Vec<String> = lines.iter().map(|l| format!("{l}\n")).collect();
    let mut writer = conn.raw_stream().try_clone().map_err(|e| e.to_string())?;
    let (tx, rx) = mpsc::channel::<(usize, Instant, Instant)>();
    let start = Instant::now() + Duration::from_millis(5);
    let end = start + window;
    thread::scope(|s| {
        let framed = &framed;
        let pacer = s.spawn(move || -> Result<(), String> {
            precise_sleeps();
            for k in 0.. {
                let due = start + interval * k as u32;
                if due >= end {
                    break;
                }
                sleep_until(due);
                let sent = Instant::now();
                writer
                    .write_all(framed[k % framed.len()].as_bytes())
                    .map_err(|e| format!("send: {e}"))?;
                if tx.send((k, due, sent)).is_err() {
                    break;
                }
            }
            Ok(())
        });
        for (k, due, sent) in rx {
            let response = conn.read_response().map_err(|e| format!("read: {e}"))?;
            receive(
                k,
                start,
                due,
                sent,
                Instant::now(),
                &response.header,
                oracle,
                sink,
                out,
            );
        }
        pacer.join().map_err(|_| "pacer panicked".to_string())?
    })
}

/// Closed loop on one connection: the next query goes out when the
/// previous answer is back.
fn closed_loop(
    conn: &mut Connection,
    lines: &[String],
    window: Duration,
    oracle: &Oracle,
    sink: &mut Sink,
    out: &mut Outcome,
) -> Result<(), String> {
    let start = Instant::now();
    let end = start + window;
    for k in 0.. {
        let sent = Instant::now();
        if sent >= end {
            break;
        }
        let response = conn
            .send(&lines[k % lines.len()])
            .map_err(|e| format!("query: {e}"))?;
        receive(
            k,
            start,
            sent,
            sent,
            Instant::now(),
            &response.header,
            oracle,
            sink,
            out,
        );
    }
    Ok(())
}

/// One mutation sent over the wire: its round trip and how late it went.
struct MutRow {
    rtt_us: f64,
    late_us: f64,
}

/// The wire line of mutation `m`, given the ids the slots hold.
fn mutation_line(m: &Mutation, slots: &[Option<ConstraintId>; 2]) -> Result<String, String> {
    match m {
        Mutation::Add { text, .. } => Ok(format!("+ {text}")),
        Mutation::Retire { slot } => slots[*slot]
            .map(|id| format!("- {id}"))
            .ok_or_else(|| "retire of an empty slot".to_string()),
    }
}

/// Paced mutations on their own connection until `end`. Epochs must
/// advance by exactly one per mutation (one writer per tenant).
fn mutation_loop(
    conn: &mut Connection,
    cycle: &[Mutation],
    end: Instant,
    out: &mut Outcome,
) -> Vec<MutRow> {
    precise_sleeps();
    let interval = Duration::from_millis(MUTATION_INTERVAL_MS);
    let start = Instant::now();
    let mut slots: [Option<ConstraintId>; 2] = [None, None];
    let mut rows = Vec::new();
    for m in 0.. {
        let due = start + interval * (m as u32 + 1);
        if due >= end {
            break;
        }
        sleep_until(due);
        let mutation = &cycle[m % cycle.len()];
        out.attempted += 1;
        let sent = Instant::now();
        let resp = mutation_line(mutation, &slots)
            .and_then(|line| conn.send(&line).map_err(|e| e.to_string()));
        let recv = Instant::now();
        let resp = match resp {
            Ok(r) if r.epoch() == Some(m as u64 + 1) => r,
            Ok(r) => {
                out.fail(format!("mutation {m}: {}", r.header));
                break;
            }
            Err(e) => {
                out.fail(format!("mutation {m}: {e}"));
                break;
            }
        };
        if let Mutation::Add { slot, .. } = mutation {
            slots[*slot] = resp.field("added").and_then(|id| id.parse().ok());
        }
        rows.push(MutRow {
            rtt_us: micros(recv - sent),
            late_us: micros(sent - due),
        });
    }
    rows
}

fn micros(d: Duration) -> f64 {
    d.as_secs_f64() * 1e6
}

/// End-to-end metrics of a wire run, before any mutations are counted
/// into `out`.
fn end_to_end(out: &mut Outcome, run: &WireRun, setup_s: f64) {
    out.set("setup_s", setup_s);
    out.set("p50_us", run.summary.p50_us);
    out.set("p99_us", run.summary.p99_us);
    out.set("qps", run.summary.qps);
    out.set(
        "exact_frac",
        stats::ratio(run.exact as f64, out.attempted as f64),
    );
}

/// The handler path of one wire request, replayed in process.
struct Replay<'a> {
    session: &'a Session,
    table: &'a Table,
    caps: BudgetCaps,
}

/// What one replayed query produced.
struct Handled {
    k: usize,
    lat_us: f64,
    epoch: u64,
    report: Result<BoundReport, BoundError>,
}

impl Replay<'_> {
    /// `bound` as the server executes it: parse the line and the SQL,
    /// admit, bound, format.
    fn query(&self, t: &mut Tracer, k: usize, line: &str) -> Result<Handled, String> {
        let req = k as u64;
        let t0 = Instant::now();
        let root = t.enter("serve.handle", req);
        let parsed = t.span("serve.parse", req, || match proto::parse_request(line)? {
            Request::Bound { caps, sql } => pc_storage::parse_query(self.table, &sql)
                .map(|q| (caps, q))
                .map_err(|e| e.to_string()),
            other => Err(format!("not a bound request: {other:?}")),
        });
        let (caps, query) = match parsed {
            Ok(p) => p,
            Err(e) => {
                t.exit(root);
                return Err(e);
            }
        };
        let budget = self.caps.overridden_by(caps).armed_budget();
        let ticket = t.span("pressure.admit", req, || {
            self.session.admit(&query, &budget)
        });
        let (epoch, report) = t.span("session.bound", req, || {
            self.session.bound_ticketed_stamped(&query, &budget, ticket)
        });
        if let Ok(r) = &report {
            let text = t.span("serve.format", req, || proto::report_fields(r));
            std::hint::black_box(text);
        }
        t.exit(root);
        Ok(Handled {
            k,
            lat_us: micros(t0.elapsed()),
            epoch,
            report,
        })
    }

    /// `+` / `-` as the server executes them; returns the new epoch.
    fn mutate(
        &self,
        t: &mut Tracer,
        m: usize,
        mutation: &Mutation,
        slots: &mut [Option<ConstraintId>; 2],
    ) -> Result<u64, String> {
        let line = mutation_line(mutation, slots)?;
        let req = m as u64;
        let root = t.enter("serve.mutate", req);
        let result = (|| {
            let parsed = t.span("serve.parse", req, || match proto::parse_request(&line)? {
                Request::Add(text) => pc_core::dsl::parse_constraint(self.table, &text)
                    .map(Ok)
                    .map_err(|e| e.to_string()),
                Request::Retire(id) => Ok(Err(id)),
                other => Err(format!("not a mutation: {other:?}")),
            })?;
            match parsed {
                Ok(pc) => {
                    let budget = self.caps.armed_budget();
                    let (id, epoch) = t.span("session.derive", req, || {
                        self.session.add_constraint_stamped(pc, &budget)
                    });
                    if let Mutation::Add { slot, .. } = mutation {
                        slots[*slot] = Some(id);
                    }
                    Ok(epoch)
                }
                Err(id) => t
                    .span("session.derive", req, || {
                        self.session.retire_constraint_stamped(id)
                    })
                    .map_err(|e| e.to_string()),
            }
        })();
        t.exit(root);
        result
    }
}

/// Per-query and per-mutation counters gathered while replaying, and the
/// handler latency of every query split by slice.
#[derive(Default)]
struct Counters {
    queries: f64,
    specialize_sat: f64,
    pivots: f64,
    nodes: f64,
    incumbent_first: f64,
    carried: f64,
    rebuilt: f64,
    mutations: f64,
    incremental_splits: f64,
    derive_sat: f64,
    /// Handler latency per request kind, traced slices.
    traced_us: Vec<Vec<f64>>,
    untraced_us: Vec<f64>,
}

impl Counters {
    /// Check a replayed answer against the oracle of its epoch and fold
    /// its counters. `epoch_sat` maps an epoch to the SAT checks its cell
    /// build or derivation made, which the report's `DecomposeStats`
    /// count ahead of the query's own specialization.
    fn absorb(
        &mut self,
        h: Handled,
        traced: bool,
        oracle: &Oracle,
        epoch_sat: &Mutex<HashMap<u64, u64>>,
        out: &mut Outcome,
    ) {
        out.attempted += 1;
        let kinds = oracle[0].len();
        let want = oracle[h.epoch as usize % oracle.len()][h.k % kinds];
        let answer = match &h.report {
            Ok(r) => Answer::Range {
                lo: r.range.lo,
                hi: r.range.hi,
                exact: !r.degraded && r.sched.is_none_or(|s| s.verdict == AdmissionVerdict::Exact),
            },
            Err(BoundError::EmptyAggregate) => Answer::Empty,
            Err(e) => return out.fail(format!("replayed request {}: {e}", h.k)),
        };
        if let Err(e) = catalog::check(want, answer) {
            out.fail(format!(
                "replayed request {} at epoch {}: {e}",
                h.k, h.epoch
            ));
        }
        if traced {
            self.traced_us.resize_with(kinds, Vec::new);
            self.traced_us[h.k % kinds].push(h.lat_us);
        } else {
            self.untraced_us.push(h.lat_us);
        }
        if let Ok(r) = &h.report {
            self.queries += 1.0;
            if let Some(base) = epoch_sat.lock().expect("epoch map lock").get(&h.epoch) {
                self.specialize_sat += r.stats.sat_checks.saturating_sub(*base) as f64;
            }
            self.pivots += r.solver.pivots as f64;
            self.nodes += r.solver.nodes as f64;
            self.incumbent_first += r.solver.incumbent_first as f64;
            self.carried += r.solver.carried as f64;
            self.rebuilt += r.solver.rebuilt as f64;
        }
    }
}

/// Per-layer metrics of a serving workload: the wire phase's rows (queue
/// waits and verdicts the server stamped, pacer lateness, round trips),
/// and the replay's spans and counters.
fn per_layer(out: &mut Outcome, wire: &WireRun, late_us: &[f64], spans: &[Span], c: &Counters) {
    let selfs = trace::self_times_us(spans);
    let p = |name: &str, pct: f64| selfs.get(name).map_or(0.0, |v| stats::percentile(v, pct));
    out.set("serve.parse_us", p("serve.parse", 50.0));
    out.set("serve.format_us", p("serve.format", 50.0));
    out.set("pressure.admit_us", p("pressure.admit", 50.0));
    out.set("session.bound_p50_us", p("session.bound", 50.0));
    out.set("session.bound_p99_us", p("session.bound", 99.0));
    out.set("session.derive_us", p("session.derive", 50.0));
    out.set(
        "session.cells_build_ms",
        p("session.cells_build", 50.0) / 1e3,
    );
    let q = c.queries.max(1.0);
    out.set("specialize.sat_checks", c.specialize_sat / q);
    out.set("solver.pivots", c.pivots / q);
    out.set("solver.nodes", c.nodes / q);
    out.set("solver.incumbent_first", c.incumbent_first / q);
    out.set(
        "solver.carried_frac",
        stats::ratio(c.carried, c.carried + c.rebuilt),
    );
    let m = c.mutations.max(1.0);
    out.set("decompose.incremental_splits", c.incremental_splits / m);
    out.set("derive.sat_checks", c.derive_sat / m);
    let traced: Vec<f64> = c.traced_us.iter().flatten().copied().collect();
    let (on, off) = (stats::median(&traced), stats::median(&c.untraced_us));
    out.set("trace.overhead_pct", 100.0 * stats::ratio(on - off, off));
    out.set("trace.spans", spans.len() as f64);

    // the client's round trip minus the median traced handler time of the
    // same request line
    let handler: Vec<f64> = c.traced_us.iter().map(|v| stats::median(v)).collect();
    let gaps: Vec<f64> = wire
        .rows
        .iter()
        .filter_map(|r| {
            handler
                .get(r.k as usize % handler.len().max(1))
                .map(|h| r.rtt_us - h)
        })
        .collect();
    out.set("serve.wire_us", stats::median(&gaps));
    let waits: Vec<f64> = wire.rows.iter().map(|r| r.queue_us).collect();
    out.set(
        "pressure.queue_wait_p50_us",
        stats::percentile(&waits, 50.0),
    );
    out.set(
        "pressure.queue_wait_p99_us",
        stats::percentile(&waits, 99.0),
    );
    let count = |v: AdmissionVerdict| wire.rows.iter().filter(|r| r.verdict == v).count() as f64;
    out.set("pressure.exact", count(AdmissionVerdict::Exact));
    out.set("pressure.degraded", count(AdmissionVerdict::Degraded));
    out.set("pressure.shed", count(AdmissionVerdict::Shed));
    out.set("loadgen.late_p99_us", stats::percentile(late_us, 99.0));
}

/// The in-process replay of a traced run: a fresh session over the same
/// catalog (its cell build a span), warmed with one untraced pass, then
/// the same query stream — paced at `pace`, or closed loop — while a
/// second thread replays the mutation stream at the fixed interval, in
/// alternating traced and untraced slices until `window` ends.
fn replay(
    lines: &[String],
    cycle: &[Mutation],
    oracle: &Oracle,
    pace: Option<Duration>,
    window: Duration,
    out: &mut Outcome,
) -> Result<(Vec<Span>, Counters), String> {
    let table = catalog::serving_table();
    let session = Session::with_options(
        catalog::serving_set(catalog::SERVING_CONSTRAINTS),
        SessionOptions::default(),
    );
    let origin = Instant::now();
    let (mut tq, mut tm) = (Tracer::new(origin), Tracer::new(origin));
    tq.set_on(true);
    let cells = tq.span("session.cells_build", 0, || session.sharded_cell_set());
    tq.set_on(false);
    let base_sat = cells
        .map_err(|e| format!("cell build: {e}"))?
        .stats()
        .sat_checks;
    let replay = Replay {
        session: &session,
        table: &table,
        caps: ServeConfig::default().caps,
    };
    for (k, line) in lines.iter().enumerate() {
        replay.query(&mut tq, k, line)?;
    }
    let epoch_sat = Mutex::new(HashMap::from([(0u64, base_sat)]));
    let mut c = Counters::default();
    // a closed loop in process answers tens of thousands of queries a
    // second: trace every 7th of a traced slice (7 is prime to the cycle
    // length, so every request line still gets traced samples)
    let stride = if pace.is_some() { 1 } else { 7 };
    if pace.is_some() {
        precise_sleeps();
    }
    let start = Instant::now();
    let end = start + window;
    thread::scope(|s| -> Result<(), String> {
        let (replay, epoch_sat, tm) = (&replay, &epoch_sat, &mut tm);
        let mutator = s.spawn(move || -> Result<(f64, f64, f64), String> {
            precise_sleeps();
            let interval = Duration::from_millis(MUTATION_INTERVAL_MS);
            let mut slots: [Option<ConstraintId>; 2] = [None, None];
            let (mut n, mut splits, mut sat) = (0.0, 0.0, 0.0);
            if cycle.is_empty() {
                return Ok((n, splits, sat));
            }
            for m in 0.. {
                let due = start + interval * (m as u32 + 1);
                if due >= end {
                    break;
                }
                sleep_until(due);
                tm.set_on(traced_slice(start, due));
                let epoch = replay.mutate(tm, m, &cycle[m % cycle.len()], &mut slots)?;
                if epoch != m as u64 + 1 {
                    return Err(format!("replayed mutation {m} stamped epoch {epoch}"));
                }
                // the new epoch's own derivation work
                let derived = replay
                    .session
                    .sharded_cell_set()
                    .map_err(|e| e.to_string())?
                    .stats();
                epoch_sat
                    .lock()
                    .expect("epoch map lock")
                    .insert(epoch, derived.sat_checks);
                n += 1.0;
                splits += derived.incremental_splits as f64;
                sat += derived.sat_checks as f64;
            }
            Ok((n, splits, sat))
        });
        for k in 0.. {
            let at = pace.map_or_else(Instant::now, |interval| start + interval * k as u32);
            if at >= end {
                break;
            }
            sleep_until(at);
            let traced = traced_slice(start, at) && k % stride == 0;
            tq.set_on(traced);
            let h = replay.query(&mut tq, k, &lines[k % lines.len()])?;
            c.absorb(h, traced, oracle, epoch_sat, out);
        }
        let (n, splits, sat) = mutator
            .join()
            .map_err(|_| "replay mutator panicked".to_string())??;
        out.attempted += n as u64;
        c.mutations = n;
        c.incremental_splits = splits;
        c.derive_sat = sat;
        Ok(())
    })?;
    let mut spans = Vec::new();
    tq.drain_into(&mut spans);
    tm.drain_into(&mut spans);
    Ok((spans, c))
}

/// `serve_read`: open loop at a fixed interval on one pipelined
/// connection, one request in eight with a loose deadline.
pub fn run_read(cfg: &Config) -> Result<Outcome, String> {
    let lines = catalog::request_cycle(cfg.seed, true);
    let oracle = oracle_for(&catalog::serving_table(), &lines, &[], cfg.corrupt_oracle)?;
    let (running, mut conns, setup_s) = timed_set_up(&lines, 1)?;
    let interval = Duration::from_micros(READ_INTERVAL_US);
    let mut out = Outcome::default();
    let wire_window = if cfg.trace {
        cfg.window() / 3
    } else {
        cfg.window()
    };
    let mut sink = Sink::new(cfg.trace);
    let done = open_loop(
        &mut conns[0],
        &lines,
        interval,
        wire_window,
        &oracle,
        &mut sink,
        &mut out,
    );
    drop(conns);
    running.stop();
    done?;
    let wire = sink.finish();
    if !cfg.trace {
        end_to_end(&mut out, &wire, setup_s);
        out.set(
            "failed_frac",
            stats::ratio(out.failed as f64, out.attempted as f64),
        );
        out.set("peak_rss_mb", peak_rss_mb());
        return Ok(out);
    }
    let late: Vec<f64> = wire.rows.iter().map(|r| r.late_us).collect();
    let (spans, c) = replay(
        &lines,
        &[],
        &oracle,
        Some(interval),
        cfg.window() - wire_window,
        &mut out,
    )?;
    per_layer(&mut out, &wire, &late, &spans, &c);
    trace::write_run("serve_read", cfg.seed, &spans);
    Ok(out)
}

/// `serve_churn`: closed-loop queries on one connection (one in eight
/// with a loose deadline, so admission runs) while a second connection
/// adds and retires constraints at a fixed interval.
pub fn run_churn(cfg: &Config) -> Result<Outcome, String> {
    let lines = catalog::request_cycle(cfg.seed, true);
    let cycle = catalog::mutation_cycle(cfg.seed);
    let oracle = oracle_for(
        &catalog::serving_table(),
        &lines,
        &cycle,
        cfg.corrupt_oracle,
    )?;
    let (running, conns, setup_s) = timed_set_up(&lines, 2)?;
    let [mut query_conn, mut mut_conn]: [Connection; 2] = conns
        .try_into()
        .map_err(|_| "two connections".to_string())?;
    let mut out = Outcome::default();
    let mut mutations = Outcome::default();
    let wire_window = if cfg.trace {
        cfg.window() / 3
    } else {
        cfg.window()
    };
    let end = Instant::now() + wire_window;
    let mut sink = Sink::new(cfg.trace);
    let (done, muts) = thread::scope(|s| {
        let (cycle, mutations) = (&cycle, &mut mutations);
        let mutator = s.spawn(move || mutation_loop(&mut mut_conn, cycle, end, mutations));
        let done = closed_loop(
            &mut query_conn,
            &lines,
            wire_window,
            &oracle,
            &mut sink,
            &mut out,
        );
        (done, mutator.join().expect("mutator thread"))
    });
    drop(query_conn);
    running.stop();
    done?;
    let wire = sink.finish();
    let mut_rtt: Vec<f64> = muts.iter().map(|m| m.rtt_us).collect();
    if !cfg.trace {
        end_to_end(&mut out, &wire, setup_s);
        out.merge(mutations);
        out.set("mutation_p50_us", stats::percentile(&mut_rtt, 50.0));
        out.set(
            "failed_frac",
            stats::ratio(out.failed as f64, out.attempted as f64),
        );
        out.set("peak_rss_mb", peak_rss_mb());
        return Ok(out);
    }
    out.merge(mutations);
    let late: Vec<f64> = muts.iter().map(|m| m.late_us).collect();
    let (spans, c) = replay(
        &lines,
        &cycle,
        &oracle,
        None,
        cfg.window() - wire_window,
        &mut out,
    )?;
    per_layer(&mut out, &wire, &late, &spans, &c);
    out.set("mutation_p50_us", stats::percentile(&mut_rtt, 50.0));
    trace::write_run("serve_churn", cfg.seed, &spans);
    Ok(out)
}
