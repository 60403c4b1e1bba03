//! Criterion bench for the session serve path: cold per-query
//! decomposition vs one long-lived `Session` specializing a cached
//! decomposition, on a stream of repeated aggregate queries against one
//! overlapping PC set.
//!
//! Modes:
//!
//! * `cold` — `BoundEngine::bound` per query: every query re-decomposes
//!   its region from scratch (the pre-session architecture).
//! * `warm_chain` — a `Session` with the cell cache *disabled*: cold
//!   decompositions, but simplex warm starts chained across queries.
//!   Isolates the warm-chaining contribution.
//! * `session` — the full session: decompose once against the domain,
//!   specialize cached cells per query, chain warm starts — with the
//!   default tableau carry, so structurally repeating LPs re-price one
//!   carried canonical tableau across queries. The serve path `pc batch`
//!   uses.
//!
//! Every mode is asserted (outside the timed region) to produce
//! identical ranges, so the bench only ever compares equal work; each
//! mode's aggregated `BoundReport::solver` counters (pivots, carried vs
//! rebuilt tableaux, branch & bound nodes) are emitted as
//! `serve_pivots/...` JSON lines next to the timing rows.
//!
//! Set `PC_BENCH_JSON=/path/file.json` to append machine-readable results
//! (the repo's `BENCH_serve.json` is produced this way).

use criterion::{criterion_group, criterion_main, Criterion};
use pc_bench::emit_bench_json_line;
use pc_core::budget::pressure::AdmissionVerdict;
use pc_core::{
    BoundEngine, BoundOptions, FrequencyConstraint, LpWork, PcSet, PredicateConstraint,
    QueryBudget, Session, SessionOptions, ValueConstraint,
};
use pc_predicate::{Atom, AttrType, Interval, Predicate, Region, Schema};
use pc_storage::{AggKind, AggQuery};
use std::sync::Arc;
use std::time::{Duration, Instant};

/// The solver-work columns that ride next to criterion's timing rows.
fn emit_work_profile(id: &str, w: &LpWork) {
    emit_bench_json_line(&format!(
        "{{\"id\": \"{id}\", \"pivots\": {}, \"carried\": {}, \"rebuilt\": {}, \"nodes\": {}}}",
        w.pivots, w.carried, w.rebuilt, w.nodes
    ));
}

/// An overlapping constraint set over (region, value): `n` staggered
/// range constraints whose boxes overlap their neighbors, so the
/// decomposition tree is genuinely bushy and worth amortizing.
fn serving_set(n: usize) -> PcSet {
    let schema = Schema::new(vec![("region", AttrType::Int), ("value", AttrType::Float)]);
    let mut set = PcSet::new(schema);
    for i in 0..n {
        let lo = (i * 5 % 23) as f64;
        // every third constraint is a narrow *floor* (a frequency lower
        // bound on a box small enough that query windows contain it
        // whole, so pushdown keeps the bound): floors force Ge rows into
        // the allocation LPs — a real phase 1 per cold solve — and
        // engage the AVG binary search below, the workload shapes the
        // warm-start tiers exist for
        let (hi, freq) = if i % 3 == 0 {
            (
                lo + 3.0,
                FrequencyConstraint::between(2, 15 + (i % 7) as u64),
            )
        } else {
            (
                lo + 9.0 + (i % 4) as f64,
                FrequencyConstraint::at_most(15 + (i % 7) as u64),
            )
        };
        set.push(PredicateConstraint::new(
            Predicate::atom(Atom::between(0, lo, hi)),
            ValueConstraint::none().with(1, Interval::closed(0.0, 40.0 + 10.0 * (i % 6) as f64)),
            freq,
        ));
    }
    // a catch-all cap closes the set: every query gets finite bounds
    set.push(PredicateConstraint::new(
        Predicate::always(),
        ValueConstraint::none().with(1, Interval::closed(0.0, 100.0)),
        FrequencyConstraint::at_most(200),
    ));
    let mut domain = Region::full(set.schema());
    domain.set_interval(0, Interval::closed(0.0, 40.0));
    domain.set_interval(1, Interval::closed(0.0, 100.0));
    set.set_domain(domain);
    set
}

/// `a == b` within tolerance, treating equal infinities as equal.
fn close(a: f64, b: f64) -> bool {
    a == b || (a - b).abs() < 1e-6
}

/// The query stream: aggregate queries over staggered region windows —
/// the repeated-traffic shape a session amortizes (every query's region
/// cuts the shared decomposition differently). AVG queries are the
/// chain-carry showcase: each runs a binary search of up to ~80
/// feasibility probes over the *same* constraint rows with shifting
/// objectives, so at `Warmth::Carry` every probe after the first
/// re-prices one carried tableau instead of rebuilding.
fn query_stream(count: usize) -> Vec<AggQuery> {
    (0..count)
        .map(|i| {
            let lo = (i * 7 % 29) as f64;
            let hi = lo + 6.0 + (i % 5) as f64;
            let predicate = Predicate::atom(Atom::between(0, lo, hi));
            match i % 4 {
                0 => AggQuery::new(AggKind::Sum, 1, predicate),
                1 => AggQuery::count(predicate),
                2 => AggQuery::new(AggKind::Avg, 1, predicate),
                _ => AggQuery::new(AggKind::Max, 1, predicate),
            }
        })
        .collect()
}

/// Start a fresh epoch over the same catalog: swap the last constraint
/// (the catch-all cap) for a copy of itself, so the catalog and its
/// order stay as they were. The new epoch's answer memo is empty, so the
/// next ask of every query runs again — through the derived cells and
/// the warm-start chains — instead of taking a stored answer.
fn fresh_epoch(session: &Session) {
    let id = *session
        .constraint_ids()
        .last()
        .expect("a non-empty catalog");
    let pc = session.pc_set().constraints().last().cloned();
    session
        .replace_constraint(id, pc.expect("a non-empty catalog"))
        .expect("a live id is replaced");
}

fn bench_query_throughput(c: &mut Criterion) {
    let opts = BoundOptions::default();
    let mut group = c.benchmark_group("query_throughput");
    group.sample_size(10);
    for n_constraints in [10usize, 14] {
        let set = serving_set(n_constraints);
        let queries = query_stream(24);

        // sanity outside the timed region: all three modes agree — and
        // their aggregated solver-work counters become the pivot columns
        // of the artifact
        let engine = BoundEngine::with_options(&set, opts);
        let session = Session::with_options(
            set.clone(),
            SessionOptions {
                bound: opts,
                ..SessionOptions::default()
            },
        );
        let chain_only = Session::with_options(
            set.clone(),
            SessionOptions {
                bound: opts,
                cache_cells: false,
                ..SessionOptions::default()
            },
        );
        let mut cold_work = LpWork::default();
        let mut session_work = LpWork::default();
        let absorb = |into: &mut LpWork, w: LpWork| {
            into.pivots += w.pivots;
            into.carried += w.carried;
            into.rebuilt += w.rebuilt;
            into.nodes += w.nodes;
        };
        for q in &queries {
            let cold = engine.bound(q).expect("bounded workload");
            let served = session.bound(q).expect("bounded workload");
            let chained = chain_only.bound(q).expect("bounded workload").range;
            absorb(&mut cold_work, cold.solver);
            absorb(&mut session_work, served.solver);
            let (cold, served) = (cold.range, served.range);
            assert!(
                close(cold.lo, served.lo) && close(cold.hi, served.hi),
                "session mismatch on {q:?}: {cold:?} vs {served:?}"
            );
            assert!(
                close(cold.lo, chained.lo) && close(cold.hi, chained.hi),
                "warm-chain mismatch on {q:?}: {cold:?} vs {chained:?}"
            );
        }
        let param = format!("{n_constraints}pc");
        emit_work_profile(&format!("serve_pivots/cold/{param}"), &cold_work);
        emit_work_profile(&format!("serve_pivots/session/{param}"), &session_work);

        group.bench_with_input(
            criterion::BenchmarkId::new("cold", &param),
            &queries,
            |b, qs| {
                b.iter(|| {
                    let engine = BoundEngine::with_options(&set, opts);
                    for q in qs {
                        engine.bound(q).expect("bounded workload");
                    }
                })
            },
        );
        group.bench_with_input(
            criterion::BenchmarkId::new("warm_chain", &param),
            &queries,
            |b, qs| {
                b.iter(|| {
                    let session = Session::with_options(
                        set.clone(),
                        SessionOptions {
                            bound: opts,
                            cache_cells: false,
                            ..SessionOptions::default()
                        },
                    );
                    for q in qs {
                        session.bound(q).expect("bounded workload");
                    }
                })
            },
        );
        // The session is constructed (and its cache filled) once, outside
        // the timed loop: this measures the steady serving state — the
        // whole point of the layer. The first iteration pays the one-time
        // decomposition; criterion's warmup absorbs it.
        group.bench_with_input(
            criterion::BenchmarkId::new("session", &param),
            &queries,
            |b, qs| {
                let session = Session::with_options(
                    set.clone(),
                    SessionOptions {
                        bound: opts,
                        ..SessionOptions::default()
                    },
                );
                b.iter(|| {
                    for q in qs {
                        session.bound(q).expect("bounded workload");
                    }
                })
            },
        );
    }
    group.finish();
}

/// Extra constraints the churn script admits and retires: wide caps whose
/// boxes cover the query windows whole, so existing cells are *contained*
/// rather than cut — the allocation LPs then keep their variables and
/// gain/lose exactly the churned constraint's row, which is the shape the
/// carried-tableau delta adaptation absorbs (append/delete one row + dual
/// restore instead of a cold rebuild).
fn churn_pool() -> Vec<PredicateConstraint> {
    (0..4)
        .map(|k| {
            PredicateConstraint::new(
                Predicate::atom(Atom::between(0, 0.0, 40.0)),
                ValueConstraint::none().with(1, Interval::closed(0.0, 95.0 - 5.0 * k as f64)),
                FrequencyConstraint::at_most(180 - 10 * k as u64),
            )
        })
        .collect()
}

/// One run of the churn script against a session: serve `queries` in
/// rounds, admitting a pool constraint after each round and retiring the
/// oldest live one every other round. Returns the served ranges plus the
/// summed per-epoch derivation stats (`cell_set().stats()` is each
/// epoch's own work) and the summed per-query solver work.
fn run_churn(
    session: &Session,
    queries: &[AggQuery],
) -> (Vec<(f64, f64)>, pc_core::DecomposeStats, LpWork) {
    let pool = churn_pool();
    let mut ranges = Vec::new();
    let mut decompose_work = pc_core::DecomposeStats::default();
    let mut solver_work = LpWork::default();
    let absorb_epoch = |session: &Session, w: &mut pc_core::DecomposeStats| {
        let stats = session.cell_set().expect("decomposable workload").stats();
        w.absorb(&stats);
    };
    absorb_epoch(session, &mut decompose_work);
    let mut live: Vec<pc_core::ConstraintId> = Vec::new();
    for (round, chunk) in queries.chunks(3).enumerate() {
        for q in chunk {
            let r = session.bound(q).expect("bounded workload");
            solver_work.pivots += r.solver.pivots;
            solver_work.carried += r.solver.carried;
            solver_work.rebuilt += r.solver.rebuilt;
            solver_work.nodes += r.solver.nodes;
            ranges.push((r.range.lo, r.range.hi));
        }
        if let Some(pc) = pool.get(round % pool.len()) {
            live.push(session.add_constraint(pc.clone()));
            absorb_epoch(session, &mut decompose_work);
        }
        if round % 2 == 1 {
            if let Some(id) = (!live.is_empty()).then(|| live.remove(0)) {
                session
                    .retire_constraint(id)
                    .expect("live id retires cleanly");
                absorb_epoch(session, &mut decompose_work);
            }
        }
    }
    (ranges, decompose_work, solver_work)
}

/// The constraint-churn scenario: serve N queries while K constraints are
/// added/retired in between — the versioned session's reason to exist.
///
/// * `incremental` — delta-derived epochs + tableau carry (the default
///   serving configuration).
/// * `rebuild` — `SessionOptions::incremental` off: every mutation pays a
///   full re-decomposition (the pre-epoch architecture). Isolates the
///   derivation's SAT-check savings (`churn_work/.../sat_checks`).
///
/// Both modes are asserted to produce identical ranges (and to match
/// a fresh engine on the final catalog), so the timings compare equal
/// answers; per-mode work profiles are emitted as `churn_work/...` JSON
/// lines next to criterion's timing rows.
fn bench_constraint_churn(c: &mut Criterion) {
    let opts = BoundOptions::default();
    let mut group = c.benchmark_group("constraint_churn");
    group.sample_size(10);
    for n_constraints in [10usize, 14] {
        let set = serving_set(n_constraints);
        let queries = query_stream(18);
        let make = |bound: BoundOptions, incremental: bool| {
            Session::with_options(
                set.clone(),
                SessionOptions {
                    bound,
                    incremental,
                    ..SessionOptions::default()
                },
            )
        };

        // sanity + work profiles outside the timed region
        let incremental = make(opts, true);
        let rebuild = make(opts, false);
        let (inc_ranges, inc_cells, inc_lp) = run_churn(&incremental, &queries);
        let (reb_ranges, reb_cells, reb_lp) = run_churn(&rebuild, &queries);
        assert_eq!(inc_ranges.len(), reb_ranges.len());
        for (i, (a, b)) in inc_ranges.iter().zip(&reb_ranges).enumerate() {
            assert!(
                close(a.0, b.0) && close(a.1, b.1),
                "rebuild mismatch at {i}: {a:?} vs {b:?}"
            );
        }
        // the final catalog answers like a fresh engine
        {
            let final_set = incremental.pc_set();
            let fresh = BoundEngine::with_options(&final_set, opts);
            let q = &queries[0];
            let a = fresh.bound(q).expect("bounded workload").range;
            let b = incremental.bound(q).expect("bounded workload").range;
            assert!(close(a.lo, b.lo) && close(a.hi, b.hi));
        }
        let param = format!("{n_constraints}pc");
        for (mode, cells, lp) in [
            ("incremental", &inc_cells, &inc_lp),
            ("rebuild", &reb_cells, &reb_lp),
        ] {
            emit_bench_json_line(&format!(
                "{{\"id\": \"churn_work/{mode}/{param}\", \"sat_checks\": {}, \
                 \"incremental_splits\": {}, \"pivots\": {}, \"carried\": {}, \
                 \"rebuilt\": {}, \"nodes\": {}}}",
                cells.sat_checks,
                cells.incremental_splits,
                lp.pivots,
                lp.carried,
                lp.rebuilt,
                lp.nodes
            ));
        }

        group.bench_with_input(
            criterion::BenchmarkId::new("incremental", &param),
            &queries,
            |b, qs| {
                b.iter(|| {
                    let session = make(opts, true);
                    run_churn(&session, qs)
                })
            },
        );
        group.bench_with_input(
            criterion::BenchmarkId::new("rebuild", &param),
            &queries,
            |b, qs| {
                b.iter(|| {
                    let session = make(opts, false);
                    run_churn(&session, qs)
                })
            },
        );
    }
    group.finish();
}

/// Latency percentile out of a sorted sample, in microseconds.
fn percentile_us(sorted: &[Duration], pct: usize) -> u128 {
    let idx = (sorted.len() * pct / 100).min(sorted.len() - 1);
    sorted[idx].as_micros()
}

/// The deadline-stress scenario: the serving stream under per-query
/// [`QueryBudget`]s — the robustness layer's "always answers by the
/// deadline" promise, measured.
///
/// Two artifact families ride next to the timing rows:
///
/// * `deadline_stress/deadline_<t>` — the 24-query stream served under a
///   per-query wall-clock deadline `t`, many rounds, each on a fresh
///   epoch so that every query runs (asserted). Reports the
///   **degraded hit-rate** (what fraction of answers had to fall back to
///   a sound-but-wider range) and the latency percentiles. Every
///   degraded answer is asserted to *contain* the exact range first —
///   the stress never trades soundness.
/// * `deadline_stress/cancel` — the same stream served on budgets that
///   are **already cancelled** when the call starts: the measured
///   latency is pure cancellation response (how fast the pipeline's
///   cooperative checks notice and unwind through the degradation
///   ladder), and its p99 is the "cancel latency" a serving tier would
///   quote.
fn bench_deadline_stress(c: &mut Criterion) {
    let opts = BoundOptions::default();
    let set = serving_set(14);
    let queries = query_stream(24);
    let session = Session::with_options(
        set.clone(),
        SessionOptions {
            bound: opts,
            ..SessionOptions::default()
        },
    );
    // Exact oracle (and cache warm-up) outside any measured region.
    let oracle: Vec<(f64, f64)> = queries
        .iter()
        .map(|q| {
            let r = session.bound(q).expect("bounded workload").range;
            (r.lo, r.hi)
        })
        .collect();

    const ROUNDS: usize = 20;
    for (label, timeout) in [
        ("50us", Duration::from_micros(50)),
        ("500us", Duration::from_micros(500)),
        ("5ms", Duration::from_millis(5)),
    ] {
        let mut lat: Vec<Duration> = Vec::with_capacity(ROUNDS * queries.len());
        let mut degraded = 0usize;
        let hits = session.memo_stats().hits;
        for _ in 0..ROUNDS {
            // Each round on a fresh epoch: a query runs under its
            // deadline instead of taking the answer the last round stored.
            fresh_epoch(&session);
            for (q, &(lo, hi)) in queries.iter().zip(&oracle) {
                let budget = QueryBudget::armed().with_timeout(timeout);
                let t0 = Instant::now();
                let r = session
                    .bound_ticketed_stamped(q, &budget, None)
                    .1
                    .expect("a deadline degrades, never errors");
                lat.push(t0.elapsed());
                assert!(
                    r.range.lo <= lo + 1e-6 && r.range.hi >= hi - 1e-6,
                    "deadline {label}: degraded [{}, {}] must contain exact [{lo}, {hi}]",
                    r.range.lo,
                    r.range.hi
                );
                degraded += r.degraded as usize;
            }
        }
        assert_eq!(
            session.memo_stats().hits,
            hits,
            "deadline {label}: every query must run, not take a memo hit"
        );
        lat.sort();
        emit_bench_json_line(&format!(
            "{{\"id\": \"deadline_stress/deadline_{label}\", \"queries\": {}, \
             \"degraded\": {degraded}, \"degraded_rate\": {:.4}, \
             \"p50_us\": {}, \"p99_us\": {}, \"max_us\": {}}}",
            lat.len(),
            degraded as f64 / lat.len() as f64,
            percentile_us(&lat, 50),
            percentile_us(&lat, 99),
            lat.last().unwrap().as_micros()
        ));
    }

    // Cancellation response: the budget is tripped before the call, so
    // the whole measured latency is "how long until the engine notices
    // and answers degraded".
    let mut lat: Vec<Duration> = Vec::with_capacity(ROUNDS * queries.len());
    for _ in 0..ROUNDS {
        for (q, &(lo, hi)) in queries.iter().zip(&oracle) {
            let budget = QueryBudget::armed().with_sat_cap(u64::MAX);
            budget.cancel_token().expect("armed budget").cancel();
            let t0 = Instant::now();
            let r = session
                .bound_ticketed_stamped(q, &budget, None)
                .1
                .expect("a cancel degrades, never errors");
            lat.push(t0.elapsed());
            assert!(r.degraded, "a cancelled query's answer must be marked");
            assert!(r.range.lo <= lo + 1e-6 && r.range.hi >= hi - 1e-6);
        }
    }
    lat.sort();
    emit_bench_json_line(&format!(
        "{{\"id\": \"deadline_stress/cancel\", \"queries\": {}, \
         \"p50_us\": {}, \"p99_us\": {}, \"max_us\": {}}}",
        lat.len(),
        percentile_us(&lat, 50),
        percentile_us(&lat, 99),
        lat.last().unwrap().as_micros()
    ));

    // Timing rows: the budget layer's overhead on the un-tripped fast
    // path (unlimited vs a deadline generous enough to never fire).
    let mut group = c.benchmark_group("deadline_stress");
    group.sample_size(10);
    group.bench_with_input(
        criterion::BenchmarkId::new("unlimited", "14pc"),
        &queries,
        |b, qs| {
            b.iter(|| {
                for q in qs {
                    session.bound(q).expect("bounded workload");
                }
            })
        },
    );
    group.bench_with_input(
        criterion::BenchmarkId::new("deadline_1s", "14pc"),
        &queries,
        |b, qs| {
            b.iter(|| {
                for q in qs {
                    let budget = QueryBudget::armed().with_timeout(Duration::from_secs(1));
                    session
                        .bound_ticketed_stamped(q, &budget, None)
                        .1
                        .expect("bounded workload");
                }
            })
        },
    );
    group.finish();
}

/// One answered arrival of an open-loop burst (see
/// [`bench_deadline_burst`]): latency is measured from the *planned*
/// arrival instant, so queue wait counts against the query exactly as a
/// client would experience it.
struct BurstRow {
    lat: Duration,
    degraded: bool,
    shed: bool,
    tight: bool,
    lo: f64,
    hi: f64,
    qi: usize,
}

/// One arm of the burst scenario ([`bench_deadline_burst`]): its
/// session, what its bursts answered, and the answer-memo misses they
/// paid.
struct BurstArm {
    mode: &'static str,
    session: Arc<Session>,
    rows: Vec<BurstRow>,
    memo_misses: u64,
}

/// Fire `arrivals` queries at a fixed `interval` (open loop: the driver
/// never waits for completions), each with its own arrival-anchored
/// deadline, and collect every answer. Each arrival is spawned as a pool
/// task, so it queues in the pool's FIFO injector behind the arrivals
/// before it.
fn run_burst(
    session: &Arc<Session>,
    queries: &[AggQuery],
    arrivals: usize,
    interval: Duration,
    deadlines: [Duration; 2],
) -> Vec<BurstRow> {
    let (tx, rx) = std::sync::mpsc::channel::<BurstRow>();
    let start = Instant::now() + Duration::from_micros(200);
    for i in 0..arrivals {
        let planned = start + interval * i as u32;
        while Instant::now() < planned {
            std::hint::spin_loop();
        }
        let qi = i % queries.len();
        let q = queries[qi].clone();
        // One urgent arrival in six, with a deadline a third of the loose
        // one's: the rows report how many of them degrade.
        let tight = i % 6 == 0;
        let deadline = planned + deadlines[usize::from(!tight)];
        let session = Arc::clone(session);
        let tx = tx.clone();
        // Armed at arrival (not at task start): `armed_for` is the real
        // queue wait by the time the query runs.
        let budget = QueryBudget::armed().with_deadline(deadline);
        // Arrival-time admission: the verdict must come before the queue
        // wait, not after it — judging at task start would admit every
        // arrival into a queue none of them can survive.
        let ticket = session.admit(&q, &budget);
        rayon::spawn(move || {
            let r = session
                .bound_ticketed_stamped(&q, &budget, ticket)
                .1
                .expect("a deadline degrades, never errors");
            let shed = matches!(
                r.sched.as_ref().map(|s| s.verdict),
                Some(AdmissionVerdict::Shed)
            );
            let _ = tx.send(BurstRow {
                lat: planned.elapsed(),
                degraded: r.degraded,
                shed,
                tight,
                lo: r.range.lo,
                hi: r.range.hi,
                qi,
            });
        });
    }
    drop(tx);
    rx.iter().collect()
}

/// The overload scenario admission control exists for: an open-loop
/// burst of arrivals (fixed inter-arrival gap, driver never
/// backpressures) with **mixed urgency** — arrivals alternate a tight
/// and a loose deadline, both anchored at the arrival instant, and queue
/// in arrival order. Without admission every arrival runs the exact rung
/// and trips once its deadline passes; with admission the gauge degrades
/// or sheds at arrival what it predicts cannot finish. Same offered
/// load, same deadlines, same session configuration otherwise — the
/// artifact rows (`deadline_stress/burst_no_admission` and
/// `burst_admission`) record degraded-rate and latency percentiles, and
/// every answer (degraded, shed, or exact) is asserted to contain the
/// exact range before anything is recorded. Nothing compares the two
/// rows.
/// Every arrival asks a query its epoch has not answered (asserted: no
/// burst arrival is an answer-memo hit), so each one meets admission.
fn bench_deadline_burst(_c: &mut Criterion) {
    let set = serving_set(14);
    const ARRIVALS: usize = 96;
    // One distinct query per arrival (the stream first repeats at 580),
    // and every burst on a fresh epoch: no arrival can take an answer
    // from the epoch's memo, so each one meets admission and runs.
    let queries = query_stream(ARRIVALS);

    // Scale the scenario to this machine. The burst constants are
    // ratios of the measured uncontended per-query service time, so the
    // same overload factor reproduces on fast and slow hosts alike;
    // fixed microsecond constants flip between trivial and hopeless as
    // the host speed drifts. Arrivals come ~1.7x faster than serial
    // drain, so the queue by burst end (~40 services deep) reaches the
    // loose deadline (42 services): early loose arrivals survive, the
    // late tail is marginal or hopeless and worth rejecting early, and
    // tight ones (14 services) survive only while the queue ahead of
    // them is short.
    let probe = Session::with_options(set.clone(), SessionOptions::default());
    for q in &queries {
        probe.bound(q).expect("probe warm-up");
    }
    // Min over several passes: the probe anchors every constant below,
    // and a single descheduling sputter during one pass would inflate it
    // 3-4x and silently swap the regime for an easy one. A query can't
    // run faster than its work, so the min is the robust estimate.
    let mut service = Duration::MAX;
    for _ in 0..5 {
        // A fresh epoch per pass: the probe times runs, not memo hits.
        fresh_epoch(&probe);
        let probe_start = Instant::now();
        for q in &queries {
            probe.bound(q).expect("service probe");
        }
        service = service.min(probe_start.elapsed() / queries.len() as u32);
    }
    assert_eq!(probe.memo_stats().hits, 0, "the probe must time runs");
    let service = service.max(Duration::from_micros(40));
    let interval = service * 3 / 5;
    let deadlines = [service * 14, service * 42];

    // Exact oracle from an untimed session.
    let oracle_session = Session::with_options(set.clone(), SessionOptions::default());
    let oracle: Vec<(f64, f64)> = queries
        .iter()
        .map(|q| {
            let r = oracle_session.bound(q).expect("bounded workload").range;
            (r.lo, r.hi)
        })
        .collect();

    let mut arms: Vec<BurstArm> = Vec::new();
    for (mode, options) in [
        (
            "no_admission",
            SessionOptions {
                admission: false,
                ..SessionOptions::default()
            },
        ),
        ("admission", SessionOptions::default()),
    ] {
        let session = Arc::new(Session::with_options(set.clone(), options));
        // Warm the cell cache and worker warm-starts outside the burst:
        // this benchmarks a session under load, not a cold one.
        for q in &queries {
            session.bound(q).expect("warm-up");
        }
        arms.push(BurstArm {
            mode,
            session,
            rows: Vec::new(),
            memo_misses: 0,
        });
    }
    // Pool several bursts: one 96-arrival burst's p99 is its max, so a
    // single unlucky steal would dominate the row. Rounds alternate the
    // two arms so slow machine drift hits both equally, run on
    // the same per-arm session — the gauge stays calibrated, as in
    // steady serving — with a settle gap so each burst starts
    // queue-empty.
    const ROUNDS: usize = 12;
    for _ in 0..ROUNDS {
        for arm in arms.iter_mut() {
            let session = &arm.session;
            // Calibrate the gauge's service-time EWMA in the calm gap
            // before each burst, with uncontended timed runs on a fresh
            // epoch (generous deadline: admits exact, completes,
            // calibrates). A burst against an uncalibrated gauge admits
            // everything — that measures the cold-start transient, not
            // admission — and settles from inside a burst measure
            // contention, not service, and drift the EWMA up; in steady
            // serving the calm traffic between bursts pulls it back down.
            fresh_epoch(session);
            for q in &queries {
                let warm = QueryBudget::armed().with_timeout(Duration::from_secs(1));
                session
                    .bound_ticketed_stamped(q, &warm, None)
                    .1
                    .expect("calibration run");
            }
            // The calibration stored every answer: burst on a new epoch.
            fresh_epoch(session);
            let before = session.memo_stats();
            arm.rows
                .extend(run_burst(session, &queries, ARRIVALS, interval, deadlines));
            let after = session.memo_stats();
            // Guards the scenario itself: an arrival that took a stored
            // answer would skip admission and the run the burst measures.
            assert_eq!(
                after.hits, before.hits,
                "burst_{}: no arrival may be a memo hit",
                arm.mode
            );
            arm.memo_misses += after.misses - before.misses;
            std::thread::sleep(Duration::from_millis(5));
        }
    }
    for BurstArm {
        mode,
        mut rows,
        memo_misses,
        ..
    } in arms
    {
        assert!(memo_misses > 0, "burst_{mode}: the arrivals must run");
        for row in &rows {
            let (lo, hi) = oracle[row.qi];
            assert!(
                row.lo <= lo + 1e-6 && row.hi >= hi - 1e-6,
                "burst_{mode}: answer [{}, {}] must contain exact [{lo}, {hi}]",
                row.lo,
                row.hi
            );
        }
        let degraded = rows.iter().filter(|r| r.degraded).count();
        let degraded_tight = rows.iter().filter(|r| r.degraded && r.tight).count();
        let shed = rows.iter().filter(|r| r.shed).count();
        rows.sort_by_key(|r| r.lat);
        let lat: Vec<Duration> = rows.iter().map(|r| r.lat).collect();
        emit_bench_json_line(&format!(
            "{{\"id\": \"deadline_stress/burst_{mode}\", \"arrivals\": {}, \
             \"service_us\": {}, \
             \"interval_us\": {}, \"deadline_tight_us\": {}, \"deadline_loose_us\": {}, \
             \"degraded\": {degraded}, \"degraded_rate\": {:.4}, \
             \"degraded_tight\": {degraded_tight}, \"shed\": {shed}, \
             \"memo_misses\": {memo_misses}, \
             \"p50_us\": {}, \"p99_us\": {}, \"max_us\": {}}}",
            rows.len(),
            service.as_micros(),
            interval.as_micros(),
            deadlines[0].as_micros(),
            deadlines[1].as_micros(),
            degraded as f64 / rows.len() as f64,
            percentile_us(&lat, 50),
            percentile_us(&lat, 99),
            lat.last().unwrap().as_micros()
        ));
    }
}

criterion_group!(
    benches,
    bench_query_throughput,
    bench_constraint_churn,
    bench_deadline_stress,
    bench_deadline_burst,
    bench_serve_net
);
criterion_main!(benches);

// ----------------------------------------------------------------------
// serve_net: open-loop traffic replay through the real `pc serve` socket
// ----------------------------------------------------------------------

/// One answered arrival of the socket replay ([`bench_serve_net`]):
/// latency is anchored at the *planned* arrival instant, so socket
/// buffering and per-connection queueing count against the query
/// exactly as a remote client would experience them.
struct NetRow {
    lat: Duration,
    epoch: u64,
    qi: usize,
    range: Option<(f64, f64)>,
    degraded: bool,
    shed: bool,
}

/// The wire-notation mutation stream every tenant receives during the
/// overload replay (identical per tenant, so one epoch-keyed oracle
/// serves them all). The base catalog seeds ids `c0..c14`
/// (`serving_set(14)` plus its catch-all), so the adds land as
/// `c15`/`c16`/`c17`.
const NET_MUTATIONS: &[&str] = &[
    "+ TRUE => value BETWEEN 0 AND 100, (0, 180)",
    "+ TRUE => value BETWEEN 0 AND 100, (0, 160)",
    "- c15",
    "+ TRUE => value BETWEEN 0 AND 100, (5, 150)",
];

/// The replayed query mix, as SQL text (the wire carries text, and the
/// oracle parses the same text, so the two sides cannot diverge). Each
/// line caps `value` at its own bound, so no two lines share an
/// answer-memo key and no replayed arrival can take a stored answer.
fn net_sqls(count: usize) -> Vec<String> {
    (0..count)
        .map(|i| {
            let lo = (i * 7 % 29) as f64;
            let hi = lo + 6.0 + (i % 5) as f64;
            let cap = 100.0 - i as f64 / 64.0;
            let window = format!("region BETWEEN {lo} AND {hi} AND value <= {cap}");
            match i % 4 {
                0 => format!("SELECT SUM(value) WHERE {window}"),
                1 => format!("SELECT COUNT(*) WHERE {window}"),
                2 => format!("SELECT AVG(value) WHERE {window}"),
                _ => format!("SELECT MAX(value) WHERE {window}"),
            }
        })
        .collect()
}

/// Whole-domain queries that warm each tenant before a replay: they
/// build its cells and warm its chains, and share no memo key with a
/// replayed line, each of which restricts `region`.
const NET_WARMUP: &[&str] = &[
    "SELECT SUM(value)",
    "SELECT COUNT(*)",
    "SELECT AVG(value)",
    "SELECT MAX(value)",
];

/// The sum of one `stats` field over `tenants`.
fn stat_sum(
    write: &mut std::net::TcpStream,
    read: &mut std::io::BufReader<std::net::TcpStream>,
    tenants: &[&str],
    key: &str,
) -> u64 {
    tenants
        .iter()
        .map(|tenant| {
            let header = sync_request(write, read, &format!("stats {tenant}"));
            assert!(header.starts_with("OK"), "{header}");
            pc_serve::proto::field(&header, key)
                .and_then(|v| v.parse::<u64>().ok())
                .unwrap_or_else(|| panic!("`stats` carries {key}: {header}"))
        })
        .sum()
}

/// Replay [`NET_MUTATIONS`] against a local shadow session and record
/// the exact range of every query at every epoch — the containment
/// oracle for the socket replay (`None` = provably empty aggregate).
fn net_oracle(
    set: &PcSet,
    table: &pc_storage::Table,
    sqls: &[String],
) -> Vec<Vec<Option<(f64, f64)>>> {
    use pc_core::dsl;
    let session = Session::with_options(set.clone(), SessionOptions::default());
    let queries: Vec<AggQuery> = sqls
        .iter()
        .map(|sql| pc_storage::parse_query(table, sql).expect("oracle parses the replayed SQL"))
        .collect();
    let budget = QueryBudget::unlimited();
    let snapshot = |session: &Session| -> Vec<Option<(f64, f64)>> {
        queries
            .iter()
            .map(|q| match session.bound(q) {
                Ok(r) => Some((r.range.lo, r.range.hi)),
                Err(pc_core::BoundError::EmptyAggregate) => None,
                Err(e) => panic!("oracle query failed: {e}"),
            })
            .collect()
    };
    let mut oracle = vec![snapshot(&session)];
    for line in NET_MUTATIONS {
        if let Some(rest) = line.strip_prefix("+ ") {
            let pc = dsl::parse_constraint(table, rest).expect("oracle mutation parses");
            session.add_constraint_stamped(pc, &budget);
        } else if let Some(rest) = line.strip_prefix("- ") {
            session
                .retire_constraint_stamped(rest.parse().expect("oracle id parses"))
                .expect("oracle retire hits a live id");
        } else {
            panic!("unhandled mutation line {line}");
        }
        oracle.push(snapshot(&session));
    }
    oracle
}

/// Send one line and read its full response (header + declared rows),
/// strictly paired — the calibration/admin path next to the pipelined
/// replay.
fn sync_request(
    write: &mut std::net::TcpStream,
    read: &mut std::io::BufReader<std::net::TcpStream>,
    line: &str,
) -> String {
    use std::io::{BufRead, Write};
    // one write per request: a split line + trailing newline would
    // trigger Nagle vs delayed-ACK (~40ms) on a connection without
    // TCP_NODELAY
    write.write_all(format!("{line}\n").as_bytes()).unwrap();
    write.flush().unwrap();
    let mut header = String::new();
    read.read_line(&mut header).unwrap();
    let header = header.trim_end().to_string();
    for _ in 0..pc_serve::proto::declared_rows(&header) {
        let mut row = String::new();
        read.read_line(&mut row).unwrap();
    }
    header
}

/// Sleep-only pacing (no spin): paced writer threads must not burn the
/// core the server needs — on a single-CPU host a spinning pacer starves
/// the very connection threads it is benchmarking. The ~50-100us
/// oversleep this costs is honest open-loop jitter: latency stays
/// anchored at the *planned* instant either way.
fn sleep_until(t: Instant) {
    let mut now = Instant::now();
    while now < t {
        std::thread::sleep(t - now);
        now = Instant::now();
    }
}

/// Open-loop replay against a running server: `arrivals` requests at a
/// fixed global `interval`, round-robined over `conns_per_tenant`
/// pipelined connections per tenant (writers never wait for responses —
/// per-connection queueing is part of the measured latency). One in six
/// arrivals carries a tight `@timeout-ms=1` deadline and one in six a
/// `@sat-cap=2` work cap, so the degraded/shed machinery is exercised
/// through the wire, not just the in-process API. When `mutate` is set,
/// every tenant concurrently receives [`NET_MUTATIONS`] spread across
/// the replay span — the mutation mix the MVCC stamps are for. Arrival
/// `k` asks `sqls[k % sqls.len()]`.
fn replay_open_loop(
    addr: std::net::SocketAddr,
    tenants: &[&str],
    conns_per_tenant: usize,
    sqls: &[String],
    arrivals: usize,
    interval: Duration,
    mutate: bool,
) -> Vec<NetRow> {
    use std::io::{BufRead, BufReader};
    use std::net::TcpStream;
    use std::sync::mpsc;
    use std::sync::{Barrier, Mutex};

    let total_conns = tenants.len() * conns_per_tenant;
    let mutator_count = if mutate { tenants.len() } else { 0 };
    let ready = Arc::new(Barrier::new(total_conns + mutator_count + 1));
    let go = Arc::new(Barrier::new(total_conns + mutator_count + 1));
    let start_cell = Arc::new(Mutex::new(None::<Instant>));
    let (row_tx, row_rx) = mpsc::channel::<NetRow>();
    let mut joins = Vec::new();
    for c in 0..total_conns {
        let tenant = tenants[c % tenants.len()].to_string();
        let sqls = sqls.to_vec();
        let ready = Arc::clone(&ready);
        let go = Arc::clone(&go);
        let start_cell = Arc::clone(&start_cell);
        let row_tx = row_tx.clone();
        joins.push(std::thread::spawn(move || {
            let mut write = TcpStream::connect(addr).unwrap();
            write.set_nodelay(true).unwrap();
            let mut read = BufReader::new(write.try_clone().unwrap());
            let header = sync_request(&mut write, &mut read, &format!("use {tenant}"));
            assert!(header.starts_with("OK"), "{header}");
            ready.wait();
            go.wait();
            let start = start_cell
                .lock()
                .unwrap()
                .expect("start published before go");
            // Pipelined writer: paced by the global schedule, never
            // blocked on responses. This thread reads in request order
            // (the protocol's strict pairing makes that sound).
            let (meta_tx, meta_rx) = mpsc::channel::<(Instant, usize)>();
            let mut w2 = write.try_clone().unwrap();
            let writer = std::thread::spawn(move || {
                use std::io::Write;
                let mut k = c;
                while k < arrivals {
                    let planned = start + interval * k as u32;
                    sleep_until(planned);
                    let qi = k % sqls.len();
                    let line = match k % 6 {
                        0 => format!("bound @timeout-ms=1 {}", sqls[qi]),
                        3 => format!("bound @sat-cap=2 {}", sqls[qi]),
                        _ => format!("bound {}", sqls[qi]),
                    };
                    w2.write_all(format!("{line}\n").as_bytes()).unwrap();
                    w2.flush().unwrap();
                    meta_tx.send((planned, qi)).unwrap();
                    k += total_conns;
                }
            });
            for (planned, qi) in meta_rx {
                let mut header = String::new();
                read.read_line(&mut header).unwrap();
                let header = header.trim_end();
                assert!(header.starts_with("OK bound"), "replay got {header}");
                let epoch: u64 = pc_serve::proto::field(header, "epoch")
                    .and_then(|e| e.parse().ok())
                    .expect("bound responses stamp their epoch");
                let empty = header.ends_with(" empty");
                let range = if empty {
                    None
                } else {
                    Some(
                        pc_serve::proto::parse_range(header)
                            .expect("bound response carries a range"),
                    )
                };
                let (degraded, shed) = if empty {
                    (false, false)
                } else {
                    (
                        pc_serve::proto::field(header, "degraded") == Some("true"),
                        pc_serve::proto::field(header, "verdict") == Some("shed"),
                    )
                };
                row_tx
                    .send(NetRow {
                        lat: planned.elapsed(),
                        epoch,
                        qi,
                        range,
                        degraded,
                        shed,
                    })
                    .unwrap();
            }
            writer.join().unwrap();
        }));
    }
    drop(row_tx);

    // One mutator per tenant. Connected (and `use`d) *before* the start
    // barrier: under load the accept loop's poll tick would otherwise
    // delay a late connect past the whole replay, pushing every
    // mutation after the last query. Mutations are spread across twice
    // the arrival span — under overload processing outlasts arrivals,
    // and the stamps should interleave with the backlog drain too.
    let mut mutators = Vec::new();
    let span = interval * arrivals as u32 * 2;
    for tenant in tenants.iter().take(mutator_count) {
        let tenant = tenant.to_string();
        let ready = Arc::clone(&ready);
        let go = Arc::clone(&go);
        let start_cell = Arc::clone(&start_cell);
        mutators.push(std::thread::spawn(move || {
            let mut write = TcpStream::connect(addr).unwrap();
            write.set_nodelay(true).unwrap();
            let mut read = BufReader::new(write.try_clone().unwrap());
            let header = sync_request(&mut write, &mut read, &format!("use {tenant}"));
            assert!(header.starts_with("OK"), "{header}");
            ready.wait();
            go.wait();
            let start = start_cell
                .lock()
                .unwrap()
                .expect("start published before go");
            for (m, line) in NET_MUTATIONS.iter().enumerate() {
                sleep_until(start + span * (m as u32 + 1) / (NET_MUTATIONS.len() as u32 + 1));
                let header = sync_request(&mut write, &mut read, line);
                assert!(header.starts_with("OK"), "`{line}` on {tenant}: {header}");
                let epoch =
                    pc_serve::proto::field(&header, "epoch").and_then(|e| e.parse::<u64>().ok());
                // one mutator per tenant: epochs advance densely
                assert_eq!(epoch, Some(m as u64 + 1), "`{line}` on {tenant}");
            }
        }));
    }

    ready.wait();
    let start = Instant::now() + Duration::from_millis(20);
    *start_cell.lock().unwrap() = Some(start);
    go.wait();

    // collect while the replay runs; the channel closes when the last
    // connection finishes reading its final response
    let mut wire_range: Vec<NetRow> = row_rx.iter().collect();
    for j in joins {
        j.join().unwrap();
    }
    for m in mutators {
        m.join().unwrap();
    }
    wire_range.sort_by_key(|r| r.lat);
    wire_range
}

/// The serving front-end measured end-to-end: an open-loop traffic
/// replay through real TCP connections against a running `pc serve`
/// ([`Server`]), 3 tenants x 2 pipelined connections, mixed budget
/// directives on the wire, and (in the overload row) concurrent
/// mutations on every tenant. Rows record client-experienced latency
/// percentiles and the degraded/shed rates; **every** response's range
/// is asserted to contain the exact oracle range *for its stamped
/// epoch* before anything is recorded — the MVCC containment guarantee,
/// checked through the socket.
fn bench_serve_net(_c: &mut Criterion) {
    use pc_serve::{ServeConfig, Server};
    use std::io::BufReader;
    use std::net::TcpStream;

    let set = serving_set(14);
    let schema = Schema::new(vec![("region", AttrType::Int), ("value", AttrType::Float)]);
    let table = pc_storage::table_from_csv(schema, "region,value\n1,5.0\n20,40.0\n").unwrap();
    // steady: arrivals well under capacity (epoch 0 everywhere), then
    // overload: ~1.7x the serial drain rate with mutations racing. Each
    // scenario replays its own lines, so neither re-asks the other's.
    const STEADY: usize = 240;
    const OVERLOAD: usize = 480;
    let sqls = net_sqls(STEADY + OVERLOAD);
    let oracle = net_oracle(&set, &table, &sqls);

    // service-time probe, as in the burst bench: the replay rates are
    // ratios of this machine's uncontended per-query cost
    let probe = Session::with_options(set.clone(), SessionOptions::default());
    let queries: Vec<AggQuery> = sqls
        .iter()
        .map(|sql| pc_storage::parse_query(&table, sql).unwrap())
        .collect();
    for q in &queries {
        probe.bound(q).expect("probe warm-up");
    }
    let mut service = Duration::MAX;
    for _ in 0..5 {
        // A fresh epoch per pass: the probe times runs, not memo hits.
        fresh_epoch(&probe);
        let t0 = Instant::now();
        for q in &queries {
            probe.bound(q).expect("service probe");
        }
        service = service.min(t0.elapsed() / queries.len() as u32);
    }
    assert_eq!(probe.memo_stats().hits, 0, "the probe must time runs");
    let service = service.max(Duration::from_micros(40));

    let server = Server::bind("127.0.0.1:0", table, set, ServeConfig::default()).unwrap();
    let addr = server.local_addr().unwrap();
    let server_thread = std::thread::spawn(move || server.run().unwrap());

    let tenants = ["default", "t1", "t2"];
    let mut admin = TcpStream::connect(addr).unwrap();
    admin.set_nodelay(true).unwrap();
    let mut read = BufReader::new(admin.try_clone().unwrap());
    for tenant in &tenants[1..] {
        let header = sync_request(&mut admin, &mut read, &format!("tenant create {tenant}"));
        assert!(header.starts_with("OK"), "{header}");
    }
    // Warm every tenant's decomposition/cell caches outside the timed
    // replay — otherwise the first query's cold decompose backs up every
    // connection and the replay measures one cold start instead of the
    // steady serving path.
    for tenant in &tenants {
        let header = sync_request(&mut admin, &mut read, &format!("use {tenant}"));
        assert!(header.starts_with("OK"), "{header}");
        for sql in NET_WARMUP {
            let header = sync_request(&mut admin, &mut read, &format!("bound {sql}"));
            assert!(header.starts_with("OK"), "{header}");
        }
    }

    let scenarios = [
        ("steady", 0..STEADY, service * 3, false),
        ("overload", STEADY..STEADY + OVERLOAD, service * 3 / 5, true),
    ];
    for (name, lines, interval, mutate) in scenarios {
        let arrivals = lines.len();
        let hits = stat_sum(&mut admin, &mut read, &tenants, "memo-hits");
        let rows = replay_open_loop(
            addr,
            &tenants,
            2,
            &sqls[lines.clone()],
            arrivals,
            interval,
            mutate,
        );
        assert_eq!(rows.len(), arrivals, "every arrival must be answered");
        // Guards the scenario itself: an arrival that took a stored
        // answer would skip admission, its budget and the run.
        assert_eq!(
            stat_sum(&mut admin, &mut read, &tenants, "memo-hits"),
            hits,
            "serve_net/{name}: no arrival may be a memo hit"
        );
        let mut epochs = std::collections::BTreeMap::<u64, usize>::new();
        for row in &rows {
            *epochs.entry(row.epoch).or_insert(0) += 1;
            let want = oracle
                .get(row.epoch as usize)
                .unwrap_or_else(|| panic!("response stamped unknown epoch {}", row.epoch))
                [lines.start + row.qi];
            match (want, row.range) {
                (None, got) => assert!(got.is_none(), "oracle says empty, wire said {got:?}"),
                (Some((lo, hi)), None) => panic!("wire said empty, oracle [{lo},{hi}]"),
                // the MVCC guarantee, through the socket: the answer
                // must contain the exact range *of its stamped epoch*
                // (equal when exact; wider only when degraded/shed)
                (Some((lo, hi)), Some((got_lo, got_hi))) => {
                    let eps = 1e-6 * hi.abs().max(lo.abs()).max(1.0);
                    assert!(
                        got_lo <= lo + eps && got_hi >= hi - eps,
                        "epoch {} q{}: wire [{got_lo},{got_hi}] !contains oracle [{lo},{hi}]",
                        row.epoch,
                        row.qi
                    );
                    if !row.degraded && !row.shed {
                        assert!(
                            (got_lo - lo).abs() <= eps && (got_hi - hi).abs() <= eps,
                            "epoch {} q{}: exact answer [{got_lo},{got_hi}] != oracle [{lo},{hi}]",
                            row.epoch,
                            row.qi
                        );
                    }
                }
            }
        }
        let degraded = rows.iter().filter(|r| r.degraded).count();
        let shed = rows.iter().filter(|r| r.shed).count();
        let lat: Vec<Duration> = rows.iter().map(|r| r.lat).collect();
        emit_bench_json_line(&format!(
            "{{\"id\": \"serve_net/{name}\", \"arrivals\": {arrivals}, \"tenants\": {}, \
             \"connections\": {}, \"mutations\": {}, \"service_us\": {}, \"interval_us\": {}, \
             \"epochs_observed\": {}, \"by_epoch\": {{{}}}, \
             \"degraded\": {degraded}, \"degraded_rate\": {:.4}, \
             \"shed\": {shed}, \"shed_rate\": {:.4}, \
             \"p50_us\": {}, \"p95_us\": {}, \"p99_us\": {}, \"max_us\": {}}}",
            tenants.len(),
            tenants.len() * 2,
            if mutate {
                tenants.len() * NET_MUTATIONS.len()
            } else {
                0
            },
            service.as_micros(),
            interval.as_micros(),
            epochs.len(),
            epochs
                .iter()
                .map(|(e, n)| format!("\"{e}\": {n}"))
                .collect::<Vec<_>>()
                .join(", "),
            degraded as f64 / rows.len() as f64,
            shed as f64 / rows.len() as f64,
            percentile_us(&lat, 50),
            percentile_us(&lat, 95),
            percentile_us(&lat, 99),
            lat.last().unwrap().as_micros()
        ));
    }

    // satellite: the shed-cache counters surfaced by the `stats` verb,
    // summed over tenants — the same counters `pc batch --stats` prints
    let hits = stat_sum(&mut admin, &mut read, &tenants, "shed-cache-hits");
    let misses = stat_sum(&mut admin, &mut read, &tenants, "shed-cache-misses");
    emit_bench_json_line(&format!(
        "{{\"id\": \"serve_net/shed_cache\", \"hits\": {hits}, \"misses\": {misses}}}"
    ));
    let header = sync_request(&mut admin, &mut read, "shutdown");
    assert!(header.starts_with("OK"), "{header}");
    server_thread.join().unwrap();
}
