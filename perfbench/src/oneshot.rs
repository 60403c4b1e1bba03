//! `oneshot_paper`: the paper's one-shot contingency question (the `pc
//! bound` path), in process, closed loop on one thread, a fresh
//! `BoundEngine` per request, over catalogs generated from the synthetic
//! Intel-wireless table.
//!
//! The traced run wraps each request's calls in spans and, in its traced
//! slices, also times the layers `BoundEngine::bound` runs inside itself
//! through their own public entry points: `decompose_budgeted` and
//! `PcSet::is_closed_within_with` on the query region.

use crate::catalog::{self, Answer};
use crate::report::{peak_rss_mb, Outcome};
use crate::trace::{self, Tracer};
use crate::{median_setup, stats, traced_slice, Config, SETUP_REPS};
use pc_core::decompose::{decompose_budgeted, Parallelism, Strategy};
use pc_core::{BoundEngine, BoundError, BoundReport, GroupBound, PcSet, QueryBudget};
use pc_datagen::intel::{self, cols, IntelConfig};
use pc_datagen::queries::QueryGenerator;
use pc_predicate::{Atom, Predicate};
use pc_storage::{AggKind, AggQuery};
use rand::rngs::StdRng;
use rand::seq::SliceRandom;
use rand::{Rng, SeedableRng};
use std::time::Instant;

/// Rows of the generated Intel-wireless table.
pub const ROWS: usize = 3000;
/// Share of rows removed as missing (the largest `light` values).
pub const MISSING_FRAC: f64 = 0.3;
/// Rand-PC size (the Fig-7 full-scale constraint count).
pub const RAND_PCS: usize = 20;
/// Overlapping-PC grid cells, each widened by `OVERLAP_EXPAND` per side.
pub const OVERLAP_PCS: usize = 16;
pub const OVERLAP_EXPAND: f64 = 0.3;
/// The replica catalog: `TILES` disjoint tiles of `PER_TILE` overlapping
/// boxes each.
pub const TILES: usize = 30;
pub const PER_TILE: usize = 5;
/// Independent tables (and catalogs drawn from them) per seed, so one
/// run's cost averages over several draws of the generators.
pub const INSTANCES: usize = 3;
/// Requests in one cycle; every `GROUP_BY_EVERY`-th is a GROUP-BY over
/// `GROUP_KEYS` device ids.
pub const REQUESTS: usize = 144;
pub const GROUP_BY_EVERY: usize = 8;
pub const GROUP_KEYS: usize = 6;

const AGGS: [AggKind; 5] = [
    AggKind::Sum,
    AggKind::Count,
    AggKind::Avg,
    AggKind::Min,
    AggKind::Max,
];

pub fn constants() -> Vec<(&'static str, f64)> {
    vec![
        ("instances", INSTANCES as f64),
        ("rows", ROWS as f64),
        ("missing_frac", MISSING_FRAC),
        ("rand_pcs", RAND_PCS as f64),
        ("overlap_pcs", OVERLAP_PCS as f64),
        ("tiles", TILES as f64),
        ("per_tile", PER_TILE as f64),
        ("requests", REQUESTS as f64),
        ("group_by_every", GROUP_BY_EVERY as f64),
        ("group_keys", GROUP_KEYS as f64),
    ]
}

enum Kind {
    Bound(AggQuery),
    GroupBy { base: AggQuery, keys: Vec<f64> },
}

struct Request {
    catalog: usize,
    kind: Kind,
}

/// Catalogs and the request cycle, all from the seed.
struct Inputs {
    catalogs: Vec<PcSet>,
    requests: Vec<Request>,
}

fn generate(seed: u64) -> Inputs {
    let mut rng = StdRng::seed_from_u64(seed ^ 0x0e5e_0003);
    let attrs = [cols::DEVICE, cols::EPOCH];
    // per instance: Rand-PC, Overlapping-PC, the tiled replica, and the
    // generators that draw queries and GROUP-BY keys over its table
    let mut catalogs = Vec::with_capacity(3 * INSTANCES + 1);
    let mut generators = Vec::with_capacity(INSTANCES);
    for i in 0..INSTANCES as u64 {
        let table = intel::generate(IntelConfig {
            rows: ROWS,
            seed: seed.wrapping_mul(INSTANCES as u64).wrapping_add(i),
            ..IntelConfig::default()
        });
        let (missing, _) =
            pc_datagen::missing::remove_top_fraction(&table, cols::LIGHT, MISSING_FRAC);
        catalogs.push(pc_datagen::pcgen::rand_pc(
            &missing, &attrs, RAND_PCS, &mut rng,
        ));
        catalogs.push(pc_datagen::pcgen::overlapping_pc(
            &missing,
            &attrs,
            OVERLAP_PCS,
            OVERLAP_EXPAND,
        ));
        let mut tiled = pc_bench::pcgen::tiled_replica_set(&missing, PER_TILE, TILES, rng.gen());
        pc_datagen::pcgen::domain_from_table(&mut tiled, &missing);
        catalogs.push(tiled);
        let mut devices: Vec<f64> = (0..missing.len())
            .map(|r| missing.encoded(r, cols::DEVICE))
            .collect();
        devices.sort_by(f64::total_cmp);
        devices.dedup();
        generators.push((
            QueryGenerator::from_table(&missing, &attrs),
            QueryGenerator::from_table(&missing, &[cols::EPOCH]),
            devices,
        ));
    }
    let skewed = catalogs.len();
    catalogs.push(pc_bench::pcgen::skewed_ordering_set());

    let mut requests = Vec::with_capacity(REQUESTS);
    let (mut bounds, mut groups) = (0usize, 0usize);
    for p in 0..REQUESTS {
        if p % GROUP_BY_EVERY == GROUP_BY_EVERY - 1 {
            // GROUP-BY over the catalogs that carry value ranges
            let instance = groups % INSTANCES;
            let (_, by_epoch, devices) = &mut generators[instance];
            devices.shuffle(&mut rng);
            let mut keys: Vec<f64> = devices.iter().take(GROUP_KEYS).copied().collect();
            keys.sort_by(f64::total_cmp);
            let base = by_epoch.gen_query(AGGS[groups % AGGS.len()], cols::LIGHT, &mut rng);
            requests.push(Request {
                catalog: 3 * instance + (groups / INSTANCES) % 2,
                kind: Kind::GroupBy { base, keys },
            });
            groups += 1;
        } else {
            // rand, overlapping, skewed, tiled in turn; instances rotate
            let instance = (bounds / 4) % INSTANCES;
            let agg = AGGS[(bounds / 4) % AGGS.len()];
            let (by_region, _, _) = &generators[instance];
            let (catalog, query) = match bounds % 4 {
                0 => (
                    3 * instance,
                    by_region.gen_query(agg, cols::LIGHT, &mut rng),
                ),
                1 => (
                    3 * instance + 1,
                    by_region.gen_query(agg, cols::LIGHT, &mut rng),
                ),
                2 => (skewed, skewed_query(agg, &mut rng)),
                _ => (
                    3 * instance + 2,
                    by_region.gen_query(agg, cols::LIGHT, &mut rng),
                ),
            };
            requests.push(Request {
                catalog,
                kind: Kind::Bound(query),
            });
            bounds += 1;
        }
    }
    Inputs { catalogs, requests }
}

/// A query window over the skewed catalog's (x, y) plane, aggregating v.
fn skewed_query(agg: AggKind, rng: &mut StdRng) -> AggQuery {
    let x = rng.gen_range(0..=6) as f64;
    let y = rng.gen_range(0..=6) as f64;
    let w = rng.gen_range(4..=6) as f64;
    let pred = Predicate::always()
        .and(Atom::between(0, x, x + w))
        .and(Atom::between(1, y, y + w));
    AggQuery::new(agg, 2, pred)
}

/// The exact answer(s) of a request: one range, or one per group key.
type Expected = Vec<Option<(f64, f64)>>;

fn oracle(inputs: &Inputs) -> Result<Vec<Expected>, String> {
    inputs
        .requests
        .iter()
        .map(|r| {
            let set = &inputs.catalogs[r.catalog];
            match &r.kind {
                Kind::Bound(q) => Ok(vec![catalog::exact_range(set, q)?]),
                Kind::GroupBy { base, keys } => keys
                    .iter()
                    .map(|&key| {
                        let mut q = base.clone();
                        q.predicate = q.predicate.clone().and(Atom::eq(cols::DEVICE, key));
                        catalog::exact_range(set, &q)
                    })
                    .collect(),
            }
        })
        .collect()
}

/// What one request returned (one at a time, so the variants' sizes do
/// not matter).
#[allow(clippy::large_enum_variant)]
enum Served {
    Bound(Result<BoundReport, BoundError>),
    GroupBy(Vec<GroupBound>),
}

fn answer_of(result: &Result<BoundReport, BoundError>) -> Result<Answer, String> {
    match result {
        Ok(r) => Ok(Answer::Range {
            lo: r.range.lo,
            hi: r.range.hi,
            exact: !r.degraded,
        }),
        Err(BoundError::EmptyAggregate) => Ok(Answer::Empty),
        Err(e) => Err(e.to_string()),
    }
}

/// Check one served request against its oracle entry; returns whether
/// every answer in it was exact.
fn check(k: usize, served: &Served, want: &Expected, out: &mut Outcome) -> bool {
    let results: Vec<&Result<BoundReport, BoundError>> = match served {
        Served::Bound(r) => vec![r],
        Served::GroupBy(groups) => groups.iter().map(|g| &g.report).collect(),
    };
    if results.len() != want.len() {
        out.fail(format!(
            "request {k}: {} answers for {} keys",
            results.len(),
            want.len()
        ));
        return false;
    }
    let mut exact = true;
    for (i, (got, want)) in results.iter().zip(want).enumerate() {
        match answer_of(got).and_then(|a| catalog::check(*want, a).map(|_| a)) {
            Ok(Answer::Range { exact: false, .. }) => exact = false,
            Ok(_) => {}
            Err(e) => {
                out.fail(format!("request {k} answer {i}: {e}"));
                return false;
            }
        }
    }
    exact
}

fn serve(inputs: &Inputs, k: usize) -> Served {
    let req = &inputs.requests[k % inputs.requests.len()];
    let engine = BoundEngine::new(&inputs.catalogs[req.catalog]);
    match &req.kind {
        Kind::Bound(q) => Served::Bound(engine.bound(q)),
        Kind::GroupBy { base, keys } => {
            Served::GroupBy(engine.bound_group_by(base, cols::DEVICE, keys.iter().copied()))
        }
    }
}

/// Counters of the traced run.
#[derive(Default)]
struct Counters {
    bounds: f64,
    decomposes: f64,
    decompose_sat: f64,
    decompose_cells: f64,
    decompose_pruned: f64,
    ordered_splits: f64,
    shards: f64,
    max_shard: f64,
    reports: f64,
    pivots: f64,
    nodes: f64,
    incumbent_first: f64,
    carried: f64,
    rebuilt: f64,
    group_bys: f64,
    group_keys: f64,
    splice_memo_hits: f64,
}

impl Counters {
    fn solver(&mut self, r: &BoundReport) {
        self.reports += 1.0;
        self.pivots += r.solver.pivots as f64;
        self.nodes += r.solver.nodes as f64;
        self.incumbent_first += r.solver.incumbent_first as f64;
        self.carried += r.solver.carried as f64;
        self.rebuilt += r.solver.rebuilt as f64;
    }

    fn absorb(&mut self, served: &Served) {
        match served {
            Served::Bound(Ok(r)) => {
                self.bounds += 1.0;
                self.ordered_splits += r.stats.ordered_splits as f64;
                self.shards += r.stats.shards as f64;
                self.max_shard += r.stats.max_shard_constraints as f64;
                self.solver(r);
            }
            Served::Bound(Err(_)) => {}
            Served::GroupBy(groups) => {
                self.group_bys += 1.0;
                self.group_keys += groups.len() as f64;
                for r in groups.iter().filter_map(|g| g.report.as_ref().ok()) {
                    self.splice_memo_hits += r.stats.splice_memo_hits as f64;
                    self.solver(r);
                }
            }
        }
    }
}

/// One request of the traced run: the request's calls in spans, plus, in
/// traced slices, the decomposition and closure probe of its region.
fn serve_traced(
    inputs: &Inputs,
    k: usize,
    t: &mut Tracer,
    c: &mut Counters,
) -> Result<Served, String> {
    let req = &inputs.requests[k % inputs.requests.len()];
    let set = &inputs.catalogs[req.catalog];
    let id = k as u64;
    let root = t.enter("oneshot.request", id);
    let served = match &req.kind {
        Kind::Bound(q) => {
            // the bound runs first, so the probes below cannot warm it
            let report = t.span("engine.bound", id, || BoundEngine::new(set).bound(q));
            if t.is_on() {
                let mut region = q.predicate.to_region(set.schema());
                region.intersect(set.domain());
                let decomposed = t.span("decompose", id, || {
                    decompose_budgeted(
                        set,
                        &region,
                        Strategy::DfsRewrite,
                        Parallelism::AUTO,
                        &QueryBudget::unlimited(),
                    )
                });
                let (_, st) = decomposed.map_err(|e| e.to_string())?;
                c.decomposes += 1.0;
                c.decompose_sat += st.sat_checks as f64;
                c.decompose_cells += st.cells as f64;
                c.decompose_pruned += st.pruned_subtrees as f64;
                let closed = t.span("pcset.closure", id, || {
                    set.is_closed_within_with(&region, true)
                });
                std::hint::black_box(closed);
            }
            Served::Bound(report)
        }
        Kind::GroupBy { base, keys } => Served::GroupBy(t.span("groupby.bound", id, || {
            BoundEngine::new(set).bound_group_by(base, cols::DEVICE, keys.iter().copied())
        })),
    };
    t.exit(root);
    Ok(served)
}

pub fn run(cfg: &Config) -> Result<Outcome, String> {
    // set-up: generate the table and catalogs, then one warm-up pass
    let mut times = Vec::new();
    let mut inputs = None;
    for _ in 0..SETUP_REPS {
        let t0 = Instant::now();
        let generated = generate(cfg.seed);
        for k in 0..generated.requests.len() {
            std::hint::black_box(serve(&generated, k));
        }
        times.push(t0.elapsed());
        inputs = Some(generated);
    }
    let inputs = inputs.expect("at least one set-up");
    let setup_s = median_setup(&times);
    let mut expected = oracle(&inputs)?;
    if cfg.corrupt_oracle {
        let entry = &mut expected[0][0];
        *entry = Some(entry.map_or((0.0, 1.0), |(lo, hi)| (lo - 1.0, hi + 1.0)));
    }

    let mut out = Outcome::default();
    if !cfg.trace {
        let mut chunks = stats::Chunked::new();
        let mut exact = 0usize;
        let start = Instant::now();
        let end = start + cfg.window();
        let mut k = 0;
        while Instant::now() < end {
            let t0 = Instant::now();
            let served = serve(&inputs, k);
            chunks.push(
                t0.elapsed().as_secs_f64() * 1e6,
                start.elapsed().as_secs_f64(),
            );
            out.attempted += 1;
            exact += usize::from(check(k, &served, &expected[k % expected.len()], &mut out));
            k += 1;
        }
        let summary = chunks.finish();
        out.set("setup_s", setup_s);
        out.set("p50_us", summary.p50_us);
        out.set("p99_us", summary.p99_us);
        out.set("qps", summary.qps);
        out.set(
            "exact_frac",
            stats::ratio(exact as f64, out.attempted as f64),
        );
        out.set(
            "failed_frac",
            stats::ratio(out.failed as f64, out.attempted as f64),
        );
        out.set("peak_rss_mb", peak_rss_mb());
        return Ok(out);
    }

    let start = Instant::now();
    let end = start + cfg.window();
    let mut t = Tracer::new(start);
    let mut c = Counters::default();
    // untraced-slice latency of plain bounds, against the traced slices'
    // `engine.bound` spans: the tracing overhead
    let mut untraced_bound_us = Vec::new();
    let mut k = 0;
    while Instant::now() < end {
        let t0 = Instant::now();
        t.set_on(traced_slice(start, t0));
        let served = serve_traced(&inputs, k, &mut t, &mut c)?;
        if !t.is_on() && matches!(served, Served::Bound(_)) {
            untraced_bound_us.push(t0.elapsed().as_secs_f64() * 1e6);
        }
        out.attempted += 1;
        check(k, &served, &expected[k % expected.len()], &mut out);
        c.absorb(&served);
        k += 1;
    }
    let mut spans = Vec::new();
    t.drain_into(&mut spans);
    let selfs = trace::self_times_us(&spans);
    let p50 = |name: &str| selfs.get(name).map_or(0.0, |v| stats::median(v));
    let d = c.decomposes.max(1.0);
    out.set("decompose.build_ms", p50("decompose") / 1e3);
    out.set("decompose.sat_checks", c.decompose_sat / d);
    out.set("decompose.cells", c.decompose_cells / d);
    out.set(
        "decompose.cells_per_sat_check",
        stats::ratio(c.decompose_cells, c.decompose_sat),
    );
    out.set("decompose.pruned_subtrees", c.decompose_pruned / d);
    let b = c.bounds.max(1.0);
    out.set("estimate.ordered_splits", c.ordered_splits / b);
    out.set("shard.shards", c.shards / b);
    out.set("shard.max_constraints", c.max_shard / b);
    out.set("pcset.closure_us", p50("pcset.closure"));
    let r = c.reports.max(1.0);
    out.set("solver.pivots", c.pivots / r);
    out.set("solver.nodes", c.nodes / r);
    out.set("solver.incumbent_first", c.incumbent_first / r);
    out.set(
        "solver.carried_frac",
        stats::ratio(c.carried, c.carried + c.rebuilt),
    );
    let g = c.group_bys.max(1.0);
    out.set("groupby.bound_ms", p50("groupby.bound") / 1e3);
    out.set("groupby.keys", c.group_keys / g);
    out.set("groupby.splice_memo_hits", c.splice_memo_hits / g);
    let traced_bound = stats::median(&selfs.get("engine.bound").cloned().unwrap_or_default());
    let untraced = stats::median(&untraced_bound_us);
    out.set(
        "trace.overhead_pct",
        100.0 * stats::ratio(traced_bound - untraced, untraced),
    );
    out.set("trace.spans", spans.len() as f64);
    trace::write_run("oneshot_paper", cfg.seed, &spans);
    Ok(out)
}
