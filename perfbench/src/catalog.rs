//! Inputs of the two serving workloads: the overlapping serving catalog,
//! the seeded request stream, the seeded cyclic mutation stream, and the
//! oracle ranges every answer is checked against.

use pc_core::{
    BoundEngine, BoundError, BoundOptions, FrequencyConstraint, PcSet, PredicateConstraint,
    ValueConstraint,
};
use pc_predicate::{Atom, AttrType, Interval, Predicate, Region, Schema};
use pc_storage::Table;
use rand::rngs::StdRng;
use rand::seq::SliceRandom;
use rand::{Rng, SeedableRng};

/// Staggered constraints in the serving catalog (a closing catch-all
/// makes it 15).
pub const SERVING_CONSTRAINTS: usize = 14;
/// Region windows the serving stream cycles through (× 5 aggregates).
pub const WINDOWS: usize = 8;
/// One request in this many carries a deadline directive.
pub const DEADLINE_EVERY: usize = 8;
/// The loose deadline those requests carry: admission judges them, and at
/// the workloads' load it never needs to degrade.
pub const DEADLINE_MS: u64 = 50;
/// Wide-cap / corner-box pairs in one cycle of the mutation stream; each
/// pair is added and retired again, so a cycle is `4 × MUTATION_PAIRS`
/// epochs long and ends on the seed catalog.
pub const MUTATION_PAIRS: usize = 6;
/// Epochs in one cycle of the mutation stream.
pub const CYCLE: usize = 4 * MUTATION_PAIRS;

const AGGS: [&str; 5] = [
    "SUM(value)",
    "COUNT(*)",
    "AVG(value)",
    "MIN(value)",
    "MAX(value)",
];

/// The serving catalog over (region, value): `n` staggered range boxes
/// overlapping their neighbours, every third one a narrow frequency
/// floor, closed by a catch-all cap so every query has finite bounds.
pub fn serving_set(n: usize) -> PcSet {
    let mut set = PcSet::new(serving_schema());
    for i in 0..n {
        let lo = (i * 5 % 23) as f64;
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

fn serving_schema() -> Schema {
    Schema::new(vec![("region", AttrType::Int), ("value", AttrType::Float)])
}

/// The table the server parses SQL and constraint text against (schema
/// only matters; the rows are not the missing data).
pub fn serving_table() -> Table {
    pc_storage::table_from_csv(serving_schema(), "region,value\n1,5.0\n20,40.0\n")
        .expect("static serving table parses")
}

/// One cycle of the serving stream: `WINDOWS` region windows × the five
/// aggregates, in a seeded order, as wire request lines. The windows
/// stagger across the catalog as the serving benches' do, each nudged by
/// the seed, so every seed cuts the decomposition differently at a
/// similar cost. Every `DEADLINE_EVERY`-th line carries
/// `@timeout-ms=DEADLINE_MS` when `deadlines` is set.
pub fn request_cycle(seed: u64, deadlines: bool) -> Vec<String> {
    let mut rng = StdRng::seed_from_u64(seed ^ 0x5e7e_0001);
    let windows: Vec<(u32, u32)> = (0..WINDOWS as u32)
        .map(|i| {
            let lo = i * 7 % 29 + rng.gen_range(0..=2u32);
            (lo, lo + 6 + i % 5 + rng.gen_range(0..=1u32))
        })
        .collect();
    let mut pairs: Vec<(usize, usize)> = (0..WINDOWS)
        .flat_map(|w| (0..AGGS.len()).map(move |a| (w, a)))
        .collect();
    pairs.shuffle(&mut rng);
    pairs
        .iter()
        .enumerate()
        .map(|(i, &(w, a))| {
            let (lo, hi) = windows[w];
            let sql = format!("SELECT {} WHERE region BETWEEN {lo} AND {hi}", AGGS[a]);
            if deadlines && i % DEADLINE_EVERY == 0 {
                format!("bound @timeout-ms={DEADLINE_MS} {sql}")
            } else {
                format!("bound {sql}")
            }
        })
        .collect()
}

/// The SQL text of a `bound [@dirs] <sql>` line.
pub fn sql_of(line: &str) -> &str {
    let rest = line.strip_prefix("bound ").unwrap_or(line);
    match rest.strip_prefix('@') {
        Some(dirs) => dirs.split_once(' ').map_or("", |(_, sql)| sql),
        None => rest,
    }
}

/// One step of the mutation stream.
#[derive(Debug, Clone)]
pub enum Mutation {
    /// Admit this constraint (DSL text); `slot` names which live id the
    /// response's `added=cN` fills, for the retire that follows.
    Add { slot: usize, text: String },
    /// Retire the id admitted into `slot`.
    Retire { slot: usize },
}

/// One cycle of the seeded add/retire stream. For each pair: admit a wide
/// value cap whose region box cuts the query windows, admit a narrow box
/// in the corner of the domain no staggered box reaches (region above
/// 30, high values), then retire both. The catalog at epoch `e` is the
/// catalog at position `e % CYCLE` of this stream.
pub fn mutation_cycle(seed: u64) -> Vec<Mutation> {
    let mut rng = StdRng::seed_from_u64(seed ^ 0x5e7e_0002);
    let mut out = Vec::with_capacity(CYCLE);
    for _ in 0..MUTATION_PAIRS {
        let a = rng.gen_range(0..=12u32);
        let b = a + 16;
        let cap = rng.gen_range(60..=95u32);
        let wide_k = rng.gen_range(60..=150u32);
        let c = rng.gen_range(33..=37u32);
        let v = rng.gen_range(80..=90u32);
        let narrow_k = rng.gen_range(3..=8u32);
        out.push(Mutation::Add {
            slot: 0,
            text: format!("region BETWEEN {a} AND {b} => value BETWEEN 0 AND {cap}, (0, {wide_k})"),
        });
        out.push(Mutation::Add {
            slot: 1,
            text: format!(
                "region BETWEEN {c} AND {} AND value BETWEEN {v} AND 100 => value BETWEEN {v} AND 100, (0, {narrow_k})",
                c + 2
            ),
        });
        out.push(Mutation::Retire { slot: 0 });
        out.push(Mutation::Retire { slot: 1 });
    }
    out
}

/// The engine configuration oracles run with: the flat, declaration-order,
/// sequential path the property suites use as their reference, so the
/// oracle does not share the sharded/ordered/pooled code under test.
pub fn reference_options() -> BoundOptions {
    BoundOptions {
        shard: false,
        ordering: false,
        threads: 1,
        ..BoundOptions::default()
    }
}

/// The exact range of a query against `set` (`None` when provably empty).
pub fn exact_range(
    set: &PcSet,
    query: &pc_storage::AggQuery,
) -> Result<Option<(f64, f64)>, String> {
    match BoundEngine::with_options(set, reference_options()).bound(query) {
        Ok(report) => Ok(Some((report.range.lo, report.range.hi))),
        Err(BoundError::EmptyAggregate) => Ok(None),
        Err(e) => Err(format!("oracle bound failed: {e}")),
    }
}

/// `oracle[p][i]`: the exact range of request `i` at epoch position `p`
/// (`None` when provably empty).
pub type Oracle = Vec<Vec<Option<(f64, f64)>>>;

/// Per-epoch-position oracle of the serving stream: `oracle[p][i]` is the
/// exact range of request `i` of the cycle against the catalog at
/// position `p` of the mutation cycle (a single position when `mutations`
/// is empty).
pub fn serving_oracle(
    table: &Table,
    lines: &[String],
    mutations: &[Mutation],
) -> Result<Oracle, String> {
    let queries = lines
        .iter()
        .map(|l| pc_storage::parse_query(table, sql_of(l)).map_err(|e| format!("`{l}`: {e}")))
        .collect::<Result<Vec<_>, _>>()?;
    let base = serving_set(SERVING_CONSTRAINTS);
    let snapshot = |set: &PcSet| -> Result<Vec<Option<(f64, f64)>>, String> {
        queries.iter().map(|q| exact_range(set, q)).collect()
    };
    let mut oracle = vec![snapshot(&base)?];
    // live[slot] = the constraint the slot holds; the catalog is the base
    // plus the live constraints in admission order
    let mut live: Vec<(usize, PredicateConstraint)> = Vec::new();
    for (p, m) in mutations.iter().enumerate() {
        match m {
            Mutation::Add { slot, text } => {
                let pc = pc_core::dsl::parse_constraint(table, text)
                    .map_err(|e| format!("mutation `{text}`: {e}"))?;
                live.push((*slot, pc));
            }
            Mutation::Retire { slot } => live.retain(|(s, _)| s != slot),
        }
        if p + 1 == mutations.len() {
            // the cycle closes on the seed catalog
            debug_assert!(live.is_empty());
            break;
        }
        let mut set = base.clone();
        set.set_disjoint_hint(false);
        for (_, pc) in &live {
            set.push(pc.clone());
        }
        oracle.push(snapshot(&set)?);
    }
    Ok(oracle)
}

/// One served answer, as read off the wire or out of a report.
#[derive(Debug, Clone, Copy, PartialEq)]
pub enum Answer {
    Empty,
    Range { lo: f64, hi: f64, exact: bool },
}

/// Check an answer against its oracle range: exact answers equal it to
/// 1e-6 relative, degraded and shed answers contain it.
pub fn check(want: Option<(f64, f64)>, got: Answer) -> Result<(), String> {
    match (want, got) {
        (None, Answer::Empty) => Ok(()),
        (None, other) => Err(format!("oracle says empty, got {other:?}")),
        (Some((lo, hi)), Answer::Empty) => Err(format!("got empty, oracle [{lo}, {hi}]")),
        (
            Some((lo, hi)),
            Answer::Range {
                lo: glo,
                hi: ghi,
                exact,
            },
        ) => {
            let tol = |x: f64| 1e-6 * x.abs().max(1.0);
            let close = |a: f64, b: f64| a == b || (a - b).abs() <= tol(b);
            let ok = if exact {
                close(glo, lo) && close(ghi, hi)
            } else {
                (glo <= lo || close(glo, lo)) && (ghi >= hi || close(ghi, hi))
            };
            if ok {
                Ok(())
            } else {
                let kind = if exact { "exact" } else { "degraded" };
                Err(format!(
                    "{kind} answer [{glo}, {ghi}] vs oracle [{lo}, {hi}]"
                ))
            }
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn streams_are_seeded_and_parse() {
        let table = serving_table();
        let a = request_cycle(3, true);
        assert_eq!(a, request_cycle(3, true));
        assert_ne!(a, request_cycle(4, true));
        assert_eq!(a.len(), WINDOWS * 5);
        assert_eq!(a.iter().filter(|l| l.contains("@timeout-ms")).count(), 5);
        for line in &a {
            pc_storage::parse_query(&table, sql_of(line)).unwrap();
        }
        let muts = mutation_cycle(3);
        assert_eq!(muts.len(), CYCLE);
        for m in &muts {
            if let Mutation::Add { text, .. } = m {
                pc_core::dsl::parse_constraint(&table, text).unwrap();
            }
        }
    }

    #[test]
    fn check_tolerates_only_sound_widening() {
        let want = Some((1.0, 10.0));
        let exact = |lo, hi| Answer::Range {
            lo,
            hi,
            exact: true,
        };
        let wide = |lo, hi| Answer::Range {
            lo,
            hi,
            exact: false,
        };
        assert!(check(want, exact(1.0, 10.0 + 1e-9)).is_ok());
        assert!(check(want, exact(0.0, 10.0)).is_err());
        assert!(check(want, wide(0.0, 11.0)).is_ok());
        assert!(check(want, wide(2.0, 11.0)).is_err());
        assert!(check(None, Answer::Empty).is_ok());
        assert!(check(want, Answer::Empty).is_err());
    }
}
