//! GROUP-BY support (§2): "a GROUP-BY clause can be considered as a union
//! of such queries without GROUP-BY". Each group key becomes one **keyed
//! query** — the base predicate with `group_attr = key` conjoined — and
//! is bounded like any other query. A keyed query's region is the key's
//! slice of the base region, so a one-shot bound of it runs on just the
//! constraints that slice reaches ([`crate::BoundOptions::shard`]): a key
//! pays for its own part of the catalog, not for the whole of it.
//!
//! [`BoundEngine::bound_group_by`] runs every key as its own stealable
//! pool task through [`BoundEngine::bound_budgeted`], and a
//! [`crate::Session`] runs the same keyed queries through its serve path
//! against one pinned epoch ([`crate::Session::bound_group_by`]). Either
//! way the results come back in key order, and every key's answer is the
//! one its keyed query gets on its own.

use crate::bounds::pooled_map_catch;
use crate::{BoundEngine, BoundError, BoundReport};
use pc_budget::QueryBudget;
use pc_predicate::Atom;
use pc_storage::AggQuery;

/// The result range of one group.
#[derive(Debug, Clone)]
pub struct GroupBound {
    /// The group's (encoded) key value.
    pub key: f64,
    /// The bound, or the per-group error (`EmptyAggregate` is common and
    /// expected for groups no missing row can reach).
    pub report: Result<BoundReport, BoundError>,
}

/// Bound the keyed query of every key with `bound`, one stealable pool
/// task per key ([`pooled_map_catch`]), returning the groups in key
/// order. A key whose task panics answers [`BoundError::Panicked`]
/// without touching its siblings.
pub(crate) fn bound_keys<F>(
    base: &AggQuery,
    group_attr: usize,
    keys: &[f64],
    threads: usize,
    bound: &F,
) -> Vec<GroupBound>
where
    F: Fn(&AggQuery) -> Result<BoundReport, BoundError> + Sync,
{
    let solve = |&key: &f64| {
        let predicate = base.predicate.clone().and(Atom::eq(group_attr, key));
        bound(&AggQuery::new(base.agg, base.attr, predicate))
    };
    pooled_map_catch(keys, threads, &solve)
        .into_iter()
        .zip(keys)
        .map(|(report, &key)| GroupBound {
            key,
            report: report.unwrap_or(Err(BoundError::Panicked)),
        })
        .collect()
}

impl BoundEngine<'_> {
    /// Bound `SELECT agg(attr) … GROUP BY group_attr` for an explicit list
    /// of group keys (e.g. every dictionary code of a categorical
    /// attribute, or the distinct values observed historically).
    ///
    /// Each group is the base query with `group_attr = key` conjoined —
    /// exactly the union-of-queries semantics of §2. Group keys the
    /// constraints prove unreachable come back as
    /// [`BoundError::EmptyAggregate`] rather than a fabricated zero range,
    /// so callers can distinguish "no missing rows here" from "bounded".
    ///
    /// Groups run in parallel, one pool task per key (see the module
    /// docs); results are returned in key order regardless of thread
    /// count, and each group's bound is identical to a standalone
    /// [`BoundEngine::bound`] of its keyed query.
    pub fn bound_group_by(
        &self,
        base: &AggQuery,
        group_attr: usize,
        keys: impl IntoIterator<Item = f64>,
    ) -> Vec<GroupBound> {
        self.bound_group_by_budgeted(base, group_attr, keys, &QueryBudget::unlimited())
    }

    /// [`BoundEngine::bound_group_by`] under a [`QueryBudget`] shared by
    /// the whole call: every key's bound ([`BoundEngine::bound_budgeted`],
    /// with its own warm-start chain) charges the same meter. On a trip,
    /// each key not yet finished degrades on its own — its closure probe
    /// and decomposition run under the tripped budget — so every key
    /// still gets a sound answer, flagged [`BoundReport::degraded`]. A
    /// group whose task panics comes back as [`BoundError::Panicked`]
    /// without touching its siblings.
    pub fn bound_group_by_budgeted(
        &self,
        base: &AggQuery,
        group_attr: usize,
        keys: impl IntoIterator<Item = f64>,
        budget: &QueryBudget,
    ) -> Vec<GroupBound> {
        let keys: Vec<f64> = keys.into_iter().collect();
        let threads = self.task_threads(keys.len());
        bound_keys(base, group_attr, &keys, threads, &|query| {
            self.bound_budgeted(query, budget)
        })
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::{
        BoundOptions, FrequencyConstraint, PcSet, PredicateConstraint, ValueConstraint, Warmth,
    };
    use pc_predicate::{AttrType, Interval, Predicate, Region, Schema};
    use pc_storage::AggKind;

    fn branch_set() -> PcSet {
        let schema = Schema::new(vec![("branch", AttrType::Cat), ("price", AttrType::Float)]);
        let mut domain = Region::full(&schema);
        domain.set_interval(0, Interval::closed(0.0, 2.0));
        let mut set = PcSet::new(schema);
        for (code, hi, k) in [(0u32, 149.99, 5u64), (1, 100.0, 10), (2, 50.0, 3)] {
            set.push(PredicateConstraint::new(
                Predicate::atom(Atom::eq(0, f64::from(code))),
                ValueConstraint::none().with(1, Interval::closed(0.0, hi)),
                FrequencyConstraint::at_most(k),
            ));
        }
        set.set_domain(domain);
        set.set_disjoint_hint(true);
        set
    }

    /// Overlapping constraints across branches: exercises the real
    /// decomposition + MILP machinery.
    fn overlapping_branch_set() -> PcSet {
        let schema = Schema::new(vec![("branch", AttrType::Cat), ("price", AttrType::Float)]);
        let mut domain = Region::full(&schema);
        domain.set_interval(0, Interval::closed(0.0, 3.0));
        let mut set = PcSet::new(schema);
        // per-branch constraints
        for (code, hi, k) in [(0u32, 149.99, 5u64), (1, 100.0, 10), (2, 50.0, 3)] {
            set.push(PredicateConstraint::new(
                Predicate::atom(Atom::eq(0, f64::from(code))),
                ValueConstraint::none().with(1, Interval::closed(0.0, hi)),
                FrequencyConstraint::at_most(k),
            ));
        }
        // cross-cutting constraints overlapping several branches
        set.push(PredicateConstraint::new(
            Predicate::atom(Atom::between(0, 0.0, 2.0)),
            ValueConstraint::none().with(1, Interval::closed(0.0, 120.0)),
            FrequencyConstraint::at_most(12),
        ));
        set.push(PredicateConstraint::new(
            Predicate::atom(Atom::between(0, 1.0, 4.0)),
            ValueConstraint::none().with(1, Interval::closed(0.0, 80.0)),
            FrequencyConstraint::between(2, 9),
        ));
        set.set_domain(domain);
        set
    }

    #[test]
    fn group_by_branch_sums() {
        let set = branch_set();
        let engine = BoundEngine::new(&set);
        let base = AggQuery::new(AggKind::Sum, 1, Predicate::always());
        let groups = engine.bound_group_by(&base, 0, [0.0, 1.0, 2.0]);
        assert_eq!(groups.len(), 3);
        let his: Vec<f64> = groups
            .iter()
            .map(|g| g.report.as_ref().unwrap().range.hi)
            .collect();
        assert!((his[0] - 5.0 * 149.99).abs() < 1e-6);
        assert!((his[1] - 10.0 * 100.0).abs() < 1e-6);
        assert!((his[2] - 3.0 * 50.0).abs() < 1e-6);
    }

    #[test]
    fn group_sum_upper_bounds_match_total() {
        // union semantics: the total SUM bound equals the sum of group
        // bounds for disjoint groups covering the domain
        let set = branch_set();
        let engine = BoundEngine::new(&set);
        let base = AggQuery::new(AggKind::Sum, 1, Predicate::always());
        let total = engine.bound(&base).unwrap().range.hi;
        let group_total: f64 = engine
            .bound_group_by(&base, 0, [0.0, 1.0, 2.0])
            .iter()
            .map(|g| g.report.as_ref().unwrap().range.hi)
            .sum();
        assert!((total - group_total).abs() < 1e-6);
    }

    #[test]
    fn unreachable_group_is_flagged() {
        let set = branch_set();
        let engine = BoundEngine::new(&set);
        // MIN over a group outside the domain: provably empty
        let base = AggQuery::new(AggKind::Min, 1, Predicate::always());
        let groups = engine.bound_group_by(&base, 0, [7.0]);
        assert!(matches!(groups[0].report, Err(BoundError::EmptyAggregate)));
    }

    /// The reference answer of every key: its keyed query bounded on its
    /// own by the flat, declaration-order, sequential engine, which shares
    /// no fan-out, reach scoping or sharding with the GROUP-BY path.
    fn reference(set: &PcSet, base: &AggQuery, keys: &[f64]) -> Vec<GroupBound> {
        let engine = BoundEngine::with_options(
            set,
            BoundOptions {
                shard: false,
                threads: 1,
                ordering: false,
                ..BoundOptions::default()
            },
        );
        keys.iter()
            .map(|&key| {
                let predicate = base.predicate.clone().and(Atom::eq(0, key));
                GroupBound {
                    key,
                    report: engine.bound(&AggQuery::new(base.agg, base.attr, predicate)),
                }
            })
            .collect()
    }

    fn assert_reports_match(got: &[GroupBound], want: &[GroupBound]) {
        assert_eq!(got.len(), want.len());
        for (s, p) in got.iter().zip(want) {
            assert_eq!(s.key, p.key);
            match (&s.report, &p.report) {
                (Ok(a), Ok(b)) => {
                    // 1e-5, not 1e-6: with the pool auto-enabled the
                    // allocation B&B may prune a node tying the incumbent
                    // within its 1e-6 tolerance in one run and explore it
                    // in the other
                    assert!(
                        (a.range.lo - b.range.lo).abs() < 1e-5
                            && (a.range.hi - b.range.hi).abs() < 1e-5,
                        "key {}: got [{}, {}] vs want [{}, {}]",
                        s.key,
                        a.range.lo,
                        a.range.hi,
                        b.range.lo,
                        b.range.hi
                    );
                    assert_eq!(a.closed, b.closed, "key {}", s.key);
                }
                (Err(a), Err(b)) => assert_eq!(a, b, "key {}", s.key),
                (a, b) => panic!("key {}: got {:?} vs want {:?}", s.key, a, b),
            }
        }
    }

    #[test]
    fn overlapping_sets_match_reference() {
        let set = overlapping_branch_set();
        let keys = [0.0, 1.0, 2.0, 3.0, 7.0];
        for agg in [
            AggKind::Sum,
            AggKind::Count,
            AggKind::Min,
            AggKind::Max,
            AggKind::Avg,
        ] {
            let base = AggQuery::new(agg, 1, Predicate::always());
            let groups = BoundEngine::new(&set).bound_group_by(&base, 0, keys);
            assert_reports_match(&groups, &reference(&set, &base, &keys));
        }
    }

    #[test]
    fn purely_key_local_sets_match_reference() {
        // Every constraint pins the group attribute: each key's slice
        // reaches at most its own constraint.
        let set = branch_set();
        let keys = [0.0, 1.0, 2.0, 7.0];
        for agg in [AggKind::Sum, AggKind::Count, AggKind::Max] {
            let base = AggQuery::new(agg, 1, Predicate::always());
            let groups = BoundEngine::new(&set).bound_group_by(&base, 0, keys);
            assert_reports_match(&groups, &reference(&set, &base, &keys));
        }
    }

    #[test]
    fn forced_key_local_constraints_match_reference() {
        // A key-local *floor* (kl > 0) interacting with a shared cap:
        // the key's cells must let the MILP see both rows at once.
        let schema = Schema::new(vec![("branch", AttrType::Cat), ("price", AttrType::Float)]);
        let mut domain = Region::full(&schema);
        domain.set_interval(0, Interval::closed(0.0, 1.0));
        let mut set = PcSet::new(schema);
        // branch 0 must hold 4–6 rows priced in [10, 20]
        set.push(PredicateConstraint::new(
            Predicate::atom(Atom::eq(0, 0.0)),
            ValueConstraint::none().with(1, Interval::closed(10.0, 20.0)),
            FrequencyConstraint::between(4, 6),
        ));
        // everywhere: at most 9 rows priced in [0, 100]
        set.push(PredicateConstraint::new(
            Predicate::always(),
            ValueConstraint::none().with(1, Interval::closed(0.0, 100.0)),
            FrequencyConstraint::at_most(9),
        ));
        set.set_domain(domain);

        let base = AggQuery::new(AggKind::Sum, 1, Predicate::always());
        let keys = [0.0, 1.0];
        let groups = BoundEngine::new(&set).bound_group_by(&base, 0, keys);
        assert_reports_match(&groups, &reference(&set, &base, &keys));
        // sanity: branch 0's floor is visible (lo ≥ 4 · 10)
        let g0 = groups[0].report.as_ref().unwrap();
        assert!(g0.range.lo >= 40.0 - 1e-9, "lo = {}", g0.range.lo);
    }

    #[test]
    fn structurally_identical_keys_match_reference() {
        // Generated per-key caps: every branch gets the *same* local
        // constraint shape (same value box, same frequency range — only
        // the group coordinate differs), plus shared cross-cutting
        // constraints, so every key's slice decomposes into non-trivial
        // cells.
        let schema = Schema::new(vec![("branch", AttrType::Cat), ("price", AttrType::Float)]);
        let mut domain = Region::full(&schema);
        domain.set_interval(0, Interval::closed(0.0, 7.0));
        let mut set = PcSet::new(schema);
        for code in 0..8u32 {
            // identical boxes modulo the group coordinate, incl. a floor
            set.push(PredicateConstraint::new(
                Predicate::atom(Atom::eq(0, f64::from(code))),
                ValueConstraint::none().with(1, Interval::closed(10.0, 90.0)),
                FrequencyConstraint::between(1, 6),
            ));
        }
        set.push(PredicateConstraint::new(
            Predicate::atom(Atom::between(0, 0.0, 5.0)),
            ValueConstraint::none().with(1, Interval::closed(0.0, 120.0)),
            FrequencyConstraint::at_most(20),
        ));
        set.push(PredicateConstraint::new(
            Predicate::atom(Atom::between(0, 2.0, 7.0)),
            ValueConstraint::none().with(1, Interval::closed(0.0, 80.0)),
            FrequencyConstraint::at_most(15),
        ));
        set.set_domain(domain);

        let keys: Vec<f64> = (0..8).map(f64::from).collect();
        for agg in [AggKind::Sum, AggKind::Count, AggKind::Avg] {
            let base = AggQuery::new(agg, 1, Predicate::always());
            let groups = BoundEngine::new(&set).bound_group_by(&base, 0, keys.clone());
            assert_reports_match(&groups, &reference(&set, &base, &keys));
        }
    }

    #[test]
    fn parallel_groups_preserve_key_order_and_results() {
        let set = overlapping_branch_set();
        let base = AggQuery::new(AggKind::Sum, 1, Predicate::always());
        let keys: Vec<f64> = (0..4).map(f64::from).collect();
        let sequential = BoundEngine::with_options(
            &set,
            BoundOptions {
                threads: 1,
                ..BoundOptions::default()
            },
        )
        .bound_group_by(&base, 0, keys.clone());
        for threads in [2usize, 3, 8] {
            let parallel = BoundEngine::with_options(
                &set,
                BoundOptions {
                    threads,
                    ..BoundOptions::default()
                },
            )
            .bound_group_by(&base, 0, keys.clone());
            assert_reports_match(&parallel, &sequential);
        }
    }

    #[test]
    fn warm_start_off_matches_on() {
        let set = overlapping_branch_set();
        let base = AggQuery::new(AggKind::Avg, 1, Predicate::always());
        let keys = [0.0, 1.0, 2.0, 3.0];
        let warm = BoundEngine::new(&set).bound_group_by(&base, 0, keys);
        let mut options = BoundOptions::default();
        options.milp.warmth = Warmth::Cold;
        let cold = BoundEngine::with_options(&set, options).bound_group_by(&base, 0, keys);
        assert_reports_match(&warm, &cold);
    }

    #[test]
    fn budgeted_group_by_answers_every_key_soundly() {
        let set = overlapping_branch_set();
        let base = AggQuery::new(AggKind::Sum, 1, Predicate::always());
        let keys = [0.0, 1.0, 2.0, 3.0];
        let engine = BoundEngine::new(&set);
        let exact = engine.bound_group_by(&base, 0, keys);
        // Starved from the first SAT check: every key's closure probe and
        // decomposition degrade — yet every key still answers, each
        // containing its exact range.
        let budget = QueryBudget::armed().with_sat_cap(0);
        let degraded = engine.bound_group_by_budgeted(&base, 0, keys, &budget);
        assert_eq!(degraded.len(), exact.len());
        for (e, d) in exact.iter().zip(&degraded) {
            assert_eq!(e.key, d.key);
            match (&e.report, &d.report) {
                (Ok(e), Ok(d)) => {
                    assert!(d.degraded, "budget tripped, the report must say so");
                    assert!(
                        d.range.lo <= e.range.lo + 1e-9 && d.range.hi >= e.range.hi - 1e-9,
                        "degraded {:?} must contain exact {:?}",
                        d.range,
                        e.range
                    );
                }
                // a starved key may answer wide where the exact run
                // proved emptiness — never the reverse
                (Err(_), Ok(_)) => {}
                (Ok(e), Err(d)) => panic!("exact {e:?} but degraded errored {d:?}"),
                (Err(_), Err(_)) => {}
            }
        }
    }

    #[test]
    fn empty_key_list_is_empty() {
        let set = branch_set();
        let engine = BoundEngine::new(&set);
        let base = AggQuery::new(AggKind::Sum, 1, Predicate::always());
        assert!(engine.bound_group_by(&base, 0, []).is_empty());
    }
}
