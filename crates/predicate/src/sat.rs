//! Exact satisfiability for decomposed cells.
//!
//! A cell produced by cell decomposition (§4.1 of the paper) has the shape
//! `base ∧ ¬ψ₁ ∧ … ∧ ¬ψₖ`, where `base` is the conjunction of the *included*
//! predicates (and the query pushdown predicate, Optimization 1) and the
//! `ψⱼ` are the *excluded* predicates. Geometrically this asks whether the
//! box `base` minus the union of boxes `ψⱼ` is non-empty.
//!
//! The paper uses Z3 for this test. Because predicates are restricted to
//! conjunctions of ranges, the problem is decidable by a small DPLL-style
//! search: if some `ψⱼ` covers `base`, the cell is empty; otherwise pick a
//! `ψⱼ` and branch on which of its atoms a witness violates, shrinking
//! `base` by the atom's complement. The search is exact (no approximation)
//! and produces a concrete witness row on success.
//!
//! # Parallel search
//!
//! The branch step is a disjunction: a witness avoiding the picked `ψ`
//! must violate at least one of its atoms, and the per-atom subproblems
//! are independent. A search allowed to fork ([`find_witness_with`],
//! [`find_witness_gated`]) runs them as stealable tasks on the
//! work-stealing pool when two conditions hold. The node must still be
//! *wide*: more than [`PAR_WITNESS_CUTOFF`] live exclusions, since subtree
//! size is exponential in that count. And the search's [`WorkGate`] must
//! be open: the search has already run [`WorkGate::GRAIN`] inline, so a
//! probe that finishes sooner (nearly all of them) never pays a pool
//! hand-off. The eager gate forks at every wide node from the first. The
//! first task to find a witness wins: a shared stop flag cancels the
//! remaining subtrees, which only ever skips work that would have
//! produced a *different equally valid* witness. Satisfiability verdicts
//! are identical to the sequential search; the witness row itself may
//! differ between runs (both are genuine points of the cell).
//!
//! # Branch ordering
//!
//! The branch disjuncts are tried **largest surviving volume first**: a
//! complement atom that keeps most of `base`'s width on its attribute is
//! the likeliest to still hold a witness, so trying it first ends a SAT
//! search sooner (the Atreides-style most-promising-first rule, applied
//! with pure interval arithmetic — no catalog statistics needed at this
//! level). The verdict is order-independent — on failure every branch is
//! still tried — so only the identity of the returned witness can shift,
//! which the parallel-search contract above already allows.
//!
//! # Budgets
//!
//! [`find_witness_budgeted`] is the cooperative-cancellation entry: it
//! charges the probe against a [`QueryBudget`] and re-checks the
//! budget's passive limits (deadline / cancel) at every recursion and
//! after every sequential branch — the same places the first-hit-wins
//! stop flag is consulted — so a tripped search unwinds within one
//! branch granule. A tripped probe reports [`SatOutcome::Tripped`],
//! **never** `Unsat`: the search was abandoned, not refuted, and
//! callers must treat the cell as possibly satisfiable (the
//! EarlyStop-style sound widening).

use crate::{Interval, Predicate, Region};
use pc_budget::{QueryBudget, WorkGate};
use std::sync::atomic::{AtomicBool, Ordering};
use std::sync::Mutex;

/// Tri-state verdict of a budgeted satisfiability probe.
#[derive(Debug, Clone, PartialEq)]
pub enum SatOutcome {
    /// A genuine witness row of the cell.
    Sat(Vec<f64>),
    /// Exactly refuted: no point of the cell exists.
    Unsat,
    /// The budget tripped before the search finished. The cell **may**
    /// be satisfiable — treating it as empty would be unsound.
    Tripped,
}

impl SatOutcome {
    /// The witness, if the probe proved satisfiability.
    pub fn witness(self) -> Option<Vec<f64>> {
        match self {
            SatOutcome::Sat(w) => Some(w),
            _ => None,
        }
    }
}

/// Minimum number of live (overlapping, non-covering) exclusions for the
/// branch disjuncts to fork as pool tasks. The remaining subtree is at
/// worst exponential in the live count, so above this the tasks amortize
/// their deque pushes; below it the whole search is a handful of interval
/// intersections and stays inline.
pub const PAR_WITNESS_CUTOFF: usize = 6;

/// Decide whether `base ∧ ¬ψ₁ ∧ … ∧ ¬ψₖ` is satisfiable, returning a
/// witness row (one encoded `f64` per attribute) if so.
///
/// `negs` are the excluded predicates. An excluded tautology makes every
/// cell empty (`¬TRUE` is unsatisfiable), which falls out naturally since
/// the tautology's box covers everything.
///
/// Strictly sequential; see [`find_witness_with`] for the parallel
/// driver.
pub fn find_witness(base: &Region, negs: &[&Predicate]) -> Option<Vec<f64>> {
    #[cfg(feature = "fault")]
    pc_budget::fault::point("sat::probe");
    search(
        base,
        negs,
        &WorkGate::INLINE,
        None,
        &QueryBudget::unlimited(),
    )
}

/// [`find_witness`] with an explicit parallelism opt-in: when `parallel`
/// is true, wide branch disjunctions fork as first-hit-wins stealable
/// tasks once the search has run [`WorkGate::GRAIN`] inline (see the
/// module docs). The satisfiability verdict is identical either way; only
/// the identity of the returned witness may vary.
pub fn find_witness_with(base: &Region, negs: &[&Predicate], parallel: bool) -> Option<Vec<f64>> {
    find_witness_budgeted(base, negs, parallel, &QueryBudget::unlimited()).witness()
}

/// [`find_witness_with`] under a [`QueryBudget`]: charges one SAT probe,
/// re-checks the passive limits at every recursion, and reports the
/// tri-state [`SatOutcome`] — `Tripped` when the budget ran out before
/// the search could conclude (see the module docs; never read `Tripped`
/// as `Unsat`).
pub fn find_witness_budgeted(
    base: &Region,
    negs: &[&Predicate],
    parallel: bool,
    budget: &QueryBudget,
) -> SatOutcome {
    let gate = if parallel {
        WorkGate::start(false)
    } else {
        WorkGate::INLINE
    };
    find_witness_gated(base, negs, gate, budget)
}

/// [`find_witness_budgeted`] with the caller's [`WorkGate`]: the eager
/// gate forks every wide disjunction from the first, [`WorkGate::INLINE`]
/// never forks. A one-worker pool always searches inline.
pub fn find_witness_gated(
    base: &Region,
    negs: &[&Predicate],
    gate: WorkGate,
    budget: &QueryBudget,
) -> SatOutcome {
    #[cfg(feature = "fault")]
    pc_budget::fault::point("sat::probe");
    if !budget.charge_sat() {
        return SatOutcome::Tripped;
    }
    let gate = if rayon::current_num_threads() > 1 {
        gate
    } else {
        WorkGate::INLINE
    };
    match search(base, negs, &gate, None, budget) {
        Some(w) => SatOutcome::Sat(w),
        // A `None` under a tripped budget is an abandoned search, not a
        // refutation (the trip may have landed after a genuine UNSAT
        // concluded — reporting `Tripped` for it is sound, merely
        // looser).
        None if budget.is_tripped() => SatOutcome::Tripped,
        None => SatOutcome::Unsat,
    }
}

/// The DPLL-style search; wide nodes fork once `gate` is open. `stop` is
/// the shared first-hit-wins cancellation flag of an enclosing parallel
/// fan-out: once set, every search under that fan-out may return `None`
/// *as a cancellation* — the fan-out that set it has already recorded a
/// genuine witness, and cancelled results are discarded, never
/// interpreted as UNSAT. A tripped `budget` aborts the same way; the
/// budgeted public entry re-reads the budget to tell the two `None`s
/// apart.
fn search(
    base: &Region,
    negs: &[&Predicate],
    gate: &WorkGate,
    stop: Option<&AtomicBool>,
    budget: &QueryBudget,
) -> Option<Vec<f64>> {
    if stop.is_some_and(|f| f.load(Ordering::Relaxed)) {
        return None;
    }
    if !budget.proceed() {
        return None;
    }
    if base.is_empty() {
        return None;
    }
    // Keep only excluded predicates whose box intersects `base`; a disjoint
    // exclusion is vacuously satisfied. If any exclusion covers `base`
    // entirely, no witness can exist. Both facts are decided per-atom on
    // interval intersections without materializing `base ∩ ψ`.
    let mut live: Vec<&Predicate> = Vec::with_capacity(negs.len());
    for p in negs {
        let mut disjoint = false;
        let mut unchanged = true;
        let atoms = p.atoms();
        for (i, atom) in atoms.iter().enumerate() {
            // Fold earlier atoms on the same attribute into the current
            // interval so conjunctions like `x ∈ [0,3] ∧ x ∈ [5,8]` are
            // recognized as empty (cumulative emptiness), exactly like the
            // old materialized `base ∩ ψ` test. Predicates have a handful
            // of atoms, so the inner scan is cheaper than a region clone.
            let mut cur = *base.interval(atom.attr);
            for prev in &atoms[..i] {
                if prev.attr == atom.attr {
                    cur = cur.intersect(&prev.interval);
                }
            }
            let narrowed = cur.intersect(&atom.interval);
            if narrowed.is_empty(base.attr_type(atom.attr)) {
                // ψ can't capture any point of base
                disjoint = true;
                break;
            }
            if narrowed != cur {
                unchanged = false;
            }
        }
        if disjoint {
            continue;
        }
        if unchanged || covers(p, base) {
            return None;
        }
        live.push(p);
    }
    if live.is_empty() {
        return base.pick_witness();
    }
    // Branch on the exclusion with the fewest atoms: fewest subproblems.
    let (pick_idx, pick) = live
        .iter()
        .enumerate()
        .min_by_key(|(_, p)| p.atoms().len())
        .map(|(i, p)| (i, *p))
        .expect("live is non-empty");
    let rest: Vec<&Predicate> = live
        .iter()
        .enumerate()
        .filter_map(|(i, p)| (i != pick_idx).then_some(*p))
        .collect();

    // A witness avoiding ψ must violate at least one of its atoms — the
    // branch disjunction, tried largest-surviving-volume first (module
    // docs, "Branch ordering"). Wide searches past their gate materialize
    // the branch boxes up front and fan them out as tasks.
    let branches = ordered_branches(base, pick);
    if live.len() > PAR_WITNESS_CUTOFF && branches.len() > 1 && gate.is_open() {
        let branches = branches
            .into_iter()
            .map(|b| {
                b.map(|(attr, narrowed)| {
                    let mut shrunk = base.clone();
                    shrunk.set_interval(attr, narrowed);
                    shrunk
                })
            })
            .collect();
        return fan_out(base, &rest, branches, gate, stop, budget);
    }

    // Sequential branch loop: clone the base box lazily, only for the
    // branches actually reached — the first witness stops the scan.
    for branch in branches {
        let found = match branch {
            Some((attr, narrowed)) => {
                let mut shrunk = base.clone();
                shrunk.set_interval(attr, narrowed);
                search(&shrunk, &rest, gate, stop, budget)
            }
            None => search(base, &rest, gate, stop, budget),
        };
        if found.is_some() {
            return found;
        }
        if stop.is_some_and(|f| f.load(Ordering::Relaxed)) || !budget.proceed() {
            return None;
        }
    }
    None
}

/// Enumerate the branch disjuncts of the picked exclusion against `base`,
/// **largest surviving-width fraction first**. Each entry is
/// `Some((attr, narrowed))` — recurse with `attr` shrunk to `narrowed` —
/// or `None`, the single deduplicated non-narrowing branch that recurses
/// on `base` unchanged (every such complement atom reduces to the
/// identical subproblem, so it appears at most once, with fraction 1.0).
/// Complement atoms whose intersection with `base` is empty are dropped
/// here. Only `Interval` copies are staged — region clones stay
/// one-per-branch-taken in the callers.
fn ordered_branches(base: &Region, pick: &Predicate) -> Vec<Option<(usize, Interval)>> {
    let mut scored: Vec<(f64, Option<(usize, Interval)>)> = Vec::new();
    let mut unchanged_pushed = false;
    for atom in pick.atoms() {
        let ty = base.attr_type(atom.attr);
        for neg_atom in atom.negate(ty) {
            let cur = base.interval(neg_atom.attr);
            let narrowed = cur.intersect(&neg_atom.interval);
            if narrowed.is_empty(ty) {
                continue;
            }
            if narrowed == *cur {
                if !unchanged_pushed {
                    unchanged_pushed = true;
                    scored.push((1.0, None));
                }
            } else {
                let frac = surviving_fraction(&narrowed, cur);
                scored.push((frac, Some((neg_atom.attr, narrowed))));
            }
        }
    }
    // Stable sort: equal fractions keep declaration order, so the
    // ordering is deterministic and degenerates to the historical order
    // on unscorable (unbounded) axes.
    scored.sort_by(|a, b| b.0.partial_cmp(&a.0).unwrap_or(std::cmp::Ordering::Equal));
    scored.into_iter().map(|(_, b)| b).collect()
}

/// Fraction of `cur`'s width that `narrowed` keeps, in `[0, 1]`. An
/// unbounded `cur` gives no scale: an unbounded survivor keeps
/// "everything" (1.0), a finite one is pessimistically half (0.5) — the
/// same convention as pc-core's estimate layer.
fn surviving_fraction(narrowed: &Interval, cur: &Interval) -> f64 {
    let cur_w = cur.hi - cur.lo;
    if !cur_w.is_finite() || cur_w <= 0.0 {
        let nw = narrowed.hi - narrowed.lo;
        return if nw.is_finite() { 0.5 } else { 1.0 };
    }
    ((narrowed.hi - narrowed.lo) / cur_w).clamp(0.0, 1.0)
}

/// Run the branch disjuncts as first-hit-wins stealable tasks. Any task
/// that finds a witness sets the (shared) stop flag — cancelling every
/// other subtree under the same root — and the first such witness *at
/// this level* is the result. A level whose tasks were all cancelled
/// returns `None`, which its own parent fan-out discards: the witness
/// that caused the cancellation propagates up the chain of the task that
/// found it.
fn fan_out(
    base: &Region,
    rest: &[&Predicate],
    branches: Vec<Option<Region>>,
    gate: &WorkGate,
    stop: Option<&AtomicBool>,
    budget: &QueryBudget,
) -> Option<Vec<f64>> {
    let local_stop = AtomicBool::new(false);
    let stop = stop.unwrap_or(&local_stop);
    let result: Mutex<Option<Vec<f64>>> = Mutex::new(None);
    rayon::scope(|s| {
        for branch in branches {
            let result = &result;
            s.spawn(move |_| {
                if stop.load(Ordering::Relaxed) || !budget.proceed() {
                    return;
                }
                let found = match &branch {
                    Some(shrunk) => search(shrunk, rest, gate, Some(stop), budget),
                    None => search(base, rest, gate, Some(stop), budget),
                };
                if let Some(w) = found {
                    stop.store(true, Ordering::Relaxed);
                    let mut slot = result.lock().unwrap();
                    if slot.is_none() {
                        *slot = Some(w);
                    }
                }
            });
        }
    });
    result.into_inner().unwrap()
}

/// Decide satisfiability without materializing the witness.
pub fn is_sat(base: &Region, negs: &[&Predicate]) -> bool {
    find_witness(base, negs).is_some()
}

/// [`is_sat`] with the parallel-search opt-in of [`find_witness_with`].
pub fn is_sat_with(base: &Region, negs: &[&Predicate], parallel: bool) -> bool {
    find_witness_with(base, negs, parallel).is_some()
}

/// True if predicate `p`'s box contains all of `base`.
fn covers(p: &Predicate, base: &Region) -> bool {
    p.atoms().iter().all(|atom| {
        let ty = base.attr_type(atom.attr);
        atom.interval
            .contains_interval(base.interval(atom.attr), ty)
    })
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::{Atom, AttrType, Interval, Schema};

    fn schema() -> Schema {
        Schema::new(vec![("x", AttrType::Float), ("y", AttrType::Float)])
    }

    fn boxp(x0: f64, x1: f64, y0: f64, y1: f64) -> Predicate {
        Predicate::always()
            .and(Atom::between(0, x0, x1))
            .and(Atom::between(1, y0, y1))
    }

    #[test]
    fn self_contradictory_exclusion_is_dropped_without_search() {
        // two atoms on the same attribute with an empty conjunction: the
        // exclusion can capture nothing and must not spawn branch work
        let s = schema();
        let base = boxp(0.0, 10.0, 0.0, 10.0).to_region(&s);
        let contradictory = Predicate::always()
            .and(Atom::between(0, 0.0, 3.0))
            .and(Atom::between(0, 5.0, 8.0));
        let w = find_witness(&base, &[&contradictory]).unwrap();
        assert!(base.contains_row(&w));
    }

    #[test]
    fn no_exclusions_sat() {
        let s = schema();
        let base = boxp(0.0, 1.0, 0.0, 1.0).to_region(&s);
        let w = find_witness(&base, &[]).unwrap();
        assert!(base.contains_row(&w));
    }

    #[test]
    fn covered_base_unsat() {
        let s = schema();
        let base = boxp(0.0, 1.0, 0.0, 1.0).to_region(&s);
        let cover = boxp(-1.0, 2.0, -1.0, 2.0);
        assert!(!is_sat(&base, &[&cover]));
    }

    #[test]
    fn negated_tautology_unsat() {
        let s = schema();
        let base = Region::full(&s);
        let taut = Predicate::always();
        assert!(!is_sat(&base, &[&taut]));
    }

    #[test]
    fn disjoint_exclusion_ignored() {
        let s = schema();
        let base = boxp(0.0, 1.0, 0.0, 1.0).to_region(&s);
        let far = boxp(10.0, 11.0, 10.0, 11.0);
        let w = find_witness(&base, &[&far]).unwrap();
        assert!(base.contains_row(&w));
    }

    #[test]
    fn partial_overlap_sat_with_witness_outside_exclusion() {
        let s = schema();
        let base = boxp(0.0, 10.0, 0.0, 10.0).to_region(&s);
        let cut = boxp(0.0, 5.0, 0.0, 10.0);
        let w = find_witness(&base, &[&cut]).unwrap();
        assert!(base.contains_row(&w));
        assert!(!cut.eval(&w));
    }

    #[test]
    fn union_of_two_halves_covers() {
        // two exclusions that jointly (but not individually) cover base
        let s = schema();
        let base = boxp(0.0, 10.0, 0.0, 10.0).to_region(&s);
        let left = boxp(-1.0, 5.0, -1.0, 11.0);
        let right = boxp(5.0, 11.0, -1.0, 11.0);
        assert!(!is_sat(&base, &[&left, &right]));
    }

    #[test]
    fn union_with_gap_sat() {
        let s = schema();
        let base = boxp(0.0, 10.0, 0.0, 10.0).to_region(&s);
        let left = boxp(-1.0, 4.0, -1.0, 11.0);
        let right = boxp(6.0, 11.0, -1.0, 11.0);
        let w = find_witness(&base, &[&left, &right]).unwrap();
        assert!(base.contains_row(&w));
        assert!(!left.eval(&w) && !right.eval(&w));
        assert!(w[0] > 4.0 && w[0] < 6.0);
    }

    #[test]
    fn cross_covering_quadrants() {
        // four quadrant boxes cover the unit square only jointly
        let s = schema();
        let base = boxp(0.0, 1.0, 0.0, 1.0).to_region(&s);
        let q1 = boxp(0.0, 0.5, 0.0, 0.5);
        let q2 = boxp(0.5, 1.0, 0.0, 0.5);
        let q3 = boxp(0.0, 0.5, 0.5, 1.0);
        let q4 = boxp(0.5, 1.0, 0.5, 1.0);
        assert!(!is_sat(&base, &[&q1, &q2, &q3, &q4]));
        // leave a pinhole: shrink q4 so (0.75, 0.75) escapes through the
        // open corner
        let q4_small = Predicate::always()
            .and(Atom::new(0, Interval::closed(0.5, 0.7)))
            .and(Atom::new(1, Interval::closed(0.5, 1.0)));
        let w = find_witness(&base, &[&q1, &q2, &q3, &q4_small]).unwrap();
        assert!(base.contains_row(&w));
        for q in [&q1, &q2, &q3, &q4_small] {
            assert!(!q.eval(&w));
        }
    }

    #[test]
    fn discrete_domain_exact_cover() {
        // base: cat ∈ [0, 2]; exclusions cat=0, cat=1, cat=2 cover exactly
        let s = Schema::new(vec![("c", AttrType::Cat)]);
        let mut base = Region::full(&s);
        base.intersect_atom(&Atom::between(0, 0.0, 2.0));
        let e0 = Predicate::atom(Atom::eq(0, 0.0));
        let e1 = Predicate::atom(Atom::eq(0, 1.0));
        let e2 = Predicate::atom(Atom::eq(0, 2.0));
        assert!(!is_sat(&base, &[&e0, &e1, &e2]));
        assert!(is_sat(&base, &[&e0, &e2]));
        let w = find_witness(&base, &[&e0, &e2]).unwrap();
        assert_eq!(w[0], 1.0);
    }

    #[test]
    fn budgeted_probe_matches_exact_when_unlimited() {
        let s = schema();
        let base = boxp(0.0, 10.0, 0.0, 10.0).to_region(&s);
        let left = boxp(-1.0, 5.0, -1.0, 11.0);
        let right = boxp(5.0, 11.0, -1.0, 11.0);
        let gap_right = boxp(6.0, 11.0, -1.0, 11.0);
        let b = QueryBudget::unlimited();
        assert_eq!(
            find_witness_budgeted(&base, &[&left, &right], false, &b),
            SatOutcome::Unsat
        );
        match find_witness_budgeted(&base, &[&left, &gap_right], false, &b) {
            SatOutcome::Sat(w) => assert!(base.contains_row(&w)),
            other => panic!("expected Sat, got {other:?}"),
        }
    }

    #[test]
    fn exhausted_budget_reports_tripped_not_unsat() {
        let s = schema();
        let base = boxp(0.0, 10.0, 0.0, 10.0).to_region(&s);
        let left = boxp(-1.0, 5.0, -1.0, 11.0);
        let right = boxp(5.0, 11.0, -1.0, 11.0);
        // cap 0: the very first charge trips — even though the cell is
        // genuinely UNSAT, the abandoned probe must not claim so
        let b = QueryBudget::unlimited().with_sat_cap(0);
        assert_eq!(
            find_witness_budgeted(&base, &[&left, &right], false, &b),
            SatOutcome::Tripped
        );
        assert!(b.is_tripped());
    }

    #[test]
    fn cancelled_budget_aborts_mid_search() {
        let s = schema();
        let base = boxp(0.0, 10.0, 0.0, 10.0).to_region(&s);
        let left = boxp(-1.0, 5.0, -1.0, 11.0);
        let right = boxp(5.0, 11.0, -1.0, 11.0);
        let b = QueryBudget::armed();
        b.cancel_token().expect("armed").cancel();
        assert_eq!(
            find_witness_budgeted(&base, &[&left, &right], false, &b),
            SatOutcome::Tripped
        );
    }

    #[test]
    fn paper_example_three_cells() {
        // §4.4: t1 = Nov11 ≤ utc < Nov12, t2 = Nov11 ≤ utc < Nov13.
        // Cell t1 ∧ ¬t2 is unsatisfiable; the others are satisfiable.
        let s = Schema::new(vec![("utc", AttrType::Int), ("price", AttrType::Float)]);
        let t1 = Predicate::atom(Atom::bucket(0, 11.0, 12.0));
        let t2 = Predicate::atom(Atom::bucket(0, 11.0, 13.0));
        let full = Region::full(&s);

        // c1 = t1 ∧ t2
        let c1 = {
            let mut r = full.clone();
            for a in t1.atoms().iter().chain(t2.atoms()) {
                r.intersect_atom(a);
            }
            r
        };
        assert!(is_sat(&c1, &[]));

        // c2 = ¬t1 ∧ t2
        let c2 = {
            let mut r = full.clone();
            for a in t2.atoms() {
                r.intersect_atom(a);
            }
            r
        };
        assert!(is_sat(&c2, &[&t1]));

        // c3 = t1 ∧ ¬t2 : t2's box contains t1's box, so unsat
        let c3 = {
            let mut r = full.clone();
            for a in t1.atoms() {
                r.intersect_atom(a);
            }
            r
        };
        assert!(!is_sat(&c3, &[&t2]));
    }
}
