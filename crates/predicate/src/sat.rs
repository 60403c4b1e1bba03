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
//! # The branch loop
//!
//! The search is a backtracking depth-first search that extends one
//! partial region and retreats at dead ends. Each level reads the
//! exclusions its parent left live and keeps those that still overlap
//! the region (a disjoint exclusion is vacuously satisfied; a covering one
//! refutes the level). It scans them newest first: callers list their
//! newest exclusion last, and under the estimate-guided split order the
//! newest are also the widest, so a covering one is usually met first.
//! With none live, any point of the region is a witness. Otherwise it
//! picks the live exclusion that *cuts* the region on the fewest atoms
//! (an atom cuts when it narrows the region's interval on its attribute;
//! ties go to the exclusion the caller listed first) and tries its branch
//! disjuncts: a witness avoiding the picked `ψ` must violate at least one
//! of its atoms, so each branch narrows one interval of the region to a
//! piece of that atom's complement and recurses on the remaining live
//! exclusions. An atom that does not cut has no piece of its complement
//! in the region, so the cutting atoms are what the subproblems come
//! from: three strips that cover the region on one cutting atom each
//! refute it in three levels, however many small boxes (three cutting
//! atoms each) the caller listed before them. The first witness ends the
//! search; a level whose every branch fails is unsatisfiable.
//!
//! A level classifies every exclusion unless one covers, and the pick is
//! keyed by the caller's order, so the scan order changes neither the
//! live set, the pick nor the witness, only how soon a covering
//! exclusion is found.
//!
//! # Allocation discipline
//!
//! One probe owns one mutable [`Region`] and one exclusion array, whatever
//! depth it reaches. Both are its thread's: a probe takes them from a
//! thread-local slot, refills them from its arguments, and gives them
//! back when it ends.
//!
//! * a branch narrows one interval of the region in place and restores it
//!   on return;
//! * the exclusion array holds positions into the caller's list, and a
//!   level owns a segment of it. It moves its live exclusions to the back
//!   of the segment, in order, and its pick to the front of those, and
//!   its children work on the live part after the pick, so the array
//!   never grows past the caller's `k` exclusions. Swapping only permutes
//!   a segment, and the pick's tie-break is the caller's position, so no
//!   permutation changes which node the search visits next;
//! * a level puts its branch disjuncts in branch order once and keeps
//!   them in a fixed array on its stack frame, each as a slot (an atom and
//!   a piece of its complement) that the branch re-derives when it runs;
//!   [`crate::Interval::complement`] returns its pieces inline.
//!
//! Once a probe has run on its thread, a sequential probe therefore
//! allocates only the witness it returns, and a refuted one nothing. A
//! nested probe on the same thread (a pool thread running a stolen task
//! while its own probe waits) finds the buffers taken and allocates its
//! own. Only a fork (see below) copies the region and the live
//! exclusions again, once per task.
//!
//! # Parallel search
//!
//! The branch step is a disjunction, and its subproblems are independent.
//! A search allowed to fork ([`find_witness_with`],
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
//! level). Equal fractions keep the atoms' declaration order. The verdict
//! is order-independent — on failure every branch is still tried — so
//! only the identity of the returned witness can shift, which the
//! parallel-search contract above already allows.
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
use std::cell::Cell;
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
    // A nested probe on this thread (a stolen task run while the thread's
    // own probe waits) finds the buffers taken and allocates its own.
    let (mut region, mut excluded) = BUFFERS.take().unwrap_or_else(|| (base.clone(), Vec::new()));
    region.clone_from(base);
    excluded.clear();
    excluded.extend(0..negs.len());
    let mut search = Search {
        negs,
        region,
        excluded,
        gate,
        stop,
        budget,
    };
    let found = search.level(0, negs.len());
    BUFFERS.set(Some((search.region, search.excluded)));
    found
}

thread_local! {
    /// This thread's probe buffers (module docs, "Allocation
    /// discipline"): a probe takes them and gives them back when it ends.
    static BUFFERS: Cell<Option<(Region, Vec<usize>)>> = const { Cell::new(None) };
}

#[cfg(test)]
thread_local! {
    /// Levels the searches on this thread have entered.
    static LEVELS: Cell<u64> = const { Cell::new(0) };
}

/// One probe's backtracking state (module docs, "Allocation
/// discipline"): the region its branches narrow in place, and its
/// exclusions as positions into the caller's list `negs`, which its
/// levels partition in place.
struct Search<'a> {
    negs: &'a [&'a Predicate],
    region: Region,
    excluded: Vec<usize>,
    gate: &'a WorkGate,
    stop: Option<&'a AtomicBool>,
    budget: &'a QueryBudget,
}

/// How an exclusion meets the current region.
enum Overlap {
    /// Captures no point of the region: vacuously satisfied.
    Disjoint,
    /// Contains the whole region: no witness can exist.
    Covers,
    /// Cuts the region on this many atoms: stays live.
    Partial(usize),
}

impl Search<'_> {
    /// The first-hit-wins flag is set or the budget tripped.
    fn cancelled(&self) -> bool {
        self.stop.is_some_and(|f| f.load(Ordering::Relaxed)) || !self.budget.proceed()
    }

    /// Search `region ∧ ¬excluded[from..end]`. The level may permute its
    /// segment, never anything outside it.
    fn level(&mut self, from: usize, end: usize) -> Option<Vec<f64>> {
        #[cfg(test)]
        LEVELS.set(LEVELS.get() + 1);
        if self.cancelled() || self.region.is_empty() {
            return None;
        }
        // Scan newest first, moving the live exclusions to the back of the
        // segment in order. Pick the one that cuts the region on the
        // fewest atoms (fewest subproblems), ties to the one the caller
        // listed first, so the pick never depends on how earlier levels
        // permuted the segment.
        let mut live_from = end;
        let mut pick: Option<(usize, usize, usize)> = None;
        for i in (from..end).rev() {
            let at = self.excluded[i];
            match overlap(self.negs[at], &self.region) {
                Overlap::Disjoint => {}
                Overlap::Covers => return None,
                Overlap::Partial(cuts) => {
                    live_from -= 1;
                    self.excluded.swap(i, live_from);
                    if pick.is_none_or(|(c, a, _)| (cuts, at) < (c, a)) {
                        pick = Some((cuts, at, live_from));
                    }
                }
            }
        }
        let Some((_, at, pick_at)) = pick else {
            return self.region.pick_witness();
        };
        // The pick moves to the front of the live part; the rest are the
        // children's segment.
        self.excluded.swap(pick_at, live_from);
        self.branch(self.negs[at], live_from + 1, end)
    }

    /// Try the branch disjuncts of `pick` over the remaining live
    /// exclusions `excluded[from..end]`, largest surviving volume first
    /// (module docs, "Branch ordering"). Wide searches past their gate fan
    /// them out.
    fn branch(&mut self, pick: &Predicate, from: usize, end: usize) -> Option<Vec<f64>> {
        let live = end - from + 1;
        if live > PAR_WITNESS_CUTOFF && self.gate.is_open() {
            let branches = all_branches(&self.region, pick);
            if branches.len() > 1 {
                return self.fan_out(from, end, branches);
            }
        }
        let mut batch = [0; BATCH];
        let mut after = None;
        loop {
            let (n, last) = next_branches(&self.region, pick, after, &mut batch);
            for &slot in &batch[..n] {
                let found = match narrowing(&self.region, pick, slot) {
                    Some((attr, narrowed)) => {
                        let saved = *self.region.interval(attr);
                        self.region.set_interval(attr, narrowed);
                        let found = self.level(from, end);
                        self.region.set_interval(attr, saved);
                        found
                    }
                    None => self.level(from, end),
                };
                if found.is_some() {
                    return found;
                }
                if self.cancelled() {
                    return None;
                }
            }
            if n < BATCH {
                return None;
            }
            after = Some(last);
        }
    }

    /// Run the branch disjuncts as first-hit-wins stealable tasks, each
    /// on its own copy of the region and of the live exclusions
    /// `excluded[from..end]`. Any task that finds a witness sets the (shared)
    /// stop flag — cancelling every other subtree under the same root —
    /// and the first such witness *at this level* is the result. A level
    /// whose tasks were all cancelled returns `None`, which its own parent
    /// fan-out discards: the witness that caused the cancellation
    /// propagates up the chain of the task that found it.
    fn fan_out(&self, from: usize, end: usize, branches: Vec<Narrowing>) -> Option<Vec<f64>> {
        let local_stop = AtomicBool::new(false);
        let stop = self.stop.unwrap_or(&local_stop);
        let rest = &self.excluded[from..end];
        let result: Mutex<Option<Vec<f64>>> = Mutex::new(None);
        rayon::scope(|s| {
            for narrowing in branches {
                let result = &result;
                s.spawn(move |_| {
                    if stop.load(Ordering::Relaxed) || !self.budget.proceed() {
                        return;
                    }
                    let mut region = self.region.clone();
                    if let Some((attr, narrowed)) = narrowing {
                        region.set_interval(attr, narrowed);
                    }
                    let found = Search {
                        negs: self.negs,
                        region,
                        excluded: rest.to_vec(),
                        gate: self.gate,
                        stop: Some(stop),
                        budget: self.budget,
                    }
                    .level(0, rest.len());
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
}

/// Classify `p` against `region` per atom, on interval intersections,
/// without materializing `region ∩ p`.
fn overlap(p: &Predicate, region: &Region) -> Overlap {
    let atoms = p.atoms();
    let mut cuts = 0;
    for (i, atom) in atoms.iter().enumerate() {
        // Fold earlier atoms on the same attribute into the current
        // interval so conjunctions like `x ∈ [0,3] ∧ x ∈ [5,8]` are
        // recognized as empty (cumulative emptiness), exactly like a
        // materialized `region ∩ p` test. Predicates have a handful of
        // atoms, so the inner scan is cheaper than a region clone.
        let mut cur = *region.interval(atom.attr);
        for prev in &atoms[..i] {
            if prev.attr == atom.attr {
                cur = cur.intersect(&prev.interval);
            }
        }
        let narrowed = cur.intersect(&atom.interval);
        if narrowed.is_empty(region.attr_type(atom.attr)) {
            return Overlap::Disjoint;
        }
        if narrowed != cur {
            cuts += 1;
        }
    }
    if cuts == 0 || covers(p, region) {
        Overlap::Covers
    } else {
        Overlap::Partial(cuts)
    }
}

/// One branch disjunct: recurse with `attr` narrowed to the interval, or
/// (`None`) on the region unchanged.
type Narrowing = Option<(usize, Interval)>;

/// Position of a branch disjunct in branch order: its surviving fraction,
/// then its slot.
type BranchKey = (f64, usize);

/// Branch disjuncts one enumeration puts in order. A level keeps their
/// slots on its stack frame; a pick of up to four atoms (nearly all of
/// them) is enumerated once, a wider one once per batch.
const BATCH: usize = 8;

/// The branch disjunct in `slot` of the picked exclusion: piece
/// `slot % 2` of the complement of atom `slot / 2`, met with the region.
fn narrowing(region: &Region, pick: &Predicate, slot: usize) -> Narrowing {
    let atom = &pick.atoms()[slot / 2];
    let cur = region.interval(atom.attr);
    let piece = atom.interval.complement(region.attr_type(atom.attr))[slot % 2];
    let narrowed = cur.intersect(&piece);
    (narrowed != *cur).then_some((atom.attr, narrowed))
}

/// Fill `batch` with the slots of the next up to [`BATCH`] branch
/// disjuncts of the picked exclusion after `after` (from the first when
/// `None`), in branch order, and return how many there are and the key of
/// the last. Branch order is **largest surviving-width fraction first**,
/// ties in slot order: atom by atom, each atom's complement pieces lowest
/// first. A piece whose intersection with the region is empty is no
/// branch. Every piece that leaves the region unchanged reduces to the
/// same subproblem, so only the first of them is a branch (fraction 1.0).
fn next_branches(
    region: &Region,
    pick: &Predicate,
    after: Option<BranchKey>,
    batch: &mut [usize; BATCH],
) -> (usize, BranchKey) {
    let mut keys = [(0.0, 0); BATCH];
    let mut len = 0;
    let mut unchanged_seen = false;
    for (i, atom) in pick.atoms().iter().enumerate() {
        let ty = region.attr_type(atom.attr);
        let cur = region.interval(atom.attr);
        for (j, piece) in atom.interval.complement(ty).iter().enumerate() {
            let narrowed = cur.intersect(piece);
            if narrowed.is_empty(ty) {
                continue;
            }
            let frac = if narrowed == *cur {
                if unchanged_seen {
                    continue;
                }
                unchanged_seen = true;
                1.0
            } else {
                surviving_fraction(&narrowed, cur)
            };
            let key = (frac, 2 * i + j);
            if after.is_some_and(|a| !precedes(a, key)) {
                continue;
            }
            // Insertion into the ordered batch; a full batch drops its
            // last, which the next batch enumerates again.
            let mut at = len;
            while at > 0 && precedes(key, keys[at - 1]) {
                at -= 1;
            }
            if at == BATCH {
                continue;
            }
            len = (len + 1).min(BATCH);
            keys.copy_within(at..len - 1, at + 1);
            batch.copy_within(at..len - 1, at + 1);
            keys[at] = key;
            batch[at] = key.1;
        }
    }
    (len, keys[len.saturating_sub(1)])
}

/// Every branch disjunct of the picked exclusion, in branch order: the
/// task list of a fan-out.
fn all_branches(region: &Region, pick: &Predicate) -> Vec<Narrowing> {
    let mut branches = Vec::new();
    let mut batch = [0; BATCH];
    let mut after = None;
    loop {
        let (n, last) = next_branches(region, pick, after, &mut batch);
        branches.extend(batch[..n].iter().map(|&slot| narrowing(region, pick, slot)));
        if n < BATCH {
            return branches;
        }
        after = Some(last);
    }
}

/// Whether the disjunct keyed `a` is tried before the one keyed `b`.
fn precedes(a: BranchKey, b: BranchKey) -> bool {
    a.0 > b.0 || (a.0 == b.0 && a.1 < b.1)
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

    fn int_box(x: [f64; 2], y: [f64; 2], v: [f64; 2]) -> Predicate {
        Predicate::always()
            .and(Atom::between(0, x[0], x[1]))
            .and(Atom::between(1, y[0], y[1]))
            .and(Atom::between(2, v[0], v[1]))
    }

    #[test]
    fn covering_strips_refute_before_the_small_boxes_listed_first() {
        // Under the estimate order the caller lists small boxes first and
        // wide strips last. Every box cuts the base on all three atoms,
        // every strip on its `y` atom alone, and the three strips cover
        // the base. Picking by atom count (a tie here, resolved to the
        // boxes) branches around every box first: 12, 24, 42, 57, 57, 137
        // and 283 levels with the first 1…7 boxes listed. Picking by
        // cutting atoms branches on the strips only.
        let s = Schema::new(vec![
            ("x", AttrType::Int),
            ("y", AttrType::Int),
            ("v", AttrType::Int),
        ]);
        let base = int_box([3.0, 8.0], [3.0, 9.0], [0.0, 20.0]).to_region(&s);
        let boxes = [
            int_box([3.0, 3.0], [3.0, 4.0], [1.0, 1.0]),
            int_box([3.0, 3.0], [4.0, 5.0], [18.0, 20.0]),
            int_box([3.0, 4.0], [3.0, 4.0], [18.0, 18.0]),
            int_box([3.0, 3.0], [6.0, 6.0], [1.0, 1.0]),
            int_box([3.0, 3.0], [3.0, 3.0], [1.0, 1.0]),
            int_box([3.0, 4.0], [6.0, 6.0], [1.0, 2.0]),
            int_box([3.0, 4.0], [4.0, 7.0], [3.0, 3.0]),
        ];
        let strips =
            [[0.0, 4.0], [4.0, 8.0], [8.0, 12.0]].map(|y| int_box([0.0, 12.0], y, [0.0, 20.0]));
        let negs: Vec<&Predicate> = boxes.iter().chain(&strips).collect();
        LEVELS.set(0);
        assert!(!is_sat(&base, &negs));
        let levels = LEVELS.get();
        assert!(levels <= 3, "refuted in {levels} levels");
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
