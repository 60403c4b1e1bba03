//! Cell-set specialization: decompose once, answer many queries.
//!
//! Cell decomposition is the engine's expensive step — exponential in the
//! worst case — yet its output depends only on the constraint set and the
//! region it was decomposed against, not on any particular query. This
//! module is the machinery that exploits that: a [`CellSet`] freezes one
//! decomposition (cells, their per-cell *relevant exclusions*, the
//! base-level closure verdict) so later queries can be answered by
//! **specializing** the cached cells instead of re-decomposing.
//!
//! Specialization of a cell `box ∧ ¬ψ₁ ∧ … ∧ ¬ψₖ` to a sub-region `Q`:
//!
//! * `box ∩ Q` empty → the cell cannot contribute; drop it on interval
//!   intersections alone.
//! * `box ⊆ Q` → the cell is untouched; share it (`Arc` region, witness
//!   and all).
//! * the cached witness lies inside `box ∩ Q` → satisfiability carries
//!   over for free.
//! * otherwise → one exact SAT re-check of the cell's conjunction inside
//!   `box ∩ Q`, against only the *relevant* exclusions (those whose box
//!   overlaps the cell box at all — the rest cannot capture any point of
//!   any sub-region of the cell).
//!
//! This is exact, not heuristic: `Q ⊆ base` means every activity pattern
//! satisfiable inside `Q` is satisfiable inside `base` (the same point
//! works), so the satisfiable patterns inside `Q` are precisely the
//! cached patterns whose conjunction stays satisfiable there — a
//! specialized [`CellSet`] yields the same bounds as a from-scratch
//! decomposition of `Q` (property-tested in `tests/prop_session.rs`).
//! The one deliberate exception is [`crate::Strategy::EarlyStop`]: cells
//! the base pass admitted unverified stay admitted in every overlapping
//! sub-region, so specialized bounds can be wider (never narrower) —
//! both remain sound, as early stopping only ever widens.
//!
//! [`crate::Session`] builds on this machinery: it specializes one
//! domain-wide [`CellSet`] to each query's region (a GROUP-BY key is one
//! such query, its region the key's slice), and, for the versioned
//! catalog, **delta-derives** each mutation's epoch from the previous one
//! (`derive_add` splits only the cells the new constraint's box cuts;
//! `derive_retire` merges/re-widens with zero SAT checks).

use crate::decompose::DecomposeStats;
use crate::{ActiveSet, Cell, PcSet, PredicateConstraint};
use pc_budget::QueryBudget;
use pc_predicate::sat::SatOutcome;
use pc_predicate::{sat, Predicate, Region};
use std::sync::Arc;

/// True if `pc`'s predicate box overlaps `region` in every atom's
/// dimension — the necessary condition for the exclusion to capture any
/// point of the region (atoms repeated on one attribute are checked
/// individually; a self-contradictory predicate passes the filter and is
/// then discarded inside the SAT solver, which folds them cumulatively).
pub(crate) fn overlaps_region(pc: &PredicateConstraint, region: &Region) -> bool {
    pc.predicate.atoms().iter().all(|a| {
        !region
            .interval(a.attr)
            .intersect(&a.interval)
            .is_empty(region.attr_type(a.attr))
    })
}

/// One frozen decomposition, ready to be specialized to sub-regions.
///
/// Holds the cells decomposed against `base`, the base-level closure
/// verdict (a sub-region of a closed region is closed, so one check
/// hoists over every query), and per-cell relevant-exclusion indices for
/// the SAT re-checks specialization needs.
#[derive(Debug)]
pub struct CellSet {
    base: Region,
    cells: Vec<Cell>,
    stats: DecomposeStats,
    /// A point of `base` covered by no predicate — the closure
    /// counterexample (`None` = closed, or closure checking disabled).
    uncovered: Option<Vec<f64>>,
    /// The closure probe was skipped because the building query's budget
    /// tripped: `uncovered: None` then means *unknown*, not closed.
    /// Only ever set on degraded, never-published cell sets.
    closure_skipped: bool,
    /// Per cell: indices (into the owning [`PcSet`]) of non-active
    /// constraints whose box overlaps the cell box at all.
    relevant_of: Vec<Vec<usize>>,
}

impl CellSet {
    /// Freeze a decomposition of `set` against `base`. `uncovered` is
    /// the base-level closure counterexample (`None` when the base is
    /// closed — or when closure checking is disabled, which downstream
    /// treats the same way).
    pub(crate) fn new(
        set: &PcSet,
        base: Region,
        cells: Vec<Cell>,
        stats: DecomposeStats,
        uncovered: Option<Vec<f64>>,
    ) -> Self {
        let relevant_of = cells
            .iter()
            .map(|cell| {
                set.constraints()
                    .iter()
                    .enumerate()
                    .filter(|(j, pc)| {
                        // An *undecided* constraint (frontier cell of a
                        // budget-tripped decomposition) is not an
                        // exclusion: the cell's rows may satisfy it.
                        !cell.active.contains(*j)
                            && !cell.undecided.contains(*j)
                            && overlaps_region(pc, &cell.region)
                    })
                    .map(|(j, _)| j)
                    .collect()
            })
            .collect();
        CellSet {
            base,
            cells,
            stats,
            uncovered,
            closure_skipped: false,
            relevant_of,
        }
    }

    /// Mark that the builder skipped the closure probe (budget trip):
    /// [`CellSet::closed`] must answer "not closed" even though no
    /// counterexample exists. Sound — an unknown verdict only widens.
    pub(crate) fn mark_closure_skipped(&mut self) {
        self.closure_skipped = true;
    }

    /// The region the cells were decomposed against.
    pub fn base(&self) -> &Region {
        &self.base
    }

    /// The decomposed cells.
    pub fn cells(&self) -> &[Cell] {
        &self.cells
    }

    /// Work counters of the one-time decomposition (for a delta-derived
    /// set: the derivation's own work only).
    pub fn stats(&self) -> DecomposeStats {
        self.stats
    }

    /// Whether the constraint set covers all of [`CellSet::base`].
    /// `false` when the building budget tripped before the closure probe
    /// could run — unknown is treated as open.
    pub fn closed(&self) -> bool {
        self.uncovered.is_none() && !self.closure_skipped
    }

    /// The cached point of [`CellSet::base`] no predicate covers, when
    /// the base is not closed. Any sub-region containing it is provably
    /// not closed without a SAT call.
    pub fn uncovered(&self) -> Option<&[f64]> {
        self.uncovered.as_deref()
    }

    /// Specialize the cached cells to `target` (⊆ base): the cells a
    /// decomposition of `target` would produce, at the cost of interval
    /// intersections plus a SAT re-check for only the cells `target`
    /// genuinely cuts. `stats.sat_checks` counts the re-checks.
    #[cfg(test)]
    pub(crate) fn specialize(
        &self,
        set: &PcSet,
        target: &Region,
        stats: &mut DecomposeStats,
        parallel: bool,
    ) -> Vec<Cell> {
        self.specialize_budgeted(set, target, stats, parallel, &QueryBudget::unlimited())
    }

    /// [`CellSet::specialize`] under a [`QueryBudget`]: the per-cell SAT
    /// re-checks charge the budget; once it trips, cut cells are admitted
    /// *unverified* (witness `None` — the early-stop contract: a cell
    /// that is actually unsatisfiable only widens the bounds) instead of
    /// paying for more checks. The caller reads the trip off the budget.
    pub(crate) fn specialize_budgeted(
        &self,
        set: &PcSet,
        target: &Region,
        stats: &mut DecomposeStats,
        parallel: bool,
        budget: &QueryBudget,
    ) -> Vec<Cell> {
        let mut out = Vec::with_capacity(self.cells.len());
        for (i, cell) in self.cells.iter().enumerate() {
            // Untouched cell: share the whole thing, witness included.
            if target.contains_region(&cell.region) {
                out.push(cell.clone());
                continue;
            }
            let narrowed = cell.region.intersected(target);
            if narrowed.is_empty() {
                continue;
            }
            let witness = match &cell.witness {
                Some(w) if narrowed.contains_row(w) => Some(w.clone()),
                Some(_) => {
                    // The box overlaps but the witness is elsewhere:
                    // re-verify the conjunction inside the narrowed box.
                    let negs: Vec<&Predicate> = self.relevant_of[i]
                        .iter()
                        .map(|&j| &set.constraints()[j].predicate)
                        .collect();
                    match sat::find_witness_budgeted(&narrowed, &negs, parallel, budget) {
                        SatOutcome::Sat(w) => {
                            stats.sat_checks += 1;
                            Some(w)
                        }
                        SatOutcome::Unsat => {
                            stats.sat_checks += 1;
                            continue;
                        }
                        // budget tripped: admit unverified, stay sound
                        SatOutcome::Tripped => {
                            stats.assumed_sat += 1;
                            None
                        }
                    }
                }
                // Early-stop cell admitted unverified in the base pass:
                // stays admitted (only ever widens bounds).
                None => None,
            };
            out.push(Cell {
                region: Arc::new(narrowed),
                active: cell.active.clone(),
                witness,
                undecided: cell.undecided.clone(),
            });
        }
        out
    }

    // ------------------------------------------------------------------
    // Incremental epoch derivation (the versioned session's delta path)
    // ------------------------------------------------------------------

    /// Derive the cell set of `new_set` — this set's constraints plus one
    /// more appended at index `new_set.len() - 1` — from the cached
    /// decomposition, re-splitting **only the cells the new constraint's
    /// box cuts**. PC decomposition is monotone in the constraint list:
    /// deciding the appended constraint last, every existing cell either misses
    /// its box entirely (the exclude branch is the cell itself, shared
    /// untouched, witness included) or splits into an include branch
    /// (region tightened by the new box, constraint added to the
    /// activity) and an exclude branch (region unchanged) — exactly one
    /// level of the include/exclude DFS, with the cached witness settling
    /// one branch for free and at most one exact SAT check deciding the
    /// other. The one signature no existing cell can produce — the
    /// new-constraint-only cell, where every *old* constraint is excluded
    /// — is checked separately inside the new box (the cached closure
    /// counterexample proves it satisfiable for free when the new
    /// predicate covers it).
    ///
    /// `uncovered` is the new epoch's closure counterexample, computed by
    /// the caller (coverage grows on add: a closed base stays closed, and
    /// a counterexample avoiding the new predicate carries over — only a
    /// counterexample the new constraint swallows forces a re-check).
    /// `base_known_closed` is the caller's verified closure verdict for
    /// the base: when true, the new-constraint-only cell is provably
    /// empty (every base point satisfies some old predicate) and its
    /// probe — the derivation's one potentially wide SAT check — is
    /// skipped outright.
    ///
    /// Cells the base pass admitted unverified ([`crate::Strategy::EarlyStop`])
    /// stay admitted on both surviving branches, preserving the
    /// early-stop contract (bounds may widen, never narrow unsoundly).
    /// Stats count only the derivation's own work;
    /// [`DecomposeStats::incremental_splits`] is the number of cut cells.
    #[cfg(test)]
    pub(crate) fn derive_add(
        &self,
        new_set: &PcSet,
        parallel: bool,
        uncovered: Option<Vec<f64>>,
        base_known_closed: bool,
    ) -> CellSet {
        self.derive_add_budgeted(
            new_set,
            parallel,
            uncovered,
            base_known_closed,
            &QueryBudget::unlimited(),
        )
    }

    /// [`CellSet::derive_add`] under a [`QueryBudget`]: each branch-check
    /// charges the budget; after a trip the remaining cut branches are
    /// admitted *unverified* (the early-stop contract — an unsatisfiable
    /// branch only ever widens bounds), so the derivation still finishes
    /// within one cell's granule. The caller decides what to do with a
    /// degraded derivation — [`crate::Session`] discards it rather than
    /// publishing it as the epoch's cells.
    pub(crate) fn derive_add_budgeted(
        &self,
        new_set: &PcSet,
        parallel: bool,
        uncovered: Option<Vec<f64>>,
        base_known_closed: bool,
        budget: &QueryBudget,
    ) -> CellSet {
        let n = new_set.len() - 1;
        let pc = &new_set.constraints()[n];
        let mut stats = DecomposeStats::default();
        let mut cells = Vec::with_capacity(self.cells.len() + 1);
        for (i, cell) in self.cells.iter().enumerate() {
            if !overlaps_region(pc, &cell.region) {
                // the new box misses the cell: no point of it can satisfy
                // the new predicate — the cell is its own exclude branch
                cells.push(cell.clone());
                continue;
            }
            stats.incremental_splits += 1;
            let inc_region = match cell.region.tightened_by(pc.predicate.atoms()) {
                Some(t) => Arc::new(t),
                None => Arc::clone(&cell.region),
            };
            match &cell.witness {
                // early-stop cell: geometric pruning only, both surviving
                // branches stay admitted unverified
                None => {
                    stats.assumed_sat += 2;
                    if !inc_region.is_empty() {
                        let mut active = cell.active.clone();
                        active.insert(n);
                        cells.push(Cell {
                            region: inc_region,
                            active,
                            witness: None,
                            undecided: cell.undecided.clone(),
                        });
                    }
                    cells.push(cell.clone());
                }
                Some(w) => {
                    // the cached witness proves one branch for free; the
                    // other pays at most one exact check against the
                    // cell's relevant exclusions. `None` = branch dropped,
                    // `Some(None)` = branch admitted unverified (trip).
                    let negs: Vec<&Predicate> = self.relevant_of[i]
                        .iter()
                        .map(|&j| &new_set.constraints()[j].predicate)
                        .collect();
                    let inc_witness: Option<Option<Vec<f64>>> = if inc_region.is_empty() {
                        None
                    } else if inc_region.contains_row(w) {
                        Some(Some(w.clone()))
                    } else {
                        match sat::find_witness_budgeted(&inc_region, &negs, parallel, budget) {
                            SatOutcome::Sat(iw) => {
                                stats.sat_checks += 1;
                                Some(Some(iw))
                            }
                            SatOutcome::Unsat => {
                                stats.sat_checks += 1;
                                None
                            }
                            SatOutcome::Tripped => {
                                stats.assumed_sat += 1;
                                Some(None)
                            }
                        }
                    };
                    let exc_witness: Option<Option<Vec<f64>>> = if !pc.predicate.eval(w) {
                        Some(Some(w.clone()))
                    } else {
                        let mut probe = negs.clone();
                        probe.push(&pc.predicate);
                        match sat::find_witness_budgeted(&cell.region, &probe, parallel, budget) {
                            SatOutcome::Sat(ew) => {
                                stats.sat_checks += 1;
                                Some(Some(ew))
                            }
                            SatOutcome::Unsat => {
                                stats.sat_checks += 1;
                                None
                            }
                            SatOutcome::Tripped => {
                                stats.assumed_sat += 1;
                                Some(None)
                            }
                        }
                    };
                    if let Some(iw) = inc_witness {
                        let mut active = cell.active.clone();
                        active.insert(n);
                        cells.push(Cell {
                            region: inc_region,
                            active,
                            witness: iw,
                            undecided: cell.undecided.clone(),
                        });
                    }
                    if let Some(ew) = exc_witness {
                        cells.push(Cell {
                            region: Arc::clone(&cell.region),
                            active: cell.active.clone(),
                            witness: ew,
                            undecided: cell.undecided.clone(),
                        });
                    }
                }
            }
        }
        // The new-constraint-only cell: ψ_new ∧ ¬(every old constraint),
        // inside the new box — the one signature the old decomposition
        // could not have emitted. A verified-closed base cannot hold it
        // (its points are exactly the base's uncovered points), so the
        // probe is skipped entirely there.
        let mut only = self.base.clone();
        for atom in pc.predicate.atoms() {
            only.intersect_atom(atom);
        }
        if !base_known_closed && !only.is_empty() {
            let relevant: Vec<&Predicate> = new_set.constraints()[..n]
                .iter()
                .filter(|old| overlaps_region(old, &only))
                .map(|old| &old.predicate)
                .collect();
            let witness: Option<Option<Vec<f64>>> = match &self.uncovered {
                // the cached closure counterexample satisfies no old
                // predicate; if the new box contains it, it *is* the cell
                Some(w) if only.contains_row(w) => Some(Some(w.clone())),
                _ => match sat::find_witness_budgeted(&only, &relevant, parallel, budget) {
                    SatOutcome::Sat(w) => {
                        stats.sat_checks += 1;
                        Some(Some(w))
                    }
                    SatOutcome::Unsat => {
                        stats.sat_checks += 1;
                        None
                    }
                    SatOutcome::Tripped => {
                        stats.assumed_sat += 1;
                        Some(None)
                    }
                },
            };
            if let Some(w) = witness {
                cells.push(Cell {
                    region: Arc::new(only),
                    active: [n].into_iter().collect(),
                    witness: w,
                    undecided: ActiveSet::new(),
                });
            }
        }
        stats.cells = cells.len();
        CellSet::new(new_set, self.base.clone(), cells, stats, uncovered)
    }

    /// Derive the cell set of `new_set` — this set's constraints with the
    /// one at `removed` taken out — from the cached decomposition, with
    /// **zero SAT checks**:
    ///
    /// * a cell *excluding* the retired constraint is unchanged (its
    ///   region was never tightened by the retired box, and its witness
    ///   still satisfies exactly its activity) — only the signature
    ///   indices shift down;
    /// * a cell *including* it folds into its exclude-sibling when that
    ///   sibling exists (the sibling already covers the merged signature
    ///   with the right region and witness), and otherwise survives with
    ///   its region **re-widened** to the base tightened by the remaining
    ///   active boxes — the exact region a fresh decomposition of the
    ///   reduced set would give it (keeping the retired tightening would
    ///   understate the value ranges rows in the cell can take). Its
    ///   witness carries: the point satisfies exactly the remaining
    ///   activity, and the retired predicate no longer matters.
    ///
    /// `uncovered` is the caller's closure counterexample for the shrunken
    /// set (an uncovered point stays uncovered when coverage shrinks; a
    /// previously closed base only needs re-checking *inside the retired
    /// box*, the only place a hole can open).
    pub(crate) fn derive_retire(
        &self,
        new_set: &PcSet,
        removed: usize,
        uncovered: Option<Vec<f64>>,
    ) -> CellSet {
        let remap = |active: &ActiveSet| -> ActiveSet {
            active
                .iter()
                .filter(|&i| i != removed)
                .map(|i| if i > removed { i - 1 } else { i })
                .collect()
        };
        // signatures that survive verbatim: cells not holding the retired
        // constraint (a retired sibling folds into one of these)
        let kept: std::collections::HashSet<&ActiveSet> = self
            .cells
            .iter()
            .filter(|c| !c.active.contains(removed))
            .map(|c| &c.active)
            .collect();
        let mut stats = DecomposeStats::default();
        let mut cells = Vec::with_capacity(self.cells.len());
        for cell in &self.cells {
            if !cell.active.contains(removed) {
                cells.push(Cell {
                    region: Arc::clone(&cell.region),
                    active: remap(&cell.active),
                    witness: cell.witness.clone(),
                    undecided: remap(&cell.undecided),
                });
                continue;
            }
            stats.incremental_splits += 1;
            let reduced: ActiveSet = cell.active.iter().filter(|&i| i != removed).collect();
            if reduced.is_empty() || kept.contains(&reduced) {
                // all-excluded is the closure check's region, not a cell;
                // otherwise the exclude-sibling already is the merged cell
                continue;
            }
            // widen: the fresh region of the merged signature is the base
            // tightened by the *remaining* active boxes only
            let active = remap(&reduced);
            let mut region = self.base.clone();
            for i in active.iter() {
                for atom in new_set.constraints()[i].predicate.atoms() {
                    region.intersect_atom(atom);
                }
            }
            cells.push(Cell {
                region: Arc::new(region),
                active,
                witness: cell.witness.clone(),
                undecided: remap(&cell.undecided),
            });
        }
        stats.cells = cells.len();
        CellSet::new(new_set, self.base.clone(), cells, stats, uncovered)
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::{decompose, BoundEngine, FrequencyConstraint, Strategy, ValueConstraint};
    use pc_predicate::{Atom, AttrType, Interval, Schema};
    use pc_storage::{AggKind, AggQuery};

    fn schema() -> Schema {
        Schema::new(vec![("x", AttrType::Int), ("v", AttrType::Float)])
    }

    fn pc_box(xlo: f64, xhi: f64, vhi: f64) -> PredicateConstraint {
        PredicateConstraint::new(
            Predicate::atom(Atom::bucket(0, xlo, xhi)),
            ValueConstraint::none().with(1, Interval::closed(0.0, vhi)),
            FrequencyConstraint::at_most(10),
        )
    }

    fn overlapping_set() -> PcSet {
        let mut set = PcSet::new(schema())
            .with(pc_box(0.0, 10.0, 50.0))
            .with(pc_box(5.0, 15.0, 60.0))
            .with(pc_box(8.0, 20.0, 70.0));
        let mut domain = Region::full(set.schema());
        domain.set_interval(0, Interval::half_open(0.0, 20.0));
        set.set_domain(domain);
        set
    }

    fn cell_set(set: &PcSet) -> CellSet {
        let base = set.domain().clone();
        let (cells, stats) = decompose(set, &base, Strategy::DfsRewrite).unwrap();
        let uncovered = set.uncovered_witness_with(&base, false);
        CellSet::new(set, base, cells, stats, uncovered)
    }

    #[test]
    fn specializing_to_base_is_identity() {
        let set = overlapping_set();
        let cs = cell_set(&set);
        let mut stats = cs.stats();
        let cells = cs.specialize(&set, cs.base(), &mut stats, false);
        assert_eq!(cells.len(), cs.cells().len());
        // no SAT re-checks: every cell is contained in the target
        assert_eq!(stats.sat_checks, cs.stats().sat_checks);
        for (a, b) in cells.iter().zip(cs.cells()) {
            assert_eq!(a.active, b.active);
            assert_eq!(a.witness, b.witness);
        }
    }

    #[test]
    fn specialized_cells_match_fresh_decomposition() {
        let set = overlapping_set();
        let cs = cell_set(&set);
        for (lo, hi) in [(0.0, 6.0), (4.0, 12.0), (9.0, 20.0), (12.0, 20.0)] {
            let mut target = set.domain().clone();
            target.set_interval(
                0,
                target.interval(0).intersect(&Interval::half_open(lo, hi)),
            );
            let mut stats = cs.stats();
            let specialized = cs.specialize(&set, &target, &mut stats, false);
            let (fresh, _) = decompose(&set, &target, Strategy::DfsRewrite).unwrap();
            let mut a: Vec<Vec<usize>> = specialized.iter().map(|c| c.active.to_vec()).collect();
            let mut b: Vec<Vec<usize>> = fresh.iter().map(|c| c.active.to_vec()).collect();
            a.sort();
            b.sort();
            assert_eq!(a, b, "target [{lo}, {hi})");
            for cell in &specialized {
                let w = cell.witness.as_ref().expect("exact mode carries witnesses");
                assert!(cell.region.contains_row(w));
                for (j, pc) in set.constraints().iter().enumerate() {
                    assert_eq!(
                        pc.predicate.eval(w),
                        cell.is_active(j),
                        "target [{lo}, {hi})"
                    );
                }
            }
        }
    }

    #[test]
    fn disjoint_target_drops_everything() {
        let set = overlapping_set();
        let cs = cell_set(&set);
        let mut target = set.domain().clone();
        target.set_interval(0, Interval::half_open(100.0, 120.0));
        let mut stats = cs.stats();
        assert!(cs.specialize(&set, &target, &mut stats, false).is_empty());
    }

    /// Sorted (signature, region) pairs for structural comparison.
    fn shape(cells: &[Cell]) -> Vec<(Vec<usize>, pc_predicate::Region)> {
        let mut out: Vec<_> = cells
            .iter()
            .map(|c| (c.active.to_vec(), (*c.region).clone()))
            .collect();
        out.sort_by(|a, b| a.0.cmp(&b.0));
        out
    }

    fn assert_genuine_witnesses(cells: &[Cell], set: &PcSet) {
        for cell in cells {
            let w = cell.witness.as_ref().expect("exact mode carries witnesses");
            assert!(cell.region.contains_row(w));
            for (j, pc) in set.constraints().iter().enumerate() {
                assert_eq!(pc.predicate.eval(w), cell.is_active(j), "{cell:?}");
            }
        }
    }

    #[test]
    fn derive_add_matches_fresh_decomposition() {
        let set = overlapping_set();
        let cs = cell_set(&set);
        // an overlapping cap, a cap contained in existing boxes, and a
        // cap reaching uncovered-by-existing-cells space
        for extra in [
            pc_box(3.0, 12.0, 65.0),
            pc_box(6.0, 9.0, 45.0),
            pc_box(12.0, 20.0, 90.0),
        ] {
            let mut bigger = set.clone();
            bigger.push(extra);
            let uncovered = bigger.uncovered_witness_with(bigger.domain(), false);
            let derived = cs.derive_add(&bigger, false, uncovered, cs.uncovered().is_none());
            let (fresh, fresh_stats) =
                decompose(&bigger, bigger.domain(), Strategy::DfsRewrite).unwrap();
            assert_eq!(shape(derived.cells()), shape(&fresh));
            assert_genuine_witnesses(derived.cells(), &bigger);
            assert!(
                derived.stats().sat_checks < fresh_stats.sat_checks,
                "incremental {} checks vs fresh {}",
                derived.stats().sat_checks,
                fresh_stats.sat_checks
            );
            assert!(derived.stats().incremental_splits > 0);
        }
    }

    #[test]
    fn derive_add_disjoint_box_shares_everything() {
        let set = overlapping_set();
        let cs = cell_set(&set);
        let mut bigger = set.clone();
        // box outside the domain: no cell is cut, no new-only cell exists
        bigger.push(pc_box(25.0, 30.0, 10.0));
        let derived = cs.derive_add(&bigger, false, None, cs.uncovered().is_none());
        assert_eq!(derived.stats().sat_checks, 0);
        assert_eq!(derived.stats().incremental_splits, 0);
        assert_eq!(derived.cells().len(), cs.cells().len());
    }

    #[test]
    fn derive_add_emits_the_new_only_cell_on_open_bases() {
        // base not closed (x ∈ [20, 25) uncovered): an added constraint
        // reaching the hole must produce the new-constraint-only cell —
        // with the cached counterexample as a free witness when it lies
        // in the new box
        let mut set = overlapping_set();
        let mut domain = set.domain().clone();
        domain.set_interval(0, Interval::half_open(0.0, 25.0));
        set.set_domain(domain);
        let cs = cell_set(&set);
        assert!(cs.uncovered().is_some(), "base must be open");
        let mut bigger = set.clone();
        bigger.push(pc_box(18.0, 24.0, 55.0));
        let uncovered = bigger.uncovered_witness_with(bigger.domain(), false);
        let derived = cs.derive_add(&bigger, false, uncovered, false);
        let (fresh, _) = decompose(&bigger, bigger.domain(), Strategy::DfsRewrite).unwrap();
        assert_eq!(shape(derived.cells()), shape(&fresh));
        assert_genuine_witnesses(derived.cells(), &bigger);
        let n = bigger.len() - 1;
        assert!(
            derived.cells().iter().any(|c| c.active.to_vec() == vec![n]),
            "the new-only signature must appear"
        );
    }

    #[test]
    fn derive_retire_matches_fresh_without_sat() {
        let set = overlapping_set();
        let cs = cell_set(&set);
        for removed in 0..set.len() {
            let mut smaller = set.clone();
            smaller.remove_constraint(removed);
            let uncovered = smaller.uncovered_witness_with(smaller.domain(), false);
            let derived = cs.derive_retire(&smaller, removed, uncovered);
            assert_eq!(derived.stats().sat_checks, 0, "retire is SAT-free");
            let (fresh, _) = decompose(&smaller, smaller.domain(), Strategy::DfsRewrite).unwrap();
            assert_eq!(shape(derived.cells()), shape(&fresh), "removed {removed}");
            assert_genuine_witnesses(derived.cells(), &smaller);
        }
    }

    #[test]
    fn derive_chain_survives_add_then_retire() {
        // derive twice in a row (the epoch chain): add then retire the
        // same constraint must land back on the original decomposition
        let set = overlapping_set();
        let cs = cell_set(&set);
        let mut bigger = set.clone();
        bigger.push(pc_box(3.0, 12.0, 65.0));
        let added = cs.derive_add(
            &bigger,
            false,
            bigger.uncovered_witness_with(bigger.domain(), false),
            cs.uncovered().is_none(),
        );
        let back = added.derive_retire(
            &set,
            set.len(),
            set.uncovered_witness_with(set.domain(), false),
        );
        assert_eq!(shape(back.cells()), shape(cs.cells()));
        assert_genuine_witnesses(back.cells(), &set);
    }

    #[test]
    fn session_style_bound_via_specialize_matches_engine() {
        let set = overlapping_set();
        let cs = cell_set(&set);
        let engine = BoundEngine::new(&set);
        for (lo, hi) in [(0.0, 20.0), (3.0, 11.0), (10.0, 20.0)] {
            let query = AggQuery::new(AggKind::Sum, 1, Predicate::atom(Atom::bucket(0, lo, hi)));
            let fresh = engine.bound(&query).unwrap();
            let mut target = query.predicate.to_region(set.schema());
            target.intersect(set.domain());
            let mut stats = cs.stats();
            let cells = cs.specialize(&set, &target, &mut stats, false);
            stats.cells = cells.len();
            let closed = cs.closed() || set.is_closed_within(&target);
            let problem = engine
                .problem_from_cells_budgeted(
                    query.attr,
                    &target,
                    cells,
                    stats,
                    closed,
                    None,
                    &QueryBudget::unlimited(),
                )
                .unwrap();
            let specialized = engine.bound_problem(query.agg, &problem).unwrap();
            assert_eq!(fresh.range, specialized.range, "query [{lo}, {hi})");
            assert_eq!(fresh.closed, specialized.closed);
        }
    }
}
