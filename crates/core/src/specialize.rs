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
//! Three consumers build on the same machinery:
//!
//! * [`crate::Session`] specializes one domain-wide [`CellSet`] to each
//!   query's region (tentpole of the serve path) — and, for the
//!   versioned catalog, **delta-derives** each mutation's epoch from the
//!   previous one (`derive_add` splits only the cells the new
//!   constraint's box cuts; `derive_retire` merges/re-widens with zero
//!   SAT checks — the same monotonicity argument as the splice below);
//! * the two-level GROUP-BY ([`crate::BoundEngine::bound_group_by`])
//!   specializes a *shared-constraint* decomposition to each group's
//!   slice through [`SliceSpecializer`] — slices of the form
//!   `group = key` admit a memo (two keys cut by the same exclusion
//!   subset have isomorphic cross-sections) — and then **splices** each
//!   key's group-local constraints into its slice with [`splice_locals`],
//!   a mini include/exclude DFS over the handful of constraints pinned to
//!   that key.

use crate::decompose::DecomposeStats;
use crate::{ActiveSet, Cell, PcSet, PredicateConstraint};
use pc_budget::QueryBudget;
use pc_predicate::sat::SatOutcome;
use pc_predicate::{sat, Interval, Predicate, Region};
use std::collections::HashMap;
use std::sync::{Arc, Mutex};

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
    /// box cuts**. PC decomposition is monotone in the constraint list
    /// (the same argument behind the GROUP-BY two-level splice): deciding
    /// the appended constraint last, every existing cell either misses
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

    /// [`CellSet::derive_retire`] generalized to retiring every
    /// constraint *not* in `kept` at once, still with **zero SAT checks**.
    /// `kept` is the sorted (ascending, this set's indices) list of
    /// surviving constraints and `new_set` the sub-set holding exactly
    /// those, in order — the cells come back in `new_set`'s (sub-)indices.
    ///
    /// The cell-merge argument is the single-retire one applied to the
    /// whole batch: a cell whose activity already lies inside `kept`
    /// survives verbatim; a cell holding retired constraints folds into
    /// the surviving cell of its reduced signature when one exists, and
    /// otherwise the *first* such cell survives with its region re-widened
    /// to the base tightened by the remaining active boxes (later cells of
    /// the same reduced signature fold into it). This is how the GROUP-BY
    /// level-1 cells derive from a session epoch's domain-wide cache: the
    /// key-local constraints retire in one pass instead of the shared
    /// subset re-decomposing per call.
    pub(crate) fn derive_retire_subset(
        &self,
        new_set: &PcSet,
        kept: &[usize],
        uncovered: Option<Vec<f64>>,
    ) -> CellSet {
        let pos: HashMap<usize, usize> = kept.iter().enumerate().map(|(s, &g)| (g, s)).collect();
        let remap = |active: &ActiveSet| -> ActiveSet {
            active.iter().filter_map(|i| pos.get(&i).copied()).collect()
        };
        // reduced signatures that survive verbatim (no retired member)
        let survivors: std::collections::HashSet<ActiveSet> = self
            .cells
            .iter()
            .filter(|c| c.active.iter().all(|i| pos.contains_key(&i)))
            .map(|c| remap(&c.active))
            .collect();
        let mut emitted = std::collections::HashSet::new();
        let mut stats = DecomposeStats::default();
        let mut cells = Vec::with_capacity(self.cells.len());
        for cell in &self.cells {
            let untouched = cell.active.iter().all(|i| pos.contains_key(&i));
            let active = remap(&cell.active);
            if untouched {
                cells.push(Cell {
                    region: Arc::clone(&cell.region),
                    active,
                    witness: cell.witness.clone(),
                    undecided: remap(&cell.undecided),
                });
                continue;
            }
            stats.incremental_splits += 1;
            if active.is_empty() || survivors.contains(&active) || !emitted.insert(active.clone()) {
                // all-excluded is not a cell; otherwise the surviving
                // sibling (or the first merged cell) already covers it
                continue;
            }
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

/// Memo of slice cross-section verdicts: (cell index, group-active
/// exclusion mask) → witness template (`None` = that cross-section is
/// unsatisfiable). A verdict computed for one key transfers to every key
/// cut by the same exclusion subset, with the witness's group coordinate
/// remapped. The virtual ∅-cell of the two-level GROUP-BY memoizes under
/// cell index `usize::MAX`.
type SliceMemo = HashMap<(usize, u64), Option<Vec<f64>>>;

/// Cell index the virtual empty-shared cell memoizes under.
pub(crate) const VIRTUAL_CELL: usize = usize::MAX;

/// Structural signature of one key's local-constraint list: per local,
/// the sorted non-group atoms as `(attr, lo bits, lo_open, hi bits,
/// hi_open)`. Atoms on the group attribute are dropped — inside a
/// `group = key` point slice every atom of a constraint pinned to that
/// key is a no-op on the group coordinate — so two keys whose local caps
/// are "the same boxes modulo the group coordinate" (the common shape of
/// generated per-key assumptions) get equal signatures. `Arc`-shared:
/// the signature is computed once per key and cloned into memo keys.
pub(crate) type LocalsSig = Arc<Vec<Vec<(usize, u64, bool, u64, bool)>>>;

/// One leaf of a completed local-constraint splice in
/// structure-transferable form: which locals the leaf includes, plus its
/// witness template (`None` = unverified early-stop leaf). On replay the
/// include set reconstructs the leaf's region and activity against the
/// new key's own locals, and the witness's group coordinate is remapped.
struct SpliceLeaf {
    include_mask: u64,
    witness: Option<Vec<f64>>,
}

/// Memo of whole splice outcomes: (cell index, group-active exclusion
/// mask, locals signature) → the leaf list `splice_locals` emitted. A hit
/// replays the entire include/exclude DFS of that cell for a
/// structurally identical key with zero SAT calls (the ROADMAP's
/// cross-key splice memoization).
type SpliceMemo = HashMap<(usize, u64, LocalsSig), Arc<Vec<SpliceLeaf>>>;

/// Per-GROUP-BY specializer for `group = key` slices: the cached
/// decomposition's cells plus the per-cell relevant exclusions *with
/// their group-attribute intervals*, so each slice only re-checks against
/// exclusions actually active at its key, and verdicts are memoized
/// across keys on the group-active exclusion mask.
pub(crate) struct SliceSpecializer<'a> {
    cells: &'a [Cell],
    group_attr: usize,
    /// Whether the parallel witness search may engage in re-checks.
    parallel: bool,
    /// Per cell: relevant exclusions as (group-attr interval, predicate).
    relevant_of: Vec<Vec<(Interval, &'a Predicate)>>,
    /// Whether the cell's relevant exclusions fit the 64-bit memo mask.
    memoable: Vec<bool>,
    /// Every shared constraint as (group-attr interval, predicate) — the
    /// exclusion list of the virtual ∅-cell.
    all_shared: Vec<(Interval, &'a Predicate)>,
    memo: Mutex<SliceMemo>,
    /// Cross-key splice-outcome memo (see [`SpliceMemo`]).
    splice_memo: Mutex<SpliceMemo>,
}

impl<'a> SliceSpecializer<'a> {
    /// Build the per-cell relevant-exclusion tables for `cells`, a
    /// decomposition of the `shared_ids` subset of `set`'s constraints
    /// (active sets already remapped to global indices).
    pub(crate) fn new(
        set: &'a PcSet,
        shared_ids: &[usize],
        cells: &'a [Cell],
        group_attr: usize,
        parallel: bool,
    ) -> Self {
        let constraints = set.constraints();
        // Each predicate's group-attribute interval depends only on the
        // predicate: fold once per constraint, not once per (cell ×
        // constraint).
        let all_shared: Vec<(Interval, &Predicate)> = shared_ids
            .iter()
            .map(|&j| {
                let pred = &constraints[j].predicate;
                (pred.interval_for(group_attr), pred)
            })
            .collect();
        let mut relevant_of = Vec::with_capacity(cells.len());
        let mut memoable = Vec::with_capacity(cells.len());
        for cell in cells {
            let relevant: Vec<(Interval, &Predicate)> = shared_ids
                .iter()
                .zip(&all_shared)
                .filter(|(&j, _)| !cell.active.contains(j))
                .filter(|(&j, _)| overlaps_region(&constraints[j], &cell.region))
                .map(|(_, entry)| *entry)
                .collect();
            memoable.push(relevant.len() <= 64);
            relevant_of.push(relevant);
        }
        SliceSpecializer {
            cells,
            group_attr,
            parallel,
            relevant_of,
            memoable,
            all_shared,
            memo: Mutex::new(HashMap::new()),
            splice_memo: Mutex::new(HashMap::new()),
        }
    }

    /// Compute one key's locals signature (shared by every cell of that
    /// key's slice), or `None` when the list exceeds the 64-bit replay
    /// mask. See [`LocalsSig`] for why group-attribute atoms are dropped.
    pub(crate) fn locals_signature(
        locals: &[(usize, &PredicateConstraint)],
        group_attr: usize,
    ) -> Option<LocalsSig> {
        if locals.len() > 64 {
            return None;
        }
        let sig = locals
            .iter()
            .map(|(_, pc)| {
                let mut atoms: Vec<(usize, u64, bool, u64, bool)> = pc
                    .predicate
                    .atoms()
                    .iter()
                    .filter(|a| a.attr != group_attr)
                    .map(|a| {
                        (
                            a.attr,
                            a.interval.lo.to_bits(),
                            a.interval.lo_open,
                            a.interval.hi.to_bits(),
                            a.interval.hi_open,
                        )
                    })
                    .collect();
                atoms.sort_unstable();
                atoms
            })
            .collect();
        Some(Arc::new(sig))
    }

    /// The group-active exclusion mask of cell `src` (or the virtual
    /// ∅-cell) at `key`, when its relevant exclusions fit the 64-bit
    /// memo mask.
    fn mask_for(&self, src: usize, key: f64) -> Option<u64> {
        let (relevant, memoable) = if src == VIRTUAL_CELL {
            (&self.all_shared, self.all_shared.len() <= 64)
        } else {
            (&self.relevant_of[src], self.memoable[src])
        };
        memoable.then(|| {
            let mut mask = 0u64;
            for (bit, (g_iv, _)) in relevant.iter().enumerate() {
                if g_iv.contains(key) {
                    mask |= 1 << bit;
                }
            }
            mask
        })
    }

    /// Replay a memoized splice of cell `src` (or [`VIRTUAL_CELL`]) for
    /// `key`, pushing the reconstructed leaves into `out`. Returns `true`
    /// on a memo hit — the caller then skips `splice_locals` entirely
    /// (zero SAT calls; `stats.splice_memo_hits` counts it). Soundness of
    /// the transfer: two keys with the same source cell, the same
    /// group-active exclusion mask, and structurally identical locals
    /// have isomorphic slices (only the group coordinate differs), the
    /// DFS leaf set is witness-order-independent (a leaf is emitted iff
    /// its conjunction is satisfiable, and the SAT search is exact), and
    /// a leaf witness transfers because every predicate it must satisfy
    /// or violate does so in a non-group dimension — identical across the
    /// two keys — while its remapped group coordinate satisfies the point
    /// slice and every key-pinned atom by construction.
    #[allow(clippy::too_many_arguments)]
    pub(crate) fn replay_splice(
        &self,
        src: usize,
        key: f64,
        sig: Option<&LocalsSig>,
        base_region: &Arc<Region>,
        base_active: &ActiveSet,
        locals: &[(usize, &PredicateConstraint)],
        out: &mut Vec<Cell>,
        stats: &mut DecomposeStats,
    ) -> bool {
        let (Some(sig), Some(mask)) = (sig, self.mask_for(src, key)) else {
            return false;
        };
        let memo_key = (src, mask, Arc::clone(sig));
        let leaves = match self.splice_memo.lock().unwrap().get(&memo_key) {
            Some(leaves) => Arc::clone(leaves),
            None => return false,
        };
        // Frontier (budget-degraded) source cells keep their undecided
        // set on every replayed leaf — the transfer argument is identical
        // (undecidedness is a property of the shared prefix, not the key).
        let src_undecided = if src == VIRTUAL_CELL {
            ActiveSet::new()
        } else {
            self.cells[src].undecided.clone()
        };
        for leaf in leaves.iter() {
            let mut region = Arc::clone(base_region);
            let mut active = base_active.clone();
            for (p, (gid, pc)) in locals.iter().enumerate() {
                if leaf.include_mask & (1 << p) != 0 {
                    if let Some(tightened) = region.tightened_by(pc.predicate.atoms()) {
                        region = Arc::new(tightened);
                    }
                    active.insert(*gid);
                }
            }
            // Isomorphism keeps replayed regions non-empty; the guard is
            // pure insurance (dropping a leaf only widens nothing — an
            // empty region holds no rows).
            debug_assert!(!region.is_empty(), "replayed splice leaf went empty");
            if region.is_empty() {
                continue;
            }
            let witness = leaf.witness.as_ref().map(|w| {
                let mut w = w.clone();
                w[self.group_attr] = key;
                w
            });
            out.push(Cell {
                region,
                active,
                witness,
                undecided: src_undecided.clone(),
            });
        }
        stats.splice_memo_hits += 1;
        true
    }

    /// Record a completed splice of cell `src` at `key` (the `produced`
    /// slice of the output vector) so structurally identical keys can
    /// replay it.
    pub(crate) fn record_splice(
        &self,
        src: usize,
        key: f64,
        sig: Option<&LocalsSig>,
        locals: &[(usize, &PredicateConstraint)],
        produced: &[Cell],
    ) {
        let (Some(sig), Some(mask)) = (sig, self.mask_for(src, key)) else {
            return;
        };
        let leaves: Vec<SpliceLeaf> = produced
            .iter()
            .map(|cell| {
                let mut include_mask = 0u64;
                for (p, (gid, _)) in locals.iter().enumerate() {
                    if cell.active.contains(*gid) {
                        include_mask |= 1 << p;
                    }
                }
                SpliceLeaf {
                    include_mask,
                    witness: cell.witness.clone(),
                }
            })
            .collect();
        // Two group tasks racing on the same uncached key both pay the
        // splice (last insert wins, leaf sets are equal) — concurrency
        // can only add work, never lose a leaf.
        self.splice_memo
            .lock()
            .unwrap()
            .insert((src, mask, Arc::clone(sig)), Arc::new(leaves));
    }

    /// Specialize every cached cell to the `group = key` slice of
    /// `base_region`, returning `(source cell index, specialized cell)`
    /// pairs — the index lets the caller fetch the matching exclusion
    /// list for local-constraint splicing.
    pub(crate) fn specialize_slice(
        &self,
        key: f64,
        base_region: &Region,
        stats: &mut DecomposeStats,
    ) -> Vec<(usize, Cell)> {
        let key_iv = Interval::point(key);
        let ty = base_region.attr_type(self.group_attr);
        let mut out = Vec::with_capacity(self.cells.len());
        for (i, cell) in self.cells.iter().enumerate() {
            let cur = cell.region.interval(self.group_attr);
            let narrowed = cur.intersect(&key_iv);
            if narrowed.is_empty(ty) {
                // the cell's box misses this group entirely
                continue;
            }
            let region = if narrowed == *cur {
                Arc::clone(&cell.region)
            } else {
                let mut r = (*cell.region).clone();
                r.set_interval(self.group_attr, narrowed);
                Arc::new(r)
            };
            let witness = match &cell.witness {
                // the shared witness already lives in this group's slice
                Some(w) if region.contains_row(w) => Some(w.clone()),
                // box overlaps but the witness is elsewhere: re-verify,
                // memoized on the group-active exclusion mask
                Some(_) => {
                    match self.memoized_witness(i, &self.relevant_of[i], key, &region, stats) {
                        Some(w) => Some(w),
                        None => continue,
                    }
                }
                // early-stop cell: stays admitted unverified
                None => None,
            };
            out.push((
                i,
                Cell {
                    region,
                    active: cell.active.clone(),
                    witness,
                    undecided: cell.undecided.clone(),
                },
            ));
        }
        out
    }

    /// The exclusions that can capture points of cell `src`'s slice at
    /// `key`: relevant exclusions whose group interval contains the key.
    pub(crate) fn group_active_negs(&self, src: usize, key: f64) -> Vec<&'a Predicate> {
        self.relevant_of[src]
            .iter()
            .filter(|(g_iv, _)| g_iv.contains(key))
            .map(|(_, p)| *p)
            .collect()
    }

    /// The exclusion list of the virtual ∅-cell at `key`: every shared
    /// constraint group-active there (a constraint inactive on the group
    /// attribute at `key` excludes nothing from the slice).
    pub(crate) fn virtual_negs(&self, key: f64) -> Vec<&'a Predicate> {
        self.all_shared
            .iter()
            .filter(|(g_iv, _)| g_iv.contains(key))
            .map(|(_, p)| *p)
            .collect()
    }

    /// Witness for the virtual ∅-cell (`slice ∧ ¬every group-active
    /// shared constraint`) — the activity patterns with *no* shared
    /// constraint, which the shared decomposition never emits but a
    /// key-local constraint can populate. Memoized across keys exactly
    /// like cell cross-sections.
    pub(crate) fn virtual_witness(
        &self,
        key: f64,
        slice: &Region,
        stats: &mut DecomposeStats,
    ) -> Option<Vec<f64>> {
        let memoable = self.all_shared.len() <= 64;
        self.check_memoized(VIRTUAL_CELL, &self.all_shared, memoable, key, slice, stats)
    }

    /// Decide satisfiability of cell `src`'s conjunction inside the slice
    /// at `key`. Memoized on (cell, group-active exclusion mask): a
    /// cached verdict transfers to any other key with the same mask, with
    /// the witness's group coordinate remapped — two slices cut by the
    /// same exclusion subset have isomorphic cross-sections (only the
    /// group coordinate differs). The memo is shared by every group task;
    /// two workers racing on the same uncached mask both pay the check
    /// (last insert wins, verdicts are equal), so concurrency can only
    /// add `sat_checks`, never miss one.
    fn memoized_witness(
        &self,
        src: usize,
        relevant: &[(Interval, &Predicate)],
        key: f64,
        region: &Region,
        stats: &mut DecomposeStats,
    ) -> Option<Vec<f64>> {
        self.check_memoized(src, relevant, self.memoable[src], key, region, stats)
    }

    fn check_memoized(
        &self,
        src: usize,
        relevant: &[(Interval, &Predicate)],
        memoable: bool,
        key: f64,
        region: &Region,
        stats: &mut DecomposeStats,
    ) -> Option<Vec<f64>> {
        let negs: Vec<&Predicate> = relevant
            .iter()
            .filter(|(g_iv, _)| g_iv.contains(key))
            .map(|(_, p)| *p)
            .collect();
        if !memoable {
            // too many relevant exclusions for the 64-bit mask: still use
            // the (sound) group-active filter, just without memoization
            stats.sat_checks += 1;
            return sat::find_witness_with(region, &negs, self.parallel);
        }
        let mut mask = 0u64;
        for (bit, (g_iv, _)) in relevant.iter().enumerate() {
            if g_iv.contains(key) {
                mask |= 1 << bit;
            }
        }
        let cached = self.memo.lock().unwrap().get(&(src, mask)).cloned();
        if let Some(template) = cached {
            return template.map(|mut w| {
                w[self.group_attr] = key;
                w
            });
        }
        stats.sat_checks += 1;
        let witness = sat::find_witness_with(region, &negs, self.parallel);
        self.memo
            .lock()
            .unwrap()
            .insert((src, mask), witness.clone());
        witness
    }
}

/// Splice a key's group-local constraints into one specialized cell: a
/// mini include/exclude DFS over `locals` (global index, constraint),
/// starting from the cell's box, activity set, and — in exact mode — a
/// proven witness of `region ∧ ¬shared_negs`.
///
/// Each level decides one local constraint. The carried witness settles
/// one branch for free: if it satisfies the constraint it proves the
/// include branch, otherwise the exclude branch; the *other* branch pays
/// at most one exact SAT check (the include branch none at all when its
/// tightened box is empty). Sub-cells reaching the leaf with a non-empty
/// activity set are emitted with their prefix witness.
///
/// `verified = false` (the cell was admitted unverified by
/// [`crate::Strategy::EarlyStop`]) degrades to geometric pruning only:
/// every box-non-empty combination is admitted witness-less, matching the
/// early-stop contract (possible false positives, bounds only widen).
#[allow(clippy::too_many_arguments)]
pub(crate) fn splice_locals<'a>(
    region: Arc<Region>,
    active: &ActiveSet,
    undecided: &ActiveSet,
    witness: Option<Vec<f64>>,
    shared_negs: Vec<&'a Predicate>,
    locals: &[(usize, &'a PredicateConstraint)],
    parallel: bool,
    out: &mut Vec<Cell>,
    stats: &mut DecomposeStats,
) {
    let verified = witness.is_some();
    // One exclusion stack for the whole splice: each level pushes at most
    // its own local.
    let mut excluded = shared_negs;
    excluded.reserve(locals.len());
    splice_dfs(
        locals,
        0,
        region,
        active.clone(),
        undecided,
        &mut excluded,
        witness,
        verified,
        parallel,
        out,
        stats,
    );
}

/// One level of [`splice_locals`]. `excluded` holds exactly the prefix's
/// exclusions on entry and on exit: the exclude probe and the exclude
/// branch push the level's local and pop it again.
#[allow(clippy::too_many_arguments)]
fn splice_dfs<'a>(
    locals: &[(usize, &'a PredicateConstraint)],
    idx: usize,
    region: Arc<Region>,
    active: ActiveSet,
    undecided: &ActiveSet,
    excluded: &mut Vec<&'a Predicate>,
    witness: Option<Vec<f64>>,
    verified: bool,
    parallel: bool,
    out: &mut Vec<Cell>,
    stats: &mut DecomposeStats,
) {
    if idx == locals.len() {
        // The ∅-shared virtual cell with every local excluded is not a
        // cell (no active constraint): the closure check owns that
        // region. A frontier source cell (undecided non-empty) IS
        // emitted even with an empty activity — its rows may satisfy
        // undecided shared constraints.
        if !active.is_empty() || !undecided.is_empty() {
            out.push(Cell {
                region,
                active,
                witness,
                undecided: undecided.clone(),
            });
        }
        return;
    }
    let (gid, pc) = locals[idx];
    let inc_region = match region.tightened_by(pc.predicate.atoms()) {
        Some(tightened) => Arc::new(tightened),
        None => Arc::clone(&region),
    };

    if !verified {
        // Unverified prefix (early-stop admission): geometric pruning
        // only, both surviving branches stay unverified.
        stats.assumed_sat += 2;
        if !inc_region.is_empty() {
            let mut inc_active = active.clone();
            inc_active.insert(gid);
            splice_dfs(
                locals,
                idx + 1,
                inc_region,
                inc_active,
                undecided,
                excluded,
                None,
                false,
                parallel,
                out,
                stats,
            );
        }
        excluded.push(&pc.predicate);
        splice_dfs(
            locals,
            idx + 1,
            region,
            active,
            undecided,
            excluded,
            None,
            false,
            parallel,
            out,
            stats,
        );
        excluded.pop();
        return;
    }

    let w = witness.as_ref().expect("verified prefix carries a witness");
    // The prefix witness lies in `region ∧ ¬excluded`; whichever branch
    // it falls on is proven for free (w in the include box ⟺ w satisfies
    // the predicate, since w is already in `region`).
    let inc_witness = if inc_region.is_empty() {
        None
    } else if inc_region.contains_row(w) {
        Some(w.clone())
    } else {
        stats.sat_checks += 1;
        sat::find_witness_with(&inc_region, excluded, parallel)
    };
    let exc_witness = if !pc.predicate.eval(w) {
        Some(w.clone())
    } else {
        excluded.push(&pc.predicate);
        stats.sat_checks += 1;
        let found = sat::find_witness_with(&region, excluded, parallel);
        excluded.pop();
        found
    };

    if let Some(iw) = inc_witness {
        let mut inc_active = active.clone();
        inc_active.insert(gid);
        splice_dfs(
            locals,
            idx + 1,
            inc_region,
            inc_active,
            undecided,
            excluded,
            Some(iw),
            true,
            parallel,
            out,
            stats,
        );
    }
    if let Some(ew) = exc_witness {
        excluded.push(&pc.predicate);
        splice_dfs(
            locals,
            idx + 1,
            region,
            active,
            undecided,
            excluded,
            Some(ew),
            true,
            parallel,
            out,
            stats,
        );
        excluded.pop();
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::{decompose, BoundEngine, FrequencyConstraint, Strategy, ValueConstraint};
    use pc_predicate::{Atom, AttrType, Schema};
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

    #[test]
    fn splice_matches_full_decomposition() {
        // shared constraint on x plus one key-local (point) constraint:
        // splicing the local into the shared cells must reproduce the
        // cells of decomposing both constraints together in the slice.
        let s = Schema::new(vec![("g", AttrType::Cat), ("v", AttrType::Float)]);
        let shared = PredicateConstraint::new(
            Predicate::atom(Atom::between(0, 0.0, 3.0)),
            ValueConstraint::none().with(1, Interval::closed(0.0, 50.0)),
            FrequencyConstraint::at_most(10),
        );
        let local = PredicateConstraint::new(
            Predicate::atom(Atom::eq(0, 1.0)),
            ValueConstraint::none().with(1, Interval::closed(0.0, 80.0)),
            FrequencyConstraint::at_most(5),
        );
        let mut both = PcSet::new(s.clone())
            .with(shared.clone())
            .with(local.clone());
        let mut domain = Region::full(&s);
        domain.set_interval(0, Interval::closed(0.0, 3.0));
        both.set_domain(domain.clone());

        // slice g = 1
        let mut slice = domain.clone();
        slice.set_interval(0, Interval::point(1.0));
        let (want, _) = decompose(&both, &slice, Strategy::DfsRewrite).unwrap();

        // two-level by hand: decompose the shared constraint alone …
        let mut shared_only = PcSet::new(s).with(shared);
        shared_only.set_domain(domain);
        let (cells, _) = decompose(&shared_only, &slice, Strategy::DfsRewrite).unwrap();
        // … then splice the local (global index 1) into each shared cell
        let mut got = Vec::new();
        let mut stats = DecomposeStats::default();
        for cell in cells {
            splice_locals(
                cell.region,
                &cell.active,
                &cell.undecided,
                cell.witness,
                Vec::new(),
                &[(1, &local)],
                false,
                &mut got,
                &mut stats,
            );
        }
        let mut a: Vec<Vec<usize>> = want.iter().map(|c| c.active.to_vec()).collect();
        let mut b: Vec<Vec<usize>> = got.iter().map(|c| c.active.to_vec()).collect();
        a.sort();
        b.sort();
        assert_eq!(a, b);
        for cell in &got {
            let w = cell
                .witness
                .as_ref()
                .expect("spliced cells carry witnesses");
            assert!(cell.region.contains_row(w));
        }
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
                .problem_from_cells(query.attr, &target, cells, stats, closed, None)
                .unwrap();
            let specialized = engine.bound_problem(query.agg, &problem).unwrap();
            assert_eq!(fresh.range, specialized.range, "query [{lo}, {hi})");
            assert_eq!(fresh.closed, specialized.closed);
        }
    }
}
