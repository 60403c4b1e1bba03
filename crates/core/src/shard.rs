//! Sharded decomposition: factoring the cell set over the
//! constraint-interaction graph.
//!
//! # The interaction graph
//!
//! Two predicate constraints *interact* when their attribute boxes
//! (predicate region ∩ domain) overlap geometrically. A satisfiable cell's
//! active constraints pairwise overlap (their conjunction has a witness),
//! so every active set is a clique of the interaction graph and therefore
//! lies inside exactly one **connected component**. Excluding a predicate
//! from a *different* component is vacuous on the cell's region — the box
//! never reaches it. Hence the flat cell set is precisely the disjoint
//! union of the per-component cell sets, with identical regions, and the
//! exponential decomposition cost is paid per component ("shard"), not for
//! the whole catalog: a 1000-constraint catalog of 14-constraint
//! components costs the *sum* of its shards.
//!
//! [`interaction_components`] builds the graph with a union-find over the
//! pairwise box-overlap test (the same edge test as
//! [`PcSet::verify_disjoint`]). The component structure is *maintained
//! incrementally* across epochs rather than recomputed: an added
//! constraint unions the components its box touches
//! (`ShardedCellSet::derive_add`), a retired one re-runs the union-find
//! only inside its own shard (`ShardedCellSet::derive_retire`) — every
//! other shard carries by
//! `Arc`.
//!
//! # Compositional answering
//!
//! [`ShardedCellSet`] stores one [`CellSet`] per shard (local constraint
//! indices, mapped back through [`Shard::members`]). Because the flat
//! cells are the disjoint union of the shard cells and no frequency row
//! couples two shards, the allocation MILP is block-diagonal. One
//! bounding body (`BoundEngine::bound_slices` in `bounds.rs`) answers
//! every query from one *slice* per shard: `COUNT` and `SUM` bounds are
//! the *sums* of per-slice bounds, and `MIN`/`MAX`/`AVG` bound one joint
//! problem over the slices' cells (one slice: its own problem). A session
//! query only specializes the shards it geometrically touches; a shard
//! fully inside the query region contributes its cached domain-wide
//! `COUNT`/`SUM` interval verbatim ([`Shard`] caches it), whatever the
//! shard count, and a shard disjoint from the region contributes nothing
//! but its frequency rows.
//!
//! A one-shot bound (no epoch to keep) applies the same theorem before it
//! builds anything: it keeps only the constraints whose predicate meets
//! the query region and factors *those* — every unreached constraint is a
//! component with no cells in the region, whose only possible effect, an
//! unplaceable frequency floor, is checked up front. So its slices are
//! the components of the reached constraints, decomposed by the same
//! per-component fan-out that builds an epoch's shards; reached
//! constraints that form one component are one slice of the engine's own
//! set, with no sub-set copied.
//!
//! # Member order
//!
//! A connected component admits no geometric cut — any candidate boundary
//! is straddled by an overlapping pair, which is exactly why it is one
//! component. What *can* be steered is the DFS visit order, and one rule
//! steers it for every shard, heavy or light: a shard lists its members
//! in ascending catalog order, and its own engine decides them by
//! ascending box volume ([`crate::estimate::volume_order`]), ties by that
//! member order. Ordering never changes the emitted cells'
//! signatures-as-sets, regions, or any bound — it is purely a work
//! heuristic (property-tested in `tests/prop_ordering.rs`, with a heavy
//! single-shard case in `tests/prop_shard.rs`).

use crate::bounds::{pooled_map_catch, BoundEngine, BoundOptions};
use crate::decompose::DecomposeStats;
use crate::error::BoundError;
use crate::specialize::CellSet;
use crate::{ActiveSet, Cell, PcSet};
use pc_budget::QueryBudget;
use pc_predicate::Region;
use std::collections::HashMap;
use std::sync::{Arc, Mutex, OnceLock};

/// Plain union-find with path halving.
struct UnionFind {
    parent: Vec<usize>,
}

impl UnionFind {
    fn new(n: usize) -> Self {
        UnionFind {
            parent: (0..n).collect(),
        }
    }

    fn find(&mut self, mut i: usize) -> usize {
        while self.parent[i] != i {
            self.parent[i] = self.parent[self.parent[i]];
            i = self.parent[i];
        }
        i
    }

    fn union(&mut self, a: usize, b: usize) {
        let (ra, rb) = (self.find(a), self.find(b));
        if ra != rb {
            self.parent[ra.max(rb)] = ra.min(rb);
        }
    }
}

/// Each constraint's attribute box: predicate region ∩ domain. Two
/// constraints interact iff their boxes overlap.
fn constraint_boxes(set: &PcSet) -> Vec<Region> {
    set.constraints()
        .iter()
        .map(|pc| {
            let mut r = pc.predicate.to_region(set.schema());
            r.intersect(set.domain());
            r
        })
        .collect()
}

/// Mean box width on `axis` relative to the boxes' collective span —
/// small means the axis separates non-interacting boxes well. Boxes
/// unbounded on the axis never end a sweep scan, so they charge the full
/// span; an axis with no finite box can't discriminate at all.
fn axis_score(boxes: &[Region], axis: usize) -> f64 {
    let (mut lo, mut hi, mut wsum, mut finite) = (f64::INFINITY, f64::NEG_INFINITY, 0.0, 0usize);
    for b in boxes {
        let iv = b.interval(axis);
        if iv.lo.is_finite() && iv.hi.is_finite() {
            lo = lo.min(iv.lo);
            hi = hi.max(iv.hi);
            wsum += iv.hi - iv.lo;
            finite += 1;
        }
    }
    if finite == 0 || hi <= lo {
        return f64::INFINITY;
    }
    let unbounded = (boxes.len() - finite) as f64;
    (wsum + unbounded * (hi - lo)) / ((hi - lo) * boxes.len() as f64)
}

/// Group local indices `0..boxes.len()` into connected components of the
/// pairwise-overlap graph, each ascending, ordered by smallest member.
///
/// An interval sweep along the most discriminating attribute skips pairs
/// already disjoint on that axis, so factored catalogs (many shards laid
/// out along one dimension) pay near-linear instead of quadratic work —
/// this runs on the reached constraints of every one-shot bound.
fn components_of(boxes: &[Region]) -> Vec<Vec<usize>> {
    let n = boxes.len();
    let mut uf = UnionFind::new(n);
    if n > 1 {
        let axis = (0..boxes[0].width())
            .map(|a| (axis_score(boxes, a), a))
            .min_by(|x, y| x.0.total_cmp(&y.0))
            .map_or(0, |(_, a)| a);
        let mut order: Vec<usize> = (0..n).collect();
        order.sort_by(|&a, &b| {
            boxes[a]
                .interval(axis)
                .lo
                .total_cmp(&boxes[b].interval(axis).lo)
        });
        for ii in 0..n {
            let i = order[ii];
            let hi = boxes[i].interval(axis).hi;
            for &j in &order[ii + 1..] {
                // sorted by axis lo: once past box i's hi, no later box
                // can meet it on the sweep axis (conservative for open
                // endpoints — the full overlap check is authoritative)
                if boxes[j].interval(axis).lo > hi {
                    break;
                }
                if boxes[i].overlaps(&boxes[j]) {
                    uf.union(i, j);
                }
            }
        }
    }
    // Scanning members ascending meets each root first at its smallest
    // member, so components come out ordered by smallest member.
    let mut slot_of_root = vec![usize::MAX; n];
    let mut components: Vec<Vec<usize>> = Vec::new();
    for i in 0..n {
        let root = uf.find(i);
        if slot_of_root[root] == usize::MAX {
            slot_of_root[root] = components.len();
            components.push(Vec::new());
        }
        components[slot_of_root[root]].push(i);
    }
    components
}

/// Connected components of the constraint-interaction graph of `set`:
/// vertices are constraint indices, edges are pairwise attribute-box
/// overlaps within the domain. Each component is returned ascending.
pub fn interaction_components(set: &PcSet) -> Vec<Vec<usize>> {
    components_of(&constraint_boxes(set))
}

/// One connected component of the interaction graph: its own [`PcSet`]
/// (local indices follow [`Shard::members`] order) with an independently
/// decomposed [`CellSet`], plus a cache of domain-wide `COUNT`/`SUM`
/// intervals reused verbatim by queries that contain the whole shard.
pub struct Shard {
    /// Global constraint indices of the members, in local-index order.
    members: Vec<usize>,
    /// Each member's attribute box (predicate region ∩ domain), parallel
    /// to `members`.
    boxes: Vec<Region>,
    /// The members as their own constraint set (same schema and domain).
    sub: Arc<PcSet>,
    /// The shard's decomposition over the container base, local indices.
    cells: Arc<CellSet>,
    /// Domain-wide per-aggregate intervals, keyed by `(agg tag, attr)`.
    /// Only clean (non-degraded, feasible) results are stored; entries are
    /// exact for any query region containing every member box.
    summary: Mutex<HashMap<(u8, usize), (f64, f64)>>,
}

impl Shard {
    /// Global constraint indices of this shard's members; position `i`
    /// is the constraint with local index `i` in [`Shard::set`].
    pub fn members(&self) -> &[usize] {
        &self.members
    }

    /// The shard's constraints as their own set (local indices).
    pub fn set(&self) -> &Arc<PcSet> {
        &self.sub
    }

    /// The shard's decomposition (cells carry local indices).
    pub fn cells(&self) -> &Arc<CellSet> {
        &self.cells
    }

    /// Whether any member box overlaps `region` — i.e. whether a query on
    /// `region` needs this shard's cells at all.
    pub(crate) fn touches(&self, region: &Region) -> bool {
        self.boxes.iter().any(|b| b.overlaps(region))
    }

    /// Whether `region` contains every member box, making domain-wide
    /// summaries exact for it.
    pub(crate) fn contained_in(&self, region: &Region) -> bool {
        self.boxes.iter().all(|b| region.contains_region(b))
    }

    pub(crate) fn cached_summary(&self, agg: u8, attr: usize) -> Option<(f64, f64)> {
        let map = self.summary.lock().unwrap_or_else(|p| p.into_inner());
        map.get(&(agg, attr)).copied()
    }

    pub(crate) fn store_summary(&self, agg: u8, attr: usize, lo: f64, hi: f64) {
        let mut map = self.summary.lock().unwrap_or_else(|p| p.into_inner());
        map.insert((agg, attr), (lo, hi));
    }
}

/// Extract `members` of `set` into their own [`PcSet`] sharing schema,
/// domain, and disjoint hint.
pub(crate) fn sub_set(set: &PcSet, members: &[usize]) -> PcSet {
    let mut sub = PcSet::new(set.schema().clone());
    sub.set_domain(set.domain().clone());
    for &m in members {
        sub.push(set.constraints()[m].clone());
    }
    sub.set_disjoint_hint(set.disjoint_hint());
    sub
}

/// The sharded counterpart of [`CellSet`]: one independently decomposed
/// [`CellSet`] per connected component of the constraint-interaction
/// graph, plus the global closure verdict. See the module docs for why
/// the per-shard cells are exactly a partition of the flat cells.
pub struct ShardedCellSet {
    /// The region everything was decomposed against (the domain, for
    /// session epochs).
    base: Region,
    shards: Vec<Arc<Shard>>,
    /// Work counters of the *most recent* operation that produced this
    /// container (full build: summed across shards; epoch derivation: the
    /// touched shard's derivation only, carried shards contribute
    /// nothing), with `cells` = total cells across shards and the shard
    /// topology in [`DecomposeStats::shards`] /
    /// [`DecomposeStats::max_shard_constraints`].
    stats: DecomposeStats,
    /// Global closure counterexample: a domain point no predicate covers.
    uncovered: Option<Vec<f64>>,
    /// The building budget tripped before the closure probe ran — treated
    /// as open.
    closure_skipped: bool,
    /// Lazily flattened global view (cells remapped to global indices).
    flat: OnceLock<Arc<CellSet>>,
}

impl ShardedCellSet {
    /// Decompose `set` over `base`, one pool task per interaction-graph
    /// component, each budget-checked. With sharding disabled
    /// ([`BoundOptions::shard`] false) or a disjoint-hinted set the whole
    /// catalog becomes a single shard — exactly the flat behavior. The
    /// caller probes closure once the shards are built and installs the
    /// verdict ([`ShardedCellSet::set_closure`]).
    pub(crate) fn build(
        set: &PcSet,
        options: &BoundOptions,
        base: Region,
        budget: &QueryBudget,
    ) -> Result<ShardedCellSet, BoundError> {
        let boxes = constraint_boxes(set);
        let components: Vec<Vec<usize>> = if !options.shard || set.disjoint_hint() || set.len() < 2
        {
            if set.is_empty() {
                Vec::new()
            } else {
                vec![(0..set.len()).collect()]
            }
        } else {
            components_of(&boxes)
        };
        let shards: Vec<Arc<Shard>> =
            decompose_components(set, options, &base, &components, budget)?
                .into_iter()
                .map(|c| c.into_shard(&base, &boxes))
                .collect();
        let mut stats = DecomposeStats::default();
        for shard in &shards {
            stats.absorb(&shard.cells.stats());
        }
        Ok(ShardedCellSet::assemble(base, shards, stats, None, false))
    }

    /// Stamp the container-level counters (total cells, shard topology)
    /// onto `stats` and wrap up.
    fn assemble(
        base: Region,
        shards: Vec<Arc<Shard>>,
        mut stats: DecomposeStats,
        uncovered: Option<Vec<f64>>,
        closure_skipped: bool,
    ) -> ShardedCellSet {
        stats.cells = shards.iter().map(|s| s.cells.cells().len()).sum();
        stats.shards = shards.len();
        stats.max_shard_constraints = shards.iter().map(|s| s.members.len()).max().unwrap_or(0);
        ShardedCellSet {
            base,
            shards,
            stats,
            uncovered,
            closure_skipped,
            flat: OnceLock::new(),
        }
    }

    /// The region the shards were decomposed against.
    pub fn base(&self) -> &Region {
        &self.base
    }

    /// The shards, one per interaction-graph component.
    pub fn shards(&self) -> &[Arc<Shard>] {
        &self.shards
    }

    /// Container-level work counters — see the field docs.
    pub fn stats(&self) -> DecomposeStats {
        self.stats
    }

    /// Whether the constraint set covers all of [`ShardedCellSet::base`]
    /// (closure is a global question — a single probe over all shards).
    pub fn closed(&self) -> bool {
        self.uncovered.is_none() && !self.closure_skipped
    }

    /// The cached closure counterexample, if the base is known open.
    pub fn uncovered(&self) -> Option<&[f64]> {
        self.uncovered.as_deref()
    }

    /// Install the global closure verdict (probed by the session *after*
    /// the shard builds, once, across all shards). Only callable before
    /// the container is shared — the flat view has not materialized yet.
    pub(crate) fn set_closure(&mut self, uncovered: Option<Vec<f64>>, skipped: bool) {
        debug_assert!(self.flat.get().is_none(), "set_closure after flatten");
        self.uncovered = uncovered;
        self.closure_skipped = skipped;
    }

    /// Fold another operation's work counters into this container's (used
    /// by fused replace: the retire half's work joins the add half's).
    /// Container-level topology counters keep their own values.
    pub(crate) fn absorb_stats(&mut self, other: DecomposeStats) {
        let (cells, shards, max_shard) = (
            self.stats.cells,
            self.stats.shards,
            self.stats.max_shard_constraints,
        );
        self.stats.absorb(&other);
        self.stats.cells = cells;
        self.stats.shards = shards;
        self.stats.max_shard_constraints = max_shard;
    }

    /// The flat (global-index) view: every shard's cells remapped through
    /// its member table into one [`CellSet`] over `set`. Computed once
    /// and cached; by the factoring theorem this is cell-for-cell the set
    /// a flat decomposition would produce (module docs).
    pub(crate) fn flatten(&self, set: &PcSet) -> Arc<CellSet> {
        Arc::clone(self.flat.get_or_init(|| {
            let mut cells = Vec::with_capacity(self.stats.cells);
            for shard in &self.shards {
                for cell in shard.cells.cells() {
                    cells.push(Cell {
                        region: Arc::clone(&cell.region),
                        active: remap_up(&cell.active, &shard.members),
                        witness: cell.witness.clone(),
                        undecided: remap_up(&cell.undecided, &shard.members),
                    });
                }
            }
            let mut flat = CellSet::new(
                set,
                self.base.clone(),
                cells,
                self.stats,
                self.uncovered.clone(),
            );
            if self.closure_skipped {
                flat.mark_closure_skipped();
            }
            Arc::new(flat)
        }))
    }

    /// Derive the container for `new_set` = the previous set plus one
    /// constraint (appended, global index `new_set.len() - 1`), touching
    /// only the shards the new box overlaps:
    ///
    /// * overlaps none — the constraint becomes its own singleton shard,
    ///   zero SAT calls;
    /// * overlaps one — that shard re-derives locally
    ///   ([`CellSet::derive_add_budgeted`]); since the box reaches no
    ///   other shard, shard-local exclusions are exhaustive and the
    ///   global `base_known_closed` verdict pushes down soundly;
    /// * overlaps `k ≥ 2` — those components merge into one and the
    ///   merged shard is decomposed afresh (an incremental chain would
    ///   re-introduce each partner's cells against stale exclusions).
    ///
    /// Untouched shards carry by `Arc`. Errors (budget-independent ones
    /// like [`DecomposeError`]) surface so the caller can fall back.
    pub(crate) fn derive_add(
        &self,
        new_set: &PcSet,
        options: &BoundOptions,
        uncovered: Option<Vec<f64>>,
        base_known_closed: bool,
        budget: &QueryBudget,
    ) -> Result<ShardedCellSet, BoundError> {
        let n = new_set.len() - 1;
        let pc = &new_set.constraints()[n];
        let mut new_box = pc.predicate.to_region(new_set.schema());
        new_box.intersect(new_set.domain());

        let single = !options.shard || self.shards.len() <= 1;
        let overlapping: Vec<usize> = if single {
            (0..self.shards.len()).collect()
        } else {
            (0..self.shards.len())
                .filter(|&s| self.shards[s].touches(&new_box))
                .collect()
        };

        let mut shards = Vec::with_capacity(self.shards.len() + 1);
        let stats;
        match overlapping.len() {
            // Disjoint from every existing shard: a fresh singleton
            // shard, no solver work at all.
            0 => {
                shards.extend(self.shards.iter().cloned());
                let members = vec![n];
                let sub = Arc::new(sub_set(new_set, &members));
                let mut cell_stats = DecomposeStats::default();
                let cells = if new_box.is_empty() {
                    Vec::new()
                } else {
                    let witness = new_box.pick_witness();
                    vec![Cell {
                        region: Arc::new(new_box.clone()),
                        active: [0usize].into_iter().collect(),
                        witness,
                        undecided: ActiveSet::new(),
                    }]
                };
                cell_stats.cells = cells.len();
                let cells = Arc::new(CellSet::new(
                    &sub,
                    self.base.clone(),
                    cells,
                    cell_stats,
                    None,
                ));
                shards.push(Arc::new(Shard {
                    boxes: vec![new_box],
                    members,
                    sub,
                    cells,
                    summary: Mutex::new(HashMap::new()),
                }));
                stats = DecomposeStats::default();
            }
            // The new box reaches exactly one shard: within it the
            // derivation is the flat one; outside it nothing changes.
            1 => {
                let s = overlapping[0];
                let shard = &self.shards[s];
                let mut members = shard.members.clone();
                members.push(n);
                let mut boxes = shard.boxes.clone();
                boxes.push(new_box);
                let sub = Arc::new(sub_set(new_set, &members));
                let parallel = options.threads != 1;
                let derived = shard.cells.derive_add_budgeted(
                    &sub,
                    parallel,
                    None,
                    base_known_closed,
                    budget,
                );
                stats = derived.stats();
                shards.extend(self.shards.iter().cloned());
                shards[s] = Arc::new(Shard {
                    members,
                    boxes,
                    sub,
                    cells: Arc::new(derived),
                    summary: Mutex::new(HashMap::new()),
                });
            }
            // The new constraint bridges k components: merge and
            // re-decompose the union as one shard.
            _ => {
                let mut members: Vec<usize> = Vec::new();
                for &s in &overlapping {
                    members.extend_from_slice(&self.shards[s].members);
                }
                members.sort_unstable();
                members.push(n);
                let boxes = constraint_boxes(new_set);
                let merged = decompose_component(new_set, options, &self.base, members, budget)?
                    .into_shard(&self.base, &boxes);
                stats = merged.cells.stats();
                for (s, shard) in self.shards.iter().enumerate() {
                    if !overlapping.contains(&s) {
                        shards.push(Arc::clone(shard));
                    }
                }
                shards.push(merged);
            }
        }
        Ok(ShardedCellSet::assemble(
            self.base.clone(),
            shards,
            stats,
            uncovered,
            false,
        ))
    }

    /// Derive the container for `new_set` = the previous set with the
    /// constraint at global index `removed` gone (later indices shifted
    /// down). Only the owning shard re-derives
    /// ([`CellSet::derive_retire`], zero SAT calls); if losing the member
    /// disconnects it, the union-find re-runs *inside the shard only* and
    /// its cells partition among the fragments (each cell's active clique
    /// lies in exactly one). Every other shard carries by `Arc` with its
    /// member table shifted.
    pub(crate) fn derive_retire(
        &self,
        new_set: &PcSet,
        removed: usize,
        options: &BoundOptions,
        uncovered: Option<Vec<f64>>,
    ) -> ShardedCellSet {
        let shift = |members: &[usize]| -> Vec<usize> {
            members
                .iter()
                .map(|&m| if m > removed { m - 1 } else { m })
                .collect()
        };
        let mut shards = Vec::with_capacity(self.shards.len());
        let mut stats = DecomposeStats::default();
        for shard in &self.shards {
            let Some(local) = shard.members.iter().position(|&m| m == removed) else {
                // Untouched: same constraints, shifted global names.
                shards.push(Arc::new(Shard {
                    members: shift(&shard.members),
                    boxes: shard.boxes.clone(),
                    sub: Arc::clone(&shard.sub),
                    cells: Arc::clone(&shard.cells),
                    summary: Mutex::new(
                        shard
                            .summary
                            .lock()
                            .unwrap_or_else(|p| p.into_inner())
                            .clone(),
                    ),
                }));
                continue;
            };
            if shard.members.len() == 1 {
                continue; // The shard was the constraint; drop it.
            }
            let mut sub = (*shard.sub).clone();
            sub.remove_constraint(local);
            let mut members = shard.members.clone();
            members.remove(local);
            let members = shift(&members);
            let mut boxes = shard.boxes.clone();
            boxes.remove(local);
            let derived = shard.cells.derive_retire(&sub, local, None);
            stats = derived.stats();
            // Losing a member can disconnect the component: re-split
            // locally. (`options.shard` off keeps the single flat shard.)
            let fragments = if options.shard {
                components_of(&boxes)
            } else {
                vec![(0..sub.len()).collect()]
            };
            if fragments.len() <= 1 {
                shards.push(Arc::new(Shard {
                    members,
                    boxes,
                    sub: Arc::new(sub),
                    cells: Arc::new(derived),
                    summary: Mutex::new(HashMap::new()),
                }));
                continue;
            }
            // local index -> (fragment, index within fragment)
            let mut place = vec![(0usize, 0usize); sub.len()];
            for (f, fragment) in fragments.iter().enumerate() {
                for (pos, &li) in fragment.iter().enumerate() {
                    place[li] = (f, pos);
                }
            }
            let mut frag_cells: Vec<Vec<Cell>> = vec![Vec::new(); fragments.len()];
            for cell in derived.cells() {
                let lead = cell
                    .active
                    .first_index()
                    .expect("published cells have non-empty active sets");
                let (f, _) = place[lead];
                frag_cells[f].push(Cell {
                    region: Arc::clone(&cell.region),
                    active: cell.active.iter().map(|li| place[li].1).collect(),
                    witness: cell.witness.clone(),
                    undecided: cell.undecided.iter().map(|li| place[li].1).collect(),
                });
            }
            for (fragment, cells) in fragments.iter().zip(frag_cells) {
                let f_members: Vec<usize> = fragment.iter().map(|&li| members[li]).collect();
                let f_boxes: Vec<Region> = fragment.iter().map(|&li| boxes[li].clone()).collect();
                let f_sub = Arc::new(sub_set(new_set, &f_members));
                let f_stats = DecomposeStats {
                    cells: cells.len(),
                    ..DecomposeStats::default()
                };
                let f_cells = Arc::new(CellSet::new(
                    &f_sub,
                    self.base.clone(),
                    cells,
                    f_stats,
                    None,
                ));
                shards.push(Arc::new(Shard {
                    members: f_members,
                    boxes: f_boxes,
                    sub: f_sub,
                    cells: f_cells,
                    summary: Mutex::new(HashMap::new()),
                }));
            }
        }
        ShardedCellSet::assemble(self.base.clone(), shards, stats, uncovered, false)
    }
}

/// Remap a local bitset through the member table into global indices.
fn remap_up(local: &ActiveSet, members: &[usize]) -> ActiveSet {
    local.iter().map(|i| members[i]).collect()
}

/// One interaction component decomposed over a base region as its own
/// constraint set: what a one-shot bound slices and a session shard holds.
pub(crate) struct Component {
    /// Global constraint indices of the members, in local-index order.
    pub(crate) members: Vec<usize>,
    /// The members as their own constraint set (same schema and domain).
    pub(crate) sub: PcSet,
    /// The component's cells over the base, local indices.
    pub(crate) cells: Vec<Cell>,
    pub(crate) stats: DecomposeStats,
}

impl Component {
    /// The session shard of this component. `all_boxes` is indexed by
    /// *global* constraint index.
    fn into_shard(self, base: &Region, all_boxes: &[Region]) -> Arc<Shard> {
        let boxes = self.members.iter().map(|&m| all_boxes[m].clone()).collect();
        let sub = Arc::new(self.sub);
        let cells = Arc::new(CellSet::new(
            &sub,
            base.clone(),
            self.cells,
            self.stats,
            None,
        ));
        Arc::new(Shard {
            members: self.members,
            boxes,
            sub,
            cells,
            summary: Mutex::new(HashMap::new()),
        })
    }
}

/// Decompose `members` of `set` over `base` as their own set.
fn decompose_component(
    set: &PcSet,
    options: &BoundOptions,
    base: &Region,
    members: Vec<usize>,
    budget: &QueryBudget,
) -> Result<Component, BoundError> {
    let sub = sub_set(set, &members);
    let (cells, stats) =
        BoundEngine::with_options(&sub, *options).cells_for_base_budgeted(base, budget)?;
    Ok(Component {
        members,
        sub,
        cells,
        stats,
    })
}

/// Decompose each of `components` (member lists of `set`) over `base`,
/// one budget-checked pool task per component, in input order. A task
/// that panics fails the call with [`BoundError::Panicked`].
pub(crate) fn decompose_components(
    set: &PcSet,
    options: &BoundOptions,
    base: &Region,
    components: &[Vec<usize>],
    budget: &QueryBudget,
) -> Result<Vec<Component>, BoundError> {
    let threads = BoundEngine::with_options(set, *options).task_threads(components.len());
    pooled_map_catch(components, threads, &|members: &Vec<usize>| {
        decompose_component(set, options, base, members.clone(), budget)
    })
    .into_iter()
    .map(|built| built.ok_or(BoundError::Panicked)?)
    .collect()
}
