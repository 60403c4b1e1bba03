//! Workload generators for the sharding benchmarks: replicas of the
//! Fig-7 heavily-overlapping PC set placed on disjoint attribute tiles,
//! so the constraint-interaction graph factors into one component per
//! tile. The flat engine pays one decomposition over the whole catalog;
//! the sharded engine pays `tiles` independent small ones.

use pc_core::{FrequencyConstraint, PcSet, PredicateConstraint, ValueConstraint};
use pc_datagen::intel::cols;
use pc_predicate::{Atom, Predicate};
use rand::rngs::StdRng;
use rand::{Rng, SeedableRng};

/// `tiles` replicas of an `n_per_tile`-constraint heavily overlapping
/// box set (the Fig-7 style: each box spans 35–75% of its range), every
/// replica confined to its own slice of the device axis with a 2% inner
/// margin, so boxes in different tiles never intersect. Within a tile
/// the boxes overlap heavily — each tile is one hard interaction
/// component of `n_per_tile` constraints.
pub fn tiled_replica_set(
    missing_like: &pc_storage::Table,
    n_per_tile: usize,
    tiles: usize,
    seed: u64,
) -> PcSet {
    let mut rng = StdRng::seed_from_u64(seed);
    let mut set = PcSet::new(missing_like.schema().clone());
    let (dlo, dhi) = missing_like.attr_range(cols::DEVICE).unwrap_or((0.0, 1.0));
    let (elo, ehi) = missing_like.attr_range(cols::EPOCH).unwrap_or((0.0, 1.0));
    let tile_w = (dhi - dlo) / tiles as f64;
    let espan = ehi - elo;
    for t in 0..tiles {
        let lo = dlo + t as f64 * tile_w + 0.01 * tile_w;
        let span = 0.98 * tile_w;
        for _ in 0..n_per_tile {
            let dw = span * rng.gen_range(0.35..0.75);
            let dstart = lo + rng.gen_range(0.0..(span - dw).max(f64::MIN_POSITIVE));
            let ew = espan * rng.gen_range(0.35..0.75);
            let estart = elo + rng.gen_range(0.0..(espan - ew).max(f64::MIN_POSITIVE));
            set.push(PredicateConstraint::new(
                Predicate::always()
                    .and(Atom::between(cols::DEVICE, dstart, dstart + dw))
                    .and(Atom::between(cols::EPOCH, estart, estart + ew)),
                ValueConstraint::none(),
                FrequencyConstraint::at_most(100),
            ));
        }
    }
    set
}

/// 3-attr constraint for the ordering workloads: a box in the x–y plane
/// plus a value band `[vlo, vhi]` on the third attribute.
#[allow(clippy::too_many_arguments)]
fn ordering_pc(
    xlo: f64,
    xhi: f64,
    ylo: f64,
    yhi: f64,
    vlo: f64,
    vhi: f64,
    forced: bool,
    ku: u64,
) -> PredicateConstraint {
    let freq = if forced {
        FrequencyConstraint::between(1, ku)
    } else {
        FrequencyConstraint::at_most(ku)
    };
    PredicateConstraint::new(
        Predicate::always()
            .and(Atom::between(0, xlo, xhi))
            .and(Atom::between(1, ylo, yhi))
            .and(Atom::between(2, vlo, vhi)),
        pc_core::ValueConstraint::none().with(2, pc_predicate::Interval::closed(vlo, vhi)),
        freq,
    )
}

fn ordering_schema_and_domain() -> (pc_predicate::Schema, pc_predicate::Region) {
    use pc_predicate::{AttrType, Interval, Region, Schema};
    let schema = Schema::new(vec![
        ("x", AttrType::Int),
        ("y", AttrType::Int),
        ("v", AttrType::Int),
    ]);
    let mut domain = Region::full(&schema);
    domain.set_interval(0, Interval::closed(0.0, 12.0));
    domain.set_interval(1, Interval::closed(0.0, 12.0));
    domain.set_interval(2, Interval::closed(0.0, 20.0));
    (schema, domain)
}

/// The adversarial catalog for box-volume ordering (the shape of the
/// `prop_ordering.rs` skewed regression): wide, uninformative constraints
/// declared first, the selective ones last.
///
/// * a non-forced cover box — finite bounds, and one joint allocation
///   MILP (it couples every constraint into a single shard);
/// * a 3×3 cross-hatch of wide forced strips — in declaration order they
///   fragment the plane before anything selective has been decided;
/// * two pentagon "rings" (only cyclic neighbours overlap) sharing one
///   value band: an odd cycle's covering LP is fractional, so the
///   allocation MILP genuinely branches;
/// * three tiny slivers declared last — the cells volume order decides
///   (and the MILP branches) first.
pub fn skewed_ordering_set() -> PcSet {
    let (schema, domain) = ordering_schema_and_domain();
    let mut set = PcSet::new(schema);
    let mut pcs = vec![ordering_pc(0.0, 12.0, 0.0, 12.0, 0.0, 20.0, false, 9)];
    for i in 0..3 {
        let lo = 4.0 * i as f64;
        pcs.push(ordering_pc(lo, lo + 4.0, 0.0, 12.0, 0.0, 20.0, true, 9));
        pcs.push(ordering_pc(0.0, 12.0, lo, lo + 4.0, 0.0, 20.0, true, 9));
    }
    // pentagon ring at (0, 4)
    pcs.push(ordering_pc(0.0, 4.0, 9.0, 12.0, 5.0, 6.0, true, 1));
    pcs.push(ordering_pc(3.0, 8.0, 9.0, 11.0, 5.0, 6.0, true, 1));
    pcs.push(ordering_pc(6.0, 8.0, 5.0, 10.0, 5.0, 6.0, true, 1));
    pcs.push(ordering_pc(1.0, 7.0, 4.0, 6.0, 5.0, 6.0, true, 1));
    pcs.push(ordering_pc(0.0, 2.0, 5.0, 10.0, 5.0, 6.0, true, 1));
    // tiny 4×4 ring at (8, 0)
    pcs.push(ordering_pc(8.0, 10.0, 3.0, 4.0, 5.0, 6.0, true, 1));
    pcs.push(ordering_pc(10.0, 12.0, 2.0, 4.0, 5.0, 6.0, true, 1));
    pcs.push(ordering_pc(11.0, 12.0, 0.0, 2.0, 5.0, 6.0, true, 1));
    pcs.push(ordering_pc(9.0, 11.0, 0.0, 1.0, 5.0, 6.0, true, 1));
    pcs.push(ordering_pc(8.0, 9.0, 1.0, 3.0, 5.0, 6.0, true, 1));
    // tiny slivers declared last
    pcs.push(ordering_pc(1.0, 2.0, 10.0, 11.0, 15.0, 16.0, true, 1));
    pcs.push(ordering_pc(7.0, 8.0, 9.0, 10.0, 17.0, 18.0, true, 1));
    pcs.push(ordering_pc(10.0, 11.0, 5.0, 6.0, 12.0, 13.0, true, 1));
    for pc in pcs {
        set.push(pc);
    }
    set.set_domain(domain);
    set
}

/// The control for [`skewed_ordering_set`]: the same constraint count on
/// the same domain, but every box a mid-size random rectangle — near-equal
/// volumes, so the volume order is close to a no-op and ordering on/off
/// should measure the same work.
pub fn uniform_ordering_set(seed: u64) -> PcSet {
    let (schema, domain) = ordering_schema_and_domain();
    let mut set = PcSet::new(schema);
    let mut rng = StdRng::seed_from_u64(seed);
    set.push(ordering_pc(0.0, 12.0, 0.0, 12.0, 0.0, 20.0, false, 9));
    for _ in 0..19 {
        let xlo = rng.gen_range(0..8) as f64;
        let ylo = rng.gen_range(0..8) as f64;
        let vlo = rng.gen_range(0..16) as f64;
        set.push(ordering_pc(
            xlo,
            xlo + 4.0,
            ylo,
            ylo + 4.0,
            vlo,
            vlo + 3.0,
            true,
            4,
        ));
    }
    set.set_domain(domain);
    set
}

#[cfg(test)]
mod tests {
    use super::*;
    use pc_datagen::intel::{self, IntelConfig};

    #[test]
    fn tiles_factor_into_one_component_each() {
        let table = intel::generate(IntelConfig {
            rows: 500,
            ..IntelConfig::default()
        });
        let set = tiled_replica_set(&table, 5, 6, 7);
        assert_eq!(set.len(), 30);
        let components = pc_core::interaction_components(&set);
        assert_eq!(components.len(), 6, "one component per tile");
        assert!(components.iter().all(|c| c.len() == 5));
    }
}
