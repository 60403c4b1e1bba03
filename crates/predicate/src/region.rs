use crate::{Atom, AttrType, Interval, Predicate, Schema};
use std::fmt;
use std::sync::Arc;

/// An axis-aligned box over a schema: one interval per attribute.
///
/// Regions are the geometric form of conjunctive predicates and the state
/// carried through cell-decomposition DFS. All operations are width-aligned
/// with a schema; the region shares the schema's attribute types so
/// emptiness is type-exact without re-threading the schema everywhere, and
/// a clone allocates only the interval buffer.
#[derive(Debug, PartialEq)]
pub struct Region {
    intervals: Vec<Interval>,
    types: Arc<[AttrType]>,
}

impl Clone for Region {
    fn clone(&self) -> Self {
        Region {
            intervals: self.intervals.clone(),
            types: Arc::clone(&self.types),
        }
    }

    /// Reuses `self`'s interval buffer when it is wide enough, so a
    /// refill allocates nothing.
    fn clone_from(&mut self, source: &Self) {
        self.intervals.clone_from(&source.intervals);
        self.types = Arc::clone(&source.types);
    }
}

impl Region {
    /// The full domain of a schema.
    pub fn full(schema: &Schema) -> Self {
        Region {
            intervals: vec![Interval::FULL; schema.width()],
            types: Arc::clone(schema.types()),
        }
    }

    /// Build from a predicate.
    pub fn from_predicate(pred: &Predicate, schema: &Schema) -> Self {
        pred.to_region(schema)
    }

    /// Number of attributes.
    pub fn width(&self) -> usize {
        self.intervals.len()
    }

    /// The interval on attribute `attr`.
    #[inline]
    pub fn interval(&self, attr: usize) -> &Interval {
        &self.intervals[attr]
    }

    /// The attribute type recorded for `attr`.
    #[inline]
    pub fn attr_type(&self, attr: usize) -> AttrType {
        self.types[attr]
    }

    /// Replace the interval on `attr`.
    pub fn set_interval(&mut self, attr: usize, iv: Interval) {
        self.intervals[attr] = iv;
    }

    /// Narrow by one atom.
    pub fn intersect_atom(&mut self, atom: &Atom) {
        self.intervals[atom.attr] = self.intervals[atom.attr].intersect(&atom.interval);
    }

    /// Narrow by a set of atoms, materializing a new region only if some
    /// atom actually tightens an interval. `None` means every atom was
    /// already implied (`self ∩ atoms = self`), so callers can keep using
    /// `self` — the allocation-avoidance backbone of the decomposition DFS,
    /// where most branch atoms repeat intervals the prefix already fixed.
    pub fn tightened_by<'a>(&self, atoms: impl IntoIterator<Item = &'a Atom>) -> Option<Region> {
        let mut out: Option<Region> = None;
        for atom in atoms {
            let cur = out
                .as_ref()
                .map_or_else(|| self.interval(atom.attr), |r| r.interval(atom.attr));
            let narrowed = cur.intersect(&atom.interval);
            if narrowed != *cur {
                out.get_or_insert_with(|| self.clone())
                    .set_interval(atom.attr, narrowed);
            }
        }
        out
    }

    /// Narrow by another region (pointwise interval intersection).
    pub fn intersect(&mut self, other: &Region) {
        debug_assert_eq!(self.width(), other.width());
        for (mine, theirs) in self.intervals.iter_mut().zip(&other.intervals) {
            *mine = mine.intersect(theirs);
        }
    }

    /// The intersection as a new region.
    pub fn intersected(&self, other: &Region) -> Region {
        let mut out = self.clone();
        out.intersect(other);
        out
    }

    /// True if any attribute's interval is empty for its type.
    pub fn is_empty(&self) -> bool {
        self.intervals
            .iter()
            .zip(self.types.iter())
            .any(|(iv, ty)| iv.is_empty(*ty))
    }

    /// Membership test for an encoded row.
    pub fn contains_row(&self, row: &[f64]) -> bool {
        debug_assert_eq!(row.len(), self.width());
        self.intervals
            .iter()
            .zip(row)
            .all(|(iv, v)| iv.contains(*v))
    }

    /// True if `self ⊇ other`, i.e. every point of `other` lies in `self`.
    /// For boxes this is per-attribute interval containment.
    pub fn contains_region(&self, other: &Region) -> bool {
        if other.is_empty() {
            return true;
        }
        self.intervals
            .iter()
            .zip(&other.intervals)
            .zip(self.types.iter())
            .all(|((a, b), ty)| a.contains_interval(b, *ty))
    }

    /// True if the boxes share at least one point: every attribute's
    /// intervals meet. Decided axis by axis, without building the
    /// intersection.
    pub fn overlaps(&self, other: &Region) -> bool {
        debug_assert_eq!(self.width(), other.width());
        self.intervals
            .iter()
            .zip(&other.intervals)
            .zip(self.types.iter())
            .all(|((a, b), ty)| !a.intersect(b).is_empty(*ty))
    }

    /// A representative point of the region, if non-empty. Serves as a
    /// satisfiability witness in tests.
    pub fn pick_witness(&self) -> Option<Vec<f64>> {
        let mut row = Vec::with_capacity(self.width());
        for (iv, ty) in self.intervals.iter().zip(self.types.iter()) {
            row.push(iv.pick(*ty)?);
        }
        Some(row)
    }

    /// Human-readable form using schema names.
    pub fn display<'a>(&'a self, schema: &'a Schema) -> impl fmt::Display + 'a {
        struct D<'a>(&'a Region, &'a Schema);
        impl fmt::Display for D<'_> {
            fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
                write!(f, "{{")?;
                let mut first = true;
                for (i, iv) in self.0.intervals.iter().enumerate() {
                    if *iv == Interval::FULL {
                        continue;
                    }
                    if !first {
                        write!(f, ", ")?;
                    }
                    first = false;
                    write!(f, "{}: {}", self.1.attr_name(i), iv)?;
                }
                write!(f, "}}")
            }
        }
        D(self, schema)
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    fn schema() -> Schema {
        Schema::new(vec![
            ("t", AttrType::Int),
            ("branch", AttrType::Cat),
            ("price", AttrType::Float),
        ])
    }

    #[test]
    fn full_region_contains_everything() {
        let r = Region::full(&schema());
        assert!(r.contains_row(&[1e9, 42.0, -5.5]));
        assert!(!r.is_empty());
    }

    #[test]
    fn intersect_atoms_narrows() {
        let s = schema();
        let mut r = Region::full(&s);
        r.intersect_atom(&Atom::bucket(0, 0.0, 10.0));
        r.intersect_atom(&Atom::eq(1, 3.0));
        assert!(r.contains_row(&[5.0, 3.0, 0.0]));
        assert!(!r.contains_row(&[10.0, 3.0, 0.0]));
        assert!(!r.contains_row(&[5.0, 2.0, 0.0]));
    }

    #[test]
    fn empty_when_discrete_gap() {
        let s = schema();
        let mut r = Region::full(&s);
        // branch in (2, 3) over a categorical domain: no code fits
        r.intersect_atom(&Atom::new(1, Interval::open(2.0, 3.0)));
        assert!(r.is_empty());
    }

    #[test]
    fn containment_and_overlap() {
        let s = schema();
        let mut big = Region::full(&s);
        big.intersect_atom(&Atom::between(2, 0.0, 100.0));
        let mut small = big.clone();
        small.intersect_atom(&Atom::between(2, 10.0, 20.0));
        assert!(big.contains_region(&small));
        assert!(!small.contains_region(&big));
        assert!(big.overlaps(&small));

        let mut disjoint = Region::full(&s);
        disjoint.intersect_atom(&Atom::between(2, 200.0, 300.0));
        assert!(!big.overlaps(&disjoint));
    }

    #[test]
    fn empty_region_contained_in_anything() {
        let s = schema();
        let mut empty = Region::full(&s);
        empty.intersect_atom(&Atom::between(2, 10.0, 0.0));
        assert!(empty.is_empty());
        let mut tiny = Region::full(&s);
        tiny.intersect_atom(&Atom::eq(1, 0.0));
        assert!(tiny.contains_region(&empty));
    }

    #[test]
    fn tightened_by_detects_no_ops() {
        let s = schema();
        let mut r = Region::full(&s);
        r.intersect_atom(&Atom::bucket(0, 0.0, 10.0));
        // an implied atom must not allocate a new region
        assert!(r.tightened_by(&[Atom::bucket(0, -5.0, 20.0)]).is_none());
        assert!(r.tightened_by(std::iter::empty()).is_none());
        // a genuinely narrowing atom must
        let t = r.tightened_by(&[Atom::bucket(0, 2.0, 5.0)]).unwrap();
        assert_eq!(*t.interval(0), Interval::half_open(2.0, 5.0));
        // and the original is untouched
        assert_eq!(*r.interval(0), Interval::half_open(0.0, 10.0));
    }

    #[test]
    fn witness_lies_inside() {
        let s = schema();
        let mut r = Region::full(&s);
        r.intersect_atom(&Atom::bucket(0, 5.0, 6.0));
        r.intersect_atom(&Atom::new(2, Interval::open(0.0, 1.0)));
        let w = r.pick_witness().unwrap();
        assert!(r.contains_row(&w));
    }

    #[test]
    fn witness_none_when_empty() {
        let s = schema();
        let mut r = Region::full(&s);
        r.intersect_atom(&Atom::new(1, Interval::open(2.0, 3.0)));
        assert_eq!(r.pick_witness(), None);
    }
}
