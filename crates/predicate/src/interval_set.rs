use crate::{AttrType, Interval};

/// A union of disjoint, sorted intervals over one attribute.
///
/// Used by PC generators to carve attribute domains into buckets and by the
/// histogram baseline; the cell SAT solver works on single intervals.
#[derive(Debug, Clone, PartialEq, Default)]
pub struct IntervalSet {
    pieces: Vec<Interval>,
}

impl IntervalSet {
    /// The empty set.
    pub fn empty() -> Self {
        IntervalSet { pieces: Vec::new() }
    }

    /// The full line.
    pub fn full() -> Self {
        IntervalSet {
            pieces: vec![Interval::FULL],
        }
    }

    /// Build from arbitrary intervals, merging overlaps and dropping empty
    /// pieces (with respect to the given attribute type).
    pub fn from_intervals(ivs: impl IntoIterator<Item = Interval>, ty: AttrType) -> Self {
        let mut pieces: Vec<Interval> = ivs
            .into_iter()
            .map(|iv| iv.normalize(ty))
            .filter(|iv| !iv.is_empty(ty))
            .collect();
        pieces.sort_by(|a, b| {
            a.lo.partial_cmp(&b.lo)
                .expect("interval endpoints are never NaN")
                .then_with(|| b.lo_open.cmp(&a.lo_open))
        });
        let mut merged: Vec<Interval> = Vec::with_capacity(pieces.len());
        for iv in pieces.drain(..) {
            match merged.last_mut() {
                Some(last) if touches(last, &iv, ty) => {
                    if iv.hi > last.hi || (iv.hi == last.hi && !iv.hi_open) {
                        last.hi = iv.hi;
                        last.hi_open = iv.hi_open;
                    }
                }
                _ => merged.push(iv),
            }
        }
        IntervalSet { pieces: merged }
    }

    /// The disjoint pieces in ascending order.
    pub fn pieces(&self) -> &[Interval] {
        &self.pieces
    }

    /// True if no point belongs to the set.
    pub fn is_empty(&self) -> bool {
        self.pieces.is_empty()
    }

    /// Membership test.
    pub fn contains(&self, v: f64) -> bool {
        // pieces are sorted; linear scan is fine for the small sets we use.
        self.pieces.iter().any(|iv| iv.contains(v))
    }

    /// Intersect every piece with `iv`.
    pub fn intersect_interval(&self, iv: &Interval, ty: AttrType) -> IntervalSet {
        IntervalSet::from_intervals(self.pieces.iter().map(|p| p.intersect(iv)), ty)
    }

    /// Set union.
    pub fn union(&self, other: &IntervalSet, ty: AttrType) -> IntervalSet {
        IntervalSet::from_intervals(self.pieces.iter().chain(other.pieces.iter()).copied(), ty)
    }

    /// Subtract `iv` from the set.
    pub fn subtract_interval(&self, iv: &Interval, ty: AttrType) -> IntervalSet {
        let mut out = Vec::new();
        for p in &self.pieces {
            for c in iv.complement(ty).iter() {
                let piece = p.intersect(c);
                if !piece.is_empty(ty) {
                    out.push(piece);
                }
            }
            if iv.is_empty(ty) {
                out.push(*p);
            }
        }
        IntervalSet::from_intervals(out, ty)
    }
}

/// Whether two sorted-by-lo intervals overlap or are adjacent enough to
/// merge into one piece.
fn touches(a: &Interval, b: &Interval, ty: AttrType) -> bool {
    debug_assert!(a.lo <= b.lo);
    if b.lo < a.hi {
        return true;
    }
    if b.lo == a.hi {
        // [1,2] + [2,3] merge; [1,2) + (2,3] do not.
        return !(a.hi_open && b.lo_open);
    }
    // adjacent integers merge over discrete domains: [1,2] + [3,4] = [1,4]
    ty.is_discrete() && a.hi.is_finite() && b.lo.is_finite() && b.lo == a.hi + 1.0
}

#[cfg(test)]
mod tests {
    use super::*;

    const F: AttrType = AttrType::Float;
    const I: AttrType = AttrType::Int;

    #[test]
    fn merges_overlapping() {
        let s = IntervalSet::from_intervals(
            vec![Interval::closed(0.0, 2.0), Interval::closed(1.0, 3.0)],
            F,
        );
        assert_eq!(s.pieces().len(), 1);
        assert_eq!(s.pieces()[0], Interval::closed(0.0, 3.0));
    }

    #[test]
    fn keeps_disjoint() {
        let s = IntervalSet::from_intervals(
            vec![Interval::closed(0.0, 1.0), Interval::closed(2.0, 3.0)],
            F,
        );
        assert_eq!(s.pieces().len(), 2);
        assert!(s.contains(0.5));
        assert!(!s.contains(1.5));
        assert!(s.contains(2.0));
    }

    #[test]
    fn adjacent_integers_merge() {
        let s = IntervalSet::from_intervals(
            vec![Interval::closed(1.0, 2.0), Interval::closed(3.0, 4.0)],
            I,
        );
        assert_eq!(s.pieces().len(), 1);
    }

    #[test]
    fn adjacent_floats_do_not_merge_when_open() {
        let s = IntervalSet::from_intervals(
            vec![Interval::half_open(0.0, 1.0), Interval::open(1.0, 2.0)],
            F,
        );
        assert_eq!(s.pieces().len(), 2);
        assert!(!s.contains(1.0));
    }

    #[test]
    fn half_open_chain_merges() {
        let s = IntervalSet::from_intervals(
            vec![Interval::half_open(0.0, 1.0), Interval::half_open(1.0, 2.0)],
            F,
        );
        assert_eq!(s.pieces().len(), 1);
        assert!(s.contains(1.0));
        assert!(!s.contains(2.0));
    }

    #[test]
    fn subtract_splits() {
        let s = IntervalSet::from_intervals(vec![Interval::closed(0.0, 10.0)], F)
            .subtract_interval(&Interval::closed(3.0, 4.0), F);
        assert_eq!(s.pieces().len(), 2);
        assert!(s.contains(2.9));
        assert!(!s.contains(3.0));
        assert!(!s.contains(4.0));
        assert!(s.contains(4.1));
    }

    #[test]
    fn subtract_empty_is_noop() {
        let orig = IntervalSet::from_intervals(vec![Interval::closed(0.0, 1.0)], F);
        let s = orig.subtract_interval(&Interval::EMPTY, F);
        assert_eq!(s, orig);
    }

    #[test]
    fn union_and_intersect() {
        let a = IntervalSet::from_intervals(vec![Interval::closed(0.0, 2.0)], F);
        let b = IntervalSet::from_intervals(vec![Interval::closed(5.0, 7.0)], F);
        let u = a.union(&b, F);
        assert_eq!(u.pieces().len(), 2);
        let i = u.intersect_interval(&Interval::closed(1.0, 6.0), F);
        assert_eq!(i.pieces().len(), 2);
        assert!(i.contains(1.5));
        assert!(i.contains(5.5));
        assert!(!i.contains(3.0));
    }
}
