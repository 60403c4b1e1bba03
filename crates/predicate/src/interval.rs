use crate::AttrType;
use std::fmt;
use std::ops::Deref;

/// A one-dimensional interval over the `f64` number line with independently
/// open or closed endpoints. `±∞` endpoints are always treated as open.
///
/// Interval semantics are *type-aware*: over a discrete ([`AttrType::Int`] /
/// [`AttrType::Cat`]) domain the open interval `(1, 2)` is empty and the
/// complement of `[3, 5]` is `(-∞, 2] ∪ [6, +∞)`; over [`AttrType::Float`]
/// neither holds. Methods that depend on this take the attribute type.
#[derive(Debug, Clone, Copy, PartialEq)]
pub struct Interval {
    /// Lower endpoint (may be `f64::NEG_INFINITY`).
    pub lo: f64,
    /// Upper endpoint (may be `f64::INFINITY`).
    pub hi: f64,
    /// Whether the lower endpoint is excluded.
    pub lo_open: bool,
    /// Whether the upper endpoint is excluded.
    pub hi_open: bool,
}

impl Interval {
    /// The interval `(-∞, +∞)`.
    pub const FULL: Interval = Interval {
        lo: f64::NEG_INFINITY,
        hi: f64::INFINITY,
        lo_open: true,
        hi_open: true,
    };

    /// A canonical empty interval.
    pub const EMPTY: Interval = Interval {
        lo: 1.0,
        hi: 0.0,
        lo_open: false,
        hi_open: false,
    };

    /// Construct with explicit endpoint openness.
    ///
    /// # Panics
    /// Panics if an endpoint is NaN; the library never produces NaN bounds.
    pub fn new(lo: f64, lo_open: bool, hi: f64, hi_open: bool) -> Self {
        assert!(!lo.is_nan() && !hi.is_nan(), "NaN interval endpoint");
        Interval {
            lo,
            hi,
            lo_open: lo_open || lo == f64::NEG_INFINITY,
            hi_open: hi_open || hi == f64::INFINITY,
        }
    }

    /// The closed interval `[lo, hi]`.
    pub fn closed(lo: f64, hi: f64) -> Self {
        Interval::new(lo, false, hi, false)
    }

    /// The open interval `(lo, hi)`.
    pub fn open(lo: f64, hi: f64) -> Self {
        Interval::new(lo, true, hi, true)
    }

    /// The half-open interval `[lo, hi)` — the natural form for time
    /// buckets like `Nov-11 ≤ utc < Nov-12` in the paper's running example.
    pub fn half_open(lo: f64, hi: f64) -> Self {
        Interval::new(lo, false, hi, true)
    }

    /// The degenerate point interval `[v, v]`, i.e. an equality predicate.
    pub fn point(v: f64) -> Self {
        Interval::closed(v, v)
    }

    /// `(-∞, v]` or `(-∞, v)`.
    pub fn at_most(v: f64, open: bool) -> Self {
        Interval::new(f64::NEG_INFINITY, true, v, open)
    }

    /// `[v, +∞)` or `(v, +∞)`.
    pub fn at_least(v: f64, open: bool) -> Self {
        Interval::new(v, open, f64::INFINITY, true)
    }

    /// True if `v` lies in the interval.
    #[inline]
    pub fn contains(&self, v: f64) -> bool {
        let above = if self.lo_open {
            v > self.lo
        } else {
            v >= self.lo
        };
        let below = if self.hi_open {
            v < self.hi
        } else {
            v <= self.hi
        };
        above && below
    }

    /// Snap endpoints to the integer grid for discrete attribute types.
    /// For `Float` the interval is returned unchanged.
    ///
    /// After normalization a non-empty discrete interval has closed integer
    /// endpoints, which makes emptiness and complement exact.
    pub fn normalize(&self, ty: AttrType) -> Interval {
        if !ty.is_discrete() {
            return *self;
        }
        let lo = if self.lo == f64::NEG_INFINITY {
            self.lo
        } else if self.lo_open {
            self.lo.floor() + 1.0
        } else {
            self.lo.ceil()
        };
        let hi = if self.hi == f64::INFINITY {
            self.hi
        } else if self.hi_open {
            self.hi.ceil() - 1.0
        } else {
            self.hi.floor()
        };
        Interval {
            lo,
            hi,
            lo_open: lo == f64::NEG_INFINITY,
            hi_open: hi == f64::INFINITY,
        }
    }

    /// True if the interval contains no point of the given domain type.
    pub fn is_empty(&self, ty: AttrType) -> bool {
        let n = self.normalize(ty);
        if n.lo > n.hi {
            return true;
        }
        n.lo == n.hi && (n.lo_open || n.hi_open)
    }

    /// Intersection (the tightest interval contained in both).
    pub fn intersect(&self, other: &Interval) -> Interval {
        let (lo, lo_open) = if self.lo > other.lo {
            (self.lo, self.lo_open)
        } else if other.lo > self.lo {
            (other.lo, other.lo_open)
        } else {
            (self.lo, self.lo_open || other.lo_open)
        };
        let (hi, hi_open) = if self.hi < other.hi {
            (self.hi, self.hi_open)
        } else if other.hi < self.hi {
            (other.hi, other.hi_open)
        } else {
            (self.hi, self.hi_open || other.hi_open)
        };
        Interval {
            lo,
            hi,
            lo_open,
            hi_open,
        }
    }

    /// True if `self ⊇ other` over the given domain type.
    ///
    /// Both sides are normalized first so that, e.g., `[0, 4]` contains
    /// `(0.5, 3.5)` over the integers (`[1, 3]`).
    pub fn contains_interval(&self, other: &Interval, ty: AttrType) -> bool {
        if other.is_empty(ty) {
            return true;
        }
        let a = self.normalize(ty);
        let b = other.normalize(ty);
        let lo_ok = a.lo < b.lo || (a.lo == b.lo && (!a.lo_open || b.lo_open));
        let hi_ok = a.hi > b.hi || (a.hi == b.hi && (!a.hi_open || b.hi_open));
        lo_ok && hi_ok
    }

    /// The complement within the full line, as up to two intervals.
    ///
    /// Over discrete types the pieces have closed stepped endpoints
    /// (`¬[3,5] = (-∞,2] ∪ [6,∞)`); over floats they share the endpoint
    /// with flipped openness. The pieces are held inline, so taking a
    /// complement never allocates.
    pub fn complement(&self, ty: AttrType) -> Complement {
        let mut out = Complement {
            pieces: [Interval::EMPTY; 2],
            len: 0,
        };
        if self.is_empty(ty) {
            out.push(Interval::FULL);
            return out;
        }
        let n = self.normalize(ty);
        if n.lo != f64::NEG_INFINITY {
            let piece = if ty.is_discrete() {
                Interval::at_most(n.lo - 1.0, false)
            } else {
                Interval::at_most(n.lo, !n.lo_open)
            };
            if !piece.is_empty(ty) {
                out.push(piece);
            }
        }
        if n.hi != f64::INFINITY {
            let piece = if ty.is_discrete() {
                Interval::at_least(n.hi + 1.0, false)
            } else {
                Interval::at_least(n.hi, !n.hi_open)
            };
            if !piece.is_empty(ty) {
                out.push(piece);
            }
        }
        out
    }

    /// The least upper bound of values in the interval (its supremum).
    /// For an open float upper endpoint the supremum is not attained but is
    /// still a valid *bound* for aggregates.
    #[inline]
    pub fn sup(&self) -> f64 {
        self.hi
    }

    /// The greatest lower bound of values in the interval.
    #[inline]
    pub fn inf(&self) -> f64 {
        self.lo
    }

    /// True if both endpoints are finite.
    #[inline]
    pub fn is_bounded(&self) -> bool {
        self.lo.is_finite() && self.hi.is_finite()
    }

    /// A representative point inside the interval, if one exists.
    /// Used by tests and by witnesses for satisfiable cells.
    pub fn pick(&self, ty: AttrType) -> Option<f64> {
        if self.is_empty(ty) {
            return None;
        }
        let n = self.normalize(ty);
        if ty.is_discrete() {
            return Some(if n.lo.is_finite() {
                n.lo
            } else if n.hi.is_finite() {
                n.hi
            } else {
                0.0
            });
        }
        if n.lo.is_finite() && n.hi.is_finite() {
            if !n.lo_open {
                return Some(n.lo);
            }
            if !n.hi_open {
                return Some(n.hi);
            }
            return Some(n.lo + (n.hi - n.lo) / 2.0);
        }
        if n.lo.is_finite() {
            return Some(if n.lo_open { n.lo + 1.0 } else { n.lo });
        }
        if n.hi.is_finite() {
            return Some(if n.hi_open { n.hi - 1.0 } else { n.hi });
        }
        Some(0.0)
    }
}

/// The pieces of [`Interval::complement`], at most two, stored inline.
/// Derefs to a slice of the pieces, lowest first.
#[derive(Debug, Clone, Copy)]
pub struct Complement {
    pieces: [Interval; 2],
    len: usize,
}

impl Complement {
    fn push(&mut self, piece: Interval) {
        self.pieces[self.len] = piece;
        self.len += 1;
    }
}

impl Deref for Complement {
    type Target = [Interval];

    fn deref(&self) -> &[Interval] {
        &self.pieces[..self.len]
    }
}

impl fmt::Display for Interval {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        write!(
            f,
            "{}{}, {}{}",
            if self.lo_open { '(' } else { '[' },
            self.lo,
            self.hi,
            if self.hi_open { ')' } else { ']' },
        )
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    const F: AttrType = AttrType::Float;
    const I: AttrType = AttrType::Int;

    #[test]
    fn contains_respects_openness() {
        let iv = Interval::half_open(1.0, 2.0);
        assert!(iv.contains(1.0));
        assert!(iv.contains(1.5));
        assert!(!iv.contains(2.0));
    }

    #[test]
    fn discrete_open_unit_interval_is_empty() {
        let iv = Interval::open(1.0, 2.0);
        assert!(iv.is_empty(I));
        assert!(!iv.is_empty(F));
    }

    #[test]
    fn discrete_normalization_steps_fractional_endpoints() {
        // x > 1.5 over ints means x >= 2
        let iv = Interval::at_least(1.5, true).normalize(I);
        assert_eq!(iv.lo, 2.0);
        assert!(!iv.lo_open);
        // x < 4.5 over ints means x <= 4
        let iv = Interval::at_most(4.5, true).normalize(I);
        assert_eq!(iv.hi, 4.0);
        assert!(!iv.hi_open);
    }

    #[test]
    fn float_empty_cases() {
        assert!(Interval::open(3.0, 3.0).is_empty(F));
        assert!(Interval::new(3.0, false, 3.0, true).is_empty(F));
        assert!(!Interval::point(3.0).is_empty(F));
        assert!(Interval::closed(5.0, 4.0).is_empty(F));
    }

    #[test]
    fn intersect_takes_tighter_bounds() {
        let a = Interval::closed(0.0, 10.0);
        let b = Interval::open(5.0, 20.0);
        let c = a.intersect(&b);
        assert_eq!((c.lo, c.hi), (5.0, 10.0));
        assert!(c.lo_open);
        assert!(!c.hi_open);
    }

    #[test]
    fn intersect_equal_endpoint_open_wins() {
        let a = Interval::closed(0.0, 5.0);
        let b = Interval::new(0.0, true, 5.0, false);
        let c = a.intersect(&b);
        assert!(c.lo_open);
        assert!(!c.hi_open);
    }

    #[test]
    fn containment_float() {
        let big = Interval::closed(0.0, 10.0);
        assert!(big.contains_interval(&Interval::open(0.0, 10.0), F));
        assert!(!Interval::open(0.0, 10.0).contains_interval(&big, F));
        assert!(Interval::FULL.contains_interval(&big, F));
    }

    #[test]
    fn containment_discrete_normalizes() {
        let a = Interval::closed(0.0, 4.0);
        let b = Interval::open(-0.5, 4.5); // ints: [0,4]
        assert!(a.contains_interval(&b, I));
        assert!(b.contains_interval(&a, I));
    }

    #[test]
    fn complement_float_closed() {
        let pieces = Interval::closed(2.0, 5.0).complement(F);
        assert_eq!(pieces.len(), 2);
        assert!(pieces[0].contains(1.999));
        assert!(!pieces[0].contains(2.0));
        assert!(!pieces[1].contains(5.0));
        assert!(pieces[1].contains(5.001));
    }

    #[test]
    fn complement_discrete_steps() {
        let pieces = Interval::closed(2.0, 5.0).complement(I);
        assert_eq!(pieces.len(), 2);
        assert!(pieces[0].contains(1.0));
        assert!(!pieces[0].contains(2.0));
        assert_eq!(pieces[0].hi, 1.0);
        assert_eq!(pieces[1].lo, 6.0);
    }

    #[test]
    fn complement_of_empty_is_full() {
        let pieces = Interval::EMPTY.complement(F);
        assert_eq!(*pieces, [Interval::FULL]);
    }

    #[test]
    fn complement_of_discrete_point() {
        let pieces = Interval::point(5.0).complement(AttrType::Cat);
        assert_eq!(pieces.len(), 2);
        assert!(pieces[0].contains(4.0));
        assert!(pieces[1].contains(6.0));
        assert!(!pieces.iter().any(|p| p.contains(5.0)));
    }

    #[test]
    fn complement_of_half_line() {
        let pieces = Interval::at_most(3.0, false).complement(F);
        assert_eq!(pieces.len(), 1);
        assert!(pieces[0].contains(3.0001));
        assert!(!pieces[0].contains(3.0));
    }

    #[test]
    fn pick_returns_member() {
        for iv in [
            Interval::closed(1.0, 2.0),
            Interval::open(1.0, 2.0),
            Interval::at_least(5.0, true),
            Interval::at_most(-3.0, false),
            Interval::FULL,
        ] {
            let p = iv.pick(F).unwrap();
            assert!(iv.contains(p), "{iv} should contain pick {p}");
        }
        assert_eq!(Interval::EMPTY.pick(F), None);
        assert_eq!(Interval::open(1.0, 2.0).pick(I), None);
    }

    #[test]
    fn display_renders_brackets() {
        assert_eq!(Interval::half_open(1.0, 2.0).to_string(), "[1, 2)");
    }
}
