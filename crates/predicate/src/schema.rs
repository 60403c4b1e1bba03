use std::fmt;
use std::sync::Arc;

/// The logical type of an attribute.
///
/// Discreteness matters for interval algebra: the open interval `(1, 2)`
/// is empty over the integers but not over the reals, and the complement
/// of `x = 5` over a discrete domain is `x ≤ 4 ∨ x ≥ 6` with *closed*
/// endpoints.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Hash)]
pub enum AttrType {
    /// 64-bit integers (timestamps, counts, ids).
    Int,
    /// 64-bit floats (measurements, prices).
    Float,
    /// Dictionary-encoded categoricals; behave like non-negative integers.
    Cat,
}

impl AttrType {
    /// True for types whose domain is a discrete integer grid.
    #[inline]
    pub fn is_discrete(self) -> bool {
        !matches!(self, AttrType::Float)
    }
}

/// An ordered list of named, typed attributes.
///
/// Attribute identity throughout the library is the positional index into
/// the schema; names exist for display and for resolving user queries.
/// Names and types are shared behind `Arc`, so cloning a schema, and every
/// [`crate::Region`] built over it, copies pointers instead of the lists.
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct Schema {
    names: Arc<[String]>,
    types: Arc<[AttrType]>,
}

impl Schema {
    /// Build a schema from `(name, type)` pairs.
    ///
    /// # Panics
    /// Panics if two attributes share a name, since later name lookups
    /// would be ambiguous.
    pub fn new<S: Into<String>>(attrs: Vec<(S, AttrType)>) -> Self {
        let mut names = Vec::with_capacity(attrs.len());
        let mut types = Vec::with_capacity(attrs.len());
        for (name, ty) in attrs {
            let name = name.into();
            assert!(
                !names.contains(&name),
                "duplicate attribute name `{name}` in schema"
            );
            names.push(name);
            types.push(ty);
        }
        Schema {
            names: names.into(),
            types: types.into(),
        }
    }

    /// Number of attributes.
    #[inline]
    pub fn width(&self) -> usize {
        self.names.len()
    }

    /// The type of attribute `idx`.
    #[inline]
    pub fn attr_type(&self, idx: usize) -> AttrType {
        self.types[idx]
    }

    /// The shared per-attribute type list.
    pub(crate) fn types(&self) -> &Arc<[AttrType]> {
        &self.types
    }

    /// The name of attribute `idx`.
    #[inline]
    pub fn attr_name(&self, idx: usize) -> &str {
        &self.names[idx]
    }

    /// Resolve an attribute name to its index.
    pub fn index_of(&self, name: &str) -> Option<usize> {
        self.names.iter().position(|n| n == name)
    }

    /// Resolve an attribute name, panicking with a helpful message if it
    /// does not exist. Intended for test and example code.
    pub fn expect_index(&self, name: &str) -> usize {
        self.index_of(name)
            .unwrap_or_else(|| panic!("no attribute named `{name}` in schema {self}"))
    }

    /// Iterate over `(index, name, type)` triples.
    pub fn iter(&self) -> impl Iterator<Item = (usize, &str, AttrType)> + '_ {
        self.names
            .iter()
            .zip(self.types.iter())
            .enumerate()
            .map(|(i, (n, t))| (i, n.as_str(), *t))
    }
}

impl fmt::Display for Schema {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        write!(f, "(")?;
        for (i, (name, ty)) in self.names.iter().zip(self.types.iter()).enumerate() {
            if i > 0 {
                write!(f, ", ")?;
            }
            write!(f, "{name}: {ty:?}")?;
        }
        write!(f, ")")
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    fn sample() -> Schema {
        Schema::new(vec![
            ("utc", AttrType::Int),
            ("branch", AttrType::Cat),
            ("price", AttrType::Float),
        ])
    }

    #[test]
    fn lookup_by_name() {
        let s = sample();
        assert_eq!(s.width(), 3);
        assert_eq!(s.index_of("price"), Some(2));
        assert_eq!(s.index_of("missing"), None);
        assert_eq!(s.attr_name(1), "branch");
        assert_eq!(s.attr_type(0), AttrType::Int);
    }

    #[test]
    #[should_panic(expected = "duplicate attribute name")]
    fn duplicate_names_rejected() {
        Schema::new(vec![("a", AttrType::Int), ("a", AttrType::Float)]);
    }

    #[test]
    fn discreteness_by_type() {
        assert!(AttrType::Int.is_discrete());
        assert!(AttrType::Cat.is_discrete());
        assert!(!AttrType::Float.is_discrete());
    }

    #[test]
    fn iter_yields_all() {
        let s = sample();
        let got: Vec<_> = s.iter().map(|(i, n, _)| (i, n.to_string())).collect();
        assert_eq!(
            got,
            vec![
                (0, "utc".to_string()),
                (1, "branch".to_string()),
                (2, "price".to_string())
            ]
        );
    }
}
