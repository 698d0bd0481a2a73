//! Categorical label spaces.
//!
//! A [`LabelSpace`] names the `k` possible answers of a single-choice task
//! ("yes"/"no", "positive"/"neutral"/"negative", …). Algorithms work with
//! dense label indices `0..k`; the space provides the mapping back to names.

use std::fmt;
use std::sync::Arc;

/// An immutable, cheaply-cloneable set of named labels.
///
/// Cloning a `LabelSpace` is an `Arc` bump, so tasks can share one space
/// without duplicating the name table.
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct LabelSpace {
    names: Arc<[String]>,
}

impl LabelSpace {
    /// Creates a label space from label names.
    ///
    /// # Panics
    /// Panics if `names` is empty — a zero-label classification task is
    /// meaningless and would make every downstream division by `k` unsound.
    pub fn new<I, S>(names: I) -> Self
    where
        I: IntoIterator<Item = S>,
        S: Into<String>,
    {
        let names: Vec<String> = names.into_iter().map(Into::into).collect();
        assert!(
            !names.is_empty(),
            "label space must contain at least one label"
        );
        Self {
            names: names.into(),
        }
    }

    /// A binary `{"no", "yes"}` space: index 0 = "no", index 1 = "yes".
    pub fn binary() -> Self {
        Self::new(["no", "yes"])
    }

    /// An anonymous space of `k` labels named `"c0".."c{k-1}"`.
    ///
    /// # Panics
    /// Panics if `k == 0`.
    pub fn anonymous(k: usize) -> Self {
        assert!(k > 0, "label space must contain at least one label");
        Self::new((0..k).map(|i| format!("c{i}")))
    }

    /// Number of labels in the space.
    #[inline]
    pub fn len(&self) -> usize {
        self.names.len()
    }

    /// Always false; spaces are non-empty by construction.
    #[inline]
    pub fn is_empty(&self) -> bool {
        false
    }

    /// Name of the label at `index`, or `None` if out of range.
    pub fn name(&self, index: u32) -> Option<&str> {
        self.names.get(index as usize).map(String::as_str)
    }

    /// Index of the label with the given name, or `None` if absent.
    pub fn index_of(&self, name: &str) -> Option<u32> {
        self.names.iter().position(|n| n == name).map(|i| i as u32)
    }

    /// True if `index` is a valid label index for this space.
    #[inline]
    pub fn contains(&self, index: u32) -> bool {
        (index as usize) < self.names.len()
    }

    /// Iterates over `(index, name)` pairs.
    pub fn iter(&self) -> impl Iterator<Item = (u32, &str)> {
        self.names
            .iter()
            .enumerate()
            .map(|(i, n)| (i as u32, n.as_str()))
    }
}

impl fmt::Display for LabelSpace {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        write!(f, "{{")?;
        for (i, name) in self.names.iter().enumerate() {
            if i > 0 {
                write!(f, ", ")?;
            }
            write!(f, "{name}")?;
        }
        write!(f, "}}")
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn binary_space_has_expected_layout() {
        let s = LabelSpace::binary();
        assert_eq!(s.len(), 2);
        assert_eq!(s.name(0), Some("no"));
        assert_eq!(s.name(1), Some("yes"));
        assert_eq!(s.index_of("yes"), Some(1));
        assert_eq!(s.index_of("maybe"), None);
        assert!(s.contains(1));
        assert!(!s.contains(2));
    }

    #[test]
    fn anonymous_space_names() {
        let s = LabelSpace::anonymous(3);
        assert_eq!(s.len(), 3);
        assert_eq!(s.name(2), Some("c2"));
        assert_eq!(s.index_of("c0"), Some(0));
    }

    #[test]
    #[should_panic(expected = "at least one label")]
    fn empty_space_panics() {
        let _ = LabelSpace::new(Vec::<String>::new());
    }

    #[test]
    fn clone_is_shallow_and_equal() {
        let a = LabelSpace::new(["x", "y"]);
        let b = a.clone();
        assert_eq!(a, b);
        // Arc-backed: the names slice is shared.
        assert!(std::ptr::eq(a.names.as_ptr(), b.names.as_ptr()));
    }

    #[test]
    fn display_lists_labels() {
        let s = LabelSpace::new(["cat", "dog"]);
        assert_eq!(s.to_string(), "{cat, dog}");
    }

    #[test]
    fn iter_yields_indexed_names() {
        let s = LabelSpace::new(["a", "b", "c"]);
        let v: Vec<(u32, &str)> = s.iter().collect();
        assert_eq!(v, vec![(0, "a"), (1, "b"), (2, "c")]);
    }
}
