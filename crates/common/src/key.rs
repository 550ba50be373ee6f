//! Composite record keys.
//!
//! A [`Key`] is an ordered tuple of [`Value`]s extracted from a row,
//! used as the primary-key of the per-table B-tree and as the lookup
//! key of secondary indexes (the join-attribute and S-key indexes the
//! paper prescribes in §4.1). Keys compare lexicographically because
//! `Value` itself is totally ordered.

use crate::value::Value;
use std::fmt;

/// An ordered tuple of values identifying a record (or an index entry).
#[derive(Clone, PartialEq, Eq, PartialOrd, Ord, Hash)]
pub struct Key(pub Vec<Value>);

impl Key {
    /// Build a key from any iterable of values.
    pub fn new(values: impl IntoIterator<Item = Value>) -> Key {
        Key(values.into_iter().collect())
    }

    /// A single-column key.
    pub fn single(v: impl Into<Value>) -> Key {
        Key(vec![v.into()])
    }

    /// Extract a key from `row` by column positions.
    ///
    /// # Panics
    /// Panics if any position is out of bounds; callers validate column
    /// positions against the schema when indexes are created.
    pub fn project(row: &[Value], cols: &[usize]) -> Key {
        Key(cols.iter().map(|&c| row[c].clone()).collect())
    }

    /// Number of components.
    pub fn arity(&self) -> usize {
        self.0.len()
    }

    /// Component values.
    pub fn values(&self) -> &[Value] {
        &self.0
    }

    /// Concatenate two keys (used to build the composite primary key of
    /// a many-to-many FOJ result table, paper §4.2).
    #[must_use]
    pub fn concat(&self, other: &Key) -> Key {
        let mut v = self.0.clone();
        v.extend(other.0.iter().cloned());
        Key(v)
    }
}

impl fmt::Debug for Key {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        write!(f, "(")?;
        for (i, v) in self.0.iter().enumerate() {
            if i > 0 {
                write!(f, ", ")?;
            }
            write!(f, "{v:?}")?;
        }
        write!(f, ")")
    }
}

impl fmt::Display for Key {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        fmt::Debug::fmt(self, f)
    }
}

impl From<Vec<Value>> for Key {
    fn from(v: Vec<Value>) -> Self {
        Key(v)
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn project_extracts_columns() {
        let row = vec![Value::Int(1), Value::str("a"), Value::Int(9)];
        assert_eq!(
            Key::project(&row, &[2, 0]),
            Key::new([Value::Int(9), Value::Int(1)])
        );
    }

    #[test]
    fn lexicographic_order() {
        let a = Key::new([Value::Int(1), Value::Int(2)]);
        let b = Key::new([Value::Int(1), Value::Int(3)]);
        let c = Key::new([Value::Int(2), Value::Int(0)]);
        assert!(a < b && b < c);
    }

    #[test]
    fn concat_appends() {
        let a = Key::single(1);
        let b = Key::single("x");
        assert_eq!(a.concat(&b), Key::new([Value::Int(1), Value::str("x")]));
        assert_eq!(a.arity(), 1);
    }

    #[test]
    fn debug_format() {
        let k = Key::new([Value::Int(1), Value::str("a")]);
        assert_eq!(format!("{k:?}"), "(1, \"a\")");
    }
}
