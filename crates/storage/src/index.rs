//! Secondary indexes.
//!
//! The preparation step of a transformation creates the indexes the
//! propagation rules rely on (§4.1): an index on the join attributes of
//! the transformed table, and one on the S-key attributes, providing
//! "fast lookup on all T-records that are affected by an operation on
//! an S-record". This module implements those as ordinary non-unique
//! B-tree secondary indexes mapping an index key to the set of primary
//! keys carrying it.
//!
//! There are no unique secondary indexes. The paper warns (§4.1) that
//! unique constraints on S-attributes of a FOJ target "should be
//! avoided since a record in S is likely to occur multiple times in T"
//! — violating one aborts the transformation — and no operator creates
//! one, so index maintenance cannot fail (DESIGN.md §8).

use morph_common::{Key, Value};
use std::collections::{BTreeMap, BTreeSet};

/// A secondary index over one or more columns.
#[derive(Debug)]
pub struct SecondaryIndex {
    /// Index name (unique within the table).
    pub name: String,
    /// Indexed column positions, in key order.
    pub cols: Vec<usize>,
    map: BTreeMap<Key, BTreeSet<Key>>,
}

impl SecondaryIndex {
    /// Create an empty index.
    pub fn new(name: &str, cols: Vec<usize>) -> SecondaryIndex {
        SecondaryIndex {
            name: name.to_owned(),
            cols,
            map: BTreeMap::new(),
        }
    }

    /// The index key of a row.
    pub fn key_of(&self, row: &[Value]) -> Key {
        Key::project(row, &self.cols)
    }

    /// Register `pk` under the index key of `row`.
    pub fn insert(&mut self, row: &[Value], pk: &Key) {
        self.map
            .entry(self.key_of(row))
            .or_default()
            .insert(pk.clone());
    }

    /// Remove `pk` from under the index key of `row`.
    pub fn remove(&mut self, row: &[Value], pk: &Key) {
        let ik = self.key_of(row);
        if let Some(set) = self.map.get_mut(&ik) {
            set.remove(pk);
            if set.is_empty() {
                self.map.remove(&ik);
            }
        }
    }

    /// All primary keys whose rows carry index key `ik`.
    pub fn lookup(&self, ik: &Key) -> Vec<Key> {
        self.map
            .get(ik)
            .map(|s| s.iter().cloned().collect())
            .unwrap_or_default()
    }

    /// Borrowed view of the primary-key set under `ik` (allocation-free
    /// probe for the hot propagation-rule path).
    pub fn pk_set(&self, ik: &Key) -> Option<&BTreeSet<Key>> {
        self.map.get(ik)
    }

    /// Whether any row carries index key `ik`.
    pub fn contains(&self, ik: &Key) -> bool {
        self.map.contains_key(ik)
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    fn row(pk: i64, j: i64) -> Vec<Value> {
        vec![Value::Int(pk), Value::Int(j)]
    }

    #[test]
    fn insert_lookup_remove() {
        let mut idx = SecondaryIndex::new("j", vec![1]);
        idx.insert(&row(1, 10), &Key::single(1));
        idx.insert(&row(2, 10), &Key::single(2));
        idx.insert(&row(3, 20), &Key::single(3));

        assert_eq!(
            idx.lookup(&Key::single(10)),
            vec![Key::single(1), Key::single(2)]
        );

        idx.remove(&row(1, 10), &Key::single(1));
        assert_eq!(idx.lookup(&Key::single(10)), vec![Key::single(2)]);
        idx.remove(&row(2, 10), &Key::single(2));
        assert!(!idx.contains(&Key::single(10)));
        assert_eq!(idx.lookup(&Key::single(20)), vec![Key::single(3)]);
    }

    #[test]
    fn remove_missing_is_noop() {
        let mut idx = SecondaryIndex::new("j", vec![1]);
        idx.remove(&row(1, 10), &Key::single(1));
        assert!(!idx.contains(&Key::single(10)));
    }

    #[test]
    fn null_index_keys_group_together() {
        // FOJ null-extended rows all share the NULL index key, which is
        // how rule lookups find t_null_x records.
        let mut idx = SecondaryIndex::new("j", vec![1]);
        idx.insert(&[Value::Int(1), Value::Null], &Key::single(1));
        idx.insert(&[Value::Int(2), Value::Null], &Key::single(2));
        assert_eq!(
            idx.lookup(&Key::single(Value::Null)),
            vec![Key::single(1), Key::single(2)]
        );
    }

    #[test]
    fn composite_index_keys() {
        let mut idx = SecondaryIndex::new("c", vec![0, 1]);
        idx.insert(&row(1, 10), &Key::single(1));
        assert!(idx.contains(&Key::new([Value::Int(1), Value::Int(10)])));
        assert!(!idx.contains(&Key::new([Value::Int(10), Value::Int(1)])));
    }
}
