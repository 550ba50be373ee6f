//! The catalog: name → table resolution, creation, drop, rename.
//!
//! User transactions resolve tables by *name* on every operation; the
//! synchronization step retargets a name (or drops the source names) so
//! that "new transactions are given access to the new tables only"
//! (§3.4) without the clients changing anything.
//!
//! Nothing caches a resolution that a structural change (create, drop,
//! rename) could invalidate, so the catalog keeps no version number of
//! its structure: the log propagator resolves its sources by id once
//! and keeps them, since a migration's sources and their schemas do not
//! change while it propagates.

use crate::table::Table;
use morph_common::{DbError, DbResult, Schema, TableId};
use parking_lot::RwLock;
use std::collections::HashMap;
use std::sync::atomic::{AtomicBool, Ordering};
use std::sync::Arc;

#[derive(Default)]
struct CatalogInner {
    by_name: HashMap<String, TableId>,
    tables: HashMap<TableId, Arc<Table>>,
    next_id: u32,
}

/// Thread-safe table catalog.
#[derive(Default)]
pub struct Catalog {
    inner: RwLock<CatalogInner>,
    /// When set (MVCC enabled on the owning database), every table
    /// created from then on — including transformation targets created
    /// by preparation steps — starts with versioning enabled, so
    /// snapshot readers keep working across a cutover.
    versioning_default: AtomicBool,
}

impl Catalog {
    /// Empty catalog.
    pub fn new() -> Catalog {
        Catalog::default()
    }

    /// Create a table. Fails if the name is taken.
    pub fn create_table(&self, name: &str, schema: Schema) -> DbResult<Arc<Table>> {
        let mut inner = self.inner.write();
        if inner.by_name.contains_key(name) {
            return Err(DbError::TableExists(name.to_owned()));
        }
        inner.next_id += 1;
        let id = TableId(inner.next_id);
        let table = Arc::new(Table::new(id, name, schema));
        if self.versioning_default.load(Ordering::Acquire) {
            table.enable_versioning();
        }
        inner.by_name.insert(name.to_owned(), id);
        inner.tables.insert(id, Arc::clone(&table));
        Ok(table)
    }

    /// Create a table with a specific id (restart recovery rebuilds the
    /// catalog with original ids so log records resolve).
    pub fn create_table_with_id(
        &self,
        id: TableId,
        name: &str,
        schema: Schema,
    ) -> DbResult<Arc<Table>> {
        let mut inner = self.inner.write();
        if inner.by_name.contains_key(name) {
            return Err(DbError::TableExists(name.to_owned()));
        }
        if inner.tables.contains_key(&id) {
            return Err(DbError::TableExists(format!("id {id:?}")));
        }
        let table = Arc::new(Table::new(id, name, schema));
        if self.versioning_default.load(Ordering::Acquire) {
            table.enable_versioning();
        }
        inner.next_id = inner.next_id.max(id.0);
        inner.by_name.insert(name.to_owned(), id);
        inner.tables.insert(id, Arc::clone(&table));
        Ok(table)
    }

    /// Enable versioning on every current table and default it on for
    /// tables created later (the database's MVCC switch).
    pub fn enable_versioning_everywhere(&self) {
        self.versioning_default.store(true, Ordering::Release);
        for t in self.tables() {
            t.enable_versioning();
        }
    }

    /// Handles to all live tables (GC sweeps and the MVCC switch;
    /// collected under one read lock, iterated without it).
    pub fn tables(&self) -> Vec<Arc<Table>> {
        self.inner.read().tables.values().cloned().collect()
    }

    /// Resolve a table by name.
    pub fn get(&self, name: &str) -> DbResult<Arc<Table>> {
        let inner = self.inner.read();
        let id = inner
            .by_name
            .get(name)
            .ok_or_else(|| DbError::NoSuchTable(name.to_owned()))?;
        Ok(Arc::clone(&inner.tables[id]))
    }

    /// Resolve a table by id (log records carry ids).
    pub fn get_by_id(&self, id: TableId) -> DbResult<Arc<Table>> {
        self.inner
            .read()
            .tables
            .get(&id)
            .cloned()
            .ok_or(DbError::NoSuchTableId(id))
    }

    /// Whether a name is bound.
    pub fn exists(&self, name: &str) -> bool {
        self.inner.read().by_name.contains_key(name)
    }

    /// Drop a table by name. The `Arc` keeps it alive for transactions
    /// still holding it; the name becomes free immediately.
    pub fn drop_table(&self, name: &str) -> DbResult<Arc<Table>> {
        let mut inner = self.inner.write();
        let id = inner
            .by_name
            .remove(name)
            .ok_or_else(|| DbError::NoSuchTable(name.to_owned()))?;
        let t = inner.tables.remove(&id).expect("name/id maps in sync"); // morph-lint: allow(panic, name and id maps are mutated together under the same catalog lock)
        t.mark_dropped();
        Ok(t)
    }

    /// Rename a table. Fails if `to` is taken.
    pub fn rename(&self, from: &str, to: &str) -> DbResult<()> {
        let mut inner = self.inner.write();
        if inner.by_name.contains_key(to) {
            return Err(DbError::TableExists(to.to_owned()));
        }
        let id = inner
            .by_name
            .remove(from)
            .ok_or_else(|| DbError::NoSuchTable(from.to_owned()))?;
        inner.by_name.insert(to.to_owned(), id);
        inner.tables[&id].set_name(to);
        Ok(())
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use morph_common::ColumnType;

    fn schema() -> Schema {
        Schema::builder()
            .column("id", ColumnType::Int)
            .primary_key(&["id"])
            .build()
            .unwrap()
    }

    #[test]
    fn create_get_drop() {
        let cat = Catalog::new();
        let t = cat.create_table("a", schema()).unwrap();
        assert_eq!(t.name(), "a");
        assert!(cat.exists("a"));
        assert_eq!(cat.get("a").unwrap().id(), t.id());
        assert_eq!(cat.get_by_id(t.id()).unwrap().name(), "a");
        assert!(matches!(
            cat.create_table("a", schema()),
            Err(DbError::TableExists(_))
        ));
        let dropped = cat.drop_table("a").unwrap();
        assert_eq!(dropped.state(), crate::table::TableState::Dropped);
        assert!(!cat.exists("a"));
        assert!(matches!(cat.get("a"), Err(DbError::NoSuchTable(_))));
        assert!(matches!(
            cat.get_by_id(t.id()),
            Err(DbError::NoSuchTableId(_))
        ));
    }

    #[test]
    fn rename_rebinds_name() {
        let cat = Catalog::new();
        let t = cat.create_table("old", schema()).unwrap();
        cat.create_table("taken", schema()).unwrap();
        assert!(matches!(
            cat.rename("old", "taken"),
            Err(DbError::TableExists(_))
        ));
        cat.rename("old", "new").unwrap();
        assert!(!cat.exists("old"));
        assert_eq!(cat.get("new").unwrap().id(), t.id());
        assert_eq!(t.name(), "new");
        assert!(matches!(
            cat.rename("ghost", "x"),
            Err(DbError::NoSuchTable(_))
        ));
    }

    #[test]
    fn ids_are_unique_and_stable() {
        let cat = Catalog::new();
        let a = cat.create_table("a", schema()).unwrap();
        let b = cat.create_table("b", schema()).unwrap();
        assert_ne!(a.id(), b.id());
        cat.drop_table("a").unwrap();
        let c = cat.create_table("c", schema()).unwrap();
        assert_ne!(b.id(), c.id());
    }

    #[test]
    fn create_with_id_respects_collisions() {
        let cat = Catalog::new();
        cat.create_table_with_id(TableId(7), "a", schema()).unwrap();
        assert!(cat.create_table_with_id(TableId(7), "b", schema()).is_err());
        assert!(cat.create_table_with_id(TableId(8), "a", schema()).is_err());
        // Subsequent auto-ids skip past explicit ones.
        let t = cat.create_table("b", schema()).unwrap();
        assert!(t.id().0 > 7);
    }
}
