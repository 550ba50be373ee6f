//! Table schemas.
//!
//! A [`Schema`] names the columns of a table, declares their types and
//! nullability, and fixes the primary-key column set. The
//! transformation framework's *preparation step* (paper §3.1) creates
//! new tables whose schemas must embed a candidate key of every source
//! table; [`Schema::position_of`] and [`SchemaBuilder`] are the tools
//! it uses to wire source columns to target columns.

use crate::error::{DbError, DbResult};
use crate::value::Value;
use std::sync::Arc;

/// Declared type of a column.
#[derive(Clone, Copy, PartialEq, Eq, Debug)]
pub enum ColumnType {
    /// 64-bit signed integer.
    Int,
    /// UTF-8 string.
    Str,
    /// Any value accepted (used by tests and generic tooling).
    Any,
}

impl ColumnType {
    /// Whether `v` is admissible for this column type (NULL is checked
    /// separately via [`Column::nullable`]).
    pub fn admits(self, v: &Value) -> bool {
        matches!(
            (self, v),
            (_, Value::Null)
                | (ColumnType::Int, Value::Int(_))
                | (ColumnType::Str, Value::Str(_))
                | (ColumnType::Any, _)
        )
    }
}

/// One column of a schema.
#[derive(Clone, PartialEq, Eq, Debug)]
pub struct Column {
    /// Column name, unique within the schema.
    pub name: String,
    /// Declared type.
    pub ty: ColumnType,
    /// Whether NULL is admissible. Transformed tables always make the
    /// non-key side nullable because full outer join NULL-extends rows
    /// without a join match (§4.1).
    pub nullable: bool,
}

/// A table schema: ordered columns plus the primary-key column set.
///
/// Immutable once built and shared behind `Arc`s, so a clone is two
/// reference-count bumps: the per-operation paths (`Table::schema`,
/// write sessions) hand out copies freely.
#[derive(Clone, PartialEq, Eq, Debug)]
pub struct Schema {
    columns: Arc<[Column]>,
    /// Positions (into `columns`) of the primary-key columns, in key
    /// order.
    pkey: Arc<[usize]>,
}

impl Schema {
    /// Start building a schema.
    pub fn builder() -> SchemaBuilder {
        SchemaBuilder::default()
    }

    /// All columns in declaration order.
    pub fn columns(&self) -> &[Column] {
        &self.columns
    }

    /// Number of columns.
    pub fn arity(&self) -> usize {
        self.columns.len()
    }

    /// Positions of the primary-key columns.
    pub fn pkey(&self) -> &[usize] {
        &self.pkey
    }

    /// Position of a column by name.
    pub fn position_of(&self, name: &str) -> Option<usize> {
        self.columns.iter().position(|c| c.name == name)
    }

    /// Position of a column by name, as a `DbResult`.
    pub fn require(&self, name: &str) -> DbResult<usize> {
        self.position_of(name)
            .ok_or_else(|| DbError::NoSuchColumn(name.to_owned()))
    }

    /// Extract the primary key of `row`.
    pub fn key_of(&self, row: &[Value]) -> crate::key::Key {
        crate::key::Key::project(row, &self.pkey)
    }

    /// Validate a full row against arity, types and nullability.
    pub fn validate(&self, row: &[Value]) -> DbResult<()> {
        if row.len() != self.columns.len() {
            return Err(DbError::ArityMismatch {
                expected: self.columns.len(),
                got: row.len(),
            });
        }
        for (col, v) in self.columns.iter().zip(row) {
            if v.is_null() && !col.nullable {
                return Err(DbError::NullViolation(col.name.clone()));
            }
            if !col.ty.admits(v) {
                return Err(DbError::TypeMismatch {
                    column: col.name.clone(),
                    value: format!("{v:?}"),
                });
            }
        }
        // Primary-key components must be non-NULL unless the whole key
        // is the designated null-record key (handled by the framework,
        // which marks those columns nullable explicitly).
        Ok(())
    }

    /// Whether the given column positions form (a superset of) the
    /// primary key.
    pub fn covers_pkey(&self, cols: &[usize]) -> bool {
        self.pkey.iter().all(|p| cols.contains(p))
    }
}

/// Incremental schema builder.
#[derive(Default)]
pub struct SchemaBuilder {
    columns: Vec<Column>,
    pkey_names: Vec<String>,
}

impl SchemaBuilder {
    /// Add a NOT NULL column.
    #[must_use]
    pub fn column(mut self, name: &str, ty: ColumnType) -> Self {
        self.columns.push(Column {
            name: name.to_owned(),
            ty,
            nullable: false,
        });
        self
    }

    /// Add a nullable column.
    #[must_use]
    pub fn nullable(mut self, name: &str, ty: ColumnType) -> Self {
        self.columns.push(Column {
            name: name.to_owned(),
            ty,
            nullable: true,
        });
        self
    }

    /// Declare the primary-key columns (by name, in key order).
    #[must_use]
    pub fn primary_key(mut self, names: &[&str]) -> Self {
        self.pkey_names = names.iter().map(|s| (*s).to_owned()).collect();
        self
    }

    /// Finish, validating name uniqueness and key existence.
    pub fn build(self) -> DbResult<Schema> {
        if self.columns.is_empty() {
            return Err(DbError::InvalidSchema("schema has no columns".into()));
        }
        for (i, c) in self.columns.iter().enumerate() {
            if self.columns[..i].iter().any(|d| d.name == c.name) {
                return Err(DbError::InvalidSchema(format!(
                    "duplicate column name {:?}",
                    c.name
                )));
            }
        }
        if self.pkey_names.is_empty() {
            return Err(DbError::InvalidSchema("no primary key declared".into()));
        }
        let mut pkey = Vec::with_capacity(self.pkey_names.len());
        for n in &self.pkey_names {
            let pos = self
                .columns
                .iter()
                .position(|c| &c.name == n)
                .ok_or_else(|| {
                    DbError::InvalidSchema(format!("primary-key column {n:?} not in schema"))
                })?;
            if pkey.contains(&pos) {
                return Err(DbError::InvalidSchema(format!(
                    "primary-key column {n:?} listed twice"
                )));
            }
            pkey.push(pos);
        }
        Ok(Schema {
            columns: self.columns.into(),
            pkey: pkey.into(),
        })
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    fn people() -> Schema {
        Schema::builder()
            .column("id", ColumnType::Int)
            .column("name", ColumnType::Str)
            .nullable("city", ColumnType::Str)
            .primary_key(&["id"])
            .build()
            .unwrap()
    }

    #[test]
    fn builder_happy_path() {
        let s = people();
        assert_eq!(s.arity(), 3);
        assert_eq!(s.pkey(), &[0]);
        assert_eq!(s.position_of("city"), Some(2));
        assert_eq!(s.position_of("nope"), None);
    }

    #[test]
    fn duplicate_column_rejected() {
        let err = Schema::builder()
            .column("a", ColumnType::Int)
            .column("a", ColumnType::Int)
            .primary_key(&["a"])
            .build()
            .unwrap_err();
        assert!(matches!(err, DbError::InvalidSchema(_)));
    }

    #[test]
    fn missing_pkey_rejected() {
        let err = Schema::builder()
            .column("a", ColumnType::Int)
            .build()
            .unwrap_err();
        assert!(matches!(err, DbError::InvalidSchema(_)));
        let err = Schema::builder()
            .column("a", ColumnType::Int)
            .primary_key(&["b"])
            .build()
            .unwrap_err();
        assert!(matches!(err, DbError::InvalidSchema(_)));
    }

    #[test]
    fn duplicate_pkey_column_rejected() {
        let err = Schema::builder()
            .column("a", ColumnType::Int)
            .primary_key(&["a", "a"])
            .build()
            .unwrap_err();
        assert!(matches!(err, DbError::InvalidSchema(_)));
    }

    #[test]
    fn empty_schema_rejected() {
        assert!(Schema::builder().primary_key(&["a"]).build().is_err());
    }

    #[test]
    fn validate_checks_arity_null_type() {
        let s = people();
        assert!(s
            .validate(&[Value::Int(1), Value::str("bob"), Value::Null])
            .is_ok());
        assert!(matches!(
            s.validate(&[Value::Int(1)]),
            Err(DbError::ArityMismatch { .. })
        ));
        assert!(matches!(
            s.validate(&[Value::Int(1), Value::Null, Value::Null]),
            Err(DbError::NullViolation(_))
        ));
        assert!(matches!(
            s.validate(&[Value::str("x"), Value::str("bob"), Value::Null]),
            Err(DbError::TypeMismatch { .. })
        ));
    }

    #[test]
    fn key_extraction() {
        let s = people();
        let row = vec![Value::Int(7), Value::str("z"), Value::Null];
        assert_eq!(s.key_of(&row), crate::key::Key::single(7));
    }

    #[test]
    fn covers_pkey() {
        let s = Schema::builder()
            .column("a", ColumnType::Int)
            .column("b", ColumnType::Int)
            .primary_key(&["a", "b"])
            .build()
            .unwrap();
        assert!(s.covers_pkey(&[1, 0, 2]));
        assert!(!s.covers_pkey(&[0]));
    }

    #[test]
    fn any_type_admits_everything() {
        assert!(ColumnType::Any.admits(&Value::Int(1)));
        assert!(ColumnType::Any.admits(&Value::str("x")));
        assert!(ColumnType::Int.admits(&Value::Null));
        assert!(!ColumnType::Int.admits(&Value::str("x")));
        assert!(!ColumnType::Str.admits(&Value::Int(1)));
    }
}
