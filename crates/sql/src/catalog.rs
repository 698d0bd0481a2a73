//! Catalog and row storage.

use std::collections::BTreeMap;

use crowdkit_core::error::{CrowdError, Result};

use crate::ast::ColumnDecl;
use crate::value::Value;

/// Column data types.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum ColumnType {
    /// 64-bit integer.
    Int,
    /// UTF-8 text.
    Text,
}

/// A column definition.
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct ColumnDef {
    /// Column name.
    pub name: String,
    /// Data type.
    pub ty: ColumnType,
    /// Whether the crowd fills this column on demand.
    pub crowd: bool,
}

/// A table definition.
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct TableDef {
    /// Table name.
    pub name: String,
    /// Columns in declaration order.
    pub columns: Vec<ColumnDef>,
    /// Whether the whole table is crowd-sourced.
    pub crowd: bool,
}

impl TableDef {
    /// Index of a column by name.
    pub fn column_index(&self, name: &str) -> Option<usize> {
        self.columns.iter().position(|c| c.name == name)
    }

    /// Whether the named column is crowd-filled.
    pub fn is_crowd_column(&self, name: &str) -> bool {
        self.columns.iter().any(|c| c.name == name && c.crowd)
    }
}

/// Tables plus their rows.
#[derive(Debug, Clone, Default)]
pub struct Catalog {
    // Key-ordered so every walk over the catalog (name listings, future
    // serialization) is deterministic by construction.
    tables: BTreeMap<String, TableDef>,
    rows: BTreeMap<String, Vec<Vec<Value>>>,
}

impl Catalog {
    /// An empty catalog.
    pub fn new() -> Self {
        Self::default()
    }

    /// Creates a table from parsed column declarations.
    pub fn create_table(&mut self, name: &str, decls: &[ColumnDecl], crowd: bool) -> Result<()> {
        if self.tables.contains_key(name) {
            return Err(CrowdError::Semantic(format!(
                "table '{name}' already exists"
            )));
        }
        let mut seen = std::collections::HashSet::new();
        for d in decls {
            if !seen.insert(&d.name) {
                return Err(CrowdError::Semantic(format!(
                    "duplicate column '{}' in table '{name}'",
                    d.name
                )));
            }
        }
        let columns = decls
            .iter()
            .map(|d| ColumnDef {
                name: d.name.clone(),
                ty: if d.is_int {
                    ColumnType::Int
                } else {
                    ColumnType::Text
                },
                crowd: d.crowd,
            })
            .collect();
        self.tables.insert(
            name.to_owned(),
            TableDef {
                name: name.to_owned(),
                columns,
                crowd,
            },
        );
        self.rows.insert(name.to_owned(), Vec::new());
        Ok(())
    }

    /// Inserts rows, checking arity and types (NULL is allowed anywhere;
    /// non-crowd NULLs simply stay NULL).
    pub fn insert(&mut self, table: &str, rows: Vec<Vec<Value>>) -> Result<()> {
        let def = self.table(table)?;
        for row in &rows {
            if row.len() != def.columns.len() {
                return Err(CrowdError::Semantic(format!(
                    "table '{table}' has {} columns but row has {}",
                    def.columns.len(),
                    row.len()
                )));
            }
            for (v, c) in row.iter().zip(&def.columns) {
                let ok = matches!(
                    (v, c.ty),
                    (Value::Null, _)
                        | (Value::Int(_), ColumnType::Int)
                        | (Value::Text(_), ColumnType::Text)
                );
                if !ok {
                    return Err(CrowdError::Semantic(format!(
                        "type mismatch for column '{}' of '{table}': {v}",
                        c.name
                    )));
                }
            }
        }
        self.rows.get_mut(table).expect("table exists").extend(rows); // crowdkit-lint: allow(PANIC001) — table() succeeded above; create_table inserts rows and tables entries together
        Ok(())
    }

    /// The definition of a table.
    pub fn table(&self, name: &str) -> Result<&TableDef> {
        self.tables
            .get(name)
            .ok_or_else(|| CrowdError::Semantic(format!("unknown table '{name}'")))
    }

    /// The rows of a table.
    pub fn rows(&self, name: &str) -> Result<&[Vec<Value>]> {
        self.rows
            .get(name)
            .map(Vec::as_slice)
            .ok_or_else(|| CrowdError::Semantic(format!("unknown table '{name}'")))
    }

    /// Writes a single cell (used by crowd-fill write-back so later
    /// queries reuse purchased values).
    pub fn write_cell(&mut self, table: &str, row: usize, col: usize, value: Value) -> Result<()> {
        let rows = self
            .rows
            .get_mut(table)
            .ok_or_else(|| CrowdError::Semantic(format!("unknown table '{table}'")))?;
        let r = rows.get_mut(row).ok_or_else(|| {
            CrowdError::Execution(format!("row {row} out of range for '{table}'"))
        })?;
        let c = r
            .get_mut(col)
            .ok_or_else(|| CrowdError::Execution(format!("column {col} out of range")))?;
        *c = value;
        Ok(())
    }

    /// Names of all tables, sorted (the catalog is key-ordered).
    pub fn table_names(&self) -> Vec<&str> {
        self.tables.keys().map(String::as_str).collect()
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    fn decls() -> Vec<ColumnDecl> {
        vec![
            ColumnDecl {
                name: "id".into(),
                is_int: true,
                crowd: false,
            },
            ColumnDecl {
                name: "name".into(),
                is_int: false,
                crowd: false,
            },
            ColumnDecl {
                name: "category".into(),
                is_int: false,
                crowd: true,
            },
        ]
    }

    #[test]
    fn create_and_lookup() {
        let mut c = Catalog::new();
        c.create_table("products", &decls(), false).unwrap();
        let t = c.table("products").unwrap();
        assert_eq!(t.columns.len(), 3);
        assert_eq!(t.column_index("name"), Some(1));
        assert!(t.is_crowd_column("category"));
        assert!(!t.is_crowd_column("name"));
        assert!(c.table("missing").is_err());
        assert_eq!(c.table_names(), vec!["products"]);
    }

    #[test]
    fn duplicate_table_and_column_rejected() {
        let mut c = Catalog::new();
        c.create_table("t", &decls(), false).unwrap();
        assert!(c.create_table("t", &decls(), false).is_err());
        let dup = vec![
            ColumnDecl {
                name: "x".into(),
                is_int: true,
                crowd: false,
            },
            ColumnDecl {
                name: "x".into(),
                is_int: true,
                crowd: false,
            },
        ];
        assert!(c.create_table("u", &dup, false).is_err());
    }

    #[test]
    fn insert_checks_arity_and_types() {
        let mut c = Catalog::new();
        c.create_table("t", &decls(), false).unwrap();
        assert!(c
            .insert(
                "t",
                vec![vec![Value::Int(1), Value::text("a"), Value::Null]]
            )
            .is_ok());
        // Wrong arity.
        assert!(c.insert("t", vec![vec![Value::Int(1)]]).is_err());
        // Wrong type.
        assert!(c
            .insert(
                "t",
                vec![vec![Value::text("x"), Value::text("a"), Value::Null]]
            )
            .is_err());
        assert_eq!(c.rows("t").unwrap().len(), 1);
    }

    #[test]
    fn write_cell_updates_storage() {
        let mut c = Catalog::new();
        c.create_table("t", &decls(), false).unwrap();
        c.insert(
            "t",
            vec![vec![Value::Int(1), Value::text("a"), Value::Null]],
        )
        .unwrap();
        c.write_cell("t", 0, 2, Value::text("phones")).unwrap();
        assert_eq!(c.rows("t").unwrap()[0][2], Value::text("phones"));
        assert!(c.write_cell("t", 5, 0, Value::Null).is_err());
        assert!(c.write_cell("t", 0, 9, Value::Null).is_err());
    }
}
