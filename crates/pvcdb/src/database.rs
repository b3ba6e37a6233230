//! A pvc-database: a set of pvc-tables over one shared probability space
//! (Definition 6 of the paper).

use crate::error::Error;
use crate::relation::PvcTable;
use crate::schema::Schema;
use pvc_algebra::SemiringKind;
use pvc_expr::VarTable;
use std::collections::BTreeMap;

/// A pvc-database: named pvc-tables plus the registry of random variables they are
/// annotated with, interpreted in a fixed annotation semiring.
#[derive(Debug, Clone)]
pub struct Database {
    tables: BTreeMap<String, PvcTable>,
    /// The random variables (the induced probability space Ω).
    pub vars: VarTable,
    /// The annotation semiring (Boolean for set semantics, N for bag semantics).
    pub kind: SemiringKind,
}

impl Database {
    /// An empty database over the Boolean annotation semiring.
    pub fn new() -> Self {
        Self::with_kind(SemiringKind::Bool)
    }

    /// An empty database over an explicit annotation semiring.
    pub fn with_kind(kind: SemiringKind) -> Self {
        Database {
            tables: BTreeMap::new(),
            vars: VarTable::new(),
            kind,
        }
    }

    /// Add (or replace) a table.
    pub fn add_table(&mut self, table: PvcTable) {
        self.tables.insert(table.name.clone(), table);
    }

    /// Create an empty table with the given schema, add it, and return its name.
    pub fn create_table(&mut self, name: &str, schema: Schema) {
        self.add_table(PvcTable::new(name, schema));
    }

    /// Look up a table by name.
    pub fn table(&self, name: &str) -> Option<&PvcTable> {
        self.tables.get(name)
    }

    /// Look up a table by name, reporting the available names on failure.
    pub fn table_or_err(&self, name: &str) -> Result<&PvcTable, Error> {
        self.tables.get(name).ok_or_else(|| Error::UnknownTable {
            name: name.to_string(),
            available: self.tables.keys().cloned().collect(),
        })
    }

    /// Mutable access to a table.
    pub fn table_mut(&mut self, name: &str) -> Option<&mut PvcTable> {
        self.tables.get_mut(name)
    }

    /// Mutable access to both a table and the variable registry, for bulk loading of
    /// tuple-independent data.
    pub fn table_and_vars_mut(
        &mut self,
        name: &str,
    ) -> Result<(&mut PvcTable, &mut VarTable), Error> {
        let available: Vec<String> = self.tables.keys().cloned().collect();
        match self.tables.get_mut(name) {
            Some(table) => Ok((table, &mut self.vars)),
            None => Err(Error::UnknownTable {
                name: name.to_string(),
                available,
            }),
        }
    }

    /// Names of all tables.
    pub fn table_names(&self) -> Vec<&str> {
        self.tables.keys().map(String::as_str).collect()
    }

    /// Total number of tuples across all tables.
    pub fn total_tuples(&self) -> usize {
        self.tables.values().map(PvcTable::len).sum()
    }

    /// True if every table is tuple-independent (the precondition of the tractability
    /// results of §6).
    pub fn is_tuple_independent(&self) -> bool {
        self.tables.values().all(PvcTable::is_tuple_independent)
    }
}

impl Default for Database {
    fn default() -> Self {
        Self::new()
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn create_and_lookup() {
        let mut db = Database::new();
        db.create_table("S", Schema::new(["sid", "shop"]));
        assert!(db.table("S").is_some());
        assert!(db.table("T").is_none());
        assert_eq!(db.table_names(), vec!["S"]);
        assert_eq!(db.kind, SemiringKind::Bool);
    }

    #[test]
    fn load_tuple_independent_data() {
        let mut db = Database::new();
        db.create_table("S", Schema::new(["sid", "shop"]));
        {
            let (table, vars) = db.table_and_vars_mut("S").unwrap();
            table.push_independent(vec![1i64.into(), "M&S".into()], 0.3, vars);
            table.push_independent(vec![2i64.into(), "Gap".into()], 0.9, vars);
        }
        assert_eq!(db.total_tuples(), 2);
        assert_eq!(db.vars.len(), 2);
        assert!(db.is_tuple_independent());
    }

    #[test]
    fn missing_table_is_an_error() {
        let mut db = Database::new();
        db.create_table("S", Schema::new(["sid"]));
        let err = db.table_or_err("missing").unwrap_err();
        assert!(matches!(
            &err,
            Error::UnknownTable { name, available }
                if name == "missing" && available == &["S".to_string()]
        ));
        assert!(err.to_string().contains("not found"));
        let err = db.table_and_vars_mut("missing").unwrap_err();
        assert!(matches!(err, Error::UnknownTable { .. }));
    }
}
