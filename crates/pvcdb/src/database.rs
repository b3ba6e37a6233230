//! A pvc-database: a set of pvc-tables over one shared probability space
//! (Definition 6 of the paper).

use crate::error::Error;
use crate::relation::PvcTable;
use crate::schema::Schema;
use pvc_algebra::SemiringKind;
use pvc_expr::VarTable;
use std::collections::BTreeMap;
use std::sync::OnceLock;

/// A table with its tuple-independence bit, computed on first ask and
/// forgotten whenever the table is handed out mutably or replaced.
#[derive(Debug, Clone)]
struct Stored {
    table: PvcTable,
    independent: OnceLock<bool>,
}

impl Stored {
    fn new(table: PvcTable) -> Self {
        Stored {
            table,
            independent: OnceLock::new(),
        }
    }

    fn is_tuple_independent(&self) -> bool {
        *self
            .independent
            .get_or_init(|| self.table.is_tuple_independent())
    }

    /// The table, for a caller that may change it: the bit is forgotten.
    fn table_mut(&mut self) -> &mut PvcTable {
        self.independent = OnceLock::new();
        &mut self.table
    }
}

/// A pvc-database: named pvc-tables plus the registry of random variables they are
/// annotated with, interpreted in a fixed annotation semiring.
#[derive(Debug, Clone)]
pub struct Database {
    tables: BTreeMap<String, Stored>,
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
        self.tables.insert(table.name.clone(), Stored::new(table));
    }

    /// Create an empty table with the given schema, add it, and return its name.
    pub fn create_table(&mut self, name: &str, schema: Schema) {
        self.add_table(PvcTable::new(name, schema));
    }

    /// Look up a table by name.
    pub fn table(&self, name: &str) -> Option<&PvcTable> {
        self.tables.get(name).map(|stored| &stored.table)
    }

    /// Look up a table by name, reporting the available names on failure.
    pub fn table_or_err(&self, name: &str) -> Result<&PvcTable, Error> {
        self.table(name).ok_or_else(|| Error::UnknownTable {
            name: name.to_string(),
            available: self.tables.keys().cloned().collect(),
        })
    }

    /// Mutable access to a table.
    pub fn table_mut(&mut self, name: &str) -> Option<&mut PvcTable> {
        self.tables.get_mut(name).map(Stored::table_mut)
    }

    /// Mutable access to both a table and the variable registry, for bulk loading of
    /// tuple-independent data.
    pub fn table_and_vars_mut(
        &mut self,
        name: &str,
    ) -> Result<(&mut PvcTable, &mut VarTable), Error> {
        let available: Vec<String> = self.tables.keys().cloned().collect();
        match self.tables.get_mut(name) {
            Some(stored) => Ok((stored.table_mut(), &mut self.vars)),
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
        self.tables.values().map(|stored| stored.table.len()).sum()
    }

    /// True if every table is tuple-independent (the precondition of the tractability
    /// results of §6).
    pub fn is_tuple_independent(&self) -> bool {
        self.tables.values().all(Stored::is_tuple_independent)
    }

    /// [`PvcTable::is_tuple_independent`] of the named table (`false` for an
    /// unknown name). The scan runs once per table until the table is next
    /// handed out mutably ([`table_mut`](Self::table_mut),
    /// [`table_and_vars_mut`](Self::table_and_vars_mut)) or replaced, so
    /// preparing a query does not read every tuple again.
    pub fn is_table_tuple_independent(&self, name: &str) -> bool {
        self.tables
            .get(name)
            .is_some_and(Stored::is_tuple_independent)
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
    use pvc_expr::SemiringExpr;

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

    /// Every table's kept bit is what a fresh scan of it says.
    fn assert_bits_are_scans(db: &Database, step: &str) {
        for name in db.table_names() {
            let scanned = db.table(name).unwrap().is_tuple_independent();
            assert_eq!(
                db.is_table_tuple_independent(name),
                scanned,
                "{step}: {name}"
            );
        }
        let all = db
            .table_names()
            .iter()
            .all(|name| db.table(name).unwrap().is_tuple_independent());
        assert_eq!(db.is_tuple_independent(), all, "{step}");
    }

    #[test]
    fn the_tuple_independence_bit_follows_every_change() {
        use crate::engine::{Delta, Engine};
        use pvc_algebra::SemiringValue;
        let mut db = Database::new();
        db.create_table("S", Schema::new(["sid"]));
        db.create_table("T", Schema::new(["tid"]));
        assert!(db.is_table_tuple_independent("S"));
        assert!(!db.is_table_tuple_independent("missing"));
        {
            let (s, vars) = db.table_and_vars_mut("S").unwrap();
            s.push_independent(vec![1i64.into()], 0.3, vars);
            s.push_independent(vec![2i64.into()], 0.6, vars);
        }
        assert_bits_are_scans(&db, "push_independent");
        assert!(db.is_table_tuple_independent("S"));
        // A certain tuple is not tuple-independent: the bit asked for above
        // must not survive the change.
        let certain = SemiringExpr::Const(SemiringValue::Bool(true));
        db.table_mut("S")
            .unwrap()
            .try_push(vec![3i64.into()], certain)
            .unwrap();
        assert_bits_are_scans(&db, "try_push through table_mut");
        assert!(!db.is_table_tuple_independent("S"));
        // A clone carries the bits; changing it changes neither the original's
        // table nor its bit.
        let base = db.clone();
        let mut copy = db.clone();
        copy.table_mut("S").unwrap().tuples.pop();
        assert_bits_are_scans(&copy, "clone, then table_mut");
        assert!(copy.is_table_tuple_independent("S"));
        assert_bits_are_scans(&db, "the original of the clone");
        assert!(!db.is_table_tuple_independent("S"));
        // A delta deletes the certain tuple and inserts an independent one.
        let mut engine = Engine::new(db);
        assert!(!engine.database().is_table_tuple_independent("S"));
        engine
            .apply_delta(
                Delta::new()
                    .delete("S", 2)
                    .insert("T", vec![7i64.into()], 0.5),
            )
            .unwrap();
        assert_bits_are_scans(engine.database(), "apply_delta");
        assert!(engine.database().is_table_tuple_independent("S"));
        // A restore handed the base replays the journal onto it.
        let path = std::env::temp_dir().join(format!("pvc-ti-bit-{}.snap", std::process::id()));
        engine.save_artifacts(&path).unwrap();
        assert!(!base.is_table_tuple_independent("S"));
        let restored = Engine::with_artifacts_from(base, &path).unwrap();
        std::fs::remove_file(&path).ok();
        assert_bits_are_scans(restored.database(), "snapshot restore");
        assert!(restored.database().is_table_tuple_independent("S"));
        assert_eq!(restored.database().total_tuples(), 3);
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
