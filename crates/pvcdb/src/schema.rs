//! Relation schemas: named columns, flagged as data or aggregation attributes.

use std::fmt;

/// A single column of a pvc-table schema.
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct Column {
    /// Column name (qualified names such as `s_suppkey` are just plain strings).
    pub name: String,
    /// True if the column holds semimodule expressions (an aggregation attribute
    /// produced by the `$` operator). The query language restricts how such columns
    /// may be used (Definition 5 of the paper).
    pub is_aggregation: bool,
}

impl Column {
    /// A data (non-aggregation) column.
    pub fn data(name: impl Into<String>) -> Self {
        Column {
            name: name.into(),
            is_aggregation: false,
        }
    }

    /// An aggregation column.
    pub fn aggregation(name: impl Into<String>) -> Self {
        Column {
            name: name.into(),
            is_aggregation: true,
        }
    }
}

/// The schema of a pvc-table: an ordered list of named columns.
///
/// The annotation column `Φ` is *not* part of the schema; it is stored separately on
/// every tuple.
#[derive(Debug, Clone, PartialEq, Eq, Default)]
pub struct Schema {
    columns: Vec<Column>,
}

impl Schema {
    /// A schema of data columns with the given names.
    pub fn new<S: Into<String>>(names: impl IntoIterator<Item = S>) -> Self {
        Schema {
            columns: names.into_iter().map(|n| Column::data(n)).collect(),
        }
    }

    /// A schema from explicit columns.
    pub fn from_columns(columns: Vec<Column>) -> Self {
        Schema { columns }
    }

    /// Number of columns.
    pub fn arity(&self) -> usize {
        self.columns.len()
    }

    /// The columns in order.
    pub fn columns(&self) -> &[Column] {
        &self.columns
    }

    /// The index of a column by name.
    pub fn index_of(&self, name: &str) -> Option<usize> {
        self.columns.iter().position(|c| c.name == name)
    }

    /// Internal panicking lookup for the paths where the column set was already
    /// validated by `Query::output_schema`.
    pub(crate) fn require_index(&self, name: &str) -> usize {
        self.index_of(name).unwrap_or_else(|| {
            panic!(
                "column `{name}` not found; available columns: {:?}",
                self.columns.iter().map(|c| &c.name).collect::<Vec<_>>()
            )
        })
    }

    /// True if the named column exists and is an aggregation column.
    pub fn is_aggregation(&self, name: &str) -> bool {
        self.index_of(name)
            .map(|i| self.columns[i].is_aggregation)
            .unwrap_or(false)
    }

    /// Column names in order.
    pub fn names(&self) -> Vec<&str> {
        self.columns.iter().map(|c| c.name.as_str()).collect()
    }

    /// Concatenate two schemas (for the product operator), reporting the first
    /// duplicate column name (rename columns first to avoid it).
    pub fn try_concat(&self, other: &Schema) -> Result<Schema, String> {
        for c in &other.columns {
            if self.index_of(&c.name).is_some() {
                return Err(c.name.clone());
            }
        }
        let mut columns = self.columns.clone();
        columns.extend(other.columns.iter().cloned());
        Ok(Schema { columns })
    }

    /// The schema restricted to the given columns (in the given order), reporting the
    /// first missing column name.
    pub fn try_project(&self, names: &[String]) -> Result<Schema, String> {
        let columns = names
            .iter()
            .map(|n| {
                self.index_of(n)
                    .map(|i| self.columns[i].clone())
                    .ok_or_else(|| n.clone())
            })
            .collect::<Result<Vec<_>, _>>()?;
        Ok(Schema { columns })
    }

    /// Rename a column, reporting the name if it does not exist.
    pub fn try_rename(&self, old: &str, new: &str) -> Result<Schema, String> {
        let idx = self.index_of(old).ok_or_else(|| old.to_string())?;
        let mut columns = self.columns.clone();
        columns[idx].name = new.to_string();
        Ok(Schema { columns })
    }
}

impl fmt::Display for Schema {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        write!(f, "(")?;
        for (i, c) in self.columns.iter().enumerate() {
            if i > 0 {
                write!(f, ", ")?;
            }
            write!(f, "{}", c.name)?;
            if c.is_aggregation {
                write!(f, "*")?;
            }
        }
        write!(f, ")")
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn construction_and_lookup() {
        let s = Schema::new(["sid", "shop"]);
        assert_eq!(s.arity(), 2);
        assert_eq!(s.index_of("shop"), Some(1));
        assert_eq!(s.index_of("price"), None);
        assert!(!s.is_aggregation("shop"));
        assert_eq!(s.names(), vec!["sid", "shop"]);
    }

    #[test]
    fn aggregation_columns() {
        let s = Schema::from_columns(vec![Column::data("shop"), Column::aggregation("total")]);
        assert!(s.is_aggregation("total"));
        assert!(!s.is_aggregation("shop"));
        assert_eq!(s.to_string(), "(shop, total*)");
    }

    #[test]
    fn concat_project_rename() {
        let a = Schema::new(["sid", "shop"]);
        let b = Schema::new(["pid", "price"]);
        let c = a.try_concat(&b).unwrap();
        assert_eq!(c.arity(), 4);
        let p = c
            .try_project(&["shop".to_string(), "price".to_string()])
            .unwrap();
        assert_eq!(p.names(), vec!["shop", "price"]);
        let r = c.try_rename("price", "cost").unwrap();
        assert_eq!(r.index_of("cost"), Some(3));
        assert_eq!(r.index_of("price"), None);
    }

    #[test]
    fn fallible_replacements_report_the_offending_column() {
        let a = Schema::new(["sid"]);
        assert_eq!(a.try_concat(&Schema::new(["sid"])), Err("sid".to_string()));
        assert_eq!(
            a.try_project(&["nope".to_string()]),
            Err("nope".to_string())
        );
        assert_eq!(a.try_rename("nope", "x"), Err("nope".to_string()));
        assert_eq!(a.index_of("nope"), None);
    }
}
