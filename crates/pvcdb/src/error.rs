//! The single error type of the `pvc-db` public API.
//!
//! Every fallible operation of the query engine — table lookup, query validation,
//! d-tree compilation, distribution extraction — reports failures through [`Error`],
//! so callers match on one enum instead of a zoo of panics.

use crate::query::QueryError;
use pvc_algebra::AggOp;
use pvc_core::{BudgetExceeded, DTreeError, EvalError, PersistError};
use std::fmt;

/// Errors returned by the `pvc-db` engine and its fallible entry points.
#[derive(Debug, Clone, PartialEq, Eq)]
#[non_exhaustive]
pub enum Error {
    /// A table was looked up by a name the database does not contain.
    UnknownTable {
        /// The requested table name.
        name: String,
        /// The names the database does contain (for diagnostics).
        available: Vec<String>,
    },
    /// The query failed the well-formedness checks of Definition 5 (or referenced an
    /// unknown table/column). Raised by [`crate::Engine::prepare`].
    Validation(QueryError),
    /// Knowledge compilation aborted because the configured d-tree node budget was
    /// exceeded (see [`pvc_core::CompileOptions::node_budget`]).
    Compile(BudgetExceeded),
    /// A compiled d-tree produced values of the wrong sort while computing a
    /// distribution. Indicates a malformed tree; trees produced by the compiler on
    /// validated queries never trigger this.
    Distribution(DTreeError),
    /// A cell value had the wrong type for the requested operation (e.g. aggregating
    /// a string column, or comparing an aggregate against a non-integer column).
    /// Detected at evaluation time, since pvc-table schemas carry no value types.
    TypeMismatch {
        /// The offending column.
        column: String,
        /// What the operation required of it.
        expected: &'static str,
    },
    /// A SUM or PROD aggregate could leave the 64-bit integer range in some
    /// world (its values, scaled by the largest multiplicity each annotation
    /// can take). Step I refuses the group rather than let a result wrap.
    AggregateOverflow {
        /// The aggregate operator.
        op: AggOp,
        /// The aggregated column.
        column: String,
    },
    /// A parallel tuple worker could not be spawned, or terminated without
    /// delivering its results (a panic in a worker thread). Streaming surfaces this
    /// instead of silently truncating the result.
    Worker(String),
    /// Saving or loading a compile-artifact snapshot failed: I/O, a corrupted or
    /// truncated file, a mismatched format version, or a snapshot recorded
    /// against a different database (see [`pvc_core::persist`] and
    /// [`crate::Engine::save_artifacts`] / [`crate::Engine::with_artifacts_from`]).
    Snapshot(PersistError),
    /// A write-ahead-log operation failed: the append of a delta record (the
    /// delta was **not** applied — WAL-before-apply means a mutation that
    /// cannot be made durable is refused atomically), a log rotation, or the
    /// decode of a logged record during replay (see [`crate::wal`]).
    Wal(PersistError),
    /// A [`Delta`](crate::Delta) failed validation (bad arity, out-of-range row,
    /// non-probability, or a `set_probability` on a tuple whose annotation is not
    /// a single presence variable). Validation runs before anything is mutated,
    /// so the database and the caches are untouched when this is returned.
    Delta {
        /// The table the offending operation targeted.
        table: String,
        /// What was wrong with it.
        message: String,
    },
}

impl fmt::Display for Error {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        match self {
            Error::UnknownTable { name, available } => {
                write!(
                    f,
                    "table `{name}` not found; available tables: {available:?}"
                )
            }
            Error::Validation(e) => write!(f, "invalid query: {e}"),
            Error::Compile(e) => write!(f, "compilation failed: {e}"),
            Error::Distribution(e) => write!(f, "distribution computation failed: {e}"),
            Error::TypeMismatch { column, expected } => {
                write!(f, "column `{column}` does not hold {expected}")
            }
            Error::AggregateOverflow { op, column } => {
                write!(
                    f,
                    "{op}({column}) can leave the 64-bit integer range in some world"
                )
            }
            Error::Worker(detail) => write!(f, "parallel execution failed: {detail}"),
            Error::Snapshot(e) => write!(f, "artifact snapshot failed: {e}"),
            Error::Wal(e) => write!(f, "write-ahead log operation failed: {e}"),
            Error::Delta { table, message } => {
                write!(f, "invalid delta against table `{table}`: {message}")
            }
        }
    }
}

impl std::error::Error for Error {
    fn source(&self) -> Option<&(dyn std::error::Error + 'static)> {
        match self {
            Error::Validation(e) => Some(e),
            Error::Compile(e) => Some(e),
            Error::Snapshot(e) => Some(e),
            Error::Wal(e) => Some(e),
            _ => None,
        }
    }
}

impl From<QueryError> for Error {
    fn from(e: QueryError) -> Self {
        Error::Validation(e)
    }
}

impl From<BudgetExceeded> for Error {
    fn from(e: BudgetExceeded) -> Self {
        Error::Compile(e)
    }
}

impl From<DTreeError> for Error {
    fn from(e: DTreeError) -> Self {
        Error::Distribution(e)
    }
}

impl From<PersistError> for Error {
    fn from(e: PersistError) -> Self {
        Error::Snapshot(e)
    }
}

impl From<EvalError> for Error {
    fn from(e: EvalError) -> Self {
        match e {
            EvalError::Budget(b) => Error::Compile(b),
            EvalError::Tree(t) => Error::Distribution(t),
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn display_formats() {
        let e = Error::UnknownTable {
            name: "missing".into(),
            available: vec!["S".into()],
        };
        assert!(e.to_string().contains("`missing` not found"));
        let e = Error::Validation(QueryError::UnknownColumn("c".into()));
        assert!(e.to_string().contains("invalid query"));
        let e = Error::Compile(BudgetExceeded { nodes_produced: 7 });
        assert!(e.to_string().contains("7 nodes"));
    }

    #[test]
    fn conversions() {
        let e: Error = QueryError::UnionSchemaMismatch.into();
        assert!(matches!(e, Error::Validation(_)));
        let e: Error = BudgetExceeded { nodes_produced: 1 }.into();
        assert!(matches!(e, Error::Compile(_)));
    }
}
