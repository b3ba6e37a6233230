//! # pvc-core
//!
//! The paper's primary contribution (§5): **decomposition trees (d-trees)** and
//! the compilation of arbitrary semiring / semimodule expressions into them
//! (Algorithm 1), with bottom-up probability computation (Theorem 2), pruning of
//! conditional expressions, and joint-distribution compilation — plus the
//! serving-system layers built around the compiled artifacts: the bounded
//! [`cache`] (memoised distributions under canonical ids, each computed by
//! evaluating the [`arena`] the compiler emits, shareable across threads and
//! engines via
//! [`SharedArtifacts`]), the zero-dependency worker pool ([`parallel`]), and
//! [`persist`] — versioned binary snapshots that let a restarted process come
//! back warm instead of recompiling.
//!
//! The typical end-to-end use is one of the convenience functions:
//!
//! ```
//! use pvc_algebra::{AggOp, MonoidValue, SemiringKind};
//! use pvc_core::{confidence, semimodule_distribution};
//! use pvc_expr::{SemimoduleExpr, SemiringExpr, VarTable};
//!
//! // Two uncertain price offers; what is the distribution of the minimum price?
//! let mut vars = VarTable::new();
//! let offer_a = vars.boolean("offer_a", 0.8);
//! let offer_b = vars.boolean("offer_b", 0.5);
//! let min_price = SemimoduleExpr::from_terms(
//!     AggOp::Min,
//!     vec![
//!         (SemiringExpr::Var(offer_a), MonoidValue::Fin(10)),
//!         (SemiringExpr::Var(offer_b), MonoidValue::Fin(7)),
//!     ],
//! );
//! let dist = semimodule_distribution(&min_price, &vars, SemiringKind::Bool);
//! assert!((dist.prob(&MonoidValue::Fin(7)) - 0.5).abs() < 1e-9);
//!
//! // The probability that at least one offer exists.
//! let any = SemiringExpr::Var(offer_a) + SemiringExpr::Var(offer_b);
//! assert!((confidence(&any, &vars, SemiringKind::Bool) - 0.9).abs() < 1e-9);
//! ```

#![forbid(unsafe_code)]
#![warn(missing_docs)]

pub mod arena;
pub mod cache;
pub mod compile;
pub mod joint;
pub mod node;
pub mod obs;
pub mod parallel;
pub mod persist;
mod prune;

pub use arena::DTreeArena;
pub use cache::{
    confidence_of, CacheConfig, CacheCounters, CompactionStats, EvalError, EvictionStats,
    SharedArtifacts,
};
pub use compile::{BudgetExceeded, CompileOptions, CompileStats, Compiler};
pub use joint::{joint_distribution, ratio_distribution};
pub use node::DTreeError;
pub use obs::{
    Counter, ExecutionProfile, Gauge, Histogram, MetricsRegistry, MetricsSnapshot, ProfileNode,
    SpanGuard, Trace,
};
pub use parallel::{resolve_threads, OrderedReassembly, WorkerPool};
pub use persist::storage::{FaultConfig, FaultyStorage, FsStorage, Storage};
pub use persist::wal::{Durability, WalRecord, WalRecovery, WalWriter};
pub use persist::{PersistError, RestoreStats, Snapshot};

use pvc_algebra::SemiringKind;
use pvc_expr::{SemimoduleExpr, SemiringExpr, VarTable};
use pvc_prob::{MonoidDist, SemiringDist};

/// Compile a semiring expression and compute its exact probability distribution.
pub fn semiring_distribution(
    expr: &SemiringExpr,
    table: &VarTable,
    kind: SemiringKind,
) -> SemiringDist {
    Compiler::new(table, kind)
        .emit_semiring(expr)
        .expect("no node budget configured")
        .semiring_distribution(table, kind)
        .expect("compiled semiring tree yields semiring values")
}

/// Compile a semimodule expression and compute its exact probability distribution.
pub fn semimodule_distribution(
    expr: &SemimoduleExpr,
    table: &VarTable,
    kind: SemiringKind,
) -> MonoidDist {
    Compiler::new(table, kind)
        .emit_semimodule(expr)
        .expect("no node budget configured")
        .monoid_distribution(table, kind)
        .expect("compiled semimodule tree yields monoid values")
}

/// The probability that a semiring expression does not evaluate to `0_S` — the tuple
/// confidence of a pvc-table tuple annotated with this expression.
pub fn confidence(expr: &SemiringExpr, table: &VarTable, kind: SemiringKind) -> f64 {
    confidence_of(&semiring_distribution(expr, table, kind))
}

#[cfg(test)]
mod tests {
    use super::*;
    use pvc_algebra::{AggOp, MonoidValue::Fin};
    use pvc_expr::oracle;

    #[test]
    fn convenience_wrappers_agree_with_oracle() {
        let mut vt = VarTable::new();
        let a = vt.boolean("a", 0.2);
        let b = vt.boolean("b", 0.7);
        let c = vt.boolean("c", 0.5);
        let expr = SemiringExpr::Var(a) * (SemiringExpr::Var(b) + SemiringExpr::Var(c));
        let dist = semiring_distribution(&expr, &vt, SemiringKind::Bool);
        let oracle_dist = oracle::semiring_dist_by_enumeration(&expr, &vt, SemiringKind::Bool);
        assert!(dist.approx_eq(&oracle_dist, 1e-9));
        assert!(
            (confidence(&expr, &vt, SemiringKind::Bool)
                - oracle::confidence_by_enumeration(&expr, &vt, SemiringKind::Bool))
            .abs()
                < 1e-9
        );

        let alpha = SemimoduleExpr::from_terms(
            AggOp::Max,
            vec![
                (SemiringExpr::Var(a), Fin(3)),
                (SemiringExpr::Var(b), Fin(8)),
            ],
        );
        let dist = semimodule_distribution(&alpha, &vt, SemiringKind::Bool);
        let oracle_dist = oracle::semimodule_dist_by_enumeration(&alpha, &vt, SemiringKind::Bool);
        assert!(dist.approx_eq(&oracle_dist, 1e-9));
    }
}
