//! # pvc-expr
//!
//! Semiring and semimodule **expressions** over independent random variables — the
//! annotation language of pvc-tables (Fig. 2 of the paper) — together with the
//! syntactic analyses the knowledge compiler is built on:
//!
//! * [`VarTable`] / [`Var`] — the registry of random variables and their
//!   distributions (the induced probability space of §2.1);
//! * [`SemiringExpr`] — expressions `Φ ::= x | Φ+Φ | Φ·Φ | [αθα] | [ΦθΦ] | s`;
//! * [`SemimoduleExpr`] — expressions `α ::= Φ⊗m {+op Φ⊗m} | m`;
//! * substitution `Φ|x←s`, evaluation under valuations (the semiring/monoid
//!   homomorphisms of §3), variable-occurrence counting;
//! * [`independence`] — connected components of the variable co-occurrence graph;
//! * [`factor`] — common-factor extraction / read-once detection;
//! * [`intern`] — the hash-consed expression arena: canonical ids with O(1)
//!   structural equality and reorder-stable 64-bit hashes (the cache-key substrate
//!   of the engine's compilation cache);
//! * [`residual`] — substitution, constant folding and the residual-shrinking laws
//!   on interned ids (the compiler's working representation);
//! * [`oracle`] — brute-force possible-world enumeration (the correctness oracle).

#![forbid(unsafe_code)]
#![warn(missing_docs)]

pub mod factor;
pub mod independence;
pub mod intern;
pub mod oracle;
#[cfg(test)]
mod polynomial;
#[cfg(test)]
mod posbool;
pub mod residual;
pub mod semimodule_expr;
pub mod semiring_expr;
pub mod vars;

pub use intern::{
    AggExprId, AggTerm, ExprId, IdHasher, ImportMemo, InternedAgg, InternedExpr, Interner,
};
pub use residual::{ResidualArena, ResidualCounts};
pub use semimodule_expr::{SemimoduleExpr, SmTerm};
pub use semiring_expr::SemiringExpr;
pub use vars::{Var, VarSet, VarTable};
