//! # pvc-algebra
//!
//! Algebraic foundations for probabilistic databases with aggregation:
//! commutative **monoids** (the aggregation operations), commutative **semirings**
//! (tuple annotations / provenance), and **semimodules** (aggregated values
//! conditioned on annotations), following §2.2 of
//! *"Aggregation in Probabilistic Databases via Knowledge Compilation"*
//! (Fink, Han, Olteanu, VLDB 2012).
//!
//! The engine evaluates the two instances the paper uses — the Boolean semiring `B`
//! (set semantics) and the natural numbers `N` (bag semantics) — through dynamic
//! value types, because a single table may mix monoids and semirings at run time:
//!
//! * [`semiring`] — [`SemiringValue`] / [`SemiringKind`], an element of `B` or `N`
//!   (Definition 3);
//! * [`monoid`] and [`value`] — [`AggOp`] and [`MonoidValue`], an aggregation
//!   monoid's operation and values (Definition 2), and [`CmpOp`], the comparison `θ`
//!   of conditional expressions `[α θ β]`;
//! * [`semimodule`] — [`AggOp::scalar_action`], the semimodule action `S × M → M`
//!   (Definition 4).
//!
//! [`check_semiring_laws`] and [`check_semimodule_laws`] check Definitions 3 and 4 on
//! sample elements; the unit tests and the property tests in `tests/proptest_laws.rs`
//! run them.

#![forbid(unsafe_code)]
#![warn(missing_docs)]

pub mod monoid;
pub mod semimodule;
pub mod semiring;
pub mod value;

pub use monoid::{AggOp, ALL_AGG_OPS};
pub use semimodule::check_semimodule_laws;
pub use semiring::{check_semiring_laws, SemiringKind, SemiringValue};
pub use value::{CmpOp, MonoidValue};
