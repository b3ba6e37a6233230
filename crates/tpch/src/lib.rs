//! # pvc-tpch
//!
//! A seeded TPC-H-like data generator over tuple-independent pvc-tables and the two
//! TPC-H queries (`Q1`, `Q2`) evaluated in the paper's §7.2, used by Experiment F of
//! the benchmark harness.
//!
//! This crate substitutes the official TPC-H `dbgen` and gigabyte-scale data with a
//! scaled-down synthetic equivalent that preserves the structural properties the
//! experiment depends on; the substitution is documented in the [`gen`] module.

#![forbid(unsafe_code)]
#![warn(missing_docs)]

pub mod gen;
pub mod queries;

pub use gen::{generate, Cardinalities, TpchConfig};
pub use queries::{deterministic_copy, q1, q2};
