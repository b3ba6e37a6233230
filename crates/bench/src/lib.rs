//! # pvc-bench
//!
//! Two things live here. The declared benchmark of the repository is the `pvc_e2e`
//! binary (`src/bin/pvc_e2e/`, driven by the root `BENCHMARK.json`); it is the one
//! place where performance is gated. This library holds the parameter sweeps of the
//! paper's experimental evaluation (§7): Experiments A–E on randomly generated
//! expressions (Figures 7–10) and Experiment F on TPC-H-like data (Figure 11), plus
//! the small timing and JSON utilities the binaries share.
//!
//! Each experiment is a function returning the rows of the corresponding figure's
//! series; the `all_experiments` binary prints them as aligned tables. The targets
//! under `benches/` (`micro`, `ablation`) are plain `fn main()` timing harnesses over
//! [`bench_case`] that print and assert nothing.
//!
//! The default parameter sets are scaled down from the paper's so that the whole
//! harness completes in minutes on a laptop; set the environment variable
//! `PVC_BENCH_FULL=1` to run closer to the paper's parameters. The *shape* of every
//! curve (who wins, where run time saturates, where the phase transitions sit) is
//! preserved at either scale; absolute times are not comparable to the paper's 2012
//! hardware.

#![forbid(unsafe_code)]
#![warn(missing_docs)]

pub mod experiments;
pub mod json;
pub mod stats;

pub use experiments::{
    experiment_a, experiment_b, experiment_c, experiment_d, experiment_e, experiment_f, Scale,
};
pub use json::{Json, JsonError};
pub use stats::{bench_case, mean_std, print_table, Measurement};
