//! # pvc-prob
//!
//! Sparse discrete probability distributions, convolution with respect to arbitrary
//! binary operations (Proposition 1 / Eqs. 4–9 of the paper), the dense and
//! Boolean kernels, and distribution summaries.
//!
//! Everything in this crate is purely about probability bookkeeping; the knowledge
//! compilation that makes these computations tractable lives in `pvc-core`, and the
//! possible-world enumeration every result is checked against lives in
//! `pvc_expr::oracle`.

#![forbid(unsafe_code)]
#![warn(missing_docs)]

pub mod cells;
pub mod dist;
mod fft;
pub mod moments;
pub mod repr;
pub mod rng;
pub mod stats;
pub mod values;

pub use cells::BoolCells;
pub use dist::{Dist, PROB_EPS};
pub use moments::{cdf, expectation, moments, quantile, Moments};
pub use repr::{
    convolve_additive_chained, fft_would_run, mix_dense_chained, AdditiveFold, ChainVal, DenseDist,
    FFT_MIN_LEN, FFT_RELATIVE_EPS,
};
pub use rng::SeededRng;
pub use stats::{
    begin_tuple_capture, kernel_stats, kernel_stats_enabled, record_dense_chain,
    reset_kernel_stats, set_kernel_stats_enabled, take_tuple_capture, tuple_capture_chain,
    KernelStats, SUPPORT_BUCKETS,
};
pub use values::{make, MonoidDist, SemiringDist};
