//! Kernel dispatch statistics: which convolution path ran, and how wide the
//! convolved supports were.
//!
//! `pvc-prob` sits below the observability layer (`pvc_core::obs`), so it
//! cannot push into the metrics registry directly. Instead it keeps its own
//! process-wide atomics here, and `pvc_core::obs` bridges them into metric
//! names (`kernel.conv.dense`, `kernel.conv.sparse`, `kernel.conv.support`, …)
//! at snapshot time.
//!
//! Everything is disabled by default: the hot-path cost is one relaxed
//! `AtomicBool` load per dispatch. A second, thread-local capture channel
//! ([`begin_tuple_capture`] / [`take_tuple_capture`]) lets the engine attribute
//! dense/sparse counts to one tuple's evaluation deterministically — per-tuple
//! work is single-threaded regardless of the engine's thread count.

use std::cell::Cell;
use std::sync::atomic::{AtomicBool, AtomicU64, Ordering};

/// Number of log2 buckets in the support-size histogram (values are clamped
/// into the last bucket). Bucket `b > 0` holds sizes in `[2^(b-1), 2^b - 1]`;
/// bucket 0 holds size 0.
pub const SUPPORT_BUCKETS: usize = 33;

static ENABLED: AtomicBool = AtomicBool::new(false);
static CONV_DENSE: AtomicU64 = AtomicU64::new(0);
static CONV_SPARSE: AtomicU64 = AtomicU64::new(0);
static CONV_FFT: AtomicU64 = AtomicU64::new(0);
static FFT_FALLBACKS: AtomicU64 = AtomicU64::new(0);
static CHAIN_EXTENDS: AtomicU64 = AtomicU64::new(0);
static CHAIN_BREAKS: AtomicU64 = AtomicU64::new(0);
static SUPPORT_COUNT: AtomicU64 = AtomicU64::new(0);
static SUPPORT_SUM: AtomicU64 = AtomicU64::new(0);
#[allow(clippy::declare_interior_mutable_const)]
const ZERO: AtomicU64 = AtomicU64::new(0);
static SUPPORT_HIST: [AtomicU64; SUPPORT_BUCKETS] = [ZERO; SUPPORT_BUCKETS];

thread_local! {
    static TUPLE_CAPTURE: Cell<bool> = const { Cell::new(false) };
    static TUPLE_DENSE: Cell<u64> = const { Cell::new(0) };
    static TUPLE_SPARSE: Cell<u64> = const { Cell::new(0) };
    static TUPLE_EXTENDS: Cell<u64> = const { Cell::new(0) };
    static TUPLE_BREAKS: Cell<u64> = const { Cell::new(0) };
}

/// Globally enable or disable kernel statistics collection.
pub fn set_kernel_stats_enabled(enabled: bool) {
    ENABLED.store(enabled, Ordering::Relaxed);
}

/// Whether kernel statistics collection is currently enabled.
pub fn kernel_stats_enabled() -> bool {
    ENABLED.load(Ordering::Relaxed)
}

/// Zero every global kernel counter (the enabled flag is left as-is).
pub fn reset_kernel_stats() {
    CONV_DENSE.store(0, Ordering::Relaxed);
    CONV_SPARSE.store(0, Ordering::Relaxed);
    CONV_FFT.store(0, Ordering::Relaxed);
    FFT_FALLBACKS.store(0, Ordering::Relaxed);
    CHAIN_EXTENDS.store(0, Ordering::Relaxed);
    CHAIN_BREAKS.store(0, Ordering::Relaxed);
    SUPPORT_COUNT.store(0, Ordering::Relaxed);
    SUPPORT_SUM.store(0, Ordering::Relaxed);
    for bucket in &SUPPORT_HIST {
        bucket.store(0, Ordering::Relaxed);
    }
}

/// A point-in-time copy of the kernel statistics.
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct KernelStats {
    /// Additive convolutions that took the direct-index dense path.
    pub conv_dense: u64,
    /// Additive convolutions that fell back to sparse generate–sort–coalesce.
    pub conv_sparse: u64,
    /// Dense convolutions that ran the spectral (FFT) kernel — a subset of
    /// [`conv_dense`](Self::conv_dense).
    pub conv_fft: u64,
    /// FFT attempts rejected by the accuracy policy (the exact kernel ran
    /// instead; these are *not* counted in [`conv_fft`](Self::conv_fft)).
    pub fft_fallbacks: u64,
    /// `⊕`/`⊔` node exits where a dense intermediate stayed dense for the next
    /// node instead of round-tripping through the sparse form.
    pub dense_chain_extends: u64,
    /// Dense intermediates forced back to the sparse form mid-chain because the
    /// consuming node could not use them (root materialisation not counted).
    pub dense_chain_breaks: u64,
    /// Number of support-size samples (two per convolution: each input).
    pub support_count: u64,
    /// Sum of all sampled support sizes.
    pub support_sum: u64,
    /// Log2-bucketed support sizes: bucket `b > 0` holds sizes in
    /// `[2^(b-1), 2^b - 1]`, bucket 0 holds size 0.
    pub support_buckets: [u64; SUPPORT_BUCKETS],
}

/// Snapshot the global kernel counters.
pub fn kernel_stats() -> KernelStats {
    let mut support_buckets = [0u64; SUPPORT_BUCKETS];
    for (out, bucket) in support_buckets.iter_mut().zip(&SUPPORT_HIST) {
        *out = bucket.load(Ordering::Relaxed);
    }
    KernelStats {
        conv_dense: CONV_DENSE.load(Ordering::Relaxed),
        conv_sparse: CONV_SPARSE.load(Ordering::Relaxed),
        conv_fft: CONV_FFT.load(Ordering::Relaxed),
        fft_fallbacks: FFT_FALLBACKS.load(Ordering::Relaxed),
        dense_chain_extends: CHAIN_EXTENDS.load(Ordering::Relaxed),
        dense_chain_breaks: CHAIN_BREAKS.load(Ordering::Relaxed),
        support_count: SUPPORT_COUNT.load(Ordering::Relaxed),
        support_sum: SUPPORT_SUM.load(Ordering::Relaxed),
        support_buckets,
    }
}

/// Start attributing convolution dispatches on *this thread* to one tuple.
/// Returns the previous capture flag so nested scopes can restore it.
pub fn begin_tuple_capture() -> bool {
    for counter in [&TUPLE_DENSE, &TUPLE_SPARSE, &TUPLE_EXTENDS, &TUPLE_BREAKS] {
        counter.with(|c| c.set(0));
    }
    TUPLE_CAPTURE.with(|c| c.replace(true))
}

/// Stop capturing and return `(dense, sparse)` dispatch counts accumulated on
/// this thread since [`begin_tuple_capture`]; restores the given prior flag.
pub fn take_tuple_capture(prior: bool) -> (u64, u64) {
    TUPLE_CAPTURE.with(|c| c.set(prior));
    (TUPLE_DENSE.with(Cell::get), TUPLE_SPARSE.with(Cell::get))
}

/// The dense-chain `(extends, breaks)` recorded on this thread since
/// [`begin_tuple_capture`], while capturing — the per-thread view of
/// `kernel.dense_chain.*` that [`take_tuple_capture`] gives of the dispatches.
pub fn tuple_capture_chain() -> (u64, u64) {
    (TUPLE_EXTENDS.with(Cell::get), TUPLE_BREAKS.with(Cell::get))
}

fn support_bucket(size: usize) -> usize {
    if size == 0 {
        0
    } else {
        ((usize::BITS - size.leading_zeros()) as usize).min(SUPPORT_BUCKETS - 1)
    }
}

/// Record one additive-convolution dispatch (called from `repr`).
#[inline]
pub(crate) fn record_conv(dense: bool, support_a: usize, support_b: usize) {
    if ENABLED.load(Ordering::Relaxed) {
        let counter = if dense { &CONV_DENSE } else { &CONV_SPARSE };
        counter.fetch_add(1, Ordering::Relaxed);
        SUPPORT_COUNT.fetch_add(2, Ordering::Relaxed);
        SUPPORT_SUM.fetch_add((support_a + support_b) as u64, Ordering::Relaxed);
        SUPPORT_HIST[support_bucket(support_a)].fetch_add(1, Ordering::Relaxed);
        SUPPORT_HIST[support_bucket(support_b)].fetch_add(1, Ordering::Relaxed);
    }
    if TUPLE_CAPTURE.with(Cell::get) {
        let cell = if dense { &TUPLE_DENSE } else { &TUPLE_SPARSE };
        cell.with(|c| c.set(c.get() + 1));
    }
}

/// Record one spectral-convolution outcome: `ran` when the FFT result passed
/// the accuracy policy, otherwise a fallback to the exact kernel.
#[inline]
pub(crate) fn record_fft(ran: bool) {
    if ENABLED.load(Ordering::Relaxed) {
        let counter = if ran { &CONV_FFT } else { &FFT_FALLBACKS };
        counter.fetch_add(1, Ordering::Relaxed);
    }
}

/// Record the fate of a dense intermediate at a `⊕`/`⊔` node boundary:
/// `extended` when it survives into the next node in dense form, a **break**
/// when the consumer forces it back to sparse mid-chain.
///
/// Public because the chained evaluator lives above this crate (the d-tree
/// arena in `pvc-core`); bridged into the `kernel.dense_chain.*` metric names
/// by `pvc_core::obs::snapshot`.
#[inline]
pub fn record_dense_chain(extended: bool) {
    if ENABLED.load(Ordering::Relaxed) {
        let counter = if extended {
            &CHAIN_EXTENDS
        } else {
            &CHAIN_BREAKS
        };
        counter.fetch_add(1, Ordering::Relaxed);
    }
    if TUPLE_CAPTURE.with(Cell::get) {
        let cell = if extended {
            &TUPLE_EXTENDS
        } else {
            &TUPLE_BREAKS
        };
        cell.with(|c| c.set(c.get() + 1));
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn support_buckets_are_log2() {
        assert_eq!(support_bucket(0), 0);
        assert_eq!(support_bucket(1), 1);
        assert_eq!(support_bucket(2), 2);
        assert_eq!(support_bucket(3), 2);
        assert_eq!(support_bucket(4), 3);
        assert_eq!(support_bucket(usize::MAX), SUPPORT_BUCKETS - 1);
    }

    #[test]
    fn disabled_stats_record_nothing() {
        // Not enabled in this test binary: counters must stay untouched.
        let before = kernel_stats();
        record_conv(true, 4, 4);
        record_fft(false);
        let after = kernel_stats();
        assert_eq!(before, after);
    }

    #[test]
    fn tuple_capture_counts_per_thread() {
        let prior = begin_tuple_capture();
        record_conv(true, 2, 2);
        record_conv(false, 8, 8);
        record_conv(false, 8, 8);
        record_dense_chain(true);
        record_dense_chain(false);
        record_dense_chain(true);
        let (dense, sparse) = take_tuple_capture(prior);
        assert_eq!((dense, sparse), (1, 2));
        assert_eq!(tuple_capture_chain(), (2, 1));
        // Capture is off again: further dispatches are not attributed.
        record_conv(true, 2, 2);
        let prior = begin_tuple_capture();
        let (dense, sparse) = take_tuple_capture(prior);
        assert_eq!((dense, sparse), (0, 0));
    }
}
