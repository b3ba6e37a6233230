//! Adaptive distribution representations for the convolution kernel: sparse
//! (sorted-vector [`Dist`]) and **dense** (offset-indexed `Vec<f64>`) backing for
//! distributions over finite integer monoid values.
//!
//! COUNT and SUM convolutions (Eq. 6 of the paper) produce supports that live in a
//! contiguous (or near-contiguous) integer range: COUNT of `n` terms has support
//! `⊆ {0, …, n}`, and SUM over small values stays within the sum of the value
//! ranges. For such supports, the generate–sort–coalesce kernel wastes its time
//! sorting; a dense vector indexed by `value − offset` convolves by **direct
//! indexing** (`out[i + j] += p_a[i] · p_b[j]`) in `O(|p|·|q| + range)` with no
//! comparisons at all.
//!
//! # One accumulator, one dispatcher, one loop nest
//!
//! Every SUM/COUNT `⊕` — the d-tree arena's and the independent-component fold's —
//! is a step of an [`AdditiveFold`]: an accumulator that owns its value and every
//! buffer a step needs (spare output cells, the cells a sparse operand is
//! densified into, a leaf operand's cell buffer, the sparse kernel's candidate
//! pairs), so a step moves its operands in and allocates nothing.
//! [`convolve_additive_chained`] is the same step for callers that hold the value
//! themselves. Inside, exactly one function chooses the kernel (`choose_kernel`)
//! and exactly one contains the dense multiply-accumulate loop
//! (`multiply_accumulate`); [`DenseDist::convolve_add`] and
//! [`DenseDist::convolve_add_exact`] reach the same two.
//!
//! A leaf costs its cells. Against an operand of one to three cells (COUNT's
//! `{0, 1}`) the loop nest writes every output cell once, complete, with the
//! drop rule and the support count fused into that write, so the epilogue is
//! left with the trim alone; and a leaf that narrow enters
//! [`AdditiveFold::push_cells`] as its cells, with no [`Dist`] built for it.
//! Against a wider operand the loop nest puts outermost whichever side gives
//! fewer products — its non-zero cells times the other side's length, read
//! from the support counts both forms carry — and skips that side's zero
//! cells, so a `{0, v}` SUM operand costs its two cells, not `v + 1`.
//!
//! The dense pass is taken exactly when both supports are all-finite and the
//! output range is no larger than the work a convolution does anyway (so dense is
//! never asymptotically worse), the sparse kernel otherwise; the decision reads
//! bounds and support counts both forms carry, in `O(1)`. Below the FFT crossover
//! the dense pass is **bit-identical** to the sparse kernel because equal-valued
//! products accumulate in the same (outer-operand-major) order — in every
//! orientation of the loop nest, see `multiply_accumulate` — and the same
//! [`PROB_EPS`] drop rule applies on the way out; debug builds assert this on
//! every dense dispatch.
//!
//! # Chained dense evaluation
//!
//! Operands and result are [`ChainVal`]s, so a SUM/COUNT `⊕` chain keeps the dense
//! form alive across node boundaries instead of round-tripping dense → sparse →
//! dense at every node exit. Eligibility is computed from bounds and support sizes
//! that the trimmed dense form carries natively, so a chained evaluation is
//! bit-identical to one that materialises the sparse form after every step. Dense
//! results are **trimmed** — leading and trailing zero cells are removed and the
//! offset adjusted — so a dense value's bounds always equal its true support bounds
//! and every later eligibility decision matches the sparse path's. Chain fates are
//! counted by [`stats::record_dense_chain`](crate::stats::record_dense_chain)
//! (`kernel.dense_chain.extends` / `.breaks` after the obs bridge).
//!
//! # FFT convolution and its accuracy policy
//!
//! Past the crossover where the direct dense loop's `O(|p|·|q|)` products exceed
//! `O(N log N)` butterfly work ([`fft_would_run`]), the dispatcher
//! switches to the spectral kernel of the internal `fft` module. Spectral results
//! carry rounding error, so they pass an explicit **accuracy policy** before
//! being accepted:
//!
//! 1. every cell must be finite, and no cell may be more negative than `−1e-12`
//!    (tiny negatives are clamped to zero);
//! 2. the total mass must equal the exact product of the input masses within a
//!    relative [`FFT_RELATIVE_EPS`] (`1e-9`);
//! 3. the surviving cells are **renormalised** to that exact product mass, and
//!    the usual [`PROB_EPS`] drop rule is applied.
//!
//! Any violation falls back to the exact loop
//! ([`DenseDist::convolve_add_exact`]) and is counted in
//! `kernel.conv.fft_fallbacks`. FFT selection is a pure function of the two
//! dense lengths, so results stay deterministic across runs and thread counts;
//! they are *not* bit-identical to the exact kernel, only ε-close (the
//! differential oracle asserts both regimes).

use crate::dist::{Dist, PROB_EPS};
use crate::values::MonoidDist;
use pvc_algebra::MonoidValue;

/// A dense distribution over a contiguous range of finite integer values:
/// `probs[i]` is the probability of `Fin(offset + i)`. Cells at or below
/// [`PROB_EPS`] are kept as `0.0` (absent). Every constructor and combinator
/// maintains the **trim invariant**: the first and last cells are non-zero (or
/// the cell vector is empty), so `offset` and `offset + len − 1` are the true
/// support bounds. The number of cells above [`PROB_EPS`] is carried alongside
/// (every constructor walks the cells anyway), so dispatch never rescans.
#[derive(Debug, Clone, PartialEq)]
pub struct DenseDist {
    offset: i64,
    probs: Vec<f64>,
    support: usize,
}

impl DenseDist {
    fn empty() -> DenseDist {
        DenseDist {
            offset: 0,
            probs: Vec::new(),
            support: 0,
        }
    }

    /// Build from a sparse distribution whose support is all finite.
    ///
    /// Returns `None` if the support is empty or contains `±∞`.
    pub fn from_dist(dist: &MonoidDist) -> Option<DenseDist> {
        Self::from_dist_in(dist, Vec::new())
    }

    /// As [`from_dist`](Self::from_dist), into a recycled cell buffer.
    fn from_dist_in(dist: &MonoidDist, mut probs: Vec<f64>) -> Option<DenseDist> {
        let (lo, hi) = finite_bounds(dist)?;
        let range = usize::try_from(hi.checked_sub(lo)?).ok()?.checked_add(1)?;
        probs.clear();
        probs.resize(range, 0.0);
        let mut support = 0;
        for (v, p) in dist.iter() {
            let MonoidValue::Fin(x) = v else {
                unreachable!("finite_bounds verified an all-finite support")
            };
            probs[(x - lo) as usize] = p;
            support += usize::from(p > PROB_EPS);
        }
        Some(DenseDist {
            offset: lo,
            probs,
            support,
        })
    }

    /// The value of the first cell.
    pub fn offset(&self) -> i64 {
        self.offset
    }

    /// Number of cells (the spanned range, including zero cells).
    pub fn len(&self) -> usize {
        self.probs.len()
    }

    /// True if there are no cells.
    pub fn is_empty(&self) -> bool {
        self.probs.is_empty()
    }

    /// Number of cells holding probability above [`PROB_EPS`] (carried, `O(1)`).
    pub fn support_size(&self) -> usize {
        self.support
    }

    /// Total probability mass (`+0.0` when there are no cells).
    pub fn total_mass(&self) -> f64 {
        self.probs.iter().fold(0.0, |sum, p| sum + p)
    }

    /// The non-zero cells as `(value, probability)` pairs in ascending value
    /// order — the same sequence the sparse form's `iter` would yield.
    pub fn iter(&self) -> impl Iterator<Item = (i64, f64)> + '_ {
        self.probs
            .iter()
            .enumerate()
            .filter(|(_, p)| **p != 0.0)
            .map(|(i, p)| (self.offset + i as i64, *p))
    }

    /// Convert back to the sparse form (cells at or below [`PROB_EPS`] are dropped).
    /// The cells are scanned in ascending value order, so the output needs no sort.
    pub fn to_dist(&self) -> MonoidDist {
        let mut entries = Vec::with_capacity(self.support);
        entries.extend(
            self.probs
                .iter()
                .enumerate()
                .filter(|(_, p)| **p > PROB_EPS)
                .map(|(i, p)| (MonoidValue::Fin(self.offset + i as i64), *p)),
        );
        Dist::from_sorted_unique(entries)
    }

    fn profile(&self) -> Option<Profile> {
        (!self.probs.is_empty()).then(|| Profile {
            lo: self.offset,
            hi: self.offset + self.probs.len() as i64 - 1,
            support: self.support,
        })
    }

    /// The epilogue of the kernels that write raw cells (the spectral one and
    /// [`scale`](Self::scale)): [`drop_and_count`], then [`trimmed`](Self::trimmed).
    fn finish(offset: i64, mut probs: Vec<f64>) -> DenseDist {
        let support = drop_and_count(&mut probs);
        Self::trimmed(offset, probs, support)
    }

    /// Re-establish the trim invariant on cells the drop rule has already
    /// been applied to, `support` of them non-zero. The two end scans stop at
    /// once on an already-trimmed vector, and nothing is moved unless there is
    /// a leading gap to close.
    fn trimmed(offset: i64, mut probs: Vec<f64>, support: usize) -> DenseDist {
        let Some(first) = probs.iter().position(|p| *p != 0.0) else {
            return DenseDist::empty();
        };
        let last = probs.iter().rposition(|p| *p != 0.0).expect("nonzero cell");
        probs.truncate(last + 1);
        if first > 0 {
            probs.drain(..first);
        }
        DenseDist {
            offset: offset + first as i64,
            probs,
            support,
        }
    }

    /// Additive convolution of two operands already in dense form, by the
    /// kernel `choose_kernel` picks: spectral (FFT) past the [`fft_would_run`]
    /// crossover (subject to the accuracy policy, see the [module docs](self)),
    /// the exact loop otherwise. The result is dense either way: a pair the
    /// dispatcher would send to the *sparse* kernel runs the exact loop (same
    /// bits).
    pub fn convolve_add(&self, other: &DenseDist) -> DenseDist {
        let kernel = choose_kernel(self.profile(), other.profile());
        self.convolve_by(kernel, other, Vec::new())
    }

    /// Direct-index additive convolution: `out[i + j] += self[i] · other[j]`,
    /// bit-identical to the sparse generate–sort–coalesce kernel (see
    /// `multiply_accumulate` for the accumulation-order argument).
    pub fn convolve_add_exact(&self, other: &DenseDist) -> DenseDist {
        self.convolve_by(Kernel::Exact, other, Vec::new())
    }

    /// Run the chosen dense kernel, writing exact output into the recycled
    /// buffer `out`. A spectral attempt rejected by the accuracy policy falls
    /// back to the exact loop (counted in `kernel.conv.fft_fallbacks`).
    fn convolve_by(&self, kernel: Kernel, other: &DenseDist, out: Vec<f64>) -> DenseDist {
        if self.probs.is_empty() || other.probs.is_empty() {
            return DenseDist::empty();
        }
        if kernel == Kernel::Fft {
            if let Some(out) = self.convolve_add_fft(other) {
                crate::stats::record_fft(true);
                return out;
            }
            crate::stats::record_fft(false);
        }
        self.convolve_exact_into(other.offset, &other.probs, other.support, out)
    }

    /// The exact loop against the non-empty operand whose cell `i` is the
    /// probability of `Fin(offset + i)`, `support` of them non-zero, into the
    /// recycled buffer `out`.
    fn convolve_exact_into(
        &self,
        offset: i64,
        cells: &[f64],
        support: usize,
        mut out: Vec<f64>,
    ) -> DenseDist {
        let support = multiply_accumulate(&self.probs, self.support, cells, support, &mut out);
        Self::trimmed(self.offset + offset, out, support)
    }

    /// The spectral convolution attempt: `None` when the transform is
    /// oversized or the result violates the accuracy policy (the caller then
    /// runs the exact kernel).
    fn convolve_add_fft(&self, other: &DenseDist) -> Option<DenseDist> {
        let mut cells = crate::fft::convolve(&self.probs, &other.probs)?;
        let target = self.total_mass() * other.total_mass();
        let mut sum = 0.0;
        for p in cells.iter_mut() {
            if !p.is_finite() || *p < -FFT_NEGATIVE_TOLERANCE {
                return None;
            }
            if *p < 0.0 {
                *p = 0.0;
            }
            sum += *p;
        }
        // `sum` is a sum of finite non-negative cells, so comparing against
        // zero directly is NaN-safe here.
        if sum <= 0.0 || (sum - target).abs() > FFT_RELATIVE_EPS * target {
            return None;
        }
        let scale = target / sum;
        for p in cells.iter_mut() {
            *p *= scale;
        }
        Some(Self::finish(self.offset + other.offset, cells))
    }

    /// Scale every cell by `factor`, applying the sparse kernel's drop rule
    /// (scaled cells at or below [`PROB_EPS`] become zero) and re-trimming —
    /// bit-identical to `to_dist().scale(factor)` re-densified.
    pub fn scale(&self, factor: f64) -> DenseDist {
        let probs = self.probs.iter().map(|p| p * factor).collect();
        Self::finish(self.offset, probs)
    }

    /// Pointwise mixture of two dense distributions (the `⊔` combination),
    /// staying dense only while the union range is bounded by
    /// [`dense_mix_bounded`]; `self`'s cell is the left addend, matching the
    /// sparse [`Dist::mix`] accumulation order bit-for-bit.
    pub fn mix(&self, other: &DenseDist) -> Option<DenseDist> {
        if self.probs.is_empty() {
            return Some(other.clone());
        }
        if other.probs.is_empty() {
            return Some(self.clone());
        }
        let lo = self.offset.min(other.offset);
        let hi = (self.offset + self.probs.len() as i64 - 1)
            .max(other.offset + other.probs.len() as i64 - 1);
        let union = usize::try_from(hi.checked_sub(lo)?).ok()?.checked_add(1)?;
        if !dense_mix_bounded(self.probs.len(), other.probs.len(), union) {
            return None;
        }
        let mut probs = vec![0.0f64; union];
        let base = (self.offset - lo) as usize;
        probs[base..base + self.probs.len()].copy_from_slice(&self.probs);
        let base = (other.offset - lo) as usize;
        let mut support = self.support;
        for (cell, p) in probs[base..base + other.probs.len()]
            .iter_mut()
            .zip(&other.probs)
        {
            support += usize::from(*cell == 0.0 && *p > PROB_EPS);
            *cell += p;
        }
        // Both sides' cells exceed PROB_EPS individually, so no sum can fall
        // under the drop rule and the union's end cells are non-zero: the trim
        // invariant holds without another pass.
        Some(DenseDist {
            offset: lo,
            probs,
            support,
        })
    }
}

/// **The** dense loop nest: the `a.len() + b.len() − 1` cells of `a ∗ b`
/// (`out[i + j] += a[i] · b[j]`) written into `out`, with the epilogue the
/// sparse kernel applies on the way out — cells at or below [`PROB_EPS`] become
/// zero, so later convolutions see the same support either way — and the
/// number of surviving cells returned. Both operands are non-empty;
/// `support_a` / `support_b` are their non-zero cell counts as the operands
/// carry them (they steer the loop order only, so a wrong count can cost time
/// but never change a bit). Every dense convolution in this crate runs it.
///
/// Each output cell `k` receives its products `a[i] · b[k − i]` in ascending
/// `i` — the order the sparse generate–sort–coalesce kernel sums equal-valued
/// candidates (`a` is its outer operand) — so the result is bit-identical to
/// the sparse path. A skipped zero product is a `+0.0` that changes no bit of
/// a non-negative cell (and a cell that stays zero is dropped either way).
/// Three orientations keep that order:
///
/// * **short** — `b` shorter than one chunk (`b.len() < 4`, and no longer
///   than `a`; COUNT's `{0, 1}` operand has two cells): every cell is computed
///   complete and written once, drop rule and support count included —
///   `Σ a[k − j] · b[j]` over *descending* `j`, so `i = k − j` ascends. The
///   interior cells are one branch-free zip of `a` with itself shifted by one
///   cell per `b` cell (for two cells, `a[..L − 1]` with `a[1..]`); only the
///   `b.len() − 1` cells at either end, where some `j` fall outside `a`, are
///   summed cell by cell. Zero cells are not skipped; they add `+0.0`.
/// * **`a` outermost** — `out` zeroed, `a` in ascending `i`, skipping its zero
///   cells (SUM accumulators have gaps early in a fold), and the row update
///   over `b` written as four independent lanes over `chunks_exact(4)` plus a
///   scalar remainder: `support_a · b.len()` products.
/// * **`b` outermost** — `out` zeroed, `b` in *descending* `j` (so each cell's
///   `i = k − j` ascends, as above), skipping its zero cells, and the row
///   update `out[j..j + L] += b[j] · a` one plain zip: `support_b · a.len()`
///   products. A `{0, v}` SUM operand costs its two cells here, not `v + 1`.
///
/// The two general orientations are chosen by that product count, `b`
/// outermost only when strictly cheaper. Each output cell is touched once per
/// outer cell, so neither reassociates a sum and the compiler is free to emit
/// packed `mulpd` / `addpd`; the drop rule is a pass of its own
/// ([`drop_and_count`]).
fn multiply_accumulate(
    a: &[f64],
    support_a: usize,
    b: &[f64],
    support_b: usize,
    out: &mut Vec<f64>,
) -> usize {
    out.clear();
    let (l, n) = (a.len(), b.len());
    if n < 4 && n <= l {
        // The interior, then the `n − 1` end cells on either side, each run
        // written by a loop of its own: one `extend` over a chain of the
        // three runs does not vectorise.
        out.reserve(l + n - 1);
        return match *b {
            [b0] => write_cells(out, a.iter().map(|&x| x * b0)),
            [b0, b1] => {
                write_cells(out, [a[0] * b0].into_iter())
                    + write_cells(
                        out,
                        a[..l - 1]
                            .iter()
                            .zip(&a[1..])
                            .map(|(&x, &y)| x * b1 + y * b0),
                    )
                    + write_cells(out, [a[l - 1] * b1].into_iter())
            }
            [b0, b1, b2] => {
                write_cells(out, [a[0] * b0, a[0] * b1 + a[1] * b0].into_iter())
                    + write_cells(
                        out,
                        a[..l - 2]
                            .iter()
                            .zip(&a[1..l - 1])
                            .zip(&a[2..])
                            .map(|((&x, &y), &z)| x * b2 + y * b1 + z * b0),
                    )
                    + write_cells(
                        out,
                        [a[l - 2] * b2 + a[l - 1] * b1, a[l - 1] * b2].into_iter(),
                    )
            }
            _ => unreachable!("a short operand has one to three cells"),
        };
    }
    out.resize(l + n - 1, 0.0);
    if support_b.saturating_mul(l) < support_a.saturating_mul(n) {
        for (j, &pb) in b.iter().enumerate().rev() {
            if pb == 0.0 {
                continue;
            }
            for (r, &x) in out[j..j + l].iter_mut().zip(a) {
                *r += pb * x;
            }
        }
    } else {
        for (i, &pa) in a.iter().enumerate() {
            if pa == 0.0 {
                continue;
            }
            let row = &mut out[i..i + n];
            let mut rows = row.chunks_exact_mut(4);
            let mut cols = b.chunks_exact(4);
            for (r, o) in rows.by_ref().zip(cols.by_ref()) {
                r[0] += pa * o[0];
                r[1] += pa * o[1];
                r[2] += pa * o[2];
                r[3] += pa * o[3];
            }
            for (r, o) in rows.into_remainder().iter_mut().zip(cols.remainder()) {
                *r += pa * *o;
            }
        }
    }
    drop_and_count(out)
}

/// Append `cells` to `out` under the sparse kernel's drop rule, branch-free,
/// and return how many survive: the short orientation's one write per cell.
fn write_cells(out: &mut Vec<f64>, cells: impl Iterator<Item = f64>) -> usize {
    let mut support = 0;
    out.extend(cells.map(|p| {
        let kept = p > PROB_EPS;
        support += usize::from(kept);
        if kept {
            p
        } else {
            0.0
        }
    }));
    support
}

/// The sparse kernel's drop rule over raw cells, in one branch-free pass:
/// cells at or below [`PROB_EPS`] become zero; returns how many survive.
fn drop_and_count(probs: &mut [f64]) -> usize {
    let mut support = 0;
    for p in probs {
        let dropped = *p <= PROB_EPS;
        *p = if dropped { 0.0 } else { *p };
        support += usize::from(!dropped);
    }
    support
}

/// Minimum spanned range below which the dense form is always eligible (the vector
/// is so small that direct indexing beats any sort regardless of density).
const DENSE_ALWAYS_RANGE: usize = 64;

/// Minimum dense length on **both** operands before the spectral kernel is
/// considered: below this the direct loop's cache behaviour wins regardless of
/// the op-count model.
pub const FFT_MIN_LEN: usize = 64;

/// The spectral kernel runs when the direct loop's `|p|·|q|` cell products
/// exceed this multiple of the padded transform's `N log₂ N` butterflies.
const FFT_COST_FACTOR: usize = 8;

/// Documented ε of the FFT accuracy policy: the spectral result's total mass
/// must match the exact product of the operand masses within this relative
/// tolerance, and the accepted result is renormalised to that exact mass.
pub const FFT_RELATIVE_EPS: f64 = 1e-9;

/// Cells more negative than this are a policy violation; anything in
/// `(−tolerance, 0)` is clamped to zero before renormalisation.
const FFT_NEGATIVE_TOLERANCE: f64 = 1e-12;

/// Whether the adaptive kernel would pick the spectral path for dense operands
/// of the given lengths — a pure function of the two lengths, so chained and
/// round-tripping evaluations make identical choices. Exposed for the bench
/// crossover scenario and the property tests.
pub fn fft_would_run(len_a: usize, len_b: usize) -> bool {
    if len_a.min(len_b) < FFT_MIN_LEN {
        return false;
    }
    let out_len = len_a + len_b - 1;
    let n = out_len.next_power_of_two();
    let log2n = n.trailing_zeros() as usize;
    len_a
        .checked_mul(len_b)
        .map_or(true, |direct| direct > FFT_COST_FACTOR * n * log2n)
}

/// Whether a `⊔` mixture of dense operands may stay dense: the union range may
/// not exceed `max(4 × (cells_a + cells_b), 64)`, so the dense result stays
/// within a constant factor of the inputs' combined footprint.
pub fn dense_mix_bounded(len_a: usize, len_b: usize, union_range: usize) -> bool {
    union_range
        <= 4usize
            .saturating_mul(len_a.saturating_add(len_b))
            .max(DENSE_ALWAYS_RANGE)
}

/// The `(min, max)` finite values of the support; `None` when the support is empty
/// or contains `±∞`. Entries are sorted and `−∞ < Fin(_) < +∞`, so only the two
/// ends need checking: if both are finite, everything between is.
fn finite_bounds(dist: &MonoidDist) -> Option<(i64, i64)> {
    let lo = dist.min_value()?.finite()?;
    let hi = dist.max_value()?.finite()?;
    Some((lo, hi))
}

/// What dispatch needs to know of one non-empty, all-finite operand, in either
/// form: its support bounds (exact for dense values, by the trim invariant) and
/// its support size. Reading one is `O(1)`.
#[derive(Debug, Clone, Copy)]
struct Profile {
    lo: i64,
    hi: i64,
    support: usize,
}

/// The kernel one additive convolution runs on.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
enum Kernel {
    /// Sparse generate–sort–coalesce.
    Sparse,
    /// The exact dense loop ([`multiply_accumulate`]).
    Exact,
    /// The spectral dense kernel, under the accuracy policy.
    Fft,
}

/// **The** kernel choice, a pure function of the operands' profiles (`None`
/// for an empty or non-finite operand). Dense is eligible when the output range
/// does not exceed the candidate-pair count — so the dense pass is never more
/// work than the sparse sort — with the [`DENSE_ALWAYS_RANGE`] floor; an
/// eligible pair past the [`fft_would_run`] crossover runs spectrally.
fn choose_kernel(a: Option<Profile>, b: Option<Profile>) -> Kernel {
    let eligible = || {
        let (a, b) = (a?, b?);
        let lo = a.lo.checked_add(b.lo)?;
        let hi = a.hi.checked_add(b.hi)?;
        let range = usize::try_from(hi.checked_sub(lo)?).ok()?.checked_add(1)?;
        let candidates = a.support.checked_mul(b.support)?;
        // Each operand's own range is no wider than the output's, so it fits.
        let len = |p: Profile| (p.hi - p.lo) as usize + 1;
        (range <= candidates.max(DENSE_ALWAYS_RANGE)).then(|| (len(a), len(b)))
    };
    match eligible() {
        None => Kernel::Sparse,
        Some((len_a, len_b)) if fft_would_run(len_a, len_b) => Kernel::Fft,
        Some(_) => Kernel::Exact,
    }
}

/// One operand or result of a chained adaptive convolution: a dense value kept
/// alive across node boundaries, or a sparse one.
#[derive(Debug, Clone)]
pub enum ChainVal {
    /// Offset-indexed dense form (trimmed: bounds are true support bounds).
    Dense(DenseDist),
    /// Sorted-vector sparse form.
    Sparse(MonoidDist),
}

impl ChainVal {
    /// Materialise the sparse form (the dense case is the end of a chain — the
    /// caller decides whether that counts as a break).
    pub fn into_dist(self) -> MonoidDist {
        match self {
            ChainVal::Dense(d) => d.to_dist(),
            ChainVal::Sparse(d) => d,
        }
    }

    /// True when no value has non-zero probability.
    pub fn is_empty(&self) -> bool {
        match self {
            ChainVal::Dense(d) => d.is_empty(),
            ChainVal::Sparse(d) => d.is_empty(),
        }
    }

    /// Number of values with non-zero probability, `O(1)` in either form.
    fn support_size(&self) -> usize {
        match self {
            ChainVal::Dense(d) => d.support_size(),
            ChainVal::Sparse(d) => d.support_size(),
        }
    }

    fn profile(&self) -> Option<Profile> {
        match self {
            ChainVal::Dense(d) => d.profile(),
            ChainVal::Sparse(d) => {
                let (lo, hi) = finite_bounds(d)?;
                Some(Profile {
                    lo,
                    hi,
                    support: d.support_size(),
                })
            }
        }
    }

    /// The sparse form for the sparse kernel: a dense value breaks its chain.
    fn demote(self) -> MonoidDist {
        if matches!(self, ChainVal::Dense(_)) {
            crate::stats::record_dense_chain(false);
        }
        self.into_dist()
    }
}

/// The accumulator of an additive (SUM / COUNT) fold, and the one owner of the
/// buffers a fold step needs — so a step costs the cells it touches and no
/// allocation:
///
/// * the **spare output buffer**: a dense step writes into it and the consumed
///   accumulator's cell vector becomes the next step's spare (the two
///   alternate, growing amortised);
/// * the buffer a **sparse operand is densified into** for the dense kernel;
/// * the **cell buffer** [`push_cells`](Self::push_cells) gathers a leaf
///   operand's cells in — a consumed sparse operand hands its entry vector
///   back here;
/// * the sparse kernel's **candidate-pair scratch**.
///
/// Operands are moved in and consumed; every step goes through the one
/// dispatcher (`choose_kernel`, with its `record_conv` accounting) and the one
/// dense loop nest (`multiply_accumulate`). The spectral branch allocates its
/// own transform buffers. A leaf of at most three cells against a dense
/// accumulator builds no operand at all: its cells are coalesced on the stack
/// and handed to the loop nest as they are.
///
/// Below the FFT crossover a fold is bit-identical to materialising every
/// operand and folding with `acc.convolve(&d, |x, y| x.saturating_add(y))`;
/// ε-close above it, with path selection a pure function of the operands
/// either way.
///
/// Chain bookkeeping: a dense result records one *extend*; a dense **operand**
/// forced sparse because the pair is ineligible records one *break* (see
/// [`stats::record_dense_chain`](crate::stats::record_dense_chain)).
#[derive(Debug, Default)]
pub struct AdditiveFold {
    acc: Option<ChainVal>,
    spare: Vec<f64>,
    operand: Vec<f64>,
    cells: Vec<(MonoidValue, f64)>,
    pairs: Vec<(MonoidValue, f64)>,
}

impl AdditiveFold {
    /// An empty accumulator with no buffers yet.
    pub fn new() -> Self {
        Self::default()
    }

    /// Fold one operand in: the first becomes the accumulator as it is, every
    /// later one is convolved into it.
    pub fn push(&mut self, operand: ChainVal) {
        self.acc = Some(match self.acc.take() {
            None => operand,
            Some(acc) => self.step(acc, operand),
        });
    }

    /// Fold in the operand whose cells are `cells` in generation order —
    /// equal values are summed left to right and sums at or below
    /// [`PROB_EPS`] dropped, exactly as [`Dist::map`] coalesces — without
    /// allocating a distribution for it.
    ///
    /// A leaf spanning at most three values that meets a dense accumulator
    /// the dispatcher sends to the exact loop goes in as cells: coalesced in a
    /// fixed-size buffer, dispatched on its profile and convolved without a
    /// [`Dist`] or a densified copy, with the same `record_conv` /
    /// `record_dense_chain` events as [`push`](Self::push). Every other
    /// operand — wider, infinite, empty, first, or met by a sparse
    /// accumulator — is coalesced into a [`Dist`] and pushed.
    pub fn push_cells(&mut self, cells: impl IntoIterator<Item = (MonoidValue, f64)>) {
        let mut buffer = std::mem::take(&mut self.cells);
        buffer.clear();
        buffer.extend(cells);
        if let Some(ChainVal::Dense(acc)) = &self.acc {
            if let Some(leaf) = ShortLeaf::coalesce(&buffer) {
                if choose_kernel(acc.profile(), Some(leaf.profile())) == Kernel::Exact {
                    self.cells = buffer;
                    let Some(ChainVal::Dense(acc)) = self.acc.take() else {
                        unreachable!("matched a dense accumulator above")
                    };
                    self.acc = Some(ChainVal::Dense(self.step_leaf(acc, &leaf)));
                    return;
                }
            }
        }
        self.push(ChainVal::Sparse(Dist::coalesced(buffer)));
    }

    /// The accumulated value so far (`None` before the first operand).
    pub fn value(&self) -> Option<&ChainVal> {
        self.acc.as_ref()
    }

    /// Take the accumulated value out, keeping the buffers for the next fold.
    pub fn take(&mut self) -> Option<ChainVal> {
        self.acc.take()
    }

    /// One dispatched convolution step `a ⊕ b`, consuming both.
    fn step(&mut self, a: ChainVal, b: ChainVal) -> ChainVal {
        let add = |x: &MonoidValue, y: &MonoidValue| x.saturating_add(y);
        if a.is_empty() || b.is_empty() {
            // An empty operand still counts as one (sparse) dispatch.
            crate::stats::record_conv(false, a.support_size(), b.support_size());
            return ChainVal::Sparse(Dist::empty());
        }
        let kernel = choose_kernel(a.profile(), b.profile());
        if kernel == Kernel::Sparse {
            // Any dense operand breaks its chain here.
            let (da, db) = (a.demote(), b.demote());
            crate::stats::record_conv(false, da.support_size(), db.support_size());
            return ChainVal::Sparse(da.convolve_with_scratch(&db, add, &mut self.pairs));
        }
        crate::stats::record_conv(true, a.support_size(), b.support_size());
        #[cfg(debug_assertions)]
        let sparse = (kernel == Kernel::Exact).then(|| {
            let (da, db) = (a.clone().into_dist(), b.clone().into_dist());
            da.convolve(&db, add)
        });
        let da = match a {
            ChainVal::Dense(d) => d,
            ChainVal::Sparse(d) => DenseDist::from_dist(&d).expect("profiled finite support"),
        };
        let db = match b {
            ChainVal::Dense(d) => d,
            ChainVal::Sparse(d) => {
                let dense = DenseDist::from_dist_in(&d, std::mem::take(&mut self.operand))
                    .expect("profiled finite support");
                self.cells = d.into_entries();
                dense
            }
        };
        let out = da.convolve_by(kernel, &db, std::mem::take(&mut self.spare));
        self.spare = da.probs;
        self.operand = db.probs;
        #[cfg(debug_assertions)]
        if let Some(sparse) = sparse {
            debug_assert!(
                bit_equal(&out.to_dist(), &sparse),
                "dense convolution diverged from the sparse kernel"
            );
        }
        crate::stats::record_dense_chain(true);
        ChainVal::Dense(out)
    }

    /// [`step`](Self::step)'s exact dense branch for a leaf that stayed in
    /// cells: same accounting, same loop nest, no operand to densify.
    fn step_leaf(&mut self, acc: DenseDist, leaf: &ShortLeaf) -> DenseDist {
        crate::stats::record_conv(true, acc.support_size(), leaf.support);
        let out = acc.convolve_exact_into(
            leaf.lo,
            &leaf.cells[..leaf.span],
            leaf.support,
            std::mem::take(&mut self.spare),
        );
        #[cfg(debug_assertions)]
        {
            let add = |x: &MonoidValue, y: &MonoidValue| x.saturating_add(y);
            let sparse = acc.to_dist().convolve(&leaf.to_dist(), add);
            debug_assert!(
                bit_equal(&out.to_dist(), &sparse),
                "dense convolution of a leaf diverged from the sparse kernel"
            );
        }
        self.spare = acc.probs;
        crate::stats::record_dense_chain(true);
        out
    }
}

/// Raw leaf cells [`ShortLeaf::coalesce`] accepts: a Boolean leaf has two, a
/// small natural-number one a few more.
const LEAF_CELLS: usize = 4;

/// A leaf operand of [`AdditiveFold::push_cells`] coalesced on the stack:
/// finite, non-empty, spanning at most three values — the short orientation
/// of `multiply_accumulate`. `cells[i]` is the probability of `Fin(lo + i)`
/// for `i < span`.
#[derive(Debug)]
struct ShortLeaf {
    lo: i64,
    cells: [f64; 3],
    span: usize,
    support: usize,
}

impl ShortLeaf {
    /// Coalesce `raw` (generation order) as [`Dist::coalesced`] does — a
    /// stable sort by value, equal values summed left to right, sums at or
    /// below [`PROB_EPS`] dropped — in fixed-size buffers. `None` for more
    /// than [`LEAF_CELLS`] raw cells, or a result that is empty, infinite or
    /// spans more than three values.
    fn coalesce(raw: &[(MonoidValue, f64)]) -> Option<ShortLeaf> {
        if raw.len() > LEAF_CELLS {
            return None;
        }
        let mut sorted = [(MonoidValue::Fin(0), 0.0); LEAF_CELLS];
        let sorted = &mut sorted[..raw.len()];
        sorted.copy_from_slice(raw);
        for i in 1..sorted.len() {
            let mut j = i;
            while j > 0 && sorted[j - 1].0 > sorted[j].0 {
                sorted.swap(j - 1, j);
                j -= 1;
            }
        }
        let mut kept = [(MonoidValue::Fin(0), 0.0); LEAF_CELLS];
        let mut n = 0;
        let mut i = 0;
        while i < sorted.len() {
            let (value, mut p) = sorted[i];
            i += 1;
            while i < sorted.len() && sorted[i].0 == value {
                p += sorted[i].1;
                i += 1;
            }
            if p > PROB_EPS {
                kept[n] = (value, p);
                n += 1;
            }
        }
        let kept = &kept[..n];
        let lo = kept.first()?.0.finite()?;
        let hi = kept.last()?.0.finite()?;
        let span = usize::try_from(hi.checked_sub(lo)?).ok()? + 1;
        if span > 3 {
            return None;
        }
        let mut cells = [0.0; 3];
        for &(value, p) in kept {
            // Between two finite ends every value is finite.
            cells[(value.finite()? - lo) as usize] = p;
        }
        let leaf = ShortLeaf {
            lo,
            cells,
            span,
            support: n,
        };
        #[cfg(debug_assertions)]
        debug_assert!(bit_equal(&leaf.to_dist(), &Dist::coalesced(raw.to_vec())));
        Some(leaf)
    }

    fn profile(&self) -> Profile {
        Profile {
            lo: self.lo,
            hi: self.lo + (self.span as i64 - 1),
            support: self.support,
        }
    }

    #[cfg(debug_assertions)]
    fn to_dist(&self) -> MonoidDist {
        Dist::from_sorted_unique(
            self.cells[..self.span]
                .iter()
                .enumerate()
                .filter(|(_, p)| **p != 0.0)
                .map(|(i, p)| (MonoidValue::Fin(self.lo + i as i64), *p))
                .collect(),
        )
    }
}

/// One step of an additive (SUM / COUNT) convolution with adaptive
/// representation choice — [`AdditiveFold`]'s step for callers that thread the
/// value themselves: same dispatcher, same loop nest, same accounting, but no
/// buffer survives the call except the sparse kernel's `scratch`. An eligible
/// result stays dense for the next node instead of being materialised sparse,
/// and operands may still be dense from the previous node.
pub fn convolve_additive_chained(
    a: ChainVal,
    b: ChainVal,
    scratch: &mut Vec<(MonoidValue, f64)>,
) -> ChainVal {
    let mut fold = AdditiveFold {
        pairs: std::mem::take(scratch),
        ..AdditiveFold::default()
    };
    let out = fold.step(a, b);
    *scratch = fold.pairs;
    out
}

/// `⊔` mixture step for chained dense evaluation: keeps the mixture dense when
/// [`DenseDist::mix`] accepts it (recording one chain *extend*), otherwise
/// returns `None` and the caller demotes (recording the breaks itself).
pub fn mix_dense_chained(a: &DenseDist, b: &DenseDist) -> Option<DenseDist> {
    let out = a.mix(b)?;
    crate::stats::record_dense_chain(true);
    Some(out)
}

#[cfg(debug_assertions)]
fn bit_equal(a: &MonoidDist, b: &MonoidDist) -> bool {
    a.support_size() == b.support_size()
        && a.iter()
            .zip(b.iter())
            .all(|((av, ap), (bv, bp))| av == bv && ap.to_bits() == bp.to_bits())
}

#[cfg(test)]
mod tests {
    use super::*;
    use pvc_algebra::MonoidValue::{Fin, PosInf};

    fn uniform(lo: i64, hi: i64) -> MonoidDist {
        let n = (hi - lo + 1) as f64;
        Dist::from_pairs((lo..=hi).map(|v| (Fin(v), 1.0 / n)))
    }

    /// The dispatcher on sparse operands, with the result materialised sparse.
    fn additive(a: &MonoidDist, b: &MonoidDist) -> MonoidDist {
        convolve_additive_chained(
            ChainVal::Sparse(a.clone()),
            ChainVal::Sparse(b.clone()),
            &mut Vec::new(),
        )
        .into_dist()
    }

    #[test]
    fn dense_round_trip() {
        let d = Dist::from_pairs([(Fin(3), 0.25), (Fin(5), 0.75)]);
        let dense = DenseDist::from_dist(&d).unwrap();
        assert_eq!(dense.offset(), 3);
        assert_eq!(dense.len(), 3);
        assert_eq!(dense.support_size(), 2);
        assert_eq!(dense.to_dist(), d);
    }

    #[test]
    fn dense_rejects_infinite_support() {
        let d = Dist::from_pairs([(Fin(3), 0.5), (PosInf, 0.5)]);
        assert!(DenseDist::from_dist(&d).is_none());
    }

    #[test]
    fn dense_convolution_matches_sparse_bitwise() {
        let a = uniform(0, 12);
        let b = Dist::from_pairs([(Fin(0), 0.5), (Fin(1), 0.3), (Fin(2), 0.2)]);
        let dense = additive(&a, &b);
        let sparse = a.convolve(&b, |x, y| x.saturating_add(y));
        assert_eq!(dense.support_size(), sparse.support_size());
        for ((dv, dp), (sv, sp)) in dense.iter().zip(sparse.iter()) {
            assert_eq!(dv, sv);
            assert_eq!(dp.to_bits(), sp.to_bits());
        }
    }

    #[test]
    fn dense_repr_convolve_matches() {
        let a = uniform(0, 8);
        let b = uniform(2, 6);
        let da = DenseDist::from_dist(&a).unwrap();
        let db = DenseDist::from_dist(&b).unwrap();
        let dense = da.convolve_add(&db).to_dist();
        let sparse = a.convolve(&b, |x, y| x.saturating_add(y));
        assert!(dense.approx_eq(&sparse, 0.0));
    }

    #[test]
    fn infinite_values_fall_back_to_sparse() {
        let a = Dist::from_pairs([(Fin(1), 0.5), (PosInf, 0.5)]);
        let b = uniform(0, 3);
        let out = additive(&a, &b);
        let expected = a.convolve(&b, |x, y| x.saturating_add(y));
        assert!(out.approx_eq(&expected, 0.0));
        assert!(out.prob(&PosInf) > 0.0);
    }

    #[test]
    fn empty_operands() {
        let a = MonoidDist::empty();
        let b = uniform(0, 3);
        assert!(additive(&a, &b).is_empty());
        assert!(additive(&b, &a).is_empty());
    }

    #[test]
    fn convolution_output_is_trimmed() {
        let a = uniform(5, 9);
        let da = DenseDist::from_dist(&a).unwrap();
        let out = da.convolve_add_exact(&da);
        // Bounds are true support bounds: 10..=18.
        assert_eq!(out.offset(), 10);
        assert_eq!(out.len(), 9);
        assert!(out.iter().next().unwrap().1 > 0.0);
    }

    #[test]
    fn fft_crossover_is_length_driven() {
        assert!(!fft_would_run(8, 8));
        assert!(!fft_would_run(1024, 4)); // one tiny operand: direct wins
        assert!(fft_would_run(512, 512));
    }

    #[test]
    fn fft_matches_exact_within_eps() {
        let a = uniform(0, 299);
        let da = DenseDist::from_dist(&a).unwrap();
        assert!(fft_would_run(da.len(), da.len()));
        let spectral = da.convolve_add(&db_clone(&da));
        let exact = da.convolve_add_exact(&db_clone(&da));
        assert_eq!(spectral.offset(), exact.offset());
        assert_eq!(spectral.len(), exact.len());
        // Mass is renormalised to the exact product; cells agree within ε.
        assert!((spectral.total_mass() - exact.total_mass()).abs() < 1e-12);
        for ((v1, p1), (v2, p2)) in spectral.iter().zip(exact.iter()) {
            assert_eq!(v1, v2);
            assert!((p1 - p2).abs() < 1e-9, "{v1}: {p1} vs {p2}");
        }
    }

    fn db_clone(d: &DenseDist) -> DenseDist {
        d.clone()
    }

    #[test]
    fn chained_convolution_matches_round_trip_bitwise() {
        // A COUNT-style chain: fold 20 two-point tensors. Chained-dense vs
        // materialise-at-every-step must agree bit-for-bit.
        let mut scratch = Vec::new();
        let term = |p: f64| Dist::from_pairs([(Fin(0), 1.0 - p), (Fin(1), p)]);
        let mut chained = ChainVal::Sparse(term(0.3));
        let mut stepwise = term(0.3);
        for i in 1..20 {
            let p = 0.05 + 0.04 * i as f64;
            chained = convolve_additive_chained(chained, ChainVal::Sparse(term(p)), &mut scratch);
            stepwise = additive(&stepwise, &term(p));
        }
        let chained = chained.into_dist();
        assert!(bit_equal_pub(&chained, &stepwise));
    }

    fn bit_equal_pub(a: &MonoidDist, b: &MonoidDist) -> bool {
        a.support_size() == b.support_size()
            && a.iter()
                .zip(b.iter())
                .all(|((av, ap), (bv, bp))| av == bv && ap.to_bits() == bp.to_bits())
    }

    #[test]
    fn chained_convolution_demotes_on_ineligible_pairs() {
        // A scattered operand forces the sparse path; the result must still
        // match the generic sparse kernel bitwise.
        let mut scratch = Vec::new();
        let contiguous = uniform(0, 10);
        let scattered = Dist::from_pairs((0..40).map(|i| (Fin(i * 1_000_000), 1.0 / 40.0)));
        let dense = DenseDist::from_dist(&contiguous).unwrap();
        let out = convolve_additive_chained(
            ChainVal::Dense(dense),
            ChainVal::Sparse(scattered.clone()),
            &mut scratch,
        );
        assert!(matches!(out, ChainVal::Sparse(_)));
        let expected = contiguous.convolve(&scattered, |x, y| x.saturating_add(y));
        assert!(bit_equal_pub(&out.into_dist(), &expected));
    }

    /// `{0: 1 − p, v: p}`, one row of a group SUM.
    fn two_point(v: i64, p: f64) -> MonoidDist {
        Dist::two_point(Fin(0), 1.0 - p, Fin(v), p)
    }

    /// `len` cells from `0` with uneven probabilities; with `gaps`, every third
    /// cell (the ends excepted) is absent.
    fn uneven(len: i64, gaps: bool) -> MonoidDist {
        let weight = |v: i64| (1 + (v * 7919) % 13) as f64;
        let kept = |v: i64| !gaps || v % 3 != 1 || v == len - 1;
        let total: f64 = (0..len).filter(|&v| kept(v)).map(weight).sum();
        Dist::from_pairs(
            (0..len)
                .filter(|&v| kept(v))
                .map(|v| (Fin(v), weight(v) / total)),
        )
    }

    /// `a ∗ b` through one general orientation of the loop nest, forced by
    /// the support counts it is handed (`b` outermost or `a` outermost).
    fn forced(a: &DenseDist, b: &DenseDist, b_outer: bool) -> MonoidDist {
        let (support_a, support_b) = if b_outer { (1, 0) } else { (0, 1) };
        let mut out = Vec::new();
        let support = multiply_accumulate(&a.probs, support_a, &b.probs, support_b, &mut out);
        DenseDist::trimmed(a.offset + b.offset, out, support).to_dist()
    }

    /// The exact loop, in the orientation the carried counts choose and in
    /// both general orientations, bit for bit against the sparse kernel.
    fn assert_loop_matches_sparse(a: &MonoidDist, b: &MonoidDist) {
        let expected = a.convolve(b, |x, y| x.saturating_add(y));
        let (da, db) = (
            DenseDist::from_dist(a).unwrap(),
            DenseDist::from_dist(b).unwrap(),
        );
        let context = format!("{} cells ∗ {} cells", da.len(), db.len());
        assert!(
            bit_equal_pub(&da.convolve_add_exact(&db).to_dist(), &expected),
            "{context}"
        );
        for b_outer in [false, true] {
            assert!(
                bit_equal_pub(&forced(&da, &db, b_outer), &expected),
                "{context}, b outermost: {b_outer}"
            );
        }
    }

    #[test]
    fn a_two_point_operand_outermost_keeps_the_bits() {
        let acc = uneven(5_000, false);
        for v in [4, 63, 200] {
            assert_loop_matches_sparse(&acc, &two_point(v, 0.3));
        }
    }

    #[test]
    fn a_short_accumulator_against_a_long_two_point_operand_keeps_the_bits() {
        for len in [1, 2, 3, 5] {
            assert_loop_matches_sparse(&uneven(len, false), &two_point(200, 0.7));
            assert_loop_matches_sparse(&two_point(200, 0.7), &uneven(len, false));
        }
    }

    #[test]
    fn an_accumulator_with_interior_gaps_keeps_the_bits() {
        let acc = uneven(600, true);
        assert!(acc.support_size() < 450);
        for v in [4, 63, 200] {
            assert_loop_matches_sparse(&acc, &two_point(v, 0.45));
            assert_loop_matches_sparse(&two_point(v, 0.45), &acc);
        }
        assert_loop_matches_sparse(&acc, &uneven(9, true));
    }

    #[test]
    fn dense_mix_matches_sparse_mix_bitwise() {
        let a = uniform(0, 6).scale(0.4);
        let b = uniform(3, 12).scale(0.6);
        let da = DenseDist::from_dist(&a).unwrap();
        let db = DenseDist::from_dist(&b).unwrap();
        let mixed = da.mix(&db).expect("bounded union");
        assert!(bit_equal_pub(&mixed.to_dist(), &a.mix(&b)));
        // 0..=6 and 3..=12 overlap on four cells: the carried count is the union's.
        assert_eq!(mixed.support_size(), 13);
    }

    #[test]
    fn dense_mix_refuses_unbounded_unions() {
        let a = DenseDist::from_dist(&uniform(0, 6)).unwrap();
        let b = DenseDist::from_dist(&Dist::from_pairs([(Fin(1_000_000), 1.0)])).unwrap();
        assert!(a.mix(&b).is_none());
    }

    #[test]
    fn dense_scale_applies_drop_rule_and_trims() {
        let d = Dist::from_pairs([(Fin(0), 1e-8), (Fin(5), 0.9)]);
        let dense = DenseDist::from_dist(&d).unwrap();
        let scaled = dense.scale(0.01);
        // The first cell (1e-10) falls under PROB_EPS: dropped and trimmed.
        assert_eq!(scaled.offset(), 5);
        assert_eq!(scaled.len(), 1);
        assert_eq!(scaled.support_size(), 1);
        assert!(bit_equal_pub(&scaled.to_dist(), &d.scale(0.01)));
    }
}
