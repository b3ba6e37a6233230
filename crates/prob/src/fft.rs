//! Zero-dependency iterative radix-2 FFT over `f64`, used by the dense
//! convolution kernel of [`repr`](crate::repr) when support sizes make the
//! `O(N log N)` spectral path cheaper than the direct `O(|p|·|q|)` loop.
//!
//! One convolution of two real sequences costs one full-length and one
//! half-length complex transform:
//!
//! * **Packed forward transform.** Both inputs go into **one** complex
//!   transform (`z = a + i·b`, zero-padded to `N`), and the two spectra are
//!   separated through conjugate symmetry: `A[k] = (Z[k] + conj Z[N−k]) / 2`,
//!   `B[k] = (Z[k] − conj Z[N−k]) / 2i`.
//! * **Half-length real inverse.** The product spectrum `C = A·B` is
//!   Hermitian, because the convolution is real. So its inverse is taken as
//!   one complex transform of length `N / 2` whose output, read as
//!   interleaved `(re, im)` pairs, is the `N` real cells: the input is
//!   `Y[k] = E[k] + i·O[k]` with `E[k] = (C[k] + conj C[N/2−k]) / 2` and
//!   `O[k] = (C[k] − conj C[N/2−k]) / 2 · w^{−k}` (`w = e^{−2πi/N}`), the
//!   spectra of the even and the odd cells. `Y` is written over the first
//!   half of the forward transform's buffers; the inverse is the forward
//!   butterfly run on the buffers with real and imaginary parts swapped.
//! * **Twiddle table.** Butterflies read their twiddles from a table, one
//!   contiguous run per stage (`w_{2h}^j`, `j < h`, for the stage of
//!   half-size `h`, at offset `h − 1`), so a stage's inner loop is a plain
//!   zip the compiler vectorises. Stages are appended as the first transform
//!   of a new length asks for them, and the table for `N` is a prefix of the
//!   one for `2N`: [`Spectral`] keeps the table for the longest transform it
//!   ran and serves every shorter one from it. A stage is built in `O(h)` with
//!   about `2·√h` trigonometric calls (each entry one correctly rounded
//!   `sin_cos` times another, then a quarter-turn rotation), so no twiddle
//!   carries the drift of a recurrence.
//!
//! [`Spectral`] owns the two transform buffers and the table. A caller that
//! convolves repeatedly (an [`AdditiveFold`](crate::AdditiveFold)) keeps one,
//! so a transform allocates nothing once they have grown to its length.
//!
//! The result carries the usual floating-point error of a spectral
//! convolution (roughly `‖a‖·‖b‖·ε·log N` per cell), which is why
//! [`repr`](crate::repr) wraps it in an explicit accuracy policy
//! (mass-conservation check, clamping, renormalisation, exact fallback)
//! instead of trusting it blindly.

use std::f64::consts::PI;

/// Refuse transforms beyond this length: supports that large indicate a
/// runaway query, and the direct kernel's own memory would explode long
/// before this. At the cap a [`Spectral`] holds 128 MiB: two 32 MiB transform
/// buffers and a 64 MiB twiddle table (`N − 1` complex entries).
const MAX_FFT_LEN: usize = 1 << 22;

/// The transform buffers and the twiddle table of the spectral kernel. Each
/// grows to the longest transform run through it and is reused for every
/// later one; nothing is shrunk, so the memory held is bounded by that
/// longest transform (at most [`MAX_FFT_LEN`]).
#[derive(Debug, Default)]
pub(crate) struct Spectral {
    re: Vec<f64>,
    im: Vec<f64>,
    twiddles: Twiddles,
}

impl Spectral {
    /// Linear convolution of two non-empty real sequences, written into
    /// `out` (cleared first), which ends with `a.len() + b.len() − 1` cells.
    /// Returns `false`, with `out` untouched, when the padded transform
    /// length would exceed [`MAX_FFT_LEN`] (callers fall back to the exact
    /// kernel).
    pub(crate) fn convolve(&mut self, a: &[f64], b: &[f64], out: &mut Vec<f64>) -> bool {
        debug_assert!(!a.is_empty() && !b.is_empty());
        let out_len = a.len() + b.len() - 1;
        // Four points at least, so that the half-length inverse has a
        // quarter-length midpoint to pair around.
        let n = out_len.next_power_of_two().max(4);
        if n > MAX_FFT_LEN {
            return false;
        }
        self.twiddles.cover(n);
        let (re, im) = (&mut self.re, &mut self.im);
        // Pack z = a + i·b, zero-padded to n, straight into bit-reversed
        // order: the forward transform's permutation costs one write per
        // input cell.
        let bits = n.trailing_zeros();
        for (buffer, cells) in [(&mut *re, a), (&mut *im, b)] {
            buffer.clear();
            buffer.resize(n, 0.0);
            for (i, &x) in cells.iter().enumerate() {
                buffer[reversed(i, bits)] = x;
            }
        }
        butterflies(re, im, &self.twiddles);
        // Y (scaled by 8, see below) over the first half, then its inverse.
        let half = n / 2;
        let tw = self.twiddles.stage(half);
        for k in 0..=n / 4 {
            let mirror = half - k;
            let c = product_spectrum(re, im, k);
            let d = product_spectrum(re, im, mirror);
            (re[k], im[k]) = half_spectrum(c, d, (tw.0[k], tw.1[k]));
            if k != 0 && mirror != k {
                (re[mirror], im[mirror]) = half_spectrum(d, c, (tw.0[mirror], tw.1[mirror]));
            }
        }
        // The inverse is the forward transform with real and imaginary parts
        // swapped: swap(FFT(swap(x))) = conj(FFT(conj(x))), unscaled.
        permute(&mut re[..half], &mut im[..half]);
        butterflies(&mut im[..half], &mut re[..half], &self.twiddles);
        // Y carries 8·Y (a factor 2 from each of A, B and the even / odd
        // split), and the inverse of length n/2 owes 2/n: 1/(4n) in all, a
        // power of two, so where it is applied moves no bit.
        let scale = 0.25 / n as f64;
        out.clear();
        out.extend(
            re[..half]
                .iter()
                .zip(&im[..half])
                .take(out_len.div_ceil(2))
                .flat_map(|(&even, &odd)| [even * scale, odd * scale]),
        );
        out.truncate(out_len);
        true
    }
}

/// `4·C[k]`, four times the product spectrum at `k`, from the packed forward
/// transform `Z` of `a + i·b` (length `re.len()`): `(Z[k] + w)·(Z[k] − w)/i`
/// with `w = conj Z[N−k]`, that is `2A[k] · 2B[k]`.
fn product_spectrum(re: &[f64], im: &[f64], k: usize) -> (f64, f64) {
    let j = (re.len() - k) & (re.len() - 1);
    let (zr, zi) = (re[k], im[k]);
    let (wr, wi) = (re[j], -im[j]);
    let (ar, ai) = (zr + wr, zi + wi);
    // (z − w) / i = −i·(z − w) = (im(z − w), −re(z − w))
    let (br, bi) = (zi - wi, wr - zr);
    (ar * br - ai * bi, ar * bi + ai * br)
}

/// One cell of the half-length inverse's input, `E + i·O` scaled like its
/// operands: `c` and `d` are the product spectrum at `k` and at `N/2 − k`,
/// `w = w_N^k` the twiddle. `E = c + conj d`, `O = (c − conj d)·conj w`.
fn half_spectrum(c: (f64, f64), d: (f64, f64), w: (f64, f64)) -> (f64, f64) {
    let (er, ei) = (c.0 + d.0, c.1 - d.1);
    let (dr, di) = (c.0 - d.0, c.1 + d.1);
    let (or, oi) = (dr * w.0 + di * w.1, di * w.0 - dr * w.1);
    (er - oi, ei + or)
}

/// The butterflies' twiddles, one contiguous run per stage: the stage of
/// half-size `h` (combining blocks of `h` into blocks of `2h`) reads
/// `w_{2h}^j = e^{−πij/h}` for `j < h` at `[h − 1, 2h − 1)`. A table with
/// `N − 1` entries serves every transform of length up to `N`.
#[derive(Debug, Default)]
struct Twiddles {
    re: Vec<f64>,
    im: Vec<f64>,
}

impl Twiddles {
    /// Append stages until transforms of length `n` are covered, in one
    /// allocation of exactly the `n − 1` entries rather than one per doubling
    /// of the entry count.
    fn cover(&mut self, n: usize) {
        let missing = (n - 1).saturating_sub(self.re.len());
        self.re.reserve_exact(missing);
        self.im.reserve_exact(missing);
        while self.re.len() < n - 1 {
            // The stages so far fill `h − 1` entries: the next one has size `h`.
            self.push_stage(self.re.len() + 1);
        }
    }

    /// Append the stage of half-size `h`: its first quarter turn computed,
    /// the second quarter rotated from the first (`w^{j + h/2} = −i·w^j`,
    /// exact). Within the quarter, an entry `j = k·step + r` is the product
    /// of `w^{k·step}` and `w^r`, each one `sin_cos`, so each entry is within
    /// a few ulps of the true root and no error is carried from one to the
    /// next.
    fn push_stage(&mut self, h: usize) {
        let start = self.re.len();
        if h == 1 {
            self.re.push(1.0);
            self.im.push(0.0);
            return;
        }
        let quarter = h / 2;
        let root = |j: usize| {
            let (sin, cos) = (-PI * (j as f64 / h as f64)).sin_cos();
            (cos, sin)
        };
        // √quarter, rounded up to a power of two.
        let step = 1usize << (quarter.trailing_zeros() as usize).div_ceil(2);
        for r in 0..step.min(quarter) {
            let (c, s) = root(r);
            self.re.push(c);
            self.im.push(s);
        }
        for k in 1..quarter / step {
            let (c, s) = root(k * step);
            for r in 0..step {
                let (fr, fi) = (self.re[start + r], self.im[start + r]);
                self.re.push(c * fr - s * fi);
                self.im.push(c * fi + s * fr);
            }
        }
        for j in 0..quarter {
            let (c, s) = (self.re[start + j], self.im[start + j]);
            self.re.push(s);
            self.im.push(-c);
        }
    }

    /// The stage of half-size `h`, as `(re, im)` runs of length `h`.
    fn stage(&self, h: usize) -> (&[f64], &[f64]) {
        (&self.re[h - 1..2 * h - 1], &self.im[h - 1..2 * h - 1])
    }
}

/// `i` with its low `bits` bits reversed (`1 ≤ bits`): where a cell of a
/// transform of length `2^bits` goes in the butterflies' input order.
fn reversed(i: usize, bits: u32) -> usize {
    i.reverse_bits() >> (usize::BITS - bits)
}

/// Reorder `(re, im)` into bit-reversed order, in place.
fn permute(re: &mut [f64], im: &mut [f64]) {
    let bits = re.len().trailing_zeros();
    for i in 0..re.len() {
        let j = reversed(i, bits);
        if i < j {
            re.swap(i, j);
            im.swap(i, j);
        }
    }
}

/// The butterflies of an in-place iterative radix-2 Cooley–Tukey forward
/// transform, unscaled, on `(re, im)` already in bit-reversed order
/// ([`permute`]); lengths must be equal powers of two, at least 2, that
/// `twiddles` covers. The output is in natural order. Swapping the two
/// arguments runs the unscaled inverse.
fn butterflies(re: &mut [f64], im: &mut [f64], twiddles: &Twiddles) {
    let n = re.len();
    debug_assert!(n.is_power_of_two() && n >= 2 && im.len() == n);
    // The first two stages (twiddles 1 and −i) fused over blocks of four,
    // then the rest two at a time, a last single stage for an odd count.
    let mut h = 1;
    if n >= 4 {
        for (re, im) in re.chunks_exact_mut(4).zip(im.chunks_exact_mut(4)) {
            let (r0, r1) = (re[0] + re[1], re[0] - re[1]);
            let (r2, r3) = (re[2] + re[3], re[2] - re[3]);
            let (i0, i1) = (im[0] + im[1], im[0] - im[1]);
            let (i2, i3) = (im[2] + im[3], im[2] - im[3]);
            // (r3, i3)·(−i) = (i3, −r3)
            (re[0], re[2]) = (r0 + r2, r0 - r2);
            (im[0], im[2]) = (i0 + i2, i0 - i2);
            (re[1], re[3]) = (r1 + i3, r1 - i3);
            (im[1], im[3]) = (i1 - r3, i1 + r3);
        }
        h = 4;
    }
    while 4 * h <= n {
        two_stages(re, im, h, twiddles);
        h *= 4;
    }
    if h < n {
        one_stage(re, im, h, twiddles);
    }
}

/// The radix-2 stage of half-size `h`: blocks of `h` combined into blocks of
/// `2h`, the upper half of each times `w_{2h}^j`.
fn one_stage(re: &mut [f64], im: &mut [f64], h: usize, twiddles: &Twiddles) {
    let (wr, wi) = twiddles.stage(h);
    for (re, im) in re.chunks_exact_mut(2 * h).zip(im.chunks_exact_mut(2 * h)) {
        let (lo_re, hi_re) = re.split_at_mut(h);
        let (lo_im, hi_im) = im.split_at_mut(h);
        for (((lr, li), (hr, hi)), (&w_r, &w_i)) in lo_re
            .iter_mut()
            .zip(lo_im.iter_mut())
            .zip(hi_re.iter_mut().zip(hi_im.iter_mut()))
            .zip(wr.iter().zip(wi))
        {
            let (vr, vi) = (*hr * w_r - *hi * w_i, *hr * w_i + *hi * w_r);
            (*hr, *hi) = (*lr - vr, *li - vi);
            (*lr, *li) = (*lr + vr, *li + vi);
        }
    }
}

/// The stages of half-size `h` and `2h` in one pass over blocks of `4h`, so
/// the data is read and written once for both: the arithmetic of
/// [`one_stage`] twice, where the second stage's twiddle for the upper
/// quarter, `w_{4h}^{j+h} = −i·w_{4h}^j`, is applied as a rotation.
fn two_stages(re: &mut [f64], im: &mut [f64], h: usize, twiddles: &Twiddles) {
    let (w1r, w1i) = twiddles.stage(h);
    let (w2r, w2i) = twiddles.stage(2 * h);
    let (w2r, w2i) = (&w2r[..h], &w2i[..h]);
    for (re, im) in re.chunks_exact_mut(4 * h).zip(im.chunks_exact_mut(4 * h)) {
        let (r01, r23) = re.split_at_mut(2 * h);
        let ((r0, r1), (r2, r3)) = (r01.split_at_mut(h), r23.split_at_mut(h));
        let (i01, i23) = im.split_at_mut(2 * h);
        let ((i0, i1), (i2, i3)) = (i01.split_at_mut(h), i23.split_at_mut(h));
        for j in 0..h {
            // Stage h: quarters (0, 1) and (2, 3), the odd ones times w_{2h}^j.
            let (cr, ci) = (w1r[j], w1i[j]);
            let (x1r, x1i) = (r1[j] * cr - i1[j] * ci, r1[j] * ci + i1[j] * cr);
            let (x3r, x3i) = (r3[j] * cr - i3[j] * ci, r3[j] * ci + i3[j] * cr);
            let (b0r, b0i) = (r0[j] + x1r, i0[j] + x1i);
            let (b1r, b1i) = (r0[j] - x1r, i0[j] - x1i);
            let (b2r, b2i) = (r2[j] + x3r, i2[j] + x3i);
            let (b3r, b3i) = (r2[j] - x3r, i2[j] - x3i);
            // Stage 2h: quarters (0, 2) times t = w_{4h}^j, (1, 3) times −i·t.
            let (tr, ti) = (w2r[j], w2i[j]);
            let (y2r, y2i) = (b2r * tr - b2i * ti, b2r * ti + b2i * tr);
            let (y3r, y3i) = (b3r * tr - b3i * ti, b3r * ti + b3i * tr);
            (r0[j], i0[j]) = (b0r + y2r, b0i + y2i);
            (r2[j], i2[j]) = (b0r - y2r, b0i - y2i);
            // −i·y3 = (y3i, −y3r)
            (r1[j], i1[j]) = (b1r + y3i, b1i - y3r);
            (r3[j], i3[j]) = (b1r - y3i, b1i + y3r);
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    fn direct(a: &[f64], b: &[f64]) -> Vec<f64> {
        let mut out = vec![0.0; a.len() + b.len() - 1];
        for (i, &x) in a.iter().enumerate() {
            for (j, &y) in b.iter().enumerate() {
                out[i + j] += x * y;
            }
        }
        out
    }

    fn convolve(a: &[f64], b: &[f64]) -> Option<Vec<f64>> {
        let mut out = Vec::new();
        Spectral::default().convolve(a, b, &mut out).then_some(out)
    }

    #[test]
    fn matches_direct_convolution() {
        let a: Vec<f64> = (0..37).map(|i| 1.0 / (1.0 + i as f64)).collect();
        let b: Vec<f64> = (0..53).map(|i| ((i * 7) % 11) as f64 / 11.0).collect();
        let fft = convolve(&a, &b).unwrap();
        let exact = direct(&a, &b);
        assert_eq!(fft.len(), exact.len());
        for (f, e) in fft.iter().zip(&exact) {
            assert!((f - e).abs() < 1e-10, "{f} vs {e}");
        }
    }

    #[test]
    fn single_cell_inputs() {
        let out = convolve(&[0.25], &[0.5]).unwrap();
        assert_eq!(out.len(), 1);
        assert!((out[0] - 0.125).abs() < 1e-12);
    }

    #[test]
    fn asymmetric_lengths() {
        let a = vec![0.5, 0.5];
        let b: Vec<f64> = (0..100).map(|_| 0.01).collect();
        let fft = convolve(&a, &b).unwrap();
        let exact = direct(&a, &b);
        for (f, e) in fft.iter().zip(&exact) {
            assert!((f - e).abs() < 1e-12);
        }
    }

    #[test]
    fn every_short_length_and_a_reused_kernel_match_direct() {
        // Lengths 1 + 1 up to 40 + 40 (transforms of 4 … 128 points) through
        // one kernel, so a table grown for a long transform serves the
        // shorter ones after it.
        let mut spectral = Spectral::default();
        let mut out = Vec::new();
        for (la, lb) in (1..=40).flat_map(|la| [(la, 1), (la, la), (1, la), (la, 41 - la)]) {
            let a: Vec<f64> = (0..la).map(|i| ((i * 5 + 3) % 7) as f64 / 7.0).collect();
            let b: Vec<f64> = (0..lb).map(|i| ((i * 3 + 1) % 5) as f64 / 5.0).collect();
            assert!(spectral.convolve(&a, &b, &mut out));
            let exact = direct(&a, &b);
            assert_eq!(out.len(), exact.len(), "{la} × {lb}");
            for (f, e) in out.iter().zip(&exact) {
                assert!((f - e).abs() < 1e-13, "{la} × {lb}: {f} vs {e}");
            }
        }
    }

    #[test]
    fn twiddles_are_the_roots_of_unity() {
        let mut twiddles = Twiddles::default();
        twiddles.cover(1 << 12);
        assert_eq!(twiddles.re.len(), (1 << 12) - 1);
        let mut h = 1;
        while h < 1 << 12 {
            let (re, im) = twiddles.stage(h);
            for j in 0..h {
                let (sin, cos) = (-PI * j as f64 / h as f64).sin_cos();
                assert!((re[j] - cos).abs() <= 4.0 * f64::EPSILON, "h {h}, j {j}");
                assert!((im[j] - sin).abs() <= 4.0 * f64::EPSILON, "h {h}, j {j}");
            }
            h *= 2;
        }
        // The quarter turn is exact.
        assert_eq!(twiddles.stage(2), (&[1.0, 0.0][..], &[0.0, -1.0][..]));
    }

    #[test]
    fn refuses_oversized_transforms() {
        // Fabricate lengths whose padded size exceeds the cap without
        // allocating: `convolve` checks before it allocates.
        let a = vec![0.0; 2];
        let b = vec![0.0; MAX_FFT_LEN];
        let mut out = vec![1.0];
        assert!(!Spectral::default().convolve(&a, &b, &mut out));
        assert_eq!(out, [1.0]);
    }
}
