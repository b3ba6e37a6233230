//! Property-based tests for distributions and convolution, run over a deterministic,
//! seeded stream of random cases (no external property-testing framework).
//!
//! The second half drives random operation chains through both the flat
//! sorted-vector kernel and the retained `BTreeMap` reference implementation
//! ([`pvc_prob::dist::reference`]) and requires **exact** (bitwise) agreement.

use pvc_algebra::{CmpOp, MonoidValue, SemiringValue};
use pvc_prob::dist::reference::RefDist;
use pvc_prob::{convolve_additive_chained, ChainVal, Dist, SeededRng};

const CASES: u64 = 128;

/// A random normalized distribution over up to 4 integer values in [-5, 5).
fn small_dist(rng: &mut SeededRng) -> Dist<i64> {
    let n = rng.gen_range(1usize..5);
    let pairs: Vec<(i64, f64)> = (0..n)
        .map(|_| (rng.gen_range(-5i64..5), 0.05 + 0.95 * rng.next_f64()))
        .collect();
    let total: f64 = pairs.iter().map(|(_, p)| p).sum();
    Dist::from_pairs(pairs.into_iter().map(|(v, p)| (v, p / total)))
}

#[test]
fn convolution_preserves_mass() {
    let mut rng = SeededRng::seed_from_u64(0xB1);
    for _ in 0..CASES {
        let a = small_dist(&mut rng);
        let b = small_dist(&mut rng);
        let c = a.convolve(&b, |x, y| x + y);
        assert!((c.total_mass() - a.total_mass() * b.total_mass()).abs() < 1e-9);
    }
}

#[test]
fn convolution_is_commutative_for_commutative_ops() {
    let mut rng = SeededRng::seed_from_u64(0xB2);
    for _ in 0..CASES {
        let a = small_dist(&mut rng);
        let b = small_dist(&mut rng);
        let ab = a.convolve(&b, |x, y| x + y);
        let ba = b.convolve(&a, |x, y| x + y);
        assert!(ab.approx_eq(&ba, 1e-9));
        let ab = a.convolve(&b, |x, y| (*x).max(*y));
        let ba = b.convolve(&a, |x, y| (*x).max(*y));
        assert!(ab.approx_eq(&ba, 1e-9));
    }
}

#[test]
fn convolution_is_associative() {
    let mut rng = SeededRng::seed_from_u64(0xB3);
    for _ in 0..CASES {
        let a = small_dist(&mut rng);
        let b = small_dist(&mut rng);
        let c = small_dist(&mut rng);
        let left = a.convolve(&b, |x, y| x + y).convolve(&c, |x, y| x + y);
        let right = a.convolve(&b.convolve(&c, |x, y| x + y), |x, y| x + y);
        assert!(left.approx_eq(&right, 1e-9));
    }
}

#[test]
fn point_distribution_is_neutral_for_sum() {
    let mut rng = SeededRng::seed_from_u64(0xB4);
    for _ in 0..CASES {
        let a = small_dist(&mut rng);
        let zero = Dist::point(0i64);
        let conv = a.convolve(&zero, |x, y| x + y);
        assert!(conv.approx_eq(&a, 1e-9));
    }
}

#[test]
fn scale_mix_partition_reconstructs() {
    // Partitioning a distribution into an event and its complement and mixing the
    // scaled parts back yields the original distribution.
    let mut rng = SeededRng::seed_from_u64(0xB5);
    for _ in 0..CASES {
        let a = small_dist(&mut rng);
        let p = rng.next_f64();
        let branch1 = a.clone();
        let branch2 = a.clone();
        let mixed = branch1.scale(p).mix(&branch2.scale(1.0 - p));
        assert!(mixed.approx_eq(&a, 1e-9));
    }
}

#[test]
fn map_preserves_mass() {
    let mut rng = SeededRng::seed_from_u64(0xB7);
    for _ in 0..CASES {
        let a = small_dist(&mut rng);
        let m = a.map(|v| v.rem_euclid(3));
        assert!((m.total_mass() - a.total_mass()).abs() < 1e-9);
    }
}

#[test]
fn filter_plus_complement_preserves_mass() {
    let mut rng = SeededRng::seed_from_u64(0xB8);
    for _ in 0..CASES {
        let a = small_dist(&mut rng);
        let even = a.filter(|v| v % 2 == 0);
        let odd = a.filter(|v| v % 2 != 0);
        assert!((even.total_mass() + odd.total_mass() - a.total_mass()).abs() < 1e-9);
    }
}

// ---------------------------------------------------------------------------
// Flat kernel vs. BTreeMap reference: exact agreement on random op chains.
// ---------------------------------------------------------------------------

/// Structural + numeric invariants of the flat representation: ascending unique
/// values, strictly positive finite (NaN-free) weights.
fn assert_invariants(d: &Dist<i64>) {
    let support: Vec<i64> = d.support().copied().collect();
    assert!(support.windows(2).all(|w| w[0] < w[1]), "unsorted support");
    for (_, p) in d.iter() {
        assert!(p.is_finite() && !p.is_nan(), "non-finite weight {p}");
        assert!(p > 0.0, "non-positive weight {p}");
    }
}

fn assert_bit_equal(reference: &RefDist<i64>, flat: &Dist<i64>) {
    assert!(
        reference.bit_equal(flat),
        "flat kernel diverged from the BTreeMap reference:\n flat: {:?}\n ref:  {:?}",
        flat.iter().collect::<Vec<_>>(),
        reference.to_flat().iter().collect::<Vec<_>>()
    );
}

/// Random raw pairs, including duplicates and sub-threshold weights, so the merge
/// and drop rules are exercised.
fn raw_pairs(rng: &mut SeededRng) -> Vec<(i64, f64)> {
    let n = rng.gen_range(0usize..6);
    (0..n)
        .map(|_| {
            let v = rng.gen_range(-4i64..5);
            let p = match rng.gen_range(0u32..8) {
                0 => 0.0,   // dropped before accumulation
                1 => 5e-10, // below PROB_EPS
                _ => 0.05 + rng.next_f64(),
            };
            (v, p)
        })
        .collect()
}

#[test]
fn flat_matches_reference_on_random_op_chains() {
    let mut rng = SeededRng::seed_from_u64(0xC1);
    for _ in 0..CASES {
        let pairs = raw_pairs(&mut rng);
        let mut flat = Dist::from_pairs(pairs.clone());
        let mut reference = RefDist::from_pairs(pairs);
        assert_bit_equal(&reference, &flat);
        assert_invariants(&flat);
        // A chain of 4 random operations, applied to both implementations.
        for _ in 0..4 {
            match rng.gen_range(0u32..4) {
                0 => {
                    let other_pairs = raw_pairs(&mut rng);
                    let other_flat = Dist::from_pairs(other_pairs.clone());
                    let other_ref = RefDist::from_pairs(other_pairs);
                    let op = rng.gen_range(0u32..3);
                    let f = move |x: &i64, y: &i64| match op {
                        0 => x + y,
                        1 => (*x).min(*y),
                        _ => x * y,
                    };
                    flat = flat.convolve(&other_flat, f);
                    reference = reference.convolve(&other_ref, f);
                }
                1 => {
                    let other_pairs = raw_pairs(&mut rng);
                    flat = flat.mix(&Dist::from_pairs(other_pairs.clone()));
                    reference = reference.mix(&RefDist::from_pairs(other_pairs));
                }
                2 => {
                    let factor = rng.next_f64() * 1.5;
                    flat = flat.scale(factor);
                    reference = reference.scale(factor);
                }
                _ => {
                    let modulus = rng.gen_range(2i64..5);
                    flat = flat.map(|v| v.rem_euclid(modulus));
                    reference = reference.map(|v| v.rem_euclid(modulus));
                }
            }
            assert_bit_equal(&reference, &flat);
            assert_invariants(&flat);
        }
    }
}

/// A random monoid-value distribution; contiguous supports trigger the dense path.
fn monoid_dist(rng: &mut SeededRng, contiguous: bool) -> Dist<MonoidValue> {
    let n = rng.gen_range(1usize..6);
    let stride = if contiguous { 1 } else { 997 };
    let base = rng.gen_range(-3i64..4);
    let pairs: Vec<(MonoidValue, f64)> = (0..n as i64)
        .map(|i| (MonoidValue::Fin(base + i * stride), 0.05 + rng.next_f64()))
        .collect();
    let total: f64 = pairs.iter().map(|(_, p)| p).sum();
    Dist::from_pairs(pairs.into_iter().map(|(v, p)| (v, p / total)))
}

#[test]
fn dense_and_sparse_additive_convolutions_agree_bitwise() {
    let mut rng = SeededRng::seed_from_u64(0xC2);
    for case in 0..CASES {
        let contiguous = case % 2 == 0;
        let a = monoid_dist(&mut rng, contiguous);
        let b = monoid_dist(&mut rng, contiguous);
        let adaptive = convolve_additive_chained(
            ChainVal::Sparse(a.clone()),
            ChainVal::Sparse(b.clone()),
            &mut Vec::new(),
        );
        if contiguous {
            assert!(
                matches!(adaptive, ChainVal::Dense(_)),
                "contiguous supports should take the dense path"
            );
        }
        let adaptive = adaptive.into_dist();
        let sparse = a.convolve(&b, |x, y| x.saturating_add(y));
        assert_eq!(adaptive.support_size(), sparse.support_size());
        for ((av, ap), (sv, sp)) in adaptive.iter().zip(sparse.iter()) {
            assert_eq!(av, sv);
            assert_eq!(ap.to_bits(), sp.to_bits(), "value {av:?}");
        }
        // Total-mass preservation (both operands are normalized).
        assert!((adaptive.total_mass() - 1.0).abs() < 1e-9);
        for (_, p) in adaptive.iter() {
            assert!(p.is_finite() && p > 0.0);
        }
    }
}

#[test]
fn mass_is_preserved_through_mix_scale_chains() {
    let mut rng = SeededRng::seed_from_u64(0xC3);
    for _ in 0..CASES {
        let a = small_dist(&mut rng);
        let b = small_dist(&mut rng);
        // Mixing with weights p and 1-p preserves total (unit) mass; the flat and
        // reference kernels agree bit-for-bit along the way.
        let p = 0.05 + 0.9 * rng.next_f64();
        let flat = a.scale(p).mix(&b.scale(1.0 - p));
        let reference = RefDist::from(&a)
            .scale(p)
            .mix(&RefDist::from(&b).scale(1.0 - p));
        assert_bit_equal(&reference, &flat);
        assert!((flat.total_mass() - 1.0).abs() < 1e-6);
    }
}

// ---------------------------------------------------------------------------
// The adaptive FFT kernel vs. the exact chunked kernel, across the crossover.
// ---------------------------------------------------------------------------

use pvc_prob::{fft_would_run, DenseDist, FFT_MIN_LEN, FFT_RELATIVE_EPS};

/// A normalized dense distribution spanning exactly `len` contiguous cells,
/// with a random sprinkling of interior gaps (endpoints always occupied, so the
/// operand length — and with it the FFT crossover — is under the test's
/// control, and the chunked kernel's zero-cell skip gets exercised).
fn dense_span(rng: &mut SeededRng, len: usize) -> DenseDist {
    let base = rng.gen_range(-20i64..20);
    let mut pairs: Vec<(MonoidValue, f64)> = Vec::with_capacity(len);
    for i in 0..len as i64 {
        if i != 0 && i != len as i64 - 1 && rng.gen_range(0u32..5) == 0 {
            continue;
        }
        pairs.push((MonoidValue::Fin(base + i), 0.05 + rng.next_f64()));
    }
    let total: f64 = pairs.iter().map(|(_, p)| p).sum();
    let d = Dist::from_pairs(pairs.into_iter().map(|(v, p)| (v, p / total)));
    DenseDist::from_dist(&d).expect("finite non-empty support")
}

/// Trim invariant: the bounds reported by `offset`/`len` are *true* support
/// bounds — the first and last cells hold mass.
fn assert_trimmed(d: &DenseDist) {
    if d.is_empty() {
        return;
    }
    let cells: Vec<(i64, f64)> = d.iter().collect();
    assert_eq!(
        cells.first().map(|c| c.0),
        Some(d.offset()),
        "leading zeros"
    );
    assert_eq!(
        cells.last().map(|c| c.0),
        Some(d.offset() + d.len() as i64 - 1),
        "trailing zeros"
    );
}

#[test]
fn adaptive_convolution_agrees_with_exact_across_the_fft_cutoff() {
    let mut rng = SeededRng::seed_from_u64(0xD1);
    // Operand lengths straddling the crossover: below FFT_MIN_LEN, at it but
    // with the cost model refusing, and comfortably past it.
    let shapes = [
        (8, 8),
        (FFT_MIN_LEN - 1, 512),
        (FFT_MIN_LEN, FFT_MIN_LEN),
        (100, 100),
        (256, 256),
        (320, 190),
    ];
    let mut took_fft = false;
    for _ in 0..8 {
        for &(la, lb) in &shapes {
            let a = dense_span(&mut rng, la);
            let b = dense_span(&mut rng, lb);
            let adaptive = a.convolve_add(&b);
            let exact = a.convolve_add_exact(&b);
            assert_trimmed(&adaptive);
            assert_trimmed(&exact);
            for (_, p) in adaptive.iter() {
                assert!(p.is_finite() && p > 0.0, "non-finite or negative cell {p}");
            }
            assert!(
                (adaptive.total_mass() - exact.total_mass()).abs() < 1e-6,
                "mass drifted: fft={} exact={} ({la}×{lb})",
                adaptive.total_mass(),
                exact.total_mass()
            );
            if fft_would_run(a.len(), b.len()) {
                took_fft = true;
                // ε-close per cell under the documented accuracy policy.
                assert_eq!(adaptive.offset(), exact.offset(), "{la}×{lb}");
                assert_eq!(adaptive.len(), exact.len(), "{la}×{lb}");
                let tol = FFT_RELATIVE_EPS.max(1e-12);
                for ((va, pa), (ve, pe)) in adaptive.iter().zip(exact.iter()) {
                    assert_eq!(va, ve);
                    assert!(
                        (pa - pe).abs() <= tol,
                        "cell {va}: fft={pa} exact={pe} ({la}×{lb})"
                    );
                }
            } else {
                // Below the crossover the adaptive kernel *is* the exact one.
                assert_eq!(adaptive, exact, "{la}×{lb}");
            }
        }
    }
    assert!(took_fft, "no shape reached the FFT path — cutoff drifted?");
}

/// `{0: 1 − p, v: p}` in dense form: one row of a group SUM.
fn two_point_dense(v: i64, p: f64) -> DenseDist {
    let d = Dist::from_pairs([(MonoidValue::Fin(0), 1.0 - p), (MonoidValue::Fin(v), p)]);
    DenseDist::from_dist(&d).expect("finite non-empty support")
}

/// The largest per-cell `|spectral − exact|` of `a ∗ b`, where the
/// dispatcher must choose the spectral kernel and the accuracy policy must
/// accept its result (a fallback would give the exact bits: error 0).
fn spectral_error(a: &DenseDist, b: &DenseDist) -> f64 {
    assert!(fft_would_run(a.len(), b.len()), "{} × {}", a.len(), b.len());
    let spectral = a.convolve_add(b);
    let exact = a.convolve_add_exact(b);
    let cells = |d: &DenseDist| {
        let mut cells = vec![0.0; exact.len()];
        for (v, p) in d.iter() {
            cells[(v - exact.offset()) as usize] = p;
        }
        cells
    };
    let error = cells(&spectral)
        .iter()
        .zip(cells(&exact))
        .map(|(s, e)| (s - e).abs())
        .fold(0.0, f64::max);
    assert!(error > 0.0, "the spectral kernel did not run");
    error
}

/// The spectral kernel at the transform lengths `sum_kernel` runs (N = 4 096
/// … 16 384: accumulators of 2 000 – 10 000 cells against `{0, v}` rows) and
/// one wide × wide pair at N = 32 768, held per shape to the per-cell error
/// the previous kernel reached on it (a recurrence for the twiddles and a
/// full-length inverse), which it may not exceed.
#[test]
fn spectral_error_at_the_lengths_that_run_is_no_worse_than_before() {
    // (accumulator cells, the other operand: `{0, v}` or `dense_span` cells,
    // the previous kernel's largest per-cell error)
    const SHAPES: [(usize, Operand, f64); 6] = [
        (2_000, Operand::TwoPoint(200), 1.02e-15),
        (3_800, Operand::TwoPoint(120), 1.18e-16),
        (6_000, Operand::TwoPoint(150), 2.51e-15),
        (7_900, Operand::TwoPoint(110), 2.26e-15),
        (10_000, Operand::TwoPoint(200), 6.94e-16),
        (9_000, Operand::Wide(8_000), 2.94e-17),
    ];
    #[derive(Clone, Copy)]
    enum Operand {
        TwoPoint(i64),
        Wide(usize),
    }
    let mut rng = SeededRng::seed_from_u64(0xD3);
    for (cells, operand, before) in SHAPES {
        let acc = dense_span(&mut rng, cells);
        let other = match operand {
            Operand::TwoPoint(v) => two_point_dense(v, 0.1 + 0.8 * rng.next_f64()),
            Operand::Wide(len) => dense_span(&mut rng, len),
        };
        let error = spectral_error(&acc, &other);
        assert!(
            error <= before,
            "{cells} × {} cells: per-cell error {error:e}, previously {before:e}",
            other.len()
        );
    }
}

#[test]
fn chunked_kernel_conserves_mass_and_stays_finite() {
    let mut rng = SeededRng::seed_from_u64(0xD2);
    for _ in 0..CASES {
        // Lengths below, at, and above the 4-lane width, so both the packed
        // loop and the scalar remainder run.
        let la = rng.gen_range(1usize..40);
        let lb = rng.gen_range(1usize..40);
        let a = dense_span(&mut rng, la);
        let b = dense_span(&mut rng, lb);
        let out = a.convolve_add_exact(&b);
        assert_trimmed(&out);
        // Mass is the product of the operand masses, up to the drop rule
        // zeroing cells at or below PROB_EPS.
        let expected = a.total_mass() * b.total_mass();
        let slack = 1e-9 * (out.len() as f64 + 1.0) + 1e-12;
        assert!(
            (out.total_mass() - expected).abs() <= slack,
            "mass: got {} want {expected} ({la}×{lb})",
            out.total_mass()
        );
        for (_, p) in out.iter() {
            assert!(p.is_finite() && p > 0.0);
        }
        // Bit-for-bit agreement with the sparse kernel (same accumulation
        // order by construction).
        let sparse = a
            .to_dist()
            .convolve(&b.to_dist(), |x, y| x.saturating_add(y));
        let dense_cells: Vec<(i64, f64)> = out.iter().collect();
        assert_eq!(dense_cells.len(), sparse.support_size());
        for ((dv, dp), (sv, sp)) in dense_cells.iter().zip(sparse.iter()) {
            assert_eq!(MonoidValue::Fin(*dv), *sv);
            assert_eq!(dp.to_bits(), sp.to_bits(), "value {dv}");
        }
    }
}

// ---------------------------------------------------------------------------
// The additive fold accumulator against two references: the one-step
// dispatcher entry, threaded by hand, and the sparse kernel.
// ---------------------------------------------------------------------------

use pvc_prob::{AdditiveFold, BoolCells, MonoidDist, SemiringDist, PROB_EPS};

/// One operand family of the fold sweeps; each aims at one branch of the
/// dispatcher or one orientation of the dense loop.
#[derive(Debug, Clone, Copy, PartialEq)]
enum Family {
    /// COUNT's `{0, 1}`: two cells, the short-operand orientation.
    Count,
    /// SUM's `{0, v}`: `v + 1` cells of which `v − 1` are gaps.
    SumGaps,
    /// SUM's `{0, v}` with `v` in 64..=200: against a long accumulator the
    /// dense loop runs it outermost on its two cells, and past a few thousand
    /// accumulator cells the pair crosses into the spectral kernel.
    WideGaps,
    /// `len` contiguous cells (1–5: either side of the 4-cell chunk).
    Short(usize),
    /// A contiguous operand longer than the accumulator is at that point.
    Longer,
    /// 300 contiguous cells: with an accumulator past a few hundred cells the
    /// pair crosses into the spectral kernel.
    Wide,
    /// No cells: the fold is empty from here on.
    Empty,
    /// `{0, +∞}` with the infinite mass barely above the drop rule: the
    /// accumulator stops being finite and falls back to the sparse kernel.
    Infinite,
    /// The point `{0}` with mass ½: halves every cell, which drops the `+∞`
    /// cell `Infinite` left and lets the next step run dense again.
    Halve,
    /// A point a million below `i64::MAX`: dense cells at a huge offset.
    NearMax,
    /// Two values `2⁶³` apart: the output range overflows `i64`, so the
    /// eligibility arithmetic (`checked_sub`) must answer "sparse".
    HugeSpan,
}

fn contiguous(rng: &mut SeededRng, lo: i64, len: usize) -> MonoidDist {
    let cells: Vec<f64> = (0..len).map(|_| 0.05 + rng.next_f64()).collect();
    let total: f64 = cells.iter().sum();
    Dist::from_pairs(
        cells
            .into_iter()
            .enumerate()
            .map(|(i, p)| (MonoidValue::Fin(lo + i as i64), p / total)),
    )
}

fn operand(rng: &mut SeededRng, family: Family, accumulator_span: usize) -> MonoidDist {
    let fin = MonoidValue::Fin;
    let p = 0.05 + 0.9 * rng.next_f64();
    let near_zero = rng.gen_range(-3i64..4);
    let extra = rng.gen_range(1usize..10);
    match family {
        Family::Count => Dist::two_point(fin(0), 1.0 - p, fin(1), p),
        Family::SumGaps => Dist::two_point(fin(0), 1.0 - p, fin(rng.gen_range(2i64..17)), p),
        Family::WideGaps => Dist::two_point(fin(0), 1.0 - p, fin(rng.gen_range(64i64..201)), p),
        Family::Short(len) => contiguous(rng, near_zero, len),
        Family::Longer => contiguous(rng, 0, accumulator_span + extra),
        Family::Wide => contiguous(rng, near_zero, 300),
        Family::Empty => Dist::empty(),
        Family::Infinite => Dist::two_point(fin(0), 1.0 - 1.5e-9, MonoidValue::PosInf, 1.5e-9),
        Family::Halve => Dist::from_pairs([(fin(0), 0.5)]),
        Family::NearMax => Dist::point(fin(i64::MAX - 1_000_000)),
        Family::HugeSpan => {
            Dist::two_point(fin(i64::MIN / 2 - 10), 1.0 - p, fin(i64::MAX / 2 + 10), p)
        }
    }
}

/// A fold's operand families: mostly the two-point shapes of COUNT and SUM,
/// the short lengths throughout, and the special operands at most once each
/// (two of `NearMax` / `HugeSpan` would overflow `i64` for real).
fn fold_script(rng: &mut SeededRng, len: usize) -> Vec<Family> {
    let mut script: Vec<Family> = (0..len)
        .map(|_| match rng.gen_range(0u32..13) {
            0..=4 => Family::Count,
            5..=7 => Family::SumGaps,
            8..=10 => Family::Short(rng.gen_range(1usize..6)),
            11 => Family::Longer,
            // Every later step pays the sparse reference for the span a wide
            // gap adds: the longest folds keep to the narrow gaps.
            _ if len > 64 => Family::SumGaps,
            _ => Family::WideGaps,
        })
        .collect();
    let mut place = |rng: &mut SeededRng, family: Family| {
        let at = rng.gen_range(0..len);
        script[at] = family;
    };
    if len >= 8 {
        match rng.gen_range(0u32..6) {
            0 => place(rng, Family::NearMax),
            1 => place(rng, Family::HugeSpan),
            2 => {
                // `+∞` mid-chain, the halving a few operands later.
                let at = rng.gen_range(0..len - 4);
                script[at] = Family::Infinite;
                script[at + 3] = Family::Halve;
            }
            // The sparse reference pays |accumulator| × 300 candidate pairs per
            // wide operand: short folds only.
            3 if len <= 64 => {
                for _ in 0..3 {
                    place(rng, Family::Wide);
                }
            }
            4 => script[len - rng.gen_range(1usize..4)] = Family::Empty,
            _ => {}
        }
    }
    script
}

fn dist_bits(d: &MonoidDist) -> Vec<(MonoidValue, u64)> {
    d.iter().map(|(v, p)| (*v, p.to_bits())).collect()
}

/// The cell span of an all-finite distribution (`None` when empty or infinite).
fn finite_span(d: &MonoidDist) -> Option<usize> {
    let (lo, hi) = (d.min_value()?.finite()?, d.max_value()?.finite()?);
    usize::try_from(hi.checked_sub(lo)?).ok()?.checked_add(1)
}

#[derive(Default)]
struct FoldCoverage {
    steps: usize,
    dense_steps: usize,
    sparse_steps: usize,
    spectral_steps: usize,
    dense_after_infinite: usize,
    emptied: usize,
    /// `WideGaps` steps into a dense accumulator, exact and spectral.
    wide_gaps_exact: usize,
    wide_gaps_spectral: usize,
}

/// Fold `script` three ways and compare after every step.
fn check_fold(rng: &mut SeededRng, script: &[Family], coverage: &mut FoldCoverage) {
    let add = |x: &MonoidValue, y: &MonoidValue| x.saturating_add(y);
    let mut fold = AdditiveFold::new();
    let mut stepwise: Option<ChainVal> = None;
    let mut sparse: Option<MonoidDist> = None;
    let mut scratch = Vec::new();
    // Spectral steps so far: each may move a cell by the documented ε, and a
    // cell next to the drop rule may survive on one side only.
    let mut spectral = 0usize;
    let mut seen_infinite = false;
    for (step, &family) in script.iter().enumerate() {
        // `Longer` only outgrows a young accumulator: against thousands of
        // cells the sparse reference would take the test's whole budget.
        let span = sparse.as_ref().and_then(finite_span).unwrap_or(1);
        let family = match family {
            Family::Longer if span > 48 => Family::Count,
            other => other,
        };
        let d = operand(rng, family, span);
        let accumulated = match fold.value() {
            Some(ChainVal::Dense(acc)) => Some(acc.len()),
            Some(ChainVal::Sparse(acc)) => finite_span(acc),
            None => None,
        };
        if let (Some(accumulated), Some(len)) = (accumulated, finite_span(&d)) {
            let fft = fft_would_run(accumulated, len);
            spectral += usize::from(fft);
            if family == Family::WideGaps && matches!(fold.value(), Some(ChainVal::Dense(_))) {
                coverage.wide_gaps_exact += usize::from(!fft);
                coverage.wide_gaps_spectral += usize::from(fft);
            }
        }
        seen_infinite |= family == Family::Infinite;
        // The accumulator takes operands both ways it can be given them.
        if step % 2 == 0 {
            fold.push(ChainVal::Sparse(d.clone()));
        } else {
            fold.push_cells(d.iter().map(|(v, p)| (*v, p)));
        }
        stepwise = Some(match stepwise.take() {
            None => ChainVal::Sparse(d.clone()),
            Some(acc) => convolve_additive_chained(acc, ChainVal::Sparse(d.clone()), &mut scratch),
        });
        sparse = Some(match sparse.take() {
            None => d,
            Some(acc) => acc.convolve(&d, add),
        });
        let context = format!("step {step} of {script:?}");
        let (value, stepwise, sparse) = (
            fold.value().expect("an operand was pushed"),
            stepwise.as_ref().expect("an operand was folded"),
            sparse.as_ref().expect("an operand was folded"),
        );
        // Same dispatcher on both routes: same form, same bits, even past
        // the FFT crossover.
        match (value, stepwise) {
            (ChainVal::Dense(a), ChainVal::Dense(b)) => {
                assert_eq!(a, b, "{context}");
                assert_trimmed(a);
                let recount = a.iter().filter(|(_, p)| *p > PROB_EPS).count();
                assert_eq!(a.support_size(), recount, "{context}");
                coverage.dense_steps += 1;
                coverage.dense_after_infinite += usize::from(seen_infinite);
            }
            (ChainVal::Sparse(a), ChainVal::Sparse(b)) => {
                assert_eq!(dist_bits(a), dist_bits(b), "{context}");
                coverage.sparse_steps += usize::from(step > 0);
            }
            _ => panic!("accumulator and one-step entry disagree on the form: {context}"),
        }
        let folded = value.clone().into_dist();
        if spectral == 0 {
            assert_eq!(dist_bits(&folded), dist_bits(sparse), "{context}");
        } else {
            let tolerance = 2.0 * FFT_RELATIVE_EPS * spectral as f64;
            assert!(folded.approx_eq(sparse, tolerance), "{context}");
        }
        coverage.steps += 1;
    }
    coverage.spectral_steps += spectral;
    coverage.emptied += usize::from(fold.value().is_some_and(ChainVal::is_empty));
}

#[test]
fn accumulator_one_step_entry_and_sparse_kernel_fold_alike() {
    let mut seeds = vec![0xF01D, 0xACC];
    if let Ok(extra) = std::env::var("PVC_ORACLE_SEED") {
        seeds.push(extra.parse().expect("PVC_ORACLE_SEED must be a u64"));
    }
    for seed in seeds {
        let mut rng = SeededRng::seed_from_u64(seed);
        let mut coverage = FoldCoverage::default();
        // Every length 1–12 (the first steps of a chain are where forms
        // change), then a spread up to the 400 of a wide group.
        let lengths = (1..=12usize)
            .chain([16, 25, 40, 64, 100, 150, 250, 400])
            .chain((0..12).map(|_| rng.gen_range(8usize..120)));
        for len in lengths.collect::<Vec<_>>() {
            let script = fold_script(&mut rng, len);
            check_fold(&mut rng, &script, &mut coverage);
        }
        // Every special operand, whatever the seed drew.
        for special in [
            vec![
                Family::Infinite,
                Family::Count,
                Family::Count,
                Family::Halve,
            ],
            vec![Family::NearMax],
            vec![Family::HugeSpan],
            vec![Family::Wide, Family::Wide, Family::Wide],
            // Thousands of cells by the end: the last pairs run spectrally.
            vec![Family::WideGaps; 60],
            vec![Family::Empty],
        ] {
            let mut script = vec![Family::Count; 10];
            script.extend(special);
            script.extend([
                Family::SumGaps,
                Family::Short(5),
                Family::Count,
                Family::Longer,
            ]);
            check_fold(&mut rng, &script, &mut coverage);
        }
        assert!(
            coverage.steps > 1_500,
            "seed {seed}: {} steps",
            coverage.steps
        );
        assert!(coverage.dense_steps > 1_000, "seed {seed}");
        assert!(coverage.sparse_steps > 0, "seed {seed}: no sparse fallback");
        assert!(coverage.spectral_steps > 0, "seed {seed}: FFT never ran");
        assert!(
            coverage.dense_after_infinite > 0,
            "seed {seed}: never dense again after +∞"
        );
        assert!(coverage.emptied > 0, "seed {seed}: no fold went empty");
        assert!(
            coverage.wide_gaps_exact > 0 && coverage.wide_gaps_spectral > 0,
            "seed {seed}: wide {{0, v}} operands met a dense accumulator {} times exactly, {} spectrally",
            coverage.wide_gaps_exact,
            coverage.wide_gaps_spectral
        );
    }
}

// ---------------------------------------------------------------------------
// The two-cell Boolean kernel against `Dist<SemiringValue>`, bit for bit
// ---------------------------------------------------------------------------

fn semiring_bits(d: &SemiringDist) -> Vec<(SemiringValue, u64)> {
    d.iter().map(|(v, p)| (*v, p.to_bits())).collect()
}

/// A two-cell operand: proper Bernoulli distributions, certain outcomes (one
/// cell absent), sub-distributions, cells on either side of `PROB_EPS`, and now
/// and then nothing at all.
fn boolean_operand(rng: &mut SeededRng) -> SemiringDist {
    let cells = |p_false: f64, p_true: f64| {
        Dist::from_pairs([
            (SemiringValue::Bool(false), p_false),
            (SemiringValue::Bool(true), p_true),
        ])
    };
    let p = rng.next_f64();
    match rng.gen_range(0usize..12) {
        0 => cells(1.0, 0.0),
        1 => cells(0.0, 1.0),
        2 => {
            let mass = rng.next_f64();
            cells(mass * (1.0 - p), mass * p)
        }
        3 => {
            // One cell within a factor of two of the drop threshold.
            let near = PROB_EPS * [0.5, 0.999, 1.0, 1.001, 2.0][rng.gen_range(0usize..5)];
            if rng.gen_range(0usize..2) == 0 {
                cells(1.0 - near, near)
            } else {
                cells(near, 1.0 - near)
            }
        }
        4 => cells(p * 1e-5, (1.0 - p) * 1e-5),
        5 if rng.gen_range(0usize..8) == 0 => Dist::empty(),
        _ => cells(1.0 - p, p),
    }
}

#[derive(Default)]
struct CellCoverage {
    steps: usize,
    absent_cells: usize,
    drops: usize,
    emptied: usize,
}

/// One random chain: after every step the cells and the sorted-vector route
/// must hold the same support and the same probability bits.
fn check_cell_chain(rng: &mut SeededRng, len: usize, coverage: &mut CellCoverage) {
    const THETAS: [CmpOp; 6] = [
        CmpOp::Eq,
        CmpOp::Ne,
        CmpOp::Le,
        CmpOp::Lt,
        CmpOp::Ge,
        CmpOp::Gt,
    ];
    let truth = |holds: bool| SemiringValue::Bool(holds);
    let mut scratch = Vec::new();
    let mut dist = boolean_operand(rng);
    let mut cells = BoolCells::from_dist(&dist).expect("Boolean operand");
    for step in 0..len {
        let operand = boolean_operand(rng);
        let operand_cells = BoolCells::from_dist(&operand).expect("Boolean operand");
        let present_before = dist.support_size();
        // The accumulator on the left or on the right: the order of the four
        // products, and so the bits, depend on it.
        let swapped = rng.gen_range(0usize..4) == 0;
        let (left, right) = if swapped {
            (&operand, &dist)
        } else {
            (&dist, &operand)
        };
        let (left_cells, right_cells) = if swapped {
            (operand_cells, cells)
        } else {
            (cells, operand_cells)
        };
        let (next, next_cells) = match rng.gen_range(0usize..8) {
            0..=2 => (
                left.convolve_with_scratch(right, |x, y| x.add(y), &mut scratch),
                left_cells.or(right_cells),
            ),
            3 | 4 => (
                left.convolve_with_scratch(right, |x, y| x.mul(y), &mut scratch),
                left_cells.and(right_cells),
            ),
            5 => {
                let theta = THETAS[rng.gen_range(0usize..THETAS.len())];
                (
                    left.convolve_with_scratch(right, |x, y| truth(theta.eval(x, y)), &mut scratch),
                    left_cells.compare(theta, right_cells),
                )
            }
            6 => {
                let factor = match rng.gen_range(0usize..4) {
                    0 => 1.0,
                    1 => 1e-4 * rng.next_f64(),
                    _ => rng.next_f64(),
                };
                (dist.scale(factor), cells.scale(factor))
            }
            _ => {
                // A two-branch ⊔: weights w and 1 − w.
                let w = rng.next_f64();
                (
                    left.scale(w).mix(&right.scale(1.0 - w)),
                    left_cells.scale(w).mix(right_cells.scale(1.0 - w)),
                )
            }
        };
        assert_eq!(
            semiring_bits(&next_cells.to_dist()),
            semiring_bits(&next),
            "step {step} of {len}"
        );
        assert_eq!(BoolCells::from_dist(&next), Some(next_cells));
        coverage.steps += 1;
        coverage.absent_cells += usize::from(next.support_size() == 1);
        coverage.drops += usize::from(next.support_size() < present_before);
        coverage.emptied += usize::from(next.is_empty());
        (dist, cells) = (next, next_cells);
        // An emptied chain stays empty under everything but a mix: start over.
        if dist.is_empty() && rng.gen_range(0usize..2) == 0 {
            dist = boolean_operand(rng);
            cells = BoolCells::from_dist(&dist).expect("Boolean operand");
        }
    }
}

#[test]
fn boolean_cells_follow_the_sorted_vector_kernel_bit_for_bit() {
    let mut seeds = vec![0xB001, 0xCE11];
    if let Ok(extra) = std::env::var("PVC_ORACLE_SEED") {
        seeds.push(extra.parse().expect("PVC_ORACLE_SEED must be a u64"));
    }
    for seed in seeds {
        let mut rng = SeededRng::seed_from_u64(seed);
        let mut coverage = CellCoverage::default();
        let lengths = (1..=8usize)
            .chain([16, 64, 250, 1_000])
            .chain((0..24).map(|_| rng.gen_range(1usize..1_001)));
        for len in lengths.collect::<Vec<_>>() {
            check_cell_chain(&mut rng, len, &mut coverage);
        }
        assert!(coverage.steps > 5_000, "seed {seed}: {}", coverage.steps);
        assert!(coverage.absent_cells > 100, "seed {seed}: absent cells");
        assert!(coverage.drops > 100, "seed {seed}: no cell was dropped");
        assert!(coverage.emptied > 10, "seed {seed}: no chain went empty");
    }
}

// ---------------------------------------------------------------------------
// The short path — a leaf of one to three cells folded into a dense
// accumulator — against the sparse kernel, bit for bit, on every route
// ---------------------------------------------------------------------------

use pvc_prob::{begin_tuple_capture, take_tuple_capture, tuple_capture_chain};

/// An accumulator of `len` cells from a small base: interior zero cells,
/// cells within 2× of [`PROB_EPS`] (a leaf probability below one drops them),
/// and sometimes end cells that small, which the drop rule removes and the
/// trim then cuts off.
fn short_path_accumulator(rng: &mut SeededRng, len: usize) -> MonoidDist {
    let base = rng.gen_range(-6i64..6);
    let gaps = rng.gen_range(0u32..4);
    let tiny_ends = rng.gen_range(0u32..3) == 0;
    let near_eps = |rng: &mut SeededRng| PROB_EPS * (1.05 + 0.9 * rng.next_f64());
    let mut pairs = Vec::with_capacity(len);
    for i in 0..len {
        let end = i == 0 || i == len - 1;
        let p = if end && tiny_ends {
            near_eps(rng)
        } else if !end && gaps > 0 && rng.gen_range(0..3 * gaps) == 0 {
            continue;
        } else if rng.gen_range(0u32..8) == 0 {
            near_eps(rng)
        } else {
            (0.05 + rng.next_f64()) / len as f64
        };
        pairs.push((MonoidValue::Fin(base + i as i64), p));
    }
    Dist::from_pairs(pairs)
}

/// The leaf shapes the fold's cell route meets, as the raw cells in
/// generation order that `AdditiveFold::push_cells` takes.
#[derive(Debug, Clone, Copy, PartialEq)]
enum LeafShape {
    /// COUNT's Boolean `{0: q, 1: p}`.
    Boolean,
    /// A point mass, whole or partial.
    Point,
    /// `{0, 2}` shifted: a zero middle cell.
    Gapped,
    /// A natural-number leaf `{0, 1, 3}` mapped onto fewer values — all onto
    /// the monoid identity, or onto a descending three-cell span.
    Coalescing,
    /// Every cell at or below [`PROB_EPS`]: the leaf is empty.
    Vanishing,
    /// One cell under [`PROB_EPS`]: one cell survives.
    PartlyVanishing,
    /// SUM's `{0, v}` with `v ≥ 3`: too wide for the cell route.
    Wide,
    /// Five raw cells coalescing to two: more than the cell route buffers.
    Crowded,
}

const LEAF_SHAPES: [LeafShape; 8] = [
    LeafShape::Boolean,
    LeafShape::Point,
    LeafShape::Gapped,
    LeafShape::Coalescing,
    LeafShape::Vanishing,
    LeafShape::PartlyVanishing,
    LeafShape::Wide,
    LeafShape::Crowded,
];

fn leaf_cells(rng: &mut SeededRng, shape: LeafShape) -> Vec<(MonoidValue, f64)> {
    let fin = MonoidValue::Fin;
    let p = 0.05 + 0.9 * rng.next_f64();
    let at = rng.gen_range(-2i64..3);
    match shape {
        LeafShape::Boolean => vec![(fin(0), 1.0 - p), (fin(1), p)],
        LeafShape::Point => vec![(fin(at), if rng.gen_range(0u32..2) == 0 { 1.0 } else { p })],
        LeafShape::Gapped => vec![(fin(at), 1.0 - p), (fin(at + 2), p)],
        LeafShape::Coalescing => {
            let nat = [(0, 0.1 + 0.2 * p), (1, 0.3), (3, 0.6 - 0.2 * p)];
            let identity = rng.gen_range(0u32..2) == 0;
            nat.iter()
                .map(|&(s, q)| (fin(if identity { 0 } else { at - s.min(2) }), q))
                .collect()
        }
        LeafShape::Vanishing => vec![(fin(0), 0.4 * PROB_EPS), (fin(1), 0.5 * PROB_EPS)],
        LeafShape::PartlyVanishing => vec![(fin(at), 1.0 - p), (fin(at + 1), 0.7 * PROB_EPS)],
        LeafShape::Wide => vec![(fin(0), 1.0 - p), (fin(rng.gen_range(3i64..12)), p)],
        LeafShape::Crowded => (0..5)
            .map(|i| (fin(at + i % 2), (0.1 + 0.1 * i as f64) * p))
            .collect(),
    }
}

/// Run `f` and return what it recorded on this thread: dispatches
/// `(dense, sparse)` and dense-chain `(extends, breaks)`.
fn recorded<R>(f: impl FnOnce() -> R) -> (R, [u64; 4]) {
    let prior = begin_tuple_capture();
    let out = f();
    let (extends, breaks) = tuple_capture_chain();
    let (dense, sparse) = take_tuple_capture(prior);
    (out, [dense, sparse, extends, breaks])
}

fn chain_bits(value: &ChainVal) -> (bool, Vec<(MonoidValue, u64)>) {
    if let ChainVal::Dense(d) = value {
        assert_trimmed(d);
        let recount = d.iter().filter(|(_, p)| *p > PROB_EPS).count();
        assert_eq!(d.support_size(), recount);
    }
    let dense = matches!(value, ChainVal::Dense(_));
    (dense, dist_bits(&value.clone().into_dist()))
}

#[derive(Default)]
struct ShortPathCoverage {
    dense: usize,
    sparse_kernel: usize,
    emptied: usize,
    trimmed: usize,
    leaf_longer_than_accumulator: usize,
}

/// One accumulator, one leaf: `push_cells`, `push`, `convolve_additive_chained`
/// and `DenseDist::convolve_add_exact` against `Dist::convolve`.
fn check_short_step(
    acc: &MonoidDist,
    raw: &[(MonoidValue, f64)],
    coverage: &mut ShortPathCoverage,
    context: &str,
) {
    let add = |x: &MonoidValue, y: &MonoidValue| x.saturating_add(y);
    // Every raw cell above the drop rule, or all values distinct: then this
    // is the operand `push_cells` coalesces.
    let leaf = Dist::from_pairs(raw.iter().copied());
    let expected = dist_bits(&acc.convolve(&leaf, add));
    let dense_acc = DenseDist::from_dist(acc).expect("finite non-empty accumulator");
    let routes = [
        recorded(|| {
            let mut fold = AdditiveFold::new();
            fold.push(ChainVal::Dense(dense_acc.clone()));
            fold.push_cells(raw.iter().copied());
            fold.take().expect("two operands")
        }),
        recorded(|| {
            let mut fold = AdditiveFold::new();
            fold.push(ChainVal::Dense(dense_acc.clone()));
            fold.push(ChainVal::Sparse(leaf.clone()));
            fold.take().expect("two operands")
        }),
        recorded(|| {
            convolve_additive_chained(
                ChainVal::Dense(dense_acc.clone()),
                ChainVal::Sparse(leaf.clone()),
                &mut Vec::new(),
            )
        }),
    ];
    let (first, counts) = &routes[0];
    let (dense, bits) = chain_bits(first);
    assert_eq!(bits, expected, "push_cells: {context}");
    for (route, (value, route_counts)) in ["push", "convolve_additive_chained"]
        .iter()
        .zip(&routes[1..])
    {
        assert_eq!(
            chain_bits(value),
            (dense, bits.clone()),
            "{route}: {context}"
        );
        assert_eq!(route_counts, counts, "{route} counts: {context}");
    }
    if let Some(dense_leaf) = DenseDist::from_dist(&leaf) {
        let exact = dense_acc.convolve_add_exact(&dense_leaf);
        assert_trimmed(&exact);
        assert_eq!(dist_bits(&exact.to_dist()), expected, "exact: {context}");
        coverage.leaf_longer_than_accumulator += usize::from(dense_leaf.len() > dense_acc.len());
        if let ChainVal::Dense(out) = first {
            coverage.trimmed +=
                usize::from(!out.is_empty() && out.len() < dense_acc.len() + dense_leaf.len() - 1);
        }
    }
    coverage.dense += usize::from(dense);
    coverage.sparse_kernel += usize::from(counts[1] > 0 && !leaf.is_empty());
    coverage.emptied += usize::from(first.is_empty());
}

#[test]
fn short_operands_fold_like_the_sparse_kernel_on_every_route() {
    let mut seeds = vec![0x5407, 0x1EAF];
    if let Ok(extra) = std::env::var("PVC_ORACLE_SEED") {
        seeds.push(extra.parse().expect("PVC_ORACLE_SEED must be a u64"));
    }
    for seed in seeds {
        let mut rng = SeededRng::seed_from_u64(seed);
        let mut coverage = ShortPathCoverage::default();
        let lengths = (1..=12usize)
            .chain([16, 25, 64, 100, 200, 400])
            .chain((0..20).map(|_| rng.gen_range(1usize..401)));
        for len in lengths.collect::<Vec<_>>() {
            let acc = short_path_accumulator(&mut rng, len);
            for shape in LEAF_SHAPES {
                let raw = leaf_cells(&mut rng, shape);
                let context = format!("seed {seed}, {len} cells, {shape:?} {raw:?}");
                check_short_step(&acc, &raw, &mut coverage, &context);
            }
            // A chain of leaves through the cell route and through `push`,
            // against the stepwise sparse fold.
            let add = |x: &MonoidValue, y: &MonoidValue| x.saturating_add(y);
            let script: Vec<_> = (0..rng.gen_range(1usize..17))
                .map(|_| {
                    let shape = LEAF_SHAPES[rng.gen_range(0..LEAF_SHAPES.len())];
                    leaf_cells(&mut rng, shape)
                })
                .collect();
            let (cells, cell_counts) = recorded(|| {
                let mut fold = AdditiveFold::new();
                fold.push(ChainVal::Sparse(acc.clone()));
                for raw in &script {
                    fold.push_cells(raw.iter().copied());
                }
                fold.take().expect("operands were pushed")
            });
            let (pushed, push_counts) = recorded(|| {
                let mut fold = AdditiveFold::new();
                fold.push(ChainVal::Sparse(acc.clone()));
                for raw in &script {
                    fold.push(ChainVal::Sparse(Dist::from_pairs(raw.iter().copied())));
                }
                fold.take().expect("operands were pushed")
            });
            let sparse = script.iter().fold(acc.clone(), |a, raw| {
                a.convolve(&Dist::from_pairs(raw.iter().copied()), add)
            });
            let context = format!("seed {seed}, {len} cells, chain {script:?}");
            assert_eq!(chain_bits(&cells), chain_bits(&pushed), "{context}");
            assert_eq!(chain_bits(&cells).1, dist_bits(&sparse), "{context}");
            assert_eq!(cell_counts, push_counts, "{context}");
        }
        assert!(coverage.dense > 100, "seed {seed}: {}", coverage.dense);
        assert!(coverage.sparse_kernel > 0, "seed {seed}: never sparse");
        assert!(coverage.emptied > 10, "seed {seed}: never empty");
        assert!(coverage.trimmed > 10, "seed {seed}: no end cell dropped");
        assert!(
            coverage.leaf_longer_than_accumulator > 0,
            "seed {seed}: the leaf never outgrew the accumulator"
        );
    }
}
