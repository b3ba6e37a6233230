//! Sparse discrete probability distributions (§2.1 of the paper).
//!
//! A distribution is represented by its set of pairs of unique values with their
//! non-zero probabilities, `{(s, P[s]) | P[s] > 0}`; the *size* of a distribution is
//! the size of this set. This is exactly the representation the paper's complexity
//! analysis counts (Theorem 2, Propositions 2–3).
//!
//! # Representation
//!
//! The pair set is stored as a **flat sorted vector** `Vec<(T, f64)>` (ascending in
//! `T`, unique values, strictly positive probabilities). Theorem 2 evaluates a d-tree
//! by one convolution per node, so convolution throughput is engine throughput, and
//! the flat layout wins on every hot operation:
//!
//! * **convolution** is generate–sort–coalesce: materialise the `|p|·|q|` candidate
//!   pairs, stable-sort them by value, and sum equal-valued runs left to right.
//!   For monotone combiners (MIN/MAX/SUM over sorted supports) the candidate buffer
//!   consists of pre-sorted runs, which the stable merge sort detects and merges as
//!   a k-way run merge — no `O(log n)` per-element tree inserts;
//! * **mixing** is a linear two-pointer merge of two sorted vectors;
//! * **scaling** and **filtering** are linear passes;
//! * callers on the hot path can reuse a scratch buffer across convolutions
//!   ([`Dist::convolve_with_scratch`]) instead of allocating per d-tree node.
//!
//! The flat kernel is **bit-identical** to the previous `BTreeMap`-backed
//! implementation: equal-valued candidates are summed in exactly the order the map
//! version inserted them (stable sort preserves generation order), and the same
//! [`PROB_EPS`] drop rules apply. The map implementation is retained in
//! [`mod@reference`] and checked against in debug builds and property tests.

use std::fmt;

/// Numerical tolerance used when comparing probabilities and checking normalisation.
pub const PROB_EPS: f64 = 1e-9;

/// A sparse discrete probability (sub-)distribution over values of type `T`.
///
/// Invariants maintained by every constructor and combinator:
/// * every stored probability is strictly positive (entries below [`PROB_EPS`] are
///   dropped);
/// * values are unique and kept in ascending order (duplicates are merged by summing
///   their probabilities).
///
/// The total mass is usually 1, but sub-distributions (mass < 1) are permitted — they
/// arise naturally while partitioning by valuations of a variable.
#[derive(Debug, Clone, PartialEq)]
pub struct Dist<T: Ord + Clone> {
    /// Sorted by value, unique, probabilities > [`PROB_EPS`].
    entries: Vec<(T, f64)>,
}

impl<T: Ord + Clone> Default for Dist<T> {
    fn default() -> Self {
        Dist {
            entries: Vec::new(),
        }
    }
}

/// Stable-sort a pair buffer by value and sum equal-valued runs **left to right**
/// (generation order — the same accumulation order a `BTreeMap` entry would see),
/// dropping sums below [`PROB_EPS`]. The result is written back into `pairs`.
fn coalesce_sorted<T: Ord + Clone>(pairs: &mut Vec<(T, f64)>) {
    pairs.sort_by(|a, b| a.0.cmp(&b.0));
    let mut write = 0usize;
    let mut read = 0usize;
    while read < pairs.len() {
        let mut acc = pairs[read].1;
        let mut next = read + 1;
        while next < pairs.len() && pairs[next].0 == pairs[read].0 {
            acc += pairs[next].1;
            next += 1;
        }
        if acc > PROB_EPS {
            pairs.swap(write, read);
            pairs[write].1 = acc;
            write += 1;
        }
        read = next;
    }
    pairs.truncate(write);
}

impl<T: Ord + Clone> Dist<T> {
    /// The empty sub-distribution (total mass 0).
    pub fn empty() -> Self {
        Self::default()
    }

    /// The point distribution putting all mass on a single value.
    pub fn point(value: T) -> Self {
        Dist {
            entries: vec![(value, 1.0)],
        }
    }

    /// Build a distribution from `(value, probability)` pairs, merging duplicate
    /// values and dropping non-positive probabilities.
    pub fn from_pairs<I: IntoIterator<Item = (T, f64)>>(pairs: I) -> Self {
        let mut entries: Vec<(T, f64)> = pairs.into_iter().filter(|(_, p)| *p > PROB_EPS).collect();
        coalesce_sorted(&mut entries);
        Dist { entries }
    }

    /// Build from a vector that is already sorted by value with unique values and
    /// probabilities above [`PROB_EPS`] — the fast path used by kernels that produce
    /// sorted output natively (e.g. the dense convolution of
    /// [`repr`](crate::repr)). The invariants are checked by a debug assertion.
    pub fn from_sorted_unique(entries: Vec<(T, f64)>) -> Self {
        debug_assert!(
            entries.windows(2).all(|w| w[0].0 < w[1].0),
            "from_sorted_unique: values must be strictly ascending"
        );
        debug_assert!(
            entries.iter().all(|(_, p)| *p > PROB_EPS),
            "from_sorted_unique: probabilities must exceed PROB_EPS"
        );
        Dist { entries }
    }

    /// Build from pairs in generation order, in place: equal values are summed
    /// left to right and sums at or below [`PROB_EPS`] dropped.
    pub(crate) fn coalesced(mut entries: Vec<(T, f64)>) -> Self {
        coalesce_sorted(&mut entries);
        Dist { entries }
    }

    /// Give the entry vector back (to a caller that recycles it).
    pub(crate) fn into_entries(self) -> Vec<(T, f64)> {
        self.entries
    }

    /// A Bernoulli-style two-point distribution; useful for Boolean variables.
    pub fn two_point(a: T, pa: f64, b: T, pb: f64) -> Self {
        Self::from_pairs([(a, pa), (b, pb)])
    }

    /// Number of values with non-zero probability (the paper's "size of a
    /// distribution").
    pub fn support_size(&self) -> usize {
        self.entries.len()
    }

    /// True if no value has non-zero probability.
    pub fn is_empty(&self) -> bool {
        self.entries.is_empty()
    }

    /// The probability of a particular value (0 if absent). Binary search.
    pub fn prob(&self, value: &T) -> f64 {
        match self.entries.binary_search_by(|(v, _)| v.cmp(value)) {
            Ok(i) => self.entries[i].1,
            Err(_) => 0.0,
        }
    }

    /// Total probability mass (`+0.0` when empty).
    pub fn total_mass(&self) -> f64 {
        self.entries.iter().fold(0.0, |sum, (_, p)| sum + p)
    }

    /// True if the total mass is 1 up to [`PROB_EPS`].
    pub fn is_normalized(&self) -> bool {
        (self.total_mass() - 1.0).abs() < 1e-6
    }

    /// Iterate over `(value, probability)` pairs in value order.
    pub fn iter(&self) -> impl Iterator<Item = (&T, f64)> {
        self.entries.iter().map(|(v, p)| (v, *p))
    }

    /// The support (values with non-zero probability) in order.
    pub fn support(&self) -> impl Iterator<Item = &T> {
        self.entries.iter().map(|(v, _)| v)
    }

    /// The smallest value in the support (entries are sorted).
    pub fn min_value(&self) -> Option<&T> {
        self.entries.first().map(|(v, _)| v)
    }

    /// The largest value in the support (entries are sorted).
    pub fn max_value(&self) -> Option<&T> {
        self.entries.last().map(|(v, _)| v)
    }

    /// Multiply every probability by a constant factor (e.g. `P[x ← s]` when
    /// partitioning on a variable, Eq. 10 of the paper). Linear pass; entries whose
    /// scaled probability falls below [`PROB_EPS`] are dropped.
    pub fn scale(&self, factor: f64) -> Self {
        Dist {
            entries: self
                .entries
                .iter()
                .map(|(v, p)| (v.clone(), p * factor))
                .filter(|(_, p)| *p > PROB_EPS)
                .collect(),
        }
    }

    /// Pointwise mixture: the sum of two sub-distributions, as a linear two-pointer
    /// merge of the sorted entry vectors.
    ///
    /// Used to combine the mutually exclusive branches of a `⊔x` node
    /// (Eq. 10 of the paper). For a value present on both sides, `self`'s
    /// probability is the left addend (matching the map implementation's
    /// insertion-order accumulation).
    pub fn mix(&self, other: &Self) -> Self {
        let mut out = Vec::with_capacity(self.entries.len() + other.entries.len());
        let (a, b) = (&self.entries, &other.entries);
        let (mut i, mut j) = (0, 0);
        while i < a.len() && j < b.len() {
            match a[i].0.cmp(&b[j].0) {
                std::cmp::Ordering::Less => {
                    out.push(a[i].clone());
                    i += 1;
                }
                std::cmp::Ordering::Greater => {
                    out.push(b[j].clone());
                    j += 1;
                }
                std::cmp::Ordering::Equal => {
                    let p = a[i].1 + b[j].1;
                    if p > PROB_EPS {
                        out.push((a[i].0.clone(), p));
                    }
                    i += 1;
                    j += 1;
                }
            }
        }
        out.extend_from_slice(&a[i..]);
        out.extend_from_slice(&b[j..]);
        Dist { entries: out }
    }

    /// Apply a function to every value, merging collisions.
    pub fn map<U: Ord + Clone>(&self, f: impl Fn(&T) -> U) -> Dist<U> {
        Dist::coalesced(self.entries.iter().map(|(v, p)| (f(v), *p)).collect())
    }

    /// Keep only values satisfying the predicate (a sub-distribution).
    pub fn filter(&self, keep: impl Fn(&T) -> bool) -> Self {
        Dist {
            entries: self
                .entries
                .iter()
                .filter(|(v, _)| keep(v))
                .cloned()
                .collect(),
        }
    }

    /// Renormalise to total mass 1. Returns the empty distribution if the mass is 0.
    pub fn normalize(&self) -> Self {
        let mass = self.total_mass();
        if mass <= PROB_EPS {
            Self::empty()
        } else {
            self.scale(1.0 / mass)
        }
    }

    /// The probability-weighted convolution of two *independent* distributions with
    /// respect to an arbitrary binary operation (Proposition 1, Eq. 1 of the paper):
    ///
    /// `P_{x•y}[c] = Σ_{a•b=c} P_x[a]·P_y[b]`.
    ///
    /// The result size is at most `|self| · |other|`; computation is
    /// generate–sort–coalesce over the candidate pairs,
    /// `O(|self|·|other|·log(|self|·|other|))` in the worst case and effectively a
    /// k-way run merge for monotone `op`.
    ///
    /// ```
    /// use pvc_prob::Dist;
    ///
    /// // Two independent uncertain prices; the distribution of their minimum
    /// // (Eq. 4 of the paper: ⊕ over the MIN monoid).
    /// let a = Dist::from_pairs([(10i64, 0.5), (20, 0.5)]);
    /// let b = Dist::from_pairs([(15i64, 0.2), (25, 0.8)]);
    /// let min = a.convolve(&b, |x, y| *x.min(y));
    /// assert_eq!(min.support_size(), 3);
    /// assert!((min.prob(&10) - 0.5).abs() < 1e-12); // a=10 wins regardless of b
    /// assert!((min.prob(&15) - 0.1).abs() < 1e-12); // a=20 ∧ b=15
    /// assert!((min.prob(&20) - 0.4).abs() < 1e-12); // a=20 ∧ b=25
    /// ```
    pub fn convolve<U: Ord + Clone, V: Ord + Clone>(
        &self,
        other: &Dist<U>,
        op: impl Fn(&T, &U) -> V,
    ) -> Dist<V> {
        let mut scratch = Vec::new();
        self.convolve_with_scratch(other, op, &mut scratch)
    }

    /// As [`convolve`](Self::convolve), reusing a caller-provided scratch buffer for
    /// the candidate pairs. The buffer is cleared on entry; reusing one buffer across
    /// the nodes of a d-tree avoids one `O(|p|·|q|)` allocation per node.
    pub fn convolve_with_scratch<U: Ord + Clone, V: Ord + Clone>(
        &self,
        other: &Dist<U>,
        op: impl Fn(&T, &U) -> V,
        scratch: &mut Vec<(V, f64)>,
    ) -> Dist<V> {
        scratch.clear();
        scratch.reserve(self.entries.len() * other.entries.len());
        for (a, pa) in &self.entries {
            for (b, pb) in &other.entries {
                scratch.push((op(a, b), pa * pb));
            }
        }
        coalesce_sorted(scratch);
        // Copy the (coalesced, small) result out and keep the buffer's capacity for
        // the caller's next convolution.
        let result = Dist {
            entries: scratch.clone(),
        };
        #[cfg(debug_assertions)]
        {
            let expected =
                reference::RefDist::from(self).convolve(&reference::RefDist::from(other), &op);
            debug_assert!(
                expected.bit_equal(&result),
                "flat convolution diverged from the BTreeMap reference"
            );
        }
        result
    }

    /// Check that two distributions coincide up to a probability tolerance.
    pub fn approx_eq(&self, other: &Self, tol: f64) -> bool {
        let keys: std::collections::BTreeSet<&T> = self.support().chain(other.support()).collect();
        keys.into_iter()
            .all(|k| (self.prob(k) - other.prob(k)).abs() <= tol)
    }
}

impl<T: Ord + Clone + fmt::Display> fmt::Display for Dist<T> {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        write!(f, "{{")?;
        let mut first = true;
        for (v, p) in &self.entries {
            if !first {
                write!(f, ", ")?;
            }
            first = false;
            write!(f, "({v}, {p:.4})")?;
        }
        write!(f, "}}")
    }
}

impl<T: Ord + Clone> FromIterator<(T, f64)> for Dist<T> {
    fn from_iter<I: IntoIterator<Item = (T, f64)>>(iter: I) -> Self {
        Dist::from_pairs(iter)
    }
}

pub mod reference {
    //! The original `BTreeMap`-backed distribution kernel, retained as the
    //! correctness reference for the flat sorted-vector implementation.
    //!
    //! Debug builds assert that every flat convolution agrees bit-for-bit with this
    //! implementation; the property tests in `tests/proptest_dist.rs` drive random
    //! operation chains through both and require exact agreement.

    use super::{Dist, PROB_EPS};
    use std::collections::BTreeMap;

    /// A `BTreeMap`-backed sparse distribution with the pre-flat-kernel semantics.
    #[derive(Debug, Clone, PartialEq)]
    pub struct RefDist<T: Ord + Clone> {
        entries: BTreeMap<T, f64>,
    }

    impl<T: Ord + Clone> RefDist<T> {
        /// Build from `(value, probability)` pairs with the original merge/drop
        /// rules: pairs at or below [`PROB_EPS`] are skipped before accumulation,
        /// duplicates are summed in iteration order, and sums at or below
        /// [`PROB_EPS`] are dropped afterwards.
        pub fn from_pairs<I: IntoIterator<Item = (T, f64)>>(pairs: I) -> Self {
            let mut entries: BTreeMap<T, f64> = BTreeMap::new();
            for (v, p) in pairs {
                if p > PROB_EPS {
                    *entries.entry(v).or_insert(0.0) += p;
                }
            }
            entries.retain(|_, p| *p > PROB_EPS);
            RefDist { entries }
        }

        /// The original map-based convolution: accumulate every candidate product
        /// into a `BTreeMap` entry, then drop entries at or below [`PROB_EPS`].
        pub fn convolve<U: Ord + Clone, V: Ord + Clone>(
            &self,
            other: &RefDist<U>,
            op: impl Fn(&T, &U) -> V,
        ) -> RefDist<V> {
            let mut out: BTreeMap<V, f64> = BTreeMap::new();
            for (a, pa) in &self.entries {
                for (b, pb) in &other.entries {
                    *out.entry(op(a, b)).or_insert(0.0) += pa * pb;
                }
            }
            out.retain(|_, p| *p > PROB_EPS);
            RefDist { entries: out }
        }

        /// The original mixture: re-accumulate both entry sequences.
        pub fn mix(&self, other: &Self) -> Self {
            Self::from_pairs(
                self.entries
                    .iter()
                    .chain(other.entries.iter())
                    .map(|(v, p)| (v.clone(), *p)),
            )
        }

        /// The original scaling: rebuild with every probability multiplied.
        pub fn scale(&self, factor: f64) -> Self {
            Self::from_pairs(self.entries.iter().map(|(v, p)| (v.clone(), p * factor)))
        }

        /// The original map: rebuild under `f`, merging collisions.
        pub fn map<U: Ord + Clone>(&self, f: impl Fn(&T) -> U) -> RefDist<U> {
            RefDist::from_pairs(self.entries.iter().map(|(v, p)| (f(v), *p)))
        }

        /// Exact (bitwise) equality against a flat distribution: same value
        /// sequence, bit-identical probabilities.
        pub fn bit_equal(&self, flat: &Dist<T>) -> bool {
            self.entries.len() == flat.support_size()
                && self
                    .entries
                    .iter()
                    .zip(flat.iter())
                    .all(|((rv, rp), (fv, fp))| rv == fv && rp.to_bits() == fp.to_bits())
        }

        /// Convert into the flat representation (the map iterates in sorted order).
        pub fn to_flat(&self) -> Dist<T> {
            Dist::from_sorted_unique(self.entries.iter().map(|(v, p)| (v.clone(), *p)).collect())
        }
    }

    impl<T: Ord + Clone> From<&Dist<T>> for RefDist<T> {
        fn from(d: &Dist<T>) -> Self {
            RefDist {
                entries: d.iter().map(|(v, p)| (v.clone(), p)).collect(),
            }
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn point_distribution() {
        let d = Dist::point(5u32);
        assert_eq!(d.support_size(), 1);
        assert_eq!(d.prob(&5), 1.0);
        assert_eq!(d.prob(&6), 0.0);
        assert!(d.is_normalized());
    }

    #[test]
    fn from_pairs_merges_and_drops() {
        let d = Dist::from_pairs([(1u32, 0.2), (1, 0.3), (2, 0.5), (3, 0.0)]);
        assert_eq!(d.support_size(), 2);
        assert!((d.prob(&1) - 0.5).abs() < 1e-12);
        assert!(d.is_normalized());
    }

    #[test]
    fn entries_are_sorted_and_unique() {
        let d = Dist::from_pairs([(9u32, 0.1), (1, 0.2), (5, 0.3), (1, 0.1)]);
        let support: Vec<u32> = d.support().copied().collect();
        assert_eq!(support, vec![1, 5, 9]);
        assert!((d.prob(&1) - 0.3).abs() < 1e-12);
    }

    #[test]
    fn convolution_of_integer_sum() {
        // The §2.1 example: P[x + y = 4] = Σ_k P[x=k]·P[y=4−k].
        let x = Dist::from_pairs([(0u32, 0.5), (1, 0.3), (2, 0.2)]);
        let y = Dist::from_pairs([(2u32, 0.4), (3, 0.6)]);
        let sum = x.convolve(&y, |a, b| a + b);
        assert!((sum.prob(&4) - (0.3 * 0.6 + 0.2 * 0.4)).abs() < 1e-12);
        assert!(sum.is_normalized());
        assert_eq!(sum.support_size(), 4); // values 2,3,4,5
    }

    #[test]
    fn convolution_of_disjunction_matches_closed_form() {
        // Example 2 of the paper: P[Φ∨Ψ = ⊤] = 1 − (1 − PΦ)(1 − PΨ).
        let p_phi = 0.3;
        let p_psi = 0.7;
        let phi = Dist::two_point(true, p_phi, false, 1.0 - p_phi);
        let psi = Dist::two_point(true, p_psi, false, 1.0 - p_psi);
        let or = phi.convolve(&psi, |a, b| *a || *b);
        assert!((or.prob(&true) - (1.0 - (1.0 - p_phi) * (1.0 - p_psi))).abs() < 1e-12);
    }

    #[test]
    fn convolution_sizes_are_bounded_by_product() {
        let a = Dist::from_pairs((0..5).map(|i| (i, 0.2)));
        let b = Dist::from_pairs((0..7).map(|i| (i, 1.0 / 7.0)));
        let c = a.convolve(&b, |x, y| x * 100 + y);
        assert_eq!(c.support_size(), 35);
        let d = a.convolve(&b, |_, _| 0u32);
        assert_eq!(d.support_size(), 1);
    }

    #[test]
    fn scratch_buffer_is_reusable() {
        let a = Dist::from_pairs((0..4).map(|i| (i, 0.25)));
        let b = Dist::from_pairs((0..4).map(|i| (i, 0.25)));
        let mut scratch = Vec::new();
        let c1 = a.convolve_with_scratch(&b, |x, y| x + y, &mut scratch);
        let c2 = a.convolve_with_scratch(&b, |x, y| x + y, &mut scratch);
        assert_eq!(c1, c2);
        assert_eq!(c1, a.convolve(&b, |x, y| x + y));
    }

    #[test]
    fn scale_and_mix_implement_case_analysis() {
        // P_Φ = Σ_s P_x[s] · P_{Φ|x←s}: scaling then mixing branches.
        let branch1 = Dist::from_pairs([(10u32, 0.5), (20, 0.5)]);
        let branch2 = Dist::from_pairs([(10u32, 1.0)]);
        let combined = branch1.scale(0.4).mix(&branch2.scale(0.6));
        assert!((combined.prob(&10) - (0.4 * 0.5 + 0.6)).abs() < 1e-12);
        assert!((combined.prob(&20) - 0.2).abs() < 1e-12);
        assert!(combined.is_normalized());
    }

    #[test]
    fn map_and_filter() {
        let d = Dist::from_pairs([(1u32, 0.25), (2, 0.25), (3, 0.5)]);
        let parity = d.map(|v| v % 2);
        assert!((parity.prob(&1) - 0.75).abs() < 1e-12);
        let odd = d.filter(|v| v % 2 == 1);
        assert!((odd.total_mass() - 0.75).abs() < 1e-12);
        assert!(odd.normalize().is_normalized());
    }

    #[test]
    fn normalize_empty_is_empty() {
        let d: Dist<u32> = Dist::empty();
        assert!(d.normalize().is_empty());
        assert_eq!(d.total_mass(), 0.0);
    }

    #[test]
    fn approx_eq_tolerates_small_errors() {
        let a = Dist::from_pairs([(1u32, 0.5), (2, 0.5)]);
        let b = Dist::from_pairs([(1u32, 0.5 + 1e-12), (2, 0.5 - 1e-12)]);
        assert!(a.approx_eq(&b, 1e-9));
        let c = Dist::from_pairs([(1u32, 0.6), (2, 0.4)]);
        assert!(!a.approx_eq(&c, 1e-9));
    }

    #[test]
    fn display_is_ordered() {
        let d = Dist::from_pairs([(2u32, 0.5), (1, 0.5)]);
        assert_eq!(d.to_string(), "{(1, 0.5000), (2, 0.5000)}");
    }

    #[test]
    fn flat_agrees_bitwise_with_reference() {
        let pairs = [(3i64, 0.125), (1, 0.5), (3, 0.25), (2, 0.125)];
        let flat = Dist::from_pairs(pairs);
        let refd = reference::RefDist::from_pairs(pairs);
        assert!(refd.bit_equal(&flat));
        let other = Dist::from_pairs([(0i64, 0.5), (1, 0.5)]);
        let conv = flat.convolve(&other, |a, b| a + b);
        let ref_conv = reference::RefDist::from(&flat)
            .convolve(&reference::RefDist::from(&other), |a, b| a + b);
        assert!(ref_conv.bit_equal(&conv));
        assert!(ref_conv
            .to_flat()
            .iter()
            .zip(conv.iter())
            .all(|((av, ap), (bv, bp))| av == bv && ap.to_bits() == bp.to_bits()));
    }
}
