//! Two-cell distributions over the Boolean semiring: the scalar-probability
//! interpretation of a d-tree node.
//!
//! Over `B` every semiring-sorted node of a d-tree holds at most two outcomes,
//! `⊥` and `⊤`, so its distribution is a pair of probabilities and `∨`, `∧`,
//! `[θ]`, scaling and the `⊔` mixture are a handful of multiplications and
//! additions — no entry vector, no candidate buffer, no sort. [`BoolCells`] is
//! that pair, `[P[⊥], P[⊤]]`, with `0.0` standing for an absent cell.
//!
//! Every operation is **bit-identical** to its [`Dist`] counterpart
//! ([`Dist::convolve_with_scratch`], [`Dist::scale`], [`Dist::mix`]):
//!
//! * *order* — generate–sort–coalesce visits the candidate pairs operand-major
//!   (`⊥⊥, ⊥⊤, ⊤⊥, ⊤⊤`), stable-sorts them by outcome and sums equal outcomes
//!   left to right; accumulating the same four products in the same order into
//!   the cell their outcome names is the same sequence of additions (the
//!   leading `0.0 + p` is exact, and an absent cell contributes `0.0 · p =
//!   0.0`, which no sum notices);
//! * *drop rule* — a cell that ends at or below [`PROB_EPS`] becomes absent,
//!   exactly where `Dist` drops the entry.
//!
//! Debug builds re-run every operation through `Dist` and assert equal bits.

use crate::dist::{Dist, PROB_EPS};
use crate::values::SemiringDist;
use pvc_algebra::{CmpOp, SemiringValue};

/// A (sub-)distribution over `{⊥, ⊤}` as `[P[⊥], P[⊤]]`; see the [module
/// documentation](self).
#[derive(Debug, Clone, Copy, PartialEq)]
pub struct BoolCells([f64; 2]);

/// A cell at or below [`PROB_EPS`] is absent.
fn kept(p: f64) -> f64 {
    if p > PROB_EPS {
        p
    } else {
        0.0
    }
}

impl BoolCells {
    /// The empty sub-distribution (total mass 0).
    pub const EMPTY: BoolCells = BoolCells([0.0; 2]);

    /// All mass on one truth value.
    pub fn point(value: bool) -> BoolCells {
        let mut cells = [0.0; 2];
        cells[value as usize] = 1.0;
        BoolCells(cells)
    }

    /// The cells `[p_false, p_true]`, each dropped if at or below [`PROB_EPS`].
    pub fn new(p_false: f64, p_true: f64) -> BoolCells {
        BoolCells([kept(p_false), kept(p_true)])
    }

    /// The cells of a distribution whose support lies in `{⊥, ⊤}`; `None` if it
    /// holds any other value (an `N`-valued variable, say).
    pub fn from_dist(dist: &SemiringDist) -> Option<BoolCells> {
        let mut cells = [0.0; 2];
        for (value, p) in dist.iter() {
            match value {
                SemiringValue::Bool(b) => cells[*b as usize] = p,
                SemiringValue::Nat(_) => return None,
            }
        }
        Some(BoolCells(cells))
    }

    /// The same distribution in sorted-vector form.
    pub fn to_dist(self) -> SemiringDist {
        let entries = [false, true]
            .into_iter()
            .filter(|&b| self.0[b as usize] != 0.0)
            .map(|b| (SemiringValue::Bool(b), self.0[b as usize]))
            .collect();
        Dist::from_sorted_unique(entries)
    }

    /// `[P[⊥], P[⊤]]`, `0.0` for an absent cell.
    pub fn cells(self) -> [f64; 2] {
        self.0
    }

    /// True if both cells are absent.
    pub fn is_empty(self) -> bool {
        self.0 == [0.0; 2]
    }

    /// Distribution of `x ∨ y` for independent `x ~ self`, `y ~ other` (Eq. 4).
    pub fn or(self, other: BoolCells) -> BoolCells {
        self.convolve(other, |x, y| x || y)
    }

    /// Distribution of `x ∧ y` for independent operands (Eq. 5).
    pub fn and(self, other: BoolCells) -> BoolCells {
        self.convolve(other, |x, y| x && y)
    }

    /// Distribution of `[x θ y]` for independent operands (Eq. 8), `⊥ < ⊤`.
    pub fn compare(self, theta: CmpOp, other: BoolCells) -> BoolCells {
        self.convolve(other, |x, y| theta.eval(&x, &y))
    }

    fn convolve(self, other: BoolCells, op: impl Fn(bool, bool) -> bool) -> BoolCells {
        let mut out = [0.0; 2];
        for x in [false, true] {
            for y in [false, true] {
                out[op(x, y) as usize] += self.0[x as usize] * other.0[y as usize];
            }
        }
        let result = BoolCells([kept(out[0]), kept(out[1])]);
        #[cfg(debug_assertions)]
        {
            let lift = |x: &SemiringValue, y: &SemiringValue| {
                SemiringValue::Bool(op(x.as_bool(), y.as_bool()))
            };
            let expected =
                self.to_dist()
                    .convolve_with_scratch(&other.to_dist(), lift, &mut Vec::new());
            debug_assert!(
                result.bit_equal(&expected),
                "two-cell convolution diverged from Dist: {result:?} vs {expected:?}"
            );
        }
        result
    }

    /// Every probability multiplied by `factor` (a `⊔` branch weight, Eq. 10).
    pub fn scale(self, factor: f64) -> BoolCells {
        let result = BoolCells([kept(self.0[0] * factor), kept(self.0[1] * factor)]);
        debug_assert!(result.bit_equal(&self.to_dist().scale(factor)));
        result
    }

    /// Pointwise sum of two sub-distributions (the `⊔` mixture, Eq. 10); `self`
    /// is the left addend.
    pub fn mix(self, other: BoolCells) -> BoolCells {
        let result = BoolCells([kept(self.0[0] + other.0[0]), kept(self.0[1] + other.0[1])]);
        debug_assert!(result.bit_equal(&self.to_dist().mix(&other.to_dist())));
        result
    }

    /// Same support, same probability bits.
    fn bit_equal(self, dist: &SemiringDist) -> bool {
        BoolCells::from_dist(dist).is_some_and(|cells| {
            cells.0[0].to_bits() == self.0[0].to_bits()
                && cells.0[1].to_bits() == self.0[1].to_bits()
        })
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::values::make::bernoulli;

    #[test]
    fn round_trips_and_refuses_other_values() {
        for p in [0.0, 1e-10, 0.3, 1.0 - 1e-10, 1.0] {
            let dist = bernoulli(p);
            let cells = BoolCells::from_dist(&dist).unwrap();
            assert_eq!(cells.to_dist(), dist, "p = {p}");
        }
        assert!(BoolCells::from_dist(&Dist::empty()).unwrap().is_empty());
        assert_eq!(BoolCells::EMPTY.to_dist(), Dist::empty());
        let natural = Dist::from_pairs([(SemiringValue::Nat(2), 1.0)]);
        assert_eq!(BoolCells::from_dist(&natural), None);
    }

    #[test]
    fn closed_forms() {
        let x = BoolCells::from_dist(&bernoulli(0.3)).unwrap();
        let y = BoolCells::from_dist(&bernoulli(0.6)).unwrap();
        assert!((x.or(y).cells()[1] - (1.0 - 0.7 * 0.4)).abs() < 1e-15);
        assert!((x.and(y).cells()[1] - 0.18).abs() < 1e-15);
        // [x ≠ ⊥] is x; [x ≤ y] fails only on (⊤, ⊥).
        assert_eq!(x.compare(CmpOp::Ne, BoolCells::point(false)), x);
        assert!((x.compare(CmpOp::Le, y).cells()[0] - 0.3 * 0.4).abs() < 1e-15);
        assert_eq!(x.or(BoolCells::EMPTY), BoolCells::EMPTY);
        let mixed = x.scale(0.25).mix(y.scale(0.75));
        assert!((mixed.cells()[1] - (0.075 + 0.45)).abs() < 1e-15);
        assert_eq!(BoolCells::new(1e-9, 0.5).cells(), [0.0, 0.5]);
    }
}
