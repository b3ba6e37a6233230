//! The annotation semirings (§2.2, Definition 3 of the paper).
//!
//! A tuple's annotation is an element of a commutative semiring `S`; the paper uses
//! the Boolean semiring `B` for set semantics and the natural numbers `N` for bag
//! semantics (cf. Table 1 of the paper). [`SemiringValue`] is an element of either,
//! [`SemiringKind`] names which, and [`check_semiring_laws`] checks Definition 3 on
//! a triple of elements.

use std::fmt;

/// Which concrete annotation semiring the engine interprets expressions in.
///
/// `Bool` gives set semantics, `Nat` gives bag semantics (tuple multiplicities); see
/// Table 1 of the paper.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Hash)]
pub enum SemiringKind {
    /// The Boolean semiring `(B, ∨, ⊥, ∧, ⊤)`.
    Bool,
    /// The semiring of natural numbers `(N, +, 0, ·, 1)`.
    Nat,
}

impl SemiringKind {
    /// The additive neutral element `0_S` of this semiring.
    pub fn zero(self) -> SemiringValue {
        match self {
            SemiringKind::Bool => SemiringValue::Bool(false),
            SemiringKind::Nat => SemiringValue::Nat(0),
        }
    }

    /// The multiplicative neutral element `1_S` of this semiring.
    pub fn one(self) -> SemiringValue {
        match self {
            SemiringKind::Bool => SemiringValue::Bool(true),
            SemiringKind::Nat => SemiringValue::Nat(1),
        }
    }
}

impl fmt::Display for SemiringKind {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        match self {
            SemiringKind::Bool => write!(f, "B"),
            SemiringKind::Nat => write!(f, "N"),
        }
    }
}

/// An element of a concrete annotation semiring (`B` or `N`).
#[derive(Debug, Clone, Copy, PartialEq, Eq, Hash, PartialOrd, Ord)]
pub enum SemiringValue {
    /// An element of the Boolean semiring.
    Bool(bool),
    /// An element of the natural-number semiring.
    Nat(u64),
}

impl SemiringValue {
    /// The kind (semiring) this value belongs to.
    pub fn kind(&self) -> SemiringKind {
        match self {
            SemiringValue::Bool(_) => SemiringKind::Bool,
            SemiringValue::Nat(_) => SemiringKind::Nat,
        }
    }

    /// True if this value is the additive neutral element `0_S` of its semiring.
    pub fn is_zero(&self) -> bool {
        matches!(self, SemiringValue::Bool(false) | SemiringValue::Nat(0))
    }

    /// True if this value is the multiplicative neutral element `1_S` of its semiring.
    pub fn is_one(&self) -> bool {
        matches!(self, SemiringValue::Bool(true) | SemiringValue::Nat(1))
    }

    /// True if this value absorbs addition, `s + a = a` for every `s` of its
    /// semiring: `⊤` in `B`. `N` has no such element.
    pub fn absorbs_add(&self) -> bool {
        matches!(self, SemiringValue::Bool(true))
    }

    /// Semiring addition. Panics if the operands come from different semirings.
    pub fn add(&self, other: &SemiringValue) -> SemiringValue {
        match (self, other) {
            (SemiringValue::Bool(a), SemiringValue::Bool(b)) => SemiringValue::Bool(*a || *b),
            (SemiringValue::Nat(a), SemiringValue::Nat(b)) => SemiringValue::Nat(a + b),
            _ => panic!("semiring kind mismatch in add: {self:?} + {other:?}"),
        }
    }

    /// Semiring multiplication. Panics if the operands come from different semirings.
    pub fn mul(&self, other: &SemiringValue) -> SemiringValue {
        match (self, other) {
            (SemiringValue::Bool(a), SemiringValue::Bool(b)) => SemiringValue::Bool(*a && *b),
            (SemiringValue::Nat(a), SemiringValue::Nat(b)) => SemiringValue::Nat(a * b),
            _ => panic!("semiring kind mismatch in mul: {self:?} * {other:?}"),
        }
    }

    /// Interpret this value as a natural number multiplicity.
    ///
    /// Booleans map to `0`/`1`; this is the canonical semiring homomorphism `B → N`
    /// used when applying a semiring value to a monoid value (`⊗`).
    pub fn as_multiplicity(&self) -> u64 {
        match self {
            SemiringValue::Bool(false) => 0,
            SemiringValue::Bool(true) => 1,
            SemiringValue::Nat(n) => *n,
        }
    }

    /// The Boolean truth value of this element (non-zero ⇒ true).
    pub fn as_bool(&self) -> bool {
        !self.is_zero()
    }
}

impl fmt::Display for SemiringValue {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        match self {
            SemiringValue::Bool(true) => write!(f, "⊤"),
            SemiringValue::Bool(false) => write!(f, "⊥"),
            SemiringValue::Nat(n) => write!(f, "{n}"),
        }
    }
}

impl From<bool> for SemiringValue {
    fn from(b: bool) -> Self {
        SemiringValue::Bool(b)
    }
}

impl From<u64> for SemiringValue {
    fn from(n: u64) -> Self {
        SemiringValue::Nat(n)
    }
}

/// Check every commutative-semiring law (Definition 3) on a triple of elements of
/// one semiring, naming the first one violated.
pub fn check_semiring_laws(
    a: SemiringValue,
    b: SemiringValue,
    c: SemiringValue,
) -> Result<(), &'static str> {
    let (zero, one) = (a.kind().zero(), a.kind().one());
    let add = |x: SemiringValue, y: SemiringValue| x.add(&y);
    let mul = |x: SemiringValue, y: SemiringValue| x.mul(&y);
    let laws = [
        (
            add(a, add(b, c)) == add(add(a, b), c),
            "additive associativity",
        ),
        (add(a, b) == add(b, a), "additive commutativity"),
        (add(a, zero) == a && add(zero, a) == a, "additive identity"),
        (
            mul(a, mul(b, c)) == mul(mul(a, b), c),
            "multiplicative associativity",
        ),
        (mul(a, b) == mul(b, a), "multiplicative commutativity"),
        (
            mul(a, one) == a && mul(one, a) == a,
            "multiplicative identity",
        ),
        (
            mul(a, add(b, c)) == add(mul(a, b), mul(a, c)),
            "left distributivity",
        ),
        (
            mul(add(a, b), c) == add(mul(a, c), mul(b, c)),
            "right distributivity",
        ),
        (
            mul(a, zero).is_zero() && mul(zero, a).is_zero(),
            "annihilation by zero",
        ),
    ];
    match laws.iter().find(|(holds, _)| !holds) {
        Some((_, law)) => Err(law),
        None => Ok(()),
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn natural_semiring_laws() {
        // Every triple of a sample holding both neutral elements.
        let samples = [0u64, 1, 2, 3, 7, 11].map(SemiringValue::Nat);
        for a in samples {
            for b in samples {
                for c in samples {
                    assert_eq!(check_semiring_laws(a, b, c), Ok(()), "({a}, {b}, {c})");
                }
            }
        }
    }
}
