//! The values being aggregated and the comparisons over them.
//!
//! * **Monoid values** — elements of an aggregation monoid `M`, i.e. the values being
//!   aggregated. MIN and MAX need the extended number line (`±∞` are their neutral
//!   elements), so [`MonoidValue`] models `N ∪ {−∞, +∞}` over `i64`.
//! * **Comparisons** — the `θ` of conditional expressions `[α θ β]` ([`CmpOp`]).
//!
//! The engine works with dynamic enums (rather than generics) because a single
//! pvc-table may mix several monoids, and decomposition trees freely mix semiring and
//! semimodule sub-expressions. The annotation values are in [`crate::semiring`].

use std::cmp::Ordering;
use std::fmt;

/// An element of an aggregation monoid: the extended integers `Z ∪ {−∞, +∞}`.
///
/// `+∞` is the neutral element of MIN and `−∞` the neutral element of MAX
/// (cf. §2.2 of the paper).
#[derive(Debug, Clone, Copy, PartialEq, Eq, Hash)]
pub enum MonoidValue {
    /// Negative infinity — neutral element of the MAX monoid.
    NegInf,
    /// A finite value.
    Fin(i64),
    /// Positive infinity — neutral element of the MIN monoid.
    PosInf,
}

impl MonoidValue {
    /// The finite payload, if any.
    pub fn finite(&self) -> Option<i64> {
        match self {
            MonoidValue::Fin(v) => Some(*v),
            _ => None,
        }
    }

    /// True if this is a finite value.
    pub fn is_finite(&self) -> bool {
        matches!(self, MonoidValue::Fin(_))
    }

    /// Addition on the extended number line: an infinite operand saturates the
    /// result, and two finite operands add as plain `i64`s, which do **not**
    /// saturate (they wrap in release builds). The engine refuses a SUM that
    /// could leave `i64` in some world before it is evaluated
    /// (`pvc_db::Error::AggregateOverflow`).
    ///
    /// `−∞ + +∞` is undefined in general; this implementation panics on that case
    /// because it never arises from well-formed aggregation expressions (SUM only
    /// combines finite values).
    pub fn saturating_add(&self, other: &MonoidValue) -> MonoidValue {
        match (self, other) {
            (MonoidValue::Fin(a), MonoidValue::Fin(b)) => MonoidValue::Fin(a + b),
            (MonoidValue::PosInf, MonoidValue::NegInf)
            | (MonoidValue::NegInf, MonoidValue::PosInf) => {
                panic!("undefined sum of +∞ and −∞")
            }
            (MonoidValue::PosInf, _) | (_, MonoidValue::PosInf) => MonoidValue::PosInf,
            (MonoidValue::NegInf, _) | (_, MonoidValue::NegInf) => MonoidValue::NegInf,
        }
    }

    /// Multiplication of two finite values (the PROD monoid) as plain `i64`s,
    /// which do **not** saturate (they wrap in release builds); the engine refuses
    /// a PROD that could leave `i64` in some world before it is evaluated
    /// (`pvc_db::Error::AggregateOverflow`). Infinite operands panic.
    pub fn saturating_mul(&self, other: &MonoidValue) -> MonoidValue {
        match (self, other) {
            (MonoidValue::Fin(a), MonoidValue::Fin(b)) => MonoidValue::Fin(a * b),
            _ => panic!("PROD aggregation over infinite values is undefined"),
        }
    }
}

impl PartialOrd for MonoidValue {
    fn partial_cmp(&self, other: &Self) -> Option<Ordering> {
        Some(self.cmp(other))
    }
}

impl Ord for MonoidValue {
    fn cmp(&self, other: &Self) -> Ordering {
        use MonoidValue::*;
        match (self, other) {
            (NegInf, NegInf) | (PosInf, PosInf) => Ordering::Equal,
            (NegInf, _) => Ordering::Less,
            (_, NegInf) => Ordering::Greater,
            (PosInf, _) => Ordering::Greater,
            (_, PosInf) => Ordering::Less,
            (Fin(a), Fin(b)) => a.cmp(b),
        }
    }
}

impl fmt::Display for MonoidValue {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        match self {
            MonoidValue::NegInf => write!(f, "-∞"),
            MonoidValue::Fin(v) => write!(f, "{v}"),
            MonoidValue::PosInf => write!(f, "+∞"),
        }
    }
}

impl From<i64> for MonoidValue {
    fn from(v: i64) -> Self {
        MonoidValue::Fin(v)
    }
}

/// A comparison operator `θ` used in conditional expressions `[α θ β]` (Fig. 2).
#[derive(Debug, Clone, Copy, PartialEq, Eq, Hash)]
pub enum CmpOp {
    /// Equality `=`.
    Eq,
    /// Inequality `≠`.
    Ne,
    /// Less-or-equal `≤`.
    Le,
    /// Greater-or-equal `≥`.
    Ge,
    /// Strictly less `<`.
    Lt,
    /// Strictly greater `>`.
    Gt,
}

impl CmpOp {
    /// Evaluate the comparison on two ordered values.
    pub fn eval<T: Ord>(&self, a: &T, b: &T) -> bool {
        match self {
            CmpOp::Eq => a == b,
            CmpOp::Ne => a != b,
            CmpOp::Le => a <= b,
            CmpOp::Ge => a >= b,
            CmpOp::Lt => a < b,
            CmpOp::Gt => a > b,
        }
    }

    /// The operator with the two sides swapped (`a θ b` ⇔ `b θ.flip() a`).
    pub fn flip(&self) -> CmpOp {
        match self {
            CmpOp::Eq => CmpOp::Eq,
            CmpOp::Ne => CmpOp::Ne,
            CmpOp::Le => CmpOp::Ge,
            CmpOp::Ge => CmpOp::Le,
            CmpOp::Lt => CmpOp::Gt,
            CmpOp::Gt => CmpOp::Lt,
        }
    }

    /// The logical negation of the operator (`¬(a θ b)` ⇔ `a θ.negate() b`).
    pub fn negate(&self) -> CmpOp {
        match self {
            CmpOp::Eq => CmpOp::Ne,
            CmpOp::Ne => CmpOp::Eq,
            CmpOp::Le => CmpOp::Gt,
            CmpOp::Ge => CmpOp::Lt,
            CmpOp::Lt => CmpOp::Ge,
            CmpOp::Gt => CmpOp::Le,
        }
    }
}

impl fmt::Display for CmpOp {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        let s = match self {
            CmpOp::Eq => "=",
            CmpOp::Ne => "≠",
            CmpOp::Le => "≤",
            CmpOp::Ge => "≥",
            CmpOp::Lt => "<",
            CmpOp::Gt => ">",
        };
        write!(f, "{s}")
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::semiring::{SemiringKind, SemiringValue};

    #[test]
    fn semiring_bool_ops() {
        let t = SemiringValue::Bool(true);
        let f = SemiringValue::Bool(false);
        assert_eq!(t.add(&f), t);
        assert_eq!(f.add(&f), f);
        assert_eq!(t.mul(&f), f);
        assert_eq!(t.mul(&t), t);
        assert!(f.is_zero());
        assert!(t.is_one());
        assert_eq!(SemiringKind::Bool.zero(), f);
        assert_eq!(SemiringKind::Bool.one(), t);
    }

    #[test]
    fn semiring_nat_ops() {
        let a = SemiringValue::Nat(3);
        let b = SemiringValue::Nat(4);
        assert_eq!(a.add(&b), SemiringValue::Nat(7));
        assert_eq!(a.mul(&b), SemiringValue::Nat(12));
        assert!(SemiringValue::Nat(0).is_zero());
        assert!(SemiringValue::Nat(1).is_one());
        assert_eq!(SemiringKind::Nat.zero(), SemiringValue::Nat(0));
        assert_eq!(SemiringKind::Nat.one(), SemiringValue::Nat(1));
    }

    #[test]
    #[should_panic(expected = "kind mismatch")]
    fn mixed_kind_add_panics() {
        SemiringValue::Bool(true).add(&SemiringValue::Nat(1));
    }

    #[test]
    fn multiplicity_homomorphism() {
        // B → N is a semiring homomorphism on {⊥, ⊤}.
        let pairs = [(false, false), (false, true), (true, true)];
        for (a, b) in pairs {
            let (sa, sb) = (SemiringValue::Bool(a), SemiringValue::Bool(b));
            assert_eq!(
                sa.add(&sb).as_multiplicity(),
                (sa.as_multiplicity() + sb.as_multiplicity()).min(1)
            );
            assert_eq!(
                sa.mul(&sb).as_multiplicity(),
                sa.as_multiplicity() * sb.as_multiplicity()
            );
        }
    }

    #[test]
    fn monoid_value_ordering() {
        assert!(MonoidValue::NegInf < MonoidValue::Fin(i64::MIN));
        assert!(MonoidValue::Fin(i64::MAX) < MonoidValue::PosInf);
        assert!(MonoidValue::Fin(3) < MonoidValue::Fin(4));
        assert_eq!(
            MonoidValue::PosInf.cmp(&MonoidValue::PosInf),
            Ordering::Equal
        );
    }

    #[test]
    fn monoid_value_saturating_add() {
        assert_eq!(
            MonoidValue::Fin(2).saturating_add(&MonoidValue::Fin(5)),
            MonoidValue::Fin(7)
        );
        assert_eq!(
            MonoidValue::PosInf.saturating_add(&MonoidValue::Fin(5)),
            MonoidValue::PosInf
        );
        assert_eq!(
            MonoidValue::NegInf.saturating_add(&MonoidValue::Fin(5)),
            MonoidValue::NegInf
        );
    }

    #[test]
    #[should_panic(expected = "undefined sum")]
    fn opposite_infinities_panic() {
        MonoidValue::PosInf.saturating_add(&MonoidValue::NegInf);
    }

    #[test]
    fn cmp_op_eval_flip_negate() {
        assert!(CmpOp::Le.eval(&1, &2));
        assert!(!CmpOp::Gt.eval(&1, &2));
        for op in [
            CmpOp::Eq,
            CmpOp::Ne,
            CmpOp::Le,
            CmpOp::Ge,
            CmpOp::Lt,
            CmpOp::Gt,
        ] {
            for a in -2..3i64 {
                for b in -2..3i64 {
                    assert_eq!(op.eval(&a, &b), op.flip().eval(&b, &a), "{op:?} {a} {b}");
                    assert_eq!(op.eval(&a, &b), !op.negate().eval(&a, &b), "{op:?} {a} {b}");
                }
            }
        }
    }

    #[test]
    fn display_round_trip() {
        assert_eq!(SemiringValue::Bool(true).to_string(), "⊤");
        assert_eq!(SemiringValue::Nat(7).to_string(), "7");
        assert_eq!(MonoidValue::PosInf.to_string(), "+∞");
        assert_eq!(MonoidValue::Fin(-3).to_string(), "-3");
        assert_eq!(CmpOp::Le.to_string(), "≤");
    }
}
