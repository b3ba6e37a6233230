//! Commutative monoids for aggregation (§2.2 of the paper).
//!
//! Aggregation over a column fixes a domain of values and a commutative, associative
//! binary operation with a neutral element:
//!
//! * `SUM   = (N, +, 0)`
//! * `PROD  = (N, ·, 1)`
//! * `COUNT = (N, +, 0)` (a special case of SUM where every contribution is `1`)
//! * `MIN   = (N ∪ {±∞}, min, +∞)`
//! * `MAX   = (N ∪ {±∞}, max, −∞)`
//!
//! [`AggOp`] is the aggregation operator the expression and decomposition-tree
//! layers sum in, operating on [`MonoidValue`]; its semimodule action
//! [`AggOp::scalar_action`] is in [`crate::semimodule`].

use crate::value::MonoidValue;
use std::fmt;

/// A dynamic aggregation operator: which monoid a semimodule expression is summed in.
///
/// This is the `op` non-terminal of the Fig. 2 grammar
/// (`op ::= min | max | count | sum | prod`).
#[derive(Debug, Clone, Copy, PartialEq, Eq, Hash)]
pub enum AggOp {
    /// MIN aggregation — monoid `(Z ∪ {±∞}, min, +∞)`.
    Min,
    /// MAX aggregation — monoid `(Z ∪ {±∞}, max, −∞)`.
    Max,
    /// SUM aggregation — monoid `(Z, +, 0)`.
    Sum,
    /// COUNT aggregation — SUM over the constant value `1`.
    Count,
    /// PROD aggregation — monoid `(Z, ·, 1)`.
    Prod,
}

/// All aggregation operators, in a stable order (useful for sweeps and tests).
pub const ALL_AGG_OPS: [AggOp; 5] = [
    AggOp::Min,
    AggOp::Max,
    AggOp::Sum,
    AggOp::Count,
    AggOp::Prod,
];

impl AggOp {
    /// The neutral element `0_M` of this monoid.
    pub fn identity(&self) -> MonoidValue {
        match self {
            AggOp::Min => MonoidValue::PosInf,
            AggOp::Max => MonoidValue::NegInf,
            AggOp::Sum | AggOp::Count => MonoidValue::Fin(0),
            AggOp::Prod => MonoidValue::Fin(1),
        }
    }

    /// The monoid operation `+_M` on two values.
    pub fn combine(&self, a: &MonoidValue, b: &MonoidValue) -> MonoidValue {
        match self {
            AggOp::Min => (*a).min(*b),
            AggOp::Max => (*a).max(*b),
            AggOp::Sum | AggOp::Count => a.saturating_add(b),
            AggOp::Prod => a.saturating_mul(b),
        }
    }

    /// Fold an iterator of monoid values.
    pub fn fold<I: IntoIterator<Item = MonoidValue>>(&self, iter: I) -> MonoidValue {
        iter.into_iter()
            .fold(self.identity(), |acc, v| self.combine(&acc, &v))
    }

    /// Whether the size of the distribution of a sum in this monoid is bounded by the
    /// number of distinct leaf values (true for MIN and MAX, cf. Proposition 2).
    pub fn is_selective(&self) -> bool {
        matches!(self, AggOp::Min | AggOp::Max)
    }

    /// Whether this operator aggregates the constant `1` per tuple (COUNT) rather than
    /// a column value.
    pub fn is_count(&self) -> bool {
        matches!(self, AggOp::Count)
    }
}

impl fmt::Display for AggOp {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        let s = match self {
            AggOp::Min => "MIN",
            AggOp::Max => "MAX",
            AggOp::Sum => "SUM",
            AggOp::Count => "COUNT",
            AggOp::Prod => "PROD",
        };
        write!(f, "{s}")
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::semiring::SemiringValue;
    use crate::value::MonoidValue::*;

    #[test]
    fn identities() {
        assert_eq!(AggOp::Min.identity(), PosInf);
        assert_eq!(AggOp::Max.identity(), NegInf);
        assert_eq!(AggOp::Sum.identity(), Fin(0));
        assert_eq!(AggOp::Count.identity(), Fin(0));
        assert_eq!(AggOp::Prod.identity(), Fin(1));
    }

    #[test]
    fn combine_matches_semantics() {
        assert_eq!(AggOp::Min.combine(&Fin(3), &Fin(7)), Fin(3));
        assert_eq!(AggOp::Max.combine(&Fin(3), &Fin(7)), Fin(7));
        assert_eq!(AggOp::Sum.combine(&Fin(3), &Fin(7)), Fin(10));
        assert_eq!(AggOp::Prod.combine(&Fin(3), &Fin(7)), Fin(21));
        assert_eq!(AggOp::Min.combine(&PosInf, &Fin(7)), Fin(7));
        assert_eq!(AggOp::Max.combine(&NegInf, &Fin(7)), Fin(7));
    }

    #[test]
    fn generic_monoids_satisfy_laws_on_samples() {
        // MIN and MAX range over the extended line; SUM, COUNT and PROD over finite
        // values, where `+∞ + −∞` has no meaning.
        let extended = [NegInf, Fin(-2), Fin(0), Fin(3), PosInf];
        let finite = [Fin(-2), Fin(0), Fin(1), Fin(3)];
        for op in ALL_AGG_OPS {
            let samples: &[MonoidValue] = if op.is_selective() {
                &extended
            } else {
                &finite
            };
            for &a in samples {
                assert_eq!(op.combine(&a, &op.identity()), a, "{op}: identity");
                for &b in samples {
                    assert_eq!(
                        op.combine(&a, &b),
                        op.combine(&b, &a),
                        "{op}: commutativity"
                    );
                    for &c in samples {
                        assert_eq!(
                            op.combine(&op.combine(&a, &b), &c),
                            op.combine(&a, &op.combine(&b, &c)),
                            "{op}: associativity"
                        );
                    }
                }
            }
        }
    }

    #[test]
    fn fold_example_from_paper() {
        // min(10, 11) from the introduction's Example 1.
        let vals = vec![Fin(10), Fin(11)];
        assert_eq!(AggOp::Min.fold(vals), Fin(10));
        // Empty group folds to the neutral element.
        assert_eq!(AggOp::Min.fold(Vec::new()), PosInf);
        assert_eq!(AggOp::Sum.fold(Vec::new()), Fin(0));
    }

    #[test]
    fn scalar_action_boolean() {
        let t = SemiringValue::Bool(true);
        let f = SemiringValue::Bool(false);
        for op in ALL_AGG_OPS {
            assert_eq!(op.scalar_action(&f, &Fin(42)), op.identity(), "{op}");
            assert_eq!(op.scalar_action(&t, &Fin(42)), Fin(42), "{op}");
        }
    }

    #[test]
    fn scalar_action_natural_multiplicities() {
        // Example 6 of the paper: 6 ⊗ 5 in the MIN monoid is 5 ⊕min ... ⊕min 5 = 5.
        let six = SemiringValue::Nat(6);
        assert_eq!(AggOp::Min.scalar_action(&six, &Fin(5)), Fin(5));
        // In SUM, n ⊗ m is the n-fold sum n·m.
        assert_eq!(AggOp::Sum.scalar_action(&six, &Fin(5)), Fin(30));
        // In PROD, n ⊗ m is m^n.
        assert_eq!(
            AggOp::Prod.scalar_action(&SemiringValue::Nat(3), &Fin(2)),
            Fin(8)
        );
        // Zero multiplicity always yields the neutral element.
        assert_eq!(
            AggOp::Sum.scalar_action(&SemiringValue::Nat(0), &Fin(5)),
            Fin(0)
        );
    }

    #[test]
    fn selective_flags() {
        assert!(AggOp::Min.is_selective());
        assert!(AggOp::Max.is_selective());
        assert!(!AggOp::Sum.is_selective());
        assert!(!AggOp::Count.is_selective());
        assert!(AggOp::Count.is_count());
    }

    #[test]
    fn display_names() {
        assert_eq!(AggOp::Sum.to_string(), "SUM");
        assert_eq!(AggOp::Count.to_string(), "COUNT");
    }
}
