//! Distributions over the engine's dynamic value types.

use crate::dist::Dist;
use pvc_algebra::{MonoidValue, SemiringValue};

/// A distribution over semiring values.
pub type SemiringDist = Dist<SemiringValue>;
/// A distribution over monoid values.
pub type MonoidDist = Dist<MonoidValue>;

/// Convenience constructors for the distributions that appear constantly in the
/// engine: the Boolean tuple-presence variable.
pub mod make {
    use super::*;

    /// The distribution of a Boolean tuple-presence random variable with
    /// `P[⊤] = p_true`.
    pub fn bernoulli(p_true: f64) -> SemiringDist {
        Dist::two_point(
            SemiringValue::Bool(true),
            p_true,
            SemiringValue::Bool(false),
            1.0 - p_true,
        )
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use pvc_algebra::MonoidValue::Fin;
    use pvc_algebra::{AggOp, CmpOp, SemiringKind};

    /// Eq. (7): `P_{Φ⊗α}` for the SUM monoid.
    fn tensor(scalar: &SemiringDist, value: &MonoidDist) -> MonoidDist {
        scalar.convolve(value, |s, m| AggOp::Sum.scalar_action(s, m))
    }

    #[test]
    fn bernoulli_is_normalised() {
        let d = make::bernoulli(0.3);
        assert!(d.is_normalized());
        assert!((d.prob(&SemiringValue::Bool(true)) - 0.3).abs() < 1e-12);
    }

    #[test]
    fn example_11_tensor_distribution() {
        // Example 11 of the paper: Φ = x with Px = {(0,0.3),(1,0.3),(2,0.4)},
        // α = y⊗5 with Py = {(1,0.4),(2,0.4),(3,0.2)}  ⇒  Pα = {(5,.4),(10,.4),(15,.2)}
        // and P_{Φ⊗α}[10] = Px[1]·Pα[10] + Px[2]·Pα[5].
        let px = Dist::from_pairs([
            (SemiringValue::Nat(0), 0.3),
            (SemiringValue::Nat(1), 0.3),
            (SemiringValue::Nat(2), 0.4),
        ]);
        let py = Dist::from_pairs([
            (SemiringValue::Nat(1), 0.4),
            (SemiringValue::Nat(2), 0.4),
            (SemiringValue::Nat(3), 0.2),
        ]);
        let alpha = tensor(&py, &Dist::point(Fin(5)));
        assert!((alpha.prob(&Fin(5)) - 0.4).abs() < 1e-12);
        assert!((alpha.prob(&Fin(10)) - 0.4).abs() < 1e-12);
        assert!((alpha.prob(&Fin(15)) - 0.2).abs() < 1e-12);

        let result = tensor(&px, &alpha);
        let expected_10 = 0.3 * 0.4 + 0.4 * 0.4;
        assert!((result.prob(&Fin(10)) - expected_10).abs() < 1e-12);
        // Possible outcomes listed in the paper: 0, 5, 10, 15, 20, 30 (and 45, 60 via
        // x=2,y=3 ⇒ 2·3·5=30; x=2,y=2 ⇒ 20 ...). Check 0 and 30 are present.
        assert!(result.prob(&Fin(0)) > 0.0);
        assert!(result.prob(&Fin(30)) > 0.0);
        assert!(result.is_normalized());
    }

    #[test]
    fn example_11_boolean_case() {
        // Boolean case of Example 11: outcomes 0 and 5 with
        // P[5] = Px[⊤]·Py[⊤].
        let px = make::bernoulli(0.3);
        let py = make::bernoulli(0.4);
        let alpha = tensor(&py, &Dist::point(Fin(5)));
        let result = tensor(&px, &alpha);
        assert!((result.prob(&Fin(5)) - 0.3 * 0.4).abs() < 1e-12);
        assert!((result.prob(&Fin(0)) - (1.0 - 0.12)).abs() < 1e-12);
        assert_eq!(result.support_size(), 2);
    }

    #[test]
    fn comparisons_produce_semiring_values() {
        let a = Dist::from_pairs([(Fin(10), 0.5), (Fin(60), 0.5)]);
        let b = Dist::point(Fin(50));
        let kind = SemiringKind::Bool;
        let indicator = |holds: bool| if holds { kind.one() } else { kind.zero() };
        // Eq. (8): comparison of independent semimodule expressions.
        let le = a.convolve(&b, |x, y| indicator(CmpOp::Le.eval(x, y)));
        assert!((le.prob(&SemiringValue::Bool(true)) - 0.5).abs() < 1e-12);
        // Eq. (9): comparison of independent semiring expressions.
        let eq = make::bernoulli(0.25).convolve(&Dist::point(SemiringValue::Bool(true)), |x, y| {
            indicator(CmpOp::Eq.eval(x, y))
        });
        assert!((eq.prob(&SemiringValue::Bool(true)) - 0.25).abs() < 1e-12);
    }

    #[test]
    fn min_monoid_addition_is_selective() {
        let a = Dist::from_pairs([(Fin(10), 0.5), (MonoidValue::PosInf, 0.5)]);
        let b = Dist::from_pairs([(Fin(20), 0.5), (MonoidValue::PosInf, 0.5)]);
        // Eq. (6): monoid sum of independent semimodule expressions.
        let min = a.convolve(&b, |x, y| AggOp::Min.combine(x, y));
        // Support only holds values from the operand supports.
        assert!(min
            .support()
            .all(|v| matches!(v, Fin(10) | Fin(20) | MonoidValue::PosInf)));
        assert!((min.prob(&Fin(10)) - 0.5).abs() < 1e-12);
        assert!((min.prob(&MonoidValue::PosInf) - 0.25).abs() < 1e-12);
    }
}
