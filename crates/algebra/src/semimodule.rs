//! Semimodules: an aggregation monoid acted on by an annotation semiring (§2.2,
//! Definition 4 of the paper).
//!
//! An `S`-semimodule `M` is a commutative monoid `(M, +_M, 0_M)` with a scalar
//! action `⊗ : S × M → M`; the expression `Φ ⊗ m` reads "value `m`, present with
//! multiplicity (or condition) `Φ`". [`AggOp::scalar_action`] realises `B ⊗ M` and
//! `N ⊗ M` for every aggregation monoid — except `B` with SUM or COUNT, which the
//! paper notes is no semimodule (`⊤ ∨ ⊤ = ⊤`, but `m + m ≠ m`) — and
//! [`check_semimodule_laws`] checks Definition 4 on sample elements.

use crate::monoid::AggOp;
use crate::semiring::SemiringValue;
use crate::value::MonoidValue;

impl AggOp {
    /// The semimodule scalar action `s ⊗ m` for a semiring value `s` and monoid value
    /// `m` (Definition 4 of the paper).
    ///
    /// For the Boolean semiring, `⊥ ⊗ m = 0_M` and `⊤ ⊗ m = m`. For the semiring `N`,
    /// `n ⊗ m` is the `n`-fold monoid sum of `m` (so `n·m` for SUM, `m` for MIN/MAX
    /// when `n > 0`, and `m^n` for PROD).
    pub fn scalar_action(&self, s: &SemiringValue, m: &MonoidValue) -> MonoidValue {
        let n = s.as_multiplicity();
        if n == 0 {
            return self.identity();
        }
        match self {
            AggOp::Min | AggOp::Max => *m,
            AggOp::Sum | AggOp::Count => match m {
                MonoidValue::Fin(v) => MonoidValue::Fin(v * n as i64),
                other => *other,
            },
            AggOp::Prod => match m {
                MonoidValue::Fin(v) => MonoidValue::Fin(match v {
                    // Closed forms: a multiplicity may reach 2^36 and more.
                    -1 if n % 2 == 0 => 1,
                    -1..=1 => *v,
                    _ => u32::try_from(n)
                        .ok()
                        .and_then(|n| v.checked_pow(n))
                        .expect("a product that leaves i64 (step I refuses one)"),
                }),
                other => *other,
            },
        }
    }
}

/// Check every semimodule law (Definition 4) of `op` acted on by the semiring of
/// `s1` and `s2`, on two scalars and two monoid values, naming the first one
/// violated.
pub fn check_semimodule_laws(
    op: AggOp,
    s1: SemiringValue,
    s2: SemiringValue,
    m1: MonoidValue,
    m2: MonoidValue,
) -> Result<(), &'static str> {
    let act = |s: SemiringValue, m: MonoidValue| op.scalar_action(&s, &m);
    let plus = |a: MonoidValue, b: MonoidValue| op.combine(&a, &b);
    let (zero, one) = (s1.kind().zero(), s1.kind().one());
    let laws = [
        (
            act(s1.add(&s2), m1) == plus(act(s1, m1), act(s2, m1)),
            "distributivity over the semiring sum",
        ),
        (
            act(s1, plus(m1, m2)) == plus(act(s1, m1), act(s1, m2)),
            "distributivity over the monoid sum",
        ),
        (
            act(s1.mul(&s2), m1) == act(s1, act(s2, m1)),
            "compatibility with the semiring product",
        ),
        (act(one, m1) == m1, "unit action"),
        (
            act(zero, m1) == op.identity() && act(s1, op.identity()) == op.identity(),
            "annihilation",
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
    use crate::value::MonoidValue::*;

    /// Check the laws of `op` on every pair of `scalars` and every pair of `values`.
    fn check_all(op: AggOp, scalars: &[SemiringValue], values: &[MonoidValue]) {
        for &s1 in scalars {
            for &s2 in scalars {
                for &m1 in values {
                    for &m2 in values {
                        let checked = check_semimodule_laws(op, s1, s2, m1, m2);
                        assert_eq!(checked, Ok(()), "{op}: {s1}, {s2}, {m1}, {m2}");
                    }
                }
            }
        }
    }

    #[test]
    fn sum_semimodule_over_naturals() {
        let scalars = [0, 1, 2, 5].map(SemiringValue::Nat);
        check_all(AggOp::Sum, &scalars, &[Fin(0), Fin(1), Fin(7), Fin(-3)]);
        // PROD acts on 1 and -1 in closed form, whatever the multiplicity.
        let huge = SemiringValue::Nat(1 << 36);
        let laws = check_semimodule_laws(AggOp::Prod, huge, scalars[1], Fin(1), Fin(-1));
        assert_eq!(laws, Ok(()));
    }

    #[test]
    fn min_max_semimodules_over_booleans() {
        let scalars = [false, true].map(SemiringValue::Bool);
        check_all(AggOp::Min, &scalars, &[Fin(3), Fin(-1), PosInf]);
        check_all(AggOp::Max, &scalars, &[Fin(3), Fin(-1), NegInf]);
    }

    #[test]
    fn sum_over_booleans_would_break_distributivity() {
        // `⊤ ⊗ m = m` over `B` with SUM (or COUNT) is no semimodule: the checker
        // names the law that `⊤ ∨ ⊤ = ⊤`, but `5 + 5 ≠ 5`, breaks.
        let top = SemiringValue::Bool(true);
        for op in [AggOp::Sum, AggOp::Count] {
            assert_eq!(
                check_semimodule_laws(op, top, top, Fin(5), Fin(5)),
                Err("distributivity over the semiring sum"),
                "{op}"
            );
        }
    }

    #[test]
    fn min_max_semimodules_over_naturals() {
        let scalars = [0, 1, 3].map(SemiringValue::Nat);
        check_all(AggOp::Min, &scalars, &[Fin(10), PosInf]);
        check_all(AggOp::Max, &scalars, &[Fin(10), NegInf]);
    }
}
