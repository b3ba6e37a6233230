//! Pruning rules for conditional expressions (§5, "Pruning Conditional Expressions").
//!
//! Before compiling a conditional `[α θ β]` the engine rewrites it into a simpler but
//! equivalent conditional in which terms that cannot influence the truth value are
//! removed, or the whole conditional is replaced by a constant. Pruning is what makes
//! the MIN/MAX curves of Experiment A flat for small thresholds and what avoids
//! materialising exponential SUM distributions when the bound already decides the
//! comparison.
//!
//! The rules decide over any term list ([`verdict`]). The compiler applies them
//! to a conditional `[α θ c]` with a constant side and again in every branch of
//! the conditional's own Shannon expansion: while `α`'s terms stay one
//! independence component without a common factor that divides out, a `⊔`
//! expands the conditional over them, and each branch's residual list meets the
//! rules anew, so a branch the substituted coefficients decide is a constant
//! leaf. Where `α` splits, has one term or has such a factor, the kept terms
//! are compiled to `α`'s distribution under a `[θ]` node instead. Only
//! *equivalence-preserving* rules are applied; every rule is validated against
//! the brute-force oracle in the tests below.

use pvc_algebra::{AggOp, CmpOp, MonoidValue, SemiringKind};

/// What the rules conclude about `[α θ m]`, whatever `α`'s terms are stored as.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub(crate) enum Verdict {
    /// The conditional is always true.
    AlwaysTrue,
    /// The conditional is always false.
    AlwaysFalse,
    /// No rule applies: `α` stays as it is.
    KeepAll,
    /// Only the terms whose value `v` satisfies `v κ m` for this `κ` can decide
    /// the comparison; the others are dropped.
    Keep(CmpOp),
}

/// Decide `[α θ bound]` for `α = Σ_op terms`, `view` giving each term's value
/// and whether the term is *guaranteed* — its coefficient is a non-zero constant
/// (`1_S` after simplification), so it contributes its value in every possible
/// world and can decide a comparison outright.
///
/// Rules implemented (symmetric MAX variants mirror the MIN ones):
///
/// * **MIN, θ ∈ {≤, <, =}**: terms whose value exceeds the bound can never be the
///   minimum that decides the comparison, so they are dropped
///   (`[Σ_i Φ_i⊗m_i ≤ m] ≡ [Σ_{i: m_i ≤ m} Φ_i⊗m_i ≤ m]`).
/// * **MIN, θ ∈ {≥, >}**: dually, only terms whose value *violates* the bound
///   matter — `min ≥ m` holds iff no term with value < m is present — so terms
///   already satisfying the bound are dropped
///   (`[Σ_i Φ_i⊗m_i ≥ m] ≡ [Σ_{i: m_i < m} Φ_i⊗m_i ≥ m]`); if no violating term
///   remains the conditional is constantly true, and a *guaranteed* violator
///   makes it constantly false.
/// * **MAX, θ ∈ {≥, >, =}**: dually to MIN/≤, terms below the bound are dropped.
/// * **MAX, θ ∈ {≤, <}**: dually to MIN/≥, terms at or below the bound are
///   dropped; no remaining violator ⇒ constantly true.
/// * **SUM/COUNT with non-negative term values**: if even the sum of *all* values
///   satisfies (resp. cannot reach) the bound, the conditional is constantly true
///   (resp. false). Over `B` only: over `N` a coefficient of multiplicity `k`
///   contributes `k·v`, so the values' sum bounds nothing. The guaranteed terms'
///   sum is a lower bound in both semirings (a constant coefficient `k ≥ 1`
///   contributes `k·v ≥ v`).
pub(crate) fn verdict<T>(
    kind: SemiringKind,
    op: AggOp,
    theta: CmpOp,
    bound: MonoidValue,
    terms: &[T],
    view: impl Fn(&T) -> (bool, MonoidValue),
) -> Verdict {
    if terms.is_empty() {
        // The empty sum is the monoid's neutral element; the comparison is ground.
        return if theta.eval(&op.identity(), &bound) {
            Verdict::AlwaysTrue
        } else {
            Verdict::AlwaysFalse
        };
    }
    match op {
        // MIN and MAX mirror each other: MAX under θ is MIN under θ flipped, with
        // the order of the values reversed.
        AggOp::Min => selective(theta, false, bound, terms, view),
        AggOp::Max => selective(theta, true, bound, terms, view),
        AggOp::Sum | AggOp::Count => {
            additive(theta, kind == SemiringKind::Bool, bound, terms, view)
        }
        AggOp::Prod => Verdict::KeepAll,
    }
}

/// The MIN rules; `is_max` reads every comparison mirrored, which gives the MAX
/// rules.
fn selective<T>(
    theta: CmpOp,
    is_max: bool,
    bound: MonoidValue,
    terms: &[T],
    view: impl Fn(&T) -> (bool, MonoidValue),
) -> Verdict {
    let mirrored = |op: CmpOp| if is_max { op.flip() } else { op };
    let any_guaranteed = |keep: CmpOp| {
        terms.iter().any(|t| {
            let (guaranteed, v) = view(t);
            guaranteed && keep.eval(&v, &bound)
        })
    };
    let none_kept = |keep: CmpOp| !terms.iter().any(|t| keep.eval(&view(t).1, &bound));
    // Written for MIN; `mirrored` turns each operator into its MAX counterpart.
    match mirrored(theta) {
        // min ≤ m: only terms with value ≤ m can witness the comparison; the others
        // never lower the minimum below themselves. A guaranteed term that already
        // satisfies the bound decides the comparison; if every term exceeds the
        // bound, so does the minimum (or the group is empty and it is +∞).
        CmpOp::Le | CmpOp::Lt => {
            if any_guaranteed(theta) {
                Verdict::AlwaysTrue
            } else if none_kept(theta) {
                Verdict::AlwaysFalse
            } else {
                Verdict::Keep(theta)
            }
        }
        // min ≥ m (resp. >): holds iff no term whose value violates the bound is
        // present; terms that satisfy it can never decide the comparison and are
        // dropped. A guaranteed violator decides the comparison outright; with no
        // violator at all the minimum is over satisfying values only (or +∞).
        CmpOp::Ge | CmpOp::Gt => {
            let violates = theta.negate();
            if any_guaranteed(violates) {
                Verdict::AlwaysFalse
            } else if none_kept(violates) {
                Verdict::AlwaysTrue
            } else {
                Verdict::Keep(violates)
            }
        }
        // min = m: a guaranteed term strictly below m forces the minimum below m.
        // Terms above m are irrelevant.
        CmpOp::Eq => {
            if any_guaranteed(mirrored(CmpOp::Lt)) {
                Verdict::AlwaysFalse
            } else {
                Verdict::Keep(mirrored(CmpOp::Le))
            }
        }
        CmpOp::Ne => Verdict::KeepAll,
    }
}

/// The SUM / COUNT rules; `bounded` if each term contributes at most its value
/// (its coefficient is `0` or `1`, as over `B`), which is what makes the total
/// an upper bound.
fn additive<T>(
    theta: CmpOp,
    bounded: bool,
    bound: MonoidValue,
    terms: &[T],
    view: impl Fn(&T) -> (bool, MonoidValue),
) -> Verdict {
    // Only applicable when every term value is a non-negative finite number, so that
    // the sum lies between 0 and, if `bounded`, the total. The baseline — the sum
    // of the guaranteed terms' values — is a lower bound on the sum in every
    // possible world.
    let mut total: i64 = 0;
    let mut baseline: i64 = 0;
    for t in terms {
        match view(t) {
            (guaranteed, MonoidValue::Fin(v)) if v >= 0 => {
                total += v;
                if guaranteed {
                    baseline += v;
                }
            }
            _ => return Verdict::KeepAll,
        }
    }
    let bound_v = match bound {
        MonoidValue::Fin(v) => v,
        MonoidValue::PosInf => {
            return match theta {
                CmpOp::Le | CmpOp::Lt | CmpOp::Ne => Verdict::AlwaysTrue,
                CmpOp::Ge | CmpOp::Gt | CmpOp::Eq => Verdict::AlwaysFalse,
            }
        }
        MonoidValue::NegInf => {
            return match theta {
                CmpOp::Ge | CmpOp::Gt | CmpOp::Ne => Verdict::AlwaysTrue,
                CmpOp::Le | CmpOp::Lt | CmpOp::Eq => Verdict::AlwaysFalse,
            }
        }
    };
    match theta {
        CmpOp::Le if bounded && total <= bound_v => Verdict::AlwaysTrue,
        CmpOp::Lt if bounded && total < bound_v => Verdict::AlwaysTrue,
        CmpOp::Ge if bounded && total < bound_v => Verdict::AlwaysFalse,
        CmpOp::Gt if bounded && total <= bound_v => Verdict::AlwaysFalse,
        CmpOp::Eq if bounded && total < bound_v => Verdict::AlwaysFalse,
        CmpOp::Ge if baseline >= bound_v => Verdict::AlwaysTrue,
        CmpOp::Gt if baseline > bound_v => Verdict::AlwaysTrue,
        CmpOp::Le if baseline > bound_v => Verdict::AlwaysFalse,
        CmpOp::Lt if baseline >= bound_v => Verdict::AlwaysFalse,
        CmpOp::Eq if baseline > bound_v => Verdict::AlwaysFalse,
        CmpOp::Ge if bound_v <= 0 => Verdict::AlwaysTrue,
        CmpOp::Gt if bound_v < 0 => Verdict::AlwaysTrue,
        CmpOp::Lt if bound_v <= 0 => Verdict::AlwaysFalse,
        CmpOp::Le if bound_v < 0 => Verdict::AlwaysFalse,
        _ => Verdict::KeepAll,
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::Compiler;
    use pvc_algebra::MonoidValue::Fin;
    use pvc_algebra::{SemiringKind, SemiringValue};
    use pvc_expr::oracle::confidence_by_enumeration;
    use pvc_expr::{SemimoduleExpr, SemiringExpr, SmTerm, VarTable};

    /// The verdict on `[α θ bound]` over `α`'s own terms.
    fn decide(alpha: &SemimoduleExpr, theta: CmpOp, bound: MonoidValue) -> Verdict {
        let view = |t: &SmTerm| {
            let guaranteed = t.coeff.as_const().is_some_and(|c| !c.is_zero());
            (guaranteed, t.value)
        };
        verdict(
            SemiringKind::Bool,
            alpha.op,
            theta,
            bound,
            &alpha.terms,
            view,
        )
    }

    /// `[α θ m]` with the verdict applied, as the expression the compiler goes
    /// on with: a constant, or the conditional over the kept terms. A constant
    /// on the left is flipped to the right first.
    fn pruned(expr: &SemiringExpr, kind: SemiringKind) -> SemiringExpr {
        let SemiringExpr::CmpMM(theta, lhs, rhs) = expr else {
            panic!("not a conditional: {expr}");
        };
        let (alpha, theta, bound) = match (lhs.as_const(), rhs.as_const()) {
            (_, Some(m)) => (&**lhs, *theta, m),
            (Some(m), None) => (&**rhs, theta.flip(), m),
            (None, None) => panic!("no constant side: {expr}"),
        };
        let kept = match decide(alpha, theta, bound) {
            Verdict::AlwaysTrue => return SemiringExpr::Const(kind.one()),
            Verdict::AlwaysFalse => return SemiringExpr::Const(kind.zero()),
            Verdict::KeepAll => alpha.clone(),
            Verdict::Keep(keep) => SemimoduleExpr {
                op: alpha.op,
                terms: (alpha.terms.iter())
                    .filter(|t| keep.eval(&t.value, &bound))
                    .cloned()
                    .collect(),
            },
        };
        let bound = SemimoduleExpr::constant_in(alpha.op, bound, kind);
        SemiringExpr::cmp_mm(theta, kept, bound)
    }

    /// `P[pruned ≠ 0] = P[original ≠ 0]` for every θ and each bound.
    fn assert_pruning_preserves_probability(alpha: &SemimoduleExpr, vt: &VarTable, bounds: &[i64]) {
        let kind = SemiringKind::Bool;
        for theta in [
            CmpOp::Le,
            CmpOp::Lt,
            CmpOp::Eq,
            CmpOp::Ge,
            CmpOp::Gt,
            CmpOp::Ne,
        ] {
            for &bound in bounds {
                let constant = SemimoduleExpr::constant(alpha.op, Fin(bound));
                let original = SemiringExpr::cmp_mm(theta, alpha.clone(), constant);
                let p0 = confidence_by_enumeration(&original, vt, kind);
                let p1 = confidence_by_enumeration(&pruned(&original, kind), vt, kind);
                assert!(
                    (p0 - p1).abs() < 1e-9,
                    "pruning changed probability for θ={theta:?}, bound={bound}: {p0} vs {p1}"
                );
            }
        }
    }

    /// Build the paper's running example `[x⊗10 +min y⊗20 ≤ 15]`.
    fn min_example() -> (VarTable, SemimoduleExpr) {
        let mut vt = VarTable::new();
        let x = vt.boolean("x", 0.35);
        let y = vt.boolean("y", 0.8);
        let alpha = SemimoduleExpr::from_terms(
            AggOp::Min,
            vec![
                (SemiringExpr::Var(x), Fin(10)),
                (SemiringExpr::Var(y), Fin(20)),
            ],
        );
        (vt, alpha)
    }

    #[test]
    fn min_le_drops_large_terms() {
        let (_, alpha) = min_example();
        let kept = pruned(
            &SemiringExpr::cmp_mm(
                CmpOp::Le,
                alpha.clone(),
                SemimoduleExpr::constant(AggOp::Min, Fin(15)),
            ),
            SemiringKind::Bool,
        );
        match kept {
            SemiringExpr::CmpMM(CmpOp::Le, s, _) => {
                assert_eq!(s.num_terms(), 1);
                assert_eq!(s.terms[0].value, Fin(10));
            }
            other => panic!("unexpected {other}"),
        }
    }

    #[test]
    fn pruning_preserves_probability() {
        // The paper's claim: P[Φ = 1_S] is unchanged by pruning (it equals 1 − P_x[0]).
        let (vt, alpha) = min_example();
        assert_pruning_preserves_probability(&alpha, &vt, &[0, 10, 15, 20, 25]);
    }

    #[test]
    fn max_pruning_preserves_probability() {
        let mut vt = VarTable::new();
        let a = vt.boolean("a", 0.3);
        let b = vt.boolean("b", 0.6);
        let c = vt.boolean("c", 0.5);
        let alpha = SemimoduleExpr::from_terms(
            AggOp::Max,
            vec![
                (SemiringExpr::Var(a), Fin(5)),
                (SemiringExpr::Var(b), Fin(50)),
                (SemiringExpr::Var(c), Fin(100)),
            ],
        );
        assert_pruning_preserves_probability(&alpha, &vt, &[0, 5, 49, 50, 100, 150]);
    }

    #[test]
    fn sum_short_circuits() {
        // Σ of all values is 30; comparing against 50 with ≤ is always true.
        let mut vt = VarTable::new();
        let a = vt.boolean("a", 0.5);
        let b = vt.boolean("b", 0.5);
        let alpha = SemimoduleExpr::from_terms(
            AggOp::Sum,
            vec![
                (SemiringExpr::Var(a), Fin(10)),
                (SemiringExpr::Var(b), Fin(20)),
            ],
        );
        assert_eq!(decide(&alpha, CmpOp::Le, Fin(50)), Verdict::AlwaysTrue);
        assert_eq!(decide(&alpha, CmpOp::Ge, Fin(31)), Verdict::AlwaysFalse);
        assert_eq!(decide(&alpha, CmpOp::Gt, Fin(-1)), Verdict::AlwaysTrue);
        assert_eq!(decide(&alpha, CmpOp::Lt, Fin(0)), Verdict::AlwaysFalse);
        // In-range bounds are left alone.
        assert_eq!(decide(&alpha, CmpOp::Le, Fin(15)), Verdict::KeepAll);
    }

    #[test]
    fn sum_pruning_preserves_probability() {
        let mut vt = VarTable::new();
        let a = vt.boolean("a", 0.4);
        let b = vt.boolean("b", 0.7);
        let alpha = SemimoduleExpr::from_terms(
            AggOp::Sum,
            vec![
                (SemiringExpr::Var(a), Fin(10)),
                (SemiringExpr::Var(b), Fin(20)),
            ],
        );
        assert_pruning_preserves_probability(&alpha, &vt, &[-5, 0, 10, 15, 30, 40]);
    }

    #[test]
    fn sum_pruning_is_sound_over_natural_multiplicities() {
        // x ∈ N with P[x = 0] = P[x = 2] = 0.5: the term x⊗v contributes 0 or
        // 2·v, so its value v bounds nothing from above. Each condition holds
        // for one of x's two values.
        let mut vt = VarTable::new();
        let x = vt.natural("x", &[(0, 0.5), (2, 0.5)]);
        let kind = SemiringKind::Nat;
        for (value, theta, bound) in [
            (1, CmpOp::Ge, 2),
            (5, CmpOp::Ge, 10),
            (1, CmpOp::Le, 1),
            (5, CmpOp::Gt, 5),
        ] {
            let alpha = SemimoduleExpr::tensor(AggOp::Sum, SemiringExpr::Var(x), Fin(value));
            let constant = SemimoduleExpr::constant_in(AggOp::Sum, Fin(bound), kind);
            let condition = SemiringExpr::cmp_mm(theta, alpha, constant);
            let expected = confidence_by_enumeration(&condition, &vt, kind);
            assert_eq!(expected, 0.5, "{condition}");
            let got = crate::confidence(&condition, &vt, kind);
            assert!((got - expected).abs() < 1e-12, "{condition}: {got}");
        }
    }

    #[test]
    fn infinite_bounds() {
        let mut vt = VarTable::new();
        let a = vt.boolean("a", 0.5);
        let alpha = SemimoduleExpr::tensor(AggOp::Count, SemiringExpr::Var(a), Fin(1));
        let (le, ge) = (CmpOp::Le, CmpOp::Ge);
        assert_eq!(decide(&alpha, le, MonoidValue::PosInf), Verdict::AlwaysTrue);
        assert_eq!(
            decide(&alpha, ge, MonoidValue::PosInf),
            Verdict::AlwaysFalse
        );
        assert_eq!(decide(&alpha, ge, MonoidValue::NegInf), Verdict::AlwaysTrue);
    }

    #[test]
    fn constant_on_left_is_flipped() {
        let mut vt = VarTable::new();
        let a = vt.boolean("a", 0.5);
        let alpha = SemimoduleExpr::tensor(AggOp::Min, SemiringExpr::Var(a), Fin(10));
        // [5 ≤ α] should be treated as [α ≥ 5].
        let e = SemiringExpr::cmp_mm(
            CmpOp::Le,
            SemimoduleExpr::constant(AggOp::Min, Fin(5)),
            alpha,
        );
        let pruned = pruned(&e, SemiringKind::Bool);
        assert!(matches!(pruned, SemiringExpr::Const(_)), "{pruned}");
        let p0 = confidence_by_enumeration(&e, &vt, SemiringKind::Bool);
        let p1 = confidence_by_enumeration(&pruned, &vt, SemiringKind::Bool);
        assert!((p0 - p1).abs() < 1e-9);
    }

    #[test]
    fn non_conditional_expressions_pass_through() {
        // The compiler prunes conditionals only: a constant compiles to itself,
        // and nothing is counted as pruned.
        let vt = VarTable::new();
        let e = SemiringExpr::Const(SemiringValue::Bool(true));
        let mut compiler = Compiler::new(&vt, SemiringKind::Bool);
        let tree = compiler.compile_semiring(&e).unwrap();
        assert_eq!(tree.to_string(), "⊤");
        assert_eq!(compiler.stats().pruned_conditionals, 0);
    }
}
