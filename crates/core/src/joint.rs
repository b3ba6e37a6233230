//! Joint probability distributions of several expressions (§5, "Compiling Joint
//! Probability Distributions").
//!
//! A result tuple of an aggregate query may carry several semimodule expressions
//! (several aggregation columns) plus a conditional annotation; their *joint*
//! distribution is needed e.g. to answer "what is the probability that the SUM is 100
//! and the COUNT is 3", or to derive an AVG distribution from SUM and COUNT. The
//! compilation strategy follows the paper: apply mutually exclusive case splits until
//! the expressions become pairwise independent, at which point the joint distribution
//! is the product of the individual distributions.

use crate::semimodule_distribution;
use pvc_algebra::{MonoidValue, SemiringKind};
use pvc_expr::independence::all_independent;
use pvc_expr::{SemimoduleExpr, Var, VarSet, VarTable};
use pvc_prob::Dist;
use std::collections::BTreeMap;

/// The joint distribution of a vector of semimodule expressions, as a distribution
/// over value vectors (one entry per input expression, in order).
pub fn joint_distribution(
    exprs: &[SemimoduleExpr],
    table: &VarTable,
    kind: SemiringKind,
) -> Dist<Vec<MonoidValue>> {
    let simplified: Vec<SemimoduleExpr> = exprs.iter().map(|e| e.simplify(kind)).collect();
    joint_rec(&simplified, table, kind, 0)
}

fn joint_rec(
    exprs: &[SemimoduleExpr],
    table: &VarTable,
    kind: SemiringKind,
    depth: usize,
) -> Dist<Vec<MonoidValue>> {
    assert!(
        depth <= table.len() + 1,
        "joint compilation exceeded the number of variables — this is a bug"
    );
    let var_sets: Vec<VarSet> = exprs.iter().map(|e| e.vars()).collect();
    if all_independent(&var_sets) {
        // Independent expressions: the joint distribution is the product measure.
        let mut acc: Dist<Vec<MonoidValue>> = Dist::point(Vec::new());
        for e in exprs {
            let dist = semimodule_distribution(e, table, kind);
            acc = acc.convolve(&dist, |prefix, v| {
                let mut next = prefix.clone();
                next.push(*v);
                next
            });
        }
        return acc;
    }
    // Mutually exclusive case split on the most frequently shared variable.
    let var = choose_shared_var(exprs);
    let dist = table.dist(var).clone();
    let mut acc = Dist::empty();
    for (value, p) in dist.iter() {
        let substituted: Vec<SemimoduleExpr> = exprs
            .iter()
            .map(|e| e.substitute(var, *value).simplify(kind))
            .collect();
        let branch = joint_rec(&substituted, table, kind, depth + 1);
        acc = acc.mix(&branch.scale(p));
    }
    acc
}

/// Choose the variable occurring in the largest number of distinct expressions
/// (ties broken by total occurrence count, then id).
fn choose_shared_var(exprs: &[SemimoduleExpr]) -> Var {
    let mut in_exprs: BTreeMap<Var, usize> = BTreeMap::new();
    let mut occurrences: BTreeMap<Var, usize> = BTreeMap::new();
    for e in exprs {
        for v in e.vars().iter() {
            *in_exprs.entry(v).or_insert(0) += 1;
        }
        e.count_occurrences(&mut occurrences);
    }
    *in_exprs
        .iter()
        .max_by_key(|(v, n)| {
            (
                **n,
                occurrences.get(v).copied().unwrap_or(0),
                std::cmp::Reverse(v.0),
            )
        })
        .map(|(v, _)| v)
        .expect("joint compilation requires at least one variable")
}

/// The distribution of the ratio of two jointly-distributed expressions (an AVG-style
/// derived aggregate: `numerator / denominator`), expressed over pairs to avoid
/// introducing non-integer values. Entries with denominator equal to `zero_denom` are
/// reported under `None`.
pub fn ratio_distribution(
    numerator: &SemimoduleExpr,
    denominator: &SemimoduleExpr,
    table: &VarTable,
    kind: SemiringKind,
) -> Dist<Option<(i64, i64)>> {
    let joint = joint_distribution(&[numerator.clone(), denominator.clone()], table, kind);
    joint.map(|pair| {
        let (num, den) = (pair[0], pair[1]);
        match (num.finite(), den.finite()) {
            (Some(n), Some(d)) if d != 0 => Some((n, d)),
            _ => None,
        }
    })
}

#[cfg(test)]
mod tests {
    use super::*;
    use pvc_algebra::{AggOp, MonoidValue::Fin};
    use pvc_expr::oracle::joint_dist_by_enumeration;
    use pvc_expr::SemiringExpr;

    fn v(x: Var) -> SemiringExpr {
        SemiringExpr::Var(x)
    }

    #[test]
    fn independent_expressions_multiply() {
        let mut vt = VarTable::new();
        let a = vt.boolean("a", 0.5);
        let b = vt.boolean("b", 0.25);
        let e1 = SemimoduleExpr::tensor(AggOp::Sum, v(a), Fin(10));
        let e2 = SemimoduleExpr::tensor(AggOp::Sum, v(b), Fin(20));
        let joint = joint_distribution(&[e1.clone(), e2.clone()], &vt, SemiringKind::Bool);
        assert!((joint.prob(&vec![Fin(10), Fin(20)]) - 0.125).abs() < 1e-12);
        let oracle = joint_dist_by_enumeration(&[e1, e2], &vt, SemiringKind::Bool);
        assert!(joint.approx_eq(&oracle, 1e-9));
    }

    #[test]
    fn paper_example_shared_variable() {
        // §5: integer variables a, b, c over {1,2}; joint of ⟨a+b, a·c⟩;
        // P[⟨3,2⟩] = Pa[2]Pb[1]Pc[1] + Pa[1]Pb[2]Pc[2].
        let mut vt = VarTable::new();
        let pa = 0.4;
        let pb = 0.7;
        let pc = 0.2;
        let a = vt.natural("a", &[(1, pa), (2, 1.0 - pa)]);
        let b = vt.natural("b", &[(1, pb), (2, 1.0 - pb)]);
        let c = vt.natural("c", &[(1, pc), (2, 1.0 - pc)]);
        // Encode a+b and a·c as SUM semimodule expressions over the Nat semiring:
        // (a+b) ⊗ 1 and (a·c) ⊗ 1 under SUM give exactly the integer values.
        let e1 = SemimoduleExpr::tensor(AggOp::Sum, v(a) + v(b), Fin(1));
        let e2 = SemimoduleExpr::tensor(AggOp::Sum, v(a) * v(c), Fin(1));
        let joint = joint_distribution(&[e1.clone(), e2.clone()], &vt, SemiringKind::Nat);
        let expected = (1.0 - pa) * pb * pc + pa * (1.0 - pb) * (1.0 - pc);
        assert!((joint.prob(&vec![Fin(3), Fin(2)]) - expected).abs() < 1e-9);
        let oracle = joint_dist_by_enumeration(&[e1, e2], &vt, SemiringKind::Nat);
        assert!(joint.approx_eq(&oracle, 1e-9));
    }

    #[test]
    fn sum_and_count_joint_for_avg() {
        // Three optional readings; AVG = SUM / COUNT.
        let mut vt = VarTable::new();
        let xs: Vec<Var> = (0..3).map(|i| vt.boolean(format!("x{i}"), 0.5)).collect();
        let values = [10, 20, 30];
        let sum = SemimoduleExpr::from_terms(
            AggOp::Sum,
            xs.iter()
                .zip(values)
                .map(|(x, w)| (v(*x), Fin(w)))
                .collect(),
        );
        let count =
            SemimoduleExpr::from_terms(AggOp::Count, xs.iter().map(|x| (v(*x), Fin(1))).collect());
        let joint = joint_distribution(&[sum.clone(), count.clone()], &vt, SemiringKind::Bool);
        let oracle =
            joint_dist_by_enumeration(&[sum.clone(), count.clone()], &vt, SemiringKind::Bool);
        assert!(joint.approx_eq(&oracle, 1e-9));
        // Derived AVG distribution: P[avg = 20] = P[(20,1)] + P[(40,2)] + P[(60,3)].
        let ratio = ratio_distribution(&sum, &count, &vt, SemiringKind::Bool);
        let p_avg20: f64 = ratio
            .iter()
            .filter(|(v, _)| matches!(v, Some((n, d)) if *d != 0 && n / d == 20 && n % d == 0))
            .map(|(_, p)| p)
            .sum();
        // Exact: {x1}, {x0,x2}, {x0,x1,x2} ⇒ 0.125 + 0.125 + 0.125.
        assert!((p_avg20 - 0.375).abs() < 1e-9);
        // Empty group has no average.
        assert!((ratio.prob(&None) - 0.125).abs() < 1e-9);
    }

    #[test]
    fn joint_of_single_expression_matches_marginal() {
        let mut vt = VarTable::new();
        let a = vt.boolean("a", 0.3);
        let b = vt.boolean("b", 0.9);
        let e = SemimoduleExpr::from_terms(AggOp::Min, vec![(v(a), Fin(10)), (v(b), Fin(20))]);
        let joint = joint_distribution(std::slice::from_ref(&e), &vt, SemiringKind::Bool);
        let marginal = semimodule_distribution(&e, &vt, SemiringKind::Bool);
        for (value, p) in marginal.iter() {
            assert!((joint.prob(&vec![*value]) - p).abs() < 1e-9);
        }
    }
}
