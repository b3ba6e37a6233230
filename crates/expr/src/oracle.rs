//! Brute-force probability computation by possible-world enumeration.
//!
//! This is the one ground-truth oracle of the workspace (exponential in the
//! number of variables): the reference implementation of the semantics of
//! Eq. (3) of the paper, `P_Φ[s] = Σ_{ν : ν(Φ)=s} Pr(ν)`. Every test that
//! checks a probability against possible-world semantics — of an expression,
//! an aggregate, a joint distribution or a whole query's group
//! (`tests/oracle_differential.rs` enumerates `Σ xᵢ ⊗ vᵢ` over a database's
//! own variables) — enumerates through [`enumerate_worlds`].
//!
//! Worlds are built variable by variable in ascending id order and each
//! outcome's mass is summed in world order, so results repeat bit for bit.

use crate::semimodule_expr::SemimoduleExpr;
use crate::semiring_expr::SemiringExpr;
use crate::vars::{Var, VarSet, VarTable};
use pvc_algebra::{MonoidValue, SemiringKind, SemiringValue};
use pvc_prob::{Dist, MonoidDist, SemiringDist};
use std::collections::BTreeMap;

/// The most worlds the oracle enumerates: `2^20`, twenty Boolean variables
/// (about a million folds, comfortably testable; beyond it the engine is the
/// tool to use).
pub const MAX_ORACLE_WORLDS: u128 = 1 << 20;

/// Enumerate every valuation of the given variables (restricted to their support) with
/// its probability mass `Pr(ν) = Π_x P_x[ν(x)]`. Exponential; intended for small
/// variable sets in tests. No variables give one world of mass 1.
///
/// # Panics
///
/// Panics if the valuations number more than [`MAX_ORACLE_WORLDS`].
pub fn enumerate_worlds(
    vars: &VarSet,
    table: &VarTable,
) -> Vec<(BTreeMap<Var, SemiringValue>, f64)> {
    let count = vars.iter().fold(1u128, |n, v| {
        n.saturating_mul(table.dist(v).support_size() as u128)
    });
    assert!(
        count <= MAX_ORACLE_WORLDS,
        "oracle asked to enumerate {count} worlds (cap: 2^20)"
    );
    let mut worlds: Vec<(BTreeMap<Var, SemiringValue>, f64)> = vec![(BTreeMap::new(), 1.0)];
    for v in vars.iter() {
        let dist = table.dist(v);
        let mut next = Vec::with_capacity(worlds.len() * dist.support_size());
        for (valuation, p) in &worlds {
            for (value, pv) in dist.iter() {
                let mut valuation = valuation.clone();
                valuation.insert(v, *value);
                next.push((valuation, p * pv));
            }
        }
        worlds = next;
    }
    worlds
}

/// The distribution of the outcomes of weighted worlds: each outcome's worlds
/// are summed first, so a world too unlikely to be kept on its own (at or
/// below [`pvc_prob::PROB_EPS`], which [`Dist::from_pairs`] drops pair by
/// pair) still counts toward its outcome. Twelve variables near 0.05 / 0.95
/// put most worlds below it.
fn by_outcome<T: Ord + Clone>(worlds: impl Iterator<Item = (T, f64)>) -> Dist<T> {
    let mut mass = BTreeMap::new();
    for (outcome, p) in worlds {
        *mass.entry(outcome).or_insert(0.0) += p;
    }
    Dist::from_pairs(mass)
}

/// The exact probability distribution of a semiring expression, by enumeration.
pub fn semiring_dist_by_enumeration(
    expr: &SemiringExpr,
    table: &VarTable,
    kind: SemiringKind,
) -> SemiringDist {
    let vars = expr.vars();
    by_outcome(enumerate_worlds(&vars, table).into_iter().map(|(val, p)| {
        let lookup = |v: Var| val.get(&v).copied().unwrap_or_else(|| kind.zero());
        (expr.eval(&lookup, kind), p)
    }))
}

/// The exact probability distribution of a semimodule expression, by enumeration.
pub fn semimodule_dist_by_enumeration(
    expr: &SemimoduleExpr,
    table: &VarTable,
    kind: SemiringKind,
) -> MonoidDist {
    let vars = expr.vars();
    by_outcome(enumerate_worlds(&vars, table).into_iter().map(|(val, p)| {
        let lookup = |v: Var| val.get(&v).copied().unwrap_or_else(|| kind.zero());
        (expr.eval(&lookup, kind), p)
    }))
}

/// The probability that a semiring expression does **not** evaluate to `0_S` — the
/// tuple confidence of a pvc-table tuple annotated with this expression.
pub fn confidence_by_enumeration(expr: &SemiringExpr, table: &VarTable, kind: SemiringKind) -> f64 {
    semiring_dist_by_enumeration(expr, table, kind)
        .iter()
        .filter(|(v, _)| !v.is_zero())
        .fold(0.0, |sum, (_, p)| sum + p)
}

/// The exact joint distribution of a pair of expressions (used to validate the joint
/// compilation of §5 "Compiling Joint Probability Distributions").
pub fn joint_dist_by_enumeration(
    exprs: &[SemimoduleExpr],
    table: &VarTable,
    kind: SemiringKind,
) -> Dist<Vec<MonoidValue>> {
    let vars: VarSet = exprs
        .iter()
        .map(|e| e.vars())
        .fold(VarSet::new(), |acc, s| acc.union(&s));
    by_outcome(enumerate_worlds(&vars, table).into_iter().map(|(val, p)| {
        let lookup = |v: Var| val.get(&v).copied().unwrap_or_else(|| kind.zero());
        let tuple: Vec<MonoidValue> = exprs.iter().map(|e| e.eval(&lookup, kind)).collect();
        (tuple, p)
    }))
}

#[cfg(test)]
mod tests {
    use super::*;
    use pvc_algebra::{AggOp, CmpOp, MonoidValue::Fin};

    /// Seeds of the randomised sweeps: one fixed, plus `PVC_ORACLE_SEED` when
    /// set (the CI `oracle-smoke` job runs two).
    fn seeds(fixed: u64) -> Vec<u64> {
        let mut seeds = vec![fixed];
        if let Ok(extra) = std::env::var("PVC_ORACLE_SEED") {
            seeds.push(extra.parse().expect("PVC_ORACLE_SEED must be a u64"));
        }
        seeds
    }

    #[test]
    fn enumeration_size_is_product_of_supports() {
        let mut vt = VarTable::new();
        let x = vt.boolean("x", 0.5);
        let y = vt.natural("y", &[(0, 0.2), (1, 0.3), (2, 0.5)]);
        let vars: VarSet = [x, y].into_iter().collect();
        let worlds = enumerate_worlds(&vars, &vt);
        assert_eq!(worlds.len(), 6);
        let total: f64 = worlds.iter().map(|(_, p)| p).sum();
        assert!((total - 1.0).abs() < 1e-12);
        // Example 4: a world's mass is the product of its marginals.
        let (_, p) = worlds
            .iter()
            .find(|(val, _)| {
                val[&x] == SemiringValue::Bool(true) && val[&y] == SemiringValue::Nat(1)
            })
            .unwrap();
        assert!((p - 0.5 * 0.3).abs() < 1e-12);
        // No variables: the one empty valuation, of mass 1.
        let worlds = enumerate_worlds(&VarSet::new(), &vt);
        assert_eq!(worlds.len(), 1);
        assert!(worlds[0].0.is_empty());
        assert_eq!(worlds[0].1, 1.0);
    }

    #[test]
    #[should_panic(expected = "oracle asked to enumerate")]
    fn refuses_oversized_enumerations() {
        let mut vt = VarTable::new();
        let vars: VarSet = (0..21).map(|i| vt.boolean(format!("x{i}"), 0.5)).collect();
        let _ = enumerate_worlds(&vars, &vt);
    }

    /// `x + y` over two independent `N`-valued variables: enumeration and one
    /// convolution of the marginals agree.
    #[test]
    fn enumeration_matches_convolution_for_sums() {
        for seed in seeds(0xB6) {
            let mut rng = pvc_prob::SeededRng::seed_from_u64(seed);
            for _ in 0..128 {
                let mut draw = |values: &[u64]| {
                    let weights: Vec<f64> =
                        values.iter().map(|_| 0.1 + 0.9 * rng.next_f64()).collect();
                    let total: f64 = weights.iter().sum();
                    values
                        .iter()
                        .zip(&weights)
                        .map(|(v, w)| (*v, w / total))
                        .collect::<Vec<_>>()
                };
                let (px, py) = (draw(&[0, 1]), draw(&[10, 11, 12]));
                let mut vt = VarTable::new();
                let x = vt.natural("x", &px);
                let y = vt.natural("y", &py);
                let sum = SemiringExpr::Var(x) + SemiringExpr::Var(y);
                let by_enumeration = semiring_dist_by_enumeration(&sum, &vt, SemiringKind::Nat);
                let by_convolution = vt.dist(x).convolve(vt.dist(y), |a, b| a.add(b));
                assert!(
                    by_enumeration.approx_eq(&by_convolution, 1e-9),
                    "seed {seed}: {px:?} + {py:?}"
                );
            }
        }
    }

    #[test]
    fn disjunction_probability() {
        // P[x + y ≠ ⊥] = 1 − (1−px)(1−py), Example 2.
        let mut vt = VarTable::new();
        let x = vt.boolean("x", 0.3);
        let y = vt.boolean("y", 0.6);
        let expr = SemiringExpr::Var(x) + SemiringExpr::Var(y);
        let conf = confidence_by_enumeration(&expr, &vt, SemiringKind::Bool);
        assert!((conf - (1.0 - 0.7 * 0.4)).abs() < 1e-12);
        let dist = semiring_dist_by_enumeration(&expr, &vt, SemiringKind::Bool);
        let direct = vt.dist(x).convolve(vt.dist(y), |a, b| a.add(b));
        assert!(dist.approx_eq(&direct, 1e-12));
    }

    #[test]
    fn aggregate_distribution_of_min() {
        // MIN over two optional values 10 and 20.
        let mut vt = VarTable::new();
        let a = vt.boolean("a", 0.5);
        let b = vt.boolean("b", 0.5);
        let alpha = SemimoduleExpr::from_terms(
            AggOp::Min,
            vec![
                (SemiringExpr::Var(a), Fin(10)),
                (SemiringExpr::Var(b), Fin(20)),
            ],
        );
        let dist = semimodule_dist_by_enumeration(&alpha, &vt, SemiringKind::Bool);
        assert!((dist.prob(&Fin(10)) - 0.5).abs() < 1e-12);
        assert!((dist.prob(&Fin(20)) - 0.25).abs() < 1e-12);
        assert!((dist.prob(&MonoidValue::PosInf) - 0.25).abs() < 1e-12);
    }

    #[test]
    fn conditional_expression_distribution() {
        // SUM of two coins: {0, 10, 20, 30}, each world its own outcome.
        let mut vt = VarTable::new();
        let a = vt.boolean("a", 0.5);
        let b = vt.boolean("b", 0.4);
        let alpha = SemimoduleExpr::from_terms(
            AggOp::Sum,
            vec![
                (SemiringExpr::Var(a), Fin(10)),
                (SemiringExpr::Var(b), Fin(20)),
            ],
        );
        let dist = semimodule_dist_by_enumeration(&alpha, &vt, SemiringKind::Bool);
        for (v, p) in [(0, 0.3), (10, 0.3), (20, 0.2), (30, 0.2)] {
            assert!((dist.prob(&Fin(v)) - p).abs() < 1e-12, "P[{v}]");
        }
        // [a⊗10 +sum b⊗20 ≤ 15] holds iff b is absent (sum ∈ {0, 10} ≤ 15).
        let cond = SemiringExpr::cmp_mm(
            CmpOp::Le,
            alpha,
            SemimoduleExpr::constant(AggOp::Sum, Fin(15)),
        );
        let p = confidence_by_enumeration(&cond, &vt, SemiringKind::Bool);
        assert!((p - 0.6).abs() < 1e-12);
    }

    #[test]
    fn worlds_below_the_pruning_threshold_count_toward_their_outcome() {
        // Twelve variables at 0.05: the worlds where seven or more are present
        // weigh under 1e-9 each and ≈ 5e-7 together, yet every world counts —
        // P[Σ xᵢ ≠ ⊥] = 1 − 0.95¹², up to the rounding of 4 096 additions.
        let mut vt = VarTable::new();
        let sum = SemiringExpr::sum(
            (0..12)
                .map(|i| SemiringExpr::Var(vt.boolean(format!("x{i}"), 0.05)))
                .collect(),
        );
        let p = confidence_by_enumeration(&sum, &vt, SemiringKind::Bool);
        assert!((p - (1.0 - 0.95f64.powi(12))).abs() < 1e-12, "{p}");
        let dist = semiring_dist_by_enumeration(&sum, &vt, SemiringKind::Bool);
        assert!((dist.total_mass() - 1.0).abs() < 1e-12);
    }

    #[test]
    fn joint_distribution() {
        let mut vt = VarTable::new();
        let a = vt.boolean("a", 0.5);
        let sum = SemimoduleExpr::tensor(AggOp::Sum, SemiringExpr::Var(a), Fin(3));
        let count = SemimoduleExpr::tensor(AggOp::Count, SemiringExpr::Var(a), Fin(1));
        let joint = joint_dist_by_enumeration(&[sum, count], &vt, SemiringKind::Bool);
        assert!((joint.prob(&vec![Fin(3), Fin(1)]) - 0.5).abs() < 1e-12);
        assert!((joint.prob(&vec![Fin(0), Fin(0)]) - 0.5).abs() < 1e-12);
        assert_eq!(joint.support_size(), 2);
    }
}
