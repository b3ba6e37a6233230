//! Brute-force possible-world oracle for aggregate distributions.
//!
//! The engine computes aggregate distributions through knowledge compilation,
//! decomposition trees, and the adaptive convolution kernel — a long chain of
//! clever code. This module computes the *same* distributions the dumbest
//! possible way: enumerate **all `2^n` worlds** of `n` independent Boolean
//! tuples, fold the aggregate in each world, and sum world probabilities per
//! outcome. Exponential, unarguably correct, and therefore the ground truth
//! the differential tests (`tests/oracle_differential.rs`) pin every
//! strategy × representation × thread-count combination against.
//!
//! The aggregate is a **total** distribution: worlds where no tuple is present
//! contribute their mass to the monoid identity (`SUM = 0`, `MIN = +∞`, …), so
//! the total mass is exactly 1 (up to the kernel's drop rule).
//!
//! Masks are walked in ascending order and per-outcome masses accumulate in a
//! `BTreeMap`, so the summation order is deterministic — runs are repeatable
//! bit-for-bit, which the differential tests rely on when comparing thread
//! counts.

use std::collections::BTreeMap;

use crate::dist::Dist;
use crate::values::MonoidDist;
use pvc_algebra::{AggOp, MonoidValue};

/// Hard cap on the number of tuples the oracle will enumerate (`2^20` worlds ≈
/// one million folds — comfortably testable; beyond it you almost certainly
/// meant to use the engine).
pub const MAX_ORACLE_VARS: usize = 20;

/// One independent tuple as the oracle sees it: present with probability
/// `prob`, contributing `value` to the aggregate when present.
pub type OracleTuple = (f64, MonoidValue);

/// The aggregate's total distribution by brute-force world enumeration: every
/// world contributes, with the empty world(s) mapped to `op.identity()`.
///
/// # Panics
///
/// Panics if more than [`MAX_ORACLE_VARS`] tuples are given.
pub fn aggregate_by_enumeration(op: AggOp, tuples: &[OracleTuple]) -> MonoidDist {
    assert!(
        tuples.len() <= MAX_ORACLE_VARS,
        "oracle asked to enumerate 2^{} worlds (cap: 2^{MAX_ORACLE_VARS})",
        tuples.len()
    );
    let mut outcomes: BTreeMap<MonoidValue, f64> = BTreeMap::new();
    for mask in 0u64..(1u64 << tuples.len()) {
        let mut weight = 1.0f64;
        let mut acc = op.identity();
        for (i, (prob, value)) in tuples.iter().enumerate() {
            if mask & (1 << i) != 0 {
                weight *= prob;
                acc = op.combine(&acc, value);
            } else {
                weight *= 1.0 - prob;
            }
        }
        *outcomes.entry(acc).or_insert(0.0) += weight;
    }
    Dist::from_pairs(outcomes)
}

/// `P[agg < c]`, `P[agg ≤ c]`, `P[agg > c]`, `P[agg ≥ c]` read off an oracle
/// distribution — the comparison probabilities the engine's threshold folds
/// compute, for pinning `HAVING`-style predicates.
pub fn comparison_probabilities(dist: &MonoidDist, c: MonoidValue) -> ComparisonProbs {
    let mut lt = 0.0;
    let mut eq = 0.0;
    let mut gt = 0.0;
    for (v, p) in dist.iter() {
        match v.cmp(&c) {
            std::cmp::Ordering::Less => lt += p,
            std::cmp::Ordering::Equal => eq += p,
            std::cmp::Ordering::Greater => gt += p,
        }
    }
    ComparisonProbs { lt, eq, gt }
}

/// The three-way mass split of a distribution against a constant.
#[derive(Debug, Clone, Copy, PartialEq)]
pub struct ComparisonProbs {
    /// Mass strictly below the constant.
    pub lt: f64,
    /// Mass exactly at the constant.
    pub eq: f64,
    /// Mass strictly above the constant.
    pub gt: f64,
}

impl ComparisonProbs {
    /// Mass at or below the constant.
    pub fn le(&self) -> f64 {
        self.lt + self.eq
    }

    /// Mass at or above the constant.
    pub fn ge(&self) -> f64 {
        self.gt + self.eq
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use pvc_algebra::MonoidValue::Fin;

    #[test]
    fn two_coin_sum() {
        // X ~ present(0.5)·3, Y ~ present(0.5)·4: SUM ∈ {0, 3, 4, 7} uniform.
        let d = aggregate_by_enumeration(AggOp::Sum, &[(0.5, Fin(3)), (0.5, Fin(4))]);
        for v in [0, 3, 4, 7] {
            assert!((d.prob(&Fin(v)) - 0.25).abs() < 1e-12);
        }
    }

    #[test]
    fn min_uses_the_infinite_identity() {
        let d = aggregate_by_enumeration(AggOp::Min, &[(0.3, Fin(5))]);
        assert!((d.prob(&MonoidValue::PosInf) - 0.7).abs() < 1e-12);
        assert!((d.prob(&Fin(5)) - 0.3).abs() < 1e-12);
    }

    #[test]
    fn comparison_probabilities_partition_the_mass() {
        let d =
            aggregate_by_enumeration(AggOp::Sum, &[(0.5, Fin(1)), (0.4, Fin(2)), (0.3, Fin(4))]);
        let probs = comparison_probabilities(&d, Fin(3));
        assert!((probs.lt + probs.eq + probs.gt - 1.0).abs() < 1e-12);
        assert!((probs.le() + probs.gt - 1.0).abs() < 1e-12);
        // P[SUM = 3] is the {1,2}-present world: 0.5·0.4·0.7.
        assert!((probs.eq - 0.14).abs() < 1e-12);
    }

    #[test]
    #[should_panic(expected = "oracle asked to enumerate")]
    fn refuses_oversized_enumerations() {
        let tuples = vec![(0.5, Fin(1)); MAX_ORACLE_VARS + 1];
        let _ = aggregate_by_enumeration(AggOp::Sum, &tuples);
    }
}
