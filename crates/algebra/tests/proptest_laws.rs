//! Property-based tests of the algebraic laws (Definitions 2–4 of the paper) on
//! randomly generated elements of the types the engine evaluates.
//!
//! The properties are checked over a deterministic, seeded stream of random cases
//! (no external property-testing framework): every run exercises the same cases,
//! and a failing case is reported with the index that produced it. Each sweep runs
//! from a fixed seed, plus `PVC_ORACLE_SEED` when that is set.

use pvc_algebra::{
    check_semimodule_laws, check_semiring_laws, AggOp, MonoidValue, SemiringValue, ALL_AGG_OPS,
};
use pvc_prob::SeededRng;

const CASES: u64 = 128;

/// The fixed seed of a sweep, plus `PVC_ORACLE_SEED` when it is set.
fn seeds(fixed: u64) -> Vec<u64> {
    let mut seeds = vec![fixed];
    if let Ok(extra) = std::env::var("PVC_ORACLE_SEED") {
        seeds.push(extra.parse().expect("PVC_ORACLE_SEED must be a u64"));
    }
    seeds
}

#[test]
fn boolean_semiring_laws() {
    let elements = [false, true].map(SemiringValue::Bool);
    for a in elements {
        for b in elements {
            for c in elements {
                let checked = check_semiring_laws(a, b, c);
                assert_eq!(checked, Ok(()), "({a}, {b}, {c})");
            }
        }
    }
}

#[test]
fn natural_semiring_laws() {
    for seed in seeds(0xA1) {
        let mut rng = SeededRng::seed_from_u64(seed);
        for case in 0..CASES {
            let mut nat = || SemiringValue::Nat(rng.gen_range(0i64..50) as u64);
            let (a, b, c) = (nat(), nat(), nat());
            let checked = check_semiring_laws(a, b, c);
            assert_eq!(checked, Ok(()), "seed {seed} case {case}: ({a}, {b}, {c})");
        }
    }
}

#[test]
fn semimodule_laws_sum_nat() {
    for seed in seeds(0xA6) {
        let mut rng = SeededRng::seed_from_u64(seed);
        for case in 0..CASES {
            let mut nat = || SemiringValue::Nat(rng.gen_range(0i64..20) as u64);
            let (s1, s2) = (nat(), nat());
            let m1 = MonoidValue::Fin(rng.gen_range(-100i64..100));
            let m2 = MonoidValue::Fin(rng.gen_range(-100i64..100));
            let checked = check_semimodule_laws(AggOp::Sum, s1, s2, m1, m2);
            assert_eq!(
                checked,
                Ok(()),
                "seed {seed} case {case}: {s1}, {s2}, {m1}, {m2}"
            );
        }
    }
}

#[test]
fn semimodule_laws_min_max_bool() {
    for seed in seeds(0xA7) {
        let mut rng = SeededRng::seed_from_u64(seed);
        for case in 0..CASES {
            let mut bit = || SemiringValue::Bool(rng.next_u64() & 1 == 1);
            let (s1, s2) = (bit(), bit());
            let m1 = MonoidValue::Fin(rng.gen_range(-20i64..20));
            let m2 = MonoidValue::Fin(rng.gen_range(-20i64..20));
            for op in [AggOp::Min, AggOp::Max] {
                let checked = check_semimodule_laws(op, s1, s2, m1, m2);
                assert_eq!(
                    checked,
                    Ok(()),
                    "seed {seed} case {case}: {op} {s1}, {s2}, {m1}, {m2}"
                );
            }
        }
    }
}

#[test]
fn agg_op_monoid_laws() {
    for seed in seeds(0xA8) {
        let mut rng = SeededRng::seed_from_u64(seed);
        for _ in 0..CASES {
            let op = ALL_AGG_OPS[rng.gen_range(0usize..ALL_AGG_OPS.len())];
            let a = MonoidValue::Fin(rng.gen_range(-20i64..20));
            let b = MonoidValue::Fin(rng.gen_range(-20i64..20));
            let c = MonoidValue::Fin(rng.gen_range(-20i64..20));
            // Commutativity, associativity, identity.
            assert_eq!(op.combine(&a, &b), op.combine(&b, &a));
            assert_eq!(
                op.combine(&op.combine(&a, &b), &c),
                op.combine(&a, &op.combine(&b, &c))
            );
            assert_eq!(op.combine(&a, &op.identity()), a);
        }
    }
}

/// A random scalar and semimodule: any operator over `N`, or MIN / MAX over `B`
/// (the paper's `B`-semimodules; SUM / COUNT over `B` is not one, see
/// `sum_over_booleans_would_break_distributivity`).
fn scalars_and_op(rng: &mut SeededRng, max_nat: i64) -> (AggOp, SemiringValue, SemiringValue) {
    if rng.next_u64() & 1 == 0 {
        let op = ALL_AGG_OPS[rng.gen_range(0usize..ALL_AGG_OPS.len())];
        let mut nat = || SemiringValue::Nat(rng.gen_range(0i64..max_nat) as u64);
        (op, nat(), nat())
    } else {
        let op = [AggOp::Min, AggOp::Max][rng.gen_range(0usize..2)];
        let mut bit = || SemiringValue::Bool(rng.next_u64() & 1 == 1);
        (op, bit(), bit())
    }
}

#[test]
fn scalar_action_distributes_over_semiring_sum() {
    // (s1 +S s2) ⊗ m = s1 ⊗ m +M s2 ⊗ m.
    for seed in seeds(0xA9) {
        let mut rng = SeededRng::seed_from_u64(seed);
        for _ in 0..CASES {
            let (op, s1, s2) = scalars_and_op(&mut rng, 5);
            let m = MonoidValue::Fin(rng.gen_range(-10i64..10));
            let lhs = op.scalar_action(&s1.add(&s2), &m);
            let rhs = op.combine(&op.scalar_action(&s1, &m), &op.scalar_action(&s2, &m));
            assert_eq!(lhs, rhs, "{op}: ({s1} + {s2}) ⊗ {m}");
        }
    }
}

#[test]
fn scalar_action_compatible_with_semiring_product() {
    // (s1 ·S s2) ⊗ m = s1 ⊗ (s2 ⊗ m).
    for seed in seeds(0xAA) {
        let mut rng = SeededRng::seed_from_u64(seed);
        for _ in 0..CASES {
            let (op, s1, s2) = scalars_and_op(&mut rng, 4);
            let m = MonoidValue::Fin(rng.gen_range(-6i64..6));
            let lhs = op.scalar_action(&s1.mul(&s2), &m);
            let rhs = op.scalar_action(&s1, &op.scalar_action(&s2, &m));
            assert_eq!(lhs, rhs, "{op}: ({s1} · {s2}) ⊗ {m}");
        }
    }
}

#[test]
fn scalar_action_distributes_over_monoid_sum_annihilates_and_has_a_unit() {
    // s ⊗ (m1 +M m2) = s ⊗ m1 +M s ⊗ m2, s ⊗ 0_M = 0_S ⊗ m = 0_M and 1_S ⊗ m = m.
    for seed in seeds(0xAC) {
        let mut rng = SeededRng::seed_from_u64(seed);
        for _ in 0..CASES {
            let (op, s, _) = scalars_and_op(&mut rng, 4);
            let m1 = MonoidValue::Fin(rng.gen_range(-6i64..6));
            let m2 = MonoidValue::Fin(rng.gen_range(-6i64..6));
            let lhs = op.scalar_action(&s, &op.combine(&m1, &m2));
            let rhs = op.combine(&op.scalar_action(&s, &m1), &op.scalar_action(&s, &m2));
            assert_eq!(lhs, rhs, "{op}: {s} ⊗ ({m1} + {m2})");
            assert_eq!(
                op.scalar_action(&s, &op.identity()),
                op.identity(),
                "{op}: {s}"
            );
            assert_eq!(
                op.scalar_action(&s.kind().zero(), &m1),
                op.identity(),
                "{op}: {m1}"
            );
            assert_eq!(op.scalar_action(&s.kind().one(), &m1), m1, "{op}: {m1}");
        }
    }
}

#[test]
fn sum_over_booleans_would_break_distributivity() {
    // The paper notes that `B` with SUM "would not have the intuitive semantics":
    // the action ⊤ ⊗ m = m violates (s1 + s2) ⊗ m = s1 ⊗ m + s2 ⊗ m, because
    // ⊤ ∨ ⊤ = ⊤ while m + m ≠ m in SUM (and COUNT).
    let top = SemiringValue::Bool(true);
    let m = MonoidValue::Fin(5);
    for op in [AggOp::Sum, AggOp::Count] {
        let lhs = op.scalar_action(&top.add(&top), &m);
        let rhs = op.combine(&op.scalar_action(&top, &m), &op.scalar_action(&top, &m));
        assert_eq!(
            (lhs, rhs),
            (MonoidValue::Fin(5), MonoidValue::Fin(10)),
            "{op}"
        );
    }
}
