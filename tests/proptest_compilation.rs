//! Property-based end-to-end test: for randomly generated semiring and semimodule
//! expressions (including conditionals, mixed monoids and Shannon-requiring variable
//! sharing), the distribution computed via decomposition trees equals the brute-force
//! possible-world semantics, with and without the structural decomposition rules.
//!
//! Cases are drawn from a deterministic, seeded stream (no external property-testing
//! framework), so every run exercises the same expressions.

use pvc_suite::expr::oracle;
use pvc_suite::prelude::*;
use pvc_suite::prob::SeededRng;

const NUM_VARS: usize = 6;
const CASES: u64 = 64;

fn make_vars(rng: &mut SeededRng) -> VarTable {
    let mut vars = VarTable::new();
    for i in 0..NUM_VARS {
        let p = 0.05 + 0.9 * rng.next_f64();
        vars.boolean(format!("x{i}"), p);
    }
    vars
}

/// A random semiring expression over `NUM_VARS` Boolean variables.
fn semiring_expr(rng: &mut SeededRng, depth: u32) -> SemiringExpr {
    // At depth 0 produce a leaf; otherwise half the time branch into a sum/product.
    if depth == 0 || rng.gen_range(0usize..2) == 0 {
        return match rng.gen_range(0usize..4) {
            0 => SemiringExpr::Const(SemiringValue::Bool(true)),
            1 => SemiringExpr::Const(SemiringValue::Bool(false)),
            _ => SemiringExpr::Var(Var(rng.gen_range(0u32..NUM_VARS as u32))),
        };
    }
    let arity = rng.gen_range(2usize..4);
    let children: Vec<SemiringExpr> = (0..arity).map(|_| semiring_expr(rng, depth - 1)).collect();
    if rng.gen_range(0usize..2) == 0 {
        SemiringExpr::sum(children)
    } else {
        SemiringExpr::product(children)
    }
}

/// A random semimodule expression (flat term list).
fn semimodule_expr(rng: &mut SeededRng) -> SemimoduleExpr {
    let op = [AggOp::Min, AggOp::Max, AggOp::Sum, AggOp::Count][rng.gen_range(0usize..4)];
    let terms = rng.gen_range(1usize..5);
    SemimoduleExpr::from_terms(
        op,
        (0..terms)
            .map(|_| {
                let coeff = semiring_expr(rng, 2);
                let value = if op == AggOp::Count {
                    1
                } else {
                    rng.gen_range(-20i64..20)
                };
                (coeff, MonoidValue::Fin(value))
            })
            .collect(),
    )
}

#[test]
fn semiring_dtree_matches_enumeration() {
    let mut rng = SeededRng::seed_from_u64(0xC1);
    for case in 0..CASES {
        let vars = make_vars(&mut rng);
        let expr = semiring_expr(&mut rng, 3);
        let by_dtree = semiring_distribution(&expr, &vars, SemiringKind::Bool);
        let by_enum = oracle::semiring_dist_by_enumeration(&expr, &vars, SemiringKind::Bool);
        assert!(by_dtree.approx_eq(&by_enum, 1e-7), "case {case}: {expr}");
    }
}

#[test]
fn semimodule_dtree_matches_enumeration() {
    let mut rng = SeededRng::seed_from_u64(0xC2);
    for case in 0..CASES {
        let vars = make_vars(&mut rng);
        let expr = semimodule_expr(&mut rng);
        let by_dtree = semimodule_distribution(&expr, &vars, SemiringKind::Bool);
        let by_enum = oracle::semimodule_dist_by_enumeration(&expr, &vars, SemiringKind::Bool);
        assert!(by_dtree.approx_eq(&by_enum, 1e-7), "case {case}: {expr}");
    }
}

#[test]
fn conditional_expressions_match_enumeration() {
    let mut rng = SeededRng::seed_from_u64(0xC3);
    let thetas = [
        CmpOp::Eq,
        CmpOp::Ne,
        CmpOp::Le,
        CmpOp::Ge,
        CmpOp::Lt,
        CmpOp::Gt,
    ];
    for case in 0..CASES {
        let vars = make_vars(&mut rng);
        let lhs = semimodule_expr(&mut rng);
        let bound = rng.gen_range(-20i64..20);
        let theta = thetas[rng.gen_range(0usize..thetas.len())];
        let cond = SemiringExpr::cmp_mm(
            theta,
            lhs,
            SemimoduleExpr::constant(AggOp::Min, MonoidValue::Fin(bound)),
        );
        let p = confidence(&cond, &vars, SemiringKind::Bool);
        let expected = oracle::confidence_by_enumeration(&cond, &vars, SemiringKind::Bool);
        assert!((p - expected).abs() < 1e-7, "case {case}: {cond}");
    }
}

#[test]
fn shannon_only_ablation_agrees_with_full_rules() {
    let mut rng = SeededRng::seed_from_u64(0xC4);
    for case in 0..CASES {
        let vars = make_vars(&mut rng);
        let expr = semiring_expr(&mut rng, 3);
        let full = semiring_distribution(&expr, &vars, SemiringKind::Bool);
        let mut shannon =
            Compiler::with_options(&vars, SemiringKind::Bool, CompileOptions::shannon_only());
        let tree = shannon.compile_semiring(&expr).unwrap();
        let dist = tree
            .semiring_distribution(&vars, SemiringKind::Bool)
            .unwrap();
        assert!(full.approx_eq(&dist, 1e-7), "case {case}: {expr}");
    }
}

#[test]
fn dtree_distributions_are_proper() {
    let mut rng = SeededRng::seed_from_u64(0xC5);
    for case in 0..CASES {
        let vars = make_vars(&mut rng);
        let expr = semimodule_expr(&mut rng);
        let dist = semimodule_distribution(&expr, &vars, SemiringKind::Bool);
        assert!(dist.is_normalized(), "case {case}: {expr}");
        assert!(dist.iter().all(|(_, p)| p > 0.0 && p <= 1.0 + 1e-9));
    }
}
