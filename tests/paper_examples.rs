//! Reproductions of the paper's worked examples that concern expressions and
//! decomposition trees (Examples 10–13, Figures 5 and 6), plus the set/bag semantics
//! of Table 1.

use pvc_suite::expr::oracle;
use pvc_suite::prelude::*;

fn v(x: Var) -> SemiringExpr {
    SemiringExpr::Var(x)
}

#[test]
fn example_12_figure5_distributions() {
    // α = a(b + c) ⊗ 10 + c ⊗ 20 over N ⊗ N, with a, b, c taking values 1 and 2 with
    // probabilities p and 1−p. The paper lists the full SUM distribution.
    let (pa, pb, pc) = (0.25, 0.5, 0.75);
    let mut vars = VarTable::new();
    let a = vars.natural("a", &[(1, pa), (2, 1.0 - pa)]);
    let b = vars.natural("b", &[(1, pb), (2, 1.0 - pb)]);
    let c = vars.natural("c", &[(1, pc), (2, 1.0 - pc)]);
    let alpha = SemimoduleExpr::from_terms(
        AggOp::Sum,
        vec![
            (v(a) * (v(b) + v(c)), MonoidValue::Fin(10)),
            (v(c), MonoidValue::Fin(20)),
        ],
    );
    let dist = semimodule_distribution(&alpha, &vars, SemiringKind::Nat);
    let (qa, qb, qc) = (1.0 - pa, 1.0 - pb, 1.0 - pc);
    // The paper's closed forms for the overall d-tree distribution.
    let expected = [
        (40, pa * pb * pc),
        (50, pa * qb * pc),
        (60, qa * pb * pc),
        (70, pa * pb * qc),
        (80, qa * qb * pc + pa * qb * qc),
        (100, qa * pb * qc),
        (120, qa * qb * qc),
    ];
    for (value, p) in expected {
        assert!(
            (dist.prob(&MonoidValue::Fin(value)) - p).abs() < 1e-9,
            "P[{value}] should be {p}"
        );
    }
    assert_eq!(dist.support_size(), 7);

    // MIN aggregation over the same expression: the distribution is {(10, 1)}.
    let alpha_min = SemimoduleExpr::from_terms(
        AggOp::Min,
        vec![
            (v(a) * (v(b) + v(c)), MonoidValue::Fin(10)),
            (v(c), MonoidValue::Fin(20)),
        ],
    );
    let dist_min = semimodule_distribution(&alpha_min, &vars, SemiringKind::Nat);
    assert_eq!(dist_min.support_size(), 1);
    assert!((dist_min.prob(&MonoidValue::Fin(10)) - 1.0).abs() < 1e-9);
}

#[test]
fn example_12_boolean_min_case() {
    // The Boolean-semiring MIN case of Example 12: the distribution is over 10, 20, +∞.
    let (pa, pb, pc) = (0.25, 0.5, 0.75);
    let mut vars = VarTable::new();
    let a = vars.boolean("a", pa);
    let b = vars.boolean("b", pb);
    let c = vars.boolean("c", pc);
    let alpha = SemimoduleExpr::from_terms(
        AggOp::Min,
        vec![
            (v(a) * (v(b) + v(c)), MonoidValue::Fin(10)),
            (v(c), MonoidValue::Fin(20)),
        ],
    );
    let dist = semimodule_distribution(&alpha, &vars, SemiringKind::Bool);
    let (qa, qc) = (1.0 - pa, 1.0 - pc);
    // P[10] = pa·pb·q̄c? — following the paper: left branch (c←⊥) gives {10: pa·pb·qc},
    // right branch (c←⊤) gives {10: pa·pc, 20: qa·pc}; the rest is +∞.
    assert!((dist.prob(&MonoidValue::Fin(10)) - (pa * pb * qc + pa * pc)).abs() < 1e-9);
    assert!((dist.prob(&MonoidValue::Fin(20)) - qa * pc).abs() < 1e-9);
    let rest = 1.0 - (pa * pb * qc + pa * pc) - qa * pc;
    assert!((dist.prob(&MonoidValue::PosInf) - rest).abs() < 1e-9);
    // Always equal to the brute-force semantics.
    let by_enum = oracle::semimodule_dist_by_enumeration(&alpha, &vars, SemiringKind::Bool);
    assert!(dist.approx_eq(&by_enum, 1e-9));
}

#[test]
fn example_13_figure6_gap_conditional() {
    // The Gap tuple's annotation in Figure 1e: the semimodule expression of Figure 6
    // compared against 50, conjoined with the group-nonemptiness condition Ψ2.
    let mut vars = VarTable::new();
    let x4 = vars.boolean("x4", 0.5);
    let x5 = vars.boolean("x5", 0.5);
    let y41 = vars.boolean("y41", 0.5);
    let y43 = vars.boolean("y43", 0.5);
    let y51 = vars.boolean("y51", 0.5);
    let z1 = vars.boolean("z1", 0.5);
    let z3 = vars.boolean("z3", 0.5);
    let z5 = vars.boolean("z5", 0.5);
    let alpha = SemimoduleExpr::from_terms(
        AggOp::Max,
        vec![
            (v(x4) * v(y41) * (v(z1) + v(z5)), MonoidValue::Fin(15)),
            (v(x4) * v(y43) * v(z3), MonoidValue::Fin(60)),
            (v(x5) * v(y51) * (v(z1) + v(z5)), MonoidValue::Fin(10)),
        ],
    );
    let psi2 = SemiringExpr::sum(vec![
        v(x4) * v(y41) * (v(z1) + v(z5)),
        v(x4) * v(y43) * v(z3),
        v(x5) * v(y51) * (v(z1) + v(z5)),
    ]);
    let annotation =
        SemiringExpr::cmp_mm(
            CmpOp::Le,
            alpha,
            SemimoduleExpr::constant(AggOp::Max, MonoidValue::Fin(50)),
        ) * SemiringExpr::cmp_ss(CmpOp::Ne, psi2, SemiringExpr::zero(SemiringKind::Bool));
    let p = confidence(&annotation, &vars, SemiringKind::Bool);
    let expected = oracle::confidence_by_enumeration(&annotation, &vars, SemiringKind::Bool);
    assert!((p - expected).abs() < 1e-9);
    assert!(p > 0.0 && p < 1.0);
}

#[test]
fn section_2_2_distributivity_identifies_annotations() {
    // §2.2: x1(x2 + x3) and x1x2 + x1x3 denote the same annotation, in `B` (set
    // semantics) and in `N` (bag semantics).
    for kind in [SemiringKind::Bool, SemiringKind::Nat] {
        let mut vars = VarTable::new();
        let [x1, x2, x3] = [("x1", 0.3), ("x2", 0.6), ("x3", 0.8)].map(|(name, p)| match kind {
            SemiringKind::Bool => vars.boolean(name, p),
            SemiringKind::Nat => vars.natural(name, &[(0, 1.0 - p), (1, p / 2.0), (2, p / 2.0)]),
        });
        let factored = v(x1) * (v(x2) + v(x3));
        let expanded = v(x1) * v(x2) + v(x1) * v(x3);
        let worlds = oracle::enumerate_worlds(&factored.vars(), &vars);
        assert_eq!(
            worlds.len(),
            if kind == SemiringKind::Bool { 8 } else { 27 }
        );
        for (valuation, _) in &worlds {
            let lookup = |x: Var| valuation[&x];
            assert_eq!(factored.eval(&lookup, kind), expanded.eval(&lookup, kind));
        }
        let p = confidence(&factored, &vars, kind);
        assert!(
            (p - confidence(&expanded, &vars, kind)).abs() < 1e-12,
            "{kind}"
        );
        assert!((p - 0.3 * (1.0 - 0.4 * 0.2)).abs() < 1e-12, "{kind}");
    }
}

#[test]
fn example_10_independence() {
    // Φ = x + y and α = a(b+c)⊗10 + c⊗20 are independent (disjoint variables).
    let mut vars = VarTable::new();
    let x = vars.boolean("x", 0.5);
    let y = vars.boolean("y", 0.5);
    let a = vars.boolean("a", 0.5);
    let b = vars.boolean("b", 0.5);
    let c = vars.boolean("c", 0.5);
    let phi = v(x) + v(y);
    let alpha = SemimoduleExpr::from_terms(
        AggOp::Sum,
        vec![
            (v(a) * (v(b) + v(c)), MonoidValue::Fin(10)),
            (v(c), MonoidValue::Fin(20)),
        ],
    );
    assert!(phi.vars().is_disjoint(&alpha.vars()));
}

#[test]
fn table1_set_and_bag_semantics() {
    // Table 1: the four combinations of deterministic/probabilistic × set/bag.
    // Deterministic set: every variable has probability 1 for one Boolean value.
    let mut vars = VarTable::new();
    let t = vars.fresh("t", Dist::point(SemiringValue::Bool(true)));
    let f = vars.fresh("f", Dist::point(SemiringValue::Bool(false)));
    let d = semiring_distribution(&(v(t) + v(f)), &vars, SemiringKind::Bool);
    assert_eq!(d.support_size(), 1);
    assert!((d.prob(&SemiringValue::Bool(true)) - 1.0).abs() < 1e-12);

    // Deterministic bag: variables are point-distributed naturals; annotations count
    // multiplicities.
    let mut vars = VarTable::new();
    let two = vars.fresh("two", Dist::point(SemiringValue::Nat(2)));
    let three = vars.fresh("three", Dist::point(SemiringValue::Nat(3)));
    let d = semiring_distribution(&(v(two) * v(three)), &vars, SemiringKind::Nat);
    assert!((d.prob(&SemiringValue::Nat(6)) - 1.0).abs() < 1e-12);

    // Probabilistic set: Bernoulli Booleans.
    let mut vars = VarTable::new();
    let x = vars.boolean("x", 0.3);
    let y = vars.boolean("y", 0.4);
    let d = semiring_distribution(&(v(x) + v(y)), &vars, SemiringKind::Bool);
    assert!((d.prob(&SemiringValue::Bool(true)) - (1.0 - 0.7 * 0.6)).abs() < 1e-12);

    // Probabilistic bag: a distribution over tuple multiplicities.
    let mut vars = VarTable::new();
    let m = vars.natural("m", &[(0, 0.2), (1, 0.5), (2, 0.3)]);
    let n = vars.natural("n", &[(1, 0.5), (2, 0.5)]);
    let d = semiring_distribution(&(v(m) + v(n)), &vars, SemiringKind::Nat);
    assert!(d.is_normalized());
    assert!((d.prob(&SemiringValue::Nat(0)) - 0.0).abs() < 1e-12);
    assert!((d.prob(&SemiringValue::Nat(1)) - 0.2 * 0.5).abs() < 1e-12);
    assert_eq!(d.support_size(), 4);
}

#[test]
fn theorem1_succinctness_aggregation_result_is_polynomial() {
    // A SUM aggregation over n independent tuples has 2^n possible outcomes, yet the
    // pvc-table result stores a single semimodule expression with n terms.
    let mut db = Database::new();
    db.create_table("R", Schema::new(["v"]));
    let n = 20usize;
    {
        let (r, vars) = db.table_and_vars_mut("R").unwrap();
        for i in 0..n {
            r.push_independent(vec![(1i64 << i).into()], 0.5, vars);
        }
    }
    let q = Query::table("R").group_agg(
        Vec::<String>::new(),
        vec![AggSpec::new(AggOp::Sum, "v", "total")],
    );
    let table = try_evaluate(&db, &q).unwrap();
    assert_eq!(table.len(), 1);
    let expr = table.tuples[0].values[0].as_agg().unwrap();
    // Polynomial (here: linear) size representation of 2^20 distinct outcomes.
    assert_eq!(expr.num_terms(), n);
}
