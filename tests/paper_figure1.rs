//! End-to-end reproduction of the paper's running example (Figure 1 and Examples
//! 1, 8, 9): the shop/product database, the positive query Q1 and the aggregate
//! queries Q2 (MAX) and Q2' (MIN), with every probability cross-checked against
//! brute-force possible-world enumeration.

use pvc_suite::expr::oracle;
use pvc_suite::prelude::*;

/// Build the Figure 1 database with all variables at probability 1/2.
fn figure1_db() -> Database {
    let mut db = Database::new();
    db.create_table("S", Schema::new(["sid", "shop"]));
    db.create_table("PS", Schema::new(["ps_sid", "ps_pid", "price"]));
    db.create_table("P1", Schema::new(["pid", "weight"]));
    db.create_table("P2", Schema::new(["pid", "weight"]));
    {
        let (s, vars) = db.table_and_vars_mut("S").unwrap();
        for (sid, shop) in [(1, "M&S"), (2, "M&S"), (3, "M&S"), (4, "Gap"), (5, "Gap")] {
            s.push_independent(vec![(sid as i64).into(), shop.into()], 0.5, vars);
        }
    }
    {
        let (ps, vars) = db.table_and_vars_mut("PS").unwrap();
        for (sid, pid, price) in [
            (1, 1, 10),
            (1, 2, 50),
            (2, 1, 11),
            (2, 2, 60),
            (3, 3, 15),
            (3, 4, 40),
            (4, 1, 15),
            (4, 3, 60),
            (5, 1, 10),
        ] {
            ps.push_independent(
                vec![
                    (sid as i64).into(),
                    (pid as i64).into(),
                    (price as i64).into(),
                ],
                0.5,
                vars,
            );
        }
    }
    {
        let (p1, vars) = db.table_and_vars_mut("P1").unwrap();
        for (pid, weight) in [(1, 4), (2, 8), (3, 7), (4, 6)] {
            p1.push_independent(vec![(pid as i64).into(), (weight as i64).into()], 0.5, vars);
        }
    }
    {
        let (p2, vars) = db.table_and_vars_mut("P2").unwrap();
        p2.push_independent(vec![1i64.into(), 5i64.into()], 0.5, vars);
    }
    db
}

fn q1() -> Query {
    let products = Query::table("P1")
        .union(Query::table("P2"))
        .rename(&[("pid", "p_pid"), ("weight", "p_weight")]);
    Query::table("S")
        .join(Query::table("PS"), &[("sid", "ps_sid")])
        .join(products, &[("ps_pid", "p_pid")])
        .project(["shop", "price"])
}

#[test]
fn q1_has_the_nine_tuples_of_figure_1d() {
    let db = figure1_db();
    let table = try_evaluate(&db, &q1()).unwrap();
    assert_eq!(table.len(), 9);
    let expected: Vec<(&str, i64)> = vec![
        ("M&S", 10),
        ("M&S", 50),
        ("M&S", 11),
        ("M&S", 60),
        ("M&S", 15),
        ("M&S", 40),
        ("Gap", 15),
        ("Gap", 60),
        ("Gap", 10),
    ];
    for (shop, price) in expected {
        assert!(
            table
                .iter()
                .any(|t| t.values[0].as_str() == Some(shop) && t.values[1].as_int() == Some(price)),
            "missing tuple ({shop}, {price})"
        );
    }
}

#[test]
fn q1_confidences_match_possible_world_semantics() {
    let db = figure1_db();
    let table = try_evaluate(&db, &q1()).unwrap();
    for tuple in table.iter() {
        let confidence = confidence(&tuple.annotation, &db.vars, db.kind);
        let expected = oracle::confidence_by_enumeration(&tuple.annotation, &db.vars, db.kind);
        assert!(
            (confidence - expected).abs() < 1e-9,
            "confidence mismatch for {:?}",
            tuple.values
        );
    }
    // Spot checks: ⟨M&S, 10⟩ has annotation x1·y11·(z1+z5) ⇒ 0.5·0.5·0.75.
    let mands10 = table
        .iter()
        .find(|t| t.values[0].as_str() == Some("M&S") && t.values[1].as_int() == Some(10))
        .map(|t| confidence(&t.annotation, &db.vars, db.kind))
        .unwrap();
    assert!((mands10 - 0.1875).abs() < 1e-9);
}

#[test]
fn q2_max_price_at_most_50() {
    // Q2 from Figure 1e (MAX) and the valuation ν1 discussed in Example 1.
    let db = figure1_db();
    let q2 = q1()
        .group_agg(["shop"], vec![AggSpec::new(AggOp::Max, "price", "P")])
        .select(Predicate::AggCmpConst("P".into(), CmpOp::Le, 50))
        .project(["shop"]);
    let table = try_evaluate(&db, &q2).unwrap();
    assert_eq!(table.len(), 2);
    let result = Engine::execute_once(&db, &q2, &EvalOptions::default()).unwrap();
    for (prob, tuple) in result.tuples.iter().zip(table.iter()) {
        let expected = oracle::confidence_by_enumeration(&tuple.annotation, &db.vars, db.kind);
        assert!((prob.confidence - expected).abs() < 1e-9);
        // The result is uncertain but possible for both shops.
        assert!(prob.confidence > 0.0 && prob.confidence < 1.0);
    }
}

#[test]
fn q2_prime_min_variant_of_example_9() {
    let db = figure1_db();
    let q2p = q1()
        .group_agg(["shop"], vec![AggSpec::new(AggOp::Min, "price", "P")])
        .select(Predicate::AggCmpConst("P".into(), CmpOp::Le, 50))
        .project(["shop"]);
    let result = Engine::execute_once(&db, &q2p, &EvalOptions::default()).unwrap();
    let table = try_evaluate(&db, &q2p).unwrap();
    for (prob, tuple) in result.tuples.iter().zip(table.iter()) {
        let expected = oracle::confidence_by_enumeration(&tuple.annotation, &db.vars, db.kind);
        assert!((prob.confidence - expected).abs() < 1e-9);
    }
    // As argued in Example 9, for MIN the group-nonemptiness condition is implied:
    // the MIN-variant probability equals the probability that the shop offers some
    // product at price ≤ 50 at all.
    let alt = q1()
        .select(Predicate::ColCmpConst(
            "price".into(),
            CmpOp::Le,
            Value::Int(50),
        ))
        .project(["shop"]);
    let alt_result = Engine::execute_once(&db, &alt, &EvalOptions::default()).unwrap();
    for tuple in &result.tuples {
        let shop = tuple.values[0].to_string();
        let alt_conf = alt_result
            .tuples
            .iter()
            .find(|t| t.values[0].to_string() == shop)
            .unwrap()
            .confidence;
        assert!((tuple.confidence - alt_conf).abs() < 1e-9, "shop {shop}");
    }
}

#[test]
fn example_8_min_weight_boolean_query() {
    // π_∅ σ_{5≤α} ($_{∅; α←MIN(weight)}(P1)): the probability that the minimum weight
    // is at least 5.
    let db = figure1_db();
    let q = Query::table("P1")
        .group_agg(
            Vec::<String>::new(),
            vec![AggSpec::new(AggOp::Min, "weight", "alpha")],
        )
        .select(Predicate::AggCmpConst("alpha".into(), CmpOp::Ge, 5))
        .project(Vec::<String>::new());
    let result = Engine::execute_once(&db, &q, &EvalOptions::default()).unwrap();
    assert_eq!(result.tuples.len(), 1);
    // Weights are 4, 8, 7, 6 each present with probability 1/2; min ≥ 5 iff the
    // weight-4 product is absent (probability 1/2) — the empty group has min +∞ ≥ 5.
    assert!((result.tuples[0].confidence - 0.5).abs() < 1e-9);
}

#[test]
fn classification_of_the_paper_queries() {
    let db = figure1_db();
    assert_eq!(classify(&Query::table("S"), &db), QueryClass::Qind);
    // The grouped MAX aggregation over the hierarchical join is in Q_hie.
    let agg = Query::table("S")
        .join(Query::table("PS"), &[("sid", "ps_sid")])
        .group_agg(["shop"], vec![AggSpec::new(AggOp::Max, "price", "P")]);
    assert_eq!(classify(&agg, &db), QueryClass::Qhie);
}
