//! End-to-end tests of the TPC-H-like pipeline (Experiment F's workload): data
//! generation, query validation, tractability classification, evaluation, and — on a
//! tiny instance — exact agreement of every tuple confidence with the brute-force
//! possible-world semantics.

use pvc_suite::expr::oracle;
use pvc_suite::prelude::*;
use pvc_suite::tpch::{deterministic_copy, generate, q1, q2, Cardinalities, TpchConfig};

fn tiny() -> Database {
    generate(&TpchConfig {
        scale_factor: 0.002,
        ..TpchConfig::default()
    })
}

#[test]
fn generated_database_is_tuple_independent_and_scales() {
    let small = generate(&TpchConfig {
        scale_factor: 0.01,
        ..TpchConfig::default()
    });
    let larger = generate(&TpchConfig {
        scale_factor: 0.05,
        ..TpchConfig::default()
    });
    assert!(small.is_tuple_independent());
    assert!(larger.total_tuples() > small.total_tuples());
    assert_eq!(
        larger.table_or_err("lineitem").unwrap().len(),
        Cardinalities::for_scale(0.05).lineitems
    );
}

#[test]
fn q1_confidences_match_enumeration_on_tiny_instance() {
    let db = tiny();
    let query = q1(2_000);
    let table = try_evaluate(&db, &query).unwrap();
    assert!(!table.is_empty());
    for tuple in table.iter() {
        let confidence = confidence(&tuple.annotation, &db.vars, db.kind);
        // Only enumerate when the annotation is small enough for the oracle.
        if tuple.annotation.vars().len() <= 16 {
            let expected = oracle::confidence_by_enumeration(&tuple.annotation, &db.vars, db.kind);
            assert!((confidence - expected).abs() < 1e-9);
        }
        assert!(confidence > 0.0 && confidence <= 1.0 + 1e-9);
    }
}

#[test]
fn q1_count_distributions_are_consistent() {
    let db = tiny();
    let result = Engine::execute_once(&db, &q1(2_000), &EvalOptions::default()).unwrap();
    for tuple in &result.tuples {
        let count = &tuple.aggregate_distributions["order_count"];
        assert!(count.is_normalized());
        // The probability of a non-zero count equals the group-nonemptiness
        // confidence of the tuple.
        let p_nonzero: f64 = count
            .iter()
            .filter(|(v, _)| **v != MonoidValue::Fin(0))
            .map(|(_, p)| p)
            .sum();
        assert!((p_nonzero - tuple.confidence).abs() < 1e-9);
    }
}

#[test]
fn q2_answers_are_minimum_cost_offers() {
    let db = generate(&TpchConfig {
        scale_factor: 0.5,
        ..TpchConfig::default()
    });
    let query = q2("ASIA", 25);
    let result = Engine::execute_once(&db, &query, &EvalOptions::default()).unwrap();
    // Every reported answer has positive probability, bounded by 1.
    for tuple in &result.tuples {
        assert!(tuple.confidence > 0.0 && tuple.confidence <= 1.0 + 1e-9);
    }
    // Deterministically (all tuples present), the answers with probability 1 are
    // exactly the offers whose cost equals the per-part minimum; candidate tuples at a
    // higher cost have probability 0 (their conditional annotation is false).
    let det = deterministic_copy(&db);
    let det_result = try_evaluate(&det, &query).unwrap();
    let partsupp = db.table_or_err("partsupp").unwrap();
    let mut certain_answers = 0usize;
    for t in det_result.iter() {
        let confidence = confidence(&t.annotation, &det.vars, det.kind);
        let part = t.values[1].as_int().unwrap();
        let cost = t.values[2].as_int().unwrap();
        let min_cost = partsupp
            .iter()
            .filter(|ps| ps.values[0].as_int() == Some(part))
            .map(|ps| ps.values[2].as_int().unwrap())
            .min()
            .unwrap();
        if cost == min_cost {
            assert!(
                (confidence - 1.0).abs() < 1e-9,
                "min-cost offer for part {part} must be certain"
            );
            certain_answers += 1;
        } else {
            assert!(
                confidence.abs() < 1e-9,
                "non-minimal offer for part {part} must be impossible"
            );
        }
    }
    assert!(
        certain_answers > 0,
        "the deterministic run should produce certain answers"
    );
}

#[test]
fn q0_rewrite_and_probability_phases_all_run() {
    let db = generate(&TpchConfig {
        scale_factor: 0.05,
        ..TpchConfig::default()
    });
    let det = deterministic_copy(&db);
    let query = q1(1_800);
    let det_table = try_evaluate(&det, &query).unwrap();
    let prob_result = Engine::execute_once(&db, &query, &EvalOptions::default()).unwrap();
    // The deterministic run produces the same groups as the probabilistic one.
    assert_eq!(det_table.len(), prob_result.tuples.len());
    // On the deterministic copy every group is certainly non-empty.
    assert!(det_table
        .iter()
        .all(|t| (confidence(&t.annotation, &det.vars, det.kind) - 1.0).abs() < 1e-9));
}

#[test]
fn paper_queries_are_classified() {
    let db = tiny();
    // Q1 is an aggregation over a single tuple-independent relation: tractable.
    assert_ne!(classify(&q1(1_800), &db), QueryClass::General);
    // Q2 contains a nested aggregate join; the syntactic test is conservative and may
    // return General, but the query must still validate and evaluate.
    assert!(q2("ASIA", 25).output_schema(&db).is_ok());
}
