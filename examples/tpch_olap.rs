//! Decision support over uncertain data: the paper's TPC-H experiment in miniature.
//!
//! Generates a tuple-independent TPC-H-like database, runs the paper's two queries
//! (Q1: counts of billed/shipped/returned business, Q2: minimum-cost suppliers)
//! through the `Engine` and reports exact tuple probabilities, separating the two
//! evaluation phases the paper measures: expression construction (⟦·⟧) and
//! probability computation (P(·)).
//!
//! Run with: `cargo run --release --example tpch_olap`

use pvc_suite::prelude::*;
use pvc_suite::tpch::{generate, q1, q2, TpchConfig};

fn main() -> Result<(), Box<dyn std::error::Error>> {
    let config = TpchConfig {
        scale_factor: 0.25,
        ..TpchConfig::default()
    };
    let db = generate(&config);
    println!(
        "generated TPC-H-like database at scale factor {}: {} tuples, {} random variables\n",
        config.scale_factor,
        db.total_tuples(),
        db.vars.len()
    );
    let engine = Engine::new(db);

    // Q1: COUNT of line items per (returnflag, linestatus), shipped before a cutoff.
    let q1 = q1(1_800);
    let prepared = engine.prepare(&q1)?;
    println!("TPC-H Q1 (COUNT per return flag / line status)");
    println!("{}", prepared.plan());
    let result = prepared.execute(&EvalOptions::default())?;
    println!(
        "  ⟦·⟧ took {:?}, P(·) took {:?}",
        result.rewrite_time, result.probability_time
    );
    for tuple in &result.tuples {
        let count = &tuple.aggregate_distributions["order_count"];
        let expected = pvc_suite::prob::expectation(count).unwrap_or(0.0);
        println!(
            "  flag={} status={}  P[group non-empty]={:.4}  E[count]={:.2}  support size={}",
            tuple.values[0],
            tuple.values[1],
            tuple.confidence,
            expected,
            count.support_size()
        );
    }

    // Q2: suppliers offering a qualifying part at its minimum supply cost. Only the
    // confidences are needed here, so skip the aggregate distributions.
    let q2 = q2("MIDDLE EAST", 25);
    println!("\nTPC-H Q2 (minimum-cost suppliers in MIDDLE EAST)");
    let prepared = engine.prepare(&q2)?;
    let result = prepared.execute(&EvalOptions::confidence_only())?;
    println!(
        "  ⟦·⟧ took {:?}, P(·) took {:?}, {} candidate answers",
        result.rewrite_time,
        result.probability_time,
        result.tuples.len()
    );
    assert!(!result.tuples.is_empty(), "Q2 found no candidate answer");
    let mut best: Vec<&ProbTuple> = result.tuples.iter().collect();
    best.sort_by(|a, b| b.confidence.partial_cmp(&a.confidence).unwrap());
    for tuple in best.iter().take(5) {
        println!(
            "  supplier {} offers part {} at cost {}: probability {:.4}",
            tuple.values[0], tuple.values[1], tuple.values[2], tuple.confidence
        );
    }
    Ok(())
}
