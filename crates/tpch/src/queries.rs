//! The two TPC-H queries evaluated in the paper's §7.2, expressed in the query
//! language `Q`.
//!
//! * **Q1** "reports the amount of business that was billed, shipped and returned
//!   (only the COUNT aggregate is selected)": a selection on the ship date followed by
//!   grouping on return flag and line status with a COUNT aggregate.
//! * **Q2** "is a join of five relations with a nested aggregate query, which asks for
//!   suppliers with minimum cost for an order for a given part in a given region":
//!   part ⋈ partsupp ⋈ supplier ⋈ nation ⋈ region, restricted to one region and one
//!   part size, where the supply cost equals the minimum supply cost among the
//!   qualifying offers (the nested `$_{∅; γ←MIN(ps_supplycost)}` sub-query).

use pvc_algebra::{AggOp, CmpOp};
use pvc_db::{AggSpec, Predicate, Query, Value};

/// TPC-H Q1 (COUNT variant): group the line items shipped up to `ship_date_cutoff`
/// by return flag and line status and count them.
pub fn q1(ship_date_cutoff: i64) -> Query {
    Query::table("lineitem")
        .select(Predicate::ColCmpConst(
            "l_shipdate".into(),
            CmpOp::Le,
            Value::Int(ship_date_cutoff),
        ))
        .group_agg(
            ["l_returnflag", "l_linestatus"],
            vec![AggSpec::count("order_count")],
        )
}

/// The flat five-way join of Q2: part ⋈ partsupp ⋈ supplier ⋈ nation ⋈ region,
/// restricted to a region and a maximum part size.
fn q2_join(region: &str, max_part_size: i64, rename_suffix: &str) -> Query {
    // When the join is used twice in the same query (outer block and nested
    // aggregate), the second occurrence renames its columns to keep names unique.
    let rn = |name: &str| format!("{name}{rename_suffix}");
    let part = Query::table("part").rename(&[
        ("p_partkey", &rn("p_partkey")),
        ("p_size", &rn("p_size")),
        ("p_retailprice", &rn("p_retailprice")),
    ]);
    let partsupp = Query::table("partsupp").rename(&[
        ("ps_partkey", &rn("ps_partkey")),
        ("ps_suppkey", &rn("ps_suppkey")),
        ("ps_supplycost", &rn("ps_supplycost")),
        ("ps_availqty", &rn("ps_availqty")),
    ]);
    let supplier = Query::table("supplier").rename(&[
        ("s_suppkey", &rn("s_suppkey")),
        ("s_nationkey", &rn("s_nationkey")),
        ("s_acctbal", &rn("s_acctbal")),
    ]);
    let nation = Query::table("nation").rename(&[
        ("n_nationkey", &rn("n_nationkey")),
        ("n_regionkey", &rn("n_regionkey")),
        ("n_name", &rn("n_name")),
    ]);
    let region_q = Query::table("region").rename(&[
        ("r_regionkey", &rn("r_regionkey")),
        ("r_name", &rn("r_name")),
    ]);

    part.join(partsupp, &[(&rn("p_partkey"), &rn("ps_partkey"))])
        .join(supplier, &[(&rn("ps_suppkey"), &rn("s_suppkey"))])
        .join(nation, &[(&rn("s_nationkey"), &rn("n_nationkey"))])
        .join(region_q, &[(&rn("n_regionkey"), &rn("r_regionkey"))])
        .select(Predicate::And(vec![
            Predicate::eq_const(rn("r_name"), region),
            Predicate::ColCmpConst(rn("p_size"), CmpOp::Le, Value::Int(max_part_size)),
        ]))
}

/// TPC-H Q2 (minimum-cost supplier): suppliers offering a qualifying part in the given
/// region at that part's minimum supply cost.
///
/// Structurally this is the pattern of the paper's Example 3,
/// `π_A σ_{B=γ}(R × $_{A'; γ←MIN(C)}(R'))`: the outer block is the five-way join
/// part ⋈ partsupp ⋈ supplier ⋈ nation ⋈ region restricted to the region and part
/// size, and the nested aggregate computes the per-part minimum supply cost over the
/// partsupp offers (TPC-H's correlated sub-query, decorrelated into a group-by). The
/// nested block renames its columns with an `_i` suffix so the join of the two blocks
/// has unambiguous column names.
pub fn q2(region: &str, max_part_size: i64) -> Query {
    let outer = q2_join(region, max_part_size, "");
    let inner = Query::table("partsupp")
        .rename(&[
            ("ps_partkey", "ps_partkey_i"),
            ("ps_suppkey", "ps_suppkey_i"),
            ("ps_supplycost", "ps_supplycost_i"),
            ("ps_availqty", "ps_availqty_i"),
        ])
        .group_agg(
            ["ps_partkey_i"],
            vec![AggSpec::new(AggOp::Min, "ps_supplycost_i", "min_cost")],
        );
    outer
        .join(inner, &[("p_partkey", "ps_partkey_i")])
        .select(Predicate::AggCmpCol(
            "min_cost".into(),
            CmpOp::Eq,
            "ps_supplycost".into(),
        ))
        .project(["s_suppkey", "p_partkey", "ps_supplycost"])
}

/// A deterministic variant of any query's database: the paper's `Q0` baseline runs the
/// query on a deterministic database (no expression or probability computation). We
/// model it by setting every tuple's probability to 1, which makes the annotations
/// semantically trivial while exercising the same relational work.
pub fn deterministic_copy(db: &pvc_db::Database) -> pvc_db::Database {
    let mut copy = db.clone();
    let vars: Vec<_> = copy.vars.iter().collect();
    for v in vars {
        copy.vars.set_dist(v, pvc_prob::make::bernoulli(1.0));
    }
    copy
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::gen::{generate, TpchConfig};
    use pvc_db::{classify, try_evaluate, QueryClass};

    fn tiny_db() -> pvc_db::Database {
        generate(&TpchConfig {
            scale_factor: 0.01,
            ..TpchConfig::default()
        })
    }

    #[test]
    fn q1_produces_grouped_counts() {
        let db = tiny_db();
        let result = try_evaluate(&db, &q1(2_000)).unwrap();
        // At most 3 return flags × 2 line statuses groups.
        assert!(result.len() <= 6);
        assert!(!result.is_empty());
        for t in result.iter() {
            let count = t.values[2].as_agg().unwrap();
            assert_eq!(count.op, pvc_algebra::AggOp::Count);
            assert!(count.num_terms() >= 1);
        }
    }

    #[test]
    fn q1_is_tractable() {
        let db = tiny_db();
        assert_ne!(classify(&q1(2_000), &db), QueryClass::General);
    }

    #[test]
    fn q1_validates() {
        let db = tiny_db();
        assert!(q1(1_000).output_schema(&db).is_ok());
    }

    #[test]
    fn q2_validates_and_runs() {
        let db = tiny_db();
        // The one region with qualifying parts at this scale factor.
        let q = q2("MIDDLE EAST", 25);
        let schema = q.output_schema(&db).expect("Q2 must validate");
        assert_eq!(
            schema.names(),
            vec!["s_suppkey", "p_partkey", "ps_supplycost"]
        );
        let result = try_evaluate(&db, &q).unwrap();
        assert!(!result.is_empty(), "Q2 must have answers to check");
        // Every result tuple's annotation mentions at least the five joined tuples
        // plus the variables of the nested aggregate.
        for t in result.iter() {
            assert!(t.annotation.vars().len() >= 5);
        }
    }

    #[test]
    fn deterministic_copy_sets_probabilities_to_one() {
        let db = tiny_db();
        let det = deterministic_copy(&db);
        for v in det.vars.iter() {
            assert!((det.vars.prob_true(v) - 1.0).abs() < 1e-12);
        }
        assert_eq!(det.total_tuples(), db.total_tuples());
    }
}
