//! Error-path coverage for the `Engine` / prepared-query API: every malformed query
//! must come back as `Err(Error::Validation(..))` from `prepare` — never a panic —
//! and runtime failures (node budgets, type mismatches) surface as the matching
//! `Error` variants from `execute`.

use pvc_suite::db::QueryError;
use pvc_suite::prelude::*;

/// A small database with one data table and one prepared aggregation.
fn sample_engine() -> Engine {
    let mut db = Database::new();
    db.create_table("S", Schema::new(["sid", "shop"]));
    db.create_table("PS", Schema::new(["ps_sid", "pid", "price"]));
    {
        let (s, vars) = db.table_and_vars_mut("S").unwrap();
        s.push_independent(vec![1i64.into(), "M&S".into()], 0.5, vars);
        s.push_independent(vec![2i64.into(), "Gap".into()], 0.5, vars);
    }
    {
        let (ps, vars) = db.table_and_vars_mut("PS").unwrap();
        ps.push_independent(vec![1i64.into(), 1i64.into(), 10i64.into()], 0.5, vars);
        ps.push_independent(vec![2i64.into(), 1i64.into(), 60i64.into()], 0.5, vars);
    }
    Engine::new(db)
}

#[test]
fn unknown_table_is_a_validation_error() {
    let engine = sample_engine();
    let err = engine.prepare(&Query::table("missing")).unwrap_err();
    assert!(matches!(
        err,
        Error::Validation(QueryError::UnknownTable(ref t)) if t == "missing"
    ));
    // The error is printable and carries context.
    assert!(err.to_string().contains("missing"));
}

#[test]
fn unknown_column_is_a_validation_error() {
    let engine = sample_engine();
    for query in [
        Query::table("S").project(["nope"]),
        Query::table("S").select(Predicate::eq_const("nope", 1i64)),
        Query::table("S").group_agg(["nope"], vec![AggSpec::count("c")]),
        Query::table("S").group_agg(["shop"], vec![AggSpec::new(AggOp::Sum, "nope", "t")]),
        Query::table("S").rename(&[("nope", "x")]),
    ] {
        let err = engine.prepare(&query).unwrap_err();
        assert!(
            matches!(err, Error::Validation(QueryError::UnknownColumn(ref c)) if c == "nope"),
            "unexpected error for {query:?}: {err}"
        );
    }
}

#[test]
fn projection_of_aggregation_attributes_is_rejected() {
    let engine = sample_engine();
    let agg = Query::table("PS").group_agg(["pid"], vec![AggSpec::new(AggOp::Max, "price", "m")]);
    // Projecting on the aggregate.
    let err = engine.prepare(&agg.clone().project(["m"])).unwrap_err();
    assert!(matches!(
        err,
        Error::Validation(QueryError::ProjectionOnAggregate(ref c)) if c == "m"
    ));
    // Grouping by the aggregate.
    let err = engine
        .prepare(&agg.clone().group_agg(["m"], vec![AggSpec::count("c")]))
        .unwrap_err();
    assert!(matches!(
        err,
        Error::Validation(QueryError::ProjectionOnAggregate(_))
    ));
    // Aggregating the aggregate.
    let err = engine
        .prepare(
            &agg.clone()
                .group_agg(["pid"], vec![AggSpec::new(AggOp::Sum, "m", "t")]),
        )
        .unwrap_err();
    assert!(matches!(
        err,
        Error::Validation(QueryError::AggregationOfAggregate(_))
    ));
}

#[test]
fn union_violations_are_rejected() {
    let engine = sample_engine();
    // Different schemas.
    let err = engine
        .prepare(&Query::table("S").union(Query::table("PS")))
        .unwrap_err();
    assert!(matches!(
        err,
        Error::Validation(QueryError::UnionSchemaMismatch)
    ));
    // Union over an operand with aggregation attributes (Definition 5, constraint 2).
    let agg = Query::table("PS").group_agg(["pid"], vec![AggSpec::new(AggOp::Max, "price", "m")]);
    let err = engine.prepare(&agg.clone().union(agg)).unwrap_err();
    assert!(matches!(
        err,
        Error::Validation(QueryError::UnionOnAggregate(_))
    ));
}

#[test]
fn predicate_sort_mismatches_are_rejected() {
    let engine = sample_engine();
    // An Agg* predicate over a plain data column.
    let err = engine
        .prepare(&Query::table("PS").select(Predicate::AggCmpConst("price".into(), CmpOp::Le, 5)))
        .unwrap_err();
    assert!(matches!(
        err,
        Error::Validation(QueryError::PredicateSortMismatch(ref c)) if c == "price"
    ));
    // A plain comparison over an aggregation attribute.
    let agg = Query::table("PS").group_agg(["pid"], vec![AggSpec::new(AggOp::Max, "price", "m")]);
    let err = engine
        .prepare(&agg.select(Predicate::eq_const("m", 5i64)))
        .unwrap_err();
    assert!(matches!(
        err,
        Error::Validation(QueryError::PredicateSortMismatch(ref c)) if c == "m"
    ));
}

#[test]
fn duplicate_columns_in_products_are_rejected() {
    let engine = sample_engine();
    let err = engine
        .prepare(&Query::table("S").product(Query::table("S")))
        .unwrap_err();
    assert!(matches!(
        err,
        Error::Validation(QueryError::DuplicateColumn(_))
    ));
    // Renaming onto an existing column name is also a duplicate.
    let err = engine
        .prepare(&Query::table("S").rename(&[("sid", "shop")]))
        .unwrap_err();
    assert!(matches!(
        err,
        Error::Validation(QueryError::DuplicateColumn(ref c)) if c == "shop"
    ));
}

#[test]
fn node_budget_exhaustion_is_a_compile_error() {
    let engine = sample_engine();
    let q = Query::table("S")
        .join(Query::table("PS"), &[("sid", "ps_sid")])
        .group_agg(["shop"], vec![AggSpec::new(AggOp::Max, "price", "m")])
        .select(Predicate::AggCmpConst("m".into(), CmpOp::Le, 30))
        .project(["shop"]);
    let prepared = engine.prepare(&q).unwrap();
    let err = prepared
        .execute(
            &EvalOptions::default()
                .with_node_budget(1)
                .without_fast_path(),
        )
        .unwrap_err();
    assert!(matches!(err, Error::Compile(_)));
    // With a generous budget the same prepared query succeeds.
    let ok = prepared
        .execute(&EvalOptions::default().with_node_budget(1_000_000))
        .unwrap();
    assert!(!ok.tuples.is_empty());
}

#[test]
fn aggregating_a_string_column_is_a_type_error() {
    let engine = sample_engine();
    let q = Query::table("S").group_agg(
        Vec::<String>::new(),
        vec![AggSpec::new(AggOp::Sum, "shop", "t")],
    );
    // Schema-level validation cannot see value types, so prepare succeeds …
    let prepared = engine.prepare(&q).unwrap();
    // … and execution reports the type mismatch as an error, not a panic.
    let err = prepared.execute(&EvalOptions::default()).unwrap_err();
    assert!(matches!(err, Error::TypeMismatch { ref column, .. } if column == "shop"));
}

/// A SUM or PROD that could leave `i64` in some world is refused at execution
/// with a typed error, never wrapped; one that stays in range, and COUNT / MIN /
/// MAX over the same values, run. Over `N` each value counts at its
/// annotation's largest multiplicity, and so does each row of a COUNT.
#[test]
fn aggregates_that_could_leave_i64_are_refused() {
    // One row per `(value, n)`: over `B` present at 0.5, over `N` with a
    // multiplicity uniform on `0..=n` (on `{0, n}` for a large `n`).
    let engine = |kind: SemiringKind, rows: &[(i64, u64)]| {
        let mut db = Database::with_kind(kind);
        db.create_table("T", Schema::new(["v"]));
        let (t, vars) = db.table_and_vars_mut("T").unwrap();
        for (i, &(v, n)) in rows.iter().enumerate() {
            let x = match kind {
                SemiringKind::Bool => vars.boolean(format!("x{i}"), 0.5),
                SemiringKind::Nat => {
                    let support: Vec<u64> = match n {
                        0..=3 => (0..=n).collect(),
                        _ => vec![0, n],
                    };
                    let p = 1.0 / support.len() as f64;
                    let uniform: Vec<_> = support.into_iter().map(|k| (k, p)).collect();
                    vars.natural(format!("n{i}"), &uniform)
                }
            };
            t.try_push(vec![v.into()], SemiringExpr::Var(x)).unwrap();
        }
        Engine::new(db)
    };
    let run = |engine: &Engine, op: AggOp| {
        let q = Query::table("T").group_agg(Vec::<String>::new(), vec![AggSpec::new(op, "v", "m")]);
        engine.prepare(&q).unwrap().execute(&EvalOptions::default())
    };
    let refused = |result: Result<QueryResult, Error>, op: AggOp| {
        let err = result.unwrap_err();
        // COUNT counts rows, not the column's values.
        let expected = if op == AggOp::Count { "*" } else { "v" };
        assert!(
            matches!(err, Error::AggregateOverflow { op: o, ref column } if o == op && column == expected),
            "{err:?}"
        );
        assert!(err.to_string().contains("64-bit"), "{err}");
    };
    let half = i64::MAX / 2;
    for v in [half + 10, -(half + 10)] {
        let e = engine(SemiringKind::Bool, &[(v, 1), (v, 1)]);
        refused(run(&e, AggOp::Sum), AggOp::Sum);
        for op in [AggOp::Count, AggOp::Min, AggOp::Max] {
            assert!(run(&e, op).is_ok(), "{op}");
        }
    }
    // Positive and negative contributions are bounded apart: each side fits.
    let e = engine(SemiringKind::Bool, &[(half, 1), (half, 1), (-half, 1)]);
    let sum = run(&e, AggOp::Sum).unwrap();
    let top = MonoidValue::Fin(2 * half);
    assert!((sum.tuples[0].aggregate_distributions["m"].prob(&top) - 0.125).abs() < 1e-12);
    let e = engine(SemiringKind::Bool, &[(1 << 40, 1), (1 << 40, 1)]);
    refused(run(&e, AggOp::Prod), AggOp::Prod);
    let e = engine(SemiringKind::Bool, &[(1 << 40, 1), (-(1 << 20), 1), (1, 1)]);
    assert!(run(&e, AggOp::Prod).is_ok());
    // Over N the multiplicity counts: 2 · 2^62 leaves i64 and 1 · 2^62 does
    // not; (2^31)^3 leaves it and (2^31)^2 does not; a COUNT of 2^63 leaves it.
    for (v, n, op, fits) in [
        (1, 1 << 63, AggOp::Count, false),
        (1i64 << 62, 2, AggOp::Sum, false),
        (1 << 62, 1, AggOp::Sum, true),
        (1 << 31, 3, AggOp::Prod, false),
        (1 << 31, 2, AggOp::Prod, true),
    ] {
        let e = engine(SemiringKind::Nat, &[(v, n)]);
        match fits {
            true => assert!(run(&e, op).is_ok(), "{op} {v} × {n}"),
            false => refused(run(&e, op), op),
        }
    }
}

#[test]
fn fallible_free_functions_return_errors_too() {
    let engine = sample_engine();
    let db = engine.database();
    let err = try_evaluate(db, &Query::table("missing")).unwrap_err();
    assert!(matches!(
        err,
        Error::Validation(QueryError::UnknownTable(_))
    ));
    let err = db.table_or_err("missing").unwrap_err();
    assert!(matches!(err, Error::UnknownTable { .. }));
}

#[test]
fn tractable_plans_report_their_strategy() {
    let engine = sample_engine();
    // Base table: Q_ind.
    let plan = engine.prepare(&Query::table("S")).unwrap().plan().clone();
    assert_eq!(plan.class, QueryClass::Qind);
    assert_eq!(plan.strategy, Strategy::IndependentFastPath);
    // Grouped aggregation over a hierarchical join: Q_hie.
    let q = Query::table("S")
        .join(Query::table("PS"), &[("sid", "ps_sid")])
        .group_agg(["shop"], vec![AggSpec::new(AggOp::Max, "price", "m")]);
    let plan = engine.prepare(&q).unwrap().plan().clone();
    assert_eq!(plan.class, QueryClass::Qhie);
    assert_eq!(plan.strategy, Strategy::HierarchicalFastPath);
    assert!(plan.strategy.is_tractable());
    // Repeating a table (after renames) loses the syntactic guarantee.
    let repeated =
        Query::table("S").product(Query::table("S").rename(&[("sid", "sid2"), ("shop", "shop2")]));
    let plan = engine.prepare(&repeated).unwrap().plan().clone();
    assert_eq!(plan.strategy, Strategy::GeneralCompilation);
    assert!(!plan.non_repeating);
}

#[test]
fn prepared_queries_never_panic_on_any_malformed_input() {
    // A sweep of malformed queries: everything must come back as Err.
    let engine = sample_engine();
    let agg = Query::table("PS").group_agg(["pid"], vec![AggSpec::new(AggOp::Max, "price", "m")]);
    let malformed: Vec<Query> = vec![
        Query::table(""),
        Query::table("s"), // case-sensitive
        Query::table("S").project(["SID"]),
        Query::table("S").join(Query::table("PS"), &[("sid", "nope")]),
        agg.clone().project(["pid", "m"]),
        agg.clone().union(Query::table("S")),
        Query::table("S").select(Predicate::AggCmpAgg("sid".into(), CmpOp::Le, "shop".into())),
        Query::table("S").select(Predicate::AggCmpCol("sid".into(), CmpOp::Le, "shop".into())),
    ];
    for query in malformed {
        let result = engine.prepare(&query);
        assert!(result.is_err(), "expected Err for {query:?}");
        assert!(matches!(result.unwrap_err(), Error::Validation(_)));
    }
}
