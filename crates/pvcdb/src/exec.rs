//! Query evaluation, step I: computing the tuples of the query result together with
//! their semiring annotations and semimodule values — the rewriting `⟦·⟧` of Fig. 4 of
//! the paper, executed directly over in-memory pvc-tables.
//!
//! * joint use of data (product/join) multiplies annotations;
//! * alternative use of data (projection/union) sums annotations;
//! * selection multiplies the annotation with a conditional expression when the
//!   predicate involves aggregation attributes, and plainly filters otherwise;
//! * the `$` operator builds semimodule expressions `Σ_AGG Φ_t ⊗ v_t` per group and
//!   annotates grouped results with the group-non-emptiness condition
//!   `[(Σ_K Φ_t) ≠ 0_K]`.

use crate::database::Database;
use crate::error::Error;
use crate::query::{AggSpec, Predicate, Query, QueryError};
use crate::relation::{PvcTable, Tuple};
use crate::schema::{Column, Schema};
use crate::value::{KeyValue, Value};
use pvc_algebra::{CmpOp, MonoidValue, SemiringKind};
use pvc_expr::{SemimoduleExpr, SemiringExpr};
use std::collections::BTreeMap;

/// Evaluate a query over a pvc-database, producing the result pvc-table (tuples with
/// annotations and semimodule values, but no probabilities yet).
///
/// The query is validated first (the checks of Definition 5); validation failures,
/// unknown tables and type mismatches are reported as [`Error`] values rather than
/// panics. This is step I of the engine; prefer [`crate::Engine::prepare`] when the
/// same query is executed more than once.
pub fn try_evaluate(db: &Database, query: &Query) -> Result<PvcTable, Error> {
    let schema = query.output_schema(db).map_err(Error::Validation)?;
    let mut result = evaluate_rec(db, query)?;
    result.schema = schema;
    result.name = "result".to_string();
    Ok(result)
}

/// Step I without the upfront validation walk, for queries that have already been
/// validated by [`crate::Engine::prepare`] (the caller stamps the plan's schema and
/// result name). Runtime failures (unknown tables raced away, type mismatches) are
/// still reported as [`Error`] values.
pub(crate) fn rewrite_planned(db: &Database, query: &Query) -> Result<PvcTable, Error> {
    evaluate_rec(db, query)
}

fn evaluate_rec(db: &Database, query: &Query) -> Result<PvcTable, Error> {
    let kind = db.kind;
    match query {
        Query::Table(name) => Ok(db.table_or_err(name)?.clone()),
        Query::Rename(mapping, input) => {
            let mut table = evaluate_rec(db, input)?;
            for (old, new) in mapping {
                table.schema = table
                    .schema
                    .try_rename(old, new)
                    .map_err(|c| Error::Validation(QueryError::UnknownColumn(c)))?;
            }
            Ok(table)
        }
        Query::Select(pred, input) => {
            // Peephole optimisation: `σ_{… ∧ A=B ∧ …}(Q1 × Q2)` with `A` from `Q1` and
            // `B` from `Q2` is executed as a hash equi-join instead of materialising
            // the full cross product. The produced tuples and annotations are exactly
            // those of the Fig. 4 rewriting — only the evaluation order changes.
            if let Query::Product(a, b) = input.as_ref() {
                let ta = evaluate_rec(db, a)?;
                let tb = evaluate_rec(db, b)?;
                if let Some((pairs, rest)) = split_equijoin_predicate(pred, &ta, &tb) {
                    let joined = eval_hash_join(&ta, &tb, &pairs);
                    return match rest {
                        Some(p) => eval_select(&joined, &p, kind),
                        None => Ok(joined),
                    };
                }
                let product = eval_product(&ta, &tb);
                return eval_select(&product, pred, kind);
            }
            let table = evaluate_rec(db, input)?;
            eval_select(&table, pred, kind)
        }
        Query::Project(cols, input) => {
            let table = evaluate_rec(db, input)?;
            eval_project(&table, cols, kind)
        }
        Query::Product(a, b) => {
            let ta = evaluate_rec(db, a)?;
            let tb = evaluate_rec(db, b)?;
            Ok(eval_product(&ta, &tb))
        }
        Query::Union(a, b) => {
            let ta = evaluate_rec(db, a)?;
            let tb = evaluate_rec(db, b)?;
            eval_union(&ta, &tb, kind)
        }
        Query::GroupAgg {
            group_by,
            aggs,
            input,
        } => {
            let table = evaluate_rec(db, input)?;
            eval_group_agg(&table, group_by, aggs, kind)
        }
    }
}

/// The result of evaluating a predicate on one tuple.
enum PredOutcome {
    /// The tuple is kept unchanged.
    Keep,
    /// The tuple is dropped.
    Drop,
    /// The tuple is kept with its annotation multiplied by a conditional expression.
    Conditional(SemiringExpr),
}

fn eval_select(table: &PvcTable, pred: &Predicate, kind: SemiringKind) -> Result<PvcTable, Error> {
    let mut out = PvcTable::new(table.name.clone(), table.schema.clone());
    for tuple in &table.tuples {
        match eval_predicate(table, tuple, pred, kind)? {
            PredOutcome::Drop => {}
            PredOutcome::Keep => out.tuples.push(tuple.clone()),
            PredOutcome::Conditional(cond) => {
                let annotation = tuple.annotation.clone() * cond;
                out.tuples
                    .push(Tuple::new(tuple.values.clone(), annotation));
            }
        }
    }
    Ok(out)
}

/// Resolve a column name against a schema, reporting unknown columns through the
/// [`Error`] contract instead of panicking. Queries are validated by
/// `Engine::prepare`, so a miss here indicates a schema raced away underneath a
/// prepared query — still an error, never an abort.
fn col_index(schema: &Schema, column: &str) -> Result<usize, Error> {
    schema
        .index_of(column)
        .ok_or_else(|| Error::Validation(QueryError::UnknownColumn(column.to_string())))
}

fn cell<'a>(table: &PvcTable, tuple: &'a Tuple, column: &str) -> Result<&'a Value, Error> {
    Ok(&tuple.values[col_index(&table.schema, column)?])
}

/// Fetch a cell that must hold a semimodule expression (an aggregation attribute).
fn agg_cell(table: &PvcTable, tuple: &Tuple, column: &str) -> Result<SemimoduleExpr, Error> {
    cell(table, tuple, column)?
        .as_agg()
        .cloned()
        .ok_or_else(|| Error::Validation(QueryError::PredicateSortMismatch(column.to_string())))
}

fn eval_predicate(
    table: &PvcTable,
    tuple: &Tuple,
    pred: &Predicate,
    kind: SemiringKind,
) -> Result<PredOutcome, Error> {
    Ok(match pred {
        Predicate::ColEqCol(a, b) => {
            let (va, vb) = (cell(table, tuple, a)?, cell(table, tuple, b)?);
            keep_if(va.key() == vb.key())
        }
        Predicate::ColCmpConst(a, theta, c) => {
            let va = cell(table, tuple, a)?;
            keep_if(theta.eval(&va.key(), &c.key()))
        }
        Predicate::AggCmpConst(alpha, theta, c) => {
            let expr = agg_cell(table, tuple, alpha)?;
            let constant = SemimoduleExpr::constant_in(expr.op, MonoidValue::Fin(*c), kind);
            PredOutcome::Conditional(SemiringExpr::cmp_mm(*theta, expr, constant))
        }
        Predicate::AggCmpAgg(alpha, theta, beta) => {
            let lhs = agg_cell(table, tuple, alpha)?;
            let rhs = agg_cell(table, tuple, beta)?;
            PredOutcome::Conditional(SemiringExpr::cmp_mm(*theta, lhs, rhs))
        }
        Predicate::AggCmpCol(alpha, theta, col) => {
            let lhs = agg_cell(table, tuple, alpha)?;
            let c = cell(table, tuple, col)?
                .as_int()
                .ok_or_else(|| Error::TypeMismatch {
                    column: col.to_string(),
                    expected: "an integer data column",
                })?;
            let constant = SemimoduleExpr::constant_in(lhs.op, MonoidValue::Fin(c), kind);
            PredOutcome::Conditional(SemiringExpr::cmp_mm(*theta, lhs, constant))
        }
        Predicate::And(ps) => {
            let mut conditions: Vec<SemiringExpr> = Vec::new();
            for p in ps {
                match eval_predicate(table, tuple, p, kind)? {
                    PredOutcome::Drop => return Ok(PredOutcome::Drop),
                    PredOutcome::Keep => {}
                    PredOutcome::Conditional(c) => conditions.push(c),
                }
            }
            if conditions.is_empty() {
                PredOutcome::Keep
            } else {
                PredOutcome::Conditional(SemiringExpr::product(conditions))
            }
        }
    })
}

fn keep_if(cond: bool) -> PredOutcome {
    if cond {
        PredOutcome::Keep
    } else {
        PredOutcome::Drop
    }
}

fn eval_project(table: &PvcTable, cols: &[String], kind: SemiringKind) -> Result<PvcTable, Error> {
    let indices: Vec<usize> = cols
        .iter()
        .map(|c| col_index(&table.schema, c))
        .collect::<Result<_, _>>()?;
    let schema = table
        .schema
        .try_project(cols)
        .map_err(|c| Error::Validation(QueryError::UnknownColumn(c)))?;
    let mut groups: BTreeMap<Vec<KeyValue>, (Vec<Value>, Vec<SemiringExpr>)> = BTreeMap::new();
    for tuple in &table.tuples {
        let projected: Vec<Value> = indices.iter().map(|i| tuple.values[*i].clone()).collect();
        let key: Vec<KeyValue> = projected.iter().map(Value::key).collect();
        groups
            .entry(key)
            .or_insert_with(|| (projected, Vec::new()))
            .1
            .push(tuple.annotation.clone());
    }
    let mut out = PvcTable::new(table.name.clone(), schema);
    for (_, (values, annotations)) in groups {
        let annotation = SemiringExpr::sum(annotations).simplify(kind);
        out.tuples.push(Tuple::new(values, annotation));
    }
    Ok(out)
}

/// Split a selection over a product into equi-join pairs `(left index, right index)`
/// (already resolved against the operand schemas, so the join itself cannot fail)
/// and the remaining predicate. Returns `None` if no cross-operand equality is found.
type EquijoinSplit = (Vec<(usize, usize)>, Option<Predicate>);

fn split_equijoin_predicate(
    pred: &Predicate,
    left: &PvcTable,
    right: &PvcTable,
) -> Option<EquijoinSplit> {
    let atoms: Vec<Predicate> = match pred {
        Predicate::And(ps) => ps.clone(),
        other => vec![other.clone()],
    };
    let mut pairs = Vec::new();
    let mut rest = Vec::new();
    for atom in atoms {
        match &atom {
            Predicate::ColEqCol(a, b) => {
                match (
                    left.schema.index_of(a),
                    right.schema.index_of(b),
                    left.schema.index_of(b),
                    right.schema.index_of(a),
                ) {
                    (Some(la), Some(rb), _, _) => pairs.push((la, rb)),
                    (_, _, Some(lb), Some(ra)) => pairs.push((lb, ra)),
                    _ => rest.push(atom),
                }
            }
            _ => rest.push(atom),
        }
    }
    if pairs.is_empty() {
        return None;
    }
    let rest = match rest.len() {
        0 => None,
        1 => rest.pop(),
        _ => Some(Predicate::And(rest)),
    };
    Some((pairs, rest))
}

/// Hash equi-join: equivalent to `σ_{⋀ L=R}(left × right)` but in time proportional to
/// the input plus output size.
fn eval_hash_join(left: &PvcTable, right: &PvcTable, pairs: &[(usize, usize)]) -> PvcTable {
    let schema = left
        .schema
        .try_concat(&right.schema)
        .unwrap_or_else(|dup| panic!("duplicate column `{dup}` in validated join"));
    let left_idx: Vec<usize> = pairs.iter().map(|(l, _)| *l).collect();
    let right_idx: Vec<usize> = pairs.iter().map(|(_, r)| *r).collect();
    let mut index: BTreeMap<Vec<KeyValue>, Vec<usize>> = BTreeMap::new();
    for (row, tuple) in right.tuples.iter().enumerate() {
        let key: Vec<KeyValue> = right_idx.iter().map(|i| tuple.values[*i].key()).collect();
        index.entry(key).or_default().push(row);
    }
    let mut out = PvcTable::new(format!("{}x{}", left.name, right.name), schema);
    for ltuple in &left.tuples {
        let key: Vec<KeyValue> = left_idx.iter().map(|i| ltuple.values[*i].key()).collect();
        if let Some(rows) = index.get(&key) {
            for &row in rows {
                let rtuple = &right.tuples[row];
                let mut values = ltuple.values.clone();
                values.extend(rtuple.values.iter().cloned());
                let annotation = ltuple.annotation.clone() * rtuple.annotation.clone();
                out.tuples.push(Tuple::new(values, annotation));
            }
        }
    }
    out
}

fn eval_product(a: &PvcTable, b: &PvcTable) -> PvcTable {
    let schema = a
        .schema
        .try_concat(&b.schema)
        .unwrap_or_else(|dup| panic!("duplicate column `{dup}` in validated product"));
    let mut out = PvcTable::new(format!("{}x{}", a.name, b.name), schema);
    for ta in &a.tuples {
        for tb in &b.tuples {
            let mut values = ta.values.clone();
            values.extend(tb.values.iter().cloned());
            let annotation = ta.annotation.clone() * tb.annotation.clone();
            out.tuples.push(Tuple::new(values, annotation));
        }
    }
    out
}

fn eval_union(a: &PvcTable, b: &PvcTable, kind: SemiringKind) -> Result<PvcTable, Error> {
    if a.schema.names() != b.schema.names() {
        return Err(Error::Validation(QueryError::UnionSchemaMismatch));
    }
    let mut groups: BTreeMap<Vec<KeyValue>, (Vec<Value>, Vec<SemiringExpr>)> = BTreeMap::new();
    for tuple in a.tuples.iter().chain(b.tuples.iter()) {
        let key: Vec<KeyValue> = tuple.values.iter().map(Value::key).collect();
        groups
            .entry(key)
            .or_insert_with(|| (tuple.values.clone(), Vec::new()))
            .1
            .push(tuple.annotation.clone());
    }
    let mut out = PvcTable::new(format!("{}u{}", a.name, b.name), a.schema.clone());
    for (_, (values, annotations)) in groups {
        let annotation = SemiringExpr::sum(annotations).simplify(kind);
        out.tuples.push(Tuple::new(values, annotation));
    }
    Ok(out)
}

fn eval_group_agg(
    table: &PvcTable,
    group_by: &[String],
    aggs: &[AggSpec],
    kind: SemiringKind,
) -> Result<PvcTable, Error> {
    let group_indices: Vec<usize> = group_by
        .iter()
        .map(|c| col_index(&table.schema, c))
        .collect::<Result<_, _>>()?;
    let mut columns: Vec<Column> = group_indices
        .iter()
        .map(|&i| table.schema.columns()[i].clone())
        .collect();
    columns.extend(aggs.iter().map(|a| Column::aggregation(a.alias.clone())));
    let schema = Schema::from_columns(columns);
    let mut out = PvcTable::new(table.name.clone(), schema);

    // Group tuples by the values of the group-by attributes.
    let mut groups: BTreeMap<Vec<KeyValue>, (Vec<Value>, Vec<usize>)> = BTreeMap::new();
    for (row, tuple) in table.tuples.iter().enumerate() {
        let key_values: Vec<Value> = group_indices
            .iter()
            .map(|i| tuple.values[*i].clone())
            .collect();
        let key: Vec<KeyValue> = key_values.iter().map(Value::key).collect();
        groups
            .entry(key)
            .or_insert_with(|| (key_values, Vec::new()))
            .1
            .push(row);
    }

    // With an empty group-by list, there is always exactly one (possibly empty) group;
    // its annotation is 1_K (Fig. 4, second `$` rule).
    if group_by.is_empty() && groups.is_empty() {
        groups.insert(Vec::new(), (Vec::new(), Vec::new()));
    }

    for (_, (key_values, rows)) in groups {
        let mut values = key_values;
        for spec in aggs {
            values.push(Value::Agg(build_aggregate(table, &rows, spec)?));
        }
        let annotation = if group_by.is_empty() {
            SemiringExpr::Const(kind.one())
        } else {
            // [(Σ_K Φ_t) ≠ 0_K]
            let sum = SemiringExpr::sum(
                rows.iter()
                    .map(|r| table.tuples[*r].annotation.clone())
                    .collect(),
            );
            SemiringExpr::cmp_ss(CmpOp::Ne, sum, SemiringExpr::Const(kind.zero()))
        };
        out.tuples.push(Tuple::new(values, annotation));
    }
    Ok(out)
}

/// Build `Γ = Σ_AGG (Φ_t ⊗ v_t)` over the rows of one group (Fig. 4).
fn build_aggregate(
    table: &PvcTable,
    rows: &[usize],
    spec: &AggSpec,
) -> Result<SemimoduleExpr, Error> {
    let mut expr = SemimoduleExpr::zero(spec.op);
    for &row in rows {
        let tuple = &table.tuples[row];
        let value = match &spec.column {
            None => MonoidValue::Fin(1),
            Some(col) => {
                if spec.op.is_count() {
                    MonoidValue::Fin(1)
                } else {
                    cell(table, tuple, col)?.as_monoid_value().ok_or_else(|| {
                        Error::TypeMismatch {
                            column: col.clone(),
                            expected: "integer constants under aggregation",
                        }
                    })?
                }
            }
        };
        expr.push(tuple.annotation.clone(), value);
    }
    Ok(expr)
}

#[cfg(test)]
pub(crate) mod tests {
    use super::*;
    use crate::query::Query;
    use pvc_algebra::{AggOp, SemiringValue};
    use pvc_expr::oracle::confidence_by_enumeration;

    /// Build the paper's Figure 1 database: suppliers S, product-suppliers PS and the
    /// products tables P1, P2, with all variables at probability 0.5.
    pub(crate) fn figure1_db() -> Database {
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

    /// The paper's query Q1 = π_{shop, price}[S ⋈ PS ⋈ (P1 ∪ P2)].
    pub(crate) fn paper_q1() -> Query {
        let products = Query::table("P1").union(Query::table("P2"));
        Query::table("S")
            .join(Query::table("PS"), &[("sid", "ps_sid")])
            .join(
                products.rename(&[("pid", "p_pid"), ("weight", "p_weight")]),
                &[("ps_pid", "p_pid")],
            )
            .project(["shop", "price"])
    }

    #[test]
    fn figure1_q1_result() {
        let db = figure1_db();
        let result = try_evaluate(&db, &paper_q1()).unwrap();
        // Figure 1d lists 9 result tuples: 6 for M&S and 3 for Gap.
        assert_eq!(result.len(), 9);
        let m_and_s = result
            .iter()
            .filter(|t| t.values[0].as_str() == Some("M&S"))
            .count();
        assert_eq!(m_and_s, 6);
        // The ⟨M&S, 10⟩ tuple is annotated with x1·y11·(z1 + z5): a product of the
        // supplier, the offer, and the sum of the two product alternatives.
        let t = result
            .iter()
            .find(|t| t.values[0].as_str() == Some("M&S") && t.values[1].as_int() == Some(10))
            .unwrap();
        let vars = t.annotation.vars();
        assert_eq!(vars.len(), 4);
        // Its confidence is P[x1]·P[y11]·(1 − (1−P[z1])(1−P[z5])) = 0.5·0.5·0.75.
        let p = confidence_by_enumeration(&t.annotation, &db.vars, db.kind);
        assert!((p - 0.1875).abs() < 1e-9);
    }

    #[test]
    fn figure1_q2_annotations() {
        // Q2 = π_shop σ_{P ≤ 50} $_{shop; P ← MAX(price)}[Q1].
        let db = figure1_db();
        let q2 = paper_q1()
            .group_agg(["shop"], vec![AggSpec::new(AggOp::Max, "price", "P")])
            .select(Predicate::AggCmpConst("P".into(), CmpOp::Le, 50))
            .project(["shop"]);
        let result = try_evaluate(&db, &q2).unwrap();
        assert_eq!(result.len(), 2);
        for t in result.iter() {
            // Each annotation is [α ≤ 50] · [Σ Φ ≠ 0] — a product of two conditionals.
            match &t.annotation {
                SemiringExpr::Mul(children) => assert_eq!(children.len(), 2),
                other => panic!("expected a product annotation, got {other}"),
            }
        }
    }

    #[test]
    fn example_8_aggregation_without_grouping() {
        // $_{∅; α←AGG(weight)}(P1) produces a single tuple annotated 1_K whose value is
        // z1⊗4 + z2⊗8 + z3⊗7 + z4⊗6.
        let db = figure1_db();
        let q = Query::table("P1").group_agg(
            Vec::<String>::new(),
            vec![AggSpec::new(AggOp::Sum, "weight", "alpha")],
        );
        let result = try_evaluate(&db, &q).unwrap();
        assert_eq!(result.len(), 1);
        let tuple = &result.tuples[0];
        assert_eq!(
            tuple.annotation,
            SemiringExpr::Const(SemiringValue::Bool(true))
        );
        let alpha = tuple.values[0].as_agg().unwrap();
        assert_eq!(alpha.num_terms(), 4);
        assert_eq!(alpha.op, AggOp::Sum);
    }

    #[test]
    fn aggregation_without_grouping_on_empty_input() {
        // The result still contains one tuple whose aggregate is the neutral element.
        let mut db = Database::new();
        db.create_table("E", Schema::new(["v"]));
        let q = Query::table("E").group_agg(
            Vec::<String>::new(),
            vec![AggSpec::new(AggOp::Min, "v", "m"), AggSpec::count("c")],
        );
        let result = try_evaluate(&db, &q).unwrap();
        assert_eq!(result.len(), 1);
        let m = result.tuples[0].values[0].as_agg().unwrap();
        assert_eq!(m.num_terms(), 0);
        assert_eq!(m.op, AggOp::Min);
    }

    #[test]
    fn projection_sums_annotations() {
        let db = figure1_db();
        // π_shop(S): shop M&S is derived from three suppliers — annotation x1+x2+x3.
        let q = Query::table("S").project(["shop"]);
        let result = try_evaluate(&db, &q).unwrap();
        assert_eq!(result.len(), 2);
        let mands = result
            .iter()
            .find(|t| t.values[0].as_str() == Some("M&S"))
            .unwrap();
        assert_eq!(mands.annotation.vars().len(), 3);
        let p = confidence_by_enumeration(&mands.annotation, &db.vars, db.kind);
        assert!((p - (1.0 - 0.5f64.powi(3))).abs() < 1e-9);
    }

    #[test]
    fn union_merges_duplicates() {
        let mut db = Database::new();
        db.create_table("A", Schema::new(["pid"]));
        db.create_table("B", Schema::new(["pid"]));
        {
            let (a, vars) = db.table_and_vars_mut("A").unwrap();
            a.push_independent(vec![1i64.into()], 0.5, vars);
            a.push_independent(vec![2i64.into()], 0.5, vars);
        }
        {
            let (b, vars) = db.table_and_vars_mut("B").unwrap();
            b.push_independent(vec![1i64.into()], 0.5, vars);
        }
        let result = try_evaluate(&db, &Query::table("A").union(Query::table("B"))).unwrap();
        assert_eq!(result.len(), 2);
        let one = result
            .iter()
            .find(|t| t.values[0].as_int() == Some(1))
            .unwrap();
        // Annotation of pid=1 is the sum of two variables.
        assert_eq!(one.annotation.vars().len(), 2);
    }

    #[test]
    fn selection_on_data_columns_filters() {
        let db = figure1_db();
        let q = Query::table("S").select(Predicate::eq_const("shop", "Gap"));
        let result = try_evaluate(&db, &q).unwrap();
        assert_eq!(result.len(), 2);
        let q = Query::table("PS").select(Predicate::ColCmpConst(
            "price".into(),
            CmpOp::Ge,
            Value::Int(50),
        ));
        let result = try_evaluate(&db, &q).unwrap();
        assert_eq!(result.len(), 3);
    }

    #[test]
    fn count_aggregate_uses_unit_values() {
        let db = figure1_db();
        let q = Query::table("PS").group_agg(["ps_sid"], vec![AggSpec::count("cnt")]);
        let result = try_evaluate(&db, &q).unwrap();
        assert_eq!(result.len(), 5);
        for t in result.iter() {
            let cnt = t.values[1].as_agg().unwrap();
            assert!(cnt
                .terms
                .iter()
                .all(|term| term.value == MonoidValue::Fin(1)));
            assert_eq!(cnt.op, AggOp::Count);
        }
    }
}
