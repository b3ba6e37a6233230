//! The Fig. 4 rewriting `⟦·⟧`, operator at a time over owned tables: the
//! **specification** `tests/step_one_differential.rs` holds the production executor
//! (`pvc_db::exec`) to.
//!
//! These are the functions `pvc_db::exec` consisted of before it became a
//! late-materialising executor, moved here unchanged apart from the `use` paths:
//! every operator clones its input, every predicate is applied where it is written,
//! and nothing is shared between operators — which is what makes it the literal
//! reading of Fig. 4:
//!
//! * joint use of data (product/join) multiplies annotations;
//! * alternative use of data (projection/union) sums annotations;
//! * selection multiplies the annotation with a conditional expression when the
//!   predicate involves aggregation attributes, and plainly filters otherwise;
//! * the `$` operator builds semimodule expressions `Σ_AGG Φ_t ⊗ v_t` per group and
//!   annotates grouped results with the group-non-emptiness condition
//!   `[(Σ_K Φ_t) ≠ 0_K]`.

use pvc_suite::algebra::{CmpOp, MonoidValue, SemiringKind};
use pvc_suite::db::{
    AggSpec, Column, Database, Error, KeyValue, Predicate, PvcTable, Query, QueryError, Schema,
    Tuple, Value,
};
use pvc_suite::expr::{SemimoduleExpr, SemiringExpr};
use std::collections::BTreeMap;

/// `⟦query⟧` over `db`: validate (Definition 5), evaluate operator by operator, stamp
/// the validated schema and the result name — the contract of
/// `pvc_db::try_evaluate`.
pub fn try_evaluate(db: &Database, query: &Query) -> Result<PvcTable, Error> {
    let schema = query.output_schema(db).map_err(Error::Validation)?;
    let mut result = evaluate_rec(db, query)?;
    result.schema = schema;
    result.name = "result".to_string();
    Ok(result)
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
