//! Step I against its specification: the production executor (`pvc_db::exec`, late
//! materialisation over borrowed tables, pushed-down selections, row-id joins) must
//! return the *same table* — tuple order, values, annotation trees, term order of
//! every semimodule expression — as the operator-at-a-time reading of Fig. 4 in
//! `tests/support/fig4_reference.rs`.
//!
//! Three layers: hand-written queries for every way a selection can sit relative to
//! the operators it may or may not sink through; seeded random queries over small
//! random databases (`PVC_ORACLE_SEED=<u64>` adds one more seed to the sweep, which
//! is how a failure found elsewhere is replayed here); and the TPC-H queries of the
//! benchmark at its scale factor.

#[path = "support/fig4_reference.rs"]
mod fig4_reference;

use pvc_suite::prelude::*;
use pvc_suite::prob::SeededRng;
use pvc_suite::tpch::{generate, q1, q2, TpchConfig};
use std::collections::HashSet;

/// Both executors on one query; returns the (common) result.
fn assert_same(db: &Database, query: &Query) -> PvcTable {
    let expected = fig4_reference::try_evaluate(db, query)
        .unwrap_or_else(|e| panic!("the reference rejects {query:?}: {e}"));
    let actual =
        try_evaluate(db, query).unwrap_or_else(|e| panic!("step I rejects {query:?}: {e}"));
    assert_eq!(actual, expected, "step I differs from Fig. 4 on {query:?}");
    actual
}

// ---------------------------------------------------------------------------
// Hand-written shapes
// ---------------------------------------------------------------------------

/// The Figure 1 database over the semiring `kind`, plus an empty table `E`, a
/// table `N` keyed by shop name and a table `C` of certain tuples (annotation `1_K`).
fn shop_db(kind: SemiringKind) -> Database {
    let mut db = Database::with_kind(kind);
    db.create_table("S", Schema::new(["sid", "shop"]));
    db.create_table("PS", Schema::new(["ps_sid", "ps_pid", "price"]));
    db.create_table("P1", Schema::new(["pid", "weight"]));
    db.create_table("P2", Schema::new(["pid", "weight"]));
    db.create_table("E", Schema::new(["e_id", "e_name"]));
    db.create_table("N", Schema::new(["n_id", "n_shop"]));
    db.create_table("C", Schema::new(["c_id"]));
    let rows: [(&str, Vec<Vec<Value>>); 5] = [
        (
            "S",
            [(1, "M&S"), (2, "M&S"), (3, "M&S"), (4, "Gap"), (5, "Gap")]
                .iter()
                .map(|&(sid, shop)| vec![Value::Int(sid), shop.into()])
                .collect(),
        ),
        (
            "PS",
            [
                (1, 1, 10),
                (1, 2, 50),
                (2, 1, 11),
                (2, 2, 60),
                (3, 3, 15),
                (3, 4, 40),
                (4, 1, 15),
                (4, 3, 60),
                (5, 1, 10),
            ]
            .iter()
            .map(|&(s, p, price)| vec![Value::Int(s), Value::Int(p), Value::Int(price)])
            .collect(),
        ),
        (
            "P1",
            [(1, 4), (2, 8), (3, 7), (4, 6)]
                .iter()
                .map(|&(pid, weight)| vec![Value::Int(pid), Value::Int(weight)])
                .collect(),
        ),
        ("P2", vec![vec![Value::Int(1), Value::Int(5)]]),
        (
            "N",
            [(1, "M&S"), (9, "Gap"), (4, "Gap"), (7, "Next")]
                .iter()
                .map(|&(id, shop)| vec![Value::Int(id), shop.into()])
                .collect(),
        ),
    ];
    for (name, tuples) in rows {
        let (table, vars) = db.table_and_vars_mut(name).unwrap();
        for values in tuples {
            table.push_independent(values, 0.5, vars);
        }
    }
    let certain = db.table_mut("C").unwrap();
    for id in [1, 2] {
        let one = SemiringExpr::Const(kind.one());
        certain.try_push(vec![Value::Int(id)], one).unwrap();
    }
    db
}

fn table(name: &str) -> Query {
    Query::table(name)
}

fn cmp(column: &str, theta: CmpOp, constant: impl Into<Value>) -> Predicate {
    Predicate::ColCmpConst(column.into(), theta, constant.into())
}

fn s_join_ps() -> Query {
    table("S").join(table("PS"), &[("sid", "ps_sid")])
}

/// The paper's Q1 = π_{shop, price}[S ⋈ PS ⋈ (P1 ∪ P2)].
fn paper_q1() -> Query {
    let products = table("P1")
        .union(table("P2"))
        .rename(&[("pid", "p_pid"), ("weight", "p_weight")]);
    s_join_ps()
        .join(products, &[("ps_pid", "p_pid")])
        .project(["shop", "price"])
}

fn ps_inner() -> Query {
    table("PS").rename(&[
        ("ps_sid", "ps_sid_i"),
        ("ps_pid", "ps_pid_i"),
        ("price", "price_i"),
    ])
}

fn hand_written() -> Vec<(&'static str, Query)> {
    let max_price = |q: Query| {
        q.group_agg(
            ["shop"],
            vec![AggSpec::new(AggOp::Max, "price", "m"), AggSpec::count("c")],
        )
    };
    let min_per_supplier =
        table("PS").group_agg(["ps_sid"], vec![AggSpec::new(AggOp::Min, "price", "m")]);
    vec![
        ("bare table", table("S")),
        (
            "selection above a join, one conjunct per operand",
            s_join_ps().select(Predicate::And(vec![
                cmp("price", CmpOp::Ge, 15i64),
                Predicate::eq_const("shop", "M&S"),
            ])),
        ),
        (
            "selections below a join",
            table("S").select(Predicate::eq_const("shop", "Gap")).join(
                table("PS").select(cmp("price", CmpOp::Lt, 50i64)),
                &[("sid", "ps_sid")],
            ),
        ),
        (
            "selections between and above joins",
            s_join_ps()
                .select(cmp("price", CmpOp::Le, 40i64))
                .join(
                    table("P1").rename(&[("pid", "p_pid"), ("weight", "p_weight")]),
                    &[("ps_pid", "p_pid")],
                )
                .select(cmp("p_weight", CmpOp::Gt, 4i64)),
        ),
        (
            "predicate on renamed columns, renamed twice",
            table("S")
                .rename(&[("sid", "s"), ("shop", "name")])
                .rename(&[("name", "label"), ("s", "name")])
                .select(Predicate::And(vec![
                    Predicate::eq_const("label", "Gap"),
                    cmp("name", CmpOp::Ge, 5i64),
                ])),
        ),
        (
            "product without an equality, predicate on the right operand",
            table("S")
                .product(table("PS"))
                .select(Predicate::eq_const("price", 10i64)),
        ),
        (
            "bare product",
            table("P2").product(table("S")).product(table("C")),
        ),
        (
            "equality over both operands arriving two selections later",
            table("S")
                .product(table("PS"))
                .select(cmp("price", CmpOp::Ge, 11i64))
                .select(Predicate::eq_col("sid", "ps_sid")),
        ),
        (
            "equality written right-to-left",
            table("S")
                .product(table("PS"))
                .select(Predicate::eq_col("ps_sid", "sid")),
        ),
        (
            "equality within one operand",
            table("PS")
                .product(table("C"))
                .select(Predicate::eq_col("ps_sid", "ps_pid")),
        ),
        (
            "conjuncts over aggregation attributes mixed with data conjuncts",
            max_price(s_join_ps()).select(Predicate::And(vec![
                Predicate::AggCmpConst("m".into(), CmpOp::Le, 50),
                Predicate::eq_const("shop", "M&S"),
                Predicate::AggCmpAgg("m".into(), CmpOp::Ge, "c".into()),
            ])),
        ),
        (
            "bare and nested conjunctions over aggregation attributes",
            max_price(s_join_ps())
                .select(Predicate::AggCmpConst("c".into(), CmpOp::Ge, 2))
                .select(Predicate::And(vec![
                    Predicate::And(vec![
                        Predicate::AggCmpConst("m".into(), CmpOp::Gt, 10),
                        Predicate::AggCmpConst("m".into(), CmpOp::Lt, 70),
                    ]),
                    Predicate::And(vec![Predicate::AggCmpConst("c".into(), CmpOp::Ne, 0)]),
                    Predicate::And(vec![cmp("shop", CmpOp::Ne, "Next")]),
                ])),
        ),
        (
            "selection over a projection",
            s_join_ps()
                .project(["shop", "price"])
                .select(cmp("price", CmpOp::Gt, 10i64)),
        ),
        (
            "selection over a union",
            table("P1")
                .union(table("P2"))
                .select(cmp("weight", CmpOp::Ge, 5i64)),
        ),
        (
            "selection over a grouping",
            table("PS")
                .group_agg(["ps_sid"], vec![AggSpec::count("cnt")])
                .select(cmp("ps_sid", CmpOp::Le, 3i64)),
        ),
        (
            "selection over a grouping, joined afterwards",
            table("PS")
                .group_agg(["ps_sid"], vec![AggSpec::count("cnt")])
                .product(table("S"))
                .select(Predicate::And(vec![
                    cmp("ps_sid", CmpOp::Le, 3i64),
                    Predicate::eq_col("sid", "ps_sid"),
                    Predicate::AggCmpCol("cnt".into(), CmpOp::Le, "sid".into()),
                ])),
        ),
        (
            "self-join through rename on a two-column key",
            table("PS").join(
                ps_inner(),
                &[("ps_sid", "ps_sid_i"), ("ps_pid", "ps_pid_i")],
            ),
        ),
        (
            "self-join through rename on a string key",
            table("S")
                .product(table("S").rename(&[("sid", "sid2"), ("shop", "shop2")]))
                .select(Predicate::eq_col("shop", "shop2")),
        ),
        (
            "string join key",
            table("S")
                .join(table("N"), &[("shop", "n_shop")])
                .project(["n_id", "shop"]),
        ),
        (
            "integer column joined to a string column",
            table("S").join(table("N"), &[("sid", "n_shop")]),
        ),
        (
            "constants of the other sort",
            table("S").select(cmp("sid", CmpOp::Lt, "x")).union(
                table("S")
                    .select(cmp("shop", CmpOp::Le, 3i64))
                    .union(table("S").select(cmp("shop", CmpOp::Ne, 3i64))),
            ),
        ),
        (
            "empty right operand",
            table("S").join(table("E"), &[("sid", "e_id")]),
        ),
        (
            "empty left operand",
            table("E").join(table("S"), &[("e_id", "sid")]),
        ),
        (
            "product with an empty operand",
            table("S").product(table("E")),
        ),
        (
            "empty result of a selection, projected",
            table("S")
                .select(Predicate::eq_const("shop", "nope"))
                .project(["shop"]),
        ),
        (
            "union with an empty operand",
            table("E")
                .rename(&[("e_id", "sid"), ("e_name", "shop")])
                .union(table("S")),
        ),
        (
            "grouping an empty input by a column",
            table("E").group_agg(["e_name"], vec![AggSpec::count("c")]),
        ),
        (
            "aggregation without grouping on an empty table",
            table("E").group_agg(
                Vec::<String>::new(),
                vec![AggSpec::new(AggOp::Min, "e_id", "m"), AggSpec::count("c")],
            ),
        ),
        (
            "aggregation without grouping on an empty selection, joined back",
            table("S").product(
                table("PS")
                    .select(cmp("price", CmpOp::Gt, 1_000i64))
                    .group_agg(
                        Vec::<String>::new(),
                        vec![AggSpec::new(AggOp::Sum, "price", "total")],
                    ),
            ),
        ),
        (
            "aggregation without grouping",
            table("P1").group_agg(
                Vec::<String>::new(),
                vec![
                    AggSpec::new(AggOp::Sum, "weight", "w"),
                    AggSpec::new(AggOp::Count, "weight", "n"),
                ],
            ),
        ),
        (
            "nested aggregate joined back (Example 3)",
            table("PS")
                .join(
                    ps_inner().group_agg(
                        ["ps_pid_i"],
                        vec![AggSpec::new(AggOp::Min, "price_i", "cheapest")],
                    ),
                    &[("ps_pid", "ps_pid_i")],
                )
                .select(Predicate::AggCmpCol(
                    "cheapest".into(),
                    CmpOp::Eq,
                    "price".into(),
                ))
                .project(["ps_sid", "ps_pid"]),
        ),
        (
            "aggregate selection below a later join",
            min_per_supplier
                .clone()
                .select(Predicate::AggCmpConst("m".into(), CmpOp::Le, 20))
                .join(table("S"), &[("ps_sid", "sid")])
                .project(["shop"]),
        ),
        (
            "aggregate selection below a later join, on the right",
            table("S").join(
                min_per_supplier
                    .clone()
                    .select(Predicate::AggCmpConst("m".into(), CmpOp::Le, 20)),
                &[("sid", "ps_sid")],
            ),
        ),
        (
            "two aggregate selections around a join",
            min_per_supplier
                .select(Predicate::AggCmpConst("m".into(), CmpOp::Le, 20))
                .join(table("S"), &[("ps_sid", "sid")])
                .select(Predicate::And(vec![
                    Predicate::AggCmpCol("m".into(), CmpOp::Gt, "sid".into()),
                    cmp("shop", CmpOp::Eq, "M&S"),
                ])),
        ),
        (
            "certain tuples in a three-way product",
            table("C")
                .product(table("P2"))
                .product(table("C").rename(&[("c_id", "c_id2")])),
        ),
        (
            "certain tuples only",
            table("C")
                .product(table("C").rename(&[("c_id", "c_id2")]))
                .project(["c_id"]),
        ),
        (
            "bushy join",
            s_join_ps().join(
                table("P1").join(
                    table("P2").rename(&[("pid", "pid2"), ("weight", "weight2")]),
                    &[("pid", "pid2")],
                ),
                &[("ps_pid", "pid")],
            ),
        ),
        ("Figure 1, Q1", paper_q1()),
        (
            "Figure 1, Q2",
            paper_q1()
                .group_agg(["shop"], vec![AggSpec::new(AggOp::Max, "price", "P")])
                .select(Predicate::AggCmpConst("P".into(), CmpOp::Le, 50))
                .project(["shop"]),
        ),
    ]
}

#[test]
fn hand_written_shapes_match_the_reference() {
    let db = shop_db(SemiringKind::Bool);
    let mut non_empty = 0;
    for (what, query) in hand_written() {
        query
            .output_schema(&db)
            .unwrap_or_else(|e| panic!("{what}: invalid query: {e}"));
        let result = assert_same(&db, &query);
        non_empty += usize::from(!result.is_empty());
    }
    // The shapes are not vacuous: most of them produce tuples.
    assert!(non_empty >= 25, "only {non_empty} non-empty results");
}

#[test]
fn over_the_natural_number_semiring_too() {
    // Bag semantics changes `1_K`, `0_K` and what `simplify` may fold.
    let db = shop_db(SemiringKind::Nat);
    for (_, query) in hand_written() {
        assert_same(&db, &query);
    }
}

// ---------------------------------------------------------------------------
// Seeded random queries over small random databases
// ---------------------------------------------------------------------------

#[derive(Debug, Clone, Copy, PartialEq)]
enum Sort {
    Int,
    Str,
    /// A data column holding both integers and strings.
    Mixed,
    Agg,
}

#[derive(Debug, Clone)]
struct Col {
    name: String,
    sort: Sort,
}

struct BaseTable {
    name: String,
    columns: Vec<Col>,
    rows: usize,
}

const STRINGS: [&str; 3] = ["a", "b", "c"];
const OPS: [CmpOp; 6] = [
    CmpOp::Eq,
    CmpOp::Ne,
    CmpOp::Le,
    CmpOp::Ge,
    CmpOp::Lt,
    CmpOp::Gt,
];

fn pick<'x, T>(rng: &mut SeededRng, items: &'x [T]) -> &'x T {
    &items[rng.gen_range(0..items.len())]
}

fn chance(rng: &mut SeededRng, percent: usize) -> bool {
    rng.gen_range(0..100usize) < percent
}

fn random_constant(rng: &mut SeededRng, sort: Sort) -> Value {
    let int = match sort {
        Sort::Int => !chance(rng, 10),
        Sort::Str => chance(rng, 10),
        Sort::Mixed | Sort::Agg => chance(rng, 50),
    };
    if int {
        Value::Int(rng.gen_range(0..3i64))
    } else {
        (*pick(rng, &STRINGS)).into()
    }
}

/// Four small tables (zero to five rows, one to three data columns over tiny
/// domains so joins and groups collide), annotated with fresh variables, `1_K`, or
/// products and sums of fresh variables.
fn random_db(rng: &mut SeededRng) -> (Database, Vec<BaseTable>) {
    let kind = *pick(
        rng,
        &[SemiringKind::Bool, SemiringKind::Bool, SemiringKind::Nat],
    );
    let mut db = Database::with_kind(kind);
    let mut tables = Vec::new();
    for t in 0..4 {
        let name = format!("T{t}");
        let columns: Vec<Col> = (0..rng.gen_range(1..=3usize))
            .map(|c| Col {
                name: format!("t{t}_{c}"),
                sort: *pick(
                    rng,
                    &[Sort::Int, Sort::Int, Sort::Int, Sort::Str, Sort::Mixed],
                ),
            })
            .collect();
        db.create_table(&name, Schema::new(columns.iter().map(|c| c.name.clone())));
        let rows = if chance(rng, 15) {
            0
        } else {
            rng.gen_range(1..=5usize)
        };
        let (table, vars) = db.table_and_vars_mut(&name).unwrap();
        for row in 0..rows {
            let values: Vec<Value> = columns
                .iter()
                .map(|c| match random_constant(rng, c.sort) {
                    // Constants of the other sort are for predicates only.
                    Value::Str(_) if c.sort == Sort::Int => Value::Int(0),
                    Value::Int(_) if c.sort == Sort::Str => "a".into(),
                    value => value,
                })
                .collect();
            let mut var =
                |tag: &str| SemiringExpr::Var(vars.boolean(format!("{name}#{row}{tag}"), 0.5));
            match rng.gen_range(0..10usize) {
                0 => table
                    .try_push(values, SemiringExpr::Const(kind.one()))
                    .unwrap(),
                1 => table.try_push(values, var("l") * var("r")).unwrap(),
                2 => table.try_push(values, var("l") + var("r")).unwrap(),
                _ => table.try_push(values, var("")).unwrap(),
            }
        }
        tables.push(BaseTable {
            name,
            columns,
            rows,
        });
    }
    (db, tables)
}

/// A generator of valid queries: it tracks the output columns (and their sorts) of
/// everything it builds, keeps column names unique across a query by renaming, and
/// keeps products small by tracking an upper bound on the number of rows.
struct QueryGen<'r> {
    rng: &'r mut SeededRng,
    tables: &'r [BaseTable],
    used: HashSet<String>,
    fresh: usize,
}

struct Built {
    query: Query,
    columns: Vec<Col>,
    /// Upper bound on the number of result rows.
    rows: usize,
}

impl QueryGen<'_> {
    fn fresh(&mut self, prefix: &str) -> String {
        self.fresh += 1;
        format!("{prefix}{}", self.fresh)
    }

    fn columns_where(columns: &[Col], keep: impl Fn(Sort) -> bool) -> Vec<Col> {
        columns.iter().filter(|c| keep(c.sort)).cloned().collect()
    }

    fn build(&mut self, depth: usize) -> Built {
        if depth == 0 {
            return self.scan();
        }
        match self.rng.gen_range(0..12usize) {
            0 => self.scan(),
            1..=3 => self.select(depth),
            4 => self.project(depth),
            5..=7 => self.join(depth),
            8 => self.union(depth),
            _ => self.group_agg(depth),
        }
    }

    /// A base table; columns whose names the query already uses are renamed, and
    /// so are some others.
    fn scan(&mut self) -> Built {
        let base = pick(self.rng, self.tables);
        let mut mapping = Vec::new();
        let mut columns = Vec::new();
        for column in &base.columns {
            let mut name = column.name.clone();
            if self.used.contains(&name) || chance(self.rng, 30) {
                name = self.fresh("r");
                mapping.push((column.name.clone(), name.clone()));
            }
            self.used.insert(name.clone());
            columns.push(Col {
                name,
                sort: column.sort,
            });
        }
        let mut query = Query::table(&base.name);
        if !mapping.is_empty() {
            let pairs: Vec<(&str, &str)> = mapping
                .iter()
                .map(|(old, new)| (old.as_str(), new.as_str()))
                .collect();
            query = query.rename(&pairs);
        }
        Built {
            query,
            columns,
            rows: base.rows,
        }
    }

    fn atom(&mut self, columns: &[Col]) -> Predicate {
        let data = Self::columns_where(columns, |s| s != Sort::Agg);
        let ints = Self::columns_where(columns, |s| s == Sort::Int);
        let aggs = Self::columns_where(columns, |s| s == Sort::Agg);
        let theta = *pick(self.rng, &OPS);
        if !aggs.is_empty() && (data.is_empty() || chance(self.rng, 50)) {
            let alpha = pick(self.rng, &aggs).name.clone();
            return match self.rng.gen_range(0..3usize) {
                0 if !ints.is_empty() => {
                    Predicate::AggCmpCol(alpha, theta, pick(self.rng, &ints).name.clone())
                }
                1 => Predicate::AggCmpAgg(alpha, theta, pick(self.rng, &aggs).name.clone()),
                _ => Predicate::AggCmpConst(alpha, theta, self.rng.gen_range(0..4i64)),
            };
        }
        let a = pick(self.rng, &data).clone();
        if chance(self.rng, 30) {
            Predicate::eq_col(a.name, pick(self.rng, &data).name.clone())
        } else {
            Predicate::ColCmpConst(a.name, theta, random_constant(self.rng, a.sort))
        }
    }

    /// One to three conjuncts: bare, flat, or partly nested.
    fn predicate(&mut self, columns: &[Col], mut atoms: Vec<Predicate>) -> Predicate {
        for _ in 0..self.rng.gen_range(0..3usize) {
            atoms.push(self.atom(columns));
        }
        if atoms.is_empty() {
            atoms.push(self.atom(columns));
        }
        if atoms.len() == 1 && chance(self.rng, 60) {
            return atoms.remove(0);
        }
        if atoms.len() > 1 && chance(self.rng, 25) {
            let tail = atoms.split_off(1);
            atoms.push(Predicate::And(tail));
        }
        Predicate::And(atoms)
    }

    fn select(&mut self, depth: usize) -> Built {
        let input = self.build(depth - 1);
        let predicate = self.predicate(&input.columns, Vec::new());
        Built {
            query: input.query.select(predicate),
            ..input
        }
    }

    /// `n` of `columns`, in random order.
    fn draw(&mut self, mut columns: Vec<Col>, n: usize) -> Vec<Col> {
        (0..n)
            .map(|_| columns.remove(self.rng.gen_range(0..columns.len())))
            .collect()
    }

    fn project(&mut self, depth: usize) -> Built {
        let input = self.build(depth - 1);
        let data = Self::columns_where(&input.columns, |s| s != Sort::Agg);
        if data.is_empty() {
            return input;
        }
        let arity = self.rng.gen_range(1..=data.len().min(3));
        let columns = self.draw(data, arity);
        Built {
            query: input.query.project(columns.iter().map(|c| c.name.clone())),
            columns,
            rows: input.rows,
        }
    }

    fn join(&mut self, depth: usize) -> Built {
        let left = self.build(depth - 1);
        let right = self.build(depth - 1);
        if left.rows * right.rows > 300 {
            return left;
        }
        let mut columns = left.columns.clone();
        columns.extend(right.columns.iter().cloned());
        let mut query = left.query.product(right.query);
        let left_data = Self::columns_where(&left.columns, |s| s != Sort::Agg);
        let right_data = Self::columns_where(&right.columns, |s| s != Sort::Agg);
        if !left_data.is_empty() && !right_data.is_empty() && chance(self.rng, 75) {
            let mut equalities = Vec::new();
            for _ in 0..self.rng.gen_range(1..=2usize) {
                let l = pick(self.rng, &left_data).name.clone();
                let r = pick(self.rng, &right_data).name.clone();
                equalities.push(if chance(self.rng, 50) {
                    Predicate::eq_col(l, r)
                } else {
                    Predicate::eq_col(r, l)
                });
            }
            query = query.select(self.predicate(&columns, equalities));
        }
        Built {
            query,
            columns,
            rows: left.rows * right.rows,
        }
    }

    /// Both operands cut to the same number of data columns (by a projection,
    /// unless an operand has exactly that many columns already), the right one
    /// renamed to the left one's names.
    fn union(&mut self, depth: usize) -> Built {
        let left = self.build(depth - 1);
        let right = self.build(depth - 1);
        let left_data = Self::columns_where(&left.columns, |s| s != Sort::Agg);
        let right_data = Self::columns_where(&right.columns, |s| s != Sort::Agg);
        let most = left_data.len().min(right_data.len());
        if most == 0 {
            return left;
        }
        let arity = if chance(self.rng, 50) {
            most
        } else {
            self.rng.gen_range(1..=most)
        };
        let rows = left.rows + right.rows;
        let mut cut = |side: Built, data: Vec<Col>| {
            if side.columns.len() == arity && data.len() == arity {
                return (side.query, side.columns);
            }
            let kept = self.draw(data, arity);
            let query = side.query.project(kept.iter().map(|c| c.name.clone()));
            (query, kept)
        };
        let (left_query, left_columns) = cut(left, left_data);
        let (right_query, right_columns) = cut(right, right_data);
        let pairs: Vec<(&str, &str)> = right_columns
            .iter()
            .zip(&left_columns)
            .map(|(r, l)| (r.name.as_str(), l.name.as_str()))
            .collect();
        let columns = left_columns
            .iter()
            .zip(&right_columns)
            .map(|(l, r)| Col {
                name: l.name.clone(),
                sort: if l.sort == r.sort {
                    l.sort
                } else {
                    Sort::Mixed
                },
            })
            .collect();
        Built {
            query: left_query.union(right_query.rename(&pairs)),
            columns,
            rows,
        }
    }

    fn group_agg(&mut self, depth: usize) -> Built {
        let input = self.build(depth - 1);
        let data = Self::columns_where(&input.columns, |s| s != Sort::Agg);
        let ints = Self::columns_where(&input.columns, |s| s == Sort::Int);
        let mut columns = if data.is_empty() || chance(self.rng, 25) {
            Vec::new()
        } else {
            let arity = self.rng.gen_range(1..=data.len().min(2));
            self.draw(data, arity)
        };
        let group_by: Vec<String> = columns.iter().map(|c| c.name.clone()).collect();
        let mut aggs = Vec::new();
        for _ in 0..self.rng.gen_range(1..=2usize) {
            let alias = self.fresh("g");
            aggs.push(if !ints.is_empty() && chance(self.rng, 75) {
                let op = *pick(
                    self.rng,
                    &[AggOp::Min, AggOp::Max, AggOp::Sum, AggOp::Count],
                );
                AggSpec::new(op, pick(self.rng, &ints).name.clone(), alias.clone())
            } else {
                AggSpec::count(alias.clone())
            });
            columns.push(Col {
                name: alias,
                sort: Sort::Agg,
            });
        }
        Built {
            query: input.query.group_agg(group_by, aggs),
            columns,
            rows: input.rows.max(1),
        }
    }
}

/// Seeds every sweep runs: two fixed, plus `PVC_ORACLE_SEED` when set.
fn seeds() -> Vec<u64> {
    let mut seeds = vec![1, 42];
    if let Ok(extra) = std::env::var("PVC_ORACLE_SEED") {
        seeds.push(extra.parse().expect("PVC_ORACLE_SEED must be a u64"));
    }
    seeds
}

#[test]
fn random_queries_match_the_reference() {
    for seed in seeds() {
        let mut rng = SeededRng::seed_from_u64(seed);
        let (mut queries, mut non_empty, mut conditional, mut joins) = (0, 0, 0, 0);
        for _ in 0..40 {
            let (db, tables) = random_db(&mut rng);
            for _ in 0..25 {
                let mut gen = QueryGen {
                    rng: &mut rng,
                    tables: &tables,
                    used: HashSet::new(),
                    fresh: 0,
                };
                let query = gen.build(4).query;
                query
                    .output_schema(&db)
                    .unwrap_or_else(|e| panic!("seed {seed}: generated {query:?}: {e}"));
                let result = assert_same(&db, &query);
                let rendered = format!("{query:?}");
                queries += 1;
                non_empty += usize::from(!result.is_empty());
                conditional += usize::from(rendered.contains("AggCmp"));
                joins += usize::from(rendered.contains("Product"));
            }
        }
        // The sweep exercises what it is for.
        assert!(
            non_empty * 3 > queries,
            "seed {seed}: {non_empty} non-empty"
        );
        assert!(
            conditional * 10 > queries,
            "seed {seed}: {conditional} conditionals"
        );
        assert!(joins * 4 > queries, "seed {seed}: {joins} joins");
    }
}

// ---------------------------------------------------------------------------
// The benchmark's queries at the benchmark's scale
// ---------------------------------------------------------------------------

#[test]
fn tpch_queries_match_the_reference() {
    let db = generate(&TpchConfig {
        scale_factor: 0.5,
        ..TpchConfig::default()
    });
    for cutoff in [0, 1_000, 2_000, 10_000] {
        assert_same(&db, &q1(cutoff));
    }
    let mut tuples = 0;
    for region in ["AFRICA", "AMERICA", "ASIA", "EUROPE", "MIDDLE EAST"] {
        tuples += assert_same(&db, &q2(region, 25)).len();
    }
    assert!(
        tuples > 100,
        "Q2 returned only {tuples} tuples over all regions"
    );
    assert!(assert_same(&db, &q2("ATLANTIS", 25)).is_empty());
}
