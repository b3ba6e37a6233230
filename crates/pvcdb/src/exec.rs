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
//!
//! The executor materialises late. A query is first resolved into a `Node` tree
//! (names become column positions, `δ` disappears into the schema, and every data
//! conjunct of a `σ` sinks to the operand it constrains); the tree is then run over
//! `Rel`s — lists of row ids into tuples *borrowed* from the database — and
//! `Value`s and annotations are only built where Fig. 4 creates new tuples: at `π`,
//! `∪`, `$` and the root. The result table is equal — tuple order, values, annotation
//! trees — to evaluating Fig. 4 one operator at a time over owned tables; that
//! reference executor is `tests/support/fig4_reference.rs`, and
//! `tests/step_one_differential.rs` holds this module to it. See "Step I" in
//! `docs/ARCHITECTURE.md`.
//!
//! Grouping and join build sides hash their keys with `KeyHasher`, not
//! SipHash: an integer key is one word, a string its bytes in 8-byte words plus
//! its length, each word one folded multiply. Keys are data, so each index is
//! seeded from the standard library's random keys and colliding keys cannot be
//! prepared offline; and since groups are numbered in first-occurrence order
//! and walked in key order, no tuple order depends on the hasher or its seed.

use crate::database::Database;
use crate::error::Error;
use crate::query::{Predicate, Query, QueryError};
use crate::relation::{PvcTable, Tuple};
use crate::schema::{Column, Schema};
use crate::value::Value;
use pvc_algebra::{AggOp, CmpOp, MonoidValue, SemiringKind, SemiringValue};
use pvc_expr::{SemimoduleExpr, SemiringExpr, VarTable};
use std::borrow::Cow;
use std::collections::hash_map::RandomState;
use std::collections::HashMap;
use std::hash::{BuildHasher, Hash, Hasher};

/// Evaluate a query over a pvc-database, producing the result pvc-table (tuples with
/// annotations and semimodule values, but no probabilities yet).
///
/// The query is validated first (the checks of Definition 5); validation failures,
/// unknown tables and type mismatches are reported as [`Error`] values rather than
/// panics. This is step I of the engine; prefer [`crate::Engine::prepare`] when the
/// same query is executed more than once.
pub fn try_evaluate(db: &Database, query: &Query) -> Result<PvcTable, Error> {
    let schema = query.output_schema(db).map_err(Error::Validation)?;
    let mut result = rewrite_planned(db, query)?;
    result.schema = schema;
    result.name = "result".to_string();
    Ok(result)
}

/// Step I without the upfront validation walk, for queries that have already been
/// validated by [`crate::Engine::prepare`] (the caller stamps the plan's schema and
/// result name). Runtime failures (unknown tables raced away, type mismatches) are
/// still reported as [`Error`] values.
pub(crate) fn rewrite_planned(db: &Database, query: &Query) -> Result<PvcTable, Error> {
    Ok(rewrite_counted(db, query)?.0)
}

/// [`rewrite_planned`], plus how many `Value`s the executor materialised on the way:
/// what the count guard in this module's tests bounds.
fn rewrite_counted(db: &Database, query: &Query) -> Result<(PvcTable, usize), Error> {
    let root = plan(db, query)?;
    let mut executor = Executor {
        kind: db.kind,
        vars: &db.vars,
        values_materialised: 0,
    };
    let tuples = executor.tuples(&root)?;
    let table = PvcTable {
        name: "result".to_string(),
        schema: root.schema,
        tuples,
    };
    Ok((table, executor.values_materialised))
}

// ---------------------------------------------------------------------------
// The plan: names resolved, selections sunk
// ---------------------------------------------------------------------------

/// A column of a node's output: its position, and the name the query used for it
/// (kept for error messages only).
#[derive(Clone, Copy)]
struct Col<'a> {
    index: usize,
    name: &'a str,
}

impl Col<'_> {
    /// The same column seen from the right operand of a join whose left operand has
    /// `by` columns.
    fn shifted_left(self, by: usize) -> Self {
        Col {
            index: self.index - by,
            ..self
        }
    }
}

/// A constant cell, borrowed, as a comparison / join / grouping key. Orders like
/// [`crate::KeyValue`] (every integer before every string).
#[derive(Clone, Copy, PartialEq, Eq, PartialOrd, Ord)]
enum Key<'a> {
    Int(i64),
    Str(&'a str),
}

/// An integer is one word, a string its bytes (see [`KeyHasher::write`]); equal
/// keys write equal words, which is all `Eq` asks of it.
impl Hash for Key<'_> {
    fn hash<H: Hasher>(&self, state: &mut H) {
        match self {
            Key::Int(i) => state.write_u64(*i as u64),
            Key::Str(s) => state.write(s.as_bytes()),
        }
    }
}

/// The seed of one [`Groups`] index, drawn from the standard library's
/// per-process random keys, so keys that collide under it cannot be prepared
/// offline.
#[derive(Clone, Copy)]
struct KeySeed(u64);

impl KeySeed {
    fn random() -> Self {
        KeySeed(RandomState::new().build_hasher().finish())
    }
}

impl BuildHasher for KeySeed {
    type Hasher = KeyHasher;

    fn build_hasher(&self) -> KeyHasher {
        KeyHasher(self.0)
    }
}

/// The hasher of a [`Groups`] index: one folded 64 × 64 → 128-bit multiply per
/// word, an integer key being one word and a string its bytes in 8-byte chunks
/// plus its length. SipHash's per-key setup and rounds cost more than the
/// grouping they serve.
struct KeyHasher(u64);

impl Hasher for KeyHasher {
    fn write_u64(&mut self, word: u64) {
        let product = u128::from(self.0 ^ word) * 0xa076_1d64_78bd_642f_u128;
        self.0 = (product as u64) ^ ((product >> 64) as u64);
    }

    fn write_usize(&mut self, n: usize) {
        self.write_u64(n as u64);
    }

    fn write(&mut self, bytes: &[u8]) {
        let mut chunks = bytes.chunks_exact(8);
        for chunk in &mut chunks {
            self.write_u64(u64::from_le_bytes(chunk.try_into().expect("8 bytes")));
        }
        let mut tail = [0u8; 8];
        tail[..chunks.remainder().len()].copy_from_slice(chunks.remainder());
        self.write_u64(u64::from_le_bytes(tail));
        self.write_u64(bytes.len() as u64);
    }

    fn finish(&self) -> u64 {
        self.0
    }
}

/// The key of a cell in a data column. Definition 5 keeps aggregation attributes out
/// of every key position, so an aggregation value here means a table holds one in a
/// column its schema declares as data.
fn key<'v>(value: &'v Value, column: &str) -> Result<Key<'v>, Error> {
    match value {
        Value::Int(i) => Ok(Key::Int(*i)),
        Value::Str(s) => Ok(Key::Str(s)),
        Value::Agg(_) => Err(Error::TypeMismatch {
            column: column.to_string(),
            expected: "constants to compare or group by",
        }),
    }
}

/// A conjunct over data columns, resolved once. It keeps or drops a tuple and never
/// touches its annotation (the `σ` rule of Fig. 4), which is why it may be applied
/// to an operand before the `×`, `δ` or `σ` it was written above.
enum Filter<'a> {
    /// `A θ c`.
    Const(Col<'a>, CmpOp, Key<'a>),
    /// `A = B`, both columns of the same operand.
    Equal(Col<'a>, Col<'a>),
}

/// The conjuncts of a `σ` over aggregation attributes. Each row's conditional
/// expression is built from this; the nesting of `And`s is kept because it decides
/// how the conditionals are multiplied together.
enum Cond<'a> {
    /// `[α θ c]`.
    AggConst(Col<'a>, CmpOp, i64),
    /// `[α θ β]`.
    AggAgg(Col<'a>, CmpOp, Col<'a>),
    /// `[α θ A]` with `A` an integer data column.
    AggCol(Col<'a>, CmpOp, Col<'a>),
    /// The product of the conjuncts' conditionals.
    All(Vec<Cond<'a>>),
}

/// One aggregation of a `$`: the monoid, and the aggregated column (`None` when the
/// constant 1 is aggregated — COUNT).
struct Agg<'a> {
    op: AggOp,
    column: Option<Col<'a>>,
}

enum Op<'a> {
    /// A base table, borrowed.
    Scan(&'a [Tuple]),
    /// `left × right` restricted to `left.0 = right.1` for every pair of `on`: a hash
    /// equi-join, or the plain product when `on` is empty.
    Join {
        left: Box<Node<'a>>,
        right: Box<Node<'a>>,
        on: Vec<(Col<'a>, Col<'a>)>,
    },
    /// `σ` over aggregation attributes: multiplies a conditional onto every row.
    Condition {
        input: Box<Node<'a>>,
        cond: Cond<'a>,
    },
    Project {
        input: Box<Node<'a>>,
        columns: Vec<Col<'a>>,
    },
    Union {
        left: Box<Node<'a>>,
        right: Box<Node<'a>>,
    },
    GroupAgg {
        input: Box<Node<'a>>,
        group_by: Vec<Col<'a>>,
        aggs: Vec<Agg<'a>>,
    },
}

/// An operator with its output schema and the data conjuncts applied to its output.
struct Node<'a> {
    op: Op<'a>,
    schema: Schema,
    filters: Vec<Filter<'a>>,
}

impl<'a> Node<'a> {
    fn new(op: Op<'a>, schema: Schema) -> Self {
        Node {
            op,
            schema,
            filters: Vec::new(),
        }
    }

    /// Apply `filter` as deep as it is legal: through `×` to the operand that owns
    /// its columns (an equality across the operands becomes a join key) and through
    /// an aggregate-`σ`, which only multiplies annotations. It stops at a base table
    /// and at `π`, `∪` and `$`, whose tuples exist only after grouping.
    fn sink(&mut self, filter: Filter<'a>) {
        match &mut self.op {
            Op::Join { left, right, on } => {
                let split = left.schema.arity();
                match filter {
                    Filter::Const(c, theta, constant) if c.index < split => {
                        left.sink(Filter::Const(c, theta, constant))
                    }
                    Filter::Const(c, theta, constant) => {
                        right.sink(Filter::Const(c.shifted_left(split), theta, constant))
                    }
                    Filter::Equal(a, b) => match (a.index < split, b.index < split) {
                        (true, true) => left.sink(Filter::Equal(a, b)),
                        (false, false) => {
                            right.sink(Filter::Equal(a.shifted_left(split), b.shifted_left(split)))
                        }
                        (true, false) => on.push((a, b.shifted_left(split))),
                        (false, true) => on.push((b, a.shifted_left(split))),
                    },
                }
            }
            Op::Condition { input, .. } => input.sink(filter),
            Op::Scan(_) | Op::Project { .. } | Op::Union { .. } | Op::GroupAgg { .. } => {
                self.filters.push(filter)
            }
        }
    }
}

fn unknown_column(name: String) -> Error {
    Error::Validation(QueryError::UnknownColumn(name))
}

/// Resolve a column name against a schema, reporting unknown columns through the
/// [`Error`] contract instead of panicking. Queries are validated by
/// `Engine::prepare`, so a miss here indicates a schema raced away underneath a
/// prepared query — still an error, never an abort.
fn resolve<'a>(schema: &Schema, name: &'a str) -> Result<Col<'a>, Error> {
    match schema.index_of(name) {
        Some(index) => Ok(Col { index, name }),
        None => Err(unknown_column(name.to_string())),
    }
}

fn resolve_all<'a>(schema: &Schema, names: &'a [String]) -> Result<Vec<Col<'a>>, Error> {
    names.iter().map(|name| resolve(schema, name)).collect()
}

/// Split a predicate over `schema` into its data conjuncts (appended to `filters`)
/// and what is left over aggregation attributes.
fn split<'a>(
    predicate: &'a Predicate,
    schema: &Schema,
    filters: &mut Vec<Filter<'a>>,
) -> Result<Option<Cond<'a>>, Error> {
    Ok(match predicate {
        Predicate::ColEqCol(a, b) => {
            filters.push(Filter::Equal(resolve(schema, a)?, resolve(schema, b)?));
            None
        }
        Predicate::ColCmpConst(a, theta, constant) => {
            let a = resolve(schema, a)?;
            filters.push(Filter::Const(a, *theta, key(constant, a.name)?));
            None
        }
        Predicate::AggCmpConst(alpha, theta, c) => {
            Some(Cond::AggConst(resolve(schema, alpha)?, *theta, *c))
        }
        Predicate::AggCmpAgg(alpha, theta, beta) => Some(Cond::AggAgg(
            resolve(schema, alpha)?,
            *theta,
            resolve(schema, beta)?,
        )),
        Predicate::AggCmpCol(alpha, theta, a) => Some(Cond::AggCol(
            resolve(schema, alpha)?,
            *theta,
            resolve(schema, a)?,
        )),
        Predicate::And(conjuncts) => {
            let mut conds = Vec::new();
            for conjunct in conjuncts {
                conds.extend(split(conjunct, schema, filters)?);
            }
            if conds.is_empty() {
                None
            } else {
                Some(Cond::All(conds))
            }
        }
    })
}

fn plan<'a>(db: &'a Database, query: &'a Query) -> Result<Node<'a>, Error> {
    Ok(match query {
        Query::Table(name) => {
            let table = db.table_or_err(name)?;
            Node::new(Op::Scan(&table.tuples), table.schema.clone())
        }
        Query::Rename(mapping, input) => {
            let mut node = plan(db, input)?;
            for (old, new) in mapping {
                node.schema = node.schema.try_rename(old, new).map_err(unknown_column)?;
            }
            node
        }
        Query::Select(predicate, input) => {
            let mut node = plan(db, input)?;
            let mut filters = Vec::new();
            let cond = split(predicate, &node.schema, &mut filters)?;
            for filter in filters {
                node.sink(filter);
            }
            match cond {
                None => node,
                Some(cond) => {
                    let schema = node.schema.clone();
                    let input = Box::new(node);
                    Node::new(Op::Condition { input, cond }, schema)
                }
            }
        }
        Query::Project(names, input) => {
            let input = Box::new(plan(db, input)?);
            let columns = resolve_all(&input.schema, names)?;
            let schema = input.schema.try_project(names).map_err(unknown_column)?;
            Node::new(Op::Project { input, columns }, schema)
        }
        Query::Product(a, b) => {
            let (left, right) = (Box::new(plan(db, a)?), Box::new(plan(db, b)?));
            let schema = left
                .schema
                .try_concat(&right.schema)
                .map_err(|dup| Error::Validation(QueryError::DuplicateColumn(dup)))?;
            let on = Vec::new();
            Node::new(Op::Join { left, right, on }, schema)
        }
        Query::Union(a, b) => {
            let (left, right) = (Box::new(plan(db, a)?), Box::new(plan(db, b)?));
            if left.schema.names() != right.schema.names() {
                return Err(Error::Validation(QueryError::UnionSchemaMismatch));
            }
            let schema = left.schema.clone();
            Node::new(Op::Union { left, right }, schema)
        }
        Query::GroupAgg {
            group_by,
            aggs,
            input,
        } => {
            let input = Box::new(plan(db, input)?);
            let group_by = resolve_all(&input.schema, group_by)?;
            let mut columns: Vec<Column> = group_by
                .iter()
                .map(|c| input.schema.columns()[c.index].clone())
                .collect();
            columns.extend(aggs.iter().map(|a| Column::aggregation(a.alias.clone())));
            let aggs = aggs
                .iter()
                .map(|spec| {
                    let column = match &spec.column {
                        Some(name) if !spec.op.is_count() => Some(resolve(&input.schema, name)?),
                        _ => None,
                    };
                    Ok(Agg {
                        op: spec.op,
                        column,
                    })
                })
                .collect::<Result<_, Error>>()?;
            let op = Op::GroupAgg {
                input,
                group_by,
                aggs,
            };
            Node::new(op, Schema::from_columns(columns))
        }
    })
}

// ---------------------------------------------------------------------------
// Relations as row ids over borrowed tuples
// ---------------------------------------------------------------------------

/// A relation that has not been materialised: every row is one row id per source,
/// and every column is a column of one source. A scan has one borrowed source; a
/// join concatenates the sources of its operands; `π`, `∪` and `$` yield one owned
/// source. A row's annotation is the product of its sources' annotations in source
/// order — the order Fig. 4 multiplies them in as the query nests its products.
struct Rel<'a> {
    sources: Vec<Cow<'a, [Tuple]>>,
    /// Row ids, row-major: `sources.len()` per row.
    rows: Vec<usize>,
    /// Output column → (source, column of that source).
    columns: Vec<(usize, usize)>,
}

impl<'a> Rel<'a> {
    /// Every tuple of one source, in order, with its first `arity` columns.
    fn over(tuples: Cow<'a, [Tuple]>, arity: usize) -> Self {
        Rel {
            rows: (0..tuples.len()).collect(),
            columns: (0..arity).map(|c| (0, c)).collect(),
            sources: vec![tuples],
        }
    }

    fn width(&self) -> usize {
        self.sources.len()
    }

    fn len(&self) -> usize {
        self.rows.len() / self.width()
    }

    /// The rows, each as its row ids.
    fn ids(&self) -> std::slice::ChunksExact<'_, usize> {
        self.rows.chunks_exact(self.width())
    }

    fn row(&self, row: usize) -> &[usize] {
        &self.rows[row * self.width()..(row + 1) * self.width()]
    }

    fn cell(&self, ids: &[usize], column: usize) -> &Value {
        let (source, column) = self.columns[column];
        &self.sources[source][ids[source]].values[column]
    }

    fn annotation(&self, ids: &[usize]) -> SemiringExpr {
        if let ([source], [id]) = (&self.sources[..], ids) {
            return source[*id].annotation.clone();
        }
        SemiringExpr::product(
            self.sources
                .iter()
                .zip(ids)
                .map(|(source, &id)| source[id].annotation.clone())
                .collect(),
        )
    }

    /// The keys of every row over `columns`, row-major.
    fn keys(&self, columns: &[Col]) -> Result<Vec<Key<'_>>, Error> {
        let mut keys = Vec::with_capacity(self.len() * columns.len());
        for ids in self.ids() {
            for column in columns {
                keys.push(key(self.cell(ids, column.index), column.name)?);
            }
        }
        Ok(keys)
    }

    fn passes(&self, ids: &[usize], filter: &Filter) -> Result<bool, Error> {
        let key_of = |column: &Col| key(self.cell(ids, column.index), column.name);
        Ok(match filter {
            Filter::Const(column, theta, constant) => theta.eval(&key_of(column)?, constant),
            Filter::Equal(a, b) => key_of(a)? == key_of(b)?,
        })
    }

    /// Keep the rows that pass every filter, in order.
    fn retain(&mut self, filters: &[Filter]) -> Result<(), Error> {
        if filters.is_empty() {
            return Ok(());
        }
        let mut kept = Vec::new();
        'rows: for ids in self.ids() {
            for filter in filters {
                if !self.passes(ids, filter)? {
                    continue 'rows;
                }
            }
            kept.extend_from_slice(ids);
        }
        self.rows = kept;
        Ok(())
    }
}

/// Rows partitioned by key: the rows of a group in input order, the groups either
/// looked up by key (a join's build side) or walked in ascending key order (the
/// tuple order of `π`, `∪` and `$`). The hash map is only ever probed — groups
/// are numbered in order of first occurrence — so no output order depends on it
/// or on its randomly seeded [`KeyHasher`].
struct Groups<'k> {
    keys: &'k [Key<'k>],
    /// Keys per row.
    width: usize,
    group_of_key: HashMap<&'k [Key<'k>], usize, KeySeed>,
    /// Row numbers, grouped: group `g` is `members[starts[g]..starts[g + 1]]`.
    members: Vec<usize>,
    starts: Vec<usize>,
}

impl<'k> Groups<'k> {
    /// Group `rows` rows by their `width` keys each in `keys` (row-major).
    fn of(keys: &'k [Key<'k>], width: usize, rows: usize) -> Self {
        let mut group_of_key = HashMap::with_hasher(KeySeed::random());
        let group_of_row: Vec<usize> = (0..rows)
            .map(|row| {
                let next = group_of_key.len();
                *group_of_key
                    .entry(&keys[row * width..(row + 1) * width])
                    .or_insert(next)
            })
            .collect();
        // Counting sort by group: stable, so each group keeps its input order.
        let mut starts = vec![0; group_of_key.len() + 1];
        for &group in &group_of_row {
            starts[group + 1] += 1;
        }
        for group in 0..group_of_key.len() {
            starts[group + 1] += starts[group];
        }
        let mut next = starts.clone();
        let mut members = vec![0; rows];
        for (row, &group) in group_of_row.iter().enumerate() {
            members[next[group]] = row;
            next[group] += 1;
        }
        Groups {
            keys,
            width,
            group_of_key,
            members,
            starts,
        }
    }

    fn rows(&self, group: usize) -> &[usize] {
        &self.members[self.starts[group]..self.starts[group + 1]]
    }

    /// The rows with this key, in input order.
    fn get(&self, key: &[Key]) -> &[usize] {
        match self.group_of_key.get(key) {
            Some(&group) => self.rows(group),
            None => &[],
        }
    }

    /// Every group's rows, the groups in ascending key order.
    fn sorted(&self) -> impl Iterator<Item = &[usize]> {
        let key_of = |group: usize| {
            let first = self.rows(group)[0];
            &self.keys[first * self.width..(first + 1) * self.width]
        };
        let mut order: Vec<usize> = (0..self.group_of_key.len()).collect();
        order.sort_unstable_by_key(|&group| key_of(group));
        order.into_iter().map(|group| self.rows(group))
    }
}

// ---------------------------------------------------------------------------
// Execution
// ---------------------------------------------------------------------------

struct Executor<'db> {
    kind: SemiringKind,
    /// The database's variables: their largest values bound SUM / PROD over `N`.
    vars: &'db VarTable,
    /// `Value`s cloned or created into tuples so far.
    values_materialised: usize,
}

impl Executor<'_> {
    /// The result of `node` as owned tuples — the root of a query.
    fn tuples(&mut self, node: &Node) -> Result<Vec<Tuple>, Error> {
        let mut rel = self.relation(node)?;
        // The unfiltered output of a π, ∪ or $ is already the tuples asked for: a
        // single owned source is only ever narrowed by `retain`, so as many rows as
        // tuples means every tuple, in order.
        if let [Cow::Owned(tuples)] = &mut rel.sources[..] {
            if tuples.len() == rel.rows.len() {
                return Ok(std::mem::take(tuples));
            }
        }
        Ok(rel
            .ids()
            .map(|ids| {
                let values = self.values(&rel, ids, 0..rel.columns.len());
                Tuple::new(values, rel.annotation(ids))
            })
            .collect())
    }

    /// Clone the given columns of one row.
    fn values(
        &mut self,
        rel: &Rel,
        ids: &[usize],
        columns: impl Iterator<Item = usize>,
    ) -> Vec<Value> {
        let values: Vec<Value> = columns.map(|c| rel.cell(ids, c).clone()).collect();
        self.values_materialised += values.len();
        values
    }

    fn relation<'a>(&mut self, node: &Node<'a>) -> Result<Rel<'a>, Error> {
        let arity = node.schema.arity();
        let mut rel = match &node.op {
            Op::Scan(tuples) => Rel::over(Cow::Borrowed(*tuples), arity),
            Op::Join { left, right, on } => join(self.relation(left)?, self.relation(right)?, on)?,
            Op::Condition { input, cond } => {
                let rel = self.relation(input)?;
                self.condition(rel, cond)?
            }
            Op::Project { input, columns } => {
                let rel = self.relation(input)?;
                Rel::over(Cow::Owned(self.project(&rel, columns)?), arity)
            }
            Op::Union { left, right } => {
                let (left, right) = (self.relation(left)?, self.relation(right)?);
                Rel::over(Cow::Owned(self.union(&left, &right, &node.schema)?), arity)
            }
            Op::GroupAgg {
                input,
                group_by,
                aggs,
            } => {
                let rel = self.relation(input)?;
                Rel::over(Cow::Owned(self.group_agg(&rel, group_by, aggs)?), arity)
            }
        };
        rel.retain(&node.filters)?;
        Ok(rel)
    }

    /// `σ` over aggregation attributes: every row's conditional becomes one more
    /// source (tuples without values), so it is the row's next annotation factor —
    /// after the sources joined so far, before those of any later join, which is
    /// where Fig. 4 puts it.
    fn condition<'a>(&self, mut rel: Rel<'a>, cond: &Cond) -> Result<Rel<'a>, Error> {
        let conditionals = rel
            .ids()
            .map(|ids| Ok(Tuple::new(Vec::new(), self.conditional(cond, &rel, ids)?)))
            .collect::<Result<Vec<Tuple>, Error>>()?;
        let mut rows = Vec::with_capacity(rel.rows.len() + conditionals.len());
        for (row, ids) in rel.ids().enumerate() {
            rows.extend_from_slice(ids);
            rows.push(row);
        }
        rel.rows = rows;
        rel.sources.push(Cow::Owned(conditionals));
        Ok(rel)
    }

    fn conditional(&self, cond: &Cond, rel: &Rel, ids: &[usize]) -> Result<SemiringExpr, Error> {
        // Fetch a cell that must hold a semimodule expression (an aggregation attribute).
        let agg = |column: &Col| {
            rel.cell(ids, column.index)
                .as_agg()
                .cloned()
                .ok_or_else(|| {
                    Error::Validation(QueryError::PredicateSortMismatch(column.name.to_string()))
                })
        };
        let against_constant = |theta: &CmpOp, lhs: SemimoduleExpr, c: i64| {
            let constant = SemimoduleExpr::constant_in(lhs.op, MonoidValue::Fin(c), self.kind);
            SemiringExpr::cmp_mm(*theta, lhs, constant)
        };
        Ok(match cond {
            Cond::AggConst(alpha, theta, c) => against_constant(theta, agg(alpha)?, *c),
            Cond::AggAgg(alpha, theta, beta) => {
                SemiringExpr::cmp_mm(*theta, agg(alpha)?, agg(beta)?)
            }
            Cond::AggCol(alpha, theta, column) => {
                let lhs = agg(alpha)?;
                let c =
                    rel.cell(ids, column.index)
                        .as_int()
                        .ok_or_else(|| Error::TypeMismatch {
                            column: column.name.to_string(),
                            expected: "an integer data column",
                        })?;
                against_constant(theta, lhs, c)
            }
            Cond::All(conds) => SemiringExpr::product(
                conds
                    .iter()
                    .map(|cond| self.conditional(cond, rel, ids))
                    .collect::<Result<_, _>>()?,
            ),
        })
    }

    /// `π`: one tuple per distinct key.
    fn project(&mut self, rel: &Rel, columns: &[Col]) -> Result<Vec<Tuple>, Error> {
        let keys = rel.keys(columns)?;
        let groups = Groups::of(&keys, columns.len(), rel.len());
        Ok(self.merged(&groups, columns, |row| (rel, rel.row(row))))
    }

    /// `∪`: `π` onto every column over the rows of `left` followed by those of
    /// `right`.
    fn union(&mut self, left: &Rel, right: &Rel, schema: &Schema) -> Result<Vec<Tuple>, Error> {
        let columns: Vec<Col> = (schema.columns().iter().enumerate())
            .map(|(index, column)| Col {
                index,
                name: &column.name,
            })
            .collect();
        let mut keys = left.keys(&columns)?;
        keys.extend(right.keys(&columns)?);
        let groups = Groups::of(&keys, columns.len(), left.len() + right.len());
        Ok(
            self.merged(&groups, &columns, |row| match row.checked_sub(left.len()) {
                None => (left, left.row(row)),
                Some(row) => (right, right.row(row)),
            }),
        )
    }

    /// What `π` and `∪` output: one tuple per group, the groups in key order, with
    /// the `columns` of the group's first row and the sum of its rows' annotations.
    /// `ids_of` finds a grouped row: its relation and its row ids.
    fn merged<'r>(
        &mut self,
        groups: &Groups,
        columns: &[Col],
        ids_of: impl Fn(usize) -> (&'r Rel<'r>, &'r [usize]),
    ) -> Vec<Tuple> {
        groups
            .sorted()
            .map(|rows| {
                let (rel, first) = ids_of(rows[0]);
                let values = self.values(rel, first, columns.iter().map(|c| c.index));
                let annotations = rows.iter().map(|&row| {
                    let (rel, ids) = ids_of(row);
                    rel.annotation(ids)
                });
                let sum = SemiringExpr::sum(annotations.collect());
                Tuple::new(values, sum.simplify(self.kind))
            })
            .collect()
    }

    /// `$`: one tuple per distinct group-by key.
    fn group_agg(
        &mut self,
        rel: &Rel,
        group_by: &[Col],
        aggs: &[Agg],
    ) -> Result<Vec<Tuple>, Error> {
        let keys = rel.keys(group_by)?;
        let groups = Groups::of(&keys, group_by.len(), rel.len());
        let mut out = Vec::new();
        for rows in groups.sorted() {
            out.push(self.group(rel, rows, group_by, aggs)?);
        }
        // With an empty group-by list, there is always exactly one (possibly empty)
        // group (Fig. 4, second `$` rule).
        if group_by.is_empty() && out.is_empty() {
            out.push(self.group(rel, &[], group_by, aggs)?);
        }
        Ok(out)
    }

    /// The `$` tuple of one group: its key, `Γ = Σ_AGG (Φ_t ⊗ v_t)` per aggregation
    /// over the group's rows, and the annotation — `1_K` without group-by columns,
    /// `[(Σ_K Φ_t) ≠ 0_K]` otherwise (Fig. 4).
    fn group(
        &mut self,
        rel: &Rel,
        rows: &[usize],
        group_by: &[Col],
        aggs: &[Agg],
    ) -> Result<Tuple, Error> {
        let annotations: Vec<SemiringExpr> =
            rows.iter().map(|&r| rel.annotation(rel.row(r))).collect();
        let mut values = match rows.first() {
            Some(&first) => self.values(rel, rel.row(first), group_by.iter().map(|c| c.index)),
            None => Vec::new(),
        };
        for agg in aggs {
            let mut expr = SemimoduleExpr::zero(agg.op);
            let mut headroom = Headroom::of(agg.op, self.kind);
            for (&row, annotation) in rows.iter().zip(&annotations) {
                let value = match &agg.column {
                    None => MonoidValue::Fin(1),
                    Some(column) => rel
                        .cell(rel.row(row), column.index)
                        .as_monoid_value()
                        .ok_or_else(|| Error::TypeMismatch {
                            column: column.name.to_string(),
                            expected: "integer constants under aggregation",
                        })?,
                };
                if let (Some(headroom), MonoidValue::Fin(v)) = (&mut headroom, value) {
                    let multiplicity = match self.kind {
                        SemiringKind::Bool => 1,
                        SemiringKind::Nat => largest_multiplicity(annotation, self.vars),
                    };
                    headroom.push(multiplicity, v);
                }
                expr.push(annotation.clone(), value);
            }
            if let Some(Headroom::Overflow) = headroom {
                return Err(Error::AggregateOverflow {
                    op: agg.op,
                    column: agg.column.map_or("*", |c| c.name).to_string(),
                });
            }
            values.push(Value::Agg(expr));
        }
        self.values_materialised += aggs.len();
        let annotation = if group_by.is_empty() {
            SemiringExpr::Const(self.kind.one())
        } else {
            let sum = SemiringExpr::sum(annotations);
            SemiringExpr::cmp_ss(CmpOp::Ne, sum, SemiringExpr::Const(self.kind.zero()))
        };
        Ok(Tuple::new(values, annotation))
    }
}

/// The range a SUM or PROD of a group reaches over all worlds, in checked `i64`
/// arithmetic. Row `i` contributes `sᵢ ⊗ vᵢ` with `sᵢ ≤ mᵢ`, the largest value
/// its annotation takes: a SUM lies between the sum of the negative and the sum
/// of the positive contributions, and a PROD's magnitude is at most the product
/// of its `|v| ≥ 2` factors, each to the power `mᵢ`. Every partial fold lies
/// within the same bounds, so a group that stays `Sum` / `Prod` cannot wrap. A
/// COUNT over `N` is the SUM of its rows' 1s.
#[derive(Clone, Copy)]
enum Headroom {
    Sum {
        low: i64,
        high: i64,
    },
    Prod {
        magnitude: i64,
    },
    /// Some world's result could leave `i64`.
    Overflow,
}

impl Headroom {
    /// The empty group's range for `op` over `kind`; `None` for MIN and MAX,
    /// and for COUNT over `B`, where a group has fewer than 2^63 rows.
    fn of(op: AggOp, kind: SemiringKind) -> Option<Self> {
        match op {
            AggOp::Sum => Some(Headroom::Sum { low: 0, high: 0 }),
            AggOp::Count if kind == SemiringKind::Nat => Some(Headroom::Sum { low: 0, high: 0 }),
            AggOp::Prod => Some(Headroom::Prod { magnitude: 1 }),
            AggOp::Count | AggOp::Min | AggOp::Max => None,
        }
    }

    /// Widen the range by the contribution of a value `v` whose annotation is
    /// at most `multiplicity`.
    fn push(&mut self, multiplicity: u64, v: i64) {
        let next = match *self {
            Headroom::Sum { low, high } => i64::try_from(multiplicity)
                .ok()
                .and_then(|m| m.checked_mul(v))
                .and_then(|c| match c < 0 {
                    true => low.checked_add(c).map(|low| Headroom::Sum { low, high }),
                    false => high.checked_add(c).map(|high| Headroom::Sum { low, high }),
                }),
            Headroom::Prod { magnitude } if v.unsigned_abs() >= 2 && multiplicity > 0 => {
                u32::try_from(multiplicity)
                    .ok()
                    .and_then(|m| v.checked_abs()?.checked_pow(m))
                    .and_then(|factor| magnitude.checked_mul(factor))
                    .map(|magnitude| Headroom::Prod { magnitude })
            }
            unchanged => Some(unchanged),
        };
        *self = next.unwrap_or(Headroom::Overflow);
    }
}

/// The largest value `expr` takes in any world over `N`, saturating at
/// `u64::MAX`: every variable at its largest support value and every
/// conditional at 1, since sums and products are monotone in `N`.
fn largest_multiplicity(expr: &SemiringExpr, vars: &VarTable) -> u64 {
    let of = |value: &SemiringValue| match *value {
        SemiringValue::Bool(b) => u64::from(b),
        SemiringValue::Nat(n) => n,
    };
    match expr {
        SemiringExpr::Var(v) => vars.dist(*v).max_value().map_or(0, of),
        SemiringExpr::Const(c) => of(c),
        SemiringExpr::Add(cs) => cs.iter().fold(0, |total, c| {
            total.saturating_add(largest_multiplicity(c, vars))
        }),
        SemiringExpr::Mul(cs) => cs.iter().fold(1, |total, c| {
            total.saturating_mul(largest_multiplicity(c, vars))
        }),
        SemiringExpr::CmpSS(..) | SemiringExpr::CmpMM(..) => 1,
    }
}

/// `left × right` restricted to equality on the `on` pairs, as row ids: left-major,
/// and within one left row the matching right rows in their own order — the order of
/// the filtered product. The right side is the build side of the hash index.
fn join<'a>(left: Rel<'a>, right: Rel<'a>, on: &[(Col, Col)]) -> Result<Rel<'a>, Error> {
    let mut rows = Vec::new();
    if on.is_empty() {
        for l in left.ids() {
            for r in right.ids() {
                rows.extend_from_slice(l);
                rows.extend_from_slice(r);
            }
        }
    } else {
        let (probe_columns, build_columns): (Vec<Col>, Vec<Col>) = on.iter().copied().unzip();
        let build = right.keys(&build_columns)?;
        let index = Groups::of(&build, on.len(), right.len());
        let probe = left.keys(&probe_columns)?;
        for (l, key) in left.ids().zip(probe.chunks_exact(on.len())) {
            for &r in index.get(key) {
                rows.extend_from_slice(l);
                rows.extend_from_slice(right.row(r));
            }
        }
    }
    let shift = left.width();
    let mut sources = left.sources;
    sources.extend(right.sources);
    let mut columns = left.columns;
    columns.extend(right.columns.iter().map(|&(s, c)| (s + shift, c)));
    Ok(Rel {
        sources,
        rows,
        columns,
    })
}

#[cfg(test)]
pub(crate) mod tests {
    use super::*;
    use crate::query::AggSpec;
    use pvc_algebra::SemiringValue;
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

    #[test]
    fn aggregation_values_in_key_positions_are_type_errors() {
        // Schemas carry no value types, so a table can hold a semimodule expression
        // in a column declared as data. Comparing, joining or grouping on it is a
        // typed error (evaluating Fig. 4 operator by operator panics there).
        let mut db = Database::new();
        db.create_table("R", Schema::new(["a"]));
        let certain = SemiringExpr::Const(SemiringValue::Bool(true));
        let agg = SemimoduleExpr::zero(AggOp::Min);
        let table = db.table_mut("R").unwrap();
        table.try_push(vec![agg.into()], certain).unwrap();
        let r = || Query::table("R");
        for query in [
            r().select(Predicate::eq_const("a", 1i64)),
            r().project(["a"]),
            r().union(r()),
            r().group_agg(["a"], vec![AggSpec::count("c")]),
            r().join(r().rename(&[("a", "a2")]), &[("a", "a2")]),
        ] {
            let err = try_evaluate(&db, &query).unwrap_err();
            assert!(
                matches!(err, Error::TypeMismatch { ref column, .. } if column.starts_with('a')),
                "unexpected error for {query:?}: {err}"
            );
        }
    }

    /// A database and query of the shape of TPC-H Q2 (which this crate cannot see):
    /// a five-way join restricted by region and part size, joined back to the
    /// per-part minimum supply cost (the paper's Example 3) and projected.
    fn q2_shaped() -> (Database, Query) {
        let (parts, suppliers, nations, regions) = (40i64, 10i64, 5i64, 2i64);
        let mut db = Database::new();
        let mut fill = |name: &str, columns: &[&str], rows: Vec<Vec<Value>>| {
            db.create_table(name, Schema::new(columns.iter().copied()));
            let (table, vars) = db.table_and_vars_mut(name).unwrap();
            for row in rows {
                table.push_independent(row, 0.5, vars);
            }
        };
        let ints = |row: &[i64]| row.iter().map(|&i| Value::Int(i)).collect::<Vec<_>>();
        fill(
            "part",
            &["p_partkey", "p_size"],
            (0..parts).map(|p| ints(&[p, p % 50])).collect(),
        );
        fill(
            "partsupp",
            &["ps_partkey", "ps_suppkey", "ps_supplycost"],
            (0..parts * 4)
                .map(|i| ints(&[i / 4, (i * 7) % suppliers, 100 + (i * 37) % 90]))
                .collect(),
        );
        fill(
            "supplier",
            &["s_suppkey", "s_nationkey"],
            (0..suppliers).map(|s| ints(&[s, s % nations])).collect(),
        );
        fill(
            "nation",
            &["n_nationkey", "n_regionkey"],
            (0..nations).map(|n| ints(&[n, n % regions])).collect(),
        );
        fill(
            "region",
            &["r_regionkey", "r_name"],
            (0..regions)
                .map(|r| vec![Value::Int(r), format!("R{r}").into()])
                .collect(),
        );
        let cheapest = Query::table("partsupp")
            .rename(&[
                ("ps_partkey", "ps_partkey_i"),
                ("ps_suppkey", "ps_suppkey_i"),
                ("ps_supplycost", "ps_supplycost_i"),
            ])
            .group_agg(
                ["ps_partkey_i"],
                vec![AggSpec::new(AggOp::Min, "ps_supplycost_i", "min_cost")],
            );
        let query = Query::table("part")
            .join(Query::table("partsupp"), &[("p_partkey", "ps_partkey")])
            .join(Query::table("supplier"), &[("ps_suppkey", "s_suppkey")])
            .join(Query::table("nation"), &[("s_nationkey", "n_nationkey")])
            .join(Query::table("region"), &[("n_regionkey", "r_regionkey")])
            .select(Predicate::And(vec![
                Predicate::eq_const("r_name", "R1"),
                Predicate::ColCmpConst("p_size".into(), CmpOp::Le, Value::Int(25)),
            ]))
            .join(cheapest, &[("p_partkey", "ps_partkey_i")])
            .select(Predicate::AggCmpCol(
                "min_cost".into(),
                CmpOp::Eq,
                "ps_supplycost".into(),
            ))
            .project(["s_suppkey", "p_partkey", "ps_supplycost"]);
        (db, query)
    }

    #[test]
    fn materialises_values_for_result_rows_and_nested_groups_only() {
        // Counts, not time: operator at a time, this query copies every column of
        // four partsupp-sized join results (some 45 values per partsupp row); here
        // only the tuples Fig. 4 creates get values — the nested `$` groups and the
        // result.
        let (db, query) = q2_shaped();
        let (table, values_materialised) = rewrite_counted(&db, &query).unwrap();
        let nested_groups = db.table("part").unwrap().len();
        assert!(table.len() >= 10, "only {} result tuples", table.len());
        assert!(
            values_materialised <= 3 * (table.len() + nested_groups),
            "{values_materialised} values materialised for {} result tuples and \
             {nested_groups} nested groups",
            table.len()
        );
        let partsupp = db.table("partsupp").unwrap().len();
        assert!(values_materialised < 2 * partsupp);
        // Every annotation is the product Fig. 4 prescribes: five joined tuples, the
        // nested group's non-emptiness and the conditional on its minimum.
        for tuple in table.iter() {
            match &tuple.annotation {
                SemiringExpr::Mul(factors) => assert_eq!(factors.len(), 7),
                other => panic!("expected a product annotation, got {other}"),
            }
        }
    }
}
