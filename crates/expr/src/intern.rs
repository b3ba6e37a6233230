//! Hash-consed expression arena: interning of [`SemiringExpr`] / [`SemimoduleExpr`]
//! trees into compact ids with **O(1) structural equality** and a **canonical 64-bit
//! hash** that is stable under commutative reordering of `+`/`·` operands and of
//! semimodule terms.
//!
//! The paper's pipeline compiles the *same* sub-provenance over and over: identical
//! annotations recur across result tuples, across executions, and across queries
//! whose rewritings merely enumerate summands in a different order. Keying caches on
//! rendered expression strings (as the first engine iteration did) misses all of the
//! latter. The [`Interner`] fixes this:
//!
//! * every distinct expression *structure* is stored once in an arena and identified
//!   by an [`ExprId`] / [`AggExprId`] — two expressions are structurally equal iff
//!   their ids are equal;
//! * n-ary sums, products and semimodule term lists are **canonicalised** at intern
//!   time (children sorted by canonical hash), so `x·(y + z)` and `(z + y)·x` intern
//!   to the *same* id. This is sound for caching compilation artifacts because the
//!   ambient semirings (`B`, `N`) are commutative: distributions and confidences are
//!   invariant under operand reordering;
//! * every node carries a precomputed [canonical hash](Interner::hash) (a structural
//!   fingerprint independent of id-assignment order, usable across interner
//!   instances) and its [variable set](Interner::var_set) (so independence analyses
//!   need not re-walk the tree);
//! * every sum, product and semimodule node records whether its operands'
//!   variable sets are pairwise disjoint ([`Interner::children_disjoint`],
//!   [`Interner::terms_disjoint`]). The union of those sets is built at intern
//!   time anyway, and the sets are disjoint iff it is as long as they are
//!   together, so the bit costs one comparison. It is the decomposability of
//!   the node as a gate: the independence split of §5 (the compiler's rule 2)
//!   reads it instead of running a union–find over the same variables, and the
//!   artifact store reads it to recognise a list of independent leaves. Being a
//!   function of the structure, it is recomputed by every path that builds a
//!   node — [`Interner::intern_node`] (snapshot replay), [`Interner::import`]
//!   (compaction, compile-local copies) — and is not stored in snapshots.
//!
//! The canonical order sorts **precomputed keys**: each operand's hash, id and
//! position are packed into one `u128` before the sort, so a comparison is one
//! integer comparison instead of two arena reads (`(exprs[c].hash, c)`); hash,
//! dedup comparison and var-set union then read the sorted keys. The order, and
//! so every id and every compiled bit, is the one `(hash, id)` defines.
//!
//! The same type serves two roles. The **shared** arena only ever grows; it lives
//! alongside the bounded distribution cache of `SharedArtifacts` (see
//! `pvc-core`), which stores the expensive artifacts and can evict freely, while
//! ids stay valid for the lifetime of the interner. A **compile-local** arena is
//! the compiler's working representation: one root is
//! [imported](Interner::import) from the shared arena (or interned from a tree),
//! every residual of a Shannon expansion is interned beside it, and
//! [`clear`](Interner::clear) empties it for the next compilation without giving
//! its tables back. Both want the same thing from the storage: no
//! allocation per node. Children, semimodule terms and variable sets therefore
//! live in flat pools that nodes point into, and the dedup index is one
//! open-addressing table of ids probed by the canonical hash.

use crate::semimodule_expr::SemimoduleExpr;
use crate::semiring_expr::SemiringExpr;
use crate::vars::Var;
use pvc_algebra::{AggOp, CmpOp, MonoidValue, SemiringValue};
use std::collections::HashMap;
use std::hash::{BuildHasherDefault, Hasher};

/// Id of an interned [`SemiringExpr`] (index into the [`Interner`] arena).
///
/// Ids are canonical under commutative reordering: equal ids ⇔ structurally equal
/// expressions up to `+`/`·` operand order.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Hash, PartialOrd, Ord)]
pub struct ExprId(pub u32);

/// Id of an interned [`SemimoduleExpr`] (index into the [`Interner`] arena).
#[derive(Debug, Clone, Copy, PartialEq, Eq, Hash, PartialOrd, Ord)]
pub struct AggExprId(pub u32);

/// One term `Φ ⊗ m` of an interned semimodule expression: the coefficient's id and
/// the monoid value.
pub type AggTerm = (ExprId, MonoidValue);

/// An interned semiring-expression node: the same shape as [`SemiringExpr`] with
/// child subtrees replaced by arena ids. N-ary children are borrowed from the
/// arena's pool (reading) or from the caller (see [`Interner::intern_node`]).
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum InternedExpr<'a> {
    /// A random variable.
    Var(Var),
    /// A semiring constant.
    Const(SemiringValue),
    /// An n-ary sum; children in canonical order.
    Add(&'a [ExprId]),
    /// An n-ary product; children in canonical order.
    Mul(&'a [ExprId]),
    /// A conditional comparing two semiring expressions.
    CmpSS(CmpOp, ExprId, ExprId),
    /// A conditional comparing two semimodule expressions.
    CmpMM(CmpOp, AggExprId, AggExprId),
}

/// An interned semimodule expression: a `+op` sum of `(coefficient, value)` terms in
/// canonical order.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub struct InternedAgg<'a> {
    /// The aggregation monoid.
    pub op: AggOp,
    /// The terms `Φ ⊗ m` with interned coefficients, in canonical order.
    pub terms: &'a [AggTerm],
}

// ---------------------------------------------------------------------------
// Canonical structural hashing (stable across processes and interner instances —
// no RandomState anywhere near these values).
// ---------------------------------------------------------------------------

const TAG_VAR: u64 = 0x9144_2d2e_07ad_6711;
const TAG_CONST: u64 = 0x5851_f42d_4c95_7f2d;
const TAG_ADD: u64 = 0x27d4_eb2f_1656_67c5;
const TAG_MUL: u64 = 0xc2b2_ae3d_27d4_eb4f;
const TAG_CMP_SS: u64 = 0x1656_67b1_9e37_79f9;
const TAG_CMP_MM: u64 = 0x85eb_ca6b_27d4_eb2f;
const TAG_AGG: u64 = 0x2545_f491_4f6c_dd1d;

/// The splitmix64 finaliser: a cheap, well-mixing bijection on `u64`.
fn mix(mut x: u64) -> u64 {
    x = x.wrapping_add(0x9e37_79b9_7f4a_7c15);
    x = (x ^ (x >> 30)).wrapping_mul(0xbf58_476d_1ce4_e5b9);
    x = (x ^ (x >> 27)).wrapping_mul(0x94d0_49bb_1331_11eb);
    x ^ (x >> 31)
}

/// Sequentially combine (order-sensitive).
fn chain(seed: u64, x: u64) -> u64 {
    mix(seed ^ mix(x))
}

fn hash_semiring_value(v: &SemiringValue) -> u64 {
    match v {
        SemiringValue::Bool(b) => mix(TAG_CONST ^ (*b as u64)),
        SemiringValue::Nat(n) => mix(TAG_CONST.wrapping_add(mix(*n ^ 0xb001))),
    }
}

fn hash_monoid_value(v: &MonoidValue) -> u64 {
    match v {
        MonoidValue::NegInf => mix(0x006e_6567_5f69_6e66u64),
        MonoidValue::PosInf => mix(0x0070_6f73_5f69_6e66u64),
        MonoidValue::Fin(n) => mix(0xf17e ^ (*n as u64)),
    }
}

/// Commutatively fold child fingerprints: the wrapping sum of mixed hashes is
/// invariant under reordering but (thanks to the per-child `mix`) still sensitive to
/// the multiset of children.
fn commutative_fold(tag: u64, hashes: impl Iterator<Item = u64>) -> u64 {
    let mut acc = 0u64;
    let mut n = 0u64;
    for h in hashes {
        acc = acc.wrapping_add(mix(h ^ tag));
        n += 1;
    }
    mix(tag ^ acc.wrapping_add(mix(n)))
}

// ---------------------------------------------------------------------------
// Storage
// ---------------------------------------------------------------------------

/// A run of one of the arena's flat pools.
#[derive(Debug, Clone, Copy, Default)]
struct Span {
    start: u32,
    len: u32,
}

impl Span {
    fn new(start: usize, end: usize) -> Self {
        let fit = |n: usize| u32::try_from(n).expect("expression arena pool exceeds u32 range");
        Span {
            start: fit(start),
            len: fit(end - start),
        }
    }

    fn range(self) -> std::ops::Range<usize> {
        self.start as usize..(self.start + self.len) as usize
    }
}

/// A node as stored: n-ary children are a run of [`Interner::children`], with
/// whether their variable sets are pairwise disjoint (see
/// [`Interner::children_disjoint`]).
#[derive(Debug, Clone, Copy)]
enum Shape {
    Var(Var),
    Const(SemiringValue),
    Add(Span, bool),
    Mul(Span, bool),
    CmpSS(CmpOp, ExprId, ExprId),
    CmpMM(CmpOp, AggExprId, AggExprId),
}

#[derive(Debug, Clone, Copy)]
struct ExprEntry {
    shape: Shape,
    hash: u64,
    /// Run of [`Interner::var_pool`], ascending and duplicate-free.
    vars: Span,
}

#[derive(Debug, Clone, Copy)]
struct AggEntry {
    op: AggOp,
    /// Run of [`Interner::agg_terms`].
    terms: Span,
    hash: u64,
    vars: Span,
    /// The coefficients' variable sets are pairwise disjoint.
    disjoint: bool,
}

/// The canonical sort key of an operand, precomputed: its canonical hash in the
/// high 64 bits, its id in the next 32 and, for a semimodule term, its position
/// in the caller's list in the low 32. Ascending keys are ascending
/// `(hash, id)`, and a sort compares one integer per step where a sort by
/// `(exprs[c].hash, c)` would read the arena twice.
fn operand_key(hash: u64, id: ExprId, position: usize) -> u128 {
    u128::from(hash) << 64 | u128::from(id.0) << 32 | position as u128
}

fn key_hash(key: u128) -> u64 {
    (key >> 64) as u64
}

fn key_id(key: u128) -> ExprId {
    ExprId((key >> 32) as u32)
}

fn key_position(key: u128) -> usize {
    key as u32 as usize
}

/// The dedup index: an open-addressing table of node ids, probed linearly from the
/// canonical hash. Every node is in the table exactly once, so growing re-inserts
/// ids `0..len` from their stored hashes and nothing is ever removed but by
/// [`clear`](IdTable::clear).
#[derive(Debug, Default)]
struct IdTable {
    slots: Vec<u32>,
    len: usize,
}

const EMPTY_SLOT: u32 = u32::MAX;

impl IdTable {
    /// The id stored under `hash` that `matches`, if any.
    fn find(&self, hash: u64, mut matches: impl FnMut(u32) -> bool) -> Option<u32> {
        if self.slots.is_empty() {
            return None;
        }
        let mask = self.slots.len() - 1;
        let mut at = hash as usize & mask;
        loop {
            match self.slots[at] {
                EMPTY_SLOT => return None,
                id if matches(id) => return Some(id),
                _ => at = (at + 1) & mask,
            }
        }
    }

    /// Add `id` (not present yet) under `hash`; `hash_of` recovers the hash of an
    /// id already stored, for growing.
    fn insert(&mut self, hash: u64, id: u32, hash_of: impl Fn(u32) -> u64) {
        if (self.len + 1) * 2 > self.slots.len() {
            let capacity = (self.slots.len() * 2).max(16);
            self.slots.clear();
            self.slots.resize(capacity, EMPTY_SLOT);
            for old in 0..self.len as u32 {
                self.place(hash_of(old), old);
            }
        }
        self.place(hash, id);
        self.len += 1;
    }

    fn place(&mut self, hash: u64, id: u32) {
        let mask = self.slots.len() - 1;
        let mut at = hash as usize & mask;
        while self.slots[at] != EMPTY_SLOT {
            at = (at + 1) & mask;
        }
        self.slots[at] = id;
    }

    fn clear(&mut self) {
        self.slots.fill(EMPTY_SLOT);
        self.len = 0;
    }
}

// ---------------------------------------------------------------------------
// The arena
// ---------------------------------------------------------------------------

/// A hash-consing arena for semiring and semimodule expressions.
///
/// See the [module documentation](self) for the canonicalisation contract.
#[derive(Debug, Default)]
pub struct Interner {
    exprs: Vec<ExprEntry>,
    /// Children of every `Add` / `Mul` node, one run per node.
    children: Vec<ExprId>,
    /// Variable sets of every node (semiring and semimodule), one run per node;
    /// a node whose set equals a child's shares the child's run.
    var_pool: Vec<Var>,
    table: IdTable,

    aggs: Vec<AggEntry>,
    /// Terms of every semimodule node, one run per node.
    agg_terms: Vec<AggTerm>,
    agg_table: IdTable,

    /// Working room of [`insert_nary`](Self::insert_nary) and
    /// [`intern_agg`](Self::intern_agg): the [keys](operand_key) of the node
    /// being interned. Kept between calls, so interning allocates nothing once
    /// it is as long as the widest node.
    keys: Vec<u128>,
}

// The interner is shared across worker threads (behind a mutex in
// `pvc_core::cache::SharedArtifacts`); keep it free of interior mutability and
// thread-bound types so `Send + Sync` cannot regress silently.
const _: () = {
    const fn assert_send_sync<T: Send + Sync>() {}
    assert_send_sync::<Interner>();
    assert_send_sync::<ExprId>();
    assert_send_sync::<AggExprId>();
};

impl Interner {
    /// An empty arena.
    pub fn new() -> Self {
        Self::default()
    }

    /// Forget every node but keep the tables' allocations: how a compile-local
    /// arena is reused from one compilation to the next. Every id handed out
    /// before the call is invalid after it.
    pub fn clear(&mut self) {
        self.exprs.clear();
        self.children.clear();
        self.var_pool.clear();
        self.table.clear();
        self.aggs.clear();
        self.agg_terms.clear();
        self.agg_table.clear();
        self.keys.clear();
    }

    /// Allocated room of the eight tables, in elements — moves only when one of
    /// them reallocates.
    pub fn capacity(&self) -> usize {
        self.exprs.capacity()
            + self.children.capacity()
            + self.var_pool.capacity()
            + self.table.slots.capacity()
            + self.aggs.capacity()
            + self.agg_terms.capacity()
            + self.agg_table.slots.capacity()
            + self.keys.capacity()
    }

    /// Number of distinct interned semiring nodes.
    pub fn len(&self) -> usize {
        self.exprs.len()
    }

    /// Number of distinct interned semimodule nodes.
    pub fn agg_len(&self) -> usize {
        self.aggs.len()
    }

    /// True if nothing has been interned.
    pub fn is_empty(&self) -> bool {
        self.exprs.is_empty() && self.aggs.is_empty()
    }

    /// The interned node behind an id.
    pub fn node(&self, id: ExprId) -> InternedExpr<'_> {
        match self.exprs[id.0 as usize].shape {
            Shape::Var(v) => InternedExpr::Var(v),
            Shape::Const(c) => InternedExpr::Const(c),
            Shape::Add(span, _) => InternedExpr::Add(&self.children[span.range()]),
            Shape::Mul(span, _) => InternedExpr::Mul(&self.children[span.range()]),
            Shape::CmpSS(op, a, b) => InternedExpr::CmpSS(op, a, b),
            Shape::CmpMM(op, a, b) => InternedExpr::CmpMM(op, a, b),
        }
    }

    /// The interned semimodule node behind an id.
    pub fn agg_node(&self, id: AggExprId) -> InternedAgg<'_> {
        let entry = &self.aggs[id.0 as usize];
        InternedAgg {
            op: entry.op,
            terms: &self.agg_terms[entry.terms.range()],
        }
    }

    /// The constant an interned expression *is* (not: folds to), if it is one.
    pub fn as_const(&self, id: ExprId) -> Option<SemiringValue> {
        match self.exprs[id.0 as usize].shape {
            Shape::Const(c) => Some(c),
            _ => None,
        }
    }

    /// The canonical structural hash of an interned expression. Stable across
    /// interner instances and processes; invariant under commutative reordering.
    pub fn hash(&self, id: ExprId) -> u64 {
        self.exprs[id.0 as usize].hash
    }

    /// The canonical structural hash of an interned semimodule expression.
    pub fn agg_hash(&self, id: AggExprId) -> u64 {
        self.aggs[id.0 as usize].hash
    }

    /// The variables occurring in an interned expression (precomputed), ascending
    /// and duplicate-free.
    pub fn var_set(&self, id: ExprId) -> &[Var] {
        &self.var_pool[self.exprs[id.0 as usize].vars.range()]
    }

    /// The variables occurring in an interned semimodule expression.
    pub fn agg_var_set(&self, id: AggExprId) -> &[Var] {
        &self.var_pool[self.aggs[id.0 as usize].vars.range()]
    }

    /// True if `id` is a sum or product whose children's variable sets are
    /// pairwise disjoint — each child its own component of the co-occurrence
    /// graph (a child without variables included), so the independence split
    /// of §5 needs no union–find. Recorded when the node is interned, where the
    /// union of the children's sets is built anyway: the sets are disjoint iff
    /// the union is as long as their lengths summed. `false` for every other
    /// shape. Derived from the node's structure, so an interner that replays or
    /// imports the node records the same bit.
    pub fn children_disjoint(&self, id: ExprId) -> bool {
        match self.exprs[id.0 as usize].shape {
            Shape::Add(_, disjoint) | Shape::Mul(_, disjoint) => disjoint,
            _ => false,
        }
    }

    /// [`children_disjoint`](Self::children_disjoint) for the terms of a
    /// semimodule expression: their coefficients' variable sets are pairwise
    /// disjoint.
    pub fn terms_disjoint(&self, id: AggExprId) -> bool {
        self.aggs[id.0 as usize].disjoint
    }

    /// All interned semiring nodes in id order (item `i` is the node behind
    /// `ExprId(i)`). Children always have smaller ids than their parents, so this
    /// is a valid bottom-up replay order — the property the snapshot codec of
    /// `pvc-core::persist` relies on.
    pub fn nodes(&self) -> impl ExactSizeIterator<Item = InternedExpr<'_>> {
        (0..self.exprs.len() as u32).map(|i| self.node(ExprId(i)))
    }

    /// All interned semimodule nodes in id order (see [`nodes`](Self::nodes)).
    pub fn agg_nodes(&self) -> impl ExactSizeIterator<Item = InternedAgg<'_>> {
        (0..self.aggs.len() as u32).map(|i| self.agg_node(AggExprId(i)))
    }

    /// Intern an already-structured node whose children are ids of **this**
    /// interner. Canonicalises n-ary operand order exactly like
    /// [`intern`](Self::intern), so replaying another interner's nodes (with
    /// remapped child ids) through this method reproduces canonical structures —
    /// the load half of the snapshot codec.
    pub fn intern_node(&mut self, node: InternedExpr<'_>) -> ExprId {
        match node {
            InternedExpr::Var(v) => self.insert_leaf(Shape::Var(v)),
            InternedExpr::Const(c) => self.insert_leaf(Shape::Const(c)),
            InternedExpr::Add(children) => self.intern_add(children),
            InternedExpr::Mul(children) => self.intern_mul(children),
            InternedExpr::CmpSS(op, a, b) => self.insert_leaf(Shape::CmpSS(op, a, b)),
            InternedExpr::CmpMM(op, a, b) => self.insert_leaf(Shape::CmpMM(op, a, b)),
        }
    }

    /// Intern a semiring expression tree, returning its canonical id.
    pub fn intern(&mut self, expr: &SemiringExpr) -> ExprId {
        match expr {
            SemiringExpr::Var(v) => self.insert_leaf(Shape::Var(*v)),
            SemiringExpr::Const(c) => self.insert_leaf(Shape::Const(*c)),
            SemiringExpr::Add(children) => {
                let ids: Vec<ExprId> = children.iter().map(|c| self.intern(c)).collect();
                self.intern_add(&ids)
            }
            SemiringExpr::Mul(children) => {
                let ids: Vec<ExprId> = children.iter().map(|c| self.intern(c)).collect();
                self.intern_mul(&ids)
            }
            SemiringExpr::CmpSS(op, a, b) => {
                let ia = self.intern(a);
                let ib = self.intern(b);
                self.insert_leaf(Shape::CmpSS(*op, ia, ib))
            }
            SemiringExpr::CmpMM(op, a, b) => {
                let ia = self.intern_semimodule(a);
                let ib = self.intern_semimodule(b);
                self.insert_leaf(Shape::CmpMM(*op, ia, ib))
            }
        }
    }

    /// Intern a semimodule expression, returning its canonical id.
    pub fn intern_semimodule(&mut self, expr: &SemimoduleExpr) -> AggExprId {
        let terms: Vec<AggTerm> = expr
            .terms
            .iter()
            .map(|t| (self.intern(&t.coeff), t.value))
            .collect();
        self.intern_agg(expr.op, &terms)
    }

    /// Intern an n-ary sum from already-interned children (canonicalising order).
    /// A singleton sum collapses to its only child, mirroring
    /// [`SemiringExpr::sum`]'s builder behaviour.
    pub fn intern_add(&mut self, children: &[ExprId]) -> ExprId {
        self.insert_nary(true, children)
    }

    /// Intern an n-ary product from already-interned children (canonicalising order).
    pub fn intern_mul(&mut self, children: &[ExprId]) -> ExprId {
        self.insert_nary(false, children)
    }

    /// Intern a semimodule sum from already-interned terms (canonicalising order).
    pub fn intern_agg(&mut self, op: AggOp, terms: &[AggTerm]) -> AggExprId {
        // Each coefficient's hash is read once into its key; the sort, the
        // hash and the comparison then work from the keys.
        let mut keys = std::mem::take(&mut self.keys);
        keys.clear();
        keys.extend(
            terms
                .iter()
                .enumerate()
                .map(|(at, &(coeff, _))| operand_key(self.exprs[coeff.0 as usize].hash, coeff, at)),
        );
        sort_terms(&mut keys, terms);
        let term = |key: u128| (key_id(key), terms[key_position(key)].1);
        let hash = commutative_fold(
            chain(TAG_AGG, op as u64),
            keys.iter()
                .map(|&k| chain(key_hash(k), hash_monoid_value(&term(k).1))),
        );
        let start = self.agg_terms.len();
        self.agg_terms.extend(keys.iter().map(|&k| term(k)));
        self.keys = keys;
        let own = &self.agg_terms[start..];
        let found = self.agg_table.find(hash, |cand| {
            let entry = &self.aggs[cand as usize];
            entry.hash == hash && entry.op == op && self.agg_terms[entry.terms.range()] == *own
        });
        if let Some(id) = found {
            self.agg_terms.truncate(start);
            return AggExprId(id);
        }
        let terms = Span::new(start, self.agg_terms.len());
        let (vars, disjoint) = union_vars(
            &mut self.var_pool,
            self.agg_terms[start..]
                .iter()
                .map(|(c, _)| self.exprs[c.0 as usize].vars),
        );
        let id = self.aggs.len() as u32;
        self.aggs.push(AggEntry {
            op,
            terms,
            hash,
            vars,
            disjoint,
        });
        let aggs = &self.aggs;
        self.agg_table
            .insert(hash, id, |old| aggs[old as usize].hash);
        AggExprId(id)
    }

    /// Copy the DAG below `id` of `src` into this arena and return its id here.
    /// Ids are assigned in first-visit order of a walk through `src`'s canonical
    /// child order, so what the copy looks like is a function of the expression's
    /// structure alone, not of how `src` numbered it. `memo` remembers what it
    /// has copied: share one across several roots of the same `src` and nothing
    /// is visited twice.
    pub fn import(&mut self, src: &Interner, id: ExprId, memo: &mut ImportMemo) -> ExprId {
        if let Some(&done) = memo.exprs.get(&id.0) {
            return done;
        }
        let copy = match src.node(id) {
            InternedExpr::Var(v) => self.insert_leaf(Shape::Var(v)),
            InternedExpr::Const(c) => self.insert_leaf(Shape::Const(c)),
            InternedExpr::Add(children) => {
                let mine = self.import_all(src, children, memo);
                self.intern_add(&mine)
            }
            InternedExpr::Mul(children) => {
                let mine = self.import_all(src, children, memo);
                self.intern_mul(&mine)
            }
            InternedExpr::CmpSS(op, a, b) => {
                let a = self.import(src, a, memo);
                let b = self.import(src, b, memo);
                self.insert_leaf(Shape::CmpSS(op, a, b))
            }
            InternedExpr::CmpMM(op, a, b) => {
                let a = self.import_agg(src, a, memo);
                let b = self.import_agg(src, b, memo);
                self.insert_leaf(Shape::CmpMM(op, a, b))
            }
        };
        memo.exprs.insert(id.0, copy);
        copy
    }

    /// [`import`](Self::import) for a semimodule expression.
    pub fn import_agg(
        &mut self,
        src: &Interner,
        id: AggExprId,
        memo: &mut ImportMemo,
    ) -> AggExprId {
        if let Some(&done) = memo.aggs.get(&id.0) {
            return done;
        }
        let node = src.agg_node(id);
        let terms: Vec<AggTerm> = node
            .terms
            .iter()
            .map(|&(coeff, value)| (self.import(src, coeff, memo), value))
            .collect();
        let copy = self.intern_agg(node.op, &terms);
        memo.aggs.insert(id.0, copy);
        copy
    }

    fn import_all(
        &mut self,
        src: &Interner,
        children: &[ExprId],
        memo: &mut ImportMemo,
    ) -> Vec<ExprId> {
        children
            .iter()
            .map(|&c| self.import(src, c, memo))
            .collect()
    }

    fn insert_nary(&mut self, is_add: bool, children: &[ExprId]) -> ExprId {
        if let [only] = children {
            return *only;
        }
        // Each child's hash is read once into its key; the sort, the hash and
        // the comparison then work from the keys.
        let mut keys = std::mem::take(&mut self.keys);
        keys.clear();
        keys.extend(
            children
                .iter()
                .map(|&c| operand_key(self.exprs[c.0 as usize].hash, c, 0)),
        );
        sort_children(&mut keys);
        let tag = if is_add { TAG_ADD } else { TAG_MUL };
        let hash = commutative_fold(tag, keys.iter().map(|&k| key_hash(k)));
        // The candidate's children go to the end of the pool first: a hit takes
        // them off again, a miss leaves them where the new node needs them.
        let start = self.children.len();
        self.children.extend(keys.iter().map(|&k| key_id(k)));
        self.keys = keys;
        let exprs = &self.exprs;
        let own = &self.children[start..];
        let found = self.table.find(hash, |cand| {
            let entry = &exprs[cand as usize];
            entry.hash == hash
                && match entry.shape {
                    Shape::Add(span, _) if is_add => self.children[span.range()] == *own,
                    Shape::Mul(span, _) if !is_add => self.children[span.range()] == *own,
                    _ => false,
                }
        });
        if let Some(id) = found {
            self.children.truncate(start);
            return ExprId(id);
        }
        let span = Span::new(start, self.children.len());
        let (vars, disjoint) = union_vars(
            &mut self.var_pool,
            self.children[start..]
                .iter()
                .map(|c| self.exprs[c.0 as usize].vars),
        );
        let shape = if is_add {
            Shape::Add(span, disjoint)
        } else {
            Shape::Mul(span, disjoint)
        };
        self.push_expr(shape, hash, vars)
    }

    /// Intern a node without n-ary children.
    fn insert_leaf(&mut self, shape: Shape) -> ExprId {
        let hash = match shape {
            Shape::Var(v) => mix(TAG_VAR ^ v.0 as u64),
            Shape::Const(c) => hash_semiring_value(&c),
            Shape::CmpSS(op, a, b) => chain(
                chain(chain(TAG_CMP_SS, op as u64), self.hash(a)),
                self.hash(b),
            ),
            Shape::CmpMM(op, a, b) => chain(
                chain(chain(TAG_CMP_MM, op as u64), self.agg_hash(a)),
                self.agg_hash(b),
            ),
            Shape::Add(..) | Shape::Mul(..) => unreachable!("n-ary nodes go through insert_nary"),
        };
        let found = self.table.find(hash, |cand| {
            let entry = &self.exprs[cand as usize];
            entry.hash == hash
                && match (entry.shape, shape) {
                    (Shape::Var(a), Shape::Var(b)) => a == b,
                    (Shape::Const(a), Shape::Const(b)) => a == b,
                    (Shape::CmpSS(o, a, b), Shape::CmpSS(p, c, d)) => (o, a, b) == (p, c, d),
                    (Shape::CmpMM(o, a, b), Shape::CmpMM(p, c, d)) => (o, a, b) == (p, c, d),
                    _ => false,
                }
        });
        if let Some(id) = found {
            return ExprId(id);
        }
        let vars = match shape {
            Shape::Var(v) => {
                self.var_pool.push(v);
                Span::new(self.var_pool.len() - 1, self.var_pool.len())
            }
            Shape::CmpSS(_, a, b) => {
                let sides = [self.exprs[a.0 as usize].vars, self.exprs[b.0 as usize].vars];
                union_vars(&mut self.var_pool, sides.into_iter()).0
            }
            Shape::CmpMM(_, a, b) => {
                let sides = [self.aggs[a.0 as usize].vars, self.aggs[b.0 as usize].vars];
                union_vars(&mut self.var_pool, sides.into_iter()).0
            }
            _ => Span::default(),
        };
        self.push_expr(shape, hash, vars)
    }

    fn push_expr(&mut self, shape: Shape, hash: u64, vars: Span) -> ExprId {
        let id = u32::try_from(self.exprs.len()).expect("expression arena exceeds u32 ids");
        self.exprs.push(ExprEntry { shape, hash, vars });
        let exprs = &self.exprs;
        self.table.insert(hash, id, |old| exprs[old as usize].hash);
        ExprId(id)
    }
}

/// The canonical order of an n-ary node's children: by canonical hash, ties
/// broken by id (within one interner, equal structure ⇒ equal id, so the order
/// is total on distinct structures and permutations of a multiset sort
/// identically) — ascending [keys](operand_key).
fn sort_children(keys: &mut [u128]) {
    keys.sort_unstable();
}

/// The canonical order of a semimodule node's terms: by the coefficient's
/// canonical hash, then its id, then the value. The keys order the first two;
/// terms that share a coefficient, rare, are put in value order afterwards.
fn sort_terms(keys: &mut [u128], terms: &[AggTerm]) {
    keys.sort_unstable();
    let mut run = 0;
    while run < keys.len() {
        let coeff = keys[run] >> 32;
        let end = run
            + keys[run..]
                .iter()
                .take_while(|&&k| k >> 32 == coeff)
                .count();
        if end - run > 1 {
            keys[run..end].sort_unstable_by_key(|&k| terms[key_position(k)].1);
        }
        run = end;
    }
}

/// Append the union of the given runs of `pool` to it — every run's variables
/// collected once, then one sort and one dedup (folding pairwise unions re-sorts
/// the growing set per run) — and return where it is, with whether the runs were
/// pairwise disjoint (the dedup removed nothing). A union no larger than its
/// widest operand *is* that operand, whose run is returned instead.
fn union_vars(pool: &mut Vec<Var>, sets: impl Iterator<Item = Span>) -> (Span, bool) {
    let start = pool.len();
    let mut widest = Span::default();
    for set in sets {
        if set.len > widest.len {
            widest = set;
        }
        pool.extend_from_within(set.range());
    }
    pool[start..].sort_unstable();
    let mut end = start;
    for at in start..pool.len() {
        if end == start || pool[end - 1] != pool[at] {
            pool[end] = pool[at];
            end += 1;
        }
    }
    let disjoint = end == pool.len();
    if end - start == widest.len as usize {
        pool.truncate(start);
        return (widest, disjoint);
    }
    pool.truncate(end);
    (Span::new(start, end), disjoint)
}

/// What an [`Interner::import`] has copied so far, by source id.
#[derive(Debug, Default)]
pub struct ImportMemo {
    exprs: HashMap<u32, ExprId, BuildHasherDefault<IdHasher>>,
    aggs: HashMap<u32, AggExprId, BuildHasherDefault<IdHasher>>,
}

impl ImportMemo {
    /// Forget everything (for importing from another source), keeping the maps'
    /// allocations.
    pub fn clear(&mut self) {
        self.exprs.clear();
        self.aggs.clear();
    }
}

/// Hasher for arena ids — small integers this program handed out itself, so one
/// round of the splitmix64 finaliser instead of SipHash. For maps and sets
/// keyed by one `u32` id (or a newtype of one, such as [`ExprId`]): one
/// `write_u32` per key, and no seed, since no outsider chooses an id. The
/// artifact store in `pvc-core` keys its id tables with it too.
#[derive(Debug, Default)]
pub struct IdHasher(u64);

impl Hasher for IdHasher {
    fn finish(&self) -> u64 {
        self.0
    }

    fn write(&mut self, bytes: &[u8]) {
        for &b in bytes {
            self.0 = mix(self.0 ^ b as u64);
        }
    }

    fn write_u32(&mut self, id: u32) {
        self.0 = mix(id as u64);
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::independence::{Hint, Partitioner};
    use pvc_algebra::MonoidValue::Fin;
    use pvc_prob::SeededRng;

    fn v(i: u32) -> SemiringExpr {
        SemiringExpr::Var(Var(i))
    }

    #[test]
    fn structural_equality_is_id_equality() {
        let mut it = Interner::new();
        let a = it.intern(&(v(1) * (v(2) + v(3))));
        let b = it.intern(&(v(1) * (v(2) + v(3))));
        assert_eq!(a, b);
        let c = it.intern(&(v(1) * (v(2) + v(4))));
        assert_ne!(a, c);
        // Shared sub-structure is stored once: v1, v2, v3, v4, (v2+v3), (v2+v4),
        // and the two products — 8 nodes, not 10.
        assert_eq!(it.len(), 8);
    }

    #[test]
    fn commutative_reordering_is_canonicalised() {
        let mut it = Interner::new();
        let a = it.intern(&(v(1) * (v(2) + v(3))));
        let b = it.intern(&((v(3) + v(2)) * v(1)));
        assert_eq!(a, b, "operand order must not matter");
        assert_eq!(it.hash(a), it.hash(b));
        // Also across nesting: x·y·z in any association/order (the n-ary builders
        // flatten, so all renderings produce one Mul node).
        let p = it.intern(&SemiringExpr::product(vec![v(5), v(6), v(7)]));
        let q = it.intern(&SemiringExpr::product(vec![v(7), v(5), v(6)]));
        assert_eq!(p, q);
    }

    #[test]
    fn canonical_hash_is_stable_across_interners() {
        let e = (v(1) + v(2)) * v(3);
        let mut it1 = Interner::new();
        let mut it2 = Interner::new();
        // Interning unrelated expressions first shifts id assignment in it2, but the
        // canonical hash only depends on structure.
        it2.intern(&(v(9) * v(8) + v(7)));
        let h1 = {
            let id = it1.intern(&e);
            it1.hash(id)
        };
        let h2 = {
            let id = it2.intern(&((v(2) + v(1)) * v(3)));
            it2.hash(id)
        };
        assert_eq!(h1, h2);
    }

    #[test]
    fn distinct_structures_get_distinct_hashes() {
        // Not a collision-freeness proof, just a smoke test over a family of
        // related expressions.
        let mut it = Interner::new();
        let exprs = vec![
            v(1) + v(2),
            v(1) * v(2),
            v(1) + v(2) + v(3),
            v(1) * (v(2) + v(3)),
            (v(1) * v(2)) + v(3),
            SemiringExpr::cmp_ss(CmpOp::Le, v(1), v(2)),
            SemiringExpr::cmp_ss(CmpOp::Ge, v(1), v(2)),
            SemiringExpr::Const(SemiringValue::Bool(true)),
            SemiringExpr::Const(SemiringValue::Nat(1)),
        ];
        let hashes: Vec<u64> = exprs
            .iter()
            .map(|e| {
                let id = it.intern(e);
                it.hash(id)
            })
            .collect();
        for i in 0..hashes.len() {
            for j in i + 1..hashes.len() {
                assert_ne!(hashes[i], hashes[j], "{i} vs {j}");
            }
        }
    }

    #[test]
    fn semimodule_terms_are_canonicalised() {
        let mut it = Interner::new();
        let a = SemimoduleExpr::from_terms(AggOp::Min, vec![(v(1), Fin(10)), (v(2), Fin(20))]);
        let b = SemimoduleExpr::from_terms(AggOp::Min, vec![(v(2), Fin(20)), (v(1), Fin(10))]);
        let ia = it.intern_semimodule(&a);
        let ib = it.intern_semimodule(&b);
        assert_eq!(ia, ib);
        assert_eq!(it.agg_hash(ia), it.agg_hash(ib));
        // A different monoid or value is a different expression.
        let c = SemimoduleExpr::from_terms(AggOp::Max, vec![(v(1), Fin(10)), (v(2), Fin(20))]);
        assert_ne!(it.intern_semimodule(&c), ia);
    }

    #[test]
    fn import_copies_the_dag_and_numbers_it_by_structure() {
        // The same condition reaches two source arenas in different renderings
        // and after different histories; a nested aggregate is shared by two
        // comparisons.
        let alpha =
            SemimoduleExpr::from_terms(AggOp::Min, vec![(v(1) * v(2), Fin(3)), (v(3), Fin(4))]);
        let beta = SemimoduleExpr::constant(AggOp::Min, Fin(3));
        let cond = SemiringExpr::cmp_mm(CmpOp::Le, alpha.clone(), beta.clone());
        let e = (cond.clone() * v(4)) + (cond * v(5)) + v(1);
        let alpha_commuted =
            SemimoduleExpr::from_terms(AggOp::Min, vec![(v(3), Fin(4)), (v(2) * v(1), Fin(3))]);
        let cond_commuted = SemiringExpr::cmp_mm(CmpOp::Le, alpha_commuted, beta);
        let e_commuted = v(1) + (v(5) * cond_commuted.clone()) + (cond_commuted * v(4));
        let mut src1 = Interner::new();
        let id1 = src1.intern(&e);
        let mut src2 = Interner::new();
        src2.intern(&(v(9) * v(8) + v(7)));
        let id2 = src2.intern(&e_commuted);

        let mut dst1 = Interner::new();
        let copy1 = dst1.import(&src1, id1, &mut ImportMemo::default());
        let mut dst2 = Interner::new();
        let mut memo = ImportMemo::default();
        let copy2 = dst2.import(&src2, id2, &mut memo);
        // Only what the root reaches is copied, shared nodes once.
        assert_eq!(dst1.len(), src1.len());
        assert_eq!(dst1.agg_len(), 2);
        assert!(dst2.len() < src2.len());
        assert_eq!(dst1.hash(copy1), src1.hash(id1));
        assert_eq!(dst1.var_set(copy1), src1.var_set(id1));
        // Same structure, same numbering: the two copies are node-for-node equal.
        assert_eq!(copy1, copy2);
        assert!(dst1.nodes().eq(dst2.nodes()));
        assert!(dst1.agg_nodes().eq(dst2.agg_nodes()));
        // Importing again is a lookup, and interning the tree into the copy is a
        // fixed point.
        assert_eq!(dst2.import(&src2, id2, &mut memo), copy2);
        assert_eq!(dst2.intern(&e), copy2);
    }

    #[test]
    fn clear_keeps_the_tables() {
        let e = SemiringExpr::sum((0..40).map(|i| v(i) * v(i + 1) * v(i + 2)).collect());
        let mut it = Interner::new();
        let id = it.intern(&e);
        let (len, hash, capacity) = (it.len(), it.hash(id), it.capacity());
        it.clear();
        assert!(it.is_empty());
        assert_eq!(it.capacity(), capacity);
        // Refilling finds everything it needs in place.
        let again = it.intern(&e);
        assert_eq!(
            (it.len(), it.hash(again), it.capacity()),
            (len, hash, capacity)
        );
        assert_eq!(again, id);
    }

    #[test]
    fn a_node_as_wide_as_a_child_shares_its_var_set() {
        let mut it = Interner::new();
        let inner = it.intern(&(v(1) * v(2) * v(3)));
        let outer = it.intern(&((v(1) * v(2) * v(3)) + v(2)));
        assert_eq!(it.var_set(outer), it.var_set(inner));
        assert!(std::ptr::eq(it.var_set(outer), it.var_set(inner)));
    }

    #[test]
    fn var_sets_are_precomputed() {
        let mut it = Interner::new();
        let id = it.intern(&(v(1) * (v(2) + v(3))));
        let vs = it.var_set(id);
        assert_eq!(vs.len(), 3);
        assert!(vs.contains(&Var(2)));
        let alpha = SemimoduleExpr::from_terms(AggOp::Sum, vec![(v(7), Fin(1))]);
        let aid = it.intern_semimodule(&alpha);
        assert_eq!(it.agg_var_set(aid), &[Var(7)]);
    }

    #[test]
    fn interning_a_wide_aggregate_is_not_quadratic() {
        // The var-set of an n-term node is built with one sort, not n unions of a
        // growing set. Octupling n must cost well under the 64× of a quadratic
        // construction (n log n predicts ≈ 9×); each side is the best of three.
        fn best_of_three(n: u32) -> std::time::Duration {
            let alpha =
                SemimoduleExpr::from_terms(AggOp::Count, (0..n).map(|i| (v(i), Fin(1))).collect());
            (0..3)
                .map(|_| {
                    let mut it = Interner::new();
                    let start = std::time::Instant::now();
                    let id = it.intern_semimodule(&alpha);
                    let elapsed = start.elapsed();
                    assert_eq!(it.agg_var_set(id).len(), n as usize);
                    elapsed
                })
                .min()
                .expect("three runs")
        }
        let n = 4_000;
        let small = best_of_three(n);
        let large = best_of_three(8 * n);
        let ratio = large.as_secs_f64() / small.as_secs_f64();
        assert!(
            ratio < 24.0,
            "interning {} terms took {large:?}, {n} terms {small:?}: ratio {ratio:.1}",
            8 * n
        );
    }

    /// Seeds of the randomised sweeps: one fixed, plus `PVC_ORACLE_SEED` when
    /// set.
    fn seeds(fixed: u64) -> Vec<u64> {
        let mut seeds = vec![fixed];
        if let Ok(extra) = std::env::var("PVC_ORACLE_SEED") {
            seeds.push(extra.parse().expect("PVC_ORACLE_SEED must be a u64"));
        }
        seeds
    }

    fn random_const(rng: &mut SeededRng) -> SemiringExpr {
        SemiringExpr::Const(match rng.gen_range(0u32..3) {
            0 => SemiringValue::Bool(rng.gen_range(0u32..2) == 1),
            _ => SemiringValue::Nat(rng.gen_range(0u32..3) as u64),
        })
    }

    /// A random expression over the variables `0..pool`: sums and products of
    /// 0–5 operands (constants among them, and now and then an operand
    /// repeated, as `N` keeps it), comparisons, and aggregates.
    fn random_expr(rng: &mut SeededRng, pool: u32, depth: u32) -> SemiringExpr {
        let pick = match depth {
            0 => rng.gen_range(0u32..3),
            _ => rng.gen_range(0u32..9),
        };
        match pick {
            0 | 1 => v(rng.gen_range(0..pool)),
            2 => random_const(rng),
            3..=6 => {
                let n = rng.gen_range(0usize..6);
                let mut children: Vec<SemiringExpr> =
                    (0..n).map(|_| random_expr(rng, pool, depth - 1)).collect();
                if n > 0 && rng.gen_range(0u32..4) == 0 {
                    let repeated = children[rng.gen_range(0..n)].clone();
                    children.push(repeated);
                }
                match pick {
                    3 | 4 => SemiringExpr::Add(children),
                    _ => SemiringExpr::Mul(children),
                }
            }
            7 => SemiringExpr::cmp_ss(
                CmpOp::Le,
                random_expr(rng, pool, depth - 1),
                random_expr(rng, pool, depth - 1),
            ),
            _ => SemiringExpr::cmp_mm(
                CmpOp::Ge,
                random_agg(rng, pool, depth - 1),
                random_agg(rng, pool, depth - 1),
            ),
        }
    }

    /// A random aggregate of 0–5 terms; a coefficient is repeated now and then,
    /// with the same value or another one.
    fn random_agg(rng: &mut SeededRng, pool: u32, depth: u32) -> SemimoduleExpr {
        let op = [AggOp::Sum, AggOp::Count, AggOp::Min, AggOp::Max][rng.gen_range(0usize..4)];
        let n = rng.gen_range(0usize..6);
        let mut terms: Vec<(SemiringExpr, MonoidValue)> = (0..n)
            .map(|_| (random_expr(rng, pool, depth), Fin(rng.gen_range(0i64..4))))
            .collect();
        if n > 0 && rng.gen_range(0u32..3) == 0 {
            let coeff = terms[rng.gen_range(0..n)].0.clone();
            terms.push((coeff, Fin(rng.gen_range(0i64..4))));
        }
        SemimoduleExpr::from_terms(op, terms)
    }

    /// The same expression with the operands of every sum and product and the
    /// terms of every aggregate in another order.
    fn commuted(rng: &mut SeededRng, e: &SemiringExpr) -> SemiringExpr {
        match e {
            SemiringExpr::Var(_) | SemiringExpr::Const(_) => e.clone(),
            SemiringExpr::Add(children) => SemiringExpr::Add(shuffled(rng, children, commuted)),
            SemiringExpr::Mul(children) => SemiringExpr::Mul(shuffled(rng, children, commuted)),
            SemiringExpr::CmpSS(op, a, b) => {
                SemiringExpr::cmp_ss(*op, commuted(rng, a), commuted(rng, b))
            }
            SemiringExpr::CmpMM(op, a, b) => {
                SemiringExpr::cmp_mm(*op, commuted_agg(rng, a), commuted_agg(rng, b))
            }
        }
    }

    fn commuted_agg(rng: &mut SeededRng, alpha: &SemimoduleExpr) -> SemimoduleExpr {
        let terms = shuffled(rng, &alpha.terms, |rng, t| {
            crate::SmTerm::new(commuted(rng, &t.coeff), t.value)
        });
        SemimoduleExpr {
            op: alpha.op,
            terms,
        }
    }

    fn shuffled<T, U>(
        rng: &mut SeededRng,
        items: &[T],
        map: impl Fn(&mut SeededRng, &T) -> U,
    ) -> Vec<U> {
        let mut out: Vec<U> = items.iter().map(|item| map(rng, item)).collect();
        for i in (1..out.len()).rev() {
            out.swap(i, rng.gen_range(0..=i));
        }
        out
    }

    /// Every n-ary and semimodule node of `it` against the partitioner: the bit
    /// is set iff each item is its own component, and where it is set the
    /// shortcut's split is the partitioner's. Returns how many bits were set
    /// and how many cleared.
    fn check_bits(it: &Interner, what: &str) -> (usize, usize) {
        let (mut full, mut shortcut) = (Partitioner::default(), Partitioner::default());
        let mut tally = (0, 0);
        let mut check = |bit: bool, coeffs: &[ExprId], node: String| {
            let expected = full.components(coeffs.len(), |i| it.var_set(coeffs[i]));
            assert_eq!(bit, expected.len() == coeffs.len(), "{what}: {node}");
            if bit {
                let split = shortcut.split(coeffs.len(), Hint::Disjoint, |_| unreachable!());
                assert_eq!(split, expected, "{what}: {node}");
                tally.0 += 1;
            } else {
                tally.1 += 1;
            }
        };
        for (i, node) in it.nodes().enumerate() {
            if let InternedExpr::Add(children) | InternedExpr::Mul(children) = node {
                check(
                    it.children_disjoint(ExprId(i as u32)),
                    children,
                    format!("{node:?}"),
                );
            } else {
                assert!(!it.children_disjoint(ExprId(i as u32)), "{what}: {node:?}");
            }
        }
        for (j, node) in it.agg_nodes().enumerate() {
            let coeffs: Vec<ExprId> = node.terms.iter().map(|(c, _)| *c).collect();
            check(
                it.terms_disjoint(AggExprId(j as u32)),
                &coeffs,
                format!("{node:?}"),
            );
        }
        tally
    }

    /// Replay every node of `src` into `dst` in id order through
    /// [`Interner::intern_node`] / [`Interner::intern_agg`], as the snapshot
    /// codec restores one: an aggregate just before the first comparison that
    /// needs it, the rest after the expressions.
    fn replay(src: &Interner, dst: &mut Interner) -> (Vec<ExprId>, Vec<AggExprId>) {
        let mut exprs: Vec<ExprId> = Vec::with_capacity(src.len());
        let mut aggs: Vec<Option<AggExprId>> = vec![None; src.agg_len()];
        let agg = |dst: &mut Interner, exprs: &[ExprId], id: AggExprId| {
            let node = src.agg_node(id);
            let terms: Vec<AggTerm> = node
                .terms
                .iter()
                .map(|&(c, m)| (exprs[c.0 as usize], m))
                .collect();
            dst.intern_agg(node.op, &terms)
        };
        for node in src.nodes() {
            let remapped: Vec<ExprId>;
            let mapped = match node {
                InternedExpr::Add(children) | InternedExpr::Mul(children) => {
                    remapped = children.iter().map(|c| exprs[c.0 as usize]).collect();
                    match node {
                        InternedExpr::Add(_) => InternedExpr::Add(&remapped),
                        _ => InternedExpr::Mul(&remapped),
                    }
                }
                InternedExpr::CmpSS(op, a, b) => {
                    InternedExpr::CmpSS(op, exprs[a.0 as usize], exprs[b.0 as usize])
                }
                InternedExpr::CmpMM(op, a, b) => {
                    for side in [a, b] {
                        if aggs[side.0 as usize].is_none() {
                            aggs[side.0 as usize] = Some(agg(dst, &exprs, side));
                        }
                    }
                    InternedExpr::CmpMM(
                        op,
                        aggs[a.0 as usize].unwrap(),
                        aggs[b.0 as usize].unwrap(),
                    )
                }
                leaf => leaf,
            };
            exprs.push(dst.intern_node(mapped));
        }
        let aggs = (0..src.agg_len())
            .map(|j| aggs[j].unwrap_or_else(|| agg(dst, &exprs, AggExprId(j as u32))))
            .collect();
        (exprs, aggs)
    }

    #[test]
    fn the_disjointness_bit_is_the_partition() {
        for seed in seeds(0x05EE_DD15) {
            let mut rng = SeededRng::seed_from_u64(seed);
            let (mut set, mut cleared) = (0, 0);
            for case in 0..300 {
                let pool = rng.gen_range(2u32..12);
                let mut it = Interner::new();
                let roots: Vec<ExprId> = (0..4)
                    .map(|_| it.intern(&random_expr(&mut rng, pool, 3)))
                    .collect();
                let agg_roots: Vec<AggExprId> = (0..2)
                    .map(|_| it.intern_semimodule(&random_agg(&mut rng, pool, 2)))
                    .collect();
                let what = format!("seed {seed} case {case}");
                let (s, c) = check_bits(&it, &what);
                (set, cleared) = (set + s, cleared + c);

                // Imported (the store's compaction, a compiler's load): one
                // memo across every root; each root keeps its bit.
                let mut copy = Interner::new();
                let mut memo = ImportMemo::default();
                for &root in &roots {
                    let mine = copy.import(&it, root, &mut memo);
                    assert_eq!(copy.children_disjoint(mine), it.children_disjoint(root));
                }
                for &root in &agg_roots {
                    let mine = copy.import_agg(&it, root, &mut memo);
                    assert_eq!(copy.terms_disjoint(mine), it.terms_disjoint(root));
                }
                check_bits(&copy, &format!("{what}, imported"));

                // Replayed node by node (a snapshot restore): every id keeps
                // its bit.
                let mut restored = Interner::new();
                let (exprs, aggs) = replay(&it, &mut restored);
                for (i, &mine) in exprs.iter().enumerate() {
                    let bit = it.children_disjoint(ExprId(i as u32));
                    assert_eq!(restored.children_disjoint(mine), bit, "{what}");
                }
                for (j, &mine) in aggs.iter().enumerate() {
                    let bit = it.terms_disjoint(AggExprId(j as u32));
                    assert_eq!(restored.terms_disjoint(mine), bit, "{what}");
                }
                check_bits(&restored, &format!("{what}, replayed"));
            }
            // Both answers occur often enough to mean something.
            assert!(
                set > 1_000 && cleared > 1_000,
                "seed {seed}: {set} set, {cleared} cleared"
            );
        }
    }

    #[test]
    fn the_keyed_sorts_are_the_canonical_order() {
        for seed in seeds(0x0DE5) {
            let mut rng = SeededRng::seed_from_u64(seed);
            // Synthetic keys whose hashes collide often: ties broken by id, and
            // for terms by coefficient and then value.
            for _ in 0..500 {
                let n = rng.gen_range(0usize..24);
                let hash_of: Vec<u64> = (0..40).map(|_| rng.gen_range(0u32..4) as u64).collect();
                let ids: Vec<ExprId> = (0..n).map(|_| ExprId(rng.gen_range(0u32..40))).collect();
                let mut keys: Vec<u128> = ids
                    .iter()
                    .map(|&id| operand_key(hash_of[id.0 as usize], id, 0))
                    .collect();
                sort_children(&mut keys);
                let mut expected = ids.clone();
                expected.sort_unstable_by_key(|c| (hash_of[c.0 as usize], *c));
                assert!(keys.iter().map(|&k| key_id(k)).eq(expected));

                let terms: Vec<AggTerm> = ids
                    .iter()
                    .map(|&id| (id, Fin(rng.gen_range(0i64..3))))
                    .collect();
                let mut keys: Vec<u128> = terms
                    .iter()
                    .enumerate()
                    .map(|(at, &(coeff, _))| operand_key(hash_of[coeff.0 as usize], coeff, at))
                    .collect();
                sort_terms(&mut keys, &terms);
                let mut expected = terms.clone();
                expected.sort_unstable_by_key(|(c, m)| (hash_of[c.0 as usize], *c, *m));
                assert!(keys
                    .iter()
                    .map(|&k| (key_id(k), terms[key_position(k)].1))
                    .eq(expected));
            }
            // Interned lists come out in exactly the reference order, and every
            // commuted rendering interns to one id.
            let mut it = Interner::new();
            for case in 0..300 {
                let pool = rng.gen_range(2u32..12);
                let e = random_expr(&mut rng, pool, 3);
                let id = it.intern(&e);
                for _ in 0..3 {
                    assert_eq!(
                        it.intern(&commuted(&mut rng, &e)),
                        id,
                        "seed {seed} case {case}"
                    );
                }
                let alpha = random_agg(&mut rng, pool, 2);
                let aid = it.intern_semimodule(&alpha);
                assert_eq!(it.intern_semimodule(&commuted_agg(&mut rng, &alpha)), aid);
            }
            for node in it.nodes() {
                if let InternedExpr::Add(children) | InternedExpr::Mul(children) = node {
                    let mut expected = children.to_vec();
                    expected.sort_unstable_by_key(|c| (it.hash(*c), *c));
                    assert_eq!(children, expected.as_slice());
                }
            }
            for node in it.agg_nodes() {
                let mut expected = node.terms.to_vec();
                expected.sort_unstable_by_key(|(c, m)| (it.hash(*c), *c, *m));
                assert_eq!(node.terms, expected.as_slice());
            }
        }
    }
}
