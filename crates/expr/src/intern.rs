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
//!   need not re-walk the tree).
//!
//! The arena only ever grows; it is intended to live alongside a bounded
//! `CompilationCache` (see `pvc-core`) which stores the expensive artifacts and can
//! evict freely, while ids stay valid for the lifetime of the interner.

use crate::semimodule_expr::{SemimoduleExpr, SmTerm};
use crate::semiring_expr::SemiringExpr;
use crate::vars::{Var, VarSet};
use pvc_algebra::{AggOp, CmpOp, MonoidValue, SemiringValue};
use std::collections::HashMap;

/// Id of an interned [`SemiringExpr`] (index into the [`Interner`] arena).
///
/// Ids are canonical under commutative reordering: equal ids ⇔ structurally equal
/// expressions up to `+`/`·` operand order.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Hash, PartialOrd, Ord)]
pub struct ExprId(pub u32);

/// Id of an interned [`SemimoduleExpr`] (index into the [`Interner`] arena).
#[derive(Debug, Clone, Copy, PartialEq, Eq, Hash, PartialOrd, Ord)]
pub struct AggExprId(pub u32);

/// An interned semiring-expression node: the same shape as [`SemiringExpr`] with
/// child subtrees replaced by arena ids.
#[derive(Debug, Clone, PartialEq, Eq, Hash)]
pub enum InternedExpr {
    /// A random variable.
    Var(Var),
    /// A semiring constant.
    Const(SemiringValue),
    /// An n-ary sum; children in canonical order.
    Add(Vec<ExprId>),
    /// An n-ary product; children in canonical order.
    Mul(Vec<ExprId>),
    /// A conditional comparing two semiring expressions.
    CmpSS(CmpOp, ExprId, ExprId),
    /// A conditional comparing two semimodule expressions.
    CmpMM(CmpOp, AggExprId, AggExprId),
}

/// An interned semimodule expression: a `+op` sum of `(coefficient, value)` terms in
/// canonical order.
#[derive(Debug, Clone, PartialEq, Eq, Hash)]
pub struct InternedAgg {
    /// The aggregation monoid.
    pub op: AggOp,
    /// The terms `Φ ⊗ m` with interned coefficients, in canonical order.
    pub terms: Vec<(ExprId, MonoidValue)>,
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
// The arena
// ---------------------------------------------------------------------------

/// A hash-consing arena for semiring and semimodule expressions.
///
/// See the [module documentation](self) for the canonicalisation contract.
#[derive(Debug, Default)]
pub struct Interner {
    nodes: Vec<InternedExpr>,
    hashes: Vec<u64>,
    var_sets: Vec<VarSet>,
    // Dedup index keyed by the canonical hash; candidates are compared against the
    // arena, so every node is stored exactly once (the bucket list absorbs the
    // rare structural hash collision).
    dedup: HashMap<u64, Vec<ExprId>>,

    agg_nodes: Vec<InternedAgg>,
    agg_hashes: Vec<u64>,
    agg_var_sets: Vec<VarSet>,
    agg_dedup: HashMap<u64, Vec<AggExprId>>,
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

    /// Number of distinct interned semiring nodes.
    pub fn len(&self) -> usize {
        self.nodes.len()
    }

    /// Number of distinct interned semimodule nodes.
    pub fn agg_len(&self) -> usize {
        self.agg_nodes.len()
    }

    /// True if nothing has been interned.
    pub fn is_empty(&self) -> bool {
        self.nodes.is_empty() && self.agg_nodes.is_empty()
    }

    /// The interned node behind an id.
    pub fn node(&self, id: ExprId) -> &InternedExpr {
        &self.nodes[id.0 as usize]
    }

    /// The interned semimodule node behind an id.
    pub fn agg_node(&self, id: AggExprId) -> &InternedAgg {
        &self.agg_nodes[id.0 as usize]
    }

    /// The canonical structural hash of an interned expression. Stable across
    /// interner instances and processes; invariant under commutative reordering.
    pub fn hash(&self, id: ExprId) -> u64 {
        self.hashes[id.0 as usize]
    }

    /// The canonical structural hash of an interned semimodule expression.
    pub fn agg_hash(&self, id: AggExprId) -> u64 {
        self.agg_hashes[id.0 as usize]
    }

    /// The set of variables occurring in an interned expression (precomputed).
    pub fn var_set(&self, id: ExprId) -> &VarSet {
        &self.var_sets[id.0 as usize]
    }

    /// The set of variables occurring in an interned semimodule expression.
    pub fn agg_var_set(&self, id: AggExprId) -> &VarSet {
        &self.agg_var_sets[id.0 as usize]
    }

    /// All interned semiring nodes in id order (`nodes()[i]` is the node behind
    /// `ExprId(i)`). Children always have smaller ids than their parents, so the
    /// slice is a valid bottom-up replay order — the property the snapshot codec
    /// of `pvc-core::persist` relies on.
    pub fn nodes(&self) -> &[InternedExpr] {
        &self.nodes
    }

    /// All interned semimodule nodes in id order (see [`nodes`](Self::nodes)).
    pub fn agg_nodes(&self) -> &[InternedAgg] {
        &self.agg_nodes
    }

    /// Intern an already-structured node whose children are ids of **this**
    /// interner. Canonicalises n-ary operand order exactly like
    /// [`intern`](Self::intern), so replaying another interner's nodes (with
    /// remapped child ids) through this method reproduces canonical structures —
    /// the load half of the snapshot codec.
    pub fn intern_node(&mut self, node: InternedExpr) -> ExprId {
        match node {
            InternedExpr::Add(children) => self.intern_add(children),
            InternedExpr::Mul(children) => self.intern_mul(children),
            other => self.insert_node(other),
        }
    }

    /// Intern a semiring expression tree, returning its canonical id.
    pub fn intern(&mut self, expr: &SemiringExpr) -> ExprId {
        match expr {
            SemiringExpr::Var(v) => self.insert_node(InternedExpr::Var(*v)),
            SemiringExpr::Const(c) => self.insert_node(InternedExpr::Const(*c)),
            SemiringExpr::Add(children) => {
                let ids: Vec<ExprId> = children.iter().map(|c| self.intern(c)).collect();
                self.intern_add(ids)
            }
            SemiringExpr::Mul(children) => {
                let ids: Vec<ExprId> = children.iter().map(|c| self.intern(c)).collect();
                self.intern_mul(ids)
            }
            SemiringExpr::CmpSS(op, a, b) => {
                let ia = self.intern(a);
                let ib = self.intern(b);
                self.insert_node(InternedExpr::CmpSS(*op, ia, ib))
            }
            SemiringExpr::CmpMM(op, a, b) => {
                let ia = self.intern_semimodule(a);
                let ib = self.intern_semimodule(b);
                self.insert_node(InternedExpr::CmpMM(*op, ia, ib))
            }
        }
    }

    /// Intern a semimodule expression, returning its canonical id.
    pub fn intern_semimodule(&mut self, expr: &SemimoduleExpr) -> AggExprId {
        let terms: Vec<(ExprId, MonoidValue)> = expr
            .terms
            .iter()
            .map(|t| (self.intern(&t.coeff), t.value))
            .collect();
        self.intern_agg(expr.op, terms)
    }

    /// Intern an n-ary sum from already-interned children (canonicalising order).
    /// A singleton sum collapses to its only child, mirroring
    /// [`SemiringExpr::sum`]'s builder behaviour.
    pub fn intern_add(&mut self, mut children: Vec<ExprId>) -> ExprId {
        if children.len() == 1 {
            return children[0];
        }
        self.sort_canonical(&mut children);
        self.insert_node(InternedExpr::Add(children))
    }

    /// Intern an n-ary product from already-interned children (canonicalising order).
    pub fn intern_mul(&mut self, mut children: Vec<ExprId>) -> ExprId {
        if children.len() == 1 {
            return children[0];
        }
        self.sort_canonical(&mut children);
        self.insert_node(InternedExpr::Mul(children))
    }

    /// Intern a semimodule sum from already-interned terms (canonicalising order).
    pub fn intern_agg(&mut self, op: AggOp, mut terms: Vec<(ExprId, MonoidValue)>) -> AggExprId {
        terms.sort_by_key(|(coeff, value)| (self.hash(*coeff), *coeff, *value));
        let node = InternedAgg { op, terms };
        let hash = commutative_fold(
            chain(TAG_AGG, op as u64),
            node.terms
                .iter()
                .map(|(c, v)| chain(self.hash(*c), hash_monoid_value(v))),
        );
        if let Some(candidates) = self.agg_dedup.get(&hash) {
            for &c in candidates {
                if self.agg_nodes[c.0 as usize] == node {
                    return c;
                }
            }
        }
        // Every term's variables collected once, then one sort and one dedup:
        // folding pairwise unions re-sorts the growing set per term.
        let vars = node
            .terms
            .iter()
            .flat_map(|(c, _)| self.var_set(*c).iter())
            .collect();
        let id = AggExprId(self.agg_nodes.len() as u32);
        self.agg_nodes.push(node);
        self.agg_hashes.push(hash);
        self.agg_var_sets.push(vars);
        self.agg_dedup.entry(hash).or_default().push(id);
        id
    }

    /// Materialise the owned expression tree behind an id (in canonical operand
    /// order — a deterministic rendering of the equivalence class).
    pub fn resolve(&self, id: ExprId) -> SemiringExpr {
        match self.node(id) {
            InternedExpr::Var(v) => SemiringExpr::Var(*v),
            InternedExpr::Const(c) => SemiringExpr::Const(*c),
            InternedExpr::Add(children) => {
                SemiringExpr::Add(children.iter().map(|c| self.resolve(*c)).collect())
            }
            InternedExpr::Mul(children) => {
                SemiringExpr::Mul(children.iter().map(|c| self.resolve(*c)).collect())
            }
            InternedExpr::CmpSS(op, a, b) => {
                SemiringExpr::CmpSS(*op, Box::new(self.resolve(*a)), Box::new(self.resolve(*b)))
            }
            InternedExpr::CmpMM(op, a, b) => SemiringExpr::CmpMM(
                *op,
                Box::new(self.resolve_semimodule(*a)),
                Box::new(self.resolve_semimodule(*b)),
            ),
        }
    }

    /// Materialise the owned semimodule expression behind an id.
    pub fn resolve_semimodule(&self, id: AggExprId) -> SemimoduleExpr {
        let node = self.agg_node(id);
        SemimoduleExpr {
            op: node.op,
            terms: node
                .terms
                .iter()
                .map(|(c, v)| SmTerm::new(self.resolve(*c), *v))
                .collect(),
        }
    }

    /// Sort children into canonical order: by canonical hash, ties broken by id
    /// (within one interner, equal structure ⇒ equal id, so the order is total on
    /// distinct structures and permutations of a multiset sort identically).
    fn sort_canonical(&self, children: &mut [ExprId]) {
        children.sort_by_key(|c| (self.hash(*c), *c));
    }

    fn insert_node(&mut self, node: InternedExpr) -> ExprId {
        let hash = match &node {
            InternedExpr::Var(v) => mix(TAG_VAR ^ v.0 as u64),
            InternedExpr::Const(c) => hash_semiring_value(c),
            InternedExpr::Add(cs) => commutative_fold(TAG_ADD, cs.iter().map(|c| self.hash(*c))),
            InternedExpr::Mul(cs) => commutative_fold(TAG_MUL, cs.iter().map(|c| self.hash(*c))),
            InternedExpr::CmpSS(op, a, b) => chain(
                chain(chain(TAG_CMP_SS, *op as u64), self.hash(*a)),
                self.hash(*b),
            ),
            InternedExpr::CmpMM(op, a, b) => chain(
                chain(chain(TAG_CMP_MM, *op as u64), self.agg_hash(*a)),
                self.agg_hash(*b),
            ),
        };
        if let Some(candidates) = self.dedup.get(&hash) {
            for &c in candidates {
                if self.nodes[c.0 as usize] == node {
                    return c;
                }
            }
        }
        let vars = match &node {
            InternedExpr::Var(v) => VarSet::singleton(*v),
            InternedExpr::Const(_) => VarSet::new(),
            InternedExpr::Add(cs) | InternedExpr::Mul(cs) => {
                cs.iter().flat_map(|c| self.var_set(*c).iter()).collect()
            }
            InternedExpr::CmpSS(_, a, b) => self.var_set(*a).union(self.var_set(*b)),
            InternedExpr::CmpMM(_, a, b) => self.agg_var_set(*a).union(self.agg_var_set(*b)),
        };
        let id = ExprId(self.nodes.len() as u32);
        self.nodes.push(node);
        self.hashes.push(hash);
        self.var_sets.push(vars);
        self.dedup.entry(hash).or_default().push(id);
        id
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::vars::VarTable;
    use pvc_algebra::MonoidValue::Fin;

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
    fn resolve_round_trips_semantics() {
        // The resolved tree may reorder operands but must evaluate identically.
        let mut vt = VarTable::new();
        let x = vt.boolean("x", 0.5);
        let y = vt.boolean("y", 0.5);
        let z = vt.boolean("z", 0.5);
        let e = SemiringExpr::Var(z) * (SemiringExpr::Var(y) + SemiringExpr::Var(x));
        let mut it = Interner::new();
        let id = it.intern(&e);
        let back = it.resolve(id);
        let worlds = [
            (false, false, true),
            (true, false, false),
            (true, true, true),
        ];
        for (xv, yv, zv) in worlds {
            let val = |v: Var| {
                SemiringValue::Bool(if v == x {
                    xv
                } else if v == y {
                    yv
                } else {
                    zv
                })
            };
            assert_eq!(
                e.eval(&val, pvc_algebra::SemiringKind::Bool),
                back.eval(&val, pvc_algebra::SemiringKind::Bool)
            );
        }
        // Re-interning the resolved form is a fixed point.
        assert_eq!(it.intern(&back), id);
    }

    #[test]
    fn var_sets_are_precomputed() {
        let mut it = Interner::new();
        let id = it.intern(&(v(1) * (v(2) + v(3))));
        let vs = it.var_set(id);
        assert_eq!(vs.len(), 3);
        assert!(vs.contains(Var(2)));
        let alpha = SemimoduleExpr::from_terms(AggOp::Sum, vec![(v(7), Fin(1))]);
        let aid = it.intern_semimodule(&alpha);
        assert_eq!(it.agg_var_set(aid).as_slice(), &[Var(7)]);
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
}
