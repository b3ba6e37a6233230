//! The d-tree as the compiler emits it
//! ([`Compiler::emit_semiring`](crate::compile::Compiler::emit_semiring) and its
//! siblings): an index-based post-order arena of [`node`](crate::node) kinds,
//! and an iterative, allocation-light evaluator over it. Every walk here —
//! evaluation, the threshold folds, counting, rendering — runs on an explicit
//! stack or a loop, so a left-deep `⊕` chain as long as its input costs heap,
//! not native stack.
//!
//! Five things keep an evaluation close to the cost of its convolutions:
//!
//! * **layout** — nodes live in one post-order `Vec` (children before parents,
//!   root last), so evaluation is a single forward loop with an explicit value
//!   stack: no recursion, no pointer chasing;
//! * **native sorts** — the value stack is typed ([`SemiringDist`] vs
//!   [`MonoidDist`]), so every region evaluates in its native sort; a `⊔` node
//!   whose branches disagree in sort (which the compiler never emits) is a
//!   [`DTreeError`];
//! * **Boolean cells** — over the semiring `B` a semiring-sorted node has at
//!   most two outcomes, so its value travels the stack as [`BoolCells`]
//!   (`[P[⊥], P[⊤]]`) and `∨`, `∧`, `[θ]` and `⊔` over such values are a few
//!   multiply-adds, bit-identical to the sorted-vector kernel: no entry vector
//!   cloned per variable leaf, no generate–sort–coalesce per node. A folded
//!   `[θ]` (below) or a comparison of aggregates enters the cells where it
//!   produces its two outcomes; an `N`-valued leaf, a `⊗` scalar or the root
//!   converts to a `Dist` where one is asked for. This is the tuple-confidence
//!   interpretation of the circuit — one pass, two numbers per node;
//! * **scratch reuse** — all convolutions run through
//!   [`Dist::convolve_with_scratch`] against two shared pair buffers instead of
//!   allocating a candidate buffer per node, and SUM/COUNT `⊕` nodes take the
//!   adaptive dense path of [`pvc_prob::repr`];
//! * **one-sided CDF early exit** — a `[θ]` node comparing a monoid subtree
//!   against a constant with `θ ∈ {≤, <, ≥, >}` does not materialise the
//!   subtree's full distribution: the comparison is folded *into* the subtree
//!   walk, propagating a scalar `(P[· θ c], mass)` pair through MIN/MAX `⊕`, `⊗`
//!   and `⊔` nodes (`P[min(A,B) ≥ c] = P[A ≥ c]·P[B ≥ c]`, Eq. 10 mixes
//!   scalars, …) and falling back to a full evaluation plus a linear CDF scan
//!   only where no decomposition applies (SUM/COUNT sums).
//!
//! The engine's store ([`SharedArtifacts`](crate::cache::SharedArtifacts))
//! evaluates each arena where the compiler emits it and keeps the distribution,
//! not the circuit. Every leaf is a variable or a constant (Definition 7 of
//! the paper): nothing of the store enters the arena.
//!
//! # Empty sides of comparisons
//!
//! A comparison over a side whose distribution is **empty** (total mass 0 — e.g. a
//! variable leaf with an empty distribution, or an exhausted `⊔` node) yields the
//! **empty distribution**, not an error: convolution against an empty operand has
//! no outcomes (Eq. 1 sums over nothing). Sort checking therefore only applies to
//! non-empty sides; a `[θ]` node whose sides are non-empty and of different sorts
//! reports [`DTreeError::MixedComparison`].

use crate::node::{ArenaNode, DTreeError};
use pvc_algebra::{AggOp, CmpOp, MonoidValue, SemiringKind, SemiringValue};
use pvc_expr::{Var, VarTable};
use pvc_prob::repr::{dense_mix_bounded, mix_dense_chained, AdditiveFold, ChainVal};
use pvc_prob::{
    record_dense_chain, BoolCells, DenseDist, Dist, MonoidDist, SemiringDist, PROB_EPS,
};
use std::borrow::Cow;
use std::fmt;

/// Statically inferable sort of a node's distribution.
#[derive(Debug, Clone, Copy, PartialEq)]
enum Sort {
    Semiring,
    Monoid,
    Unknown,
}

/// The threshold-fold plan attached to an eligible `[θ]` node: evaluate `child`
/// through the scalar CDF walk with the effective comparison `theta` (already
/// flipped if the constant was on the left) against `bound`.
#[derive(Debug, Clone, Copy, PartialEq)]
struct Fold {
    theta: CmpOp,
    bound: MonoidValue,
    child: u32,
}

/// A decomposition tree as a post-order arena (see the [module
/// documentation](self)).
///
/// Built node by node by the compiler; immutable once handed out, so it can be
/// evaluated any number of times and shared across threads. Its `Display` is
/// the paper's notation, e.g. `((v0 ⊙ v1) ⊗SUM 10)` or `⊔v2(v2←⊥: … | v2←⊤: …)`.
#[derive(Debug, Clone, PartialEq)]
pub struct DTreeArena {
    /// Post-order nodes; the root is the last entry.
    nodes: Vec<ArenaNode>,
    /// `(branch value, branch child root)` entries of all `⊔` nodes.
    branches: Vec<(SemiringValue, u32)>,
    /// The fold plans of the eligible `[θ]` nodes as `(node, plan)`, ascending by
    /// node: a handful per arena at most, so nothing is stored for the rest.
    folds: Vec<(u32, Fold)>,
    /// Statically inferred sort per node.
    sorts: Vec<Sort>,
}

/// One step of the explicit traversal stack: visit a node's children first
/// (`Expand`) or combine their already-computed values (`Emit`).
#[derive(Debug, Clone, Copy)]
enum Phase {
    Expand(u32),
    Emit(u32),
}

/// The form an arena's root value was computed in.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub(crate) enum Interp {
    /// Two cells ([`BoolCells`]): the Boolean region under the root ran on the
    /// two-cell kernel.
    Cells,
    /// A [`Dist`] (sparse or dense).
    Dist,
}

impl Interp {
    /// The value of the `evaluate` span's `interp` attribute.
    pub(crate) fn as_str(self) -> &'static str {
        match self {
            Interp::Cells => "cells",
            Interp::Dist => "dist",
        }
    }
}

/// A value on the evaluation stack: a distribution in its native sort.
///
/// `Empty` is the sort-less empty distribution (a `⊔` node with no surviving
/// branches). `MD` is a monoid distribution still in the **dense** form of
/// the convolution kernel: SUM/COUNT `⊕` chains and dense-friendly `⊔` nodes
/// pass it from node to node without the dense → sparse → dense round-trip the
/// stack used to force at every exit (tracked by `kernel.dense_chain.*`). A
/// consumer that needs the sparse form demotes it — counting a chain *break*
/// when that happens mid-evaluation, but not at the root, where
/// materialisation is the point.
#[derive(Debug, Clone)]
pub(crate) enum Val {
    /// Semiring distribution over `{⊥, ⊤}` on two cells (see [`EvalScratch::cells`]).
    B(BoolCells),
    S(SemiringDist),
    M(MonoidDist),
    /// Monoid distribution in dense (offset-indexed) form.
    MD(DenseDist),
    Empty,
}

impl Val {
    /// A variable's distribution, as a `VarLeaf` pushes it: on two cells where
    /// the pass runs on them (`cells`) and the support lies in `{⊥, ⊤}`.
    pub(crate) fn leaf(dist: &SemiringDist, cells: bool) -> Val {
        match cells.then(|| BoolCells::from_dist(dist)).flatten() {
            Some(two) => Val::B(two),
            None => Val::S(dist.clone()),
        }
    }

    /// A computed semiring distribution, taken over: on two cells where
    /// [`leaf`](Self::leaf) would put it.
    pub(crate) fn semiring(dist: SemiringDist, cells: bool) -> Val {
        match cells.then(|| BoolCells::from_dist(&dist)).flatten() {
            Some(two) => Val::B(two),
            None => Val::S(dist),
        }
    }

    /// A semiring constant, as an `SConst` pushes it.
    pub(crate) fn constant(value: SemiringValue, cells: bool) -> Val {
        match value {
            SemiringValue::Bool(b) if cells => Val::B(BoolCells::point(b)),
            _ => Val::S(Dist::point(value)),
        }
    }

    fn is_empty(&self) -> bool {
        match self {
            Val::B(c) => c.is_empty(),
            Val::S(d) => d.is_empty(),
            Val::M(d) => d.is_empty(),
            Val::MD(d) => d.is_empty(),
            Val::Empty => true,
        }
    }

    /// Extract a semiring distribution: an empty value of any sort extracts as
    /// the empty distribution; a non-empty monoid value is a sort error.
    pub(crate) fn into_semiring(self, ctx: &'static str) -> Result<SemiringDist, DTreeError> {
        match self {
            Val::B(c) => Ok(c.to_dist()),
            Val::S(d) => Ok(d),
            Val::Empty => Ok(Dist::empty()),
            Val::M(d) if d.is_empty() => Ok(Dist::empty()),
            Val::MD(d) if d.is_empty() => Ok(Dist::empty()),
            Val::M(_) | Val::MD(_) => Err(DTreeError::ExpectedSemiring(ctx)),
        }
    }

    /// Extract a monoid distribution (dual of [`into_semiring`](Self::into_semiring)).
    pub(crate) fn into_monoid(self, ctx: &'static str) -> Result<MonoidDist, DTreeError> {
        match self {
            Val::M(d) => Ok(d),
            // Plain materialisation — callers that demote mid-chain record the
            // break themselves (see `demote_monoid`); the root does not.
            Val::MD(d) => Ok(d.to_dist()),
            Val::Empty => Ok(Dist::empty()),
            Val::S(d) if d.is_empty() => Ok(Dist::empty()),
            Val::B(c) if c.is_empty() => Ok(Dist::empty()),
            Val::S(_) | Val::B(_) => Err(DTreeError::ExpectedMonoid(ctx)),
        }
    }

    /// Demote to the sparse monoid form at a mid-chain consumer that cannot use
    /// the dense form, counting the chain break; sparse values pass through.
    fn demote_monoid(self, ctx: &'static str) -> Result<MonoidDist, DTreeError> {
        if let Val::MD(d) = &self {
            if !d.is_empty() {
                record_dense_chain(false);
            }
        }
        self.into_monoid(ctx)
    }
}

/// Reusable buffers for one evaluation pass: the traversal stack, the typed value
/// stack, and one convolution scratch buffer per sort. Nested evaluations (from
/// threshold folds) share the buffers through base-offset discipline.
#[derive(Debug, Default)]
pub(crate) struct EvalScratch {
    work: Vec<Phase>,
    stack: Vec<Val>,
    s_pairs: Vec<(SemiringValue, f64)>,
    m_pairs: Vec<(MonoidValue, f64)>,
    /// The right operands of the MIN / MAX `⊕` spines the threshold fold is
    /// walking, innermost spine on top (base-offset discipline, as `stack`).
    spine: Vec<u32>,
    /// The additive (SUM / COUNT) `⊕` accumulator: empty between nodes, but
    /// its buffers persist, so a `⊕` chain recycles the consumed operand's
    /// cells as the next node's output instead of allocating per node.
    additive: AdditiveFold,
    /// Over the semiring `B`: semiring values whose support lies in `{⊥, ⊤}`
    /// travel as [`Val::B`] and `∨`, `∧`, `[θ]` and `⊔` over them run on the
    /// two-cell kernel. Bit-identical either way; off, every value is a `Dist`.
    cells: bool,
    /// When set, `eval_from` tracks the value-stack high-water mark in
    /// `max_depth` (observed only when the metrics registry is enabled, so the
    /// disabled hot path pays one local branch per step).
    track_depth: bool,
    max_depth: usize,
}

impl DTreeArena {
    /// A copy of `tree`. It remains only because the `pvc_e2e` benchmark
    /// harness spells its "flatten" step this way; it goes when the harness
    /// moves onto [`Compiler::emit_semiring`](crate::Compiler::emit_semiring)
    /// and its siblings.
    pub fn from_tree(tree: &DTreeArena) -> DTreeArena {
        tree.clone()
    }

    /// An arena with no nodes yet, for the compiler to emit into.
    pub(crate) fn new() -> DTreeArena {
        DTreeArena {
            nodes: Vec::new(),
            branches: Vec::new(),
            folds: Vec::new(),
            sorts: Vec::new(),
        }
    }

    /// Forget every node, keeping the tables' allocations.
    pub(crate) fn clear(&mut self) {
        self.nodes.clear();
        self.branches.clear();
        self.folds.clear();
        self.sorts.clear();
    }

    /// Append a node whose children (if any) are already in the arena and return
    /// its index. The node's sort and, for a `[θ]` node, its threshold-fold plan
    /// are derived here and nowhere else. `⊔` nodes go through
    /// [`push_exclusive`](Self::push_exclusive), which fills the branch table.
    pub(crate) fn push(&mut self, node: ArenaNode) -> u32 {
        let sort = match node {
            ArenaNode::VarLeaf(_)
            | ArenaNode::SConst(_)
            | ArenaNode::SumS { .. }
            | ArenaNode::Prod { .. }
            | ArenaNode::Cmp { .. } => Sort::Semiring,
            ArenaNode::MConst(_) | ArenaNode::SumM { .. } | ArenaNode::Tensor { .. } => {
                Sort::Monoid
            }
            ArenaNode::Exclusive {
                branches_start,
                branches_len,
                ..
            } => {
                let range = branches_start as usize..(branches_start + branches_len) as usize;
                let mut sorts = self.branches[range]
                    .iter()
                    .map(|&(_, child)| self.sorts[child as usize]);
                match sorts.next() {
                    Some(first) if sorts.all(|s| s == first) => first,
                    _ => Sort::Unknown,
                }
            }
        };
        let idx = self.nodes.len() as u32;
        self.nodes.push(node);
        self.sorts.push(sort);
        if let ArenaNode::Cmp { theta, left, right } = node {
            self.plan_fold(idx, theta, left, right);
        }
        idx
    }

    /// Append the `⊔` node over `var` whose `(branch value, child index)` entries
    /// are `pending[base..]`, draining them into the branch table. Callers share
    /// one `pending` list across nested `⊔` nodes — an inner node drains its own
    /// tail before the outer one pushes its next entry — so no list is allocated
    /// per node.
    pub(crate) fn push_exclusive(
        &mut self,
        var: Var,
        pending: &mut Vec<(SemiringValue, u32)>,
        base: usize,
    ) -> u32 {
        let branches_start = self.branches.len() as u32;
        let branches_len = (pending.len() - base) as u32;
        self.branches.extend(pending.drain(base..));
        self.push(ArenaNode::Exclusive {
            var,
            branches_start,
            branches_len,
        })
    }

    /// Number of nodes.
    pub fn len(&self) -> usize {
        self.nodes.len()
    }

    /// [`len`](Self::len), under the name the `pvc_e2e` benchmark harness
    /// calls; it goes with [`from_tree`](Self::from_tree).
    pub fn num_nodes(&self) -> usize {
        self.len()
    }

    /// Number of `⊔` (mutually exclusive case split) nodes — the measure of how
    /// often the compiler had to fall back to Shannon expansion.
    pub fn num_exclusive_nodes(&self) -> usize {
        let exclusive = |node: &&ArenaNode| matches!(node, ArenaNode::Exclusive { .. });
        self.nodes.iter().filter(exclusive).count()
    }

    /// True if the arena holds no nodes — never one the compiler handed out:
    /// it pushes at least the root.
    pub fn is_empty(&self) -> bool {
        self.nodes.is_empty()
    }

    /// Attach a threshold-fold plan to a freshly pushed `[θ]` node when one side
    /// is a monoid constant, the comparison is one-sided, and the other side is
    /// statically monoid-sorted. The evaluator then never expands the node's
    /// children: the non-constant subtree is walked by the scalar CDF recursion
    /// instead.
    fn plan_fold(&mut self, idx: u32, theta: CmpOp, left: u32, right: u32) {
        if !matches!(theta, CmpOp::Le | CmpOp::Lt | CmpOp::Ge | CmpOp::Gt) {
            return;
        }
        let (bound, child, eff_theta) =
            match (self.nodes[left as usize], self.nodes[right as usize]) {
                (_, ArenaNode::MConst(m)) => (m, left, theta),
                // Constant on the left: `m θ α` ⇔ `α θ.flip() m`.
                (ArenaNode::MConst(m), _) => (m, right, theta.flip()),
                _ => return,
            };
        if self.sorts[child as usize] != Sort::Monoid {
            return;
        }
        let plan = Fold {
            theta: eff_theta,
            bound,
            child,
        };
        self.folds.push((idx, plan));
    }

    /// The fold plan of the node at `idx`, if it has one.
    fn fold_of(&self, idx: u32) -> Option<Fold> {
        let at = self.folds.binary_search_by_key(&idx, |&(node, _)| node);
        Some(self.folds[at.ok()?].1)
    }

    /// Evaluate and extract the root as a semiring distribution.
    pub fn semiring_distribution(
        &self,
        table: &VarTable,
        kind: SemiringKind,
    ) -> Result<SemiringDist, DTreeError> {
        self.evaluate(table, kind)?.0.into_semiring("root")
    }

    /// Evaluate and extract the root as a monoid distribution.
    pub fn monoid_distribution(
        &self,
        table: &VarTable,
        kind: SemiringKind,
    ) -> Result<MonoidDist, DTreeError> {
        self.evaluate(table, kind)?.0.into_monoid("root")
    }

    fn evaluate(&self, table: &VarTable, kind: SemiringKind) -> Result<(Val, Interp), DTreeError> {
        self.evaluate_in(table, kind, &mut EvalScratch::default())
    }

    /// Evaluate the root in `scratch`'s buffers. The buffers are empty again
    /// afterwards, whatever the outcome, and keep their room.
    pub(crate) fn evaluate_in(
        &self,
        table: &VarTable,
        kind: SemiringKind,
        scratch: &mut EvalScratch,
    ) -> Result<(Val, Interp), DTreeError> {
        scratch.cells = kind == SemiringKind::Bool;
        let depth_hist = &crate::obs::core_metrics().eval_stack_depth;
        scratch.track_depth = depth_hist.is_enabled();
        scratch.max_depth = 0;
        let root = self.nodes.len() as u32 - 1;
        let result = self.eval_from(root, table, kind, scratch);
        if scratch.track_depth {
            depth_hist.record(scratch.max_depth as u64);
        }
        if result.is_err() {
            // An aborted pass leaves operands behind.
            scratch.work.clear();
            scratch.stack.clear();
            scratch.spine.clear();
            scratch.additive.take();
        }
        result.map(|value| {
            let interp = match value {
                Val::B(_) => Interp::Cells,
                _ => Interp::Dist,
            };
            (value, interp)
        })
    }

    /// The iterative post-order evaluation of the subtree rooted at `root`: an
    /// explicit traversal stack (`Expand` visits children first, `Emit` combines
    /// their results) drives a typed value stack — no recursion through the tree.
    /// A `[θ]` node with a fold plan never expands its children; it computes
    /// through the scalar CDF walk of [`threshold`](Self::threshold) instead.
    fn eval_from(
        &self,
        root: u32,
        table: &VarTable,
        kind: SemiringKind,
        scratch: &mut EvalScratch,
    ) -> Result<Val, DTreeError> {
        let stack_base = scratch.stack.len();
        let work_base = scratch.work.len();
        scratch.work.push(Phase::Expand(root));
        while scratch.work.len() > work_base {
            if scratch.track_depth {
                scratch.max_depth = scratch.max_depth.max(scratch.stack.len());
            }
            let phase = scratch.work.pop().expect("work stack entry");
            let i = match phase {
                Phase::Expand(i) => {
                    match self.nodes[i as usize] {
                        // Leaves evaluate immediately.
                        ArenaNode::VarLeaf(v) => {
                            let leaf = Val::leaf(table.dist(v), scratch.cells);
                            scratch.stack.push(leaf);
                            continue;
                        }
                        ArenaNode::SConst(s) => {
                            scratch.stack.push(Val::constant(s, scratch.cells));
                            continue;
                        }
                        ArenaNode::MConst(m) => {
                            scratch.stack.push(Val::M(Dist::point(m)));
                            continue;
                        }
                        // A folded comparison handles its own subtree.
                        ArenaNode::Cmp { left, right, .. } => {
                            let Some(fold) = self.fold_of(i) else {
                                scratch.work.push(Phase::Emit(i));
                                scratch.work.push(Phase::Expand(right));
                                scratch.work.push(Phase::Expand(left));
                                continue;
                            };
                            let (p_true, mass) = self.threshold(
                                fold.child, fold.theta, fold.bound, table, kind, scratch,
                            )?;
                            scratch.stack.push(if scratch.cells {
                                Val::B(BoolCells::new(mass - p_true, p_true))
                            } else {
                                Val::S(comparison_dist(kind, p_true, mass))
                            });
                            continue;
                        }
                        ArenaNode::SumS { left, right }
                        | ArenaNode::Prod { left, right }
                        | ArenaNode::SumM { left, right, .. } => {
                            scratch.work.push(Phase::Emit(i));
                            scratch.work.push(Phase::Expand(right));
                            scratch.work.push(Phase::Expand(left));
                            continue;
                        }
                        ArenaNode::Tensor { scalar, value, .. } => {
                            scratch.work.push(Phase::Emit(i));
                            scratch.work.push(Phase::Expand(value));
                            scratch.work.push(Phase::Expand(scalar));
                            continue;
                        }
                        ArenaNode::Exclusive {
                            branches_start,
                            branches_len,
                            ..
                        } => {
                            scratch.work.push(Phase::Emit(i));
                            // Children are pushed in reverse so they evaluate (and
                            // land on the value stack) in branch order.
                            for k in (0..branches_len as usize).rev() {
                                let (_, child) = self.branches[branches_start as usize + k];
                                scratch.work.push(Phase::Expand(child));
                            }
                            continue;
                        }
                    }
                }
                Phase::Emit(i) => i,
            };
            let value = match self.nodes[i as usize] {
                ArenaNode::SumS { .. } | ArenaNode::Prod { .. } => {
                    let right = scratch.stack.pop().expect("⊕ / ⊙ right operand");
                    let left = scratch.stack.pop().expect("⊕ / ⊙ left operand");
                    let is_add = matches!(self.nodes[i as usize], ArenaNode::SumS { .. });
                    combine_semiring(is_add, left, right, &mut scratch.s_pairs)?
                }
                ArenaNode::SumM { op, .. } => {
                    let right = scratch.stack.pop().expect("⊕ right operand");
                    let left = scratch.stack.pop().expect("⊕ left operand");
                    match op {
                        // SUM/COUNT: adaptive dense/sparse kernel, and a dense
                        // operand stays dense across the node boundary.
                        AggOp::Sum | AggOp::Count => {
                            let to_chain = |v: Val| -> Result<ChainVal, DTreeError> {
                                Ok(match v {
                                    Val::MD(d) => ChainVal::Dense(d),
                                    other => ChainVal::Sparse(other.into_monoid("⊕(semimodule)")?),
                                })
                            };
                            let (ca, cb) = (to_chain(left)?, to_chain(right)?);
                            scratch.additive.push(ca);
                            scratch.additive.push(cb);
                            match scratch.additive.take().expect("two operands were folded") {
                                ChainVal::Dense(d) => Val::MD(d),
                                ChainVal::Sparse(d) => Val::M(d),
                            }
                        }
                        _ => {
                            let da = left.demote_monoid("⊕(semimodule)")?;
                            let db = right.demote_monoid("⊕(semimodule)")?;
                            Val::M(da.convolve_with_scratch(
                                &db,
                                |x, y| op.combine(x, y),
                                &mut scratch.m_pairs,
                            ))
                        }
                    }
                }
                ArenaNode::Tensor { op, .. } => {
                    let value = scratch.stack.pop().expect("⊗ value operand");
                    let scalar = scratch.stack.pop().expect("⊗ scalar operand");
                    let ds = scalar.into_semiring("⊗ scalar")?;
                    let dm = value.demote_monoid("⊗ value")?;
                    Val::M(ds.convolve_with_scratch(
                        &dm,
                        |s, m| op.scalar_action(s, m),
                        &mut scratch.m_pairs,
                    ))
                }
                ArenaNode::Cmp { theta, .. } => {
                    let right = scratch.stack.pop().expect("[θ] right operand");
                    let left = scratch.stack.pop().expect("[θ] left operand");
                    let cells = scratch.cells;
                    compare(theta, left, right, kind, cells, &mut scratch.s_pairs)?
                }
                ArenaNode::Exclusive {
                    var,
                    branches_start,
                    branches_len,
                } => {
                    let n = branches_len as usize;
                    let vals = scratch.stack.split_off(scratch.stack.len() - n);
                    let var_dist = table.dist(var);
                    let mut acc = Val::Empty;
                    for (k, val) in vals.into_iter().enumerate() {
                        let (value, _) = &self.branches[branches_start as usize + k];
                        let weight = var_dist.prob(value);
                        if weight <= 0.0 {
                            continue;
                        }
                        acc = mix_scaled(acc, val, weight)?;
                    }
                    acc
                }
                ArenaNode::VarLeaf(_) | ArenaNode::SConst(_) | ArenaNode::MConst(_) => {
                    unreachable!("leaves are evaluated during Expand")
                }
            };
            scratch.stack.push(value);
        }
        if scratch.track_depth {
            scratch.max_depth = scratch.max_depth.max(scratch.stack.len());
        }
        debug_assert_eq!(
            scratch.stack.len(),
            stack_base + 1,
            "post-order stack imbalance"
        );
        Ok(scratch.stack.pop().expect("root value"))
    }

    /// The scalar CDF walk: `(P[subtree θ bound], total mass)` of the monoid
    /// subtree rooted at `idx`, without materialising its distribution where the
    /// comparison decomposes:
    ///
    /// * `min(A, B) θ c` for upward-closed `θ` (≥, >) is `A θ c ∧ B θ c` — the
    ///   probabilities multiply; downward `θ` (≤, <) goes through the complement.
    ///   `max` is dual.
    /// * `Φ ⊗ α` under MIN/MAX contributes `α`'s scalar when the scalar is
    ///   non-zero and the monoid identity otherwise — only the (cheap) scalar
    ///   side's distribution is needed.
    /// * `⊔` mixes the branch scalars with the branch weights.
    /// * Everything else (SUM/COUNT sums, leaves) evaluates its subtree fully and
    ///   accumulates the comparison as a linear scan.
    fn threshold(
        &self,
        idx: u32,
        theta: CmpOp,
        bound: MonoidValue,
        table: &VarTable,
        kind: SemiringKind,
        scratch: &mut EvalScratch,
    ) -> Result<(f64, f64), DTreeError> {
        match self.nodes[idx as usize] {
            ArenaNode::MConst(m) => Ok((if theta.eval(&m, &bound) { 1.0 } else { 0.0 }, 1.0)),
            ArenaNode::SumM { op, .. } => match (op, theta) {
                // The comparison distributes over the lattice operation: both
                // sides must satisfy it independently. A left-deep chain of
                // this `⊕` is walked down its left spine in a loop; its right
                // operands then fold back up innermost first, the order in
                // which a recursion would multiply them.
                (AggOp::Min, CmpOp::Ge | CmpOp::Gt) | (AggOp::Max, CmpOp::Le | CmpOp::Lt) => {
                    let base = scratch.spine.len();
                    let mut bottom = idx;
                    loop {
                        match self.nodes[bottom as usize] {
                            ArenaNode::SumM {
                                op: link,
                                left,
                                right,
                            } if link == op => {
                                scratch.spine.push(right);
                                bottom = left;
                            }
                            _ => break,
                        }
                    }
                    let (mut p, mut mass) =
                        self.threshold(bottom, theta, bound, table, kind, scratch)?;
                    for k in (base..scratch.spine.len()).rev() {
                        let operand = scratch.spine[k];
                        let (pr, mr) =
                            self.threshold(operand, theta, bound, table, kind, scratch)?;
                        p *= pr;
                        mass *= mr;
                    }
                    scratch.spine.truncate(base);
                    Ok((p, mass))
                }
                // Complement of the distributing direction.
                (AggOp::Min, CmpOp::Le | CmpOp::Lt) | (AggOp::Max, CmpOp::Ge | CmpOp::Gt) => {
                    let (p_neg, mass) =
                        self.threshold(idx, theta.negate(), bound, table, kind, scratch)?;
                    Ok((mass - p_neg, mass))
                }
                _ => self.threshold_by_scan(idx, theta, bound, table, kind, scratch),
            },
            ArenaNode::Tensor { op, scalar, value } if matches!(op, AggOp::Min | AggOp::Max) => {
                // s ⊗ m is m when s ≠ 0_S and the identity otherwise, so only the
                // scalar's zero-mass matters.
                let scalar_val = self.eval_from(scalar, table, kind, scratch)?;
                let ds = scalar_val.into_semiring("⊗ scalar")?;
                let mass_s = ds.total_mass();
                let p_zero = ds
                    .iter()
                    .filter(|(s, _)| s.is_zero())
                    .fold(0.0, |sum, (_, p)| sum + p);
                let (pv, mv) = self.threshold(value, theta, bound, table, kind, scratch)?;
                let id_true = theta.eval(&op.identity(), &bound);
                let p = p_zero * if id_true { mv } else { 0.0 } + (mass_s - p_zero) * pv;
                Ok((p, mass_s * mv))
            }
            ArenaNode::Tensor { op, scalar, value } if matches!(op, AggOp::Sum | AggOp::Count) => {
                match self.threshold_tensor_additive(
                    scalar, value, op, theta, bound, table, kind, scratch,
                )? {
                    Some(result) => Ok(result),
                    None => self.threshold_by_scan(idx, theta, bound, table, kind, scratch),
                }
            }
            ArenaNode::Exclusive {
                var,
                branches_start,
                branches_len,
            } => {
                let var_dist = table.dist(var);
                let mut p = 0.0;
                let mut mass = 0.0;
                for k in 0..branches_len as usize {
                    let (value, child) = self.branches[branches_start as usize + k];
                    let weight = var_dist.prob(&value);
                    if weight <= 0.0 {
                        continue;
                    }
                    let (pb, mb) = self.threshold(child, theta, bound, table, kind, scratch)?;
                    p += weight * pb;
                    mass += weight * mb;
                }
                Ok((p, mass))
            }
            _ => self.threshold_by_scan(idx, theta, bound, table, kind, scratch),
        }
    }

    /// One-sided CDF propagation through a SUM/COUNT `⊗` node: under the
    /// semimodule action `n ⊗ m = n·m` (with `n ≥ 1` and finite `m`), the
    /// comparison `n·m θ c` is equivalent to `m θ' c'` with an integer-rescaled
    /// bound (`≥` takes `⌈c/n⌉`, `>` and `≤` take `⌊c/n⌋`, `<` takes `⌈c/n⌉` —
    /// `±∞` values pass the action unchanged and satisfy the rescaled
    /// comparison identically), so the value subtree can keep the scalar walk
    /// with one recursion **per distinct multiplicity** instead of
    /// materialising its full distribution. Multiplicity `0` contributes the
    /// monoid identity, exactly as in the MIN/MAX arm.
    ///
    /// Returns `None` (caller scans) when the bound is not finite or the scalar
    /// carries more than [`MAX_TENSOR_FOLD_MULTIPLICITIES`] distinct non-zero
    /// multiplicities — the rescaled recursions would outweigh one evaluation.
    #[allow(clippy::too_many_arguments)]
    fn threshold_tensor_additive(
        &self,
        scalar: u32,
        value: u32,
        op: AggOp,
        theta: CmpOp,
        bound: MonoidValue,
        table: &VarTable,
        kind: SemiringKind,
        scratch: &mut EvalScratch,
    ) -> Result<Option<(f64, f64)>, DTreeError> {
        let Some(c) = bound.finite() else {
            return Ok(None);
        };
        let scalar_val = self.eval_from(scalar, table, kind, scratch)?;
        let ds = scalar_val.into_semiring("⊗ scalar")?;
        let mass_s = ds.total_mass();
        // Group the scalar's mass by multiplicity and rescale the bound once
        // per distinct non-zero multiplicity.
        let mut p_zero = 0.0;
        let mut groups: Vec<(u64, MonoidValue, f64)> = Vec::new();
        for (s, p) in ds.iter() {
            let n = s.as_multiplicity();
            if n == 0 {
                p_zero += p;
                continue;
            }
            if let Some(group) = groups.iter_mut().find(|(m, _, _)| *m == n) {
                group.2 += p;
                continue;
            }
            if groups.len() == MAX_TENSOR_FOLD_MULTIPLICITIES {
                return Ok(None);
            }
            let Some(rescaled) = rescale_bound(theta, c, n) else {
                return Ok(None);
            };
            groups.push((n, MonoidValue::Fin(rescaled), p));
        }
        let mut p = 0.0;
        let mut mv = None;
        for (_, rescaled, weight) in &groups {
            let (pg, mg) = self.threshold(value, theta, *rescaled, table, kind, scratch)?;
            p += weight * pg;
            mv = Some(mg);
        }
        let mv = match mv {
            Some(m) => m,
            // All multiplicities were zero: one walk just for the value mass.
            None => self.threshold(value, theta, bound, table, kind, scratch)?.1,
        };
        if theta.eval(&op.identity(), &bound) {
            p += p_zero * mv;
        }
        Ok(Some((p, mass_s * mv)))
    }

    /// Threshold fallback: evaluate the subtree fully, then accumulate the scalar
    /// CDF with one linear scan (still cheaper than convolving against the
    /// constant and materialising the two-point comparison distribution).
    fn threshold_by_scan(
        &self,
        idx: u32,
        theta: CmpOp,
        bound: MonoidValue,
        table: &VarTable,
        kind: SemiringKind,
        scratch: &mut EvalScratch,
    ) -> Result<(f64, f64), DTreeError> {
        let val = self.eval_from(idx, table, kind, scratch)?;
        let mut p = 0.0;
        let mut mass = 0.0;
        // A dense subtree result is scanned in place — ascending non-zero cells
        // are exactly the sparse iteration order, so the accumulation is
        // bit-identical and no chain break happens here.
        if let Val::MD(d) = &val {
            for (v, pm) in d.iter() {
                mass += pm;
                if theta.eval(&MonoidValue::Fin(v), &bound) {
                    p += pm;
                }
            }
            return Ok((p, mass));
        }
        let d = val.into_monoid("[θ]")?;
        for (m, pm) in d.iter() {
            mass += pm;
            if theta.eval(m, &bound) {
                p += pm;
            }
        }
        Ok((p, mass))
    }
}

/// The paper's notation, written from an explicit stack of pieces — a subtree
/// still to render, or text — so a deep tree renders without recursion.
impl fmt::Display for DTreeArena {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        enum Piece {
            Node(u32),
            Text(Cow<'static, str>),
        }
        let Some(root) = self.nodes.len().checked_sub(1) else {
            return Ok(());
        };
        let mut todo = vec![Piece::Node(root as u32)];
        while let Some(piece) = todo.pop() {
            let i = match piece {
                Piece::Node(i) => i,
                Piece::Text(text) => {
                    f.write_str(&text)?;
                    continue;
                }
            };
            let (open, left, infix, right, close): (_, _, Cow<_>, _, _) =
                match self.nodes[i as usize] {
                    ArenaNode::VarLeaf(v) => {
                        write!(f, "{v}")?;
                        continue;
                    }
                    ArenaNode::SConst(s) => {
                        write!(f, "{s}")?;
                        continue;
                    }
                    ArenaNode::MConst(m) => {
                        write!(f, "{m}")?;
                        continue;
                    }
                    ArenaNode::SumS { left, right } => ("(", left, " ⊕ ".into(), right, ")"),
                    ArenaNode::Prod { left, right } => ("(", left, " ⊙ ".into(), right, ")"),
                    ArenaNode::SumM { op, left, right } => {
                        ("(", left, format!(" ⊕{op} ").into(), right, ")")
                    }
                    ArenaNode::Tensor { op, scalar, value } => {
                        ("(", scalar, format!(" ⊗{op} ").into(), value, ")")
                    }
                    ArenaNode::Cmp { theta, left, right } => {
                        ("[", left, format!(" {theta} ").into(), right, "]")
                    }
                    ArenaNode::Exclusive {
                        var,
                        branches_start,
                        branches_len,
                    } => {
                        write!(f, "⊔{var}(")?;
                        todo.push(Piece::Text(")".into()));
                        let start = branches_start as usize;
                        let branches = &self.branches[start..start + branches_len as usize];
                        for (k, &(value, child)) in branches.iter().enumerate().rev() {
                            let separator = if k == 0 { "" } else { " | " };
                            todo.push(Piece::Node(child));
                            todo.push(Piece::Text(format!("{separator}{var}←{value}: ").into()));
                        }
                        continue;
                    }
                };
            f.write_str(open)?;
            todo.extend([
                Piece::Text(close.into()),
                Piece::Node(right),
                Piece::Text(infix),
                Piece::Node(left),
            ]);
        }
        Ok(())
    }
}

/// Cap on distinct non-zero multiplicities a SUM/COUNT `⊗` threshold fold will
/// recurse for; scalars more varied than this fall back to the full scan.
const MAX_TENSOR_FOLD_MULTIPLICITIES: usize = 4;

/// The rescaled bound `c'` with `n·m θ c ⇔ m θ c'` for integers `m`, `n ≥ 1`:
/// `≥` and `<` round the quotient up, `>` and `≤` round it down (Euclidean
/// division over `i128` so `i64::MIN` bounds cannot overflow). `None` for
/// two-sided comparisons, which do not rescale.
fn rescale_bound(theta: CmpOp, c: i64, n: u64) -> Option<i64> {
    let c = i128::from(c);
    let n = i128::from(n);
    let scaled = match theta {
        CmpOp::Ge | CmpOp::Lt => -((-c).div_euclid(n)),
        CmpOp::Gt | CmpOp::Le => c.div_euclid(n),
        CmpOp::Eq | CmpOp::Ne => return None,
    };
    i64::try_from(scaled).ok()
}

/// The two-point comparison distribution `{(1_S, p_true), (0_S, mass − p_true)}`
/// with entries at or below [`PROB_EPS`] dropped (the same rule the convolution
/// kernel applies).
fn comparison_dist(kind: SemiringKind, p_true: f64, mass: f64) -> SemiringDist {
    let p_false = mass - p_true;
    let mut entries = Vec::with_capacity(2);
    if p_false > PROB_EPS {
        entries.push((kind.zero(), p_false));
    }
    if p_true > PROB_EPS {
        entries.push((kind.one(), p_true));
    }
    debug_assert!(kind.zero() < kind.one());
    Dist::from_sorted_unique(entries)
}

/// `left ⊕ right` (`is_add`) or `left ⊙ right` of independent semiring
/// operands — the `SumS` and `Prod` arms, which the artifact store's folds
/// take too: the two-cell kernel if both operands are on two cells, else the
/// convolution.
pub(crate) fn combine_semiring(
    is_add: bool,
    left: Val,
    right: Val,
    pairs: &mut Vec<(SemiringValue, f64)>,
) -> Result<Val, DTreeError> {
    Ok(match (left, right) {
        (Val::B(a), Val::B(b)) => Val::B(if is_add { a.or(b) } else { a.and(b) }),
        (left, right) => {
            let ctx = if is_add { "⊕(semiring)" } else { "⊙" };
            let da = left.into_semiring(ctx)?;
            let db = right.into_semiring(ctx)?;
            Val::S(match is_add {
                true => da.convolve_with_scratch(&db, |x, y| x.add(y), pairs),
                false => da.convolve_with_scratch(&db, |x, y| x.mul(y), pairs),
            })
        }
    })
}

/// A `[θ]` node without a fold plan — and the artifact store's `[s θ c]` over
/// a side it folded itself: both sides fully evaluated. Sorts are read off
/// the values, empty sides yield the empty distribution, and non-empty sides
/// of different sorts are a [`DTreeError::MixedComparison`].
pub(crate) fn compare(
    theta: CmpOp,
    left: Val,
    right: Val,
    kind: SemiringKind,
    cells: bool,
    pairs: &mut Vec<(SemiringValue, f64)>,
) -> Result<Val, DTreeError> {
    if let (Val::B(a), Val::B(b)) = (&left, &right) {
        return Ok(Val::B(a.compare(theta, *b)));
    }
    if left.is_empty() || right.is_empty() {
        return Ok(Val::Empty);
    }
    // A comparison convolves value-by-value: dense operands demote here
    // (counted as chain breaks — the chain genuinely ends mid-evaluation).
    let demote = |v: Val| -> Result<Val, DTreeError> {
        Ok(match v {
            Val::MD(_) => Val::M(v.demote_monoid("[θ]")?),
            other => other,
        })
    };
    let left = demote(left)?;
    let right = demote(right)?;
    let is_semiring = |v: &Val| match v {
        Val::B(_) | Val::S(_) => true,
        Val::M(_) => false,
        Val::MD(_) => unreachable!("dense sides demoted above"),
        Val::Empty => unreachable!("empty sides handled above"),
    };
    let truth = |holds: bool| if holds { kind.one() } else { kind.zero() };
    let dist = match (is_semiring(&left), is_semiring(&right)) {
        (true, true) => {
            let da = left.into_semiring("[θ]")?;
            let db = right.into_semiring("[θ]")?;
            da.convolve_with_scratch(&db, |x, y| truth(theta.eval(x, y)), pairs)
        }
        (false, false) => {
            let da = left.into_monoid("[θ]")?;
            let db = right.into_monoid("[θ]")?;
            da.convolve_with_scratch(&db, |x, y| truth(theta.eval(x, y)), pairs)
        }
        _ => return Err(DTreeError::MixedComparison),
    };
    // Where a Boolean region starts: the comparison's two outcomes.
    Ok(Val::semiring(dist, cells))
}

/// Mix `next`, scaled by `weight`, into the accumulator of a `⊔` node, in the
/// native sort both sides share; branches of different sorts are a
/// [`DTreeError`]. Dense monoid values stay dense while the union range
/// remains bounded (chain extends); otherwise they demote (chain breaks) and
/// the sparse mix runs — both paths bit-identical in value.
fn mix_scaled(acc: Val, next: Val, weight: f64) -> Result<Val, DTreeError> {
    let scaled = match next {
        Val::B(c) => Val::B(c.scale(weight)),
        Val::S(d) => Val::S(d.scale(weight)),
        Val::M(d) => Val::M(d.scale(weight)),
        Val::MD(d) => Val::MD(d.scale(weight)),
        Val::Empty => Val::Empty,
    };
    Ok(match (acc, scaled) {
        (acc, next) if next.is_empty() => acc,
        (acc, next) if acc.is_empty() => next,
        (Val::B(a), Val::B(b)) => Val::B(a.mix(b)),
        // Cells beside a distribution (an `N`-valued branch) are one too.
        (Val::B(a), Val::S(b)) => Val::S(a.to_dist().mix(&b)),
        (Val::S(a), Val::B(b)) => Val::S(a.mix(&b.to_dist())),
        (Val::S(a), Val::S(b)) => Val::S(a.mix(&b)),
        (Val::M(a), Val::M(b)) => Val::M(a.mix(&b)),
        (Val::MD(a), Val::MD(b)) => match mix_dense_chained(&a, &b) {
            Some(mixed) => Val::MD(mixed),
            None => {
                record_dense_chain(false);
                record_dense_chain(false);
                Val::M(a.to_dist().mix(&b.to_dist()))
            }
        },
        (Val::MD(a), Val::M(b)) => match promote_for_mix(&a, &b) {
            Some(db) => match mix_dense_chained(&a, &db) {
                Some(mixed) => Val::MD(mixed),
                None => {
                    record_dense_chain(false);
                    Val::M(a.to_dist().mix(&b))
                }
            },
            None => {
                record_dense_chain(false);
                Val::M(a.to_dist().mix(&b))
            }
        },
        (Val::M(a), Val::MD(b)) => match promote_for_mix(&b, &a) {
            Some(da) => match mix_dense_chained(&da, &b) {
                Some(mixed) => Val::MD(mixed),
                None => {
                    record_dense_chain(false);
                    Val::M(a.mix(&b.to_dist()))
                }
            },
            None => {
                record_dense_chain(false);
                Val::M(a.mix(&b.to_dist()))
            }
        },
        (Val::B(_) | Val::S(_), _) => return Err(DTreeError::ExpectedSemiring("⊔")),
        _ => return Err(DTreeError::ExpectedMonoid("⊔")),
    })
}

/// Lift a sparse `⊔` operand into the dense form so it can mix with a dense
/// accumulator, guarded by the same union bound [`DenseDist::mix`] applies —
/// checked *before* the dense materialisation so a scattered operand never
/// allocates a huge cell vector.
fn promote_for_mix(dense: &DenseDist, sparse: &MonoidDist) -> Option<DenseDist> {
    let lo = sparse.min_value()?.finite()?;
    let hi = sparse.max_value()?.finite()?;
    let range = usize::try_from(hi.checked_sub(lo)?).ok()?.checked_add(1)?;
    let union_lo = lo.min(dense.offset());
    let union_hi = hi.max(dense.offset() + dense.len() as i64 - 1);
    let union = usize::try_from(union_hi.checked_sub(union_lo)?)
        .ok()?
        .checked_add(1)?;
    if !dense_mix_bounded(dense.len(), range, union) {
        return None;
    }
    DenseDist::from_dist(sparse)
}

/// Hand-built trees for tests, through the compiler's own `push` /
/// `push_exclusive`.
#[cfg(test)]
impl DTreeArena {
    pub(crate) fn var(&mut self, v: Var) -> u32 {
        self.push(ArenaNode::VarLeaf(v))
    }

    /// `v ⊗op m`.
    pub(crate) fn tensor(&mut self, op: AggOp, v: Var, m: i64) -> u32 {
        let scalar = self.var(v);
        let value = self.push(ArenaNode::MConst(MonoidValue::Fin(m)));
        self.push(ArenaNode::Tensor { op, scalar, value })
    }

    pub(crate) fn exclusive(&mut self, var: Var, branches: &[(SemiringValue, u32)]) -> u32 {
        self.push_exclusive(var, &mut branches.to_vec(), 0)
    }

    pub(crate) fn root(&self) -> ArenaNode {
        *self.nodes.last().expect("a root")
    }

    pub(crate) fn has_fold_at_root(&self) -> bool {
        self.fold_of(self.len() as u32 - 1).is_some()
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use pvc_algebra::MonoidValue::Fin;
    use pvc_expr::{SemimoduleExpr, SemiringExpr};

    fn table_abc(pa: f64, pb: f64, pc: f64) -> (VarTable, Var, Var, Var) {
        let mut vt = VarTable::new();
        let a = vt.boolean("a", pa);
        let b = vt.boolean("b", pb);
        let c = vt.boolean("c", pc);
        (vt, a, b, c)
    }

    /// The arena `build` pushes, whose last node is its root.
    fn built(build: impl FnOnce(&mut DTreeArena) -> u32) -> DTreeArena {
        let mut t = DTreeArena::new();
        let root = build(&mut t);
        assert_eq!(root as usize + 1, t.len(), "the root is pushed last");
        t
    }

    fn mconst(t: &mut DTreeArena, m: i64) -> u32 {
        t.push(ArenaNode::MConst(Fin(m)))
    }

    fn cmp(t: &mut DTreeArena, theta: CmpOp, left: u32, right: u32) -> u32 {
        t.push(ArenaNode::Cmp { theta, left, right })
    }

    #[test]
    fn arena_matches_recursive_shape() {
        let (_, a, b, _) = table_abc(0.5, 0.5, 0.5);
        let arena = built(|t| {
            let (left, right) = (t.var(a), t.var(b));
            let left = t.push(ArenaNode::Prod { left, right });
            let right = t.push(ArenaNode::SConst(SemiringValue::Bool(false)));
            t.push(ArenaNode::SumS { left, right })
        });
        assert_eq!(arena.len(), 5);
        assert_eq!(arena.num_nodes(), arena.len());
        assert!(!arena.is_empty());
        assert_eq!(arena.to_string(), "((v0 ⊙ v1) ⊕ ⊥)");
        assert_eq!(DTreeArena::from_tree(&arena), arena);
    }

    #[test]
    fn arena_evaluates_basic_nodes() {
        let (vt, a, b, _) = table_abc(0.3, 0.5, 0.5);
        let arena = built(|t| {
            let (left, right) = (t.var(a), t.var(b));
            t.push(ArenaNode::Prod { left, right })
        });
        let d = arena
            .semiring_distribution(&vt, SemiringKind::Bool)
            .unwrap();
        assert!((d.prob(&SemiringValue::Bool(true)) - 0.15).abs() < 1e-12);
        assert!(d.is_normalized());
    }

    #[test]
    fn threshold_fold_matches_full_evaluation() {
        // [x⊗10 +min y⊗20 θ c] for every one-sided θ and several bounds: the
        // folded scalar walk must agree with a direct enumeration.
        let (vt, x, y, _) = table_abc(0.35, 0.8, 0.5);
        for theta in [CmpOp::Le, CmpOp::Lt, CmpOp::Ge, CmpOp::Gt] {
            for bound in [0, 10, 15, 20, 25] {
                let arena = built(|t| {
                    let (left, right) = (t.tensor(AggOp::Min, x, 10), t.tensor(AggOp::Min, y, 20));
                    let op = AggOp::Min;
                    let alpha = t.push(ArenaNode::SumM { op, left, right });
                    let c = mconst(t, bound);
                    cmp(t, theta, alpha, c)
                });
                // The fold plan must be armed on the root.
                assert!(arena.has_fold_at_root(), "{theta:?} {bound}");
                let d = arena
                    .semiring_distribution(&vt, SemiringKind::Bool)
                    .unwrap();
                // Reference: P[min θ bound] by enumeration of the 4 worlds.
                let alpha = SemimoduleExpr::from_terms(
                    AggOp::Min,
                    vec![
                        (SemiringExpr::Var(x), Fin(10)),
                        (SemiringExpr::Var(y), Fin(20)),
                    ],
                );
                let condition = SemiringExpr::cmp_mm(
                    theta,
                    alpha,
                    SemimoduleExpr::constant(AggOp::Min, Fin(bound)),
                );
                let expected = pvc_expr::oracle::confidence_by_enumeration(
                    &condition,
                    &vt,
                    SemiringKind::Bool,
                );
                assert!(
                    (d.prob(&SemiringValue::Bool(true)) - expected).abs() < 1e-12,
                    "{theta:?} {bound}: got {}, expected {expected}",
                    d.prob(&SemiringValue::Bool(true))
                );
            }
        }
    }

    #[test]
    fn threshold_fold_multiplies_a_chain_in_recursion_order() {
        // [x1⊗1 +min … +min x12⊗12 ≥ 20], a left-deep chain: every term is
        // below the bound, so P = Π P[xᵢ absent], multiplied innermost first —
        // ((q1·q2)·q3)·… — as a recursion over the chain would, to the bit.
        let mut vt = VarTable::new();
        let ps: Vec<f64> = (1..=12).map(|i| 0.05 + 0.9 / f64::from(i)).collect();
        let xs: Vec<Var> = ps.iter().map(|&p| vt.boolean("", p)).collect();
        let arena = built(|t| {
            let op = AggOp::Min;
            let first = t.tensor(op, xs[0], 1);
            let chain = (1..xs.len()).fold(first, |left, i| {
                let right = t.tensor(op, xs[i], i as i64 + 1);
                t.push(ArenaNode::SumM { op, left, right })
            });
            let bound = mconst(t, 20);
            cmp(t, CmpOp::Ge, chain, bound)
        });
        assert!(arena.has_fold_at_root());
        let expected = ps.iter().map(|p| 1.0 - p).reduce(|acc, q| acc * q);
        for kind in [SemiringKind::Bool, SemiringKind::Nat] {
            let d = arena.semiring_distribution(&vt, kind).unwrap();
            let got = d.prob(&kind.one());
            assert_eq!(got.to_bits(), expected.unwrap().to_bits(), "{kind:?}");
        }
    }

    #[test]
    fn constant_on_left_flips_the_fold() {
        let (vt, x, _, _) = table_abc(0.4, 0.5, 0.5);
        // [15 ≥ x⊗10] ⇔ [x⊗10 ≤ 15]: true iff x is present (an absent x leaves
        // MIN at +∞, which is not ≤ 15), so P[true] = 0.4.
        let arena = built(|t| {
            let c = mconst(t, 15);
            let alpha = t.tensor(AggOp::Min, x, 10);
            cmp(t, CmpOp::Ge, c, alpha)
        });
        assert!(arena.has_fold_at_root());
        let d = arena
            .semiring_distribution(&vt, SemiringKind::Bool)
            .unwrap();
        assert!((d.prob(&SemiringValue::Bool(true)) - 0.4).abs() < 1e-12);
    }

    #[test]
    fn equality_comparisons_do_not_fold() {
        let (_, x, _, _) = table_abc(0.4, 0.5, 0.5);
        let arena = built(|t| {
            let alpha = t.tensor(AggOp::Min, x, 10);
            let c = mconst(t, 10);
            cmp(t, CmpOp::Eq, alpha, c)
        });
        assert!(!arena.has_fold_at_root());
    }

    #[test]
    fn empty_sides_yield_empty_distributions() {
        // A ⊔ node with no branches has an empty (sort-unknown) distribution;
        // comparing it against anything yields the empty distribution, per the
        // documented contract.
        let (vt, a, _, _) = table_abc(0.4, 0.5, 0.5);
        let arena = built(|t| {
            let empty = t.exclusive(a, &[]);
            let leaf = t.var(a);
            cmp(t, CmpOp::Eq, empty, leaf)
        });
        let d = arena
            .semiring_distribution(&vt, SemiringKind::Bool)
            .unwrap();
        assert!(d.is_empty());
    }

    #[test]
    fn malformed_sorts_still_error() {
        let (vt, a, _, _) = table_abc(0.3, 0.5, 0.5);
        let arena = built(|t| {
            let (left, right) = (mconst(t, 1), t.var(a));
            t.push(ArenaNode::Prod { left, right })
        });
        assert!(matches!(
            arena.semiring_distribution(&vt, SemiringKind::Bool),
            Err(DTreeError::ExpectedSemiring(_))
        ));
        // Constant on the left arms a fold, but the right side is semiring-sorted,
        // so the fold is refused and the mixed comparison reports the usual error.
        let arena = built(|t| {
            let (left, right) = (mconst(t, 1), t.var(a));
            cmp(t, CmpOp::Le, left, right)
        });
        assert!(!arena.has_fold_at_root());
        assert_eq!(
            arena.semiring_distribution(&vt, SemiringKind::Bool),
            Err(DTreeError::MixedComparison)
        );
        // A ⊔ over branches of different sorts is an error too, whichever sort
        // the root is read in.
        let arena = built(|t| {
            let (semiring, monoid) = (t.var(a), mconst(t, 3));
            let branches = [
                (SemiringValue::Bool(false), semiring),
                (SemiringValue::Bool(true), monoid),
            ];
            t.exclusive(a, &branches)
        });
        for kind in [SemiringKind::Bool, SemiringKind::Nat] {
            let error = DTreeError::ExpectedSemiring("⊔");
            assert_eq!(arena.semiring_distribution(&vt, kind).unwrap_err(), error);
            assert_eq!(arena.monoid_distribution(&vt, kind).unwrap_err(), error);
        }
    }

    type Extract<T> = fn(Val, &'static str) -> Result<Dist<T>, DTreeError>;

    /// One arena over `B` evaluated both ways: the public entry (Boolean values
    /// on two cells) and the same loop with every value a `Dist`, the root read
    /// by `extract`. Results must be equal to the bit — `Dist`'s `==` compares
    /// the probabilities exactly.
    fn both_ways<T: Ord + Clone + std::fmt::Debug>(
        arena: &DTreeArena,
        vt: &VarTable,
        extract: Extract<T>,
    ) -> (Result<Dist<T>, DTreeError>, Interp) {
        let kind = SemiringKind::Bool;
        let root = arena.len() as u32 - 1;
        let general = arena
            .eval_from(root, vt, kind, &mut EvalScratch::default())
            .and_then(|v| extract(v, "root"));
        let entry = arena.evaluate(vt, kind);
        let interp = entry.as_ref().map_or(Interp::Dist, |(_, interp)| *interp);
        let entry = entry.and_then(|(v, _)| extract(v, "root"));
        assert_eq!(entry, general, "{arena}");
        (entry, interp)
    }

    #[test]
    fn boolean_region_evaluation_equals_the_general_evaluator() {
        let mut vt = VarTable::new();
        let xs: Vec<Var> = (0..8)
            .map(|i| vt.boolean(format!("x{i}"), 0.07 + 0.11 * i as f64))
            .collect();
        let n = vt.natural("n", &[(0, 0.25), (2, 0.5), (5, 0.25)]);
        let certain = vt.boolean("certain", 1.0);
        let falsum = |t: &mut DTreeArena| t.push(ArenaNode::SConst(SemiringValue::Bool(false)));
        let bin = |t: &mut DTreeArena, is_add: bool, left: u32, right: u32| match is_add {
            true => t.push(ArenaNode::SumS { left, right }),
            false => t.push(ArenaNode::Prod { left, right }),
        };
        // [x0⊗4 +min x1⊗9 ≤ 5]: folded; [x2⊗3 +sum x3⊗4 = 7]: fully evaluated.
        let comparison =
            |t: &mut DTreeArena, op, theta, [i, j]: [usize; 2], [m, k, c]: [i64; 3]| {
                let (left, right) = (t.tensor(op, xs[i], m), t.tensor(op, xs[j], k));
                let alpha = t.push(ArenaNode::SumM { op, left, right });
                let c = mconst(t, c);
                cmp(t, theta, alpha, c)
            };
        let min_le = |t: &mut DTreeArena| comparison(t, AggOp::Min, CmpOp::Le, [0, 1], [4, 9, 5]);
        let sum_eq = |t: &mut DTreeArena| comparison(t, AggOp::Sum, CmpOp::Eq, [2, 3], [3, 4, 7]);
        // x4 ∧ [min ≤ 5]  ∨  [sum = 7] ∧ x5, compared with ⊥, under a ⊔ on x6
        // whose other branch is a plain disjunction.
        let region = |t: &mut DTreeArena| {
            let (x4, folded) = (t.var(xs[4]), min_le(t));
            let left = bin(t, false, x4, folded);
            let (scanned, x5) = (sum_eq(t), t.var(xs[5]));
            let right = bin(t, false, scanned, x5);
            let disjunction = bin(t, true, left, right);
            let bottom = falsum(t);
            cmp(t, CmpOp::Ne, disjunction, bottom)
        };
        let split = |t: &mut DTreeArena| {
            let absent = region(t);
            let (x7, folded) = (t.var(xs[7]), min_le(t));
            let present = bin(t, true, x7, folded);
            let branches = [
                (SemiringValue::Bool(false), absent),
                (SemiringValue::Bool(true), present),
            ];
            t.exclusive(xs[6], &branches)
        };
        // A left-deep ∨ chain under [· ≠ ⊥]: the group confidence of TPC-H Q1.
        let q1 = |t: &mut DTreeArena| {
            let chain = (1..8).fold(t.var(xs[0]), |acc, i| {
                let next = t.var(xs[i]);
                bin(t, true, acc, next)
            });
            let bottom = falsum(t);
            cmp(t, CmpOp::Ne, chain, bottom)
        };
        for arena in [
            built(min_le),
            built(sum_eq),
            built(region),
            built(split),
            built(q1),
        ] {
            let (dist, interp) = both_ways(&arena, &vt, Val::into_semiring);
            assert_eq!(interp, Interp::Cells, "{arena}");
            assert!(dist.unwrap().is_normalized(), "{arena}");
        }
        // A variable that is certainly ⊤ has one cell; so has what it absorbs.
        let absorbed = built(|t| {
            let (left, right) = (t.var(xs[0]), t.var(certain));
            bin(t, true, left, right)
        });
        let (dist, interp) = both_ways(&absorbed, &vt, Val::into_semiring);
        assert_eq!(interp, Interp::Cells);
        assert_eq!(dist.unwrap().support_size(), 1);
        // Under a monoid root the scalars of `⊗` are Boolean regions of their own:
        // (x0 ∨ x1·x2) ⊗ 4 +sum [x3 ≠ ⊥] ⊗ 9, and the same under MIN.
        for op in [AggOp::Sum, AggOp::Min] {
            let aggregate = built(|t| {
                let (x0, x1, x2) = (t.var(xs[0]), t.var(xs[1]), t.var(xs[2]));
                let product = bin(t, false, x1, x2);
                let formula = bin(t, true, x0, product);
                let four = mconst(t, 4);
                let left = t.push(ArenaNode::Tensor {
                    op,
                    scalar: formula,
                    value: four,
                });
                let (x3, bottom) = (t.var(xs[3]), falsum(t));
                let holds = cmp(t, CmpOp::Ne, x3, bottom);
                let nine = mconst(t, 9);
                let right = t.push(ArenaNode::Tensor {
                    op,
                    scalar: holds,
                    value: nine,
                });
                t.push(ArenaNode::SumM { op, left, right })
            });
            let (dist, interp) = both_ways(&aggregate, &vt, Val::into_monoid);
            assert_eq!(interp, Interp::Dist, "{aggregate}");
            assert!(dist.unwrap().is_normalized(), "{aggregate}");
        }

        // An N-valued leaf under a root over B is a `Dist`, and so is whatever
        // it meets — here with the values of N in the result.
        let natural = built(|t| {
            let (absent, present) = (t.var(n), t.var(xs[1]));
            let branches = [
                (SemiringValue::Bool(false), absent),
                (SemiringValue::Bool(true), present),
            ];
            t.exclusive(xs[0], &branches)
        });
        let squared = built(|t| {
            let (left, right) = (t.var(n), t.var(n));
            bin(t, false, left, right)
        });
        for arena in [natural, squared] {
            let (dist, interp) = both_ways(&arena, &vt, Val::into_semiring);
            assert_eq!(interp, Interp::Dist, "{arena}");
            let dist = dist.unwrap();
            assert!(dist.support().any(|v| *v == SemiringValue::Nat(0)));
        }

        // An exhausted ⊔ — no branches, or none the variable can take — is the
        // empty distribution, and so is everything convolved with it.
        for branches in [vec![], vec![SemiringValue::Nat(3)]] {
            let arena = built(|t| {
                let x2 = t.var(xs[2]);
                let children: Vec<_> = branches.iter().map(|&s| (s, t.var(xs[1]))).collect();
                let exhausted = t.exclusive(xs[0], &children);
                bin(t, true, x2, exhausted)
            });
            let (dist, _) = both_ways(&arena, &vt, Val::into_semiring);
            assert!(dist.unwrap().is_empty(), "{arena}");
        }

        // A ⊔ over branches of different sorts is the sort error the `Dist`
        // route reports, never a panic.
        let mixed = built(|t| {
            let (semiring, monoid) = (t.var(xs[1]), mconst(t, 3));
            let branches = [
                (SemiringValue::Bool(false), semiring),
                (SemiringValue::Bool(true), monoid),
            ];
            t.exclusive(xs[0], &branches)
        });
        let (result, _) = both_ways(&mixed, &vt, Val::into_semiring);
        assert_eq!(result, Err(DTreeError::ExpectedSemiring("⊔")));
        // Cells beside a monoid value are the sort error a `Dist` would be.
        let bad = built(|t| {
            let (left, right) = (t.var(xs[0]), mconst(t, 1));
            bin(t, true, left, right)
        });
        let (result, _) = both_ways(&bad, &vt, Val::into_semiring);
        assert_eq!(result, Err(DTreeError::ExpectedSemiring("⊕(semiring)")));
    }

    #[test]
    fn sum_comparisons_use_the_scan_fallback() {
        // COUNT sums do not decompose; the fold must still agree with
        // enumeration through the scan fallback.
        let (vt, a, b, c) = table_abc(0.5, 0.25, 0.75);
        let arena = built(|t| {
            let op = AggOp::Count;
            let (left, right) = (t.tensor(op, a, 1), t.tensor(op, b, 1));
            let left = t.push(ArenaNode::SumM { op, left, right });
            let right = t.tensor(op, c, 1);
            let alpha = t.push(ArenaNode::SumM { op, left, right });
            let two = mconst(t, 2);
            cmp(t, CmpOp::Ge, alpha, two)
        });
        assert!(arena.has_fold_at_root());
        let d = arena
            .semiring_distribution(&vt, SemiringKind::Bool)
            .unwrap();
        // P[count >= 2] by enumeration: worlds with at least two of {a,b,c}.
        let (pa, pb, pc) = (0.5, 0.25, 0.75);
        let expected =
            pa * pb * pc + pa * pb * (1.0 - pc) + pa * (1.0 - pb) * pc + (1.0 - pa) * pb * pc;
        assert!((d.prob(&SemiringValue::Bool(true)) - expected).abs() < 1e-12);
    }
}
