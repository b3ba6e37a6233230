//! Residual expressions on the interned DAG: `Φ|x←s` (Eq. 10 of the paper) and
//! constant folding over [`Interner`] ids, the working representation of the
//! compiler's Shannon expansion.
//!
//! A [`ResidualArena`] owns one compile-local [`Interner`]. The expression to
//! compile is loaded into it ([`intern`](Interner::intern) or
//! [`import`](ResidualArena::import)), and every residual is interned beside it, so
//! a sub-expression that several terms — or several residuals — share exists once
//! and structurally equal residuals have equal ids. A substitution is a walk that
//!
//! * returns `id` untouched when the variable does not occur below it (one binary
//!   search in the precomputed var-set),
//! * rebuilds every other node **once per branch**: results are memoised per id
//!   for as long as one `(x, s)` is being substituted
//!   ([`begin_branch`](ResidualArena::begin_branch)), across all the coefficients
//!   of a term list,
//! * folds constants on the way up exactly as [`SemiringExpr::simplify`] does, and
//!   re-interns, which restores the canonical child order.
//!
//! Three laws of the paper's structures shrink a residual further. Each is an
//! identity of `S` or of the semimodule `S ⊗ M`, so it holds in every world and no
//! distribution changes:
//!
//! * **Absorption** — `Φ + ⊤ = ⊤` in `B` (`⊤` is `1 ∨ _`); not in `N`, where
//!   `x + 1` depends on `x`. Applied by the sum constructor, as `0_S` annihilates a
//!   product.
//! * **Equal coefficients merge** — `Φ⊗a +op Φ⊗b = Φ⊗(a +op b)`, the semimodule
//!   axiom `s⊗(m₁+m₂) = s⊗m₁ + s⊗m₂`; every monoid, both semirings. With ids,
//!   "equal" is `==`.
//! * **Dominance** — under MIN, next to a constant term `1_S ⊗ c` every `Φ⊗m` with
//!   `m ≥ c` contributes `min(c, m) = c` or `min(c, +∞) = c`: it is dropped
//!   (MAX: `m ≤ c`). SUM, COUNT and PROD have no such order.
//!
//! [`SemiringExpr::simplify`]: crate::SemiringExpr::simplify

use crate::intern::{AggExprId, AggTerm, ExprId, ImportMemo, InternedExpr, Interner};
use crate::vars::Var;
use pvc_algebra::{AggOp, MonoidValue, SemiringKind, SemiringValue};

/// How often each law fired, and how much a substitution had to rebuild.
#[derive(Debug, Clone, Copy, Default, PartialEq, Eq)]
pub struct ResidualCounts {
    /// Sums replaced by `⊤` because a summand was `⊤` (Boolean semiring only).
    pub absorbed_sums: usize,
    /// Terms merged into an earlier term with the same coefficient.
    pub merged_terms: usize,
    /// MIN / MAX terms dropped next to a constant term that dominates them.
    pub dominated_terms: usize,
    /// Nodes (semiring and semimodule) rebuilt by substitution: those that mention
    /// the substituted variable, once per branch.
    pub rebuilt_nodes: usize,
}

/// Per-id memo of the branch being substituted: valid while its stamp is the
/// current generation, so starting a branch invalidates every entry at once.
#[derive(Debug)]
struct BranchMemo<I> {
    entries: Vec<(u32, I)>,
}

impl<I> Default for BranchMemo<I> {
    fn default() -> Self {
        BranchMemo {
            entries: Vec::new(),
        }
    }
}

impl<I: Copy> BranchMemo<I> {
    fn get(&self, id: u32, generation: u32) -> Option<I> {
        match self.entries.get(id as usize) {
            Some(&(stamp, done)) if stamp == generation => Some(done),
            _ => None,
        }
    }

    fn set(&mut self, id: u32, generation: u32, done: I) {
        let at = id as usize;
        if at >= self.entries.len() {
            self.entries.resize(at + 1, (0, done));
        }
        self.entries[at] = (generation, done);
    }
}

/// Where in a term list each coefficient was first seen, by coefficient id; stamped
/// like [`BranchMemo`] so that one list's entries mean nothing to the next.
#[derive(Debug, Default)]
struct MergeSlots {
    generation: u32,
    slots: BranchMemo<u32>,
}

/// A compile-local expression arena with substitution, constant folding and the
/// three laws of the [module documentation](self).
#[derive(Debug)]
pub struct ResidualArena {
    arena: Interner,
    kind: SemiringKind,
    /// The variable being substituted and the constant node replacing it; `None`
    /// while [`simplify`](Self::simplify) folds without substituting.
    target: Option<(Var, ExprId)>,
    /// Stamp of the current branch; `0` is never current.
    generation: u32,
    memo: BranchMemo<ExprId>,
    agg_memo: BranchMemo<AggExprId>,
    /// Child lists under construction, innermost last.
    stack: Vec<ExprId>,
    term_stack: Vec<AggTerm>,
    merge: MergeSlots,
    /// Per node, its run of `occ_pool` (`None` until asked for).
    occ_spans: Vec<Option<(u32, u32)>>,
    occ_pool: Vec<(Var, u32)>,
    import_memo: ImportMemo,
    counts: ResidualCounts,
}

impl ResidualArena {
    /// An empty arena folding constants in the semiring `kind`.
    pub fn new(kind: SemiringKind) -> Self {
        ResidualArena {
            arena: Interner::new(),
            kind,
            target: None,
            generation: 0,
            memo: BranchMemo::default(),
            agg_memo: BranchMemo::default(),
            stack: Vec::new(),
            term_stack: Vec::new(),
            merge: MergeSlots::default(),
            occ_spans: Vec::new(),
            occ_pool: Vec::new(),
            import_memo: ImportMemo::default(),
            counts: ResidualCounts::default(),
        }
    }

    /// The underlying arena.
    pub fn arena(&self) -> &Interner {
        &self.arena
    }

    /// The underlying arena, for interning into it directly.
    pub fn arena_mut(&mut self) -> &mut Interner {
        &mut self.arena
    }

    /// The law and rebuild counters since creation.
    pub fn counts(&self) -> &ResidualCounts {
        &self.counts
    }

    /// Empty the arena for the next compilation, keeping every table's
    /// allocation. Ids handed out before are invalid.
    pub fn reset(&mut self) {
        self.arena.clear();
        self.occ_spans.clear();
        self.occ_pool.clear();
        self.import_memo.clear();
        // Branch memos need no clearing: their stamps never become current again.
    }

    /// Hand the arena's tables to a new owner: from the next
    /// [`reset`](Self::reset) on it folds constants in `kind`, and it counts from
    /// zero, as a new arena would.
    pub fn rebind(&mut self, kind: SemiringKind) {
        self.kind = kind;
        self.counts = ResidualCounts::default();
    }

    /// Copy the DAG below `id` of `src` into this arena, unsimplified.
    pub fn import(&mut self, src: &Interner, id: ExprId) -> ExprId {
        self.arena.import(src, id, &mut self.import_memo)
    }

    /// [`import`](Self::import) for a semimodule expression.
    pub fn import_agg(&mut self, src: &Interner, id: AggExprId) -> AggExprId {
        self.arena.import_agg(src, id, &mut self.import_memo)
    }

    /// Fold the constants of `id` and apply the laws throughout (no substitution).
    pub fn simplify(&mut self, id: ExprId) -> ExprId {
        self.start(None);
        self.rebuild(id)
    }

    /// [`simplify`](Self::simplify) for a semimodule expression.
    pub fn simplify_agg(&mut self, id: AggExprId) -> AggExprId {
        self.start(None);
        self.rebuild_agg(id)
    }

    /// Start substituting `var ← value`. Every [`substitute`](Self::substitute)
    /// until the next call belongs to this branch and shares its memo.
    pub fn begin_branch(&mut self, var: Var, value: SemiringValue) {
        let replacement = self.arena.intern_node(InternedExpr::Const(value));
        self.start(Some((var, replacement)));
    }

    /// `id|x←s` of the current branch, simplified.
    pub fn substitute(&mut self, id: ExprId) -> ExprId {
        debug_assert!(self.target.is_some(), "substitute outside a branch");
        self.rebuild(id)
    }

    /// Normalise the term list `terms[base..]` in place: terms with a constant
    /// coefficient are folded into one trailing constant term `1_S ⊗ c` (dropped
    /// if `c` is the monoid's neutral element and other terms remain; `0_S ⊗ m`
    /// vanishes), equal coefficients merge, and under MIN / MAX the terms the
    /// constant dominates are dropped. Surviving terms keep their relative order.
    pub fn normalize_terms(&mut self, op: AggOp, terms: &mut Vec<AggTerm>, base: usize) {
        normalize(
            &mut self.arena,
            self.kind,
            &mut self.merge,
            &mut self.counts,
            op,
            terms,
            base,
        );
    }

    /// The constant a semimodule expression denotes if every coefficient is a
    /// constant node.
    pub fn agg_const(&self, id: AggExprId) -> Option<MonoidValue> {
        let node = self.arena.agg_node(id);
        node.terms
            .iter()
            .try_fold(node.op.identity(), |acc, (coeff, value)| {
                let c = self.arena.as_const(*coeff)?;
                Some(node.op.combine(&acc, &node.op.scalar_action(&c, value)))
            })
    }

    /// How often each variable occurs in the expression *tree* below `id` (a
    /// shared sub-expression counts once per path to it), ascending by variable.
    /// Computed on first request by merging the children's lists, then kept until
    /// [`reset`](Self::reset).
    pub fn occurrences(&mut self, id: ExprId) -> &[(Var, u32)] {
        let (start, len) = self.ensure_occurrences(id);
        &self.occ_pool[start as usize..(start + len) as usize]
    }

    fn start(&mut self, target: Option<(Var, ExprId)>) {
        if self.generation == u32::MAX {
            // Stamps are about to repeat: forget them all.
            self.memo.entries.clear();
            self.agg_memo.entries.clear();
            self.generation = 0;
        }
        self.generation += 1;
        self.target = target;
    }

    fn constant(&mut self, value: SemiringValue) -> ExprId {
        self.arena.intern_node(InternedExpr::Const(value))
    }

    fn truth(&mut self, holds: bool) -> ExprId {
        let value = if holds {
            self.kind.one()
        } else {
            self.kind.zero()
        };
        self.constant(value)
    }

    fn rebuild(&mut self, id: ExprId) -> ExprId {
        if let Some((var, replacement)) = self.target {
            if self.arena.var_set(id).binary_search(&var).is_err() {
                return id;
            }
            if let InternedExpr::Var(_) = self.arena.node(id) {
                return replacement;
            }
        }
        if let Some(done) = self.memo.get(id.0, self.generation) {
            return done;
        }
        let done = match self.arena.node(id) {
            InternedExpr::Var(_) | InternedExpr::Const(_) => id,
            InternedExpr::Add(children) => {
                let base = self.stack.len();
                self.stack.extend_from_slice(children);
                self.rebuild_nary(true, base)
            }
            InternedExpr::Mul(children) => {
                let base = self.stack.len();
                self.stack.extend_from_slice(children);
                self.rebuild_nary(false, base)
            }
            InternedExpr::CmpSS(op, a, b) => {
                let a = self.rebuild(a);
                let b = self.rebuild(b);
                match (self.arena.as_const(a), self.arena.as_const(b)) {
                    (Some(ca), Some(cb)) => self.truth(op.eval(&ca, &cb)),
                    _ => self.arena.intern_node(InternedExpr::CmpSS(op, a, b)),
                }
            }
            InternedExpr::CmpMM(op, a, b) => {
                let a = self.rebuild_agg(a);
                let b = self.rebuild_agg(b);
                match (self.agg_const(a), self.agg_const(b)) {
                    (Some(ca), Some(cb)) => self.truth(op.eval(&ca, &cb)),
                    _ => self.arena.intern_node(InternedExpr::CmpMM(op, a, b)),
                }
            }
        };
        if self.target.is_some() {
            self.counts.rebuilt_nodes += 1;
        }
        self.memo.set(id.0, self.generation, done);
        done
    }

    /// Rebuild the sum (or product) whose children are `stack[base..]`, popping
    /// them.
    fn rebuild_nary(&mut self, is_add: bool, base: usize) -> ExprId {
        let neutral = if is_add {
            self.kind.zero()
        } else {
            self.kind.one()
        };
        let mut constant = neutral;
        // Results overwrite the inputs from the left; constants are folded away,
        // so the write position never passes the read position.
        let mut kept = base;
        let mut nested = false;
        for at in base..self.stack.len() {
            let child = self.rebuild(self.stack[at]);
            match self.arena.node(child) {
                InternedExpr::Const(c) if is_add => {
                    constant = constant.add(&c);
                    if constant.absorbs_add() {
                        self.counts.absorbed_sums += 1;
                        self.stack.truncate(base);
                        return self.constant(constant);
                    }
                }
                InternedExpr::Const(c) => {
                    if c.is_zero() {
                        self.stack.truncate(base);
                        return self.constant(c);
                    }
                    constant = constant.mul(&c);
                }
                node => {
                    nested |= matches!(
                        (node, is_add),
                        (InternedExpr::Add(_), true) | (InternedExpr::Mul(_), false)
                    );
                    self.stack[kept] = child;
                    kept += 1;
                }
            }
        }
        self.stack.truncate(kept);
        if nested {
            // A child that became a sum (product) itself is spliced in.
            for at in base..kept {
                match (self.arena.node(self.stack[at]), is_add) {
                    (InternedExpr::Add(grand), true) | (InternedExpr::Mul(grand), false) => {
                        self.stack.extend_from_slice(grand)
                    }
                    _ => {
                        let child = self.stack[at];
                        self.stack.push(child);
                    }
                }
            }
            self.stack.drain(base..kept);
        }
        if constant != neutral || self.stack.len() == base {
            let constant = self.constant(constant);
            self.stack.push(constant);
        }
        let children = &self.stack[base..];
        let done = if is_add {
            self.arena.intern_add(children)
        } else {
            self.arena.intern_mul(children)
        };
        self.stack.truncate(base);
        done
    }

    fn rebuild_agg(&mut self, id: AggExprId) -> AggExprId {
        if let Some((var, _)) = self.target {
            if self.arena.agg_var_set(id).binary_search(&var).is_err() {
                return id;
            }
        }
        if let Some(done) = self.agg_memo.get(id.0, self.generation) {
            return done;
        }
        let node = self.arena.agg_node(id);
        let op = node.op;
        let base = self.term_stack.len();
        self.term_stack.extend_from_slice(node.terms);
        for at in base..self.term_stack.len() {
            let coeff = self.rebuild(self.term_stack[at].0);
            self.term_stack[at].0 = coeff;
        }
        normalize(
            &mut self.arena,
            self.kind,
            &mut self.merge,
            &mut self.counts,
            op,
            &mut self.term_stack,
            base,
        );
        let done = self.arena.intern_agg(op, &self.term_stack[base..]);
        self.term_stack.truncate(base);
        if self.target.is_some() {
            self.counts.rebuilt_nodes += 1;
        }
        self.agg_memo.set(id.0, self.generation, done);
        done
    }

    fn ensure_occurrences(&mut self, id: ExprId) -> (u32, u32) {
        if let Some(Some(run)) = self.occ_spans.get(id.0 as usize) {
            return *run;
        }
        // Children first: their runs are complete before this node's begins.
        let base = self.stack.len();
        match self.arena.node(id) {
            InternedExpr::Var(_) | InternedExpr::Const(_) => {}
            InternedExpr::Add(children) | InternedExpr::Mul(children) => {
                self.stack.extend_from_slice(children)
            }
            InternedExpr::CmpSS(_, a, b) => self.stack.extend([a, b]),
            InternedExpr::CmpMM(_, a, b) => {
                for side in [a, b] {
                    let terms = self.arena.agg_node(side).terms;
                    self.stack.extend(terms.iter().map(|(coeff, _)| *coeff));
                }
            }
        }
        for at in base..self.stack.len() {
            self.ensure_occurrences(self.stack[at]);
        }
        let start = self.occ_pool.len();
        if let InternedExpr::Var(v) = self.arena.node(id) {
            self.occ_pool.push((v, 1));
        }
        for at in base..self.stack.len() {
            let (from, len) = self.occ_spans[self.stack[at].0 as usize]
                .expect("children's occurrences were just computed");
            self.occ_pool
                .extend_from_within(from as usize..(from + len) as usize);
        }
        self.stack.truncate(base);
        // One sort, then equal variables are adjacent: add their counts up.
        self.occ_pool[start..].sort_unstable_by_key(|(v, _)| *v);
        let mut end = start;
        for at in start..self.occ_pool.len() {
            let (v, n) = self.occ_pool[at];
            if end > start && self.occ_pool[end - 1].0 == v {
                self.occ_pool[end - 1].1 += n;
            } else {
                self.occ_pool[end] = (v, n);
                end += 1;
            }
        }
        self.occ_pool.truncate(end);
        let run = (start as u32, (end - start) as u32);
        let at = id.0 as usize;
        if at >= self.occ_spans.len() {
            self.occ_spans.resize(at + 1, None);
        }
        self.occ_spans[at] = Some(run);
        run
    }
}

/// See [`ResidualArena::normalize_terms`].
fn normalize(
    arena: &mut Interner,
    kind: SemiringKind,
    merge: &mut MergeSlots,
    counts: &mut ResidualCounts,
    op: AggOp,
    terms: &mut Vec<AggTerm>,
    base: usize,
) {
    if merge.generation == u32::MAX {
        merge.slots.entries.clear();
        merge.generation = 0;
    }
    merge.generation += 1;
    let mut constant: Option<MonoidValue> = None;
    let mut kept = base;
    for at in base..terms.len() {
        let (coeff, value) = terms[at];
        match arena.as_const(coeff) {
            Some(c) if c.is_zero() => {}
            Some(c) => {
                let v = op.scalar_action(&c, &value);
                constant = Some(constant.map_or(v, |acc| op.combine(&acc, &v)));
            }
            None => match merge.slots.get(coeff.0, merge.generation) {
                Some(first) => {
                    let first = &mut terms[first as usize].1;
                    *first = op.combine(first, &value);
                    counts.merged_terms += 1;
                }
                None => {
                    merge.slots.set(coeff.0, merge.generation, kept as u32);
                    terms[kept] = (coeff, value);
                    kept += 1;
                }
            },
        }
    }
    terms.truncate(kept);
    let Some(c) = constant else {
        return;
    };
    let dominated = |m: &MonoidValue| match op {
        AggOp::Min => *m >= c,
        AggOp::Max => *m <= c,
        AggOp::Sum | AggOp::Count | AggOp::Prod => false,
    };
    if op.is_selective() {
        let mut kept = base;
        for at in base..terms.len() {
            if !dominated(&terms[at].1) {
                terms[kept] = terms[at];
                kept += 1;
            }
        }
        counts.dominated_terms += terms.len() - kept;
        terms.truncate(kept);
    }
    // Keep the folded constant unless it is the monoid's neutral element and
    // other terms remain.
    if c != op.identity() || terms.len() == base {
        let one = arena.intern_node(InternedExpr::Const(kind.one()));
        terms.push((one, c));
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::oracle;
    use crate::semimodule_expr::SemimoduleExpr;
    use crate::semiring_expr::SemiringExpr;
    use crate::vars::VarTable;
    use pvc_algebra::CmpOp;
    use pvc_algebra::MonoidValue::Fin;

    fn v(x: Var) -> SemiringExpr {
        SemiringExpr::Var(x)
    }

    #[test]
    fn substitution_agrees_with_the_tree_rebuild() {
        // Each residual, re-interned from the tree API's result, is the node the
        // arena produced — for every variable and value of a condition with a
        // nested comparison, in both semirings.
        for kind in [SemiringKind::Bool, SemiringKind::Nat] {
            let mut vt = VarTable::new();
            let xs: Vec<Var> = (0..4)
                .map(|i| match kind {
                    SemiringKind::Bool => vt.boolean(format!("x{i}"), 0.5),
                    SemiringKind::Nat => {
                        vt.natural(format!("x{i}"), &[(0, 0.3), (1, 0.3), (2, 0.4)])
                    }
                })
                .collect();
            let alpha = SemimoduleExpr::from_terms(
                AggOp::Sum,
                vec![
                    (v(xs[0]) * v(xs[1]), Fin(3)),
                    (v(xs[1]) + v(xs[2]), Fin(4)),
                    (v(xs[2]) * v(xs[3]), Fin(5)),
                ],
            );
            let inner = SemiringExpr::cmp_mm(
                CmpOp::Le,
                alpha,
                SemimoduleExpr::constant_in(AggOp::Sum, Fin(6), kind),
            );
            let e = (inner * v(xs[0])) + (v(xs[1]) * v(xs[3])) + v(xs[2]);
            let mut work = ResidualArena::new(kind);
            let root = work.arena_mut().intern(&e);
            let root = work.simplify(root);
            for &x in &xs {
                for (value, _) in vt.dist(x).iter() {
                    work.begin_branch(x, *value);
                    let residual = work.substitute(root);
                    let by_tree = e.substitute(x, *value).simplify(kind);
                    let expected = work.arena_mut().intern(&by_tree);
                    let expected = work.simplify(expected);
                    assert_eq!(residual, expected, "{kind:?} {x} ← {value}");
                }
            }
        }
    }

    #[test]
    fn a_branch_rebuilds_each_shared_node_once() {
        let mut vt = VarTable::new();
        let xs: Vec<Var> = (0..5).map(|i| vt.boolean(format!("x{i}"), 0.5)).collect();
        let shared = v(xs[0]) * v(xs[1]) + v(xs[2]) * v(xs[3]);
        // The same sum under forty coefficients.
        let coeffs: Vec<SemiringExpr> = (0..40).map(|_| shared.clone() * v(xs[4])).collect();
        let mut work = ResidualArena::new(SemiringKind::Bool);
        let ids: Vec<ExprId> = coeffs.iter().map(|c| work.arena_mut().intern(c)).collect();
        work.begin_branch(xs[0], SemiringValue::Bool(false));
        let before = work.counts().rebuilt_nodes;
        let residuals: Vec<ExprId> = ids.iter().map(|&id| work.substitute(id)).collect();
        // x0·x1, the sum, the product: three nodes, not 40 × 3.
        assert_eq!(work.counts().rebuilt_nodes - before, 3);
        assert!(residuals.windows(2).all(|w| w[0] == w[1]));
        // A variable that does not occur costs nothing and changes nothing.
        let absent = vt.boolean("absent", 0.5);
        work.begin_branch(absent, SemiringValue::Bool(true));
        let before = work.counts().rebuilt_nodes;
        assert_eq!(work.substitute(ids[0]), ids[0]);
        assert_eq!(work.counts().rebuilt_nodes, before);
    }

    #[test]
    fn occurrences_count_tree_paths() {
        let mut vt = VarTable::new();
        let x = vt.boolean("x", 0.5);
        let y = vt.boolean("y", 0.5);
        let z = vt.boolean("z", 0.5);
        let alpha =
            SemimoduleExpr::from_terms(AggOp::Min, vec![(v(x) * v(y), Fin(1)), (v(x), Fin(2))]);
        let cond = SemiringExpr::cmp_mm(
            CmpOp::Le,
            alpha,
            SemimoduleExpr::constant(AggOp::Min, Fin(1)),
        );
        let e = (v(x) * v(y) + v(x) * v(z)) * cond;
        let mut expected = std::collections::BTreeMap::new();
        e.count_occurrences(&mut expected);
        let mut work = ResidualArena::new(SemiringKind::Bool);
        let id = work.arena_mut().intern(&e);
        let counted: Vec<(Var, usize)> = work
            .occurrences(id)
            .iter()
            .map(|&(v, n)| (v, n as usize))
            .collect();
        assert_eq!(counted, expected.into_iter().collect::<Vec<_>>());
        assert_eq!(counted, vec![(x, 4), (y, 2), (z, 1)]);
    }

    #[test]
    fn normalisation_folds_merges_and_drops_what_the_constant_dominates() {
        let mut vt = VarTable::new();
        let x = vt.boolean("x", 0.4);
        let y = vt.boolean("y", 0.7);
        let one = SemiringExpr::one(SemiringKind::Bool);
        let zero = SemiringExpr::zero(SemiringKind::Bool);
        for op in [
            AggOp::Min,
            AggOp::Max,
            AggOp::Sum,
            AggOp::Count,
            AggOp::Prod,
        ] {
            let alpha = SemimoduleExpr::from_terms(
                op,
                vec![
                    (v(x), Fin(3)),
                    (one.clone(), Fin(5)),
                    (v(y), Fin(7)),
                    (v(x), Fin(4)),
                    (zero.clone(), Fin(100)),
                    (v(y), Fin(8)),
                    (one.clone(), Fin(6)),
                ],
            );
            let mut work = ResidualArena::new(SemiringKind::Bool);
            let id = work.arena_mut().intern_semimodule(&alpha);
            let mut terms = work.arena().agg_node(id).terms.to_vec();
            work.normalize_terms(op, &mut terms, 0);
            // Two merges always. MIN: x⊗3 and y⊗7 next to 5, which dominates y⊗7;
            // MAX: x⊗4 and y⊗8 next to 6, which dominates x⊗4.
            assert_eq!(work.counts().merged_terms, 2, "{op}");
            let dominated = usize::from(op.is_selective());
            assert_eq!(work.counts().dominated_terms, dominated, "{op}");
            assert_eq!(terms.len(), 3 - dominated, "{op}: {terms:?}");
            let rebuilt = SemimoduleExpr::from_terms(
                op,
                terms
                    .iter()
                    .map(|&(c, m)| {
                        let coeff = match work.arena().node(c) {
                            InternedExpr::Var(w) => v(w),
                            InternedExpr::Const(c) => SemiringExpr::Const(c),
                            other => panic!("unexpected coefficient {other:?}"),
                        };
                        (coeff, m)
                    })
                    .collect(),
            );
            let got = oracle::semimodule_dist_by_enumeration(&rebuilt, &vt, SemiringKind::Bool);
            let want = oracle::semimodule_dist_by_enumeration(&alpha, &vt, SemiringKind::Bool);
            assert!(got.approx_eq(&want, 1e-12), "{op}");
        }
    }

    #[test]
    fn reset_keeps_the_tables_and_forgets_the_nodes() {
        let mut vt = VarTable::new();
        let xs: Vec<Var> = (0..6).map(|i| vt.boolean(format!("x{i}"), 0.5)).collect();
        let e = SemiringExpr::sum(xs.windows(2).map(|w| v(w[0]) * v(w[1])).collect());
        let mut work = ResidualArena::new(SemiringKind::Bool);
        let id = work.arena_mut().intern(&e);
        work.begin_branch(xs[2], SemiringValue::Bool(true));
        let residual = work.substitute(id);
        let occurrences = work.occurrences(residual).to_vec();
        let capacity = work.arena().capacity();
        work.reset();
        assert!(work.arena().is_empty());
        let id = work.arena_mut().intern(&e);
        work.begin_branch(xs[2], SemiringValue::Bool(true));
        let again = work.substitute(id);
        assert_eq!(again, residual);
        assert_eq!(work.occurrences(again), occurrences);
        assert_eq!(work.arena().capacity(), capacity);
    }
}
