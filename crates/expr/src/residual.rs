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
//! * rebuilds every other node **once per compilation and `(x, s)`**: results are
//!   memoised under `(node, x, s)` from the first substitution until
//!   [`reset`](ResidualArena::reset), across all the coefficients of a term list
//!   and across branches — two `⊔` nodes that reach the same sub-expression
//!   under the same `x ← s` share its residual,
//! * folds constants on the way up exactly as [`SemiringExpr::simplify`] does, and
//!   re-interns, which restores the canonical child order.
//!
//! Four laws of the paper's structures shrink a residual further. Each is an
//! identity of `S` or of the semimodule `S ⊗ M`, so it holds in every world and no
//! distribution changes:
//!
//! * **Absorption** — `Φ + ⊤ = ⊤` in `B` (`⊤` is `1 ∨ _`); not in `N`, where
//!   `x + 1` depends on `x`. Applied by the sum constructor, as `0_S` annihilates a
//!   product.
//! * **Monomial absorption** — `m + m·Ψ = m` in `B` for a monomial `m` (a
//!   variable or a product of variables): a product summand whose direct
//!   factors include every variable of a monomial summand is dropped; not in
//!   `N`, where `x + x·y` is `x·(1 + y)`. Only a sum that a substitution
//!   rebuilds applies it — where `x ← ⊤` has just turned `x·y` into `y`, next
//!   to a `y·z·w` — and only its product summands are checked, so a sum of
//!   variables costs nothing more. [`simplify`](ResidualArena::simplify)
//!   leaves it out.
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
    /// Sums replaced by `⊤` because a summand was `⊤` (Boolean semiring only),
    /// once per distinct residual (a memoised rebuild does not count again).
    pub absorbed_sums: usize,
    /// Product summands dropped from a rebuilt sum because a monomial summand
    /// divides them (`m + m·Ψ = m`, Boolean semiring only), once per distinct
    /// residual.
    pub absorbed_terms: usize,
    /// Terms merged into an earlier term with the same coefficient.
    pub merged_terms: usize,
    /// MIN / MAX terms dropped next to a constant term that dominates them.
    pub dominated_terms: usize,
    /// Distinct `(node, variable, value)` substitutions the compilation computed
    /// (semiring and semimodule nodes that mention the substituted variable): a
    /// node reached again under the same `x ← s`, in the same branch or another,
    /// is not counted again.
    pub rebuilt_nodes: usize,
}

/// No entry: the end of a chain, or a node without one.
const NONE: u32 = u32::MAX;

/// The key of [`simplify`](ResidualArena::simplify), which substitutes nothing.
const FOLD_ONLY: (Var, ExprId) = (Var(u32::MAX), ExprId(u32::MAX));

/// The results of `rebuild`, keyed by `(node, x, s)` (`s` as its constant node)
/// and kept for the whole compilation. Each node has a chain of entries in one
/// flat pool, newest first: a node is rebuilt under a handful of keys at most
/// (one per value of each variable it mentions, plus plain folding), so a
/// lookup reads a few entries and hashes nothing.
#[derive(Debug)]
struct SubstMemo<I> {
    /// Per node id, its newest entry in `pool`, or [`NONE`].
    heads: Vec<u32>,
    pool: Vec<MemoEntry<I>>,
}

#[derive(Debug, Clone, Copy)]
struct MemoEntry<I> {
    next: u32,
    key: (Var, ExprId),
    result: I,
}

impl<I> Default for SubstMemo<I> {
    fn default() -> Self {
        SubstMemo {
            heads: Vec::new(),
            pool: Vec::new(),
        }
    }
}

impl<I: Copy> SubstMemo<I> {
    fn get(&self, id: u32, key: (Var, ExprId)) -> Option<I> {
        let mut at = *self.heads.get(id as usize)?;
        while at != NONE {
            let entry = &self.pool[at as usize];
            if entry.key == key {
                return Some(entry.result);
            }
            at = entry.next;
        }
        None
    }

    fn insert(&mut self, id: u32, key: (Var, ExprId), result: I) {
        let slot = id as usize;
        if slot >= self.heads.len() {
            self.heads.resize(slot + 1, NONE);
        }
        let next = std::mem::replace(&mut self.heads[slot], self.pool.len() as u32);
        self.pool.push(MemoEntry { next, key, result });
    }

    fn clear(&mut self) {
        self.heads.clear();
        self.pool.clear();
    }

    #[cfg(test)]
    fn len(&self) -> usize {
        self.pool.len()
    }
}

/// Where in a term list each coefficient was first seen, by coefficient id: an
/// entry is valid while its stamp is the current generation, so starting a list
/// invalidates every entry of the last one at once.
#[derive(Debug, Default)]
struct MergeSlots {
    generation: u32,
    slots: Vec<(u32, u32)>,
}

impl MergeSlots {
    fn begin(&mut self) {
        if self.generation == u32::MAX {
            // Stamps are about to repeat: forget them all.
            self.slots.clear();
            self.generation = 0;
        }
        self.generation += 1;
    }

    fn get(&self, id: u32) -> Option<u32> {
        match self.slots.get(id as usize) {
            Some(&(stamp, first)) if stamp == self.generation => Some(first),
            _ => None,
        }
    }

    fn set(&mut self, id: u32, first: u32) {
        let at = id as usize;
        if at >= self.slots.len() {
            self.slots.resize(at + 1, (0, 0));
        }
        self.slots[at] = (self.generation, first);
    }
}

/// A compile-local expression arena with substitution, constant folding and the
/// four laws of the [module documentation](self).
#[derive(Debug)]
pub struct ResidualArena {
    arena: Interner,
    kind: SemiringKind,
    /// The variable being substituted and the constant node replacing it; `None`
    /// while [`simplify`](Self::simplify) folds without substituting.
    target: Option<(Var, ExprId)>,
    memo: SubstMemo<ExprId>,
    agg_memo: SubstMemo<AggExprId>,
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
            memo: SubstMemo::default(),
            agg_memo: SubstMemo::default(),
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

    /// The law and rebuild counters since the last [`reset`](Self::reset) (or
    /// creation): one compilation's.
    pub fn counts(&self) -> &ResidualCounts {
        &self.counts
    }

    /// Empty the arena for the next compilation, keeping every table's
    /// allocation, and count from zero. Ids handed out before are invalid.
    pub fn reset(&mut self) {
        self.arena.clear();
        self.occ_spans.clear();
        self.occ_pool.clear();
        self.import_memo.clear();
        self.memo.clear();
        self.agg_memo.clear();
        self.counts = ResidualCounts::default();
    }

    /// Hand the arena's tables to a new owner: from the next
    /// [`reset`](Self::reset) on it folds constants in `kind`.
    pub fn rebind(&mut self, kind: SemiringKind) {
        self.kind = kind;
    }

    /// Copy the DAG below `id` of `src` into this arena, unsimplified.
    pub fn import(&mut self, src: &Interner, id: ExprId) -> ExprId {
        self.arena.import(src, id, &mut self.import_memo)
    }

    /// [`import`](Self::import) for a semimodule expression.
    pub fn import_agg(&mut self, src: &Interner, id: AggExprId) -> AggExprId {
        self.arena.import_agg(src, id, &mut self.import_memo)
    }

    /// What [`import`](Self::import) and [`import_agg`](Self::import_agg)
    /// have copied since the last [`reset`](Self::reset), by source id.
    pub fn imported(&self) -> &ImportMemo {
        &self.import_memo
    }

    /// Fold the constants of `id` and apply the laws throughout (no substitution).
    pub fn simplify(&mut self, id: ExprId) -> ExprId {
        self.target = None;
        self.rebuild(id)
    }

    /// [`simplify`](Self::simplify) for a semimodule expression.
    pub fn simplify_agg(&mut self, id: AggExprId) -> AggExprId {
        self.target = None;
        self.rebuild_agg(id)
    }

    /// Start substituting `var ← value`: every [`substitute`](Self::substitute)
    /// until the next call. Results are remembered under `(node, var, value)`
    /// until [`reset`](Self::reset), so a later branch over the same `var ←
    /// value` reuses them.
    pub fn begin_branch(&mut self, var: Var, value: SemiringValue) {
        let replacement = self.arena.intern_node(InternedExpr::Const(value));
        self.target = Some((var, replacement));
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

    /// The memo key of the current substitution.
    fn key(&self) -> (Var, ExprId) {
        self.target.unwrap_or(FOLD_ONLY)
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
        if let Some(done) = self.memo.get(id.0, self.key()) {
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
        self.memo.insert(id.0, self.key(), done);
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
        let (mut nested, mut product) = (false, false);
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
                    product |= matches!(node, InternedExpr::Mul(_));
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
                        // A spliced sum may bring products along.
                        product |= is_add;
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
        if is_add && product && self.target.is_some() && self.kind == SemiringKind::Bool {
            self.absorb_monomials(base);
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

    /// Monomial absorption (module documentation) on the summands
    /// `stack[base..]` of a rebuilt Boolean sum: every product summand that
    /// another monomial summand divides is dropped. Division is transitive, so
    /// a summand is checked against the survivors before it and the summands
    /// after it; of equal monomials the last stays.
    fn absorb_monomials(&mut self, base: usize) {
        let end = self.stack.len();
        let mut kept = base;
        for at in base..end {
            let child = self.stack[at];
            let absorbed = match self.arena.node(child) {
                InternedExpr::Mul(factors) => {
                    let (before, after) = (&self.stack[base..kept], &self.stack[at + 1..end]);
                    let mut others = before.iter().chain(after);
                    others.any(|&m| divides(&self.arena, m, factors))
                }
                _ => false,
            };
            if absorbed {
                self.counts.absorbed_terms += 1;
            } else {
                self.stack[kept] = child;
                kept += 1;
            }
        }
        self.stack.truncate(kept);
    }

    fn rebuild_agg(&mut self, id: AggExprId) -> AggExprId {
        if let Some((var, _)) = self.target {
            if self.arena.agg_var_set(id).binary_search(&var).is_err() {
                return id;
            }
        }
        if let Some(done) = self.agg_memo.get(id.0, self.key()) {
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
        self.agg_memo.insert(id.0, self.key(), done);
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

/// Whether `m` is a monomial — a variable, or a product of variables — each
/// of whose variables is one of a product's direct `factors`.
fn divides(arena: &Interner, m: ExprId, factors: &[ExprId]) -> bool {
    match arena.node(m) {
        InternedExpr::Var(_) => factors.contains(&m),
        InternedExpr::Mul(own) => {
            own.len() <= factors.len()
                && own
                    .iter()
                    .all(|f| matches!(arena.node(*f), InternedExpr::Var(_)) && factors.contains(f))
        }
        _ => false,
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
    merge.begin();
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
            None => match merge.get(coeff.0) {
                Some(first) => {
                    let first = &mut terms[first as usize].1;
                    *first = op.combine(first, &value);
                    counts.merged_terms += 1;
                }
                None => {
                    merge.set(coeff.0, kept as u32);
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

    /// Whether the monomial `m` divides the product `s`, on trees: the test
    /// side's [`divides`].
    fn tree_divides(m: &SemiringExpr, s: &SemiringExpr) -> bool {
        let SemiringExpr::Mul(factors) = s else {
            return false;
        };
        match m {
            SemiringExpr::Var(_) => factors.contains(m),
            SemiringExpr::Mul(own) => {
                own.len() <= factors.len()
                    && own
                        .iter()
                        .all(|f| matches!(f, SemiringExpr::Var(_)) && factors.contains(f))
            }
            _ => false,
        }
    }

    /// `m + m·Ψ = m` in every sum of a simplified Boolean tree, bottom up: a
    /// product summand is dropped if another summand divides it, unless that
    /// one comes later and is divided back (two renderings of one monomial:
    /// the first stays). Sums and products are flattened again after it.
    fn absorbed(e: &SemiringExpr) -> SemiringExpr {
        match e {
            SemiringExpr::Var(_) | SemiringExpr::Const(_) => e.clone(),
            SemiringExpr::Add(children) => {
                let mut flat = Vec::new();
                for c in children {
                    match absorbed(c) {
                        SemiringExpr::Add(grand) => flat.extend(grand),
                        other => flat.push(other),
                    }
                }
                let dropped = |i: usize| {
                    (0..flat.len()).any(|j| {
                        j != i
                            && tree_divides(&flat[j], &flat[i])
                            && !(j > i && tree_divides(&flat[i], &flat[j]))
                    })
                };
                let mut kept: Vec<SemiringExpr> = (0..flat.len())
                    .filter(|&i| !dropped(i))
                    .map(|i| flat[i].clone())
                    .collect();
                match kept.len() {
                    1 => kept.pop().expect("one summand"),
                    _ => SemiringExpr::Add(kept),
                }
            }
            SemiringExpr::Mul(children) => {
                let mut flat = Vec::new();
                for c in children {
                    match absorbed(c) {
                        SemiringExpr::Mul(grand) => flat.extend(grand),
                        other => flat.push(other),
                    }
                }
                SemiringExpr::Mul(flat)
            }
            SemiringExpr::CmpSS(op, a, b) => SemiringExpr::cmp_ss(*op, absorbed(a), absorbed(b)),
            SemiringExpr::CmpMM(op, a, b) => {
                let side = |alpha: &SemimoduleExpr| {
                    let terms = alpha.terms.iter();
                    SemimoduleExpr::from_terms(
                        alpha.op,
                        terms.map(|t| (absorbed(&t.coeff), t.value)).collect(),
                    )
                };
                SemiringExpr::cmp_mm(*op, side(a), side(b))
            }
        }
    }

    /// The tree API's residual `e|x←s`, simplified, with the fourth law applied
    /// in `B`. It is the arena's residual when `e` itself has nothing to
    /// absorb: the arena applies the law only to the sums a substitution
    /// rebuilds.
    fn law_aware(
        e: &SemiringExpr,
        x: Var,
        value: SemiringValue,
        kind: SemiringKind,
    ) -> SemiringExpr {
        let residual = e.substitute(x, value).simplify(kind);
        match kind {
            SemiringKind::Bool => absorbed(&residual),
            SemiringKind::Nat => residual,
        }
    }

    #[test]
    fn substitution_agrees_with_the_tree_rebuild() {
        // Each residual, re-interned from the law-aware tree result, is the
        // node the arena produced — for every variable and value of a
        // condition with a nested comparison, in both semirings.
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
                    let by_tree = law_aware(&e, x, *value, kind);
                    let expected = work.arena_mut().intern(&by_tree);
                    let expected = work.simplify(expected);
                    assert_eq!(residual, expected, "{kind:?} {x} ← {value}");
                }
            }
        }
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

    /// A random sum of one to four products over `pool`: each of one to three
    /// distinct variables, now and then times a nested sum over variables the
    /// product does not mention — so no residual repeats a variable in a
    /// product, and two products divide each other only if they are one
    /// monomial. Monomials nest in one another often enough that a
    /// substitution exposes a subsumed one.
    fn random_dnf(rng: &mut pvc_prob::SeededRng, pool: &[Var], depth: u32) -> SemiringExpr {
        let n = rng.gen_range(1usize..5);
        let products = (0..n)
            .map(|_| {
                let mut own = pool.to_vec();
                let k = rng.gen_range(1usize..4).min(own.len());
                for i in 0..k {
                    let j = rng.gen_range(i..own.len());
                    own.swap(i, j);
                }
                let mut factors: Vec<SemiringExpr> = own[..k].iter().map(|&x| v(x)).collect();
                if depth > 0 && own.len() > k + 1 && rng.gen_range(0u32..3) == 0 {
                    factors.push(random_dnf(rng, &own[k..], depth - 1));
                }
                SemiringExpr::Mul(factors)
            })
            .collect();
        SemiringExpr::Add(products)
    }

    #[test]
    fn substitution_agrees_with_the_law_aware_tree_rebuild_on_random_expressions() {
        // Random sums of products, alone or as the coefficients of a
        // comparison, first closed under the law (the arena leaves a sum no
        // substitution rebuilds as it is). In `B` the law fires in many
        // residuals; in `N` in none.
        for seed in seeds(0xAB50) {
            let mut rng = pvc_prob::SeededRng::seed_from_u64(seed);
            for kind in [SemiringKind::Bool, SemiringKind::Nat] {
                let mut vt = VarTable::new();
                let xs: Vec<Var> = (0..7)
                    .map(|i| match kind {
                        SemiringKind::Bool => vt.boolean(format!("x{i}"), 0.5),
                        SemiringKind::Nat => vt.natural(format!("x{i}"), &[(0, 0.5), (1, 0.5)]),
                    })
                    .collect();
                let (mut fired, mut residuals) = (0, 0);
                let mut work = ResidualArena::new(kind);
                for case in 0..300 {
                    let e = match rng.gen_range(0u32..3) {
                        0 => {
                            let terms = (0..rng.gen_range(1usize..4))
                                .map(|_| {
                                    (random_dnf(&mut rng, &xs, 1), Fin(rng.gen_range(1i64..4)))
                                })
                                .collect();
                            let op = [AggOp::Sum, AggOp::Min][rng.gen_range(0usize..2)];
                            SemiringExpr::cmp_mm(
                                CmpOp::Le,
                                SemimoduleExpr::from_terms(op, terms),
                                SemimoduleExpr::constant_in(op, Fin(3), kind),
                            )
                        }
                        _ => random_dnf(&mut rng, &xs, 2),
                    };
                    let e = match kind {
                        SemiringKind::Bool => absorbed(&e.simplify(kind)),
                        SemiringKind::Nat => e,
                    };
                    work.reset();
                    let root = work.arena_mut().intern(&e);
                    let root = work.simplify(root);
                    assert_eq!(work.counts().absorbed_terms, 0, "simplify absorbs nothing");
                    for &x in &xs {
                        for (value, _) in vt.dist(x).iter() {
                            work.begin_branch(x, *value);
                            let before = work.counts().absorbed_terms;
                            let residual = work.substitute(root);
                            fired += usize::from(work.counts().absorbed_terms > before);
                            residuals += 1;
                            let expected = work.arena_mut().intern(&law_aware(&e, x, *value, kind));
                            let expected = work.simplify(expected);
                            assert_eq!(
                                residual, expected,
                                "seed {seed} case {case} {kind:?} {x} ← {value}: {e}"
                            );
                        }
                    }
                }
                match kind {
                    SemiringKind::Bool => assert!(
                        fired * 10 > residuals,
                        "the law fired in {fired} of {residuals} residuals"
                    ),
                    SemiringKind::Nat => assert_eq!(fired, 0),
                }
            }
        }
    }

    #[test]
    fn a_subsumed_monomial_is_absorbed_in_b_under_substitution_only() {
        // x·y + y·z·w: under x ← ⊤ the sum is y + y·z·w = y in B; under x ← ⊥
        // it is y·z·w, and nothing is absorbed.
        let mut vt = VarTable::new();
        let [x, y, z, w] = ["x", "y", "z", "w"].map(|n| vt.boolean(n, 0.5));
        let e = v(x) * v(y) + v(y) * v(z) * v(w);
        let mut work = ResidualArena::new(SemiringKind::Bool);
        let id = work.arena_mut().intern(&e);
        work.begin_branch(x, SemiringValue::Bool(true));
        let residual = work.substitute(id);
        let y_id = work.arena_mut().intern(&v(y));
        assert_eq!(residual, y_id);
        assert_eq!(work.counts().absorbed_terms, 1);
        work.begin_branch(x, SemiringValue::Bool(false));
        let residual = work.substitute(id);
        let yzw = work.arena_mut().intern(&(v(y) * v(z) * v(w)));
        assert_eq!((residual, work.counts().absorbed_terms), (yzw, 1));
        // A product divides a product: y·z + y·z·w = y·z; but y·z absorbs
        // nothing from (y + z)·w, whose direct factors it does not divide.
        let e = v(x) * v(y) * v(z) + v(y) * v(z) * v(w) + v(x) * (v(y) + v(z)) * v(w);
        let id = work.arena_mut().intern(&e);
        work.begin_branch(x, SemiringValue::Bool(true));
        let residual = work.substitute(id);
        let expected = work
            .arena_mut()
            .intern(&(v(y) * v(z) + (v(y) + v(z)) * v(w)));
        assert_eq!((residual, work.counts().absorbed_terms), (expected, 2));
        // The root fold leaves a subsumed monomial where it is.
        work.reset();
        let sum = work.arena_mut().intern(&(v(y) + v(y) * v(z) * v(w)));
        assert_eq!(work.simplify(sum), sum);
        assert_eq!(work.counts().absorbed_terms, 0);
    }

    #[test]
    fn a_subsumed_monomial_stays_in_n() {
        // x·y + y·z·w under x ← 1 is y + y·z·w over N: y·(1 + z·w) is not y.
        let mut vt = VarTable::new();
        let [x, y, z, w] = ["x", "y", "z", "w"].map(|n| vt.natural(n, &[(0, 0.5), (1, 0.5)]));
        let e = v(x) * v(y) + v(y) * v(z) * v(w);
        let mut work = ResidualArena::new(SemiringKind::Nat);
        let id = work.arena_mut().intern(&e);
        work.begin_branch(x, SemiringValue::Nat(1));
        let residual = work.substitute(id);
        let expected = work.arena_mut().intern(&(v(y) + v(y) * v(z) * v(w)));
        assert_eq!(residual, expected);
        assert_eq!(work.counts().absorbed_terms, 0);
    }

    #[test]
    fn a_rebuilt_sum_of_variables_absorbs_nothing() {
        // A thousand variables, and one of them repeated: no product summand,
        // so the law has nothing to check.
        let mut vt = VarTable::new();
        let xs: Vec<Var> = (0..1_000)
            .map(|i| vt.boolean(format!("x{i}"), 0.5))
            .collect();
        let mut summands: Vec<SemiringExpr> = xs.iter().map(|&x| v(x)).collect();
        summands.push(v(xs[7]));
        let e = SemiringExpr::Add(summands);
        let mut work = ResidualArena::new(SemiringKind::Bool);
        let id = work.arena_mut().intern(&e);
        work.begin_branch(xs[0], SemiringValue::Bool(false));
        let residual = work.substitute(id);
        let InternedExpr::Add(children) = work.arena().node(residual) else {
            panic!("not a sum");
        };
        assert_eq!(children.len(), 1_000);
        assert_eq!(work.counts().absorbed_terms, 0);
        assert_eq!(work.counts().rebuilt_nodes, 1);
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
    fn two_expansions_under_the_same_assignment_share_their_residuals() {
        // `shared` sits under two coefficients that two different `⊔` nodes
        // expand, with another variable's branch between them.
        let mut vt = VarTable::new();
        let xs: Vec<Var> = (0..6).map(|i| vt.boolean(format!("x{i}"), 0.5)).collect();
        let shared = v(xs[0]) * v(xs[1]) + v(xs[2]) * v(xs[3]);
        let mut work = ResidualArena::new(SemiringKind::Bool);
        let a = work.arena_mut().intern(&(shared.clone() * v(xs[4])));
        let b = work.arena_mut().intern(&(shared.clone() * v(xs[5])));
        let shared = work.arena_mut().intern(&shared);
        let rebuilt = |work: &ResidualArena| work.counts().rebuilt_nodes;
        work.begin_branch(xs[0], SemiringValue::Bool(false));
        work.substitute(a);
        // x0·x1, the sum, the product.
        assert_eq!(rebuilt(&work), 3);
        work.begin_branch(xs[4], SemiringValue::Bool(true));
        work.substitute(a);
        assert_eq!(rebuilt(&work), 4);
        work.begin_branch(xs[0], SemiringValue::Bool(false));
        let before = rebuilt(&work);
        let residual_b = work.substitute(b);
        // Only `b` itself is new under x0 ← ⊥.
        assert_eq!(rebuilt(&work) - before, 1);
        let residual_shared = work.substitute(shared);
        assert_eq!(rebuilt(&work) - before, 1);
        let expected = work.arena_mut().intern(&(v(xs[2]) * v(xs[3]) * v(xs[5])));
        assert_eq!(residual_b, expected);
        let expected = work.arena_mut().intern(&(v(xs[2]) * v(xs[3])));
        assert_eq!(residual_shared, expected);
    }

    #[test]
    fn an_entry_answers_only_its_own_variable_and_value() {
        // Each (variable, value) after the first substitution of a node: a
        // memo that answered by node alone, or by variable alone, would hand
        // back the first residual.
        for kind in [SemiringKind::Bool, SemiringKind::Nat] {
            let mut vt = VarTable::new();
            let xs: Vec<Var> = (0..3)
                .map(|i| match kind {
                    SemiringKind::Bool => vt.boolean(format!("x{i}"), 0.5),
                    SemiringKind::Nat => vt.natural(format!("x{i}"), &[(0, 0.5), (2, 0.5)]),
                })
                .collect();
            let e = v(xs[0]) * v(xs[1]) + v(xs[1]) * v(xs[2]) + v(xs[0]) * v(xs[2]);
            let mut work = ResidualArena::new(kind);
            let id = work.arena_mut().intern(&e);
            let mut seen = Vec::new();
            for &x in &xs {
                for (value, _) in vt.dist(x).iter() {
                    work.begin_branch(x, *value);
                    let before = work.counts().rebuilt_nodes;
                    let residual = work.substitute(id);
                    assert!(
                        work.counts().rebuilt_nodes > before,
                        "{kind:?} {x} ← {value}"
                    );
                    let by_tree = law_aware(&e, x, *value, kind);
                    let expected = work.arena_mut().intern(&by_tree);
                    assert_eq!(residual, expected, "{kind:?} {x} ← {value}");
                    seen.push(residual);
                }
            }
            seen.sort_unstable();
            seen.dedup();
            assert_eq!(seen.len(), 2 * xs.len(), "{kind:?}: {seen:?}");
        }
    }

    #[test]
    fn reset_forgets_every_substitution() {
        let mut vt = VarTable::new();
        let xs: Vec<Var> = (0..3).map(|i| vt.boolean(format!("x{i}"), 0.5)).collect();
        let alpha = SemimoduleExpr::from_terms(
            AggOp::Sum,
            vec![(v(xs[0]) * v(xs[1]), Fin(3)), (v(xs[1]) + v(xs[2]), Fin(4))],
        );
        let cond = SemiringExpr::cmp_mm(
            CmpOp::Le,
            alpha,
            SemimoduleExpr::constant(AggOp::Sum, Fin(5)),
        );
        let e = cond * v(xs[2]);
        let mut work = ResidualArena::new(SemiringKind::Bool);
        let rebuild = |work: &mut ResidualArena| {
            let id = work.arena_mut().intern(&e);
            let id = work.simplify(id);
            work.begin_branch(xs[1], SemiringValue::Bool(true));
            let before = work.counts().rebuilt_nodes;
            work.substitute(id);
            work.counts().rebuilt_nodes - before
        };
        let first = rebuild(&mut work);
        assert!(first > 0);
        assert!(work.memo.len() > 0 && work.agg_memo.len() > 0);
        work.reset();
        assert_eq!((work.memo.len(), work.agg_memo.len()), (0, 0));
        assert!(work.memo.heads.is_empty() && work.agg_memo.heads.is_empty());
        // Ids are handed out afresh: an entry that survived would answer for
        // whatever node now has its id.
        assert_eq!(rebuild(&mut work), first);
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
