//! Compilation of semiring and semimodule expressions into decomposition trees
//! (Algorithm 1 of the paper).
//!
//! The compiler repeatedly applies six decomposition rules:
//!
//! 1. **Constant** — an expression without variables becomes a constant leaf.
//! 2. **Independent sum** — a sum whose summands split into groups that share no
//!    variables becomes an `⊕` node over the groups (found via connected components of
//!    the variable co-occurrence graph).
//! 3. **Independent product / read-once factorisation** — a product of
//!    variable-disjoint factors becomes a `⊙` node; a sum whose summands all share a
//!    common factor is rewritten `(Π common) · (Σ quotients)` first, which is how
//!    read-once provenance (hierarchical queries) is compiled without case splits.
//! 4. **Scalar split** — a semimodule expression `Φ ⊗ α` with independent `Φ` and `α`
//!    becomes an `⊗` node.
//! 5. **Comparison split** — a conditional `[Φ θ Ψ]` over independent sides becomes a
//!    `[θ]` node (after pruning, cf. the `prune` module).
//! 6. **Mutually exclusive case split** — otherwise a variable is chosen (the one with
//!    the most occurrences, as in the paper's implementation) and the expression is
//!    expanded into a `⊔` node with one branch per support value.
//!
//! A conditional `[α θ c]` with a constant side is pruned, and where none of
//! rules 2–4 applies to `α`, rule 6 expands the conditional rather than `α`:
//! each branch's residual term list is pruned again, and a branch the rules
//! decide is a constant leaf instead of a distribution of `α`. Where `α`
//! splits, has one term or has a common factor that divides out, rule 5
//! compiles `α`'s distribution, by those rules, under a `[θ]` node.
//!
//! The compiler's working representation is the hash-consed DAG of
//! [`pvc_expr::intern`], held in a compile-local [`ResidualArena`]: the expression
//! is interned (or imported from a shared [`Interner`]) once, every rule reads ids,
//! precomputed var-sets and per-id occurrence counts instead of walking trees, and
//! rule 6's residuals `Φ|x←s` cost one memoised substitution per distinct
//! sub-expression and branch. The arena shrinks each residual by four laws of
//! `S` and `S ⊗ M` (absorption of `⊤` and of subsumed monomials in `B`,
//! merging of equal coefficients, MIN / MAX dominance): the fewer distinct
//! coefficients a residual term list keeps, the more of them merge, and the
//! sooner a branch is decided or splits.
//!
//! A term list is tallied once: the occurrence counts that choose rule 6's
//! variable also certify, before rule 2, that the list is one component (one
//! coefficient mentions every variable of the list and none is
//! variable-free), and rule 2 then skips its partition.
//!
//! The compiler does not know the artifact store exists. The store lends it
//! compile scratch and evaluates the arena it emits for the root, and nothing
//! else: every leaf of the emitted d-tree is a variable or a constant
//! (Definition 7 of the paper), and one bottom-up pass evaluates it
//! (Theorem 2).
//!
//! What comes out is the post-order [`DTreeArena`] the evaluator runs on, emitted
//! node by node as the rules fire: children first, so a rule's node is pushed
//! when its recursive calls return, and the arena's length *is* the number of
//! nodes produced (what [`CompileOptions::node_budget`] bounds). The
//! `emit_*` entry points lend that arena out; the `compile_*` entry points
//! return a copy to keep — one compile path either way.

use crate::arena::{DTreeArena, EvalScratch, Interp, Val};
use crate::node::{ArenaNode, DTreeError};
use crate::prune::{verdict, Verdict};
use pvc_algebra::{AggOp, CmpOp, MonoidValue, SemiringKind, SemiringValue};
use pvc_expr::factor::{common_factor_vars, divide_by_vars};
use pvc_expr::independence::{Hint, Partitioner};
use pvc_expr::vars::sorted_disjoint;
use pvc_expr::{
    AggExprId, AggTerm, ExprId, InternedExpr, Interner, ResidualArena, SemimoduleExpr,
    SemiringExpr, Var, VarSet, VarTable,
};

/// Options controlling which decomposition rules the compiler may use.
///
/// Disabling rules is used by the ablation benchmarks (Shannon-only compilation) and
/// by tests that exercise specific code paths; the defaults enable everything.
#[derive(Debug, Clone)]
pub struct CompileOptions {
    /// Enable rule 2 (independent-sum split) and the independent-product split.
    pub independence: bool,
    /// Enable the common-factor extraction of rule 3 (read-once factorisation).
    pub factoring: bool,
    /// Enable pruning of conditional expressions before compiling them.
    pub pruning: bool,
    /// Abort compilation once the produced tree exceeds this many nodes (a safety
    /// valve for experiments in the intractable regime). `None` disables the limit.
    pub node_budget: Option<usize>,
}

impl Default for CompileOptions {
    fn default() -> Self {
        CompileOptions {
            independence: true,
            factoring: true,
            pruning: true,
            node_budget: None,
        }
    }
}

impl CompileOptions {
    /// Options with every structural rule disabled: compilation degenerates to pure
    /// Shannon expansion (the ablation baseline).
    pub fn shannon_only() -> Self {
        CompileOptions {
            independence: false,
            factoring: false,
            pruning: false,
            node_budget: None,
        }
    }

    /// Builder: set the node budget (compilation aborts with
    /// [`BudgetExceeded`] beyond it).
    pub fn with_node_budget(mut self, budget: usize) -> Self {
        self.node_budget = Some(budget);
        self
    }
}

/// How often each rule and law fired: in one compilation
/// ([`Compiler::last_stats`]), or summed over a compiler's compilations
/// ([`Compiler::stats`]).
#[derive(Debug, Clone, Default, PartialEq, Eq)]
pub struct CompileStats {
    /// Rule 2 applications (independent-sum splits), counted per produced `⊕` node.
    pub independent_sums: usize,
    /// Independent-product splits, counted per produced `⊙` node.
    pub independent_products: usize,
    /// Common-factor extractions (read-once factorisation steps).
    pub factorings: usize,
    /// `⊗` splits.
    pub tensor_splits: usize,
    /// `[θ]` splits.
    pub comparison_splits: usize,
    /// `⊔` expansions (Shannon / mutually exclusive case splits).
    pub exclusive_expansions: usize,
    /// Conditionals decided by the pruning rules, at the root of a
    /// conditional or in a branch of its own `⊔` expansion.
    pub pruned_conditionals: usize,
    /// Sums folded to `⊤` because a summand was `⊤` (Boolean semiring only),
    /// once per distinct residual: a sum the compilation already folded under
    /// the same substitution is not counted again.
    pub absorbed_sums: usize,
    /// Product summands dropped from a sum the `⊔` expansions rebuilt because
    /// a monomial summand divides them (`m + m·Ψ = m`, Boolean semiring only),
    /// once per distinct residual.
    pub absorbed_terms: usize,
    /// Semimodule terms merged into a term with the same coefficient
    /// (`Φ⊗a +op Φ⊗b = Φ⊗(a +op b)`).
    pub merged_terms: usize,
    /// MIN / MAX terms dropped next to a constant term that dominates them.
    pub dominated_terms: usize,
    /// Distinct `(node, variable, value)` substitutions the `⊔` expansions of
    /// the compilation computed (nodes mentioning the substituted variable): a
    /// sub-expression that two branches or two `⊔` nodes reach under the same
    /// `x ← s` is rebuilt, and counted, once.
    pub rebuilt_nodes: usize,
}

impl CompileStats {
    fn add(&mut self, other: &CompileStats) {
        self.independent_sums += other.independent_sums;
        self.independent_products += other.independent_products;
        self.factorings += other.factorings;
        self.tensor_splits += other.tensor_splits;
        self.comparison_splits += other.comparison_splits;
        self.exclusive_expansions += other.exclusive_expansions;
        self.pruned_conditionals += other.pruned_conditionals;
        self.absorbed_sums += other.absorbed_sums;
        self.absorbed_terms += other.absorbed_terms;
        self.merged_terms += other.merged_terms;
        self.dominated_terms += other.dominated_terms;
        self.rebuilt_nodes += other.rebuilt_nodes;
    }
}

/// Error raised when the node budget of [`CompileOptions`] is exceeded.
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct BudgetExceeded {
    /// The number of nodes produced when compilation was aborted.
    pub nodes_produced: usize,
}

impl std::fmt::Display for BudgetExceeded {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        write!(
            f,
            "d-tree node budget exceeded after {} nodes",
            self.nodes_produced
        )
    }
}

impl std::error::Error for BudgetExceeded {}

/// Everything one compilation fills and the next can reuse: the compile-local
/// expression arena with its memos and pools, the independence and
/// variable-choice scratch, the buffer pools, and the d-tree arena under
/// construction. A [`Compiler`] owns one; `SharedArtifacts` keeps those of
/// finished compilers and lends them to the next ([`Compiler::with_scratch`] /
/// [`Compiler::into_scratch`]), so a miss does not start by growing a dozen
/// tables from nothing.
#[derive(Debug)]
pub(crate) struct CompileScratch {
    /// The expression being compiled and every residual derived from it; emptied,
    /// not freed, between compilations.
    work: ResidualArena,
    /// Scratch of the independence splits, reused across the thousands a hard
    /// compilation performs.
    partitioner: Partitioner,
    /// Per-variable occurrence counters of the `⊔`-variable choice, indexed by
    /// `Var` id. Starts empty and grows to the largest id a choice touches (never
    /// to the table's size: most compilations see a handful of variables of a
    /// table of thousands); entries touched by a choice are reset afterwards.
    occ_counts: Vec<u32>,
    touched: Vec<Var>,
    /// Emptied term, child and boundary lists waiting for their next use: every
    /// recursion level needs a few and none needs them for long.
    term_bufs: Vec<Vec<AggTerm>>,
    id_bufs: Vec<Vec<ExprId>>,
    end_bufs: Vec<Vec<usize>>,
    /// The d-tree of the current compilation, in post-order.
    out: DTreeArena,
    /// `(branch value, child)` entries of the `⊔` nodes still open, innermost
    /// last (see [`DTreeArena::push_exclusive`]).
    pending: Vec<(SemiringValue, u32)>,
    /// The buffers of [`Compiler::evaluate_emitted`].
    eval: EvalScratch,
}

impl CompileScratch {
    pub(crate) fn new(kind: SemiringKind) -> Self {
        CompileScratch {
            work: ResidualArena::new(kind),
            partitioner: Partitioner::default(),
            occ_counts: Vec::new(),
            touched: Vec::new(),
            term_bufs: Vec::new(),
            id_bufs: Vec::new(),
            end_bufs: Vec::new(),
            out: DTreeArena::new(),
            pending: Vec::new(),
            eval: EvalScratch::default(),
        }
    }
}

/// The expression compiler (Algorithm 1).
pub struct Compiler<'a> {
    table: &'a VarTable,
    kind: SemiringKind,
    options: CompileOptions,
    /// The current (or last) compilation's counts, from zero at each `emit_*`.
    last: CompileStats,
    /// Every finished compilation's counts, summed.
    totals: CompileStats,
    scratch: CompileScratch,
}

impl<'a> Compiler<'a> {
    /// Create a compiler over the given variable table and ambient semiring.
    pub fn new(table: &'a VarTable, kind: SemiringKind) -> Self {
        Self::with_options(table, kind, CompileOptions::default())
    }

    /// Create a compiler with explicit options.
    pub fn with_options(table: &'a VarTable, kind: SemiringKind, options: CompileOptions) -> Self {
        Self::with_scratch(table, kind, options, CompileScratch::new(kind))
    }

    /// A compiler working in the tables an earlier one left behind.
    pub(crate) fn with_scratch(
        table: &'a VarTable,
        kind: SemiringKind,
        options: CompileOptions,
        mut scratch: CompileScratch,
    ) -> Self {
        // Every entry point resets the arena before it loads an expression.
        scratch.work.rebind(kind);
        Compiler {
            table,
            kind,
            options,
            last: CompileStats::default(),
            totals: CompileStats::default(),
            scratch,
        }
    }

    /// Evaluate the arena the last compilation emitted, in this compiler's
    /// buffers.
    pub(crate) fn evaluate_emitted(&mut self) -> Result<(Val, Interp), DTreeError> {
        let CompileScratch { out, eval, .. } = &mut self.scratch;
        out.evaluate_in(self.table, self.kind, eval)
    }

    /// Give the tables up for the next compiler.
    pub(crate) fn into_scratch(self) -> CompileScratch {
        self.scratch
    }

    /// The counts of every compilation since the compiler was made, summed.
    pub fn stats(&self) -> &CompileStats {
        &self.totals
    }

    /// The counts of the last compilation alone: what a fresh compiler would
    /// report for it.
    pub fn last_stats(&self) -> &CompileStats {
        &self.last
    }

    /// Lengths of the variable-indexed scratch tables (occurrence counters,
    /// first-seen table of the independence splits).
    #[cfg(test)]
    fn scratch_lens(&self) -> (usize, usize) {
        (
            self.scratch.occ_counts.len(),
            self.scratch.partitioner.var_table_len(),
        )
    }

    /// Push a node whose children are already emitted. The node budget bounds
    /// the arena's length, so it is checked here, where the length changes.
    fn emit(&mut self, node: ArenaNode) -> Result<u32, BudgetExceeded> {
        let idx = self.scratch.out.push(node);
        self.check_budget()?;
        Ok(idx)
    }

    /// Push the `⊔` node over `var` whose branches are `pending[base..]`.
    fn emit_exclusive(&mut self, var: Var, base: usize) -> Result<u32, BudgetExceeded> {
        let CompileScratch { out, pending, .. } = &mut self.scratch;
        let idx = out.push_exclusive(var, pending, base);
        self.check_budget()?;
        Ok(idx)
    }

    fn check_budget(&self) -> Result<(), BudgetExceeded> {
        let nodes_produced = self.scratch.out.len();
        match self.options.node_budget {
            Some(budget) if nodes_produced > budget => Err(BudgetExceeded { nodes_produced }),
            _ => Ok(()),
        }
    }

    /// Compile a semiring expression into a d-tree of its own: the arena
    /// [`emit_semiring`](Self::emit_semiring) lends, copied. Expressions that
    /// differ only in the order of `+` / `·` operands or of semimodule terms
    /// compile to the same tree.
    pub fn compile_semiring(&mut self, expr: &SemiringExpr) -> Result<DTreeArena, BudgetExceeded> {
        self.emit_semiring(expr).cloned()
    }

    /// Compile a semimodule expression into a d-tree of its own (see
    /// [`compile_semiring`](Self::compile_semiring)).
    pub fn compile_semimodule(
        &mut self,
        expr: &SemimoduleExpr,
    ) -> Result<DTreeArena, BudgetExceeded> {
        self.emit_semimodule(expr).cloned()
    }

    /// Compile an interned semiring expression (see [`pvc_expr::intern`]) into a
    /// d-tree of its own (see [`compile_semiring`](Self::compile_semiring)).
    pub fn compile_semiring_id(
        &mut self,
        interner: &Interner,
        id: ExprId,
    ) -> Result<DTreeArena, BudgetExceeded> {
        self.emit_semiring_id(interner, id).cloned()
    }

    /// Compile a semiring expression into the post-order arena the evaluator
    /// runs on. The arena is the compiler's own, lent until its next
    /// compilation overwrites it: clone it to keep it.
    pub fn emit_semiring(&mut self, expr: &SemiringExpr) -> Result<&DTreeArena, BudgetExceeded> {
        self.scratch.work.reset();
        let root = self.scratch.work.arena_mut().intern(expr);
        self.emit_loaded_semiring(root)
    }

    /// Compile a semimodule expression into an arena (lent as by
    /// [`emit_semiring`](Self::emit_semiring)).
    pub fn emit_semimodule(
        &mut self,
        expr: &SemimoduleExpr,
    ) -> Result<&DTreeArena, BudgetExceeded> {
        self.scratch.work.reset();
        let root = self.scratch.work.arena_mut().intern_semimodule(expr);
        self.emit_loaded_semimodule(root)
    }

    /// Compile an interned semiring expression (see [`pvc_expr::intern`]) into
    /// an arena (lent as by [`emit_semiring`](Self::emit_semiring)). Its DAG is
    /// copied into the compiler's own arena first; `interner` is not read
    /// after that.
    pub fn emit_semiring_id(
        &mut self,
        interner: &Interner,
        id: ExprId,
    ) -> Result<&DTreeArena, BudgetExceeded> {
        let root = self.load_semiring(interner, id);
        self.emit_loaded_semiring(root)
    }

    /// The half of [`emit_semiring_id`](Self::emit_semiring_id) that reads
    /// `interner`, for callers that hold it under a lock.
    pub(crate) fn load_semiring(&mut self, interner: &Interner, id: ExprId) -> ExprId {
        self.scratch.work.reset();
        self.scratch.work.import(interner, id)
    }

    /// As [`load_semiring`](Self::load_semiring), for an interned semimodule
    /// expression.
    pub(crate) fn load_semimodule(&mut self, interner: &Interner, id: AggExprId) -> AggExprId {
        self.scratch.work.reset();
        self.scratch.work.import_agg(interner, id)
    }

    /// Compile what [`load_semiring`](Self::load_semiring) returned.
    pub(crate) fn emit_loaded_semiring(
        &mut self,
        root: ExprId,
    ) -> Result<&DTreeArena, BudgetExceeded> {
        self.begin_emission();
        let root = self.scratch.work.simplify(root);
        let emitted = self.compile_semiring_inner(root);
        self.finish_emission(emitted)
    }

    /// Compile what [`load_semimodule`](Self::load_semimodule) returned.
    pub(crate) fn emit_loaded_semimodule(
        &mut self,
        root: AggExprId,
    ) -> Result<&DTreeArena, BudgetExceeded> {
        self.begin_emission();
        let root = self.scratch.work.simplify_agg(root);
        let emitted = self.compile_agg(root);
        self.finish_emission(emitted)
    }

    fn begin_emission(&mut self) {
        self.last = CompileStats::default();
        self.scratch.out.clear();
        // An aborted compilation leaves its open ⊔ nodes' entries behind.
        self.scratch.pending.clear();
    }

    fn finish_emission(
        &mut self,
        emitted: Result<u32, BudgetExceeded>,
    ) -> Result<&DTreeArena, BudgetExceeded> {
        // The arena counts from its reset, which began this compilation.
        let counts = self.scratch.work.counts();
        self.last.absorbed_sums = counts.absorbed_sums;
        self.last.absorbed_terms = counts.absorbed_terms;
        self.last.merged_terms = counts.merged_terms;
        self.last.dominated_terms = counts.dominated_terms;
        self.last.rebuilt_nodes = counts.rebuilt_nodes;
        self.totals.add(&self.last);
        let root = emitted?;
        let out = &self.scratch.out;
        debug_assert_eq!(root as usize + 1, out.len(), "the root is emitted last");
        crate::obs::core_metrics()
            .arena_nodes
            .record(out.len() as u64);
        Ok(out)
    }

    /// Compile the semiring expression `id`.
    fn compile_semiring_inner(&mut self, id: ExprId) -> Result<u32, BudgetExceeded> {
        let arena = self.scratch.work.arena();
        match arena.node(id) {
            InternedExpr::Const(c) => self.emit(ArenaNode::SConst(c)),
            InternedExpr::Var(v) => self.emit(ArenaNode::VarLeaf(v)),
            InternedExpr::Add(children) => {
                let disjoint = arena.children_disjoint(id);
                let list = filled(&mut self.scratch.id_bufs, children);
                let sum = self.compile_sum(&list, disjoint)?;
                recycle(&mut self.scratch.id_bufs, list);
                Ok(sum)
            }
            InternedExpr::Mul(children) => {
                let disjoint = arena.children_disjoint(id);
                let list = filled(&mut self.scratch.id_bufs, children);
                let product = self.compile_product(&list, disjoint)?;
                recycle(&mut self.scratch.id_bufs, list);
                Ok(product)
            }
            InternedExpr::CmpSS(theta, lhs, rhs) => {
                if self.options.independence
                    && sorted_disjoint(arena.var_set(lhs), arena.var_set(rhs))
                {
                    self.last.comparison_splits += 1;
                    let left = self.compile_semiring_inner(lhs)?;
                    let right = self.compile_semiring_inner(rhs)?;
                    self.emit(ArenaNode::Cmp { theta, left, right })
                } else {
                    self.shannon_semiring(id)
                }
            }
            InternedExpr::CmpMM(theta, lhs, rhs) => {
                let work = &self.scratch.work;
                let one_sided = match (work.agg_const(lhs), work.agg_const(rhs)) {
                    (_, Some(bound)) => Some((lhs, theta, bound)),
                    (Some(bound), None) => Some((rhs, theta.flip(), bound)),
                    (None, None) => None,
                };
                match one_sided {
                    Some((alpha, theta, bound)) if self.options.pruning => {
                        let (node, disjoint) = (arena.agg_node(alpha), arena.terms_disjoint(alpha));
                        let mut terms = filled(&mut self.scratch.term_bufs, node.terms);
                        let condition =
                            self.compile_condition(node.op, theta, bound, &mut terms, disjoint)?;
                        recycle(&mut self.scratch.term_bufs, terms);
                        Ok(condition)
                    }
                    _ if self.options.independence
                        && sorted_disjoint(arena.agg_var_set(lhs), arena.agg_var_set(rhs)) =>
                    {
                        self.last.comparison_splits += 1;
                        let left = self.compile_agg(lhs)?;
                        let right = self.compile_agg(rhs)?;
                        self.emit(ArenaNode::Cmp { theta, left, right })
                    }
                    _ => self.shannon_semiring(id),
                }
            }
        }
    }

    /// Compile the conditional `[Σ_op terms θ bound]` (§5), `terms` normalised
    /// ([`ResidualArena::normalize_terms`]); `disjoint` as for
    /// [`compile_terms`](Self::compile_terms), and kept by every step here,
    /// since each keeps a subset of the terms. The rules of [`verdict`] prune
    /// it first: a decided conditional is a constant leaf, counted in
    /// [`CompileStats::pruned_conditionals`]. Where rules 2–4 apply to the kept
    /// terms, `α`'s distribution is compiled by them under a `[θ]` node;
    /// otherwise the `⊔` that `α`'s own compilation would begin with expands
    /// the *conditional*, and every branch is pruned again here. Before that
    /// choice, a ground list is a constant leaf, and under SUM / COUNT the
    /// constant term a branch folds moves into the bound, so it does not count
    /// as a component of its own. Without independence there is no `[θ]` node:
    /// the conditional is always expanded.
    fn compile_condition(
        &mut self,
        op: AggOp,
        theta: CmpOp,
        bound: MonoidValue,
        terms: &mut Vec<AggTerm>,
        disjoint: bool,
    ) -> Result<u32, BudgetExceeded> {
        let arena = self.scratch.work.arena();
        let view = |&(coeff, value): &AggTerm| {
            let guaranteed = arena.as_const(coeff).is_some_and(|c| !c.is_zero());
            (guaranteed, value)
        };
        match verdict(self.kind, op, theta, bound, terms, view) {
            Verdict::AlwaysTrue => return self.pruned_to(true),
            Verdict::AlwaysFalse => return self.pruned_to(false),
            Verdict::KeepAll => {}
            Verdict::Keep(keep) => terms.retain(|(_, value)| keep.eval(value, &bound)),
        }
        // Rule 1: a ground α decides the comparison.
        if let Some(value) = self.ground(op, terms) {
            let value = self.truth(theta.eval(&value, &bound));
            return self.emit(ArenaNode::SConst(value));
        }
        // Under SUM / COUNT the constant term moves to the bound,
        // [c + α' θ m] = [α' θ m − c], so it does not split α' off.
        let bound = match self.constant_shift(op, bound, terms) {
            Some((at, shifted)) => {
                terms.remove(at);
                shifted
            }
            None => bound,
        };
        let (hint, var) = self.survey(terms, disjoint);
        if self.options.independence {
            if let Some(left) = self.decompose_terms(op, terms, hint)? {
                self.last.comparison_splits += 1;
                let right = self.emit(ArenaNode::MConst(bound))?;
                return self.emit(ArenaNode::Cmp { theta, left, right });
            }
        }
        self.shannon_expand(op, terms, var, |compiler, residual| {
            compiler.compile_condition(op, theta, bound, residual, false)
        })
    }

    /// A conditional the rules decided: `1_S` or `0_S`.
    fn pruned_to(&mut self, holds: bool) -> Result<u32, BudgetExceeded> {
        self.last.pruned_conditionals += 1;
        self.emit(ArenaNode::SConst(self.truth(holds)))
    }

    fn truth(&self, holds: bool) -> SemiringValue {
        if holds {
            self.kind.one()
        } else {
            self.kind.zero()
        }
    }

    /// `Σ_op terms` if every coefficient is a constant (rule 1).
    fn ground(&self, op: AggOp, terms: &[AggTerm]) -> Option<MonoidValue> {
        let arena = self.scratch.work.arena();
        terms.iter().try_fold(op.identity(), |acc, (coeff, value)| {
            let c = arena.as_const(*coeff)?;
            Some(op.combine(&acc, &op.scalar_action(&c, value)))
        })
    }

    /// Where the constant term `c` of a SUM / COUNT term list is (a
    /// normalised list has at most one) and the bound `m − c` it leaves for
    /// the other terms, if both are finite.
    fn constant_shift(
        &self,
        op: AggOp,
        bound: MonoidValue,
        terms: &[AggTerm],
    ) -> Option<(usize, MonoidValue)> {
        if !matches!(op, AggOp::Sum | AggOp::Count) {
            return None;
        }
        let arena = self.scratch.work.arena();
        let (at, c) = terms.iter().enumerate().find_map(|(at, (coeff, value))| {
            let c = arena.as_const(*coeff)?;
            Some((at, op.scalar_action(&c, value)))
        })?;
        match (bound, c) {
            (MonoidValue::Fin(m), MonoidValue::Fin(c)) => {
                Some((at, MonoidValue::Fin(m.checked_sub(c)?)))
            }
            _ => None,
        }
    }

    /// Rule 2 + rule 3 on an n-ary semiring sum; `disjoint` if the children
    /// are known to be pairwise variable-disjoint (see
    /// [`compile_components`](Self::compile_components)).
    fn compile_sum(&mut self, children: &[ExprId], disjoint: bool) -> Result<u32, BudgetExceeded> {
        if children.is_empty() {
            return self.emit(ArenaNode::SConst(self.kind.zero()));
        }
        if let [only] = children {
            return self.compile_semiring_inner(*only);
        }
        if self.options.independence {
            let split = self.compile_components(
                children,
                Hint::disjoint_if(disjoint),
                |c| *c,
                |compiler| &mut compiler.scratch.id_bufs,
                |compiler, group| compiler.compile_sum(group, false),
                |left, right| ArenaNode::SumS { left, right },
            )?;
            if let Some((groups, sum)) = split {
                self.last.independent_sums += groups - 1;
                return Ok(sum);
            }
        }
        if self.options.factoring {
            let work = &mut self.scratch.work;
            let common = common_factor_vars(work.arena(), children.iter().copied());
            if !common.is_empty() {
                let mut quotients = self.scratch.id_bufs.pop().unwrap_or_default();
                for &child in children {
                    let quotient = divide_by_vars(work.arena_mut(), child, &common);
                    let one = InternedExpr::Const(self.kind.one());
                    quotients.push(quotient.unwrap_or_else(|| work.arena_mut().intern_node(one)));
                }
                // The ⊙ node requires independent children: factoring is only sound
                // when the quotients no longer mention the extracted variables (they
                // still would if a variable occurred twice within one summand).
                let arena = work.arena();
                let disjoint = quotients
                    .iter()
                    .all(|q| sorted_disjoint(arena.var_set(*q), common.as_slice()));
                let quotient = work.arena_mut().intern_add(&quotients);
                recycle(&mut self.scratch.id_bufs, quotients);
                if disjoint {
                    self.last.factorings += 1;
                    self.last.independent_products += 1;
                    // Folding the quotient sum lets a unit quotient absorb it in
                    // `B`: x + x·y = x·(1 + y) = x.
                    let quotient = self.scratch.work.simplify(quotient);
                    let left = self.compile_var_product(&common)?;
                    let right = self.compile_semiring_inner(quotient)?;
                    return self.emit(ArenaNode::Prod { left, right });
                }
            }
        }
        let sum = self.scratch.work.arena_mut().intern_add(children);
        self.shannon_semiring(sum)
    }

    /// Independent-product split on an n-ary semiring product (`disjoint` as
    /// for [`compile_sum`](Self::compile_sum)).
    fn compile_product(
        &mut self,
        children: &[ExprId],
        disjoint: bool,
    ) -> Result<u32, BudgetExceeded> {
        if children.is_empty() {
            return self.emit(ArenaNode::SConst(self.kind.one()));
        }
        if let [only] = children {
            return self.compile_semiring_inner(*only);
        }
        if self.options.independence {
            let split = self.compile_components(
                children,
                Hint::disjoint_if(disjoint),
                |c| *c,
                |compiler| &mut compiler.scratch.id_bufs,
                |compiler, group| compiler.compile_product(group, false),
                |left, right| ArenaNode::Prod { left, right },
            )?;
            if let Some((groups, product)) = split {
                self.last.independent_products += groups - 1;
                return Ok(product);
            }
        }
        let product = self.scratch.work.arena_mut().intern_mul(children);
        self.shannon_semiring(product)
    }

    /// Compile a product of distinct variables (the common factor pulled out of a
    /// sum) into a left-deep `⊙` chain. Distinct variables are pairwise
    /// independent by definition.
    fn compile_var_product(&mut self, vars: &VarSet) -> Result<u32, BudgetExceeded> {
        self.last.independent_products += vars.len().saturating_sub(1);
        let mut chain = None;
        for var in vars.iter() {
            let right = self.emit(ArenaNode::VarLeaf(var))?;
            chain = Some(match chain {
                None => right,
                Some(left) => self.emit(ArenaNode::Prod { left, right })?,
            });
        }
        match chain {
            Some(product) => Ok(product),
            None => self.emit(ArenaNode::SConst(self.kind.one())),
        }
    }

    /// Compile the semimodule expression `id`.
    fn compile_agg(&mut self, id: AggExprId) -> Result<u32, BudgetExceeded> {
        let arena = self.scratch.work.arena();
        let (node, disjoint) = (arena.agg_node(id), arena.terms_disjoint(id));
        let terms = filled(&mut self.scratch.term_bufs, node.terms);
        let compiled = self.compile_terms(node.op, &terms, disjoint)?;
        recycle(&mut self.scratch.term_bufs, terms);
        Ok(compiled)
    }

    /// Compile the semimodule expression `Σ_op terms`. The list is normalised
    /// ([`ResidualArena::normalize_terms`]): at most one term has a constant
    /// coefficient, and no two terms share one. `disjoint` if the coefficients
    /// are known to be pairwise variable-disjoint.
    fn compile_terms(
        &mut self,
        op: AggOp,
        terms: &[AggTerm],
        disjoint: bool,
    ) -> Result<u32, BudgetExceeded> {
        // Rule 1: ground expressions fold to a monoid constant.
        if let Some(c) = self.ground(op, terms) {
            return self.emit(ArenaNode::MConst(c));
        }
        let (hint, var) = self.survey(terms, disjoint);
        if let Some(root) = self.decompose_terms(op, terms, hint)? {
            return Ok(root);
        }
        // Rule 6: mutually exclusive case split on the most frequent variable.
        self.shannon_expand(op, terms, var, |compiler, residual| {
            compiler.compile_terms(op, residual, false)
        })
    }

    /// What rules 2–6 need to know of the non-ground list `terms` before
    /// rule 2: what the partitioner may take as known, and rule 6's variable
    /// where the tally was made. One tally serves both — its widest
    /// coefficient and its count of distinct variables are the connectivity
    /// certificate — so it is made wherever rule 2 might not split: not for a
    /// list the interner's `disjoint` bit already splits, a single term (rule
    /// 4's) or a list with a variable-free term, which is a component of its
    /// own.
    fn survey(&mut self, terms: &[AggTerm], disjoint: bool) -> (Hint, Option<Var>) {
        if terms.len() == 1 {
            return (Hint::Unknown, None);
        }
        if self.options.independence {
            let arena = self.scratch.work.arena();
            if disjoint || terms.iter().any(|t| arena.var_set(t.0).is_empty()) {
                return (Hint::disjoint_if(disjoint), None);
            }
        }
        let tally = self.tally(terms.iter().map(|t| t.0));
        let hint = if tally.connected {
            Hint::Connected
        } else {
            Hint::Unknown
        };
        (hint, tally.var)
    }

    /// Rules 2–4 on the non-ground list `Σ_op terms` (`hint` from
    /// [`survey`](Self::survey)): the root of what they compile, or `None`,
    /// having emitted nothing, if none applies and rule 6 is next.
    fn decompose_terms(
        &mut self,
        op: AggOp,
        terms: &[AggTerm],
        hint: Hint,
    ) -> Result<Option<u32>, BudgetExceeded> {
        // Rule 2: split the +op sum by independence of the terms' coefficients.
        if self.options.independence && terms.len() > 1 {
            let split = self.compile_components(
                terms,
                hint,
                |t| t.0,
                |compiler| &mut compiler.scratch.term_bufs,
                |compiler, group| compiler.compile_terms(op, group, false),
                |left, right| ArenaNode::SumM { op, left, right },
            )?;
            if let Some((groups, sum)) = split {
                self.last.independent_sums += groups - 1;
                return Ok(Some(sum));
            }
        }
        // Single term Φ ⊗ m: rule 4 (the coefficient and the constant are trivially
        // independent; a constant coefficient was rule 1's).
        if let [(coeff, value)] = terms {
            self.last.tensor_splits += 1;
            let scalar = self.compile_semiring_inner(*coeff)?;
            let value = self.emit(ArenaNode::MConst(*value))?;
            return self.emit(ArenaNode::Tensor { op, scalar, value }).map(Some);
        }
        // Rule 3/4 combined: pull a semiring factor common to every term out of the
        // sum, producing Φ ⊗ (Σ quotients).
        if self.options.factoring {
            let work = &mut self.scratch.work;
            let common = common_factor_vars(work.arena(), terms.iter().map(|t| t.0));
            if !common.is_empty() {
                let mut quotient = self.scratch.term_bufs.pop().unwrap_or_default();
                for &(coeff, value) in terms {
                    let q = divide_by_vars(work.arena_mut(), coeff, &common);
                    let one = InternedExpr::Const(self.kind.one());
                    quotient.push((
                        q.unwrap_or_else(|| work.arena_mut().intern_node(one)),
                        value,
                    ));
                }
                // As for sums, the ⊗ node requires the scalar and the residual
                // semimodule expression to be variable-disjoint.
                let arena = work.arena();
                let disjoint = quotient
                    .iter()
                    .all(|(q, _)| sorted_disjoint(arena.var_set(*q), common.as_slice()));
                if disjoint {
                    self.last.factorings += 1;
                    self.last.tensor_splits += 1;
                    // A coefficient that was the common factor itself is the
                    // constant 1_S now.
                    work.normalize_terms(op, &mut quotient, 0);
                    let scalar = self.compile_var_product(&common)?;
                    let value = self.compile_terms(op, &quotient, false)?;
                    recycle(&mut self.scratch.term_bufs, quotient);
                    return self.emit(ArenaNode::Tensor { op, scalar, value }).map(Some);
                }
                recycle(&mut self.scratch.term_bufs, quotient);
            }
        }
        Ok(None)
    }

    /// Split `items` — `coeff` naming the expression an item's variables come
    /// from, `pool` the buffer pool for lists of such items — into independence
    /// components of the variable co-occurrence graph (components by smallest
    /// member, members in order), compile each with `compile` and `combine`
    /// them into a left-deep chain, each link emitted as soon as its right
    /// operand is. Returns the number of components with the chain's root, or
    /// `None` if everything is one component. `hint` is what is known of the
    /// partition already — the interner's bit when `items` are a node's own
    /// children or terms, the connectivity certificate of a tally — and spares
    /// the partitioner its union–find ([`Partitioner::split`]).
    fn compile_components<T: Copy>(
        &mut self,
        items: &[T],
        hint: Hint,
        coeff: impl Fn(&T) -> ExprId,
        pool: fn(&mut Self) -> &mut Vec<Vec<T>>,
        mut compile: impl FnMut(&mut Self, &[T]) -> Result<u32, BudgetExceeded>,
        combine: impl Fn(u32, u32) -> ArenaNode,
    ) -> Result<Option<(usize, u32)>, BudgetExceeded> {
        // Taken first: `pool` wants all of `self`, the partition borrows a part
        // of it.
        let mut groups = pool(self).pop().unwrap_or_default();
        let arena = self.scratch.work.arena();
        let components = self
            .scratch
            .partitioner
            .split(items.len(), hint, |i| arena.var_set(coeff(&items[i])));
        let count = components.len();
        if count <= 1 {
            pool(self).push(groups);
            return Ok(None);
        }
        groups.extend(components.members().iter().map(|&i| items[i]));
        let mut ends = self.scratch.end_bufs.pop().unwrap_or_default();
        ends.extend_from_slice(components.ends());
        let mut chain = None;
        let mut start = 0;
        for &end in &ends {
            let right = compile(self, &groups[start..end])?;
            chain = Some(match chain {
                None => right,
                Some(left) => self.emit(combine(left, right))?,
            });
            start = end;
        }
        recycle(pool(self), groups);
        recycle(&mut self.scratch.end_bufs, ends);
        Ok(chain.map(|root| (count, root)))
    }

    /// Tally the occurrences of each variable in the given expressions: the
    /// one with the most (ties broken by smallest id, for determinism) is rule
    /// 6's — the heuristic used in the paper's implementation — and the list
    /// is certified connected if one expression mentions every variable the
    /// tally met and none mentions none.
    ///
    /// Each expression's occurrences come from the arena's per-id memo; they are
    /// tallied in a reusable id-indexed counter vector of which only the touched
    /// entries are reset.
    fn tally(&mut self, exprs: impl Iterator<Item = ExprId>) -> Tally {
        let CompileScratch {
            work,
            occ_counts,
            touched,
            ..
        } = &mut self.scratch;
        touched.clear();
        let (mut widest, mut variable_free) = (0, false);
        for id in exprs {
            let occurrences = work.occurrences(id);
            widest = widest.max(occurrences.len());
            variable_free |= occurrences.is_empty();
            for &(v, n) in occurrences {
                let slot = v.0 as usize;
                if slot >= occ_counts.len() {
                    occ_counts.resize(slot + 1, 0);
                }
                if occ_counts[slot] == 0 {
                    touched.push(v);
                }
                occ_counts[slot] += n;
            }
        }
        let var = touched
            .iter()
            .copied()
            .max_by_key(|v| (occ_counts[v.0 as usize], std::cmp::Reverse(*v)));
        for v in touched.iter() {
            occ_counts[v.0 as usize] = 0;
        }
        Tally {
            var,
            connected: !variable_free && widest == touched.len(),
        }
    }

    fn shannon_semiring(&mut self, id: ExprId) -> Result<u32, BudgetExceeded> {
        let var = self.tally(std::iter::once(id)).var;
        let var = var.expect("expression with no variables reached Shannon expansion");
        self.last.exclusive_expansions += 1;
        let table = self.table;
        let base = self.scratch.pending.len();
        for (value, _) in table.dist(var).iter() {
            self.scratch.work.begin_branch(var, *value);
            let residual = self.scratch.work.substitute(id);
            let child = self.compile_semiring_inner(residual)?;
            self.scratch.pending.push((*value, child));
        }
        self.emit_exclusive(var, base)
    }

    /// Rule 6 on the term list `Σ_op terms`: a `⊔` over the most frequent
    /// variable — `var`, if [`survey`](Self::survey) tallied it — whose
    /// branches `compile` each normalised residual list.
    fn shannon_expand(
        &mut self,
        op: AggOp,
        terms: &[AggTerm],
        var: Option<Var>,
        mut compile: impl FnMut(&mut Self, &mut Vec<AggTerm>) -> Result<u32, BudgetExceeded>,
    ) -> Result<u32, BudgetExceeded> {
        let var = var
            .or_else(|| self.tally(terms.iter().map(|t| t.0)).var)
            .expect("expression with no variables reached Shannon expansion");
        self.last.exclusive_expansions += 1;
        let table = self.table;
        let base = self.scratch.pending.len();
        for (value, _) in table.dist(var).iter() {
            let work = &mut self.scratch.work;
            work.begin_branch(var, *value);
            let mut residual = self.scratch.term_bufs.pop().unwrap_or_default();
            for &(coeff, m) in terms {
                residual.push((work.substitute(coeff), m));
            }
            work.normalize_terms(op, &mut residual, 0);
            let child = compile(self, &mut residual)?;
            recycle(&mut self.scratch.term_bufs, residual);
            self.scratch.pending.push((*value, child));
        }
        self.emit_exclusive(var, base)
    }
}

/// What [`Compiler::tally`] finds.
struct Tally {
    /// The variable with the most occurrences; `None` for a ground list.
    var: Option<Var>,
    /// The connectivity certificate: one component, without a union–find.
    connected: bool,
}

/// A list from the pool (or a new one) holding a copy of `items`.
fn filled<T: Copy>(pool: &mut Vec<Vec<T>>, items: &[T]) -> Vec<T> {
    let mut list = pool.pop().unwrap_or_default();
    list.extend_from_slice(items);
    list
}

/// Empty `list` and put it back for the next taker.
fn recycle<T>(pool: &mut Vec<Vec<T>>, mut list: Vec<T>) {
    list.clear();
    pool.push(list);
}

#[cfg(test)]
mod tests {
    use super::*;
    use pvc_algebra::{AggOp, CmpOp, MonoidValue::Fin, SemiringValue};
    use pvc_expr::oracle;

    fn v(x: Var) -> SemiringExpr {
        SemiringExpr::Var(x)
    }

    #[test]
    fn read_once_expression_compiles_without_case_splits() {
        // x1(y11 + y12) + x2(y21 + y22): hierarchical provenance, Example 14.
        let mut vt = VarTable::new();
        let x1 = vt.boolean("x1", 0.5);
        let y11 = vt.boolean("y11", 0.5);
        let y12 = vt.boolean("y12", 0.5);
        let x2 = vt.boolean("x2", 0.5);
        let y21 = vt.boolean("y21", 0.5);
        let y22 = vt.boolean("y22", 0.5);
        let expr = SemiringExpr::sum(vec![
            v(x1) * v(y11),
            v(x1) * v(y12),
            v(x2) * v(y21),
            v(x2) * v(y22),
        ]);
        let mut compiler = Compiler::new(&vt, SemiringKind::Bool);
        let tree = compiler.compile_semiring(&expr).unwrap();
        assert_eq!(tree.num_exclusive_nodes(), 0, "read-once needs no ⊔ nodes");
        assert!(compiler.stats().factorings >= 2);
        assert!(compiler.stats().independent_sums >= 1);
        // Probability agrees with the oracle.
        let dist = tree.semiring_distribution(&vt, SemiringKind::Bool).unwrap();
        let oracle_dist = oracle::semiring_dist_by_enumeration(&expr, &vt, SemiringKind::Bool);
        assert!(dist.approx_eq(&oracle_dist, 1e-9));
    }

    #[test]
    fn shared_variable_forces_case_split() {
        // a(b + c) + c·d: c occurs in both summands (Figure 5 shape).
        let mut vt = VarTable::new();
        let a = vt.boolean("a", 0.4);
        let b = vt.boolean("b", 0.3);
        let c = vt.boolean("c", 0.6);
        let d = vt.boolean("d", 0.7);
        let expr = SemiringExpr::sum(vec![v(a) * (v(b) + v(c)), v(c) * v(d)]);
        let mut compiler = Compiler::new(&vt, SemiringKind::Bool);
        let tree = compiler.compile_semiring(&expr).unwrap();
        assert!(tree.num_exclusive_nodes() >= 1);
        let dist = tree.semiring_distribution(&vt, SemiringKind::Bool).unwrap();
        let oracle_dist = oracle::semiring_dist_by_enumeration(&expr, &vt, SemiringKind::Bool);
        assert!(dist.approx_eq(&oracle_dist, 1e-9));
    }

    #[test]
    fn figure5_semimodule_example() {
        // α = a(b + c) ⊗ 10 + c ⊗ 20 over N⊗N with a,b,c valued in {1,2}
        // (Example 12 / Figure 5 of the paper).
        let mut vt = VarTable::new();
        let pa = 0.3;
        let pb = 0.6;
        let pc = 0.8;
        let a = vt.natural("a", &[(1, pa), (2, 1.0 - pa)]);
        let b = vt.natural("b", &[(1, pb), (2, 1.0 - pb)]);
        let c = vt.natural("c", &[(1, pc), (2, 1.0 - pc)]);
        let alpha = SemimoduleExpr::from_terms(
            AggOp::Sum,
            vec![(v(a) * (v(b) + v(c)), Fin(10)), (v(c), Fin(20))],
        );
        let mut compiler = Compiler::new(&vt, SemiringKind::Nat);
        let tree = compiler.compile_semimodule(&alpha).unwrap();
        // c is shared, so exactly one ⊔ node on c is expected at the top.
        assert!(matches!(tree.root(), ArenaNode::Exclusive { var, .. } if var == c));
        let dist = tree.monoid_distribution(&vt, SemiringKind::Nat).unwrap();
        let oracle_dist = oracle::semimodule_dist_by_enumeration(&alpha, &vt, SemiringKind::Nat);
        assert!(dist.approx_eq(&oracle_dist, 1e-9));
        // Example 12 closed forms, e.g. P[40] = pa·pb·pc and P[80] = p̄a·p̄b·pc + pa·p̄b·p̄c.
        assert!((dist.prob(&Fin(40)) - pa * pb * pc).abs() < 1e-9);
        assert!(
            (dist.prob(&Fin(80)) - ((1.0 - pa) * (1.0 - pb) * pc + pa * (1.0 - pb) * (1.0 - pc)))
                .abs()
                < 1e-9
        );
    }

    #[test]
    fn figure6_gap_annotation() {
        // x4y41(z1+z5)⊗15 +max x4y43z3⊗60 +max x5y51(z1+z5)⊗10 over B⊗N (Figure 6).
        let mut vt = VarTable::new();
        let x4 = vt.boolean("x4", 0.5);
        let x5 = vt.boolean("x5", 0.5);
        let y41 = vt.boolean("y41", 0.5);
        let y43 = vt.boolean("y43", 0.5);
        let y51 = vt.boolean("y51", 0.5);
        let z1 = vt.boolean("z1", 0.5);
        let z3 = vt.boolean("z3", 0.5);
        let z5 = vt.boolean("z5", 0.5);
        let alpha = SemimoduleExpr::from_terms(
            AggOp::Max,
            vec![
                (v(x4) * v(y41) * (v(z1) + v(z5)), Fin(15)),
                (v(x4) * v(y43) * v(z3), Fin(60)),
                (v(x5) * v(y51) * (v(z1) + v(z5)), Fin(10)),
            ],
        );
        let mut compiler = Compiler::new(&vt, SemiringKind::Bool);
        let tree = compiler.compile_semimodule(&alpha).unwrap();
        let dist = tree.monoid_distribution(&vt, SemiringKind::Bool).unwrap();
        let oracle_dist = oracle::semimodule_dist_by_enumeration(&alpha, &vt, SemiringKind::Bool);
        assert!(dist.approx_eq(&oracle_dist, 1e-9));
        // The d-tree is small: the paper's Figure 6 compiles with a single ⊔ on x4 or
        // a similarly shared variable.
        assert!(tree.num_exclusive_nodes() <= 3);
    }

    #[test]
    fn conditional_with_independent_sides_splits() {
        let mut vt = VarTable::new();
        let a = vt.boolean("a", 0.5);
        let b = vt.boolean("b", 0.5);
        let lhs = SemimoduleExpr::tensor(AggOp::Min, v(a), Fin(10));
        let rhs = SemimoduleExpr::tensor(AggOp::Min, v(b), Fin(20));
        let expr = SemiringExpr::cmp_mm(CmpOp::Le, lhs, rhs);
        let mut compiler = Compiler::new(&vt, SemiringKind::Bool);
        let tree = compiler.compile_semiring(&expr).unwrap();
        assert_eq!(compiler.stats().comparison_splits, 1);
        let dist = tree.semiring_distribution(&vt, SemiringKind::Bool).unwrap();
        let oracle_dist = oracle::semiring_dist_by_enumeration(&expr, &vt, SemiringKind::Bool);
        assert!(dist.approx_eq(&oracle_dist, 1e-9));
    }

    #[test]
    fn conditional_with_shared_variables_uses_case_split() {
        let mut vt = VarTable::new();
        let a = vt.boolean("a", 0.5);
        let b = vt.boolean("b", 0.5);
        let lhs = SemimoduleExpr::from_terms(AggOp::Sum, vec![(v(a), Fin(10)), (v(b), Fin(5))]);
        let rhs = SemimoduleExpr::from_terms(AggOp::Sum, vec![(v(a), Fin(7)), (v(b), Fin(7))]);
        let expr = SemiringExpr::cmp_mm(CmpOp::Ge, lhs, rhs);
        let mut compiler = Compiler::new(&vt, SemiringKind::Bool);
        let tree = compiler.compile_semiring(&expr).unwrap();
        let dist = tree.semiring_distribution(&vt, SemiringKind::Bool).unwrap();
        let oracle_dist = oracle::semiring_dist_by_enumeration(&expr, &vt, SemiringKind::Bool);
        assert!(dist.approx_eq(&oracle_dist, 1e-9));
        assert!(tree.num_exclusive_nodes() >= 1);
    }

    #[test]
    fn shannon_only_ablation_agrees_but_is_larger() {
        let mut vt = VarTable::new();
        let vars: Vec<Var> = (0..6).map(|i| vt.boolean(format!("x{i}"), 0.5)).collect();
        let expr = SemiringExpr::sum(vec![
            v(vars[0]) * v(vars[1]),
            v(vars[2]) * v(vars[3]),
            v(vars[4]) * v(vars[5]),
        ]);
        let full = Compiler::new(&vt, SemiringKind::Bool)
            .compile_semiring(&expr)
            .unwrap();
        let shannon =
            Compiler::with_options(&vt, SemiringKind::Bool, CompileOptions::shannon_only())
                .compile_semiring(&expr)
                .unwrap();
        let d1 = full.semiring_distribution(&vt, SemiringKind::Bool).unwrap();
        let d2 = shannon
            .semiring_distribution(&vt, SemiringKind::Bool)
            .unwrap();
        assert!(d1.approx_eq(&d2, 1e-9));
        assert!(shannon.num_nodes() > full.num_nodes());
        assert_eq!(full.num_exclusive_nodes(), 0);
        assert!(shannon.num_exclusive_nodes() > 0);
    }

    #[test]
    fn a_connected_condition_is_pruned_in_its_branches() {
        // [x·y⊗10 +min y·z⊗12 +min x·z⊗14 ≤ 15]: one component, no common
        // factor, every term kept. The ⊔ expands the conditional; under x ← ⊤
        // and y ← ⊤ the constant term 10 decides it.
        let mut vt = VarTable::new();
        let [x, y, z] = ["x", "y", "z"].map(|n| vt.boolean(n, 0.4));
        let alpha = SemimoduleExpr::from_terms(
            AggOp::Min,
            vec![
                (v(x) * v(y), Fin(10)),
                (v(y) * v(z), Fin(12)),
                (v(x) * v(z), Fin(14)),
            ],
        );
        let condition = SemiringExpr::cmp_mm(
            CmpOp::Le,
            alpha,
            SemimoduleExpr::constant(AggOp::Min, Fin(15)),
        );
        let mut compiler = Compiler::new(&vt, SemiringKind::Bool);
        let tree = compiler.compile_semiring(&condition).unwrap();
        assert!(compiler.stats().pruned_conditionals >= 1);
        assert!(matches!(tree.root(), ArenaNode::Exclusive { var, .. } if var == x));
        // The branches that keep one term compare its distribution.
        assert_eq!(
            tree.to_string(),
            "⊔v0(v0←⊥: [((v2 ⊙ v1) ⊗MIN 12) ≤ 15] | \
             v0←⊤: ⊔v1(v1←⊥: [(v2 ⊗MIN 14) ≤ 15] | v1←⊤: ⊤))"
        );
        let expected = oracle::confidence_by_enumeration(&condition, &vt, SemiringKind::Bool);
        assert!((confidence_of_tree(&tree, &vt) - expected).abs() < 1e-12);
    }

    #[test]
    fn a_condition_whose_terms_split_in_a_branch_compiles_the_aggregate() {
        // [a·b⊗10 +min b·c⊗11 +min c·d⊗12 ≥ 20]: under b ← ⊤ the terms a⊗10 and
        // c⊗11 +min c·d⊗12 share no variable, so that branch is a [θ] over
        // their ⊕MIN.
        let mut vt = VarTable::new();
        let [a, b, c, d] = ["a", "b", "c", "d"].map(|n| vt.boolean(n, 0.4));
        let alpha = SemimoduleExpr::from_terms(
            AggOp::Min,
            vec![
                (v(a) * v(b), Fin(10)),
                (v(b) * v(c), Fin(11)),
                (v(c) * v(d), Fin(12)),
            ],
        );
        let condition = SemiringExpr::cmp_mm(
            CmpOp::Ge,
            alpha,
            SemimoduleExpr::constant(AggOp::Min, Fin(20)),
        );
        let mut compiler = Compiler::new(&vt, SemiringKind::Bool);
        let tree = compiler.compile_semiring(&condition).unwrap();
        assert!(matches!(tree.root(), ArenaNode::Exclusive { var, .. } if var == b));
        // The ⊤ branch factors c out of c⊗11 +min c·d⊗12 as well.
        assert_eq!(
            tree.to_string(),
            "⊔v1(v1←⊥: [((v2 ⊙ v3) ⊗MIN 12) ≥ 20] | \
             v1←⊤: [((v2 ⊗MIN 11) ⊕MIN (v0 ⊗MIN 10)) ≥ 20])"
        );
        assert_eq!(compiler.stats().comparison_splits, 2);
        let expected = oracle::confidence_by_enumeration(&condition, &vt, SemiringKind::Bool);
        assert!((confidence_of_tree(&tree, &vt) - expected).abs() < 1e-12);
    }

    #[test]
    fn a_sum_condition_moves_its_constant_term_to_the_bound() {
        // [x⊗2 +sum x·y⊗3 +sum y·z⊗4 +sum x·z⊗5 ≥ 9]: under x ← ⊤ the constant
        // 2 leaves [y⊗3 + y·z⊗4 + z⊗5 ≥ 7], still one component, so the
        // conditional is expanded again rather than compiled as a sum.
        let mut vt = VarTable::new();
        let [x, y, z] = ["x", "y", "z"].map(|n| vt.boolean(n, 0.4));
        let alpha = SemimoduleExpr::from_terms(
            AggOp::Sum,
            vec![
                (v(x), Fin(2)),
                (v(x) * v(y), Fin(3)),
                (v(y) * v(z), Fin(4)),
                (v(x) * v(z), Fin(5)),
            ],
        );
        let condition = SemiringExpr::cmp_mm(
            CmpOp::Ge,
            alpha,
            SemimoduleExpr::constant(AggOp::Sum, Fin(9)),
        );
        let mut compiler = Compiler::new(&vt, SemiringKind::Bool);
        let tree = compiler.compile_semiring(&condition).unwrap();
        assert_eq!(
            tree.to_string(),
            "⊔v0(v0←⊥: ⊥ | v0←⊤: ⊔v1(v1←⊥: ⊥ | v1←⊤: [(v2 ⊗SUM 9) ≥ 4]))"
        );
        assert_eq!(compiler.stats().pruned_conditionals, 2);
        let expected = oracle::confidence_by_enumeration(&condition, &vt, SemiringKind::Bool);
        assert!((confidence_of_tree(&tree, &vt) - expected).abs() < 1e-12);
    }

    #[test]
    fn a_condition_whose_common_factor_does_not_divide_out_is_expanded() {
        // [x·(x + y)⊗1 +min x⊗2 ≤ 3] over N: x is a factor of both terms, but
        // the quotient x + y still mentions x, so rule 3 does not apply and the
        // ⊔ on x expands the conditional, not α. Under x ← 1 the constant term
        // 2 decides it.
        let mut vt = VarTable::new();
        let [x, y] = ["x", "y"].map(|n| vt.natural(n, &[(0, 0.5), (1, 0.5)]));
        let alpha = SemimoduleExpr::from_terms(
            AggOp::Min,
            vec![(v(x) * (v(x) + v(y)), Fin(1)), (v(x), Fin(2))],
        );
        let condition = SemiringExpr::cmp_mm(
            CmpOp::Le,
            alpha,
            SemimoduleExpr::constant(AggOp::Min, Fin(3)),
        );
        let expected = oracle::confidence_by_enumeration(&condition, &vt, SemiringKind::Nat);
        // Without independence the conditional is expanded the same way.
        let no_independence = CompileOptions {
            independence: false,
            ..CompileOptions::default()
        };
        for options in [CompileOptions::default(), no_independence] {
            let mut compiler = Compiler::with_options(&vt, SemiringKind::Nat, options);
            let tree = compiler.compile_semiring(&condition).unwrap();
            assert_eq!(compiler.stats().factorings, 0);
            assert!(compiler.stats().pruned_conditionals >= 1);
            assert_eq!(tree.to_string(), "⊔v0(v0←0: 0 | v0←1: 1)");
            assert!((confidence_of_tree(&tree, &vt) - expected).abs() < 1e-12);
        }
    }

    #[test]
    fn a_condition_whose_kept_terms_are_ground_is_a_constant_under_every_option() {
        // [x⊗10 +min y⊗20 = 5]: no term can be a minimum equal to 5, the rules
        // keep none, and the empty MIN is +∞ ≠ 5 — with or without the
        // independence rules (there is no variable left to expand on).
        let mut vt = VarTable::new();
        let [x, y] = ["x", "y"].map(|n| vt.boolean(n, 0.4));
        let alpha = SemimoduleExpr::from_terms(AggOp::Min, vec![(v(x), Fin(10)), (v(y), Fin(20))]);
        let condition = SemiringExpr::cmp_mm(
            CmpOp::Eq,
            alpha,
            SemimoduleExpr::constant(AggOp::Min, Fin(5)),
        );
        let no_independence = CompileOptions {
            independence: false,
            ..CompileOptions::default()
        };
        for options in [CompileOptions::default(), no_independence] {
            let tree = Compiler::with_options(&vt, SemiringKind::Bool, options)
                .compile_semiring(&condition)
                .unwrap();
            assert_eq!(tree.to_string(), "⊥");
        }
    }

    #[test]
    fn node_budget_aborts() {
        let mut vt = VarTable::new();
        let vars: Vec<Var> = (0..10).map(|i| vt.boolean(format!("x{i}"), 0.5)).collect();
        // A highly entangled expression that needs many case splits under
        // Shannon-only compilation.
        let terms: Vec<SemiringExpr> = (0..9)
            .map(|i| v(vars[i]) * v(vars[i + 1]) * v(vars[(i + 5) % 10]))
            .collect();
        let expr = SemiringExpr::sum(terms);
        let mut options = CompileOptions::shannon_only();
        options.node_budget = Some(50);
        let mut compiler = Compiler::with_options(&vt, SemiringKind::Bool, options);
        assert!(compiler.compile_semiring(&expr).is_err());
    }

    #[test]
    fn node_budget_counts_emitted_nodes() {
        // The budget bounds the nodes of the d-tree, every one of them: the `⊕`
        // / `⊙` links of an independence chain and of a factored product as
        // much as the leaves, and a `⊔` once.
        let mut vt = VarTable::new();
        let xs: Vec<Var> = (0..705).map(|_| vt.boolean("", 0.5)).collect();
        let [a, b, c, d, e] = [xs[0], xs[1], xs[2], xs[3], xs[4]];
        let or_705 = SemiringExpr::cmp_ss(
            CmpOp::Ne,
            SemiringExpr::sum(xs.iter().map(|x| v(*x)).collect()),
            SemiringExpr::zero(SemiringKind::Bool),
        );
        // a·b·c + a·b·d + a·b·e = (a ⊙ b) ⊙ ((c ⊕ d) ⊕ e).
        let factored = SemiringExpr::sum(vec![
            v(a) * v(b) * v(c),
            v(a) * v(b) * v(d),
            v(a) * v(b) * v(e),
        ]);
        // c is shared and no factor is common: ⊔c(⊥: a ⊙ b | ⊤: a ⊕ d).
        let split = SemiringExpr::sum(vec![v(a) * (v(b) + v(c)), v(c) * v(d)]);
        for (expr, nodes, exclusive) in [(or_705, 1411, 0), (factored, 9, 0), (split, 7, 1)] {
            let compile = |budget: usize| {
                let options = CompileOptions::default().with_node_budget(budget);
                let mut compiler = Compiler::with_options(&vt, SemiringKind::Bool, options);
                let emitted = compiler.emit_semiring(&expr).map(DTreeArena::len);
                (emitted, compiler.stats().exclusive_expansions)
            };
            assert_eq!(compile(nodes), (Ok(nodes), exclusive), "{expr}");
            // One short: the compilation stops at the node that does not fit,
            // and says how many there were by then.
            let over = BudgetExceeded {
                nodes_produced: nodes,
            };
            assert_eq!(compile(nodes - 1).0, Err(over), "{expr}");
            let tree = Compiler::new(&vt, SemiringKind::Bool)
                .compile_semiring(&expr)
                .unwrap();
            assert_eq!(tree.num_nodes(), nodes);
        }
    }

    #[test]
    fn nat_valued_variables_factor_instead_of_splitting() {
        let mut vt = VarTable::new();
        let x = vt.natural("x", &[(0, 0.2), (1, 0.3), (2, 0.5)]);
        let y = vt.natural("y", &[(1, 0.5), (3, 0.5)]);
        // x·y + x factors as x·(y + 1): no case split required.
        let expr = SemiringExpr::sum(vec![v(x) * v(y), v(x)]);
        let mut compiler = Compiler::new(&vt, SemiringKind::Nat);
        let tree = compiler.compile_semiring(&expr).unwrap();
        assert_eq!(tree.num_exclusive_nodes(), 0);
        assert!(compiler.stats().factorings >= 1);
        let dist = tree.semiring_distribution(&vt, SemiringKind::Nat).unwrap();
        let oracle_dist = oracle::semiring_dist_by_enumeration(&expr, &vt, SemiringKind::Nat);
        assert!(dist.approx_eq(&oracle_dist, 1e-9));
    }

    #[test]
    fn nat_valued_variables_case_split_over_full_support() {
        let mut vt = VarTable::new();
        let x = vt.natural("x", &[(0, 0.2), (1, 0.3), (2, 0.5)]);
        let y = vt.natural("y", &[(1, 0.5), (3, 0.5)]);
        // x·y + x + y: x and y both repeat but no factor is common to all three
        // summands, so a ⊔ node over the full support of the chosen variable appears.
        let expr = SemiringExpr::sum(vec![v(x) * v(y), v(x), v(y)]);
        let mut compiler = Compiler::new(&vt, SemiringKind::Nat);
        let tree = compiler.compile_semiring(&expr).unwrap();
        match tree.root() {
            ArenaNode::Exclusive {
                var, branches_len, ..
            } => {
                assert_eq!(var, x);
                assert_eq!(branches_len, 3);
            }
            other => panic!("expected ⊔ at the root, got {other:?}"),
        }
        let dist = tree.semiring_distribution(&vt, SemiringKind::Nat).unwrap();
        let oracle_dist = oracle::semiring_dist_by_enumeration(&expr, &vt, SemiringKind::Nat);
        assert!(dist.approx_eq(&oracle_dist, 1e-9));
    }

    #[test]
    fn scratch_grows_with_the_variables_touched_not_with_the_table() {
        // A compilation must not pay for the size of the probability space: at
        // TPC-H scale the table has thousands of variables and a typical
        // component mentions one.
        let mut vt = VarTable::new();
        let vars: Vec<Var> = (0..1_000_000).map(|_| vt.boolean("", 0.5)).collect();
        let mut compiler = Compiler::new(&vt, SemiringKind::Bool);
        let last = *vars.last().expect("non-empty table");
        let leaf = SemimoduleExpr::tensor(AggOp::Count, v(last), Fin(1));
        let tree = compiler.compile_semimodule(&leaf).unwrap();
        assert!(matches!(tree.root(), ArenaNode::Tensor { .. }));
        assert_eq!(compiler.scratch_lens(), (0, 0));
        // x0·x1 + x1·x2 + x2·x9 shares variables across summands without a
        // common factor: independence analysis runs and a ⊔ expansion follows.
        let entangled = SemiringExpr::sum(vec![
            v(vars[0]) * v(vars[1]),
            v(vars[1]) * v(vars[2]),
            v(vars[2]) * v(vars[9]),
        ]);
        let tree = compiler.compile_semiring(&entangled).unwrap();
        assert!(compiler.stats().exclusive_expansions >= 1);
        let (occ_counts, first_seen) = compiler.scratch_lens();
        assert!((1..=10).contains(&occ_counts), "{occ_counts}");
        assert!((1..=10).contains(&first_seen), "{first_seen}");
        let dist = tree.semiring_distribution(&vt, SemiringKind::Bool).unwrap();
        assert!((dist.total_mass() - 1.0).abs() < 1e-12);
    }

    /// Compile `alpha`, check its distribution against enumeration, and return the
    /// statistics of the compilation.
    fn checked(
        alpha: &SemimoduleExpr,
        vt: &VarTable,
        kind: SemiringKind,
    ) -> (DTreeArena, CompileStats) {
        let mut compiler = Compiler::new(vt, kind);
        let tree = compiler.compile_semimodule(alpha).unwrap();
        let dist = tree.monoid_distribution(vt, kind).unwrap();
        let expected = oracle::semimodule_dist_by_enumeration(alpha, vt, kind);
        assert!(
            dist.approx_eq(&expected, 1e-9),
            "{alpha}: {dist:?} vs {expected:?}"
        );
        (tree, compiler.stats().clone())
    }

    #[test]
    fn equal_coefficients_merge_in_every_monoid_and_both_semirings() {
        let mut vt = VarTable::new();
        let x = vt.boolean("x", 0.3);
        let y = vt.boolean("y", 0.6);
        let z = vt.boolean("z", 0.8);
        for op in pvc_algebra::ALL_AGG_OPS {
            let values = if op.is_count() { [1, 1, 1] } else { [3, 4, 5] };
            // x·y⊗a + y·x⊗b + z⊗c: the first two coefficients are one node.
            let alpha = SemimoduleExpr::from_terms(
                op,
                vec![
                    (v(x) * v(y), Fin(values[0])),
                    (v(y) * v(x), Fin(values[1])),
                    (v(z), Fin(values[2])),
                ],
            );
            let (tree, stats) = checked(&alpha, &vt, SemiringKind::Bool);
            assert_eq!(stats.merged_terms, 1, "{op}");
            assert_eq!(stats.dominated_terms, 0, "{op}");
            // Two independent terms are left: x·y⊗(a +op b) ⊕ z⊗c, no ⊔.
            assert_eq!(tree.num_exclusive_nodes(), 0, "{op}");
            assert_eq!(stats.independent_sums, 1, "{op}");
            // Distinct coefficients do not merge.
            let apart = SemimoduleExpr::from_terms(
                op,
                vec![(v(x), Fin(values[0])), (v(y), Fin(values[0]))],
            );
            assert_eq!(checked(&apart, &vt, SemiringKind::Bool).1.merged_terms, 0);
        }
        // Over N: x⊗3 + x⊗4 = x⊗7 is 0, 7 or 14 under SUM; a repeated factor is a
        // different coefficient.
        let mut vt = VarTable::new();
        let x = vt.natural("x", &[(0, 0.2), (1, 0.3), (2, 0.5)]);
        for op in pvc_algebra::ALL_AGG_OPS {
            let values = if op.is_count() { [1, 1] } else { [3, 4] };
            let alpha = SemimoduleExpr::from_terms(
                op,
                vec![(v(x), Fin(values[0])), (v(x), Fin(values[1]))],
            );
            let (tree, stats) = checked(&alpha, &vt, SemiringKind::Nat);
            assert_eq!(stats.merged_terms, 1, "{op}");
            assert!(
                matches!(tree.root(), ArenaNode::Tensor { .. }),
                "{op}: {tree}"
            );
        }
        let squared = SemimoduleExpr::from_terms(
            AggOp::Sum,
            vec![
                (v(x), Fin(3)),
                (SemiringExpr::Mul(vec![v(x), v(x)]), Fin(4)),
            ],
        );
        let (tree, stats) = checked(&squared, &vt, SemiringKind::Nat);
        assert_eq!(stats.merged_terms, 0);
        assert_eq!(tree.num_exclusive_nodes(), 1);
    }

    #[test]
    fn a_constant_term_dominates_under_min_and_max_only() {
        use pvc_algebra::MonoidValue::{NegInf, PosInf};
        let mut vt = VarTable::new();
        let x = vt.boolean("x", 0.3);
        let y = vt.boolean("y", 0.6);
        let z = vt.boolean("z", 0.8);
        let top = SemiringExpr::one(SemiringKind::Bool);
        // Independent terms: no ⊔ expansion, so what is counted is the root's.
        let terms = |constant| {
            vec![
                (v(x), Fin(2)),
                (v(y), Fin(5)),
                (v(z), Fin(8)),
                (top.clone(), constant),
            ]
        };
        // (monoid, constant, terms the constant dominates)
        for (op, constant, dominated) in [
            (AggOp::Min, Fin(5), 2),
            (AggOp::Min, Fin(9), 0),
            (AggOp::Min, NegInf, 3),
            (AggOp::Min, PosInf, 0),
            (AggOp::Max, Fin(5), 2),
            (AggOp::Max, Fin(1), 0),
            (AggOp::Max, PosInf, 3),
            (AggOp::Max, NegInf, 0),
            (AggOp::Sum, Fin(5), 0),
            (AggOp::Count, Fin(5), 0),
            (AggOp::Prod, Fin(5), 0),
        ] {
            let alpha = SemimoduleExpr::from_terms(op, terms(constant));
            let (tree, stats) = checked(&alpha, &vt, SemiringKind::Bool);
            assert_eq!(stats.dominated_terms, dominated, "{op} {constant}");
            assert_eq!(stats.merged_terms, 0, "{op} {constant}");
            if dominated == 3 {
                assert_eq!((tree.len(), tree.root()), (1, ArenaNode::MConst(constant)));
            }
        }
        // The constant that dominates may appear only inside a ⊔ branch: no term
        // below is constant at the root, and z ← ⊤ leaves 5 next to y⊗7.
        let alpha = SemimoduleExpr::from_terms(
            AggOp::Min,
            vec![
                (v(x) * v(z), Fin(4)),
                (v(x) * v(y), Fin(2)),
                (v(y) * v(z), Fin(7)),
                (v(z), Fin(5)),
            ],
        );
        let (tree, stats) = checked(&alpha, &vt, SemiringKind::Bool);
        assert!(tree.num_exclusive_nodes() >= 1);
        assert!(stats.dominated_terms >= 1);
        // Over N a constant coefficient 2 still contributes its value once to a MIN.
        let mut vt = VarTable::new();
        let n = vt.natural("n", &[(0, 0.5), (2, 0.5)]);
        let alpha = SemimoduleExpr::from_terms(
            AggOp::Min,
            vec![
                (SemiringExpr::Const(SemiringValue::Nat(2)), Fin(6)),
                (v(n), Fin(6)),
                (v(n), Fin(3)),
            ],
        );
        let (_, stats) = checked(&alpha, &vt, SemiringKind::Nat);
        assert_eq!((stats.merged_terms, stats.dominated_terms), (1, 0));
    }

    #[test]
    fn a_satisfied_clause_absorbs_its_sum_in_b_and_not_in_n() {
        // (x·y + z)⊗5 +sum (x + w)⊗7: once z ← ⊤ the first coefficient is ⊤,
        // whatever x and y are.
        let mut vt = VarTable::new();
        let [x, y, z, w] = ["x", "y", "z", "w"].map(|name| vt.boolean(name, 0.4));
        let alpha = SemimoduleExpr::from_terms(
            AggOp::Sum,
            vec![
                (v(x) * v(y) + v(z) * v(w), Fin(5)),
                (v(x) * v(w) + v(z), Fin(7)),
                (v(y) + v(w) * v(x), Fin(9)),
            ],
        );
        let (_, stats) = checked(&alpha, &vt, SemiringKind::Bool);
        assert!(stats.absorbed_sums >= 1, "{stats:?}");
        // The same shape over N-valued variables: x·y + 1 is not a constant.
        let mut vt = VarTable::new();
        let [x, y, z, w] =
            ["x", "y", "z", "w"].map(|name| vt.natural(name, &[(0, 0.3), (1, 0.4), (2, 0.3)]));
        let alpha = SemimoduleExpr::from_terms(
            AggOp::Sum,
            vec![
                (v(x) * v(y) + v(z) * v(w), Fin(5)),
                (v(x) * v(w) + v(z), Fin(7)),
                (v(y) + v(w) * v(x), Fin(9)),
            ],
        );
        let (_, stats) = checked(&alpha, &vt, SemiringKind::Nat);
        assert_eq!(stats.absorbed_sums, 0);
        // A factored sum is absorbed by its unit quotient: x + x·y = x in B.
        let mut vt = VarTable::new();
        let x = vt.boolean("x", 0.4);
        let y = vt.boolean("y", 0.7);
        let e = SemiringExpr::sum(vec![v(x), v(x) * v(y)]);
        let mut compiler = Compiler::new(&vt, SemiringKind::Bool);
        let tree = compiler.compile_semiring(&e).unwrap();
        assert_eq!(compiler.stats().absorbed_sums, 1);
        assert_eq!(tree.num_exclusive_nodes(), 0);
        let dist = tree.semiring_distribution(&vt, SemiringKind::Bool).unwrap();
        let expected = oracle::semiring_dist_by_enumeration(&e, &vt, SemiringKind::Bool);
        assert!(dist.approx_eq(&expected, 1e-9));
    }

    #[test]
    fn commuted_renderings_compile_to_the_same_tree() {
        let mut vt = VarTable::new();
        let xs: Vec<Var> = (0..6)
            .map(|i| vt.boolean(format!("x{i}"), 0.2 + 0.1 * i as f64))
            .collect();
        let clause = |a: usize, b: usize| v(xs[a]) * v(xs[b]);
        let terms = vec![
            (clause(0, 1) + clause(2, 3), Fin(4)),
            (clause(1, 2) + clause(4, 5), Fin(9)),
            (clause(3, 4) + clause(0, 5), Fin(6)),
            (clause(2, 5) + clause(1, 3), Fin(2)),
        ];
        let commuted = vec![
            (clause(3, 1) + clause(5, 2), Fin(2)),
            (clause(5, 0) + clause(4, 3), Fin(6)),
            (clause(5, 4) + clause(2, 1), Fin(9)),
            (clause(3, 2) + clause(1, 0), Fin(4)),
        ];
        let condition = |terms: Vec<(SemiringExpr, pvc_algebra::MonoidValue)>| {
            SemiringExpr::cmp_mm(
                CmpOp::Le,
                SemimoduleExpr::from_terms(AggOp::Sum, terms),
                SemimoduleExpr::constant(AggOp::Sum, Fin(10)),
            )
        };
        let (a, b) = (condition(terms), condition(commuted));
        assert_ne!(a, b);
        let mut compiler = Compiler::new(&vt, SemiringKind::Bool);
        let tree = compiler.compile_semiring(&a).unwrap();
        assert!(tree.num_exclusive_nodes() >= 1);
        // The other rendering, the same rendering again on a used compiler, and
        // the route through a shared interner with a history of its own.
        assert_eq!(compiler.compile_semiring(&b).unwrap(), tree);
        assert_eq!(compiler.compile_semiring(&a).unwrap(), tree);
        let mut interner = Interner::new();
        interner.intern(&(clause(4, 2) + clause(0, 3)));
        let id = interner.intern(&b);
        let by_id = Compiler::new(&vt, SemiringKind::Bool)
            .compile_semiring_id(&interner, id)
            .unwrap();
        assert_eq!(by_id, tree);
        // … all four tables equal (nodes, branches, fold plans, sorts), and
        // so are the arenas lent by either route.
        assert_eq!(compiler.emit_semiring(&a).unwrap(), &tree);
        assert_eq!(compiler.emit_semiring(&b).unwrap(), &tree);
        let mut by_id = Compiler::new(&vt, SemiringKind::Bool);
        assert_eq!(by_id.emit_semiring_id(&interner, id).unwrap(), &tree);
        let p = confidence_of_tree(&tree, &vt);
        let expected = oracle::confidence_by_enumeration(&a, &vt, SemiringKind::Bool);
        assert!((p - expected).abs() < 1e-9);
    }

    fn confidence_of_tree(tree: &DTreeArena, vt: &VarTable) -> f64 {
        tree.semiring_distribution(vt, SemiringKind::Bool)
            .unwrap()
            .iter()
            .filter(|(v, _)| !v.is_zero())
            .map(|(_, p)| p)
            .sum()
    }

    #[test]
    fn one_compiler_fills_its_arena_tables_once() {
        // A thousand independent three-variable annotations: after the first, the
        // compile-local arena has the room every later one needs.
        let mut vt = VarTable::new();
        let vars: Vec<Var> = (0..3000).map(|_| vt.boolean("", 0.5)).collect();
        let annotation = |i: usize| {
            let [a, b, c] = [vars[3 * i], vars[3 * i + 1], vars[3 * i + 2]];
            SemiringExpr::sum(vec![v(a) * v(b), v(b) * v(c), v(c) * v(a)])
        };
        let mut compiler = Compiler::new(&vt, SemiringKind::Bool);
        compiler.compile_semiring(&annotation(0)).unwrap();
        let expansions = compiler.stats().exclusive_expansions;
        assert!(expansions >= 1);
        let capacity = compiler.scratch.work.arena().capacity();
        for i in 1..1000 {
            compiler.compile_semiring(&annotation(i)).unwrap();
            assert_eq!(
                compiler.scratch.work.arena().capacity(),
                capacity,
                "annotation {i}"
            );
        }
        assert_eq!(compiler.stats().exclusive_expansions, 1000 * expansions);
        // And the arena holds one annotation's nodes, not a thousand's.
        assert!(compiler.scratch.work.arena().len() < 40);
    }

    #[test]
    fn each_emission_reports_its_own_counts() {
        // Two conditions on one compiler, the second twice: each emission's
        // `last_stats` is what a fresh compiler reports for it — the rule
        // counters and the residual arena's — and `stats` is their sum.
        let mut vt = VarTable::new();
        let [x, y, z, w] = ["x", "y", "z", "w"].map(|n| vt.boolean(n, 0.4));
        let condition = |op, terms, bound| {
            SemiringExpr::cmp_mm(
                CmpOp::Ge,
                SemimoduleExpr::from_terms(op, terms),
                SemimoduleExpr::constant(op, Fin(bound)),
            )
        };
        let a = condition(
            AggOp::Min,
            vec![
                (v(x) * v(y), Fin(10)),
                (v(y) * v(z), Fin(11)),
                (v(z) * v(w), Fin(12)),
            ],
            20,
        );
        // Under x ← ⊤ the first coefficient is y + y·z·w = y.
        let b = condition(
            AggOp::Count,
            vec![
                (v(x) * v(y) + v(y) * v(z) * v(w), Fin(1)),
                (v(x) * v(z) + v(w), Fin(1)),
                (v(y) * v(w) + v(x), Fin(1)),
            ],
            2,
        );
        let fresh = |e: &SemiringExpr| {
            let mut compiler = Compiler::new(&vt, SemiringKind::Bool);
            compiler.emit_semiring(e).unwrap();
            assert_eq!(compiler.stats(), compiler.last_stats());
            compiler.last_stats().clone()
        };
        let (alone_a, alone_b) = (fresh(&a), fresh(&b));
        assert!(alone_b.absorbed_terms >= 1, "{alone_b:?}");
        assert!(alone_b.rebuilt_nodes >= 1 && alone_b.exclusive_expansions >= 1);
        let mut reused = Compiler::new(&vt, SemiringKind::Bool);
        let mut sum = CompileStats::default();
        for (e, alone) in [(&a, &alone_a), (&b, &alone_b), (&b, &alone_b)] {
            reused.emit_semiring(e).unwrap();
            assert_eq!(reused.last_stats(), alone, "{e}");
            sum.add(alone);
        }
        assert_eq!(reused.stats(), &sum);
    }

    #[test]
    fn empty_and_constant_expressions() {
        let vt = VarTable::new();
        let kind = SemiringKind::Bool;
        let zero = SemiringExpr::Add(vec![]);
        let tree = Compiler::new(&vt, kind).compile_semiring(&zero).unwrap();
        let falsum = ArenaNode::SConst(SemiringValue::Bool(false));
        assert_eq!((tree.len(), tree.root()), (1, falsum));
        let alpha = SemimoduleExpr::zero(AggOp::Min);
        let tree = Compiler::new(&vt, kind).compile_semimodule(&alpha).unwrap();
        let infinity = ArenaNode::MConst(pvc_algebra::MonoidValue::PosInf);
        assert_eq!((tree.len(), tree.root()), (1, infinity));
    }

    #[test]
    fn compiled_trees_render_in_the_paper_notation() {
        // Renderings recorded from the boxed tree's recursive `Display`, which
        // the arena's explicit-stack rendering must reproduce byte for byte.
        // Figure 5: a(b + c)⊗10 + c⊗20 over N.
        let mut vt = VarTable::new();
        let a = vt.natural("a", &[(1, 0.3), (2, 0.7)]);
        let b = vt.natural("b", &[(1, 0.6), (2, 0.4)]);
        let c = vt.natural("c", &[(1, 0.8), (2, 0.2)]);
        let terms = vec![(v(a) * (v(b) + v(c)), Fin(10)), (v(c), Fin(20))];
        let alpha = SemimoduleExpr::from_terms(AggOp::Sum, terms);
        let tree = Compiler::new(&vt, SemiringKind::Nat)
            .compile_semimodule(&alpha)
            .unwrap();
        assert_eq!(
            tree.to_string(),
            "⊔v2(v2←1: (((v0 ⊙ (1 ⊕ v1)) ⊗SUM 10) ⊕SUM 20) | \
             v2←2: (((v0 ⊙ (2 ⊕ v1)) ⊗SUM 10) ⊕SUM 40))"
        );
        // Figure 6: the MAX gap annotation over B.
        let mut vt = VarTable::new();
        let [x4, x5, y41, y43, y51, z1, z3, z5] =
            ["x4", "x5", "y41", "y43", "y51", "z1", "z3", "z5"].map(|n| vt.boolean(n, 0.5));
        let alpha = SemimoduleExpr::from_terms(
            AggOp::Max,
            vec![
                (v(x4) * v(y41) * (v(z1) + v(z5)), Fin(15)),
                (v(x4) * v(y43) * v(z3), Fin(60)),
                (v(x5) * v(y51) * (v(z1) + v(z5)), Fin(10)),
            ],
        );
        let tree = Compiler::new(&vt, SemiringKind::Bool)
            .compile_semimodule(&alpha)
            .unwrap();
        assert_eq!(
            tree.to_string(),
            "⊔v0(v0←⊥: (((v1 ⊙ v4) ⊙ (v7 ⊕ v5)) ⊗MAX 10) | \
             v0←⊤: (⊔v5(v5←⊥: (v7 ⊗MAX (((v1 ⊙ v4) ⊗MAX 10) ⊕MAX (v2 ⊗MAX 15))) | \
             v5←⊤: (((v1 ⊙ v4) ⊗MAX 10) ⊕MAX (v2 ⊗MAX 15))) ⊕MAX ((v6 ⊙ v3) ⊗MAX 60)))"
        );
        // A one-sided [α ≤ c] the evaluator folds.
        let mut vt = VarTable::new();
        let [x, y, z] = ["x", "y", "z"].map(|n| vt.boolean(n, 0.5));
        let terms = vec![
            (v(x) * v(y), Fin(10)),
            (v(y) * v(z), Fin(20)),
            (v(z), Fin(40)),
        ];
        let condition = SemiringExpr::cmp_mm(
            CmpOp::Le,
            SemimoduleExpr::from_terms(AggOp::Min, terms),
            SemimoduleExpr::constant(AggOp::Min, Fin(25)),
        );
        let tree = Compiler::new(&vt, SemiringKind::Bool)
            .compile_semiring(&condition)
            .unwrap();
        assert!(tree.has_fold_at_root());
        assert_eq!(
            tree.to_string(),
            "[(v1 ⊗MIN ((v2 ⊗MIN 20) ⊕MIN (v0 ⊗MIN 10))) ≤ 25]"
        );
        // A ⊔ over the values of N.
        let mut vt = VarTable::new();
        let x = vt.natural("x", &[(0, 0.2), (1, 0.3), (2, 0.5)]);
        let y = vt.natural("y", &[(1, 0.5), (3, 0.5)]);
        let e = SemiringExpr::sum(vec![v(x) * v(y), v(x), v(y)]);
        let tree = Compiler::new(&vt, SemiringKind::Nat)
            .compile_semiring(&e)
            .unwrap();
        assert_eq!(
            tree.to_string(),
            "⊔v0(v0←0: v1 | v0←1: (1 ⊕ (v1 ⊙ 2)) | v0←2: (2 ⊕ (v1 ⊙ 3)))"
        );
    }
}
