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
//!    `[θ]` node (after pruning, cf. [`crate::prune`]).
//! 6. **Mutually exclusive case split** — otherwise a variable is chosen (the one with
//!    the most occurrences, as in the paper's implementation) and the expression is
//!    expanded into a `⊔` node with one branch per support value.

use crate::node::DTree;
use crate::prune::prune_conditional;
use pvc_algebra::SemiringKind;
use pvc_expr::factor::{common_factor_vars_of, divide_by_vars, factor_sum};
use pvc_expr::independence::components_of_occurrences_with;
use pvc_expr::{SemimoduleExpr, SemiringExpr, SmTerm, Var, VarSet, VarTable};

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

    /// Builder: enable or disable the independence rules (rule 2 and the
    /// independent-product split).
    pub fn with_independence(mut self, enabled: bool) -> Self {
        self.independence = enabled;
        self
    }

    /// Builder: enable or disable read-once factorisation (rule 3).
    pub fn with_factoring(mut self, enabled: bool) -> Self {
        self.factoring = enabled;
        self
    }

    /// Builder: enable or disable conditional pruning.
    pub fn with_pruning(mut self, enabled: bool) -> Self {
        self.pruning = enabled;
        self
    }
}

/// Statistics about one compilation run: how often each rule fired.
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
    /// Conditional expressions decided entirely by pruning.
    pub pruned_conditionals: usize,
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

/// The expression compiler (Algorithm 1).
pub struct Compiler<'a> {
    table: &'a VarTable,
    kind: SemiringKind,
    options: CompileOptions,
    stats: CompileStats,
    nodes_produced: usize,
    /// Scratch for occurrence collection during `⊔`-variable choice (reused across
    /// the tens of thousands of Shannon expansions a hard compilation performs).
    occ_buf: Vec<Var>,
    /// Per-variable occurrence counters, indexed by `Var` id. Starts empty and
    /// grows to the largest id a choice touches (never to the table's size: most
    /// compilations see a handful of variables of a table of thousands); entries
    /// touched by a choice are reset afterwards.
    occ_counts: Vec<u32>,
    /// First-seen table for independence splitting
    /// ([`components_of_occurrences_with`]), likewise grown on demand and reset
    /// per use.
    first_seen: Vec<usize>,
}

impl<'a> Compiler<'a> {
    /// Create a compiler over the given variable table and ambient semiring.
    pub fn new(table: &'a VarTable, kind: SemiringKind) -> Self {
        Self::with_options(table, kind, CompileOptions::default())
    }

    /// Create a compiler with explicit options.
    pub fn with_options(table: &'a VarTable, kind: SemiringKind, options: CompileOptions) -> Self {
        Compiler {
            table,
            kind,
            options,
            stats: CompileStats::default(),
            nodes_produced: 0,
            occ_buf: Vec::new(),
            occ_counts: Vec::new(),
            first_seen: Vec::new(),
        }
    }

    /// Statistics of the rules applied so far.
    pub fn stats(&self) -> &CompileStats {
        &self.stats
    }

    /// Lengths of the id-indexed scratch tables `(occ_counts, first_seen)`.
    #[cfg(test)]
    fn scratch_lens(&self) -> (usize, usize) {
        (self.occ_counts.len(), self.first_seen.len())
    }

    fn charge(&mut self, nodes: usize) -> Result<(), BudgetExceeded> {
        self.nodes_produced += nodes;
        if let Some(budget) = self.options.node_budget {
            if self.nodes_produced > budget {
                return Err(BudgetExceeded {
                    nodes_produced: self.nodes_produced,
                });
            }
        }
        Ok(())
    }

    /// Compile a semiring expression into a d-tree.
    pub fn compile_semiring(&mut self, expr: &SemiringExpr) -> Result<DTree, BudgetExceeded> {
        let expr = expr.simplify(self.kind);
        self.compile_semiring_inner(&expr)
    }

    /// Compile a semimodule expression into a d-tree.
    pub fn compile_semimodule(&mut self, expr: &SemimoduleExpr) -> Result<DTree, BudgetExceeded> {
        let expr = expr.simplify(self.kind);
        self.compile_semimodule_inner(&expr)
    }

    /// Compile an interned semiring expression (see [`pvc_expr::intern`]) into a
    /// d-tree. The id is resolved to its canonical rendering first, so compiling
    /// either of two commutatively-reordered expressions produces the same tree.
    pub fn compile_semiring_id(
        &mut self,
        interner: &pvc_expr::Interner,
        id: pvc_expr::ExprId,
    ) -> Result<DTree, BudgetExceeded> {
        self.compile_semiring(&interner.resolve(id))
    }

    /// Compile an interned semimodule expression into a d-tree.
    pub fn compile_semimodule_id(
        &mut self,
        interner: &pvc_expr::Interner,
        id: pvc_expr::AggExprId,
    ) -> Result<DTree, BudgetExceeded> {
        self.compile_semimodule(&interner.resolve_semimodule(id))
    }

    fn compile_semiring_inner(&mut self, expr: &SemiringExpr) -> Result<DTree, BudgetExceeded> {
        self.charge(1)?;
        match expr {
            SemiringExpr::Const(c) => Ok(DTree::SConst(*c)),
            SemiringExpr::Var(v) => Ok(DTree::VarLeaf(*v)),
            SemiringExpr::Add(children) => self.compile_sum(children),
            SemiringExpr::Mul(children) => self.compile_product(children),
            SemiringExpr::CmpSS(theta, lhs, rhs) => {
                if self.options.independence && lhs.vars().is_disjoint(&rhs.vars()) {
                    self.stats.comparison_splits += 1;
                    let l = self.compile_semiring_inner(lhs)?;
                    let r = self.compile_semiring_inner(rhs)?;
                    Ok(DTree::Cmp(*theta, Box::new(l), Box::new(r)))
                } else {
                    self.shannon_semiring(expr)
                }
            }
            SemiringExpr::CmpMM(..) => {
                let pruned = if self.options.pruning {
                    let p = prune_conditional(expr, self.kind);
                    if p.as_const().is_some() {
                        self.stats.pruned_conditionals += 1;
                    }
                    p
                } else {
                    expr.clone()
                };
                match &pruned {
                    SemiringExpr::Const(c) => Ok(DTree::SConst(*c)),
                    SemiringExpr::CmpMM(theta, lhs, rhs) => {
                        if self.options.independence && lhs.vars().is_disjoint(&rhs.vars()) {
                            self.stats.comparison_splits += 1;
                            let l = self.compile_semimodule_inner(&lhs.simplify(self.kind))?;
                            let r = self.compile_semimodule_inner(&rhs.simplify(self.kind))?;
                            Ok(DTree::Cmp(*theta, Box::new(l), Box::new(r)))
                        } else {
                            self.shannon_semiring(&pruned)
                        }
                    }
                    other => self.compile_semiring_inner(other),
                }
            }
        }
    }

    /// Rule 2 + rule 3 on an n-ary semiring sum.
    fn compile_sum(&mut self, children: &[SemiringExpr]) -> Result<DTree, BudgetExceeded> {
        if children.is_empty() {
            return Ok(DTree::SConst(self.kind.zero()));
        }
        if children.len() == 1 {
            return self.compile_semiring_inner(&children[0]);
        }
        if self.options.independence {
            // Components are computed over borrowed variable occurrences; children
            // are only cloned when an actual split happens (the common no-split case
            // used to deep-clone the whole child list every recursion level).
            let components =
                self.split_components(children.len(), |i, buf| children[i].collect_vars(buf));
            if components.len() > 1 {
                self.stats.independent_sums += components.len() - 1;
                let mut trees = Vec::with_capacity(components.len());
                for comp in &components {
                    let group: Vec<SemiringExpr> =
                        comp.iter().map(|&i| children[i].clone()).collect();
                    trees.push(self.compile_sum(&group)?);
                }
                return Ok(fold_binary(trees, |a, b| {
                    DTree::SumS(Box::new(a), Box::new(b))
                }));
            }
        }
        if self.options.factoring {
            if let Some((common, quotients)) = factor_sum(children) {
                let quotient_children: Vec<SemiringExpr> = quotients
                    .into_iter()
                    .map(|q| q.unwrap_or_else(|| SemiringExpr::one(self.kind)))
                    .collect();
                // The ⊙ node requires independent children: factoring is only sound
                // when the quotients no longer mention the extracted variables (they
                // still would if a variable occurred twice within one summand).
                let disjoint = quotient_children
                    .iter()
                    .all(|q| q.vars().is_disjoint(&common));
                if disjoint {
                    self.stats.factorings += 1;
                    let factor_tree = self.compile_var_product(&common)?;
                    let quotient_tree = self.compile_sum(&quotient_children)?;
                    self.stats.independent_products += 1;
                    return Ok(DTree::Prod(Box::new(factor_tree), Box::new(quotient_tree)));
                }
            }
        }
        self.shannon_semiring(&SemiringExpr::Add(children.to_vec()))
    }

    /// Independent-product split on an n-ary semiring product.
    fn compile_product(&mut self, children: &[SemiringExpr]) -> Result<DTree, BudgetExceeded> {
        if children.is_empty() {
            return Ok(DTree::SConst(self.kind.one()));
        }
        if children.len() == 1 {
            return self.compile_semiring_inner(&children[0]);
        }
        if self.options.independence {
            let components =
                self.split_components(children.len(), |i, buf| children[i].collect_vars(buf));
            if components.len() > 1 {
                self.stats.independent_products += components.len() - 1;
                let mut trees = Vec::with_capacity(components.len());
                for comp in &components {
                    let group: Vec<SemiringExpr> =
                        comp.iter().map(|&i| children[i].clone()).collect();
                    trees.push(self.compile_product(&group)?);
                }
                return Ok(fold_binary(trees, |a, b| {
                    DTree::Prod(Box::new(a), Box::new(b))
                }));
            }
        }
        self.shannon_semiring(&SemiringExpr::Mul(children.to_vec()))
    }

    /// Compile a product of distinct variables (the common factor pulled out of a
    /// sum). Distinct variables are pairwise independent by definition.
    fn compile_var_product(&mut self, vars: &VarSet) -> Result<DTree, BudgetExceeded> {
        let trees: Vec<DTree> = vars.iter().map(DTree::VarLeaf).collect();
        self.charge(trees.len())?;
        if trees.is_empty() {
            return Ok(DTree::SConst(self.kind.one()));
        }
        if trees.len() > 1 {
            self.stats.independent_products += trees.len() - 1;
        }
        Ok(fold_binary(trees, |a, b| {
            DTree::Prod(Box::new(a), Box::new(b))
        }))
    }

    fn compile_semimodule_inner(&mut self, expr: &SemimoduleExpr) -> Result<DTree, BudgetExceeded> {
        self.charge(1)?;
        // Rule 1: ground expressions fold to a monoid constant.
        if let Some(c) = expr.as_const() {
            return Ok(DTree::MConst(c));
        }
        let op = expr.op;
        // Rule 2: split the +op sum by independence of the terms' coefficients.
        // Variable sets are computed over borrowed terms; the term list is only
        // cloned (piecewise) when a split actually happens.
        if self.options.independence && expr.terms.len() > 1 {
            let components = self.split_components(expr.terms.len(), |i, buf| {
                expr.terms[i].coeff.collect_vars(buf)
            });
            if components.len() > 1 {
                self.stats.independent_sums += components.len() - 1;
                let mut trees = Vec::with_capacity(components.len());
                for comp in &components {
                    let sub = SemimoduleExpr {
                        op,
                        terms: comp.iter().map(|&i| expr.terms[i].clone()).collect(),
                    };
                    trees.push(self.compile_semimodule_inner(&sub)?);
                }
                return Ok(fold_binary(trees, |a, b| {
                    DTree::SumM(op, Box::new(a), Box::new(b))
                }));
            }
        }
        // Single term Φ ⊗ m: rule 4 (the coefficient and the constant are trivially
        // independent).
        if expr.terms.len() == 1 {
            let SmTerm { coeff, value } = &expr.terms[0];
            match coeff.as_const() {
                Some(c) => return Ok(DTree::MConst(op.scalar_action(&c, value))),
                None => {
                    self.stats.tensor_splits += 1;
                    let scalar = self.compile_semiring_inner(coeff)?;
                    self.charge(1)?;
                    return Ok(DTree::Tensor(
                        op,
                        Box::new(scalar),
                        Box::new(DTree::MConst(*value)),
                    ));
                }
            }
        }
        // Rule 3/4 combined: pull a semiring factor common to every term out of the
        // sum, producing Φ ⊗ (Σ quotients).
        if self.options.factoring {
            let common = common_factor_vars_of(expr.terms.iter().map(|t| &t.coeff));
            if !common.is_empty() {
                let quotient = SemimoduleExpr {
                    op,
                    terms: expr
                        .terms
                        .iter()
                        .map(|t| SmTerm {
                            coeff: divide_by_vars(&t.coeff, &common)
                                .unwrap_or_else(|| SemiringExpr::one(self.kind)),
                            value: t.value,
                        })
                        .collect(),
                };
                // As for sums, the ⊗ node requires the scalar and the residual
                // semimodule expression to be variable-disjoint.
                if quotient.vars().is_disjoint(&common) {
                    self.stats.factorings += 1;
                    self.stats.tensor_splits += 1;
                    let scalar_tree = self.compile_var_product(&common)?;
                    let value_tree = self.compile_semimodule_inner(&quotient)?;
                    return Ok(DTree::Tensor(
                        op,
                        Box::new(scalar_tree),
                        Box::new(value_tree),
                    ));
                }
            }
        }
        // Rule 6: mutually exclusive case split on the most frequent variable.
        self.shannon_semimodule(expr)
    }

    /// Partition `n` items into independence components of the variable
    /// co-occurrence graph. `collect(i, buf)` pushes item `i`'s variable
    /// occurrences; the shared scratch buffer avoids building a sorted `VarSet`
    /// per item per recursion level (rule 2's former dominant cost).
    fn split_components(
        &mut self,
        n: usize,
        mut collect: impl FnMut(usize, &mut Vec<Var>),
    ) -> Vec<Vec<usize>> {
        let mut buf = std::mem::take(&mut self.occ_buf);
        buf.clear();
        let mut spans = Vec::with_capacity(n);
        for i in 0..n {
            let start = buf.len();
            collect(i, &mut buf);
            spans.push((start, buf.len()));
        }
        let components = components_of_occurrences_with(&spans, &buf, &mut self.first_seen);
        self.occ_buf = buf;
        components
    }

    /// Choose the variable with the most occurrences (ties broken by smallest id,
    /// for determinism) — the heuristic used in the paper's implementation.
    ///
    /// Occurrences are tallied in a reusable id-indexed counter vector instead of a
    /// fresh `BTreeMap` per expansion; only the touched entries are reset.
    fn choose_split_var(&mut self, collect: impl FnOnce(&mut Vec<Var>)) -> Var {
        self.occ_buf.clear();
        collect(&mut self.occ_buf);
        for v in &self.occ_buf {
            let slot = v.0 as usize;
            // The hit path is the one bounds check plain indexing would make.
            match self.occ_counts.get_mut(slot) {
                Some(n) => *n += 1,
                None => {
                    self.occ_counts.resize(slot + 1, 0);
                    self.occ_counts[slot] = 1;
                }
            }
        }
        let mut best: Option<(u32, Var)> = None;
        for &v in &self.occ_buf {
            let n = self.occ_counts[v.0 as usize];
            best = Some(match best {
                None => (n, v),
                Some((bn, bv)) if n > bn || (n == bn && v < bv) => (n, v),
                Some(b) => b,
            });
        }
        for v in &self.occ_buf {
            self.occ_counts[v.0 as usize] = 0;
        }
        best.map(|(_, v)| v)
            .expect("expression with no variables reached Shannon expansion")
    }

    fn shannon_semiring(&mut self, expr: &SemiringExpr) -> Result<DTree, BudgetExceeded> {
        let var = self.choose_split_var(|buf| expr.collect_vars(buf));
        self.stats.exclusive_expansions += 1;
        let kind = self.kind;
        let table = self.table;
        let dist = table.dist(var);
        let mut branches = Vec::with_capacity(dist.support_size());
        for (value, _) in dist.iter() {
            let child_expr = expr.substitute_simplify(var, *value, kind);
            let child = self.compile_semiring_inner(&child_expr)?;
            branches.push((*value, child));
        }
        self.charge(1)?;
        Ok(DTree::Exclusive(var, branches))
    }

    fn shannon_semimodule(&mut self, expr: &SemimoduleExpr) -> Result<DTree, BudgetExceeded> {
        let var = self.choose_split_var(|buf| {
            for t in &expr.terms {
                t.coeff.collect_vars(buf);
            }
        });
        self.stats.exclusive_expansions += 1;
        let kind = self.kind;
        let table = self.table;
        let dist = table.dist(var);
        let mut branches = Vec::with_capacity(dist.support_size());
        for (value, _) in dist.iter() {
            let child_expr = expr.substitute_simplify(var, *value, kind);
            let child = self.compile_semimodule_inner(&child_expr)?;
            branches.push((*value, child));
        }
        self.charge(1)?;
        Ok(DTree::Exclusive(var, branches))
    }
}

/// Fold a non-empty list of trees into a left-deep binary tree.
fn fold_binary(mut trees: Vec<DTree>, combine: impl Fn(DTree, DTree) -> DTree) -> DTree {
    debug_assert!(!trees.is_empty());
    let mut acc = trees.remove(0);
    for t in trees {
        acc = combine(acc, t);
    }
    acc
}

/// Compile a semiring expression and return its d-tree (default options).
pub fn compile_semiring(expr: &SemiringExpr, table: &VarTable, kind: SemiringKind) -> DTree {
    Compiler::new(table, kind)
        .compile_semiring(expr)
        .expect("no node budget configured")
}

/// Compile a semimodule expression and return its d-tree (default options).
pub fn compile_semimodule(expr: &SemimoduleExpr, table: &VarTable, kind: SemiringKind) -> DTree {
    Compiler::new(table, kind)
        .compile_semimodule(expr)
        .expect("no node budget configured")
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
        assert!(matches!(tree, DTree::Exclusive(var, _) if var == c));
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
        match &tree {
            DTree::Exclusive(var, branches) => {
                assert_eq!(*var, x);
                assert_eq!(branches.len(), 3);
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
        assert!(matches!(tree, DTree::Tensor(..)));
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

    #[test]
    fn empty_and_constant_expressions() {
        let vt = VarTable::new();
        let kind = SemiringKind::Bool;
        let zero = SemiringExpr::Add(vec![]);
        let tree = compile_semiring(&zero, &vt, kind);
        assert_eq!(tree, DTree::SConst(SemiringValue::Bool(false)));
        let alpha = SemimoduleExpr::zero(AggOp::Min);
        let tree = compile_semimodule(&alpha, &vt, kind);
        assert_eq!(tree, DTree::MConst(pvc_algebra::MonoidValue::PosInf));
    }
}
