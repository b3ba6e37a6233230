//! Decomposition trees (d-trees): the knowledge-compilation target of the paper
//! (§5, Definition 7) — their node kinds and the errors their evaluation raises.
//!
//! A d-tree is a tree whose inner nodes are `⊕` (independent sum), `⊙` (independent
//! product), `⊗` (independent scalar action), `[θ]` (comparison of independent
//! expressions) and `⊔_x` (exhaustive, mutually exclusive case split on the value of a
//! variable), and whose leaves are variables or constants. The probability
//! distribution of a d-tree is computed bottom-up in one pass, using convolution at
//! the first four node kinds (Eqs. 4–9) and weighted mixing at `⊔` nodes (Eq. 10) —
//! in time `O(Π_i |p_i|)` over the node distributions (Theorem 2).
//!
//! A d-tree is stored as a [`DTreeArena`](crate::arena::DTreeArena): its nodes in
//! post-order, children referenced by index, which is the form the compiler emits
//! and the evaluator runs on.

use pvc_algebra::{AggOp, CmpOp, MonoidValue, SemiringValue};
use pvc_expr::Var;
use std::fmt;

/// One node of a d-tree. Child fields are indices into the arena's post-order
/// node vector.
#[derive(Debug, Clone, Copy, PartialEq)]
pub(crate) enum ArenaNode {
    /// Leaf: a random variable `x ∈ X`, carrying its own distribution.
    VarLeaf(Var),
    /// Leaf: a semiring constant `s ∈ S` (distribution `{(s, 1)}`).
    SConst(SemiringValue),
    /// Leaf: a monoid constant `m ∈ M` (distribution `{(m, 1)}`).
    MConst(MonoidValue),
    /// Leaf: an independent component whose distribution the artifact store
    /// already holds, at this slot of the arena's table of known values.
    Known(u32),
    /// `⊕` over two independent *semiring* expressions (Eq. 4).
    SumS { left: u32, right: u32 },
    /// `⊕` over two independent *semimodule* expressions in the given monoid (Eq. 6).
    SumM { op: AggOp, left: u32, right: u32 },
    /// `⊙` — product of two independent semiring expressions (Eq. 5).
    Prod { left: u32, right: u32 },
    /// `⊗` — scalar action of an independent semiring expression `scalar` on a
    /// semimodule expression `value` in the given monoid (Eq. 7).
    Tensor { op: AggOp, scalar: u32, value: u32 },
    /// `[θ]` — comparison of two independent expressions, both semiring or both
    /// semimodule (Eqs. 8–9). The result is a semiring value.
    Cmp { theta: CmpOp, left: u32, right: u32 },
    /// `⊔_x` — mutually exclusive split on the value of variable `x`: one child per
    /// support value `s` with `P_x[s] ≠ 0` (Eq. 10). The `(s, child)` entries
    /// live in the arena's branch table.
    Exclusive {
        var: Var,
        branches_start: u32,
        branches_len: u32,
    },
}

/// Errors raised while evaluating a d-tree's distribution.
///
/// These indicate a malformed tree (e.g. a `⊙` node over a semimodule child, or a
/// `⊔` node whose branches are of different sorts); trees produced by the
/// compiler in this crate never trigger them.
#[derive(Debug, Clone, PartialEq, Eq)]
pub enum DTreeError {
    /// A child produced monoid values where semiring values were required.
    ExpectedSemiring(&'static str),
    /// A child produced semiring values where monoid values were required.
    ExpectedMonoid(&'static str),
    /// A comparison node mixed semiring and monoid children.
    MixedComparison,
}

impl fmt::Display for DTreeError {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        match self {
            DTreeError::ExpectedSemiring(ctx) => {
                write!(f, "expected a semiring-valued child at {ctx}")
            }
            DTreeError::ExpectedMonoid(ctx) => {
                write!(f, "expected a monoid-valued child at {ctx}")
            }
            DTreeError::MixedComparison => {
                write!(f, "comparison node mixes semiring and monoid children")
            }
        }
    }
}

impl std::error::Error for DTreeError {}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::arena::DTreeArena;
    use pvc_algebra::MonoidValue::Fin;
    use pvc_algebra::SemiringKind;
    use pvc_expr::VarTable;

    fn table_abc(pa: f64, pb: f64, pc: f64) -> (VarTable, Var, Var, Var) {
        let mut vt = VarTable::new();
        let a = vt.boolean("a", pa);
        let b = vt.boolean("b", pb);
        let c = vt.boolean("c", pc);
        (vt, a, b, c)
    }

    #[test]
    fn leaf_distributions() {
        let (vt, a, _, _) = table_abc(0.3, 0.5, 0.5);
        let kind = SemiringKind::Bool;
        let mut t = DTreeArena::new();
        t.push(ArenaNode::VarLeaf(a));
        let d = t.semiring_distribution(&vt, kind).unwrap();
        assert!((d.prob(&SemiringValue::Bool(true)) - 0.3).abs() < 1e-12);
        let mut t = DTreeArena::new();
        t.push(ArenaNode::SConst(SemiringValue::Nat(4)));
        let d = t.semiring_distribution(&vt, SemiringKind::Nat).unwrap();
        assert_eq!(d.support_size(), 1);
        let mut t = DTreeArena::new();
        t.push(ArenaNode::MConst(Fin(9)));
        let d = t.monoid_distribution(&vt, kind).unwrap();
        assert!((d.prob(&Fin(9)) - 1.0).abs() < 1e-12);
    }

    #[test]
    fn product_node_is_conjunction() {
        let (vt, a, b, _) = table_abc(0.3, 0.5, 0.5);
        let mut t = DTreeArena::new();
        let (left, right) = (t.var(a), t.var(b));
        t.push(ArenaNode::Prod { left, right });
        let d = t.semiring_distribution(&vt, SemiringKind::Bool).unwrap();
        assert!((d.prob(&SemiringValue::Bool(true)) - 0.15).abs() < 1e-12);
        assert!(d.is_normalized());
    }

    #[test]
    fn sum_node_is_disjunction() {
        let (vt, a, b, _) = table_abc(0.3, 0.5, 0.5);
        let mut t = DTreeArena::new();
        let (left, right) = (t.var(a), t.var(b));
        t.push(ArenaNode::SumS { left, right });
        let d = t.semiring_distribution(&vt, SemiringKind::Bool).unwrap();
        assert!((d.prob(&SemiringValue::Bool(true)) - (1.0 - 0.7 * 0.5)).abs() < 1e-12);
    }

    #[test]
    fn tensor_and_monoid_sum() {
        // a⊗10 +min b⊗20.
        let (vt, a, b, _) = table_abc(0.5, 0.5, 0.5);
        let mut t = DTreeArena::new();
        let left = t.tensor(AggOp::Min, a, 10);
        let right = t.tensor(AggOp::Min, b, 20);
        let op = AggOp::Min;
        t.push(ArenaNode::SumM { op, left, right });
        let d = t.monoid_distribution(&vt, SemiringKind::Bool).unwrap();
        assert!((d.prob(&Fin(10)) - 0.5).abs() < 1e-12);
        assert!((d.prob(&Fin(20)) - 0.25).abs() < 1e-12);
        assert!((d.prob(&MonoidValue::PosInf) - 0.25).abs() < 1e-12);
    }

    #[test]
    fn comparison_node() {
        let (vt, a, _, _) = table_abc(0.4, 0.5, 0.5);
        // [a⊗10 ≤ 15]: true iff a is present (an absent a leaves MIN at +∞).
        let mut t = DTreeArena::new();
        let left = t.tensor(AggOp::Min, a, 10);
        let right = t.push(ArenaNode::MConst(Fin(15)));
        let theta = CmpOp::Le;
        t.push(ArenaNode::Cmp { theta, left, right });
        let d = t.semiring_distribution(&vt, SemiringKind::Bool).unwrap();
        assert!((d.prob(&SemiringValue::Bool(true)) - 0.4).abs() < 1e-12);
    }

    #[test]
    fn exclusive_node_mixes_branches() {
        let (vt, a, b, _) = table_abc(0.3, 0.6, 0.5);
        // ⊔a with children: a←⊥ gives b, a←⊤ gives ⊤ (i.e. the expression a + b).
        let mut t = DTreeArena::new();
        let absent = t.var(b);
        let present = t.push(ArenaNode::SConst(SemiringValue::Bool(true)));
        t.exclusive(
            a,
            &[
                (SemiringValue::Bool(false), absent),
                (SemiringValue::Bool(true), present),
            ],
        );
        let d = t.semiring_distribution(&vt, SemiringKind::Bool).unwrap();
        let expected = 0.3 + 0.7 * 0.6;
        assert!((d.prob(&SemiringValue::Bool(true)) - expected).abs() < 1e-12);
        assert!(d.is_normalized());
    }

    #[test]
    fn malformed_trees_report_errors() {
        let (vt, a, _, _) = table_abc(0.3, 0.5, 0.5);
        // ⊙ over a monoid child.
        let mut bad = DTreeArena::new();
        let (left, right) = (bad.push(ArenaNode::MConst(Fin(1))), bad.var(a));
        bad.push(ArenaNode::Prod { left, right });
        assert!(bad.semiring_distribution(&vt, SemiringKind::Bool).is_err());
        // Mixed comparison.
        let mut bad = DTreeArena::new();
        let (left, right) = (bad.push(ArenaNode::MConst(Fin(1))), bad.var(a));
        let theta = CmpOp::Le;
        bad.push(ArenaNode::Cmp { theta, left, right });
        assert_eq!(
            bad.semiring_distribution(&vt, SemiringKind::Bool),
            Err(DTreeError::MixedComparison)
        );
    }

    #[test]
    fn size_statistics() {
        let (_, a, b, _) = table_abc(0.5, 0.5, 0.5);
        // (a ⊙ b) ⊕ ⊥, then the same under a ⊔ on a.
        let mut t = DTreeArena::new();
        let (left, right) = (t.var(a), t.var(b));
        let left = t.push(ArenaNode::Prod { left, right });
        let right = t.push(ArenaNode::SConst(SemiringValue::Bool(false)));
        let sum = t.push(ArenaNode::SumS { left, right });
        assert_eq!(t.num_nodes(), 5);
        assert_eq!(t.num_nodes(), t.len());
        assert_eq!(t.num_exclusive_nodes(), 0);
        t.exclusive(a, &[(SemiringValue::Bool(true), sum)]);
        assert_eq!(t.num_nodes(), 6);
        assert_eq!(t.num_exclusive_nodes(), 1);
    }

    #[test]
    fn display_renders() {
        let (_, a, b, _) = table_abc(0.5, 0.5, 0.5);
        let mut t = DTreeArena::new();
        let (left, right) = (t.var(a), t.var(b));
        t.push(ArenaNode::SumS { left, right });
        assert_eq!(t.to_string(), "(v0 ⊕ v1)");
    }
}
