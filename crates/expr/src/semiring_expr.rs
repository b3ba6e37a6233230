//! Semiring expressions `Φ ∈ K` over a set of random variables (Fig. 2 of the paper).
//!
//! ```text
//! Φ ::= x | Φ + Φ | Φ · Φ | [α θ α] | [Φ θ Φ] | s
//! ```
//!
//! Expressions are kept as owned trees with *n-ary* sums and products: the rewriting
//! of Fig. 4 produces wide, flat sums of products (one summand per contributing input
//! tuple), and the compiler's partitioning rules work directly on those child lists.

use crate::semimodule_expr::SemimoduleExpr;
use crate::vars::{Var, VarSet};
use pvc_algebra::{CmpOp, SemiringKind, SemiringValue};
use std::collections::BTreeMap;
use std::fmt;

/// A semiring expression over random variables (the `Φ` non-terminal of Fig. 2).
#[derive(Debug, Clone, PartialEq)]
pub enum SemiringExpr {
    /// A random-variable symbol `x ∈ X`.
    Var(Var),
    /// A constant `s ∈ S`.
    Const(SemiringValue),
    /// An n-ary sum `Φ_1 + … + Φ_n`.
    Add(Vec<SemiringExpr>),
    /// An n-ary product `Φ_1 · … · Φ_n`.
    Mul(Vec<SemiringExpr>),
    /// A conditional expression `[Φ θ Ψ]` comparing two semiring expressions.
    CmpSS(CmpOp, Box<SemiringExpr>, Box<SemiringExpr>),
    /// A conditional expression `[α θ β]` comparing two semimodule expressions.
    CmpMM(CmpOp, Box<SemimoduleExpr>, Box<SemimoduleExpr>),
}

impl SemiringExpr {
    /// The constant `1_S` of the given semiring.
    pub fn one(kind: SemiringKind) -> Self {
        SemiringExpr::Const(kind.one())
    }

    /// The constant `0_S` of the given semiring.
    pub fn zero(kind: SemiringKind) -> Self {
        SemiringExpr::Const(kind.zero())
    }

    /// An n-ary sum, flattening nested sums and skipping neutral summands.
    pub fn sum(children: Vec<SemiringExpr>) -> Self {
        let mut flat = Vec::with_capacity(children.len());
        for c in children {
            match c {
                SemiringExpr::Add(grand) => flat.extend(grand),
                SemiringExpr::Const(v) if v.is_zero() => {}
                other => flat.push(other),
            }
        }
        match flat.len() {
            1 => flat.pop().unwrap(),
            _ => SemiringExpr::Add(flat),
        }
    }

    /// An n-ary product, flattening nested products and skipping neutral factors.
    pub fn product(children: Vec<SemiringExpr>) -> Self {
        let mut flat = Vec::with_capacity(children.len());
        for c in children {
            match c {
                SemiringExpr::Mul(grand) => flat.extend(grand),
                SemiringExpr::Const(v) if v.is_one() => {}
                other => flat.push(other),
            }
        }
        match flat.len() {
            1 => flat.pop().unwrap(),
            _ => SemiringExpr::Mul(flat),
        }
    }

    /// A conditional `[Φ θ Ψ]` on semiring expressions.
    pub fn cmp_ss(theta: CmpOp, lhs: SemiringExpr, rhs: SemiringExpr) -> Self {
        SemiringExpr::CmpSS(theta, Box::new(lhs), Box::new(rhs))
    }

    /// A conditional `[α θ β]` on semimodule expressions.
    pub fn cmp_mm(theta: CmpOp, lhs: SemimoduleExpr, rhs: SemimoduleExpr) -> Self {
        SemiringExpr::CmpMM(theta, Box::new(lhs), Box::new(rhs))
    }

    /// The constant value, if this expression is a constant.
    pub fn as_const(&self) -> Option<SemiringValue> {
        match self {
            SemiringExpr::Const(v) => Some(*v),
            _ => None,
        }
    }

    /// True if the expression contains no variable symbols. A short-circuiting
    /// scan — no allocation, unlike [`vars`](Self::vars).
    pub fn is_ground(&self) -> bool {
        match self {
            SemiringExpr::Var(_) => false,
            SemiringExpr::Const(_) => true,
            SemiringExpr::Add(cs) | SemiringExpr::Mul(cs) => cs.iter().all(|c| c.is_ground()),
            SemiringExpr::CmpSS(_, a, b) => a.is_ground() && b.is_ground(),
            SemiringExpr::CmpMM(_, a, b) => {
                a.terms.iter().all(|t| t.coeff.is_ground())
                    && b.terms.iter().all(|t| t.coeff.is_ground())
            }
        }
    }

    /// The value of a ground expression, folded in the semiring its own constants
    /// belong to (`None` if a variable occurs). A ground expression means the same
    /// in every world, so no valuation is needed — and no ambient semiring either:
    /// an expression without any constant consists of empty sums, empty products
    /// and comparisons of such, which denote `0_S` / `1_S` of whichever semiring.
    pub fn ground_value(&self) -> Option<SemiringValue> {
        if !self.is_ground() {
            return None;
        }
        let kind = self.first_const().map_or(SemiringKind::Bool, |c| c.kind());
        Some(self.eval(&|v| unreachable!("ground expression mentions {v}"), kind))
    }

    fn first_const(&self) -> Option<SemiringValue> {
        match self {
            SemiringExpr::Var(_) => None,
            SemiringExpr::Const(c) => Some(*c),
            SemiringExpr::Add(cs) | SemiringExpr::Mul(cs) => {
                cs.iter().find_map(|c| c.first_const())
            }
            SemiringExpr::CmpSS(_, a, b) => a.first_const().or_else(|| b.first_const()),
            SemiringExpr::CmpMM(_, a, b) => a
                .terms
                .iter()
                .chain(&b.terms)
                .find_map(|t| t.coeff.first_const()),
        }
    }

    /// Collect the set of variables occurring in the expression.
    pub fn vars(&self) -> VarSet {
        let mut buf = Vec::new();
        self.collect_vars(&mut buf);
        VarSet::from_iter_of(buf)
    }

    /// Push every variable occurrence (with duplicates) onto `out`. This is the
    /// allocation-light primitive behind [`vars`](Self::vars), useful when the
    /// caller batches several expressions into one buffer.
    pub fn collect_vars(&self, out: &mut Vec<Var>) {
        match self {
            SemiringExpr::Var(v) => out.push(*v),
            SemiringExpr::Const(_) => {}
            SemiringExpr::Add(cs) | SemiringExpr::Mul(cs) => {
                for c in cs {
                    c.collect_vars(out);
                }
            }
            SemiringExpr::CmpSS(_, a, b) => {
                a.collect_vars(out);
                b.collect_vars(out);
            }
            SemiringExpr::CmpMM(_, a, b) => {
                for t in a.terms.iter().chain(&b.terms) {
                    t.coeff.collect_vars(out);
                }
            }
        }
    }

    /// Count how often each variable occurs (used by the compiler's
    /// most-occurrences heuristic for choosing the ⊔ variable).
    pub fn count_occurrences(&self, out: &mut BTreeMap<Var, usize>) {
        match self {
            SemiringExpr::Var(v) => *out.entry(*v).or_insert(0) += 1,
            SemiringExpr::Const(_) => {}
            SemiringExpr::Add(cs) | SemiringExpr::Mul(cs) => {
                for c in cs {
                    c.count_occurrences(out);
                }
            }
            SemiringExpr::CmpSS(_, a, b) => {
                a.count_occurrences(out);
                b.count_occurrences(out);
            }
            SemiringExpr::CmpMM(_, a, b) => {
                a.count_occurrences(out);
                b.count_occurrences(out);
            }
        }
    }

    /// The number of AST nodes (a size measure used in statistics and tests).
    pub fn num_nodes(&self) -> usize {
        match self {
            SemiringExpr::Var(_) | SemiringExpr::Const(_) => 1,
            SemiringExpr::Add(cs) | SemiringExpr::Mul(cs) => {
                1 + cs.iter().map(|c| c.num_nodes()).sum::<usize>()
            }
            SemiringExpr::CmpSS(_, a, b) => 1 + a.num_nodes() + b.num_nodes(),
            SemiringExpr::CmpMM(_, a, b) => 1 + a.num_nodes() + b.num_nodes(),
        }
    }

    /// Substitute a constant for every occurrence of a variable: `Φ|x←s` (Eq. 10).
    pub fn substitute(&self, var: Var, value: SemiringValue) -> SemiringExpr {
        match self {
            SemiringExpr::Var(v) if *v == var => SemiringExpr::Const(value),
            SemiringExpr::Var(_) | SemiringExpr::Const(_) => self.clone(),
            SemiringExpr::Add(cs) => {
                SemiringExpr::Add(cs.iter().map(|c| c.substitute(var, value)).collect())
            }
            SemiringExpr::Mul(cs) => {
                SemiringExpr::Mul(cs.iter().map(|c| c.substitute(var, value)).collect())
            }
            SemiringExpr::CmpSS(op, a, b) => SemiringExpr::CmpSS(
                *op,
                Box::new(a.substitute(var, value)),
                Box::new(b.substitute(var, value)),
            ),
            SemiringExpr::CmpMM(op, a, b) => SemiringExpr::CmpMM(
                *op,
                Box::new(a.substitute(var, value)),
                Box::new(b.substitute(var, value)),
            ),
        }
    }

    /// Evaluate the expression under a total valuation of its variables
    /// (the semiring homomorphism extending the valuation, §3 of the paper).
    ///
    /// `kind` fixes the ambient semiring used for the `0_S`/`1_S` results of
    /// conditional sub-expressions and for empty sums/products.
    pub fn eval(
        &self,
        valuation: &dyn Fn(Var) -> SemiringValue,
        kind: SemiringKind,
    ) -> SemiringValue {
        match self {
            SemiringExpr::Var(v) => valuation(*v),
            SemiringExpr::Const(c) => *c,
            SemiringExpr::Add(cs) => cs
                .iter()
                .map(|c| c.eval(valuation, kind))
                .fold(kind.zero(), |a, b| a.add(&b)),
            SemiringExpr::Mul(cs) => cs
                .iter()
                .map(|c| c.eval(valuation, kind))
                .fold(kind.one(), |a, b| a.mul(&b)),
            SemiringExpr::CmpSS(op, a, b) => {
                let va = a.eval(valuation, kind);
                let vb = b.eval(valuation, kind);
                if op.eval(&va, &vb) {
                    kind.one()
                } else {
                    kind.zero()
                }
            }
            SemiringExpr::CmpMM(op, a, b) => {
                let va = a.eval(valuation, kind);
                let vb = b.eval(valuation, kind);
                if op.eval(&va, &vb) {
                    kind.one()
                } else {
                    kind.zero()
                }
            }
        }
    }

    /// Simplify by constant folding: flatten sums/products, drop neutral elements,
    /// short-circuit on the annihilator of a product (`0_S`) and on the absorbing
    /// element of a sum (`⊤` in `B`; `N` has none), and evaluate ground conditional
    /// expressions.
    pub fn simplify(&self, kind: SemiringKind) -> SemiringExpr {
        match self {
            SemiringExpr::Var(_) | SemiringExpr::Const(_) => self.clone(),
            SemiringExpr::Add(cs) => {
                let mut const_acc = kind.zero();
                let mut rest = Vec::new();
                for c in cs {
                    match c.simplify(kind) {
                        SemiringExpr::Const(v) => {
                            const_acc = const_acc.add(&v);
                            if const_acc.absorbs_add() {
                                return SemiringExpr::Const(const_acc);
                            }
                        }
                        SemiringExpr::Add(grand) => rest.extend(grand),
                        other => rest.push(other),
                    }
                }
                if !const_acc.is_zero() || rest.is_empty() {
                    rest.push(SemiringExpr::Const(const_acc));
                }
                if rest.len() == 1 {
                    rest.pop().unwrap()
                } else {
                    SemiringExpr::Add(rest)
                }
            }
            SemiringExpr::Mul(cs) => {
                let mut const_acc = kind.one();
                let mut rest = Vec::new();
                for c in cs {
                    match c.simplify(kind) {
                        SemiringExpr::Const(v) => {
                            if v.is_zero() {
                                return SemiringExpr::Const(kind.zero());
                            }
                            const_acc = const_acc.mul(&v);
                        }
                        SemiringExpr::Mul(grand) => rest.extend(grand),
                        other => rest.push(other),
                    }
                }
                if !const_acc.is_one() || rest.is_empty() {
                    rest.push(SemiringExpr::Const(const_acc));
                }
                if rest.len() == 1 {
                    rest.pop().unwrap()
                } else {
                    SemiringExpr::Mul(rest)
                }
            }
            SemiringExpr::CmpSS(op, a, b) => {
                let sa = a.simplify(kind);
                let sb = b.simplify(kind);
                if let (Some(ca), Some(cb)) = (sa.as_const(), sb.as_const()) {
                    let holds = op.eval(&ca, &cb);
                    return SemiringExpr::Const(if holds { kind.one() } else { kind.zero() });
                }
                SemiringExpr::CmpSS(*op, Box::new(sa), Box::new(sb))
            }
            SemiringExpr::CmpMM(op, a, b) => {
                let sa = a.simplify(kind);
                let sb = b.simplify(kind);
                if let (Some(ca), Some(cb)) = (sa.as_const(), sb.as_const()) {
                    let holds = op.eval(&ca, &cb);
                    return SemiringExpr::Const(if holds { kind.one() } else { kind.zero() });
                }
                SemiringExpr::CmpMM(*op, Box::new(sa), Box::new(sb))
            }
        }
    }
}

impl From<Var> for SemiringExpr {
    fn from(v: Var) -> Self {
        SemiringExpr::Var(v)
    }
}

impl From<SemiringValue> for SemiringExpr {
    fn from(v: SemiringValue) -> Self {
        SemiringExpr::Const(v)
    }
}

impl std::ops::Add for SemiringExpr {
    type Output = SemiringExpr;
    fn add(self, rhs: SemiringExpr) -> SemiringExpr {
        SemiringExpr::sum(vec![self, rhs])
    }
}

impl std::ops::Mul for SemiringExpr {
    type Output = SemiringExpr;
    fn mul(self, rhs: SemiringExpr) -> SemiringExpr {
        SemiringExpr::product(vec![self, rhs])
    }
}

impl fmt::Display for SemiringExpr {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        match self {
            SemiringExpr::Var(v) => write!(f, "{v}"),
            SemiringExpr::Const(c) => write!(f, "{c}"),
            SemiringExpr::Add(cs) => {
                write!(f, "(")?;
                for (i, c) in cs.iter().enumerate() {
                    if i > 0 {
                        write!(f, " + ")?;
                    }
                    write!(f, "{c}")?;
                }
                write!(f, ")")
            }
            SemiringExpr::Mul(cs) => {
                for (i, c) in cs.iter().enumerate() {
                    if i > 0 {
                        write!(f, "·")?;
                    }
                    match c {
                        SemiringExpr::Add(_) => write!(f, "{c}")?,
                        _ => write!(f, "{c}")?,
                    }
                }
                Ok(())
            }
            SemiringExpr::CmpSS(op, a, b) => write!(f, "[{a} {op} {b}]"),
            SemiringExpr::CmpMM(op, a, b) => write!(f, "[{a} {op} {b}]"),
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::vars::VarTable;
    use pvc_algebra::MonoidValue;

    fn v(i: u32) -> SemiringExpr {
        SemiringExpr::Var(Var(i))
    }

    #[test]
    fn builders_flatten() {
        let e = SemiringExpr::sum(vec![
            v(1),
            SemiringExpr::sum(vec![v(2), v(3)]),
            SemiringExpr::zero(SemiringKind::Bool),
        ]);
        match &e {
            SemiringExpr::Add(cs) => assert_eq!(cs.len(), 3),
            other => panic!("expected sum, got {other:?}"),
        }
        let p = SemiringExpr::product(vec![v(1), SemiringExpr::product(vec![v(2), v(3)])]);
        match &p {
            SemiringExpr::Mul(cs) => assert_eq!(cs.len(), 3),
            other => panic!("expected product, got {other:?}"),
        }
        // Singleton sums/products collapse to the child.
        assert_eq!(SemiringExpr::sum(vec![v(7)]), v(7));
        assert_eq!(SemiringExpr::product(vec![v(7)]), v(7));
    }

    #[test]
    fn vars_and_occurrences() {
        let e = (v(1) * v(2) + v(1) * v(3)) * v(4);
        let vars = e.vars();
        assert_eq!(vars.len(), 4);
        let mut occ = BTreeMap::new();
        e.count_occurrences(&mut occ);
        assert_eq!(occ[&Var(1)], 2);
        assert_eq!(occ[&Var(4)], 1);
        assert_eq!(e.num_nodes(), 9);
    }

    #[test]
    fn substitution_replaces_all_occurrences() {
        let e = v(1) * (v(2) + v(1));
        let s = e.substitute(Var(1), SemiringValue::Bool(true));
        assert!(!s.vars().contains(Var(1)));
        assert!(s.vars().contains(Var(2)));
    }

    #[test]
    fn eval_boolean_annotation() {
        // x1·y11·(z1 + z5) from Figure 1d of the paper.
        let mut vt = VarTable::new();
        let x1 = vt.boolean("x1", 0.5);
        let y11 = vt.boolean("y11", 0.5);
        let z1 = vt.boolean("z1", 0.5);
        let z5 = vt.boolean("z5", 0.5);
        let e = SemiringExpr::Var(x1)
            * SemiringExpr::Var(y11)
            * (SemiringExpr::Var(z1) + SemiringExpr::Var(z5));
        let world = |truth: Vec<(Var, bool)>| {
            move |v: Var| {
                SemiringValue::Bool(
                    truth
                        .iter()
                        .find(|(w, _)| *w == v)
                        .map(|(_, b)| *b)
                        .unwrap_or(false),
                )
            }
        };
        let all = world(vec![(x1, true), (y11, true), (z1, true), (z5, false)]);
        assert_eq!(e.eval(&all, SemiringKind::Bool), SemiringValue::Bool(true));
        let no_z = world(vec![(x1, true), (y11, true)]);
        assert_eq!(
            e.eval(&no_z, SemiringKind::Bool),
            SemiringValue::Bool(false)
        );
    }

    #[test]
    fn eval_bag_semantics() {
        // Under N the same expression computes multiplicities.
        let e = v(0) * (v(1) + v(2));
        let val = |x: Var| SemiringValue::Nat([2, 3, 4][x.0 as usize]);
        assert_eq!(e.eval(&val, SemiringKind::Nat), SemiringValue::Nat(14));
    }

    #[test]
    fn simplify_constant_folding() {
        let kind = SemiringKind::Bool;
        // ⊤ · (x + ⊥) simplifies to x.
        let e = SemiringExpr::one(kind) * (v(1) + SemiringExpr::zero(kind));
        assert_eq!(e.simplify(kind), v(1));
        // ⊥ · x simplifies to ⊥.
        let e = SemiringExpr::product(vec![SemiringExpr::Const(SemiringValue::Bool(false)), v(1)]);
        assert_eq!(
            e.simplify(kind),
            SemiringExpr::Const(SemiringValue::Bool(false))
        );
        // A ground conditional folds to a constant.
        let c = SemiringExpr::cmp_ss(
            CmpOp::Le,
            SemiringExpr::Const(SemiringValue::Nat(3)),
            SemiringExpr::Const(SemiringValue::Nat(5)),
        );
        assert_eq!(
            c.simplify(SemiringKind::Nat),
            SemiringExpr::Const(SemiringValue::Nat(1))
        );
    }

    #[test]
    fn top_absorbs_a_boolean_sum_and_nothing_absorbs_a_natural_one() {
        use crate::oracle::semiring_dist_by_enumeration;
        let top = SemiringExpr::Const(SemiringValue::Bool(true));
        let mut vt = VarTable::new();
        let x = SemiringExpr::Var(vt.boolean("x", 0.3));
        let y = SemiringExpr::Var(vt.boolean("y", 0.6));
        let z = SemiringExpr::Var(vt.boolean("z", 0.8));
        let kind = SemiringKind::Bool;
        for (e, expected) in [
            (SemiringExpr::Add(vec![x.clone(), top.clone()]), &top),
            (
                SemiringExpr::Add(vec![x.clone() * y.clone(), top.clone(), z.clone()]),
                &top,
            ),
            // Below a product the sum is gone, the product stays.
            (
                z.clone() * SemiringExpr::Add(vec![top.clone(), x.clone()]),
                &z,
            ),
        ] {
            let simple = e.simplify(kind);
            assert_eq!(&simple, expected, "{e}");
            let want = semiring_dist_by_enumeration(&e, &vt, kind);
            assert!(semiring_dist_by_enumeration(&simple, &vt, kind).approx_eq(&want, 1e-12));
        }

        // In N, x + 1 depends on x: it must stay a sum.
        let mut vt = VarTable::new();
        let x = SemiringExpr::Var(vt.natural("x", &[(0, 0.2), (1, 0.3), (2, 0.5)]));
        let kind = SemiringKind::Nat;
        let e = SemiringExpr::Add(vec![x, SemiringExpr::Const(SemiringValue::Nat(1))]);
        let simple = e.simplify(kind);
        assert!(
            matches!(&simple, SemiringExpr::Add(cs) if cs.len() == 2),
            "{simple}"
        );
        let want = semiring_dist_by_enumeration(&e, &vt, kind);
        assert_eq!(want.support_size(), 3);
        assert!(semiring_dist_by_enumeration(&simple, &vt, kind).approx_eq(&want, 1e-12));
    }

    #[test]
    fn ground_values_fold_in_the_constants_own_semiring() {
        let nat = |n| SemiringExpr::Const(SemiringValue::Nat(n));
        let e = SemiringExpr::Add(vec![nat(2), nat(3)]) * nat(4);
        assert_eq!(e.ground_value(), Some(SemiringValue::Nat(20)));
        let b = SemiringExpr::Add(vec![
            SemiringExpr::Const(SemiringValue::Bool(true)),
            SemiringExpr::Const(SemiringValue::Bool(true)),
        ]);
        assert_eq!(b.ground_value(), Some(SemiringValue::Bool(true)));
        // Without any constant: 0_S and 1_S of whichever semiring.
        assert!(SemiringExpr::Add(vec![]).ground_value().unwrap().is_zero());
        assert!(SemiringExpr::Mul(vec![]).ground_value().unwrap().is_one());
        assert_eq!((v(1) + nat(1)).ground_value(), None);
    }

    #[test]
    fn simplify_nat_constant_accumulation() {
        let kind = SemiringKind::Nat;
        let e = SemiringExpr::sum(vec![
            SemiringExpr::Const(SemiringValue::Nat(2)),
            v(1),
            SemiringExpr::Const(SemiringValue::Nat(3)),
        ]);
        match e.simplify(kind) {
            SemiringExpr::Add(cs) => {
                assert_eq!(cs.len(), 2);
                assert!(cs.contains(&SemiringExpr::Const(SemiringValue::Nat(5))));
            }
            other => panic!("unexpected {other:?}"),
        }
    }

    #[test]
    fn conditional_on_semimodule_expressions() {
        // [x⊗10 +min y⊗20 ≤ 15] — evaluates per Eq. (2).
        let mut vt = VarTable::new();
        let x = vt.boolean("x", 0.5);
        let y = vt.boolean("y", 0.5);
        let alpha = SemimoduleExpr::from_terms(
            pvc_algebra::AggOp::Min,
            vec![
                (SemiringExpr::Var(x), MonoidValue::Fin(10)),
                (SemiringExpr::Var(y), MonoidValue::Fin(20)),
            ],
        );
        let beta = SemimoduleExpr::constant(pvc_algebra::AggOp::Min, MonoidValue::Fin(15));
        let cond = SemiringExpr::cmp_mm(CmpOp::Le, alpha, beta);
        let world =
            |xv: bool, yv: bool| move |v: Var| SemiringValue::Bool(if v == x { xv } else { yv });
        assert_eq!(
            cond.eval(&world(true, false), SemiringKind::Bool),
            SemiringValue::Bool(true)
        );
        // Neither present: the MIN is +∞ which is not ≤ 15.
        assert_eq!(
            cond.eval(&world(false, false), SemiringKind::Bool),
            SemiringValue::Bool(false)
        );
        // Only y: min is 20, not ≤ 15.
        assert_eq!(
            cond.eval(&world(false, true), SemiringKind::Bool),
            SemiringValue::Bool(false)
        );
    }

    #[test]
    fn display_is_readable() {
        let e = v(1) * (v(2) + v(3));
        assert_eq!(e.to_string(), "v1·(v2 + v3)");
    }
}
