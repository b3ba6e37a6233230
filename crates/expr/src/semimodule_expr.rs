//! Semimodule expressions `α ∈ K ⊗ M` (Fig. 2 of the paper):
//!
//! ```text
//! α ::= Φ⊗m {+op Φ⊗m} | m
//! ```
//!
//! A semimodule expression is a `+op`-sum of terms `Φ ⊗ m`, where `Φ` is a semiring
//! expression and `m` a value of the aggregation monoid. We keep exactly this flat
//! shape; constants `m` are represented as terms with coefficient `1_S`
//! ([`SmTerm::is_constant`] recognises them).

use crate::semiring_expr::SemiringExpr;
use crate::vars::{Var, VarSet};
use pvc_algebra::{AggOp, MonoidValue, SemiringKind, SemiringValue};
use std::collections::BTreeMap;
use std::fmt;

/// One term `Φ ⊗ m` of a semimodule expression.
#[derive(Debug, Clone, PartialEq)]
pub struct SmTerm {
    /// The semiring coefficient `Φ`.
    pub coeff: SemiringExpr,
    /// The aggregated monoid value `m`.
    pub value: MonoidValue,
}

impl SmTerm {
    /// A term with an explicit coefficient.
    pub fn new(coeff: SemiringExpr, value: MonoidValue) -> Self {
        SmTerm { coeff, value }
    }

    /// True if the coefficient is the constant `1_S`, i.e. the term is simply the
    /// monoid constant `m`.
    pub fn is_constant(&self) -> bool {
        self.coeff.as_const().map(|c| c.is_one()).unwrap_or(false)
    }

    /// The variables occurring in the coefficient.
    pub fn vars(&self) -> VarSet {
        self.coeff.vars()
    }
}

/// A semimodule expression: a `+op` sum of `Φ ⊗ m` terms over one aggregation monoid.
#[derive(Debug, Clone, PartialEq)]
pub struct SemimoduleExpr {
    /// The aggregation monoid in which the terms are summed.
    pub op: AggOp,
    /// The terms of the sum. An empty list denotes the neutral element `0_M`.
    pub terms: Vec<SmTerm>,
}

impl SemimoduleExpr {
    /// The neutral element `0_M` of the monoid.
    pub fn zero(op: AggOp) -> Self {
        SemimoduleExpr { op, terms: vec![] }
    }

    /// A constant monoid value `m` (coefficient `1_S`; the ambient semiring does not
    /// matter for constants, we use the Boolean `⊤`).
    pub fn constant(op: AggOp, value: MonoidValue) -> Self {
        SemimoduleExpr {
            op,
            terms: vec![SmTerm::new(
                SemiringExpr::Const(SemiringValue::Bool(true)),
                value,
            )],
        }
    }

    /// A constant in an explicitly chosen semiring (used when the engine runs under
    /// bag semantics and `1_S = 1 ∈ N`).
    pub fn constant_in(op: AggOp, value: MonoidValue, kind: SemiringKind) -> Self {
        SemimoduleExpr {
            op,
            terms: vec![SmTerm::new(SemiringExpr::Const(kind.one()), value)],
        }
    }

    /// A single term `Φ ⊗ m`.
    pub fn tensor(op: AggOp, coeff: SemiringExpr, value: MonoidValue) -> Self {
        SemimoduleExpr {
            op,
            terms: vec![SmTerm::new(coeff, value)],
        }
    }

    /// Build from a list of `(coefficient, value)` pairs.
    pub fn from_terms(op: AggOp, terms: Vec<(SemiringExpr, MonoidValue)>) -> Self {
        SemimoduleExpr {
            op,
            terms: terms.into_iter().map(|(c, v)| SmTerm::new(c, v)).collect(),
        }
    }

    /// Append a term to the sum.
    pub fn push(&mut self, coeff: SemiringExpr, value: MonoidValue) {
        self.terms.push(SmTerm::new(coeff, value));
    }

    /// The `+op` sum of two semimodule expressions over the same monoid.
    ///
    /// Panics if the monoids differ — summing across monoids is not defined.
    pub fn add(&self, other: &SemimoduleExpr) -> SemimoduleExpr {
        assert_eq!(self.op, other.op, "cannot sum across different monoids");
        let mut terms = self.terms.clone();
        terms.extend(other.terms.iter().cloned());
        SemimoduleExpr { op: self.op, terms }
    }

    /// Scalar multiplication `Φ ⊗ α`, distributing the coefficient over the terms
    /// (by the semimodule law `(s1·s2) ⊗ m = s1 ⊗ (s2 ⊗ m)`).
    pub fn scale(&self, coeff: &SemiringExpr) -> SemimoduleExpr {
        SemimoduleExpr {
            op: self.op,
            terms: self
                .terms
                .iter()
                .map(|t| SmTerm::new(coeff.clone() * t.coeff.clone(), t.value))
                .collect(),
        }
    }

    /// Number of terms.
    pub fn num_terms(&self) -> usize {
        self.terms.len()
    }

    /// The number of AST nodes, counting each term's coefficient tree plus the value.
    pub fn num_nodes(&self) -> usize {
        1 + self
            .terms
            .iter()
            .map(|t| t.coeff.num_nodes() + 1)
            .sum::<usize>()
    }

    /// The set of variables occurring in the expression.
    pub fn vars(&self) -> VarSet {
        let mut buf = Vec::new();
        for t in &self.terms {
            t.coeff.collect_vars(&mut buf);
        }
        VarSet::from_iter_of(buf)
    }

    /// True if no coefficient contains a variable symbol (short-circuiting, no
    /// allocation).
    pub fn is_ground(&self) -> bool {
        self.terms.iter().all(|t| t.coeff.is_ground())
    }

    /// Count variable occurrences across all coefficients.
    pub fn count_occurrences(&self, out: &mut BTreeMap<Var, usize>) {
        for t in &self.terms {
            t.coeff.count_occurrences(out);
        }
    }

    /// Substitute a constant for every occurrence of a variable: `α|x←s`.
    pub fn substitute(&self, var: Var, value: SemiringValue) -> SemimoduleExpr {
        SemimoduleExpr {
            op: self.op,
            terms: self
                .terms
                .iter()
                .map(|t| SmTerm::new(t.coeff.substitute(var, value), t.value))
                .collect(),
        }
    }

    /// Evaluate under a total valuation: apply the scalar action term-wise and fold in
    /// the monoid (the monoid homomorphism of §3 / Example 6 of the paper).
    pub fn eval(
        &self,
        valuation: &dyn Fn(Var) -> SemiringValue,
        kind: SemiringKind,
    ) -> MonoidValue {
        self.terms
            .iter()
            .map(|t| {
                let c = t.coeff.eval(valuation, kind);
                self.op.scalar_action(&c, &t.value)
            })
            .fold(self.op.identity(), |a, b| self.op.combine(&a, &b))
    }

    /// Simplify every coefficient and fold terms whose coefficient became a constant.
    ///
    /// Terms with coefficient `0_S` vanish (they contribute the neutral element);
    /// constant coefficients are applied to their value via the scalar action, and all
    /// resulting constants are folded into a single constant term.
    pub fn simplify(&self, kind: SemiringKind) -> SemimoduleExpr {
        let mut const_acc: Option<MonoidValue> = None;
        let mut terms = Vec::with_capacity(self.terms.len());
        for t in &self.terms {
            let coeff = t.coeff.simplify(kind);
            match coeff.as_const() {
                Some(c) if c.is_zero() => {}
                Some(c) => {
                    let v = self.op.scalar_action(&c, &t.value);
                    const_acc = Some(match const_acc {
                        None => v,
                        Some(acc) => self.op.combine(&acc, &v),
                    });
                }
                None => terms.push(SmTerm::new(coeff, t.value)),
            }
        }
        if let Some(c) = const_acc {
            // Keep the folded constant unless it is the monoid's neutral element and
            // other terms remain.
            if c != self.op.identity() || terms.is_empty() {
                terms.push(SmTerm::new(SemiringExpr::Const(kind.one()), c));
            }
        }
        SemimoduleExpr { op: self.op, terms }
    }

    /// The single constant value, if the whole expression is ground. Every
    /// coefficient is folded in its own semiring
    /// ([`SemiringExpr::ground_value`]), so `(2 + 3) ⊗ 10` is a constant whether
    /// or not it has been simplified.
    pub fn as_const(&self) -> Option<MonoidValue> {
        self.terms.iter().try_fold(self.op.identity(), |acc, t| {
            let c = t.coeff.ground_value()?;
            Some(self.op.combine(&acc, &self.op.scalar_action(&c, &t.value)))
        })
    }
}

impl fmt::Display for SemimoduleExpr {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        if self.terms.is_empty() {
            return write!(f, "0_{}", self.op);
        }
        for (i, t) in self.terms.iter().enumerate() {
            if i > 0 {
                write!(f, " +{} ", self.op.to_string().to_lowercase())?;
            }
            if t.is_constant() {
                write!(f, "{}", t.value)?;
            } else {
                write!(f, "{}⊗{}", t.coeff, t.value)?;
            }
        }
        Ok(())
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::vars::VarTable;
    use pvc_algebra::MonoidValue::Fin;

    fn valuation(pairs: Vec<(Var, SemiringValue)>) -> impl Fn(Var) -> SemiringValue {
        move |v| {
            pairs
                .iter()
                .find(|(w, _)| *w == v)
                .map(|(_, s)| *s)
                .unwrap_or(SemiringValue::Bool(false))
        }
    }

    #[test]
    fn example_5_aggregation_over_weights() {
        // α = z1⊗4 + z2⊗8 + z3⊗7 + z4⊗6 over relation P1 of Figure 1.
        let mut vt = VarTable::new();
        let zs: Vec<Var> = (1..=4).map(|i| vt.boolean(format!("z{i}"), 0.5)).collect();
        let weights = [4, 8, 7, 6];
        let alpha = SemimoduleExpr::from_terms(
            AggOp::Sum,
            zs.iter()
                .zip(weights)
                .map(|(z, w)| (SemiringExpr::Var(*z), Fin(w)))
                .collect(),
        );
        assert_eq!(alpha.num_terms(), 4);
        // Example 6 continuation: SUM with z1,z2 ↦ 2 (bag) and z3,z4 ↦ 0 gives 24.
        let nat_val = |v: Var| {
            if v == zs[0] || v == zs[1] {
                SemiringValue::Nat(2)
            } else {
                SemiringValue::Nat(0)
            }
        };
        assert_eq!(alpha.eval(&nat_val, SemiringKind::Nat), Fin(24));
        // MIN with z1 ↦ ⊥ and the rest ⊤ gives 6.
        let min_alpha = SemimoduleExpr::from_terms(
            AggOp::Min,
            zs.iter()
                .zip(weights)
                .map(|(z, w)| (SemiringExpr::Var(*z), Fin(w)))
                .collect(),
        );
        let bool_val = valuation(vec![
            (zs[1], SemiringValue::Bool(true)),
            (zs[2], SemiringValue::Bool(true)),
            (zs[3], SemiringValue::Bool(true)),
        ]);
        assert_eq!(min_alpha.eval(&bool_val, SemiringKind::Bool), Fin(6));
        // All variables mapped to 0_S give the neutral element (+∞ for MIN).
        let none = valuation(vec![]);
        assert_eq!(
            min_alpha.eval(&none, SemiringKind::Bool),
            MonoidValue::PosInf
        );
        assert_eq!(alpha.eval(&none, SemiringKind::Bool), Fin(0));
    }

    #[test]
    fn example_6_monoid_homomorphism() {
        // α = xy ⊗ 5 +min (x+z) ⊗ 10 with x ↦ 2, y ↦ 3, z ↦ 0 evaluates to 5.
        let mut vt = VarTable::new();
        let x = vt.natural("x", &[(2, 1.0)]);
        let y = vt.natural("y", &[(3, 1.0)]);
        let z = vt.natural("z", &[(0, 1.0)]);
        let alpha = SemimoduleExpr::from_terms(
            AggOp::Min,
            vec![
                (SemiringExpr::Var(x) * SemiringExpr::Var(y), Fin(5)),
                (SemiringExpr::Var(x) + SemiringExpr::Var(z), Fin(10)),
            ],
        );
        let val = |v: Var| {
            SemiringValue::Nat(match v {
                w if w == x => 2,
                w if w == y => 3,
                _ => 0,
            })
        };
        assert_eq!(alpha.eval(&val, SemiringKind::Nat), Fin(5));
    }

    #[test]
    fn substitution_and_simplification() {
        let mut vt = VarTable::new();
        let a = vt.boolean("a", 0.5);
        let b = vt.boolean("b", 0.5);
        // a⊗10 +sum b⊗20, substitute a ← ⊤.
        let alpha = SemimoduleExpr::from_terms(
            AggOp::Sum,
            vec![
                (SemiringExpr::Var(a), Fin(10)),
                (SemiringExpr::Var(b), Fin(20)),
            ],
        );
        let subst = alpha.substitute(a, SemiringValue::Bool(true));
        let simp = subst.simplify(SemiringKind::Bool);
        // The first term became the constant 10; b⊗20 remains symbolic.
        assert_eq!(simp.num_terms(), 2);
        assert!(simp
            .terms
            .iter()
            .any(|t| t.is_constant() && t.value == Fin(10)));
        // Substituting ⊥ removes the term entirely.
        let gone = alpha
            .substitute(a, SemiringValue::Bool(false))
            .simplify(SemiringKind::Bool);
        assert_eq!(gone.num_terms(), 1);
    }

    #[test]
    fn scale_distributes() {
        let mut vt = VarTable::new();
        let x = vt.boolean("x", 0.5);
        let y = vt.boolean("y", 0.5);
        let z = vt.boolean("z", 0.5);
        let alpha = SemimoduleExpr::from_terms(
            AggOp::Max,
            vec![
                (SemiringExpr::Var(y), Fin(1)),
                (SemiringExpr::Var(z), Fin(2)),
            ],
        );
        let scaled = alpha.scale(&SemiringExpr::Var(x));
        assert_eq!(scaled.num_terms(), 2);
        for t in &scaled.terms {
            assert!(t.vars().contains(x));
        }
    }

    #[test]
    fn add_requires_same_monoid() {
        let a = SemimoduleExpr::constant(AggOp::Min, Fin(1));
        let b = SemimoduleExpr::constant(AggOp::Min, Fin(2));
        assert_eq!(a.add(&b).num_terms(), 2);
    }

    #[test]
    #[should_panic(expected = "different monoids")]
    fn add_across_monoids_panics() {
        let a = SemimoduleExpr::constant(AggOp::Min, Fin(1));
        let b = SemimoduleExpr::constant(AggOp::Max, Fin(2));
        let _ = a.add(&b);
    }

    #[test]
    fn ground_expressions_fold_to_constants() {
        let e = SemimoduleExpr::from_terms(
            AggOp::Sum,
            vec![
                (SemiringExpr::Const(SemiringValue::Bool(true)), Fin(3)),
                (SemiringExpr::Const(SemiringValue::Bool(true)), Fin(4)),
            ],
        );
        assert_eq!(e.as_const(), Some(Fin(7)));
        let simp = e.simplify(SemiringKind::Bool);
        assert_eq!(simp.num_terms(), 1);
        assert_eq!(simp.terms[0].value, Fin(7));
        // Zero of the monoid.
        assert_eq!(
            SemimoduleExpr::zero(AggOp::Min).as_const(),
            Some(MonoidValue::PosInf)
        );
    }

    #[test]
    fn unfolded_ground_coefficients_are_constants_too() {
        // (2 + 3)⊗10 and (2·3)⊗10: ground, N-valued, not yet simplified.
        let nat = |n| SemiringExpr::Const(SemiringValue::Nat(n));
        let sum = SemiringExpr::Add(vec![nat(2), nat(3)]);
        let product = SemiringExpr::Mul(vec![nat(2), nat(3)]);
        for (op, coeff, expected) in [
            (AggOp::Sum, &sum, 50),
            (AggOp::Sum, &product, 60),
            (AggOp::Min, &sum, 10),
            (AggOp::Min, &product, 10),
        ] {
            let e = SemimoduleExpr::from_terms(op, vec![(coeff.clone(), Fin(10))]);
            assert_eq!(e.as_const(), Some(Fin(expected)), "{op} {coeff}");
            assert_eq!(
                e.simplify(SemiringKind::Nat).as_const(),
                Some(Fin(expected))
            );
            let vt = VarTable::new();
            let dist = crate::oracle::semimodule_dist_by_enumeration(&e, &vt, SemiringKind::Nat);
            assert!((dist.prob(&Fin(expected)) - 1.0).abs() < 1e-12);
        }
        // Next to a Boolean-annotated constant, as `SemimoduleExpr::constant` makes.
        let mixed = SemimoduleExpr::from_terms(AggOp::Sum, vec![(sum, Fin(10))])
            .add(&SemimoduleExpr::constant(AggOp::Sum, Fin(7)));
        assert_eq!(mixed.as_const(), Some(Fin(57)));
        // A variable anywhere: not a constant.
        let open = SemimoduleExpr::from_terms(
            AggOp::Sum,
            vec![(nat(2), Fin(1)), (SemiringExpr::Var(Var(0)), Fin(1))],
        );
        assert_eq!(open.as_const(), None);
    }

    #[test]
    fn display() {
        let mut vt = VarTable::new();
        let x = vt.boolean("x", 0.5);
        let e = SemimoduleExpr::from_terms(AggOp::Min, vec![(SemiringExpr::Var(x), Fin(10))])
            .add(&SemimoduleExpr::constant(AggOp::Min, Fin(20)));
        assert_eq!(e.to_string(), "v0⊗10 +min 20");
    }
}
