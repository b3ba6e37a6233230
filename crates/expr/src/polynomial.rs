//! Tests of a [`SemiringExpr`] read over `N` as a polynomial in `N[X]` (§2.2 of the
//! paper): evaluation is the semiring homomorphism that extends a valuation, so
//! expressions equal as polynomials take equal values in every world.

#[cfg(test)]
mod tests {
    use crate::factor::{common_factor_vars, divide_by_vars};
    use crate::intern::{InternedExpr, Interner};
    use crate::semiring_expr::SemiringExpr;
    use crate::vars::Var;
    use pvc_algebra::{SemiringKind, SemiringValue};

    fn x(i: u32) -> SemiringExpr {
        SemiringExpr::Var(Var(i))
    }

    fn nat(n: u64) -> SemiringExpr {
        SemiringExpr::Const(SemiringValue::Nat(n))
    }

    #[test]
    fn distributivity_identifies_expressions() {
        // The paper: x1(x2 + x3) equals x1x2 + x1x3 by the distributivity law.
        let factored = x(1) * (x(2) + x(3));
        let expanded = x(1) * x(2) + x(1) * x(3);
        // Equal in every world of N^3 with multiplicities up to 3 ...
        for world in 0..4u64.pow(3) {
            let valuation = |v: Var| SemiringValue::Nat(world / 4u64.pow(v.0 - 1) % 4);
            assert_eq!(
                factored.eval(&valuation, SemiringKind::Nat),
                expanded.eval(&valuation, SemiringKind::Nat),
                "world {world}"
            );
        }
        // ... and the same node once the common factor x1 is pulled out of the sum.
        let mut arena = Interner::new();
        let (factored, expanded) = (arena.intern(&factored), arena.intern(&expanded));
        let InternedExpr::Add(summands) = arena.node(expanded) else {
            panic!("x1x2 + x1x3 interns as a sum");
        };
        let summands = summands.to_vec();
        let common = common_factor_vars(&arena, summands.iter().copied());
        assert_eq!(common.as_slice(), &[Var(1)]);
        let quotients: Vec<_> = summands
            .iter()
            .map(|&s| divide_by_vars(&mut arena, s, &common).expect("x2 or x3 remains"))
            .collect();
        let sum = arena.intern_add(&quotients);
        let x1 = arena.intern(&x(1));
        assert_eq!(arena.intern_mul(&[x1, sum]), factored);
    }

    #[test]
    fn eval_is_a_homomorphism_into_naturals() {
        let p = x(1) * (x(2) + x(3)) + nat(2);
        let q = x(2) * x(2) + x(1);
        let valuation = |v: Var| SemiringValue::Nat(u64::from(v.0) + 1);
        let eval = |e: &SemiringExpr| e.eval(&valuation, SemiringKind::Nat);
        // hom(p + q) = hom(p) + hom(q) and hom(p·q) = hom(p)·hom(q).
        assert_eq!(eval(&(p.clone() + q.clone())), eval(&p).add(&eval(&q)));
        assert_eq!(eval(&(p.clone() * q.clone())), eval(&p).mul(&eval(&q)));
        // Spot-check the actual value: x1=2, x2=3, x3=4 ⇒ 2·(3+4)+2 = 16.
        assert_eq!(eval(&p), SemiringValue::Nat(16));
    }

    #[test]
    fn eval_into_booleans_gives_set_semantics() {
        // x1(x2 + x3): present iff x1 and at least one of x2, x3 are present.
        let p = x(1) * (x(2) + x(3));
        let present = |world: &[u32]| {
            let valuation = |v: Var| SemiringValue::Bool(world.contains(&v.0));
            p.eval(&valuation, SemiringKind::Bool).as_bool()
        };
        assert!(present(&[1, 2]));
        assert!(present(&[1, 3]));
        assert!(!present(&[2, 3]));
        assert!(!present(&[1]));
    }
}
