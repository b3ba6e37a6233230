//! Tests of a [`SemiringExpr`] read over `B` as a positive Boolean formula in
//! `PosBool(X)` (§2.2 of the paper), on the interned residuals the compiler
//! expands.

#[cfg(test)]
mod tests {
    use crate::residual::ResidualArena;
    use crate::semiring_expr::SemiringExpr;
    use crate::vars::Var;
    use pvc_algebra::{SemiringKind, SemiringValue};

    fn x(i: u32) -> SemiringExpr {
        SemiringExpr::Var(Var(i))
    }

    #[test]
    fn constants() {
        // ⊤ is the unit of · and absorbs +; ⊥ is the unit of + and annihilates ·.
        let top = SemiringExpr::Const(SemiringValue::Bool(true));
        let bottom = SemiringExpr::Const(SemiringValue::Bool(false));
        let simplify = |e: SemiringExpr| e.simplify(SemiringKind::Bool);
        assert_eq!(simplify(x(1) * top.clone()), x(1));
        assert_eq!(simplify(x(1) * bottom.clone()), bottom);
        assert_eq!(simplify(x(1) + bottom), x(1));
        assert_eq!(simplify(x(1) + top.clone()), top);
    }

    #[test]
    fn distributivity_is_structural_equality() {
        // The paper: x1(x2 + x3) = x1x2 + x1x3 in PosBool(X). The two are distinct
        // nodes, but Shannon expansion on x1 turns both into the same residuals:
        // x2 + x3 under x1 ← ⊤ and ⊥ under x1 ← ⊥.
        let mut residuals = ResidualArena::new(SemiringKind::Bool);
        let factored = residuals.arena_mut().intern(&(x(1) * (x(2) + x(3))));
        let expanded = residuals.arena_mut().intern(&(x(1) * x(2) + x(1) * x(3)));
        assert_ne!(factored, expanded);
        let rest = residuals.arena_mut().intern(&(x(2) + x(3)));
        let bottom = residuals
            .arena_mut()
            .intern(&SemiringExpr::Const(SemiringValue::Bool(false)));
        for (value, residual) in [(true, rest), (false, bottom)] {
            residuals.begin_branch(Var(1), SemiringValue::Bool(value));
            assert_eq!(residuals.substitute(factored), residual, "x1 ← {value}");
            assert_eq!(residuals.substitute(expanded), residual, "x1 ← {value}");
        }
    }
}
