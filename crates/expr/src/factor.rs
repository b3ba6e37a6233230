//! Factorisation helpers used by the compiler's independent-product and ⊗ rules:
//! extracting factors common to every summand of a sum, which is how read-once
//! expressions (and the provenance of hierarchical queries, Example 14 of the paper)
//! are decomposed without Shannon expansion.

use crate::intern::{ExprId, InternedExpr, Interner};
use crate::vars::{Var, VarSet};

/// The variables that appear as *top-level multiplicative factors* of an interned
/// expression (a repeated factor is reported once per occurrence).
///
/// For `Var(x)` this is `{x}`; for a product it is the children that are plain
/// variables; for anything else it is empty. Only such "guaranteed factors" can be
/// pulled out of a sum without algebraic rewriting beyond
/// associativity/commutativity/distributivity.
pub fn top_level_factor_vars(arena: &Interner, id: ExprId) -> impl Iterator<Item = Var> + '_ {
    let (itself, children) = match arena.node(id) {
        InternedExpr::Var(v) => (Some(v), &[][..]),
        InternedExpr::Mul(children) => (None, children),
        _ => (None, &[][..]),
    };
    itself
        .into_iter()
        .chain(children.iter().filter_map(|&c| match arena.node(c) {
            InternedExpr::Var(v) => Some(v),
            _ => None,
        }))
}

/// The set of variables that occur as a top-level factor in *every* one of the given
/// expressions. Pulling these out of a sum `Σ_i Φ_i` yields the factorisation
/// `(Π common) · Σ_i (Φ_i / common)`. Stops reading once the running intersection
/// is empty — for a sum of sums, after the first expression.
pub fn common_factor_vars(arena: &Interner, mut exprs: impl Iterator<Item = ExprId>) -> VarSet {
    let Some(first) = exprs.next() else {
        return VarSet::new();
    };
    let mut common: Vec<Var> = top_level_factor_vars(arena, first).collect();
    for e in exprs {
        if common.is_empty() {
            break;
        }
        common.retain(|v| top_level_factor_vars(arena, e).any(|w| w == *v));
    }
    VarSet::from_iter_of(common)
}

/// Divide an expression by a set of variables that are known to be top-level factors
/// of it (one occurrence each is removed), interning the quotient. Returns `None`
/// when nothing remains, i.e. the quotient is the constant `1_S`.
///
/// Precondition: every variable of `divisors` is a top-level factor of `id`
/// (as reported by [`top_level_factor_vars`]); this is checked with a debug assertion.
pub fn divide_by_vars(arena: &mut Interner, id: ExprId, divisors: &VarSet) -> Option<ExprId> {
    if divisors.is_empty() {
        return Some(id);
    }
    match arena.node(id) {
        InternedExpr::Var(v) => {
            debug_assert!(divisors.contains(v), "divisor {v:?} is not a factor");
            None
        }
        InternedExpr::Mul(children) => {
            let mut to_remove: Vec<Var> = divisors.iter().collect();
            let remaining: Vec<ExprId> = children
                .iter()
                .copied()
                .filter(|&c| match arena.node(c) {
                    InternedExpr::Var(v) => match to_remove.iter().position(|d| *d == v) {
                        Some(pos) => {
                            to_remove.swap_remove(pos);
                            false
                        }
                        None => true,
                    },
                    _ => true,
                })
                .collect();
            debug_assert!(
                to_remove.is_empty(),
                "divisors {to_remove:?} were not factors"
            );
            match remaining.len() {
                0 => None,
                _ => Some(arena.intern_mul(&remaining)),
            }
        }
        _ => {
            debug_assert!(false, "divide_by_vars called on a non-product expression");
            Some(id)
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::semiring_expr::SemiringExpr;

    fn v(i: u32) -> SemiringExpr {
        SemiringExpr::Var(Var(i))
    }

    fn interned(exprs: &[SemiringExpr]) -> (Interner, Vec<ExprId>) {
        let mut arena = Interner::new();
        let ids = exprs.iter().map(|e| arena.intern(e)).collect();
        (arena, ids)
    }

    fn factors(arena: &Interner, id: ExprId) -> Vec<Var> {
        let mut vars: Vec<Var> = top_level_factor_vars(arena, id).collect();
        vars.sort();
        vars
    }

    #[test]
    fn top_level_factors() {
        let (arena, ids) = interned(&[v(1), v(1) * v(2) * (v(3) + v(4)), v(1) + v(2)]);
        assert_eq!(factors(&arena, ids[0]), [Var(1)]);
        assert_eq!(factors(&arena, ids[1]), [Var(1), Var(2)]);
        assert!(factors(&arena, ids[2]).is_empty());
    }

    #[test]
    fn common_factors_across_summands() {
        // x1·y11 and x1·y12 share the factor x1 (Example 14 shape).
        let (arena, ids) = interned(&[v(1) * v(11), v(1) * v(12), v(2) * v(21)]);
        let common = common_factor_vars(&arena, ids[..2].iter().copied());
        assert_eq!(common.as_slice(), &[Var(1)]);
        // No factor shared by all three, and none of no expression at all.
        assert!(common_factor_vars(&arena, ids.iter().copied()).is_empty());
        assert!(common_factor_vars(&arena, std::iter::empty()).is_empty());
    }

    #[test]
    fn divide_removes_one_occurrence() {
        let (mut arena, ids) = interned(&[v(1) * v(2) * v(3), v(5), v(1) * v(3)]);
        let quot = divide_by_vars(&mut arena, ids[0], &VarSet::singleton(Var(2)));
        assert_eq!(quot, Some(ids[2]));
        // Dividing a single variable by itself leaves nothing.
        assert!(divide_by_vars(&mut arena, ids[1], &VarSet::singleton(Var(5))).is_none());
        // Dividing by the empty set is the identity.
        assert_eq!(
            divide_by_vars(&mut arena, ids[0], &VarSet::new()),
            Some(ids[0])
        );
    }

    #[test]
    fn divide_keeps_repeated_variables() {
        // x·x divided by x leaves x; x + x·y divided by x leaves 1 and y.
        let (mut arena, ids) =
            interned(&[SemiringExpr::Mul(vec![v(1), v(1)]), v(1), v(1) * v(2), v(2)]);
        let x = VarSet::singleton(Var(1));
        assert_eq!(divide_by_vars(&mut arena, ids[0], &x), Some(ids[1]));
        assert_eq!(divide_by_vars(&mut arena, ids[1], &x), None);
        assert_eq!(divide_by_vars(&mut arena, ids[2], &x), Some(ids[3]));
    }
}
