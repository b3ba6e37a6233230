//! Long circuits on a worker-sized stack.
//!
//! The compiler emits an independent sum of `n` operands as a left-deep `⊕`
//! chain `n` nodes deep. Every walk over a compiled d-tree — counting,
//! copying, rendering, dropping, evaluating, and the one-sided threshold fold
//! over a MIN chain — must cost heap, not native stack, on a thread with the
//! 2 MB stack a `WorkerPool` worker gets. A walk that recurses per link aborts
//! the whole process, so these tests live in a binary of their own.

use pvc_suite::core::DTreeArena;
use pvc_suite::prelude::*;
use MonoidValue::Fin;

/// The stack size of a spawned thread: what a pool worker runs on.
const WORKER_STACK: usize = 2 << 20;

fn on_worker_stack(test: impl FnOnce() + Send + 'static) {
    std::thread::Builder::new()
        .stack_size(WORKER_STACK)
        .spawn(test)
        .expect("spawn a test thread")
        .join()
        .expect("the test thread finished");
}

#[test]
fn a_long_read_once_sum_is_counted_copied_rendered_and_dropped() {
    on_worker_stack(|| {
        const LEAVES: usize = 100_000;
        let mut vt = VarTable::new();
        let sum = (0..LEAVES)
            .map(|i| SemiringExpr::Var(vt.boolean("", 0.1 + 0.8 * (i % 10) as f64 / 10.0)))
            .collect();
        let sum = SemiringExpr::sum(sum);
        let tree = Compiler::new(&vt, SemiringKind::Bool)
            .compile_semiring(&sum)
            .expect("no node budget configured");
        // LEAVES leaves and the LEAVES − 1 `⊕` links between them.
        assert_eq!(tree.num_nodes(), 2 * LEAVES - 1);
        let copy = DTreeArena::from_tree(&tree);
        assert_eq!(copy.len(), tree.num_nodes());
        let text = tree.to_string();
        assert_eq!(text.matches(" ⊕ ").count(), LEAVES - 1);
        assert!(text.starts_with("((((") && text.ends_with(')'));
        drop(tree);
        drop(copy);
    });
}

#[test]
fn a_long_min_threshold_folds_to_its_closed_form() {
    on_worker_stack(|| {
        // [MIN of TERMS independent xᵢ⊗vᵢ ≤ BOUND] with vᵢ = i mod 1000: the
        // minimum is at most BOUND iff some term with vᵢ ≤ BOUND is present,
        // so P = 1 − Π(1 − pᵢ) over those terms.
        const TERMS: usize = 20_000;
        const BOUND: i64 = 500;
        let mut vt = VarTable::new();
        let mut terms = Vec::with_capacity(TERMS);
        let mut all_absent = 1.0;
        for i in 0..TERMS {
            let p = 1e-5 * (1 + i % 7) as f64;
            let value = (i % 1000) as i64;
            if value <= BOUND {
                all_absent *= 1.0 - p;
            }
            terms.push((SemiringExpr::Var(vt.boolean("", p)), Fin(value)));
        }
        let expected = 1.0 - all_absent;
        assert!(expected > 0.1 && expected < 0.9, "{expected}");
        let condition = SemiringExpr::cmp_mm(
            CmpOp::Le,
            SemimoduleExpr::from_terms(AggOp::Min, terms),
            SemimoduleExpr::constant(AggOp::Min, Fin(BOUND)),
        );
        let mut compiler = Compiler::new(&vt, SemiringKind::Bool);
        let arena = compiler
            .emit_semiring(&condition)
            .expect("no node budget configured");
        // The 10 020 terms with vᵢ ≤ BOUND survive pruning: three nodes each,
        // the `⊕` links between them, the bound and the `[≤]`.
        assert_eq!(arena.len(), 40_081);
        let dist = arena
            .semiring_distribution(&vt, SemiringKind::Bool)
            .expect("a well-sorted circuit");
        let got = dist.prob(&SemiringValue::Bool(true));
        assert!(
            (got - expected).abs() <= 1e-9 * expected,
            "{got} vs {expected}"
        );
    });
}
