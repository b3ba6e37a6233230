//! `expr_compile` — the paper's §7.1 unit of work and the **compile** workload.
//!
//! Seeded `ExprGenerator` conditions `[Σ Φᵢ⊗vᵢ θ c]`, cycling the twelve
//! (aggregate, θ) classes. One operation is intern → compile → flatten →
//! evaluate on one thread with no engine and no cache, so the kernel, cache,
//! pool and serve layers do nothing here: a d-DAG or variable-order change
//! must show on this workload and on no other.

use super::add_compile_stats;
use crate::harness::{Done, Layers, Size, Stopwatch, Timed, Workload};
use crate::spans::Spans;
use crate::stats::Fnv;
use pvc_algebra::{AggOp, CmpOp, SemiringKind};
use pvc_core::{confidence_of, Compiler, DTreeArena};
use pvc_expr::{oracle, Interner};
use pvc_prob::SeededRng;
use pvc_workload::{ExprGenParams, ExprGenerator, GeneratedExpr};
use std::collections::BTreeMap;

const KIND: SemiringKind = SemiringKind::Bool;
const AGGS: [AggOp; 4] = [AggOp::Min, AggOp::Max, AggOp::Count, AggOp::Sum];
const THETAS: [CmpOp; 3] = [CmpOp::Eq, CmpOp::Le, CmpOp::Ge];
const CLASSES: usize = AGGS.len() * THETAS.len();
/// Where in the aggregate's attainable range `0..=top` the constants lie (one
/// condition per class and entry).
const C_SHARES: [f64; 1] = [0.5];
/// An oracle comparison every this many operations.
const CHECK_EVERY: usize = 10;

/// Generator parameters per scale. `#v` sets the cost: compilation expands
/// nearly all `2^#v` assignments, so 10 variables give ≈ 13 ms operations and
/// each of the twelve conditions some 190 timings in a 30 s run (14, the
/// paper-like setting, gives ≈ 150 ms: a dozen timings, no floor).
struct Shape {
    num_vars: usize,
    terms_minmax: usize,
    terms_countsum: usize,
    max_value: i64,
    generated_ops: usize,
}

fn shape(size: Size) -> Shape {
    match size {
        Size::Full => Shape {
            num_vars: 10,
            terms_minmax: 200,
            terms_countsum: 100,
            max_value: 200,
            generated_ops: 12,
        },
        Size::Smoke => Shape {
            num_vars: 7,
            terms_minmax: 24,
            terms_countsum: 16,
            max_value: 200,
            generated_ops: 12,
        },
    }
}

pub struct ExprCompile {
    ops: Vec<GeneratedExpr>,
    /// Oracle confidences already computed, by generated operation.
    oracle: BTreeMap<usize, f64>,
}

/// What the check needs of one operation's output.
pub struct Evidence {
    confidence: f64,
    dtree_nodes: usize,
}

impl Workload for ExprCompile {
    const NAME: &'static str = "expr_compile";
    const ONE_THREAD: bool = true;
    type Evidence = Evidence;

    fn setup(seed: u64, size: Size) -> Self {
        let shape = shape(size);
        let mut rng = SeededRng::seed_from_u64(seed);
        let ops = (0..shape.generated_ops)
            .map(|k| {
                let agg = AGGS[k % AGGS.len()];
                let theta = THETAS[(k / AGGS.len()) % THETAS.len()];
                // `c` inside the attainable range of the aggregate, so that no
                // condition is decided by pruning alone: an unsatisfiable
                // constant compiles to a one-node tree in microseconds. It is
                // a fixed share of that range, not drawn: the constant alone
                // moves the cost of a MIN/MAX condition threefold, and every
                // seed is to ask for the same amount of work.
                let share = C_SHARES[(k / CLASSES) % C_SHARES.len()];
                let (left_terms, top) = match agg {
                    AggOp::Min | AggOp::Max => (shape.terms_minmax, shape.max_value),
                    AggOp::Count => (shape.terms_countsum, shape.terms_countsum as i64),
                    _ => (
                        shape.terms_countsum,
                        shape.terms_countsum as i64 * shape.max_value / 2,
                    ),
                };
                let constant = (top as f64 * share) as i64;
                let params = ExprGenParams {
                    left_terms,
                    right_terms: 0,
                    agg_left: agg,
                    theta,
                    constant,
                    num_vars: shape.num_vars,
                    clauses_per_term: 3,
                    literals_per_clause: 3,
                    max_value: shape.max_value,
                    ..ExprGenParams::default()
                };
                ExprGenerator::new(params, rng.next_u64()).generate()
            })
            .collect();
        ExprCompile {
            ops,
            oracle: BTreeMap::new(),
        }
    }

    fn digest(&self) -> u64 {
        let mut h = Fnv::default();
        for g in &self.ops {
            let mut interner = Interner::new();
            let id = interner.intern(&g.condition);
            h.u64(interner.hash(id));
            h.u64(g.vars.fingerprint());
        }
        h.0
    }

    fn ops(&self) -> usize {
        self.ops.len()
    }

    fn run_op(&mut self, index: usize, _profile: bool) -> Result<Timed<Evidence>, String> {
        let g = &self.ops[index];
        let watch = Stopwatch::start();
        let evidence = (|| {
            let mut interner = Interner::new();
            let id = interner.intern(&g.condition);
            let mut compiler = Compiler::new(&g.vars, KIND);
            let tree = compiler
                .compile_semiring_id(&interner, id)
                .map_err(|e| e.to_string())?;
            let arena = DTreeArena::from_tree(&tree);
            let dist = arena
                .semiring_distribution(&g.vars, KIND)
                .map_err(|e| e.to_string())?;
            Ok::<_, String>(Evidence {
                confidence: confidence_of(&dist),
                dtree_nodes: tree.num_nodes(),
            })
        })()?;
        let (latency_s, cpu_s) = watch.stop();
        Ok(Timed {
            latency_s,
            cpu_s,
            first_tuple_s: None,
            evidence,
        })
    }

    fn check(&mut self, done: &[Done<Evidence>]) -> (u64, Vec<String>) {
        let mut checks = 0;
        let mut failures = Vec::new();
        for op in done {
            // The workload-artefact guard: a condition pruned to a constant
            // would time nothing.
            checks += 1;
            if op.evidence.dtree_nodes <= 1 {
                failures.push(format!(
                    "input {} compiled to a {}-node d-tree",
                    op.index, op.evidence.dtree_nodes
                ));
                continue;
            }
            if op.seq % CHECK_EVERY != 0 {
                continue;
            }
            let g = &self.ops[op.index];
            let expected = *self
                .oracle
                .entry(op.index)
                .or_insert_with(|| oracle::confidence_by_enumeration(&g.condition, &g.vars, KIND));
            checks += 1;
            if (op.evidence.confidence - expected).abs() > 1e-9 {
                failures.push(format!(
                    "input {}: confidence {} but enumeration gives {expected}",
                    op.index, op.evidence.confidence
                ));
            }
        }
        (checks, failures)
    }

    fn replay(
        &mut self,
        index: usize,
        spans: &mut Spans,
        layers: &mut Layers,
    ) -> Result<(), String> {
        let g = &self.ops[index];
        spans.op(index, |spans| {
            let mut interner = Interner::new();
            let id = spans.scope("expr.intern", |_| interner.intern(&g.condition));
            layers.add("expr.intern.nodes_in", g.condition.num_nodes() as f64);
            layers.add(
                "expr.intern.nodes_distinct",
                (interner.len() + interner.agg_len()) as f64,
            );
            let mut compiler = Compiler::new(&g.vars, KIND);
            let tree = spans
                .scope("core.compile", |_| {
                    compiler.compile_semiring_id(&interner, id)
                })
                .map_err(|e| e.to_string())?;
            add_compile_stats(&compiler, tree.num_nodes(), layers);
            let arena = spans.scope("core.arena.flatten", |_| DTreeArena::from_tree(&tree));
            layers.add("core.arena.nodes", arena.len() as f64);
            spans
                .scope("core.arena.eval", |_| {
                    arena.semiring_distribution(&g.vars, KIND)
                })
                .map(|dist| {
                    std::hint::black_box(dist);
                })
                .map_err(|e| e.to_string())
        })
    }

    fn replay_op_spans(&self) -> &'static [&'static str] {
        &[
            "expr.intern",
            "core.compile",
            "core.arena.flatten",
            "core.arena.eval",
        ]
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn no_generated_condition_prunes_to_a_constant() {
        // Full-scale constants on smoke-scale conditions would be
        // unsatisfiable, so the guard is checked at the scale it protects:
        // compile (cheaply, 7 variables) a condition of every class drawn with
        // the smoke shape, whose constants follow the same attainable-range rule.
        for seed in [1, 2, 3] {
            let mut w = ExprCompile::setup(seed, Size::Smoke);
            for index in 0..w.ops() {
                let nodes = w.run_op(index, false).unwrap().evidence.dtree_nodes;
                assert!(nodes > 1, "seed {seed} input {index}: {nodes}-node d-tree");
            }
        }
    }

    #[test]
    fn same_seed_same_digest_and_other_seed_other_digest() {
        let a = ExprCompile::setup(11, Size::Smoke).digest();
        assert_eq!(a, ExprCompile::setup(11, Size::Smoke).digest());
        assert_ne!(a, ExprCompile::setup(12, Size::Smoke).digest());
    }
}
