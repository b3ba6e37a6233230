//! Micro-benchmarks of the core building blocks: convolution, read-once compilation,
//! Shannon expansion of a condition, aggregate-distribution computation and the
//! streaming executor's hand-off.
//!
//! A plain `fn main()` timing harness (`cargo bench --bench micro`).

use pvc_algebra::{AggOp, CmpOp, MonoidValue, SemiringKind};
use pvc_bench::bench_case;
use pvc_core::{confidence_of, CacheConfig, CompileOptions, Compiler, SharedArtifacts, WorkerPool};
use pvc_db::{Database, Engine, EvalOptions, Query, Schema};
use pvc_expr::{SemimoduleExpr, SemiringExpr, VarTable};
use pvc_prob::{convolve_additive_chained, AdditiveFold, ChainVal, Dist, MonoidDist, SeededRng};
use pvc_workload::{ExprGenParams, ExprGenerator};

fn bench_convolution() {
    let uniform = |cells: i64, stride: i64| -> MonoidDist {
        let p = 1.0 / cells as f64;
        Dist::from_pairs((0..cells).map(|v| (MonoidValue::Fin(v * stride), p)))
    };
    // The three shapes the adaptive dispatcher tells apart: a contiguous COUNT-style
    // support (dense direct indexing), as many values spread too far apart to
    // densify (sparse sort-and-coalesce), and operands past the FFT crossover.
    for (label, dist) in [
        ("contiguous/65", uniform(65, 1)),
        ("scattered/65", uniform(65, 1_000_003)),
        ("contiguous/2048", uniform(2048, 1)),
    ] {
        let mut scratch = Vec::new();
        bench_case(&format!("convolution/sum/{label}"), 10, || {
            std::hint::black_box(convolve_additive_chained(
                ChainVal::Sparse(dist.clone()),
                ChainVal::Sparse(dist.clone()),
                &mut scratch,
            ));
        });
    }
}

/// Whole additive folds through one [`AdditiveFold`]: the two operand shapes
/// the dense loop orients differently (see `pvc_prob::repr`).
fn bench_additive_fold() {
    let two_point = |i: usize, value: i64| -> MonoidDist {
        let p = 0.1 + 0.8 * (i % 97) as f64 / 97.0;
        Dist::two_point(MonoidValue::Fin(0), 1.0 - p, MonoidValue::Fin(value), p)
    };
    for (label, terms) in [
        // TPC-H Q1's COUNT: one group's 718 `{0, 1}` operands, two cells each.
        (
            "count/718",
            (0..718).map(|i| two_point(i, 1)).collect::<Vec<_>>(),
        ),
        // Group SUM: `{0, v}` operands densify to `v + 1` cells, two of them
        // non-zero; the loop nest runs those two outermost.
        (
            "sum-gaps/100",
            (0..100)
                .map(|i| two_point(i, 1 + (i as i64 * 37) % 200))
                .collect(),
        ),
    ] {
        let mut fold = AdditiveFold::new();
        bench_case(&format!("fold/{label}"), 20, || {
            for term in &terms {
                fold.push(ChainVal::Sparse(term.clone()));
            }
            std::hint::black_box(fold.take().map(ChainVal::into_dist));
        });
        // The engine's route for a leaf component: its two cells, no `Dist`.
        bench_case(&format!("fold/{label}/push_cells"), 20, || {
            for term in &terms {
                fold.push_cells(term.iter().map(|(v, p)| (*v, p)));
            }
            std::hint::black_box(fold.take().map(ChainVal::into_dist));
        });
    }
}

fn bench_read_once_compilation() {
    for groups in [10usize, 50, 200] {
        // Hierarchical provenance: x_i (y_{i,1} + y_{i,2} + y_{i,3}).
        let mut vars = VarTable::new();
        let mut summands = Vec::new();
        for i in 0..groups {
            let x = vars.boolean(format!("x{i}"), 0.5);
            for j in 0..3 {
                let y = vars.boolean(format!("y{i}_{j}"), 0.5);
                summands.push(SemiringExpr::Var(x) * SemiringExpr::Var(y));
            }
        }
        let expr = SemiringExpr::sum(summands);
        bench_case(&format!("read_once_compile/{groups}"), 10, || {
            pvc_core::confidence(&expr, &vars, SemiringKind::Bool);
        });
    }
}

/// Two conditions of the `expr_compile` workload at its default seed
/// (20120827), generated as it generates them: `[MIN = 100]` over 200 terms
/// and `[COUNT = 50]` over 100, ten variables. The compiler alone, one reused
/// compiler; the `⊔`, rebuilt-substitution and absorbed-term counts of one of
/// its compilations say how much Shannon expansion the time bought.
fn bench_compile_conditions() {
    let mut rng = SeededRng::seed_from_u64(20120827);
    // The workload draws one generator seed per condition, MIN = first and
    // COUNT = third.
    let seeds: Vec<u64> = (0..3).map(|_| rng.next_u64()).collect();
    for (label, agg, terms, constant, seed) in [
        ("min-eq", AggOp::Min, 200, 100, seeds[0]),
        ("count-eq", AggOp::Count, 100, 50, seeds[2]),
    ] {
        let params = ExprGenParams {
            left_terms: terms,
            right_terms: 0,
            agg_left: agg,
            theta: CmpOp::Eq,
            constant,
            num_vars: 10,
            clauses_per_term: 3,
            literals_per_clause: 3,
            max_value: 200,
            ..ExprGenParams::default()
        };
        let g = ExprGenerator::new(params, seed).generate();
        let mut compiler = Compiler::new(&g.vars, SemiringKind::Bool);
        bench_case(&format!("compile/{label}"), 100, || {
            std::hint::black_box(
                compiler
                    .emit_semiring(&g.condition)
                    .map(|arena| arena.len()),
            )
            .expect("no node budget configured");
        });
        // The last of the timed compilations, alone.
        let nodes = compiler
            .emit_semiring(&g.condition)
            .map(|arena| arena.len());
        let stats = compiler.last_stats();
        println!(
            "{:<48} {} nodes, {} ⊔, {} rebuilt substitutions, {} absorbed terms",
            "",
            nodes.expect("no node budget configured"),
            stats.exclusive_expansions,
            stats.rebuilt_nodes,
            stats.absorbed_terms
        );
    }
}

fn bench_min_aggregate_distribution() {
    for terms in [50usize, 200, 800] {
        let mut vars = VarTable::new();
        let expr = SemimoduleExpr::from_terms(
            AggOp::Min,
            (0..terms)
                .map(|i| {
                    let v = vars.boolean(format!("t{i}"), 0.5);
                    (SemiringExpr::Var(v), MonoidValue::Fin((i % 97) as i64))
                })
                .collect(),
        );
        bench_case(&format!("min_aggregate_distribution/{terms}"), 10, || {
            pvc_core::semimodule_distribution(&expr, &vars, SemiringKind::Bool);
        });
    }
}

/// The group confidence of TPC-H Q1, `[x₁ + … + x₇₀₅ ≠ 0_B]`: a `[θ]` over a
/// left-deep `∨` chain, 1 411 d-tree nodes and no `⊔`.
fn bench_or_705() {
    let mut vars = VarTable::new();
    let sum = SemiringExpr::sum(
        (0..705)
            .map(|i| SemiringExpr::Var(vars.boolean("", 0.1 + 0.8 * (i % 97) as f64 / 97.0)))
            .collect(),
    );
    let zero = SemiringExpr::zero(SemiringKind::Bool);
    let condition = SemiringExpr::cmp_ss(CmpOp::Ne, sum, zero.clone());
    let options = CompileOptions::default();
    // What the engine does per group on a fresh store: intern, miss, fold the
    // sum's 705 leaf components on two cells, compare once, reduce to the
    // confidence.
    let confidence = |label: &str, condition: &SemiringExpr, vars: &VarTable| {
        bench_case(label, 400, || {
            let store = SharedArtifacts::new(CacheConfig::default());
            let id = store.intern(condition);
            let dist = store
                .evaluate_semiring(id, vars, SemiringKind::Bool, &options, 0)
                .expect("no node budget configured");
            std::hint::black_box(confidence_of(&dist));
        });
    };
    confidence("confidence/or-705", &condition, &vars);
    // Summands that share a variable in pairs, `xᵢ·y_{i/2}`: 353 two-member
    // components, each memoised and compiled alone, folded in the compiler's
    // (smallest-member) order.
    let mut shared_vars = VarTable::new();
    let pairs: Vec<SemiringExpr> = (0..353)
        .map(|k| SemiringExpr::Var(shared_vars.boolean("", 0.2 + 0.6 * (k % 89) as f64 / 89.0)))
        .collect();
    let shared = SemiringExpr::sum(
        (0..705)
            .map(|i| {
                let x = shared_vars.boolean("", 0.1 + 0.8 * (i % 97) as f64 / 97.0);
                SemiringExpr::product(vec![SemiringExpr::Var(x), pairs[i / 2].clone()])
            })
            .collect(),
    );
    let shared_condition = SemiringExpr::cmp_ss(CmpOp::Ne, shared, zero);
    confidence("confidence/or-shared-705", &shared_condition, &shared_vars);
    // The compiler alone, one reused compiler: the arena it emits.
    let mut compiler = Compiler::new(&vars, SemiringKind::Bool);
    bench_case("compile/emit-705", 400, || {
        std::hint::black_box(compiler.emit_semiring(&condition).map(|arena| arena.len()))
            .expect("no node budget configured");
    });
}

/// What the worker-to-consumer hand-off costs: 1 000 single-variable tuples —
/// step II is a table lookup each, so nearly all that is left is claiming,
/// sending and reassembling — inline, and streamed from a shared pool of two.
fn bench_stream_handoff() {
    let mut db = Database::new();
    db.create_table("T", Schema::new(["id"]));
    let (t, vars) = db.table_and_vars_mut("T").expect("table was just created");
    for i in 0..1_000i64 {
        t.push_independent(vec![i.into()], 0.1 + 0.8 * (i % 97) as f64 / 97.0, vars);
    }
    let engine = Engine::new(db);
    let prepared = engine.prepare(&Query::table("T")).expect("valid query");
    let inline = EvalOptions::default();
    bench_case("stream/handoff-1k/inline-execute", 200, || {
        std::hint::black_box(prepared.execute(&inline).expect("no budget").tuples.len());
    });
    let pool = std::sync::Arc::new(WorkerPool::new(2).expect("worker pool starts"));
    let pooled = EvalOptions::default().with_threads(2).with_pool(pool);
    bench_case("stream/handoff-1k/streaming-pool-2", 200, || {
        for item in prepared.execute_streaming(&pooled).expect("valid query") {
            std::hint::black_box(item.expect("no budget"));
        }
    });
}

fn main() {
    println!("micro benchmarks");
    bench_stream_handoff();
    bench_or_705();
    bench_convolution();
    bench_additive_fold();
    bench_read_once_compilation();
    bench_compile_conditions();
    bench_min_aggregate_distribution();
}
