//! Ablation benchmarks for two compiler design choices: the structural decomposition
//! rules vs pure Shannon expansion, and pruning on vs off.
//!
//! A plain `fn main()` timing harness (`cargo bench --bench ablation`).

use pvc_algebra::{AggOp, CmpOp, SemiringKind};
use pvc_bench::bench_case;
use pvc_core::{confidence_of, CompileOptions, Compiler};
use pvc_workload::{ExprGenParams, ExprGenerator, GeneratedExpr};

fn confidence_with(gen: &GeneratedExpr, options: CompileOptions) -> f64 {
    let mut compiler = Compiler::with_options(&gen.vars, SemiringKind::Bool, options);
    let arena = compiler.emit_semiring(&gen.condition).unwrap();
    confidence_of(
        &arena
            .semiring_distribution(&gen.vars, SemiringKind::Bool)
            .unwrap(),
    )
}

fn bench_rules_vs_shannon() {
    let params = ExprGenParams {
        agg_left: AggOp::Min,
        theta: CmpOp::Le,
        constant: 120,
        left_terms: 40,
        num_vars: 14,
        clauses_per_term: 2,
        literals_per_clause: 2,
        ..ExprGenParams::default()
    };
    let gen = ExprGenerator::new(params, 3).generate();
    bench_case("ablation_rules/full_rules", 10, || {
        confidence_with(&gen, CompileOptions::default());
    });
    bench_case("ablation_rules/shannon_only", 10, || {
        confidence_with(&gen, CompileOptions::shannon_only());
    });
}

fn bench_pruning() {
    let params = ExprGenParams {
        agg_left: AggOp::Min,
        theta: CmpOp::Le,
        constant: 20,
        left_terms: 60,
        num_vars: 16,
        max_value: 200,
        ..ExprGenParams::default()
    };
    let gen = ExprGenerator::new(params, 5).generate();
    let no_pruning = CompileOptions {
        pruning: false,
        ..CompileOptions::default()
    };
    bench_case("ablation_pruning/pruning_on", 10, || {
        confidence_with(&gen, CompileOptions::default());
    });
    bench_case("ablation_pruning/pruning_off", 10, || {
        confidence_with(&gen, no_pruning.clone());
    });
}

fn main() {
    println!("ablation benchmarks");
    bench_rules_vs_shannon();
    bench_pruning();
}
