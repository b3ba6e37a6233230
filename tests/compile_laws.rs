//! The compiler on the interned DAG, end to end: every class of generated
//! condition against possible-world enumeration, conditions whose coefficients
//! nest further conditions, bit-identity across threads, and count-based guards
//! on the work a benchmark-sized compilation does (counts repeat exactly; nothing
//! here looks at a clock).

use pvc_suite::algebra::MonoidValue::Fin;
use pvc_suite::core::{
    confidence_of, CacheConfig, CompileOptions, Compiler, DTreeArena, SharedArtifacts,
};
use pvc_suite::db::{try_evaluate, Value};
use pvc_suite::expr::oracle;
use pvc_suite::prelude::*;
use pvc_suite::prob::SeededRng;
use pvc_suite::tpch::{generate, q1, q2, TpchConfig};
use pvc_suite::workload::{ExprGenParams, ExprGenerator, GeneratedExpr};

const KIND: SemiringKind = SemiringKind::Bool;
const AGGS: [AggOp; 4] = [AggOp::Min, AggOp::Max, AggOp::Count, AggOp::Sum];
const THETAS: [CmpOp; 3] = [CmpOp::Eq, CmpOp::Le, CmpOp::Ge];

/// The twelve `(aggregate, θ)` conditions the `expr_compile` workload of
/// `pvc_e2e` draws for `seed`, constant at half the aggregate's range.
fn conditions(
    seed: u64,
    num_vars: usize,
    minmax_terms: usize,
    countsum_terms: usize,
) -> Vec<GeneratedExpr> {
    conditions_over(&THETAS, seed, num_vars, minmax_terms, countsum_terms)
}

/// [`conditions`] for each comparison of `thetas`.
fn conditions_over(
    thetas: &[CmpOp],
    seed: u64,
    num_vars: usize,
    minmax_terms: usize,
    countsum_terms: usize,
) -> Vec<GeneratedExpr> {
    let max_value = 200;
    let mut rng = SeededRng::seed_from_u64(seed);
    (0..AGGS.len() * thetas.len())
        .map(|k| {
            let agg = AGGS[k % AGGS.len()];
            let theta = thetas[(k / AGGS.len()) % thetas.len()];
            let (left_terms, top) = match agg {
                AggOp::Min | AggOp::Max => (minmax_terms, max_value),
                AggOp::Count => (countsum_terms, countsum_terms as i64),
                _ => (countsum_terms, countsum_terms as i64 * max_value / 2),
            };
            let params = ExprGenParams {
                left_terms,
                right_terms: 0,
                agg_left: agg,
                theta,
                constant: top / 2,
                num_vars,
                clauses_per_term: 3,
                literals_per_clause: 3,
                max_value,
                ..ExprGenParams::default()
            };
            ExprGenerator::new(params, rng.next_u64()).generate()
        })
        .collect()
}

fn compiled_confidence(condition: &SemiringExpr, vars: &VarTable, kind: SemiringKind) -> f64 {
    let tree = Compiler::new(vars, kind)
        .compile_semiring(condition)
        .unwrap();
    confidence_of(&tree.semiring_distribution(vars, kind).unwrap())
}

#[test]
fn every_generated_class_agrees_with_enumeration() {
    // Every θ, and the same conditions over N-valued variables, where a
    // coefficient counts its term a number of times.
    let more_thetas = [CmpOp::Lt, CmpOp::Gt, CmpOp::Ne];
    for seed in [1, 7, 11] {
        let generated = conditions(seed, 8, 24, 16)
            .into_iter()
            .chain(conditions_over(&more_thetas, seed, 8, 24, 16));
        for (k, g) in generated.enumerate() {
            let expected = oracle::confidence_by_enumeration(&g.condition, &g.vars, KIND);
            let got = compiled_confidence(&g.condition, &g.vars, KIND);
            assert!(
                (got - expected).abs() < 1e-9,
                "seed {seed} class {k}: {got} vs {expected}"
            );
            // With every structural rule off the laws still apply, and still agree.
            let mut shannon = Compiler::with_options(&g.vars, KIND, CompileOptions::shannon_only());
            let tree = shannon.compile_semiring(&g.condition).unwrap();
            let got = confidence_of(&tree.semiring_distribution(&g.vars, KIND).unwrap());
            assert!(
                (got - expected).abs() < 1e-9,
                "seed {seed} class {k}, ⊔ only"
            );
            let (vars, condition) = over_naturals(&g);
            let kind = SemiringKind::Nat;
            let expected = oracle::confidence_by_enumeration(&condition, &vars, kind);
            let got = compiled_confidence(&condition, &vars, kind);
            assert!(
                (got - expected).abs() < 1e-9,
                "seed {seed} class {k} over N: {got} vs {expected}"
            );
        }
    }
}

/// `g`'s condition over variables valued in `{0, 2}` of `N`.
fn over_naturals(g: &GeneratedExpr) -> (VarTable, SemiringExpr) {
    let mut vars = VarTable::new();
    for i in 0..g.vars.len() {
        vars.natural(format!("v{i}"), &[(0, 0.4), (2, 0.6)]);
    }
    let SemiringExpr::CmpMM(theta, lhs, rhs) = &g.condition else {
        panic!("not a conditional: {}", g.condition);
    };
    let bound = rhs.as_const().expect("a constant right side");
    let rhs = SemimoduleExpr::constant_in(rhs.op, bound, SemiringKind::Nat);
    (vars, SemiringExpr::cmp_mm(*theta, (**lhs).clone(), rhs))
}

/// `[Σ_i xᵢ·[inner θ' cᵢ] ⊗ vᵢ  θ  c]`: every coefficient holds a condition over one
/// shared inner aggregate (the shape of TPC-H Q2's nested MIN), so a `⊔` expansion
/// substitutes into conditions, not only into clauses.
fn nested_condition(
    vars: &[Var],
    outer: AggOp,
    inner: AggOp,
    kind: SemiringKind,
    rng: &mut SeededRng,
) -> SemiringExpr {
    let v = |i: usize| SemiringExpr::Var(vars[i]);
    let inner_alpha = SemimoduleExpr::from_terms(
        inner,
        (0..4)
            .map(|i| (v(i) * v((i + 1) % 4), Fin(rng.gen_range(1..9i64))))
            .collect(),
    );
    let terms = (0..5)
        .map(|i| {
            let bound = SemimoduleExpr::constant_in(inner, Fin(rng.gen_range(1..9i64)), kind);
            let nested = if i % 2 == 0 {
                SemiringExpr::cmp_mm(CmpOp::Le, inner_alpha.clone(), bound)
            } else {
                SemiringExpr::cmp_ss(CmpOp::Ge, v(i % 4) + v(4), v(5) * v((i + 2) % 4))
            };
            (v(4 + i % 2) * nested, Fin(rng.gen_range(1..9i64)))
        })
        .collect();
    SemiringExpr::cmp_mm(
        CmpOp::Ge,
        SemimoduleExpr::from_terms(outer, terms),
        SemimoduleExpr::constant_in(outer, Fin(6), kind),
    )
}

#[test]
fn nested_conditions_and_natural_variables_agree_with_enumeration() {
    let mut rng = SeededRng::seed_from_u64(0x1a75);
    for round in 0..6 {
        for kind in [SemiringKind::Bool, SemiringKind::Nat] {
            let mut vt = VarTable::new();
            let vars: Vec<Var> = (0..6)
                .map(|i| match kind {
                    SemiringKind::Bool => vt.boolean(format!("x{i}"), 0.1 + 0.8 * rng.next_f64()),
                    SemiringKind::Nat => {
                        vt.natural(format!("x{i}"), &[(0, 0.3), (1, 0.45), (2, 0.25)])
                    }
                })
                .collect();
            for (outer, inner) in [
                (AggOp::Sum, AggOp::Min),
                (AggOp::Min, AggOp::Max),
                (AggOp::Max, AggOp::Sum),
                (AggOp::Count, AggOp::Min),
            ] {
                let condition = nested_condition(&vars, outer, inner, kind, &mut rng);
                let expected = oracle::confidence_by_enumeration(&condition, &vt, kind);
                let got = compiled_confidence(&condition, &vt, kind);
                assert!(
                    (got - expected).abs() < 1e-9,
                    "round {round} {kind:?} {outer}/{inner}: {got} vs {expected}\n{condition}"
                );
            }
        }
    }
}

#[test]
fn one_and_four_threads_through_shared_artifacts_are_bit_identical() {
    let inputs = conditions(7, 8, 24, 16);
    let options = CompileOptions::default();
    // One fresh store per call, evaluated cold on `threads` threads, then warm.
    let evaluate = |threads: usize| -> Vec<Vec<(SemiringValue, u64)>> {
        let store = SharedArtifacts::new(CacheConfig::default());
        let ids: Vec<_> = inputs.iter().map(|g| store.intern(&g.condition)).collect();
        let bits_of = |k: usize| -> Vec<(SemiringValue, u64)> {
            let dist = store
                .evaluate_semiring(ids[k], &inputs[k].vars, KIND, &options, 0)
                .unwrap();
            dist.iter().map(|(v, p)| (*v, p.to_bits())).collect()
        };
        let mut cold = vec![Vec::new(); inputs.len()];
        std::thread::scope(|scope| {
            let per_thread = inputs.len().div_ceil(threads);
            for (t, chunk) in cold.chunks_mut(per_thread).enumerate() {
                let bits_of = &bits_of;
                scope.spawn(move || {
                    for (slot, k) in chunk.iter_mut().zip(t * per_thread..) {
                        *slot = bits_of(k);
                    }
                });
            }
        });
        let warm: Vec<_> = (0..inputs.len()).map(bits_of).collect();
        assert_eq!(warm, cold, "{threads} threads: warm differs from cold");
        cold
    };
    let single = evaluate(1);
    assert_eq!(evaluate(4), single);
    // All of it equal, bit for bit, to compiling the tree with no store at all.
    for (g, bits) in inputs.iter().zip(&single) {
        let tree = Compiler::new(&g.vars, KIND)
            .compile_semiring(&g.condition)
            .unwrap();
        let dist = tree.semiring_distribution(&g.vars, KIND).unwrap();
        let direct: Vec<_> = dist.iter().map(|(v, p)| (*v, p.to_bits())).collect();
        assert_eq!(&direct, bits);
    }
}

#[test]
fn a_benchmark_sized_compilation_stays_within_its_work_bounds() {
    // The seed-1 conditions of `expr_compile` at full size: 10 variables, 3 × 3
    // clauses, 200 (MIN / MAX) or 100 (COUNT / SUM) terms. The tree compiler this
    // replaced needed ≈ 850 `⊔` expansions and ≈ 3 460 d-tree nodes for each and
    // walked ≈ 200 000 tree nodes substituting.
    for (k, g) in conditions(1, 10, 200, 100).iter().enumerate() {
        let mut compiler = Compiler::new(&g.vars, KIND);
        let tree = compiler.compile_semiring(&g.condition).unwrap();
        let stats = compiler.stats();
        let (max_expansions, max_nodes) = match AGGS[k % AGGS.len()] {
            AggOp::Min | AggOp::Max => (300, 1_500),
            _ => (720, 3_000),
        };
        assert!(
            stats.exclusive_expansions <= max_expansions,
            "condition {k}: {} ⊔ expansions",
            stats.exclusive_expansions
        );
        assert!(
            tree.num_nodes() <= max_nodes,
            "condition {k}: {} d-tree nodes",
            tree.num_nodes()
        );
        assert!(
            stats.rebuilt_nodes <= 20_000,
            "condition {k}: {} nodes rebuilt by substitution",
            stats.rebuilt_nodes
        );
        assert!(tree.num_nodes() > 1, "condition {k} pruned to a constant");
    }
}

/// The arena a `compile_*` entry point hands out to keep is the one the
/// compiler emitted, and the benchmark harness's "flatten" step copies it: the
/// same four tables — nodes, branch table, fold plans, sorts.
fn assert_emission_is_flattening(emitted: &DTreeArena, kept: DTreeArena, what: &str) {
    assert_eq!(&kept, emitted, "{what}");
    assert_eq!(DTreeArena::from_tree(&kept), kept, "{what}");
    assert_eq!(kept.num_nodes(), kept.len(), "{what}");
}

#[test]
fn emission_is_flattening_on_generated_and_nested_conditions() {
    for seed in [1, 7, 11] {
        for (k, g) in conditions(seed, 8, 24, 16).iter().enumerate() {
            for options in [CompileOptions::default(), CompileOptions::shannon_only()] {
                let mut compiler = Compiler::with_options(&g.vars, KIND, options);
                let arena = compiler.emit_semiring(&g.condition).unwrap().clone();
                let kept = compiler.compile_semiring(&g.condition).unwrap();
                assert_emission_is_flattening(&arena, kept, &format!("seed {seed} class {k}"));
            }
        }
    }
    let mut rng = SeededRng::seed_from_u64(0x1a75);
    for kind in [SemiringKind::Bool, SemiringKind::Nat] {
        let mut vt = VarTable::new();
        let vars: Vec<Var> = (0..6)
            .map(|i| match kind {
                SemiringKind::Bool => vt.boolean(format!("x{i}"), 0.1 + 0.8 * rng.next_f64()),
                SemiringKind::Nat => vt.natural(format!("x{i}"), &[(0, 0.3), (1, 0.45), (2, 0.25)]),
            })
            .collect();
        let mut compiler = Compiler::new(&vt, kind);
        for (outer, inner) in [
            (AggOp::Sum, AggOp::Min),
            (AggOp::Min, AggOp::Max),
            (AggOp::Max, AggOp::Sum),
            (AggOp::Count, AggOp::Min),
        ] {
            let condition = nested_condition(&vars, outer, inner, kind, &mut rng);
            let arena = compiler.emit_semiring(&condition).unwrap().clone();
            assert!(arena.len() > 1, "{condition}");
            let kept = compiler.compile_semiring(&condition).unwrap();
            assert_emission_is_flattening(&arena, kept, &format!("{kind:?} {outer}/{inner}"));
        }
    }
}

#[test]
fn emission_is_flattening_on_every_tpch_annotation_and_aggregate() {
    let db = generate(&TpchConfig {
        scale_factor: 0.25,
        ..TpchConfig::default()
    });
    let mut compiler = Compiler::new(&db.vars, db.kind);
    let regions = ["AFRICA", "AMERICA", "ASIA", "EUROPE", "MIDDLE EAST"];
    let queries = [("Q1".to_string(), q1(1_800))]
        .into_iter()
        .chain(regions.map(|region| (format!("Q2 {region}"), q2(region, 50))));
    let mut answers = 0;
    for (name, query) in queries {
        let table = try_evaluate(&db, &query).unwrap();
        answers += table.len();
        let mut nodes = 0;
        for (row, tuple) in table.iter().enumerate() {
            let arena = compiler.emit_semiring(&tuple.annotation).unwrap().clone();
            nodes += arena.len();
            let kept = compiler.compile_semiring(&tuple.annotation).unwrap();
            assert_emission_is_flattening(&arena, kept, &format!("{name} annotation {row}"));
            for aggregate in tuple.values.iter().filter_map(Value::as_agg) {
                let arena = compiler.emit_semimodule(aggregate).unwrap().clone();
                nodes += arena.len();
                let kept = compiler.compile_semimodule(aggregate).unwrap();
                assert_emission_is_flattening(&arena, kept, &format!("{name} aggregate {row}"));
            }
        }
        assert!(nodes >= 3 * table.len(), "{name}: {nodes} nodes");
    }
    assert!(answers > 50, "{answers} answer tuples at this scale");
}

#[test]
fn the_seed_one_conditions_compile_to_the_recorded_counts() {
    // d-tree nodes and the twelve `CompileStats` counters of the
    // benchmark-sized seed-1 conditions. Counts repeat exactly. `absorbed_sums`,
    // `absorbed_terms` and `rebuilt_nodes` count distinct substitutions: a
    // residual the compilation already computed under the same `x ← s` is not
    // rebuilt (or absorbed) again.
    const RECORDED: [[usize; 13]; 12] = [
        [389, 2, 6, 4, 38, 33, 115, 80, 37, 213, 908, 660, 2200],
        [395, 9, 5, 8, 44, 32, 107, 73, 42, 160, 825, 694, 2096],
        [785, 0, 0, 0, 75, 75, 242, 168, 178, 252, 2594, 0, 3174],
        [829, 0, 0, 0, 80, 80, 254, 175, 159, 260, 2486, 0, 2908],
        [391, 11, 4, 7, 46, 31, 103, 73, 35, 134, 839, 596, 1606],
        [403, 10, 5, 6, 45, 32, 109, 77, 43, 134, 795, 547, 1694],
        [829, 0, 0, 0, 85, 85, 244, 160, 160, 237, 2611, 0, 2978],
        [785, 0, 0, 0, 79, 79, 234, 156, 204, 283, 2435, 0, 3464],
        [387, 6, 6, 5, 41, 32, 108, 77, 44, 172, 907, 588, 2122],
        [397, 5, 4, 4, 42, 32, 115, 80, 32, 197, 926, 535, 2278],
        [831, 0, 0, 0, 85, 85, 245, 161, 171, 230, 2547, 0, 2886],
        [799, 0, 0, 0, 85, 85, 229, 145, 164, 232, 2335, 0, 2926],
    ];
    // The same counts when every `[α θ c]` compiled `α`'s whole distribution
    // under one `[θ]` node. Expanding the conditional itself, pruned in every
    // branch, must not grow a tree or add a `⊔`.
    const WHOLE_DISTRIBUTION: [[usize; 12]; 12] = [
        [1295, 176, 11, 17, 208, 1, 251, 0, 243, 1077, 1315, 5720],
        [1307, 178, 18, 29, 219, 1, 237, 0, 191, 957, 1087, 5013],
        [2933, 465, 6, 5, 362, 1, 632, 0, 1398, 3389, 0, 10897],
        [2911, 463, 5, 8, 345, 1, 641, 0, 1468, 3247, 0, 10757],
        [1261, 183, 16, 28, 214, 1, 216, 0, 172, 991, 1066, 4743],
        [1343, 198, 23, 22, 233, 1, 216, 0, 180, 857, 920, 4358],
        [2913, 465, 5, 8, 387, 1, 598, 0, 1410, 3236, 0, 10776],
        [2925, 464, 7, 7, 296, 1, 694, 0, 1585, 3270, 0, 11292],
        [1187, 165, 18, 21, 191, 1, 218, 0, 207, 1079, 1165, 5158],
        [1347, 181, 20, 27, 220, 1, 251, 0, 228, 1127, 1190, 5508],
        [2941, 466, 7, 4, 340, 1, 656, 0, 1464, 3231, 0, 10809],
        [2897, 464, 3, 8, 352, 1, 628, 0, 1526, 3154, 0, 10752],
    ];
    let inputs = conditions(1, 10, 200, 100);
    for ((g, recorded), before) in inputs.iter().zip(RECORDED).zip(WHOLE_DISTRIBUTION) {
        let mut compiler = Compiler::new(&g.vars, KIND);
        let nodes = compiler.emit_semiring(&g.condition).unwrap().len();
        let s = compiler.stats();
        let counted = [
            nodes,
            s.independent_sums,
            s.independent_products,
            s.factorings,
            s.tensor_splits,
            s.comparison_splits,
            s.exclusive_expansions,
            s.pruned_conditionals,
            s.absorbed_sums,
            s.absorbed_terms,
            s.merged_terms,
            s.dominated_terms,
            s.rebuilt_nodes,
        ];
        assert_eq!(counted, recorded);
        assert!(nodes <= before[0] && s.exclusive_expansions <= before[6]);
    }
}
