//! Differential testing against the brute-force world-enumeration oracle.
//!
//! `pvc_expr::oracle`, the workspace's one possible-world oracle, computes
//! aggregate distributions the dumbest possible way: a group of independent
//! tuples `xᵢ` with values `vᵢ` is the expression `Σ xᵢ ⊗ vᵢ` over the
//! database's own variables, and enumerating all `2^n` worlds of it sums world
//! probabilities per outcome (Eq. 3). These tests pin the engine's entire
//! evaluation stack (rewriting, compilation, arena evaluation, the adaptive
//! dense/sparse/FFT convolution kernel, threshold folds) against that ground
//! truth, across:
//!
//! * every aggregate operator (MIN, MAX, SUM, COUNT, PROD);
//! * dense-friendly (small contiguous values) and sparse-forcing (scattered
//!   values) data shapes;
//! * fast-path and full-compilation execution;
//! * thread counts 1 vs 4, `Engine::execute_once` and a budgeted execution
//!   (every root compiled, none folded), which must agree **bit-for-bit** —
//!   evaluation per tuple is single-threaded and kernel-path selection
//!   (including the FFT crossover) is a pure function of operand shapes;
//! * one-sided aggregate threshold predicates, whose confidences must match
//!   the oracle's comparison mass over present worlds;
//! * the artifact store's answers — a conditional `[s θ c]`, an aggregate, a
//!   sum or a product, folded as a leaf list or compiled whole — which must
//!   equal the compiled circuit's **bit-for-bit** over `B` and `N`;
//! * probabilities at the edges of `[0, 1]`, and the numerics contract below
//!   `PROB_EPS`.
//!
//! Oracle-vs-engine agreement is `1e-9`-bounded (the two sides legitimately
//! accumulate in different orders; the FFT path's documented accuracy policy
//! is also `1e-9`-relative). Seeds can be extended from the environment:
//! `PVC_ORACLE_SEED=<u64>` adds one more instance to every sweep, which is how
//! the CI `oracle-smoke` job runs two extra seeded rounds.

use pvc_suite::core::SharedArtifacts;
use pvc_suite::expr::oracle;
use pvc_suite::prelude::*;

/// Deterministic pseudo-random stream (splitmix64) — no RNG dependency, stable
/// across platforms, distinct per seed.
struct Mix(u64);

impl Mix {
    fn next(&mut self) -> u64 {
        self.0 = self.0.wrapping_add(0x9e37_79b9_7f4a_7c15);
        let mut z = self.0;
        z = (z ^ (z >> 30)).wrapping_mul(0xbf58_476d_1ce4_e5b9);
        z = (z ^ (z >> 27)).wrapping_mul(0x94d0_49bb_1331_11eb);
        z ^ (z >> 31)
    }

    /// Uniform in `[0.05, 0.95)` — away from 0/1 so no tuple is (near-)certain.
    fn prob(&mut self) -> f64 {
        0.05 + 0.9 * (self.next() % 1_000_000) as f64 / 1_000_000.0
    }

    fn value(&mut self, lo: i64, hi: i64) -> i64 {
        lo + (self.next() % (hi - lo + 1) as u64) as i64
    }
}

/// Seeds every sweep runs: two fixed, plus `PVC_ORACLE_SEED` when set.
fn seeds() -> Vec<u64> {
    let mut seeds = vec![1, 42];
    if let Ok(extra) = std::env::var("PVC_ORACLE_SEED") {
        seeds.push(extra.parse().expect("PVC_ORACLE_SEED must be a u64"));
    }
    seeds
}

/// One tuple as the oracle sees it: its annotation (a presence variable of
/// the database) and its column value.
type OracleTuple = (SemiringExpr, i64);

/// A single-group database of `n` independent tuples with values in
/// `[lo, hi]`; returns the tuples the oracle needs.
fn seeded_db(seed: u64, n: usize, lo: i64, hi: i64) -> (Database, Vec<OracleTuple>) {
    let mut mix = Mix(seed);
    let mut db = Database::new();
    db.create_table("T", Schema::new(["g", "v"]));
    let mut tuples = Vec::with_capacity(n);
    let (t, vars) = db.table_and_vars_mut("T").unwrap();
    for _ in 0..n {
        let p = mix.prob();
        let v = mix.value(lo, hi);
        let x = t.push_independent(vec!["G".into(), v.into()], p, vars);
        tuples.push((x, v));
    }
    (db, tuples)
}

/// `Σ xᵢ ⊗ vᵢ` over a group's tuples, where COUNT aggregates the constant 1
/// per tuple and everything else the column value.
fn group_alpha(op: AggOp, tuples: &[OracleTuple]) -> SemimoduleExpr {
    let terms = tuples
        .iter()
        .map(|(x, v)| {
            let contributed = if op.is_count() { 1 } else { *v };
            (x.clone(), MonoidValue::Fin(contributed))
        })
        .collect();
    SemimoduleExpr::from_terms(op, terms)
}

/// The group's total aggregate distribution by enumeration of
/// [`group_alpha`] over the database's variables. The world with no tuple
/// present contributes the monoid identity (`SUM = 0`, `MIN = +∞`, …).
fn enumerated(op: AggOp, vars: &VarTable, tuples: &[OracleTuple]) -> MonoidDist {
    oracle::semimodule_dist_by_enumeration(&group_alpha(op, tuples), vars, SemiringKind::Bool)
}

/// `P[agg θ c]` read off an enumerated distribution: the comparison mass the
/// engine's threshold folds compute for a `HAVING`-style predicate.
fn comparison_mass(dist: &MonoidDist, theta: CmpOp, c: i64) -> f64 {
    dist.iter()
        .filter(|(v, _)| theta.eval(*v, &MonoidValue::Fin(c)))
        .fold(0.0, |sum, (_, p)| sum + p)
}

fn agg_query(op: AggOp) -> Query {
    Query::table("T").group_agg(Vec::<String>::new(), vec![AggSpec::new(op, "v", "m")])
}

/// `|engine − oracle|` must stay within `tol` on the union of both supports.
fn assert_dist_close(engine: &MonoidDist, expected: &MonoidDist, tol: f64, context: &str) {
    for (v, p) in expected.iter() {
        assert!(
            (engine.prob(v) - p).abs() <= tol,
            "{context}: P[{v}] engine={} oracle={p}",
            engine.prob(v)
        );
    }
    for (v, p) in engine.iter() {
        assert!(
            (expected.prob(v) - p).abs() <= tol,
            "{context}: P[{v}] engine={p} oracle={}",
            expected.prob(v)
        );
    }
}

#[test]
fn every_aggregate_matches_the_enumeration_oracle() {
    for seed in seeds() {
        // Dense-friendly values (contiguous SUM supports) and scattered values
        // (forces the sparse kernel) — the oracle doesn't care, the engine's
        // kernel takes different paths.
        for (lo, hi, shape) in [(1, 6, "dense"), (1_000, 900_000, "sparse")] {
            let (db, tuples) = seeded_db(seed, 10, lo, hi);
            let engine = Engine::new(db);
            for op in [
                AggOp::Min,
                AggOp::Max,
                AggOp::Sum,
                AggOp::Count,
                AggOp::Prod,
            ] {
                let context = format!("seed={seed} shape={shape} op={op}");
                let result = engine
                    .prepare(&agg_query(op))
                    .unwrap()
                    .execute(&EvalOptions::default());
                // PROD over ten ~10^5-scale factors would leave i64: the
                // engine refuses it rather than wrap.
                if op == AggOp::Prod && shape == "sparse" {
                    assert!(
                        matches!(result, Err(Error::AggregateOverflow { .. })),
                        "{context}: {result:?}"
                    );
                    continue;
                }
                let result = result.unwrap();
                assert_eq!(result.tuples.len(), 1, "{context}");
                let expected = enumerated(op, &engine.database().vars, &tuples);
                assert_dist_close(
                    &result.tuples[0].aggregate_distributions["m"],
                    &expected,
                    1e-9,
                    &context,
                );
                // A group-free aggregate always produces its one row: the
                // empty world contributes the monoid identity, not absence.
                assert!(
                    (result.tuples[0].confidence - 1.0).abs() < 1e-9,
                    "{context}: confidence"
                );
            }
        }
    }
}

#[test]
fn fast_path_and_full_compilation_agree_with_the_oracle() {
    for seed in seeds() {
        let (db, tuples) = seeded_db(seed, 8, 1, 50);
        let engine = Engine::new(db);
        for op in [AggOp::Min, AggOp::Max, AggOp::Sum] {
            let prepared = engine.prepare(&agg_query(op)).unwrap();
            let expected = enumerated(op, &engine.database().vars, &tuples);
            for (label, options) in [
                ("fast", EvalOptions::default()),
                ("compiled", EvalOptions::default().without_fast_path()),
            ] {
                let context = format!("seed={seed} op={op} path={label}");
                let result = prepared.execute(&options).unwrap();
                assert_dist_close(
                    &result.tuples[0].aggregate_distributions["m"],
                    &expected,
                    1e-9,
                    &context,
                );
            }
        }
    }
}

#[test]
fn thread_counts_agree_bitwise_and_match_the_oracle() {
    for seed in seeds() {
        for (lo, hi) in [(1, 6), (200, 90_000)] {
            let (db, tuples) = seeded_db(seed, 12, lo, hi);
            let reference_engine = Engine::new(db.clone());
            for op in [AggOp::Sum, AggOp::Count, AggOp::Min] {
                let prepared = reference_engine.prepare(&agg_query(op)).unwrap();
                let reference = prepared
                    .execute(&EvalOptions::default().with_threads(1))
                    .unwrap();
                // Cold engine per thread count, `execute_once`'s caches of its
                // own, and an execution under a budget (a private store, every
                // root compiled): identical results, bit for bit.
                let cold = |options: &EvalOptions| {
                    let engine = Engine::new(db.clone());
                    let prepared = engine.prepare(&agg_query(op)).unwrap();
                    prepared.execute(options).unwrap()
                };
                for route in ["threads=2", "threads=4", "execute_once", "budget=MAX"] {
                    let options = EvalOptions::default();
                    let result = match route {
                        "threads=2" => cold(&options.with_threads(2)),
                        "threads=4" => cold(&options.with_threads(4)),
                        "execute_once" => {
                            Engine::execute_once(&db, &agg_query(op), &options).unwrap()
                        }
                        _ => prepared
                            .execute(&options.with_node_budget(usize::MAX))
                            .unwrap(),
                    };
                    assert_eq!(result.tuples.len(), reference.tuples.len());
                    for (want, got) in reference.tuples.iter().zip(&result.tuples) {
                        assert_eq!(
                            want.aggregate_distributions, got.aggregate_distributions,
                            "seed={seed} op={op} {route}: distributions must be identical"
                        );
                        assert_eq!(
                            want.confidence.to_bits(),
                            got.confidence.to_bits(),
                            "seed={seed} op={op} {route}: confidence bits"
                        );
                    }
                }
                let expected = enumerated(op, &db.vars, &tuples);
                assert_dist_close(
                    &reference.tuples[0].aggregate_distributions["m"],
                    &expected,
                    1e-9,
                    &format!("seed={seed} op={op} oracle"),
                );
            }
        }
    }
}

#[test]
fn threshold_predicates_match_the_oracle_comparison_mass() {
    for seed in seeds() {
        let (db, tuples) = seeded_db(seed, 9, 1, 20);
        let engine = Engine::new(db);
        for op in [AggOp::Sum, AggOp::Count, AggOp::Min, AggOp::Max] {
            // Group-free aggregates follow the total-distribution semantics
            // (the empty world contributes the identity), so the predicate's
            // confidence is the oracle's comparison mass over *all* worlds.
            let base = enumerated(op, &engine.database().vars, &tuples);
            for theta in [CmpOp::Le, CmpOp::Lt, CmpOp::Ge, CmpOp::Gt] {
                for c in [1, 5, 40] {
                    let query = agg_query(op).select(Predicate::AggCmpConst("m".into(), theta, c));
                    let result = engine
                        .prepare(&query)
                        .unwrap()
                        .execute(&EvalOptions::default())
                        .unwrap();
                    let expected = comparison_mass(&base, theta, c);
                    let got = result.tuples.first().map_or(0.0, |t| t.confidence);
                    assert!(
                        (got - expected).abs() < 1e-9,
                        "seed={seed} op={op} {theta:?} {c}: engine={got} oracle={expected}"
                    );
                }
            }
        }
    }
}

/// A HAVING no world satisfies has confidence `+0.0`, bit for bit, on the fast
/// path and through full compilation: the confidence is a sum over no outcome,
/// and an empty `f64` sum's sign differs between Rust toolchains.
#[test]
fn unsatisfiable_having_has_positive_zero_confidence() {
    for rows in [1, 7, 20] {
        let mut db = Database::new();
        db.create_table("sales", Schema::new(["region", "amount"]));
        let (t, vars) = db.table_and_vars_mut("sales").unwrap();
        for i in 0..rows {
            let p = 0.1 + 0.8 * (i as f64 / rows as f64);
            t.push_independent(vec!["R".into(), (i as i64 % 10).into()], p, vars);
        }
        let engine = Engine::new(db);
        for theta in [CmpOp::Ge, CmpOp::Gt, CmpOp::Eq] {
            let query = Query::table("sales")
                .group_agg(["region"], vec![AggSpec::new(AggOp::Min, "amount", "m")])
                .select(Predicate::AggCmpConst("m".into(), theta, 500));
            for (label, options) in [
                ("fast", EvalOptions::default()),
                ("compiled", EvalOptions::default().without_fast_path()),
            ] {
                let result = engine.prepare(&query).unwrap().execute(&options).unwrap();
                assert_eq!(result.tuples.len(), 1, "rows={rows} {theta:?} path={label}");
                let confidence = result.tuples[0].confidence;
                assert_eq!(
                    confidence.to_bits(),
                    0.0f64.to_bits(),
                    "rows={rows} {theta:?} path={label}: confidence {confidence:?}"
                );
            }
        }
    }
}

#[test]
fn grouped_queries_match_per_group_oracles() {
    for seed in seeds() {
        let mut mix = Mix(seed.wrapping_mul(31).wrapping_add(5));
        let mut db = Database::new();
        db.create_table("T", Schema::new(["g", "v"]));
        let mut groups: std::collections::BTreeMap<String, Vec<OracleTuple>> =
            std::collections::BTreeMap::new();
        {
            let (t, vars) = db.table_and_vars_mut("T").unwrap();
            for i in 0..12 {
                let g = format!("g{}", i % 3);
                let p = mix.prob();
                let v = mix.value(1, 8);
                let x = t.push_independent(vec![g.as_str().into(), v.into()], p, vars);
                groups.entry(g).or_default().push((x, v));
            }
        }
        let engine = Engine::new(db);
        let query = Query::table("T").group_agg(["g"], vec![AggSpec::new(AggOp::Sum, "v", "m")]);
        let result = engine
            .prepare(&query)
            .unwrap()
            .execute(&EvalOptions::default())
            .unwrap();
        assert_eq!(result.tuples.len(), groups.len(), "seed={seed}");
        for tuple in &result.tuples {
            let Value::Str(g) = &tuple.values[0] else {
                panic!("group key must be text");
            };
            let expected = enumerated(AggOp::Sum, &engine.database().vars, &groups[g.as_str()]);
            assert_dist_close(
                &tuple.aggregate_distributions["m"],
                &expected,
                1e-9,
                &format!("seed={seed} group={g}"),
            );
        }
    }
}

/// The sides the store's conditional route is exercised on, over the variables
/// `x` (seeded order) and `empty`, a variable with no outcome at all.
fn conditional_sides(
    x: &[SemiringExpr],
    empty: &SemiringExpr,
    one: SemiringValue,
) -> Vec<(&'static str, SemiringExpr)> {
    let sum = SemiringExpr::sum;
    let product = SemiringExpr::product;
    let xy = |i: usize, j: usize| product(vec![x[i].clone(), x[j].clone()]);
    vec![
        ("leaves", sum(x[..5].to_vec())),
        // Two summands share x0: one two-member component among leaves, whose
        // place in the fold moves when components are re-sorted.
        (
            "shared",
            sum(vec![
                xy(0, 1),
                xy(0, 2),
                x[3].clone(),
                x[4].clone(),
                x[5].clone(),
            ]),
        ),
        (
            "shared-twice",
            sum(vec![
                xy(0, 1),
                x[2].clone(),
                xy(0, 3),
                xy(4, 5),
                x[6].clone(),
                xy(4, 2),
            ]),
        ),
        (
            "nested",
            sum(vec![
                product(vec![x[0].clone(), sum(vec![x[1].clone(), x[2].clone()])]),
                product(vec![x[3].clone(), sum(vec![x[4].clone(), xy(5, 6)])]),
                x[7].clone(),
            ]),
        ),
        (
            "product",
            product(vec![
                x[0].clone(),
                sum(vec![x[1].clone(), x[2].clone()]),
                x[3].clone(),
                sum(vec![x[4].clone(), x[1].clone()]),
                x[5].clone(),
            ]),
        ),
        (
            "empty-leaf",
            sum(vec![
                x[0].clone(),
                empty.clone(),
                x[1].clone(),
                x[2].clone(),
            ]),
        ),
        // A constant operand: `simplify` folds it away, so the store leaves
        // the conditional to the compiler.
        (
            "constant",
            sum(vec![
                x[0].clone(),
                SemiringExpr::Const(one),
                x[1].clone(),
                x[2].clone(),
            ]),
        ),
    ]
}

/// The artifact store answers `[s θ c]` itself when `s` is a sum or product
/// of independent leaves (rule 5, then rule 2), and compiles any other
/// conditional whole: its distribution must be the compiled circuit's in every
/// bit, over `B` and `N`, for every `θ`, with the constant on either side —
/// and within 1e-9 of enumeration.
#[test]
fn store_conditionals_equal_the_compiled_circuit_bit_for_bit() {
    let bits = |d: &SemiringDist| -> Vec<(SemiringValue, u64)> {
        d.iter().map(|(v, p)| (*v, p.to_bits())).collect()
    };
    let thetas = [
        CmpOp::Eq,
        CmpOp::Ne,
        CmpOp::Le,
        CmpOp::Lt,
        CmpOp::Ge,
        CmpOp::Gt,
    ];
    for seed in seeds() {
        let mut mix = Mix(seed.wrapping_mul(0x2545_f491).wrapping_add(17));
        for kind in [SemiringKind::Bool, SemiringKind::Nat] {
            let mut vars = VarTable::new();
            let mut x: Vec<SemiringExpr> = (0..8)
                .map(|i| {
                    let var = match kind {
                        SemiringKind::Bool => vars.boolean(format!("x{i}"), mix.prob()),
                        SemiringKind::Nat => {
                            let (p, q) = (mix.prob() / 2.0, mix.prob() / 2.0);
                            let top = mix.value(2, 3) as u64;
                            vars.natural(format!("n{i}"), &[(0, p), (1, q), (top, 1.0 - p - q)])
                        }
                    };
                    SemiringExpr::Var(var)
                })
                .collect();
            // A seeded order, so variable ids and canonical operand order vary.
            for i in (1..x.len()).rev() {
                x.swap(i, mix.value(0, i as i64) as usize);
            }
            let empty = SemiringExpr::Var(vars.fresh("empty", Dist::empty()));
            for (shape, side) in conditional_sides(&x, &empty, kind.one()) {
                for theta in thetas {
                    for constant_left in [false, true] {
                        let c = match kind {
                            SemiringKind::Bool => SemiringValue::Bool(mix.next() % 2 == 1),
                            SemiringKind::Nat => SemiringValue::Nat(mix.value(0, 4) as u64),
                        };
                        let c = SemiringExpr::Const(c);
                        let expr = match constant_left {
                            true => SemiringExpr::cmp_ss(theta, c, side.clone()),
                            false => SemiringExpr::cmp_ss(theta, side.clone(), c),
                        };
                        let context = format!("seed={seed} {kind:?} {shape}: {expr}");
                        let store = SharedArtifacts::default();
                        let id = store.intern(&expr);
                        let options = CompileOptions::default();
                        let routed = store
                            .evaluate_semiring(id, &vars, kind, &options, 0)
                            .unwrap();
                        let compiled = Compiler::new(&vars, kind)
                            .emit_semiring(&expr)
                            .unwrap()
                            .semiring_distribution(&vars, kind)
                            .unwrap();
                        assert_eq!(bits(&routed), bits(&compiled), "{context}");
                        let expected = oracle::semiring_dist_by_enumeration(&expr, &vars, kind);
                        assert!(routed.approx_eq(&expected, 1e-9), "{context}");
                        // A side of leaves is folded; any other conditional
                        // is compiled whole. Either way one entry: the root's.
                        let folded = matches!(shape, "leaves" | "empty-leaf");
                        let arena_misses = store.counters().arena_misses;
                        assert_eq!(arena_misses, u64::from(!folded), "{context}");
                        assert_eq!(store.semiring_entries(), 1, "{context}");
                    }
                }
            }
        }
    }
}

/// The artifact store folds an aggregate, a sum or a product of independent
/// leaves itself and compiles any other whole: its distribution must be the
/// compiled circuit's in every bit, over `B` and `N`, for SUM / COUNT / MIN /
/// MAX — and within 1e-9 of enumeration. Components that share a variable
/// (`x0·x3` and `x3` below) are where a fold in another order than the
/// compiler's chain would show in the last bits.
#[test]
fn store_aggregates_and_sums_equal_the_compiled_circuit_bit_for_bit() {
    fn bits<V: Copy + Ord>(d: &Dist<V>) -> Vec<(V, u64)> {
        d.iter().map(|(v, p)| (*v, p.to_bits())).collect()
    }
    let sum = SemiringExpr::sum;
    let product = SemiringExpr::product;
    let (mut fold_cases, mut compile_cases, mut cases) = (0, 0, 0);
    for seed in seeds() {
        let mut mix = Mix(seed.wrapping_mul(0x9e37_79b9).wrapping_add(5));
        for kind in [SemiringKind::Bool, SemiringKind::Nat] {
            let mut vars = VarTable::new();
            let mut x: Vec<SemiringExpr> = (0..8)
                .map(|i| {
                    let var = match kind {
                        SemiringKind::Bool => vars.boolean(format!("x{i}"), mix.prob()),
                        SemiringKind::Nat => {
                            let (p, q) = (mix.prob() / 2.0, mix.prob() / 2.0);
                            let top = mix.value(2, 3) as u64;
                            vars.natural(format!("n{i}"), &[(0, p), (1, q), (top, 1.0 - p - q)])
                        }
                    };
                    SemiringExpr::Var(var)
                })
                .collect();
            // A seeded order, so variable ids and canonical operand order vary.
            for i in (1..x.len()).rev() {
                x.swap(i, mix.value(0, i as i64) as usize);
            }
            let xy = |i: usize, j: usize| product(vec![x[i].clone(), x[j].clone()]);
            // Coefficient lists: the fixed entangled one, then seeded ones of
            // three to six distinct coefficients (a variable, a product or a
            // sum of two), which `simplify` leaves as they are.
            let mut coefficient_lists =
                vec![vec![xy(0, 3), x[1].clone(), x[2].clone(), x[3].clone()]];
            for _ in 0..12 {
                let mut keys = std::collections::BTreeSet::new();
                let len = mix.value(3, 6) as usize;
                while keys.len() < len {
                    let (i, j) = (mix.value(0, 7) as usize, mix.value(0, 7) as usize);
                    keys.insert(match mix.value(0, 5) {
                        shape if shape <= 2 || i == j => (0, i, i),
                        3 | 4 => (1, i.min(j), i.max(j)),
                        _ => (2, i.min(j), i.max(j)),
                    });
                }
                coefficient_lists.push(
                    keys.into_iter()
                        .map(|(shape, i, j)| match shape {
                            0 => x[i].clone(),
                            1 => xy(i, j),
                            _ => sum(vec![x[i].clone(), x[j].clone()]),
                        })
                        .collect(),
                );
            }
            for coefficients in &coefficient_lists {
                for op in [AggOp::Sum, AggOp::Count, AggOp::Min, AggOp::Max] {
                    let terms = coefficients
                        .iter()
                        .map(|c| {
                            let m = match op {
                                AggOp::Count => 1,
                                _ => mix.value(-3, 9),
                            };
                            (c.clone(), MonoidValue::Fin(m))
                        })
                        .collect();
                    let alpha = SemimoduleExpr::from_terms(op, terms);
                    let context = format!("seed={seed} {kind:?}: {alpha}");
                    let store = SharedArtifacts::default();
                    let id = store.intern_semimodule(&alpha);
                    let options = CompileOptions::default();
                    let folded = store
                        .evaluate_aggregate(id, &vars, kind, &options, 0)
                        .unwrap();
                    let compiled = Compiler::new(&vars, kind)
                        .emit_semimodule(&alpha)
                        .unwrap()
                        .monoid_distribution(&vars, kind)
                        .unwrap();
                    assert_eq!(bits(&folded), bits(&compiled), "{context}");
                    let expected = oracle::semimodule_dist_by_enumeration(&alpha, &vars, kind);
                    assert!(folded.approx_eq(&expected, 1e-9), "{context}");
                    // Folded or compiled, the aggregate leaves one entry.
                    assert_eq!(store.aggregate_entries(), 1, "{context}");
                    match store.counters().arena_misses {
                        0 => fold_cases += 1,
                        1 => compile_cases += 1,
                        n => panic!("{n} compilations for one root: {context}"),
                    }
                    cases += 1;
                }
                for (name, expr) in [
                    ("sum", sum(coefficients.clone())),
                    ("product", product(coefficients.clone())),
                ] {
                    let context = format!("seed={seed} {kind:?} {name}: {expr}");
                    let store = SharedArtifacts::default();
                    let id = store.intern(&expr);
                    let options = CompileOptions::default();
                    let folded = store
                        .evaluate_semiring(id, &vars, kind, &options, 0)
                        .unwrap();
                    let compiled = Compiler::new(&vars, kind)
                        .emit_semiring(&expr)
                        .unwrap()
                        .semiring_distribution(&vars, kind)
                        .unwrap();
                    assert_eq!(bits(&folded), bits(&compiled), "{context}");
                    let expected = oracle::semiring_dist_by_enumeration(&expr, &vars, kind);
                    assert!(folded.approx_eq(&expected, 1e-9), "{context}");
                }
            }
        }
    }
    // The sweep reaches both ways a miss is answered. The fixed seeds fold
    // 16 of 208 aggregates (every op over a list of bare variables) and
    // compile the rest; an extra seed adds 104 cases, so a fold share of at
    // least 1 in 40 holds whatever it draws.
    assert!(
        40 * fold_cases >= cases,
        "only {fold_cases} of {cases} aggregates were folded"
    );
    assert!(
        2 * compile_cases > cases,
        "only {compile_cases} of {cases} aggregates were compiled"
    );
}

/// Boolean conditions `[Σ_op Φᵢ⊗vᵢ θ c]` whose coefficients are random DNFs
/// over at most twelve variables, for MIN / MAX / COUNT / SUM × `=`, `≤`, `≥`,
/// drawn until three compilations per class have dropped a subsumed monomial
/// from a residual (`m + m·Ψ = m`): every compiled confidence must be
/// enumeration's, within 1e-9, those where the law fired above all.
#[test]
fn conditions_where_monomials_are_absorbed_match_enumeration() {
    let thetas = [CmpOp::Eq, CmpOp::Le, CmpOp::Ge];
    let ops = [AggOp::Min, AggOp::Max, AggOp::Count, AggOp::Sum];
    for seed in seeds() {
        let mut mix = Mix(seed.wrapping_mul(0xa0b5_0f1e).wrapping_add(11));
        for op in ops {
            for theta in thetas {
                let mut fired = 0;
                for attempt in 0..60 {
                    let mut vars = VarTable::new();
                    let n = mix.value(8, 12) as usize;
                    let xs: Vec<Var> = (0..n)
                        .map(|i| vars.boolean(format!("x{i}"), mix.prob()))
                        .collect();
                    let clause = |mix: &mut Mix| {
                        let mut pool = xs.clone();
                        let width = mix.value(1, 3) as usize;
                        for i in 0..width {
                            pool.swap(i, mix.value(i as i64, n as i64 - 1) as usize);
                        }
                        SemiringExpr::product(pool[..width].iter().map(|&x| x.into()).collect())
                    };
                    let terms: Vec<(SemiringExpr, MonoidValue)> = (0..mix.value(4, 10))
                        .map(|_| {
                            let clauses = (0..mix.value(1, 3)).map(|_| clause(&mut mix)).collect();
                            let value = match op {
                                AggOp::Count => 1,
                                _ => mix.value(1, 12),
                            };
                            (SemiringExpr::sum(clauses), MonoidValue::Fin(value))
                        })
                        .collect();
                    let bound = match op {
                        AggOp::Min | AggOp::Max => 6,
                        AggOp::Count => terms.len() as i64 / 2,
                        _ => 3 * terms.len() as i64,
                    };
                    let condition = SemiringExpr::cmp_mm(
                        theta,
                        SemimoduleExpr::from_terms(op, terms),
                        SemimoduleExpr::constant(op, MonoidValue::Fin(bound)),
                    );
                    let mut compiler = Compiler::new(&vars, SemiringKind::Bool);
                    let dist = compiler
                        .emit_semiring(&condition)
                        .unwrap()
                        .semiring_distribution(&vars, SemiringKind::Bool)
                        .unwrap();
                    let got = pvc_suite::core::confidence_of(&dist);
                    let expected =
                        oracle::confidence_by_enumeration(&condition, &vars, SemiringKind::Bool);
                    assert!(
                        (got - expected).abs() < 1e-9,
                        "seed={seed} {op} {theta:?} attempt {attempt}: {got} vs {expected}: {condition}"
                    );
                    fired += usize::from(compiler.last_stats().absorbed_terms > 0);
                    if fired == 3 {
                        break;
                    }
                }
                assert_eq!(
                    fired, 3,
                    "seed={seed} {op} {theta:?}: the law fired {fired} times"
                );
            }
        }
    }
}

/// The confidence of `HAVING op(v) ≥ c` for one group by enumeration: the
/// mass of the worlds where the group is present (`Σ xᵢ ≠ 0`) and its
/// aggregate meets the bound, summed here so that no outcome is dropped,
/// however small (`Dist::from_pairs` drops one at or below `PROB_EPS`).
fn having_confidence(op: AggOp, c: i64, vars: &VarTable, tuples: &[OracleTuple]) -> f64 {
    let present = SemiringExpr::sum(tuples.iter().map(|(x, _)| x.clone()).collect());
    let bound = SemimoduleExpr::constant(op, MonoidValue::Fin(c));
    let condition = SemiringExpr::cmp_mm(CmpOp::Ge, group_alpha(op, tuples), bound);
    let having = SemiringExpr::product(vec![present, condition]);
    oracle::enumerate_worlds(&having.vars(), vars)
        .into_iter()
        .filter(|(world, _)| !having.eval(&|v| world[&v], SemiringKind::Bool).is_zero())
        .map(|(_, p)| p)
        .sum()
}

/// Rows at the edges of `[0, 1]` — `p` = 0, 1, `f64::MIN_POSITIVE` (a
/// two-point distribution drops it: the row is never present) and
/// `1 − 1e-12` (the row is always present) — beside ordinary ones, and a group
/// whose rows all have `p = 0`, so its MIN / MAX is the monoid identity
/// `±∞` in every world. COUNT / SUM / MIN / MAX and a `HAVING` over each go
/// through `Engine::execute` with the fast path on and off, on one and two
/// threads, and again after `Delta::set_probability` moves rows to 0 and 1:
/// every confidence and aggregate distribution is enumeration's within 1e-9.
#[test]
fn adversarial_probabilities_match_the_oracle() {
    let edges = [0.0, 1.0, f64::MIN_POSITIVE, 1.0 - 1e-12];
    for seed in seeds() {
        let mut mix = Mix(seed.wrapping_mul(0x51ed_2701).wrapping_add(3));
        let mut db = Database::new();
        db.create_table("T", Schema::new(["g", "v"]));
        let mut groups: std::collections::BTreeMap<String, Vec<OracleTuple>> =
            std::collections::BTreeMap::new();
        {
            let (t, vars) = db.table_and_vars_mut("T").unwrap();
            for i in 0..19 {
                let (g, p) = match i {
                    0..=3 => ("zero".to_string(), 0.0),
                    _ if mix.next() % 3 == 0 => (format!("g{}", i % 3), mix.prob()),
                    _ => (format!("g{}", i % 3), edges[(mix.next() % 4) as usize]),
                };
                let v = mix.value(-5, 9);
                let x = t.push_independent(vec![g.as_str().into(), v.into()], p, vars);
                groups.entry(g).or_default().push((x, v));
            }
        }
        let mut engine = Engine::new(db);
        let check = |engine: &Engine, stage: &str| {
            let vars = &engine.database().vars;
            for op in [AggOp::Count, AggOp::Sum, AggOp::Min, AggOp::Max] {
                let grouped = Query::table("T").group_agg(["g"], vec![AggSpec::new(op, "v", "m")]);
                // A bound some worlds of a group meet and others do not.
                let c = match op {
                    AggOp::Count => 2,
                    AggOp::Sum => 4,
                    _ => 3,
                };
                let having =
                    grouped
                        .clone()
                        .select(Predicate::AggCmpConst("m".into(), CmpOp::Ge, c));
                for options in [
                    EvalOptions::default(),
                    EvalOptions::default().without_fast_path(),
                    EvalOptions::default().with_threads(2),
                    EvalOptions::default().without_fast_path().with_threads(2),
                ] {
                    let context = format!(
                        "seed={seed} {stage} op={op} fast={} threads={}",
                        options.tractable_fast_path, options.threads
                    );
                    let result = engine.prepare(&grouped).unwrap().execute(&options).unwrap();
                    assert_eq!(result.tuples.len(), groups.len(), "{context}");
                    let filtered = engine.prepare(&having).unwrap().execute(&options).unwrap();
                    assert_eq!(filtered.tuples.len(), groups.len(), "{context}");
                    for (tuple, kept) in result.tuples.iter().zip(&filtered.tuples) {
                        let Value::Str(g) = &tuple.values[0] else {
                            panic!("group key must be text");
                        };
                        let rows = &groups[g.as_str()];
                        let present = SemiringExpr::sum(rows.iter().map(|r| r.0.clone()).collect());
                        let expected =
                            oracle::confidence_by_enumeration(&present, vars, SemiringKind::Bool);
                        assert!(
                            (tuple.confidence - expected).abs() <= 1e-9,
                            "{context} group={g}: confidence {} vs {expected}",
                            tuple.confidence
                        );
                        assert_dist_close(
                            &tuple.aggregate_distributions["m"],
                            &enumerated(op, vars, rows),
                            1e-9,
                            &format!("{context} group={g}"),
                        );
                        assert_eq!(kept.values[0], tuple.values[0], "{context}");
                        let expected = having_confidence(op, c, vars, rows);
                        assert!(
                            (kept.confidence - expected).abs() <= 1e-9,
                            "{context} group={g} HAVING m >= {c}: {} vs {expected}",
                            kept.confidence
                        );
                    }
                }
            }
        };
        check(&engine, "built");
        // Re-weight one row of every group, to 0 and then to 1.
        let rows: Vec<usize> = (0..groups.len()).map(|k| 4 + k).collect();
        for p in [0.0, 1.0] {
            let delta = rows.iter().fold(Delta::new(), |delta, &row| {
                delta.set_probability("T", row, p)
            });
            engine.apply_delta(delta).unwrap();
            check(&engine, &format!("set_probability({p})"));
        }
    }
}

/// The numerics contract below `PROB_EPS`: `HAVING MIN(amount) ≥ 500` over a
/// group whose `2k` rows alternate amounts 100 / 900 at `p = 0.5` holds when
/// no 100-row and some 900-row is present, `0.5ᵏ(1 − 0.5ᵏ)`. The engine's
/// absolute error is at most `PROB_EPS` (the drop rule applied along the
/// circuit); its relative error below 1e-9 is unbounded. At 40 rows the
/// answer is kept; at 60 rows the exact answer is 9.31e-10 and the engine
/// returns 0.0.
///
/// Rows of one amount are interchangeable for MIN and for the group's
/// presence — only whether any of them is present matters — so the oracle
/// enumerates the group with each block of ten rows of one amount merged into
/// one row (at most 64 worlds instead of 2⁶⁰).
#[test]
fn confidences_below_prob_eps_are_within_the_drop_rule() {
    for (rows, engine_reads_zero) in [(40, false), (60, true)] {
        let half = rows / 2;
        let mut db = Database::new();
        db.create_table("sales", Schema::new(["region", "amount"]));
        let (t, vars) = db.table_and_vars_mut("sales").unwrap();
        for i in 0..rows {
            let amount: i64 = if i % 2 == 0 { 100 } else { 900 };
            t.push_independent(vec!["R".into(), amount.into()], 0.5, vars);
        }
        let query = Query::table("sales")
            .group_agg(["region"], vec![AggSpec::new(AggOp::Min, "amount", "m")])
            .select(Predicate::AggCmpConst("m".into(), CmpOp::Ge, 500));

        // Ten rows of one amount merge into one row present with
        // `P = 1 − 0.5¹⁰`, whose absent mass 0.5¹⁰ a variable keeps (one
        // with the 0.5³⁰ of a whole amount's rows would drop it).
        let mut merged = VarTable::new();
        let mut blocks = Vec::new();
        for amount in [100, 900] {
            for block in 0..half / 10 {
                let x = merged.boolean(format!("{amount}#{block}"), 1.0 - 0.5f64.powi(10));
                blocks.push((SemiringExpr::Var(x), amount));
            }
        }
        let exact = having_confidence(AggOp::Min, 500, &merged, &blocks);
        let closed_form = 0.5f64.powi(half) * (1.0 - 0.5f64.powi(half));
        assert!(
            (exact - closed_form).abs() <= 1e-15 * closed_form,
            "{exact}"
        );

        let engine = Engine::new(db);
        for options in [
            EvalOptions::default(),
            EvalOptions::default().without_fast_path(),
        ] {
            let result = engine.prepare(&query).unwrap().execute(&options).unwrap();
            let got = result.tuples[0].confidence;
            let context = format!(
                "rows={rows} fast={}: engine {got:e}, exact {exact:e}",
                options.tractable_fast_path
            );
            assert!(
                (got - exact).abs() <= pvc_suite::prob::PROB_EPS,
                "{context}"
            );
            if engine_reads_zero {
                // The drop rule's relative error of 1: the stated contract,
                // until the circuit drops mass only at its root.
                assert_eq!(got, 0.0, "{context}");
            } else {
                assert!((got - exact).abs() <= 1e-12 * exact, "{context}");
            }
        }
    }
}
