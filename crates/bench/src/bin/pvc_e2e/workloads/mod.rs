//! The five workloads, and what the engine-driven ones share: digests of
//! generated databases and the by-hand layered replay of one query.

pub mod expr_compile;
pub mod serve_mixed;
pub mod sum_kernel;
pub mod tpch;

use crate::harness::Layers;
use crate::spans::Spans;
use crate::stats::Fnv;
use pvc_algebra::{AggOp, MonoidValue};
use pvc_core::obs::ProfileNode;
use pvc_core::{CacheConfig, Compiler, DTreeArena, SharedArtifacts};
use pvc_db::{try_evaluate, Database, Engine, EvalOptions, Query, Value};
use pvc_expr::{SemimoduleExpr, SemiringExpr};
use pvc_prob::{convolve_additive_chained, ChainVal, Dist, SeededRng};

/// Whether `got` is within `tolerance` of `want`; a NaN on either side never is.
pub fn within(got: f64, want: f64, tolerance: f64) -> bool {
    (got - want).abs() <= tolerance
}

/// Seeded Fisher–Yates shuffle. The workloads draw the *order* and *pairing* of
/// fixed parameter sets from the seed, not the parameters themselves, so that
/// every seed asks for the same amount of work.
pub fn shuffle<T>(rng: &mut SeededRng, items: &mut [T]) {
    for i in (1..items.len()).rev() {
        items.swap(i, rng.gen_range(0..=i));
    }
}

/// Fold a generated database into the input digest: variable distributions
/// and every cell of every table.
pub fn digest_database(h: &mut Fnv, db: &Database) {
    h.u64(db.vars.fingerprint());
    for name in db.table_names() {
        h.str(name);
        for tuple in db.table(name).into_iter().flat_map(|t| t.iter()) {
            for value in &tuple.values {
                match value {
                    Value::Int(i) => h.u64(*i as u64),
                    other => h.str(&other.to_string()),
                }
            }
        }
    }
}

/// Add each span's self time (duration minus children) to the per-layer sum
/// named after it.
fn add_profile_self_times(node: &ProfileNode, layers: &mut Layers) {
    let children: u64 = node.children.iter().map(|c| c.dur_ns).sum();
    let metric = match node.name.as_str() {
        "rewrite" => Some("db.engine.span.rewrite_self_s"),
        "intern" => Some("db.engine.span.intern_self_s"),
        "subtree" => Some("db.engine.span.subtree_self_s"),
        "compile" => Some("db.engine.span.compile_self_s"),
        "tuple" => Some("db.engine.span.tuple_self_s"),
        _ => None,
    };
    if let Some(metric) = metric {
        layers.add(metric, node.dur_ns.saturating_sub(children) as f64 / 1e9);
    }
    for child in &node.children {
        add_profile_self_times(child, layers);
    }
}

/// The two-point distributions of an additive aggregate whose every term is
/// guarded by a single Boolean variable (`None` otherwise): the kernel's input
/// with everything above it stripped away.
fn two_point_terms(agg: &SemimoduleExpr, db: &Database) -> Option<Vec<Dist<MonoidValue>>> {
    if !matches!(agg.op, AggOp::Sum | AggOp::Count) {
        return None;
    }
    agg.terms
        .iter()
        .map(|term| match &term.coeff {
            SemiringExpr::Var(v) => {
                let p = db.vars.prob_true(*v);
                Some(Dist::two_point(MonoidValue::Fin(0), 1.0 - p, term.value, p))
            }
            _ => None,
        })
        .collect()
}

/// Run `f` on a fresh engine over the database in `slot`, then put it back
/// (`None` only while an engine owns the database).
pub fn with_engine<R>(slot: &mut Option<Database>, f: impl FnOnce(&Engine) -> R) -> R {
    let engine = Engine::new(slot.take().expect("database is present between operations"));
    let result = f(&engine);
    *slot = Some(engine.into_database());
    result
}

/// Layered replay of one query on a fresh engine over the database in `slot`
/// (which gets it back whatever happens).
///
/// First the engine's own path once more, profiled (`db.engine.execute`, whose
/// profile gives the engine's nested span self times). Then the same work by
/// hand, one span per layer, through public functions only: step I
/// (`db.exec`), interning (`expr.intern`) and evaluation through a cold
/// artifact store (`core.cache`) — which together with `db.engine.prepare`
/// amount to one sequential operation — followed by the uncached
/// compile → flatten → evaluate route per expression and the bare kernel fold.
pub fn replay_query(
    slot: &mut Option<Database>,
    query: &Query,
    options: &EvalOptions,
    spans: &mut Spans,
    layers: &mut Layers,
) -> Result<(), String> {
    with_engine(slot, |engine| {
        replay_engine(engine, query, options, spans, layers)
    })?;
    let db = slot.as_ref().expect("database is back in its slot");
    replay_by_hand(db, query, options, spans, layers)
}

fn replay_engine(
    engine: &Engine,
    query: &Query,
    options: &EvalOptions,
    spans: &mut Spans,
    layers: &mut Layers,
) -> Result<(), String> {
    let prepared = spans
        .scope("db.engine.prepare", |_| engine.prepare(query))
        .map_err(|e| e.to_string())?;
    let profiled = options.clone().with_profile();
    let result = spans
        .scope("db.engine.execute", |_| prepared.execute(&profiled))
        .map_err(|e| e.to_string())?;
    layers.add("db.engine.step1_s", result.rewrite_time.as_secs_f64());
    layers.add("db.engine.step2_s", result.probability_time.as_secs_f64());
    layers.add(
        "db.engine.fast_path_hits",
        (result.fast_path_hits + result.agg_fast_path_hits) as f64,
    );
    if let Some(profile) = &result.profile {
        add_profile_self_times(&profile.root, layers);
    }
    layers.add("core.cache.bytes", engine.cache_stats().bytes as f64);
    Ok(())
}

fn replay_by_hand(
    db: &Database,
    query: &Query,
    options: &EvalOptions,
    spans: &mut Spans,
    layers: &mut Layers,
) -> Result<(), String> {
    let table = spans
        .scope("db.exec", |_| try_evaluate(db, query))
        .map_err(|e| e.to_string())?;
    let annotations: Vec<&SemiringExpr> = table.iter().map(|t| &t.annotation).collect();
    let aggregates: Vec<&SemimoduleExpr> = table
        .iter()
        .flat_map(|t| t.values.iter().filter_map(Value::as_agg))
        .collect();
    let nodes_in: usize = annotations.iter().map(|e| e.num_nodes()).sum::<usize>()
        + aggregates.iter().map(|e| e.num_nodes()).sum::<usize>();
    layers.add("db.exec.rows_out", table.len() as f64);
    layers.add("db.exec.annotation_nodes", nodes_in as f64);

    let artifacts = SharedArtifacts::new(CacheConfig::default());
    let (ids, agg_ids) = spans.scope("expr.intern", |_| {
        let ids: Vec<_> = annotations.iter().map(|e| artifacts.intern(e)).collect();
        let agg_ids: Vec<_> = aggregates
            .iter()
            .map(|e| artifacts.intern_semimodule(e))
            .collect();
        (ids, agg_ids)
    });
    layers.add("expr.intern.nodes_in", nodes_in as f64);
    layers.add(
        "expr.intern.nodes_distinct",
        artifacts.interned_nodes() as f64,
    );

    spans
        .scope("core.cache", |_| {
            for id in ids {
                artifacts.evaluate_semiring(id, &db.vars, db.kind, &options.compile, 0)?;
            }
            for id in agg_ids {
                artifacts.evaluate_aggregate(id, &db.vars, db.kind, &options.compile, 0)?;
            }
            Ok(())
        })
        .map_err(|e: pvc_core::EvalError| e.to_string())?;

    let mut compiler = Compiler::with_options(&db.vars, db.kind, options.compile.clone());
    let trees = spans
        .scope("core.compile", |_| {
            let mut trees = Vec::with_capacity(annotations.len() + aggregates.len());
            for e in &annotations {
                trees.push((false, compiler.compile_semiring(e)?));
            }
            for e in &aggregates {
                trees.push((true, compiler.compile_semimodule(e)?));
            }
            Ok(trees)
        })
        .map_err(|e: pvc_core::BudgetExceeded| e.to_string())?;
    add_compile_stats(
        &compiler,
        trees.iter().map(|(_, t)| t.num_nodes()).sum(),
        layers,
    );
    let arenas: Vec<(bool, DTreeArena)> = spans.scope("core.arena.flatten", |_| {
        trees
            .iter()
            .map(|(is_agg, tree)| (*is_agg, DTreeArena::from_tree(tree)))
            .collect()
    });
    layers.add(
        "core.arena.nodes",
        arenas.iter().map(|(_, a)| a.len()).sum::<usize>() as f64,
    );
    spans
        .scope("core.arena.eval", |_| {
            for (is_agg, arena) in &arenas {
                if *is_agg {
                    std::hint::black_box(arena.monoid_distribution(&db.vars, db.kind)?);
                } else {
                    std::hint::black_box(arena.semiring_distribution(&db.vars, db.kind)?);
                }
            }
            Ok(())
        })
        .map_err(|e: pvc_core::DTreeError| e.to_string())?;

    let folds: Vec<Vec<Dist<MonoidValue>>> = aggregates
        .iter()
        .filter_map(|agg| two_point_terms(agg, db))
        .collect();
    spans.scope("prob.kernel.replay", |_| {
        let mut scratch = Vec::new();
        for terms in folds {
            let folded = terms
                .into_iter()
                .map(ChainVal::Sparse)
                .reduce(|acc, term| convolve_additive_chained(acc, term, &mut scratch));
            std::hint::black_box(folded.map(ChainVal::into_dist));
        }
    });
    Ok(())
}

/// Add a compiler's rule counts and the d-tree size to the per-layer sums.
pub fn add_compile_stats(compiler: &Compiler<'_>, dtree_nodes: usize, layers: &mut Layers) {
    let stats = compiler.stats();
    layers.add("core.compile.dtree_nodes", dtree_nodes as f64);
    layers.add(
        "core.compile.exclusive_expansions",
        stats.exclusive_expansions as f64,
    );
    layers.add(
        "core.compile.independent_splits",
        (stats.independent_sums + stats.independent_products) as f64,
    );
    layers.add(
        "core.compile.pruned_conditionals",
        stats.pruned_conditionals as f64,
    );
}

/// The replay spans that, in sequence, amount to one engine operation.
pub const ENGINE_OP_SPANS: &[&str] = &["db.engine.prepare", "db.exec", "expr.intern", "core.cache"];
