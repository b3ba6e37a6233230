//! Result digests of 156 engine configurations and 12 compiled conditions, one
//! line each — the bit-parity check between two trees.
//!
//! Every configuration is one query × fast path on / off × 1, 2 or 4 threads ×
//! a pool the execution starts for itself or one shared pool. The queries are
//! TPC-H Q1 at four ship-date cut-offs (scale factor 0.5), Q2 in the five
//! regions (scale factor 2, where every region has an answer), and SUM, COUNT,
//! MIN and MAX per group over a table of independent rows. Each line digests
//! five routes to the same answer: a cold engine, the same engine warm, a
//! stream on a fresh engine, `Engine::execute_once`, and an engine restored
//! from the cold engine's snapshot. A digest covers every tuple's values, the
//! bits of its confidence and the bits of every aggregate distribution, so two
//! trees that answer alike print the same lines.
//!
//! The engine answers its group confidences through the artifact store and Q2
//! compares with `=`, so the compiler's one-sided threshold folds are reached
//! by the last twelve lines: one generated condition `[Σ Φᵢ⊗vᵢ θ c]` per
//! aggregate (MIN, MAX, COUNT, SUM) × θ (`=`, `≤`, `≥`), compiled by
//! `Compiler::emit_semiring_id` and evaluated. Each line digests the
//! confidence's bits, the arena's node count and the compilation statistics:
//!
//! ```text
//! cargo run -q --release --example digest > before.txt   # in one tree
//! cargo run -q --release --example digest > after.txt    # in the other
//! diff before.txt after.txt                              # empty: same bits
//! ```
//!
//! Build each tree with its own `CARGO_TARGET_DIR`. A run takes about a minute
//! on two cores.

use pvc_suite::core::parallel::WorkerPool;
use pvc_suite::prelude::*;
use pvc_suite::prob::SeededRng;
use pvc_suite::tpch::{generate, q1, q2, TpchConfig};
use pvc_suite::workload::{ExprGenParams, ExprGenerator};
use std::sync::Arc;

/// FNV-1a over everything an answer is made of.
struct Digest(u64);

impl Digest {
    fn new() -> Self {
        Digest(0xcbf2_9ce4_8422_2325)
    }

    fn bytes(&mut self, bytes: &[u8]) {
        for &b in bytes {
            self.0 = (self.0 ^ b as u64).wrapping_mul(0x0100_0000_01b3);
        }
    }

    fn tuple(&mut self, tuple: &ProbTuple) {
        for value in &tuple.values {
            self.bytes(value.to_string().as_bytes());
            self.bytes(b"|");
        }
        self.bytes(&tuple.confidence.to_bits().to_le_bytes());
        for (column, dist) in &tuple.aggregate_distributions {
            self.bytes(column.as_bytes());
            for (value, p) in dist.iter() {
                self.bytes(format!("{value:?}").as_bytes());
                self.bytes(&p.to_bits().to_le_bytes());
            }
        }
        self.bytes(b"\n");
    }
}

fn digest<'a>(tuples: impl IntoIterator<Item = &'a ProbTuple>) -> String {
    let mut d = Digest::new();
    for tuple in tuples {
        d.tuple(tuple);
    }
    format!("{:016x}", d.0)
}

/// `sales(region, amount)`: three regions of sixty independent rows, amounts
/// 1–200 and probabilities 0.1–0.9, from a fixed seed.
fn sales() -> Database {
    let mut rng = SeededRng::seed_from_u64(20_121_027);
    let mut db = Database::new();
    db.create_table("sales", Schema::new(["region", "amount"]));
    let (table, vars) = db.table_and_vars_mut("sales").expect("just created");
    for region in 0..3 {
        for _ in 0..60 {
            let amount = rng.gen_range(1i64..201);
            let p = 0.1 + 0.8 * rng.next_f64();
            let row = vec![format!("region{region}").as_str().into(), amount.into()];
            table.push_independent(row, p, vars);
        }
    }
    db
}

/// One line per (aggregate, θ) class of generated conditions: small `L`, eight
/// variables, a constant halfway into the aggregate's range, a fixed seed.
fn circuits() -> Result<(), Box<dyn std::error::Error>> {
    let mut rng = SeededRng::seed_from_u64(20_120_827);
    for theta in [CmpOp::Eq, CmpOp::Le, CmpOp::Ge] {
        for agg in [AggOp::Min, AggOp::Max, AggOp::Count, AggOp::Sum] {
            let (left_terms, top) = match agg {
                AggOp::Min | AggOp::Max => (24, 200),
                AggOp::Count => (16, 16),
                _ => (16, 16 * 100),
            };
            let params = ExprGenParams {
                left_terms,
                right_terms: 0,
                agg_left: agg,
                theta,
                constant: top / 2,
                num_vars: 8,
                max_value: 200,
                // Not a power of two, so products of probabilities round and
                // an operand order that changed would show in the bits.
                var_probability: 0.35,
                ..ExprGenParams::default()
            };
            let g = ExprGenerator::new(params, rng.next_u64()).generate();
            let mut interner = Interner::new();
            let id = interner.intern(&g.condition);
            let mut compiler = Compiler::new(&g.vars, SemiringKind::Bool);
            let arena = compiler.emit_semiring_id(&interner, id)?;
            let dist = arena.semiring_distribution(&g.vars, SemiringKind::Bool)?;
            let mut d = Digest::new();
            for (value, p) in dist.iter() {
                d.bytes(value.to_string().as_bytes());
                d.bytes(&p.to_bits().to_le_bytes());
            }
            let nodes = arena.len();
            d.bytes(format!("{nodes} {:?}", compiler.stats()).as_bytes());
            println!(
                "circuit/{agg:?}/{theta:?} nodes={nodes} digest={:016x}",
                d.0
            );
        }
    }
    Ok(())
}

fn main() -> Result<(), Box<dyn std::error::Error>> {
    let tpch = |scale_factor| {
        generate(&TpchConfig {
            scale_factor,
            ..TpchConfig::default()
        })
    };
    let (small, large) = (tpch(0.5), tpch(2.0));
    let sales = sales();
    let mut queries: Vec<(String, &Database, Query)> = Vec::new();
    for cutoff in [600, 1_200, 1_800, 2_400] {
        queries.push((format!("q1/{cutoff}"), &small, q1(cutoff)));
    }
    for region in ["AFRICA", "AMERICA", "ASIA", "EUROPE", "MIDDLE EAST"] {
        queries.push((format!("q2/{region}"), &large, q2(region, 25)));
    }
    for op in [AggOp::Sum, AggOp::Count, AggOp::Min, AggOp::Max] {
        let spec = AggSpec::new(op, "amount", "agg");
        let query = Query::table("sales").group_agg(["region"], vec![spec]);
        queries.push((format!("sales/{op:?}"), &sales, query));
    }
    let shared = Arc::new(WorkerPool::new(4)?);
    let snapshot = std::env::temp_dir().join(format!("pvc-digest-{}.snap", std::process::id()));
    for (name, db, query) in &queries {
        for fast in [true, false] {
            for threads in [1, 2, 4] {
                for pooled in [false, true] {
                    let mut options = EvalOptions::default().with_threads(threads);
                    if !fast {
                        options = options.without_fast_path();
                    }
                    if pooled {
                        options = options.with_pool(Arc::clone(&shared));
                    }
                    let engine = Engine::new((*db).clone());
                    let prepared = engine.prepare(query)?;
                    let cold = digest(&prepared.execute(&options)?.tuples);
                    let warm = digest(&prepared.execute(&options)?.tuples);
                    engine.save_artifacts(&snapshot)?;
                    let fresh = Engine::new((*db).clone());
                    let streamed: Vec<ProbTuple> = fresh
                        .prepare(query)?
                        .execute_streaming(&options)?
                        .collect::<Result<_, _>>()?;
                    let streamed = digest(&streamed);
                    let once = digest(&Engine::execute_once(db, query, &options)?.tuples);
                    let restarted = Engine::with_artifacts_from((*db).clone(), &snapshot)?;
                    let restored = digest(&restarted.prepare(query)?.execute(&options)?.tuples);
                    let pool = if pooled { "shared" } else { "owned" };
                    println!(
                        "{name} fast={fast} threads={threads} pool={pool} cold={cold} \
                         warm={warm} streamed={streamed} once={once} restored={restored}"
                    );
                }
            }
        }
    }
    std::fs::remove_file(&snapshot).ok();
    circuits()
}
