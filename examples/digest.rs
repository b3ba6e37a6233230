//! Result digests of 156 engine configurations, one line each — the bit-parity
//! check between two trees.
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
//! trees that answer alike print the same lines:
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
    Ok(())
}
