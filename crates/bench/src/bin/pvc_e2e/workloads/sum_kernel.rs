//! `sum_kernel` — the **kernel** workload.
//!
//! A fresh `Engine` per operation over one of four seeded `sales(region,
//! amount)` tables of independent rows; the operation is `prepare` + `execute`
//! of `group_agg([region], SUM(amount))` on one thread. Supports grow to ten
//! thousand cells, so dense-chain and FFT convolution dominate and
//! compilation is trivial (three-node sub-d-trees).
//!
//! Every group holds the same amounts (1..=200, evenly spread) and the same
//! probabilities (0.1..0.9, evenly spread); the seed decides their order and
//! their pairing. So every seed gives the kernel the same amount of work and
//! two runs with different seeds compare — with amounts drawn freely the cost
//! of a table moved by 6 % from seed to seed.
//!
//! One thread, not `nproc`: the layer under test is the kernel, not the pool,
//! and on the 2-vCPU recording machine the latency of two-thread operations
//! moved by 25–30 % between quiet and busy quarters of an hour (where the host
//! places the two vCPUs), against 8 % for one-thread operations.

use super::{digest_database, replay_query, shuffle, with_engine, within, ENGINE_OP_SPANS};
use crate::harness::{Done, Layers, Size, Stopwatch, Timed, Workload};
use crate::spans::Spans;
use crate::stats::Fnv;
use pvc_algebra::AggOp;
use pvc_db::{AggSpec, Database, EvalOptions, Query, Schema};
use pvc_expr::SemiringExpr;
use pvc_prob::{expectation, SeededRng};
use std::collections::BTreeMap;

/// `(tables, groups per table, rows per group)`. Cost grows with the square of
/// the rows per group; 100 keeps an operation near 40 ms, and few tables give
/// each a hundred timings per run for its minimum.
fn shape(size: Size) -> (usize, usize, usize) {
    match size {
        Size::Full => (4, 4, 100),
        Size::Smoke => (2, 2, 24),
    }
}

const MAX_AMOUNT: i64 = 200;
/// How far a SUM distribution's mass may be from 1. Every convolution drops
/// cells below `pvc_prob::PROB_EPS` (1e-9); over 140–200 rows and supports of
/// 10⁴ cells the dropped tails add up to ≈ 8e-6 (measured), so the bound
/// states that drift instead of pretending it is zero.
const MASS_TOLERANCE: f64 = 1e-4;

fn sales_table(rng: &mut SeededRng, groups: usize, rows: usize) -> Database {
    let mut db = Database::new();
    db.create_table("sales", Schema::new(["region", "amount"]));
    let (table, vars) = db
        .table_and_vars_mut("sales")
        .expect("table was just created");
    for group in 0..groups {
        let region = format!("region{group}");
        let last = (rows - 1).max(1) as i64;
        let mut amounts: Vec<i64> = (0..rows as i64)
            .map(|k| 1 + k * (MAX_AMOUNT - 1) / last)
            .collect();
        let mut probabilities: Vec<f64> = (0..rows)
            .map(|k| 0.1 + 0.8 * (k as f64 + 0.5) / rows as f64)
            .collect();
        shuffle(rng, &mut amounts);
        shuffle(rng, &mut probabilities);
        for (amount, p) in amounts.into_iter().zip(probabilities) {
            table.push_independent(vec![region.as_str().into(), amount.into()], p, vars);
        }
    }
    db
}

fn query() -> Query {
    Query::table("sales").group_agg(
        ["region"],
        vec![AggSpec::new(AggOp::Sum, "amount", "total")],
    )
}

pub struct SumKernel {
    /// `None` only while an operation's engine owns the database.
    dbs: Vec<Option<Database>>,
    query: Query,
    options: EvalOptions,
}

/// Per result group: `(region, total mass, mean)` of the SUM distribution.
pub type Evidence = Vec<(String, f64, f64)>;

impl Workload for SumKernel {
    const NAME: &'static str = "sum_kernel";
    const ONE_THREAD: bool = true;
    type Evidence = Evidence;

    fn setup(seed: u64, size: Size) -> Self {
        let (tables, groups, rows) = shape(size);
        let mut rng = SeededRng::seed_from_u64(seed);
        SumKernel {
            dbs: (0..tables)
                .map(|_| Some(sales_table(&mut rng, groups, rows)))
                .collect(),
            query: query(),
            options: EvalOptions::default(),
        }
    }

    fn digest(&self) -> u64 {
        let mut h = Fnv::default();
        for db in self.dbs.iter().flatten() {
            digest_database(&mut h, db);
        }
        h.bytes(&self.query.structural_key());
        h.0
    }

    fn ops(&self) -> usize {
        self.dbs.len()
    }

    fn run_op(&mut self, index: usize, profile: bool) -> Result<Timed<Evidence>, String> {
        let query = self.query.clone();
        let mut options = self.options.clone();
        options.profile = profile;
        with_engine(&mut self.dbs[index], |engine| {
            let watch = Stopwatch::start();
            let result = engine
                .prepare(&query)
                .and_then(|prepared| prepared.execute(&options))
                .map_err(|e| e.to_string())?;
            let (latency_s, cpu_s) = watch.stop();
            let evidence = result
                .tuples
                .iter()
                .map(|tuple| {
                    let dist = &tuple.aggregate_distributions["total"];
                    (
                        tuple.values[0].to_string(),
                        dist.total_mass(),
                        expectation(dist).unwrap_or(f64::NAN),
                    )
                })
                .collect();
            Ok(Timed {
                latency_s,
                cpu_s,
                first_tuple_s: None,
                evidence,
            })
        })
    }

    fn check(&mut self, done: &[Done<Evidence>]) -> (u64, Vec<String>) {
        // Linearity of expectation: E[SUM] = Σ pᵢ·vᵢ per group, whatever the
        // engine did to get the distribution.
        let expected: Vec<BTreeMap<String, f64>> = self
            .dbs
            .iter()
            .flatten()
            .map(|db| {
                let mut means = BTreeMap::new();
                for tuple in db.table("sales").into_iter().flat_map(|t| t.iter()) {
                    let SemiringExpr::Var(v) = &tuple.annotation else {
                        continue;
                    };
                    let amount = tuple.values[1].as_int().unwrap_or(0) as f64;
                    *means.entry(tuple.values[0].to_string()).or_insert(0.0) +=
                        db.vars.prob_true(*v) * amount;
                }
                means
            })
            .collect();
        let mut checks = 0;
        let mut failures = Vec::new();
        for op in done {
            let means = &expected[op.index];
            checks += 1 + 2 * op.evidence.len() as u64;
            let verdict = (|| {
                if op.evidence.len() != means.len() {
                    return Err(format!(
                        "{} groups, expected {}",
                        op.evidence.len(),
                        means.len()
                    ));
                }
                for (region, mass, mean) in &op.evidence {
                    if (mass - 1.0).abs() > MASS_TOLERANCE {
                        return Err(format!("{region}: mass {mass}"));
                    }
                    let want = means.get(region).copied().unwrap_or(f64::NAN);
                    if !within(*mean, want, 1e-6 * want.abs()) {
                        return Err(format!("{region}: mean {mean}, Σ pᵢvᵢ = {want}"));
                    }
                }
                Ok(())
            })();
            if let Err(e) = verdict {
                failures.push(format!("input {}: {e}", op.index));
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
        let (query, options) = (self.query.clone(), self.options.clone());
        let slot = &mut self.dbs[index];
        spans.op(index, |spans| {
            replay_query(slot, &query, &options, spans, layers)
        })
    }

    fn replay_op_spans(&self) -> &'static [&'static str] {
        ENGINE_OP_SPANS
    }
}
