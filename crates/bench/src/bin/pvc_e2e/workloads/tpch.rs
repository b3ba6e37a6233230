//! The two TPC-H workloads (paper §7.2, Figure 11), each on a fresh `Engine`
//! per operation over one seeded TPC-H-like database.
//!
//! * `tpch_q1` — the engine path of `sum_kernel` used differently: COUNT over
//!   six groups keeps supports at a few hundred cells while term counts reach
//!   a thousand, so per-sub-d-tree overhead in the cache layer and the
//!   interner dominates and the kernel is nearly idle.
//! * `tpch_q2` — step I and many small compilations: a five-way join plus a
//!   nested MIN yields hundreds of result tuples, each needing intern + cache
//!   lookup + a small d-tree, streamed from a worker pool. The only workload
//!   where `db.exec` is a large share and where the interner and cache mutexes
//!   see parallel traffic.

use super::{digest_database, replay_query, with_engine, within, ENGINE_OP_SPANS};
use crate::harness::{Done, Layers, Size, Stopwatch, Timed, Workload};
use crate::spans::Spans;
use crate::stats::Fnv;
use crate::sys;
use pvc_core::WorkerPool;
use pvc_db::{try_evaluate, Database, EvalOptions, Query};
use pvc_expr::oracle;
use pvc_prob::expectation;
use pvc_tpch::{deterministic_copy, generate, TpchConfig};
use std::collections::{BTreeMap, BTreeSet};
use std::sync::Arc;

fn tpch_database(seed: u64, scale_factor: f64) -> Database {
    generate(&TpchConfig {
        scale_factor,
        seed,
        ..TpchConfig::default()
    })
}

// ---------------------------------------------------------------------------
// Q1
// ---------------------------------------------------------------------------

pub struct TpchQ1 {
    db: Option<Database>,
    /// Ship-date cut-off of each generated operation.
    cutoffs: Vec<i64>,
    options: EvalOptions,
}

/// Per result group: `(return flag, line status, total mass, mean)` of COUNT.
pub type Q1Evidence = Vec<(String, String, f64, f64)>;

impl Workload for TpchQ1 {
    const NAME: &'static str = "tpch_q1";
    const ONE_THREAD: bool = true;
    type Evidence = Q1Evidence;

    fn setup(seed: u64, size: Size) -> Self {
        // Cost grows faster than the data (≈ 17× for 4× the rows), so the
        // scale factor is what sizes the operation: 1.0 gives ≈ 50 ms.
        let (scale_factor, generated_ops) = match size {
            Size::Full => (1.0, 4i64),
            Size::Smoke => (0.05, 4),
        };
        TpchQ1 {
            db: Some(tpch_database(seed, scale_factor)),
            // Around the paper's cut-off (day 1800 of 2557), ± 100 days in
            // even steps: the seed decides the data, not how much of it a
            // query selects, so every seed asks for the same amount of work.
            cutoffs: (0..generated_ops)
                .map(|k| 1_700 + 200 * k / (generated_ops - 1))
                .collect(),
            // One thread, for the reason given in `sum_kernel`: the fold
            // overhead is the subject here, and two-thread latencies drift
            // with the host's vCPU placement.
            options: EvalOptions::default(),
        }
    }

    fn digest(&self) -> u64 {
        let mut h = Fnv::default();
        digest_database(&mut h, self.db.as_ref().expect("database is present"));
        for &cutoff in &self.cutoffs {
            h.bytes(&pvc_tpch::q1(cutoff).structural_key());
        }
        h.0
    }

    fn ops(&self) -> usize {
        self.cutoffs.len()
    }

    fn run_op(&mut self, index: usize, profile: bool) -> Result<Timed<Q1Evidence>, String> {
        let query = pvc_tpch::q1(self.cutoffs[index]);
        let mut options = self.options.clone();
        options.profile = profile;
        with_engine(&mut self.db, |engine| {
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
                    let dist = &tuple.aggregate_distributions["order_count"];
                    (
                        tuple.values[0].to_string(),
                        tuple.values[1].to_string(),
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

    fn check(&mut self, done: &[Done<Q1Evidence>]) -> (u64, Vec<String>) {
        let db = self.db.as_ref().expect("database is present");
        let lineitem = db.table("lineitem").expect("TPC-H has a lineitem table");
        let column = |name: &str| {
            lineitem
                .schema
                .names()
                .iter()
                .position(|c| *c == name)
                .expect("lineitem column exists")
        };
        let (date, flag, status) = (
            column("l_shipdate"),
            column("l_returnflag"),
            column("l_linestatus"),
        );
        // E[COUNT] = Σ pᵢ over the group's selected rows, by cut-off.
        let mut expected: BTreeMap<i64, BTreeMap<(String, String), f64>> = BTreeMap::new();
        let mut checks = 0;
        let mut failures = Vec::new();
        for op in done {
            let cutoff = self.cutoffs[op.index];
            let counts = expected.entry(cutoff).or_insert_with(|| {
                let mut counts = BTreeMap::new();
                for tuple in lineitem.iter() {
                    if tuple.values[date].as_int().is_some_and(|d| d <= cutoff) {
                        let p: f64 = tuple
                            .annotation
                            .vars()
                            .iter()
                            .map(|v| db.vars.prob_true(v))
                            .product();
                        *counts
                            .entry((
                                tuple.values[flag].to_string(),
                                tuple.values[status].to_string(),
                            ))
                            .or_insert(0.0) += p;
                    }
                }
                counts
            });
            checks += 1 + 2 * op.evidence.len() as u64;
            let verdict = (|| {
                if op.evidence.len() != counts.len() {
                    return Err(format!(
                        "{} groups, expected {}",
                        op.evidence.len(),
                        counts.len()
                    ));
                }
                for (flag, status, mass, mean) in &op.evidence {
                    let want = counts
                        .get(&(flag.clone(), status.clone()))
                        .copied()
                        .unwrap_or(f64::NAN);
                    // Cells below `PROB_EPS` are dropped, so the mass is 1 only
                    // up to the dropped tails.
                    if (mass - 1.0).abs() > 1e-6 {
                        return Err(format!("{flag}{status}: mass {mass}"));
                    }
                    if !within(*mean, want, 1e-6 * want.abs()) {
                        return Err(format!("{flag}{status}: E[COUNT] {mean}, Σ pᵢ = {want}"));
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
        let query = pvc_tpch::q1(self.cutoffs[index]);
        let (slot, options) = (&mut self.db, &self.options);
        spans.op(index, |spans| {
            replay_query(slot, &query, options, spans, layers)
        })
    }

    fn replay_op_spans(&self) -> &'static [&'static str] {
        ENGINE_OP_SPANS
    }
}

// ---------------------------------------------------------------------------
// Q2
// ---------------------------------------------------------------------------

const REGIONS: [&str; 5] = ["AFRICA", "AMERICA", "ASIA", "EUROPE", "MIDDLE EAST"];
/// A Q0 + enumeration check every this many operations.
const Q2_CHECK_EVERY: usize = 10;
/// Annotations with more variables are not enumerated (2^vars worlds each).
const Q2_ORACLE_MAX_VARS: usize = 14;
/// Enumerated tuples per checked operation.
const Q2_ORACLE_TUPLES: usize = 40;

pub struct TpchQ2 {
    db: Option<Database>,
    /// `(region, maximal part size)` of each generated operation.
    params: Vec<(&'static str, i64)>,
    options: EvalOptions,
    pool: Arc<WorkerPool>,
}

/// The result tuples of one operation: `(s_suppkey, p_partkey, ps_supplycost)`
/// and the confidence.
pub type Q2Evidence = Vec<([i64; 3], f64)>;

fn q2_key(values: &[pvc_db::Value]) -> [i64; 3] {
    let cell = |i: usize| {
        values
            .get(i)
            .and_then(pvc_db::Value::as_int)
            .unwrap_or(i64::MIN)
    };
    [cell(0), cell(1), cell(2)]
}

impl TpchQ2 {
    fn query(&self, index: usize) -> Query {
        let (region, size) = self.params[index];
        pvc_tpch::q2(region, size)
    }
}

impl Workload for TpchQ2 {
    const NAME: &'static str = "tpch_q2";
    const ONE_THREAD: bool = false;
    type Evidence = Q2Evidence;

    fn setup(seed: u64, size: Size) -> Self {
        // Scale factor 4 gives 15–30 ms operations (≈ 300 result tuples) and
        // each of the five queries some 250 timings in a 30 s run.
        let (scale_factor, sizes): (f64, &[i64]) = match size {
            Size::Full => (4.0, &[25]),
            Size::Smoke => (0.5, &[25]),
        };
        let pool = Arc::new(WorkerPool::new(sys::nproc()).expect("worker pool starts"));
        TpchQ2 {
            db: Some(tpch_database(seed, scale_factor)),
            // Every region at every size: the seed decides the data, not
            // which questions are asked of it (at scale factor 8 the region
            // and the size moved an operation's cost 2.5-fold).
            params: sizes
                .iter()
                .flat_map(|&size| REGIONS.iter().map(move |&region| (region, size)))
                .collect(),
            options: EvalOptions::default()
                .with_threads(sys::nproc())
                .with_pool(Arc::clone(&pool)),
            pool,
        }
    }

    fn digest(&self) -> u64 {
        let mut h = Fnv::default();
        digest_database(&mut h, self.db.as_ref().expect("database is present"));
        for index in 0..self.params.len() {
            h.bytes(&self.query(index).structural_key());
        }
        h.u64(self.pool.threads() as u64);
        h.0
    }

    fn ops(&self) -> usize {
        self.params.len()
    }

    fn run_op(&mut self, index: usize, profile: bool) -> Result<Timed<Q2Evidence>, String> {
        let query = self.query(index);
        let mut options = self.options.clone();
        options.profile = profile;
        with_engine(&mut self.db, |engine| {
            let watch = Stopwatch::start();
            let mut first_tuple_s = None;
            let mut evidence = Vec::new();
            let prepared = engine.prepare(&query).map_err(|e| e.to_string())?;
            let stream = prepared
                .execute_streaming(&options)
                .map_err(|e| e.to_string())?;
            for tuple in stream {
                first_tuple_s.get_or_insert_with(|| watch.elapsed_s());
                let tuple = tuple.map_err(|e| e.to_string())?;
                evidence.push((q2_key(&tuple.values), tuple.confidence));
            }
            let (latency_s, cpu_s) = watch.stop();
            Ok(Timed {
                latency_s,
                cpu_s,
                first_tuple_s,
                evidence,
            })
        })
    }

    fn check(&mut self, done: &[Done<Q2Evidence>]) -> (u64, Vec<String>) {
        let db = self.db.as_ref().expect("database is present");
        let certain = deterministic_copy(db);
        // Per generated operation: the keys of the deterministic `Q0` run and
        // the enumerated confidences of the small annotations.
        type Oracle = (BTreeSet<[i64; 3]>, Vec<([i64; 3], f64)>);
        let mut oracles: BTreeMap<usize, Result<Oracle, String>> = BTreeMap::new();
        let mut checks = 0;
        let mut failures = Vec::new();
        for op in done.iter().filter(|op| op.seq % Q2_CHECK_EVERY == 0) {
            let oracle = oracles.entry(op.index).or_insert_with(|| {
                let query = self.query(op.index);
                let q0 = try_evaluate(&certain, &query)
                    .map_err(|e| format!("Q0 failed: {e}"))?
                    .iter()
                    .map(|t| q2_key(&t.values))
                    .collect();
                // Possible-world enumeration of the small annotations.
                let enumerated = try_evaluate(db, &query)
                    .map_err(|e| format!("step I failed: {e}"))?
                    .iter()
                    .filter(|t| t.annotation.vars().len() <= Q2_ORACLE_MAX_VARS)
                    .take(Q2_ORACLE_TUPLES)
                    .map(|t| {
                        (
                            q2_key(&t.values),
                            oracle::confidence_by_enumeration(&t.annotation, &db.vars, db.kind),
                        )
                    })
                    .collect();
                Ok((q0, enumerated))
            });
            let verdict = (|| {
                let (q0, enumerated) = oracle.as_ref().map_err(String::clone)?;
                // Q0: every probabilistic answer is an answer of the certain database.
                checks += 1;
                if let Some((key, _)) = op.evidence.iter().find(|(key, _)| !q0.contains(key)) {
                    return Err(format!("answer {key:?} is not in Q0"));
                }
                let confidence: BTreeMap<[i64; 3], f64> = op.evidence.iter().copied().collect();
                for (key, want) in enumerated {
                    let got = confidence.get(key).copied().unwrap_or(f64::NAN);
                    checks += 1;
                    if !within(got, *want, 1e-9) {
                        return Err(format!(
                            "{key:?}: confidence {got}, enumeration gives {want}"
                        ));
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
        let query = self.query(index);
        let (slot, options) = (&mut self.db, &self.options);
        spans.op(index, |spans| {
            // Submit → first tuple on a fresh engine, as the operation does.
            with_engine(slot, |engine| {
                spans.scope("db.engine.first_tuple", |_| {
                    let prepared = engine.prepare(&query).map_err(|e| e.to_string())?;
                    let mut stream = prepared
                        .execute_streaming(options)
                        .map_err(|e| e.to_string())?;
                    stream.next().transpose().map_err(|e| e.to_string())
                })
            })?;
            replay_query(slot, &query, options, spans, layers)
        })
    }

    fn replay_op_spans(&self) -> &'static [&'static str] {
        ENGINE_OP_SPANS
    }
}
