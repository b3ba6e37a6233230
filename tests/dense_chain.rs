//! Regression contract for chained dense evaluation: a pure SUM/COUNT
//! workload must keep its intermediates dense across every `⊕` node boundary —
//! **zero** `kernel.dense_chain.breaks` — instead of round-tripping
//! dense → sparse → dense at each node exit, which is exactly the defect the
//! chained value stack removed.
//!
//! This test binary exists on its own (rather than inside `tests/obs.rs`)
//! because the assertions read process-wide kernel counters: cargo runs test
//! *binaries* sequentially, so a dedicated binary keeps the counters
//! attributable. The tests inside it still serialise on one mutex.

use pvc_suite::obs;
use pvc_suite::prelude::*;
use std::sync::Mutex;

/// Serialises tests that read the process-wide kernel counters.
static COUNTERS: Mutex<()> = Mutex::new(());

/// `n` independent tuples in one group with values in `[1, spread]`.
fn sum_db(n: usize, spread: i64) -> Database {
    let mut db = Database::new();
    db.create_table("T", Schema::new(["g", "v"]));
    let (t, vars) = db.table_and_vars_mut("T").unwrap();
    for i in 0..n {
        let p = 0.2 + 0.6 * (i as f64 / n as f64);
        let v = 1 + (i as i64 * 7) % spread;
        t.push_independent(vec!["G".into(), v.into()], p, vars);
    }
    db
}

fn run_agg(op: AggOp, db: Database) -> QueryResult {
    let engine = Engine::new(db);
    let query = Query::table("T").group_agg(Vec::<String>::new(), vec![AggSpec::new(op, "v", "m")]);
    engine
        .prepare(&query)
        .unwrap()
        // Force full compilation so the d-tree arena (the chained evaluator)
        // runs instead of a closed-form fast path.
        .execute(&EvalOptions::default().without_fast_path())
        .unwrap()
}

#[test]
fn pure_sum_and_count_chains_never_break() {
    let _guard = COUNTERS.lock().unwrap();
    for op in [AggOp::Sum, AggOp::Count] {
        obs::reset();
        obs::set_metrics_enabled(true);
        let result = run_agg(op, sum_db(14, 5));
        obs::set_metrics_enabled(false);
        assert_eq!(result.tuples.len(), 1);
        let snapshot = obs::snapshot();
        let extends = snapshot.counters["kernel.dense_chain.extends"];
        let breaks = snapshot.counters["kernel.dense_chain.breaks"];
        assert!(
            extends > 0,
            "{op}: a pure additive chain must extend dense intermediates (got {extends})"
        );
        assert_eq!(
            breaks, 0,
            "{op}: a pure additive chain must never demote mid-chain"
        );
        // Every ⊕ node took the dense kernel; none fell back to sparse.
        assert!(snapshot.counters["kernel.conv.dense"] > 0, "{op}");
        assert_eq!(snapshot.counters["kernel.conv.sparse"], 0, "{op}");
    }
}

/// `n` independent tuples whose values are spread over ~10^6, so SUM supports
/// are far too scattered for the dense representation.
fn scattered_db(n: usize) -> Database {
    let mut db = Database::new();
    db.create_table("T", Schema::new(["g", "v"]));
    let (t, vars) = db.table_and_vars_mut("T").unwrap();
    for i in 0..n {
        let v = 1 + (i as i64) * 137_101;
        t.push_independent(vec!["G".into(), v.into()], 0.5, vars);
    }
    db
}

#[test]
fn scattered_sums_take_the_sparse_kernel_and_metrics_stay_observational() {
    let _guard = COUNTERS.lock().unwrap();
    obs::reset();
    obs::set_metrics_enabled(true);
    let counted = run_agg(AggOp::Sum, scattered_db(10));
    obs::set_metrics_enabled(false);
    let snapshot = obs::snapshot();
    // Scattered supports never qualify for the dense chain: every ⊕ node
    // takes the sparse kernel and no chain ever starts (so none can break).
    assert!(snapshot.counters["kernel.conv.sparse"] > 0);
    assert_eq!(snapshot.counters["kernel.dense_chain.extends"], 0);
    // Counters are observational: a metrics-off replay must agree bit for bit.
    let replay = run_agg(AggOp::Sum, scattered_db(10));
    assert_eq!(
        counted.tuples[0].aggregate_distributions, replay.tuples[0].aggregate_distributions,
        "metrics collection must not perturb results"
    );
}

// ---------------------------------------------------------------------------
// Engine-level bits: digests recorded at the commit *before* the additive fold
// was rewritten around `pvc_prob::AdditiveFold` (owned operands, carried
// support counts, the short-operand loop orientation, recycled buffers). The
// fold's contract is bit-identity, so these constants must never change
// unless a PR states an ε in place of it.
// ---------------------------------------------------------------------------

use pvc_suite::core::persist::fnv64;
use pvc_suite::core::{Compiler, DTreeArena};
use pvc_suite::expr::InternedExpr;
use pvc_suite::prob::{DenseDist, SeededRng};
use pvc_suite::tpch::{generate, q1, TpchConfig};

/// The bytes a digest is taken over (FNV-1a, `persist::fnv64`), as
/// little-endian words.
#[derive(Default)]
struct Digest(Vec<u8>);

impl Digest {
    fn bytes(&mut self, bytes: &[u8]) {
        self.0.extend_from_slice(bytes);
    }

    fn u64(&mut self, x: u64) {
        self.bytes(&x.to_le_bytes());
    }

    fn finish(&self) -> u64 {
        fnv64(&self.0)
    }

    /// Every `(value, f64::to_bits)` cell of a monoid distribution.
    fn dist(&mut self, dist: &MonoidDist) {
        self.u64(dist.support_size() as u64);
        for (value, p) in dist.iter() {
            match value {
                MonoidValue::NegInf => self.u64(0),
                MonoidValue::Fin(x) => {
                    self.u64(1);
                    self.u64(*x as u64);
                }
                MonoidValue::PosInf => self.u64(2),
            }
            self.u64(p.to_bits());
        }
    }

    /// Every aggregate cell and every confidence of a result, in tuple order.
    fn result(&mut self, result: &QueryResult) {
        self.u64(result.tuples.len() as u64);
        for tuple in &result.tuples {
            self.u64(tuple.confidence.to_bits());
            for (column, dist) in &tuple.aggregate_distributions {
                self.bytes(column.as_bytes());
                self.dist(dist);
            }
        }
    }
}

fn engine_digest(db: Database, queries: &[Query], threads: usize) -> u64 {
    let engine = Engine::new(db);
    let options = EvalOptions::default().with_threads(threads);
    let mut h = Digest::default();
    for query in queries {
        h.result(&engine.prepare(query).unwrap().execute(&options).unwrap());
    }
    h.finish()
}

/// The `sum_kernel` benchmark's smoke shape: `groups` groups of `rows`
/// independent rows, amounts `1..=200` and probabilities `0.1..0.9` evenly
/// spread, order and pairing decided by the seed.
fn sales_db(rng: &mut SeededRng, groups: usize, rows: usize) -> Database {
    let groups: Vec<Vec<(i64, f64)>> = (0..groups).map(|_| sales_rows(rng, rows)).collect();
    sales_table(&groups)
}

/// One group of [`sales_db`]: `(amount, probability)` rows.
fn sales_rows(rng: &mut SeededRng, rows: usize) -> Vec<(i64, f64)> {
    fn shuffle<T>(rng: &mut SeededRng, items: &mut [T]) {
        for i in (1..items.len()).rev() {
            items.swap(i, rng.gen_range(0..=i));
        }
    }
    let last = (rows - 1) as i64;
    let mut amounts: Vec<i64> = (0..rows as i64).map(|k| 1 + k * 199 / last).collect();
    let mut probabilities: Vec<f64> = (0..rows)
        .map(|k| 0.1 + 0.8 * (k as f64 + 0.5) / rows as f64)
        .collect();
    shuffle(rng, &mut amounts);
    shuffle(rng, &mut probabilities);
    amounts.into_iter().zip(probabilities).collect()
}

/// The `sales` table holding `groups[g]` as region `g`'s independent rows.
fn sales_table(groups: &[Vec<(i64, f64)>]) -> Database {
    let mut db = Database::new();
    db.create_table("sales", Schema::new(["region", "amount"]));
    let (table, vars) = db.table_and_vars_mut("sales").unwrap();
    for (group, rows) in groups.iter().enumerate() {
        for &(amount, p) in rows {
            table.push_independent(
                vec![format!("region{group}").into(), amount.into()],
                p,
                vars,
            );
        }
    }
    db
}

fn sales_query(op: AggOp) -> Query {
    Query::table("sales").group_agg(["region"], vec![AggSpec::new(op, "amount", "total")])
}

#[test]
fn tpch_q1_bits_are_those_recorded_before_the_fold_rewrite() {
    // The four cut-offs of the `tpch_q1` benchmark workload, at sf 0.25: the
    // COUNT aggregates run the independence fold over leaf components, the
    // confidences the arena.
    const RECORDED: u64 = 4_869_830_403_276_350_365;
    let _guard = COUNTERS.lock().unwrap();
    let queries: Vec<Query> = (0..4).map(|k| q1(1_700 + 200 * k / 3)).collect();
    for threads in [1, 2] {
        let db = generate(&TpchConfig {
            scale_factor: 0.25,
            ..TpchConfig::default()
        });
        assert_eq!(
            engine_digest(db, &queries, threads),
            RECORDED,
            "threads = {threads}"
        );
    }
}

#[test]
fn group_sum_and_count_bits_are_those_recorded_before_the_fold_rewrite() {
    // (operator, engine digest, compile → flatten → evaluate digest): the
    // engine folds leaf components in `pvc-core`'s cache layer, the compiled
    // route evaluates the same aggregates as one ⊕ chain in the arena.
    const RECORDED: [(AggOp, u64, u64); 2] = [
        (
            AggOp::Sum,
            13_840_612_192_226_753_823,
            17_882_817_782_754_673_460,
        ),
        (
            AggOp::Count,
            17_413_425_741_880_935_796,
            240_414_258_621_505_841,
        ),
    ];
    let _guard = COUNTERS.lock().unwrap();
    for (op, engine_bits, arena_bits) in RECORDED {
        let tables = || {
            let mut rng = SeededRng::seed_from_u64(1);
            [sales_db(&mut rng, 2, 24), sales_db(&mut rng, 2, 24)]
        };
        for threads in [1, 2] {
            let mut h = Digest::default();
            for db in tables() {
                h.u64(engine_digest(db, &[sales_query(op)], threads));
            }
            assert_eq!(h.finish(), engine_bits, "{op}, threads = {threads}");
        }
        let mut h = Digest::default();
        for db in tables() {
            let table = try_evaluate(&db, &sales_query(op)).unwrap();
            for agg in table
                .iter()
                .flat_map(|t| t.values.iter().filter_map(Value::as_agg))
            {
                let tree = Compiler::new(&db.vars, db.kind)
                    .compile_semimodule(agg)
                    .unwrap();
                let arena = DTreeArena::from_tree(&tree);
                h.dist(&arena.monoid_distribution(&db.vars, db.kind).unwrap());
            }
        }
        assert_eq!(h.finish(), arena_bits, "{op}, compiled route");
    }
}

#[test]
fn a_hundred_row_sum_runs_the_spectral_kernel_within_its_bound() {
    // The largest per-cell |engine − exact| the previous spectral kernel (a
    // twiddle recurrence, a full-length inverse) reached on this group.
    const BOUND: f64 = 1.83e-15;
    let _guard = COUNTERS.lock().unwrap();
    let rows = sales_rows(&mut SeededRng::seed_from_u64(1), 100);
    let db = sales_table(&[rows]);
    // The fold the store runs, in its order (the interner's canonical order
    // of the group's `x ⊗ amount` terms), with the exact loop at every step.
    let table = try_evaluate(&db, &sales_query(AggOp::Sum)).unwrap();
    let agg = table
        .iter()
        .find_map(|t| t.values.iter().find_map(Value::as_agg))
        .unwrap();
    let mut interner = Interner::new();
    let id = interner.intern_semimodule(agg);
    let exact = interner
        .agg_node(id)
        .terms
        .iter()
        .map(|&(coeff, amount)| {
            let InternedExpr::Var(var) = interner.node(coeff) else {
                panic!("a group SUM term is a variable times its amount")
            };
            let row = db
                .vars
                .dist(var)
                .map(|s| AggOp::Sum.scalar_action(s, &amount));
            DenseDist::from_dist(&row).unwrap()
        })
        .reduce(|acc, row| acc.convolve_add_exact(&row))
        .unwrap()
        .to_dist();
    obs::reset();
    obs::set_metrics_enabled(true);
    let result = Engine::new(db)
        .prepare(&sales_query(AggOp::Sum))
        .unwrap()
        .execute(&EvalOptions::default())
        .unwrap();
    obs::set_metrics_enabled(false);
    let snapshot = obs::snapshot();
    assert!(snapshot.counters["kernel.conv.fft"] > 0);
    assert_eq!(snapshot.counters["kernel.fft.fallbacks"], 0);
    let spectral = &result.tuples[0].aggregate_distributions["total"];
    let values: std::collections::BTreeSet<_> = spectral
        .iter()
        .chain(exact.iter())
        .map(|(v, _)| *v)
        .collect();
    let error = values
        .iter()
        .map(|v| (spectral.prob(v) - exact.prob(v)).abs())
        .fold(0.0, f64::max);
    assert!(error <= BOUND, "per-cell error {error:e}, bound {BOUND:e}");
}
