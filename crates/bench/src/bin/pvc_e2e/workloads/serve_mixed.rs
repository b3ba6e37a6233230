//! `serve_mixed` — the **steady-state serving** workload: reads beside writes,
//! warm beside cold.
//!
//! A `pvc_serve::Server` with two tenants over `loadgen::workload_db(24, 5)`,
//! a pool of `nproc` threads, durable state in a fresh directory under
//! `Durability::Always`, and `nproc` closed-loop clients drawing from a seeded
//! mix: 70 % hot reads (`loadgen::query_mix()`, cache hits after first touch),
//! 20 % parametric reads (the Q2 shape with a drawn aggregate and a
//! Zipf-drawn HAVING threshold: the first occurrence compiles, repeats hit),
//! 10 % writes (`set_probability` on `PS` rows, each client owning a disjoint
//! row range so the final state does not depend on interleaving). Only here do
//! `serve`, the pool, persistence, selective invalidation and compaction work;
//! a win for reads paid for by writes, or the reverse, shows here.

use super::{digest_database, replay_query};
use crate::harness::{
    output_dir, record_diagnostics, record_end_to_end, record_obs, record_replay, set_tracing,
    timed_setups, write_trace, Layers, Measured, Outcome, Phase, Plan, Size, REPLAY_EVERY,
};
use crate::spans::Spans;
use crate::stats::{percentile, sorted, Fnv};
use crate::sys;
use pvc_algebra::{AggOp, CmpOp};
use pvc_core::{obs, Durability};
use pvc_db::{AggSpec, Database, Delta, Engine, EvalOptions, Predicate, ProbTuple, Query};
use pvc_prob::SeededRng;
use pvc_serve::loadgen::{query_mix, workload_db};
use pvc_serve::{ServeConfig, ServeError, Server};
use std::collections::{BTreeMap, BTreeSet};
use std::path::{Path, PathBuf};
use std::time::{Duration, Instant};

const TENANTS: [&str; 2] = ["t0", "t1"];
const PARAM_AGGS: [AggOp; 4] = [AggOp::Min, AggOp::Max, AggOp::Sum, AggOp::Count];
/// Distinct HAVING thresholds a parametric read draws from (Zipf, s = 1).
const THRESHOLDS: usize = 40;
/// Parametric queries re-checked per tenant after the run (each costs a cold
/// compilation on the replica).
const PARAM_CHECKS_PER_TENANT: usize = 8;
/// A write that is still refused after this many attempts counts as failed.
const MAX_WRITE_ATTEMPTS: u64 = 200_000;
/// Several background snapshots per run, so persistence is part of the steady
/// state and not an event some runs see and others do not.
const SNAPSHOT_EVERY: Duration = Duration::from_secs(2);

/// `(shops, listings per shop, generated operations per client)`.
fn shape(size: Size) -> (usize, usize, usize) {
    match size {
        Size::Full => (24, 3, 16_384),
        Size::Smoke => (6, 2, 40),
    }
}

#[derive(Debug, Clone, Copy)]
enum Op {
    /// Submit query `query` (an index into [`Inputs::queries`]) and drain it.
    Read { tenant: usize, query: usize },
    /// Re-weight one `PS` row.
    Write { tenant: usize, row: usize, p: f64 },
}

/// Everything the seed generates: the query catalogue and each client's
/// operation sequence.
struct Inputs {
    /// The hot mix first, then aggregate-major the parametric queries.
    queries: Vec<Query>,
    hot: usize,
    clients: Vec<Vec<Op>>,
    shops: usize,
    per_shop: usize,
}

/// The Q2 shape of the hot mix with the aggregate and the HAVING threshold open.
fn parametric_query(agg: AggOp, k: usize) -> Query {
    let (spec, threshold) = match agg {
        AggOp::Count => (AggSpec::count("P"), 1 + (k % 10) as i64),
        AggOp::Sum => (AggSpec::new(agg, "price", "P"), 40 + 20 * k as i64),
        _ => (AggSpec::new(agg, "price", "P"), 20 + 2 * k as i64),
    };
    Query::table("S")
        .join(Query::table("PS"), &[("sid", "ps_sid")])
        .join(
            Query::table("P1")
                .union(Query::table("P2"))
                .rename(&[("pid", "p_pid"), ("weight", "p_weight")]),
            &[("ps_pid", "p_pid")],
        )
        .group_agg(["shop"], vec![spec])
        .select(Predicate::AggCmpConst("P".into(), CmpOp::Le, threshold))
        .project(["shop"])
}

fn generate(seed: u64, size: Size) -> Inputs {
    let (shops, per_shop, ops_per_client) = shape(size);
    let mut queries = query_mix();
    let hot = queries.len();
    for agg in PARAM_AGGS {
        queries.extend((0..THRESHOLDS).map(|k| parametric_query(agg, k)));
    }
    // Zipf with exponent 1 over the thresholds, by inverse CDF.
    let weights: Vec<f64> = (1..=THRESHOLDS).map(|k| 1.0 / k as f64).collect();
    let total: f64 = weights.iter().sum();
    let zipf = |u: f64| {
        let mut acc = 0.0;
        weights
            .iter()
            .position(|w| {
                acc += w / total;
                u < acc
            })
            .unwrap_or(THRESHOLDS - 1)
    };
    let clients = sys::nproc();
    let rows = shops * per_shop;
    let clients = (0..clients)
        .map(|client| {
            let mut rng = SeededRng::seed_from_u64(seed ^ (client as u64 + 1).wrapping_mul(0x9e37));
            // This client's own slice of PS rows.
            let (lo, hi) = (rows * client / clients, rows * (client + 1) / clients);
            (0..ops_per_client)
                .map(|_| {
                    let tenant = rng.gen_range(0..TENANTS.len());
                    let u = rng.next_f64();
                    if u < 0.7 {
                        Op::Read {
                            tenant,
                            query: rng.gen_range(0..hot),
                        }
                    } else if u < 0.9 {
                        let agg = rng.gen_range(0..PARAM_AGGS.len());
                        Op::Read {
                            tenant,
                            query: hot + agg * THRESHOLDS + zipf(rng.next_f64()),
                        }
                    } else {
                        Op::Write {
                            tenant,
                            row: rng.gen_range(lo..hi.max(lo + 1)),
                            p: 0.05 + 0.9 * rng.next_f64(),
                        }
                    }
                })
                .collect()
        })
        .collect();
    Inputs {
        queries,
        hot,
        clients,
        shops,
        per_shop,
    }
}

impl Inputs {
    fn digest(&self) -> u64 {
        let mut h = Fnv::default();
        digest_database(&mut h, &workload_db(self.shops, self.per_shop));
        for query in &self.queries {
            h.bytes(&query.structural_key());
        }
        for ops in &self.clients {
            for op in ops {
                match *op {
                    Op::Read { tenant, query } => {
                        h.u64(0);
                        h.u64(tenant as u64);
                        h.u64(query as u64);
                    }
                    Op::Write { tenant, row, p } => {
                        h.u64(1);
                        h.u64(tenant as u64);
                        h.u64(row as u64);
                        h.f64(p);
                    }
                }
            }
        }
        h.0
    }

    /// The class an operation's latency is a sample of, for the best-pass
    /// latency: every (tenant, hot query) is a class of its own, parametric
    /// reads are classed by (tenant, aggregate) — their fastest is the warm hit
    /// of whichever threshold — and writes by tenant.
    fn class_of(&self, op: Op) -> usize {
        match op {
            Op::Read { tenant, query } if query < self.hot => tenant * self.hot + query,
            Op::Read { tenant, query } => {
                TENANTS.len() * self.hot
                    + tenant * PARAM_AGGS.len()
                    + (query - self.hot) / THRESHOLDS
            }
            Op::Write { tenant, .. } => self.write_class(tenant),
        }
    }

    fn write_class(&self, tenant: usize) -> usize {
        TENANTS.len() * (self.hot + PARAM_AGGS.len()) + tenant
    }

    fn tenant_databases(&self) -> Vec<(String, Database)> {
        TENANTS
            .iter()
            .map(|t| (t.to_string(), workload_db(self.shops, self.per_shop)))
            .collect()
    }
}

/// A directory of the run's own for the server's snapshots and logs: unique,
/// refused if it already exists, removed on success and on failure.
struct ScratchDir(PathBuf);

impl ScratchDir {
    fn create() -> std::io::Result<ScratchDir> {
        let nanos = std::time::SystemTime::now()
            .duration_since(std::time::UNIX_EPOCH)
            .map_or(0, |d| d.as_nanos());
        let path = output_dir().join(format!("serve-{}-{nanos}", std::process::id()));
        // `create_dir` (not `_all`) fails on an existing directory.
        std::fs::create_dir(&path)?;
        Ok(ScratchDir(path))
    }

    fn path(&self) -> &Path {
        &self.0
    }
}

impl Drop for ScratchDir {
    fn drop(&mut self) {
        let _ = std::fs::remove_dir_all(&self.0);
    }
}

fn serve_config(dir: &Path) -> ServeConfig {
    ServeConfig::default()
        .with_threads(sys::nproc())
        .with_snapshot_dir(dir)
        .with_snapshot_interval(SNAPSHOT_EVERY)
        .with_durability(Durability::Always)
}

/// What one client did in one phase.
#[derive(Debug, Default)]
struct ClientLog {
    attempted: u64,
    /// `(position in the client's sequence, latency)` of every drained read.
    reads: Vec<(usize, f64)>,
    first_tuple_s: Vec<f64>,
    write_s: Vec<f64>,
    /// Acknowledged writes in order: `(tenant, row, probability)`.
    applied: Vec<(usize, usize, f64)>,
    seen: BTreeSet<(usize, usize)>,
    rejected: u64,
    write_retries: u64,
    errors: Vec<String>,
}

/// Submit → first tuple → drained. Admission refusals are retried and counted.
fn read(
    server: &Server,
    tenant: &str,
    query: &Query,
    rejected: &mut u64,
) -> Result<(Vec<ProbTuple>, f64, Option<f64>), String> {
    let begin = Instant::now();
    let stream = loop {
        match server.submit(tenant, query.clone()) {
            Ok(ticket) => break ticket.wait().map_err(|e| e.to_string())?,
            Err(ServeError::Overloaded { .. }) => {
                *rejected += 1;
                std::thread::sleep(Duration::from_micros(200));
            }
            Err(e) => return Err(e.to_string()),
        }
    };
    let mut first = None;
    let mut tuples = Vec::with_capacity(stream.total_tuples());
    for tuple in stream {
        first.get_or_insert_with(|| begin.elapsed().as_secs_f64());
        tuples.push(tuple.map_err(|e| e.to_string())?);
    }
    Ok((tuples, begin.elapsed().as_secs_f64(), first))
}

/// First attempt → `Ok`, retrying (with a short back-off) while the tenant has
/// live result streams.
fn write(
    server: &Server,
    tenant: &str,
    row: usize,
    p: f64,
    retries: &mut u64,
) -> Result<f64, String> {
    let begin = Instant::now();
    for attempt in 0..MAX_WRITE_ATTEMPTS {
        match server.apply_delta(tenant, Delta::new().set_probability("PS", row, p)) {
            Ok(_) => return Ok(begin.elapsed().as_secs_f64()),
            Err(ServeError::TenantBusy { .. }) => {
                *retries += 1;
                if attempt < 16 {
                    std::thread::yield_now();
                } else {
                    std::thread::sleep(Duration::from_micros(50));
                }
            }
            Err(e) => return Err(e.to_string()),
        }
    }
    Err(format!(
        "write still refused after {MAX_WRITE_ATTEMPTS} attempts"
    ))
}

/// When a phase ends.
#[derive(Debug, Clone, Copy)]
enum Until {
    Deadline(Duration),
    OpsPerClient(usize),
}

/// One closed-loop phase: every client works through its sequence from
/// `cursors[client]` on until the phase ends.
fn run_clients(
    server: &Server,
    inputs: &Inputs,
    cursors: &mut [usize],
    until: Until,
) -> (Vec<ClientLog>, Phase) {
    let mut phase = Phase::begin();
    let begin = Instant::now();
    let logs: Vec<ClientLog> = std::thread::scope(|scope| {
        let handles: Vec<_> = inputs
            .clients
            .iter()
            .zip(cursors.iter())
            .map(|(ops, &cursor)| {
                scope.spawn(move || {
                    let mut log = ClientLog::default();
                    for pos in cursor.. {
                        let done = match until {
                            Until::Deadline(d) => begin.elapsed() >= d,
                            Until::OpsPerClient(n) => pos - cursor >= n,
                        };
                        if done {
                            break;
                        }
                        log.attempted += 1;
                        let outcome = match ops[pos % ops.len()] {
                            Op::Read { tenant, query } => {
                                log.seen.insert((tenant, query));
                                read(
                                    server,
                                    TENANTS[tenant],
                                    &inputs.queries[query],
                                    &mut log.rejected,
                                )
                                .map(|(_, latency, first)| {
                                    log.reads.push((pos, latency));
                                    log.first_tuple_s.extend(first);
                                })
                            }
                            Op::Write { tenant, row, p } => {
                                write(server, TENANTS[tenant], row, p, &mut log.write_retries).map(
                                    |latency| {
                                        log.write_s.push(latency);
                                        log.applied.push((tenant, row, p));
                                    },
                                )
                            }
                        };
                        if let Err(e) = outcome {
                            log.errors.push(format!("op {pos}: {e}"));
                        }
                    }
                    log
                })
            })
            .collect();
        handles
            .into_iter()
            .map(|h| h.join().expect("client thread panicked"))
            .collect()
    });
    let completed: usize = logs.iter().map(|l| l.reads.len() + l.write_s.len()).sum();
    phase.finish(completed as u64);
    for ((log, ops), cursor) in logs.iter().zip(&inputs.clients).zip(cursors.iter_mut()) {
        *cursor += log.attempted as usize;
        phase.timed.extend(
            log.reads
                .iter()
                .map(|&(pos, latency)| (inputs.class_of(ops[pos % ops.len()]), latency)),
        );
        phase.timed.extend(
            log.applied
                .iter()
                .zip(&log.write_s)
                .map(|(&(tenant, _, _), &latency)| (inputs.write_class(tenant), latency)),
        );
        phase.first_tuple_s.extend(&log.first_tuple_s);
    }
    (logs, phase)
}

/// Same tuples in the same order with the same confidences. The cache-free
/// `execute_once` and the server's memoised sub-d-tree folds sum in different
/// orders, so confidences agree to the last few ulps (measured: 1 ulp), not
/// bit for bit.
fn same_answer(got: &[ProbTuple], want: &[ProbTuple]) -> bool {
    got.len() == want.len()
        && got
            .iter()
            .zip(want)
            .all(|(a, b)| a.values == b.values && (a.confidence - b.confidence).abs() <= 1e-12)
}

/// Digest of everything the seed generates, without starting a server.
#[cfg(test)]
pub fn input_digest(seed: u64, size: Size) -> u64 {
    generate(seed, size).digest()
}

/// The whole workload run.
pub fn run(plan: &Plan) -> Outcome {
    let mut out = Outcome::default();
    let ((inputs, server, scratch), setup): ((Inputs, Server, ScratchDir), Measured) = timed_setups(
        plan.size,
        || {
            let inputs = generate(plan.seed, plan.size);
            let dir = ScratchDir::create().expect("a fresh scratch directory can be created");
            let server = Server::start(inputs.tenant_databases(), serve_config(dir.path()))
                .expect("server starts");
            (inputs, server, dir)
        },
        |(_, server, dir)| {
            server.shutdown();
            drop(dir);
        },
    );
    // `None` only after a failed restart.
    let mut server = Some(server);
    out.input_digest = inputs.digest();
    println!(
        "serve_mixed: {} tenants, {} clients, pool threads {}, Durability::Always, snapshots every {SNAPSHOT_EVERY:?}",
        TENANTS.len(),
        inputs.clients.len(),
        sys::nproc()
    );

    let (untraced_s, traced_s, replay_s) = plan.split();
    let mut cursors = vec![0usize; inputs.clients.len()];
    let phase_length = |seconds: f64, smoke_ops: usize| match plan.size {
        Size::Full => Until::Deadline(Duration::from_secs_f64(seconds)),
        Size::Smoke => Until::OpsPerClient(smoke_ops),
    };
    // Warm-up: a few operations per client, untimed.
    let live = server.as_ref().expect("server is running");
    let (warm_logs, _) = run_clients(
        live,
        &inputs,
        &mut cursors,
        Until::OpsPerClient(plan.warmup_ops()),
    );

    // Untraced phase.
    let before = live.stats();
    let (logs, phase) = run_clients(live, &inputs, &mut cursors, phase_length(untraced_s, 24));
    let after = live.stats();
    let reads: usize = logs.iter().map(|l| l.reads.len()).sum();
    let write_s = sorted(
        logs.iter()
            .flat_map(|l| l.write_s.iter().copied())
            .collect(),
    );
    out.attempted = logs.iter().map(|l| l.attempted).sum();
    for log in &logs {
        for e in &log.errors {
            out.fail(e.clone());
        }
    }
    // Every completed operation counts, reads and writes alike; the
    // populations apart are among the diagnostics below.
    record_end_to_end(&mut out, &phase, setup);
    for (name, q) in [("e2e.write_p50_ms", 0.50), ("e2e.write_p90_ms", 0.90)] {
        if let Some(v) = percentile(&write_s, q) {
            out.set(name, v * 1e3, write_s.len());
        }
    }
    // Hot and parametric reads apart: the two populations the mix is made of.
    let (mut hot_s, mut parametric_s) = (Vec::new(), Vec::new());
    for (ops, log) in inputs.clients.iter().zip(&logs) {
        for &(pos, latency) in &log.reads {
            match ops[pos % ops.len()] {
                Op::Read { query, .. } if query >= inputs.hot => parametric_s.push(latency),
                _ => hot_s.push(latency),
            }
        }
    }
    for (name, sample) in [
        ("serve.hot_read_p50_ms", sorted(hot_s)),
        ("serve.param_read_p50_ms", sorted(parametric_s)),
    ] {
        if let Some(v) = percentile(&sample, 0.50) {
            out.set(name, v * 1e3, sample.len());
        }
    }
    let retries: u64 = logs.iter().map(|l| l.write_retries).sum();
    out.set(
        "serve.write_retries",
        retries as f64 / write_s.len().max(1) as f64,
        write_s.len(),
    );
    out.set(
        "serve.rejected",
        logs.iter().map(|l| l.rejected).sum::<u64>() as f64,
        reads,
    );
    // The scheduler's books over the phase.
    let batches = after.batches - before.batches;
    out.set("serve.batches", batches as f64 / reads.max(1) as f64, reads);
    out.set(
        "serve.batch_size_mean",
        (after.served - before.served) as f64 / batches.max(1) as f64,
        batches as usize,
    );
    out.set(
        "serve.compactions",
        (after.compactions - before.compactions) as f64 / reads.max(1) as f64,
        reads,
    );

    // Untraced read latency by position in the first client's sequence, for
    // the replay's coverage.
    let untraced: BTreeMap<usize, f64> = logs[0].reads.iter().copied().collect();
    let mut all_logs: Vec<ClientLog> = warm_logs.into_iter().chain(logs).collect();

    if plan.trace {
        obs::reset();
        set_tracing(true);
        let (traced_logs, traced) =
            run_clients(live, &inputs, &mut cursors, phase_length(traced_s, 12));
        set_tracing(false);
        let traced_ops: usize = traced_logs
            .iter()
            .map(|l| l.reads.len() + l.write_s.len())
            .sum();
        record_obs(&mut out, traced_ops);
        out.set(
            "bench.trace_overhead_ratio",
            traced.ops_per_s() / phase.ops_per_s(),
            traced_ops,
        );
        for log in &traced_logs {
            for e in &log.errors {
                out.notes.push(format!("traced {e}"));
            }
        }
        all_logs.extend(traced_logs);
    }

    // Replicas: the base databases plus every acknowledged write, in each
    // client's own order (clients own disjoint rows, so no other order matters).
    let mut replicas: Vec<Option<Database>> = TENANTS
        .iter()
        .enumerate()
        .map(|(tenant, _)| {
            let mut replica = Engine::new(workload_db(inputs.shops, inputs.per_shop));
            for log in &all_logs {
                for &(t, row, p) in log.applied.iter().filter(|(t, _, _)| *t == tenant) {
                    replica
                        .apply_delta(Delta::new().set_probability("PS", row, p))
                        .unwrap_or_else(|e| panic!("replica rejects delta ({t}, {row}, {p}): {e}"));
                }
            }
            Some(replica.into_database())
        })
        .collect();

    // Correctness: the quiesced server against a cold, cache-free evaluation
    // of the replica.
    let seen: BTreeSet<(usize, usize)> = all_logs
        .iter()
        .flat_map(|l| l.seen.iter().copied())
        .collect();
    let mut known_answer: Option<(usize, usize, Vec<ProbTuple>)> = None;
    for tenant in 0..TENANTS.len() {
        let hot = (0..inputs.hot).map(|q| (tenant, q));
        let parametric = seen
            .iter()
            .copied()
            .filter(|&(t, q)| t == tenant && q >= inputs.hot)
            .take(PARAM_CHECKS_PER_TENANT);
        for (tenant, query) in hot.chain(parametric) {
            let q = &inputs.queries[query];
            let replica = replicas[tenant].as_ref().expect("replica is present");
            out.checks += 1;
            let want = match Engine::execute_once(replica, q, &EvalOptions::default()) {
                Ok(result) => result.tuples,
                Err(e) => {
                    out.fail(format!("replica query {query}: {e}"));
                    continue;
                }
            };
            match read(live, TENANTS[tenant], q, &mut 0) {
                Ok((got, _, _)) if same_answer(&got, &want) => {
                    // The restart is asked a query no write can change (the
                    // replay below writes to `PS` once more).
                    if !q.base_tables().contains(&"PS") {
                        known_answer.get_or_insert((tenant, query, want));
                    }
                }
                Ok((got, _, _)) => out.fail(format!(
                    "tenant {tenant} query {query}: server answers {} tuples that differ \
                     from the replica's {}",
                    got.len(),
                    want.len()
                )),
                Err(e) => out.fail(format!("tenant {tenant} query {query}: {e}")),
            }
        }
    }

    if plan.trace {
        // Layered replay on the idle server: every fourth operation of the
        // first client, timed untraced above. Reads go through the serving
        // layer (warm) and then, by hand and cold, through the engine's layers
        // on the replica; writes go to the server and the replica alike.
        let mut spans = Spans::new();
        let mut layers = Layers::default();
        let options = EvalOptions::default().with_threads(sys::nproc());
        let (mut delta_evicted, mut delta_kept, mut replayed_writes) = (0usize, 0usize, 0usize);
        let mut replayed = 0usize;
        let mut untraced_sum = 0.0;
        let begin = Instant::now();
        let budget = Duration::from_secs_f64(replay_s);
        let ops = &inputs.clients[0];
        for pos in (0..cursors[0]).step_by(REPLAY_EVERY) {
            if replayed >= 2 && begin.elapsed() >= budget {
                break;
            }
            match ops[pos % ops.len()] {
                Op::Read { tenant, query } => {
                    let Some(&latency) = untraced.get(&pos) else {
                        continue;
                    };
                    let q = &inputs.queries[query];
                    let result = spans.op(pos, |spans| {
                        let stream = spans
                            .scope("serve.dispatch_wait", |_| {
                                live.submit(TENANTS[tenant], q.clone())?.wait()
                            })
                            .map_err(|e| e.to_string())?;
                        spans.scope("serve.drain", |_| stream.count());
                        replay_query(&mut replicas[tenant], q, &options, spans, &mut layers)
                    });
                    match result {
                        Ok(()) => {
                            replayed += 1;
                            untraced_sum += latency;
                        }
                        Err(e) => out.notes.push(format!("replay of read {pos}: {e}")),
                    }
                }
                Op::Write { tenant, row, p } => {
                    let delta = || Delta::new().set_probability("PS", row, p);
                    let applied = spans.op(pos, |spans| {
                        spans.scope("db.engine.apply_delta", |_| {
                            live.apply_delta(TENANTS[tenant], delta())
                        })
                    });
                    match applied {
                        Ok(stats) => {
                            delta_evicted += stats.evicted_artifacts;
                            delta_kept += stats.kept_artifacts;
                            replayed_writes += 1;
                            let mut replica =
                                Engine::new(replicas[tenant].take().expect("replica is present"));
                            if let Err(e) = replica.apply_delta(delta()) {
                                out.notes
                                    .push(format!("replica rejects replayed write: {e}"));
                            }
                            replicas[tenant] = Some(replica.into_database());
                        }
                        Err(e) => out.notes.push(format!("replay of write {pos}: {e}")),
                    }
                }
            }
        }

        // Restart: shut down (final snapshot), start on the same directory
        // from the base databases, first known answer.
        obs::reset();
        set_tracing(true);
        let restarted = spans.op(usize::MAX, |spans| {
            spans.scope("serve.restart", |_| {
                if let Some(running) = server.take() {
                    running.shutdown();
                }
                let restarted =
                    Server::start(inputs.tenant_databases(), serve_config(scratch.path()))
                        .map_err(|e| e.to_string())?;
                if let Some((tenant, query, want)) = &known_answer {
                    let (got, _, _) = read(
                        &restarted,
                        TENANTS[*tenant],
                        &inputs.queries[*query],
                        &mut 0,
                    )?;
                    if !same_answer(&got, want) {
                        return Err("the restarted server's first answer differs".to_string());
                    }
                }
                Ok(restarted)
            })
        });
        set_tracing(false);
        let restore = obs::snapshot()
            .histograms
            .get("persist.restore.us")
            .cloned()
            .unwrap_or_default();
        out.set(
            "core.persist.restore_s",
            restore.sum as f64 / 1e6 / restore.count.max(1) as f64,
            restore.count as usize,
        );
        match restarted {
            Ok(restarted) => {
                out.set(
                    "core.persist.wal_replayed",
                    restarted.stats().wal_replayed as f64,
                    1,
                );
                server = Some(restarted);
            }
            Err(e) => out.fail(format!("restart: {e}")),
        }

        let own = spans.self_seconds();
        let time_of = |name: &str| own.get(name).copied().unwrap_or(0.0);
        let writes = replayed_writes.max(1) as f64;
        out.set("serve.restart_s", time_of("serve.restart"), 1);
        out.set(
            "db.engine.delta_apply_s",
            time_of("db.engine.apply_delta") / writes,
            replayed_writes,
        );
        out.set(
            "db.engine.delta_evicted_artifacts",
            delta_evicted as f64 / writes,
            replayed_writes,
        );
        out.set(
            "db.engine.delta_kept_artifacts",
            delta_kept as f64 / writes,
            replayed_writes,
        );
        let replay_op_s = time_of("serve.dispatch_wait") + time_of("serve.drain");
        record_replay(&mut out, &layers, &own, replayed, replay_op_s, untraced_sum);
        if let Err(e) = write_trace("serve_mixed", &spans) {
            out.notes.push(e);
        }
    }

    if let Some(running) = server {
        running.shutdown();
    }
    drop(scratch);
    record_diagnostics(&mut out, &phase);
    out
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn same_seed_same_inputs_and_other_seed_other_inputs() {
        let a = generate(3, Size::Smoke).digest();
        assert_eq!(a, generate(3, Size::Smoke).digest());
        assert_ne!(a, generate(4, Size::Smoke).digest());
    }

    #[test]
    fn clients_own_disjoint_rows_and_every_query_validates() {
        let inputs = generate(5, Size::Full);
        let mut owner: BTreeMap<usize, usize> = BTreeMap::new();
        for (client, ops) in inputs.clients.iter().enumerate() {
            for op in ops {
                if let Op::Write { row, .. } = op {
                    assert_eq!(*owner.entry(*row).or_insert(client), client);
                }
            }
        }
        let engine = Engine::new(workload_db(4, 2));
        for query in &inputs.queries {
            engine.prepare(query).expect("generated query validates");
        }
    }

    #[test]
    fn scratch_dir_is_unique_and_removed() {
        let dir = ScratchDir::create().unwrap();
        let path = dir.path().to_path_buf();
        assert!(path.is_dir());
        // The same name again is refused, not reused.
        assert!(std::fs::create_dir(&path).is_err());
        drop(dir);
        assert!(!path.exists());
    }
}
