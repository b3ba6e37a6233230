//! The `pvc-load` generator: a deterministic, closed-loop, mixed workload
//! driven against a [`Server`], measuring what the serving
//! layer is for — **sustained QPS and tail latency**, not one fast query.
//!
//! `clients` threads each submit `requests_per_client` queries (drawn
//! round-robin from a fixed mix of tractable projections, hierarchical
//! aggregates and union renderings, across `tenants` tenants), fully drain
//! every result stream, and record the submit-to-drained latency. The report
//! carries throughput, p50/p99, and the server's own counters, and serialises
//! to the bench JSON dialect (parses with `pvc_bench::json`).

use crate::{ServeConfig, ServeError, Server, ServerStats};
use pvc_algebra::{AggOp, CmpOp};
use pvc_db::{AggSpec, Database, Predicate, Query, Schema};
use std::sync::Arc;
use std::time::{Duration, Instant};

/// Parameters of one load run. Deterministic: the same config produces the
/// same databases, the same query sequence and the same server answers
/// (timings, of course, vary).
#[derive(Debug, Clone)]
pub struct LoadConfig {
    /// Number of tenants, each with its own database and artifact store.
    pub tenants: usize,
    /// Closed-loop client threads.
    pub clients: usize,
    /// Requests each client submits (total = `clients × requests_per_client`).
    pub requests_per_client: usize,
    /// Workload database scale: number of shops.
    pub shops: usize,
    /// Workload database scale: listings per shop.
    pub per_shop: usize,
    /// Per-request dispatch timeout: `Some(t)` waits on each ticket with
    /// [`crate::Ticket::wait_timeout`] and counts an expiry as a timeout
    /// (the request is abandoned, not retried); `None` waits unboundedly.
    pub timeout: Option<Duration>,
    /// Server configuration (pool width, queue depth, compaction epoch, …).
    pub serve: ServeConfig,
}

impl Default for LoadConfig {
    fn default() -> Self {
        LoadConfig {
            tenants: 2,
            clients: 4,
            requests_per_client: 50,
            shops: 24,
            per_shop: 3,
            timeout: None,
            serve: ServeConfig::default().with_compact_every(4),
        }
    }
}

/// What one load run measured.
#[derive(Debug, Clone)]
pub struct LoadReport {
    /// Requests attempted (including rejected ones).
    pub requests: u64,
    /// Requests fully served and drained.
    pub completed: u64,
    /// Requests rejected by admission control (each was retried).
    pub rejected: u64,
    /// Requests that failed in the engine.
    pub errors: u64,
    /// Requests abandoned because [`LoadConfig::timeout`] expired before
    /// dispatch (always 0 without a timeout).
    pub timeouts: u64,
    /// Wall-clock duration of the run in seconds.
    pub elapsed_s: f64,
    /// Completed requests per second, sustained over the whole run.
    pub qps: f64,
    /// Median submit-to-drained latency in seconds.
    pub p50_s: f64,
    /// 99th-percentile submit-to-drained latency in seconds.
    pub p99_s: f64,
    /// Mean latency in seconds.
    pub mean_s: f64,
    /// Worst observed latency in seconds.
    pub max_s: f64,
    /// The server's final counters.
    pub server: ServerStats,
}

impl LoadReport {
    /// Serialise in the bench JSON dialect.
    pub fn to_json(&self) -> String {
        format!(
            concat!(
                "{{\"requests\": {}, \"completed\": {}, \"rejected\": {}, \"errors\": {}, ",
                "\"timeouts\": {}, ",
                "\"elapsed_s\": {:.6}, \"qps\": {:.3}, \"p50_s\": {:.6}, \"p99_s\": {:.6}, ",
                "\"mean_s\": {:.6}, \"max_s\": {:.6}, \"batches\": {}, \"compactions\": {}, ",
                "\"snapshots\": {}, \"pool_threads\": {}, \"pool_executed_jobs\": {}}}"
            ),
            self.requests,
            self.completed,
            self.rejected,
            self.errors,
            self.timeouts,
            self.elapsed_s,
            self.qps,
            self.p50_s,
            self.p99_s,
            self.mean_s,
            self.max_s,
            self.server.batches,
            self.server.compactions,
            self.server.snapshots,
            self.server.pool_threads,
            self.server.pool_executed_jobs,
        )
    }
}

/// The deterministic workload database: the paper's running-example shape
/// (shops, listings, two product tables) scaled by `shops × per_shop`.
pub fn workload_db(shops: usize, per_shop: usize) -> Database {
    let mut db = Database::new();
    db.create_table("S", Schema::new(["sid", "shop"]));
    db.create_table("PS", Schema::new(["ps_sid", "ps_pid", "price"]));
    db.create_table("P1", Schema::new(["pid", "weight"]));
    db.create_table("P2", Schema::new(["pid", "weight"]));
    let num_products = (shops * per_shop / 2).max(1);
    {
        let (s, vars) = db.table_and_vars_mut("S").unwrap();
        for i in 0..shops {
            s.push_independent(
                vec![(i as i64).into(), format!("shop{i}").as_str().into()],
                0.6,
                vars,
            );
        }
    }
    {
        let (ps, vars) = db.table_and_vars_mut("PS").unwrap();
        for i in 0..shops {
            for j in 0..per_shop {
                let pid = (i * 31 + j * 7) % num_products;
                let price = 10 + ((i * 13 + j * 29) % 90) as i64;
                ps.push_independent(
                    vec![(i as i64).into(), (pid as i64).into(), price.into()],
                    0.5,
                    vars,
                );
            }
        }
    }
    for table in ["P1", "P2"] {
        let (p, vars) = db.table_and_vars_mut(table).unwrap();
        for pid in 0..num_products {
            p.push_independent(
                vec![(pid as i64).into(), ((pid % 17) as i64).into()],
                0.7,
                vars,
            );
        }
    }
    db
}

/// The fixed query mix: tractable fast-path projections, a hierarchical
/// aggregate, both renderings of a union (exercising cross-query cache hits),
/// and the paper's Q2 shape (join + union + aggregate + having).
pub fn query_mix() -> Vec<Query> {
    let q2 = |swapped: bool| {
        let products = if swapped {
            Query::table("P2").union(Query::table("P1"))
        } else {
            Query::table("P1").union(Query::table("P2"))
        };
        Query::table("S")
            .join(Query::table("PS"), &[("sid", "ps_sid")])
            .join(
                products.rename(&[("pid", "p_pid"), ("weight", "p_weight")]),
                &[("ps_pid", "p_pid")],
            )
            .group_agg(["shop"], vec![AggSpec::new(AggOp::Max, "price", "P")])
            .select(Predicate::AggCmpConst("P".into(), CmpOp::Le, 60))
            .project(["shop"])
    };
    vec![
        Query::table("S").project(["shop"]),
        Query::table("PS").project(["ps_pid"]),
        Query::table("S")
            .join(Query::table("PS"), &[("sid", "ps_sid")])
            .group_agg(["shop"], vec![AggSpec::new(AggOp::Max, "price", "P")]),
        Query::table("P1")
            .union(Query::table("P2"))
            .project(["pid"]),
        Query::table("P2")
            .union(Query::table("P1"))
            .project(["pid"]),
        q2(false),
        q2(true),
    ]
}

/// Nearest-rank percentile of an **ascending** latency sample.
fn percentile(sorted: &[f64], q: f64) -> f64 {
    if sorted.is_empty() {
        return 0.0;
    }
    let rank = ((q * sorted.len() as f64).ceil() as usize).clamp(1, sorted.len());
    sorted[rank - 1]
}

/// Run the closed-loop load against a freshly started server and report
/// sustained QPS and latency percentiles.
pub fn run(config: &LoadConfig) -> Result<LoadReport, ServeError> {
    run_inner(config, false).map(|(report, _)| report)
}

/// Like [`run`], additionally capturing [`Server::metrics_snapshot`] right
/// before the server shuts down (the snapshot JSON reflects the whole run).
/// Enable the registry first ([`pvc_core::obs::set_metrics_enabled`]) or the
/// metrics section will be all zeros.
pub fn run_with_metrics(config: &LoadConfig) -> Result<(LoadReport, String), ServeError> {
    run_inner(config, true).map(|(report, metrics)| (report, metrics.unwrap_or_default()))
}

fn run_inner(
    config: &LoadConfig,
    capture_metrics: bool,
) -> Result<(LoadReport, Option<String>), ServeError> {
    let tenants: Vec<(String, Database)> = (0..config.tenants.max(1))
        .map(|t| (format!("t{t}"), workload_db(config.shops, config.per_shop)))
        .collect();
    let tenant_names: Arc<Vec<String>> =
        Arc::new(tenants.iter().map(|(name, _)| name.clone()).collect());
    let server = Arc::new(Server::start(tenants, config.serve.clone())?);
    let mix = Arc::new(query_mix());

    let start = Instant::now();
    let mut handles = Vec::with_capacity(config.clients);
    for client in 0..config.clients.max(1) {
        let server = Arc::clone(&server);
        let mix = Arc::clone(&mix);
        let tenant_names = Arc::clone(&tenant_names);
        let requests = config.requests_per_client;
        let timeout = config.timeout;
        handles.push(std::thread::spawn(move || {
            let mut latencies = Vec::with_capacity(requests);
            let mut rejected = 0u64;
            let mut errors = 0u64;
            let mut timeouts = 0u64;
            for i in 0..requests {
                let query = mix[(client * 3 + i) % mix.len()].clone();
                let tenant = &tenant_names[(client + i) % tenant_names.len()];
                let begin = Instant::now();
                // Closed loop with bounded retry: a rejection backs off and
                // resubmits, so the configured work always completes and the
                // rejection count measures the admission pressure.
                let stream = loop {
                    match server.submit(tenant, query.clone()) {
                        Ok(ticket) => {
                            let waited = match timeout {
                                Some(t) => ticket.wait_timeout(t),
                                None => ticket.wait(),
                            };
                            match waited {
                                Ok(stream) => break Some(stream),
                                Err(ServeError::Timeout { .. }) => {
                                    timeouts += 1;
                                    break None;
                                }
                                Err(_) => {
                                    errors += 1;
                                    break None;
                                }
                            }
                        }
                        Err(ServeError::Overloaded { .. }) => {
                            rejected += 1;
                            std::thread::sleep(Duration::from_micros(200));
                        }
                        Err(_) => {
                            errors += 1;
                            break None;
                        }
                    }
                };
                if let Some(stream) = stream {
                    let mut ok = true;
                    for tuple in stream {
                        if tuple.is_err() {
                            ok = false;
                        }
                    }
                    if ok {
                        latencies.push(begin.elapsed().as_secs_f64());
                    } else {
                        errors += 1;
                    }
                }
            }
            (latencies, rejected, errors, timeouts)
        }));
    }

    let mut latencies = Vec::new();
    let mut rejected = 0u64;
    let mut errors = 0u64;
    let mut timeouts = 0u64;
    for handle in handles {
        let (client_latencies, client_rejected, client_errors, client_timeouts) =
            handle.join().expect("load client panicked");
        latencies.extend(client_latencies);
        rejected += client_rejected;
        errors += client_errors;
        timeouts += client_timeouts;
    }
    let elapsed_s = start.elapsed().as_secs_f64().max(1e-9);
    let server = Arc::try_unwrap(server).expect("load clients have exited");
    // Capture before shutdown: the snapshot sees the final queue high-water
    // marks and per-tenant admission counts of this run.
    let metrics = capture_metrics.then(|| server.metrics_snapshot());
    let stats = server.shutdown();

    latencies.sort_by(|a, b| a.partial_cmp(b).expect("latencies are finite"));
    let completed = latencies.len() as u64;
    let mean_s = if latencies.is_empty() {
        0.0
    } else {
        latencies.iter().sum::<f64>() / latencies.len() as f64
    };
    let report = LoadReport {
        requests: (config.clients.max(1) * config.requests_per_client) as u64,
        completed,
        rejected,
        errors,
        timeouts,
        elapsed_s,
        qps: completed as f64 / elapsed_s,
        p50_s: percentile(&latencies, 0.50),
        p99_s: percentile(&latencies, 0.99),
        mean_s,
        max_s: latencies.last().copied().unwrap_or(0.0),
        server: stats,
    };
    Ok((report, metrics))
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn percentile_is_nearest_rank() {
        let sample = [0.1, 0.2, 0.3, 0.4, 0.5];
        assert_eq!(percentile(&sample, 0.50), 0.3);
        assert_eq!(percentile(&sample, 0.99), 0.5);
        assert_eq!(percentile(&sample, 0.01), 0.1);
        assert_eq!(percentile(&[], 0.5), 0.0);
    }

    #[test]
    fn query_mix_is_valid_against_the_workload_db() {
        let db = workload_db(4, 2);
        let engine = pvc_db::Engine::new(db);
        for query in query_mix() {
            let prepared = engine.prepare(&query).expect("mix query must validate");
            let result = prepared
                .execute(&pvc_db::EvalOptions::default())
                .expect("mix query must execute");
            assert!(!result.columns.is_empty());
        }
    }

    #[test]
    fn small_load_run_completes_with_zero_rejections_at_default_depth() {
        let config = LoadConfig {
            tenants: 1,
            clients: 2,
            requests_per_client: 4,
            shops: 4,
            per_shop: 2,
            timeout: Some(Duration::from_secs(60)),
            serve: ServeConfig::default().with_threads(2).with_compact_every(1),
        };
        let report = run(&config).unwrap();
        assert_eq!(report.completed, report.requests);
        assert_eq!(report.errors, 0);
        // 2 clients against depth 64: admission control must never trip.
        assert_eq!(report.rejected, 0);
        assert!(report.qps > 0.0);
        assert!(report.p99_s >= report.p50_s);
        assert!(report.server.pool_executed_jobs > 0);
    }
}
