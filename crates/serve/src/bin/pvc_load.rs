//! `pvc-load`: drive a deterministic mixed workload against an in-process
//! [`pvc_serve::Server`] and print the sustained-traffic report as JSON.
//!
//! Parameters come from `key=value` arguments (any order, all optional):
//!
//! ```text
//! pvc-load clients=4 requests=50 tenants=2 shops=24 per_shop=3 \
//!          threads=0 queue_depth=64 compact_every=4 snapshot_dir=/tmp/pvc-snaps \
//!          durability=always timeout_ms=5000
//! ```
//!
//! `--timeout-ms=N` (or `timeout_ms=N`) bounds each ticket wait with
//! [`pvc_serve::Ticket::wait_timeout`]; expiries are reported as `timeouts`.
//! `durability=` selects the write-ahead-log fsync mode (`none`, `batch`,
//! `always`) when a `snapshot_dir` is configured.
//!
//! With `--metrics` (or `metrics=1`) the process-wide observability registry
//! and span counting are enabled for the run, and the output becomes
//! `{"report": <run report>, "metrics": <Server::metrics_snapshot()>}` — the
//! CI `obs_smoke` job parses this and checks the metric catalog.
//!
//! The CI `serve_smoke` job parses the report JSON and asserts nonzero QPS,
//! zero rejections at the default depth, and an atomically written snapshot.

use pvc_serve::loadgen::{run, run_with_metrics, LoadConfig};
use pvc_serve::ServeConfig;

fn parse_usize(value: &str, key: &str) -> usize {
    value
        .parse()
        .unwrap_or_else(|_| panic!("invalid value for {key}: {value:?}"))
}

fn main() {
    let mut config = LoadConfig::default();
    let mut serve = ServeConfig::default().with_compact_every(4);
    let mut metrics = false;
    for arg in std::env::args().skip(1) {
        if arg == "--metrics" {
            metrics = true;
            continue;
        }
        let Some((key, value)) = arg.split_once('=') else {
            eprintln!("ignoring argument without '=': {arg:?}");
            continue;
        };
        let normalized = key.strip_prefix("--").unwrap_or(key).replace('-', "_");
        let key = normalized.as_str();
        match key {
            "metrics" => metrics = value == "1" || value == "true",
            "clients" => config.clients = parse_usize(value, key),
            "requests" => config.requests_per_client = parse_usize(value, key),
            "tenants" => config.tenants = parse_usize(value, key),
            "shops" => config.shops = parse_usize(value, key),
            "per_shop" => config.per_shop = parse_usize(value, key),
            "threads" => serve.threads = parse_usize(value, key),
            "queue_depth" => serve.queue_depth = parse_usize(value, key),
            "compact_every" => serve.compact_every = parse_usize(value, key) as u64,
            "compile_budget" => serve.compile_budget = Some(parse_usize(value, key)),
            "snapshot_dir" => serve = serve.with_snapshot_dir(value),
            "snapshot_interval_ms" => {
                serve.snapshot_interval =
                    std::time::Duration::from_millis(parse_usize(value, key) as u64)
            }
            "durability" => {
                serve.durability = pvc_core::Durability::parse(value)
                    .unwrap_or_else(|| panic!("invalid value for durability: {value:?}"))
            }
            "timeout_ms" => {
                config.timeout = Some(std::time::Duration::from_millis(
                    parse_usize(value, key) as u64
                ))
            }
            _ => eprintln!("ignoring unknown parameter {key:?}"),
        }
    }
    config.serve = serve;
    if metrics {
        pvc_core::obs::set_metrics_enabled(true);
        pvc_core::obs::set_tracing_enabled(true);
        match run_with_metrics(&config) {
            Ok((report, snapshot)) => {
                println!(
                    "{{\"report\": {}, \"metrics\": {}}}",
                    report.to_json(),
                    snapshot
                );
            }
            Err(e) => {
                eprintln!("pvc-load failed: {e}");
                std::process::exit(1);
            }
        }
    } else {
        match run(&config) {
            Ok(report) => println!("{}", report.to_json()),
            Err(e) => {
                eprintln!("pvc-load failed: {e}");
                std::process::exit(1);
            }
        }
    }
}
