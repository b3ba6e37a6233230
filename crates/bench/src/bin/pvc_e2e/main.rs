//! `pvc_e2e` — the repository's benchmark: one seeded binary, five workloads
//! (four declared in `BENCHMARK.json` and so held to its bounds, `serve_mixed`
//! for its diagnostics only), end-to-end metrics from an untraced run and
//! per-layer metrics from a traced one, every output checked against an
//! oracle. See `README.md` beside this file, and `BENCHMARK.json` at the
//! repository root for the declaration this binary reports against.
//!
//! ```text
//! pvc_e2e [--workload NAME] [--seed N] [--seconds S] [--trace [0|1]] [--repeat K] [--smoke]
//! ```
//!
//! With `--workload` the named workload runs in this process and the last line
//! of standard output is one JSON object (`correct`, `attempted`, `failed`,
//! `metrics`). Without it every workload runs in a child process of its own, so
//! peak memory and caches are never shared between workloads.

mod catalog;
mod harness;
mod repeat;
mod spans;
mod stats;
mod sys;
mod workloads;

use catalog::catalog;
use harness::{Outcome, Plan, Size};
use std::io::{BufRead, BufReader};
use std::process::{Command, ExitCode, Stdio};
use workloads::{expr_compile::ExprCompile, sum_kernel::SumKernel, tpch};

const DEFAULT_SEED: u64 = 20120827;

/// Workloads this binary runs that `BENCHMARK.json` does not declare, so no
/// regression bound is checked on them: `serve_mixed` has `nproc` clients, a
/// pool of `nproc` threads, a dispatcher and a snapshot thread on `nproc`
/// cores, and on the shared 2-vCPU recording host every timing it yields moves
/// with the host's other tenants by more than any bound the declaration may
/// state (see the README). It stays runnable for its diagnostics.
const UNDECLARED_WORKLOADS: [&str; 1] = ["serve_mixed"];

/// Every workload of the binary: the declared ones, then the undeclared.
fn all_workloads() -> impl Iterator<Item = &'static str> {
    catalog()
        .workloads
        .iter()
        .map(String::as_str)
        .chain(UNDECLARED_WORKLOADS)
}

#[derive(Debug, Clone)]
struct Args {
    workload: Option<String>,
    seed: u64,
    seconds: f64,
    trace: bool,
    repeat: Option<usize>,
    smoke: bool,
}

fn parse_args(argv: &[String]) -> Result<Args, String> {
    let mut args = Args {
        workload: None,
        seed: DEFAULT_SEED,
        seconds: catalog().run_seconds,
        trace: false,
        repeat: None,
        smoke: false,
    };
    let mut it = argv.iter().peekable();
    while let Some(flag) = it.next() {
        let mut value = |name: &str| {
            it.next()
                .cloned()
                .ok_or_else(|| format!("{name} needs a value"))
        };
        match flag.as_str() {
            "--workload" => {
                let name = value("--workload")?;
                if !all_workloads().any(|known| known == name) {
                    let known: Vec<_> = all_workloads().collect();
                    return Err(format!("unknown workload `{name}` (one of {known:?})"));
                }
                args.workload = Some(name);
            }
            "--seed" => {
                args.seed = value("--seed")?
                    .parse()
                    .map_err(|e| format!("--seed: {e}"))?;
            }
            "--seconds" => {
                args.seconds = value("--seconds")?
                    .parse()
                    .map_err(|e| format!("--seconds: {e}"))?;
                if !(args.seconds > 0.0 && args.seconds <= 600.0) {
                    return Err("--seconds must be in (0, 600]".to_string());
                }
            }
            "--repeat" => {
                let k: usize = value("--repeat")?
                    .parse()
                    .map_err(|e| format!("--repeat: {e}"))?;
                if k < 4 {
                    return Err("--repeat needs at least 4 runs (two per half)".to_string());
                }
                args.repeat = Some(k);
            }
            "--smoke" => args.smoke = true,
            // `--trace` alone switches tracing on; `--trace 0|1` sets it.
            "--trace" => {
                args.trace = match it.peek().map(|s| s.as_str()) {
                    Some("0") => {
                        it.next();
                        false
                    }
                    Some("1") => {
                        it.next();
                        true
                    }
                    _ => true,
                };
            }
            other => return Err(format!("unknown argument `{other}`")),
        }
    }
    Ok(args)
}

/// Run one workload in this process.
fn run_workload(name: &str, plan: &Plan) -> Outcome {
    match name {
        "expr_compile" => harness::run::<ExprCompile>(plan),
        "sum_kernel" => harness::run::<SumKernel>(plan),
        "tpch_q1" => harness::run::<tpch::TpchQ1>(plan),
        "tpch_q2" => harness::run::<tpch::TpchQ2>(plan),
        "serve_mixed" => workloads::serve_mixed::run(plan),
        other => panic!("this binary cannot run a workload `{other}`"),
    }
}

fn print_header(seed: u64) {
    println!(
        "pvc_e2e: nproc {} | {} | commit {} | seed {seed}",
        sys::nproc(),
        sys::rustc_version(),
        sys::git_commit()
    );
}

/// Every metric the run measured, by name, with unit and sample count.
fn print_outcome(name: &str, plan: &Plan, out: &Outcome) {
    println!(
        "{name}: seed {} | input digest {:016x} | attempted {} | failed {} | checks {}",
        plan.seed, out.input_digest, out.attempted, out.failed, out.checks
    );
    let c = catalog();
    let unit_of = |metric: &str| {
        c.end_to_end
            .iter()
            .chain(&c.per_layer)
            .find(|m| m.name == metric)
            .map_or("?", |m| m.unit.as_str())
    };
    for (metric, measured) in &out.metrics {
        println!(
            "  {metric:<40} {:>16.6} {:<6} n={}",
            measured.value,
            unit_of(metric),
            measured.samples
        );
    }
    if !plan.trace {
        println!(
            "  {:<40} {:>16.6} {:<6} n={}",
            "failed_share",
            out.failed as f64 / out.attempted.max(1) as f64,
            "ratio",
            out.attempted
        );
    }
    for note in &out.notes {
        println!("  ! {note}");
    }
}

/// The run's result line. `Err` names a declared end-to-end metric the run
/// could not report.
fn result_json(plan: &Plan, out: &Outcome) -> Result<String, String> {
    let mut metrics = Vec::new();
    for def in catalog().reported(plan.trace) {
        let value = match out.metrics.get(&def.name) {
            Some(measured) => measured.value,
            // A layer that does no work on this workload reports zero.
            None if plan.trace => 0.0,
            // Smoke runs are too short for the high percentiles.
            None if plan.size == Size::Smoke => continue,
            None => return Err(format!("metric `{}` was not measured", def.name)),
        };
        if !value.is_finite() {
            return Err(format!("metric `{}` is {value}", def.name));
        }
        metrics.push(format!(
            "\"{}\": {{\"value\": {value}, \"unit\": \"{}\"}}",
            def.name, def.unit
        ));
    }
    Ok(format!(
        "{{\"correct\": {}, \"attempted\": {}, \"failed\": {}, \"metrics\": {{{}}}}}",
        out.correct(),
        out.attempted.max(1),
        out.failed,
        metrics.join(", ")
    ))
}

/// `--workload NAME`: run it here, print everything, end with the result line.
fn single(name: &str, plan: &Plan) -> ExitCode {
    print_header(plan.seed);
    let out = run_workload(name, plan);
    print_outcome(name, plan, &out);
    match result_json(plan, &out) {
        Ok(line) => {
            println!("{line}");
            if out.correct() {
                ExitCode::SUCCESS
            } else {
                ExitCode::FAILURE
            }
        }
        Err(e) => {
            eprintln!("pvc_e2e: {name}: {e}");
            ExitCode::from(2)
        }
    }
}

/// Run one workload in a child process, echoing its output; returns its
/// result line when it exited successfully.
pub fn child(name: &str, seed: u64, seconds: f64, trace: bool, quiet: bool) -> Option<String> {
    let exe = std::env::current_exe().expect("the running binary has a path");
    let mut process = Command::new(exe)
        .args(["--workload", name])
        .args(["--seed", &seed.to_string()])
        .args(["--seconds", &seconds.to_string()])
        .args(["--trace", if trace { "1" } else { "0" }])
        .stdout(Stdio::piped())
        .spawn()
        .expect("the benchmark can re-execute itself");
    let stdout = process.stdout.take().expect("stdout is piped");
    let mut last = None;
    for line in BufReader::new(stdout).lines().map_while(Result::ok) {
        if !quiet {
            println!("{line}");
        }
        last = Some(line);
    }
    let status = process.wait().expect("the child can be waited for");
    last.filter(|_| status.success())
}

/// No `--workload`: every workload in a child of its own, untraced, and with
/// `--trace` once more traced.
fn all(args: &Args) -> ExitCode {
    let mut ok = true;
    for name in all_workloads() {
        ok &= child(name, args.seed, args.seconds, false, false).is_some();
        if args.trace {
            ok &= child(name, args.seed, args.seconds, true, false).is_some();
        }
    }
    if ok {
        ExitCode::SUCCESS
    } else {
        eprintln!("pvc_e2e: at least one workload failed");
        ExitCode::FAILURE
    }
}

/// `--smoke`: every workload at tiny counts in this process, traced (which
/// includes an untraced phase), every correctness check on.
fn smoke(seed: u64) -> Vec<(&'static str, Plan, Outcome)> {
    all_workloads()
        .map(|name| {
            let plan = Plan {
                seed,
                size: Size::Smoke,
                seconds: 0.0,
                trace: true,
            };
            (name, plan, run_workload(name, &plan))
        })
        .collect()
}

fn main() -> ExitCode {
    let argv: Vec<String> = std::env::args().skip(1).collect();
    let args = match parse_args(&argv) {
        Ok(args) => args,
        Err(e) => {
            eprintln!("pvc_e2e: {e}");
            return ExitCode::from(2);
        }
    };
    if args.smoke {
        print_header(args.seed);
        let mut ok = true;
        for (name, plan, out) in smoke(args.seed) {
            print_outcome(name, &plan, &out);
            ok &= out.correct();
        }
        return if ok {
            ExitCode::SUCCESS
        } else {
            ExitCode::FAILURE
        };
    }
    if let Some(k) = args.repeat {
        print_header(args.seed);
        return repeat::run(k, args.seed, args.seconds);
    }
    match &args.workload {
        Some(name) => single(
            name,
            &Plan {
                seed: args.seed,
                size: Size::Full,
                seconds: args.seconds,
                trace: args.trace,
            },
        ),
        None => all(&args),
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    fn argv(line: &str) -> Vec<String> {
        line.split_whitespace().map(str::to_string).collect()
    }

    #[test]
    fn trace_flag_takes_an_optional_value() {
        let driver =
            parse_args(&argv("--workload tpch_q1 --seed 7 --seconds 3 --trace 0")).unwrap();
        assert_eq!(driver.workload.as_deref(), Some("tpch_q1"));
        assert_eq!((driver.seed, driver.seconds, driver.trace), (7, 3.0, false));
        assert!(parse_args(&argv("--trace 1 --seed 2")).unwrap().trace);
        assert!(parse_args(&argv("--trace --seed 2")).unwrap().trace);
        assert!(parse_args(&argv("--trace")).unwrap().trace);
        assert!(parse_args(&argv("--workload nope")).is_err());
        assert!(parse_args(&argv("--repeat 2")).is_err());
    }

    /// The whole benchmark at smoke scale: every workload, traced and
    /// untraced phases, replay, every correctness check.
    #[test]
    fn smoke_run_is_correct_and_reports_every_declared_metric() {
        let runs = smoke(DEFAULT_SEED);
        let c = catalog();
        let declared = |name: &str| {
            c.end_to_end
                .iter()
                .chain(&c.per_layer)
                .any(|m| m.name == name)
        };
        let mut produced = std::collections::BTreeSet::new();
        for (name, plan, out) in &runs {
            assert_eq!(out.failed, 0, "{name}: {:?}", out.notes);
            assert!(out.checks > 0, "{name} checked nothing");
            assert!(out.notes.is_empty(), "{name}: {:?}", out.notes);
            for metric in out.metrics.keys() {
                assert!(declared(metric), "{name} reports undeclared `{metric}`");
                produced.insert(metric.clone());
            }
            // Everything end-to-end is there and not zero.
            for def in &c.end_to_end {
                let value = out.metrics[&def.name].value;
                assert!(value > 0.0, "{name}: {} is {value}", def.name);
            }
            assert!(result_json(plan, out).is_ok());
            assert!(out.metrics["bench.replay_coverage"].value > 0.0, "{name}");
        }
        // Every declared per-layer metric is produced by some workload.
        for def in &c.per_layer {
            assert!(
                produced.contains(&def.name) || is_percentile(&def.name),
                "no workload reports `{}`",
                def.name
            );
        }
    }

    /// Percentiles are refused on thin samples, so a smoke run may lack them.
    fn is_percentile(metric: &str) -> bool {
        ["_p50_ms", "_p90_ms", "_p99_ms"]
            .iter()
            .any(|suffix| metric.ends_with(suffix))
    }

    #[test]
    fn same_seed_gives_the_same_digest_and_another_seed_another() {
        let a = smoke_digests(1);
        assert_eq!(a, smoke_digests(1));
        let b = smoke_digests(2);
        for (name, (x, y)) in all_workloads().zip(a.iter().zip(&b)) {
            assert_ne!(x, y, "{name}: seeds 1 and 2 give the same inputs");
        }
    }

    /// Input digests of all five workloads at smoke scale, without running them.
    fn smoke_digests(seed: u64) -> Vec<u64> {
        use harness::Workload;
        vec![
            ExprCompile::setup(seed, Size::Smoke).digest(),
            SumKernel::setup(seed, Size::Smoke).digest(),
            tpch::TpchQ1::setup(seed, Size::Smoke).digest(),
            tpch::TpchQ2::setup(seed, Size::Smoke).digest(),
            workloads::serve_mixed::input_digest(seed, Size::Smoke),
        ]
    }
}
