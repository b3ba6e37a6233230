//! What every workload shares: the run plan, the outcome record, and the
//! closed-loop runner of the four single-client workloads (set-up, warm-up,
//! untraced phase, traced phase, layered replay, correctness checks).

use crate::spans::Spans;
use crate::stats::{percentile, sorted};
use crate::sys;
use pvc_core::obs;
use std::collections::BTreeMap;
use std::path::PathBuf;
use std::time::{Duration, Instant};

/// Input scale: the recorded benchmark, or the tiny variant `--smoke` and the
/// tier-1 test run (same code paths and checks, seconds instead of minutes).
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum Size {
    Full,
    Smoke,
}

/// How one workload run is shaped.
#[derive(Debug, Clone, Copy)]
pub struct Plan {
    pub seed: u64,
    pub size: Size,
    /// Length of the measured phases in total.
    pub seconds: f64,
    /// Also run the traced phase and the layered replay.
    pub trace: bool,
}

/// Untimed operations before the first timed one.
pub const WARMUP_OPS: usize = 5;
/// Fewest timed operations of an untraced phase: enough for a p90 with ten
/// samples beyond it. The phase runs past its deadline to reach it.
pub const MIN_TIMED_OPS: usize = 110;
/// Every how many operations the layered replay samples one (of a workload
/// with fewer than four times as many inputs, all of them).
pub const REPLAY_EVERY: usize = 4;

impl Plan {
    /// `(untraced, traced, replay)` seconds. A traced run splits its time: the
    /// untraced part gives the denominator of the overhead ratio and the
    /// latencies the replayed sample is compared with.
    pub fn split(&self) -> (f64, f64, f64) {
        if self.trace {
            (0.4 * self.seconds, 0.3 * self.seconds, 0.3 * self.seconds)
        } else {
            (self.seconds, 0.0, 0.0)
        }
    }

    /// Fewest operations of the untraced phase.
    pub fn min_ops(&self) -> usize {
        match self.size {
            Size::Full => MIN_TIMED_OPS,
            Size::Smoke => 6,
        }
    }

    /// Fewest timings behind each input's minimum in the untraced phase.
    pub fn min_samples_per_input(&self) -> usize {
        match self.size {
            Size::Full => 8,
            Size::Smoke => 1,
        }
    }

    pub fn warmup_ops(&self) -> usize {
        match self.size {
            Size::Full => WARMUP_OPS,
            Size::Smoke => 1,
        }
    }
}

/// A reported value and the number of samples behind it.
#[derive(Debug, Clone, Copy)]
pub struct Measured {
    pub value: f64,
    pub samples: usize,
}

/// What one workload run produced.
#[derive(Debug, Default)]
pub struct Outcome {
    /// Operations attempted in the untraced phase.
    pub attempted: u64,
    /// Errors, refusals, time-outs and wrong answers among them.
    pub failed: u64,
    /// Correctness checks made (each compares one output with its oracle).
    pub checks: u64,
    /// Every metric this run measured, by its `BENCHMARK.json` name.
    pub metrics: BTreeMap<String, Measured>,
    /// What went wrong, for the human reader.
    pub notes: Vec<String>,
    /// FNV digest of everything the seed generated.
    pub input_digest: u64,
}

impl Outcome {
    pub fn set(&mut self, name: &str, value: f64, samples: usize) {
        self.metrics
            .insert(name.to_string(), Measured { value, samples });
    }

    /// Every check passed, and there were checks.
    pub fn correct(&self) -> bool {
        self.failed == 0 && self.checks > 0
    }

    pub fn fail(&mut self, note: String) {
        self.failed += 1;
        if self.notes.len() < 20 {
            self.notes.push(note);
        }
    }
}

/// Sums gathered over the replayed sample, by per-layer metric name. The
/// runner divides by the number of replayed operations.
#[derive(Debug, Default)]
pub struct Layers(pub BTreeMap<&'static str, f64>);

impl Layers {
    pub fn add(&mut self, name: &'static str, value: f64) {
        *self.0.entry(name).or_insert(0.0) += value;
    }

    pub fn get(&self, name: &str) -> f64 {
        self.0.get(name).copied().unwrap_or(0.0)
    }
}

/// Times one operation: wall clock and process CPU clock.
pub struct Stopwatch {
    cpu_before: f64,
    start: Instant,
}

impl Stopwatch {
    pub fn start() -> Stopwatch {
        Stopwatch {
            cpu_before: sys::cpu_seconds(),
            start: Instant::now(),
        }
    }

    /// Wall seconds since the start.
    pub fn elapsed_s(&self) -> f64 {
        self.start.elapsed().as_secs_f64()
    }

    /// `(wall seconds, CPU seconds of all the process's threads)` since the
    /// start; the latter `None` where the CPU clock cannot be read.
    pub fn stop(&self) -> (f64, Option<f64>) {
        let latency_s = self.elapsed_s();
        let cpu_s = sys::cpu_seconds() - self.cpu_before;
        (latency_s, (cpu_s > 0.0).then_some(cpu_s))
    }
}

/// One timed operation.
#[derive(Debug)]
pub struct Timed<E> {
    pub latency_s: f64,
    /// CPU seconds of all the process's threads over the same span.
    pub cpu_s: Option<f64>,
    /// Submit → first result tuple, where the operation streams.
    pub first_tuple_s: Option<f64>,
    /// What the correctness check needs of the output (extracted after the
    /// latency clock stopped).
    pub evidence: E,
}

/// One finished operation as the checks see it.
#[derive(Debug)]
pub struct Done<E> {
    /// Position in the run (0 = first timed operation).
    pub seq: usize,
    /// Which of the workload's generated operations it was.
    pub index: usize,
    pub evidence: E,
}

/// A single-client closed-loop workload.
pub trait Workload: Sized {
    /// The workload's name in `BENCHMARK.json`.
    const NAME: &'static str;
    /// Whether an operation runs on the calling thread alone. Then its CPU
    /// time is its latency minus whatever the host took away, and the floor is
    /// taken on the CPU clock; an operation that runs on several threads has
    /// only the wall clock for its latency.
    const ONE_THREAD: bool;
    type Evidence;

    /// Generate the inputs from the seed and build what the operations run on.
    fn setup(seed: u64, size: Size) -> Self;
    /// Digest of everything `setup` generated.
    fn digest(&self) -> u64;
    /// Number of generated operations; the run cycles through them.
    fn ops(&self) -> usize;
    /// Run operation `index` with `profile` telling the engine workloads to ask
    /// for an execution profile (the traced phase).
    fn run_op(&mut self, index: usize, profile: bool) -> Result<Timed<Self::Evidence>, String>;
    /// Compare outputs with their oracles; returns `(checks made, failures)`.
    fn check(&mut self, done: &[Done<Self::Evidence>]) -> (u64, Vec<String>);
    /// Drive operation `index` by hand through each layer's public functions.
    fn replay(
        &mut self,
        index: usize,
        spans: &mut Spans,
        layers: &mut Layers,
    ) -> Result<(), String>;
    /// The replay spans that together make up one operation, in sequence.
    fn replay_op_spans(&self) -> &'static [&'static str];
}

/// The fastest of several set-ups, and the last set-up's product. `discard`
/// tears a superseded product down, outside the clock.
///
/// Set-up is cheap on every workload (0.3–25 ms), so one sample would be
/// mostly noise: it is repeated, at least 5 times, until half a second has
/// gone into it (a hundred set-ups of `sum_kernel` take 30 ms, and when those
/// 30 ms fell into a slow moment of the host even their fastest was twice the
/// usual). The fastest is reported, and on the process CPU clock, for the
/// reasons given at [`best_pass`]: on a shared host the time of a fixed piece
/// of work has a floor and a neighbour-dependent excess, and only the floor is
/// the program's. (The set-ups of the declared workloads compute on one
/// thread and do no I/O, so undisturbed their CPU time is their wall time.)
pub fn timed_setups<T>(
    size: Size,
    mut setup: impl FnMut() -> T,
    mut discard: impl FnMut(T),
) -> (T, Measured) {
    let mut fastest = f64::INFINITY;
    let (mut spent, mut samples) = (0.0, 0usize);
    loop {
        let watch = Stopwatch::start();
        let built = setup();
        let (wall_s, cpu_s) = watch.stop();
        fastest = fastest.min(cpu_s.unwrap_or(wall_s));
        spent += wall_s;
        samples += 1;
        let enough = match size {
            Size::Smoke => true,
            Size::Full => samples >= 5 && spent >= 0.5,
        };
        if enough {
            let measured = Measured {
                value: fastest,
                samples,
            };
            return (built, measured);
        }
        discard(built);
    }
}

/// Mean over the inputs of the least time each took, and the fewest samples
/// any input's minimum was taken over: the cost of one pass over the
/// workload's inputs with each operation at its best.
///
/// Why the minimum and not the median. Every operation here is a fixed piece
/// of CPU-bound work (fresh engine, no state carried over), so its time is a
/// floor set by the program plus an excess set by whoever shares the physical
/// core, the last-level cache and the memory bus. On the 2-vCPU VMs this runs
/// on, that excess moves medians by 30–45 % between quarters of an hour (the
/// same binary, the same seed: `sum_kernel` p50 74 ms → 106 ms), and no run
/// length the time cap allows averages it out. The floor is reached by a few
/// operations in a hundred even in a bad quarter of an hour, so per-input
/// minima over a run repeat to a few percent. A change that slows an
/// operation raises its floor, which is what the bound is there to catch;
/// what the minimum cannot see (tails, contention) is reported beside it as
/// unbounded `e2e.*` diagnostics.
///
/// Why on the CPU clock where that is possible. The host also has spells of
/// minutes in which the hypervisor runs other guests on these vCPUs a third of
/// the time; then no 40 ms operation escapes and even wall minima rise by
/// 20–60 % (`tpch_q1`: 70 ms against 42 ms). The kernel's task clock does not
/// count stolen time, and undisturbed a one-thread operation's CPU time *is*
/// its latency (measured: equal to 0.01 %), so its CPU minima stay put. An
/// operation on several threads (`tpch_q2`) has no such clock: its threads
/// spin while they wait, so its CPU time is about `nproc` × its latency and
/// the minimum of that is erratic (26 or 35 ms from run to run).
pub fn best_pass(timed: &[(usize, f64)]) -> Option<Measured> {
    let mut best: BTreeMap<usize, (f64, usize)> = BTreeMap::new();
    for &(input, seconds) in timed {
        let slot = best.entry(input).or_insert((f64::INFINITY, 0));
        slot.0 = slot.0.min(seconds);
        slot.1 += 1;
    }
    let samples = best.values().map(|&(_, n)| n).min()?;
    let sum: f64 = best.values().map(|&(fastest, _)| fastest).sum();
    Some(Measured {
        value: sum / best.len() as f64,
        samples,
    })
}

/// The measurements of one closed-loop phase.
#[derive(Debug)]
pub struct Phase {
    begin: Instant,
    begin_cpu_s: f64,
    /// `(input, latency)` of every completed operation.
    pub timed: Vec<(usize, f64)>,
    /// `(input, CPU seconds)` of the operations that ran one at a time on one
    /// thread (see [`Workload::ONE_THREAD`]).
    pub cpu: Vec<(usize, f64)>,
    pub first_tuple_s: Vec<f64>,
    // What `finish` notes: wall seconds, process CPU seconds, completed operations.
    wall_s: f64,
    cpu_s: f64,
    ops: u64,
}

impl Phase {
    /// Start the phase's clock.
    pub fn begin() -> Phase {
        Phase {
            begin: Instant::now(),
            begin_cpu_s: sys::cpu_seconds(),
            timed: Vec::new(),
            cpu: Vec::new(),
            first_tuple_s: Vec::new(),
            wall_s: 0.0,
            cpu_s: 0.0,
            ops: 0,
        }
    }

    pub fn elapsed(&self) -> Duration {
        self.begin.elapsed()
    }

    /// Stop the clock: `ops` operations completed in the phase.
    pub fn finish(&mut self, ops: u64) {
        self.wall_s = self.begin.elapsed().as_secs_f64();
        self.cpu_s = sys::cpu_seconds() - self.begin_cpu_s;
        self.ops = ops;
    }

    pub fn ops(&self) -> u64 {
        self.ops
    }

    /// Completed operations ÷ wall time over the whole phase.
    pub fn ops_per_s(&self) -> f64 {
        self.ops as f64 / self.wall_s
    }

    /// Process CPU milliseconds ÷ completed operations over the whole phase.
    pub fn cpu_ms_per_op(&self) -> f64 {
        self.cpu_s * 1e3 / self.ops.max(1) as f64
    }

    fn sorted_latencies(&self) -> Vec<f64> {
        sorted(self.timed.iter().map(|&(_, seconds)| seconds).collect())
    }
}

/// Record the end-to-end metrics every workload reports from its untraced phase.
pub fn record_end_to_end(out: &mut Outcome, phase: &Phase, setup: Measured) {
    out.metrics.insert("setup_s".to_string(), setup);
    // The floor of an operation's latency: on the CPU clock where the
    // operations ran on one thread, else on the wall clock.
    if let Some(best) = best_pass(&phase.cpu).or_else(|| best_pass(&phase.timed)) {
        out.set("op_best_ms", best.value * 1e3, best.samples);
    }
    out.set("peak_rss_mb", sys::peak_rss_mb(), 1);
}

/// Record what the untraced phase measured beyond the bounded metrics — the
/// whole-phase rates and the latency percentiles, which on a shared host say
/// as much about the neighbours as about the program, and the end-to-end
/// metrics that exist on some workloads only — and the input digest.
pub fn record_diagnostics(out: &mut Outcome, phase: &Phase) {
    let lat = phase.sorted_latencies();
    for (name, q) in [
        ("e2e.op_p50_ms", 0.50),
        ("e2e.op_p90_ms", 0.90),
        ("e2e.op_p99_ms", 0.99),
    ] {
        if let Some(v) = percentile(&lat, q) {
            out.set(name, v * 1e3, lat.len());
        }
    }
    if let Some(best) = best_pass(&phase.timed) {
        out.set("e2e.op_best_wall_ms", best.value * 1e3, best.samples);
    }
    let ops = phase.ops() as usize;
    out.set("e2e.ops_per_s", phase.ops_per_s(), ops);
    out.set("e2e.cpu_ms_per_op", phase.cpu_ms_per_op(), ops);
    let first = sorted(phase.first_tuple_s.clone());
    if let Some(v) = percentile(&first, 0.50) {
        out.set("e2e.first_tuple_p50_ms", v * 1e3, first.len());
    }
    out.set(
        "e2e.failed_share",
        out.failed as f64 / out.attempted.max(1) as f64,
        out.attempted as usize,
    );
    // The low 48 bits are exact in a JSON number; the header prints all 64.
    out.set(
        "bench.input_digest",
        (out.input_digest & 0xffff_ffff_ffff) as f64,
        1,
    );
}

/// Turn metrics and span counting on or off (the traced phase's switches).
pub fn set_tracing(on: bool) {
    obs::set_metrics_enabled(on);
    obs::set_tracing_enabled(on);
}

/// Map the `obs` snapshot of a traced phase onto per-layer metrics, each count
/// divided by the phase's operations so runs of different length compare.
pub fn record_obs(out: &mut Outcome, ops: usize) {
    let snap = obs::snapshot();
    let per_op = |v: u64| v as f64 / ops.max(1) as f64;
    let counter = |name: &str| snap.counters.get(name).copied().unwrap_or(0);
    let hist = |name: &str| snap.histograms.get(name).cloned().unwrap_or_default();
    let mean = |sum: u64, count: u64| sum as f64 / count.max(1) as f64;

    for (metric, source) in [
        ("prob.kernel.conv_dense", "kernel.conv.dense"),
        ("prob.kernel.conv_sparse", "kernel.conv.sparse"),
        ("prob.kernel.conv_fft", "kernel.conv.fft"),
        ("prob.kernel.fft_fallbacks", "kernel.fft.fallbacks"),
        ("prob.kernel.chain_breaks", "kernel.dense_chain.breaks"),
        ("core.cache.arena_hits", "cache.arena.hit"),
        ("core.cache.arena_misses", "cache.arena.miss"),
        ("core.cache.evictions", "cache.eviction"),
        ("core.cache.subtrees", "span.subtree"),
    ] {
        out.set(metric, per_op(counter(source)), ops);
    }
    let support = hist("kernel.conv.support");
    out.set(
        "prob.kernel.support_cells",
        mean(support.sum, support.count),
        support.count as usize,
    );

    let hits = counter("cache.semiring.hit") + counter("cache.aggregate.hit");
    let misses = counter("cache.semiring.miss") + counter("cache.aggregate.miss");
    out.set("core.cache.hits", per_op(hits), ops);
    out.set("core.cache.misses", per_op(misses), ops);
    out.set(
        "core.cache.hit_ratio",
        hits as f64 / (hits + misses).max(1) as f64,
        (hits + misses) as usize,
    );

    let wait = hist("pool.queue_wait_us");
    let run = hist("pool.run_us");
    out.set(
        "core.parallel.queue_wait_s",
        per_op(wait.sum) / 1e6,
        wait.count as usize,
    );
    out.set(
        "core.parallel.run_s",
        per_op(run.sum) / 1e6,
        run.count as usize,
    );
    out.set("core.parallel.jobs", per_op(run.count), ops);

    // Mean per event, microseconds scaled to seconds.
    for (metric, source, scale) in [
        ("core.persist.wal_append_s", "persist.wal.append.us", 1e-6),
        ("core.persist.wal_bytes", "persist.wal.append.bytes", 1.0),
        ("core.persist.snapshot_save_s", "persist.save.us", 1e-6),
        ("core.persist.snapshot_bytes", "persist.save.bytes", 1.0),
    ] {
        let h = hist(source);
        out.set(metric, mean(h.sum, h.count) * scale, h.count as usize);
    }
}

/// Which per-layer metric the self time of each replay span feeds.
const SPAN_METRICS: &[(&str, &str)] = &[
    ("db.engine.prepare", "db.engine.prepare_s"),
    ("db.engine.first_tuple", "db.engine.first_tuple_s"),
    ("db.exec", "db.exec.rewrite_s"),
    ("expr.intern", "expr.intern.time_s"),
    ("core.cache", "core.cache.evaluate_s"),
    ("core.compile", "core.compile.time_s"),
    ("core.arena.flatten", "core.arena.flatten_s"),
    ("core.arena.eval", "core.arena.eval_s"),
    ("prob.kernel.replay", "prob.kernel.replay_s"),
    ("serve.dispatch_wait", "serve.dispatch_wait_s"),
    ("serve.drain", "serve.drain_s"),
];

/// Record what the layered replay measured, as means per replayed operation:
/// the layer sums, each replay span's self time, and the replay's own books
/// (`replay_op_s` is the self time of the spans that in sequence make up one
/// operation; `untraced_sum` the untraced latency of the same operations).
pub fn record_replay(
    out: &mut Outcome,
    layers: &Layers,
    own: &BTreeMap<&'static str, f64>,
    replayed: usize,
    replay_op_s: f64,
    untraced_sum: f64,
) {
    let per_replayed = 1.0 / replayed.max(1) as f64;
    for (name, sum) in &layers.0 {
        out.set(name, sum * per_replayed, replayed);
    }
    for (span, metric) in SPAN_METRICS {
        if let Some(seconds) = own.get(span) {
            out.set(metric, seconds * per_replayed, replayed);
        }
    }
    let nodes_in = layers.get("expr.intern.nodes_in");
    if nodes_in > 0.0 {
        out.set(
            "expr.intern.dedup_ratio",
            1.0 - layers.get("expr.intern.nodes_distinct") / nodes_in,
            replayed,
        );
    }
    out.set("bench.replayed_ops", replayed as f64, replayed);
    out.set("bench.replay_op_s", replay_op_s * per_replayed, replayed);
    out.set("bench.untraced_op_s", untraced_sum * per_replayed, replayed);
    out.set(
        "bench.replay_coverage",
        replay_op_s / untraced_sum.max(f64::MIN_POSITIVE),
        replayed,
    );
}

/// Where the benchmark may write: a directory beside the running binary, which
/// is inside the build's target directory and so never in the source tree.
pub fn output_dir() -> PathBuf {
    let exe = std::env::current_exe().expect("the running binary has a path");
    let dir = exe
        .parent()
        .expect("the binary sits in a directory")
        .join("pvc_e2e_out");
    std::fs::create_dir_all(&dir).expect("the output directory can be created");
    dir
}

/// Write the replay's spans to `trace-<workload>.json` and report how many.
pub fn write_trace(name: &str, spans: &Spans) -> Result<(), String> {
    let path = output_dir().join(format!("trace-{name}.json"));
    spans
        .write_json(&path, name)
        .map_err(|e| format!("cannot write {}: {e}", path.display()))?;
    println!("trace: {} spans -> {}", spans.len(), path.display());
    Ok(())
}

/// Run a single-client workload according to the plan.
pub fn run<W: Workload>(plan: &Plan) -> Outcome {
    let mut out = Outcome::default();
    let (mut w, setup) = timed_setups(plan.size, || W::setup(plan.seed, plan.size), drop);
    out.input_digest = w.digest();
    let n_ops = w.ops();
    let (untraced_s, traced_s, replay_s) = plan.split();

    let mut seq = 0usize;
    for _ in 0..plan.warmup_ops() {
        if let Err(e) = w.run_op(seq % n_ops, false) {
            out.fail(format!("warm-up op {seq}: {e}"));
        }
        seq += 1;
    }
    let first_timed = seq;

    // Untraced phase: metrics, tracing and profiles all off. It runs past its
    // deadline until every input has been timed often enough for its minimum.
    let mut done: Vec<Done<W::Evidence>> = Vec::new();
    let mut phase = Phase::begin();
    let deadline = Duration::from_secs_f64(untraced_s);
    let min_ops = plan.min_ops().max(plan.min_samples_per_input() * n_ops);
    while phase.elapsed() < deadline || phase.timed.len() < min_ops {
        let index = seq % n_ops;
        out.attempted += 1;
        match w.run_op(index, false) {
            Ok(timed) => {
                phase.timed.push((index, timed.latency_s));
                if W::ONE_THREAD {
                    phase.cpu.extend(timed.cpu_s.map(|cpu_s| (index, cpu_s)));
                }
                phase.first_tuple_s.extend(timed.first_tuple_s);
                done.push(Done {
                    seq: seq - first_timed,
                    index,
                    evidence: timed.evidence,
                });
            }
            Err(e) => out.fail(format!("op {seq} (input {index}): {e}")),
        }
        seq += 1;
    }
    phase.finish(phase.timed.len() as u64);
    record_end_to_end(&mut out, &phase, setup);
    // Latest untraced latency per generated operation, for the replay's coverage.
    let latency_of: BTreeMap<usize, f64> = phase.timed.iter().copied().collect();

    if plan.trace {
        // Traced phase: the same operations with metrics, span counting and
        // execution profiles on.
        obs::reset();
        set_tracing(true);
        let mut traced = Phase::begin();
        let deadline = Duration::from_secs_f64(traced_s);
        while traced.elapsed() < deadline || traced.timed.len() < plan.min_ops() / 4 {
            let index = seq % n_ops;
            match w.run_op(index, true) {
                Ok(timed) => traced.timed.push((index, timed.latency_s)),
                Err(e) => out.notes.push(format!("traced op {seq}: {e}")),
            }
            seq += 1;
        }
        traced.finish(traced.timed.len() as u64);
        set_tracing(false);
        let traced_ops = traced.timed.len();
        record_obs(&mut out, traced_ops);
        out.set(
            "bench.trace_overhead_ratio",
            traced.ops_per_s() / phase.ops_per_s(),
            traced_ops,
        );

        // Layered replay of every fourth generated operation that the
        // untraced phase timed (all of them where there are few), within the
        // replay's share of the run.
        let every = if n_ops >= 4 * REPLAY_EVERY {
            REPLAY_EVERY
        } else {
            1
        };
        let mut spans = Spans::new();
        let mut layers = Layers::default();
        let mut replayed = 0usize;
        let mut untraced_sum = 0.0;
        let begin = Instant::now();
        let budget = Duration::from_secs_f64(replay_s);
        for (&index, &latency) in latency_of.iter().filter(|(i, _)| *i % every == 0) {
            if replayed >= 2 && begin.elapsed() >= budget {
                break;
            }
            match w.replay(index, &mut spans, &mut layers) {
                Ok(()) => {
                    replayed += 1;
                    untraced_sum += latency;
                }
                Err(e) => out.notes.push(format!("replay of input {index}: {e}")),
            }
        }
        let own = spans.self_seconds();
        let replay_op_s: f64 = w
            .replay_op_spans()
            .iter()
            .map(|name| own.get(name).copied().unwrap_or(0.0))
            .sum();
        record_replay(&mut out, &layers, &own, replayed, replay_op_s, untraced_sum);
        if let Err(e) = write_trace(W::NAME, &spans) {
            out.notes.push(e);
        }
    }

    // Correctness, outside every timed phase and never against the path under test.
    let (checks, failures) = w.check(&done);
    out.checks = checks;
    for failure in failures {
        out.fail(failure);
    }
    record_diagnostics(&mut out, &phase);
    out
}

#[cfg(test)]
mod tests {
    use super::best_pass;

    #[test]
    fn best_pass_is_the_mean_of_the_per_input_minima() {
        let timed = [(0, 3.0), (1, 5.0), (0, 2.0), (1, 7.0), (1, 6.0)];
        let best = best_pass(&timed).unwrap();
        assert_eq!(best.value, 3.5);
        // The thinner of the two minima was taken over two timings.
        assert_eq!(best.samples, 2);
        assert!(best_pass(&[]).is_none());
    }
}
