//! Drivers for the paper's Experiments A–F (Figures 7–11).
//!
//! Each `experiment_*` function runs the corresponding parameter sweep and returns one
//! row per plotted point; the `all_experiments` binary prints these rows. The sweeps
//! come in two sizes: [`Scale::Quick`] (default; finishes in minutes) and
//! [`Scale::Full`] (closer to the paper's parameters; enable with `PVC_BENCH_FULL=1`).

use crate::stats::{timed_over_seeds, Measurement};
use pvc_algebra::{AggOp, CmpOp, SemiringKind};
use pvc_core::{CompileOptions, Compiler};
use pvc_db::{try_evaluate, Engine, EvalOptions};
use pvc_tpch::{deterministic_copy, generate, TpchConfig};
use pvc_workload::{ExprGenParams, ExprGenerator};

/// Which parameter scale to run the experiments at.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum Scale {
    /// Scaled-down parameters (default): every experiment finishes in seconds to a few
    /// minutes on a laptop while preserving the shape of the paper's curves.
    Quick,
    /// Parameters close to the paper's (§7.1): substantially slower, especially for
    /// COUNT/SUM.
    Full,
}

impl Scale {
    /// Read the scale from the `PVC_BENCH_FULL` environment variable.
    pub fn from_env() -> Self {
        match std::env::var("PVC_BENCH_FULL") {
            Ok(v) if v == "1" || v.eq_ignore_ascii_case("true") => Scale::Full,
            _ => Scale::Quick,
        }
    }

    fn is_full(self) -> bool {
        self == Scale::Full
    }
}

/// Compile a generated conditional expression and compute its probability; the timed
/// unit of work of Experiments A–E.
fn compile_and_probability(gen: &pvc_workload::GeneratedExpr) -> f64 {
    let mut compiler =
        Compiler::with_options(&gen.vars, SemiringKind::Bool, CompileOptions::default());
    let dist = compiler
        .emit_semiring(&gen.condition)
        .expect("no node budget configured")
        .semiring_distribution(&gen.vars, SemiringKind::Bool)
        .expect("semiring distribution");
    pvc_core::confidence_of(&dist)
}

/// One row of an Experiment A/B/C/D/E table.
#[derive(Debug, Clone)]
pub struct SweepRow {
    /// The label of the series the row belongs to (e.g. `MIN`, `MIN/COUNT`, `≤`).
    pub series: String,
    /// The x-axis value (the swept parameter).
    pub x: f64,
    /// The timing measurement at that point.
    pub measurement: Measurement,
}

impl SweepRow {
    /// Format as a table row.
    pub fn cells(&self) -> Vec<String> {
        vec![
            self.series.clone(),
            format!("{}", self.x),
            format!("{:.4}", self.measurement.mean_seconds),
            format!("{:.4}", self.measurement.std_seconds),
            format!("{}", self.measurement.runs),
        ]
    }
}

/// Header of the sweep tables.
pub const SWEEP_HEADER: [&str; 5] = ["series", "x", "mean_s", "std_s", "runs"];

fn sweep_point(params: ExprGenParams, runs: usize) -> Measurement {
    timed_over_seeds(0..runs as u64, |seed| {
        let gen = ExprGenerator::new(params.clone(), seed).generate();
        let _ = compile_and_probability(&gen);
    })
}

/// **Experiment A** (Figure 7): vary the constant `c` for each aggregation monoid and
/// comparison operator; one-sided expressions.
pub fn experiment_a(scale: Scale) -> Vec<SweepRow> {
    let full = scale.is_full();
    let mut rows = Vec::new();
    let thetas = [CmpOp::Eq, CmpOp::Le, CmpOp::Ge];
    // MIN and MAX: values in [0, maxv]; sweep c across and beyond that range.
    let minmax_cfg = |agg, theta, c| ExprGenParams {
        agg_left: agg,
        theta,
        constant: c,
        left_terms: if full { 200 } else { 60 },
        num_vars: if full { 25 } else { 16 },
        max_value: 200,
        ..ExprGenParams::default()
    };
    let c_values: Vec<i64> = if full {
        (0..=300).step_by(30).collect()
    } else {
        vec![0, 40, 80, 120, 160, 200, 240, 300]
    };
    let runs = if full { 30 } else { 3 };
    for agg in [AggOp::Min, AggOp::Max] {
        for theta in thetas {
            for &c in &c_values {
                let m = sweep_point(minmax_cfg(agg, theta, c), runs);
                rows.push(SweepRow {
                    series: format!("{agg} {theta}"),
                    x: c as f64,
                    measurement: m,
                });
            }
        }
    }
    // COUNT and SUM: smaller instances — their distributions grow with the number of
    // terms and the experiment is orders of magnitude slower (as in the paper).
    let countsum_cfg = |agg, theta, c, maxv| ExprGenParams {
        agg_left: agg,
        theta,
        constant: c,
        max_value: maxv,
        left_terms: if full { 200 } else { 30 },
        num_vars: if full { 25 } else { 12 },
        ..ExprGenParams::default()
    };
    let runs = if full { 10 } else { 2 };
    let count_cs: Vec<i64> = if full {
        (0..=300).step_by(50).collect()
    } else {
        vec![0, 5, 10, 15, 20, 25, 30]
    };
    for theta in thetas {
        for &c in &count_cs {
            let m = sweep_point(countsum_cfg(AggOp::Count, theta, c, 200), runs);
            rows.push(SweepRow {
                series: format!("COUNT {theta}"),
                x: c as f64,
                measurement: m,
            });
        }
    }
    let sum_cs: Vec<i64> = if full {
        (0..=30_000).step_by(5_000).collect()
    } else {
        vec![0, 50, 150, 300, 450, 600]
    };
    for theta in thetas {
        for &c in &sum_cs {
            let maxv = if full { 200 } else { 40 };
            let m = sweep_point(countsum_cfg(AggOp::Sum, theta, c, maxv), runs);
            rows.push(SweepRow {
                series: format!("SUM {theta}"),
                x: c as f64,
                measurement: m,
            });
        }
    }
    rows
}

/// **Experiment B** (Figure 8b): vary the number of terms `L` at a fixed number of
/// variables, for all four aggregation monoids.
pub fn experiment_b(scale: Scale) -> Vec<SweepRow> {
    let full = scale.is_full();
    let ls: Vec<usize> = if full {
        vec![10, 50, 100, 200, 400, 600, 800, 1000]
    } else {
        vec![10, 25, 50, 100, 200, 400]
    };
    let runs = if full { 10 } else { 3 };
    let mut rows = Vec::new();
    for agg in [AggOp::Min, AggOp::Max, AggOp::Count, AggOp::Sum] {
        for &l in &ls {
            let params = ExprGenParams {
                agg_left: agg,
                theta: CmpOp::Eq,
                constant: 100,
                left_terms: l,
                num_vars: if full { 25 } else { 14 },
                max_value: 200,
                clauses_per_term: 3,
                literals_per_clause: 3,
                ..ExprGenParams::default()
            };
            // COUNT/SUM grow much faster; cap their sweep earlier in quick mode.
            if !full && matches!(agg, AggOp::Count | AggOp::Sum) && l > 100 {
                continue;
            }
            let m = sweep_point(params, runs);
            rows.push(SweepRow {
                series: agg.to_string(),
                x: l as f64,
                measurement: m,
            });
        }
    }
    rows
}

/// **Experiment C** (Figure 8a): vary the number of distinct variables at fixed
/// expression size — the easy/hard/easy phase transition.
pub fn experiment_c(scale: Scale) -> Vec<SweepRow> {
    let full = scale.is_full();
    let vs: Vec<usize> = if full {
        vec![5, 10, 20, 30, 45, 60, 90, 120, 180, 240, 300]
    } else {
        vec![4, 6, 8, 10, 14, 18, 24, 32, 48, 72, 108, 160, 240]
    };
    let runs = if full { 40 } else { 3 };
    let mut rows = Vec::new();
    for &v in &vs {
        let params = ExprGenParams {
            agg_left: AggOp::Min,
            theta: CmpOp::Eq,
            constant: 3,
            max_value: 5,
            left_terms: if full { 90 } else { 24 },
            clauses_per_term: 2,
            literals_per_clause: 2,
            num_vars: v,
            ..ExprGenParams::default()
        };
        let m = sweep_point(params, runs);
        rows.push(SweepRow {
            series: "MIN =".to_string(),
            x: v as f64,
            measurement: m,
        });
    }
    rows
}

/// **Experiment D** (Figure 9): vary the number of literals per clause and of clauses
/// per term.
pub fn experiment_d(scale: Scale) -> Vec<SweepRow> {
    let full = scale.is_full();
    let runs = if full { 20 } else { 3 };
    let base = |agg| ExprGenParams {
        agg_left: agg,
        theta: CmpOp::Le,
        constant: 3,
        max_value: 5,
        left_terms: if full { 100 } else { 40 },
        num_vars: if full { 25 } else { 14 },
        ..ExprGenParams::default()
    };
    let aggs = [AggOp::Min, AggOp::Max, AggOp::Count, AggOp::Sum];
    let mut rows = Vec::new();
    // (a) vary #l with #cl = 3.
    let ls: Vec<usize> = if full {
        vec![1, 2, 3, 5, 8, 12, 16, 20]
    } else {
        vec![1, 2, 3, 5, 8, 12]
    };
    for agg in aggs {
        for &l in &ls {
            let params = ExprGenParams {
                clauses_per_term: 3,
                literals_per_clause: l,
                ..base(agg)
            };
            let m = sweep_point(params, runs);
            rows.push(SweepRow {
                series: format!("{agg} #l"),
                x: l as f64,
                measurement: m,
            });
        }
    }
    // (b) vary #cl with #l = 3.
    let cls: Vec<usize> = if full {
        vec![1, 2, 3, 5, 8, 12, 16, 20]
    } else {
        vec![1, 2, 3, 5, 8, 12]
    };
    for agg in aggs {
        for &cl in &cls {
            let params = ExprGenParams {
                clauses_per_term: cl,
                literals_per_clause: 3,
                ..base(agg)
            };
            let m = sweep_point(params, runs);
            rows.push(SweepRow {
                series: format!("{agg} #cl"),
                x: cl as f64,
                measurement: m,
            });
        }
    }
    rows
}

/// **Experiment E** (Figure 10): two-sided expressions with different aggregations on
/// each side; vary the number of terms on one side while fixing the other.
pub fn experiment_e(scale: Scale) -> Vec<SweepRow> {
    let full = scale.is_full();
    let runs = if full { 10 } else { 3 };
    let pairs = [
        (AggOp::Min, AggOp::Max),
        (AggOp::Min, AggOp::Count),
        (AggOp::Max, AggOp::Sum),
    ];
    let sizes: Vec<usize> = if full {
        vec![50, 150, 300, 600, 1000, 1500, 2000]
    } else {
        vec![10, 20, 40, 80, 120]
    };
    let fixed = if full { 150 } else { 30 };
    let base = |l: usize, r: usize, agg_l, agg_r| ExprGenParams {
        agg_left: agg_l,
        agg_right: agg_r,
        left_terms: l,
        right_terms: r,
        theta: CmpOp::Le,
        constant: 100,
        max_value: 200,
        clauses_per_term: 2,
        literals_per_clause: 2,
        num_vars: if full { 25 } else { 10 },
        ..ExprGenParams::default()
    };
    let mut rows = Vec::new();
    for (agg_l, agg_r) in pairs {
        // (a) vary L, fix R.
        for &l in &sizes {
            let m = sweep_point(base(l, fixed, agg_l, agg_r), runs);
            rows.push(SweepRow {
                series: format!("{agg_l}/{agg_r} vary L"),
                x: l as f64,
                measurement: m,
            });
        }
        // (b) vary R, fix L.
        for &r in &sizes {
            let m = sweep_point(base(fixed, r, agg_l, agg_r), runs);
            rows.push(SweepRow {
                series: format!("{agg_l}/{agg_r} vary R"),
                x: r as f64,
                measurement: m,
            });
        }
    }
    rows
}

/// One row of the Experiment F table: a query at a scale factor with the three
/// measured phases.
#[derive(Debug, Clone)]
pub struct TpchRow {
    /// `Q1` or `Q2`.
    pub query: String,
    /// The TPC-H-like scale factor.
    pub scale_factor: f64,
    /// Seconds for the deterministic baseline `Q0` (no expressions, no probabilities).
    pub deterministic_seconds: f64,
    /// Seconds for step I, the rewriting `⟦·⟧` (tuples plus expressions).
    pub rewrite_seconds: f64,
    /// Seconds for step II, probability computation `P(·)`.
    pub probability_seconds: f64,
    /// Number of result tuples.
    pub result_tuples: usize,
}

impl TpchRow {
    /// Format as a table row.
    pub fn cells(&self) -> Vec<String> {
        vec![
            self.query.clone(),
            format!("{}", self.scale_factor),
            format!("{:.4}", self.deterministic_seconds),
            format!("{:.4}", self.rewrite_seconds),
            format!("{:.4}", self.probability_seconds),
            format!("{}", self.result_tuples),
        ]
    }
}

/// Header of the Experiment F table.
pub const TPCH_HEADER: [&str; 6] = ["query", "sf", "Q0_s", "rewrite_s", "prob_s", "tuples"];

/// **Experiment F** (Figure 11): TPC-H-like queries Q1 and Q2 at increasing scale
/// factors; per query, measure the deterministic run (`Q0`), expression construction
/// (`⟦·⟧`) and probability computation (`P(·)`).
pub fn experiment_f(scale: Scale) -> Vec<TpchRow> {
    let full = scale.is_full();
    let q1_sfs: Vec<f64> = if full {
        vec![0.05, 0.1, 0.25, 0.5, 1.0, 2.0]
    } else {
        vec![0.05, 0.1, 0.25, 0.5, 1.0]
    };
    let q2_sfs: Vec<f64> = if full {
        vec![0.25, 0.5, 1.0, 2.0, 4.0]
    } else {
        vec![0.25, 0.5, 1.0, 2.0]
    };
    let mut rows = Vec::new();
    for (name, sfs) in [("Q1", q1_sfs), ("Q2", q2_sfs)] {
        for &sf in &sfs {
            let config = TpchConfig {
                scale_factor: sf,
                ..TpchConfig::default()
            };
            let db = generate(&config);
            let query = match name {
                "Q1" => pvc_tpch::q1(1_800),
                _ => pvc_tpch::q2("ASIA", 25),
            };
            // Q0: run the relational part on the deterministic copy.
            let det_db = deterministic_copy(&db);
            let start = std::time::Instant::now();
            let det_result = try_evaluate(&det_db, &query).expect("deterministic run evaluates");
            let deterministic_seconds = start.elapsed().as_secs_f64();

            // ⟦·⟧ and P(·) on the probabilistic database.
            let result = Engine::execute_once(&db, &query, &EvalOptions::default())
                .expect("probabilistic run evaluates");
            rows.push(TpchRow {
                query: name.to_string(),
                scale_factor: sf,
                deterministic_seconds,
                rewrite_seconds: result.rewrite_time.as_secs_f64(),
                probability_seconds: result.probability_time.as_secs_f64(),
                result_tuples: det_result.len().max(result.tuples.len()),
            });
        }
    }
    rows
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn scale_from_env_defaults_to_quick() {
        std::env::remove_var("PVC_BENCH_FULL");
        assert_eq!(Scale::from_env(), Scale::Quick);
    }

    #[test]
    fn single_sweep_point_runs() {
        let params = ExprGenParams {
            left_terms: 10,
            num_vars: 8,
            agg_left: AggOp::Min,
            theta: CmpOp::Le,
            constant: 100,
            ..ExprGenParams::default()
        };
        let m = sweep_point(params, 2);
        assert_eq!(m.runs, 2);
        assert!(m.mean_seconds >= 0.0);
    }

    #[test]
    fn experiment_f_smallest_point_runs() {
        let config = TpchConfig {
            scale_factor: 0.005,
            ..TpchConfig::default()
        };
        let db = generate(&config);
        let result = Engine::execute_once(&db, &pvc_tpch::q1(1_800), &EvalOptions::default())
            .expect("Q1 evaluates");
        assert!(!result.tuples.is_empty());
        for t in &result.tuples {
            assert!(t.confidence > 0.0 && t.confidence <= 1.0 + 1e-9);
        }
    }
}
