//! `--repeat K`: run the whole set K times (run `i` with seed `seed + i`, as
//! the acceptance procedure varies the seed between runs), and print per
//! end-to-end metric × workload the median, the quartiles, the relative
//! inter-quartile spread, and whether the two halves of the runs agree within
//! the metric's bound in `BENCHMARK.json`. This is how the bounds were chosen
//! and how the repeatability criterion is checked.

use crate::catalog::catalog;
use crate::child;
use crate::stats::{median, quartiles, relative_spread};
use pvc_bench::json::Json;
use std::collections::BTreeMap;
use std::process::ExitCode;

/// By how much the second median is worse than the first, as a share of the
/// first (negative when it is better).
fn worsening(first: f64, second: f64, higher_is_better: bool) -> f64 {
    if higher_is_better {
        (first - second) / first
    } else {
        (second - first) / first
    }
}

pub fn run(k: usize, seed: u64, seconds: f64) -> ExitCode {
    let c = catalog();
    // values[workload][metric] = one value per run.
    let mut values: BTreeMap<&str, BTreeMap<&str, Vec<f64>>> = BTreeMap::new();
    let mut ok = true;
    for i in 0..k {
        for name in &c.workloads {
            let run_seed = seed + i as u64;
            let Some(line) = child(name, run_seed, seconds, false, true) else {
                eprintln!("pvc_e2e: run {i} of {name} (seed {run_seed}) failed");
                ok = false;
                continue;
            };
            let doc = Json::parse(&line).expect("the result line is JSON");
            for def in &c.end_to_end {
                let value = doc
                    .get("metrics")
                    .and_then(|m| m.get(&def.name))
                    .and_then(|m| m.get("value"))
                    .and_then(Json::as_f64)
                    .expect("every end-to-end metric is in the result line");
                values
                    .entry(name.as_str())
                    .or_default()
                    .entry(def.name.as_str())
                    .or_default()
                    .push(value);
            }
            println!("run {}/{k} {name} seed {run_seed}: done", i + 1);
        }
    }

    println!(
        "{:<13} {:<14} {:>12} {:>12} {:>12} {:>8} {:>8} {:>7}  verdict",
        "workload", "metric", "q1", "median", "q3", "spread", "2nd-half", "bound"
    );
    for name in &c.workloads {
        for def in &c.end_to_end {
            let Some(v) = values
                .get(name.as_str())
                .and_then(|m| m.get(def.name.as_str()))
            else {
                continue;
            };
            if v.len() < 4 {
                continue;
            }
            let bound = def.bound.expect("end-to-end metrics have bounds");
            let [q1, q2, q3] = quartiles(v);
            let spread = relative_spread(v);
            let (first, second) = v.split_at(v.len() / 2);
            let halves = worsening(median(first), median(second), def.higher_is_better);
            // Set-up time is judged on its medians only; everything else
            // must also keep its spread within the bound.
            let steady = def.name == "setup_s" || spread <= bound;
            let verdict = match (steady, halves <= bound) {
                (true, true) if spread <= bound / 3.0 || def.name == "setup_s" => "ok",
                (true, true) => "ok (spread above a third of the bound)",
                (false, _) => "SPREAD EXCEEDS BOUND",
                (_, false) => "SECOND HALF WORSE THAN BOUND",
            };
            ok &= steady && halves <= bound;
            println!(
                "{name:<13} {:<14} {q1:>12.4} {q2:>12.4} {q3:>12.4} {spread:>8.4} {halves:>8.4} {bound:>7.3}  {verdict}",
                def.name
            );
        }
    }
    if ok {
        ExitCode::SUCCESS
    } else {
        ExitCode::FAILURE
    }
}

#[cfg(test)]
mod tests {
    use super::worsening;

    #[test]
    fn worsening_follows_the_metric_direction() {
        // A latency going from 10 to 11 got 10 % worse; a rate got better.
        assert!((worsening(10.0, 11.0, false) - 0.1).abs() < 1e-12);
        assert!((worsening(10.0, 11.0, true) + 0.1).abs() < 1e-12);
        assert!((worsening(10.0, 9.0, true) - 0.1).abs() < 1e-12);
        assert_eq!(worsening(3.0, 3.0, false), 0.0);
    }
}
