//! The benchmark's declaration, read from the repository's `BENCHMARK.json`
//! (compiled in, so the binary and the declaration cannot drift apart): which
//! workloads exist, which metrics each run must report, their units, their
//! directions and the regression bounds the repeat mode checks against.

use pvc_bench::json::Json;
use std::sync::OnceLock;

const BENCHMARK_JSON: &str = include_str!("../../../../../BENCHMARK.json");

/// One declared metric.
#[derive(Debug, Clone)]
pub struct MetricDef {
    pub name: String,
    pub unit: String,
    pub higher_is_better: bool,
    /// Share of the median by which the metric may worsen (end-to-end only).
    pub bound: Option<f64>,
}

/// The parsed declaration.
#[derive(Debug)]
pub struct Catalog {
    pub run_seconds: f64,
    pub workloads: Vec<String>,
    pub end_to_end: Vec<MetricDef>,
    pub per_layer: Vec<MetricDef>,
}

impl Catalog {
    /// The metrics a run reports: per-layer ones when traced, end-to-end otherwise.
    pub fn reported(&self, trace: bool) -> &[MetricDef] {
        if trace {
            &self.per_layer
        } else {
            &self.end_to_end
        }
    }
}

fn metric_defs(doc: &Json, key: &str) -> Vec<MetricDef> {
    let field = |m: &Json, k: &str| {
        m.get(k)
            .and_then(Json::as_str)
            .unwrap_or_else(|| panic!("BENCHMARK.json: {key} entry without `{k}`"))
            .to_string()
    };
    doc.get(key)
        .and_then(Json::as_array)
        .unwrap_or_else(|| panic!("BENCHMARK.json: missing `{key}`"))
        .iter()
        .map(|m| MetricDef {
            name: field(m, "name"),
            unit: field(m, "unit"),
            higher_is_better: field(m, "better") == "higher",
            bound: m.get("bound").and_then(Json::as_f64),
        })
        .collect()
}

/// The declaration compiled into this binary.
pub fn catalog() -> &'static Catalog {
    static CATALOG: OnceLock<Catalog> = OnceLock::new();
    CATALOG.get_or_init(|| {
        let doc = Json::parse(BENCHMARK_JSON).expect("BENCHMARK.json parses");
        Catalog {
            run_seconds: doc
                .get("run_seconds")
                .and_then(Json::as_f64)
                .expect("BENCHMARK.json: run_seconds"),
            workloads: doc
                .get("workloads")
                .and_then(Json::as_array)
                .expect("BENCHMARK.json: workloads")
                .iter()
                .map(|w| {
                    w.get("name")
                        .and_then(Json::as_str)
                        .expect("BENCHMARK.json: workload name")
                        .to_string()
                })
                .collect(),
            end_to_end: metric_defs(&doc, "end_to_end"),
            per_layer: metric_defs(&doc, "per_layer"),
        }
    })
}

#[cfg(test)]
mod tests {
    use super::*;

    fn valid_name(name: &str) -> bool {
        let mut chars = name.chars();
        chars.next().is_some_and(|c| c.is_ascii_alphanumeric())
            && name.len() <= 64
            && chars.all(|c| c.is_ascii_alphanumeric() || "_.-".contains(c))
    }

    #[test]
    fn declaration_obeys_the_contract_limits() {
        let c = catalog();
        assert!((1.0..=60.0).contains(&c.run_seconds) && c.run_seconds.fract() == 0.0);
        assert!((2..=8).contains(&c.workloads.len()));
        assert!((1..=16).contains(&c.end_to_end.len()));
        assert!((1..=128).contains(&c.per_layer.len()));
        let mut names: Vec<&str> = c
            .workloads
            .iter()
            .map(String::as_str)
            .chain(c.end_to_end.iter().map(|m| m.name.as_str()))
            .chain(c.per_layer.iter().map(|m| m.name.as_str()))
            .collect();
        assert!(names.iter().all(|n| valid_name(n)), "{names:?}");
        let total = names.len();
        names.sort_unstable();
        names.dedup();
        assert_eq!(names.len(), total, "a name is used twice");
        for m in &c.end_to_end {
            let bound = m.bound.expect("every end-to-end metric has a bound");
            assert!(bound > 0.0 && bound <= 0.25, "{}: bound {bound}", m.name);
        }
        assert!(c.per_layer.iter().all(|m| m.bound.is_none()));
        let setup = c.end_to_end.iter().find(|m| m.name == "setup_s").unwrap();
        assert!(setup.unit == "s" && !setup.higher_is_better);
    }
}
