//! The declarations in `BENCHMARK.json`: which workloads exist and
//! which metrics a run must print, with their units and bounds.

use std::path::{Path, PathBuf};

use parallax_telemetry::json::Json;

/// One declared metric.
#[derive(Debug, Clone, PartialEq)]
pub struct MetricDecl {
    /// Metric name as printed.
    pub name: String,
    /// Unit as printed.
    pub unit: String,
    /// `true` when a higher value is better.
    pub higher_is_better: bool,
    /// Share of the parent's median by which the metric may worsen
    /// (end-to-end metrics only).
    pub bound: Option<f64>,
}

/// Parsed `BENCHMARK.json`.
#[derive(Debug, Clone)]
pub struct Spec {
    /// Declared workload names, in order.
    pub workloads: Vec<String>,
    /// Seconds one run measures by default.
    pub run_seconds: u64,
    /// Metrics printed by an untraced run.
    pub end_to_end: Vec<MetricDecl>,
    /// Metrics printed by a traced run.
    pub per_layer: Vec<MetricDecl>,
}

fn metric_list(doc: &Json, key: &str) -> Result<Vec<MetricDecl>, String> {
    let items = doc
        .get(key)
        .and_then(Json::as_arr)
        .ok_or_else(|| format!("BENCHMARK.json: no {key} array"))?;
    items
        .iter()
        .map(|item| {
            let text = |field: &str| {
                item.get(field)
                    .and_then(Json::as_str)
                    .map(str::to_string)
                    .ok_or_else(|| format!("BENCHMARK.json: {key} entry lacks {field}"))
            };
            let better = text("better")?;
            Ok(MetricDecl {
                name: text("name")?,
                unit: text("unit")?,
                higher_is_better: match better.as_str() {
                    "higher" => true,
                    "lower" => false,
                    other => return Err(format!("BENCHMARK.json: better = {other:?}")),
                },
                bound: item.get("bound").and_then(Json::as_f64),
            })
        })
        .collect()
}

impl Spec {
    /// Parses the text of a `BENCHMARK.json`.
    pub fn parse(text: &str) -> Result<Spec, String> {
        let doc = Json::parse(text).map_err(|e| format!("BENCHMARK.json: {e}"))?;
        let workloads = doc
            .get("workloads")
            .and_then(Json::as_arr)
            .ok_or("BENCHMARK.json: no workloads array")?
            .iter()
            .map(|w| {
                w.get("name")
                    .and_then(Json::as_str)
                    .map(str::to_string)
                    .ok_or("BENCHMARK.json: workload without a name".to_string())
            })
            .collect::<Result<Vec<_>, _>>()?;
        Ok(Spec {
            workloads,
            run_seconds: doc
                .get("run_seconds")
                .and_then(Json::as_u64)
                .ok_or("BENCHMARK.json: no run_seconds")?,
            end_to_end: metric_list(&doc, "end_to_end")?,
            per_layer: metric_list(&doc, "per_layer")?,
        })
    }

    /// Where `BENCHMARK.json` is: the working directory when the
    /// benchmark is run from the repository root (as `run.sh` and the
    /// contract's command do), else beside this package.
    pub fn path() -> PathBuf {
        let here = Path::new("BENCHMARK.json");
        if here.is_file() {
            here.to_path_buf()
        } else {
            Path::new(env!("CARGO_MANIFEST_DIR")).join("../BENCHMARK.json")
        }
    }

    /// Loads the repository's `BENCHMARK.json`.
    pub fn load() -> Result<Spec, String> {
        let path = Spec::path();
        let text =
            std::fs::read_to_string(&path).map_err(|e| format!("{}: {e}", path.display()))?;
        Spec::parse(&text)
    }

    /// The declared metrics of an untraced (`false`) or traced run.
    pub fn metrics(&self, traced: bool) -> &[MetricDecl] {
        if traced {
            &self.per_layer
        } else {
            &self.end_to_end
        }
    }
}
