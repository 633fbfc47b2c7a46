//! What one run produced, and how it is printed and stored.

use std::collections::BTreeMap;
use std::fmt::Write as _;

use parallax_telemetry::json::{write_str, Json};

use crate::spec::MetricDecl;

/// Result of one workload run (traced or not).
#[derive(Debug, Default, Clone)]
pub struct Outcome {
    /// Operations attempted: steps, requests or design points.
    pub attempted: u64,
    /// Operations that failed their check.
    pub failed: u64,
    /// Measured metrics by declared name.
    pub metrics: BTreeMap<String, f64>,
    /// Counts and digests that must repeat exactly for a seed (scene and
    /// architecture workloads; fleet counts follow the wall clock).
    pub exact: BTreeMap<String, u64>,
    /// Undeclared numbers kept in the result file only: sample counts,
    /// the percentile actually used, self time per layer.
    pub info: BTreeMap<String, f64>,
    /// Why the run is not correct, if it is not.
    pub problems: Vec<String>,
}

impl Outcome {
    /// Records a metric.
    pub fn set(&mut self, name: &str, value: f64) {
        self.metrics.insert(name.to_string(), value);
    }

    /// Records a number for the result file only.
    pub fn note(&mut self, name: &str, value: f64) {
        self.info.insert(name.to_string(), value);
    }

    /// Records a count that must repeat exactly, as metric and as exact
    /// value.
    pub fn set_exact(&mut self, name: &str, value: u64) {
        self.exact.insert(name.to_string(), value);
        self.set(name, value as f64);
    }

    /// Adds operations and failures, with the reason when any failed.
    pub fn check(&mut self, attempted: u64, failed: u64, what: &str) {
        self.attempted += attempted;
        self.failed += failed;
        if failed > 0 {
            self.problems
                .push(format!("{failed} of {attempted} {what}"));
        }
    }
}

/// Where and on what a run was made; stored in every result file.
#[derive(Debug, Clone)]
pub struct Fingerprint {
    /// Commit (`BENCH_COMMIT`, set by `run.sh` from git when it can).
    pub commit: String,
    /// Hardware threads available to the process.
    pub nproc: usize,
    /// CPU model name.
    pub cpu_model: String,
    /// SIMD mode the engine resolved to.
    pub simd: String,
    /// Workload seed.
    pub seed: u64,
}

impl Fingerprint {
    /// Collects the fingerprint of this process.
    pub fn collect(seed: u64) -> Fingerprint {
        Fingerprint {
            commit: std::env::var("BENCH_COMMIT").unwrap_or_else(|_| "unknown".to_string()),
            nproc: std::thread::available_parallelism().map_or(1, |n| n.get()),
            cpu_model: crate::procfs::cpu_model(),
            simd: parallax_physics::SimdMode::resolve().name().to_string(),
            seed,
        }
    }

    fn write_json(&self, out: &mut String) {
        out.push_str("{\"commit\":");
        write_str(out, &self.commit);
        let _ = write!(out, ",\"nproc\":{},\"cpu_model\":", self.nproc);
        write_str(out, &self.cpu_model);
        out.push_str(",\"simd\":");
        write_str(out, &self.simd);
        let _ = write!(out, ",\"seed\":{}}}", self.seed);
    }
}

/// The declared metrics with the run's values. A declared metric the
/// run did not measure is an error for an untraced run (every workload
/// reports every end-to-end metric); a traced run reports `0` for a
/// layer the workload never calls — no work done, no time busy.
pub fn declared_values(
    outcome: &Outcome,
    declared: &[MetricDecl],
    traced: bool,
) -> Result<Vec<(MetricDecl, f64)>, String> {
    for name in outcome.metrics.keys() {
        if !declared.iter().any(|d| &d.name == name) {
            return Err(format!("metric {name} is not declared in BENCHMARK.json"));
        }
    }
    declared
        .iter()
        .map(|decl| {
            let value = match outcome.metrics.get(&decl.name) {
                Some(&v) => v,
                None if traced => 0.0,
                None => return Err(format!("declared metric {} was not measured", decl.name)),
            };
            if value.is_finite() {
                Ok((decl.clone(), value))
            } else {
                Err(format!("metric {} is not finite: {value}", decl.name))
            }
        })
        .collect()
}

fn write_metrics(out: &mut String, values: &[(MetricDecl, f64)]) {
    out.push('{');
    for (i, (decl, value)) in values.iter().enumerate() {
        if i > 0 {
            out.push(',');
        }
        write_str(out, &decl.name);
        let _ = write!(out, ":{{\"value\":{value},\"unit\":");
        write_str(out, &decl.unit);
        out.push('}');
    }
    out.push('}');
}

/// The one-line JSON object a run ends its standard output with.
pub fn final_line(outcome: &Outcome, correct: bool, values: &[(MetricDecl, f64)]) -> String {
    let mut out = String::with_capacity(256 + values.len() * 64);
    let _ = write!(
        out,
        "{{\"correct\":{correct},\"attempted\":{},\"failed\":{},\"metrics\":",
        outcome.attempted.max(1),
        outcome.failed
    );
    write_metrics(&mut out, values);
    out.push('}');
    out
}

fn write_map<V: std::fmt::Display>(out: &mut String, map: &BTreeMap<String, V>) {
    out.push('{');
    for (i, (key, value)) in map.iter().enumerate() {
        if i > 0 {
            out.push(',');
        }
        write_str(out, key);
        let _ = write!(out, ":{value}");
    }
    out.push('}');
}

/// The result file of a run: the final line's content plus fingerprint,
/// exact counts and notes. `benchmark-compare` reads these.
pub fn result_file(
    workload: &str,
    traced: bool,
    seconds: f64,
    fingerprint: &Fingerprint,
    outcome: &Outcome,
    correct: bool,
    values: &[(MetricDecl, f64)],
) -> String {
    let mut out = String::with_capacity(4096);
    out.push_str("{\"workload\":");
    write_str(&mut out, workload);
    let _ = write!(
        out,
        ",\"traced\":{traced},\"seconds\":{seconds},\"fingerprint\":"
    );
    fingerprint.write_json(&mut out);
    let _ = write!(
        out,
        ",\"correct\":{correct},\"attempted\":{},\"failed\":{},\"failed_share\":{},\"problems\":[",
        outcome.attempted,
        outcome.failed,
        outcome.failed as f64 / outcome.attempted.max(1) as f64
    );
    for (i, problem) in outcome.problems.iter().enumerate() {
        if i > 0 {
            out.push(',');
        }
        write_str(&mut out, problem);
    }
    out.push_str("],\"metrics\":");
    write_metrics(&mut out, values);
    out.push_str(",\"exact\":");
    // Digests exceed 2^53, so exact values are stored as strings.
    let quoted: BTreeMap<String, String> = outcome
        .exact
        .iter()
        .map(|(k, v)| (k.clone(), format!("\"{v}\"")))
        .collect();
    write_map(&mut out, &quoted);
    out.push_str(",\"info\":");
    let finite: BTreeMap<String, f64> = outcome
        .info
        .iter()
        .filter(|(_, v)| v.is_finite())
        .map(|(k, v)| (k.clone(), *v))
        .collect();
    write_map(&mut out, &finite);
    out.push_str("}\n");
    out
}

/// A result file read back by `benchmark-compare`.
#[derive(Debug, Clone)]
pub struct StoredResult {
    /// Workload name.
    pub workload: String,
    /// Whether the run was traced.
    pub traced: bool,
    /// Whether the run's outputs were correct.
    pub correct: bool,
    /// Failed operations.
    pub failed: u64,
    /// Metric values by name.
    pub metrics: BTreeMap<String, f64>,
    /// Exact counts and digests by name.
    pub exact: BTreeMap<String, u64>,
    /// The fingerprint object, as JSON text.
    pub fingerprint: String,
}

impl StoredResult {
    /// Parses the text of a result file.
    pub fn parse(text: &str) -> Result<StoredResult, String> {
        let doc = Json::parse(text)?;
        let members = |key: &str| match doc.get(key) {
            Some(Json::Obj(members)) => Ok(members.as_slice()),
            _ => Err(format!("result file has no {key} object")),
        };
        let mut metrics = BTreeMap::new();
        for (name, entry) in members("metrics")? {
            let value = entry
                .get("value")
                .and_then(Json::as_f64)
                .ok_or_else(|| format!("metric {name} has no value"))?;
            metrics.insert(name.clone(), value);
        }
        let mut exact = BTreeMap::new();
        for (name, entry) in members("exact")? {
            let value = entry
                .as_str()
                .and_then(|s| s.parse::<u64>().ok())
                .ok_or_else(|| format!("exact value {name} is not an integer string"))?;
            exact.insert(name.clone(), value);
        }
        let mut fingerprint = String::new();
        if let Some(Json::Obj(fields)) = doc.get("fingerprint") {
            for (key, value) in fields {
                let rendered = match value {
                    Json::Str(s) => s.clone(),
                    Json::Num(n) => n.to_string(),
                    other => format!("{other:?}"),
                };
                let _ = write!(fingerprint, "{key}={rendered} ");
            }
        }
        Ok(StoredResult {
            workload: doc
                .get("workload")
                .and_then(Json::as_str)
                .ok_or("result file has no workload")?
                .to_string(),
            traced: matches!(doc.get("traced"), Some(Json::Bool(true))),
            correct: matches!(doc.get("correct"), Some(Json::Bool(true))),
            failed: doc.get("failed").and_then(Json::as_u64).unwrap_or(0),
            metrics,
            exact,
            fingerprint: fingerprint.trim_end().to_string(),
        })
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    fn decl(name: &str) -> MetricDecl {
        MetricDecl {
            name: name.to_string(),
            unit: "ms".to_string(),
            higher_is_better: false,
            bound: Some(0.1),
        }
    }

    #[test]
    fn final_line_has_exactly_the_contract_keys() {
        let mut outcome = Outcome::default();
        outcome.check(10, 0, "steps");
        outcome.set("latency_ms_p50", 1.25);
        let values = declared_values(&outcome, &[decl("latency_ms_p50")], false).expect("values");
        let line = final_line(&outcome, true, &values);
        let json = Json::parse(&line).expect("valid JSON");
        let Json::Obj(members) = &json else {
            panic!("not an object")
        };
        let keys: Vec<&str> = members.iter().map(|(k, _)| k.as_str()).collect();
        assert_eq!(keys, ["correct", "attempted", "failed", "metrics"]);
        let metric = json
            .get("metrics")
            .and_then(|m| m.get("latency_ms_p50"))
            .expect("metric");
        assert_eq!(metric.get("value").and_then(Json::as_f64), Some(1.25));
        assert_eq!(metric.get("unit").and_then(Json::as_str), Some("ms"));
    }

    #[test]
    fn undeclared_missing_and_non_finite_metrics_are_refused() {
        let mut outcome = Outcome::default();
        outcome.set("a", 1.0);
        assert!(declared_values(&outcome, &[decl("b")], false).is_err());
        assert!(declared_values(&outcome, &[decl("a"), decl("b")], false).is_err());
        // A traced run reports an uncalled layer as idle.
        let traced = declared_values(&outcome, &[decl("a"), decl("b")], true).expect("traced");
        assert_eq!(traced[1].1, 0.0);
        outcome.set("a", f64::NAN);
        assert!(declared_values(&outcome, &[decl("a")], true).is_err());
    }

    #[test]
    fn result_file_round_trips() {
        let mut outcome = Outcome::default();
        outcome.check(5, 1, "steps");
        outcome.set("a", 2.5);
        outcome.set_exact("physics.world_digest", u64::MAX);
        outcome.metrics.remove("physics.world_digest");
        outcome.note("samples", 200.0);
        let values = declared_values(&outcome, &[decl("a")], false).expect("values");
        let fingerprint = Fingerprint {
            commit: "abc".to_string(),
            nproc: 2,
            cpu_model: "cpu \"x\"".to_string(),
            simd: "avx2".to_string(),
            seed: 7,
        };
        let text = result_file(
            "scene_static",
            false,
            10.0,
            &fingerprint,
            &outcome,
            false,
            &values,
        );
        let stored = StoredResult::parse(&text).expect("parses");
        assert_eq!(stored.workload, "scene_static");
        assert!(!stored.traced && !stored.correct);
        assert_eq!(stored.failed, 1);
        assert_eq!(stored.metrics["a"], 2.5);
        assert_eq!(stored.exact["physics.world_digest"], u64::MAX);
        assert!(stored.fingerprint.contains("seed=7"));
    }
}
