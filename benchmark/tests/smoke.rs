//! Every workload at 1/20 size, untraced and traced: the names a run
//! emits must be the names `BENCHMARK.json` declares, well-formed, with
//! finite values, and no operation may fail.
//!
//! One test function on purpose: the runs toggle the process-global
//! telemetry switch and load both cores, so they must not overlap.

use std::collections::BTreeSet;
use std::path::{Path, PathBuf};
use std::process::Command;

use parallax_benchmark::spec::Spec;
use parallax_benchmark::{run_workload, RunOpts, Workload};

/// Builds the real `serve` binary next to this test's own artifacts
/// (same target directory and profile) and returns its path.
fn serve_bin() -> PathBuf {
    let exe = std::env::current_exe().expect("test executable path");
    // <target>/<profile>/deps/smoke-<hash>
    let profile_dir = exe.ancestors().nth(2).expect("profile directory");
    let target_dir = profile_dir.parent().expect("target directory");
    let root = Path::new(env!("CARGO_MANIFEST_DIR")).join("..");
    let mut cargo = Command::new(std::env::var("CARGO").unwrap_or_else(|_| "cargo".to_string()));
    cargo
        .current_dir(&root)
        .args([
            "build",
            "--offline",
            "-p",
            "parallax-server",
            "--bin",
            "serve",
        ])
        .arg("--target-dir")
        .arg(target_dir);
    if !cfg!(debug_assertions) {
        cargo.arg("--release");
    }
    let status = cargo.status().expect("cargo runs");
    assert!(status.success(), "building serve failed");
    let bin = profile_dir.join("serve");
    assert!(bin.is_file(), "{} was not built", bin.display());
    bin
}

fn well_formed(name: &str) -> bool {
    !name.is_empty()
        && name
            .chars()
            .all(|c| c.is_ascii_alphanumeric() || matches!(c, '_' | '.' | '-'))
}

#[test]
fn every_workload_emits_exactly_the_declared_metrics() {
    let spec = Spec::load().expect("BENCHMARK.json loads");
    let declared_workloads: Vec<&str> = spec.workloads.iter().map(String::as_str).collect();
    let known: Vec<&str> = Workload::ALL.iter().map(|w| w.name()).collect();
    assert_eq!(
        declared_workloads, known,
        "declared workloads = implemented workloads"
    );

    let end_to_end: BTreeSet<&str> = spec.end_to_end.iter().map(|d| d.name.as_str()).collect();
    let per_layer: BTreeSet<&str> = spec.per_layer.iter().map(|d| d.name.as_str()).collect();
    assert!(end_to_end.contains("setup_s"));
    for name in end_to_end.iter().chain(&per_layer) {
        assert!(well_formed(name), "malformed metric name {name:?}");
    }

    let serve = serve_bin();
    let mut traced_union = BTreeSet::new();
    for workload in Workload::ALL {
        for traced in [false, true] {
            let opts = RunOpts {
                seed: 5,
                seconds: 1.0,
                traced,
                size_div: 20,
                serve_bin: serve.clone(),
            };
            let (outcome, recorders) = run_workload(workload, &opts)
                .unwrap_or_else(|why| panic!("{} traced={traced}: {why}", workload.name()));
            let label = format!("{} traced={traced}", workload.name());
            assert_eq!(outcome.failed, 0, "{label}: {:?}", outcome.problems);
            assert!(outcome.attempted > 0, "{label}: nothing attempted");
            for (name, value) in &outcome.metrics {
                assert!(value.is_finite(), "{label}: {name} = {value}");
            }
            let emitted: BTreeSet<&str> = outcome.metrics.keys().map(String::as_str).collect();
            if traced {
                let undeclared: Vec<_> = emitted.difference(&per_layer).collect();
                assert!(undeclared.is_empty(), "{label}: undeclared {undeclared:?}");
                assert!(
                    emitted.contains("proc.trace_overhead_share"),
                    "{label}: no tracing overhead reported"
                );
                assert!(
                    recorders.iter().any(|r| !r.spans().is_empty()),
                    "{label}: a traced run recorded no span"
                );
                traced_union.extend(emitted.iter().map(|n| n.to_string()));
            } else {
                assert_eq!(emitted, end_to_end, "{label}");
                assert!(recorders.iter().all(|r| r.spans().is_empty()));
            }
        }
    }
    let union: BTreeSet<&str> = traced_union.iter().map(String::as_str).collect();
    assert_eq!(
        union, per_layer,
        "every declared per-layer metric is measured by some workload"
    );
}
