//! `bench_gate` exercised as a subprocess, the way CI and developers
//! run it: record a baseline, compare an identical build (exit 0),
//! compare a build slowed with `--inject-delay` (exit 1, stderr names the
//! scene and phase), refuse the per-axis flags `--config` replaced, and
//! pass with a warning when no baseline exists and
//! `--allow-missing-baseline` is given.

use std::path::PathBuf;
use std::process::{Command, Output};

fn bench_gate() -> Command {
    Command::new(env!("CARGO_BIN_EXE_bench_gate"))
}

fn scratch(name: &str) -> PathBuf {
    let dir = std::env::temp_dir().join(format!("parallax_gate_cli_{}", std::process::id()));
    std::fs::create_dir_all(&dir).expect("scratch dir");
    dir.join(name)
}

fn stderr_of(out: &Output) -> String {
    String::from_utf8_lossy(&out.stderr).into_owned()
}

#[test]
fn record_compare_and_injected_slowdown() {
    let path = scratch("BENCH_scenes.json");
    let args = [
        "--steps", "8", "--warmup", "2", "--scale", "0.05", "--quick",
    ];

    let rec = bench_gate()
        .arg("record")
        .args(["--out", path.to_str().unwrap()])
        .args(args)
        .output()
        .expect("run bench_gate record");
    assert!(rec.status.success(), "record failed: {}", stderr_of(&rec));
    let doc = std::fs::read_to_string(&path).expect("baseline written");
    assert!(doc.contains("\"schema_version\""), "{doc}");

    let same = bench_gate()
        .arg("compare")
        .args(["--baseline", path.to_str().unwrap()])
        .args(args)
        .output()
        .expect("run bench_gate compare");
    assert!(
        same.status.success(),
        "identical build failed the gate: {}",
        stderr_of(&same)
    );

    let slowed = bench_gate()
        .arg("compare")
        .args(["--baseline", path.to_str().unwrap()])
        .args(args)
        .args(["--inject-delay", "Broadphase:10000000"])
        .output()
        .expect("run slowed bench_gate compare");
    assert_eq!(
        slowed.status.code(),
        Some(1),
        "slowed build passed the gate: {}",
        stderr_of(&slowed)
    );
    let err = stderr_of(&slowed);
    assert!(err.contains("REGRESSION"), "{err}");
    assert!(err.contains("Broadphase"), "{err}");
    assert!(
        err.contains("Periodic") || err.contains("Mix") || err.contains("Ragdoll"),
        "no scene named: {err}"
    );

    // A --config that changes the recorded configuration is an A/B:
    // both sides named, both re-measured, no gate against the past.
    let ab = bench_gate()
        .arg("compare")
        .args(["--baseline", path.to_str().unwrap()])
        .args(args)
        .args(["--config", "sleep=on"])
        .output()
        .expect("run bench_gate compare --config");
    assert!(ab.status.success(), "A/B failed: {}", stderr_of(&ab));
    let out = String::from_utf8_lossy(&ab.stdout).into_owned();
    let header = out
        .lines()
        .find(|l| l.starts_with("A("))
        .unwrap_or_else(|| panic!("no A/B header: {out}"));
    assert!(
        header.contains("sleep=off") && header.contains(") vs B(") && header.contains("sleep=on"),
        "{header}"
    );

    let _ = std::fs::remove_file(&path);
}

#[test]
fn replaced_flags_and_bad_specs_exit_2() {
    for bad in [
        &["--threads", "2"][..],
        &["--simd", "scalar"],
        &["--sleep", "on"],
        &["--config", "cores=4"],
        &["--inject-delay", "Broadphase"],
    ] {
        let out = bench_gate()
            .arg("compare")
            .args(bad)
            .output()
            .expect("run bench_gate compare");
        assert_eq!(out.status.code(), Some(2), "{bad:?}: {}", stderr_of(&out));
        assert!(stderr_of(&out).contains(bad[0]), "{bad:?} not named");
    }
}

#[test]
fn missing_baseline_is_tolerated_only_when_asked() {
    let path = scratch("does_not_exist.json");
    let strict = bench_gate()
        .arg("compare")
        .args(["--baseline", path.to_str().unwrap(), "--quick"])
        .output()
        .expect("run bench_gate compare");
    assert_eq!(strict.status.code(), Some(2), "{}", stderr_of(&strict));

    let tolerant = bench_gate()
        .arg("compare")
        .args([
            "--baseline",
            path.to_str().unwrap(),
            "--quick",
            "--allow-missing-baseline",
        ])
        .output()
        .expect("run tolerant bench_gate compare");
    assert!(tolerant.status.success(), "{}", stderr_of(&tolerant));
    assert!(
        stderr_of(&tolerant).contains("no baseline"),
        "warned about it"
    );
}
