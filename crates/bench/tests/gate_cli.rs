//! `bench_gate` exercised as a subprocess, the way CI and developers
//! run it: record a scene baseline, compare an identical build (exit 0),
//! compare a build slowed with `--inject-delay` (exit 1, stderr names the
//! scene and phase), refuse flags a gate does not take (exit 2), and
//! refuse — exit 2, naming why and the re-record command — a baseline
//! that is missing, of an older schema, or from another machine.

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
    let args = ["--steps", "8", "--warmup", "2", "--quick"];

    let rec = bench_gate()
        .args(["scenes", "record", "--scale", "0.05"])
        .args(["--baseline", path.to_str().unwrap()])
        .args(args)
        .output()
        .expect("run bench_gate record");
    assert!(rec.status.success(), "record failed: {}", stderr_of(&rec));
    let doc = std::fs::read_to_string(&path).expect("baseline written");
    assert!(doc.contains("\"schema_version\": 3"), "{doc}");
    assert!(doc.contains("\"gate\": \"scenes\""), "{doc}");

    let same = bench_gate()
        .args(["scenes", "compare"])
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
        .args(["scenes", "compare"])
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
        .args(["scenes", "compare"])
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
    // Each bad command line, and what its error must name.
    for (bad, named) in [
        (&["scenes", "compare", "--threads", "2"][..], "--threads"),
        (&["scenes", "compare", "--simd", "scalar"], "--simd"),
        (&["scenes", "compare", "--sleep", "on"], "--sleep"),
        (&["scenes", "compare", "--config", "cores=4"], "--config"),
        (
            &["scenes", "compare", "--inject-delay", "Broadphase"],
            "--inject-delay",
        ),
        (&["scenes", "compare", "--threshold", "0.5"], "--threshold"),
        (
            &["scenes", "compare", "--allow-missing-baseline"],
            "--allow-missing-baseline",
        ),
        (
            &["scenes", "record", "--inject-delay", "Broadphase:1"],
            "--inject-delay",
        ),
        (&["server", "record", "--sessions", "10"], "--sessions"),
        (&["server", "compare", "--steps", "10"], "--steps"),
        (&["digest", "--baseline", "x.json"], "--baseline"),
        (&["scenes", "replay"], "replay"),
        (&["compare"], "compare"),
    ] {
        let out = bench_gate().args(bad).output().expect("run bench_gate");
        let err = stderr_of(&out);
        assert_eq!(out.status.code(), Some(2), "{bad:?}: {err}");
        assert!(err.contains(named), "{bad:?}: {named} not named: {err}");
    }
}

/// Runs `bench_gate <gate> compare --quick` against a baseline file
/// holding `doc`, and returns its exit code and stderr.
fn compare_against(gate: &str, name: &str, doc: &str) -> (Option<i32>, String) {
    let path = scratch(name);
    std::fs::write(&path, doc).expect("write baseline");
    let out = bench_gate()
        .args([gate, "compare", "--quick", "--baseline"])
        .arg(&path)
        .output()
        .expect("run bench_gate compare");
    let _ = std::fs::remove_file(&path);
    (out.status.code(), stderr_of(&out))
}

#[test]
fn missing_baseline_exits_2_naming_the_record_command() {
    for gate in ["scenes", "server"] {
        let path = scratch("does_not_exist.json");
        let out = bench_gate()
            .args([gate, "compare", "--quick", "--baseline"])
            .arg(&path)
            .output()
            .expect("run bench_gate compare");
        let err = stderr_of(&out);
        assert_eq!(out.status.code(), Some(2), "{err}");
        let command = format!("bench_gate {gate} record --baseline {}", path.display());
        assert!(err.contains(&command), "{err}");
    }
}

#[test]
fn a_foreign_fingerprint_exits_2_and_names_the_field() {
    // A baseline recorded on a machine with another hardware-thread
    // count: the probe factors out host speed, not the machine's shape.
    let threads = std::thread::available_parallelism().map_or(1, |n| n.get());
    let doc = format!(
        "{{\"schema_version\": 3, \"gate\": \"scenes\", \"fingerprint\": {{\"os\": \"{}\", \
         \"arch\": \"{}\", \"hw_threads\": {}}}, \"probe_ns\": 400000, \"config\": {{\"steps\": 4, \
         \"warmup\": 1, \"scale\": 0.05, \"run\": \"threads=1\"}}, \"scenes\": []}}",
        std::env::consts::OS,
        std::env::consts::ARCH,
        threads + 1
    );
    let (code, err) = compare_against("scenes", "foreign.json", &doc);
    assert_eq!(code, Some(2), "{err}");
    let field = format!(
        "hw_threads: {} in the baseline vs {threads} here",
        threads + 1
    );
    assert!(err.contains(&field), "{err}");
    assert!(err.contains("bench_gate scenes record --baseline"), "{err}");
}

#[test]
fn an_older_schema_exits_2_and_names_the_record_command() {
    let fingerprint = "{\"os\": \"linux\", \"arch\": \"x86_64\", \"hw_threads\": 2}";
    let scenes_v2 = format!(
        "{{\"schema_version\": 2, \"experiment\": \"scene_gate\", \"fingerprint\": {fingerprint}, \
         \"config\": {{\"steps\": 40, \"warmup\": 8, \"scale\": 0.2, \"threshold\": 0.35, \
         \"run\": \"threads=1\"}}, \"scenes\": []}}"
    );
    let server_v1 = format!(
        "{{\"schema_version\": 1, \"experiment\": \"server_gate\", \"fingerprint\": {fingerprint}, \
         \"cells\": []}}"
    );
    for (gate, doc, schema) in [("scenes", scenes_v2, "v2"), ("server", server_v1, "v1")] {
        let (code, err) = compare_against(gate, &format!("old_{gate}.json"), &doc);
        assert_eq!(code, Some(2), "{err}");
        assert!(err.contains(&format!("schema {schema}")), "{err}");
        assert!(
            err.contains(&format!("bench_gate {gate} record --baseline")),
            "{err}"
        );
    }
    // A baseline of the other gate is refused the same way.
    let scenes_v3 = "{\"schema_version\": 3, \"gate\": \"scenes\"}";
    let (code, err) = compare_against("server", "other_gate.json", scenes_v3);
    assert_eq!(code, Some(2), "{err}");
    assert!(err.contains("\"scenes\" baseline"), "{err}");
}
