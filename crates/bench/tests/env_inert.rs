//! The environment is inert: nothing below a `main` reads it, so the
//! variables that used to choose the SIMD width, sleeping, digests, the
//! scale, the window, a planted slowdown and a telemetry path change
//! nothing. `table4_specs` prints counts only, so two runs of one build
//! are byte-identical unless something listened.
//!
//! This file's table of retired names is the one exemption of the
//! `scripts/verify.sh` guard against environment reads.

use std::process::{Command, Output};

const RETIRED: [(&str, &str); 7] = [
    ("PARALLAX_SLEEP", "1"),
    ("PARALLAX_SIMD", "0"),
    ("PARALLAX_DIGEST", "1"),
    ("PARALLAX_SCALE", "0.3"),
    ("PARALLAX_FRAMES", "2"),
    ("PARALLAX_PHASE_SLOW", "Broadphase:50000000"),
    ("PARALLAX_TELEMETRY", "/nonexistent/x"),
];

fn table4(vars: &[(&str, &str)]) -> Output {
    let mut cmd = Command::new(env!("CARGO_BIN_EXE_experiments"));
    cmd.args(["--scale", "0.05", "--frames", "1", "table4_specs"]);
    for (name, _) in RETIRED {
        cmd.env_remove(name);
    }
    cmd.envs(vars.iter().copied())
        .output()
        .expect("run experiments")
}

#[test]
fn retired_variables_change_nothing() {
    let clean = table4(&[]);
    let hostile = table4(&RETIRED);
    for out in [&clean, &hostile] {
        assert!(
            out.status.success(),
            "{}",
            String::from_utf8_lossy(&out.stderr)
        );
    }
    assert!(
        String::from_utf8_lossy(&clean.stdout).contains("== Table 4"),
        "the run printed its table"
    );
    assert!(
        clean.stdout == hostile.stdout,
        "the environment reached the run:\n--- clean\n{}\n--- with retired variables\n{}",
        String::from_utf8_lossy(&clean.stdout),
        String::from_utf8_lossy(&hostile.stdout)
    );
    assert!(hostile.stderr.is_empty(), "and nobody warned about them");
}
