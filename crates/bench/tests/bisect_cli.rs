//! `bisect` exercised as a subprocess: a horizon or chunk size of zero —
//! either would only be noticed after the whole scan — and the spellings
//! `--a/--b` do not know are refused by the flag parse (exit 2, before any
//! stepping). `scripts/verify.sh` drives the localization itself.

use std::process::{Command, Output};

fn bisect(args: &[&str]) -> Output {
    Command::new(env!("CARGO_BIN_EXE_bisect"))
        .args(["--scene", "Periodic", "--scale", "0.05"])
        .args(args)
        .output()
        .expect("run bisect")
}

#[test]
fn zero_steps_zero_chunk_and_unknown_keys_exit_2_before_running() {
    for (args, names) in [
        (&["--steps", "0"][..], "--steps"),
        (
            &["--steps", "12", "--chunk", "0", "--fault", "5:Narrowphase"],
            "--chunk",
        ),
        (&["--a", "cores=4"], "\"cores\""),
        (&["--a", "broadphase=sap"], "\"broadphase\""),
        (&["--b", "threads=0"], "--b"),
        (&["--threads", "2"], "--threads"),
    ] {
        let out = bisect(args);
        let stderr = String::from_utf8_lossy(&out.stderr);
        assert_eq!(out.status.code(), Some(2), "{args:?}: {stderr}");
        assert!(stderr.contains(names), "{args:?}: {stderr}");
        assert!(out.stdout.is_empty(), "{args:?} ran before the check");
    }
}
