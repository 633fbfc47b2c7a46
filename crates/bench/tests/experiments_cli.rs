//! The `experiments` binary exercised as a subprocess: `all` at a tiny
//! scale prints at least one table for every registry entry and exits 0
//! (the run that would have caught Table 3 indexing its eight paper
//! constants with nine scenes), `list` is the registry, and an unknown
//! name or a malformed `--scale` / `--frames` value exits 2 saying why.

use std::process::{Command, Output};

use parallax_bench::experiments::EXPERIMENTS;

fn experiments(args: &[&str]) -> Output {
    Command::new(env!("CARGO_BIN_EXE_experiments"))
        .args(["--scale", "0.05", "--frames", "1"])
        .args(args)
        .output()
        .expect("run experiments")
}

fn stdout_of(out: &Output) -> String {
    String::from_utf8_lossy(&out.stdout).into_owned()
}

fn stderr_of(out: &Output) -> String {
    String::from_utf8_lossy(&out.stderr).into_owned()
}

#[test]
fn all_prints_a_table_for_every_registry_entry() {
    let out = experiments(&["all"]);
    assert!(out.status.success(), "all failed: {}", stderr_of(&out));
    let stdout = stdout_of(&out);
    let mut sections = stdout.split("\n##### ");
    let header = sections.next().expect("a header line");
    assert!(
        header.starts_with("experiments: scale 0.05, 1 measured frame(s), engine threads=1,simd="),
        "{header}"
    );
    for e in EXPERIMENTS {
        let section = sections
            .next()
            .unwrap_or_else(|| panic!("{} never ran", e.name));
        assert!(
            section.starts_with(&format!("{} #####\n", e.name)),
            "expected {} next, got: {}",
            e.name,
            section.lines().next().unwrap_or("")
        );
        assert!(section.contains("\n== "), "{} printed no table", e.name);
        // The post-paper scene stays out of the paper's figures.
        assert!(
            !section.lines().any(|l| l.trim_start().starts_with("Res")),
            "{} printed a Resting row",
            e.name
        );
    }
    assert!(sections.next().is_none(), "more sections than entries");
    assert!(stdout.ends_with("All experiments completed.\n"));
}

#[test]
fn list_is_the_registry() {
    let out = experiments(&["list"]);
    assert!(out.status.success());
    let stdout = stdout_of(&out);
    let listed: Vec<&str> = stdout
        .lines()
        .map(|l| l.split_whitespace().next().expect("a name per line"))
        .collect();
    let registry: Vec<&str> = EXPERIMENTS.iter().map(|e| e.name).collect();
    assert_eq!(listed, registry);
}

#[test]
fn unknown_name_exits_2_listing_the_valid_ones() {
    let out = experiments(&["fig2a_breakdown", "fig99_nope"]);
    assert_eq!(out.status.code(), Some(2));
    assert!(
        stdout_of(&out).is_empty(),
        "nothing may run before the check"
    );
    let stderr = stderr_of(&out);
    assert!(stderr.contains("fig99_nope"), "{stderr}");
    for e in EXPERIMENTS {
        assert!(stderr.contains(e.name), "{} not listed: {stderr}", e.name);
    }
}

#[test]
fn malformed_flag_value_exits_2_naming_flag_and_value() {
    for (flag, value) in [("--scale", "abc"), ("--frames", "x")] {
        let out = experiments(&[flag, value, "kernel_storage"]);
        assert_eq!(out.status.code(), Some(2), "{flag} {value}");
        let stderr = stderr_of(&out);
        assert!(stderr.contains(flag) && stderr.contains(value), "{stderr}");
        assert!(stdout_of(&out).is_empty(), "{flag} {value} still ran");
    }
}
