//! `benchmark-compare <set A> <set B>` — compares two sets of result
//! files (directories, searched recursively for the `*.json` the
//! benchmark writes) and prints, per workload × end-to-end metric, each
//! side's median and quartiles and a verdict under the bounds of
//! `BENCHMARK.json`:
//!
//! * `unresolved` — either side's quartile spread is wider than the
//!   bound (unless every run of B beats every run of A: `better`);
//! * `worse` — B's median is worse than A's by more than the bound;
//! * `better` — B wins nine tenths of the paired runs and the medians
//!   differ by more than A's own quartile spread;
//! * `same` — otherwise.
//!
//! Counts and digests that must repeat exactly for a seed are compared
//! for equality over every run of both sets. Exits 1 on any `worse`,
//! `unresolved`, exact mismatch or incorrect run.
//!
//! `benchmark-compare --summarize <set>` prints the set's medians and
//! quartiles as JSON (the format of `benchmark/baseline.json`).

use std::collections::BTreeMap;
use std::path::{Path, PathBuf};
use std::process::ExitCode;

use parallax_benchmark::report::StoredResult;
use parallax_benchmark::spec::{MetricDecl, Spec};
use parallax_benchmark::stats::quartiles;

/// Results of one set, by `(workload, traced)`, in file-name order.
type Set = BTreeMap<(String, bool), Vec<StoredResult>>;

fn collect(dir: &Path, files: &mut Vec<PathBuf>) -> Result<(), String> {
    let entries = std::fs::read_dir(dir).map_err(|e| format!("{}: {e}", dir.display()))?;
    for entry in entries {
        let path = entry.map_err(|e| e.to_string())?.path();
        if path.is_dir() {
            collect(&path, files)?;
        } else if path.to_string_lossy().ends_with(".json")
            && !path.to_string_lossy().ends_with(".trace.json")
        {
            files.push(path);
        }
    }
    Ok(())
}

fn load(dir: &str) -> Result<Set, String> {
    let mut files = Vec::new();
    collect(Path::new(dir), &mut files)?;
    files.sort();
    let mut set = Set::new();
    for path in files {
        let text =
            std::fs::read_to_string(&path).map_err(|e| format!("{}: {e}", path.display()))?;
        match StoredResult::parse(&text) {
            Ok(result) => set
                .entry((result.workload.clone(), result.traced))
                .or_default()
                .push(result),
            Err(why) => eprintln!("skipping {}: {why}", path.display()),
        }
    }
    if set.is_empty() {
        return Err(format!("{dir}: no result files"));
    }
    Ok(set)
}

fn values(results: &[StoredResult], metric: &str) -> Vec<f64> {
    results
        .iter()
        .filter_map(|r| r.metrics.get(metric).copied())
        .collect()
}

/// Whether `b` is better than `a` for this metric.
fn beats(decl: &MetricDecl, b: f64, a: f64) -> bool {
    if decl.higher_is_better {
        b > a
    } else {
        b < a
    }
}

fn verdict(decl: &MetricDecl, a: &[f64], b: &[f64]) -> Option<(String, &'static str)> {
    let (q1a, ma, q3a) = quartiles(a)?;
    let (q1b, mb, q3b) = quartiles(b)?;
    let bound = decl.bound?;
    let spread = ((q3a - q1a) / ma.abs()).max((q3b - q1b) / mb.abs());
    let change = (mb - ma) / ma.abs();
    let worse_by = if decl.higher_is_better {
        -change
    } else {
        change
    };
    let sweep = b.iter().all(|&y| a.iter().all(|&x| beats(decl, y, x)));
    let pairs = a.iter().zip(b);
    let (wins, losses) = pairs.fold((0, 0), |(w, l), (&x, &y)| {
        (
            w + usize::from(beats(decl, y, x)),
            l + usize::from(beats(decl, x, y)),
        )
    });
    let verdict = if spread > bound {
        if sweep {
            "better"
        } else {
            "unresolved"
        }
    } else if worse_by > bound {
        "worse"
    } else if wins * 10 >= (wins + losses) * 9 && wins > 0 && (mb - ma).abs() > q3a - q1a {
        "better"
    } else {
        "same"
    };
    let row = format!(
        "{ma:>12.4} [{q1a:>11.4} ..{q3a:>11.4}]  {mb:>12.4} [{q1b:>11.4} ..{q3b:>11.4}]  {:>+7.2}%  {:>5.1}%",
        change * 100.0,
        bound * 100.0
    );
    Some((row, verdict))
}

/// Exact values that differ between runs of the same workload, mode and
/// seed, over both sets.
fn exact_mismatches(sets: [&Set; 2]) -> Vec<String> {
    let mut seen: BTreeMap<(String, bool, String, String), u64> = BTreeMap::new();
    let mut out = Vec::new();
    for results in sets.iter().flat_map(|set| set.values()).flatten() {
        let seed = results
            .fingerprint
            .split_whitespace()
            .find(|f| f.starts_with("seed="))
            .unwrap_or("seed=?")
            .to_string();
        for (name, &value) in &results.exact {
            let key = (
                results.workload.clone(),
                results.traced,
                seed.clone(),
                name.clone(),
            );
            let first = *seen.entry(key).or_insert(value);
            if first != value {
                out.push(format!(
                    "{} (traced={}, {seed}): {name} = {first} in one run, {value} in another",
                    results.workload, results.traced
                ));
            }
        }
    }
    out
}

fn compare(spec: &Spec, a: &Set, b: &Set) -> bool {
    let mut ok = true;
    println!(
        "{:<14} {:<16} {:>12} [{:>11} ..{:>11}]  {:>12} [{:>11} ..{:>11}]  {:>8}  {:>6}  verdict",
        "workload", "metric", "A median", "q1", "q3", "B median", "q1", "q3", "change", "bound"
    );
    for workload in &spec.workloads {
        let key = (workload.clone(), false);
        let (Some(ra), Some(rb)) = (a.get(&key), b.get(&key)) else {
            println!("{workload:<14} missing from one set");
            ok = false;
            continue;
        };
        for decl in &spec.end_to_end {
            match verdict(decl, &values(ra, &decl.name), &values(rb, &decl.name)) {
                Some((row, verdict)) => {
                    println!("{workload:<14} {:<16} {row}  {verdict}", decl.name);
                    ok &= matches!(verdict, "same" | "better");
                }
                None => {
                    println!("{workload:<14} {:<16} needs two runs per side", decl.name);
                    ok = false;
                }
            }
        }
    }
    for results in a.values().chain(b.values()).flatten() {
        if !results.correct || results.failed > 0 {
            println!(
                "incorrect run: {} traced={} failed={} ({})",
                results.workload, results.traced, results.failed, results.fingerprint
            );
            ok = false;
        }
    }
    let mismatches = exact_mismatches([a, b]);
    for line in &mismatches {
        println!("exact mismatch: {line}");
    }
    if mismatches.is_empty() {
        println!("exact counts and digests: identical for every workload, mode and seed");
    }
    ok && mismatches.is_empty()
}

fn summarize(spec: &Spec, set: &Set) {
    // The first run's fingerprint without its seed: a set spans seeds.
    let fingerprint = set.values().flatten().next().map_or(String::new(), |r| {
        let fields = r.fingerprint.split_whitespace();
        let kept: Vec<&str> = fields.filter(|f| !f.starts_with("seed=")).collect();
        kept.join(" ")
    });
    println!(
        "{{\n \"fingerprint\": \"{}\",",
        fingerprint.replace('"', "'")
    );
    println!(" \"workloads\": {{");
    for (wi, workload) in spec.workloads.iter().enumerate() {
        let runs = set
            .get(&(workload.clone(), false))
            .map_or(&[][..], Vec::as_slice);
        println!("  \"{workload}\": {{\"runs\": {},", runs.len());
        for (mi, decl) in spec.end_to_end.iter().enumerate() {
            let (q1, median, q3) = quartiles(&values(runs, &decl.name)).unwrap_or((0.0, 0.0, 0.0));
            let comma = if mi + 1 < spec.end_to_end.len() {
                ","
            } else {
                ""
            };
            println!(
                "   \"{}\": {{\"median\": {median}, \"q1\": {q1}, \"q3\": {q3}, \"unit\": \"{}\"}}{comma}",
                decl.name, decl.unit
            );
        }
        println!(
            "  }}{}",
            if wi + 1 < spec.workloads.len() {
                ","
            } else {
                ""
            }
        );
    }
    println!(" }}\n}}");
}

fn main() -> ExitCode {
    let args: Vec<String> = std::env::args().skip(1).collect();
    let run = || -> Result<bool, String> {
        let spec = Spec::load()?;
        match args
            .iter()
            .map(String::as_str)
            .collect::<Vec<_>>()
            .as_slice()
        {
            ["--summarize", dir] => {
                summarize(&spec, &load(dir)?);
                Ok(true)
            }
            [a, b] => Ok(compare(&spec, &load(a)?, &load(b)?)),
            _ => Err("usage: benchmark-compare <set A> <set B> | --summarize <set>".to_string()),
        }
    };
    match run() {
        Ok(true) => ExitCode::SUCCESS,
        Ok(false) => ExitCode::from(1),
        Err(why) => {
            eprintln!("benchmark-compare: {why}");
            ExitCode::from(2)
        }
    }
}
