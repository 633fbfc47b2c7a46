//! The regression gates behind `bench_gate`: one envelope, one baseline
//! reader and writer, one loader, one verdict table for every wall time
//! this repository defends.
//!
//! | gate | measures | baseline |
//! |---|---|---|
//! | [`scenes`] | per-step, per-phase walls of every paper scene | `BENCH_scenes.json` |
//! | [`server`] | request latency and sustain of a settled 60 Hz fleet | `BENCH_server.json` |
//! | `digest` | the flight recorder's digests, digests-on minus -off per step | a budget ([`scenes::DIGEST_BUDGET_NS_PER_BODY_STEP`]) |
//!
//! A baseline ([`Baseline`]) is a schema-versioned JSON document: the
//! machine [`Fingerprint`], the speed of the reference kernel on the
//! recording host ([`Probe`]), the gate's configuration and its raw
//! samples. Every sample is stored at the fixed reference speed: the
//! probe is timed beside each block of samples, and the block is scaled
//! by `REFERENCE_PROBE_NS / probe wall`, the walls smoothed over
//! neighbouring blocks ([`smoothed_speeds`]), so a host that runs a
//! quarter slower this minute does not read as a regression. Keeping raw samples
//! is what lets `compare` bootstrap a confidence interval instead of
//! eyeballing two medians; a row regresses only when the *entire*
//! interval of the relative median change clears the threshold and the
//! median grew by more than [`MIN_REGRESSION_NS`].
//!
//! `compare` refuses — [`EXIT_REFUSED`] — a baseline it cannot read, one
//! of another schema or gate, and one recorded on a machine with another
//! fingerprint: the reference speed factors out how fast a host runs,
//! not how many threads it has, so such numbers cannot be compared.
//!
//! [`Probe`]: parallax_telemetry::stats::Probe
//! [`smoothed_speeds`]: parallax_telemetry::stats::smoothed_speeds

pub mod scenes;
pub mod server;

use parallax_telemetry::json::Json;
use parallax_telemetry::stats::{compare, BootstrapConfig, Comparison, Verdict};

use crate::print_table;

/// Version of the baseline layout; `compare` refuses any other.
pub const SCHEMA_VERSION: u64 = 3;

/// Exit code: every row within its threshold or budget.
pub const EXIT_PASS: i32 = 0;
/// Exit code: a row slower than its threshold, over its budget, or a
/// fleet below its sustain floor.
pub const EXIT_SLOWER: i32 = 1;
/// Exit code: bad usage, or a baseline that is missing, unreadable, of
/// another schema or gate, or recorded on a machine of another
/// fingerprint.
pub const EXIT_REFUSED: i32 = 2;

/// Absolute median increase (nanoseconds, at the reference speed) a
/// change must also exceed to count either way. A phase that does no
/// work in a scene measures in the hundreds of nanoseconds, where
/// scheduler jitter routinely doubles the median — statistically
/// significant, practically meaningless. Any change worth gating on
/// dwarfs this.
pub const MIN_REGRESSION_NS: f64 = 10_000.0;

/// The machine a baseline was recorded on.
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct Fingerprint {
    /// Operating system (`std::env::consts::OS`).
    pub os: String,
    /// CPU architecture (`std::env::consts::ARCH`).
    pub arch: String,
    /// Hardware threads available to the process.
    pub hw_threads: usize,
}

impl Fingerprint {
    /// Fingerprint of the running machine.
    pub fn current() -> Fingerprint {
        Fingerprint {
            os: std::env::consts::OS.to_string(),
            arch: std::env::consts::ARCH.to_string(),
            hw_threads: std::thread::available_parallelism().map_or(1, |n| n.get()),
        }
    }

    /// The first field in which `self` (a baseline's) differs from
    /// `here`, as `field: baseline vs here`.
    pub fn differs_from(&self, here: &Fingerprint) -> Option<String> {
        let fields = [
            ("os", self.os.clone(), here.os.clone()),
            ("arch", self.arch.clone(), here.arch.clone()),
            (
                "hw_threads",
                self.hw_threads.to_string(),
                here.hw_threads.to_string(),
            ),
        ];
        fields
            .into_iter()
            .find(|(_, ours, theirs)| ours != theirs)
            .map(|(field, ours, theirs)| {
                format!("{field}: {ours} in the baseline vs {theirs} here")
            })
    }

    fn to_json(&self) -> Json {
        Json::obj([
            ("os", self.os.as_str().into()),
            ("arch", self.arch.as_str().into()),
            ("hw_threads", self.hw_threads.into()),
        ])
    }

    fn from_json(v: &Json) -> Result<Fingerprint, String> {
        Ok(Fingerprint {
            os: field_str(v, "os")?,
            arch: field_str(v, "arch")?,
            hw_threads: field_u64(v, "hw_threads")? as usize,
        })
    }
}

/// One gate's configuration and samples: what a baseline holds beside
/// the envelope.
pub trait Gate: Sized {
    /// The gate's name: the first word of its command line and the
    /// baseline's `"gate"` field.
    const NAME: &'static str;
    /// The baseline file `record` writes and `compare` reads by default.
    const PATH: &'static str;
    /// The `config` and sample members of the baseline document.
    fn to_json(&self) -> Vec<(&'static str, Json)>;
    /// Reads them back from the whole document.
    fn from_json(doc: &Json) -> Result<Self, String>;
}

/// A recorded baseline: envelope plus one gate's configuration and
/// samples.
#[derive(Debug, Clone)]
pub struct Baseline<G> {
    /// Machine the samples were taken on.
    pub fingerprint: Fingerprint,
    /// Median wall of the reference kernel over the recording,
    /// nanoseconds: how fast the recording host ran. The samples are
    /// already at the reference speed; this is for the reader.
    pub probe_ns: f64,
    /// The gate's configuration and samples.
    pub gate: G,
}

impl<G: Gate> Baseline<G> {
    /// A baseline of this machine.
    pub fn new(gate: G, probe_ns: f64) -> Baseline<G> {
        Baseline {
            fingerprint: Fingerprint::current(),
            probe_ns,
            gate,
        }
    }

    /// The baseline document.
    pub fn to_json(&self) -> Json {
        let mut members = vec![
            ("schema_version", Json::from(SCHEMA_VERSION as usize)),
            ("gate", G::NAME.into()),
            ("fingerprint", self.fingerprint.to_json()),
            ("probe_ns", self.probe_ns.round().into()),
        ];
        members.extend(self.gate.to_json());
        Json::obj(members)
    }

    /// Parses a baseline document, validating schema and gate (not the
    /// fingerprint: [`Baseline::load`] does that).
    pub fn from_json(src: &str) -> Result<Baseline<G>, String> {
        let v = Json::parse(src)?;
        let schema = field_u64(&v, "schema_version")?;
        if schema != SCHEMA_VERSION {
            return Err(format!(
                "baseline schema v{schema}, but this build reads v{SCHEMA_VERSION}"
            ));
        }
        let gate = field_str(&v, "gate")?;
        if gate != G::NAME {
            return Err(format!("a {gate:?} baseline, not a {:?} one", G::NAME));
        }
        Ok(Baseline {
            fingerprint: Fingerprint::from_json(
                v.get("fingerprint").ok_or("missing fingerprint")?,
            )?,
            probe_ns: field_f64(&v, "probe_ns")?,
            gate: G::from_json(&v)?,
        })
    }

    /// Writes the baseline to `path`.
    pub fn save(&self, path: &str) -> Result<(), String> {
        std::fs::write(path, self.to_json().render())
            .map_err(|e| format!("cannot write {path}: {e}"))
    }

    /// Reads the baseline `compare` gates against. An `Err` is the
    /// refusal to print before exiting [`EXIT_REFUSED`]: it names what is
    /// wrong and the command that records a baseline this build and
    /// machine can compare with.
    pub fn load(path: &str) -> Result<Baseline<G>, String> {
        let refuse = |why: String| {
            format!(
                "{path}: {why}; re-record it with `bench_gate {} record --baseline {path}`",
                G::NAME
            )
        };
        let src = std::fs::read_to_string(path).map_err(|e| refuse(e.to_string()))?;
        let base = Baseline::from_json(&src).map_err(refuse)?;
        match base.fingerprint.differs_from(&Fingerprint::current()) {
            Some(field) => Err(refuse(format!("recorded on another machine ({field})"))),
            None => Ok(base),
        }
    }
}

/// One row of the verdict table: what was compared, and how it came out.
#[derive(Debug, Clone)]
pub struct Row {
    /// The scene and phase, or the cell and metric.
    pub what: String,
    /// The statistical comparison (baseline vs fresh samples).
    pub cmp: Comparison,
}

impl Row {
    /// `true` when this row is a regression at the gate's threshold.
    pub fn is_regression(&self) -> bool {
        self.cmp.verdict == Verdict::Slower
    }
}

/// Compares fresh samples with a baseline's under the gate's rules: a
/// bootstrap verdict at `threshold` ([`compare`]), kept only when the
/// median also moved by more than [`MIN_REGRESSION_NS`]. `None` when
/// either side has no sample.
pub fn judge(what: String, base: &[f64], fresh: &[f64], threshold: f64) -> Option<Row> {
    let mut cmp = compare(base, fresh, threshold, &BootstrapConfig::default())?;
    if (cmp.cand_median - cmp.base_median).abs() < MIN_REGRESSION_NS {
        cmp.verdict = Verdict::Indistinguishable;
    }
    Some(Row { what, cmp })
}

/// Prints the verdict table and a line per regression, and returns the
/// exit code: [`EXIT_SLOWER`] when any row regressed.
pub fn report(title: &str, rows: &[Row], threshold: f64) -> i32 {
    let table: Vec<Vec<String>> = rows
        .iter()
        .map(|r| {
            vec![
                r.what.clone(),
                format!("{:.3}", r.cmp.base_median / 1e6),
                format!("{:.3}", r.cmp.cand_median / 1e6),
                format!("{:+.0}%", r.cmp.rel_change * 100.0),
                format!("[{:+.0}%, {:+.0}%]", r.cmp.ci.0 * 100.0, r.cmp.ci.1 * 100.0),
                r.cmp.verdict.label().to_string(),
            ]
        })
        .collect();
    print_table(
        title,
        &["What", "Base ms", "Now ms", "Change", "95% CI", "Verdict"],
        &table,
    );
    let regressions: Vec<&Row> = rows.iter().filter(|r| r.is_regression()).collect();
    for r in &regressions {
        eprintln!(
            "REGRESSION: {}: median {:.3} ms -> {:.3} ms ({:+.0}%, 95% CI [{:+.0}%, {:+.0}%] \
             beyond +{:.0}%)",
            r.what,
            r.cmp.base_median / 1e6,
            r.cmp.cand_median / 1e6,
            r.cmp.rel_change * 100.0,
            r.cmp.ci.0 * 100.0,
            r.cmp.ci.1 * 100.0,
            threshold * 100.0
        );
    }
    if regressions.is_empty() {
        println!(
            "\ngate passed: nothing slower than the baseline beyond +{:.0}%",
            threshold * 100.0
        );
        EXIT_PASS
    } else {
        eprintln!(
            "\ngate FAILED: {} of {} row(s) slower beyond +{:.0}%",
            regressions.len(),
            rows.len(),
            threshold * 100.0
        );
        EXIT_SLOWER
    }
}

fn field_u64(v: &Json, key: &str) -> Result<u64, String> {
    v.get(key)
        .and_then(Json::as_u64)
        .ok_or_else(|| format!("missing or non-integer field {key:?}"))
}

fn field_f64(v: &Json, key: &str) -> Result<f64, String> {
    v.get(key)
        .and_then(Json::as_f64)
        .ok_or_else(|| format!("missing or non-numeric field {key:?}"))
}

fn field_str(v: &Json, key: &str) -> Result<String, String> {
    v.get(key)
        .and_then(Json::as_str)
        .map(str::to_string)
        .ok_or_else(|| format!("missing or non-string field {key:?}"))
}

fn field_nums(v: &Json, key: &str) -> Result<Vec<f64>, String> {
    v.get(key)
        .and_then(Json::as_nums)
        .ok_or_else(|| format!("missing or non-numeric array {key:?}"))
}

/// Samples as stored: whole nanoseconds.
fn whole_ns(xs: &[f64]) -> Json {
    Json::nums(&xs.iter().map(|x| x.round()).collect::<Vec<_>>())
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn fingerprints_name_the_first_differing_field() {
        let here = Fingerprint::current();
        assert_eq!(here.differs_from(&here), None);
        let other = Fingerprint {
            hw_threads: here.hw_threads + 1,
            ..here.clone()
        };
        let why = other.differs_from(&here).expect("differs");
        assert!(why.starts_with("hw_threads: "), "{why}");
        let other = Fingerprint {
            arch: "riscv64".into(),
            ..other
        };
        assert!(other
            .differs_from(&here)
            .unwrap()
            .starts_with("arch: riscv64"));
    }

    #[test]
    fn judge_needs_both_the_interval_and_the_absolute_floor() {
        let base: Vec<f64> = (0..40).map(|i| 20_000.0 + (i % 7) as f64 * 100.0).collect();
        let double: Vec<f64> = base.iter().map(|x| 2.0 * x).collect();
        let half: Vec<f64> = base.iter().map(|x| 0.5 * x).collect();
        let row = |fresh: &[f64], t| judge("x".into(), &base, fresh, t).unwrap().cmp.verdict;
        assert_eq!(row(&double, 0.5), Verdict::Slower);
        assert_eq!(row(&half, 0.5), Verdict::Faster);
        assert_eq!(row(&base, 0.5), Verdict::Indistinguishable);
        // A doubling of a 2 µs phase is 2 µs: under the floor.
        let tiny: Vec<f64> = base.iter().map(|x| x / 10.0).collect();
        let tiny2: Vec<f64> = tiny.iter().map(|x| 2.0 * x).collect();
        let v = judge("x".into(), &tiny, &tiny2, 0.5).unwrap();
        assert_eq!(v.cmp.verdict, Verdict::Indistinguishable);
        assert!(judge("x".into(), &[], &base, 0.5).is_none());
    }
}
