//! The `bench_gate` regression harness: record a per-scene, per-phase
//! wall-time baseline, compare a fresh run against it, and turn the
//! difference into verdicts with the robust statistics in
//! `parallax_telemetry::stats`.
//!
//! A baseline ([`Baseline`]) is a schema-versioned JSON document
//! (`BENCH_scenes.json` at the repo root) holding, for every paper
//! scene, the raw per-step wall-time samples of each pipeline phase plus
//! the telemetry counter deltas of the measured window, under an
//! envelope that records the machine [`Fingerprint`] and the
//! [`GateConfig`] it was recorded with. Keeping the raw samples (not
//! just summaries) is what lets `compare` bootstrap a confidence
//! interval instead of eyeballing two medians.
//!
//! The comparison is deliberately conservative: a scene×phase pair is a
//! regression only when the *entire* bootstrap confidence interval of
//! the relative median change clears the threshold — on a noisy
//! container this trades detection latency for a near-zero false-alarm
//! rate, which is what a CI gate needs.

use std::fmt::Write as _;

use parallax_physics::PhaseKind;
use parallax_telemetry::json::{write_str, Json};
use parallax_telemetry::stats::{
    bootstrap_median_ci, compare, median, BootstrapConfig, Comparison, Verdict,
};
use parallax_workloads::{BenchmarkId, RunConfig};

/// Version of the baseline JSON layout. Bump on any incompatible change;
/// `compare` refuses to read a mismatched file rather than mis-parse it.
pub const SCHEMA_VERSION: u64 = 2;

/// The `"experiment"` tag of scene-gate baselines.
pub const EXPERIMENT: &str = "scene_gate";

/// How a baseline is recorded and compared.
#[derive(Debug, Clone)]
pub struct GateConfig {
    /// Measured steps per scene (after warm-up).
    pub steps: usize,
    /// Warm-up steps stepped but not recorded.
    pub warmup: usize,
    /// Scene scale (fraction of paper scale).
    pub scale: f32,
    /// Relative median-change threshold a regression must clear
    /// (0.35 = 35% slower).
    pub threshold: f64,
    /// The engine configuration the samples are taken under. Part of the
    /// envelope (as its `Display` string) so a baseline is only ever
    /// gated against a run of the same configuration; `bench_gate
    /// compare --config` on top of it is an explicit A/B instead.
    pub run: RunConfig,
    /// Scenes measured, in order.
    pub scenes: Vec<BenchmarkId>,
}

impl Default for GateConfig {
    fn default() -> Self {
        GateConfig {
            steps: 40,
            warmup: 8,
            scale: 0.2,
            threshold: 0.35,
            run: RunConfig::default(),
            scenes: BenchmarkId::ALL.to_vec(),
        }
    }
}

impl GateConfig {
    /// The CI smoke variant: few steps, a threshold so wide (+100%)
    /// that only a catastrophic slowdown trips it. Never *narrows* an
    /// explicitly requested threshold.
    pub fn quick(mut self) -> GateConfig {
        self.steps = 10;
        self.warmup = 3;
        self.threshold = self.threshold.max(1.0);
        self
    }
}

/// The machine a baseline was recorded on. Compared runs on a different
/// fingerprint still gate (the statistics absorb speed differences only
/// if they are uniform), but the mismatch is surfaced as a warning.
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
            hw_threads: std::thread::available_parallelism()
                .map(|n| n.get())
                .unwrap_or(1),
        }
    }

    /// The fingerprint as a JSON object (shared envelope across
    /// `BENCH_scenes.json` and `BENCH_server.json`).
    pub fn to_json(&self) -> String {
        let mut s = String::from("{\"os\": ");
        write_str(&mut s, &self.os);
        s.push_str(", \"arch\": ");
        write_str(&mut s, &self.arch);
        let _ = write!(s, ", \"hw_threads\": {}}}", self.hw_threads);
        s
    }

    /// Warns on stderr when this fingerprint — a baseline's — is not the
    /// running machine's: the gate still runs (the statistics absorb a
    /// uniform speed difference), but absolute times are not comparable.
    pub fn warn_unless_current(&self) {
        let here = Fingerprint::current();
        if here != *self {
            eprintln!(
                "warning: baseline was recorded on {}/{} with {} hw thread(s); this host is \
                 {}/{} with {} — absolute times are not comparable across machines, only \
                 uniform relative changes",
                self.os, self.arch, self.hw_threads, here.os, here.arch, here.hw_threads
            );
        }
    }

    pub(crate) fn from_json(v: &Json) -> Result<Fingerprint, String> {
        Ok(Fingerprint {
            os: field_str(v, "os")?,
            arch: field_str(v, "arch")?,
            hw_threads: field_u64(v, "hw_threads")? as usize,
        })
    }
}

/// Measured samples for one scene.
#[derive(Debug, Clone)]
pub struct SceneSamples {
    /// Scene name (`BenchmarkId::name`).
    pub scene: String,
    /// Bodies enabled at the end of the window.
    pub bodies: usize,
    /// Per-phase wall-time samples in nanoseconds, [`PhaseKind::ALL`]
    /// order, one entry per measured step.
    pub phase_wall_ns: [Vec<f64>; 5],
    /// Telemetry counter deltas over the measured window.
    pub counters: Vec<(String, u64)>,
}

impl SceneSamples {
    /// Whole-step wall time of every recorded step: the five phase walls
    /// summed.
    pub fn step_totals(&self) -> Vec<f64> {
        let n = self.phase_wall_ns.iter().map(Vec::len).min().unwrap_or(0);
        (0..n)
            .map(|s| self.phase_wall_ns.iter().map(|p| p[s]).sum())
            .collect()
    }
}

/// A recorded baseline: envelope + per-scene samples.
#[derive(Debug, Clone)]
pub struct Baseline {
    /// Layout version ([`SCHEMA_VERSION`]).
    pub schema_version: u64,
    /// Machine the samples were taken on.
    pub fingerprint: Fingerprint,
    /// Recording configuration.
    pub config: GateConfig,
    /// One entry per measured scene.
    pub scenes: Vec<SceneSamples>,
}

/// Runs every scene in `cfg` and records its samples: [`record_sides`]
/// with one side, the only form that captures counter deltas.
pub fn record(cfg: &GateConfig) -> Baseline {
    let [baseline] = record_sides([cfg]);
    baseline
}

/// Records every scene once per side, the sides *interleaved in small
/// step blocks within each scene*: one instance of the scene per side
/// runs alternately (A block, B block, A block, …) until each has its
/// sample budget.
///
/// Sequential passes minutes apart are confounded by slow host drift
/// (thermal/scheduling) that the per-step bootstrap CI cannot see —
/// identical builds routinely differ by 10% across passes on a busy
/// host. Interleaving makes any drift hit every configuration nearly
/// equally, so an A-vs-B comparison measures the configuration change,
/// not the weather. Telemetry is switched on for the duration and then
/// restored; the counter deltas of a scene's window cannot be split per
/// side, so only a lone side reports them. Span rings are drained per
/// scene so a long recording cannot overflow them.
pub fn record_sides<const N: usize>(sides: [&GateConfig; N]) -> [Baseline; N] {
    /// Steps run on one side before yielding to the next: small enough
    /// that drift within a block is negligible, large enough that cache
    /// warmup from the side switch does not dominate.
    const BLOCK: usize = 8;
    assert!(
        sides.iter().all(|s| s.scenes == sides[0].scenes),
        "interleaved recording needs one scene list"
    );
    let was_enabled = parallax_telemetry::enabled();
    parallax_telemetry::set_enabled(true);
    let mut recorded: [Vec<SceneSamples>; N] = std::array::from_fn(|_| Vec::new());
    for &id in &sides[0].scenes {
        let mut scenes = sides.map(|cfg| {
            let mut scene = cfg.run.build(id, cfg.scale);
            for _ in 0..cfg.warmup {
                scene.step();
            }
            scene
        });
        let mut samples = sides.map(|_| SceneSamples {
            scene: id.name().to_string(),
            bodies: 0,
            phase_wall_ns: Default::default(),
            counters: Vec::new(),
        });
        parallax_telemetry::drain_spans(&mut Vec::new());
        let before = parallax_telemetry::snapshot();
        while (0..N).any(|s| samples[s].phase_wall_ns[0].len() < sides[s].steps) {
            for s in 0..N {
                let left = sides[s].steps - samples[s].phase_wall_ns[0].len();
                for _ in 0..BLOCK.min(left) {
                    let profile = scenes[s].step();
                    for (i, w) in profile.wall.iter().enumerate() {
                        samples[s].phase_wall_ns[i].push(w.as_nanos() as f64);
                    }
                    samples[s].bodies = profile.body_count;
                }
            }
        }
        if N == 1 {
            samples[0].counters = parallax_telemetry::snapshot().delta_since(&before).counters;
        }
        parallax_telemetry::drain_spans(&mut Vec::new());
        for (side, samples) in recorded.iter_mut().zip(samples) {
            side.push(samples);
        }
    }
    parallax_telemetry::set_enabled(was_enabled);
    let mut recorded = recorded.into_iter();
    sides.map(|cfg| Baseline {
        schema_version: SCHEMA_VERSION,
        fingerprint: Fingerprint::current(),
        config: cfg.clone(),
        scenes: recorded.next().expect("one sample list per side"),
    })
}

impl Baseline {
    /// Serializes the baseline (hand-rolled JSON; the workspace's serde
    /// is an API-only shim).
    pub fn to_json(&self) -> String {
        let mut s = String::new();
        s.push_str("{\n");
        let _ = writeln!(s, "  \"schema_version\": {},", self.schema_version);
        let _ = writeln!(s, "  \"experiment\": \"{EXPERIMENT}\",");
        let _ = writeln!(s, "  \"fingerprint\": {},", self.fingerprint.to_json());
        let _ = writeln!(
            s,
            "  \"config\": {{\"steps\": {}, \"warmup\": {}, \"scale\": {}, \
             \"threshold\": {}, \"run\": \"{}\"}},",
            self.config.steps,
            self.config.warmup,
            self.config.scale,
            self.config.threshold,
            self.config.run
        );
        s.push_str("  \"scenes\": [\n");
        for (i, sc) in self.scenes.iter().enumerate() {
            s.push_str("    {\"scene\": ");
            write_str(&mut s, &sc.scene);
            let _ = write!(s, ", \"bodies\": {},\n     \"phases\": {{", sc.bodies);
            for (p, phase) in PhaseKind::ALL.iter().enumerate() {
                if p > 0 {
                    s.push_str(", ");
                }
                write_str(&mut s, phase.name());
                s.push_str(": [");
                for (j, w) in sc.phase_wall_ns[p].iter().enumerate() {
                    if j > 0 {
                        s.push(',');
                    }
                    let _ = write!(s, "{}", *w as u64);
                }
                s.push(']');
            }
            s.push_str("},\n     \"counters\": {");
            for (j, (name, v)) in sc.counters.iter().enumerate() {
                if j > 0 {
                    s.push_str(", ");
                }
                write_str(&mut s, name);
                let _ = write!(s, ": {v}");
            }
            s.push_str("}}");
            s.push_str(if i + 1 == self.scenes.len() {
                "\n"
            } else {
                ",\n"
            });
        }
        s.push_str("  ]\n}\n");
        s
    }

    /// Parses a baseline document, validating the envelope.
    pub fn from_json(src: &str) -> Result<Baseline, String> {
        let v = Json::parse(src)?;
        let schema_version = field_u64(&v, "schema_version")?;
        if schema_version != SCHEMA_VERSION {
            return Err(format!(
                "baseline schema v{schema_version} but this build reads v{SCHEMA_VERSION}; \
                 re-record with `bench_gate record`"
            ));
        }
        let experiment = field_str(&v, "experiment")?;
        if experiment != EXPERIMENT {
            return Err(format!(
                "not a scene-gate baseline (experiment {experiment:?})"
            ));
        }
        let fingerprint =
            Fingerprint::from_json(v.get("fingerprint").ok_or("missing fingerprint")?)?;
        let c = v.get("config").ok_or("missing config")?;
        let mut config = GateConfig {
            steps: field_u64(c, "steps")? as usize,
            warmup: field_u64(c, "warmup")? as usize,
            scale: field_f64(c, "scale")? as f32,
            threshold: field_f64(c, "threshold")?,
            run: field_str(c, "run")
                .and_then(|spec| RunConfig::parse(&spec).map_err(|e| format!("field \"run\": {e}")))
                .map_err(|e| format!("{e}; re-record with `bench_gate record`"))?,
            scenes: Vec::new(),
        };
        let mut scenes = Vec::new();
        for sc in v
            .get("scenes")
            .and_then(Json::as_arr)
            .ok_or("missing scenes array")?
        {
            let name = field_str(sc, "scene")?;
            if let Some(id) = BenchmarkId::by_name(&name) {
                config.scenes.push(id);
            }
            let phases = sc.get("phases").ok_or("scene missing phases")?;
            let mut phase_wall_ns: [Vec<f64>; 5] = Default::default();
            for (p, phase) in PhaseKind::ALL.iter().enumerate() {
                let arr = phases
                    .get(phase.name())
                    .and_then(Json::as_arr)
                    .ok_or_else(|| format!("scene {name}: missing phase {}", phase.name()))?;
                phase_wall_ns[p] = arr.iter().filter_map(Json::as_f64).collect();
            }
            let counters = match sc.get("counters") {
                Some(Json::Obj(members)) => members
                    .iter()
                    .filter_map(|(k, v)| v.as_u64().map(|n| (k.clone(), n)))
                    .collect(),
                _ => Vec::new(),
            };
            scenes.push(SceneSamples {
                scene: name,
                bodies: field_u64(sc, "bodies")? as usize,
                phase_wall_ns,
                counters,
            });
        }
        Ok(Baseline {
            schema_version,
            fingerprint,
            config,
            scenes,
        })
    }
}

/// One scene×phase comparison row.
#[derive(Debug, Clone)]
pub struct PhaseComparison {
    /// Scene name.
    pub scene: String,
    /// Phase display name.
    pub phase: &'static str,
    /// The statistical comparison (baseline vs fresh samples).
    pub cmp: Comparison,
}

impl PhaseComparison {
    /// `true` when this row is a regression at the gate's threshold.
    pub fn is_regression(&self) -> bool {
        self.cmp.verdict == Verdict::Slower
    }
}

/// Absolute median increase (nanoseconds) a slowdown must also exceed
/// to count as a regression. A phase that does no work in a scene
/// measures in the hundreds of nanoseconds, where scheduler jitter
/// routinely doubles the median — statistically significant, practically
/// meaningless. Any slowdown worth gating on dwarfs this.
pub const MIN_REGRESSION_NS: f64 = 10_000.0;

/// Compares a fresh recording against a baseline, scene by scene and
/// phase by phase, plus one whole-step-total row per scene so a drift
/// spread across phases still gates. Scenes present on only one side
/// are skipped (the
/// scene list is part of the config, so this only happens across
/// deliberate config edits). A `Slower` verdict whose absolute median
/// increase is under [`MIN_REGRESSION_NS`] is downgraded to
/// `Indistinguishable`. Returns every row; the gate fails on
/// `rows.iter().any(PhaseComparison::is_regression)`.
pub fn compare_baselines(
    base: &Baseline,
    fresh: &Baseline,
    threshold: f64,
) -> Vec<PhaseComparison> {
    let cfg = BootstrapConfig::default();
    let mut rows = Vec::new();
    for b in &base.scenes {
        let Some(f) = fresh.scenes.iter().find(|s| s.scene == b.scene) else {
            continue;
        };
        for (p, phase) in PhaseKind::ALL.iter().enumerate() {
            let Some(mut cmp) = compare(&b.phase_wall_ns[p], &f.phase_wall_ns[p], threshold, &cfg)
            else {
                continue;
            };
            if cmp.verdict == Verdict::Slower
                && cmp.cand_median - cmp.base_median < MIN_REGRESSION_NS
            {
                cmp.verdict = Verdict::Indistinguishable;
            }
            rows.push(PhaseComparison {
                scene: b.scene.clone(),
                phase: phase.name(),
                cmp,
            });
        }
        // Whole-step totals: phase rows can individually sit inside the
        // threshold while their sum drifts past it (or, symmetrically, a
        // kernel win can be visible per-step but diluted per-phase).
        if let Some(cmp) = compare(&b.step_totals(), &f.step_totals(), threshold, &cfg) {
            rows.push(PhaseComparison {
                scene: b.scene.clone(),
                phase: "step total",
                cmp,
            });
        }
    }
    rows
}

/// What configuration B costs over configuration A per step, in
/// nanoseconds, from a two-sided [`record_sides`] recording of one scene.
#[derive(Debug, Clone, Copy, PartialEq)]
pub struct PairedCost {
    /// Median over the steps of `B's step total - A's step total`.
    pub median_ns: f64,
    /// Bootstrap confidence interval of that median.
    pub ci_ns: (f64, f64),
}

/// The absolute per-step cost of `b` over `a`. Both sides of a paired
/// recording walk the same trajectory when the configurations differ only
/// in what they observe (digests on/off), so step `i` does the same
/// simulation work on both and the per-step difference cancels the step's
/// own variation, which dwarfs the cost being measured. `None` when the
/// sides hold no or differently many steps.
pub fn paired_step_cost(a: &SceneSamples, b: &SceneSamples) -> Option<PairedCost> {
    let (ta, tb) = (a.step_totals(), b.step_totals());
    if ta.is_empty() || ta.len() != tb.len() {
        return None;
    }
    let diffs: Vec<f64> = tb.iter().zip(&ta).map(|(b, a)| b - a).collect();
    Some(PairedCost {
        median_ns: median(&diffs)?,
        ci_ns: bootstrap_median_ci(&diffs, &BootstrapConfig::default())?,
    })
}

/// Typed field lookups shared by the BENCH_*.json readers.
pub(crate) fn field_u64(v: &Json, key: &str) -> Result<u64, String> {
    v.get(key)
        .and_then(Json::as_u64)
        .ok_or_else(|| format!("missing or non-integer field {key:?}"))
}

pub(crate) fn field_f64(v: &Json, key: &str) -> Result<f64, String> {
    v.get(key)
        .and_then(Json::as_f64)
        .ok_or_else(|| format!("missing or non-numeric field {key:?}"))
}

pub(crate) fn field_str(v: &Json, key: &str) -> Result<String, String> {
    v.get(key)
        .and_then(Json::as_str)
        .map(str::to_string)
        .ok_or_else(|| format!("missing or non-string field {key:?}"))
}

#[cfg(test)]
mod tests {
    use super::*;

    fn tiny_config() -> GateConfig {
        GateConfig {
            steps: 4,
            warmup: 1,
            scale: 0.05,
            threshold: 0.35,
            run: RunConfig::parse("simd=scalar").expect("spec"),
            scenes: vec![BenchmarkId::Periodic, BenchmarkId::Ragdoll],
        }
    }

    #[test]
    fn record_captures_all_phases_for_every_scene() {
        let _flag = crate::telemetry_flag_lock();
        let b = record(&tiny_config());
        assert_eq!(b.scenes.len(), 2);
        for sc in &b.scenes {
            for (p, samples) in sc.phase_wall_ns.iter().enumerate() {
                assert_eq!(samples.len(), 4, "{} phase {p}", sc.scene);
            }
            assert!(sc.bodies > 0);
        }
    }

    #[test]
    fn interleaved_sides_each_get_their_own_budget() {
        let _flag = crate::telemetry_flag_lock();
        let long = GateConfig {
            steps: 19,
            ..tiny_config()
        };
        let [a, b] = record_sides([&tiny_config(), &long]);
        for (side, steps) in [(&a, 4), (&b, 19)] {
            assert_eq!(side.scenes.len(), 2);
            for sc in &side.scenes {
                assert!(sc.phase_wall_ns.iter().all(|p| p.len() == steps));
                assert!(sc.bodies > 0 && sc.counters.is_empty());
            }
        }
        assert_eq!(b.config.steps, 19);
    }

    #[test]
    fn baseline_json_round_trips() {
        let _flag = crate::telemetry_flag_lock();
        let b = record(&tiny_config());
        let parsed = Baseline::from_json(&b.to_json()).expect("parse");
        assert_eq!(parsed.schema_version, SCHEMA_VERSION);
        assert_eq!(parsed.fingerprint, b.fingerprint);
        assert_eq!(parsed.config.steps, b.config.steps);
        assert_eq!(parsed.config.run, b.config.run);
        assert_eq!(parsed.config.scenes, b.config.scenes);
        assert_eq!(parsed.scenes.len(), b.scenes.len());
        for (a, e) in parsed.scenes.iter().zip(&b.scenes) {
            assert_eq!(a.scene, e.scene);
            assert_eq!(a.bodies, e.bodies);
            for p in 0..5 {
                // Samples are stored as whole nanoseconds.
                let expect: Vec<f64> = e.phase_wall_ns[p]
                    .iter()
                    .map(|w| (*w as u64) as f64)
                    .collect();
                assert_eq!(a.phase_wall_ns[p], expect);
            }
        }
    }

    #[test]
    fn from_json_rejects_other_schemas() {
        assert!(Baseline::from_json("{\"schema_version\": 999}").is_err());
        assert!(Baseline::from_json("not json").is_err());
        let wrong =
            format!("{{\"schema_version\": {SCHEMA_VERSION}, \"experiment\": \"server_gate\"}}");
        let err = Baseline::from_json(&wrong).unwrap_err();
        assert!(err.contains("server_gate"), "{err}");

        // A v1 document (five configuration fields, no `run`) names the
        // way out instead of reading as some default configuration.
        let v1 = "{\"schema_version\": 1, \"experiment\": \"scene_gate\", \
                  \"config\": {\"threads\": 1, \"simd\": \"avx2\", \"sleeping\": false}}";
        let err = Baseline::from_json(v1).unwrap_err();
        assert!(
            err.contains("v1") && err.contains("bench_gate record"),
            "{err}"
        );

        let doc = |run: &str| {
            format!(
                "{{\"schema_version\": {SCHEMA_VERSION}, \"experiment\": \"{EXPERIMENT}\", \
                 \"fingerprint\": {}, \"config\": {{\"steps\": 4, \"warmup\": 1, \
                 \"scale\": 0.05, \"threshold\": 0.35{run}}}, \"scenes\": []}}",
                Fingerprint::current().to_json()
            )
        };
        assert!(Baseline::from_json(&doc(", \"run\": \"threads=2\"")).is_ok());
        let err = Baseline::from_json(&doc("")).unwrap_err();
        assert!(
            err.contains("\"run\"") && err.contains("bench_gate record"),
            "{err}"
        );
        let err = Baseline::from_json(&doc(", \"run\": \"simd=neon\"")).unwrap_err();
        assert!(
            err.contains("\"run\"")
                && err.contains("\"neon\"")
                && err.contains("bench_gate record"),
            "{err}"
        );
    }

    #[test]
    fn identical_baselines_have_no_regressions() {
        let _flag = crate::telemetry_flag_lock();
        let b = record(&tiny_config());
        let rows = compare_baselines(&b, &b, 0.35);
        // 5 phase rows + 1 step-total row per scene.
        assert_eq!(rows.len(), 2 * 6);
        assert!(rows.iter().all(|r| !r.is_regression()), "{rows:?}");
    }

    /// One side of a paired recording: a trajectory whose step cost
    /// swings ±40% (far more than the overhead being measured), with
    /// per-step jitter, plus `overhead_ns` on every step.
    fn synthetic_side(overhead_ns: f64, seed: u64) -> SceneSamples {
        let mut state = seed;
        let mut jitter = move || {
            state = state
                .wrapping_mul(6364136223846793005)
                .wrapping_add(1442695040888963407);
            ((state >> 33) % 40_000) as f64 - 20_000.0
        };
        let totals: Vec<f64> = (0..240)
            .map(|i| 1.5e6 * (1.0 + 0.4 * (i as f64 * 0.05).sin()) + jitter() + overhead_ns)
            .collect();
        let mut phase_wall_ns: [Vec<f64>; 5] = Default::default();
        phase_wall_ns[0] = totals;
        for p in &mut phase_wall_ns[1..] {
            *p = vec![0.0; 240];
        }
        SceneSamples {
            scene: "Mix".into(),
            bodies: 300,
            phase_wall_ns,
            counters: Vec::new(),
        }
    }

    #[test]
    fn paired_cost_resolves_an_overhead_far_below_the_step_variation() {
        let off = synthetic_side(0.0, 1);
        let honest = paired_step_cost(&off, &synthetic_side(120_000.0, 2)).expect("samples");
        assert!(
            (100_000.0..140_000.0).contains(&honest.median_ns),
            "{honest:?}"
        );
        assert!(honest.ci_ns.0 > 100_000.0 && honest.ci_ns.1 < 140_000.0);
        // A planted doubling of the overhead lands clear of the honest
        // interval: a budget between the two separates them.
        let doubled = paired_step_cost(&off, &synthetic_side(240_000.0, 3)).expect("samples");
        assert!(doubled.ci_ns.0 > 1.5 * honest.ci_ns.1, "{doubled:?}");
        // Unpaired sides cannot be subtracted step by step.
        let mut short = synthetic_side(0.0, 4);
        short.phase_wall_ns[0].pop();
        assert_eq!(paired_step_cost(&off, &short), None);
    }

    #[test]
    fn quick_widens_but_never_narrows_threshold() {
        let q = GateConfig::default().quick();
        assert_eq!(q.steps, 10);
        assert_eq!(q.threshold, 1.0);
        let strict = GateConfig {
            threshold: 2.5,
            ..GateConfig::default()
        }
        .quick();
        assert_eq!(strict.threshold, 2.5);
    }
}
