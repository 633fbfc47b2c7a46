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

use parallax_math::SimdMode;
use parallax_physics::PhaseKind;
use parallax_telemetry::json::{write_str, Json};
use parallax_telemetry::stats::{
    bootstrap_median_ci, compare, median, BootstrapConfig, Comparison, Verdict,
};
use parallax_workloads::{BenchmarkId, SceneParams};

/// Version of the baseline JSON layout. Bump on any incompatible change;
/// `compare` refuses to read a mismatched file rather than mis-parse it.
pub const SCHEMA_VERSION: u64 = 1;

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
    /// Executor width.
    pub threads: usize,
    /// Relative median-change threshold a regression must clear
    /// (0.35 = 35% slower).
    pub threshold: f64,
    /// Solver warm starting from the persistent contact cache. Part of
    /// the envelope so a baseline is always compared against a run with
    /// the same solver configuration. Baselines recorded before the
    /// field existed read as `true` (the engine default).
    pub warm_starting: bool,
    /// SIMD kernel width the samples were taken with. Part of the
    /// envelope so a scalar baseline is never silently compared against
    /// an AVX2 run (or vice versa). Baselines recorded before the field
    /// existed read as `Scalar` — the only kernels that engine had.
    pub simd: SimdMode,
    /// Per-phase state digests computed during the run (the flight
    /// recorder's fingerprinting). Part of the envelope because digests
    /// add per-step work; the `digest_overhead` binary A/B-compares
    /// off-vs-on. Baselines recorded before the field existed read as
    /// `false`.
    pub digests: bool,
    /// Island sleeping enabled during the run. Part of the envelope
    /// because sleeping changes how much work settled scenes do per
    /// step; `bench_gate --sleep` A/B-compares off-vs-on. Baselines
    /// recorded before the field existed read as `false`.
    pub sleeping: bool,
    /// Scenes measured, in order.
    pub scenes: Vec<BenchmarkId>,
}

impl Default for GateConfig {
    fn default() -> Self {
        GateConfig {
            steps: 40,
            warmup: 8,
            scale: 0.2,
            threads: 1,
            threshold: 0.35,
            warm_starting: true,
            simd: SimdMode::resolve(),
            digests: false,
            sleeping: parallax_physics::sleeping_from_env(),
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
    /// `BENCH_scenes.json` and `BENCH_pipeline.json`).
    pub fn to_json(&self) -> String {
        let mut s = String::from("{\"os\": ");
        write_str(&mut s, &self.os);
        s.push_str(", \"arch\": ");
        write_str(&mut s, &self.arch);
        let _ = write!(s, ", \"hw_threads\": {}}}", self.hw_threads);
        s
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

/// Runs every scene in `cfg` and records its samples. Telemetry is
/// switched on for the duration so counter deltas are captured, then
/// restored to its previous state; span rings are drained per scene so
/// a long recording cannot overflow them.
pub fn record(cfg: &GateConfig) -> Baseline {
    let was_enabled = parallax_telemetry::enabled();
    parallax_telemetry::set_enabled(true);
    let mut scenes = Vec::with_capacity(cfg.scenes.len());
    for &id in &cfg.scenes {
        scenes.push(record_scene(id, cfg));
    }
    parallax_telemetry::set_enabled(was_enabled);
    Baseline {
        schema_version: SCHEMA_VERSION,
        fingerprint: Fingerprint::current(),
        config: cfg.clone(),
        scenes,
    }
}

/// Records one scene under `cfg` (telemetry must already be enabled).
fn record_scene(id: BenchmarkId, cfg: &GateConfig) -> SceneSamples {
    let mut discard = Vec::new();
    let mut scene = id.build(&SceneParams {
        scale: cfg.scale,
        threads: cfg.threads,
        warm_starting: cfg.warm_starting,
        simd: cfg.simd,
        digests: cfg.digests,
        sleeping: cfg.sleeping,
        ..SceneParams::default()
    });
    for _ in 0..cfg.warmup {
        scene.step();
    }
    parallax_telemetry::drain_spans(&mut discard);
    let before = parallax_telemetry::snapshot();
    let mut phase_wall_ns: [Vec<f64>; 5] = Default::default();
    let mut bodies = 0;
    for _ in 0..cfg.steps {
        let profile = scene.step();
        for (i, w) in profile.wall.iter().enumerate() {
            phase_wall_ns[i].push(w.as_nanos() as f64);
        }
        bodies = profile.body_count;
    }
    let delta = parallax_telemetry::snapshot().delta_since(&before);
    parallax_telemetry::drain_spans(&mut discard);
    SceneSamples {
        scene: id.name().to_string(),
        bodies,
        phase_wall_ns,
        counters: delta.counters,
    }
}

/// Records two configurations as one pass, *interleaved in small step
/// blocks within each scene*: two instances of the scene run
/// alternately (A block, B block, A block, …) until both have their
/// sample budget.
///
/// Sequential `record` passes minutes apart are confounded by slow host
/// drift (thermal/scheduling) that the per-step bootstrap CI cannot
/// see — identical builds routinely differ by 10% across passes on a
/// busy host. Interleaving makes any drift hit both configurations
/// nearly equally, so an A-vs-B comparison measures the configuration
/// change, not the weather. Telemetry counter deltas are not split per
/// side (the samples are what comparisons consume); both sides report
/// empty counters.
pub fn record_paired(a: &GateConfig, b: &GateConfig) -> (Baseline, Baseline) {
    /// Steps run on one side before yielding to the other: small enough
    /// that drift within a block is negligible, large enough that cache
    /// warmup from the side switch does not dominate.
    const BLOCK: usize = 8;
    assert_eq!(a.scenes, b.scenes, "paired recording needs one scene list");
    let was_enabled = parallax_telemetry::enabled();
    parallax_telemetry::set_enabled(true);
    let mut scenes_a = Vec::with_capacity(a.scenes.len());
    let mut scenes_b = Vec::with_capacity(b.scenes.len());
    for &id in &a.scenes {
        let build = |cfg: &GateConfig| {
            id.build(&SceneParams {
                scale: cfg.scale,
                threads: cfg.threads,
                warm_starting: cfg.warm_starting,
                simd: cfg.simd,
                digests: cfg.digests,
                sleeping: cfg.sleeping,
                ..SceneParams::default()
            })
        };
        let mut sa = build(a);
        let mut sb = build(b);
        for _ in 0..a.warmup {
            sa.step();
        }
        for _ in 0..b.warmup {
            sb.step();
        }
        let mut pa: [Vec<f64>; 5] = Default::default();
        let mut pb: [Vec<f64>; 5] = Default::default();
        let (mut bodies_a, mut bodies_b) = (0, 0);
        while pa[0].len() < a.steps || pb[0].len() < b.steps {
            for _ in 0..BLOCK.min(a.steps - pa[0].len()) {
                let profile = sa.step();
                for (i, w) in profile.wall.iter().enumerate() {
                    pa[i].push(w.as_nanos() as f64);
                }
                bodies_a = profile.body_count;
            }
            for _ in 0..BLOCK.min(b.steps - pb[0].len()) {
                let profile = sb.step();
                for (i, w) in profile.wall.iter().enumerate() {
                    pb[i].push(w.as_nanos() as f64);
                }
                bodies_b = profile.body_count;
            }
        }
        // Nobody reads the spans of a paired recording; leave the rings
        // empty for the next scene (or the caller's next recording).
        parallax_telemetry::drain_spans(&mut Vec::new());
        scenes_a.push(SceneSamples {
            scene: id.name().to_string(),
            bodies: bodies_a,
            phase_wall_ns: pa,
            counters: Vec::new(),
        });
        scenes_b.push(SceneSamples {
            scene: id.name().to_string(),
            bodies: bodies_b,
            phase_wall_ns: pb,
            counters: Vec::new(),
        });
    }
    parallax_telemetry::set_enabled(was_enabled);
    let mk = |cfg: &GateConfig, scenes| Baseline {
        schema_version: SCHEMA_VERSION,
        fingerprint: Fingerprint::current(),
        config: cfg.clone(),
        scenes,
    };
    (mk(a, scenes_a), mk(b, scenes_b))
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
             \"threads\": {}, \"threshold\": {}, \"warm_starting\": {}, \
             \"simd\": \"{}\", \"digests\": {}, \"sleeping\": {}}},",
            self.config.steps,
            self.config.warmup,
            self.config.scale,
            self.config.threads,
            self.config.threshold,
            self.config.warm_starting,
            self.config.simd.name(),
            self.config.digests,
            self.config.sleeping
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
            threads: field_u64(c, "threads")? as usize,
            threshold: field_f64(c, "threshold")?,
            // Absent in pre-warm-starting baselines: those were recorded
            // with the engine default, which is on.
            warm_starting: !matches!(c.get("warm_starting"), Some(Json::Bool(false))),
            // Absent in pre-SIMD baselines: that engine only had the
            // scalar kernels.
            simd: c
                .get("simd")
                .and_then(Json::as_str)
                .and_then(SimdMode::from_name)
                .unwrap_or(SimdMode::Scalar),
            // Absent in pre-digest baselines: digests did not exist, so
            // those samples were recorded without them.
            digests: matches!(c.get("digests"), Some(Json::Bool(true))),
            // Absent in pre-sleeping baselines: sleeping did not exist.
            sleeping: matches!(c.get("sleeping"), Some(Json::Bool(true))),
            scenes: Vec::new(),
        };
        let mut scenes = Vec::new();
        for sc in v
            .get("scenes")
            .and_then(Json::as_arr)
            .ok_or("missing scenes array")?
        {
            let name = field_str(sc, "scene")?;
            if let Some(id) = crate::benchmark_by_name(&name) {
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
        if let Some(cmp) = compare(&step_totals(b), &step_totals(f), threshold, &cfg) {
            rows.push(PhaseComparison {
                scene: b.scene.clone(),
                phase: "step total",
                cmp,
            });
        }
    }
    rows
}

/// Whole-step wall time of every recorded step: the five phase walls summed.
fn step_totals(sc: &SceneSamples) -> Vec<f64> {
    let n = sc.phase_wall_ns.iter().map(Vec::len).min().unwrap_or(0);
    (0..n)
        .map(|s| sc.phase_wall_ns.iter().map(|p| p[s]).sum())
        .collect()
}

/// What configuration B costs over configuration A per step, in
/// nanoseconds, from a [`record_paired`] recording of one scene.
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
    let (ta, tb) = (step_totals(a), step_totals(b));
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
            threads: 1,
            threshold: 0.35,
            warm_starting: true,
            simd: SimdMode::Scalar,
            digests: false,
            sleeping: false,
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
    fn baseline_json_round_trips() {
        let _flag = crate::telemetry_flag_lock();
        let b = record(&tiny_config());
        let parsed = Baseline::from_json(&b.to_json()).expect("parse");
        assert_eq!(parsed.schema_version, SCHEMA_VERSION);
        assert_eq!(parsed.fingerprint, b.fingerprint);
        assert_eq!(parsed.config.steps, b.config.steps);
        assert_eq!(parsed.config.simd, b.config.simd);
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
        let wrong = format!(
            "{{\"schema_version\": {SCHEMA_VERSION}, \"experiment\": \"executor_scaling\"}}"
        );
        let err = Baseline::from_json(&wrong).unwrap_err();
        assert!(err.contains("executor_scaling"), "{err}");
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
