//! The scene gate (`bench_gate scenes`) and the digest gate (`bench_gate
//! digest`): per-step, per-phase walls of the paper scenes, recorded
//! against a baseline or, for the digests, two configurations against
//! each other.

use parallax_physics::PhaseKind;
use parallax_telemetry::json::Json;
use parallax_telemetry::stats::{
    at_reference_speed, bootstrap_median_ci, median, smoothed_speeds, BootstrapConfig, Probe,
};
use parallax_workloads::{BenchmarkId, RunConfig};

use super::{field_f64, field_str, field_u64, judge, whole_ns, Baseline, Gate, Row};

/// Relative median-change threshold of a full `compare` (0.35 = 35 %
/// slower).
pub const THRESHOLD: f64 = 0.35;

/// Fresh steps a scene under `--quick`.
pub const QUICK_STEPS: usize = 10;

/// Threshold of `compare --quick` ([`QUICK_STEPS`] a scene), set from the
/// A/A noise at the reference speed: in two batches of 10 recordings on a
/// 2-core x86-64 VM, compared in all 90 ordered pairs, the largest lower
/// CI bound of any row read +21 % and +42 % (+102 % unnormalised, in the
/// second batch).
pub const QUICK_THRESHOLD: f64 = 0.5;

/// The digest budget: nanoseconds at the reference speed per body slot
/// per step, all five phase digests together.
///
/// Derivation (DESIGN.md §12, measured on Mix at scale 0.2, 2105 body
/// slots): a step's five digests hash ≈380 bytes per body slot — five
/// times the 64-byte body state, plus the candidate list, the manifolds
/// and the cloth — at ≈0.15 ns per byte in place, against ≈0.08 ns per
/// byte for the same hash over resident lanes and ≈0.025 for a plain lane
/// copy: 55–75 ns per body-step over 27 quick recordings, the lower end
/// of the interval at most 68. With every digest computed twice the
/// lower end was at least 93 in 23 recordings. The budget sits between.
pub const DIGEST_BUDGET_NS_PER_BODY_STEP: f64 = 80.0;

/// Passes [`record_sides`] makes over the scenes.
pub const RECORD_PASSES: usize = 3;

/// Recordings a digest failure needs: host noise on a shared machine is
/// one-sided and bursty (one honest quick recording in 28 read twice the
/// usual cost), a real regression is there every time.
pub const DIGEST_ATTEMPTS: usize = 3;

/// How the scenes are recorded: the gate's configuration.
#[derive(Debug, Clone, PartialEq)]
pub struct SceneConfig {
    /// Measured steps per scene (after warm-up).
    pub steps: usize,
    /// Warm-up steps stepped but not recorded.
    pub warmup: usize,
    /// Scene scale (fraction of paper scale).
    pub scale: f32,
    /// The engine configuration the samples are taken under, stored as
    /// its spec string, so a baseline is only ever gated against a run
    /// of the same configuration; `compare --config` on top of it is an
    /// explicit A/B instead.
    pub run: RunConfig,
    /// Scenes measured, in order.
    pub scenes: Vec<BenchmarkId>,
}

impl Default for SceneConfig {
    fn default() -> Self {
        SceneConfig {
            steps: 40,
            warmup: 8,
            scale: 0.2,
            run: RunConfig::default(),
            scenes: BenchmarkId::ALL.to_vec(),
        }
    }
}

impl SceneConfig {
    /// The digest gate's two sides: Mix at scale 0.2 with digests off and
    /// on, 480 steps (240 quick) after 8 of warm-up.
    pub fn digest_sides(quick: bool) -> [SceneConfig; 2] {
        [false, true].map(|digest| SceneConfig {
            steps: if quick { 240 } else { 480 },
            warmup: 8,
            scale: 0.2,
            run: RunConfig {
                digest,
                ..RunConfig::default()
            },
            scenes: vec![BenchmarkId::Mix],
        })
    }
}

/// Measured samples for one scene.
#[derive(Debug, Clone, PartialEq)]
pub struct SceneSamples {
    /// Scene name (`BenchmarkId::name`).
    pub scene: String,
    /// Bodies enabled at the end of the window.
    pub bodies: usize,
    /// Per-phase wall-time samples in nanoseconds at the reference speed,
    /// [`PhaseKind::ALL`] order, one entry per measured step.
    pub phase_wall_ns: [Vec<f64>; 5],
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

/// The scene gate's baseline contents.
#[derive(Debug, Clone, PartialEq)]
pub struct Scenes {
    /// Recording configuration.
    pub config: SceneConfig,
    /// One entry per measured scene.
    pub scenes: Vec<SceneSamples>,
}

impl Gate for Scenes {
    const NAME: &'static str = "scenes";
    const PATH: &'static str = "BENCH_scenes.json";

    fn to_json(&self) -> Vec<(&'static str, Json)> {
        let c = &self.config;
        let config = Json::obj([
            ("steps", c.steps.into()),
            ("warmup", c.warmup.into()),
            // The f32's shortest decimal, not its widened binary value.
            (
                "scale",
                c.scale.to_string().parse::<f64>().unwrap_or(0.0).into(),
            ),
            ("run", c.run.to_string().as_str().into()),
        ]);
        let scenes = self.scenes.iter().map(|sc| {
            let phases = PhaseKind::ALL
                .iter()
                .zip(&sc.phase_wall_ns)
                .map(|(phase, walls)| (phase.name(), whole_ns(walls)));
            Json::obj([
                ("scene", sc.scene.as_str().into()),
                ("bodies", sc.bodies.into()),
                ("phases", Json::obj(phases)),
            ])
        });
        vec![("config", config), ("scenes", Json::Arr(scenes.collect()))]
    }

    fn from_json(doc: &Json) -> Result<Scenes, String> {
        let c = doc.get("config").ok_or("missing config")?;
        let run = field_str(c, "run")?;
        let mut config = SceneConfig {
            steps: field_u64(c, "steps")? as usize,
            warmup: field_u64(c, "warmup")? as usize,
            scale: field_f64(c, "scale")? as f32,
            run: RunConfig::parse(&run).map_err(|e| format!("field \"run\": {e}"))?,
            scenes: Vec::new(),
        };
        let mut scenes = Vec::new();
        for sc in doc
            .get("scenes")
            .and_then(Json::as_arr)
            .ok_or("missing scenes array")?
        {
            let name = field_str(sc, "scene")?;
            let id = BenchmarkId::by_name(&name).ok_or(format!("unknown scene {name:?}"))?;
            config.scenes.push(id);
            let phases = sc.get("phases").ok_or("scene missing phases")?;
            let mut phase_wall_ns: [Vec<f64>; 5] = Default::default();
            for (walls, phase) in phase_wall_ns.iter_mut().zip(PhaseKind::ALL) {
                *walls = super::field_nums(phases, phase.name())
                    .map_err(|e| format!("scene {name}: {e}"))?;
            }
            scenes.push(SceneSamples {
                bodies: field_u64(sc, "bodies")? as usize,
                scene: name,
                phase_wall_ns,
            });
        }
        Ok(Scenes { config, scenes })
    }
}

/// Runs every scene in `cfg` and records its samples.
pub fn record(cfg: &SceneConfig) -> Baseline<Scenes> {
    let [baseline] = record_sides([cfg]);
    baseline
}

/// Records every scene once per side, the sides *interleaved in small
/// step blocks within each scene*: one instance of the scene per side
/// runs alternately (A block, B block, A block, …) until each has its
/// sample budget. The whole recording is made [`RECORD_PASSES`] times and
/// each step keeps its median across the passes: the trajectories are
/// deterministic, so step `i` does the same work in every pass, and a
/// spell of host interference the probe does not see (one pass of a
/// baseline once read every scene 30–55 % slower than the runs after it
/// while its probe read fast) is outvoted.
///
/// Sequential passes minutes apart are confounded by slow host drift
/// that the per-step bootstrap cannot see; interleaving makes any drift
/// hit every side nearly equally, so an A-vs-B comparison measures the
/// configuration change, not the weather. The reference [`Probe`] is
/// timed once a round, before the first side's block, and every step is
/// stored at the reference speed of its round ([`smoothed_speeds`]) —
/// the *same* factor on every side, so the step-by-step difference of
/// two sides ([`paired_step_cost`]) carries no probe noise.
pub fn record_sides<const N: usize>(sides: [&SceneConfig; N]) -> [Baseline<Scenes>; N] {
    /// Steps run on one side before yielding to the next: small enough
    /// that drift within a block is negligible, large enough that cache
    /// warmup from the side switch does not dominate.
    const BLOCK: usize = 8;
    assert!(
        sides.iter().all(|s| s.scenes == sides[0].scenes),
        "interleaved recording needs one scene list"
    );
    let mut probe = Probe::new();
    let mut probe_walls = Vec::new();
    // Per pass, per side: each scene's samples and each step's round.
    type Side = Vec<(SceneSamples, Vec<usize>)>;
    let mut passes: Vec<[Side; N]> = Vec::new();
    for _ in 0..RECORD_PASSES {
        let mut pass: [Vec<_>; N] = std::array::from_fn(|_| Vec::new());
        for &id in &sides[0].scenes {
            let mut scenes = sides.map(|cfg| {
                let mut scene = cfg.run.build(id, cfg.scale);
                for _ in 0..cfg.warmup {
                    scene.step();
                }
                scene
            });
            let mut samples = sides.map(|_| {
                let sc = SceneSamples {
                    scene: id.name().to_string(),
                    bodies: 0,
                    phase_wall_ns: Default::default(),
                };
                (sc, Vec::new())
            });
            while (0..N).any(|s| samples[s].1.len() < sides[s].steps) {
                probe_walls.push(probe.speed());
                for s in 0..N {
                    let (sc, rounds) = &mut samples[s];
                    for _ in 0..BLOCK.min(sides[s].steps - rounds.len()) {
                        rounds.push(probe_walls.len() - 1);
                        let profile = scenes[s].step();
                        for (walls, w) in sc.phase_wall_ns.iter_mut().zip(profile.wall) {
                            walls.push(w.as_nanos() as f64);
                        }
                        sc.bodies = profile.body_count;
                    }
                }
            }
            for (side, samples) in pass.iter_mut().zip(samples) {
                side.push(samples);
            }
        }
        passes.push(pass);
    }
    let speed = smoothed_speeds(&probe_walls);
    let probe_ns = median(&probe_walls).unwrap_or(0.0);
    std::array::from_fn(|s| {
        let cfg = sides[s];
        let scenes = (0..cfg.scenes.len())
            .map(|k| {
                let at_reference = passes.iter().map(|pass| {
                    let (mut sc, rounds) = pass[s][k].clone();
                    for walls in &mut sc.phase_wall_ns {
                        for (w, &r) in walls.iter_mut().zip(&rounds) {
                            *w = at_reference_speed(*w, speed[r]);
                        }
                    }
                    sc
                });
                step_medians(&at_reference.collect::<Vec<_>>())
            })
            .collect();
        let scenes = Scenes {
            config: cfg.clone(),
            scenes,
        };
        Baseline::new(scenes, probe_ns)
    })
}

/// Each step's median across passes over the same steps of one scene.
fn step_medians(passes: &[SceneSamples]) -> SceneSamples {
    let mut out = passes[0].clone();
    for (p, walls) in out.phase_wall_ns.iter_mut().enumerate() {
        for (i, w) in walls.iter_mut().enumerate() {
            let across: Vec<f64> = passes.iter().map(|pass| pass.phase_wall_ns[p][i]).collect();
            *w = median(&across).unwrap_or(*w);
        }
    }
    out
}

/// Compares a fresh recording against a baseline, scene by scene and
/// phase by phase, plus one whole-step row per scene so a drift spread
/// across phases still gates. The baseline contributes as many of its
/// first steps as the fresh run holds: runs that start their windows
/// together then compare the same steps of the same trajectory, and a
/// scene's activity changing over a longer window cannot read as a code
/// change. Scenes present on only one side are skipped (the scene list
/// is part of the config, so this only happens across deliberate config
/// edits).
pub fn compare(base: &Scenes, fresh: &Scenes, threshold: f64) -> Vec<Row> {
    let mut rows = Vec::new();
    for b in &base.scenes {
        let Some(f) = fresh.scenes.iter().find(|s| s.scene == b.scene) else {
            continue;
        };
        let first = |xs: &[f64]| xs[..xs.len().min(f.phase_wall_ns[0].len())].to_vec();
        let phases = PhaseKind::ALL.iter().enumerate().map(|(p, phase)| {
            let what = format!("{} / {}", b.scene, phase.name());
            judge(
                what,
                &first(&b.phase_wall_ns[p]),
                &f.phase_wall_ns[p],
                threshold,
            )
        });
        rows.extend(phases.flatten());
        let what = format!("{} / step total", b.scene);
        rows.extend(judge(
            what,
            &first(&b.step_totals()),
            &f.step_totals(),
            threshold,
        ));
    }
    rows
}

/// What configuration B costs over configuration A per step, in
/// nanoseconds at the reference speed, from a two-sided [`record_sides`]
/// recording of one scene.
#[derive(Debug, Clone, Copy, PartialEq)]
pub struct PairedCost {
    /// Median over the steps of `B's step total - A's step total`.
    pub median_ns: f64,
    /// Bootstrap confidence interval of that median.
    pub ci_ns: (f64, f64),
}

impl PairedCost {
    /// The digest verdict of one recording over `bodies` body slots:
    /// over budget only when the whole interval of the cost per body
    /// slot lies above [`DIGEST_BUDGET_NS_PER_BODY_STEP`].
    pub fn over_digest_budget(&self, bodies: usize) -> bool {
        self.ci_ns.0 / bodies.max(1) as f64 > DIGEST_BUDGET_NS_PER_BODY_STEP
    }
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

#[cfg(test)]
mod tests {
    use super::*;
    use parallax_telemetry::stats::Verdict;

    fn tiny_config() -> SceneConfig {
        SceneConfig {
            steps: 4,
            warmup: 1,
            scale: 0.05,
            run: RunConfig::parse("simd=scalar").expect("spec"),
            scenes: vec![BenchmarkId::Periodic, BenchmarkId::Ragdoll],
        }
    }

    #[test]
    fn record_captures_all_phases_for_every_scene() {
        let b = record(&tiny_config());
        assert_eq!(b.gate.scenes.len(), 2);
        for sc in &b.gate.scenes {
            for (p, samples) in sc.phase_wall_ns.iter().enumerate() {
                assert_eq!(samples.len(), 4, "{} phase {p}", sc.scene);
            }
            assert!(sc.bodies > 0);
        }
        assert!(b.probe_ns > 0.0);
    }

    #[test]
    fn interleaved_sides_each_get_their_own_budget() {
        let long = SceneConfig {
            steps: 19,
            ..tiny_config()
        };
        let [a, b] = record_sides([&tiny_config(), &long]);
        for (side, steps) in [(&a, 4), (&b, 19)] {
            assert_eq!(side.gate.scenes.len(), 2);
            for sc in &side.gate.scenes {
                assert!(sc.phase_wall_ns.iter().all(|p| p.len() == steps));
                assert!(sc.bodies > 0);
            }
        }
        assert_eq!(b.gate.config.steps, 19);
    }

    #[test]
    fn baseline_json_round_trips() {
        let b = record(&tiny_config());
        let parsed = Baseline::<Scenes>::from_json(&b.to_json().render()).expect("parse");
        assert_eq!(parsed.fingerprint, b.fingerprint);
        assert_eq!(parsed.probe_ns, b.probe_ns.round());
        assert_eq!(parsed.gate.config, b.gate.config);
        // Samples are stored as whole nanoseconds.
        let mut whole = b.gate.clone();
        for sc in &mut whole.scenes {
            for walls in &mut sc.phase_wall_ns {
                walls.iter_mut().for_each(|w| *w = w.round());
            }
        }
        assert_eq!(parsed.gate, whole);
    }

    #[test]
    fn identical_baselines_have_no_regressions() {
        let b = record(&tiny_config());
        let rows = compare(&b.gate, &b.gate, THRESHOLD);
        // 5 phase rows + 1 step-total row per scene.
        assert_eq!(rows.len(), 2 * 6);
        assert!(rows.iter().all(|r| !r.is_regression()), "{rows:?}");
    }

    #[test]
    fn the_verdict_table_reads_slower_faster_and_same() {
        let scenes = |k: f64, seed| {
            Scenes {
                config: tiny_config(),
                scenes: vec![synthetic_side(0.0, seed)],
            }
            .scaled(k)
        };
        let base = scenes(1.0, 1);
        for (k, verdict) in [
            (2.0, Verdict::Slower),
            (0.4, Verdict::Faster),
            (1.0, Verdict::Indistinguishable),
        ] {
            let rows = compare(&base, &scenes(k, 2), QUICK_THRESHOLD);
            let total = rows.iter().find(|r| r.what == "Mix / step total").unwrap();
            assert_eq!(total.cmp.verdict, verdict, "x{k}: {total:?}");
        }
    }

    impl Scenes {
        fn scaled(mut self, k: f64) -> Scenes {
            for sc in &mut self.scenes {
                for walls in &mut sc.phase_wall_ns {
                    walls.iter_mut().for_each(|w| *w *= k);
                }
            }
            self
        }
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
    fn a_doubled_digest_cost_is_over_budget() {
        // Mix at scale 0.2 has 2105 body slots; an honest cost of 60 ns
        // per body-step, and the same doubled.
        let bodies = 2105;
        let off = synthetic_side(0.0, 5);
        let cost = |per_body: f64, seed| {
            paired_step_cost(&off, &synthetic_side(per_body * bodies as f64, seed)).unwrap()
        };
        assert!(!cost(60.0, 6).over_digest_budget(bodies));
        assert!(cost(120.0, 7).over_digest_budget(bodies));
    }

    #[test]
    fn from_json_rejects_other_schemas() {
        use super::super::Fingerprint;
        assert!(Baseline::<Scenes>::from_json("not json").is_err());
        // The schema-2 scene layout.
        let v2 = "{\"schema_version\": 2, \"experiment\": \"scene_gate\"}";
        let err = Baseline::<Scenes>::from_json(v2).unwrap_err();
        assert!(err.contains("schema v2") && err.contains("v3"), "{err}");
        let other = "{\"schema_version\": 3, \"gate\": \"server\"}";
        let err = Baseline::<Scenes>::from_json(other).unwrap_err();
        assert!(err.contains("\"server\" baseline"), "{err}");
        // A spec this build cannot parse names the field.
        let doc = |run: &str| {
            let config = format!("{{\"steps\": 4, \"warmup\": 1, \"scale\": 0.05{run}}}");
            let doc = Json::obj([
                ("schema_version", Json::from(3usize)),
                ("gate", "scenes".into()),
                ("fingerprint", Fingerprint::current().to_json()),
                ("probe_ns", Json::from(400_000.0)),
                ("config", Json::parse(&config).unwrap()),
                ("scenes", Json::Arr(Vec::new())),
            ]);
            Baseline::<Scenes>::from_json(&doc.render())
        };
        assert!(doc(", \"run\": \"threads=2\"").is_ok());
        assert!(doc("").unwrap_err().contains("\"run\""));
        let err = doc(", \"run\": \"simd=neon\"").unwrap_err();
        assert!(err.contains("\"run\"") && err.contains("\"neon\""), "{err}");
    }
}
