//! Automatic divergence bisection between two engine configurations.
//!
//! The engine guarantees bit-identical trajectories across thread counts
//! and SIMD modes. When that guarantee breaks — a new kernel reassociates
//! a sum, a parallel stage writes back in a racy order — the symptom is
//! "scene X differs after 200 steps" and the cause is one instruction in
//! one phase of one step. This module automates the hunt:
//!
//! 1. Run both configurations to the horizon once; if the end-state
//!    digests match, report clean.
//! 2. Binary-search the first divergent step with snapshot-restart
//!    probes: keep per-side [`SceneCheckpoint`](parallax_workloads::SceneCheckpoint)s at the last known-equal
//!    step `lo`, probe the midpoint by restoring and stepping forward,
//!    and halve. `O(log steps)` probe runs, each shorter than the last.
//! 3. Re-run the single divergent step with per-phase digests enabled to
//!    name the first divergent phase, then localize the divergence to a
//!    body chunk ([`parallax_physics::chunk_digests`]) and a named SoA
//!    lane ([`parallax_physics::first_divergence`]).
//!
//! Both sides are built from the same benchmark and scale and differ
//! only in their [`RunConfig`]. A cross-sleep bisection
//! (`sleep=on` vs `sleep=off`) is *expected* to diverge at the first
//! sleep transition — running it localizes exactly where the fast path
//! first bites, which doubles as a smoke test that the bisector
//! attributes sleep-lane divergences correctly.
//! A test-only single-ULP fault ([`DigestFault`], applied to side B)
//! lets the machinery be verified end to end.

use parallax_physics::{self as physics, DigestFault, PhaseKind};
use parallax_workloads::{BenchmarkId, RunConfig, Scene};

/// What to bisect: scene, horizon and the two configurations.
#[derive(Debug, Clone)]
pub struct BisectConfig {
    /// Benchmark scene both sides run.
    pub scene: BenchmarkId,
    /// Steps to the comparison horizon.
    pub steps: u64,
    /// Scene scale.
    pub scale: f32,
    /// Side A configuration.
    pub a: RunConfig,
    /// Side B configuration.
    pub b: RunConfig,
    /// Test-only single-ULP fault, injected into side B.
    pub fault: Option<DigestFault>,
    /// Body-chunk size for range localization.
    pub chunk: usize,
}

impl Default for BisectConfig {
    fn default() -> Self {
        BisectConfig {
            scene: BenchmarkId::Mix,
            steps: 200,
            scale: 0.25,
            a: RunConfig::default(),
            b: RunConfig::default(),
            fault: None,
            chunk: 64,
        }
    }
}

/// A localized divergence.
#[derive(Debug, Clone)]
pub struct DivergenceReport {
    /// First divergent step (the step *index*: the world's step counter
    /// before that step ran — the same indexing [`DigestFault`] uses).
    pub step: u64,
    /// First phase of that step whose digest differs; `None` if only
    /// state outside the per-phase digests diverged.
    pub phase: Option<PhaseKind>,
    /// Half-open body-index range `[lo, hi)` of the first divergent
    /// body chunk after the divergent step.
    pub body_range: Option<(usize, usize)>,
    /// First differing SoA lane (named), from
    /// [`parallax_physics::first_divergence`].
    pub lane: Option<physics::Divergence>,
    /// Run segments executed (initial full run + probes): the
    /// `O(log steps)` guarantee, asserted by tests.
    pub runs: usize,
}

/// Outcome of [`bisect`].
#[derive(Debug, Clone)]
pub enum BisectOutcome {
    /// End states were bit-identical.
    Clean {
        /// Steps both sides ran.
        steps: u64,
        /// Run segments executed.
        runs: usize,
    },
    /// End states differed; the divergence was localized.
    Diverged(DivergenceReport),
}

fn build_side(cfg: &BisectConfig, side: RunConfig, fault: Option<DigestFault>) -> Scene {
    // `digest` is off by default, so the scan stays representative of
    // production: the probes compare whole-world digests at their
    // endpoints, and only the divergent step is re-run with them on.
    let mut scene = side.build(cfg.scene, cfg.scale);
    scene.world.config_mut().digest_fault = fault;
    scene
}

fn run_to(scene: &mut Scene, target: u64) {
    while scene.world.step_count() < target {
        scene.step();
    }
}

fn sides_equal(a: &Scene, b: &Scene) -> bool {
    physics::world_digest(&a.world) == physics::world_digest(&b.world)
}

/// Runs the bisection; `progress` receives one human-readable line per
/// probe (pass a no-op to silence).
pub fn bisect(cfg: &BisectConfig, progress: &mut dyn FnMut(&str)) -> BisectOutcome {
    // The fault belongs to side B only: an environment knob at the
    // physics layer would perturb both sides identically and hide itself.
    let mut a = build_side(cfg, cfg.a, None);
    let mut b = build_side(cfg, cfg.b, cfg.fault);
    let mut cp_a = a.checkpoint();
    let mut cp_b = b.checkpoint();
    let mut runs = 1usize;

    run_to(&mut a, cfg.steps);
    run_to(&mut b, cfg.steps);
    if sides_equal(&a, &b) {
        return BisectOutcome::Clean {
            steps: cfg.steps,
            runs,
        };
    }
    progress(&format!(
        "states differ after {} steps; bisecting",
        cfg.steps
    ));

    // Invariant: both sides are bit-identical at step `lo` (their
    // checkpoints), and differ by step `hi`.
    let mut lo = 0u64;
    let mut hi = cfg.steps;
    while hi - lo > 1 {
        let m = lo + (hi - lo) / 2;
        a.restore(&cp_a).expect("restore side A checkpoint");
        b.restore(&cp_b).expect("restore side B checkpoint");
        run_to(&mut a, m);
        run_to(&mut b, m);
        runs += 1;
        if sides_equal(&a, &b) {
            lo = m;
            cp_a = a.checkpoint();
            cp_b = b.checkpoint();
            progress(&format!("step {m}: equal       (probe {runs})"));
        } else {
            hi = m;
            progress(&format!("step {m}: DIVERGED    (probe {runs})"));
        }
    }

    // The step taking both sides from lo to hi = lo+1 is the divergent
    // one. Re-run just that step with per-phase digests on.
    a.restore(&cp_a).expect("restore side A checkpoint");
    b.restore(&cp_b).expect("restore side B checkpoint");
    a.world.config_mut().digests = true;
    b.world.config_mut().digests = true;
    let pa = a.step();
    let pb = b.step();
    let da = pa.digests.expect("digests enabled on side A");
    let db = pb.digests.expect("digests enabled on side B");
    let phase = PhaseKind::ALL
        .iter()
        .zip(da.iter().zip(db.iter()))
        .find(|(_, (x, y))| x != y)
        .map(|(p, _)| *p);

    let chunks_a = physics::chunk_digests(&a.world, cfg.chunk);
    let chunks_b = physics::chunk_digests(&b.world, cfg.chunk);
    let body_range = chunks_a
        .iter()
        .zip(chunks_b.iter())
        .find(|(x, y)| x.2 != y.2)
        .map(|(x, _)| (x.0, x.1));
    let lane = physics::first_divergence(&a.world, &b.world);

    BisectOutcome::Diverged(DivergenceReport {
        step: lo,
        phase,
        body_range,
        lane,
        runs,
    })
}

impl DivergenceReport {
    /// The machine-parsable one-line summary
    /// (`divergence: step=<n> phase=<name> bodies=<lo>..<hi> lane=<loc>
    /// a=<bits> b=<bits>`); `scripts/verify.sh` greps this.
    pub fn summary(&self) -> String {
        use std::fmt::Write as _;
        let mut s = String::with_capacity(96);
        let _ = write!(s, "divergence: step={}", self.step);
        let _ = write!(
            s,
            " phase={}",
            self.phase.map_or("none", |p| p.name()).replace(' ', "")
        );
        match self.body_range {
            Some((lo, hi)) => {
                let _ = write!(s, " bodies={lo}..{hi}");
            }
            None => s.push_str(" bodies=none"),
        }
        match &self.lane {
            Some(d) => {
                let _ = write!(
                    s,
                    " lane=\"{}\" a={:#018x} b={:#018x}",
                    d.location, d.a_bits, d.b_bits
                );
            }
            None => s.push_str(" lane=none"),
        }
        s
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn identical_sides_are_clean() {
        let cfg = BisectConfig {
            scene: BenchmarkId::Periodic,
            steps: 12,
            scale: 0.05,
            ..Default::default()
        };
        match bisect(&cfg, &mut |_| {}) {
            BisectOutcome::Clean { steps, runs } => {
                assert_eq!(steps, 12);
                assert_eq!(runs, 1, "clean verdict needs exactly one full run");
            }
            BisectOutcome::Diverged(r) => panic!("spurious divergence: {}", r.summary()),
        }
    }

    /// The fault `scripts/verify.sh` injects through the CLI: the report
    /// names its step, its phase, the chunk of body 0 and the lane it
    /// flipped, which is what `chunk_digests` and `first_divergence` see.
    #[test]
    fn injected_fault_is_located_to_its_lane() {
        let cfg = BisectConfig {
            scene: BenchmarkId::Mix,
            steps: 40,
            scale: 0.1,
            fault: Some(DigestFault::parse("17:Narrowphase").expect("spec")),
            ..Default::default()
        };
        let BisectOutcome::Diverged(report) = bisect(&cfg, &mut |_| {}) else {
            panic!("the injected fault was not detected");
        };
        assert_eq!(
            (report.step, report.phase, report.body_range),
            (17, Some(PhaseKind::Narrowphase), Some((0, 64)))
        );
        let lane = report.lane.as_ref().expect("a located lane");
        assert_eq!(
            (lane.location.as_str(), lane.body),
            ("body 0 pos.x", Some(0))
        );
        assert_eq!(lane.a_bits ^ lane.b_bits, 1, "{}", report.summary());
    }
}
