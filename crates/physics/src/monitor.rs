//! Per-step physics invariant monitors.
//!
//! A parallel solver that silently diverges is worse than one that
//! crashes: the simulation keeps running and every measurement taken on
//! it is garbage. Following the correctness-signal methodology of
//! distributed multi-body simulators, [`InvariantMonitor`] watches each
//! step for the catastrophic failure modes of this engine:
//!
//! * **Non-finite state** — NaN/∞ in any body position, velocity, cloth
//!   vertex or island solver residual. Flagged within one step of being
//!   seeded.
//! * **Energy drift** — the kinetic energy of the *pre-existing* body
//!   population jumping beyond a configurable factor in a single step
//!   with no discrete event (explosion, fracture, blast, joint break)
//!   to explain it. Scripted actors (cannons, shoves, drive torques)
//!   inject energy legitimately, so the bound is a divergence guard,
//!   not a conservation law: a solver blow-up multiplies energy by
//!   orders of magnitude per step and clears any sane factor.
//! * **Penetration depth** — the step's deepest contact exceeding a
//!   bound, meaning the solver lost control of an overlap.
//!
//! Violations are returned to the caller *and* counted through the
//! telemetry registry (`physics.monitor.violation.*` counters and the
//! `physics.monitor.checked_steps` counter), so `run_scene --monitor`
//! prints them live and `telemetry_report` renders a violations section
//! from a recorded JSONL stream.

use parallax_math::Vec3;
use parallax_telemetry as telemetry;

use crate::probe::StepProfile;
use crate::world::World;

/// Bounds the monitor enforces. The defaults are calibrated on the
/// benchmark suite at paper scale: every scene passes with a wide
/// margin, while a diverging solve trips within a step or two.
#[derive(Debug, Clone, Copy)]
pub struct MonitorConfig {
    /// Max allowed single-step growth factor of the kinetic energy of
    /// bodies that already existed at the previous check.
    pub energy_growth_factor: f64,
    /// Absolute kinetic-energy growth (joules) always tolerated, so
    /// near-zero baselines (a scene at rest) don't divide noise.
    pub energy_slack: f64,
    /// Max allowed contact penetration depth in meters.
    pub max_penetration: f32,
}

impl Default for MonitorConfig {
    fn default() -> Self {
        MonitorConfig {
            energy_growth_factor: 8.0,
            energy_slack: 20_000.0,
            max_penetration: 2.0,
        }
    }
}

/// One detected invariant violation.
#[derive(Debug, Clone, PartialEq)]
pub enum Violation {
    /// Non-finite value in simulation state.
    NonFinite {
        /// What carried the bad value (e.g. `"body 12 linear velocity"`).
        what: String,
    },
    /// Kinetic energy of pre-existing bodies jumped beyond the bound in
    /// a step with no discrete event.
    EnergyDrift {
        /// Energy before the step, joules.
        before: f64,
        /// Energy after the step, joules.
        after: f64,
    },
    /// A contact penetrated deeper than the configured bound.
    Penetration {
        /// Observed depth, meters.
        depth: f32,
        /// Configured bound, meters.
        bound: f32,
    },
    /// A body flagged asleep changed position between two checks.
    /// Sleeping bodies are frozen by contract (the integrator, solver
    /// and cloth coupling must all mask them out), so any movement means
    /// some phase wrote to a sleeping lane.
    SleepingMoved {
        /// Body index.
        body: u32,
    },
}

impl std::fmt::Display for Violation {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        match self {
            Violation::NonFinite { what } => write!(f, "non-finite value in {what}"),
            Violation::EnergyDrift { before, after } => {
                write!(
                    f,
                    "kinetic energy jumped {before:.1} J -> {after:.1} J in one step"
                )
            }
            Violation::Penetration { depth, bound } => {
                write!(
                    f,
                    "contact penetration {depth:.3} m exceeds bound {bound:.3} m"
                )
            }
            Violation::SleepingMoved { body } => {
                write!(f, "sleeping body {body} changed position")
            }
        }
    }
}

impl Violation {
    /// Counter suffix under `physics.monitor.violation.` this kind is
    /// recorded as.
    pub fn kind(&self) -> &'static str {
        match self {
            Violation::NonFinite { .. } => "non_finite",
            Violation::EnergyDrift { .. } => "energy_drift",
            Violation::Penetration { .. } => "penetration",
            Violation::SleepingMoved { .. } => "sleeping_moved",
        }
    }
}

struct MonitorTelemetry {
    checked_steps: telemetry::Counter,
    non_finite: telemetry::Counter,
    energy_drift: telemetry::Counter,
    penetration: telemetry::Counter,
    sleeping_moved: telemetry::Counter,
}

impl MonitorTelemetry {
    fn register() -> Self {
        MonitorTelemetry {
            checked_steps: telemetry::counter("physics.monitor.checked_steps"),
            non_finite: telemetry::counter("physics.monitor.violation.non_finite"),
            energy_drift: telemetry::counter("physics.monitor.violation.energy_drift"),
            penetration: telemetry::counter("physics.monitor.violation.penetration"),
            sleeping_moved: telemetry::counter("physics.monitor.violation.sleeping_moved"),
        }
    }

    fn count(&self, v: &Violation) {
        match v {
            Violation::NonFinite { .. } => self.non_finite.add(1),
            Violation::EnergyDrift { .. } => self.energy_drift.add(1),
            Violation::Penetration { .. } => self.penetration.add(1),
            Violation::SleepingMoved { .. } => self.sleeping_moved.add(1),
        }
    }
}

/// Stateful per-step invariant checker. Create one per monitored run
/// and call [`InvariantMonitor::check_step`] after every `World::step`.
pub struct InvariantMonitor {
    cfg: MonitorConfig,
    /// Kinetic energy of all enabled dynamic bodies at the last check.
    prev_ke: Option<f64>,
    /// Body-slot count at the last check; slots at or past this index
    /// were spawned since (cannon shots etc.) and are excluded from the
    /// growth comparison.
    prev_bodies: usize,
    /// Positions of bodies asleep at the last check, ascending by body
    /// index. A body in this list that is still asleep now must not have
    /// moved a single bit.
    prev_sleeping: Vec<(u32, Vec3)>,
    checked: u64,
    violations_total: u64,
    telemetry: MonitorTelemetry,
}

impl std::fmt::Debug for InvariantMonitor {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        f.debug_struct("InvariantMonitor")
            .field("checked", &self.checked)
            .field("violations_total", &self.violations_total)
            .finish()
    }
}

/// Caps how many `NonFinite` violations a single step reports: one bad
/// step can make every body non-finite and the details are redundant.
const MAX_NON_FINITE_PER_STEP: usize = 8;

impl InvariantMonitor {
    /// Creates a monitor with the given bounds.
    pub fn new(cfg: MonitorConfig) -> Self {
        InvariantMonitor {
            cfg,
            prev_ke: None,
            prev_bodies: 0,
            prev_sleeping: Vec::new(),
            checked: 0,
            violations_total: 0,
            telemetry: MonitorTelemetry::register(),
        }
    }

    /// Steps checked so far.
    pub fn checked_steps(&self) -> u64 {
        self.checked
    }

    /// Violations found so far, across all checks.
    pub fn violations_total(&self) -> u64 {
        self.violations_total
    }

    /// Checks all invariants against the world state after a step whose
    /// profile is `profile`. Returns this step's violations (empty =
    /// clean) and records them through the telemetry registry.
    pub fn check_step(&mut self, world: &World, profile: &StepProfile) -> Vec<Violation> {
        let mut out = Vec::new();
        self.checked += 1;
        self.telemetry.checked_steps.add(1);

        self.check_finite(world, profile, &mut out);
        self.check_energy(world, profile, &mut out);
        self.check_sleeping(world, &mut out);
        if profile.max_penetration > self.cfg.max_penetration {
            out.push(Violation::Penetration {
                depth: profile.max_penetration,
                bound: self.cfg.max_penetration,
            });
        }

        for v in &out {
            self.telemetry.count(v);
        }
        self.violations_total += out.len() as u64;
        out
    }

    fn check_finite(&self, world: &World, profile: &StepProfile, out: &mut Vec<Violation>) {
        let push = |what: String, out: &mut Vec<Violation>| {
            if out
                .iter()
                .filter(|v| matches!(v, Violation::NonFinite { .. }))
                .count()
                < MAX_NON_FINITE_PER_STEP
            {
                out.push(Violation::NonFinite { what });
            }
        };
        for (i, b) in world.bodies().iter().enumerate() {
            if b.is_disabled() {
                continue;
            }
            if !b.position().is_finite() {
                push(format!("body {i} position"), out);
            }
            if !b.linear_velocity().is_finite() {
                push(format!("body {i} linear velocity"), out);
            }
            if !b.angular_velocity().is_finite() {
                push(format!("body {i} angular velocity"), out);
            }
        }
        for (ci, cloth) in world.cloths().iter().enumerate() {
            if let Some(vi) = cloth.vertices().iter().position(|v| !v.pos.is_finite()) {
                push(format!("cloth {ci} vertex {vi} position"), out);
            }
        }
        if let Some(w) = profile.islands.iter().find(|w| !w.residual.is_finite()) {
            push(
                format!("solver residual of a {}-body island", w.bodies.len()),
                out,
            );
        }
    }

    fn check_sleeping(&mut self, world: &World, out: &mut Vec<Violation>) {
        let mut now = Vec::new();
        for (i, b) in world.bodies().iter().enumerate() {
            if b.is_sleeping() {
                now.push((i as u32, b.position()));
            }
        }
        // Both lists are ascending by body index; compare bodies that
        // were asleep at *both* checks (a wake between checks may move a
        // body legitimately).
        let mut pi = 0;
        for &(idx, pos) in &now {
            while pi < self.prev_sleeping.len() && self.prev_sleeping[pi].0 < idx {
                pi += 1;
            }
            if pi < self.prev_sleeping.len() && self.prev_sleeping[pi].0 == idx {
                let prev = self.prev_sleeping[pi].1;
                if prev.x.to_bits() != pos.x.to_bits()
                    || prev.y.to_bits() != pos.y.to_bits()
                    || prev.z.to_bits() != pos.z.to_bits()
                {
                    out.push(Violation::SleepingMoved { body: idx });
                }
            }
        }
        self.prev_sleeping = now;
    }

    fn check_energy(&mut self, world: &World, profile: &StepProfile, out: &mut Vec<Violation>) {
        // Kinetic energy of bodies that already existed last check
        // (new slots are spawned projectiles/debris whose energy is an
        // intentional injection, not drift).
        let known = world.bodies().len().min(self.prev_bodies);
        let ke_known: f64 = world
            .bodies()
            .iter()
            .take(known)
            .filter(|b| !b.is_static() && !b.is_disabled())
            .map(|b| b.kinetic_energy() as f64)
            .filter(|ke| ke.is_finite())
            .sum();

        let events = profile.events;
        let eventful = events.explosions > 0
            || events.shattered > 0
            || events.joints_broken > 0
            || !world.blasts().is_empty();
        if let Some(prev) = self.prev_ke {
            let bound = prev * self.cfg.energy_growth_factor + self.cfg.energy_slack;
            if !eventful && ke_known > bound {
                out.push(Violation::EnergyDrift {
                    before: prev,
                    after: ke_known,
                });
            }
        }

        // Next step compares against the energy of everything alive now.
        self.prev_ke = Some(
            world
                .bodies()
                .iter()
                .filter(|b| !b.is_static() && !b.is_disabled())
                .map(|b| b.kinetic_energy() as f64)
                .filter(|ke| ke.is_finite())
                .sum(),
        );
        self.prev_bodies = world.bodies().len();
    }
}

impl Default for InvariantMonitor {
    fn default() -> Self {
        InvariantMonitor::new(MonitorConfig::default())
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::body::BodyDesc;
    use crate::shape::Shape;
    use crate::world::{World, WorldConfig};
    use parallax_math::Vec3;

    fn world_with_ball() -> (World, crate::body::BodyId) {
        let mut w = World::new(WorldConfig::default());
        w.add_static_geom(Shape::plane(Vec3::UNIT_Y, 0.0));
        let ball = w.add_body(
            BodyDesc::dynamic(Vec3::new(0.0, 3.0, 0.0)).with_shape(Shape::sphere(0.5), 1.0),
        );
        (w, ball)
    }

    #[test]
    fn clean_simulation_raises_no_violations() {
        let (mut w, _) = world_with_ball();
        let mut mon = InvariantMonitor::default();
        for _ in 0..60 {
            let profile = w.step();
            let v = mon.check_step(&w, &profile);
            assert!(v.is_empty(), "unexpected violations: {v:?}");
        }
        assert_eq!(mon.checked_steps(), 60);
        assert_eq!(mon.violations_total(), 0);
    }

    #[test]
    fn seeded_nan_is_flagged_within_one_step() {
        let (mut w, ball) = world_with_ball();
        let mut mon = InvariantMonitor::default();
        let profile = w.step();
        assert!(mon.check_step(&w, &profile).is_empty());

        w.body_mut(ball)
            .set_linear_velocity(Vec3::new(f32::NAN, 0.0, 0.0));
        let profile = w.step();
        let violations = mon.check_step(&w, &profile);
        assert!(
            violations
                .iter()
                .any(|v| matches!(v, Violation::NonFinite { .. })),
            "NaN not flagged: {violations:?}"
        );
        assert!(violations[0].to_string().contains("non-finite"));
    }

    #[test]
    fn energy_explosion_without_event_is_flagged() {
        let (mut w, ball) = world_with_ball();
        let mut mon = InvariantMonitor::new(MonitorConfig {
            energy_slack: 10.0,
            ..MonitorConfig::default()
        });
        let profile = w.step();
        mon.check_step(&w, &profile);

        // Simulate a solver blow-up: a pre-existing body suddenly moving
        // at 10 km/s with no event to explain it.
        w.body_mut(ball)
            .set_linear_velocity(Vec3::new(10_000.0, 0.0, 0.0));
        let profile = w.step();
        let violations = mon.check_step(&w, &profile);
        assert!(
            violations
                .iter()
                .any(|v| matches!(v, Violation::EnergyDrift { .. })),
            "energy jump not flagged: {violations:?}"
        );
    }

    #[test]
    fn deep_penetration_is_flagged() {
        let (w, _) = world_with_ball();
        let mut mon = InvariantMonitor::default();
        let profile = StepProfile {
            max_penetration: 5.0,
            ..Default::default()
        };
        let violations = mon.check_step(&w, &profile);
        assert!(
            violations
                .iter()
                .any(|v| matches!(v, Violation::Penetration { .. })),
            "{violations:?}"
        );
        assert_eq!(violations[0].kind(), "penetration");
    }

    #[test]
    fn sleeping_body_that_moves_is_flagged() {
        let mut w = World::new(WorldConfig {
            sleeping: true,
            ..WorldConfig::default()
        });
        w.add_static_geom(Shape::plane(Vec3::UNIT_Y, 0.0));
        w.add_body(
            BodyDesc::dynamic(Vec3::new(0.0, 0.5, 0.0))
                .with_shape(Shape::cuboid(Vec3::splat(0.5)), 1.0),
        );
        let mut mon = InvariantMonitor::default();
        for _ in 0..130 {
            let profile = w.step();
            let v = mon.check_step(&w, &profile);
            assert!(v.is_empty(), "clean settle raised {v:?}");
        }
        assert!(w.sleeping_body_count() > 0, "box must be asleep by now");
        // Corrupt a sleeping body's position behind the pipeline's back:
        // the position scan doesn't wake bodies, so the monitor must.
        w.bodies.pos.x[0] += 0.5;
        let profile = w.step();
        let violations = mon.check_step(&w, &profile);
        assert!(
            violations
                .iter()
                .any(|v| matches!(v, Violation::SleepingMoved { body: 0 })),
            "moved sleeper not flagged: {violations:?}"
        );
        assert!(violations
            .iter()
            .any(|v| v.kind() == "sleeping_moved" && v.to_string().contains("sleeping body 0")));
    }

    #[test]
    fn nan_flood_is_capped_per_step() {
        let mut w = World::new(WorldConfig::default());
        let mut ids = Vec::new();
        for i in 0..32 {
            ids.push(
                w.add_body(
                    BodyDesc::dynamic(Vec3::new(i as f32 * 3.0, 1.0, 0.0))
                        .with_shape(Shape::sphere(0.2), 1.0),
                ),
            );
        }
        let mut mon = InvariantMonitor::default();
        for &id in &ids {
            w.body_mut(id)
                .set_linear_velocity(Vec3::new(f32::NAN, 0.0, 0.0));
        }
        let profile = w.step();
        let violations = mon.check_step(&w, &profile);
        let non_finite = violations
            .iter()
            .filter(|v| matches!(v, Violation::NonFinite { .. }))
            .count();
        assert!(non_finite > 0 && non_finite <= MAX_NON_FINITE_PER_STEP);
    }
}
