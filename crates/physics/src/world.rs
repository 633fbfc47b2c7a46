//! The simulation world: owns all entities and runs the five-phase step.
//!
//! [`World::step`] implements the algorithmic flow from paper §3.1,
//! including the italicized extensions: explosion triggering, cloth contact
//! lists, pre-fractured shattering and breakable-joint checks. The phases
//! themselves live in [`crate::pipeline`] as [`StepPipeline`] stages; the
//! world keeps the entity stores and the entity-level hooks the stages
//! call back into.

use std::collections::HashMap;

use parallax_math::{Aabb, SimdMode, Transform, Vec3};

use crate::body::{BodyDesc, BodyFlags, BodyId};
use crate::cloth::{Cloth, ClothId};
use crate::contact::ContactManifold;
use crate::explosion::{BlastVolume, ExplosionConfig};
use crate::fracture::Prefractured;
use crate::heap::{map_bytes, vec_bytes, HeapBytes};
use crate::island::{ConstraintEdge, EdgeKind};
use crate::joint::{Joint, JointId, JointKind};
use crate::pipeline::StepPipeline;
use crate::probe::StepProfile;
use crate::shape::{Geom, GeomClass, GeomId, Shape};
use crate::store::{BodiesView, BodyMut, BodyRef, BodyStore};

/// Gravitational acceleration.
pub const GRAVITY: Vec3 = Vec3::new(0.0, -9.81, 0.0);
/// Time step (s) (paper: ∆t = 0.01 s).
pub const DT: f32 = 0.01;
/// Constraint-solver relaxation iterations per step (paper: 20).
pub const SOLVER_ITERATIONS: usize = 20;
/// Error-reduction parameter for positional correction.
pub const ERP: f32 = 0.2;
/// Constraint-force mixing for contacts.
pub const CONTACT_CFM: f32 = 1e-5;
/// Islands with more DOF removed than this go to the work queue
/// (paper: 25).
pub const ISLAND_QUEUE_THRESHOLD: usize = 25;
/// Linear velocity cap (m/s) for numerical stability.
pub const MAX_LINEAR_VELOCITY: f32 = 100.0;
/// Angular velocity cap (rad/s).
pub const MAX_ANGULAR_VELOCITY: f32 = 50.0;
/// Physics steps per displayed frame (paper: 3).
pub const STEPS_PER_FRAME: usize = 3;
/// Spring stiffness used by slider suspensions.
pub const SLIDER_SPRING_K: f32 = 35_000.0;
/// Spring damping used by slider suspensions.
pub const SLIDER_SPRING_C: f32 = 1_200.0;
/// Linear-velocity quietness threshold (m/s) for the sleep EMA.
pub const SLEEP_LIN_THRESHOLD: f32 = 0.08;
/// Angular-velocity quietness threshold (rad/s) for the sleep EMA.
pub const SLEEP_ANG_THRESHOLD: f32 = 0.10;
/// Consecutive quiet steps every island member needs before the island
/// sleeps.
pub const SLEEP_STEPS: u32 = 30;

/// The run's settable axes. Everything the paper fixes (∆t, solver
/// iterations, steps per frame, the queue threshold, ...) is a constant of
/// this module instead.
#[derive(Debug, Clone)]
pub struct WorldConfig {
    /// Worker threads for the parallel phases (1 = serial).
    pub threads: usize,
    /// Warm-start the contact solver from the previous step's accumulated
    /// impulses (the cross-step contact cache). On by default; turn off
    /// for ablation runs comparing cold-start convergence.
    pub warm_starting: bool,
    /// Which SIMD kernel set the hot loops use. Defaults to
    /// [`SimdMode::resolve`], the widest ISA the CPU executes. All modes
    /// are bit-identical.
    pub simd: SimdMode,
    /// Compute the per-phase state digests ([`crate::digest`]) every step
    /// and publish them as `physics.digest.<phase>` gauges +
    /// [`StepProfile::digests`]. Off by default: the digest walk costs a
    /// few percent of a step.
    pub digests: bool,
    /// Deliberate single-ULP fault injection for testing the divergence
    /// tooling (see [`crate::digest::DigestFault`]). `None` in any real
    /// run.
    pub digest_fault: Option<crate::digest::DigestFault>,
    /// Island sleeping (the temporal-coherence fast path, see
    /// [`crate::sleep`]): islands whose bodies have all been quiet for
    /// [`SLEEP_STEPS`] consecutive steps are deactivated and skipped by
    /// every phase until a wake event. Off by default.
    /// Bit-deterministic across thread counts and SIMD modes; note that
    /// sleeping zeroes residual velocities, so a sleeping run's
    /// trajectory differs from a non-sleeping run only from the first
    /// sleep event onward.
    pub sleeping: bool,
}

impl Default for WorldConfig {
    fn default() -> Self {
        WorldConfig {
            threads: 1,
            warm_starting: true,
            simd: SimdMode::resolve(),
            digests: false,
            digest_fault: None,
            sleeping: false,
        }
    }
}

/// Why a body pair is excluded from collision: each unbroken joint
/// between the two counts once, and [`World::exclude_collision`] pins the
/// pair for good. The pair collides again only when nothing holds it.
#[derive(Debug, Clone, Copy, Default)]
struct Exclusion {
    joints: u32,
    explicit: bool,
}

impl Exclusion {
    fn holds(self) -> bool {
        self.explicit || self.joints > 0
    }
}

/// Collision-excluded body pairs (jointed bodies and composite-entity
/// parts do not collide), with a per-body bit so that the narrow phase
/// consults the map only for pairs whose two bodies both appear in it.
#[derive(Debug, Default)]
pub(crate) struct Exclusions {
    pairs: HashMap<(u32, u32), Exclusion>,
    /// Per body: named by some key of `pairs` (never cleared).
    listed: Vec<bool>,
}

impl Exclusions {
    fn key(a: u32, b: u32) -> (u32, u32) {
        (a.min(b), a.max(b))
    }

    fn entry(&mut self, a: u32, b: u32) -> &mut Exclusion {
        let need = a.max(b) as usize + 1;
        if self.listed.len() < need {
            self.listed.resize(need, false);
        }
        self.listed[a as usize] = true;
        self.listed[b as usize] = true;
        self.pairs.entry(Self::key(a, b)).or_default()
    }

    fn joint_broke(&mut self, a: u32, b: u32) {
        if let Some(e) = self.pairs.get_mut(&Self::key(a, b)) {
            e.joints = e.joints.saturating_sub(1);
        }
    }

    /// Whether `body` appears in any excluded pair.
    #[inline]
    pub(crate) fn lists(&self, body: u32) -> bool {
        self.listed.get(body as usize).copied().unwrap_or(false)
    }

    /// Whether collision between the two bodies is excluded.
    #[inline]
    pub(crate) fn contains(&self, a: u32, b: u32) -> bool {
        self.pairs.get(&Self::key(a, b)).is_some_and(|e| e.holds())
    }

    /// The excluded pairs, sorted (the snapshot's canonical encoding).
    pub(crate) fn sorted_pairs(&self) -> Vec<(u32, u32)> {
        let mut pairs: Vec<(u32, u32)> = self
            .pairs
            .iter()
            .filter(|(_, e)| e.holds())
            .map(|(&k, _)| k)
            .collect();
        pairs.sort_unstable();
        pairs
    }

    /// Rebuilds the table from a snapshot's pair list and the restored
    /// joints. The counts are not in the snapshot: a pair's joint count is
    /// recounted from the unbroken joints, and a listed pair is explicit
    /// when this world (built by the same scene constructor) excluded it
    /// explicitly or when no joint accounts for it.
    pub(crate) fn restore(&mut self, listed: &[(u32, u32)], joints: &[Joint]) {
        let before = std::mem::take(&mut self.pairs);
        for j in joints.iter().filter(|j| !j.is_broken()) {
            self.entry(j.body_a.0, j.body_b.0).joints += 1;
        }
        for &(a, b) in listed {
            let was_explicit = before.get(&Self::key(a, b)).is_some_and(|e| e.explicit);
            let e = self.entry(a, b);
            e.explicit = was_explicit || e.joints == 0;
        }
    }
}

/// What a geom's cached world transform (`World::geom_xf`) and AABB
/// (`Geom::aabb`) were computed from: the bits of its body's position and
/// rotation (all zero for a world-static geom), and whether each is
/// current for that pose. A box kept while its body slept may be older
/// than the transform.
#[derive(Debug, Clone, Copy)]
pub(crate) struct GeomPose {
    pose: [u32; 7],
    xf: bool,
    aabb: bool,
}

impl GeomPose {
    /// Nothing cached: a new geom, or every geom after a restore.
    pub(crate) const NONE: GeomPose = GeomPose {
        pose: [0; 7],
        xf: false,
        aabb: false,
    };

    /// Whether the cached transform was computed from `pose` (folded
    /// branch-free with `^` and `|`: faster here than the arrays' `==`).
    #[inline]
    fn xf_for(&self, pose: &[u32; 7]) -> bool {
        let differ = self
            .pose
            .iter()
            .zip(pose)
            .fold(0, |acc, (a, b)| acc | (a ^ b));
        self.xf && differ == 0
    }
}

/// The simulation world.
///
/// See the [crate docs](crate) for a complete example.
pub struct World {
    pub(crate) config: WorldConfig,
    pub(crate) bodies: BodyStore,
    pub(crate) geoms: Vec<Geom>,
    /// Geoms attached to each body (parallel to `bodies`).
    pub(crate) body_geoms: Vec<Vec<GeomId>>,
    pub(crate) joints: Vec<Joint>,
    /// Collision-excluded body pairs (jointed bodies do not collide).
    pub(crate) exclusions: Exclusions,
    /// Per-geom classifier record and world transform, parallel to
    /// `geoms`. Written by [`World::refresh_aabbs_into`] at the start of a
    /// step and valid until that step's integration moves the bodies: the
    /// narrow phase reads them, the cloth phase (after integration) cannot.
    /// `geom_xf[i]` is meaningful only while `geoms[i]` is enabled.
    pub(crate) geom_class: Vec<GeomClass>,
    pub(crate) geom_xf: Vec<Transform>,
    /// Per geom, what its `geom_xf` entry and `aabb` were computed from
    /// (see [`GeomPose`]). Empty after a restore; the refresh pads it
    /// with [`GeomPose::NONE`] for geoms it has not seen.
    pub(crate) geom_pose: Vec<GeomPose>,
    /// The geoms a cloth could list, as of the last
    /// [`World::refresh_aabbs_into`] (which writes it when the world has
    /// cloths): every enabled geom whose body is neither disabled nor a
    /// blast volume, ascending, with the AABB that refresh cached.
    pub(crate) cloth_geoms: Vec<(u32, Aabb)>,
    /// Geoms [`World::set_body_enabled`] switched on, or whose body it
    /// switched on, since the last refresh (cleared there): listable
    /// geoms `cloth_geoms` may not hold.
    pub(crate) geoms_enabled_since_refresh: Vec<u32>,
    pub(crate) cloths: Vec<Cloth>,
    pub(crate) prefractured: Vec<Prefractured>,
    pub(crate) explosive_cfg: Vec<(u32, ExplosionConfig)>,
    pub(crate) blasts: Vec<BlastVolume>,
    /// The step pipeline; `None` only transiently while [`World::step`]
    /// has lent it out.
    pub(crate) pipeline: Option<StepPipeline>,
    /// Sleeping-island table + pending wake queue (see [`crate::sleep`]).
    pub(crate) sleep: crate::sleep::SleepSystem,
    /// Bumped by every public `&mut self` method but the step itself
    /// (construction, enable toggles, waking, direct body/cloth/config
    /// access, restore). The pipeline's whole-step coast is keyed on this
    /// epoch, so a cached step can never survive a mutation it did not
    /// observe.
    pub(crate) mutation_epoch: u64,
    pub(crate) time: f64,
    pub(crate) steps: u64,
}

impl std::fmt::Debug for World {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        f.debug_struct("World")
            .field("bodies", &self.bodies.len())
            .field("geoms", &self.geoms.len())
            .field("joints", &self.joints.len())
            .field("cloths", &self.cloths.len())
            .field("time", &self.time)
            .finish()
    }
}

impl World {
    /// Creates an empty world.
    pub fn new(config: WorldConfig) -> Self {
        let pipeline = StepPipeline::new(config.threads);
        World {
            config,
            bodies: BodyStore::default(),
            geoms: Vec::new(),
            body_geoms: Vec::new(),
            joints: Vec::new(),
            exclusions: Exclusions::default(),
            geom_class: Vec::new(),
            geom_xf: Vec::new(),
            geom_pose: Vec::new(),
            cloth_geoms: Vec::new(),
            geoms_enabled_since_refresh: Vec::new(),
            cloths: Vec::new(),
            prefractured: Vec::new(),
            explosive_cfg: Vec::new(),
            blasts: Vec::new(),
            pipeline: Some(pipeline),
            sleep: crate::sleep::SleepSystem::default(),
            mutation_epoch: 0,
            time: 0.0,
            steps: 0,
        }
    }

    /// Records an out-of-step mutation (see `mutation_epoch`).
    #[inline]
    fn touch(&mut self) {
        self.mutation_epoch = self.mutation_epoch.wrapping_add(1);
    }

    /// `true` when every enabled dynamic body is asleep and no wake is
    /// pending — nothing can move this step (see the pipeline's
    /// `QuiescentCache`).
    pub(crate) fn fully_asleep(&self) -> bool {
        self.sleep.pending_wakes.is_empty()
            && (0..self.bodies.len())
                .all(|i| !self.bodies.is_movable(i) || self.bodies.is_sleeping(i))
    }

    /// The active configuration.
    #[inline]
    pub fn config(&self) -> &WorldConfig {
        &self.config
    }

    /// Mutable access to the configuration (e.g. to change thread count).
    #[inline]
    pub fn config_mut(&mut self) -> &mut WorldConfig {
        self.touch();
        &mut self.config
    }

    /// The step pipeline (stages + persistent executor).
    #[inline]
    pub fn pipeline(&self) -> &StepPipeline {
        self.pipeline
            .as_ref()
            .expect("pipeline present outside step")
    }

    /// Simulated time (s).
    #[inline]
    pub fn time(&self) -> f64 {
        self.time
    }

    /// Steps executed so far.
    #[inline]
    pub fn step_count(&self) -> u64 {
        self.steps
    }

    // --- construction -----------------------------------------------------

    /// Adds a body described by `desc`, creating its geoms.
    pub fn add_body(&mut self, desc: BodyDesc) -> BodyId {
        self.touch();
        let idx = self.bodies.push(&desc);
        let id = BodyId(idx as u32);
        let body_transform = self.bodies.transform(idx);
        self.body_geoms.push(Vec::new());
        for (shape, local) in &desc.shapes {
            let gid = GeomId(self.geoms.len() as u32);
            let world_t = body_transform.compose(local);
            self.geoms.push(Geom {
                aabb: shape.aabb(&world_t),
                shape: shape.clone(),
                body: Some(id),
                local: *local,
                enabled: !desc.flags.contains(BodyFlags::DISABLED),
            });
            self.body_geoms[id.index()].push(gid);
        }
        id
    }

    /// Adds a world-static geom at the origin.
    pub fn add_static_geom(&mut self, shape: Shape) -> GeomId {
        self.add_static_geom_at(shape, Transform::IDENTITY)
    }

    /// Adds a world-static geom at `transform`.
    pub fn add_static_geom_at(&mut self, shape: Shape, transform: Transform) -> GeomId {
        self.touch();
        let gid = GeomId(self.geoms.len() as u32);
        self.geoms.push(Geom {
            aabb: shape.aabb(&transform),
            shape,
            body: None,
            local: transform,
            enabled: true,
        });
        gid
    }

    /// Adds a permanent joint; collision between its bodies is disabled.
    pub fn add_joint(&mut self, joint: Joint) -> JointId {
        self.touch();
        let id = JointId(self.joints.len() as u32);
        if !joint.is_broken() {
            self.exclusions.entry(joint.body_a.0, joint.body_b.0).joints += 1;
        }
        self.joints.push(joint);
        id
    }

    /// Excludes collision detection between two bodies (used for composite
    /// entities like vehicles whose parts interpenetrate by design).
    pub fn exclude_collision(&mut self, a: BodyId, b: BodyId) {
        self.touch();
        self.exclusions.entry(a.0, b.0).explicit = true;
    }

    /// Adds a cloth object.
    pub fn add_cloth(&mut self, cloth: Cloth) -> ClothId {
        self.touch();
        let id = ClothId(self.cloths.len() as u32);
        self.cloths.push(cloth);
        id
    }

    /// Marks a body explosive: on its first contact it is replaced by a
    /// blast sphere.
    pub fn make_explosive(&mut self, body: BodyId, cfg: ExplosionConfig) {
        self.touch();
        self.bodies
            .flags_mut(body.index())
            .insert(BodyFlags::EXPLOSIVE);
        self.explosive_cfg.push((body.0, cfg));
    }

    /// Adds a pre-fractured box at `position` with orientation `rotation`:
    /// an intact parent plus `pieces` debris boxes created disabled.
    ///
    /// Returns the parent body id.
    pub fn add_prefractured(
        &mut self,
        position: Vec3,
        rotation: parallax_math::Quat,
        half: Vec3,
        mass: f32,
        cfg: crate::fracture::FractureConfig,
    ) -> BodyId {
        let parent = self.add_body(
            BodyDesc::dynamic(position)
                .with_rotation(rotation)
                .with_shape(Shape::cuboid(half), mass)
                .with_flags(BodyFlags::PREFRACTURED),
        );
        let (offsets, piece_half) = Prefractured::debris_layout(half, cfg.pieces);
        let piece_mass = mass / cfg.pieces as f32;
        let mut debris = Vec::with_capacity(offsets.len());
        for off in &offsets {
            let d = self.add_body(
                BodyDesc::dynamic(position + rotation.rotate(*off))
                    .with_rotation(rotation)
                    .with_shape(Shape::cuboid(piece_half), piece_mass)
                    .with_flags(BodyFlags::DEBRIS | BodyFlags::DISABLED),
            );
            self.set_body_enabled(d, false);
            // Debris geoms stay in the collision space while dormant (ODE
            // semantics): they are considered by broad-phase and counted
            // as object-pairs, but cheaply rejected in narrow-phase.
            for g in &self.body_geoms[d.index()] {
                self.geoms[g.index()].enabled = true;
            }
            debris.push(d);
        }
        self.prefractured.push(Prefractured::new(
            parent,
            debris,
            offsets,
            cfg.scatter_speed,
        ));
        parent
    }

    // --- access -----------------------------------------------------------

    /// Immutable access to a body.
    ///
    /// # Panics
    ///
    /// Panics if `id` is out of range.
    #[inline]
    pub fn body(&self, id: BodyId) -> BodyRef<'_> {
        self.bodies.body(id.index())
    }

    /// Mutable access to a body.
    #[inline]
    pub fn body_mut(&mut self, id: BodyId) -> BodyMut<'_> {
        // Conservative: the borrow may reposition the body without waking
        // anything (e.g. teleporting a sleeping body), which the pipeline
        // cache cannot see any other way.
        self.touch();
        BodyMut::new(&mut self.bodies, id.index())
    }

    /// A view over all bodies.
    #[inline]
    pub fn bodies(&self) -> BodiesView<'_> {
        BodiesView::new(&self.bodies)
    }

    /// All geoms.
    #[inline]
    pub fn geoms(&self) -> &[Geom] {
        &self.geoms
    }

    /// Immutable access to a joint.
    #[inline]
    pub fn joint(&self, id: JointId) -> &Joint {
        &self.joints[id.index()]
    }

    /// All joints.
    #[inline]
    pub fn joints(&self) -> &[Joint] {
        &self.joints
    }

    /// Immutable access to a cloth.
    #[inline]
    pub fn cloth(&self, id: ClothId) -> &Cloth {
        &self.cloths[id.index()]
    }

    /// Mutable access to a cloth.
    #[inline]
    pub fn cloth_mut(&mut self, id: ClothId) -> &mut Cloth {
        self.touch();
        &mut self.cloths[id.index()]
    }

    /// All cloths.
    #[inline]
    pub fn cloths(&self) -> &[Cloth] {
        &self.cloths
    }

    /// Live blast volumes.
    #[inline]
    pub fn blasts(&self) -> &[BlastVolume] {
        &self.blasts
    }

    /// Enables or disables a body and its geoms.
    pub fn set_body_enabled(&mut self, id: BodyId, enabled: bool) {
        self.touch();
        // A body leaving the simulation must not linger in a sleeping
        // island; wake the island (cheap, discards parked manifolds) so
        // its remaining members re-settle on their own.
        if self.bodies.is_sleeping(id.index()) {
            self.wake_island_of(id.index(), None);
        }
        let flags = self.bodies.flags_mut(id.index());
        let was_disabled = flags.contains(BodyFlags::DISABLED);
        if enabled {
            flags.remove(BodyFlags::DISABLED);
        } else {
            flags.insert(BodyFlags::DISABLED);
        }
        for g in &self.body_geoms[id.index()] {
            let geom = &mut self.geoms[g.index()];
            if enabled && (was_disabled || !geom.enabled) {
                self.geoms_enabled_since_refresh.push(g.0);
            }
            geom.enabled = enabled;
        }
    }

    /// Count of enabled, dynamic bodies.
    pub fn enabled_dynamic_bodies(&self) -> usize {
        (0..self.bodies.len())
            .filter(|&i| self.bodies.is_movable(i))
            .count()
    }

    // --- sleeping ----------------------------------------------------------

    /// Number of currently sleeping bodies.
    pub fn sleeping_body_count(&self) -> usize {
        (0..self.bodies.len())
            .filter(|&i| self.bodies.is_sleeping(i))
            .count()
    }

    /// Number of currently sleeping islands.
    pub fn sleeping_island_count(&self) -> usize {
        self.sleep.sleeping_islands()
    }

    /// Wakes the sleeping island containing `id` (no-op when awake).
    ///
    /// The parked manifolds are discarded: the bodies have not moved, so
    /// the next step's narrow-phase regenerates identical contacts.
    pub fn wake_body(&mut self, id: BodyId) {
        self.touch();
        if self.bodies.is_sleeping(id.index()) {
            self.wake_island_of(id.index(), None);
        }
    }

    /// Wakes every sleeping island.
    pub fn wake_all(&mut self) {
        self.touch();
        for i in 0..self.bodies.len() {
            if self.bodies.is_sleeping(i) {
                self.wake_island_of(i, None);
            }
        }
    }

    /// Wakes the sleeping island that body `i` belongs to, optionally
    /// replaying its parked manifolds into `replay` (the step's manifold
    /// arena). Returns 1 if an island was woken.
    pub(crate) fn wake_island_of(
        &mut self,
        i: usize,
        replay: Option<&mut Vec<ContactManifold>>,
    ) -> usize {
        let lane = self.bodies.island_raw(i);
        if lane == u32::MAX || lane & crate::island::SLEEP_SLOT_BIT == 0 {
            return 0;
        }
        let slot = (lane & !crate::island::SLEEP_SLOT_BIT) as usize;
        let Some(isle) = self.sleep.islands[slot].take() else {
            return 0;
        };
        for &bi in &isle.bodies {
            let k = bi as usize;
            self.bodies.flags_mut(k).remove(BodyFlags::SLEEPING);
            self.bodies.set_island(k, u32::MAX);
            self.bodies.sleep_timer[k] = 0;
            self.bodies.sleep_ema[k] = crate::sleep::WAKE_EMA;
        }
        if let Some(arena) = replay {
            for m in isle.manifolds {
                if !self.manifold_is_inert(&m) {
                    arena.push(m);
                }
            }
        }
        self.sleep.free.push(slot as u32);
        1
    }

    /// Serial disturbance scan, run before the integrator consumes the
    /// force accumulators: any sleeping body with a nonzero velocity,
    /// force or torque (user impulse, blast impulse, spring) is queued
    /// for the wake pass. Index-ordered and serial for determinism.
    pub(crate) fn scan_sleep_disturbances(&mut self) {
        if self.sleep.is_idle() {
            return;
        }
        for i in 0..self.bodies.len() {
            if !self.bodies.is_sleeping(i) {
                continue;
            }
            if self.bodies.linear_velocity(i) != Vec3::ZERO
                || self.bodies.angular_velocity(i) != Vec3::ZERO
                || self.bodies.force.get(i) != Vec3::ZERO
                || self.bodies.torque.get(i) != Vec3::ZERO
            {
                self.sleep.pending_wakes.push(i as u32);
            }
        }
    }

    /// Serial wake pass, run after narrow-phase and before island
    /// creation. Wake sources: the pending disturbance queue, contact
    /// manifolds touching a sleeping body (only awake×sleeping pairs
    /// reach narrow-phase), and joints whose other side is awake and
    /// movable. Candidates are processed in ascending body order; each
    /// wake replays the island's parked manifolds into the arena so the
    /// woken island re-solves its resting contacts this very step.
    /// `candidates` is the pass's buffer. Returns the number of islands
    /// woken.
    pub(crate) fn resolve_wakes(
        &mut self,
        manifolds: &mut Vec<ContactManifold>,
        candidates: &mut Vec<u32>,
    ) -> usize {
        if self.sleep.is_idle() {
            return 0;
        }
        candidates.clear();
        candidates.append(&mut self.sleep.pending_wakes);
        for m in manifolds.iter() {
            for gid in [m.geom_a, m.geom_b] {
                if let Some(b) = self.geoms[gid.index()].body {
                    if self.bodies.is_sleeping(b.index()) {
                        candidates.push(b.0);
                    }
                }
            }
        }
        for j in &self.joints {
            if j.is_broken() {
                continue;
            }
            let (a, b) = (j.body_a.index(), j.body_b.index());
            let (sa, sb) = (self.bodies.is_sleeping(a), self.bodies.is_sleeping(b));
            if sa != sb {
                let (sleeper, other) = if sa { (a, b) } else { (b, a) };
                if self.bodies.is_movable(other) {
                    candidates.push(sleeper as u32);
                }
            }
        }
        candidates.sort_unstable();
        candidates.dedup();
        let mut woken = 0;
        for &bi in candidates.iter() {
            let i = bi as usize;
            if self.bodies.is_sleeping(i) {
                woken += self.wake_island_of(i, Some(manifolds));
            }
        }
        woken
    }

    /// Serial sleep pass, run after island processing (velocities are
    /// post-solve). Updates every awake body's activity EMA and quiet
    /// timer — unconditionally, so a sleeping-enabled run stays
    /// bit-identical to a disabled run up to its first sleep transition —
    /// then, when sleeping is enabled, deactivates every island whose
    /// members are all past the quiet threshold. Returns the number of
    /// islands put to sleep.
    pub(crate) fn update_sleep(
        &mut self,
        islands: &[crate::island::Island],
        manifolds: &[ContactManifold],
    ) -> usize {
        let lin2 = SLEEP_LIN_THRESHOLD * SLEEP_LIN_THRESHOLD;
        let ang2 = SLEEP_ANG_THRESHOLD * SLEEP_ANG_THRESHOLD;
        for i in 0..self.bodies.len() {
            if self.bodies.is_sleeping(i) {
                continue;
            }
            if self.bodies.is_movable(i) {
                let v = self.bodies.linear_velocity(i).length_squared();
                let w = self.bodies.angular_velocity(i).length_squared();
                let ema = 0.5 * self.bodies.sleep_ema[i] + 0.5 * (v / lin2 + w / ang2);
                self.bodies.sleep_ema[i] = ema;
                self.bodies.sleep_timer[i] = if ema < 1.0 {
                    self.bodies.sleep_timer[i].saturating_add(1)
                } else {
                    0
                };
            } else {
                self.bodies.sleep_ema[i] = 0.0;
                self.bodies.sleep_timer[i] = 0;
            }
        }
        if !self.config.sleeping {
            return 0;
        }
        let mut slept = 0;
        for island in islands {
            if island.bodies.is_empty() {
                continue;
            }
            let ready = island
                .bodies
                .iter()
                .all(|&bi| self.bodies.sleep_timer[bi as usize] >= SLEEP_STEPS);
            if !ready {
                continue;
            }
            let parked: Vec<ContactManifold> = island
                .manifolds
                .iter()
                .map(|&mi| manifolds[mi as usize])
                .collect();
            let slot = self.sleep.alloc();
            for &bi in &island.bodies {
                let k = bi as usize;
                self.bodies.flags_mut(k).insert(BodyFlags::SLEEPING);
                self.bodies.set_velocity(k, Vec3::ZERO, Vec3::ZERO);
                self.bodies
                    .set_island(k, crate::island::SLEEP_SLOT_BIT | slot);
            }
            self.sleep.islands[slot as usize] = Some(crate::sleep::SleepingIsland {
                bodies: island.bodies.clone(),
                manifolds: parked,
            });
            slept += 1;
        }
        slept
    }

    // --- heap accounting ---------------------------------------------------

    /// The heap bytes this world retains between steps, by component:
    /// its entities and the state its pipeline carries from one step to
    /// the next. What only a step in progress reads is the stepping
    /// thread's (see [`crate::pipeline::thread_scratch_bytes`]).
    pub fn heap_bytes(&self) -> HeapBytes {
        let geoms = vec_bytes(&self.geoms)
            + self
                .geoms
                .iter()
                .map(|g| g.shape.heap_bytes())
                .sum::<usize>()
            + vec_bytes(&self.body_geoms)
            + self.body_geoms.iter().map(vec_bytes).sum::<usize>()
            + vec_bytes(&self.geom_class)
            + vec_bytes(&self.geom_xf)
            + vec_bytes(&self.geom_pose)
            + vec_bytes(&self.cloth_geoms)
            + vec_bytes(&self.geoms_enabled_since_refresh);
        let exclusions = map_bytes(&self.exclusions.pairs) + vec_bytes(&self.exclusions.listed);
        let prefractured = (self.prefractured.iter())
            .map(|p| vec_bytes(&p.debris) + vec_bytes(&p.local_offsets))
            .sum::<usize>();
        let mut heap = HeapBytes {
            bodies: self.bodies.heap_bytes(),
            geoms,
            joints: vec_bytes(&self.joints) + exclusions,
            sleep: self.sleep.heap_bytes(),
            cloth: vec_bytes(&self.cloths)
                + self.cloths.iter().map(Cloth::heap_bytes).sum::<usize>(),
            other: vec_bytes(&self.prefractured)
                + prefractured
                + vec_bytes(&self.explosive_cfg)
                + vec_bytes(&self.blasts),
            ..HeapBytes::default()
        };
        if let Some(pipeline) = &self.pipeline {
            pipeline.add_heap_bytes(&mut heap);
        }
        heap
    }

    /// Publishes [`World::heap_bytes`] as the `physics.heap_bytes.*`
    /// gauges while telemetry is on. A recorder calls it before it takes
    /// a step's record; a step itself publishes only the stepping
    /// thread's scratch bytes (`physics.heap_bytes.thread_scratch`).
    pub fn publish_heap_bytes(&self) {
        if let (true, Some(pipeline)) = (parallax_telemetry::enabled(), &self.pipeline) {
            pipeline.publish_heap(&self.heap_bytes());
        }
    }

    // --- snapshot / restore ------------------------------------------------

    /// Serializes the complete mutable simulation state to a versioned
    /// binary blob (see [`crate::snapshot`] for the format). Restoring the
    /// blob with [`World::restore`] reproduces the trajectory bit for bit.
    pub fn snapshot(&self) -> Vec<u8> {
        crate::snapshot::snapshot(self)
    }

    /// Restores state previously captured by [`World::snapshot`].
    ///
    /// The receiving world must have been built by the same scene
    /// constructor as the snapshotted one (structural data — terrain
    /// meshes, cloth topology, fracture layouts — is matched by index,
    /// not serialized). The configuration is deliberately *not* restored:
    /// replaying one snapshot under different thread counts or SIMD modes
    /// is exactly what the divergence bisector does.
    pub fn restore(&mut self, bytes: &[u8]) -> Result<(), crate::snapshot::SnapshotError> {
        self.touch();
        crate::snapshot::restore(self, bytes)
    }

    // --- stepping -----------------------------------------------------------

    /// Runs one displayed frame: `steps_per_frame` simulation steps.
    pub fn step_frame(&mut self) -> Vec<StepProfile> {
        (0..STEPS_PER_FRAME).map(|_| self.step()).collect()
    }

    /// Advances the simulation by one ∆t, returning the work profile.
    ///
    /// The phases themselves are implemented by the [`StepPipeline`]
    /// stages; see [`crate::pipeline`].
    pub fn step(&mut self) -> StepProfile {
        let mut pipeline = self.pipeline.take().expect("pipeline present outside step");
        let profile = pipeline.step(self);
        self.pipeline = Some(pipeline);
        profile
    }

    /// Whether the next [`World::step`] is a coast: the world is at rest,
    /// its step cache is armed and nothing has touched it since, so the
    /// step only advances the clock (see the pipeline's `QuiescentCache`).
    pub fn coasts(&self) -> bool {
        self.pipeline().coasts(self)
    }

    /// Takes `n` steps at once on a world that [coasts](World::coasts),
    /// and returns `n`. The outcome is that of `n` calls to
    /// [`World::step`]: the clock is advanced by `n` single additions of
    /// `dt` (the same bits), the step count by `n`, every telemetry
    /// counter and histogram by `n` steps' worth, and the gauges and
    /// digests hold the final state. On a world that would not coast it
    /// returns 0 and changes nothing. Like `step`, it is not a mutation:
    /// the coast goes on.
    pub fn coast_n(&mut self, n: u64) -> u64 {
        if n == 0 || !self.coasts() {
            return 0;
        }
        let mut pipeline = self.pipeline.take().expect("pipeline present outside step");
        pipeline.coast_n(self, n);
        self.pipeline = Some(pipeline);
        n
    }

    // --- step internals (called by the pipeline stages) -------------------------

    pub(crate) fn apply_slider_springs(&mut self) {
        let (k, c) = (SLIDER_SPRING_K, SLIDER_SPRING_C);
        for j in &self.joints {
            if j.is_broken() {
                continue;
            }
            if let JointKind::Slider { axis_a, anchor_a } = j.kind {
                let (ia, ib) = (j.body_a.index(), j.body_b.index());
                // Both sides asleep: the displacement is frozen, so the
                // spring force is parked with the island (applying it
                // would re-wake the island every step).
                if self.bodies.is_sleeping(ia) && self.bodies.is_sleeping(ib) {
                    continue;
                }
                let ta = self.bodies.transform(ia);
                let axis = ta.apply_vector(axis_a);
                let anchor_world = ta.apply(anchor_a);
                let displacement = (self.bodies.position(ib) - anchor_world).dot(axis);
                let rel_vel =
                    (self.bodies.linear_velocity(ib) - self.bodies.linear_velocity(ia)).dot(axis);
                let f = axis * (-k * displacement - c * rel_vel);
                self.bodies.add_force(ib, f);
                self.bodies.add_force(ia, -f);
            }
        }
    }

    pub(crate) fn apply_blast_impulses(&mut self) {
        if self.blasts.is_empty() {
            return;
        }
        // A body outside every blast radius receives no impulse; one
        // bounding box over all blasts rejects such bodies with a single
        // containment test instead of a per-blast falloff evaluation.
        let mut bounds = Aabb::from_center_half_extents(
            self.blasts[0].center,
            Vec3::splat(self.blasts[0].radius),
        );
        for blast in &self.blasts[1..] {
            bounds = bounds.union(&Aabb::from_center_half_extents(
                blast.center,
                Vec3::splat(blast.radius),
            ));
        }
        for bi in 0..self.bodies.len() {
            if self.bodies.is_static(bi)
                || self.bodies.is_disabled(bi)
                || self.bodies.flags(bi).contains(BodyFlags::BLAST_VOLUME)
            {
                continue;
            }
            let pos = self.bodies.position(bi);
            if !bounds.contains_point(pos) {
                continue;
            }
            let mut total = Vec3::ZERO;
            for blast in &self.blasts {
                total += blast.impulse_at(pos);
            }
            if total != Vec3::ZERO {
                self.bodies.apply_impulse_at(bi, total, pos);
            }
        }
    }

    /// The serial pass over every geom at the start of a step: refreshes
    /// the cached AABBs into `out` for the broad phase and, in the same
    /// walk, the per-geom classifier records and world transforms the
    /// narrow phase reads (see the `geom_class` field).
    ///
    /// A geom whose body pose is bit for bit the one its transform and box
    /// were computed from keeps both (`geom_pose`): a pure function of the
    /// same bits gives the same bits, so static geoms and dormant debris
    /// cost a compare, not a transform. Sleeping bodies keep their box
    /// whatever their pose, as they always have.
    pub(crate) fn refresh_aabbs_into(&mut self, out: &mut Vec<(GeomId, Aabb)>) {
        out.clear();
        self.geoms_enabled_since_refresh.clear();
        self.cloth_geoms.clear();
        let mut cloth_geoms = (!self.cloths.is_empty()).then_some(&mut self.cloth_geoms);
        let bodies = &self.bodies;
        let exclusions = &self.exclusions;
        self.geom_class.clear();
        self.geom_xf.resize(self.geoms.len(), Transform::IDENTITY);
        self.geom_pose.resize(self.geoms.len(), GeomPose::NONE);
        for (i, g) in self.geoms.iter_mut().enumerate() {
            let mut class = GeomClass {
                body: u32::MAX,
                kind: g.shape.kind(),
                bits: 0,
            };
            let mut asleep = false;
            if let Some(b) = g.body {
                let bi = b.index();
                asleep = bodies.is_sleeping(bi);
                class.body = b.0;
                if !bodies.is_static(bi) && !asleep {
                    class.bits |= GeomClass::AWAKE_DYNAMIC;
                }
                if bodies.is_disabled(bi) {
                    class.bits |= GeomClass::BODY_DISABLED;
                }
                if exclusions.lists(b.0) {
                    class.bits |= GeomClass::EXCLUDES;
                }
            }
            if g.enabled {
                class.bits |= GeomClass::ENABLED;
            }
            self.geom_class.push(class);
            if !g.enabled {
                continue;
            }
            let cached = &mut self.geom_pose[i];
            let pose = g.body.map_or([0; 7], |b| bodies.pose_bits(b.index()));
            if !cached.xf_for(&pose) {
                self.geom_xf[i] = match g.body {
                    Some(b) => bodies.transform(b.index()).compose(&g.local),
                    None => g.local,
                };
                *cached = GeomPose {
                    pose,
                    xf: true,
                    aabb: false,
                };
            }
            // Sleeping bodies have not moved: keep the cached AABB (the
            // geom stays in the broad-phase so awake bodies can still
            // find it and trigger a contact wake).
            if !asleep && !cached.aabb {
                g.aabb = g.shape.aabb(&self.geom_xf[i]);
                cached.aabb = true;
            }
            out.push((GeomId(i as u32), g.aabb));
            if let Some(listable) = &mut cloth_geoms {
                let blast = g
                    .body
                    .is_some_and(|b| bodies.flags(b.index()).contains(BodyFlags::BLAST_VOLUME));
                if class.bits & GeomClass::BODY_DISABLED == 0 && !blast {
                    listable.push((i as u32, g.aabb));
                }
            }
        }
    }

    /// Runs the narrow-phase data path alone over an arbitrary candidate
    /// list, exactly as a step would after its broad phase: refreshes the
    /// per-geom tables, classifies `candidates` into `pairs` and collides
    /// the active ones into `manifolds` (both cleared first), in candidate
    /// order. A hook for benchmarks and differential tests; the world is
    /// not advanced.
    pub fn collide_candidates(
        &mut self,
        candidates: &[(GeomId, GeomId)],
        pairs: &mut Vec<crate::probe::PairWork>,
        manifolds: &mut Vec<ContactManifold>,
    ) {
        self.touch();
        let mut pipeline = self.pipeline.take().expect("pipeline present outside step");
        pipeline.collide_candidates(self, candidates, pairs, manifolds);
        self.pipeline = Some(pipeline);
    }

    pub(crate) fn geom_world_transform(&self, g: &Geom) -> Transform {
        match g.body {
            Some(b) => self.bodies.transform(b.index()).compose(&g.local),
            None => g.local,
        }
    }

    /// Explosion + fracture hooks. Returns (explosions, shattered).
    pub(crate) fn process_contact_events(
        &mut self,
        manifolds: &[ContactManifold],
    ) -> (usize, usize) {
        let mut to_explode: Vec<u32> = Vec::new();
        let mut to_shatter: Vec<usize> = Vec::new();

        for m in manifolds {
            let ba = self.geoms[m.geom_a.index()].body;
            let bb = self.geoms[m.geom_b.index()].body;
            for (this, other) in [(ba, bb), (bb, ba)] {
                let Some(this) = this else { continue };
                let flags = self.bodies.flags(this.index());
                let disabled = self.bodies.is_disabled(this.index());
                let other_is_blast = other
                    .map(|o| {
                        self.bodies
                            .flags(o.index())
                            .contains(BodyFlags::BLAST_VOLUME)
                    })
                    .unwrap_or(false);
                if flags.contains(BodyFlags::EXPLOSIVE)
                    && !disabled
                    && !other_is_blast
                    && !to_explode.contains(&this.0)
                {
                    to_explode.push(this.0);
                }
                if flags.contains(BodyFlags::PREFRACTURED) && !disabled && other_is_blast {
                    if let Some(pi) = self
                        .prefractured
                        .iter()
                        .position(|p| p.parent == this && !p.shattered)
                    {
                        if !to_shatter.contains(&pi) {
                            to_shatter.push(pi);
                        }
                    }
                }
            }
        }

        let explosions = to_explode.len();
        for b in to_explode {
            self.explode(BodyId(b));
        }
        let shattered = to_shatter.len();
        for pi in to_shatter {
            self.shatter(pi);
        }
        (explosions, shattered)
    }

    fn explode(&mut self, body: BodyId) {
        let cfg = self
            .explosive_cfg
            .iter()
            .find(|(b, _)| *b == body.0)
            .map(|(_, c)| *c)
            .unwrap_or_default();
        let center = self.bodies.position(body.index());
        self.set_body_enabled(body, false);
        // Blast sphere body: static, flagged, participates in CD so
        // pre-fractured objects can detect it.
        let blast_body = self.add_body(
            BodyDesc::fixed(center)
                .with_shape(Shape::sphere(cfg.blast_radius), 1.0)
                .with_flags(BodyFlags::BLAST_VOLUME),
        );
        self.blasts.push(BlastVolume {
            body: blast_body,
            center,
            radius: cfg.blast_radius,
            steps_left: cfg.duration_steps,
            impulse: cfg.impulse,
            fresh: true,
        });
    }

    fn shatter(&mut self, index: usize) {
        let (parent, debris, offsets, scatter) = {
            let p = &mut self.prefractured[index];
            p.shattered = true;
            (
                p.parent,
                p.debris.clone(),
                p.local_offsets.clone(),
                p.scatter_speed,
            )
        };
        let parent_t = self.bodies.transform(parent.index());
        let parent_vel = self.bodies.linear_velocity(parent.index());
        let center = parent_t.position;
        self.set_body_enabled(parent, false);
        for (d, off) in debris.into_iter().zip(offsets) {
            self.set_body_enabled(d, true);
            // Re-pose the piece on the parent's current transform.
            let pos = parent_t.apply(off);
            let dir = (pos - center).normalized();
            let i = d.index();
            self.bodies.set_position(i, pos);
            self.bodies.set_rotation(i, parent_t.rotation);
            self.bodies.refresh_inertia(i);
            self.bodies
                .set_linear_velocity(i, parent_vel + dir * scatter);
        }
    }

    /// Rebuilds every cloth's contact lists: the bodies (in the order of
    /// their first listed geom) and world-static geoms (ascending) whose
    /// geom is enabled and whose AABB, as cached by this step's refresh,
    /// overlaps the cloth's box grown by 0.2 m — skipping disabled bodies
    /// and blast volumes.
    ///
    /// Runs after `process_contact_events`, so the enabled bits and body
    /// flags are read as they are now (a shattered parent is gone, its
    /// debris are in) while the AABBs are the refresh's. The candidates
    /// are the refresh's `cloth_geoms` — which leaves out the dormant
    /// debris that make up most of Mix's geoms — plus the two kinds it
    /// cannot hold: geoms added since (blast bodies) and geoms switched on
    /// since (`geoms_enabled_since_refresh`), tested from `geoms`
    /// directly.
    pub(crate) fn update_cloth_contact_lists(&mut self, scratch: &mut ContactListScratch) {
        if self.cloths.is_empty() {
            return;
        }
        scratch.boxes.clear();
        scratch
            .boxes
            .extend(self.cloths.iter().map(|c| c.aabb(0.2)));
        scratch.bin_geoms(&self.cloth_geoms);

        // Candidates the table does not hold, in ascending order.
        let late = &mut scratch.late;
        late.clear();
        late.extend(self.geom_class.len() as u32..self.geoms.len() as u32);
        late.extend_from_slice(&self.geoms_enabled_since_refresh);
        late.sort_unstable();
        late.dedup();

        scratch.stamp.resize(self.bodies.len(), 0);
        for (ci, cloth) in self.cloths.iter_mut().enumerate() {
            let bb = scratch.boxes[ci];
            let hits = &mut scratch.hits[ci];
            let before = hits.len();
            for &gi in late.iter() {
                let g = &self.geoms[gi as usize];
                if g.enabled && bb.overlaps(&g.aabb) {
                    hits.push(gi);
                }
            }
            if hits.len() > before {
                hits.sort_unstable();
                hits.dedup();
            }
            scratch.epoch = scratch.epoch.wrapping_add(1);
            if scratch.epoch == 0 {
                scratch.stamp.fill(0);
                scratch.epoch = 1;
            }
            cloth.contact_bodies.clear();
            cloth.contact_static_geoms.clear();
            for &gi in hits.iter() {
                let g = &self.geoms[gi as usize];
                if !g.enabled {
                    continue;
                }
                match g.body {
                    Some(b) => {
                        let bi = b.index();
                        if self.bodies.is_disabled(bi)
                            || self.bodies.flags(bi).contains(BodyFlags::BLAST_VOLUME)
                            || scratch.stamp[bi] == scratch.epoch
                        {
                            continue;
                        }
                        scratch.stamp[bi] = scratch.epoch;
                        cloth.contact_bodies.push(b.0);
                    }
                    // World-static geoms (ground plane, terrain) collide
                    // with cloth too.
                    None => cloth.contact_static_geoms.push(gi),
                }
            }
        }
    }

    pub(crate) fn manifold_is_inert(&self, m: &ContactManifold) -> bool {
        for gid in [m.geom_a, m.geom_b] {
            let g = &self.geoms[gid.index()];
            if !g.enabled {
                return true;
            }
            if let Some(b) = g.body {
                if self.bodies.is_disabled(b.index())
                    || self
                        .bodies
                        .flags(b.index())
                        .contains(BodyFlags::BLAST_VOLUME)
                {
                    return true;
                }
            }
        }
        false
    }

    pub(crate) fn build_edges_into(
        &self,
        manifolds: &[ContactManifold],
        edges: &mut Vec<ConstraintEdge>,
    ) {
        edges.clear();
        edges.reserve(self.joints.len() + manifolds.len());
        for (i, j) in self.joints.iter().enumerate() {
            if j.is_broken() {
                continue;
            }
            if self.bodies.is_disabled(j.body_a.index())
                || self.bodies.is_disabled(j.body_b.index())
            {
                continue;
            }
            // Joints inside a sleeping island contribute no rows; the
            // wake pass already ran, so a joint touching a sleeping body
            // here has both sides asleep (or a static anchor side).
            if self.bodies.is_sleeping(j.body_a.index())
                || self.bodies.is_sleeping(j.body_b.index())
            {
                continue;
            }
            edges.push(ConstraintEdge {
                body_a: j.body_a.0,
                body_b: j.body_b.0,
                index: i as u32,
                kind: EdgeKind::Joint,
                dof: j.kind().dof_removed(),
            });
        }
        for (i, m) in manifolds.iter().enumerate() {
            let ba = self.geoms[m.geom_a.index()].body.map_or(u32::MAX, |b| b.0);
            let bb = self.geoms[m.geom_b.index()].body.map_or(u32::MAX, |b| b.0);
            let (a, b) = if ba == u32::MAX { (bb, ba) } else { (ba, bb) };
            if a == u32::MAX {
                continue;
            }
            edges.push(ConstraintEdge {
                body_a: a,
                body_b: b,
                index: i as u32,
                kind: EdgeKind::Contact,
                dof: m.len() * 3,
            });
        }
    }

    /// Feeds each joint the impulse its island's solve applied this step
    /// (`impulses[joint]`; a joint past the end had none). Returns the
    /// number of joints that broke this step.
    pub(crate) fn update_breakable_joints(&mut self, impulses: &[f32]) -> usize {
        let mut broken = 0;
        for (ji, j) in self.joints.iter_mut().enumerate() {
            let applied = impulses.get(ji).copied().unwrap_or(0.0);
            if j.update_break(applied) {
                broken += 1;
                self.exclusions.joint_broke(j.body_a.0, j.body_b.0);
            }
        }
        broken
    }

    /// Ticks blast volumes, disabling expired ones. Returns the number
    /// that expired this step.
    pub(crate) fn expire_blasts(&mut self) -> usize {
        let mut expired = 0;
        let bodies = &mut self.bodies;
        let geoms = &mut self.geoms;
        let body_geoms = &self.body_geoms;
        self.blasts.retain_mut(|blast| {
            if blast.tick() {
                true
            } else {
                expired += 1;
                bodies
                    .flags_mut(blast.body.index())
                    .insert(BodyFlags::DISABLED);
                for g in &body_geoms[blast.body.index()] {
                    geoms[g.index()].enabled = false;
                }
                false
            }
        });
        expired
    }
}

/// Reusable buffers of [`World::update_cloth_contact_lists`], owned by
/// the step pipeline.
#[derive(Debug, Default)]
pub(crate) struct ContactListScratch {
    /// Each cloth's box, grown by the contact margin.
    boxes: Vec<Aabb>,
    /// Per cloth: the geoms whose AABB overlaps its box, ascending.
    hits: Vec<Vec<u32>>,
    /// Geoms outside the refresh's table, ascending.
    late: Vec<u32>,
    /// Per body: the `epoch` it was last listed at (deduplication).
    stamp: Vec<u32>,
    epoch: u32,
}

impl ContactListScratch {
    /// Empties every list.
    pub(crate) fn clear(&mut self) {
        self.boxes.clear();
        for h in &mut self.hits {
            h.clear();
        }
        self.late.clear();
        self.stamp.clear();
    }

    /// Heap bytes the lists hold.
    pub(crate) fn heap_bytes(&self) -> usize {
        let hits: usize = self.hits.iter().map(vec_bytes).sum();
        vec_bytes(&self.boxes)
            + vec_bytes(&self.hits)
            + hits
            + vec_bytes(&self.late)
            + vec_bytes(&self.stamp)
    }

    /// Fills `hits`: for every `(geom, AABB)` of `table`, in table order,
    /// every cloth box it overlaps.
    fn bin_geoms(&mut self, table: &[(u32, Aabb)]) {
        self.hits.resize_with(self.boxes.len(), Vec::new);
        for h in &mut self.hits {
            h.clear();
        }
        for &(gid, bb) in table {
            for (ci, b) in self.boxes.iter().enumerate() {
                if b.overlaps(&bb) {
                    self.hits[ci].push(gid);
                }
            }
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    fn world() -> World {
        World::new(WorldConfig::default())
    }

    #[test]
    fn sphere_falls_and_rests_on_plane() {
        let mut w = world();
        w.add_static_geom(Shape::plane(Vec3::UNIT_Y, 0.0));
        let ball = w.add_body(
            BodyDesc::dynamic(Vec3::new(0.0, 3.0, 0.0)).with_shape(Shape::sphere(0.5), 1.0),
        );
        for _ in 0..400 {
            w.step();
        }
        let p = w.body(ball).position();
        assert!((p.y - 0.5).abs() < 0.05, "rest height {p:?}");
        assert!(w.body(ball).linear_velocity().length() < 0.1);
    }

    #[test]
    fn box_stack_is_stable() {
        let mut w = world();
        w.add_static_geom(Shape::plane(Vec3::UNIT_Y, 0.0));
        let mut ids = Vec::new();
        for i in 0..3 {
            ids.push(
                w.add_body(
                    BodyDesc::dynamic(Vec3::new(0.0, 0.5 + i as f32 * 1.001, 0.0))
                        .with_shape(Shape::cuboid(Vec3::splat(0.5)), 1.0),
                ),
            );
        }
        for _ in 0..300 {
            w.step();
        }
        for (i, id) in ids.iter().enumerate() {
            let p = w.body(*id).position();
            assert!((p.y - (0.5 + i as f32)).abs() < 0.1, "box {i} at {p:?}");
            assert!(p.x.abs() < 0.2 && p.z.abs() < 0.2, "box {i} slid to {p:?}");
        }
    }

    #[test]
    fn ball_joint_holds_pendulum_together() {
        let mut w = world();
        let anchor = w.add_body(BodyDesc::fixed(Vec3::new(0.0, 2.0, 0.0)));
        let bob = w.add_body(
            BodyDesc::dynamic(Vec3::new(1.0, 2.0, 0.0)).with_shape(Shape::sphere(0.2), 1.0),
        );
        w.add_joint(Joint::new(
            JointKind::Ball {
                anchor_a: Vec3::ZERO,
                anchor_b: Vec3::new(-1.0, 0.0, 0.0),
            },
            anchor,
            bob,
        ));
        for _ in 0..200 {
            w.step();
        }
        // The bob must stay ~1 m from the anchor.
        let d = (w.body(bob).position() - Vec3::new(0.0, 2.0, 0.0)).length();
        assert!((d - 1.0).abs() < 0.1, "pendulum length drifted to {d}");
        // And it must have swung downward.
        assert!(w.body(bob).position().y < 2.0);
    }

    #[test]
    fn islands_form_from_contact_clusters() {
        let mut w = world();
        w.add_static_geom(Shape::plane(Vec3::UNIT_Y, 0.0));
        // Two separated stacks of two touching spheres.
        for x in [0.0f32, 100.0] {
            for i in 0..2 {
                w.add_body(
                    BodyDesc::dynamic(Vec3::new(x, 0.5 + i as f32 * 0.95, 0.0))
                        .with_shape(Shape::sphere(0.5), 1.0),
                );
            }
        }
        let mut profile = StepProfile::default();
        for _ in 0..5 {
            profile = w.step();
        }
        assert_eq!(profile.islands.len(), 2, "{:?}", profile.islands.len());
    }

    #[test]
    fn explosive_body_detonates_on_contact() {
        let mut w = world();
        w.add_static_geom(Shape::plane(Vec3::UNIT_Y, 0.0));
        let bomb = w.add_body(
            BodyDesc::dynamic(Vec3::new(0.0, 1.0, 0.0)).with_shape(Shape::sphere(0.3), 1.0),
        );
        w.make_explosive(bomb, ExplosionConfig::default());
        let bystander = w.add_body(
            BodyDesc::dynamic(Vec3::new(2.0, 0.5, 0.0)).with_shape(Shape::sphere(0.5), 1.0),
        );
        let mut exploded = false;
        for _ in 0..200 {
            let p = w.step();
            if p.events.explosions > 0 {
                exploded = true;
                break;
            }
        }
        assert!(exploded, "bomb should explode when it lands");
        assert!(w.body(bomb).is_disabled());
        assert_eq!(w.blasts().len(), 1);
        // The blast pushes the bystander away.
        for _ in 0..5 {
            w.step();
        }
        assert!(
            w.body(bystander).linear_velocity().x > 0.5,
            "bystander vel {:?}",
            w.body(bystander).linear_velocity()
        );
    }

    #[test]
    fn prefractured_shatters_in_blast() {
        let mut w = world();
        w.add_static_geom(Shape::plane(Vec3::UNIT_Y, 0.0));
        let wall = w.add_prefractured(
            Vec3::new(1.5, 1.0, 0.0),
            parallax_math::Quat::IDENTITY,
            Vec3::new(0.5, 1.0, 0.5),
            8.0,
            crate::fracture::FractureConfig::default(),
        );
        let bomb = w.add_body(
            BodyDesc::dynamic(Vec3::new(0.0, 0.6, 0.0)).with_shape(Shape::sphere(0.3), 1.0),
        );
        w.make_explosive(bomb, ExplosionConfig::default());
        let mut shattered = false;
        for _ in 0..300 {
            let p = w.step();
            if p.events.shattered > 0 {
                shattered = true;
                break;
            }
        }
        assert!(shattered, "wall should shatter inside blast radius");
        assert!(w.body(wall).is_disabled());
        // Debris is enabled and moving.
        let debris_moving = w
            .bodies()
            .iter()
            .filter(|b| b.flags().contains(BodyFlags::DEBRIS))
            .any(|b| !b.is_disabled() && b.linear_velocity().length() > 0.1);
        assert!(debris_moving);
    }

    #[test]
    fn breakable_joint_snaps_under_impact() {
        let mut w = world();
        let left = w.add_body(BodyDesc::fixed(Vec3::new(-0.5, 1.0, 0.0)));
        let right = w.add_body(
            BodyDesc::dynamic(Vec3::new(0.5, 1.0, 0.0))
                .with_shape(Shape::cuboid(Vec3::splat(0.4)), 1.0),
        );
        w.add_joint(
            Joint::new(
                JointKind::Fixed {
                    anchor_a: Vec3::new(0.5, 0.0, 0.0),
                    anchor_b: Vec3::new(-0.5, 0.0, 0.0),
                },
                left,
                right,
            )
            .breakable(2.0),
        );
        // Slam a heavy fast projectile into the jointed box.
        let hammer = w.add_body(
            BodyDesc::dynamic(Vec3::new(5.0, 1.0, 0.0))
                .with_shape(Shape::sphere(0.4), 20.0)
                .with_velocity(Vec3::new(-30.0, 0.0, 0.0)),
        );
        let _ = hammer;
        let mut broke = false;
        for _ in 0..300 {
            let p = w.step();
            if p.events.joints_broken > 0 {
                broke = true;
                break;
            }
        }
        assert!(broke, "fixed joint should break under the impact");
    }

    /// Two touching boxes; whether the narrow phase lets them collide.
    fn overlapping_pair(w: &mut World) -> (BodyId, BodyId) {
        let a = w.add_body(
            BodyDesc::dynamic(Vec3::new(0.0, 1.0, 0.0))
                .with_shape(Shape::cuboid(Vec3::splat(0.5)), 1.0),
        );
        let b = w.add_body(
            BodyDesc::dynamic(Vec3::new(0.8, 1.0, 0.0))
                .with_shape(Shape::cuboid(Vec3::splat(0.5)), 1.0),
        );
        (a, b)
    }

    fn collides(w: &mut World) -> bool {
        let mut manifolds = Vec::new();
        w.collide_candidates(&[(GeomId(0), GeomId(1))], &mut Vec::new(), &mut manifolds);
        !manifolds.is_empty()
    }

    fn weak_joint(a: BodyId, b: BodyId) -> Joint {
        Joint::new(
            JointKind::Ball {
                anchor_a: Vec3::ZERO,
                anchor_b: Vec3::ZERO,
            },
            a,
            b,
        )
        .breakable(1.0)
    }

    #[test]
    fn a_pair_collides_only_once_nothing_excludes_it() {
        let mut w = world();
        let (a, b) = overlapping_pair(&mut w);
        assert!(collides(&mut w));
        w.add_joint(weak_joint(a, b));
        w.add_joint(weak_joint(a, b));
        assert!(!collides(&mut w), "jointed bodies do not collide");

        // Break the first joint: the second still excludes the pair.
        assert_eq!(w.update_breakable_joints(&[1e6]), 1);
        assert!(w.joint(JointId(0)).is_broken() && !w.joint(JointId(1)).is_broken());
        assert!(!collides(&mut w), "one of two joints broke");
        let one_left = w.snapshot();

        assert_eq!(w.update_breakable_joints(&[0.0, 1e6]), 1);
        assert!(collides(&mut w), "both joints broke");
        let none_left = w.snapshot();

        // The counts are not in the snapshot; restore derives them.
        w.restore(&one_left).expect("own snapshot");
        assert!(!collides(&mut w), "restored with one joint left");
        assert_eq!(w.update_breakable_joints(&[0.0, 1e6]), 1);
        assert!(collides(&mut w), "restored, then the last joint broke");
        w.restore(&none_left).expect("own snapshot");
        assert!(collides(&mut w), "restored with no joint left");
    }

    #[test]
    fn an_explicit_exclusion_outlives_a_broken_joint() {
        let mut w = world();
        let (a, b) = overlapping_pair(&mut w);
        w.exclude_collision(a, b);
        w.add_joint(weak_joint(a, b));
        let intact = w.snapshot();
        assert_eq!(w.update_breakable_joints(&[1e6]), 1);
        assert!(!collides(&mut w), "vehicle parts stay excluded");
        let broken = w.snapshot();
        w.restore(&intact).expect("own snapshot");
        assert_eq!(w.update_breakable_joints(&[1e6]), 1);
        assert!(!collides(&mut w), "restored, then the joint broke");
        w.restore(&broken).expect("own snapshot");
        assert!(!collides(&mut w), "restored after the joint broke");
    }

    #[test]
    fn cloth_contact_list_populates() {
        let mut w = world();
        let ball = w.add_body(
            BodyDesc::dynamic(Vec3::new(0.0, 0.5, 0.0)).with_shape(Shape::sphere(0.5), 1.0),
        );
        let _ = ball;
        let cloth = Cloth::rectangle(Vec3::new(-0.5, 1.2, -0.5), 1.0, 1.0, 5, 5, &[]);
        let cid = w.add_cloth(cloth);
        let mut touched = false;
        for _ in 0..100 {
            w.step();
            if !w.cloth(cid).contact_bodies().is_empty() {
                touched = true;
            }
        }
        assert!(touched, "falling cloth should pick up the ball");
        // Cloth must not be inside the sphere.
        for v in w.cloth(cid).vertices() {
            let d = (v.pos - w.body(ball).position()).length();
            assert!(d > 0.4, "vertex {v:?} inside ball");
        }
    }

    #[test]
    fn profile_reports_phase_work() {
        let mut w = world();
        w.add_static_geom(Shape::plane(Vec3::UNIT_Y, 0.0));
        for i in 0..10 {
            w.add_body(
                BodyDesc::dynamic(Vec3::new(i as f32 * 0.9, 0.5, 0.0))
                    .with_shape(Shape::sphere(0.5), 1.0),
            );
        }
        let p = w.step();
        assert!(p.broadphase.geoms >= 11);
        assert!(!p.pairs.is_empty());
        assert!(p.body_count >= 10);
    }

    #[test]
    fn multithreaded_step_matches_entity_counts() {
        let build = |threads: usize| {
            let cfg = WorldConfig {
                threads,
                ..Default::default()
            };
            let mut w = World::new(cfg);
            w.add_static_geom(Shape::plane(Vec3::UNIT_Y, 0.0));
            for i in 0..20 {
                w.add_body(
                    BodyDesc::dynamic(Vec3::new(
                        (i % 5) as f32 * 1.2,
                        0.5 + (i / 5) as f32 * 1.05,
                        0.0,
                    ))
                    .with_shape(Shape::cuboid(Vec3::splat(0.5)), 1.0),
                );
            }
            for _ in 0..50 {
                w.step();
            }
            w
        };
        let w1 = build(1);
        let w4 = build(4);
        // Deterministic phases must agree on entity counts; positions may
        // diverge slightly due to solver ordering, but everything must stay
        // above the floor.
        assert_eq!(w1.bodies().len(), w4.bodies().len());
        for b in w4.bodies().iter().filter(|b| !b.is_static()) {
            assert!(
                b.position().y > 0.0,
                "body fell through floor: {:?}",
                b.position()
            );
        }
    }

    #[test]
    fn frame_runs_three_steps() {
        let mut w = world();
        let profiles = w.step_frame();
        assert_eq!(profiles.len(), 3);
        assert_eq!(w.step_count(), 3);
        assert!((w.time() - 0.03).abs() < 1e-9);
    }
}

#[cfg(test)]
mod cloth_static_tests {
    use super::*;

    #[test]
    fn cloth_rests_on_world_static_ground() {
        // Regression: cloths must collide with world-static geoms (ground
        // plane / terrain added via add_static_geom), not only with bodies.
        let mut w = World::new(WorldConfig::default());
        w.add_static_geom(Shape::plane(Vec3::UNIT_Y, 0.0));
        let cid = w.add_cloth(Cloth::rectangle(
            Vec3::new(-0.5, 1.0, -0.5),
            1.0,
            1.0,
            5,
            5,
            &[],
        ));
        for _ in 0..200 {
            w.step();
        }
        assert!(
            !w.cloth(cid).contact_static_geoms().is_empty(),
            "ground plane missing from the cloth contact list"
        );
        for v in w.cloth(cid).vertices() {
            assert!(v.pos.y > -0.05, "cloth fell through the floor: {:?}", v.pos);
        }
    }

    /// The contact lists are built after `process_contact_events`, which
    /// can change a body between the AABB refresh and the list build: a
    /// bomb disabled by its own explosion, a blast body added, a
    /// pre-fractured parent disabled and its debris enabled and re-posed.
    /// A list reads the geom's enabled bit and the body's flags as they
    /// are at build time, but the AABB cached at refresh time — so the
    /// debris land on the list where they lay dormant, not where the
    /// shatter put them. This pins that answer step by step.
    #[test]
    fn contact_lists_see_mid_step_shatter() {
        let mut w = World::new(WorldConfig::default());
        let ground = w.add_static_geom(Shape::plane(Vec3::UNIT_Y, 0.0));
        // Spawned over the cloth, then moved half out of its box: the
        // dormant debris stay at the spawn pose.
        let parent = w.add_prefractured(
            Vec3::new(0.0, 0.5, 0.0),
            parallax_math::Quat::IDENTITY,
            Vec3::splat(0.5),
            8.0,
            crate::fracture::FractureConfig::default(),
        );
        w.bodies
            .set_position(parent.index(), Vec3::new(1.3, 0.5, 0.0));
        let bomb = w.add_body(
            BodyDesc::dynamic(Vec3::new(-1.2, 0.6, 0.0)).with_shape(Shape::sphere(0.3), 1.0),
        );
        w.make_explosive(bomb, ExplosionConfig::default());
        let pins: Vec<usize> = (0..16).collect();
        let cid = w.add_cloth(Cloth::rectangle(
            Vec3::new(-1.5, 0.6, -1.0),
            2.5,
            2.0,
            4,
            4,
            &pins,
        ));
        let debris = w.prefractured[0].debris.clone();
        let ids = |v: &[BodyId]| v.iter().map(|b| b.0).collect::<Vec<u32>>();

        // The explosion step: the bomb overlapped the cloth at refresh,
        // but is disabled by the time the lists are built.
        let mut steps = 0;
        while w.step().events.explosions == 0 {
            steps += 1;
            assert!(steps < 100, "the bomb never exploded");
            assert_eq!(w.cloth(cid).contact_bodies(), &[parent.0, bomb.0]);
        }
        assert_eq!(w.cloth(cid).contact_bodies(), &[parent.0]);
        assert_eq!(w.cloth(cid).contact_static_geoms(), &[ground.0]);

        // The shatter step: the parent is disabled at build time, and every
        // debris piece is listed by its dormant AABB, all of which overlap
        // the cloth.
        let p = w.step();
        assert_eq!(p.events.shattered, 1);
        assert!(w.body(parent).is_disabled());
        assert_eq!(w.cloth(cid).contact_bodies(), ids(&debris).as_slice());
        assert_eq!(w.cloth(cid).contact_static_geoms(), &[ground.0]);

        // The next refresh sees the debris where the shatter put them, half
        // of them past the cloth's box.
        w.step();
        let near = [debris[0], debris[2], debris[4], debris[6]];
        assert_eq!(w.cloth(cid).contact_bodies(), ids(&near).as_slice());
    }
}
