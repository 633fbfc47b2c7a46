//! Structure-of-arrays storage for rigid-body dynamic state.
//!
//! [`BodyStore`] replaces the old `Vec<RigidBody>`: every dynamic quantity
//! (position, orientation, velocities, force accumulators, inverse mass,
//! inverse inertia, damping) lives in its own parallel `Vec<f32>` lane so
//! the integrator sweeps in `crate::integrator` can process 4 or 8 bodies
//! per instruction. Indexing is unchanged — [`crate::BodyId`] is still the
//! slot index, and bodies are disabled rather than removed, so every lane
//! vector only ever grows.
//!
//! The scalar accessor surface ([`BodyRef`], [`BodyMut`], [`BodiesView`])
//! reproduces the old `RigidBody` API expression-for-expression, so world
//! management code and external consumers are unaffected by the layout
//! change, and scalar mutations produce bit-identical results to the old
//! AoS engine.
//!
//! The store is also the single owner of the velocity gather/scatter used
//! by the constraint solver ([`BodyStore::vel_state`] /
//! `BodyStore::set_velocity`) — the solver write-back and the contact
//! cache's warm-start seeding both go through these two methods instead of
//! duplicating index arithmetic.
//!
//! `BODY_LANES` lists the store's `f32` lanes once, with their names and
//! accessors: the digests, the divergence finder and snapshot/restore
//! read that table rather than their own lists of lanes.

use parallax_math::{Mat3, Quat, Transform, Vec3};

use crate::body::{BodyDesc, BodyFlags};
use crate::solver::VelState;

/// Three parallel `f32` lanes holding a [`Vec3`] per body.
#[derive(Debug, Clone, Default)]
pub(crate) struct Lanes3 {
    pub(crate) x: Vec<f32>,
    pub(crate) y: Vec<f32>,
    pub(crate) z: Vec<f32>,
}

impl Lanes3 {
    #[inline]
    pub(crate) fn get(&self, i: usize) -> Vec3 {
        Vec3::new(self.x[i], self.y[i], self.z[i])
    }

    #[inline]
    pub(crate) fn set(&mut self, i: usize, v: Vec3) {
        self.x[i] = v.x;
        self.y[i] = v.y;
        self.z[i] = v.z;
    }

    #[inline]
    fn push(&mut self, v: Vec3) {
        self.x.push(v.x);
        self.y.push(v.y);
        self.z.push(v.z);
    }
}

/// Four parallel `f32` lanes holding a [`Quat`] per body.
#[derive(Debug, Clone, Default)]
pub(crate) struct LanesQuat {
    pub(crate) w: Vec<f32>,
    pub(crate) x: Vec<f32>,
    pub(crate) y: Vec<f32>,
    pub(crate) z: Vec<f32>,
}

impl LanesQuat {
    #[inline]
    pub(crate) fn get(&self, i: usize) -> Quat {
        Quat::new(self.w[i], self.x[i], self.y[i], self.z[i])
    }

    #[inline]
    pub(crate) fn set(&mut self, i: usize, q: Quat) {
        self.w[i] = q.w;
        self.x[i] = q.x;
        self.y[i] = q.y;
        self.z[i] = q.z;
    }

    #[inline]
    fn push(&mut self, q: Quat) {
        self.w.push(q.w);
        self.x.push(q.x);
        self.y.push(q.y);
        self.z.push(q.z);
    }
}

/// Nine parallel `f32` lanes holding a row-major [`Mat3`] per body.
///
/// Inertia tensors are stored with all nine elements (not six, despite
/// symmetry) so the SIMD world-inertia refresh can replicate the scalar
/// `r * L * rᵀ` product element-for-element.
#[derive(Debug, Clone, Default)]
pub(crate) struct LanesMat3 {
    /// `e[3*row + col]` lane vectors.
    pub(crate) e: [Vec<f32>; 9],
}

impl LanesMat3 {
    #[inline]
    pub(crate) fn get(&self, i: usize) -> Mat3 {
        Mat3::from_rows(
            Vec3::new(self.e[0][i], self.e[1][i], self.e[2][i]),
            Vec3::new(self.e[3][i], self.e[4][i], self.e[5][i]),
            Vec3::new(self.e[6][i], self.e[7][i], self.e[8][i]),
        )
    }

    #[inline]
    pub(crate) fn set(&mut self, i: usize, m: Mat3) {
        for r in 0..3 {
            self.e[3 * r][i] = m.rows[r].x;
            self.e[3 * r + 1][i] = m.rows[r].y;
            self.e[3 * r + 2][i] = m.rows[r].z;
        }
    }

    #[inline]
    fn push(&mut self, m: Mat3) {
        for r in 0..3 {
            self.e[3 * r].push(m.rows[r].x);
            self.e[3 * r + 1].push(m.rows[r].y);
            self.e[3 * r + 2].push(m.rows[r].z);
        }
    }
}

/// Which part of a body's state a lane of [`BODY_LANES`] holds.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub(crate) enum LaneClass {
    /// Pose and velocities: every digest folds them.
    Motion,
    /// Force and torque accumulators: the whole-world digest folds them.
    Load,
    /// Inverse mass, both inverse inertias and damping: fixed when the
    /// body is made, or derived from its pose; only snapshots carry them.
    Mass,
}

/// One `f32` lane of a [`BodyStore`].
pub(crate) struct BodyLane {
    /// Field path, as divergence reports name it (`"body 3 pos.x"`).
    pub(crate) name: &'static str,
    pub(crate) class: LaneClass,
    pub(crate) get: fn(&BodyStore) -> &[f32],
    pub(crate) get_mut: fn(&mut BodyStore) -> &mut Vec<f32>,
}

macro_rules! body_lanes {
    ($(($class:ident, $name:literal, $($field:tt)+)),+ $(,)?) => {
        [$(BodyLane {
            name: $name,
            class: LaneClass::$class,
            get: |b| &b.$($field)+,
            get_mut: |b| &mut b.$($field)+,
        }),+]
    };
}

/// Every `f32` lane of a [`BodyStore`], in snapshot order. The digests,
/// the divergence finder and the snapshot's body section all read this
/// table; the `u32` lanes and the sleep lanes are not in it.
pub(crate) static BODY_LANES: [BodyLane; 40] = body_lanes![
    (Motion, "pos.x", pos.x),
    (Motion, "pos.y", pos.y),
    (Motion, "pos.z", pos.z),
    (Motion, "rot.w", rot.w),
    (Motion, "rot.x", rot.x),
    (Motion, "rot.y", rot.y),
    (Motion, "rot.z", rot.z),
    (Motion, "lin_vel.x", lin_vel.x),
    (Motion, "lin_vel.y", lin_vel.y),
    (Motion, "lin_vel.z", lin_vel.z),
    (Motion, "ang_vel.x", ang_vel.x),
    (Motion, "ang_vel.y", ang_vel.y),
    (Motion, "ang_vel.z", ang_vel.z),
    (Load, "force.x", force.x),
    (Load, "force.y", force.y),
    (Load, "force.z", force.z),
    (Load, "torque.x", torque.x),
    (Load, "torque.y", torque.y),
    (Load, "torque.z", torque.z),
    (Mass, "inv_mass", inv_mass),
    (Mass, "inv_inertia_local.e[0]", inv_inertia_local.e[0]),
    (Mass, "inv_inertia_local.e[1]", inv_inertia_local.e[1]),
    (Mass, "inv_inertia_local.e[2]", inv_inertia_local.e[2]),
    (Mass, "inv_inertia_local.e[3]", inv_inertia_local.e[3]),
    (Mass, "inv_inertia_local.e[4]", inv_inertia_local.e[4]),
    (Mass, "inv_inertia_local.e[5]", inv_inertia_local.e[5]),
    (Mass, "inv_inertia_local.e[6]", inv_inertia_local.e[6]),
    (Mass, "inv_inertia_local.e[7]", inv_inertia_local.e[7]),
    (Mass, "inv_inertia_local.e[8]", inv_inertia_local.e[8]),
    (Mass, "inv_inertia_world.e[0]", inv_inertia_world.e[0]),
    (Mass, "inv_inertia_world.e[1]", inv_inertia_world.e[1]),
    (Mass, "inv_inertia_world.e[2]", inv_inertia_world.e[2]),
    (Mass, "inv_inertia_world.e[3]", inv_inertia_world.e[3]),
    (Mass, "inv_inertia_world.e[4]", inv_inertia_world.e[4]),
    (Mass, "inv_inertia_world.e[5]", inv_inertia_world.e[5]),
    (Mass, "inv_inertia_world.e[6]", inv_inertia_world.e[6]),
    (Mass, "inv_inertia_world.e[7]", inv_inertia_world.e[7]),
    (Mass, "inv_inertia_world.e[8]", inv_inertia_world.e[8]),
    (Mass, "linear_damping", linear_damping),
    (Mass, "angular_damping", angular_damping),
];

/// SoA storage of all rigid-body dynamic state in a world.
#[derive(Debug, Clone, Default)]
pub struct BodyStore {
    pub(crate) pos: Lanes3,
    pub(crate) rot: LanesQuat,
    pub(crate) lin_vel: Lanes3,
    pub(crate) ang_vel: Lanes3,
    pub(crate) force: Lanes3,
    pub(crate) torque: Lanes3,
    pub(crate) inv_mass: Vec<f32>,
    /// Inverse inertia tensor in body-local coordinates.
    pub(crate) inv_inertia_local: LanesMat3,
    /// Cached world-space inverse inertia, refreshed on integration.
    pub(crate) inv_inertia_world: LanesMat3,
    pub(crate) linear_damping: Vec<f32>,
    pub(crate) angular_damping: Vec<f32>,
    pub(crate) flags: Vec<BodyFlags>,
    /// Island index assigned during island creation (`u32::MAX` = none).
    pub(crate) island: Vec<u32>,
    /// Per-body all-ones/all-zeros bit mask (`!is_static && !is_disabled
    /// && !is_sleeping`) carried as `f32` lanes for the SIMD sweeps.
    /// Recomputed at the start of each sweep by
    /// [`BodyStore::refresh_movable_mask`] because flags can change
    /// between sweeps within one step (e.g. contact events disabling
    /// debris, or the serial sleep pass putting an island to rest).
    pub(crate) movable_mask: Vec<f32>,
    /// Exponential moving average of each body's normalized activity
    /// (`|v|²/lin_thr² + |ω|²/ang_thr²`), updated by the serial sleep
    /// pass. Below 1.0 the body counts as quiet.
    pub(crate) sleep_ema: Vec<f32>,
    /// Consecutive quiet steps per body; an island sleeps when every
    /// member's timer reaches the configured threshold.
    pub(crate) sleep_timer: Vec<u32>,
}

impl BodyStore {
    /// Number of body slots (enabled or not).
    #[inline]
    pub fn len(&self) -> usize {
        self.inv_mass.len()
    }

    /// Returns `true` when the store holds no bodies.
    #[inline]
    pub fn is_empty(&self) -> bool {
        self.inv_mass.is_empty()
    }

    /// Heap bytes of every lane.
    pub(crate) fn heap_bytes(&self) -> usize {
        use crate::heap::vec_bytes;
        let v3 = |l: &Lanes3| vec_bytes(&l.x) + vec_bytes(&l.y) + vec_bytes(&l.z);
        let m3 = |l: &LanesMat3| l.e.iter().map(vec_bytes).sum::<usize>();
        let rot = &self.rot;
        [
            &self.pos,
            &self.lin_vel,
            &self.ang_vel,
            &self.force,
            &self.torque,
        ]
        .into_iter()
        .map(v3)
        .sum::<usize>()
            + [&rot.w, &rot.x, &rot.y, &rot.z, &self.inv_mass]
                .into_iter()
                .chain([&self.linear_damping, &self.angular_damping])
                .chain([&self.movable_mask, &self.sleep_ema])
                .map(vec_bytes)
                .sum::<usize>()
            + m3(&self.inv_inertia_local)
            + m3(&self.inv_inertia_world)
            + vec_bytes(&self.flags)
            + vec_bytes(&self.island)
            + vec_bytes(&self.sleep_timer)
    }

    /// Appends a body built from `desc` and returns its slot index.
    ///
    /// Inertia comes from the first shape (or a unit sphere when the body
    /// has no shape), exactly as the old `BodyDesc::build`. Inside a
    /// [`crate::World`] use `add_body`, which also registers geoms; this
    /// is public for benchmarks and tests that drive the kernels on a
    /// bare store.
    pub fn push(&mut self, desc: &BodyDesc) -> usize {
        let i = self.len();
        let (inv_mass, inv_inertia_local) = desc.mass_properties();
        self.pos.push(desc.position);
        self.rot.push(desc.rotation);
        self.lin_vel.push(desc.lin_vel);
        self.ang_vel.push(desc.ang_vel);
        self.force.push(Vec3::ZERO);
        self.torque.push(Vec3::ZERO);
        self.inv_mass.push(inv_mass);
        self.inv_inertia_local.push(inv_inertia_local);
        self.inv_inertia_world.push(Mat3::ZERO);
        self.linear_damping.push(desc.linear_damping);
        self.angular_damping.push(desc.angular_damping);
        self.flags.push(desc.flags);
        self.island.push(u32::MAX);
        self.movable_mask.push(0.0);
        self.sleep_ema.push(0.0);
        self.sleep_timer.push(0);
        self.refresh_inertia(i);
        i
    }

    // --- scalar state accessors (bit-identical to the old `RigidBody`) ---

    /// World-space position of the centre of mass of body `i`.
    #[inline]
    pub fn position(&self, i: usize) -> Vec3 {
        self.pos.get(i)
    }

    /// World-space orientation of body `i`.
    #[inline]
    pub fn rotation(&self, i: usize) -> Quat {
        self.rot.get(i)
    }

    /// The full rigid transform of body `i`.
    #[inline]
    pub fn transform(&self, i: usize) -> Transform {
        Transform::new(self.pos.get(i), self.rot.get(i))
    }

    /// The bits of body `i`'s position and rotation: equal exactly when
    /// [`transform`](Self::transform) would return the same bits.
    #[inline]
    pub(crate) fn pose_bits(&self, i: usize) -> [u32; 7] {
        [
            self.pos.x[i],
            self.pos.y[i],
            self.pos.z[i],
            self.rot.w[i],
            self.rot.x[i],
            self.rot.y[i],
            self.rot.z[i],
        ]
        .map(f32::to_bits)
    }

    /// Linear velocity of body `i`.
    #[inline]
    pub fn linear_velocity(&self, i: usize) -> Vec3 {
        self.lin_vel.get(i)
    }

    /// Angular velocity of body `i` (world space, rad/s).
    #[inline]
    pub fn angular_velocity(&self, i: usize) -> Vec3 {
        self.ang_vel.get(i)
    }

    /// Inverse mass of body `i`; 0 for static bodies.
    #[inline]
    pub fn inv_mass(&self, i: usize) -> f32 {
        self.inv_mass[i]
    }

    /// Behaviour flags of body `i`.
    #[inline]
    pub fn flags(&self, i: usize) -> BodyFlags {
        self.flags[i]
    }

    /// Mutable behaviour flags of body `i`.
    #[inline]
    pub fn flags_mut(&mut self, i: usize) -> &mut BodyFlags {
        &mut self.flags[i]
    }

    /// Returns `true` if body `i` cannot move.
    #[inline]
    pub fn is_static(&self, i: usize) -> bool {
        self.flags[i].contains(BodyFlags::STATIC) || self.inv_mass[i] == 0.0
    }

    /// Returns `true` if body `i` is currently disabled.
    #[inline]
    pub fn is_disabled(&self, i: usize) -> bool {
        self.flags[i].contains(BodyFlags::DISABLED)
    }

    /// Returns `true` if body `i` participates in dynamics this step.
    #[inline]
    pub fn is_movable(&self, i: usize) -> bool {
        !self.is_static(i) && !self.is_disabled(i)
    }

    /// Returns `true` if body `i` is asleep (its island is at rest).
    #[inline]
    pub fn is_sleeping(&self, i: usize) -> bool {
        self.flags[i].contains(BodyFlags::SLEEPING)
    }

    /// Island slot of body `i` from the most recent island build.
    /// Sleeping bodies keep their frozen slot with
    /// [`crate::island::SLEEP_SLOT_BIT`] set.
    #[inline]
    pub fn island(&self, i: usize) -> Option<u32> {
        (self.island[i] != u32::MAX).then_some(self.island[i])
    }

    /// Raw island lane of body `i`, including the sleeping-slot encoding
    /// (`u32::MAX` = none).
    #[inline]
    pub(crate) fn island_raw(&self, i: usize) -> u32 {
        self.island[i]
    }

    /// Assigns the island slot of body `i` (`u32::MAX` = none).
    #[inline]
    pub(crate) fn set_island(&mut self, i: usize, slot: u32) {
        self.island[i] = slot;
    }

    /// Directly sets the position of body `i` (no collision response).
    #[inline]
    pub(crate) fn set_position(&mut self, i: usize, p: Vec3) {
        self.pos.set(i, p);
    }

    /// Directly sets the orientation of body `i`. Callers must
    /// [`BodyStore::refresh_inertia`] afterwards.
    #[inline]
    pub(crate) fn set_rotation(&mut self, i: usize, q: Quat) {
        self.rot.set(i, q);
    }

    /// Directly sets the linear velocity of body `i`.
    #[inline]
    pub fn set_linear_velocity(&mut self, i: usize, v: Vec3) {
        self.lin_vel.set(i, v);
    }

    /// Directly sets the angular velocity of body `i`.
    #[inline]
    pub fn set_angular_velocity(&mut self, i: usize, w: Vec3) {
        self.ang_vel.set(i, w);
    }

    /// Adds a force (N) through the centre of mass for the next step.
    #[inline]
    pub fn add_force(&mut self, i: usize, f: Vec3) {
        self.force.set(i, self.force.get(i) + f);
    }

    /// Adds a torque (N·m) for the next step.
    #[inline]
    pub fn add_torque(&mut self, i: usize, t: Vec3) {
        self.torque.set(i, self.torque.get(i) + t);
    }

    /// Applies an instantaneous impulse (kg·m/s) at world position `p`.
    pub fn apply_impulse_at(&mut self, i: usize, impulse: Vec3, p: Vec3) {
        if self.is_static(i) {
            return;
        }
        self.lin_vel
            .set(i, self.lin_vel.get(i) + impulse * self.inv_mass[i]);
        let r = p - self.pos.get(i);
        self.ang_vel.set(
            i,
            self.ang_vel.get(i) + self.inv_inertia_world.get(i) * r.cross(impulse),
        );
    }

    /// Velocity of the material point of body `i` at world position `p`.
    #[inline]
    pub fn velocity_at(&self, i: usize, p: Vec3) -> Vec3 {
        self.lin_vel.get(i) + self.ang_vel.get(i).cross(p - self.pos.get(i))
    }

    /// Kinetic energy of body `i` (0 for static bodies).
    pub fn kinetic_energy(&self, i: usize) -> f32 {
        if self.inv_mass[i] == 0.0 {
            return 0.0;
        }
        let m = 1.0 / self.inv_mass[i];
        let lin_vel = self.lin_vel.get(i);
        let ang_vel = self.ang_vel.get(i);
        let lin = 0.5 * m * lin_vel.length_squared();
        // ω · I ω / 2; recover I from I⁻¹ where possible.
        let ang = match self.inv_inertia_world.get(i).inverse() {
            Some(inertia) => 0.5 * ang_vel.dot(inertia * ang_vel),
            None => 0.0,
        };
        lin + ang
    }

    /// Refreshes the cached world-space inverse inertia of body `i` from
    /// its current orientation.
    pub(crate) fn refresh_inertia(&mut self, i: usize) {
        let r = self.rot.get(i).to_mat3();
        let w = r * self.inv_inertia_local.get(i) * r.transpose();
        self.inv_inertia_world.set(i, w);
    }

    // --- shared solver gather/scatter view ---

    /// Gathers the solver's working velocity state for body `i`.
    ///
    /// This is the single gather point shared by island solving and the
    /// contact cache's warm-start seeding; static bodies still produce a
    /// valid (all-zero-effect) state.
    #[inline]
    pub fn vel_state(&self, i: usize) -> VelState {
        VelState {
            lin: self.lin_vel.get(i),
            ang: self.ang_vel.get(i),
            inv_mass: self.inv_mass[i],
            inv_inertia: self.inv_inertia_world.get(i),
        }
    }

    /// Scatters solved velocities back to body `i` — the write-back half
    /// of [`BodyStore::vel_state`].
    #[inline]
    pub(crate) fn set_velocity(&mut self, i: usize, lin: Vec3, ang: Vec3) {
        self.lin_vel.set(i, lin);
        self.ang_vel.set(i, ang);
    }

    /// Recomputes the SIMD movability bit-mask lane from the current flags
    /// and inverse masses. Called at the start of every integrator sweep.
    pub(crate) fn refresh_movable_mask(&mut self) {
        for i in 0..self.len() {
            let movable = !(self.flags[i].contains(BodyFlags::STATIC)
                || self.inv_mass[i] == 0.0
                || self.flags[i].contains(BodyFlags::DISABLED)
                || self.flags[i].contains(BodyFlags::SLEEPING));
            self.movable_mask[i] = f32::from_bits(if movable { u32::MAX } else { 0 });
        }
    }

    /// Whether every force and torque accumulator is zero.
    pub(crate) fn forces_clear(&self) -> bool {
        [&self.force, &self.torque]
            .into_iter()
            .flat_map(|l| [&l.x, &l.y, &l.z])
            .all(|lane| lane.iter().all(|&v| v == 0.0))
    }

    /// Whether the velocity clamp would leave every body as it is: no
    /// speed above the caps, by the clamp's own length and comparison.
    pub(crate) fn speeds_within(&self, max_lin: f32, max_ang: f32) -> bool {
        (0..self.len()).all(|i| {
            !(self.lin_vel.get(i).length() > max_lin || self.ang_vel.get(i).length() > max_ang)
        })
    }

    /// Immutable view of body `i`.
    #[inline]
    pub fn body(&self, i: usize) -> BodyRef<'_> {
        BodyRef { store: self, i }
    }

    /// Iterates immutable views over every body slot.
    #[inline]
    pub fn iter(&self) -> impl Iterator<Item = BodyRef<'_>> + '_ {
        (0..self.len()).map(move |i| BodyRef { store: self, i })
    }
}

/// Immutable view of one body inside a [`BodyStore`].
///
/// Replaces `&RigidBody`: a `Copy` handle whose accessors read straight
/// from the SoA lanes.
#[derive(Debug, Clone, Copy)]
pub struct BodyRef<'a> {
    store: &'a BodyStore,
    i: usize,
}

impl BodyRef<'_> {
    /// World-space position of the centre of mass.
    #[inline]
    pub fn position(self) -> Vec3 {
        self.store.position(self.i)
    }

    /// World-space orientation.
    #[inline]
    pub fn rotation(self) -> Quat {
        self.store.rotation(self.i)
    }

    /// The full rigid transform.
    #[inline]
    pub fn transform(self) -> Transform {
        self.store.transform(self.i)
    }

    /// Linear velocity of the centre of mass.
    #[inline]
    pub fn linear_velocity(self) -> Vec3 {
        self.store.linear_velocity(self.i)
    }

    /// Angular velocity (world space, rad/s).
    #[inline]
    pub fn angular_velocity(self) -> Vec3 {
        self.store.angular_velocity(self.i)
    }

    /// Inverse mass; 0 for static bodies.
    #[inline]
    pub fn inv_mass(self) -> f32 {
        self.store.inv_mass(self.i)
    }

    /// Mass of the body (`f32::INFINITY` for static bodies).
    #[inline]
    pub fn mass(self) -> f32 {
        if self.store.inv_mass(self.i) > 0.0 {
            1.0 / self.store.inv_mass(self.i)
        } else {
            f32::INFINITY
        }
    }

    /// Behaviour flags.
    #[inline]
    pub fn flags(self) -> BodyFlags {
        self.store.flags(self.i)
    }

    /// Returns `true` if this body cannot move.
    #[inline]
    pub fn is_static(self) -> bool {
        self.store.is_static(self.i)
    }

    /// Returns `true` if the body is currently disabled.
    #[inline]
    pub fn is_disabled(self) -> bool {
        self.store.is_disabled(self.i)
    }

    /// Returns `true` if the body is asleep (its island is at rest).
    #[inline]
    pub fn is_sleeping(self) -> bool {
        self.store.is_sleeping(self.i)
    }

    /// Island index from the most recent island-creation phase.
    #[inline]
    pub fn island(self) -> Option<u32> {
        self.store.island(self.i)
    }

    /// Velocity of the material point of the body at world position `p`.
    #[inline]
    pub fn velocity_at(self, p: Vec3) -> Vec3 {
        self.store.velocity_at(self.i, p)
    }

    /// Kinetic energy of the body (0 for static bodies).
    #[inline]
    pub fn kinetic_energy(self) -> f32 {
        self.store.kinetic_energy(self.i)
    }
}

/// Mutable view of one body inside a [`BodyStore`].
///
/// Replaces `&mut RigidBody` at the `World::body_mut` surface.
#[derive(Debug)]
pub struct BodyMut<'a> {
    store: &'a mut BodyStore,
    i: usize,
}

impl<'a> BodyMut<'a> {
    #[inline]
    pub(crate) fn new(store: &'a mut BodyStore, i: usize) -> Self {
        BodyMut { store, i }
    }

    /// Immutable view of the same body.
    #[inline]
    pub fn as_ref(&self) -> BodyRef<'_> {
        BodyRef {
            store: self.store,
            i: self.i,
        }
    }

    /// World-space position of the centre of mass.
    #[inline]
    pub fn position(&self) -> Vec3 {
        self.store.position(self.i)
    }

    /// Linear velocity of the centre of mass.
    #[inline]
    pub fn linear_velocity(&self) -> Vec3 {
        self.store.linear_velocity(self.i)
    }

    /// Angular velocity (world space, rad/s).
    #[inline]
    pub fn angular_velocity(&self) -> Vec3 {
        self.store.angular_velocity(self.i)
    }

    /// Adds a force (N) through the centre of mass for the next step.
    #[inline]
    pub fn add_force(&mut self, f: Vec3) {
        self.store.add_force(self.i, f);
    }

    /// Adds a torque (N·m) for the next step.
    #[inline]
    pub fn add_torque(&mut self, t: Vec3) {
        self.store.add_torque(self.i, t);
    }

    /// Applies an instantaneous impulse (kg·m/s) at world position `p`.
    #[inline]
    pub fn apply_impulse_at(&mut self, impulse: Vec3, p: Vec3) {
        self.store.apply_impulse_at(self.i, impulse, p);
    }

    /// Directly sets the linear velocity.
    #[inline]
    pub fn set_linear_velocity(&mut self, v: Vec3) {
        self.store.set_linear_velocity(self.i, v);
    }

    /// Directly sets the angular velocity.
    #[inline]
    pub fn set_angular_velocity(&mut self, w: Vec3) {
        self.store.set_angular_velocity(self.i, w);
    }

    /// Teleports the centre of mass (no collision response, no wake).
    #[inline]
    pub fn set_position(&mut self, p: Vec3) {
        self.store.set_position(self.i, p);
    }
}

/// Immutable view over all bodies in a world — the `world.bodies()`
/// surface, replacing `&[RigidBody]`.
#[derive(Debug, Clone, Copy)]
pub struct BodiesView<'a> {
    store: &'a BodyStore,
}

impl<'a> BodiesView<'a> {
    #[inline]
    pub(crate) fn new(store: &'a BodyStore) -> Self {
        BodiesView { store }
    }

    /// Number of body slots (enabled or not).
    #[inline]
    pub fn len(self) -> usize {
        self.store.len()
    }

    /// Returns `true` when the world has no bodies.
    #[inline]
    pub fn is_empty(self) -> bool {
        self.store.is_empty()
    }

    /// View of body `i`.
    #[inline]
    pub fn get(self, i: usize) -> BodyRef<'a> {
        BodyRef {
            store: self.store,
            i,
        }
    }

    /// Iterates over all body slots.
    #[inline]
    pub fn iter(self) -> impl Iterator<Item = BodyRef<'a>> + 'a {
        let store = self.store;
        (0..store.len()).map(move |i| BodyRef { store, i })
    }
}

impl<'a> IntoIterator for BodiesView<'a> {
    type Item = BodyRef<'a>;
    type IntoIter = Box<dyn Iterator<Item = BodyRef<'a>> + 'a>;

    fn into_iter(self) -> Self::IntoIter {
        Box::new(self.iter())
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::body::BodyDesc;
    use crate::shape::Shape;

    fn single(desc: BodyDesc) -> BodyStore {
        let mut s = BodyStore::default();
        s.push(&desc);
        s
    }

    #[test]
    fn dynamic_body_has_finite_mass() {
        let s = single(BodyDesc::dynamic(Vec3::ZERO).with_shape(Shape::sphere(1.0), 2.0));
        assert!((s.body(0).mass() - 2.0).abs() < 1e-6);
        assert!(!s.is_static(0));
    }

    #[test]
    fn static_body_is_immovable() {
        let mut s = single(BodyDesc::fixed(Vec3::ZERO).with_shape(Shape::sphere(1.0), 2.0));
        assert!(s.is_static(0));
        assert_eq!(s.body(0).mass(), f32::INFINITY);
        s.apply_impulse_at(0, Vec3::new(100.0, 0.0, 0.0), Vec3::ZERO);
        assert_eq!(s.linear_velocity(0), Vec3::ZERO);
    }

    #[test]
    fn impulse_through_com_is_purely_linear() {
        let mut s = single(BodyDesc::dynamic(Vec3::ZERO).with_shape(Shape::sphere(1.0), 1.0));
        s.apply_impulse_at(0, Vec3::new(3.0, 0.0, 0.0), Vec3::ZERO);
        assert!((s.linear_velocity(0) - Vec3::new(3.0, 0.0, 0.0)).length() < 1e-6);
        assert!(s.angular_velocity(0).length() < 1e-6);
    }

    #[test]
    fn offset_impulse_induces_spin() {
        let mut s = single(BodyDesc::dynamic(Vec3::ZERO).with_shape(Shape::sphere(1.0), 1.0));
        s.apply_impulse_at(0, Vec3::new(0.0, 0.0, 1.0), Vec3::new(1.0, 0.0, 0.0));
        assert!(s.angular_velocity(0).length() > 0.0);
    }

    #[test]
    fn velocity_at_accounts_for_rotation() {
        let mut s = single(BodyDesc::dynamic(Vec3::ZERO).with_shape(Shape::sphere(1.0), 1.0));
        s.set_angular_velocity(0, Vec3::new(0.0, 0.0, 1.0));
        let v = s.velocity_at(0, Vec3::new(1.0, 0.0, 0.0));
        assert!((v - Vec3::new(0.0, 1.0, 0.0)).length() < 1e-6);
    }

    #[test]
    fn kinetic_energy_of_moving_body() {
        let mut s = single(BodyDesc::dynamic(Vec3::ZERO).with_shape(Shape::sphere(1.0), 2.0));
        s.set_linear_velocity(0, Vec3::new(3.0, 0.0, 0.0));
        assert!((s.kinetic_energy(0) - 9.0).abs() < 1e-4);
    }

    #[test]
    fn movable_mask_tracks_flags() {
        let mut s = BodyStore::default();
        s.push(&BodyDesc::dynamic(Vec3::ZERO).with_shape(Shape::sphere(1.0), 1.0));
        s.push(&BodyDesc::fixed(Vec3::ZERO));
        s.push(&BodyDesc::dynamic(Vec3::ZERO).with_shape(Shape::sphere(1.0), 1.0));
        s.flags_mut(2).insert(BodyFlags::DISABLED);
        s.refresh_movable_mask();
        assert_eq!(s.movable_mask[0].to_bits(), u32::MAX);
        assert_eq!(s.movable_mask[1].to_bits(), 0);
        assert_eq!(s.movable_mask[2].to_bits(), 0);
        // Re-enabling is picked up by the next refresh.
        s.flags_mut(2).remove(BodyFlags::DISABLED);
        s.refresh_movable_mask();
        assert_eq!(s.movable_mask[2].to_bits(), u32::MAX);
        // Sleeping bodies are masked out of the SIMD sweeps too.
        s.flags_mut(0).insert(BodyFlags::SLEEPING);
        s.refresh_movable_mask();
        assert_eq!(s.movable_mask[0].to_bits(), 0);
        assert!(s.is_sleeping(0));
        s.flags_mut(0).remove(BodyFlags::SLEEPING);
        s.refresh_movable_mask();
        assert_eq!(s.movable_mask[0].to_bits(), u32::MAX);
    }

    #[test]
    fn gather_scatter_round_trips() {
        let mut s = single(
            BodyDesc::dynamic(Vec3::new(1.0, 2.0, 3.0))
                .with_shape(Shape::cuboid(Vec3::splat(0.5)), 4.0)
                .with_velocity(Vec3::new(0.5, -1.0, 0.25)),
        );
        let v = s.vel_state(0);
        assert_eq!(v.lin, Vec3::new(0.5, -1.0, 0.25));
        assert_eq!(v.inv_mass, s.inv_mass(0));
        s.set_velocity(0, v.lin * 2.0, Vec3::new(0.0, 1.0, 0.0));
        assert_eq!(s.linear_velocity(0), Vec3::new(1.0, -2.0, 0.5));
        assert_eq!(s.angular_velocity(0), Vec3::new(0.0, 1.0, 0.0));
    }
}
