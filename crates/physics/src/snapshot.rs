//! Versioned binary world snapshots with a bit-identity restore
//! guarantee.
//!
//! [`snapshot`] serializes every piece of *mutable* simulation state —
//! body lanes, geoms, joints, cloth Verlet state, blast volumes,
//! fracture flags, the contact cache (warm-start impulses) and the
//! clock — to a little-endian blob; [`restore`] rebuilds that state into
//! an existing world such that stepping the restored world reproduces
//! the original trajectory bit for bit (`tests/snapshot_roundtrip.rs`).
//! This is the foundation of the flight recorder's black-box dumps and
//! of the divergence bisector's O(log n) restart search.
//!
//! # Format
//!
//! `b"PXSN"` magic, a `u32` version, then fixed-order sections. All
//! integers are little-endian; all floats are raw IEEE-754 bit patterns
//! (`to_bits`), which is what makes the round trip exact. The version is
//! bumped on any layout change; [`restore`] rejects unknown versions
//! rather than guessing. The body section writes the 40 `f32` lanes of
//! the store's lane table (`store::BODY_LANES`) in table order, then the
//! flags and island lanes.
//!
//! [`restore`] parses and validates everything before it commits, so a
//! failed restore leaves the world as it was. Every id it reads — a body,
//! a slot of the sleeping-island table, a geom — is checked against the
//! table it indexes ([`SnapshotError::IdOutOfRange`]): the bytes may come
//! from outside the process, and a bad id would panic the next step.
//!
//! Version 2 appends the island-sleeping state (per-body sleep timers
//! and activity EMAs, the sleeping-island table with its parked
//! manifolds, and the pending wake queue) after the contact-cache
//! section. Version-1 snapshots still restore: the sleep state is reset
//! to "everything awake", which is trajectory-safe because sleeping only
//! ever *skips* work an awake re-solve immediately redoes.
//!
//! # What is *not* serialized
//!
//! - **Configuration** (threads, SIMD mode, solver parameters): replaying
//!   one snapshot under different configurations is exactly what the
//!   divergence bisector does, so the receiving world keeps its own.
//! - **Shared structural assets**: heightfields and triangle meshes are
//!   recorded as structural markers and resolved against the receiving
//!   world's geom at the same index (the `Arc` is reused). Restore
//!   therefore requires a world built by the same scene constructor —
//!   which the tooling always has, since it builds both sides from
//!   [`crate::WorldConfig`] + scene parameters.
//! - **Derived state**: the SIMD movable mask is recomputed and
//!   broad-phase AABBs are refreshed at the next step.

use std::sync::Arc;

use parallax_math::{Aabb, Quat, Transform, Vec3};

use crate::body::{BodyFlags, BodyId};
use crate::cloth::ClothVertex;
use crate::contact::{ContactManifold, ContactPoint};
use crate::contact_cache::CachedPoint;
use crate::explosion::{BlastVolume, ExplosionConfig};
use crate::island::SLEEP_SLOT_BIT;
use crate::joint::JointKind;
use crate::shape::{Geom, GeomId, Shape};
use crate::sleep::{SleepSystem, SleepingIsland};
use crate::store::{BodyStore, BODY_LANES};
use crate::world::World;

/// Snapshot magic bytes.
pub const MAGIC: [u8; 4] = *b"PXSN";
/// Current snapshot format version.
pub const VERSION: u32 = 2;
/// Oldest version [`restore`] still reads (pre-sleeping snapshots).
pub const MIN_VERSION: u32 = 1;

/// Error restoring a snapshot. A failed restore leaves the world as it
/// was.
#[derive(Debug, Clone, PartialEq, Eq)]
pub enum SnapshotError {
    /// Truncated or corrupt input, a version this build does not read, or
    /// a structure the receiving world does not have.
    Invalid(String),
    /// An id that names no entry of the table it indexes: a body, a slot
    /// of the sleeping-island table or a geom.
    IdOutOfRange {
        /// The snapshot field the id was read from, e.g. `"wake queue"`.
        field: &'static str,
        /// The id.
        id: u32,
        /// Entries in the table it indexes.
        len: usize,
    },
}

impl SnapshotError {
    fn new(msg: impl Into<String>) -> Self {
        SnapshotError::Invalid(msg.into())
    }
}

impl std::fmt::Display for SnapshotError {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        match self {
            SnapshotError::Invalid(msg) => write!(f, "snapshot restore failed: {msg}"),
            SnapshotError::IdOutOfRange { field, id, len } => write!(
                f,
                "snapshot restore failed: {field} holds id {id}, outside a table of {len}"
            ),
        }
    }
}

impl std::error::Error for SnapshotError {}

// --- little-endian writer/reader ---------------------------------------

struct Writer {
    buf: Vec<u8>,
}

impl Writer {
    fn u8(&mut self, v: u8) {
        self.buf.push(v);
    }
    fn u32(&mut self, v: u32) {
        self.buf.extend_from_slice(&v.to_le_bytes());
    }
    fn u64(&mut self, v: u64) {
        self.buf.extend_from_slice(&v.to_le_bytes());
    }
    fn f32(&mut self, v: f32) {
        self.u32(v.to_bits());
    }
    fn f64(&mut self, v: f64) {
        self.u64(v.to_bits());
    }
    fn vec3(&mut self, v: Vec3) {
        self.f32(v.x);
        self.f32(v.y);
        self.f32(v.z);
    }
    fn quat(&mut self, q: Quat) {
        self.f32(q.w);
        self.f32(q.x);
        self.f32(q.y);
        self.f32(q.z);
    }
    fn f32_lane(&mut self, lane: &[f32]) {
        for &v in lane {
            self.f32(v);
        }
    }
}

struct Reader<'a> {
    buf: &'a [u8],
    pos: usize,
}

impl<'a> Reader<'a> {
    fn take(&mut self, n: usize) -> Result<&'a [u8], SnapshotError> {
        let end = self
            .pos
            .checked_add(n)
            .filter(|&e| e <= self.buf.len())
            .ok_or_else(|| {
                SnapshotError::new(format!("truncated at byte {} (need {n} more)", self.pos))
            })?;
        let s = &self.buf[self.pos..end];
        self.pos = end;
        Ok(s)
    }
    fn u8(&mut self) -> Result<u8, SnapshotError> {
        Ok(self.take(1)?[0])
    }
    fn u32(&mut self) -> Result<u32, SnapshotError> {
        Ok(u32::from_le_bytes(self.take(4)?.try_into().expect("4")))
    }
    fn u64(&mut self) -> Result<u64, SnapshotError> {
        Ok(u64::from_le_bytes(self.take(8)?.try_into().expect("8")))
    }
    /// A `u64` count validated against a per-element floor so corrupt
    /// input cannot trigger an absurd allocation.
    fn count(&mut self, elem_bytes: usize) -> Result<usize, SnapshotError> {
        let n = self.u64()? as usize;
        let remaining = self.buf.len() - self.pos;
        if n.saturating_mul(elem_bytes.max(1)) > remaining {
            return Err(SnapshotError::new(format!(
                "count {n} at byte {} exceeds remaining {remaining} bytes",
                self.pos
            )));
        }
        Ok(n)
    }
    fn f32(&mut self) -> Result<f32, SnapshotError> {
        Ok(f32::from_bits(self.u32()?))
    }
    fn f64(&mut self) -> Result<f64, SnapshotError> {
        Ok(f64::from_bits(self.u64()?))
    }
    fn vec3(&mut self) -> Result<Vec3, SnapshotError> {
        Ok(Vec3::new(self.f32()?, self.f32()?, self.f32()?))
    }
    fn quat(&mut self) -> Result<Quat, SnapshotError> {
        Ok(Quat::new(
            self.f32()?,
            self.f32()?,
            self.f32()?,
            self.f32()?,
        ))
    }
    fn u32_lane(&mut self, n: usize) -> Result<Vec<u32>, SnapshotError> {
        let bytes = self.take(n * 4)?;
        Ok(bytes
            .chunks_exact(4)
            .map(|c| u32::from_le_bytes(c.try_into().expect("4")))
            .collect())
    }
    fn f32_lane(&mut self, n: usize) -> Result<Vec<f32>, SnapshotError> {
        Ok(self.u32_lane(n)?.into_iter().map(f32::from_bits).collect())
    }
    /// An id into a table of `len` entries, read from `field`.
    fn id(&mut self, field: &'static str, len: usize) -> Result<u32, SnapshotError> {
        let id = self.u32()?;
        check_id(field, id, len)?;
        Ok(id)
    }
    /// A counted list of ids into a table of `len` entries.
    fn ids(&mut self, field: &'static str, len: usize) -> Result<Vec<u32>, SnapshotError> {
        let n = self.count(4)?;
        let ids = self.u32_lane(n)?;
        ids.iter().try_for_each(|&id| check_id(field, id, len))?;
        Ok(ids)
    }
}

/// Refuses an id that names no entry of the table it indexes, before the
/// step that would index with it panics.
fn check_id(field: &'static str, id: u32, len: usize) -> Result<(), SnapshotError> {
    if (id as usize) < len {
        Ok(())
    } else {
        Err(SnapshotError::IdOutOfRange { field, id, len })
    }
}

// --- snapshot -----------------------------------------------------------

/// Serializes the world's mutable state. See the module docs for the
/// format and for what is deliberately left out.
pub fn snapshot(world: &World) -> Vec<u8> {
    let mut w = Writer {
        buf: Vec::with_capacity(64 + world.bodies.len() * 42 * 4),
    };
    w.buf.extend_from_slice(&MAGIC);
    w.u32(VERSION);
    w.u64(world.steps);
    w.f64(world.time);

    // Bodies: every f32 lane in table order, then flags and islands.
    let b = &world.bodies;
    w.u64(b.len() as u64);
    for lane in &BODY_LANES {
        w.f32_lane((lane.get)(b));
    }
    for f in &b.flags {
        w.u32(f.0);
    }
    for &i in &b.island {
        w.u32(i);
    }

    // Geoms.
    w.u64(world.geoms.len() as u64);
    for g in &world.geoms {
        match &g.shape {
            Shape::Sphere { radius } => {
                w.u8(0);
                w.f32(*radius);
            }
            Shape::Cuboid { half } => {
                w.u8(1);
                w.vec3(*half);
            }
            Shape::Capsule { radius, half_len } => {
                w.u8(2);
                w.f32(*radius);
                w.f32(*half_len);
            }
            Shape::Plane { normal, offset } => {
                w.u8(3);
                w.vec3(*normal);
                w.f32(*offset);
            }
            // Shared assets: structural markers, resolved by index on
            // restore (the receiving world's Arc is reused).
            Shape::Heightfield(_) => w.u8(4),
            Shape::TriMesh(_) => w.u8(5),
        }
        w.u32(g.body.map_or(u32::MAX, |id| id.0));
        w.vec3(g.local.position);
        w.quat(g.local.rotation);
        w.vec3(g.aabb.min);
        w.vec3(g.aabb.max);
        w.u8(g.enabled as u8);
    }

    // Body → geom lists.
    w.u64(world.body_geoms.len() as u64);
    for geoms in &world.body_geoms {
        w.u64(geoms.len() as u64);
        for g in geoms {
            w.u32(g.0);
        }
    }

    // Joints.
    w.u64(world.joints.len() as u64);
    for j in &world.joints {
        match &j.kind {
            JointKind::Ball { anchor_a, anchor_b } => {
                w.u8(0);
                w.vec3(*anchor_a);
                w.vec3(*anchor_b);
            }
            JointKind::Hinge {
                anchor_a,
                anchor_b,
                axis_a,
                axis_b,
            } => {
                w.u8(1);
                w.vec3(*anchor_a);
                w.vec3(*anchor_b);
                w.vec3(*axis_a);
                w.vec3(*axis_b);
            }
            JointKind::Slider { axis_a, anchor_a } => {
                w.u8(2);
                w.vec3(*axis_a);
                w.vec3(*anchor_a);
            }
            JointKind::Fixed { anchor_a, anchor_b } => {
                w.u8(3);
                w.vec3(*anchor_a);
                w.vec3(*anchor_b);
            }
        }
        w.u32(j.body_a.0);
        w.u32(j.body_b.0);
        match j.break_threshold {
            Some(t) => {
                w.u8(1);
                w.f32(t);
            }
            None => w.u8(0),
        }
        w.f32(j.accumulated_load);
        w.u8(j.broken as u8);
        w.f32(j.last_impulse);
    }

    // Collision-excluded pairs, sorted for a canonical encoding.
    let pairs = world.exclusions.sorted_pairs();
    w.u64(pairs.len() as u64);
    for (a, b) in pairs {
        w.u32(a);
        w.u32(b);
    }

    // Cloths: Verlet state + contact lists (topology is structural).
    w.u64(world.cloths.len() as u64);
    for c in &world.cloths {
        w.u64(c.vertices().len() as u64);
        for v in c.vertices() {
            w.vec3(v.pos);
            w.vec3(v.prev);
            w.u8(v.pinned as u8);
        }
        w.u64(c.contact_bodies.len() as u64);
        for &b in &c.contact_bodies {
            w.u32(b);
        }
        w.u64(c.contact_static_geoms.len() as u64);
        for &g in &c.contact_static_geoms {
            w.u32(g);
        }
    }

    // Pre-fractured objects: only the shatter flag is mutable.
    w.u64(world.prefractured.len() as u64);
    for p in &world.prefractured {
        w.u8(p.shattered as u8);
    }

    // Explosive configs (this list grows mid-run).
    w.u64(world.explosive_cfg.len() as u64);
    for (body, cfg) in &world.explosive_cfg {
        w.u32(*body);
        w.f32(cfg.blast_radius);
        w.u32(cfg.duration_steps);
        w.f32(cfg.impulse);
    }

    // Live blast volumes.
    w.u64(world.blasts.len() as u64);
    for b in &world.blasts {
        w.u32(b.body.0);
        w.vec3(b.center);
        w.f32(b.radius);
        w.u32(b.steps_left);
        w.f32(b.impulse);
        w.u8(b.fresh as u8);
    }

    // Contact cache (warm-start impulses), sorted by key for a canonical
    // encoding (HashMap iteration order is not deterministic).
    let cache = world
        .pipeline
        .as_ref()
        .expect("pipeline present outside step")
        .contact_cache();
    let entries = cache.sorted_entries();
    w.u64(entries.len() as u64);
    for (&(a, b), pair) in entries {
        w.u32(a.0);
        w.u32(b.0);
        w.u32(pair.age());
        w.u64(pair.points().len() as u64);
        for p in pair.points() {
            w.u32(p.feature);
            w.vec3(p.position);
            w.f32(p.lambdas[0]);
            w.f32(p.lambdas[1]);
            w.f32(p.lambdas[2]);
        }
    }

    // --- v2: island-sleeping state ------------------------------------
    for &t in &b.sleep_timer {
        w.u32(t);
    }
    w.f32_lane(&b.sleep_ema);
    let s = &world.sleep;
    w.u64(s.islands.len() as u64);
    for slot in &s.islands {
        let Some(isl) = slot else {
            w.u8(0);
            continue;
        };
        w.u8(1);
        w.u64(isl.bodies.len() as u64);
        for &bi in &isl.bodies {
            w.u32(bi);
        }
        w.u64(isl.manifolds.len() as u64);
        for m in &isl.manifolds {
            w.u32(m.geom_a.0);
            w.u32(m.geom_b.0);
            w.f32(m.friction);
            w.f32(m.restitution);
            w.u64(m.points.len() as u64);
            for p in &m.points {
                w.vec3(p.position);
                w.vec3(p.normal);
                w.f32(p.depth);
                w.u32(p.feature);
            }
        }
    }
    w.u64(s.free.len() as u64);
    for &f in &s.free {
        w.u32(f);
    }
    w.u64(s.pending_wakes.len() as u64);
    for &p in &s.pending_wakes {
        w.u32(p);
    }

    w.buf
}

// --- restore ------------------------------------------------------------

/// Restores state captured by [`snapshot`] into `world`. The world keeps
/// its configuration; see the module docs for the structural-match
/// requirements.
pub fn restore(world: &mut World, bytes: &[u8]) -> Result<(), SnapshotError> {
    let mut r = Reader { buf: bytes, pos: 0 };
    if r.take(4)? != MAGIC {
        return Err(SnapshotError::new("bad magic (not a parallax snapshot)"));
    }
    let version = r.u32()?;
    if !(MIN_VERSION..=VERSION).contains(&version) {
        return Err(SnapshotError::new(format!(
            "unsupported snapshot version {version} (this build reads {MIN_VERSION}..={VERSION})"
        )));
    }
    let steps = r.u64()?;
    let time = r.f64()?;

    // Bodies, into a store of their own until everything has validated.
    let n = r.count(BODY_LANES.len() * 4)?;
    let mut bodies = BodyStore::default();
    for lane in &BODY_LANES {
        *(lane.get_mut)(&mut bodies) = r.f32_lane(n)?;
    }
    bodies.flags = r.u32_lane(n)?.into_iter().map(BodyFlags).collect();
    bodies.island = r.u32_lane(n)?;
    bodies.movable_mask = vec![0.0; n];

    // Geoms.
    let geom_count = r.count(1)?;
    let mut geoms = Vec::with_capacity(geom_count);
    for gi in 0..geom_count {
        let shape = match r.u8()? {
            0 => Shape::Sphere { radius: r.f32()? },
            1 => Shape::Cuboid { half: r.vec3()? },
            2 => Shape::Capsule {
                radius: r.f32()?,
                half_len: r.f32()?,
            },
            3 => Shape::Plane {
                normal: r.vec3()?,
                offset: r.f32()?,
            },
            tag @ (4 | 5) => {
                // Structural marker: reuse the shared asset from the
                // receiving world's geom at the same index.
                match (tag, world.geoms.get(gi).map(|g| &g.shape)) {
                    (4, Some(Shape::Heightfield(h))) => Shape::Heightfield(Arc::clone(h)),
                    (5, Some(Shape::TriMesh(m))) => Shape::TriMesh(Arc::clone(m)),
                    _ => {
                        return Err(SnapshotError::new(format!(
                            "geom {gi} is a shared asset (tag {tag}) but the target world has \
                             no matching geom at that index; restore requires a world built by \
                             the same scene constructor"
                        )))
                    }
                }
            }
            tag => return Err(SnapshotError::new(format!("unknown shape tag {tag}"))),
        };
        let body = match r.u32()? {
            u32::MAX => None,
            idx if (idx as usize) < n => Some(BodyId(idx)),
            idx => {
                return Err(SnapshotError::new(format!(
                    "geom {gi} references body {idx} of {n}"
                )))
            }
        };
        let local = Transform::new(r.vec3()?, r.quat()?);
        let aabb = Aabb::new(r.vec3()?, r.vec3()?);
        let enabled = r.u8()? != 0;
        geoms.push(Geom {
            shape,
            body,
            local,
            aabb,
            enabled,
        });
    }

    // Body → geom lists.
    let bg_count = r.count(8)?;
    if bg_count != n {
        return Err(SnapshotError::new(format!(
            "body_geoms count {bg_count} != body count {n}"
        )));
    }
    let mut body_geoms = Vec::with_capacity(bg_count);
    for _ in 0..bg_count {
        let list = r.ids("body geom list", geom_count)?;
        body_geoms.push(list.into_iter().map(GeomId).collect());
    }

    // Joints.
    let joint_count = r.count(1)?;
    let mut joints = Vec::with_capacity(joint_count);
    for ji in 0..joint_count {
        let kind = match r.u8()? {
            0 => JointKind::Ball {
                anchor_a: r.vec3()?,
                anchor_b: r.vec3()?,
            },
            1 => JointKind::Hinge {
                anchor_a: r.vec3()?,
                anchor_b: r.vec3()?,
                axis_a: r.vec3()?,
                axis_b: r.vec3()?,
            },
            2 => JointKind::Slider {
                axis_a: r.vec3()?,
                anchor_a: r.vec3()?,
            },
            3 => JointKind::Fixed {
                anchor_a: r.vec3()?,
                anchor_b: r.vec3()?,
            },
            tag => {
                return Err(SnapshotError::new(format!(
                    "unknown joint tag {tag} for joint {ji}"
                )))
            }
        };
        let body_a = BodyId(r.u32()?);
        let body_b = BodyId(r.u32()?);
        if body_a.index().max(body_b.index()) >= n {
            return Err(SnapshotError::new(format!(
                "joint {ji} references body {} of {n}",
                body_a.0.max(body_b.0)
            )));
        }
        let break_threshold = if r.u8()? != 0 { Some(r.f32()?) } else { None };
        let accumulated_load = r.f32()?;
        let broken = r.u8()? != 0;
        let last_impulse = r.f32()?;
        let mut j = crate::joint::Joint::new(kind, body_a, body_b);
        j.break_threshold = break_threshold;
        j.accumulated_load = accumulated_load;
        j.broken = broken;
        j.last_impulse = last_impulse;
        joints.push(j);
    }

    // Collision-excluded pairs.
    let pair_count = r.count(8)?;
    let mut excluded_pairs = Vec::with_capacity(pair_count);
    for _ in 0..pair_count {
        let (a, b) = (r.u32()?, r.u32()?);
        // The exclusion table keeps a flag per body id: an id from outside
        // the world must not size it.
        if a.max(b) as usize >= n {
            return Err(SnapshotError::new(format!(
                "excluded pair references body {} of {n}",
                a.max(b)
            )));
        }
        excluded_pairs.push((a, b));
    }

    // Cloths: state only — topology must already match.
    let cloth_count = r.count(1)?;
    if cloth_count != world.cloths.len() {
        return Err(SnapshotError::new(format!(
            "snapshot has {cloth_count} cloths, target world has {} (same scene required)",
            world.cloths.len()
        )));
    }
    let mut cloth_states = Vec::with_capacity(cloth_count);
    for ci in 0..cloth_count {
        let vc = r.count(25)?;
        if vc != world.cloths[ci].vertices().len() {
            return Err(SnapshotError::new(format!(
                "cloth {ci} has {vc} vertices in the snapshot, {} in the target world",
                world.cloths[ci].vertices().len()
            )));
        }
        let mut verts = Vec::with_capacity(vc);
        for _ in 0..vc {
            verts.push(ClothVertex {
                pos: r.vec3()?,
                prev: r.vec3()?,
                pinned: r.u8()? != 0,
            });
        }
        let contact_bodies = r.ids("cloth contact body", n)?;
        let contact_static_geoms = r.ids("cloth contact static geom", geom_count)?;
        cloth_states.push((verts, contact_bodies, contact_static_geoms));
    }

    // Pre-fractured shatter flags.
    let pf_count = r.count(1)?;
    if pf_count != world.prefractured.len() {
        return Err(SnapshotError::new(format!(
            "snapshot has {pf_count} prefractured objects, target world has {}",
            world.prefractured.len()
        )));
    }
    let mut shattered = Vec::with_capacity(pf_count);
    for _ in 0..pf_count {
        shattered.push(r.u8()? != 0);
    }

    // Explosive configs.
    let ec = r.count(13)?;
    let mut explosive_cfg = Vec::with_capacity(ec);
    for _ in 0..ec {
        explosive_cfg.push((
            r.id("explosive config body", n)?,
            ExplosionConfig {
                blast_radius: r.f32()?,
                duration_steps: r.u32()?,
                impulse: r.f32()?,
            },
        ));
    }

    // Blast volumes.
    let bc = r.count(26)?;
    let mut blasts = Vec::with_capacity(bc);
    for _ in 0..bc {
        blasts.push(BlastVolume {
            body: BodyId(r.id("blast body", n)?),
            center: r.vec3()?,
            radius: r.f32()?,
            steps_left: r.u32()?,
            impulse: r.f32()?,
            fresh: r.u8()? != 0,
        });
    }

    // Contact cache.
    let cc = r.count(20)?;
    let mut cache_entries = Vec::with_capacity(cc);
    for _ in 0..cc {
        let key = (
            GeomId(r.id("contact cache key", geom_count)?),
            GeomId(r.id("contact cache key", geom_count)?),
        );
        let age = r.u32()?;
        let pc = r.count(28)?;
        let mut points = Vec::with_capacity(pc);
        for _ in 0..pc {
            points.push(CachedPoint {
                feature: r.u32()?,
                position: r.vec3()?,
                lambdas: [r.f32()?, r.f32()?, r.f32()?],
            });
        }
        cache_entries.push((key, age, points));
    }

    // Sleep state (v2+).
    let sleep = if version >= 2 {
        bodies.sleep_timer = r.u32_lane(n)?;
        bodies.sleep_ema = r.f32_lane(n)?;
        let slot_count = r.count(1)?;
        let mut slots = Vec::with_capacity(slot_count);
        for _ in 0..slot_count {
            if r.u8()? == 0 {
                slots.push(None);
                continue;
            }
            let members = r.ids("sleeping island body", n)?;
            let mc = r.count(24)?;
            let mut manifolds = Vec::with_capacity(mc);
            for _ in 0..mc {
                let mut m = ContactManifold::new(
                    GeomId(r.id("parked manifold geom", geom_count)?),
                    GeomId(r.id("parked manifold geom", geom_count)?),
                );
                m.friction = r.f32()?;
                m.restitution = r.f32()?;
                let pc = r.count(28)?;
                if pc > ContactManifold::MAX_POINTS {
                    return Err(SnapshotError::new(format!(
                        "parked manifold has {pc} points, at most {} fit",
                        ContactManifold::MAX_POINTS
                    )));
                }
                for _ in 0..pc {
                    m.points.push(ContactPoint {
                        position: r.vec3()?,
                        normal: r.vec3()?,
                        depth: r.f32()?,
                        feature: r.u32()?,
                    });
                }
                manifolds.push(m);
            }
            slots.push(Some(SleepingIsland {
                bodies: members,
                manifolds,
            }));
        }
        let free = r.ids("sleep free list", slot_count)?;
        let pending_wakes = r.ids("wake queue", n)?;
        // A sleeping body's island lane names its slot in the table.
        for &lane in &bodies.island {
            if lane != u32::MAX && lane & SLEEP_SLOT_BIT != 0 {
                check_id("island lane sleep slot", lane & !SLEEP_SLOT_BIT, slot_count)?;
            }
        }
        SleepSystem {
            islands: slots,
            free,
            pending_wakes,
        }
    } else {
        // Before sleeping existed: everything awake, sleep markers
        // stripped defensively.
        bodies.sleep_timer = vec![0; n];
        bodies.sleep_ema = vec![0.0; n];
        for f in &mut bodies.flags {
            f.0 &= !BodyFlags::SLEEPING.0;
        }
        for lane in &mut bodies.island {
            if *lane != u32::MAX && *lane & SLEEP_SLOT_BIT != 0 {
                *lane = u32::MAX;
            }
        }
        SleepSystem::default()
    };

    if r.pos != bytes.len() {
        return Err(SnapshotError::new(format!(
            "{} trailing bytes after the last section",
            bytes.len() - r.pos
        )));
    }

    // Everything parsed and validated — commit. The body store is
    // replaced wholesale: slots only ever grow in this engine, so a
    // snapshot with fewer bodies than the target simply truncates (bisect
    // restores an *earlier* state into a world that has since spawned
    // bodies).
    world.bodies = bodies;
    world.geoms = geoms;
    // The restored boxes and poses are not what the refresh cached.
    world.geom_pose.clear();
    world.body_geoms = body_geoms;
    world.exclusions.restore(&excluded_pairs, &joints);
    world.joints = joints;
    for (c, (verts, contact_bodies, contact_static_geoms)) in
        world.cloths.iter_mut().zip(cloth_states)
    {
        c.verts_mut().copy_from_slice(&verts);
        c.contact_bodies = contact_bodies;
        c.contact_static_geoms = contact_static_geoms;
    }
    for (p, s) in world.prefractured.iter_mut().zip(shattered) {
        p.shattered = s;
    }
    world.explosive_cfg = explosive_cfg;
    world.blasts = blasts;
    world.sleep = sleep;
    let pipeline = world
        .pipeline
        .as_mut()
        .expect("pipeline present outside step");
    // The incremental island builder's union-find no longer matches the
    // restored lanes: force a full rebuild on the next step.
    pipeline.invalidate_island_graph();
    let cache = pipeline.contact_cache_mut();
    cache.clear();
    for (key, age, points) in cache_entries {
        cache.insert_raw(key, age, points);
    }
    world.steps = steps;
    world.time = time;
    Ok(())
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::body::BodyDesc;
    use crate::digest::world_digest;
    use crate::joint::Joint;
    use crate::world::WorldConfig;

    fn playground() -> World {
        let mut w = World::new(WorldConfig::default());
        w.add_static_geom(Shape::plane(Vec3::UNIT_Y, 0.0));
        for i in 0..6 {
            w.add_body(
                BodyDesc::dynamic(Vec3::new((i % 3) as f32 * 1.1, 0.5 + (i / 3) as f32, 0.0))
                    .with_shape(Shape::cuboid(Vec3::splat(0.5)), 1.0),
            );
        }
        let a = w.add_body(BodyDesc::fixed(Vec3::new(5.0, 2.0, 0.0)));
        let bob = w.add_body(
            BodyDesc::dynamic(Vec3::new(6.0, 2.0, 0.0)).with_shape(Shape::sphere(0.2), 1.0),
        );
        w.add_joint(
            Joint::new(
                JointKind::Ball {
                    anchor_a: Vec3::ZERO,
                    anchor_b: Vec3::new(-1.0, 0.0, 0.0),
                },
                a,
                bob,
            )
            .breakable(50.0),
        );
        w.add_cloth(crate::cloth::Cloth::rectangle(
            Vec3::new(-2.0, 1.5, -0.5),
            1.0,
            1.0,
            5,
            5,
            &[0],
        ));
        w
    }

    #[test]
    fn mid_run_round_trip_is_bit_identical() {
        let mut a = playground();
        for _ in 0..40 {
            a.step();
        }
        let snap = a.snapshot();
        let mut b = playground();
        b.restore(&snap).expect("restore");
        assert_eq!(world_digest(&a), world_digest(&b));
        assert_eq!(a.snapshot(), b.snapshot(), "re-snapshot must be canonical");
        // And the trajectories stay locked.
        for i in 0..25 {
            a.step();
            b.step();
            assert_eq!(world_digest(&a), world_digest(&b), "diverged at step {i}");
        }
    }

    #[test]
    fn every_body_lane_round_trips_and_the_digested_ones_are_named() {
        use crate::digest::first_divergence;
        use crate::store::LaneClass;
        let mut a = playground();
        for _ in 0..5 {
            a.step();
        }
        for lane in &BODY_LANES {
            let mut b = playground();
            b.restore(&a.snapshot()).expect("restore");
            let x = &mut (lane.get_mut)(&mut b.bodies)[1];
            *x = f32::from_bits(x.to_bits() ^ 1);
            let mut c = playground();
            c.restore(&b.snapshot()).expect("restore");
            assert_eq!(
                (lane.get)(&c.bodies)[1].to_bits(),
                (lane.get)(&b.bodies)[1].to_bits()
            );
            if lane.class == LaneClass::Mass {
                continue;
            }
            assert_ne!(world_digest(&a), world_digest(&b), "{}", lane.name);
            let div = first_divergence(&a, &b).expect(lane.name);
            assert_eq!(div.location, format!("body 1 {}", lane.name));
        }
    }

    #[test]
    fn restore_rejects_garbage_and_wrong_version() {
        let mut w = playground();
        assert!(w.restore(b"not a snapshot").is_err());
        let mut snap = w.snapshot();
        snap[4] = 99; // version field
        let err = w.restore(&snap).unwrap_err().to_string();
        assert!(err.contains("version"), "{err}");
        let snap = w.snapshot();
        assert!(w.restore(&snap[..snap.len() - 3]).is_err(), "truncated");
    }

    #[test]
    fn sleeping_world_round_trips_bit_identically() {
        let build = || {
            let mut w = World::new(WorldConfig {
                sleeping: true,
                ..WorldConfig::default()
            });
            w.add_static_geom(Shape::plane(Vec3::UNIT_Y, 0.0));
            for i in 0..4 {
                w.add_body(
                    BodyDesc::dynamic(Vec3::new(i as f32 * 3.0, 0.5, 0.0))
                        .with_shape(Shape::cuboid(Vec3::splat(0.5)), 1.0),
                );
            }
            w
        };
        let mut a = build();
        for _ in 0..130 {
            a.step();
        }
        assert!(
            a.sleeping_body_count() > 0,
            "boxes at rest height must fall asleep within 130 steps"
        );
        let snap = a.snapshot();
        let mut b = build();
        b.restore(&snap).expect("restore");
        assert_eq!(world_digest(&a), world_digest(&b));
        assert_eq!(a.sleeping_body_count(), b.sleeping_body_count());
        assert_eq!(a.snapshot(), b.snapshot(), "re-snapshot must be canonical");
        for i in 0..30 {
            a.step();
            b.step();
            assert_eq!(world_digest(&a), world_digest(&b), "diverged at step {i}");
        }
    }

    #[test]
    fn v1_snapshot_restores_with_sleep_reset() {
        let mut w = playground();
        for _ in 0..40 {
            w.step();
        }
        let snap = w.snapshot();
        // Craft a v1 blob: drop the trailing sleep section (two per-body
        // lanes + three empty tables — nothing sleeps in this world) and
        // patch the version field.
        let n = w.bodies.len();
        let tail = n * 4 + n * 4 + 8 + 8 + 8;
        let mut v1 = snap[..snap.len() - tail].to_vec();
        v1[4..8].copy_from_slice(&1u32.to_le_bytes());
        let mut b = playground();
        b.restore(&v1).expect("v1 snapshot must still restore");
        assert_eq!(b.sleeping_body_count(), 0);
        assert!(b.bodies.sleep_timer.iter().all(|&t| t == 0));
        assert!(b.bodies.sleep_ema.iter().all(|&e| e == 0.0));
        // And it still steps deterministically against a v2 restore of
        // the same state (sleep timers differ, trajectories must not —
        // this world never crosses the sleep threshold).
        let mut a = playground();
        a.restore(&snap).expect("v2 restore");
        for _ in 0..10 {
            a.step();
            b.step();
        }
        if let Some(d) = crate::digest::first_divergence(&a, &b) {
            assert!(
                d.location.contains("sleep"),
                "only sleep bookkeeping may differ after a v1 restore, got {}",
                d.location
            );
        }
        // Everything except the trailing sleep section must agree.
        let (sa, sb) = (a.snapshot(), b.snapshot());
        let tail = n * 8 + 24;
        assert_eq!(
            sa[..sa.len() - tail],
            sb[..sb.len() - tail],
            "non-sleep state diverged after a v1 restore"
        );
    }

    #[test]
    fn restore_rejects_body_ids_from_outside_the_world() {
        let mut w = World::new(WorldConfig::default());
        let ids: Vec<_> = (0..10)
            .map(|i| {
                w.add_body(
                    BodyDesc::dynamic(Vec3::new(i as f32 * 3.0, 0.5, 0.0))
                        .with_shape(Shape::sphere(0.5), 1.0),
                )
            })
            .collect();
        w.exclude_collision(ids[3], ids[7]);
        w.add_joint(Joint::new(
            JointKind::Ball {
                anchor_a: Vec3::ZERO,
                anchor_b: Vec3::ZERO,
            },
            ids[5],
            ids[9],
        ));
        let snap = w.snapshot();
        w.restore(&snap).expect("own snapshot");
        // Overwrites the second id of the first `(a, b)` id pair in the blob.
        let patched = |a: u32, b: u32| {
            let needle = [a.to_le_bytes(), b.to_le_bytes()].concat();
            let at = snap
                .windows(8)
                .position(|w| w == needle)
                .expect("the id pair is in the blob");
            let mut bytes = snap.clone();
            bytes[at + 4..at + 8].copy_from_slice(&0xFFFF_FFF0u32.to_le_bytes());
            bytes
        };
        let err = w.restore(&patched(5, 9)).unwrap_err().to_string();
        assert!(err.contains("joint 0 references body"), "{err}");
        let err = w.restore(&patched(3, 7)).unwrap_err().to_string();
        assert!(err.contains("excluded pair references body"), "{err}");
        // Neither attempt half-applied.
        assert_eq!(w.snapshot(), snap);
    }

    /// Plants an id from outside the world into a copy of `playground()`
    /// and requires a restore of its snapshot to name `field` and leave
    /// the receiving world as it was.
    fn assert_refuses(field: &str, plant: fn(&mut World)) {
        let mut source = playground();
        plant(&mut source);
        let mut target = playground();
        let before = target.snapshot();
        match target.restore(&source.snapshot()) {
            Err(SnapshotError::IdOutOfRange { field: got, .. }) => assert_eq!(got, field),
            other => panic!("{field}: {other:?}"),
        }
        assert_eq!(target.snapshot(), before, "{field}: half applied");
    }

    #[test]
    fn restore_refuses_a_wake_queue_entry_outside_the_bodies() {
        assert_refuses("wake queue", |w| w.sleep.pending_wakes.push(1000));
    }

    #[test]
    fn restore_refuses_a_blast_body_outside_the_bodies() {
        assert_refuses("blast body", |w| {
            w.blasts.push(BlastVolume {
                body: BodyId(1000),
                center: Vec3::ZERO,
                radius: 1.0,
                steps_left: 2,
                impulse: 1.0,
                fresh: true,
            })
        });
    }

    #[test]
    fn restore_refuses_an_explosive_config_body_outside_the_bodies() {
        assert_refuses("explosive config body", |w| {
            w.explosive_cfg.push((1000, ExplosionConfig::default()))
        });
    }

    #[test]
    fn restore_refuses_a_cloth_contact_body_outside_the_bodies() {
        assert_refuses("cloth contact body", |w| {
            w.cloths[0].contact_bodies.push(1000)
        });
    }

    #[test]
    fn restore_refuses_a_free_slot_outside_the_sleep_table() {
        assert_refuses("sleep free list", |w| w.sleep.free.push(3));
    }

    #[test]
    fn restore_refuses_an_island_lane_slot_outside_the_sleep_table() {
        assert_refuses("island lane sleep slot", |w| {
            w.bodies.island[0] = SLEEP_SLOT_BIT | 3
        });
    }

    #[test]
    fn restore_refuses_a_parked_manifold_geom_outside_the_geoms() {
        assert_refuses("parked manifold geom", |w| {
            let island = SleepingIsland {
                bodies: vec![0],
                manifolds: vec![ContactManifold::new(GeomId(0), GeomId(1000))],
            };
            w.sleep.islands.push(Some(island))
        });
    }

    #[test]
    fn restore_refuses_a_contact_cache_key_outside_the_geoms() {
        assert_refuses("contact cache key", |w| {
            let cache = w.pipeline.as_mut().expect("idle").contact_cache_mut();
            cache.insert_raw((GeomId(0), GeomId(1000)), 0, Vec::new())
        });
    }

    #[test]
    fn restore_refuses_a_cloth_contact_static_geom_outside_the_geoms() {
        assert_refuses("cloth contact static geom", |w| {
            w.cloths[0].contact_static_geoms.push(1000)
        });
    }

    #[test]
    fn restore_rejects_structural_mismatch() {
        let w = playground();
        let snap = w.snapshot();
        let mut other = World::new(WorldConfig::default());
        // No cloths in the target world.
        let err = other.restore(&snap).unwrap_err().to_string();
        assert!(err.contains("cloth"), "{err}");
    }
}
