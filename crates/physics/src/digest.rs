//! Deterministic state digests: the observability substrate for the
//! pipeline's bit-identity guarantee.
//!
//! The pipeline promises bit-identical simulation across thread counts
//! and SIMD widths (see `tests/determinism.rs`), but a broken promise
//! used to be observable only as "end states differ". This module gives
//! every phase a cheap 64-bit fingerprint of the simulation state so a
//! divergence can be *localized*: first divergent step (via per-step
//! digests or snapshot-restart bisection — see `bench/src/bin/bisect`),
//! first divergent phase within that step ([`crate::StepProfile::digests`]),
//! and finally the first differing body and lane ([`first_divergence`]).
//!
//! The hash is a hand-rolled XXH64 (the workspace builds with no
//! registry access) restricted to 8-byte words: every input — `f32`
//! lanes, flags, entity ids — is framed into `u64` words before mixing,
//! which keeps the hot loop branch-free and makes the streaming state a
//! fixed 4-lane accumulator. Float values are hashed by *bit pattern*
//! (`to_bits`), so two states digest equally iff they are bit-identical,
//! which is exactly the pipeline's contract (note: `-0.0` and `+0.0`
//! therefore digest differently, as they must).
//!
//! Digests are computed per phase behind [`crate::WorldConfig::digests`],
//! published as `physics.digest.<phase>` telemetry gauges, and recorded
//! in the step profile. The deliberate single-ULP fault knob
//! ([`DigestFault`], `bisect --fault`) exists so the bisection tooling
//! can be tested against a divergence with a known ground truth.

use std::sync::atomic::{AtomicU64, Ordering};

use crate::contact::ContactManifold;
use crate::contact_cache::ContactCache;
use crate::probe::{IslandWork, PhaseKind};
use crate::shape::GeomId;
use crate::store::BodyStore;
use crate::world::World;

const PRIME64_1: u64 = 0x9E37_79B1_85EB_CA87;
const PRIME64_2: u64 = 0xC2B2_AE3D_27D4_EB4F;
const PRIME64_3: u64 = 0x1656_67B1_9E37_79F9;
const PRIME64_4: u64 = 0x85EB_CA77_C2B2_AE63;
const PRIME64_5: u64 = 0x27D4_EB2F_1656_67C5;

/// Streaming 64-bit digest (XXH64 over a stream of 8-byte words).
///
/// Equivalent to XXH64 of the concatenated little-endian words; the
/// word restriction removes the byte-buffer bookkeeping from the hot
/// path. Feed words with the `write_*` methods, then [`Digest::finish`].
#[derive(Debug, Clone)]
pub struct Digest {
    seed: u64,
    v: [u64; 4],
    /// Words waiting for a full 4-word stripe.
    buf: [u64; 4],
    buffered: usize,
    total_words: u64,
}

impl Default for Digest {
    fn default() -> Self {
        Digest::new(0)
    }
}

/// Packs two `f32` bit patterns into one little-endian word.
#[inline]
fn pack(lo: f32, hi: f32) -> u64 {
    (lo.to_bits() as u64) | ((hi.to_bits() as u64) << 32)
}

#[inline]
fn round(acc: u64, word: u64) -> u64 {
    acc.wrapping_add(word.wrapping_mul(PRIME64_2))
        .rotate_left(31)
        .wrapping_mul(PRIME64_1)
}

#[inline]
fn merge_round(hash: u64, acc: u64) -> u64 {
    (hash ^ round(0, acc))
        .wrapping_mul(PRIME64_1)
        .wrapping_add(PRIME64_4)
}

impl Digest {
    /// A fresh digest with the given seed.
    pub fn new(seed: u64) -> Self {
        Digest {
            seed,
            v: [
                seed.wrapping_add(PRIME64_1).wrapping_add(PRIME64_2),
                seed.wrapping_add(PRIME64_2),
                seed,
                seed.wrapping_sub(PRIME64_1),
            ],
            buf: [0; 4],
            buffered: 0,
            total_words: 0,
        }
    }

    /// Mixes one 64-bit word into the stream.
    #[inline]
    pub fn write_u64(&mut self, word: u64) {
        self.buf[self.buffered] = word;
        self.buffered += 1;
        self.total_words += 1;
        if self.buffered == 4 {
            for i in 0..4 {
                self.v[i] = round(self.v[i], self.buf[i]);
            }
            self.buffered = 0;
        }
    }

    /// Mixes a 32-bit word (zero-extended).
    #[inline]
    pub fn write_u32(&mut self, word: u32) {
        self.write_u64(word as u64);
    }

    /// Mixes an `f32` by bit pattern.
    #[inline]
    pub fn write_f32(&mut self, v: f32) {
        self.write_u64(v.to_bits() as u64);
    }

    /// Mixes an `f64` by bit pattern.
    #[inline]
    pub fn write_f64(&mut self, v: f64) {
        self.write_u64(v.to_bits());
    }

    /// Mixes a whole `f32` lane, two values per word (the hot path for
    /// the SoA body and cloth lanes).
    ///
    /// Framing-equivalent to calling [`Digest::write_u64`] per packed
    /// pair, but once the stripe buffer is drained the bulk is folded
    /// four words (eight values) per iteration directly into the four
    /// accumulators — independent multiply/rotate chains the CPU can
    /// pipeline, instead of a buffer store and branch per word. The
    /// digests run inside the phase walls, so this path is what keeps
    /// them inside their per-step budget (see `digest_overhead`).
    pub fn write_f32s(&mut self, lane: &[f32]) {
        let mut rest = lane;
        while self.buffered != 0 && rest.len() >= 2 {
            self.write_u64(pack(rest[0], rest[1]));
            rest = &rest[2..];
        }
        let mut stripes = rest.chunks_exact(8);
        for s in &mut stripes {
            self.v[0] = round(self.v[0], pack(s[0], s[1]));
            self.v[1] = round(self.v[1], pack(s[2], s[3]));
            self.v[2] = round(self.v[2], pack(s[4], s[5]));
            self.v[3] = round(self.v[3], pack(s[6], s[7]));
            self.total_words += 4;
        }
        let mut pairs = stripes.remainder().chunks_exact(2);
        for p in &mut pairs {
            self.write_u64(pack(p[0], p[1]));
        }
        if let [last] = pairs.remainder() {
            self.write_u64(last.to_bits() as u64);
        }
    }

    /// Mixes a stream of 32-bit words, two per 64-bit word.
    pub fn write_u32s(&mut self, words: impl IntoIterator<Item = u32>) {
        let mut pending: Option<u32> = None;
        for w in words {
            match pending.take() {
                None => pending = Some(w),
                Some(lo) => self.write_u64((lo as u64) | ((w as u64) << 32)),
            }
        }
        if let Some(lo) = pending {
            self.write_u64(lo as u64);
        }
    }

    /// Bytes mixed in so far (every input is framed into 8-byte words).
    pub fn bytes(&self) -> u64 {
        self.total_words * 8
    }

    /// Finalizes the digest (XXH64 convergence + avalanche).
    pub fn finish(&self) -> u64 {
        let mut h = if self.total_words >= 4 {
            let [v1, v2, v3, v4] = self.v;
            let mut h = v1
                .rotate_left(1)
                .wrapping_add(v2.rotate_left(7))
                .wrapping_add(v3.rotate_left(12))
                .wrapping_add(v4.rotate_left(18));
            for v in self.v {
                h = merge_round(h, v);
            }
            h
        } else {
            self.seed.wrapping_add(PRIME64_5)
        };
        h = h.wrapping_add(self.total_words * 8);
        for i in 0..self.buffered {
            h = (h ^ round(0, self.buf[i]))
                .rotate_left(27)
                .wrapping_mul(PRIME64_1)
                .wrapping_add(PRIME64_4);
        }
        h ^= h >> 33;
        h = h.wrapping_mul(PRIME64_2);
        h ^= h >> 29;
        h = h.wrapping_mul(PRIME64_3);
        h ^= h >> 32;
        h
    }
}

/// One-shot digest of an `f32` slice (used for per-island `RowSet`
/// lambda fingerprints).
pub fn hash_f32s(seed: u64, values: &[f32]) -> u64 {
    let mut d = Digest::new(seed);
    d.write_f32s(values);
    d.finish()
}

/// A deliberately injected single-ULP perturbation: at the end of
/// `phase` of step `step` (0-based, [`World::step_count`] before the
/// step), the lowest mantissa bit of body 0's `pos.x` is flipped.
///
/// This is the ground-truth fault the divergence-bisection tooling is
/// tested against (`bisect --fault "<step>:<phase>"` applies it to its B
/// side only). It lives in [`crate::WorldConfig`] so two worlds in one
/// process can disagree about it.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub struct DigestFault {
    /// Step to perturb (0-based).
    pub step: u64,
    /// Phase after which the perturbation is applied.
    pub phase: PhaseKind,
}

impl DigestFault {
    /// Parses `"<step>:<phase>"`, e.g. `"23:Narrowphase"`. The phase
    /// accepts the display name (`"Island Serial"`) or the enum-style
    /// spelling (`"IslandCreation"`), case-insensitively.
    pub fn parse(spec: &str) -> Result<DigestFault, String> {
        let (step, phase) = spec
            .split_once(':')
            .ok_or_else(|| format!("malformed fault spec {spec:?} (want \"<step>:<phase>\")"))?;
        let step = step
            .trim()
            .parse::<u64>()
            .map_err(|e| format!("fault step in {spec:?}: {e}"))?;
        let phase = phase_by_name(phase.trim())
            .ok_or_else(|| format!("unknown phase in fault spec {spec:?}"))?;
        Ok(DigestFault { step, phase })
    }
}

/// Resolves a phase by display name or enum-style spelling.
pub fn phase_by_name(name: &str) -> Option<PhaseKind> {
    let alias = |p: PhaseKind| -> &'static str {
        match p {
            PhaseKind::Broadphase => "Broadphase",
            PhaseKind::Narrowphase => "Narrowphase",
            PhaseKind::IslandCreation => "IslandCreation",
            PhaseKind::IslandProcessing => "IslandProcessing",
            PhaseKind::Cloth => "Cloth",
        }
    };
    PhaseKind::ALL
        .into_iter()
        .find(|p| p.name().eq_ignore_ascii_case(name) || alias(*p).eq_ignore_ascii_case(name))
}

/// Folds the per-body dynamic state every phase digest shares: position,
/// orientation, velocity lanes plus behaviour flags.
fn fold_body_state(d: &mut Digest, bodies: &BodyStore) {
    d.write_u64(bodies.len() as u64);
    for lane in [
        &bodies.pos.x,
        &bodies.pos.y,
        &bodies.pos.z,
        &bodies.rot.w,
        &bodies.rot.x,
        &bodies.rot.y,
        &bodies.rot.z,
        &bodies.lin_vel.x,
        &bodies.lin_vel.y,
        &bodies.lin_vel.z,
        &bodies.ang_vel.x,
        &bodies.ang_vel.y,
        &bodies.ang_vel.z,
    ] {
        d.write_f32s(lane);
    }
    d.write_u32s(bodies.flags.iter().map(|f| f.0));
    d.write_u32s(bodies.sleep_timer.iter().copied());
    d.write_f32s(&bodies.sleep_ema);
}

/// Folds the sleeping-island table and pending wake queue so a sleep or
/// wake transition (or a diverging parked manifold) shows up in the
/// whole-world digest.
fn fold_sleep(d: &mut Digest, world: &World) {
    let s = &world.sleep;
    d.write_u64(s.islands.len() as u64);
    for slot in &s.islands {
        match slot {
            None => d.write_u32(0),
            Some(isl) => {
                d.write_u32(1);
                d.write_u64(isl.bodies.len() as u64);
                d.write_u32s(isl.bodies.iter().copied());
                d.write_u64(isl.manifolds.len() as u64);
                for m in &isl.manifolds {
                    d.write_u64((m.geom_a.0 as u64) | ((m.geom_b.0 as u64) << 32));
                    d.write_u64(pack(m.friction, m.restitution));
                    d.write_u64(m.len() as u64);
                    for p in &m.points {
                        d.write_u64(pack(p.position.x, p.position.y));
                        d.write_u64(pack(p.position.z, p.normal.x));
                        d.write_u64(pack(p.normal.y, p.normal.z));
                        d.write_u64((p.depth.to_bits() as u64) | ((p.feature as u64) << 32));
                    }
                }
            }
        }
    }
    d.write_u32s(s.free.iter().copied());
    d.write_u32s(s.pending_wakes.iter().copied());
}

/// Folds per-joint mutable state (load accumulation and breakage).
fn fold_joints(d: &mut Digest, world: &World) {
    d.write_u64(world.joints.len() as u64);
    for j in &world.joints {
        d.write_f32(j.accumulated_load);
        d.write_f32(j.last_impulse);
        d.write_u32(j.broken as u32);
    }
}

/// Folds cloth Verlet state (current + previous vertex positions),
/// packed three words per vertex.
fn fold_cloths(d: &mut Digest, world: &World) {
    d.write_u64(world.cloths.len() as u64);
    for c in &world.cloths {
        for v in c.vertices() {
            d.write_u64(pack(v.pos.x, v.pos.y));
            d.write_u64(pack(v.pos.z, v.prev.x));
            d.write_u64(pack(v.prev.y, v.prev.z));
        }
    }
}

/// Folds the contact cache in sorted-key order (the map itself iterates
/// in hash order, which is not deterministic across processes).
fn fold_contact_cache(d: &mut Digest, cache: &ContactCache) {
    let entries = cache.sorted_entries();
    d.write_u64(entries.len() as u64);
    for (&(a, b), pair) in entries {
        d.write_u32(a.0);
        d.write_u32(b.0);
        d.write_u32(pair.age());
        for p in pair.points() {
            d.write_u32(p.feature);
            d.write_f32(p.position.x);
            d.write_f32(p.position.y);
            d.write_f32(p.position.z);
            d.write_f32s(&p.lambdas);
        }
    }
}

/// Bytes the per-phase digests below have hashed in this process.
static PHASE_BYTES_HASHED: AtomicU64 = AtomicU64::new(0);

/// Total bytes hashed by the per-phase digests of every world in this
/// process since it started: what `digest_overhead` divides the measured
/// cost by. Five relaxed adds a step, and only with digests on.
pub fn phase_bytes_hashed() -> u64 {
    PHASE_BYTES_HASHED.load(Ordering::Relaxed)
}

/// Finishes a per-phase digest and accounts its length.
fn finish_phase(d: Digest) -> u64 {
    PHASE_BYTES_HASHED.fetch_add(d.bytes(), Ordering::Relaxed);
    d.finish()
}

/// Digest after broad-phase: body state plus the candidate pair list
/// (broad-phase mutates no body state, so the pairs are what a
/// divergence here would show up in).
pub fn broadphase_digest(world: &World, candidates: &[(GeomId, GeomId)]) -> u64 {
    let mut d = Digest::new(PhaseKind::Broadphase as u64);
    fold_body_state(&mut d, &world.bodies);
    d.write_u64(candidates.len() as u64);
    d.write_u32s(candidates.iter().flat_map(|&(a, b)| [a.0, b.0]));
    finish_phase(d)
}

/// Digest after narrow-phase: body state (contact events may disable
/// bodies) plus the surviving manifolds.
pub fn narrowphase_digest(world: &World, manifolds: &[ContactManifold]) -> u64 {
    let mut d = Digest::new(PhaseKind::Narrowphase as u64);
    fold_body_state(&mut d, &world.bodies);
    d.write_u64(manifolds.len() as u64);
    for m in manifolds {
        d.write_u64((m.geom_a.0 as u64) | ((m.geom_b.0 as u64) << 32));
        d.write_u64(m.len() as u64);
        for p in &m.points {
            d.write_u64(pack(p.position.x, p.position.y));
            d.write_u64(pack(p.position.z, p.normal.x));
            d.write_u64(pack(p.normal.y, p.normal.z));
            d.write_u64((p.depth.to_bits() as u64) | ((p.feature as u64) << 32));
        }
    }
    finish_phase(d)
}

/// Digest after island creation: body state plus the island assignment
/// lane the union-find wrote.
pub fn island_creation_digest(world: &World) -> u64 {
    let mut d = Digest::new(PhaseKind::IslandCreation as u64);
    fold_body_state(&mut d, &world.bodies);
    d.write_u32s(world.bodies.island.iter().copied());
    finish_phase(d)
}

/// Digest after island processing: post-solve body state, the per-island
/// solver impulse fingerprints (`RowSet::lambda`, hashed inside the
/// solve) and joint mutable state.
pub fn island_processing_digest(world: &World, islands: &[IslandWork]) -> u64 {
    let mut d = Digest::new(PhaseKind::IslandProcessing as u64);
    fold_body_state(&mut d, &world.bodies);
    d.write_u64(islands.len() as u64);
    for w in islands {
        d.write_u64(w.lambda_digest);
    }
    fold_joints(&mut d, world);
    finish_phase(d)
}

/// Digest after the cloth phase: body state plus cloth Verlet state.
pub fn cloth_digest(world: &World) -> u64 {
    let mut d = Digest::new(PhaseKind::Cloth as u64);
    fold_body_state(&mut d, &world.bodies);
    fold_cloths(&mut d, world);
    finish_phase(d)
}

/// Whole-world digest: every piece of mutable simulation state —
/// body lanes (including force accumulators), cloths, joints, blasts,
/// fracture flags, the contact cache and the clock. Two worlds with
/// equal digests are on the same trajectory; the bisector's probe
/// comparisons and the snapshot round-trip tests are built on this.
pub fn world_digest(world: &World) -> u64 {
    let mut d = Digest::new(0);
    fold_body_state(&mut d, &world.bodies);
    for lane in [
        &world.bodies.force.x,
        &world.bodies.force.y,
        &world.bodies.force.z,
        &world.bodies.torque.x,
        &world.bodies.torque.y,
        &world.bodies.torque.z,
    ] {
        d.write_f32s(lane);
    }
    fold_cloths(&mut d, world);
    fold_joints(&mut d, world);
    d.write_u64(world.blasts.len() as u64);
    for b in &world.blasts {
        d.write_u32(b.body.0);
        d.write_f32(b.center.x);
        d.write_f32(b.center.y);
        d.write_f32(b.center.z);
        d.write_f32(b.radius);
        d.write_u32(b.steps_left);
        d.write_f32(b.impulse);
        d.write_u32(b.fresh as u32);
    }
    d.write_u32s(world.prefractured.iter().map(|p| p.shattered as u32));
    fold_sleep(&mut d, world);
    if let Some(p) = world.pipeline.as_ref() {
        fold_contact_cache(&mut d, p.contact_cache());
    }
    d.write_u64(world.steps);
    d.write_f64(world.time);
    d.finish()
}

/// Per-body-range digests of the dynamic state: one digest per chunk of
/// `chunk` bodies. Comparing two worlds chunk-wise narrows a divergence
/// to a body range before [`first_divergence`] names the exact lane.
pub fn chunk_digests(world: &World, chunk: usize) -> Vec<(usize, usize, u64)> {
    assert!(chunk > 0);
    let b = &world.bodies;
    let n = b.len();
    let mut out = Vec::with_capacity(n.div_ceil(chunk));
    let mut lo = 0;
    while lo < n {
        let hi = (lo + chunk).min(n);
        let mut d = Digest::new(lo as u64);
        for lane in [
            &b.pos.x,
            &b.pos.y,
            &b.pos.z,
            &b.rot.w,
            &b.rot.x,
            &b.rot.y,
            &b.rot.z,
            &b.lin_vel.x,
            &b.lin_vel.y,
            &b.lin_vel.z,
            &b.ang_vel.x,
            &b.ang_vel.y,
            &b.ang_vel.z,
        ] {
            d.write_f32s(&lane[lo..hi]);
        }
        d.write_u32s(b.flags[lo..hi].iter().map(|f| f.0));
        d.write_u32s(b.sleep_timer[lo..hi].iter().copied());
        d.write_f32s(&b.sleep_ema[lo..hi]);
        out.push((lo, hi, d.finish()));
        lo = hi;
    }
    out
}

/// The first bit-level difference between two worlds' states.
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct Divergence {
    /// Human-readable location, e.g. `"body 17 pos.x"` or
    /// `"cloth 0 vertex 42 prev.y"`.
    pub location: String,
    /// Body index when the difference is in a body lane.
    pub body: Option<u32>,
    /// Bit pattern on side A.
    pub a_bits: u64,
    /// Bit pattern on side B.
    pub b_bits: u64,
}

/// Compares two worlds lane-by-lane and reports the first differing
/// value: bodies in index order (each body's lanes in a fixed order),
/// then cloth vertices, joints, blasts and the clock. Returns `None`
/// when the compared state is bit-identical.
pub fn first_divergence(a: &World, b: &World) -> Option<Divergence> {
    if a.bodies.len() != b.bodies.len() {
        return Some(Divergence {
            location: "body count".into(),
            body: None,
            a_bits: a.bodies.len() as u64,
            b_bits: b.bodies.len() as u64,
        });
    }
    type LaneFn = fn(&BodyStore) -> &Vec<f32>;
    let named_lanes: [(&str, LaneFn); 13] = [
        ("pos.x", |s| &s.pos.x),
        ("pos.y", |s| &s.pos.y),
        ("pos.z", |s| &s.pos.z),
        ("rot.w", |s| &s.rot.w),
        ("rot.x", |s| &s.rot.x),
        ("rot.y", |s| &s.rot.y),
        ("rot.z", |s| &s.rot.z),
        ("lin_vel.x", |s| &s.lin_vel.x),
        ("lin_vel.y", |s| &s.lin_vel.y),
        ("lin_vel.z", |s| &s.lin_vel.z),
        ("ang_vel.x", |s| &s.ang_vel.x),
        ("ang_vel.y", |s| &s.ang_vel.y),
        ("ang_vel.z", |s| &s.ang_vel.z),
    ];
    for i in 0..a.bodies.len() {
        for (name, lane) in &named_lanes {
            let (va, vb) = (lane(&a.bodies)[i], lane(&b.bodies)[i]);
            if va.to_bits() != vb.to_bits() {
                return Some(Divergence {
                    location: format!("body {i} {name}"),
                    body: Some(i as u32),
                    a_bits: va.to_bits() as u64,
                    b_bits: vb.to_bits() as u64,
                });
            }
        }
        if a.bodies.flags[i] != b.bodies.flags[i] {
            return Some(Divergence {
                location: format!("body {i} flags"),
                body: Some(i as u32),
                a_bits: a.bodies.flags[i].0 as u64,
                b_bits: b.bodies.flags[i].0 as u64,
            });
        }
        if a.bodies.sleep_timer[i] != b.bodies.sleep_timer[i] {
            return Some(Divergence {
                location: format!("body {i} sleep_timer"),
                body: Some(i as u32),
                a_bits: a.bodies.sleep_timer[i] as u64,
                b_bits: b.bodies.sleep_timer[i] as u64,
            });
        }
        let (ea, eb) = (a.bodies.sleep_ema[i], b.bodies.sleep_ema[i]);
        if ea.to_bits() != eb.to_bits() {
            return Some(Divergence {
                location: format!("body {i} sleep_ema"),
                body: Some(i as u32),
                a_bits: ea.to_bits() as u64,
                b_bits: eb.to_bits() as u64,
            });
        }
    }
    for (ci, (ca, cb)) in a.cloths.iter().zip(&b.cloths).enumerate() {
        for (vi, (va, vb)) in ca.vertices().iter().zip(cb.vertices()).enumerate() {
            for (name, xa, xb) in [
                ("pos.x", va.pos.x, vb.pos.x),
                ("pos.y", va.pos.y, vb.pos.y),
                ("pos.z", va.pos.z, vb.pos.z),
                ("prev.x", va.prev.x, vb.prev.x),
                ("prev.y", va.prev.y, vb.prev.y),
                ("prev.z", va.prev.z, vb.prev.z),
            ] {
                if xa.to_bits() != xb.to_bits() {
                    return Some(Divergence {
                        location: format!("cloth {ci} vertex {vi} {name}"),
                        body: None,
                        a_bits: xa.to_bits() as u64,
                        b_bits: xb.to_bits() as u64,
                    });
                }
            }
        }
    }
    for (ji, (ja, jb)) in a.joints.iter().zip(&b.joints).enumerate() {
        for (name, xa, xb) in [
            ("accumulated_load", ja.accumulated_load, jb.accumulated_load),
            ("last_impulse", ja.last_impulse, jb.last_impulse),
        ] {
            if xa.to_bits() != xb.to_bits() {
                return Some(Divergence {
                    location: format!("joint {ji} {name}"),
                    body: None,
                    a_bits: xa.to_bits() as u64,
                    b_bits: xb.to_bits() as u64,
                });
            }
        }
        if ja.broken != jb.broken {
            return Some(Divergence {
                location: format!("joint {ji} broken"),
                body: None,
                a_bits: ja.broken as u64,
                b_bits: jb.broken as u64,
            });
        }
    }
    if a.blasts.len() != b.blasts.len() {
        return Some(Divergence {
            location: "blast count".into(),
            body: None,
            a_bits: a.blasts.len() as u64,
            b_bits: b.blasts.len() as u64,
        });
    }
    if a.steps != b.steps {
        return Some(Divergence {
            location: "step counter".into(),
            body: None,
            a_bits: a.steps,
            b_bits: b.steps,
        });
    }
    if a.time.to_bits() != b.time.to_bits() {
        return Some(Divergence {
            location: "clock".into(),
            body: None,
            a_bits: a.time.to_bits(),
            b_bits: b.time.to_bits(),
        });
    }
    None
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::body::BodyDesc;
    use crate::shape::Shape;
    use crate::world::WorldConfig;
    use parallax_math::Vec3;

    #[test]
    fn streaming_matches_one_shot_framing() {
        // The same words in one slice and split across calls must agree.
        let vals: Vec<f32> = (0..37).map(|i| i as f32 * 0.25 - 3.0).collect();
        let mut a = Digest::new(7);
        a.write_f32s(&vals);
        let mut b = Digest::new(7);
        // write_f32s frames two values per word, so splitting at an even
        // index preserves the word stream.
        b.write_f32s(&vals[..20]);
        b.write_f32s(&vals[20..]);
        assert_eq!(a.finish(), b.finish());
        assert_eq!(hash_f32s(7, &vals), a.finish());
    }

    #[test]
    fn digest_is_order_and_value_sensitive() {
        let h = |words: &[u64]| {
            let mut d = Digest::new(0);
            for &w in words {
                d.write_u64(w);
            }
            d.finish()
        };
        assert_ne!(h(&[1, 2, 3]), h(&[3, 2, 1]));
        assert_ne!(h(&[1, 2, 3]), h(&[1, 2, 4]));
        assert_ne!(h(&[]), h(&[0]));
        // Short (< 1 stripe) and long inputs both discriminate.
        assert_ne!(h(&[5]), h(&[6]));
        let long: Vec<u64> = (0..100).collect();
        let mut long2 = long.clone();
        long2[63] ^= 1;
        assert_ne!(h(&long), h(&long2));
    }

    #[test]
    fn empty_digest_matches_xxh64_empty() {
        // XXH64 of the empty input with seed 0 is a published constant.
        assert_eq!(Digest::new(0).finish(), 0xEF46_DB37_51D8_E999);
    }

    #[test]
    fn world_digest_tracks_state_and_ulp_changes() {
        let build = || {
            let mut w = World::new(WorldConfig::default());
            w.add_static_geom(Shape::plane(Vec3::UNIT_Y, 0.0));
            w.add_body(
                BodyDesc::dynamic(Vec3::new(0.0, 2.0, 0.0)).with_shape(Shape::sphere(0.5), 1.0),
            );
            w
        };
        let mut a = build();
        let mut b = build();
        assert_eq!(world_digest(&a), world_digest(&b));
        a.step();
        b.step();
        assert_eq!(world_digest(&a), world_digest(&b));
        // A single-ULP nudge must change the digest and be localized.
        let bits = b.bodies.pos.x[0].to_bits() ^ 1;
        b.bodies.pos.x[0] = f32::from_bits(bits);
        assert_ne!(world_digest(&a), world_digest(&b));
        let div = first_divergence(&a, &b).expect("must find the flipped bit");
        assert_eq!(div.location, "body 0 pos.x");
        assert_eq!(div.body, Some(0));
        assert_eq!(div.a_bits ^ div.b_bits, 1);
        // Chunk digests disagree exactly in body 0's chunk.
        let ca = chunk_digests(&a, 16);
        let cb = chunk_digests(&b, 16);
        assert_eq!(ca.len(), cb.len());
        assert_ne!(ca[0].2, cb[0].2);
    }

    #[test]
    fn fault_spec_parses_names_and_aliases() {
        assert_eq!(
            DigestFault::parse("23:Narrowphase").unwrap(),
            DigestFault {
                step: 23,
                phase: PhaseKind::Narrowphase
            }
        );
        assert_eq!(
            DigestFault::parse("5:Island Serial").unwrap().phase,
            PhaseKind::IslandCreation
        );
        assert_eq!(
            DigestFault::parse("5:islandprocessing").unwrap().phase,
            PhaseKind::IslandProcessing
        );
        assert!(DigestFault::parse("nope").is_err());
        assert!(DigestFault::parse("3:Warpphase").is_err());
    }
}
