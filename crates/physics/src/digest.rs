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
    /// them inside their per-step budget (see `bench_gate digest`).
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
/// process since it started: what `bench_gate digest` divides the
/// measured cost by. Five relaxed adds a step, and only with digests on.
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
/// value, over everything [`world_digest`] folds: bodies in index order
/// (each body's lanes in a fixed order, forces and torques included),
/// then cloth vertices, joints, blasts, the prefractured shatter flags,
/// the sleeping-island table with its free list and the wake queue, the
/// contact cache and the clock. Returns `None` when the compared state is
/// bit-identical.
pub fn first_divergence(a: &World, b: &World) -> Option<Divergence> {
    let count =
        |what: &str, x: usize, y: usize| field(|| what.to_string(), "count", x as u64, y as u64);
    count("body", a.bodies.len(), b.bodies.len())
        .or_else(|| body_divergence(&a.bodies, &b.bodies))
        .or_else(|| count("cloth", a.cloths.len(), b.cloths.len()))
        .or_else(|| {
            let mut cloths = a.cloths.iter().zip(&b.cloths).enumerate();
            cloths.find_map(|(ci, (ca, cb))| {
                let (va, vb) = (ca.vertices(), cb.vertices());
                count(&format!("cloth {ci} vertex"), va.len(), vb.len()).or_else(|| {
                    va.iter().zip(vb).enumerate().find_map(|(vi, (x, y))| {
                        first_field(
                            || format!("cloth {ci} vertex {vi}"),
                            None,
                            [
                                ("pos.x", bits(x.pos.x), bits(y.pos.x)),
                                ("pos.y", bits(x.pos.y), bits(y.pos.y)),
                                ("pos.z", bits(x.pos.z), bits(y.pos.z)),
                                ("prev.x", bits(x.prev.x), bits(y.prev.x)),
                                ("prev.y", bits(x.prev.y), bits(y.prev.y)),
                                ("prev.z", bits(x.prev.z), bits(y.prev.z)),
                            ],
                        )
                    })
                })
            })
        })
        .or_else(|| count("joint", a.joints.len(), b.joints.len()))
        .or_else(|| {
            let mut joints = a.joints.iter().zip(&b.joints).enumerate();
            joints.find_map(|(ji, (x, y))| {
                first_field(
                    || format!("joint {ji}"),
                    None,
                    [
                        (
                            "accumulated_load",
                            bits(x.accumulated_load),
                            bits(y.accumulated_load),
                        ),
                        ("last_impulse", bits(x.last_impulse), bits(y.last_impulse)),
                        ("broken", x.broken as u64, y.broken as u64),
                    ],
                )
            })
        })
        .or_else(|| count("blast", a.blasts.len(), b.blasts.len()))
        .or_else(|| {
            let mut blasts = a.blasts.iter().zip(&b.blasts).enumerate();
            blasts.find_map(|(k, (x, y))| {
                first_field(
                    || format!("blast {k}"),
                    None,
                    [
                        ("body", x.body.0 as u64, y.body.0 as u64),
                        ("center.x", bits(x.center.x), bits(y.center.x)),
                        ("center.y", bits(x.center.y), bits(y.center.y)),
                        ("center.z", bits(x.center.z), bits(y.center.z)),
                        ("radius", bits(x.radius), bits(y.radius)),
                        ("steps_left", x.steps_left as u64, y.steps_left as u64),
                        ("impulse", bits(x.impulse), bits(y.impulse)),
                        ("fresh", x.fresh as u64, y.fresh as u64),
                    ],
                )
            })
        })
        .or_else(|| count("prefractured", a.prefractured.len(), b.prefractured.len()))
        .or_else(|| {
            let mut objects = a.prefractured.iter().zip(&b.prefractured).enumerate();
            objects.find_map(|(k, (x, y))| {
                let at = || format!("prefractured {k}");
                field(at, "shattered", x.shattered, y.shattered)
            })
        })
        .or_else(|| sleep_divergence(a, b))
        .or_else(|| match (a.pipeline.as_ref(), b.pipeline.as_ref()) {
            (Some(pa), Some(pb)) => cache_divergence(pa.contact_cache(), pb.contact_cache()),
            _ => None,
        })
        .or_else(|| field(String::new, "step counter", a.steps, b.steps))
        .or_else(|| field(String::new, "clock", a.time.to_bits(), b.time.to_bits()))
}

/// `(name, bits on side A, bits on side B)` of one compared value.
type Field<'n> = (&'n str, u64, u64);

fn bits(x: f32) -> u64 {
    u64::from(x.to_bits())
}

/// The first of `fields` that differs, located as `"{at} {name}"` (just
/// the name when `at` is empty).
fn first_field<'n>(
    at: impl FnOnce() -> String,
    body: Option<u32>,
    fields: impl IntoIterator<Item = Field<'n>>,
) -> Option<Divergence> {
    let (name, a_bits, b_bits) = fields.into_iter().find(|&(_, x, y)| x != y)?;
    let at = at();
    let location = if at.is_empty() {
        name.to_string()
    } else {
        format!("{at} {name}")
    };
    Some(Divergence {
        location,
        body,
        a_bits,
        b_bits,
    })
}

/// One integer field: [`first_field`] of a single value.
fn field(
    at: impl FnOnce() -> String,
    name: &str,
    x: impl Into<u64>,
    y: impl Into<u64>,
) -> Option<Divergence> {
    first_field(at, None, [(name, x.into(), y.into())])
}

/// The first differing entry of two id lists: their lengths, then the
/// entries in order, located as `"{at} count"` / `"{at} {index}"`.
fn list_divergence(at: &str, a: &[u32], b: &[u32]) -> Option<Divergence> {
    field(|| at.to_string(), "count", a.len() as u64, b.len() as u64).or_else(|| {
        let mut entries = a.iter().zip(b).enumerate();
        entries.find_map(|(k, (&x, &y))| field(|| at.to_string(), &k.to_string(), x, y))
    })
}

fn body_divergence(a: &BodyStore, b: &BodyStore) -> Option<Divergence> {
    type LaneFn = fn(&BodyStore) -> &Vec<f32>;
    let named_lanes: [(&str, LaneFn); 19] = [
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
        ("force.x", |s| &s.force.x),
        ("force.y", |s| &s.force.y),
        ("force.z", |s| &s.force.z),
        ("torque.x", |s| &s.torque.x),
        ("torque.y", |s| &s.torque.y),
        ("torque.z", |s| &s.torque.z),
    ];
    (0..a.len()).find_map(|i| {
        let lanes = named_lanes
            .iter()
            .map(|(name, lane)| (*name, bits(lane(a)[i]), bits(lane(b)[i])));
        let rest = [
            ("flags", a.flags[i].0 as u64, b.flags[i].0 as u64),
            (
                "sleep_timer",
                a.sleep_timer[i] as u64,
                b.sleep_timer[i] as u64,
            ),
            ("sleep_ema", bits(a.sleep_ema[i]), bits(b.sleep_ema[i])),
        ];
        first_field(|| format!("body {i}"), Some(i as u32), lanes.chain(rest))
    })
}

/// The sleeping-island table (slot by slot: occupancy, members,
/// manifolds), its free list and the wake queue.
fn sleep_divergence(a: &World, b: &World) -> Option<Divergence> {
    let (sa, sb) = (&a.sleep, &b.sleep);
    let slots = sa.islands.iter().zip(&sb.islands).enumerate();
    field(
        || "sleep island".into(),
        "count",
        sa.islands.len() as u64,
        sb.islands.len() as u64,
    )
    .or_else(|| {
        slots.into_iter().find_map(|(k, (x, y))| {
            let at = format!("sleep island {k}");
            match (x, y) {
                (Some(x), Some(y)) => list_divergence(&format!("{at} body"), &x.bodies, &y.bodies)
                    .or_else(|| manifolds_divergence(&at, &x.manifolds, &y.manifolds)),
                _ => field(|| at, "asleep", x.is_some(), y.is_some()),
            }
        })
    })
    .or_else(|| list_divergence("sleep free list", &sa.free, &sb.free))
    .or_else(|| list_divergence("wake queue", &sa.pending_wakes, &sb.pending_wakes))
}

fn manifolds_divergence(
    at: &str,
    a: &[ContactManifold],
    b: &[ContactManifold],
) -> Option<Divergence> {
    field(
        || format!("{at} manifold"),
        "count",
        a.len() as u64,
        b.len() as u64,
    )
    .or_else(|| {
        a.iter().zip(b).enumerate().find_map(|(k, (x, y))| {
            let at = format!("{at} manifold {k}");
            first_field(
                || at.clone(),
                None,
                [
                    ("geom_a", x.geom_a.0 as u64, y.geom_a.0 as u64),
                    ("geom_b", x.geom_b.0 as u64, y.geom_b.0 as u64),
                    ("friction", bits(x.friction), bits(y.friction)),
                    ("restitution", bits(x.restitution), bits(y.restitution)),
                    ("point count", x.len() as u64, y.len() as u64),
                ],
            )
            .or_else(|| {
                let mut points = x.points.into_iter().zip(&y.points).enumerate();
                points.find_map(|(pi, (p, q))| {
                    first_field(
                        || format!("{at} point {pi}"),
                        None,
                        [
                            ("position.x", bits(p.position.x), bits(q.position.x)),
                            ("position.y", bits(p.position.y), bits(q.position.y)),
                            ("position.z", bits(p.position.z), bits(q.position.z)),
                            ("normal.x", bits(p.normal.x), bits(q.normal.x)),
                            ("normal.y", bits(p.normal.y), bits(q.normal.y)),
                            ("normal.z", bits(p.normal.z), bits(q.normal.z)),
                            ("depth", bits(p.depth), bits(q.depth)),
                            ("feature", p.feature as u64, q.feature as u64),
                        ],
                    )
                })
            })
        })
    })
}

/// The contact cache in sorted-key order, as [`world_digest`] folds it.
fn cache_divergence(a: &ContactCache, b: &ContactCache) -> Option<Divergence> {
    let (ea, eb) = (a.sorted_entries(), b.sorted_entries());
    field(
        || "contact cache".into(),
        "count",
        ea.len() as u64,
        eb.len() as u64,
    )
    .or_else(|| {
        ea.iter()
            .zip(&eb)
            .enumerate()
            .find_map(|(k, (&(ka, x), &(kb, y)))| {
                let at = format!("contact cache {k}");
                first_field(
                    || at.clone(),
                    None,
                    [
                        ("geom_a", ka.0 .0 as u64, kb.0 .0 as u64),
                        ("geom_b", ka.1 .0 as u64, kb.1 .0 as u64),
                        ("age", x.age() as u64, y.age() as u64),
                        (
                            "point count",
                            x.points().len() as u64,
                            y.points().len() as u64,
                        ),
                    ],
                )
                .or_else(|| {
                    let mut points = x.points().iter().zip(y.points()).enumerate();
                    points.find_map(|(pi, (p, q))| {
                        first_field(
                            || format!("{at} point {pi}"),
                            None,
                            [
                                ("feature", p.feature as u64, q.feature as u64),
                                ("position.x", bits(p.position.x), bits(q.position.x)),
                                ("position.y", bits(p.position.y), bits(q.position.y)),
                                ("position.z", bits(p.position.z), bits(q.position.z)),
                                ("lambda.n", bits(p.lambdas[0]), bits(q.lambdas[0])),
                                ("lambda.t1", bits(p.lambdas[1]), bits(q.lambdas[1])),
                                ("lambda.t2", bits(p.lambdas[2]), bits(q.lambdas[2])),
                            ],
                        )
                    })
                })
            })
    })
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

    /// A world holding every kind of state [`world_digest`] folds:
    /// bodies resting in contact (so the contact cache holds pairs), a
    /// joint, a cloth, a prefractured box, a blast, and a sleeping-island
    /// table with a free slot and a pending wake.
    fn everything_world() -> World {
        use crate::cloth::Cloth;
        use crate::contact::ContactPoint;
        use crate::explosion::BlastVolume;
        use crate::fracture::FractureConfig;
        use crate::joint::{Joint, JointKind};
        use crate::sleep::SleepingIsland;

        let mut w = World::new(WorldConfig::default());
        w.add_static_geom(Shape::plane(Vec3::UNIT_Y, 0.0));
        for i in 0..3 {
            w.add_body(
                BodyDesc::dynamic(Vec3::new(i as f32 * 1.1, 0.5, 0.0))
                    .with_shape(Shape::cuboid(Vec3::splat(0.5)), 1.0),
            );
        }
        let anchor = w.add_body(BodyDesc::fixed(Vec3::new(5.0, 2.0, 0.0)));
        let bob = w.add_body(
            BodyDesc::dynamic(Vec3::new(6.0, 2.0, 0.0)).with_shape(Shape::sphere(0.2), 1.0),
        );
        let ball = JointKind::Ball {
            anchor_a: Vec3::ZERO,
            anchor_b: Vec3::new(-1.0, 0.0, 0.0),
        };
        w.add_joint(Joint::new(ball, anchor, bob));
        w.add_cloth(Cloth::rectangle(
            Vec3::new(-2.0, 1.5, -0.5),
            1.0,
            1.0,
            3,
            3,
            &[0],
        ));
        let (rotation, half) = (parallax_math::Quat::IDENTITY, Vec3::splat(0.5));
        let box_at = Vec3::new(0.0, 0.5, 4.0);
        w.add_prefractured(box_at, rotation, half, 2.0, FractureConfig::default());
        for _ in 0..10 {
            w.step();
        }
        w.blasts.push(BlastVolume {
            body: bob,
            center: Vec3::new(1.0, 2.0, 3.0),
            radius: 2.0,
            steps_left: 3,
            impulse: 5.0,
            fresh: true,
        });
        let mut manifold = ContactManifold::new(GeomId(0), GeomId(1));
        manifold.push(ContactPoint {
            position: Vec3::new(0.1, 0.2, 0.3),
            normal: Vec3::UNIT_Y,
            depth: 0.01,
            feature: 2,
        });
        let island = SleepingIsland {
            bodies: vec![0, 1],
            manifolds: vec![manifold],
        };
        w.sleep.islands.extend([Some(island), None]);
        w.sleep.free.push(1);
        w.sleep.pending_wakes.push(2);
        assert!(!w.pipeline().contact_cache().is_empty());
        w
    }

    fn flip(x: &mut f32) {
        *x = f32::from_bits(x.to_bits() ^ 1);
    }

    /// Rewrites the first contact-cache entry through `edit(age, points)`.
    fn edit_cache(w: &mut World, edit: fn(&mut u32, &mut [crate::contact_cache::CachedPoint])) {
        let cache = w.pipeline.as_mut().expect("stepped").contact_cache_mut();
        let (key, pair) = cache.sorted_entries()[0];
        let (key, mut age, mut points) = (*key, pair.age(), pair.points().to_vec());
        edit(&mut age, &mut points);
        cache.insert_raw(key, age, points);
    }

    #[test]
    fn first_divergence_names_every_component_the_digest_folds() {
        type Case = (&'static str, fn(&mut World));
        let cases: [Case; 17] = [
            ("body 1 force.y", |w| flip(&mut w.bodies.force.y[1])),
            ("body 2 torque.z", |w| flip(&mut w.bodies.torque.z[2])),
            ("blast 0 body", |w| w.blasts[0].body.0 ^= 1),
            ("blast 0 center.y", |w| flip(&mut w.blasts[0].center.y)),
            ("blast 0 radius", |w| flip(&mut w.blasts[0].radius)),
            ("blast 0 steps_left", |w| w.blasts[0].steps_left ^= 1),
            ("blast 0 impulse", |w| flip(&mut w.blasts[0].impulse)),
            ("blast 0 fresh", |w| w.blasts[0].fresh ^= true),
            ("prefractured 0 shattered", |w| {
                w.prefractured[0].shattered ^= true
            }),
            ("sleep island 0 body 1", |w| {
                w.sleep.islands[0].as_mut().unwrap().bodies[1] ^= 1
            }),
            ("sleep island 0 manifold 0 point 0 depth", |w| {
                let island = w.sleep.islands[0].as_mut().unwrap();
                flip(&mut island.manifolds[0].points[0].depth)
            }),
            ("sleep island 1 asleep", |w| {
                w.sleep.islands[1] = w.sleep.islands[0].clone()
            }),
            ("sleep free list 0", |w| w.sleep.free[0] ^= 1),
            ("wake queue 0", |w| w.sleep.pending_wakes[0] ^= 1),
            ("contact cache 0 age", |w| edit_cache(w, |age, _| *age ^= 1)),
            ("contact cache 0 point 0 position.x", |w| {
                edit_cache(w, |_, points| flip(&mut points[0].position.x))
            }),
            ("contact cache 0 point 0 lambda.n", |w| {
                edit_cache(w, |_, points| flip(&mut points[0].lambdas[0]))
            }),
        ];
        let a = everything_world();
        assert_eq!(first_divergence(&a, &everything_world()), None);
        for (component, mutate) in cases {
            let mut b = everything_world();
            mutate(&mut b);
            assert_ne!(world_digest(&a), world_digest(&b), "{component}: digest");
            let div = first_divergence(&a, &b).unwrap_or_else(|| panic!("{component}: none"));
            assert_eq!(div.location, component);
        }
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
