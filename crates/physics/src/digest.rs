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
//! What is hashed is listed once. One walk of world state visits every
//! value [`world_digest`] folds, in a fixed order and word framing, and
//! hands it to a visitor: the XXH64 fold over one world gives the
//! whole-world, per-phase and chunk digests; a comparer over two worlds
//! gives [`first_divergence`]. The body lanes come from the store's lane
//! table (`store::BODY_LANES`), which the snapshot's body section reads
//! too. A component the digest folds is therefore one the divergence
//! finder names.
//!
//! Digests are computed per phase behind [`crate::WorldConfig::digests`],
//! published as `physics.digest.<phase>` telemetry gauges, and recorded
//! in the step profile. The deliberate single-ULP fault knob
//! ([`DigestFault`], `bisect --fault`) exists so the bisection tooling
//! can be tested against a divergence with a known ground truth.

use std::ops::Range;
use std::sync::atomic::{AtomicU64, Ordering};

use crate::cloth::Cloth;
use crate::contact::ContactManifold;
use crate::contact_cache::ContactCache;
use crate::joint::Joint;
use crate::probe::{IslandWork, PhaseKind};
use crate::shape::GeomId;
use crate::sleep::SleepSystem;
use crate::store::{BodyStore, LaneClass, BODY_LANES};
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

/// Bytes the per-phase digests below have hashed in this process.
static PHASE_BYTES_HASHED: AtomicU64 = AtomicU64::new(0);

/// Total bytes hashed by the per-phase digests of every world in this
/// process since it started: what `bench_gate digest` divides the
/// measured cost by. Five relaxed adds a step, and only with digests on.
pub fn phase_bytes_hashed() -> u64 {
    PHASE_BYTES_HASHED.load(Ordering::Relaxed)
}

/// Starts a per-phase digest with the body state every phase shares:
/// the body count and the motion, flag and sleep lanes.
fn phase_digest(phase: PhaseKind, world: &World) -> Digest {
    let mut d = Digest::new(phase as u64);
    walk_bodies(&mut d, [&world.bodies], false);
    d
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
    let mut d = phase_digest(PhaseKind::Broadphase, world);
    d.write_u64(candidates.len() as u64);
    d.write_u32s(candidates.iter().flat_map(|&(a, b)| [a.0, b.0]));
    finish_phase(d)
}

/// Digest after narrow-phase: body state (contact events may disable
/// bodies) plus the surviving manifolds.
pub fn narrowphase_digest(world: &World, manifolds: &[ContactManifold]) -> u64 {
    let mut d = phase_digest(PhaseKind::Narrowphase, world);
    walk_manifolds(&mut d, &String::new, [manifolds], false);
    finish_phase(d)
}

/// Digest after island creation: body state plus the island assignment
/// lane the union-find wrote.
pub fn island_creation_digest(world: &World) -> u64 {
    let mut d = phase_digest(PhaseKind::IslandCreation, world);
    d.write_u32s(world.bodies.island.iter().copied());
    finish_phase(d)
}

/// Digest after island processing: post-solve body state, the per-island
/// solver impulse fingerprints (`RowSet::lambda`, hashed inside the
/// solve) and joint mutable state.
pub fn island_processing_digest(world: &World, islands: &[IslandWork]) -> u64 {
    let mut d = phase_digest(PhaseKind::IslandProcessing, world);
    d.write_u64(islands.len() as u64);
    for w in islands {
        d.write_u64(w.lambda_digest);
    }
    walk_joints(&mut d, [&world.joints[..]]);
    finish_phase(d)
}

/// Digest after the cloth phase: body state plus cloth Verlet state.
pub fn cloth_digest(world: &World) -> u64 {
    let mut d = phase_digest(PhaseKind::Cloth, world);
    walk_cloths(&mut d, [&world.cloths[..]]);
    finish_phase(d)
}

/// Whole-world digest: every piece of mutable simulation state —
/// body lanes (including force accumulators), cloths, joints, blasts,
/// fracture flags, the contact cache and the clock. Two worlds with
/// equal digests are on the same trajectory; the bisector's probe
/// comparisons and the snapshot round-trip tests are built on this.
pub fn world_digest(world: &World) -> u64 {
    let mut d = Digest::new(0);
    walk_world(&mut d, [world]);
    d.finish()
}

/// Per-body-range digests of the dynamic state: one digest per chunk of
/// `chunk` bodies. Comparing two worlds chunk-wise narrows a divergence
/// to a body range before [`first_divergence`] names the exact lane.
pub fn chunk_digests(world: &World, chunk: usize) -> Vec<(usize, usize, u64)> {
    assert!(chunk > 0);
    let n = world.bodies.len();
    let digest = |lo: usize| {
        let (hi, mut d) = ((lo + chunk).min(n), Digest::new(lo as u64));
        walk_body_lanes(&mut d, [&world.bodies], lo..hi, false);
        (lo, hi, d.finish())
    };
    (0..n).step_by(chunk).map(digest).collect()
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

/// Compares two worlds over everything [`world_digest`] folds, by the
/// same walk, and reports the first differing value: bodies in index
/// order (each body's lanes in lane-table order, then its flags,
/// sleep timer and activity EMA), then the rest in the digest's order.
/// Returns `None` when the compared state is bit-identical.
pub fn first_divergence(a: &World, b: &World) -> Option<Divergence> {
    let mut compare = Compare::default();
    walk_world(&mut compare, [a, b]);
    compare.found
}

/// What one walk of world state hands its visitor, for `N` worlds walked
/// side by side. There are two visitors: the XXH64 fold ([`Digest`], one
/// world) and the comparer behind [`first_divergence`] (two). Each call
/// carries the word framing the fold needs and the names the comparer
/// reports.
trait Visit<const N: usize> {
    /// A list's length, located `"{at} count"` and folded as one word
    /// when `folded`. Returns how many entries to walk.
    fn count(&mut self, at: At, lens: [usize; N], folded: bool) -> usize;
    /// Values folded one word each, named by `names` (one name per value,
    /// `", "` between them) and located `"{at} {name}"`.
    fn words<const K: usize>(&mut self, at: At, names: &str, values: [[u64; K]; N]);
    /// Named 32-bit values folded two a word.
    fn pairs<const K: usize>(&mut self, at: At, names: &str, values: [[u32; K]; N]);
    /// A run of 32-bit values folded two a word; entry `k` is at `at(k)`.
    /// A run with a `rank` is a body lane (entry `k` is body `k`'s), and
    /// the comparer ranks body lanes body-major, then by `rank`.
    fn run(&mut self, at: AtEntry, rank: Option<usize>, values: [impl Iterator<Item = u32>; N]);
    /// A body lane of `f32` values, folded as a run of their bit patterns.
    fn body_lane(&mut self, at: AtEntry, rank: usize, lanes: [&[f32]; N]);
}

/// Where a value sits; the comparer formats it only to report it.
type At<'a> = &'a dyn Fn() -> String;
/// Where entry `k` of a run sits.
type AtEntry<'a> = &'a dyn Fn(usize) -> String;

/// The fold: every value into the stream, in the walk's framing.
impl Visit<1> for Digest {
    fn count(&mut self, _: At, [n]: [usize; 1], folded: bool) -> usize {
        if folded {
            self.write_u64(n as u64);
        }
        n
    }

    fn words<const K: usize>(&mut self, _: At, _: &str, [v]: [[u64; K]; 1]) {
        v.into_iter().for_each(|word| self.write_u64(word));
    }

    fn pairs<const K: usize>(&mut self, _: At, _: &str, [v]: [[u32; K]; 1]) {
        for pair in v.chunks(2) {
            let hi = pair.get(1).map_or(0, |&w| u64::from(w) << 32);
            self.write_u64(u64::from(pair[0]) | hi);
        }
    }

    fn run(&mut self, _: AtEntry, _: Option<usize>, [values]: [impl Iterator<Item = u32>; 1]) {
        self.write_u32s(values);
    }

    fn body_lane(&mut self, _: AtEntry, _: usize, [lane]: [&[f32]; 1]) {
        self.write_f32s(lane);
    }
}

/// The comparer: keeps the first difference in walk order, except that
/// body lanes, which the walk visits lane by lane, compete body-major.
#[derive(Default)]
struct Compare {
    found: Option<Divergence>,
    /// `(body, rank)` of `found` while it is a body-lane difference.
    body_key: Option<(usize, usize)>,
}

impl Compare {
    /// Keeps a difference unless an earlier one is kept. Body-lane
    /// differences (`body_key` is `(body, rank)`) compete by key; any other
    /// kept difference is earlier, as only the body count is walked before
    /// the body lanes.
    fn differ(&mut self, body_key: Option<(usize, usize)>, at: At, a_bits: u64, b_bits: u64) {
        let earlier = match (self.body_key, body_key) {
            (Some(kept), Some(key)) => kept <= key,
            _ => self.found.is_some(),
        };
        if !earlier {
            self.body_key = body_key;
            self.found = Some(Divergence {
                location: at(),
                body: body_key.map(|(i, _)| i as u32),
                a_bits,
                b_bits,
            });
        }
    }
}

impl Visit<2> for Compare {
    fn count(&mut self, at: At, [x, y]: [usize; 2], _: bool) -> usize {
        if x != y {
            self.differ(None, &|| format!("{} count", at()), x as u64, y as u64);
        }
        x.min(y)
    }

    fn words<const K: usize>(&mut self, at: At, names: &str, [x, y]: [[u64; K]; 2]) {
        let names = || names.split(", ");
        debug_assert_eq!(names().count(), K, "a name per value: {:?}", names());
        if let Some(k) = (0..K).find(|&k| x[k] != y[k]) {
            let name = names().nth(k).expect("a name per value");
            // The clock's fields sit at the top level, under no prefix.
            let location = || format!("{} {name}", at()).trim_start().to_string();
            self.differ(None, &location, x[k], y[k]);
        }
    }

    fn pairs<const K: usize>(&mut self, at: At, names: &str, values: [[u32; K]; 2]) {
        self.words(at, names, values.map(|v| v.map(u64::from)));
    }

    fn run(&mut self, at: AtEntry, rank: Option<usize>, [x, y]: [impl Iterator<Item = u32>; 2]) {
        if let Some((k, (a, b))) = x.zip(y).enumerate().find(|(_, (a, b))| a != b) {
            self.differ(rank.map(|rank| (k, rank)), &|| at(k), a.into(), b.into());
        }
    }

    fn body_lane(&mut self, at: AtEntry, rank: usize, lanes: [&[f32]; 2]) {
        self.run(at, Some(rank), lanes.map(|l| l.iter().map(|v| v.to_bits())));
    }
}

fn bits(x: f32) -> u64 {
    u64::from(x.to_bits())
}

/// Walks everything [`world_digest`] folds, in its order: the bodies
/// (force and torque lanes included), cloth vertices, joints, blasts, the
/// prefractured shatter flags, the sleeping-island table with its free
/// list and wake queue, the contact cache in key order, and the clock.
fn walk_world<V: Visit<N>, const N: usize>(v: &mut V, w: [&World; N]) {
    walk_bodies(v, w.map(|w| &w.bodies), true);
    walk_cloths(v, w.map(|w| &w.cloths[..]));
    walk_joints(v, w.map(|w| &w.joints[..]));
    let blasts = w.map(|w| &w.blasts[..]);
    for k in 0..v.count(&|| "blast".into(), blasts.map(<[_]>::len), true) {
        let names = "body, center.x, center.y, center.z, radius, steps_left, impulse, fresh";
        let values = blasts.map(|b| {
            let (b, c) = (&b[k], b[k].center);
            let [x, y, z, radius, impulse] = [c.x, c.y, c.z, b.radius, b.impulse].map(bits);
            let [body, steps, fresh] = [b.body.0, b.steps_left, b.fresh.into()].map(u64::from);
            [body, x, y, z, radius, steps, impulse, fresh]
        });
        v.words(&|| format!("blast {k}"), names, values);
    }
    let objects = w.map(|w| &w.prefractured[..]);
    let n = v.count(&|| "prefractured".into(), objects.map(<[_]>::len), false);
    let shattered = objects.map(|o| o[..n].iter().map(|p| p.shattered.into()));
    v.run(&|k| format!("prefractured {k} shattered"), None, shattered);
    walk_sleep(v, w.map(|w| &w.sleep));
    if w.iter().all(|w| w.pipeline.is_some()) {
        walk_contact_cache(v, w.map(|w| w.pipeline().contact_cache()));
    }
    let clock = w.map(|w| [w.steps, w.time.to_bits()]);
    v.words(&String::new, "step counter, clock", clock);
}

/// The body count, then the body lanes of every body.
fn walk_bodies<V: Visit<N>, const N: usize>(v: &mut V, b: [&BodyStore; N], load: bool) {
    let n = v.count(&|| "body".into(), b.map(BodyStore::len), true);
    walk_body_lanes(v, b, 0..n, load);
}

/// The motion lanes, flags, sleep timers and activity EMAs of the bodies
/// in `range`, then (`load`) their force and torque lanes.
fn walk_body_lanes<V: Visit<N>, const N: usize>(
    v: &mut V,
    b: [&BodyStore; N],
    range: Range<usize>,
    load: bool,
) {
    let r = || range.clone();
    let at = |name| move |i| format!("body {i} {name}");
    let lanes = |v: &mut V, class| {
        for (rank, lane) in (0..).zip(&BODY_LANES).filter(|(_, l)| l.class == class) {
            v.body_lane(&at(lane.name), rank, b.map(|b| &(lane.get)(b)[r()]));
        }
    };
    lanes(v, LaneClass::Motion);
    let rank = BODY_LANES.len();
    let flags = b.map(|b| b.flags[r()].iter().map(|f| f.0));
    v.run(&at("flags"), Some(rank), flags);
    let timers = b.map(|b| b.sleep_timer[r()].iter().copied());
    v.run(&at("sleep_timer"), Some(rank + 1), timers);
    v.body_lane(&at("sleep_ema"), rank + 2, b.map(|b| &b.sleep_ema[r()]));
    if load {
        lanes(v, LaneClass::Load);
    }
}

/// Cloth Verlet state, current and previous position, three words a
/// vertex.
fn walk_cloths<V: Visit<N>, const N: usize>(v: &mut V, cloths: [&[Cloth]; N]) {
    for c in 0..v.count(&|| "cloth".into(), cloths.map(<[_]>::len), true) {
        let verts = cloths.map(|cloths| cloths[c].vertices());
        let n = verts.map(<[_]>::len);
        for k in 0..v.count(&|| format!("cloth {c} vertex"), n, false) {
            let names = "pos.x, pos.y, pos.z, prev.x, prev.y, prev.z";
            let values = verts.map(|verts| {
                let (p, q) = (verts[k].pos, verts[k].prev);
                [p.x, p.y, p.z, q.x, q.y, q.z].map(f32::to_bits)
            });
            v.pairs(&|| format!("cloth {c} vertex {k}"), names, values);
        }
    }
}

/// Per-joint mutable state: load accumulation and breakage.
fn walk_joints<V: Visit<N>, const N: usize>(v: &mut V, joints: [&[Joint]; N]) {
    for k in 0..v.count(&|| "joint".into(), joints.map(<[_]>::len), true) {
        let names = "accumulated_load, last_impulse, broken";
        let values = joints.map(|j| {
            let (load, impulse) = (bits(j[k].accumulated_load), bits(j[k].last_impulse));
            [load, impulse, j[k].broken.into()]
        });
        v.words(&|| format!("joint {k}"), names, values);
    }
}

/// Contact manifolds: the geom pair, (`material`) friction and
/// restitution, then the points.
fn walk_manifolds<V: Visit<N>, const N: usize>(
    v: &mut V,
    at: At,
    manifolds: [&[ContactManifold]; N],
    material: bool,
) {
    for k in 0..v.count(at, manifolds.map(<[_]>::len), true) {
        let at = || format!("{} {k}", at());
        let m = manifolds.map(|ms| &ms[k]);
        v.pairs(&at, "geom_a, geom_b", m.map(|m| [m.geom_a.0, m.geom_b.0]));
        if material {
            let material = m.map(|m| [m.friction, m.restitution].map(f32::to_bits));
            v.pairs(&at, "friction, restitution", material);
        }
        let points = m.map(|m| &m.points[..]);
        for p in 0..v.count(&|| format!("{} point", at()), points.map(<[_]>::len), true) {
            let names =
                "position.x, position.y, position.z, normal.x, normal.y, normal.z, depth, feature";
            let values = points.map(|points| {
                let (x, n, q) = (points[p].position, points[p].normal, &points[p]);
                let [px, py, pz, nx, ny, nz, depth] =
                    [x.x, x.y, x.z, n.x, n.y, n.z, q.depth].map(f32::to_bits);
                [px, py, pz, nx, ny, nz, depth, q.feature]
            });
            v.pairs(&|| format!("{} point {p}", at()), names, values);
        }
    }
}

/// The sleeping-island table slot by slot (occupancy, members, parked
/// manifolds), then its free list and the wake queue.
fn walk_sleep<V: Visit<N>, const N: usize>(v: &mut V, s: [&SleepSystem; N]) {
    for k in 0..v.count(&|| "sleep island".into(), s.map(|s| s.islands.len()), true) {
        let slots = s.map(|s| s.islands[k].as_ref());
        let asleep = slots.map(|x| [x.is_some().into()]);
        v.words(&|| format!("sleep island {k}"), "asleep", asleep);
        if slots.iter().all(Option::is_some) {
            let islands = slots.map(Option::unwrap);
            let members = islands.map(|i| &i.bodies[..]);
            walk_ids(v, &|| format!("sleep island {k} body"), members, true);
            let manifolds = islands.map(|i| &i.manifolds[..]);
            walk_manifolds(v, &|| format!("sleep island {k} manifold"), manifolds, true);
        }
    }
    let (free, wakes) = (s.map(|s| &s.free[..]), s.map(|s| &s.pending_wakes[..]));
    walk_ids(v, &|| "sleep free list".into(), free, false);
    walk_ids(v, &|| "wake queue".into(), wakes, false);
}

/// An id list: its length (folded when `folded`), then its entries,
/// located `"{at} {k}"`.
fn walk_ids<V: Visit<N>, const N: usize>(v: &mut V, at: At, ids: [&[u32]; N], folded: bool) {
    let n = v.count(at, ids.map(<[_]>::len), folded);
    let entries = ids.map(|ids| ids[..n].iter().copied());
    v.run(&|k| format!("{} {k}", at()), None, entries);
}

/// The contact cache in sorted-key order (the map itself iterates in hash
/// order, which is not deterministic across processes).
fn walk_contact_cache<V: Visit<N>, const N: usize>(v: &mut V, caches: [&ContactCache; N]) {
    let entries = caches.map(ContactCache::sorted_entries);
    let lens = entries.each_ref().map(Vec::len);
    for k in 0..v.count(&|| "contact cache".into(), lens, true) {
        let at = || format!("contact cache {k}");
        let entry = entries.each_ref().map(|e| e[k]);
        let header = entry.map(|(&(a, b), pair)| [a.0, b.0, pair.age()].map(u64::from));
        v.words(&at, "geom_a, geom_b, age", header);
        let points = entry.map(|(_, pair)| pair.points());
        for p in 0..v.count(&|| format!("{} point", at()), points.map(<[_]>::len), false) {
            let at = || format!("{} point {p}", at());
            let q = points.map(|points| &points[p]);
            let names = "feature, position.x, position.y, position.z";
            let values = q.map(|q| {
                let x = q.position;
                [q.feature.into(), bits(x.x), bits(x.y), bits(x.z)]
            });
            v.words(&at, names, values);
            let lambdas = q.map(|q| q.lambdas.map(f32::to_bits));
            v.pairs(&at, "lambda.n, lambda.t1, lambda.t2", lambdas);
        }
    }
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
            // A snapshot carries the mutated component across.
            let mut c = everything_world();
            c.restore(&b.snapshot())
                .unwrap_or_else(|e| panic!("{component}: {e}"));
            assert_eq!(
                world_digest(&c),
                world_digest(&b),
                "{component}: round trip"
            );
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
