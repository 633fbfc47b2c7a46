//! Cross-step contact persistence for solver warm starting.
//!
//! The paper sizes Island Processing around 20 PGS iterations per island
//! (§3.1) — the accuracy/speed knob of the whole architecture. Real-time
//! engines in the PhysX/ODE lineage stretch those iterations much further
//! by exploiting temporal coherence: a resting contact this step is
//! almost always the same resting contact next step, so the accumulated
//! impulse of the previous solve is an excellent initial guess for the
//! current one. [`ContactCache`] stores those accumulated impulses keyed
//! by geom pair, matches points across steps by narrow-phase feature id
//! (with a distance fallback), and ages out pairs that stop touching.
//!
//! # Determinism
//!
//! The cache is *frozen* during the parallel island-processing phase:
//! `solve_island` closures only read it ([`ContactCache::pair`] takes
//! `&self`), and every write — [`ContactCache::store`] and
//! [`ContactCache::end_step`] — happens on the calling thread, in island
//! order, after the executor has joined. Reads see the same snapshot on
//! 1, 2 or 8 threads and writes are ordered by data, not by thread
//! timing, so warm starting preserves the pipeline's bit-exact
//! cross-thread determinism by construction (see `tests/determinism.rs`).

use std::collections::HashMap;

use parallax_math::Vec3;

use crate::contact::{ContactManifold, ContactPoint};
use crate::shape::GeomId;

/// Steps a pair survives in the cache without being refreshed before it
/// is evicted. Small: a contact that has been gone for a few steps has
/// stale impulses anyway.
pub const DEFAULT_MAX_AGE: u32 = 4;

/// Distance (m) within which an unmatched new point may adopt a cached
/// point whose feature id changed (e.g. a clipped face vertex that was
/// renumbered as the boxes slid). Roughly one contact-slop diameter per
/// 60 Hz step of sliding.
pub const MATCH_DISTANCE: f32 = 0.05;

/// One cached contact point: identity plus accumulated impulses.
#[derive(Debug, Clone, Copy, Default)]
pub struct CachedPoint {
    /// Feature id the narrow phase assigned when the point was stored.
    pub feature: u32,
    /// World-space position when stored (the distance-fallback key).
    pub position: Vec3,
    /// Accumulated `[normal, tangent1, tangent2]` impulses of the last
    /// solve.
    pub lambdas: [f32; 3],
}

/// Cached state for one geom pair.
#[derive(Debug, Clone, Default)]
pub struct PairCache {
    points: Vec<CachedPoint>,
    /// Steps since this pair was last stored (0 = stored this step).
    age: u32,
}

impl PairCache {
    /// The cached points.
    pub fn points(&self) -> &[CachedPoint] {
        &self.points
    }

    /// Steps since the pair was last refreshed.
    pub fn age(&self) -> u32 {
        self.age
    }
}

/// Per-manifold warm-start seeding outcome.
#[derive(Debug, Default, Clone, Copy)]
pub struct WarmStats {
    /// New points matched to a cached impulse.
    pub hits: u32,
    /// New points with no usable cached impulse (seeded at zero).
    pub misses: u32,
}

impl WarmStats {
    /// Accumulates another manifold's outcome.
    pub fn merge(&mut self, other: WarmStats) {
        self.hits += other.hits;
        self.misses += other.misses;
    }
}

/// Seeds `[normal, t1, t2]` impulses for every point of `manifold` from
/// `pair` (the cache entry for its geom pair, if any). Points are matched
/// by feature id first, then by nearest stored position within
/// [`MATCH_DISTANCE`]; each cached point seeds at most one new point.
/// Unmatched points seed at zero and count as misses.
pub fn seed_lambdas(
    pair: Option<&PairCache>,
    manifold: &ContactManifold,
) -> ([[f32; 3]; ContactManifold::MAX_POINTS], WarmStats) {
    let mut seeds = [[0.0f32; 3]; ContactManifold::MAX_POINTS];
    let mut stats = WarmStats::default();
    let Some(pair) = pair else {
        stats.misses = manifold.len() as u32;
        return (seeds, stats);
    };
    let mut used = [false; ContactManifold::MAX_POINTS];
    // Pass 1: exact feature matches.
    let mut matched = [false; ContactManifold::MAX_POINTS];
    for (i, cp) in manifold.points.iter().enumerate() {
        if let Some(j) = pair
            .points
            .iter()
            .enumerate()
            .position(|(j, c)| !used[j] && c.feature == cp.feature)
        {
            used[j] = true;
            matched[i] = true;
            seeds[i] = pair.points[j].lambdas;
        }
    }
    // Pass 2: distance fallback for renumbered features.
    for (i, cp) in manifold.points.iter().enumerate() {
        if matched[i] {
            stats.hits += 1;
            continue;
        }
        let mut best: Option<(usize, f32)> = None;
        for (j, c) in pair.points.iter().enumerate() {
            if used[j] {
                continue;
            }
            let d2 = (c.position - cp.position).length_squared();
            if d2 <= MATCH_DISTANCE * MATCH_DISTANCE && best.is_none_or(|(_, b)| d2 < b) {
                best = Some((j, d2));
            }
        }
        match best {
            Some((j, _)) => {
                used[j] = true;
                seeds[i] = pair.points[j].lambdas;
                stats.hits += 1;
            }
            None => stats.misses += 1,
        }
    }
    (seeds, stats)
}

/// Extracts the cache key for a manifold's geom pair (narrow-phase
/// already orders manifolds `geom_a`/`geom_b` as emitted by broad-phase,
/// which is `a < b`, but normalize defensively).
#[inline]
pub fn pair_key(m: &ContactManifold) -> (GeomId, GeomId) {
    if m.geom_a <= m.geom_b {
        (m.geom_a, m.geom_b)
    } else {
        (m.geom_b, m.geom_a)
    }
}

/// The persistent contact cache, owned by the step pipeline.
#[derive(Debug, Default)]
pub struct ContactCache {
    map: HashMap<(GeomId, GeomId), PairCache>,
    scratch: Vec<CachedPoint>,
}

impl ContactCache {
    /// Creates an empty cache.
    pub fn new() -> Self {
        ContactCache::default()
    }

    /// Number of cached pairs.
    pub fn len(&self) -> usize {
        self.map.len()
    }

    /// `true` when no pair is cached.
    pub fn is_empty(&self) -> bool {
        self.map.is_empty()
    }

    /// Heap bytes of the table and of every entry's points.
    pub(crate) fn heap_bytes(&self) -> usize {
        use crate::heap::{map_bytes, vec_bytes};
        map_bytes(&self.map)
            + self
                .map
                .values()
                .map(|p| vec_bytes(&p.points))
                .sum::<usize>()
            + vec_bytes(&self.scratch)
    }

    /// Drops every entry (warm-starting ablation off-switch).
    pub fn clear(&mut self) {
        self.map.clear();
    }

    /// The cached state for a pair, if any. Safe to call concurrently
    /// from the parallel island solves: `&self` only.
    #[inline]
    pub fn pair(&self, key: (GeomId, GeomId)) -> Option<&PairCache> {
        self.map.get(&key)
    }

    /// Stores the post-solve impulses for one pair, resetting its age.
    /// Caller-thread only (see the module's determinism note).
    pub fn store(
        &mut self,
        key: (GeomId, GeomId),
        points: impl IntoIterator<Item = (ContactPoint, [f32; 3])>,
    ) {
        self.scratch.clear();
        self.scratch
            .extend(points.into_iter().map(|(cp, lambdas)| CachedPoint {
                feature: cp.feature,
                position: cp.position,
                lambdas,
            }));
        let entry = self.map.entry(key).or_default();
        entry.age = 0;
        entry.points.clear();
        entry.points.extend_from_slice(&self.scratch);
    }

    /// Every cached pair in sorted key order — the deterministic
    /// iteration used by state digests and snapshots (the map itself
    /// iterates in hash order, which differs between processes).
    pub fn sorted_entries(&self) -> Vec<(&(GeomId, GeomId), &PairCache)> {
        let mut entries: Vec<_> = self.map.iter().collect();
        entries.sort_unstable_by_key(|(key, _)| **key);
        entries
    }

    /// Rebuilds one entry verbatim (snapshot restore).
    pub(crate) fn insert_raw(&mut self, key: (GeomId, GeomId), age: u32, points: Vec<CachedPoint>) {
        self.map.insert(key, PairCache { points, age });
    }

    /// Ages every entry and evicts pairs unmatched for more than
    /// `max_age` steps or whose geoms are no longer live (`is_live`
    /// should report a geom as dead when it was disabled or removed).
    pub fn end_step(&mut self, max_age: u32, is_live: impl FnMut(GeomId) -> bool) {
        self.end_step_pinned(max_age, is_live, |_| false);
    }

    /// [`end_step`](ContactCache::end_step) with a pin predicate: pairs
    /// where either geom is pinned (its body sleeps — narrow-phase skips
    /// the pair, so the cache would otherwise age it out while the
    /// impulses are still exactly right) neither age nor evict, except
    /// when a geom dies. Returns whether the cache came through unchanged:
    /// every entry live and pinned.
    pub fn end_step_pinned(
        &mut self,
        max_age: u32,
        mut is_live: impl FnMut(GeomId) -> bool,
        mut is_pinned: impl FnMut(GeomId) -> bool,
    ) -> bool {
        let mut unchanged = true;
        self.map.retain(|&(a, b), pair| {
            if !(is_live(a) && is_live(b)) {
                unchanged = false;
                return false;
            }
            if is_pinned(a) || is_pinned(b) {
                return true;
            }
            unchanged = false;
            pair.age += 1;
            pair.age <= max_age
        });
        unchanged
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    fn point(feature: u32, pos: Vec3) -> ContactPoint {
        ContactPoint {
            position: pos,
            normal: Vec3::UNIT_Y,
            depth: 0.01,
            feature,
        }
    }

    fn manifold(points: &[ContactPoint]) -> ContactManifold {
        let mut m = ContactManifold::new(GeomId(0), GeomId(1));
        for &p in points {
            m.push(p);
        }
        m
    }

    #[test]
    fn feature_match_transfers_lambdas() {
        let mut cache = ContactCache::new();
        let key = (GeomId(0), GeomId(1));
        cache.store(key, [(point(7, Vec3::ZERO), [2.0, 0.5, -0.5])]);
        let m = manifold(&[point(7, Vec3::new(1.0, 0.0, 0.0))]);
        // Position moved a metre but the feature id survives: still a hit.
        let (seeds, stats) = seed_lambdas(cache.pair(key), &m);
        assert_eq!(stats.hits, 1);
        assert_eq!(stats.misses, 0);
        assert_eq!(seeds[0], [2.0, 0.5, -0.5]);
    }

    #[test]
    fn distance_fallback_matches_renumbered_features() {
        let mut cache = ContactCache::new();
        let key = (GeomId(0), GeomId(1));
        cache.store(key, [(point(3, Vec3::ZERO), [1.5, 0.0, 0.0])]);
        // Feature changed (clip renumbering) but the point barely moved.
        let m = manifold(&[point(9, Vec3::new(0.01, 0.0, 0.0))]);
        let (seeds, stats) = seed_lambdas(cache.pair(key), &m);
        assert_eq!(stats.hits, 1);
        assert_eq!(seeds[0][0], 1.5);
        // Too far away: miss, zero seed.
        let far = manifold(&[point(9, Vec3::new(1.0, 0.0, 0.0))]);
        let (seeds, stats) = seed_lambdas(cache.pair(key), &far);
        assert_eq!(stats.misses, 1);
        assert_eq!(seeds[0], [0.0; 3]);
    }

    #[test]
    fn each_cached_point_seeds_at_most_once() {
        let mut cache = ContactCache::new();
        let key = (GeomId(0), GeomId(1));
        cache.store(key, [(point(1, Vec3::ZERO), [4.0, 0.0, 0.0])]);
        // Two new points share the cached feature; only one may claim it.
        let m = manifold(&[point(1, Vec3::ZERO), point(1, Vec3::new(0.01, 0.0, 0.0))]);
        let (seeds, stats) = seed_lambdas(cache.pair(key), &m);
        assert_eq!(stats.hits, 1);
        assert_eq!(stats.misses, 1);
        assert_eq!(seeds[0][0] + seeds[1][0], 4.0);
    }

    #[test]
    fn missing_pair_counts_all_misses() {
        let cache = ContactCache::new();
        let m = manifold(&[point(0, Vec3::ZERO), point(1, Vec3::UNIT_X)]);
        let (seeds, stats) = seed_lambdas(cache.pair((GeomId(0), GeomId(1))), &m);
        assert_eq!(stats.hits, 0);
        assert_eq!(stats.misses, 2);
        assert!(seeds.iter().all(|s| *s == [0.0; 3]));
    }

    #[test]
    fn entries_age_out_and_dead_geoms_evict() {
        let mut cache = ContactCache::new();
        let stale = (GeomId(0), GeomId(1));
        let fresh = (GeomId(2), GeomId(3));
        let dead = (GeomId(4), GeomId(5));
        for key in [stale, fresh, dead] {
            cache.store(key, [(point(0, Vec3::ZERO), [1.0, 0.0, 0.0])]);
        }
        // Geom 4 dies immediately.
        cache.end_step(2, |g| g != GeomId(4));
        assert!(cache.pair(dead).is_none());
        assert_eq!(cache.len(), 2);
        // `fresh` keeps being refreshed, `stale` does not.
        for _ in 0..3 {
            cache.store(fresh, [(point(0, Vec3::ZERO), [1.0, 0.0, 0.0])]);
            cache.end_step(2, |_| true);
        }
        assert!(cache.pair(stale).is_none(), "stale pair must age out");
        assert!(cache.pair(fresh).is_some());
        assert_eq!(cache.len(), 1);
    }

    #[test]
    fn pinned_pairs_do_not_age_but_dead_geoms_still_evict() {
        let mut cache = ContactCache::new();
        let pinned = (GeomId(0), GeomId(1));
        let plain = (GeomId(2), GeomId(3));
        for key in [pinned, plain] {
            cache.store(key, [(point(0, Vec3::ZERO), [1.0, 0.0, 0.0])]);
        }
        // Geom 0 is pinned (sleeping body): its pair outlives max_age.
        for _ in 0..5 {
            cache.end_step_pinned(2, |_| true, |g| g == GeomId(0));
        }
        assert!(cache.pair(pinned).is_some(), "pinned pair must survive");
        assert_eq!(cache.pair(pinned).unwrap().age(), 0);
        assert!(cache.pair(plain).is_none(), "unpinned pair ages out");
        // Death beats pinning.
        cache.end_step_pinned(2, |g| g != GeomId(1), |g| g == GeomId(0));
        assert!(cache.pair(pinned).is_none());
    }

    #[test]
    fn pair_key_normalizes_order() {
        let m = ContactManifold::new(GeomId(9), GeomId(2));
        assert_eq!(pair_key(&m), (GeomId(2), GeomId(9)));
    }
}
