//! The all-pairs broad phase: O(n²), far too slow for real scenes, but
//! trivially correct. The oracle the property tests hold the engine's
//! `UniformGrid` and the reference `SweepAndPrune` to.

use parallax_math::Aabb;
use parallax_physics::broadphase::BroadphaseStats;
use parallax_physics::shape::GeomId;

/// Tests every geom pair directly.
#[derive(Debug, Default)]
pub struct BruteForce;

impl BruteForce {
    /// Computes the overlapping pairs into `out` (cleared first), in the
    /// canonical order: sorted, deduplicated, `a < b`.
    pub fn pairs_into(
        &self,
        aabbs: &[(GeomId, Aabb)],
        out: &mut Vec<(GeomId, GeomId)>,
    ) -> BroadphaseStats {
        let mut stats = BroadphaseStats {
            geoms: aabbs.len(),
            ..Default::default()
        };
        out.clear();
        for (i, (ga, ba)) in aabbs.iter().enumerate() {
            for (gb, bb) in &aabbs[i + 1..] {
                stats.overlap_tests += 1;
                if ba.overlaps(bb) {
                    let (lo, hi) = if ga < gb { (*ga, *gb) } else { (*gb, *ga) };
                    out.push((lo, hi));
                }
            }
        }
        out.sort_unstable();
        stats.pairs = out.len();
        stats
    }
}
