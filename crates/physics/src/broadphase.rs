//! Broad-phase collision culling.
//!
//! The paper notes that broad-phase algorithms that maintain a spatial
//! structure (hash tables, kd-trees, sweep-and-prune axes) are hard to
//! parallelize — this is one of the two *serial* phases. Every algorithm
//! here emits the same canonical candidate list (sorted, deduplicated,
//! `a < b`), so they are interchangeable down to the phase digests:
//!
//! * [`UniformGrid`] — a persistent uniform spatial hash, the broad phase
//!   every world runs (cell edge [`GRID_CELL`]). Proxies carry fat AABBs
//!   and the set of fat-overlapping pairs is maintained by deltas, so a
//!   step pays for the geoms that left their margin, not for the
//!   population. Its two invariants (tight ⊆ fat; pair list ⊇
//!   fat-overlapping pairs) are purely geometric — see the type's
//!   documentation.
//! * [`SweepAndPrune`] — sort-and-sweep along the X axis (the algorithm
//!   ODE's `dxSAPSpace` uses), rebuilt from the AABBs every step: the
//!   history-free reference the grid's candidates are checked against,
//!   step by step, and the other side of the broad-phase ablation.
//! * [`BruteForce`] — all pairs; the oracle of the property tests.

use std::collections::HashMap;

use parallax_math::{Aabb, Vec3};

use crate::shape::GeomId;

/// Cell edge (m) of the [`UniformGrid`] every world's broad phase runs.
pub const GRID_CELL: f32 = 1.2;

/// Work statistics produced by a broad-phase pass (consumed by the trace
/// layer to derive instruction counts).
#[derive(Debug, Default, Clone, Copy, PartialEq, Eq)]
pub struct BroadphaseStats {
    /// Number of enabled geoms considered.
    pub geoms: usize,
    /// Comparisons performed while sorting endpoints, or cell-table
    /// inserts and removes.
    pub sort_ops: usize,
    /// AABB overlap tests performed (fat and tight alike).
    pub overlap_tests: usize,
    /// Pairs emitted.
    pub pairs: usize,
    /// Proxies a persistent structure inserted or re-inserted this call
    /// (0 for the rebuild-per-step algorithms).
    pub reinserts: usize,
    /// Fat-overlapping pairs a persistent structure holds after this call
    /// (0 for the rebuild-per-step algorithms).
    pub fat_pairs: usize,
}

/// A broad-phase algorithm: produces candidate geom pairs from AABBs.
pub trait Broadphase {
    /// Computes candidate overlapping pairs into `out` (cleared first),
    /// reusing `out`'s capacity across calls.
    ///
    /// `aabbs` carries `(geom, world aabb)` for every enabled geom, each
    /// geom once. The emitted pairs are sorted and deduplicated, with
    /// `a < b`, so every algorithm drives the same downstream order.
    fn pairs_into(
        &mut self,
        aabbs: &[(GeomId, Aabb)],
        out: &mut Vec<(GeomId, GeomId)>,
    ) -> BroadphaseStats;

    /// Convenience wrapper around [`pairs_into`](Broadphase::pairs_into)
    /// allocating a fresh pair vector.
    fn pairs(&mut self, aabbs: &[(GeomId, Aabb)]) -> (Vec<(GeomId, GeomId)>, BroadphaseStats) {
        let mut out = Vec::new();
        let stats = self.pairs_into(aabbs, &mut out);
        (out, stats)
    }
}

/// Sort-and-sweep along the X axis.
///
/// Geoms are sorted by their AABB min-x; a sweep then tests each geom
/// against followers whose min-x is below its max-x. This is O(n log n +
/// n·k) and matches the serial, hard-to-parallelize profile the paper
/// describes.
///
/// The sort order persists across calls: on temporally coherent frames the
/// previous permutation is already (almost) sorted, which the
/// pattern-defeating quicksort exploits, and the reported
/// [`BroadphaseStats::sort_ops`] are the comparisons actually executed
/// rather than an n·log₂n estimate.
#[derive(Debug, Default)]
pub struct SweepAndPrune {
    // Previous frame's sort permutation, reused as the starting order.
    order: Vec<u32>,
}

impl SweepAndPrune {
    /// Creates a new sweep-and-prune broad-phase.
    pub fn new() -> Self {
        Self::default()
    }
}

impl Broadphase for SweepAndPrune {
    fn pairs_into(
        &mut self,
        aabbs: &[(GeomId, Aabb)],
        out: &mut Vec<(GeomId, GeomId)>,
    ) -> BroadphaseStats {
        let n = aabbs.len();
        let mut stats = BroadphaseStats {
            geoms: n,
            ..Default::default()
        };
        out.clear();
        // Start from the previous frame's permutation when the population
        // is unchanged; coherent motion leaves it nearly sorted.
        if self.order.len() != n {
            self.order.clear();
            self.order.extend(0..n as u32);
        }
        let mut sort_ops = 0usize;
        self.order.sort_unstable_by(|&a, &b| {
            sort_ops += 1;
            // Tie-break equal keys by index so the final permutation does
            // not depend on the (history-dependent) starting order.
            aabbs[a as usize]
                .1
                .min
                .x
                .total_cmp(&aabbs[b as usize].1.min.x)
                .then(a.cmp(&b))
        });
        stats.sort_ops = sort_ops;

        for (i, &ia) in self.order.iter().enumerate() {
            let (ga, ba) = &aabbs[ia as usize];
            for &ib in &self.order[i + 1..] {
                let (gb, bb) = &aabbs[ib as usize];
                if bb.min.x > ba.max.x {
                    break;
                }
                stats.overlap_tests += 1;
                if ba.overlaps(bb) {
                    let (lo, hi) = if ga < gb { (*ga, *gb) } else { (*gb, *ga) };
                    out.push((lo, hi));
                }
            }
        }
        // Sweep order follows min-x; emit the canonical order instead.
        out.sort_unstable();
        stats.pairs = out.len();
        stats
    }
}

/// Brute-force all-pairs broad-phase.
///
/// Tests every geom pair directly — O(n²), far too slow for real scenes,
/// but trivially correct. It is the reference oracle the property tests
/// compare [`SweepAndPrune`] and [`UniformGrid`] against.
#[derive(Debug, Default)]
pub struct BruteForce;

impl BruteForce {
    /// Creates the reference broad-phase.
    pub fn new() -> Self {
        BruteForce
    }
}

impl Broadphase for BruteForce {
    fn pairs_into(
        &mut self,
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

/// Persistent uniform-grid broad-phase.
///
/// Every geom owns a *proxy* with a fat AABB. It starts as the tight box;
/// once the geom escapes it, it is the tight box grown by a margin of
/// `MARGIN_PER_CELL`·`cell` and stretched along the observed per-step
/// displacement, so a fast mover is not re-inserted every step and a geom
/// that never moves pays for no margin. The cell table bins proxies by
/// their fat boxes, and a sorted list holds every pair of live proxies
/// whose fat boxes overlap. A step walks the input once; only a geom that
/// is new, that vanished from the input, or whose tight box left its fat
/// box touches the cell table and the pair list. The candidates emitted
/// are the pair list filtered by the tight overlap test — the same list a
/// from-scratch pass produces, whatever the history — while
/// [`BroadphaseStats`] counts the work this call actually did, which does
/// depend on the history.
///
/// Two invariants hold between calls and carry the correctness argument;
/// nothing else about the caller (epochs, sleep or static flags) is used:
///
/// 1. tight ⊆ fat for every live proxy, and
/// 2. the pair list ⊇ every pair of live proxies whose fat boxes overlap.
#[derive(Debug)]
pub struct UniformGrid {
    cell: f32,
    /// Indexed by `GeomId`.
    proxies: Vec<Proxy>,
    cells: HashMap<(i32, i32, i32), Vec<u32>>,
    /// Emptied cell vectors, reused so movers do not allocate.
    spare: Vec<Vec<u32>>,
    /// Proxies too large for the cell table (planes, big heightfields),
    /// tested against everyone.
    global: Vec<u32>,
    /// Sorted `(a < b)` pairs of live proxies with overlapping fat boxes.
    fat_pairs: Vec<(GeomId, GeomId)>,
    // Per-call scratch, kept for its capacity.
    dirty: Vec<u32>,
    added: Vec<(GeomId, GeomId)>,
    merged: Vec<(GeomId, GeomId)>,
    touched: Vec<u32>,
}

#[derive(Debug, Clone, Copy)]
struct Proxy {
    tight: Aabb,
    fat: Aabb,
    /// In the cell table or the global list.
    live: bool,
    /// Carried by the current call's input.
    seen: bool,
    /// Inserted, re-inserted or removed by the current call.
    dirty: bool,
    /// Already visited by the current neighbour scan.
    mark: bool,
}

impl Proxy {
    const ABSENT: Proxy = Proxy {
        tight: Aabb::EMPTY,
        fat: Aabb::EMPTY,
        live: false,
        seen: false,
        dirty: false,
        mark: false,
    };
}

/// Fat-box margin as a fraction of the cell size.
const MARGIN_PER_CELL: f32 = 0.1;
/// Steps of observed displacement a re-inserted proxy is stretched by
/// (each side by at most one cell, so a teleport does not flood the grid).
const LOOKAHEAD_STEPS: f32 = 4.0;
/// A fat box spanning more cells than this on any axis goes to the
/// global list instead of the cell table.
const MAX_CELLS_PER_AXIS: i64 = 64;

/// The keys of an inclusive cell range.
fn cell_keys((lo, hi): ([i32; 3], [i32; 3])) -> impl Iterator<Item = (i32, i32, i32)> {
    (lo[0]..=hi[0]).flat_map(move |x| {
        (lo[1]..=hi[1]).flat_map(move |y| (lo[2]..=hi[2]).map(move |z| (x, y, z)))
    })
}

impl UniformGrid {
    /// Creates a grid with the given cell size.
    ///
    /// # Panics
    ///
    /// Panics if `cell` is not positive and finite.
    pub fn new(cell: f32) -> Self {
        assert!(cell > 0.0 && cell.is_finite(), "cell size must be positive");
        UniformGrid {
            cell,
            proxies: Vec::new(),
            cells: HashMap::new(),
            spare: Vec::new(),
            global: Vec::new(),
            fat_pairs: Vec::new(),
            dirty: Vec::new(),
            added: Vec::new(),
            merged: Vec::new(),
            touched: Vec::new(),
        }
    }

    /// Inclusive cell range of a fat box, or `None` when it belongs in
    /// the global list.
    fn cell_range(&self, fat: &Aabb) -> Option<([i32; 3], [i32; 3])> {
        let index = |v: Vec3| {
            [
                (v.x / self.cell).floor() as i32,
                (v.y / self.cell).floor() as i32,
                (v.z / self.cell).floor() as i32,
            ]
        };
        let (lo, hi) = (index(fat.min), index(fat.max));
        let oversized = (0..3).any(|k| hi[k] as i64 - lo[k] as i64 > MAX_CELLS_PER_AXIS);
        (!oversized).then_some((lo, hi))
    }

    /// The fat box of a proxy that escaped: `tight` grown by the margin
    /// and stretched along its change since `prev`, the tight box of the
    /// previous call.
    fn fatten(&self, tight: &Aabb, prev: &Aabb) -> Aabb {
        // A NaN difference (infinite boxes) stretches by nothing: the
        // `min`/`max` against zero discard it.
        let reach = |d: f32| (d * LOOKAHEAD_STEPS).clamp(-self.cell, self.cell);
        let lo = tight.min - prev.min;
        let hi = tight.max - prev.max;
        let mut fat = tight.expanded(self.cell * MARGIN_PER_CELL);
        fat.min += Vec3::new(reach(lo.x), reach(lo.y), reach(lo.z)).min(Vec3::ZERO);
        fat.max += Vec3::new(reach(hi.x), reach(hi.y), reach(hi.z)).max(Vec3::ZERO);
        fat
    }

    /// Adds proxy `i` to the cells (or the global list) its fat box covers.
    fn insert(&mut self, i: u32, stats: &mut BroadphaseStats) {
        let Some(range) = self.cell_range(&self.proxies[i as usize].fat) else {
            self.global.push(i);
            stats.sort_ops += 1;
            return;
        };
        for key in cell_keys(range) {
            let spare = &mut self.spare;
            self.cells
                .entry(key)
                .or_insert_with(|| spare.pop().unwrap_or_default())
                .push(i);
            stats.sort_ops += 1;
        }
    }

    /// Removes proxy `i` from wherever [`insert`](Self::insert) put it;
    /// its fat box must be unchanged since.
    fn remove(&mut self, i: u32, stats: &mut BroadphaseStats) {
        let Some(range) = self.cell_range(&self.proxies[i as usize].fat) else {
            self.global.retain(|&g| g != i);
            stats.sort_ops += 1;
            return;
        };
        for key in cell_keys(range) {
            let members = self.cells.get_mut(&key).expect("proxy is in its cells");
            let at = members
                .iter()
                .position(|&m| m == i)
                .expect("proxy is in its cells");
            members.swap_remove(at);
            if members.is_empty() {
                let emptied = self.cells.remove(&key).expect("cell exists");
                self.spare.push(emptied);
            }
            stats.sort_ops += 1;
        }
    }

    /// Fat-tests dirty proxy `i` against live proxy `m`, recording an
    /// overlap in `added`. A pair of two dirty proxies is left to the scan
    /// of the lower id, so it is tested and recorded once.
    fn test_fat(&mut self, i: u32, m: u32, stats: &mut BroadphaseStats) {
        let other = &self.proxies[m as usize];
        if m == i || (other.dirty && m < i) {
            return;
        }
        stats.overlap_tests += 1;
        if self.proxies[i as usize].fat.overlaps(&other.fat) {
            self.added.push((GeomId(i.min(m)), GeomId(i.max(m))));
        }
    }

    /// Finds every live proxy whose fat box overlaps dirty proxy `i`'s.
    fn scan_neighbours(&mut self, i: u32, stats: &mut BroadphaseStats) {
        let Some(range) = self.cell_range(&self.proxies[i as usize].fat) else {
            for m in 0..self.proxies.len() as u32 {
                if self.proxies[m as usize].live {
                    self.test_fat(i, m, stats);
                }
            }
            return;
        };
        // A neighbour sharing several cells is tested once.
        let mut touched = std::mem::take(&mut self.touched);
        for key in cell_keys(range) {
            for &m in &self.cells[&key] {
                let mark = &mut self.proxies[m as usize].mark;
                if !*mark {
                    *mark = true;
                    touched.push(m);
                }
            }
        }
        for &m in &touched {
            self.proxies[m as usize].mark = false;
            self.test_fat(i, m, stats);
        }
        touched.clear();
        self.touched = touched;
        for k in 0..self.global.len() {
            self.test_fat(i, self.global[k], stats);
        }
    }
}

impl Broadphase for UniformGrid {
    fn pairs_into(
        &mut self,
        aabbs: &[(GeomId, Aabb)],
        out: &mut Vec<(GeomId, GeomId)>,
    ) -> BroadphaseStats {
        let mut stats = BroadphaseStats {
            geoms: aabbs.len(),
            ..Default::default()
        };
        out.clear();

        // Containment sweep: refresh every tight box; a proxy that is new
        // or escaped its fat box is (re-)inserted and becomes dirty.
        for &(id, tight) in aabbs {
            let i = id.index();
            if i >= self.proxies.len() {
                self.proxies.resize(i + 1, Proxy::ABSENT);
            }
            let p = &mut self.proxies[i];
            p.seen = true;
            let prev = std::mem::replace(&mut p.tight, tight);
            if p.live {
                if p.fat.contains(&tight) {
                    continue;
                }
                self.remove(id.0, &mut stats);
                self.proxies[i].fat = self.fatten(&tight, &prev);
            } else {
                // No margin until the proxy is seen to move: geoms that
                // never do (terrain, walls, dormant debris) add no fat
                // pairs beyond their tight ones.
                p.live = true;
                p.fat = tight;
            }
            self.insert(id.0, &mut stats);
            self.proxies[i].dirty = true;
            self.dirty.push(id.0);
        }
        stats.reinserts = self.dirty.len();

        // Proxies the input no longer carries (disabled, fractured) leave.
        for i in 0..self.proxies.len() as u32 {
            let p = &mut self.proxies[i as usize];
            if p.live && !std::mem::take(&mut p.seen) {
                p.live = false;
                p.dirty = true;
                self.remove(i, &mut stats);
                self.dirty.push(i);
            }
        }

        // Pairs gained: every fat overlap of a dirty, live proxy.
        for k in 0..self.dirty.len() {
            let i = self.dirty[k];
            if self.proxies[i as usize].live {
                self.scan_neighbours(i, &mut stats);
            }
        }
        self.added.sort_unstable();

        // One merge pass: pairs with a dirty end are dropped (those that
        // still overlap were just found again), gained pairs are merged
        // in, and what survives the tight test is emitted.
        let proxies = &self.proxies;
        let merged = &mut self.merged;
        let mut keep = |pair: (GeomId, GeomId)| {
            merged.push(pair);
            stats.overlap_tests += 1;
            if proxies[pair.0.index()]
                .tight
                .overlaps(&proxies[pair.1.index()].tight)
            {
                out.push(pair);
            }
        };
        let mut gained = self.added.iter().copied().peekable();
        for &pair in &self.fat_pairs {
            if proxies[pair.0.index()].dirty || proxies[pair.1.index()].dirty {
                continue;
            }
            while let Some(g) = gained.next_if(|g| *g < pair) {
                keep(g);
            }
            keep(pair);
        }
        gained.for_each(keep);
        std::mem::swap(&mut self.fat_pairs, &mut self.merged);
        self.merged.clear();
        self.added.clear();
        for i in self.dirty.drain(..) {
            self.proxies[i as usize].dirty = false;
        }

        stats.pairs = out.len();
        stats.fat_pairs = self.fat_pairs.len();
        stats
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use parallax_math::Vec3;

    fn boxes(centers: &[Vec3], half: f32) -> Vec<(GeomId, Aabb)> {
        centers
            .iter()
            .enumerate()
            .map(|(i, c)| {
                (
                    GeomId(i as u32),
                    Aabb::from_center_half_extents(*c, Vec3::splat(half)),
                )
            })
            .collect()
    }

    fn sorted(mut v: Vec<(GeomId, GeomId)>) -> Vec<(GeomId, GeomId)> {
        v.sort();
        v
    }

    #[test]
    fn sap_finds_overlapping_pair() {
        let aabbs = boxes(
            &[
                Vec3::ZERO,
                Vec3::new(0.5, 0.0, 0.0),
                Vec3::new(10.0, 0.0, 0.0),
            ],
            0.5,
        );
        let (pairs, stats) = SweepAndPrune::new().pairs(&aabbs);
        assert_eq!(pairs, vec![(GeomId(0), GeomId(1))]);
        assert_eq!(stats.pairs, 1);
        assert_eq!(stats.geoms, 3);
    }

    #[test]
    fn sap_no_pairs_when_separated() {
        let aabbs = boxes(
            &[
                Vec3::ZERO,
                Vec3::new(5.0, 0.0, 0.0),
                Vec3::new(-5.0, 0.0, 0.0),
            ],
            0.5,
        );
        let (pairs, _) = SweepAndPrune::new().pairs(&aabbs);
        assert!(pairs.is_empty());
    }

    #[test]
    fn sap_separated_on_other_axes_culled() {
        // Same x interval but far apart in y: the sweep must still reject.
        let aabbs = boxes(&[Vec3::ZERO, Vec3::new(0.0, 100.0, 0.0)], 0.5);
        let (pairs, stats) = SweepAndPrune::new().pairs(&aabbs);
        assert!(pairs.is_empty());
        assert_eq!(stats.overlap_tests, 1);
    }

    #[test]
    fn grid_matches_sap_on_clusters() {
        let centers: Vec<Vec3> = (0..20)
            .map(|i| Vec3::new((i % 5) as f32 * 0.8, (i / 5) as f32 * 0.8, 0.0))
            .collect();
        let aabbs = boxes(&centers, 0.5);
        let (mut sap, _) = SweepAndPrune::new().pairs(&aabbs);
        let (mut grid, _) = UniformGrid::new(2.0).pairs(&aabbs);
        sap.sort();
        grid.sort();
        assert_eq!(sap, grid);
    }

    #[test]
    fn grid_handles_huge_aabb_as_global() {
        let mut aabbs = boxes(&[Vec3::ZERO, Vec3::new(1000.0, 0.0, 0.0)], 0.5);
        // A plane-like huge box overlapping everything.
        aabbs.push((
            GeomId(2),
            Aabb::from_center_half_extents(Vec3::ZERO, Vec3::splat(1e9)),
        ));
        let (pairs, _) = UniformGrid::new(1.0).pairs(&aabbs);
        let pairs = sorted(pairs);
        assert!(pairs.contains(&(GeomId(0), GeomId(2))));
        assert!(pairs.contains(&(GeomId(1), GeomId(2))));
        assert!(!pairs.contains(&(GeomId(0), GeomId(1))));
    }

    #[test]
    fn sap_resort_of_coherent_frame_is_cheap() {
        // First frame: a scrambled permutation forces real sorting work
        // (167 is odd, so i·167 mod 256 visits every slot).
        let n = 256;
        let centers: Vec<Vec3> = (0..n)
            .map(|i| Vec3::new((i * 167 % n) as f32 * 2.0, 0.0, 0.0))
            .collect();
        let aabbs = boxes(&centers, 0.5);
        let mut sap = SweepAndPrune::new();
        let mut out = Vec::new();
        let first = sap.pairs_into(&aabbs, &mut out);
        // Second frame, same positions: the kept permutation is already
        // sorted, so the pattern-defeating sort needs only a linear scan.
        let second = sap.pairs_into(&aabbs, &mut out);
        assert!(
            second.sort_ops < first.sort_ops / 2,
            "coherent resort should be far cheaper: first {} second {}",
            first.sort_ops,
            second.sort_ops
        );
        assert!(
            second.sort_ops >= n - 1,
            "a verification scan is still paid"
        );
    }

    #[test]
    fn sap_sort_ops_are_measured_not_estimated() {
        // Two geoms need exactly one comparison (plus none for the
        // single-element case), not an n·log₂n estimate.
        let aabbs = boxes(&[Vec3::ZERO, Vec3::new(5.0, 0.0, 0.0)], 0.5);
        let (_, stats) = SweepAndPrune::new().pairs(&aabbs);
        assert_eq!(stats.sort_ops, 1);
        let aabbs = boxes(&[Vec3::ZERO], 0.5);
        let (_, stats) = SweepAndPrune::new().pairs(&aabbs);
        assert_eq!(stats.sort_ops, 0);
    }

    #[test]
    fn grid_global_bin_work_is_linear_in_population() {
        // g global geoms against n total must do g·(g-1)/2 + g·(n-g) fat
        // tests when they enter — each pair tested exactly once, no
        // rescans — and as many tight tests per frame after that.
        let g = 3usize;
        let small = 12usize;
        let mut aabbs = boxes(
            &(0..small)
                .map(|i| Vec3::new(i as f32 * 10.0, 0.0, 0.0))
                .collect::<Vec<_>>(),
            0.5,
        );
        for k in 0..g {
            aabbs.push((
                GeomId((small + k) as u32),
                Aabb::from_center_half_extents(Vec3::ZERO, Vec3::splat(1e8 + k as f32)),
            ));
        }
        let mut grid = UniformGrid::new(1.0);
        let (pairs, first) = grid.pairs(&aabbs);
        let global_pairs = g * (g - 1) / 2 + g * small;
        // Small geoms are 10 apart with cell 1.0 — no cell-local tests.
        assert_eq!(first.overlap_tests, 2 * global_pairs);
        // Every global overlaps everything.
        assert_eq!(pairs.len(), global_pairs);
        let (pairs, second) = grid.pairs(&aabbs);
        assert_eq!(second.overlap_tests, global_pairs);
        assert_eq!(pairs.len(), global_pairs);
    }

    #[test]
    fn grid_touches_the_cell_table_only_for_escapes() {
        let mut centers = vec![
            Vec3::ZERO,
            Vec3::new(0.95, 0.0, 0.0),
            Vec3::new(8.0, 0.0, 0.0),
        ];
        let mut grid = UniformGrid::new(1.0);
        let (pairs, first) = grid.pairs(&boxes(&centers, 0.5));
        assert_eq!(pairs, vec![(GeomId(0), GeomId(1))]);
        assert_eq!(first.reinserts, 3);
        assert!(first.sort_ops > 0);

        // A proxy has no margin until it first moves; that escape buys it
        // one of 0.1, stretched along the motion.
        centers[1].x = 0.97;
        let (pairs, escape) = grid.pairs(&boxes(&centers, 0.5));
        assert_eq!(pairs, vec![(GeomId(0), GeomId(1))]);
        assert_eq!(escape.reinserts, 1);

        // Jitter inside the margin: no cell work, and the fat pair (0, 1)
        // is filtered out once the tight boxes part.
        centers[1].x = 1.03;
        let (pairs, jitter) = grid.pairs(&boxes(&centers, 0.5));
        assert!(pairs.is_empty());
        assert_eq!((jitter.reinserts, jitter.sort_ops), (0, 0));
        assert_eq!((jitter.fat_pairs, jitter.overlap_tests), (1, 1));

        // Geom 2 teleports onto geom 0: one re-insert finds the new pair.
        centers[2] = Vec3::new(-0.5, 0.0, 0.0);
        let (pairs, teleport) = grid.pairs(&boxes(&centers, 0.5));
        assert_eq!(pairs, vec![(GeomId(0), GeomId(2))]);
        assert_eq!(teleport.reinserts, 1);

        // Geom 0 vanishes from the input: its pairs go with it.
        let rest = boxes(&centers, 0.5).split_off(1);
        let (pairs, vanish) = grid.pairs(&rest);
        assert!(pairs.is_empty());
        assert_eq!((vanish.reinserts, vanish.fat_pairs), (0, 0));
        assert!(vanish.sort_ops > 0, "leaving the cells is counted");
    }

    #[test]
    fn empty_input_is_fine() {
        let (pairs, stats) = SweepAndPrune::new().pairs(&[]);
        assert!(pairs.is_empty());
        assert_eq!(stats.geoms, 0);
        let (pairs, _) = UniformGrid::new(1.0).pairs(&[]);
        assert!(pairs.is_empty());
    }
}
