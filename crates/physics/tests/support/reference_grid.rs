//! The persistent uniform grid as it was before its data path was rebuilt
//! around what moved: a `HashMap` of per-cell `Vec`s, a linear search on
//! every remove, and a tight test of every fat pair on every call. Kept
//! as the reference the engine's `UniformGrid` is held to, candidate for
//! candidate and count for count, on the same input sequence: the counts
//! of `BroadphaseStats` that the trace layer prices are defined by this
//! algorithm, whatever data structure carries it.

use std::collections::HashMap;

use parallax_math::{Aabb, Vec3};
use parallax_physics::broadphase::BroadphaseStats;
use parallax_physics::shape::GeomId;

/// See the module documentation; same constants as the engine's grid.
#[derive(Debug)]
pub struct ReferenceGrid {
    cell: f32,
    proxies: Vec<Proxy>,
    cells: HashMap<(i32, i32, i32), Vec<u32>>,
    global: Vec<u32>,
    fat_pairs: Vec<(GeomId, GeomId)>,
    dirty: Vec<u32>,
    added: Vec<(GeomId, GeomId)>,
}

#[derive(Debug, Clone, Copy)]
struct Proxy {
    tight: Aabb,
    fat: Aabb,
    live: bool,
    seen: bool,
    dirty: bool,
    mark: bool,
}

const ABSENT: Proxy = Proxy {
    tight: Aabb::EMPTY,
    fat: Aabb::EMPTY,
    live: false,
    seen: false,
    dirty: false,
    mark: false,
};
const MARGIN_PER_CELL: f32 = 0.1;
const LOOKAHEAD_STEPS: f32 = 4.0;
const MAX_CELLS_PER_AXIS: i64 = 64;

fn cell_keys((lo, hi): ([i32; 3], [i32; 3])) -> impl Iterator<Item = (i32, i32, i32)> {
    (lo[0]..=hi[0]).flat_map(move |x| {
        (lo[1]..=hi[1]).flat_map(move |y| (lo[2]..=hi[2]).map(move |z| (x, y, z)))
    })
}

impl ReferenceGrid {
    pub fn new(cell: f32) -> Self {
        ReferenceGrid {
            cell,
            proxies: Vec::new(),
            cells: HashMap::new(),
            global: Vec::new(),
            fat_pairs: Vec::new(),
            dirty: Vec::new(),
            added: Vec::new(),
        }
    }

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

    fn fatten(&self, tight: &Aabb, prev: &Aabb) -> Aabb {
        let reach = |d: f32| (d * LOOKAHEAD_STEPS).clamp(-self.cell, self.cell);
        let lo = tight.min - prev.min;
        let hi = tight.max - prev.max;
        let mut fat = tight.expanded(self.cell * MARGIN_PER_CELL);
        fat.min += Vec3::new(reach(lo.x), reach(lo.y), reach(lo.z)).min(Vec3::ZERO);
        fat.max += Vec3::new(reach(hi.x), reach(hi.y), reach(hi.z)).max(Vec3::ZERO);
        fat
    }

    fn insert(&mut self, i: u32, stats: &mut BroadphaseStats) {
        let Some(range) = self.cell_range(&self.proxies[i as usize].fat) else {
            self.global.push(i);
            stats.sort_ops += 1;
            return;
        };
        for key in cell_keys(range) {
            self.cells.entry(key).or_default().push(i);
            stats.sort_ops += 1;
        }
    }

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
                self.cells.remove(&key);
            }
            stats.sort_ops += 1;
        }
    }

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

    fn scan_neighbours(&mut self, i: u32, stats: &mut BroadphaseStats) {
        let Some(range) = self.cell_range(&self.proxies[i as usize].fat) else {
            for m in 0..self.proxies.len() as u32 {
                if self.proxies[m as usize].live {
                    self.test_fat(i, m, stats);
                }
            }
            return;
        };
        let mut touched = Vec::new();
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
        for k in 0..self.global.len() {
            self.test_fat(i, self.global[k], stats);
        }
    }
}

impl ReferenceGrid {
    /// The engine grid's `pairs_into`, on this data path.
    pub fn pairs_into(
        &mut self,
        aabbs: &[(GeomId, Aabb)],
        out: &mut Vec<(GeomId, GeomId)>,
    ) -> BroadphaseStats {
        let mut stats = BroadphaseStats {
            geoms: aabbs.len(),
            ..Default::default()
        };
        out.clear();
        for &(id, tight) in aabbs {
            let i = id.index();
            if i >= self.proxies.len() {
                self.proxies.resize(i + 1, ABSENT);
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
                p.live = true;
                p.fat = tight;
            }
            self.insert(id.0, &mut stats);
            self.proxies[i].dirty = true;
            self.dirty.push(id.0);
        }
        stats.reinserts = self.dirty.len();
        for i in 0..self.proxies.len() as u32 {
            let p = &mut self.proxies[i as usize];
            if p.live && !std::mem::take(&mut p.seen) {
                p.live = false;
                p.dirty = true;
                self.remove(i, &mut stats);
                self.dirty.push(i);
            }
        }
        for k in 0..self.dirty.len() {
            let i = self.dirty[k];
            if self.proxies[i as usize].live {
                self.scan_neighbours(i, &mut stats);
            }
        }
        self.added.sort_unstable();
        let proxies = &self.proxies;
        let mut merged = Vec::with_capacity(self.fat_pairs.len());
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
        self.fat_pairs = merged;
        self.added.clear();
        for i in self.dirty.drain(..) {
            self.proxies[i as usize].dirty = false;
        }
        stats.pairs = out.len();
        stats.fat_pairs = self.fat_pairs.len();
        stats
    }
}

/// The counts `ReferenceGrid` defines, in field order: geoms, sort_ops,
/// overlap_tests, pairs, reinserts, fat_pairs.
pub fn counts(s: &BroadphaseStats) -> [usize; 6] {
    [
        s.geoms,
        s.sort_ops,
        s.overlap_tests,
        s.pairs,
        s.reinserts,
        s.fat_pairs,
    ]
}
