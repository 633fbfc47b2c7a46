//! Broad-phase collision culling.
//!
//! The paper notes that broad-phase algorithms that maintain a spatial
//! structure (hash tables, kd-trees, sweep-and-prune axes) are hard to
//! parallelize — this is one of the two *serial* phases. Both algorithms
//! here emit the same canonical candidate list (sorted, deduplicated,
//! `a < b`) from their inherent `pairs_into`, so they are interchangeable
//! down to the phase digests:
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
//!
//! The all-pairs oracle of the property tests, `BruteForce`, lives with
//! them in `tests/support/`.

use parallax_math::{Aabb, Vec3};

use crate::heap::vec_bytes;
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
    /// AABB overlap tests the algorithm performs. For the persistent
    /// grid: one per fat test its neighbour scans make and one per fat
    /// pair it keeps — the charge of a tight test of every kept pair,
    /// whether this call ran that test or reused the pair's last result
    /// (see [`tight_tests`](Self::tight_tests)).
    pub overlap_tests: usize,
    /// Pairs emitted.
    pub pairs: usize,
    /// Proxies a persistent structure inserted or re-inserted this call
    /// (0 for the rebuild-per-step algorithms).
    pub reinserts: usize,
    /// Fat-overlapping pairs a persistent structure holds after this call
    /// (0 for the rebuild-per-step algorithms).
    pub fat_pairs: usize,
    /// Proxies whose tight box is new to a persistent structure or
    /// changed, bit for bit, since its last call (0 for the
    /// rebuild-per-step algorithms).
    pub moved: usize,
    /// Tight tests a persistent structure actually ran: those of the kept
    /// fat pairs with an end that moved or is new to the pair (0 for the
    /// rebuild-per-step algorithms, which run every test they count).
    pub tight_tests: usize,
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

    /// Computes the candidate overlapping pairs into `out` (cleared
    /// first), reusing `out`'s capacity across calls.
    ///
    /// `aabbs` carries `(geom, world aabb)` for every enabled geom, each
    /// geom once. The emitted pairs are sorted and deduplicated, with
    /// `a < b`.
    pub fn pairs_into(
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
/// [`BroadphaseStats`] counts the work of the algorithm, which does depend
/// on the history.
///
/// Two invariants hold between calls and carry the correctness argument;
/// nothing else about the caller (epochs, sleep or static flags) is used:
///
/// 1. tight ⊆ fat for every live proxy, and
/// 2. the pair list ⊇ every pair of live proxies whose fat boxes overlap.
///
/// The data path makes a call cost what moved:
///
/// * The cell table is an open-addressed index, on a multiplicative hash
///   of the cell key, of one record per occupied cell; the members of
///   every cell live in one pooled arena. Each proxy remembers, per
///   covered cell, the cell and its position there, so a remove neither
///   hashes nor searches, and a neighbour scan walks the scanned proxy's
///   own cells.
/// * Each fat pair keeps the result of its last tight test. A pair is
///   tested again only when an end is new to it or its tight box changed
///   bit for bit since the last call (a pure function of two unchanged
///   boxes is unchanged); the tests run branch-free over the list of
///   such pairs and the candidates are emitted by branch-free compaction.
#[derive(Debug)]
pub struct UniformGrid {
    cell: f32,
    // Per proxy, indexed by `GeomId`: the tight boxes and state bytes are
    // what the merge reads for every fat pair.
    tight: Vec<Aabb>,
    /// `LIVE | SEEN | DIRTY | MOVED` bits.
    state: Vec<u8>,
    fat: Vec<Aabb>,
    place: Vec<Place>,
    /// Last neighbour scan that visited the proxy (see `scan`).
    stamp: Vec<u32>,
    scan: u32,
    cells: CellTable,
    /// Per cell a proxy covers: the cell and the proxy's position in it.
    links: Blocks<Link>,
    /// Proxies too large for the cell table (planes, big heightfields),
    /// tested against everyone.
    global: Vec<u32>,
    /// Sorted keys (see [`pair_key`]) of the pairs of live proxies with
    /// overlapping fat boxes, each with its last tight result.
    fat_pairs: Vec<u64>,
}

/// The buffers of one [`UniformGrid::pairs_into`] call. Nothing in them
/// outlives the call, so one set per thread serves every grid that thread
/// runs (the step pipeline keeps it in the thread's step scratch).
#[derive(Debug, Default)]
pub struct GridScratch {
    /// Proxies the call inserted, re-inserted or removed.
    dirty: Vec<u32>,
    /// Keys of the fat pairs the call gained, sorted before the merge.
    added: Vec<u64>,
}

impl GridScratch {
    /// Heap bytes the lists hold.
    pub(crate) fn heap_bytes(&self) -> usize {
        vec_bytes(&self.dirty) + vec_bytes(&self.added)
    }
}

/// In the cell table or the global list.
const LIVE: u8 = 1;
/// Carried by the current call's input.
const SEEN: u8 = 2;
/// Inserted, re-inserted or removed by the current call.
const DIRTY: u8 = 4;
/// Tight box new to the grid or changed, bit for bit, by this call.
const MOVED: u8 = 8;

/// A fat pair `a < b` as one sortable word: `a` in bits 34–63, `b` in
/// bits 2–33, and two flags: [`RETEST`] and [`HIT`]. Keys order as their
/// pairs do, whatever the flags hold.
#[inline]
fn pair_key(a: u32, b: u32) -> u64 {
    (a as u64) << 34 | (b as u64) << 2
}

/// The ends of a [`pair_key`].
#[inline]
fn pair_ends(key: u64) -> (usize, usize) {
    ((key >> 34) as usize, (key >> 2) as u32 as usize)
}

/// Pair-key flag: the pair's tight test is due this call.
const RETEST: u64 = 2;
/// Pair-key flag: the tight boxes overlapped when last tested.
const HIT: u64 = 1;

/// Where a proxy is binned while it is live.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
enum Place {
    Global,
    /// In `len` cells, recorded at `links.items[start..start + len]`.
    Cells {
        start: u32,
        len: u32,
    },
}

/// One cell a proxy covers: the cell's id and the proxy's position among
/// its members.
#[derive(Debug, Clone, Copy, Default)]
struct Link {
    cell: u32,
    pos: u32,
}

/// One cell: its key and its members' block of the arena.
#[derive(Debug, Clone, Copy)]
struct Cell {
    key: [i32; 3],
    start: u32,
    len: u32,
    class: u32,
}

/// Blocks of power-of-two length carved from one vector and recycled
/// through a free list per length; a long free block is split to serve a
/// short request, so the vector stays near the peak of what is in use.
#[derive(Debug, Default)]
struct Blocks<T> {
    items: Vec<T>,
    free: Vec<Vec<u32>>,
}

impl<T: Copy + Default> Blocks<T> {
    /// The class of a block that holds `len` items.
    fn class(len: u32) -> u32 {
        len.max(1).next_power_of_two().trailing_zeros()
    }

    /// A block of `1 << class` items: a free one of that length, else the
    /// front of the shortest longer free one (its back halves are freed
    /// as blocks of their own), else a new one at the end.
    fn alloc(&mut self, class: u32) -> u32 {
        let class = class as usize;
        let longer = (class..self.free.len()).find(|&c| !self.free[c].is_empty());
        if let Some(c) = longer {
            let start = self.free[c].pop().expect("found non-empty");
            for k in class..c {
                self.free[k].push(start + (1 << k));
            }
            return start;
        }
        let start = self.items.len();
        self.items.resize(start + (1 << class), T::default());
        start as u32
    }

    fn release(&mut self, start: u32, class: u32) {
        let class = class as usize;
        if self.free.len() <= class {
            self.free.resize_with(class + 1, Vec::new);
        }
        self.free[class].push(start);
    }

    /// Heap bytes held, and how many of them the free blocks hold.
    fn heap_bytes(&self) -> (usize, usize) {
        let lists: usize = self.free.iter().map(vec_bytes).sum();
        let free: usize = (self.free.iter().enumerate())
            .map(|(class, starts)| starts.len() << class)
            .sum();
        (
            vec_bytes(&self.items) + vec_bytes(&self.free) + lists,
            free * size_of::<T>(),
        )
    }
}

/// A cell's member: the proxy and the index of its [`Link`] to the cell.
#[derive(Debug, Clone, Copy, Default)]
struct Member {
    proxy: u32,
    link: u32,
}

/// Index slot holding no cell.
const NO_CELL: u32 = u32::MAX;
/// `Cell::class` of a cell record whose id is free.
const FREE: u32 = u32::MAX;

/// The occupied cells by key: an open-addressed index (linear probing) of
/// cell ids over a dense array of cell records. Ids are stable while a
/// cell holds members, so links name cells by id; a cell that empties
/// leaves at once (backward-shift deletion, no tombstones), and its id
/// and block are reused.
#[derive(Debug)]
struct CellTable {
    /// Power-of-two length, at most half full; `NO_CELL` or a cell id.
    index: Vec<u32>,
    /// `32 - log2(index.len())`: a hash's top bits pick its home slot.
    shift: u32,
    cells: Vec<Cell>,
    free_cells: Vec<u32>,
    members: Blocks<Member>,
}

/// Home slot of a cell key: the spatial hash of Teschner et al. (2003),
/// spread over the high bits by a Fibonacci multiply.
#[inline]
fn cell_hash(key: [i32; 3]) -> u32 {
    let h = (key[0] as u32).wrapping_mul(73_856_093)
        ^ (key[1] as u32).wrapping_mul(19_349_663)
        ^ (key[2] as u32).wrapping_mul(83_492_791);
    h.wrapping_mul(0x9E37_79B9)
}

impl CellTable {
    const MIN_SLOTS: usize = 64;

    fn new() -> Self {
        CellTable {
            index: vec![NO_CELL; Self::MIN_SLOTS],
            shift: 32 - Self::MIN_SLOTS.trailing_zeros(),
            cells: Vec::new(),
            free_cells: Vec::new(),
            members: Blocks::default(),
        }
    }

    /// Occupied cells.
    fn len(&self) -> usize {
        self.cells.len() - self.free_cells.len()
    }

    #[inline]
    fn home(&self, key: [i32; 3]) -> usize {
        (cell_hash(key) >> self.shift) as usize
    }

    /// The id of the cell at `key`, adding an empty one if there is none.
    fn find_or_add(&mut self, key: [i32; 3]) -> u32 {
        let mask = self.index.len() - 1;
        let mut slot = self.home(key);
        loop {
            let id = self.index[slot];
            if id == NO_CELL {
                break;
            }
            let k = self.cells[id as usize].key;
            if (k[0] == key[0]) & (k[1] == key[1]) & (k[2] == key[2]) {
                return id;
            }
            slot = (slot + 1) & mask;
        }
        let cell = Cell {
            key,
            start: self.members.alloc(0),
            len: 0,
            class: 0,
        };
        let id = match self.free_cells.pop() {
            Some(id) => {
                self.cells[id as usize] = cell;
                id
            }
            None => {
                self.cells.push(cell);
                self.cells.len() as u32 - 1
            }
        };
        self.index[slot] = id;
        if self.len() * 2 > self.index.len() {
            self.grow();
        }
        id
    }

    /// Doubles the index and re-slots every cell (their ids stay).
    fn grow(&mut self) {
        let slots = self.index.len() * 2;
        self.index = vec![NO_CELL; slots];
        self.shift = 32 - slots.trailing_zeros();
        let mask = slots - 1;
        for (id, cell) in self.cells.iter().enumerate() {
            if cell.class == FREE {
                continue;
            }
            let mut slot = (cell_hash(cell.key) >> self.shift) as usize;
            while self.index[slot] != NO_CELL {
                slot = (slot + 1) & mask;
            }
            self.index[slot] = id as u32;
        }
    }

    /// Drops emptied cell `id` from the index: the entries after it in
    /// its probe run shift back over the hole, so no lookup needs a
    /// tombstone.
    fn drop_cell(&mut self, id: u32) {
        let mask = self.index.len() - 1;
        let cell = self.cells[id as usize];
        self.members.release(cell.start, cell.class);
        self.cells[id as usize].class = FREE;
        self.free_cells.push(id);
        let mut hole = self.home(cell.key);
        while self.index[hole] != id {
            hole = (hole + 1) & mask;
        }
        let mut slot = hole;
        loop {
            slot = (slot + 1) & mask;
            let next = self.index[slot];
            if next == NO_CELL {
                break;
            }
            // An entry may fill the hole when its home is not cyclically
            // in (hole, slot].
            let home = self.home(self.cells[next as usize].key);
            if (slot.wrapping_sub(home) & mask) >= (slot.wrapping_sub(hole) & mask) {
                self.index[hole] = next;
                hole = slot;
            }
        }
        self.index[hole] = NO_CELL;
    }

    /// Appends `member` to cell `id`; returns its position there.
    fn push(&mut self, id: u32, member: Member) -> u32 {
        let cell = &mut self.cells[id as usize];
        if cell.len == 1 << cell.class {
            let grown = self.members.alloc(cell.class + 1);
            let (from, len) = (cell.start as usize, cell.len as usize);
            self.members
                .items
                .copy_within(from..from + len, grown as usize);
            self.members.release(cell.start, cell.class);
            cell.start = grown;
            cell.class += 1;
        }
        self.members.items[(cell.start + cell.len) as usize] = member;
        cell.len += 1;
        cell.len - 1
    }

    /// Removes the member at `pos` of cell `id`; the cell's last member
    /// takes its place, and its link is told so. A cell left empty goes.
    fn remove(&mut self, id: u32, pos: u32, links: &mut [Link]) {
        let cell = &mut self.cells[id as usize];
        cell.len -= 1;
        if cell.len == 0 {
            self.drop_cell(id);
            return;
        }
        let last = self.members.items[(cell.start + cell.len) as usize];
        self.members.items[(cell.start + pos) as usize] = last;
        links[last.link as usize].pos = pos;
    }

    /// The members of cell `id`.
    fn members(&self, id: u32) -> &[Member] {
        let cell = &self.cells[id as usize];
        &self.members.items[cell.start as usize..(cell.start + cell.len) as usize]
    }
}

/// Fat-box margin as a fraction of the cell size.
const MARGIN_PER_CELL: f32 = 0.1;
/// Steps of observed displacement a re-inserted proxy is stretched by
/// (each side by at most one cell, so a teleport does not flood the grid).
const LOOKAHEAD_STEPS: f32 = 4.0;
/// A fat box spanning more cells than this on any axis goes to the
/// global list instead of the cell table.
const MAX_CELLS_PER_AXIS: i64 = 64;

/// The number of cells in an inclusive cell range.
fn range_len((lo, hi): ([i32; 3], [i32; 3])) -> u32 {
    (0..3).map(|k| (hi[k] - lo[k] + 1) as u32).product()
}

/// The keys of an inclusive cell range.
fn cell_keys((lo, hi): ([i32; 3], [i32; 3])) -> impl Iterator<Item = [i32; 3]> {
    (lo[0]..=hi[0]).flat_map(move |x| {
        (lo[1]..=hi[1]).flat_map(move |y| (lo[2]..=hi[2]).map(move |z| [x, y, z]))
    })
}

/// Whether two boxes are the same bit for bit (`==` would call a NaN box
/// changed and `-0.0` the same as `0.0`).
#[inline]
fn same_bits(a: &Aabb, b: &Aabb) -> bool {
    let bits = |b: &Aabb| [b.min.x, b.min.y, b.min.z, b.max.x, b.max.y, b.max.z].map(f32::to_bits);
    let (a, b) = (bits(a), bits(b));
    (0..6).fold(0, |acc, k| acc | (a[k] ^ b[k])) == 0
}

/// Fat-tests dirty proxy `i` against live proxy `m`, recording an overlap
/// in `added`. A pair of two dirty proxies is left to the scan of the
/// lower id, so it is tested and recorded once.
#[inline]
fn test_fat(
    (fat, state): (&[Aabb], &[u8]),
    i: u32,
    m: u32,
    added: &mut Vec<u64>,
    stats: &mut BroadphaseStats,
) {
    if m == i || (state[m as usize] & DIRTY != 0 && m < i) {
        return;
    }
    stats.overlap_tests += 1;
    if fat[i as usize].overlaps(&fat[m as usize]) {
        added.push(pair_key(i.min(m), i.max(m)));
    }
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
            tight: Vec::new(),
            state: Vec::new(),
            fat: Vec::new(),
            place: Vec::new(),
            stamp: Vec::new(),
            scan: 0,
            cells: CellTable::new(),
            links: Blocks::default(),
            global: Vec::new(),
            fat_pairs: Vec::new(),
        }
    }

    /// Heap bytes in use and heap bytes on the free lists (member and
    /// link blocks, cell records).
    pub(crate) fn heap_bytes(&self) -> (usize, usize) {
        let (members, members_free) = self.cells.members.heap_bytes();
        let (links, links_free) = self.links.heap_bytes();
        let cells_free = self.cells.free_cells.len() * size_of::<Cell>();
        let held = vec_bytes(&self.tight)
            + vec_bytes(&self.state)
            + vec_bytes(&self.fat)
            + vec_bytes(&self.place)
            + vec_bytes(&self.stamp)
            + vec_bytes(&self.global)
            + vec_bytes(&self.fat_pairs)
            + vec_bytes(&self.cells.index)
            + vec_bytes(&self.cells.cells)
            + vec_bytes(&self.cells.free_cells)
            + members
            + links;
        let free = members_free + links_free + cells_free;
        (held - free, free)
    }

    /// Makes room for proxies `0..n`.
    fn grow(&mut self, n: usize) {
        assert!(n <= 1 << 30, "a pair key holds ids below 2^30");
        self.tight.resize(n, Aabb::EMPTY);
        self.state.resize(n, 0);
        self.fat.resize(n, Aabb::EMPTY);
        self.place.resize(n, Place::Global);
        self.stamp.resize(n, 0);
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

    /// Adds proxy `i` to the cells (or the global list) its fat box covers;
    /// one sort op per cell.
    fn insert(&mut self, i: u32, stats: &mut BroadphaseStats) {
        self.state[i as usize] |= LIVE;
        let Some(range) = self.cell_range(&self.fat[i as usize]) else {
            self.global.push(i);
            self.place[i as usize] = Place::Global;
            stats.sort_ops += 1;
            return;
        };
        let len = range_len(range);
        let start = self.links.alloc(Blocks::<Link>::class(len));
        for (link, key) in (start..).zip(cell_keys(range)) {
            let cell = self.cells.find_or_add(key);
            let pos = self.cells.push(cell, Member { proxy: i, link });
            self.links.items[link as usize] = Link { cell, pos };
        }
        self.place[i as usize] = Place::Cells { start, len };
        stats.sort_ops += len as usize;
    }

    /// Removes live proxy `i` from wherever [`insert`](Self::insert) put
    /// it; one sort op per cell.
    fn remove(&mut self, i: u32, stats: &mut BroadphaseStats) {
        self.state[i as usize] &= !LIVE;
        match self.place[i as usize] {
            Place::Global => {
                self.global.retain(|&g| g != i);
                stats.sort_ops += 1;
            }
            Place::Cells { start, len } => {
                for k in start..start + len {
                    let Link { cell, pos } = self.links.items[k as usize];
                    self.cells.remove(cell, pos, &mut self.links.items);
                }
                self.links.release(start, Blocks::<Link>::class(len));
                stats.sort_ops += len as usize;
            }
        }
    }

    /// Finds every live proxy whose fat box overlaps dirty proxy `i`'s.
    fn scan_neighbours(&mut self, i: u32, added: &mut Vec<u64>, stats: &mut BroadphaseStats) {
        let proxies = (&self.fat[..], &self.state[..]);
        let Place::Cells { start, len } = self.place[i as usize] else {
            for (m, state) in self.state.iter().enumerate() {
                if state & LIVE != 0 {
                    test_fat(proxies, i, m as u32, added, stats);
                }
            }
            return;
        };
        // A neighbour sharing several cells is tested once: the first
        // visit stamps it with this scan's number.
        self.scan = self.scan.wrapping_add(1);
        if self.scan == 0 {
            self.stamp.fill(0);
            self.scan = 1;
        }
        let links = &self.links.items[start as usize..(start + len) as usize];
        for link in links {
            for &Member { proxy: m, .. } in self.cells.members(link.cell) {
                let stamp = &mut self.stamp[m as usize];
                if *stamp != self.scan {
                    *stamp = self.scan;
                    test_fat(proxies, i, m, added, stats);
                }
            }
        }
        for &g in &self.global {
            test_fat(proxies, i, g, added, stats);
        }
    }

    /// Updates the pair list in place: drops the pairs with a dirty end
    /// and flags those with an end that moved (branch-free), then merges
    /// in the `gained` pairs, flagged, from the back. Returns the pairs
    /// kept.
    fn merge(&mut self, gained: &[u64]) -> usize {
        let state = &self.state[..];
        let mut m = 0;
        for k in 0..self.fat_pairs.len() {
            let key = self.fat_pairs[k];
            let (a, b) = pair_ends(key);
            let ends = state[a] | state[b];
            self.fat_pairs[m] = key | ((ends & MOVED != 0) as u64) << 1;
            m += (ends & DIRTY == 0) as usize;
        }
        let mut j = gained.len();
        self.fat_pairs.resize(m + j, 0);
        // No kept pair equals a gained one (a gained pair has a dirty end),
        // so the flag bits never decide the order.
        let mut i = m;
        while j > 0 {
            if i > 0 && self.fat_pairs[i - 1] > gained[j - 1] {
                self.fat_pairs[i + j - 1] = self.fat_pairs[i - 1];
                i -= 1;
            } else {
                self.fat_pairs[i + j - 1] = gained[j - 1] | RETEST;
                j -= 1;
            }
        }
        self.fat_pairs.len()
    }

    /// Runs the tight tests the merge flagged and emits the pairs whose
    /// boxes overlap, a chunk at a time: the flagged positions of a chunk
    /// are gathered, tested branch-free, and the chunk's hits compacted
    /// branch-free into a buffer that is appended to `out`. Returns the
    /// tests run.
    fn test_and_emit(&mut self, out: &mut Vec<(GeomId, GeomId)>) -> usize {
        const CHUNK: usize = 256;
        let tight = &self.tight[..];
        let mut flagged = [0u16; CHUNK];
        let mut hits = [(GeomId(0), GeomId(0)); CHUNK];
        let mut tests = 0;
        for chunk in self.fat_pairs.chunks_mut(CHUNK) {
            let mut f = 0;
            for (k, key) in chunk.iter().enumerate() {
                flagged[f] = k as u16;
                f += (key & RETEST != 0) as usize;
            }
            for &k in &flagged[..f] {
                let key = &mut chunk[k as usize];
                let (a, b) = pair_ends(*key);
                *key = *key & !(RETEST | HIT) | tight[a].overlaps(&tight[b]) as u64;
            }
            tests += f;
            let mut n = 0;
            for &key in chunk.iter() {
                let (a, b) = pair_ends(key);
                hits[n] = (GeomId(a as u32), GeomId(b as u32));
                n += (key & HIT) as usize;
            }
            out.extend_from_slice(&hits[..n]);
        }
        tests
    }

    /// Computes the candidate overlapping pairs into `out` (cleared
    /// first), reusing `out`'s and `scratch`'s capacity across calls.
    ///
    /// `aabbs` carries `(geom, world aabb)` for every enabled geom, each
    /// geom once. The emitted pairs are sorted and deduplicated, with
    /// `a < b`: the list [`SweepAndPrune`] emits for the same boxes.
    pub fn pairs_into(
        &mut self,
        aabbs: &[(GeomId, Aabb)],
        out: &mut Vec<(GeomId, GeomId)>,
        scratch: &mut GridScratch,
    ) -> BroadphaseStats {
        let mut stats = BroadphaseStats {
            geoms: aabbs.len(),
            ..Default::default()
        };
        let GridScratch { dirty, added } = scratch;
        dirty.clear();
        added.clear();

        // Containment sweep: refresh every tight box; a proxy that is new
        // or escaped its fat box is (re-)inserted and becomes dirty.
        for &(id, tight) in aabbs {
            let i = id.index();
            if i >= self.tight.len() {
                self.grow(i + 1);
            }
            let prev = std::mem::replace(&mut self.tight[i], tight);
            let live = self.state[i] & LIVE != 0;
            let moved = !live || !same_bits(&prev, &tight);
            self.state[i] = self.state[i] & LIVE | SEEN | (moved as u8 * MOVED);
            stats.moved += moved as usize;
            if live {
                if self.fat[i].contains(&tight) {
                    continue;
                }
                self.remove(id.0, &mut stats);
                self.fat[i] = self.fatten(&tight, &prev);
            } else {
                // No margin until the proxy is seen to move: geoms that
                // never do (terrain, walls, dormant debris) add no fat
                // pairs beyond their tight ones.
                self.fat[i] = tight;
            }
            self.insert(id.0, &mut stats);
            self.state[i] |= DIRTY;
            dirty.push(id.0);
        }
        stats.reinserts = dirty.len();

        // Proxies the input no longer carries (disabled, fractured) leave.
        for i in 0..self.state.len() {
            let state = self.state[i];
            self.state[i] = state & !SEEN;
            if state & (LIVE | SEEN) == LIVE {
                self.state[i] |= DIRTY;
                self.remove(i as u32, &mut stats);
                dirty.push(i as u32);
            }
        }

        // Pairs gained: every fat overlap of a dirty, live proxy.
        for &i in dirty.iter() {
            if self.state[i as usize] & LIVE != 0 {
                self.scan_neighbours(i, added, &mut stats);
            }
        }
        added.sort_unstable();

        // One merge pass over the pair list, then the tight tests it
        // flagged, then the candidates: the kept pairs whose boxes overlap.
        // Every kept pair is charged a tight test, run or not.
        stats.overlap_tests += self.merge(added);
        out.clear();
        stats.tight_tests = self.test_and_emit(out);
        for &i in dirty.iter() {
            self.state[i as usize] &= !DIRTY;
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

    /// One `pairs_into` call into a fresh vector, with a fresh grid
    /// scratch.
    fn collect_pairs(
        pairs_into: impl FnOnce(&mut Vec<(GeomId, GeomId)>, &mut GridScratch) -> BroadphaseStats,
    ) -> (Vec<(GeomId, GeomId)>, BroadphaseStats) {
        let mut out = Vec::new();
        let stats = pairs_into(&mut out, &mut GridScratch::default());
        (out, stats)
    }

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
        let (pairs, stats) = collect_pairs(|o, _| SweepAndPrune::new().pairs_into(&aabbs, o));
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
        let (pairs, _) = collect_pairs(|o, _| SweepAndPrune::new().pairs_into(&aabbs, o));
        assert!(pairs.is_empty());
    }

    #[test]
    fn sap_separated_on_other_axes_culled() {
        // Same x interval but far apart in y: the sweep must still reject.
        let aabbs = boxes(&[Vec3::ZERO, Vec3::new(0.0, 100.0, 0.0)], 0.5);
        let (pairs, stats) = collect_pairs(|o, _| SweepAndPrune::new().pairs_into(&aabbs, o));
        assert!(pairs.is_empty());
        assert_eq!(stats.overlap_tests, 1);
    }

    #[test]
    fn grid_matches_sap_on_clusters() {
        let centers: Vec<Vec3> = (0..20)
            .map(|i| Vec3::new((i % 5) as f32 * 0.8, (i / 5) as f32 * 0.8, 0.0))
            .collect();
        let aabbs = boxes(&centers, 0.5);
        let (mut sap, _) = collect_pairs(|o, _| SweepAndPrune::new().pairs_into(&aabbs, o));
        let (mut grid, _) = collect_pairs(|o, s| UniformGrid::new(2.0).pairs_into(&aabbs, o, s));
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
        let (pairs, _) = collect_pairs(|o, s| UniformGrid::new(1.0).pairs_into(&aabbs, o, s));
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
        let (_, stats) = collect_pairs(|o, _| SweepAndPrune::new().pairs_into(&aabbs, o));
        assert_eq!(stats.sort_ops, 1);
        let aabbs = boxes(&[Vec3::ZERO], 0.5);
        let (_, stats) = collect_pairs(|o, _| SweepAndPrune::new().pairs_into(&aabbs, o));
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
        let (pairs, first) = collect_pairs(|o, s| grid.pairs_into(&aabbs, o, s));
        let global_pairs = g * (g - 1) / 2 + g * small;
        // Small geoms are 10 apart with cell 1.0 — no cell-local tests.
        assert_eq!(first.overlap_tests, 2 * global_pairs);
        // Every global overlaps everything.
        assert_eq!(pairs.len(), global_pairs);
        let (pairs, second) = collect_pairs(|o, s| grid.pairs_into(&aabbs, o, s));
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
        let (pairs, first) = collect_pairs(|o, s| grid.pairs_into(&boxes(&centers, 0.5), o, s));
        assert_eq!(pairs, vec![(GeomId(0), GeomId(1))]);
        assert_eq!(first.reinserts, 3);
        assert!(first.sort_ops > 0);

        // A proxy has no margin until it first moves; that escape buys it
        // one of 0.1, stretched along the motion.
        centers[1].x = 0.97;
        let (pairs, escape) = collect_pairs(|o, s| grid.pairs_into(&boxes(&centers, 0.5), o, s));
        assert_eq!(pairs, vec![(GeomId(0), GeomId(1))]);
        assert_eq!(escape.reinserts, 1);

        // Jitter inside the margin: no cell work, and the fat pair (0, 1)
        // is filtered out once the tight boxes part.
        centers[1].x = 1.03;
        let (pairs, jitter) = collect_pairs(|o, s| grid.pairs_into(&boxes(&centers, 0.5), o, s));
        assert!(pairs.is_empty());
        assert_eq!((jitter.reinserts, jitter.sort_ops), (0, 0));
        assert_eq!((jitter.fat_pairs, jitter.overlap_tests), (1, 1));

        // Geom 2 teleports onto geom 0: one re-insert finds the new pair.
        centers[2] = Vec3::new(-0.5, 0.0, 0.0);
        let (pairs, teleport) = collect_pairs(|o, s| grid.pairs_into(&boxes(&centers, 0.5), o, s));
        assert_eq!(pairs, vec![(GeomId(0), GeomId(2))]);
        assert_eq!(teleport.reinserts, 1);

        // Geom 0 vanishes from the input: its pairs go with it.
        let rest = boxes(&centers, 0.5).split_off(1);
        let (pairs, vanish) = collect_pairs(|o, s| grid.pairs_into(&rest, o, s));
        assert!(pairs.is_empty());
        assert_eq!((vanish.reinserts, vanish.fat_pairs), (0, 0));
        assert!(vanish.sort_ops > 0, "leaving the cells is counted");
    }

    #[test]
    fn empty_input_is_fine() {
        let (pairs, stats) = collect_pairs(|o, _| SweepAndPrune::new().pairs_into(&[], o));
        assert!(pairs.is_empty());
        assert_eq!(stats.geoms, 0);
        let (pairs, _) = collect_pairs(|o, s| UniformGrid::new(1.0).pairs_into(&[], o, s));
        assert!(pairs.is_empty());
    }
}
