//! Set-associative caches with LRU replacement and way-partitioning
//! (columnization, paper §6.2 / Chiou et al.).

/// Result of a cache access.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum AccessResult {
    /// Line present.
    Hit,
    /// Line absent; it has been filled.
    Miss,
}

/// Division of line ids by a count fixed at construction, without a
/// hardware divide: shift and mask when the count is a power of two,
/// otherwise a multiply by `⌈2⁶⁴ / d⌉` (Lemire, Kaser & Kurz 2019: the high
/// word of the 128-bit product is `⌊n / d⌋` for every `n`, `d` < 2³²).
#[derive(Debug, Clone, Copy)]
pub(crate) enum Divisor {
    Pow2 { shift: u32, mask: u64 },
    Reciprocal { d: u64, magic: u64 },
}

impl Divisor {
    /// # Panics
    ///
    /// Panics if `d` is zero or does not fit 32 bits.
    pub(crate) fn new(d: usize) -> Divisor {
        let d = d as u64;
        assert!(d > 0 && d >> 32 == 0, "divisor {d} out of range");
        if d.is_power_of_two() {
            Divisor::Pow2 {
                shift: d.trailing_zeros(),
                mask: d - 1,
            }
        } else {
            Divisor::Reciprocal {
                d,
                magic: u64::MAX / d + 1,
            }
        }
    }

    /// `(n / d, n % d)`.
    #[inline]
    pub(crate) fn div_rem(self, n: u64) -> (u64, u64) {
        match self {
            Divisor::Pow2 { shift, mask } => (n >> shift, n & mask),
            Divisor::Reciprocal { d, magic } if n >> 32 == 0 => {
                let q = ((u128::from(n) * u128::from(magic)) >> 64) as u64;
                (q, n - q * d)
            }
            // Beyond the reciprocal's exact range (addresses ≥ 256 GB).
            Divisor::Reciprocal { d, .. } => (n / d, n % d),
        }
    }
}

/// One way of a set: the resident line's tag next to its LRU stamp, so a
/// 4-way set is 64 contiguous bytes of host memory.
#[derive(Debug, Clone, Copy)]
struct Way {
    /// `u64::MAX` = invalid.
    tag: u64,
    /// Larger = more recent.
    stamp: u64,
}

const INVALID: Way = Way {
    tag: u64::MAX,
    stamp: 0,
};

/// One set-associative cache (or one bank of a banked cache).
///
/// # Examples
///
/// ```
/// use parallax_archsim::cache::{Cache, AccessResult};
///
/// let mut c = Cache::new(32 * 1024, 4, 64);
/// assert_eq!(c.access(0x1000, 0), AccessResult::Miss);
/// assert_eq!(c.access(0x1000, 0), AccessResult::Hit);
/// ```
#[derive(Debug, Clone)]
pub struct Cache {
    sets: Divisor,
    assoc: usize,
    line_shift: u32,
    /// `ways[set * assoc + way]`.
    ways: Vec<Way>,
    clock: u64,
    /// Partition `p` may replace only in ways `[start, start + count)` of
    /// `replace_in[min(p, len - 1)]`; the whole set when unpartitioned.
    replace_in: Vec<(usize, usize)>,
    hits: u64,
    misses: u64,
}

impl Cache {
    /// Creates a cache of `bytes` capacity, `assoc` ways and `line`-byte
    /// lines.
    ///
    /// # Panics
    ///
    /// Panics if the geometry is degenerate (zero sets) or `line` is not a
    /// power of two.
    pub fn new(bytes: usize, assoc: usize, line: u64) -> Cache {
        assert!(line.is_power_of_two(), "line size must be a power of two");
        let sets = bytes / (assoc * line as usize);
        assert!(sets > 0, "cache too small for its associativity");
        // Sets need not be a power of two (e.g. a 12 KB cache).
        Cache {
            sets: Divisor::new(sets),
            assoc,
            line_shift: line.trailing_zeros(),
            ways: vec![INVALID; sets * assoc],
            clock: 0,
            replace_in: vec![(0, assoc)],
            hits: 0,
            misses: 0,
        }
    }

    /// Restricts replacement by partition: `ways[p]` consecutive ways per
    /// set belong to partition `p`. Unassigned ways are usable by
    /// partition ids beyond the table (treated as sharing the remainder).
    ///
    /// # Panics
    ///
    /// Panics if the assignment exceeds the associativity.
    pub fn set_partitions(&mut self, ways: &[usize]) {
        let total: usize = ways.iter().sum();
        assert!(total <= self.assoc, "partition ways exceed associativity");
        assert!(
            ways.iter().all(|&w| w >= 1),
            "every partition needs at least one way (0 would silently \
             fall back to the whole set)"
        );
        let mut ranges = Vec::with_capacity(ways.len() + 1);
        let mut start = 0;
        for &w in ways {
            ranges.push((start, w));
            start += w;
        }
        // Partition ids beyond the table share the leftover ways, or the
        // whole set when every way is assigned.
        let rem = self.assoc - total;
        if rem > 0 {
            ranges.push((start, rem));
        } else {
            ranges.push((0, self.assoc));
        }
        self.replace_in = ranges;
    }

    /// `(set, tag)` of line id `line` (a byte address over the line size).
    #[inline]
    pub(crate) fn locate(&self, line: u64) -> (usize, u64) {
        let (tag, set) = self.sets.div_rem(line);
        (set as usize, tag)
    }

    /// Accesses `addr` on behalf of `partition`. Lookup checks all ways;
    /// on a miss, the victim is chosen within the partition's ways when
    /// partitioning is enabled.
    pub fn access(&mut self, addr: u64, partition: u8) -> AccessResult {
        self.access_line(addr >> self.line_shift, partition)
    }

    /// [`Cache::access`] by line id.
    #[inline]
    fn access_line(&mut self, line: u64, partition: u8) -> AccessResult {
        let (set, tag) = self.locate(line);
        self.access_at(set, tag, partition)
    }

    /// [`Cache::access`] for an already located line.
    #[inline]
    pub(crate) fn access_at(&mut self, set: usize, tag: u64, partition: u8) -> AccessResult {
        self.clock += 1;
        let clock = self.clock;
        let ways = &mut self.ways[set * self.assoc..][..self.assoc];

        // Hit check across every way (partitioning restricts replacement,
        // not lookup). A set holds a tag at most once; scanning all ways
        // without an early exit leaves the host one hit-or-miss branch to
        // predict instead of one per way.
        let mut hit = usize::MAX;
        for (w, way) in ways.iter().enumerate() {
            if way.tag == tag {
                hit = w;
            }
        }
        if let Some(way) = ways.get_mut(hit) {
            way.stamp = clock;
            self.hits += 1;
            return AccessResult::Hit;
        }
        self.misses += 1;

        // Victim selection (zero-way ranges are rejected at construction,
        // so every range here is non-empty): the first invalid way, else
        // the least recently used.
        let (start, count) = self.replace_in[(partition as usize).min(self.replace_in.len() - 1)];
        let candidates = &mut ways[start..start + count];
        let mut victim = 0;
        let mut oldest = u64::MAX;
        for (w, way) in candidates.iter().enumerate() {
            if way.tag == u64::MAX {
                victim = w;
                break;
            }
            if way.stamp < oldest {
                oldest = way.stamp;
                victim = w;
            }
        }
        candidates[victim] = Way { tag, stamp: clock };
        AccessResult::Miss
    }

    /// Invalidates the line containing `addr` if resident (coherence).
    pub fn invalidate(&mut self, addr: u64) {
        let (set, tag) = self.locate(addr >> self.line_shift);
        self.invalidate_at(set, tag);
    }

    /// [`Cache::invalidate`] for an already located line.
    #[inline]
    pub(crate) fn invalidate_at(&mut self, set: usize, tag: u64) {
        for way in &mut self.ways[set * self.assoc..][..self.assoc] {
            if way.tag == tag {
                *way = INVALID;
            }
        }
    }

    /// Returns `true` without updating state if `addr` is resident.
    pub fn probe(&self, addr: u64) -> bool {
        self.probe_line(addr >> self.line_shift)
    }

    /// [`Cache::probe`] by line id.
    fn probe_line(&self, line: u64) -> bool {
        let (set, tag) = self.locate(line);
        self.ways[set * self.assoc..][..self.assoc]
            .iter()
            .any(|w| w.tag == tag)
    }

    /// (hits, misses) so far.
    pub fn stats(&self) -> (u64, u64) {
        (self.hits, self.misses)
    }

    /// Resets statistics but keeps cache contents.
    pub fn reset_stats(&mut self) {
        self.hits = 0;
        self.misses = 0;
    }

    /// Invalidates everything (cold cache).
    pub fn flush(&mut self) {
        self.ways.fill(INVALID);
    }
}

/// A multi-bank cache: line-interleaved across `banks` banks.
#[derive(Debug, Clone)]
pub struct BankedCache {
    banks: Vec<Cache>,
    interleave: Divisor,
    line_shift: u32,
}

impl BankedCache {
    /// Creates `banks` banks of `bank_bytes` each.
    pub fn new(banks: usize, bank_bytes: usize, assoc: usize, line: u64) -> BankedCache {
        let banks = banks.max(1);
        BankedCache {
            banks: (0..banks)
                .map(|_| Cache::new(bank_bytes, assoc, line))
                .collect(),
            interleave: Divisor::new(banks),
            line_shift: line.trailing_zeros(),
        }
    }

    /// Applies way-partitioning to every bank.
    pub fn set_partitions(&mut self, ways: &[usize]) {
        for b in &mut self.banks {
            b.set_partitions(ways);
        }
    }

    /// `(bank, bank-local line id)` of line id `line`: lines are
    /// interleaved across banks, so within a bank consecutive resident
    /// lines are `banks` lines apart globally. Folding by the bank count
    /// lets every bank use all of its sets.
    #[inline]
    fn route(&self, line: u64) -> (usize, u64) {
        let (local, bank) = self.interleave.div_rem(line);
        (bank as usize, local)
    }

    /// Accesses the line through its bank.
    pub fn access(&mut self, addr: u64, partition: u8) -> AccessResult {
        self.access_line(addr >> self.line_shift, partition)
    }

    /// [`BankedCache::access`] by line id.
    #[inline]
    pub(crate) fn access_line(&mut self, line: u64, partition: u8) -> AccessResult {
        let (bank, local) = self.route(line);
        self.banks[bank].access_line(local, partition)
    }

    /// Probes without side effects.
    pub fn probe(&self, addr: u64) -> bool {
        let (bank, local) = self.route(addr >> self.line_shift);
        self.banks[bank].probe_line(local)
    }

    /// Aggregate (hits, misses).
    pub fn stats(&self) -> (u64, u64) {
        self.banks
            .iter()
            .map(|b| b.stats())
            .fold((0, 0), |(h, m), (bh, bm)| (h + bh, m + bm))
    }

    /// Resets statistics on every bank.
    pub fn reset_stats(&mut self) {
        for b in &mut self.banks {
            b.reset_stats();
        }
    }

    /// Invalidates every bank.
    pub fn flush(&mut self) {
        for b in &mut self.banks {
            b.flush();
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn divisor_is_exact() {
        let mut x = 0x9E37_79B9_7F4A_7C15u64;
        for d in 1..=64usize {
            let div = Divisor::new(d);
            let d = d as u64;
            let mut ids = vec![0, d - 1, d, d + 1, (1 << 32) - 1, 1 << 32, u64::MAX];
            for _ in 0..1000 {
                x ^= x << 13;
                x ^= x >> 7;
                x ^= x << 17;
                ids.push(x >> 32);
                ids.push(x >> 38);
            }
            for n in ids {
                assert_eq!(div.div_rem(n), (n / d, n % d), "{n} by {d}");
            }
        }
    }

    #[test]
    fn hit_after_fill() {
        let mut c = Cache::new(1024, 2, 64);
        assert_eq!(c.access(0, 0), AccessResult::Miss);
        assert_eq!(c.access(0, 0), AccessResult::Hit);
        assert_eq!(c.access(32, 0), AccessResult::Hit, "same line");
        assert_eq!(c.stats(), (2, 1));
    }

    #[test]
    fn lru_evicts_oldest() {
        // 2-way cache: three conflicting lines evict the least recent.
        let mut c = Cache::new(2 * 64, 2, 64); // 1 set, 2 ways
        c.access(0, 0);
        c.access(64, 0);
        c.access(0, 0); // refresh line 0
        c.access(128, 0); // evicts line 64
        assert!(c.probe(0));
        assert!(!c.probe(64));
        assert!(c.probe(128));
    }

    #[test]
    fn capacity_miss_behavior() {
        // Working set larger than capacity thrashes; smaller fits.
        let mut c = Cache::new(4 * 1024, 4, 64);
        let lines = 4 * 1024 / 64;
        for pass in 0..3 {
            for i in 0..(lines as u64) * 2 {
                c.access(i * 64, 0);
            }
            let _ = pass;
        }
        let (h, m) = c.stats();
        assert!(m > h, "2x working set must thrash: {h} hits {m} misses");

        let mut c2 = Cache::new(4 * 1024, 4, 64);
        for _ in 0..3 {
            for i in 0..(lines as u64) / 2 {
                c2.access(i * 64, 0);
            }
        }
        let (h2, m2) = c2.stats();
        assert!(
            h2 >= m2 * 2,
            "half working set must mostly hit: {h2} hits {m2} misses"
        );
    }

    #[test]
    fn partitioned_replacement_protects_other_partition() {
        // 4-way, 1 set. Partition 0 gets 2 ways, partition 1 gets 2 ways.
        let mut c = Cache::new(4 * 64, 4, 64);
        c.set_partitions(&[2, 2]);
        // Partition 0 loads two lines.
        c.access(0, 0);
        c.access(256, 0);
        // Partition 1 streams many lines; partition 0's data must survive.
        for i in 0..100u64 {
            c.access(64 * (1000 + i), 1);
        }
        assert!(c.probe(0), "partition 0 line evicted by partition 1");
        assert!(c.probe(256));
    }

    #[test]
    fn lookup_hits_across_partitions() {
        let mut c = Cache::new(4 * 64, 4, 64);
        c.set_partitions(&[2, 2]);
        c.access(0, 0);
        // Partition 1 can *hit* on partition 0's line.
        assert_eq!(c.access(0, 1), AccessResult::Hit);
    }

    #[test]
    fn banked_cache_distributes_lines() {
        let mut b = BankedCache::new(4, 1024, 4, 64);
        let mut seen = std::collections::HashSet::new();
        for i in 0..8u64 {
            seen.insert(b.route(i).0);
            b.access(i * 64, 0);
        }
        assert_eq!(seen.len(), 4, "consecutive lines hit all banks");
        assert_eq!(b.stats().1, 8);
        for i in 0..8u64 {
            assert_eq!(b.access(i * 64, 0), AccessResult::Hit);
        }
    }

    #[test]
    fn flush_empties_cache() {
        let mut c = Cache::new(1024, 2, 64);
        c.access(0, 0);
        c.flush();
        assert!(!c.probe(0));
    }

    #[test]
    fn non_power_of_two_sets_work() {
        // 12 KB, 4-way, 64B lines → 48 sets of 4: 192 lines, line `i` in
        // set `i % 48`, so lines 0..192 fill every set exactly.
        let mut c = Cache::new(12 * 1024, 4, 64);
        let lines = 192u64;
        for i in 0..lines {
            assert_eq!(c.access(i * 64, 0), AccessResult::Miss, "line {i} cold");
        }
        for i in 0..lines {
            assert_eq!(c.access(i * 64, 0), AccessResult::Hit, "line {i} resident");
        }
        assert_eq!(c.stats(), (lines, lines));
        // A 193rd line maps to set 0, which is full: it evicts exactly one
        // line, the least recently used of that set (line 0), and no other.
        assert_eq!(c.access(lines * 64, 0), AccessResult::Miss);
        let gone: Vec<u64> = (0..=lines).filter(|&i| !c.probe(i * 64)).collect();
        assert_eq!(gone, [0]);
    }
}
