//! Property-based tests for the architecture simulator's data structures,
//! and a differential oracle for the memory hierarchy: a naive reference
//! written with plain `/`, `%` and a `HashMap`, which the division-free,
//! hash-free implementation must match access for access.

use std::collections::HashMap;

use parallax_archsim::cache::{AccessResult, BankedCache, Cache};
use parallax_archsim::config::MachineConfig;
use parallax_archsim::dram::Dram;
use parallax_archsim::hierarchy::{Hierarchy, MemStats};
use parallax_archsim::yags::Yags;
use parallax_trace::memmap::Region;
use proptest::prelude::*;

/// Reference set-associative LRU cache: separate tag and stamp arrays,
/// modulo indexing, an explicit invalid-way check.
struct NaiveCache {
    sets: u64,
    assoc: usize,
    line: u64,
    tags: Vec<u64>,
    stamps: Vec<u64>,
    clock: u64,
    partition_ranges: Option<Vec<(usize, usize)>>,
    hits: u64,
    misses: u64,
}

impl NaiveCache {
    fn new(bytes: usize, assoc: usize, line: u64) -> NaiveCache {
        let sets = bytes / (assoc * line as usize);
        NaiveCache {
            sets: sets as u64,
            assoc,
            line,
            tags: vec![u64::MAX; sets * assoc],
            stamps: vec![0; sets * assoc],
            clock: 0,
            partition_ranges: None,
            hits: 0,
            misses: 0,
        }
    }

    fn set_partitions(&mut self, ways: &[usize]) {
        let mut ranges = Vec::new();
        let mut start = 0;
        for &w in ways {
            ranges.push((start, w));
            start += w;
        }
        let rem = self.assoc - start;
        ranges.push(if rem > 0 {
            (start, rem)
        } else {
            (0, self.assoc)
        });
        self.partition_ranges = Some(ranges);
    }

    fn base_and_tag(&self, addr: u64) -> (usize, u64) {
        let set = (addr / self.line) % self.sets;
        (set as usize * self.assoc, addr / self.line / self.sets)
    }

    fn access(&mut self, addr: u64, partition: u8) -> AccessResult {
        self.clock += 1;
        let (base, tag) = self.base_and_tag(addr);
        for w in 0..self.assoc {
            if self.tags[base + w] == tag {
                self.stamps[base + w] = self.clock;
                self.hits += 1;
                return AccessResult::Hit;
            }
        }
        self.misses += 1;
        let (start, count) = match &self.partition_ranges {
            Some(ranges) => ranges[(partition as usize).min(ranges.len() - 1)],
            None => (0, self.assoc),
        };
        let mut victim = start;
        let mut oldest = u64::MAX;
        for w in start..start + count {
            if self.tags[base + w] == u64::MAX {
                victim = w;
                break;
            }
            if self.stamps[base + w] < oldest {
                oldest = self.stamps[base + w];
                victim = w;
            }
        }
        self.tags[base + victim] = tag;
        self.stamps[base + victim] = self.clock;
        AccessResult::Miss
    }

    fn invalidate(&mut self, addr: u64) {
        let (base, tag) = self.base_and_tag(addr);
        for w in 0..self.assoc {
            if self.tags[base + w] == tag {
                self.tags[base + w] = u64::MAX;
                self.stamps[base + w] = 0;
            }
        }
    }

    fn probe(&self, addr: u64) -> bool {
        let (base, tag) = self.base_and_tag(addr);
        (0..self.assoc).any(|w| self.tags[base + w] == tag)
    }
}

/// Reference line-interleaved banked cache.
struct NaiveBanked {
    banks: Vec<NaiveCache>,
    line: u64,
}

impl NaiveBanked {
    fn new(banks: usize, bank_bytes: usize, assoc: usize, line: u64) -> NaiveBanked {
        NaiveBanked {
            banks: (0..banks)
                .map(|_| NaiveCache::new(bank_bytes, assoc, line))
                .collect(),
            line,
        }
    }

    fn route(&self, addr: u64) -> (usize, u64) {
        let line_id = addr / self.line;
        let banks = self.banks.len() as u64;
        (
            (line_id % banks) as usize,
            (line_id / banks) * self.line + addr % self.line,
        )
    }

    fn access(&mut self, addr: u64, partition: u8) -> AccessResult {
        let (bank, local) = self.route(addr);
        self.banks[bank].access(local, partition)
    }

    fn probe(&self, addr: u64) -> bool {
        let (bank, local) = self.route(addr);
        self.banks[bank].probe(local)
    }

    fn stats(&self) -> (u64, u64) {
        self.banks
            .iter()
            .fold((0, 0), |(h, m), b| (h + b.hits, m + b.misses))
    }
}

/// Reference hierarchy: the sharing model in a `HashMap` keyed by line.
struct NaiveHierarchy {
    l1: Vec<NaiveCache>,
    l2: NaiveBanked,
    machine: MachineConfig,
    writers: HashMap<u64, u8>,
    dram: Option<Dram>,
    prefetches: u64,
    stats: MemStats,
}

impl NaiveHierarchy {
    fn new(machine: &MachineConfig) -> NaiveHierarchy {
        let mut l2 = NaiveBanked::new(machine.l2.banks, 1024 * 1024, machine.l2.assoc, 64);
        if let Some(ways) = &machine.l2.partition_ways {
            for b in &mut l2.banks {
                b.set_partitions(ways);
            }
        }
        NaiveHierarchy {
            l1: (0..machine.cores)
                .map(|_| NaiveCache::new(machine.l1_bytes, machine.l1_assoc, 64))
                .collect(),
            l2,
            machine: machine.clone(),
            writers: HashMap::new(),
            dram: machine.dram_model.then(Dram::new),
            prefetches: 0,
            stats: MemStats::default(),
        }
    }

    fn access(&mut self, core: usize, addr: u64, write: bool, partition: u8) -> u64 {
        let m = &self.machine;
        let line = addr / 64;
        let mut latency = m.l1_latency;
        if write {
            for (c, l1) in self.l1.iter_mut().enumerate() {
                if c != core {
                    l1.invalidate(addr);
                }
            }
        }
        if self.l1[core].access(addr, 0) == AccessResult::Hit {
            self.stats.l1_hits += 1;
            if write {
                self.writers.insert(line, core as u8);
            }
            self.stats.total_latency += latency;
            return latency;
        }
        self.stats.l1_misses += 1;
        latency += m.hop_latency * 2 + m.l2.latency;
        match self.l2.access(addr, partition) {
            AccessResult::Hit => {
                self.stats.l2_hits += 1;
                if self.writers.get(&line).is_some_and(|&w| w != core as u8) {
                    latency += m.hop_latency * 2 + m.l1_latency;
                    self.stats.coherence_transfers += 1;
                    self.writers.remove(&line);
                }
            }
            AccessResult::Miss => {
                self.stats.l2_misses += 1;
                latency += match &mut self.dram {
                    Some(d) => d.access(addr),
                    None => m.mem_latency,
                };
                if m.l2.latency > 0 && m.l2_prefetch {
                    self.l2.access(addr + 64, partition);
                    self.prefetches += 1;
                }
            }
        }
        if write {
            self.writers.insert(line, core as u8);
        }
        self.stats.total_latency += latency;
        latency
    }
}

const BANK_COUNTS: [usize; 5] = [1, 3, 4, 12, 32];
/// (L2 associativity, way partitions): 4-way banks have 4096 sets, 3-way
/// banks 5461; the tables leave a way over, fill the set, or are absent.
const L2_SHAPES: [(usize, Option<&[usize]>); 5] = [
    (4, None),
    (4, Some(&[1, 1, 2])),
    (4, Some(&[1, 2])),
    (3, Some(&[1, 1])),
    (3, None),
];
/// Partition ids: inside the tables, beyond them, beyond the miss counters.
const PARTITIONS: [u8; 6] = [0, 1, 2, 3, 17, 255];
/// First byte past the highest region of the memory map.
const TOP: u64 = 0x8800_0000;

/// Turns a drawn `(kind, k)` into an address: a few hot lines every core
/// shares, lines that collide in one L2 set of one bank, or anywhere in
/// the memory map (unaligned: both sides must key by line).
fn address(kind: u8, k: u64, banks: usize, l2_sets: u64) -> u64 {
    match kind % 4 {
        0 => Region::Objects.base() + (k % 24) * 64 + k % 64,
        1 => Region::Contacts.base() + (k % 12) * banks as u64 * l2_sets * 64,
        2 => Region::Kernel.base() + (k % 600) * 64,
        _ => k % TOP,
    }
}

proptest! {
    #![proptest_config(ProptestConfig::with_cases(48))]

    #[test]
    fn hierarchy_matches_the_naive_reference(
        shape in (1usize..9, 0usize..5, 0usize..5, any::<bool>(), any::<bool>(), any::<bool>()),
        stream in prop::collection::vec((0usize..8, 0u8..4, any::<u64>(), 0u8..4, 0usize..6), 1..1500)
    ) {
        let (cores, banks, l2_shape, small_l1, prefetch, dram) = shape;
        let banks = BANK_COUNTS[banks];
        let (assoc, ways) = L2_SHAPES[l2_shape];
        let mut machine = MachineConfig::baseline(cores, banks);
        machine.l2.assoc = assoc;
        machine.l2.partition_ways = ways.map(<[usize]>::to_vec);
        machine.l2_prefetch = prefetch;
        machine.dram_model = dram;
        if small_l1 {
            // 48 sets: the non-power-of-two L1.
            machine.l1_bytes = 12 * 1024;
        }
        let l2_sets = (1024 * 1024 / (assoc * 64)) as u64;
        let mut fast = Hierarchy::new(&machine);
        let mut naive = NaiveHierarchy::new(&machine);
        for (i, &(core, kind, k, write, part)) in stream.iter().enumerate() {
            let core = core % cores;
            let addr = address(kind, k, banks, l2_sets);
            let part = PARTITIONS[part];
            // A quarter of the accesses write.
            let write = write == 0;
            prop_assert_eq!(
                fast.access(core, addr, write, part),
                naive.access(core, addr, write, part),
                "access {i}: core {core} addr {addr:#x} write {write} partition {part}"
            );
        }
        prop_assert_eq!(fast.stats(), naive.stats);
        prop_assert_eq!(fast.prefetches(), naive.prefetches);
        prop_assert_eq!(
            fast.dram_stats(),
            naive.dram.as_ref().map_or((0, 0), Dram::stats)
        );
    }

    #[test]
    fn caches_match_the_naive_reference(
        shape in (0usize..5, 0usize..5, any::<bool>()),
        stream in prop::collection::vec((0u8..4, any::<u64>(), 0usize..6, 0u8..8), 1..1500)
    ) {
        let (banks, l2_shape, small) = shape;
        let banks = BANK_COUNTS[banks];
        let (assoc, ways) = L2_SHAPES[l2_shape];
        // 12 KB banks have 48 sets (4-way) or 64 (3-way).
        let bank_bytes = if small { 12 * 1024 } else { 1024 * 1024 };
        let sets = (bank_bytes / (assoc * 64)) as u64;
        let mut fast = BankedCache::new(banks, bank_bytes, assoc, 64);
        let mut naive = NaiveBanked::new(banks, bank_bytes, assoc, 64);
        let mut fast_one = Cache::new(bank_bytes, assoc, 64);
        let mut naive_one = NaiveCache::new(bank_bytes, assoc, 64);
        if let Some(ways) = ways {
            fast.set_partitions(ways);
            fast_one.set_partitions(ways);
            naive.banks.iter_mut().for_each(|b| b.set_partitions(ways));
            naive_one.set_partitions(ways);
        }
        for &(kind, k, part, op) in &stream {
            let addr = address(kind, k, banks, sets);
            let part = PARTITIONS[part];
            prop_assert_eq!(fast.access(addr, part), naive.access(addr, part), "addr {addr:#x}");
            // The single cache also takes invalidations (an eighth of the
            // operations) and sees the conflict lines one bank apart.
            let one = addr / banks as u64;
            if op == 0 {
                fast_one.invalidate(one);
                naive_one.invalidate(one);
            } else {
                prop_assert_eq!(fast_one.access(one, part), naive_one.access(one, part), "addr {one:#x}");
            }
        }
        for &(kind, k, _, _) in &stream {
            let addr = address(kind, k, banks, sets);
            prop_assert_eq!(fast.probe(addr), naive.probe(addr), "probe {addr:#x}");
            prop_assert_eq!(fast_one.probe(addr / banks as u64), naive_one.probe(addr / banks as u64));
        }
        prop_assert_eq!(fast.stats(), naive.stats());
        prop_assert_eq!(fast_one.stats(), (naive_one.hits, naive_one.misses));
    }
}

proptest! {
    #[test]
    fn cache_inclusion_after_access(addrs in prop::collection::vec(0u64..1_000_000, 1..200)) {
        // The most recently accessed line is always resident.
        let mut c = Cache::new(4 * 1024, 4, 64);
        for &a in &addrs {
            c.access(a, 0);
            prop_assert!(c.probe(a), "line {a:#x} missing right after access");
        }
    }

    #[test]
    fn cache_hit_plus_miss_equals_accesses(addrs in prop::collection::vec(0u64..100_000, 1..300)) {
        let mut c = Cache::new(2 * 1024, 2, 64);
        for &a in &addrs {
            c.access(a, 0);
        }
        let (h, m) = c.stats();
        prop_assert_eq!(h + m, addrs.len() as u64);
    }

    #[test]
    fn repeated_single_line_always_hits_after_first(addr in 0u64..1_000_000, n in 2usize..50) {
        let mut c = Cache::new(1024, 2, 64);
        c.access(addr, 0);
        for _ in 1..n {
            prop_assert_eq!(c.access(addr, 0), AccessResult::Hit);
        }
    }

    #[test]
    fn banked_cache_agrees_with_itself_on_residency(
        addrs in prop::collection::vec(0u64..10_000_000, 1..300)
    ) {
        // probe() must agree with a subsequent access being a hit.
        let mut b = BankedCache::new(4, 64 * 1024, 4, 64);
        for &a in &addrs {
            b.access(a, 0);
        }
        for &a in addrs.iter().rev().take(3) {
            if b.probe(a) {
                prop_assert_eq!(b.access(a, 0), AccessResult::Hit);
            }
        }
    }

    #[test]
    fn working_set_within_capacity_converges_to_hits(
        lines in 1usize..30, passes in 2usize..6
    ) {
        // Any working set smaller than half the capacity must stop missing
        // after the first pass (LRU with enough associativity).
        let mut c = Cache::new(16 * 1024, 8, 64);
        let addrs: Vec<u64> = (0..lines as u64).map(|i| i * 64).collect();
        for &a in &addrs {
            c.access(a, 0);
        }
        c.reset_stats();
        for _ in 1..passes {
            for &a in &addrs {
                c.access(a, 0);
            }
        }
        let (_, m) = c.stats();
        prop_assert_eq!(m, 0, "resident working set must not miss");
    }

    #[test]
    fn partitioned_cache_never_loses_lookup_correctness(
        addrs in prop::collection::vec(0u64..100_000, 1..200),
        parts in prop::collection::vec(0u8..3, 1..200)
    ) {
        // Partitioning restricts replacement, not correctness: a line
        // reported resident must hit for every partition id.
        let mut c = Cache::new(4 * 1024, 4, 64);
        c.set_partitions(&[1, 2, 1]);
        for (i, &a) in addrs.iter().enumerate() {
            let p = parts[i % parts.len()];
            c.access(a, p);
            prop_assert!(c.probe(a));
        }
    }

    #[test]
    fn yags_never_panics_and_learns_constants(pcs in prop::collection::vec(0u64..1_000_000, 10..100)) {
        let mut y = Yags::with_budget(4096);
        // Arbitrary PC stream with constant outcome: accuracy must exceed 90%
        // after warm-up (several passes so the 2-bit counters saturate).
        for _ in 0..3 {
            for &pc in &pcs {
                y.predict_and_update(pc, true);
            }
        }
        let mut correct = 0;
        for &pc in &pcs {
            if y.predict_and_update(pc, true) {
                correct += 1;
            }
        }
        prop_assert!(correct as f64 / pcs.len() as f64 > 0.9);
    }
}
