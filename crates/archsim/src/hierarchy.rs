//! The memory hierarchy: per-core L1s, a shared banked L2 (optionally
//! way-partitioned per phase), and main memory, with a lightweight
//! MOESI-style sharing model (writes by one core force a coherence
//! transfer on the next access by a different core).

use parallax_trace::memmap::LINE;

use crate::cache::{AccessResult, BankedCache, Cache};
use crate::config::MachineConfig;
use crate::dram::Dram;

const LINE_SHIFT: u32 = LINE.trailing_zeros();

/// Aggregate memory statistics.
#[derive(Debug, Default, Clone, Copy, PartialEq, Eq)]
pub struct MemStats {
    /// L1 hits.
    pub l1_hits: u64,
    /// L1 misses.
    pub l1_misses: u64,
    /// L2 hits.
    pub l2_hits: u64,
    /// L2 misses (memory accesses).
    pub l2_misses: u64,
    /// Coherence transfers (dirty line moved between cores).
    pub coherence_transfers: u64,
    /// Total access latency accumulated (cycles).
    pub total_latency: u64,
}

/// Line ids the hierarchy accepts: a 256 GB physical address space, which
/// bounds the writer table's directory and keeps every geometry division
/// inside its exact range.
const MAX_LINES: u64 = 1 << 32;

/// Lines per page of the writer table (256 KB of simulated memory).
const PAGE_LINES: usize = 4096;

/// "No core wrote this line."
const NO_WRITER: u8 = u8::MAX;

/// Last core to write each line (for the sharing model): a direct table
/// over line ids, allocated a page at a time on first write. Costs one
/// byte per line of every page ever written, plus eight bytes of directory
/// per page below the highest one.
#[derive(Debug, Default)]
struct LastWriters {
    pages: Vec<Option<Box<[u8; PAGE_LINES]>>>,
}

impl LastWriters {
    fn get(&self, line: u64) -> Option<u8> {
        let page = self.pages.get(line as usize / PAGE_LINES)?.as_ref()?;
        Some(page[line as usize % PAGE_LINES]).filter(|&w| w != NO_WRITER)
    }

    fn insert(&mut self, line: u64, core: u8) {
        let index = line as usize / PAGE_LINES;
        if index >= self.pages.len() {
            self.pages.resize_with(index + 1, || None);
        }
        let page = self.pages[index].get_or_insert_with(|| Box::new([NO_WRITER; PAGE_LINES]));
        page[line as usize % PAGE_LINES] = core;
    }

    fn remove(&mut self, line: u64) {
        if let Some(Some(page)) = self.pages.get_mut(line as usize / PAGE_LINES) {
            page[line as usize % PAGE_LINES] = NO_WRITER;
        }
    }

    fn clear(&mut self) {
        self.pages.clear();
    }
}

/// The simulated hierarchy.
#[derive(Debug)]
pub struct Hierarchy {
    l1: Vec<Cache>,
    l2: BankedCache,
    l1_latency: u64,
    /// Hops to the bank and back plus the bank's latency.
    l2_path_latency: u64,
    mem_latency: u64,
    /// Owner's cache → requester.
    transfer_latency: u64,
    writers: LastWriters,
    /// Next-line prefetch on L2 miss (paper future work).
    prefetch: bool,
    /// Optional open-page DRAM model (None = flat `mem_latency`).
    dram: Option<Dram>,
    /// Prefetches issued.
    prefetches: u64,
    stats: MemStats,
}

impl Hierarchy {
    /// Builds the hierarchy for `machine`.
    ///
    /// # Panics
    ///
    /// Panics if `machine` has more than 255 cores.
    pub fn new(machine: &MachineConfig) -> Hierarchy {
        assert!(
            machine.cores <= usize::from(NO_WRITER),
            "core ids must fit the writer table"
        );
        let mut l2 = BankedCache::new(machine.l2.banks, 1024 * 1024, machine.l2.assoc, LINE);
        if let Some(ways) = &machine.l2.partition_ways {
            l2.set_partitions(ways);
        }
        Hierarchy {
            l1: (0..machine.cores)
                .map(|_| Cache::new(machine.l1_bytes, machine.l1_assoc, LINE))
                .collect(),
            l2,
            l1_latency: machine.l1_latency,
            l2_path_latency: machine.hop_latency * 2 + machine.l2.latency,
            mem_latency: machine.mem_latency,
            transfer_latency: machine.hop_latency * 2 + machine.l1_latency,
            writers: LastWriters::default(),
            prefetch: machine.l2.latency > 0 && machine.l2_prefetch,
            dram: machine.dram_model.then(Dram::new),
            prefetches: 0,
            stats: MemStats::default(),
        }
    }

    /// Performs one access by `core` to the line containing `addr` under
    /// L2 `partition`. Returns the latency in cycles.
    ///
    /// # Panics
    ///
    /// Panics if `addr` is beyond the 256 GB the hierarchy models.
    pub fn access(&mut self, core: usize, addr: u64, write: bool, partition: u8) -> u64 {
        let line = addr >> LINE_SHIFT;
        assert!(line < MAX_LINES, "address {addr:#x} beyond 256 GB");
        let mut latency = self.l1_latency;
        // Every L1 has the same geometry: locate the line once.
        let (set, tag) = self.l1[core].locate(line);
        // A write invalidates every other core's L1 copy (MOESI
        // ownership): later readers must fetch through the L2 and pay the
        // coherence transfer.
        if write {
            for (c, l1) in self.l1.iter_mut().enumerate() {
                if c != core {
                    l1.invalidate_at(set, tag);
                }
            }
        }
        match self.l1[core].access_at(set, tag, 0) {
            AccessResult::Hit => {
                self.stats.l1_hits += 1;
                if write {
                    self.writers.insert(line, core as u8);
                }
                self.stats.total_latency += latency;
                return latency;
            }
            AccessResult::Miss => {
                self.stats.l1_misses += 1;
            }
        }

        // L2 access: a couple of network hops to the bank plus bank
        // latency.
        latency += self.l2_path_latency;
        match self.l2.access_line(line, partition) {
            AccessResult::Hit => {
                self.stats.l2_hits += 1;
                // Sharing: if another core wrote this line since, pay a
                // coherence transfer (owner's cache → requester). The
                // transfer downgrades the line to shared, so it is paid
                // once per write, not forever.
                if self.writers.get(line).is_some_and(|w| w != core as u8) {
                    latency += self.transfer_latency;
                    self.stats.coherence_transfers += 1;
                    self.writers.remove(line);
                }
            }
            AccessResult::Miss => {
                self.stats.l2_misses += 1;
                latency += match &mut self.dram {
                    Some(d) => d.access(addr),
                    None => self.mem_latency,
                };
                // Next-line prefetch: fill the following line into the L2
                // without charging the requester (the memory controller
                // overlaps it with the demand fill).
                if self.prefetch {
                    self.l2.access_line(line + 1, partition);
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

    /// Statistics so far.
    pub fn stats(&self) -> MemStats {
        self.stats
    }

    /// Resets every statistic (cache contents and open DRAM rows are
    /// preserved — used between the warm-up and measurement windows).
    pub fn reset_stats(&mut self) {
        self.stats = MemStats::default();
        self.prefetches = 0;
        if let Some(d) = &mut self.dram {
            d.reset_stats();
        }
        for c in &mut self.l1 {
            c.reset_stats();
        }
        self.l2.reset_stats();
    }

    /// Flushes all caches (cold start).
    pub fn flush(&mut self) {
        for c in &mut self.l1 {
            c.flush();
        }
        self.l2.flush();
        self.writers.clear();
    }

    /// Prefetches issued so far.
    pub fn prefetches(&self) -> u64 {
        self.prefetches
    }

    /// Open-row DRAM statistics `(row_hits, row_misses)`; zeros when the
    /// DRAM model is disabled.
    pub fn dram_stats(&self) -> (u64, u64) {
        self.dram.as_ref().map_or((0, 0), |d| d.stats())
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::config::MachineConfig;

    fn machine(cores: usize, l2_mb: usize) -> MachineConfig {
        MachineConfig::baseline(cores, l2_mb)
    }

    #[test]
    fn first_access_goes_to_memory() {
        let mut h = Hierarchy::new(&machine(1, 1));
        let lat = h.access(0, 0x1000, false, 0);
        // L1 (2) + hops (4) + L2 (15) + memory (340).
        assert_eq!(lat, 2 + 4 + 15 + 340);
        assert_eq!(h.stats().l2_misses, 1);
    }

    #[test]
    fn second_access_hits_l1() {
        let mut h = Hierarchy::new(&machine(1, 1));
        h.access(0, 0x1000, false, 0);
        let lat = h.access(0, 0x1000, false, 0);
        assert_eq!(lat, 2);
        assert_eq!(h.stats().l1_hits, 1);
    }

    #[test]
    fn cross_core_access_hits_l2_not_l1() {
        let mut h = Hierarchy::new(&machine(2, 1));
        h.access(0, 0x1000, false, 0);
        let lat = h.access(1, 0x1000, false, 0);
        assert_eq!(lat, 2 + 4 + 15, "clean L2 hit for the second core");
        assert_eq!(h.stats().l2_hits, 1);
    }

    #[test]
    fn dirty_sharing_pays_coherence_transfer() {
        let mut h = Hierarchy::new(&machine(2, 1));
        h.access(0, 0x2000, true, 0);
        let lat = h.access(1, 0x2000, false, 0);
        assert!(lat > 2 + 4 + 15, "dirty transfer costs extra: {lat}");
        assert_eq!(h.stats().coherence_transfers, 1);
    }

    #[test]
    fn sharing_is_tracked_per_line_not_per_byte() {
        let mut h = Hierarchy::new(&machine(2, 1));
        h.access(0, 0x2000, true, 0);
        let lat = h.access(1, 0x2008, false, 0);
        assert_eq!(lat, 2 + 4 + 15 + 4 + 2, "same line, other offset");
        assert_eq!(h.stats().coherence_transfers, 1);
        // Paid once per write.
        h.access(0, 0x2010, false, 0);
        assert_eq!(h.stats().coherence_transfers, 1);
    }

    #[test]
    fn writer_table_matches_a_map() {
        let mut t = LastWriters::default();
        assert_eq!(t.get(7), None);
        t.remove(7);
        t.insert(7, 3);
        t.insert(MAX_LINES - 1, 0);
        assert_eq!(t.get(7), Some(3));
        assert_eq!(t.get(8), None);
        assert_eq!(t.get(MAX_LINES - 1), Some(0));
        t.insert(7, 1);
        assert_eq!(t.get(7), Some(1));
        t.remove(7);
        assert_eq!(t.get(7), None);
        t.clear();
        assert_eq!(t.get(MAX_LINES - 1), None);
    }

    #[test]
    fn reset_stats_clears_prefetch_and_dram_counters() {
        let mut m = machine(1, 1);
        m.l2_prefetch = true;
        m.dram_model = true;
        let mut h = Hierarchy::new(&m);
        // Half of one 8 KB DRAM row, every other line (the rest is
        // prefetched).
        for i in 0..32u64 {
            h.access(0, 0x1000_0000 + i * 128, false, 0);
        }
        assert!(h.prefetches() > 0);
        assert_ne!(h.dram_stats(), (0, 0));
        h.reset_stats();
        assert_eq!(h.prefetches(), 0);
        assert_eq!(h.dram_stats(), (0, 0));
        // Contents and the open row survive: a warmed line still hits, and
        // the row's next unfetched line is a row hit.
        h.access(0, 0x1000_0000, false, 0);
        assert_eq!(h.stats().l1_misses, 0);
        h.access(0, 0x1000_0000 + 32 * 128, false, 0);
        assert_eq!(h.dram_stats(), (1, 0));
        assert_eq!(h.prefetches(), 1);
    }

    #[test]
    fn bigger_l2_reduces_misses_on_large_working_set() {
        let run = |mb: usize| {
            let mut h = Hierarchy::new(&machine(1, mb));
            // 2 MB working set streamed three times.
            for _ in 0..3 {
                for i in 0..(2 * 1024 * 1024 / 64) as u64 {
                    h.access(0, i * 64, false, 0);
                }
            }
            h.stats().l2_misses
        };
        let small = run(1);
        let big = run(4);
        assert!(
            big < small / 2,
            "4MB ({big} misses) must beat 1MB ({small} misses)"
        );
    }

    #[test]
    fn dram_model_rewards_streaming_over_random() {
        let run = |sequential: bool| {
            let mut m = machine(1, 1);
            m.dram_model = true;
            let mut h = Hierarchy::new(&m);
            let mut total = 0u64;
            let mut x = 7u64;
            for i in 0..20_000u64 {
                let addr = if sequential {
                    0x4000_0000 + i * 64
                } else {
                    x ^= x << 13;
                    x ^= x >> 7;
                    x ^= x << 17;
                    0x4000_0000 + (x % (1 << 28)) / 64 * 64
                };
                total += h.access(0, addr, false, 0);
            }
            total
        };
        let seq = run(true);
        let rnd = run(false);
        assert!(
            seq * 2 < rnd,
            "streaming ({seq}) should be far cheaper than random ({rnd})"
        );
    }

    #[test]
    fn next_line_prefetch_helps_streaming() {
        let run = |prefetch: bool| {
            let mut m = machine(1, 2);
            m.l2_prefetch = prefetch;
            let mut h = Hierarchy::new(&m);
            // Stream 4MB of sequential lines twice; with next-line
            // prefetch the second line of each miss-pair is already
            // resident.
            for _ in 0..2 {
                for i in 0..(4 * 1024 * 1024 / 64) as u64 {
                    h.access(0, 0x1000_0000 + i * 64, false, 0);
                }
            }
            h.stats().l2_misses
        };
        let without = run(false);
        let with = run(true);
        assert!(
            with < without / 2 + 1000,
            "prefetch should halve streaming misses: {with} vs {without}"
        );
    }

    #[test]
    fn partitioning_protects_a_small_working_set() {
        // Partition 0 (1 way/bank = 256KB of a 1MB L2) holds a small set;
        // partition 1 streams. Without partitioning the stream evicts
        // everything; with it, partition 0 keeps hitting.
        let run = |partitioned: bool| {
            let mut m = machine(1, 1);
            if partitioned {
                m.l2.partition_ways = Some(vec![1, 3]);
            }
            let mut h = Hierarchy::new(&m);
            let small: Vec<u64> = (0..2048).map(|i| 0x1000_0000 + i * 64).collect(); // 128 KB
                                                                                     // Warm the small set.
            for &a in &small {
                h.access(0, a, false, 0);
            }
            // Stream 8 MB through partition 1.
            for i in 0..(8 * 1024 * 1024 / 64) as u64 {
                h.access(0, 0x4000_0000 + i * 64, false, 1);
            }
            // L1 is tiny; flush it so we measure L2 retention only.
            h.reset_stats();
            for c in &mut h.l1 {
                c.flush();
            }
            for &a in &small {
                h.access(0, a, false, 0);
            }
            h.stats().l2_misses
        };
        let unprotected = run(false);
        let protected = run(true);
        assert!(
            protected < unprotected / 4,
            "partitioning should retain the small set: {protected} vs {unprotected}"
        );
    }
}
