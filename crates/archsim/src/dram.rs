//! Main-memory model.
//!
//! The paper charges a flat 340 cycles per memory access (Table 5); that
//! remains the default. This module adds an optional open-page DRAM model
//! (banks + row buffers) for finer-grained studies: sequential streams hit
//! open rows and pay much less than random pointer chases.

use serde::{Deserialize, Serialize};

/// Open-page DRAM timing model.
#[derive(Debug, Clone, Serialize, Deserialize)]
pub struct Dram {
    /// Number of banks (row buffers).
    banks: usize,
    /// Bytes per row.
    row_bytes: u64,
    /// Cycles for a row-buffer hit (CAS + transfer).
    pub hit_cycles: u64,
    /// Cycles for a row miss (precharge + activate + CAS).
    pub miss_cycles: u64,
    /// Currently open row per bank (`u64::MAX` = closed).
    open_rows: Vec<u64>,
    row_hits: u64,
    row_misses: u64,
}

impl Dram {
    /// A DDR2-era device matching the paper's 340-cycle average on a
    /// random-access stream: 8 banks, 8 KB rows, 120-cycle row hits,
    /// 340-cycle row misses (at the 2 GHz core clock).
    pub fn new() -> Dram {
        Dram::with_geometry(8, 8 * 1024, 120, 340)
    }

    /// Creates a model with explicit geometry and timings.
    ///
    /// # Panics
    ///
    /// Panics if `banks` or `row_bytes` is zero.
    pub fn with_geometry(banks: usize, row_bytes: u64, hit: u64, miss: u64) -> Dram {
        assert!(banks > 0 && row_bytes > 0, "degenerate DRAM geometry");
        Dram {
            banks,
            row_bytes,
            hit_cycles: hit,
            miss_cycles: miss,
            open_rows: vec![u64::MAX; banks],
            row_hits: 0,
            row_misses: 0,
        }
    }

    #[inline]
    fn map(&self, addr: u64) -> (usize, u64) {
        let row_id = addr / self.row_bytes;
        (
            (row_id % self.banks as u64) as usize,
            row_id / self.banks as u64,
        )
    }

    /// Performs one access, returning its latency in cycles.
    pub fn access(&mut self, addr: u64) -> u64 {
        let (bank, row) = self.map(addr);
        if self.open_rows[bank] == row {
            self.row_hits += 1;
            self.hit_cycles
        } else {
            self.open_rows[bank] = row;
            self.row_misses += 1;
            self.miss_cycles
        }
    }

    /// (row hits, row misses) so far.
    pub fn stats(&self) -> (u64, u64) {
        (self.row_hits, self.row_misses)
    }

    /// Resets the hit/miss counters; open rows stay open.
    pub fn reset_stats(&mut self) {
        self.row_hits = 0;
        self.row_misses = 0;
    }
}

impl Default for Dram {
    fn default() -> Self {
        Dram::new()
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    /// Row-buffer hit rate so far.
    fn hit_rate(d: &Dram) -> f64 {
        let (hits, misses) = d.stats();
        hits as f64 / (hits + misses) as f64
    }

    #[test]
    fn sequential_stream_mostly_hits_rows() {
        let mut d = Dram::new();
        for i in 0..10_000u64 {
            d.access(i * 64);
        }
        assert!(hit_rate(&d) > 0.95, "hit rate {}", hit_rate(&d));
    }

    #[test]
    fn random_stream_mostly_misses_rows() {
        let mut d = Dram::new();
        let mut x = 0x1234_5678u64;
        for _ in 0..10_000 {
            x ^= x << 13;
            x ^= x >> 7;
            x ^= x << 17;
            d.access(x % (1 << 30));
        }
        assert!(hit_rate(&d) < 0.2, "hit rate {}", hit_rate(&d));
    }

    #[test]
    fn same_line_twice_is_a_row_hit() {
        let mut d = Dram::new();
        assert_eq!(d.access(0x1000), d.miss_cycles);
        assert_eq!(d.access(0x1040), d.hit_cycles);
    }

    #[test]
    fn distinct_banks_keep_independent_rows() {
        let mut d = Dram::with_geometry(2, 1024, 100, 300);
        d.access(0); // bank 0, row 0
        d.access(1024); // bank 1, row 0
                        // Returning to bank 0's open row is a hit.
        assert_eq!(d.access(64), 100);
    }

    #[test]
    fn average_latency_between_hit_and_miss() {
        let mut d = Dram::new();
        let mut total = 0;
        let n = 5_000u64;
        // Mixed: pairs of accesses to the same row.
        for i in 0..n {
            total += d.access((i / 2) * 16 * 1024 + (i % 2) * 64);
        }
        let avg = total / n;
        assert!(avg > d.hit_cycles && avg < d.miss_cycles);
    }
}
