//! Machine configurations (paper Tables 5 and 6).

use serde::{Deserialize, Serialize};

/// A core's microarchitectural parameters.
///
/// The four named constructors correspond to paper Table 6 (fine-grain
/// core candidates); [`CoreConfig::desktop`] doubles as the coarse-grain
/// core of Table 5.
#[derive(Debug, Clone, Copy, PartialEq, Serialize)]
pub struct CoreConfig {
    /// Issue width (instructions/cycle).
    pub width: usize,
    /// Scheduler / instruction-window entries.
    pub window: usize,
    /// Reorder-buffer entries.
    pub rob: usize,
    /// Pipeline depth (stages) — sets the branch-misprediction penalty.
    pub pipeline_depth: usize,
    /// YAGS predictor storage in bytes.
    pub predictor_bytes: usize,
    /// Clock frequency in Hz (paper: all cores at 2 GHz).
    pub clock_hz: u64,
    /// Display name.
    pub name: &'static str,
}

impl CoreConfig {
    /// Desktop-class core: "Intel Core Duo"-like, 4-wide, 14-stage,
    /// 96-entry ROB / 32-entry window, 17 KB YAGS (Tables 5/6).
    pub fn desktop() -> CoreConfig {
        CoreConfig {
            width: 4,
            window: 32,
            rob: 96,
            pipeline_depth: 14,
            predictor_bytes: 17 * 1024,
            clock_hz: 2_000_000_000,
            name: "Desktop",
        }
    }

    /// Console-class core: "IBM Cell"-like, 2-wide, 12-stage, 32-entry
    /// ROB / 8-entry window, 17 KB YAGS (Table 6).
    pub fn console() -> CoreConfig {
        CoreConfig {
            width: 2,
            window: 8,
            rob: 32,
            pipeline_depth: 12,
            predictor_bytes: 17 * 1024,
            clock_hz: 2_000_000_000,
            name: "Console",
        }
    }

    /// GPU-shader-class core: 1-wide, 8-stage, 32-entry ROB / 1-entry
    /// window, 1 KB YAGS (Table 6).
    pub fn shader() -> CoreConfig {
        CoreConfig {
            width: 1,
            window: 1,
            rob: 32,
            pipeline_depth: 8,
            predictor_bytes: 1024,
            clock_hz: 2_000_000_000,
            name: "GPU shader",
        }
    }

    /// Limit-study core: unrealistic 128-wide, 512-entry ROB / 128-entry
    /// window, 64 KB YAGS (Table 6).
    pub fn limit_study() -> CoreConfig {
        CoreConfig {
            width: 128,
            window: 128,
            rob: 512,
            pipeline_depth: 14,
            predictor_bytes: 64 * 1024,
            clock_hz: 2_000_000_000,
            name: "Limit Study",
        }
    }
}

/// Shared-L2 configuration: `banks` 1 MB 4-way banks (paper §5).
#[derive(Debug, Clone, PartialEq, Serialize, Deserialize)]
pub struct L2Config {
    /// Number of 1 MB banks (total size in MB).
    pub banks: usize,
    /// Associativity per bank.
    pub assoc: usize,
    /// Bank access latency in cycles (paper: 15).
    pub latency: u64,
    /// Way-partitioning: when set, accesses carry a partition id and each
    /// partition may only *replace* within its assigned ways
    /// (columnization, paper §6.2). `partition_ways[p]` = ways owned by
    /// partition `p`; the sum must not exceed `assoc`.
    pub partition_ways: Option<Vec<usize>>,
}

impl L2Config {
    /// Unpartitioned L2 of `megabytes` total (1 MB 4-way banks).
    pub fn unified(megabytes: usize) -> L2Config {
        L2Config {
            banks: megabytes.max(1),
            assoc: 4,
            latency: 15,
            partition_ways: None,
        }
    }

    /// Partitioned L2: `ways[p]` ways of every bank belong to partition
    /// `p`.
    ///
    /// # Panics
    ///
    /// Panics if the way assignment exceeds the associativity.
    pub fn partitioned(megabytes: usize, ways: Vec<usize>) -> L2Config {
        let assoc = 4;
        assert!(
            ways.iter().sum::<usize>() <= assoc,
            "partition ways exceed associativity"
        );
        L2Config {
            banks: megabytes.max(1),
            assoc,
            latency: 15,
            partition_ways: Some(ways),
        }
    }

    /// Total capacity in bytes.
    pub fn bytes(&self) -> usize {
        self.banks * 1024 * 1024
    }
}

/// A full machine: CG cores + L2 + memory (paper Table 5).
#[derive(Debug, Clone, Serialize)]
pub struct MachineConfig {
    /// Core configuration for every CG core.
    pub core: CoreConfig,
    /// Number of CG cores.
    pub cores: usize,
    /// L1 data cache size in bytes (paper: 32 KB, 4-way, 2-cycle).
    pub l1_bytes: usize,
    /// L1 associativity.
    pub l1_assoc: usize,
    /// L1 hit latency.
    pub l1_latency: u64,
    /// L2 configuration.
    pub l2: L2Config,
    /// Main-memory latency in cycles (paper: 340).
    pub mem_latency: u64,
    /// Point-to-point hop latency between tiles (paper: 2 cycles/hop).
    pub hop_latency: u64,
    /// Next-line L2 prefetching (the paper's future-work item for
    /// reducing the required L2 size). Off by default to match the
    /// paper's baseline machine.
    pub l2_prefetch: bool,
    /// Use the open-page DRAM model instead of the flat `mem_latency`
    /// (paper Table 5 charges a flat 340 cycles; this refines it).
    pub dram_model: bool,
}

impl MachineConfig {
    /// The paper's baseline: one desktop CG core with `l2_mb` MB of L2.
    pub fn baseline(cores: usize, l2_mb: usize) -> MachineConfig {
        MachineConfig {
            core: CoreConfig::desktop(),
            cores: cores.max(1),
            l1_bytes: 32 * 1024,
            l1_assoc: 4,
            l1_latency: 2,
            l2: L2Config::unified(l2_mb),
            mem_latency: 340,
            hop_latency: 2,
            l2_prefetch: false,
            dram_model: false,
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn table6_configs() {
        let d = CoreConfig::desktop();
        assert_eq!((d.width, d.window, d.rob), (4, 32, 96));
        let c = CoreConfig::console();
        assert_eq!((c.width, c.window, c.rob), (2, 8, 32));
        let s = CoreConfig::shader();
        assert_eq!((s.width, s.window, s.rob), (1, 1, 32));
        let l = CoreConfig::limit_study();
        assert_eq!((l.width, l.window, l.rob), (128, 128, 512));
        assert!(s.predictor_bytes < d.predictor_bytes);
    }

    #[test]
    fn l2_capacity() {
        assert_eq!(L2Config::unified(4).bytes(), 4 * 1024 * 1024);
        assert_eq!(L2Config::unified(0).banks, 1);
    }

    #[test]
    #[should_panic(expected = "partition ways exceed associativity")]
    fn overcommitted_partition_panics() {
        let _ = L2Config::partitioned(4, vec![3, 3]);
    }

    #[test]
    fn baseline_matches_table5() {
        let m = MachineConfig::baseline(1, 1);
        assert_eq!(m.l1_bytes, 32 * 1024);
        assert_eq!(m.l1_latency, 2);
        assert_eq!(m.l2.latency, 15);
        assert_eq!(m.mem_latency, 340);
        assert_eq!(m.core.width, 4);
    }
}
