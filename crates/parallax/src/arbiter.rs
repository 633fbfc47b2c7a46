//! Hierarchical FG↔CG arbitration (paper §7.1).
//!
//! "We logically divide the FG cores evenly among the CG cores. Each of
//! these sets of FG cores is controlled by an arbiter. The arbiter assigns
//! tasks to FG cores from CG cores in a priority ordering — a different CG
//! core has priority on each arbiter. … If the top-priority CG core for
//! that arbiter no longer has any tasks to map to FG cores, or there are
//! idle FG cores for that arbiter, the arbiter will check the next CG core
//! on its priority list."

use serde::{Deserialize, Serialize};

/// Identifier of a fine-grain core.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Hash, Serialize, Deserialize)]
pub struct FgId(pub u32);

/// One arbiter's group of FG cores with its CG priority rotation.
#[derive(Debug, Clone)]
struct Group {
    fg_cores: Vec<FgId>,
    /// CG core indices in priority order (rotated per group).
    priority: Vec<usize>,
}

/// The hierarchical arbiter.
///
/// # Examples
///
/// ```
/// use parallax::arbiter::HierarchicalArbiter;
///
/// let arb = HierarchicalArbiter::new(4, 16);
/// // Balanced demand: each CG core receives its local group of 4.
/// let assign = arb.assign(&[4, 4, 4, 4]);
/// assert!(assign.iter().all(|a| a.len() == 4));
///
/// // One hot CG core: it can use every FG core.
/// let assign = arb.assign(&[16, 0, 0, 0]);
/// assert_eq!(assign[0].len(), 16);
/// ```
#[derive(Debug, Clone)]
pub struct HierarchicalArbiter {
    groups: Vec<Group>,
    cg_cores: usize,
}

impl HierarchicalArbiter {
    /// Builds the arbiter for `cg_cores` CG cores and `fg_cores` FG cores.
    ///
    /// FG cores are divided into `cg_cores` near-even groups; group `g`'s
    /// priority list is the CG cores rotated by `g` so that each CG core
    /// is top priority on exactly one arbiter (when counts match).
    ///
    /// # Panics
    ///
    /// Panics if either count is zero.
    pub fn new(cg_cores: usize, fg_cores: usize) -> HierarchicalArbiter {
        assert!(cg_cores > 0 && fg_cores > 0, "need at least one of each");
        let mut groups = Vec::with_capacity(cg_cores);
        let mut next = 0u32;
        for g in 0..cg_cores {
            // Near-even split: earlier groups get the remainder.
            let base = fg_cores / cg_cores;
            let extra = usize::from(g < fg_cores % cg_cores);
            let count = base + extra;
            let fg: Vec<FgId> = (0..count)
                .map(|_| {
                    let id = FgId(next);
                    next += 1;
                    id
                })
                .collect();
            let priority: Vec<usize> = (0..cg_cores).map(|i| (g + i) % cg_cores).collect();
            groups.push(Group {
                fg_cores: fg,
                priority,
            });
        }
        HierarchicalArbiter { groups, cg_cores }
    }

    /// Assigns FG cores given each CG core's outstanding FG-task demand
    /// (`demands[c]` = tasks CG core `c` wants to farm out).
    ///
    /// Returns, per CG core, the FG cores granted to it this round. The
    /// allocation is work-conserving (no FG core idles while any demand
    /// is unmet) and locality-preferring (balanced demand ⇒ each CG core
    /// gets its own group).
    pub fn assign(&self, demands: &[usize]) -> Vec<Vec<FgId>> {
        assert_eq!(demands.len(), self.cg_cores, "one demand per CG core");
        let mut remaining: Vec<usize> = demands.to_vec();
        let mut granted: Vec<Vec<FgId>> = vec![Vec::new(); self.cg_cores];
        for group in &self.groups {
            let mut free = group.fg_cores.iter().copied();
            'cg: for &cg in &group.priority {
                while remaining[cg] > 0 {
                    match free.next() {
                        Some(fg) => {
                            granted[cg].push(fg);
                            remaining[cg] -= 1;
                        }
                        None => break 'cg,
                    }
                }
            }
        }
        granted
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn balanced_demand_gets_local_groups() {
        let arb = HierarchicalArbiter::new(4, 32);
        let a = arb.assign(&[8, 8, 8, 8]);
        // Fully local: each CG core is granted exactly its own group.
        for (cg, granted) in a.iter().enumerate() {
            assert_eq!(granted, &arb.groups[cg].fg_cores, "cg {cg}");
        }
    }

    #[test]
    fn single_hot_core_is_work_conserving() {
        let arb = HierarchicalArbiter::new(4, 32);
        let a = arb.assign(&[100, 0, 0, 0]);
        assert_eq!(a[0].len(), 32, "one CG core can utilize all FG cores");
    }

    #[test]
    fn no_fg_core_double_granted() {
        let arb = HierarchicalArbiter::new(4, 30);
        let a = arb.assign(&[10, 3, 20, 7]);
        let mut seen = std::collections::HashSet::new();
        for fgs in &a {
            for fg in fgs {
                assert!(seen.insert(*fg), "core {fg:?} granted twice");
            }
        }
        // All 30 cores granted (total demand 40 > 30).
        assert_eq!(seen.len(), 30);
    }

    #[test]
    fn uneven_split_covers_all_cores() {
        let arb = HierarchicalArbiter::new(4, 30);
        let a = arb.assign(&[30, 30, 30, 30]);
        let total: usize = a.iter().map(|v| v.len()).sum();
        assert_eq!(total, 30);
        // Groups are 8, 8, 7, 7.
        assert!(a.iter().all(|v| v.len() >= 7));
    }

    #[test]
    fn underloaded_system_spills_to_neighbors() {
        // Two CG cores busy, two idle: busy cores should also get the idle
        // groups' FG cores.
        let arb = HierarchicalArbiter::new(4, 32);
        let a = arb.assign(&[16, 16, 0, 0]);
        assert_eq!(a[0].len() + a[1].len(), 32);
        assert!(a[0].len() >= 8 && a[1].len() >= 8);
    }

    #[test]
    fn partial_demand_leaves_cores_idle() {
        let arb = HierarchicalArbiter::new(2, 10);
        let a = arb.assign(&[2, 3]);
        assert_eq!(a[0].len(), 2);
        assert_eq!(a[1].len(), 3);
    }

    #[test]
    #[should_panic(expected = "one demand per CG core")]
    fn wrong_demand_length_panics() {
        let arb = HierarchicalArbiter::new(2, 4);
        let _ = arb.assign(&[1, 2, 3]);
    }
}
