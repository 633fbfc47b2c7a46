//! Island sleeping: the temporal-coherence fast path.
//!
//! Settled scenes pay almost nothing: once every body in an island has
//! been quiet (velocity EMA below threshold) for
//! [`SLEEP_STEPS`](crate::world::SLEEP_STEPS) consecutive steps, the whole
//! island is deactivated. Sleeping bodies are masked out of the
//! integrator sweeps, their broad-phase AABBs stay frozen, their
//! internal contact pairs bypass narrow-phase entirely (the manifolds
//! are parked here and replayed on wake), their contact-cache entries
//! are pinned against aging, and the incremental island builder
//! ([`crate::island::IslandGraph`]) never visits them.
//!
//! All sleep/wake decisions run in *serial, index-ordered* passes —
//! never inside the parallel phases — so trajectories stay bit-identical
//! across thread counts and SIMD modes. Wake sources: contact with an
//! awake body, a joint whose other side is awake, a blast impulse, a
//! user impulse/force/velocity write (detected by the disturbance scan),
//! and the explicit [`crate::World::wake_body`] / [`crate::World::wake_all`]
//! APIs.

use crate::contact::ContactManifold;

/// Value the activity EMA is reset to when a body wakes, so a freshly
/// woken body needs a few genuinely quiet steps (EMA halves per step)
/// before its sleep timer starts counting again.
pub(crate) const WAKE_EMA: f32 = 4.0;

/// A deactivated island, parked until a wake event.
///
/// Stores the member body indices and the full contact manifolds the
/// island had when it fell asleep. On wake the manifolds are replayed
/// into the step's manifold arena (narrow-phase skipped them this step),
/// so the island re-solves with its resting contacts immediately instead
/// of free-falling for one step.
#[derive(Debug, Clone, Default)]
pub struct SleepingIsland {
    /// Member body indices, ascending.
    pub bodies: Vec<u32>,
    /// The island's contact manifolds at the moment it slept (internal
    /// and against static geometry only — by construction no manifold in
    /// a sleeping island references an awake dynamic body).
    pub manifolds: Vec<ContactManifold>,
}

/// The world's sleeping-island table plus the pending wake queue.
///
/// Slots are allocated from a free list so a body's island lane
/// (`SLEEP_SLOT_BIT | slot`, see [`crate::island::SLEEP_SLOT_BIT`])
/// stays stable while the island sleeps. All mutation happens in the
/// serial sleep/wake passes.
#[derive(Debug, Clone, Default)]
pub struct SleepSystem {
    /// Slot table; `None` = free slot.
    pub(crate) islands: Vec<Option<SleepingIsland>>,
    /// Free slot indices (LIFO).
    pub(crate) free: Vec<u32>,
    /// Bodies disturbed since the last wake resolution (impulses, blasts,
    /// direct velocity writes). Drained by the serial wake pass.
    pub(crate) pending_wakes: Vec<u32>,
}

impl SleepSystem {
    /// Number of currently sleeping islands.
    pub fn sleeping_islands(&self) -> usize {
        self.islands.iter().filter(|s| s.is_some()).count()
    }

    /// Heap bytes of the slot table, every sleeping island's lists and
    /// the queues.
    pub(crate) fn heap_bytes(&self) -> usize {
        use crate::heap::vec_bytes;
        let islands: usize = (self.islands.iter().flatten())
            .map(|isle| vec_bytes(&isle.bodies) + vec_bytes(&isle.manifolds))
            .sum();
        vec_bytes(&self.islands) + islands + vec_bytes(&self.free) + vec_bytes(&self.pending_wakes)
    }

    /// Returns `true` when nothing sleeps and no wake is pending, so the
    /// per-step sleep bookkeeping can be skipped entirely.
    #[inline]
    pub(crate) fn is_idle(&self) -> bool {
        self.pending_wakes.is_empty() && self.islands.len() == self.free.len()
    }

    /// Allocates a slot for a newly sleeping island.
    pub(crate) fn alloc(&mut self) -> u32 {
        match self.free.pop() {
            Some(slot) => slot,
            None => {
                self.islands.push(None);
                (self.islands.len() - 1) as u32
            }
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn slot_allocation_reuses_freed_slots() {
        let mut s = SleepSystem::default();
        assert!(s.is_idle());
        assert_eq!(s.alloc(), 0);
        assert_eq!(s.alloc(), 1);
        s.islands[0] = Some(SleepingIsland::default());
        s.islands[1] = Some(SleepingIsland::default());
        assert_eq!(s.sleeping_islands(), 2);
        assert!(!s.is_idle());
        s.islands[0] = None;
        s.free.push(0);
        assert_eq!(s.alloc(), 0);
        s.islands[0] = Some(SleepingIsland::default());
        assert_eq!(s.alloc(), 2);
    }
}
