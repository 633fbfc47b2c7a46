//! Heap accounting: the bytes a world retains between steps, by
//! component ([`crate::World::heap_bytes`]), beside the bytes the calling
//! thread's step scratch holds ([`crate::pipeline::thread_scratch_bytes`]).
//!
//! A buffer is charged its capacity, not its length: what it holds is what
//! the allocator handed out. Hash tables are charged the bucket array the
//! standard library's SwissTable allocates for their capacity. Shared
//! (`Arc`) payloads — terrain, cloth topology — are charged to every holder.

use std::collections::HashMap;

/// Heap bytes a world retains between steps, by component.
#[derive(Debug, Default, Clone, Copy, PartialEq, Eq)]
pub struct HeapBytes {
    /// The body store's lanes.
    pub bodies: usize,
    /// Geoms (with their terrain payloads), each body's geom list and the
    /// per-geom tables the AABB refresh writes.
    pub geoms: usize,
    /// Joints and the collision-exclusion table.
    pub joints: usize,
    /// The broad phase's last AABB list and its candidate pairs.
    pub broadphase: usize,
    /// The persistent grid's proxies, cells, links, members, index and
    /// fat pairs, less its free-listed blocks.
    pub grid_in_use: usize,
    /// Member and link blocks and cell records the grid keeps on its free
    /// lists.
    pub grid_free: usize,
    /// The incremental island graph's union-find forest and lane lists.
    pub island_graph: usize,
    /// The cross-step contact cache.
    pub contact_cache: usize,
    /// Sleeping islands (bodies and parked manifolds), free slots and the
    /// wake queue.
    pub sleep: usize,
    /// The profile the whole-step coast replays.
    pub coast_cache: usize,
    /// Cloth vertices, topology, schedules, per-cloth buffers and contact
    /// lists.
    pub cloth: usize,
    /// Pre-fractured objects, explosives and live blasts.
    pub other: usize,
}

impl HeapBytes {
    /// Every component with its gauge suffix, in declaration order.
    pub fn components(&self) -> [(&'static str, usize); 12] {
        [
            ("bodies", self.bodies),
            ("geoms", self.geoms),
            ("joints", self.joints),
            ("broadphase", self.broadphase),
            ("grid_in_use", self.grid_in_use),
            ("grid_free", self.grid_free),
            ("island_graph", self.island_graph),
            ("contact_cache", self.contact_cache),
            ("sleep", self.sleep),
            ("coast_cache", self.coast_cache),
            ("cloth", self.cloth),
            ("other", self.other),
        ]
    }

    /// The sum of the components.
    pub fn total(&self) -> usize {
        self.components().iter().map(|&(_, b)| b).sum()
    }
}

/// Heap bytes of a vector's buffer.
#[inline]
pub(crate) fn vec_bytes<T>(v: &Vec<T>) -> usize {
    v.capacity() * size_of::<T>()
}

/// Heap bytes of a hash map's table (not of what its values own): a
/// SwissTable of `buckets` slots carries one control byte per slot plus a
/// trailing group of 16.
pub(crate) fn map_bytes<K, V>(m: &HashMap<K, V>) -> usize {
    let cap = m.capacity();
    if cap == 0 {
        return 0;
    }
    let buckets = if cap < 8 {
        (cap + 1).next_power_of_two()
    } else {
        (cap * 8 / 7).next_power_of_two()
    };
    buckets * (size_of::<(K, V)>() + 1) + 16
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn buffers_are_charged_their_capacity() {
        let mut v: Vec<u64> = Vec::with_capacity(10);
        v.push(1);
        assert_eq!(vec_bytes(&v), 80);
        let mut m: HashMap<u32, u32> = HashMap::new();
        assert_eq!(map_bytes(&m), 0);
        m.insert(1, 2);
        // Three usable slots in four buckets of eight bytes and a control
        // byte each, plus the trailing group.
        assert_eq!(m.capacity(), 3);
        assert_eq!(map_bytes(&m), 4 * 9 + 16);
    }

    #[test]
    fn total_sums_every_component() {
        let h = HeapBytes {
            bodies: 1,
            grid_free: 2,
            other: 4,
            ..Default::default()
        };
        assert_eq!(h.total(), 7);
        assert_eq!(h.components().len(), 12);
    }
}
