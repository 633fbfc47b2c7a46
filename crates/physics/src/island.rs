//! Island creation: connected components of interacting bodies.
//!
//! This is the second *serial* phase of the pipeline (paper §3.2): "the
//! full topology of the contacts isn't known until the last pair is
//! examined by the algorithm, and only then can the constraint solvers
//! begin." A union-find over the joint/contact edges produces the islands;
//! static bodies do not merge islands (they act as anchors, like ODE).

use crate::store::BodyStore;

/// Bit set in a body's island lane when the body belongs to a *sleeping*
/// island: the low 31 bits then index the world's sleeping-island table
/// (see `crate::sleep`) instead of this step's island arena. `u32::MAX`
/// still means "no island" (it has the bit set, so always test the flag
/// or compare against `u32::MAX` first).
pub const SLEEP_SLOT_BIT: u32 = 0x8000_0000;

/// A single island: the bodies, joints and contact manifolds that must be
/// solved together.
#[derive(Debug, Default, Clone)]
pub struct Island {
    /// Indices into the world's body array.
    pub bodies: Vec<u32>,
    /// Indices into the world's joint array.
    pub joints: Vec<u32>,
    /// Indices into this step's manifold array.
    pub manifolds: Vec<u32>,
    /// Total degrees of freedom removed by the island's constraints
    /// (the paper's work-queue filter: islands with more than 25 DOF
    /// removed go to worker threads).
    pub dof_removed: usize,
}

impl Island {
    /// Empties the island while keeping its buffers' capacity, so island
    /// arenas can be reused across steps.
    pub fn clear(&mut self) {
        self.bodies.clear();
        self.joints.clear();
        self.manifolds.clear();
        self.dof_removed = 0;
    }
}

/// Statistics from island creation, consumed by the trace layer.
#[derive(Debug, Default, Clone, Copy, PartialEq, Eq)]
pub struct IslandStats {
    /// Bodies scanned.
    pub bodies: usize,
    /// Union operations performed.
    pub union_ops: usize,
    /// Find operations performed.
    pub find_ops: usize,
    /// Islands produced.
    pub islands: usize,
}

/// An edge connecting two bodies: either a permanent joint or a contact
/// manifold produced this step.
#[derive(Debug, Clone, Copy)]
pub struct ConstraintEdge {
    /// Index of body A in the world body array.
    pub body_a: u32,
    /// Index of body B, or `u32::MAX` when the edge anchors to the static
    /// environment.
    pub body_b: u32,
    /// Index of the joint (`kind == EdgeKind::Joint`) or manifold.
    pub index: u32,
    /// What the edge refers to.
    pub kind: EdgeKind,
    /// Degrees of freedom this edge's constraint removes.
    pub dof: usize,
}

/// Whether a [`ConstraintEdge`] refers to a joint or a contact manifold.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum EdgeKind {
    /// Permanent joint.
    Joint,
    /// Contact manifold from this step.
    Contact,
}

/// Persistent, incremental island builder.
///
/// Keeps the union-find forest and scratch lists alive across steps and
/// only visits bodies that appear in this step's constraint edges plus
/// the bodies it assigned slots to last step, so a settled world where
/// most bodies sleep pays O(awake + edges) per step instead of
/// O(bodies + edges). Sleeping bodies are never touched: their island
/// lane keeps the frozen [`SLEEP_SLOT_BIT`] encoding.
///
/// Produces bit-identical islands, slots and stats ordering to the
/// from-scratch builder (kept in the tests) when no body sleeps: slots
/// are assigned in ascending order of each component's lowest body
/// index, exactly like the from-scratch builder's `0..n` scan.
#[derive(Debug, Default)]
pub struct IslandGraph {
    /// Union-find parent, lazily re-initialised per epoch.
    parent: Vec<u32>,
    /// Epoch stamp per body; `stamp[i] == epoch` means `parent[i]` is valid.
    stamp: Vec<u32>,
    epoch: u32,
    /// Bodies touched by this build (stamped), sorted before slot assignment.
    touched: Vec<u32>,
    /// Bodies assigned an awake island slot by the previous build; their
    /// lanes are the only ones that need resetting next build.
    last_awake: Vec<u32>,
    /// When set (new graph, or world restored from a snapshot), the next
    /// build clears every awake body's island lane instead of trusting
    /// `last_awake`.
    full_reset: bool,
    finds: usize,
    unions: usize,
}

impl IslandGraph {
    /// Creates an empty graph; the first build performs a full lane reset.
    pub fn new() -> Self {
        IslandGraph {
            full_reset: true,
            ..Default::default()
        }
    }

    /// Heap bytes of the forest and the body lists.
    pub(crate) fn heap_bytes(&self) -> usize {
        use crate::heap::vec_bytes;
        vec_bytes(&self.parent)
            + vec_bytes(&self.stamp)
            + vec_bytes(&self.touched)
            + vec_bytes(&self.last_awake)
    }

    /// Requests a full island-lane reset on the next build. Call after
    /// restoring body state from a snapshot, when `last_awake` no longer
    /// matches the lanes actually stored.
    pub fn invalidate(&mut self) {
        self.full_reset = true;
    }

    #[inline]
    fn touch(&mut self, i: u32) {
        if self.stamp[i as usize] != self.epoch {
            self.stamp[i as usize] = self.epoch;
            self.parent[i as usize] = i;
            self.touched.push(i);
        }
    }

    #[inline]
    fn find(&mut self, x: u32) -> u32 {
        self.finds += 1;
        let mut x = x;
        while self.parent[x as usize] != x {
            let gp = self.parent[self.parent[x as usize] as usize];
            self.parent[x as usize] = gp;
            x = gp;
        }
        x
    }

    #[inline]
    fn union(&mut self, a: u32, b: u32) {
        let ra = self.find(a);
        let rb = self.find(b);
        self.unions += 1;
        if ra != rb {
            self.parent[ra.max(rb) as usize] = ra.min(rb);
        }
    }

    /// Incremental equivalent of the from-scratch builder: builds the awake
    /// islands for this step, leaving sleeping bodies' lanes untouched.
    pub fn build(
        &mut self,
        bodies: &mut BodyStore,
        edges: &[ConstraintEdge],
        out: &mut Vec<Island>,
    ) -> IslandStats {
        for island in out.iter_mut() {
            island.clear();
        }
        let n = bodies.len();
        self.parent.resize(n, 0);
        self.stamp.resize(n, 0);
        self.finds = 0;
        self.unions = 0;

        // Reset only the lanes the previous build assigned (bodies that
        // went to sleep since keep their frozen sleeping-slot lane).
        if self.full_reset {
            self.full_reset = false;
            for i in 0..n {
                if !bodies.is_sleeping(i) {
                    bodies.set_island(i, u32::MAX);
                }
            }
        } else {
            for k in 0..self.last_awake.len() {
                let b = self.last_awake[k] as usize;
                if !bodies.is_sleeping(b) {
                    bodies.set_island(b, u32::MAX);
                }
            }
        }
        self.last_awake.clear();

        // Epoch bump; on wrap, clear stamps once so stale stamps can't alias.
        self.epoch = self.epoch.wrapping_add(1);
        if self.epoch == 0 {
            self.stamp.iter_mut().for_each(|s| *s = 0);
            self.epoch = 1;
        }
        self.touched.clear();

        let awake = |bodies: &BodyStore, i: usize| bodies.is_movable(i) && !bodies.is_sleeping(i);

        // Touch + union pass over this step's edges. Only dynamic-dynamic
        // edges merge components; static/world anchors only mark their
        // movable endpoint as touched.
        for e in edges {
            let a_awake = awake(bodies, e.body_a as usize);
            if a_awake {
                self.touch(e.body_a);
            }
            if e.body_b != u32::MAX && awake(bodies, e.body_b as usize) {
                self.touch(e.body_b);
                if a_awake {
                    self.union(e.body_a, e.body_b);
                }
            }
        }

        // Slot assignment in ascending body order (first-encounter per
        // root), matching the from-scratch builder's `0..n` scan. A union
        // hangs the larger root under the smaller, so a component's root
        // is its lowest body: the scan meets it first, opens the slot, and
        // every later member reads the slot off the root's lane.
        self.touched.sort_unstable();
        let mut used = 0usize;
        for k in 0..self.touched.len() {
            let bi = self.touched[k];
            let root = self.find(bi);
            let slot = if root == bi {
                if used == out.len() {
                    out.push(Island::default());
                }
                used += 1;
                (used - 1) as u32
            } else {
                debug_assert!(root < bi, "a root is its component's lowest body");
                bodies.island_raw(root as usize)
            };
            bodies.set_island(bi as usize, slot);
            out[slot as usize].bodies.push(bi);
            self.last_awake.push(bi);
        }
        out.truncate(used);

        // Attach edges to their owner island.
        for e in edges {
            let owner = if awake(bodies, e.body_a as usize) {
                bodies.island(e.body_a as usize)
            } else if e.body_b != u32::MAX && awake(bodies, e.body_b as usize) {
                bodies.island(e.body_b as usize)
            } else {
                None
            };
            let Some(owner) = owner else {
                continue;
            };
            let island = &mut out[owner as usize];
            match e.kind {
                EdgeKind::Joint => island.joints.push(e.index),
                EdgeKind::Contact => island.manifolds.push(e.index),
            }
            island.dof_removed += e.dof;
        }

        IslandStats {
            bodies: n,
            union_ops: self.unions,
            find_ops: self.finds,
            islands: out.len(),
        }
    }
}

/// The from-scratch island builder: a fresh union-find over every body
/// on every call. Kept as the oracle the incremental [`IslandGraph`] is
/// held to.
#[cfg(test)]
mod reference {
    use super::*;

    /// Union-find with path halving.
    #[derive(Debug)]
    pub(super) struct UnionFind {
        parent: Vec<u32>,
        finds: usize,
        unions: usize,
    }

    impl UnionFind {
        /// Creates a forest of `n` singletons.
        pub(super) fn new(n: usize) -> Self {
            UnionFind {
                parent: (0..n as u32).collect(),
                finds: 0,
                unions: 0,
            }
        }

        /// Finds the representative of `x` with path halving.
        pub(super) fn find(&mut self, x: u32) -> u32 {
            self.finds += 1;
            let mut x = x;
            while self.parent[x as usize] != x {
                let gp = self.parent[self.parent[x as usize] as usize];
                self.parent[x as usize] = gp;
                x = gp;
            }
            x
        }

        /// Unions the sets containing `a` and `b`; returns `true` if they were
        /// previously disjoint.
        pub(super) fn union(&mut self, a: u32, b: u32) -> bool {
            let ra = self.find(a);
            let rb = self.find(b);
            self.unions += 1;
            if ra == rb {
                return false;
            }
            self.parent[ra.max(rb) as usize] = ra.min(rb);
            true
        }
    }

    /// Builds islands from the constraint edges.
    ///
    /// `bodies` is the world body store (used to skip static/disabled bodies).
    /// Bodies' `island` fields are updated in place. Bodies with no edges do
    /// not form islands (they are integrated unconstrained).
    pub(super) fn build_islands(
        bodies: &mut BodyStore,
        edges: &[ConstraintEdge],
    ) -> (Vec<Island>, IslandStats) {
        let mut islands = Vec::new();
        let stats = build_islands_into(bodies, edges, &mut islands);
        (islands, stats)
    }

    /// [`build_islands`] writing into a caller-owned arena: existing `Island`
    /// entries in `out` are cleared and refilled in place, so their inner
    /// buffers are reused step over step.
    pub(super) fn build_islands_into(
        bodies: &mut BodyStore,
        edges: &[ConstraintEdge],
        out: &mut Vec<Island>,
    ) -> IslandStats {
        for island in out.iter_mut() {
            island.clear();
        }
        let mut used = 0usize;
        let n = bodies.len();
        let mut uf = UnionFind::new(n);
        let mut stats = IslandStats {
            bodies: n,
            ..Default::default()
        };

        // Union pass: only dynamic-dynamic edges merge components.
        for e in edges {
            if e.body_b == u32::MAX {
                continue;
            }
            let (a, b) = (e.body_a as usize, e.body_b as usize);
            if bodies.is_movable(a) && bodies.is_movable(b) {
                uf.union(e.body_a, e.body_b);
            }
        }

        // Assign island slots by representative.
        let mut slot_of_root: std::collections::HashMap<u32, u32> =
            std::collections::HashMap::new();
        for i in 0..n {
            bodies.set_island(i, u32::MAX);
        }

        // Touch flag: a body belongs to an island only if it participates in at
        // least one edge (directly or transitively).
        let mut touched = vec![false; n];
        for e in edges {
            if bodies.is_movable(e.body_a as usize) {
                touched[e.body_a as usize] = true;
            }
            if e.body_b != u32::MAX && bodies.is_movable(e.body_b as usize) {
                touched[e.body_b as usize] = true;
            }
        }

        for (i, &is_touched) in touched.iter().enumerate() {
            if !is_touched || !bodies.is_movable(i) {
                continue;
            }
            let root = uf.find(i as u32);
            let slot = *slot_of_root.entry(root).or_insert_with(|| {
                if used == out.len() {
                    out.push(Island::default());
                }
                used += 1;
                (used - 1) as u32
            });
            bodies.set_island(i, slot);
            out[slot as usize].bodies.push(i as u32);
        }
        out.truncate(used);

        // Attach edges to islands.
        for e in edges {
            let owner = if bodies.is_movable(e.body_a as usize) {
                bodies.island(e.body_a as usize)
            } else if e.body_b != u32::MAX && bodies.is_movable(e.body_b as usize) {
                bodies.island(e.body_b as usize)
            } else {
                None
            };
            let Some(owner) = owner else {
                continue;
            };
            let island = &mut out[owner as usize];
            match e.kind {
                EdgeKind::Joint => island.joints.push(e.index),
                EdgeKind::Contact => island.manifolds.push(e.index),
            }
            island.dof_removed += e.dof;
        }

        stats.union_ops = uf.unions;
        stats.find_ops = uf.finds;
        stats.islands = out.len();
        stats
    }
}

#[cfg(test)]
mod tests {
    use super::reference::*;
    use super::*;
    use crate::body::{BodyDesc, BodyFlags};
    use crate::shape::Shape;
    use parallax_math::Vec3;

    fn dynamic_bodies(n: usize) -> BodyStore {
        let mut store = BodyStore::default();
        for i in 0..n {
            store.push(
                &BodyDesc::dynamic(Vec3::new(i as f32, 0.0, 0.0))
                    .with_shape(Shape::sphere(0.4), 1.0),
            );
        }
        store
    }

    fn replace_with_static(store: &mut BodyStore, i: usize) {
        // Turn an existing dynamic slot into an anchor: flag it static and
        // wipe its mass so `is_movable` rejects it the same way `push`ing a
        // fixed BodyDesc would.
        store.flags_mut(i).insert(BodyFlags::STATIC);
    }

    fn edge(a: u32, b: u32) -> ConstraintEdge {
        ConstraintEdge {
            body_a: a,
            body_b: b,
            index: 0,
            kind: EdgeKind::Contact,
            dof: 3,
        }
    }

    #[test]
    fn unconnected_bodies_form_no_islands() {
        let mut bodies = dynamic_bodies(4);
        let (islands, stats) = build_islands(&mut bodies, &[]);
        assert!(islands.is_empty());
        assert_eq!(stats.islands, 0);
        assert!((0..bodies.len()).all(|i| bodies.island(i).is_none()));
    }

    #[test]
    fn chain_merges_into_one_island() {
        let mut bodies = dynamic_bodies(5);
        let edges = [edge(0, 1), edge(1, 2), edge(2, 3), edge(3, 4)];
        let (islands, _) = build_islands(&mut bodies, &edges);
        assert_eq!(islands.len(), 1);
        assert_eq!(islands[0].bodies.len(), 5);
        assert_eq!(islands[0].manifolds.len(), 4);
        assert_eq!(islands[0].dof_removed, 12);
    }

    #[test]
    fn two_separate_clusters() {
        let mut bodies = dynamic_bodies(6);
        let edges = [edge(0, 1), edge(1, 2), edge(3, 4), edge(4, 5)];
        let (islands, _) = build_islands(&mut bodies, &edges);
        assert_eq!(islands.len(), 2);
        let sizes: Vec<usize> = islands.iter().map(|i| i.bodies.len()).collect();
        assert_eq!(sizes, vec![3, 3]);
    }

    #[test]
    fn static_anchor_does_not_merge() {
        // Bodies 0 and 2 both touch static body 1; they must remain in
        // separate islands (ODE semantics).
        let mut bodies = dynamic_bodies(3);
        replace_with_static(&mut bodies, 1);
        let edges = [edge(0, 1), edge(2, 1)];
        let (islands, _) = build_islands(&mut bodies, &edges);
        assert_eq!(islands.len(), 2);
        // Each island carries its own contact edge.
        assert_eq!(islands[0].manifolds.len(), 1);
        assert_eq!(islands[1].manifolds.len(), 1);
    }

    #[test]
    fn world_anchored_edge_joins_island() {
        let mut bodies = dynamic_bodies(2);
        let edges = [edge(0, 1), edge(0, u32::MAX)];
        let (islands, _) = build_islands(&mut bodies, &edges);
        assert_eq!(islands.len(), 1);
        assert_eq!(islands[0].manifolds.len(), 2);
    }

    #[test]
    fn disabled_bodies_are_skipped() {
        let mut bodies = dynamic_bodies(3);
        bodies.flags_mut(1).insert(BodyFlags::DISABLED);
        let edges = [edge(0, 1), edge(1, 2)];
        let (islands, _) = build_islands(&mut bodies, &edges);
        // Body 1 is disabled: 0 and 2 stay separate... but the edges still
        // anchor each remaining body.
        assert_eq!(islands.len(), 2);
    }

    #[test]
    fn incremental_graph_matches_full_rebuild() {
        // Same edge sets, several steps in a row (changing topology), must
        // give bit-identical islands and lanes to the from-scratch builder.
        let steps: Vec<Vec<ConstraintEdge>> = vec![
            vec![edge(0, 1), edge(1, 2), edge(4, 5)],
            vec![edge(0, 1), edge(4, 5), edge(5, 6)],
            vec![edge(2, 3), edge(0, u32::MAX)],
            vec![],
            vec![edge(6, 7), edge(0, 7), edge(3, 4)],
        ];
        let mut a = dynamic_bodies(8);
        let mut b = dynamic_bodies(8);
        replace_with_static(&mut a, 2);
        replace_with_static(&mut b, 2);
        let mut graph = IslandGraph::new();
        let mut inc_out = Vec::new();
        for edges in &steps {
            let inc_stats = graph.build(&mut a, edges, &mut inc_out);
            let mut full_out = Vec::new();
            let full_stats = build_islands_into(&mut b, edges, &mut full_out);
            assert_eq!(inc_out.len(), full_out.len());
            assert_eq!(inc_stats.islands, full_stats.islands);
            for (x, y) in inc_out.iter().zip(full_out.iter()) {
                assert_eq!(x.bodies, y.bodies);
                assert_eq!(x.joints, y.joints);
                assert_eq!(x.manifolds, y.manifolds);
                assert_eq!(x.dof_removed, y.dof_removed);
            }
            for i in 0..a.len() {
                assert_eq!(a.island(i), b.island(i), "lane mismatch at body {i}");
            }
        }
    }

    #[test]
    fn incremental_graph_skips_sleeping_bodies() {
        let mut bodies = dynamic_bodies(6);
        let mut graph = IslandGraph::new();
        let mut out = Vec::new();
        graph.build(&mut bodies, &[edge(0, 1), edge(3, 4)], &mut out);
        assert_eq!(out.len(), 2);

        // Put the {3, 4} island to sleep: flag + frozen sleeping lane.
        for i in [3usize, 4] {
            bodies.flags_mut(i).insert(BodyFlags::SLEEPING);
            bodies.set_island(i, SLEEP_SLOT_BIT);
        }
        graph.build(&mut bodies, &[edge(0, 1)], &mut out);
        assert_eq!(out.len(), 1);
        assert_eq!(out[0].bodies, vec![0, 1]);
        // Sleeping lanes untouched by the rebuild.
        assert_eq!(bodies.island_raw(3), SLEEP_SLOT_BIT);
        assert_eq!(bodies.island_raw(4), SLEEP_SLOT_BIT);

        // An edge naming a sleeping body must not drag it into an island.
        graph.build(&mut bodies, &[edge(0, 1), edge(1, 3)], &mut out);
        assert_eq!(out.len(), 1);
        assert_eq!(out[0].bodies, vec![0, 1]);
        assert_eq!(bodies.island_raw(3), SLEEP_SLOT_BIT);

        // After waking, the graph picks the bodies back up.
        for i in [3usize, 4] {
            bodies.flags_mut(i).remove(BodyFlags::SLEEPING);
            bodies.set_island(i, u32::MAX);
        }
        graph.build(&mut bodies, &[edge(3, 4)], &mut out);
        assert_eq!(out.len(), 1);
        assert_eq!(out[0].bodies, vec![3, 4]);
        assert!(bodies.island(0).is_none());
    }

    #[test]
    fn union_find_path_halving_correctness() {
        let mut uf = UnionFind::new(10);
        uf.union(0, 1);
        uf.union(2, 3);
        uf.union(1, 3);
        assert_eq!(uf.find(0), uf.find(2));
        assert_ne!(uf.find(0), uf.find(5));
        // Re-union of same set returns false.
        assert!(!uf.union(0, 3));
    }
}
