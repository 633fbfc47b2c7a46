//! Conversion of [`StepProfile`]s into per-phase instruction and memory
//! traces.

use std::ops::Range;

use parallax_physics::probe::{ClothWork, IslandWork, PairWork};
use parallax_physics::{PhaseKind, StepProfile};

use crate::kernels::KernelModel;
use crate::memmap::{self, Region};
use crate::opmix::OpCounts;

/// Telemetry counters for trace generation: how many synthetic
/// instructions and memory references the profiles expand into.
struct TraceMetrics {
    steps: parallax_telemetry::Counter,
    tasks: parallax_telemetry::Counter,
    instructions: parallax_telemetry::Counter,
    mem_refs: parallax_telemetry::Counter,
}

impl TraceMetrics {
    fn record(&self, t: &StepTrace) {
        self.steps.add(1);
        self.tasks
            .add(t.phases.iter().map(|p| p.tasks.len() as u64).sum());
        self.instructions.add(t.total_instructions());
        self.mem_refs.add(t.total_mem_refs() as u64);
    }
}

fn trace_metrics() -> &'static TraceMetrics {
    static M: std::sync::OnceLock<TraceMetrics> = std::sync::OnceLock::new();
    M.get_or_init(|| TraceMetrics {
        steps: parallax_telemetry::counter("trace.steps"),
        tasks: parallax_telemetry::counter("trace.tasks"),
        instructions: parallax_telemetry::counter("trace.instructions"),
        mem_refs: parallax_telemetry::counter("trace.mem_refs"),
    })
}

/// One task's workload: instruction counts plus the cache lines it touches.
///
/// The line addresses live in the owning [`StepTrace`]'s arena; read them
/// through [`StepTrace::reads`] and [`StepTrace::writes`].
#[derive(Debug, Default, Clone)]
pub struct TaskTrace {
    /// Instruction counts by class.
    pub ops: OpCounts,
    /// Number of fine-grain subtasks this task decomposes into (1 for
    /// serial tasks; pairs=1 each; DOF for islands; vertices for cloth).
    pub fg_subtasks: usize,
    /// Arena range of the lines read (in program order, duplicates
    /// allowed).
    reads: Range<u32>,
    /// Arena range of the lines written.
    writes: Range<u32>,
}

impl TaskTrace {
    /// A single-subtask workload that touches no memory (FG-resident data,
    /// compute-bound studies).
    pub fn compute_only(ops: OpCounts) -> TaskTrace {
        TaskTrace {
            ops,
            fg_subtasks: 1,
            ..TaskTrace::default()
        }
    }

    /// Total memory references.
    pub fn mem_refs(&self) -> usize {
        self.reads.len() + self.writes.len()
    }
}

/// All tasks of one phase in one step.
#[derive(Debug, Clone)]
pub struct PhaseTrace {
    /// Which phase.
    pub phase: PhaseKind,
    /// The tasks, in creation order. Serial phases have exactly one task.
    pub tasks: Vec<TaskTrace>,
}

impl PhaseTrace {
    /// Total instructions across tasks.
    pub fn instructions(&self) -> u64 {
        self.tasks.iter().map(|t| t.ops.total()).sum()
    }

    /// Aggregate op counts.
    pub fn ops(&self) -> OpCounts {
        self.tasks.iter().map(|t| t.ops).sum()
    }

    /// Total fine-grain subtasks.
    pub fn fg_subtasks(&self) -> usize {
        self.tasks.iter().map(|t| t.fg_subtasks).sum()
    }
}

/// The unit of profiled work behind one parallel-phase task.
#[derive(Debug, Clone, Copy)]
pub enum ParallelWork<'a> {
    /// A narrow-phase pair (active or rejected).
    Pair(&'a PairWork),
    /// An island solve.
    Island(&'a IslandWork),
    /// A cloth object's update.
    Cloth(&'a ClothWork),
}

impl ParallelWork<'_> {
    /// Instructions of the whole kernel for this unit: what a core that
    /// executes the task itself runs.
    pub fn kernel_ops(self) -> OpCounts {
        match self {
            // Considered-only pair: a cheap near-callback rejection.
            ParallelWork::Pair(pair) if !pair.active => KernelModel::pair_reject(),
            ParallelWork::Pair(pair) => {
                KernelModel::narrowphase_pair(pair.shape_a, pair.shape_b, pair.contacts as usize)
            }
            ParallelWork::Island(island) => {
                KernelModel::island_solver(island.rows, island.iterations, island.bodies.len())
            }
            ParallelWork::Cloth(cw) => {
                let s = &cw.stats;
                KernelModel::cloth(s.vertices, s.projections, s.collision_tests)
            }
        }
    }
}

/// The full trace of one simulation step: five phases in pipeline order,
/// and every line address they reference in one arena.
#[derive(Debug, Clone)]
pub struct StepTrace {
    /// Per-phase traces, ordered as [`PhaseKind::ALL`].
    pub phases: [PhaseTrace; 5],
    /// Line addresses of every task, in phase and task order, each task's
    /// reads before its writes.
    lines: Vec<u64>,
}

impl StepTrace {
    /// Builds the trace for one step from its work profile; every task
    /// executes its whole kernel.
    pub fn from_profile(p: &StepProfile) -> StepTrace {
        StepTrace::from_profile_with(p, |work| work.kernel_ops())
    }

    /// Builds the trace with the same memory references as
    /// [`StepTrace::from_profile`] but with `parallel_ops` deciding what
    /// each parallel-phase task executes (a CG core that only packs and
    /// dispatches the work still touches the data).
    pub fn from_profile_with(
        p: &StepProfile,
        mut parallel_ops: impl FnMut(ParallelWork<'_>) -> OpCounts,
    ) -> StepTrace {
        let mut lines = Vec::with_capacity(reference_bound(p));
        let phases = [
            broadphase_trace(p, &mut lines),
            narrowphase_trace(p, &mut lines, &mut parallel_ops),
            island_creation_trace(p, &mut lines),
            island_processing_trace(p, &mut lines, &mut parallel_ops),
            cloth_trace(p, &mut lines, &mut parallel_ops),
        ];
        // Both cache levels and the sharing model key by line.
        debug_assert!(lines.iter().all(|a| a % memmap::LINE == 0));
        let t = StepTrace { phases, lines };
        if parallax_telemetry::enabled() {
            trace_metrics().record(&t);
        }
        t
    }

    /// The trace of one phase.
    pub fn phase(&self, phase: PhaseKind) -> &PhaseTrace {
        &self.phases[phase as usize]
    }

    /// Cache-line addresses `task` (one of this trace's) reads.
    pub fn reads(&self, task: &TaskTrace) -> &[u64] {
        &self.lines[task.reads.start as usize..task.reads.end as usize]
    }

    /// Cache-line addresses `task` (one of this trace's) writes.
    pub fn writes(&self, task: &TaskTrace) -> &[u64] {
        &self.lines[task.writes.start as usize..task.writes.end as usize]
    }

    /// Total instructions in the step.
    pub fn total_instructions(&self) -> u64 {
        self.phases.iter().map(|p| p.instructions()).sum()
    }

    /// Total memory references in the step.
    pub fn total_mem_refs(&self) -> usize {
        self.lines.len()
    }
}

/// Upper bound on the step's memory references, from the profile's counts
/// (a record of `b` bytes spans at most `b / 64 + 2` lines).
fn reference_bound(p: &StepProfile) -> usize {
    const OBJECT: usize = 8;
    const GEOM: usize = 3;
    const JOINT: usize = 4;
    const CONTACT: usize = 4;
    let bp = &p.broadphase;
    let broadphase = bp.geoms * GEOM + bp.sort_ops * 2 + bp.overlap_tests + bp.pairs;
    let narrowphase = p.pairs.len() * (2 * GEOM + 2 * OBJECT + CONTACT);
    let island_creation =
        p.island_creation.bodies * (OBJECT + 2) + p.joint_count * JOINT + p.pairs.len() * CONTACT;
    let island_processing: usize = p
        .islands
        .iter()
        .map(|i| {
            i.bodies.len() * (OBJECT + 2)
                + i.joints.len() * JOINT
                + i.manifolds * CONTACT
                + i.rows * 96 / 64
                + 2
        })
        .sum();
    let cloth: usize = p
        .cloths
        .iter()
        .map(|c| c.stats.vertices * 4 + c.stats.projections / 8 * 12 / 64 + 2 + c.colliders * GEOM)
        .sum();
    broadphase + narrowphase + island_creation + island_processing + cloth
}

/// Current end of the arena as a task-range bound.
fn mark(lines: &[u64]) -> u32 {
    u32::try_from(lines.len()).expect("a step references fewer than 2^32 lines")
}

/// Closes a task whose reads start at `start`, whose writes start at
/// `split`, and whose last reference is the arena's last.
fn task(ops: OpCounts, fg_subtasks: usize, start: u32, split: u32, lines: &[u64]) -> TaskTrace {
    TaskTrace {
        ops,
        fg_subtasks,
        reads: start..split,
        writes: split..mark(lines),
    }
}

fn broadphase_trace(p: &StepProfile, lines: &mut Vec<u64>) -> PhaseTrace {
    let bp = &p.broadphase;
    // Broad-phase updates a spatial hash each step: every geom's AABB is
    // recomputed from its object's pose (object + geom reads) and inserted
    // into hash cells at scattered addresses. The hash occupies
    // ~256 B/geom, so large scenes carry a multi-megabyte broad-phase
    // working set — the source of the paper's serial-phase L2 demand.
    // Broad-phase works on geom (shape) data only — the paper notes there
    // is little sharing with Island Creation's object/joint data.
    let hash_span_lines = ((bp.geoms as u64 * 256).max(2 * 1024 * 1024)) / memmap::LINE;
    let start = mark(lines);
    for g in 0..bp.geoms as u64 {
        memmap::geom_lines(lines, g);
    }
    // Cell insertions: read-modify-write of a pseudorandom hash line.
    let cells = lines.len();
    for i in 0..bp.sort_ops as u64 {
        let h = i.wrapping_mul(0x9E37_79B9_7F4A_7C15) % hash_span_lines;
        lines.push(Region::SortAxis.base() + h * memmap::LINE);
    }
    let cells = cells..lines.len();
    // Overlap tests read cached AABB entries from the compact cell-member
    // arrays (16 B each) — a small, mostly cache-resident footprint.
    for i in 0..bp.overlap_tests as u64 {
        let g = i.wrapping_mul(0x2545_F491_4F6C_DD1D) % (bp.geoms.max(1) as u64);
        memmap::push_lines(
            lines,
            memmap::entity_addr(Region::PairBuffer, g, memmap::SORT_ENTRY_BYTES),
            8,
        );
    }
    let split = mark(lines);
    lines.extend_from_within(cells);
    for k in 0..bp.pairs as u64 {
        memmap::push_lines(lines, memmap::entity_addr(Region::PairBuffer, k, 8), 8);
    }
    let ops = KernelModel::broadphase(bp.geoms, bp.sort_ops, bp.overlap_tests);
    PhaseTrace {
        phase: PhaseKind::Broadphase,
        tasks: vec![task(ops, 1, start, split, lines)],
    }
}

fn narrowphase_trace(
    p: &StepProfile,
    lines: &mut Vec<u64>,
    ops: &mut impl FnMut(ParallelWork<'_>) -> OpCounts,
) -> PhaseTrace {
    let tasks = p
        .pairs
        .iter()
        .enumerate()
        .map(|(k, pair)| {
            // Each pair reads both geoms and both owning objects (a
            // rejected pair stops there)...
            let start = mark(lines);
            memmap::geom_lines(lines, pair.geom_a as u64);
            memmap::geom_lines(lines, pair.geom_b as u64);
            for b in [pair.body_a, pair.body_b] {
                if b != u32::MAX {
                    memmap::object_lines(lines, b as u64);
                }
            }
            // ...and writes the created contact joints.
            let split = mark(lines);
            if pair.active && pair.contacts > 0 {
                memmap::contact_lines(lines, k as u64);
            }
            task(ops(ParallelWork::Pair(pair)), 1, start, split, lines)
        })
        .collect();
    PhaseTrace {
        phase: PhaseKind::Narrowphase,
        tasks,
    }
}

fn island_creation_trace(p: &StepProfile, lines: &mut Vec<u64>) -> PhaseTrace {
    let ic = &p.island_creation;
    // The serial scan walks the object list and the joint/contact edges
    // (the paper: Island Creation uses object and joint data).
    let start = mark(lines);
    for b in 0..ic.bodies as u64 {
        memmap::object_lines(lines, b);
    }
    for j in 0..p.joint_count as u64 {
        memmap::joint_lines(lines, j);
    }
    for (k, pair) in p.pairs.iter().enumerate() {
        if pair.contacts > 0 {
            memmap::contact_lines(lines, k as u64);
        }
    }
    // Island assignment write-back (one field per object).
    let split = mark(lines);
    for b in 0..ic.bodies as u64 {
        memmap::push_lines(
            lines,
            memmap::entity_addr(Region::Objects, b, memmap::OBJECT_BYTES),
            8,
        );
    }
    let ops = KernelModel::island_creation(ic.bodies, ic.union_ops, ic.find_ops);
    PhaseTrace {
        phase: PhaseKind::IslandCreation,
        tasks: vec![task(ops, 1, start, split, lines)],
    }
}

fn island_processing_trace(
    p: &StepProfile,
    lines: &mut Vec<u64>,
    ops: &mut impl FnMut(ParallelWork<'_>) -> OpCounts,
) -> PhaseTrace {
    // Map from manifold ordinal to pair index for contact addresses: the
    // profile stores islands with manifold *counts*, so approximate by
    // attributing contact lines round-robin over contact-producing pairs.
    let mut contact_pairs = p
        .pairs
        .iter()
        .enumerate()
        .filter(|(_, pw)| pw.contacts > 0)
        .map(|(k, _)| k as u64);

    let tasks = p
        .islands
        .iter()
        .map(|island| {
            let start = mark(lines);
            for &b in &island.bodies {
                memmap::object_lines(lines, b as u64);
            }
            for &j in &island.joints {
                memmap::joint_lines(lines, j as u64);
            }
            for pair in contact_pairs.by_ref().take(island.manifolds) {
                memmap::contact_lines(lines, pair);
            }
            // Solver scratch (rows) — grows with island size.
            let scratch_bytes = island.rows as u64 * 96;
            memmap::push_lines(
                lines,
                Region::SolverScratch.base(),
                scratch_bytes.min(0x0400_0000),
            );
            // Velocity write-back.
            let split = mark(lines);
            for &b in &island.bodies {
                memmap::push_lines(
                    lines,
                    memmap::entity_addr(Region::Objects, b as u64, memmap::OBJECT_BYTES) + 64,
                    48,
                );
            }
            task(
                ops(ParallelWork::Island(island)),
                island.dof_removed.max(1),
                start,
                split,
                lines,
            )
        })
        .collect();
    PhaseTrace {
        phase: PhaseKind::IslandProcessing,
        tasks,
    }
}

fn cloth_trace(
    p: &StepProfile,
    lines: &mut Vec<u64>,
    ops: &mut impl FnMut(ParallelWork<'_>) -> OpCounts,
) -> PhaseTrace {
    let tasks = p
        .cloths
        .iter()
        .map(|cw| {
            let s = &cw.stats;
            let start = mark(lines);
            for v in 0..s.vertices as u64 {
                memmap::cloth_vertex_lines(lines, cw.cloth as u64, v);
            }
            let vertices = start as usize..lines.len();
            // Constraint table reads (12 B per projection, but unique
            // constraints only: projections / iterations ≈ constraints).
            let constraints = (s.projections / 8).max(1) as u64;
            memmap::push_lines(
                lines,
                Region::ClothConstraints.base() + cw.cloth as u64 * 0x10_0000,
                constraints * 12,
            );
            // Collider snapshots.
            for c in 0..cw.colliders as u64 {
                memmap::push_lines(
                    lines,
                    memmap::entity_addr(Region::Geoms, c, memmap::GEOM_BYTES),
                    memmap::GEOM_BYTES,
                );
            }
            // Every vertex read is written back.
            let split = mark(lines);
            lines.extend_from_within(vertices);
            task(
                ops(ParallelWork::Cloth(cw)),
                s.vertices.max(1),
                start,
                split,
                lines,
            )
        })
        .collect();
    PhaseTrace {
        phase: PhaseKind::Cloth,
        tasks,
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    fn sample_profile() -> StepProfile {
        let mut p = StepProfile::default();
        p.broadphase.geoms = 10;
        p.broadphase.sort_ops = 40;
        p.broadphase.overlap_tests = 20;
        p.broadphase.pairs = 3;
        for k in 0..3u32 {
            p.pairs.push(PairWork {
                geom_a: k,
                geom_b: k + 1,
                body_a: k,
                body_b: k + 1,
                shape_a: parallax_physics::ShapeKind::Sphere,
                shape_b: parallax_physics::ShapeKind::Cuboid,
                contacts: 2,
                active: true,
            });
        }
        p.island_creation.bodies = 4;
        p.island_creation.union_ops = 3;
        p.island_creation.find_ops = 6;
        p.islands.push(IslandWork {
            bodies: vec![0, 1, 2, 3],
            joints: vec![0],
            manifolds: 3,
            rows: 21,
            dof_removed: 21,
            iterations: 20,
            residual: 0.0,
            queued: false,
            lambda_digest: 0,
        });
        p.cloths.push(ClothWork {
            cloth: 0,
            stats: parallax_physics::cloth::ClothStats {
                vertices: 25,
                projections: 25 * 8,
                collision_tests: 50,
                collisions_resolved: 5,
            },
            colliders: 2,
        });
        p.joint_count = 1;
        p.body_count = 4;
        p.geom_count = 10;
        p
    }

    #[test]
    fn trace_has_five_phases_in_order() {
        let t = StepTrace::from_profile(&sample_profile());
        assert_eq!(t.phases.len(), 5);
        for (i, k) in PhaseKind::ALL.iter().enumerate() {
            assert_eq!(t.phases[i].phase, *k);
        }
    }

    #[test]
    fn serial_phases_have_one_task() {
        let t = StepTrace::from_profile(&sample_profile());
        assert_eq!(t.phase(PhaseKind::Broadphase).tasks.len(), 1);
        assert_eq!(t.phase(PhaseKind::IslandCreation).tasks.len(), 1);
    }

    #[test]
    fn parallel_phases_have_per_entity_tasks() {
        let t = StepTrace::from_profile(&sample_profile());
        assert_eq!(t.phase(PhaseKind::Narrowphase).tasks.len(), 3);
        assert_eq!(t.phase(PhaseKind::IslandProcessing).tasks.len(), 1);
        assert_eq!(t.phase(PhaseKind::Cloth).tasks.len(), 1);
        assert_eq!(t.phase(PhaseKind::IslandProcessing).fg_subtasks(), 21);
        assert_eq!(t.phase(PhaseKind::Cloth).fg_subtasks(), 25);
    }

    #[test]
    fn pair_tasks_touch_geom_and_object_lines() {
        let t = StepTrace::from_profile(&sample_profile());
        let task = &t.phase(PhaseKind::Narrowphase).tasks[0];
        assert!(t.reads(task).iter().any(|a| Region::Geoms.contains(*a)));
        assert!(t.reads(task).iter().any(|a| Region::Objects.contains(*a)));
        assert!(!t.writes(task).is_empty());
        assert!(t.writes(task).iter().all(|a| Region::Contacts.contains(*a)));
    }

    #[test]
    fn island_creation_reads_contacts() {
        let t = StepTrace::from_profile(&sample_profile());
        let task = &t.phase(PhaseKind::IslandCreation).tasks[0];
        assert!(t.reads(task).iter().any(|a| Region::Contacts.contains(*a)));
        assert!(t.reads(task).iter().any(|a| Region::Objects.contains(*a)));
    }

    #[test]
    fn phases_index_by_discriminant() {
        for (i, k) in PhaseKind::ALL.iter().enumerate() {
            assert_eq!(*k as usize, i);
        }
    }

    #[test]
    fn arena_is_the_tasks_in_order_within_the_reserved_bound() {
        let p = sample_profile();
        let t = StepTrace::from_profile(&p);
        let mut next = 0;
        for task in t.phases.iter().flat_map(|ph| &ph.tasks) {
            assert_eq!(task.reads.start, next);
            assert_eq!(task.reads.end, task.writes.start);
            next = task.writes.end;
        }
        assert_eq!(next as usize, t.total_mem_refs());
        assert!(t.total_mem_refs() <= reference_bound(&p));
    }

    #[test]
    fn cg_side_ops_keep_the_references() {
        let p = sample_profile();
        let kernel = StepTrace::from_profile(&p);
        let packed = StepTrace::from_profile_with(&p, |_| OpCounts::default());
        assert_eq!(kernel.lines, packed.lines);
        assert_eq!(packed.phase(PhaseKind::Cloth).instructions(), 0);
        assert_eq!(
            packed.phase(PhaseKind::Broadphase).instructions(),
            kernel.phase(PhaseKind::Broadphase).instructions()
        );
    }

    #[test]
    fn totals_are_positive() {
        let t = StepTrace::from_profile(&sample_profile());
        assert!(t.total_instructions() > 1000);
        assert!(t.total_mem_refs() > 50);
    }

    #[test]
    fn empty_profile_produces_empty_but_valid_trace() {
        let t = StepTrace::from_profile(&StepProfile::default());
        assert_eq!(t.phases.len(), 5);
        assert_eq!(t.phase(PhaseKind::Narrowphase).tasks.len(), 0);
        assert_eq!(t.total_mem_refs(), 0);
    }
}
