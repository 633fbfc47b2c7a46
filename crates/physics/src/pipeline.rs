//! The staged step pipeline: one stage type per paper phase.
//!
//! Paper §3.1 structures a physics step as five phases — broad-phase,
//! narrow-phase, island creation, island processing and cloth — two of
//! which are serial and three parallel. [`StepPipeline`] owns the
//! persistent [`Executor`] that serves the parallel ones and the state a
//! step hands to the next — the broad phase's grid and lists, the island
//! graph, the contact cache, the coast cache — and `StepPipeline::step`
//! drives the phases in order while filling the [`StepProfile`].
//!
//! What a step fills and no later step reads — the narrow phase's pair
//! lists and kernel slots, the manifold arena, the constraint edges and
//! island arena, the solver's outputs, the cloth collider lists — is not
//! the world's: it lives in one `StepScratch` per thread, shared by
//! every world that thread steps, so a fleet of worlds holds as many sets
//! of scratch as it has stepping threads. The buffers are cleared and
//! refilled in place, so a steady-state step allocates nothing beyond the
//! profile's owned output vectors. A world dropped on the thread that
//! last stepped it takes that scratch with it (DESIGN.md §21).

use std::cell::RefCell;
use std::time::{Duration, Instant};

use parallax_math::{Aabb, Transform, Vec3};
use parallax_telemetry as telemetry;

use crate::body::BodyId;
use crate::broadphase::{BroadphaseStats, GridScratch, UniformGrid, GRID_CELL};
use crate::contact::ContactManifold;
use crate::contact_cache::{self, ContactCache, WarmStats};
use crate::digest;
use crate::heap::{vec_bytes, HeapBytes};
use crate::integrator;
use crate::island::{ConstraintEdge, Island, IslandGraph, IslandStats};
use crate::joint::Joint;
use crate::narrowphase::{self, ActivePair};
use crate::parallel::{Executor, Spans};
use crate::probe::{ClothWork, IslandWork, PairWork, PhaseKind, StepEvents, StepProfile};
use crate::shape::{GeomClass, GeomId, Shape};
use crate::solver::{self, RowParams, RowSet, VelState, STATIC_BODY};
use crate::world::{
    ContactListScratch, World, DT, GRAVITY, ISLAND_QUEUE_THRESHOLD, MAX_ANGULAR_VELOCITY,
    MAX_LINEAR_VELOCITY, SOLVER_ITERATIONS,
};

/// Serial phase 1: refresh world AABBs and produce candidate pairs.
///
/// World state: the grid carries its proxies from step to step, a coast
/// replays the candidates, and the inspection accessors read both lists
/// after a step.
pub struct BroadphaseStage {
    grid: UniformGrid,
    aabbs: Vec<(GeomId, Aabb)>,
    candidates: Vec<(GeomId, GeomId)>,
    /// The last run's wall split into the refresh and the grid, taken
    /// only while telemetry is on (zero otherwise).
    split: [Duration; 2],
}

/// Parallel phase 2: exact contact generation over the candidate pairs.
///
/// A batch in, a batch out: one serial pass classifies every candidate
/// against the world's per-geom class table and writes its work record,
/// the active pairs are bucketed by shape-kind pair and collided on the
/// executor one homogeneous run at a time, and a last serial pass emits
/// the hits into the manifold arena in candidate order (solver row order
/// follows it) whatever the thread count. Thread scratch.
#[derive(Default)]
pub struct NarrowphaseStage {
    /// Active pairs in candidate order.
    active: Vec<ActivePair>,
    /// The same pairs stably sorted by bucket, and where each went:
    /// `slot_of[i]` is the position of `active[i]` in `sorted`.
    sorted: Vec<ActivePair>,
    slot_of: Vec<u32>,
    /// Kernel output, one manifold per entry of `sorted` (empty = miss).
    slots: Vec<ContactManifold>,
}

/// Per-step narrow-phase counts: candidates handed over by the broad
/// phase, pairs that were collided, pairs that touched, contact points
/// they produced.
#[derive(Default, Clone, Copy)]
struct NarrowphaseStats {
    candidates: u64,
    active: u64,
    hits: u64,
    contacts: u64,
}

/// Serial phase 3: constraint edges + union-find island creation into
/// the island arena. Thread scratch; the [`IslandGraph`] it runs is world
/// state (it skips sleeping bodies and resets only last step's lanes, so
/// a settled world pays O(awake + edges)).
#[derive(Default)]
pub struct IslandCreationStage {
    edges: Vec<ConstraintEdge>,
    islands: Vec<Island>,
}

/// Parallel phase 4: per-island constraint solving, with the paper's
/// DOF work-queue filter (small islands stay on the calling thread).
/// Thread scratch.
#[derive(Default)]
pub struct IslandProcessingStage {
    queued_idx: Vec<u32>,
    small_idx: Vec<u32>,
    /// Dense body -> (island, island-local index) table, shared read-only
    /// by every island job. Bodies outside every island (static,
    /// sleeping, disabled) keep the `u32::MAX` island.
    slot_of: Vec<(u32, u32)>,
    results: Vec<IslandResult>,
    /// Where each island's outputs go: island `i` owns
    /// `starts[i][k]..starts[i + 1][k]` of output array `k` —
    /// `velocities`, `joint_sums`, `lambdas` — in island order.
    starts: Vec<[u32; 3]>,
    /// Solved `(linear, angular)` velocity per island body, in
    /// `Island::bodies` order.
    velocities: Vec<(Vec3, Vec3)>,
    /// Each joint's |λ| summed in row order, in `Island::joints` order.
    joint_sums: Vec<f32>,
    /// Post-solve `[normal, t1, t2]` impulses per contact point, per
    /// manifold in `Island::manifolds` order (empty with warm starting
    /// off), written into the contact cache on the caller thread.
    lambdas: Vec<[[f32; 3]; ContactManifold::MAX_POINTS]>,
    /// Per joint: the impulse its island's solve applied (0 outside every
    /// island), read by the breakable-joint check.
    joint_impulse: Vec<f32>,
}

/// Parallel phase 5: cloth relaxation, one task per cloth object.
/// Thread scratch.
#[derive(Default)]
pub struct ClothStage {
    /// Per cloth: the shapes and poses it collides with. Emptied after
    /// every run, so that no terrain outlives its world in a thread's
    /// scratch.
    collider_sets: Vec<Vec<(Shape, Transform)>>,
    /// Buffers of the contact-list build the narrow phase runs.
    lists: ContactListScratch,
}

impl BroadphaseStage {
    fn new() -> Self {
        BroadphaseStage {
            grid: UniformGrid::new(GRID_CELL),
            aabbs: Vec::new(),
            candidates: Vec::new(),
            split: [Duration::ZERO; 2],
        }
    }

    /// Refreshes world AABBs and fills `self.candidates`.
    fn run(&mut self, world: &mut World, scratch: &mut GridScratch) -> BroadphaseStats {
        let start = telemetry::enabled().then(Instant::now);
        world.refresh_aabbs_into(&mut self.aabbs);
        let refreshed = start.map(|t| (t, t.elapsed()));
        let stats = self
            .grid
            .pairs_into(&self.aabbs, &mut self.candidates, scratch);
        self.split = refreshed.map_or([Duration::ZERO; 2], |(t, refresh)| {
            [refresh, t.elapsed().saturating_sub(refresh)]
        });
        // Solver row order follows candidate order, so the grid must emit
        // the canonical list (see `UniformGrid::pairs_into`).
        debug_assert!(
            self.candidates.iter().all(|(a, b)| a < b)
                && self.candidates.windows(2).all(|w| w[0] < w[1]),
            "broad-phase candidates must be sorted, deduplicated, a < b"
        );
        stats
    }
}

impl NarrowphaseStage {
    /// Active pairs per executor task: a few kernel runs' worth, so a
    /// task amortises its claim while a step still splits into enough
    /// tasks to balance.
    const TASK_PAIRS: usize = 64;

    /// Classifies and collides the candidate pairs; fills `manifolds`
    /// (cleared first) with the hits in candidate order and `pairs` with
    /// the per-pair work records for the profile. Reads the per-geom
    /// tables `World::refresh_aabbs_into` wrote this step. Allocates
    /// nothing once its buffers, `manifolds` and `pairs` have grown.
    fn run(
        &mut self,
        world: &World,
        executor: &Executor,
        candidates: &[(GeomId, GeomId)],
        pairs: &mut Vec<PairWork>,
        manifolds: &mut Vec<ContactManifold>,
    ) -> NarrowphaseStats {
        // Classify. Pairs of one body or of excluded (jointed) bodies are
        // dropped; pairs with no awake dynamic side or with a disabled
        // body are kept as *considered* pairs (`active = false`) — counted,
        // and priced as a cheap rejection like ODE pairs filtered in the
        // near callback — but are never collided. Sleeping bodies count
        // as static here: a sleeping×sleeping or sleeping×static pair has
        // its manifolds parked in the sleep system, an awake×sleeping pair
        // stays active so contact can wake the island.
        let class = &world.geom_class[..];
        pairs.clear();
        pairs.reserve(candidates.len());
        self.active.clear();
        let mut bucket_len = [0u32; narrowphase::BUCKETS];
        for &(a, b) in candidates {
            let (ca, cb) = (class[a.index()], class[b.index()]);
            if ca.bits & cb.bits & GeomClass::ENABLED == 0 {
                continue;
            }
            if ca.body != u32::MAX && cb.body != u32::MAX {
                if ca.body == cb.body {
                    continue;
                }
                if ca.bits & cb.bits & GeomClass::EXCLUDES != 0
                    && world.exclusions.contains(ca.body, cb.body)
                {
                    continue;
                }
            }
            let either = ca.bits | cb.bits;
            let active =
                either & GeomClass::AWAKE_DYNAMIC != 0 && either & GeomClass::BODY_DISABLED == 0;
            if active {
                let bucket = narrowphase::bucket_of(ca.kind, cb.kind);
                bucket_len[bucket as usize] += 1;
                self.active.push(ActivePair {
                    a,
                    b,
                    bucket,
                    record: pairs.len() as u32,
                });
            }
            pairs.push(PairWork {
                geom_a: a.0,
                geom_b: b.0,
                body_a: ca.body,
                body_b: cb.body,
                shape_a: ca.kind,
                shape_b: cb.kind,
                contacts: 0,
                active,
            });
        }

        // Bucket: a stable counting sort by shape-kind pair.
        let n = self.active.len();
        let mut next = [0u32; narrowphase::BUCKETS];
        let mut start = 0;
        for (slot, len) in next.iter_mut().zip(bucket_len) {
            *slot = start;
            start += len;
        }
        // (The copy only sizes `sorted`; every entry is overwritten.)
        self.sorted.clear();
        self.sorted.extend_from_slice(&self.active);
        self.slot_of.clear();
        for p in &self.active {
            let slot = &mut next[p.bucket as usize];
            self.sorted[*slot as usize] = *p;
            self.slot_of.push(*slot);
            *slot += 1;
        }

        #[cfg(debug_assertions)]
        if world.config.digest_fault.is_none() {
            for p in &self.active {
                for g in [p.a.index(), p.b.index()] {
                    debug_assert_eq!(
                        world.geom_xf[g],
                        world.geom_world_transform(&world.geoms[g]),
                        "stale cached transform of geom {g}"
                    );
                }
            }
        }
        // Collide, one task per `TASK_PAIRS` sorted pairs.
        self.slots
            .resize(n, ContactManifold::new(GeomId(0), GeomId(0)));
        let (geoms, xf) = (&world.geoms[..], &world.geom_xf[..]);
        let mode = world.config.simd.clamp_to_supported();
        executor.zip_chunks_labeled(
            PhaseKind::Narrowphase.region_label(),
            Self::TASK_PAIRS,
            &self.sorted,
            &mut self.slots,
            |run, out| narrowphase::collide_batch(mode, run, geoms, xf, out),
        );

        // Emit the hits in candidate order.
        manifolds.clear();
        let mut contacts = 0;
        for (p, &slot) in self.active.iter().zip(&self.slot_of) {
            let m = &self.slots[slot as usize];
            if !m.is_empty() {
                pairs[p.record as usize].contacts = m.len() as u8;
                contacts += m.len() as u64;
                manifolds.push(*m);
            }
        }
        NarrowphaseStats {
            candidates: candidates.len() as u64,
            active: n as u64,
            hits: manifolds.len() as u64,
            contacts,
        }
    }

    /// Heap bytes the buffers hold.
    fn heap_bytes(&self) -> usize {
        vec_bytes(&self.active)
            + vec_bytes(&self.sorted)
            + vec_bytes(&self.slot_of)
            + vec_bytes(&self.slots)
    }
}

impl IslandCreationStage {
    /// Builds constraint edges and islands into the stage arenas.
    fn run(
        &mut self,
        world: &mut World,
        graph: &mut IslandGraph,
        manifolds: &[ContactManifold],
    ) -> IslandStats {
        world.build_edges_into(manifolds, &mut self.edges);
        graph.build(&mut world.bodies, &self.edges, &mut self.islands)
    }

    /// Heap bytes the edges and the island arena hold.
    fn heap_bytes(&self) -> usize {
        let islands: usize = (self.islands.iter())
            .map(|i| vec_bytes(&i.bodies) + vec_bytes(&i.joints) + vec_bytes(&i.manifolds))
            .sum();
        vec_bytes(&self.edges) + vec_bytes(&self.islands) + islands
    }
}

/// One island's solver counts; its outputs are spans of the stage's
/// output arrays.
#[derive(Clone, Copy)]
struct IslandResult {
    island: u32,
    /// Warm-start hit/miss counts for this island.
    warm: WarmStats,
    /// Batches in the island's solve schedule, and the rows of them each
    /// sweep projected four at a time.
    batches: usize,
    packed_rows: usize,
    rows: usize,
    iterations: usize,
    residual: f32,
    lambda_digest: u64,
}

/// What one island solve builds and drops again: rows, gathered
/// velocities and the row spans that map impulses back to joints and
/// manifolds. One per thread, so the buffers grow to the largest island
/// that thread has solved and a fleet of worlds shares them instead of
/// each pipeline holding its own.
#[derive(Default)]
struct IslandScratch {
    rows: RowSet,
    vel: Vec<VelState>,
    joint_ends: Vec<(u32, u32)>,
    contact_spans: Vec<(u32, u32)>,
}

thread_local! {
    static ISLAND_SCRATCH: RefCell<IslandScratch> = RefCell::default();
}

/// Per-step totals of the solve schedules (telemetry).
#[derive(Default, Clone, Copy)]
struct ScheduleTotals {
    batches: u64,
    packed_rows: u64,
}

/// Step-scoped knobs threaded into the island solve.
#[derive(Clone, Copy)]
struct SolveOpts {
    /// Seed contact rows from last step's cached impulses.
    warm_starting: bool,
    /// Compute per-island post-solve λ digests (flight recorder).
    digests: bool,
}

impl IslandProcessingStage {
    /// Solves every island — big ones on the executor, small ones on the
    /// calling thread (the paper's DOF > threshold work-queue filter) —
    /// then applies the velocities and fills `joint_impulse` for the
    /// breakables. Returns the profile work records, the warm-start
    /// hit/miss totals and the schedule totals.
    ///
    /// The contact cache is read-only inside the (possibly parallel)
    /// island solves and written back here, serially, in island-result
    /// order — this is what keeps warm starting deterministic across
    /// thread counts.
    fn run(
        &mut self,
        world: &mut World,
        executor: &Executor,
        islands: &[Island],
        manifolds: &[ContactManifold],
        cache: &mut ContactCache,
        opts: SolveOpts,
    ) -> (Vec<IslandWork>, WarmStats, ScheduleTotals) {
        let SolveOpts {
            warm_starting,
            digests,
        } = opts;
        let params = RowParams::default();
        let mode = world.config.simd.clamp_to_supported();
        let IslandProcessingStage {
            queued_idx,
            small_idx,
            slot_of,
            results,
            starts,
            velocities,
            joint_sums,
            lambdas,
            joint_impulse,
        } = self;
        joint_impulse.clear();
        joint_impulse.resize(world.joints.len(), 0.0);

        // Partition by the DOF filter. The index lists are rebuilt from the
        // same island order every step, so the result sequence — and thus
        // the simulation — is independent of the thread count.
        queued_idx.clear();
        small_idx.clear();
        for (i, island) in islands.iter().enumerate() {
            if island.dof_removed > ISLAND_QUEUE_THRESHOLD {
                queued_idx.push(i as u32);
            } else {
                small_idx.push(i as u32);
            }
        }

        // The output spans, by prefix sums in island order.
        starts.clear();
        let mut at = [0u32; 3];
        starts.push(at);
        for island in islands {
            at[0] += island.bodies.len() as u32;
            at[1] += island.joints.len() as u32;
            if warm_starting {
                at[2] += island.manifolds.len() as u32;
            }
            starts.push(at);
        }
        velocities.clear();
        velocities.resize(at[0] as usize, (Vec3::ZERO, Vec3::ZERO));
        joint_sums.clear();
        joint_sums.resize(at[1] as usize, 0.0);
        lambdas.clear();
        lambdas.resize(at[2] as usize, [[0.0; 3]; ContactManifold::MAX_POINTS]);

        let world_ref: &World = world;
        // Shared-immutable snapshot of the cache for the parallel solves.
        let cache_ref: &ContactCache = cache;
        slot_of.clear();
        slot_of.resize(world_ref.bodies.len(), (u32::MAX, 0));
        for (ii, island) in islands.iter().enumerate() {
            for (li, &bi) in island.bodies.iter().enumerate() {
                slot_of[bi as usize] = (ii as u32, li as u32);
            }
        }
        let slot_of = &slot_of[..];
        let starts_ref = &starts[..];
        let vel_out = Spans::new(velocities);
        let joint_out = Spans::new(joint_sums);
        let lambda_out = Spans::new(lambdas);
        let solve_island = |&ii: &u32| -> IslandResult {
            let island = &islands[ii as usize];
            let [v0, j0, c0] = starts_ref[ii as usize].map(|s| s as usize);
            let [v1, j1, c1] = starts_ref[ii as usize + 1].map(|s| s as usize);
            // SAFETY: `starts` ascends, so the spans of distinct islands
            // are disjoint, and each island is solved once: the queued and
            // small index lists partition the islands.
            let (vel_out, joint_out, lambda_out) = unsafe {
                (
                    vel_out.span(v0..v1),
                    joint_out.span(j0..j1),
                    lambda_out.span(c0..c1),
                )
            };
            // Static or foreign body: anchor.
            let local = |body: u32| -> u32 {
                match slot_of.get(body as usize) {
                    Some(&(isl, l)) if isl == ii => l,
                    _ => STATIC_BODY,
                }
            };
            ISLAND_SCRATCH.with_borrow_mut(|scratch| {
                let IslandScratch {
                    rows,
                    vel,
                    joint_ends,
                    contact_spans,
                } = scratch;
                vel.clear();
                vel.extend(
                    island
                        .bodies
                        .iter()
                        .map(|&bi| world_ref.bodies.vel_state(bi as usize)),
                );
                // One row per degree of freedom removed.
                rows.clear();
                rows.reserve(island.dof_removed);

                // (joint index, end of its rows): a joint's rows are
                // contiguous and joints come first, so the ends delimit
                // the per-joint impulse sums after the solve.
                joint_ends.clear();
                for &ji in &island.joints {
                    let j = &world_ref.joints[ji as usize];
                    solver::build_joint_rows(
                        j,
                        local(j.body_a.0),
                        local(j.body_b.0),
                        world_ref.bodies.transform(j.body_a.index()),
                        world_ref.bodies.transform(j.body_b.index()),
                        &params,
                        rows,
                    );
                    joint_ends.push((ji, rows.len() as u32));
                }
                let mut warm = WarmStats::default();
                // (manifold index, first row of its contact block): rows are
                // emitted 3 per point, in point order, so the block maps the
                // solved lambdas back to cache entries after the solve.
                contact_spans.clear();
                for &mi in &island.manifolds {
                    let m = &manifolds[mi as usize];
                    let ba = world_ref.geoms[m.geom_a.index()].body;
                    let bb = world_ref.geoms[m.geom_b.index()].body;
                    let pa = ba.map_or(Vec3::ZERO, |b| world_ref.bodies.position(b.index()));
                    let pb = bb.map_or(Vec3::ZERO, |b| world_ref.bodies.position(b.index()));
                    let la = ba.map_or(STATIC_BODY, |b| local(b.0));
                    let lb = bb.map_or(STATIC_BODY, |b| local(b.0));
                    let seeds = if warm_starting {
                        let key = contact_cache::pair_key(m);
                        let (s, w) = contact_cache::seed_lambdas(cache_ref.pair(key), m);
                        warm.merge(w);
                        Some(s)
                    } else {
                        None
                    };
                    contact_spans.push((mi, rows.len() as u32));
                    solver::build_contact_rows(
                        m,
                        la,
                        lb,
                        pa,
                        pb,
                        vel,
                        &params,
                        seeds.as_ref().map(|s| &s[..]),
                        rows,
                    );
                }
                debug_assert_eq!(rows.len(), island.dof_removed);

                let stats = solver::solve(rows, vel, SOLVER_ITERATIONS, mode);

                for (out, v) in vel_out.iter_mut().zip(vel.iter()) {
                    *out = (v.lin, v.ang);
                }
                // With warm starting off the span is empty.
                for (lam, &(mi, start)) in lambda_out.iter_mut().zip(contact_spans.iter()) {
                    let m = &manifolds[mi as usize];
                    for (p, l) in lam.iter_mut().take(m.len()).enumerate() {
                        let base = start as usize + p * 3;
                        *l = [
                            rows.lambda[base],
                            rows.lambda[base + 1],
                            rows.lambda[base + 2],
                        ];
                    }
                }
                // Per-joint impulse accounting for breakables: each
                // joint's |λ| summed in row order. `island.joints` is
                // ascending, so downstream accumulation order is
                // reproducible.
                debug_assert!(island.joints.windows(2).all(|w| w[0] < w[1]));
                let mut start = 0usize;
                for (sum_out, &(_, end)) in joint_out.iter_mut().zip(joint_ends.iter()) {
                    let mut sum = 0.0f32;
                    for l in &rows.lambda[start..end as usize] {
                        sum += l.abs();
                    }
                    start = end as usize;
                    *sum_out = sum;
                }

                IslandResult {
                    island: ii,
                    warm,
                    batches: stats.batches,
                    packed_rows: stats.packed_rows,
                    rows: stats.rows,
                    iterations: stats.iterations,
                    residual: stats.total_delta,
                    // Seeded by the island index so identical impulse
                    // vectors in different islands still hash apart.
                    lambda_digest: if digests {
                        digest::hash_f32s(ii as u64, &rows.lambda)
                    } else {
                        0
                    },
                }
            })
        };

        executor.map_into_labeled(
            PhaseKind::IslandProcessing.region_label(),
            queued_idx,
            results,
            solve_island,
        );
        for ii in small_idx.iter() {
            results.push(solve_island(ii));
        }

        let mut work = Vec::with_capacity(results.len());
        let mut warm_total = WarmStats::default();
        let mut schedule = ScheduleTotals::default();
        for r in results.iter() {
            let island = &islands[r.island as usize];
            let [v0, j0, c0] = starts[r.island as usize].map(|s| s as usize);
            let [v1, j1, c1] = starts[r.island as usize + 1].map(|s| s as usize);
            for (&bi, &(lin, ang)) in island.bodies.iter().zip(&velocities[v0..v1]) {
                world.bodies.set_velocity(bi as usize, lin, ang);
            }
            for (&ji, &sum) in island.joints.iter().zip(&joint_sums[j0..j1]) {
                joint_impulse[ji as usize] += sum;
            }
            // Serial cache writeback, in island-result order (queued islands
            // first, then small ones — both sequences are thread-count
            // independent). Each manifold belongs to exactly one island, so
            // no pair is stored twice.
            for (&mi, &lam) in island.manifolds.iter().zip(&lambdas[c0..c1]) {
                let m = &manifolds[mi as usize];
                cache.store(
                    contact_cache::pair_key(m),
                    m.points.iter().copied().zip(lam),
                );
            }
            warm_total.merge(r.warm);
            schedule.batches += r.batches as u64;
            schedule.packed_rows += r.packed_rows as u64;
            work.push(IslandWork {
                bodies: island.bodies.clone(),
                joints: island.joints.clone(),
                manifolds: island.manifolds.len(),
                rows: r.rows,
                dof_removed: island.dof_removed,
                iterations: r.iterations,
                residual: r.residual,
                queued: island.dof_removed > ISLAND_QUEUE_THRESHOLD,
                lambda_digest: r.lambda_digest,
            });
        }
        (work, warm_total, schedule)
    }

    /// Empties every list (a step without islands uses none of them).
    fn clear(&mut self) {
        self.queued_idx.clear();
        self.small_idx.clear();
        self.slot_of.clear();
        self.results.clear();
        self.starts.clear();
        self.velocities.clear();
        self.joint_sums.clear();
        self.lambdas.clear();
        self.joint_impulse.clear();
    }

    /// Heap bytes the buffers hold.
    fn heap_bytes(&self) -> usize {
        vec_bytes(&self.queued_idx)
            + vec_bytes(&self.small_idx)
            + vec_bytes(&self.slot_of)
            + vec_bytes(&self.results)
            + vec_bytes(&self.starts)
            + vec_bytes(&self.velocities)
            + vec_bytes(&self.joint_sums)
            + vec_bytes(&self.lambdas)
            + vec_bytes(&self.joint_impulse)
    }
}

impl ClothStage {
    /// Steps every cloth on the executor, one task per object (the paper
    /// parallelizes at both object and vertex level; object level suffices
    /// for real execution — vertex level is what the FG timing model
    /// exploits).
    fn run(&mut self, world: &mut World, executor: &Executor) -> Vec<ClothWork> {
        let mode = world.config.simd.clamp_to_supported();

        // Gather collider lists per cloth (shape + pose snapshots), reusing
        // the per-cloth buffers.
        let n = world.cloths.len();
        self.collider_sets.resize_with(n, Vec::new);
        for (i, set) in self.collider_sets.iter_mut().enumerate() {
            let cloth = &world.cloths[i];
            set.clear();
            for &b in &cloth.contact_bodies {
                let bid = BodyId(b);
                for g in &world.body_geoms[bid.index()] {
                    let geom = &world.geoms[g.index()];
                    if geom.enabled {
                        set.push((geom.shape.clone(), world.geom_world_transform(geom)));
                    }
                }
            }
            for &gi in &cloth.contact_static_geoms {
                let geom = &world.geoms[gi as usize];
                if geom.enabled {
                    set.push((geom.shape.clone(), geom.local));
                }
            }
        }

        let collider_sets = &self.collider_sets;
        let label = PhaseKind::Cloth.region_label();
        let mut out = Vec::new();
        executor.map_mut_into_labeled(label, &mut world.cloths, &mut out, |i, cloth| {
            let colliders = collider_sets[i].as_slice();
            let stats = cloth.step(GRAVITY, DT, colliders, mode);
            ClothWork {
                cloth: i as u32,
                stats,
                colliders: colliders.len(),
            }
        });
        for set in &mut self.collider_sets {
            set.clear();
        }
        out
    }

    /// Empties every list (a world without cloths uses none of them).
    fn clear(&mut self) {
        for set in &mut self.collider_sets {
            set.clear();
        }
        self.lists.clear();
    }

    /// Heap bytes the collider lists and the contact-list buffers hold.
    fn heap_bytes(&self) -> usize {
        let sets: usize = self.collider_sets.iter().map(vec_bytes).sum();
        sets + vec_bytes(&self.collider_sets) + self.lists.heap_bytes()
    }
}

/// Every buffer a step fills and no later step reads, one set per thread
/// (`STEP_SCRATCH`) and shared by every world it steps. The island
/// solves' own scratch (`ISLAND_SCRATCH`) is a separate thread-local: with
/// one thread the island jobs run on the caller while this one is
/// borrowed.
#[derive(Default)]
struct StepScratch {
    grid: GridScratch,
    narrowphase: NarrowphaseStage,
    /// The step's manifold arena: the narrow phase's hits in candidate
    /// order, then those the wake pass replays; the islands index it.
    manifolds: Vec<ContactManifold>,
    /// Sleeping bodies the wake pass tests.
    wakes: Vec<u32>,
    island_creation: IslandCreationStage,
    island_processing: IslandProcessingStage,
    cloth: ClothStage,
    /// `StepPipeline::id` of the last world that full-stepped on this
    /// thread (0: none yet): dropping that world empties this scratch.
    owner: u64,
}

thread_local! {
    static STEP_SCRATCH: RefCell<StepScratch> = RefCell::default();
}

impl StepScratch {
    /// Heap bytes every buffer holds.
    fn heap_bytes(&self) -> usize {
        self.grid.heap_bytes()
            + self.narrowphase.heap_bytes()
            + vec_bytes(&self.manifolds)
            + vec_bytes(&self.wakes)
            + self.island_creation.heap_bytes()
            + self.island_processing.heap_bytes()
            + self.cloth.heap_bytes()
    }
}

impl IslandScratch {
    /// Heap bytes held.
    fn heap_bytes(&self) -> usize {
        self.rows.heap_bytes()
            + vec_bytes(&self.vel)
            + vec_bytes(&self.joint_ends)
            + vec_bytes(&self.contact_spans)
    }
}

/// Heap bytes the calling thread keeps for stepping worlds: its step
/// scratch and its island-solve scratch. A thread that never stepped a
/// world holds none.
pub fn thread_scratch_bytes() -> usize {
    STEP_SCRATCH.with_borrow(StepScratch::heap_bytes)
        + ISLAND_SCRATCH.with_borrow(IslandScratch::heap_bytes)
}

/// Telemetry handles for the pipeline: one span name per paper phase
/// (track 0 — the calling thread), the per-step work histograms and the
/// step counter. Registration is idempotent, so every pipeline instance
/// shares the same process-wide slots.
struct PipelineTelemetry {
    phase_spans: [telemetry::SpanName; PhaseKind::ALL.len()],
    steps: telemetry::Counter,
    island_size: telemetry::Histogram,
    manifolds_per_step: telemetry::Histogram,
    /// What the narrow phase was given and made of it, accumulated per
    /// step: broad-phase candidates, pairs collided, pairs that touched,
    /// contact points generated.
    narrow_candidates: telemetry::Counter,
    narrow_active: telemetry::Counter,
    narrow_hits: telemetry::Counter,
    narrow_contacts: telemetry::Counter,
    solver_rows: telemetry::Histogram,
    /// Conflict-free batches over all island schedules, accumulated per
    /// step; with the row histogram's sum this gives rows per batch.
    solver_batches: telemetry::Counter,
    /// Rows per sweep that went through the packed four-row kernel,
    /// accumulated per step (0 in scalar mode).
    solver_packed_rows: telemetry::Counter,
    max_penetration_um: telemetry::Histogram,
    solver_residual_milli: telemetry::Histogram,
    warm_hits: telemetry::Counter,
    warm_misses: telemetry::Counter,
    cache_entries: telemetry::Gauge,
    /// Bodies currently asleep (end of step).
    sleeping_bodies: telemetry::Gauge,
    /// Islands currently asleep (end of step).
    sleeping_islands: telemetry::Gauge,
    /// Awake islands rebuilt by island creation, accumulated per step —
    /// the incremental-graph work measure (settled scenes: ~0/step).
    islands_rebuilt: telemetry::Counter,
    /// Broad-phase proxies (re-)inserted, accumulated per step — the
    /// persistent grid's churn measure (settled scenes: ~0/step).
    broadphase_reinserts: telemetry::Counter,
    /// Fat-overlapping pairs the persistent grid holds (end of step).
    broadphase_fat_pairs: telemetry::Gauge,
    /// Proxies whose tight box moved and tight tests the grid ran,
    /// accumulated per step (see `BroadphaseStats`).
    broadphase_moved: telemetry::Counter,
    broadphase_tight_tests: telemetry::Counter,
    /// The broad-phase wall split into the AABB refresh and the grid,
    /// accumulated per full step.
    broadphase_refresh_ns: telemetry::Counter,
    broadphase_grid_ns: telemetry::Counter,
    /// The cloth collision pass, accumulated per step: vertex-collider
    /// tests, ray casts run, ray casts skipped and projections skipped by
    /// a bound that proved a miss (skipped tests are counted as tests).
    cloth_tests: telemetry::Counter,
    cloth_ccd_casts: telemetry::Counter,
    cloth_ccd_culled: telemetry::Counter,
    cloth_project_out_culled: telemetry::Counter,
    /// Active kernel layout/ISA: 0 = scalar, 1 = SSE2, 2 = AVX2.
    simd_mode: telemetry::Gauge,
    /// Per-phase state digests (`physics.digest.<phase>`), published only
    /// when `WorldConfig::digests` is on. Digests are fingerprints, not
    /// magnitudes, so they are stored with `set_always`.
    digest_gauges: [telemetry::Gauge; PhaseKind::ALL.len()],
    /// The heap bytes a world retains, by component
    /// (`physics.heap_bytes.<component>`) and in total, published when a
    /// recorder asks ([`World::publish_heap_bytes`]), and those the
    /// stepping thread keeps as scratch, published at the end of every
    /// full step.
    heap: [telemetry::Gauge; 12],
    heap_total: telemetry::Gauge,
    heap_thread_scratch: telemetry::Gauge,
}

impl PipelineTelemetry {
    fn register() -> Self {
        PipelineTelemetry {
            phase_spans: PhaseKind::ALL.map(|p| telemetry::span_name(p.name())),
            steps: telemetry::counter("physics.steps"),
            island_size: telemetry::histogram("physics.island_size_bodies"),
            manifolds_per_step: telemetry::histogram("physics.manifolds_per_step"),
            narrow_candidates: telemetry::counter("physics.narrowphase.candidates"),
            narrow_active: telemetry::counter("physics.narrowphase.active"),
            narrow_hits: telemetry::counter("physics.narrowphase.hits"),
            narrow_contacts: telemetry::counter("physics.narrowphase.contacts"),
            solver_rows: telemetry::histogram("physics.solver_rows_per_island"),
            solver_batches: telemetry::counter("physics.solver.batches"),
            solver_packed_rows: telemetry::counter("physics.solver.packed_rows"),
            max_penetration_um: telemetry::histogram("physics.max_penetration_um"),
            solver_residual_milli: telemetry::histogram("physics.solver_residual_milli"),
            warm_hits: telemetry::counter("physics.solver.warm_hits"),
            warm_misses: telemetry::counter("physics.solver.warm_misses"),
            cache_entries: telemetry::gauge("physics.solver.cache_entries"),
            sleeping_bodies: telemetry::gauge("physics.sleeping_bodies"),
            sleeping_islands: telemetry::gauge("physics.sleeping_islands"),
            islands_rebuilt: telemetry::counter("physics.islands_rebuilt"),
            broadphase_reinserts: telemetry::counter("physics.broadphase.reinserts"),
            broadphase_fat_pairs: telemetry::gauge("physics.broadphase.fat_pairs"),
            broadphase_moved: telemetry::counter("physics.broadphase.moved"),
            broadphase_tight_tests: telemetry::counter("physics.broadphase.tight_tests"),
            broadphase_refresh_ns: telemetry::counter("physics.broadphase.refresh_ns"),
            broadphase_grid_ns: telemetry::counter("physics.broadphase.grid_ns"),
            cloth_tests: telemetry::counter("physics.cloth.collision_tests"),
            cloth_ccd_casts: telemetry::counter("physics.cloth.ccd_casts"),
            cloth_ccd_culled: telemetry::counter("physics.cloth.ccd_culled"),
            cloth_project_out_culled: telemetry::counter("physics.cloth.project_out_culled"),
            simd_mode: telemetry::gauge("physics.simd_mode"),
            digest_gauges: PhaseKind::ALL
                .map(|p| telemetry::gauge(&format!("physics.digest.{}", p.name()))),
            heap: HeapBytes::default()
                .components()
                .map(|(name, _)| telemetry::gauge(&format!("physics.heap_bytes.{name}"))),
            heap_total: telemetry::gauge("physics.heap_bytes.total"),
            heap_thread_scratch: telemetry::gauge("physics.heap_bytes.thread_scratch"),
        }
    }
}

/// Per-phase artificial delay in nanoseconds, used to fake a regression
/// for gate testing; set through [`set_injected_phase_delay`].
static INJECTED_DELAYS: [std::sync::atomic::AtomicU64; 5] =
    [const { std::sync::atomic::AtomicU64::new(0) }; 5];

/// Test/CI hook: makes every future step that runs its phases (a coast
/// runs none) spend an extra `delay` inside `phase` (a deliberately
/// slowed build without recompiling). Pass
/// `Duration::ZERO` to clear. The regression-gate acceptance test uses
/// this to verify `bench_gate compare` catches a real slowdown.
pub fn set_injected_phase_delay(phase: PhaseKind, delay: Duration) {
    let idx = PhaseKind::ALL
        .iter()
        .position(|p| *p == phase)
        .expect("phase");
    INJECTED_DELAYS[idx].store(
        delay.as_nanos() as u64,
        std::sync::atomic::Ordering::Relaxed,
    );
}

/// The epilogue of every phase, run inside the phase's [`timed`] block so
/// its cost is attributed to the phase it belongs to. In order:
///
/// 1. the configured single-ULP fault, if this step+phase matches
///    [`crate::WorldConfig::digest_fault`]: flips the low mantissa bit of
///    body 0's `pos.x` at the *end* of the phase, before its digest is
///    taken (the divergence-bisector acceptance tests verify that an
///    injected divergence is localized to exactly this step+phase);
/// 2. the phase's state digest (`0` with digests off);
/// 3. the injected delay, if any (one relaxed load on the common path).
#[inline]
fn end_phase(
    world: &mut World,
    phase_idx: usize,
    digests_on: bool,
    digest: impl FnOnce(&World) -> u64,
) -> u64 {
    if let Some(fault) = world.config.digest_fault {
        if fault.step == world.steps
            && fault.phase == PhaseKind::ALL[phase_idx]
            && !world.bodies.is_empty()
        {
            let bits = world.bodies.pos.x[0].to_bits() ^ 1;
            world.bodies.pos.x[0] = f32::from_bits(bits);
        }
    }
    let d = if digests_on { digest(world) } else { 0 };
    let ns = INJECTED_DELAYS[phase_idx].load(std::sync::atomic::Ordering::Relaxed);
    if ns > 0 {
        std::thread::sleep(Duration::from_nanos(ns));
    }
    d
}

/// Times one pipeline phase: always returns the measured wall time (so
/// `StepProfile::wall` is populated on every path, including early-outs)
/// and additionally records a track-0 span when telemetry is enabled.
fn timed<T>(span: telemetry::SpanName, f: impl FnOnce() -> T) -> (T, Duration) {
    if !telemetry::enabled() {
        let t = Instant::now();
        let r = f();
        return (r, t.elapsed());
    }
    let start = telemetry::now_ns();
    let t = Instant::now();
    let r = f();
    let wall = t.elapsed();
    telemetry::span_record(span, 0, start, wall.as_nanos() as u64);
    (r, wall)
}

/// The five phase digests of a step in which nothing moved: the world as
/// it stands, the broad phase's `candidates`, no manifold, no island.
fn rest_digests(world: &World, candidates: &[(GeomId, GeomId)]) -> [u64; 5] {
    [
        digest::broadphase_digest(world, candidates),
        digest::narrowphase_digest(world, &[]),
        digest::island_creation_digest(world),
        digest::island_processing_digest(world, &[]),
        digest::cloth_digest(world),
    ]
}

/// Cache backing the whole-step coast (see [`StepPipeline::step`]).
///
/// A *fixed-point* step changes nothing but the clock. It starts with
/// every dynamic body asleep, nothing pending, no blast, no cloth and no
/// force applied, and it ends asleep with no event. No contact-cache entry
/// ages, no joint has fatigue left to decay, and no speed is above the
/// clamp. Sleeping bodies are masked out of every sweep and their AABBs are
/// frozen, so the step after a fixed-point step sees the same input and
/// repeats it exactly.
///
/// The first fixed-point step *primes* the cache. The next one, with no
/// mutation between, *arms* it: its persistent broad phase has now run on
/// an input it had already seen, so its profile is the one every later
/// step reproduces. From then on a step is a coast: clock, cached profile,
/// telemetry and digests, until the world's `mutation_epoch` moves. Any
/// out-of-step mutation (adding bodies, teleporting a sleeper through
/// `body_mut`, waking, toggling enables, restoring a snapshot) moves it.
struct QuiescentCache {
    rest: Rest,
    /// `World::mutation_epoch` at the last fixed-point step.
    epoch: u64,
    /// The arming step's profile, walls and digests cleared.
    profile: StepProfile,
}

/// How far a world is on its way to a coast.
#[derive(Clone, Copy, PartialEq, Eq)]
enum Rest {
    Moving,
    Primed,
    Armed,
}

impl QuiescentCache {
    fn new() -> Self {
        QuiescentCache {
            rest: Rest::Moving,
            epoch: 0,
            profile: StepProfile::default(),
        }
    }

    /// Whether this step is a coast. Every precondition beyond the epoch
    /// was proved when the cache armed; these are the O(1) re-checks.
    fn coasts(&self, world: &World) -> bool {
        self.rest == Rest::Armed
            && self.epoch == world.mutation_epoch
            && world.sleep.pending_wakes.is_empty()
            && world.blasts.is_empty()
            && world.cloths.is_empty()
    }

    /// Records the outcome of a full step: primes on a first fixed-point
    /// step, arms on a second one with no mutation between, else resets.
    fn record(&mut self, epoch: u64, fixed_point: bool, profile: &StepProfile) {
        self.rest = match self.rest {
            _ if !fixed_point => Rest::Moving,
            Rest::Primed | Rest::Armed if self.epoch == epoch => Rest::Armed,
            _ => Rest::Primed,
        };
        self.epoch = epoch;
        if self.rest == Rest::Armed {
            self.profile = StepProfile {
                wall: Default::default(),
                digests: None,
                ..profile.clone()
            };
        }
    }
}

/// The five-stage step pipeline plus its persistent executor.
///
/// Owned by [`World`]; `World::step` delegates here. The executor is
/// created once from `WorldConfig::threads` and rebuilt only when the
/// configured thread count changes.
pub struct StepPipeline {
    /// Tells this world from the others a thread steps (see
    /// `StepScratch::owner`); unique within the process.
    id: u64,
    executor: Executor,
    broadphase: BroadphaseStage,
    /// The incremental island builder's forest and lane lists.
    island_graph: IslandGraph,
    /// Cross-step contact persistence for solver warm starting.
    contact_cache: ContactCache,
    /// Fully-asleep fast-path cache.
    quiet: QuiescentCache,
    telemetry: PipelineTelemetry,
    /// Whether the active SIMD mode has been published to telemetry yet
    /// (done once, on the first step).
    simd_reported: bool,
}

/// A world dropped on the thread it last full-stepped on takes the
/// thread's step scratch with it, as it took the buffers it used to own:
/// a thread that builds, steps and drops one large world after another
/// then regrows the same layout each time instead of keeping the last
/// world's buffers in the heap under the next one. The island scratch,
/// sized by the largest island the thread has solved and never a
/// world's (§16 of DESIGN.md), stays; dropping it too raised the peak
/// RSS of such a sequence.
impl Drop for StepPipeline {
    fn drop(&mut self) {
        // `try_`: the drop may run while the thread-local is torn down,
        // or inside another world's step.
        let _ = STEP_SCRATCH.try_with(|scratch| {
            if let Ok(mut scratch) = scratch.try_borrow_mut() {
                if scratch.owner == self.id {
                    *scratch = StepScratch::default();
                }
            }
        });
    }
}

impl std::fmt::Debug for StepPipeline {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        f.debug_struct("StepPipeline")
            .field("threads", &self.executor.threads())
            .finish()
    }
}

impl StepPipeline {
    /// Builds the pipeline with an executor `threads` wide.
    pub(crate) fn new(threads: usize) -> Self {
        static NEXT_ID: std::sync::atomic::AtomicU64 = std::sync::atomic::AtomicU64::new(1);
        StepPipeline {
            id: NEXT_ID.fetch_add(1, std::sync::atomic::Ordering::Relaxed),
            executor: Executor::new(threads),
            broadphase: BroadphaseStage::new(),
            island_graph: IslandGraph::new(),
            contact_cache: ContactCache::new(),
            quiet: QuiescentCache::new(),
            telemetry: PipelineTelemetry::register(),
            simd_reported: false,
        }
    }

    /// The persistent executor serving the parallel stages.
    pub fn executor(&self) -> &Executor {
        &self.executor
    }

    /// The cross-step contact cache (inspection hook for tests/tools).
    pub fn contact_cache(&self) -> &ContactCache {
        &self.contact_cache
    }

    /// The `(geom, AABB)` list the last broad phase refreshed: the grid's
    /// input (inspection hook for tests/tools). A coasting step leaves it
    /// as the last full step left it; [`World::collide_candidates`]
    /// refreshes it too.
    pub fn broadphase_aabbs(&self) -> &[(GeomId, Aabb)] {
        &self.broadphase.aabbs
    }

    /// The candidate pairs the grid emitted for
    /// [`broadphase_aabbs`](Self::broadphase_aabbs) in the last full
    /// step: the grid's output (inspection hook for tests/tools).
    pub fn broadphase_candidates(&self) -> &[(GeomId, GeomId)] {
        &self.broadphase.candidates
    }

    /// Mutable cache access for snapshot restore (see [`crate::snapshot`]).
    pub(crate) fn contact_cache_mut(&mut self) -> &mut ContactCache {
        &mut self.contact_cache
    }

    /// Invalidates the incremental island graph's lane bookkeeping; the
    /// next build performs a full island-lane reset. Called by snapshot
    /// restore, which replaces the island lanes wholesale.
    pub(crate) fn invalidate_island_graph(&mut self) {
        self.island_graph.invalidate();
        self.quiet.rest = Rest::Moving;
    }

    /// Rebuilds the executor when the configured thread count changed.
    fn match_executor_to(&mut self, threads: usize) {
        if self.executor.threads() != threads.max(1) {
            self.executor = Executor::new(threads);
        }
    }

    /// Adds the state the pipeline carries between steps to `heap`: the
    /// broad phase's lists and grid, the island graph, the contact cache
    /// and the coast cache.
    pub(crate) fn add_heap_bytes(&self, heap: &mut HeapBytes) {
        let (in_use, free) = self.broadphase.grid.heap_bytes();
        heap.broadphase +=
            vec_bytes(&self.broadphase.aabbs) + vec_bytes(&self.broadphase.candidates);
        heap.grid_in_use += in_use;
        heap.grid_free += free;
        heap.island_graph += self.island_graph.heap_bytes();
        heap.contact_cache += self.contact_cache.heap_bytes();
        heap.coast_cache += self.quiet.profile.heap_bytes();
    }

    /// Publishes `heap`, the world's [`World::heap_bytes`], as the
    /// `physics.heap_bytes.*` gauges.
    pub(crate) fn publish_heap(&self, heap: &HeapBytes) {
        for (gauge, (_, bytes)) in self.telemetry.heap.iter().zip(heap.components()) {
            gauge.set(bytes as u64);
        }
        self.telemetry.heap_total.set(heap.total() as u64);
    }

    /// See [`World::collide_candidates`].
    pub(crate) fn collide_candidates(
        &mut self,
        world: &mut World,
        candidates: &[(GeomId, GeomId)],
        pairs: &mut Vec<PairWork>,
        manifolds: &mut Vec<ContactManifold>,
    ) {
        self.match_executor_to(world.config.threads);
        world.refresh_aabbs_into(&mut self.broadphase.aabbs);
        STEP_SCRATCH.with_borrow_mut(|scratch| {
            scratch
                .narrowphase
                .run(world, &self.executor, candidates, pairs, manifolds)
        });
    }

    /// Runs one step over `world`, returning the work profile.
    ///
    /// A world at rest coasts (see [`QuiescentCache`]): the step advances
    /// the clock and returns the cached profile, bit-identical to the full
    /// recomputation except that no phase ran, so all five
    /// `StepProfile::wall` entries are zero. Every other path — including
    /// the empty-world fast path and the no-island / no-cloth skips — goes
    /// through [`timed`], so all five walls are populated.
    pub(crate) fn step(&mut self, world: &mut World) -> StepProfile {
        if self.quiet.coasts(world) {
            return self.coast(world);
        }
        STEP_SCRATCH.with_borrow_mut(|scratch| self.full_step(world, scratch))
    }

    /// A step that runs the phases, out of the thread's `scratch`.
    fn full_step(&mut self, world: &mut World, scratch: &mut StepScratch) -> StepProfile {
        self.match_executor_to(world.config.threads);
        self.telemetry.steps.add(1);
        let spans = self.telemetry.phase_spans;

        let mut profile = StepProfile::default();
        let mode = world.config.simd.clamp_to_supported();
        // Per-phase state digests (flight recorder / divergence bisection).
        // Computed inside each phase's timed block so the digest cost is
        // attributed to the phase it fingerprints.
        let digests_on = world.config.digests;
        let mut phase_digests = [0u64; 5];
        if !self.simd_reported {
            self.telemetry.simd_mode.set(mode.gauge_value());
            self.simd_reported = true;
        }

        // (a) Apply forces: gravity, slider suspension springs, blast
        // impulses. The disturbance scan must run before the integrator
        // consumes (and zeroes) the force accumulators: any sleeping body
        // that picked up a velocity, force or torque — user impulse,
        // blast, spring — is queued for the wake pass.
        world.apply_slider_springs();
        world.apply_blast_impulses();
        world.scan_sleep_disturbances();
        // A step that starts with nothing able to move — every dynamic
        // body asleep, no wake queued by the scan, no force left for the
        // integrator to consume — may be a fixed point (see
        // `QuiescentCache`).
        let quiescent = world.config.sleeping
            && world.config.digest_fault.is_none()
            && world.cloths.is_empty()
            && world.blasts.is_empty()
            && world.fully_asleep()
            && world.bodies.forces_clear();
        integrator::apply_forces(&mut world.bodies, GRAVITY, DT, mode);

        // Fast path: a fully empty world has no phase work at all, but
        // the profile must still report a wall time for every phase.
        if world.bodies.is_empty() && world.geoms.is_empty() && world.cloths.is_empty() {
            for (i, span) in spans.iter().enumerate() {
                let ((), wall) = timed(*span, || {});
                profile.wall[i] = wall;
            }
            if digests_on {
                profile.digests = Some(rest_digests(world, &[]));
            }
            return Self::finish_step(world, profile, (0, 0), 0);
        }

        // (b) Broad-phase (serial).
        let (stats, wall) = timed(spans[0], || {
            let s = self.broadphase.run(world, &mut scratch.grid);
            phase_digests[0] = end_phase(world, 0, digests_on, |w| {
                digest::broadphase_digest(w, &self.broadphase.candidates)
            });
            s
        });
        profile.broadphase = stats;
        profile.wall[0] = wall;
        if telemetry::enabled() {
            let [refresh, grid] = self.broadphase.split.map(|d| d.as_nanos() as u64);
            self.telemetry.broadphase_refresh_ns.add(refresh);
            self.telemetry.broadphase_grid_ns.add(grid);
        }

        // (c) Narrow-phase (parallel) with explosive / cloth / fracture
        // hooks.
        let StepScratch {
            narrowphase,
            manifolds,
            wakes,
            cloth,
            ..
        } = &mut *scratch;
        let candidates = &self.broadphase.candidates;
        let executor = &self.executor;
        let ((narrow, events), wall) = timed(spans[1], || {
            let narrow =
                narrowphase.run(world, executor, candidates, &mut profile.pairs, manifolds);
            let events = world.process_contact_events(manifolds);
            world.update_cloth_contact_lists(&mut cloth.lists);
            phase_digests[1] = end_phase(world, 1, digests_on, |w| {
                digest::narrowphase_digest(w, manifolds)
            });
            (narrow, events)
        });
        profile.wall[1] = wall;

        // Drop manifolds that involve blast volumes or newly exploded
        // bodies: they are fields, not solids.
        let inert_filter = &*world;
        manifolds.retain(|m| !inert_filter.manifold_is_inert(m));

        // Serial wake pass: islands disturbed this step (queued by the
        // scan), touched by an awake body's manifold, or jointed to an
        // awake body wake up here, replaying their parked manifolds into
        // the arena so they re-solve their resting contacts immediately.
        world.resolve_wakes(manifolds, wakes);
        let manifolds = &scratch.manifolds;

        profile.max_penetration = manifolds
            .iter()
            .flat_map(|m| m.points.iter())
            .map(|p| p.depth)
            .fold(0.0, f32::max);

        // (d) Island creation (serial).
        let island_creation = &mut scratch.island_creation;
        let island_graph = &mut self.island_graph;
        let (stats, wall) = timed(spans[2], || {
            let s = island_creation.run(world, island_graph, manifolds);
            phase_digests[2] = end_phase(world, 2, digests_on, digest::island_creation_digest);
            s
        });
        profile.island_creation = stats;
        profile.wall[2] = wall;

        // (e) Island processing (parallel) + (f) breakable joints. Skipped
        // (but still timed) when island creation produced nothing.
        let island_processing = &mut scratch.island_processing;
        let islands = &scratch.island_creation.islands;
        let contact_cache = &mut self.contact_cache;
        let warm_starting = world.config.warm_starting;
        let mut warm = WarmStats::default();
        let mut schedule = ScheduleTotals::default();
        let (broken, wall) = timed(spans[3], || {
            let broken = if islands.is_empty() {
                island_processing.clear();
                world.update_breakable_joints(&[])
            } else {
                let (island_work, w, s) = island_processing.run(
                    world,
                    executor,
                    islands,
                    manifolds,
                    contact_cache,
                    SolveOpts {
                        warm_starting,
                        digests: digests_on,
                    },
                );
                profile.islands = island_work;
                warm = w;
                schedule = s;
                world.update_breakable_joints(&island_processing.joint_impulse)
            };
            // Clamp then integrate, each as one SoA sweep. Bodies are
            // independent in both passes, so sweep-then-sweep produces the
            // same per-body results as the old clamp+integrate-per-body
            // loop.
            integrator::clamp_velocities(
                &mut world.bodies,
                MAX_LINEAR_VELOCITY,
                MAX_ANGULAR_VELOCITY,
                mode,
            );
            integrator::integrate(&mut world.bodies, DT, mode);
            // Serial sleep pass on post-solve velocities: update every
            // awake body's activity EMA/quiet timer and deactivate
            // islands that are fully at rest (when sleeping is enabled).
            world.update_sleep(islands, manifolds);
            phase_digests[3] = end_phase(world, 3, digests_on, |w| {
                digest::island_processing_digest(w, &profile.islands)
            });
            broken
        });
        profile.wall[3] = wall;

        profile.sleeping_bodies = world.sleeping_body_count();
        profile.sleeping_islands = world.sleeping_island_count();

        // Contact-cache maintenance, serial: age out pairs that stopped
        // touching and drop pairs whose geoms were disabled (fracture,
        // explosions). Pairs touching a sleeping body are pinned — they
        // produce no fresh manifolds while asleep, but their impulses
        // must survive to warm-start the island on wake. With warm
        // starting off the cache stays empty so an ablation run carries
        // no stale state into a later warm-on run.
        let cache_unchanged = if warm_starting {
            let geoms = &world.geoms;
            let bodies = &world.bodies;
            self.contact_cache.end_step_pinned(
                contact_cache::DEFAULT_MAX_AGE,
                |g| geoms[g.index()].enabled,
                |g| {
                    geoms[g.index()]
                        .body
                        .is_some_and(|b| bodies.is_sleeping(b.index()))
                },
            )
        } else if !self.contact_cache.is_empty() {
            self.contact_cache.clear();
            false
        } else {
            true
        };

        // (g) Cloth (parallel); skipped (but still timed) without cloths.
        let cloth = &mut scratch.cloth;
        let (cloths, wall) = timed(spans[4], || {
            let c = if world.cloths.is_empty() {
                cloth.clear();
                Vec::new()
            } else {
                cloth.run(world, executor)
            };
            phase_digests[4] = end_phase(world, 4, digests_on, digest::cloth_digest);
            c
        });
        profile.cloths = cloths;
        profile.wall[4] = wall;
        self.publish_cloth_culls(world, &profile.cloths);

        if digests_on {
            profile.digests = Some(phase_digests);
        }
        self.publish(&profile, 1, narrow, manifolds.len(), warm, schedule);
        self.publish_digests(profile.digests);
        let profile = Self::finish_step(world, profile, events, broken);

        // A step that started at rest must also end at rest, having changed
        // nothing the next step reads, to count as a fixed point: a settling
        // step (awake at broad-phase, asleep by the end) computed its
        // candidates before the final integrate.
        let fixed_point = quiescent
            && cache_unchanged
            && profile.events == StepEvents::default()
            && world.fully_asleep()
            && world.joints.iter().all(Joint::is_unloaded)
            && world
                .bodies
                .speeds_within(MAX_LINEAR_VELOCITY, MAX_ANGULAR_VELOCITY);
        self.quiet
            .record(world.mutation_epoch, fixed_point, &profile);
        scratch.owner = self.id;
        if telemetry::enabled() {
            let held = scratch.heap_bytes() + ISLAND_SCRATCH.with_borrow(IslandScratch::heap_bytes);
            self.telemetry.heap_thread_scratch.set(held as u64);
        }
        profile
    }

    /// Whether the next step is a coast (see [`QuiescentCache`]).
    pub(crate) fn coasts(&self, world: &World) -> bool {
        self.quiet.coasts(world)
    }

    /// A step of a world at rest (see [`QuiescentCache`]): the armed
    /// profile comes back with the digests of [`StepPipeline::coast_n`].
    fn coast(&mut self, world: &mut World) -> StepProfile {
        let digests = self.coast_n(world, 1);
        StepProfile {
            digests,
            ..self.quiet.profile.clone()
        }
    }

    /// `n` steps of a world at rest at once; the caller has checked
    /// [`StepPipeline::coasts`]. The clock advances by `n` single
    /// additions of `dt`, so its bits are those of `n` steps; the telemetry
    /// counters and histograms advance as `n` full steps of this world
    /// would advance them (no phase runs, so no phase span is recorded);
    /// the gauges and the digests, which hash the unchanged state, are
    /// taken once. Returns the digests when they are on.
    pub(crate) fn coast_n(&mut self, world: &mut World, n: u64) -> Option<[u64; 5]> {
        self.telemetry.steps.add(n);
        let candidates = &self.broadphase.candidates;
        let digests = world
            .config
            .digests
            .then(|| rest_digests(world, candidates));
        let narrow = NarrowphaseStats {
            candidates: candidates.len() as u64,
            ..Default::default()
        };
        self.publish(
            &self.quiet.profile,
            n,
            narrow,
            0,
            WarmStats::default(),
            ScheduleTotals::default(),
        );
        self.publish_digests(digests);
        for _ in 0..n {
            world.time += DT as f64;
        }
        world.steps += n;
        digests
    }

    /// Publishes the counters, histograms and gauges of `n` identical
    /// finished steps (`n` is 1 but on a coast).
    fn publish(
        &self,
        profile: &StepProfile,
        n: u64,
        narrow: NarrowphaseStats,
        manifolds: usize,
        warm: WarmStats,
        schedule: ScheduleTotals,
    ) {
        if telemetry::enabled() {
            self.telemetry
                .manifolds_per_step
                .record_n(manifolds as u64, n);
            self.telemetry.narrow_candidates.add(n * narrow.candidates);
            self.telemetry.narrow_active.add(n * narrow.active);
            self.telemetry.narrow_hits.add(n * narrow.hits);
            self.telemetry.narrow_contacts.add(n * narrow.contacts);
            // Penetration in micrometers so the log2 buckets resolve the
            // useful 1 µm – 10 m range.
            self.telemetry
                .max_penetration_um
                .record_n((profile.max_penetration.max(0.0) * 1e6) as u64, n);
            for w in &profile.islands {
                self.telemetry
                    .island_size
                    .record_n(w.bodies.len() as u64, n);
                self.telemetry.solver_rows.record_n(w.rows as u64, n);
                self.telemetry
                    .solver_residual_milli
                    .record_n((w.residual.max(0.0) * 1e3) as u64, n);
            }
            self.telemetry.solver_batches.add(n * schedule.batches);
            self.telemetry
                .solver_packed_rows
                .add(n * schedule.packed_rows);
            self.telemetry.warm_hits.add(n * warm.hits as u64);
            self.telemetry.warm_misses.add(n * warm.misses as u64);
            self.telemetry
                .cache_entries
                .set(self.contact_cache.len() as u64);
            self.telemetry
                .sleeping_bodies
                .set(profile.sleeping_bodies as u64);
            self.telemetry
                .sleeping_islands
                .set(profile.sleeping_islands as u64);
            self.telemetry
                .islands_rebuilt
                .add(n * profile.island_creation.islands as u64);
            self.telemetry
                .broadphase_reinserts
                .add(n * profile.broadphase.reinserts as u64);
            self.telemetry
                .broadphase_fat_pairs
                .set(profile.broadphase.fat_pairs as u64);
            self.telemetry
                .broadphase_moved
                .add(n * profile.broadphase.moved as u64);
            self.telemetry
                .broadphase_tight_tests
                .add(n * profile.broadphase.tight_tests as u64);
        }
    }

    /// Publishes the cloth collision pass's test and cull counts, once per
    /// cloth (a world with cloths never coasts).
    fn publish_cloth_culls(&self, world: &World, cloths: &[ClothWork]) {
        if !telemetry::enabled() {
            return;
        }
        let t = &self.telemetry;
        for (work, cloth) in cloths.iter().zip(&world.cloths) {
            let culls = cloth.last_culls();
            t.cloth_tests.add(work.stats.collision_tests as u64);
            t.cloth_ccd_casts.add(culls.ccd_casts as u64);
            t.cloth_ccd_culled.add(culls.ccd_culled as u64);
            t.cloth_project_out_culled
                .add(culls.project_out_culled as u64);
        }
    }

    /// Publishes a finished step's phase digests, when they are on.
    fn publish_digests(&self, digests: Option<[u64; 5]>) {
        if let Some(digests) = digests.filter(|_| telemetry::enabled()) {
            for (g, d) in self.telemetry.digest_gauges.iter().zip(digests) {
                g.set_always(d);
            }
        }
    }

    /// Shared step epilogue: blast expiry, clock advance, event and
    /// entity-count bookkeeping.
    fn finish_step(
        world: &mut World,
        mut profile: StepProfile,
        events: (usize, usize),
        broken: usize,
    ) -> StepProfile {
        let expired = world.expire_blasts();

        world.time += DT as f64;
        world.steps += 1;

        profile.events = StepEvents {
            explosions: events.0,
            shattered: events.1,
            joints_broken: broken,
            blasts_expired: expired,
        };
        profile.body_count = world.bodies.iter().filter(|b| !b.is_disabled()).count();
        profile.geom_count = world.geoms.iter().filter(|g| g.enabled).count();
        profile.joint_count = world.joints.iter().filter(|j| !j.is_broken()).count();
        profile
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn empty_world_step_populates_every_phase_wall() {
        let mut w = World::new(crate::world::WorldConfig::default());
        let profile = w.step();
        // The empty-world fast path must still time all five phases.
        for phase in PhaseKind::ALL {
            assert!(
                profile.wall_time(phase) > std::time::Duration::ZERO,
                "wall time missing for {}",
                phase.name()
            );
        }
        assert_eq!(w.steps, 1);
    }

    #[test]
    fn no_island_step_populates_every_phase_wall() {
        use crate::body::BodyDesc;
        // One free-falling body: broadphase runs but produces no islands
        // and there are no cloths, so both skip paths are exercised.
        let mut w = World::new(crate::world::WorldConfig::default());
        w.add_body(
            BodyDesc::dynamic(Vec3::new(0.0, 10.0, 0.0)).with_shape(Shape::sphere(0.5), 1.0),
        );
        let profile = w.step();
        assert!(profile.islands.is_empty());
        assert!(profile.cloths.is_empty());
        for phase in PhaseKind::ALL {
            assert!(
                profile.wall_time(phase) > std::time::Duration::ZERO,
                "wall time missing for {}",
                phase.name()
            );
        }
    }

    #[test]
    fn contact_cache_fills_and_clears_with_the_flag() {
        use crate::body::BodyDesc;
        let build = |warm: bool| {
            let mut w = World::new(crate::world::WorldConfig {
                warm_starting: warm,
                ..Default::default()
            });
            w.add_static_geom(Shape::plane(Vec3::UNIT_Y, 0.0));
            w.add_body(
                BodyDesc::dynamic(Vec3::new(0.0, 0.45, 0.0))
                    .with_shape(Shape::cuboid(Vec3::splat(0.5)), 1.0),
            );
            w
        };
        // Warm starting on: the resting box-plane pair is cached.
        let mut w = build(true);
        for _ in 0..5 {
            w.step();
        }
        assert!(
            !w.pipeline().contact_cache().is_empty(),
            "resting contact must be cached"
        );
        // Turning the flag off empties the cache on the next step.
        w.config_mut().warm_starting = false;
        w.step();
        assert!(w.pipeline().contact_cache().is_empty());
        // Warm starting off from the start: never populated.
        let mut w = build(false);
        for _ in 0..5 {
            w.step();
        }
        assert!(w.pipeline().contact_cache().is_empty());
    }

    #[test]
    fn warm_starting_reduces_iteration_work_at_rest() {
        use crate::body::BodyDesc;
        // A small stack settling on a plane: once resting, the warm-started
        // solver should be doing measurably less iteration work (residual)
        // than a cold-started one on the same trajectory point.
        let run = |warm: bool| -> f32 {
            let mut w = World::new(crate::world::WorldConfig {
                warm_starting: warm,
                ..Default::default()
            });
            w.add_static_geom(Shape::plane(Vec3::UNIT_Y, 0.0));
            for i in 0..3 {
                w.add_body(
                    BodyDesc::dynamic(Vec3::new(0.0, 0.5 + i as f32 * 1.001, 0.0))
                        .with_shape(Shape::cuboid(Vec3::splat(0.5)), 1.0),
                );
            }
            let mut residual = 0.0;
            for step in 0..120 {
                let p = w.step();
                // Sum residuals over the settled tail only.
                if step >= 60 {
                    residual += p.islands.iter().map(|i| i.residual).sum::<f32>();
                }
            }
            residual
        };
        let warm = run(true);
        let cold = run(false);
        assert!(
            warm < cold,
            "warm-started residual {warm} should beat cold {cold}"
        );
    }

    /// A small stack on a plane with sleeping enabled, stepped until every
    /// dynamic body is asleep.
    fn settled_world() -> World {
        use crate::body::BodyDesc;
        let mut w = World::new(crate::world::WorldConfig {
            sleeping: true,
            digests: true,
            ..Default::default()
        });
        w.add_static_geom(Shape::plane(Vec3::UNIT_Y, 0.0));
        for i in 0..4 {
            w.add_body(
                BodyDesc::dynamic(Vec3::new(0.0, 0.5 + i as f32 * 1.001, 0.0))
                    .with_shape(Shape::cuboid(Vec3::splat(0.5)), 1.0),
            );
        }
        for _ in 0..400 {
            w.step();
            if w.sleeping_body_count() == 4 {
                break;
            }
        }
        assert_eq!(w.sleeping_body_count(), 4, "stack must settle");
        w
    }

    /// A coast runs no phase: every wall of its profile is zero.
    fn coasted(p: &StepProfile) -> bool {
        p.wall.iter().all(|w| w.is_zero())
    }

    #[test]
    fn fully_asleep_steps_coast_without_broadphase_work() {
        let mut w = settled_world();
        // The first two fully-asleep steps run every phase, priming then
        // arming the cache; the third coasts on the arming step's profile.
        let primed = w.step();
        let armed = w.step();
        assert!(!coasted(&primed) && !coasted(&armed));
        assert!(armed.broadphase.pairs > 0);
        let (steps, time) = (w.step_count(), w.time());
        let coast = w.step();
        assert!(coasted(&coast), "a settled world coasts");
        assert_eq!(coast.broadphase, armed.broadphase);
        assert_eq!(coast.pairs, armed.pairs);
        assert!(coast.pairs.iter().all(|p| !p.active));
        assert_eq!(coast.island_creation.islands, 0);
        assert_eq!(coast.digests, armed.digests);
        assert_eq!(w.sleeping_body_count(), 4);
        assert_eq!(w.step_count(), steps + 1);
        assert_eq!(w.time(), time + DT as f64);
    }

    #[test]
    fn coast_n_leaves_a_world_that_would_not_coast_alone() {
        let mut w = settled_world();
        // Settled but not yet armed (the prime and arm steps are still to
        // come), then primed, then armed: only the last coasts.
        for expected in [false, false, true] {
            assert_eq!(w.coasts(), expected);
            if !expected {
                let (epoch, bytes) = (w.mutation_epoch, w.snapshot());
                assert_eq!(w.coast_n(5), 0);
                assert_eq!(w.mutation_epoch, epoch);
                assert!(w.snapshot() == bytes, "coast_n changed a moving world");
                w.step();
            }
        }
        let steps = w.step_count();
        assert_eq!(w.coast_n(0), 0);
        assert_eq!(w.coast_n(7), 7);
        assert_eq!(w.step_count(), steps + 7);
        assert!(w.coasts(), "a coast does not end the coast");
    }

    #[test]
    fn coasting_is_bit_identical_to_the_full_recomputation() {
        use crate::body::BodyDesc;
        let mut coasting = settled_world();
        let mut full = settled_world();
        for step in 0..20 {
            // Bumping the mutation epoch forces `full` down the slow path
            // every step while `coasting` reuses its cache.
            let _ = full.config_mut();
            let a = coasting.step();
            let b = full.step();
            assert_eq!(a.digests, b.digests, "digests diverged at step {step}");
        }
        // Disturb both identically: a new body dropped onto the stack must
        // wake it out of the coast and keep the trajectories in lockstep.
        for w in [&mut coasting, &mut full] {
            w.add_body(
                BodyDesc::dynamic(Vec3::new(0.2, 8.0, 0.0))
                    .with_shape(Shape::cuboid(Vec3::splat(0.5)), 1.0),
            );
        }
        for step in 0..120 {
            let _ = full.config_mut();
            let a = coasting.step();
            let b = full.step();
            assert_eq!(a.digests, b.digests, "post-wake divergence at step {step}");
        }
        for i in 0..coasting.bodies().len() {
            let (pa, pb) = (
                coasting.body(crate::body::BodyId(i as u32)).position(),
                full.body(crate::body::BodyId(i as u32)).position(),
            );
            assert_eq!(pa, pb, "body {i} position diverged");
        }
    }

    #[test]
    fn mutation_while_asleep_invalidates_the_coast_cache() {
        let mut w = settled_world();
        w.step(); // prime
        w.step(); // arm
        let coast = w.step();
        assert!(coasted(&coast));
        // A static geom added while everything sleeps must show up in the
        // next broad-phase pass instead of being masked by the cache.
        let before = coast.broadphase.geoms;
        w.add_static_geom_at(
            Shape::cuboid(Vec3::splat(0.6)),
            Transform::from_position(Vec3::new(0.0, 0.5, 2.0)),
        );
        let after = w.step();
        assert!(!coasted(&after), "mutation must break the coast");
        assert!(after.broadphase.sort_ops > 0);
        assert_eq!(after.broadphase.geoms, before + 1);
        // That step primed the cache on the insert's profile; the next one
        // arms on an input the broad phase has already seen.
        let armed = w.step();
        assert!(!coasted(&armed));
        assert_eq!(armed.broadphase.sort_ops, 0);
        let coast = w.step();
        assert!(coasted(&coast));
        assert_eq!(coast.broadphase, armed.broadphase);
    }

    /// The narrow phase reads each geom's world transform from the table
    /// the AABB pass wrote at the start of the step. Debug builds assert,
    /// inside the stage, that it equals `body ∘ local` for every geom of
    /// an active pair; this drives that assertion through every way a
    /// body's pose or standing changes between steps, and checks the
    /// whole table after each.
    #[test]
    fn cached_geom_transforms_equal_the_composed_pose_when_read() {
        fn check(w: &mut World, what: &str) {
            w.step();
            let n = w.geoms.len() as u32;
            let all: Vec<_> = (0..n)
                .flat_map(|a| (a + 1..n).map(move |b| (GeomId(a), GeomId(b))))
                .collect();
            w.collide_candidates(&all, &mut Vec::new(), &mut Vec::new());
            for (i, g) in w.geoms.iter().enumerate().filter(|(_, g)| g.enabled) {
                assert_eq!(w.geom_xf[i], w.geom_world_transform(g), "{what}: geom {i}");
            }
        }
        let mut w = settled_world();
        check(&mut w, "asleep");
        // Teleport a sleeper without waking it.
        let _ = w.body_mut(BodyId(3));
        w.bodies.set_position(3, Vec3::new(0.4, 3.3, 0.1));
        check(&mut w, "teleported sleeper");
        w.wake_all();
        check(&mut w, "woken");
        let _ = w.body_mut(BodyId(2));
        w.bodies.set_position(2, Vec3::new(3.0, 0.5, 0.0));
        check(&mut w, "teleported awake body");
        w.set_body_enabled(BodyId(1), false);
        check(&mut w, "disabled");
        w.set_body_enabled(BodyId(1), true);
        check(&mut w, "re-enabled");
        let snap = w.snapshot();
        for _ in 0..20 {
            w.step();
        }
        w.restore(&snap).expect("own snapshot");
        check(&mut w, "restored");
    }

    #[test]
    fn pipeline_rebuilds_executor_on_thread_change() {
        let cfg = crate::world::WorldConfig::default();
        let mut w = World::new(cfg);
        assert_eq!(w.pipeline().executor().threads(), 1);
        w.config_mut().threads = 3;
        w.step();
        assert_eq!(w.pipeline().executor().threads(), 3);
    }
}
