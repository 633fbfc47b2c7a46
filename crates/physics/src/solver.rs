//! The iterative constraint solver (projected Gauss–Seidel / SOR).
//!
//! This is the heart of **Island Processing** (paper §3.1): for each island
//! the engine builds constraint rows from joints and contacts, then relaxes
//! them iteratively. The number of solver iterations (paper default: 20)
//! trades accuracy for speed. Each relaxation iteration over the rows of an
//! island is the fine-grain parallel unit the FG cores execute ("degrees of
//! freedom removed in the LCP solver").
//!
//! **Data path.** The row builders append one [`Row`] per constraint to a
//! [`RowSet`], in *row order* (an island's joints, then three rows per
//! contact point), with the warm-start impulse beside it in
//! [`RowSet::lambda`]. PGS is sequentially dependent row to row *only
//! between rows that share a body*, so [`solve`] greedily colours the rows
//! into conflict-free batches (no dynamic body appears twice in a batch;
//! the same level-based colouring the cloth relaxation uses) and then lays
//! them out **once**, contiguously, in that *schedule order*. A packed row
//! carries everything an iteration reads: both Jacobian halves, the
//! products `I⁻¹·j_ang` of both sides (iteration-invariant, so computed
//! once instead of on every impulse application), `rhs`, `cfm`, the inverse
//! effective mass, the limit with the friction row's normal row as a
//! *position* in the packed array, and the accumulated impulse. The
//! iterations stream through that one array front to back; the impulses
//! are scattered back to row order at the end, so callers read
//! `RowSet::lambda` exactly as the builders indexed it.
//!
//! **Bit-identity.** Every SIMD mode — including scalar — projects the
//! rows in schedule order, and within a batch the rows are independent, so
//! projecting them one at a time (scalar, and every batch remainder) and
//! four at a time (the packed SSE kernel under any wide mode) produce
//! identical bits: each lane performs the same IEEE operations in the same
//! order, static lanes are masked off bitwise, and the per-row reductions
//! keep the fixed `(p0 + p1) + p2` association of `Vec3::dot`. Friction
//! rows read their governing normal row's accumulated impulse; the
//! colouring orders them into a later batch automatically because they
//! share the normal row's body pair. The hoisted `I⁻¹·j_ang` is the very
//! expression the projection used to evaluate in place, evaluated once.

use parallax_math::simd::{ScalarX4, SimdMode, Wide4};
use parallax_math::{Mat3, Transform, Vec3};

use crate::contact::ContactManifold;
use crate::joint::{Joint, JointKind};
use crate::world::{CONTACT_CFM, DT, ERP};

/// Velocity-space state of one body inside the solver scratch arrays.
///
/// Gathered from the [`crate::store::BodyStore`] via
/// `BodyStore::vel_state` and scattered back with
/// `BodyStore::set_velocity`.
/// `repr(C)` so the packed row kernel may load `lin.x..=ang.x` and
/// `ang.x..=inv_mass` as two contiguous 4-float vectors.
#[derive(Debug, Clone, Copy)]
#[repr(C)]
pub struct VelState {
    /// Linear velocity.
    pub lin: Vec3,
    /// Angular velocity.
    pub ang: Vec3,
    /// Inverse mass.
    pub inv_mass: f32,
    /// World-space inverse inertia.
    pub inv_inertia: Mat3,
}

/// Sentinel body index meaning "the static environment".
pub const STATIC_BODY: u32 = u32::MAX;

/// How a row's impulse is limited.
#[derive(Debug, Clone, Copy, PartialEq)]
pub enum RowLimit {
    /// Equality constraint: impulse unbounded (joints).
    Bilateral,
    /// Contact normal: impulse >= 0.
    Unilateral,
    /// Friction: |impulse| <= mu * lambda(normal row).
    Friction {
        /// Index of the governing normal row within the row set.
        normal_row: u32,
        /// Friction coefficient.
        mu: f32,
    },
}

/// [`Row::limit`] codes; any smaller value is a friction row's normal row.
const LIMIT_BILATERAL: u32 = u32::MAX;
const LIMIT_UNILATERAL: u32 = u32::MAX - 1;

/// One scalar constraint row `J · v = rhs` with impulse limits.
///
/// The one row layout: the builders fill the public fields, [`solve`]
/// fills the rest and copies the row to its place in the schedule. Two
/// cache lines, ordered so that applying an impulse touches only the
/// first (`j_lin` and `I⁻¹·j_ang` of both sides) and the four scalars of
/// the projection load as one vector. Jacobian 3-vectors are zero-padded
/// to `[x, y, z, 0]` so they load straight into a 128-bit register.
#[derive(Debug, Clone, Copy)]
#[repr(C, align(16))]
pub struct Row {
    /// Jacobian, linear part for A.
    pub j_lin_a: [f32; 4],
    /// `I_a⁻¹ · j_ang_a`, hoisted out of the iterations by [`solve`].
    inv_i_j_a: [f32; 4],
    /// Jacobian, linear part for B.
    pub j_lin_b: [f32; 4],
    /// `I_b⁻¹ · j_ang_b`.
    inv_i_j_b: [f32; 4],
    /// Jacobian, angular part for A.
    pub j_ang_a: [f32; 4],
    /// Jacobian, angular part for B.
    pub j_ang_b: [f32; 4],
    /// Target velocity along the constraint (bias + restitution).
    pub rhs: f32,
    /// Constraint-force mixing (softness).
    pub cfm: f32,
    /// Inverse effective mass; computed by [`solve`].
    inv_k: f32,
    /// Accumulated impulse while packed (row order lives in
    /// [`RowSet::lambda`]).
    lambda: f32,
    /// Island-local index of body A, or [`STATIC_BODY`].
    pub body_a: u32,
    /// Island-local index of body B, or [`STATIC_BODY`].
    pub body_b: u32,
    /// [`LIMIT_BILATERAL`], [`LIMIT_UNILATERAL`], or a friction row's
    /// normal row: its row index as built, its position once packed.
    limit: u32,
    /// Friction coefficient (friction rows only).
    mu: f32,
}

/// Float offset of `rhs, cfm, inv_k, lambda` inside a [`Row`].
#[cfg(target_arch = "x86_64")]
const ROW_SCALARS: usize = 24;

// The packed kernel loads these spans as vectors.
#[cfg(target_arch = "x86_64")]
const _: () = {
    use std::mem::{offset_of, size_of};
    assert!(offset_of!(Row, rhs) == ROW_SCALARS * 4 && offset_of!(Row, lambda) == 108);
    assert!(offset_of!(VelState, ang) == 12 && offset_of!(VelState, inv_mass) == 24);
    assert!(size_of::<Row>() == 128);
};

#[inline]
fn pad(v: Vec3) -> [f32; 4] {
    [v.x, v.y, v.z, 0.0]
}

impl Row {
    /// A bilateral row between two bodies with a zero Jacobian.
    pub fn new(body_a: u32, body_b: u32) -> Self {
        Row {
            j_lin_a: [0.0; 4],
            inv_i_j_a: [0.0; 4],
            j_lin_b: [0.0; 4],
            inv_i_j_b: [0.0; 4],
            j_ang_a: [0.0; 4],
            j_ang_b: [0.0; 4],
            rhs: 0.0,
            cfm: 0.0,
            inv_k: 0.0,
            lambda: 0.0,
            body_a,
            body_b,
            limit: LIMIT_BILATERAL,
            mu: 0.0,
        }
    }

    /// The impulse limit policy.
    pub fn limit(&self) -> RowLimit {
        match self.limit {
            LIMIT_BILATERAL => RowLimit::Bilateral,
            LIMIT_UNILATERAL => RowLimit::Unilateral,
            normal_row => RowLimit::Friction {
                normal_row,
                mu: self.mu,
            },
        }
    }

    /// Fills the iteration-invariant fields: `I⁻¹·j_ang` of both sides and
    /// the inverse of the effective mass `J M⁻¹ Jᵀ + cfm`.
    #[inline(always)]
    fn hoist<V: Wide4>(&mut self, vel: &[VelState]) {
        let mut k = 0.0;
        if self.body_a != STATIC_BODY {
            let v = &vel[self.body_a as usize];
            let jl = V::from_array(self.j_lin_a);
            let ja = V::from_array(self.j_ang_a);
            self.inv_i_j_a = pad(inertia_mul(&v.inv_inertia, ja));
            k += v.inv_mass * jl.dot3(jl);
            k += ja.dot3(V::from_array(self.inv_i_j_a));
        }
        if self.body_b != STATIC_BODY {
            let v = &vel[self.body_b as usize];
            let jl = V::from_array(self.j_lin_b);
            let ja = V::from_array(self.j_ang_b);
            self.inv_i_j_b = pad(inertia_mul(&v.inv_inertia, ja));
            k += v.inv_mass * jl.dot3(jl);
            k += ja.dot3(V::from_array(self.inv_i_j_b));
        }
        let k = k + self.cfm;
        self.inv_k = if k > 1e-10 { 1.0 / k } else { 0.0 };
    }
}

/// The constraint rows of one island: [`Row`]s in row order as the
/// builders emitted them, the accumulated impulse of each beside them, and
/// the scratch of the last [`solve`] (kept so a reused set stops
/// allocating once it has seen its largest island).
#[derive(Debug, Default, Clone)]
pub struct RowSet {
    rows: Vec<Row>,
    /// Accumulated impulse per row, in row order: the warm-start seeds
    /// going into [`solve`], the solved impulses coming out.
    pub lambda: Vec<f32>,
    /// The rows in schedule order — what the iterations stream through.
    packed: Vec<Row>,
    /// Row index at each schedule position.
    order: Vec<u32>,
    /// End position of each batch in `order`.
    batch_ends: Vec<u32>,
    /// Schedule position of each row (its batch while colouring).
    pos_of: Vec<u32>,
    /// First free batch per body while colouring.
    level: Vec<u32>,
}

impl RowSet {
    /// An empty row set.
    pub fn new() -> Self {
        RowSet::default()
    }

    /// Number of rows.
    #[inline]
    pub fn len(&self) -> usize {
        self.rows.len()
    }

    /// Returns `true` when there are no rows.
    #[inline]
    pub fn is_empty(&self) -> bool {
        self.rows.is_empty()
    }

    /// The rows as built, in row order.
    pub fn rows(&self) -> &[Row] {
        &self.rows
    }

    /// Heap bytes of the rows and the schedule buffers.
    pub(crate) fn heap_bytes(&self) -> usize {
        use crate::heap::vec_bytes;
        vec_bytes(&self.rows)
            + vec_bytes(&self.lambda)
            + vec_bytes(&self.packed)
            + vec_bytes(&self.order)
            + vec_bytes(&self.batch_ends)
            + vec_bytes(&self.pos_of)
            + vec_bytes(&self.level)
    }

    /// Removes all rows, keeping allocations for reuse.
    pub fn clear(&mut self) {
        self.rows.clear();
        self.lambda.clear();
    }

    /// Makes room for `additional` more rows.
    pub fn reserve(&mut self, additional: usize) {
        self.rows.reserve(additional);
        self.lambda.reserve(additional);
    }

    /// Appends a row with its warm-start impulse.
    pub fn push(&mut self, row: Row, lambda: f32) {
        self.rows.push(row);
        self.lambda.push(lambda);
    }

    /// Greedy level colouring of the rows into conflict-free batches: a
    /// row lands in the first batch after the last batch that used either
    /// of its dynamic bodies. Fills `order` (row indices sorted by batch,
    /// index order kept within one), `batch_ends` and `pos_of` (the
    /// inverse of `order`). Within a batch no dynamic body repeats, so
    /// batch rows can be projected in any order — or four at a time —
    /// with results identical to sequential projection. The schedule is a
    /// pure function of the row topology, so every SIMD mode and thread
    /// count computes the same one.
    fn build_schedule(&mut self, n_bodies: usize) {
        let RowSet {
            rows,
            order,
            batch_ends,
            pos_of,
            level,
            ..
        } = self;
        level.clear();
        level.resize(n_bodies, 0);
        batch_ends.clear();
        pos_of.clear();
        pos_of.extend(rows.iter().map(|row| {
            let (a, b) = (row.body_a, row.body_b);
            let mut batch = 0;
            if a != STATIC_BODY {
                batch = batch.max(level[a as usize]);
            }
            if b != STATIC_BODY {
                batch = batch.max(level[b as usize]);
            }
            if a != STATIC_BODY {
                level[a as usize] = batch + 1;
            }
            if b != STATIC_BODY {
                level[b as usize] = batch + 1;
            }
            if batch as usize == batch_ends.len() {
                batch_ends.push(0);
            }
            batch_ends[batch as usize] += 1;
            batch
        }));
        // Batch sizes -> batch starts; placing the rows then advances each
        // start to its batch's end.
        let mut start = 0;
        for e in batch_ends.iter_mut() {
            start += std::mem::replace(e, start);
        }
        order.clear();
        order.resize(rows.len(), 0);
        for (i, slot) in pos_of.iter_mut().enumerate() {
            let cursor = &mut batch_ends[*slot as usize];
            order[*cursor as usize] = i as u32;
            *slot = *cursor;
            *cursor += 1;
        }
    }
}

/// `J · v` of a row for the current velocities.
#[inline(always)]
fn jv<V: Wide4>(row: &Row, vel: &[VelState]) -> f32 {
    // Written as `masked_a + masked_b` (not skip-and-accumulate) so the
    // packed kernel's bitwise-masked lanes reproduce it exactly.
    let side = |body: u32, jl: &[f32; 4], ja: &[f32; 4]| {
        if body == STATIC_BODY {
            0.0
        } else {
            let v = &vel[body as usize];
            V::dot3_pair(
                V::from_array(*jl),
                V::from_vec3(v.lin),
                V::from_array(*ja),
                V::from_vec3(v.ang),
            )
        }
    };
    side(row.body_a, &row.j_lin_a, &row.j_ang_a) + side(row.body_b, &row.j_lin_b, &row.j_ang_b)
}

/// `I⁻¹ · j` with the row-dot association of `Mat3 * Vec3`.
#[inline(always)]
fn inertia_mul<V: Wide4>(inertia: &Mat3, j: V) -> Vec3 {
    Vec3::new(
        V::from_vec3(inertia.rows[0]).dot3(j),
        V::from_vec3(inertia.rows[1]).dot3(j),
        V::from_vec3(inertia.rows[2]).dot3(j),
    )
}

/// Applies impulse `dlambda` along a hoisted row to the velocities.
#[inline(always)]
fn apply<V: Wide4>(row: &Row, vel: &mut [VelState], dlambda: f32) {
    let mut side = |body: u32, jl: &[f32; 4], inv_i_j: &[f32; 4]| {
        if body != STATIC_BODY {
            let v = &mut vel[body as usize];
            let dl = V::from_array(*jl) * V::splat(v.inv_mass * dlambda);
            v.lin = (V::from_vec3(v.lin) + dl).to_vec3();
            let da = V::from_array(*inv_i_j) * V::splat(dlambda);
            v.ang = (V::from_vec3(v.ang) + da).to_vec3();
        }
    };
    side(row.body_a, &row.j_lin_a, &row.inv_i_j_a);
    side(row.body_b, &row.j_lin_b, &row.inv_i_j_b);
}

/// Statistics from one island solve, consumed by the trace layer.
#[derive(Debug, Default, Clone, Copy)]
pub struct SolveStats {
    /// Number of constraint rows.
    pub rows: usize,
    /// Relaxation iterations executed.
    pub iterations: usize,
    /// Total |Δλ| applied over the solve (convergence indicator).
    pub total_delta: f32,
    /// Conflict-free batches in the schedule.
    pub batches: usize,
    /// Rows each sweep projected four at a time (0 in scalar mode).
    pub packed_rows: usize,
}

/// Runs projected Gauss–Seidel over the rows for `iterations` sweeps.
///
/// Velocities in `vel` are updated in place; `rows.lambda[i]` holds the
/// accumulated impulses afterwards. Rows entering with a non-zero `lambda`
/// (warm-started from the contact cache) have that impulse applied to the
/// velocities up front (`M⁻¹Jᵀλ`), so the iterations only have to correct
/// the *change* since last step instead of rebuilding the full impulse.
/// `total_delta` counts iteration corrections only — warm-start application
/// is excluded so the stat keeps measuring convergence work.
pub fn solve(
    rows: &mut RowSet,
    vel: &mut [VelState],
    iterations: usize,
    mode: SimdMode,
) -> SolveStats {
    // Per-row work (the clamp + impulse scatter, and every remainder row)
    // always runs the four-lane scalar kernel: its within-row shape is
    // 3-wide and latency-bound, and LLVM already lowers `ScalarX4` to
    // minimal vector code — an explicit SSE within-row path (`Sse4`)
    // measured no faster end to end on solver-bound scenes. The wide
    // modes differ only in front-loading J·v for four independent rows
    // per batch through the packed kernel.
    type V = ScalarX4;
    #[cfg(target_arch = "x86_64")]
    let packed = mode != SimdMode::Scalar;
    #[cfg(not(target_arch = "x86_64"))]
    let packed = {
        let _ = mode;
        false
    };

    // Iteration-invariant row data, then the warm start: push the seeded
    // impulses into the velocities, in row order, so the accumulated
    // lambdas and the velocity state agree before iterating.
    for (row, &lambda) in rows.rows.iter_mut().zip(&rows.lambda) {
        row.hoist::<V>(vel);
        if lambda != 0.0 {
            apply::<V>(row, vel, lambda);
        }
    }

    rows.build_schedule(vel.len());
    let RowSet {
        rows: built,
        lambda,
        packed: sched,
        order,
        batch_ends,
        pos_of,
        ..
    } = rows;
    sched.clear();
    sched.extend(order.iter().map(|&i| {
        let mut row = built[i as usize];
        row.lambda = lambda[i as usize];
        if row.limit < LIMIT_UNILATERAL {
            row.limit = pos_of[row.limit as usize];
        }
        row
    }));
    let sched = &mut sched[..];

    let mut stats = SolveStats {
        rows: sched.len(),
        iterations,
        total_delta: 0.0,
        batches: batch_ends.len(),
        packed_rows: 0,
    };
    if packed {
        // Four rows per step through the packed kernel for the leading
        // 4k rows of each batch, remainders per row. The consumption
        // order is exactly the scalar sweep's (front to back), so even
        // the `total_delta` f32 accumulation order is shared.
        #[cfg(target_arch = "x86_64")]
        for _ in 0..iterations {
            let mut pos = 0usize;
            for &end in batch_ends.iter() {
                let end = end as usize;
                while pos + 4 <= end {
                    project_chunk4::<V>(sched, pos, vel, &mut stats.total_delta);
                    pos += 4;
                }
                while pos < end {
                    project_row::<V>(sched, pos, vel, &mut stats.total_delta);
                    pos += 1;
                }
            }
        }
        let mut start = 0;
        for &end in batch_ends.iter() {
            stats.packed_rows += (end - start) as usize / 4 * 4;
            start = end;
        }
    } else {
        for _ in 0..iterations {
            for pos in 0..sched.len() {
                project_row::<V>(sched, pos, vel, &mut stats.total_delta);
            }
        }
    }

    for (row, &i) in sched.iter().zip(order.iter()) {
        lambda[i as usize] = row.lambda;
    }
    stats
}

/// Projects the row at `pos` once: compute `J·v`, clamp the accumulated
/// impulse, apply the correction.
#[inline(always)]
fn project_row<V: Wide4>(
    rows: &mut [Row],
    pos: usize,
    vel: &mut [VelState],
    total_delta: &mut f32,
) {
    let row = &rows[pos];
    let jv = jv::<V>(row, vel);
    let unclamped = row.lambda + (row.rhs - jv - row.cfm * row.lambda) * row.inv_k;
    clamp_and_apply::<V>(rows, pos, unclamped, vel, total_delta);
}

/// The projection tail shared by the scalar and packed paths: clamp the
/// unclamped impulse by the row's limit and apply the correction. The
/// clamps are written as explicit compares (not `f32::max`/`clamp`, whose
/// −0.0 behaviour is implementation-defined), and a zero correction —
/// of either sign — is skipped rather than applied.
#[inline(always)]
fn clamp_and_apply<V: Wide4>(
    rows: &mut [Row],
    pos: usize,
    unclamped: f32,
    vel: &mut [VelState],
    total_delta: &mut f32,
) {
    let row = &rows[pos];
    let clamped = match row.limit {
        LIMIT_BILATERAL => unclamped,
        LIMIT_UNILATERAL => {
            if unclamped > 0.0 {
                unclamped
            } else {
                0.0
            }
        }
        normal_pos => {
            let ln = rows[normal_pos as usize].lambda;
            let bound = row.mu * if ln > 0.0 { ln } else { 0.0 };
            let hi = if unclamped > bound { bound } else { unclamped };
            if hi < -bound {
                -bound
            } else {
                hi
            }
        }
    };
    let dlambda = clamped - row.lambda;
    if dlambda != 0.0 {
        apply::<V>(row, vel, dlambda);
        rows[pos].lambda = clamped;
        *total_delta += dlambda.abs();
    }
}

/// Projects the four conflict-free rows at `base..base + 4` at once: the
/// `J·v` and the unclamped impulse run 4-wide (one row per lane, the
/// dot-product reduction vertical across lanes), then the clamp/apply
/// tail runs per lane through [`clamp_and_apply`] — literally the scalar
/// code.
///
/// Bit-identity with four sequential [`project_row`] calls: the rows
/// share no dynamic body, so neither the velocity reads nor the lambda
/// reads observe another lane's writes; each lane's arithmetic is the
/// same IEEE f32 operation sequence as the scalar path (per row the
/// elementwise `j_lin·v_lin + j_ang·v_ang`, then the `(tx + ty) + tz`
/// reduction of `dot3_pair`; static sides are masked to +0.0 bitwise
/// exactly like the scalar `0.0` arm); and the tail is shared code
/// executed in lane order. The four rows must sit in one batch of the
/// schedule (pairwise disjoint in their dynamic bodies) for that to hold.
#[cfg(target_arch = "x86_64")]
#[inline(always)]
fn project_chunk4<V: Wide4>(
    rows: &mut [Row],
    base: usize,
    vel: &mut [VelState],
    total_delta: &mut f32,
) {
    use std::arch::x86_64::*;
    let chunk: &[Row; 4] = rows[base..base + 4]
        .try_into()
        .expect("a four-row slice is a four-row array");

    // One body side: masked `Σ_xyz (j_lin·v_lin + j_ang·v_ang)` per lane;
    // static lanes read body 0 (any valid slot, selected branchlessly)
    // and are then zeroed bitwise, matching the scalar `0.0` arm exactly.
    // A side that is static in all four lanes (debris resting on the
    // ground dominates some scenes) skips everything — `+0.0` bitwise,
    // the same lanes the mask would produce.
    let side = |bodies: [u32; 4], jl: [&[f32; 4]; 4], ja: [&[f32; 4]; 4]| {
        if bodies == [STATIC_BODY; 4] {
            // SAFETY: SSE2 is part of the x86-64 baseline.
            return unsafe { _mm_setzero_ps() };
        }
        let lane = |l: usize| {
            let b = bodies[l];
            let m = -((b != STATIC_BODY) as i32); // -1 dynamic, 0 static
            let v: *const f32 = (&raw const vel[(b as usize) & (m as isize as usize)]).cast();
            // SAFETY: SSE2 is part of the x86-64 baseline. `VelState` is
            // `repr(C)` with `lin` at float 0, `ang` at float 3 and
            // `inv_mass` at float 6 (asserted above), so floats 0..4 and
            // 3..7 of the bounds-checked element are `[lin, ang.x]` and
            // `[ang, inv_mass]`; a `Row`'s Jacobian arrays are 16-byte
            // aligned by its `repr`. Lane 3 of the products is dropped
            // by the transpose below.
            let t = unsafe {
                _mm_add_ps(
                    _mm_mul_ps(_mm_load_ps(jl[l].as_ptr()), _mm_loadu_ps(v)),
                    _mm_mul_ps(_mm_load_ps(ja[l].as_ptr()), _mm_loadu_ps(v.add(3))),
                )
            };
            (m, t)
        };
        let (m0, mut t0) = lane(0);
        let (m1, mut t1) = lane(1);
        let (m2, mut t2) = lane(2);
        let (m3, mut t3) = lane(3);
        // SAFETY: SSE2 is part of the x86-64 baseline; register-only.
        unsafe {
            _MM_TRANSPOSE4_PS(&mut t0, &mut t1, &mut t2, &mut t3);
            let mask = _mm_castsi128_ps(_mm_set_epi32(m3, m2, m1, m0));
            _mm_and_ps(_mm_add_ps(_mm_add_ps(t0, t1), t2), mask)
        }
    };
    let [r0, r1, r2, r3] = chunk;
    let s_a = side(
        [r0.body_a, r1.body_a, r2.body_a, r3.body_a],
        [&r0.j_lin_a, &r1.j_lin_a, &r2.j_lin_a, &r3.j_lin_a],
        [&r0.j_ang_a, &r1.j_ang_a, &r2.j_ang_a, &r3.j_ang_a],
    );
    let s_b = side(
        [r0.body_b, r1.body_b, r2.body_b, r3.body_b],
        [&r0.j_lin_b, &r1.j_lin_b, &r2.j_lin_b, &r3.j_lin_b],
        [&r0.j_ang_b, &r1.j_ang_b, &r2.j_ang_b, &r3.j_ang_b],
    );
    // SAFETY: SSE2 is part of the x86-64 baseline; floats
    // `ROW_SCALARS..+4` of a `Row` are its `rhs, cfm, inv_k, lambda`
    // (asserted above), 16-byte aligned by its `repr`.
    let unclamped = unsafe {
        let scalars = |r: &Row| _mm_load_ps((&raw const *r).cast::<f32>().add(ROW_SCALARS));
        let (mut rhs, mut cfm, mut inv_k, mut lam) =
            (scalars(r0), scalars(r1), scalars(r2), scalars(r3));
        _MM_TRANSPOSE4_PS(&mut rhs, &mut cfm, &mut inv_k, &mut lam);
        // lambda_old + (rhs - jv - cfm*lambda_old) * inv_k, same
        // association as the scalar expression.
        let u = _mm_add_ps(
            lam,
            _mm_mul_ps(
                _mm_sub_ps(_mm_sub_ps(rhs, _mm_add_ps(s_a, s_b)), _mm_mul_ps(cfm, lam)),
                inv_k,
            ),
        );
        let mut out = [0.0f32; 4];
        _mm_storeu_ps(out.as_mut_ptr(), u);
        out
    };
    for (l, &u) in unclamped.iter().enumerate() {
        clamp_and_apply::<V>(rows, base + l, u, vel, total_delta);
    }
}

/// Parameters controlling row construction. The default is the engine's:
/// the world's [`DT`], [`ERP`] and [`CONTACT_CFM`].
#[derive(Debug, Clone, Copy)]
pub struct RowParams {
    /// Time step.
    pub dt: f32,
    /// Error-reduction parameter (Baumgarte factor), 0..1.
    pub erp: f32,
    /// Constraint-force mixing for contacts.
    pub contact_cfm: f32,
    /// Penetration slop tolerated without correction.
    pub slop: f32,
    /// Relative velocity below which restitution is ignored.
    pub restitution_threshold: f32,
}

impl Default for RowParams {
    fn default() -> Self {
        RowParams {
            dt: DT,
            erp: ERP,
            contact_cfm: CONTACT_CFM,
            slop: 0.005,
            restitution_threshold: 0.5,
        }
    }
}

/// Builds the constraint rows for one contact manifold.
///
/// `la`/`lb` are island-local body indices ([`STATIC_BODY`] for static
/// geoms); `pa`/`pb` are the body centre positions. Rows are appended to
/// `out`. Returns the number of rows added (1 normal + 2 friction per
/// point).
///
/// `seeds`, when present, holds per-point `[normal, t1, t2]` warm-start
/// impulses (from the contact cache) that initialize the rows' `lambda`;
/// [`solve`] applies them to the velocities before iterating. `None` means
/// a cold start at zero.
#[allow(clippy::too_many_arguments)]
pub fn build_contact_rows(
    manifold: &ContactManifold,
    la: u32,
    lb: u32,
    pa: Vec3,
    pb: Vec3,
    vel: &[VelState],
    params: &RowParams,
    seeds: Option<&[[f32; 3]]>,
    out: &mut RowSet,
) -> usize {
    let start = out.len();
    for (pi, cp) in manifold.points.iter().enumerate() {
        let seed = seeds.map_or([0.0; 3], |s| s[pi]);
        let n = cp.normal;
        let ra = cp.position - pa;
        let rb = cp.position - pb;

        let mut row = Row::new(la, lb);
        row.j_lin_a = pad(n);
        row.j_ang_a = pad(ra.cross(n));
        row.j_lin_b = pad(-n);
        row.j_ang_b = pad(-(rb.cross(n)));
        row.limit = LIMIT_UNILATERAL;
        row.cfm = params.contact_cfm;

        // Baumgarte positional bias plus restitution.
        let bias = params.erp / params.dt * (cp.depth - params.slop).max(0.0);
        let mut rel_normal_vel = 0.0;
        if la != STATIC_BODY {
            let v = &vel[la as usize];
            rel_normal_vel += n.dot(v.lin + v.ang.cross(ra));
        }
        if lb != STATIC_BODY {
            let v = &vel[lb as usize];
            rel_normal_vel -= n.dot(v.lin + v.ang.cross(rb));
        }
        let restitution = if rel_normal_vel < -params.restitution_threshold {
            -manifold.restitution * rel_normal_vel
        } else {
            0.0
        };
        row.rhs = bias.max(restitution);
        let normal_row = out.len() as u32;
        out.push(row, seed[0].max(0.0));

        // Two friction rows along tangents.
        let t1 = n.any_orthogonal();
        let t2 = n.cross(t1);
        for (ti, t) in [t1, t2].into_iter().enumerate() {
            let mut fr = Row::new(la, lb);
            fr.j_lin_a = pad(t);
            fr.j_ang_a = pad(ra.cross(t));
            fr.j_lin_b = pad(-t);
            fr.j_ang_b = pad(-(rb.cross(t)));
            fr.limit = normal_row;
            fr.mu = manifold.friction;
            // Keep the seeded friction impulse inside the cone of the
            // seeded normal impulse.
            let bound = manifold.friction * seed[0].max(0.0);
            out.push(fr, seed[1 + ti].clamp(-bound, bound));
        }
    }
    out.len() - start
}

/// Builds the constraint rows for a permanent joint.
///
/// `ta`/`tb` are the current body poses. A joint's rows are contiguous,
/// which is what per-joint impulse accounting relies on. Returns the
/// number of rows added.
pub fn build_joint_rows(
    joint: &Joint,
    la: u32,
    lb: u32,
    ta: Transform,
    tb: Transform,
    params: &RowParams,
    out: &mut RowSet,
) -> usize {
    let start = out.len();
    let bias_k = params.erp / params.dt;

    let point_rows = |anchor_a: Vec3, anchor_b: Vec3, out: &mut RowSet| {
        let wa = ta.apply(anchor_a);
        let wb = tb.apply(anchor_b);
        let ra = wa - ta.position;
        let rb = wb - tb.position;
        let err = wa - wb;
        for k in 0..3 {
            let e = [Vec3::UNIT_X, Vec3::UNIT_Y, Vec3::UNIT_Z][k];
            let mut row = Row::new(la, lb);
            row.j_lin_a = pad(e);
            row.j_ang_a = pad(ra.cross(e));
            row.j_lin_b = pad(-e);
            row.j_ang_b = pad(-(rb.cross(e)));
            row.rhs = -bias_k * err.dot(e);
            out.push(row, 0.0);
        }
    };

    let angular_rows = |dirs: &[Vec3], err: Vec3, out: &mut RowSet| {
        for &d in dirs {
            let mut row = Row::new(la, lb);
            row.j_ang_a = pad(d);
            row.j_ang_b = pad(-d);
            row.rhs = -bias_k * err.dot(d);
            out.push(row, 0.0);
        }
    };

    match joint.kind {
        JointKind::Ball { anchor_a, anchor_b } => {
            point_rows(anchor_a, anchor_b, out);
        }
        JointKind::Hinge {
            anchor_a,
            anchor_b,
            axis_a,
            axis_b,
        } => {
            point_rows(anchor_a, anchor_b, out);
            let wa_axis = ta.apply_vector(axis_a);
            let wb_axis = tb.apply_vector(axis_b);
            // Constrain rotation perpendicular to the hinge axis. Error is
            // the misalignment rotation vector axis_b × axis_a.
            let p = wa_axis.any_orthogonal();
            let q = wa_axis.cross(p);
            let err = wb_axis.cross(wa_axis);
            angular_rows(&[p, q], err, out);
        }
        JointKind::Slider { axis_a, anchor_a } => {
            let w_axis = ta.apply_vector(axis_a);
            let p = w_axis.any_orthogonal();
            let q = w_axis.cross(p);
            // Lock all relative rotation. The error rotation E takes A's
            // frame to B's (dE/dt ≈ ωb − ωa), while `angular_rows` models
            // dE/dt ≈ ωa − ωb (the hinge convention), so negate E here.
            let rel = tb.rotation * ta.rotation.conjugate();
            let rot_err = Vec3::new(rel.x, rel.y, rel.z) * (-2.0 * rel.w.signum());
            angular_rows(&[Vec3::UNIT_X, Vec3::UNIT_Y, Vec3::UNIT_Z], rot_err, out);
            // Lock translation perpendicular to the axis, measured from the
            // anchor point on A. With C = t·(xb − anchor_world) the row
            // below measures jv = −Ċ, so the bias enters with a positive
            // sign to make C decay. (Springs along the axis are applied as
            // forces in World.)
            let anchor_world = ta.apply(anchor_a);
            let d = tb.position - ta.position;
            let err = tb.position - anchor_world;
            let off = err - w_axis * err.dot(w_axis);
            for t in [p, q] {
                let mut row = Row::new(la, lb);
                row.j_lin_a = pad(t);
                row.j_ang_a = pad(d.cross(t));
                row.j_lin_b = pad(-t);
                row.rhs = bias_k * off.dot(t);
                out.push(row, 0.0);
            }
        }
        JointKind::Fixed { anchor_a, anchor_b } => {
            point_rows(anchor_a, anchor_b, out);
            // See the Slider case for the sign of the rotation error.
            let rel = tb.rotation * ta.rotation.conjugate();
            let rot_err = Vec3::new(rel.x, rel.y, rel.z) * (-2.0 * rel.w.signum());
            angular_rows(&[Vec3::UNIT_X, Vec3::UNIT_Y, Vec3::UNIT_Z], rot_err, out);
        }
    }
    out.len() - start
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::contact::ContactPoint;
    use crate::shape::GeomId;

    fn free_unit_body() -> VelState {
        VelState {
            lin: Vec3::ZERO,
            ang: Vec3::ZERO,
            inv_mass: 1.0,
            inv_inertia: Mat3::from_diagonal(Vec3::splat(2.5)),
        }
    }

    #[test]
    fn normal_row_stops_approach() {
        // Body A moving down onto the static ground with a contact whose
        // normal is +Y; after solving, downward velocity must vanish.
        let mut vel = vec![free_unit_body()];
        vel[0].lin = Vec3::new(0.0, -3.0, 0.0);
        let mut m = ContactManifold::new(GeomId(0), GeomId(1));
        m.restitution = 0.0;
        m.push(ContactPoint {
            position: Vec3::ZERO,
            normal: Vec3::UNIT_Y,
            depth: 0.0,
            feature: 0,
        });
        let mut rows = RowSet::new();
        let params = RowParams::default();
        build_contact_rows(
            &m,
            0,
            STATIC_BODY,
            Vec3::ZERO,
            Vec3::ZERO,
            &vel,
            &params,
            None,
            &mut rows,
        );
        assert_eq!(rows.len(), 3);
        solve(&mut rows, &mut vel, 20, SimdMode::Scalar);
        assert!(vel[0].lin.y.abs() < 1e-3, "vy = {}", vel[0].lin.y);
    }

    #[test]
    fn unilateral_contact_does_not_pull() {
        // Body moving away from the contact: no impulse should be applied.
        let mut vel = vec![free_unit_body()];
        vel[0].lin = Vec3::new(0.0, 5.0, 0.0);
        let mut m = ContactManifold::new(GeomId(0), GeomId(1));
        m.push(ContactPoint {
            position: Vec3::ZERO,
            normal: Vec3::UNIT_Y,
            depth: 0.0,
            feature: 0,
        });
        let mut rows = RowSet::new();
        build_contact_rows(
            &m,
            0,
            STATIC_BODY,
            Vec3::ZERO,
            Vec3::ZERO,
            &vel,
            &RowParams::default(),
            None,
            &mut rows,
        );
        solve(&mut rows, &mut vel, 20, SimdMode::Scalar);
        assert!((vel[0].lin.y - 5.0).abs() < 1e-4);
    }

    #[test]
    fn friction_clamps_tangential_impulse() {
        // Sliding contact: tangential velocity should shrink but friction is
        // bounded by mu * normal impulse.
        let mut vel = vec![free_unit_body()];
        vel[0].lin = Vec3::new(4.0, -1.0, 0.0);
        let mut m = ContactManifold::new(GeomId(0), GeomId(1));
        m.friction = 0.3;
        m.restitution = 0.0;
        m.push(ContactPoint {
            position: Vec3::ZERO,
            normal: Vec3::UNIT_Y,
            depth: 0.0,
            feature: 0,
        });
        let mut rows = RowSet::new();
        build_contact_rows(
            &m,
            0,
            STATIC_BODY,
            Vec3::ZERO,
            Vec3::ZERO,
            &vel,
            &RowParams::default(),
            None,
            &mut rows,
        );
        solve(&mut rows, &mut vel, 50, SimdMode::Scalar);
        // Normal velocity removed.
        assert!(vel[0].lin.y.abs() < 1e-3);
        // Tangential velocity reduced but not fully (mu too small to stop
        // a 4 m/s slide with a 1 m/s normal impulse).
        assert!(vel[0].lin.x < 4.0);
        assert!(vel[0].lin.x > 0.0);
    }

    #[test]
    fn restitution_bounces() {
        let mut vel = vec![free_unit_body()];
        vel[0].lin = Vec3::new(0.0, -4.0, 0.0);
        let mut m = ContactManifold::new(GeomId(0), GeomId(1));
        m.restitution = 0.5;
        m.push(ContactPoint {
            position: Vec3::ZERO,
            normal: Vec3::UNIT_Y,
            depth: 0.0,
            feature: 0,
        });
        let mut rows = RowSet::new();
        build_contact_rows(
            &m,
            0,
            STATIC_BODY,
            Vec3::ZERO,
            Vec3::ZERO,
            &vel,
            &RowParams::default(),
            None,
            &mut rows,
        );
        solve(&mut rows, &mut vel, 30, SimdMode::Scalar);
        assert!(
            (vel[0].lin.y - 2.0).abs() < 0.1,
            "expected ~+2 m/s bounce, got {}",
            vel[0].lin.y
        );
    }

    #[test]
    fn bilateral_row_enforces_equality() {
        // Two bodies moving apart along X joined by a single bilateral row
        // along X: their relative velocity along X must become zero.
        let mut vel = vec![free_unit_body(), free_unit_body()];
        vel[0].lin = Vec3::new(1.0, 0.0, 0.0);
        vel[1].lin = Vec3::new(-1.0, 0.0, 0.0);
        let mut row = Row::new(0, 1);
        row.j_lin_a = pad(Vec3::UNIT_X);
        row.j_lin_b = pad(-Vec3::UNIT_X);
        let mut rows = RowSet::new();
        rows.push(row, 0.0);
        solve(&mut rows, &mut vel, 30, SimdMode::Scalar);
        let rel = vel[0].lin.x - vel[1].lin.x;
        assert!(rel.abs() < 1e-4, "rel = {rel}");
        // Momentum conserved (equal masses): both should be ~0.
        assert!(vel[0].lin.x.abs() < 1e-3);
    }

    #[test]
    fn warm_start_seed_applies_impulse_before_iterating() {
        // Cold-solve a resting contact to learn its impulse, then rebuild
        // the same rows seeded with that impulse: the velocity must be
        // corrected even with zero iterations, and the leftover iteration
        // work (total_delta) must be (near) zero.
        let make_vel = || {
            let mut v = vec![free_unit_body()];
            v[0].lin = Vec3::new(0.0, -3.0, 0.0);
            v
        };
        let mut m = ContactManifold::new(GeomId(0), GeomId(1));
        m.restitution = 0.0;
        m.push(ContactPoint {
            position: Vec3::ZERO,
            normal: Vec3::UNIT_Y,
            depth: 0.0,
            feature: 0,
        });
        let params = RowParams::default();

        let mut vel = make_vel();
        let mut rows = RowSet::new();
        build_contact_rows(
            &m,
            0,
            STATIC_BODY,
            Vec3::ZERO,
            Vec3::ZERO,
            &vel,
            &params,
            None,
            &mut rows,
        );
        let cold = solve(&mut rows, &mut vel, 20, SimdMode::Scalar);
        let learned = [rows.lambda[0], rows.lambda[1], rows.lambda[2]];
        assert!(learned[0] > 0.0);

        let mut vel = make_vel();
        let mut rows = RowSet::new();
        build_contact_rows(
            &m,
            0,
            STATIC_BODY,
            Vec3::ZERO,
            Vec3::ZERO,
            &vel,
            &params,
            Some(&[learned]),
            &mut rows,
        );
        assert_eq!(rows.lambda[0], learned[0], "seed must land on the row");
        let warm = solve(&mut rows, &mut vel, 20, SimdMode::Scalar);
        assert!(
            vel[0].lin.y.abs() < 1e-3,
            "warm-started contact still approaching: vy = {}",
            vel[0].lin.y
        );
        assert!(
            warm.total_delta < cold.total_delta * 0.1,
            "warm start should do far less iteration work: {} vs {}",
            warm.total_delta,
            cold.total_delta
        );
    }

    #[test]
    fn warm_start_friction_seed_is_clamped_to_cone() {
        // A stale cached friction impulse bigger than μ·λn must be clamped
        // at build time, not applied unbounded.
        let vel = vec![free_unit_body()];
        let mut m = ContactManifold::new(GeomId(0), GeomId(1));
        m.friction = 0.5;
        m.push(ContactPoint {
            position: Vec3::ZERO,
            normal: Vec3::UNIT_Y,
            depth: 0.0,
            feature: 0,
        });
        let mut rows = RowSet::new();
        build_contact_rows(
            &m,
            0,
            STATIC_BODY,
            Vec3::ZERO,
            Vec3::ZERO,
            &vel,
            &RowParams::default(),
            Some(&[[2.0, 9.0, -9.0]]),
            &mut rows,
        );
        assert_eq!(rows.lambda[0], 2.0);
        assert_eq!(rows.lambda[1], 1.0, "t1 clamped to mu * normal");
        assert_eq!(rows.lambda[2], -1.0, "t2 clamped to -mu * normal");
        // A negative normal seed (separating last step) must not pull.
        let mut rows = RowSet::new();
        build_contact_rows(
            &m,
            0,
            STATIC_BODY,
            Vec3::ZERO,
            Vec3::ZERO,
            &vel,
            &RowParams::default(),
            Some(&[[-1.0, 0.5, 0.0]]),
            &mut rows,
        );
        assert_eq!(rows.lambda[0], 0.0);
        assert_eq!(rows.lambda[1], 0.0);
    }

    #[test]
    fn solve_reports_stats() {
        let mut vel = vec![free_unit_body()];
        vel[0].lin = Vec3::new(0.0, -1.0, 0.0);
        let mut m = ContactManifold::new(GeomId(0), GeomId(1));
        m.push(ContactPoint {
            position: Vec3::ZERO,
            normal: Vec3::UNIT_Y,
            depth: 0.0,
            feature: 0,
        });
        let mut rows = RowSet::new();
        build_contact_rows(
            &m,
            0,
            STATIC_BODY,
            Vec3::ZERO,
            Vec3::ZERO,
            &vel,
            &RowParams::default(),
            None,
            &mut rows,
        );
        let stats = solve(&mut rows, &mut vel, 20, SimdMode::Scalar);
        assert_eq!(stats.rows, 3);
        assert_eq!(stats.iterations, 20);
        assert!(stats.total_delta > 0.0);
    }

    /// The SSE2 within-row path must solve bit-identically to the scalar
    /// four-lane path on a mixed contact + friction + bilateral system.
    #[test]
    fn simd_solve_matches_scalar_bitwise() {
        let build = || {
            let mut vel = vec![free_unit_body(), free_unit_body()];
            vel[0].lin = Vec3::new(1.3, -2.0, 0.4);
            vel[0].ang = Vec3::new(0.2, -0.1, 0.05);
            vel[1].lin = Vec3::new(-0.7, 0.1, 0.0);
            vel[1].inv_inertia = Mat3::from_rows(
                Vec3::new(2.0, 0.1, 0.0),
                Vec3::new(0.1, 1.5, 0.2),
                Vec3::new(0.0, 0.2, 2.5),
            );
            let mut m = ContactManifold::new(GeomId(0), GeomId(1));
            m.friction = 0.4;
            m.restitution = 0.1;
            m.push(ContactPoint {
                position: Vec3::new(0.3, 0.0, -0.1),
                normal: Vec3::new(0.0, 1.0, 0.0),
                depth: 0.01,
                feature: 0,
            });
            let mut rows = RowSet::new();
            build_contact_rows(
                &m,
                0,
                1,
                Vec3::new(0.3, 0.5, 0.0),
                Vec3::new(0.3, -0.5, 0.0),
                &vel,
                &RowParams::default(),
                Some(&[[0.5, 0.1, -0.05]]),
                &mut rows,
            );
            let mut bi = Row::new(0, 1);
            bi.j_lin_a = pad(Vec3::new(0.6, 0.8, 0.0));
            bi.j_lin_b = pad(Vec3::new(-0.6, -0.8, 0.0));
            bi.j_ang_a = pad(Vec3::new(0.0, 0.3, -0.4));
            rows.push(bi, 0.0);
            (rows, vel)
        };
        let (mut rows_s, mut vel_s) = build();
        let (mut rows_v, mut vel_v) = build();
        solve(&mut rows_s, &mut vel_s, 25, SimdMode::Scalar);
        solve(&mut rows_v, &mut vel_v, 25, SimdMode::Sse2);
        let bits = |v: Vec3| [v.x.to_bits(), v.y.to_bits(), v.z.to_bits()];
        for i in 0..vel_s.len() {
            assert_eq!(bits(vel_s[i].lin), bits(vel_v[i].lin), "lin {i}");
            assert_eq!(bits(vel_s[i].ang), bits(vel_v[i].ang), "ang {i}");
        }
        for i in 0..rows_s.len() {
            assert_eq!(
                rows_s.lambda[i].to_bits(),
                rows_v.lambda[i].to_bits(),
                "λ {i}"
            );
        }
    }
}
