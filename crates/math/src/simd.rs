//! Width-generic SIMD primitives for the engine's hot kernels.
//!
//! The engine's determinism contract requires SIMD and scalar runs to be
//! *bit-identical*. Instead of writing a vector kernel and a scalar kernel
//! and arguing they match, every hot kernel is written **once**, generic
//! over a lane type implementing [`WideF32`], and instantiated at three
//! widths:
//!
//! * `f32` — one lane; this *is* the scalar fallback,
//! * [`F32x4`] — SSE2 `__m128` (statically available on x86-64),
//! * [`F32x8`] — AVX2 `__m256` (runtime-detected).
//!
//! Per-lane IEEE-754 `add`/`sub`/`mul`/`div`/`sqrt` are exactly rounded
//! and identical between scalar and packed instructions, the kernels use
//! no horizontal (lane-crossing) operations, and Rust never contracts
//! `a * b + c` into an FMA, so all three instantiations produce the same
//! bits for the same inputs by construction. Conditionals inside kernels
//! are expressed as comparison masks plus [`WideF32::select`] — a pure
//! bitwise blend, again identical at every width.
//!
//! [`Wide4`] is the second, smaller abstraction: a fixed 4-lane register
//! used by the constraint-row solver, whose rows are 3-vectors and whose
//! projection is sequentially dependent row-to-row (so only within-row
//! 128-bit parallelism applies). Its two impls ([`ScalarX4`], [`Sse4`])
//! share all control flow through the same generic solver loop.
//!
//! [`SimdMode`] selects the widest instantiation to dispatch to;
//! `WorldConfig::simd` carries it, defaulting to [`SimdMode::resolve`].

use std::ops::{Add, Div, Mul, Neg, Sub};

use crate::Vec3;

#[cfg(target_arch = "x86_64")]
use std::arch::x86_64::*;

/// Which kernel instantiation the engine dispatches to.
///
/// Ordered by width: `Scalar < Sse2 < Avx2`. A mode is only ever *run*
/// after [`SimdMode::clamp_to_supported`], so requesting `Avx2` on a
/// machine without it degrades rather than faulting.
#[derive(Debug, Clone, Copy, PartialEq, Eq, PartialOrd, Ord)]
pub enum SimdMode {
    /// One lane per operation — the reference path.
    Scalar,
    /// 4 lanes via SSE2 (baseline on every x86-64 CPU).
    Sse2,
    /// 8 lanes via AVX2 where the sweep shape allows it (runtime-detected).
    Avx2,
}

impl SimdMode {
    /// The widest mode this CPU executes — the default everywhere a mode
    /// is not chosen explicitly.
    pub fn resolve() -> SimdMode {
        #[cfg(target_arch = "x86_64")]
        {
            if std::arch::is_x86_feature_detected!("avx2") {
                SimdMode::Avx2
            } else {
                SimdMode::Sse2
            }
        }
        #[cfg(not(target_arch = "x86_64"))]
        {
            SimdMode::Scalar
        }
    }

    /// Clamps a requested mode down to what the running CPU can execute.
    pub fn clamp_to_supported(self) -> SimdMode {
        self.min(SimdMode::resolve())
    }

    /// Short name used in bench-gate envelopes and telemetry.
    pub fn name(self) -> &'static str {
        match self {
            SimdMode::Scalar => "scalar",
            SimdMode::Sse2 => "sse2",
            SimdMode::Avx2 => "avx2",
        }
    }

    /// Parses [`SimdMode::name`] output.
    pub fn from_name(s: &str) -> Option<SimdMode> {
        match s {
            "scalar" => Some(SimdMode::Scalar),
            "sse2" => Some(SimdMode::Sse2),
            "avx2" => Some(SimdMode::Avx2),
            _ => None,
        }
    }

    /// Stable numeric encoding for the telemetry gauge (0/1/2).
    pub fn gauge_value(self) -> u64 {
        match self {
            SimdMode::Scalar => 0,
            SimdMode::Sse2 => 1,
            SimdMode::Avx2 => 2,
        }
    }
}

/// A pack of `LANES` `f32` values with exactly-rounded per-lane
/// arithmetic. See the module docs for the bit-identity argument.
///
/// Comparison results and `select` masks are lanes of all-ones
/// (`0xFFFF_FFFF`) or all-zeros bit patterns carried in the same type.
pub trait WideF32:
    Copy
    + Add<Output = Self>
    + Sub<Output = Self>
    + Mul<Output = Self>
    + Div<Output = Self>
    + Neg<Output = Self>
{
    /// Lane count.
    const LANES: usize;

    /// All lanes set to `v`.
    fn splat(v: f32) -> Self;

    /// Loads `LANES` consecutive values from `s[i..]`.
    fn load(s: &[f32], i: usize) -> Self;

    /// Stores `LANES` consecutive values to `s[i..]`.
    fn store(self, s: &mut [f32], i: usize);

    /// Lane `j` set to `f(j)`, for `j` in `0..LANES` in order. Built in
    /// registers: filling a stack array lane by lane and loading it whole
    /// stalls on store forwarding, which a gather of scattered values
    /// (cloth rest lengths, read through constraint indices) would pay
    /// for every vector.
    fn from_fn(f: impl FnMut(usize) -> f32) -> Self;

    /// The four-float records `rows[row(j)]`, `j` in `0..LANES`,
    /// transposed: lane `j` of the `k`-th result is `rows[row(j)][k]`.
    /// One load per record instead of four lane inserts (a cloth vertex's
    /// position and pin mask).
    fn load_rows(rows: &[[f32; 4]], row: impl Fn(usize) -> usize) -> [Self; 4];

    /// The inverse of [`WideF32::load_rows`]: writes lane `j` of `cols[k]`
    /// to `rows[row(j)][k]`, one store per record, in lane order.
    fn store_rows(cols: [Self; 4], rows: &mut [[f32; 4]], row: impl Fn(usize) -> usize);

    /// Exactly-rounded per-lane square root.
    fn sqrt(self) -> Self;

    /// Per-lane absolute value: the sign bit cleared, as `f32::abs`.
    fn abs(self) -> Self;

    /// Per-lane `self > o` as an all-ones/all-zeros mask.
    fn gt(self, o: Self) -> Self;

    /// Bitwise blend: lanes of `a` where `mask` is all-ones, `b` where
    /// all-zeros. Never inspects the values arithmetically, so NaN/Inf
    /// garbage in discarded lanes is harmless.
    fn select(mask: Self, a: Self, b: Self) -> Self;

    /// Per-lane `f32::exp`, computed by the *scalar* libm call on every
    /// lane in both paths so transcendental results cannot diverge
    /// between widths.
    fn exp(self) -> Self;
}

impl WideF32 for f32 {
    const LANES: usize = 1;

    #[inline(always)]
    fn splat(v: f32) -> Self {
        v
    }

    #[inline(always)]
    fn load(s: &[f32], i: usize) -> Self {
        s[i]
    }

    #[inline(always)]
    fn store(self, s: &mut [f32], i: usize) {
        s[i] = self;
    }

    #[inline(always)]
    fn from_fn(mut f: impl FnMut(usize) -> f32) -> Self {
        f(0)
    }

    #[inline(always)]
    fn load_rows(rows: &[[f32; 4]], row: impl Fn(usize) -> usize) -> [Self; 4] {
        rows[row(0)]
    }

    #[inline(always)]
    fn store_rows(cols: [Self; 4], rows: &mut [[f32; 4]], row: impl Fn(usize) -> usize) {
        rows[row(0)] = cols;
    }

    #[inline(always)]
    fn sqrt(self) -> Self {
        f32::sqrt(self)
    }

    #[inline(always)]
    fn abs(self) -> Self {
        f32::abs(self)
    }

    #[inline(always)]
    fn gt(self, o: Self) -> Self {
        f32::from_bits(if self > o { u32::MAX } else { 0 })
    }

    #[inline(always)]
    fn select(mask: Self, a: Self, b: Self) -> Self {
        let m = mask.to_bits();
        f32::from_bits((m & a.to_bits()) | (!m & b.to_bits()))
    }

    #[inline(always)]
    fn exp(self) -> Self {
        f32::exp(self)
    }
}

/// Four `f32` lanes in an SSE2 `__m128`. SSE2 is part of the x86-64
/// baseline, so this type needs no runtime detection.
#[cfg(target_arch = "x86_64")]
#[derive(Debug, Clone, Copy)]
pub struct F32x4(__m128);

#[cfg(target_arch = "x86_64")]
impl Add for F32x4 {
    type Output = Self;
    #[inline(always)]
    fn add(self, o: Self) -> Self {
        // SAFETY: SSE2 is part of the x86-64 baseline.
        F32x4(unsafe { _mm_add_ps(self.0, o.0) })
    }
}

#[cfg(target_arch = "x86_64")]
impl Sub for F32x4 {
    type Output = Self;
    #[inline(always)]
    fn sub(self, o: Self) -> Self {
        // SAFETY: SSE2 is part of the x86-64 baseline.
        F32x4(unsafe { _mm_sub_ps(self.0, o.0) })
    }
}

#[cfg(target_arch = "x86_64")]
impl Mul for F32x4 {
    type Output = Self;
    #[inline(always)]
    fn mul(self, o: Self) -> Self {
        // SAFETY: SSE2 is part of the x86-64 baseline.
        F32x4(unsafe { _mm_mul_ps(self.0, o.0) })
    }
}

#[cfg(target_arch = "x86_64")]
impl Div for F32x4 {
    type Output = Self;
    #[inline(always)]
    fn div(self, o: Self) -> Self {
        // SAFETY: SSE2 is part of the x86-64 baseline.
        F32x4(unsafe { _mm_div_ps(self.0, o.0) })
    }
}

#[cfg(target_arch = "x86_64")]
impl Neg for F32x4 {
    type Output = Self;
    #[inline(always)]
    fn neg(self) -> Self {
        // IEEE negation is a sign-bit flip — identical to scalar `-x`.
        // SAFETY: SSE2 is part of the x86-64 baseline.
        F32x4(unsafe { _mm_xor_ps(self.0, _mm_set1_ps(-0.0)) })
    }
}

#[cfg(target_arch = "x86_64")]
impl WideF32 for F32x4 {
    const LANES: usize = 4;

    #[inline(always)]
    fn splat(v: f32) -> Self {
        // SAFETY: SSE2 is part of the x86-64 baseline.
        F32x4(unsafe { _mm_set1_ps(v) })
    }

    #[inline(always)]
    fn load(s: &[f32], i: usize) -> Self {
        assert!(i + 4 <= s.len());
        // SAFETY: the assert above bounds-checks the 4-lane read; `f32`
        // has no alignment requirement for `loadu`.
        F32x4(unsafe { _mm_loadu_ps(s.as_ptr().add(i)) })
    }

    #[inline(always)]
    fn store(self, s: &mut [f32], i: usize) {
        assert!(i + 4 <= s.len());
        // SAFETY: the assert above bounds-checks the 4-lane write;
        // `storeu` has no alignment requirement.
        unsafe { _mm_storeu_ps(s.as_mut_ptr().add(i), self.0) }
    }

    #[inline(always)]
    fn from_fn(mut f: impl FnMut(usize) -> f32) -> Self {
        let (a, b, c, d) = (f(0), f(1), f(2), f(3));
        // SAFETY: SSE2 is part of the x86-64 baseline.
        F32x4(unsafe { _mm_setr_ps(a, b, c, d) })
    }

    #[inline(always)]
    fn load_rows(rows: &[[f32; 4]], row: impl Fn(usize) -> usize) -> [Self; 4] {
        // SAFETY: each pointer comes from a bounds-checked `&[f32; 4]`, so
        // the 4-lane unaligned read stays inside it; SSE2 is baseline.
        let r = |j: usize| unsafe { _mm_loadu_ps(rows[row(j)].as_ptr()) };
        // SAFETY: SSE2 is part of the x86-64 baseline.
        unsafe { transpose4(r(0), r(1), r(2), r(3)) }.map(F32x4)
    }

    #[inline(always)]
    fn store_rows(cols: [Self; 4], rows: &mut [[f32; 4]], row: impl Fn(usize) -> usize) {
        // SAFETY: SSE2 is part of the x86-64 baseline.
        let r = unsafe { transpose4(cols[0].0, cols[1].0, cols[2].0, cols[3].0) };
        for (j, r) in r.into_iter().enumerate() {
            // SAFETY: the pointer comes from a bounds-checked
            // `&mut [f32; 4]`, so the 4-lane unaligned write stays inside
            // it.
            unsafe { _mm_storeu_ps(rows[row(j)].as_mut_ptr(), r) }
        }
    }

    #[inline(always)]
    fn sqrt(self) -> Self {
        // SAFETY: SSE2 is part of the x86-64 baseline. `sqrtps` is
        // IEEE correctly rounded, identical to scalar `f32::sqrt`.
        F32x4(unsafe { _mm_sqrt_ps(self.0) })
    }

    #[inline(always)]
    fn abs(self) -> Self {
        // SAFETY: SSE2 is part of the x86-64 baseline.
        F32x4(unsafe { _mm_andnot_ps(_mm_set1_ps(-0.0), self.0) })
    }

    #[inline(always)]
    fn gt(self, o: Self) -> Self {
        // SAFETY: SSE2 is part of the x86-64 baseline.
        F32x4(unsafe { _mm_cmpgt_ps(self.0, o.0) })
    }

    #[inline(always)]
    fn select(mask: Self, a: Self, b: Self) -> Self {
        // SSE2 has no blendv; and/andnot/or is the classic bitwise blend.
        // SAFETY: SSE2 is part of the x86-64 baseline.
        F32x4(unsafe { _mm_or_ps(_mm_and_ps(mask.0, a.0), _mm_andnot_ps(mask.0, b.0)) })
    }

    #[inline(always)]
    fn exp(self) -> Self {
        let mut a = [0.0f32; 4];
        self.store(&mut a, 0);
        for v in &mut a {
            *v = f32::exp(*v);
        }
        Self::load(&a, 0)
    }
}

/// Eight `f32` lanes in an AVX `__m256`.
///
/// # Safety discipline
///
/// The AVX intrinsics below are compiled without the feature enabled
/// crate-wide, so executing them on a CPU without AVX2 is undefined
/// behaviour. Every value of this type is created on a dispatch path
/// that first checked `is_x86_feature_detected!("avx2")` (see
/// [`SimdMode::clamp_to_supported`]); kernels instantiated at `F32x8`
/// are additionally wrapped in `#[target_feature(enable = "avx2")]`
/// functions at their call sites so the whole sweep is compiled as AVX2
/// code.
#[cfg(target_arch = "x86_64")]
#[derive(Debug, Clone, Copy)]
pub struct F32x8(__m256);

#[cfg(target_arch = "x86_64")]
impl Add for F32x8 {
    type Output = Self;
    #[inline(always)]
    fn add(self, o: Self) -> Self {
        // SAFETY: F32x8 values only exist on AVX2-verified dispatch paths
        // (see the type docs).
        F32x8(unsafe { _mm256_add_ps(self.0, o.0) })
    }
}

#[cfg(target_arch = "x86_64")]
impl Sub for F32x8 {
    type Output = Self;
    #[inline(always)]
    fn sub(self, o: Self) -> Self {
        // SAFETY: as for Add — AVX2 presence was runtime-verified.
        F32x8(unsafe { _mm256_sub_ps(self.0, o.0) })
    }
}

#[cfg(target_arch = "x86_64")]
impl Mul for F32x8 {
    type Output = Self;
    #[inline(always)]
    fn mul(self, o: Self) -> Self {
        // SAFETY: as for Add — AVX2 presence was runtime-verified.
        F32x8(unsafe { _mm256_mul_ps(self.0, o.0) })
    }
}

#[cfg(target_arch = "x86_64")]
impl Div for F32x8 {
    type Output = Self;
    #[inline(always)]
    fn div(self, o: Self) -> Self {
        // SAFETY: as for Add — AVX2 presence was runtime-verified.
        F32x8(unsafe { _mm256_div_ps(self.0, o.0) })
    }
}

#[cfg(target_arch = "x86_64")]
impl Neg for F32x8 {
    type Output = Self;
    #[inline(always)]
    fn neg(self) -> Self {
        // SAFETY: as for Add — AVX2 presence was runtime-verified.
        // IEEE negation is a sign-bit flip — identical to scalar `-x`.
        F32x8(unsafe { _mm256_xor_ps(self.0, _mm256_set1_ps(-0.0)) })
    }
}

#[cfg(target_arch = "x86_64")]
impl WideF32 for F32x8 {
    const LANES: usize = 8;

    #[inline(always)]
    fn splat(v: f32) -> Self {
        // SAFETY: F32x8 values only exist on AVX2-verified dispatch paths.
        F32x8(unsafe { _mm256_set1_ps(v) })
    }

    #[inline(always)]
    fn load(s: &[f32], i: usize) -> Self {
        assert!(i + 8 <= s.len());
        // SAFETY: the assert bounds-checks the 8-lane read, `loadu` has
        // no alignment requirement, and AVX2 presence was runtime-verified.
        F32x8(unsafe { _mm256_loadu_ps(s.as_ptr().add(i)) })
    }

    #[inline(always)]
    fn store(self, s: &mut [f32], i: usize) {
        assert!(i + 8 <= s.len());
        // SAFETY: the assert bounds-checks the 8-lane write, `storeu` has
        // no alignment requirement, and AVX2 presence was runtime-verified.
        unsafe { _mm256_storeu_ps(s.as_mut_ptr().add(i), self.0) }
    }

    #[inline(always)]
    fn from_fn(mut f: impl FnMut(usize) -> f32) -> Self {
        let l = [f(0), f(1), f(2), f(3), f(4), f(5), f(6), f(7)];
        // SAFETY: F32x8 values only exist on AVX2-verified dispatch paths.
        F32x8(unsafe { _mm256_setr_ps(l[0], l[1], l[2], l[3], l[4], l[5], l[6], l[7]) })
    }

    #[inline(always)]
    fn load_rows(rows: &[[f32; 4]], row: impl Fn(usize) -> usize) -> [Self; 4] {
        // Record `k` in the low half and record `k + 4` in the high half,
        // then one in-lane 4×4 transpose per half.
        // SAFETY: each pointer comes from a bounds-checked `&[f32; 4]`, so
        // every 4-lane unaligned read stays inside it; F32x8 values only
        // exist on AVX2-verified dispatch paths.
        unsafe {
            let r = |j: usize| _mm_loadu_ps(rows[row(j)].as_ptr());
            let pair = |k: usize| _mm256_set_m128(r(k + 4), r(k));
            transpose4x2(pair(0), pair(1), pair(2), pair(3)).map(F32x8)
        }
    }

    #[inline(always)]
    fn store_rows(cols: [Self; 4], rows: &mut [[f32; 4]], row: impl Fn(usize) -> usize) {
        // SAFETY: F32x8 values only exist on AVX2-verified dispatch paths;
        // each pointer comes from a bounds-checked `&mut [f32; 4]`, so
        // every 4-lane unaligned write stays inside it.
        unsafe {
            let pairs = transpose4x2(cols[0].0, cols[1].0, cols[2].0, cols[3].0);
            for (k, p) in pairs.into_iter().enumerate() {
                _mm_storeu_ps(rows[row(k)].as_mut_ptr(), _mm256_castps256_ps128(p));
            }
            for (k, p) in pairs.into_iter().enumerate() {
                _mm_storeu_ps(rows[row(k + 4)].as_mut_ptr(), _mm256_extractf128_ps::<1>(p));
            }
        }
    }

    #[inline(always)]
    fn sqrt(self) -> Self {
        // SAFETY: AVX2 presence was runtime-verified. `vsqrtps` is
        // IEEE correctly rounded, identical to scalar `f32::sqrt`.
        F32x8(unsafe { _mm256_sqrt_ps(self.0) })
    }

    #[inline(always)]
    fn abs(self) -> Self {
        // SAFETY: AVX2 presence was runtime-verified.
        F32x8(unsafe { _mm256_andnot_ps(_mm256_set1_ps(-0.0), self.0) })
    }

    #[inline(always)]
    fn gt(self, o: Self) -> Self {
        // SAFETY: AVX2 presence was runtime-verified.
        F32x8(unsafe { _mm256_cmp_ps::<_CMP_GT_OQ>(self.0, o.0) })
    }

    #[inline(always)]
    fn select(mask: Self, a: Self, b: Self) -> Self {
        // SAFETY: AVX2 presence was runtime-verified. `blendv` keys on
        // each lane's sign bit; our masks are all-ones or all-zeros, so
        // this equals the bitwise blend of the other widths.
        F32x8(unsafe { _mm256_blendv_ps(b.0, a.0, mask.0) })
    }

    #[inline(always)]
    fn exp(self) -> Self {
        let mut a = [0.0f32; 8];
        self.store(&mut a, 0);
        for v in &mut a {
            *v = f32::exp(*v);
        }
        Self::load(&a, 0)
    }
}

/// A fixed four-lane register for the constraint solver's within-row
/// arithmetic (3-vectors padded with a zero lane).
///
/// The row projection of a PGS solver is sequentially dependent from row
/// to row, so the only exploitable parallelism is *within* a row — 3-wide
/// jacobian dot products and impulse applications. Both impls share the
/// same generic solver loop; `dot3` reduces by explicit lane extraction
/// in the fixed order `(p0 + p1) + p2`, so the two produce identical
/// bits.
pub trait Wide4: Copy + Add<Output = Self> + Mul<Output = Self> {
    /// `[v.x, v.y, v.z, 0.0]`.
    fn from_vec3(v: Vec3) -> Self;

    /// Lanes from an array.
    fn from_array(a: [f32; 4]) -> Self;

    /// All lanes set to `v`.
    fn splat(v: f32) -> Self;

    /// Lanes to an array.
    fn to_array(self) -> [f32; 4];

    /// First three lanes as a [`Vec3`].
    #[inline(always)]
    fn to_vec3(self) -> Vec3 {
        let a = self.to_array();
        Vec3::new(a[0], a[1], a[2])
    }

    /// 3-lane dot product with the canonical reduction order
    /// `(p0 + p1) + p2` — the same association the scalar
    /// `Vec3::dot` uses.
    #[inline(always)]
    fn dot3(self, o: Self) -> f32 {
        let p = (self * o).to_array();
        (p[0] + p[1]) + p[2]
    }

    /// Fused pair of 3-lane dots: `Σ_lane (a·va + b·vb)` with the
    /// elementwise sum taken *before* the one `(t0 + t1) + t2`
    /// reduction. This is the J·v shape (linear + angular block of one
    /// body); one reduction instead of two. Both impls use exactly this
    /// association, so the result is bit-identical across them (it is
    /// *not* the same association as `dot3(a,va) + dot3(b,vb)`).
    #[inline(always)]
    fn dot3_pair(a: Self, va: Self, b: Self, vb: Self) -> f32 {
        let t = (a * va + b * vb).to_array();
        (t[0] + t[1]) + t[2]
    }
}

/// Plain-array [`Wide4`]: the scalar fallback the solver runs when SIMD
/// is off (and on non-x86 targets).
#[derive(Debug, Clone, Copy)]
pub struct ScalarX4([f32; 4]);

impl Add for ScalarX4 {
    type Output = Self;
    #[inline(always)]
    fn add(self, o: Self) -> Self {
        let (a, b) = (self.0, o.0);
        ScalarX4([a[0] + b[0], a[1] + b[1], a[2] + b[2], a[3] + b[3]])
    }
}

impl Mul for ScalarX4 {
    type Output = Self;
    #[inline(always)]
    fn mul(self, o: Self) -> Self {
        let (a, b) = (self.0, o.0);
        ScalarX4([a[0] * b[0], a[1] * b[1], a[2] * b[2], a[3] * b[3]])
    }
}

impl Wide4 for ScalarX4 {
    #[inline(always)]
    fn from_vec3(v: Vec3) -> Self {
        ScalarX4([v.x, v.y, v.z, 0.0])
    }

    #[inline(always)]
    fn from_array(a: [f32; 4]) -> Self {
        ScalarX4(a)
    }

    #[inline(always)]
    fn splat(v: f32) -> Self {
        ScalarX4([v; 4])
    }

    #[inline(always)]
    fn to_array(self) -> [f32; 4] {
        self.0
    }
}

/// SSE2 [`Wide4`] used whenever any SIMD mode is active.
#[cfg(target_arch = "x86_64")]
#[derive(Debug, Clone, Copy)]
pub struct Sse4(__m128);

#[cfg(target_arch = "x86_64")]
impl Add for Sse4 {
    type Output = Self;
    #[inline(always)]
    fn add(self, o: Self) -> Self {
        // SAFETY: SSE2 is part of the x86-64 baseline.
        Sse4(unsafe { _mm_add_ps(self.0, o.0) })
    }
}

#[cfg(target_arch = "x86_64")]
impl Mul for Sse4 {
    type Output = Self;
    #[inline(always)]
    fn mul(self, o: Self) -> Self {
        // SAFETY: SSE2 is part of the x86-64 baseline.
        Sse4(unsafe { _mm_mul_ps(self.0, o.0) })
    }
}

#[cfg(target_arch = "x86_64")]
impl Wide4 for Sse4 {
    #[inline(always)]
    fn from_vec3(v: Vec3) -> Self {
        // SAFETY: SSE2 is part of the x86-64 baseline.
        Sse4(unsafe { _mm_set_ps(0.0, v.z, v.y, v.x) })
    }

    #[inline(always)]
    fn from_array(a: [f32; 4]) -> Self {
        // SAFETY: SSE2 is part of the x86-64 baseline; `a` is exactly 16
        // bytes and `loadu` has no alignment requirement.
        Sse4(unsafe { _mm_loadu_ps(a.as_ptr()) })
    }

    #[inline(always)]
    fn splat(v: f32) -> Self {
        // SAFETY: SSE2 is part of the x86-64 baseline.
        Sse4(unsafe { _mm_set1_ps(v) })
    }

    #[inline(always)]
    fn to_array(self) -> [f32; 4] {
        let mut a = [0.0f32; 4];
        // SAFETY: `a` is exactly 16 bytes and `storeu` has no alignment
        // requirement.
        unsafe { _mm_storeu_ps(a.as_mut_ptr(), self.0) };
        a
    }

    /// In-register reduction: lane adds via `addss` in the canonical
    /// `(p0 + p1) + p2` order — the identical sequence of IEEE f32
    /// additions as the default, without the store/reload round trip.
    #[inline(always)]
    fn dot3(self, o: Self) -> f32 {
        // SAFETY: SSE2 is part of the x86-64 baseline.
        unsafe { reduce3(_mm_mul_ps(self.0, o.0)) }
    }

    /// First three lanes extracted in-register (no store/reload).
    #[inline(always)]
    fn to_vec3(self) -> Vec3 {
        let p = self.0;
        // SAFETY: SSE2 is part of the x86-64 baseline.
        unsafe {
            Vec3::new(
                _mm_cvtss_f32(p),
                _mm_cvtss_f32(_mm_shuffle_ps(p, p, 0b01_01_01_01)),
                _mm_cvtss_f32(_mm_shuffle_ps(p, p, 0b10_10_10_10)),
            )
        }
    }

    /// Elementwise `a·va + b·vb`, then one in-register `(t0 + t1) + t2`
    /// reduction — the same association as the default impl.
    #[inline(always)]
    fn dot3_pair(a: Self, va: Self, b: Self, vb: Self) -> f32 {
        // SAFETY: SSE2 is part of the x86-64 baseline.
        unsafe { reduce3(_mm_add_ps(_mm_mul_ps(a.0, va.0), _mm_mul_ps(b.0, vb.0))) }
    }
}

/// `(p0 + p1) + p2` of an `__m128` via `addss` — the scalar association,
/// entirely in registers.
#[cfg(target_arch = "x86_64")]
#[inline(always)]
unsafe fn reduce3(p: __m128) -> f32 {
    // SAFETY: SSE2 is part of the x86-64 baseline (caller contract).
    unsafe {
        let p1 = _mm_shuffle_ps(p, p, 0b01_01_01_01);
        let p2 = _mm_shuffle_ps(p, p, 0b10_10_10_10);
        _mm_cvtss_f32(_mm_add_ss(_mm_add_ss(p, p1), p2))
    }
}

/// 4×4 transpose of `[a, b, c, d]`: result `k` holds element `k` of each.
/// Its own inverse.
///
/// # Safety
///
/// The CPU must support SSE (part of the x86-64 baseline).
#[cfg(target_arch = "x86_64")]
#[inline(always)]
unsafe fn transpose4(a: __m128, b: __m128, c: __m128, d: __m128) -> [__m128; 4] {
    // SAFETY: SSE2 is part of the x86-64 baseline (caller contract).
    unsafe {
        let ab_lo = _mm_unpacklo_ps(a, b); // a0 b0 a1 b1
        let cd_lo = _mm_unpacklo_ps(c, d); // c0 d0 c1 d1
        let ab_hi = _mm_unpackhi_ps(a, b); // a2 b2 a3 b3
        let cd_hi = _mm_unpackhi_ps(c, d); // c2 d2 c3 d3
        [
            _mm_movelh_ps(ab_lo, cd_lo),
            _mm_movehl_ps(cd_lo, ab_lo),
            _mm_movelh_ps(ab_hi, cd_hi),
            _mm_movehl_ps(cd_hi, ab_hi),
        ]
    }
}

/// [`transpose4`] within each 128-bit half of four `__m256`.
///
/// # Safety
///
/// The CPU must support AVX.
#[cfg(target_arch = "x86_64")]
#[inline(always)]
unsafe fn transpose4x2(a: __m256, b: __m256, c: __m256, d: __m256) -> [__m256; 4] {
    // SAFETY: AVX presence is the caller's contract.
    unsafe {
        let ab_lo = _mm256_unpacklo_ps(a, b);
        let cd_lo = _mm256_unpacklo_ps(c, d);
        let ab_hi = _mm256_unpackhi_ps(a, b);
        let cd_hi = _mm256_unpackhi_ps(c, d);
        [
            _mm256_shuffle_ps::<0b01_00_01_00>(ab_lo, cd_lo),
            _mm256_shuffle_ps::<0b11_10_11_10>(ab_lo, cd_lo),
            _mm256_shuffle_ps::<0b01_00_01_00>(ab_hi, cd_hi),
            _mm256_shuffle_ps::<0b11_10_11_10>(ab_hi, cd_hi),
        ]
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    fn lanes8() -> [f32; 8] {
        [1.5, -2.25, 0.0, -0.0, 3.0e-7, 41.0, -17.5, 8.0]
    }

    /// Runs a binary op at every width over the same data and asserts the
    /// results are bit-identical to the f32 instantiation.
    fn check_binary<FS, F4, F8>(fs: FS, f4: F4, f8: F8)
    where
        FS: Fn(f32, f32) -> f32,
        F4: Fn(F32x4, F32x4) -> F32x4,
        F8: Fn(F32x8, F32x8) -> F32x8,
    {
        let a = lanes8();
        let b = [0.5, 2.0, -0.0, 7.25, -1.0e-7, -41.0, 3.0, 0.125];
        let expect: Vec<u32> = a
            .iter()
            .zip(&b)
            .map(|(&x, &y)| fs(x, y).to_bits())
            .collect();
        let mut out4 = [0.0f32; 8];
        for i in (0..8).step_by(4) {
            f4(F32x4::load(&a, i), F32x4::load(&b, i)).store(&mut out4, i);
        }
        assert_eq!(out4.map(f32::to_bits).to_vec(), expect, "sse2 diverged");
        if std::arch::is_x86_feature_detected!("avx2") {
            let mut out8 = [0.0f32; 8];
            f8(F32x8::load(&a, 0), F32x8::load(&b, 0)).store(&mut out8, 0);
            assert_eq!(out8.map(f32::to_bits).to_vec(), expect, "avx2 diverged");
        }
    }

    /// `load_rows` transposes the addressed records into lanes at every
    /// width, and `store_rows` writes them back, leaving other records
    /// alone.
    #[test]
    fn rows_transpose_at_every_width() {
        let rows: Vec<[f32; 4]> = (0..12)
            .map(|i| [i as f32, i as f32 + 0.25, -(i as f32), f32::from_bits(i)])
            .collect();
        let pick = [9usize, 2, 11, 0, 5, 7, 3, 10];
        let expect = |k: usize, lanes: usize| -> Vec<u32> {
            pick[..lanes]
                .iter()
                .map(|&r| rows[r][k].to_bits())
                .collect()
        };
        let mut out = [0.0f32; 8];
        let cols4 = F32x4::load_rows(&rows, |j| pick[j]);
        for (k, c) in cols4.iter().enumerate() {
            c.store(&mut out, 0);
            assert_eq!(
                out[..4].iter().map(|v| v.to_bits()).collect::<Vec<_>>(),
                expect(k, 4)
            );
        }
        let mut back = vec![[0.0f32; 4]; 12];
        F32x4::store_rows(cols4, &mut back, |j| pick[j]);
        for (r, row) in back.iter().enumerate() {
            let want = if pick[..4].contains(&r) {
                rows[r]
            } else {
                [0.0; 4]
            };
            assert_eq!(
                row.map(f32::to_bits),
                want.map(f32::to_bits),
                "sse2 row {r}"
            );
        }
        if std::arch::is_x86_feature_detected!("avx2") {
            let cols8 = F32x8::load_rows(&rows, |j| pick[j]);
            for (k, c) in cols8.iter().enumerate() {
                c.store(&mut out, 0);
                assert_eq!(
                    out.iter().map(|v| v.to_bits()).collect::<Vec<_>>(),
                    expect(k, 8)
                );
            }
            let mut back = vec![[0.0f32; 4]; 12];
            F32x8::store_rows(cols8, &mut back, |j| pick[j]);
            for (r, row) in back.iter().enumerate() {
                let want = if pick.contains(&r) { rows[r] } else { [0.0; 4] };
                assert_eq!(
                    row.map(f32::to_bits),
                    want.map(f32::to_bits),
                    "avx2 row {r}"
                );
            }
        }
        assert_eq!(
            <f32 as WideF32>::load_rows(&rows, |_| 4).map(f32::to_bits),
            rows[4].map(f32::to_bits)
        );
    }

    #[test]
    fn arithmetic_is_bit_identical_across_widths() {
        check_binary(|a, b| a + b, |a, b| a + b, |a, b| a + b);
        check_binary(|a, b| a - b, |a, b| a - b, |a, b| a - b);
        check_binary(|a, b| a * b, |a, b| a * b, |a, b| a * b);
        check_binary(|a, b| a / b, |a, b| a / b, |a, b| a / b);
    }

    #[test]
    fn sqrt_exp_neg_are_bit_identical_across_widths() {
        check_binary(
            |a, b| WideF32::sqrt(a * b),
            |a, b| (a * b).sqrt(),
            |a, b| (a * b).sqrt(),
        );
        check_binary(
            |a, b| WideF32::exp(a * b),
            |a, b| (a * b).exp(),
            |a, b| (a * b).exp(),
        );
        check_binary(|a, _| -a, |a, _| -a, |a, _| -a);
    }

    #[test]
    fn abs_clears_the_sign_bit_at_every_width() {
        // `lanes8` carries both zeros.
        check_binary(|a, _| f32::abs(a), |a, _| a.abs(), |a, _| a.abs());
    }

    #[test]
    fn select_blends_bitwise_at_every_width() {
        check_binary(
            |a, b| WideF32::select(a.gt(b), a, b),
            |a, b| F32x4::select(a.gt(b), a, b),
            |a, b| F32x8::select(a.gt(b), a, b),
        );
    }

    #[test]
    fn wide4_dot3_matches_between_impls() {
        let a = [1.0f32, 2.5, -3.75, 999.0];
        let b = [0.125f32, -7.0, 2.0, 999.0];
        let s = ScalarX4::from_array(a).dot3(ScalarX4::from_array(b));
        let v = Sse4::from_array(a).dot3(Sse4::from_array(b));
        assert_eq!(s.to_bits(), v.to_bits());
        let w = Vec3::new(a[0], a[1], a[2]).dot(Vec3::new(b[0], b[1], b[2]));
        assert_eq!(
            s.to_bits(),
            w.to_bits(),
            "association differs from Vec3::dot"
        );
    }

    #[test]
    fn mode_resolution_orders_and_names() {
        assert!(SimdMode::Scalar < SimdMode::Sse2 && SimdMode::Sse2 < SimdMode::Avx2);
        for m in [SimdMode::Scalar, SimdMode::Sse2, SimdMode::Avx2] {
            assert_eq!(SimdMode::from_name(m.name()), Some(m));
        }
        assert_eq!(SimdMode::from_name("neon"), None);
        assert!(SimdMode::resolve() >= SimdMode::Sse2 || cfg!(not(target_arch = "x86_64")));
        assert_eq!(SimdMode::Avx2.clamp_to_supported(), SimdMode::resolve());
    }
}
