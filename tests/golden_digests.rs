//! Cross-commit golden digests: the trajectory contract across refactors.
//!
//! `tests/determinism.rs` and `tests/simd_equivalence.rs` compare two
//! configurations of *one* build; nothing there notices a commit that moves
//! every configuration together. These constants were recorded from the
//! commit before the island-processing data path was rebuilt (PR 13), with
//! the solver untouched, so a refactor that claims to preserve every
//! floating-point operation has to reproduce them bit for bit. A PR that
//! changes trajectories on purpose re-records them and says so.

use parallax_math::SimdMode;
use parallax_physics::world_digest;
use parallax_workloads::{BenchmarkId, SceneParams};

const STEPS: usize = 60;

fn digest_after(id: BenchmarkId, simd: SimdMode) -> u64 {
    let mut scene = id.build(&SceneParams {
        scale: 0.2,
        threads: 1,
        warm_starting: true,
        sleeping: false,
        digests: false,
        simd,
        ..SceneParams::default()
    });
    for _ in 0..STEPS {
        scene.step();
    }
    world_digest(&scene.world)
}

fn assert_golden(id: BenchmarkId, golden: u64) {
    let scalar = digest_after(id, SimdMode::Scalar);
    let widest = digest_after(id, SimdMode::Avx2.clamp_to_supported());
    assert_eq!(
        scalar,
        widest,
        "{}: scalar and widest SIMD disagree",
        id.name()
    );
    assert_eq!(
        scalar,
        golden,
        "{}: world_digest after {STEPS} steps is {scalar:#018x}, the pinned \
         trajectory is {golden:#018x}",
        id.name()
    );
}

#[test]
fn explosions_matches_the_pinned_trajectory() {
    assert_golden(BenchmarkId::Explosions, 0x26c0_ce11_4def_dbdf);
}

#[test]
fn mix_matches_the_pinned_trajectory() {
    assert_golden(BenchmarkId::Mix, 0xa076_bb56_2a3d_b31c);
}

#[test]
fn breakable_matches_the_pinned_trajectory() {
    assert_golden(BenchmarkId::Breakable, 0xf65b_6507_8f43_f41b);
}
