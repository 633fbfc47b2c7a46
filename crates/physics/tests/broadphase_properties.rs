//! Property-based equivalence of the broad-phase algorithms.
//!
//! `BruteForce` (`support/brute_force.rs`) tests every pair and is
//! trivially correct; sweep-and-prune
//! and the uniform grid must emit exactly the same pair list on arbitrary
//! AABB clouds — including negative coordinates, exactly touching boxes and
//! plane-sized AABBs that land in the grid's global bin — and the
//! persistent grid must keep doing so over whole sequences of frames,
//! whatever its history — with, frame for frame, the counts of the grid's
//! algorithm on its original data path (`support/reference_grid.rs`).

#[path = "support/brute_force.rs"]
mod brute_force;
#[path = "support/reference_grid.rs"]
mod reference_grid;

use brute_force::BruteForce;
use parallax_math::{Aabb, Vec3};
use parallax_physics::broadphase::{BroadphaseStats, GridScratch, SweepAndPrune, UniformGrid};
use parallax_physics::shape::GeomId;
use proptest::prelude::*;
use rand::rngs::SmallRng;
use rand::{Rng, SeedableRng};
use reference_grid::{counts, ReferenceGrid};

fn aabb_cloud(max_len: usize) -> impl Strategy<Value = Vec<(f32, f32, f32, f32, f32, f32)>> {
    // (center xyz in ±20, half-extents in (0, 3]) per box.
    prop::collection::vec(
        (
            -20.0f32..20.0,
            -20.0f32..20.0,
            -20.0f32..20.0,
            0.01f32..3.0,
            0.01f32..3.0,
            0.01f32..3.0,
        ),
        0..max_len,
    )
}

fn build(cloud: &[(f32, f32, f32, f32, f32, f32)]) -> Vec<(GeomId, Aabb)> {
    cloud
        .iter()
        .enumerate()
        .map(|(i, &(x, y, z, hx, hy, hz))| {
            (
                GeomId(i as u32),
                Aabb::from_center_half_extents(Vec3::new(x, y, z), Vec3::new(hx, hy, hz)),
            )
        })
        .collect()
}

const CELLS: [f32; 3] = [0.5, 1.2, 4.0];

/// The pairs exactly as one `pairs_into` call emits them: the canonical
/// order (sorted, deduplicated, `a < b`) is part of every algorithm's
/// contract.
fn emitted(
    pairs_into: impl FnOnce(&mut Vec<(GeomId, GeomId)>) -> BroadphaseStats,
) -> Vec<(GeomId, GeomId)> {
    let mut out = Vec::new();
    pairs_into(&mut out);
    out
}

fn assert_all_agree(aabbs: &[(GeomId, Aabb)]) {
    let oracle = emitted(|o| BruteForce.pairs_into(aabbs, o));
    assert!(oracle.iter().all(|(a, b)| a < b) && oracle.windows(2).all(|w| w[0] < w[1]));
    let sap = emitted(|o| SweepAndPrune::new().pairs_into(aabbs, o));
    assert_eq!(sap, oracle, "sweep-and-prune diverged from brute force");
    let mut scratch = GridScratch::default();
    for cell in CELLS {
        let grid = emitted(|o| UniformGrid::new(cell).pairs_into(aabbs, o, &mut scratch));
        assert_eq!(grid, oracle, "grid (cell {cell}) diverged from brute force");
    }
}

/// One geom of a temporal sequence.
#[derive(Clone, Copy)]
struct Actor {
    center: Vec3,
    half: Vec3,
    /// Carried by the input (enabled) this frame.
    present: bool,
    /// Plane-sized this frame: lands in the grid's global list.
    huge: bool,
}

/// Deterministic frame generator: every frame each actor stays exactly
/// where it was, jitters inside the grid's margin, drifts out of it, teleports, toggles its presence
/// (disable / re-enable) or swells to a plane-sized box and back; new
/// actors appear at the end of the id range (fracture debris).
struct Sequence {
    actors: Vec<Actor>,
    rng: SmallRng,
}

impl Sequence {
    fn new(cloud: &[(f32, f32, f32, f32, f32, f32)], seed: u64) -> Self {
        Sequence {
            actors: cloud
                .iter()
                .map(|&(x, y, z, hx, hy, hz)| Actor {
                    center: Vec3::new(x, y, z),
                    half: Vec3::new(hx, hy, hz),
                    present: true,
                    huge: false,
                })
                .collect(),
            rng: SmallRng::seed_from_u64(seed),
        }
    }

    /// Uniform in `[-scale, scale)` per axis.
    fn offset(&mut self, scale: f32) -> Vec3 {
        let mut axis = || self.rng.gen_range(-scale..scale);
        Vec3::new(axis(), axis(), axis())
    }

    fn advance(&mut self) {
        for i in 0..self.actors.len() {
            let roll = self.rng.gen_range(0u32..100);
            let step = match roll {
                0..=29 => Vec3::ZERO,
                30..=54 => self.offset(0.02),
                55..=79 => self.offset(0.4),
                80..=84 => {
                    self.actors[i].center = Vec3::ZERO;
                    self.offset(20.0)
                }
                85..=89 => {
                    self.actors[i].present = !self.actors[i].present;
                    Vec3::ZERO
                }
                90..=92 => {
                    self.actors[i].huge = !self.actors[i].huge;
                    Vec3::ZERO
                }
                _ => Vec3::ZERO,
            };
            self.actors[i].center += step;
        }
        if self.rng.gen_bool(0.25) {
            let center = self.offset(20.0);
            let half = self.offset(1.5).abs() + Vec3::splat(0.01);
            self.actors.push(Actor {
                center,
                half,
                present: true,
                huge: false,
            });
        }
    }

    fn frame(&self) -> Vec<(GeomId, Aabb)> {
        self.actors
            .iter()
            .enumerate()
            .filter(|(_, a)| a.present)
            .map(|(i, a)| {
                let half = if a.huge {
                    Vec3::new(1e7, 0.1, 1e7)
                } else {
                    a.half
                };
                (
                    GeomId(i as u32),
                    Aabb::from_center_half_extents(a.center, half),
                )
            })
            .collect()
    }
}

/// Feeds `frames` frames of one sequence to long-lived grids (one per cell
/// size), checking every frame's pairs against a fresh oracle and its
/// counts against a reference grid fed the same frames; returns the stats.
fn run_sequence(
    cloud: &[(f32, f32, f32, f32, f32, f32)],
    seed: u64,
    frames: usize,
) -> Vec<BroadphaseStats> {
    let mut sequence = Sequence::new(cloud, seed);
    // One scratch serves every grid, as one thread's serves every world.
    let mut grids = CELLS.map(UniformGrid::new);
    let mut scratch = GridScratch::default();
    let mut references = CELLS.map(ReferenceGrid::new);
    let mut out = Vec::new();
    let mut stats = Vec::new();
    for frame in 0..frames {
        let aabbs = sequence.frame();
        let oracle = emitted(|o| BruteForce.pairs_into(&aabbs, o));
        for (grid, reference) in grids.iter_mut().zip(&mut references) {
            let s = grid.pairs_into(&aabbs, &mut out, &mut scratch);
            assert_eq!(out, oracle, "grid diverged at frame {frame} (seed {seed})");
            let r = reference.pairs_into(&aabbs, &mut out);
            assert_eq!(
                counts(&s),
                counts(&r),
                "grid counts left the reference's at frame {frame} (seed {seed})"
            );
            stats.push(s);
        }
        sequence.advance();
    }
    stats
}

proptest! {
    #![proptest_config(ProptestConfig::with_cases(64))]

    #[test]
    fn algorithms_agree_on_random_clouds(cloud in aabb_cloud(40)) {
        assert_all_agree(&build(&cloud));
    }

    #[test]
    fn algorithms_agree_with_plane_sized_aabbs(
        cloud in aabb_cloud(24),
        planes in 1usize..3,
    ) {
        let mut aabbs = build(&cloud);
        // Plane-like AABBs: vast in two axes, thin in the third — these
        // overflow the grid's per-axis cell cap and take the global-bin
        // path.
        for p in 0..planes {
            aabbs.push((
                GeomId((cloud.len() + p) as u32),
                Aabb::from_center_half_extents(
                    Vec3::new(0.0, p as f32 * 2.0, 0.0),
                    Vec3::new(1e7, 0.1, 1e7),
                ),
            ));
        }
        assert_all_agree(&aabbs);
    }

    #[test]
    fn algorithms_agree_on_repeated_coherent_frames(cloud in aabb_cloud(24), dx in -0.5f32..0.5) {
        // Persistent state (SAP's kept permutation, the grid's scratch)
        // must not change results across frames of slowly moving boxes.
        let mut sap = SweepAndPrune::new();
        let (mut grid, mut scratch) = (UniformGrid::new(1.2), GridScratch::default());
        let mut out = Vec::new();
        for frame in 0..3 {
            let shifted: Vec<_> = cloud
                .iter()
                .map(|&(x, y, z, hx, hy, hz)| (x + dx * frame as f32, y, z, hx, hy, hz))
                .collect();
            let aabbs = build(&shifted);
            let oracle = emitted(|o| BruteForce.pairs_into(&aabbs, o));
            sap.pairs_into(&aabbs, &mut out);
            prop_assert_eq!(&out, &oracle, "SAP frame {}", frame);
            grid.pairs_into(&aabbs, &mut out, &mut scratch);
            prop_assert_eq!(&out, &oracle, "grid frame {}", frame);
        }
    }

    #[test]
    fn persistent_grid_tracks_the_oracle_over_frame_sequences(
        cloud in aabb_cloud(24),
        seed in any::<u64>(),
    ) {
        let stats = run_sequence(&cloud, seed, 24);
        // Work counts are a function of the frame history alone: a second
        // set of instances fed the same sequence reports the same numbers.
        prop_assert_eq!(stats, run_sequence(&cloud, seed, 24));
    }
}

#[test]
fn settled_sequence_does_no_cell_work() {
    // Frames that repeat exactly: after the first, nothing is inserted.
    let cloud: Vec<_> = (0..30)
        .map(|i| (i as f32 * 0.7 - 10.0, (i % 3) as f32, 0.0, 0.5, 0.5, 0.5))
        .collect();
    let aabbs = build(&cloud);
    for cell in CELLS {
        let (mut grid, mut scratch) = (UniformGrid::new(cell), GridScratch::default());
        let first = emitted(|o| grid.pairs_into(&aabbs, o, &mut scratch));
        let mut pairs = Vec::new();
        for _ in 0..3 {
            let stats = grid.pairs_into(&aabbs, &mut pairs, &mut scratch);
            assert_eq!(pairs, first);
            assert_eq!((stats.sort_ops, stats.reinserts), (0, 0));
        }
    }
}

#[test]
fn touching_boxes_count_as_overlapping_everywhere() {
    // Boxes sharing exactly one face: whatever the convention, all three
    // algorithms must apply the same one.
    let aabbs = vec![
        (
            GeomId(0),
            Aabb::from_center_half_extents(Vec3::ZERO, Vec3::splat(0.5)),
        ),
        (
            GeomId(1),
            Aabb::from_center_half_extents(Vec3::new(1.0, 0.0, 0.0), Vec3::splat(0.5)),
        ),
        (
            GeomId(2),
            Aabb::from_center_half_extents(Vec3::new(-3.0, 0.0, 0.0), Vec3::splat(0.5)),
        ),
    ];
    assert_all_agree(&aabbs);
}

#[test]
fn negative_coordinate_octant_is_not_special() {
    // Cell indices are floor()-ed; clusters straddling the origin and deep
    // in the negative octant must behave identically.
    let centers = [
        Vec3::new(-10.3, -7.7, -3.1),
        Vec3::new(-10.9, -7.2, -3.4),
        Vec3::new(-0.4, -0.4, -0.4),
        Vec3::new(0.4, 0.4, 0.4),
        Vec3::new(-100.0, -100.0, -100.0),
    ];
    let aabbs: Vec<_> = centers
        .iter()
        .enumerate()
        .map(|(i, c)| {
            (
                GeomId(i as u32),
                Aabb::from_center_half_extents(*c, Vec3::splat(0.6)),
            )
        })
        .collect();
    assert_all_agree(&aabbs);
}
