//! Per-kernel cost models.
//!
//! Calibrated to the paper's measurements: the per-kernel static code sizes
//! (§8.1.2: 277/177/221 unique static instructions for Narrowphase /
//! Island Processing / Cloth), the per-kernel unique data footprints
//! (1,668/604/376 B read and 100/128/308 B written per 100 iterations),
//! and the instruction mixes of Figures 7b and 9b.

use parallax_physics::{PhaseKind, ShapeKind};
use serde::{Deserialize, Serialize};

use crate::opmix::OpCounts;

/// The three fine-grain kernels plus the two serial phases.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Hash, Serialize, Deserialize)]
pub enum Kernel {
    /// Broad-phase sweep (serial).
    Broadphase,
    /// Narrow-phase object-pair kernel (FG).
    Narrowphase,
    /// Island creation / connected components (serial).
    IslandCreation,
    /// Island-processing LCP solver kernel (FG).
    IslandSolver,
    /// Cloth vertex/constraint kernel (FG).
    Cloth,
}

impl Kernel {
    /// The three kernels that run on FG cores (paper §8.1).
    pub const FG: [Kernel; 3] = [Kernel::Narrowphase, Kernel::IslandSolver, Kernel::Cloth];

    /// The kernel model a pipeline stage uses. This is the single mapping
    /// from the engine's phase enumeration to the kernel cost models; the
    /// architecture simulator and the CG→FG scheduler both key off it.
    pub fn of_phase(phase: PhaseKind) -> Kernel {
        match phase {
            PhaseKind::Broadphase => Kernel::Broadphase,
            PhaseKind::Narrowphase => Kernel::Narrowphase,
            PhaseKind::IslandCreation => Kernel::IslandCreation,
            PhaseKind::IslandProcessing => Kernel::IslandSolver,
            PhaseKind::Cloth => Kernel::Cloth,
        }
    }

    /// Unique static instructions of the kernel (paper §8.1.2). Only
    /// defined for the FG kernels; serial phases return an estimate.
    pub fn static_instructions(self) -> usize {
        match self {
            Kernel::Narrowphase => 277,
            Kernel::IslandSolver => 177,
            Kernel::Cloth => 221,
            Kernel::Broadphase => 410,
            Kernel::IslandCreation => 130,
        }
    }

    /// Unique bytes read per 100 kernel iterations (paper §8.1.2).
    pub fn unique_read_bytes_per_100(self) -> usize {
        match self {
            Kernel::Narrowphase => 1_668,
            Kernel::IslandSolver => 604,
            Kernel::Cloth => 376,
            Kernel::Broadphase => 2_000,
            Kernel::IslandCreation => 1_200,
        }
    }

    /// Unique bytes written per 100 kernel iterations (paper §8.1.2).
    pub fn unique_write_bytes_per_100(self) -> usize {
        match self {
            Kernel::Narrowphase => 100,
            Kernel::IslandSolver => 128,
            Kernel::Cloth => 308,
            Kernel::Broadphase => 400,
            Kernel::IslandCreation => 600,
        }
    }
}

/// Per-kernel calibration multipliers, fitted so the suite's instructions
/// per frame approach the paper's Table 3 measurements (34M for Periodic
/// up to 829M for Mix). Our from-scratch kernels are leaner than ODE's
/// (no dLCP matrix assembly, simpler cloth collision), so each unit of
/// engine work maps to this many times the base instruction estimate.
mod calibration {
    /// Broad-phase scale.
    pub const BROADPHASE: u64 = 5;
    /// Narrow-phase scale (ODE's per-pair dispatch and dContactGeom
    /// bookkeeping).
    pub const NARROWPHASE: u64 = 6;
    /// Considered-only pair rejection scale: ODE's near callback still
    /// runs the primitive collider before discarding contacts between
    /// disabled/static geoms, so rejection is a sizeable fraction of a
    /// full pair test.
    pub const PAIR_REJECT: u64 = 16;
    /// Island-creation scale.
    pub const ISLAND_CREATION: u64 = 5;
    /// Island-solver scale (dLCP row updates are heavier than our PGS).
    pub const ISLAND_SOLVER: u64 = 6;
    /// Cloth scale (the paper's cloth uses ray-casting + AABB-hierarchy
    /// collision per vertex and more relaxation work).
    pub const CLOTH: u64 = 70;
}

/// Cost model: instructions per unit of kernel work, with the class mix of
/// the paper's Figures 7b / 9b.
#[derive(Debug, Clone, Copy)]
pub struct KernelModel;

impl KernelModel {
    /// Broad-phase cost: `sort_ops` comparisons plus `overlap_tests` AABB
    /// tests plus per-geom bookkeeping.
    ///
    /// Mix target (Fig 7b, Broadphase bar): integer-dominant with a large
    /// branch share.
    pub fn broadphase(geoms: usize, sort_ops: usize, overlap_tests: usize) -> OpCounts {
        let g = geoms as u64;
        let s = sort_ops as u64;
        let t = overlap_tests as u64;
        // Per-geom hash update and insertion costs carry the ODE-cost
        // calibration; the AABB interval test itself is a handful of
        // instructions and is left unscaled.
        let scaled = OpCounts {
            int_alu: 14 * g + 8 * s,
            branch: 3 * g + 2 * s,
            fp_add: 2 * g,
            fp_mul: 0,
            fp_div_sqrt: 0,
            load: 8 * g + 3 * s,
            store: 4 * g + s,
            other: 2 * g + s,
        }
        .scaled(calibration::BROADPHASE);
        scaled
            + OpCounts {
                int_alu: 4 * t,
                branch: 3 * t,
                load: 4 * t,
                other: t,
                ..Default::default()
            }
    }

    /// Narrow-phase cost for one object pair of the given shape kinds
    /// producing `contacts` contact points.
    ///
    /// Mix target (Fig 9b, Narrowphase): integer ops and reads dominant,
    /// ~8% branches, few FP adds/muls.
    pub fn narrowphase_pair(shape_a: ShapeKind, shape_b: ShapeKind, contacts: usize) -> OpCounts {
        // Base complexity by shape pair (dispatch + primitive test).
        let complexity = |s: ShapeKind| -> u64 {
            match s {
                ShapeKind::Sphere => 60,
                ShapeKind::Plane => 40,
                ShapeKind::Capsule => 130,
                ShapeKind::Cuboid => 260,
                ShapeKind::Heightfield => 420,
                ShapeKind::TriMesh => 900,
            }
        };
        let base = complexity(shape_a) + complexity(shape_b);
        let c = contacts as u64;
        let total = base + 90 * c;
        // Distribute per the Narrowphase mix: 40% int, 8% branch, 30% rd,
        // 8% wr, 5% fp add, 4% fp mul, 5% other.
        OpCounts {
            int_alu: total * 40 / 100,
            branch: total * 8 / 100,
            fp_add: total * 5 / 100,
            fp_mul: total * 4 / 100,
            fp_div_sqrt: total / 100,
            load: total * 30 / 100,
            store: total * 8 / 100,
            other: total * 4 / 100,
        }
        .scaled(calibration::NARROWPHASE)
    }

    /// Cheap rejection of a considered-only pair (near-callback filter).
    pub fn pair_reject() -> OpCounts {
        OpCounts {
            int_alu: 14,
            branch: 6,
            load: 12,
            store: 2,
            other: 2,
            ..Default::default()
        }
        .scaled(calibration::PAIR_REJECT)
    }

    /// Island-creation cost: the serial connected-components scan.
    ///
    /// Mix target (Fig 7b, Island Serial): integer/branch/read heavy.
    pub fn island_creation(bodies: usize, union_ops: usize, find_ops: usize) -> OpCounts {
        let b = bodies as u64;
        let u = union_ops as u64;
        let f = find_ops as u64;
        OpCounts {
            int_alu: 10 * b + 8 * u + 6 * f,
            branch: 4 * b + 3 * u + 4 * f,
            fp_add: 0,
            fp_mul: 0,
            fp_div_sqrt: 0,
            load: 7 * b + 4 * u + 5 * f,
            store: 2 * b + 2 * u + f,
            other: b + u,
        }
        .scaled(calibration::ISLAND_CREATION)
    }

    /// Island-solver cost: `rows` constraint rows relaxed for
    /// `iterations` sweeps plus per-body integration.
    ///
    /// Mix target (Figs 7b/9b, Island Parallel): FP-dominant (≈32% FP
    /// add+mul), int and reads next.
    pub fn island_solver(rows: usize, iterations: usize, bodies: usize) -> OpCounts {
        let sweeps = (rows * iterations) as u64;
        let b = bodies as u64;
        OpCounts {
            int_alu: 9 * sweeps + 20 * b,
            branch: 2 * sweeps + 4 * b,
            fp_add: 8 * sweeps + 14 * b,
            fp_mul: 7 * sweeps + 12 * b,
            fp_div_sqrt: sweeps / 8,
            load: 10 * sweeps + 16 * b,
            store: 3 * sweeps + 8 * b,
            other: sweeps + 4 * b,
        }
        .scaled(calibration::ISLAND_SOLVER)
    }

    /// Cloth cost: Verlet integration over `vertices`, `projections`
    /// constraint relaxations, and `collision_tests` vertex-collider tests.
    ///
    /// Mix target (Fig 9b, Cloth): FP heavy (≈28% add+mul) with more
    /// branches than the island kernel plus FP divide/sqrt use.
    pub fn cloth(vertices: usize, projections: usize, collision_tests: usize) -> OpCounts {
        let v = vertices as u64;
        let p = projections as u64;
        let t = collision_tests as u64;
        OpCounts {
            int_alu: 10 * v + 6 * p + 8 * t,
            branch: 3 * v + 3 * p + 5 * t,
            fp_add: 9 * v + 6 * p + 5 * t,
            fp_mul: 7 * v + 5 * p + 4 * t,
            fp_div_sqrt: v / 2 + p + t / 4,
            load: 9 * v + 7 * p + 7 * t,
            store: 5 * v + 3 * p + t,
            other: 2 * v + p + t,
        }
        .scaled(calibration::CLOTH)
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn static_sizes_match_paper() {
        assert_eq!(Kernel::Narrowphase.static_instructions(), 277);
        assert_eq!(Kernel::IslandSolver.static_instructions(), 177);
        assert_eq!(Kernel::Cloth.static_instructions(), 221);
        // Largest kernel fits in 1.1 KB with 32-bit instructions (paper).
        assert!(Kernel::Narrowphase.static_instructions() * 4 <= 1_108);
    }

    #[test]
    fn narrowphase_mix_is_int_dominant_with_8pct_branches() {
        let ops = KernelModel::narrowphase_pair(ShapeKind::Cuboid, ShapeKind::Cuboid, 4);
        let f = ops.fractions();
        assert!(f[0] > 0.3, "int fraction {}", f[0]);
        assert!((f[1] - 0.08).abs() < 0.02, "branch fraction {}", f[1]);
        // Few FP ops.
        assert!(f[2] + f[3] < 0.15);
    }

    #[test]
    fn island_solver_mix_is_fp_dominant() {
        let ops = KernelModel::island_solver(120, 20, 10);
        let f = ops.fractions();
        let fp = f[2] + f[3];
        assert!((0.25..0.45).contains(&fp), "fp fraction {fp}");
        assert!(f[1] < 0.1, "solver has few branches: {}", f[1]);
    }

    #[test]
    fn cloth_mix_has_more_branches_than_solver_and_uses_sqrt() {
        let cloth = KernelModel::cloth(625, 625 * 8, 100);
        let solver = KernelModel::island_solver(120, 20, 10);
        let fc = cloth.fractions();
        let fs = solver.fractions();
        assert!(
            fc[1] > fs[1],
            "cloth branches {} vs solver {}",
            fc[1],
            fs[1]
        );
        assert!(cloth.fp_div_sqrt > 0);
    }

    #[test]
    fn costs_scale_with_work() {
        let small = KernelModel::narrowphase_pair(ShapeKind::Sphere, ShapeKind::Sphere, 1);
        let big = KernelModel::narrowphase_pair(ShapeKind::TriMesh, ShapeKind::Cuboid, 4);
        assert!(big.total() > small.total() * 3);
        let one_iter = KernelModel::island_solver(10, 1, 2);
        let twenty = KernelModel::island_solver(10, 20, 2);
        assert!(twenty.total() > one_iter.total() * 10);
    }

    #[test]
    fn broadphase_is_integer_dominant() {
        let ops = KernelModel::broadphase(1000, 10_000, 4_000);
        let f = ops.fractions();
        assert!(f[0] > 0.3);
        assert!(f[2] + f[3] < 0.05, "broadphase has almost no FP");
        assert!(f[1] > 0.10, "broadphase is branchy: {}", f[1]);
    }
}
