//! Step instrumentation: per-phase work records.
//!
//! The paper instruments phase boundaries with Simics MAGIC instructions;
//! here every [`crate::World::step`] returns a [`StepProfile`] describing
//! exactly how much work each of the five phases performed and which
//! entities it touched. The `parallax-trace` crate converts these records
//! into instruction and memory-reference streams for the architecture
//! simulator.

use std::time::Duration;

use serde::{Deserialize, Serialize};

use crate::broadphase::BroadphaseStats;
use crate::cloth::ClothStats;
use crate::island::IslandStats;
use crate::shape::ShapeKind;

/// The five computational phases of the physics pipeline (paper Figure 1).
#[derive(Debug, Clone, Copy, PartialEq, Eq, Hash, Serialize, Deserialize)]
pub enum PhaseKind {
    /// Broad-phase collision culling (serial).
    Broadphase,
    /// Narrow-phase contact generation (fine-grain parallel).
    Narrowphase,
    /// Island creation — connected components (serial).
    IslandCreation,
    /// Island processing — constraint solve + integration (CG+FG parallel).
    IslandProcessing,
    /// Cloth simulation (CG+FG parallel).
    Cloth,
}

impl PhaseKind {
    /// All phases in pipeline order.
    pub const ALL: [PhaseKind; 5] = [
        PhaseKind::Broadphase,
        PhaseKind::Narrowphase,
        PhaseKind::IslandCreation,
        PhaseKind::IslandProcessing,
        PhaseKind::Cloth,
    ];

    /// Display name matching the paper's figures.
    pub fn name(self) -> &'static str {
        match self {
            PhaseKind::Broadphase => "Broadphase",
            PhaseKind::Narrowphase => "Narrowphase",
            PhaseKind::IslandCreation => "Island Serial",
            PhaseKind::IslandProcessing => "Island Parallel",
            PhaseKind::Cloth => "Cloth",
        }
    }

    /// Span label for this phase's parallel fork/join region.
    ///
    /// The pipeline records a track-0 span named exactly [`name`]
    /// covering the whole phase; the executor labels the region's spans
    /// (caller + workers) with this suffixed form so critical-path
    /// attribution (`parallax_telemetry::attribution`) can tell the two
    /// apart. Must stay `"<name> region"` — the telemetry side matches
    /// on that suffix.
    ///
    /// [`name`]: PhaseKind::name
    pub fn region_label(self) -> &'static str {
        match self {
            PhaseKind::Broadphase => "Broadphase region",
            PhaseKind::Narrowphase => "Narrowphase region",
            PhaseKind::IslandCreation => "Island Serial region",
            PhaseKind::IslandProcessing => "Island Parallel region",
            PhaseKind::Cloth => "Cloth region",
        }
    }

    /// `true` for the two phases the paper identifies as serial.
    pub fn is_serial(self) -> bool {
        matches!(self, PhaseKind::Broadphase | PhaseKind::IslandCreation)
    }
}

/// Narrow-phase work for one object pair: twenty bytes of plain data,
/// written once per kept candidate.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub struct PairWork {
    /// Geom index of A.
    pub geom_a: u32,
    /// Geom index of B.
    pub geom_b: u32,
    /// Body index of A (`u32::MAX` for static geoms).
    pub body_a: u32,
    /// Body index of B (`u32::MAX` for static geoms).
    pub body_b: u32,
    /// Shape kind of A.
    pub shape_a: ShapeKind,
    /// Shape kind of B.
    pub shape_b: ShapeKind,
    /// Contact points generated (0 = pair rejected in narrow-phase).
    pub contacts: u8,
    /// `false` when the pair was only *considered* (no awake dynamic
    /// side — both static/sleeping, or a disabled body): counted, cheaply
    /// rejected, no contacts possible.
    pub active: bool,
}

/// Island-processing work for one island.
#[derive(Debug, PartialEq)]
pub struct IslandWork {
    /// Body indices in the island.
    pub bodies: Vec<u32>,
    /// Permanent-joint indices in the island.
    pub joints: Vec<u32>,
    /// Manifold count in the island.
    pub manifolds: usize,
    /// Constraint rows built.
    pub rows: usize,
    /// Degrees of freedom removed (the work-queue filter metric).
    pub dof_removed: usize,
    /// Solver iterations executed.
    pub iterations: usize,
    /// Total |Δλ| applied over the solve (convergence indicator; the
    /// invariant monitor flags non-finite values).
    pub residual: f32,
    /// Whether the island went to the parallel work queue (paper: > 25
    /// DOF removed) or ran on the main thread.
    pub queued: bool,
    /// Digest of the island's post-solve accumulated impulses
    /// (`RowSet::lambda` bit patterns, seeded by island index). Only
    /// computed when [`crate::WorldConfig::digests`] is on; 0 otherwise.
    pub lambda_digest: u64,
}

/// Cloth work for one cloth object.
#[derive(Debug, Clone, PartialEq)]
pub struct ClothWork {
    /// Cloth index.
    pub cloth: u32,
    /// Verlet/constraint/collision statistics.
    pub stats: ClothStats,
    /// Number of rigid bodies on the contact list this step.
    pub colliders: usize,
}

/// Discrete events raised during a step.
#[derive(Debug, Default, Clone, Copy, PartialEq, Eq)]
pub struct StepEvents {
    /// Explosive bodies detonated.
    pub explosions: usize,
    /// Breakable joints that broke.
    pub joints_broken: usize,
    /// Pre-fractured objects shattered.
    pub shattered: usize,
    /// Blast volumes expired.
    pub blasts_expired: usize,
}

/// The full work profile of one simulation step.
///
/// Equality is exact, field by field, walls included; a NaN anywhere (an
/// island's `residual`, say) makes a profile unequal even to itself.
#[derive(Debug, Default, PartialEq)]
pub struct StepProfile {
    /// Broad-phase statistics.
    pub broadphase: BroadphaseStats,
    /// Per-pair narrow-phase records.
    pub pairs: Vec<PairWork>,
    /// Island-creation statistics.
    pub island_creation: IslandStats,
    /// Per-island processing records.
    pub islands: Vec<IslandWork>,
    /// Per-cloth records.
    pub cloths: Vec<ClothWork>,
    /// Events raised this step.
    pub events: StepEvents,
    /// Deepest contact penetration among this step's manifolds, meters
    /// (0 when no contact survived narrow-phase). Watched by the
    /// invariant monitor: runaway penetration means the solver lost.
    pub max_penetration: f32,
    /// Wall-clock time per phase, pipeline order (debug aid; the
    /// architecture simulator produces the *simulated* times).
    pub wall: [Duration; 5],
    /// Bodies enabled at the end of the step.
    pub body_count: usize,
    /// Geoms enabled at the end of the step.
    pub geom_count: usize,
    /// Unbroken joints at the end of the step.
    pub joint_count: usize,
    /// Per-phase state digests in pipeline order (see [`crate::digest`]);
    /// `Some` only when [`crate::WorldConfig::digests`] is on.
    pub digests: Option<[u64; 5]>,
    /// Bodies asleep at the end of the step (see [`crate::sleep`]).
    pub sleeping_bodies: usize,
    /// Islands asleep at the end of the step.
    pub sleeping_islands: usize,
}

// `Clone` by hand for `clone_from`, which reuses the destination's
// buffers where the derived one reallocates; `clone` is what the derive
// would write, inline as the derive's is.
impl Clone for IslandWork {
    #[inline]
    fn clone(&self) -> Self {
        IslandWork {
            bodies: self.bodies.clone(),
            joints: self.joints.clone(),
            ..*self
        }
    }

    /// Keeps `self`'s body and joint buffers.
    #[inline]
    fn clone_from(&mut self, source: &Self) {
        let IslandWork {
            bodies,
            joints,
            manifolds,
            rows,
            dof_removed,
            iterations,
            residual,
            queued,
            lambda_digest,
        } = source;
        self.bodies.clone_from(bodies);
        self.joints.clone_from(joints);
        self.manifolds = *manifolds;
        self.rows = *rows;
        self.dof_removed = *dof_removed;
        self.iterations = *iterations;
        self.residual = *residual;
        self.queued = *queued;
        self.lambda_digest = *lambda_digest;
    }
}

impl Clone for StepProfile {
    #[inline]
    fn clone(&self) -> Self {
        StepProfile {
            pairs: self.pairs.clone(),
            islands: self.islands.clone(),
            cloths: self.cloths.clone(),
            ..*self
        }
    }

    /// Keeps `self`'s pair, island (down to each island's lists) and
    /// cloth buffers, so a profile slot that is overwritten step after
    /// step stops allocating once it has seen the largest step.
    #[inline]
    fn clone_from(&mut self, source: &Self) {
        let StepProfile {
            broadphase,
            pairs,
            island_creation,
            islands,
            cloths,
            events,
            max_penetration,
            wall,
            body_count,
            geom_count,
            joint_count,
            digests,
            sleeping_bodies,
            sleeping_islands,
        } = source;
        self.broadphase = *broadphase;
        self.pairs.clone_from(pairs);
        self.island_creation = *island_creation;
        self.islands.clone_from(islands);
        self.cloths.clone_from(cloths);
        self.events = *events;
        self.max_penetration = *max_penetration;
        self.wall = *wall;
        self.body_count = *body_count;
        self.geom_count = *geom_count;
        self.joint_count = *joint_count;
        self.digests = *digests;
        self.sleeping_bodies = *sleeping_bodies;
        self.sleeping_islands = *sleeping_islands;
    }
}

impl StepProfile {
    /// Heap bytes of the work records.
    pub(crate) fn heap_bytes(&self) -> usize {
        use crate::heap::vec_bytes;
        let islands: usize = (self.islands.iter())
            .map(|w| vec_bytes(&w.bodies) + vec_bytes(&w.joints))
            .sum();
        vec_bytes(&self.pairs) + vec_bytes(&self.islands) + islands + vec_bytes(&self.cloths)
    }

    /// Total contact points generated this step.
    pub fn total_contacts(&self) -> usize {
        self.pairs.iter().map(|p| p.contacts as usize).sum()
    }

    /// Fine-grain task count per phase (paper Figure 11): object-pairs for
    /// Narrowphase, DOF removed for Island Processing, vertices for Cloth.
    pub fn fg_tasks(&self, phase: PhaseKind) -> usize {
        match phase {
            PhaseKind::Narrowphase => self.pairs.len(),
            PhaseKind::IslandProcessing => self.islands.iter().map(|i| i.dof_removed).sum(),
            PhaseKind::Cloth => self.cloths.iter().map(|c| c.stats.vertices).sum(),
            _ => 0,
        }
    }

    /// Wall time of a phase.
    pub fn wall_time(&self, phase: PhaseKind) -> Duration {
        let idx = PhaseKind::ALL
            .iter()
            .position(|p| *p == phase)
            .expect("phase");
        self.wall[idx]
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn phase_names_match_paper() {
        assert_eq!(PhaseKind::Broadphase.name(), "Broadphase");
        assert_eq!(PhaseKind::IslandCreation.name(), "Island Serial");
        assert!(PhaseKind::Broadphase.is_serial());
        assert!(PhaseKind::IslandCreation.is_serial());
        assert!(!PhaseKind::Narrowphase.is_serial());
    }

    #[test]
    fn region_labels_match_attribution_convention() {
        for phase in PhaseKind::ALL {
            assert_eq!(
                phase.region_label(),
                format!(
                    "{}{}",
                    phase.name(),
                    parallax_telemetry::attribution::REGION_SUFFIX
                ),
                "attribution matches on the \" region\" suffix"
            );
        }
    }

    #[test]
    fn fg_tasks_counts() {
        let mut p = StepProfile::default();
        p.pairs.push(PairWork {
            geom_a: 0,
            geom_b: 1,
            body_a: 0,
            body_b: 1,
            shape_a: ShapeKind::Sphere,
            shape_b: ShapeKind::Sphere,
            contacts: 1,
            active: true,
        });
        p.islands.push(IslandWork {
            bodies: vec![0, 1],
            joints: vec![],
            manifolds: 1,
            rows: 3,
            dof_removed: 3,
            iterations: 20,
            residual: 0.0,
            queued: false,
            lambda_digest: 0,
        });
        p.cloths.push(ClothWork {
            cloth: 0,
            stats: ClothStats {
                vertices: 25,
                ..Default::default()
            },
            colliders: 0,
        });
        assert_eq!(p.fg_tasks(PhaseKind::Narrowphase), 1);
        assert_eq!(p.fg_tasks(PhaseKind::IslandProcessing), 3);
        assert_eq!(p.fg_tasks(PhaseKind::Cloth), 25);
        assert_eq!(p.fg_tasks(PhaseKind::Broadphase), 0);
        assert_eq!(p.total_contacts(), 1);
    }

    /// A profile of `islands` islands of `bodies` bodies each and as
    /// many pairs.
    fn profile(islands: usize, bodies: u32) -> StepProfile {
        let mut p = StepProfile::default();
        for i in 0..islands as u32 {
            p.pairs.push(PairWork {
                geom_a: i,
                geom_b: i + 1,
                body_a: i,
                body_b: i + 1,
                shape_a: ShapeKind::Cuboid,
                shape_b: ShapeKind::Sphere,
                contacts: 2,
                active: true,
            });
            p.islands.push(IslandWork {
                bodies: (0..bodies).map(|b| i * bodies + b).collect(),
                joints: vec![i],
                manifolds: 1,
                rows: 6,
                dof_removed: 6,
                iterations: 20,
                residual: i as f32,
                queued: false,
                lambda_digest: u64::from(i),
            });
        }
        p.max_penetration = islands as f32;
        p
    }

    #[test]
    fn clone_from_keeps_the_buffers_and_equality_is_exact() {
        let big = profile(40, 12);
        let small = profile(5, 3);
        let mut slot = big.clone();
        assert_eq!(slot, big);
        let pairs = slot.pairs.as_ptr();
        let bodies = slot.islands[0].bodies.as_ptr();
        slot.clone_from(&small);
        assert_eq!(slot, small);
        assert_eq!(slot.pairs.as_ptr(), pairs);
        assert_eq!(slot.islands[0].bodies.as_ptr(), bodies);
        let mut nan = small.clone();
        nan.islands[1].residual = f32::NAN;
        assert_ne!(nan, nan.clone());
        let mut wall = small.clone();
        wall.wall[3] = Duration::from_nanos(1);
        assert_ne!(wall, small);
    }
}
