//! An ODE-style rigid-body and cloth physics engine.
//!
//! This crate is the workload substrate for the ParallAX architecture study.
//! It mirrors the structure of the heavily modified Open Dynamics Engine
//! described in the paper (§3): a five-phase pipeline of
//!
//! 1. **Broad-phase** collision culling ([`broadphase`]),
//! 2. **Narrow-phase** contact generation ([`narrowphase`]),
//! 3. **Island creation** — connected components of constrained bodies
//!    ([`island`]),
//! 4. **Island processing** — per-island iterative constraint solve +
//!    integration ([`solver`], [`integrator`]),
//! 5. **Cloth simulation** — Jakobsen-style position-based dynamics
//!    ([`cloth`]).
//!
//! Extensions from the paper are implemented too: breakable joints,
//! pre-fractured objects that shatter inside blast volumes ([`fracture`]),
//! and explosions ([`explosion`]).
//!
//! # Examples
//!
//! ```
//! use parallax_physics::{World, WorldConfig, BodyDesc, Shape};
//! use parallax_math::Vec3;
//!
//! let mut world = World::new(WorldConfig::default());
//! // A ground plane and a falling sphere.
//! world.add_static_geom(Shape::plane(Vec3::UNIT_Y, 0.0));
//! let ball = world.add_body(
//!     BodyDesc::dynamic(Vec3::new(0.0, 5.0, 0.0)).with_shape(Shape::sphere(0.5), 1.0),
//! );
//! for _ in 0..300 {
//!     world.step();
//! }
//! let pos = world.body(ball).position();
//! assert!(pos.y > 0.0 && pos.y < 1.0, "ball should rest on the plane, got {pos:?}");
//! ```

pub mod body;
pub mod broadphase;
pub mod cloth;
pub mod contact;
pub mod contact_cache;
pub mod digest;
pub mod explosion;
pub mod fracture;
pub mod heap;
pub mod integrator;
pub mod island;
pub mod joint;
pub mod monitor;
pub mod narrowphase;
pub mod parallel;
pub mod pipeline;
pub mod probe;
pub mod ray;
pub mod shape;
pub mod sleep;
pub mod snapshot;
pub mod solver;
pub mod store;
pub mod world;

pub use body::{BodyDesc, BodyFlags, BodyId};
pub use cloth::{Cloth, ClothConfig, ClothId};
pub use contact::{ContactManifold, ContactPoint};
pub use contact_cache::ContactCache;
pub use digest::{chunk_digests, first_divergence, world_digest, Digest, DigestFault, Divergence};
pub use explosion::ExplosionConfig;
pub use fracture::FractureConfig;
pub use heap::HeapBytes;
pub use joint::{Joint, JointId, JointKind};
pub use monitor::{InvariantMonitor, MonitorConfig, Violation};
pub use parallax_math::SimdMode;
pub use pipeline::{set_injected_phase_delay, StepPipeline};
pub use probe::{PhaseKind, StepProfile};
pub use shape::{GeomId, Heightfield, Shape, ShapeKind, TriMesh};
pub use sleep::{SleepSystem, SleepingIsland};
pub use snapshot::{
    SnapshotError, MAGIC as SNAPSHOT_MAGIC, MIN_VERSION as SNAPSHOT_MIN_VERSION,
    VERSION as SNAPSHOT_VERSION,
};
pub use store::{BodiesView, BodyMut, BodyRef, BodyStore};
pub use world::{World, WorldConfig};
