//! Workload instrumentation for the ParallAX architecture study.
//!
//! The paper instruments its (real, compiled) physics engine with Simics
//! MAGIC instructions and feeds the resulting full-system traces to GEMS.
//! This crate is the equivalent layer for our reproduction: it converts the
//! [`parallax_physics::StepProfile`] work records that every simulation
//! step produces into
//!
//! * **instruction workloads** — operation counts per kernel invocation,
//!   classed as in the paper's instruction-mix figures (7b and 9b), and
//! * **memory reference streams** — cache-line addresses derived from a
//!   synthetic memory map of the engine's entities, using the footprints
//!   the paper reports (412 B/object, 116 B/geom, 148–392 B/joint).
//!
//! The architecture simulator (`parallax-archsim`) consumes these
//! [`StepTrace`]s to produce cycle counts.
//!
//! # Examples
//!
//! ```
//! use parallax_trace::StepTrace;
//! use parallax_physics::{World, WorldConfig, BodyDesc, Shape};
//! use parallax_math::Vec3;
//!
//! let mut world = World::new(WorldConfig::default());
//! world.add_static_geom(Shape::plane(Vec3::UNIT_Y, 0.0));
//! world.add_body(BodyDesc::dynamic(Vec3::new(0.0, 0.4, 0.0))
//!     .with_shape(Shape::sphere(0.5), 1.0));
//! let profile = world.step();
//! let trace = StepTrace::from_profile(&profile);
//! assert!(trace.total_instructions() > 0);
//! ```

pub mod kernels;
pub mod memmap;
pub mod opmix;
pub mod steptrace;

pub use kernels::{Kernel, KernelModel};
pub use opmix::OpCounts;
pub use steptrace::{ParallelWork, PhaseTrace, StepTrace, TaskTrace};
