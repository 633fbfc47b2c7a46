//! Trace-driven architecture simulator for the ParallAX study.
//!
//! Substitutes for the paper's Simics/GEMS full-system infrastructure. The
//! physics engine's step profiles are converted to instruction/memory
//! traces by `parallax-trace`; this crate turns those traces into cycle
//! counts using:
//!
//! * a first-order **interval core model** ([`core`]) parameterized by the
//!   paper's core configurations (Tables 5 and 6),
//! * a **YAGS branch predictor** ([`yags`]) driven by per-kernel synthetic
//!   branch streams ([`branchgen`]),
//! * set-associative **L1/banked-L2 caches** with way-partitioning /
//!   columnization ([`cache`], [`hierarchy`]),
//! * the CG↔FG links — on-chip mesh, HTX, PCIe — as bandwidth and
//!   latency ([`offchip`]),
//! * an **OS overhead model** reproducing the Solaris kernel-memory blowup
//!   the paper measured at 8 threads ([`os`]), and
//! * a **multi-core frame simulator** ([`multicore`]) that produces the
//!   per-phase execution times of the paper's figures.
//!
//! # Examples
//!
//! ```
//! use parallax_archsim::config::CoreConfig;
//! use parallax_archsim::core::CoreModel;
//! use parallax_trace::{OpCounts, TaskTrace};
//!
//! let core = CoreModel::new(CoreConfig::desktop());
//! let task = TaskTrace::compute_only(OpCounts {
//!     int_alu: 4000, branch: 800, load: 3000, store: 800,
//!     fp_add: 700, fp_mul: 500, fp_div_sqrt: 0, other: 200,
//! });
//! // With no memory stalls the task runs at the core's compute-bound IPC.
//! let cycles = core.task_cycles(&task, parallax_trace::Kernel::Narrowphase, 0);
//! assert!(cycles > 0);
//! ```

pub mod branchgen;
pub mod cache;
pub mod config;
pub mod core;
pub mod dram;
pub mod hierarchy;
pub mod multicore;
pub mod offchip;
pub mod os;
pub mod yags;

pub use config::{CoreConfig, L2Config, MachineConfig};
pub use hierarchy::{Hierarchy, MemStats};
pub use multicore::{FrameResult, MulticoreSim, PhaseTime};
