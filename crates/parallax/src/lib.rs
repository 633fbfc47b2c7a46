//! **ParallAX** — the paper's proposed architecture for real-time physics.
//!
//! A set of aggressive coarse-grain (CG) cores with partitioned L2 cache
//! handles the serial and coarse-grain parallel components of physics
//! simulation; a larger pool of simple fine-grain (FG) cores with local
//! memories executes the massively parallel kernels (object pairs, LCP
//! solver iterations, cloth vertices). The key mechanisms reproduced here:
//!
//! * **Hierarchical FG↔CG arbitration** ([`arbiter`]) — FG cores are
//!   logically divided among CG cores; each group's arbiter serves CG
//!   cores in a rotated priority order, balancing locality against full
//!   utilization (paper §7.1).
//! * **Latency-hiding buffering** ([`buffering`]) — how many FG tasks must
//!   be in flight to overlap communication with computation for on-chip
//!   mesh, HTX and PCIe couplings (paper §7.2, Table 7).
//! * **Task-farming protocol** ([`schedule`]) — control/data packets with
//!   task id, data-set id, size, iteration count and kernel id (paper
//!   §7.3).
//! * **FG core candidates and area model** ([`fgcore`], [`area`]) — the
//!   Desktop/Console/Shader/Limit-study cores of Table 6 and the die-area
//!   estimates of §8.2.1.
//! * **Design-space exploration** ([`explore`]) — FG core counts required
//!   to reach 30 FPS (Figure 10b) and end-to-end frame simulation
//!   ([`arch`]).
//!
//! # Examples
//!
//! ```
//! use parallax::fgcore::FgCoreType;
//! use parallax::area;
//!
//! // The paper's headline area comparison (§8.2.1).
//! let desktop = area::pool_area_mm2(FgCoreType::Desktop, 30);
//! let shader = area::pool_area_mm2(FgCoreType::Shader, 150);
//! assert!(shader < desktop / 2.0, "simple cores are the most area-efficient");
//! ```

pub mod arbiter;
pub mod arch;
pub mod area;
pub mod buffering;
pub mod explore;
pub mod fgcore;
pub mod schedule;

pub use arbiter::HierarchicalArbiter;
pub use arch::{ParallaxSystem, SystemResult};
pub use buffering::{tasks_to_hide_latency, HidingReport};
pub use fgcore::FgCoreType;
pub use schedule::{fg_phase_timing, FgPhaseTiming};
