//! Multi-world simulation service.
//!
//! The inference-server shape applied to physics: many *independent*
//! worlds per process, stepped in batches, each world a serial job. This
//! crate is that server:
//!
//! * [`SessionTable`] owns the fleet: create a session from a named
//!   benchmark scene or a generated settled-stack world, step it,
//!   query it, snapshot/restore it (PXSN v2), destroy it.
//! * [`Scheduler`] is the batch clock: sessions declare a `step_rate`
//!   in Hz and a background thread drains everything due onto the
//!   persistent [`Executor`](parallax_physics::parallel::Executor),
//!   one world = one job. Per-world trajectories are deterministic
//!   regardless of batch composition (see [`session`] module docs).
//!   A session whose world has come to rest leaves the schedule and is
//!   advanced in bulk whenever it is read.
//! * [`serve`] puts an HTTP front end on it, reusing the hardened
//!   `telemetry::net` transport — worker pool, request deadlines,
//!   size limits — and the shared metrics registry, so `/metrics`
//!   shows fleet gauges next to the physics counters.
//!
//! `step_rate` doubles as the coarse/fine cost knob from Agboh et al.
//! (PAPERS.md): a client can run the level the player is in at 120 Hz
//! and idle far-away levels at 10, switching per session at runtime.
//!
//! # Example
//!
//! ```
//! let server = parallax_server::serve("127.0.0.1:0").expect("bind");
//! let (status, body) = parallax_telemetry::http_request(
//!     server.addr(), "POST", "/sessions", "application/json",
//!     br#"{"bodies":20,"seed":1}"#,
//! ).expect("create");
//! assert_eq!(status, 200);
//! assert!(String::from_utf8_lossy(&body).contains("\"id\":"));
//! ```

pub mod http;
pub mod scheduler;
pub mod session;

pub use http::{serve, serve_with, Server};
pub use scheduler::Scheduler;
pub use session::{SceneKind, Session, SessionConfig, SessionInfo, SessionTable, TableConfig};

/// Serializes the unit tests that step scheduled sessions: the
/// `server.steps_shed` counter some of them check is process-wide.
#[cfg(test)]
fn schedule_guard() -> std::sync::MutexGuard<'static, ()> {
    static LOCK: std::sync::Mutex<()> = std::sync::Mutex::new(());
    LOCK.lock().unwrap_or_else(|poisoned| poisoned.into_inner())
}
