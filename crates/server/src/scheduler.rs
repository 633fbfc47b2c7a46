//! The batch scheduler: a background thread draining due sessions.
//!
//! One thread wakes when the earliest scheduled session comes due,
//! calls [`SessionTable::step_due`] (which fans the batch out over the
//! table's executor), empties the span rings and goes back to sleep for
//! at most `MAX_TICK`. Manual sessions
//! (`step_rate == 0`) never wake it. Sleeps are sliced so `Drop`
//! shutdown is prompt even with an empty table.

use std::sync::atomic::{AtomicBool, Ordering};
use std::sync::Arc;
use std::thread::JoinHandle;
use std::time::Duration;

use parallax_telemetry as telemetry;

use crate::session::SessionTable;

/// Idle poll when nothing is scheduled.
const IDLE_TICK: Duration = Duration::from_millis(5);
/// Longest single sleep — bounds how stale `next_due_ns` can get when
/// sessions are created while the scheduler sleeps.
const MAX_TICK: Duration = Duration::from_millis(20);

/// Handle to the scheduler thread; dropping it shuts the thread down.
pub struct Scheduler {
    shutdown: Arc<AtomicBool>,
    handle: Option<JoinHandle<()>>,
}

impl Scheduler {
    /// Spawns the scheduler over `table`.
    pub fn spawn(table: Arc<SessionTable>) -> Scheduler {
        let shutdown = Arc::new(AtomicBool::new(false));
        let stop = Arc::clone(&shutdown);
        let handle = std::thread::Builder::new()
            .name("parallax-scheduler".to_string())
            .spawn(move || {
                while !stop.load(Ordering::Relaxed) {
                    let now = telemetry::now_ns();
                    table.step_due(now);
                    // The service records telemetry for `/metrics` but has
                    // no span consumer: empty the rings its batch and
                    // request threads fill before they overflow.
                    telemetry::discard_spans();
                    let sleep = match table.next_due_ns() {
                        Some(due) => Duration::from_nanos(due.saturating_sub(telemetry::now_ns()))
                            .min(MAX_TICK),
                        None => IDLE_TICK,
                    };
                    if !sleep.is_zero() {
                        std::thread::sleep(sleep);
                    }
                }
            })
            .expect("spawn scheduler thread");
        Scheduler {
            shutdown,
            handle: Some(handle),
        }
    }
}

impl Drop for Scheduler {
    fn drop(&mut self) {
        self.shutdown.store(true, Ordering::Relaxed);
        if let Some(handle) = self.handle.take() {
            let _ = handle.join();
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::session::{SessionConfig, TableConfig};

    #[test]
    fn scheduler_steps_scheduled_sessions() {
        let table = Arc::new(SessionTable::new(TableConfig::default()));
        let info = table
            .create(SessionConfig {
                bodies: 5,
                step_rate: 500.0,
                ..SessionConfig::default()
            })
            .expect("create");
        let manual = table
            .create(SessionConfig {
                bodies: 5,
                step_rate: 0.0,
                ..SessionConfig::default()
            })
            .expect("create manual");
        {
            let _scheduler = Scheduler::spawn(Arc::clone(&table));
            let deadline = std::time::Instant::now() + Duration::from_secs(10);
            loop {
                let steps = table.with_session(info.id, |s| s.steps()).expect("alive");
                if steps >= 10 {
                    break;
                }
                assert!(
                    std::time::Instant::now() < deadline,
                    "scheduler made no progress: {steps} steps"
                );
                std::thread::sleep(Duration::from_millis(5));
            }
            // Manual sessions are never auto-stepped.
            assert_eq!(table.with_session(manual.id, |s| s.steps()), Some(0));
        }
        // Drop joined the thread: the table stops advancing.
        let frozen = table.with_session(info.id, |s| s.steps()).expect("alive");
        std::thread::sleep(Duration::from_millis(20));
        assert_eq!(table.with_session(info.id, |s| s.steps()), Some(frozen));
    }
}
