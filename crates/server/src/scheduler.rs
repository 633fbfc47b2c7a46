//! The batch scheduler: a background thread stepping the on-schedule
//! sessions.
//!
//! One thread sleeps until the earliest due time in the table's due
//! index, calls `SessionTable::step_scheduled` (which fans the due
//! sessions out over the table's executor and touches no other session),
//! empties the span rings and sleeps again. Filing a session ahead of the
//! due time it sleeps towards (creating it, changing its rate, waking its
//! world) wakes it early, so the next due time is never stale. Manual
//! sessions (`step_rate == 0`) and sessions off the schedule (see
//! [`crate::session`]) never wake it. Sleeps are capped at
//! `DRAIN_TICK` so the span rings are emptied while nothing is due, and
//! `Drop` wakes the thread for a prompt shutdown.

use std::sync::atomic::{AtomicBool, Ordering};
use std::sync::Arc;
use std::thread::JoinHandle;
use std::time::Duration;

use parallax_telemetry as telemetry;

use crate::session::SessionTable;

/// Longest sleep: how often the span rings are emptied when nothing is
/// due (each thread's ring holds 8 192 spans).
const DRAIN_TICK: Duration = Duration::from_millis(10);

/// Handle to the scheduler thread; dropping it shuts the thread down.
pub struct Scheduler {
    table: Arc<SessionTable>,
    shutdown: Arc<AtomicBool>,
    handle: Option<JoinHandle<()>>,
}

impl Scheduler {
    /// Spawns the scheduler over `table`.
    pub fn spawn(table: Arc<SessionTable>) -> Scheduler {
        let shutdown = Arc::new(AtomicBool::new(false));
        let stop = Arc::clone(&shutdown);
        let stepped = Arc::clone(&table);
        let handle = std::thread::Builder::new()
            .name("parallax-scheduler".to_string())
            .spawn(move || {
                while !stop.load(Ordering::Relaxed) {
                    stepped.step_scheduled(telemetry::now_ns());
                    // The service records telemetry for `/metrics` but has
                    // no span consumer: empty the rings its batch and
                    // request threads fill before they overflow.
                    telemetry::discard_spans();
                    stepped.wait_for_due(DRAIN_TICK, &stop);
                }
            })
            .expect("spawn scheduler thread");
        Scheduler {
            table,
            shutdown,
            handle: Some(handle),
        }
    }
}

impl Drop for Scheduler {
    fn drop(&mut self) {
        self.shutdown.store(true, Ordering::Relaxed);
        self.table.wake_scheduler();
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
        let _serial = crate::schedule_guard();
        let table = Arc::new(SessionTable::new(TableConfig::default()));
        // Never asleep, so never coasting: only the scheduler steps it.
        let info = table
            .create(SessionConfig {
                bodies: 5,
                step_rate: 500.0,
                sleeping: false,
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
