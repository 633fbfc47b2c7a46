//! A settled session's step allocates at most once.
//!
//! A counting `#[global_allocator]` (this file is its own test binary, so
//! nothing else shares it) watches the thread that steps the session: a
//! coasting `Session::step_n(1)` may allocate once and no more — no step
//! record, no telemetry slot, no scratch. Settling an off-schedule
//! session's backlog is one allocation at most, whatever its length, and
//! never goes through the batch executor.

use std::alloc::{GlobalAlloc, Layout, System};
use std::cell::Cell;
use std::sync::Mutex;

use parallax_server::{SessionConfig, SessionTable, TableConfig};
use parallax_telemetry as telemetry;

struct Counting;

thread_local! {
    /// Allocations (and reallocations) made by this thread while armed.
    static ALLOCATIONS: Cell<Option<u64>> = const { Cell::new(None) };
}

fn count_one() {
    // `try_with`: the allocator also runs while a thread tears down.
    let _ = ALLOCATIONS.try_with(|c| {
        if let Some(n) = c.get() {
            c.set(Some(n + 1));
        }
    });
}

// SAFETY: defers every call to `System` unchanged; the counter is a
// thread-local `Cell` with a const initialiser and no destructor, so
// touching it never allocates or re-enters the allocator.
unsafe impl GlobalAlloc for Counting {
    unsafe fn alloc(&self, layout: Layout) -> *mut u8 {
        count_one();
        System.alloc(layout)
    }

    unsafe fn dealloc(&self, ptr: *mut u8, layout: Layout) {
        System.dealloc(ptr, layout)
    }

    unsafe fn realloc(&self, ptr: *mut u8, layout: Layout, new_size: usize) -> *mut u8 {
        count_one();
        System.realloc(ptr, layout, new_size)
    }
}

#[global_allocator]
static ALLOCATOR: Counting = Counting;

/// Runs `f` and returns how many allocations this thread made inside it.
fn allocations_in(f: impl FnOnce()) -> u64 {
    ALLOCATIONS.with(|c| c.set(Some(0)));
    f();
    ALLOCATIONS
        .with(|c| c.replace(None))
        .expect("armed for the whole call")
}

/// The tests share the process-wide recording switch and counters.
static SERIAL: Mutex<()> = Mutex::new(());

/// A one-thread table holding one settled stack session, recording on
/// (as the service runs).
fn settled_session() -> (SessionTable, u64) {
    telemetry::set_enabled(true);
    let table = SessionTable::new(TableConfig {
        batch_threads: 1,
        ..TableConfig::default()
    });
    let id = table
        .create(SessionConfig {
            seed: 3,
            ..SessionConfig::default()
        })
        .expect("create")
        .id;
    // Settle, then prime and arm the coast.
    table.step(id, 240);
    (table, id)
}

#[test]
fn a_coasting_session_step_allocates_only_its_pair_list() {
    let _serial = SERIAL.lock().unwrap_or_else(|p| p.into_inner());
    let (table, id) = settled_session();

    // The counter sees what this thread allocates.
    assert_eq!(
        allocations_in(|| drop(std::hint::black_box(vec![1u8; 64]))),
        1
    );

    table
        .with_session(id, |s| {
            for round in 0..5 {
                let n = allocations_in(|| {
                    s.step_n(1);
                });
                // The step's record: all five walls zero on a coast.
                let tail = s.state_jsonl(1, 0);
                let record = telemetry::StepRecord::from_json_line(
                    tail.lines().next().expect("a record line"),
                )
                .expect("record parses");
                assert_eq!(record.wall_total_ns(), 0, "round {round}: not a coast");
                assert!(n <= 1, "round {round}: a coasting step allocated {n} times");
            }
        })
        .expect("session alive");
    telemetry::set_enabled(false);
}

#[test]
fn settling_a_thousand_owed_steps_allocates_at_most_once() {
    let _serial = SERIAL.lock().unwrap_or_else(|p| p.into_inner());
    let (table, id) = settled_session();
    // 100 kHz from an injected instant ahead of the clock: the session
    // coasts, so it leaves the schedule at once.
    let period = 10_000;
    let t = telemetry::now_ns() + 10_000_000_000;
    table.with_session(id, |s| s.set_step_rate(100_000.0, t));
    assert_eq!(table.next_due_ns(), None, "the session is still scheduled");
    let first_due = t / period * period + period;
    let owed_all = first_due + 999 * period;
    let steps = table.with_session(id, |s| s.steps()).expect("alive");
    let batches = telemetry::snapshot().counter("server.batches");
    let n = allocations_in(|| {
        assert_eq!(table.step_due(owed_all), 1);
    });
    assert!(n <= 1, "settling 1000 steps allocated {n} times");
    assert_eq!(table.with_session(id, |s| s.steps()), Some(steps + 1000));
    assert_eq!(telemetry::snapshot().counter("server.batches"), batches);
    telemetry::set_enabled(false);
}
