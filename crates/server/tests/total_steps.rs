//! `SessionTable::total_steps` counts the steps of its own table, settled
//! up to now, whether or not telemetry records. This file is its own test
//! binary, and nothing in it turns recording on.

use parallax_server::{SessionConfig, SessionTable, TableConfig};
use parallax_telemetry as telemetry;

fn table() -> SessionTable {
    SessionTable::new(TableConfig {
        batch_threads: 1,
        ..TableConfig::default()
    })
}

#[test]
fn each_table_counts_its_own_steps_with_telemetry_off() {
    assert!(!telemetry::enabled());
    let (a, b) = (table(), table());
    let config = |seed| SessionConfig {
        bodies: 8,
        seed,
        ..SessionConfig::default()
    };
    let ids: Vec<u64> = (0..3)
        .map(|seed| a.create(config(seed)).expect("create").id)
        .collect();
    let other = b.create(config(9)).expect("create").id;
    for (&id, n) in ids.iter().zip([5, 7, 11]) {
        a.step(id, n);
    }
    b.step(other, 2);
    assert_eq!(a.total_steps(), 23);
    assert_eq!(b.total_steps(), 2);
    // A destroyed session's steps stay counted.
    assert!(a.destroy(ids[0]));
    assert_eq!(a.total_steps(), 23);

    // Off-schedule steps count once they are settled: a settled session
    // at 1 kHz advances on every read, and the table's count with it.
    let id = ids[1];
    while !a.with_session(id, |s| s.world().coasts()).expect("alive") {
        a.step(id, 1);
    }
    a.with_session(id, |s| s.set_step_rate(1000.0, telemetry::now_ns()));
    assert_eq!(
        a.next_due_ns(),
        None,
        "a coasting session is off the schedule"
    );
    let (steps, total) = (
        a.with_session(id, |s| s.steps()).expect("alive"),
        a.total_steps(),
    );
    std::thread::sleep(std::time::Duration::from_millis(20));
    let total_later = a.total_steps();
    let steps_later = a.with_session(id, |s| s.steps()).expect("alive");
    assert!(total_later >= total + 20, "{total} -> {total_later}");
    assert!(steps_later - steps >= total_later - total);
    assert_eq!(b.total_steps(), 2);
    assert_eq!(telemetry::snapshot().counter("server.steps"), 0);
}
