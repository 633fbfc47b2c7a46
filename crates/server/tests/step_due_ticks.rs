//! `SessionTable::step_due` driven the way the benchmark's in-process
//! table pass drives it: sessions put on a 60 Hz rate at the real
//! `now_ns`, then virtual ticks one period apart starting at that same
//! instant, with every call expected to advance every session exactly
//! once. Unlike the unit tests' twin-table oracle, whose injected clock
//! runs an hour ahead, these ticks start on the clock the table itself
//! reads — in a fresh process, where that clock is only milliseconds old
//! and younger than the later sessions' slot offsets. This file is its
//! own test binary for that reason, and because it switches recording
//! on, as the benchmark does.

use parallax_server::{SessionConfig, SessionTable, TableConfig};
use parallax_telemetry as telemetry;

/// Virtual ticks driven.
const TICKS: u64 = 120;

/// Creates one session per `POST /sessions` body, steps each `settle`
/// times and then three more, and drives [`TICKS`] virtual ticks.
fn drive(what: &str, bodies: &[String], settle: u64) {
    let table = SessionTable::new(TableConfig::default());
    let ids: Vec<u64> = bodies
        .iter()
        .map(|json| {
            let config = SessionConfig::from_json(json.as_bytes()).expect("config");
            let id = table.create(config).expect("create").id;
            if settle > 0 {
                table.step(id, settle);
            }
            table.step(id, 3);
            id
        })
        .collect();
    // Only the ticks touch the sessions from here on: any other read
    // would settle them to the real clock first.
    let start_ns = telemetry::now_ns();
    for &id in &ids {
        table.with_session(id, |s| s.set_step_rate(60.0, start_ns));
    }
    let period_ns = (1e9 / 60.0) as u64;
    for tick in 1..=TICKS {
        let advanced = table.step_due(start_ns + tick * period_ns);
        assert_eq!(
            advanced,
            ids.len(),
            "{what}, tick {tick} (clock {start_ns} ns old at the rate switch): \
             {advanced} of {} sessions advanced",
            ids.len()
        );
    }
}

#[test]
fn every_tick_advances_every_session_once() {
    telemetry::set_enabled(true);
    // `fleet_active`'s 12 never-settling scene sessions first, while the
    // process clock is young; then 12 stack sessions settled into
    // coasting, `fleet_settled` at 1/20 size.
    let scenes = ["Periodic", "Continuous", "Deformable"];
    let active: Vec<String> = (0..12)
        .map(|i| {
            let scene = scenes[i % 3];
            format!(
                "{{\"scene\":\"{scene}\",\"scale\":0.1,\"seed\":{}}}",
                1000 + i
            )
        })
        .collect();
    drive("active fleet", &active, 0);
    let settled: Vec<String> = (0..12)
        .map(|i| format!("{{\"bodies\":100,\"seed\":{}}}", 1000 + i))
        .collect();
    drive("settled fleet", &settled, 240);
}
