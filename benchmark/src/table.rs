//! The `server` and `telemetry` layers called in-process: a
//! `SessionTable` holding the first [`TABLE_SESSIONS`] sessions of the
//! fleet the `serve` child held, its `step_due` driven by a virtual
//! 60 Hz clock — no sockets and no scheduler thread, so each call's
//! cost is seen alone.

use std::time::Instant;

use parallax_server::{SessionConfig, SessionTable, TableConfig};
use parallax_telemetry as telemetry;
use parallax_telemetry::StepRecord;

use crate::fleet::{FleetPlan, SESSION_HZ};
use crate::report::Outcome;
use crate::spans::Recorder;
use crate::stats::mean;

/// Sessions the in-process table holds at most. Settling a session costs
/// as much here as in the child (one thread, ~35 ms each), and the
/// traced run has to end within the same budget as the untraced one;
/// every table metric is per call or per session.
const TABLE_SESSIONS: usize = 100;
/// Virtual scheduler ticks driven.
const TICKS: u64 = 120;
/// Sessions sampled for the per-session read and checkpoint calls.
const SAMPLED: usize = 64;

const PHASE_METRICS: [(&str, &str); 5] = [
    ("Broadphase", "physics.broadphase_ms"),
    ("Narrowphase", "physics.narrowphase_ms"),
    ("Island Serial", "physics.island_creation_ms"),
    ("Island Parallel", "physics.island_processing_ms"),
    ("Cloth", "physics.cloth_ms"),
];

/// Runs the in-process pass and adds its metrics to `out`.
pub fn run(plan: &FleetPlan, rec: &mut Recorder, out: &mut Outcome) -> Result<(), String> {
    // `serve` records into the registry too; without it `server.steps`
    // and the physics counters stay at zero.
    telemetry::set_enabled(true);
    let table = SessionTable::new(TableConfig::default());
    let (mut parse_us, mut create_ms) = (Vec::new(), Vec::new());
    let mut ids = Vec::new();
    for (index, session) in plan.residents.iter().take(TABLE_SESSIONS).enumerate() {
        let group = index as u64;
        let (config, s) = rec.timed("server", "SessionConfig::from_json", group, |_| {
            SessionConfig::from_json(session.json.as_bytes())
        });
        parse_us.push(s * 1e6);
        let (info, s) = rec.timed("server", "SessionTable::create", group, |_| {
            table.create(config?)
        });
        create_ms.push(s * 1e3);
        let id = info?.id;
        if session.settle > 0 {
            table.step(id, session.settle);
        }
        ids.push(id);
    }
    let sampled = &ids[..ids.len().min(SAMPLED)];

    // Three manual steps per session, and the phase walls those same
    // steps left in the session's record tail, so that step wall minus
    // phases is a difference over one set of steps.
    let mut step_n_us = Vec::new();
    let mut phase_ms: [Vec<f64>; 5] = Default::default();
    for &id in &ids {
        let (_, s) = rec.timed("server", "SessionTable::step", id, |_| table.step(id, 3));
        step_n_us.push(s * 1e6 / 3.0);
        let tail = table
            .with_session(id, |s| s.state_jsonl(3, 0))
            .unwrap_or_default();
        for line in tail.lines() {
            let Ok(record) = StepRecord::from_json_line(line) else {
                continue; // the last line is body state, not a record
            };
            for ((phase, _), samples) in PHASE_METRICS.iter().zip(&mut phase_ms) {
                let ns = record.wall_ns.iter().find(|(name, _)| name == phase);
                samples.push(ns.map_or(0.0, |(_, ns)| *ns as f64 / 1e6));
            }
        }
    }

    let start_ns = telemetry::now_ns();
    for &id in &ids {
        table.with_session(id, |s| s.set_step_rate(SESSION_HZ, start_ns));
    }
    let period_ns = (1e9 / SESSION_HZ) as u64;
    let (mut step_due_ms, mut next_due_us) = (Vec::new(), Vec::new());
    let mut stepped = 0;
    for tick in 1..=TICKS {
        let group = 10_000 + tick;
        let (n, s) = rec.timed("server", "SessionTable::step_due", group, |_| {
            table.step_due(start_ns + tick * period_ns)
        });
        stepped += n;
        step_due_ms.push(s * 1e3);
        let (_, s) = rec.timed("server", "SessionTable::next_due_ns", group, |_| {
            table.next_due_ns()
        });
        next_due_us.push(s * 1e6);
    }
    out.check(
        TICKS * ids.len() as u64,
        TICKS * ids.len() as u64 - stepped as u64,
        "due sessions were not stepped by step_due",
    );

    let mut infos_ms = Vec::new();
    for round in 0..5 {
        let (infos, s) = rec.timed("server", "SessionTable::infos", round, |_| table.infos());
        out.check(
            1,
            u64::from(infos.len() != ids.len()),
            "infos() listings missed sessions",
        );
        infos_ms.push(s * 1e3);
    }

    let (mut state_us, mut state_bytes) = (Vec::new(), Vec::new());
    let (mut snapshot_us, mut restore_us) = (Vec::new(), Vec::new());
    for &id in sampled {
        let (state, s) = rec.timed("server", "Session::state_jsonl", id, |_| {
            table.with_session(id, |s| s.state_jsonl(2, 16))
        });
        state_us.push(s * 1e6);
        state_bytes.push(state.map_or(0, |text| text.len()) as f64);
        let (bytes, s) = rec.timed("server", "Session::snapshot", id, |_| {
            table.with_session(id, |s| s.snapshot())
        });
        snapshot_us.push(s * 1e6);
        let bytes = bytes.ok_or("sampled session vanished")?;
        let (restored, s) = rec.timed("server", "Session::restore", id, |_| {
            table.with_session(id, |s| s.restore(&bytes))
        });
        restore_us.push(s * 1e6);
        out.check(
            1,
            u64::from(!matches!(restored, Some(Ok(())))),
            "in-process snapshots did not restore",
        );
    }

    // The transport and exporter calls `serve` makes per request and per
    // scrape.
    let head = "GET /sessions/17/state?records=2&bodies=16 HTTP/1.1\r\n\
                Host: parallax\r\nConnection: close\r\n\r\n";
    let rounds = 1000;
    let (parsed, s) = rec.timed("telemetry", "net::parse_request", 0, |_| {
        (0..rounds)
            .filter(|_| telemetry::net::parse_request(std::hint::black_box(head)).is_ok())
            .count()
    });
    out.check(
        1,
        u64::from(parsed != rounds),
        "request heads did not parse",
    );
    out.set("telemetry.parse_request_us", s * 1e6 / rounds as f64);
    let (snapshot, s) = rec.timed("telemetry", "snapshot", 0, |_| telemetry::snapshot());
    out.set("telemetry.snapshot_us", s * 1e6);
    let (text, s) = rec.timed("telemetry", "prometheus_text", 0, |_| {
        telemetry::prometheus_text(&snapshot)
    });
    out.check(
        1,
        u64::from(!text.contains("server_steps")),
        "scrapes lacked server_steps",
    );
    out.set("telemetry.prometheus_text_ms", s * 1e3);
    out.set(
        "telemetry.spans_dropped",
        telemetry::span::spans_dropped() as f64,
    );

    let mut destroy_us = Vec::new();
    let teardown = Instant::now();
    for &id in &ids {
        let (gone, s) = rec.timed("server", "SessionTable::destroy", id, |_| table.destroy(id));
        out.check(1, u64::from(!gone), "sessions were missing at destroy");
        destroy_us.push(s * 1e6);
    }
    out.note("table_teardown_ms", teardown.elapsed().as_secs_f64() * 1e3);
    telemetry::set_enabled(false);

    let step_us = mean(&step_n_us);
    let mut phases_ms = 0.0;
    for ((_, metric), samples) in PHASE_METRICS.iter().zip(&phase_ms) {
        phases_ms += mean(samples);
        out.set(metric, mean(samples));
    }
    // No wall around `World::step` is visible from outside a session;
    // the wall around `SessionTable::step` per step is the closest, so
    // glue here also holds the session lock, actor logic and record
    // keeping.
    out.set("physics.step_ms", step_us / 1e3);
    out.set("physics.glue_ms", step_us / 1e3 - phases_ms);
    out.set("server.config_parse_us", mean(&parse_us));
    out.set("server.create_ms", mean(&create_ms));
    out.set("server.step_n_us", step_us);
    out.set("server.step_due_ms", mean(&step_due_ms));
    out.set(
        "server.step_due_us_per_session",
        mean(&step_due_ms) * 1e3 / ids.len() as f64,
    );
    out.set("server.next_due_us", mean(&next_due_us));
    out.set("server.infos_ms", mean(&infos_ms));
    out.set("server.state_jsonl_us", mean(&state_us));
    out.set("server.state_bytes", mean(&state_bytes));
    out.set("server.snapshot_us", mean(&snapshot_us));
    out.set("server.restore_us", mean(&restore_us));
    out.set("server.destroy_us", mean(&destroy_us));
    Ok(())
}
