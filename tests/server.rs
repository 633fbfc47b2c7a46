//! Integration tests for the multi-world simulation service: fleet
//! consistency under concurrent clients, per-session determinism under
//! noisy neighbors, and snapshot/restore reproducibility — all through
//! the public HTTP API, the way a real consumer drives it.

use parallax_telemetry::json::Json;
use parallax_telemetry::{http_get, http_request};
use std::net::SocketAddr;

fn create_session(addr: SocketAddr, config: &str) -> u64 {
    let (status, body) = http_request(
        addr,
        "POST",
        "/sessions",
        "application/json",
        config.as_bytes(),
    )
    .expect("create session");
    assert_eq!(status, 200, "{}", String::from_utf8_lossy(&body));
    Json::parse(std::str::from_utf8(&body).expect("utf8"))
        .expect("create response json")
        .get("id")
        .and_then(Json::as_u64)
        .expect("id")
}

fn step_session(addr: SocketAddr, id: u64, n: u64) -> u64 {
    let (status, body) = http_request(addr, "POST", &format!("/sessions/{id}/step?n={n}"), "", b"")
        .expect("step session");
    assert_eq!(status, 200, "{}", String::from_utf8_lossy(&body));
    Json::parse(std::str::from_utf8(&body).expect("utf8"))
        .expect("step response json")
        .get("steps")
        .and_then(Json::as_u64)
        .expect("steps")
}

/// The body-state JSONL line for a session (no step records — their wall
/// times are timing-dependent and must not enter determinism checks).
fn body_state_line(addr: SocketAddr, id: u64) -> String {
    let (status, state) =
        http_get(addr, &format!("/sessions/{id}/state?records=0")).expect("state");
    assert_eq!(status, 200);
    let line = state.lines().last().expect("body state line").to_string();
    assert!(line.contains("\"body_state\""), "not a state line: {line}");
    line
}

fn health_sessions(addr: SocketAddr) -> u64 {
    let (status, health) = http_get(addr, "/health").expect("health");
    assert_eq!(status, 200);
    Json::parse(health.trim())
        .expect("health json")
        .get("sessions")
        .and_then(Json::as_u64)
        .expect("sessions")
}

#[test]
fn concurrent_clients_lose_no_sessions_and_no_steps() {
    const CLIENTS: usize = 8;
    const PER_CLIENT: usize = 5;
    let server = parallax_server::serve("127.0.0.1:0").expect("bind");
    let addr = server.addr();

    // A session shared by every client; each steps it concurrently. The
    // step counter is the lost-update detector: any dropped or doubled
    // batch shows up in the final count.
    let shared = create_session(addr, r#"{"bodies":5}"#);

    let ids: Vec<Vec<u64>> = std::thread::scope(|scope| {
        let handles: Vec<_> = (0..CLIENTS)
            .map(|client| {
                scope.spawn(move || {
                    let mut mine = Vec::with_capacity(PER_CLIENT);
                    for s in 0..PER_CLIENT {
                        let id = create_session(
                            addr,
                            &format!("{{\"bodies\":5,\"seed\":{}}}", client * PER_CLIENT + s),
                        );
                        step_session(addr, id, 20);
                        mine.push(id);
                    }
                    for _ in 0..10 {
                        step_session(addr, shared, 1);
                    }
                    // Every client destroys its own last session.
                    let dead = *mine.last().expect("created sessions");
                    let (status, _) =
                        http_request(addr, "DELETE", &format!("/sessions/{dead}"), "", b"")
                            .expect("delete");
                    assert_eq!(status, 200);
                    mine
                })
            })
            .collect();
        handles
            .into_iter()
            .map(|h| h.join().expect("client"))
            .collect()
    });

    // No id was handed out twice.
    let mut all: Vec<u64> = ids.iter().flatten().copied().collect();
    let total = all.len();
    all.sort_unstable();
    all.dedup();
    assert_eq!(all.len(), total, "duplicate session ids");

    // shared + survivors; every destroy removed exactly one.
    assert_eq!(
        health_sessions(addr),
        1 + (CLIENTS * (PER_CLIENT - 1)) as u64
    );
    // 8 clients x 10 single steps, none lost.
    let steps = server
        .table()
        .with_session(shared, |s| s.steps())
        .expect("shared alive");
    assert_eq!(steps, (CLIENTS * 10) as u64);
    // Surviving per-client sessions hold exactly their 20 steps.
    for mine in &ids {
        for id in &mine[..mine.len() - 1] {
            let steps = server.table().with_session(*id, |s| s.steps());
            assert_eq!(steps, Some(20), "session {id}");
        }
    }
}

#[test]
fn probe_trajectory_is_immune_to_noisy_neighbors() {
    const NEIGHBORS: usize = 500;
    let probe_config = r#"{"bodies":30,"seed":7}"#;

    // Reference: the probe alone on a quiet server.
    let quiet = parallax_server::serve("127.0.0.1:0").expect("bind");
    let probe_a = create_session(quiet.addr(), probe_config);
    step_session(quiet.addr(), probe_a, 150);
    let reference = body_state_line(quiet.addr(), probe_a);

    // Same probe on a server whose scheduler is busy stepping 500 other
    // worlds the whole time. Same id (created first), same seed — the
    // trajectory must be byte-identical to the quiet run.
    let noisy = parallax_server::serve("127.0.0.1:0").expect("bind");
    let probe_b = create_session(noisy.addr(), probe_config);
    assert_eq!(probe_a, probe_b, "probe ids must match for comparison");
    for seed in 0..NEIGHBORS {
        create_session(
            noisy.addr(),
            &format!("{{\"bodies\":5,\"seed\":{seed},\"step_rate\":30}}"),
        );
    }
    // Step the probe in bursts with pauses so scheduler batches of
    // neighbors interleave with the probe's manual steps.
    for _ in 0..5 {
        step_session(noisy.addr(), probe_b, 30);
        std::thread::sleep(std::time::Duration::from_millis(20));
    }
    assert_eq!(body_state_line(noisy.addr(), probe_b), reference);

    // Keep going on both servers: still lockstep after the first check.
    step_session(quiet.addr(), probe_a, 100);
    step_session(noisy.addr(), probe_b, 100);
    assert_eq!(
        body_state_line(noisy.addr(), probe_b),
        body_state_line(quiet.addr(), probe_a)
    );
}

#[test]
fn snapshot_restore_reproduces_the_trajectory_over_http() {
    let server = parallax_server::serve("127.0.0.1:0").expect("bind");
    let addr = server.addr();
    let id = create_session(addr, r#"{"bodies":20,"seed":3}"#);
    step_session(addr, id, 100);

    let (status, snapshot) =
        http_request(addr, "GET", &format!("/sessions/{id}/snapshot"), "", b"").expect("snapshot");
    assert_eq!(status, 200);
    assert_eq!(&snapshot[..4], b"PXSN");

    step_session(addr, id, 60);
    let first_run = body_state_line(addr, id);

    let (status, body) = http_request(
        addr,
        "POST",
        &format!("/sessions/{id}/restore"),
        "application/octet-stream",
        &snapshot,
    )
    .expect("restore");
    assert_eq!(status, 200, "{}", String::from_utf8_lossy(&body));
    assert_eq!(
        server.table().with_session(id, |s| s.steps()),
        Some(100),
        "restore must rewind the step count"
    );

    // Replaying the same 60 steps from the snapshot point must land on
    // the same state, byte for byte.
    step_session(addr, id, 60);
    assert_eq!(body_state_line(addr, id), first_run);
}

#[test]
fn hostile_restore_is_refused_and_the_session_still_steps() {
    let server = parallax_server::serve("127.0.0.1:0").expect("bind");
    let addr = server.addr();
    let id = create_session(addr, r#"{"bodies":4,"seed":5}"#);
    step_session(addr, id, 10);
    let (status, snapshot) =
        http_request(addr, "GET", &format!("/sessions/{id}/snapshot"), "", b"").expect("snapshot");
    assert_eq!(status, 200);

    // The snapshot ends with the wake queue: an empty one is a zero count.
    // Replace it with one entry naming a body the world does not have.
    let (head, wakes) = snapshot.split_at(snapshot.len() - 8);
    assert_eq!(wakes, 0u64.to_le_bytes(), "no wake pending after a step");
    let hostile = [head, &1u64.to_le_bytes(), &1000u32.to_le_bytes()].concat();
    let (status, body) = http_request(
        addr,
        "POST",
        &format!("/sessions/{id}/restore"),
        "application/octet-stream",
        &hostile,
    )
    .expect("hostile restore");
    assert_eq!(status, 400);
    let body = String::from_utf8_lossy(&body);
    assert!(body.contains("wake queue"), "{body}");

    // The refused restore changed nothing: the session steps on.
    assert_eq!(step_session(addr, id, 5), 15);
}
