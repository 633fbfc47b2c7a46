//! HTTP front end over the session table.
//!
//! Routes (all bodies JSON unless noted):
//!
//! | Method | Path | Meaning |
//! |---|---|---|
//! | `GET`  | `/` | plain-text API index |
//! | `GET`  | `/health` | liveness + fleet summary |
//! | `GET`  | `/metrics` | Prometheus text (shared registry, plus `server_session_heap_bytes`) |
//! | `GET`  | `/sessions` | list sessions |
//! | `POST` | `/sessions` | create (body: optional [`SessionConfig`] JSON) |
//! | `GET`  | `/sessions/:id` | one session's summary |
//! | `DELETE` | `/sessions/:id` | destroy |
//! | `POST` | `/sessions/:id/step?n=K` | advance K steps (default 1) |
//! | `POST` | `/sessions/:id/rate?hz=F` | change the scheduled rate (0 parks) |
//! | `GET`  | `/sessions/:id/state?records=R&bodies=B` | JSONL: step records + body state |
//! | `GET`  | `/sessions/:id/snapshot` | PXSN v2 bytes |
//! | `POST` | `/sessions/:id/restore` | restore a PXSN body |
//!
//! The transport is `telemetry::net::HttpServer` — the same bounded
//! worker pool, size limits and timeouts the observability plane uses.

use std::fmt::Write as _;
use std::io;
use std::net::{SocketAddr, ToSocketAddrs};
use std::sync::Arc;

use parallax_telemetry as telemetry;
use parallax_telemetry::{HttpServer, Request, Response, ServerOptions};

use crate::scheduler::Scheduler;
use crate::session::{SessionConfig, SessionTable};

/// Cap on `?n=` for one manual step request.
const MAX_STEPS_PER_REQUEST: u64 = 10_000;
/// Default `?records=` for `/state`.
const DEFAULT_RECORDS: u64 = 16;

/// A running simulation service: table + scheduler + HTTP listener.
/// Dropping it stops all three (scheduler joins, listener drains).
pub struct Server {
    table: Arc<SessionTable>,
    // Field order is drop order: stop accepting requests first, then
    // join the scheduler, then drop the table.
    http: HttpServer,
    _scheduler: Scheduler,
}

impl Server {
    /// The bound address (useful with port 0).
    pub fn addr(&self) -> SocketAddr {
        self.http.addr()
    }

    /// The session table behind the API.
    pub fn table(&self) -> &Arc<SessionTable> {
        &self.table
    }
}

/// Serves a fresh default [`SessionTable`] on `addr`.
pub fn serve(addr: impl ToSocketAddrs) -> io::Result<Server> {
    serve_with(
        addr,
        Arc::new(SessionTable::default()),
        ServerOptions::default(),
    )
}

/// Serves an existing table with explicit transport options.
///
/// Also enables telemetry recording: a simulation service without its
/// `/metrics` populated is flying blind.
pub fn serve_with(
    addr: impl ToSocketAddrs,
    table: Arc<SessionTable>,
    options: ServerOptions,
) -> io::Result<Server> {
    telemetry::set_enabled(true);
    let scheduler = Scheduler::spawn(Arc::clone(&table));
    let routed = Arc::clone(&table);
    let requests = telemetry::counter("server.http.requests");
    let errors = telemetry::counter("server.http.errors");
    let latency = telemetry::histogram("server.http.request_ns");
    let http = HttpServer::serve_with(addr, options, move |req| {
        let start = telemetry::now_ns();
        let resp = route(&routed, req);
        requests.add(1);
        if resp.status >= 400 {
            errors.add(1);
        }
        latency.record(telemetry::now_ns().saturating_sub(start));
        resp
    })?;
    Ok(Server {
        table,
        http,
        _scheduler: scheduler,
    })
}

fn json_ok(body: String) -> Response {
    Response::ok("application/json", body)
}

fn not_found_session(id: u64) -> Response {
    Response {
        status: 404,
        content_type: "text/plain; charset=utf-8",
        body: format!("no such session {id}\n").into_bytes(),
    }
}

/// Dispatches one request against the table.
fn route(table: &Arc<SessionTable>, req: &Request) -> Response {
    let segments = req.segments();
    match (req.method.as_str(), segments.as_slice()) {
        ("GET", []) => Response::ok("text/plain; charset=utf-8", INDEX.to_string()),
        ("GET", ["health"]) => {
            let infos = table.infos();
            let steps: u64 = infos.iter().map(|i| i.steps).sum();
            json_ok(format!(
                "{{\"status\":\"ok\",\"sessions\":{},\"steps\":{}}}\n",
                infos.len(),
                steps
            ))
        }
        ("GET", ["metrics"]) => {
            // `server.steps` counts off-schedule sessions' ticks once
            // they are settled.
            table.settle_coasting(telemetry::now_ns());
            let mut text = telemetry::prometheus_text(&telemetry::snapshot());
            // `server.session_heap_bytes` is summed here, at the scrape,
            // and written straight into the text: a registry gauge is kept
            // per thread and max-merged, and the request workers take
            // turns serving scrapes.
            let _ = writeln!(
                text,
                "# TYPE server_session_heap_bytes gauge\nserver_session_heap_bytes {}",
                table.session_heap_bytes()
            );
            Response::ok("text/plain; version=0.0.4", text)
        }
        ("GET", ["sessions"]) => {
            let infos = table.infos();
            let mut body = String::with_capacity(64 + infos.len() * 96);
            body.push_str("{\"count\":");
            body.push_str(&infos.len().to_string());
            body.push_str(",\"sessions\":[");
            for (i, info) in infos.iter().enumerate() {
                if i > 0 {
                    body.push(',');
                }
                body.push_str(&info.to_json());
            }
            body.push_str("]}\n");
            json_ok(body)
        }
        ("POST", ["sessions"]) => match SessionConfig::from_json(&req.body) {
            Ok(config) => match table.create(config) {
                Ok(info) => json_ok(format!("{}\n", info.to_json())),
                Err(reason) => Response::conflict(&reason),
            },
            Err(reason) => Response::bad_request(&format!("bad session config: {reason}")),
        },
        (method, ["sessions", id_text]) => match parse_id(id_text) {
            None => Response::not_found(&req.path),
            Some(id) => match method {
                "GET" => match table.with_session(id, |s| s.info().to_json()) {
                    Some(json) => json_ok(format!("{json}\n")),
                    None => not_found_session(id),
                },
                "DELETE" => {
                    if table.destroy(id) {
                        json_ok(format!("{{\"id\":{id},\"deleted\":true}}\n"))
                    } else {
                        not_found_session(id)
                    }
                }
                other => Response::method_not_allowed(other, "GET, DELETE"),
            },
        },
        (method, ["sessions", id_text, action]) => match parse_id(id_text) {
            None => Response::not_found(&req.path),
            Some(id) => match (method, *action) {
                ("POST", "step") => {
                    let n = req.query_u64("n").unwrap_or(1);
                    if n == 0 || n > MAX_STEPS_PER_REQUEST {
                        return Response::bad_request(&format!(
                            "n must be in 1..={MAX_STEPS_PER_REQUEST}, got {n}"
                        ));
                    }
                    match table.step(id, n) {
                        Some(steps) => json_ok(format!("{{\"id\":{id},\"steps\":{steps}}}\n")),
                        None => not_found_session(id),
                    }
                }
                ("GET", "state") => {
                    let records = req.query_u64("records").unwrap_or(DEFAULT_RECORDS) as usize;
                    let bodies = req.query_u64("bodies").unwrap_or(u64::MAX) as usize;
                    match table.with_session(id, |s| s.state_jsonl(records, bodies)) {
                        Some(body) => Response::ok("application/jsonl", body),
                        None => not_found_session(id),
                    }
                }
                ("GET", "snapshot") => match table.with_session(id, |s| s.snapshot()) {
                    Some(bytes) => Response::ok_bytes("application/octet-stream", bytes),
                    None => not_found_session(id),
                },
                ("POST", "rate") => {
                    let hz = match req.query("hz").map(str::parse::<f64>) {
                        Some(Ok(hz)) if hz.is_finite() && (0.0..=100_000.0).contains(&hz) => hz,
                        _ => {
                            return Response::bad_request(
                                "rate requires ?hz= in 0..=100000 (0 parks the session)",
                            )
                        }
                    };
                    let now = telemetry::now_ns();
                    match table.with_session(id, |s| s.set_step_rate(hz, now)) {
                        Some(()) => json_ok(format!("{{\"id\":{id},\"step_rate\":{hz}}}\n")),
                        None => not_found_session(id),
                    }
                }
                ("POST", "restore") => match table.with_session(id, |s| s.restore(&req.body)) {
                    Some(Ok(())) => {
                        let steps = table.with_session(id, |s| s.steps()).unwrap_or(0);
                        json_ok(format!(
                            "{{\"id\":{id},\"restored\":true,\"steps\":{steps}}}\n"
                        ))
                    }
                    Some(Err(err)) => Response::bad_request(&err.to_string()),
                    None => not_found_session(id),
                },
                (_, "step" | "restore" | "rate") => Response::method_not_allowed(method, "POST"),
                (_, "state" | "snapshot") => Response::method_not_allowed(method, "GET"),
                _ => Response::not_found(&req.path),
            },
        },
        _ => Response::not_found(&req.path),
    }
}

fn parse_id(text: &str) -> Option<u64> {
    text.parse::<u64>().ok()
}

const INDEX: &str = "parallax-server: multi-world simulation service\n\
\n\
  GET    /health\n\
  GET    /metrics\n\
  GET    /sessions\n\
  POST   /sessions                      {\"scene\",\"bodies\",\"scale\",\"seed\",\"step_rate\",\"sleeping\"}\n\
  GET    /sessions/:id\n\
  DELETE /sessions/:id\n\
  POST   /sessions/:id/step?n=K\n\
  POST   /sessions/:id/rate?hz=F\n\
  GET    /sessions/:id/state?records=R&bodies=B\n\
  GET    /sessions/:id/snapshot\n\
  POST   /sessions/:id/restore\n";

#[cfg(test)]
mod tests {
    use super::*;
    use parallax_telemetry::{http_get, http_request};

    fn start() -> Server {
        serve("127.0.0.1:0").expect("bind")
    }

    #[test]
    fn create_step_state_destroy_over_http() {
        let server = start();
        let addr = server.addr();
        let (status, body) = http_request(
            addr,
            "POST",
            "/sessions",
            "application/json",
            br#"{"bodies":10,"seed":4}"#,
        )
        .expect("create");
        assert_eq!(status, 200, "{}", String::from_utf8_lossy(&body));
        let created =
            telemetry::json::Json::parse(std::str::from_utf8(&body).expect("utf8")).expect("json");
        let id = created.get("id").and_then(|v| v.as_u64()).expect("id");
        assert_eq!(created.get("bodies").and_then(|v| v.as_u64()), Some(10));

        let (status, body) = http_request(
            addr,
            "POST",
            &format!("/sessions/{id}/step?n=7"),
            "application/json",
            b"",
        )
        .expect("step");
        assert_eq!(status, 200);
        let stepped =
            telemetry::json::Json::parse(std::str::from_utf8(&body).expect("utf8")).expect("json");
        assert_eq!(stepped.get("steps").and_then(|v| v.as_u64()), Some(7));

        let (status, state) =
            http_get(addr, &format!("/sessions/{id}/state?records=4")).expect("state");
        assert_eq!(status, 200);
        let lines: Vec<&str> = state.lines().collect();
        assert_eq!(lines.len(), 5, "4 records + body state: {state}");
        telemetry::StepRecord::from_json_line(lines[0]).expect("record parses");

        let (status, _) =
            http_request(addr, "DELETE", &format!("/sessions/{id}"), "", b"").expect("delete");
        assert_eq!(status, 200);
        let (status, _) = http_get(addr, &format!("/sessions/{id}/state")).expect("state");
        assert_eq!(status, 404);
    }

    #[test]
    fn snapshot_restore_round_trip_over_http() {
        let server = start();
        let addr = server.addr();
        let (_, body) = http_request(
            addr,
            "POST",
            "/sessions",
            "application/json",
            br#"{"bodies":15,"seed":11}"#,
        )
        .expect("create");
        let created =
            telemetry::json::Json::parse(std::str::from_utf8(&body).expect("utf8")).expect("json");
        let id = created.get("id").and_then(|v| v.as_u64()).expect("id");
        http_request(addr, "POST", &format!("/sessions/{id}/step?n=20"), "", b"").expect("step");

        let (status, snapshot) =
            http_request(addr, "GET", &format!("/sessions/{id}/snapshot"), "", b"")
                .expect("snapshot");
        assert_eq!(status, 200);
        assert_eq!(&snapshot[..4], b"PXSN");
        let digest_at_20 = server
            .table()
            .with_session(id, |s| parallax_physics::world_digest(s.world()))
            .expect("alive");

        http_request(addr, "POST", &format!("/sessions/{id}/step?n=30"), "", b"").expect("step");
        let (status, body) = http_request(
            addr,
            "POST",
            &format!("/sessions/{id}/restore"),
            "application/octet-stream",
            &snapshot,
        )
        .expect("restore");
        assert_eq!(status, 200, "{}", String::from_utf8_lossy(&body));
        let after = server
            .table()
            .with_session(id, |s| {
                (s.steps(), parallax_physics::world_digest(s.world()))
            })
            .expect("alive");
        assert_eq!(after, (20, digest_at_20));

        // Corrupt snapshots are a 400, not a panic.
        let (status, _) = http_request(
            addr,
            "POST",
            &format!("/sessions/{id}/restore"),
            "application/octet-stream",
            b"NOTAPXSN",
        )
        .expect("bad restore");
        assert_eq!(status, 400);
    }

    #[test]
    fn malformed_and_unknown_requests() {
        let server = start();
        let addr = server.addr();
        let (status, _) = http_get(addr, "/nope").expect("get");
        assert_eq!(status, 404);
        let (status, _) = http_get(addr, "/sessions/999").expect("get");
        assert_eq!(status, 404);
        let (status, _) = http_get(addr, "/sessions/notanumber").expect("get");
        assert_eq!(status, 404);
        let (status, _) = http_request(addr, "PATCH", "/sessions/1/step", "", b"").expect("patch");
        assert_eq!(status, 405);
        let (status, body) = http_request(
            addr,
            "POST",
            "/sessions",
            "application/json",
            br#"{"scene":"NoSuchScene"}"#,
        )
        .expect("bad create");
        assert_eq!(status, 400, "{}", String::from_utf8_lossy(&body));
        let (status, _) = http_request(
            addr,
            "POST",
            "/sessions/1/step?n=0",
            "application/json",
            b"",
        )
        .expect("bad step");
        assert!(status == 400 || status == 404);
    }

    #[test]
    fn metrics_and_health_reflect_the_fleet() {
        let server = start();
        let addr = server.addr();
        for _ in 0..3 {
            let (status, _) = http_request(
                addr,
                "POST",
                "/sessions",
                "application/json",
                br#"{"bodies":5}"#,
            )
            .expect("create");
            assert_eq!(status, 200);
        }
        let (status, health) = http_get(addr, "/health").expect("health");
        assert_eq!(status, 200);
        let health = telemetry::json::Json::parse(health.trim()).expect("health json");
        assert_eq!(health.get("sessions").and_then(|v| v.as_u64()), Some(3));
        let (status, metrics) = http_get(addr, "/metrics").expect("metrics");
        assert_eq!(status, 200);
        assert!(
            metrics.contains("server_sessions"),
            "session gauge missing from metrics:\n{metrics}"
        );
        // The sessions are manual, so nothing steps between the scrape
        // and the sum taken here.
        let heap: usize = metrics
            .lines()
            .find_map(|l| l.strip_prefix("server_session_heap_bytes "))
            .and_then(|v| v.parse().ok())
            .expect("session heap gauge");
        let table = server.table();
        let each: Vec<usize> = (table.infos().iter())
            .map(|info| {
                table
                    .with_session(info.id, |s| s.world().heap_bytes().total())
                    .expect("live")
            })
            .collect();
        assert_eq!(each.len(), 3);
        assert!(each.iter().all(|&b| b > 0), "{each:?}");
        assert_eq!(heap, each.iter().sum::<usize>());
    }

    #[test]
    fn scheduled_session_advances_without_step_calls() {
        let _serial = crate::schedule_guard();
        let server = start();
        let addr = server.addr();
        let (status, body) = http_request(
            addr,
            "POST",
            "/sessions",
            "application/json",
            br#"{"bodies":5,"step_rate":500}"#,
        )
        .expect("create");
        assert_eq!(status, 200, "{}", String::from_utf8_lossy(&body));
        let created =
            telemetry::json::Json::parse(std::str::from_utf8(&body).expect("utf8")).expect("json");
        let id = created.get("id").and_then(|v| v.as_u64()).expect("id");
        let deadline = std::time::Instant::now() + std::time::Duration::from_secs(10);
        loop {
            let steps = server
                .table()
                .with_session(id, |s| s.steps())
                .expect("alive");
            if steps >= 5 {
                break;
            }
            assert!(
                std::time::Instant::now() < deadline,
                "scheduler never stepped the session"
            );
            std::thread::sleep(std::time::Duration::from_millis(5));
        }
    }
}
