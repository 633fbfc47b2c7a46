//! Fleet workloads: the real `serve` binary as a child process, driven
//! over HTTP by an open-loop poller and a lockstep client.
//!
//! * Thread A, the poller: Poisson arrivals at [`POLL_RATE_HZ`], each a
//!   `GET /sessions/:id/state?records=2&bodies=16` on a random resident
//!   session. Open loop: independent observers do not wait for each
//!   other.
//! * Thread B, the lockstep client: frames on a fixed [`FRAME_RATE_HZ`]
//!   schedule. One frame is, for each of three manual probe sessions,
//!   `POST step?n=3` then `GET state?records=1&bodies=16` — a game
//!   client that steps its own level and waits for the reply. It also
//!   issues the churn operations of `fleet_active`.
//!
//! Every latency is taken from the instant the request was *due*, so a
//! stall is charged to every request it delays, and how late the
//! generator itself ran is reported. At most two connections are open
//! at once (this host has two cores, one of which the server needs).

use std::collections::{BTreeMap, VecDeque};
use std::io::{BufRead as _, BufReader};
use std::net::SocketAddr;
use std::path::Path;
use std::process::{Child, ChildStdout, Command, Stdio};
use std::time::{Duration, Instant};

use parallax_telemetry::json::Json;
use parallax_telemetry::stats::SplitMix64;

use crate::client::{self, Reply};
use crate::hostspeed::{self, Meter, Probe};
use crate::report::Outcome;
use crate::spans::Recorder;
use crate::{procfs, stats, table, RunOpts};

/// Poller arrival rate.
pub const POLL_RATE_HZ: f64 = 100.0;
/// Lockstep frame rate (the paper's 30 FPS).
pub const FRAME_RATE_HZ: f64 = 30.0;
/// Scheduled rate of resident sessions.
pub const SESSION_HZ: f64 = 60.0;
/// Resident sessions of `fleet_settled`: about half a core of `serve` on
/// the sizing host. With the issue's 400 the child ran at 0.8–0.9 of a
/// core beside the two load threads on two cores, and every slow spell
/// of the host turned into queueing: frame latency moved by 60 % between
/// runs where CPU per step moved by 13 %.
pub const SETTLED_SESSIONS: usize = 240;
/// Steps a stack session is given to settle and fall asleep.
pub const SETTLE_STEPS: u64 = 240;
/// Load before the measured window, discarded.
const WARM: Duration = Duration::from_secs(1);
/// How often the host's speed is sampled during a window.
const PROBE_PERIOD: Duration = Duration::from_millis(50);
/// Period of the churn operations of `fleet_active`.
const CHURN_PERIOD: Duration = Duration::from_millis(500);
/// Churn sessions kept alive; the oldest beyond this is deleted.
const CHURN_KEEP: usize = 8;

/// The two fleet workloads.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum FleetKind {
    /// [`SETTLED_SESSIONS`] settled 100-body sessions: every world
    /// coasts, the CPU goes to the scheduler, session locks and
    /// transport.
    Settled,
    /// 12 never-settling sessions plus create/destroy/snapshot/restore
    /// churn: the CPU goes to full `World::step` pipelines, and writes
    /// run beside reads.
    Active,
}

/// One session of a fleet: its `POST /sessions` body, how many manual
/// steps settle it, and whether the scheduler then steps it.
#[derive(Debug, Clone)]
pub struct SessionPlan {
    /// `POST /sessions` body (always a manual session).
    pub json: String,
    /// Manual steps applied right after creation.
    pub settle: u64,
}

/// The sessions a fleet workload creates, from its seed.
#[derive(Debug, Clone)]
pub struct FleetPlan {
    /// Scheduled at [`SESSION_HZ`] once created and settled.
    pub residents: Vec<SessionPlan>,
    /// Manual sessions the lockstep client steps.
    pub probes: Vec<SessionPlan>,
    /// Whether the lockstep client also churns sessions.
    pub churn: bool,
    /// Seed base of churn sessions.
    pub churn_seed: u64,
}

const ACTIVE_SCENES: [&str; 3] = ["Periodic", "Continuous", "Deformable"];

fn stack_json(seed: u64) -> String {
    format!("{{\"bodies\":100,\"seed\":{seed}}}")
}

fn scene_json(scene: &str, seed: u64) -> String {
    format!("{{\"scene\":\"{scene}\",\"scale\":0.1,\"seed\":{seed}}}")
}

/// Builds the fleet of `kind` for `seed`, `div` times smaller than full
/// size.
pub fn plan(kind: FleetKind, seed: u64, div: u32) -> FleetPlan {
    let base = seed.wrapping_mul(1000);
    let div = div.max(1) as usize;
    match kind {
        FleetKind::Settled => FleetPlan {
            residents: (0..(SETTLED_SESSIONS / div).max(3) as u64)
                .map(|i| SessionPlan {
                    json: stack_json(base + i),
                    settle: SETTLE_STEPS,
                })
                .collect(),
            probes: (0..3)
                .map(|j| SessionPlan {
                    json: stack_json(base + 900 + j),
                    settle: SETTLE_STEPS,
                })
                .collect(),
            churn: false,
            churn_seed: 0,
        },
        FleetKind::Active => FleetPlan {
            residents: (0..(12 / div).max(3) as u64)
                .map(|i| SessionPlan {
                    json: scene_json(ACTIVE_SCENES[i as usize % 3], base + i),
                    settle: 0,
                })
                .collect(),
            probes: (0..3)
                .map(|j| SessionPlan {
                    json: scene_json(ACTIVE_SCENES[j], base + 900 + j as u64),
                    settle: 0,
                })
                .collect(),
            churn: true,
            churn_seed: base + 1000,
        },
    }
}

/// Poisson arrival schedule for the poller: `(due, resident index)`
/// pairs over `total`, reproducible from the seed.
pub fn poll_schedule(seed: u64, residents: usize, total: Duration) -> Vec<(Duration, usize)> {
    let mut rng = SplitMix64::new(seed ^ 0x0070_6F6C_6C65_7221);
    let mut out = Vec::new();
    let mut at = 0.0f64;
    loop {
        // Uniform in (0, 1]: the gap is finite.
        let u = ((rng.next_u64() >> 11) + 1) as f64 / (1u64 << 53) as f64;
        at += -u.ln() / POLL_RATE_HZ;
        if at >= total.as_secs_f64() {
            return out;
        }
        out.push((Duration::from_secs_f64(at), rng.index(residents)));
    }
}

/// The `serve` child. Killed and reaped on drop.
struct ServeChild {
    child: Child,
    addr: SocketAddr,
    /// Held open for the child's whole life: `serve` panics on its next
    /// `println!` if the read end of its stdout closes. It prints two
    /// lines at start-up and nothing later, so the pipe never fills.
    _stdout: BufReader<ChildStdout>,
}

impl ServeChild {
    fn spawn(bin: &Path) -> Result<ServeChild, String> {
        let mut command = Command::new(bin);
        command
            .arg("127.0.0.1:0")
            .stdin(Stdio::null())
            .stdout(Stdio::piped())
            .stderr(Stdio::inherit());
        for (name, _) in std::env::vars_os() {
            if name.to_string_lossy().starts_with("PARALLAX_") {
                command.env_remove(name);
            }
        }
        let mut child = command
            .spawn()
            .map_err(|e| format!("cannot start {}: {e}", bin.display()))?;
        let stdout = BufReader::new(child.stdout.take().expect("stdout was piped"));
        // From here on an early return drops `serve`, which reaps the child.
        let mut serve = ServeChild {
            child,
            addr: SocketAddr::from(([127, 0, 0, 1], 0)),
            _stdout: stdout,
        };
        let mut line = String::new();
        loop {
            line.clear();
            match serve._stdout.read_line(&mut line) {
                Ok(n) if n > 0 => {}
                _ => return Err(format!("{} exited before listening", bin.display())),
            }
            if let Some(addr) = line
                .trim()
                .strip_prefix("parallax-server listening on http://")
            {
                serve.addr = addr.parse().map_err(|e| format!("{addr}: {e}"))?;
                return Ok(serve);
            }
        }
    }

    fn pid(&self) -> u32 {
        self.child.id()
    }
}

impl Drop for ServeChild {
    fn drop(&mut self) {
        let _ = self.child.kill();
        let _ = self.child.wait();
    }
}

/// One thread's view of the server: sends requests, counts them, keeps
/// the client-side stage timings.
struct Caller {
    addr: SocketAddr,
    rec: Recorder,
    attempted: u64,
    failed: u64,
    first_error: Option<String>,
    connect_us: Vec<f64>,
    ttfb_us: Vec<f64>,
}

impl Caller {
    fn new(addr: SocketAddr, rec: Recorder) -> Caller {
        Caller {
            addr,
            rec,
            attempted: 0,
            failed: 0,
            first_error: None,
            connect_us: Vec::new(),
            ttfb_us: Vec::new(),
        }
    }

    fn fail(&mut self, why: String) {
        self.failed += 1;
        self.first_error.get_or_insert(why);
    }

    /// Sends a request; `None` (and one failure) unless it came back 2xx.
    fn call(&mut self, method: &str, path: &str, body: &[u8], group: u64) -> Option<Reply> {
        self.attempted += 1;
        match client::request(self.addr, method, path, body, &mut self.rec, group) {
            Ok(reply) if reply.ok() => {
                self.connect_us
                    .push((reply.connected - reply.start).as_secs_f64() * 1e6);
                self.ttfb_us
                    .push((reply.first_byte - reply.written).as_secs_f64() * 1e6);
                Some(reply)
            }
            Ok(reply) => {
                self.fail(format!("{method} {path}: status {}", reply.status));
                None
            }
            Err(why) => {
                self.fail(why);
                None
            }
        }
    }

    /// Sends a request whose 2xx body must be one JSON document holding
    /// `key`; a body that does not parse is a failure.
    fn call_json(
        &mut self,
        method: &str,
        path: &str,
        body: &[u8],
        key: &str,
        group: u64,
    ) -> Option<Json> {
        let reply = self.call(method, path, body, group)?;
        match Json::parse(reply.text().trim()) {
            Ok(json) if json.get(key).is_some() => Some(json),
            _ => {
                self.fail(format!("{method} {path}: body is not JSON with {key:?}"));
                None
            }
        }
    }

    /// `GET state`: JSONL whose last line must hold `body_state`.
    fn state(&mut self, id: u64, records: usize, group: u64) -> Option<Reply> {
        let path = format!("/sessions/{id}/state?records={records}&bodies=16");
        let reply = self.call("GET", &path, b"", group)?;
        let text = reply.text();
        let last_ok = text
            .lines()
            .last()
            .and_then(|line| Json::parse(line).ok())
            .is_some_and(|json| json.get("body_state").is_some());
        if last_ok {
            Some(reply)
        } else {
            self.fail(format!("GET {path}: no body_state line"));
            None
        }
    }

    fn create(&mut self, json: &str, group: u64) -> Option<u64> {
        self.call_json("POST", "/sessions", json.as_bytes(), "id", group)?
            .get("id")
            .and_then(Json::as_u64)
    }

    fn step(&mut self, id: u64, n: u64, group: u64) -> Option<u64> {
        let path = format!("/sessions/{id}/step?n={n}");
        self.call_json("POST", &path, b"", "steps", group)?
            .get("steps")
            .and_then(Json::as_u64)
    }

    fn set_rate(&mut self, id: u64, hz: f64, group: u64) -> bool {
        let path = format!("/sessions/{id}/rate?hz={hz}");
        self.call_json("POST", &path, b"", "step_rate", group)
            .is_some()
    }

    /// Creates a planned session and settles it.
    fn create_planned(&mut self, plan: &SessionPlan) -> Option<u64> {
        let id = self.create(&plan.json, 0)?;
        if plan.settle > 0 {
            self.step(id, plan.settle, 0)?;
        }
        Some(id)
    }
}

/// What `GET /sessions`, `GET /metrics` and `/proc` say at one instant.
struct Boundary {
    at: Instant,
    cpu_s: f64,
    steps_by_id: BTreeMap<u64, u64>,
    bodies: u64,
    sleeping_bodies: u64,
    scrape: BTreeMap<String, f64>,
    handler_buckets: BTreeMap<u64, u64>,
}

const HANDLER_HISTOGRAM: &str = "server_http_request_ns";

/// Parses Prometheus text into plain samples plus the cumulative buckets
/// (`le` → count) of the handler-latency histogram.
fn parse_metrics(text: &str) -> (BTreeMap<String, f64>, BTreeMap<u64, u64>) {
    let mut samples = BTreeMap::new();
    let mut buckets = BTreeMap::new();
    let bucket_prefix = format!("{HANDLER_HISTOGRAM}_bucket{{le=\"");
    for line in text.lines().filter(|l| !l.starts_with('#')) {
        let Some((name, value)) = line.rsplit_once(' ') else {
            continue;
        };
        if let Some(rest) = name.strip_prefix(&bucket_prefix) {
            let le = rest.trim_end_matches("\"}");
            if let (Ok(le), Ok(count)) = (le.parse::<u64>(), value.parse::<u64>()) {
                buckets.insert(le, count);
            }
        } else if let Ok(value) = value.parse::<f64>() {
            samples.insert(name.to_string(), value);
        }
    }
    (samples, buckets)
}

/// Upper bound (ns) of the bucket holding quantile `q` of the requests
/// handled between two scrapes. The exporter omits empty buckets, so a
/// missing `le` carries the cumulative count of the one below it.
fn handler_quantile_ns(before: &BTreeMap<u64, u64>, after: &BTreeMap<u64, u64>, q: f64) -> f64 {
    let cumulative = |buckets: &BTreeMap<u64, u64>, le: u64| {
        buckets.range(..=le).next_back().map_or(0, |(_, &c)| c)
    };
    let edges: Vec<u64> = after.keys().chain(before.keys()).copied().collect();
    let Some(&top) = edges.iter().max() else {
        return 0.0;
    };
    let total = cumulative(after, top).saturating_sub(cumulative(before, top));
    let target = (q * total as f64).ceil().max(1.0) as u64;
    let mut sorted = edges;
    sorted.sort_unstable();
    sorted.dedup();
    sorted
        .into_iter()
        .find(|&le| cumulative(after, le).saturating_sub(cumulative(before, le)) >= target)
        .unwrap_or(top) as f64
}

fn boundary(caller: &mut Caller, pid: u32) -> Result<Boundary, String> {
    let sessions = caller
        .call_json("GET", "/sessions", b"", "sessions", 0)
        .ok_or("GET /sessions failed")?;
    let at = Instant::now();
    let cpu_s = procfs::cpu_seconds(pid)?;
    let metrics = caller
        .call("GET", "/metrics", b"", 0)
        .ok_or("GET /metrics failed")?;
    let (scrape, handler_buckets) = parse_metrics(&metrics.text());
    let mut steps_by_id = BTreeMap::new();
    let (mut bodies, mut sleeping_bodies) = (0, 0);
    for session in sessions
        .get("sessions")
        .and_then(Json::as_arr)
        .unwrap_or(&[])
    {
        let field = |key: &str| session.get(key).and_then(Json::as_u64).unwrap_or(0);
        steps_by_id.insert(field("id"), field("steps"));
        bodies += field("bodies");
        sleeping_bodies += field("sleeping_bodies");
    }
    Ok(Boundary {
        at,
        cpu_s,
        steps_by_id,
        bodies,
        sleeping_bodies,
        scrape,
        handler_buckets,
    })
}

/// Samples of one load window (warm-up already dropped).
#[derive(Default)]
struct Samples {
    poll_ms: Vec<f64>,
    frame_ms: Vec<f64>,
    late_ms: Vec<f64>,
    create_ms: Vec<f64>,
    destroy_ms: Vec<f64>,
    snapshot_ms: Vec<f64>,
    restore_ms: Vec<f64>,
}

impl Samples {
    fn scale(&mut self, factor: f64) {
        let all = [
            &mut self.poll_ms,
            &mut self.frame_ms,
            &mut self.late_ms,
            &mut self.create_ms,
            &mut self.destroy_ms,
            &mut self.snapshot_ms,
            &mut self.restore_ms,
        ];
        for sample in all.into_iter().flatten() {
            *sample *= factor;
        }
    }
}

fn sleep_until(deadline: Instant) -> f64 {
    let now = Instant::now();
    if deadline > now {
        std::thread::sleep(deadline - now);
    }
    Instant::now()
        .saturating_duration_since(deadline)
        .as_secs_f64()
        * 1e3
}

fn ms_since(due: Instant) -> f64 {
    due.elapsed().as_secs_f64() * 1e3
}

/// A request that failed has no latency; it is charged the client
/// timeout, so a refused request misses every latency percentile.
const FAILED_MS: f64 = 5_000.0;

/// When a load window starts, from when its samples are kept (the
/// warm-up before is dropped), and when it ends.
#[derive(Clone, Copy)]
struct Load {
    origin: Instant,
    keep_from: Duration,
    total: Duration,
}

fn poller(
    caller: &mut Caller,
    schedule: &[(Duration, usize)],
    residents: &[u64],
    load: Load,
    out: &mut Samples,
) {
    for (n, &(due, pick)) in schedule.iter().enumerate() {
        let due_at = load.origin + due;
        let late = sleep_until(due_at);
        let ok = caller.state(residents[pick], 2, n as u64).is_some();
        if due >= load.keep_from {
            out.late_ms.push(late);
            out.poll_ms
                .push(if ok { ms_since(due_at) } else { FAILED_MS });
        }
    }
}

/// State of the churn operations of `fleet_active`.
struct Churn {
    seed: u64,
    ring: VecDeque<u64>,
    count: u64,
}

impl Churn {
    /// Creates a scheduled stack session: it falls, settles and sleeps.
    fn create(&mut self, caller: &mut Caller, group: u64) -> Option<u64> {
        let json = format!(
            "{{\"bodies\":100,\"seed\":{},\"step_rate\":{SESSION_HZ}}}",
            self.seed + self.count
        );
        self.count += 1;
        let id = caller.create(&json, group)?;
        self.ring.push_back(id);
        Some(id)
    }

    /// Fills the ring as steady-state churn would have: a session lives
    /// `CHURN_KEEP` periods (240 steps at 60 Hz), so the `k`-th youngest
    /// has taken `k` periods' worth of steps when the window opens.
    fn prefill(&mut self, caller: &mut Caller) {
        let steps_per_period = (SESSION_HZ * CHURN_PERIOD.as_secs_f64()) as u64;
        for age in (1..=CHURN_KEEP as u64).rev() {
            if let Some(id) = self.create(caller, 0) {
                caller.step(id, age * steps_per_period, 0);
            }
        }
    }

    /// One churn tick: create a session, delete the oldest beyond
    /// [`CHURN_KEEP`], and round-trip one resident through snapshot →
    /// restore.
    fn run(&mut self, caller: &mut Caller, residents: &[u64], measured: bool, out: &mut Samples) {
        let group = 1_000_000 + self.count;
        let sample = |samples: &mut Vec<f64>, since: Instant| {
            if measured {
                samples.push(ms_since(since));
            }
        };
        let start = Instant::now();
        self.create(caller, group);
        sample(&mut out.create_ms, start);
        if self.ring.len() > CHURN_KEEP {
            let oldest = self.ring.pop_front().expect("ring is not empty");
            let start = Instant::now();
            caller.call_json(
                "DELETE",
                &format!("/sessions/{oldest}"),
                b"",
                "deleted",
                group,
            );
            sample(&mut out.destroy_ms, start);
        }
        let resident = residents[self.count as usize % residents.len()];
        let start = Instant::now();
        let snapshot = caller.call("GET", &format!("/sessions/{resident}/snapshot"), b"", group);
        sample(&mut out.snapshot_ms, start);
        if let Some(snapshot) = snapshot {
            let start = Instant::now();
            let path = format!("/sessions/{resident}/restore");
            caller.call_json("POST", &path, &snapshot.body, "restored", group);
            sample(&mut out.restore_ms, start);
        }
    }
}

fn lockstep(
    caller: &mut Caller,
    probes: &[u64],
    residents: &[u64],
    mut churn: Option<&mut Churn>,
    load: Load,
    seed: u64,
    out: &mut Samples,
) {
    let period = Duration::from_secs_f64(1.0 / FRAME_RATE_HZ);
    let mut next_churn = Duration::ZERO;
    let mut rng = SplitMix64::new(seed ^ 0x6672_616D_6573);
    for frame in 0u32.. {
        // A frame is due somewhere in the first half of its slot — one
        // period of the 60 Hz scheduler — so that a run samples every
        // phase between the two clocks and not the one it started at.
        let jitter = (rng.next_u64() >> 11) as f64 / (1u64 << 53) as f64 / 2.0;
        let due = period.mul_f64(frame as f64 + jitter);
        if due >= load.total {
            break;
        }
        let due_at = load.origin + due;
        let late = sleep_until(due_at);
        let mut ok = true;
        for &probe in probes {
            ok &= caller.step(probe, 3, frame as u64).is_some();
            ok &= caller.state(probe, 1, frame as u64).is_some();
        }
        let measured = due >= load.keep_from;
        if measured {
            out.late_ms.push(late);
            out.frame_ms
                .push(if ok { ms_since(due_at) } else { FAILED_MS });
        }
        if let Some(churn) = churn.as_deref_mut() {
            if due >= next_churn {
                churn.run(caller, residents, measured, out);
                next_churn += CHURN_PERIOD;
            }
        }
    }
}

/// A running fleet: the child and its sessions.
struct Fleet {
    serve: ServeChild,
    residents: Vec<u64>,
    probes: Vec<u64>,
    churn: Option<Churn>,
    seed: u64,
    /// Used for set-up and for the boundary reads of every window.
    control: Caller,
}

/// One measured window: its samples, the boundaries read at its start
/// and end, and the two load threads' callers.
struct Window {
    samples: Samples,
    before: Boundary,
    after: Boundary,
    /// Scales a time of this window to the host's reference speed.
    host_factor: f64,
    callers: [Caller; 2],
}

impl Fleet {
    /// Starts `serve` and creates the planned sessions from two threads
    /// (creating and settling is CPU work on the server's side).
    fn start(plan: &FleetPlan, opts: &RunOpts, meter: &mut Meter) -> Result<Fleet, String> {
        let serve = ServeChild::spawn(&opts.serve_bin)?;
        let addr = serve.addr;
        let off = || Recorder::new(false, Instant::now(), 0);
        // The host's speed is sampled on this thread every few sessions.
        let create_all = |plans: Vec<(usize, &SessionPlan)>, mut meter: Option<&mut Meter>| {
            let mut caller = Caller::new(addr, off());
            let ids: Vec<(usize, Option<u64>)> = plans
                .into_iter()
                .map(|(i, plan)| {
                    if let Some(meter) = meter.as_deref_mut().filter(|_| i % 16 == 0) {
                        meter.sample(1);
                    }
                    (i, caller.create_planned(plan))
                })
                .collect();
            (ids, caller)
        };
        let (even, odd): (Vec<_>, Vec<_>) = plan
            .residents
            .iter()
            .enumerate()
            .partition(|(i, _)| i % 2 == 0);
        let halves = std::thread::scope(|scope| {
            let other = scope.spawn(|| create_all(odd, None));
            [
                create_all(even, Some(meter)),
                other.join().expect("creation thread panicked"),
            ]
        });
        let mut control = Caller::new(addr, off());
        let mut created: Vec<(usize, Option<u64>)> = Vec::new();
        for (ids, caller) in halves {
            created.extend(ids);
            control.attempted += caller.attempted;
            control.failed += caller.failed;
            control.first_error = control.first_error.or(caller.first_error);
        }
        created.sort_unstable();
        let residents: Vec<u64> = created.into_iter().filter_map(|(_, id)| id).collect();
        let probes: Vec<u64> = plan
            .probes
            .iter()
            .filter_map(|p| control.create_planned(p))
            .collect();
        let mut scheduled = 0;
        for &id in &residents {
            scheduled += usize::from(control.set_rate(id, SESSION_HZ, 0));
        }
        if scheduled != plan.residents.len() || probes.len() != plan.probes.len() {
            return Err(format!(
                "fleet creation failed: {}",
                control.first_error.as_deref().unwrap_or("unknown")
            ));
        }
        let churn = plan.churn.then(|| {
            let mut churn = Churn {
                seed: plan.churn_seed,
                ring: VecDeque::new(),
                count: 0,
            };
            churn.prefill(&mut control);
            churn
        });
        Ok(Fleet {
            serve,
            residents,
            probes,
            churn,
            seed: opts.seed,
            control,
        })
    }

    /// Drives the load for `warm + measure` and returns the kept
    /// samples with the boundaries read where the kept part starts and
    /// ends.
    fn window(&mut self, warm: Duration, measure: Duration, spans: bool) -> Result<Window, String> {
        let load = Load {
            origin: Instant::now(),
            keep_from: warm,
            total: warm + measure,
        };
        let addr = self.serve.addr;
        let pid = self.serve.pid();
        // Each window of a run polls on a fresh stretch of the schedule.
        self.seed = self.seed.wrapping_add(1);
        let seed = self.seed;
        let schedule = poll_schedule(seed, self.residents.len(), load.total);
        let mut poll_caller = Caller::new(addr, Recorder::new(spans, load.origin, 1));
        let mut frame_caller = Caller::new(addr, Recorder::new(spans, load.origin, 2));
        let (mut polls, mut frames) = (Samples::default(), Samples::default());
        let (residents, probes) = (&self.residents, &self.probes);
        let churn = self.churn.as_mut();
        let control = &mut self.control;
        let mut probe = Probe::new();
        let mut kernel_s = Vec::new();
        let (before, after) = std::thread::scope(|scope| {
            scope.spawn(|| poller(&mut poll_caller, &schedule, residents, load, &mut polls));
            scope.spawn(|| {
                lockstep(
                    &mut frame_caller,
                    probes,
                    residents,
                    churn,
                    load,
                    seed,
                    &mut frames,
                )
            });
            sleep_until(load.origin + warm);
            let before = boundary(control, pid);
            let end = load.origin + load.total;
            while Instant::now() < end {
                kernel_s.push(probe.sample());
                sleep_until(end.min(Instant::now() + PROBE_PERIOD));
            }
            (before, boundary(control, pid))
        });
        frames.poll_ms = polls.poll_ms;
        frames.late_ms.extend(polls.late_ms);
        // Every time of the window is reported at the host's reference
        // speed, like the scene and sweep walls.
        let host_factor = hostspeed::factor(&kernel_s);
        frames.scale(host_factor);
        Ok(Window {
            samples: frames,
            before: before?,
            after: after?,
            host_factor,
            callers: [poll_caller, frame_caller],
        })
    }
}

/// The numbers of one window that both the untraced and the traced run
/// report.
struct WindowStats {
    seconds: f64,
    resident_steps_per_s: f64,
    cpu_us_per_step: f64,
    cpu_share: f64,
}

fn window_stats(window: &Window, residents: &[u64]) -> WindowStats {
    let (before, after) = (&window.before, &window.after);
    let seconds = (after.at - before.at).as_secs_f64();
    let resident_steps: u64 = residents
        .iter()
        .map(|id| {
            let steps = |b: &Boundary| b.steps_by_id.get(id).copied().unwrap_or(0);
            steps(after).saturating_sub(steps(before))
        })
        .sum();
    let counter = |b: &Boundary| b.scrape.get("server_steps").copied().unwrap_or(0.0);
    let world_steps = counter(after) - counter(before);
    let cpu_s = after.cpu_s - before.cpu_s;
    WindowStats {
        seconds,
        resident_steps_per_s: resident_steps as f64 / seconds,
        cpu_us_per_step: cpu_s * window.host_factor * 1e6 / world_steps,
        cpu_share: cpu_s / seconds,
    }
}

fn count_requests(out: &mut Outcome, callers: &[&Caller]) {
    for caller in callers {
        out.attempted += caller.attempted;
        out.failed += caller.failed;
        if let Some(why) = &caller.first_error {
            out.problems
                .push(format!("{} requests failed, first: {why}", caller.failed));
        }
    }
}

/// Runs a fleet workload, traced or not.
pub fn run(
    kind: FleetKind,
    opts: &RunOpts,
    recorders: &mut Vec<Recorder>,
) -> Result<Outcome, String> {
    let plan = plan(kind, opts.seed, opts.size_div);
    let measure = Duration::from_secs_f64(opts.seconds);
    // Set-up is starting `serve` and creating and settling the fleet.
    // The active fleet is cheap to set up, so it is set up three times
    // and the median reported; settling the settled fleet takes seconds,
    // and that one long sample is steady enough.
    let mut setups = Vec::new();
    let mut fleet = None;
    for _ in 0..if kind == FleetKind::Active { 3 } else { 1 } {
        drop(fleet.take()); // reaps the previous child before the next starts
        let mut meter = Meter::default();
        meter.sample(3);
        let start = Instant::now();
        fleet = Some(Fleet::start(&plan, opts, &mut meter)?);
        let setup_s = start.elapsed().as_secs_f64();
        meter.sample(3);
        setups.push(setup_s * meter.factor());
    }
    let mut fleet = fleet.expect("set up at least once");
    let setup_s = stats::median(&setups);
    let pid = fleet.serve.pid();
    let mut out = Outcome::default();

    if !opts.traced {
        let window = fleet.window(WARM, measure, false)?;
        let stats_ = window_stats(&window, &fleet.residents);
        // The latency of the settled fleet is the poll's: there a frame
        // is six sub-millisecond round trips on sleeping worlds, and all
        // its percentiles moved together by a fifth from run to run with
        // where the kernel happened to place the threads. The frame is
        // the latency of the active fleet, where it steps live worlds.
        let latency = match kind {
            FleetKind::Settled => &window.samples.poll_ms,
            FleetKind::Active => &window.samples.frame_ms,
        };
        let (tail_q, tail_ms) = stats::tail(latency, 0.95);
        out.set("work_per_s", stats_.resident_steps_per_s);
        out.set("latency_ms_p50", stats::median(latency));
        out.note("latency_ms_tail", tail_ms);
        out.note("frame_ms_p50", stats::median(&window.samples.frame_ms));
        out.set("cpu_us_per_work", stats_.cpu_us_per_step);
        out.set("peak_rss_mb", procfs::peak_rss_mb(pid)?);
        out.set("setup_s", setup_s);
        out.note("latency_samples", latency.len() as f64);
        out.note("latency_tail_percentile", tail_q);
        out.note("window_s", stats_.seconds);
        out.note("poll_ms_p50", stats::median(&window.samples.poll_ms));
        out.note(
            "sustain_ratio",
            stats_.resident_steps_per_s / (fleet.residents.len() as f64 * SESSION_HZ),
        );
        out.note("server_cpu_share", stats_.cpu_share);
        out.note("host_factor", window.host_factor);
        count_requests(
            &mut out,
            &[&fleet.control, &window.callers[0], &window.callers[1]],
        );
        return Ok(out);
    }

    // Traced: an untraced reference window, then a window with client
    // spans on the same child (the fleet is not set up twice), then the
    // server layer called in-process on a table holding the same fleet.
    // A third of `--seconds` each: the in-process pass settles a fleet
    // of its own, and the run has to end about when an untraced one does.
    let part = measure / 3;
    let reference = fleet.window(WARM, part, false)?;
    let traced = fleet.window(Duration::ZERO, part, true)?;
    let (ref_stats, stats_) = (
        window_stats(&reference, &fleet.residents),
        window_stats(&traced, &fleet.residents),
    );
    let samples = &traced.samples;
    let pct = |samples: &[f64], q: f64| stats::percentile(&stats::ascending(samples), q);
    let (before, after) = (&traced.before, &traced.after);
    let delta = |name: &str| {
        let read = |b: &Boundary| b.scrape.get(name).copied().unwrap_or(0.0);
        read(after) - read(before)
    };

    out.set(
        "server.sustain_ratio",
        stats_.resident_steps_per_s / (fleet.residents.len() as f64 * SESSION_HZ),
    );
    out.set("proc.server_cpu_share", stats_.cpu_share);
    out.set(
        "proc.trace_overhead_share",
        stats_.cpu_us_per_step / ref_stats.cpu_us_per_step - 1.0,
    );
    out.set(
        "physics.bodies",
        after.bodies as f64 / after.steps_by_id.len().max(1) as f64,
    );
    out.set(
        "physics.sleeping_bodies",
        after.sleeping_bodies as f64 / after.steps_by_id.len().max(1) as f64,
    );
    for (name, q) in [
        ("server.handler_us_p50", 0.50),
        ("server.handler_us_p95", 0.95),
    ] {
        let ns = handler_quantile_ns(&before.handler_buckets, &after.handler_buckets, q);
        out.set(name, ns / 1e3);
    }
    let batches = delta("server_batches");
    out.set("server.batches_per_s", batches / stats_.seconds);
    out.set(
        "server.batch_size_mean",
        if batches > 0.0 {
            delta("server_batch_sessions_sum") / batches
        } else {
            0.0
        },
    );
    out.set("server.http_errors", delta("server_http_errors"));

    let [poll_caller, frame_caller] = &traced.callers;
    let joined = |f: fn(&Caller) -> &Vec<f64>| -> Vec<f64> {
        f(poll_caller)
            .iter()
            .chain(f(frame_caller))
            .copied()
            .collect()
    };
    out.set("client.connect_us", stats::mean(&joined(|c| &c.connect_us)));
    out.set("client.ttfb_us", stats::mean(&joined(|c| &c.ttfb_us)));
    out.set("client.poll_ms_p50", stats::median(&samples.poll_ms));
    out.set("client.poll_ms_p95", pct(&samples.poll_ms, 0.95));
    out.set("client.poll_ms_p99", pct(&samples.poll_ms, 0.99));
    out.set("client.frame_ms_p50", stats::median(&samples.frame_ms));
    out.set("client.frame_ms_p95", pct(&samples.frame_ms, 0.95));
    out.set("client.frame_ms_p99", pct(&samples.frame_ms, 0.99));
    out.set("client.late_ms_p99", pct(&samples.late_ms, 0.99));
    out.set("client.create_ms", stats::mean(&samples.create_ms));
    out.set("client.destroy_ms", stats::mean(&samples.destroy_ms));
    out.set("client.snapshot_ms", stats::mean(&samples.snapshot_ms));
    out.set("client.restore_ms", stats::mean(&samples.restore_ms));
    out.set(
        "client.requests",
        (poll_caller.attempted + frame_caller.attempted) as f64,
    );
    out.set(
        "client.failed",
        (poll_caller.failed + frame_caller.failed) as f64,
    );
    out.note("window_s", stats_.seconds);
    out.note("reference_cpu_us_per_step", ref_stats.cpu_us_per_step);
    out.note("traced_cpu_us_per_step", stats_.cpu_us_per_step);
    out.note("setup_s", setup_s);
    count_requests(
        &mut out,
        &[
            &fleet.control,
            &reference.callers[0],
            &reference.callers[1],
            poll_caller,
            frame_caller,
        ],
    );
    drop(fleet);

    let Window { callers, .. } = traced;
    recorders.extend(callers.into_iter().map(|c| c.rec));
    let mut table_rec = Recorder::new(true, Instant::now(), 3);
    table::run(&plan, &mut table_rec, &mut out)?;
    recorders.push(table_rec);
    Ok(out)
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn poisson_schedule_and_session_choice_repeat_for_a_seed() {
        let total = Duration::from_secs(10);
        let a = poll_schedule(7, 400, total);
        assert_eq!(a, poll_schedule(7, 400, total));
        assert_ne!(a, poll_schedule(8, 400, total));
        // ~100/s over 10 s; Poisson sd is ~32.
        assert!((800..1200).contains(&a.len()), "{} arrivals", a.len());
        assert!(a.windows(2).all(|w| w[0].0 <= w[1].0), "arrivals ascend");
        assert!(a.iter().all(|&(due, pick)| due < total && pick < 400));
        let picks: std::collections::BTreeSet<usize> = a.iter().map(|&(_, p)| p).collect();
        assert!(picks.len() > 300, "picks spread over the fleet");
    }

    #[test]
    fn plans_repeat_for_a_seed_and_differ_between_seeds() {
        let settled = plan(FleetKind::Settled, 3, 1);
        assert_eq!(settled.residents.len(), SETTLED_SESSIONS);
        assert_eq!(settled.residents[1].json, "{\"bodies\":100,\"seed\":3001}");
        assert!(!settled.churn);
        let active = plan(FleetKind::Active, 3, 1);
        assert_eq!(active.residents.len(), 12);
        assert_eq!(active.probes.len(), 3);
        assert!(active.churn);
        assert_ne!(
            plan(FleetKind::Active, 4, 1).residents[0].json,
            active.residents[0].json
        );
        assert_eq!(
            plan(FleetKind::Settled, 3, 20).residents.len(),
            SETTLED_SESSIONS / 20
        );
    }

    #[test]
    fn handler_quantiles_use_the_delta_between_scrapes() {
        let before = BTreeMap::from([(1024, 10), (4096, 10)]);
        // 90 new requests <= 2048 ns, 10 new <= 8192 ns.
        let after = BTreeMap::from([(1024, 10), (2048, 100), (4096, 100), (8192, 110)]);
        assert_eq!(handler_quantile_ns(&before, &after, 0.50), 2048.0);
        assert_eq!(handler_quantile_ns(&before, &after, 0.95), 8192.0);
        assert_eq!(
            handler_quantile_ns(&BTreeMap::new(), &BTreeMap::new(), 0.5),
            0.0
        );
    }

    #[test]
    fn metrics_text_parses_samples_and_handler_buckets() {
        let text = "# TYPE server_steps counter\nserver_steps 1200\n\
                    server_http_request_ns_bucket{le=\"2048\"} 7\n\
                    server_http_request_ns_bucket{le=\"+Inf\"} 9\n\
                    server_http_request_ns_sum 12345\n";
        let (samples, buckets) = parse_metrics(text);
        assert_eq!(samples["server_steps"], 1200.0);
        assert_eq!(samples["server_http_request_ns_sum"], 12345.0);
        assert_eq!(buckets, BTreeMap::from([(2048, 7)]));
    }
}
