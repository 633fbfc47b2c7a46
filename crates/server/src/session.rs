//! Sessions and the table that owns them.
//!
//! A *session* is one independent [`World`] plus its scripted actors,
//! step counter and a short tail of per-step phase walls, rendered as
//! [`StepRecord`]s for the `/state` stream. The [`SessionTable`] owns
//! the fleet: creation (from a named benchmark scene or a generated stack
//! world), manual stepping, scheduled stepping in parallel batches,
//! snapshot/restore, and destruction.
//!
//! # Coasting sessions leave the schedule
//!
//! A scheduled session whose world [coasts](World::coasts) and whose
//! actors are inert is a pure function of its step count until something
//! touches it, so it leaves the schedule. It keeps its next due time on
//! its slot clock, and every table access first *settles* it: one
//! [`World::coast_n`] takes every tick up to `now`. Only sessions still on
//! the schedule sit in the due-ordered index the scheduler thread reads,
//! so its wake-ups never touch an off-schedule session. An access that
//! leaves the world not coasting (a restore, a manual step that wakes it)
//! puts the session back on the index at its next tick.
//!
//! A settle never sheds. Eager stepping caps a late session at
//! [`TableConfig::max_catchup`] steps and counts the rest in
//! `server.steps_shed`; a settle takes every owed tick, since a coast of a
//! thousand steps costs what a coast of one does.
//!
//! # Determinism
//!
//! Every session world is built with `threads: 1`: its own pipeline is
//! serial, and the server parallelizes *across* sessions instead. A
//! batch step hands each due session to the shared [`Executor`] as
//! exactly one job; a job locks its own session and touches nothing
//! else, so the only cross-session interaction is which thread happens
//! to run the job — and a serial world's trajectory does not depend on
//! the thread it runs on. Batch composition therefore cannot perturb any member's
//! trajectory. The integration suite pins this with a 500-noisy-neighbor
//! digest comparison.

use std::collections::{BTreeSet, HashMap, VecDeque};
use std::fmt::Write as _;
use std::sync::atomic::{AtomicBool, AtomicU64, Ordering};
use std::sync::{Arc, Condvar, Mutex, MutexGuard};
use std::time::Duration;

use parallax_physics::parallel::Executor;
use parallax_physics::{PhaseKind, SnapshotError, World};
use parallax_telemetry as telemetry;
use parallax_telemetry::json::write_str;
use parallax_telemetry::StepRecord;
use parallax_workloads::{Actors, BenchmarkId, SceneParams, SessionWorld};

/// Steps whose phase walls a session keeps for `GET /sessions/:id/state`.
const RECORD_TAIL: usize = 32;

/// Width of the slots a scheduled period is divided into (see
/// `SessionConfig::first_due_ns`): sessions of one slot come due together
/// and are stepped as one batch.
const SLOT_NS: u64 = 1_000_000;

/// How a session's world is built.
#[derive(Debug, Clone, Copy, PartialEq)]
pub enum SceneKind {
    /// A generated settled-stack world ([`SessionWorld`]).
    Stacks,
    /// One of the named benchmark scenes.
    Named(BenchmarkId),
}

/// Per-session configuration, posted as JSON to `POST /sessions`.
#[derive(Debug, Clone, Copy, PartialEq)]
pub struct SessionConfig {
    /// World source: generated stacks (default) or a named scene.
    pub scene: SceneKind,
    /// Body count for generated stack worlds.
    pub bodies: usize,
    /// Scale for named scenes (1.0 = the paper's scale).
    pub scale: f32,
    /// Placement seed — distinct seeds give distinct trajectories.
    pub seed: u64,
    /// Scheduled step rate in Hz. `0` means the session only advances
    /// on explicit `POST /sessions/:id/step` calls. The coarse/fine
    /// cost knob: a far-away level can idle at 10 Hz while the level
    /// the player is in runs at 120 Hz.
    pub step_rate: f64,
    /// Island sleeping for the session world.
    pub sleeping: bool,
}

impl Default for SessionConfig {
    fn default() -> Self {
        SessionConfig {
            scene: SceneKind::Stacks,
            bodies: 100,
            scale: 0.2,
            seed: 0,
            step_rate: 0.0,
            sleeping: true,
        }
    }
}

impl SessionConfig {
    /// Parses a `POST /sessions` body. An empty body means "all
    /// defaults"; unknown scene names and malformed fields are errors
    /// (the caller turns them into a 400).
    pub fn from_json(body: &[u8]) -> Result<SessionConfig, String> {
        let mut cfg = SessionConfig::default();
        let trimmed = body
            .iter()
            .position(|b| !b.is_ascii_whitespace())
            .map(|start| &body[start..])
            .unwrap_or(&[]);
        if trimmed.is_empty() {
            return Ok(cfg);
        }
        let text = std::str::from_utf8(body).map_err(|_| "body is not UTF-8".to_string())?;
        let v = telemetry::json::Json::parse(text)?;
        if let Some(s) = v.get("scene") {
            let name = s.as_str().ok_or("scene must be a string")?;
            if name.eq_ignore_ascii_case("stacks") {
                cfg.scene = SceneKind::Stacks;
            } else {
                let id = BenchmarkId::by_name(name).ok_or_else(|| {
                    let names: Vec<&str> = BenchmarkId::ALL.iter().map(|b| b.name()).collect();
                    format!("unknown scene {name:?}; expected stacks or one of {names:?}")
                })?;
                cfg.scene = SceneKind::Named(id);
            }
        }
        if let Some(n) = v.get("bodies") {
            let n = n.as_u64().ok_or("bodies must be a non-negative integer")?;
            if n == 0 || n > 100_000 {
                return Err(format!("bodies must be in 1..=100000, got {n}"));
            }
            cfg.bodies = n as usize;
        }
        if let Some(s) = v.get("scale") {
            let s = s.as_f64().ok_or("scale must be a number")?;
            if !(s.is_finite() && s > 0.0 && s <= 10.0) {
                return Err(format!("scale must be in (0, 10], got {s}"));
            }
            cfg.scale = s as f32;
        }
        if let Some(s) = v.get("seed") {
            cfg.seed = s.as_u64().ok_or("seed must be a non-negative integer")?;
        }
        if let Some(r) = v.get("step_rate") {
            let r = r.as_f64().ok_or("step_rate must be a number")?;
            if !(r.is_finite() && (0.0..=100_000.0).contains(&r)) {
                return Err(format!("step_rate must be in 0..=100000 Hz, got {r}"));
            }
            cfg.step_rate = r;
        }
        if let Some(s) = v.get("sleeping") {
            cfg.sleeping = match s {
                telemetry::json::Json::Bool(b) => *b,
                _ => return Err("sleeping must be a boolean".to_string()),
            };
        }
        Ok(cfg)
    }

    /// Scene label used in records and listings.
    pub fn scene_name(&self) -> &'static str {
        match self.scene {
            SceneKind::Stacks => "stacks",
            SceneKind::Named(id) => id.name(),
        }
    }

    /// Scheduled step period, or `None` for manual sessions.
    fn period_ns(&self) -> Option<u64> {
        if self.step_rate > 0.0 {
            Some((1.0e9 / self.step_rate).max(1.0) as u64)
        } else {
            None
        }
    }

    /// First scheduled due time of session `id` after `now_ns` (`0`,
    /// unused, for manual sessions). Due times are ticks of the rate's own
    /// clock — multiples of the period on `telemetry::now_ns` — plus the
    /// offset of the session's slot: the period is cut into slots about
    /// [`SLOT_NS`] wide and ids fill them round-robin, so which sessions
    /// share a batch is fixed by their ids. Phases left where the rate
    /// requests happen to arrive make one fleet's wake-up count — and its
    /// CPU per step — follow request timing, and restarting a late
    /// session's clock from "now" puts a whole fleet on one phase, at
    /// half the cost, from its first stall past `max_catchup` on. The
    /// slot's first tick is its offset itself, so on a clock younger than
    /// the offset the session comes due at the offset — within one period,
    /// like everywhere else, not one period late.
    fn first_due_ns(&self, id: u64, now_ns: u64) -> u64 {
        self.period_ns().map_or(0, |period| {
            let slots = (period / SLOT_NS).max(1);
            let offset = id % slots * (period / slots);
            match now_ns.checked_sub(offset) {
                Some(since) => (since / period + 1) * period + offset,
                None => offset,
            }
        })
    }
}

/// Summary of one session, as returned by `GET /sessions`.
#[derive(Debug, Clone)]
pub struct SessionInfo {
    /// Session id.
    pub id: u64,
    /// Scene label (`"stacks"` or a benchmark name).
    pub scene: String,
    /// Steps taken so far.
    pub steps: u64,
    /// Enabled dynamic bodies.
    pub bodies: usize,
    /// Bodies currently asleep.
    pub sleeping_bodies: usize,
    /// Scheduled rate in Hz (0 = manual).
    pub step_rate: f64,
}

impl SessionInfo {
    /// One-object JSON rendering.
    pub fn to_json(&self) -> String {
        let mut out = String::with_capacity(128);
        let _ = write!(out, "{{\"id\":{},\"scene\":", self.id);
        write_str(&mut out, &self.scene);
        let _ = write!(
            out,
            ",\"steps\":{},\"bodies\":{},\"sleeping_bodies\":{},\"step_rate\":{}}}",
            self.steps,
            self.bodies,
            self.sleeping_bodies,
            finite(self.step_rate)
        );
        out
    }
}

/// Renders a float defensively: JSON has no NaN/inf literals.
fn finite(x: f64) -> f64 {
    if x.is_finite() {
        x
    } else {
        0.0
    }
}

fn finite32(x: f32) -> f32 {
    if x.is_finite() {
        x
    } else {
        0.0
    }
}

/// Where a session stands with the scheduler.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
enum Place {
    /// `step_rate == 0`: advanced only by explicit steps.
    Manual,
    /// In the table's due index at `due_ns`, stepped by the scheduler.
    Due,
    /// Off the schedule: the world coasts and the actors are inert, so
    /// every access first settles the ticks up to `now`.
    Coasting,
    /// Destroyed: a batch job still holding it must not file it again.
    Gone,
}

/// One independent world behind the API.
pub struct Session {
    /// Session id (table-assigned, never reused within a process).
    pub id: u64,
    config: SessionConfig,
    world: World,
    actors: Actors,
    /// Next scheduled due time (`telemetry::now_ns` clock); meaningless
    /// for manual sessions.
    due_ns: u64,
    /// Filed by the table after every access (see [`Place`]).
    place: Place,
    /// The last [`RECORD_TAIL`] steps: step index and phase walls in ns,
    /// rendered as [`StepRecord`]s only when `/state` asks.
    records: VecDeque<(u64, [u64; 5])>,
}

impl Session {
    fn new(id: u64, config: SessionConfig, now_ns: u64) -> Session {
        let (world, actors) = match config.scene {
            SceneKind::Stacks => (
                SessionWorld {
                    bodies: config.bodies,
                    seed: config.seed,
                    sleeping: config.sleeping,
                }
                .build(),
                Actors::default(),
            ),
            SceneKind::Named(benchmark) => {
                let scene = benchmark.build(&SceneParams {
                    scale: config.scale,
                    seed: config.seed,
                    threads: 1,
                    sleeping: config.sleeping,
                    ..SceneParams::default()
                });
                (scene.world, scene.actors)
            }
        };
        let due_ns = config.first_due_ns(id, now_ns);
        Session {
            id,
            config,
            world,
            actors,
            due_ns,
            place: Place::Manual,
            records: VecDeque::with_capacity(RECORD_TAIL),
        }
    }

    /// The session's configuration.
    pub fn config(&self) -> &SessionConfig {
        &self.config
    }

    /// Steps taken so far (the world's own counter, so snapshot restore
    /// rewinds it consistently).
    pub fn steps(&self) -> u64 {
        self.world.step_count()
    }

    /// Read access to the underlying world (digests, inspection).
    pub fn world(&self) -> &World {
        &self.world
    }

    /// Changes the scheduled step rate at runtime (the coarse/fine cost
    /// knob): `0` parks the session, any other rate reschedules it on
    /// its slot's next tick of that rate after `now_ns`.
    pub fn set_step_rate(&mut self, hz: f64, now_ns: u64) {
        self.config.step_rate = hz;
        self.due_ns = self.config.first_due_ns(self.id, now_ns);
    }

    /// Advances `n` steps and returns the new step count. Full steps run
    /// until the world coasts; with inert actors the rest is one
    /// [`World::coast_n`], which leaves the record tail exactly as that
    /// many coasting steps would: one entry per step, all walls zero.
    pub fn step_n(&mut self, n: u64) -> u64 {
        for left in (1..=n).rev() {
            let step = self.world.step_count();
            if self.actors.is_inert() && self.world.coast_n(left) == left {
                for k in left - left.min(RECORD_TAIL as u64)..left {
                    self.record(step + k, [0; 5]);
                }
                break;
            }
            self.actors.update(&mut self.world, step);
            let profile = self.world.step();
            self.record(step, profile.wall.map(|wall| wall.as_nanos() as u64));
        }
        self.world.step_count()
    }

    fn record(&mut self, step: u64, walls: [u64; 5]) {
        if self.records.len() == RECORD_TAIL {
            self.records.pop_front();
        }
        self.records.push_back((step, walls));
    }

    /// Where the table should file this session now.
    fn place_now(&self) -> Place {
        match self.config.period_ns() {
            _ if self.place == Place::Gone => Place::Gone,
            None => Place::Manual,
            Some(_) if self.world.coasts() && self.actors.is_inert() => Place::Coasting,
            Some(_) => Place::Due,
        }
    }

    /// Steps owed at `now_ns` since `due_ns`, and the period they are on.
    fn owed(&self, now_ns: u64) -> Option<(u64, u64)> {
        let period = self.config.period_ns()?;
        (self.due_ns <= now_ns).then(|| (1 + (now_ns - self.due_ns) / period, period))
    }

    /// Summary for listings.
    pub fn info(&self) -> SessionInfo {
        SessionInfo {
            id: self.id,
            scene: self.config.scene_name().to_string(),
            steps: self.steps(),
            bodies: self.world.enabled_dynamic_bodies(),
            sleeping_bodies: self.world.sleeping_body_count(),
            step_rate: self.config.step_rate,
        }
    }

    /// The `/state` payload: up to `records` most recent step-record
    /// JSON lines, then one body-state line (positions/velocities of up
    /// to `bodies` bodies).
    pub fn state_jsonl(&self, records: usize, bodies: usize) -> String {
        let mut out = String::with_capacity(4096);
        let tail = self.records.len().min(records);
        for &(step, walls) in self.records.iter().skip(self.records.len() - tail) {
            let record = StepRecord {
                source: "server".to_string(),
                scene: self.config.scene_name().to_string(),
                step,
                wall_ns: PhaseKind::ALL
                    .iter()
                    .zip(walls)
                    .map(|(phase, ns)| (phase.name().to_string(), ns))
                    .collect(),
                metrics: telemetry::Snapshot::default(),
                spans: Vec::new(),
            };
            out.push_str(&record.to_json_line());
            out.push('\n');
        }
        let _ = write!(out, "{{\"session\":{},\"scene\":", self.id);
        write_str(&mut out, self.config.scene_name());
        let _ = write!(
            out,
            ",\"steps\":{},\"bodies\":{},\"sleeping_bodies\":{},\"body_state\":[",
            self.steps(),
            self.world.enabled_dynamic_bodies(),
            self.world.sleeping_body_count()
        );
        let mut written = 0;
        for body in self.world.bodies() {
            if written == bodies {
                break;
            }
            let flags = body.flags();
            if flags.contains(parallax_physics::BodyFlags::STATIC)
                || flags.contains(parallax_physics::BodyFlags::DISABLED)
            {
                continue;
            }
            if written > 0 {
                out.push(',');
            }
            let p = body.position();
            let v = body.linear_velocity();
            let _ = write!(
                out,
                "{{\"pos\":[{},{},{}],\"vel\":[{},{},{}],\"asleep\":{}}}",
                finite32(p.x),
                finite32(p.y),
                finite32(p.z),
                finite32(v.x),
                finite32(v.y),
                finite32(v.z),
                body.is_sleeping()
            );
            written += 1;
        }
        out.push_str("]}\n");
        out
    }

    /// PXSN v2 snapshot of the session's world.
    pub fn snapshot(&self) -> Vec<u8> {
        self.world.snapshot()
    }

    /// Restores a snapshot previously taken from this session (or a
    /// structurally identical one).
    pub fn restore(&mut self, bytes: &[u8]) -> Result<(), SnapshotError> {
        self.world.restore(bytes)
    }
}

/// Table-level tuning.
#[derive(Debug, Clone, Copy)]
pub struct TableConfig {
    /// Threads for the batch executor (including the scheduler thread
    /// itself). Defaults to the host's available parallelism.
    pub batch_threads: usize,
    /// Session-count cap; creation beyond it is refused (HTTP 409).
    pub max_sessions: usize,
    /// Most owed steps a scheduled session may catch up per batch;
    /// beyond that the schedule snaps forward (shed load rather than
    /// spiral). Off-schedule sessions are settled whole (see the module
    /// docs).
    pub max_catchup: u64,
}

impl Default for TableConfig {
    fn default() -> Self {
        TableConfig {
            batch_threads: std::thread::available_parallelism()
                .map(|n| n.get())
                .unwrap_or(1),
            max_sessions: 10_000,
            max_catchup: 6,
        }
    }
}

/// Table-wide telemetry handles (shared registry, so they show on
/// `/metrics` next to the physics counters).
struct TableMetrics {
    sessions: telemetry::Gauge,
    coasting: telemetry::Gauge,
    created: telemetry::Counter,
    destroyed: telemetry::Counter,
    steps: telemetry::Counter,
    shed: telemetry::Counter,
    batches: telemetry::Counter,
    batch_sessions: telemetry::Histogram,
}

impl TableMetrics {
    fn new() -> TableMetrics {
        TableMetrics {
            sessions: telemetry::gauge("server.sessions"),
            coasting: telemetry::gauge("server.sessions_coasting"),
            created: telemetry::counter("server.sessions_created"),
            destroyed: telemetry::counter("server.sessions_destroyed"),
            steps: telemetry::counter("server.steps"),
            shed: telemetry::counter("server.steps_shed"),
            batches: telemetry::counter("server.batches"),
            batch_sessions: telemetry::histogram("server.batch_sessions"),
        }
    }
}

/// The scheduler's view of the fleet: on-schedule sessions by due time,
/// and how many are off it.
#[derive(Default)]
struct Schedule {
    due: BTreeSet<(u64, u64)>,
    coasting: u64,
}

type SessionRef = Arc<Mutex<Session>>;

/// The fleet: id-keyed sessions, their schedule, and the shared batch
/// executor.
pub struct SessionTable {
    sessions: Mutex<HashMap<u64, SessionRef>>,
    /// Filed under the session's own lock, so a session's entry changes
    /// only with the session (lock order: map, session, schedule). The
    /// one exception is [`SessionTable::step_scheduled`], which takes due
    /// entries out for the batch it is about to run.
    schedule: Mutex<Schedule>,
    /// Wakes the scheduler thread when a session is filed ahead of the
    /// earliest due time it is sleeping towards.
    reschedule: Condvar,
    next_id: AtomicU64,
    /// Steps this table has taken; an off-schedule session's ticks
    /// count once they are settled.
    steps: AtomicU64,
    executor: Executor,
    config: TableConfig,
    metrics: TableMetrics,
}

impl Default for SessionTable {
    fn default() -> Self {
        SessionTable::new(TableConfig::default())
    }
}

impl SessionTable {
    /// Creates an empty table and spins up the batch executor.
    pub fn new(config: TableConfig) -> SessionTable {
        SessionTable {
            sessions: Mutex::new(HashMap::new()),
            schedule: Mutex::new(Schedule::default()),
            reschedule: Condvar::new(),
            next_id: AtomicU64::new(1),
            steps: AtomicU64::new(0),
            executor: Executor::new(config.batch_threads.max(1)),
            config,
            metrics: TableMetrics::new(),
        }
    }

    /// Mutex recovery: a panic inside one session's step must not take
    /// the whole table down — recover the guard and keep serving.
    fn map(&self) -> MutexGuard<'_, HashMap<u64, SessionRef>> {
        self.sessions
            .lock()
            .unwrap_or_else(|poisoned| poisoned.into_inner())
    }

    fn schedule(&self) -> MutexGuard<'_, Schedule> {
        self.schedule
            .lock()
            .unwrap_or_else(|poisoned| poisoned.into_inner())
    }

    fn lock_session(arc: &SessionRef) -> MutexGuard<'_, Session> {
        arc.lock().unwrap_or_else(|poisoned| poisoned.into_inner())
    }

    fn all_sessions(&self) -> Vec<SessionRef> {
        self.map().values().cloned().collect()
    }

    fn count_steps(&self, n: u64) {
        self.steps.fetch_add(n, Ordering::Relaxed);
        self.metrics.steps.add(n);
    }

    /// Takes every tick of an off-schedule session up to `now_ns`;
    /// returns how many.
    fn settle(&self, s: &mut Session, now_ns: u64) -> u64 {
        let Some((owed, period)) = s.owed(now_ns).filter(|_| s.place == Place::Coasting) else {
            return 0;
        };
        s.step_n(owed);
        s.due_ns += owed * period;
        self.count_steps(owed);
        owed
    }

    /// Files `s` where it belongs now, given that it stood at `before`
    /// (its place and due time) when the caller locked it.
    fn refile(&self, s: &mut Session, before: (Place, u64)) {
        s.place = s.place_now();
        if (s.place, s.due_ns) == before {
            return;
        }
        let mut schedule = self.schedule();
        match before.0 {
            Place::Due => {
                schedule.due.remove(&(before.1, s.id));
            }
            Place::Coasting => schedule.coasting -= 1,
            Place::Manual | Place::Gone => {}
        }
        match s.place {
            Place::Due => {
                if schedule.due.first().is_none_or(|&(due, _)| s.due_ns < due) {
                    self.reschedule.notify_all();
                }
                schedule.due.insert((s.due_ns, s.id));
            }
            Place::Coasting => schedule.coasting += 1,
            Place::Manual | Place::Gone => {}
        }
        self.metrics.coasting.set(schedule.coasting);
    }

    /// Settles the session behind `arc` up to `now_ns`, runs `f` on it and
    /// files it again.
    fn access<R>(&self, arc: &SessionRef, now_ns: u64, f: impl FnOnce(&mut Session) -> R) -> R {
        let mut s = Self::lock_session(arc);
        self.settle(&mut s, now_ns);
        let before = (s.place, s.due_ns);
        let result = f(&mut s);
        self.refile(&mut s, before);
        result
    }

    /// Creates a session; refuses beyond [`TableConfig::max_sessions`].
    pub fn create(&self, config: SessionConfig) -> Result<SessionInfo, String> {
        let id = self.next_id.fetch_add(1, Ordering::Relaxed);
        let session = Session::new(id, config, telemetry::now_ns());
        let before = (session.place, session.due_ns);
        let info = session.info();
        let arc = Arc::new(Mutex::new(session));
        let count = {
            let mut map = self.map();
            if map.len() >= self.config.max_sessions {
                return Err(format!(
                    "session limit reached ({} active)",
                    self.config.max_sessions
                ));
            }
            map.insert(id, Arc::clone(&arc));
            map.len()
        };
        // In the map before the index: the scheduler looks up what it pops.
        self.refile(&mut Self::lock_session(&arc), before);
        self.metrics.sessions.set(count as u64);
        self.metrics.created.add(1);
        Ok(info)
    }

    /// Destroys a session; `false` if the id is unknown. Its steps up to
    /// now are settled (and counted) first.
    pub fn destroy(&self, id: u64) -> bool {
        let (removed, count) = {
            let mut map = self.map();
            let removed = map.remove(&id);
            (removed, map.len())
        };
        let Some(arc) = removed else {
            return false;
        };
        self.access(&arc, telemetry::now_ns(), |s| s.place = Place::Gone);
        self.metrics.sessions.set(count as u64);
        self.metrics.destroyed.add(1);
        true
    }

    /// Runs `f` on a session, serialized against batch stepping, after
    /// settling it up to now; files it again afterwards (a restore or a
    /// rate change may put it on or off the schedule). `None` if the id
    /// is unknown.
    pub fn with_session<R>(&self, id: u64, f: impl FnOnce(&mut Session) -> R) -> Option<R> {
        let arc = self.map().get(&id).cloned()?;
        Some(self.access(&arc, telemetry::now_ns(), f))
    }

    /// Manually advances a session `n` steps; `None` for unknown ids.
    pub fn step(&self, id: u64, n: u64) -> Option<u64> {
        let steps = self.with_session(id, |s| s.step_n(n))?;
        self.count_steps(n);
        Some(steps)
    }

    /// Active session count.
    pub fn len(&self) -> usize {
        self.map().len()
    }

    /// Whether the table is empty.
    pub fn is_empty(&self) -> bool {
        self.len() == 0
    }

    /// Steps this table has taken, with every off-schedule session
    /// settled up to now. (The process-wide `server.steps` counter on
    /// `/metrics` sums every table, and reads 0 with telemetry off.)
    pub fn total_steps(&self) -> u64 {
        self.settle_coasting(telemetry::now_ns());
        self.steps.load(Ordering::Relaxed)
    }

    /// Summaries of every session, settled up to now, id-ordered.
    pub fn infos(&self) -> Vec<SessionInfo> {
        let now = telemetry::now_ns();
        let mut infos: Vec<SessionInfo> = self
            .all_sessions()
            .iter()
            .map(|arc| self.access(arc, now, |s| s.info()))
            .collect();
        infos.sort_by_key(|info| info.id);
        infos
    }

    /// The heap bytes the live sessions' worlds retain
    /// ([`parallax_physics::World::heap_bytes`]), summed: the fleet's state,
    /// without the stepping threads' scratch.
    pub fn session_heap_bytes(&self) -> usize {
        (self.all_sessions().iter())
            .map(|arc| Self::lock_session(arc).world.heap_bytes().total())
            .sum()
    }

    /// Brings every off-schedule session up to `now_ns`; returns how many
    /// advanced.
    pub(crate) fn settle_coasting(&self, now_ns: u64) -> usize {
        self.all_sessions()
            .iter()
            .filter(|arc| self.settle(&mut Self::lock_session(arc), now_ns) > 0)
            .count()
    }

    /// Brings every scheduled session up to `now_ns`: the due ones on
    /// the schedule in one parallel batch, capped at
    /// [`TableConfig::max_catchup`] steps each, and the off-schedule ones
    /// settled whole. Returns the number of sessions that advanced.
    pub fn step_due(&self, now_ns: u64) -> usize {
        self.step_scheduled(now_ns) + self.settle_coasting(now_ns)
    }

    /// The scheduler's wake-up: steps the on-schedule sessions due at
    /// `now_ns` in one parallel batch (one session = one executor job)
    /// and touches no other session. Returns the number stepped.
    pub(crate) fn step_scheduled(&self, now_ns: u64) -> usize {
        let mut due_ids = Vec::new();
        {
            let mut schedule = self.schedule();
            while let Some(&(due, id)) = schedule.due.first() {
                if due > now_ns {
                    break;
                }
                schedule.due.pop_first();
                due_ids.push(id);
            }
        }
        if due_ids.is_empty() {
            return 0;
        }
        let due: Vec<SessionRef> = {
            let map = self.map();
            due_ids
                .iter()
                .filter_map(|id| map.get(id).cloned())
                .collect()
        };
        let max_catchup = self.config.max_catchup.max(1);
        let mut stepped: Vec<(u64, u64)> = Vec::new();
        self.executor.map_into(&due, &mut stepped, |arc| {
            let mut s = Self::lock_session(arc);
            // Moved since it was taken out: whoever moved it filed it.
            let Some((owed, period)) = s.owed(now_ns).filter(|_| s.place == Place::Due) else {
                return (0, 0);
            };
            // Steps owed since the last deadline, capped: a session that
            // fell far behind sheds the backlog instead of stalling the
            // batch. The schedule skips every owed tick either way, so it
            // stays on its slot of the rate's clock.
            let n = owed.min(max_catchup);
            s.step_n(n);
            let before = (s.place, s.due_ns);
            s.due_ns += owed * period;
            self.refile(&mut s, before);
            (n, owed - n)
        });
        let (steps, shed) = stepped
            .iter()
            .fold((0, 0), |(n, d), &(sn, sd)| (n + sn, d + sd));
        self.count_steps(steps);
        self.metrics.shed.add(shed);
        self.metrics.batches.add(1);
        self.metrics.batch_sessions.record(due.len() as u64);
        stepped.iter().filter(|&&(n, _)| n > 0).count()
    }

    /// Earliest due time on the schedule (off-schedule sessions have
    /// none).
    pub fn next_due_ns(&self) -> Option<u64> {
        self.schedule().due.first().map(|&(due, _)| due)
    }

    /// Blocks the scheduler thread until the earliest due time, for
    /// `max` at most, or until a session is filed ahead of it or `stop`
    /// is raised (see [`SessionTable::wake_scheduler`]).
    pub(crate) fn wait_for_due(&self, max: Duration, stop: &AtomicBool) {
        let schedule = self.schedule();
        if stop.load(Ordering::Relaxed) {
            return;
        }
        let wait = schedule.due.first().map_or(max, |&(due, _)| {
            Duration::from_nanos(due.saturating_sub(telemetry::now_ns())).min(max)
        });
        if !wait.is_zero() {
            drop(self.reschedule.wait_timeout(schedule, wait));
        }
    }

    /// Wakes a scheduler thread blocked in
    /// [`SessionTable::wait_for_due`] (after its `stop` flag is raised).
    pub(crate) fn wake_scheduler(&self) {
        let _schedule = self.schedule();
        self.reschedule.notify_all();
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    fn manual(bodies: usize, seed: u64) -> SessionConfig {
        SessionConfig {
            bodies,
            seed,
            ..SessionConfig::default()
        }
    }

    #[test]
    fn create_step_destroy() {
        let table = SessionTable::default();
        let info = table.create(manual(10, 1)).expect("create");
        assert_eq!(info.bodies, 10);
        assert_eq!(table.len(), 1);
        assert_eq!(table.step(info.id, 3), Some(3));
        assert_eq!(table.step(info.id, 2), Some(5));
        assert!(table.destroy(info.id));
        assert!(!table.destroy(info.id));
        assert_eq!(table.step(info.id, 1), None);
        assert!(table.is_empty());
    }

    #[test]
    fn batch_stepping_matches_manual_trajectory() {
        // The same (seed, bodies) world stepped by the batch scheduler
        // must land on the identical state as one stepped manually.
        let _serial = crate::schedule_guard();
        let table = SessionTable::new(TableConfig {
            batch_threads: 4,
            ..TableConfig::default()
        });
        let scheduled = table
            .create(SessionConfig {
                step_rate: 1000.0,
                ..manual(20, 7)
            })
            .expect("create scheduled");
        // Noisy neighbors in the same batches.
        for seed in 0..20 {
            table
                .create(SessionConfig {
                    step_rate: 1000.0,
                    ..manual(15, seed)
                })
                .expect("create neighbor");
        }
        let mut now = telemetry::now_ns();
        let mut guard = 0;
        while table
            .with_session(scheduled.id, |s| s.steps())
            .expect("session alive")
            < 50
        {
            now += 1_000_000; // 1 ms of virtual time per pass
            table.step_due(now);
            guard += 1;
            assert!(guard < 10_000, "scheduler failed to advance the session");
        }
        let batch_digest = table
            .with_session(scheduled.id, |s| {
                let steps = s.steps();
                s.step_n(50 - steps.min(50));
                parallax_physics::world_digest(&s.world)
            })
            .expect("session alive");
        // Manual reference.
        let reference = SessionTable::default();
        let solo = reference.create(manual(20, 7)).expect("create solo");
        let solo_digest = reference
            .with_session(solo.id, |s| {
                s.step_n(50);
                parallax_physics::world_digest(&s.world)
            })
            .expect("solo alive");
        assert_eq!(
            batch_digest, solo_digest,
            "batch composition must not perturb a session's trajectory"
        );
    }

    #[test]
    fn catchup_is_capped() {
        let _serial = crate::schedule_guard();
        telemetry::set_enabled(true);
        let table = SessionTable::new(TableConfig {
            max_catchup: 4,
            ..TableConfig::default()
        });
        let info = table
            .create(SessionConfig {
                step_rate: 1000.0,
                ..manual(5, 1)
            })
            .expect("create");
        // Pretend the scheduler slept for a full second: ~1000 steps owed,
        // only max_catchup taken, and the rest counted as shed.
        let due = table.with_session(info.id, |s| s.due_ns).expect("alive");
        let now = telemetry::now_ns() + 1_000_000_000;
        let owed = 1 + (now - due) / 1_000_000;
        let shed_before = telemetry::snapshot().counter("server.steps_shed");
        assert_eq!(table.step_due(now), 1);
        assert_eq!(table.with_session(info.id, |s| s.steps()), Some(4));
        let shed = telemetry::snapshot().counter("server.steps_shed") - shed_before;
        assert_eq!(shed, owed - 4);
        assert_eq!(table.total_steps(), 4);
        // And the schedule snapped forward instead of replaying the backlog.
        assert!(table.next_due_ns().expect("due") > now);
    }

    /// Steps a session one step at a time until its world coasts.
    fn settle_manually(table: &SessionTable, id: u64) -> u64 {
        for _ in 0..1000 {
            if table.with_session(id, |s| s.world.coasts()).expect("alive") {
                return table.with_session(id, |s| s.steps()).expect("alive");
            }
            table.step(id, 1);
        }
        panic!("session {id} never coasted");
    }

    #[test]
    fn a_coasting_session_leaves_the_schedule_and_settles_whole() {
        let table = SessionTable::new(TableConfig {
            max_catchup: 4,
            ..TableConfig::default()
        });
        let id = table.create(manual(12, 5)).expect("create").id;
        let settled = settle_manually(&table, id);
        let snapshot = table.with_session(id, |s| s.snapshot()).expect("alive");
        // Injected times run ahead of the clock accesses settle to.
        let t = telemetry::now_ns() + 10_000_000_000;
        let place = |id| {
            table
                .with_session(id, |s| (s.place, s.due_ns))
                .expect("alive")
        };
        table.with_session(id, |s| s.set_step_rate(100.0, t));
        let (at, due) = place(id);
        assert_eq!(at, Place::Coasting);
        assert_eq!(table.next_due_ns(), None, "off the schedule");
        // The scheduler's wake-up does not touch it; `step_due` settles
        // all 1000 owed ticks, far past `max_catchup`.
        let later = due + 999 * 10_000_000;
        assert_eq!(table.step_scheduled(later), 0);
        assert_eq!(table.with_session(id, |s| s.steps()), Some(settled));
        assert_eq!(table.step_due(later), 1);
        assert_eq!(table.with_session(id, |s| s.steps()), Some(settled + 1000));
        assert_eq!(place(id), (Place::Coasting, due + 1000 * 10_000_000));
        assert_eq!(table.total_steps(), settled + 1000);
        // A restore wakes the world: back on the schedule at its next tick.
        table.with_session(id, |s| s.restore(&snapshot).expect("restore"));
        assert_eq!(place(id), (Place::Due, due + 1000 * 10_000_000));
        assert_eq!(table.next_due_ns(), Some(due + 1000 * 10_000_000));
        // Parking takes it off both.
        table.with_session(id, |s| s.set_step_rate(0.0, later));
        assert_eq!(place(id).0, Place::Manual);
        assert_eq!(table.next_due_ns(), None);
    }

    /// The oracle's reference for one session: the same world stepped
    /// with `World::step` once per tick of its slot clock.
    struct Eager {
        s: Session,
        taken: u64,
    }

    impl Eager {
        fn step(&mut self, n: u64) {
            for _ in 0..n {
                let s = &mut self.s;
                let step = s.world.step_count();
                s.actors.update(&mut s.world, step);
                let walls = s.world.step().wall.map(|wall| wall.as_nanos() as u64);
                s.record(step, walls);
                self.taken += 1;
            }
        }

        fn run_to(&mut self, t: u64) {
            while let Some((_, period)) = self.s.owed(t) {
                self.step(1);
                self.s.due_ns += period;
            }
        }
    }

    /// `state_jsonl` with each step record reduced to its step index and
    /// whether it was a coast (the walls of a full step are timings).
    fn comparable(state: &str) -> String {
        let mut out = String::new();
        for line in state.lines() {
            match StepRecord::from_json_line(line) {
                Ok(r) => {
                    let _ = writeln!(out, "step {} coast {}", r.step, r.wall_total_ns() == 0);
                }
                Err(_) => out.push_str(line),
            }
        }
        out
    }

    fn assert_twins(table: &SessionTable, eager: &HashMap<u64, Eager>, what: &str) {
        for (&id, e) in eager {
            let (state, snapshot) = table
                .with_session(id, |s| {
                    (s.state_jsonl(RECORD_TAIL, usize::MAX), s.snapshot())
                })
                .expect("alive");
            let expected = e.s.state_jsonl(RECORD_TAIL, usize::MAX);
            assert_eq!(
                comparable(&state),
                comparable(&expected),
                "{what}: session {id}"
            );
            assert!(snapshot == e.s.snapshot(), "{what}: session {id} snapshot");
        }
        let mut expected: Vec<String> = eager.values().map(|e| e.s.info().to_json()).collect();
        expected.sort();
        let mut infos: Vec<String> = table.infos().iter().map(SessionInfo::to_json).collect();
        infos.sort();
        assert_eq!(infos, expected, "{what}: infos");
    }

    /// A clock younger than a session's slot offset: the first tick of
    /// that slot still comes within one period of the rate switch, so
    /// ticks one period apart from the switch advance every session once.
    #[test]
    fn a_young_clock_loses_no_tick() {
        let _serial = crate::schedule_guard();
        let table = SessionTable::default();
        let ids: Vec<u64> = (0..16)
            .map(|seed| table.create(manual(4, seed)).expect("create").id)
            .collect();
        // 1 ms: before the first tick of all but one of the 16 slots.
        let start = 1_000_000;
        for &id in &ids {
            table.with_session(id, |s| s.set_step_rate(60.0, start));
        }
        let period = (1e9 / 60.0) as u64;
        for tick in 1..=4 {
            let advanced = table.step_due(start + tick * period);
            assert_eq!(advanced, ids.len(), "tick {tick}");
        }
    }

    #[test]
    fn lazy_table_matches_per_tick_stepping() {
        let _serial = crate::schedule_guard();
        let table = SessionTable::new(TableConfig {
            batch_threads: 2,
            ..TableConfig::default()
        });
        let mut eager: HashMap<u64, Eager> = HashMap::new();
        // Injected times run an hour ahead of the clock accesses settle
        // to (however slow the build), so every tick is taken by
        // `step_due`, at the time the script says.
        let mut t = telemetry::now_ns() + 3_600_000_000_000;
        let create = |eager: &mut HashMap<u64, Eager>, config: SessionConfig| {
            let id = table.create(config).expect("create").id;
            let s = Session::new(id, config, 0);
            eager.insert(id, Eager { s, taken: 0 });
            id
        };
        let set_rate = |eager: &mut HashMap<u64, Eager>, id: u64, hz: f64, t: u64| {
            table.with_session(id, |s| s.set_step_rate(hz, t));
            eager.get_mut(&id).expect("twin").s.set_step_rate(hz, t);
        };
        let step = |eager: &mut HashMap<u64, Eager>, id: u64, n: u64| {
            table.step(id, n);
            eager.get_mut(&id).expect("twin").step(n);
        };
        let tick_to = |eager: &mut HashMap<u64, Eager>, t: u64| {
            table.step_due(t);
            eager.values_mut().for_each(|e| e.run_to(t));
        };
        let coasting = |id| table.with_session(id, |s| s.place == Place::Coasting);
        // Dense: 1 ms of injected time per call, so no on-schedule session
        // owes more than one step, until `until` holds.
        let dense =
            |eager: &mut HashMap<u64, Eager>, t: &mut u64, what: &str, until: &dyn Fn() -> bool| {
                for k in 0..6000 {
                    if until() {
                        return;
                    }
                    *t += 1_000_000;
                    tick_to(eager, *t);
                    if k % 97 == 0 {
                        assert_twins(&table, eager, &format!("{what}, tick {k}"));
                    }
                }
                panic!("{what}: sessions never coasted");
            };

        let a = create(&mut eager, manual(12, 1));
        let b = create(&mut eager, manual(8, 2));
        let cannon = create(
            &mut eager,
            SessionConfig {
                scene: SceneKind::Named(BenchmarkId::Resting),
                scale: 0.05,
                seed: 3,
                ..SessionConfig::default()
            },
        );
        let parked = create(&mut eager, manual(6, 4));
        set_rate(&mut eager, a, 100.0, t);
        set_rate(&mut eager, b, 200.0, t);
        set_rate(&mut eager, cannon, 100.0, t);
        for _ in 0..50 {
            t += 1_000_000;
            tick_to(&mut eager, t);
        }
        step(&mut eager, parked, 7);
        step(&mut eager, a, 3);
        let early_b = table.with_session(b, |s| s.snapshot()).expect("alive");
        assert_twins(&table, &eager, "after manual steps");
        dense(&mut eager, &mut t, "settling", &|| {
            coasting(a) == Some(true) && coasting(b) == Some(true)
        });
        // The cannon's actors are never inert: park it, and nothing is
        // left on the schedule.
        assert_eq!(coasting(cannon), Some(false));
        set_rate(&mut eager, cannon, 0.0, t);
        assert_eq!(table.next_due_ns(), None);
        assert_twins(&table, &eager, "all coasting");

        // Sparse: hundreds of ticks settled in bulk per call.
        for round in 0..3 {
            t += 3_000_000_000 + round * 7_777_777;
            tick_to(&mut eager, t);
            assert_twins(&table, &eager, &format!("sparse round {round}"));
        }
        set_rate(&mut eager, a, 30.0, t);
        assert_eq!(coasting(a), Some(true), "a rate change keeps the coast");
        t += 5_000_000_000;
        tick_to(&mut eager, t);
        assert_twins(&table, &eager, "after a rate change");

        // A restore wakes `b` back onto the schedule.
        table.with_session(b, |s| s.restore(&early_b).expect("restore"));
        eager
            .get_mut(&b)
            .expect("twin")
            .s
            .restore(&early_b)
            .expect("restore");
        assert_eq!(coasting(b), Some(false));
        assert!(table.next_due_ns().is_some());
        assert_twins(&table, &eager, "after the restore");
        dense(&mut eager, &mut t, "re-settling", &|| {
            coasting(b) == Some(true)
        });

        // Destroy and re-create.
        assert!(table.destroy(a));
        let destroyed = eager.remove(&a).expect("twin").taken;
        let a2 = create(&mut eager, manual(12, 1));
        set_rate(&mut eager, a2, 100.0, t);
        dense(&mut eager, &mut t, "after re-creation", &|| {
            coasting(a2) == Some(true)
        });
        t += 2_000_000_000;
        tick_to(&mut eager, t);
        assert_twins(&table, &eager, "final");
        let taken: u64 = eager.values().map(|e| e.taken).sum();
        assert_eq!(table.total_steps(), taken + destroyed);
    }

    #[test]
    fn due_times_are_slots_of_the_rates_clock() {
        let _serial = crate::schedule_guard();
        let table = SessionTable::default();
        let period = 4_000_000; // 250 Hz: four slots of SLOT_NS
        let t0 = telemetry::now_ns();
        let due_of = |id| table.with_session(id, |s| s.due_ns).expect("alive");
        let on_its_slot = |id| due_of(id) % period == id % 4 * SLOT_NS;
        // Five sessions: the first scheduled at creation, the others at
        // unrelated later instants.
        let first = SessionConfig {
            step_rate: 250.0,
            ..manual(3, 0)
        };
        let mut ids = vec![table.create(first).expect("create").id];
        for k in 1..5 {
            let id = table.create(manual(3, k)).expect("create").id;
            let at = t0 + k * 1_370_001;
            table.with_session(id, |s| s.set_step_rate(250.0, at));
            assert!(due_of(id) > at && due_of(id) <= at + period);
            ids.push(id);
        }
        assert!(ids.iter().all(|&id| on_its_slot(id)));
        // A stall past the catch-up cap moves nobody off its slot, and
        // ids four apart come due together.
        let late = due_of(ids[4]) + 1_000 * period + 1;
        assert_eq!(table.step_due(late), 5);
        for &id in &ids {
            assert!(on_its_slot(id) && due_of(id) > late && due_of(id) <= late + period);
        }
        assert_eq!(due_of(ids[0]), due_of(ids[4]));
    }

    #[test]
    fn config_parsing_accepts_defaults_and_rejects_garbage() {
        assert_eq!(
            SessionConfig::from_json(b"").expect("empty body"),
            SessionConfig::default()
        );
        assert_eq!(
            SessionConfig::from_json(b"  \r\n ").expect("whitespace body"),
            SessionConfig::default()
        );
        let cfg =
            SessionConfig::from_json(br#"{"scene":"Resting","scale":0.5,"step_rate":60,"seed":3}"#)
                .expect("valid config");
        assert_eq!(cfg.scene, SceneKind::Named(BenchmarkId::Resting));
        assert_eq!(cfg.step_rate, 60.0);
        assert_eq!(cfg.seed, 3);
        assert!(SessionConfig::from_json(b"{").is_err());
        assert!(SessionConfig::from_json(br#"{"scene":"NoSuchScene"}"#).is_err());
        assert!(SessionConfig::from_json(br#"{"bodies":0}"#).is_err());
        assert!(SessionConfig::from_json(br#"{"step_rate":-5}"#).is_err());
        assert!(SessionConfig::from_json(br#"{"step_rate":1e30}"#).is_err());
    }

    #[test]
    fn snapshot_restore_round_trip() {
        let table = SessionTable::default();
        let info = table.create(manual(12, 9)).expect("create");
        table.step(info.id, 10);
        let (bytes, digest_at_10) = table
            .with_session(info.id, |s| {
                (s.snapshot(), parallax_physics::world_digest(&s.world))
            })
            .expect("alive");
        assert_eq!(&bytes[..4], &parallax_physics::SNAPSHOT_MAGIC);
        table.step(info.id, 25);
        let restored = table
            .with_session(info.id, |s| {
                s.restore(&bytes).expect("restore");
                (s.steps(), parallax_physics::world_digest(&s.world))
            })
            .expect("alive");
        assert_eq!(restored, (10, digest_at_10));
    }

    #[test]
    fn state_jsonl_is_parseable() {
        let table = SessionTable::default();
        let info = table.create(manual(8, 2)).expect("create");
        table.step(info.id, 5);
        let text = table
            .with_session(info.id, |s| s.state_jsonl(3, 8))
            .expect("alive");
        let lines: Vec<&str> = text.lines().collect();
        assert_eq!(lines.len(), 4, "3 records + 1 body-state line");
        for line in &lines[..3] {
            StepRecord::from_json_line(line).expect("record line parses");
        }
        let state = telemetry::json::Json::parse(lines[3]).expect("state line parses");
        assert_eq!(state.get("session").and_then(|v| v.as_u64()), Some(info.id));
        assert_eq!(
            state
                .get("body_state")
                .and_then(|v| v.as_arr())
                .map(|a| a.len()),
            Some(8)
        );
    }
}
