//! Persistent worker-thread executor for the engine's parallel phases.
//!
//! The paper's engine (§6.1) keeps a pool of pthreads alive for the whole
//! run and feeds them phase work through a work queue; threads block on
//! the queue between phases instead of being re-created. [`Executor`]
//! reproduces that model: `World` owns one executor for its lifetime and
//! every parallel phase (narrowphase, island processing, cloth) submits
//! borrowed, scoped jobs to the same threads. Nothing on the step path
//! spawns a thread.
//!
//! Work distribution is chunked: participants (the workers plus the
//! calling thread) claim contiguous chunks of the item range off a shared
//! atomic cursor and write results by item index, so the output order —
//! and therefore the simulation — is identical for any thread count.

use std::collections::VecDeque;
use std::panic::{self, AssertUnwindSafe};
use std::sync::atomic::{AtomicBool, AtomicUsize, Ordering};
use std::sync::{Arc, Condvar, Mutex, OnceLock};
use std::thread::JoinHandle;

use parallax_telemetry as telemetry;

/// Executor-wide telemetry handles, registered once per process.
struct ExecMetrics {
    /// Parallel regions dispatched.
    regions: telemetry::Counter,
    /// Work-cursor chunks claimed (all participants).
    chunks: telemetry::Counter,
    /// Items processed through parallel regions.
    tasks: telemetry::Counter,
    /// Calling-thread nanoseconds spent inside parallel regions.
    caller_busy_ns: telemetry::Counter,
    /// Fallback span label for unlabeled regions.
    default_span: telemetry::SpanName,
}

fn exec_metrics() -> &'static ExecMetrics {
    static M: OnceLock<ExecMetrics> = OnceLock::new();
    M.get_or_init(|| ExecMetrics {
        regions: telemetry::counter("physics.executor.regions"),
        chunks: telemetry::counter("physics.executor.chunks_claimed"),
        tasks: telemetry::counter("physics.executor.tasks"),
        caller_busy_ns: telemetry::counter("physics.executor.caller.busy_ns"),
        default_span: telemetry::span_name("executor.region"),
    })
}

/// Per-worker telemetry: busy/idle counters (merged into the snapshot by
/// name) plus the worker's span track id.
struct WorkerTelemetry {
    busy_ns: telemetry::Counter,
    idle_ns: telemetry::Counter,
    jobs: telemetry::Counter,
    track: u32,
}

impl WorkerTelemetry {
    fn for_worker(i: usize) -> WorkerTelemetry {
        WorkerTelemetry {
            busy_ns: telemetry::counter_named(format!("physics.executor.worker{i}.busy_ns")),
            idle_ns: telemetry::counter_named(format!("physics.executor.worker{i}.idle_ns")),
            jobs: telemetry::counter_named(format!("physics.executor.worker{i}.jobs")),
            track: i as u32,
        }
    }
}

/// A persistent pool of worker threads serving scoped, borrowed jobs.
///
/// Created once (from `WorldConfig::threads`) and reused for every step.
/// `threads` counts the calling thread: `Executor::new(4)` spawns three
/// workers and the caller participates as the fourth.
///
/// ```
/// use parallax_physics::parallel::Executor;
///
/// let exec = Executor::new(4);
/// let mut out = Vec::new();
/// exec.map_into(&[1, 2, 3, 4], &mut out, |x| x * 10);
/// assert_eq!(out, vec![10, 20, 30, 40]);
/// ```
pub struct Executor {
    shared: Arc<Shared>,
    workers: Vec<JoinHandle<()>>,
    threads: usize,
}

struct Shared {
    queue: Mutex<VecDeque<Job>>,
    available: Condvar,
    shutdown: AtomicBool,
}

/// A type-erased pointer to a live `MapState` on the submitting thread's
/// stack plus the monomorphized entry point that knows its real type. The
/// submitting call blocks on [`Latch`] until every job has finished, which
/// keeps the pointee alive for the job's whole execution.
struct Job {
    state: *const (),
    run: unsafe fn(*const ()),
    latch: Arc<Latch>,
    /// Interned label for the span this job records on its worker's track.
    span: telemetry::SpanName,
}

// Safety: `state` points at a `MapState` whose closure is `Sync` (required
// by the public `map_*` bounds) and whose results are `Send`; the
// submitting thread keeps it alive until the latch opens.
unsafe impl Send for Job {}

/// Completion barrier: opens once `count_down` has been called `n` times.
struct Latch {
    remaining: Mutex<usize>,
    opened: Condvar,
}

impl Latch {
    fn new(n: usize) -> Self {
        Latch {
            remaining: Mutex::new(n),
            opened: Condvar::new(),
        }
    }

    fn count_down(&self) {
        let mut left = self.remaining.lock().unwrap();
        *left -= 1;
        if *left == 0 {
            self.opened.notify_all();
        }
    }

    fn wait(&self) {
        let mut left = self.remaining.lock().unwrap();
        while *left > 0 {
            left = self.opened.wait(left).unwrap();
        }
    }
}

/// Shared per-call state for one parallel map, type-erased behind [`Job`].
/// Raw pointers (not references) so the struct has no lifetime parameters
/// and a plain `unsafe fn(*const ())` can reconstruct it.
struct MapState<R, F> {
    n: usize,
    out: *mut R,
    cursor: AtomicUsize,
    chunk: usize,
    f: *const F,
    panicked: AtomicBool,
}

impl<R, F: Fn(usize) -> R> MapState<R, F> {
    /// Claims chunks off the cursor and fills `out[i]` for each index `i`.
    /// Writing by index makes the result independent of which participant
    /// processed which chunk.
    unsafe fn work(&self) {
        let f = &*self.f;
        loop {
            let start = self.cursor.fetch_add(self.chunk, Ordering::Relaxed);
            if start >= self.n {
                return;
            }
            if telemetry::enabled() {
                exec_metrics().chunks.add(1);
            }
            let end = (start + self.chunk).min(self.n);
            for i in start..end {
                match panic::catch_unwind(AssertUnwindSafe(|| f(i))) {
                    Ok(r) => self.out.add(i).write(r),
                    Err(_) => {
                        // Keep draining so other items still complete and
                        // the latch opens; the caller re-panics.
                        self.panicked.store(true, Ordering::Release);
                    }
                }
            }
        }
    }
}

unsafe fn run_map<R, F: Fn(usize) -> R>(state: *const ()) {
    (*(state as *const MapState<R, F>)).work();
}

impl Executor {
    /// Builds an executor where `threads` participants (including the
    /// caller) serve each parallel region. `threads <= 1` spawns nothing
    /// and runs every region serially on the caller.
    pub fn new(threads: usize) -> Self {
        let threads = threads.max(1);
        let shared = Arc::new(Shared {
            queue: Mutex::new(VecDeque::new()),
            available: Condvar::new(),
            shutdown: AtomicBool::new(false),
        });
        let workers = (1..threads)
            .map(|i| {
                let shared = Arc::clone(&shared);
                std::thread::Builder::new()
                    .name(format!("physics-worker-{i}"))
                    .spawn(move || worker_loop(&shared, WorkerTelemetry::for_worker(i)))
                    .expect("spawn physics worker")
            })
            .collect();
        Executor {
            shared,
            workers,
            threads,
        }
    }

    /// Number of participants (workers + caller) serving parallel regions.
    pub fn threads(&self) -> usize {
        self.threads
    }

    /// Maps `f` over `items`, writing results into `out` (cleared first)
    /// in item order. The caller participates; workers are fed through the
    /// persistent queue. Deterministic for any thread count.
    pub fn map_into<T, R, F>(&self, items: &[T], out: &mut Vec<R>, f: F)
    where
        T: Sync,
        R: Send,
        F: Fn(&T) -> R + Sync,
    {
        self.map_indexed_into(items.len(), out, exec_metrics().default_span, |i| {
            f(&items[i])
        });
    }

    /// [`map_into`](Self::map_into) with a span label: every job the
    /// region runs records a span named `label` on its worker's track, so
    /// the exported trace shows which phase each worker was serving.
    pub fn map_into_labeled<T, R, F>(&self, label: &str, items: &[T], out: &mut Vec<R>, f: F)
    where
        T: Sync,
        R: Send,
        F: Fn(&T) -> R + Sync,
    {
        self.map_indexed_into(items.len(), out, telemetry::span_name(label), |i| {
            f(&items[i])
        });
    }

    /// Like [`map_into`](Self::map_into) but hands the closure disjoint
    /// `&mut` access to each item (plus the item's index), for phases that
    /// update in place (cloth).
    pub fn map_mut_into<T, R, F>(&self, items: &mut [T], out: &mut Vec<R>, f: F)
    where
        T: Send,
        R: Send,
        F: Fn(usize, &mut T) -> R + Sync,
    {
        self.map_mut_into_span(items, out, exec_metrics().default_span, f);
    }

    /// [`map_mut_into`](Self::map_mut_into) with a span label (see
    /// [`map_into_labeled`](Self::map_into_labeled)).
    pub fn map_mut_into_labeled<T, R, F>(
        &self,
        label: &str,
        items: &mut [T],
        out: &mut Vec<R>,
        f: F,
    ) where
        T: Send,
        R: Send,
        F: Fn(usize, &mut T) -> R + Sync,
    {
        self.map_mut_into_span(items, out, telemetry::span_name(label), f);
    }

    /// Runs `f` over aligned chunks of `items` and `out` — `chunk` items
    /// each, the last one shorter — on the executor: every call gets a
    /// slice of `items` and the matching `&mut` slice of `out` to fill in
    /// place. Chunk boundaries depend only on `chunk`, so the result is
    /// the same for any thread count.
    ///
    /// # Panics
    ///
    /// Panics if the two slices differ in length or `chunk` is zero.
    pub fn zip_chunks_labeled<T, R, F>(
        &self,
        label: &str,
        chunk: usize,
        items: &[T],
        out: &mut [R],
        f: F,
    ) where
        T: Sync,
        R: Send,
        F: Fn(&[T], &mut [R]) + Sync,
    {
        assert_eq!(items.len(), out.len(), "one output slot per item");
        assert!(chunk > 0, "chunk length must be positive");
        let base = SendPtr(out.as_mut_ptr());
        let n = items.len();
        // No result to collect: a `Vec<()>` never allocates.
        let mut done: Vec<()> = Vec::new();
        self.map_indexed_into(
            n.div_ceil(chunk),
            &mut done,
            telemetry::span_name(label),
            move |c| {
                let start = c * chunk;
                let end = (start + chunk).min(n);
                // SAFETY: chunk `c` covers `start..end`, the ranges of
                // distinct chunks are disjoint and inside `out` (checked
                // equal in length to `items` above), the cursor hands out
                // each chunk index exactly once, and `out` is mutably
                // borrowed for the whole call.
                let out = unsafe { std::slice::from_raw_parts_mut(base.at(start), end - start) };
                f(&items[start..end], out)
            },
        );
    }

    fn map_mut_into_span<T, R, F>(
        &self,
        items: &mut [T],
        out: &mut Vec<R>,
        span: telemetry::SpanName,
        f: F,
    ) where
        T: Send,
        R: Send,
        F: Fn(usize, &mut T) -> R + Sync,
    {
        let base = SendPtr(items.as_mut_ptr());
        let n = items.len();
        // Safety: the cursor hands out each index exactly once, so the
        // `&mut` borrows are disjoint; the slice outlives the call.
        self.map_indexed_into(n, out, span, move |i| f(i, unsafe { &mut *base.at(i) }));
    }

    /// Shared implementation: maps an index-addressed closure over `0..n`.
    fn map_indexed_into<R, F>(&self, n: usize, out: &mut Vec<R>, span: telemetry::SpanName, f: F)
    where
        R: Send,
        F: Fn(usize) -> R + Sync,
    {
        out.clear();
        if n == 0 {
            return;
        }
        if telemetry::enabled() {
            let m = exec_metrics();
            m.regions.add(1);
            m.tasks.add(n as u64);
        }
        if self.threads <= 1 || n == 1 {
            let start = maybe_now();
            out.extend((0..n).map(f));
            record_caller(span, start);
            return;
        }
        out.reserve(n);

        // Chunks sized for ~4 claims per participant: large enough to keep
        // cursor contention negligible, small enough to balance load.
        let state = MapState {
            n,
            out: out.as_mut_ptr(),
            cursor: AtomicUsize::new(0),
            chunk: n.div_ceil(self.threads * 4).max(1),
            f: &f,
            panicked: AtomicBool::new(false),
        };

        let helpers = (self.threads - 1).min(n - 1);
        let latch = Arc::new(Latch::new(helpers));
        {
            let mut queue = self.shared.queue.lock().unwrap();
            for _ in 0..helpers {
                queue.push_back(Job {
                    state: &state as *const MapState<R, F> as *const (),
                    run: run_map::<R, F>,
                    latch: Arc::clone(&latch),
                    span,
                });
            }
        }
        self.shared.available.notify_all();

        // Participate, then wait for the workers; the latch keeps `state`,
        // `out`'s buffer and `f` alive until every job is done with them.
        let start = maybe_now();
        unsafe { state.work() };
        record_caller(span, start);
        latch.wait();

        if state.panicked.load(Ordering::Acquire) {
            // Written results are leaked (len stays 0), never read.
            panic!("worker panicked in Executor parallel region");
        }
        // Safety: every index in 0..n was written exactly once.
        unsafe { out.set_len(n) };
    }
}

/// A mutable slice that the jobs of one parallel region write through,
/// each job its own span: how a region fills flat output arrays whose
/// per-item lengths differ (island processing's velocities, joint sums
/// and contact impulses).
pub(crate) struct Spans<'a, T> {
    base: SendPtr<T>,
    len: usize,
    _slice: std::marker::PhantomData<&'a mut [T]>,
}

impl<'a, T: Send> Spans<'a, T> {
    /// Lends out `slice` for the region.
    pub(crate) fn new(slice: &'a mut [T]) -> Self {
        Spans {
            base: SendPtr(slice.as_mut_ptr()),
            len: slice.len(),
            _slice: std::marker::PhantomData,
        }
    }

    /// The elements at `range`.
    ///
    /// # Panics
    ///
    /// Panics if `range` is reversed or runs past the slice.
    ///
    /// # Safety
    ///
    /// No two spans taken from one `Spans` may overlap.
    pub(crate) unsafe fn span(&self, range: std::ops::Range<usize>) -> &'a mut [T] {
        assert!(
            range.start <= range.end && range.end <= self.len,
            "span out of bounds"
        );
        // SAFETY: in bounds (checked above) of a slice mutably borrowed for
        // `'a`; the caller keeps the spans disjoint.
        unsafe { std::slice::from_raw_parts_mut(self.base.at(range.start), range.len()) }
    }
}

/// Raw pointer wrapper that may cross into the `Sync` closure. Element
/// access goes through [`SendPtr::at`] so closures capture the wrapper
/// (which is `Sync`), not the raw pointer field.
struct SendPtr<T>(*mut T);

impl<T> SendPtr<T> {
    fn at(&self, i: usize) -> *mut T {
        unsafe { self.0.add(i) }
    }
}

impl<T> Clone for SendPtr<T> {
    fn clone(&self) -> Self {
        SendPtr(self.0)
    }
}

// Safety: only used to derive disjoint per-index `&mut` borrows of a
// `Send` element type (see `map_mut_into`).
unsafe impl<T: Send> Sync for SendPtr<T> {}
unsafe impl<T: Send> Send for SendPtr<T> {}

impl std::fmt::Debug for Executor {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        f.debug_struct("Executor")
            .field("threads", &self.threads)
            .finish()
    }
}

impl Drop for Executor {
    fn drop(&mut self) {
        self.shared.shutdown.store(true, Ordering::Release);
        self.shared.available.notify_all();
        for w in self.workers.drain(..) {
            let _ = w.join();
        }
    }
}

/// Current telemetry clock, or `u64::MAX` as the "disabled" sentinel so
/// the disabled path skips the clock read entirely.
#[inline]
fn maybe_now() -> u64 {
    if telemetry::enabled() {
        telemetry::now_ns()
    } else {
        u64::MAX
    }
}

/// Closes a calling-thread region opened at `start_ns` (track 0).
#[inline]
fn record_caller(span: telemetry::SpanName, start_ns: u64) {
    if start_ns == u64::MAX || !telemetry::enabled() {
        return;
    }
    let dur = telemetry::now_ns().saturating_sub(start_ns);
    telemetry::span_record(span, 0, start_ns, dur);
    exec_metrics().caller_busy_ns.add(dur);
}

fn worker_loop(shared: &Shared, t: WorkerTelemetry) {
    loop {
        let wait_start = maybe_now();
        let job = {
            let mut queue = shared.queue.lock().unwrap();
            loop {
                if let Some(job) = queue.pop_front() {
                    break job;
                }
                if shared.shutdown.load(Ordering::Acquire) {
                    return;
                }
                queue = shared.available.wait(queue).unwrap();
            }
        };
        let busy_start = maybe_now();
        if wait_start != u64::MAX && busy_start != u64::MAX {
            t.idle_ns.add(busy_start.saturating_sub(wait_start));
        }
        // Safety: the submitting thread blocks on the latch until this
        // job's `run` returns, keeping the pointee alive.
        unsafe { (job.run)(job.state) };
        if busy_start != u64::MAX && telemetry::enabled() {
            let dur = telemetry::now_ns().saturating_sub(busy_start);
            t.busy_ns.add(dur);
            t.jobs.add(1);
            telemetry::span_record(job.span, t.track, busy_start, dur);
        }
        job.latch.count_down();
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use std::sync::atomic::AtomicU32;

    #[test]
    fn maps_in_item_order() {
        let exec = Executor::new(4);
        let items: Vec<u64> = (0..1000).collect();
        let mut out = Vec::new();
        exec.map_into(&items, &mut out, |x| x * 2);
        assert_eq!(out, items.iter().map(|x| x * 2).collect::<Vec<_>>());
    }

    #[test]
    fn single_thread_runs_serially() {
        let exec = Executor::new(1);
        let mut out = Vec::new();
        exec.map_into(&[5, 6, 7], &mut out, |x| x + 1);
        assert_eq!(out, vec![6, 7, 8]);
    }

    #[test]
    fn empty_input_gives_empty_output() {
        let exec = Executor::new(4);
        let mut out: Vec<i32> = vec![1, 2, 3];
        exec.map_into(&[], &mut out, |x: &i32| *x);
        assert!(out.is_empty());
    }

    #[test]
    fn more_threads_than_items() {
        let exec = Executor::new(8);
        let mut out = Vec::new();
        exec.map_into(&[1, 2], &mut out, |x| x * x);
        assert_eq!(out, vec![1, 4]);
    }

    #[test]
    fn reused_across_many_calls() {
        let exec = Executor::new(3);
        let mut out = Vec::new();
        for round in 0..50u64 {
            let items: Vec<u64> = (0..97).collect();
            exec.map_into(&items, &mut out, |x| x + round);
            assert_eq!(out.len(), 97);
            assert_eq!(out[13], 13 + round);
        }
    }

    #[test]
    fn all_participants_see_every_item_once() {
        let exec = Executor::new(4);
        let hits: Vec<AtomicU32> = (0..500).map(|_| AtomicU32::new(0)).collect();
        let items: Vec<usize> = (0..500).collect();
        let mut out = Vec::new();
        exec.map_into(&items, &mut out, |&i| {
            hits[i].fetch_add(1, Ordering::Relaxed);
            i
        });
        assert!(hits.iter().all(|h| h.load(Ordering::Relaxed) == 1));
    }

    #[test]
    fn map_mut_gives_disjoint_mutable_access() {
        let exec = Executor::new(4);
        let mut items: Vec<u64> = (0..256).collect();
        let mut out = Vec::new();
        exec.map_mut_into(&mut items, &mut out, |i, x| {
            assert_eq!(*x, i as u64);
            *x += 1;
            *x
        });
        assert_eq!(items, (1..=256).collect::<Vec<u64>>());
        assert_eq!(out, items);
    }

    #[test]
    fn matches_serial_result_for_any_thread_count() {
        let items: Vec<u64> = (0..313).collect();
        let expected: Vec<u64> = items.iter().map(|x| x.wrapping_mul(31) ^ 7).collect();
        for threads in [1, 2, 3, 8] {
            let exec = Executor::new(threads);
            let mut out = Vec::new();
            exec.map_into(&items, &mut out, |x| x.wrapping_mul(31) ^ 7);
            assert_eq!(out, expected, "threads = {threads}");
        }
    }

    #[test]
    fn labeled_maps_match_unlabeled() {
        let exec = Executor::new(3);
        let items: Vec<u64> = (0..128).collect();
        let mut out = Vec::new();
        exec.map_into_labeled("test.region", &items, &mut out, |x| x * 3);
        assert_eq!(out, items.iter().map(|x| x * 3).collect::<Vec<_>>());
        let mut items2 = items.clone();
        exec.map_mut_into_labeled("test.region", &mut items2, &mut out, |_, x| {
            *x += 1;
            *x
        });
        assert_eq!(out, items.iter().map(|x| x + 1).collect::<Vec<_>>());
    }

    #[test]
    fn worker_panic_propagates_to_caller() {
        let exec = Executor::new(4);
        let items: Vec<u32> = (0..64).collect();
        let mut out = Vec::new();
        let result = panic::catch_unwind(AssertUnwindSafe(|| {
            exec.map_into(&items, &mut out, |&x| {
                assert!(x != 33, "boom");
                x
            });
        }));
        assert!(result.is_err());
        // The executor must survive a panicked region and stay usable.
        let mut out2 = Vec::new();
        exec.map_into(&items, &mut out2, |&x| x);
        assert_eq!(out2.len(), 64);
    }
}
