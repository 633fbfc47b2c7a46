//! Span-based structured tracing into per-thread ring buffers.
//!
//! A span is `(name, track, start_ns, dur_ns)`. Names are interned to
//! `u32` ids at registration time ([`span_name`]) so the recording path
//! writes three plain `u64` atomic slots — no allocation, no locking.
//! Each thread owns a fixed-capacity buffer; when it fills, new spans
//! are dropped (counted in `telemetry.spans_dropped`) rather than
//! overwriting history, which keeps the writer wait-free.
//!
//! [`drain_spans`] collects and clears every buffer. It is meant to be
//! called at a quiescent point (between steps, while the executor is
//! idle); a span recorded concurrently with a drain may land in either
//! the drained batch or the next one.

use std::sync::atomic::{AtomicU64, AtomicUsize, Ordering};
use std::sync::{Arc, Mutex, OnceLock};
use std::time::Instant;

/// Spans each thread can hold between drains.
pub const SPAN_CAPACITY: usize = 8192;

/// An interned span name (copyable handle).
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub struct SpanName(u32);

/// A drained span event with its name resolved.
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct SpanRecord {
    /// Registered span name.
    pub name: String,
    /// Track the span belongs to (0 = calling thread, `i` = worker `i`).
    pub track: u32,
    /// Start, nanoseconds since the process telemetry epoch.
    pub start_ns: u64,
    /// Duration in nanoseconds.
    pub dur_ns: u64,
}

struct SpanBuf {
    /// Number of initialized slots; the owning thread is the only
    /// writer, drains reset it to zero.
    len: AtomicUsize,
    /// [`SPAN_CAPACITY`]` × 3` slots: (name<<32 | track, start_ns, dur_ns).
    slots: Vec<AtomicU64>,
}

struct Global {
    names: Mutex<Vec<String>>,
    bufs: Mutex<Vec<Arc<SpanBuf>>>,
    epoch: Instant,
    dropped: AtomicU64,
}

fn global() -> &'static Global {
    static G: OnceLock<Global> = OnceLock::new();
    G.get_or_init(|| Global {
        names: Mutex::new(Vec::new()),
        bufs: Mutex::new(Vec::new()),
        epoch: Instant::now(),
        dropped: AtomicU64::new(0),
    })
}

thread_local! {
    static BUF: std::cell::OnceCell<Arc<SpanBuf>> = const { std::cell::OnceCell::new() };
}

/// Interns a span name, returning its handle. Idempotent per string.
pub fn span_name(name: &str) -> SpanName {
    let mut names = global().names.lock().expect("span names");
    if let Some(i) = names.iter().position(|n| n == name) {
        return SpanName(i as u32);
    }
    names.push(name.to_string());
    SpanName((names.len() - 1) as u32)
}

/// Nanoseconds since the process telemetry epoch.
#[inline]
pub fn now_ns() -> u64 {
    global().epoch.elapsed().as_nanos() as u64
}

/// Records a completed span. Wait-free; no-op while disabled.
#[inline]
pub fn span_record(name: SpanName, track: u32, start_ns: u64, dur_ns: u64) {
    if !crate::enabled() {
        return;
    }
    BUF.with(|cell| {
        let buf = cell.get_or_init(|| {
            let buf = Arc::new(SpanBuf {
                len: AtomicUsize::new(0),
                slots: (0..SPAN_CAPACITY * 3).map(|_| AtomicU64::new(0)).collect(),
            });
            global()
                .bufs
                .lock()
                .expect("span bufs")
                .push(Arc::clone(&buf));
            buf
        });
        let i = buf.len.load(Ordering::Relaxed);
        if i >= SPAN_CAPACITY {
            // First drop of the process warns once; after that the count
            // (and the gauge set at drain time) is the only signal.
            if global().dropped.fetch_add(1, Ordering::Relaxed) == 0 {
                eprintln!(
                    "warning: telemetry span ring full ({SPAN_CAPACITY} spans/thread); dropping \
                     new spans until the next drain — drain more often"
                );
            }
            return;
        }
        let base = i * 3;
        buf.slots[base].store(((name.0 as u64) << 32) | track as u64, Ordering::Relaxed);
        buf.slots[base + 1].store(start_ns, Ordering::Relaxed);
        buf.slots[base + 2].store(dur_ns, Ordering::Relaxed);
        buf.len.store(i + 1, Ordering::Release);
    });
}

/// RAII helper: records a span from construction to drop.
///
/// ```
/// use parallax_telemetry as telemetry;
/// let name = telemetry::span_name("doc.example");
/// telemetry::set_enabled(true);
/// {
///     let _span = telemetry::SpanGuard::enter(name, 0);
///     // ... traced work ...
/// }
/// telemetry::set_enabled(false);
/// let mut spans = Vec::new();
/// telemetry::drain_spans(&mut spans);
/// assert!(spans.iter().any(|s| s.name == "doc.example"));
/// ```
pub struct SpanGuard {
    name: SpanName,
    track: u32,
    start_ns: u64,
}

impl SpanGuard {
    /// Starts a span on `track`.
    #[inline]
    pub fn enter(name: SpanName, track: u32) -> SpanGuard {
        SpanGuard {
            name,
            track,
            start_ns: if crate::enabled() { now_ns() } else { 0 },
        }
    }
}

impl Drop for SpanGuard {
    #[inline]
    fn drop(&mut self) {
        if self.start_ns != 0 {
            span_record(
                self.name,
                self.track,
                self.start_ns,
                now_ns().saturating_sub(self.start_ns),
            );
        }
    }
}

/// Drains every thread's span buffer into `out` (appended, sorted by
/// start time) and clears the buffers. Call at a quiescent point.
///
/// Drains also mirror the process's cumulative dropped-span count into
/// the `telemetry.spans_dropped` gauge, so any snapshot consumer (the
/// JSONL sink, the `/metrics` exporter) sees ring overflow without
/// bespoke bookkeeping.
pub fn drain_spans(out: &mut Vec<SpanRecord>) {
    let dropped = global().dropped.load(Ordering::Relaxed);
    if dropped > 0 {
        crate::registry::gauge(crate::report::SPANS_DROPPED_GAUGE).set_always(dropped);
    }
    let names = global().names.lock().expect("span names");
    let bufs = global().bufs.lock().expect("span bufs");
    let before = out.len();
    for buf in bufs.iter() {
        let n = buf.len.load(Ordering::Acquire).min(SPAN_CAPACITY);
        for i in 0..n {
            let base = i * 3;
            let meta = buf.slots[base].load(Ordering::Relaxed);
            let name_id = (meta >> 32) as usize;
            if let Some(name) = names.get(name_id) {
                out.push(SpanRecord {
                    name: name.clone(),
                    track: meta as u32,
                    start_ns: buf.slots[base + 1].load(Ordering::Relaxed),
                    dur_ns: buf.slots[base + 2].load(Ordering::Relaxed),
                });
            }
        }
        buf.len.store(0, Ordering::Release);
    }
    out[before..].sort_by_key(|s| (s.start_ns, s.track));
}

/// Empties every thread's span buffer without reading it: the drain of a
/// process that records metrics but has no span consumer. Same quiescence
/// caveat as [`drain_spans`].
pub fn discard_spans() {
    for buf in global().bufs.lock().expect("span bufs").iter() {
        buf.len.store(0, Ordering::Release);
    }
}

/// Spans dropped so far because a thread's buffer was full.
pub fn spans_dropped() -> u64 {
    global().dropped.load(Ordering::Relaxed)
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn span_names_are_interned() {
        let a = span_name("span.same");
        let b = span_name("span.same");
        assert_eq!(a, b);
        assert_ne!(span_name("span.other"), a);
    }

    #[cfg(not(feature = "off"))]
    #[test]
    fn guard_records_span_with_duration() {
        let _guard = crate::test_guard();
        let mut sink = Vec::new();
        drain_spans(&mut sink); // clear leftovers from other tests
        let name = span_name("span.guard_test");
        crate::set_enabled(true);
        {
            let _span = SpanGuard::enter(name, 7);
            std::thread::sleep(std::time::Duration::from_micros(200));
        }
        crate::set_enabled(false);
        let mut spans = Vec::new();
        drain_spans(&mut spans);
        let s = spans
            .iter()
            .find(|s| s.name == "span.guard_test")
            .expect("span recorded");
        assert_eq!(s.track, 7);
        assert!(s.dur_ns >= 100_000, "duration measured: {}", s.dur_ns);
        let mut again = Vec::new();
        drain_spans(&mut again);
        assert!(
            !again.iter().any(|s| s.name == "span.guard_test"),
            "drain clears buffers"
        );
    }

    #[test]
    fn disabled_spans_record_nothing() {
        let _guard = crate::test_guard();
        let mut sink = Vec::new();
        drain_spans(&mut sink);
        let name = span_name("span.disabled_test");
        crate::set_enabled(false);
        span_record(name, 0, 1, 2);
        let mut spans = Vec::new();
        drain_spans(&mut spans);
        assert!(!spans.iter().any(|s| s.name == "span.disabled_test"));
    }
}
