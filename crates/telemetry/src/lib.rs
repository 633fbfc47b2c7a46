//! Workspace-wide telemetry: lock-free metrics, span tracing, export.
//!
//! The paper instruments phase boundaries with Simics MAGIC instructions
//! to obtain its per-phase breakdowns (Fig 2a), serial-fraction analysis
//! (Fig 7a) and FG-core utilization curves (Fig 10). This crate is the
//! reproduction's equivalent: a measurement subsystem cheap enough to be
//! always compiled in, shared by every layer of the workspace
//! (`physics` → `trace` → `archsim` → `parallax` → `bench`).
//!
//! Three pieces:
//!
//! * **Metrics registry** ([`registry`]) — process-global counters,
//!   gauges and fixed-bucket log2 histograms. Recording is lock-free and
//!   allocation-free: each thread owns a shard of plain atomic slots and
//!   a handle is just an index. [`snapshot`] merges every shard into a
//!   [`Snapshot`], and snapshots themselves [`Snapshot::merge`] (counters
//!   add, gauges max, histogram buckets add) and difference
//!   ([`Snapshot::delta_since`]) for per-step accounting.
//! * **Span tracing** ([`span`]) — `begin/end` events written to
//!   per-thread ring buffers (drop-newest when full), drained by
//!   [`drain_spans`] into [`SpanRecord`]s. A span carries a pre-interned
//!   name and a *track* (0 = the calling thread, `i` = executor worker
//!   `i`), which becomes one Perfetto track per worker on export.
//! * **Export** ([`export`], [`report`]) — a JSON-lines
//!   [`TelemetrySink`] writing one self-contained record per step, a
//!   Chrome `trace_event` converter whose output loads directly in
//!   Perfetto / `chrome://tracing`, and the Fig-2a-style per-phase
//!   report used by the `telemetry_report` binary.
//! * **Statistics** ([`stats`]) — dependency-free robust statistics
//!   (median/MAD, deterministic bootstrap confidence intervals and the
//!   noise-aware two-sample [`compare`] verdict) that the `bench_gate`
//!   regression gate turns telemetry into pass/fail decisions with.
//!
//! Telemetry is disabled at startup: every record call is one relaxed
//! atomic load and a branch (criterion-verified ≤ 3% on the step path;
//! see DESIGN.md §7). Building with the `off` feature removes even that,
//! turning the whole crate into a static no-op recorder.
//!
//! # Examples
//!
//! ```
//! use parallax_telemetry as telemetry;
//!
//! let pairs = telemetry::counter("demo.pairs");
//! let sizes = telemetry::histogram("demo.island_size");
//! telemetry::set_enabled(true);
//! pairs.add(3);
//! sizes.record(17);
//! let snap = telemetry::snapshot();
//! assert_eq!(snap.counter("demo.pairs"), 3);
//! assert_eq!(snap.histogram("demo.island_size").unwrap().count(), 1);
//! telemetry::set_enabled(false);
//! ```

pub mod attribution;
pub mod export;
pub mod json;
pub mod net;
pub mod registry;
pub mod report;
pub mod span;
pub mod stats;

pub use attribution::{attribute_step, render_critical_path, StepAttribution};
pub use export::{chrome_trace, read_jsonl, StepRecord, TelemetrySink};
pub use net::{
    http_get, http_request, prometheus_text, HttpServer, Request, Response, ServerOptions,
};
pub use registry::{
    counter, counter_named, gauge, histogram, reset, snapshot, Counter, Gauge, Histogram,
    HistogramSnapshot, Snapshot,
};
pub use span::{
    discard_spans, drain_spans, now_ns, span_name, span_record, SpanGuard, SpanName, SpanRecord,
};
pub use stats::{
    bootstrap_median_ci, compare, mad, median, summarize, trim_warmup, BootstrapConfig, Comparison,
    Verdict,
};

use std::sync::atomic::{AtomicBool, Ordering};

#[cfg(not(feature = "off"))]
static ENABLED: AtomicBool = AtomicBool::new(false);

/// Whether telemetry is currently recording.
///
/// With the `off` feature this is a constant `false`, so every recording
/// call site folds away.
#[inline(always)]
pub fn enabled() -> bool {
    #[cfg(feature = "off")]
    {
        false
    }
    #[cfg(not(feature = "off"))]
    {
        ENABLED.load(Ordering::Relaxed)
    }
}

/// Turns recording on or off process-wide (no-op under the `off`
/// feature). Registration of metrics and span names is always allowed;
/// only recording is gated.
pub fn set_enabled(on: bool) {
    #[cfg(feature = "off")]
    {
        let _ = on;
    }
    #[cfg(not(feature = "off"))]
    {
        ENABLED.store(on, Ordering::Relaxed);
    }
}

/// Serializes tests that flip the process-global enabled flag.
#[cfg(test)]
pub(crate) fn test_guard() -> std::sync::MutexGuard<'static, ()> {
    static LOCK: Mutex<()> = Mutex::new(());
    LOCK.lock().unwrap_or_else(|poisoned| poisoned.into_inner())
}

#[cfg(test)]
use std::sync::Mutex;

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn disabled_recording_is_invisible() {
        let _guard = test_guard();
        let c = counter("lib.disabled_counter");
        set_enabled(false);
        c.add(1000);
        assert_eq!(snapshot().counter("lib.disabled_counter"), 0);
    }

    #[cfg(not(feature = "off"))]
    #[test]
    fn toggling_enables_recording() {
        let _guard = test_guard();
        let c = counter("lib.toggle_counter");
        set_enabled(true);
        c.add(2);
        set_enabled(false);
        c.add(5);
        assert_eq!(snapshot().counter("lib.toggle_counter"), 2);
    }
}
