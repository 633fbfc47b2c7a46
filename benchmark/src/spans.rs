//! Spans recorded by the benchmark around its calls into each layer.
//!
//! A span has a layer (the crate called into), a name, a start and an
//! end, the span that caused it, and a group id shared by every span of
//! one step, request or design point. Spans stay in memory and are
//! written once, as Chrome `trace_event` JSON, when the run ends. A
//! layer's self time is its spans' duration minus the part their child
//! spans cover. Spans inside the program are a later change; these sit
//! in the benchmark's own code only.

use std::collections::BTreeMap;
use std::fmt::Write as _;
use std::time::Instant;

/// One closed span.
#[derive(Debug, Clone)]
pub struct Span {
    /// Crate the call went into (`physics`, `server`, `client`, ...).
    pub layer: &'static str,
    /// What was called.
    pub name: &'static str,
    /// Start, ns since the recorder's origin.
    pub start_ns: u64,
    /// End, ns since the recorder's origin.
    pub end_ns: u64,
    /// Index of the enclosing span in the same recorder.
    pub parent: Option<usize>,
    /// Id shared by all spans of one step / request / design point.
    pub group: u64,
}

/// Per-thread span store. A disabled recorder costs one branch per
/// call, so the same code path runs traced and untraced.
#[derive(Debug)]
pub struct Recorder {
    enabled: bool,
    origin: Instant,
    track: u32,
    spans: Vec<Span>,
    open: Vec<usize>,
}

impl Recorder {
    /// A recorder whose clock starts at `origin`; `track` becomes the
    /// Chrome-trace thread id, so threads sharing an origin line up.
    pub fn new(enabled: bool, origin: Instant, track: u32) -> Recorder {
        Recorder {
            enabled,
            origin,
            track,
            spans: Vec::new(),
            open: Vec::new(),
        }
    }

    fn now_ns(&self) -> u64 {
        self.origin.elapsed().as_nanos() as u64
    }

    /// Runs `f` inside a span; the innermost open span is its parent.
    pub fn span<R>(
        &mut self,
        layer: &'static str,
        name: &'static str,
        group: u64,
        f: impl FnOnce(&mut Recorder) -> R,
    ) -> R {
        if !self.enabled {
            return f(self);
        }
        let index = self.spans.len();
        let start_ns = self.now_ns();
        self.spans.push(Span {
            layer,
            name,
            start_ns,
            end_ns: start_ns,
            parent: self.open.last().copied(),
            group,
        });
        self.open.push(index);
        let result = f(self);
        self.open.pop();
        self.spans[index].end_ns = self.now_ns();
        result
    }

    /// [`Recorder::span`] that also returns the call's wall in seconds.
    pub fn timed<R>(
        &mut self,
        layer: &'static str,
        name: &'static str,
        group: u64,
        f: impl FnOnce(&mut Recorder) -> R,
    ) -> (R, f64) {
        let start = Instant::now();
        let result = self.span(layer, name, group, f);
        (result, start.elapsed().as_secs_f64())
    }

    /// Records an already-timed interval and its already-timed parts
    /// (`(name, start, end)` each) under the innermost open span. The
    /// HTTP client times connect / write / first byte / last byte
    /// anyway and keeps them only when tracing.
    pub fn interval(
        &mut self,
        layer: &'static str,
        name: &'static str,
        group: u64,
        (start, end): (Instant, Instant),
        parts: &[(&'static str, Instant, Instant)],
    ) {
        if !self.enabled {
            return;
        }
        let at = |t: Instant| t.saturating_duration_since(self.origin).as_nanos() as u64;
        let index = self.spans.len();
        self.spans.push(Span {
            layer,
            name,
            start_ns: at(start),
            end_ns: at(end),
            parent: self.open.last().copied(),
            group,
        });
        for &(part, from, to) in parts {
            self.spans.push(Span {
                layer,
                name: part,
                start_ns: at(from),
                end_ns: at(to),
                parent: Some(index),
                group,
            });
        }
    }

    /// The spans recorded so far.
    pub fn spans(&self) -> &[Span] {
        &self.spans
    }

    /// Self time per layer in ns: each span's duration minus its direct
    /// children's, summed by layer.
    pub fn self_ns_by_layer(&self) -> BTreeMap<&'static str, u64> {
        let mut child_ns = vec![0u64; self.spans.len()];
        for span in &self.spans {
            if let Some(parent) = span.parent {
                child_ns[parent] += span.end_ns - span.start_ns;
            }
        }
        let mut out = BTreeMap::new();
        for (span, children) in self.spans.iter().zip(child_ns) {
            let own = (span.end_ns - span.start_ns).saturating_sub(children);
            *out.entry(span.layer).or_insert(0) += own;
        }
        out
    }
}

/// Sums [`Recorder::self_ns_by_layer`] over several recorders.
pub fn self_ms_by_layer(recorders: &[Recorder]) -> BTreeMap<&'static str, f64> {
    let mut out = BTreeMap::new();
    for recorder in recorders {
        for (layer, ns) in recorder.self_ns_by_layer() {
            *out.entry(layer).or_insert(0.0) += ns as f64 / 1e6;
        }
    }
    out
}

/// Chrome `trace_event` JSON (loadable in Perfetto) of every recorder's
/// spans: one complete (`"X"`) event per span, one thread per recorder,
/// the layer as category, span id / parent / group as arguments.
pub fn chrome_trace(recorders: &[Recorder]) -> String {
    let mut out = String::from("{\"displayTimeUnit\":\"ms\",\"traceEvents\":[");
    let mut first = true;
    for recorder in recorders {
        for (index, span) in recorder.spans.iter().enumerate() {
            if !first {
                out.push(',');
            }
            first = false;
            let parent = span.parent.map_or(-1, |p| p as i64);
            let _ = write!(
                out,
                "\n{{\"name\":\"{}\",\"cat\":\"{}\",\"ph\":\"X\",\"pid\":1,\"tid\":{},\
                 \"ts\":{:.3},\"dur\":{:.3},\"args\":{{\"id\":{},\"parent\":{},\"group\":{}}}}}",
                span.name,
                span.layer,
                recorder.track,
                span.start_ns as f64 / 1e3,
                (span.end_ns - span.start_ns) as f64 / 1e3,
                index,
                parent,
                span.group
            );
        }
    }
    out.push_str("\n]}\n");
    out
}

#[cfg(test)]
mod tests {
    use super::*;
    use std::time::Duration;

    #[test]
    fn nesting_sets_parents_and_self_time_excludes_children() {
        let mut rec = Recorder::new(true, Instant::now(), 0);
        rec.span("outer", "step", 7, |rec| {
            std::thread::sleep(Duration::from_millis(2));
            rec.span("inner", "phase", 7, |_| {
                std::thread::sleep(Duration::from_millis(4))
            });
        });
        let spans = rec.spans();
        assert_eq!(spans.len(), 2);
        assert_eq!(spans[0].parent, None);
        assert_eq!(spans[1].parent, Some(0));
        assert_eq!(spans[1].group, 7);
        let own = rec.self_ns_by_layer();
        let total = spans[0].end_ns - spans[0].start_ns;
        assert_eq!(own["outer"] + own["inner"], total);
        assert!(own["inner"] >= 4_000_000);
        assert!(own["outer"] < total - 3_000_000);
    }

    #[test]
    fn disabled_recorder_keeps_nothing() {
        let origin = Instant::now();
        let mut rec = Recorder::new(false, origin, 0);
        assert_eq!(rec.span("a", "b", 0, |_| 5), 5);
        rec.interval("a", "c", 0, (origin, Instant::now()), &[]);
        assert!(rec.spans().is_empty());
    }

    #[test]
    fn chrome_trace_is_valid_json() {
        let origin = Instant::now();
        let mut rec = Recorder::new(true, origin, 3);
        let now = Instant::now();
        rec.interval(
            "client",
            "request",
            1,
            (origin, now),
            &[("connect", origin, now)],
        );
        assert_eq!(rec.spans()[1].parent, Some(0));
        let text = chrome_trace(&[rec]);
        let json = parallax_telemetry::json::Json::parse(&text).expect("valid JSON");
        let events = json
            .get("traceEvents")
            .and_then(|e| e.as_arr())
            .expect("events");
        assert_eq!(events.len(), 2);
        assert_eq!(
            events[1].get("name").and_then(|n| n.as_str()),
            Some("connect")
        );
        assert_eq!(events[0].get("tid").and_then(|n| n.as_u64()), Some(3));
    }
}
