//! The lock-free metrics registry: counters, gauges, log2 histograms.
//!
//! Layout: metric *names* live in a process-global table guarded by a
//! mutex that is touched only at registration time (cold). Metric
//! *values* live in per-thread `Shard`s — flat arrays of `AtomicU64`
//! slots indexed by the metric's id — so the hot path is one
//! thread-local lookup plus one relaxed atomic RMW on memory no other
//! thread writes. No allocation, no locking, no false sharing between
//! recording threads (each shard is its own allocation).
//!
//! [`snapshot`] walks every shard ever registered (shards of exited
//! threads are kept alive by the global list, so their counts survive)
//! and merges the slots into a [`Snapshot`].

use std::collections::HashMap;
use std::sync::atomic::{AtomicU64, Ordering};
use std::sync::{Arc, Mutex, OnceLock};

/// Maximum number of counters registrable process-wide.
pub const MAX_COUNTERS: usize = 192;
/// Maximum number of gauges registrable process-wide.
pub const MAX_GAUGES: usize = 64;
/// Maximum number of histograms registrable process-wide.
pub const MAX_HISTOGRAMS: usize = 48;
/// Buckets per histogram: bucket 0 holds zeros, bucket `b` holds values
/// in `[2^(b-1), 2^b)` (the last bucket is clamped open-ended).
pub const HIST_BUCKETS: usize = 64;

/// Per-thread value storage. One allocation per recording thread.
struct Shard {
    counters: Vec<AtomicU64>,
    gauges: Vec<AtomicU64>,
    /// `MAX_HISTOGRAMS × (HIST_BUCKETS + 1)`: 64 buckets then a running
    /// sum, so a snapshot can report both distribution and mean.
    hists: Vec<AtomicU64>,
}

impl Shard {
    fn new() -> Shard {
        Shard {
            counters: (0..MAX_COUNTERS).map(|_| AtomicU64::new(0)).collect(),
            gauges: (0..MAX_GAUGES).map(|_| AtomicU64::new(0)).collect(),
            hists: (0..MAX_HISTOGRAMS * (HIST_BUCKETS + 1))
                .map(|_| AtomicU64::new(0))
                .collect(),
        }
    }
}

/// Name table: registration-time state, cold path only.
#[derive(Default)]
struct Names {
    counters: Vec<String>,
    gauges: Vec<String>,
    histograms: Vec<String>,
    by_name: HashMap<(String, Kind), u16>,
}

#[derive(Clone, Copy, PartialEq, Eq, Hash)]
enum Kind {
    Counter,
    Gauge,
    Histogram,
}

struct Global {
    names: Mutex<Names>,
    shards: Mutex<Vec<Arc<Shard>>>,
}

fn global() -> &'static Global {
    static G: OnceLock<Global> = OnceLock::new();
    G.get_or_init(|| Global {
        names: Mutex::new(Names::default()),
        shards: Mutex::new(Vec::new()),
    })
}

thread_local! {
    static SHARD: std::cell::OnceCell<Arc<Shard>> = const { std::cell::OnceCell::new() };
}

/// Runs `f` against this thread's shard, creating and globally
/// registering the shard on first use.
#[inline]
fn with_shard<R>(f: impl FnOnce(&Shard) -> R) -> R {
    SHARD.with(|cell| {
        let shard = cell.get_or_init(|| {
            let shard = Arc::new(Shard::new());
            global()
                .shards
                .lock()
                .expect("shard list")
                .push(Arc::clone(&shard));
            shard
        });
        f(shard)
    })
}

fn register(name: &str, kind: Kind) -> u16 {
    let mut names = global().names.lock().expect("name table");
    if let Some(&id) = names.by_name.get(&(name.to_string(), kind)) {
        return id;
    }
    let (list, cap) = match kind {
        Kind::Counter => (&mut names.counters, MAX_COUNTERS),
        Kind::Gauge => (&mut names.gauges, MAX_GAUGES),
        Kind::Histogram => (&mut names.histograms, MAX_HISTOGRAMS),
    };
    assert!(
        list.len() < cap,
        "telemetry registry full for this metric kind ({cap} max): {name}"
    );
    let id = list.len() as u16;
    list.push(name.to_string());
    names.by_name.insert((name.to_string(), kind), id);
    id
}

/// A monotonically increasing count. Copyable handle; merge = sum.
#[derive(Debug, Clone, Copy)]
pub struct Counter(u16);

/// A last-written value. Copyable handle; merge = max (the only
/// commutative choice without timestamps — document gauges accordingly).
#[derive(Debug, Clone, Copy)]
pub struct Gauge(u16);

/// A fixed-bucket log2 histogram of `u64` samples. Copyable handle;
/// merge = per-bucket sum.
#[derive(Debug, Clone, Copy)]
pub struct Histogram(u16);

/// Registers (or looks up) a counter by name. Idempotent.
pub fn counter(name: &str) -> Counter {
    Counter(register(name, Kind::Counter))
}

/// Registers a counter from an owned name (for per-worker metric
/// families such as `physics.executor.worker3.busy_ns`). Idempotent.
pub fn counter_named(name: String) -> Counter {
    Counter(register(&name, Kind::Counter))
}

/// Registers (or looks up) a gauge by name. Idempotent.
pub fn gauge(name: &str) -> Gauge {
    Gauge(register(name, Kind::Gauge))
}

/// Registers (or looks up) a histogram by name. Idempotent.
pub fn histogram(name: &str) -> Histogram {
    Histogram(register(name, Kind::Histogram))
}

impl Counter {
    /// Adds `n`. Lock-free, allocation-free; no-op while disabled.
    #[inline]
    pub fn add(self, n: u64) {
        if !crate::enabled() {
            return;
        }
        with_shard(|s| s.counters[self.0 as usize].fetch_add(n, Ordering::Relaxed));
    }
}

impl Gauge {
    /// Stores `v` as the gauge's current value on this thread. No-op
    /// while disabled.
    #[inline]
    pub fn set(self, v: u64) {
        if !crate::enabled() {
            return;
        }
        with_shard(|s| s.gauges[self.0 as usize].store(v, Ordering::Relaxed));
    }

    /// Stores `v` regardless of the enabled flag. For bookkeeping values
    /// that must survive a disabled window (the dropped-span count is
    /// mirrored at drain time, which often happens after recording has
    /// been switched off). Still removed by the `off` feature.
    #[inline]
    pub fn set_always(self, v: u64) {
        #[cfg(feature = "off")]
        {
            let _ = v;
        }
        #[cfg(not(feature = "off"))]
        {
            with_shard(|s| s.gauges[self.0 as usize].store(v, Ordering::Relaxed));
        }
    }
}

/// Bucket index of a sample: 0 for 0, else `floor(log2 v) + 1`, clamped
/// to the last bucket.
#[inline]
pub fn bucket_of(v: u64) -> usize {
    if v == 0 {
        0
    } else {
        ((64 - v.leading_zeros()) as usize).min(HIST_BUCKETS - 1)
    }
}

/// Inclusive `[lo, hi]` range of values a bucket covers.
pub fn bucket_bounds(b: usize) -> (u64, u64) {
    match b {
        0 => (0, 0),
        _ if b < HIST_BUCKETS - 1 => (1u64 << (b - 1), (1u64 << b) - 1),
        _ => (1u64 << (HIST_BUCKETS - 2), u64::MAX),
    }
}

impl Histogram {
    /// Records one sample. Lock-free, allocation-free; no-op while
    /// disabled.
    #[inline]
    pub fn record(self, v: u64) {
        self.record_n(v, 1);
    }

    /// Records the sample `v` `n` times over, exactly as `n` calls to
    /// [`Histogram::record`] would. Lock-free, allocation-free; no-op
    /// while disabled.
    #[inline]
    pub fn record_n(self, v: u64, n: u64) {
        if !crate::enabled() {
            return;
        }
        with_shard(|s| {
            let base = self.0 as usize * (HIST_BUCKETS + 1);
            s.hists[base + bucket_of(v)].fetch_add(n, Ordering::Relaxed);
            s.hists[base + HIST_BUCKETS].fetch_add(v.wrapping_mul(n), Ordering::Relaxed);
        });
    }
}

/// Merged view of one histogram.
#[derive(Debug, Clone, PartialEq, Eq, Default)]
pub struct HistogramSnapshot {
    /// Per-bucket sample counts (see [`bucket_bounds`]).
    pub buckets: Vec<u64>,
    /// Sum of all recorded samples.
    pub sum: u64,
}

/// The quantiles the report tables and the `/metrics` summary series
/// both render, `(q, label)` pairs — one shared spelling so a value in a
/// `telemetry_report` table and the `<name>_p99` series scraped from the
/// exporter come from the same CDF walk.
pub const SUMMARY_QUANTILES: [(f64, &str); 3] = [(0.50, "p50"), (0.95, "p95"), (0.99, "p99")];

impl HistogramSnapshot {
    /// Total samples recorded.
    pub fn count(&self) -> u64 {
        self.buckets.iter().sum()
    }

    /// The [`SUMMARY_QUANTILES`] upper bounds of this histogram, in
    /// order (all zero when empty).
    pub fn summary_quantiles(&self) -> [u64; SUMMARY_QUANTILES.len()] {
        SUMMARY_QUANTILES.map(|(q, _)| self.quantile_upper_bound(q).unwrap_or(0))
    }

    /// Mean sample value (0 when empty).
    pub fn mean(&self) -> f64 {
        let n = self.count();
        if n == 0 {
            0.0
        } else {
            self.sum as f64 / n as f64
        }
    }

    /// Upper bound of the bucket containing the `q`-quantile sample
    /// (`q` in `[0, 1]`); `None` when empty.
    pub fn quantile_upper_bound(&self, q: f64) -> Option<u64> {
        let n = self.count();
        if n == 0 {
            return None;
        }
        let target = ((q.clamp(0.0, 1.0) * n as f64).ceil() as u64).max(1);
        let mut seen = 0;
        for (b, &c) in self.buckets.iter().enumerate() {
            seen += c;
            if seen >= target {
                return Some(bucket_bounds(b).1);
            }
        }
        Some(bucket_bounds(self.buckets.len().saturating_sub(1)).1)
    }

    fn merge(&self, other: &HistogramSnapshot) -> HistogramSnapshot {
        let len = self.buckets.len().max(other.buckets.len());
        let get = |v: &[u64], i: usize| v.get(i).copied().unwrap_or(0);
        HistogramSnapshot {
            buckets: (0..len)
                .map(|i| get(&self.buckets, i) + get(&other.buckets, i))
                .collect(),
            sum: self.sum + other.sum,
        }
    }

    fn delta_since(&self, earlier: &HistogramSnapshot) -> HistogramSnapshot {
        let get = |v: &[u64], i: usize| v.get(i).copied().unwrap_or(0);
        HistogramSnapshot {
            buckets: (0..self.buckets.len())
                .map(|i| get(&self.buckets, i).saturating_sub(get(&earlier.buckets, i)))
                .collect(),
            sum: self.sum.saturating_sub(earlier.sum),
        }
    }

    fn is_empty(&self) -> bool {
        self.buckets.iter().all(|&b| b == 0)
    }
}

/// A merged, point-in-time view of every metric.
///
/// Merging ([`Snapshot::merge`]) is associative and commutative:
/// counters and histogram buckets add, gauges take the max.
/// [`Snapshot::delta_since`] recovers a per-interval view from two
/// cumulative snapshots.
#[derive(Debug, Clone, PartialEq, Default)]
pub struct Snapshot {
    /// Counter totals by name (zero-valued counters are omitted).
    pub counters: Vec<(String, u64)>,
    /// Gauge values by name (zero-valued gauges are omitted).
    pub gauges: Vec<(String, u64)>,
    /// Histograms by name (empty histograms are omitted).
    pub histograms: Vec<(String, HistogramSnapshot)>,
}

impl Snapshot {
    /// Value of a counter (0 when absent).
    pub fn counter(&self, name: &str) -> u64 {
        lookup(&self.counters, name).copied().unwrap_or(0)
    }

    /// Value of a gauge (0 when absent).
    pub fn gauge(&self, name: &str) -> u64 {
        lookup(&self.gauges, name).copied().unwrap_or(0)
    }

    /// A histogram's merged view, if it recorded anything.
    pub fn histogram(&self, name: &str) -> Option<&HistogramSnapshot> {
        lookup(&self.histograms, name)
    }

    /// Counters whose name starts with `prefix`, in name order.
    pub fn counters_with_prefix<'a>(
        &'a self,
        prefix: &'a str,
    ) -> impl Iterator<Item = (&'a str, u64)> + 'a {
        self.counters
            .iter()
            .filter(move |(n, _)| n.starts_with(prefix))
            .map(|(n, v)| (n.as_str(), *v))
    }

    /// Associative + commutative merge: counters and histogram buckets
    /// add, gauges take the max.
    pub fn merge(&self, other: &Snapshot) -> Snapshot {
        Snapshot {
            counters: merge_by_name(&self.counters, &other.counters, |a, b| a + b),
            gauges: merge_by_name(&self.gauges, &other.gauges, |a, b| a.max(b)),
            histograms: merge_by_name(&self.histograms, &other.histograms, |a, b| a.merge(&b)),
        }
    }

    /// Per-interval view: this snapshot minus an `earlier` cumulative
    /// one (counters and histograms subtract; gauges keep the newer
    /// value).
    pub fn delta_since(&self, earlier: &Snapshot) -> Snapshot {
        let counters = self
            .counters
            .iter()
            .map(|(n, v)| (n.clone(), v.saturating_sub(earlier.counter(n))))
            .filter(|(_, v)| *v > 0)
            .collect();
        let histograms = self
            .histograms
            .iter()
            .map(|(n, h)| {
                let d = match lookup(&earlier.histograms, n) {
                    Some(e) => h.delta_since(e),
                    None => h.clone(),
                };
                (n.clone(), d)
            })
            .filter(|(_, h): &(String, HistogramSnapshot)| !h.is_empty())
            .collect();
        Snapshot {
            counters,
            gauges: self.gauges.clone(),
            histograms,
        }
    }
}

fn lookup<'a, T>(list: &'a [(String, T)], name: &str) -> Option<&'a T> {
    list.iter().find(|(n, _)| n == name).map(|(_, v)| v)
}

fn merge_by_name<T: Clone + Default>(
    a: &[(String, T)],
    b: &[(String, T)],
    f: impl Fn(T, T) -> T,
) -> Vec<(String, T)> {
    let mut out: Vec<(String, T)> = a.to_vec();
    for (name, v) in b {
        match out.iter_mut().find(|(n, _)| n == name) {
            Some((_, existing)) => *existing = f(existing.clone(), v.clone()),
            None => out.push((name.clone(), v.clone())),
        }
    }
    out.sort_by(|(x, _), (y, _)| x.cmp(y));
    out
}

/// Merges every thread's shard into one [`Snapshot`]. Sorted by name so
/// output (and JSON) is deterministic.
pub fn snapshot() -> Snapshot {
    let names = global().names.lock().expect("name table");
    let shards = global().shards.lock().expect("shard list");
    let mut counters = vec![0u64; names.counters.len()];
    let mut gauges = vec![0u64; names.gauges.len()];
    let mut hists = vec![(vec![0u64; HIST_BUCKETS], 0u64); names.histograms.len()];
    for shard in shards.iter() {
        for (i, c) in counters.iter_mut().enumerate() {
            *c += shard.counters[i].load(Ordering::Relaxed);
        }
        for (i, g) in gauges.iter_mut().enumerate() {
            *g = (*g).max(shard.gauges[i].load(Ordering::Relaxed));
        }
        for (i, (buckets, sum)) in hists.iter_mut().enumerate() {
            let base = i * (HIST_BUCKETS + 1);
            for (b, slot) in buckets.iter_mut().enumerate() {
                *slot += shard.hists[base + b].load(Ordering::Relaxed);
            }
            *sum += shard.hists[base + HIST_BUCKETS].load(Ordering::Relaxed);
        }
    }
    let mut snap = Snapshot {
        counters: names
            .counters
            .iter()
            .zip(&counters)
            .filter(|(_, &v)| v > 0)
            .map(|(n, &v)| (n.clone(), v))
            .collect(),
        gauges: names
            .gauges
            .iter()
            .zip(&gauges)
            .filter(|(_, &v)| v > 0)
            .map(|(n, &v)| (n.clone(), v))
            .collect(),
        histograms: names
            .histograms
            .iter()
            .zip(hists)
            .map(|(n, (buckets, sum))| (n.clone(), HistogramSnapshot { buckets, sum }))
            .filter(|(_, h)| !h.is_empty())
            .collect(),
    };
    snap.counters.sort_by(|(a, _), (b, _)| a.cmp(b));
    snap.gauges.sort_by(|(a, _), (b, _)| a.cmp(b));
    snap.histograms.sort_by(|(a, _), (b, _)| a.cmp(b));
    snap
}

/// Zeroes every metric slot in every shard (test/bench aid; racy with
/// concurrent recording, which only loses in-flight increments).
pub fn reset() {
    let shards = global().shards.lock().expect("shard list");
    for shard in shards.iter() {
        for c in &shard.counters {
            c.store(0, Ordering::Relaxed);
        }
        for g in &shard.gauges {
            g.store(0, Ordering::Relaxed);
        }
        for h in &shard.hists {
            h.store(0, Ordering::Relaxed);
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn bucket_boundaries_are_powers_of_two() {
        assert_eq!(bucket_of(0), 0);
        assert_eq!(bucket_of(1), 1);
        assert_eq!(bucket_of(2), 2);
        assert_eq!(bucket_of(3), 2);
        assert_eq!(bucket_of(4), 3);
        assert_eq!(bucket_of(255), 8);
        assert_eq!(bucket_of(256), 9);
        assert_eq!(bucket_of(u64::MAX), HIST_BUCKETS - 1);
        for b in 0..HIST_BUCKETS {
            let (lo, hi) = bucket_bounds(b);
            assert!(lo <= hi, "bucket {b}");
            assert_eq!(bucket_of(lo), b, "lower bound of bucket {b}");
            if b < HIST_BUCKETS - 1 {
                assert_eq!(bucket_of(hi), b, "upper bound of bucket {b}");
                assert_eq!(bucket_bounds(b + 1).0, hi + 1, "buckets must tile");
            }
        }
    }

    #[test]
    fn registration_is_idempotent() {
        let a = counter("reg.same");
        let b = counter("reg.same");
        assert_eq!(a.0, b.0);
        let g = gauge("reg.same"); // same name, different kind: distinct id space
        let g2 = gauge("reg.same");
        assert_eq!(g.0, g2.0);
    }

    #[test]
    fn quantiles_and_mean() {
        let h = HistogramSnapshot {
            buckets: {
                let mut b = vec![0u64; HIST_BUCKETS];
                b[bucket_of(1)] += 50;
                b[bucket_of(1000)] += 50;
                b
            },
            sum: 50 + 50 * 1000,
        };
        assert_eq!(h.count(), 100);
        assert!((h.mean() - 500.5).abs() < 1e-9);
        assert_eq!(h.quantile_upper_bound(0.25), Some(1));
        assert_eq!(
            h.quantile_upper_bound(0.99),
            Some(bucket_bounds(bucket_of(1000)).1)
        );
        assert_eq!(HistogramSnapshot::default().quantile_upper_bound(0.5), None);
    }

    #[test]
    fn delta_since_recovers_interval() {
        let early = Snapshot {
            counters: vec![("a".into(), 10), ("b".into(), 5)],
            gauges: vec![("g".into(), 7)],
            histograms: vec![],
        };
        let late = Snapshot {
            counters: vec![("a".into(), 25), ("b".into(), 5), ("c".into(), 1)],
            gauges: vec![("g".into(), 3)],
            histograms: vec![],
        };
        let d = late.delta_since(&early);
        assert_eq!(d.counter("a"), 15);
        assert_eq!(d.counter("b"), 0);
        assert_eq!(d.counter("c"), 1);
        assert_eq!(d.gauge("g"), 3, "delta keeps the newer gauge value");
    }

    #[cfg(not(feature = "off"))]
    #[test]
    fn cross_thread_recording_merges() {
        let _guard = crate::test_guard();
        let c = counter("reg.cross_thread");
        crate::set_enabled(true);
        let threads: Vec<_> = (0..4)
            .map(|_| {
                std::thread::spawn(move || {
                    for _ in 0..1000 {
                        c.add(1);
                    }
                })
            })
            .collect();
        for t in threads {
            t.join().unwrap();
        }
        crate::set_enabled(false);
        assert_eq!(snapshot().counter("reg.cross_thread"), 4000);
    }

    #[cfg(not(feature = "off"))]
    #[test]
    fn record_n_is_n_records() {
        let _guard = crate::test_guard();
        let (one, bulk) = (histogram("reg.record_one"), histogram("reg.record_n"));
        crate::set_enabled(true);
        for v in [0, 3, 1000] {
            for _ in 0..7 {
                one.record(v);
            }
            bulk.record_n(v, 7);
        }
        crate::set_enabled(false);
        let snap = snapshot();
        assert_eq!(
            snap.histogram("reg.record_one"),
            snap.histogram("reg.record_n")
        );
    }
}
