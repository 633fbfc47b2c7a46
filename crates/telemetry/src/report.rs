//! Rendering snapshot files into the paper's per-phase breakdown form.
//!
//! Consumed by the `telemetry_report` binary in `parallax-bench` and by
//! the tier-1 smoke test: [`phase_breakdown`] reproduces the shape of
//! the paper's Figure 2(a) (per-phase time and share of the step), and
//! [`worker_utilization`] reproduces the executor-side load-imbalance
//! view the span tracks carry.

use std::collections::BTreeMap;

use crate::export::StepRecord;

/// Per-phase aggregate over a set of step records.
#[derive(Debug, Clone, PartialEq)]
pub struct PhaseRow {
    /// Phase name as recorded (pipeline order preserved).
    pub phase: String,
    /// Mean nanoseconds per step.
    pub mean_ns: f64,
    /// Share of the summed per-phase time, in `[0, 1]`.
    pub share: f64,
}

/// Aggregates `wall_ns` across records (first occurrence order is kept,
/// which is pipeline order for records written by the step pipeline).
pub fn phase_breakdown(records: &[StepRecord]) -> Vec<PhaseRow> {
    let mut order: Vec<String> = Vec::new();
    let mut total_ns: BTreeMap<String, u64> = BTreeMap::new();
    let mut steps = 0u64;
    for r in records {
        if r.wall_ns.is_empty() {
            continue;
        }
        steps += 1;
        for (phase, ns) in &r.wall_ns {
            if !order.contains(phase) {
                order.push(phase.clone());
            }
            *total_ns.entry(phase.clone()).or_insert(0) += ns;
        }
    }
    if steps == 0 {
        return Vec::new();
    }
    let grand: u64 = total_ns.values().sum();
    order
        .into_iter()
        .map(|phase| {
            let t = total_ns[&phase];
            PhaseRow {
                phase,
                mean_ns: t as f64 / steps as f64,
                share: if grand == 0 {
                    0.0
                } else {
                    t as f64 / grand as f64
                },
            }
        })
        .collect()
}

/// Per-track (executor worker) span totals.
#[derive(Debug, Clone, PartialEq)]
pub struct WorkerRow {
    /// Span track (0 = calling thread, `i` = worker `i`).
    pub track: u32,
    /// Total busy nanoseconds (sum of span durations on the track).
    pub busy_ns: u64,
    /// Spans recorded on the track.
    pub spans: usize,
}

/// Sums span time per track across records, plus the imbalance ratio
/// (max busy / mean busy over the *worker* tracks; 1.0 = perfectly
/// balanced, meaningless when fewer than two tracks carried work).
pub fn worker_utilization(records: &[StepRecord]) -> (Vec<WorkerRow>, f64) {
    let mut per: BTreeMap<u32, (u64, usize)> = BTreeMap::new();
    for r in records {
        for s in &r.spans {
            let e = per.entry(s.track).or_insert((0, 0));
            e.0 += s.dur_ns;
            e.1 += 1;
        }
    }
    let rows: Vec<WorkerRow> = per
        .into_iter()
        .map(|(track, (busy_ns, spans))| WorkerRow {
            track,
            busy_ns,
            spans,
        })
        .collect();
    let workers: Vec<u64> = rows
        .iter()
        .filter(|r| r.track > 0)
        .map(|r| r.busy_ns)
        .collect();
    let imbalance = if workers.len() >= 2 && workers.iter().sum::<u64>() > 0 {
        let max = *workers.iter().max().expect("nonempty") as f64;
        let mean = workers.iter().sum::<u64>() as f64 / workers.len() as f64;
        max / mean
    } else {
        1.0
    };
    (rows, imbalance)
}

/// Counter-name prefix the physics invariant monitors record
/// violations under (see `parallax_physics::monitor`).
pub const VIOLATION_PREFIX: &str = "physics.monitor.violation.";

/// Counter the invariant monitor bumps once per checked step; zero means
/// no monitor ran (so "no violations" is vacuous).
pub const CHECKED_STEPS_COUNTER: &str = "physics.monitor.checked_steps";

/// Gauge name carrying the cumulative dropped-span count of the
/// recording process (set by the bench sink before each snapshot).
pub const SPANS_DROPPED_GAUGE: &str = "telemetry.spans_dropped";

/// Gauge: bodies asleep at the end of a step (see the physics pipeline).
pub const SLEEPING_BODIES_GAUGE: &str = "physics.sleeping_bodies";

/// Gauge: sleeping islands at the end of a step.
pub const SLEEPING_ISLANDS_GAUGE: &str = "physics.sleeping_islands";

/// Counter: island-graph components actually rebuilt by the incremental
/// builder (the from-scratch cost this PR's fast path avoids).
pub const ISLANDS_REBUILT_COUNTER: &str = "physics.islands_rebuilt";

/// Gauge: fat-overlapping pairs the persistent broad phase holds at the
/// end of a step.
pub const BROADPHASE_FAT_PAIRS_GAUGE: &str = "physics.broadphase.fat_pairs";

/// Counter: broad-phase proxies inserted or re-inserted (the churn the
/// persistent grid pays for; a settled scene adds none).
pub const BROADPHASE_REINSERTS_COUNTER: &str = "physics.broadphase.reinserts";

/// Counter: broad-phase proxies whose tight box changed, bit for bit.
pub const BROADPHASE_MOVED_COUNTER: &str = "physics.broadphase.moved";

/// Counter: tight tests the persistent grid actually ran (the rest of its
/// fat pairs reused their last result).
pub const BROADPHASE_TIGHT_TESTS_COUNTER: &str = "physics.broadphase.tight_tests";

/// Counters: the broad-phase wall split into the AABB refresh and the
/// grid, nanoseconds summed over full steps.
pub const BROADPHASE_REFRESH_NS_COUNTER: &str = "physics.broadphase.refresh_ns";
/// See [`BROADPHASE_REFRESH_NS_COUNTER`].
pub const BROADPHASE_GRID_NS_COUNTER: &str = "physics.broadphase.grid_ns";

/// Histogram: constraint rows per solved island (its sum is the rows
/// the solver scheduled).
pub const SOLVER_ROWS_HISTOGRAM: &str = "physics.solver_rows_per_island";

/// Counter: conflict-free batches over all island solve schedules.
pub const SOLVER_BATCHES_COUNTER: &str = "physics.solver.batches";

/// Counter: rows per sweep the packed four-row kernel projected.
pub const SOLVER_PACKED_ROWS_COUNTER: &str = "physics.solver.packed_rows";
/// Counters of what the narrow phase was given and made of it: candidate
/// pairs from the broad phase, pairs collided, pairs that touched,
/// contact points generated.
pub const NARROWPHASE_CANDIDATES_COUNTER: &str = "physics.narrowphase.candidates";
/// See [`NARROWPHASE_CANDIDATES_COUNTER`].
pub const NARROWPHASE_ACTIVE_COUNTER: &str = "physics.narrowphase.active";
/// See [`NARROWPHASE_CANDIDATES_COUNTER`].
pub const NARROWPHASE_HITS_COUNTER: &str = "physics.narrowphase.hits";
/// See [`NARROWPHASE_CANDIDATES_COUNTER`].
pub const NARROWPHASE_CONTACTS_COUNTER: &str = "physics.narrowphase.contacts";

/// Prefix of the gauges of the heap bytes a world retains, by component,
/// which a recorder publishes before it takes a step's record
/// (`physics.heap_bytes.bodies`, ...). Two more share it:
/// [`HEAP_TOTAL_GAUGE`] and [`HEAP_THREAD_SCRATCH_GAUGE`], which every
/// full step publishes.
pub const HEAP_BYTES_PREFIX: &str = "physics.heap_bytes.";
/// Gauge: the sum of a world's heap components.
pub const HEAP_TOTAL_GAUGE: &str = "physics.heap_bytes.total";
/// Gauge: the heap bytes the stepping thread keeps as step scratch.
pub const HEAP_THREAD_SCRATCH_GAUGE: &str = "physics.heap_bytes.thread_scratch";

/// The heap gauges of one record.
#[derive(Debug, PartialEq, Eq)]
pub struct HeapGauges<'a> {
    /// The world's components (name after [`HEAP_BYTES_PREFIX`], bytes),
    /// in name order; zero-valued ones are absent.
    pub components: Vec<(&'a str, u64)>,
    /// [`HEAP_TOTAL_GAUGE`].
    pub total: u64,
    /// [`HEAP_THREAD_SCRATCH_GAUGE`].
    pub thread_scratch: u64,
}

/// The heap gauges of a record, or `None` when it carries no total.
pub fn heap_bytes(record: &StepRecord) -> Option<HeapGauges<'_>> {
    let metrics = &record.metrics;
    let total = metrics.gauge(HEAP_TOTAL_GAUGE);
    if total == 0 {
        return None;
    }
    let components = (metrics.gauges.iter())
        .filter(|(name, _)| name != HEAP_TOTAL_GAUGE && name != HEAP_THREAD_SCRATCH_GAUGE)
        .filter_map(|(name, v)| Some((name.strip_prefix(HEAP_BYTES_PREFIX)?, *v)))
        .collect();
    Some(HeapGauges {
        components,
        total,
        thread_scratch: metrics.gauge(HEAP_THREAD_SCRATCH_GAUGE),
    })
}

/// Counters of the cloth collision pass: vertex-collider tests (skipped
/// ones included), ray casts run, ray casts skipped and projections
/// skipped because a bound proved the exact routine would miss.
pub const CLOTH_TESTS_COUNTER: &str = "physics.cloth.collision_tests";
/// See [`CLOTH_TESTS_COUNTER`].
pub const CLOTH_CCD_CASTS_COUNTER: &str = "physics.cloth.ccd_casts";
/// See [`CLOTH_TESTS_COUNTER`].
pub const CLOTH_CCD_CULLED_COUNTER: &str = "physics.cloth.ccd_culled";
/// See [`CLOTH_TESTS_COUNTER`].
pub const CLOTH_PROJECT_OUT_CULLED_COUNTER: &str = "physics.cloth.project_out_culled";

/// Largest `telemetry.spans_dropped` gauge value across records: the
/// cumulative number of spans the recording process lost to full ring
/// buffers (0 when the gauge was never set — nothing was dropped).
pub fn spans_dropped(records: &[StepRecord]) -> u64 {
    records
        .iter()
        .map(|r| r.metrics.gauge(SPANS_DROPPED_GAUGE))
        .max()
        .unwrap_or(0)
}

/// Formats nanoseconds for the report tables.
pub fn fmt_ns(ns: f64) -> String {
    if ns >= 1e9 {
        format!("{:.3} s", ns / 1e9)
    } else if ns >= 1e6 {
        format!("{:.3} ms", ns / 1e6)
    } else if ns >= 1e3 {
        format!("{:.2} us", ns / 1e3)
    } else {
        format!("{ns:.0} ns")
    }
}

/// Renders the full report (per-phase table, counters, histograms,
/// worker utilization) as plain text.
pub fn render(records: &[StepRecord]) -> String {
    use std::fmt::Write as _;

    let mut out = String::new();
    let physics: Vec<StepRecord> = records
        .iter()
        .filter(|r| r.source != "archsim")
        .cloned()
        .collect();
    let _ = writeln!(out, "telemetry report — {} record(s)", records.len());

    let rows = phase_breakdown(if physics.is_empty() {
        records
    } else {
        &physics
    });
    if !rows.is_empty() {
        let total: f64 = rows.iter().map(|r| r.mean_ns).sum();
        let _ = writeln!(out, "\nPer-phase breakdown (mean per step):");
        let _ = writeln!(out, "  {:<18} {:>12} {:>7}", "Phase", "Time", "Share");
        for r in &rows {
            let _ = writeln!(
                out,
                "  {:<18} {:>12} {:>6.1}%",
                r.phase,
                fmt_ns(r.mean_ns),
                r.share * 100.0
            );
        }
        let _ = writeln!(
            out,
            "  {:<18} {:>12} {:>6.1}%",
            "total",
            fmt_ns(total),
            100.0
        );
    }

    // Merge all per-step metric deltas for the summary.
    let merged = records
        .iter()
        .fold(crate::Snapshot::default(), |acc, r| acc.merge(&r.metrics));
    if !merged.counters.is_empty() {
        let _ = writeln!(out, "\nCounters (summed over steps):");
        for (name, v) in &merged.counters {
            let _ = writeln!(out, "  {name:<42} {v:>14}");
        }
    }
    if !merged.histograms.is_empty() {
        let _ = writeln!(out, "\nHistograms:");
        let _ = write!(out, "  {:<34} {:>10} {:>12}", "Name", "Count", "Mean");
        for (_, label) in crate::registry::SUMMARY_QUANTILES {
            let _ = write!(out, " {:>10}", format!("{label}<="));
        }
        let _ = writeln!(out);
        for (name, h) in &merged.histograms {
            let _ = write!(out, "  {:<34} {:>10} {:>12.1}", name, h.count(), h.mean());
            for bound in h.summary_quantiles() {
                let _ = write!(out, " {bound:>10}");
            }
            let _ = writeln!(out);
        }
    }

    // Invariant-monitor verdict: only rendered when a monitor ran
    // (its check counter is nonzero in the merged deltas).
    let checks = merged.counter(CHECKED_STEPS_COUNTER);
    let violations: Vec<(&String, &u64)> = merged
        .counters
        .iter()
        .filter(|(n, _)| n.starts_with(VIOLATION_PREFIX))
        .map(|(n, v)| (n, v))
        .collect();
    if checks > 0 || !violations.is_empty() {
        let _ = writeln!(out, "\nInvariant violations ({checks} step(s) checked):");
        if violations.is_empty() {
            let _ = writeln!(out, "  none");
        }
        for (name, v) in &violations {
            let kind = name.strip_prefix(VIOLATION_PREFIX).unwrap_or(name);
            let _ = writeln!(out, "  {kind:<20} {v:>10}");
        }
    }

    // Island sleeping: the gauges are per-step *levels*, so summing them
    // is meaningless — report the final and peak levels instead, plus the
    // total incremental rebuild work.
    let peak = |name: &str| records.iter().map(|r| r.metrics.gauge(name)).max();
    let last = |name: &str| records.last().map(|r| r.metrics.gauge(name));
    let peak_bodies = peak(SLEEPING_BODIES_GAUGE).unwrap_or(0);
    let rebuilt = merged.counter(ISLANDS_REBUILT_COUNTER);
    if peak_bodies > 0 || rebuilt > 0 {
        let _ = writeln!(out, "\nIsland sleeping:");
        let _ = writeln!(
            out,
            "  {:<20} final {:>8}, peak {:>8}",
            "sleeping bodies",
            last(SLEEPING_BODIES_GAUGE).unwrap_or(0),
            peak_bodies
        );
        let _ = writeln!(
            out,
            "  {:<20} final {:>8}, peak {:>8}",
            "sleeping islands",
            last(SLEEPING_ISLANDS_GAUGE).unwrap_or(0),
            peak(SLEEPING_ISLANDS_GAUGE).unwrap_or(0)
        );
        let _ = writeln!(
            out,
            "  {:<20} {rebuilt} component(s) over all steps",
            "incremental rebuilds"
        );
    }

    // Persistent broad phase: a level and its churn, like the above.
    let peak_fat = peak(BROADPHASE_FAT_PAIRS_GAUGE).unwrap_or(0);
    let reinserts = merged.counter(BROADPHASE_REINSERTS_COUNTER);
    if peak_fat > 0 || reinserts > 0 {
        let _ = writeln!(out, "\nPersistent broad phase:");
        let _ = writeln!(
            out,
            "  {:<20} final {:>8}, peak {:>8}",
            "fat pairs",
            last(BROADPHASE_FAT_PAIRS_GAUGE).unwrap_or(0),
            peak_fat
        );
        let _ = writeln!(
            out,
            "  {:<20} {reinserts} proxy(ies) over all steps",
            "re-inserts"
        );
        let _ = writeln!(
            out,
            "  {:<20} {} proxy(ies) over all steps",
            "moved",
            merged.counter(BROADPHASE_MOVED_COUNTER)
        );
        let _ = writeln!(
            out,
            "  {:<20} {} run over all steps",
            "tight tests",
            merged.counter(BROADPHASE_TIGHT_TESTS_COUNTER)
        );
        let refresh = merged.counter(BROADPHASE_REFRESH_NS_COUNTER);
        let grid = merged.counter(BROADPHASE_GRID_NS_COUNTER);
        let steps = records.iter().filter(|r| !r.wall_ns.is_empty()).count() as u64;
        if refresh + grid > 0 && steps > 0 {
            let _ = writeln!(
                out,
                "  {:<20} refresh {} + grid {} per step",
                "wall",
                fmt_ns(refresh as f64 / steps as f64),
                fmt_ns(grid as f64 / steps as f64)
            );
        }
    }

    // What the narrow phase was given: most candidates are only
    // classified, and only the hits reach the solver.
    let candidates = merged.counter(NARROWPHASE_CANDIDATES_COUNTER);
    if candidates > 0 {
        let active = merged.counter(NARROWPHASE_ACTIVE_COUNTER);
        let hits = merged.counter(NARROWPHASE_HITS_COUNTER);
        let contacts = merged.counter(NARROWPHASE_CONTACTS_COUNTER);
        let _ = writeln!(
            out,
            "\nNarrow phase: {candidates} candidate(s), {:.1}% active, {:.1}% of active hit, \
             {:.2} contacts/hit",
            100.0 * active as f64 / candidates as f64,
            100.0 * hits as f64 / active.max(1) as f64,
            contacts as f64 / hits.max(1) as f64
        );
    }

    // Cloth collision: how many vertex-collider tests a bound settled
    // without running the exact ray cast or projection.
    let tests = merged.counter(CLOTH_TESTS_COUNTER);
    if tests > 0 {
        let casts = merged.counter(CLOTH_CCD_CASTS_COUNTER);
        let casts_culled = merged.counter(CLOTH_CCD_CULLED_COUNTER);
        let projections = tests.saturating_sub(casts + casts_culled);
        let projections_culled = merged.counter(CLOTH_PROJECT_OUT_CULLED_COUNTER);
        let _ = writeln!(
            out,
            "\nCloth collision: {tests} test(s); {} ray cast(s), {:.1}% culled; \
             {projections} projection(s), {:.1}% culled",
            casts + casts_culled,
            100.0 * casts_culled as f64 / (casts + casts_culled).max(1) as f64,
            100.0 * projections_culled as f64 / projections.max(1) as f64
        );
    }

    // Solver schedule quality: how short the conflict-free batches are,
    // and how many rows filled whole four-row chunks of them.
    let batches = merged.counter(SOLVER_BATCHES_COUNTER);
    if batches > 0 {
        let rows = merged.histogram(SOLVER_ROWS_HISTOGRAM).map_or(0, |h| h.sum);
        let packed = merged.counter(SOLVER_PACKED_ROWS_COUNTER);
        let _ = writeln!(
            out,
            "\nSolver schedule: {rows} row(s) in {batches} batch(es), {:.2} rows/batch, \
             {:.1}% packed four-wide",
            rows as f64 / batches as f64,
            100.0 * packed as f64 / rows.max(1) as f64
        );
    }

    // Heap: a level, so the last record's.
    if let Some(heap) = records.iter().rev().find_map(heap_bytes) {
        let kib = |b: u64| b as f64 / 1024.0;
        let _ = writeln!(out, "\nHeap retained by the world (last step, KiB):");
        for (name, bytes) in heap.components {
            let _ = writeln!(out, "  {name:<20} {:>10.1}", kib(bytes));
        }
        let _ = writeln!(out, "  {:<20} {:>10.1}", "total", kib(heap.total));
        let _ = writeln!(
            out,
            "  {:<20} {:>10.1}  (the stepping thread's, beside the world)",
            "thread scratch",
            kib(heap.thread_scratch)
        );
    }

    let dropped = spans_dropped(records);
    if dropped > 0 {
        let _ = writeln!(
            out,
            "\nspans dropped: {dropped} (ring buffers overflowed; trace is incomplete)"
        );
    }

    let (workers, imbalance) = worker_utilization(records);
    if !workers.is_empty() {
        let _ = writeln!(out, "\nSpan tracks (executor workers):");
        let _ = writeln!(out, "  {:<10} {:>12} {:>8}", "Track", "Busy", "Spans");
        for w in &workers {
            let label = if w.track == 0 {
                "main".to_string()
            } else {
                format!("worker-{}", w.track)
            };
            let _ = writeln!(
                out,
                "  {:<10} {:>12} {:>8}",
                label,
                fmt_ns(w.busy_ns as f64),
                w.spans
            );
        }
        let _ = writeln!(out, "  imbalance (max/mean worker busy): {imbalance:.2}x");
    }
    out
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::span::SpanRecord;

    fn rec(step: u64, broad: u64, narrow: u64) -> StepRecord {
        StepRecord {
            source: "physics".into(),
            scene: "t".into(),
            step,
            wall_ns: vec![("Broadphase".into(), broad), ("Narrowphase".into(), narrow)],
            metrics: Default::default(),
            spans: vec![
                SpanRecord {
                    name: "Narrowphase".into(),
                    track: 1,
                    start_ns: 0,
                    dur_ns: 300,
                },
                SpanRecord {
                    name: "Narrowphase".into(),
                    track: 2,
                    start_ns: 0,
                    dur_ns: 100,
                },
            ],
        }
    }

    #[test]
    fn breakdown_means_and_shares() {
        let rows = phase_breakdown(&[rec(0, 100, 300), rec(1, 300, 500)]);
        assert_eq!(rows.len(), 2);
        assert_eq!(rows[0].phase, "Broadphase");
        assert!((rows[0].mean_ns - 200.0).abs() < 1e-9);
        assert!((rows[0].share - 400.0 / 1200.0).abs() < 1e-9);
        assert!((rows[1].share - 800.0 / 1200.0).abs() < 1e-9);
    }

    #[test]
    fn imbalance_over_worker_tracks() {
        let (rows, imbalance) = worker_utilization(&[rec(0, 1, 1)]);
        assert_eq!(rows.len(), 2);
        // workers 1 and 2: busy 300 and 100 → max 300 / mean 200.
        assert!((imbalance - 1.5).abs() < 1e-9);
    }

    #[test]
    fn render_contains_phases_and_tracks() {
        let text = render(&[rec(0, 100, 300)]);
        assert!(text.contains("Broadphase"));
        assert!(text.contains("worker-2"));
        assert!(text.contains("imbalance"));
    }

    #[test]
    fn empty_records_render_without_panic() {
        assert!(render(&[]).contains("0 record(s)"));
        assert!(phase_breakdown(&[]).is_empty());
    }

    #[test]
    fn violations_section_lists_monitor_counters() {
        let mut r = rec(0, 100, 300);
        r.metrics.counters = vec![
            ("physics.monitor.checked_steps".into(), 12),
            (format!("{VIOLATION_PREFIX}non_finite"), 2),
        ];
        let text = render(std::slice::from_ref(&r));
        assert!(text.contains("Invariant violations (12 step(s) checked):"));
        assert!(text.contains("non_finite"));

        // A monitored run with no violations renders "none"; an
        // unmonitored run renders no section at all.
        r.metrics.counters = vec![("physics.monitor.checked_steps".into(), 5)];
        let text = render(std::slice::from_ref(&r));
        assert!(text.contains("Invariant violations (5 step(s) checked):"));
        assert!(text.contains("none"));
        assert!(!render(&[rec(0, 1, 1)]).contains("Invariant violations"));
    }

    #[test]
    fn histogram_table_has_shared_quantile_columns() {
        let mut r = rec(0, 100, 300);
        r.metrics.histograms = vec![(
            "island_size".into(),
            crate::HistogramSnapshot {
                buckets: vec![0, 96, 0, 0, 4], // 96 ones, 4 in [8,15]
                sum: 96 + 4 * 8,
            },
        )];
        let text = render(std::slice::from_ref(&r));
        for (_, label) in crate::registry::SUMMARY_QUANTILES {
            assert!(text.contains(&format!("{label}<=")), "{text}");
        }
        // p50 and p95 land in the ones bucket, p99 in [8,15].
        let row = text.lines().find(|l| l.contains("island_size")).unwrap();
        assert!(row.trim_end().ends_with("1          1         15"), "{row}");
    }

    #[test]
    fn sleeping_section_reports_levels_not_sums() {
        let mut a = rec(0, 1, 1);
        a.metrics.gauges = vec![
            (SLEEPING_BODIES_GAUGE.into(), 240),
            (SLEEPING_ISLANDS_GAUGE.into(), 48),
        ];
        a.metrics.counters = vec![(ISLANDS_REBUILT_COUNTER.into(), 3)];
        let mut b = rec(1, 1, 1);
        b.metrics.gauges = vec![
            (SLEEPING_BODIES_GAUGE.into(), 235),
            (SLEEPING_ISLANDS_GAUGE.into(), 47),
        ];
        b.metrics.counters = vec![(ISLANDS_REBUILT_COUNTER.into(), 2)];
        let text = render(&[a, b]);
        assert!(text.contains("Island sleeping:"), "{text}");
        // Final level is the last record's, peak is the max — not 475.
        assert!(text.contains("final      235, peak      240"), "{text}");
        assert!(text.contains("final       47, peak       48"), "{text}");
        assert!(text.contains("5 component(s)"), "{text}");
        // A run that never slept and never rebuilt renders no section.
        assert!(!render(&[rec(0, 1, 1)]).contains("Island sleeping"));
    }

    #[test]
    fn broadphase_section_reports_fat_pair_level_and_total_churn() {
        let mut a = rec(0, 1, 1);
        a.metrics.gauges = vec![(BROADPHASE_FAT_PAIRS_GAUGE.into(), 900)];
        a.metrics.counters = vec![
            (BROADPHASE_REINSERTS_COUNTER.into(), 650),
            (BROADPHASE_MOVED_COUNTER.into(), 700),
            (BROADPHASE_TIGHT_TESTS_COUNTER.into(), 2000),
            (BROADPHASE_REFRESH_NS_COUNTER.into(), 3000),
            (BROADPHASE_GRID_NS_COUNTER.into(), 9000),
        ];
        let mut b = rec(1, 1, 1);
        b.metrics.gauges = vec![(BROADPHASE_FAT_PAIRS_GAUGE.into(), 880)];
        b.metrics.counters = vec![
            (BROADPHASE_REINSERTS_COUNTER.into(), 4),
            (BROADPHASE_MOVED_COUNTER.into(), 10),
            (BROADPHASE_TIGHT_TESTS_COUNTER.into(), 20),
            (BROADPHASE_REFRESH_NS_COUNTER.into(), 1000),
            (BROADPHASE_GRID_NS_COUNTER.into(), 1000),
        ];
        let text = render(&[a, b]);
        assert!(text.contains("Persistent broad phase:"), "{text}");
        assert!(text.contains("final      880, peak      900"), "{text}");
        assert!(text.contains("654 proxy(ies)"), "{text}");
        assert!(text.contains("710 proxy(ies)"), "{text}");
        assert!(text.contains("2020 run"), "{text}");
        let wall = format!(
            "refresh {} + grid {} per step",
            fmt_ns(2000.0),
            fmt_ns(5000.0)
        );
        assert!(text.contains(&wall), "{text}");
        assert!(!render(&[rec(0, 1, 1)]).contains("Persistent broad phase"));
    }

    #[test]
    fn solver_schedule_line_reports_rows_per_batch_and_packed_share() {
        let mut a = rec(0, 1, 1);
        a.metrics.counters = vec![
            (SOLVER_BATCHES_COUNTER.into(), 200),
            (SOLVER_PACKED_ROWS_COUNTER.into(), 385),
        ];
        a.metrics.histograms = vec![(
            SOLVER_ROWS_HISTOGRAM.into(),
            crate::HistogramSnapshot {
                buckets: vec![0, 0, 0, 0, 0, 0, 0, 0, 0, 0, 1],
                sum: 700,
            },
        )];
        let text = render(&[a]);
        assert!(
            text.contains(
                "Solver schedule: 700 row(s) in 200 batch(es), 3.50 rows/batch, 55.0% packed"
            ),
            "{text}"
        );
        assert!(!render(&[rec(0, 1, 1)]).contains("Solver schedule"));
    }

    #[test]
    fn narrow_phase_line_reports_active_and_hit_shares() {
        let mut a = rec(0, 1, 1);
        a.metrics.counters = vec![
            (NARROWPHASE_CANDIDATES_COUNTER.into(), 20_000),
            (NARROWPHASE_ACTIVE_COUNTER.into(), 2_000),
            (NARROWPHASE_HITS_COUNTER.into(), 1_100),
            (NARROWPHASE_CONTACTS_COUNTER.into(), 2_530),
        ];
        let mut b = rec(1, 1, 1);
        b.metrics.counters = a.metrics.counters.clone();
        let text = render(&[a, b]);
        assert!(
            text.contains(
                "Narrow phase: 40000 candidate(s), 10.0% active, 55.0% of active hit, \
                 2.30 contacts/hit"
            ),
            "{text}"
        );
        assert!(!render(&[rec(0, 1, 1)]).contains("Narrow phase"));
    }

    #[test]
    fn cloth_collision_line_reports_cull_shares() {
        let mut a = rec(0, 1, 1);
        a.metrics.counters = vec![
            (CLOTH_TESTS_COUNTER.into(), 1_000),
            (CLOTH_CCD_CASTS_COUNTER.into(), 50),
            (CLOTH_CCD_CULLED_COUNTER.into(), 150),
            (CLOTH_PROJECT_OUT_CULLED_COUNTER.into(), 600),
        ];
        let text = render(&[a]);
        assert!(
            text.contains(
                "Cloth collision: 1000 test(s); 200 ray cast(s), 75.0% culled; \
                 800 projection(s), 75.0% culled"
            ),
            "{text}"
        );
        assert!(!render(&[rec(0, 1, 1)]).contains("Cloth collision"));
    }

    #[test]
    fn spans_dropped_is_max_gauge_across_records() {
        let mut a = rec(0, 1, 1);
        a.metrics.gauges = vec![(SPANS_DROPPED_GAUGE.into(), 3)];
        let mut b = rec(1, 1, 1);
        b.metrics.gauges = vec![(SPANS_DROPPED_GAUGE.into(), 7)];
        assert_eq!(spans_dropped(&[a.clone(), b.clone()]), 7);
        assert_eq!(spans_dropped(&[rec(2, 1, 1)]), 0);
        let text = render(&[a, b]);
        assert!(text.contains("spans dropped: 7"));
        assert!(!render(&[rec(0, 1, 1)]).contains("spans dropped"));
    }

    #[test]
    fn heap_section_reports_the_last_record() {
        let mut a = rec(0, 1, 1);
        a.metrics.gauges = vec![
            ("physics.heap_bytes.bodies".into(), 1024),
            (HEAP_TOTAL_GAUGE.into(), 1024),
        ];
        let mut b = rec(1, 1, 1);
        b.metrics.gauges = vec![
            ("physics.heap_bytes.bodies".into(), 2048),
            ("physics.heap_bytes.grid_in_use".into(), 512),
            (HEAP_THREAD_SCRATCH_GAUGE.into(), 4096),
            (HEAP_TOTAL_GAUGE.into(), 2560),
        ];
        let heap = heap_bytes(&b).expect("heap gauges");
        assert_eq!(heap.components, [("bodies", 2048), ("grid_in_use", 512)]);
        assert_eq!((heap.total, heap.thread_scratch), (2560, 4096));
        let text = render(&[a, b]);
        assert!(text.contains("Heap retained by the world"), "{text}");
        assert!(text.contains("bodies                      2.0"), "{text}");
        assert!(text.contains("total                       2.5"), "{text}");
        assert!(text.contains("thread scratch              4.0"), "{text}");
        assert!(heap_bytes(&rec(0, 1, 1)).is_none());
        assert!(!render(&[rec(0, 1, 1)]).contains("Heap retained"));
    }
}
