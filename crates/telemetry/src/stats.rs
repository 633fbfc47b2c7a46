//! Dependency-free robust statistics for the regression gate.
//!
//! Wall-time samples from the step pipeline are heavy-tailed (page
//! faults, scheduler preemption, allocator warm-up), so the gate never
//! reasons about means and standard deviations. Everything here is built
//! from order statistics instead:
//!
//! * [`trim_warmup`] — drop the warm-up prefix of a sample series,
//! * [`median`] / [`mad`] / [`summarize`] — robust location and spread,
//! * [`bootstrap_median_ci`] — a percentile-bootstrap confidence
//!   interval for the median, driven by a deterministic [`SplitMix64`]
//!   generator so the same inputs always yield the same interval,
//! * [`compare`] — the noise-aware two-sample verdict the `bench_gate`
//!   binary gates on: *slower* / *faster* only when the whole bootstrap
//!   confidence interval of the relative median change clears a
//!   threshold, *indistinguishable* otherwise,
//! * [`Probe`] — the host's speed, timed beside the work, so that a wall
//!   can be stated at a fixed reference speed ([`at_reference_speed`]).
//!
//! No RNG crate, no float formatting crate, no allocation beyond the
//! scratch vectors: the module must stay usable from the `off`-feature
//! no-op build of the crate and from the vendored-shim workspace.

/// Deterministic 64-bit generator (Steele et al.'s SplitMix64).
///
/// Used for bootstrap resampling: quality is far beyond what resampling
/// needs, state is one `u64`, and the stream is fully determined by the
/// seed — re-running a comparison can never flip its verdict.
#[derive(Debug, Clone)]
pub struct SplitMix64(u64);

impl SplitMix64 {
    /// Creates a generator from a seed.
    pub fn new(seed: u64) -> SplitMix64 {
        SplitMix64(seed)
    }

    /// Next raw 64-bit value.
    #[inline]
    pub fn next_u64(&mut self) -> u64 {
        self.0 = self.0.wrapping_add(0x9E37_79B9_7F4A_7C15);
        let mut z = self.0;
        z = (z ^ (z >> 30)).wrapping_mul(0xBF58_476D_1CE4_E5B9);
        z = (z ^ (z >> 27)).wrapping_mul(0x94D0_49BB_1331_11EB);
        z ^ (z >> 31)
    }

    /// Uniform index in `[0, n)`. `n` must be nonzero. The modulo bias
    /// is below 2^-50 for any sample count the gate sees.
    #[inline]
    pub fn index(&mut self, n: usize) -> usize {
        (self.next_u64() % n as u64) as usize
    }
}

/// Drops the first `warmup` samples (allocator/cache warm-up steps).
/// Returns an empty slice when fewer than `warmup` samples exist.
pub fn trim_warmup(samples: &[f64], warmup: usize) -> &[f64] {
    samples.get(warmup..).unwrap_or(&[])
}

/// Median of a sample set (`None` when empty). Non-finite samples are
/// ignored; the caller detects them separately if they matter.
pub fn median(samples: &[f64]) -> Option<f64> {
    let mut xs: Vec<f64> = samples.iter().copied().filter(|x| x.is_finite()).collect();
    if xs.is_empty() {
        return None;
    }
    xs.sort_by(f64::total_cmp);
    let n = xs.len();
    Some(if n % 2 == 1 {
        xs[n / 2]
    } else {
        0.5 * (xs[n / 2 - 1] + xs[n / 2])
    })
}

/// Median absolute deviation around the median (`None` when empty).
/// The robust analogue of the standard deviation: immune to any
/// minority of outlier steps.
pub fn mad(samples: &[f64]) -> Option<f64> {
    let m = median(samples)?;
    let dev: Vec<f64> = samples
        .iter()
        .filter(|x| x.is_finite())
        .map(|x| (x - m).abs())
        .collect();
    median(&dev)
}

/// Robust five-number summary of a sample series.
#[derive(Debug, Clone, Copy, PartialEq)]
pub struct Summary {
    /// Finite samples summarized.
    pub count: usize,
    /// Median.
    pub median: f64,
    /// Median absolute deviation.
    pub mad: f64,
    /// Smallest sample.
    pub min: f64,
    /// Largest sample.
    pub max: f64,
}

/// Summarizes a series (`None` when no finite sample exists).
pub fn summarize(samples: &[f64]) -> Option<Summary> {
    let finite: Vec<f64> = samples.iter().copied().filter(|x| x.is_finite()).collect();
    let med = median(&finite)?;
    let mad = mad(&finite)?;
    let min = finite.iter().copied().fold(f64::INFINITY, f64::min);
    let max = finite.iter().copied().fold(f64::NEG_INFINITY, f64::max);
    Some(Summary {
        count: finite.len(),
        median: med,
        mad,
        min,
        max,
    })
}

/// Bootstrap parameters. The defaults (400 resamples, 95% interval,
/// fixed seed) are what `bench_gate` uses.
#[derive(Debug, Clone, Copy)]
pub struct BootstrapConfig {
    /// Bootstrap resamples drawn.
    pub resamples: usize,
    /// Two-sided miscoverage: the interval spans quantiles
    /// `[alpha/2, 1 - alpha/2]` of the bootstrap distribution.
    pub alpha: f64,
    /// Generator seed; fixed so verdicts are reproducible.
    pub seed: u64,
}

impl Default for BootstrapConfig {
    fn default() -> Self {
        BootstrapConfig {
            resamples: 400,
            alpha: 0.05,
            seed: 0x5EED_BA5E_0BAD_CAFE,
        }
    }
}

/// Nearest-rank quantile of an already sorted slice.
fn sorted_quantile(sorted: &[f64], q: f64) -> f64 {
    debug_assert!(!sorted.is_empty());
    let n = sorted.len();
    let rank = ((q.clamp(0.0, 1.0) * n as f64).ceil() as usize).clamp(1, n);
    sorted[rank - 1]
}

/// Resamples `samples` with replacement and returns the resample median.
fn resample_median(samples: &[f64], scratch: &mut Vec<f64>, rng: &mut SplitMix64) -> f64 {
    scratch.clear();
    for _ in 0..samples.len() {
        scratch.push(samples[rng.index(samples.len())]);
    }
    scratch.sort_by(f64::total_cmp);
    let n = scratch.len();
    if n % 2 == 1 {
        scratch[n / 2]
    } else {
        0.5 * (scratch[n / 2 - 1] + scratch[n / 2])
    }
}

/// Percentile-bootstrap confidence interval for the median (`None` when
/// the series has no finite sample). Deterministic for a given
/// `(samples, config)` pair.
pub fn bootstrap_median_ci(samples: &[f64], cfg: &BootstrapConfig) -> Option<(f64, f64)> {
    let finite: Vec<f64> = samples.iter().copied().filter(|x| x.is_finite()).collect();
    if finite.is_empty() {
        return None;
    }
    let mut rng = SplitMix64::new(cfg.seed);
    let mut scratch = Vec::with_capacity(finite.len());
    let mut medians: Vec<f64> = (0..cfg.resamples.max(1))
        .map(|_| resample_median(&finite, &mut scratch, &mut rng))
        .collect();
    medians.sort_by(f64::total_cmp);
    Some((
        sorted_quantile(&medians, cfg.alpha / 2.0),
        sorted_quantile(&medians, 1.0 - cfg.alpha / 2.0),
    ))
}

/// Wall of one [`Probe::sample`] at the reference speed, in nanoseconds:
/// the kernel's wall on the 2-core x86-64 VM the benchmark was sized on,
/// in its fast state — the host speed at which the regression gates'
/// absolute floors and budgets were set (on a host whose probe reads
/// 510–680 µs, the digests cost 57–62 ns per body-step at this speed,
/// where the budget's derivation measured 55–75). The benchmark's own
/// host-speed probe runs the same kernel at the same scale. Only a
/// scale: it cancels when two recordings are compared.
pub const REFERENCE_PROBE_NS: f64 = 400_000.0;

/// A small compute-bound reference kernel, timed beside measured work.
///
/// Shared hosts change speed by up to a quarter for tens of seconds at a
/// time, longer than a recording, so no repetition inside one averages
/// it away. The probe slows and speeds with the measured code, and no
/// change to that code can move it, so a wall scaled by
/// `REFERENCE_PROBE_NS / probe wall` shows a code change in full and a
/// host change not at all. The kernel — a multiply-add sweep over 16 KB
/// of floats, then a xorshift walk with data-dependent branches — stays
/// inside the L1 cache on purpose: one that touched more would evict the
/// measured working set, and step walls follow the core's speed, which
/// this tracks, far better than the memory system's.
#[derive(Debug)]
pub struct Probe {
    buf: Vec<f32>,
    state: u64,
}

impl Default for Probe {
    fn default() -> Probe {
        Probe::new()
    }
}

impl Probe {
    /// A probe with its buffer touched.
    pub fn new() -> Probe {
        let mut probe = Probe {
            buf: vec![1.0; 4 * 1024],
            state: 0x2545_F491_4F6C_DD1D,
        };
        probe.sample();
        probe
    }

    /// Runs the kernel once and returns its wall in nanoseconds.
    pub fn sample(&mut self) -> f64 {
        let start = std::time::Instant::now();
        let mut acc = 0.0f32;
        for _ in 0..80 {
            for x in self.buf.iter_mut() {
                *x = *x * 0.9999 + 0.0001;
                acc += *x * *x;
            }
        }
        let mut s = self.state;
        let mut mix = 0u64;
        for _ in 0..30_000 {
            s ^= s << 13;
            s ^= s >> 7;
            s ^= s << 17;
            if s & 1 == 0 {
                mix = mix.wrapping_add(s >> 3);
            } else if s & 2 == 0 {
                mix ^= s;
            } else {
                mix = mix.rotate_left(5);
            }
        }
        self.state = s;
        std::hint::black_box((acc, mix));
        start.elapsed().as_nanos() as f64
    }

    /// The median wall of three samples taken now: the host's speed for
    /// the block of work about to be timed, robust to one preempted run.
    pub fn speed(&mut self) -> f64 {
        let mut walls = [self.sample(), self.sample(), self.sample()];
        walls.sort_by(f64::total_cmp);
        walls[1]
    }
}

/// `wall` stated at the reference speed, given the [`Probe`] wall
/// `probe_ns` timed beside it.
pub fn at_reference_speed(wall: f64, probe_ns: f64) -> f64 {
    wall * REFERENCE_PROBE_NS / probe_ns.max(1.0)
}

/// Probe walls timed one per block of work, in time order, smoothed: each
/// the median of the walls within two blocks of it. A host's speed state
/// outlasts a few blocks, one disturbed probe run does not, so this tracks
/// the host without carrying the probe's own noise into every block (in a
/// debug build, where a probe run takes milliseconds, per-block factors
/// made half of the tiny A/A comparisons fail).
pub fn smoothed_speeds(probe_walls: &[f64]) -> Vec<f64> {
    (0..probe_walls.len())
        .map(|i| {
            let near = &probe_walls[i.saturating_sub(2)..(i + 3).min(probe_walls.len())];
            median(near).unwrap_or(REFERENCE_PROBE_NS)
        })
        .collect()
}

/// The outcome of a two-sample comparison.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum Verdict {
    /// The candidate's median is significantly below the baseline's
    /// (the whole interval clears `1 / (1 + threshold) - 1`, the mirror
    /// of `+threshold` in ratio: a +100 % threshold is crossed by halving).
    Faster,
    /// The confidence interval straddles the threshold band: any
    /// difference is within noise at this threshold.
    Indistinguishable,
    /// The candidate's median is significantly above the baseline's
    /// (the whole interval clears `+threshold`) — a regression when the
    /// metric is a cost.
    Slower,
}

impl Verdict {
    /// Display label used by the gate's report table.
    pub fn label(self) -> &'static str {
        match self {
            Verdict::Faster => "faster",
            Verdict::Indistinguishable => "~same",
            Verdict::Slower => "SLOWER",
        }
    }
}

/// A two-sample comparison result: point estimates plus the bootstrap
/// interval of the relative change the verdict was derived from.
#[derive(Debug, Clone, Copy, PartialEq)]
pub struct Comparison {
    /// Verdict at the requested threshold.
    pub verdict: Verdict,
    /// Baseline median.
    pub base_median: f64,
    /// Candidate median.
    pub cand_median: f64,
    /// Point estimate of the relative change
    /// (`(cand - base) / base`; 0.10 = 10% slower).
    pub rel_change: f64,
    /// Bootstrap confidence interval of the relative change.
    pub ci: (f64, f64),
}

/// Noise-aware comparison of a candidate sample series against a
/// baseline series (`None` when either side has no finite sample).
///
/// For each bootstrap round both series are independently resampled and
/// the relative difference of the resample medians is recorded; the
/// verdict is [`Verdict::Slower`] / [`Verdict::Faster`] only when the
/// *entire* `1 - alpha` interval of that distribution lies beyond
/// `threshold` (e.g. `0.25` = 25% slower), or beyond its mirror in ratio
/// (`1 / 1.25 - 1` = 20% faster). Unequal sample counts are fine —
/// each series is resampled at its own length.
pub fn compare(
    baseline: &[f64],
    candidate: &[f64],
    threshold: f64,
    cfg: &BootstrapConfig,
) -> Option<Comparison> {
    let base: Vec<f64> = baseline.iter().copied().filter(|x| x.is_finite()).collect();
    let cand: Vec<f64> = candidate
        .iter()
        .copied()
        .filter(|x| x.is_finite())
        .collect();
    let base_median = median(&base)?;
    let cand_median = median(&cand)?;
    // Wall times are nanoseconds; a sub-nanosecond median means the
    // phase did nothing and relative change is meaningless noise.
    let floor = 1.0;
    let rel = |b: f64, c: f64| (c - b) / b.max(floor);

    let mut rng = SplitMix64::new(cfg.seed);
    let mut scratch = Vec::with_capacity(base.len().max(cand.len()));
    let mut diffs: Vec<f64> = (0..cfg.resamples.max(1))
        .map(|_| {
            let b = resample_median(&base, &mut scratch, &mut rng);
            let c = resample_median(&cand, &mut scratch, &mut rng);
            rel(b, c)
        })
        .collect();
    diffs.sort_by(f64::total_cmp);
    let ci = (
        sorted_quantile(&diffs, cfg.alpha / 2.0),
        sorted_quantile(&diffs, 1.0 - cfg.alpha / 2.0),
    );
    let threshold = threshold.abs();
    let verdict = if ci.0 > threshold {
        Verdict::Slower
    } else if ci.1 < 1.0 / (1.0 + threshold) - 1.0 {
        Verdict::Faster
    } else {
        Verdict::Indistinguishable
    };
    Some(Comparison {
        verdict,
        base_median,
        cand_median,
        rel_change: rel(base_median, cand_median),
        ci,
    })
}

#[cfg(test)]
mod tests {
    use super::*;

    /// Deterministic synthetic series centered on `center` with ±10%
    /// jitter and a couple of 3x outliers (the shape of real step walls).
    fn series(center: f64, n: usize, seed: u64) -> Vec<f64> {
        let mut rng = SplitMix64::new(seed);
        (0..n)
            .map(|i| {
                let jitter = (rng.next_u64() % 2000) as f64 / 10_000.0 - 0.1;
                let outlier = if i % 17 == 16 { 3.0 } else { 1.0 };
                center * (1.0 + jitter) * outlier
            })
            .collect()
    }

    #[test]
    fn median_and_mad_are_robust_to_outliers() {
        let xs = [10.0, 11.0, 9.0, 10.5, 9.5, 1_000_000.0];
        let m = median(&xs).unwrap();
        assert!((9.0..=11.0).contains(&m), "median {m}");
        let d = mad(&xs).unwrap();
        assert!(d < 2.0, "mad {d}");
        assert_eq!(median(&[]), None);
        assert_eq!(mad(&[]), None);
    }

    #[test]
    fn median_handles_even_and_odd_counts() {
        assert_eq!(median(&[3.0, 1.0, 2.0]), Some(2.0));
        assert_eq!(median(&[4.0, 1.0, 2.0, 3.0]), Some(2.5));
        assert_eq!(median(&[f64::NAN, 5.0]), Some(5.0), "NaN ignored");
    }

    #[test]
    fn trim_warmup_drops_prefix() {
        let xs = [1.0, 2.0, 3.0, 4.0];
        assert_eq!(trim_warmup(&xs, 2), &[3.0, 4.0]);
        assert_eq!(trim_warmup(&xs, 0), &xs);
        assert!(trim_warmup(&xs, 9).is_empty());
    }

    #[test]
    fn summarize_reports_extremes() {
        let s = summarize(&[2.0, 8.0, 4.0]).unwrap();
        assert_eq!(s.count, 3);
        assert_eq!(s.median, 4.0);
        assert_eq!(s.min, 2.0);
        assert_eq!(s.max, 8.0);
        assert!(summarize(&[f64::NAN]).is_none());
    }

    #[test]
    fn bootstrap_is_deterministic() {
        let xs = series(1000.0, 60, 7);
        let cfg = BootstrapConfig::default();
        let a = bootstrap_median_ci(&xs, &cfg).unwrap();
        let b = bootstrap_median_ci(&xs, &cfg).unwrap();
        assert_eq!(a, b, "same samples + config must give the same CI");
        let c = compare(&xs, &series(1000.0, 60, 8), 0.25, &cfg).unwrap();
        let d = compare(&xs, &series(1000.0, 60, 8), 0.25, &cfg).unwrap();
        assert_eq!(c, d, "verdicts must be reproducible");
    }

    #[test]
    fn bootstrap_ci_brackets_the_median() {
        let xs = series(1000.0, 80, 3);
        let (lo, hi) = bootstrap_median_ci(&xs, &BootstrapConfig::default()).unwrap();
        let m = median(&xs).unwrap();
        assert!(lo <= m && m <= hi, "median {m} outside CI [{lo}, {hi}]");
        assert!(lo > 500.0 && hi < 2000.0, "CI [{lo}, {hi}] too wide");
    }

    #[test]
    fn verdicts_on_synthetic_distributions() {
        let cfg = BootstrapConfig::default();
        let base = series(1000.0, 60, 11);

        let doubled = series(2000.0, 60, 12);
        let v = compare(&base, &doubled, 0.25, &cfg).unwrap();
        assert_eq!(v.verdict, Verdict::Slower, "{v:?}");
        assert!(v.rel_change > 0.5, "{v:?}");

        let halved = series(500.0, 60, 13);
        let v = compare(&base, &halved, 0.25, &cfg).unwrap();
        assert_eq!(v.verdict, Verdict::Faster, "{v:?}");

        let same = series(1000.0, 60, 14);
        let v = compare(&base, &same, 0.25, &cfg).unwrap();
        assert_eq!(v.verdict, Verdict::Indistinguishable, "{v:?}");

        // A 30% shift must NOT clear a 100% threshold (the --quick band).
        let shifted = series(1300.0, 60, 15);
        let v = compare(&base, &shifted, 1.0, &cfg).unwrap();
        assert_eq!(v.verdict, Verdict::Indistinguishable, "{v:?}");

        // Halving mirrors doubling: at +100% it reads faster, and a 40%
        // cut does not.
        let v = compare(&base, &series(400.0, 60, 16), 1.0, &cfg).unwrap();
        assert_eq!(v.verdict, Verdict::Faster, "{v:?}");
        let v = compare(&base, &series(600.0, 60, 17), 1.0, &cfg).unwrap();
        assert_eq!(v.verdict, Verdict::Indistinguishable, "{v:?}");
    }

    #[test]
    fn walls_scale_to_the_reference_speed() {
        // A host 25% slower than the reference: its walls shrink back.
        let slow = REFERENCE_PROBE_NS * 1.25;
        assert!((at_reference_speed(12.5, slow) - 10.0).abs() < 1e-9);
        assert_eq!(at_reference_speed(7.0, REFERENCE_PROBE_NS), 7.0);
        // One disturbed probe run is smoothed away; a lasting change is not.
        let walls = [400.0, 401.0, 900.0, 399.0, 500.0, 500.0, 500.0];
        assert_eq!(
            smoothed_speeds(&walls),
            [401.0, 400.5, 401.0, 500.0, 500.0, 500.0, 500.0]
        );
        let wall = Probe::new().speed();
        assert!(wall > 1e3 && wall < 5e8, "{wall}");
    }

    #[test]
    fn compare_handles_empty_and_degenerate_input() {
        let cfg = BootstrapConfig::default();
        assert!(compare(&[], &[1.0], 0.1, &cfg).is_none());
        assert!(compare(&[1.0], &[], 0.1, &cfg).is_none());
        // Identical constant series: exactly zero change, never flagged.
        let v = compare(&[5.0; 10], &[5.0; 10], 0.01, &cfg).unwrap();
        assert_eq!(v.verdict, Verdict::Indistinguishable);
        assert_eq!(v.rel_change, 0.0);
    }
}
