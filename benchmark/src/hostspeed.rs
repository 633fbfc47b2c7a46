//! The host's speed, measured beside the work, and times expressed at a
//! fixed reference speed.
//!
//! The sizing host is a shared two-core VM whose cores alternate between
//! states up to a quarter apart in speed, each lasting tens of seconds —
//! longer than a run, so no repetition inside a run averages it away
//! (see the README's sizing evidence). A small compute-bound kernel of
//! the benchmark's own, independent of every crate it measures, is timed
//! beside the measured calls; it slows and speeds with them. Each wall is
//! scaled by `NOMINAL_S / kernel wall`, i.e. reported as if the host had
//! run at the reference speed throughout. A change to the measured code
//! cannot move the kernel, so it shows in the scaled time in full.

use std::time::Instant;

use crate::stats;

/// Wall of one [`Probe::sample`] on the sizing host in its fast state.
/// Only a scale: it cancels when two commits are compared on one host.
pub const NOMINAL_S: f64 = 400e-6;

/// Measured calls per speed estimate: the median kernel wall of this
/// many consecutive samples scales the walls taken beside them.
pub const CHUNK: usize = 10;

/// The reference kernel: a multiply-add sweep over 16 KB of floats, then
/// a xorshift walk with data-dependent branches. It stays inside the L1
/// cache on purpose: a kernel that touched more would evict the measured
/// code's working set before every call, and in the sizing runs the step
/// walls followed the core's speed, which this tracks, far better than
/// the memory system's (a pointer chase over 4 MB did not track them).
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

    /// Runs the kernel once and returns its wall in seconds.
    pub fn sample(&mut self) -> f64 {
        let start = Instant::now();
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
        start.elapsed().as_secs_f64()
    }
}

/// Kernel samples taken around work that is timed as a whole (a set-up,
/// a load window), for the factor that scales it.
#[derive(Debug, Default)]
pub struct Meter {
    probe: Probe,
    kernel_walls: Vec<f64>,
}

impl Meter {
    /// Takes `n` kernel samples now.
    pub fn sample(&mut self, n: usize) {
        for _ in 0..n {
            self.kernel_walls.push(self.probe.sample());
        }
    }

    /// Factor that scales a time taken beside the samples so far.
    pub fn factor(&self) -> f64 {
        factor(&self.kernel_walls)
    }
}

/// Factor that scales a wall taken beside `kernel_walls` to the
/// reference speed (`1` when there are no samples).
pub fn factor(kernel_walls: &[f64]) -> f64 {
    if kernel_walls.is_empty() {
        1.0
    } else {
        NOMINAL_S / stats::median(kernel_walls)
    }
}

/// One factor per kernel sample: that of the sample's [`CHUNK`].
pub fn factors(kernel_walls: &[f64]) -> Vec<f64> {
    kernel_walls
        .chunks(CHUNK)
        .flat_map(|chunk| std::iter::repeat_n(factor(chunk), chunk.len()))
        .collect()
}

/// `walls[i]` scaled to the reference speed; `kernel_walls[i]` was
/// sampled just before `walls[i]` was taken.
pub fn at_reference_speed(walls: &[f64], kernel_walls: &[f64]) -> Vec<f64> {
    walls
        .iter()
        .zip(factors(kernel_walls))
        .map(|(wall, factor)| wall * factor)
        .collect()
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn walls_scale_by_the_chunk_median_of_the_kernel() {
        // First chunk: host at nominal speed; second: 25 % slower, with
        // one disturbed kernel sample the median ignores.
        let walls: Vec<f64> = [vec![10.0; CHUNK], vec![12.5; CHUNK]].concat();
        let mut kernel: Vec<f64> = [vec![NOMINAL_S; CHUNK], vec![NOMINAL_S * 1.25; CHUNK]].concat();
        kernel[CHUNK + 3] = NOMINAL_S * 9.0;
        let scaled = at_reference_speed(&walls, &kernel);
        assert_eq!(scaled.len(), 2 * CHUNK);
        assert!(scaled.iter().all(|w| (w - 10.0).abs() < 1e-9), "{scaled:?}");
        assert_eq!(factor(&[]), 1.0);
    }

    #[test]
    fn the_kernel_takes_measurable_time() {
        let mut probe = Probe::new();
        let wall = probe.sample();
        assert!(wall > 1e-6 && wall < 0.5, "{wall}");
    }
}
