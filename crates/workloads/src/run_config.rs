//! The one run-configuration grammar.
//!
//! The engine promises bit-identical trajectories across executor width
//! and SIMD width (and across sleeping until the first sleep event); warm
//! starting and per-phase digests are the two other switches a run can
//! differ in. [`RunConfig`] is those five axes as one printable value,
//! spelled
//!
//! ```text
//! threads=N,simd=scalar|sse2|avx2,sleep=on|off,warm=on|off,digest=on|off
//! ```
//!
//! with every key optional. Every binary that takes a configuration takes
//! this spelling (`--config`, `bisect --a/--b`), every run header and
//! BENCH envelope prints it, and nothing below a `main` reads the
//! environment: a run is what its `RunConfig` says.

use parallax_physics::{SimdMode, WorldConfig};

use crate::{BenchmarkId, Scene, SceneParams};

/// The axes a run may be configured along while the simulation must not
/// change (sleeping excepted, from its first sleep event on).
#[derive(Debug, Clone, Copy, PartialEq)]
pub struct RunConfig {
    /// Executor width.
    pub threads: usize,
    /// SIMD kernel mode.
    pub simd: SimdMode,
    /// Island sleeping.
    pub sleep: bool,
    /// Solver warm starting from the persistent contact cache.
    pub warm: bool,
    /// Per-phase state digests (the flight recorder's fingerprints).
    pub digest: bool,
}

impl Default for RunConfig {
    /// The engine's own defaults ([`WorldConfig::default`]): one thread,
    /// the widest SIMD mode this CPU executes, sleeping off, warm starting
    /// on, digests off.
    fn default() -> Self {
        let w = WorldConfig::default();
        RunConfig {
            threads: w.threads,
            simd: w.simd,
            sleep: w.sleeping,
            warm: w.warm_starting,
            digest: w.digests,
        }
    }
}

fn parse_on_off(key: &str, value: &str) -> Result<bool, String> {
    match value {
        "on" => Ok(true),
        "off" => Ok(false),
        other => Err(format!("{key}: expected on|off, got {other:?}")),
    }
}

impl std::fmt::Display for RunConfig {
    /// The configuration in [`RunConfig::parse`] syntax, every key present.
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        let on_off = |on: bool| if on { "on" } else { "off" };
        write!(
            f,
            "threads={},simd={},sleep={},warm={},digest={}",
            self.threads,
            self.simd.name(),
            on_off(self.sleep),
            on_off(self.warm),
            on_off(self.digest),
        )
    }
}

impl RunConfig {
    /// Parses a spec on top of [`RunConfig::default`].
    pub fn parse(spec: &str) -> Result<RunConfig, String> {
        let mut run = RunConfig::default();
        run.apply(spec)?;
        Ok(run)
    }

    /// Sets the keys `spec` names (comma-separated `key=value`, any order)
    /// and leaves the others alone. An unknown key or value is an error
    /// naming it, and then `self` is unchanged.
    pub fn apply(&mut self, spec: &str) -> Result<(), String> {
        let mut run = *self;
        for part in spec.split(',').map(str::trim).filter(|p| !p.is_empty()) {
            let (key, value) = part
                .split_once('=')
                .ok_or_else(|| format!("expected key=value, got {part:?}"))?;
            let (key, value) = (key.trim(), value.trim());
            match key {
                "threads" => {
                    run.threads = value.parse().ok().filter(|&n| n > 0).ok_or_else(|| {
                        format!("threads: expected a positive integer, got {value:?}")
                    })?
                }
                "simd" => {
                    run.simd = SimdMode::from_name(value)
                        .ok_or_else(|| format!("simd: expected scalar|sse2|avx2, got {value:?}"))?
                }
                "sleep" => run.sleep = parse_on_off(key, value)?,
                "warm" => run.warm = parse_on_off(key, value)?,
                "digest" => run.digest = parse_on_off(key, value)?,
                other => {
                    return Err(format!(
                        "unknown key {other:?} (expected threads, simd, sleep, warm, digest)"
                    ))
                }
            }
        }
        *self = run;
        Ok(())
    }

    /// The scene parameters of this configuration at `scale` and `seed`.
    pub fn scene_params(&self, scale: f32, seed: u64) -> SceneParams {
        SceneParams {
            scale,
            seed,
            threads: self.threads,
            warm_starting: self.warm,
            simd: self.simd,
            digests: self.digest,
            sleeping: self.sleep,
        }
    }

    /// Builds benchmark `id` at `scale` (default seed) under this
    /// configuration.
    pub fn build(&self, id: BenchmarkId, scale: f32) -> Scene {
        id.build(&self.scene_params(scale, SceneParams::DEFAULT_SEED))
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn display_round_trips_over_the_whole_value_matrix() {
        for simd in [SimdMode::Scalar, SimdMode::Sse2, SimdMode::Avx2] {
            for threads in [1, 2, 8] {
                for bits in 0..8u32 {
                    let c = RunConfig {
                        threads,
                        simd,
                        sleep: bits & 1 != 0,
                        warm: bits & 2 != 0,
                        digest: bits & 4 != 0,
                    };
                    assert_eq!(RunConfig::parse(&c.to_string()), Ok(c), "{c}");
                }
            }
        }
    }

    #[test]
    fn partial_specs_leave_the_other_fields_alone() {
        assert_eq!(RunConfig::parse(""), Ok(RunConfig::default()));
        let base = RunConfig::parse("threads=8,simd=scalar,sleep=on,digest=on").unwrap();
        let mut c = base;
        c.apply(" warm=off , sleep=off ").unwrap();
        assert_eq!(
            c,
            RunConfig {
                warm: false,
                sleep: false,
                ..base
            }
        );
        c.apply("sleep=on,warm=on").unwrap();
        assert_eq!(c, base);
    }

    #[test]
    fn every_bad_key_or_value_is_an_error_naming_it() {
        for (spec, names) in [
            ("cores=4", "\"cores\""),
            ("threads=0", "\"0\""),
            ("threads=many", "\"many\""),
            ("simd=neon", "\"neon\""),
            ("sleep=maybe", "\"maybe\""),
            ("warm=1", "\"1\""),
            ("digest=true", "\"true\""),
            ("broadphase=sap", "\"broadphase\""),
            ("broadphase=grid", "\"broadphase\""),
            ("threads", "\"threads\""),
        ] {
            let mut c = RunConfig::default();
            let err = c.apply(&format!("threads=4,{spec}")).unwrap_err();
            assert!(err.contains(names), "{spec}: {err}");
            let key = spec.split('=').next().unwrap();
            assert!(err.contains(key), "{spec}: {err}");
            assert_eq!(c, RunConfig::default(), "{spec}: a failed apply changed it");
        }
    }

    #[test]
    fn build_applies_every_axis_to_the_world() {
        let c = RunConfig::parse("threads=2,simd=scalar,sleep=on,warm=off,digest=on").unwrap();
        let scene = c.build(BenchmarkId::Periodic, 0.05);
        let w = scene.world.config();
        assert_eq!((w.threads, w.simd), (2, SimdMode::Scalar));
        assert!(w.sleeping && !w.warm_starting && w.digests);
    }
}
