//! Synthetic per-kernel branch streams.
//!
//! The trace layer counts *how many* branches each kernel executes; this
//! module models *how predictable* they are. Each kernel gets a small set
//! of static branch sites (sized from its static instruction count) with
//! per-site bias and correlation chosen to match the paper's observations:
//! Narrowphase is branchy and data-dependent ("Narrowphase degrades with
//! more resources due to mispredicted branch instructions"), the island
//! solver's branches are loop branches (highly predictable), and cloth is
//! in between.

use std::collections::HashMap;
use std::sync::{Mutex, OnceLock};

use parallax_trace::Kernel;

use crate::yags::Yags;

/// A static branch site: program counter, taken bias, and correlation with
/// the previous outcome of the same site (1.0 = always repeats, 0.0 =
/// independent draws).
#[derive(Debug, Clone, Copy)]
struct Site {
    pc: u64,
    bias: f64,
    correlation: f64,
}

/// Per-kernel site tables.
fn sites(kernel: Kernel) -> Vec<Site> {
    let make = |n: usize, base: u64, bias: f64, correlation: f64| -> Vec<Site> {
        (0..n)
            .map(|i| Site {
                pc: base + i as u64 * 4,
                bias,
                correlation,
            })
            .collect()
    };
    match kernel {
        // 277 static instr, 8% branches ≈ 22 sites; geometry tests are
        // data-dependent: weak bias, little correlation.
        Kernel::Narrowphase => {
            let mut v = make(10, 0x1000, 0.8, 0.6);
            v.extend(make(8, 0x1100, 0.97, 0.92)); // loop back-edges
            v.extend(make(4, 0x1200, 0.65, 0.35)); // data-dependent clips
            v
        }
        // Solver sweeps: dominated by loop branches and rare clamp
        // exceptions.
        Kernel::IslandSolver => {
            let mut v = make(4, 0x2000, 0.995, 0.98);
            v.extend(make(2, 0x2100, 0.96, 0.9));
            v
        }
        // Cloth: loop branches plus pin/collision tests.
        Kernel::Cloth => {
            let mut v = make(5, 0x3000, 0.99, 0.96);
            v.extend(make(4, 0x3100, 0.95, 0.92));
            v
        }
        // Broad-phase: hash-cell iteration branches are loopy and fairly
        // predictable; AABB rejections are biased toward "no overlap".
        Kernel::Broadphase => {
            let mut v = make(6, 0x4000, 0.78, 0.55);
            v.extend(make(4, 0x4100, 0.93, 0.85));
            v
        }
        // Island creation: union-find branches moderately biased.
        Kernel::IslandCreation => {
            let mut v = make(5, 0x5000, 0.8, 0.55);
            v.extend(make(3, 0x5100, 0.95, 0.9));
            v
        }
    }
}

/// Deterministic xorshift PRNG.
#[derive(Debug, Clone)]
struct XorShift(u64);

impl XorShift {
    fn next_f64(&mut self) -> f64 {
        self.0 ^= self.0 << 13;
        self.0 ^= self.0 >> 7;
        self.0 ^= self.0 << 17;
        (self.0 >> 11) as f64 / (1u64 << 53) as f64
    }
}

/// The misprediction rate of `predictor_bytes` of YAGS on `kernel`'s
/// synthetic branch stream.
///
/// A pure function of its arguments, memoised for the life of the process:
/// the first call per (kernel, budget) runs the predictor over 120 000
/// branches; later calls are table lookups.
pub fn mispredict_rate(kernel: Kernel, predictor_bytes: usize) -> f64 {
    static CACHE: OnceLock<Mutex<HashMap<(Kernel, usize), f64>>> = OnceLock::new();
    let cache = CACHE.get_or_init(|| Mutex::new(HashMap::new()));
    let key = (kernel, predictor_bytes);
    if let Some(&rate) = cache.lock().expect("rate cache").get(&key) {
        return rate;
    }
    let rate = simulate(kernel, predictor_bytes);
    cache.lock().expect("rate cache").insert(key, rate);
    rate
}

/// Runs the predictor over the kernel's branch stream.
fn simulate(kernel: Kernel, predictor_bytes: usize) -> f64 {
    let sites = sites(kernel);
    let mut predictor = Yags::with_budget(predictor_bytes);
    let mut rng = XorShift(0x9E37_79B9_7F4A_7C15 ^ kernel as u64);
    let mut last: Vec<bool> = sites.iter().map(|s| s.bias >= 0.5).collect();

    const WARMUP: usize = 20_000;
    const MEASURE: usize = 100_000;
    let mut wrong = 0usize;
    for n in 0..WARMUP + MEASURE {
        let i = (rng.next_f64() * sites.len() as f64) as usize % sites.len();
        let s = sites[i];
        let outcome = if rng.next_f64() < s.correlation {
            last[i]
        } else {
            rng.next_f64() < s.bias
        };
        last[i] = outcome;
        let correct = predictor.predict_and_update(s.pc, outcome);
        if n >= WARMUP && !correct {
            wrong += 1;
        }
    }
    wrong as f64 / MEASURE as f64
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn narrowphase_is_hardest_to_predict() {
        let nw = mispredict_rate(Kernel::Narrowphase, 17 * 1024);
        let is = mispredict_rate(Kernel::IslandSolver, 17 * 1024);
        let cl = mispredict_rate(Kernel::Cloth, 17 * 1024);
        assert!(nw > is, "narrowphase {nw} vs solver {is}");
        assert!(nw > cl, "narrowphase {nw} vs cloth {cl}");
        assert!(is < 0.03, "solver loops are predictable: {is}");
        assert!(nw > 0.05, "narrowphase is data-dependent: {nw}");
    }

    #[test]
    fn bigger_predictor_helps_or_ties() {
        for k in Kernel::FG {
            let small = mispredict_rate(k, 1024);
            let big = mispredict_rate(k, 64 * 1024);
            assert!(
                big <= small + 0.02,
                "{k:?}: 64KB ({big}) worse than 1KB ({small})"
            );
        }
    }

    #[test]
    fn deterministic() {
        assert_eq!(simulate(Kernel::Cloth, 4096), simulate(Kernel::Cloth, 4096));
    }

    #[test]
    fn table_memoizes() {
        let simulated = simulate(Kernel::Broadphase, 17 * 1024);
        assert_eq!(mispredict_rate(Kernel::Broadphase, 17 * 1024), simulated);
        assert_eq!(mispredict_rate(Kernel::Broadphase, 17 * 1024), simulated);
    }
}
