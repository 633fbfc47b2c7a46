//! Instruction-class accounting (paper Figures 7b and 9b).

use std::ops::{Add, AddAssign};

use serde::{Deserialize, Serialize};

/// Instruction counts by class, matching the categories of the paper's
/// instruction-mix figures ("int alu", "branch", "float add", "float mult",
/// "rd port", "wr port", "other").
#[derive(Debug, Default, Clone, Copy, PartialEq, Serialize, Deserialize)]
pub struct OpCounts {
    /// Integer ALU operations (including integer multiplies).
    pub int_alu: u64,
    /// Branches and FP compares.
    pub branch: u64,
    /// Floating-point adds/subtracts.
    pub fp_add: u64,
    /// Floating-point multiplies.
    pub fp_mul: u64,
    /// Floating-point divides and square roots.
    pub fp_div_sqrt: u64,
    /// Memory reads (rd port).
    pub load: u64,
    /// Memory writes (wr port).
    pub store: u64,
    /// Everything else (moves, conversions, NOP-adjacent work).
    pub other: u64,
}

impl OpCounts {
    /// Total instruction count.
    pub fn total(&self) -> u64 {
        self.int_alu
            + self.branch
            + self.fp_add
            + self.fp_mul
            + self.fp_div_sqrt
            + self.load
            + self.store
            + self.other
    }

    /// Scales all counts by `k` (building an `n`-task workload from a
    /// single-task cost model).
    pub fn scaled(&self, k: u64) -> OpCounts {
        OpCounts {
            int_alu: self.int_alu * k,
            branch: self.branch * k,
            fp_add: self.fp_add * k,
            fp_mul: self.fp_mul * k,
            fp_div_sqrt: self.fp_div_sqrt * k,
            load: self.load * k,
            store: self.store * k,
            other: self.other * k,
        }
    }

    /// Fraction of instructions in each class, in the order used by the
    /// paper's stacked bars: (int alu, branch, fp add, fp mul, rd, wr,
    /// other). `fp_div_sqrt` is folded into "other" as the paper does.
    pub fn fractions(&self) -> [f64; 7] {
        let t = self.total().max(1) as f64;
        [
            self.int_alu as f64 / t,
            self.branch as f64 / t,
            self.fp_add as f64 / t,
            self.fp_mul as f64 / t,
            self.load as f64 / t,
            self.store as f64 / t,
            (self.other + self.fp_div_sqrt) as f64 / t,
        ]
    }
}

impl Add for OpCounts {
    type Output = OpCounts;
    fn add(self, rhs: OpCounts) -> OpCounts {
        OpCounts {
            int_alu: self.int_alu + rhs.int_alu,
            branch: self.branch + rhs.branch,
            fp_add: self.fp_add + rhs.fp_add,
            fp_mul: self.fp_mul + rhs.fp_mul,
            fp_div_sqrt: self.fp_div_sqrt + rhs.fp_div_sqrt,
            load: self.load + rhs.load,
            store: self.store + rhs.store,
            other: self.other + rhs.other,
        }
    }
}

impl AddAssign for OpCounts {
    fn add_assign(&mut self, rhs: OpCounts) {
        *self = *self + rhs;
    }
}

impl std::iter::Sum for OpCounts {
    fn sum<I: Iterator<Item = OpCounts>>(iter: I) -> OpCounts {
        iter.fold(OpCounts::default(), Add::add)
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    fn sample() -> OpCounts {
        OpCounts {
            int_alu: 40,
            branch: 10,
            fp_add: 10,
            fp_mul: 10,
            fp_div_sqrt: 2,
            load: 20,
            store: 6,
            other: 2,
        }
    }

    #[test]
    fn total_sums_all_classes() {
        assert_eq!(sample().total(), 100);
    }

    #[test]
    fn scaled_multiplies_uniformly() {
        let s = sample().scaled(3);
        assert_eq!(s.total(), 300);
        assert_eq!(s.int_alu, 120);
    }

    #[test]
    fn fractions_sum_to_one() {
        let f = sample().fractions();
        let sum: f64 = f.iter().sum();
        assert!((sum - 1.0).abs() < 1e-9);
        assert!((f[0] - 0.4).abs() < 1e-9);
    }

    #[test]
    fn add_and_sum() {
        let two = sample() + sample();
        assert_eq!(two.total(), 200);
        let many: OpCounts = (0..5).map(|_| sample()).sum();
        assert_eq!(many.total(), 500);
    }
}
