//! Property-based tests for the ParallAX system components.

use parallax::arbiter::{FgId, HierarchicalArbiter};
use parallax::buffering::offloadable_fraction;
use parallax::fgcore::FgCoreType;
use parallax::schedule::fg_phase_timing;
use parallax_archsim::offchip::Link;
use parallax_trace::Kernel;
use proptest::prelude::*;

proptest! {
    #[test]
    fn arbiter_is_work_conserving_and_exclusive(
        cg in 1usize..8,
        fg in 1usize..64,
        demands in prop::collection::vec(0usize..40, 1..8)
    ) {
        let cg = cg.min(demands.len());
        let arb = HierarchicalArbiter::new(cg, fg);
        let demands = &demands[..cg];
        let grants = arb.assign(demands);

        // No FG core granted twice.
        let mut seen = std::collections::HashSet::new();
        for g in &grants {
            for id in g {
                prop_assert!(seen.insert(*id), "double grant {id:?}");
            }
        }
        // No CG core over-served.
        for (c, g) in grants.iter().enumerate() {
            prop_assert!(g.len() <= demands[c], "cg {c} over-served");
        }
        // Work conservation: granted == min(total demand, fg cores).
        let total_demand: usize = demands.iter().sum();
        prop_assert_eq!(seen.len(), total_demand.min(fg));
    }

    #[test]
    fn arbiter_balanced_demand_is_fully_local(cg in 1usize..8, per in 1usize..8) {
        let fg = cg * per;
        let arb = HierarchicalArbiter::new(cg, fg);
        let grants = arb.assign(&vec![per; cg]);
        // Fully local: CG core `c` is granted exactly its own group, the
        // FG ids `c * per .. (c + 1) * per`.
        for (c, granted) in grants.iter().enumerate() {
            let own: Vec<_> = (c * per..(c + 1) * per).map(|id| FgId(id as u32)).collect();
            prop_assert_eq!(granted, &own, "cg {}", c);
        }
    }

    #[test]
    fn fg_timing_monotone_in_tasks(tasks in 1usize..5000, extra in 1usize..2000) {
        let a = fg_phase_timing(Kernel::IslandSolver, FgCoreType::Shader, 64, Link::OnChipMesh, tasks);
        let b = fg_phase_timing(Kernel::IslandSolver, FgCoreType::Shader, 64, Link::OnChipMesh, tasks + extra);
        prop_assert!(b.total_cycles >= a.total_cycles);
    }

    #[test]
    fn fg_timing_monotone_in_cores(tasks in 1usize..5000, cores in 1usize..200) {
        let small = fg_phase_timing(Kernel::Cloth, FgCoreType::Console, cores, Link::OnChipMesh, tasks);
        let big = fg_phase_timing(Kernel::Cloth, FgCoreType::Console, cores * 2, Link::OnChipMesh, tasks);
        prop_assert!(big.total_cycles <= small.total_cycles);
    }

    #[test]
    fn fg_timing_looser_link_never_faster(tasks in 1usize..3000) {
        for kernel in Kernel::FG {
            let on = fg_phase_timing(kernel, FgCoreType::Shader, 150, Link::OnChipMesh, tasks);
            let htx = fg_phase_timing(kernel, FgCoreType::Shader, 150, Link::Htx, tasks);
            let pcie = fg_phase_timing(kernel, FgCoreType::Shader, 150, Link::Pcie, tasks);
            prop_assert!(on.total_cycles <= htx.total_cycles, "{kernel:?}");
            prop_assert!(htx.total_cycles <= pcie.total_cycles, "{kernel:?}");
        }
    }

    #[test]
    fn offloadable_fraction_bounds_and_monotone(
        sizes in prop::collection::vec(1usize..3000, 0..40),
        lo in 1usize..100,
        hi in 100usize..3000
    ) {
        let f_lo = offloadable_fraction(&sizes, lo);
        let f_hi = offloadable_fraction(&sizes, hi);
        prop_assert!((0.0..=1.0).contains(&f_lo));
        prop_assert!(f_hi <= f_lo, "raising the filter cannot increase offloadable work");
        prop_assert_eq!(offloadable_fraction(&sizes, 0), if sizes.is_empty() { 0.0 } else { 1.0 });
    }
}
