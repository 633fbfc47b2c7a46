//! Design-space exploration: sweep FG core types, pool sizes and
//! interconnects for a Mix-like workload and print the frontier —
//! the paper's §8 study driven through the public API.
//!
//! ```text
//! cargo run --release -p parallax-bench --example design_space
//! ```

use parallax::arch::ParallaxSystem;
use parallax::area::pool_area_mm2;
use parallax::explore::{cores_required_simulated, FgWorkload};
use parallax::fgcore::FgCoreType;
use parallax_archsim::offchip::Link;
use parallax_workloads::{BenchmarkId, SceneParams};

fn main() {
    // Measure the Mix benchmark's FG workload at reduced scale for a
    // snappy example run (use the bench harness for full scale).
    let params = SceneParams {
        scale: 0.34,
        ..Default::default()
    };
    let mut scene = BenchmarkId::Mix.build(&params);
    let profiles = scene.run_measured(3, 2);
    let workload = FgWorkload::from_profiles(&profiles[0..3]);
    println!(
        "Mix @ scale {:.2}: {} pair tasks, {} solver DOF, {} cloth vertices per frame\n",
        params.scale, workload.narrowphase_tasks, workload.island_tasks, workload.cloth_tasks
    );

    // 1. Minimum pool per core type and link for 30 FPS with 32% of the
    //    frame available to FG work.
    println!(
        "{:<12} {:>8} {:>8} {:>8}   (FG cores for 30 FPS)",
        "Core", "mesh", "HTX", "PCIe"
    );
    for core in FgCoreType::REALISTIC {
        let need = |link| {
            cores_required_simulated(core, link, &workload, 0.32)
                .map(|n| n.to_string())
                .unwrap_or_else(|| "-".into())
        };
        println!(
            "{:<12} {:>8} {:>8} {:>8}",
            core.name(),
            need(Link::OnChipMesh),
            need(Link::Htx),
            need(Link::Pcie)
        );
    }

    // 2. Area-performance frontier at fixed pool sizes.
    println!(
        "\n{:<12} {:>6} {:>10} {:>8}",
        "Core", "pool", "area mm2", "FPS"
    );
    for core in FgCoreType::REALISTIC {
        for pool in [16usize, 64, 150] {
            let mut sys = ParallaxSystem::new(4, core, pool, Link::OnChipMesh);
            let _ = sys.simulate_steps(&profiles); // warm caches
            let r = sys.simulate_steps(&profiles[0..3]);
            println!(
                "{:<12} {:>6} {:>10.0} {:>8.0}",
                core.name(),
                pool,
                pool_area_mm2(core, pool),
                r.fps()
            );
        }
    }
    println!("\nThe shader pool dominates on area-efficiency — the paper's conclusion.");
}
