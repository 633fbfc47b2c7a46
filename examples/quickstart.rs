//! Quickstart: simulate a small rigid-body scene and time it on a
//! simulated desktop core.
//!
//! ```text
//! cargo run --release -p parallax-bench --example quickstart
//! ```

use parallax_archsim::config::MachineConfig;
use parallax_archsim::multicore::{MulticoreSim, SimOptions};
use parallax_math::Vec3;
use parallax_physics::{BodyDesc, PhaseKind, Shape, World, WorldConfig};
use parallax_trace::StepTrace;

fn main() {
    // 1. Build a world: a ground plane and a pyramid of boxes.
    let mut world = World::new(WorldConfig::default());
    world.add_static_geom(Shape::plane(Vec3::UNIT_Y, 0.0));
    let mut count = 0;
    for layer in 0..5 {
        let n = 5 - layer;
        for i in 0..n {
            world.add_body(
                BodyDesc::dynamic(Vec3::new(
                    (i as f32 - n as f32 / 2.0) * 1.05 + layer as f32 * 0.5,
                    0.5 + layer as f32 * 1.01,
                    0.0,
                ))
                .with_shape(Shape::cuboid(Vec3::splat(0.5)), 2.0),
            );
            count += 1;
        }
    }
    println!("Simulating a {count}-box pyramid...");

    // 2. Step the engine; every step returns a work profile.
    let mut profiles = Vec::new();
    for _ in 0..30 {
        profiles.push(world.step());
    }
    let last = profiles.last().expect("steps ran");
    println!(
        "after {} steps: {} contacts, {} islands, {} candidate pairs",
        world.step_count(),
        last.total_contacts(),
        last.islands.len(),
        last.pairs.len()
    );

    // 3. Feed the profiles through the architecture simulator (1 desktop
    //    core + 4 MB L2, paper Table 5) to get simulated time.
    let mut sim = MulticoreSim::new(MachineConfig::baseline(1, 4), SimOptions::default());
    let mut total_cycles = 0;
    for p in &profiles {
        let trace = StepTrace::from_profile(p);
        total_cycles += sim.run_step(&trace).total();
    }
    let seconds = total_cycles as f64 / 2.0e9;
    println!(
        "simulated: {total_cycles} cycles on one 2 GHz desktop core = {seconds:.6} s \
         for {} steps ({:.0} steps/s)",
        profiles.len(),
        profiles.len() as f64 / seconds
    );

    // 4. Each phase's share:
    let trace = StepTrace::from_profile(last);
    for phase in PhaseKind::ALL {
        println!(
            "  {:16} {:>9} instructions/step",
            phase.name(),
            trace.phase(phase).instructions()
        );
    }
}
