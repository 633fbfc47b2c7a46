//! Rally: cars on a heightfield with obstacles — the Continuous-benchmark
//! ingredients assembled by hand, with multithreaded engine execution.
//!
//! ```text
//! cargo run --release -p parallax-bench --example rally
//! ```

use parallax_math::Vec3;
use parallax_physics::{World, WorldConfig};
use parallax_workloads::entities::{heightfield_terrain, spawn_car, trimesh_terrain};

fn main() {
    let cfg = WorldConfig {
        threads: 4, // persistent-worker parallel phases
        ..Default::default()
    };
    let mut world = World::new(cfg);

    heightfield_terrain(&mut world, 32, 32, 3.0, 0.5, 42);
    trimesh_terrain(&mut world, Vec3::new(20.0, 0.4, 0.0), 10.0, 12);

    let mut cars = Vec::new();
    for lane in 0..4 {
        let car = spawn_car(
            &mut world,
            Vec3::new(-20.0, 2.0, lane as f32 * 3.0 - 4.5),
            0.0,
            None,
        );
        cars.push(car);
    }
    println!(
        "4 cars on the start grid ({} bodies total)",
        world.bodies().len()
    );

    // Race for 4 simulated seconds.
    let mut wall = std::time::Duration::ZERO;
    for _ in 0..400 {
        for car in &cars {
            car.drive(&mut world, -220.0);
        }
        let t0 = std::time::Instant::now();
        world.step();
        wall += t0.elapsed();
    }

    println!(
        "\nafter {:.1}s simulated ({:?} wall, {} threads):",
        world.time(),
        wall,
        4
    );
    for (i, car) in cars.iter().enumerate() {
        let b = world.body(car.chassis);
        let p = b.position();
        let broken = car
            .joints
            .iter()
            .filter(|j| world.joint(**j).is_broken())
            .count();
        println!(
            "  car {i}: x={:+6.1} m  y={:+5.2} m  speed {:4.1} m/s  suspension {}",
            p.x,
            p.y,
            b.linear_velocity().length(),
            if broken == 0 {
                "intact".to_string()
            } else {
                format!("{broken} joints broken")
            }
        );
    }
    let leader = cars
        .iter()
        .enumerate()
        .max_by(|a, b| {
            world
                .body(a.1.chassis)
                .position()
                .x
                .total_cmp(&world.body(b.1.chassis).position().x)
        })
        .map(|(i, _)| i)
        .expect("cars exist");
    println!("\ncar {leader} leads the rally");
}
