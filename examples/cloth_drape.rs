//! Cloth: drape a 625-vertex cloth (the paper's "large" cloth) over a
//! sphere and report convergence of the constraint relaxation.
//!
//! ```text
//! cargo run --release -p parallax-bench --example cloth_drape
//! ```

use parallax_math::Vec3;
use parallax_physics::{BodyDesc, Cloth, PhaseKind, Shape, World, WorldConfig};

fn main() {
    let mut world = World::new(WorldConfig::default());
    world.add_static_geom(Shape::plane(Vec3::UNIT_Y, 0.0));

    // A heavy static sphere for the cloth to drape over.
    world.add_body(BodyDesc::fixed(Vec3::new(0.0, 1.2, 0.0)).with_shape(Shape::sphere(0.8), 1.0));

    // The paper's large cloth: 25 x 25 = 625 vertices.
    let cloth = Cloth::rectangle(Vec3::new(-1.5, 2.6, -1.5), 3.0, 3.0, 25, 25, &[]);
    let cid = world.add_cloth(cloth);
    println!(
        "cloth: {} vertices, {} length constraints, {} triangles",
        world.cloth(cid).vertices().len(),
        world.cloth(cid).constraints().len(),
        world.cloth(cid).triangles().len()
    );

    for frame in 0..40 {
        let profiles = world.step_frame();
        if frame % 8 == 0 {
            let c = world.cloth(cid);
            let low = c
                .vertices()
                .iter()
                .map(|v| v.pos.y)
                .fold(f32::INFINITY, f32::min);
            let err = c.constraint_error();
            let fg = profiles
                .iter()
                .map(|p| p.fg_tasks(PhaseKind::Cloth))
                .sum::<usize>();
            println!(
                "frame {frame:>2}: lowest vertex y={low:+.3} m, constraint error {err:.2e} m^2, \
                 {fg} FG vertex-tasks this frame, touching {} bodies",
                c.contact_bodies().len()
            );
        }
    }

    // The cloth must rest on the sphere, not inside it.
    let center = Vec3::new(0.0, 1.2, 0.0);
    let inside = world
        .cloth(cid)
        .vertices()
        .iter()
        .filter(|v| (v.pos - center).length() < 0.78)
        .count();
    println!("\nvertices penetrating the sphere: {inside} (expected 0)");
    let err = world.cloth(cid).constraint_error();
    println!(
        "final constraint error: {err:.2e} m^2 (relaxation converged: {})",
        err < 1e-3
    );
}
