//! Vehicles: "a body, rotating wheels, and a suspension system of slider
//! joints" (paper Table 2).

use parallax_math::{Quat, Vec3};
use parallax_physics::{BodyDesc, BodyId, Joint, JointId, JointKind, Shape, World};

/// Handle to a spawned car: chassis + 4 (hub, wheel) pairs = 9 bodies,
/// 8 joints (4 suspension sliders + 4 wheel hinges).
#[derive(Debug, Clone)]
pub struct Car {
    /// The chassis body.
    pub chassis: BodyId,
    /// Suspension hub bodies (front-left, front-right, rear-left,
    /// rear-right).
    pub hubs: [BodyId; 4],
    /// Wheel bodies in the same order.
    pub wheels: [BodyId; 4],
    /// All 8 joints.
    pub joints: Vec<JointId>,
}

/// Spawns a car at `pos` (chassis centre), facing `yaw` radians about Y,
/// optionally with breakable suspension (threshold in impulse units).
pub fn spawn_car(world: &mut World, pos: Vec3, yaw: f32, breakable: Option<f32>) -> Car {
    let rot = Quat::from_axis_angle(Vec3::UNIT_Y, yaw);
    let chassis_half = Vec3::new(1.0, 0.25, 0.5);
    let chassis = world.add_body(
        BodyDesc::dynamic(pos)
            .with_rotation(rot)
            .with_shape(Shape::cuboid(chassis_half), 800.0)
            .with_damping(0.05, 0.3),
    );

    let wheel_r = 0.3;
    let mut hubs = Vec::with_capacity(4);
    let mut wheels = Vec::with_capacity(4);
    let mut joints = Vec::new();
    for (lx, lz) in [(0.7f32, 0.55f32), (0.7, -0.55), (-0.7, 0.55), (-0.7, -0.55)] {
        let hub_local = Vec3::new(lx, -0.25, lz);
        let hub_pos = pos + rot.rotate(hub_local);
        let hub = world.add_body(
            BodyDesc::dynamic(hub_pos)
                .with_rotation(rot)
                .with_shape(Shape::sphere(0.08), 25.0)
                .with_damping(0.1, 0.5),
        );
        // Suspension: vertical slider between chassis and hub, anchored at
        // the hub's rest position on the chassis.
        let mut slider = Joint::new(
            JointKind::Slider {
                axis_a: Vec3::UNIT_Y,
                anchor_a: hub_local,
            },
            chassis,
            hub,
        );
        if let Some(thr) = breakable {
            slider = slider.breakable(thr);
        }
        joints.push(world.add_joint(slider));

        let wheel_pos = hub_pos + rot.rotate(Vec3::new(0.0, -0.1, 0.0));
        let wheel = world.add_body(
            BodyDesc::dynamic(wheel_pos)
                .with_rotation(rot)
                .with_shape(Shape::sphere(wheel_r), 20.0)
                .with_damping(0.02, 0.05),
        );
        // Wheel spins about the car's local Z (lateral) axis.
        joints.push(world.add_joint(Joint::new(
            JointKind::Hinge {
                anchor_a: Vec3::new(0.0, -0.1, 0.0),
                anchor_b: Vec3::ZERO,
                axis_a: Vec3::UNIT_Z,
                axis_b: Vec3::UNIT_Z,
            },
            hub,
            wheel,
        )));
        // Wheels overlap the chassis skirt by design; exclude the pair so
        // an explosive chassis is not detonated by its own wheels.
        world.exclude_collision(chassis, wheel);
        hubs.push(hub);
        wheels.push(wheel);
    }
    // Hubs and wheels of the same car may brush each other; exclude them
    // all pairwise within the axle cluster.
    for i in 0..4 {
        for j in (i + 1)..4 {
            world.exclude_collision(hubs[i], hubs[j]);
            world.exclude_collision(wheels[i], wheels[j]);
            world.exclude_collision(hubs[i], wheels[j]);
            world.exclude_collision(wheels[i], hubs[j]);
        }
    }

    Car {
        chassis,
        hubs: hubs.try_into().expect("4 hubs"),
        wheels: wheels.try_into().expect("4 wheels"),
        joints,
    }
}

impl Car {
    /// Drives the car by spinning its wheels (crude torque drive).
    pub fn drive(&self, world: &mut World, torque: f32) {
        for w in self.wheels {
            let axis = world
                .body(self.chassis)
                .transform()
                .apply_vector(Vec3::UNIT_Z);
            world.body_mut(w).add_torque(axis * torque);
        }
    }

    /// Sets the whole car's velocity (used for ramming scenarios).
    pub fn set_velocity(&self, world: &mut World, v: Vec3) {
        for id in std::iter::once(self.chassis)
            .chain(self.hubs.iter().copied())
            .chain(self.wheels.iter().copied())
        {
            world.body_mut(id).set_linear_velocity(v);
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use parallax_physics::WorldConfig;

    #[test]
    fn car_has_expected_composition() {
        let mut w = World::new(WorldConfig::default());
        let c = spawn_car(&mut w, Vec3::new(0.0, 1.0, 0.0), 0.0, None);
        assert_eq!(c.joints.len(), 8);
        // Chassis, four hubs, four wheels.
        assert_eq!(w.bodies().len(), 9);
    }

    #[test]
    fn car_rests_on_plane_without_collapsing() {
        let mut w = World::new(WorldConfig::default());
        w.add_static_geom(Shape::plane(Vec3::UNIT_Y, 0.0));
        let c = spawn_car(&mut w, Vec3::new(0.0, 0.8, 0.0), 0.0, None);
        for _ in 0..300 {
            w.step();
        }
        let chassis_y = w.body(c.chassis).position().y;
        assert!(
            chassis_y > 0.4 && chassis_y < 1.2,
            "chassis settled at {chassis_y}"
        );
        // Suspension intact.
        for j in &c.joints {
            assert!(!w.joint(*j).is_broken());
        }
    }

    #[test]
    fn driven_car_moves_forward() {
        let mut w = World::new(WorldConfig::default());
        w.add_static_geom(Shape::plane(Vec3::UNIT_Y, 0.0));
        let c = spawn_car(&mut w, Vec3::new(0.0, 0.8, 0.0), 0.0, None);
        for _ in 0..100 {
            w.step();
        }
        let x0 = w.body(c.chassis).position().x;
        for _ in 0..200 {
            c.drive(&mut w, -60.0);
            w.step();
        }
        let x1 = w.body(c.chassis).position().x;
        assert!((x1 - x0).abs() > 0.3, "car did not move: {x0} -> {x1}");
    }
}
