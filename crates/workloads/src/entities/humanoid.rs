//! Articulated virtual humans: "16 segments of anthropomorphic dimensions"
//! connected by ideal joints (paper Table 2).

use parallax_math::{Quat, Vec3};
use parallax_physics::{BodyDesc, BodyId, Joint, JointId, JointKind, Shape, World};

/// Handle to a spawned humanoid.
#[derive(Debug, Clone)]
pub struct Humanoid {
    /// All 16 segment bodies; `segments[0]` is the pelvis (root).
    pub segments: Vec<BodyId>,
    /// The 15 connecting joints.
    pub joints: Vec<JointId>,
}

/// Segment description: name, capsule (radius, half-length), offset of the
/// segment centre from the pelvis, parent index, and joint anchor (world
/// offset from pelvis).
struct Seg {
    name: &'static str,
    radius: f32,
    half_len: f32,
    offset: Vec3,
    parent: usize,
    anchor: Vec3,
}

/// Anthropomorphic segment table (metres), standing pose, pelvis at origin.
/// 16 segments: pelvis, lower torso, upper torso, head, and L/R
/// {upper arm, forearm, hand, thigh, shin, foot}.
fn segment_table() -> Vec<Seg> {
    let mut t = vec![
        Seg {
            name: "pelvis",
            radius: 0.12,
            half_len: 0.08,
            offset: Vec3::new(0.0, 1.0, 0.0),
            parent: usize::MAX,
            anchor: Vec3::ZERO,
        },
        Seg {
            name: "lower_torso",
            radius: 0.12,
            half_len: 0.10,
            offset: Vec3::new(0.0, 1.22, 0.0),
            parent: 0,
            anchor: Vec3::new(0.0, 1.11, 0.0),
        },
        Seg {
            name: "upper_torso",
            radius: 0.13,
            half_len: 0.12,
            offset: Vec3::new(0.0, 1.46, 0.0),
            parent: 1,
            anchor: Vec3::new(0.0, 1.34, 0.0),
        },
        Seg {
            name: "head",
            radius: 0.10,
            half_len: 0.05,
            offset: Vec3::new(0.0, 1.72, 0.0),
            parent: 2,
            anchor: Vec3::new(0.0, 1.62, 0.0),
        },
    ];
    for (side, sx) in [("l", -1.0f32), ("r", 1.0f32)] {
        let _ = side;
        t.push(Seg {
            name: "upper_arm",
            radius: 0.05,
            half_len: 0.14,
            offset: Vec3::new(sx * 0.25, 1.38, 0.0),
            parent: 2,
            anchor: Vec3::new(sx * 0.2, 1.52, 0.0),
        });
        let ua = t.len() - 1;
        t.push(Seg {
            name: "forearm",
            radius: 0.04,
            half_len: 0.13,
            offset: Vec3::new(sx * 0.25, 1.06, 0.0),
            parent: ua,
            anchor: Vec3::new(sx * 0.25, 1.22, 0.0),
        });
        let fa = t.len() - 1;
        t.push(Seg {
            name: "hand",
            radius: 0.04,
            half_len: 0.05,
            offset: Vec3::new(sx * 0.25, 0.86, 0.0),
            parent: fa,
            anchor: Vec3::new(sx * 0.25, 0.92, 0.0),
        });
        t.push(Seg {
            name: "thigh",
            radius: 0.07,
            half_len: 0.18,
            offset: Vec3::new(sx * 0.1, 0.68, 0.0),
            parent: 0,
            anchor: Vec3::new(sx * 0.1, 0.9, 0.0),
        });
        let th = t.len() - 1;
        t.push(Seg {
            name: "shin",
            radius: 0.05,
            half_len: 0.17,
            offset: Vec3::new(sx * 0.1, 0.28, 0.0),
            parent: th,
            anchor: Vec3::new(sx * 0.1, 0.47, 0.0),
        });
        let sh = t.len() - 1;
        t.push(Seg {
            name: "foot",
            radius: 0.04,
            half_len: 0.07,
            offset: Vec3::new(sx * 0.1, 0.06, 0.05),
            parent: sh,
            anchor: Vec3::new(sx * 0.1, 0.1, 0.0),
        });
    }
    t
}

/// Spawns a 16-segment humanoid standing at `pos` (feet near the ground),
/// rotated `yaw` radians about Y, with total mass ~70 kg.
///
/// Each joint is a ball joint; the knees and elbows are hinges, matching
/// the constrained-rigid-body feature of the paper's suite.
pub fn spawn_humanoid(world: &mut World, pos: Vec3, yaw: f32) -> Humanoid {
    let rot = Quat::from_axis_angle(Vec3::UNIT_Y, yaw);
    let table = segment_table();
    let total_volume: f32 = table
        .iter()
        .map(|s| Shape::capsule(s.radius, s.half_len).volume())
        .sum();
    let density = 70.0 / total_volume;

    let mut segments = Vec::with_capacity(table.len());
    for seg in &table {
        let shape = Shape::capsule(seg.radius, seg.half_len);
        let mass = shape.volume() * density;
        let world_pos = pos + rot.rotate(seg.offset);
        let id = world.add_body(
            BodyDesc::dynamic(world_pos)
                .with_rotation(rot)
                .with_shape(shape, mass)
                .with_damping(0.05, 0.2),
        );
        segments.push(id);
    }

    let mut joints = Vec::with_capacity(table.len() - 1);
    for (i, seg) in table.iter().enumerate() {
        if seg.parent == usize::MAX {
            continue;
        }
        let parent_seg = &table[seg.parent];
        let anchor_world = pos + rot.rotate(seg.anchor);
        let parent_pos = pos + rot.rotate(parent_seg.offset);
        let child_pos = pos + rot.rotate(seg.offset);
        let rot_inv = rot.conjugate();
        let anchor_a = rot_inv.rotate(anchor_world - parent_pos);
        let anchor_b = rot_inv.rotate(anchor_world - child_pos);
        // Knees, elbows: hinges about local X; everything else: balls.
        let kind = if seg.name == "shin" || seg.name == "forearm" {
            JointKind::Hinge {
                anchor_a,
                anchor_b,
                axis_a: Vec3::UNIT_X,
                axis_b: Vec3::UNIT_X,
            }
        } else {
            JointKind::Ball { anchor_a, anchor_b }
        };
        joints.push(world.add_joint(Joint::new(kind, segments[seg.parent], segments[i])));
    }

    Humanoid { segments, joints }
}

impl Humanoid {
    /// Applies a punch/shove impulse through the root, used by the combat
    /// scenes to keep groups interacting.
    pub fn shove(&self, world: &mut World, impulse: Vec3) {
        let root = self.segments[0];
        let p = world.body(root).position();
        world.body_mut(root).apply_impulse_at(impulse, p);
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use parallax_physics::WorldConfig;

    #[test]
    fn humanoid_has_sixteen_segments_fifteen_joints() {
        let mut w = World::new(WorldConfig::default());
        let h = spawn_humanoid(&mut w, Vec3::ZERO, 0.0);
        assert_eq!(h.segments.len(), 16);
        assert_eq!(h.joints.len(), 15);
    }

    #[test]
    fn humanoid_mass_is_anthropomorphic() {
        let mut w = World::new(WorldConfig::default());
        let h = spawn_humanoid(&mut w, Vec3::ZERO, 0.0);
        let total: f32 = h.segments.iter().map(|s| w.body(*s).mass()).sum();
        assert!((total - 70.0).abs() < 1.0, "total mass {total}");
    }

    #[test]
    fn ragdoll_falls_but_stays_connected() {
        let mut w = World::new(WorldConfig::default());
        w.add_static_geom(Shape::plane(Vec3::UNIT_Y, 0.0));
        let h = spawn_humanoid(&mut w, Vec3::new(0.0, 0.5, 0.0), 0.3);
        for _ in 0..150 {
            w.step();
        }
        // The head must stay within ~2 body lengths of the pelvis.
        let pelvis = w.body(h.segments[0]).position();
        let head = w.body(h.segments[3]).position();
        assert!(
            pelvis.distance(head) < 1.5,
            "ragdoll came apart: pelvis {pelvis:?}, head {head:?}"
        );
        // And nothing sank below the floor.
        for s in &h.segments {
            assert!(w.body(*s).position().y > -0.2);
        }
    }
}
