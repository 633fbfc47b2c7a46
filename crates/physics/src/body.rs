//! Rigid-body identity, behaviour flags and the body-description builder.
//!
//! The dynamic state itself (position, velocities, mass properties) lives
//! in the structure-of-arrays [`crate::store::BodyStore`]; this module
//! keeps the stable identifiers ([`BodyId`], [`BodyFlags`]) and the
//! builder ([`BodyDesc`]) used to add bodies to a world.

use parallax_math::{Mat3, Quat, Transform, Vec3};
use serde::{Deserialize, Serialize};

use crate::shape::Shape;

/// Identifier of a rigid body inside a [`crate::World`].
///
/// Indexes are stable for the lifetime of the world (bodies are disabled, not
/// removed).
#[derive(Debug, Clone, Copy, PartialEq, Eq, PartialOrd, Ord, Hash, Serialize, Deserialize)]
pub struct BodyId(pub u32);

impl BodyId {
    /// Returns the raw index.
    #[inline]
    pub fn index(self) -> usize {
        self.0 as usize
    }
}

// A tiny local bitflags implementation so we do not need the bitflags crate.
macro_rules! bitflags_lite {
    (
        $(#[$meta:meta])*
        pub struct $name:ident: $ty:ty {
            $( $(#[$fmeta:meta])* const $flag:ident = $value:expr; )*
        }
    ) => {
        $(#[$meta])*
        #[derive(Debug, Default, Clone, Copy, PartialEq, Eq, Hash, Serialize, Deserialize)]
        pub struct $name(pub $ty);

        impl $name {
            $( $(#[$fmeta])* pub const $flag: $name = $name($value); )*

            /// The empty flag set.
            pub const fn empty() -> Self { $name(0) }
            /// Returns `true` if all bits of `other` are set.
            #[inline]
            pub const fn contains(self, other: $name) -> bool {
                (self.0 & other.0) == other.0
            }
            /// Sets the bits of `other`.
            #[inline]
            pub fn insert(&mut self, other: $name) { self.0 |= other.0; }
            /// Clears the bits of `other`.
            #[inline]
            pub fn remove(&mut self, other: $name) { self.0 &= !other.0; }
        }

        impl std::ops::BitOr for $name {
            type Output = $name;
            #[inline]
            fn bitor(self, rhs: $name) -> $name { $name(self.0 | rhs.0) }
        }
    };
}

bitflags_lite! {
    /// Behavioural flags on a body.
    pub struct BodyFlags: u32 {
        /// Body never moves; it still participates in collision detection.
        const STATIC = 1 << 0;
        /// Body is currently disabled (e.g. unbroken debris) and is skipped
        /// by every phase.
        const DISABLED = 1 << 1;
        /// Explosive payload: replaced by a blast volume on first contact.
        const EXPLOSIVE = 1 << 2;
        /// This body is a blast volume (sphere) created by an explosion.
        const BLAST_VOLUME = 1 << 3;
        /// Pre-fractured: shatters into debris inside a blast volume.
        const PREFRACTURED = 1 << 4;
        /// Debris piece belonging to a pre-fractured object.
        const DEBRIS = 1 << 5;
        /// Body is asleep: its island is fully at rest, so integration,
        /// narrowphase and solving are skipped until a wake event
        /// (contact with an awake body, joint neighbour wake, blast,
        /// user impulse). Set and cleared only by the serial sleep/wake
        /// passes so trajectories stay deterministic.
        const SLEEPING = 1 << 6;
    }
}

/// Builder-style description of a rigid body to add to the world.
///
/// # Examples
///
/// ```
/// use parallax_physics::{BodyDesc, Shape};
/// use parallax_math::Vec3;
///
/// let desc = BodyDesc::dynamic(Vec3::new(0.0, 2.0, 0.0))
///     .with_shape(Shape::cuboid(Vec3::splat(0.5)), 10.0)
///     .with_velocity(Vec3::new(1.0, 0.0, 0.0));
/// ```
#[derive(Debug, Clone)]
pub struct BodyDesc {
    pub(crate) position: Vec3,
    pub(crate) rotation: Quat,
    pub(crate) lin_vel: Vec3,
    pub(crate) ang_vel: Vec3,
    pub(crate) shapes: Vec<(Shape, Transform)>,
    pub(crate) mass: f32,
    pub(crate) flags: BodyFlags,
    pub(crate) linear_damping: f32,
    pub(crate) angular_damping: f32,
}

impl BodyDesc {
    /// Starts describing a dynamic body at `position`.
    pub fn dynamic(position: Vec3) -> Self {
        BodyDesc {
            position,
            rotation: Quat::IDENTITY,
            lin_vel: Vec3::ZERO,
            ang_vel: Vec3::ZERO,
            shapes: Vec::new(),
            mass: 1.0,
            flags: BodyFlags::empty(),
            linear_damping: 0.0,
            angular_damping: 0.01,
        }
    }

    /// Starts describing a static (immovable) body at `position`.
    pub fn fixed(position: Vec3) -> Self {
        let mut d = BodyDesc::dynamic(position);
        d.flags.insert(BodyFlags::STATIC);
        d
    }

    /// Attaches a collision shape at the body origin and sets total mass.
    ///
    /// The mass of the *body* becomes `mass` (shapes do not accumulate mass
    /// separately; the last call wins for the inertia-defining shape).
    pub fn with_shape(mut self, shape: Shape, mass: f32) -> Self {
        self.shapes.push((shape, Transform::IDENTITY));
        self.mass = mass;
        self
    }

    /// Attaches an additional collision shape at a local offset.
    pub fn with_shape_at(mut self, shape: Shape, local: Transform) -> Self {
        self.shapes.push((shape, local));
        self
    }

    /// Sets the initial orientation.
    pub fn with_rotation(mut self, rotation: Quat) -> Self {
        self.rotation = rotation;
        self
    }

    /// Sets the initial linear velocity.
    pub fn with_velocity(mut self, v: Vec3) -> Self {
        self.lin_vel = v;
        self
    }

    /// Ors in extra behaviour flags (e.g. [`BodyFlags::EXPLOSIVE`]).
    pub fn with_flags(mut self, flags: BodyFlags) -> Self {
        self.flags.insert(flags);
        self
    }

    /// Sets velocity damping factors (per second).
    pub fn with_damping(mut self, linear: f32, angular: f32) -> Self {
        self.linear_damping = linear;
        self.angular_damping = angular;
        self
    }

    /// Computes `(inv_mass, inv_inertia_local)` for the described body.
    /// Inertia comes from the first shape (or a unit sphere when the body
    /// has no shape).
    pub(crate) fn mass_properties(&self) -> (f32, Mat3) {
        let is_static = self.flags.contains(BodyFlags::STATIC);
        if is_static {
            (0.0, Mat3::ZERO)
        } else {
            let mass = self.mass.max(1e-6);
            let inertia = match self.shapes.first() {
                Some((shape, _)) => shape.unit_inertia().scaled(mass),
                None => Mat3::from_diagonal(Vec3::splat(0.4 * mass)),
            };
            let inv = inertia.inverse().unwrap_or(Mat3::IDENTITY);
            (1.0 / mass, inv)
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn mass_properties_of_dynamic_and_static() {
        let (im, inertia) = BodyDesc::dynamic(Vec3::ZERO)
            .with_shape(Shape::sphere(1.0), 2.0)
            .mass_properties();
        assert!((im - 0.5).abs() < 1e-6);
        assert!(inertia.determinant() > 0.0);
        let (im, inertia) = BodyDesc::fixed(Vec3::ZERO)
            .with_shape(Shape::sphere(1.0), 2.0)
            .mass_properties();
        assert_eq!(im, 0.0);
        assert_eq!(inertia, Mat3::ZERO);
    }

    #[test]
    fn shapeless_body_gets_sphere_like_inertia() {
        let (im, inertia) = BodyDesc::dynamic(Vec3::ZERO).mass_properties();
        assert!((im - 1.0).abs() < 1e-6);
        let d = inertia.diagonal();
        assert!((d.x - 2.5).abs() < 1e-5 && (d.y - 2.5).abs() < 1e-5);
    }

    #[test]
    fn flags_work() {
        let mut f = BodyFlags::empty();
        f.insert(BodyFlags::EXPLOSIVE);
        assert!(f.contains(BodyFlags::EXPLOSIVE));
        assert!(!f.contains(BodyFlags::STATIC));
        f.remove(BodyFlags::EXPLOSIVE);
        assert_eq!(f, BodyFlags::empty());
        let both = BodyFlags::STATIC | BodyFlags::DISABLED;
        assert!(both.contains(BodyFlags::STATIC) && both.contains(BodyFlags::DISABLED));
    }
}
