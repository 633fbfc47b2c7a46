//! Joints: permanent constraints (ball, hinge, slider, fixed) and the
//! transient contact joints created each step by narrow-phase.
//!
//! Breakable joints (paper §4, Table 2) accumulate applied load; when the
//! load exceeds a threshold — or one strong impulse does — the joint breaks
//! and is removed from the constraint graph.

use parallax_math::Vec3;
use serde::{Deserialize, Serialize};

use crate::body::BodyId;

/// Identifier of a joint inside a world.
#[derive(Debug, Clone, Copy, PartialEq, Eq, PartialOrd, Ord, Hash, Serialize, Deserialize)]
pub struct JointId(pub u32);

impl JointId {
    /// Returns the raw index.
    #[inline]
    pub fn index(self) -> usize {
        self.0 as usize
    }
}

/// The kind of a permanent joint.
#[derive(Debug, Clone, Copy, PartialEq, Serialize, Deserialize)]
pub enum JointKind {
    /// Ball-and-socket: anchors coincide (3 constraint rows).
    Ball {
        /// Anchor in body-A local space.
        anchor_a: Vec3,
        /// Anchor in body-B local space.
        anchor_b: Vec3,
    },
    /// Hinge: ball + rotation limited to one axis (5 rows).
    Hinge {
        /// Anchor in body-A local space.
        anchor_a: Vec3,
        /// Anchor in body-B local space.
        anchor_b: Vec3,
        /// Hinge axis in body-A local space (unit).
        axis_a: Vec3,
        /// Hinge axis in body-B local space (unit).
        axis_b: Vec3,
    },
    /// Slider: relative motion restricted to one translation axis (5 rows).
    ///
    /// Body B's origin may slide along `axis_a` through the anchor point
    /// `anchor_a` (both in body-A local space). The suspension spring in
    /// [`crate::WorldConfig`] acts on the displacement from the anchor.
    Slider {
        /// Slide axis in body-A local space (unit).
        axis_a: Vec3,
        /// Rest position of body B's origin, in body-A local space.
        anchor_a: Vec3,
    },
    /// Fixed: full weld of the two frames (6 rows).
    Fixed {
        /// Anchor in body-A local space.
        anchor_a: Vec3,
        /// Anchor in body-B local space.
        anchor_b: Vec3,
    },
}

impl JointKind {
    /// Number of degrees of freedom this joint removes (constraint rows).
    pub fn dof_removed(&self) -> usize {
        match self {
            JointKind::Ball { .. } => 3,
            JointKind::Hinge { .. } => 5,
            JointKind::Slider { .. } => 5,
            JointKind::Fixed { .. } => 6,
        }
    }

    /// A short stable name for traces.
    pub fn name(&self) -> &'static str {
        match self {
            JointKind::Ball { .. } => "ball",
            JointKind::Hinge { .. } => "hinge",
            JointKind::Slider { .. } => "slider",
            JointKind::Fixed { .. } => "fixed",
        }
    }
}

/// A permanent joint connecting two bodies.
#[derive(Debug, Clone, Serialize, Deserialize)]
pub struct Joint {
    pub(crate) kind: JointKind,
    pub(crate) body_a: BodyId,
    pub(crate) body_b: BodyId,
    /// Breaking threshold on per-step applied impulse magnitude; `None`
    /// means unbreakable.
    pub(crate) break_threshold: Option<f32>,
    /// Accumulated fatigue load (decays each step, grows with applied
    /// impulses).
    pub(crate) accumulated_load: f32,
    pub(crate) broken: bool,
    /// Impulse applied by the solver in the most recent step.
    pub(crate) last_impulse: f32,
}

impl Joint {
    /// Creates a joint of `kind` between two bodies.
    pub fn new(kind: JointKind, body_a: BodyId, body_b: BodyId) -> Self {
        Joint {
            kind,
            body_a,
            body_b,
            break_threshold: None,
            accumulated_load: 0.0,
            broken: false,
            last_impulse: 0.0,
        }
    }

    /// Makes the joint breakable at the given impulse threshold.
    pub fn breakable(mut self, threshold: f32) -> Self {
        debug_assert!(threshold > 0.0);
        self.break_threshold = Some(threshold);
        self
    }

    /// The joint kind.
    #[inline]
    pub fn kind(&self) -> &JointKind {
        &self.kind
    }

    /// First connected body.
    #[inline]
    pub fn body_a(&self) -> BodyId {
        self.body_a
    }

    /// Second connected body.
    #[inline]
    pub fn body_b(&self) -> BodyId {
        self.body_b
    }

    /// Whether the joint has broken.
    #[inline]
    pub fn is_broken(&self) -> bool {
        self.broken
    }

    /// Impulse magnitude the solver applied through this joint last step.
    #[inline]
    pub fn last_impulse(&self) -> f32 {
        self.last_impulse
    }

    /// Fatigue check (paper: "joints are broken by accumulation of force or
    /// a single strong force exceeding a predetermined threshold").
    ///
    /// Returns `true` if the joint breaks this step.
    pub(crate) fn update_break(&mut self, step_impulse: f32) -> bool {
        self.last_impulse = step_impulse;
        let Some(threshold) = self.break_threshold else {
            return false;
        };
        if self.broken {
            return false;
        }
        // Single-impulse break.
        if step_impulse > threshold {
            self.broken = true;
            return true;
        }
        // Fatigue: loads above 40% of the threshold accumulate; the rest
        // decays.
        let fatigue = (step_impulse - 0.4 * threshold).max(0.0);
        self.accumulated_load = (self.accumulated_load * 0.95 + fatigue).max(0.0);
        if self.accumulated_load > 3.0 * threshold {
            self.broken = true;
            return true;
        }
        false
    }

    /// Whether a step that loads the joint with no impulse leaves it
    /// exactly as it is: no fatigue left to decay, no impulse on record.
    pub(crate) fn is_unloaded(&self) -> bool {
        let mut next = self.clone();
        !next.update_break(0.0)
            && next.accumulated_load.to_bits() == self.accumulated_load.to_bits()
            && next.last_impulse.to_bits() == self.last_impulse.to_bits()
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    fn ball() -> JointKind {
        JointKind::Ball {
            anchor_a: Vec3::ZERO,
            anchor_b: Vec3::ZERO,
        }
    }

    #[test]
    fn dof_removed_per_kind() {
        assert_eq!(ball().dof_removed(), 3);
        assert_eq!(
            JointKind::Hinge {
                anchor_a: Vec3::ZERO,
                anchor_b: Vec3::ZERO,
                axis_a: Vec3::UNIT_X,
                axis_b: Vec3::UNIT_X,
            }
            .dof_removed(),
            5
        );
        assert_eq!(
            JointKind::Slider {
                axis_a: Vec3::UNIT_X,
                anchor_a: Vec3::ZERO,
            }
            .dof_removed(),
            5
        );
        assert_eq!(
            JointKind::Fixed {
                anchor_a: Vec3::ZERO,
                anchor_b: Vec3::ZERO
            }
            .dof_removed(),
            6
        );
    }

    #[test]
    fn unbreakable_joint_never_breaks() {
        let mut j = Joint::new(ball(), BodyId(0), BodyId(1));
        for _ in 0..1000 {
            assert!(!j.update_break(1e9));
        }
        assert!(!j.is_broken());
    }

    #[test]
    fn single_strong_impulse_breaks() {
        let mut j = Joint::new(ball(), BodyId(0), BodyId(1)).breakable(10.0);
        assert!(!j.update_break(9.0));
        assert!(j.update_break(11.0));
        assert!(j.is_broken());
        // Subsequent updates report no *new* break.
        assert!(!j.update_break(100.0));
    }

    #[test]
    fn fatigue_accumulates_to_break() {
        let mut j = Joint::new(ball(), BodyId(0), BodyId(1)).breakable(10.0);
        let mut broke = false;
        for _ in 0..100 {
            if j.update_break(8.0) {
                broke = true;
                break;
            }
        }
        assert!(broke, "sustained 80% load should fatigue the joint");
    }

    #[test]
    fn light_load_decays_without_breaking() {
        let mut j = Joint::new(ball(), BodyId(0), BodyId(1)).breakable(10.0);
        for _ in 0..10_000 {
            assert!(!j.update_break(3.0), "sub-threshold load must not break");
        }
    }
}
