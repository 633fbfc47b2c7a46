//! A whole step allocates what its profile owns and nothing else.
//!
//! A counting `#[global_allocator]` (this file is its own test binary, so
//! nothing else shares it) watches the thread that steps two same-shaped
//! worlds in turn. Every buffer a step fills and no later step reads is
//! the thread's step scratch, so once the scratch has grown, a full step
//! of either world allocates exactly the vectors of the `StepProfile` it
//! returns: the pair records, the island records and each island's
//! body and joint lists, and the cloth records — one allocation for each
//! that is not empty.
//!
//! Allocations that remain in a step, and why; none happens in the
//! measured steps:
//!
//! * an island falling asleep parks its bodies and manifolds in the
//!   world's sleep table (state, kept until the island wakes);
//! * a detonation or a shatter lists the bodies it affects, and a
//!   detonation adds a blast body (new state);
//! * the coast cache clones the profile of the step that arms it;
//! * any buffer, of the world or of the scratch, that a step needs larger
//!   than it has been, and the step scratch regrowing after the world that
//!   last stepped on the thread was dropped there.

use std::alloc::{GlobalAlloc, Layout, System};
use std::cell::Cell;

use parallax_math::Vec3;
use parallax_physics::{BodyDesc, BodyId, Shape, StepProfile, World, WorldConfig};

struct Counting;

thread_local! {
    /// Allocations (and reallocations) made by this thread while armed.
    static ALLOCATIONS: Cell<Option<u64>> = const { Cell::new(None) };
}

fn count_one() {
    // `try_with`: the allocator also runs while a thread tears down.
    let _ = ALLOCATIONS.try_with(|c| {
        if let Some(n) = c.get() {
            c.set(Some(n + 1));
        }
    });
}

// SAFETY: defers every call to `System` unchanged; the counter is a
// thread-local `Cell` with a const initialiser and no destructor, so
// touching it never allocates or re-enters the allocator.
unsafe impl GlobalAlloc for Counting {
    unsafe fn alloc(&self, layout: Layout) -> *mut u8 {
        count_one();
        System.alloc(layout)
    }

    unsafe fn dealloc(&self, ptr: *mut u8, layout: Layout) {
        System.dealloc(ptr, layout)
    }

    unsafe fn realloc(&self, ptr: *mut u8, layout: Layout, new_size: usize) -> *mut u8 {
        count_one();
        System.realloc(ptr, layout, new_size)
    }
}

#[global_allocator]
static ALLOCATOR: Counting = Counting;

/// Runs `f` and returns its result and how many allocations this thread
/// made inside it.
fn allocations_in<R>(f: impl FnOnce() -> R) -> (R, u64) {
    ALLOCATIONS.with(|c| c.set(Some(0)));
    let r = f();
    let n = ALLOCATIONS
        .with(|c| c.replace(None))
        .expect("armed for the whole call");
    (r, n)
}

const STACKS: u32 = 8;
const LEVELS: u32 = 5;

/// Box stacks side by side on a plane, sleeping on, one thread.
fn stacks() -> World {
    let mut world = World::new(WorldConfig {
        threads: 1,
        sleeping: true,
        ..Default::default()
    });
    world.add_static_geom(Shape::plane(Vec3::UNIT_Y, 0.0));
    for stack in 0..STACKS {
        for level in 0..LEVELS {
            world.add_body(
                BodyDesc::dynamic(Vec3::new(
                    stack as f32 * 1.5,
                    0.5 + level as f32 * 1.001,
                    0.0,
                ))
                .with_shape(Shape::cuboid(Vec3::splat(0.5)), 1.0),
            );
        }
    }
    world
}

/// The allocations a profile's owned vectors account for.
fn owned_allocations(p: &StepProfile) -> u64 {
    let nonempty = |len: usize| (len > 0) as u64;
    nonempty(p.pairs.len())
        + nonempty(p.islands.len())
        + (p.islands.iter())
            .map(|w| nonempty(w.bodies.len()) + nonempty(w.joints.len()))
            .sum::<u64>()
        + nonempty(p.cloths.len())
}

#[test]
fn a_step_allocates_what_its_profile_owns() {
    let mut worlds = [stacks(), stacks()];
    // Settle both, stepping them in turn as the measured rounds will.
    for _ in 0..400 {
        for w in &mut worlds {
            w.step();
        }
    }
    let asleep = (STACKS * LEVELS) as usize;
    assert!(
        worlds.iter().all(|w| w.sleeping_body_count() == asleep),
        "the stacks must settle"
    );
    // Wake every other stack: their islands are solved again while the
    // rest stay parked in the sleep table.
    for w in &mut worlds {
        for stack in (0..STACKS).step_by(2) {
            w.wake_body(BodyId(stack * LEVELS));
        }
    }

    // The counter sees what this thread allocates.
    assert_eq!(
        allocations_in(|| drop(std::hint::black_box(vec![1u8; 64]))).1,
        1
    );

    // Two warm-up rounds regrow the scratch the settled steps let go.
    for _ in 0..2 {
        for w in &mut worlds {
            w.step();
        }
    }
    for round in 0..12 {
        for (k, w) in worlds.iter_mut().enumerate() {
            let (profile, n) = allocations_in(|| w.step());
            let live = (STACKS / 2) as usize;
            assert_eq!(
                profile.islands.len(),
                live,
                "round {round}, world {k}: the woken stacks are live islands"
            );
            assert!(
                profile.wall.iter().any(|wall| !wall.is_zero()),
                "a full step"
            );
            assert_eq!(
                n,
                owned_allocations(&profile),
                "round {round}, world {k}: the step allocated {n} times, its profile owns {}",
                owned_allocations(&profile)
            );
        }
    }
}
