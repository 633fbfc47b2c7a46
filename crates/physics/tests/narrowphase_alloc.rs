//! The narrow-phase region allocates nothing in steady state.
//!
//! A counting `#[global_allocator]` (this file is its own test binary, so
//! nothing else shares it) watches the thread that runs the stage:
//! classification, bucketing, every kernel and the emit pass must work
//! out of arenas that stopped growing after the first steps.

use std::alloc::{GlobalAlloc, Layout, System};
use std::cell::Cell;

use parallax_math::Vec3;
use parallax_physics::broadphase::{GridScratch, UniformGrid, GRID_CELL};
use parallax_physics::{BodyDesc, GeomId, Shape, World, WorldConfig};

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

/// Runs `f` and returns how many allocations this thread made inside it.
fn allocations_in(f: impl FnOnce()) -> u64 {
    ALLOCATIONS.with(|c| c.set(Some(0)));
    f();
    ALLOCATIONS
        .with(|c| c.replace(None))
        .expect("armed for the whole call")
}

#[test]
fn steady_state_narrow_phase_does_not_allocate() {
    // Box stacks side by side on a plane: face contacts with clipping,
    // box–plane corners, near misses between neighbouring stacks.
    let mut world = World::new(WorldConfig {
        threads: 1,
        ..Default::default()
    });
    world.add_static_geom(Shape::plane(Vec3::UNIT_Y, 0.0));
    for stack in 0..12 {
        for level in 0..6 {
            world.add_body(
                BodyDesc::dynamic(Vec3::new(
                    stack as f32 * 1.02,
                    0.5 + level as f32 * 1.001,
                    0.0,
                ))
                .with_shape(Shape::cuboid(Vec3::splat(0.5)), 1.0),
            );
        }
    }
    // Arena growth happens here.
    for _ in 0..30 {
        world.step();
    }

    let aabbs: Vec<_> = world
        .geoms()
        .iter()
        .enumerate()
        .map(|(i, g)| (GeomId(i as u32), g.aabb()))
        .collect();
    let mut candidates = Vec::new();
    UniformGrid::new(GRID_CELL).pairs_into(&aabbs, &mut candidates, &mut GridScratch::default());
    let (mut pairs, mut manifolds) = (Vec::new(), Vec::new());
    world.collide_candidates(&candidates, &mut pairs, &mut manifolds);
    let hits = manifolds.len();
    assert!(
        candidates.len() > 100 && hits > 70,
        "the stacks must be in contact: {} candidates, {hits} hits",
        candidates.len()
    );

    // The counter sees what this thread allocates.
    assert_eq!(
        allocations_in(|| drop(std::hint::black_box(vec![1u8; 64]))),
        1
    );

    for round in 0..5 {
        let mut contacts = 0;
        let n = allocations_in(|| {
            world.collide_candidates(&candidates, &mut pairs, &mut manifolds);
            contacts = manifolds.len();
        });
        assert!(contacts > 70, "round {round}: {contacts} hits");
        assert_eq!(n, 0, "round {round}: the narrow phase allocated {n} times");
        // Full steps in between keep the world moving through the same
        // arenas.
        world.step();
    }
}
