//! `World::coast_n(n)` is `n` calls to `World::step` on a coasting world.
//!
//! Twin worlds are restored to one settled state and stepped until they
//! coast; then one takes `n` single steps and the other one
//! `coast_n(n)`. They must agree on snapshot bytes, `world_digest`, the
//! gauges (the digest gauges hold the reference's final profile digests)
//! and the telemetry delta of every counter and histogram bucket. This
//! file is its own test binary with a single test, so nothing else
//! records into the registry while it measures.

use parallax_physics::{world_digest, StepProfile, World};
use parallax_telemetry as telemetry;
use parallax_workloads::{BenchmarkId, SceneParams, SessionWorld};

#[derive(Debug, Clone, Copy)]
enum Kind {
    Stacks,
    Resting,
}

impl Kind {
    fn build(self) -> World {
        match self {
            Kind::Stacks => SessionWorld::default().build(),
            Kind::Resting => {
                BenchmarkId::Resting
                    .build(&SceneParams {
                        scale: 0.1,
                        sleeping: true,
                        ..SceneParams::default()
                    })
                    .world
            }
        }
    }
}

/// Every profile field but the walls (`Debug` spells each float's bits).
fn without_walls(p: &StepProfile) -> String {
    format!(
        "{:?}",
        StepProfile {
            wall: Default::default(),
            ..p.clone()
        }
    )
}

fn step_until_coasting(w: &mut World, what: &str) {
    for _ in 0..400 {
        if w.coasts() {
            return;
        }
        w.step();
    }
    panic!("{what}: no coast within 400 steps");
}

#[test]
fn coast_n_is_n_steps() {
    telemetry::set_enabled(true);
    for kind in [Kind::Stacks, Kind::Resting] {
        let mut base = kind.build();
        let moving = base.snapshot();
        step_until_coasting(&mut base, &format!("{kind:?}"));
        let settled = base.snapshot();
        for threads in [1, 2] {
            for digests in [false, true] {
                let what = format!("{kind:?} threads={threads} digests={digests}");
                let [mut single, mut bulk] = [(); 2].map(|_| {
                    let mut w = kind.build();
                    let c = w.config_mut();
                    (c.threads, c.digests) = (threads, digests);
                    w.restore(&settled).expect("own snapshot");
                    step_until_coasting(&mut w, &what);
                    w
                });
                for n in [1, 2, 31, 32, 33, 1000] {
                    let what = format!("{what} n={n}");
                    let before = telemetry::snapshot();
                    let last = (0..n).map(|_| single.step()).last().expect("n > 0");
                    let stepped = telemetry::snapshot();
                    assert_eq!(bulk.coast_n(n), n, "{what}");
                    let coasted = telemetry::snapshot();

                    assert!(single.snapshot() == bulk.snapshot(), "{what}: snapshots");
                    assert_eq!(world_digest(&single), world_digest(&bulk), "{what}");
                    let (a, b) = (stepped.delta_since(&before), coasted.delta_since(&stepped));
                    assert_eq!(a.counters, b.counters, "{what}: counter deltas");
                    assert_eq!(a.histograms, b.histograms, "{what}: histogram deltas");
                    assert_eq!(stepped.gauges, coasted.gauges, "{what}: gauges");
                    assert_eq!(a.counter("physics.steps"), n, "{what}");
                    if let Some(final_digests) = last.digests {
                        for (phase, d) in parallax_physics::PhaseKind::ALL.iter().zip(final_digests)
                        {
                            let gauge = format!("physics.digest.{}", phase.name());
                            assert_eq!(coasted.gauge(&gauge), d, "{what}: {gauge}");
                        }
                    }
                    assert_eq!(last.digests.is_some(), digests, "{what}");
                    // And the coast goes on, in step.
                    let (a, b) = (single.step(), bulk.step());
                    assert_eq!(without_walls(&a), without_walls(&b), "{what}: next step");
                    assert!(b.wall.iter().all(|w| w.is_zero()), "{what}: not a coast");
                }
            }
        }
        // A world that would not coast is left alone.
        let mut w = kind.build();
        w.restore(&moving).expect("own snapshot");
        let bytes = w.snapshot();
        assert!(!w.coasts());
        assert_eq!(w.coast_n(10), 0, "{kind:?}");
        assert!(
            w.snapshot() == bytes,
            "{kind:?}: coast_n moved a moving world"
        );
    }
    telemetry::set_enabled(false);
}
