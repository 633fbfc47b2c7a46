#!/usr/bin/env bash
# Tier-1 verify: build, test, format, lint. Run from the repo root.
set -euo pipefail
cd "$(dirname "$0")/.."

cargo build --release --offline
# The benchmark (`benchmark/`) is a package of its own with its own
# lockfile, so nothing above compiles it: build what `benchmark/run.sh`
# builds and run its harness tests, which drive every workload at
# reduced size against the `BENCHMARK.json` contract.
cargo build --release --offline --manifest-path benchmark/Cargo.toml
cargo test --offline --manifest-path benchmark/Cargo.toml
# One pass runs every suite; the ones later stanzas lean on:
#   determinism            threads x SIMD x sleeping x warm start, as an
#                          in-process RunConfig matrix (tests/determinism.rs);
#   simd_equivalence       every SIMD mode against the reference solve;
#   sleeping               prefix equivalence, wake reconvergence, monitor
#                          cleanliness of the island-sleeping fast path;
#   snapshot_roundtrip     snapshot -> restore bit-identical on Mix, random
#                          worlds and the cross thread/SIMD grid;
#   broadphase_equivalence the refreshed AABBs against a recomputation,
#                          and the grid's candidates and counts against
#                          sweep-and-prune and the reference grid on the
#                          same AABB list, after every step of Mix,
#                          Breakable and Explosions (sleeping on and off,
#                          through a shatter, a mid-run restore, an enable
#                          toggle and a teleported dormant body); run
#                          again in release below;
#   golden_digests         trajectories and every simulated statistic of
#                          Mix and Explosions pinned across commits;
#   archsim properties     the division-free, hash-free hierarchy against a
#                          naive reference, access for access;
#   env_inert              the retired variables change nothing.
cargo test -q --offline
# The math kernels once more in the release profile: constant folding
# there is what a width-equivalence test must survive (a folded scalar
# NaN and a `divps` NaN differ in payload; the tests compare NaN-ness).
cargo test --release -q --offline -p parallax-math
cargo fmt --check
cargo clippy --workspace --offline --all-targets -- -D warnings
# Rustdoc with warnings as errors: a deleted or private item must not
# leave a dangling intra-doc link behind.
RUSTDOCFLAGS="-D warnings" cargo doc --offline --no-deps --workspace

# The rule the run configuration rests on: nothing below a `main` reads
# the environment, and no retired variable name comes back. The one
# exemption is the table of retired names in the env-inert test.
if grep -rnE 'PARALLAX[_][A-Z]|env::va[r]' crates tests examples scripts \
    --exclude=env_inert.rs; then
    echo "verify: environment read or retired variable name (see above)" >&2
    exit 1
fi

# Hot-kernel microbench smoke (integrator sweep, PGS rows, cloth
# relaxation at each SIMD width) — quick shapes, just proves the bench
# harness and every dispatch path still run.
cargo bench --offline -p parallax-bench --bench kernels -- --quick
# ... and the simulator's: cache, predictor, core model, captured steps
# replayed through a warmed hierarchy, trace generation.
cargo bench --offline -p parallax-bench --bench archsim_components -- --quick
# ... and the narrow phase's: every per-pair kernel case and the whole
# stage over a Mix-shaped and an Explosions-shaped candidate list at each
# SIMD width (the trailing word filters the bench labels) ...
cargo bench --offline -p parallax-bench --bench physics_kernels -- --quick narrowphase
# ... and the cloth step's: Mix's drape and uniform at the resolved SIMD
# mode, bare and against a Mix-shaped collider set (ns per projection, ns
# per collision test) ...
cargo bench --offline -p parallax-bench --bench physics_kernels -- --quick cloth
# ... and the broad phase's: synthetic clouds, plus Mix's own AABB lists
# of steps 13-60 replayed through a grid warmed with step 12 (ns per step).
cargo bench --offline -p parallax-bench --bench physics_kernels -- --quick broadphase

# Telemetry smoke: record 10 Mix steps through the JSONL sink, then
# validate the stream (parses, all five phases present, nonzero walls)
# and the Chrome-trace conversion. `--check-phases` exits nonzero on
# any violation.
tmp="$(mktemp -d)"
trap 'rm -rf "$tmp"' EXIT
cargo run --release --offline -q -p parallax-bench --bin run_scene -- \
    --scene Mix --steps 10 --scale 0.15 --config threads=2 --telemetry "$tmp/mix.jsonl"
cargo run --release --offline -q -p parallax-bench --bin telemetry_report -- \
    "$tmp/mix.jsonl" --check-phases --chrome "$tmp/trace.json" >/dev/null
test -s "$tmp/trace.json"

# Guard bench for the disabled-telemetry hot path (compare against a
# `--features no-telemetry` run to bound the overhead; see DESIGN.md).
cargo bench --offline -p parallax-bench --bench telemetry_overhead

# Live telemetry plane smoke: run_scene --serve on an ephemeral port
# (printed on its `serving telemetry on` line), curl /metrics and /health
# while it steps, and check the scrape carries a per-phase wall gauge and
# a histogram _bucket sample. --steps 0 + --serve = run until killed.
cargo run --release --offline -q -p parallax-bench --bin run_scene -- \
    --scene Mix --steps 0 --scale 0.15 --config threads=2 --serve 127.0.0.1:0 \
    > "$tmp/serve.out" &
serve_pid=$!
trap 'kill "$serve_pid" 2>/dev/null || true; rm -rf "$tmp"' EXIT
for _ in $(seq 1 100); do
    grep -q "serving telemetry on" "$tmp/serve.out" && break
    sleep 0.2
done
addr="$(sed -n 's|^serving telemetry on http://\([^/]*\)/metrics$|\1|p' "$tmp/serve.out")"
test -n "$addr"
sleep 1  # let a few steps land before scraping
curl -fsS "http://$addr/metrics" > "$tmp/metrics.txt"
curl -fsS "http://$addr/health" > "$tmp/health.json"
grep -q "physics_phase_wall_ns_" "$tmp/metrics.txt"
grep -q "_bucket{le=" "$tmp/metrics.txt"
grep -q '"status":"ok"' "$tmp/health.json"
kill "$serve_pid" 2>/dev/null || true
wait "$serve_pid" 2>/dev/null || true

# Soak smoke: ~15 s of stepping with a 250 ms scraper asserting monotone
# counters, clean invariants and bounded rss (plus the exporter-overhead
# A/B check).
cargo run --release --offline -q -p parallax-bench --bin soak -- --quick

# Divergence bisector end to end through the CLI: inject a single-ULP
# fault into side B at step 17's narrow phase and require the report to
# name exactly that coordinate: step, phase, body chunk and lane. bisect exits 3 on divergence — that IS
# the expected outcome here.
set +e
cargo run --release --offline -q -p parallax-bench --bin bisect -- \
    --scene Mix --steps 40 --scale 0.1 --fault 17:Narrowphase \
    > "$tmp/bisect.out" 2>/dev/null
bisect_rc=$?
set -e
test "$bisect_rc" -eq 3
grep -q '^divergence: step=17 phase=Narrowphase bodies=0\.\.64 lane="body 0 pos\.x"' \
    "$tmp/bisect.out"

# Cross-sleep bisect smoke: a sleep-on side diverges from a sleep-off
# side at the first sleep transition *by design* — the bisector must
# localize that step rather than report clean, proving it attributes
# sleep-lane divergences correctly.
set +e
cargo run --release --offline -q -p parallax-bench --bin bisect -- \
    --scene Resting --steps 200 --scale 0.1 \
    --a sleep=off --b sleep=on > "$tmp/bisect_sleep.out" 2>/dev/null
bisect_rc=$?
set -e
test "$bisect_rc" -eq 3
grep -q "^divergence: step=" "$tmp/bisect_sleep.out"

# Persistent broad phase: the per-step oracle once more in the release
# profile — after every one of 250 steps of Mix, Breakable and Explosions
# at scale 0.2, the refreshed AABBs must equal a recomputation, and the
# grid's candidates and counts must equal the history-free
# sweep-and-prune rebuild's and the reference grid's on the same AABB
# list — plus the ignored full-scale Mix case (212 steps).
cargo test --release --offline -q -p parallax-bench --test broadphase_equivalence -- \
    --include-ignored

# Island-processing data path: two bisections hold the scalar
# single-thread step to the two-thread AVX2 one — packed solver rows,
# lane-wise box-box axes, bucketed narrow phase — over the whole Mix and
# Explosions horizons (exit 0: no divergence).
for scene in Mix Explosions; do
    cargo run --release --offline -q -p parallax-bench --bin bisect -- \
        --scene "$scene" --steps 200 --scale 0.2 \
        --a threads=1,simd=scalar --b threads=2,simd=avx2 >/dev/null 2>&1
done

# Simulation-service smoke: boot the multi-world server on an ephemeral
# port, create a session over HTTP, step it 10x, and check that /state
# streams JSONL body state and /metrics carries the fleet gauge; then
# schedule a settled session and check it is advanced off the schedule. The
# integration suite (tests/server.rs, in `cargo test` above) covers
# determinism under noisy neighbors and snapshot/restore in depth; this
# proves the standalone binary and the end-to-end curl path.
cargo run --release --offline -q -p parallax-server --bin serve -- \
    127.0.0.1:0 > "$tmp/simsrv.out" &
simsrv_pid=$!
trap 'kill "$serve_pid" "$simsrv_pid" 2>/dev/null || true; rm -rf "$tmp"' EXIT
for _ in $(seq 1 100); do
    grep -q "listening on" "$tmp/simsrv.out" && break
    sleep 0.2
done
sim_addr="$(sed -n 's|^parallax-server listening on http://\(.*\)$|\1|p' "$tmp/simsrv.out")"
test -n "$sim_addr"
curl -fsS -XPOST "http://$sim_addr/sessions" \
    -H 'content-type: application/json' -d '{"bodies":20,"seed":1}' \
    > "$tmp/create.json"
sim_id="$(sed -n 's|^{"id":\([0-9]*\).*|\1|p' "$tmp/create.json")"
test -n "$sim_id"
curl -fsS -XPOST "http://$sim_addr/sessions/$sim_id/step?n=10" > "$tmp/step.json"
grep -q '"steps":10' "$tmp/step.json"
curl -fsS "http://$sim_addr/sessions/$sim_id/state?records=2" > "$tmp/state.jsonl"
grep -q '"body_state"' "$tmp/state.jsonl"
curl -fsS "http://$sim_addr/metrics" > "$tmp/simsrv_metrics.txt"
grep -q '^server_sessions 1$' "$tmp/simsrv_metrics.txt"
# The lazy path through the real binary: a settled session (seed 1 coasts
# after 240 steps) scheduled at 60 Hz leaves the schedule, and reads
# settle its ticks: ~30 in half a second, counted in server_steps.
curl -fsS -XPOST "http://$sim_addr/sessions" \
    -H 'content-type: application/json' -d '{"bodies":100,"seed":1}' \
    > "$tmp/lazy_create.json"
lazy_id="$(sed -n 's|^{"id":\([0-9]*\).*|\1|p' "$tmp/lazy_create.json")"
test -n "$lazy_id"
curl -fsS -XPOST "http://$sim_addr/sessions/$lazy_id/step?n=240" > /dev/null
curl -fsS -XPOST "http://$sim_addr/sessions/$lazy_id/rate?hz=60" > /dev/null
sleep 0.5
curl -fsS "http://$sim_addr/sessions/$lazy_id" > "$tmp/lazy.json"
lazy_steps="$(sed -n 's|.*"steps":\([0-9]*\).*|\1|p' "$tmp/lazy.json")"
test "$lazy_steps" -ge 260
curl -fsS "http://$sim_addr/metrics" > "$tmp/lazy_metrics.txt"
grep -q '^server_sessions_coasting 1$' "$tmp/lazy_metrics.txt"
lazy_total="$(sed -n 's|^server_steps \([0-9]*\)$|\1|p' "$tmp/lazy_metrics.txt")"
test "$lazy_total" -ge "$lazy_steps"
kill "$simsrv_pid" 2>/dev/null || true
wait "$simsrv_pid" 2>/dev/null || true

# The regression gates, one binary and one exit-code table: 0 pass, 1
# slower / over budget / below the sustain floor, 2 a baseline that is
# missing, unreadable, of another schema or recorded on a machine with
# another fingerprint (refused, not judged; the message names the field
# and the re-record command). Every wall is stated at the reference speed
# of a probe kernel timed beside it, so the host's minute does not decide.
#   scenes  every scene's phase walls over the baseline's first 10 steps
#           against BENCH_scenes.json, +50% (the whole bootstrap CI);
#   digest  the per-phase digests' cost on Mix, digests-on minus -off per
#           step, within 80 ns per body-step in one of three recordings;
#   server  the 1000x100 fleet's request latency against BENCH_server.json,
#           +40%, and its 0.9 sustain floor.
cargo run --release --offline -q -p parallax-bench --bin bench_gate -- \
    scenes compare --quick >/dev/null
cargo run --release --offline -q -p parallax-bench --bin bench_gate -- digest --quick
cargo run --release --offline -q -p parallax-bench --bin bench_gate -- \
    server compare --quick >/dev/null

echo "tier-1 verify: OK"
