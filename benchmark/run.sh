#!/usr/bin/env bash
# The one command of the benchmark.
#
#   benchmark/run.sh [--seed S] [--seconds T] [--results DIR]
#       builds, then runs every workload untraced (end-to-end metrics)
#       and traced (per-layer metrics), one process per run, and prints
#       every metric as `name value unit`. Exits nonzero when a run's
#       outputs were wrong or a declared metric was missing.
#
#   benchmark/run.sh --workload W --seed S --seconds T --trace 0|1
#       builds, then makes that one run; its last line of output is the
#       JSON object the benchmark contract asks for.
#
# Result files go to benchmark/results/ (or --results DIR).
set -euo pipefail
cd "$(dirname "${BASH_SOURCE[0]}")/.."

# The harness pins the configuration in code; keep the environment from
# overriding engine defaults in the build scripts or the child processes.
for name in $(compgen -e); do
    case "$name" in PARALLAX_*) unset "$name" ;; esac
done

export CARGO_TARGET_DIR="${CARGO_TARGET_DIR:-target}"
# Both builds go to stderr so that stdout ends with the result line.
# The measured code is built in release mode only; the binary itself
# refuses to run as a debug build.
cargo build --release --offline --manifest-path benchmark/Cargo.toml 1>&2
cargo build --release --offline -p parallax-server --bin serve 1>&2
bench="$CARGO_TARGET_DIR/release/parallax-benchmark"
serve="$CARGO_TARGET_DIR/release/serve"
BENCH_COMMIT="$(git rev-parse --short HEAD 2>/dev/null || echo unknown)"
export BENCH_COMMIT

for arg in "$@"; do
    if [ "$arg" = "--workload" ]; then
        exec "$bench" --serve-bin "$serve" "$@"
    fi
done

status=0
for workload in $("$bench" --list-workloads); do
    for trace in 0 1; do
        "$bench" --serve-bin "$serve" --workload "$workload" --trace "$trace" "$@" || status=1
    done
done
if [ "$status" -ne 0 ]; then
    echo "benchmark/run.sh: at least one run failed its checks" >&2
fi
exit "$status"
