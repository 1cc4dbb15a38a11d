#!/usr/bin/env bash
# The repository's benchmark: script-in -> bytes-out on every layer.
#
#   bash bench/run.sh [--workload NAME] [--seed N] [--trace 0|1] [--quick]
#                     [--seconds S]   (accepted for the driver; sizes nothing)
#
# Builds the root release binaries (pashd, pashc, pash-rt, pash-worker)
# and this package -- outside every timed region -- then runs the
# harness. Without --workload all four workloads run; without --trace
# each runs end-to-end (tracing off) and then traced (per-layer
# metrics, bench/out/trace-<workload>.json). The last line of stdout is
# the JSON result of the last run. See bench/README.md.
set -euo pipefail

cd "$(dirname "${BASH_SOURCE[0]}")/.."
root=$PWD

# One target directory for both workspaces, so the harness finds the
# binaries it drives beside itself. A relative CARGO_TARGET_DIR means
# relative to the repository root.
target=${CARGO_TARGET_DIR:-target}
case $target in
    /*) ;;
    *) target=$root/$target ;;
esac
export CARGO_TARGET_DIR=$target

out=$root/bench/out
mkdir -p "$out"

# The harness removes its work directory and stops its daemons itself;
# this trap covers the exits it cannot (signals, aborts): stop the
# harness, then whatever daemon it left a pid file for.
harness=
cleanup() {
    [ -n "$harness" ] || return 0
    kill "$harness" 2>/dev/null || true
    wait "$harness" 2>/dev/null || true
    for pidfile in "$out/work-$harness"/*.pid; do
        [ -f "$pidfile" ] || continue
        orphan=$(cat "$pidfile")
        kill "$orphan" 2>/dev/null || true
        for _ in $(seq 100); do
            kill -0 "$orphan" 2>/dev/null || break
            sleep 0.05
        done
        kill -9 "$orphan" 2>/dev/null || true
    done
    rm -rf "$out/work-$harness"
}
trap cleanup EXIT
trap 'exit 130' INT
trap 'exit 143' TERM

# Every child gets /dev/null on stdin: one that inherits an open stdin
# would block the stdin-reading workloads.
cargo build --release --offline --quiet -p pash -p pash-runtime --bins </dev/null >&2
cargo build --release --offline --quiet --manifest-path bench/Cargo.toml </dev/null >&2

"$target/release/pash-perfbench" --bin-dir "$target/release" --out-dir "$out" "$@" </dev/null &
harness=$!
status=0
wait "$harness" || status=$?
exit "$status"
