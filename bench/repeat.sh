#!/usr/bin/env bash
# Repeatability check: runs the end-to-end benchmark N times, twice
# over, on the same commit, and prints per workload x end-to-end metric
#
#   range    (max - min) / median within each set
#   spread   (Q3 - Q1) / median within each set (statistics.quantiles,
#            n=4: what the benchmark driver holds against `bound`)
#   gap      |median of set 2 - median of set 1| / median of set 1
#
#   bash bench/repeat.sh [N=5] [--workload NAME]...
#
# Run i of either set uses --seed i, so the two sets see the same
# inputs and the gap between them is noise alone. Exits non-zero when a
# range or a gap exceeds 0.10 (the repeatability criterion of ISSUE 12),
# for every end-to-end metric alike. Raw result lines are kept in
# bench/out/repeat-<set>-<workload>.jsonl.
set -euo pipefail

cd "$(dirname "${BASH_SOURCE[0]}")/.."
n=5
workloads=()
while [ $# -gt 0 ]; do
    case $1 in
        --workload) workloads+=("$2"); shift 2 ;;
        *) n=$1; shift ;;
    esac
done
[ ${#workloads[@]} -gt 0 ] || workloads=(sort-merge regex-filter light-stream short-scripts)

mkdir -p bench/out
for set in 1 2; do
    for w in "${workloads[@]}"; do
        : > "bench/out/repeat-$set-$w.jsonl"
        for seed in $(seq "$n"); do
            echo "set $set, $w, seed $seed" >&2
            bash bench/run.sh --workload "$w" --seed "$seed" --trace 0 \
                | tail -n 1 >> "bench/out/repeat-$set-$w.jsonl"
        done
    done
done

python3 - "${workloads[@]}" <<'EOF'
import json, statistics, sys

LIMIT = 0.10
spec = json.load(open("BENCHMARK.json"))
bad = False
print(f"{'workload':<14} {'metric':<12} {'median 1':>12} {'median 2':>12} "
      f"{'range 1':>8} {'range 2':>8} {'spread 1':>9} {'spread 2':>9} {'gap':>6}  bound")
for w in sys.argv[1:]:
    sets = [[json.loads(l) for l in open(f"bench/out/repeat-{s}-{w}.jsonl")] for s in (1, 2)]
    if any(not r["correct"] for runs in sets for r in runs):
        print(f"{w}: a run was not correct")
        bad = True
    for m in spec["end_to_end"]:
        name, bound = m["name"], m["bound"]
        med, rng, spread = [], [], []
        for runs in sets:
            v = [r["metrics"][name]["value"] for r in runs]
            q = statistics.quantiles(v, n=4)
            med.append(statistics.median(v))
            rng.append((max(v) - min(v)) / med[-1])
            spread.append((q[2] - q[0]) / med[-1])
        gap = abs(med[1] - med[0]) / med[0]
        over = gap > LIMIT or max(rng) > LIMIT
        bad |= over
        print(f"{w:<14} {name:<12} {med[0]:>12.4f} {med[1]:>12.4f} {rng[0]:>8.3f} {rng[1]:>8.3f} "
              f"{spread[0]:>9.3f} {spread[1]:>9.3f} {gap:>6.3f}  {bound}{f'  <-- over {LIMIT}' if over else ''}")
sys.exit(1 if bad else 0)
EOF
