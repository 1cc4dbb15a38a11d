#!/bin/sh
# CI gate for the PaSh reproduction workspace.
#
#   ./ci.sh          # full gate
#
# Steps, in order:
#   1. release build of every workspace target (deny warnings), and
#      of the benchmark harness under bench/ (its own workspace): it
#      is frozen between benchmark PRs, so an API a PR moves out from
#      under it must fail here, on every host, not only where step 8
#      can run (`grep -n 'use pash' bench/src/*.rs` lists what it
#      imports; `grep -n 'pash::' bench/src/*.rs` adds what it calls
#      by full path);
#   2. the full test suite (unit + integration + doctests), the fault
#      gate among it: `tests/fault_injection.rs` sweeps every fault kind
#      at widths 2/4/8 on threads, processes and remote against the
#      sequential run, and pins which recovery path fired;
#   3. the four examples, run under a timeout (each asserts its own
#      output; `quickstart` runs every backend, `remote` on an
#      in-process worker);
#   4. regex bench smoke: tiered-vs-PikeVM suite at a small size
#      (per-line and block line-scan rows, each asserted equal to the
#      Pike VM and free of DFA give-ups before timing), check the
#      emitted BENCH_regex.json parses, that every key looked for is
#      in the checked-in BENCH_regex.json too, and that the
#      `alternation_context` row ran on the literal set: its searches
#      counted, and the DFA on at most a quarter of the lines;
#   5. plan-determinism smoke (segment split and r_split plans), and
#      the shape of the benchmark's `sort | uniq -c | sort -n` plan:
#      the fold below the counted merge, a raw r_split behind it, no
#      general split, 16 nodes at width 2; a `tr -cs … '\n'` stays
#      sequential (one copy at width 4) while the `light-stream`
#      workload's `tr -s ' '` still runs four copies;
#   6. process-backend smoke: one corpus script as real children over
#      FIFOs, byte-compared against the shell backend's output, whose
#      script must name no `fileseg` producer, and the benchmark
#      script the same way; then the threads backend on an input below
#      one pipe buffer (the region runs to completion on one thread)
#      and one above it (a thread per node), each byte-compared against
#      the shell backend, and `cat a.txt b.txt | tr A-Z a-z | grep e`
#      on two 1 MB inputs (a relay in front of `cat`'s second input)
#      against host /bin/sh; every run so far under `timeout`; then
#      that 1 MB input, ending in an unterminated line, piped into
#      twelve stdin-fed pipelines, and its sorted lines into a
#      thirteenth, `comm f.txt -` (a sorted file operand first, stdin
#      as the second operand), on shell, threads and processes under
#      `timeout`, each byte-compared against the unmodified pipeline
#      under host /bin/sh (the `tac` one reverses every part
#      and the aggregator reverses the parts, so the unterminated line
#      must lead the output as it stands; `rev` and `sed` must leave
#      it unterminated; the `light-stream` workload's script, `tr -cs`
#      and `cut -f 2,4-` run the position-mask kernels; `cut -sd ' '
#      -f 1,2 | sed -ne /e/p` clusters its options, which every
#      command must read as GNU's getopt does; `sed -Ee s/e/E/ -e 1d`
#      and `sort -rk 2` hold a second script and a value in a cluster,
#      which the compiler must read as the command does: the first
#      stays sequential, the second merges with its `-k 2`; `tr -d
#      '[:xdigit:]' | sed '1s/e;f/X/;y/ghi/G-I/'` reads a class, a `;`
#      inside an addressed body and a literal `y` list as GNU does;
#      `comm`'s stdin is its `-`, not its first operand); then the
#      splitters' window: that input with one line longer than the
#      4 MiB look-ahead spliced in, still ending unterminated, fed to
#      `tr A-Z a-z | cut -d ' ' -f 1-4` (framed `r_split`) and `sort |
#      uniq -c | sort -n` (raw `r_split`) under the round-robin policy
#      at widths 2 and 4, on shell, threads and processes under
#      `timeout`, each byte-compared against host /bin/sh; three framed
#      chains under the round-robin policy at width 8 on threads (frame
#      queues between framed nodes) and processes (FIFOs of encoded
#      frames), under `timeout`, each byte-compared against host
#      /bin/sh: the `light-stream` script, one whose `sed 's/ /  /g'`
#      grows every frame, and one whose `grep -v` empties most frames;
#      `cat
#      a.txt > nodir/out.txt` on the three must exit 2 and make no
#      directory, as the host shell does; `wc -l a.txt b.txt` and
#      `sha1sum a.txt` at width 1 on the three, under `timeout`, must
#      print the host /bin/sh's bytes, file names and column widths
#      included (a streamed file operand reaches its command under its
#      own name); `wc -l a.txt nope` at width 2 on shell, whose
#      copy of `wc` cannot open its missing file, must fail inside its
#      `timeout` rather than wedge the eager relay behind it; and
#      `cat nope a.txt`, `wc -l a.txt nope`, `tr a b < nope` and `sort
#      < nope > out` at width 1 on the three, under `timeout`, must end
#      with the host /bin/sh's stdout and exit status and leave `out`
#      as it was (a file a command cannot open ends that command, not
#      the run);
#   7. remote-backend smoke: two pash-worker daemons on localhost
#      sockets, the corpus at width 4, byte-compared against the shell
#      backend; `uniq a.txt u.txt` at widths 1 and 2 under `timeout`,
#      whose `u.txt` (a file a command writes by operand) must come
#      back from the worker with the host /bin/sh's bytes; then
#      SIGTERM, and each worker must exit 0 within 10 s and take its
#      socket with it;
#   8. end-to-end benchmark check: `bench/run.sh --quick` runs all four
#      benchmark workloads once on every backend and through pashd, on
#      small inputs, and compares every output byte for byte with the
#      unmodified script under host /bin/sh + coreutils;
#   9. rustfmt check;
#  10. clippy over every workspace target (`--all-targets`: lib, bins,
#      tests, examples), every warning an error;
#  11. size, printed and not gated: the non-test lines (those above
#      each file's first `#[cfg(test)]`) of every `.rs` file outside
#      every `tests/` directory, `bench/` and `target/` (ROADMAP's Size
#      number).
set -eu

cd "$(dirname "$0")"

# A key a step looks for must be in the checked-in record as well as
# in the smoke output: a BENCH file that lacks what its gate reads was
# recorded by an older suite.
#   require_keys NAME KEY...   (target/bench-smoke/NAME and ./NAME)
require_keys() {
    name=$1
    shift
    for key in "$@"; do
        for record in "target/bench-smoke/$name" "$name"; do
            grep -q "\"$key" "$record" || {
                echo "    $record lacks \"$key\"" >&2
                exit 1
            }
        done
    done
}

# The benchmark harness under bench/ is frozen, but building it (step 1
# here, bench/run.sh in step 8) may rewrite its lock file: the
# committed one is kept aside and put back after each build, pass or
# fail.
bench_lock=$(mktemp)
cp bench/Cargo.lock "$bench_lock"
restore_bench_lock() {
    cp "$bench_lock" bench/Cargo.lock
}

echo "==> cargo build --release (workspace, all targets, deny warnings)"
RUSTFLAGS="${RUSTFLAGS:-} -D warnings" cargo build --release --workspace --all-targets
# Into the same target directory, as bench/run.sh does.
CARGO_TARGET_DIR="${CARGO_TARGET_DIR:-$PWD/target}" \
    cargo build --release --offline --manifest-path bench/Cargo.toml ||
    { restore_bench_lock; exit 1; }
restore_bench_lock

echo "==> cargo test -q (workspace)"
cargo test -q --workspace

echo "==> examples (run, under a timeout)"
# Step 1 built them in release beside pashc and pash-rt, which the
# processes backend looks for next to the running executable.
mkdir -p target/bench-smoke
for example in quickstart weather annotate webindex; do
    log=target/bench-smoke/example-$example.log
    timeout -s KILL 120 "./target/release/examples/$example" >"$log" 2>&1 || {
        echo "    example $example failed:" >&2
        tail -n 20 "$log" >&2
        exit 1
    }
done

echo "==> regex bench smoke (BENCH_regex.json well-formed)"
# Also re-asserts (inside run_suite) that the tiered engine and the
# Pike VM agree on every benchmark corpus before timing them.
./target/release/regexbench --size small --out target/bench-smoke/BENCH_regex.json
if command -v python3 >/dev/null 2>&1; then
    python3 -m json.tool target/bench-smoke/BENCH_regex.json >/dev/null
else
    grep -q '"bench":"regex"' target/bench-smoke/BENCH_regex.json
fi
require_keys BENCH_regex.json speedup_vs_pikevm matcher_stats give_ups \
    set_searches regex_fixed_tiered alternation_context anchored_class suffix_anchor
# The alternation row runs on the literal set, which leaves the DFA at
# most a quarter of the row's lines to walk.
ALT_STATS=$(grep -o '"alternation_context":{[^}]*}' target/bench-smoke/BENCH_regex.json)
ALT_LINES=$(echo "$ALT_STATS" | sed 's/.*"lines":\([0-9]*\).*/\1/')
ALT_DFA=$(echo "$ALT_STATS" | sed 's/.*"dfa_lines":\([0-9]*\).*/\1/')
ALT_SEARCHES=$(echo "$ALT_STATS" | sed 's/.*"set_searches":\([0-9]*\).*/\1/')
if [ "$ALT_SEARCHES" -eq 0 ] || [ $((ALT_DFA * 4)) -gt "$ALT_LINES" ]; then
    echo "    alternation_context: the DFA walked $ALT_DFA of $ALT_LINES lines, in $ALT_SEARCHES set searches" >&2
    exit 1
fi

echo "==> plan determinism smoke (same script+config => byte-identical dump)"
# The compile-result cache keys on (source, config); this step proves
# the lowered plan is a deterministic function of that key, across
# separate processes (catches e.g. hash-iteration nondeterminism).
PLAN_SCRIPT='base=logs
for y in 2015 2016; do
  cat in-$y.txt | tr A-Z a-z | grep x | sort | uniq -c > out-$y.txt
done
grep -c z summary.txt > count.txt && sort count.txt'
./target/release/plandump --width 8 --split sized -e "$PLAN_SCRIPT" \
    > target/bench-smoke/plan_a.txt 2>/dev/null
./target/release/plandump --width 8 --split sized -e "$PLAN_SCRIPT" \
    > target/bench-smoke/plan_b.txt 2>/dev/null
cmp target/bench-smoke/plan_a.txt target/bench-smoke/plan_b.txt
test -s target/bench-smoke/plan_a.txt
# Same property over the round-robin plan shapes (rr split nodes,
# framed workers, the reorder aggregator).
./target/release/plandump --width 8 --split rr -e "$PLAN_SCRIPT" \
    > target/bench-smoke/plan_rr_a.txt 2>/dev/null
./target/release/plandump --width 8 --split rr -e "$PLAN_SCRIPT" \
    > target/bench-smoke/plan_rr_b.txt 2>/dev/null
cmp target/bench-smoke/plan_rr_a.txt target/bench-smoke/plan_rr_b.txt
grep -q 'split rr' target/bench-smoke/plan_rr_a.txt
# The benchmark's sort-merge script: `uniq -c` runs below the sort's
# merge (the counted merge adds the counts), `sort -n` behind it takes
# raw round-robin blocks, and no general split is left on a pipe.
FOLD_SCRIPT='cat in.txt | tr A-Z a-z | sort | uniq -c | sort -n > out.txt'
./target/release/plandump --width 2 --split sized -e "$FOLD_SCRIPT" \
    > target/bench-smoke/plan_fold.txt 2> target/bench-smoke/plan_fold.stats
grep -q '^region nodes=16 ' target/bench-smoke/plan_fold.txt
grep -q 'agg "pash-agg-sort-c"' target/bench-smoke/plan_fold.txt
grep -q 'split rr framed=false' target/bench-smoke/plan_fold.txt
grep -q 'commuted=1 splits_raw_rr=1' target/bench-smoke/plan_fold.stats
if grep -q 'split sized=false' target/bench-smoke/plan_fold.txt; then
    echo "    the sort-merge plan still has a general split" >&2
    exit 1
fi
./target/release/plandump --width 8 --split sized -e "$FOLD_SCRIPT" \
    2> target/bench-smoke/plan_fold_8a.stats >/dev/null
./target/release/plandump --width 8 --split sized -e "$FOLD_SCRIPT" \
    2> target/bench-smoke/plan_fold_8b.stats >/dev/null
grep -q '^fingerprint: ' target/bench-smoke/plan_fold_8a.stats
cmp target/bench-smoke/plan_fold_8a.stats target/bench-smoke/plan_fold_8b.stats
# A squeeze that can span a line end runs once (a segment starting
# inside the squeezed run would keep a byte); one that cannot is still
# copied per worker.
SQUEEZE_SCRIPT="cat in.txt | tr -cs A-Za-z '\\n' | sort"
TR_COPIES=$(./target/release/plandump --width 4 --split sized -e "$SQUEEZE_SCRIPT" \
    2>/dev/null | grep -c 'exec "tr"')
if [ "$TR_COPIES" != 1 ]; then
    echo "    the squeezing tr has $TR_COPIES copies at width 4, want 1" >&2
    exit 1
fi
LIGHT_SCRIPT="tr A-Z a-z | cut -d ' ' -f 1-4 | tr -d ',.' | tr -s ' '"
TR_COPIES=$(./target/release/plandump --width 4 --split rr -e "$LIGHT_SCRIPT" \
    2>/dev/null | grep -c 'exec "tr" "-s"')
if [ "$TR_COPIES" != 4 ]; then
    echo "    light-stream's tr -s ' ' has $TR_COPIES copies at width 4, want 4" >&2
    exit 1
fi

echo "==> process backend smoke (cmp against the shell backend)"
# The same script, same generated corpus, executed twice: once as an
# emitted POSIX script under /bin/sh, once as real child processes
# over FIFOs walking the lowered plan. The outputs must be identical.
# Every backendrun of this step and the next runs under `timeout`: a
# wedged FIFO graph or in-process edge is killed and fails the step.
SMOKE_SCRIPT='cat in.txt | tr A-Z a-z | sort | uniq -c > out.txt'
for b in shell processes; do
    rm -rf "target/bench-smoke/backend-$b"
    mkdir -p "target/bench-smoke/backend-$b"
    timeout -s KILL 60 ./target/release/backendrun --backend "$b" --width 4 \
        --dir "target/bench-smoke/backend-$b" --gen in.txt:200000 \
        -e "$SMOKE_SCRIPT" </dev/null
done
cmp target/bench-smoke/backend-shell/out.txt \
    target/bench-smoke/backend-processes/out.txt
test -s target/bench-smoke/backend-processes/out.txt
# A file segment is opened by the job that reads it (`--stdin-seg`):
# the script launches no segment producer to pipe into it.
grep -q -- '--stdin-seg in.txt' target/bench-smoke/backend-shell/parallel.sh
# (`set -e` does not act on a `!` pipeline, hence the `if`.)
if grep -q fileseg target/bench-smoke/backend-shell/parallel.sh; then
    echo "    emitted script still names a fileseg producer" >&2
    exit 1
fi
# The benchmark script (fold below the merge, raw r_split) on every
# local backend, each against the unmodified script under the host's
# /bin/sh on the same 2 MB input; a wedged FIFO graph is killed and
# fails the step.
rm -rf target/bench-smoke/fold-host
mkdir -p target/bench-smoke/fold-host
for b in shell processes threads; do
    rm -rf "target/bench-smoke/fold-$b"
    mkdir -p "target/bench-smoke/fold-$b"
    timeout -s KILL 60 ./target/release/backendrun --backend "$b" --width 4 \
        --dir "target/bench-smoke/fold-$b" --gen in.txt:2000000 \
        -e "$FOLD_SCRIPT" </dev/null
    test -s "target/bench-smoke/fold-$b/out.txt"
done
cp target/bench-smoke/fold-shell/in.txt target/bench-smoke/fold-host/
(cd target/bench-smoke/fold-host && LC_ALL=C /bin/sh -c "$FOLD_SCRIPT")
for b in shell processes threads; do
    cmp "target/bench-smoke/fold-$b/in.txt" target/bench-smoke/fold-host/in.txt
    cmp "target/bench-smoke/fold-$b/out.txt" target/bench-smoke/fold-host/out.txt
done

echo "==> schedule smoke (threads below and above one pipe buffer, cmp against shell)"
# The threads backend picks a region's schedule from its input size:
# 32 kB fits one 64 KiB pipe buffer and runs node by node on one
# thread, 1 MB gets a thread per node and rings, and each eager relay
# is wired as one spill pipe. Same script, same plan, both sides of the
# line, each against /bin/sh.
for size in 32000 1000000; do
    for b in shell threads; do
        rm -rf "target/bench-smoke/schedule-$b-$size"
        mkdir -p "target/bench-smoke/schedule-$b-$size"
        timeout -s KILL 60 ./target/release/backendrun --backend "$b" --width 4 \
            --dir "target/bench-smoke/schedule-$b-$size" --gen "in.txt:$size" \
            -e "$SMOKE_SCRIPT" </dev/null
    done
    cmp "target/bench-smoke/schedule-shell-$size/out.txt" \
        "target/bench-smoke/schedule-threads-$size/out.txt"
    test -s "target/bench-smoke/schedule-threads-$size/out.txt"
done
# A relay in front of `cat`'s second input, which `cat` reads only once
# the first has ended: on threads its edge is a spill pipe, whose
# producer must never wait for `cat`. Two 1 MB inputs, against the
# unmodified script under the host's /bin/sh.
CAT_SCRIPT='cat a.txt b.txt | tr A-Z a-z | grep e > out.txt'
rm -rf target/bench-smoke/cat-threads target/bench-smoke/cat-host
mkdir -p target/bench-smoke/cat-threads target/bench-smoke/cat-host
timeout -s KILL 60 ./target/release/backendrun --backend threads --width 4 \
    --dir target/bench-smoke/cat-threads --gen a.txt:1000000 --gen b.txt:1000000 \
    -e "$CAT_SCRIPT" </dev/null
cp target/bench-smoke/cat-threads/a.txt target/bench-smoke/cat-threads/b.txt \
    target/bench-smoke/cat-host/
(cd target/bench-smoke/cat-host && LC_ALL=C /bin/sh -c "$CAT_SCRIPT")
cmp target/bench-smoke/cat-host/out.txt target/bench-smoke/cat-threads/out.txt
test -s target/bench-smoke/cat-threads/out.txt

echo "==> stdin smoke (the 1 MB input piped in, cmp against host /bin/sh)"
# The program's stdin is the caller's bytes: read in place on threads,
# the child's pipe on processes, the real fd on shell. A wedged run is
# killed and fails the step. The input ends
# in a line with no newline, which every backend must hand on as the
# host does; the backends share the splitter, so the oracle is the
# unmodified script under the host's /bin/sh, not one of them. `tac`
# takes that line first and adds no newline to it, on every part and
# through `pash-agg-tac`'s reversal of the parts; `rev` and `sed` write
# it last, with no newline added. The next three run the kernels that
# find their bytes by 64-byte position masks (`tr -d`/`-s`, `cut -f`);
# the next clusters its options (`-sd`, `-ne`), which every command
# must read as GNU's getopt does; the next two are read by the
# compiler through the same scan: `1d` in the second `-e` keeps the
# `sed` sequential, and the `sort` merge gets `-k`'s value out of its
# cluster (`-rk 2`). The last reads its operands as GNU does: a class
# in a `tr` set, a `;` in an addressed `s` body, a `y` list with a `-`
# that is no range.
STDIN_IN=target/bench-smoke/stdin-in.txt
cp target/bench-smoke/schedule-shell-1000000/in.txt "$STDIN_IN"
printf 'The Last, Line, Has No Newline' >>"$STDIN_IN"
n=0
for script in 'tr A-Z a-z | cut -c 1-20' 'tr A-Z a-z | tr -d ,' 'tr A-Z a-z | tac' \
    'tr A-Z a-z | rev' 'tr A-Z a-z | sed s/e/E/' \
    "tr A-Z a-z | cut -d ' ' -f 1-4 | tr -d ',.' | tr -s ' '" \
    "tr -cs A-Za-z '\n'" "cut -d ' ' -f 2,4-" "cut -sd ' ' -f 1,2 | sed -ne /e/p" \
    'sed -Ee s/e/E/ -e 1d' 'tr A-Z a-z | sort -rk 2' \
    "tr -d '[:xdigit:]' | sed '1s/e;f/X/;y/ghi/G-I/'"; do
    n=$((n + 1))
    LC_ALL=C /bin/sh -c "$script" <"$STDIN_IN" >"target/bench-smoke/stdin-host-$n.out"
    for b in shell threads processes; do
        rm -rf "target/bench-smoke/stdin-$b"
        mkdir -p "target/bench-smoke/stdin-$b"
        timeout -s KILL 60 ./target/release/backendrun --backend "$b" --width 4 \
            --dir "target/bench-smoke/stdin-$b" -e "$script" \
            <"$STDIN_IN" >"target/bench-smoke/stdin-$b-$n.out"
        cmp "target/bench-smoke/stdin-host-$n.out" "target/bench-smoke/stdin-$b-$n.out"
    done
    test -s "target/bench-smoke/stdin-threads-$n.out"
done
# `comm` first in the pipeline, a sorted file operand and sorted bytes
# on stdin as its second operand: the stdin route goes to the `-`, and
# the file is named in place.
COMM=target/bench-smoke/stdin-comm
rm -rf target/bench-smoke/stdin-comm
mkdir -p "$COMM/host"
LC_ALL=C sort -u "$STDIN_IN" >"$COMM/sorted.txt"
awk 'NR % 3 != 0' "$COMM/sorted.txt" >"$COMM/host/f.txt"
awk 'NR % 2 != 0' "$COMM/sorted.txt" >"$COMM/stdin.txt"
(cd "$COMM/host" && LC_ALL=C /bin/sh -c 'comm f.txt -') <"$COMM/stdin.txt" >"$COMM/host.out"
for b in shell threads processes; do
    mkdir -p "$COMM/$b"
    cp "$COMM/host/f.txt" "$COMM/$b/"
    timeout -s KILL 60 ./target/release/backendrun --backend "$b" --width 4 \
        --dir "$COMM/$b" -e 'comm f.txt -' <"$COMM/stdin.txt" >"$COMM/$b.out"
    cmp "$COMM/host.out" "$COMM/$b.out"
done
test -s "$COMM/threads.out"
# The splitters read into one window and deal blocks out of it in
# place; a line longer than the 4 MiB look-ahead makes the window grow
# past its bound and the cut read on to the line's end. About 1 MB of
# lines around one such line, ending unterminated, dealt by framed
# (`tr | cut`) and raw (behind `sort | uniq -c`'s merge) `r_split`.
SPLIT_IN=target/bench-smoke/split-in.txt
head -n 5000 "$STDIN_IN" >"$SPLIT_IN"
awk 'BEGIN { for (i = 0; i < 200000; i++) printf "One Long Line Of Words, "; printf "\n" }' \
    >>"$SPLIT_IN"
tail -n +5001 "$STDIN_IN" >>"$SPLIT_IN"
n=0
for script in "tr A-Z a-z | cut -d ' ' -f 1-4" 'sort | uniq -c | sort -n'; do
    n=$((n + 1))
    LC_ALL=C /bin/sh -c "$script" <"$SPLIT_IN" >"target/bench-smoke/split-host-$n.out"
    for width in 2 4; do
        for b in shell threads processes; do
            rm -rf "target/bench-smoke/split-$b"
            mkdir -p "target/bench-smoke/split-$b"
            timeout -s KILL 60 ./target/release/backendrun --backend "$b" --width "$width" \
                --split rr --dir "target/bench-smoke/split-$b" -e "$script" \
                <"$SPLIT_IN" >"target/bench-smoke/split-$b-$n.out"
            cmp "target/bench-smoke/split-host-$n.out" "target/bench-smoke/split-$b-$n.out"
        done
    done
    test -s "target/bench-smoke/split-threads-$n.out"
done
# Framed chains at width 8 under the round-robin policy: on threads
# each edge between two framed nodes is a frame queue, whose frames
# move as whole buffers; on processes a FIFO of encoded frames. The
# `light-stream` script; a `sed` that makes every frame larger than
# the block it was dealt as; and a `grep -v` that leaves most frames
# empty (five lines of the input lack all three letters).
n=0
for script in "tr A-Z a-z | cut -d ' ' -f 1-4 | tr -d ',.' | tr -s ' '" \
    "tr A-Z a-z | sed 's/ /  /g' | tr -s ' '" "tr A-Z a-z | grep -v -E 'e|o|a' | cut -c 1-8"; do
    n=$((n + 1))
    LC_ALL=C /bin/sh -c "$script" <"$STDIN_IN" >"target/bench-smoke/frames-host-$n.out"
    for b in threads processes; do
        rm -rf "target/bench-smoke/frames-$b"
        mkdir -p "target/bench-smoke/frames-$b"
        timeout -s KILL 60 ./target/release/backendrun --backend "$b" --width 8 \
            --split rr --dir "target/bench-smoke/frames-$b" -e "$script" \
            <"$STDIN_IN" >"target/bench-smoke/frames-$b-$n.out"
        cmp "target/bench-smoke/frames-host-$n.out" "target/bench-smoke/frames-$b-$n.out"
    done
    test -s "target/bench-smoke/frames-threads-$n.out"
done
# A redirection into a missing directory fails on every backend, with
# the host shell's status, and makes no directory.
for b in shell threads processes; do
    rm -rf "target/bench-smoke/nodir-$b"
    mkdir -p "target/bench-smoke/nodir-$b"
    cp target/bench-smoke/cat-host/a.txt "target/bench-smoke/nodir-$b/"
    status=0
    timeout -s KILL 60 ./target/release/backendrun --backend "$b" --width 2 \
        --dir "target/bench-smoke/nodir-$b" -e 'cat a.txt > nodir/out.txt' \
        </dev/null 2>/dev/null || status=$?
    test "$status" -eq 2
    test ! -e "target/bench-smoke/nodir-$b/nodir"
done
# A file operand keeps its own name, so what a command prints of it is
# what the host prints.
n=0
for script in 'wc -l a.txt b.txt' 'sha1sum a.txt'; do
    n=$((n + 1))
    (cd target/bench-smoke/cat-host && LC_ALL=C /bin/sh -c "$script") \
        >"target/bench-smoke/names-host-$n.out"
    for b in shell threads processes; do
        rm -rf "target/bench-smoke/names-$b"
        mkdir -p "target/bench-smoke/names-$b"
        cp target/bench-smoke/cat-host/a.txt target/bench-smoke/cat-host/b.txt \
            "target/bench-smoke/names-$b/"
        timeout -s KILL 60 ./target/release/backendrun --backend "$b" --width 1 \
            --dir "target/bench-smoke/names-$b" -e "$script" \
            </dev/null >"target/bench-smoke/names-$b-$n.out"
        cmp "target/bench-smoke/names-host-$n.out" "target/bench-smoke/names-$b-$n.out"
    done
done
# A missing input file fails the emitted script: the copy that cannot
# open its input still opens, and closes, its output FIFO, so the
# relay reading that FIFO is not left waiting in `open`. `timeout` kills a wedged run (status 137),
# which fails the step.
status=0
timeout -s KILL 20 ./target/release/backendrun --backend shell --width 2 \
    --dir target/bench-smoke/names-shell -e 'wc -l a.txt nope' \
    </dev/null >/dev/null 2>&1 || status=$?
if [ "$status" -eq 0 ] || [ "$status" -eq 137 ]; then
    echo "    wc -l a.txt nope on shell at width 2 ended with status $status" >&2
    exit 1
fi
# A file a command cannot open ends that command, as in the host shell,
# and not the run: the host's stdout and exit status on every backend,
# and `out`, which no row may touch, as it was.
for script in 'cat nope a.txt' 'wc -l a.txt nope' 'tr a b < nope' 'sort < nope > out'; do
    for b in host shell threads processes; do
        d="target/bench-smoke/open-$b"
        rm -rf "$d"
        mkdir -p "$d"
        cp target/bench-smoke/cat-host/a.txt "$d/"
        echo kept >"$d/out"
        status=0
        if [ "$b" = host ]; then
            (cd "$d" && LC_ALL=C /bin/sh -c "$script") >"$d.out" 2>/dev/null || status=$?
            host=$status
            continue
        fi
        timeout -s KILL 60 ./target/release/backendrun --backend "$b" --width 1 \
            --dir "$d" -e "$script" </dev/null >"$d.out" 2>/dev/null || status=$?
        if [ "$status" -ne "$host" ]; then
            echo "    \`$script\` on $b ended with status $status, the host's with $host" >&2
            exit 1
        fi
        cmp target/bench-smoke/open-host.out "$d.out"
        echo kept | cmp - "$d/out"
    done
done

echo "==> remote backend smoke (2 localhost workers, cmp against shell)"
# The same corpus script again, this time with every parallel region
# shipped to two pash-worker daemons over Unix sockets (per-attempt
# placement under the supervised recovery ladder). The output must be
# byte-identical to the shell backend's.
rm -rf target/bench-smoke/backend-remote
mkdir -p target/bench-smoke/backend-remote
W1=target/bench-smoke/worker-1.sock
W2=target/bench-smoke/worker-2.sock
rm -f "$W1" "$W2"
./target/release/pash-worker --socket "$W1" & WPID1=$!
./target/release/pash-worker --socket "$W2" & WPID2=$!
trap 'kill $WPID1 $WPID2 2>/dev/null || true' EXIT
for _ in 1 2 3 4 5 6 7 8 9 10; do
    [ -S "$W1" ] && [ -S "$W2" ] && break
    sleep 0.2
done
# It reads no stdin: an inherited one that never ends would wedge it.
timeout -s KILL 60 ./target/release/backendrun --backend remote --width 4 \
    --dir target/bench-smoke/backend-remote --gen in.txt:200000 \
    --worker "$W1" --worker "$W2" -e "$SMOKE_SCRIPT" </dev/null
cmp target/bench-smoke/backend-shell/out.txt \
    target/bench-smoke/backend-remote/out.txt
test -s target/bench-smoke/backend-remote/out.txt
# A file a command writes by operand comes back from the worker that
# ran the command, as an output redirection's does.
d=target/bench-smoke/uniq
rm -rf "$d-host"
mkdir -p "$d-host"
cp target/bench-smoke/cat-host/a.txt "$d-host/"
(cd "$d-host" && LC_ALL=C /bin/sh -c 'uniq a.txt u.txt')
for width in 1 2; do
    rm -rf "$d-remote"
    mkdir -p "$d-remote"
    cp target/bench-smoke/cat-host/a.txt "$d-remote/"
    timeout -s KILL 60 ./target/release/backendrun --backend remote --width "$width" \
        --dir "$d-remote" --worker "$W1" --worker "$W2" -e 'uniq a.txt u.txt' </dev/null
    cmp "$d-host/u.txt" "$d-remote/u.txt"
done
# SIGTERM drains a worker the way a `Shutdown` request does. The shell
# reaps each worker while `timeout` polls, so `wait` then reports how
# it exited.
kill -TERM "$WPID1" "$WPID2"
for pid in "$WPID1" "$WPID2"; do
    timeout 10 sh -c "while kill -0 $pid 2>/dev/null; do sleep 0.1; done" || {
        echo "    pash-worker $pid still running 10 s after SIGTERM" >&2
        exit 1
    }
    status=0
    wait "$pid" || status=$?
    if [ "$status" -ne 0 ]; then
        echo "    pash-worker $pid exited $status after SIGTERM" >&2
        exit 1
    fi
done
for sock in "$W1" "$W2"; do
    if [ -e "$sock" ]; then
        echo "    $sock outlived its worker" >&2
        exit 1
    fi
done
trap - EXIT

echo "==> benchmark quick check (4 workloads, every path once, vs host /bin/sh)"
# The oracle is the host's shell and coreutils: without them there is
# nothing to compare against, so say so and move on. Any other failure
# (a diverging byte, a supervisor retry, a crashed daemon) exits
# non-zero and fails the gate.
missing=
for util in bash cat comm cut fold grep head nl rev sed sort tail tr uniq wc xargs; do
    command -v "$util" >/dev/null 2>&1 || missing="$missing $util"
done
if [ -n "$missing" ]; then
    echo "    skipped: host utilities the oracle needs are absent:$missing"
else
    bash bench/run.sh --quick >target/bench-smoke/bench-quick.log ||
        { restore_bench_lock; exit 1; }
    restore_bench_lock
    grep 'failed/attempted' target/bench-smoke/bench-quick.log | sed 's/^/    /'
fi

echo "==> cargo fmt --check"
cargo fmt --check

echo "==> cargo clippy (workspace, all targets, deny warnings)"
cargo clippy --workspace --all-targets -- -D warnings

echo "==> size (non-test lines; information, not a gate)"
# One awk over every file, so the count is one total. (No path in the
# tree holds a blank, so the list splits safely.)
# shellcheck disable=SC2046
awk 'FNR == 1 { test = 0 } /#\[cfg\(test\)\]/ { test = 1 } !test { n++ }
    END { printf "    %d non-test lines in %d files\n", n, ARGC - 1 }' \
    $(find . \( -path ./target -o -path ./bench -o -name tests \) -prune -o -name '*.rs' -print)

rm -f "$bench_lock"
echo "ci.sh: all green"
