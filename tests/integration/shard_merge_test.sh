#!/bin/sh
# Shard/merge partition test: run the same grid as three --shard K/3
# slices (at 1 and 8 threads), --merge the three journals, and require
# the merged JSON/CSV to be byte-identical to a single uninterrupted
# run.  The same must hold when one shard is SIGKILLed mid-run and
# resumed from its journal before the merge.  Also checks that merging
# an incomplete or overlapping shard set is refused.
#
# usage: shard_merge_test.sh /path/to/anc_sweep
set -eu

SWEEP=${1:?usage: shard_merge_test.sh /path/to/anc_sweep}
WORKDIR=$(mktemp -d "${TMPDIR:-/tmp}/anc_shard_merge.XXXXXX")
# The trap also reaps the background shard, so a failing or timed-out
# test never leaks a running sweep into later tests.
PID=
cleanup() {
    [ -n "$PID" ] && kill -KILL "$PID" 2>/dev/null
    wait 2>/dev/null
    rm -rf "$WORKDIR"
}
trap cleanup EXIT INT TERM
cd "$WORKDIR"

GRID="--scenario alice_bob --snr 18:30:4 --repetitions 3 --exchanges 8 \
      --payload-bits 512 --seed 4242 --quiet"

echo "== single-run baseline"
# shellcheck disable=SC2086   # GRID is a flag list
"$SWEEP" $GRID --threads 2 --json baseline.json --tasks-csv baseline.csv \
    --csv baseline_agg.csv

for THREADS in 1 8; do
    echo "== shards at $THREADS threads"
    for K in 1 2 3; do
        # shellcheck disable=SC2086
        "$SWEEP" $GRID --threads "$THREADS" --shard "$K/3" \
            --journal "shard$K.anj" > /dev/null
    done
    echo "== merge"
    # shellcheck disable=SC2086
    "$SWEEP" $GRID --merge shard1.anj,shard2.anj,shard3.anj \
        --json merged.json --tasks-csv merged.csv --csv merged_agg.csv
    cmp baseline.json merged.json
    cmp baseline.csv merged.csv
    cmp baseline_agg.csv merged_agg.csv
    echo "   merged output byte-identical at $THREADS threads"
    rm -f shard1.anj shard2.anj shard3.anj merged.json merged.csv merged_agg.csv
done

echo "== a shard SIGKILLed mid-run resumes, then merges"
# Long enough per shard (64 tasks at one thread) for the kill to land
# before the shard finishes.
BIG="--scenario alice_bob --snr 10:40:2 --repetitions 4 --exchanges 40 \
     --payload-bits 512 --seed 2007 --quiet"
# shellcheck disable=SC2086
"$SWEEP" $BIG --threads 2 --json big_baseline.json
for K in 1 3; do
    # shellcheck disable=SC2086
    "$SWEEP" $BIG --threads 1 --shard "$K/3" --journal "big$K.anj" > /dev/null
done
# shellcheck disable=SC2086
"$SWEEP" $BIG --threads 1 --shard 2/3 --journal big2.anj > /dev/null 2>&1 &
PID=$!
# Magic + header + ~18 task rows; bounded wait (~60 s).
WAITS=0
while :; do
    kill -0 "$PID" 2>/dev/null || break
    LINES=$({ wc -l < big2.anj; } 2>/dev/null || echo 0)
    [ "$LINES" -ge 20 ] && break
    WAITS=$(( WAITS + 1 ))
    if [ "$WAITS" -gt 1200 ]; then
        echo "FAIL: shard journal never reached 20 lines" >&2
        exit 1
    fi
    sleep 0.05
done
if kill -KILL "$PID" 2>/dev/null; then
    echo "   killed shard 2/3 after $(wc -l < big2.anj) journal lines"
else
    echo "   shard 2/3 finished before the kill landed (machine too fast)" >&2
fi
wait "$PID" 2>/dev/null || true
PID=
# shellcheck disable=SC2086
"$SWEEP" $BIG --threads 1 --shard 2/3 --resume big2.anj 2> resume.log
grep -E 'resumed [1-9][0-9]*' resume.log \
    || { echo "FAIL: the resumed shard reused no journal rows" >&2; exit 1; }
# shellcheck disable=SC2086
"$SWEEP" $BIG --merge big1.anj,big2.anj,big3.anj --json big_merged.json
cmp big_baseline.json big_merged.json
echo "   resumed-shard merge byte-identical"

echo "== gap detection: merging 2 of 3 shards must fail"
# shellcheck disable=SC2086
"$SWEEP" $GRID --threads 1 --shard 1/3 --journal shard1.anj > /dev/null
# shellcheck disable=SC2086
"$SWEEP" $GRID --threads 1 --shard 2/3 --journal shard2.anj > /dev/null
# shellcheck disable=SC2086
if "$SWEEP" $GRID --merge shard1.anj,shard2.anj --json gap.json 2> gap.log; then
    echo "FAIL: incomplete merge exited 0" >&2
    exit 1
fi
grep -q "gap" gap.log
[ ! -f gap.json ] || { echo "FAIL: incomplete merge published gap.json" >&2; exit 1; }

echo "== overlap detection: the same shard twice must fail"
# shellcheck disable=SC2086
if "$SWEEP" $GRID --merge shard1.anj,shard1.anj 2> overlap.log; then
    echo "FAIL: overlapping merge exited 0" >&2
    exit 1
fi
grep -q "overlap" overlap.log
echo "PASS: shard/merge (with a resumed shard) is byte-identical and gap/overlap-safe"
