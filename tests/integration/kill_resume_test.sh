#!/bin/sh
# Kill-mid-sweep crash test: start anc_sweep with a journal, SIGKILL it
# once the journal holds roughly half its task rows, resume from the
# journal, and require the final JSON/CSV to be byte-identical to an
# uninterrupted run.  SIGKILL (not SIGTERM) on purpose — no handler
# runs, so this exercises the journal's torn-line/durability story, not
# the graceful drain.  The same grid under --stream (rows written as
# tasks finish) must publish the batch run's bytes, and a SIGKILLed
# --stream run must publish nothing.
#
# usage: kill_resume_test.sh /path/to/anc_sweep
set -eu

SWEEP=${1:?usage: kill_resume_test.sh /path/to/anc_sweep}
WORKDIR=$(mktemp -d "${TMPDIR:-/tmp}/anc_kill_resume.XXXXXX")
# The trap must also reap the background sweep: if the test dies (or
# ctest kills it on TIMEOUT), a still-running worker must not wedge the
# suite or leak into later tests.
PID=
cleanup() {
    [ -n "$PID" ] && kill -KILL "$PID" 2>/dev/null
    wait 2>/dev/null
    rm -rf "$WORKDIR"
}
trap cleanup EXIT INT TERM
cd "$WORKDIR"

# Big enough to survive until the kill lands, small enough for CI.
GRID="--scenario alice_bob --snr 10:40:2 --repetitions 4 --exchanges 40 \
      --payload-bits 512 --seed 2007 --quiet"
TASKS=$(( 16 * 3 * 4 ))   # snr points x schemes x repetitions

echo "== uninterrupted baseline"
# shellcheck disable=SC2086   # GRID is a flag list
"$SWEEP" $GRID --threads 2 --json baseline.json --tasks-csv baseline.csv \
    --csv baseline_agg.csv

# start_and_kill JOURNAL ARGS...: run the grid in the background with
# --journal JOURNAL and SIGKILL it once the journal holds about half the
# task rows.  Sets KILLED=1 when the kill landed, 0 when the sweep had
# already finished (a fast machine; the checks that follow stay valid).
start_and_kill() {
    JOURNAL=$1
    shift
    # shellcheck disable=SC2086
    "$SWEEP" $GRID --threads 2 --journal "$JOURNAL" "$@" &
    PID=$!
    HALF=$(( TASKS / 2 ))
    # Bounded watch loop (~60 s): a hung worker must fail the test here,
    # not stall it until the ctest TIMEOUT reaps the whole suite.
    WAITS=0
    while :; do
        kill -0 "$PID" 2>/dev/null || break
        LINES=$(wc -l 2>/dev/null < "$JOURNAL" || echo 0)
        [ "$LINES" -ge "$HALF" ] && break
        WAITS=$(( WAITS + 1 ))
        if [ "$WAITS" -gt 1200 ]; then
            echo "FAIL: journal never reached $HALF lines (worker hung?)" >&2
            exit 1
        fi
        sleep 0.05
    done
    if kill -KILL "$PID" 2>/dev/null; then
        KILLED=1
        echo "   killed after $(wc -l < "$JOURNAL") journal lines"
    else
        KILLED=0
        echo "   sweep finished before the kill landed (machine too fast)" >&2
    fi
    wait "$PID" 2>/dev/null || true
    PID=
}

echo "== start sweep with journal, SIGKILL at ~half"
start_and_kill run.anj --json crashed.json
[ "$KILLED" = 1 ] || echo "   resuming a complete journal is still a valid check; continuing" >&2

if [ "$KILLED" = 1 ] && [ -f crashed.json ]; then
    echo "FAIL: killed run must not publish crashed.json" >&2
    exit 1
fi
[ -s run.anj ] || { echo "FAIL: journal is empty" >&2; exit 1; }

echo "== resume from the journal"
# shellcheck disable=SC2086
"$SWEEP" $GRID --threads 2 --resume run.anj --json resumed.json \
    --tasks-csv resumed.csv --csv resumed_agg.csv 2> resume.log
grep "resumed" resume.log

echo "== byte-identity"
cmp baseline.json resumed.json
cmp baseline.csv resumed.csv
cmp baseline_agg.csv resumed_agg.csv

echo "== --stream publishes the batch bytes"
# shellcheck disable=SC2086
"$SWEEP" $GRID --threads 2 --stream --json streamed.json --tasks-csv streamed.csv \
    --csv streamed_agg.csv
cmp baseline.json streamed.json
cmp baseline.csv streamed.csv
cmp baseline_agg.csv streamed_agg.csv

echo "== SIGKILLed --stream run publishes nothing"
start_and_kill stream.anj --stream --json killed_stream.json \
    --tasks-csv killed_stream.csv
if [ "$KILLED" = 1 ]; then
    for artifact in killed_stream.json killed_stream.csv; do
        if [ -e "$artifact" ]; then
            echo "FAIL: killed --stream run must not publish $artifact" >&2
            exit 1
        fi
        # The rows went to the unpublished temp sibling instead.
        ls "$artifact".tmp.* > /dev/null
    done
fi
echo "PASS: resumed and streamed sweeps are byte-identical to the uninterrupted run"
