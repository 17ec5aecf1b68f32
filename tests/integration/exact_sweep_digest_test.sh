#!/bin/sh
# Exact-profile byte guard.  The exact profile is the reference every
# fast-profile corridor is measured against, so its sweep bytes change
# only on purpose.  An exact grid over all five builtin scenarios and
# every scheme (512-bit payloads, seed 1, at the given SNRs and exchange
# count) must hash to the recorded digest at 1 and 4 worker threads.
# Re-record a digest (sha256sum of the --json document) only when exact
# output is meant to change.
#
# usage: exact_sweep_digest_test.sh /path/to/anc_sweep DIGEST_FILE SNR_LIST EXCHANGES
set -eu

USAGE="usage: exact_sweep_digest_test.sh /path/to/anc_sweep DIGEST_FILE SNR_LIST EXCHANGES"
SWEEP=${1:?$USAGE}
WANT=$(cat "${2:?$USAGE}")
SNRS=${3:?$USAGE}
EXCHANGES=${4:?$USAGE}
WORKDIR=$(mktemp -d "${TMPDIR:-/tmp}/anc_exact_digest.XXXXXX")
trap 'rm -rf "$WORKDIR"' EXIT INT TERM

for THREADS in 1 4; do
    "$SWEEP" --scenario alice_bob --scenario x_topology --scenario chain \
             --scenario alice_bob_fading --scenario x_topology_fading \
             --snr "$SNRS" --exchanges "$EXCHANGES" --payload-bits 512 --math-profile exact \
             --seed 1 --threads "$THREADS" --quiet --json "$WORKDIR/sweep.json"
    GOT=$(sha256sum "$WORKDIR/sweep.json" | cut -d ' ' -f 1)
    if [ "$GOT" != "$WANT" ]; then
        echo "FAIL: exact sweep at $THREADS threads hashes to $GOT, want $WANT" >&2
        exit 1
    fi
    echo "exact sweep at $THREADS threads: $GOT"
done
