#!/bin/sh
# Exact-profile byte guard.  The exact profile is the reference every
# fast-profile corridor is measured against, so its sweep bytes change
# only on purpose.  A small exact grid over all five builtin scenarios
# and every scheme (2 SNRs, 2 exchanges, 512-bit payloads) must hash to
# the recorded digest at 1 and 4 worker threads.  Re-record the digest
# (sha256sum of the --json document) only when exact output is meant to
# change.
#
# usage: exact_sweep_digest_test.sh /path/to/anc_sweep /path/to/exact_sweep.sha256
set -eu

SWEEP=${1:?usage: exact_sweep_digest_test.sh /path/to/anc_sweep DIGEST_FILE}
WANT=$(cat "${2:?usage: exact_sweep_digest_test.sh /path/to/anc_sweep DIGEST_FILE}")
WORKDIR=$(mktemp -d "${TMPDIR:-/tmp}/anc_exact_digest.XXXXXX")
trap 'rm -rf "$WORKDIR"' EXIT INT TERM

for THREADS in 1 4; do
    "$SWEEP" --scenario alice_bob --scenario x_topology --scenario chain \
             --scenario alice_bob_fading --scenario x_topology_fading \
             --snr 16,26 --exchanges 2 --payload-bits 512 --math-profile exact \
             --seed 1 --threads "$THREADS" --quiet --json "$WORKDIR/sweep.json"
    GOT=$(sha256sum "$WORKDIR/sweep.json" | cut -d ' ' -f 1)
    if [ "$GOT" != "$WANT" ]; then
        echo "FAIL: exact sweep at $THREADS threads hashes to $GOT, want $WANT" >&2
        exit 1
    fi
    echo "exact sweep at $THREADS threads: $GOT"
done
