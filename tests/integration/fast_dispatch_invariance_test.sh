#!/bin/sh
# Fast-profile dispatch invariance, end to end.  The lane kernels draw the
# same bits on every backend (src/util/simd.h), so a small fast grid over
# all five builtin scenarios must emit a byte-identical sweep document
# under native dispatch, with ANC_FORCE_AVX2_SIMD=1 and with
# ANC_FORCE_SCALAR_SIMD=1.  Each run sets both caps itself, so the check
# keeps its three backends whatever caps the calling environment sets
# (on a CPU without AVX-512 or AVX2 the runs coincide and the check is
# weaker, never wrong).
#
# usage: fast_dispatch_invariance_test.sh /path/to/anc_sweep
set -eu

SWEEP=${1:?usage: fast_dispatch_invariance_test.sh /path/to/anc_sweep}
WORKDIR=$(mktemp -d "${TMPDIR:-/tmp}/anc_fast_dispatch.XXXXXX")
trap 'rm -rf "$WORKDIR"' EXIT INT TERM

# run NAME FORCE_SCALAR FORCE_AVX2: the grid under those caps.
run() {
    ANC_FORCE_SCALAR_SIMD=$2 ANC_FORCE_AVX2_SIMD=$3 "$SWEEP" \
        --scenario alice_bob --scenario x_topology --scenario chain \
        --scenario alice_bob_fading --scenario x_topology_fading \
        --snr 16,22 --exchanges 6 --payload-bits 512 --math-profile fast \
        --seed 7 --threads 2 --quiet --json "$WORKDIR/$1.json"
}

run native "" ""
run avx2 "" 1
run scalar 1 ""
for BACKEND in avx2 scalar; do
    if ! cmp "$WORKDIR/native.json" "$WORKDIR/$BACKEND.json"; then
        echo "FAIL: the fast sweep differs between native and $BACKEND dispatch" >&2
        exit 1
    fi
done
echo "fast sweep byte-identical under native, avx2 and scalar dispatch"
