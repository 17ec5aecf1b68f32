#!/bin/sh
# A bench driver's count knob (ANC_BENCH_RUNS, ANC_BENCH_EXCHANGES) is
# unset/empty (the default) or one whole number >= 1.  Each malformed
# VALUE must stop the driver with a non-zero exit and an error that
# names VAR, never run a truncated prefix or fall back to the default.
#
# usage: bench_env_count_test.sh /path/to/bench VAR VALUE...
set -u
ulimit -c 0 2>/dev/null # an uncaught exception aborts; keep no core file

BENCH=${1:?usage: bench_env_count_test.sh /path/to/bench VAR VALUE...}
VAR=${2:?usage: bench_env_count_test.sh /path/to/bench VAR VALUE...}
shift 2
[ $# -gt 0 ] || { echo "no values given" >&2; exit 2; }

for VALUE in "$@"; do
    if OUT=$(env "$VAR=$VALUE" "$BENCH" 2>&1); then
        echo "FAIL: $VAR='$VALUE' was accepted" >&2
        exit 1
    fi
    if ! printf '%s\n' "$OUT" | grep -q "$VAR wants"; then
        echo "FAIL: $VAR='$VALUE' failed without naming $VAR:" >&2
        printf '%s\n' "$OUT" >&2
        exit 1
    fi
done
echo "rejected every value of $VAR: $*"
