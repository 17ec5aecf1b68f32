#!/bin/sh
# A bench driver's count flag (--repetitions, --exchanges) takes one
# whole number >= 1.  Each malformed VALUE must be a usage error: exit 2,
# an `error:` line that names FLAG, and no --json file, never a run over
# a truncated prefix or the default.
#
# usage: bench_count_flag_test.sh /path/to/bench FLAG VALUE...
set -u

BENCH=${1:?usage: bench_count_flag_test.sh /path/to/bench FLAG VALUE...}
FLAG=${2:?usage: bench_count_flag_test.sh /path/to/bench FLAG VALUE...}
shift 2
[ $# -gt 0 ] || { echo "no values given" >&2; exit 2; }
WORKDIR=$(mktemp -d "${TMPDIR:-/tmp}/anc_count_flag.XXXXXX")
trap 'rm -rf "$WORKDIR"' EXIT INT TERM

for VALUE in "$@"; do
    "$BENCH" "$FLAG" "$VALUE" --json "$WORKDIR/bad.json" \
        > /dev/null 2> "$WORKDIR/stderr.log"
    RC=$?
    if [ "$RC" != 2 ]; then
        echo "FAIL: $FLAG '$VALUE' exited $RC, not 2" >&2
        exit 1
    fi
    if ! grep "^error: " "$WORKDIR/stderr.log" | grep -q -- "$FLAG"; then
        echo "FAIL: $FLAG '$VALUE' failed without an error line naming $FLAG:" >&2
        cat "$WORKDIR/stderr.log" >&2
        exit 1
    fi
    if [ -e "$WORKDIR/bad.json" ]; then
        echo "FAIL: $FLAG '$VALUE' wrote its --json file" >&2
        exit 1
    fi
done
echo "rejected every value of $FLAG: $*"
