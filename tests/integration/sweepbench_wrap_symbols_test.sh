#!/bin/sh
# The sweep benchmark links its tracing build with -Wl,--wrap=<mangled>
# for every `__wrap_<mangled>` defined in its wrapper sources.  A wrapped
# entry point that is renamed or changes its signature would only show
# up as a link failure inside that build.  This check fails first: each
# wrapped symbol must be defined in the library.
#
# usage: sweepbench_wrap_symbols_test.sh /path/to/libanc.a WRAPPER_SOURCE...
set -eu
export LC_ALL=C # one collation for sort and comm

LIBRARY=${1:?usage: sweepbench_wrap_symbols_test.sh /path/to/libanc.a WRAPPER_SOURCE...}
shift
[ $# -gt 0 ] || { echo "no wrapper sources given" >&2; exit 2; }

WORKDIR=$(mktemp -d "${TMPDIR:-/tmp}/anc_wrap_symbols.XXXXXX")
trap 'rm -rf "$WORKDIR"' EXIT INT TERM

nm --defined-only "$LIBRARY" 2>/dev/null | awk 'NF == 3 { print $3 }' | sort -u \
    > "$WORKDIR/defined"
# Same pattern the benchmark's CMakeLists.txt turns into --wrap options.
grep -ohE '__wrap__Z[A-Za-z0-9_]+' "$@" | sed 's/^__wrap_//' | sort -u > "$WORKDIR/wrapped"

WRAPPED=$(wc -l < "$WORKDIR/wrapped")
if [ "$WRAPPED" -eq 0 ]; then
    echo "FAIL: no __wrap_ symbols found in $*" >&2
    exit 1
fi
MISSING=$(comm -23 "$WORKDIR/wrapped" "$WORKDIR/defined")
if [ -n "$MISSING" ]; then
    echo "FAIL: wrapped symbols not defined in $LIBRARY:" >&2
    echo "$MISSING" >&2
    exit 1
fi
echo "all $WRAPPED wrapped symbols are defined in $LIBRARY"
