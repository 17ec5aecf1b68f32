#!/bin/sh
# The paper's numbers are written once, in bench/paper_values.h: no
# print_compare call under bench/ passes a numeric literal, and the paper
# fidelity script holds no decimal number.  Fails, naming the offenders,
# otherwise.
#
# usage: paper_values_single_copy_test.sh REPO_ROOT
set -eu

ROOT=${1:?usage: paper_values_single_copy_test.sh REPO_ROOT}
FAILED=0

# Each print_compare call from its name to the ';' that ends it, string
# literals and comments dropped; a digit that starts a token is a literal.
# The definition ("void print_compare(") is not a call.
CALLS=$(find "$ROOT/bench" -name '*.cpp' -o -name '*.h' | sort | xargs awk '
BEGIN { RS = ";" }
{
    text = $0
    while ((at = index(text, "print_compare(")) > 0) {
        call = substr(text, at)
        head = substr(text, 1, at - 1)
        text = substr(text, at + 14)
        if (head ~ /void[ \t\n]*$/)
            continue
        gsub(/\/\/[^\n]*/, "", call)
        gsub(/"([^"\\]|\\.)*"/, "\"\"", call)
        if (call ~ /(^|[^A-Za-z0-9_])\.?[0-9]/) {
            gsub(/[ \t\n]+/, " ", call)
            print FILENAME ": " call
        }
    }
}')
if [ -n "$CALLS" ]; then
    echo "FAIL: print_compare calls with a numeric literal (put the value in bench/paper_values.h):" >&2
    echo "$CALLS" >&2
    FAILED=1
fi

if grep -n '[0-9]\.[0-9]' "$ROOT/tests/integration/paper_fidelity_test.sh" >&2; then
    echo "FAIL: paper_fidelity_test.sh holds a decimal number (above)" >&2
    FAILED=1
fi

[ "$FAILED" = 0 ] || exit 1
echo "PASS: every paper value is written once, in bench/paper_values.h"
