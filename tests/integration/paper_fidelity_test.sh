#!/bin/sh
# Paper fidelity: the §11.3 rows printed by bench/summary_table must stay
# inside stated corridors around the paper's values, under the exact and
# the fast math profile, and the two profiles must agree row by row.  The
# gain and overlap rows have two-sided corridors; the BER rows are
# one-sided (at most the paper's BER).  A row that prints no number
# ("n/a": nothing measured) fails.  A regenerated golden cannot hide a
# drifting reproduction: the corridors are written here, against the
# paper, not against a capture.
#
# usage: paper_fidelity_test.sh /path/to/summary_table
set -eu

TABLE=${1:?usage: paper_fidelity_test.sh /path/to/summary_table}
WORKDIR=$(mktemp -d "${TMPDIR:-/tmp}/anc_paper_fidelity.XXXXXX")
trap 'rm -rf "$WORKDIR"' EXIT INT TERM

# The default run and exchange counts are the table's published setting.
for PROFILE in exact fast; do
    "$TABLE" --math-profile "$PROFILE" > "$WORKDIR/$PROFILE.txt"
done

# measured PROFILE ROW: the last column of the table row starting with ROW.
measured() {
    awk -v row="$2" 'index($0, row) == 1 { print $NF; found = 1 }
                     END { exit !found }' "$WORKDIR/$1.txt"
}

# number X: X is a plain decimal number (not "n/a" or empty).
number() {
    printf '%s\n' "$1" | grep -Eq '^-?[0-9]+(\.[0-9]+)?$'
}

# within A B W: |A - B| <= W.
within() {
    awk -v a="$1" -v b="$2" -v w="$3" 'BEGIN { d = a - b; exit !(d <= w && -d <= w) }'
}

# at_most A B: A <= B.
at_most() {
    awk -v a="$1" -v b="$2" 'BEGIN { exit !(a <= b) }'
}

FAILED=0
# ROW|PAPER|CORRIDOR|AGREE: CORRIDOR "+-W" is PAPER +- W, "max" is at
# most PAPER; AGREE is how far fast may sit from exact.
while IFS='|' read -r ROW PAPER CORRIDOR AGREE; do
    EXACT=$(measured exact "$ROW")
    FAST=$(measured fast "$ROW")
    echo "$ROW: paper $PAPER, exact $EXACT, fast $FAST (corridor $CORRIDOR)"
    for VALUE in "$EXACT" "$FAST"; do
        if ! number "$VALUE"; then
            echo "FAIL: $ROW = '$VALUE' is not a measurement" >&2
            FAILED=1
        elif [ "$CORRIDOR" = max ]; then
            at_most "$VALUE" "$PAPER" || {
                echo "FAIL: $ROW = $VALUE above the paper's $PAPER" >&2
                FAILED=1
            }
        else
            within "$VALUE" "$PAPER" "${CORRIDOR#+-}" || {
                echo "FAIL: $ROW = $VALUE outside $PAPER $CORRIDOR" >&2
                FAILED=1
            }
        fi
    done
    if number "$EXACT" && number "$FAST"; then
        within "$FAST" "$EXACT" "$AGREE" || {
            echo "FAIL: $ROW fast $FAST drifts more than $AGREE from exact $EXACT" >&2
            FAILED=1
        }
    fi
done <<'ROWS'
Alice-Bob: ANC gain over traditional|1.70|+-0.10|0.08
Alice-Bob: ANC gain over COPE|1.30|+-0.10|0.08
Alice-Bob: mean packet overlap|0.80|+-0.05|0.005
Alice-Bob: mean ANC BER|0.04|max|0.005
X: ANC gain over traditional|1.65|+-0.10|0.08
X: ANC gain over COPE|1.28|+-0.10|0.08
Chain: ANC gain over traditional|1.36|+-0.06|0.08
Chain: mean BER at N2|0.015|max|0.005
BER at SIR -3 dB (decoding at Alice)|0.05|max|0.005
ROWS

[ "$FAILED" = 0 ] || exit 1
echo "PASS: the 11.3 rows sit in their corridors under exact and fast"
