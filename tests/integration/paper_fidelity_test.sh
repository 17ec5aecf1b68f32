#!/bin/sh
# Paper fidelity: the §11.3 ANC gain rows printed by bench/summary_table
# must stay inside stated corridors around the paper's values, under the
# exact and the fast math profile, and the two profiles must agree row
# by row.  A regenerated golden cannot hide a drifting reproduction: the
# corridors are written here, against the paper, not against a capture.
#
# usage: paper_fidelity_test.sh /path/to/summary_table
set -eu

TABLE=${1:?usage: paper_fidelity_test.sh /path/to/summary_table}
WORKDIR=$(mktemp -d "${TMPDIR:-/tmp}/anc_paper_fidelity.XXXXXX")
trap 'rm -rf "$WORKDIR"' EXIT INT TERM

# The default run and exchange counts are the table's published setting;
# no artifact files are wanted.
for PROFILE in exact fast; do
    env -u ANC_BENCH_RUNS -u ANC_BENCH_EXCHANGES -u ANC_ENGINE_JSON \
        -u ANC_ENGINE_CSV -u ANC_METRICS_JSON ANC_MATH_PROFILE="$PROFILE" \
        "$TABLE" > "$WORKDIR/$PROFILE.txt"
done

# measured PROFILE ROW: the last column of the table row starting with ROW.
measured() {
    awk -v row="$2" 'index($0, row) == 1 { print $NF; found = 1 }
                     END { exit !found }' "$WORKDIR/$1.txt"
}

# within A B W: |A - B| <= W.
within() {
    awk -v a="$1" -v b="$2" -v w="$3" 'BEGIN { d = a - b; exit !(d <= w && -d <= w) }'
}

FAILED=0
# ROW|PAPER|HALF-WIDTH
while IFS='|' read -r ROW PAPER HALF; do
    EXACT=$(measured exact "$ROW")
    FAST=$(measured fast "$ROW")
    echo "$ROW: paper $PAPER, exact $EXACT, fast $FAST (corridor +-$HALF)"
    for VALUE in "$EXACT" "$FAST"; do
        within "$VALUE" "$PAPER" "$HALF" || {
            echo "FAIL: $ROW = $VALUE outside $PAPER +- $HALF" >&2
            FAILED=1
        }
    done
    within "$FAST" "$EXACT" 0.08 || {
        echo "FAIL: $ROW fast $FAST drifts more than 0.08 from exact $EXACT" >&2
        FAILED=1
    }
done <<'ROWS'
Alice-Bob: ANC gain over traditional|1.70|0.10
Alice-Bob: ANC gain over COPE|1.30|0.10
X: ANC gain over traditional|1.65|0.10
X: ANC gain over COPE|1.28|0.10
Chain: ANC gain over traditional|1.36|0.06
ROWS

[ "$FAILED" = 0 ] || exit 1
echo "PASS: the 11.3 gain rows sit in their corridors under exact and fast"
