#!/bin/sh
# Paper fidelity: every paper-vs-measured line the figure drivers and
# summary_table print sits in its corridor, under the exact and the fast
# math profile, and the two profiles agree within the line's width.
#
# The paper's values live in one place, bench/paper_values.h, and reach
# the output only through bench::print_compare, which prints each line as
#   <label>, <statistic>  paper P <+-W|max>  measured M  profiles within A  source: ...
# ("+-W" is P +- W, "max" is at most P), with "  known gap: ..." appended
# for an entry the paper's corridors do not cover yet.  This script holds
# no number of its own: it reads those lines.  It fails when
#   - a line measures nothing ("n/a");
#   - a line falls outside its corridor and is not a known gap;
#   - a known-gap line falls inside its corridor (the mark is stale);
#   - fast sits further from exact than the line's profile width;
#   - an entry of paper_values.h appears in no driver's output.
# Each driver runs at its default settings, which are the published ones.
#
# usage: paper_fidelity_test.sh PAPER_VALUES_H CLOSED_FORM_DRIVER DRIVER...
#   CLOSED_FORM_DRIVER runs once (it takes no math profile); every other
#   DRIVER runs with --math-profile exact and --math-profile fast.
set -eu

USAGE="usage: paper_fidelity_test.sh PAPER_VALUES_H CLOSED_FORM_DRIVER DRIVER..."
VALUES=${1:?$USAGE}
CLOSED=${2:?$USAGE}
shift 2
WORKDIR=$(mktemp -d "${TMPDIR:-/tmp}/anc_paper_fidelity.XXXXXX")
trap 'rm -rf "$WORKDIR"' EXIT INT TERM

"$CLOSED" > "$WORKDIR/$(basename "$CLOSED").once.out"
for DRIVER in "$@"; do
    for PROFILE in exact fast; do
        "$DRIVER" --math-profile "$PROFILE" > "$WORKDIR/$(basename "$DRIVER").$PROFILE.out"
    done
done

# The entries' labels, as paper_values.h spells them.
sed -n 's/^ *\.label = "\(.*\)",$/\1/p' "$VALUES" > "$WORKDIR/labels"

# One record per compare line: DRIVER|PROFILE|LABEL|PAPER|CORRIDOR|MEASURED|WITHIN|GAP.
awk '
/ paper [-0-9.]+ (max|\+-[0-9.]+) +measured [^ ]+ +profiles within [0-9.]+/ {
    at = index($0, " paper ")
    label = substr($0, 3, at - 3)
    sub(/ +$/, "", label)
    split(substr($0, at), field, " ")
    run = FILENAME
    sub(/.*\//, "", run)
    sub(/\.out$/, "", run)
    profile = run
    sub(/.*\./, "", profile)
    sub(/\.[^.]*$/, "", run)
    gap = index($0, "  known gap: ") ? "gap" : "-"
    print run "|" profile "|" label "|" field[2] "|" field[3] "|" field[5] "|" field[8] "|" gap
}' "$WORKDIR"/*.out > "$WORKDIR/lines"

awk -F'|' '
# Values are printed to three decimals; compare them in thousandths so
# that a value on a corridor edge counts as inside.
function milli(x) { return int(x * 1000 + (x < 0 ? -1 : 1) / 2) }
function magnitude(x) { return x < 0 ? -x : x }
function fail(message) { print "FAIL: " message > "/dev/stderr"; failed = 1 }
FILENAME ~ /labels$/ { entries[$0] = 1; entry_count++; next }
{
    driver = $1; profile = $2; label = $3
    paper = $4; corridor = $5; value = $6; within = $7; gap = $8
    print driver " [" profile "] " label ": paper " paper " " corridor ", measured " value \
          (gap == "gap" ? " (known gap)" : "")
    for (entry in entries)
        if (index(label, entry ", ") == 1)
            seen[entry] = 1
    key = driver "|" label
    if (profile == "exact") exact[key] = value
    if (profile == "fast") { fast[key] = value; width[key] = within }
    if (value == "n/a") {
        fail(driver " [" profile "] " label " measured nothing")
        next
    }
    if (corridor == "max")
        inside = milli(value) <= milli(paper)
    else
        inside = magnitude(milli(value) - milli(paper)) <= milli(substr(corridor, 3))
    if (!inside && gap == "-")
        fail(driver " [" profile "] " label " = " value " outside paper " paper " " corridor)
    if (inside && gap == "gap")
        fail(driver " [" profile "] " label " = " value " is inside paper " paper " " corridor \
             ": drop its known-gap mark")
}
END {
    if (entry_count == 0)
        fail("no .label entries found in the paper values header")
    for (entry in entries)
        if (!(entry in seen))
            fail("no driver prints the entry \"" entry "\"")
    for (key in exact)
        if (!(key in fast))
            fail(key ": printed under exact but not under fast")
    for (key in fast) {
        if (!(key in exact)) {
            fail(key ": printed under fast but not under exact")
            continue
        }
        if (exact[key] == "n/a" || fast[key] == "n/a")
            continue
        if (magnitude(milli(fast[key]) - milli(exact[key])) > milli(width[key]))
            fail(key ": fast " fast[key] " drifts more than " width[key] " from exact " exact[key])
    }
    if (NR == entry_count)
        fail("the drivers printed no compare line")
    exit failed
}' "$WORKDIR/labels" "$WORKDIR/lines"

echo "PASS: every compare line sits in its corridor under exact and fast"
