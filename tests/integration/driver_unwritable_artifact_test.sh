#!/bin/sh
# A figure or ablation driver whose artifact cannot be published must
# fail like anc_sweep does: exit 2 with an `error:` line, not abort on an
# uncaught exception, and leave no `.tmp.*` file beside the target.  Two
# paths fail at different steps: a missing directory (the temp file
# cannot be created) and an existing directory as the target (the temp
# file is written, then the rename onto it fails).
#
# usage: driver_unwritable_artifact_test.sh /path/to/fig09_alice_bob /path/to/ablation_fec
set -u

FIGURE=${1:?usage: driver_unwritable_artifact_test.sh FIGURE_DRIVER ABLATION_DRIVER}
ABLATION=${2:?usage: driver_unwritable_artifact_test.sh FIGURE_DRIVER ABLATION_DRIVER}
WORKDIR=$(mktemp -d "${TMPDIR:-/tmp}/anc_unwritable.XXXXXX")
trap 'rm -rf "$WORKDIR"' EXIT INT TERM
mkdir "$WORKDIR/taken"

# expect_exit_2 TARGET DRIVER FLAG [ARGS...]: DRIVER FLAG TARGET ARGS...
expect_exit_2()
{
    TARGET=$1
    DRIVER=$2
    FLAG=$3
    shift 3
    "$DRIVER" "$FLAG" "$TARGET" "$@" > /dev/null 2> "$WORKDIR/stderr.log"
    RC=$?
    if [ "$RC" != 2 ]; then
        echo "FAIL: $(basename "$DRIVER") $FLAG $TARGET exited $RC, not 2:" >&2
        cat "$WORKDIR/stderr.log" >&2
        exit 1
    fi
    if ! grep -q "^error: " "$WORKDIR/stderr.log"; then
        echo "FAIL: $(basename "$DRIVER") $FLAG $TARGET printed no error line" >&2
        exit 1
    fi
    LEFT=$(find "$WORKDIR" -name '*.tmp.*')
    if [ -n "$LEFT" ]; then
        echo "FAIL: $(basename "$DRIVER") $FLAG $TARGET left $LEFT" >&2
        exit 1
    fi
}

for TARGET in "$WORKDIR/missing/out.json" "$WORKDIR/taken"; do
    expect_exit_2 "$TARGET" "$FIGURE" --json --repetitions 1 --exchanges 1
    expect_exit_2 "$TARGET" "$ABLATION" --metrics-json --exchanges 1
done
echo "both drivers exit 2 on an unwritable artifact and leave no temp file"
