#!/usr/bin/env python3
"""List the library functions that no binary of the repository reaches.

    python3 tools/unreached_functions.py [--allowlist FILE] BUILD_DIR

Configures a `--coverage -O0` build of the repository in BUILD_DIR,
builds the library, every bench driver and every example, and runs them:
each bench driver and example at its defaults, and anc_sweep on a small
paper grid under both math profiles (the fast grid also with
ANC_FORCE_AVX2_SIMD=1 and ANC_FORCE_SCALAR_SIMD=1, so lane-kernel table
entries the host does not dispatch to still run), a multi-axis grid, and
every emitter and fault-tolerance flag (--journal, --resume, --shard,
--merge, --stream, --csv, --tasks-csv, --metrics-json, --list-scenarios)
and its stdout table.

Before the runs it checks that no object file is newer than a binary
that links it (sources edited while the build ran), and exits 1 at once
if one is, rather than failing in gcov after every run.

It then sums `gcov --json-format` call counts per function over every
library, bench and example translation unit (header inlines are compiled
into the bench objects, so the library objects alone would misreport
them) and prints each function defined under src/ that made 0 calls,
as `path:line  name`, followed by a count.  An inline function that no
translation unit uses is never emitted, so gcov cannot see it.  On a host
without AVX-512F the AVX-512 table's kernels are reported too.

With --allowlist FILE the report is a gate.  FILE is a JSON list of
entries {"path", "name", "reason"}, keyed by the source path under the
repository root and the demangled name, never by line; a `*` in "name"
matches any run of characters.  An entry with "unless_cpu_flag": FLAG
counts only on a host whose /proc/cpuinfo lacks FLAG.  Every reported
function that no counting entry matches is printed again under a
heading, and so is every counting entry that matches no reported
function (a stale entry, such as one for a deleted function); either
makes the script exit 1.

Exit status: 0 when the report was produced and (with --allowlist) lists
only allowed functions and every counting entry matched one of them; 1
when the build, a run or gcov failed, an object was newer than a binary, a reported function is not
allowed, or a counting entry is stale; 2 on a usage error.  Needs cmake, a
GCC toolchain and gcov; only the Python 3 standard library.  The build
takes a few minutes.
"""

import argparse
import concurrent.futures
import json
import os
import re
import subprocess
import sys
from pathlib import Path

ROOT = Path(__file__).resolve().parent.parent
COVERAGE_FLAGS = "--coverage -O0 -fprofile-update=atomic"
JOBS = min(4, os.cpu_count() or 1)

PAPER_SCENARIOS = ["alice_bob", "x_topology", "chain", "alice_bob_fading", "x_topology_fading"]
# 16 dB with 25 exchanges reaches the loss branches (pipeline restarts,
# failed uploads and overhears); 26 dB the clean ones.
SMALL_GRID = [arg for name in PAPER_SCENARIOS for arg in ("--scenario", name)] + [
    "--snr", "16,26", "--payload-bits", "2048", "--exchanges", "25", "--seed", "1",
    "--quiet"]
# x_topology tasks carry scalars, which the journal must replay too.
SHARD_GRID = ["--scenario", "alice_bob", "--scenario", "x_topology", "--snr", "10:40:10",
              "--repetitions", "2", "--exchanges", "4", "--payload-bits", "512",
              "--seed", "2007", "--quiet"]


def fail(message):
    print(f"unreached_functions: {message}", file=sys.stderr)
    sys.exit(1)


def run(argv, cwd, env=None):
    result = subprocess.run([str(a) for a in argv], cwd=cwd, env=env,
                            stdout=subprocess.DEVNULL, stderr=subprocess.PIPE, text=True)
    if result.returncode != 0:
        fail(f"{' '.join(str(a) for a in argv)} exited {result.returncode}\n{result.stderr}")


def build(build_dir):
    benches = sorted(p.stem for p in (ROOT / "bench").glob("*.cpp"))
    examples = sorted(p.stem for p in (ROOT / "examples").glob("*.cpp"))
    run(["cmake", "-S", ROOT, "-B", build_dir, "-DCMAKE_BUILD_TYPE=Debug",
         f"-DCMAKE_CXX_FLAGS={COVERAGE_FLAGS}"], ROOT)
    targets = ["anc"] + [f"bench_{b}" for b in benches] + [f"example_{e}" for e in examples]
    run(["cmake", "--build", build_dir, "-j", JOBS, "--target", *targets], ROOT)
    check_fresh(build_dir, benches, examples)
    return benches, examples


def check_fresh(build_dir, benches, examples):
    """Fail before the runs if an object file is newer than a binary that
    links it: the library objects against libanc.a, each target's own
    objects and libanc.a against its executable.  That happens when
    sources change while the build runs, and gcov would then stop with
    "stamp mismatch with notes file" only after every run."""
    library = build_dir / "libanc.a"
    binaries = {"anc": library}
    binaries.update({f"bench_{b}": build_dir / "bench" / b for b in benches})
    binaries.update({f"example_{e}": build_dir / "examples" / e for e in examples})
    newer = []
    for target, binary in binaries.items():
        linked = binary.stat().st_mtime_ns
        inputs = list((build_dir / "CMakeFiles" / f"{target}.dir").rglob("*.o"))
        if binary != library:
            inputs.append(library)
        newer += [f"{i.relative_to(build_dir)} is newer than {binary.relative_to(build_dir)}"
                  for i in inputs if i.stat().st_mtime_ns > linked]
    if newer:
        fail("sources changed while the build ran; run again once they are settled:\n"
             + "\n".join(newer))


def drive(build_dir, benches, examples):
    work = build_dir / "unreached_run"
    work.mkdir(exist_ok=True)
    for stale in list(build_dir.rglob("*.gcda")) + list(work.iterdir()):
        stale.unlink()

    for name in benches:
        if name != "anc_sweep":
            run([build_dir / "bench" / name], work)
    for name in examples:
        run([build_dir / "examples" / name], work)

    sweep = build_dir / "bench" / "anc_sweep"
    run([sweep, "--list-scenarios"], work)
    run([sweep, *SMALL_GRID, "--math-profile", "exact", "--json", "exact.json",
         "--csv", "exact.csv", "--tasks-csv", "exact_tasks.csv",
         "--metrics-json", "exact_metrics.json"], work)
    uncapped = {k: v for k, v in os.environ.items() if not k.startswith("ANC_FORCE_")}
    for cap in ({}, {"ANC_FORCE_AVX2_SIMD": "1"}, {"ANC_FORCE_SCALAR_SIMD": "1"}):
        run([sweep, *SMALL_GRID, "--math-profile", "fast", "--json", "fast.json"], work,
            env={**uncapped, **cap})
    run([sweep, "--scenario", "alice_bob", "--scenario", "alice_bob_fading",
         "--alice-amplitude", "0.6,1", "--bob-amplitude", "1", "--detector-threshold", "8,12",
         "--interleave-rows", "0,8", "--coherence-block", "0,256",
         "--mean-link-gain", "0.8,1", "--payload-bits", "512", "--exchanges", "2",
         "--math-profile", "exact,fast", "--threads", "2"], work)

    run([sweep, *SHARD_GRID, "--journal", "full.anj", "--json", "full.json"], work)
    run([sweep, *SHARD_GRID, "--resume", "full.anj", "--json", "resumed.json"], work)
    for k in (1, 2):
        run([sweep, *SHARD_GRID, "--shard", f"{k}/2", "--journal", f"shard{k}.anj"], work)
    run([sweep, *SHARD_GRID, "--merge", "shard1.anj,shard2.anj", "--json", "merged.json",
         "--csv", "merged.csv"], work)
    run([sweep, *SHARD_GRID, "--stream", "--json", "streamed.json",
         "--tasks-csv", "streamed_tasks.csv"], work)


def function_counts(build_dir):
    """(file, line, name) -> calls, summed over every instrumented TU."""
    data_files = sorted(build_dir.glob("CMakeFiles/*.dir/**/*.gcda"))
    if not data_files:
        fail(f"no .gcda files under {build_dir}/CMakeFiles")

    def gcov(data_file):
        result = subprocess.run(["gcov", "--json-format", "--stdout", data_file.name],
                                cwd=data_file.parent, capture_output=True, text=True)
        if result.returncode != 0:
            fail(f"gcov {data_file} exited {result.returncode}\n{result.stderr}")
        return [json.loads(line) for line in result.stdout.splitlines() if line.strip()]

    counts = {}
    with concurrent.futures.ThreadPoolExecutor(JOBS) as pool:
        for documents in pool.map(gcov, data_files):
            for document in documents:
                for source in document["files"]:
                    path = Path(source["file"])
                    if not path.is_absolute():
                        path = Path(document["current_working_directory"]) / path
                    for function in source["functions"]:
                        key = (path.resolve(), function["start_line"],
                               function["demangled_name"])
                        counts[key] = counts.get(key, 0) + function["execution_count"]
    return counts


def cpu_flags():
    try:
        text = Path("/proc/cpuinfo").read_text()
    except OSError:
        return set()
    for line in text.splitlines():
        if line.startswith("flags"):
            return set(line.partition(":")[2].split())
    return set()


def load_allowlist(path):
    """The entries that count on this host, as (path, name regex, entry)."""
    try:
        entries = json.loads(Path(path).read_text())
        if not isinstance(entries, list) or not all(
                isinstance(e, dict) and {"path", "name", "reason"} <= e.keys() for e in entries):
            raise ValueError('expected a list of {"path", "name", "reason"} objects')
    except (OSError, ValueError) as error:
        print(f"unreached_functions: allowlist {path}: {error}", file=sys.stderr)
        sys.exit(2)
    flags = cpu_flags()
    return [(entry["path"],
             re.compile(".*".join(re.escape(part) for part in entry["name"].split("*"))),
             entry)
            for entry in entries
            if entry.get("unless_cpu_flag") not in flags]


def check_allowlist(unreached, allowed):
    """The (path, line, name) entries of `unreached` that no allowlist entry
    matches, and the allowlist entries that match none of `unreached`."""
    used = set()
    disallowed = []
    for path, line, name in unreached:
        match = next((index for index, (entry_path, pattern, _) in enumerate(allowed)
                      if entry_path == Path(path).as_posix() and pattern.fullmatch(name)),
                     None)
        if match is None:
            disallowed.append((path, line, name))
        else:
            used.add(match)
    stale = [entry for index, (_, _, entry) in enumerate(allowed) if index not in used]
    return disallowed, stale


def main():
    parser = argparse.ArgumentParser(
        description="List the src/ functions that no binary of the repository reaches.")
    parser.add_argument("--allowlist", metavar="FILE",
                        help="JSON list of the functions allowed in the report; "
                             "exit 1 if any other is reported or an entry is stale")
    parser.add_argument("build_dir", metavar="BUILD_DIR")
    args = parser.parse_args()
    allowed = load_allowlist(args.allowlist) if args.allowlist else None
    build_dir = Path(args.build_dir).resolve()
    benches, examples = build(build_dir)
    drive(build_dir, benches, examples)
    src = (ROOT / "src").resolve()
    unreached = sorted((path.relative_to(ROOT), line, name)
                       for (path, line, name), calls in function_counts(build_dir).items()
                       if calls == 0 and path.is_relative_to(src))
    for path, line, name in unreached:
        print(f"{path}:{line}  {name}")
    print(f"{len(unreached)} src/ functions made 0 calls")
    if allowed is None:
        return
    disallowed, stale = check_allowlist(unreached, allowed)
    if disallowed:
        print(f"{len(disallowed)} of them not in {args.allowlist}:")
        for path, line, name in disallowed:
            print(f"{path}:{line}  {name}")
    if stale:
        print(f"{len(stale)} entries of {args.allowlist} match no reported function:")
        for entry in stale:
            print(f"{entry['path']}  {entry['name']}")
    if disallowed or stale:
        sys.exit(1)


if __name__ == "__main__":
    main()
