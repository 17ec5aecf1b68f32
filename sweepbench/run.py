#!/usr/bin/env python3
"""Sweep benchmark: anc_sweep throughput on the paper's grid under the
exact and the simd profile, with per-layer tracing.

    python3 sweepbench/run.py --workload NAME --seed N --seconds S --trace 0|1

Run from the repository root.  The first run builds the benchmark's
binaries (sweepbench/CMakeLists.txt) under .bench_build/.  Every run
spawns whole anc_sweep processes ("passes") one after another for about
S seconds and checks each pass's output files.

--trace 0 reports the end-to-end metrics: medians over the passes of an
untraced build (anc_sweep_probe, which only timestamps the end of
set-up); the rate metrics take the passes' fast quartile.  --trace 1
alternates untraced passes with passes of the traced
build (anc_sweep_traced) and reports per-layer metrics, plus the tracing
overhead.  The last line of stdout is the JSON result; the lines before
it print every metric with its unit and the environment stamp.

README.md in this directory explains the workloads, the metrics and
which end-to-end metric each layer metric should move.
"""

import argparse
import copy
import hashlib
import json
import os
import shutil
import signal
import statistics
import subprocess
import sys
import tempfile
import threading
import time
import zlib
from pathlib import Path

HERE = Path(__file__).resolve().parent
REFERENCE = HERE / "reference.json"

PAPER_SCENARIOS = ["alice_bob", "x_topology", "chain", "alice_bob_fading", "x_topology_fading"]
# Passes last a few seconds each, so a run holds a dozen or more: the
# exact grid repeats less, as its tasks take about five times as long as
# the simd grid's on one thread.
PAPER_REPETITIONS = {"exact": 1, "simd": 6}
# --seed picks one of SEED_SLOTS anc_sweep seeds, so every exact-profile
# run has a recorded digest to compare against.
SEED_SLOTS = 32
MIN_PASSES = 3
PASS_TIMEOUT_S = 150
# The timed passes run one worker thread: on a shared host, more threads
# measure how the host schedules them more than what the program does.
# The traced run's engine.scaling_efficiency still compares one thread
# against min(nproc, MAX_TRACED_THREADS).
TIMED_THREADS = 1
MAX_TRACED_THREADS = 4
# Traced shares must add up to the traced task time; spans must cover
# the program's own per-task wall time (anc.metrics.v1) this closely.
SUM_TOLERANCE = 1e-6
COVERAGE_TOLERANCE = 0.02
RECEIVE_STATUSES = ["rx_no_packet", "rx_clean", "rx_decoded_interference",
                    "rx_forward_candidate", "rx_failed"]
CPU_FLAGS = ["sse4_2", "popcnt", "avx", "avx2", "fma", "avx512f", "avx512dq", "avx512bw",
             "avx512vl"]
GAIN_PAIRS = [("alice_bob", "traditional"), ("alice_bob", "cope"),
              ("x_topology", "traditional"), ("chain", "traditional")]
GAIN_SNR_DB = 22

def log(message):
    print(message, file=sys.stderr, flush=True)


# ------------------------------------------------------------------ build

def build(root):
    """Configure (once) and build both binaries; exit 1 on failure."""
    build_dir = root / ".bench_build" / "sweepbench"
    commands = []
    if not (build_dir / "Makefile").exists():
        commands.append(["cmake", "-S", str(HERE), "-B", str(build_dir),
                         "-DCMAKE_BUILD_TYPE=Release"])
    commands.append(["cmake", "--build", str(build_dir), "-j", str(os.cpu_count() or 1),
                     "--target", "anc_sweep_probe", "anc_sweep_traced"])
    for command in commands:
        if subprocess.run(command, stdout=sys.stderr, stderr=sys.stderr).returncode != 0:
            log("sweepbench: build failed: " + " ".join(command))
            sys.exit(1)
    return build_dir


# -------------------------------------------------------------- workloads

class Workload:
    """A grid, the anc_sweep flags that run it, and its output checks."""

    def __init__(self, name, profile, grid, outputs):
        self.name = name
        self.profile = profile
        self.grid = grid
        self.outputs = outputs  # flag -> file name, in flag order

    def argv(self, anc_seed, threads, directory, extra=()):
        argv = list(self.grid) + ["--math-profile", self.profile, "--seed", str(anc_seed),
                                  "--threads", str(threads), "--quiet"]
        for flag, name in self.outputs.items():
            argv.append(flag)
            if name is not None:
                argv.append(str(directory / name))
        return argv + list(extra)


def paper_grid(profile):
    grid = []
    for scenario in PAPER_SCENARIOS:
        grid += ["--scenario", scenario]
    return grid + ["--snr", "16:26:2", "--payload-bits", "2048", "--exchanges", "25",
                   "--repetitions", str(PAPER_REPETITIONS[profile])]


WORKLOADS = {
    "paper_grid_exact": Workload("paper_grid_exact", "exact", paper_grid("exact"),
                                 {"--json": "sweep.json"}),
    "paper_grid_simd": Workload("paper_grid_simd", "simd", paper_grid("simd"),
                                {"--json": "sweep.json"}),
}


# ----------------------------------------------------------------- passes

class Pass:
    """One finished anc_sweep process."""

    def __init__(self, exit_code, setup_s, sweep_s, window_s, cpu_s, rss_kib, summary):
        self.exit_code = exit_code
        self.setup_s = setup_s    # spawn -> executor entry
        self.sweep_s = sweep_s    # executor entry -> process exit
        self.window_s = window_s  # executor entry -> executor return
        self.cpu_s = cpu_s
        self.rss_kib = rss_kib
        self.ok, self.errors, self.skipped = summary

    @property
    def tasks(self):
        return self.ok + self.errors + self.skipped


def parse_summary(stderr_text):
    """anc_sweep's always-printed 'N ok, E error, S skipped' line."""
    for line in stderr_text.splitlines():
        if line.startswith("anc_sweep: ") and " ok, " in line:
            fields = line.split()
            return int(fields[1]), int(fields[3]), int(fields[5])
    return 0, 0, 0


def run_pass(binary, argv, directory, trace_path=None):
    for path in directory.iterdir():
        path.unlink()
    probe = directory.parent / "probe.txt"
    stderr_path = directory.parent / "stderr.txt"
    for path in (probe, stderr_path):
        if path.exists():
            path.unlink()
    env = dict(os.environ, SWEEPBENCH_PROBE=str(probe))
    env.pop("ANC_ENGINE_THREADS", None)
    if trace_path is not None:
        env["SWEEPBENCH_TRACE"] = str(trace_path)
    actions = [
        (os.POSIX_SPAWN_OPEN, 0, "/dev/null", os.O_RDONLY, 0),
        (os.POSIX_SPAWN_OPEN, 1, "/dev/null", os.O_WRONLY, 0),
        (os.POSIX_SPAWN_OPEN, 2, str(stderr_path), os.O_WRONLY | os.O_CREAT | os.O_TRUNC,
         0o644),
    ]
    spawned = time.monotonic_ns()
    pid = os.posix_spawn(str(binary), [str(binary)] + argv, env, file_actions=actions)
    killer = threading.Timer(PASS_TIMEOUT_S, os.kill, (pid, signal.SIGKILL))
    killer.start()
    try:
        _, status, usage = os.wait4(pid, 0)
    finally:
        killer.cancel()
    ended = time.monotonic_ns()
    stderr_text = stderr_path.read_text(errors="replace")
    exit_code = os.waitstatus_to_exitcode(status)
    if not probe.exists():
        log(f"sweepbench: pass exited {exit_code} without reaching the executor:\n"
            + stderr_text)
        return Pass(exit_code if exit_code != 0 else 1, 0.0, 0.0, 0.0, 0.0, 0, (0, 0, 0))
    entry, exit_ = (int(v) for v in probe.read_text().split())
    return Pass(exit_code, (entry - spawned) / 1e9, (ended - entry) / 1e9,
                (exit_ - entry) / 1e9, usage.ru_utime + usage.ru_stime, usage.ru_maxrss,
                parse_summary(stderr_text))


def sha256(path):
    digest = hashlib.sha256()
    with open(path, "rb") as handle:
        for block in iter(lambda: handle.read(1 << 20), b""):
            digest.update(block)
    return digest.hexdigest()


# ----------------------------------------------------------------- checks

class Checker:
    """Output checks for one workload and seed.  check() returns a list of
    failure messages for one pass.  The first pass's files are checked in
    full; later passes must reproduce them byte for byte, and so share
    their verdict."""

    def __init__(self, workload, anc_seed, reference):
        self.workload = workload
        self.anc_seed = anc_seed
        self.reference = reference
        self.first_digests = None
        self.content_failures = []
        self.airtime = None  # sum of airtime_symbols over the emitted rows
        self.gains = {}

    def deterministic_files(self):
        return [name for flag, name in self.workload.outputs.items()
                if name is not None and flag in ("--json", "--tasks-csv")]

    def check(self, run, directory):
        failures = []
        if run.exit_code != 0:
            failures.append(f"anc_sweep exited {run.exit_code}")
        if run.errors or run.skipped:
            failures.append(f"{run.errors} error and {run.skipped} skipped tasks")
        digests = {}
        for name in self.deterministic_files():
            if not (directory / name).exists():
                failures.append(f"{name} missing")
                return failures
            digests[name] = sha256(directory / name)
        if self.first_digests is None:
            self.content_failures = self.check_first(run, directory, digests)
            self.first_digests = digests
        elif digests != self.first_digests:
            failures.append("outputs differ from the first pass of this run")
        return failures + self.content_failures

    def check_first(self, run, directory, digests):
        failures = []
        document = json.loads((directory / "sweep.json").read_text())
        rows = document["tasks"]
        self.airtime = sum(row["metrics"]["airtime_symbols"] for row in rows)
        if len(rows) != run.tasks:
            failures.append(f"{len(rows)} JSON rows for {run.tasks} tasks")
        if any(row["status"] != "ok" for row in rows):
            failures.append("a JSON row is not ok")
        name = self.workload.name
        if name == "paper_grid_exact":
            expected = self.reference["paper_grid_exact_sha256"].get(str(self.anc_seed))
            if digests["sweep.json"] != expected:
                failures.append(f"sweep JSON digest {digests['sweep.json']} != recorded "
                                f"{expected} for seed {self.anc_seed}")
        else:
            self.gains = paired_gains(rows)
            for key, corridor in self.reference["gain_corridors"].items():
                if abs(self.gains[key] - corridor["exact"]) > corridor["tolerance"]:
                    failures.append(f"gain {key} = {self.gains[key]:.4f} outside "
                                    f"{corridor['exact']} +- {corridor['tolerance']}")
        return failures


def paired_gains(rows):
    """summary_table's paired gain: mean over repetitions of ANC throughput
    over the baseline's, at GAIN_SNR_DB."""
    gains = {}
    for scenario, baseline in GAIN_PAIRS:
        by_repetition = {}
        for row in rows:
            if row["scenario"] == scenario and row["snr_db"] == GAIN_SNR_DB:
                by_repetition.setdefault(row["repetition"], {})[row["scheme"]] = \
                    row["metrics"]["throughput"]
        ratios = [runs["anc"] / runs[baseline] for runs in by_repetition.values()
                  if runs.get(baseline, 0) > 0]
        gains[f"{scenario}/{baseline}"] = statistics.fmean(ratios) if ratios else 0.0
    return gains


def check_journal(path, tasks):
    """One CRC-valid `ok` line per task, each task index exactly once."""
    lines = path.read_bytes().split(b"\n")
    if lines and lines[-1] == b"":
        lines.pop()
    if not lines or lines[0] != b"anc.journal.v1":
        return ["journal magic missing"]
    indices = []
    bad = not_ok = 0
    for line in lines[1:]:
        stamp, _, payload = line.partition(b" ")
        try:
            valid = len(stamp) == 8 and int(stamp, 16) == zlib.crc32(payload)
        except ValueError:
            valid = False
        if not valid:
            bad += 1
        elif payload.startswith(b"T "):
            indices.append(payload.split(b" ", 2)[1])
            not_ok += b" status=ok " not in payload
    failures = []
    if bad:
        failures.append(f"{bad} journal lines fail their CRC")
    if not_ok:
        failures.append(f"{not_ok} journal lines are not ok")
    if len(indices) != tasks or set(indices) != {b"index=%d" % i for i in range(tasks)}:
        failures.append(f"journal holds {len(indices)} task lines, not one per task "
                        f"for {tasks} tasks")
    return failures


# ------------------------------------------------------------ environment

def environment(root, build_dir, probe_binary, work, threads, reference):
    flags = set()
    try:
        for line in Path("/proc/cpuinfo").read_text().splitlines():
            if line.startswith("flags"):
                flags = set(line.split(":", 1)[1].split())
                break
    except OSError:
        pass
    manifest = work / "env-metrics.json"
    subprocess.run([str(probe_binary), "--scenario", "alice_bob", "--scheme", "anc",
                    "--payload-bits", "256", "--exchanges", "1", "--threads", "1",
                    "--quiet", "--metrics-json", str(manifest)],
                   stdout=subprocess.DEVNULL, stderr=subprocess.DEVNULL, check=False)
    backend = None
    if manifest.exists():
        backend = json.loads(manifest.read_text())["run"].get("simd_backend")
    commit = None
    if (root / ".git").exists():
        result = subprocess.run(["git", "-C", str(root), "rev-parse", "HEAD"],
                                capture_output=True, text=True, check=False)
        commit = result.stdout.strip() or None
    source = hashlib.sha256()
    sources = sorted((root / "src").rglob("*")) + [root / "bench" / "anc_sweep.cpp",
                                                   root / "bench" / "sweep_cli.h",
                                                   root / "CMakeLists.txt"]
    for path in sources:
        if path.is_file():
            source.update(str(path.relative_to(root)).encode() + b"\0" + path.read_bytes())
    stamp = {
        "nproc": os.cpu_count(),
        "threads": threads,
        "cpu_flags": sorted(flags.intersection(CPU_FLAGS)),
        "simd_backend": backend,
        "commit": commit,
        "source_sha256": source.hexdigest()[:16],
    }
    stamp.update(json.loads((build_dir / "build_info.json").read_text()))
    stamp["comparable"] = backend == reference["simd_backend"]
    if not stamp["comparable"]:
        log(f"sweepbench: NOT COMPARABLE: this host resolves simd_backend={backend}, "
            f"the reference host {reference['simd_backend']}")
    return stamp


# ------------------------------------------------------------- end to end

def median(values):
    return statistics.median(values) if values else 0.0


def fast_quartile(values, better):
    """The quartile of `values` on the `better` side ("higher"/"lower").
    A shared host slows stretches of a run by 20-40%; the fast quartile
    of the passes needs only a quarter of them to miss those stretches,
    where the median needs half."""
    if len(values) < 2:
        return values[0] if values else 0.0
    low, _, high = statistics.quantiles(values, n=4, method="inclusive")
    return high if better == "higher" else low


def end_to_end_metrics(passes, tasks_airtime):
    ok = [p for p in passes if p.sweep_s > 0 and p.tasks > 0]
    return {
        "tasks_per_s": fast_quartile([p.tasks / p.sweep_s for p in ok], "higher"),
        "samples_per_s": fast_quartile([tasks_airtime / p.sweep_s for p in ok], "higher"),
        "cpu_ms_per_task": fast_quartile([1e3 * p.cpu_s / p.tasks for p in ok], "lower"),
        "peak_rss_mb": median([p.rss_kib / 1024 for p in ok]),
        "setup_s": median([p.setup_s for p in ok]),
    }


class Session:
    """The passes of one benchmark run and their check results."""

    def __init__(self, workload, anc_seed, threads, binaries, work, reference):
        self.workload = workload
        self.anc_seed = anc_seed
        self.threads = threads
        self.binaries = binaries
        self.work = work
        self.out = work / "out"
        self.out.mkdir()
        self.checker = Checker(workload, anc_seed, reference)
        self.attempted = 0
        self.failed = 0
        self.failures = []

    def run(self, binary, threads=None, extra=(), trace_path=None):
        argv = self.workload.argv(self.anc_seed, threads or self.threads, self.out, extra)
        result = run_pass(binary, argv, self.out, trace_path)
        failures = self.checker.check(result, self.out)
        self.record(max(result.tasks, 1), result.errors, failures)
        return result

    def record(self, tasks, errors, failures):
        """Count a pass's tasks; a failed check fails every task it covers."""
        self.attempted += tasks
        self.failed += errors
        self.fail(tasks - errors, failures)

    def fail(self, tasks, failures):
        if not failures:
            return
        self.failed = min(self.failed + tasks, self.attempted)
        for failure in failures:
            if failure not in self.failures:
                self.failures.append(failure)
                log(f"sweepbench: check failed: {failure}")


def run_end_to_end(session, seconds):
    """Passes until the run is as close to `seconds` long as whole passes
    allow (but at least MIN_PASSES)."""
    passes, lengths = [], []
    started = time.monotonic()
    while len(passes) < MIN_PASSES or \
            time.monotonic() - started + median(lengths) / 2 < seconds:
        began = time.monotonic()
        passes.append(session.run(session.binaries["probe"]))
        lengths.append(time.monotonic() - began)
    return end_to_end_metrics(passes, session.checker.airtime or 0)


# ---------------------------------------------------------------- tracing

def sum_traces(traces):
    total = copy.deepcopy(traces[0])
    for trace in traces[1:]:
        for kind, values in trace["kinds"].items():
            for key, value in values.items():
                total["kinds"][kind][key] += value
        for key in ("rx_clean_calls", "rx_clean_ns", "rx_collision_calls", "rx_collision_ns",
                    "rx_collision_decoded", "pilot_scans"):
            total[key] += trace[key]
    return total


def trace_checks(trace, manifest):
    """Spans add up to task time, cover the program's own task time, and
    see every call the program's counters see.  Returns the failures and
    the program's summed task wall time (None without a manifest)."""
    failures = []
    kinds = trace["kinds"]
    task_ns = kinds["sim"]["incl_ns"]
    self_ns = sum(values["self_ns_task"] for values in kinds.values())
    if abs(self_ns - task_ns) > SUM_TOLERANCE * task_ns:
        failures.append(f"layer self times sum to {self_ns} ns, task time {task_ns} ns")
    if manifest is None:
        return failures, None
    wall_ns = sum(task["wall_ns"] for task in manifest["tasks"])
    if abs(1.0 - task_ns / wall_ns) > COVERAGE_TOLERANCE:
        failures.append(f"spans cover {task_ns / wall_ns:.4f} of the program's task time")
    counters = manifest["counters"]
    pairs = [
        ("pilot searches", trace["pilot_scans"],
         counters["pilot_searches"] + counters["pilot_degenerate"]),
        ("interference analyses", kinds["phy.analyze"]["calls"],
         counters["interference_analyses"]),
        ("interference decodes", kinds["core.decode"]["calls"],
         manifest["stages"]["interference_decode"]["calls"]),
    ]
    pairs += [(f"{name} outcomes", trace["rx_status"][i], counters[name])
              for i, name in enumerate(RECEIVE_STATUSES)]
    for what, seen, counted in pairs:
        if seen != counted:
            failures.append(f"wrapper saw {seen} {what}, the program counted {counted}")
    return failures, wall_ns


class Traced:
    """One traced pass: the process, its trace, and what came with it."""

    def __init__(self, run, trace, manifest_wall_ns, journal_bytes):
        self.run = run
        self.trace = trace
        self.manifest_wall_ns = manifest_wall_ns
        self.journal_bytes = journal_bytes


def traced_pass(session, threads=None, extra=(), manifest=None, journal=None):
    trace_path = session.work / "trace.json"
    if trace_path.exists():
        trace_path.unlink()
    run = session.run(session.binaries["traced"], threads, extra, trace_path)
    if not trace_path.exists():
        session.fail(run.tasks, ["the traced pass wrote no trace"])
        return None
    trace = json.loads(trace_path.read_text())
    document = json.loads((session.out / manifest).read_text()) if manifest else None
    failures, wall_ns = trace_checks(trace, document)
    if journal:
        failures += check_journal(session.out / journal, run.tasks)
    session.fail(run.tasks, failures)
    journal_bytes = (session.out / journal).stat().st_size if journal else None
    return Traced(run, trace, wall_ns, journal_bytes)


def run_traced(session, seconds):
    """Untraced and traced passes alternate for `seconds`; then come one
    single-thread traced pass and one traced pass that adds --journal and
    --metrics-json.  The journal figures, the journal check and the
    counter checks come from that last pass."""
    untraced, traced = [], []
    started = time.monotonic()
    while len(traced) < MIN_PASSES or time.monotonic() - started < seconds:
        untraced.append(session.run(session.binaries["probe"]))
        traced.append(traced_pass(session))
    single = traced_pass(session, threads=1)
    extra = ["--journal", str(session.out / "check.journal"),
             "--metrics-json", str(session.out / "check-metrics.json")]
    checked = [traced_pass(session, extra=extra, manifest="check-metrics.json",
                           journal="check.journal")]
    traced = [t for t in traced if t is not None]
    checked = [t for t in checked if t is not None]
    if not traced or single is None or not checked:
        return None

    totals = sum_traces([t.trace for t in traced])
    kinds = totals["kinds"]
    tasks = kinds["sim"]["calls"]
    task_ns = kinds["sim"]["incl_ns"]
    windows = [t.run.window_s for t in traced]

    def self_ns(kind):
        return kinds[kind]["self_ns_task"] + kinds[kind]["self_ns_other"]

    def share(kind):
        return kinds[kind]["self_ns_task"] / task_ns

    def per_sample(kind):
        return self_ns(kind) / kinds[kind]["samples"] if kinds[kind]["samples"] else 0.0

    def allocs(*names):
        return sum(kinds[name]["allocs"] for name in names) / tasks

    def rate(runs):
        return median([run.tasks / run.sweep_s for run in runs if run.sweep_s > 0])

    return {
        "engine.busy_ratio": median([t.trace["kinds"]["sim"]["incl_ns"] / 1e9
                                     / (session.threads * t.run.window_s) for t in traced]),
        "engine.scaling_efficiency": single.run.window_s / (session.threads * median(windows)),
        "engine.journal.append_us.p50": median([t.trace["journal_ns_p50"] / 1e3
                                                for t in checked]),
        "engine.journal.append_us.p99": median([t.trace["journal_ns_p99"] / 1e3
                                                for t in checked]),
        "engine.journal.bytes_per_task": median([t.journal_bytes / t.run.tasks
                                                 for t in checked]),
        "engine.emit_ms": median([(t.trace["kinds"]["engine.emit"]["self_ns_task"]
                                   + t.trace["kinds"]["engine.emit"]["self_ns_other"]) / 1e6
                                  for t in traced]),
        "engine.allocs_per_task": allocs("engine.journal", "engine.emit"),
        "sim.task_ms.p50": median([t.trace["task_ns_p50"] / 1e6 for t in traced]),
        "sim.task_ms.p99": median([t.trace["task_ns_p99"] / 1e6 for t in traced]),
        "sim.self_share": share("sim"),
        "sim.allocs_per_task": allocs("sim"),
        "net.tx.ns_per_sample": per_sample("net.tx"),
        "net.tx.share": share("net.tx"),
        "net.allocs_per_task": allocs("net.tx"),
        "dsp.modulate.ns_per_sample": per_sample("dsp.modulate"),
        "dsp.modulate.share": share("dsp.modulate"),
        "dsp.demod.ns_per_sample": per_sample("dsp.demod"),
        "dsp.demod.share": share("dsp.demod"),
        "dsp.allocs_per_task": allocs("dsp.modulate", "dsp.demod"),
        "channel.ns_per_sample": per_sample("channel"),
        "channel.share": share("channel"),
        "channel.allocs_per_task": allocs("channel"),
        "phy.detect.ns_per_sample": per_sample("phy.detect"),
        "phy.detect.share": share("phy.detect"),
        "phy.analyze.ns_per_sample": per_sample("phy.analyze"),
        "phy.analyze.share": share("phy.analyze"),
        "phy.pilot.ns_per_bit": per_sample("phy.pilot"),
        "phy.pilot.share": share("phy.pilot"),
        "phy.allocs_per_task": allocs("phy.detect", "phy.analyze", "phy.pilot"),
        "core.relay.ns_per_sample": per_sample("core.relay"),
        "core.relay.share": share("core.relay"),
        "core.rx.self_share": share("core.rx"),
        "core.rx.clean.us_per_call":
            totals["rx_clean_ns"] / 1e3 / max(totals["rx_clean_calls"], 1),
        "core.rx.collision.us_per_call":
            totals["rx_collision_ns"] / 1e3 / max(totals["rx_collision_calls"], 1),
        "core.rx.decode_yield":
            totals["rx_collision_decoded"] / max(totals["rx_collision_calls"], 1),
        "core.amplitude.share": share("core.amplitude"),
        "core.decode.ns_per_sample": per_sample("core.decode"),
        "core.decode.share": share("core.decode"),
        "core.allocs_per_task": allocs("core.relay", "core.rx", "core.amplitude",
                                       "core.decode"),
        "trace.overhead": rate(untraced) / rate([t.run for t in traced]) - 1.0,
        "trace.coverage": sum(t.trace["kinds"]["sim"]["incl_ns"] for t in checked)
                          / sum(t.manifest_wall_ns for t in checked),
    }


# ------------------------------------------------------------ record mode

def record_reference(root, binaries, reference):
    """Regenerate the recorded exact-profile digests (one per seed slot)."""
    workload = WORKLOADS["paper_grid_exact"]
    with tempfile.TemporaryDirectory(dir=root / ".bench_build") as scratch:
        out = Path(scratch) / "out"
        out.mkdir()
        digests = {}
        for anc_seed in range(1, SEED_SLOTS + 1):
            result = run_pass(binaries["probe"], workload.argv(anc_seed, traced_threads(), out),
                              out)
            if result.exit_code != 0 or result.errors:
                log(f"sweepbench: seed {anc_seed} failed")
                sys.exit(1)
            digests[str(anc_seed)] = sha256(out / "sweep.json")
            log(f"seed {anc_seed}: {digests[str(anc_seed)]}")
    reference["paper_grid_exact_sha256"] = digests
    REFERENCE.write_text(json.dumps(reference, indent=2) + "\n")


# ------------------------------------------------------------------- main

def traced_threads():
    return max(1, min(len(os.sched_getaffinity(0)), MAX_TRACED_THREADS))


def main():
    parser = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    parser.add_argument("--workload", choices=sorted(WORKLOADS))
    parser.add_argument("--seed", type=int, default=0)
    parser.add_argument("--seconds", type=float, default=10)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    parser.add_argument("--record-reference", action="store_true",
                        help="re-record the exact-profile digests in reference.json")
    args = parser.parse_args()
    if args.workload is None and not args.record_reference:
        parser.error("--workload is required")

    root = Path.cwd()
    reference = json.loads(REFERENCE.read_text())
    declared = json.loads((root / "BENCHMARK.json").read_text())
    build_dir = build(root)
    binaries = {"probe": build_dir / "anc_sweep_probe", "traced": build_dir / "anc_sweep_traced"}
    if args.record_reference:
        record_reference(root, binaries, reference)
        return 0

    workload = WORKLOADS[args.workload]
    anc_seed = 1 + args.seed % SEED_SLOTS
    threads = traced_threads() if args.trace else TIMED_THREADS
    work = Path(tempfile.mkdtemp(prefix="run-", dir=root / ".bench_build"))
    try:
        stamp = environment(root, build_dir, binaries["probe"], work, threads, reference)
        session = Session(workload, anc_seed, threads, binaries, work, reference)
        if args.trace:
            metrics = run_traced(session, args.seconds) or {}
            units = {m["name"]: m["unit"] for m in declared["per_layer"]}
        else:
            metrics = run_end_to_end(session, args.seconds)
            units = {m["name"]: m["unit"] for m in declared["end_to_end"]}
    finally:
        shutil.rmtree(work, ignore_errors=True)
    if set(metrics) != set(units):
        session.fail(session.attempted, ["measured metrics differ from BENCHMARK.json's"])

    failed_ratio = session.failed / max(session.attempted, 1)
    print(f"sweepbench {workload.name} seed={args.seed} anc_seed={anc_seed} "
          f"trace={args.trace} threads={threads}")
    print("env " + json.dumps(stamp, sort_keys=True))
    for key, value in session.checker.gains.items():
        print(f"  gain {key:<24} {value:.4f}")
    for name, value in metrics.items():
        print(f"  {name:<34} {value:.6g} {units.get(name)}")
    print(f"  {'failed_ratio':<34} {failed_ratio:.6g} fraction")
    for failure in session.failures:
        print(f"  FAILED: {failure}")
    result = {
        "correct": session.failed == 0 and session.attempted > 0,
        "attempted": session.attempted,
        "failed": session.failed,
        "metrics": {name: {"value": value, "unit": units.get(name)}
                    for name, value in metrics.items()},
    }
    print(json.dumps(result))
    return 0


if __name__ == "__main__":
    sys.exit(main())
