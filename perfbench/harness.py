"""Timed phase, setup probes, tracing pass and reporting of the benchmark.

Imported by run.py once ./src is on the path.
"""

import hashlib
import json
import math
import os
import platform
import resource
import statistics
import subprocess
import sys
import time
from pathlib import Path

import numpy

import oracles
import tracing
import workloads

ROOT = Path(__file__).resolve().parent.parent
SRC = ROOT / "src"
OUT = ROOT / ".perfbench_out"
# Fresh interpreters per run for setup_s; one more runs first, untimed, so
# bytecode caches are warm as they are for a user's second call.
SETUP_PROBES = 15
PROBE_TIMEOUT_S = 60
# The traced run covers ceil(seconds * rate) blocks, the same ops on every
# commit, so its counts repeat exactly for a seed.
TRACE_BLOCKS_PER_SECOND = {"surface_area": 0.25, "profile_solvers": 1.0, "cli_session": 1.0}


# ---------------------------------------------------------------------------
# setup


def setup_probe(workload: str, seed: int) -> float:
    """Seconds from starting a fresh interpreter to its first op being ready."""
    cmd = [sys.executable, str(Path(__file__).with_name("run.py")), "--workload", workload,
           "--seed", str(seed), "--setup-probe"]
    start = time.monotonic()
    done = subprocess.run(cmd, capture_output=True, text=True, timeout=PROBE_TIMEOUT_S,
                          cwd=ROOT, check=True)
    return float(done.stdout.split()[-1]) - start


# ---------------------------------------------------------------------------
# host speed
#
# The host is shared: over minutes its speed drifts by half and more, and a
# whole run can fall in a slow spell, where every timing (setup_s too) is
# slower by the same share.  So each run also times a fixed calibration loop
# that runs no isokit code, about every CALIBRATION_EVERY_S of op time, and
# reports its timings scaled to a reference host: one on which the lower
# quartile of the calibration samples is CALIBRATION_REF_S.  The lower
# quartile matches the best-of-REPEATS op timings below.  A change to the
# package cannot move the calibration loop, so it shows in full; the raw
# figures and the slowdown are printed too.  On seeded runs of one commit this
# cut the run-to-run spread of ops_per_s two- to threefold.

CALIBRATION_EVERY_S = 0.25
CALIBRATION_REF_S = 3e-3


def _hypot_step(x: float, y: float) -> float:
    return math.sqrt(x * x + y * y) + 0.5 * x


def calibration_loop() -> float:
    """Fixed work like the package's: Python float calls, dict updates, numpy
    on 64 and on 20000 elements.  About 3 ms on a 2.1 GHz Xeon core."""
    acc = 0.0
    for i in range(4000):
        acc += _hypot_step(i * 1e-3, acc * 1e-9)
    counts: dict[int, float] = {}
    for i in range(2000):
        counts[i % 97] = counts.get(i % 97, 0.0) + i
    small = numpy.linspace(0.0, 1.0, 64)
    for _ in range(150):
        small = numpy.sqrt(small * small + 1.0) - 0.5
    large = numpy.linspace(0.0, 1.0, 20000)
    for _ in range(10):
        large = numpy.cumsum(numpy.sqrt(large * large + 1.0)) * 1e-5
    return acc + float(small[0]) + float(large[-1]) + len(counts)


def time_calibration() -> float:
    start = time.perf_counter()
    calibration_loop()
    return time.perf_counter() - start


def slowdown(samples: list[float]) -> float:
    """How much slower this host ran than the reference host (1 = as fast)."""
    return statistics.quantiles(samples, n=4, method="inclusive")[0] / CALIBRATION_REF_S


# ---------------------------------------------------------------------------
# timed phase
#
# The host's speed swings by a quarter and more, in spells of a few seconds,
# so a mean or median of single timings moves from run to run with the host,
# not with the program.  The timed phase therefore makes REPEATS passes over
# the same ops: the first pass draws whole blocks until it has used its share
# of the op time, the others replay them in the same order, and an op's
# latency is the fastest of its executions (as timeit takes the best of its
# repeats).  Repeats of one op lie a whole pass apart, so a slow spell shorter
# than a pass cannot slow all of them.  Every execution is checked.

REPEATS = 3


def _worse(a, b):
    """The more serious of two check outcomes: None < Expected < failure."""
    rank = lambda f: 0 if f is None else 1 if isinstance(f, oracles.Expected) else 2  # noqa: E731
    return b if rank(b) > rank(a) else a


class Phase:
    """Latencies, outcomes and the CLI digest of one timed phase."""

    def __init__(self):
        self.latencies: list[float] = []  # best execution of each op
        self.spent = 0.0  # op time of every execution
        self.passed = 0
        self.expected: list[dict] = []
        self.unexpected: list[dict] = []
        self.digest = hashlib.sha256()
        self.digest_ops = 0

    def ops_per_s(self) -> float:
        """Passed ops per second of op time, an op's time being its best execution."""
        return self.passed / math.fsum(self.latencies)

    def execute(self, op, op_id: int, workdir: Path, tracer=None, digest=False):
        """Time one execution of ``op`` and check it: (seconds, failure or None)."""
        if tracer is not None:
            tracer.op_id, tracer.active = op_id, True
        start = time.perf_counter()
        try:
            result, failure = op.call(), None
        except Exception as exc:  # an unexpected exception is a failed op
            result, failure = None, f"raised {type(exc).__name__}: {exc}"
        elapsed = time.perf_counter() - start
        if tracer is not None:
            tracer.active = False
        self.spent += elapsed

        if failure is None:
            if op.collect is not None:
                result = op.collect(result)
            try:
                failure = op.check(result)
            except Exception as exc:  # output the oracle cannot read
                failure = f"oracle could not read the result: {type(exc).__name__}: {exc}"
        if isinstance(result, workloads.CliOutput):
            self._cli_artifacts(op, result, workdir, tracer, digest)
        return elapsed, failure

    def record(self, op, op_id: int, latency: float, failure) -> None:
        """Count one op by its best execution and its worst outcome."""
        self.latencies.append(latency)
        if failure is None:
            self.passed += 1
            return
        entry = {"op": op_id, "label": op.label, "inputs": op.inputs, "failure": str(failure)}
        if isinstance(failure, oracles.Expected):
            entry["defect"] = failure.defect
            self.expected.append(entry)
        else:
            self.unexpected.append(entry)

    def _cli_artifacts(self, op, out, workdir, tracer, digest) -> None:
        written = [f for f in out.files if f is not None]
        if tracer is not None:
            tracer.counters["cli.files_written"] += len(written)
            tracer.counters["cli.bytes_written"] += len(out.stdout.encode()) + sum(
                len(f.encode()) for f in written
            )
        if digest:
            argv = op.inputs["argv"].replace(f"{workdir}/", "")
            for part in (argv, str(out.code), out.stdout, *(f or "" for f in out.files)):
                self.digest.update(part.encode() + b"\0")
            self.digest_ops += 1


def run_phase(workload, seed, workdir, *, seconds=None, blocks=None, repeats=1, tracer=None,
              between_ops=None) -> Phase:
    """``repeats`` passes over whole blocks, drawn until the first pass's op
    time reaches ``seconds / repeats`` or ``blocks`` are done."""
    phase = Phase()
    ops, best, failures = [], [], []  # (block, op), best seconds, worst outcome
    for b, block in enumerate(workloads.blocks(workload, seed, workdir)):
        for op in block:
            if between_ops is not None:
                between_ops(phase)
            elapsed, failure = phase.execute(op, len(ops), workdir, tracer,
                                             b < workloads.DIGEST_BLOCKS)
            ops.append((b, op))
            best.append(elapsed)
            failures.append(failure)
        if blocks is not None and b + 1 >= blocks:
            break
        if seconds is not None and phase.spent >= seconds / repeats:
            break
    for _ in range(repeats - 1):
        for i, (_, op) in enumerate(ops):
            if between_ops is not None:
                between_ops(phase)
            elapsed, failure = phase.execute(op, i, workdir, tracer)
            best[i] = min(best[i], elapsed)
            failures[i] = _worse(failures[i], failure)
    for i, (_, op) in enumerate(ops):
        phase.record(op, i, best[i], failures[i])
    return phase


# ---------------------------------------------------------------------------
# reporting


def _p90(values) -> float:
    return statistics.quantiles(values, n=10, method="inclusive")[8]


def run_record() -> dict:
    try:
        rev = subprocess.run(
            ["git", "rev-parse", "HEAD"], cwd=ROOT, capture_output=True, text=True, timeout=10,
            env={**os.environ, "GIT_CEILING_DIRECTORIES": str(ROOT.parent)},
        )
        git = rev.stdout.strip() if rev.returncode == 0 else None
    except (OSError, subprocess.SubprocessError):
        git = None
    src = hashlib.sha256()
    for path in sorted((SRC / "isokit").glob("*.py")):
        src.update(path.name.encode() + b"\0" + path.read_bytes())
    return {
        "python": platform.python_version(),
        "numpy": numpy.__version__,
        "nproc": os.cpu_count(),
        "cpus_usable": len(os.sched_getaffinity(0)),
        "machine": platform.machine(),
        "git_revision": git,
        "src_sha256": src.hexdigest(),
        "blas_threads": os.environ.get("OMP_NUM_THREADS"),
    }


def _print_failures(phase: Phase) -> None:
    for kind, entries in (("expected failure", phase.expected), ("FAILED", phase.unexpected)):
        for e in entries:
            why = f" [known defect: {e['defect']}]" if "defect" in e else ""
            print(f"# {kind}: op {e['op']} {e['label']} {json.dumps(e['inputs'], default=str)}"
                  f": {e['failure']}{why}")


def end_to_end(workload: str, seed: int, seconds: float, workdir: Path) -> tuple[dict, dict]:
    # The setup probes and calibration samples are spread over the timed
    # phase, between ops, so that they see the same host load as the ops do.
    setup_probe(workload, seed)  # untimed: warms the bytecode caches
    setup, calibration = [], []

    def between_ops(phase):
        while len(setup) < SETUP_PROBES and phase.spent >= len(setup) * seconds / SETUP_PROBES:
            setup.append(setup_probe(workload, seed))
        if phase.spent >= len(calibration) * CALIBRATION_EVERY_S:
            calibration.append(time_calibration())

    phase = run_phase(workload, seed, workdir, seconds=seconds, repeats=REPEATS,
                      between_ops=between_ops)
    while len(setup) < SETUP_PROBES:
        setup.append(setup_probe(workload, seed))
    while len(calibration) < 4:  # enough for a lower quartile on tiny runs
        calibration.append(time_calibration())
    slow = slowdown(calibration)
    n = len(phase.latencies)
    failed = len(phase.expected) + len(phase.unexpected)
    ms = [1e3 * x for x in phase.latencies]
    measured = {
        "setup_s": statistics.median(setup),
        "ops_per_s": phase.ops_per_s(),
        "op_p50_ms": statistics.median(ms),
        "op_p90_ms": _p90(ms),
    }
    metrics = {
        "setup_s": (measured["setup_s"] / slow, "s"),
        "ops_per_s": (measured["ops_per_s"] * slow, "1/s"),
        "op_p50_ms": (measured["op_p50_ms"] / slow, "ms"),
        "op_p90_ms": (measured["op_p90_ms"] / slow, "ms"),
        "fail_ratio": (failed / n, "1"),
        "peak_rss_mb": (resource.getrusage(resource.RUSAGE_SELF).ru_maxrss * 1024 / 1e6, "MB"),
    }
    notes = {
        "setup_s": f"median of {len(setup)} fresh interpreters",
        "ops_per_s": f"{phase.passed} passed in {math.fsum(phase.latencies):.3f} s of best-of-"
                     f"{REPEATS} op time ({phase.spent:.3f} s over all executions)",
        "op_p50_ms": f"{n} samples, each the best of {REPEATS}",
        "op_p90_ms": f"{n} samples, {sum(x > measured['op_p90_ms'] for x in ms)} beyond",
        "fail_ratio": f"{failed} of {n}; {len(phase.expected)} of them recorded defects",
        "peak_rss_mb": "ru_maxrss of the benchmark process",
    }
    print(f"# host slowdown {slow:.4f}: lower quartile of {len(calibration)} calibration "
          f"samples / {1e3 * CALIBRATION_REF_S:g} ms; timings below are scaled by it")
    for name, (value, unit) in metrics.items():
        raw = f"measured {measured[name]:.6f}; " if name in measured else ""
        print(f"{name:12s} {value:14.6f} {unit:4s} ({raw}{notes[name]})")
    _print_failures(phase)
    if phase.digest_ops:
        print(f"cli_digest sha256={phase.digest.hexdigest()} "
              f"(artifacts of the first {phase.digest_ops} commands, in command order)")
    result = {
        "correct": not phase.unexpected,
        "attempted": n,
        "failed": len(phase.unexpected),
        # fail_ratio is 0 on a healthy workload; the result line carries the
        # failure count in "failed" instead.
        "metrics": {k: v for k, v in metrics.items() if k != "fail_ratio"},
    }
    detail = {
        "metrics": metrics,
        "measured": measured,
        "slowdown": slow,
        "calibration_samples_s": calibration,
        "setup_samples_s": setup,
        "passed": phase.passed,
        "expected_failures": phase.expected,
        "unexpected_failures": phase.unexpected,
        "cli_digest": phase.digest.hexdigest() if phase.digest_ops else None,
    }
    return result, detail


def per_layer(workload: str, seed: int, seconds: float, workdir: Path) -> tuple[dict, dict]:
    blocks = max(1, math.ceil(seconds * TRACE_BLOCKS_PER_SECOND[workload]))
    plain = run_phase(workload, seed, workdir, blocks=blocks)
    tracer = tracing.Tracer()
    uninstall = tracing.install(tracer)
    try:
        traced = run_phase(workload, seed, workdir, blocks=blocks, tracer=tracer)
    finally:
        uninstall()
    metrics = tracer.metrics()
    metrics["tracing.untraced_ops_per_s"] = (plain.ops_per_s(), "1/s")
    metrics["tracing.traced_ops_per_s"] = (traced.ops_per_s(), "1/s")
    for name, (value, unit) in metrics.items():
        print(f"{name:30s} {value:16.6f} {unit}")
    print(f"tracing overhead: {plain.ops_per_s():.3f} -> {traced.ops_per_s():.3f} ops/s "
          f"over {blocks} blocks ({len(traced.latencies)} ops), "
          f"x{plain.ops_per_s() / traced.ops_per_s():.2f} slower")
    _print_failures(traced)
    same_output = plain.digest.hexdigest() == traced.digest.hexdigest()
    if not same_output:
        print("# FAILED: tracing changed the CLI artifacts")
    OUT.mkdir(exist_ok=True)
    tracer.dump(OUT / f"{workload}-spans.json")
    unexpected = plain.unexpected + traced.unexpected
    result = {
        "correct": not unexpected and same_output,
        "attempted": len(traced.latencies),
        "failed": len(traced.unexpected),
        "metrics": metrics,
    }
    detail = {"metrics": metrics, "blocks": blocks, "expected_failures": traced.expected,
              "unexpected_failures": unexpected, "cli_digest": traced.digest.hexdigest()}
    return result, detail
