"""isokit benchmark: seeded, closed-loop, single-caller workloads.

Run from the repository root:

    python3 perfbench/run.py --workload surface_area --seed 1 --seconds 30 --trace 0

Workloads (see workloads.py for the op mixes and why each was chosen):

- surface_area: profile curve -> swept surface -> relative_area at 16^2 to
  128^2 panels.  Per-point jets and Simpson do the work.
- profile_solvers: minimize (n = 200, 2000, 20000), picard_solve_degenerate
  and 10^4-step RK4 integrate.  No surface code runs.
- cli_session: the README commands, in-process through cli.run, writing
  CSV/JSON/OBJ artifacts into a temporary directory inside the checkout.

One process, one thread, one caller: each op starts when the previous one
has been checked.  BLAS threads are pinned to 1 and ISOKIT_PANELS is unset,
so the library defaults apply.  The package is imported from ./src.

--trace 0 prints the end-to-end metrics:
  setup_s      median over fresh interpreters of the time from interpreter
               start to the first op being ready (import isokit.cli with
               numpy, then build the seeded inputs of the first block)
  ops_per_s    ops that passed their oracle per second of op time
  op_p50_ms    median op latency over all attempted ops
  op_p90_ms    90th-percentile op latency (the sample count is printed)
               The timed phase makes three passes over the same ops, the
               first drawing whole blocks for a third of --seconds; an op's
               latency is its fastest execution.  The four timings are scaled
               to a reference host by a calibration loop timed during the run
               (see harness.py); the measured values are printed beside them.
  fail_ratio   failed ops / attempted ops (printed; not in the result line,
               since it is 0 on a healthy workload)
  peak_rss_mb  peak resident set of this process
--trace 1 runs a fixed seeded prefix of the schedule twice, untraced and
traced, and prints the per-layer metrics of tracing.py plus both ops_per_s
figures, whose ratio is the tracing overhead.

Oracles (oracles.py) run outside the timed window.  A failure with the
signature of an already-recorded defect is listed as expected; only other
failures count as "failed" in the result line and make "correct" false.
The last line of stdout is one JSON object: correct, attempted, failed,
metrics.  A run record, the failure list and the CLI artifact digest also go
to .perfbench_out/ in the checkout.
"""

import os

for _var in ("OMP_NUM_THREADS", "OPENBLAS_NUM_THREADS", "MKL_NUM_THREADS"):
    os.environ[_var] = "1"
os.environ.pop("ISOKIT_PANELS", None)

import argparse  # noqa: E402
import json  # noqa: E402
import shutil  # noqa: E402
import sys  # noqa: E402
from pathlib import Path  # noqa: E402

ROOT = Path(__file__).resolve().parent.parent
SRC = ROOT / "src"
TMP = ROOT / ".perfbench_tmp"
WORKLOADS = ("surface_area", "profile_solvers", "cli_session")


def _parse(argv):
    p = argparse.ArgumentParser(description="isokit benchmark")
    p.add_argument("--workload", choices=WORKLOADS, required=True)
    p.add_argument("--seed", type=int, required=True)
    p.add_argument("--seconds", type=float, default=20.0)
    p.add_argument("--trace", type=int, choices=(0, 1), default=0)
    p.add_argument("--setup-probe", action="store_true", help=argparse.SUPPRESS)
    return p.parse_args(argv)


def main(argv=None) -> int:
    args = _parse(argv)
    if not (SRC / "isokit" / "__init__.py").is_file():
        print(f"error: no isokit package under {SRC}; run from a checkout of the repository",
              file=sys.stderr)
        return 2
    sys.path.insert(0, str(SRC))
    import isokit.cli  # noqa: F401  (numpy and every module: the import setup_s times)

    if not Path(isokit.__file__).resolve().is_relative_to(SRC):
        print(f"error: imported isokit from {isokit.__file__}, not {SRC}", file=sys.stderr)
        return 2
    workdir = TMP / str(os.getpid())
    if args.setup_probe:
        # Child side of setup_s: build the first block of seeded inputs, report.
        import time

        import workloads

        next(workloads.blocks(args.workload, args.seed, workdir))
        print(repr(time.monotonic()), flush=True)
        return 0
    import harness

    record = harness.run_record()
    print(f"# isokit benchmark workload={args.workload} seed={args.seed} "
          f"seconds={args.seconds:g} trace={args.trace}")
    print("# " + " ".join(f"{k}={v}" for k, v in record.items()))
    workdir.mkdir(parents=True)
    measure = harness.per_layer if args.trace else harness.end_to_end
    try:
        result, detail = measure(args.workload, args.seed, args.seconds, workdir)
    finally:
        shutil.rmtree(workdir, ignore_errors=True)
        if TMP.exists() and not any(TMP.iterdir()):
            TMP.rmdir()
    harness.OUT.mkdir(exist_ok=True)
    with open(harness.OUT / f"{args.workload}-trace{args.trace}.json", "w", encoding="utf-8") as fh:
        json.dump({"workload": args.workload, "seed": args.seed, "seconds": args.seconds,
                   "record": record, **detail}, fh, indent=1, default=str)
    result["metrics"] = {k: {"value": v, "unit": u} for k, (v, u) in result["metrics"].items()}
    print(json.dumps(result))
    return 0


if __name__ == "__main__":
    sys.exit(main())
