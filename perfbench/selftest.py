"""Self-test of the benchmark at tiny sizes.

Run from the repository root:

    python3 perfbench/selftest.py

1. Runs every workload for one block with --trace 0 and --trace 1 and checks
   that the result line names exactly the metrics of BENCHMARK.json, each
   with its unit, and that the run is correct.
2. Runs one op of every class in-process, checks that its oracle accepts the
   real result, and that it rejects a deliberately perturbed copy.

Exits 0 when every check holds and 1 otherwise.
"""

import copy
import json
import re
import subprocess
import sys
from pathlib import Path

ROOT = Path(__file__).resolve().parent.parent
sys.path.insert(0, str(ROOT / "src"))

import oracles  # noqa: E402
import workloads  # noqa: E402

WORKDIR = ROOT / ".perfbench_tmp" / "selftest"


def check_result_lines(spec: dict) -> list[str]:
    problems = []
    for trace, key in ((0, "end_to_end"), (1, "per_layer")):
        want = {m["name"]: m["unit"] for m in spec[key]}
        for workload in workloads.WORKLOADS:
            cmd = [sys.executable, str(ROOT / "perfbench" / "run.py"), "--workload", workload,
                   "--seed", "1", "--seconds", "0.01", "--trace", str(trace)]
            done = subprocess.run(cmd, cwd=ROOT, capture_output=True, text=True, timeout=300)
            where = f"{workload} --trace {trace}"
            if done.returncode != 0:
                problems.append(f"{where}: exit {done.returncode}: {done.stderr[-300:]}")
                continue
            result = json.loads(done.stdout.strip().splitlines()[-1])
            if sorted(result) != ["attempted", "correct", "failed", "metrics"]:
                problems.append(f"{where}: result keys {sorted(result)}")
            if result["correct"] is not True or result["attempted"] < 1:
                problems.append(f"{where}: {result}")
            got = {name: m["unit"] for name, m in result["metrics"].items()}
            if got != want:
                problems.append(f"{where}: metrics {got} != {want}")
            for name, m in result["metrics"].items():
                if not isinstance(m["value"], (int, float)):
                    problems.append(f"{where}: {name} = {m['value']!r}")
            if trace == 0:
                printed = {line.split()[0] for line in done.stdout.splitlines()
                           if re.match(r"^[a-z0-9_]+ +-?[0-9]", line)}
                missing = (set(want) | {"fail_ratio"}) - printed
                if missing:
                    problems.append(f"{where}: not printed: {sorted(missing)}")
    return problems


# ---------------------------------------------------------------------------
# perturbations: each returns a wrong copy of a correct result


def _bump_row(text: str, row: int, col: int, rel: float) -> str:
    lines = text.splitlines()
    cells = lines[row].split(",")
    cells[col] = repr(float(cells[col]) * (1.0 + rel) + rel)
    lines[row] = ",".join(cells)
    return "\n".join(lines) + "\n"


def _cli(field_edit):
    def perturb(out):
        wrong = copy.deepcopy(out)
        field_edit(wrong)
        return wrong

    return perturb


def _drop_last_vertex(out):
    lines = out.files[0].splitlines()
    last_v = max(i for i, ln in enumerate(lines) if ln.startswith("v "))
    out.files[0] = "\n".join(lines[:last_v] + lines[last_v + 1:]) + "\n"


def _bump_json(index: int, key: str, rel: float):
    def edit(out):
        if index < 0:
            data = json.loads(out.stdout)
            data[key] = data[key] * (1.0 + rel) if isinstance(data[key], float) else "Wrong"
            out.stdout = json.dumps(data)
        else:
            data = json.loads(out.files[index])
            data[key] *= 1.0 + rel
            out.files[index] = json.dumps(data)

    return edit


def _bump_mid(attr: str, delta: float):
    def perturb(result):
        wrong = copy.deepcopy(result)
        values = getattr(wrong, attr)
        values[values.size // 2] += delta
        return wrong

    return perturb


def _bump_zpp(result):
    wrong = copy.copy(result)
    wrong.zpp_origin = result.zpp_origin * (1 + 1e-5)
    return wrong


PERTURB = {
    "relative_area": lambda area: area * (1.0 + 1e-6),
    "minimize lz": _bump_mid("values", 1e-3),
    "minimize lx": _bump_mid("values", 1e-6),
    "picard_solve_degenerate": _bump_zpp,
    "integrate": _bump_mid("z", 1e-6),
    "cli catenary": _cli(lambda o: o.files.__setitem__(0, _bump_row(o.files[0], -1, 2, 1e-9))),
    "cli minimize": _cli(_bump_json(1, "gradient_max_abs", 1e6)),
    "cli catenoid": _cli(_bump_json(-1, "c", 1e-9)),
    "cli surface": _cli(lambda o: o.files.__setitem__(1, _bump_row(o.files[1], 5, 2, 1e-3))),
    "cli classify": _cli(_bump_json(-1, "case", 0.0)),
    "cli ivp": _cli(_bump_json(1, "zpp_origin", 1e-5)),
    "cli residual": _cli(lambda o: setattr(o, "code", 1 - o.code)),
    "cli minimize no solution": _cli(lambda o: setattr(o, "code", 0)),
    "cli bad flag": _cli(lambda o: setattr(o, "code", 1)),
}
# Extra perturbation for meshes: a seam-unaware vertex count.
MESH_PERTURB = _cli(_drop_last_vertex)


def _perturbations(label: str):
    key = max((k for k in PERTURB if label.startswith(k)), key=len)
    found = [PERTURB[key]]
    if label.startswith(("cli catenoid", "cli surface")):
        found.append(MESH_PERTURB)
    return found


def _in_picard_slice(op) -> bool:
    """Below PICARD_DEFECT_BELOW a perturbed z''(0) is rightly read as the
    recorded defect, so such ops cannot test the oracle."""
    if op.label == "picard_solve_degenerate":
        a = op.inputs["a"]
    elif op.label == "cli ivp":
        a = float(re.search(r"--a[= ](\S+)", op.inputs["argv"]).group(1))
    else:
        return False
    return a < oracles.PICARD_DEFECT_BELOW


def check_oracles() -> list[str]:
    problems, seen = [], set()
    WORKDIR.mkdir(parents=True, exist_ok=True)
    try:
        gen = {w: workloads.blocks(w, 7, WORKDIR) for w in workloads.WORKLOADS}
        for _ in range(6):
            for w in workloads.WORKLOADS:
                for op in next(gen[w]):
                    # The perturbations need an op outside the Picard defect
                    # slice, and a 128^2 area, where truncation is below 1e-6.
                    coarse = op.label.startswith("relative_area") and op.label != "relative_area default"
                    if op.label in seen or _in_picard_slice(op) or coarse:
                        continue
                    result = op.call()
                    if op.collect:
                        result = op.collect(result)
                    verdict = op.check(result)
                    if isinstance(verdict, oracles.Expected):
                        continue  # a recorded defect; try the next op of this class
                    if verdict is not None:
                        problems.append(f"{op.label}: oracle rejected a correct result: {verdict}")
                        continue
                    for perturb in _perturbations(op.label):
                        verdict = op.check(perturb(result))
                        if verdict is None or isinstance(verdict, oracles.Expected):
                            problems.append(f"{op.label}: oracle accepted a perturbed result")
                    seen.add(op.label)
    finally:
        for path in WORKDIR.glob("*"):
            path.unlink()
        WORKDIR.rmdir()
    missing = {k for k in PERTURB if not any(label.startswith(k) for label in seen)}
    if missing:
        problems.append(f"op classes not exercised: {sorted(missing)}")
    print(f"oracles: {len(seen)} op classes checked against perturbed results")
    return problems


def main() -> int:
    spec = json.loads((ROOT / "BENCHMARK.json").read_text())
    problems = check_oracles() + check_result_lines(spec)
    for p in problems:
        print(f"FAIL {p}")
    print("selftest " + ("FAILED" if problems else "passed"))
    return 1 if problems else 0


if __name__ == "__main__":
    sys.exit(main())
