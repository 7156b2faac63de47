"""Seeded op schedules of the three benchmark workloads.

A workload is an endless sequence of blocks.  Every block holds the same
multiset of op classes (panel counts, solver sizes, CLI commands) in a seeded
order with seeded parameters, so a run's cost mix does not drift with the
seed and its percentiles do not sit on the boundary between two op classes.
The program receives only the drawn inputs; every op has an oracle from
``oracles`` that runs outside the timed window.

Ops call the package through module attributes at call time (``ik.minimize``,
``cli.run``), so a traced run sees every call through the wrappers installed
by ``tracing``.
"""

import contextlib
import io
import math
import random
from dataclasses import dataclass, field
from pathlib import Path
from typing import Callable

import isokit as ik
from isokit import cli

import oracles

TWO_PI = 2.0 * math.pi


@dataclass
class Op:
    """One timed call into the package plus the check of its result."""

    label: str  # op class, e.g. "relative_area 64x64"
    inputs: dict  # the drawn inputs, printed when the op fails
    call: Callable[[], object]  # the timed work
    check: Callable[[object], str | None]  # oracle; None means correct
    # Reads a CLI op's artifacts after the timer stops.
    collect: Callable[[object], object] | None = None


def _u(rng: random.Random, lo: float, hi: float) -> float:
    return rng.uniform(lo, hi)


def _t_range(rng) -> tuple[float, float]:
    t_lo = _u(rng, 0.5, 1.5)
    return t_lo, t_lo + _u(rng, 0.5, 2.5)


def _catenary_draw(rng) -> tuple[float, float]:
    """(alpha, lam) of an isotropic-axis catenary: the log branch with a
    multiplier half the time, otherwise a power branch."""
    if rng.random() < 0.5:
        return 1.0, _u(rng, -0.4, 0.25)
    return _u(rng, 0.25, 3.0), 0.0


# ---------------------------------------------------------------------------
# surface_area
#
# relative_area at a seeded panel count.  Per block of ten ops: three at 16^2,
# three at 32^2, two at 64^2 and two at the library default 128^2.  Sorted by
# cost the classes cover 0-30%, 30-60%, 60-80% and 80-100% of the ops, so the
# median lies inside the 32^2 class and the 90th percentile in the middle of
# the 128^2 class; with a uniform mix the median fell between two classes and
# wandered by about 15% from run to run.

SURFACE_PANEL_MIX = ((16, 3), (32, 3), (64, 2), (None, 2))


def _area_profile(rng) -> tuple[str, dict, Callable]:
    """(oracle kind, coefficients, curve constructor) for one of the four profiles."""
    kind = rng.choice(("log", "power", "inverse_radius", "log_parabola"))
    if kind in ("log", "power"):
        alpha, lam = (1.0, _u(rng, -0.4, 0.25)) if kind == "log" else (_u(rng, 0.25, 3.0), 0.0)
        c, d = _u(rng, -2.0, 2.0), _u(rng, -1.0, 1.0)
        if kind == "log":
            co = {"c": c, "d": d, "lam": lam}
        else:
            co = {"c": c, "p": 1.0 - alpha, "d": d}

        def build(t_lo, t_hi, alpha=alpha, c=c, d=d, lam=lam):
            family = ik.CatenaryFamily(ik.LZ, alpha=alpha, c=c, d=d, lam=lam)
            return family.plane_curve(t_lo, t_hi)

        return kind, co, build
    if kind == "inverse_radius":
        co = {"z1": _u(rng, -1.0, 1.0), "z2": _u(rng, -2.0, 2.0)}
    else:
        co = {"quad": _u(rng, -0.5, 0.5), "z1": _u(rng, -1.0, 1.0), "z2": _u(rng, -2.0, 2.0)}

    def build(t_lo, t_hi, kind=kind, co=dict(co)):
        return ik.ProfileForm(kind, co).plane_curve(t_lo, t_hi)

    return kind, co, build


def _surface_draw(rng) -> dict:
    kind = rng.choice(("revolution", "helicoidal", "parabolic"))
    if kind == "parabolic":
        w = _u(rng, 0.5, 1.5)
        return {
            "kind": kind, "a": _u(rng, -1.0, 1.0), "b": _u(rng, 0.5, 2.0),
            "c": _u(rng, -1.0, 1.0), "c1": _u(rng, -0.5, 0.5), "c2": _u(rng, -0.5, 0.5),
            "theta": (-w, w),
        }
    if rng.random() < 0.5:
        theta = (0.0, TWO_PI)
    else:
        lo = _u(rng, 0.0, math.pi)
        theta = (lo, lo + _u(rng, 0.5 * math.pi, 1.5 * math.pi))
    surf = {"kind": kind, "theta": theta}
    if kind == "helicoidal":
        surf["pitch"] = _u(rng, -1.0, 1.0)
    return surf


def _sweep(surf: dict, curve):
    th = surf["theta"]
    if surf["kind"] == "revolution":
        return ik.make_revolution(ik.RevolutionSpec(curve), *th)
    if surf["kind"] == "helicoidal":
        return ik.make_helicoidal(ik.HelicoidalSpec(curve, surf["pitch"]), *th)
    spec = ik.ParabolicRevolutionSpec(
        surf["a"], surf["b"], surf["c"], surf["c1"], surf["c2"], curve
    )
    return ik.make_parabolic_revolution(spec, *th)


def _area_op(rng, panels) -> Op:
    kind, co, build = _area_profile(rng)
    t_lo, t_hi = _t_range(rng)
    surf = _surface_draw(rng)

    def call():
        surface = _sweep(surf, build(t_lo, t_hi))
        if panels is None:
            return ik.relative_area(surface)
        return ik.relative_area(surface, panels_u=panels, panels_v=panels)

    size = "default" if panels is None else f"{panels}x{panels}"
    return Op(
        label=f"relative_area {size}",
        inputs={"profile": kind, **co, "t": (t_lo, t_hi), "surface": surf},
        call=call,
        check=lambda area: oracles.check_area(
            oracles.area_reference(surf, kind, co, t_lo, t_hi, panels), area
        ),
    )


def surface_area_block(rng) -> list[Op]:
    ops = [_area_op(rng, panels) for panels, count in SURFACE_PANEL_MIX for _ in range(count)]
    rng.shuffle(ops)
    return ops


# ---------------------------------------------------------------------------
# profile_solvers
#
# Per block of ten ops: four picard_solve_degenerate (about 1 ms), two
# minimize at n = 200 (about 1 ms), one at n = 2000, one integrate of 10^4
# RK4 steps and two minimize at n = 20000 (20-40 ms).  The cheap classes hold
# 60% of the ops, so the median lies inside them; the 90th percentile lies in
# the middle of the n = 20000 class.

PICARD_LOG10_A = (-8.0, 4.0)
PICARD_STRATA = 4
RK4_STEPS = 10_000


def _picard_op(a: float) -> Op:
    return Op(
        label="picard_solve_degenerate",
        inputs={"a": a},
        call=lambda: ik.picard_solve_degenerate(a),
        check=lambda result: oracles.check_picard(a, result),
    )


def _lz_endpoints(rng) -> tuple[float, float, float, float]:
    t_a = _u(rng, 0.5, 2.0)
    z_a = _u(rng, -1.0, 1.0)
    return (t_a, z_a, t_a + _u(rng, 0.5, 3.0), z_a + _u(rng, -2.0, 2.0))


def _lx_endpoints(rng) -> tuple[float, float, float, float]:
    """Short spans at moderate slope, where a smooth critical profile exists
    (the first integral z'^2 = 1 - C/z bounds how far one can reach)."""
    z_a = _u(rng, 1.0, 2.0)
    return (0.0, z_a, _u(rng, 0.5, 1.5), z_a * _u(rng, 0.8, 1.25))


def _minimize_op(rng, reference: str, n: int) -> Op:
    if reference == ik.LZ:
        alpha, lam = _catenary_draw(rng)
        endpoints = _lz_endpoints(rng)
        check = oracles.check_lz_profile
    else:
        alpha, lam = _u(rng, 0.5, 3.0), 0.0
        endpoints = _lx_endpoints(rng)
        check = oracles.check_lx_profile
    spec = ik.WeightFunctionalSpec(reference, alpha, lam)
    return Op(
        label=f"minimize {reference} n={n}",
        inputs={"alpha": alpha, "lam": lam, "endpoints": endpoints, "n": n},
        call=lambda: ik.minimize(spec, endpoints, n),
        check=lambda curve: check(alpha, lam, endpoints, n, curve),
    )


def _integrate_op(rng) -> Op:
    kind = rng.choice(("nonisotropic_alpha_catenary", "revolution_nonisotropic", "parabolic_nonisotropic"))
    z0, zp0 = _u(rng, 0.5, 2.0), _u(rng, -0.5, 0.5)
    if kind == "nonisotropic_alpha_catenary":
        t0, params = 0.0, {"alpha": 1.0, "lam": 0.0}
        make = lambda: ik.ProfileODE.nonisotropic_alpha_catenary(1.0, 0.0)  # noqa: E731
    elif kind == "revolution_nonisotropic":
        t0, params = _u(rng, 0.5, 1.0), {}
        make = lambda: ik.ProfileODE.revolution_nonisotropic()  # noqa: E731
    else:
        t0 = _u(rng, 0.0, 0.5)
        params = {"a": _u(rng, -1.0, 1.0), "b": _u(rng, 0.5, 2.0), "c2": _u(rng, 0.0, 0.5)}
        make = lambda p=params: ik.ProfileODE.parabolic_nonisotropic(p["a"], p["b"], p["c2"])  # noqa: E731
    t1 = t0 + _u(rng, 0.5, 1.5)

    def call():
        return ik.integrate(make(), t0, z0, zp0, t1, RK4_STEPS)

    if kind == "nonisotropic_alpha_catenary":
        def check(result):
            return oracles.check_first_integral(t0, z0, zp0, t1, RK4_STEPS, result)
    elif kind == "parabolic_nonisotropic":
        def check(result):
            return oracles.check_parabolic(t0, t1, RK4_STEPS, make(), params["b"], params["c2"],
                                           result, ik.ivp_residual)
    else:
        def check(result):
            return oracles.check_ivp_residual(t0, t1, RK4_STEPS, make(), result, ik.ivp_residual)

    return Op(
        label=f"integrate {kind}",
        inputs={"kind": kind, **params, "t0": t0, "z0": z0, "zp0": zp0, "t1": t1},
        call=call,
        check=check,
    )


def profile_solvers_block(rng) -> list[Op]:
    lo, hi = PICARD_LOG10_A
    width = (hi - lo) / PICARD_STRATA
    ops = [
        _picard_op(10.0 ** _u(rng, lo + k * width, lo + (k + 1) * width))
        for k in range(PICARD_STRATA)
    ]
    ops += [
        _minimize_op(rng, ik.LZ, 200),
        _minimize_op(rng, ik.LX, 200),
        _minimize_op(rng, rng.choice((ik.LZ, ik.LX)), 2000),
        _integrate_op(rng),
        _minimize_op(rng, ik.LZ, 20000),
        _minimize_op(rng, ik.LX, 20000),
    ]
    rng.shuffle(ops)
    return ops


# ---------------------------------------------------------------------------
# cli_session
#
# Per block of ten commands, in seeded order: the eight README commands
# (catenary, minimize, catenoid with a mesh, surface with its curvature
# sidecar, classify helicoidal, classify parabolic, ivp, residual el), one
# residual sms and one documented error path (residual above threshold and a
# solver failure exit 1, a bad flag exits 2).  Exactly one of the two classify
# commands takes a branch that verifies its profile on the 50 x 16 grid, so
# three commands per block (that one, residual sms and surface) cost
# 20-100 ms and seven cost 2-10 ms: the median lies inside the cheap group
# and the 90th percentile inside the expensive one.

CLI_GRIDS = ((8, 16), (12, 24), (16, 32))
DIGEST_BLOCKS = 3
# Share of commands that pass each option value as a separate argument, as
# the README writes them; the others use --name=value.
SEPARATE_VALUE_SHARE = 0.5


@dataclass
class CliOutput:
    code: int
    stdout: str
    stderr: str
    paths: list
    files: list = field(default_factory=list)


def _f(x: float) -> str:
    return repr(float(x))


def _opt(name: str, value) -> str:
    """``--name=value``; see ``_separate_values`` for the other form."""
    if isinstance(value, tuple):
        return f"--{name}=" + ",".join(_f(v) for v in value)
    return f"--{name}={_f(value)}"


def _separate_values(argv: list) -> list:
    """``--name=value`` -> ``--name value``.  The parser then reads a value
    such as -8.9e-05 or -0.7:0.7 as a flag: a recorded defect (see oracles)."""
    out = []
    for arg in argv:
        out += arg.split("=", 1) if arg.startswith("--") and "=" in arg else [arg]
    return out


class CliSession:
    """Builds CLI ops whose artifacts go to ``workdir`` (inside the checkout)."""

    def __init__(self, workdir: Path):
        self.workdir = workdir
        self.count = 0

    def _op(self, rng, label, argv, names, check) -> Op:
        self.count += 1
        paths = [self.workdir / f"{self.count}-{name}" for name in names]
        argv = [a.format(*paths) for a in argv]
        if rng.random() < SEPARATE_VALUE_SHARE:
            argv = _separate_values(argv)

        def call():
            out, err = io.StringIO(), io.StringIO()
            with contextlib.redirect_stdout(out), contextlib.redirect_stderr(err):
                try:
                    code = cli.run(argv)
                except SystemExit as exc:  # argparse exits 2 on a bad flag
                    code = exc.code
            return CliOutput(code, out.getvalue(), err.getvalue(), paths)

        return Op(
            label=f"cli {label}",
            inputs={"argv": " ".join(argv)},
            call=call,
            check=lambda out: oracles.check_cli(argv, out, check),
            collect=collect_cli_output,
        )

    def catenary(self, rng) -> Op:
        alpha, lam = _catenary_draw(rng)
        c, d = _u(rng, -2.0, 2.0), _u(rng, -1.0, 1.0)
        t_lo, t_hi = _t_range(rng)
        n = rng.randint(50, 400)
        kind, co = ("log", {"c": c, "d": d, "lam": lam}) if alpha == 1.0 else (
            "power", {"c": c, "p": 1.0 - alpha, "d": d})
        argv = ["catenary", _opt("alpha", alpha), _opt("c", c), _opt("d", d),
                _opt("lambda", lam), f"--range={_f(t_lo)}:{_f(t_hi)}", f"--n={n}",
                "--out", "{0}"]
        return self._op(rng, "catenary", argv, ["curve.csv"],
                        lambda out: oracles.check_catenary_csv(out, kind, co, t_lo, t_hi, n))

    def minimize(self, rng) -> Op:
        alpha, lam = _catenary_draw(rng)
        endpoints = _lz_endpoints(rng)
        n = rng.randint(100, 400)
        argv = ["minimize", "--ref", "lz", _opt("alpha", alpha), _opt("lambda", lam),
                _opt("endpoints", endpoints), f"--n={n}",
                "--out", "{0}", "--json", "{1}"]
        return self._op(rng, "minimize", argv, ["profile.csv", "summary.json"],
                        lambda out: oracles.check_minimize_files(out, alpha, lam, endpoints, n))

    def catenoid(self, rng) -> Op:
        r1 = _u(rng, 0.5, 1.5)
        r2 = r1 * _u(rng, 1.5, 4.0)
        if rng.random() < 0.5:
            r1, r2 = r2, r1
        z1, z2 = _u(rng, -1.0, 1.0), _u(rng, -1.0, 1.0)
        nu, nv = rng.choice(CLI_GRIDS)
        argv = ["catenoid", _opt("r1", r1), _opt("z1", z1), _opt("r2", r2), _opt("z2", z2),
                "--mesh", "{0}", "--grid", f"{nu}x{nv}"]
        return self._op(rng, "catenoid", argv, ["catenoid.obj"],
                        lambda out: oracles.check_catenoid(out, r1, z1, r2, z2, nu, nv))

    def surface(self, rng) -> Op:
        spec_kind = rng.choice(("log", "power", "inverse", "poly"))
        if spec_kind == "log":
            kind, co = "log", {"c": _u(rng, -2.0, 2.0), "d": _u(rng, -1.0, 1.0)}
            spec = f"log:{_f(co['c'])},{_f(co['d'])}"
        elif spec_kind == "power":
            kind, co = "power", {"c": _u(rng, -2.0, 2.0), "p": _u(rng, -2.0, 2.0), "d": _u(rng, -1.0, 1.0)}
            spec = f"power:{_f(co['c'])},{_f(co['p'])},{_f(co['d'])}"
        elif spec_kind == "inverse":
            kind, co = "inverse_radius", {"z1": _u(rng, -1.0, 1.0), "z2": _u(rng, -2.0, 2.0)}
            spec = f"inverse:{_f(co['z1'])},{_f(co['z2'])}"
        else:
            kind, co = "poly", {"a": [_u(rng, -1.0, 1.0) for _ in range(rng.randint(2, 4))]}
            spec = "poly:" + ",".join(_f(v) for v in co["a"])
        t_lo, t_hi = _t_range(rng)
        surf = _surface_draw(rng)
        nu, nv = rng.choice(CLI_GRIDS)
        argv = ["surface", surf["kind"], f"--profile={spec}", f"--trange={_f(t_lo)}:{_f(t_hi)}",
                f"--thetarange={_f(surf['theta'][0])}:{_f(surf['theta'][1])}",
                "--mesh", "{0}", "--grid", f"{nu}x{nv}"]
        if surf["kind"] == "helicoidal":
            argv.append(_opt("pitch", surf["pitch"]))
        if surf["kind"] == "parabolic":
            for k in ("a", "b", "c", "c1", "c2"):
                argv.append(_opt(k, surf[k]))
        # The curvature sidecar lands next to the mesh.
        names = ["surface.obj", "surface.obj.curvature.csv"]
        return self._op(rng, f"surface {surf['kind']}", argv, names,
                        lambda out: oracles.check_surface_files(out, surf, kind, co, (t_lo, t_hi), nu, nv))

    def classify_helicoidal(self, rng, verified: bool) -> Op:
        z1, z2 = _u(rng, -1.0, 1.0), rng.choice((-1.0, 1.0)) * _u(rng, 0.25, 2.0)
        if verified:
            pitch, ref, case = 0.0, "yz", "EuclideanRevolutionInverse"
        elif rng.random() < 0.5:
            pitch, ref, case = rng.choice((-1.0, 1.0)) * _u(rng, 0.1, 2.0), rng.choice(("yz", "xy")), "NoHelicoidal"
        else:
            pitch, ref, case = 0.0, "xy", "NonIsotropicODE"
        argv = ["classify", "helicoidal", _opt("c", pitch), "--ref", ref,
                _opt("z1", z1), _opt("z2", z2)]
        return self._op(rng, "classify helicoidal", argv, [],
                        lambda out: oracles.check_classify(out, case, verified))

    def classify_parabolic(self, rng, verified: bool) -> Op:
        a, b, c, c2 = _u(rng, -1.0, 1.0), _u(rng, 0.5, 2.0), _u(rng, -1.0, 1.0), _u(rng, -1.0, 1.0)
        if verified and rng.random() < 0.5:
            ref, a, c1, case = "yz", 0.0, 0.0, "ParabolicCase1a"
        elif verified:
            ref, c1, case = "yz", -a * c2 / (2.0 * b), "ParabolicCase1b"
        elif rng.random() < 0.5:
            ref, c, c1, case = "xy", 0.0, 0.0, "ParabolicNonIsotropic"
        else:
            ref, a, c1, case = "yz", 0.0, rng.choice((-1.0, 1.0)) * _u(rng, 0.1, 1.0), "NoSolution"
        argv = ["classify", "parabolic", _opt("a", a), _opt("b", b), _opt("c", c),
                _opt("c1", c1), _opt("c2", c2), "--ref", ref,
                _opt("z1", _u(rng, -1.0, 1.0)), _opt("z2", _u(rng, 0.25, 2.0))]
        return self._op(rng, "classify parabolic", argv, [],
                        lambda out: oracles.check_classify(out, case, verified))

    def ivp(self, rng) -> Op:
        a = 10.0 ** _u(rng, *PICARD_LOG10_A)
        argv = ["ivp", _opt("a", a), "--out", "{0}", "--json", "{1}"]
        return self._op(rng, "ivp", argv, ["ivp.csv", "ivp.json"],
                        lambda out: oracles.check_ivp_files(out, a))

    def residual_el(self, rng) -> Op:
        t_lo, t_hi = _t_range(rng)
        c, d = _u(rng, -2.0, 2.0), _u(rng, -1.0, 1.0)
        if rng.random() < 0.5:
            alpha, spec = 1.0, f"log:{_f(c)},{_f(d)}"
        else:
            alpha = _u(rng, 0.25, 3.0)
            spec = f"power:{_f(c)},{_f(1.0 - alpha)},{_f(d)}"
        argv = ["residual", "--check", "el", "--ref", "lz", _opt("alpha", alpha),
                f"--profile={spec}", f"--range={_f(t_lo)}:{_f(t_hi)}"]
        return self._op(rng, "residual el", argv, [],
                        lambda out: oracles.check_residual(out, 1e-9, below=True))

    def residual_sms(self, rng) -> Op:
        t_lo, t_hi = _t_range(rng)
        spec = f"inverse:{_f(_u(rng, -1.0, 1.0))},{_f(_u(rng, -2.0, 2.0))}"
        argv = ["residual", "--check", "sms", f"--profile={spec}",
                f"--range={_f(t_lo)}:{_f(t_hi)}"]
        return self._op(rng, "residual sms", argv, [],
                        lambda out: oracles.check_residual(out, 1e-9, below=True))

    def error_path(self, rng) -> Op:
        kind = rng.choice(("residual_above", "solver_failure", "bad_flag"))
        if kind == "residual_above":
            t_lo, t_hi = _t_range(rng)
            spec = f"poly:{_f(_u(rng, -1.0, 1.0))},{_f(_u(rng, 0.5, 1.0))},{_f(_u(rng, 0.5, 1.0))}"
            argv = ["residual", "--check", "el", "--ref", "lz", _opt("alpha", _u(rng, 0.5, 3.0)),
                    f"--profile={spec}", f"--range={_f(t_lo)}:{_f(t_hi)}"]
            return self._op(rng, "residual above threshold", argv, [],
                            lambda out: oracles.check_residual(out, 1e-9, below=False))
        if kind == "solver_failure":
            # Non-isotropic axis, endpoints out of reach of any smooth
            # critical profile: minimize must fail and the CLI exit 1.
            endpoints = (0.0, _u(rng, 1.5, 2.5), _u(rng, 3.5, 5.0), _u(rng, 0.3, 0.6))
            argv = ["minimize", "--ref", "lx", "--alpha", "1", _opt("endpoints", endpoints),
                    "--n", "200", "--out", "{0}"]
            return self._op(rng, "minimize no solution", argv, ["unreachable.csv"],
                            lambda out: oracles.check_error_exit(out, 1))
        argv = rng.choice((
            ["catenary", "--range", "1:2", "--bogus", "1"],
            ["minimize", "--ref", "zz", "--endpoints", "1,0,2,1"],
            ["ivp", "--a", "one"],
            ["surface", "revolution", "--profile=log:1,0", "--trange=1:2"],
            ["classify", "conical", "--ref", "yz"],
        ))
        return self._op(rng, "bad flag", argv, [], lambda out: oracles.check_error_exit(out, 2))

    def block(self, rng) -> list[Op]:
        verify_helicoidal = rng.random() < 0.5
        ops = [
            self.catenary(rng),
            self.minimize(rng),
            self.catenoid(rng),
            self.surface(rng),
            self.classify_helicoidal(rng, verify_helicoidal),
            self.classify_parabolic(rng, not verify_helicoidal),
            self.ivp(rng),
            self.residual_el(rng),
            self.residual_sms(rng),
            self.error_path(rng),
        ]
        rng.shuffle(ops)
        return ops


def collect_cli_output(out: CliOutput) -> CliOutput:
    """Read and remove the artifacts a command wrote (outside the timer)."""
    out.files = []
    for path in out.paths:
        if path.exists():
            out.files.append(path.read_text(encoding="utf-8"))
            path.unlink()
        else:
            out.files.append(None)
    return out


def blocks(workload: str, seed: int, workdir: Path):
    """Endless seeded sequence of op blocks of one workload."""
    rng = random.Random(f"{workload}:{seed}")
    if workload == "surface_area":
        make = surface_area_block
    elif workload == "profile_solvers":
        make = profile_solvers_block
    elif workload == "cli_session":
        make = CliSession(workdir).block
    else:
        raise ValueError(f"unknown workload {workload!r}")
    while True:
        yield make(rng)


WORKLOADS = ("surface_area", "profile_solvers", "cli_session")
