"""Command-line front end.

Subcommands evaluate closed-form families, run the discrete minimizer and the
degenerate axis solver, classify invariant hanging surfaces, and export
CSV/JSON/mesh artifacts.  All outputs are deterministic: fixed float
formatting (17 significant digits), sorted JSON keys, no timestamps.
"""

import argparse
import math
import sys

import numpy as np

from . import curves, odes, singular, surfaces, variational
from .core import write_csv, write_json
from .errors import IsoKitError


def _parse_range(raw: str) -> tuple[float, float]:
    lo, hi = (float(x) for x in raw.split(":"))
    if not lo < hi:  # false for NaN too
        raise argparse.ArgumentTypeError(f"range {raw} needs lo < hi")
    return lo, hi


def _check_finite(args) -> None:
    """ValueError naming the first option that holds a NaN or an infinity."""
    for name, value in vars(args).items():
        numbers = value if isinstance(value, tuple) else (value,)
        if any(isinstance(x, float) and not math.isfinite(x) for x in numbers):
            raise ValueError(f"{name} must be finite, got {value}")


def _count(lo: int):
    """argparse type: an integer of at least ``lo``."""

    def parse(raw: str) -> int:
        if int(raw) < lo:
            raise argparse.ArgumentTypeError(f"{raw} is below the minimum {lo}")
        return int(raw)

    return parse


def _parse_grid(raw: str) -> tuple[int, int]:
    nu, nv = raw.lower().split("x")
    return _count(1)(nu), _count(1)(nv)


def _parse_profile(raw: str) -> curves.ProfileForm:
    """Profile spec `kind:args` -> ProfileForm.

    Kinds: log:c,d  power:c,p,d  inverse:z1,z2  poly:a0,a1,...
    """
    kind, _, argstr = raw.partition(":")
    vals = [float(v) for v in argstr.split(",")] if argstr else []
    if kind == "log":
        c, d = vals
        return curves.ProfileForm("log", {"c": c, "d": d})
    if kind == "power":
        c, p, d = vals
        return curves.ProfileForm("power", {"c": c, "p": p, "d": d})
    if kind == "inverse":
        z1, z2 = vals
        return curves.ProfileForm("inverse_radius", {"z1": z1, "z2": z2})
    if kind == "poly":
        return curves.ProfileForm("poly", {"a": tuple(vals)})
    raise argparse.ArgumentTypeError(f"unknown profile kind {kind!r}")


def _build_parser() -> argparse.ArgumentParser:
    parser = argparse.ArgumentParser(prog="isokit")
    sub = parser.add_subparsers(dest="command", required=True)

    p = sub.add_parser("catenary", help="sample a closed-form catenary family")
    p.add_argument("--alpha", type=float, default=1.0)
    p.add_argument("--c", type=float, default=1.0)
    p.add_argument("--d", type=float, default=0.0)
    p.add_argument("--lambda", dest="lam", type=float, default=0.0)
    p.add_argument("--range", dest="trange", type=_parse_range, required=True)
    p.add_argument("--n", type=_count(2), default=100)
    p.add_argument("--out", default="-")

    p = sub.add_parser("minimize", help="minimize a discrete weight functional")
    p.add_argument("--ref", choices=[curves.LZ, curves.LX], default=curves.LZ)
    p.add_argument("--alpha", type=float, default=1.0)
    p.add_argument("--lambda", dest="lam", type=float, default=0.0)
    p.add_argument("--endpoints", required=True, help="ta,za,tb,zb")
    p.add_argument("--n", type=_count(2), default=200)
    p.add_argument("--out", default="-", help="CSV destination")
    p.add_argument("--json", dest="json_out", default=None, help="summary destination")

    p = sub.add_parser("catenoid", help="solve the two-circle boundary problem")
    p.add_argument("--r1", type=float, required=True)
    p.add_argument("--z1", type=float, required=True)
    p.add_argument("--r2", type=float, required=True)
    p.add_argument("--z2", type=float, required=True)
    p.add_argument("--mesh", default=None, help="optional OBJ destination")
    p.add_argument("--grid", type=_parse_grid, default=(32, 64))

    p = sub.add_parser("surface", help="generate a surface mesh with curvature sidecar")
    p.add_argument("kind", choices=["revolution", "helicoidal", "parabolic"])
    p.add_argument("--profile", type=_parse_profile, required=True)
    p.add_argument("--trange", type=_parse_range, required=True)
    p.add_argument("--thetarange", type=_parse_range, default=None)
    p.add_argument("--pitch", type=float, default=0.0)
    p.add_argument("--a", type=float, default=0.0)
    p.add_argument("--b", type=float, default=1.0)
    p.add_argument("--c", type=float, default=0.0)
    p.add_argument("--c1", type=float, default=0.0)
    p.add_argument("--c2", type=float, default=0.0)
    p.add_argument("--mesh", required=True)
    p.add_argument("--grid", type=_parse_grid, default=(32, 64))
    p.add_argument("--curvature-csv", default=None)

    p = sub.add_parser("classify", help="classify invariant hanging surfaces")
    p.add_argument("kind", choices=["helicoidal", "parabolic"])
    p.add_argument("--ref", choices=[singular.PI_YZ, singular.PI_XY], required=True)
    p.add_argument("--c", type=float, default=0.0, help="pitch (helicoidal) or c")
    p.add_argument("--a", type=float, default=0.0)
    p.add_argument("--b", type=float, default=1.0)
    p.add_argument("--c1", type=float, default=0.0)
    p.add_argument("--c2", type=float, default=0.0)
    p.add_argument("--z1", type=float, default=0.0)
    p.add_argument("--z2", type=float, default=1.0)
    p.add_argument("--out", default="-")

    p = sub.add_parser("ivp", help="solve the degenerate axis-crossing problem")
    p.add_argument("--a", type=float, required=True)
    p.add_argument("--tol", type=float, default=1e-12)
    p.add_argument("--out", default="-", help="CSV destination")
    p.add_argument("--json", dest="json_out", default=None, help="sidecar destination")

    p = sub.add_parser("residual", help="max residual on a grid; exit 0 iff below threshold")
    p.add_argument("--check", choices=["el", "sms"], required=True)
    p.add_argument("--threshold", type=float, default=1e-9)
    p.add_argument("--ref", choices=[curves.LZ, curves.LX], default=curves.LZ)
    p.add_argument("--sref", choices=[singular.PI_YZ, singular.PI_XY], default=singular.PI_YZ)
    p.add_argument("--alpha", type=float, default=1.0)
    p.add_argument("--lambda", dest="lam", type=float, default=0.0)
    p.add_argument("--profile", type=_parse_profile, required=True)
    p.add_argument("--range", dest="trange", type=_parse_range, required=True)
    p.add_argument("--n", type=_count(1), default=100)
    p.add_argument("--surface", choices=["revolution", "helicoidal", "parabolic"], default="revolution")
    p.add_argument("--thetarange", type=_parse_range, default=(-1.25, 1.25))
    p.add_argument("--grid", type=_parse_grid, default=(50, 16))
    p.add_argument("--pitch", type=float, default=0.0)
    p.add_argument("--a", type=float, default=0.0)
    p.add_argument("--b", type=float, default=1.0)
    p.add_argument("--c", type=float, default=0.0)
    p.add_argument("--c1", type=float, default=0.0)
    p.add_argument("--c2", type=float, default=0.0)
    return parser


def _cmd_catenary(args) -> int:
    family = curves.CatenaryFamily(
        reference=curves.LZ, alpha=args.alpha, c=args.c, d=args.d, lam=args.lam
    )
    t_lo, t_hi = args.trange
    ts = np.linspace(t_lo, t_hi, args.n)
    write_csv(args.out, "t,x,z", (ts, ts, [family(float(t))[0] for t in ts]))
    return 0


def _cmd_minimize(args) -> int:
    ta, za, tb, zb = (float(v) for v in args.endpoints.split(","))
    spec = variational.WeightFunctionalSpec(args.ref, args.alpha, args.lam)
    curve = variational.minimize(spec, (ta, za, tb, zb), args.n)
    write_csv(args.out, "t,x,z", (curve.grid, curve.grid, curve.values))
    grad = variational.functional_gradient(spec, curve)
    summary = {
        "functional_value": variational.evaluate_functional(spec, curve),
        "gradient_max_abs": float(np.max(np.abs(grad))),
        "n": args.n,
    }
    write_json(args.json_out or "-", summary)
    return 0


def _cmd_catenoid(args) -> int:
    boundary = singular.CatenoidBoundary(args.r1, args.z1, args.r2, args.z2)
    sol = singular.solve_catenoid_boundary(boundary)
    write_json("-", {"c": sol.c, "d": sol.d, "status": sol.status})
    if args.mesh and sol.status == "unique":
        form = curves.ProfileForm("log", {"c": sol.c, "d": sol.d})
        t_lo, t_hi = sorted((args.r1, args.r2))
        spec = surfaces.RevolutionSpec(form.plane_curve(t_lo, t_hi))
        surfaces.write_obj_mesh(args.mesh, surfaces.make_revolution(spec), *args.grid)
    return 0


def _make_surface(kind, profile, trange, thetarange, pitch, a, b, c, c1, c2):
    curve = profile.plane_curve(*trange)
    if kind == "revolution":
        th = thetarange or (0.0, 2.0 * math.pi)
        return surfaces.make_revolution(surfaces.RevolutionSpec(curve), *th)
    if kind == "helicoidal":
        th = thetarange or (0.0, 2.0 * math.pi)
        return surfaces.make_helicoidal(surfaces.HelicoidalSpec(curve, pitch), *th)
    th = thetarange or (-1.0, 1.0)
    return surfaces.make_parabolic_revolution(
        surfaces.ParabolicRevolutionSpec(a, b, c, c1, c2, curve), *th
    )


def _cmd_surface(args) -> int:
    surf = _make_surface(
        args.kind, args.profile, args.trange, args.thetarange,
        args.pitch, args.a, args.b, args.c, args.c1, args.c2,
    )
    surfaces.write_obj_mesh(args.mesh, surf, *args.grid)
    sidecar = args.curvature_csv or args.mesh + ".curvature.csv"
    surfaces.write_vertex_curvature_csv(sidecar, surf, *args.grid)
    return 0


def _cmd_classify(args) -> int:
    if args.kind == "helicoidal":
        report = singular.classify_helicoidal(args.c, args.ref, args.z1, args.z2)
    else:
        report = singular.classify_parabolic_revolution(
            args.a, args.b, args.c, args.c1, args.c2, args.ref, args.z1, args.z2
        )
    write_json(args.out, report.to_json_dict())
    return 0


def _cmd_ivp(args) -> int:
    result = odes.picard_solve_degenerate(args.a, tol=args.tol)
    result.write_csv(args.out)
    write_json(args.json_out or "-", result.sidecar_dict())
    return 0


def _cmd_residual(args) -> int:
    if args.check == "el":
        spec = variational.WeightFunctionalSpec(args.ref, args.alpha, args.lam)
        t_lo, t_hi = args.trange
        ts = np.linspace(t_lo, t_hi, args.n)
        worst = max(abs(variational.el_residual(spec, args.profile, float(t))) for t in ts)
    else:
        surf = _make_surface(
            args.surface, args.profile, args.trange, args.thetarange,
            args.pitch, args.a, args.b, args.c, args.c1, args.c2,
        )
        spec = singular.SingularSpec(args.sref, args.alpha, args.lam)
        nu, nv = args.grid
        ts = np.linspace(surf.u_lo, surf.u_hi, nu)
        ths = np.linspace(surf.v_lo, surf.v_hi, nv)
        worst = singular.max_sms_residual(surf, spec, ts, ths)
    sys.stdout.write(f"{worst:.17g}\n")
    return 0 if worst < args.threshold else 1


_COMMANDS = {
    "catenary": _cmd_catenary,
    "minimize": _cmd_minimize,
    "catenoid": _cmd_catenoid,
    "surface": _cmd_surface,
    "classify": _cmd_classify,
    "ivp": _cmd_ivp,
    "residual": _cmd_residual,
}


def run(argv=None) -> int:
    args = _build_parser().parse_args(argv)
    try:
        _check_finite(args)
        return _COMMANDS[args.command](args)
    except (IsoKitError, ValueError) as exc:
        print(f"error: {exc}", file=sys.stderr)
        return 1


def main() -> None:
    sys.exit(run())


if __name__ == "__main__":
    main()
