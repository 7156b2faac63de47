"""Command-line front end.

Subcommands evaluate closed-form families, run the discrete minimizer and the
degenerate axis solver, classify invariant hanging surfaces, and export
CSV/JSON/mesh artifacts.  All outputs are deterministic: fixed float
formatting (17 significant digits), sorted JSON keys, no timestamps.
"""

import argparse
import functools
import sys

import numpy as np

from . import curves, odes, singular, surfaces, variational
from .core import check_finite, finite_array, write_json
from .errors import IsoKitError


def _numbers(expected: str, count: int, convert=float, sep=",", least=None, into=tuple):
    """argparse type: ``count`` values joined by ``sep``, each read by ``convert`` and none
    below ``least``; one comes back bare, more as ``into``.  Text of another form is the flag
    error ``expected``, with {} the text."""

    def parse(raw: str):
        pieces = raw.lower().split(sep)  # lower: --grid takes 2X3
        try:
            values = [convert(x) for x in pieces]
        except ValueError:  # a piece that is no number, like a wrong count, is the form error
            values = []
        if len(values) != count:
            raise argparse.ArgumentTypeError(expected.format(raw))
        for piece, value in zip(pieces, values):
            if least is not None and value < least:
                raise argparse.ArgumentTypeError(f"{piece} is below the minimum {least}")
        return values[0] if count == 1 else into(values)

    return parse


def _parse_range(raw: str) -> tuple[float, float]:
    lo, hi = _numbers("range {} needs two numbers lo:hi", 2, sep=":")(raw)
    if not lo < hi:  # false for NaN too
        raise argparse.ArgumentTypeError(f"range {raw} needs lo < hi")
    return lo, hi  # a tuple, which check_finite names trange


_count = functools.partial(_numbers, "{} is not an integer", 1, int)  # _count(least=2): --n
# a list, which check_finite skips: minimize names a NaN endpoint
_parse_endpoints = _numbers("endpoints {} need four numbers ta,za,tb,zb", 4, into=list)
_parse_grid = _numbers("grid {} needs two integers NUxNV", 2, int, sep="x", least=1)
_CLI_PROFILES = {"log": "log", "power": "power", "inverse": "inverse_radius", "poly": "poly"}
_SURFACES = ["revolution", "helicoidal", "parabolic"]
_GROUP = {"--a": 0.0, "--b": 1.0, "--c": 0.0, "--c1": 0.0, "--c2": 0.0}  # the parabolic group


def _parse_profile(raw: str) -> curves.ProfileForm:
    """Profile spec `kind:args` -> ProfileForm; the values fill the kind's coefficient names.

    Kinds: log:c,d  power:c,p,d  inverse:z1,z2  poly:a0,a1,... (one tuple a)
    """
    name, _, argstr = raw.partition(":")
    if name not in _CLI_PROFILES:
        raise argparse.ArgumentTypeError(f"unknown profile kind {name!r}")
    kind = _CLI_PROFILES[name]
    names = curves.PROFILE_KINDS[kind].names
    try:  # a value that is no number or not finite, or a wrong count of them: exit 2
        vals = tuple(float(v) for v in argstr.split(",")) if argstr else ()
        if kind == "poly":  # its one coefficient is the tuple a
            vals = (vals,)
        return curves.ProfileForm(kind, dict(zip(names, vals, strict=True)))
    except ValueError:
        form = f"{name}:" + ("a0,a1,..." if kind == "poly" else ",".join(names))
        raise argparse.ArgumentTypeError(f"profile {raw} needs {form} of finite numbers") from None


def _add_sweep_options(p, trange_flag: str, thetarange_default) -> None:
    """The options of the swept surface that _make_surface builds."""
    p.add_argument("--profile", type=_parse_profile, required=True)
    p.add_argument(trange_flag, dest="trange", type=_parse_range, required=True)
    p.add_argument("--thetarange", type=_parse_range, default=thetarange_default)
    for flag, default in {"--pitch": 0.0, **_GROUP}.items():
        p.add_argument(flag, type=float, default=default)


@functools.cache  # built on the first run call; every default is immutable
def _build_parser() -> argparse.ArgumentParser:
    parser = argparse.ArgumentParser(prog="isokit")
    sub = parser.add_subparsers(dest="command", required=True)

    p = sub.add_parser("catenary", help="sample a closed-form catenary family")
    p.set_defaults(func=_cmd_catenary)
    p.add_argument("--alpha", type=float, default=1.0)
    p.add_argument("--c", type=float, default=1.0)
    p.add_argument("--d", type=float, default=0.0)
    p.add_argument("--lambda", dest="lam", type=float, default=0.0)
    p.add_argument("--range", dest="trange", type=_parse_range, required=True)
    p.add_argument("--n", type=_count(least=2), default=100)
    p.add_argument("--out", default="-")

    p = sub.add_parser("minimize", help="minimize a discrete weight functional")
    p.set_defaults(func=_cmd_minimize)
    p.add_argument("--ref", choices=[curves.LZ, curves.LX], default=curves.LZ)
    p.add_argument("--alpha", type=float, default=1.0)
    p.add_argument("--lambda", dest="lam", type=float, default=0.0)
    p.add_argument("--endpoints", type=_parse_endpoints, required=True, help="ta,za,tb,zb")
    p.add_argument("--n", type=_count(least=2), default=200)
    p.add_argument("--out", default="-", help="CSV destination")
    p.add_argument("--json", dest="json_out", default=None, help="summary destination")

    p = sub.add_parser("catenoid", help="solve the two-circle boundary problem")
    p.set_defaults(func=_cmd_catenoid)
    for flag in ("--r1", "--z1", "--r2", "--z2"):
        p.add_argument(flag, type=float, required=True)
    p.add_argument("--mesh", default=None, help="optional OBJ destination")
    p.add_argument("--grid", type=_parse_grid, default=(32, 64))

    p = sub.add_parser("surface", help="generate a surface mesh with curvature sidecar")
    p.set_defaults(func=_cmd_surface)
    p.add_argument("kind", choices=_SURFACES)
    _add_sweep_options(p, "--trange", None)
    p.add_argument("--mesh", required=True)
    p.add_argument("--grid", type=_parse_grid, default=(32, 64))
    p.add_argument("--curvature-csv", default=None)

    p = sub.add_parser("classify", help="classify invariant hanging surfaces")
    p.set_defaults(func=_cmd_classify)
    p.add_argument("kind", choices=["helicoidal", "parabolic"])
    p.add_argument("--ref", choices=[singular.PI_YZ, singular.PI_XY], required=True)
    for flag, default in _GROUP.items():
        p.add_argument(flag, type=float, default=default,
                       help="pitch (helicoidal) or c" if flag == "--c" else None)
    p.add_argument("--z1", type=float, default=0.0)
    p.add_argument("--z2", type=float, default=1.0)
    p.add_argument("--out", default="-")

    p = sub.add_parser("ivp", help="solve the degenerate axis-crossing problem")
    p.set_defaults(func=_cmd_ivp)
    p.add_argument("--a", type=float, required=True)
    p.add_argument("--tol", type=float, default=1e-12, help="C^1 correction bound, relative to a")
    p.add_argument("--out", default="-", help="CSV destination")
    p.add_argument("--json", dest="json_out", default=None, help="sidecar destination")

    p = sub.add_parser("residual", help="max residual on a grid; exit 0 iff below threshold")
    p.set_defaults(func=_cmd_residual)
    p.add_argument("--check", choices=["el", "sms"], required=True)
    p.add_argument("--threshold", type=float, default=1e-9)
    p.add_argument("--ref", choices=[curves.LZ, curves.LX], default=curves.LZ)
    p.add_argument("--sref", choices=[singular.PI_YZ, singular.PI_XY], default=singular.PI_YZ)
    p.add_argument("--alpha", type=float, default=1.0)
    p.add_argument("--lambda", dest="lam", type=float, default=0.0)
    _add_sweep_options(p, "--range", (-1.25, 1.25))
    p.add_argument("--n", type=_count(least=1), default=100)
    p.add_argument("--surface", dest="kind", choices=_SURFACES, default="revolution")
    p.add_argument("--grid", type=_parse_grid, default=singular.CHECK_GRID)
    return parser


def _cmd_catenary(args) -> int:
    family = curves.CatenaryFamily(
        reference=curves.LZ, alpha=args.alpha, c=args.c, d=args.d, lam=args.lam
    )
    ts = np.linspace(*args.trange, args.n)
    curves.write_curve_csv(args.out, ts, ts, curves.sample_columns(family, ts)[0])
    return 0


def _cmd_minimize(args) -> int:
    spec = variational.WeightFunctionalSpec(args.ref, args.alpha, args.lam)
    curve = variational.minimize(spec, args.endpoints, args.n)
    grad = variational.functional_gradient(spec, curve)
    summary = {  # both raise on a value that is not finite, before anything is written
        "functional_value": variational.evaluate_functional(spec, curve),
        "gradient_max_abs": float(np.max(np.abs(grad))),
        "n": args.n,
    }
    curves.write_curve_csv(args.out, curve.grid, curve.grid, curve.values)
    write_json(args.json_out or "-", summary)
    return 0


def _cmd_catenoid(args) -> int:
    boundary = singular.CatenoidBoundary(args.r1, args.z1, args.r2, args.z2)
    sol = singular.solve_catenoid_boundary(boundary)
    if args.mesh and sol.status == "unique":  # ProfileForm checks c and d: the JSON cannot fail
        form = curves.ProfileForm("log", {"c": sol.c, "d": sol.d})
        t_lo, t_hi = sorted((args.r1, args.r2))
        surf = surfaces.make_revolution(surfaces.RevolutionSpec(form.plane_curve(t_lo, t_hi)))
        surfaces.write_obj_mesh(args.mesh, surfaces.mesh_grid(surf, *args.grid))
    write_json("-", {"c": sol.c, "d": sol.d, "status": sol.status})
    return 0


def _make_surface(args):
    """The swept surface of args.profile over args.trange named by args.kind."""
    curve = args.profile.plane_curve(*args.trange)
    if args.kind == "parabolic":
        spec = surfaces.ParabolicRevolutionSpec(args.a, args.b, args.c, args.c1, args.c2, curve)
        return surfaces.make_parabolic_revolution(spec, *(args.thetarange or ()))
    spec = surfaces.HelicoidalSpec(curve, args.pitch if args.kind == "helicoidal" else 0.0)
    return surfaces.make_helicoidal(spec, *(args.thetarange or ()))


def _cmd_surface(args) -> int:
    mesh = surfaces.mesh_grid(_make_surface(args), *args.grid)
    finite_array(mesh.jet.r, "mesh vertex")  # the sidecar writer checks H: neither file on failure
    surfaces.write_vertex_curvature_csv(args.curvature_csv or args.mesh + ".curvature.csv", mesh)
    surfaces.write_obj_mesh(args.mesh, mesh)
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
        ts = np.linspace(*args.trange, args.n)
        worst = max(abs(variational.el_residual(spec, args.profile, float(t))) for t in ts)
    else:
        surf = _make_surface(args)
        spec = singular.SingularSpec(args.sref, args.alpha, args.lam)
        worst = singular.max_sms_residual(surf, spec, *surf.nodes(*args.grid))
    sys.stdout.write(f"{worst:.17g}\n")
    return 0 if worst < args.threshold else 1


def _join_values(argv) -> list:
    """``--opt VALUE`` -> ``--opt=VALUE`` up to a bare ``--``, so that a value
    starting with '-' (-5e-1, -0.8:0.8) is not read as a flag.  Every option
    but --help takes exactly one value."""
    out, it = [], iter(argv)
    for arg in it:
        if arg == "--":
            return out + [arg, *it]
        if arg.startswith("--") and "=" not in arg and not "--help".startswith(arg):
            value = next(it, None)
            arg = arg if value is None else f"{arg}={value}"
        out.append(arg)
    return out


def run(argv=None) -> int:
    parser = _build_parser()
    args = parser.parse_args(_join_values(sys.argv[1:] if argv is None else argv))
    if args.command == "surface" and args.mesh == "-" and args.curvature_csv is None:
        parser.error("surface --mesh - needs --curvature-csv")
    try:
        check_finite(**vars(args))
        return args.func(args)
    except (IsoKitError, ValueError, OSError) as exc:  # OSError: a destination not writable
        print(f"error: {exc}", file=sys.stderr)
        return 1


def main() -> None:
    sys.exit(run())


if __name__ == "__main__":
    main()
