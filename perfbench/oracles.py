"""Oracles: independent checks of every op's result.

The benchmark runs them outside the timed window.  Each check returns None
when the result is right and a one-line reason when it is not; an
``Expected`` reason marks a failure that is an already-recorded defect.
Closed forms and quadrature here are written with numpy from the formulas,
not by calling the code path under test.  The one exception is
``ivp_residual``, the package's documented accuracy measure of
``integrate``, used for the ODE kinds without a first integral.

Fixed tolerances sit at least ten times above the worst error seen on
thousands of seeded correct results; the area tolerance is Simpson's own
truncation error at the op's panel count.
"""

import functools
import json
import math
import re
from types import SimpleNamespace

import numpy as np


class Expected(str):
    """A failure that is an already-recorded defect of the package.

    The string is the failure itself; ``defect`` names the defect.  A check
    returns one only when the failure has that defect's signature, so any
    other failure of the same op stays unexpected.
    """

    def __new__(cls, failure: str, defect: str):
        self = super().__new__(cls, failure)
        self.defect = defect
        return self


MINIMIZE_STOP_DEFECT = (
    "minimize stops on max|gradient| < 1e-10 * n, a rule that loosens as n "
    "grows: at n = 20000 it can accept a profile about 1e-3 off the catenary"
)
# picard_solve_degenerate fits z - a with an absolute tolerance, so z''(0)
# loses relative accuracy as a shrinks; failures of the 1e-6 origin-curvature
# law were seen up to a = 1.5e-4 on a dense sweep and none above.
PICARD_DEFECT_BELOW = 1e-3
PICARD_DEFECT = (
    "picard_solve_degenerate loses z''(0) for small a "
    "(absolute tolerance on z; solve in scaled variables to fix)"
)
PARABOLIC_SINGULAR_DEFECT = (
    "integrate runs fixed-step RK4 toward the singular set 2z + b c2 t^2 = 0 "
    "of the parabolic ODE without detecting it, and loses accuracy or steps across"
)
# A parabolic trajectory "runs toward" the singular set when 2z + b c2 t^2
# falls below this share of its starting value (every passing trajectory of
# 2400 seeded draws stayed above 0.41 of it).
SINGULAR_APPROACH = 0.25
CLI_DASH_VALUE_DEFECT = (
    "the CLI reads a separate option value that starts with '-' and is not a "
    "plain decimal (-8.9e-05, -0.7:0.7) as a flag and exits 2"
)
# The option values argparse accepts after a separate flag when they start with '-'.
_PLAIN_NEGATIVE = re.compile(r"^-\d+$|^-\d*\.\d+$")

# The library's default area panel count (ISOKIT_PANELS unset).
DEFAULT_AREA_PANELS = 128
# max|z - closed form| <= LZ_PROFILE_TOL * (1 + max|z|) * (200/n)**2; the
# worst of 4600 draws at n = 200 and 2000 reached 4.8e-5 of the same scale.
LZ_PROFILE_TOL = 5e-4
# Slack on the minimizer's own stopping rule max|gradient| < 1e-10 * n,
# recomputed here in another summation order.
GRADIENT_CONTRACT = 1e-10
GRADIENT_SLACK = 1.5
# The README's origin-curvature tolerance for 4a z''(0) = 1.
ORIGIN_CURVATURE_TOL = 1e-6
FIRST_INTEGRAL_TOL = 1e-9
IVP_RESIDUAL_TOL = 1e-6
# Closed-form values written with 17 significant digits.
CLOSED_FORM_RTOL = 1e-12
MEAN_CURVATURE_TOL = 1e-7
# Classification reports verify their profile on a 50 x 16 grid.
SMS_RESIDUAL_TOL = 1e-8

GAUSS_NODES = 200
GAUSS_THETA_NODES = 8


@functools.cache
def _legendre(nodes: int):
    # Built on first use, so that importing this module adds nothing to setup_s.
    return np.polynomial.legendre.leggauss(nodes)


def _gauss(lo, hi, nodes=GAUSS_NODES):
    x, w = _legendre(nodes)
    half = 0.5 * (hi - lo)
    return lo + half * (x + 1.0), half * w


# ---------------------------------------------------------------------------
# Profiles


def profile_jet(kind: str, co: dict, t):
    """(z, z', z'') of a closed-form profile on an array of t."""
    t = np.asarray(t, dtype=float)
    if kind == "log":  # c*ln(t - lam) + d
        c, d, s = co["c"], co["d"], t - co.get("lam", 0.0)
        return c * np.log(s) + d, c / s, -c / s**2
    if kind == "power":  # c*t**p + d
        c, p, d = co["c"], co["p"], co["d"]
        return c * t**p + d, c * p * t ** (p - 1.0), c * p * (p - 1.0) * t ** (p - 2.0)
    if kind == "inverse_radius":  # z1 + z2/t
        z1, z2 = co["z1"], co["z2"]
        return z1 + z2 / t, -z2 / t**2, 2.0 * z2 / t**3
    if kind == "log_parabola":  # quad*t**2 + z2*ln(t) + z1
        q, z1, z2 = co["quad"], co["z1"], co["z2"]
        return q * t**2 + z2 * np.log(t) + z1, 2.0 * q * t + z2 / t, 2.0 * q - z2 / t**2
    if kind == "poly":  # sum a_k t**k
        coef = np.asarray(co["a"], dtype=float)
        P = np.polynomial.Polynomial(coef)
        return P(t), P.deriv(1)(t), P.deriv(2)(t)
    raise ValueError(f"unknown profile kind {kind!r}")


def catenary_through(alpha: float, lam: float, endpoints):
    """(kind, coefficients) of the isotropic-axis critical profile through both ends.

    alpha = 1 gives c*ln(t - lam) + d, otherwise c*t**(1 - alpha) + d.
    """
    t_a, z_a, t_b, z_b = endpoints
    if alpha == 1.0:
        c = (z_b - z_a) / math.log((t_b - lam) / (t_a - lam))
        return "log", {"c": c, "d": z_a - c * math.log(t_a - lam), "lam": lam}
    p = 1.0 - alpha
    c = (z_b - z_a) / (t_b**p - t_a**p)
    return "power", {"c": c, "p": p, "d": z_a - c * t_a**p}


# ---------------------------------------------------------------------------
# surface_area


def _area_integrand(surface: dict, kind: str, co: dict, t, theta):
    """Closed-form det(r_u, r_v, n_par) on a (t, theta) grid.

    Revolution: t(1 + z'^2)/2.  Helicoidal: (t^2 + t^2 z'^2 + pitch^2)/(2t).
    Parabolic revolution: (b^2 g^2 + (a g - (c + k theta + c1 t))^2 + b^2)/(2b)
    with g = c1 theta + z'(t) and k = a c1 + b c2.
    """
    _, zd, _ = profile_jet(kind, co, t)
    T, TH = np.meshgrid(t, theta, indexing="ij")
    ZD = np.broadcast_to(zd[:, None], T.shape)
    if surface["kind"] == "revolution":
        return 0.5 * T * (1.0 + ZD**2)
    if surface["kind"] == "helicoidal":
        return 0.5 * (T**2 + T**2 * ZD**2 + surface["pitch"] ** 2) / T
    a, b, c, c1, c2 = (surface[k] for k in ("a", "b", "c", "c1", "c2"))
    G = c1 * TH + ZD
    return 0.5 * (b**2 * G**2 + (a * G - (c + (a * c1 + b * c2) * TH + c1 * T)) ** 2 + b**2) / b


def _simpson_weights(lo: float, hi: float, panels: int):
    n = panels + panels % 2
    w = np.full(n + 1, 2.0)
    w[1::2] = 4.0
    w[0] = w[-1] = 1.0
    return np.linspace(lo, hi, n + 1), w * (hi - lo) / (3.0 * n)


def area_reference(surface: dict, kind: str, co: dict, t_lo: float, t_hi: float, panels):
    """(exact area, truncation error of composite Simpson at this panel count).

    The exact value comes from a 200 x 8 Gauss-Legendre rule on the closed-form
    integrand (the integrand is at most quadratic in theta); the truncation
    error from numpy's own tensor Simpson on the same integrand.
    """
    th_lo, th_hi = surface["theta"]
    t, wt = _gauss(t_lo, t_hi)
    th, wth = _gauss(th_lo, th_hi, GAUSS_THETA_NODES)
    exact = float(wt @ _area_integrand(surface, kind, co, t, th) @ wth)
    n = DEFAULT_AREA_PANELS if panels is None else panels
    t, wt = _simpson_weights(t_lo, t_hi, n)
    th, wth = _simpson_weights(th_lo, th_hi, n)
    simpson = float(wt @ _area_integrand(surface, kind, co, t, th) @ wth)
    return exact, abs(simpson - exact)


def check_area(reference, area) -> str | None:
    """The area must match the closed form up to Simpson's own truncation error."""
    exact, truncation = reference
    if not isinstance(area, float) or not math.isfinite(area):
        return f"area {area!r} is not a finite float"
    err = abs(area - exact)
    tol = 2.0 * truncation + 1e-10 * abs(exact)
    if err > tol:
        return f"|area - closed form| = {err:.3e} > {tol:.3e} (Simpson truncation {truncation:.1e})"
    return None


# ---------------------------------------------------------------------------
# profile_solvers


def _grid_error(curve, endpoints, n) -> str | None:
    t_a, z_a, t_b, z_b = endpoints
    t, z = np.asarray(curve.grid), np.asarray(curve.values)
    if t.shape != (n + 1,) or z.shape != (n + 1,):
        return f"expected {n + 1} nodes, got {t.shape} / {z.shape}"
    if np.max(np.abs(t - np.linspace(t_a, t_b, n + 1))) > 1e-12 * max(1.0, abs(t_b)):
        return "grid is not the uniform grid on [t_a, t_b]"
    if z[0] != z_a or z[-1] != z_b:
        return f"endpoints moved: z = ({z[0]!r}, {z[-1]!r}), want ({z_a!r}, {z_b!r})"
    if not np.all(np.isfinite(z)):
        return "non-finite profile value"
    return None


def discrete_gradient(reference, alpha, lam, t, z) -> np.ndarray:
    """Interior gradient of sum_i h_i (w_i + w_{i+1})/2 (1 + zdot_i^2)/2.

    The weight is w = t^alpha - lam against the isotropic axis ("lz") and
    w = z^alpha - lam against the non-isotropic one ("lx").
    """
    h = t[1:] - t[:-1]
    zdot = (z[1:] - z[:-1]) / h
    base = t if reference == "lz" else z
    w = base**alpha - lam
    cell = 0.5 * (w[1:] + w[:-1])
    grad = cell[:-1] * zdot[:-1] - cell[1:] * zdot[1:]
    if reference == "lx":
        q = 0.5 * (1.0 + zdot**2)
        grad += 0.5 * alpha * z[1:-1] ** (alpha - 1.0) * (h[:-1] * q[:-1] + h[1:] * q[1:])
    return grad


def _gradient_error(reference, alpha, lam, n, curve) -> str | None:
    """The minimizer's contract: max|gradient| < 1e-10 * n at the returned profile."""
    g = discrete_gradient(reference, alpha, lam, np.asarray(curve.grid), np.asarray(curve.values))
    gn = float(np.max(np.abs(g)))
    tol = GRADIENT_SLACK * GRADIENT_CONTRACT * n
    if not gn < tol:
        return f"max |gradient| = {gn:.3e} >= {tol:.3e}"
    return None


def check_lz_profile(alpha, lam, endpoints, n, curve) -> str | None:
    """The discrete minimizer tracks the closed-form catenary to O(h^2).

    A profile off the catenary that still meets the stopping rule is the
    recorded stopping-rule defect, not a new failure.
    """
    bad = _grid_error(curve, endpoints, n)
    if bad:
        return bad
    kind, co = catenary_through(alpha, lam, endpoints)
    exact, _, _ = profile_jet(kind, co, curve.grid)
    err = float(np.max(np.abs(curve.values - exact)))
    tol = LZ_PROFILE_TOL * (1.0 + float(np.max(np.abs(exact)))) * (200.0 / n) ** 2
    if err > tol:
        msg = f"max |z - {kind} catenary| = {err:.3e} > {tol:.3e}"
        return _gradient_error("lz", alpha, lam, n, curve) or Expected(msg, MINIMIZE_STOP_DEFECT)
    return None


def check_lx_profile(alpha, lam, endpoints, n, curve) -> str | None:
    return _grid_error(curve, endpoints, n) or _gradient_error("lx", alpha, lam, n, curve)


def check_picard(a, result) -> str | None:
    """z(0) = a and the origin-curvature law; only a failure of the law below
    PICARD_DEFECT_BELOW is the recorded defect."""
    zpp = result.zpp_origin
    if zpp is None or not math.isfinite(zpp):
        return f"z''(0) = {zpp!r}"
    if abs(result.z[0] - a) > 1e-12 * a:
        return f"z(0) = {result.z[0]!r}, want {a!r}"
    err = abs(4.0 * a * zpp - 1.0)
    if not err <= ORIGIN_CURVATURE_TOL:
        msg = f"|4a z''(0) - 1| = {err:.3e} > {ORIGIN_CURVATURE_TOL:.0e}"
        return Expected(msg, PICARD_DEFECT) if a < PICARD_DEFECT_BELOW else msg
    return None


def check_trajectory(t0, t1, steps, result) -> str | None:
    t, z, zp = result.t, result.z, result.zp
    if t.shape != (steps + 1,) or z.shape != t.shape or zp.shape != t.shape:
        return f"expected {steps + 1} samples"
    if t[0] != t0 or abs(t[-1] - t1) > 1e-9 * max(1.0, abs(t1)):
        return f"grid runs {t[0]!r}..{t[-1]!r}, want {t0!r}..{t1!r}"
    if not (np.all(np.isfinite(z)) and np.all(np.isfinite(zp))):
        return "non-finite state"
    return None


def check_first_integral(t0, z0, zp0, t1, steps, result) -> str | None:
    """alpha = 1, lam = 0 non-isotropic catenary: z'^2 = 1 - C/z, C = z0 (1 - z0'^2)."""
    bad = check_trajectory(t0, t1, steps, result)
    if bad:
        return bad
    c = z0 * (1.0 - zp0**2)
    err = float(np.max(np.abs(result.zp**2 - (1.0 - c / result.z))))
    if err > FIRST_INTEGRAL_TOL:
        return f"first integral drifts by {err:.3e} > {FIRST_INTEGRAL_TOL:.0e}"
    return None


def check_ivp_residual(t0, t1, steps, ode, result, ivp_residual) -> str | None:
    bad = check_trajectory(t0, t1, steps, result)
    if bad:
        return bad
    res = ivp_residual(result, ode)
    if not res <= IVP_RESIDUAL_TOL:
        return f"ivp_residual {res:.3e} > {IVP_RESIDUAL_TOL:.0e}"
    return None


def check_parabolic(t0, t1, steps, ode, b, c2, result, ivp_residual) -> str | None:
    """ivp_residual, plus the singular set 2z + b c2 t^2 = 0 of the parabolic
    ODE: a residual failure on a trajectory that runs toward it, or a
    trajectory that crosses it, is the recorded defect."""
    bad = check_trajectory(t0, t1, steps, result)
    if bad:
        return bad
    g = 2.0 * result.z + b * c2 * result.t**2
    if np.any(g <= 0.0):
        return Expected(f"crossed the singular set near t = {result.t[np.argmax(g <= 0.0)]!r}",
                        PARABOLIC_SINGULAR_DEFECT)
    bad = check_ivp_residual(t0, t1, steps, ode, result, ivp_residual)
    if bad and float(np.min(g)) < SINGULAR_APPROACH * g[0]:
        return Expected(f"{bad}; 2z + b c2 t^2 fell from {g[0]:.3g} to {np.min(g):.3g}",
                        PARABOLIC_SINGULAR_DEFECT)
    return bad


# ---------------------------------------------------------------------------
# cli_session


def _csv(text: str, header: str, rows: int) -> np.ndarray | str:
    lines = text.splitlines()
    if not lines or lines[0] != header:
        return f"CSV header {lines[0] if lines else ''!r}, want {header!r}"
    if len(lines) != rows + 1:
        return f"CSV has {len(lines) - 1} rows, want {rows}"
    return np.array([[float(v) for v in line.split(",")] for line in lines[1:]])


def _close(got, want, rtol=CLOSED_FORM_RTOL) -> bool:
    got, want = np.asarray(got, dtype=float), np.asarray(want, dtype=float)
    return bool(np.all(np.abs(got - want) <= rtol * np.maximum(1.0, np.abs(want))))


def expect_code(out, code: int) -> str | None:
    if out.code != code:
        return f"exit code {out.code}, want {code}"
    return None


def check_cli(argv, out, check) -> str | None:
    """``check(out)``; a failed command whose argv holds a separate value the
    parser misreads as a flag is the recorded CLI defect."""
    failure = check(out)
    if not failure or isinstance(failure, Expected):
        return failure
    if out.code == 2 and "expected one argument" in out.stderr:
        misread = [value for flag, value in zip(argv, argv[1:])
                   if flag.startswith("--") and "=" not in flag
                   and value.startswith("-") and not _PLAIN_NEGATIVE.match(value)]
        if misread:
            return Expected(f"{failure}: {misread[0]!r} read as a flag", CLI_DASH_VALUE_DEFECT)
    return failure


def check_catenary_csv(out, kind, co, t_lo, t_hi, n) -> str | None:
    bad = expect_code(out, 0)
    if bad:
        return bad
    data = _csv(out.files[0], "t,x,z", n)
    if isinstance(data, str):
        return data
    t = np.linspace(t_lo, t_hi, n)
    z, _, _ = profile_jet(kind, co, t)
    if not (_close(data[:, 0], t) and _close(data[:, 1], t) and _close(data[:, 2], z)):
        return "catenary samples differ from the closed form"
    return None


def check_minimize_files(out, alpha, lam, endpoints, n) -> str | None:
    bad = expect_code(out, 0)
    if bad:
        return bad
    data = _csv(out.files[0], "t,x,z", n + 1)
    if isinstance(data, str):
        return data
    bad = check_lz_profile(alpha, lam, endpoints, n, SimpleNamespace(grid=data[:, 0], values=data[:, 2]))
    if bad:
        return bad
    summary = json.loads(out.files[1])
    if sorted(summary) != ["functional_value", "gradient_max_abs", "n"] or summary["n"] != n:
        return f"summary keys {sorted(summary)}"
    if not summary["gradient_max_abs"] < GRADIENT_CONTRACT * n:
        return f"reported gradient {summary['gradient_max_abs']:.3e} breaks the contract"
    return None


def _obj(text: str):
    lines = text.splitlines()
    verts = np.array([[float(v) for v in ln.split()[1:]] for ln in lines if ln.startswith("v ")])
    faces = np.array([[int(v) for v in ln.split()[1:]] for ln in lines if ln.startswith("f ")])
    return verts.reshape(-1, 3), faces.reshape(-1, 4)


def check_mesh(obj_text, nu, nv, wrap, u_range, v_range, position) -> str | None:
    """Seam-aware counts, face indices in range, and every vertex on the surface.

    ``position(U, V)`` gives the closed-form (x, y, z) on parameter grids.
    """
    verts, faces = _obj(obj_text)
    ncols = nv if wrap else nv + 1
    if verts.shape[0] != (nu + 1) * ncols:
        return f"{verts.shape[0]} vertices, want {(nu + 1) * ncols}"
    if faces.shape[0] != nu * nv:
        return f"{faces.shape[0]} faces, want {nu * nv}"
    if faces.min() < 1 or faces.max() > verts.shape[0]:
        return "face index out of range"
    us = np.linspace(*u_range, nu + 1)
    vs = np.linspace(*v_range, nv + 1)[:ncols]
    U, V = np.meshgrid(us, vs, indexing="ij")
    want = np.stack([c.ravel() for c in position(U, V)], axis=1)
    if not np.all(np.abs(verts - want) <= 1e-9 * np.maximum(1.0, np.abs(want))):
        return "mesh vertex off the closed-form surface"
    return None


def check_catenoid(out, r1, z1, r2, z2, nu, nv) -> str | None:
    bad = expect_code(out, 0)
    if bad:
        return bad
    got = json.loads(out.stdout)
    c = (z2 - z1) / math.log(r2 / r1)
    d = z1 - c * math.log(r1)
    if got.get("status") != "unique" or not _close([got["c"], got["d"]], [c, d]):
        return f"catenoid {got}, want unique c={c!r} d={d!r}"
    t_lo, t_hi = sorted((r1, r2))

    def position(U, V):
        return U * np.cos(V), U * np.sin(V), c * np.log(U) + d

    return check_mesh(out.files[0], nu, nv, True, (t_lo, t_hi), (0.0, 2.0 * math.pi), position)


def surface_position(surface: dict, kind: str, co: dict):
    def position(U, V):
        z, _, _ = profile_jet(kind, co, U)
        if surface["kind"] == "revolution":
            return U * np.cos(V), U * np.sin(V), z
        if surface["kind"] == "helicoidal":
            return U * np.cos(V), U * np.sin(V), surface["pitch"] * V + z
        a, b, c, c1, c2 = (surface[k] for k in ("a", "b", "c", "c1", "c2"))
        k = a * c1 + b * c2
        return a * V + U, b * V, c * V + 0.5 * k * V**2 + c1 * U * V + z

    return position


def mean_curvature_closed_form(surface: dict, kind: str, co: dict, t):
    """(z' + t z'')/(2t) for revolution and helicoidal surfaces (the pitch drops
    out); (a^2 + b^2) z''/(2b^2) + (b c2 - a c1)/(2b^2) for parabolic revolution."""
    _, zd, zdd = profile_jet(kind, co, t)
    if surface["kind"] in ("revolution", "helicoidal"):
        return (zd + t * zdd) / (2.0 * t)
    a, b, c1, c2 = (surface[k] for k in ("a", "b", "c1", "c2"))
    return (a**2 + b**2) / (2.0 * b**2) * zdd + (b * c2 - a * c1) / (2.0 * b**2)


def check_surface_files(out, surface, kind, co, t_range, nu, nv) -> str | None:
    bad = expect_code(out, 0)
    if bad:
        return bad
    th = surface["theta"]
    wrap = abs((th[1] - th[0]) - 2.0 * math.pi) < 1e-9
    bad = check_mesh(out.files[0], nu, nv, wrap, t_range, th, surface_position(surface, kind, co))
    if bad:
        return bad
    rows = (nu + 1) * (nv if wrap else nv + 1)
    data = _csv(out.files[1], "u,v,H", rows)
    if isinstance(data, str):
        return data
    h = mean_curvature_closed_form(surface, kind, co, data[:, 0])
    err = float(np.max(np.abs(data[:, 2] - h) / np.maximum(1.0, np.abs(h))))
    if err > MEAN_CURVATURE_TOL:
        return f"vertex mean curvature off the closed form by {err:.3e}"
    return None


def check_classify(out, case: str, verified: bool) -> str | None:
    bad = expect_code(out, 0)
    if bad:
        return bad
    report = json.loads(out.stdout)
    if report.get("case") != case:
        return f"case {report.get('case')!r}, want {case!r}"
    if verified:
        res = {c["name"]: c["residual"] for c in report["constraints"]}
        if not res.get("sms_residual_max_abs", math.inf) < SMS_RESIDUAL_TOL:
            return f"hanging-surface residual {res.get('sms_residual_max_abs')!r}"
    return None


def check_ivp_files(out, a, nodes=513) -> str | None:
    bad = expect_code(out, 0)
    if bad:
        return bad
    data = _csv(out.files[0], "t,z,zp", nodes)
    if isinstance(data, str):
        return data
    side = json.loads(out.files[1])
    return check_picard(a, SimpleNamespace(z=data[:, 1], zpp_origin=side.get("zpp_origin")))


def check_residual(out, threshold: float, below: bool) -> str | None:
    bad = expect_code(out, 0 if below else 1)
    if bad:
        return bad
    value = float(out.stdout)
    if (value < threshold) != below:
        return f"residual {value!r} on the wrong side of {threshold!r}"
    return None


def check_error_exit(out, code: int) -> str | None:
    bad = expect_code(out, code)
    if bad:
        return bad
    if "Traceback" in out.stderr or not out.stderr.strip():
        return f"stderr {out.stderr[-80:]!r}"
    return None
