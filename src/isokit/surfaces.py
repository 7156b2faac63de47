"""Admissible parametric surfaces in the isotropic space.

A surface is admissible when the top-view Jacobian X12 of its tangent plane
never vanishes; one with X12 < 0 is traversed backwards in v.  With
X23, X31, X12 the pairwise minors of the top-view derivative matrix, the
minimal normal is (X23/X12, X31/X12, 1) and the parabolic (relative) normal
replaces the third component with 1/2 - (X23^2 + X31^2)/(2*X12^2).  First
fundamental form coefficients use the degenerate metric, the second are
triple products (X23, X31, X12) . r_ij / X12, and the relative area integrates
det(r_u, r_v, n_par).

``ParamSurface.grid`` calls a surface's evaluator ``evaluate(us, vs)`` once per
grid with a (nu, 1) column us and a row vs; the jet's entries broadcast to (nu, nv),
so a swept surface calls its profile once per u-node.  The ``jet_*`` functions
(minors, forms, H, parabolic normal) work on a jet of any shape; per-point
functions are one-node grids.
"""

import itertools
import math
from dataclasses import dataclass, field
from typing import NamedTuple

import numpy as np

from .core import IsoVec3, check_finite, finite_array, write_csv, write_text
from .curves import GraphCurve, check_admissible, check_domain, check_orientation, sample_columns
from .errors import DomainError, NoConvergenceError
from .quadrature import gauss_2d, simpson_2d

CHECK_SAMPLES = 9  # per side of the orientation check grid
AREA_GAUSS_NODES = (16, 32, 64, 128)  # nodes per axis of the default area's Gauss rules
AREA_RTOL = 1e-10  # a rule's A_n stands once its estimate |A_n - A_n/2| <= AREA_RTOL |A_n|
TWO_PI = 2.0 * math.pi


class SurfaceJet(NamedTuple):
    """Position and partials; each field has shape (..., 3)."""

    r: np.ndarray
    ru: np.ndarray
    rv: np.ndarray
    ruu: np.ndarray
    ruv: np.ndarray
    rvv: np.ndarray


class ParamSurface:
    """Surface from an evaluator ``evaluate(us, vs)`` over a rectangle.

    ``evaluate`` gets a (nu, 1) column of u-nodes and a row of nv v-nodes and
    returns (r, r_u, r_v, r_uu, r_uv, r_vv), each component a float or an
    array that broadcasts to (nu, nv).  The top-view Jacobian X12 is checked
    on a 9 x 9 grid; where it is negative everywhere, v runs backwards, as
    ``PlaneCurve`` reverses t: a node (u, v) is the evaluator's
    (u, v_lo + v_hi - v), and the bounds stay.
    """

    def __init__(self, u_lo, u_hi, v_lo, v_hi, evaluate):
        if not (u_lo < u_hi and v_lo < v_hi):
            raise ValueError("empty parameter rectangle")
        self.u_lo, self.u_hi = float(u_lo), float(u_hi)
        self.v_lo, self.v_hi = float(v_lo), float(v_hi)
        self._evaluate, self._reversed = evaluate, False
        with np.errstate(all="ignore"):  # a jet that overflows fails where it is used, not here
            x12s = jet_minors(self.grid(*self.nodes(CHECK_SAMPLES, CHECK_SAMPLES)))[2]
        self._reversed = check_orientation(x12s, "top-view Jacobian")  # v -> v_lo + v_hi - v

    @classmethod
    def graph(cls, u_lo, u_hi, v_lo, v_hi, f, fu, fv, fuu, fuv, fvv) -> "ParamSurface":
        """Surface (u, v, f(u, v)) from a height function and its partials."""

        def height(u, v):
            return f(u, v), fu(u, v), fv(u, v), fuu(u, v), fuv(u, v), fvv(u, v)

        def evaluate(us, vs):
            z, zu, zv, zuu, zuv, zvv = sample_columns(height, *np.broadcast_arrays(us, vs))
            return ((us, vs, z), (1.0, 0.0, zu), (0.0, 1.0, zv),
                    (0.0, 0.0, zuu), (0.0, 0.0, zuv), (0.0, 0.0, zvv))

        return cls(u_lo, u_hi, v_lo, v_hi, evaluate)

    def nodes(self, nu: int, nv: int):
        """The u-row of nu and the v-row of nv nodes spanning the rectangle, ends included."""
        return np.linspace(self.u_lo, self.u_hi, nu), np.linspace(self.v_lo, self.v_hi, nv)

    def grid(self, us, vs) -> SurfaceJet:
        """Jets at the nodes us x vs, fields of shape (len(us), len(vs), 3).

        One evaluator call per grid, at v_lo + v_hi - v on a reversed surface;
        a node outside the rectangle (or NaN) raises DomainError."""
        us, vs = np.asarray(us, dtype=float), np.asarray(vs, dtype=float)
        check_domain(us, self.u_lo, self.u_hi)
        check_domain(vs, self.v_lo, self.v_hi)
        nodes = self.v_lo + self.v_hi - vs if self._reversed else vs
        out = np.empty((6, 3, us.size, vs.size))
        for i, vec in enumerate(self._evaluate(us[:, None], nodes)):
            out[i, 0], out[i, 1], out[i, 2] = vec  # indexed stores: no view per component
        if self._reversed:  # one d/dv each: r_v and r_uv change sign, r_vv does not
            out[[2, 4]] *= -1.0
        return SurfaceJet(*out.transpose(0, 2, 3, 1))  # the view np.moveaxis builds, cheaper

    def at(self, u: float, v: float) -> SurfaceJet:
        """Jet at one point: the one-node grid, fields of shape (3,)."""
        return SurfaceJet(*(f[0, 0] for f in self.grid([u], [v])))


def jet_minors(jet: SurfaceJet):
    """(X23, X31, X12) = r_u x r_v; NonAdmissibleError where |X12| < 1e-9."""
    ru, rv = jet.ru, jet.rv
    pairs = ((1, 2), (2, 0), (0, 1))
    x23, x31, x12 = (ru[..., i] * rv[..., j] - ru[..., j] * rv[..., i] for i, j in pairs)
    check_admissible(x12, "top-view Jacobian")
    return x23, x31, x12


def jet_forms(jet: SurfaceJet):
    """(g11, g12, g22, h11, h12, h22); h_ij = (X23, X31, X12).r_ij / X12, X12 = sqrt(det g)."""
    ru, rv, (x23, x31, x12) = jet.ru, jet.rv, jet_minors(jet)
    g = [a[..., 0] * b[..., 0] + a[..., 1] * b[..., 1] for a, b in ((ru, ru), (ru, rv), (rv, rv))]
    h = [(w[..., 0] * x23 + w[..., 1] * x31 + w[..., 2] * x12) / x12 for w in jet[3:]]  # r_ij
    return (*g, *h)


def jet_mean_curvature(jet: SurfaceJet):
    g11, g12, g22, h11, h12, h22 = jet_forms(jet)
    return 0.5 * (g11 * h22 - 2.0 * g12 * h12 + g22 * h11) / (
        g11 * g22 - np.float_power(g12, 2)
    )


def jet_parabolic_normal(jet: SurfaceJet):
    """Components (X23/X12, X31/X12, 1/2 - (p^2 + q^2)/2) of the parabolic normal."""
    x23, x31, x12 = jet_minors(jet)
    p, q = x23 / x12, x31 / x12
    return p, q, 0.5 - 0.5 * (p * p + q * q)


@np.errstate(all="ignore")  # a value that overflows is the DomainError below, not a warning
def point_values(name: str, quantity, surface: ParamSurface, u: float, v: float) -> list:
    """The floats quantity(surface.at(u, v)); DomainError naming name and (u, v) unless finite."""
    values = np.atleast_1d(quantity(surface.at(u, v)))
    if not np.isfinite(values).all():
        raise DomainError(f"{name} at (u, v) = ({u}, {v}) is not finite")
    return values.tolist()


def fundamental_forms(surface: ParamSurface, u: float, v: float):
    """(g11, g12, g22, h11, h12, h22) at the point."""
    return tuple(point_values("fundamental form", jet_forms, surface, u, v))


def mean_curvature(surface: ParamSurface, u: float, v: float) -> float:
    return point_values("mean curvature", jet_mean_curvature, surface, u, v)[0]


def surface_minimal_normal(surface: ParamSurface, u: float, v: float) -> IsoVec3:
    p, q = point_values("minimal normal", lambda jet: jet_parabolic_normal(jet)[:2], surface, u, v)
    return IsoVec3(p, q, 1.0)


def surface_parabolic_normal(surface: ParamSurface, u: float, v: float) -> IsoVec3:
    return IsoVec3(*point_values("parabolic normal", jet_parabolic_normal, surface, u, v))


def _integrand(jet: SurfaceJet):
    """det(r_u, r_v, n_par) = (X23^2 + X31^2 + X12^2)/(2 X12) at every node of the jet."""
    minors = jet_minors(jet)
    sq = np.float_power(minors, 2)  # pow like scalar **, unlike array **
    return 0.5 * (sq[0] + sq[1] + sq[2]) / minors[2]


def _finite_area(area: float) -> float:
    if not math.isfinite(area):
        raise DomainError(f"relative area is not finite: {area}")
    return area


def _gauss_area(surface: ParamSurface, box) -> tuple[float, float]:
    """(A_n, estimate |A_n - A_n/2|) at the first n in AREA_GAUSS_NODES whose estimate is at
    most AREA_RTOL |A_n|, one grid call per rule; NoConvergenceError past the last n."""

    def integrand(us, vs):
        return _integrand(surface.grid(us, vs))

    areas = (_finite_area(gauss_2d(integrand, *box, n)) for n in AREA_GAUSS_NODES)
    for coarse, area in itertools.pairwise(areas):  # lazy: a rule runs only when needed
        estimate = abs(area - coarse)
        if estimate <= AREA_RTOL * abs(area):
            return area, estimate
    raise NoConvergenceError(
        f"relative area did not converge: Gauss-Legendre error estimate {estimate:.3e} > "
        f"{AREA_RTOL:g} x |area| at the {AREA_GAUSS_NODES[-1]}^2 cap (area {area!r})"
    )


@np.errstate(all="ignore")  # once per call, not per row: an area that overflows is named below
def relative_area(
    surface: ParamSurface,
    subrectangle: tuple[float, float, float, float] | None = None,
    panels_u: int | None = None,
    panels_v: int | None = None,
) -> float:
    """Integral of det(r_u, r_v, n_par) over the (sub)rectangle; DomainError unless finite.

    With no panel count it is Gauss-Legendre, the 32^2-node value once it agrees with the
    16^2 one to AREA_RTOL (else 64^2, 128^2, then NoConvergenceError naming the estimate);
    a panel count on either axis selects composite Simpson, one grid call per u-node."""
    box = subrectangle or (surface.u_lo, surface.u_hi, surface.v_lo, surface.v_hi)
    if panels_u is None and panels_v is None:
        return _gauss_area(surface, box)[0]

    def row(u, vs):
        return _integrand(surface.grid([u], vs))[0]

    return _finite_area(simpson_2d(row, *box, panels_u, panels_v))


@dataclass(frozen=True)
class HelicoidalSpec:
    """Profile swept by rotations composed with a vertical shift of rate pitch."""

    profile: GraphCurve
    pitch: float = 0.0

    def __post_init__(self):
        where = "helicoidal" if self.pitch else "revolution"
        if not isinstance(self.profile, GraphCurve):
            raise ValueError(f"{where} profile must be a graph curve (x(t) = t)")
        if self.profile.t_lo <= 0.0:
            raise ValueError(f"{where} profile needs t_lo > 0")


@dataclass(frozen=True)
class RevolutionSpec(HelicoidalSpec):
    """Profile (t, z(t)), t > 0, swept by rotations about the isotropic axis: pitch 0."""

    pitch: float = field(default=0.0, init=False)


@dataclass(frozen=True)
class ParabolicRevolutionSpec:
    """Profile swept by the parabolic-rotation group with parameters (a, b, c, c1, c2)."""

    a: float
    b: float
    c: float
    c1: float
    c2: float
    profile: GraphCurve

    def __post_init__(self):
        check_finite(a=self.a, b=self.b, c=self.c, c1=self.c1, c2=self.c2)
        if self.b == 0.0:
            raise ValueError("parabolic revolution needs b != 0")
        if not isinstance(self.profile, GraphCurve):
            raise ValueError("parabolic revolution profile must be a graph curve (x(t) = t)")

    @property
    def is_warped_translation(self) -> bool:
        return self.a * self.c1 + self.b * self.c2 == 0.0


def make_helicoidal(
    spec: HelicoidalSpec, theta_lo: float = 0.0, theta_hi: float = TWO_PI
) -> ParamSurface:
    """(t cos v, t sin v, pitch*v + z(t)); at pitch 0 the surface of revolution.

    A pitch*v that is not finite at either end of [theta_lo, theta_hi] is a DomainError."""
    curve, c = spec.profile, float(spec.pitch)
    if not all(math.isfinite(c * float(th)) for th in (theta_lo, theta_hi)):
        raise DomainError(f"pitch {c} times theta is not finite on [{theta_lo}, {theta_hi}]")

    def evaluate(ts, ths):
        nodes = ths.tolist()  # libm over Python floats: np.cos may differ in the last bit
        ct = np.fromiter(map(math.cos, nodes), float, ths.size)
        st = np.fromiter(map(math.sin, nodes), float, ths.size)
        z, zd, zdd = sample_columns(curve.profile, ts)
        tc, nts = ts * ct, -ts * st
        return ((tc, ts * st, c * ths + z), (ct, st, zd), (nts, tc, c),
                (0.0, 0.0, zdd), (-st, ct, 0.0), (-ts * ct, nts, 0.0))

    return ParamSurface(curve.t_lo, curve.t_hi, theta_lo, theta_hi, evaluate)


make_revolution = make_helicoidal


def make_parabolic_revolution(
    spec: ParabolicRevolutionSpec, theta_lo: float = -1.0, theta_hi: float = 1.0
) -> ParamSurface:
    """(a v + t, b v, c v + (a c1 + b c2) v^2/2 + c1 t v + z(t))."""
    curve = spec.profile
    a, b, c, c1 = spec.a, spec.b, spec.c, spec.c1
    k = spec.a * spec.c1 + spec.b * spec.c2

    def evaluate(ts, ths):
        th2 = np.float_power(ths, 2)  # pow like scalar **, unlike array **
        z, zd, zdd = sample_columns(curve.profile, ts)
        return (
            (a * ths + ts, b * ths, c * ths + 0.5 * k * th2 + c1 * ts * ths + z),
            (1.0, 0.0, c1 * ths + zd), (a, b, c + k * ths + c1 * ts),
            (0.0, 0.0, zdd), (0.0, 0.0, c1), (0.0, 0.0, k),
        )

    return ParamSurface(curve.t_lo, curve.t_hi, theta_lo, theta_hi, evaluate)


def revolution_mean_curvature(profile, t: float) -> float:
    """Closed form (z' + t z'')/(2 t) for surfaces of revolution."""
    if t <= 0.0:
        raise DomainError("revolution mean curvature needs t > 0")
    _, zd, zdd = profile(t)
    return (zd + t * zdd) / (2.0 * t)


def parabolic_revolution_mean_curvature(spec: ParabolicRevolutionSpec, t: float) -> float:
    """Closed form (a^2 + b^2)/(2 b^2) z'' + (b c2 - a c1)/(2 b^2)."""
    _, _, zdd = spec.profile(t)
    a, b, den = spec.a, spec.b, 2.0 * spec.b**2
    return (a**2 + b**2) / den * zdd + (b * spec.c2 - a * spec.c1) / den


def parabolic_revolution_F(spec: ParabolicRevolutionSpec, t: float) -> float:
    """Slope aggregate F(t) of the parabolic-revolution family.

    The family's parabolic normal has vertical component (1 - F)/2.  With the
    group parameter switched off (c = c1 = c2 = 0) this is exactly the squared
    top-view norm of the normal.
    """
    _, zd, _ = spec.profile(t)
    a, b, c, c1, c2 = spec.a, spec.b, spec.c, spec.c1, spec.c2
    lin = c + c1 * t
    return (
        lin**2 / b**2
        - 2.0 * a * lin * zd / b**2
        + (a**2 + b**2) * zd**2 / b**2
        - (2.0 * t / b) * ((a * c2 - b * c1) * zd - c2 * lin)
        + t**2 * (c1**2 + c2**2)
    )


class Mesh(NamedTuple):
    """Row-major (N, 2) parameters, the jet at those nodes and (nu*nv, 4) 1-based quad faces."""

    params: np.ndarray
    jet: SurfaceJet
    faces: np.ndarray


def mesh_grid(surface: ParamSurface, nu: int, nv: int) -> Mesh:
    """The nu x nv quad mesh, gridded once; its vertices are ``jet.r.reshape(-1, 3)``.

    A v-range spanning a full turn closes the seam by identifying the last column with
    the first instead of duplicating it, and needs nv >= 3 (else a face or vertex repeats).
    The writers below format one mesh, so a mesh and its curvature sidecar share one grid.
    """
    wrap_v = abs((surface.v_hi - surface.v_lo) - TWO_PI) < 1e-9
    if wrap_v and nv < 3:
        raise ValueError(f"a full-turn mesh needs at least 3 cells around, got {nv}")
    us, vs = surface.nodes(nu + 1, nv + 1)
    vs = vs[:-1] if wrap_v else vs  # the seam column is the first one
    ncols = vs.size
    i, j = np.meshgrid(np.arange(nu), np.arange(nv), indexing="ij")
    base, jn = i * ncols + 1, (j + 1) % ncols  # only a wrapped grid reaches the modulo
    faces = np.stack([base + j, base + ncols + j, base + ncols + jn, base + jn], axis=-1)
    params = np.stack(np.meshgrid(us, vs, indexing="ij"), axis=-1).reshape(-1, 2)
    with np.errstate(all="ignore"):  # the writers refuse a jet that overflowed
        return Mesh(params, surface.grid(us, vs), faces.reshape(-1, 4))


def write_obj_mesh(path, mesh: Mesh) -> None:
    """Wavefront-style text mesh: `v x y z` lines then quad `f` lines."""
    verts = finite_array(mesh.jet.r, "mesh vertex").reshape(-1, 3).tolist()
    v_lines = "".join(f"v {x:.17g} {y:.17g} {z:.17g}\n" for x, y, z in verts)
    f_lines = "".join(f"f {a} {b} {c} {d}\n" for a, b, c, d in mesh.faces.tolist())
    write_text(path, v_lines + f_lines)


def write_vertex_curvature_csv(path, mesh: Mesh) -> None:
    """Per-vertex mean curvature in mesh vertex order, as `u,v,H` rows of the surface's
    parameters: on a reversed surface, v runs opposite to the evaluator's theta."""
    with np.errstate(all="ignore"):  # write_csv refuses an H that overflowed: no numpy warning
        write_csv(path, "u,v,H", (*mesh.params.T, jet_mean_curvature(mesh.jet).ravel()))
