"""Admissible parametric surfaces in the isotropic space.

A surface is admissible when the top-view Jacobian X12 of its tangent plane
never vanishes; evaluators are normalized on load so X12 > 0.  With
X23, X31, X12 the pairwise minors of the top-view derivative matrix, the
minimal normal is (X23/X12, X31/X12, 1) and the parabolic (relative) normal
replaces the third component with 1/2 - (X23^2 + X31^2)/(2*X12^2).  First
fundamental form coefficients use the degenerate metric, the second come
from triple-product determinants, and the relative area integrates
det(r_u, r_v, n_par).

``ParamSurface.grid`` is the one caller of a surface's row evaluator
``rows(vs) -> row(u)``, prepared once per grid call; ``row(u)`` gives the
u-row's jet with entries that are floats or arrays over vs, so a swept surface
calls its profile once per u-row.  The ``jet_*`` functions (minors, forms, H,
parabolic normal) work on a jet of any shape; per-point functions are one-node grids.
"""

import math
from dataclasses import dataclass, field
from typing import NamedTuple

import numpy as np

from .core import IsoVec3, write_csv
from .curves import GraphCurve
from .errors import DomainError, NonAdmissibleError
from .quadrature import simpson_2d

ADMISSIBLE_MIN_JACOBIAN = 1e-9
CHECK_SAMPLES = 9  # per side of the orientation check grid
TWO_PI = 2.0 * math.pi


class SurfaceJet(NamedTuple):
    """Position and partials; each field has shape (..., 3)."""

    r: np.ndarray
    ru: np.ndarray
    rv: np.ndarray
    ruu: np.ndarray
    ruv: np.ndarray
    rvv: np.ndarray


def _inside(x, lo, hi) -> bool:
    return bool(((x >= lo - 1e-12) & (x <= hi + 1e-12)).all())  # False for NaN


class ParamSurface:
    """Surface from a row evaluator ``rows(vs) -> row(u)`` over a rectangle.

    ``row(u)`` returns (r, r_u, r_v, r_uu, r_uv, r_vv) on the u-row, each
    component a float or an array over vs.  The top-view Jacobian X12 is
    checked on a 9 x 9 grid; where it is negative everywhere, u and v swap
    roles so that X12 > 0.
    """

    def __init__(self, u_lo, u_hi, v_lo, v_hi, rows):
        if not (u_lo < u_hi and v_lo < v_hi):
            raise ValueError("empty parameter rectangle")
        self.u_lo, self.u_hi = float(u_lo), float(u_hi)
        self.v_lo, self.v_hi = float(v_lo), float(v_hi)
        self._rows, self._swapped = rows, False
        us = np.linspace(self.u_lo, self.u_hi, CHECK_SAMPLES)
        x12s = jet_minors(self.grid(us, np.linspace(self.v_lo, self.v_hi, CHECK_SAMPLES)))[2]
        if np.all(x12s < 0.0):
            self._swapped = True
            self.u_lo, self.v_lo = self.v_lo, self.u_lo
            self.u_hi, self.v_hi = self.v_hi, self.u_hi
        elif np.any(x12s < 0.0):
            raise NonAdmissibleError("top-view Jacobian changes sign on the domain")

    @classmethod
    def graph(cls, u_lo, u_hi, v_lo, v_hi, f, fu, fv, fuu, fuv, fvv) -> "ParamSurface":
        """Surface (u, v, f(u, v)) from a height function and its partials."""
        heights = (f, fu, fv, fuu, fuv, fvv)

        def rows(vs):
            def row(u):
                z, zu, zv, zuu, zuv, zvv = ([h(u, v) for v in vs] for h in heights)
                return ((u, vs, z), (1.0, 0.0, zu), (0.0, 1.0, zv),
                        (0.0, 0.0, zuu), (0.0, 0.0, zuv), (0.0, 0.0, zvv))

            return row

        return cls(u_lo, u_hi, v_lo, v_hi, rows)

    def grid(self, us, vs) -> SurfaceJet:
        """Jets at the nodes us x vs, fields of shape (len(us), len(vs), 3).

        One row evaluator call per u-row (per v-row of a swapped surface); a
        node outside the rectangle (or NaN) raises DomainError."""
        us, vs = np.asarray(us, dtype=float), np.asarray(vs, dtype=float)
        if not (_inside(us, self.u_lo, self.u_hi) and _inside(vs, self.v_lo, self.v_hi)):
            raise DomainError(
                f"grid nodes outside [{self.u_lo}, {self.u_hi}] x [{self.v_lo}, {self.v_hi}]"
            )
        if self._swapped:
            us, vs = vs, us
        row = self._rows(vs)
        out = np.empty((6, 3, us.size, vs.size))
        for i, u in enumerate(us):
            for dest, vec in zip(out, row(u)):
                for comp, x in zip(dest, vec):
                    comp[i] = x
        if self._swapped:  # back to the caller's (u, v): transpose, r_u <-> r_v, r_uu <-> r_vv
            out = out[[0, 2, 1, 5, 4, 3]].swapaxes(2, 3)
        return SurfaceJet(*np.moveaxis(out, 1, -1))

    def at(self, u: float, v: float) -> SurfaceJet:
        """Jet at one point: the one-node grid, fields of shape (3,)."""
        return SurfaceJet(*(f[0, 0] for f in self.grid([u], [v])))


def jet_minors(jet: SurfaceJet):
    """(X23, X31, X12) = r_u x r_v; NonAdmissibleError where |X12| < 1e-9."""
    ru, rv = jet.ru, jet.rv
    pairs = ((1, 2), (2, 0), (0, 1))
    x23, x31, x12 = (ru[..., i] * rv[..., j] - ru[..., j] * rv[..., i] for i, j in pairs)
    if np.any(np.abs(x12) < ADMISSIBLE_MIN_JACOBIAN):
        raise NonAdmissibleError(f"top-view Jacobian {np.min(np.abs(x12))} below threshold")
    return x23, x31, x12


def jet_forms(jet: SurfaceJet):
    """(g11, g12, g22, h11, h12, h22); h_ij = det(r_u, r_v, r_ij) / X12 with X12 = sqrt(det g)."""
    ru, rv, x12 = jet.ru, jet.rv, jet_minors(jet)[2]
    g = [a[..., 0] * b[..., 0] + a[..., 1] * b[..., 1] for a, b in ((ru, ru), (ru, rv), (rv, rv))]
    h = [np.linalg.det(np.stack([ru, rv, w], axis=-2)) / x12 for w in (jet.ruu, jet.ruv, jet.rvv)]
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


def fundamental_forms(surface: ParamSurface, u: float, v: float):
    """(g11, g12, g22, h11, h12, h22) at the point."""
    return tuple(float(x) for x in jet_forms(surface.at(u, v)))


def mean_curvature(surface: ParamSurface, u: float, v: float) -> float:
    return float(jet_mean_curvature(surface.at(u, v)))


def surface_minimal_normal(surface: ParamSurface, u: float, v: float) -> IsoVec3:
    x23, x31, x12 = jet_minors(surface.at(u, v))
    return IsoVec3(float(x23 / x12), float(x31 / x12), 1.0)


def surface_parabolic_normal(surface: ParamSurface, u: float, v: float) -> IsoVec3:
    return IsoVec3(*(float(x) for x in jet_parabolic_normal(surface.at(u, v))))


def relative_area(
    surface: ParamSurface,
    subrectangle: tuple[float, float, float, float] | None = None,
    panels_u: int | None = None,
    panels_v: int | None = None,
) -> float:
    """Integral of det(r_u, r_v, n_par) over the (sub)rectangle."""
    box = subrectangle or (surface.u_lo, surface.u_hi, surface.v_lo, surface.v_hi)

    def row(u, vs):
        x23, x31, x12 = (m[0] for m in jet_minors(surface.grid([u], vs)))
        sq = np.float_power((x23, x31, x12), 2)  # pow like scalar **, unlike array **
        return 0.5 * (sq[0] + sq[1] + sq[2]) / x12

    return simpson_2d(row, *box, panels_u, panels_v)


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
    """(t cos v, t sin v, pitch*v + z(t)); at pitch 0 the surface of revolution."""
    curve, c = spec.profile, spec.pitch
    profile = curve.profile  # ParamSurface.grid keeps t inside the curve domain

    def rows(ths):
        ct = np.array([math.cos(th) for th in ths])  # np.cos may differ from libm in the last bit
        st = np.array([math.sin(th) for th in ths])
        cth = c * ths

        def row(t):
            z, zd, zdd = profile(t)
            return ((t * ct, t * st, cth + z), (ct, st, zd), (-t * st, t * ct, c),
                    (0.0, 0.0, zdd), (-st, ct, 0.0), (-t * ct, -t * st, 0.0))

        return row

    return ParamSurface(curve.t_lo, curve.t_hi, theta_lo, theta_hi, rows)


make_revolution = make_helicoidal


def make_parabolic_revolution(
    spec: ParabolicRevolutionSpec, theta_lo: float = -1.0, theta_hi: float = 1.0
) -> ParamSurface:
    """(a v + t, b v, c v + (a c1 + b c2) v^2/2 + c1 t v + z(t))."""
    curve, profile = spec.profile, spec.profile.profile
    a, b, c, c1 = spec.a, spec.b, spec.c, spec.c1
    k = spec.a * spec.c1 + spec.b * spec.c2

    def rows(ths):
        th2 = np.float_power(ths, 2)  # pow like scalar **, unlike array **

        def row(t):
            z, zd, zdd = profile(t)
            return (
                (a * ths + t, b * ths, c * ths + 0.5 * k * th2 + c1 * t * ths + z),
                (1.0, 0.0, c1 * ths + zd), (a, b, c + k * ths + c1 * t),
                (0.0, 0.0, zdd), (0.0, 0.0, c1), (0.0, 0.0, k),
            )

        return row

    return ParamSurface(curve.t_lo, curve.t_hi, theta_lo, theta_hi, rows)


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


def _mesh(surface: ParamSurface, nu: int, nv: int):
    """(params, jet, faces) of the mesh; a full turn in v drops the seam column."""
    wrap_v = abs((surface.v_hi - surface.v_lo) - TWO_PI) < 1e-9
    us = np.linspace(surface.u_lo, surface.u_hi, nu + 1)
    vs = np.linspace(surface.v_lo, surface.v_hi, nv + 1)[: nv if wrap_v else nv + 1]
    ncols = vs.size
    i, j = np.meshgrid(np.arange(nu), np.arange(nv), indexing="ij")
    base, jn = i * ncols + 1, (j + 1) % ncols  # only a wrapped grid reaches the modulo
    faces = np.stack([base + j, base + ncols + j, base + ncols + jn, base + jn], axis=-1)
    params = np.stack(np.meshgrid(us, vs, indexing="ij"), axis=-1).reshape(-1, 2)
    return params, surface.grid(us, vs), faces.reshape(-1, 4)


def mesh_grid(surface: ParamSurface, nu: int, nv: int):
    """Row-major (N, 2) parameters and (N, 3) vertices plus (nu*nv, 4) 1-based quad faces.

    A v-range spanning a full turn closes the seam by identifying the last
    column with the first instead of duplicating it.
    """
    params, jet, faces = _mesh(surface, nu, nv)
    return params, jet.r.reshape(-1, 3), faces


def write_obj_mesh(path, surface: ParamSurface, nu: int, nv: int) -> None:
    """Wavefront-style text mesh: `v x y z` lines then quad `f` lines."""
    _, verts, faces = mesh_grid(surface, nu, nv)
    with open(path, "w", encoding="utf-8") as fh:
        fh.writelines(f"v {x:.17g} {y:.17g} {z:.17g}\n" for x, y, z in verts.tolist())
        fh.writelines(f"f {a} {b} {c} {d}\n" for a, b, c, d in faces.tolist())


def write_vertex_curvature_csv(path, surface: ParamSurface, nu: int, nv: int) -> None:
    """Per-vertex mean curvature in mesh vertex order, as `u,v,H` rows."""
    params, jet, _ = _mesh(surface, nu, nv)
    write_csv(path, "u,v,H", (*params.T, jet_mean_curvature(jet).ravel()))
