"""Admissible parametric surfaces in the isotropic space.

A surface is admissible when the top-view Jacobian X12 of its tangent plane
never vanishes; evaluators are normalized on load so X12 > 0.  With
X23, X31, X12 the pairwise minors of the top-view derivative matrix, the
minimal normal is (X23/X12, X31/X12, 1) and the parabolic (relative) normal
replaces the third component with 1/2 - (X23^2 + X31^2)/(2*X12^2).  First
fundamental form coefficients use the degenerate metric, the second come
from triple-product determinants, and the relative area integrates
det(r_u, r_v, n_par).
"""

import math
from dataclasses import dataclass
from typing import NamedTuple

import numpy as np

from .core import IsoVec3, iso_dot, write_csv
from .curves import PlaneCurve, profile_jet
from .errors import DomainError, NonAdmissibleError
from .quadrature import simpson_2d

ADMISSIBLE_MIN_JACOBIAN = 1e-9
TWO_PI = 2.0 * math.pi


class SurfaceJet(NamedTuple):
    r: np.ndarray
    ru: np.ndarray
    rv: np.ndarray
    ruu: np.ndarray
    ruv: np.ndarray
    rvv: np.ndarray


def _minors(ru, rv) -> tuple[float, float, float]:
    """(X23, X31, X12): components of the Euclidean cross product ru x rv."""
    return (
        ru[1] * rv[2] - ru[2] * rv[1],
        ru[2] * rv[0] - ru[0] * rv[2],
        ru[0] * rv[1] - ru[1] * rv[0],
    )


class ParamSurface:
    """Surface evaluator with analytic partials over a parameter rectangle."""

    def __init__(self, u_lo, u_hi, v_lo, v_hi, eval_fn, check_samples: int = 9):
        if not (u_lo < u_hi and v_lo < v_hi):
            raise ValueError("empty parameter rectangle")
        self.u_lo, self.u_hi = float(u_lo), float(u_hi)
        self.v_lo, self.v_hi = float(v_lo), float(v_hi)
        self._eval = eval_fn
        us = np.linspace(self.u_lo, self.u_hi, check_samples)
        vs = np.linspace(self.v_lo, self.v_hi, check_samples)
        x12s = np.array(
            [_minors(*self._jet_arrays(eval_fn(u, v))[1:3])[2] for u in us for v in vs]
        )
        if np.any(np.abs(x12s) < ADMISSIBLE_MIN_JACOBIAN):
            raise NonAdmissibleError(
                "top-view Jacobian below threshold on the sampling grid"
            )
        if np.all(x12s < 0.0):
            inner = eval_fn

            def swapped(u, v, _inner=inner):
                r, ru, rv, ruu, ruv, rvv = _inner(v, u)
                return (r, rv, ru, rvv, ruv, ruu)

            self._eval = swapped
            self.u_lo, self.v_lo = self.v_lo, self.u_lo
            self.u_hi, self.v_hi = self.v_hi, self.u_hi
        elif np.any(x12s < 0.0):
            raise NonAdmissibleError("top-view Jacobian changes sign on the domain")

    @staticmethod
    def _jet_arrays(raw):
        return tuple(np.asarray(part, dtype=float) for part in raw)

    @classmethod
    def graph(cls, u_lo, u_hi, v_lo, v_hi, f, fu, fv, fuu, fuv, fvv) -> "ParamSurface":
        """Surface (u, v, f(u, v)) from a height function and its partials."""

        def eval_fn(u, v):
            return (
                (u, v, f(u, v)),
                (1.0, 0.0, fu(u, v)),
                (0.0, 1.0, fv(u, v)),
                (0.0, 0.0, fuu(u, v)),
                (0.0, 0.0, fuv(u, v)),
                (0.0, 0.0, fvv(u, v)),
            )

        return cls(u_lo, u_hi, v_lo, v_hi, eval_fn)

    def at(self, u: float, v: float) -> SurfaceJet:
        if not (
            self.u_lo - 1e-12 <= u <= self.u_hi + 1e-12
            and self.v_lo - 1e-12 <= v <= self.v_hi + 1e-12
        ):
            raise DomainError(f"({u}, {v}) outside the parameter rectangle")
        return SurfaceJet(*self._jet_arrays(self._eval(u, v)))


def _checked_minors(jet: SurfaceJet) -> tuple[float, float, float]:
    x23, x31, x12 = _minors(jet.ru, jet.rv)
    if abs(x12) < ADMISSIBLE_MIN_JACOBIAN:
        raise NonAdmissibleError(f"top-view Jacobian {x12} below threshold")
    return x23, x31, x12


def fundamental_forms(surface: ParamSurface, u: float, v: float):
    """(g11, g12, g22, h11, h12, h22) at the point."""
    jet = surface.at(u, v)
    _, _, x12 = _checked_minors(jet)
    g11 = iso_dot(jet.ru, jet.ru)
    g12 = iso_dot(jet.ru, jet.rv)
    g22 = iso_dot(jet.rv, jet.rv)
    # sqrt(det g) equals X12 once orientation is normalized
    h11 = float(np.linalg.det(np.stack([jet.ru, jet.rv, jet.ruu]))) / x12
    h12 = float(np.linalg.det(np.stack([jet.ru, jet.rv, jet.ruv]))) / x12
    h22 = float(np.linalg.det(np.stack([jet.ru, jet.rv, jet.rvv]))) / x12
    return g11, g12, g22, h11, h12, h22


def mean_curvature(surface: ParamSurface, u: float, v: float) -> float:
    g11, g12, g22, h11, h12, h22 = fundamental_forms(surface, u, v)
    return 0.5 * (g11 * h22 - 2.0 * g12 * h12 + g22 * h11) / (g11 * g22 - g12**2)


def surface_minimal_normal(surface: ParamSurface, u: float, v: float) -> IsoVec3:
    jet = surface.at(u, v)
    x23, x31, x12 = _checked_minors(jet)
    return IsoVec3(x23 / x12, x31 / x12, 1.0)


def surface_parabolic_normal(surface: ParamSurface, u: float, v: float) -> IsoVec3:
    jet = surface.at(u, v)
    x23, x31, x12 = _checked_minors(jet)
    p, q = x23 / x12, x31 / x12
    return IsoVec3(p, q, 0.5 - 0.5 * (p * p + q * q))


def relative_area(
    surface: ParamSurface,
    subrectangle: tuple[float, float, float, float] | None = None,
    panels_u: int | None = None,
    panels_v: int | None = None,
) -> float:
    """Integral of det(r_u, r_v, n_par) over the (sub)rectangle."""
    if subrectangle is None:
        u_lo, u_hi, v_lo, v_hi = surface.u_lo, surface.u_hi, surface.v_lo, surface.v_hi
    else:
        u_lo, u_hi, v_lo, v_hi = subrectangle

    def integrand(u, v):
        jet = surface.at(u, v)
        x23, x31, x12 = _checked_minors(jet)
        return 0.5 * (x23**2 + x31**2 + x12**2) / x12

    return simpson_2d(integrand, u_lo, u_hi, v_lo, v_hi, panels_u, panels_v)


def _graph_profile(curve: PlaneCurve, where: str) -> None:
    for t in np.linspace(curve.t_lo, curve.t_hi, 7):
        if abs(curve.at(t).x - t) > 1e-9 * max(1.0, abs(t)):
            raise ValueError(f"{where} profile must be a graph curve (x(t) = t)")


@dataclass(frozen=True)
class RevolutionSpec:
    """Profile (t, z(t)), t > 0, swept by rotations about the isotropic axis."""

    profile: PlaneCurve

    def __post_init__(self):
        if self.profile.t_lo <= 0.0:
            raise ValueError("revolution profile needs t_lo > 0")
        _graph_profile(self.profile, "revolution")


@dataclass(frozen=True)
class HelicoidalSpec:
    """Profile swept by rotations composed with a vertical shift of rate pitch."""

    profile: PlaneCurve
    pitch: float = 0.0

    def __post_init__(self):
        if self.profile.t_lo <= 0.0:
            raise ValueError("helicoidal profile needs t_lo > 0")
        _graph_profile(self.profile, "helicoidal")


@dataclass(frozen=True)
class ParabolicRevolutionSpec:
    """Profile swept by the parabolic-rotation group with parameters (a, b, c, c1, c2)."""

    a: float
    b: float
    c: float
    c1: float
    c2: float
    profile: PlaneCurve

    def __post_init__(self):
        if self.b == 0.0:
            raise ValueError("parabolic revolution needs b != 0")
        _graph_profile(self.profile, "parabolic revolution")

    @property
    def is_warped_translation(self) -> bool:
        return self.a * self.c1 + self.b * self.c2 == 0.0


def make_revolution(
    spec: RevolutionSpec, theta_lo: float = 0.0, theta_hi: float = TWO_PI
) -> ParamSurface:
    """(t cos v, t sin v, z(t)) with analytic partials from the profile."""
    prof = spec.profile

    def eval_fn(t, th):
        j = prof.at(t)
        ct, st = math.cos(th), math.sin(th)
        return (
            (t * ct, t * st, j.z),
            (ct, st, j.zd),
            (-t * st, t * ct, 0.0),
            (0.0, 0.0, j.zdd),
            (-st, ct, 0.0),
            (-t * ct, -t * st, 0.0),
        )

    return ParamSurface(prof.t_lo, prof.t_hi, theta_lo, theta_hi, eval_fn)


def make_helicoidal(
    spec: HelicoidalSpec, theta_lo: float = 0.0, theta_hi: float = TWO_PI
) -> ParamSurface:
    """(t cos v, t sin v, pitch*v + z(t))."""
    prof, c = spec.profile, spec.pitch

    def eval_fn(t, th):
        j = prof.at(t)
        ct, st = math.cos(th), math.sin(th)
        return (
            (t * ct, t * st, c * th + j.z),
            (ct, st, j.zd),
            (-t * st, t * ct, c),
            (0.0, 0.0, j.zdd),
            (-st, ct, 0.0),
            (-t * ct, -t * st, 0.0),
        )

    return ParamSurface(prof.t_lo, prof.t_hi, theta_lo, theta_hi, eval_fn)


def make_parabolic_revolution(
    spec: ParabolicRevolutionSpec, theta_lo: float = -1.0, theta_hi: float = 1.0
) -> ParamSurface:
    """(a v + t, b v, c v + (a c1 + b c2) v^2/2 + c1 t v + z(t))."""
    prof = spec.profile
    a, b, c, c1 = spec.a, spec.b, spec.c, spec.c1
    k = spec.a * spec.c1 + spec.b * spec.c2

    def eval_fn(t, th):
        j = prof.at(t)
        return (
            (a * th + t, b * th, c * th + 0.5 * k * th**2 + c1 * t * th + j.z),
            (1.0, 0.0, c1 * th + j.zd),
            (a, b, c + k * th + c1 * t),
            (0.0, 0.0, j.zdd),
            (0.0, 0.0, c1),
            (0.0, 0.0, k),
        )

    return ParamSurface(prof.t_lo, prof.t_hi, theta_lo, theta_hi, eval_fn)


def revolution_mean_curvature(profile, t: float) -> float:
    """Closed form (z' + t z'')/(2 t) for surfaces of revolution."""
    if t <= 0.0:
        raise DomainError("revolution mean curvature needs t > 0")
    _, zd, zdd = profile_jet(profile, t)
    return (zd + t * zdd) / (2.0 * t)


def parabolic_revolution_mean_curvature(spec: ParabolicRevolutionSpec, t: float) -> float:
    """Closed form (a^2 + b^2)/(2 b^2) z'' + (b c2 - a c1)/(2 b^2)."""
    _, _, zdd = profile_jet(spec.profile, t)
    a, b = spec.a, spec.b
    return (a**2 + b**2) / (2.0 * b**2) * zdd + (b * spec.c2 - a * spec.c1) / (
        2.0 * b**2
    )


def parabolic_revolution_F(spec: ParabolicRevolutionSpec, t: float) -> float:
    """Slope aggregate F(t) of the parabolic-revolution family.

    The family's parabolic normal has vertical component (1 - F)/2.  With the
    group parameter switched off (c = c1 = c2 = 0) this is exactly the squared
    top-view norm of the normal.
    """
    _, zd, _ = profile_jet(spec.profile, t)
    a, b, c, c1, c2 = spec.a, spec.b, spec.c, spec.c1, spec.c2
    lin = c + c1 * t
    return (
        lin**2 / b**2
        - 2.0 * a * lin * zd / b**2
        + (a**2 + b**2) * zd**2 / b**2
        - (2.0 * t / b) * ((a * c2 - b * c1) * zd - c2 * lin)
        + t**2 * (c1**2 + c2**2)
    )


def mesh_grid(surface: ParamSurface, nu: int, nv: int, wrap_v: bool | None = None):
    """Row-major vertex grid plus quad faces (1-based indices).

    When the v-range spans a full turn the seam is closed by identifying the
    last column with the first instead of duplicating it.
    """
    if wrap_v is None:
        wrap_v = abs((surface.v_hi - surface.v_lo) - TWO_PI) < 1e-9
    us = np.linspace(surface.u_lo, surface.u_hi, nu + 1)
    ncols = nv if wrap_v else nv + 1
    vs = np.linspace(surface.v_lo, surface.v_hi, nv + 1)[:ncols]
    verts = []
    params = []
    for u in us:
        for v in vs:
            verts.append(surface.at(u, v).r)
            params.append((u, v))
    faces = []
    for i in range(nu):
        for j in range(nv):
            jn = (j + 1) % ncols if wrap_v else j + 1
            base = i * ncols
            faces.append(
                (base + j + 1, base + ncols + j + 1, base + ncols + jn + 1, base + jn + 1)
            )
    return params, verts, faces


def write_obj_mesh(path, surface: ParamSurface, nu: int, nv: int, wrap_v=None) -> None:
    """Wavefront-style text mesh: `v x y z` lines then quad `f` lines."""
    _, verts, faces = mesh_grid(surface, nu, nv, wrap_v)
    with open(path, "w", encoding="utf-8") as fh:
        for p in verts:
            fh.write(f"v {p[0]:.17g} {p[1]:.17g} {p[2]:.17g}\n")
        for f in faces:
            fh.write(f"f {f[0]} {f[1]} {f[2]} {f[3]}\n")


def write_vertex_curvature_csv(path, surface: ParamSurface, nu: int, nv: int, wrap_v=None) -> None:
    """Per-vertex mean curvature in mesh vertex order, as `u,v,H` rows."""
    params, _, _ = mesh_grid(surface, nu, nv, wrap_v)
    us, vs = zip(*params)
    write_csv(path, "u,v,H", (us, vs, [mean_curvature(surface, u, v) for u, v in params]))
