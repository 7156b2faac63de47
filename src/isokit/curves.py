"""Admissible plane curves in the isotropic plane.

A curve t -> (x(t), z(t)) is admissible when x'(t) never vanishes, i.e. its
tangent is never parallel to the isotropic z-direction.  Curvature here is
kappa = (x' z'' - x'' z') / x'^3; the two transversal unit fields are the
minimal normal (-z'/x', 1) and the parabolic normal
(-z'/x', 1/2 - z'^2/(2 x'^2)), and the relative length element weighs the
usual dt by their Euclidean pairing: (x'/2 + z'^2/(2 x')) dt.
"""

import math
from dataclasses import dataclass
from typing import NamedTuple

import numpy as np

from .core import IsoVec2, write_csv
from .errors import (
    DomainError,
    InvalidIntervalError,
    NonAdmissibleError,
    SingularDenominatorError,
)
from .quadrature import simpson

# reference lines for weight functionals / catenary families
LZ = "lz"  # the isotropic z-axis; distance to it is the x-coordinate
LX = "lx"  # the non-isotropic x-axis; distance to it is the z-coordinate

ADMISSIBLE_MIN_SLOPE = 1e-9


class CurveJet(NamedTuple):
    x: float
    z: float
    xd: float
    zd: float
    xdd: float
    zdd: float


class PlaneCurve:
    """Curve evaluator carrying position and first/second derivatives.

    The evaluator must return (x, z, x', z', x'', z'') at any t in the closed
    domain.  Admissibility (|x'| >= 1e-9) is checked on a sampling grid at
    construction; curves traversed with x' < 0 are reparametrized so that
    x' > 0 everywhere.
    """

    def __init__(self, t_lo: float, t_hi: float, eval_fn, check_samples: int = 129):
        if not (t_lo < t_hi):
            raise InvalidIntervalError(f"empty parameter interval [{t_lo}, {t_hi}]")
        self.t_lo = float(t_lo)
        self.t_hi = float(t_hi)
        self._eval = eval_fn
        grid = np.linspace(self.t_lo, self.t_hi, check_samples)
        xds = np.array([float(eval_fn(t)[2]) for t in grid])
        if np.any(np.abs(xds) < ADMISSIBLE_MIN_SLOPE):
            raise NonAdmissibleError(
                f"|x'| < {ADMISSIBLE_MIN_SLOPE} on the sampling grid; tangent is isotropic"
            )
        if np.all(xds < 0.0):
            lo, hi = self.t_lo, self.t_hi
            inner = eval_fn

            def reversed_eval(t, _inner=inner, _lo=lo, _hi=hi):
                x, z, xd, zd, xdd, zdd = _inner(_lo + _hi - t)
                return (x, z, -xd, -zd, xdd, zdd)

            self._eval = reversed_eval
        elif np.any(xds < 0.0):
            raise NonAdmissibleError("x' changes sign on the domain")

    @staticmethod
    def graph(t_lo, t_hi, z, zd, zdd) -> "PlaneCurve":
        """Curve t -> (t, z(t)) from a profile and its two derivatives."""
        return graph_curve(t_lo, t_hi, lambda t: (z(t), zd(t), zdd(t)))

    @classmethod
    def from_functions(cls, t_lo, t_hi, x, z, xd, zd, xdd, zdd) -> "PlaneCurve":
        return cls(
            t_lo, t_hi, lambda t: (x(t), z(t), xd(t), zd(t), xdd(t), zdd(t))
        )

    @classmethod
    def from_samples(cls, t: np.ndarray, z: np.ndarray) -> "PlaneCurve":
        """Sampled graph curve; derivatives by centered differences on the grid.

        The grid must be uniform.  Between nodes, position and derivatives are
        interpolated linearly, so downstream residual checks only hold to
        finite-difference accuracy.
        """
        t = np.asarray(t, dtype=float)
        z = np.asarray(z, dtype=float)
        if t.ndim != 1 or t.size < 4 or t.shape != z.shape:
            raise ValueError("need matching 1-d arrays with at least 4 samples")
        h = np.diff(t)
        if np.any(h <= 0) or not np.allclose(h, h[0], rtol=1e-9, atol=0.0):
            raise ValueError("sample grid must be uniform and increasing")
        hs = h[0]
        zd = np.empty_like(z)
        zd[1:-1] = (z[2:] - z[:-2]) / (2 * hs)
        zd[0] = (-3 * z[0] + 4 * z[1] - z[2]) / (2 * hs)
        zd[-1] = (3 * z[-1] - 4 * z[-2] + z[-3]) / (2 * hs)
        zdd = np.empty_like(z)
        zdd[1:-1] = (z[2:] - 2 * z[1:-1] + z[:-2]) / hs**2
        zdd[0] = (2 * z[0] - 5 * z[1] + 4 * z[2] - z[3]) / hs**2
        zdd[-1] = (2 * z[-1] - 5 * z[-2] + 4 * z[-3] - z[-4]) / hs**2

        def eval_fn(s, _t=t, _z=z, _zd=zd, _zdd=zdd):
            return (
                s,
                float(np.interp(s, _t, _z)),
                1.0,
                float(np.interp(s, _t, _zd)),
                0.0,
                float(np.interp(s, _t, _zdd)),
            )

        return cls(t[0], t[-1], eval_fn)

    def at(self, t: float) -> CurveJet:
        if t < self.t_lo - 1e-12 or t > self.t_hi + 1e-12:
            raise DomainError(f"t={t} outside [{self.t_lo}, {self.t_hi}]")
        return CurveJet(*(float(v) for v in self._eval(t)))

    def sample(self, n: int) -> tuple[np.ndarray, np.ndarray, np.ndarray]:
        """n uniformly spaced (t, x, z) samples over the domain."""
        ts = np.linspace(self.t_lo, self.t_hi, n)
        jets = [self.at(t) for t in ts]
        return ts, np.array([j.x for j in jets]), np.array([j.z for j in jets])


def _slope_checked(jet: CurveJet) -> CurveJet:
    if abs(jet.xd) < ADMISSIBLE_MIN_SLOPE:
        raise NonAdmissibleError(f"|x'|={abs(jet.xd)} below admissibility threshold")
    return jet


def unit_tangent(curve: PlaneCurve, t: float) -> IsoVec2:
    """Unit tangent (sign(x'), z'/x'), normalized by the degenerate metric."""
    j = _slope_checked(curve.at(t))
    return IsoVec2(math.copysign(1.0, j.xd), j.zd / j.xd)


def curvature(curve: PlaneCurve, t: float) -> float:
    """Signed curvature (x' z'' - x'' z') / x'^3."""
    j = _slope_checked(curve.at(t))
    return (j.xd * j.zdd - j.xdd * j.zd) / j.xd**3


def minimal_normal(curve: PlaneCurve, t: float) -> IsoVec2:
    """Minimal normal (-z'/x', 1): quarter rotation of the tangent over x'."""
    j = _slope_checked(curve.at(t))
    return IsoVec2(-j.zd / j.xd, 1.0)


def parabolic_normal(curve: PlaneCurve, t: float) -> IsoVec2:
    """Parabolic (relative) normal (-z'/x', 1/2 - z'^2/(2 x'^2))."""
    j = _slope_checked(curve.at(t))
    s = j.zd / j.xd
    return IsoVec2(-s, 0.5 - 0.5 * s * s)


def relative_arclength(
    curve: PlaneCurve, a: float, b: float, panels: int | None = None
) -> float:
    """Relative length of the arc over [a, b]: integral of x'/2 + z'^2/(2 x')."""
    if a >= b:
        raise InvalidIntervalError(f"need a < b, got [{a}, {b}]")
    if a < curve.t_lo - 1e-12 or b > curve.t_hi + 1e-12:
        raise DomainError(f"[{a}, {b}] not contained in the curve domain")

    def integrand(t):
        j = _slope_checked(curve.at(t))
        return 0.5 * j.xd + 0.5 * j.zd**2 / j.xd

    return simpson(integrand, a, b, panels=panels)


def graph_curve(t_lo: float, t_hi: float, profile) -> PlaneCurve:
    """Graph curve t -> (t, z(t)) of a profile t -> (z, z', z'')."""

    def eval_fn(t):
        z, zd, zdd = profile(t)
        return (t, z, 1.0, zd, 0.0, zdd)

    return PlaneCurve(t_lo, t_hi, eval_fn)


_PROFILE_KINDS = ("log", "power", "inverse_radius", "log_parabola", "quadratic", "poly")


@dataclass(frozen=True)
class ProfileForm:
    """Closed-form profile z(t) identified by kind + coefficients.

    Kinds: ``log`` c*ln(t) + d; ``power`` c*t^p + d; ``inverse_radius``
    z1 + z2/t; ``log_parabola`` quad*t^2 + z2*ln(t) + z1; ``quadratic``
    quad*t^2 + z1; ``poly`` sum of a[k]*t^k.  Unknown kinds and non-finite
    coefficients are rejected with ValueError.
    """

    kind: str
    coefficients: dict

    def __post_init__(self):
        if self.kind not in _PROFILE_KINDS:
            raise ValueError(f"unknown profile kind {self.kind!r}")
        if not all(np.all(np.isfinite(v)) for v in self.coefficients.values()):
            raise ValueError(f"non-finite coefficient in {self.kind} profile {self.coefficients}")

    def __call__(self, t: float) -> tuple[float, float, float]:
        co = self.coefficients
        if self.kind == "log":
            c, d = co["c"], co["d"]
            return (c * math.log(t) + d, c / t, -c / t**2)
        if self.kind == "power":
            c, p, d = co["c"], co["p"], co["d"]
            return (c * t**p + d, c * p * t ** (p - 1), c * p * (p - 1) * t ** (p - 2))
        if self.kind == "inverse_radius":
            return (
                co["z1"] + co["z2"] / t,
                -co["z2"] / t**2,
                2.0 * co["z2"] / t**3,
            )
        if self.kind == "log_parabola":
            q, z1, z2 = co["quad"], co["z1"], co["z2"]
            return (
                q * t**2 + z2 * math.log(t) + z1,
                2.0 * q * t + z2 / t,
                2.0 * q - z2 / t**2,
            )
        if self.kind == "quadratic":
            q, z1 = co["quad"], co["z1"]
            return (q * t**2 + z1, 2.0 * q * t, 2.0 * q)
        a = np.asarray(co["a"], dtype=float)
        z = a * t ** np.arange(a.size)
        zd = a[1:] * np.arange(1, a.size) * t ** np.arange(a.size - 1)
        zdd = a[2:] * np.arange(2, a.size) * np.arange(1, a.size - 1) * t ** np.arange(a.size - 2)
        return (float(z.sum()), float(zd.sum()), float(zdd.sum()))

    def plane_curve(self, t_lo: float, t_hi: float) -> PlaneCurve:
        return graph_curve(t_lo, t_hi, self)

    def to_json_dict(self) -> dict:
        return {"kind": self.kind, "coefficients": dict(self.coefficients)}


@dataclass(frozen=True)
class CatenaryFamily:
    """Closed-form critical profiles of the weighted-length functionals.

    With respect to the isotropic axis (reference ``LZ``) the solutions are
    z = c*ln(t - lam) + d for alpha = 1 and z = c*t**(1-alpha) + d (lam = 0)
    for alpha not in {0, 1}, evaluated as the ``log`` or ``power``
    ProfileForm at t - lam.  Profiles for the non-isotropic axis (``LX``)
    have no elementary closed form and live in :mod:`isokit.odes`.
    """

    reference: str = LZ
    alpha: float = 1.0
    c: float = 1.0
    d: float = 0.0
    lam: float = 0.0

    def __post_init__(self):
        if self.reference not in (LZ, LX):
            raise ValueError(f"unknown reference line {self.reference!r}")
        if self.alpha == 0.0:
            raise ValueError(
                "alpha = 0 has a degenerate weight; use the variational module"
            )
        if self.alpha != 1.0 and self.lam != 0.0:
            raise ValueError("lam must be 0 unless alpha = 1")
        if self.alpha == 1.0:
            form = ProfileForm("log", {"c": self.c, "d": self.d})
        else:
            form = ProfileForm("power", {"c": self.c, "p": 1.0 - self.alpha, "d": self.d})
        object.__setattr__(self, "_form", form)

    def profile(self, t: float) -> tuple[float, float, float]:
        """(z, z', z'') at t; DomainError outside the family domain."""
        if self.reference == LX:
            raise ValueError(
                "no closed form for the non-isotropic reference; integrate the "
                "profile ODE from isokit.odes instead"
            )
        s = t - self.lam
        if s <= 0.0:
            raise DomainError(f"t - lam = {s} <= 0")
        return self._form(s)

    def plane_curve(self, t_lo: float, t_hi: float) -> PlaneCurve:
        """Graph curve (t, z(t)) of this family over [t_lo, t_hi]."""
        self.profile(min(t_lo, t_hi))  # domain check at the left end
        return graph_curve(t_lo, t_hi, self.profile)


def profile_jet(profile, t: float) -> tuple[float, float, float]:
    """(z, z', z'') at t of a graph PlaneCurve, a CatenaryFamily, or any
    callable t -> (z, z', z'') such as a ProfileForm."""
    if isinstance(profile, PlaneCurve):
        j = profile.at(t)
        return (j.z, j.zd, j.zdd)
    if isinstance(profile, CatenaryFamily):
        return profile.profile(t)
    return profile(t)


def catenary_curvature_residual(
    curve: PlaneCurve, reference: str, alpha: float, lam: float, t: float
) -> float:
    """Curvature minus the weighted-normal quotient that characterizes critical curves.

    For the isotropic axis the quotient is
    alpha * x**(alpha-1) * npar_x / (x**alpha - lam), and for the
    non-isotropic axis alpha * z**(alpha-1) * npar_z / (z**alpha - lam),
    where npar is the parabolic normal.  The residual vanishes identically on
    the corresponding solution families.
    """
    j = _slope_checked(curve.at(t))
    kappa = (j.xd * j.zdd - j.xdd * j.zd) / j.xd**3
    npar = parabolic_normal(curve, t)
    if reference == LZ:
        base, pairing = j.x, npar.x
    elif reference == LX:
        base, pairing = j.z, npar.z
    else:
        raise ValueError(f"unknown reference line {reference!r}")
    if base <= 0.0 and alpha != round(alpha):
        raise DomainError("non-integer exponent needs a positive distance")
    denom = base**alpha - lam
    if abs(denom) < 1e-12:
        raise SingularDenominatorError(
            f"weight denominator {denom} at t={t} is numerically zero"
        )
    rhs = alpha * base ** (alpha - 1.0) * pairing / denom
    return kappa - rhs


def write_curve_csv(path, t: np.ndarray, x: np.ndarray, z: np.ndarray) -> None:
    """Write samples as `t,x,z` rows with 17 significant digits."""
    write_csv(path, "t,x,z", (t, x, z))


def read_curve_csv(path) -> PlaneCurve:
    """Re-import a `t,x,z` CSV as a sampled graph curve."""
    data = np.loadtxt(path, delimiter=",", skiprows=1)
    return PlaneCurve.from_samples(data[:, 0], data[:, 2])
