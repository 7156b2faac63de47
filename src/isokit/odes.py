"""Profile ODEs of invariant surfaces and the degenerate axis-crossing solver.

Three second-order profiles are integrated with fixed-step classical
Runge-Kutta: the non-isotropic weighted-curve equation
(z**alpha - lam) z'' = alpha z**(alpha-1) (1 - z'^2)/2, the revolution
equation z'' + z'/t = (1 - z'^2)/(2 z), and the parabolic-revolution
equation (2z + b c2 t^2) z'' + z'^2 - 2ab c2 t z'/(a^2+b^2)
+ 2b c2 (z + b c2 t^2)/(a^2+b^2) - b^2/(a^2+b^2) = 0.

The revolution equation degenerates at t = 0.  For initial height a > 0 with
z'(0) = 0 it is solved there as the fixed point of

    (T z)(t) = a + int_0^t (1/r) int_0^r tau (1 - z'(tau)^2)/(2 z(tau)) dtau dr

on [0, R]; at a = 1, R = 0.15 keeps T a contractive self-map of the C^1 ball
of radius 1/2 around 1 (closed-form Lipschitz constants, 0.9 safety factor).
The equation is invariant under (t, z) -> (a t, a z), so the profile for any
a is a Z(t/a) on [0, 0.15 a].  Its curvature at the origin is 1/(4a).
"""

import functools
import math
from dataclasses import dataclass, field, replace
from typing import Callable

import numpy as np

from .core import check_finite, write_csv
from .curves import DENOM_FLOOR, check_domain
from .errors import (
    DomainError,
    InvalidIntervalError,
    MaxIterExceededError,
    NonContractionError,
    SingularityError,
    StepFailureError,
)
from .quadrature import cumulative_simpson

PICARD_NODES = 513  # odd, as nested Simpson needs
PICARD_MAX_ITER = 200
# Radius of the Picard domain at a = 1, eps = 1/2 (0.9 safety factor): with
# s = 1 + eps^2 and L = 0.5/(a - eps)^2 * 2 (a + eps) = 6 the Lipschitz constant
# of the integrand on [a - eps, a + eps],
# R = 0.9 min(sqrt(4 eps (a - eps)/s), 2 eps (a - eps)/s, sqrt(2/L), 1/L) = 0.15.
PICARD_UNIT_RADIUS = 0.9 * min(
    math.sqrt(4.0 * 0.5 * 0.5 / 1.25), 2.0 * 0.5 * 0.5 / 1.25,  # self-map
    math.sqrt(2.0 / 6.0), 1.0 / 6.0,  # contraction
)


@dataclass(frozen=True)
class ProfileODE:
    kind: str
    rhs: Callable[[float, float, float], float]

    @classmethod
    def nonisotropic_alpha_catenary(cls, alpha: float, lam: float = 0.0) -> "ProfileODE":
        check_finite(alpha=alpha, lam=lam)

        def rhs(t, z, zp, _a=alpha, _l=lam, _am1=alpha - 1.0):
            del t
            if z <= 0.0 and _a != round(_a):
                raise SingularityError("weight base must stay positive")
            denom = z**_a - _l
            if abs(denom) < DENOM_FLOOR:
                raise SingularityError(f"weight denominator {denom} vanished")
            return _a * z**_am1 * 0.5 * (1.0 - zp * zp) / denom

        return cls("nonisotropic_alpha_catenary", rhs)

    @classmethod
    def revolution_nonisotropic(cls) -> "ProfileODE":
        def rhs(t, z, zp):
            if abs(2.0 * z) < DENOM_FLOOR:
                raise SingularityError("profile height vanished")
            core = (1.0 - zp * zp) / (2.0 * z)
            if t < 1e-8:
                # z'/t -> z''(0) as t -> 0, halving the right-hand side
                return 0.5 * core
            return core - zp / t

        return cls("revolution_nonisotropic", rhs)

    @classmethod
    def parabolic_nonisotropic(cls, a: float, b: float, c2: float) -> "ProfileODE":
        check_finite(a=a, b=b, c2=c2)
        if b == 0.0:
            raise ValueError("parabolic profile ODE needs b != 0")
        ab2 = a * a + b * b
        if ab2 == 0.0:
            raise ValueError(f"parabolic profile ODE: a^2 + b^2 underflows to 0 at b={b}")
        # constant left-to-right prefixes, so each term rounds as when written out in full
        bc2, bb_ab2, drift, pull = b * c2, b * b / ab2, 2.0 * a * b * c2, 2.0 * b * c2

        def rhs(t, z, zp):
            denom = 2.0 * z + bc2 * t * t
            if abs(denom) < DENOM_FLOOR:
                raise SingularityError(f"denominator {denom} vanished")
            num = bb_ab2 - zp * zp + drift * t * zp / ab2 - pull * (z + bc2 * t * t) / ab2
            return num / denom

        return cls("parabolic_nonisotropic", rhs)


@dataclass
class IVPResult:
    t: np.ndarray
    z: np.ndarray
    zp: np.ndarray
    iterations: int = 0
    contraction_ratios: list = field(default_factory=list)
    zpp_origin: float | None = None
    a: float | None = None
    radius: float | None = None
    epsilon: float | None = None

    def __call__(self, s):
        """(z, z', z'') at s of the cubic Hermite interpolant through (t, z, zp): O(h^4) in
        z between nodes, the samples (z, z') at a node.  A float s gives floats and an array
        s arrays; an s outside the samples' range is a DomainError."""
        t, z, p = self.t, self.z, self.zp
        if t[0] > t[-1]:  # a backward run stores a decreasing grid: read it increasing
            t, z, p = t[::-1], z[::-1], p[::-1]
        check_domain(s, t[0], t[-1])
        s = np.asarray(s, dtype=float)
        i = np.clip(np.searchsorted(t, s, side="right") - 1, 0, t.size - 2)
        h, z0, z1, p0, p1 = t[i + 1] - t[i], z[i], z[i + 1], p[i], p[i + 1]
        th = (s - t[i]) / h
        u, slope = 1.0 - th, (z1 - z0) / h
        jet = (  # basis form: at th = 0 and th = 1 every other term is an exact zero
            u * u * (1.0 + 2.0 * th) * z0 + th * th * (1.0 + 2.0 * u) * z1
            + h * th * u * (u * p0 - th * p1),
            6.0 * th * u * slope + u * (u - 2.0 * th) * p0 + th * (th - 2.0 * u) * p1,
            (p1 - p0 + 6.0 * (u - th) * (slope - 0.5 * (p0 + p1))) / h,
        )
        return tuple(map(float, jet)) if s.ndim == 0 else jet

    def state_at(self, t: float) -> tuple[float, float]:
        return self(t)[:2]

    def write_csv(self, path) -> None:
        write_csv(path, "t,z,zp", (self.t, self.z, self.zp))

    def sidecar_dict(self) -> dict:
        return {
            "a": self.a,
            "R": self.radius,
            "epsilon": self.epsilon,
            "iterations": self.iterations,
            "contraction_ratios": list(self.contraction_ratios),
            "zpp_origin": self.zpp_origin,
        }


def integrate(
    ode: ProfileODE, t0: float, z0: float, zp0: float, t1: float, steps: int
) -> IVPResult:
    """Fixed-step classical Runge-Kutta for z'' = rhs(t, z, z').

    Backward integration (t1 < t0) is allowed; t1 == t0 is an InvalidIntervalError, a
    non-finite input a ValueError naming it, a right-hand-side denominator that collapses or
    divides by zero a SingularityError, and a non-finite state or overflow a StepFailureError.
    """
    if steps < 1:
        raise ValueError("steps must be positive")
    check_finite(t0=t0, z0=z0, zp0=zp0, t1=t1)
    if t1 == t0:
        raise InvalidIntervalError(f"empty integration interval: t1 = t0 = {t0}")
    h = (t1 - t0) / steps
    hh = 0.5 * h  # 0.5 * h * k parses as (0.5 * h) * k, so this is exact
    ts = np.empty(steps + 1)
    zs = np.empty(steps + 1)
    ps = np.empty(steps + 1)
    # the loop runs on Python floats; the memoryviews store them unboxed
    tv, zv, pv = memoryview(ts), memoryview(zs), memoryview(ps)
    rhs, isfinite = ode.rhs, math.isfinite
    t, z, p = float(t0), float(z0), float(zp0)
    tv[0], zv[0], pv[0] = t, z, p
    try:  # zero-cost until raised (CPython 3.11): the hot rhs needs no checks of its own
        for i in range(steps):
            k1z, k1p = p, rhs(t, z, p)
            k2z = p + hh * k1p
            k2p = rhs(t + hh, z + hh * k1z, p + hh * k1p)
            k3z = p + hh * k2p
            k3p = rhs(t + hh, z + hh * k2z, p + hh * k2p)
            k4z = p + h * k3p
            k4p = rhs(t + h, z + h * k3z, p + h * k3p)
            z += h * (k1z + 2.0 * k2z + 2.0 * k3z + k4z) / 6.0
            p += h * (k1p + 2.0 * k2p + 2.0 * k3p + k4p) / 6.0
            t = t0 + (i + 1) * h
            if not (isfinite(z) and isfinite(p)):
                raise StepFailureError(f"non-finite state at t={t}")
            tv[i + 1], zv[i + 1], pv[i + 1] = t, z, p
    except ZeroDivisionError as exc:  # e.g. 0.0 to a negative power
        raise SingularityError(f"right-hand side singular in the step at t={t}: {exc}") from exc
    except OverflowError as exc:  # e.g. a float ** that leaves the double range
        raise StepFailureError(f"right-hand side overflowed in the step at t={t}: {exc}") from exc
    return IVPResult(ts, zs, ps, iterations=steps)


def ivp_residual(result: IVPResult, ode: ProfileODE) -> float:
    """Max |z'' - rhs| of the result's Hermite profile at the cell midpoints, where z'' is the
    difference quotient of z': O(h^2), 16x smaller per 4x steps (the samples are O(h^4))."""
    tm = 0.5 * (result.t[:-1] + result.t[1:])
    cols = map(memoryview, (tm, *result(tm)))  # iterated as Python floats, with no list
    return max(abs(q - ode.rhs(t, z, p)) for t, z, p, q in zip(*cols))


def operator_T_apply(a: float, profile: IVPResult) -> IVPResult:
    """One application of the degenerate-problem integral operator.

    Inner and outer integrals use the cumulative Simpson rule on the profile's
    own uniform grid; the outer integrand (1/r times the inner integral)
    extends continuously by 0 at the origin.
    """
    t, z, zp = profile.t, profile.z, profile.zp
    if np.any(z <= DENOM_FLOOR):
        raise SingularityError("profile height fell below the division floor")
    h = float(t[1] - t[0])
    g = t * (1.0 - zp**2) / (2.0 * z)
    inner = cumulative_simpson(g, h)
    outer = np.empty_like(inner)
    outer[0] = 0.0
    outer[1:] = inner[1:] / t[1:]
    new_z = a + cumulative_simpson(outer, h)
    return IVPResult(t, new_z, outer)


def picard_solve_degenerate(a: float, tol: float = 1e-12) -> IVPResult:
    """Axis-crossing revolution profile with z(0) = a > 0 and z'(0) = 0.

    The profile is a Z(t/a) for the solution Z at a = 1, solved once per tol,
    so z' = Z'(t/a) and z''(0) = Z''(0)/a.  tol bounds the C^1 corrections
    relative to a; an a whose heights or z''(0) overflow raises DomainError.
    """
    if not (math.isfinite(a) and a > 0.0):
        raise ValueError(f"a must be finite and positive, got {a}")
    unit = _unit_picard(tol)
    zpp_origin = unit.zpp_origin / a
    # Z increases, so its last height is the top one
    if not (math.isfinite(a * float(unit.z[-1])) and math.isfinite(zpp_origin)):
        raise DomainError(f"the profile scaled to a = {a} overflows a float")
    return IVPResult(
        a * unit.t, a * unit.z, unit.zp.copy(), iterations=unit.iterations,
        contraction_ratios=list(unit.contraction_ratios), zpp_origin=zpp_origin,
        a=a, radius=a * unit.radius, epsilon=0.5 * a,
    )


@functools.lru_cache(maxsize=4)
def _unit_picard(tol: float) -> IVPResult:
    """The a = 1 profile, iterated from the constant until the C^1 correction
    max|dz| + max|dz'| is below tol; z''(0) is a least-squares fit of z - 1
    against t^2 and t^4 on the inner half.  Callers copy its arrays."""
    if not tol > 0.0:  # false for NaN too; a cached tol skips the check
        raise ValueError(f"tol must be positive, got {tol}")
    t = np.linspace(0.0, PICARD_UNIT_RADIUS, PICARD_NODES)
    profile = IVPResult(t, np.full(t.size, 1.0), np.zeros(t.size))
    ratios: list[float] = []
    prev_diff = None
    for it in range(1, PICARD_MAX_ITER + 1):
        new = operator_T_apply(1.0, profile)
        diff = float(np.max(np.abs(new.z - profile.z)) + np.max(np.abs(new.zp - profile.zp)))
        profile = new
        if prev_diff is not None and prev_diff > 0.0:
            ratio = diff / prev_diff
            ratios.append(ratio)
            if ratio >= 1.0 and diff > 1e3 * np.finfo(float).eps:
                raise NonContractionError(
                    f"correction ratio {ratio:.3f} >= 1 at iteration {it}"
                )
        if diff < tol:
            return replace(profile, iterations=it, contraction_ratios=ratios,
                           zpp_origin=_origin_curvature_fit(profile), radius=PICARD_UNIT_RADIUS)
        prev_diff = diff
    raise MaxIterExceededError(f"no convergence to {tol} within {PICARD_MAX_ITER} iterations")


def _origin_curvature_fit(profile: IVPResult) -> float:
    """z''(0) from a least-squares even-polynomial fit near the origin."""
    t, z = profile.t, profile.z
    cut = t <= 0.5 * t[-1]
    w = float(t[cut][-1])
    s = (t[cut] / w) ** 2
    basis = np.stack([s, s * s], axis=1)
    coef, *_ = np.linalg.lstsq(basis, z[cut] - z[0], rcond=None)
    return 2.0 * float(coef[0]) / w**2
