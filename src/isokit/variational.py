"""Discrete weighted-length functionals over graph curves and their minimizers.

A profile z(t) with fixed endpoints is weighed by w(t) = t**alpha - lam
(isotropic reference axis) or w(z) = z**alpha - lam (non-isotropic axis)
against the relative length element (1 + z'^2)/2 dt:

    F[z] = sum_i h_i * (w_i + w_{i+1})/2 * (1 + zdot_i^2)/2,

with zdot_i the forward difference on cell i.  The cells are formed once, for the value,
the gradient and both minimizers, and each weight is halved before the sum, so two weights
near the float max give a finite cell weight.  The gradient is the exact derivative of this
discrete functional with the endpoints eliminated.  On the isotropic axis it vanishes where
the flux (w_i + w_{i+1})/2 * zdot_i is one constant, so minimize sums h_i over the cell
weight: the minimizer for a positive weight, the maximizer for a negative one.  The other
axis runs damped Newton; a zero pivot of the cyclic reduction, or no damping that lowers
the gradient, raises NoConvergenceError, and a Newton step that overflows raises DomainError.
Critical profiles satisfy the continuum equations
alpha*t**(alpha-1)*z' + (t**alpha - lam)*z'' = 0 and
(z**alpha - lam)*z'' = alpha*z**(alpha-1)*(1 - z'^2)/2 respectively.
"""

import math
from dataclasses import dataclass

import numpy as np

from .core import check_finite
from .curves import LX, LZ, check_weight_base, weight_powers
from .errors import DomainError, NoConvergenceError, SingularDenominatorError

MAX_ITER = 10_000  # Newton steps of minimize
TOL_SCALE = 1e-10  # minimize stops once max|gradient| < TOL_SCALE * n


@dataclass(frozen=True)
class WeightFunctionalSpec:
    reference: str = LZ
    alpha: float = 1.0
    lam: float = 0.0

    def __post_init__(self):
        if self.reference not in (LZ, LX):
            raise ValueError(f"unknown reference line {self.reference!r}")
        check_finite(alpha=self.alpha, lam=self.lam)


@dataclass
class DiscreteCurve:
    """Profile samples z on a strictly increasing grid t."""

    grid: np.ndarray
    values: np.ndarray

    def __post_init__(self):
        self.grid = np.asarray(self.grid, dtype=float)
        self.values = np.asarray(self.values, dtype=float)
        if self.grid.ndim != 1 or self.grid.size < 3:
            raise ValueError("grid must be 1-d with at least 3 nodes")
        if self.grid.shape != self.values.shape:
            raise ValueError("grid and values must have equal length")
        if np.any(np.diff(self.grid) <= 0):
            raise ValueError("grid must be strictly increasing")


def _cells(spec, t, z):
    """Cell widths h, slopes zdot, elements q = (1 + zdot^2)/2, node powers (w, w', w'') and
    cell weights, each halved before the sum so that two weights near the float max fit."""
    h = np.diff(t)
    zdot = np.diff(z) / h
    base, name = (t, "t") if spec.reference == LZ else (z, "z")
    # checking alpha covers LX's alpha - 1 and alpha - 2: for an integer alpha they are
    # negative only where alpha is, or unused, and a fractional alpha needs base > 0
    check_weight_base(base, spec.alpha, spec.alpha, name)
    w = base**spec.alpha - spec.lam
    wp = wpp = np.zeros_like(base)
    if spec.reference == LX and spec.alpha != 0.0:  # at alpha 0 the weight is constant
        wp = spec.alpha * base ** (spec.alpha - 1.0)
        if spec.alpha != 1.0:
            wpp = spec.alpha * (spec.alpha - 1.0) * base ** (spec.alpha - 2.0)
    return h, zdot, 0.5 * (1.0 + zdot**2), (w, wp, wpp), 0.5 * w[:-1] + 0.5 * w[1:]


@np.errstate(all="ignore")  # a value that overflows is named below, not warned
def evaluate_functional(
    spec: WeightFunctionalSpec, curve: DiscreteCurve, relative: bool = True
) -> float:
    """Discrete weighted length of the profile.

    With ``relative=False`` the plain length element dt replaces the relative
    one; for the isotropic axis the value then depends on the endpoints only.
    """
    h, _, q, _, cell_w = _cells(spec, curve.grid, curve.values)
    value = float(np.sum(h * cell_w * q if relative else h * cell_w))
    if not math.isfinite(value):
        raise DomainError(f"functional value overflows to {value}")
    return value


@np.errstate(all="ignore")  # a gradient that overflows is a named DomainError, not warned
def functional_gradient(spec: WeightFunctionalSpec, curve: DiscreteCurve) -> np.ndarray:
    """Exact gradient of the discrete functional at the interior nodes."""
    return _gradient_hessian(spec, curve.grid, curve.values)[0]


def _gradient_hessian(spec, t, z):
    """Gradient plus the tridiagonal Hessian bands at the interior nodes."""
    h, zdot, q, powers, cell_w = _cells(spec, t, z)
    _, wp, wpp = powers
    grad = cell_w[:-1] * zdot[:-1] - cell_w[1:] * zdot[1:]
    grad += 0.5 * wp[1:-1] * (h[:-1] * q[:-1] + h[1:] * q[1:])
    if not np.isfinite(grad).all():
        _name_overflow(spec, t, z, powers, q)
        raise DomainError("gradient of the discrete functional overflows")
    diag = (
        0.5 * wpp[1:-1] * (h[:-1] * q[:-1] + h[1:] * q[1:])
        + wp[1:-1] * (zdot[:-1] - zdot[1:])
        + cell_w[:-1] / h[:-1]
        + cell_w[1:] / h[1:]
    )
    # sub/super band between interior nodes j and j+1
    off = 0.5 * (wp[1:-2] - wp[2:-1]) * zdot[1:-1] - cell_w[1:-1] / h[1:-1]
    return grad, diag, off


def _name_overflow(spec, t, z, powers, q):
    """Raise a DomainError at the first weight power, else slope square, that is not finite."""
    base, name = (t, "t") if spec.reference == LZ else (z, "z")
    bad = np.flatnonzero(~np.isfinite(powers).all(axis=0))
    if bad.size:
        raise DomainError(f"weight power overflows at {name}={base[bad[0]]}")
    bad = np.flatnonzero(~np.isfinite(q))
    if bad.size:
        raise DomainError(f"slope square overflows at t={t[bad[0]]}")


def _solve_tridiagonal(diag, off, rhs):
    """Solution of the symmetric tridiagonal system (diagonal ``diag``, both off-diagonals
    ``off``) for ``rhs`` by odd-even cyclic reduction: each level eliminates the odd unknowns
    with whole-array operations, halving the system, and the back-substitution restores them.
    Only a pivot that is exactly 0.0 (an odd diagonal entry of a level, or the last one left)
    raises ZeroDivisionError; non-finite bands give a non-finite solution.
    """
    a, b, r = (np.asarray(v, dtype=float) for v in (diag, off, rhs))
    levels = []
    while a.size > 1:
        ao, bl, br, ro = a[1::2], b[0::2], b[1::2], r[1::2]  # odd rows: pivot, couplings, rhs
        if not ao.all():
            raise ZeroDivisionError("zero pivot in tridiagonal solve")
        levels.append((ao, bl, br, ro))
        u, v = bl / ao, br / ao[: br.size]
        a, r, b = a[0::2].copy(), r[0::2].copy(), -u[: br.size] * br
        a[: u.size] -= u * bl
        a[1 : v.size + 1] -= v * br
        r[: u.size] -= u * ro
        r[1 : v.size + 1] -= v * ro[: v.size]
    if not a.all():
        raise ZeroDivisionError("zero pivot in tridiagonal solve")
    x = r / a
    for ao, bl, br, ro in reversed(levels):
        odd = ro - bl * x[: ao.size]
        odd[: br.size] -= br * x[1 : br.size + 1]
        x, even = np.empty(x.size + ao.size), x
        x[0::2], x[1::2] = even, odd / ao
    return x


def _check_weight_sign(t, w):
    """Raise where the isotropic-axis weight vanishes or changes sign on the grid."""
    zero = np.flatnonzero(w == 0.0)
    if zero.size:
        i = int(zero[0])
        raise SingularDenominatorError(
            f"weight t**alpha - lam vanishes at grid node {i} (t={float(t[i])!r})"
        )
    positive = w > 0.0
    flip = np.flatnonzero(positive[1:] != positive[:-1])
    if flip.size:
        i = int(flip[0])
        raise SingularDenominatorError(
            f"weight t**alpha - lam changes sign between grid nodes {i} and {i + 1} "
            f"(t={float(t[i])!r} and {float(t[i + 1])!r})"
        )


@np.errstate(all="ignore")  # an overflow is a named DomainError, not a warning
def minimize(
    spec: WeightFunctionalSpec, endpoints: tuple[float, float, float, float], n: int
) -> DiscreteCurve:
    """Profile with fixed endpoints driving the interior gradient to zero.

    ``endpoints`` is (t_a, z_a, t_b, z_b); ``n >= 2`` counts the grid cells.  For the
    isotropic axis a weight t**alpha - lam that vanishes or changes sign on the grid raises
    SingularDenominatorError; else the curve is the constant-flux critical profile, exact to
    rounding at any scale: the minimizer for a positive weight, the maximizer for a negative
    one.  For the other axis it satisfies max|gradient| < TOL_SCALE * n within MAX_ITER
    damped Newton steps; a Newton system that overflows raises DomainError.
    """
    t_a, z_a, t_b, z_b = endpoints
    check_finite(t_a=t_a, z_a=z_a, t_b=t_b, z_b=z_b)
    if not t_a < t_b:
        raise ValueError("need t_a < t_b")
    if n < 2:
        raise ValueError(f"need n >= 2 grid cells, got n={n}")
    t = np.linspace(t_a, t_b, n + 1)
    z = np.linspace(z_a, z_b, n + 1)
    if spec.reference == LZ:  # the flux cell weight * zdot is one constant along the profile
        h, _, q, powers, cell_w = _cells(spec, t, z)
        _check_weight_sign(t, powers[0])
        _name_overflow(spec, t, z, powers[:1], q)  # w' and w'' are 0 on this axis
        # the profile sees only ratios of h / cell weight: their mantissa quotients over one
        # exact power of two keep every cell weight, quotient and partial sum in range
        mh, eh = np.frexp(h)
        mw, ew = np.frexp(cell_w)
        s = np.cumsum(np.ldexp(mh / mw, (eh - ew) - np.max(eh - ew)))
        z[1:-1] = z_a + (z_b - z_a) * (s[:-1] / s[-1])
        return DiscreteCurve(t, z)

    tol = TOL_SCALE * n
    grad, diag, off = _gradient_hessian(spec, t, z)
    for _ in range(MAX_ITER + 1):
        gn = float(np.max(np.abs(grad)))
        if gn < tol:
            return DiscreteCurve(t, z)
        try:
            step = _solve_tridiagonal(diag, off, -grad)
        except ZeroDivisionError:
            msg = f"zero pivot in the Newton system at gradient norm {gn:.3e}"
            raise NoConvergenceError(msg) from None
        for damping in (1.0, 0.5, 0.25, 0.125, 0.0625):
            trial = z.copy()
            trial[1:-1] += damping * step
            try:
                trial_bands = _gradient_hessian(spec, t, trial)
            except DomainError:  # a domain error or an overflow at the trial profile
                continue
            if float(np.max(np.abs(trial_bands[0]))) < gn:
                z = trial
                grad, diag, off = trial_bands
                break
        else:  # a step that is not finite (a band cell_w / h past the float max) fails each rung
            if not np.isfinite(step).all():
                raise DomainError("Newton system of the discrete functional overflows")
            raise NoConvergenceError(f"no descent step found at gradient norm {gn:.3e}")
    raise NoConvergenceError(f"gradient norm still above {tol:.3e} after {MAX_ITER} iterations")


def el_residual(spec: WeightFunctionalSpec, profile, t: float) -> float:
    """Left-minus-right of the critical-profile equation at t.

    ``profile`` is any profile t -> (z, z', z''): a ProfileForm, a
    CatenaryFamily, a GraphCurve or a plain callable.  For the isotropic axis the equation is
    alpha*t**(alpha-1)*z' + (t**alpha - lam)*z'' = 0; for the non-isotropic
    axis it is (z**alpha - lam)*z'' - alpha*z**(alpha-1)*(1 - z'^2)/2 = 0.
    """
    z, zd, zdd = profile(t)
    if spec.reference == LZ:
        w, wp = weight_powers(t, spec.alpha, spec.lam, "t", f"t={t}")
        return wp * zd + w * zdd
    w, wp = weight_powers(z, spec.alpha, spec.lam, "z", f"z={z} (t={t})")
    try:  # the slope square overflows like the weight powers
        return w * zdd - wp * 0.5 * (1.0 - zd**2)
    except OverflowError:
        raise DomainError(f"slope square overflows at t={t}") from None


def lambda_sweep(
    reference: str,
    alpha: float,
    lambdas,
    endpoints: tuple[float, float, float, float],
    n: int,
) -> list[dict]:
    """Minimize for each multiplier value; report value and relative length.

    The multiplier enters the weight as a given constant, so constraining the
    relative length to a target reduces to scanning this table.
    """
    unit_weight = WeightFunctionalSpec(LZ, 0.0, 0.0)  # t**0: sum of h*(1 + zdot^2)/2
    out = []
    for lam in lambdas:
        spec = WeightFunctionalSpec(reference=reference, alpha=alpha, lam=lam)
        curve = minimize(spec, endpoints, n)
        out.append(
            {
                "lam": float(lam),
                "curve": curve,
                "value": evaluate_functional(spec, curve),
                "relative_length": evaluate_functional(unit_weight, curve),
            }
        )
    return out
