"""Admissible plane curves in the isotropic plane.

A curve t -> (x(t), z(t)) is admissible when x'(t) never vanishes, i.e. its
tangent is never parallel to the isotropic z-direction.  Curvature here is
kappa = (x' z'' - x'' z') / x'^3; the two transversal unit fields are the
minimal normal (-z'/x', 1) and the parabolic normal
(-z'/x', 1/2 - z'^2/(2 x'^2)), and the relative length element weighs the
usual dt by their Euclidean pairing: (x'/2 + z'^2/(2 x')) dt.  A profile is
any callable t -> (z, z', z''); GraphCurve sweeps one into the curve (t, z(t)).
The closed-form kinds are the rows of PROFILE_KINDS; a ProfileForm's
coefficient names must match its kind's names exactly.
"""

import math
import warnings
from dataclasses import dataclass
from functools import partial
from typing import Callable, NamedTuple

import numpy as np

from .core import IsoVec2, check_finite, write_csv
from .errors import (
    DomainError,
    InvalidIntervalError,
    NonAdmissibleError,
    SingularDenominatorError,
)
from .quadrature import default_panels_1d, simpson_nodes, simpson_samples

# reference lines for weight functionals / catenary families
LZ = "lz"  # the isotropic z-axis; distance to it is the x-coordinate
LX = "lx"  # the non-isotropic x-axis; distance to it is the z-coordinate

ADMISSIBLE_MIN = 1e-9  # |x'| on a curve, |X12| on a surface: the tangent is not isotropic
DENOM_FLOOR = 1e-12  # a weight or ODE denominator below it counts as zero
CHECK_SAMPLES = 129  # nodes of a PlaneCurve's admissibility check


class CurveJet(NamedTuple):
    """Position and first/second derivatives; floats at a point, arrays on a grid."""

    x: float
    z: float
    xd: float
    zd: float
    xdd: float
    zdd: float


def sample_columns(fn, *nodes) -> np.ndarray:
    """``fn`` called once per node with Python floats, one from each of the same-shape
    arrays ``nodes``; its k-tuples stacked into an array of shape (k, *nodes[0].shape)."""
    rows = map(fn, *(node.ravel().tolist() for node in nodes))
    return np.array(list(rows), float).T.reshape(-1, *nodes[0].shape)


def check_orientation(signs, name: str) -> bool:
    """True if every value is negative (run backwards); mixed signs are a NonAdmissibleError."""
    negative = np.count_nonzero(signs < 0.0)
    if 0 < negative < signs.size:
        raise NonAdmissibleError(f"{name} changes sign on the domain")
    return negative == signs.size


def check_admissible(values, name: str) -> None:
    """NonAdmissibleError unless |value| >= ADMISSIBLE_MIN at every node (a NaN node fails)."""
    if np.count_nonzero(abs(values) >= ADMISSIBLE_MIN) != np.size(values):  # NaN is not >=
        smallest = np.fmin.reduce(abs(values), axis=None)  # NaN only if every node is NaN
        raise NonAdmissibleError(f"{name}={smallest} below admissibility threshold")


def check_domain(ts, lo: float, hi: float) -> None:
    """DomainError unless every parameter in ts lies in [lo, hi] up to 1e-12 (NaN never does)."""
    ts = np.asarray(ts, dtype=float)
    ok = (ts >= lo - 1e-12) & (ts <= hi + 1e-12)
    if np.count_nonzero(ok) != ok.size:  # cheaper than ok.all() on a Simpson row
        raise DomainError(f"parameter {ts[~ok].flat[0]} outside [{lo}, {hi}]")


class PlaneCurve:
    """Curve evaluator carrying position and first/second derivatives.

    The evaluator must return (x, z, x', z', x'', z'') at any t in the closed
    domain.  Admissibility (|x'| >= 1e-9) is checked on a sampling grid at
    construction; curves traversed with x' < 0 are reparametrized so that
    x' > 0 everywhere.  ``grid`` is the one caller of the evaluator.
    """

    def __init__(self, t_lo: float, t_hi: float, eval_fn):
        if not (t_lo < t_hi):
            raise InvalidIntervalError(f"empty parameter interval [{t_lo}, {t_hi}]")
        self.t_lo, self.t_hi = float(t_lo), float(t_hi)
        self._eval, self._reversed = eval_fn, False
        xds = _admissible(self.grid(np.linspace(self.t_lo, self.t_hi, CHECK_SAMPLES))).xd
        self._reversed = check_orientation(xds, "x'")  # traverse t -> t_lo + t_hi - t

    @staticmethod
    def graph(t_lo, t_hi, z, zd, zdd) -> "GraphCurve":
        """Curve t -> (t, z(t)) from a profile and its two derivatives."""
        return GraphCurve(t_lo, t_hi, lambda t: (z(t), zd(t), zdd(t)))

    @staticmethod
    def from_functions(t_lo, t_hi, x, z, xd, zd, xdd, zdd) -> "PlaneCurve":
        return PlaneCurve(
            t_lo, t_hi, lambda t: (x(t), z(t), xd(t), zd(t), xdd(t), zdd(t))
        )

    @staticmethod
    def from_samples(t: np.ndarray, z: np.ndarray) -> "GraphCurve":
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

        def profile(s, _t=t, _z=z, _zd=zd, _zdd=zdd):
            return (np.interp(s, _t, _z), np.interp(s, _t, _zd), np.interp(s, _t, _zdd))

        return GraphCurve(t[0], t[-1], profile)

    def grid(self, ts) -> CurveJet:
        """Jets at the 1-d array of nodes ts, one evaluator call per node (``sample_columns``).

        A node outside the domain (or NaN) raises DomainError."""
        ts = np.asarray(ts, dtype=float)
        check_domain(ts, self.t_lo, self.t_hi)
        nodes = self.t_lo + self.t_hi - ts if self._reversed else ts
        x, z, xd, zd, xdd, zdd = sample_columns(self._eval, nodes)
        if self._reversed:
            xd, zd = -xd, -zd
        return CurveJet(x, z, xd, zd, xdd, zdd)

    def at(self, t: float) -> CurveJet:
        """Jet at one point: the one-node grid, fields as floats."""
        return CurveJet(*(f.item() for f in self.grid([t])))

    def sample(self, n: int) -> tuple[np.ndarray, np.ndarray, np.ndarray]:
        """n uniformly spaced (t, x, z) samples over the domain."""
        ts = np.linspace(self.t_lo, self.t_hi, n)
        jet = self.grid(ts)
        return ts, jet.x, jet.z


class GraphCurve(PlaneCurve):
    """Graph t -> (t, z(t)) of a profile t -> (z, z', z'').

    Calling the curve gives the profile jet (z, z', z'') at t, with
    DomainError outside [t_lo, t_hi]; ``profile`` is the unchecked callable,
    which swept surfaces call once per u-node, inside the domain that their grid checks.
    """

    def __init__(self, t_lo: float, t_hi: float, profile):
        self.profile = profile

        def jet(t):  # a closure over profile, not a method: no reference cycle
            z, zd, zdd = profile(t)
            return (t, z, 1.0, zd, 0.0, zdd)

        super().__init__(t_lo, t_hi, jet)

    def __call__(self, t: float):
        check_domain(t, self.t_lo, self.t_hi)
        return self.profile(t)


# Every curve quantity reads a jet that passed the one slope check below; the
# per-point functions read the one-node jet ``curve.at(t)``, whose fields are floats.


def _admissible(jet: CurveJet) -> CurveJet:
    """The jet itself, once ``check_admissible`` passes its x'."""
    check_admissible(jet.xd, "|x'|")
    return jet


def _curvature(j: CurveJet) -> float:
    return (j.xd * j.zdd - j.xdd * j.zd) / j.xd**3


def _parabolic_normal(j: CurveJet):
    s = j.zd / j.xd
    return -s, 0.5 - 0.5 * s * s


def unit_tangent(curve: PlaneCurve, t: float) -> IsoVec2:
    """Unit tangent (sign(x'), z'/x'), normalized by the degenerate metric."""
    j = _admissible(curve.at(t))
    return IsoVec2(math.copysign(1.0, j.xd), j.zd / j.xd)


def curvature(curve: PlaneCurve, t: float) -> float:
    """Signed curvature (x' z'' - x'' z') / x'^3."""
    return _curvature(_admissible(curve.at(t)))


def minimal_normal(curve: PlaneCurve, t: float) -> IsoVec2:
    """Minimal normal (-z'/x', 1): quarter rotation of the tangent over x'."""
    j = _admissible(curve.at(t))
    return IsoVec2(-j.zd / j.xd, 1.0)


def parabolic_normal(curve: PlaneCurve, t: float) -> IsoVec2:
    """Parabolic (relative) normal (-z'/x', 1/2 - z'^2/(2 x'^2))."""
    return IsoVec2(*_parabolic_normal(_admissible(curve.at(t))))


def relative_arclength(
    curve: PlaneCurve, a: float, b: float, panels: int | None = None
) -> float:
    """Relative length of the arc over [a, b]: integral of x'/2 + z'^2/(2 x')."""
    if a >= b:
        raise InvalidIntervalError(f"need a < b, got [{a}, {b}]")
    ts, h = simpson_nodes(a, b, default_panels_1d() if panels is None else panels)
    j = _admissible(curve.grid(ts))
    sq = np.float_power(j.zd, 2)  # rounds like scalar zd**2; array zd**2 does not
    return simpson_samples(0.5 * j.xd + 0.5 * sq / j.xd, h)


class ProfileKind(NamedTuple):
    names: tuple[str, ...]  # coefficient names, in the order gap and jet take their values
    gap: Callable | None  # gap(*values, t): true where the formulas are undefined
    jet: Callable  # jet(*values, t) -> (z, z', z'')


def _poly_jet(a, t):  # Horner's rule in Python floats: an overflow gives inf, not a warning
    z = zd = zdd = 0.0
    for c in reversed(a):
        z, zd, zdd = z * t + float(c), zd * t + z, zdd * t + 2.0 * zd
    return z, zd, zdd


PROFILE_KINDS = {
    "log": ProfileKind(
        ("c", "d"), lambda c, d, t: t <= 0.0,
        lambda c, d, t: (c * math.log(t) + d, c / t, -c / t**2),
    ),
    "power": ProfileKind(  # gaps: a fractional power of t < 0; t**(p - 2) at 0 for p < 2
        ("c", "p", "d"),
        lambda c, p, d, t: (t < 0.0 and p % 1.0 != 0.0) or (t == 0.0 and p < 2.0),
        lambda c, p, d, t: (c * t**p + d, c * p * t ** (p - 1), c * p * (p - 1) * t ** (p - 2)),
    ),
    "inverse_radius": ProfileKind(
        ("z1", "z2"), lambda z1, z2, t: t == 0.0,
        lambda z1, z2, t: (z1 + z2 / t, -z2 / t**2, 2.0 * z2 / t**3),
    ),
    "log_parabola": ProfileKind(
        ("quad", "z1", "z2"), lambda q, z1, z2, t: t <= 0.0,
        lambda q, z1, z2, t: (
            q * t**2 + z2 * math.log(t) + z1, 2.0 * q * t + z2 / t, 2.0 * q - z2 / t**2
        ),
    ),
    "quadratic": ProfileKind(
        ("quad", "z1"), None, lambda q, z1, t: (q * t**2 + z1, 2.0 * q * t, 2.0 * q)
    ),
    "poly": ProfileKind(("a",), None, _poly_jet),
}


@dataclass(frozen=True)
class ProfileForm:
    """Closed-form profile z(t): a kind of ``PROFILE_KINDS`` and its coefficients.

    Kinds: ``log`` c*ln(t) + d; ``power`` c*t^p + d; ``inverse_radius``
    z1 + z2/t; ``log_parabola`` quad*t^2 + z2*ln(t) + z1; ``quadratic``
    quad*t^2 + z1; ``poly`` sum of a[k]*t^k.  The coefficient names must be
    exactly the kind's; other names, an unknown kind and non-finite values
    are ValueErrors, and a t where the formulas are undefined or overflow is a
    DomainError.
    """

    kind: str
    coefficients: dict

    def __post_init__(self):
        if self.kind not in PROFILE_KINDS:
            raise ValueError(f"unknown profile kind {self.kind!r}")
        names, gap, jet = PROFILE_KINDS[self.kind]
        if set(self.coefficients) != set(names):
            got = tuple(self.coefficients)
            raise ValueError(f"{self.kind} profile needs coefficients {names}, got {got}")
        values = tuple(self.coefficients[name] for name in names)
        if self.kind == "poly" and np.ndim(values[0]) != 1:
            raise ValueError(f"poly profile needs a sequence of coefficients a, got {values[0]!r}")
        if not all(np.all(np.isfinite(v)) for v in values):
            raise ValueError(f"non-finite coefficient in {self.kind} profile {self.coefficients}")
        object.__setattr__(self, "_gap", gap and partial(gap, *values))
        object.__setattr__(self, "_jet", partial(jet, *values))

    def __call__(self, t: float) -> tuple[float, float, float]:
        if self._gap is not None and self._gap(t):
            raise DomainError(f"{self.kind} profile is undefined at t={t}")
        try:  # a float t, not np.float64, so that a power overflow raises, not warns
            z, zd, zdd = self._jet(float(t))
            if math.isfinite(z) and math.isfinite(zd) and math.isfinite(zdd):
                return z, zd, zdd
        except (OverflowError, ZeroDivisionError):
            pass  # ** raises on overflow where * gives an infinity; / raises once t**2 underflows
        raise DomainError(f"{self.kind} profile overflows at t={t}")

    def __reduce__(self):  # the bound gap and jet do not pickle; kind and coefficients do
        return ProfileForm, (self.kind, self.coefficients)

    def plane_curve(self, t_lo: float, t_hi: float) -> GraphCurve:
        return GraphCurve(t_lo, t_hi, self)

    def to_json_dict(self) -> dict:
        return {"kind": self.kind, "coefficients": dict(self.coefficients)}


@dataclass(frozen=True)
class CatenaryFamily:
    """Closed-form critical profiles of the weighted-length functionals.

    With respect to the isotropic axis (reference ``LZ``) the solutions are
    z = c*ln(t - lam) + d for alpha = 1 and z = c*t**(1-alpha) + d (lam = 0)
    for alpha not in {0, 1}, evaluated as ``form``, the ``log`` or ``power``
    ProfileForm, at t - lam.  At alpha = 1 the exponent p = 1 - alpha vanishes and
    the family turns to the log, since ln t is the limit of (t**p - 1)/p as p -> 0.
    Profiles for the non-isotropic axis (``LX``) have no elementary closed form, so
    that reference is a ValueError here; they live in :mod:`isokit.odes`.
    """

    reference: str = LZ
    alpha: float = 1.0
    c: float = 1.0
    d: float = 0.0
    lam: float = 0.0

    def __post_init__(self):
        if self.reference == LX:
            raise ValueError("no closed form for the non-isotropic reference; integrate the "
                             "profile ODE from isokit.odes instead")
        if self.reference != LZ:
            raise ValueError(f"unknown reference line {self.reference!r}")
        if self.alpha == 0.0:
            raise ValueError(
                "alpha = 0 has a degenerate weight; use the variational module"
            )
        check_finite(lam=self.lam)  # ProfileForm checks alpha, c and d
        if self.alpha != 1.0 and self.lam != 0.0:
            raise ValueError("lam must be 0 unless alpha = 1")
        if self.alpha == 1.0:
            form = ProfileForm("log", {"c": self.c, "d": self.d})
        else:
            form = ProfileForm("power", {"c": self.c, "p": 1.0 - self.alpha, "d": self.d})
        object.__setattr__(self, "form", form)

    def __call__(self, t: float) -> tuple[float, float, float]:
        """(z, z', z'') at t; DomainError outside the family domain."""
        s = t - self.lam
        if s <= 0.0:
            raise DomainError(f"t - lam = {s} <= 0")
        return self.form(s)

    def plane_curve(self, t_lo: float, t_hi: float) -> GraphCurve:
        """Graph curve (t, z(t)) of this family over [t_lo, t_hi]."""
        return GraphCurve(t_lo, t_hi, self)


def check_weight_base(base, alpha: float, lowest: float, name: str) -> None:
    """DomainError where a weight power base**e is undefined for an exponent e the
    caller evaluates, alpha down to ``lowest``: a non-integer alpha at base <= 0, or
    a negative e at base == 0.  ``base`` is a float or an array of weight bases."""
    anywhere = np.ndarray.any if isinstance(base, np.ndarray) else bool
    if alpha != round(alpha) and anywhere(base <= 0.0):
        raise DomainError(f"non-integer exponent needs {name} > 0")
    if lowest < 0.0 and anywhere(base == 0.0):
        raise DomainError("negative exponent with zero weight base")


def weight_powers(base: float, alpha: float, lam: float, name: str, where: str):
    """(base**alpha - lam, alpha * base**(alpha - 1)) at the float weight base ``name``,
    after ``check_weight_base``; a power that overflows is a DomainError at ``where``."""
    check_weight_base(base, alpha, alpha - 1.0, name)
    try:  # a float power that overflows raises, as in ProfileForm
        return base**alpha - lam, alpha * base ** (alpha - 1.0)
    except OverflowError:
        raise DomainError(f"weight power overflows at {where}") from None


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
    check_finite(alpha=alpha, lam=lam)
    j = _admissible(curve.at(t))
    npar_x, npar_z = _parabolic_normal(j)
    if reference == LZ:
        base, pairing, name = j.x, npar_x, "x"
    elif reference == LX:
        base, pairing, name = j.z, npar_z, "z"
    else:
        raise ValueError(f"unknown reference line {reference!r}")
    denom, wp = weight_powers(base, alpha, lam, name, f"{name}={base} (t={t})")
    if abs(denom) < DENOM_FLOOR:
        raise SingularDenominatorError(
            f"weight denominator {denom} at t={t} is numerically zero"
        )
    return _curvature(j) - wp * pairing / denom


def write_curve_csv(path, t: np.ndarray, x: np.ndarray, z: np.ndarray) -> None:
    """Write samples as `t,x,z` rows with 17 significant digits."""
    write_csv(path, "t,x,z", (t, x, z))


def read_curve_csv(path) -> GraphCurve:
    """Re-import a `t,x,z` CSV as a sampled graph curve; too few rows are a ValueError."""
    with warnings.catch_warnings():  # no data rows is the ValueError below, not also a warning
        warnings.filterwarnings("ignore", "loadtxt: input contained no data", UserWarning)
        t, z = np.loadtxt(path, delimiter=",", skiprows=1, usecols=(0, 2), ndmin=2).T
    return PlaneCurve.from_samples(t, z)
