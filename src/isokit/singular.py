"""Singular minimal surfaces: residuals, boundary solving, classification.

A surface hanging against a reference plane is singular minimal when its mean
curvature H equals alpha times the parabolic-normal component orthogonal to
the plane over twice the (signed) distance to it.  For the isotropic plane
x = 0 the pairing uses the degenerate metric and the distance is the
x-coordinate; for the non-isotropic plane z = 0 it uses the secondary metric
and the z-coordinate.  Surfaces are assumed to stay in the positive
half-space of whichever plane is referenced.

Invariant surfaces admit a complete case analysis: helicoidal motion is
incompatible with the hanging condition unless the pitch vanishes; a surface
of revolution then has profile z1 + z2/t (isotropic reference) or solves the
revolution profile ODE (non-isotropic reference).  Parabolic-revolution
surfaces split by whether the group translates along x, subject to the
constraints c1 = 0 respectively a*c2 + 2*b*c1 = 0, and constant-mean-curvature
members are parabolic quadrics typed by the sign of
2*(a*c1 + b*c2)*H0 - (c1^2 + c2^2).
"""

import math
from dataclasses import dataclass, field
from typing import NamedTuple

import numpy as np

from .core import check_finite
from .curves import DENOM_FLOOR, LZ, CatenaryFamily, ProfileForm
from .errors import InvalidRadiusError, SingularDenominatorError
from .odes import ProfileODE
from .surfaces import (
    ParabolicRevolutionSpec,
    ParamSurface,
    RevolutionSpec,
    SurfaceJet,
    jet_mean_curvature,
    jet_parabolic_normal,
    make_parabolic_revolution,
    make_revolution,
    point_values,
)

PI_YZ = "yz"  # isotropic reference plane x = 0
PI_XY = "xy"  # non-isotropic reference plane z = 0
CHECK_GRID = (50, 16)  # u x v nodes of a hanging-condition check, spanning the swept surface


@dataclass(frozen=True)
class SingularSpec:
    reference: str = PI_YZ
    alpha: float = 1.0
    lam: float = 0.0

    def __post_init__(self):
        if self.reference not in (PI_YZ, PI_XY):
            raise ValueError(f"unknown reference plane {self.reference!r}")
        check_finite(alpha=self.alpha, lam=self.lam)


def jet_sms_residual(jet: SurfaceJet, spec: SingularSpec):
    """H minus alpha * <n_par, axis> / (2 * (distance - lam)) at every node of the jet."""
    h = jet_mean_curvature(jet)
    axis = 0 if spec.reference == PI_YZ else 2  # x for the plane x = 0, z for z = 0
    dist, pairing = jet.r[..., axis], jet_parabolic_normal(jet)[axis]
    if np.any(dist <= 0.0):
        raise SingularDenominatorError(
            f"point distance {np.nanmin(dist)} leaves the positive half-space"
        )
    denom = dist - spec.lam
    if np.any(np.abs(denom) < DENOM_FLOOR):
        raise SingularDenominatorError(f"weight denominator {np.nanmin(np.abs(denom))} vanished")
    return h - spec.alpha * pairing / (2.0 * denom)


def sms_residual(surface: ParamSurface, spec: SingularSpec, u: float, v: float) -> float:
    """H minus alpha * <n_par, axis> / (2 * (distance - lam)) at (u, v)."""
    return point_values("SMS residual", lambda jet: jet_sms_residual(jet, spec), surface, u, v)[0]


# ---------------------------------------------------------------------------
# Catenoid boundary problem


@dataclass(frozen=True)
class CatenoidBoundary:
    """Coaxial boundary circles (radius, height) for a revolution surface."""

    r1: float
    z1: float
    r2: float
    z2: float

    def __post_init__(self):
        if not all(map(math.isfinite, (self.r1, self.z1, self.r2, self.z2))):
            raise ValueError("boundary circle radii and heights must be finite")
        if self.r1 <= 0.0 or self.r2 <= 0.0:
            raise InvalidRadiusError("boundary circle radii must be positive")


@dataclass(frozen=True)
class CatenoidSolution:
    status: str  # "unique" | "no_solution" | "degenerate"
    c: float | None = None
    d: float | None = None


def solve_catenoid_boundary(boundary: CatenoidBoundary) -> CatenoidSolution:
    """Logarithmic profile c*ln(t) + d through both boundary circles.

    Distinct radii give the unique pair (c, d); equal radii with different
    heights are unsolvable, and a repeated circle leaves c unconstrained
    (reported as degenerate rather than picking one).
    """
    r1, z1, r2, z2 = boundary.r1, boundary.z1, boundary.r2, boundary.z2
    if r1 == r2:
        if z1 == z2:
            return CatenoidSolution("degenerate")
        return CatenoidSolution("no_solution")
    q = r2 / r1  # 0 or inf for far-apart radii; only there are the two logs subtracted
    c = (z2 - z1) / (math.log(q) if 0.0 < q < math.inf else math.log(r2) - math.log(r1))
    d = z1 - c * math.log(r1)
    return CatenoidSolution("unique", c, d)


# ---------------------------------------------------------------------------
# Classification reports


@dataclass
class ClassificationReport:
    case: str
    parameters: dict = field(default_factory=dict)
    constraints: list = field(default_factory=list)
    profile: ProfileForm | None = None
    ode: ProfileODE | None = None

    def to_json_dict(self) -> dict:
        return {
            "case": self.case,
            "parameters": dict(self.parameters),
            "constraints": [
                {"name": name, "residual": float(res)} for name, res in self.constraints
            ],
            "profile": self.profile.to_json_dict() if self.profile else None,
        }


def max_sms_residual(surface, spec, t_vals, theta_vals) -> float:
    """Max |sms_residual| over the grid t_vals x theta_vals; NaN if any is NaN.

    A classification's grid is ``surface.nodes(*CHECK_GRID)``, spanning the swept surface;
    ``classify_helicoidal`` reduces its own jet there alike, as it also reads its radial ODE
    from it.  An overflowing jet or residual gives an inf or NaN maximum, no numpy warning."""
    with np.errstate(all="ignore"):
        return float(np.max(np.abs(jet_sms_residual(surface.grid(t_vals, theta_vals), spec))))


def classify_helicoidal(
    pitch: float, reference: str, z1: float = 0.0, z2: float = 1.0
) -> ClassificationReport:
    """Case analysis for helicoidal hanging surfaces.

    Any non-zero pitch makes the hanging condition impossible (the angular
    and radial parts of the residual are independent), so genuine solutions
    are surfaces of revolution: profile z1 + z2/t for the isotropic reference,
    or the revolution profile ODE for the non-isotropic one.  ``z1``/``z2``
    instantiate the reported family, checked on one CHECK_GRID jet: the radial ODE
    2 z' + t z'' from the z-components of r_u and r_uu, and the SMS residual.
    """
    spec = SingularSpec(reference)  # checks the reference
    check_finite(pitch=pitch, z1=z1, z2=z2)
    if pitch != 0.0:
        name = "sin_theta_coefficient" if reference == PI_YZ else "theta_coefficient"
        value = -pitch if reference == PI_YZ else pitch
        return ClassificationReport(
            case="NoHelicoidal",
            parameters={"pitch": pitch, "reference": reference},
            constraints=[(name, value)],
        )
    if reference == PI_XY:
        ode = ProfileODE.revolution_nonisotropic()
        return ClassificationReport(
            case="NonIsotropicODE",
            parameters={"pitch": 0.0, "reference": reference, "ode_kind": ode.kind},
            constraints=[("theta_coefficient", 0.0)],
            ode=ode,
        )
    form = ProfileForm("inverse_radius", {"z1": z1, "z2": z2})
    # |theta| <= 1.25 keeps x = t cos(theta) positive
    surface = make_revolution(RevolutionSpec(form.plane_curve(0.55, 2.95)), -1.25, 1.25)
    t_vals, th_vals = surface.nodes(*CHECK_GRID)
    jet = surface.grid(t_vals, th_vals)  # X12 = t > 0, so r_u and r_uu carry z' and z'' as z
    with np.errstate(all="ignore"):  # as in max_sms_residual: a NaN node gives a NaN maximum
        radial, sms = (float(np.max(np.abs(r))) for r in (
            2.0 * jet.ru[:, 0, 2] + t_vals * jet.ruu[:, 0, 2], jet_sms_residual(jet, spec)))
    return ClassificationReport(
        case="HorizontalPlane" if z2 == 0.0 else "EuclideanRevolutionInverse",
        parameters={"pitch": 0.0, "reference": reference, "z1": z1, "z2": z2},
        constraints=[("radial_ode_max_abs", radial), ("sms_residual_max_abs", sms)],
        profile=form,
    )


def classify_parabolic_revolution(
    a: float, b: float, c: float, c1: float, c2: float, reference: str,
    z1: float = 0.0, z2: float = 1.0,
) -> ClassificationReport:
    """Case analysis for hanging surfaces of parabolic revolution.

    Isotropic reference: a = 0 requires c1 = 0 and yields the log-parabola
    profile -c2/(4b) t^2 + z2 ln(t) + z1; a != 0 requires a*c2 + 2*b*c1 = 0
    and yields the quadratic c1/(2a) t^2 + z1.  Non-isotropic reference:
    c = c1 = 0 with the profile tied to a second-order ODE.  Violated
    constraints are reported by name with their residual.
    """
    check_finite(a=a, b=b, c=c, c1=c1, c2=c2, z1=z1, z2=z2)
    if b == 0.0:
        raise ValueError("parabolic revolution needs b != 0")
    spec = SingularSpec(reference)  # checks the reference
    params = {"a": a, "b": b, "c": c, "c1": c1, "c2": c2, "reference": reference}

    if reference == PI_XY:
        violated = [(name, x) for name, x in (("c", c), ("c1", c1)) if abs(x) > 1e-12]
        if violated:
            return ClassificationReport("NoSolution", params, violated)
        ode = ProfileODE.parabolic_nonisotropic(a, b, c2)
        return ClassificationReport(
            case="ParabolicNonIsotropic",
            parameters={**params, "ode_kind": ode.kind},
            constraints=[("c", 0.0), ("c1", 0.0)],
            ode=ode,
        )

    if a == 0.0:  # case 1a: c1 = 0, the log-parabola
        case, name, gate = "ParabolicCase1a", "c1", c1
        ok = abs(c1) <= 1e-12
        kind, coefficients = "log_parabola", {"quad": -c2 / (4.0 * b), "z1": z1, "z2": z2}
    else:  # case 1b: a*c2 + 2*b*c1 = 0, the quadratic; an overflowed gate counts as violated
        case, name, gate = "ParabolicCase1b", "a*c2 + 2*b*c1", a * c2 + 2.0 * b * c1
        ok = math.isfinite(gate) and abs(gate) <= 1e-12 * max(1.0, abs(a * c2), abs(2.0 * b * c1))
        kind, coefficients = "quadratic", {"quad": c1 / (2.0 * a), "z1": z1}
    if not ok:
        return ClassificationReport("NoSolution", params, [(name, gate)])
    form = ProfileForm(kind, coefficients)
    # t >= 0.8 and |a theta| <= 0.4 keep x = a theta + t positive
    theta = 0.95 * (1.0 if a == 0.0 else min(1.0, 0.4 / abs(a)))
    sweep = ParabolicRevolutionSpec(a, b, c, c1, c2, form.plane_curve(0.8 + 0.05, 2.4 - 0.05))
    surface = make_parabolic_revolution(sweep, -theta, theta)
    res = max_sms_residual(surface, spec, *surface.nodes(*CHECK_GRID))
    return ClassificationReport(
        case=case,
        parameters={**params, "z2": 0.0, **form.coefficients},
        constraints=[(name, gate), ("sms_residual_max_abs", res)],
        profile=form,
    )


# ---------------------------------------------------------------------------
# Quadric typing of constant-mean-curvature parabolic-revolution surfaces


class QuadricClass(NamedTuple):
    kind: str  # "EllipticParaboloid" | "ParabolicCylinder" | "HyperbolicParaboloid"
    discriminant: float


def quadric_type(a: float, b: float, c1: float, c2: float, h0: float) -> QuadricClass:
    """Type of the CMC parabolic quadric by the sign of its discriminant."""
    check_finite(a=a, b=b, c1=c1, c2=c2, h0=h0)
    if b == 0.0:
        raise ValueError("quadric typing needs b != 0")
    lam = 2.0 * (a * c1 + b * c2) * h0 - (c1**2 + c2**2)
    scale = max(1.0, abs(2.0 * (a * c1 + b * c2) * h0), c1**2 + c2**2)
    if lam > 1e-12 * scale:
        kind = "EllipticParaboloid"
    elif lam < -1e-12 * scale:
        kind = "HyperbolicParaboloid"
    else:
        kind = "ParabolicCylinder"
    return QuadricClass(kind, lam)


def cmc_profile_coefficient(a: float, b: float, c1: float, c2: float, h0: float) -> float:
    """Quadratic profile coefficient z2 giving constant mean curvature h0."""
    if b == 0.0:
        raise ValueError("needs b != 0")
    return (a * c1 - b * c2 + 2.0 * b**2 * h0) / (2.0 * (a**2 + b**2))


def cmc_quadric_coefficients(
    a: float, b: float, c: float, c1: float, c2: float, z0: float, z1: float, z2: float
):
    """(A, B, C, D, E) of the implicit quadric z - z0 = A x^2 + 2 B xy + C y^2 + D x + E y

    swept from the profile z0 + z1 t + z2 t^2.  A + C is the mean curvature of
    the quadric graph.
    """
    del z0
    if b == 0.0:
        raise ValueError("needs b != 0")
    return (
        z2,
        (c1 - 2.0 * a * z2) / (2.0 * b),
        (2.0 * a**2 * z2 - a * c1 + b * c2) / (2.0 * b**2),
        z1,
        (c - a * z1) / b,
    )


# ---------------------------------------------------------------------------
# Weighted revolution surfaces against the isotropic plane


@dataclass(frozen=True)
class AlphaRevolutionLink:
    """Revolution surfaces hanging with weight exponent alpha against x = 0.

    Their profiles satisfy (alpha+1) z' + t z'' = 0, i.e. they are exactly the
    critical curves of the plane problem with exponent alpha + 1: logarithmic
    for alpha = 0 (the minimal case) and c*t**(-alpha) + d otherwise.
    """

    surface_alpha: float

    @property
    def catenary_alpha(self) -> float:
        return self.surface_alpha + 1.0

    @property
    def ode_text(self) -> str:
        return f"{self.catenary_alpha:g}*z' + t*z'' = 0"

    def family(self, c: float, d: float) -> CatenaryFamily:
        return CatenaryFamily(reference=LZ, alpha=self.catenary_alpha, c=c, d=d, lam=0.0)

    def ode_residual(self, profile, t: float) -> float:
        _, zd, zdd = profile(t)
        return self.catenary_alpha * zd + t * zdd
