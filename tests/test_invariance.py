"""Invariances of mean curvature and relative area (hypothesis), the scaling of the
catenary curvature residual, of the profile ODEs and of the hanging-surface residual, the
relative denominator floor and the relative slack of a domain check.

Each moved, reparametrized or scaled surface is a new ``ParamSurface`` whose evaluator
grids the original one and maps its jet, so only the public surface API is used.  Not
covered here: the admissibility of a surface scaled far down (``|X12| >= 1e-9`` is an
absolute bound) and the mesh seam.
"""

import math

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from isokit.curves import LZ, CatenaryFamily, PlaneCurve, ProfileForm, catenary_curvature_residual
from isokit.errors import DomainError, SingularDenominatorError, SingularityError
from isokit.odes import ProfileODE, integrate
from isokit.singular import CHECK_GRID, PI_XY, PI_YZ, SingularSpec, max_sms_residual, sms_residual
from isokit.surfaces import (
    HelicoidalSpec,
    ParamSurface,
    RevolutionSpec,
    jet_mean_curvature,
    jet_minors,
    make_helicoidal,
    make_revolution,
    relative_area,
)


def helicoidal_power():
    curve = ProfileForm("power", {"c": 0.75, "p": -1.5, "d": 0.5}).plane_curve(1.0, 3.0)
    return make_helicoidal(HelicoidalSpec(curve, 0.7), 0.3, 2.9)


def revolution_log():
    curve = ProfileForm("log", {"c": 1.5, "d": 0.25}).plane_curve(1.0, 3.0)
    return make_revolution(RevolutionSpec(curve), -1.0, 2.0)


SURFACES = {"helicoidal_power": helicoidal_power(), "revolution_log": revolution_log()}
COEFFICIENT = st.floats(-10.0, 10.0)


def mapped(surface, fields, box=None):
    """The surface over box (default: surface's own) whose evaluator returns
    fields(us, vs), a 6-tuple of (nu, nv, 3) arrays, split into components."""

    def evaluate(us, vs):
        return tuple(tuple(np.moveaxis(f, -1, 0)) for f in fields(us[:, 0], vs))

    return ParamSurface(*(box or (surface.u_lo, surface.u_hi, surface.v_lo, surface.v_hi)),
                        evaluate)


def moved(surface, phi, tx, ty, c0, c1, c2):
    """Top-view rotation by phi, translation (tx, ty, c0) and the shear z += c1 x + c2 y."""
    m = np.array([[math.cos(phi), -math.sin(phi), 0.0],
                  [math.sin(phi), math.cos(phi), 0.0],
                  [c1, c2, 1.0]])
    shift = np.array([tx, ty, c0])

    def fields(us, vs):
        r, *partials = (f @ m.T for f in surface.grid(us, vs))
        return (r + shift, *partials)

    return mapped(surface, fields)


def mean_curvature_grid(surface):
    return jet_mean_curvature(surface.grid(*surface.nodes(9, 7)))


@pytest.mark.parametrize("name", SURFACES)
@settings(max_examples=40, deadline=None)
@given(phi=st.floats(-math.pi, math.pi), tx=COEFFICIENT, ty=COEFFICIENT, c0=COEFFICIENT,
       c1=COEFFICIENT, c2=COEFFICIENT)
def test_isotropic_motions_keep_mean_curvature(name, phi, tx, ty, c0, c1, c2):
    surface = SURFACES[name]
    h = mean_curvature_grid(surface)
    h_moved = mean_curvature_grid(moved(surface, phi, tx, ty, c0, c1, c2))
    assert np.all(abs(h_moved - h) <= 1e-13 * np.maximum(1.0, abs(h)))


@pytest.mark.parametrize("name", SURFACES)
@settings(max_examples=20, deadline=None)
@given(phi=st.floats(-math.pi, math.pi), tx=COEFFICIENT, ty=COEFFICIENT, c0=COEFFICIENT)
def test_rotations_and_translations_keep_relative_area(name, phi, tx, ty, c0):
    # a shear c1 x + c2 y moves the relative normal and so the area: not asserted
    surface = SURFACES[name]
    area = relative_area(surface)
    assert abs(relative_area(moved(surface, phi, tx, ty, c0, 0.0, 0.0)) - area) <= 1e-14 * area


@pytest.mark.parametrize("name", SURFACES)
def test_reparametrization_with_reversed_v_keeps_mean_curvature(name):
    # u = 1 + s + s^2 over s in [0, 1] covers u in [1, 3]; w = v_lo + v_hi - v flips X12,
    # so the surface loads reversed and its node (s, w) is the original's (u(s), w)
    surface = SURFACES[name]
    flip = surface.v_lo + surface.v_hi

    def fields(ss, ws):
        jet = surface.grid(1.0 + ss + ss * ss, flip - ws)
        du = (1.0 + 2.0 * ss)[:, None, None]
        return (jet.r, jet.ru * du, -jet.rv, jet.ruu * du * du + 2.0 * jet.ru, -jet.ruv * du,
                jet.rvv)

    reparam = mapped(surface, fields, (0.0, 1.0, surface.v_lo, surface.v_hi))
    ss, ws = reparam.nodes(9, 7)
    jet = reparam.grid(ss, ws)
    assert np.all(jet_minors(jet)[2] > 0.0)  # the evaluator's X12 is negative
    h = jet_mean_curvature(surface.grid(1.0 + ss + ss * ss, ws))
    assert np.all(abs(jet_mean_curvature(jet) - h) <= 1e-13 * np.maximum(1.0, abs(h)))


@pytest.mark.parametrize("name", SURFACES)
@pytest.mark.parametrize("k", range(-3, 4))
def test_scaling_divides_mean_curvature_by_the_scale(name, k):
    surface, s = SURFACES[name], 10.0**k
    scaled = mapped(surface, lambda us, vs: tuple(s * f for f in surface.grid(us, vs)))
    jet = scaled.grid(*scaled.nodes(9, 7))
    assert np.all(abs(jet_minors(jet)[2]) >= 1e-6)  # admissible with room to spare
    h = mean_curvature_grid(surface)
    assert np.all(abs(s * jet_mean_curvature(jet) - h) <= 1e-12 * np.maximum(1.0, abs(h)))


def scaled_catenary(alpha, s):
    """z = t**(1 - alpha) + 0.2 (ln t + 0.2 at alpha = 1) over [1, 2], scaled by
    (t, z) -> (s t, s z)."""
    if alpha == 1.0:
        family = CatenaryFamily(LZ, 1.0, c=s, d=s * (0.2 - math.log(s)))
    else:
        family = CatenaryFamily(LZ, alpha, c=s**alpha, d=0.2 * s)
    return family.plane_curve(s, 2.0 * s)


CATENARY_ALPHAS = [3.0, -3.0, 0.5, 1.0]


@pytest.mark.parametrize("alpha", CATENARY_ALPHAS)
@pytest.mark.parametrize("k", range(-6, 7))
def test_scaling_divides_the_curvature_residual_by_the_scale(alpha, k):
    # the weight t**alpha and lam -> s**alpha lam scale alike: the residual is divided by s
    s = 10.0**k
    for lam in (0.0, 0.5 * 1.5**alpha):  # on the family (residual 0) and off it
        ref = catenary_curvature_residual(scaled_catenary(alpha, 1.0), LZ, alpha, lam, 1.5)
        res = catenary_curvature_residual(scaled_catenary(alpha, s), LZ, alpha, lam * s**alpha,
                                          1.5 * s)
        assert s * res == pytest.approx(ref, rel=1e-12, abs=1e-12)


@pytest.mark.parametrize("alpha", CATENARY_ALPHAS)
@pytest.mark.parametrize("k", range(-6, 7))
def test_the_weight_floor_is_relative_to_the_weight(alpha, k):
    s = 10.0**k
    curve, t = scaled_catenary(alpha, s), 1.5 * s
    with pytest.raises(SingularDenominatorError, match="is numerically zero"):
        catenary_curvature_residual(curve, LZ, alpha, t**alpha * (1.0 - 1e-13), t)
    assert math.isfinite(catenary_curvature_residual(curve, LZ, alpha, t**alpha * (1.0 - 1e-6), t))


SCALES = range(-12, 13)
ODE_ALPHAS = [3.0, -3.0, 0.5]


def alpha_catenary_end(alpha, s):
    ode = ProfileODE.nonisotropic_alpha_catenary(alpha)
    return integrate(ode, 0.0, s, 0.1, s, 100).z[-1] / s


def revolution_end(s):
    ode = ProfileODE.revolution_nonisotropic()
    return integrate(ode, 0.7 * s, 1.1 * s, -0.2, 1.9 * s, 1000).z[-1] / s


@pytest.mark.parametrize("alpha", ODE_ALPHAS)
@pytest.mark.parametrize("k", SCALES)
def test_the_alpha_catenary_ode_is_scale_free(alpha, k):
    # with lam = 0 the equation keeps its form under (t, z) -> (s t, s z)
    ref = alpha_catenary_end(alpha, 1.0)
    assert alpha_catenary_end(alpha, 10.0**k) == pytest.approx(ref, rel=1e-12, abs=0.0)


@pytest.mark.parametrize("k", SCALES)
def test_the_revolution_ode_is_scale_free(k):
    ref = revolution_end(1.0)
    assert revolution_end(10.0**k) == pytest.approx(ref, rel=1e-12, abs=0.0)


@pytest.mark.parametrize("alpha", ODE_ALPHAS)
@pytest.mark.parametrize("k", SCALES)
def test_the_alpha_catenary_floor_is_relative_to_lam(alpha, k):
    s = 10.0**k
    z = 1.5 * s
    with pytest.raises(SingularityError, match="weight denominator"):
        ProfileODE.nonisotropic_alpha_catenary(alpha, z**alpha * (1.0 - 1e-13)).rhs(s, z, 0.1)
    ode = ProfileODE.nonisotropic_alpha_catenary(alpha, z**alpha * (1.0 - 1e-6))
    assert math.isfinite(ode.rhs(s, z, 0.1))


@pytest.mark.parametrize("k", SCALES)
def test_the_parabolic_floor_is_relative_to_b_c2_t_squared(k):
    b, c2, t = 1.2, -0.6, 10.0**k
    ode = ProfileODE.parabolic_nonisotropic(0.3, b, c2)
    with pytest.raises(SingularityError, match="denominator"):
        ode.rhs(t, -b * c2 * t * t * (1.0 - 1e-13) / 2.0, 0.1)
    assert math.isfinite(ode.rhs(t, -b * c2 * t * t * (1.0 - 1e-6) / 2.0, 0.1))


@pytest.mark.parametrize("k", SCALES)
def test_the_sms_floor_is_relative_to_lam(k):
    # lifted by c0 so that the node lies at height s over the plane z = 0
    surface, u, v = SURFACES["revolution_log"], 1.5, 0.5
    lifted = moved(surface, 0.0, 0.0, 0.0, 10.0**k - surface.at(u, v).r[2], 0.0, 0.0)
    dist = float(lifted.at(u, v).r[2])
    with pytest.raises(SingularDenominatorError, match="weight denominator"):
        sms_residual(lifted, SingularSpec(PI_XY, 1.0, dist * (1.0 - 1e-13)), u, v)
    assert math.isfinite(sms_residual(lifted, SingularSpec(PI_XY, 1.0, dist * (1.0 - 1e-6)), u, v))


@pytest.mark.parametrize("k", range(-6, 7))
def test_scaling_divides_the_hanging_surface_residual_by_the_scale(k):
    # z = 0.4 + 1.5/t hangs from the plane x = 0; (t, z) -> (s t, s z) gives 0.4 s + 1.5 s^2/t
    s = 10.0**k
    form = ProfileForm("inverse_radius", {"z1": 0.4 * s, "z2": 1.5 * s * s})
    surface = make_revolution(RevolutionSpec(form.plane_curve(0.5 * s, 3.0 * s)), -1.25, 1.25)
    assert s * max_sms_residual(surface, SingularSpec(PI_YZ), *surface.nodes(*CHECK_GRID)) <= 1e-13


def unit_height(*args):
    return 1.0


def zero(*args):
    return 0.0


@pytest.mark.parametrize("k", SCALES)
def test_the_domain_slack_is_relative_to_the_bounds(k):
    # an absolute 1e-12 let [1e-12, 2e-12] hold 0 and rounded away above |t| ~ 1.6e4
    s = 10.0**k
    curve = PlaneCurve.graph(s, 2.0 * s, unit_height, zero, zero)
    surface = ParamSurface.graph(s, 2.0 * s, s, 2.0 * s, unit_height, zero, zero, zero, zero,
                                 zero)
    inside = (s * (1.0 - 1e-15), 2.0 * s * (1.0 + 1e-15))
    outside = (0.0, s * (1.0 - 1e-9), 2.0 * s * (1.0 + 1e-9))
    for t in inside:
        curve.at(t)
        surface.at(t, 1.5 * s)
        surface.at(1.5 * s, t)
    for t in outside:
        for at in (curve.at, lambda t: surface.at(t, 1.5 * s), lambda t: surface.at(1.5 * s, t)):
            with pytest.raises(DomainError, match="outside"):
                at(t)


@pytest.mark.parametrize("lo, hi", [(-math.inf, 1.0), (1.0, math.inf)])
def test_an_unbounded_interval_is_refused(lo, hi):
    # a relative slack from an infinite bound is inf: every t would lie inside
    with pytest.raises(ValueError, match="must be finite, got -?inf$"):
        PlaneCurve.graph(lo, hi, unit_height, zero, zero)
