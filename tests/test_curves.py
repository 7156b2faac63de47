import hashlib
import math
import pickle
from fractions import Fraction

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from isokit import curves as curves_module

from isokit.core import euclid_dot
from isokit.curves import (
    LX,
    LZ,
    PROFILE_KINDS,
    CatenaryFamily,
    GraphCurve,
    PlaneCurve,
    ProfileForm,
    catenary_curvature_residual,
    check_weight_base,
    curvature,
    minimal_normal,
    parabolic_normal,
    read_curve_csv,
    relative_arclength,
    unit_tangent,
    write_curve_csv,
)
from isokit.errors import (
    DomainError,
    InvalidIntervalError,
    NonAdmissibleError,
    SingularDenominatorError,
)
from isokit.odes import ProfileODE, integrate
from isokit.quadrature import simpson, simpson_nodes


def graph(t_lo, t_hi, z, zd, zdd):
    return PlaneCurve.graph(t_lo, t_hi, z, zd, zdd)


PARABOLA = graph(-2.0, 2.0, lambda t: t * t, lambda t: 2 * t, lambda t: 2.0)
LOG = graph(0.5, 3.0, math.log, lambda t: 1 / t, lambda t: -1 / t**2)
LINE = graph(-1.0, 4.0, lambda t: 3 * t + 1, lambda t: 3.0, lambda t: 0.0)
HORIZONTAL = graph(0.0, 2.0, lambda t: 5.0, lambda t: 0.0, lambda t: 0.0)
NONGRAPH = PlaneCurve.from_functions(
    0.0, 1.5,
    x=math.exp, z=math.sin, xd=math.exp, zd=math.cos, xdd=math.exp,
    zdd=lambda t: -math.sin(t),
)

ANALYTIC_CURVES = [PARABOLA, LOG, LINE, HORIZONTAL, NONGRAPH]


class TestUnitTangent:
    def test_parabola(self):
        assert unit_tangent(PARABOLA, 1.0) == pytest.approx((1.0, 2.0))

    def test_steep_line(self):
        steep = PlaneCurve.from_functions(
            0.0, 1.0,
            x=lambda t: 2 * t, z=lambda t: 6 * t,
            xd=lambda t: 2.0, zd=lambda t: 6.0,
            xdd=lambda t: 0.0, zdd=lambda t: 0.0,
        )
        for t in (0.1, 0.5, 0.9):
            assert unit_tangent(steep, t) == pytest.approx((1.0, 3.0))

    def test_horizontal(self):
        assert unit_tangent(HORIZONTAL, 1.3) == pytest.approx((1.0, 0.0))


class TestCurvature:
    @pytest.mark.parametrize("t", [-1.0, 0.0, 0.7, 1.5])
    def test_parabola_constant(self, t):
        # z = c t^2/2 + b t + a has constant curvature c
        c, b, a = 3.0, -1.0, 2.0
        par = graph(-2, 2, lambda s: 0.5 * c * s * s + b * s + a,
                    lambda s: c * s + b, lambda s: c)
        assert curvature(par, t) == pytest.approx(c, abs=1e-12)

    def test_line_is_flat(self):
        assert curvature(LINE, 2.0) == 0.0

    def test_log_against_finite_differences(self):
        h = 1e-4  # large enough to keep second-difference roundoff below truncation
        fd_oracle = (math.log(2 + h) - 2 * math.log(2) + math.log(2 - h)) / h**2
        kappa = curvature(LOG, 2.0)
        assert kappa == pytest.approx(fd_oracle, abs=1e-6)
        assert kappa == pytest.approx(-0.25, abs=1e-12)


class TestNormals:
    def test_minimal_normal_horizontal(self):
        assert minimal_normal(HORIZONTAL, 0.5) == pytest.approx((0.0, 1.0))

    def test_minimal_normal_is_rotated_tangent(self):
        # quarter rotation J(x', z') = (-z', x'), scaled by 1/x'
        j = PARABOLA.at(1.0)
        oracle = (-j.zd / j.xd, j.xd / j.xd)
        assert minimal_normal(PARABOLA, 1.0) == pytest.approx(oracle)
        assert minimal_normal(PARABOLA, 1.0) == pytest.approx((-2.0, 1.0))

    def test_minimal_normal_antidiagonal(self):
        anti = graph(0, 1, lambda t: -t, lambda t: -1.0, lambda t: 0.0)
        assert minimal_normal(anti, 0.3) == pytest.approx((1.0, 1.0))

    def test_parabolic_normal_horizontal(self):
        assert parabolic_normal(HORIZONTAL, 1.0) == pytest.approx((0.0, 0.5))

    def test_parabolic_normal_diagonal(self):
        diag = graph(0, 1, lambda t: t, lambda t: 1.0, lambda t: 0.0)
        assert parabolic_normal(diag, 0.5) == pytest.approx((-1.0, 0.0))

    def test_parabolic_normal_parabola(self):
        assert parabolic_normal(PARABOLA, 1.0) == pytest.approx((-2.0, -1.5))


class TestRelativeArclength:
    def test_horizontal(self):
        assert relative_arclength(HORIZONTAL, 0.0, 2.0) == pytest.approx(1.0, abs=1e-12)

    def test_diagonal(self):
        diag = graph(0, 1, lambda t: t, lambda t: 1.0, lambda t: 0.0)
        assert relative_arclength(diag, 0.0, 1.0) == pytest.approx(1.0, abs=1e-12)

    def test_log(self):
        # integral of 1/2 + 1/(2 t^2) from 1 to 2
        assert relative_arclength(LOG, 1.0, 2.0) == pytest.approx(0.75, abs=1e-10)

    def test_invalid_interval(self):
        with pytest.raises(InvalidIntervalError):
            relative_arclength(LOG, 2.0, 1.0)

    def test_outside_domain(self):
        with pytest.raises(DomainError):
            relative_arclength(LOG, 0.1, 2.0)


class TestCatenaryFamily:
    def test_log_family_at_e(self):
        fam = CatenaryFamily(reference=LZ, alpha=1.0, c=1.0, d=0.0, lam=0.0)
        x, z = math.e, fam(math.e)[0]
        assert (x, z) == pytest.approx((math.e, 1.0))

    def test_power_family(self):
        fam = CatenaryFamily(reference=LZ, alpha=2.0, c=1.0, d=0.0)
        assert (4.0, fam(4.0)[0]) == pytest.approx((4.0, 0.25))

    def test_constant_profile(self):
        fam = CatenaryFamily(alpha=1.0, c=0.0, d=7.0, lam=0.0)
        assert (10.0, fam(10.0)[0]) == pytest.approx((10.0, 7.0))

    def test_domain_errors(self):
        fam = CatenaryFamily(alpha=1.0, c=1.0, d=0.0, lam=2.0)
        with pytest.raises(DomainError):
            fam(2.0)
        fam2 = CatenaryFamily(alpha=3.0, c=1.0, d=0.0)
        with pytest.raises(DomainError):
            fam2(-1.0)

    def test_plane_curve_domain_and_interval(self):
        fam = CatenaryFamily(alpha=1.0, c=1.0, d=0.0, lam=2.0)
        # the graph curve's construction scan evaluates t_lo first
        with pytest.raises(DomainError, match=r"^t - lam = -1.0 <= 0$"):
            fam.plane_curve(1.0, 3.0)
        with pytest.raises(InvalidIntervalError):  # a reversed interval, checked first
            fam.plane_curve(3.0, -1.0)

    def test_alpha_zero_rejected(self):
        with pytest.raises(ValueError):
            CatenaryFamily(alpha=0.0)

    def test_shift_only_for_alpha_one(self):
        with pytest.raises(ValueError):
            CatenaryFamily(alpha=2.0, lam=1.0)

    def test_unknown_reference_line_is_rejected(self):
        with pytest.raises(ValueError, match="^unknown reference line 'xx'$"):
            CatenaryFamily(reference="xx")
        with pytest.raises(ValueError, match="^unknown reference line 'xx'$"):
            catenary_curvature_residual(PARABOLA, "xx", 1.0, 0.0, 1.0)

    def test_no_closed_form_for_nonisotropic_axis(self):
        with pytest.raises(ValueError, match="no closed form for the non-isotropic reference"):
            CatenaryFamily(reference=LX, alpha=1.0)


class TestCurvatureResidual:
    @pytest.mark.parametrize("t", [1.0, 2.0, 5.0])
    def test_log_family_is_critical(self, t):
        fam = CatenaryFamily(alpha=1.0, c=2.0, d=1.0)
        curve = fam.plane_curve(0.5, 6.0)
        assert abs(catenary_curvature_residual(curve, LZ, 1.0, 0.0, t)) < 1e-12

    def test_alpha_three_family(self):
        curve = graph(0.5, 3.0, lambda t: t**-2, lambda t: -2 * t**-3,
                      lambda t: 6 * t**-4)
        for t in (0.6, 1.0, 2.5):
            assert abs(catenary_curvature_residual(curve, LZ, 3.0, 0.0, t)) < 1e-12

    def test_noncritical_curve(self):
        # kappa = 2 and quotient -z'/t = -2 at t = 1, so the residual is 4
        assert catenary_curvature_residual(PARABOLA, LZ, 1.0, 0.0, 1.0) == pytest.approx(4.0)

    def test_family_residual_on_grid(self):
        for alpha, lam in [(1.0, 0.0), (1.0, 0.4), (2.0, 0.0), (3.0, 0.0)]:
            fam = CatenaryFamily(alpha=alpha, c=1.3, d=-0.2, lam=lam)
            curve = fam.plane_curve(lam + 0.5, lam + 4.0)
            worst = max(
                abs(catenary_curvature_residual(curve, LZ, alpha, lam, t))
                for t in np.linspace(lam + 0.55, lam + 3.95, 100)
            )
            assert worst < 1e-9

    def test_vanishing_weight_denominator_is_named(self):
        line = graph(1.0, 2.0, lambda t: t, lambda t: 1.0, lambda t: 0.0)  # x - lam = 0 at x = 1.5
        with pytest.raises(SingularDenominatorError,
                           match=r"^weight denominator 0\.0 at t=1\.5 is numerically zero$"):
            catenary_curvature_residual(line, LZ, 1.0, 1.5, 1.5)

    def test_an_infinite_weight_denominator_is_not_numerically_zero(self):
        # x**2 - lam = 1.44e308 + 1e308 overflows to inf; a floor scaled by denom + lam
        # instead of x**2 would be inf as well and call the denominator zero
        curve = CatenaryFamily(LZ, alpha=2.0).plane_curve(1e154, 1.3e154)
        assert catenary_curvature_residual(curve, LZ, 2.0, -1e308, 1.2e154) == 0.0

    @pytest.mark.parametrize(("alpha", "lam", "name", "value"), [
        (math.inf, 0.0, "alpha", "inf"), (math.nan, 0.0, "alpha", "nan"),
        (1.0, math.nan, "lam", "nan"),
    ])
    def test_non_finite_alpha_or_lam_is_named(self, alpha, lam, name, value):
        # alpha = inf or nan was a bare OverflowError or ValueError from round(), lam = nan gave nan
        curve = CatenaryFamily(alpha=1.0).plane_curve(1.0, 2.0)
        with pytest.raises(ValueError, match=f"^{name} must be finite, got {value}$"):
            catenary_curvature_residual(curve, LZ, alpha, lam, 1.5)

    def test_weight_power_overflow_is_a_domain_error(self):
        curve = ProfileForm("poly", {"a": (1.0, 1e200)}).plane_curve(1.0, 2.0)
        with pytest.raises(DomainError, match=r"^weight power overflows at z=1.5e\+200 \(t=1.5\)$"):
            catenary_curvature_residual(curve, LX, 2.0, 0.0, 1.5)

    @pytest.mark.parametrize("alpha", [-1.0, 0.0])
    def test_negative_exponent_at_zero_distance(self, alpha):
        # x**(alpha - 1) at x = 0 was a ZeroDivisionError
        curve = ProfileForm("power", {"c": 1.0, "p": 2.0, "d": 0.0}).plane_curve(-1.0, 1.0)
        with pytest.raises(DomainError, match="negative exponent with zero weight base"):
            catenary_curvature_residual(curve, LZ, alpha, 0.0, 0.0)

    @pytest.mark.parametrize("alpha, lowest", [(0.5, -0.5), (2.0, 1.0), (1.0, 0.0), (-1.0, -1.0),
                                               (0.0, -1.0), (0.0, 0.0)])
    def test_weight_base_rule_is_the_same_for_floats_and_arrays(self, alpha, lowest):
        for base in (-1.0, 0.0, 2.0):
            if alpha != round(alpha) and base <= 0.0:
                expected = "non-integer exponent needs x > 0"
            elif lowest < 0.0 and base == 0.0:
                expected = "negative exponent with zero weight base"
            else:
                expected = None
            for arg in (base, np.float64(base), np.array([3.0, base]), np.array([[base]])):
                try:
                    check_weight_base(arg, alpha, lowest, "x")
                    got = None
                except DomainError as exc:
                    got = str(exc)
                assert got == expected, (arg, alpha, lowest)

    def test_nonisotropic_reference_diagonal(self):
        diag = graph(0.2, 2.0, lambda t: t, lambda t: 1.0, lambda t: 0.0)
        # z'' = 0 and the pairing (1 - z'^2)/2 vanishes
        assert catenary_curvature_residual(diag, LX, 1.0, 0.0, 1.0) == pytest.approx(0.0)


class TestInvariants:
    @pytest.mark.parametrize("curve", ANALYTIC_CURVES)
    def test_parabolic_normal_transversal(self, curve):
        for t in np.linspace(curve.t_lo, curve.t_hi, 100):
            j = curve.at(float(t))
            npar = parabolic_normal(curve, float(t))
            det = j.xd * npar.z - j.zd * npar.x
            assert det == pytest.approx((j.xd**2 + j.zd**2) / (2 * j.xd), rel=1e-12)
            assert det > 0.0

    @pytest.mark.parametrize("curve", [PARABOLA, LOG, NONGRAPH])
    def test_parabolic_normal_equiaffine(self, curve):
        # -dN_par/dt must equal curvature * velocity
        h = 1e-5
        lo, hi = curve.t_lo + 2 * h, curve.t_hi - 2 * h
        for t in np.linspace(lo, hi, 100):
            t = float(t)
            np_plus = parabolic_normal(curve, t + h)
            np_minus = parabolic_normal(curve, t - h)
            deriv = ((np_plus.x - np_minus.x) / (2 * h), (np_plus.z - np_minus.z) / (2 * h))
            j = curve.at(t)
            k = curvature(curve, t)
            target = (k * j.xd, k * j.zd)
            scale = max(1.0, abs(target[0]), abs(target[1]))
            assert abs(-deriv[0] - target[0]) <= 1e-6 * scale
            assert abs(-deriv[1] - target[1]) <= 1e-6 * scale

    @pytest.mark.parametrize("curve", [PARABOLA, LOG, LINE, HORIZONTAL])
    def test_second_form_coefficient_on_graphs(self, curve):
        # kappa * x'^2 agrees with det(velocity, acceleration) on unit-speed graphs
        for t in np.linspace(curve.t_lo + 0.01, curve.t_hi - 0.01, 25):
            j = curve.at(float(t))
            det = j.xd * j.zdd - j.zd * j.xdd
            lhs = curvature(curve, float(t)) * j.xd**2
            assert abs(lhs - det) <= 1e-10 * max(1.0, abs(det))

    @pytest.mark.parametrize("curve", ANALYTIC_CURVES)
    def test_relative_speed_at_least_half(self, curve):
        for t in np.linspace(curve.t_lo, curve.t_hi, 50):
            t = float(t)
            ratio = euclid_dot(parabolic_normal(curve, t), minimal_normal(curve, t))
            assert ratio >= 0.5 - 1e-15
            if abs(curve.at(t).zd) < 1e-14:
                assert ratio == pytest.approx(0.5)


class TestAdmissibility:
    def test_isotropic_tangent_rejected(self):
        with pytest.raises(NonAdmissibleError, match=r"^\|x'\|=0.0 below admissibility threshold$"):
            PlaneCurve.from_functions(
                -1.0, 1.0,
                x=lambda t: t**3, z=lambda t: t,
                xd=lambda t: 3 * t * t, zd=lambda t: 1.0,
                xdd=lambda t: 6 * t, zdd=lambda t: 0.0,
            )

    def test_zero_slope_beside_a_nan_slope_rejected(self):
        # x' is NaN at the first check node and 0 at the last: a NaN minimum would hide the 0
        def xd(t):
            return math.nan if t == 0.0 else (0.0 if t == 1.0 else 1.0)

        with pytest.raises(NonAdmissibleError, match=r"^\|x'\|=0.0 below admissibility threshold$"):
            PlaneCurve.from_functions(
                0.0, 1.0, lambda t: t, lambda t: 0.0, xd, lambda t: 0.0, lambda t: 0.0, lambda t: 0.0
            )

    @pytest.mark.filterwarnings("error")
    def test_nan_slope_everywhere_rejected(self):
        # no node has |x'| >= 1e-9, so the curve is not admissible; it used to construct
        # and give nan arclength and curvature
        with pytest.raises(NonAdmissibleError, match=r"^\|x'\|=nan below admissibility threshold$"):
            PlaneCurve.from_functions(
                0, 1, lambda t: t, lambda t: 0.0, lambda t: math.nan,
                lambda t: 0.0, lambda t: 0.0, lambda t: 0.0,
            )

    def test_sign_change_rejected(self):
        with pytest.raises(NonAdmissibleError):
            PlaneCurve.from_functions(
                -1.0, 1.0,
                x=lambda t: math.cos(t), z=lambda t: t,
                xd=lambda t: -math.sin(t), zd=lambda t: 1.0,
                xdd=lambda t: -math.cos(t), zdd=lambda t: 0.0,
            )

    def test_sign_change_between_check_nodes_rejected(self):
        # x' = t changes sign inside [-1, 2], and no node of the 129-node scan lands on 0
        with pytest.raises(NonAdmissibleError, match="^x' changes sign on the domain$"):
            PlaneCurve.from_functions(
                -1.0, 2.0,
                x=lambda t: 0.5 * t * t, z=lambda t: t,
                xd=lambda t: t, zd=lambda t: 1.0,
                xdd=lambda t: 1.0, zdd=lambda t: 0.0,
            )

    def test_decreasing_x_reparametrized(self):
        rev = PlaneCurve.from_functions(
            1.0, 2.0,
            x=lambda t: -t, z=lambda t: t * t,
            xd=lambda t: -1.0, zd=lambda t: 2 * t,
            xdd=lambda t: 0.0, zdd=lambda t: 2.0,
        )
        j = rev.at(1.25)
        assert j.xd > 0
        # same point set: position at s equals the original at 3 - s
        assert (j.x, j.z) == pytest.approx((-(3 - 1.25), (3 - 1.25) ** 2))

    def test_pointwise_threshold(self, monkeypatch):
        # admissible at the two check nodes but isotropic in between
        monkeypatch.setattr(curves_module, "CHECK_SAMPLES", 2)
        sneaky = PlaneCurve(
            0.0, 1.0,
            lambda t: (t + math.sin(2 * math.pi * t) / (2 * math.pi), 0.0,
                       1 + math.cos(2 * math.pi * t), 0.0,
                       -2 * math.pi * math.sin(2 * math.pi * t), 0.0),
        )
        with pytest.raises(NonAdmissibleError):
            curvature(sneaky, 0.5)


def test_csv_round_trip(tmp_path):
    fam = CatenaryFamily(alpha=1.0, c=1.0, d=0.0)
    curve = fam.plane_curve(1.0, math.e)
    t, x, z = curve.sample(201)
    path = tmp_path / "curve.csv"
    write_curve_csv(path, t, x, z)
    back = read_curve_csv(path)
    # finite-difference derivatives keep the residual characterization small
    worst = max(
        abs(catenary_curvature_residual(back, LZ, 1.0, 0.0, float(s)))
        for s in np.linspace(1.05, math.e - 0.05, 40)
    )
    assert worst < 1e-3
    j = back.at(1.5)
    assert j.z == pytest.approx(math.log(1.5), abs=1e-5)


@pytest.mark.parametrize("rows", ["", "1,1,0\n", "1,1,0\n2,2,0.5\n3,3,1\n"],
                         ids=["0", "1", "3"])
@pytest.mark.filterwarnings("error")  # the ValueError is the only signal: no numpy warning first
def test_csv_with_too_few_rows_is_a_value_error(rows, tmp_path):
    path = tmp_path / "curve.csv"
    path.write_text("t,x,z\n" + rows)
    with pytest.raises(ValueError, match="at least 4 samples"):
        read_curve_csv(path)


def test_samples_on_a_grid_that_is_not_uniform_are_rejected():
    with pytest.raises(ValueError, match="^sample grid must be uniform and increasing$"):
        PlaneCurve.from_samples([0.0, 1.0, 2.0, 4.0], [0.0, 1.0, 2.0, 3.0])


def _horner(vals, t):
    """Horner's rule for sum(a[k] t**k) and its two derivatives, one update at a time."""
    z = zd = zdd = 0.0
    for c in reversed(vals):
        zdd = zdd * t + 2.0 * zd
        zd = zd * t + z
        z = z * t + c
    return z, zd, zdd


class TestProfileForm:
    @pytest.mark.parametrize("vals", [[], [0.7], [0.1, 0.2, 0.3], [-1.3, 0.25, 2.0, -0.4, 1e-3]])
    def test_poly_matches_horner_reference_bitwise(self, vals):
        form = ProfileForm("poly", {"a": tuple(vals)})
        for t in np.linspace(0.3, 3.7, 23):
            assert form(float(t)) == _horner(vals, float(t))
            assert form(t) == _horner(vals, float(t))

    def test_poly_is_within_the_horner_bound_of_exact_values(self):
        rng = np.random.default_rng(19)
        for _ in range(300):
            vals = rng.uniform(-2.0, 2.0, int(rng.integers(1, 10))).tolist()
            t = float(rng.uniform(-3.0, 3.0))
            got = ProfileForm("poly", {"a": tuple(vals)})(t)
            ft, terms = Fraction(t), list(enumerate(vals))
            exact = (
                sum(Fraction(c) * ft**k for k, c in terms),
                sum(k * Fraction(c) * ft ** (k - 1) for k, c in terms[1:]),
                sum(k * (k - 1) * Fraction(c) * ft ** (k - 2) for k, c in terms[2:]),
            )
            scale = (
                sum(abs(c) * abs(t) ** k for k, c in terms),
                sum(k * abs(c) * abs(t) ** (k - 1) for k, c in terms[1:]),
                sum(k * (k - 1) * abs(c) * abs(t) ** (k - 2) for k, c in terms[2:]),
            )
            bound = 2 * len(vals) * np.finfo(float).eps
            for g, e, s in zip(got, exact, scale):
                assert abs(Fraction(g) - e) <= Fraction(bound * s)

    @pytest.mark.parametrize("a", [(0.5, -1.0, 2.0), np.array([0.5, -1.0, 2.0])],
                             ids=["tuple", "array"])
    def test_poly_jet_fields_are_python_floats(self, a):
        for t in (1.5, np.float64(1.5)):
            assert [type(f) for f in ProfileForm("poly", {"a": a})(t)] == [float] * 3

    @pytest.mark.filterwarnings("error")  # the DomainError is the only signal: no numpy warning
    def test_poly_overflow_at_two_is_a_domain_error(self):
        with pytest.raises(DomainError, match=r"^poly profile overflows at t=2.0$"):
            ProfileForm("poly", {"a": (1e308, 1e308)})(2.0)

    @pytest.mark.parametrize("alpha, lam", [(1.0, 0.0), (1.0, -0.3), (2.5, 0.0), (0.4, 0.0)])
    def test_catenary_family_matches_closed_forms_bitwise(self, alpha, lam):
        fam = CatenaryFamily(LZ, alpha=alpha, c=1.7, d=-0.2, lam=lam)
        for t in np.linspace(1.0, 3.0, 17):
            t = float(t)
            if alpha == 1.0:
                s = t - lam
                expected = (1.7 * math.log(s) - 0.2, 1.7 / s, -1.7 / s**2)
            else:
                p = 1.0 - alpha
                expected = (
                    1.7 * t**p - 0.2,
                    1.7 * p * t ** (p - 1.0),
                    1.7 * p * (p - 1.0) * t ** (p - 2.0),
                )
            assert fam(t) == expected

    def test_rejects_unknown_kind_and_non_finite_coefficients(self):
        with pytest.raises(ValueError, match="unknown profile kind"):
            ProfileForm("cubic", {"c": 1.0})
        for bad in (math.nan, math.inf, -math.inf):
            with pytest.raises(ValueError, match="non-finite"):
                ProfileForm("inverse_radius", {"z1": 0.0, "z2": bad})
        with pytest.raises(ValueError, match="non-finite"):
            ProfileForm("poly", {"a": (1.0, math.nan)})
        with pytest.raises(ValueError, match="non-finite"):
            CatenaryFamily(alpha=2.0, c=math.nan)

    @pytest.mark.parametrize(
        "kind, co, t",
        [
            ("log", {"c": 1.0, "d": 0.0}, 0.0),
            ("log", {"c": 1.0, "d": 0.0}, -1.0),
            ("log_parabola", {"quad": 0.2, "z1": 0.0, "z2": 1.0}, -0.5),
            ("inverse_radius", {"z1": 0.0, "z2": 1.0}, 0.0),
            ("power", {"c": 1.0, "p": 0.5, "d": 0.0}, -1.0),
            ("power", {"c": 1.0, "p": 0.5, "d": 0.0}, 0.0),
            ("power", {"c": 1.0, "p": 1.0, "d": 0.0}, 0.0),
            ("power", {"c": 1.0, "p": -2.0, "d": 0.0}, 0.0),
        ],
    )
    def test_undefined_t_is_a_domain_error_naming_kind_and_t(self, kind, co, t):
        with pytest.raises(DomainError, match=f"{kind} profile is undefined at t={t}"):
            ProfileForm(kind, co)(t)

    @pytest.mark.parametrize("a", [1.0, "12", ((1.0, 2.0),)], ids=["scalar", "string", "nested"])
    def test_poly_coefficients_must_be_a_sequence(self, a):
        # a scalar a constructed, and every call then raised a bare TypeError
        with pytest.raises(ValueError, match="^poly profile needs a sequence of coefficients a"):
            ProfileForm("poly", {"a": a})

    def test_overflowing_poly_sum_is_a_domain_error(self):
        with pytest.raises(DomainError, match=r"^poly profile overflows at t=1.0$"):
            ProfileForm("poly", {"a": (1e308, 1e308)})(1.0)

    @pytest.mark.parametrize("kind, co, t", [
        ("log", {"c": 1e300, "d": 0.5}, 1e-13),  # c / t overflows: no ** raises
        ("inverse_radius", {"z1": 0.0, "z2": 1e300}, 1e-10),
    ])
    def test_non_finite_jet_is_a_domain_error(self, kind, co, t):
        with pytest.raises(DomainError, match=rf"^{kind} profile overflows at t={t}$"):
            ProfileForm(kind, co)(t)

    @pytest.mark.parametrize("kind, co, t", [
        ("log", {"c": 0.0, "d": 0.0}, 1e-300),  # t**2 underflows to 0: -c / t**2 divides by 0
        ("inverse_radius", {"z1": 0.0, "z2": 1.0}, 1e-200),
        ("log_parabola", {"quad": 0.0, "z1": 0.0, "z2": 1.0}, 1e-200),
    ])
    def test_underflowed_power_is_a_domain_error(self, kind, co, t):
        with pytest.raises(DomainError, match=rf"^{kind} profile overflows at t={t}$"):
            ProfileForm(kind, co)(t)

    def test_defined_edges_of_the_power_domain(self):
        assert ProfileForm("power", {"c": 1.0, "p": 2.0, "d": 0.0})(0.0) == (0.0, 0.0, 2.0)
        assert ProfileForm("power", {"c": 1.0, "p": 2.5, "d": 0.0})(0.0) == (0.0, 0.0, 0.0)
        assert ProfileForm("power", {"c": 1.0, "p": -1.0, "d": 0.0})(-2.0) == (-0.5, -0.25, -0.25)
        assert ProfileForm("inverse_radius", {"z1": 0.0, "z2": 1.0})(-2.0) == (-0.5, -0.25, -0.25)

    def test_plane_curve_is_the_graph(self):
        form = ProfileForm("log_parabola", {"quad": 0.4, "z1": 0.2, "z2": -0.7})
        j = form.plane_curve(0.5, 3.0).at(1.25)
        assert (j.x, j.xd, j.xdd) == (1.25, 1.0, 0.0)
        assert (j.z, j.zd, j.zdd) == form(1.25)


# one admissible coefficient set per kind; every test below runs over PROFILE_KINDS
KIND_SAMPLES = {
    "log": {"c": 1.3, "d": -0.2},
    "power": {"c": 0.8, "p": -1.5, "d": 0.1},
    "inverse_radius": {"z1": 0.4, "z2": 1.5},
    "log_parabola": {"quad": 0.4, "z1": 0.2, "z2": -0.7},
    "quadratic": {"quad": -0.3, "z1": 0.6},
    "poly": {"a": (0.1, -0.3, 0.2, 0.05)},
}


@pytest.mark.parametrize("kind", sorted(PROFILE_KINDS))
class TestProfileKinds:
    def test_coefficient_names_are_the_table_names(self, kind):
        assert sorted(KIND_SAMPLES[kind]) == sorted(PROFILE_KINDS[kind].names)

    def test_derivatives_match_central_differences(self, kind):
        form, h = ProfileForm(kind, KIND_SAMPLES[kind]), 1e-4
        for t in (0.6, 1.3, 2.4):
            z, zd, zdd = form(t)
            (zm, zdm, _), (zp, zdp, _) = form(t - h), form(t + h)
            assert zd == pytest.approx((zp - zm) / (2 * h), rel=1e-7, abs=1e-9)
            assert zdd == pytest.approx((zdp - zdm) / (2 * h), rel=1e-7, abs=1e-9)
            assert zdd == pytest.approx((zp - 2 * z + zm) / h**2, rel=1e-5, abs=1e-6)

    def test_missing_or_extra_coefficient_names_the_kind(self, kind):
        co = KIND_SAMPLES[kind]
        first = next(iter(co))
        missing = {k: v for k, v in co.items() if k != first}
        for bad in (missing, {**co, "lam": 0.0}):
            with pytest.raises(ValueError, match=f"^{kind} profile needs coefficients"):
                ProfileForm(kind, bad)

    @pytest.mark.parametrize("t", [1e300, np.float64(1e300)], ids=["float", "float64"])
    def test_overflow_is_a_domain_error_naming_kind_and_t(self, kind, t):
        # the sample power has p < 0, whose powers of a huge t underflow to 0
        co = {"c": 0.8, "p": 1.5, "d": 0.1} if kind == "power" else KIND_SAMPLES[kind]
        with pytest.raises(DomainError, match=rf"^{kind} profile overflows at t=1e\+300$"):
            ProfileForm(kind, co)(t)

    def test_pickles_by_kind_and_coefficients(self, kind):
        form = ProfileForm(kind, KIND_SAMPLES[kind])
        back = pickle.loads(pickle.dumps(form))
        assert back == form and back(1.3) == form(1.3)


class TestProfileJet:
    """Every profile shape is called the same way: profile(t) -> (z, z', z'')."""

    FAM = CatenaryFamily(LZ, alpha=1.0, c=2.0, d=0.5)

    @pytest.mark.parametrize(
        "profile",
        [
            FAM,
            FAM.plane_curve(1.0, 3.0),
            ProfileForm("log", {"c": 2.0, "d": 0.5}),
            lambda t: (2.0 * math.log(t) + 0.5, 2.0 / t, -2.0 / t**2),
        ],
        ids=["family", "plane_curve", "profile_form", "callable"],
    )
    def test_every_profile_shape_gives_the_same_jet(self, profile):
        for t in (1.0, 1.7, 3.0):
            assert profile(t) == pytest.approx(
                (2.0 * math.log(t) + 0.5, 2.0 / t, -2.0 / t**2), rel=1e-15, abs=1e-15
            )

    def test_domain_errors_pass_through(self):
        with pytest.raises(DomainError):
            self.FAM(-1.0)
        with pytest.raises(DomainError):
            self.FAM.plane_curve(1.0, 3.0)(4.0)


REVERSED = PlaneCurve.from_functions(
    1.0, 2.0,
    x=lambda t: -t, z=lambda t: t * t,
    xd=lambda t: -1.0, zd=lambda t: 2 * t,
    xdd=lambda t: 0.0, zdd=lambda t: 2.0,
)


class TestGraphCurve:
    FORM = ProfileForm("log_parabola", {"quad": 0.4, "z1": 0.2, "z2": -0.7})

    def test_call_checks_the_domain_and_returns_the_profile(self):
        curve = GraphCurve(0.5, 3.0, self.FORM)
        assert curve.profile is self.FORM
        for t in (0.5, 1.25, 3.0):
            assert curve(t) == self.FORM(t)
        for t in (0.5 - 1e-9, 3.0 + 1e-9, math.nan):
            with pytest.raises(DomainError):
                curve(t)

    def test_every_builder_makes_a_graph_curve(self, tmp_path):
        write_curve_csv(tmp_path / "c.csv", *self.FORM.plane_curve(0.5, 3.0).sample(9))
        built = [
            PlaneCurve.graph(0.5, 3.0, math.log, lambda t: 1 / t, lambda t: -1 / t**2),
            self.FORM.plane_curve(0.5, 3.0),
            CatenaryFamily(alpha=1.0, c=1.0, d=0.0, lam=0.2).plane_curve(0.5, 3.0),
            PlaneCurve.from_samples(np.linspace(0.5, 3.0, 9), np.linspace(0.0, 1.0, 9)),
            read_curve_csv(tmp_path / "c.csv"),
        ]
        assert all(type(curve) is GraphCurve for curve in built)
        assert not isinstance(NONGRAPH, GraphCurve)

    @pytest.mark.parametrize(
        "lo, hi, nodes",
        [(0.5, 3.0, [0.5, 3.0]), (-1.0, 2.0, [-1.0, 0.0, 2.0]), (0.0, 2.0, [0.0, 2.0]),
         (-2.0, 0.0, [-2.0, 0.0]), (-3.0, -1.0, [-3.0, -1.0])],
    )
    def test_construction_evaluates_the_ends_and_zero_inside(self, lo, hi, nodes):
        seen = []
        GraphCurve(lo, hi, lambda t: seen.append(t) or (t, 1.0, 0.0))
        assert seen == nodes

    def test_a_general_curve_scans_check_samples_nodes(self):
        seen = []
        PlaneCurve.from_functions(
            -1.0, 2.0, x=lambda t: seen.append(t) or t, z=math.sin, xd=lambda t: 1.0,
            zd=math.cos, xdd=lambda t: 0.0, zdd=lambda t: -math.sin(t),
        )
        assert seen == np.linspace(-1.0, 2.0, curves_module.CHECK_SAMPLES).tolist()


def _gap_cases():
    """(name, profile, anchor, gap(lo, hi)): every gap shape a package profile has, with the
    point the intervals are drawn around."""
    yield "log", ProfileForm("log", {"c": 1.5, "d": 0.25}), 0.0, lambda lo, hi: lo <= 0.0
    yield ("log_parabola", ProfileForm("log_parabola", {"quad": 0.3, "z1": 0.1, "z2": -0.5}),
           0.0, lambda lo, hi: lo <= 0.0)
    yield ("inverse_radius", ProfileForm("inverse_radius", {"z1": 0.4, "z2": 1.5}), 0.0,
           lambda lo, hi: lo <= 0.0 <= hi)
    for p in (-1.5, -1.0, 0.5, 1.0, 1.5, 2.0, 2.5, 3.0):
        yield (f"power p={p}", ProfileForm("power", {"c": 0.75, "p": p, "d": 0.5}), 0.0,
               lambda lo, hi, p=p: (p % 1.0 != 0.0 and lo < 0.0) or (p < 2.0 and lo <= 0.0 <= hi))
    for lam in (-1.0, 0.0, 0.7):
        yield (f"family lam={lam}", CatenaryFamily(alpha=1.0, c=1.2, d=0.3, lam=lam), lam,
               lambda lo, hi, lam=lam: lo <= lam)
    yield ("ivp on [1, 3]", integrate(ProfileODE.nonisotropic_alpha_catenary(2.0), 1.0, 1.0,
                                      0.25, 3.0, 40), 1.0, lambda lo, hi: lo < 1.0 or hi > 3.0)


def test_a_graph_curve_raises_exactly_where_its_interval_meets_the_gap():
    rng = np.random.default_rng(29)
    mismatches = []
    for name, profile, anchor, gap in _gap_cases():
        for _ in range(400):
            lo = anchor + rng.choice([-1.0, 0.0, rng.uniform(-3.0, 3.0)])  # -1 and 0 often
            hi = anchor if lo < anchor and rng.random() < 0.2 else lo + rng.uniform(0.01, 4.0)
            try:
                GraphCurve(lo, hi, profile)  # what every plane_curve builds
                raised = False
            except DomainError:
                raised = True
            if raised != gap(lo, hi):
                mismatches.append((name, lo, hi, raised))
    assert mismatches == []


class TestGridPath:
    @pytest.mark.parametrize("curve", [*ANALYTIC_CURVES, REVERSED])
    def test_grid_matches_at_and_the_evaluator_node_by_node(self, curve):
        ts = np.linspace(curve.t_lo, curve.t_hi, 17)
        jet = curve.grid(ts)
        assert all(f.shape == ts.shape for f in jet)
        for i, t in enumerate(ts):
            node = tuple(float(f[i]) for f in jet)
            assert node == tuple(curve.at(float(t)))
            if curve is REVERSED:  # x' < 0: evaluated at t_lo + t_hi - t with x', z' negated
                x, z, xd, zd, xdd, zdd = curve._eval(curve.t_lo + curve.t_hi - t)
                assert node == (x, z, -xd, -zd, xdd, zdd)
            else:
                assert node == tuple(float(v) for v in curve._eval(t))

    @pytest.mark.parametrize("curve", [LOG, REVERSED])
    def test_nan_and_outside_nodes_raise_domain_error(self, curve):
        for bad in (math.nan, curve.t_lo - 1e-9, curve.t_hi + 1e-9):
            with pytest.raises(DomainError):
                curve.grid([curve.t_lo, bad])
            with pytest.raises(DomainError):
                curve.at(bad)
        curve.at(curve.t_hi + 1e-13)  # the 1e-12 slack of the domain check

    @pytest.mark.parametrize("curve", [PARABOLA, LOG, NONGRAPH, REVERSED])
    def test_point_quantities_match_the_scalar_formulas_bitwise(self, curve):
        for t in np.linspace(curve.t_lo, curve.t_hi, 31):
            j = curve.at(float(t))
            s = j.zd / j.xd
            assert curvature(curve, t) == (j.xd * j.zdd - j.xdd * j.zd) / j.xd**3
            assert unit_tangent(curve, t) == (math.copysign(1.0, j.xd), s)
            assert minimal_normal(curve, t) == (-s, 1.0)
            assert parabolic_normal(curve, t) == (-s, 0.5 - 0.5 * s * s)

    @pytest.mark.parametrize("curve", [PARABOLA, LOG, LINE, NONGRAPH, REVERSED])
    @pytest.mark.parametrize("panels", [None, 7, 4096])
    def test_relative_arclength_bitwise_equals_pointwise_simpson(self, curve, panels, monkeypatch):
        def integrand(t):
            j = curve.at(t)
            return 0.5 * j.xd + 0.5 * j.zd**2 / j.xd

        samples = []  # the integrand values handed to the Simpson sum
        real = curves_module.simpson_samples
        monkeypatch.setattr(curves_module, "simpson_samples", lambda y, h: samples.append(y) or real(y, h))
        a, b = curve.t_lo + 0.1, curve.t_hi
        assert relative_arclength(curve, a, b, panels) == simpson(integrand, a, b, panels=panels)
        ts, _ = simpson_nodes(a, b, 256 if panels is None else panels)
        assert samples[0].tolist() == [integrand(t) for t in ts]


def test_curve_jet_digest_is_pinned():
    # sha256 of the float.hex of every grid field, taken when PlaneCurve.grid still
    # flattened the evaluator's tuples through itertools.chain and np.fromiter
    sampled = PlaneCurve.from_samples(np.linspace(0.5, 2.0, 13), np.linspace(0.5, 2.0, 13) ** 3)
    ode = ProfileODE.nonisotropic_alpha_catenary(2.0)
    swept = GraphCurve(1.0, 1.5, integrate(ode, 1.0, 1.0, 0.25, 1.5, 40))
    hexes = []
    for curve in (*ANALYTIC_CURVES, REVERSED, sampled, swept):
        for field in curve.grid(np.linspace(curve.t_lo, curve.t_hi, 33)):
            hexes.extend(float(v).hex() for v in field)
    digest = hashlib.sha256("\n".join(hexes).encode()).hexdigest()
    assert digest == "554affa41ef5102de82d8c00e854b4a4aa9f5ba3b5501816aa0e9d00f2848716"


@settings(max_examples=40, deadline=None)
@given(
    e=st.floats(-0.9, 0.9),
    c=st.tuples(st.floats(-2.0, 2.0), st.floats(-2.0, 2.0), st.floats(-2.0, 2.0)),
    a=st.floats(-3.0, 3.0),
    width=st.floats(0.2, 3.0),
    s=st.floats(0.0, 1.0),
)
def test_reversal_keeps_relative_length_and_curvature(e, c, a, width, s):
    """x = t + e sin t (x' > 0) and z = c0 + c1 t + c2 sin 2t, traversed both ways."""
    b = a + width
    fns = (
        lambda t: t + e * math.sin(t), lambda t: c[0] + c[1] * t + c[2] * math.sin(2 * t),
        lambda t: 1.0 + e * math.cos(t), lambda t: c[1] + 2 * c[2] * math.cos(2 * t),
        lambda t: -e * math.sin(t), lambda t: -4 * c[2] * math.sin(2 * t),
    )
    sign = (1.0, 1.0, -1.0, -1.0, 1.0, 1.0)  # d/dt of t -> a + b - t flips the first derivatives
    back = [lambda t, f=f, k=k: k * f(a + b - t) for f, k in zip(fns, sign)]
    fwd, rev = PlaneCurve.from_functions(a, b, *fns), PlaneCurve.from_functions(a, b, *back)
    assert relative_arclength(rev, a, b, panels=64) == pytest.approx(
        relative_arclength(fwd, a, b, panels=64), rel=1e-12
    )
    t = a + s * width  # the reversed curve reaches the same point at the same t
    point = pytest.approx((fwd.at(t).x, fwd.at(t).z), rel=1e-12, abs=1e-12)
    assert (rev.at(t).x, rev.at(t).z) == point
    assert curvature(rev, t) == pytest.approx(curvature(fwd, t), rel=1e-12, abs=1e-12)


def test_catenary_family_rejects_a_non_finite_lam():
    with pytest.raises(ValueError, match="^lam must be finite, got nan$"):
        CatenaryFamily(alpha=1.0, lam=math.nan)
