import math

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from isokit.errors import InvalidRadiusError, SingularDenominatorError
from isokit.singular import (
    PI_XY,
    PI_YZ,
    AlphaRevolutionLink,
    CatenoidBoundary,
    ProfileForm,
    SingularSpec,
    classify_helicoidal,
    classify_parabolic_revolution,
    cmc_profile_coefficient,
    cmc_quadric_coefficients,
    max_sms_residual,
    quadric_type,
    sms_residual,
    solve_catenoid_boundary,
)
from isokit.surfaces import (
    ParabolicRevolutionSpec,
    ParamSurface,
    RevolutionSpec,
    make_parabolic_revolution,
    make_revolution,
    mean_curvature,
)

YZ = SingularSpec(PI_YZ, 1.0, 0.0)
XY = SingularSpec(PI_XY, 1.0, 0.0)


class TestSmsResidual:
    def test_inverse_radius_revolution(self):
        prof = ProfileForm("inverse_radius", {"z1": 0.4, "z2": 1.5})
        surf = make_revolution(RevolutionSpec(prof.plane_curve(0.5, 3.0)), -1.3, 1.3)
        worst = max(
            abs(sms_residual(surf, YZ, float(t), float(th)))
            for t in np.linspace(0.55, 2.95, 25)
            for th in np.linspace(-1.2, 1.2, 9)
        )
        assert worst < 1e-12

    def test_warped_translation_log_profile(self):
        prof = ProfileForm("log_parabola", {"quad": 0.0, "z1": 0.3, "z2": 1.2})
        spec = ParabolicRevolutionSpec(0.0, 1.0, 0.0, 0.0, 0.0, prof.plane_curve(0.5, 2.5))
        surf = make_parabolic_revolution(spec)
        worst = max(
            abs(sms_residual(surf, YZ, float(t), float(th)))
            for t in np.linspace(0.6, 2.4, 20)
            for th in np.linspace(-0.9, 0.9, 9)
        )
        assert worst < 1e-12

    def test_horizontal_plane(self):
        plane = ParamSurface.graph(
            0.5, 1.5, -0.5, 0.5,
            lambda u, v: 2.0, lambda u, v: 0.0, lambda u, v: 0.0,
            lambda u, v: 0.0, lambda u, v: 0.0, lambda u, v: 0.0,
        )
        assert sms_residual(plane, YZ, 1.0, 0.0) == 0.0
        # against the non-isotropic plane the same graph hangs at height 2
        assert sms_residual(plane, XY, 1.0, 0.0) == pytest.approx(-0.125)

    def test_half_space_enforced(self):
        prof = ProfileForm("inverse_radius", {"z1": 0.4, "z2": 1.5})
        surf = make_revolution(RevolutionSpec(prof.plane_curve(0.5, 3.0)), 0.0, 2 * math.pi)
        with pytest.raises(SingularDenominatorError):
            sms_residual(surf, YZ, 1.0, math.pi)  # x = -1 < 0

    def test_max_residual_rejects_one_node_off_the_half_space(self):
        prof = ProfileForm("inverse_radius", {"z1": 0.4, "z2": 1.5})
        surf = make_revolution(RevolutionSpec(prof.plane_curve(0.5, 3.0)), -1.6, 1.6)
        t_vals = np.linspace(0.55, 2.95, 12)
        assert max_sms_residual(surf, YZ, t_vals, np.linspace(-1.2, 1.2, 7)) < 1e-12
        # only the last angle puts the node (0.55, 1.6) at x = 0.55 cos(1.6) < 0
        thetas = np.append(np.linspace(-1.2, 1.2, 7), 1.6)
        with pytest.raises(SingularDenominatorError):
            max_sms_residual(surf, YZ, t_vals, thetas)

    def test_shift_hitting_distance_rejected(self):
        plane = ParamSurface.graph(
            0.5, 1.5, -0.5, 0.5,
            lambda u, v: 2.0, lambda u, v: 0.0, lambda u, v: 0.0,
            lambda u, v: 0.0, lambda u, v: 0.0, lambda u, v: 0.0,
        )
        with pytest.raises(SingularDenominatorError):
            sms_residual(plane, SingularSpec(PI_YZ, 1.0, 1.0), 1.0, 0.0)


class TestCatenoidBoundary:
    def test_unit_to_e(self):
        sol = solve_catenoid_boundary(CatenoidBoundary(1.0, 0.0, math.e, 1.0))
        assert sol.status == "unique"
        assert (sol.c, sol.d) == pytest.approx((1.0, 0.0))

    def test_equal_heights_give_plane(self):
        sol = solve_catenoid_boundary(CatenoidBoundary(1.0, 5.0, math.e**2, 5.0))
        assert sol.status == "unique"
        assert (sol.c, sol.d) == pytest.approx((0.0, 5.0))

    def test_equal_radii_no_solution(self):
        assert solve_catenoid_boundary(CatenoidBoundary(2.0, 0.0, 2.0, 1.0)).status == "no_solution"

    def test_repeated_circle_degenerate(self):
        sol = solve_catenoid_boundary(CatenoidBoundary(2.0, 1.0, 2.0, 1.0))
        assert sol.status == "degenerate"
        assert sol.c is None and sol.d is None

    def test_invalid_radius(self):
        with pytest.raises(InvalidRadiusError):
            CatenoidBoundary(0.0, 0.0, 1.0, 1.0)

    @pytest.mark.parametrize("boundary", [(math.nan, 0.0, 1.0, 0.0), (1.0, 0.0, 1.0, math.inf)])
    def test_non_finite_boundary(self, boundary):
        with pytest.raises(ValueError, match="^boundary circle radii and heights must be finite$"):
            CatenoidBoundary(*boundary)

    @pytest.mark.parametrize(
        "boundary, c, d",
        [
            ((1e-300, 0.0, 1e300, 1e300), 1e300 / (600.0 * math.log(10.0)), 5e299),
            ((1e300, 0.0, 1e-300, 1.0), -1.0 / (600.0 * math.log(10.0)), 0.5),
        ],
        ids=["quotient_overflows", "quotient_underflows"],
    )
    def test_far_apart_radii(self, boundary, c, d):
        # r2 / r1 overflows to inf or underflows to 0, while ln(r2/r1) = +-600 ln 10
        sol = solve_catenoid_boundary(CatenoidBoundary(*boundary))
        assert sol.status == "unique"
        assert (sol.c, sol.d) == pytest.approx((c, d), rel=1e-12)

    @settings(max_examples=60)
    @given(
        st.floats(min_value=0.2, max_value=5.0),
        st.floats(min_value=0.5, max_value=4.0),
        st.floats(min_value=-3.0, max_value=3.0),
        st.floats(min_value=-3.0, max_value=3.0),
    )
    def test_boundary_equations_satisfied(self, r1, ratio, z1, z2):
        r2 = r1 * ratio
        if abs(math.log(r2 / r1)) < 0.1:
            return  # keep the solve well-conditioned
        sol = solve_catenoid_boundary(CatenoidBoundary(r1, z1, r2, z2))
        assert sol.status == "unique"
        assert abs(sol.c * math.log(r1) + sol.d - z1) < 1e-12
        assert abs(sol.c * math.log(r2) + sol.d - z2) < 1e-12

    def test_height_map_strictly_monotone(self):
        r1, r2, z1 = 1.0, 3.0, 0.25
        heights = [c * math.log(r2 / r1) + z1 for c in np.linspace(-4.0, 4.0, 33)]
        assert all(b > a for a, b in zip(heights, heights[1:]))


class TestClassifyHelicoidal:
    @pytest.mark.parametrize("ref,name", [(PI_YZ, "sin_theta_coefficient"), (PI_XY, "theta_coefficient")])
    def test_nonzero_pitch_impossible(self, ref, name):
        report = classify_helicoidal(0.7, ref)
        assert report.case == "NoHelicoidal"
        assert report.constraints[0][0] == name
        assert abs(report.constraints[0][1]) == pytest.approx(0.7)

    def test_zero_pitch_isotropic_family(self):
        report = classify_helicoidal(0.0, PI_YZ, z1=0.3, z2=2.0)
        assert report.case == "EuclideanRevolutionInverse"
        assert report.profile.kind == "inverse_radius"
        residuals = dict(report.constraints)
        assert residuals["radial_ode_max_abs"] < 1e-12
        assert residuals["sms_residual_max_abs"] < 1e-9

    def test_zero_pitch_zero_coefficient_is_plane(self):
        report = classify_helicoidal(0.0, PI_YZ, z1=1.0, z2=0.0)
        assert report.case == "HorizontalPlane"

    def test_zero_pitch_nonisotropic_ode_handle(self):
        report = classify_helicoidal(0.0, PI_XY)
        assert report.case == "NonIsotropicODE"
        assert report.ode is not None
        t, z, zp = 1.3, 0.8, -0.2
        assert report.ode.rhs(t, z, zp) == pytest.approx((1 - zp**2) / (2 * z) - zp / t)


class TestClassifyParabolic:
    def test_case_1a_profile(self):
        report = classify_parabolic_revolution(0.0, 1.0, 0.0, 0.0, 1.0, PI_YZ, z1=0.2, z2=1.0)
        assert report.case == "ParabolicCase1a"
        assert report.profile.kind == "log_parabola"
        assert report.profile.coefficients["quad"] == pytest.approx(-0.25)
        assert dict(report.constraints)["sms_residual_max_abs"] < 1e-9

    def test_case_1a_rejects_nonzero_c1(self):
        report = classify_parabolic_revolution(0.0, 1.0, 0.0, 0.5, 1.0, PI_YZ)
        assert report.case == "NoSolution"
        assert report.constraints == [("c1", 0.5)]

    def test_case_1b_profile(self):
        report = classify_parabolic_revolution(1.0, 1.0, 0.0, 1.0, -2.0, PI_YZ, z1=3.0)
        assert report.case == "ParabolicCase1b"
        assert report.profile.kind == "quadratic"
        assert report.profile.coefficients["quad"] == pytest.approx(0.5)
        assert report.parameters["z2"] == 0.0
        assert dict(report.constraints)["sms_residual_max_abs"] < 1e-9

    def test_case_1b_rejects_unbalanced_parameters(self):
        report = classify_parabolic_revolution(1.0, 1.0, 0.0, 1.0, 1.0, PI_YZ)
        assert report.case == "NoSolution"
        assert report.constraints[0][0] == "a*c2 + 2*b*c1"
        assert report.constraints[0][1] == pytest.approx(3.0)

    @pytest.mark.parametrize("a, c1, c2", [(1e300, 0.0, 1e300), (1e300, -1e300, 1e300)])
    def test_case_1b_non_finite_gate_is_violated(self, a, c1, c2):
        # a*c2 overflows to inf (and inf - inf is NaN); no surface is built, so no warning
        report = classify_parabolic_revolution(a, 1.0, 0.0, c1, c2, PI_YZ)
        assert report.case == "NoSolution"
        assert [name for name, _ in report.constraints] == ["a*c2 + 2*b*c1"]
        assert report.profile is None

    def test_nonisotropic_requires_c_and_c1_zero(self):
        report = classify_parabolic_revolution(0.0, 1.0, 1.0, 0.0, 1.0, PI_XY)
        assert report.case == "NoSolution"
        assert report.constraints == [("c", 1.0)]
        both = classify_parabolic_revolution(0.0, 1.0, 1.0, 0.5, 1.0, PI_XY)
        assert [name for name, _ in both.constraints] == ["c", "c1"]

    def test_nonisotropic_ode_handle(self):
        report = classify_parabolic_revolution(0.0, 1.0, 0.0, 0.0, 0.0, PI_XY)
        assert report.case == "ParabolicNonIsotropic"
        # with all group shifts off: 2 z z'' + z'^2 - 1 = 0, solved by z = t
        assert report.ode.rhs(1.7, 1.7, 1.0) == pytest.approx(0.0, abs=1e-14)

    def test_b_zero_invalid(self):
        with pytest.raises(ValueError):
            classify_parabolic_revolution(0.0, 0.0, 0.0, 0.0, 1.0, PI_YZ)


class TestQuadricTyping:
    def test_reduction_without_x_shift(self):
        res = quadric_type(0.0, 1.0, 2.0, 1.0, 0.5)
        assert res.kind == "HyperbolicParaboloid"
        assert res.discriminant == pytest.approx(-4.0)  # minus c1 squared

    def test_minimal_always_hyperbolic(self):
        for c1, c2 in [(1.0, 0.0), (0.0, 2.0), (0.7, -0.3)]:
            res = quadric_type(0.4, 1.2, c1, c2, 0.0)
            assert res.discriminant == pytest.approx(-(c1**2 + c2**2))
            assert res.kind == "HyperbolicParaboloid"

    def test_degenerate_cylinder(self):
        assert quadric_type(0.3, 2.0, 0.0, 0.0, 5.0) == ("ParabolicCylinder", 0.0)

    def test_elliptic_case(self):
        res = quadric_type(0.0, 1.0, 0.0, 1.0, 1.0)
        assert res.kind == "EllipticParaboloid"
        assert res.discriminant == pytest.approx(1.0)

    def test_scale_invariance_with_consistent_curvature(self):
        # with a = 0 and H0 = c2/(2b) the discriminant ignores the b scale
        for sigma in (0.5, 1.0, 4.0):
            b = 1.3 * sigma
            res = quadric_type(0.0, b, 2.0, 1.0, 1.0 / (2 * b))
            assert res.discriminant == pytest.approx(-4.0)
            assert res.kind == "HyperbolicParaboloid"

    def test_b_zero_invalid(self):
        with pytest.raises(ValueError):
            quadric_type(0.0, 0.0, 1.0, 1.0, 0.0)


class TestQuadricCoefficients:
    def test_pure_bowl(self):
        lam = 0.9
        A, B, C, D, E = cmc_quadric_coefficients(0.0, 1.0, 0.0, 0.0, 0.0, 0.0, 0.3, lam)
        assert (A, B, C) == pytest.approx((lam, 0.0, 0.0))
        assert (D, E) == pytest.approx((0.3, 0.0))

    def test_trace_equals_curvature_of_graph(self):
        a, b, c, c1, c2, h0 = 0.7, 1.4, 0.2, -0.6, 0.9, 0.35
        z2 = cmc_profile_coefficient(a, b, c1, c2, h0)
        A, B, C, D, E = cmc_quadric_coefficients(a, b, c, c1, c2, 0.0, 0.5, z2)
        assert A + C == pytest.approx(h0, abs=1e-13)
        graph = ParamSurface.graph(
            0.1, 1.0, 0.1, 1.0,
            lambda x, y: A * x * x + 2 * B * x * y + C * y * y + D * x + E * y,
            lambda x, y: 2 * A * x + 2 * B * y + D,
            lambda x, y: 2 * B * x + 2 * C * y + E,
            lambda x, y: 2 * A,
            lambda x, y: 2 * B,
            lambda x, y: 2 * C,
        )
        assert mean_curvature(graph, 0.4, 0.8) == pytest.approx(h0, abs=1e-12)

    def test_minimal_trace_vanishes(self):
        a, b, c1, c2 = 0.8, 1.1, 0.5, -0.4
        z2 = cmc_profile_coefficient(a, b, c1, c2, 0.0)
        A, _, C, _, _ = cmc_quadric_coefficients(a, b, 0.0, c1, c2, 0.0, 0.0, z2)
        assert abs(A + C) < 1e-12


class TestAlphaRevolutionLink:
    def test_families(self):
        assert AlphaRevolutionLink(1.0).family(1.0, 0.5)(2.0)[0] == pytest.approx(1.0)
        log_link = AlphaRevolutionLink(0.0)
        assert log_link.catenary_alpha == 1.0
        assert log_link.family(2.0, 0.0)(math.e)[0] == pytest.approx(2.0)
        steep = AlphaRevolutionLink(2.0)
        assert steep.family(1.0, 0.0)(2.0)[0] == pytest.approx(0.25)
        assert "3" in steep.ode_text

    @pytest.mark.parametrize("alpha", [0.0, 1.0, 2.0, 3.0])
    def test_weighted_residual_vanishes_on_linked_family(self, alpha):
        link = AlphaRevolutionLink(alpha)
        form = link.family(1.0, 0.5).form
        surf = make_revolution(RevolutionSpec(form.plane_curve(0.5, 3.0)), -1.3, 1.3)
        spec = SingularSpec(PI_YZ, alpha, 0.0)
        worst = max(
            abs(sms_residual(surf, spec, float(t), float(th)))
            for t in np.linspace(0.55, 2.95, 50)
            for th in np.linspace(-1.25, 1.25, 16)
        )
        assert worst < 1e-9
        for t in (0.7, 1.0, 2.0):
            assert link.ode_residual(form, t) == pytest.approx(0.0, abs=1e-12)


def test_report_json_schema():
    report = classify_parabolic_revolution(0.0, 1.0, 0.0, 0.0, 1.0, PI_YZ)
    payload = report.to_json_dict()
    assert set(payload) == {"case", "parameters", "constraints", "profile"}
    assert payload["case"] == "ParabolicCase1a"
    assert {c["name"] for c in payload["constraints"]} == {"c1", "sms_residual_max_abs"}
    assert payload["profile"]["kind"] == "log_parabola"
    assert set(payload["profile"]["coefficients"]) == {"quad", "z1", "z2"}
    # reports without a closed form serialize a null profile
    ode_report = classify_helicoidal(0.0, PI_XY)
    assert ode_report.to_json_dict()["profile"] is None


@pytest.mark.parametrize(
    "call, message",
    [
        (lambda: classify_helicoidal(math.inf, PI_XY), "pitch must be finite, got inf"),
        (lambda: quadric_type(0.0, 1.0, 0.0, 1.0, math.nan), "h0 must be finite, got nan"),
        (lambda: classify_parabolic_revolution(math.nan, 1.0, 0.0, 0.0, 0.0, PI_YZ),
         "a must be finite, got nan"),
        (lambda: SingularSpec(PI_YZ, math.nan), "alpha must be finite, got nan"),
    ],
    ids=["classify_helicoidal", "quadric_type", "classify_parabolic_revolution", "SingularSpec"],
)
def test_non_finite_input_is_a_value_error_naming_it(call, message):
    with pytest.raises(ValueError, match=f"^{message}$"):
        call()


@pytest.mark.parametrize(
    "call, message",
    [
        (lambda: SingularSpec("zz"), "unknown reference plane 'zz'"),
        (lambda: cmc_profile_coefficient(1.0, 0.0, 0.5, 0.5, 0.2), "needs b != 0"),
        (lambda: cmc_quadric_coefficients(1.0, 0.0, 0.0, 0.5, 0.5, 0.0, 0.3, 0.2), "needs b != 0"),
    ],
    ids=["SingularSpec", "cmc_profile_coefficient", "cmc_quadric_coefficients"],
)
def test_invalid_reference_plane_or_zero_b_is_a_value_error(call, message):
    with pytest.raises(ValueError, match=f"^{message}$"):
        call()


def _inset_revolution_residual(z1, z2):
    """Reference: the surface over [0.5, 3] x [-1.3, 1.3], sampled 0.05 inside its edges."""
    form = ProfileForm("inverse_radius", {"z1": z1, "z2": z2})
    surface = make_revolution(RevolutionSpec(form.plane_curve(0.5, 3.0)), -1.3, 1.3)
    return max_sms_residual(surface, YZ, np.linspace(0.55, 2.95, 50), np.linspace(-1.25, 1.25, 16))


def _inset_parabolic_residual(form, a, b, c, c1, c2):
    """Reference: the surface over [0.8, 2.4] x [-theta_max, theta_max], sampled 0.05 inside
    in t and at 0.95 theta_max in theta."""
    theta_max = 1.0 if a == 0.0 else min(1.0, 0.5 * 0.8 / abs(a))
    spec = ParabolicRevolutionSpec(a, b, c, c1, c2, form.plane_curve(0.8, 2.4))
    surface = make_parabolic_revolution(spec, -theta_max, theta_max)
    t_vals = np.linspace(0.8 + 0.05, 2.4 - 0.05, 50)
    th_vals = np.linspace(-0.95 * theta_max, 0.95 * theta_max, 16)
    return max_sms_residual(surface, YZ, t_vals, th_vals)


def test_classification_residuals_keep_the_inset_grid_bits():
    rng = np.random.default_rng(2028)
    zero = 0
    for i in range(201):
        z1, z2, c, c1 = rng.uniform(-3.0, 3.0, 4).tolist()
        if i % 3 == 0:
            report = classify_helicoidal(0.0, PI_YZ, z1, z2)
            reference = _inset_revolution_residual(z1, z2)
        else:
            # case 1a (a = 0) or case 1b with |a| below and above 0.4; b of either sign
            a = 0.0 if i % 3 == 1 else float(rng.choice([-1, 1]) * 10 ** rng.uniform(-2, 1))
            b = float(rng.choice([-1, 1]) * 10 ** rng.uniform(-1, 1))
            c1, c2 = (0.0, rng.uniform(-3, 3)) if a == 0.0 else (c1, -2.0 * b * c1 / a)
            report = classify_parabolic_revolution(a, b, c, c1, c2, PI_YZ, z1, z2)
            reference = _inset_parabolic_residual(report.profile, a, b, c, c1, c2)
        residual = dict(report.constraints)["sms_residual_max_abs"]
        assert residual == reference, (i, report.parameters)
        zero += residual == 0.0
    assert zero < 20  # the residuals are rounding errors, mostly not 0.0: a moved node shows



@pytest.mark.parametrize("classify", [
    lambda: classify_helicoidal(0.0, PI_YZ, 0.3, 1.4),
    lambda: classify_parabolic_revolution(0.3, 1.2, 0.0, 0.6, -4.8, PI_YZ, -0.4),
], ids=["helicoidal", "parabolic"])
def test_a_classification_reads_its_constraints_from_one_check_grid(monkeypatch, classify):
    profile_calls, grids = [], []
    form_call, grid = ProfileForm.__call__, ParamSurface.grid
    monkeypatch.setattr(ProfileForm, "__call__",
                        lambda self, t: profile_calls.append(t) or form_call(self, t))
    monkeypatch.setattr(ParamSurface, "grid", lambda self, us, vs: grids.append(
        (np.size(us), np.size(vs))) or grid(self, us, vs))
    classify()
    # the ends of the profile's interval, the 9 u-nodes of the orientation scan and the
    # 50 u-nodes of the check grid: no constraint evaluates the profile again
    assert len(profile_calls) == 2 + 9 + 50
    assert grids == [(9, 9), (50, 16)]


def test_radial_ode_constraint_keeps_the_scalar_loop_bits():
    rng = np.random.default_rng(30)
    nodes = np.linspace(0.55, 2.95, 50)
    for i in range(300):
        z1 = float(rng.choice([-1, 1]) * 10 ** rng.uniform(-300, 300))
        power = rng.uniform(-300, 307) if i % 3 else rng.uniform(306, 307)  # near 1e307
        z2 = float(rng.choice([-1, 1]) * 10**power)
        report = classify_helicoidal(0.0, PI_YZ, z1, z2)
        loop = max(abs(AlphaRevolutionLink(1.0).ode_residual(report.profile, float(t)))
                   for t in nodes)
        assert dict(report.constraints)["radial_ode_max_abs"] == loop, (z1, z2)
