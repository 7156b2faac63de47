import json
import math
import sys

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from isokit.curves import GraphCurve
from isokit.errors import (
    DomainError,
    InvalidIntervalError,
    MaxIterExceededError,
    NonContractionError,
    SingularityError,
    StepFailureError,
)
from isokit.odes import (
    PICARD_UNIT_RADIUS,
    IVPResult,
    ProfileODE,
    _unit_picard,
    integrate,
    ivp_residual,
    operator_T_apply,
    picard_solve_degenerate,
)
from isokit.singular import PI_XY, SingularSpec, max_sms_residual
from isokit.surfaces import RevolutionSpec, make_revolution

E_SMS = ProfileODE.revolution_nonisotropic()


class TestProfileODEs:
    def test_alpha_catenary_rhs(self):
        ode = ProfileODE.nonisotropic_alpha_catenary(1.0, 0.0)
        assert ode.rhs(0.3, 2.0, 0.0) == pytest.approx(0.25)
        assert ode.rhs(0.3, 2.0, 1.0) == 0.0  # unit-slope branch is stationary

    def test_alpha_catenary_denominator_guard(self):
        ode = ProfileODE.nonisotropic_alpha_catenary(1.0, 1.0)
        with pytest.raises(SingularityError):
            ode.rhs(0.0, 1.0, 0.0)

    def test_alpha_catenary_fractional_power_guard(self):
        ode = ProfileODE.nonisotropic_alpha_catenary(0.5, 0.0)
        with pytest.raises(SingularityError):
            ode.rhs(0.0, -1.0, 0.0)

    def test_revolution_rhs_regularized_at_origin(self):
        # near t = 0 the radial term halves the curvature source
        assert E_SMS.rhs(0.0, 2.0, 0.0) == pytest.approx(1.0 / 8.0)
        assert E_SMS.rhs(1.0, 2.0, 0.0) == pytest.approx(0.25)

    @pytest.mark.parametrize(("args", "name", "value"), [
        ((math.nan,), "alpha", "nan"), ((1.0, math.nan), "lam", "nan"),
        ((math.inf,), "alpha", "inf"),
    ])
    def test_alpha_catenary_rejects_a_non_finite_parameter(self, args, name, value):
        # these constructed, and integrate failed with "non-finite state at t=0.1"
        with pytest.raises(ValueError, match=f"^{name} must be finite, got {value}$"):
            ProfileODE.nonisotropic_alpha_catenary(*args)

    @pytest.mark.parametrize(("args", "name", "value"), [
        ((math.nan, 1.0, 0.5), "a", "nan"), ((0.5, math.inf, 0.5), "b", "inf"),
        ((0.5, 1.0, math.nan), "c2", "nan"),
    ])
    def test_parabolic_rejects_a_non_finite_parameter(self, args, name, value):
        with pytest.raises(ValueError, match=f"^{name} must be finite, got {value}$"):
            ProfileODE.parabolic_nonisotropic(*args)

    def test_parabolic_rhs_reduction(self):
        # a=0, b=1, c2=0: (2z) z'' + z'^2 - 1 = 0, solved by z = t
        ode = ProfileODE.parabolic_nonisotropic(0.0, 1.0, 0.0)
        for t in (0.5, 1.0, 3.0):
            assert ode.rhs(t, t, 1.0) == pytest.approx(0.0, abs=1e-14)
        with pytest.raises(ValueError):
            ProfileODE.parabolic_nonisotropic(0.0, 0.0, 1.0)


def _formula_alpha(alpha, lam):
    return lambda t, z, zp: alpha * z ** (alpha - 1.0) * 0.5 * (1.0 - zp * zp) / (z**alpha - lam)


def _formula_revolution():
    def rhs(t, z, zp):
        core = (1.0 - zp * zp) / (2.0 * z)
        return 0.5 * core if t < 1e-8 else core - zp / t

    return rhs


def _formula_parabolic(a, b, c2):
    ab2 = a * a + b * b
    return lambda t, z, zp: (
        b * b / ab2
        - zp * zp
        + 2.0 * a * b * c2 * t * zp / ab2
        - 2.0 * b * c2 * (z + b * c2 * t * t) / ab2
    ) / (2.0 * z + b * c2 * t * t)


@pytest.mark.parametrize(
    "ode, formula",
    [
        (ProfileODE.nonisotropic_alpha_catenary(1.0, 0.0), _formula_alpha(1.0, 0.0)),
        (ProfileODE.nonisotropic_alpha_catenary(2.5, 0.3), _formula_alpha(2.5, 0.3)),
        (ProfileODE.nonisotropic_alpha_catenary(-1.5, -0.2), _formula_alpha(-1.5, -0.2)),
        (ProfileODE.revolution_nonisotropic(), _formula_revolution()),
        (ProfileODE.parabolic_nonisotropic(0.3, 1.2, 0.6), _formula_parabolic(0.3, 1.2, 0.6)),
        (ProfileODE.parabolic_nonisotropic(-0.7, 1.9, 0.25), _formula_parabolic(-0.7, 1.9, 0.25)),
        (ProfileODE.parabolic_nonisotropic(1.0, -1.3, -0.45), _formula_parabolic(1.0, -1.3, -0.45)),
    ],
    ids=["alpha1", "alpha2.5", "alpha-1.5", "revolution",
         "parabolic", "parabolic_a<0", "parabolic_b<0"],
)
def test_rhs_bytes_match_the_written_formula(ode, formula):
    # integrate() calls ode.rhs, so only a direct comparison sees a regrouped constant
    rng = np.random.default_rng(20261018)
    ts = np.concatenate([[0.0, 5e-9], rng.uniform(0.0, 3.0, 198)])
    for t, z, zp in zip(ts.tolist(), rng.uniform(0.2, 3.0, 200).tolist(),
                        rng.uniform(-2.0, 2.0, 200).tolist()):
        assert ode.rhs(t, z, zp).hex() == formula(t, z, zp).hex()


class TestIntegrate:
    def test_unit_slope_equilibrium_preserved(self):
        ode = ProfileODE.nonisotropic_alpha_catenary(1.0, 0.0)
        res = integrate(ode, 1.0, 2.0, 1.0, 3.0, 500)
        assert np.max(np.abs(res.zp - 1.0)) < 1e-10
        np.testing.assert_allclose(res.z, res.t + 1.0, atol=1e-10)

    def test_reversibility(self):
        fwd = integrate(E_SMS, 1.0, 1.0, 0.0, 2.0, 1000)
        back = integrate(E_SMS, 2.0, float(fwd.z[-1]), float(fwd.zp[-1]), 1.0, 1000)
        assert abs(back.z[-1] - 1.0) < 1e-9
        assert abs(back.zp[-1]) < 1e-9

    def test_parabolic_exact_data_residual(self):
        ode = ProfileODE.parabolic_nonisotropic(0.0, 1.0, 0.0)
        res = integrate(ode, 1.0, 1.0, 1.0, 2.0, 800)
        np.testing.assert_allclose(res.z, res.t, atol=1e-10)
        assert ivp_residual(res, ode) < 1e-10

    def test_midpoint_residual_bound(self):
        res = integrate(E_SMS, 1.0, 1.0, 0.0, 2.0, 4096)
        assert ivp_residual(res, E_SMS) < 1e-8

    def test_fourth_order_convergence(self):
        ref = integrate(E_SMS, 1.0, 1.0, 0.0, 2.0, 16384)
        errs = [
            abs(integrate(E_SMS, 1.0, 1.0, 0.0, 2.0, n).z[-1] - ref.z[-1])
            for n in (32, 64, 128)
        ]
        assert errs[0] / errs[1] == pytest.approx(16.0, rel=0.25)
        assert errs[1] / errs[2] == pytest.approx(16.0, rel=0.25)

    def test_singularity_reported(self):
        ode = ProfileODE.nonisotropic_alpha_catenary(1.0, 1.0)
        with pytest.raises(SingularityError):
            integrate(ode, 1.0, 1.0, 0.0, 2.0, 100)  # weight base equals the shift

    @pytest.mark.parametrize(("ode", "message"), [
        (ProfileODE.revolution_nonisotropic(), "profile height vanished"),
        (ProfileODE.parabolic_nonisotropic(0.0, 1.0, 0.0), "denominator 0.0 vanished"),
    ])
    def test_vanishing_denominator_is_named(self, ode, message):
        with pytest.raises(SingularityError, match=f"^{message}$"):
            integrate(ode, 1.0, 0.0, 0.0, 2.0, 10)  # z0 = 0 zeroes 2z, and 2z + b c2 t^2 at c2 = 0

    def test_blowup_reported(self):
        quad = ProfileODE("quadratic_growth", lambda t, z, zp: z * z)
        with pytest.raises(StepFailureError):
            integrate(quad, 0.0, 10.0, 100.0, 5.0, 12)

    def test_step_validation(self):
        with pytest.raises(ValueError):
            integrate(E_SMS, 1.0, 1.0, 0.0, 2.0, 0)

    def test_overflowing_rhs_is_a_named_step_failure(self):
        # z**3 of z0 = 1e120 leaves the double range inside the rhs: a Python OverflowError
        ode = ProfileODE.nonisotropic_alpha_catenary(3.0)
        with pytest.raises(StepFailureError, match=r"^right-hand side overflowed in the step "
                                                   r"at t=0\.0: .*out of range"):
            integrate(ode, 0.0, 1e120, 0.0, 1.0, 10)

    def test_zero_to_a_negative_power_is_a_named_singularity(self):
        ode = ProfileODE.nonisotropic_alpha_catenary(-1.0)
        with pytest.raises(SingularityError, match=r"^right-hand side singular in the step "
                                                   r"at t=0\.0: 0\.0 cannot be raised"):
            integrate(ode, 0.0, 0.0, 0.0, 1.0, 10)

    @pytest.mark.parametrize(("args", "name", "value"), [
        ((1.0, 1.0, 0.0, math.inf), "t1", "inf"),
        ((math.nan, 1.0, 0.0, 1.0), "t0", "nan"),
        ((0.0, math.inf, 0.0, 1.0), "z0", "inf"),
        ((0.0, 1.0, math.nan, 1.0), "zp0", "nan"),
    ], ids=["t1", "t0", "z0", "zp0"])
    def test_non_finite_input_is_named(self, args, name, value):
        # t1 = inf was a StepFailureError "non-finite state at t=inf": a solver failure
        with pytest.raises(ValueError, match=f"^{name} must be finite, got {value}$"):
            integrate(ProfileODE.nonisotropic_alpha_catenary(1.0), *args, 10)

    @pytest.mark.filterwarnings("error")
    def test_empty_interval_is_invalid(self):
        # t1 == t0 returned 11 samples at one t, whose evaluation divided by h = 0
        with pytest.raises(InvalidIntervalError,
                           match=r"^empty integration interval: t1 = t0 = 1\.0$"):
            integrate(E_SMS, 1.0, 1.0, 0.0, 1.0, 10)


def _numpy_store_integrate(ode, t0, z0, zp0, t1, steps):
    """Reference RK4 loop on numpy array stores, as the integrator first ran."""
    h = (t1 - t0) / steps
    ts, zs, ps = np.empty(steps + 1), np.empty(steps + 1), np.empty(steps + 1)
    t, z, p = float(t0), float(z0), float(zp0)
    ts[0], zs[0], ps[0] = t, z, p
    for i in range(steps):
        k1z, k1p = p, ode.rhs(t, z, p)
        k2z = p + 0.5 * h * k1p
        k2p = ode.rhs(t + 0.5 * h, z + 0.5 * h * k1z, p + 0.5 * h * k1p)
        k3z = p + 0.5 * h * k2p
        k3p = ode.rhs(t + 0.5 * h, z + 0.5 * h * k2z, p + 0.5 * h * k2p)
        k4z = p + h * k3p
        k4p = ode.rhs(t + h, z + h * k3z, p + h * k3p)
        z += h * (k1z + 2.0 * k2z + 2.0 * k3z + k4z) / 6.0
        p += h * (k1p + 2.0 * k2p + 2.0 * k3p + k4p) / 6.0
        t = t0 + (i + 1) * h
        if not (math.isfinite(z) and math.isfinite(p)):
            raise StepFailureError(f"non-finite state at t={t}")
        ts[i + 1], zs[i + 1], ps[i + 1] = t, z, p
    return ts, zs, ps


class TestIntegrateReference:
    @pytest.mark.parametrize(
        "ode",
        [
            ProfileODE.nonisotropic_alpha_catenary(2.0, -1.0),
            E_SMS,
            ProfileODE.parabolic_nonisotropic(-0.4, 1.3, 0.35),
        ],
        ids=lambda ode: ode.kind,
    )
    @pytest.mark.parametrize("t1", [2.1, 0.45], ids=["forward", "backward"])
    def test_bytes_match_numpy_store_loop(self, ode, t1):
        # a regrouped increment such as (h / 6) * (...) differs from the
        # reference in the last bit only where the state is small next to
        # it; z starting low at a negative slope, and z' starting at 0, get there
        for z0, zp0 in ((0.3, -0.5), (1.3, 0.0)):
            res = integrate(ode, 0.9, z0, zp0, t1, 1001)
            ref = _numpy_store_integrate(ode, 0.9, z0, zp0, t1, 1001)
            for got, want in zip((res.t, res.z, res.zp), ref):
                assert got.tobytes() == want.tobytes()

    def test_singularity_raised_mid_run(self):
        # z'' > 0 is too weak to stop the descent: z crosses 0 just after
        # t = 0.2, where the fractional power raises; the first 0.1 is fine
        ode = ProfileODE.nonisotropic_alpha_catenary(0.5, 0.0)
        assert integrate(ode, 0.0, 0.5, -2.0, 0.1, 10).z[-1] > 0.0
        with pytest.raises(SingularityError, match="weight base must stay positive"):
            integrate(ode, 0.0, 0.5, -2.0, 1.0, 100)

    def test_step_failure_raised_mid_run(self):
        quad = ProfileODE("quadratic_growth", lambda t, z, zp: z * z)
        with pytest.raises(StepFailureError) as ref:
            _numpy_store_integrate(quad, 0.0, 10.0, 100.0, 5.0, 12)
        with pytest.raises(StepFailureError) as err:
            integrate(quad, 0.0, 10.0, 100.0, 5.0, 12)
        # step 5 of 12
        assert str(err.value) == str(ref.value) == "non-finite state at t=2.0833333333333335"


class TestOperator:
    def test_constant_profile_maps_to_quadratic(self):
        t = np.linspace(0.0, 0.5, 129)
        prof = IVPResult(t, np.full(t.size, 2.0), np.zeros(t.size))
        out = operator_T_apply(2.0, prof)
        np.testing.assert_allclose(out.z, 2.0 + t**2 / 16.0, atol=1e-13)
        assert out.zp[0] == 0.0

    def test_division_floor(self):
        t = np.linspace(0.0, 0.5, 65)
        prof = IVPResult(t, np.zeros(t.size), np.zeros(t.size))
        with pytest.raises(SingularityError):
            operator_T_apply(1.0, prof)

    def test_fixed_point_is_stationary(self):
        res = picard_solve_degenerate(1.0, tol=1e-13)
        prof = IVPResult(res.t, res.z, res.zp)
        again = operator_T_apply(1.0, prof)
        drift = np.max(np.abs(again.z - res.z)) + np.max(np.abs(again.zp - res.zp))
        assert drift < 1e-12


class TestPicard:
    @pytest.fixture(autouse=True)
    def _fresh_unit_solve(self):
        # some tests patch the iteration: none may see or leave a cached unit solve
        _unit_picard.cache_clear()
        yield
        _unit_picard.cache_clear()

    @pytest.mark.parametrize("a", [0.5, 1.0, 2.0])
    def test_origin_curvature(self, a):
        res = picard_solve_degenerate(a)
        assert res.zp[0] == 0.0
        assert abs(res.zpp_origin - 1.0 / (4.0 * a)) < 1e-6

    def test_contraction_ratios(self):
        res = picard_solve_degenerate(1.0)
        assert res.contraction_ratios
        assert all(r < 1.0 for r in res.contraction_ratios)

    def test_iterates_stay_in_ball(self):
        res = picard_solve_degenerate(1.5)
        eps = res.epsilon
        assert np.max(np.abs(res.z - 1.5)) <= eps
        assert np.max(np.abs(res.zp)) <= eps

    def test_radius_honours_both_bounds(self):
        a, eps = 1.0, 0.5
        r = PICARD_UNIT_RADIUS
        self_map = min(
            math.sqrt(4 * eps * (a - eps) / (1 + eps**2)),
            2 * eps * (a - eps) / (1 + eps**2),
        )
        assert r <= 0.9 * self_map + 1e-15
        assert r > 0.0

    def test_degenerate_slope_limit(self):
        # z'(t)/t tends to the origin curvature
        res = picard_solve_degenerate(1.0)
        k = res.t.size // 8
        ratios = res.zp[1:k] / res.t[1:k]
        assert np.max(np.abs(ratios - res.zpp_origin)) < 1e-5

    def test_rk_continuation_agreement(self):
        res = picard_solve_degenerate(1.0)
        half = 0.5 * res.radius
        z0, zp0 = res.state_at(half)
        rk = integrate(E_SMS, half, z0, zp0, res.radius, 512)
        overlap = np.interp(rk.t, res.t, res.z)
        assert np.max(np.abs(rk.z - overlap)) < 1e-7

    def test_parameter_validation(self):
        with pytest.raises(ValueError):
            picard_solve_degenerate(-1.0)
        for a in (math.nan, math.inf):
            with pytest.raises(ValueError, match="a must be finite and positive"):
                picard_solve_degenerate(a)

    @pytest.mark.parametrize("tol", [0.0, -1.0, math.nan])
    def test_tol_must_be_positive(self, tol):
        # a tol of 0 ran all Picard iterations and reported no convergence
        with pytest.raises(ValueError, match=f"^tol must be positive, got {tol}$"):
            picard_solve_degenerate(1.0, tol=tol)

    def test_scale_that_overflows_the_profile_is_a_domain_error(self):
        message = r"^the profile scaled to a = 1\.7976931348623157e\+308 overflows a float$"
        with pytest.raises(DomainError, match=message):
            picard_solve_degenerate(sys.float_info.max)

    def test_iteration_cap(self, monkeypatch):
        from isokit import odes as odes_module

        monkeypatch.setattr(odes_module, "PICARD_MAX_ITER", 1)
        with pytest.raises(MaxIterExceededError):
            picard_solve_degenerate(1.0, tol=1e-15)

    def test_noncontraction_guard(self, monkeypatch):
        from isokit import odes as odes_module

        state = {"step": 1.0}

        def expanding(a, profile):
            # corrections double every call, so the second ratio is 2 >= 1
            state["step"] *= 2.0
            return IVPResult(profile.t, profile.z + state["step"], profile.zp)

        monkeypatch.setattr(odes_module, "operator_T_apply", expanding)
        with pytest.raises(NonContractionError):
            odes_module.picard_solve_degenerate(1.0)


@settings(max_examples=60, deadline=None)
@given(st.floats(min_value=-8.0, max_value=4.0))
def test_picard_is_the_unit_solve_scaled(exponent):
    a = 10.0**exponent
    unit = picard_solve_degenerate(1.0)
    res = picard_solve_degenerate(a)
    assert res.z[0] == a
    assert res.zp[0] == 0.0
    assert abs(4.0 * a * res.zpp_origin - 1.0) <= 1e-6
    assert res.t.tobytes() == (a * unit.t).tobytes()
    assert res.z.tobytes() == (a * unit.z).tobytes()
    assert res.zp.tobytes() == unit.zp.tobytes()
    before = [arr.tobytes() for arr in (res.t, res.z, res.zp)]
    for arr in (res.t, res.z, res.zp):
        arr[:] = -1.0
    res.contraction_ratios.clear()
    again = picard_solve_degenerate(a)
    assert [arr.tobytes() for arr in (again.t, again.z, again.zp)] == before
    assert again.contraction_ratios == unit.contraction_ratios


class TestContinuity:
    def test_nearby_parameters_stay_close(self):
        res_a, res_b = [picard_solve_degenerate(a) for a in [1.0, 1.01]]
        r = min(res_a.radius, res_b.radius)
        grid = np.linspace(0.0, r, 200)
        za = np.interp(grid, res_a.t, res_a.z)
        zb = np.interp(grid, res_b.t, res_b.z)
        assert np.max(np.abs(za - zb)) < 0.05

    def test_determinism(self):
        one, two = [picard_solve_degenerate(a) for a in [1.0, 1.0]]
        np.testing.assert_array_equal(one.z, two.z)
        np.testing.assert_array_equal(one.zp, two.zp)

    def test_curvatures_along_sweep(self):
        for res, a in zip([picard_solve_degenerate(a) for a in [0.5, 1.0, 2.0]], [0.5, 1.0, 2.0]):
            assert abs(res.zpp_origin - 1.0 / (4.0 * a)) < 1e-6


def test_result_serialization(tmp_path):
    res = picard_solve_degenerate(1.0)
    csv_path = tmp_path / "profile.csv"
    res.write_csv(csv_path)
    rows = csv_path.read_text().splitlines()
    assert rows[0] == "t,z,zp"
    assert len(rows) == 1 + res.t.size
    sidecar = res.sidecar_dict()
    assert set(sidecar) == {"a", "R", "epsilon", "iterations", "contraction_ratios", "zpp_origin"}
    json.dumps(sidecar)  # must be serializable as-is
    plain = IVPResult(np.array([0.0, 1.0]), np.array([1.0, 2.0]), np.array([1.0, 1.0]))
    assert plain.sidecar_dict()["a"] is None


class TestSampledProfile:
    """An IVPResult is the cubic Hermite profile through its (t, z, z') samples."""

    @staticmethod
    def _cubic(s):
        return 2.0 * s**3 - s**2 + 0.5 * s + 5.0, 6.0 * s**2 - 2.0 * s + 0.5, 12.0 * s - 2.0

    def test_nodes_give_the_samples_bit_for_bit(self):
        forward = integrate(E_SMS, 1.0, 1.0, 0.0, 3.0, 64)
        backward = integrate(E_SMS, 3.0, *forward.state_at(3.0), 1.0, 64)
        for res in (forward, backward, picard_solve_degenerate(0.7)):
            for t, z, zp in zip(res.t.tolist(), res.z.tolist(), res.zp.tolist()):
                assert tuple(map(float.hex, res.state_at(t))) == (z.hex(), zp.hex())
            z, zp, _ = res(res.t)
            assert (z.tobytes(), zp.tobytes()) == (res.z.tobytes(), res.zp.tobytes())

    def test_cubic_samples_are_reproduced_between_nodes(self):
        t = np.linspace(-1.0, 2.0, 7)
        res = IVPResult(t, *self._cubic(t)[:2])
        s = np.linspace(-1.0, 2.0, 101)
        for got, want in zip(res(s), self._cubic(s)):
            np.testing.assert_allclose(got, want, rtol=1e-12, atol=0.0)

    def test_backward_result_equals_its_reversed_forward_twin(self):
        forward = integrate(E_SMS, 1.0, 1.0, 0.0, 3.0, 16)
        backward = IVPResult(forward.t[::-1], forward.z[::-1], forward.zp[::-1])
        s = np.linspace(1.0, 3.0, 37)
        for got, want in zip(backward(s), forward(s)):
            assert got.tobytes() == want.tobytes()

    @pytest.mark.parametrize("s", [0.5, 3.5, math.nan, [2.0, 3.5]])
    def test_outside_the_samples_is_a_domain_error(self, s):
        with pytest.raises(DomainError, match="outside"):
            integrate(E_SMS, 1.0, 1.0, 0.0, 3.0, 8)(s)

    def test_float_in_gives_floats_out(self):
        res = integrate(E_SMS, 1.0, 1.0, 0.0, 3.0, 8)
        for s in (2.2, np.float64(2.2)):
            assert [type(v) for v in res(s)] == [float, float, float]
        assert [v.shape for v in res(np.array([1.5, 2.2]))] == [(2,), (2,), (2,)]

    def test_integrated_profile_sweeps_into_a_hanging_surface(self):
        # the revolution against z = 0 has no closed form; its O(h^2) residual falls x16 per x4
        ts, ths = np.linspace(1.0, 3.0, 200), np.linspace(-1.3, 1.3, 16)
        residuals = []
        for steps in (64, 256, 1024, 4096):
            curve = GraphCurve(1.0, 3.0, integrate(E_SMS, 1.0, 1.0, 0.0, 3.0, steps))
            surface = make_revolution(RevolutionSpec(curve), -1.3, 1.3)
            residuals.append(max_sms_residual(surface, SingularSpec(PI_XY), ts, ths))
        assert all(coarse > 10.0 * fine for coarse, fine in zip(residuals, residuals[1:]))
