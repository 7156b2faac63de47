import math
import re

import numpy as np
import pytest

from isokit import variational
from isokit.curves import LX, LZ, CatenaryFamily
from isokit.errors import DomainError, NoConvergenceError, SingularDenominatorError
from isokit.variational import (
    DiscreteCurve,
    _solve_tridiagonal,
    WeightFunctionalSpec,
    el_residual,
    evaluate_functional,
    functional_gradient,
    lambda_sweep,
    minimize,
)

LZ1 = WeightFunctionalSpec(LZ, 1.0, 0.0)


def uniform_curve(t_lo, t_hi, n, fn):
    t = np.linspace(t_lo, t_hi, n + 1)
    return DiscreteCurve(t, fn(t))


class TestEvaluate:
    def test_constant_profile_isotropic_weight(self):
        # integral of t/2 over [1, 2]; trapezoid is exact for a linear weight
        curve = uniform_curve(1.0, 2.0, 64, lambda t: np.full_like(t, 3.0))
        assert evaluate_functional(LZ1, curve) == pytest.approx(0.75, abs=1e-14)

    def test_log_profile_value(self):
        exact = (math.e**2 + 1) / 4
        curve = uniform_curve(1.0, math.e, 4000, np.log)
        assert evaluate_functional(LZ1, curve) == pytest.approx(exact, abs=1e-6)

    def test_constant_profile_height_weight(self):
        spec = WeightFunctionalSpec(LX, 1.0, 0.0)
        curve = uniform_curve(0.0, 1.0, 32, lambda t: np.full_like(t, 2.0))
        assert evaluate_functional(spec, curve) == pytest.approx(1.0, abs=1e-14)

    def test_quadratic_convergence_of_value(self):
        exact = (math.e**2 + 1) / 4
        errs = [
            abs(evaluate_functional(LZ1, uniform_curve(1.0, math.e, n, np.log)) - exact)
            for n in (64, 128, 256)
        ]
        assert errs[0] / errs[1] == pytest.approx(4.0, rel=0.1)
        assert errs[1] / errs[2] == pytest.approx(4.0, rel=0.1)

    def test_domain_error_on_nonpositive_base(self):
        spec = WeightFunctionalSpec(LX, 0.5, 0.0)
        curve = uniform_curve(0.0, 1.0, 8, lambda t: t - 0.5)
        with pytest.raises(DomainError):
            evaluate_functional(spec, curve)


class TestGradient:
    @pytest.mark.parametrize(
        "spec",
        [
            LZ1,
            WeightFunctionalSpec(LZ, 2.0, 0.3),
            WeightFunctionalSpec(LX, 1.0, 0.0),
            WeightFunctionalSpec(LX, 2.0, -0.5),
        ],
    )
    def test_matches_finite_differences(self, spec):
        rng = np.random.default_rng(42)
        t = np.linspace(1.0, 2.0, 21)
        z = 1.5 + np.sin(t) + 0.1 * rng.standard_normal(t.size)
        curve = DiscreteCurve(t, z)
        grad = functional_gradient(spec, curve)
        h = 1e-6
        for j in range(1, t.size - 1):
            zp, zm = z.copy(), z.copy()
            zp[j] += h
            zm[j] -= h
            fd = (
                evaluate_functional(spec, DiscreteCurve(t, zp))
                - evaluate_functional(spec, DiscreteCurve(t, zm))
            ) / (2 * h)
            assert grad[j - 1] == pytest.approx(fd, rel=1e-5, abs=1e-10)

    def test_vanishes_on_sampled_minimizer_as_grid_refines(self):
        norms = []
        for n in (50, 100, 200):
            curve = uniform_curve(1.0, math.e, n, np.log)
            norms.append(float(np.max(np.abs(functional_gradient(LZ1, curve)))))
        # roughly cubic per-component decay; demand at least quadratic
        assert norms[1] < norms[0] / 3.0
        assert norms[2] < norms[1] / 3.0

    def test_four_node_structure(self):
        # antisymmetric bump (k, k+d, k-d, k) on a uniform grid
        k, d, h = 2.0, 0.25, 0.5
        t = np.array([1.0, 1.5, 2.0, 2.5])
        z = np.array([k, k + d, k - d, k])
        zdot = np.diff(z) / h  # (d/h, -2d/h, d/h)
        q = 0.5 * (1 + zdot**2)

        # exponent 0: weight == 1 - lam, no height term, pure slope part
        flat = WeightFunctionalSpec(LX, 0.0, 0.0)
        g0 = functional_gradient(flat, DiscreteCurve(t, z))
        assert g0[1] == pytest.approx(-g0[0], rel=1e-12)

        # exponent 1: height-weight terms break the antisymmetry
        spec = WeightFunctionalSpec(LX, 1.0, 0.0)
        g1 = functional_gradient(spec, DiscreteCurve(t, z))
        cell_w = 0.5 * (z[:-1] + z[1:])
        hand = np.array(
            [
                cell_w[0] * zdot[0] - cell_w[1] * zdot[1] + 0.5 * (h * q[0] + h * q[1]),
                cell_w[1] * zdot[1] - cell_w[2] * zdot[2] + 0.5 * (h * q[1] + h * q[2]),
            ]
        )
        np.testing.assert_allclose(g1, hand, rtol=1e-13)
        assert abs(g1[0] + g1[1]) > 1e-3


class TestMinimize:
    def test_recovers_log_profile(self):
        curve = minimize(LZ1, (1.0, 0.0, math.e, 1.0), 200)
        assert np.max(np.abs(curve.values - np.log(curve.grid))) < 1e-4

    def test_recovers_inverse_profile(self):
        spec = WeightFunctionalSpec(LZ, 2.0, 0.0)
        curve = minimize(spec, (1.0, 1.0, 2.0, 0.5), 200)
        assert np.max(np.abs(curve.values - 1.0 / curve.grid)) < 1e-4

    def test_equal_heights_give_constant(self):
        curve = minimize(LZ1, (1.0, 0.7, 3.0, 0.7), 100)
        assert np.max(np.abs(curve.values - 0.7)) < 1e-8

    def test_nonisotropic_reference_minimize(self):
        # diagonal data: z = t solves the height-weight equation exactly
        spec = WeightFunctionalSpec(LX, 1.0, 0.0)
        curve = minimize(spec, (1.0, 1.0, 2.0, 2.0), 100)
        assert np.max(np.abs(curve.values - curve.grid)) < 1e-6

    def test_refinement_shrinks_family_gap(self):
        gaps = []
        for n in (50, 100, 200, 400):
            curve = minimize(LZ1, (1.0, 0.0, math.e, 1.0), n)
            gaps.append(float(np.max(np.abs(curve.values - np.log(curve.grid)))))
        for coarse, fine in zip(gaps, gaps[1:]):
            assert fine <= 1.1 * coarse

    def test_iteration_budget(self, monkeypatch):
        monkeypatch.setattr(variational, "MAX_ITER", 0)
        with pytest.raises(NoConvergenceError):
            minimize(WeightFunctionalSpec(LX, 2.0, 0.0), (1.0, 1.0, 2.0, 3.0), 40)

    @pytest.mark.parametrize(
        ("n", "where"),
        [(200, "vanishes at grid node 100 (t=2.0)"), (201, "changes sign between grid nodes 100 and 101")],
    )
    def test_isotropic_weight_sign_change(self, n, where):
        # t - 2 vanishes inside [1, 3]: a grid node on it for even n, a sign change otherwise
        with pytest.raises(SingularDenominatorError, match=re.escape(where)):
            minimize(WeightFunctionalSpec(LZ, 1.0, 2.0), (1.0, 0.0, 3.0, 1.0), n)


def _numpy_scalar_thomas(diag, off, rhs):
    """Reference Thomas loop on numpy scalars, as the solver first ran."""
    n = diag.size
    c = np.empty(n - 1) if n > 1 else np.empty(0)
    d = np.empty(n)
    cp = diag[0]
    if cp == 0.0:
        raise ZeroDivisionError("zero pivot in tridiagonal solve")
    d[0] = rhs[0] / cp
    for i in range(1, n):
        c[i - 1] = off[i - 1] / cp
        cp = diag[i] - off[i - 1] * c[i - 1]
        if cp == 0.0:
            raise ZeroDivisionError("zero pivot in tridiagonal solve")
        d[i] = (rhs[i] - off[i - 1] * d[i - 1]) / cp
    for i in range(n - 2, -1, -1):
        d[i] -= c[i] * d[i + 1]
    return d


def _dominant_system(rng, n):
    off = rng.uniform(-1.0, 1.0, max(n - 1, 0))
    pad = np.abs(np.concatenate(([0.0], off))) + np.abs(np.concatenate((off, [0.0])))
    diag = (pad + rng.uniform(0.1, 2.0, n)) * rng.choice((-1.0, 1.0), n)
    return diag, off, rng.standard_normal(n)


class TestTridiagonal:
    @pytest.mark.parametrize("n", [1, 2, 3, 257, 20001])
    def test_bit_identical_to_numpy_scalar_loop(self, n):
        rng = np.random.default_rng(n)
        diag, off, rhs = _dominant_system(rng, n)
        assert np.array_equal(_solve_tridiagonal(diag, off, rhs), _numpy_scalar_thomas(diag, off, rhs))
        strided = np.repeat(rhs, 2)[::2]  # same values through a non-contiguous view
        assert n == 1 or not strided.flags.c_contiguous
        assert np.array_equal(
            _solve_tridiagonal(diag, off, strided), _numpy_scalar_thomas(diag, off, rhs)
        )

    @pytest.mark.parametrize("n", [1, 2, 3, 257])
    def test_agrees_with_dense_solve(self, n):
        diag, off, rhs = _dominant_system(np.random.default_rng(100 + n), n)
        dense = np.diag(diag) + np.diag(off, 1) + np.diag(off, -1)
        expected = np.linalg.solve(dense, rhs)
        np.testing.assert_allclose(_solve_tridiagonal(diag, off, rhs), expected, rtol=1e-12)

    @pytest.mark.parametrize("k", [0, 5])
    def test_zero_pivot_raises(self, k):
        # with off[k-1] = diag[k-1] = diag[k] = 1 and zero coupling before,
        # the pivot at k is 1 - 1*1 = 0 exactly; k = 0 zeroes the first pivot
        diag, off = np.ones(9), np.zeros(8)
        if k == 0:
            diag[0] = 0.0
        else:
            off[k - 1] = 1.0
        with pytest.raises(ZeroDivisionError):
            _solve_tridiagonal(diag, off, np.ones(9))
        with pytest.raises(ZeroDivisionError):
            _numpy_scalar_thomas(diag, off, np.ones(9))


def test_zero_pivot_is_no_convergence(monkeypatch):
    # a zero Hessian diagonal makes the first Thomas pivot 0
    real = variational._gradient_hessian

    def zero_diagonal(spec, t, z):
        grad, diag, off = real(spec, t, z)
        return grad, np.zeros_like(diag), off

    monkeypatch.setattr(variational, "_gradient_hessian", zero_diagonal)
    with pytest.raises(NoConvergenceError, match=r"^zero pivot in the Newton system at gradient norm "):
        minimize(LZ1, (1.0, 0.0, math.e, 1.0), 20)


def test_no_descent_step_is_no_convergence():
    no_descent = r"^no descent step found at gradient norm 4\.852e-01$"
    with pytest.raises(NoConvergenceError, match=no_descent):
        minimize(WeightFunctionalSpec(LX, 2.5, 0.0), (0.0, 0.01, 1.0, 2.0), 20)


class TestElResidual:
    @pytest.mark.parametrize("t", [1.0, 2.0, 10.0])
    def test_log_family(self, t):
        fam = CatenaryFamily(alpha=1.0, c=3.0, d=2.0)
        assert el_residual(LZ1, fam, t) == pytest.approx(0.0, abs=1e-13)

    def test_inverse_family(self):
        spec = WeightFunctionalSpec(LZ, 2.0, 0.0)
        profile = lambda t: (5.0 / t, -5.0 / t**2, 10.0 / t**3)  # noqa: E731
        for t in (0.5, 1.0, 4.0):
            assert el_residual(spec, profile, t) == pytest.approx(0.0, abs=1e-12)

    def test_diagonal_under_height_weight(self):
        spec = WeightFunctionalSpec(LX, 1.0, 0.0)
        profile = lambda t: (t, 1.0, 0.0)  # noqa: E731
        assert el_residual(spec, profile, 1.3) == 0.0

    def test_weight_power_overflow_names_t(self):
        spec = WeightFunctionalSpec(LZ, 2.0, 0.0)
        with pytest.raises(DomainError, match=r"^weight power overflows at t=1e\+300$"):
            el_residual(spec, lambda t: (t, 1.0, 0.0), 1e300)

    def test_weight_power_overflow_names_z_and_t(self):
        spec = WeightFunctionalSpec(LX, 2.0, 0.0)
        with pytest.raises(DomainError, match=r"^weight power overflows at z=1e\+300 \(t=2.0\)$"):
            el_residual(spec, lambda t: (1e300, 0.0, 0.0), 2.0)

    def test_slope_square_overflow_names_t(self):
        spec = WeightFunctionalSpec(LX, 1.0, 0.0)
        with pytest.raises(DomainError, match=r"^slope square overflows at t=1.5$"):
            el_residual(spec, lambda t: (1e200 * t, 1e200, 0.0), 1.5)


@pytest.mark.parametrize(
    "spec, endpoints, n, message",
    [
        (WeightFunctionalSpec(LZ, 3.0, -0.0), (3.0, 1e-13, 1e300, -1.0), 2,
         r"weight power overflows at t=5e\+299"),
        (WeightFunctionalSpec(LZ, 0.0, 1e-13), (0.0, -1e300, 2.5, 0.5), 2,
         r"slope square overflows at t=0.0"),
        (WeightFunctionalSpec(LX, 2.5, 0.0), (1e-300, 1e300, 2.5, 1e300), 200,
         r"weight power overflows at z=1e\+300"),
    ],
    ids=["lz_weight", "lz_slope", "lx_weight"],
)
def test_overflowing_minimize_start_is_named(spec, endpoints, n, message):
    with pytest.raises(DomainError, match=f"^{message}$"):  # pytest makes a warning an error
        minimize(spec, endpoints, n)


def test_overflowing_functional_value_and_gradient_are_named():
    spec = WeightFunctionalSpec(LX, -0.0, 1e300)
    curve = minimize(spec, (-1e300, 3.0, -1.0, 0.5), 2)  # converges; its value does not fit
    with pytest.raises(DomainError, match=r"^functional value overflows to -inf$"):
        evaluate_functional(spec, curve)
    steep = DiscreteCurve([0.0, 1e-300, 2e-300], [0.0, 1.0, 2.0])
    with pytest.raises(DomainError, match=r"^slope square overflows at t=0.0$"):
        functional_gradient(LZ1, steep)


def test_triviality_with_plain_length():
    # measured with dt instead of the relative element, the isotropic-weight
    # value is endpoint-determined
    rng = np.random.default_rng(7)
    t = np.linspace(1.0, 2.0, 41)
    interior = lambda: np.concatenate(([0.3], 0.3 + rng.standard_normal(39), [1.1]))  # noqa: E731
    a = evaluate_functional(LZ1, DiscreteCurve(t, interior()), relative=False)
    b = evaluate_functional(LZ1, DiscreteCurve(t, interior()), relative=False)
    assert abs(a - b) < 1e-12


def test_lambda_sweep_table():
    rows = lambda_sweep(LZ, 1.0, [0.0, 0.25, 0.5], (1.0, 0.0, math.e, 1.0), 80)
    assert [r["lam"] for r in rows] == [0.0, 0.25, 0.5]
    base = minimize(LZ1, (1.0, 0.0, math.e, 1.0), 80)
    np.testing.assert_allclose(rows[0]["curve"].values, base.values, atol=1e-12)
    for row in rows:
        h, dz = np.diff(row["curve"].grid), np.diff(row["curve"].values)
        assert row["relative_length"] == pytest.approx(np.sum(h * 0.5 * (1.0 + (dz / h) ** 2)))
        assert math.isfinite(row["value"])


def test_discrete_curve_validation():
    with pytest.raises(ValueError):
        DiscreteCurve(np.array([1.0, 1.0, 2.0]), np.zeros(3))
    with pytest.raises(ValueError):
        DiscreteCurve(np.array([1.0, 2.0, 3.0]), np.zeros(4))


@pytest.mark.parametrize("bad", [math.nan, math.inf, -math.inf])
def test_non_finite_inputs_are_named(bad):
    with pytest.raises(ValueError, match="alpha must be finite"):
        WeightFunctionalSpec(LX, bad, 0.0)
    with pytest.raises(ValueError, match="lam must be finite"):
        WeightFunctionalSpec(LZ, 1.0, bad)
    for i, name in enumerate(("t_a", "z_a", "t_b", "z_b")):
        endpoints = [1.0, 0.0, 2.0, 1.0]
        endpoints[i] = bad
        with pytest.raises(ValueError, match=f"{name} must be finite"):
            minimize(LZ1, tuple(endpoints), 20)
