import decimal
import itertools
import math
import re
from decimal import Decimal

import numpy as np
import pytest
from hypothesis import example, given, settings
from hypothesis import strategies as st

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


def _backward_error(diag, off, rhs, x):
    """Normwise backward error |A x - rhs| / (|A| |x| + |rhs|) in the max norm; the residual
    is formed in extended precision, so its own rounding does not count."""
    d, o, r, y = (np.asarray(v, dtype=np.longdouble) for v in (diag, off, rhs, x))
    residual = d * y - r
    residual[:-1] += o * y[1:]
    residual[1:] += o * y[:-1]
    pad = np.zeros(1)
    row_sums = np.abs(diag) + np.abs(np.concatenate((pad, off))) + np.abs(np.concatenate((off, pad)))
    scale = np.max(row_sums) * np.max(np.abs(x)) + np.max(np.abs(rhs))
    return float(np.max(np.abs(residual))) / scale


class TestTridiagonal:
    @pytest.mark.parametrize("n", [1, 2, 3, 257, 20001])
    def test_bit_identical_to_numpy_scalar_loop(self, n):
        # cyclic reduction rounds differently from the Thomas loop: pin its backward error and
        # its distance from the loop, and the bits of a strided rhs against a contiguous one
        rng = np.random.default_rng(n)
        diag, off, rhs = _dominant_system(rng, n)
        x, thomas = _solve_tridiagonal(diag, off, rhs), _numpy_scalar_thomas(diag, off, rhs)
        eps = np.finfo(float).eps
        assert _backward_error(diag, off, rhs, x) <= 4 * eps
        assert np.max(np.abs(x - thomas)) <= 16 * eps * np.max(np.abs(thomas))
        strided = np.repeat(rhs, 2)[::2]  # same values through a non-contiguous view
        assert n == 1 or not strided.flags.c_contiguous
        assert np.array_equal(_solve_tridiagonal(diag, off, strided), x)

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


_REDUCTION_SIZES = list(range(1, 10)) + [2**k + d for k in range(4, 11) for d in (-1, 0, 1)]


@settings(max_examples=30, deadline=None)
@given(n=st.sampled_from(_REDUCTION_SIZES), seed=st.integers(0, 2**32 - 1), log_gap=st.floats(-6.0, 0.0))
def test_cyclic_reduction_solves_positive_definite_systems(n, seed, log_gap):
    # a random symmetric tridiagonal matrix shifted until its least eigenvalue is a fraction
    # 10**log_gap of its spread: positive definite, mostly not diagonally dominant, and with
    # condition number kappa up to about 1e6; the max-norm error bound scales with kappa
    rng = np.random.default_rng(seed)
    diag, off, rhs = rng.uniform(-1.0, 1.0, n), rng.uniform(-1.0, 1.0, n - 1), rng.standard_normal(n)
    dense = np.diag(diag) + np.diag(off, 1) + np.diag(off, -1)
    lo, hi = np.linalg.eigvalsh(dense)[[0, -1]]
    shift = 10.0**log_gap * max(hi - lo, 1.0) - lo
    dense[np.diag_indices(n)] = diag = diag + shift
    kappa = (hi + shift) / (lo + shift)
    expected = np.linalg.solve(dense, rhs)
    bound = 8 * np.finfo(float).eps * kappa * math.sqrt(n) * np.max(np.abs(expected))
    assert np.max(np.abs(_solve_tridiagonal(diag, off, rhs) - expected)) <= bound


@pytest.mark.parametrize(
    ("alpha", "endpoints", "n"),
    [(1.5, (0.0, 1.5, 1.0, 1.7), 200), (1.5, (0.0, 1.5, 1.0, 1.7), 2000),
     (1.5, (0.0, 1.5, 1.0, 1.7), 20000), (2.5, (0.0, 1.2, 0.9, 1.4), 2000)],
)
def test_lx_newton_path_matches_the_thomas_loop(monkeypatch, alpha, endpoints, n):
    spec = WeightFunctionalSpec(LX, alpha, 0.0)
    runs = []
    for solver in (_solve_tridiagonal, _numpy_scalar_thomas):
        solves = []

        def counted(diag, off, rhs, solver=solver, solves=solves):
            solves.append(diag.size)
            return solver(diag, off, rhs)

        monkeypatch.setattr(variational, "_solve_tridiagonal", counted)
        curve = minimize(spec, endpoints, n)
        assert np.max(np.abs(functional_gradient(spec, curve))) < variational.TOL_SCALE * n
        runs.append((len(solves), curve.values))
    (count, z), (thomas_count, thomas_z) = runs
    assert count == thomas_count >= 1
    assert np.max(np.abs(z - thomas_z)) <= 1e-9 * np.max(np.abs(thomas_z))


def test_zero_pivot_is_no_convergence(monkeypatch):
    # a zero Hessian diagonal makes the first cyclic-reduction pivot 0; only the LX axis
    # solves a system
    real = variational._gradient_hessian

    def zero_diagonal(spec, t, z):
        grad, diag, off = real(spec, t, z)
        return grad, np.zeros_like(diag), off

    monkeypatch.setattr(variational, "_gradient_hessian", zero_diagonal)
    with pytest.raises(NoConvergenceError, match=r"^zero pivot in the Newton system at gradient norm "):
        minimize(WeightFunctionalSpec(LX, 2.0, 0.0), (1.0, 1.0, 2.0, 3.0), 20)


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
        # the gradient at the straight start is finite; the bands cell weight / h are not
        (WeightFunctionalSpec(LX, 1.0, -1.5e308), (0.0, 1.0, 1.0, 1.5), 4,
         "Newton system of the discrete functional overflows"),
    ],
    ids=["lz_weight", "lz_slope", "lx_weight", "lx_bands"],
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


@pytest.mark.parametrize("n", [1, 0, -3])
def test_minimize_needs_two_cells(n):
    with pytest.raises(ValueError, match=f"^need n >= 2 grid cells, got n={n}$"):
        minimize(LZ1, (1.0, 0.0, 2.0, 1.0), n)


@pytest.mark.parametrize("n", [200, 20000])
def test_isotropic_minimize_solves_no_linear_system(monkeypatch, n):
    calls = []
    real = variational._solve_tridiagonal

    def counted(*args):
        calls.append(args)
        return real(*args)

    monkeypatch.setattr(variational, "_solve_tridiagonal", counted)
    minimize(WeightFunctionalSpec(LZ, 2.5, 0.0), (1.0, 0.0, math.e, 1.0), n)
    assert calls == []
    minimize(WeightFunctionalSpec(LX, 1.5, 0.0), (0.0, 1.5, 1.0, 1.7), 200)
    assert len(calls) >= 1


def _decimal_critical_profile(t, w, z_a, z_b):
    """z_a + (z_b - z_a) * S_i / S_n, S the cumulative sum of h / cell weight, in 50 digits."""
    with decimal.localcontext() as ctx:
        ctx.prec = 50
        t, w = [Decimal(float(x)) for x in t], [Decimal(float(x)) for x in w]
        s = list(itertools.accumulate((t[i + 1] - t[i]) / ((w[i] + w[i + 1]) / 2)
                                      for i in range(len(t) - 1)))
        rise = Decimal(z_b) - Decimal(z_a)
        return [z_a] + [float(Decimal(z_a) + rise * s_i / s[-1]) for s_i in s[:-1]] + [z_b]


@pytest.mark.parametrize("n", [400, 2000])
@pytest.mark.parametrize(
    "alpha, lam, endpoints",
    [
        (2.5, 0.0, (1.0, 0.0, math.e, 1.0)),
        (1.0, -0.3, (1.0, 0.0, math.e, 1.0)),
        (1.0, 5.0, (1.0, 0.0, 3.0, 1.0)),  # t - 5 < 0 throughout: the maximizer
        (-0.5, 0.0, (1.0, 0.0, math.e, 1.0)),
    ],
)
def test_isotropic_minimize_is_the_constant_flux_profile_to_rounding(alpha, lam, endpoints, n):
    # the reference sums the package's own float nodes and weights t**alpha - lam exactly
    curve = minimize(WeightFunctionalSpec(LZ, alpha, lam), endpoints, n)
    exact = _decimal_critical_profile(curve.grid, curve.grid**alpha - lam, endpoints[1], endpoints[3])
    rise = abs(endpoints[3] - endpoints[1])
    assert np.max(np.abs(curve.values - exact)) <= 4e-15 * rise


@pytest.mark.parametrize("lam, sign", [(0.0, 1.0), (5.0, -1.0)])
def test_isotropic_critical_profile_is_an_extremum_by_the_weight_sign(lam, sign):
    # t - lam > 0 on [1, 3] at lam = 0 (a minimum) and < 0 at lam = 5 (a maximum)
    spec = WeightFunctionalSpec(LZ, 1.0, lam)
    curve = minimize(spec, (1.0, 0.0, 3.0, 1.0), 50)
    critical = evaluate_functional(spec, curve)
    rng = np.random.default_rng(3)
    for _ in range(5):
        z = curve.values.copy()
        z[1:-1] += 1e-3 * rng.standard_normal(49)
        assert sign * (evaluate_functional(spec, DiscreteCurve(curve.grid, z)) - critical) > 0


def test_isotropic_minimize_at_extreme_weight_scales():
    # only the ratios of the weights matter.  t**105 is subnormal on [1e-3, 1.1e-3], and scaling
    # t by 1e3 scales every weight alike, so the profile is the one on [1, 1.1] up to the
    # rounding of those weights; t + 1e308 is the constant 1e308, whose cell sums overflow
    spec = WeightFunctionalSpec(LZ, 105.0, 0.0)
    tiny = minimize(spec, (1e-3, 0.0, 1.1e-3, 1.0), 4).values
    unit = minimize(spec, (1.0, 0.0, 1.1, 1.0), 4).values
    assert np.max(np.abs(tiny - unit)) < 1e-9
    huge = minimize(WeightFunctionalSpec(LZ, 1.0, -1e308), (1.0, 0.0, 2.0, 1.0), 4).values
    assert np.max(np.abs(huge - np.linspace(0.0, 1.0, 5))) < 1e-15


@pytest.mark.parametrize("n", [400, 20000])
def test_isotropic_minimize_scales_with_the_rise(n):
    # the discrete functional is quadratic in z: its minimizer is linear in the data
    spec = WeightFunctionalSpec(LZ, 2.0, 0.0)
    unit = minimize(spec, (1.0, 0.0, 2.0, 1.0), n).values
    for rise in (1e-6, 1e6, 1e12):
        scaled = minimize(spec, (1.0, 0.0, 2.0, rise), n).values / rise
        assert np.max(np.abs(scaled - unit)) < 1e-12


def test_isotropic_minimize_small_rise_leaves_the_straight_line():
    curve = minimize(LZ1, (1.0, 0.0, 1.5, 0.001), 20000)
    exact = 0.001 / math.log(1.5) * np.log(curve.grid)
    assert np.max(np.abs(curve.values - exact)) < 1e-12


@settings(max_examples=60, deadline=None)
@given(
    alpha=st.floats(-1.0, 3.0).filter(lambda a: abs(a) > 0.05),
    n=st.integers(3, 400),
    t_a=st.floats(0.5, 2.0),
    span=st.floats(0.5, 3.0),
    z_a=st.floats(-1.0, 1.0),
    z_b=st.floats(-1.0, 1.0),
    log_a=st.floats(-8.0, 8.0),
    sign=st.sampled_from((-1.0, 1.0)),
    b=st.floats(-1.0, 1.0),
)
# subnormal heights: the error is about |a| / 2 subnormal ulps (5 at a = -10, 50 at a = -100,
# 4.98e7 at a = 1e8), and 1e-13 * scale underflows to 0 or stays below it
@example(alpha=1.0, n=3, t_a=1.0, span=1.0, z_a=0.0, z_b=2.2250738585e-313, log_a=1.0,
         sign=-1.0, b=0.0)
@example(alpha=1.0, n=3, t_a=1.0, span=1.0, z_a=0.0, z_b=2.2250738585e-313, log_a=2.0,
         sign=-1.0, b=0.0)
@example(alpha=1.0, n=3, t_a=1.0, span=1.0, z_a=0.0, z_b=2.2250738585e-313, log_a=8.0,
         sign=1.0, b=0.0)
def test_isotropic_minimize_is_affine_in_the_heights(alpha, n, t_a, span, z_a, z_b, log_a, sign, b):
    spec = WeightFunctionalSpec(LZ, alpha, 0.0)
    a = sign * 10.0**log_a
    base = minimize(spec, (t_a, z_a, t_a + span, z_b), n).values
    mapped = minimize(spec, (t_a, a * z_a + b, t_a + span, a * z_b + b), n).values
    scale = abs(a) * np.max(np.abs(base)) + abs(b)
    floor = 16 * max(1.0, abs(a)) * math.ulp(0.0)  # a subnormal height's ulps scale by a
    assert np.max(np.abs(mapped - (a * base + b))) <= 1e-13 * scale + floor


@pytest.mark.parametrize("reference, t_a", [(LZ, 1.0), (LX, 0.0)])
def test_weight_near_the_float_max_gives_a_finite_value_and_gradient(reference, t_a):
    # alpha = 0 and lam = -1e308: the constant weight 1e308, whose node pairs sum past the
    # float max while their halves do not
    spec, unit = WeightFunctionalSpec(reference, 0.0, -1e308), WeightFunctionalSpec(reference, 0.0, 0.0)
    t = np.linspace(t_a, t_a + 1.0, 9)
    curve = DiscreteCurve(t, 0.2 * np.sin(3.0 * t))
    assert evaluate_functional(spec, curve) == pytest.approx(1e308 * evaluate_functional(unit, curve))
    grad = functional_gradient(spec, curve)
    np.testing.assert_allclose(grad, 1e308 * functional_gradient(unit, curve), rtol=1e-14)


@settings(max_examples=60, deadline=None)
@given(
    reference=st.sampled_from((LZ, LX)),
    log_c=st.one_of(st.floats(0.0, 308.25), st.floats(307.9, 308.25)),  # half of them near the max
    n=st.integers(2, 60),
    seed=st.integers(0, 2**32 - 1),
)
def test_functional_is_linear_in_a_constant_weight(reference, log_c, n, seed):
    # at alpha = 0 the weight is the constant c = 1 - lam: the value and the gradient scale by c
    # up to the float max; the slopes stay below 0.4 so c times the unit results fits a float
    lam = 1.0 - 10.0**log_c
    c = 1.0 - lam
    t = np.linspace(0.0, 1.0, n + 1)
    rise = np.random.default_rng(seed).uniform(-0.4, 0.4, n) / n
    curve = DiscreteCurve(t, np.concatenate(([0.0], np.cumsum(rise))))
    spec, unit = WeightFunctionalSpec(reference, 0.0, lam), WeightFunctionalSpec(reference, 0.0, 0.0)
    value = evaluate_functional(spec, curve)
    assert value == pytest.approx(c * evaluate_functional(unit, curve), rel=1e-14)
    np.testing.assert_allclose(
        functional_gradient(spec, curve), c * functional_gradient(unit, curve), rtol=0.0, atol=1e-15 * c
    )


def test_overflowing_flux_of_a_returned_profile_is_named():
    # the critical profile fits a float, but h * cell weight and cell weight * zdot do not, so
    # no finite value or gradient of it exists
    spec = WeightFunctionalSpec(LZ, 2.0, 0.0)
    curve = minimize(spec, (1.0, 0.0, 1e150, 1e160), 4)
    assert np.isfinite(curve.values).all()
    with pytest.raises(DomainError, match=r"^functional value overflows to inf$"):
        evaluate_functional(spec, curve)
    with pytest.raises(DomainError, match=r"^gradient of the discrete functional overflows$"):
        functional_gradient(spec, curve)


def test_newton_skips_a_full_step_that_leaves_the_weight_domain(monkeypatch):
    # z**1.5 needs z > 0: early full steps cross it, raise in the trial and are halved
    real, trial_errors = variational._gradient_hessian, []

    def recorded(spec, t, z):
        try:
            return real(spec, t, z)
        except DomainError as exc:
            trial_errors.append(str(exc))
            raise

    monkeypatch.setattr(variational, "_gradient_hessian", recorded)
    spec = WeightFunctionalSpec(LX, 1.5, 0.0)
    curve = minimize(spec, (0.0, 0.05, 0.2, 0.02), 20)
    assert trial_errors and set(trial_errors) == {"non-integer exponent needs z > 0"}
    assert np.max(np.abs(functional_gradient(spec, curve))) < variational.TOL_SCALE * 20


@pytest.mark.parametrize(
    "call, message",
    [
        (lambda: WeightFunctionalSpec("zz"), "unknown reference line 'zz'"),
        (lambda: DiscreteCurve([0.0, 1.0], [0.0, 1.0]), "grid must be 1-d with at least 3 nodes"),
    ],
    ids=["reference", "two_nodes"],
)
def test_invalid_spec_or_curve_is_a_value_error(call, message):
    with pytest.raises(ValueError, match=f"^{re.escape(message)}$"):
        call()
