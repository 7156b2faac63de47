import math

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from isokit import quadrature
from isokit.curves import CatenaryFamily, relative_arclength
from isokit.surfaces import RevolutionSpec, make_revolution, relative_area


def test_simpson_exact_on_cubics():
    # Simpson integrates cubics exactly
    val = quadrature.simpson(lambda t: t**3 - 2 * t + 1, 0.0, 2.0, panels=4)
    assert val == pytest.approx(4.0 - 4.0 + 2.0, abs=1e-13)


def _polynomial_case(coeffs, a, width):
    """(f, exact integral over [a, a + width], the scale a rounding error is relative to)."""
    b = a + width

    def antiderivative(t):
        return sum(c * t ** (k + 1) / (k + 1) for k, c in enumerate(coeffs))

    scale = width * sum(abs(c) * max(abs(a), abs(b)) ** k for k, c in enumerate(coeffs))
    return (lambda t: sum(c * t**k for k, c in enumerate(coeffs)),
            antiderivative(b) - antiderivative(a), scale)


COEFFICIENT = st.floats(-10.0, 10.0)
# Below the underflow threshold rounding is absolute: each of the few dozen
# roundings in f, the rule and the antiderivative may be off by half a subnormal
# unit, however small `scale` is.
SUBNORMAL_FLOOR = 64 * math.ulp(0.0)


@settings(max_examples=200, deadline=None)
@given(st.tuples(*[COEFFICIENT] * 4), st.floats(-5.0, 5.0), st.floats(0.01, 5.0),
       st.integers(1, 100))
def test_simpson_exact_on_random_cubics(coeffs, a, width, half_panels):
    f, exact, scale = _polynomial_case(coeffs, a, width)
    val = quadrature.simpson(f, a, a + width, panels=2 * half_panels)
    assert abs(val - exact) <= 1e-12 * scale + SUBNORMAL_FLOOR


@settings(max_examples=200, deadline=None)
@given(st.tuples(*[COEFFICIENT] * 4), st.floats(1.0, 10.0), st.sampled_from([-1.0, 1.0]),
       st.floats(-1.0, 1.0), st.floats(1.0, 3.0), st.integers(1, 4))
def test_simpson_error_on_quartics_is_the_remainder_term(coeffs, c4, sign, a, width, half_panels):
    # exact - simpson = -(b - a) h^4 / 180 f^(4), and f^(4) = 24 c4 is constant
    f, exact, scale = _polynomial_case((*coeffs, sign * c4), a, width)
    n = 2 * half_panels
    val = quadrature.simpson(f, a, a + width, panels=n)
    remainder = -width * (width / n) ** 4 / 180.0 * 24.0 * sign * c4
    assert abs((exact - val) - remainder) <= 1e-12 * scale
    assert abs(remainder) > 1e4 * 1e-12 * scale  # the term is far above rounding


def test_simpson_smooth_accuracy():
    val = quadrature.simpson(math.sin, 0.0, math.pi, panels=256)
    assert val == pytest.approx(2.0, abs=1e-9)


def test_simpson_passes_python_float_nodes():
    kinds = set()
    quadrature.simpson(lambda t: kinds.add(type(t)) or t, 0.0, 1.0, 4)
    assert kinds == {float}  # not np.float64, as every other sampler


def test_simpson_odd_panel_count_bumped():
    a = quadrature.simpson(lambda t: t**2, 0.0, 1.0, panels=5)
    assert a == pytest.approx(1.0 / 3.0, abs=1e-13)


@pytest.mark.parametrize("panels", [0, -1, -2])
def test_non_positive_panel_count_is_one_value_error(panels):
    curve = CatenaryFamily(alpha=1.0, c=1.0, d=0.0).plane_curve(1.0, 2.0)
    surface = make_revolution(RevolutionSpec(curve))

    def row(u, vs):
        return vs

    message = f"^Simpson needs a positive panel count, got {panels}$"
    for call in (
        lambda: quadrature.simpson(math.sin, 0.0, 1.0, panels=panels),
        lambda: quadrature.simpson_2d(row, 0.0, 1.0, 0.0, 1.0, panels_u=panels),
        lambda: quadrature.simpson_2d(row, 0.0, 1.0, 0.0, 1.0, panels_v=panels),
        lambda: relative_arclength(curve, 1.0, 2.0, panels=panels),
        lambda: relative_area(surface, panels_u=panels),
        lambda: relative_area(surface, panels_v=panels),
    ):
        with pytest.raises(ValueError, match=message):
            call()


def test_simpson_samples_validation():
    with pytest.raises(ValueError):
        quadrature.simpson_samples(np.ones(4), 0.1)


def test_cumulative_simpson_needs_three_samples():
    with pytest.raises(ValueError, match="^cumulative_simpson needs at least 3 samples$"):
        quadrature.cumulative_simpson(np.ones(2), 0.1)


def test_cumulative_simpson_matches_antiderivative():
    t = np.linspace(0.0, 2.0, 201)
    running = quadrature.cumulative_simpson(np.exp(t), t[1] - t[0])
    np.testing.assert_allclose(running, np.exp(t) - 1.0, atol=5e-10)


def test_cumulative_simpson_exact_on_parabola():
    t = np.linspace(0.0, 1.0, 11)
    running = quadrature.cumulative_simpson(3.0 * t**2, t[1] - t[0])
    np.testing.assert_allclose(running, t**3, atol=1e-14)


def test_simpson_2d_separable():
    val = quadrature.simpson_2d(
        lambda u, v: u * v**2, 0.0, 1.0, 0.0, 2.0, panels_u=16, panels_v=16
    )
    assert val == pytest.approx(0.5 * 8.0 / 3.0, abs=1e-12)



def test_gauss_2d_is_one_call_and_exact_to_degree_2n_minus_1():
    calls = []

    def f(us, vs):  # u^7 v^6: degree 2n - 1 in u and below it in v at n = 4
        calls.append((us.shape, vs.shape))
        return us[:, None] ** 7 * vs**6

    val = quadrature.gauss_2d(f, 0.0, 1.0, -1.0, 2.0, 4)
    assert calls == [((4,), (4,))]
    assert val == pytest.approx((1.0 / 8.0) * (2.0**7 + 1.0) / 7.0, rel=1e-14)


def test_gauss_legendre_nodes_are_cached_and_read_only():
    x, w = quadrature.gauss_legendre(16)
    assert quadrature.gauss_legendre(16)[0] is x
    assert not (x.flags.writeable or w.flags.writeable)
    assert w.sum() == pytest.approx(2.0, rel=1e-15)
