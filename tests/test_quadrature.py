import math

import numpy as np
import pytest

from isokit import quadrature


def test_simpson_exact_on_cubics():
    # Simpson integrates cubics exactly
    val = quadrature.simpson(lambda t: t**3 - 2 * t + 1, 0.0, 2.0, panels=4)
    assert val == pytest.approx(4.0 - 4.0 + 2.0, abs=1e-13)


def test_simpson_smooth_accuracy():
    val = quadrature.simpson(math.sin, 0.0, math.pi, panels=256)
    assert val == pytest.approx(2.0, abs=1e-9)


def test_simpson_odd_panel_count_bumped():
    a = quadrature.simpson(lambda t: t**2, 0.0, 1.0, panels=5)
    assert a == pytest.approx(1.0 / 3.0, abs=1e-13)


def test_simpson_samples_validation():
    with pytest.raises(ValueError):
        quadrature.simpson_samples(np.ones(4), 0.1)


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

