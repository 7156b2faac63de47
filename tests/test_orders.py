"""Observed orders of accuracy: each discretization, refined by doubling, shows the order
its docstring states (order-of-accuracy verification; Oberkampf & Roy, *Verification and
Validation in Scientific Computing*, ch. 5).

LX ``minimize`` is not a row: its error stops falling past n = 800.
"""

import math

import numpy as np
import pytest

from isokit.curves import LZ
from isokit.odes import IVPResult, ProfileODE, integrate, ivp_residual
from isokit.quadrature import cumulative_simpson
from isokit.variational import WeightFunctionalSpec, minimize


def assert_order(errors, order):
    """Each observed order log2(e_n / e_2n) over a doubling ladder lies within 0.3 of order."""
    e = np.asarray(errors, dtype=float)
    observed = np.log2(e[:-1] / e[1:])
    assert np.all(abs(observed - order) <= 0.3), observed


def lx_alpha2(t):
    """The LX alpha = 2 catenary z^2 - (t + 0.3)^2 = 0.8 and its slope."""
    z = math.sqrt(0.8 + (t + 0.3) ** 2)
    return z, (t + 0.3) / z


def rk4_error(steps):
    ode = ProfileODE.nonisotropic_alpha_catenary(2.0)
    result = integrate(ode, 0.0, *lx_alpha2(0.0), 1.0, steps)
    return abs(result.z[-1] - lx_alpha2(1.0)[0])


def lz_minimize_error(n):
    # alpha = 1 through (1, 0) and (2, 1): the log catenary ln t / ln 2
    curve = minimize(WeightFunctionalSpec(LZ, 1.0, 0.0), (1.0, 0.0, 2.0, 1.0), n)
    return np.max(np.abs(curve.values - np.log(curve.grid) / math.log(2.0)))


def cumulative_simpson_error(nodes):
    t = np.linspace(0.0, 1.0, nodes)
    return np.max(np.abs(cumulative_simpson(np.exp(t), t[1] - t[0]) - np.expm1(t)))


def hermite_error(k):
    """Error of the k-th entry of the Hermite jet at the cell midpoints of sin samples."""

    def error(cells):
        t = np.linspace(0.0, 1.0, cells + 1)
        mid = 0.5 * (t[:-1] + t[1:])
        exact = (np.sin(mid), np.cos(mid), -np.sin(mid))[k]
        return np.max(np.abs(IVPResult(t, np.sin(t), np.cos(t))(mid)[k] - exact))

    return error


def ivp_residual_value(steps):
    ode = ProfileODE.revolution_nonisotropic()
    return ivp_residual(integrate(ode, 1.0, 1.0, 0.0, 3.0, steps), ode)


ROWS = {  # error(n), the doubling ladder of n, the documented order
    "rk4_integrate": (rk4_error, (25, 50, 100, 200, 400), 4),
    "lz_minimize": (lz_minimize_error, (50, 100, 200, 400, 800), 2),
    "cumulative_simpson": (cumulative_simpson_error, (33, 65, 129, 257, 513), 3),
    "hermite_z": (hermite_error(0), (8, 16, 32, 64, 128), 4),
    "hermite_zpp": (hermite_error(2), (8, 16, 32, 64, 128), 2),
    "ivp_residual": (ivp_residual_value, (250, 500, 1000, 2000), 2),
}


@pytest.mark.parametrize("name", ROWS)
def test_observed_order_is_the_documented_one(name):
    error, ladder, order = ROWS[name]
    assert_order([error(n) for n in ladder], order)
