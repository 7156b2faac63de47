"""Composite Simpson quadrature (1-D, cumulative, and tensor-product 2-D) and
tensor-product Gauss-Legendre.

Default Simpson panel counts are 256 for 1-D and 128 per axis for 2-D rules;
an odd panel count is bumped to the next even one.  ``gauss_2d`` takes its node
count per axis; ``relative_area`` defaults to it, not to ``simpson_2d``.
"""

import functools

import numpy as np

DEFAULT_PANELS_1D = 256
DEFAULT_PANELS_2D = 128


def default_panels_1d() -> int:
    return DEFAULT_PANELS_1D


def default_panels_2d() -> int:
    return DEFAULT_PANELS_2D


def simpson_nodes(a: float, b: float, panels: int) -> tuple[np.ndarray, float]:
    """Nodes and step of the composite rule over [a, b], panels rounded up to even."""
    n = int(panels)
    if n < 1:
        raise ValueError(f"Simpson needs a positive panel count, got {panels}")
    n += n % 2
    return np.linspace(a, b, n + 1), (b - a) / n


def simpson(f, a: float, b: float, panels: int | None = None) -> float:
    """Integrate f over [a, b] by composite Simpson, even panels; f gets Python float nodes."""
    t, h = simpson_nodes(a, b, default_panels_1d() if panels is None else panels)
    return simpson_samples(np.array([f(ti) for ti in t.tolist()], dtype=float), h)


def simpson_samples(y: np.ndarray, h: float) -> float:
    """Composite Simpson for uniformly spaced samples (odd sample count)."""
    y = np.asarray(y, dtype=float)
    if y.size < 3 or y.size % 2 == 0:
        raise ValueError("simpson_samples needs an odd number of samples >= 3")
    return (h / 3.0) * (y[0] + y[-1] + 4.0 * y[1:-1:2].sum() + 2.0 * y[2:-2:2].sum())


def cumulative_simpson(y: np.ndarray, h: float) -> np.ndarray:
    """Running integral of uniform samples, exact for local parabolas.

    Each cell is integrated from the quadratic through the three nearest
    nodes; its O(h^4) errors do not cancel as plain Simpson's do: third order.
    """
    y = np.asarray(y, dtype=float)
    n = y.size
    if n < 3:
        raise ValueError("cumulative_simpson needs at least 3 samples")
    out = np.empty(n)
    out[0] = 0.0
    # integral over [t_i, t_{i+1}] from the parabola through (i, i+1, i+2)
    left = h * (5.0 * y[:-2] + 8.0 * y[1:-1] - y[2:]) / 12.0
    # same cell from the parabola through (i-1, i, i+1)
    right = h * (-y[:-2] + 8.0 * y[1:-1] + 5.0 * y[2:]) / 12.0
    inc = np.empty(n - 1)
    inc[0] = left[0]
    inc[1:] = right
    np.cumsum(inc, out=out[1:])
    return out


def simpson_2d(
    f,
    u_lo: float,
    u_hi: float,
    v_lo: float,
    v_hi: float,
    panels_u: int | None = None,
    panels_v: int | None = None,
) -> float:
    """Tensor-product composite Simpson over a rectangle.

    ``f(u, vs)`` is called once per u-node and returns the row of integrand
    values at (u, v) for every v in the array ``vs``.
    """
    us, hu = simpson_nodes(u_lo, u_hi, default_panels_2d() if panels_u is None else panels_u)
    vs, hv = simpson_nodes(v_lo, v_hi, default_panels_2d() if panels_v is None else panels_v)
    return simpson_samples(np.array([simpson_samples(f(u, vs), hv) for u in us]), hu)


@functools.cache
def gauss_legendre(nodes: int) -> tuple[np.ndarray, np.ndarray]:
    """Read-only Gauss-Legendre nodes and weights on [-1, 1], built on first use."""
    x, w = np.polynomial.legendre.leggauss(nodes)
    x.flags.writeable = w.flags.writeable = False
    return x, w


def gauss_2d(f, u_lo: float, u_hi: float, v_lo: float, v_hi: float, nodes: int) -> float:
    """Tensor-product Gauss-Legendre over a rectangle, ``nodes`` per axis; ``f(us, vs)``
    is called once and returns the (len(us), len(vs)) grid of integrand values."""
    x, w = gauss_legendre(nodes)
    hu, hv = 0.5 * (u_hi - u_lo), 0.5 * (v_hi - v_lo)
    return float((hu * w) @ f(u_lo + hu * (x + 1.0), v_lo + hv * (x + 1.0)) @ (hv * w))
