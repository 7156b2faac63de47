"""Vector algebra of the simply isotropic plane and space.

The plane carries coordinates (x, z) and the space (x, y, z); in both, the
z-direction is the isotropic (degenerate) one.  The degenerate inner product
sums the products of the non-isotropic components only, the secondary inner
product pairs the isotropic components, and the ordinary Euclidean dot
product is kept as an auxiliary.  The text writers at the end are the one
place where artifacts are written.
"""

import json
import math
import numbers
import sys
from typing import NamedTuple

import numpy as np


class IsoVec2(NamedTuple):
    """Vector of the isotropic plane: x is spatial, z is the isotropic direction."""

    x: float
    z: float


class IsoVec3(NamedTuple):
    """Vector of the isotropic space: x, y are spatial, z is the isotropic direction."""

    x: float
    y: float
    z: float


def iso_dot(u, v) -> float:
    """Degenerate inner product: u1*v1 (+ u2*v2 for 3-vectors)."""
    if len(u) != len(v):
        raise ValueError("iso_dot requires vectors of equal dimension")
    if len(u) == 2:
        return u[0] * v[0]
    if len(u) == 3:
        return u[0] * v[0] + u[1] * v[1]
    raise ValueError("iso_dot expects 2- or 3-vectors")


def sec_dot(u, v) -> float:
    """Secondary inner product: product of the last (isotropic) components."""
    if len(u) != len(v) or len(u) not in (2, 3):
        raise ValueError("sec_dot expects 2- or 3-vectors of equal dimension")
    return u[-1] * v[-1]


def iso_norm(u) -> float:
    """Semi-norm induced by iso_dot; vanishes exactly on isotropic vectors."""
    return math.sqrt(iso_dot(u, u))


def top_view(u) -> IsoVec3:
    """Projection (u1, u2, u3) -> (u1, u2, 0) onto the xy-plane."""
    if len(u) != 3:
        raise ValueError("top_view expects a 3-vector")
    return IsoVec3(u[0], u[1], 0.0)


def euclid_dot(u, v) -> float:
    """Ordinary Euclidean dot product (2- or 3-vectors)."""
    if len(u) != len(v) or len(u) not in (2, 3):
        raise ValueError("euclid_dot expects 2- or 3-vectors of equal dimension")
    return sum(a * b for a, b in zip(u, v))


def write_text(dest, text: str) -> None:
    """Write text to the file ``dest``, or to the current sys.stdout if dest is "-"."""
    if dest == "-":
        sys.stdout.write(text)
    else:
        with open(dest, "w", encoding="utf-8") as fh:
            fh.write(text)


def write_json(dest, obj) -> None:
    """JSON with sorted keys, two-space indent and a trailing newline; NaN and
    infinities raise ValueError, since JSON has no spelling for them."""
    write_text(dest, json.dumps(obj, sort_keys=True, indent=2, allow_nan=False) + "\n")


def check_finite(**values) -> None:
    """ValueError naming the first value that is, or whose tuple holds, a non-finite real."""
    for name, value in values.items():
        for x in value if isinstance(value, tuple) else (value,):
            # float before the slow ABC check; a NaN fails, an int of any size is not converted
            if isinstance(x, (float, numbers.Real)) and not -math.inf < x < math.inf:
                raise ValueError(f"{name} must be finite, got {value}")


def finite_array(values, what: str) -> np.ndarray:
    """``values`` as a float array; ValueError naming ``what`` if it holds a NaN or an infinity."""
    arr = np.asarray(values, dtype=float)
    if not np.isfinite(arr).all():
        raise ValueError(f"{what} holds the non-finite value {arr[~np.isfinite(arr)].flat[0]}")
    return arr


def write_csv(dest, header: str, columns) -> None:
    """Header row, then one row per index of ``columns``, 17 significant digits; like
    write_json, a NaN or an infinity raises ValueError and writes nothing."""
    row = ",".join(["{:.17g}"] * len(columns)) + "\n"
    named = zip(header.split(","), columns, strict=True)
    floats = [finite_array(c, f"CSV column {n}").tolist() for n, c in named]  # floats format faster
    write_text(dest, header + "\n" + "".join(row.format(*r) for r in zip(*floats)))
