import contextlib
import io
import math

import numpy as np
import pytest
from hypothesis import given
from hypothesis import strategies as st

from isokit.core import (
    IsoVec2,
    IsoVec3,
    check_finite,
    euclid_dot,
    iso_dot,
    iso_norm,
    sec_dot,
    top_view,
    write_csv,
    write_json,
)

finite = st.floats(min_value=-1e6, max_value=1e6, allow_nan=False)
# exact zeros or magnitudes whose squares stay normal
no_underflow = finite.filter(lambda x: x == 0.0 or abs(x) > 1e-100)
vec3 = st.tuples(finite, finite, finite)
vec3_no_underflow = st.tuples(no_underflow, no_underflow, no_underflow)


def test_iso_dot_examples():
    assert iso_dot((1, 2, 5), (3, 4, 7)) == 11
    assert iso_dot((0, 0, 9), (0, 0, 9)) == 0  # isotropic vector
    assert iso_dot((1, 0, 0), (1, 0, 0)) == 1
    assert iso_dot(IsoVec2(2, 7), IsoVec2(3, -1)) == 6


def test_sec_dot_examples():
    assert sec_dot((0, 0, 2), (0, 0, 3)) == 6
    assert sec_dot((1, 1, 0), (1, 1, 0)) == 0
    assert sec_dot((0, 0, 1), (0, 0, 1)) == 1
    assert sec_dot(IsoVec2(5, 2), IsoVec2(0, 4)) == 8


def test_top_view_examples():
    assert top_view((1, 2, 3)) == IsoVec3(1, 2, 0)
    assert top_view((0, 0, 5)) == IsoVec3(0, 0, 0)
    assert top_view((-1, 4, 0)) == IsoVec3(-1, 4, 0)


def test_euclid_products():
    assert euclid_dot((1, 2, 3), (4, 5, 6)) == 32


def test_iso_norm_examples():
    assert iso_norm((3, 4, 7)) == 5
    assert iso_norm((0, 0, 1)) == 0  # a direction of length zero
    assert iso_norm((1, 0, 0)) == 1


def test_dimension_mismatch_rejected():
    with pytest.raises(ValueError):
        iso_dot((1, 2), (1, 2, 3))
    with pytest.raises(ValueError):
        top_view((1, 2))
    with pytest.raises(ValueError):
        euclid_dot((1, 2), (3, 4, 5))


@pytest.mark.parametrize(
    "call, message",
    [
        (lambda: iso_dot((1, 2, 3, 4), (1, 2, 3, 4)), "iso_dot expects 2- or 3-vectors"),
        (lambda: sec_dot((1, 2), (1, 2, 3)), "sec_dot expects 2- or 3-vectors of equal dimension"),
    ],
    ids=["iso_dot_4", "sec_dot_2_3"],
)
def test_products_name_the_dimensions_they_take(call, message):
    with pytest.raises(ValueError, match=f"^{message}$"):
        call()


@given(vec3, vec3)
def test_iso_dot_symmetric(u, v):
    assert iso_dot(u, v) == iso_dot(v, u)


@given(vec3, vec3, vec3, st.floats(min_value=-100, max_value=100, allow_nan=False))
def test_iso_dot_bilinear(u, v, w, s):
    lhs = iso_dot([s * a + b for a, b in zip(u, v)], w)
    rhs = s * iso_dot(u, w) + iso_dot(v, w)
    assert lhs == pytest.approx(rhs, rel=1e-9, abs=1e-6)


@given(vec3_no_underflow)
def test_norm_vanishes_iff_top_view_vanishes(u):
    tv = top_view(u)
    if iso_norm(u) == 0.0:
        assert tv == IsoVec3(0, 0, 0)
    if tv == IsoVec3(0, 0, 0):
        assert iso_norm(u) == 0.0


def test_norm_is_sqrt_of_self_pairing():
    u = (3.0, -4.0, 11.0)
    assert iso_norm(u) == pytest.approx(math.sqrt(iso_dot(u, u)))


def test_write_json_sorted_indented_with_newline(tmp_path):
    obj = {"b": [1, 2.5], "a": {"z": None, "y": "s"}}
    expected = '{\n  "a": {\n    "y": "s",\n    "z": null\n  },\n  "b": [\n    1,\n    2.5\n  ]\n}\n'
    buf = io.StringIO()
    with contextlib.redirect_stdout(buf):
        write_json("-", obj)
    assert buf.getvalue() == expected
    write_json(tmp_path / "o.json", obj)
    assert (tmp_path / "o.json").read_text() == expected


@pytest.mark.parametrize("bad", [math.nan, math.inf, -math.inf])
def test_write_csv_refuses_a_non_finite_value_and_writes_nothing(bad, tmp_path):
    for dest in (tmp_path / "c.csv", "-"):
        buf = io.StringIO()
        with contextlib.redirect_stdout(buf), pytest.raises(
            ValueError, match=f"^CSV column b holds the non-finite value {bad}$"
        ):
            write_csv(dest, "a,b", ([1.0, 2.0], np.array([0.5, bad])))
        assert buf.getvalue() == ""
    assert list(tmp_path.iterdir()) == []


def _numpy_scalar_csv(header, columns):
    """The formatting write_csv replaced: numpy scalars straight into .17g."""
    row = ",".join(["{:.17g}"] * len(columns)) + "\n"
    return header + "\n" + "".join(row.format(*r) for r in zip(*columns))


@pytest.mark.parametrize(
    "columns",
    [
        (np.linspace(-1.0, 2.0, 7), np.array([1e-300, -0.0, 1e300, 5e-324, math.pi, -1.5, 2.0])),
        ([1.0 / 3.0, -2.0, 0.1], [math.e, -0.0, 1e22]),
        (np.linspace(0.1, 0.7, 4, dtype=np.float32), np.arange(4, dtype=np.float32) / 3),
        (np.arange(-3, 3), [7, -2, 0, 10**15, 2**53, 5]),
        ([], np.array([])),
    ],
    ids=["float64", "float_list", "float32", "int", "empty"],
)
def test_write_csv_matches_numpy_scalar_formatting(columns):
    buf = io.StringIO()
    with contextlib.redirect_stdout(buf):
        write_csv("-", "a,b", columns)
    assert buf.getvalue() == _numpy_scalar_csv("a,b", columns)


def test_check_finite_names_a_non_finite_real_and_skips_other_types():
    check_finite(n=3, huge=10**400, pair=(1.0, -2.5), kind="nan", fn=print)
    with pytest.raises(ValueError, match=r"^trange must be finite, got \(1.0, inf\)$"):
        check_finite(n=3, trange=(1.0, math.inf))
    with pytest.raises(ValueError, match="^alpha must be finite, got nan$"):
        check_finite(alpha=np.float32("nan"), lam=math.inf)  # the first one is named
