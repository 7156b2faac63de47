import contextlib
import io
import json
import math
import os
import subprocess
import sys
import warnings
from pathlib import Path

import numpy as np
import pytest

import isokit
from isokit import cli
from isokit.core import write_csv
from isokit.curves import LZ, catenary_curvature_residual, read_curve_csv


def run_cli(*argv):
    return cli.run(list(argv))


def test_catenary_csv(tmp_path):
    out = tmp_path / "cat.csv"
    code = run_cli(
        "catenary", "--alpha", "1", "--c", "1", "--d", "0",
        "--range", "1:2.718281828459045", "--n", "50", "--out", str(out),
    )
    assert code == 0
    rows = out.read_text().splitlines()
    assert rows[0] == "t,x,z"
    assert len(rows) == 51
    last = rows[-1].split(",")
    assert float(last[2]) == pytest.approx(1.0, abs=1e-12)


def test_catenary_deterministic(tmp_path):
    a, b = tmp_path / "a.csv", tmp_path / "b.csv"
    args = ["catenary", "--alpha", "2", "--c", "1.5", "--range", "1:3", "--n", "40"]
    run_cli(*args, "--out", str(a))
    run_cli(*args, "--out", str(b))
    assert a.read_bytes() == b.read_bytes()


def test_curve_csv_round_trip(tmp_path):
    out = tmp_path / "cat.csv"
    run_cli("catenary", "--c", "2", "--d", "1", "--range", "1:3", "--n", "400",
            "--out", str(out))
    curve = read_curve_csv(out)
    worst = max(
        abs(catenary_curvature_residual(curve, LZ, 1.0, 0.0, float(t)))
        for t in np.linspace(1.1, 2.9, 30)
    )
    assert worst < 1e-3


def test_minimize_outputs(tmp_path, capsys):
    out = tmp_path / "profile.csv"
    code = run_cli(
        "minimize", "--ref", "lz", "--alpha", "1", "--lambda", "0",
        "--endpoints", f"1,0,{math.e},1", "--n", "100", "--out", str(out),
    )
    assert code == 0
    summary = json.loads(capsys.readouterr().out)
    assert summary["n"] == 100
    assert summary["gradient_max_abs"] < 1e-8
    rows = out.read_text().splitlines()
    t, _, z = (float(v) for v in rows[50].split(","))
    assert z == pytest.approx(math.log(t), abs=1e-3)


def test_minimize_sign_changing_weight_exits_one(tmp_path, capsys):
    out = tmp_path / "profile.csv"
    code = run_cli(
        "minimize", "--ref", "lz", "--alpha", "1", "--lambda", "2",
        "--endpoints", "1,0,3,1", "--n", "200", "--out", str(out),
    )
    assert code == 1
    captured = capsys.readouterr()
    assert captured.out == ""
    assert captured.err.startswith("error: weight t**alpha - lam vanishes at grid node 100")
    assert "Traceback" not in captured.err
    assert not out.exists()


def test_catenoid_json(capsys):
    code = run_cli("catenoid", "--r1", "1", "--z1", "0",
                   "--r2", str(math.e), "--z2", "1")
    assert code == 0
    payload = json.loads(capsys.readouterr().out)
    assert payload["status"] == "unique"
    assert payload["c"] == pytest.approx(1.0)
    assert payload["d"] == pytest.approx(0.0, abs=1e-15)


def test_catenoid_no_solution(capsys):
    run_cli("catenoid", "--r1", "2", "--z1", "0", "--r2", "2", "--z2", "1")
    payload = json.loads(capsys.readouterr().out)
    assert payload == {"c": None, "d": None, "status": "no_solution"}


def test_catenoid_mesh(tmp_path, capsys):
    mesh = tmp_path / "catenoid.obj"
    run_cli("catenoid", "--r1", "1", "--z1", "0", "--r2", str(math.e), "--z2", "1",
            "--mesh", str(mesh), "--grid", "8x16")
    capsys.readouterr()
    lines = mesh.read_text().splitlines()
    assert sum(1 for ln in lines if ln.startswith("v ")) == 9 * 16
    assert sum(1 for ln in lines if ln.startswith("f ")) == 8 * 16


def test_catenoid_invalid_radius_exit_code(capsys):
    code = run_cli("catenoid", "--r1", "-1", "--z1", "0", "--r2", "2", "--z2", "1")
    assert code == 1
    assert "error" in capsys.readouterr().err


def test_surface_mesh_and_sidecar(tmp_path):
    mesh = tmp_path / "rev.obj"
    sidecar = tmp_path / "rev.csv"
    code = run_cli(
        "surface", "revolution", "--profile", "log:1,0", "--trange", "1:2",
        "--mesh", str(mesh), "--grid", "4x8", "--curvature-csv", str(sidecar),
    )
    assert code == 0
    rows = sidecar.read_text().splitlines()
    assert rows[0] == "u,v,H"
    assert all(abs(float(r.split(",")[2])) < 1e-12 for r in rows[1:])


def test_classify_helicoidal_json(capsys):
    code = run_cli("classify", "helicoidal", "--c", "1", "--ref", "yz")
    assert code == 0
    payload = json.loads(capsys.readouterr().out)
    assert payload["case"] == "NoHelicoidal"


def test_classify_parabolic_json(capsys):
    code = run_cli(
        "classify", "parabolic", "--a", "0", "--b", "1", "--c1", "0", "--c2", "1",
        "--ref", "yz", "--z1", "0.3",
    )
    assert code == 0
    payload = json.loads(capsys.readouterr().out)
    assert payload["case"] == "ParabolicCase1a"
    assert payload["profile"]["coefficients"]["quad"] == pytest.approx(-0.25)


def test_ivp_outputs(tmp_path, capsys):
    out = tmp_path / "ivp.csv"
    code = run_cli("ivp", "--a", "1", "--out", str(out))
    assert code == 0
    sidecar = json.loads(capsys.readouterr().out)
    assert sidecar["zpp_origin"] == pytest.approx(0.25, abs=1e-6)
    assert sidecar["a"] == 1.0
    rows = out.read_text().splitlines()
    assert rows[0] == "t,z,zp"
    assert len(rows) == 1 + 513


def test_residual_exit_codes(capsys):
    ok = run_cli("residual", "--check", "el", "--ref", "lz", "--alpha", "2",
                 "--profile", "power:5,-1,0", "--range", "1:3")
    assert ok == 0
    bad = run_cli("residual", "--check", "el", "--ref", "lz", "--alpha", "1",
                  "--profile", "poly:0,0,1", "--range", "1:3")
    assert bad == 1
    out = capsys.readouterr().out.splitlines()
    assert float(out[0]) < 1e-9 < float(out[1])


def test_residual_sms_grid(capsys):
    code = run_cli(
        "residual", "--check", "sms", "--surface", "revolution", "--sref", "yz",
        "--profile", "inverse:0.5,2", "--range", "0.5:3",
        "--thetarange=-1.25:1.25", "--grid", "50x16",
    )
    assert code == 0
    assert float(capsys.readouterr().out) < 1e-9


def test_flag_errors_exit_two():
    with pytest.raises(SystemExit) as err:
        run_cli("catenary", "--range", "oops")
    assert err.value.code == 2
    with pytest.raises(SystemExit) as err:
        run_cli("unknown-command")
    assert err.value.code == 2


def test_write_csv_dash_follows_current_stdout(tmp_path):
    buf = io.StringIO()
    with contextlib.redirect_stdout(buf):
        write_csv("-", "t,z", (np.array([1.0, 0.1]), [1.0 / 3.0, -2.0]))
    assert buf.getvalue() == "t,z\n1,0.33333333333333331\n0.10000000000000001,-2\n"
    path = tmp_path / "out.csv"
    write_csv(path, "t,z", ([], []))
    assert path.read_text() == "t,z\n"


def test_ivp_tiny_height_exits_one_without_traceback():
    env = dict(os.environ, PYTHONPATH=str(Path(isokit.__file__).resolve().parents[1]))
    proc = subprocess.run(
        [sys.executable, "-m", "isokit.cli", "ivp", "--a=1e-13"],
        capture_output=True, text=True, env=env, timeout=60,
    )
    assert proc.returncode == 1
    assert proc.stderr.startswith("error:")
    assert "Traceback" not in proc.stderr


def test_non_finite_profile_coefficients(capsys):
    code = run_cli("classify", "helicoidal", "--ref", "yz", "--z1", "0", "--z2=nan")
    assert code == 1
    assert capsys.readouterr().err.startswith("error:")
    with pytest.raises(SystemExit) as err:
        run_cli("residual", "--check", "sms", "--profile", "inverse:0,nan", "--range", "0.5:3")
    assert err.value.code == 2


def test_non_finite_catenoid_boundary_exits_one(capsys):
    code = run_cli("catenoid", "--r1", "nan", "--z1", "0", "--r2", "2", "--z2", "1")
    assert code == 1
    out = capsys.readouterr()
    assert out.out == ""
    assert out.err.startswith("error:")


def test_sample_counts_below_minimum_are_flag_errors(tmp_path):
    mesh = tmp_path / "m.obj"
    for argv in (
        ["catenary", "--range", "1:2", "--n", "0", "--out", str(tmp_path / "c.csv")],
        ["catenary", "--range", "1:2", "--n", "1", "--out", str(tmp_path / "c.csv")],
        ["surface", "revolution", "--profile", "log:1,0", "--trange", "1:2",
         "--mesh", str(mesh), "--grid", "0x4"],
    ):
        with pytest.raises(SystemExit) as err:
            run_cli(*argv)
        assert err.value.code == 2
    assert list(tmp_path.iterdir()) == []


@pytest.mark.parametrize(
    "argv, name",
    [
        (["minimize", "--ref", "lx", "--alpha", "nan", "--endpoints", "0,1.5,1,1.7"], "alpha"),
        (["minimize", "--ref", "lz", "--lambda", "nan", "--endpoints", "1,0,2,1"], "lam"),
        (["minimize", "--ref", "lz", "--endpoints", "1,nan,2,1"], "z_a"),
        (["ivp", "--a", "nan"], "a"),
    ],
    ids=["alpha", "lambda", "endpoint", "ivp_a"],
)
def test_non_finite_input_is_named(argv, name, capsys):
    assert run_cli(*argv) == 1
    out = capsys.readouterr()
    assert out.out == ""
    assert out.err.startswith(f"error: {name} must be finite")
    assert "Traceback" not in out.err


@pytest.mark.parametrize(
    "argv, message",
    [
        (["residual", "--check", "el", "--profile", "power:1,0.5,0", "--range=-1:2"],
         "power profile is undefined at t=-1.0"),
        (["residual", "--check", "el", "--profile", "inverse:0,1", "--range=-1:2"],
         "inverse_radius profile is undefined at t=0.0"),
        (["residual", "--check", "el", "--profile", "log:1,0", "--range=-1:2"],
         "log profile is undefined at t=-1.0"),
        (["surface", "revolution", "--profile", "power:1,0.5,0", "--trange=-1:2",
          "--mesh", "{mesh}"],
         "power profile is undefined at t=-1.0"),
    ],
    ids=["residual_power", "residual_inverse", "residual_log", "surface_power"],
)
def test_profile_outside_its_domain_is_one_error_line(argv, message, tmp_path, capsys):
    mesh = tmp_path / "m.obj"
    with warnings.catch_warnings():
        warnings.simplefilter("error")
        code = run_cli(*(a.format(mesh=mesh) for a in argv))
    out = capsys.readouterr()
    assert code == 1
    assert out.err == f"error: {message}\n"
    assert not mesh.exists()


def test_non_finite_range_end_exits_one(tmp_path, capsys):
    out = tmp_path / "c.csv"
    assert run_cli("catenary", "--range=1:inf", "--n", "3", "--out", str(out)) == 1
    assert capsys.readouterr().err.startswith("error: trange must be finite")
    assert not out.exists()


def test_non_finite_option_is_named(tmp_path, capsys):
    code = run_cli("surface", "helicoidal", "--profile", "log:1,0", "--trange", "1:2",
                   "--pitch=inf", "--mesh", str(tmp_path / "m.obj"))
    assert code == 1
    assert capsys.readouterr().err.startswith("error: pitch must be finite")
    assert list(tmp_path.iterdir()) == []


@pytest.mark.parametrize("raw", ["2:1", "1:1", "nan:1"])
def test_unordered_range_is_a_flag_error(raw, tmp_path, capsys):
    with pytest.raises(SystemExit) as err:
        run_cli("catenary", f"--range={raw}", "--n", "3", "--out", str(tmp_path / "c.csv"))
    assert err.value.code == 2
    assert f"range {raw} needs lo < hi" in capsys.readouterr().err
    assert list(tmp_path.iterdir()) == []


def test_overflowing_json_value_exits_one(capsys):
    # a*c2 overflows to inf; the numpy overflow warnings of the SMS check are
    # still raised on the way (see CHANGES.md)
    with pytest.warns(RuntimeWarning):
        code = run_cli("classify", "parabolic", "--ref", "yz", "--a", "1e300", "--b", "1",
                       "--c2", "1e300")
    out = capsys.readouterr()
    assert code == 1
    assert out.out == ""
    assert out.err.startswith("error: Out of range float values are not JSON compliant")
