import argparse
import contextlib
import importlib.util
import io
import json
import math
import os
import random
import re
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


@pytest.mark.parametrize(
    "radii, c, d",
    [
        (["--r1", "1e-300", "--z1", "0", "--r2", "1e300", "--z2", "1e300"],
         1e300 / (600.0 * math.log(10.0)), 5e299),
        (["--r1", "1e300", "--z1", "0", "--r2", "1e-300", "--z2", "1"],
         -1.0 / (600.0 * math.log(10.0)), 0.5),
    ],
    ids=["quotient_overflows", "quotient_underflows"],
)
def test_catenoid_far_apart_radii(radii, c, d, capsys):
    # r2 / r1 overflows to inf or underflows to 0; each problem has one solution
    assert run_cli("catenoid", *radii) == 0
    payload = json.loads(capsys.readouterr().out)
    assert payload["status"] == "unique"
    assert (payload["c"], payload["d"]) == pytest.approx((c, d), rel=1e-12)


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


@pytest.mark.parametrize("args, case", [
    (["--a", "0", "--b=-1", "--c2", "1"], "ParabolicCase1a"),
    (["--a", "1", "--b=-1", "--c1", "0.5", "--c2", "1"], "ParabolicCase1b"),
], ids=["1a", "1b"])
def test_classify_parabolic_negative_b(args, case, capsys):
    # X12 = b < 0: the verification grid is (t, theta) on a surface that runs theta backwards
    code = run_cli("classify", "parabolic", *args, "--ref", "yz")
    assert code == 0
    payload = json.loads(capsys.readouterr().out)
    assert payload["case"] == case
    assert dict((c["name"], c["residual"]) for c in payload["constraints"])[
        "sms_residual_max_abs"] < 1e-9


def test_negative_b_mesh_keeps_its_t_range_open(tmp_path):
    # a t-range of length 2 pi is no theta turn: no seam, 2 x 3 vertices and two quads
    mesh = tmp_path / "m.obj"
    code = run_cli("surface", "parabolic", "--a", "0.3", "--b=-1.5", "--profile", "log:1,0",
                   "--trange", "1:7.283185307179586", "--thetarange=-0.5:0.5", "--grid", "1x2",
                   "--mesh", str(mesh))
    assert code == 0
    lines = mesh.read_text().splitlines()
    assert sum(ln.startswith("v ") for ln in lines) == 6
    assert [ln for ln in lines if ln.startswith("f ")] == ["f 1 4 5 2", "f 2 5 6 3"]



@pytest.mark.parametrize(
    "argv, nv",
    [
        (["catenoid", "--r1", "1", "--z1", "0", "--r2", "2", "--z2", "1", "--grid", "2x2"], 2),
        (["surface", "revolution", "--profile", "log:1,0", "--trange", "1:2", "--grid", "2x1"], 1),
    ],
    ids=["catenoid_2x2", "revolution_2x1"],
)
def test_full_turn_mesh_needs_three_cells_around(argv, nv, tmp_path, capsys):
    # 2 cells around wrote one quad twice in opposite orientations, 1 cell a face "f 1 2 2 1"
    assert run_cli(*argv, "--mesh", str(tmp_path / "m.obj")) == 1
    out = capsys.readouterr()
    assert out.out == ""
    assert out.err == f"error: a full-turn mesh needs at least 3 cells around, got {nv}\n"
    assert list(tmp_path.iterdir()) == []

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


@pytest.mark.parametrize("a", ["1e-13", "1e300"])
def test_ivp_extreme_height_keeps_the_origin_law(a, tmp_path, capsys):
    # the solve is scaled from a = 1, so neither a tiny nor a huge height loses z''(0)
    assert run_cli("ivp", "--a", a, "--out", str(tmp_path / "ivp.csv")) == 0
    sidecar = json.loads(capsys.readouterr().out)
    assert abs(4.0 * float(a) * sidecar["zpp_origin"] - 1.0) <= 1e-6


def test_ivp_overflowing_height_exits_one_without_traceback():
    env = dict(os.environ, PYTHONPATH=str(Path(isokit.__file__).resolve().parents[1]))
    proc = subprocess.run(
        [sys.executable, "-m", "isokit.cli", "ivp", "--a=1.795e308"],
        capture_output=True, text=True, env=env, timeout=60,
    )
    assert proc.returncode == 1
    assert proc.stdout == ""
    assert proc.stderr.startswith("error:")
    assert proc.stderr.count("\n") == 1
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



@pytest.mark.parametrize("raw", ["1,0,2", "1,0,2,1,5", "a,b,c,d"])
def test_malformed_endpoints_are_a_flag_error(raw, tmp_path, capsys):
    # these exited 1 with Python's unpacking or float() message
    with pytest.raises(SystemExit) as err:
        run_cli("minimize", "--endpoints", raw, "--out", str(tmp_path / "c.csv"),
                "--json", str(tmp_path / "s.json"))
    assert err.value.code == 2
    assert f"argument --endpoints: endpoints {raw} need four numbers" in capsys.readouterr().err
    assert list(tmp_path.iterdir()) == []

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


@pytest.mark.parametrize(
    "argv, message",
    [
        (["catenary", "--range=1:1e300", "--n", "5"], "log profile overflows at t=2.5e+299"),
        (["residual", "--check=el", "--ref=lz", "--alpha=0", "--lambda=-1e300",
          "--profile=inverse:3,-1", "--range=3:1e300", "--n=3"],
         "inverse_radius profile overflows at t=5e+299"),
    ],
    ids=["catenary", "residual_el"],
)
def test_profile_overflow_is_one_error_line(argv, message, capsys):
    with warnings.catch_warnings():
        warnings.simplefilter("error")
        assert run_cli(*argv) == 1
    assert capsys.readouterr() == ("", f"error: {message}\n")


@pytest.mark.parametrize(
    "argv, message",
    [
        (["surface", "revolution", "--profile=poly:0,1", "--trange=1:1e300"],
         "CSV column H holds the non-finite value nan"),
        (["surface", "helicoidal", "--pitch=1e308", "--thetarange=0:1.5", "--profile=poly:1e308",
          "--trange=1:2"],
         "mesh vertex holds the non-finite value inf"),
    ],
    ids=["nan_sidecar", "inf_vertices"],
)
def test_non_finite_result_writes_no_non_finite_file(argv, message, tmp_path, capsys):
    with warnings.catch_warnings():
        warnings.simplefilter("error")
        assert run_cli(*argv, "--grid", "2x3", "--mesh", str(tmp_path / "m.obj")) == 1
    assert capsys.readouterr().err == f"error: {message}\n"
    assert list(tmp_path.iterdir()) == []  # both artifacts are checked before either is written


@pytest.mark.parametrize(
    "argv, message",
    [
        (["surface", "helicoidal", "--pitch=1.7e308", "--profile=log:1,0", "--trange=1:2",
          "--grid", "2x3", "--mesh", "m.obj"],
         "pitch 1.7e+308 times theta is not finite on [0.0, 6.283185307179586]"),
        (["residual", "--check=el", "--ref=lx", "--alpha=1", "--profile=poly:0,1e200",
          "--range=1:2", "--n=3"],
         "slope square overflows at t=1.0"),
        (["surface", "parabolic", "--profile", "log:1e300,0.5", "--trange", "1e-13:2.5",
          "--mesh", "m.obj", "--grid", "3x4", "--c1", "1", "--c2", "0.5"],
         "log profile overflows at t=1e-13"),
        (["catenoid", "--r1", "1", "--z1", "-1e300", "--r2", "1e-13", "--z2", "-1",
          "--mesh", "m.obj", "--grid", "3x4"],
         "log profile overflows at t=1e-13"),
        (["catenoid", "--r1", "1e-300", "--z1", "0", "--r2", "1e300", "--z2", "1e300",
          "--mesh", "c.obj", "--grid", "2x3"],
         "log profile overflows at t=1e-300"),
        (["minimize", "--ref", "lz", "--alpha", "3", "--lambda", "-0.0",
          "--endpoints", "3,1e-13,1e300,-1", "--n", "2"],
         "weight power overflows at t=5e+299"),
        (["minimize", "--ref", "lx", "--alpha", "-0.0", "--lambda", "1e300",
          "--endpoints", "-1e300,3,-1,0.5", "--n", "2"],
         "functional value overflows to -inf"),
        (["minimize", "--ref", "lz", "--alpha", "0", "--lambda", "1e-13",
          "--endpoints", "0,-1e300,2.5,0.5", "--n", "2", "--out", "p.csv", "--json", "p.json"],
         "slope square overflows at t=0.0"),
    ],
    ids=["helicoidal_pitch", "el_slope_square", "parabolic_log", "catenoid_log",
         "catenoid_underflow", "minimize_weight", "minimize_value", "minimize_slope"],
)
def test_pitch_slope_and_jet_overflow_is_one_error_line(argv, message, tmp_path, monkeypatch,
                                                        capsys):
    # every artifact is built before the first is written: no file, and nothing on stdout
    monkeypatch.chdir(tmp_path)
    with warnings.catch_warnings():
        warnings.simplefilter("error")
        assert run_cli(*argv) == 1
    assert capsys.readouterr() == ("", f"error: {message}\n")
    assert list(tmp_path.iterdir()) == []


@pytest.mark.parametrize(
    "argv, code, out",
    [
        (["residual", "--check", "sms", "--profile=poly:0,1e300", "--range=1:2"], 1,
         "1.0000000000000003e+300\n"),
        (["classify", "helicoidal", "--c", "0", "--ref", "yz", "--z1", "1e300", "--z2", "1e300"],
         0, None),
    ],
    ids=["residual_sms", "classify_helicoidal"],
)
def test_overflowing_parabolic_normal_is_silent(argv, code, out, capsys):
    # p * p of the parabolic normal overflows, but the residual pairs with p alone
    with warnings.catch_warnings():
        warnings.simplefilter("error")
        assert run_cli(*argv) == code
    got = capsys.readouterr()
    assert got.err == ""
    assert out is None or got.out == out


def test_surface_with_a_failing_sidecar_writes_neither_file(tmp_path, monkeypatch, capsys):
    # the vertices are finite but H overflows; no numpy warning may reach stderr either
    monkeypatch.chdir(tmp_path)
    assert run_cli("surface", "revolution", "--profile=poly:0,1", "--trange=1:1e300",
                   "--grid", "2x3", "--mesh", "m.obj") == 1
    assert capsys.readouterr() == ("", "error: CSV column H holds the non-finite value nan\n")
    assert list(tmp_path.iterdir()) == []


@pytest.mark.parametrize(
    "ref, message",
    [("lz", "t=5e+299"), ("lx", "z=5e+299 (t=5e+299)")],
)
def test_el_weight_power_overflow_is_one_error_line(ref, message, capsys):
    assert run_cli("residual", "--check=el", f"--ref={ref}", "--alpha=2", "--profile=poly:0,1",
                   "--range=1:1e300", "--n=3") == 1
    assert capsys.readouterr() == ("", f"error: weight power overflows at {message}\n")


@pytest.mark.parametrize(
    "argv",
    [
        ["catenary", "--range", "1:2", "--out"],
        ["catenoid", "--r1", "1", "--z1", "0", "--r2", "2", "--z2", "1", "--mesh"],
    ],
    ids=["catenary_out", "catenoid_mesh"],
)
def test_unwritable_destination_is_one_error_line(argv, tmp_path, capsys):
    assert run_cli(*argv, str(tmp_path / "missing" / "out")) == 1
    out = capsys.readouterr()
    assert out.out == ""  # catenoid writes its mesh before it prints its JSON
    assert out.err.startswith("error: [Errno 2] No such file or directory")
    assert out.err.count("\n") == 1


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


@pytest.mark.parametrize(
    "argv, message",
    [
        (["catenary", "--range", "1"], "argument --range: range 1 needs two numbers lo:hi"),
        (["catenary", "--range", "a:b"], "argument --range: range a:b needs two numbers lo:hi"),
        (["catenary", "--range", "1:2", "--n", "x"], "argument --n: x is not an integer"),
        (["catenary", "--range", "1:2", "--n", "1"], "argument --n: 1 is below the minimum 2"),
        (["residual", "--check", "el", "--profile", "log:1,0", "--range", "1:2", "--n", "0"],
         "argument --n: 0 is below the minimum 1"),
        (["surface", "revolution", "--profile", "log:1,0", "--trange", "1:2", "--mesh", "m.obj",
          "--grid", "0x4"], "argument --grid: 0 is below the minimum 1"),
        *((["catenoid", "--r1", "1", "--z1", "0", "--r2", "2", "--z2", "1", "--grid", grid],
          f"argument --grid: grid {grid} needs two integers NUxNV")
          for grid in ("2", "2x3x4", "axb")),
        *((["surface", "revolution", "--profile", spec, "--trange", "1:2", "--mesh", "m.obj"],
          f"argument --profile: profile {spec} needs {form} of finite numbers")
          for spec, form in (("log:1", "log:c,d"), ("log:1,x", "log:c,d"),
                             ("inverse:nan,1", "inverse:z1,z2"), ("poly:1,x", "poly:a0,a1,..."))),
    ],
    ids=["range_1", "range_a_b", "n_x", "n_1", "residual_n_0", "grid_0x4", "grid_2", "grid_2x3x4",
         "grid_axb", "profile_log_1", "profile_log_1_x", "profile_inverse_nan", "profile_poly_1_x"],
)
def test_flag_errors_name_the_expected_form(argv, message, tmp_path, monkeypatch, capsys):
    # these named the private parser: "invalid _parse_range value: '1'"
    monkeypatch.chdir(tmp_path)
    with pytest.raises(SystemExit) as err:
        run_cli(*argv)
    assert err.value.code == 2
    assert capsys.readouterr().err.endswith(f"error: {message}\n")
    assert list(tmp_path.iterdir()) == []


def test_grid_is_read_after_lower_casing(tmp_path, monkeypatch):
    monkeypatch.chdir(tmp_path)
    for mesh, grid in (("lower.obj", "2x3"), ("upper.obj", "2X3")):
        assert run_cli("surface", "revolution", "--profile", "log:1,0", "--trange", "1:2",
                       "--mesh", mesh, "--grid", grid) == 0
    assert (tmp_path / "upper.obj").read_bytes() == (tmp_path / "lower.obj").read_bytes()


@pytest.mark.parametrize("tol", ["0", "-1"])
def test_ivp_tol_that_is_not_positive_is_an_input_error(tol, tmp_path, monkeypatch, capsys):
    monkeypatch.chdir(tmp_path)
    assert run_cli("ivp", "--a", "1", "--tol", tol, "--out", "p.csv") == 1
    assert capsys.readouterr() == ("", f"error: tol must be positive, got {float(tol)}\n")
    assert list(tmp_path.iterdir()) == []


def test_profile_values_fill_the_kind_names():
    assert cli._parse_profile("inverse:0.4,1.5").coefficients == {"z1": 0.4, "z2": 1.5}
    assert cli._parse_profile("power:5,-1,0").coefficients == {"c": 5.0, "p": -1.0, "d": 0.0}
    assert cli._parse_profile("poly:1,2").coefficients == {"a": (1.0, 2.0)}


@pytest.mark.parametrize("spec", ["log:1", "log:1,2,3", "inverse:1", "power:1,2", "quadratic:1,2"])
def test_wrong_profile_value_count_or_kind_is_a_flag_error(spec, capsys):
    with pytest.raises(SystemExit) as err:
        run_cli("residual", "--check", "el", "--profile", spec, "--range", "1:2")
    assert err.value.code == 2
    assert "argument --profile" in capsys.readouterr().err


@pytest.mark.parametrize("ref", ["lz", "lx"])
def test_negative_exponent_at_zero_base_exits_one(ref, capsys):
    # t**(alpha - 1) (lz) and z**(alpha - 1) (lx) at 0 were ZeroDivisionErrors
    code = run_cli("residual", "--check", "el", "--ref", ref, "--alpha=-1",
                   "--profile", "power:1,2,0", "--range=-1:1", "--n", "3")
    out = capsys.readouterr()
    assert code == 1
    assert out.out == ""
    assert out.err == "error: negative exponent with zero weight base\n"


def test_overflowing_json_value_exits_one(capsys):
    # a*c2 overflows to inf: the gate counts as violated, so no surface is built
    # and no numpy warning is raised (pytest turns RuntimeWarnings into errors)
    code = run_cli("classify", "parabolic", "--ref", "yz", "--a", "1e300", "--b", "1",
                   "--c2", "1e300")
    out = capsys.readouterr()
    assert code == 1
    assert out.out == ""
    assert out.err.startswith("error: Out of range float values are not JSON compliant")


def test_parser_is_built_once():
    assert cli._build_parser() is cli._build_parser()


def test_every_option_but_help_takes_one_value():
    # run joins `--opt VALUE` into `--opt=VALUE`, which needs exactly one value per option
    parser = cli._build_parser()
    (sub,) = (a for a in parser._actions if isinstance(a, argparse._SubParsersAction))
    for name, subparser in sub.choices.items():
        for action in subparser._actions:
            flags = [f for f in action.option_strings if f.startswith("--") and f != "--help"]
            if flags:
                assert isinstance(action, argparse._StoreAction) and action.nargs is None, (
                    name, flags)


SESSION = [
    ["catenary", "--alpha", "2", "--c", "1.5", "--range", "1:3", "--n", "7", "--out", "c.csv"],
    ["minimize", "--ref", "lx", "--alpha", "1.5", "--endpoints", "0,1.5,1,1.7", "--n", "20",
     "--out", "p.csv", "--json", "p.json"],
    ["catenoid", "--r1", "1", "--z1", "0", "--r2", "2.5", "--z2", "1.2", "--mesh", "cat.obj",
     "--grid", "3x6"],
    ["surface", "parabolic", "--a", "0.3", "--b", "-1.5", "--c1", "-0.25", "--c2", "0.6",
     "--thetarange", "-0.8:0.8", "--profile", "log:1.5,0.25", "--trange", "0.8:2.4",
     "--mesh", "s.obj", "--grid", "3x4"],
    ["classify", "parabolic", "--a", "1", "--b", "1", "--c1", "0.5", "--c2", "-1", "--ref", "yz"],
    ["ivp", "--a", "1", "--out", "ivp.csv"],
    ["residual", "--check", "sms", "--profile", "inverse:0.4,1.5", "--range", "0.5:3",
     "--grid", "6x4"],
    ["residual", "--check", "el", "--profile", "log:1", "--range", "1:2"],
    ["catenary", "--range", "1:2", "--n", "3", "--out", "c.csv"],
]


def _run_session(workdir, fresh):
    """(exit code, stdout, files) per SESSION command, each in its own directory."""
    results = []
    for k, argv in enumerate(SESSION):
        cwd = workdir / str(k)
        cwd.mkdir()
        if fresh:
            cli._build_parser.cache_clear()
        out, home = io.StringIO(), os.getcwd()
        os.chdir(cwd)
        try:
            with contextlib.redirect_stdout(out), contextlib.redirect_stderr(io.StringIO()):
                try:
                    code = cli.run(argv)
                except SystemExit as exc:
                    code = exc.code
        finally:
            os.chdir(home)
        files = {p.name: p.read_bytes() for p in sorted(cwd.iterdir())}
        results.append((code, out.getvalue(), files))
    return results


def test_cached_parser_gives_the_artifacts_of_fresh_parsers(tmp_path):
    (tmp_path / "cached").mkdir()
    (tmp_path / "fresh").mkdir()
    cached = _run_session(tmp_path / "cached", fresh=False)
    fresh = _run_session(tmp_path / "fresh", fresh=True)
    assert cached == fresh
    assert [code for code, _, _ in cached] == [0, 0, 0, 0, 0, 0, 0, 2, 0]


def test_defaults_do_not_leak_between_runs(capsys):
    argv = ["residual", "--check", "el", "--profile", "log:1,0", "--range", "1:2"]
    for extra in ([], ["--n", "5"], []):
        run_cli(*argv, *extra)
    first, with_n, again = capsys.readouterr().out.splitlines()
    assert again == first != with_n


def test_separate_values_may_start_with_a_dash(tmp_path, capsys):
    joined = ["surface", "parabolic", "--c1=-0.25", "--thetarange=-0.8:0.8", "--b=1.2",
              "--profile=log:1.5,0.25", "--trange=0.8:2.4", "--grid=3x4"]
    outputs = []
    for form, argv in (("joined", joined), ("separate", [x for a in joined for x in a.split("=")])):
        mesh = tmp_path / f"{form}.obj"
        assert run_cli(*argv, "--mesh", str(mesh)) == 0
        outputs.append((mesh.read_bytes(), Path(f"{mesh}.curvature.csv").read_bytes()))
    assert outputs[0] == outputs[1]
    out = tmp_path / "c.csv"
    assert run_cli("catenary", "--d", "-5e-1", "--range", "-2:-1", "--n", "3",
                   "--lambda", "-3", "--out", str(out)) == 0
    assert out.read_text().splitlines()[1] == "-2,-2,-0.5"


def test_argv_none_reads_sys_argv(monkeypatch, capsys):
    monkeypatch.setattr(sys, "argv", ["isokit", "classify", "helicoidal", "--c", "-1e0",
                                      "--ref", "yz"])
    assert cli.run() == 0
    assert json.loads(capsys.readouterr().out)["case"] == "NoHelicoidal"


def test_values_after_a_bare_double_dash_are_not_joined():
    assert cli._join_values(["catenary", "--range", "1:2", "--", "--n", "3"]) == [
        "catenary", "--range=1:2", "--", "--n", "3"]
    assert cli._join_values(["catenary", "--help", "--range"]) == [
        "catenary", "--help", "--range"]


def test_mesh_to_stdout_needs_a_curvature_csv(tmp_path, capsys, monkeypatch):
    monkeypatch.chdir(tmp_path)
    argv = ["surface", "revolution", "--profile", "log:1,0", "--trange", "1:2",
            "--mesh", "-", "--grid", "1x3"]
    with pytest.raises(SystemExit) as err:
        run_cli(*argv)
    assert err.value.code == 2
    out = capsys.readouterr()
    assert out.out == ""
    assert [ln for ln in out.err.splitlines() if "error:" in ln] == [
        "isokit: error: surface --mesh - needs --curvature-csv"]
    assert list(tmp_path.iterdir()) == []
    assert run_cli(*argv, "--curvature-csv", "h.csv") == 0
    lines = capsys.readouterr().out.splitlines()
    assert [ln[0] for ln in lines] == ["v"] * 6 + ["f"] * 3
    assert [p.name for p in tmp_path.iterdir()] == ["h.csv"]


def test_minimize_lx_at_alpha_zero_is_the_straight_line(capsys):
    # the weight is the constant 1 - lam: no power of the zero base z = 0 is taken
    code = run_cli("minimize", "--ref", "lx", "--alpha", "0", "--endpoints", "0,0,1,1",
                   "--n", "10")
    out = capsys.readouterr()
    assert code == 0
    assert out.err == ""
    lines = out.out.splitlines()
    rows = [[float(v) for v in r.split(",")] for r in lines[1:lines.index("{")]]
    assert len(rows) == 11
    assert all(z == pytest.approx(t, abs=1e-12) for t, _, z in rows)


def _artifact_commands():
    path = Path(__file__).resolve().parents[1] / "tools" / "cli_artifacts.py"
    spec = importlib.util.spec_from_file_location("cli_artifacts", path)
    module = importlib.util.module_from_spec(spec)
    spec.loader.exec_module(module)
    return module.COMMANDS


ARTIFACT_COMMANDS = _artifact_commands()
ERROR_LINE = re.compile(r"(isokit( \w+)?: )?error: ")


def _undocumented_stderr(text):
    """The lines of stderr that are neither an error line nor in argparse's usage block."""
    undocumented, in_usage = [], False
    for ln in text.splitlines():
        # a usage block is its "usage:" line and the indented lines that continue it
        in_usage = ln.startswith("usage: ") or (in_usage and ln.startswith(" "))
        if not (in_usage or ERROR_LINE.match(ln)):
            undocumented.append(ln)
    return undocumented


@pytest.mark.parametrize("argv", [argv for _, argv in ARTIFACT_COMMANDS],
                         ids=[name for name, _ in ARTIFACT_COMMANDS])
def test_artifact_command_exits_cleanly_without_warnings(argv, tmp_path, monkeypatch):
    monkeypatch.chdir(tmp_path)
    err = io.StringIO()
    with warnings.catch_warnings(record=True) as caught, contextlib.redirect_stderr(err), \
            contextlib.redirect_stdout(io.StringIO()):
        warnings.simplefilter("always")
        try:
            code = cli.run(list(argv))
        except SystemExit as exc:  # argparse flag errors
            code = exc.code
    assert code in (0, 1, 2)
    assert [f"{w.category.__name__}: {w.message}" for w in caught] == []
    assert _undocumented_stderr(err.getvalue()) == []


# A seeded fuzz of the CLI over every subcommand: whatever the numbers, a run exits 0, 1 or
# 2, prints only error lines or argparse usage to stderr, raises no exception and no numpy
# warning, and writes strict JSON and finite CSV and OBJ files.
FUZZ_SEED = 2718
FUZZ_RUNS = 300
FUZZ_POOL = ("0", "1", "-1", "2.5", "nan", "inf", "-inf", "1e-13", "1e-300", "1e300", "-0.0")
FUZZ_RANGES = ("1:2", "0.5:3", "-1.25:1.25", "1e-13:2.5", "1:1e300", "-1e300:1")
FUZZ_GRIDS = ("1x1", "2x3", "3x2", "4x4")
FUZZ_PROFILE_SIZES = {"log": (2,), "power": (3,), "inverse": (2,), "poly": (1, 2, 3, 4)}
SWEEP_FLOATS = ("--pitch", "--a", "--b", "--c", "--c1", "--c2")
# subcommand -> (positional choices, required options, optional options); an option maps
# to the kind of value drawn for it
FUZZ_COMMANDS = {
    "catenary": ((), {"--range": "range"},
                 {"--alpha": "x", "--c": "x", "--d": "x", "--lambda": "x", "--n": "n",
                  "--out": "csv"}),
    "minimize": ((), {"--endpoints": "endpoints"},
                 {"--ref": ("lz", "lx"), "--alpha": "x", "--lambda": "x", "--n": "n",
                  "--out": "csv", "--json": "json"}),
    "catenoid": ((), {"--r1": "x", "--z1": "x", "--r2": "x", "--z2": "x"},
                 {"--mesh": "obj", "--grid": "grid"}),
    "surface": (("revolution", "helicoidal", "parabolic"),
                {"--profile": "profile", "--trange": "range", "--mesh": "obj"},
                {"--thetarange": "range", "--grid": "grid", "--curvature-csv": "csv",
                 **dict.fromkeys(SWEEP_FLOATS, "x")}),
    "classify": (("helicoidal", "parabolic"), {"--ref": ("yz", "xy")},
                 {"--out": "json", **dict.fromkeys(("--c", "--a", "--b", "--c1", "--c2",
                                                    "--z1", "--z2"), "x")}),
    "ivp": ((), {"--a": "x"}, {"--tol": "x", "--out": "csv", "--json": "json"}),
    "residual": ((), {"--check": ("el", "sms"), "--profile": "profile", "--range": "range"},
                 {"--threshold": "x", "--ref": ("lz", "lx"), "--sref": ("yz", "xy"),
                  "--alpha": "x", "--lambda": "x", "--thetarange": "range", "--n": "n",
                  "--surface": ("revolution", "helicoidal", "parabolic"), "--grid": "grid",
                  **dict.fromkeys(SWEEP_FLOATS, "x")}),
}


def _fuzz_value(rng, kind, k):
    if isinstance(kind, tuple):
        return rng.choice(kind)
    if kind == "x":
        return rng.choice(FUZZ_POOL)
    if kind == "n":
        return rng.choice(("1", "2", "3", "9"))
    if kind == "range":
        if rng.random() < 0.5:
            return rng.choice(FUZZ_RANGES)
        return f"{rng.choice(FUZZ_POOL)}:{rng.choice(FUZZ_POOL)}"
    if kind == "grid":
        return rng.choice(FUZZ_GRIDS)
    if kind == "endpoints":
        return ",".join(rng.choice(FUZZ_POOL) for _ in range(4))
    if kind == "profile":
        name = rng.choice(sorted(FUZZ_PROFILE_SIZES))
        size = rng.choice(FUZZ_PROFILE_SIZES[name])
        return f"{name}:" + ",".join(rng.choice(FUZZ_POOL) for _ in range(size))
    # a file name, or stdout for a CSV or JSON; an OBJ goes to a file, so that stdout is
    # at most a CSV followed by a JSON object
    return "-" if rng.random() < 0.3 and kind != "obj" else f"a{k}.{kind}"


def _fuzz_argv(rng):
    command = rng.choice(sorted(FUZZ_COMMANDS))
    positional, required, optional = FUZZ_COMMANDS[command]
    argv = [command, *([rng.choice(positional)] if positional else [])]
    extra = rng.randint(0, min(4, len(optional)))
    options = [*required.items(), *rng.sample(sorted(optional.items()), extra)]
    for k, (flag, kind) in enumerate(options):
        value = _fuzz_value(rng, kind, k)
        argv += [f"{flag}={value}"] if rng.random() < 0.5 else [flag, value]
    return argv


def _strict_json(text):
    def refuse(constant):
        raise ValueError(f"non-strict JSON constant {constant}")

    return json.loads(text, parse_constant=refuse)


def _finite_csv(text):
    header, *rows = text.splitlines()
    assert re.fullmatch(r"[a-zA-Z]+(,[a-zA-Z]+)*", header), header
    assert all(math.isfinite(float(x)) for row in rows for x in row.split(","))


def _finite_obj(text):
    for line in text.splitlines():
        kind, *values = line.split()
        assert kind in ("v", "f"), line
        assert kind == "f" or all(math.isfinite(float(x)) for x in values), line


def _check_fuzz_artifacts(argv, stdout, workdir):
    for path in workdir.iterdir():
        {".json": _strict_json, ".csv": _finite_csv, ".obj": _finite_obj}[path.suffix](
            path.read_text())
    if not stdout:
        return
    if argv[0] == "residual":
        float(stdout)  # the worst residual, one number
        return
    head, brace, tail = stdout.partition("{\n")  # a CSV may precede a JSON summary
    if head:
        _finite_csv(head)
    if brace:
        _strict_json(brace + tail)


def _fuzz_run(argv, workdir):
    """Run argv in workdir and check it; an exception escaping cli.run propagates."""
    out, err = io.StringIO(), io.StringIO()
    with warnings.catch_warnings(record=True) as caught, contextlib.redirect_stderr(err), \
            contextlib.redirect_stdout(out):
        warnings.simplefilter("always")
        try:
            code = cli.run(list(argv))
        except SystemExit as exc:  # argparse flag errors
            code = exc.code
    assert code in (0, 1, 2), code
    assert [f"{w.category.__name__}: {w.message}" for w in caught] == []
    assert _undocumented_stderr(err.getvalue()) == []
    _check_fuzz_artifacts(argv, out.getvalue(), workdir)


def test_cli_fuzz_exits_cleanly_with_finite_artifacts(tmp_path, monkeypatch):
    rng = random.Random(FUZZ_SEED)
    failures = []
    for k in range(FUZZ_RUNS):
        argv = _fuzz_argv(rng)
        workdir = tmp_path / str(k)
        workdir.mkdir()
        monkeypatch.chdir(workdir)
        try:
            _fuzz_run(argv, workdir)
        except Exception as exc:  # collect every failing argv, not just the first
            failures.append(f"{' '.join(argv)}: {type(exc).__name__}: {exc}")
    assert failures == []


def test_helicoidal_classification_residual_is_the_cli_sms_residual(capsys):
    # the classification checks its profile on the CHECK_GRID nodes spanning the swept
    # surface, which is what `residual --check sms` reads over the same rectangle
    rng = np.random.default_rng(28)
    draws = [(0.3, 1.4), *rng.uniform(-4.0, 4.0, (8, 2)).tolist()]
    for z1, z2 in draws:
        assert run_cli("classify", "helicoidal", "--c", "0", "--ref", "yz",
                       f"--z1={z1!r}", f"--z2={z2!r}") == 0
        report = json.loads(capsys.readouterr().out)
        run_cli("residual", "--check", "sms", f"--profile=inverse:{z1!r},{z2!r}",
                "--range", "0.55:2.95", "--thetarange=-1.25:1.25")
        cli_residual = float(capsys.readouterr().out)
        constraints = {c["name"]: c["residual"] for c in report["constraints"]}
        assert constraints["sms_residual_max_abs"] == cli_residual, (z1, z2)
