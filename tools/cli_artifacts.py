"""Hash the artifacts of a fixed set of isokit CLI commands.

    python tools/cli_artifacts.py TREE

imports ``isokit`` from ``TREE/src``, runs each command below in-process
through ``cli.run`` inside a fresh temporary directory, and prints one
``name sha256`` line per captured stdout stream, per non-empty stderr stream
and per written file, plus a ``name/exit code`` line per command.  Run it on two trees and ``diff``
the outputs to check that a change keeps the CLI artifacts byte-identical.
Option values may follow their flag as a separate argument even when they
start with '-'; the ``*_separate`` commands do so and must hash like their
``--flag=value`` twins: where a pair differs, the script names it on stderr
and exits 1.  Uses only the standard library (and the package under test).
"""

import contextlib
import hashlib
import io
import os
import sys
import tempfile
from pathlib import Path

PROFILES = {
    "log": "log:1.5,0.25",
    "power": "power:0.75,-1.5,0.5",
    "inverse": "inverse:0.4,1.5",
    "poly": "poly:0.1,-0.3,0.2,0.05",
}
SURFACES = {
    "revolution": ["revolution"],
    "helicoidal": ["helicoidal", "--pitch", "0.7"],
    "parabolic": ["parabolic", "--a", "0.3", "--b", "1.2", "--c", "0.4",
                  "--c1=-0.25", "--c2", "0.6", "--thetarange=-0.8:0.8"],
}
COMMANDS = [
    # the README commands
    ("readme_catenary", ["catenary", "--alpha", "1", "--c", "1", "--d", "0",
                         "--range", "1:2.71828", "--n", "100", "--out", "curve.csv"]),
    ("readme_minimize", ["minimize", "--ref", "lz", "--alpha", "1",
                         "--endpoints", "1,0,2.71828,1", "--n", "200", "--out", "profile.csv"]),
    ("readme_catenoid", ["catenoid", "--r1", "1", "--z1", "0", "--r2", "2.71828", "--z2", "1"]),
    ("readme_surface", ["surface", "revolution", "--profile", "log:1,0", "--trange", "1:3",
                        "--mesh", "out.obj", "--grid", "32x64"]),
    ("readme_classify_helicoidal", ["classify", "helicoidal", "--c", "1", "--ref", "yz"]),
    ("readme_classify_parabolic", ["classify", "parabolic", "--a", "0", "--b", "1",
                                   "--c2", "1", "--ref", "yz"]),
    ("readme_ivp", ["ivp", "--a", "1", "--out", "profile.csv", "--json", "sidecar.json"]),
    ("readme_residual_el", ["residual", "--check", "el", "--ref", "lz", "--alpha", "2",
                            "--profile", "power:5,-1,0", "--range", "1:3"]),
    # the minimizer at large n, on both reference lines
    ("minimize_lz_n20000", ["minimize", "--ref", "lz", "--alpha", "2.5",
                            "--endpoints", "1,0,2.71828,1", "--n", "20000",
                            "--out", "profile.csv"]),
    ("minimize_lx_n2000", ["minimize", "--ref", "lx", "--alpha", "1.5",
                           "--endpoints", "0,1.5,1,1.7", "--n", "2000", "--out", "profile.csv"]),
    ("minimize_lx_n20000", ["minimize", "--ref", "lx", "--alpha", "1.5",
                            "--endpoints", "0,1.5,1,1.7", "--n", "20000", "--out", "profile.csv"]),
    # further closed forms, meshes, classifications and residuals
    ("catenary_power", ["catenary", "--alpha", "2.5", "--c", "1.5", "--d", "0.5",
                        "--range", "1:3", "--n", "60", "--out", "curve.csv"]),
    ("catenoid_mesh", ["catenoid", "--r1", "1", "--z1", "0", "--r2", "2.5", "--z2", "1.2",
                       "--mesh", "catenoid.obj", "--grid", "8x16"]),
    ("classify_helicoidal_pitch0", ["classify", "helicoidal", "--c", "0", "--ref", "yz",
                                    "--z1", "0.3", "--z2", "1.4"]),
    ("classify_parabolic_1a", ["classify", "parabolic", "--a", "0", "--b", "1.3",
                               "--c2", "0.7", "--ref", "yz", "--z1", "0.2", "--z2", "0.9"]),
    ("classify_parabolic_1b", ["classify", "parabolic", "--a", "1", "--b", "1",
                               "--c1", "0.5", "--c2=-1", "--ref", "yz", "--z1", "0.3"]),
    ("residual_sms_revolution", ["residual", "--check", "sms", "--profile", "inverse:0.4,1.5",
                                 "--range", "0.5:3"]),
    ("residual_sms_parabolic", ["residual", "--check", "sms", "--surface", "parabolic",
                                "--profile", "poly:0.3,0,0.25", "--range", "1:3",
                                "--thetarange=-0.5:0.5", "--a", "1", "--b", "1",
                                "--c1", "0.5", "--c2=-1"]),
    # b < 0 makes the top-view Jacobian negative: ParamSurface runs theta backwards
    ("surface_parabolic_swapped", ["surface", "parabolic", "--a", "0.3", "--b=-1.5", "--c", "0.4",
                                   "--c1=-0.25", "--c2", "0.6", "--thetarange=-0.8:0.8",
                                   "--profile", "log:1.5,0.25", "--trange", "0.8:2.4",
                                   "--mesh", "mesh.obj", "--grid", "6x12"]),
    # a theta range that starts off 0 and is not a full turn: a mesh without the seam
    ("surface_helicoidal_partial", ["surface", "helicoidal", "--pitch=-0.4", "--thetarange=0.3:2.9",
                                    "--profile", "power:0.75,-1.5,0.5", "--trange", "0.8:2.4",
                                    "--mesh", "mesh.obj", "--grid", "6x12"]),
    # the shifted log family c*ln(t - lam) + d
    ("catenary_shifted_log", ["catenary", "--alpha", "1", "--c", "1.3", "--d=-0.2",
                              "--lambda", "0.2", "--range", "0.5:2", "--n", "40",
                              "--out", "curve.csv"]),
] + [
    (f"surface_{kind}_{pname}", ["surface", *flags, "--profile", spec, "--trange", "0.8:2.4",
                                 "--mesh", "mesh.obj", "--grid", "6x12"])
    for kind, flags in SURFACES.items()
    for pname, spec in PROFILES.items()
] + [
    # the Euler-Lagrange residual on the inverse (critical for alpha = 2) and poly profiles
    ("residual_el_inverse", ["residual", "--check", "el", "--ref", "lz", "--alpha", "2",
                             "--profile", "inverse:0.4,1.5", "--range", "0.5:3"]),
    ("residual_el_poly_lx", ["residual", "--check", "el", "--ref", "lx", "--alpha", "1.5",
                             "--profile", "poly:0.1,-0.3,0.2,0.05", "--range", "1:3"]),
    # documented error exits: a negative exponent at a zero weight base, an overflowing
    # classification gate, and a profile with too few values (a flag error)
    ("residual_el_zero_base", ["residual", "--check", "el", "--ref", "lz", "--alpha=-1",
                               "--profile", "power:1,2,0", "--range=-1:1", "--n", "3"]),
    ("classify_parabolic_overflow", ["classify", "parabolic", "--ref", "yz", "--a", "1e300",
                                     "--b", "1", "--c2", "1e300"]),
    ("residual_profile_too_few_values", ["residual", "--check", "el", "--profile", "log:1",
                                         "--range", "1:2"]),
    # separate values that start with '-': twins of surface_parabolic_log and
    # catenary_shifted_log, whose values use the --flag=value form
    ("surface_parabolic_log_separate", ["surface", "parabolic", "--a", "0.3", "--b", "1.2",
                                        "--c", "0.4", "--c1", "-0.25", "--c2", "0.6",
                                        "--thetarange", "-0.8:0.8", "--profile", "log:1.5,0.25",
                                        "--trange", "0.8:2.4", "--mesh", "mesh.obj",
                                        "--grid", "6x12"]),
    ("catenary_shifted_log_separate", ["catenary", "--alpha", "1", "--c", "1.3", "--d", "-2e-1",
                                       "--lambda", "0.2", "--range", "0.5:2", "--n", "40",
                                       "--out", "curve.csv"]),
    # the degenerate solve away from a = 1, scaled from the a = 1 solution
    ("ivp_small", ["ivp", "--a", "1e-6", "--out", "profile.csv", "--json", "sidecar.json"]),
    ("ivp_large", ["ivp", "--a", "1000", "--out", "profile.csv", "--json", "sidecar.json"]),
    # the mesh written to stdout, its curvature sidecar to a file
    ("surface_mesh_stdout", ["surface", "helicoidal", "--pitch", "0.7", "--profile", "log:1.5,0.25",
                             "--trange", "0.8:2.4", "--mesh", "-", "--curvature-csv", "c.csv",
                             "--grid", "4x8"]),
    # error exits at huge t and pitch: a profile whose z'' overflows, a NaN curvature
    # sidecar and infinite mesh vertices; none may leave a non-finite number in a file
    ("catenary_overflow", ["catenary", "--range=1:1e300", "--n", "5"]),
    ("residual_el_overflow", ["residual", "--check=el", "--ref=lz", "--alpha=0", "--lambda=-1e300",
                              "--profile=inverse:3,-1", "--range=3:1e300", "--n=3"]),
    ("surface_nan_sidecar", ["surface", "revolution", "--profile=poly:0,1", "--trange=1:1e300",
                             "--grid", "2x3", "--mesh", "m.obj"]),
    ("surface_inf_vertices", ["surface", "helicoidal", "--pitch=1.7e308", "--profile=log:1,0",
                              "--trange=1:2", "--grid", "2x3", "--mesh", "m.obj"]),
    # the weight power t**alpha of the Euler-Lagrange residual overflows: an error exit
    ("residual_el_weight_overflow", ["residual", "--check=el", "--ref=lz", "--alpha=2",
                                     "--profile=poly:0,1", "--range=1:1e300", "--n=3"]),
    # overflows that no guard caught: the slope square of the LX Euler-Lagrange residual and
    # a log profile's c/t at a tiny t (a / gives inf); each is one error line, no numpy warning
    ("residual_el_slope_overflow", ["residual", "--check=el", "--ref=lx", "--alpha=1",
                                    "--profile=poly:0,1e200", "--range=1:2", "--n=3"]),
    ("surface_parabolic_log_overflow", ["surface", "parabolic", "--profile", "log:1e300,0.5",
                                        "--trange", "1e-13:2.5", "--mesh", "m.obj",
                                        "--grid", "3x4", "--c1", "1", "--c2", "0.5"]),
    ("catenoid_log_overflow", ["catenoid", "--r1", "1", "--z1", "-1e300", "--r2", "1e-13",
                               "--z2", "-1", "--mesh", "m.obj", "--grid", "3x4"]),
    # failures that printed numpy warnings or a traceback: t**2 underflows under the log
    # jet's -c / t**2, three minimize overflows (weight power, functional value, slope
    # square), a pitch*theta + z that overflows, a parabolic normal whose p * p overflows,
    # and a^2 + b^2 of the parabolic profile ODE that underflows
    ("catenoid_log_underflow", ["catenoid", "--r1", "1e-300", "--z1", "0", "--r2", "1e300",
                                "--z2", "1e300", "--mesh", "c.obj", "--grid", "2x3"]),
    ("minimize_weight_overflow", ["minimize", "--ref", "lz", "--alpha", "3", "--lambda", "-0.0",
                                  "--endpoints", "3,1e-13,1e300,-1", "--n", "2"]),
    ("minimize_value_overflow", ["minimize", "--ref", "lx", "--alpha", "-0.0", "--lambda", "1e300",
                                 "--endpoints", "-1e300,3,-1,0.5", "--n", "2"]),
    ("minimize_slope_overflow", ["minimize", "--ref", "lz", "--alpha", "0", "--lambda", "1e-13",
                                 "--endpoints", "0,-1e300,2.5,0.5", "--n", "2"]),
    ("surface_helicoidal_height_overflow", ["surface", "helicoidal", "--pitch=1e308",
                                            "--thetarange=0:1.5", "--profile=poly:1e308",
                                            "--trange=1:2", "--grid", "2x3", "--mesh", "m.obj"]),
    ("residual_sms_normal_overflow", ["residual", "--check", "sms", "--profile=poly:0,1e300",
                                      "--range=1:2"]),
    ("classify_helicoidal_normal_overflow", ["classify", "helicoidal", "--c", "0", "--ref", "yz",
                                             "--z1", "1e300", "--z2", "1e300"]),
    ("classify_parabolic_ode_underflow", ["classify", "parabolic", "--ref", "xy",
                                          "--b=1e-300"]),
    # far-apart radii whose quotient r2/r1 overflows or underflows a float: both
    # boundary problems still have a unique solution
    ("catenoid_radii_quotient_overflow", ["catenoid", "--r1", "1e-300", "--z1", "0",
                                          "--r2", "1e300", "--z2", "1e300"]),
    ("catenoid_radii_quotient_underflow", ["catenoid", "--r1", "1e300", "--z1", "0",
                                           "--r2", "1e-300", "--z2", "1"]),
    # b < 0: the verification surface runs theta backwards and keeps its (t, theta) grid
    ("classify_parabolic_negative_b", ["classify", "parabolic", "--a", "0", "--b=-1",
                                       "--c2", "1", "--ref", "yz"]),
    # a full turn of 2 cells around repeats its quad: exit 1, no mesh
    ("catenoid_full_turn_two_cells", ["catenoid", "--r1", "1", "--z1", "0", "--r2", "2",
                                      "--z2", "1", "--mesh", "m.obj", "--grid", "2x2"]),
    # three endpoint values are a flag error: exit 2, no file
    ("minimize_endpoints_three_values", ["minimize", "--endpoints", "1,0,2", "--out", "c.csv"]),
    # the hanging-surface residual against the non-isotropic plane z = 0 (exit 1)
    ("residual_sms_nonisotropic", ["residual", "--check", "sms", "--sref", "xy",
                                   "--profile", "inverse:0.4,1.5", "--range", "1:3"]),
    # a Picard tolerance that is not positive is an input error: exit 1, no file
    ("ivp_tol_zero", ["ivp", "--a", "1", "--tol", "0", "--out", "profile.csv"]),
    # the isotropic-axis minimizer away from unit scale: a rise of 1e8 and one of 1e-3
    ("minimize_lz_large_rise", ["minimize", "--ref", "lz", "--alpha", "2",
                                "--endpoints", "1,0,2,1e8", "--n", "400"]),
    ("minimize_lz_small_rise", ["minimize", "--ref", "lz", "--alpha", "1",
                                "--endpoints", "1,0,1.5,0.001", "--n", "20000"]),
    # t - 5 < 0 on [1, 3]: the critical profile maximizes the discrete functional
    ("minimize_lz_negative_weight", ["minimize", "--ref", "lz", "--alpha", "1", "--lambda", "5",
                                     "--endpoints", "1,0,3,1", "--n", "200"]),
    # a constant weight of 1e308: two node weights sum past the float max, their halves do not
    ("minimize_lz_weight_near_max", ["minimize", "--ref", "lz", "--alpha", "0", "--lambda=-1e308",
                                     "--endpoints", "1,0,2,1", "--n", "4"]),
    ("minimize_lx_weight_near_max", ["minimize", "--ref", "lx", "--alpha", "0", "--lambda=-1e308",
                                     "--endpoints", "0,1,1,1.5", "--n", "4"]),
    # error exits: Newton bands cell weight / h past the float max, and an LZ profile whose
    # flux cell weight * zdot (and value) overflow though the profile fits a float
    ("minimize_lx_bands_overflow", ["minimize", "--ref", "lx", "--alpha", "1", "--lambda=-1.5e308",
                                    "--endpoints", "0,1,1,1.5", "--n", "4"]),
    ("minimize_lz_flux_overflow", ["minimize", "--ref", "lz", "--alpha", "2",
                                   "--endpoints", "1,0,1e150,1e160", "--n", "4"]),
    # flag errors (exit 2) and an infinite range end in order (exit 1, names trange)
    ("catenary_range_nan_lo", ["catenary", "--range=nan:1", "--out", "c.csv"]),
    ("catenary_range_inf_hi", ["catenary", "--range=1:inf", "--out", "c.csv"]),
    ("catenary_n_below_minimum", ["catenary", "--range", "1:2", "--n", "1", "--out", "c.csv"]),
    ("surface_grid_zero", ["surface", "revolution", "--profile", "log:1,0", "--trange", "1:2",
                           "--mesh", "m.obj", "--grid", "0x4"]),
    # case 1b at 0 < |a| < 0.4, whose check spans theta = +-0.95, and at b < 0, whose check
    # runs theta backwards; both residuals are a few ulps, not 0.0, so a moved node shows
    ("classify_parabolic_1b_small_a", ["classify", "parabolic", "--a", "0.3", "--b", "1.2",
                                       "--c1", "0.6", "--c2=-4.8", "--ref", "yz", "--z1=-0.4"]),
    ("classify_parabolic_1b_negative_b", ["classify", "parabolic", "--a", "0.5", "--b=-2",
                                          "--c1", "0.75", "--c2", "6", "--ref", "yz",
                                          "--z1", "0.3"]),
    # the hanging-surface residual on a grid other than the default 50x16
    ("residual_sms_grid_7x5", ["residual", "--check", "sms", "--profile", "inverse:0.4,1.5",
                               "--range", "0.5:3", "--grid", "7x5"]),
    # an interval across the inverse-radius pole at t = 0, which no uniform check node
    # hits: exit 1 at construction, no mesh
    ("surface_parabolic_inverse_across_pole", ["surface", "parabolic", "--profile=inverse:1,1",
                                               "--trange=-1:2", "--grid", "4x4",
                                               "--mesh", "out.obj"]),
    # a radial-ODE residual near the float max: the array reduction over the check grid's
    # u-nodes gives what one scalar call per node gave
    ("classify_helicoidal_z2_1e307", ["classify", "helicoidal", "--c", "0", "--ref", "yz",
                                      "--z1", "0", "--z2", "1e307"]),
    # a hanging-surface weight z - 0 of height 1e-13 is not a vanishing denominator: the
    # residual is printed (above the threshold, so exit 1)
    ("residual_sms_xy_1e-13", ["residual", "--check", "sms", "--sref", "xy",
                               "--profile", "log:1e-13,2e-13", "--range", "1:2"]),
    # the hanging revolution z = 0.4 + 1.5/t scaled by s = 1e-6: s times its residual
    # 3.7e-9 is a rounding-level 3.7e-15, but the absolute 1e-9 threshold fails it (exit 1)
    ("residual_sms_inverse_scaled_1e-6", ["residual", "--check", "sms", "--profile",
                                          "inverse:4e-7,1.5e-12", "--range", "5e-7:3e-6"]),
]


def _sha(data: bytes) -> str:
    return hashlib.sha256(data).hexdigest()


def main(argv) -> int:
    if len(argv) != 2:
        print(__doc__, file=sys.stderr)
        return 2
    src = Path(argv[1]).resolve() / "src"
    sys.path.insert(0, str(src))
    from isokit import cli

    if not Path(cli.__file__).resolve().is_relative_to(src):
        print(f"error: imported isokit from {cli.__file__}, not {src}", file=sys.stderr)
        return 1

    home, hashes = os.getcwd(), {}
    for name, args in COMMANDS:
        with tempfile.TemporaryDirectory() as tmp:
            os.chdir(tmp)
            out, err = io.StringIO(), io.StringIO()
            try:
                with contextlib.redirect_stdout(out), contextlib.redirect_stderr(err):
                    code = cli.run(args)
            except SystemExit as exc:  # argparse flag errors
                code = exc.code
            finally:
                os.chdir(home)
            lines = [f"exit {code}", f"stdout {_sha(out.getvalue().encode())}"]
            if err.getvalue():  # the error line, and argparse's usage block on a flag error
                lines.append(f"stderr {_sha(err.getvalue().encode())}")
            lines += [f"{f.name} {_sha(f.read_bytes())}" for f in sorted(Path(tmp).iterdir())]
            hashes[name] = lines
            print(*(f"{name}/{line}" for line in lines), sep="\n")
    unlike = [name for name in hashes if name.endswith("_separate")
              and hashes[name] != hashes[name.removesuffix("_separate")]]
    for name in unlike:
        print(f"error: {name} does not hash like {name.removesuffix('_separate')}",
              file=sys.stderr)
    return 1 if unlike else 0


if __name__ == "__main__":
    sys.exit(main(sys.argv))
