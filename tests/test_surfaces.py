import hashlib
import math
import random
import warnings

import numpy as np
import pytest
from hypothesis import given
from hypothesis import strategies as st

from isokit import cli, surfaces
from isokit.core import euclid_dot
from isokit.curves import (
    CatenaryFamily,
    GraphCurve,
    PlaneCurve,
    read_curve_csv,
    relative_arclength,
    write_curve_csv,
)
from isokit.errors import DomainError, NonAdmissibleError
from isokit.singular import (
    ProfileForm,
    SingularSpec,
    classify_helicoidal,
    cmc_profile_coefficient,
    sms_residual,
)
from isokit.surfaces import (
    TWO_PI,
    HelicoidalSpec,
    ParabolicRevolutionSpec,
    ParamSurface,
    RevolutionSpec,
    SurfaceJet,
    fundamental_forms,
    jet_forms,
    jet_minors,
    make_helicoidal,
    make_parabolic_revolution,
    make_revolution,
    mean_curvature,
    mesh_grid,
    parabolic_revolution_F,
    parabolic_revolution_mean_curvature,
    relative_area,
    revolution_mean_curvature,
    surface_minimal_normal,
    surface_parabolic_normal,
    write_obj_mesh,
    write_vertex_curvature_csv,
)


def graph_surface(f, fu, fv, fuu, fuv, fvv, box=(-1.0, 1.0, -1.0, 1.0)):
    return ParamSurface.graph(*box, f, fu, fv, fuu, fuv, fvv)


PLANE = graph_surface(
    lambda u, v: 0.0, lambda u, v: 0.0, lambda u, v: 0.0,
    lambda u, v: 0.0, lambda u, v: 0.0, lambda u, v: 0.0,
)
BOWL = graph_surface(
    lambda u, v: 0.5 * (u * u + v * v), lambda u, v: u, lambda u, v: v,
    lambda u, v: 1.0, lambda u, v: 0.0, lambda u, v: 1.0,
)
WAVY_HEIGHTS = (
    lambda u, v: math.sin(u) * math.cos(v),
    lambda u, v: math.cos(u) * math.cos(v),
    lambda u, v: -math.sin(u) * math.sin(v),
    lambda u, v: -math.sin(u) * math.cos(v),
    lambda u, v: -math.cos(u) * math.sin(v),
    lambda u, v: -math.sin(u) * math.cos(v),
)
WAVY = graph_surface(*WAVY_HEIGHTS)


def log_profile(c, d=0.0):
    return ProfileForm("log", {"c": c, "d": d})


def quadratic_profile(q, z1=0.0):
    return ProfileForm("quadratic", {"quad": q, "z1": z1})


class TestFundamentalForms:
    def test_graph_normal_form(self):
        for u, v in [(0.2, -0.3), (0.9, 0.9), (-0.5, 0.1)]:
            g11, g12, g22, h11, h12, h22 = fundamental_forms(WAVY, u, v)
            assert (g11, g12, g22) == pytest.approx((1.0, 0.0, 1.0), abs=1e-10)
            assert h11 == pytest.approx(-math.sin(u) * math.cos(v), abs=1e-10)
            assert h12 == pytest.approx(-math.cos(u) * math.sin(v), abs=1e-10)
            assert h22 == pytest.approx(-math.sin(u) * math.cos(v), abs=1e-10)

    def test_plane_second_form_vanishes(self):
        forms = fundamental_forms(PLANE, 0.3, 0.4)
        assert forms[3:] == pytest.approx((0.0, 0.0, 0.0), abs=1e-14)

    def test_paraboloid_bowl(self):
        _, _, _, h11, h12, h22 = fundamental_forms(BOWL, 0.4, -0.8)
        assert (h11, h12, h22) == pytest.approx((1.0, 0.0, 1.0), abs=1e-12)


class TestMeanCurvature:
    def test_graph_half_laplacian(self):
        steep = graph_surface(
            lambda u, v: u * u + v * v, lambda u, v: 2 * u, lambda u, v: 2 * v,
            lambda u, v: 2.0, lambda u, v: 0.0, lambda u, v: 2.0,
        )
        assert mean_curvature(steep, 0.7, -0.2) == pytest.approx(2.0, abs=1e-12)

    def test_log_revolution_is_minimal(self):
        surf = make_revolution(RevolutionSpec(log_profile(1.0).plane_curve(1.0, 3.0)))
        for t in np.linspace(1.0, 3.0, 20):
            for th in np.linspace(0.0, 2 * math.pi, 20):
                assert abs(mean_curvature(surf, float(t), float(th))) < 1e-12

    def test_saddle_is_minimal(self):
        lam = 0.8
        saddle = graph_surface(
            lambda u, v: lam * (u * u - v * v), lambda u, v: 2 * lam * u,
            lambda u, v: -2 * lam * v, lambda u, v: 2 * lam,
            lambda u, v: 0.0, lambda u, v: -2 * lam,
        )
        assert mean_curvature(saddle, 0.25, 0.6) == pytest.approx(0.0, abs=1e-14)


class TestNormals:
    def test_horizontal_plane(self):
        assert surface_minimal_normal(PLANE, 0.0, 0.0) == pytest.approx((0.0, 0.0, 1.0))
        assert surface_parabolic_normal(PLANE, 0.0, 0.0) == pytest.approx((0.0, 0.0, 0.5))

    def test_graph_normals(self):
        u, v = 0.4, -0.7
        f1 = math.cos(u) * math.cos(v)
        f2 = -math.sin(u) * math.sin(v)
        nmin = surface_minimal_normal(WAVY, u, v)
        npar = surface_parabolic_normal(WAVY, u, v)
        assert nmin == pytest.approx((-f1, -f2, 1.0), abs=1e-12)
        assert npar == pytest.approx(
            (-f1, -f2, 0.5 - 0.5 * (f1 * f1 + f2 * f2)), abs=1e-12
        )

    def test_revolution_normals(self):
        curve = quadratic_profile(0.5).plane_curve(0.5, 2.0)  # z = t^2/2, z' = t
        surf = make_revolution(RevolutionSpec(curve))
        t, th = 1.2, 0.9
        zd = t
        npar = surface_parabolic_normal(surf, t, th)
        assert npar == pytest.approx(
            (-zd * math.cos(th), -zd * math.sin(th), 0.5 - 0.5 * zd * zd), abs=1e-12
        )

    def test_pairing_of_normals_on_graphs(self):
        for u, v in [(0.1, 0.9), (-0.8, -0.8), (0.5, -0.4)]:
            nmin = surface_minimal_normal(WAVY, u, v)
            npar = surface_parabolic_normal(WAVY, u, v)
            f1, f2 = -nmin.x, -nmin.y
            pairing = euclid_dot(nmin, npar)
            assert pairing == pytest.approx(0.5 * (1 + f1 * f1 + f2 * f2), abs=1e-12)
            assert pairing >= 0.5


class TestRelativeArea:
    def test_horizontal_plane_unit_square(self):
        surf = graph_surface(
            lambda u, v: 4.0, lambda u, v: 0.0, lambda u, v: 0.0,
            lambda u, v: 0.0, lambda u, v: 0.0, lambda u, v: 0.0,
            box=(0.0, 1.0, 0.0, 1.0),
        )
        assert relative_area(surf, panels_u=8, panels_v=8) == pytest.approx(0.5, abs=1e-13)

    def test_tilted_graph_unit_square(self):
        surf = graph_surface(
            lambda u, v: u, lambda u, v: 1.0, lambda u, v: 0.0,
            lambda u, v: 0.0, lambda u, v: 0.0, lambda u, v: 0.0,
            box=(0.0, 1.0, 0.0, 1.0),
        )
        assert relative_area(surf, panels_u=8, panels_v=8) == pytest.approx(1.0, abs=1e-13)

    def test_log_revolution_annulus(self):
        surf = make_revolution(RevolutionSpec(log_profile(1.0).plane_curve(1.0, math.e)))
        target = math.pi * (math.e**2 + 1) / 2
        assert relative_area(surf) == pytest.approx(target, rel=1e-8)

    def test_subrectangle(self):
        surf = make_revolution(RevolutionSpec(log_profile(1.0).plane_curve(1.0, math.e)))
        half = relative_area(surf, (1.0, math.e, 0.0, math.pi))
        assert half == pytest.approx(math.pi * (math.e**2 + 1) / 4, rel=1e-8)

    def test_overflowing_jet_is_a_domain_error(self):
        # pitch*theta + z overflows a float, so the jet and the area are not finite
        curve = ProfileForm("poly", {"a": (1e308,)}).plane_curve(1.0, 2.0)
        surf = make_helicoidal(HelicoidalSpec(curve, 1e308), 0.0, 1.5)
        with warnings.catch_warnings():
            warnings.simplefilter("error")
            with pytest.raises(DomainError, match="^relative area is not finite: inf$"):
                relative_area(surf, panels_u=2, panels_v=2)


class TestGenerators:
    def test_constant_profile_gives_plane_annulus(self):
        surf = make_revolution(
            RevolutionSpec(quadratic_profile(0.0, 2.0).plane_curve(1.0, 2.0))
        )
        jet = surf.at(1.5, 0.7)
        assert jet.r[2] == pytest.approx(2.0)
        assert mean_curvature(surf, 1.5, 0.7) == pytest.approx(0.0, abs=1e-14)

    def test_right_helicoid_is_minimal(self):
        curve = quadratic_profile(0.0).plane_curve(0.5, 2.5)
        surf = make_helicoidal(HelicoidalSpec(curve, pitch=1.0))
        for t in np.linspace(0.5, 2.5, 10):
            for th in np.linspace(0.0, 2 * math.pi, 10):
                assert abs(mean_curvature(surf, float(t), float(th))) < 1e-13
        # closed-form radial formula agrees: flat profile, zero numerator
        assert revolution_mean_curvature(curve, 1.0) == 0.0

    def test_pitch_times_theta_must_be_finite(self):
        spec = HelicoidalSpec(quadratic_profile(0.0).plane_curve(0.5, 2.5), pitch=1.7e308)
        with pytest.raises(DomainError, match=r"^pitch 1.7e\+308 times theta is not finite on"):
            make_helicoidal(spec)
        assert make_helicoidal(spec, -1.0, 1.0).at(1.0, 1.0).r[2] == 1.7e308

    def test_parabolic_identity_reduces_to_translation(self):
        prof = quadratic_profile(0.3, 0.1)
        spec = ParabolicRevolutionSpec(0.0, 1.0, 0.0, 0.0, 0.0, prof.plane_curve(0.5, 2.0))
        surf = make_parabolic_revolution(spec)
        t, th = 1.1, -0.4
        z = prof(t)[0]
        np.testing.assert_allclose(surf.at(t, th).r, [t, th, z], atol=1e-14)

    def test_b_zero_rejected(self):
        with pytest.raises(ValueError):
            ParabolicRevolutionSpec(
                0.0, 0.0, 0.0, 0.0, 1.0, quadratic_profile(0.0).plane_curve(0.5, 1.5)
            )

    def test_warped_translation_flag(self):
        curve = quadratic_profile(0.0).plane_curve(0.5, 1.5)
        assert ParabolicRevolutionSpec(1.0, 2.0, 0.0, 2.0, -1.0, curve).is_warped_translation
        assert not ParabolicRevolutionSpec(1.0, 2.0, 0.0, 2.0, 1.0, curve).is_warped_translation

    def test_profile_must_be_positive_radius(self):
        with pytest.raises(ValueError):
            RevolutionSpec(quadratic_profile(0.0).plane_curve(-0.5, 1.0))


class TestClosedFormCurvature:
    def test_revolution_examples(self):
        assert revolution_mean_curvature(log_profile(2.5).plane_curve(0.5, 3.0), 1.7) == pytest.approx(0.0, abs=1e-14)
        sq = ProfileForm("power", {"c": 1.0, "p": 2.0, "d": 0.0})
        assert revolution_mean_curvature(sq.plane_curve(0.5, 3.0), 1.3) == pytest.approx(2.0)
        assert revolution_mean_curvature(quadratic_profile(0.0, 4.0).plane_curve(0.5, 3.0), 2.0) == 0.0
        with pytest.raises(DomainError):
            revolution_mean_curvature(sq.plane_curve(0.5, 3.0), -1.0)

    def test_cross_validation_on_revolution(self):
        prof = ProfileForm("power", {"c": 1.0, "p": 2.0, "d": 0.3})
        curve = prof.plane_curve(0.5, 2.5)
        surf = make_revolution(RevolutionSpec(curve))
        for t in np.linspace(0.6, 2.4, 20):
            closed = revolution_mean_curvature(curve, float(t))
            for th in np.linspace(0.0, 2 * math.pi, 20):
                got = mean_curvature(surf, float(t), float(th))
                assert abs(got - closed) <= 1e-8 * abs(closed)

    def test_cross_validation_on_parabolic_revolution(self):
        prof = ProfileForm("log_parabola", {"quad": 0.4, "z1": 0.2, "z2": -0.7})
        spec = ParabolicRevolutionSpec(0.6, 1.3, 0.2, -0.4, 0.9, prof.plane_curve(0.5, 2.5))
        surf = make_parabolic_revolution(spec)
        for t in np.linspace(0.6, 2.4, 20):
            closed = parabolic_revolution_mean_curvature(spec, float(t))
            for th in np.linspace(-0.9, 0.9, 20):
                got = mean_curvature(surf, float(t), float(th))
                assert abs(got - closed) <= 1e-8 * max(1e-3, abs(closed))

    def test_parabolic_quadratic_profile_curvature(self):
        sq = ProfileForm("power", {"c": 1.0, "p": 2.0, "d": 0.0})
        spec = ParabolicRevolutionSpec(0.0, 1.0, 0.0, 0.0, 0.0, sq.plane_curve(0.5, 2.0))
        assert parabolic_revolution_mean_curvature(spec, 1.4) == pytest.approx(1.0)

    def test_cmc_profile_has_constant_curvature(self):
        a, b, c, c1, c2, h0 = 0.7, 1.1, 0.3, -0.5, 0.8, 0.65
        z2 = cmc_profile_coefficient(a, b, c1, c2, h0)
        prof = ProfileForm("quadratic", {"quad": z2, "z1": 0.4})
        spec = ParabolicRevolutionSpec(a, b, c, c1, c2, prof.plane_curve(0.5, 2.0))
        surf = make_parabolic_revolution(spec)
        for t in (0.6, 1.0, 1.9):
            assert parabolic_revolution_mean_curvature(spec, t) == pytest.approx(h0, abs=1e-12)
            assert mean_curvature(surf, t, 0.3) == pytest.approx(h0, abs=1e-12)

    def test_slope_aggregate_trivial_case(self):
        flat = quadratic_profile(0.0, 1.0)
        spec = ParabolicRevolutionSpec(0.0, 1.0, 0.0, 0.0, 0.0, flat.plane_curve(0.5, 2.0))
        assert parabolic_revolution_F(spec, 1.0) == 0.0
        surf = make_parabolic_revolution(spec)
        assert surface_parabolic_normal(surf, 1.0, 0.2) == pytest.approx((0.0, 0.0, 0.5))

    def test_slope_aggregate_matches_normal_when_group_trivial(self):
        prof = log_profile(0.8, 0.3)
        spec = ParabolicRevolutionSpec(0.5, 1.2, 0.0, 0.0, 0.0, prof.plane_curve(0.5, 2.0))
        surf = make_parabolic_revolution(spec)
        for t in (0.6, 1.1, 1.8):
            npar = surface_parabolic_normal(surf, t, 0.7)
            assert parabolic_revolution_F(spec, t) == pytest.approx(
                npar.x**2 + npar.y**2, rel=1e-12
            )

    def test_slope_aggregate_hand_expansion(self):
        prof = quadratic_profile(0.25, 0.0)  # z' = t/2
        spec = ParabolicRevolutionSpec(2.0, 3.0, 0.5, -1.0, 0.75, prof.plane_curve(0.5, 2.0))
        t = 1.6
        zd = 0.5 * t
        lin = 0.5 - 1.0 * t
        hand = (
            lin**2 / 9.0
            - 2 * 2.0 * lin * zd / 9.0
            + 13.0 * zd**2 / 9.0
            - (2 * t / 3.0) * ((2.0 * 0.75 - 3.0 * (-1.0)) * zd - 0.75 * lin)
            + t**2 * (1.0 + 0.5625)
        )
        assert parabolic_revolution_F(spec, t) == pytest.approx(hand, rel=1e-13)


class TestInvariantsAndOrientation:
    @pytest.mark.parametrize("surf", [WAVY, BOWL])
    def test_parabolic_normal_equiaffine(self, surf):
        h = 1e-5
        for u, v in [(0.2, 0.3), (-0.4, 0.6), (0.7, -0.7)]:
            jet = surf.at(u, v)
            scale = max(1.0, abs(float(np.linalg.det(np.stack([jet.ru, jet.rv, np.array(surface_parabolic_normal(surf, u, v))])))))
            for du, dv in ((h, 0.0), (0.0, h)):
                np_p = np.array(surface_parabolic_normal(surf, u + du, v + dv))
                np_m = np.array(surface_parabolic_normal(surf, u - du, v - dv))
                dn = (np_p - np_m) / (2 * h)
                mixed = float(np.linalg.det(np.stack([jet.ru, jet.rv, dn])))
                assert abs(mixed) <= 1e-6 * scale

    def test_transversality_formula(self):
        for surf, u, v in [(WAVY, 0.3, -0.2), (BOWL, 0.8, 0.8)]:
            jet = surf.at(u, v)
            npar = np.array(surface_parabolic_normal(surf, u, v))
            det = float(np.linalg.det(np.stack([jet.ru, jet.rv, npar])))
            x23 = jet.ru[1] * jet.rv[2] - jet.ru[2] * jet.rv[1]
            x31 = jet.ru[2] * jet.rv[0] - jet.ru[0] * jet.rv[2]
            x12 = jet.ru[0] * jet.rv[1] - jet.ru[1] * jet.rv[0]
            assert det == pytest.approx((x23**2 + x31**2 + x12**2) / (2 * x12), rel=1e-12)
            assert det > 0.0

    def test_reversed_orientation_normalized_on_load(self):
        # parameters exchanged relative to a graph: X12 = -1 before normalization
        surf = ParamSurface(
            0.0, 1.0, 0.0, 2.0,
            lambda us, vs: (
                (vs, us, vs * vs),
                (0.0, 1.0, 0.0),
                (1.0, 0.0, 2 * vs),
                (0.0, 0.0, 0.0),
                (0.0, 0.0, 0.0),
                (0.0, 0.0, 2.0),
            ),
        )
        # the bounds stay; v runs backwards, v -> 2 - v, and r_v changes sign
        assert (surf.u_lo, surf.u_hi, surf.v_lo, surf.v_hi) == (0.0, 1.0, 0.0, 2.0)
        jet = surf.at(0.5, 1.5)
        assert tuple(jet.r) == (0.5, 0.5, 0.25)
        assert tuple(jet.ru) == (0.0, 1.0, 0.0)
        assert tuple(jet.rv) == (-1.0, 0.0, -1.0)
        assert tuple(jet.rvv) == (0.0, 0.0, 2.0)
        x12 = jet.ru[0] * jet.rv[1] - jet.ru[1] * jet.rv[0]
        assert x12 > 0

    @pytest.mark.parametrize("box", [(1.0, 1.0, 0.0, 1.0), (0.0, 1.0, 1.0, 0.5)])
    def test_empty_parameter_rectangle_rejected(self, box):
        with pytest.raises(ValueError, match="^empty parameter rectangle$"):
            ParamSurface(*box, lambda us, vs: pytest.fail("evaluated an empty rectangle"))

    def test_top_view_jacobian_sign_change_rejected(self):
        # r = (u, u*v, 0) has X12 = u, which changes sign inside [-1, 2]; no check node hits 0
        with pytest.raises(NonAdmissibleError, match="^top-view Jacobian changes sign on the domain$"):
            ParamSurface(
                -1.0, 2.0, 0.0, 1.0,
                lambda us, vs: (
                    (us, us * vs, 0.0),
                    (1.0, vs, 0.0),
                    (0.0, us, 0.0),
                    (0.0, 0.0, 0.0),
                    (0.0, 1.0, 0.0),
                    (0.0, 0.0, 0.0),
                ),
            )

    def test_zero_top_view_jacobian_is_named(self):
        # r = (u, u*v, 0) has X12 = u, which vanishes at the first check node
        with pytest.raises(
            NonAdmissibleError, match="^top-view Jacobian=0.0 below admissibility threshold$"
        ):
            ParamSurface(
                0.0, 1.0, 0.0, 1.0,
                lambda us, vs: (
                    (us, us * vs, 0.0),
                    (1.0, vs, 0.0),
                    (0.0, us, 0.0),
                    (0.0, 0.0, 0.0),
                    (0.0, 1.0, 0.0),
                    (0.0, 0.0, 0.0),
                ),
            )

    @pytest.mark.filterwarnings("error")
    def test_nan_top_view_jacobian_rejected(self):
        # r_u = (nan, 0, 0) makes X12 NaN at every node; it used to construct, and
        # mean_curvature gave nan after numpy's "invalid value encountered in det"
        with pytest.raises(
            NonAdmissibleError, match="^top-view Jacobian=nan below admissibility threshold$"
        ):
            ParamSurface(
                0.0, 1.0, 0.0, 1.0,
                lambda us, vs: (
                    (us, vs, 0.0),
                    (math.nan, 0.0, 0.0),
                    (0.0, 1.0, 0.0),
                    (0.0, 0.0, 0.0),
                    (0.0, 0.0, 0.0),
                    (0.0, 0.0, 0.0),
                ),
            )

    def test_isotropic_tangent_plane_rejected(self):
        with pytest.raises(NonAdmissibleError):
            ParamSurface(
                -1.0, 1.0, 0.0, 1.0,
                lambda us, vs: (
                    (us * us, vs, 0.0),
                    (2 * us, 0.0, 0.0),
                    (0.0, 1.0, 0.0),
                    (2.0, 0.0, 0.0),
                    (0.0, 0.0, 0.0),
                    (0.0, 0.0, 0.0),
                ),
            )


class TestMeshExport:
    def test_open_grid_counts(self, tmp_path):
        surf = make_parabolic_revolution(
            ParabolicRevolutionSpec(
                0.0, 1.0, 0.0, 0.0, 0.0, quadratic_profile(0.2).plane_curve(0.5, 1.5)
            )
        )
        path = tmp_path / "patch.obj"
        write_obj_mesh(path, mesh_grid(surf, 4, 6))
        lines = path.read_text().splitlines()
        assert sum(1 for ln in lines if ln.startswith("v ")) == 5 * 7
        assert sum(1 for ln in lines if ln.startswith("f ")) == 4 * 6

    def test_wrapped_revolution_seam(self, tmp_path):
        surf = make_revolution(RevolutionSpec(log_profile(1.0).plane_curve(1.0, 2.0)))
        params, jet, faces = mesh_grid(surf, 3, 8)
        verts = jet.r.reshape(-1, 3)
        assert len(verts) == 4 * 8  # seam column not duplicated
        assert len(faces) == 3 * 8
        assert all(1 <= idx <= len(verts) for f in faces for idx in f)
        path = tmp_path / "ring.obj"
        write_obj_mesh(path, mesh_grid(surf, 3, 8))
        sidecar = tmp_path / "ring.csv"
        write_vertex_curvature_csv(sidecar, mesh_grid(surf, 3, 8))
        rows = sidecar.read_text().splitlines()
        assert rows[0] == "u,v,H"
        assert len(rows) == 1 + len(verts)
        # logarithmoid vertices all carry zero mean curvature
        assert all(abs(float(r.split(",")[2])) < 1e-12 for r in rows[1:])

    def test_obj_writer_refuses_non_finite_vertices(self, tmp_path):
        surf = make_revolution(RevolutionSpec(log_profile(1.0).plane_curve(1.0, 2.0)))
        mesh = mesh_grid(surf, 2, 4)
        r = mesh.jet.r.copy()
        r[1, 2, 0] = math.nan
        with pytest.raises(ValueError, match="^mesh vertex holds the non-finite value nan$"):
            write_obj_mesh(tmp_path / "m.obj", mesh._replace(jet=mesh.jet._replace(r=r)))
        assert list(tmp_path.iterdir()) == []


class TestGridPath:
    def test_grid_matches_evaluator(self):
        us, vs = np.linspace(-1.0, 1.0, 5), np.linspace(-0.5, 0.75, 4)
        jet = WAVY.grid(us, vs)
        assert jet.r.shape == (5, 4, 3)
        for i, u in enumerate(us):
            for j, v in enumerate(vs):
                z, zu, zv, zuu, zuv, zvv = (h(u, v) for h in WAVY_HEIGHTS)
                raw = np.array(
                    [(u, v, z), (1.0, 0.0, zu), (0.0, 1.0, zv),
                     (0.0, 0.0, zuu), (0.0, 0.0, zuv), (0.0, 0.0, zvv)],
                    dtype=float,
                )
                assert np.array_equal(np.stack([f[i, j] for f in jet]), raw)

    def test_nan_and_outside_rectangle_raise_domain_error(self):
        with pytest.raises(DomainError):
            WAVY.at(math.nan, 0.0)
        surf = make_revolution(RevolutionSpec(log_profile(1.0).plane_curve(1.0, math.e)))
        with pytest.raises(DomainError, match=rf"^parameter 0.5 outside \[1.0, {math.e}\]$"):
            relative_area(surf, (0.5, math.e, 0.0, math.pi), panels_u=4, panels_v=4)

    def test_curvature_sidecar_rows_follow_mesh_vertices(self, tmp_path):
        revolution = make_revolution(
            RevolutionSpec(ProfileForm("power", {"c": 0.8, "p": 2.5, "d": 0.1}).plane_curve(0.7, 2.0))
        )
        parabolic = make_parabolic_revolution(
            ParabolicRevolutionSpec(
                0.4, 1.3, 0.2, -0.3, 0.6,
                ProfileForm("log_parabola", {"quad": 0.3, "z1": 0.1, "z2": -0.5}).plane_curve(0.8, 2.2),
            )
        )
        for surf, wrapped in ((revolution, True), (parabolic, False)):
            params, jet, _ = mesh_grid(surf, 3, 6)
            verts = jet.r.reshape(-1, 3)
            assert len(verts) == 4 * (6 if wrapped else 7)
            path = tmp_path / "h.csv"
            write_vertex_curvature_csv(path, mesh_grid(surf, 3, 6))
            rows = path.read_text().splitlines()[1:]
            expected = [
                f"{u:.17g},{v:.17g},{mean_curvature(surf, u, v):.17g}" for u, v in params
            ]
            assert rows == expected

    def test_surface_command_grids_its_mesh_once(self, tmp_path, monkeypatch):
        calls = []
        mesh = surfaces.mesh_grid
        monkeypatch.setattr(surfaces, "mesh_grid", lambda *a: calls.append(a[1:]) or mesh(*a))
        obj, csv = tmp_path / "m.obj", tmp_path / "m.csv"
        assert cli.run(["surface", "helicoidal", "--pitch=0.7", "--profile=log:1.5,0.25",
                        "--trange=0.8:2.4", "--grid=3x5", f"--mesh={obj}",
                        f"--curvature-csv={csv}"]) == 0
        assert calls == [(3, 5)]
        curve = ProfileForm("log", {"c": 1.5, "d": 0.25}).plane_curve(0.8, 2.4)
        surf = make_helicoidal(HelicoidalSpec(curve, 0.7))
        write_obj_mesh(tmp_path / "w.obj", mesh_grid(surf, 3, 5))
        write_vertex_curvature_csv(tmp_path / "w.csv", mesh_grid(surf, 3, 5))
        assert (tmp_path / "w.obj").read_bytes() == obj.read_bytes()
        assert (tmp_path / "w.csv").read_bytes() == csv.read_bytes()

    def test_revolution_mesh_is_helicoidal_at_pitch_zero(self, tmp_path):
        curve = ProfileForm("inverse_radius", {"z1": 0.3, "z2": 1.1}).plane_curve(0.6, 2.4)
        rev, hel = tmp_path / "rev.obj", tmp_path / "hel.obj"
        write_obj_mesh(rev, mesh_grid(make_revolution(RevolutionSpec(curve), 0.0, 2.0), 4, 8))
        write_obj_mesh(hel, mesh_grid(make_helicoidal(HelicoidalSpec(curve, 0.0), 0.0, 2.0), 4, 8))
        assert rev.read_bytes() == hel.read_bytes()


SPEC_MAKERS = (
    RevolutionSpec,
    lambda curve: HelicoidalSpec(curve, 0.6),
    lambda curve: ParabolicRevolutionSpec(0.3, 1.2, 0.4, -0.25, 0.6, curve),
)


class TestGraphProfiles:
    def test_specs_need_a_graph_curve_not_just_x_equal_t(self, tmp_path):
        x_is_t = PlaneCurve.from_functions(
            0.5, 2.0,
            x=lambda t: t, z=math.log, xd=lambda t: 1.0, zd=lambda t: 1 / t,
            xdd=lambda t: 0.0, zdd=lambda t: -1 / t**2,
        )
        for make in SPEC_MAKERS:
            with pytest.raises(ValueError, match="must be a graph curve"):
                make(x_is_t)
        write_curve_csv(tmp_path / "c.csv", *log_profile(1.0).plane_curve(0.5, 2.0).sample(41))
        for make in SPEC_MAKERS:
            assert make(read_curve_csv(tmp_path / "c.csv")).profile.t_lo == 0.5

    def test_sweeps_never_call_plane_curve_at(self, monkeypatch, tmp_path):
        def refuse(self, t):
            raise AssertionError("PlaneCurve.at called")

        write_curve_csv(tmp_path / "c.csv", *log_profile(1.0).plane_curve(0.5, 2.0).sample(41))
        curves = [
            log_profile(1.3, 0.2).plane_curve(0.5, 2.0),
            CatenaryFamily(alpha=2.5, c=0.7, d=0.1).plane_curve(0.5, 2.0),
            PlaneCurve.graph(0.5, 2.0, math.log, lambda t: 1 / t, lambda t: -1 / t**2),
            read_curve_csv(tmp_path / "c.csv"),
        ]
        monkeypatch.setattr(PlaneCurve, "at", refuse)
        for curve in curves:
            rev, hel, par = (make(curve) for make in SPEC_MAKERS)
            for surf in (make_revolution(rev), make_helicoidal(hel),
                         make_parabolic_revolution(par, -0.8, 0.8)):
                mesh_grid(surf, 3, 5)
                write_vertex_curvature_csv(tmp_path / "h.csv", mesh_grid(surf, 3, 5))
                assert math.isfinite(relative_area(surf, panels_u=6, panels_v=6))

    def test_a_plain_profile_gets_python_floats_on_curves_and_sweeps(self):
        seen, power = set(), [3]

        def profile(t):  # no float(t) of its own, unlike ProfileForm
            seen.add(type(t))
            p = power[0]
            return t**p, p * t ** (p - 1), p * (p - 1) * t ** (p - 2)

        def height(u, v):
            seen.update((type(u), type(v)))
            return 0.0

        curve = GraphCurve(1.0, 2.0, profile)
        curve.grid(np.linspace(1.0, 2.0, 5))
        curve.at(1.5)
        relative_arclength(curve, 1.0, 2.0, 4)
        rev, hel, par = (make(curve) for make in SPEC_MAKERS)
        sweeps = [make_revolution(rev), make_helicoidal(hel), make_parabolic_revolution(par)]
        for surf in sweeps:
            relative_area(surf, panels_u=2, panels_v=2)
        graph_surface(*[height] * 6).at(0.5, 0.5)
        assert seen == {float}
        power[0] = 1100  # 2.0**1100 leaves the double range: float ** raises where numpy's warns
        calls = [lambda: GraphCurve(1.0, 2.0, profile), lambda: curve.at(2.0),
                 *(lambda surf=surf: surf.at(2.0, 0.5) for surf in sweeps)]
        for call in calls:
            with pytest.raises(OverflowError):
                call()

    def test_negative_b_sweeps_with_reversed_theta(self):
        curve = log_profile(1.5, 0.25).plane_curve(0.8, 2.4)
        surf = make_parabolic_revolution(
            ParabolicRevolutionSpec(0.3, -1.5, 0.4, -0.25, 0.6, curve), -0.8, 0.8
        )
        assert (surf.u_lo, surf.u_hi, surf.v_lo, surf.v_hi) == (0.8, 2.4, -0.8, 0.8)
        jet = surf.at(1.3, 0.5)  # still (t, theta); evaluated at theta = -0.8 + 0.8 - 0.5
        z, zd, zdd = curve(1.3)
        k, th = 0.3 * -0.25 + -1.5 * 0.6, -0.5
        height = 0.4 * th + 0.5 * k * th**2 + -0.25 * 1.3 * th + z
        assert tuple(jet.r) == (0.3 * th + 1.3, -1.5 * th, height)
        assert tuple(jet.ru) == (1.0, 0.0, -0.25 * th + zd)
        assert tuple(jet.rv) == (-0.3, 1.5, -(0.4 + k * th + -0.25 * 1.3))
        assert (jet.ruu[2], jet.ruv[2], jet.rvv[2]) == (zdd, 0.25, k)
        assert jet.ru[0] * jet.rv[1] - jet.ru[1] * jet.rv[0] > 0.0


# The per-node evaluators that preceded the array evaluators, kept as references:
# each grid must reproduce them bit for bit (math.cos/sin, scalar th**2).
def _helicoidal_node(spec, t, th):
    z, zd, zdd = spec.profile.profile(t)
    c, ct, st = spec.pitch, math.cos(th), math.sin(th)
    return (
        (t * ct, t * st, c * th + z),
        (ct, st, zd),
        (-t * st, t * ct, c),
        (0.0, 0.0, zdd),
        (-st, ct, 0.0),
        (-t * ct, -t * st, 0.0),
    )


def _parabolic_node(spec, t, th):
    z, zd, zdd = spec.profile.profile(t)
    a, b, c, c1 = spec.a, spec.b, spec.c, spec.c1
    k = spec.a * spec.c1 + spec.b * spec.c2
    return (
        (a * th + t, b * th, c * th + 0.5 * k * th**2 + c1 * t * th + z),
        (1.0, 0.0, c1 * th + zd),
        (a, b, c + k * th + c1 * t),
        (0.0, 0.0, zdd),
        (0.0, 0.0, c1),
        (0.0, 0.0, k),
    )


class TestRowEvaluator:
    CURVE = ProfileForm("power", {"c": 0.8, "p": 2.5, "d": 0.1}).plane_curve(0.7, 2.3)

    def _assert_grid_matches_nodes(self, surf, node, spec, us, vs, reversed_v=False):
        jet = surf.grid(us, vs)
        assert jet.r.shape == (len(us), len(vs), 3)
        for i, u in enumerate(np.asarray(us, dtype=float)):
            for j, v in enumerate(np.asarray(vs, dtype=float)):
                if reversed_v:  # theta -> v_lo + v_hi - theta: r_v and r_uv change sign
                    expected = np.array(node(spec, u, surf.v_lo + surf.v_hi - v), dtype=float)
                    expected[[2, 4]] *= -1.0
                else:
                    expected = np.array(node(spec, u, v), dtype=float)
                assert np.array_equal(np.stack([f[i, j] for f in jet]), expected)

    @pytest.mark.parametrize("pitch", [0.0, -0.4, 0.7])
    @pytest.mark.parametrize("thetas", [(0.0, TWO_PI), (0.3, 2.9)], ids=["full", "partial"])
    def test_helicoidal_rows_match_per_node_evaluator(self, pitch, thetas):
        spec = HelicoidalSpec(self.CURVE, pitch)
        surf = make_helicoidal(spec, *thetas)
        us, vs = np.linspace(0.7, 2.3, 7), np.linspace(*thetas, 13)
        self._assert_grid_matches_nodes(surf, _helicoidal_node, spec, us, vs)
        self._assert_grid_matches_nodes(surf, _helicoidal_node, spec, [1.1], [thetas[0]])

    @pytest.mark.parametrize("b", [1.3, -1.5], ids=["direct", "reversed"])
    def test_parabolic_rows_match_per_node_evaluator(self, b):
        # A flat profile and 42 thetas: at three nodes an array th**2 (x*x), unlike
        # the scalar th**2 (pow), changes the last bit of r.
        flat = ProfileForm("quadratic", {"quad": 0.01, "z1": 0.0}).plane_curve(0.7, 2.3)
        spec = ParabolicRevolutionSpec(0.4, b, 0.2, -0.3, 0.6, flat)
        surf = make_parabolic_revolution(spec, -0.9, 0.8)
        ts, ths = np.linspace(0.7, 2.3, 7), np.linspace(-0.9, 0.8, 42)
        assert (surf.u_lo, surf.u_hi, surf.v_lo, surf.v_hi) == (0.7, 2.3, -0.9, 0.8)
        self._assert_grid_matches_nodes(surf, _parabolic_node, spec, ts, ths, reversed_v=b < 0)

    def test_profile_called_once_per_u_row(self):
        form, calls = ProfileForm("log", {"c": 1.3, "d": 0.2}), []

        def profile(t):
            calls.append(t)
            return form(t)

        hel = make_helicoidal(HelicoidalSpec(GraphCurve(0.5, 2.0, profile), 0.5))
        par = make_parabolic_revolution(
            ParabolicRevolutionSpec(0.3, -1.2, 0.1, 0.2, 0.4, GraphCurve(0.5, 2.0, profile))
        )
        ts, ths = np.linspace(0.5, 2.0, 5), np.linspace(0.0, 1.0, 9)
        calls.clear()
        hel.grid(ts, ths)
        assert len(calls) == 5
        calls.clear()
        par.grid(ts, ths)  # theta reversed (b < 0); still one call per t-row
        assert len(calls) == 5
        calls.clear()
        relative_area(hel, panels_u=8, panels_v=16)
        assert len(calls) == 9
        assert all(type(t) is float for t in calls)

    @pytest.mark.parametrize("mirrored", [False, True])
    def test_grid_calls_the_evaluator_once_per_grid(self, mirrored):
        calls = []

        def evaluate(us, vs):  # (u, v, u v), or (u, -v, -u v) with X12 = -1
            calls.append((us.shape, vs.shape))
            r, ru, rv = (us, vs, us * vs), (1.0, 0.0, vs), (0.0, 1.0, us)
            if mirrored:
                r, ru, rv = (us, -vs, -us * vs), (1.0, 0.0, -vs), (0.0, -1.0, -us)
            return r, ru, rv, (0.0, 0.0, 0.0), (0.0, 0.0, 1.0), (0.0, 0.0, 0.0)

        surf = ParamSurface(0.0, 1.0, -1.0, 1.0, evaluate)
        assert calls == [((9, 1), (9,))]  # the orientation check is one grid too
        assert (surf.u_lo, surf.u_hi, surf.v_lo, surf.v_hi) == (0.0, 1.0, -1.0, 1.0)
        calls.clear()
        us, vs = np.linspace(0.0, 1.0, 7), np.linspace(-1.0, 1.0, 5)
        jet = surf.grid(us, vs)  # a mirrored surface runs v backwards: the same (u, v, u v)
        assert calls == [((7, 1), (5,))]
        assert jet.r.shape == (us.size, vs.size, 3)
        assert np.array_equal(jet.r[..., 0], np.broadcast_to(us[:, None], jet.r.shape[:2]))
        assert np.array_equal(jet.r[..., 1], np.broadcast_to(vs, jet.r.shape[:2]))
        assert np.array_equal(jet.ru[..., 2], np.broadcast_to(vs, jet.r.shape[:2]))


def _cubic_heights(a, b, c, d, e):
    """f = a u^3 + b u^2 v + c u v^2 + d v^3 + e u v and its partials."""
    return (
        lambda u, v: a * u**3 + b * u * u * v + c * u * v * v + d * v**3 + e * u * v,
        lambda u, v: 3 * a * u * u + 2 * b * u * v + c * v * v + e * v,
        lambda u, v: b * u * u + 2 * c * u * v + 3 * d * v * v + e * u,
        lambda u, v: 6 * a * u + 2 * b * v,
        lambda u, v: 2 * b * u + 2 * c * v + e,
        lambda u, v: 2 * c * u + 6 * d * v,
    )


coefficient = st.floats(min_value=-2.0, max_value=2.0, allow_nan=False)
interval = st.tuples(
    st.floats(min_value=-2.0, max_value=1.0), st.floats(min_value=0.1, max_value=2.0)
).map(lambda lo_width: (lo_width[0], lo_width[0] + lo_width[1]))


@given(st.tuples(*[coefficient] * 5), interval, interval)
def test_mirrored_graph_reverses_back_to_the_same_jets(coefficients, u_box, v_box):
    heights = _cubic_heights(*coefficients)
    direct = ParamSurface.graph(*u_box, *v_box, *heights)

    def mirrored(us, ws):  # (u, -w, f(u, -w)): the graph mirrored in v
        z, zu, zv, zuu, zuv, zvv = (
            np.array([[h(u, -w) for w in ws] for u in us[:, 0]]) for h in heights
        )
        return ((us, -ws, z), (1.0, 0.0, zu), (0.0, -1.0, -zv),
                (0.0, 0.0, zuu), (0.0, 0.0, -zuv), (0.0, 0.0, zvv))

    w_box = (-v_box[1], -v_box[0])
    mirror = ParamSurface(*u_box, *w_box, mirrored)  # X12 = -1: w runs backwards on load
    assert (mirror.u_lo, mirror.u_hi, mirror.v_lo, mirror.v_hi) == (*u_box, *w_box)
    us, ws = np.linspace(*u_box, 5), np.linspace(*w_box, 4)
    vs = -(mirror.v_lo + mirror.v_hi - ws)  # the direct node that the reversed w reaches
    for got, want in zip(mirror.grid(us, ws), direct.grid(us, vs), strict=True):
        assert np.array_equal(got, want)
    area = relative_area(direct, panels_u=16, panels_v=16)
    assert relative_area(mirror, panels_u=16, panels_v=16) == pytest.approx(area, rel=1e-12)


_LOG = ProfileForm("log", {"c": 1.5, "d": 0.25}).plane_curve(0.8, 2.4)
_POWER = ProfileForm("power", {"c": 0.75, "p": -1.5, "d": 0.5}).plane_curve(0.8, 2.4)
# float.hex of relative_area at 16^2 and the default 128^2 panels, taken when grids were
# still filled one u-row at a time: any change to the per-node arithmetic or to the
# Simpson summation order moves these bits.
AREA_PINS = {
    "revolution_log": (
        lambda: make_revolution(RevolutionSpec(_LOG)),
        "0x1.f9dc7c25fe4c8p+3", "0x1.f9dc093b9a7dep+3",
    ),
    "helicoidal_power": (
        lambda: make_helicoidal(HelicoidalSpec(_POWER, 0.7)),
        "0x1.8747fdef3ba34p+3", "0x1.873e7e24a69dfp+3",
    ),
    "parabolic_swapped": (
        lambda: make_parabolic_revolution(
            ParabolicRevolutionSpec(0.3, -1.5, 0.4, -0.25, 0.6, _LOG), -0.8, 0.8
        ),
        "0x1.1b3d23b6f34a5p+2", "0x1.1b3b6561f7352p+2",
    ),
    # the entries below also pass their relative_area arguments to both calls
    "revolution_partial_turn": (
        lambda: make_revolution(RevolutionSpec(_LOG), 0.4, 3.9),
        "0x1.19c93f8343f3bp+3", "0x1.19c8ff7ffa54cp+3",
    ),
    "helicoidal_subrectangle": (
        lambda: make_helicoidal(HelicoidalSpec(_POWER, -0.4)),
        "0x1.8afbbdeb7526bp+0", "0x1.8afb91ca8b018p+0", {"subrectangle": (1.1, 1.9, 0.5, 2.5)},
    ),
    "helicoidal_odd_panels": (  # 9 v-panels are bumped to 10
        lambda: make_helicoidal(HelicoidalSpec(_LOG, 0.7), 0.3, 2.9),
        "0x1.cf7134edf2758p+2", "0x1.cf70c11cec01fp+2", {"panels_v": 9},
    ),
}


@pytest.mark.parametrize("name", AREA_PINS)
def test_relative_area_bits_are_pinned(name):
    make, coarse, default, *extra = AREA_PINS[name]
    kwargs = extra[0] if extra else {}
    surf = make()
    assert relative_area(surf, **{"panels_u": 16, "panels_v": 16, **kwargs}).hex() == coarse
    assert relative_area(surf, **kwargs).hex() == default


def _swept_area_draw(rng, k):
    """The k-th seeded swept surface and panel count, drawn like the benchmark's area ops:
    the four profile kinds x the three sweeps, at 16^2 to the default 128^2 panels."""
    kind = ("log", "power", "inverse_radius", "log_parabola")[k % 4]
    sweep = ("revolution", "helicoidal", "parabolic")[k // 4 % 3]
    t_lo = rng.uniform(0.5, 1.5)
    t_hi = t_lo + rng.uniform(0.5, 2.5)
    c, d = rng.uniform(-2.0, 2.0), rng.uniform(-1.0, 1.0)
    if kind == "log":
        curve = CatenaryFamily(alpha=1.0, c=c, d=d, lam=rng.uniform(-0.4, 0.25))
    elif kind == "power":
        curve = CatenaryFamily(alpha=rng.uniform(0.25, 3.0), c=c, d=d)
    elif kind == "inverse_radius":
        curve = ProfileForm(kind, {"z1": d, "z2": c})
    else:
        curve = ProfileForm(kind, {"quad": rng.uniform(-0.5, 0.5), "z1": d, "z2": c})
    curve = curve.plane_curve(t_lo, t_hi)
    panels = (16, 32, 64, None)[k // 12 % 4]
    if sweep == "parabolic":
        w = rng.uniform(0.5, 1.5)
        spec = ParabolicRevolutionSpec(rng.uniform(-1.0, 1.0), rng.uniform(0.5, 2.0),
                                       rng.uniform(-1.0, 1.0), rng.uniform(-0.5, 0.5),
                                       rng.uniform(-0.5, 0.5), curve)
        return make_parabolic_revolution(spec, -w, w), panels
    lo = rng.uniform(0.0, math.pi)
    theta = (0.0, TWO_PI) if rng.random() < 0.5 else (lo, lo + rng.uniform(0.5, 1.5) * math.pi)
    if sweep == "revolution":
        return make_revolution(RevolutionSpec(curve), *theta), panels
    return make_helicoidal(HelicoidalSpec(curve, rng.uniform(-1.0, 1.0)), *theta), panels


def test_swept_relative_area_digest_is_pinned():
    # sha256 of the float.hex of 60 seeded areas, taken when the swept evaluators still
    # built their cos/sin rows with list comprehensions over numpy scalars
    rng = random.Random(1729)
    hexes = []
    for k in range(60):
        surface, panels = _swept_area_draw(rng, k)
        hexes.append(relative_area(surface, panels_u=panels, panels_v=panels).hex())
    digest = hashlib.sha256("\n".join(hexes).encode()).hexdigest()
    assert digest == "f8fca7f9330f9a95ec253cc20b30e8386012f5c02b80788f6e3594d97a63b785"


def test_classification_sms_residual_bits_are_pinned():
    report = classify_helicoidal(0.0, "yz", 0.3, 1.4)
    assert dict(report.constraints)["sms_residual_max_abs"].hex() == "0x1.8000000000000p-49"


def test_parabolic_revolution_spec_rejects_a_non_finite_parameter():
    curve = ProfileForm("quadratic", {"quad": 1.0, "z1": 0.0}).plane_curve(0.5, 2.0)
    with pytest.raises(ValueError, match="^a must be finite, got nan$"):
        ParabolicRevolutionSpec(math.nan, 1.0, 0.0, 0.0, 0.0, curve)


@pytest.mark.parametrize("seed", [0, 1, 2])
def test_second_form_is_the_triple_product_determinant(seed):
    # det(r_u, r_v, r_ij) by LU is the reference; the bound is relative to the size of the
    # terms of (X23, X31, X12).r_ij, since either side cancels where h_ij is near zero
    jet = SurfaceJet(*np.random.default_rng(seed).standard_normal((6, 200, 3)))
    x23, x31, x12 = jet_minors(jet)
    for w, h in zip(jet[3:], jet_forms(jet)[3:]):
        ref = np.linalg.det(np.stack([jet.ru, jet.rv, w], -2)) / x12
        scale = (abs(w[..., 0] * x23) + abs(w[..., 1] * x31) + abs(w[..., 2] * x12)) / abs(x12)
        assert np.all(abs(h - ref) <= 1e-12 * scale)


def skewed_paraboloid(eps):
    """z = x^2 + y^2 (H = 2) over x = u + v, y = u + (1 + eps) v, so that X12 = eps."""

    def evaluate(us, vs):
        x, y, s = us + vs, us + (1.0 + eps) * vs, 1.0 + eps
        return ((x, y, x * x + y * y), (1.0, 1.0, 2.0 * x + 2.0 * y),
                (1.0, s, 2.0 * x + 2.0 * s * y), (0.0, 0.0, 4.0), (0.0, 0.0, 2.0 + 2.0 * s),
                (0.0, 0.0, 2.0 + 2.0 * s * s))

    return ParamSurface(-1.0, 1.0, -1.0, 1.0, evaluate)


@pytest.mark.parametrize("eps", [1e-2, 1e-4, 1e-6])
def test_mean_curvature_is_exact_on_a_skewed_parametrization(eps):
    # an LU determinant of (r_u, r_v, r_ij) lost digits here: 2.7e-7 at eps 1e-4, 4.4e-3 at 1e-6
    surface = skewed_paraboloid(eps)
    for u in (-1.0, 0.0, 1.0):
        for v in (-0.5, 0.0, 0.5):
            assert abs(mean_curvature(surface, u, v) - 2.0) < 1e-9


@pytest.mark.filterwarnings("error")
def test_per_point_quantities_that_are_not_finite_are_domain_errors():
    curve = ProfileForm("poly", {"a": (0.0, 1.0)}).plane_curve(1.0, 1e300)
    far = make_revolution(RevolutionSpec(curve))  # H overflows at t = 1e299
    point = r"at \(u, v\) = \(1e\+299, 0.3\) is not finite$"
    with pytest.raises(DomainError, match="^mean curvature " + point):
        mean_curvature(far, 1e299, 0.3)
    with pytest.raises(DomainError, match="^fundamental form " + point):
        fundamental_forms(far, 1e299, 0.3)
    with pytest.raises(DomainError, match="^SMS residual " + point):
        sms_residual(far, SingularSpec(), 1e299, 0.3)
    # X23 = -z' t cos(v) overflows at z' = 1e308, t = 1.9; at z' = 1e200 only p^2 does
    def steep(slope):
        return make_revolution(RevolutionSpec(GraphCurve(1.0, 2.0, lambda t: (0.0, slope, 0.0))))

    with pytest.raises(DomainError, match=r"^minimal normal at \(u, v\) = \(1.9, 0.0\)"):
        surface_minimal_normal(steep(1e308), 1.9, 0.0)
    normal = surface_minimal_normal(steep(1e200), 1.5, 0.3)
    assert normal.x == pytest.approx(-1e200 * math.cos(0.3))
    with pytest.raises(DomainError, match=r"^parabolic normal at \(u, v\) = \(1.5, 0.3\)"):
        surface_parabolic_normal(steep(1e200), 1.5, 0.3)
    # X12 = 1e-8 is admissible, but g11 g22 - g12^2 cancels to 0
    with pytest.raises(DomainError, match=r"^mean curvature at \(u, v\) = \(0.5, 0.5\)"):
        mean_curvature(skewed_paraboloid(1e-8), 0.5, 0.5)
