"""Geometry kernel tests: frozen values, properties, and mpmath oracles."""

import math

import numpy as np
import pytest
from numpy.testing import assert_allclose

from hyptree import hypgeom as hg
from mputil import mp_distance, mp_exp_map, mp_log_map, mp_transport

RNG = np.random.default_rng(42)

COSH1 = 1.5430806348152437  # cosh(1), frozen


def random_point(rng, d, scale=2.0):
    """Random point as exp of a scaled Gaussian tangent at the basepoint."""
    v = rng.normal(size=d)
    n = np.linalg.norm(v)
    if n > 0:
        v *= rng.uniform(0.0, scale) / n
    return hg.exp_map(hg.basepoint(d), hg.lift(v))


def random_tangent(rng, x, scale=1.0):
    """Random tangent vector at x via transport from the basepoint."""
    raw = rng.normal(size=x.dim) * scale
    return hg.parallel_transport(hg.basepoint(x.dim), x, hg.lift(raw))


class TestMinkowskiInner:
    def test_basepoint_self_product_is_minus_one(self):
        b = hg.basepoint(3)
        assert hg.minkowski_inner(b.coords, b.coords) == -1.0

    def test_time_coordinate_is_last(self):
        u = np.array([1.0, 2.0, 5.0])
        v = np.array([3.0, 4.0, 6.0])
        assert hg.minkowski_inner(u, v) == 1 * 3 + 2 * 4 - 5 * 6

    def test_broadcasts_over_leading_axes(self):
        pts = RNG.normal(size=(7, 4))
        out = hg.minkowski_inner(pts, pts)
        expect = np.sum(pts[:, :-1] ** 2, axis=1) - pts[:, -1] ** 2
        assert_allclose(out, expect, rtol=1e-15)


class TestHPoint:
    def test_accepts_on_sheet_point(self):
        p = hg.HPoint([3.0, 4.0, math.sqrt(26.0)])
        assert p.dim == 2

    def test_rejects_off_sheet(self):
        with pytest.raises(hg.GeometryError):
            hg.HPoint([1.0, 0.0, 1.0])

    def test_rejects_lower_sheet(self):
        with pytest.raises(hg.GeometryError):
            hg.HPoint([0.0, 0.0, -1.0])

    def test_rejects_non_finite(self):
        with pytest.raises(hg.GeometryError):
            hg.HPoint([np.inf, 0.0, np.inf])

    @pytest.mark.parametrize("coords", [[3e200, 0.0, 1e200], [1.0, 0.0, 2e160]],
                             ids=["nan-residual", "inf-tolerance"])
    def test_rejects_off_sheet_when_the_check_overflows(self, coords):
        # the residual inf - inf is NaN in one, and t^2 makes the tolerance inf
        # in the other; neither compares above its tolerance
        with pytest.raises(hg.GeometryError, match="off the hyperboloid"):
            hg.HPoint(np.array(coords))

    def test_coords_are_immutable(self):
        p = hg.basepoint(2)
        with pytest.raises(ValueError):
            p.coords[0] = 1.0

    def test_operations_return_points_within_constraint_tolerance(self):
        """Desk-scale outputs satisfy |1 + sum x_i^2 - x_t^2| <= 1e-8."""
        for _ in range(50):
            d = int(RNG.integers(1, 6))
            p = random_point(RNG, d, scale=5.0)
            c = p.coords
            resid = abs(1.0 + np.dot(c[:-1], c[:-1]) - c[-1] ** 2)
            assert resid <= 1e-8


class TestLiftDrop:
    def test_lift_appends_zero(self):
        t = hg.lift([3.0, 4.0])
        assert_allclose(t.vec, [3.0, 4.0, 0.0])
        assert_allclose(t.base.coords, [0.0, 0.0, 1.0])

    def test_drop_inverts_lift(self):
        x = RNG.normal(size=5)
        assert_allclose(hg.drop(hg.lift(x)), x, rtol=0, atol=0)

    def test_norm_is_euclidean_at_basepoint(self):
        assert hg.lift([3.0, 4.0]).norm() == 5.0

    def test_tangency_is_validated(self):
        with pytest.raises(hg.GeometryError):
            hg.TangentVec(np.array([0.0, 0.0, 1.0]), hg.basepoint(2))

    def test_tangency_check_that_overflows_rejects(self):
        # <v|x>_M is about 1.9e311 here, and the tolerance overflows to inf
        x = hg.exp_map(hg.basepoint(2), hg.lift([349.0, 0.0]))
        with pytest.raises(hg.GeometryError, match="not tangent"):
            hg.TangentVec(np.array([1e160, 1e160, 0.0]), x)


class TestCurvature:
    def test_rejects_nonnegative(self):
        for bad in (0.0, 1.0, np.inf):
            with pytest.raises(hg.GeometryError):
                hg.Curvature(bad)

    def test_from_scale(self):
        k = hg.Curvature.from_scale(4.0)
        assert k.kappa == -16.0
        assert math.sqrt(-k.kappa) == 4.0


class TestDistance:
    def test_frozen_value_unit_distance(self):
        """d(basepoint, (sinh 1, 0, cosh 1)) = 1; the product is -cosh(1)."""
        b = hg.basepoint(2)
        y = hg.HPoint([math.sinh(1.0), 0.0, COSH1])
        assert abs(hg.minkowski_inner(b.coords, y.coords) + COSH1) < 1e-15
        assert_allclose(hg.distance(b, y), 1.0, rtol=1e-14)

    def test_identity_and_symmetry(self):
        for _ in range(100):
            x = random_point(RNG, 3)
            y = random_point(RNG, 3)
            assert hg.distance(x, x) == 0.0
            assert_allclose(hg.distance(x, y), hg.distance(y, x), rtol=1e-14)
            if x != y:
                assert hg.distance(x, y) > 0.0

    def test_triangle_inequality(self):
        for _ in range(1000):
            x, y, z = (random_point(RNG, 2, scale=3.0) for _ in range(3))
            dxy = hg.distance(x, y)
            dyz = hg.distance(y, z)
            dxz = hg.distance(x, z)
            assert dxz <= dxy + dyz + 1e-12

    def test_curvature_scaling_exact(self):
        """d_kappa = d_{-1}/sqrt(|kappa|), exactly for exact square roots."""
        x = random_point(RNG, 2)
        y = random_point(RNG, 2)
        base = hg.distance(x, y)
        for kappa, root in ((-0.25, 0.5), (-1.0, 1.0), (-4.0, 2.0)):
            assert hg.distance(x, y, hg.Curvature(kappa)) == base / root

    def test_matches_mpmath_oracle(self):
        for _ in range(50):
            x = random_point(RNG, 3, scale=5.0)
            y = random_point(RNG, 3, scale=5.0)
            assert_allclose(hg.distance(x, y), mp_distance(x.coords, y.coords), rtol=1e-12)

    def test_near_identical_points(self):
        """Separations down to 1e-8 are resolved to ~1e-9 relative error."""
        x = random_point(RNG, 3, scale=2.0)
        for eps in (1e-4, 1e-6, 1e-8):
            v = random_tangent(RNG, x)
            step = hg.TangentVec(v.vec * (eps / v.norm()), x)
            y = hg.exp_map(x, step)
            assert_allclose(hg.distance(x, y), eps, rtol=1e-6)

    def test_rejects_nonnegative_curvature(self):
        x = random_point(RNG, 2)
        with pytest.raises(hg.GeometryError):
            hg.distance(x, x, 1.0)


class TestExpMap:
    def test_zero_vector_returns_x(self):
        x = random_point(RNG, 3)
        v = hg.TangentVec(np.zeros(4), x)
        assert hg.exp_map(x, v) == x

    def test_frozen_value_radius_five(self):
        p = hg.exp_map(hg.basepoint(2), hg.lift([3.0, 4.0]))
        s5 = math.sinh(5.0)
        assert_allclose(p.coords, [0.6 * s5, 0.8 * s5, math.cosh(5.0)], rtol=1e-14)

    def test_matches_mpmath_oracle(self):
        for _ in range(50):
            x = random_point(RNG, 3)
            v = random_tangent(RNG, x, scale=2.0)
            got = hg.exp_map(x, v)
            assert_allclose(got.coords, mp_exp_map(x.coords, v.vec), rtol=1e-11, atol=1e-13)

    def test_geodesic_speed(self):
        """d(x, Exp_x(t v̂)) = t."""
        x = random_point(RNG, 2)
        v = random_tangent(RNG, x)
        unit = hg.TangentVec(v.vec / v.norm(), x)
        for t in (0.5, 1.0, 7.0):
            scaled = hg.TangentVec(unit.vec * t, x)
            assert_allclose(hg.distance(x, hg.exp_map(x, scaled)), t, rtol=1e-12)

    def test_overflow_guard(self):
        big = hg.lift(np.array([351.0, 0.0]))
        with pytest.raises(hg.OverflowGuardError):
            hg.exp_map(hg.basepoint(2), big)

    def test_rejects_negative_norm_vector(self):
        # Forged vector bypassing validation: the guard is defensive.
        x = hg.basepoint(2)
        v = hg.TangentVec.__new__(hg.TangentVec)
        object.__setattr__(v, "vec", np.array([0.0, 0.0, 0.5]))
        object.__setattr__(v, "base", x)
        with pytest.raises(hg.GeometryError):
            hg.exp_map(x, v)

    def test_base_mismatch_rejected(self):
        x, y = random_point(RNG, 2), random_point(RNG, 2)
        v = random_tangent(RNG, x)
        with pytest.raises(hg.GeometryError):
            hg.exp_map(y, v)


class TestLogMap:
    def test_round_trip_exp_of_log(self):
        """exp_map(x, log_map(x, y)) == y to 1e-9 for desk-scale pairs."""
        for _ in range(100):
            x = random_point(RNG, 3, scale=3.0)
            y = random_point(RNG, 3, scale=3.0)
            back = hg.exp_map(x, hg.log_map(x, y))
            assert np.max(np.abs(back.coords - y.coords)) <= 1e-9

    def test_round_trip_log_of_exp(self):
        """log_map(x, exp_map(x, v)) == v to 1e-7 for ||v|| <= 5."""
        for _ in range(100):
            x = random_point(RNG, 2, scale=2.0)
            v = random_tangent(RNG, x, scale=1.5)
            back = hg.log_map(x, hg.exp_map(x, v))
            assert np.max(np.abs(back.vec - v.vec)) <= 1e-7

    def test_norm_equals_distance(self):
        for _ in range(50):
            x = random_point(RNG, 4)
            y = random_point(RNG, 4)
            assert_allclose(hg.log_map(x, y).norm(), hg.distance(x, y), rtol=1e-12)

    def test_log_at_same_point_is_zero(self):
        x = random_point(RNG, 3)
        assert hg.log_map(x, x).norm() == 0.0

    def test_matches_mpmath_oracle(self):
        for _ in range(50):
            x = random_point(RNG, 3, scale=4.0)
            y = random_point(RNG, 3, scale=4.0)
            got = hg.log_map(x, y)
            assert_allclose(got.vec, mp_log_map(x.coords, y.coords), rtol=1e-10, atol=1e-12)


class TestParallelTransport:
    def test_identity_when_endpoints_coincide(self):
        x = random_point(RNG, 3)
        v = random_tangent(RNG, x)
        out = hg.parallel_transport(x, x, v)
        assert_allclose(out.vec, v.vec, rtol=0, atol=0)

    def test_preserves_minkowski_products(self):
        """<P u, P w>_M == <u, w>_M to 1e-8 (isometry of tangent spaces)."""
        for _ in range(100):
            x = random_point(RNG, 3, scale=3.0)
            b = random_point(RNG, 3, scale=3.0)
            u = random_tangent(RNG, x)
            w = random_tangent(RNG, x)
            pu = hg.parallel_transport(x, b, u)
            pw = hg.parallel_transport(x, b, w)
            before = hg.minkowski_inner(u.vec, w.vec)
            after = hg.minkowski_inner(pu.vec, pw.vec)
            assert abs(after - before) <= 1e-8 * max(1.0, abs(before))

    def test_transports_geodesic_velocity(self):
        """P_{x->b}(Log_x b) = -Log_b x."""
        for _ in range(20):
            x = random_point(RNG, 2, scale=2.0)
            b = random_point(RNG, 2, scale=2.0)
            moved = hg.parallel_transport(x, b, hg.log_map(x, b))
            assert_allclose(moved.vec, -hg.log_map(b, x).vec, rtol=1e-9, atol=1e-11)

    def test_matches_textbook_display_form(self):
        """Equals u - (<Log_x b, u>/d^2)(Log_x b + Log_b x) on separated pairs."""
        for _ in range(20):
            x = random_point(RNG, 3, scale=2.0)
            b = random_point(RNG, 3, scale=2.0)
            if hg.distance(x, b) < 0.5:
                continue
            u = random_tangent(RNG, x)
            got = hg.parallel_transport(x, b, u)
            expect = mp_transport(x.coords, b.coords, u.vec)
            assert_allclose(got.vec, expect, rtol=1e-9, atol=1e-11)

    def test_result_is_tangent_at_target(self):
        x = random_point(RNG, 3)
        b = random_point(RNG, 3)
        out = hg.parallel_transport(x, b, random_tangent(RNG, x))
        assert out.base == b

    def test_base_mismatch_rejected(self):
        x, b = random_point(RNG, 2), random_point(RNG, 2)
        v = random_tangent(RNG, b)
        with pytest.raises(hg.GeometryError):
            hg.parallel_transport(x, b, v)


class TestProject:
    def test_recomputes_time_coordinate(self):
        v = np.array([3.0, 4.0, -99.0])
        p = hg.project_to_hyperboloid(v)
        assert_allclose(p.coords, [3.0, 4.0, math.sqrt(26.0)], rtol=1e-15)

    def test_fixes_points_already_on_sheet(self):
        x = random_point(RNG, 3)
        p = hg.project_to_hyperboloid(x.coords)
        assert_allclose(p.coords, x.coords, rtol=1e-12)
