"""Tree embedding tests: construction oracles, distances, curvature search.

The construction is checked three ways: against a from-scratch float64
ambient recursion at small scale, against the same recursion run in
mpmath at scales float64 coordinates cannot reach, and through internal
invariants (edge exactness, domination by the scaled tree metric,
evaluator symmetry) that hold at every scale.
"""

import json
import math

import mpmath as mp
import numpy as np
import pytest

import ambientutil as amb
from hyptree import embed as em
from hyptree.embed import (
    EmbedError,
    choose_curvature,
    distortion,
    distortion_from_matrices,
    embedding_distance,
    embedding_distance_matrix,
    hnn_realize,
    load_embedding,
    sarkar_embed,
    save_embedding,
)
from hyptree.hypgeom import OverflowGuardError
from hyptree.hypgeom import distance as ambient_distance
from hyptree.networks import hnn_forward, par_count
from hyptree.trees import (
    WeightedTree,
    centroid,
    gen_binary,
    gen_random,
    gen_spider,
    gen_ternary,
    spring_layout,
    tree_metric,
)


def assert_points_match(points, oracle, tol):
    """Coordinate agreement relative to each point's own magnitude.

    At radius r every coordinate is O(cosh r), and an angular error eps
    moves spatial coordinates by about eps * sinh(r), so per-coordinate
    relative comparison is meaningless near zeros of sin/cos; compare
    against the point scale instead.
    """
    for v, p in points.items():
        o = np.array([float(c) for c in oracle[v]])
        scale = max(1.0, o[-1])
        np.testing.assert_allclose(
            p.coords, o, rtol=0.0, atol=tol * scale,
            err_msg=f"node {v} mismatch",
        )


# ----------------------------------------------------------------------
# Log-space scalar helpers
# ----------------------------------------------------------------------

class TestScalarHelpers:
    def test_ln_cosh_ln_sinh_moderate(self):
        for x in [1e-3, 0.1, 0.7, 3.0, 15.0, 40.0]:
            assert em._ln_cosh(x) == pytest.approx(math.log(math.cosh(min(x, 700))), rel=1e-14)
            assert em._ln_sinh(x) == pytest.approx(math.log(math.sinh(x)), rel=1e-13)

    def test_ln_cosh_huge_vs_mpmath(self):
        for x in [120.0, 345.0, 700.0]:
            want = float(mp.log(mp.cosh(mp.mpf(x))))
            assert em._ln_cosh(x) == pytest.approx(want, rel=1e-15)
            want_s = float(mp.log(mp.sinh(mp.mpf(x))))
            assert em._ln_sinh(x) == pytest.approx(want_s, rel=1e-15)

    def test_ln_cosh_even(self):
        assert em._ln_cosh(-7.5) == em._ln_cosh(7.5)
        assert em._ln_cosh(0.0) == 0.0

    def test_inv_ln_cosh_roundtrip(self):
        for x in [0.5, 2.0, 29.0, 31.0, 100.0, 340.0]:
            assert em._inv_ln_cosh(em._ln_cosh(x)) == pytest.approx(x, rel=1e-12)
        assert em._inv_ln_cosh(0.0) == 0.0
        assert em._inv_ln_cosh(-1e-17) == 0.0

    def test_inv_ln_cosh_branch_seam(self):
        lo = em._inv_ln_cosh(30.0 - 1e-9)
        hi = em._inv_ln_cosh(30.0 + 1e-9)
        assert hi - lo == pytest.approx(2e-9, rel=1e-4)

    def test_wrap_range_and_identities(self):
        assert em._wrap(3 * math.pi) == pytest.approx(math.pi)
        assert em._wrap(-3 * math.pi) == pytest.approx(math.pi)
        assert em._wrap(math.pi) == math.pi
        assert em._wrap(-math.pi) == math.pi
        assert em._wrap(0.25) == pytest.approx(0.25, abs=0)
        for a in np.linspace(-20.0, 20.0, 101):
            w = em._wrap(float(a))
            assert -math.pi < w <= math.pi
            assert math.remainder(w - a, 2 * math.pi) == pytest.approx(0.0, abs=1e-12)

    def test_side_from_angle_small_vs_direct(self):
        rng = np.random.default_rng(5)
        for _ in range(50):
            d, ell = rng.uniform(0.1, 4.0, 2)
            th = rng.uniform(-math.pi, math.pi)
            want = math.acosh(
                math.cosh(d) * math.cosh(ell)
                - math.sinh(d) * math.sinh(ell) * math.cos(th)
            )
            assert em._side_from_angle(d, ell, th) == pytest.approx(want, rel=1e-12, abs=1e-12)

    def test_side_from_angle_degenerate_angles(self):
        assert em._side_from_angle(3.0, 1.25, math.pi) == pytest.approx(4.25, rel=1e-15)
        assert em._side_from_angle(3.0, 1.25, 0.0) == pytest.approx(1.75, rel=1e-14)
        assert em._side_from_angle(1.25, 3.0, 0.0) == pytest.approx(1.75, rel=1e-14)

    def test_side_from_angle_huge_vs_mpmath(self):
        with mp.workdps(60):
            for d, ell, th in [(200.0, 50.0, 2.0), (300.0, 290.0, 0.3), (120.0, 120.0, 3.0)]:
                want = float(
                    mp.acosh(
                        mp.cosh(d) * mp.cosh(ell)
                        - mp.sinh(d) * mp.sinh(ell) * mp.cos(th)
                    )
                )
                assert em._side_from_angle(d, ell, th) == pytest.approx(want, rel=1e-13)

    def test_angle_opposite_vs_mpmath(self):
        # triangle with sides a,b and included angle th; check the angle
        # adjacent to b (opposite a) against a high-precision rebuild
        cases = [(1.0, 0.7, 1.2), (4.0, 2.5, 2.9), (60.0, 30.0, 0.8), (250.0, 200.0, 2.4)]
        with mp.workdps(80):
            for a, b, th in cases:
                c = mp.acosh(mp.cosh(a) * mp.cosh(b) - mp.sinh(a) * mp.sinh(b) * mp.cos(th))
                want = float(
                    mp.acos(
                        (mp.cosh(c) * mp.cosh(b) - mp.cosh(a))
                        / (mp.sinh(c) * mp.sinh(b))
                    )
                )
                got = em._angle_opposite(float(c), b, a, th)
                assert got == pytest.approx(want, rel=1e-10, abs=1e-12)

    def test_angle_opposite_degenerate_sides(self):
        assert em._angle_opposite(0.0, 1.0, 1.0, 0.5) == 0.0
        assert em._angle_opposite(1.0, 1.0, 0.0, 0.5) == pytest.approx(0.0, abs=1e-15)


# ----------------------------------------------------------------------
# Construction against the ambient oracles
# ----------------------------------------------------------------------

SMALL_TREES = [
    gen_binary(3),
    gen_ternary(2),
    gen_spider(7, leg_length=3),
    gen_random(17, seed=3),
    gen_random(2, seed=0),
]


class TestConstructionOracle:
    @pytest.mark.parametrize("idx", range(len(SMALL_TREES)))
    @pytest.mark.parametrize("tau", [0.5, 1.25])
    def test_matches_float64_recursion(self, idx, tau):
        # the oracle's Lorentz cross products lose ~cosh(r) * 1e-16 per
        # level, so keep it to radii where that noise sits under the bar
        t = SMALL_TREES[idx]
        e = sarkar_embed(t, tau)
        oracle = amb.ambient_points_f64(t, centroid(t), tau)
        assert_points_match(e.points, oracle, tol=5e-11)

    def test_matches_mpmath_recursion_moderate_scale(self):
        t = gen_random(17, seed=3)
        e = sarkar_embed(t, 2.0)
        oracle = amb.ambient_points_mp(t, centroid(t), 2.0, dps=80)
        assert_points_match(e.points, oracle, tol=1e-12)

    def test_matches_mpmath_recursion_large_scale(self):
        t = gen_binary(4)
        e = sarkar_embed(t, 32.0)
        oracle = amb.ambient_points_mp(t, centroid(t), 32.0, dps=160)
        assert_points_match(e.points, oracle, tol=1e-9)

    def test_pair_distances_match_mpmath_large_scale(self):
        t = gen_binary(4)
        e = sarkar_embed(t, 32.0)
        oracle = amb.ambient_points_mp(t, centroid(t), 32.0, dps=160)
        ids = sorted(e.points)
        for i, u in enumerate(ids):
            for v in ids[i + 1 :]:
                want = amb.mp_distance(oracle[u], oracle[v], dps=160)
                got = embedding_distance(e, u, v)
                assert got == pytest.approx(want, rel=1e-10, abs=1e-10)

    def test_evaluator_agrees_with_ambient_distance_small_scale(self):
        # ambient chordal distances carry ~exp(r_u + r_v - D) * 1e-16
        # noise, so the ambient reference is only good at small radius
        t = gen_random(14, seed=8)
        e = sarkar_embed(t, 1.0)
        ids = sorted(e.points)
        for i, u in enumerate(ids):
            for v in ids[i + 1 :]:
                want = ambient_distance(e.points[u], e.points[v])
                assert embedding_distance(e, u, v) == pytest.approx(want, abs=1e-9)

    def test_frame_assignment_matches_oracle(self):
        for t in SMALL_TREES:
            root = centroid(t)
            frames, parent, w_up = em._neighbor_frames(t, root)
            slots, oparent, ow_up = amb.frame_slots(t, root)
            assert parent == oparent
            assert w_up == ow_up
            for v in frames:
                assert set(frames[v]) == set(slots[v])
                for nb, ang in frames[v].items():
                    want = 2.0 * math.pi * float(slots[v][nb])
                    assert ang == pytest.approx(want, abs=1e-12)


# ----------------------------------------------------------------------
# Metric invariants of the construction
# ----------------------------------------------------------------------

class TestEmbeddingInvariants:
    def test_single_edge_exact_length(self):
        t = WeightedTree([0, 1], [(0, 1, 1.0)])
        e = sarkar_embed(t, 3.0)
        assert embedding_distance(e, 0, 1) == 3.0
        assert ambient_distance(e.points[0], e.points[1]) == pytest.approx(3.0, abs=1e-12)

    def test_edges_map_to_exact_scaled_length(self):
        t = gen_random(20, seed=11)
        tau = 0.8
        e = sarkar_embed(t, tau)
        for u, v, w in t.edges:
            d = ambient_distance(e.points[u], e.points[v])
            assert d == pytest.approx(tau * w, abs=1e-9)

    @pytest.mark.parametrize("tau", [2.0, 8.0])
    def test_domination(self, tau):
        t = gen_binary(4)
        e = sarkar_embed(t, tau)
        metric = tree_metric(t)
        for i, u in enumerate(metric.ids):
            for v in metric.ids[i + 1 :]:
                d = embedding_distance(e, u, v)
                assert d <= tau * metric.dist(u, v) + 1e-9

    def test_evaluator_symmetry(self):
        t = gen_random(12, seed=2)
        e = sarkar_embed(t, 3.0)
        ids = sorted(e.points)
        for i, u in enumerate(ids):
            for v in ids[i + 1 :]:
                a = embedding_distance(e, u, v)
                b = embedding_distance(e, v, u)
                assert a == pytest.approx(b, abs=1e-9)
        assert embedding_distance(e, ids[0], ids[0]) == 0.0

    def test_distance_matrix_is_symmetric_with_sorted_ids(self):
        t = gen_spider(4, leg_length=2)
        e = sarkar_embed(t, 2.0)
        mat = embedding_distance_matrix(e)
        assert mat.shape == (t.n_nodes, t.n_nodes)
        np.testing.assert_array_equal(mat, mat.T)
        assert np.all(np.diag(mat) == 0.0)

    def test_star_at_large_scale_has_small_distortion(self):
        t = gen_spider(3, leg_length=1)
        tau = 10.0
        e = sarkar_embed(t, tau)
        metric = tree_metric(t)
        ids = list(metric.ids)
        mat = embedding_distance_matrix(e, ids) / tau
        report = distortion_from_matrices(mat, metric.matrix)
        assert report.injective
        assert report.dist <= 1.05

    def test_distortion_nonincreasing_in_scale(self):
        t = gen_binary(5)
        metric = tree_metric(t)
        ids = list(metric.ids)
        dists = []
        for tau in [2.0, 5.0, 10.0]:
            e = sarkar_embed(t, tau)
            mat = embedding_distance_matrix(e, ids) / tau
            dists.append(distortion_from_matrices(mat, metric.matrix).dist)
        assert dists[1] <= dists[0] + 1e-9
        assert dists[2] <= dists[1] + 1e-9

    def test_root_is_centroid_and_at_apex(self):
        t = gen_binary(3)
        e = sarkar_embed(t, 2.0)
        assert e.root == centroid(t)
        np.testing.assert_array_equal(e.points[e.root].coords, [0.0, 0.0, 1.0])

    def test_single_node_tree(self):
        e = sarkar_embed(WeightedTree([5], []), 2.0)
        assert list(e.points) == [5]
        np.testing.assert_array_equal(e.points[5].coords, [0.0, 0.0, 1.0])

    def test_overflow_guard(self):
        with pytest.raises(OverflowGuardError, match="reduce tau"):
            sarkar_embed(gen_binary(6), 64.0)

    def test_bad_tau_rejected(self):
        with pytest.raises(EmbedError):
            sarkar_embed(gen_binary(2), 0.0)
        with pytest.raises(EmbedError):
            sarkar_embed(gen_binary(2), -1.0)


# ----------------------------------------------------------------------
# Distortion reports
# ----------------------------------------------------------------------

class TestDistortion:
    def test_pure_scaling_has_unit_distortion(self):
        t = WeightedTree([0, 1, 2], [(0, 1, 1.0), (1, 2, 1.0)])
        metric = tree_metric(t)
        f = {i: np.array([2.0 * i, 0.0]) for i in range(3)}
        rep = distortion(f, metric, lambda a, b: float(np.linalg.norm(a - b)))
        assert rep.alpha == pytest.approx(2.0)
        assert rep.beta == pytest.approx(2.0)
        assert rep.dist == pytest.approx(1.0)
        assert rep.injective

    def test_collision_reported_non_injective(self):
        t = WeightedTree([0, 1, 2], [(0, 1, 1.0), (1, 2, 1.0)])
        metric = tree_metric(t)
        f = {i: np.zeros(2) for i in range(3)}
        rep = distortion(f, metric, lambda a, b: float(np.linalg.norm(a - b)))
        assert not rep.injective
        assert rep.dist == math.inf

    def test_callable_and_matrix_forms_agree(self):
        t = gen_random(9, seed=4)
        metric = tree_metric(t)
        rng = np.random.default_rng(0)
        f = {i: rng.normal(size=3) for i in metric.ids}
        rep_a = distortion(f, metric, lambda a, b: float(np.linalg.norm(a - b)))
        pts = np.stack([f[i] for i in metric.ids])
        diff = pts[:, None, :] - pts[None, :, :]
        mat = np.sqrt((diff**2).sum(-1))
        rep_b = distortion_from_matrices(mat, metric.matrix)
        assert rep_a.alpha == pytest.approx(rep_b.alpha, rel=1e-12)
        assert rep_a.beta == pytest.approx(rep_b.beta, rel=1e-12)
        assert rep_a.dist == pytest.approx(rep_b.dist, rel=1e-12)

    def test_missing_node_rejected(self):
        t = WeightedTree([0, 1], [(0, 1, 1.0)])
        with pytest.raises(EmbedError, match="missing"):
            distortion({0: np.zeros(2)}, tree_metric(t), lambda a, b: 0.0)

    def test_single_node_rejected(self):
        t = WeightedTree([0], [])
        with pytest.raises(EmbedError):
            distortion({0: np.zeros(2)}, tree_metric(t), lambda a, b: 0.0)


# ----------------------------------------------------------------------
# Curvature selection
# ----------------------------------------------------------------------

class TestChooseCurvature:
    def test_single_edge_passes_first_scale(self):
        t = WeightedTree([0, 1], [(0, 1, 1.0)])
        e, kappa, rep = choose_curvature(t, lam=1.5)
        assert kappa.kappa == -1.0
        assert rep.dist == pytest.approx(1.0)

    def test_binary_tree_meets_mild_bound(self):
        t = gen_binary(6)
        lam = 1.1
        e, kappa, rep = choose_curvature(t, lam)
        assert rep.alpha >= 1.0 / lam
        assert rep.beta <= lam
        # minimality: every smaller grid scale must fail the bound
        metric = tree_metric(t)
        ids = list(metric.ids)
        for tau in em.DEFAULT_TAU_GRID:
            if tau >= kappa.scale:
                break
            e_lo = sarkar_embed(t, tau)
            mat = embedding_distance_matrix(e_lo, ids) / tau
            rep_lo = distortion_from_matrices(mat, metric.matrix)
            assert rep_lo.alpha < 1.0 / lam or rep_lo.beta > lam

    def test_tighter_bound_needs_stronger_curvature(self):
        t = gen_binary(4)
        _, k_loose, _ = choose_curvature(t, 1.1)
        _, k_tight, _ = choose_curvature(t, 1.01)
        assert k_tight.scale >= k_loose.scale
        assert -k_tight.kappa >= -k_loose.kappa

    def test_exhausted_grid_reports_best(self):
        t = gen_binary(4)
        with pytest.raises(EmbedError, match="best distortion"):
            choose_curvature(t, 1.0001, tau_grid=(1.0, 2.0))

    def test_bad_lambda_rejected(self):
        t = WeightedTree([0, 1], [(0, 1, 1.0)])
        with pytest.raises(EmbedError):
            choose_curvature(t, 1.0)
        with pytest.raises(EmbedError):
            choose_curvature(t, 0.5)

    def test_single_node_rejected(self):
        with pytest.raises(EmbedError):
            choose_curvature(WeightedTree([0], []), 1.5)


# ----------------------------------------------------------------------
# Network realization and padding
# ----------------------------------------------------------------------

class TestRealize:
    def test_two_node_tree_exact(self):
        t = WeightedTree([0, 1], [(0, 1, 1.0)],
                         coords={0: [0.0, 0.0], 1: [1.0, 0.0]})
        e = sarkar_embed(t, 2.0)
        p = hnn_realize(e, t)
        for v in (0, 1):
            out = hnn_forward(p, np.asarray(t.coords[v]))
            assert ambient_distance(out, e.points[v]) <= 1e-9

    def test_binary_tree_with_spring_layout(self):
        t = gen_binary(4)
        spring_layout(t, dim=2, seed=0)
        e = sarkar_embed(t, 2.0)
        p = hnn_realize(e, t)
        worst = 0.0
        for v in sorted(e.points):
            out = hnn_forward(p, t.coords[v])
            worst = max(worst, ambient_distance(out, e.points[v]))
        assert worst <= 1e-6

    def test_parameter_triple_does_not_depend_on_bound(self):
        t = gen_binary(4)
        spring_layout(t, dim=2, seed=0)
        e_a, _, _ = choose_curvature(t, 1.1)
        e_b, _, _ = choose_curvature(t, 1.01)
        pc_a = par_count(hnn_realize(e_a, t))
        pc_b = par_count(hnn_realize(e_b, t))
        assert (pc_a.depth, pc_a.width, pc_a.par) == (pc_b.depth, pc_b.width, pc_b.par)

    def test_missing_coords_rejected(self):
        t = gen_binary(2)
        e = sarkar_embed(t, 2.0)
        with pytest.raises(EmbedError, match="layout"):
            hnn_realize(e, t)

    def test_missing_node_rejected(self):
        t = gen_binary(2)
        spring_layout(t, dim=2, seed=0)
        e = sarkar_embed(gen_binary(1), 2.0)
        with pytest.raises(EmbedError, match="missing"):
            hnn_realize(e, t)


# ----------------------------------------------------------------------
# JSON interchange
# ----------------------------------------------------------------------

class TestEmbeddingJson:
    def test_round_trip_bit_exact(self, tmp_path):
        t = gen_random(10, seed=6)
        e = sarkar_embed(t, 4.0)
        path = tmp_path / "emb.json"
        save_embedding(path, e)
        loaded = load_embedding(path)
        assert loaded.kappa.kappa == e.kappa.kappa
        assert sorted(loaded.points) == sorted(e.points)
        for v in e.points:
            np.testing.assert_array_equal(loaded.points[v].coords, e.points[v].coords)

    def test_schema_shape(self, tmp_path):
        e = sarkar_embed(gen_binary(1), 2.0)
        path = tmp_path / "emb.json"
        save_embedding(path, e)
        data = json.loads(path.read_text())
        assert set(data) == {"kappa", "points"}
        assert data["kappa"] == -4.0
        assert set(data["points"]) == {"0", "1", "2"}
        assert all(len(v) == 3 for v in data["points"].values())

    def test_loaded_embedding_has_no_evaluator(self, tmp_path):
        e = sarkar_embed(gen_binary(1), 2.0)
        path = tmp_path / "emb.json"
        save_embedding(path, e)
        loaded = load_embedding(path)
        with pytest.raises(EmbedError, match="construction record"):
            embedding_distance(loaded, 0, 1)

    def test_empty_points_rejected(self):
        with pytest.raises(EmbedError):
            em.embedding_from_dict({"kappa": -1.0, "points": {}})
