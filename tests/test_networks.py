"""Network forward passes, parameter counting, and the exact memorizers."""

import itertools
import json

import numpy as np
import pytest
from numpy.testing import assert_allclose

from hyptree.hypgeom import HPoint, basepoint, distance, drop, exp_map, lift, log_map
from hyptree.networks import (
    HnnParams,
    MlpParams,
    NetworkError,
    duplicate_rows,
    hnn_forward,
    hnn_from_mlp,
    memorize_hnn,
    memorize_relu,
    par_count,
    params_to_dict,
    save_params,
    separating_directions,
)
from hyptree.trees import gen_spider, leaves, spring_layout, tree_metric
from scalarref import (
    distortion_from_matrices,
    hyperbolic_layer,
    load_params,
    mlp_forward,
    pairwise_euclidean_full,
    params_from_dict,
)


def random_mlp(rng, dims):
    layers = []
    for m, n in zip(dims[1:], dims[:-1]):
        layers.append((rng.normal(size=(m, n)) / np.sqrt(n), rng.normal(size=m) * 0.3))
    return MlpParams(tuple(layers))


def random_hpoint(rng, d, scale=1.0):
    return exp_map(basepoint(d), lift(rng.normal(size=d) * scale))


class TestMlpParams:
    def test_dimension_chain_enforced(self):
        with pytest.raises(NetworkError):
            MlpParams(((np.eye(3), np.zeros(3)), (np.eye(2), np.zeros(2))))

    def test_bias_row_mismatch(self):
        with pytest.raises(NetworkError):
            MlpParams(((np.eye(3), np.zeros(2)),))

    def test_non_finite_rejected(self):
        A = np.eye(2)
        A[0, 0] = np.inf
        with pytest.raises(NetworkError):
            MlpParams(((A, np.zeros(2)),))

    def test_layers_frozen(self):
        p = MlpParams(((np.eye(2), np.zeros(2)),))
        with pytest.raises(ValueError):
            p.layers[0][0][0, 0] = 5.0

    def test_dims(self):
        p = MlpParams(((np.zeros((7, 3)), np.zeros(7)), (np.zeros((2, 7)), np.zeros(2))))
        assert p.dims == (3, 7, 2)
        assert p.input_dim == 3


class TestMlpForward:
    def test_identity_layer(self):
        p = MlpParams(((np.eye(4), np.zeros(4)),))
        x = np.array([1.0, -2.0, 0.5, 3.0])
        assert np.array_equal(mlp_forward(p, x), x)

    def test_absolute_value_network(self):
        # relu(x) + relu(-x) = |x|
        p = MlpParams(
            ((np.array([[1.0], [-1.0]]), np.zeros(2)), (np.array([[1.0, 1.0]]), np.zeros(1)))
        )
        for x in (-3.0, -0.5, 0.0, 0.25, 7.0):
            assert mlp_forward(p, np.array([x]))[0] == abs(x)

    def test_zero_matrices_give_final_bias(self):
        b = np.array([2.5, -1.0])
        p = MlpParams(((np.zeros((3, 2)), np.ones(3)), (np.zeros((2, 3)), b)))
        assert np.array_equal(mlp_forward(p, np.array([9.0, -9.0])), b)

    def test_dimension_mismatch(self):
        p = MlpParams(((np.eye(2), np.zeros(2)),))
        with pytest.raises(NetworkError):
            mlp_forward(p, np.zeros(3))


class TestHyperbolicLayer:
    def test_base_biases_fix_the_apex(self):
        bp = basepoint(2)
        out = hyperbolic_layer(bp, np.zeros(2), bp, np.eye(2), bp)
        assert out == bp

    def test_base_biases_match_direct_composition(self):
        # at the apex the transports drop out of the layer entirely
        rng = np.random.default_rng(7)
        A = rng.normal(size=(3, 2))
        b = rng.normal(size=3)
        for _ in range(25):
            x = random_hpoint(rng, 2, scale=1.5)
            got = hyperbolic_layer(basepoint(2), b, basepoint(3), A, x)
            u = drop(log_map(basepoint(2), x))
            want = exp_map(basepoint(3), lift(np.maximum(A @ u + b, 0.0)))
            assert distance(got, want) <= 1e-9

    def test_general_biases_stay_on_sheet(self):
        rng = np.random.default_rng(8)
        a = random_hpoint(rng, 3, scale=0.8)
        c = random_hpoint(rng, 2, scale=0.8)
        A = rng.normal(size=(2, 3))
        b = rng.normal(size=2)
        for _ in range(100):
            x = random_hpoint(rng, 3)
            out = hyperbolic_layer(a, b, c, A, x)
            r = out.coords
            assert abs(1.0 + np.dot(r[:-1], r[:-1]) - r[-1] ** 2) <= 1e-8 * r[-1] ** 2 + 1e-8

    def test_dimension_mismatch(self):
        with pytest.raises(NetworkError):
            hyperbolic_layer(basepoint(2), np.zeros(2), basepoint(2), np.eye(2), basepoint(3))
        with pytest.raises(NetworkError):
            hyperbolic_layer(basepoint(2), np.zeros(3), basepoint(2), np.eye(2), basepoint(2))


class TestHnnParams:
    def test_chain_checked_against_entry_bias(self):
        with pytest.raises(NetworkError):
            HnnParams(basepoint(3), ((np.eye(2), np.zeros(2), basepoint(2)),))

    def test_hyperbolic_bias_dim_checked(self):
        with pytest.raises(NetworkError):
            HnnParams(basepoint(2), ((np.eye(2), np.zeros(2), basepoint(3)),))

    def test_entry_bias_must_be_hpoint(self):
        with pytest.raises(NetworkError):
            HnnParams(np.array([0.0, 0.0, 1.0]), ((np.eye(2), np.zeros(2), basepoint(2)),))


class TestHnnForward:
    def test_identity_collapse(self):
        # identity affine parts at the apex leave only Exp(lift(x))
        p = HnnParams(basepoint(3), ((np.eye(3), np.zeros(3), basepoint(3)),))
        x = np.array([0.3, -1.2, 0.7])
        want = exp_map(basepoint(3), lift(x))
        assert distance(hnn_forward(p, x), want) <= 1e-12

    def test_conjugation_identity(self):
        rng = np.random.default_rng(9)
        worst = 0.0
        for dims in ((3, 8, 8, 2), (2, 5, 4), (4, 4, 4, 4, 3)):
            g = random_mlp(rng, dims)
            h = hnn_from_mlp(g)
            for _ in range(10):
                x = rng.normal(size=dims[0])
                want = exp_map(basepoint(dims[-1]), lift(mlp_forward(g, x)))
                worst = max(worst, distance(hnn_forward(h, x), want))
        assert worst <= 1e-8

    def test_outputs_on_sheet_with_general_biases(self):
        rng = np.random.default_rng(10)
        layers = (
            (rng.normal(size=(4, 3)), rng.normal(size=4), random_hpoint(rng, 4, 0.5)),
            (rng.normal(size=(2, 4)), rng.normal(size=2), random_hpoint(rng, 2, 0.5)),
        )
        p = HnnParams(random_hpoint(rng, 3, 0.5), layers)
        for _ in range(50):
            out = hnn_forward(p, rng.normal(size=3))
            r = out.coords
            assert abs(1.0 + np.dot(r[:-1], r[:-1]) - r[-1] ** 2) <= 1e-8 * r[-1] ** 2 + 1e-8

    def test_dimension_mismatch(self):
        p = HnnParams(basepoint(2), ((np.eye(2), np.zeros(2), basepoint(2)),))
        with pytest.raises(NetworkError):
            hnn_forward(p, np.zeros(5))


class TestParCount:
    def test_single_layer_frozen_example(self):
        # entry bias (0,0,1) + identity A + zero b + bias (0,0,1): 1+2+0+1
        p = HnnParams(basepoint(2), ((np.eye(2), np.zeros(2), basepoint(2)),))
        pc = par_count(p)
        assert pc.par == 4
        assert pc.depth == 1
        assert pc.width == 2

    def test_zero_mlp_layer_contributes_nothing(self):
        p = MlpParams(((np.zeros((3, 3)), np.zeros(3)),))
        assert par_count(p).par == 0

    def test_dense_layer_counts(self):
        rng = np.random.default_rng(11)
        A = rng.normal(size=(4, 7))
        b = rng.normal(size=4)
        pc = par_count(MlpParams(((A, b),)))
        assert pc.par == 4 * 7 + 4
        assert pc.width == 7
        assert pc.depth == 1

    def test_shared_hyperbolic_biases_counted_once(self):
        rng = np.random.default_rng(12)
        c1 = random_hpoint(rng, 3, 0.5)
        layers = (
            (np.ones((3, 2)), np.ones(3), c1),
            (np.ones((2, 3)), np.ones(2), random_hpoint(rng, 2, 0.5)),
        )
        p = HnnParams(random_hpoint(rng, 2, 0.5), layers)
        dense = 3 + (6 + 3 + 4) + (6 + 2 + 3)
        assert par_count(p).par == dense


class TestMemorizeRelu:
    def test_single_point_constant(self):
        p = memorize_relu(np.array([[1.0, 2.0]]), np.array([[5.0, -3.0, 0.5]]))
        assert len(p.layers) == 1
        out = mlp_forward(p, np.array([9.0, 9.0]))
        assert np.array_equal(out, np.array([5.0, -3.0, 0.5]))

    def test_three_point_hat(self):
        pts = np.array([[0.0, 0.0], [1.0, 1.0], [2.0, 2.0]])
        tgt = np.array([[0.0], [1.0], [0.0]])
        p = memorize_relu(pts, tgt)
        for v, want in zip(pts, tgt):
            assert abs(mlp_forward(p, v)[0] - want[0]) <= 1e-12
        # between knots the interpolant is linear: halfway up the hat
        mid = mlp_forward(p, np.array([0.5, 0.5]))[0]
        assert abs(mid - 0.5) <= 1e-12

    def test_fifty_points_exact(self):
        rng = np.random.default_rng(13)
        pts = rng.normal(size=(50, 3))
        tgt = rng.normal(size=(50, 2))
        p = memorize_relu(pts, tgt)
        err = max(np.max(np.abs(mlp_forward(p, v) - y)) for v, y in zip(pts, tgt))
        assert err <= 1e-9

    def test_shape(self):
        rng = np.random.default_rng(14)
        pts = rng.normal(size=(20, 4))
        tgt = rng.normal(size=(20, 3))
        p = memorize_relu(pts, tgt)
        assert p.dims == (4, 19, 3)

    def test_duplicate_points_rejected(self):
        pts = np.array([[1.0, 2.0], [1.0, 2.0]])
        with pytest.raises(NetworkError):
            memorize_relu(pts, np.zeros((2, 1)))

    def test_signed_zero_duplicates_rejected(self):
        # -0.0 == 0.0, so these rows are one point
        pts = np.array([[3.0, 1.0], [0.0, -0.0], [2.0, 5.0], [-0.0, 0.0]])
        assert sorted(duplicate_rows(pts)) == [1, 3]
        with pytest.raises(NetworkError, match="pairwise distinct"):
            memorize_relu(pts, np.zeros((4, 1)))

    def test_duplicates_apart_in_input_rejected(self):
        rng = np.random.default_rng(16)
        pts = rng.normal(size=(30, 3))
        pts[25] = pts[4]
        assert sorted(duplicate_rows(pts)) == [4, 25]
        with pytest.raises(NetworkError, match="pairwise distinct"):
            memorize_relu(pts, np.zeros((30, 1)))

    def test_rows_sharing_coordinates_accepted(self):
        # equal in every column but one is still distinct
        pts = np.array([[1.0, 2.0, 3.0], [1.0, 2.0, 4.0], [1.0, 0.0, 3.0], [0.0, 2.0, 3.0]])
        assert duplicate_rows(pts) is None
        p = memorize_relu(pts, np.arange(4.0)[:, None])
        assert p.dims == (3, 3, 1)

    def test_count_mismatch_rejected(self):
        with pytest.raises(NetworkError):
            memorize_relu(np.zeros((3, 2)), np.zeros((2, 1)))

    @pytest.mark.parametrize("x", [1e-300, 1e200])
    def test_inseparable_points_rejected_by_both(self, x):
        # distinct rows whose projections no draw separates: the memorizer
        # fails exactly when separating_directions finds nothing, in any
        # row order
        pts = np.array([[0.0, 0.0], [x, 0.0], [2.0, 1.0]])
        for rows in (pts, pts[::-1]):
            assert next(separating_directions(rows, 0), None) is None
            with pytest.raises(NetworkError, match="no direction separated"):
                memorize_relu(rows, np.zeros((3, 1)))
        assert next(separating_directions(np.array([[0.0, 0.0], [1.0, 0.0], [2.0, 1.0]]), 0))

    def test_deterministic(self):
        rng = np.random.default_rng(15)
        pts = rng.normal(size=(10, 2))
        tgt = rng.normal(size=(10, 2))
        a = memorize_relu(pts, tgt, seed=3)
        b = memorize_relu(pts, tgt, seed=3)
        for (A1, b1), (A2, b2) in zip(a.layers, b.layers):
            assert np.array_equal(A1, A2) and np.array_equal(b1, b2)


def grid_leaf_points(L, d):
    """The L integer points of R^d nearest the origin whose norm is at least
    max(1, L^(1/d)/2); ties go by coordinates, in lexicographic order."""
    r0 = max(1.0, L ** (1.0 / d) / 2.0)
    k = int(np.ceil(2.0 * L ** (1.0 / d))) + 1
    pts = np.array(list(itertools.product(range(-k, k + 1), repeat=d)), dtype=np.float64)
    norm = np.sqrt(np.einsum("ij,ij->i", pts, pts))
    pts, norm = pts[norm >= r0], norm[norm >= r0]
    return pts[np.lexsort(tuple(pts.T[::-1]) + (norm,))[:L]]


class TestPackingBound:
    """A spider's leaves lie pairwise 4 apart and within 2 of the hub, so
    every map of it into R^d has distortion D >= L^(1/d) - 1 (the packing
    bound that lowerbound's trained column meets). A constructed map comes
    within a constant of it: leaves on integer points outside a ball of
    radius L^(1/d)/2, each mid-leg node halfway to its leaf, the hub at 0.
    The depth-2 memorizer realizes that map from the spider's layout, so
    an MLP reaches distortion Theta(L^(1/d)) and the bound is tight up to
    constants."""

    @pytest.mark.parametrize("d", [2, 3])
    def test_memorized_grid_map_is_within_a_constant_of_the_bound(self, d):
        for L in (8, 16, 32, 64, 128, 256):
            t = gen_spider(L, leg_length=2)
            spring_layout(t, dim=2, seed=0)
            row = {v: k for k, v in enumerate(t.node_ids)}
            adj = t.adjacency()
            target = np.zeros((t.n_nodes, d))
            for leaf, point in zip(sorted(leaves(t)), grid_leaf_points(L, d)):
                target[row[leaf]] = point
                target[row[adj[leaf][0][0]]] = point / 2.0
            X = t.layout()
            params = memorize_relu(X, target)
            out = np.array([mlp_forward(params, x) for x in X])
            assert_allclose(out, target, atol=1e-8)
            dist = distortion_from_matrices(pairwise_euclidean_full(out), tree_metric(t).matrix).dist
            assert L ** (1.0 / d) - 1.0 <= dist <= 2.0 * L ** (1.0 / d), (L, dist)


class TestMemorizeHnn:
    def test_single_target_exact(self):
        rng = np.random.default_rng(16)
        y = random_hpoint(rng, 2, scale=1.5)
        p = memorize_hnn(np.array([[0.7, -0.2, 0.1]]), [y])
        assert distance(hnn_forward(p, np.array([0.7, -0.2, 0.1])), y) <= 1e-9

    def test_apex_targets_hit_exactly(self):
        rng = np.random.default_rng(17)
        pts = rng.normal(size=(6, 2))
        targets = [basepoint(3)] * 6
        p = memorize_hnn(pts, targets)
        for v in pts:
            assert distance(hnn_forward(p, v), basepoint(3)) == 0.0

    def test_fifty_targets_within_tolerance(self):
        rng = np.random.default_rng(18)
        pts = rng.normal(size=(50, 3))
        targets = [random_hpoint(rng, 2, scale=5.0 / np.sqrt(2)) for _ in range(50)]
        p = memorize_hnn(pts, targets)
        err = max(distance(hnn_forward(p, v), y) for v, y in zip(pts, targets))
        assert err <= 1e-6

    def test_two_hundred_targets_within_tolerance(self):
        rng = np.random.default_rng(19)
        pts = rng.normal(size=(200, 4))
        targets = [random_hpoint(rng, 3, scale=1.2) for _ in range(200)]
        p = memorize_hnn(pts, targets)
        err = max(distance(hnn_forward(p, v), y) for v, y in zip(pts, targets))
        assert err <= 1e-6

    def test_parameter_budget_linear_in_samples(self):
        rng = np.random.default_rng(20)
        n, d, big_n = 3, 2, 40
        pts = rng.normal(size=(big_n, n))
        targets = [random_hpoint(rng, d) for _ in range(big_n)]
        p = memorize_hnn(pts, targets)
        assert par_count(p).par <= 3 * big_n * (n + d)

    def test_mixed_target_dims_rejected(self):
        with pytest.raises(NetworkError):
            memorize_hnn(np.zeros((2, 1)), [basepoint(2), basepoint(3)])


class TestParamsJson:
    def test_mlp_round_trip_bit_exact(self, tmp_path):
        rng = np.random.default_rng(21)
        p = random_mlp(rng, (3, 6, 2))
        path = tmp_path / "mlp.json"
        save_params(path, p)
        q = load_params(path)
        assert isinstance(q, MlpParams)
        for (A1, b1), (A2, b2) in zip(p.layers, q.layers):
            assert np.array_equal(A1, A2) and np.array_equal(b1, b2)

    def test_hnn_round_trip_bit_exact(self, tmp_path):
        rng = np.random.default_rng(22)
        p = hnn_from_mlp(random_mlp(rng, (2, 5, 3)))
        path = tmp_path / "hnn.json"
        save_params(path, p)
        q = load_params(path)
        assert isinstance(q, HnnParams)
        assert np.array_equal(p.entry_bias.coords, q.entry_bias.coords)
        for (A1, b1, c1), (A2, b2, c2) in zip(p.layers, q.layers):
            assert np.array_equal(A1, A2)
            assert np.array_equal(b1, b2)
            assert np.array_equal(c1.coords, c2.coords)

    def test_matrices_serialized_row_major(self):
        A = np.array([[1.0, 2.0], [3.0, 4.0], [5.0, 6.0]])
        p = MlpParams(((A, np.zeros(3)),))
        d = params_to_dict(p)
        assert d["layers"][0]["A"] == [[1.0, 2.0], [3.0, 4.0], [5.0, 6.0]]

    def test_unknown_kind_rejected(self):
        with pytest.raises(NetworkError):
            params_from_dict({"kind": "rnn", "layers": []})

    def test_file_bytes_stable(self, tmp_path):
        rng = np.random.default_rng(23)
        p = random_mlp(rng, (2, 4, 1))
        a, b = tmp_path / "a.json", tmp_path / "b.json"
        save_params(a, p)
        save_params(b, p)
        assert a.read_bytes() == b.read_bytes()

    def test_round_trip_preserves_forward(self, tmp_path):
        rng = np.random.default_rng(24)
        p = hnn_from_mlp(random_mlp(rng, (3, 7, 2)))
        path = tmp_path / "p.json"
        save_params(path, p)
        q = load_params(path)
        x = rng.normal(size=3)
        assert np.array_equal(hnn_forward(p, x).coords, hnn_forward(q, x).coords)
