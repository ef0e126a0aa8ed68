"""Training tests: heads, tape towers, gradients vs finite differences,
and the behavior of the full loop (convergence, determinism, divergence).
"""

import math
from dataclasses import replace

import mpmath as mp
import numpy as np
import pytest
from numpy.testing import assert_allclose

from hyptree import kernels
from hyptree import train as tr
from hyptree.autodiff import Tape
from hyptree.hypgeom import (
    HPoint,
    basepoint,
    distance,
    exp_map,
    lift,
    minkowski_inner,
    project_to_hyperboloid,
)
from hyptree.networks import (
    HnnParams,
    MlpParams,
    hnn_forward,
    hnn_from_mlp,
    mlp_forward,
)
from hyptree.train import (
    EpochStats,
    TrainConfig,
    TrainDivergenceError,
    TrainError,
    grad,
    init_params,
    train_embedding,
)
from hyptree.trees import WeightedTree, gen_binary, gen_random, spring_layout, tree_metric
from mputil import mp_apex_distance
from scalarref import d_pred_hnn, d_pred_mlp, loss_mse, stacked_pair_loss


def random_mlp(rng, dims):
    layers = []
    for fi, fo in zip(dims[:-1], dims[1:]):
        layers.append((rng.normal(size=(fo, fi)) / math.sqrt(fi), rng.normal(size=fo) * 0.3))
    return MlpParams(tuple(layers))


def random_hpoint(rng, d, scale=0.5):
    return exp_map(basepoint(d), lift(rng.normal(size=d) * scale))


def random_hnn(rng, dims):
    mlp = random_mlp(rng, dims)
    entry = random_hpoint(rng, dims[0])
    layers = tuple((A, b, random_hpoint(rng, A.shape[0])) for A, b in mlp.layers)
    return HnnParams(entry, layers)


def two_node_tree():
    return WeightedTree(
        [0, 1], [(0, 1, 1.0)], coords={0: [0.0, 0.0], 1: [1.0, 0.0]}
    )


def flatten_grads(params, grads):
    """``grad``'s gradients of the arrays of ``tr._flatten``, in its order."""
    layer_grads = grads[1] if isinstance(params, HnnParams) else grads
    return [g for layer in layer_grads for g in layer[:2]]


def tangent_basis(c):
    """d chart directions at an on-sheet point: v_i = (e_i, c_i / c_t)."""
    d = c.size - 1
    vs = []
    for i in range(d):
        v = np.zeros(d + 1)
        v[i] = 1.0
        v[-1] = c[i] / c[-1]
        vs.append(v)
    return vs


# ----------------------------------------------------------------------
# Config and batch validation
# ----------------------------------------------------------------------

class TestTrainConfig:
    def test_defaults_valid(self):
        cfg = TrainConfig()
        assert cfg.batch_size == 4096
        assert cfg.hidden_width == 64
        assert cfg.hidden_layers == 4
        assert cfg.optimizer == "adam"
        assert not cfg.batch_norm

    @pytest.mark.parametrize(
        "kw",
        [
            {"epochs": 0},
            {"batch_size": 0},
            {"hidden_layers": 0},
            {"hidden_width": 0},
            {"embed_dim": 0},
            {"learning_rate": 0.0},
            {"learning_rate": -1.0},
            {"learning_rate": math.inf},
            {"model_kind": "cnn"},
            {"optimizer": "rmsprop"},
            {"max_pairs": 0},
            {"epochs": True},
            {"hidden_width": False},
            {"max_pairs": True},
            {"learning_rate": True},
            {"batch_norm": "false"},
            {"batch_norm": 1},
        ],
    )
    def test_invalid_rejected(self, kw):
        with pytest.raises(TrainError):
            TrainConfig(**kw)


# ----------------------------------------------------------------------
# Prediction heads
# ----------------------------------------------------------------------

class TestDPred:
    def test_identical_inputs_give_zero(self):
        rng = np.random.default_rng(0)
        mlp = random_mlp(rng, (2, 4, 2))
        hnn = random_hnn(rng, (2, 4, 2))
        x = np.array([0.3, -1.2])
        assert d_pred_mlp(mlp, x, x) == 0.0
        assert d_pred_hnn(hnn, x, x) == 0.0

    def test_identity_network_euclidean(self):
        p = MlpParams(((np.eye(2), np.zeros(2)),))
        assert d_pred_mlp(p, [0.0, 0.0], [3.0, 4.0]) == pytest.approx(5.0)

    def test_matches_forward_composition(self):
        rng = np.random.default_rng(1)
        p = random_mlp(rng, (3, 5, 2))
        x1, x2 = rng.normal(size=3), rng.normal(size=3)
        want = float(np.linalg.norm(mlp_forward(p, x1) - mlp_forward(p, x2)))
        assert d_pred_mlp(p, x1, x2) == pytest.approx(want, rel=1e-15)

    def test_hnn_identity_collapses_to_lift(self):
        p = hnn_from_mlp(MlpParams(((np.eye(2), np.zeros(2)),)))
        x1, x2 = np.array([0.5, -0.25]), np.array([1.0, 2.0])
        want = distance(
            exp_map(basepoint(2), lift(x1)), exp_map(basepoint(2), lift(x2))
        )
        assert d_pred_hnn(p, x1, x2) == pytest.approx(want, rel=1e-12)

    def test_hnn_symmetric(self):
        rng = np.random.default_rng(2)
        p = random_hnn(rng, (2, 4, 3))
        x1, x2 = rng.normal(size=2), rng.normal(size=2)
        assert d_pred_hnn(p, x1, x2) == d_pred_hnn(p, x2, x1)


class TestLossMse:
    def test_perfect_predictor(self):
        t = gen_binary(3)
        metric = tree_metric(t)
        iu, ju = np.triu_indices(t.n_nodes, k=1)
        u, v = iu[:20], ju[:20]
        assert loss_mse(u, v, metric.matrix[u, v], lambda a, b: metric.dist(a, b)) == 0.0

    def test_constant_zero_on_unit_pairs(self):
        assert loss_mse([0, 1, 2], [3, 4, 5], np.ones(3), lambda a, b: 0.0) == pytest.approx(1.0)

    def test_matches_brute_force(self):
        rng = np.random.default_rng(3)
        u = np.arange(10)
        v = np.arange(10) + 10
        d = rng.uniform(0.5, 3.0, 10)
        preds = {(a, b): rng.uniform(0.5, 3.0) for a, b in zip(u, v)}
        want = sum((d[i] - preds[(u[i], v[i])]) ** 2 for i in range(10)) / 10
        got = loss_mse(u, v, d, lambda a, b: preds[(a, b)])
        assert got == pytest.approx(want, rel=1e-14)


# ----------------------------------------------------------------------
# Tape towers against the reference forwards
# ----------------------------------------------------------------------

class TestTowers:
    def test_mlp_rows_match_forward(self):
        rng = np.random.default_rng(4)
        p = random_mlp(rng, (3, 6, 4, 2))
        X = rng.normal(size=(9, 3))
        rows = tr._predict_rows(p, X, batch_norm=False)
        want = np.stack([mlp_forward(p, x) for x in X])
        assert_allclose(rows, want, rtol=1e-12, atol=1e-14)

    @pytest.mark.parametrize("bn", [False, True])
    def test_tape_records_one_node_per_layer(self, bn):
        # a leaf for X and for each A and b, one affine node per layer, and
        # between layers one relu node (after one batch_norm node with BN)
        rng = np.random.default_rng(6)
        p = random_mlp(rng, (3, 6, 4, 2))
        tape = Tape()
        tr._tower(tape, p, rng.normal(size=(5, 3)), bn, None)
        assert len(tape.nodes) == 1 + 2 * 3 + 3 + 2 * (1 + bn)

    def test_hnn_rows_match_forward(self):
        # the HNN's training rows are tangent vectors at the apex: with every
        # bias point at the apex, Exp_0 of a row is the network's output; the
        # bias points do not enter the rows at all
        rng = np.random.default_rng(5)
        p = random_hnn(rng, (3, 5, 4, 2))
        p0 = hnn_from_mlp(MlpParams(tuple((A, b) for A, b, _ in p.layers)))
        X = rng.normal(size=(7, 3))
        rows = tr._predict_rows(p0, X, batch_norm=False)
        assert np.array_equal(rows, tr._predict_rows(p, X, batch_norm=False))
        got = np.stack([exp_map(basepoint(2), lift(u)).coords for u in rows])
        want = np.stack([hnn_forward(p0, x).coords for x in X])
        assert_allclose(got, want, rtol=1e-10, atol=1e-12)

    def test_hnn_rows_stay_on_sheet(self):
        # the point a row names, Exp_0(u), lies on the sheet at distance |u|
        # from the apex, and the head measures it so against a zero row
        rng = np.random.default_rng(6)
        p = random_hnn(rng, (2, 8, 3))
        X = rng.normal(size=(11, 2)) * 2.0
        rows = tr._predict_rows(p, X, batch_norm=False)
        pts = np.stack([exp_map(basepoint(3), lift(u)).coords for u in rows])
        resid = 1.0 + np.sum(pts[:, :-1] ** 2, axis=1) - pts[:, -1] ** 2
        assert np.max(np.abs(resid)) <= 1e-8 * np.max(pts[:, -1] ** 2) + 1e-8
        U = np.vstack([rows, np.zeros(3)])
        idx = np.arange(len(rows))
        got = tr._hyperbolic_head(U, idx, np.full(len(rows), len(rows)))
        assert_allclose(got, np.linalg.norm(rows, axis=1), rtol=1e-12)
        apex = basepoint(3)
        assert_allclose(got, [distance(HPoint(c), apex) for c in pts], rtol=1e-10)

    @pytest.mark.parametrize("dims", [(3, 5, 4, 2), (2, 8, 8, 3)])
    def test_hnn_head_matches_forward_distances(self, dims):
        # the training tower keeps only the affine layers: every bias point
        # (here away from the apex) acts on the outputs as an isometry
        rng = np.random.default_rng(5)
        p = random_hnn(rng, dims)
        X = rng.normal(size=(7, dims[0]))
        rows = tr._predict_rows(p, X, batch_norm=False)
        iu, ju = np.triu_indices(len(X), k=1)
        got = tr._hyperbolic_head(rows, iu, ju)
        want = [distance(hnn_forward(p, X[i]), hnn_forward(p, X[j])) for i, j in zip(iu, ju)]
        assert_allclose(got, want, rtol=1e-10)


def head_cases(r, k=3, seed=0):
    """Tangent-row pairs at radius r: equal radii, nearly equal directions,
    one collinear pair (directions equal up to rounding) and a zero row."""
    rng = np.random.default_rng(seed)
    v = rng.normal(size=k)
    v /= np.linalg.norm(v)
    w = rng.normal(size=k)
    w -= (w @ v) * v
    w /= np.linalg.norm(w)
    near = math.cos(1e-7) * v + math.sin(1e-7) * w
    far = math.cos(1.0) * v + math.sin(1.0) * w
    return [
        ("equal-radii-near", r * v, r * near),
        ("equal-radii-far", r * v, r * far),
        ("near", r * v, 1.3 * r * near),
        ("collinear", r * v, r * (1.0 + 1e-9) * v),
        ("zero-row", r * v, np.zeros(k)),
    ]


class TestHyperbolicHead:
    """The intrinsic head against mpmath, which forms both ambient points
    Exp_0 u at high precision. The radii span the series regime (1e-9),
    the float64 limit of ambient points (30; cosh 30 = 5e12) and a radius
    whose sinh^2 overflows float64 (400).

    The collinear pair is the worst-conditioned input: at r = 400 one ulp
    of a row turns the direction by 1e-16 rad, which sinh 400 amplifies, so
    the gradient check there holds to 1e-6 of its largest entry (a head that
    normalizes each row before taking the chord misses by 100%).
    """

    @pytest.mark.parametrize("r", [1e-9, 1.0, 30.0, 400.0])
    def test_distance_and_gradient_against_mpmath(self, r):
        h = mp.mpf(10) ** -40
        for name, u1, u2 in head_cases(r):
            d, G1, G2 = tr._hyperbolic_head(np.stack([u1, u2]), [0], [1], with_grad=True)
            want = float(mp_apex_distance(u1, u2))
            assert abs(d[0] - want) <= 1e-10 * want, (name, d[0], want)
            fd = []
            with mp.workdps(150):
                for row in (0, 1):
                    for c in range(u1.size):
                        ends = []
                        for sgn in (1, -1):
                            us = [[mp.mpf(x) for x in u1], [mp.mpf(x) for x in u2]]
                            us[row][c] += sgn * h
                            ends.append(mp_apex_distance(*us, dps=150))
                        fd.append(float((ends[0] - ends[1]) / (2 * h)))
            fd = np.array(fd)
            got = np.concatenate([G1[0], G2[0]])
            assert np.max(np.abs(got - fd)) <= 1e-6 * np.max(np.abs(fd)), (name, got, fd)

    def test_coincident_rows_give_zero_distance_and_gradient(self):
        U = np.array([[0.3, -1.2], [0.3, -1.2], [0.0, 0.0], [0.0, 0.0]])
        d, G1, G2 = tr._hyperbolic_head(U, [0, 2], [1, 3], with_grad=True)
        assert np.all(d == 0.0)
        assert np.all(G1 == 0.0) and np.all(G2 == 0.0)

    def test_distance_matrix(self):
        # every entry of the all-pairs kernel is the head on that pair; its
        # symmetry and memory are checked in test_kernels.py
        rng = np.random.default_rng(16)
        n = 500
        U = rng.normal(size=(n, 2)) * 3.0
        M = kernels.pairwise_intrinsic(U)
        iu, ju = np.triu_indices(n, k=1)
        assert np.array_equal(M[iu, ju], tr._hyperbolic_head(U, iu, ju))

    def test_log_branch_hand_off(self):
        # d = 2 asinh(e^h) below h = 20 and 2 (h + ln 2) above: the two
        # sides of the seam agree to rounding
        u1 = np.array([[20.0 - 1e-9, 0.0], [20.0 + 1e-9, 0.0], [0.0, 0.0]])
        d = tr._hyperbolic_head(u1, [0, 1], [2, 2])
        assert_allclose(d, [20.0 - 1e-9, 20.0 + 1e-9], rtol=1e-15)


class TestEuclideanHead:
    """The R^k head against numpy and central differences."""

    def test_distance_against_norm(self):
        rng = np.random.default_rng(17)
        U = rng.normal(size=(6, 3)) * 2.0
        i1 = np.array([0, 1, 2, 5, 3, 0])
        i2 = np.array([1, 0, 4, 2, 4, 5])
        want = np.linalg.norm(U[i1] - U[i2], axis=1)
        assert_allclose(tr._euclidean_head(U, i1, i2), want, rtol=1e-14)
        d, _, _ = tr._euclidean_head(U, i1, i2, with_grad=True)
        assert np.array_equal(d, tr._euclidean_head(U, i1, i2))

    def test_row_gradients_against_central_differences(self):
        rng = np.random.default_rng(18)
        U = rng.normal(size=(5, 3))
        i1 = np.array([0, 2, 4, 1])
        i2 = np.array([1, 3, 0, 4])
        _, G1, G2 = tr._euclidean_head(U, i1, i2, with_grad=True)
        h = 1e-6
        for p in range(i1.size):
            j1, j2 = i1[p : p + 1], i2[p : p + 1]
            for G, row in ((G1, i1[p]), (G2, i2[p])):
                for c in range(U.shape[1]):
                    up, dn = U.copy(), U.copy()
                    up[row, c] += h
                    dn[row, c] -= h
                    fd = (tr._euclidean_head(up, j1, j2)[0] - tr._euclidean_head(dn, j1, j2)[0]) / (2 * h)
                    assert abs(G[p, c] - fd) <= 1e-8, (p, row, c, G[p, c], fd)

    def test_coincident_rows_give_zero_distance_and_gradient(self):
        U = np.array([[0.3, -1.2], [0.3, -1.2], [0.0, 0.0], [0.0, 0.0]])
        d, G1, G2 = tr._euclidean_head(U, [0, 2, 1], [1, 3, 1], with_grad=True)
        assert np.all(d == 0.0)
        assert np.all(G1 == 0.0) and np.all(G2 == 0.0)


# ----------------------------------------------------------------------
# Gradients vs finite differences
# ----------------------------------------------------------------------

def loss_at(params, x1, x2, dt, bn=False):
    return grad(params, x1, x2, dt, bn)[0]


def check_mlp_fd(p, x1, x2, dt, bn=False, h=1e-5, tol=1e-4):
    _, grads = grad(p, x1, x2, dt, bn)
    for li, (A, b) in enumerate(p.layers):
        for arr_idx, arr in enumerate((A, b)):
            got = grads[li][arr_idx]
            flat = arr.ravel()
            for k in range(flat.size):
                step = h * max(1.0, abs(flat[k]))
                for sgn, store in ((1, "up"), (-1, "dn")):
                    mod = arr.copy()
                    mod.ravel()[k] = flat[k] + sgn * step
                    layers = list(p.layers)
                    pair = list(layers[li])
                    pair[arr_idx] = mod
                    layers[li] = tuple(pair)
                    val = loss_at(MlpParams(tuple(layers)), x1, x2, dt, bn)
                    if sgn == 1:
                        up = val
                    else:
                        dn = val
                fd = (up - dn) / (2 * step)
                an = got.ravel()[k]
                assert abs(an - fd) <= tol * max(abs(fd), 1e-6), (
                    f"layer {li} arr {arr_idx} entry {k}: {an} vs {fd}"
                )


class TestGradFiniteDifferences:
    def test_mlp_two_layer(self):
        rng = np.random.default_rng(7)
        p = random_mlp(rng, (2, 6, 2))
        x1 = rng.normal(size=(5, 2))
        x2 = rng.normal(size=(5, 2))
        dt = rng.uniform(0.5, 2.5, 5)
        check_mlp_fd(p, x1, x2, dt)

    def test_mlp_with_batch_norm(self):
        rng = np.random.default_rng(8)
        p = random_mlp(rng, (2, 5, 2))
        x1 = rng.normal(size=(6, 2))
        x2 = rng.normal(size=(6, 2))
        dt = rng.uniform(0.5, 2.5, 6)
        check_mlp_fd(p, x1, x2, dt, bn=True)

    def test_hnn_affine_entries(self):
        rng = np.random.default_rng(9)
        p = random_hnn(rng, (2, 4, 2))
        x1 = rng.normal(size=(5, 2))
        x2 = rng.normal(size=(5, 2))
        dt = rng.uniform(0.5, 2.5, 5)
        _, (d_entry, layer_grads) = grad(p, x1, x2, dt)
        h = 1e-5
        for li, (A, b, c) in enumerate(p.layers):
            for arr_idx, arr in enumerate((A, b)):
                got = layer_grads[li][arr_idx]
                flat = arr.ravel()
                for k in range(flat.size):
                    step = h * max(1.0, abs(flat[k]))
                    vals = []
                    for sgn in (1, -1):
                        mod = arr.copy()
                        mod.ravel()[k] = flat[k] + sgn * step
                        layers = list(p.layers)
                        trip = list(layers[li])
                        trip[arr_idx] = mod
                        layers[li] = tuple(trip)
                        vals.append(loss_at(HnnParams(p.entry_bias, tuple(layers)), x1, x2, dt))
                    fd = (vals[0] - vals[1]) / (2 * step)
                    an = got.ravel()[k]
                    assert abs(an - fd) <= 1e-3 * max(abs(fd), 1e-6)

    def test_hnn_bias_chart_directions(self):
        rng = np.random.default_rng(10)
        p = random_hnn(rng, (2, 4, 2))
        x1 = rng.normal(size=(5, 2))
        x2 = rng.normal(size=(5, 2))
        dt = rng.uniform(0.5, 2.5, 5)
        _, (d_entry, layer_grads) = grad(p, x1, x2, dt)
        h = 1e-5

        def probe(build, rgrad, c):
            # the Riemannian gradient pairs with chart directions through
            # the Minkowski product: <rgrad|v>_M = directional derivative
            for v in tangent_basis(c):
                vals = []
                for sgn in (1, -1):
                    moved = project_to_hyperboloid(c + sgn * h * v)
                    vals.append(loss_at(build(moved), x1, x2, dt))
                fd = (vals[0] - vals[1]) / (2 * h)
                an = float(minkowski_inner(rgrad, v))
                assert abs(an - fd) <= 1e-3 * max(abs(fd), 1e-5)

        probe(lambda m: HnnParams(m, p.layers), d_entry, p.entry_bias.coords)
        for li in range(len(p.layers)):
            A, b, c = p.layers[li]

            def build(m, li=li):
                layers = list(p.layers)
                layers[li] = (layers[li][0], layers[li][1], m)
                return HnnParams(p.entry_bias, tuple(layers))

            probe(build, layer_grads[li][2], c.coords)

    def test_bias_gradients_are_tangent(self):
        rng = np.random.default_rng(11)
        p = random_hnn(rng, (2, 5, 3))
        x1 = rng.normal(size=(4, 2))
        x2 = rng.normal(size=(4, 2))
        dt = rng.uniform(0.5, 2.0, 4)
        _, (d_entry, layer_grads) = grad(p, x1, x2, dt)
        assert not np.any(d_entry) and not any(np.any(dc) for _, _, dc in layer_grads)
        assert abs(minkowski_inner(d_entry, p.entry_bias.coords)) < 1e-9
        for (dA, db, dc), (_, _, c) in zip(layer_grads, p.layers):
            assert abs(minkowski_inner(dc, c.coords)) < 1e-9

    def test_zero_residual_gives_zero_gradient(self):
        rng = np.random.default_rng(12)
        for kind in ("mlp", "hnn"):
            p = random_mlp(rng, (2, 4, 2)) if kind == "mlp" else random_hnn(rng, (2, 4, 2))
            x1 = rng.normal(size=(3, 2))
            x2 = rng.normal(size=(3, 2))
            if kind == "mlp":
                dt = np.array([d_pred_mlp(p, a, b) for a, b in zip(x1, x2)])
            else:
                dt = np.array([d_pred_hnn(p, a, b) for a, b in zip(x1, x2)])
            loss, grads = grad(p, x1, x2, dt)
            assert loss <= 1e-24
            flat = flatten_grads(p, grads)
            for g in flat:
                assert_allclose(g, 0.0, atol=1e-10)

    def test_non_finite_loss_raises(self):
        p = MlpParams(((np.full((2, 2), 1e200), np.zeros(2)),))
        with pytest.raises(FloatingPointError):
            grad(p, np.ones((2, 2)), -np.ones((2, 2)), np.ones(2))

    def test_shape_mismatch_rejected(self):
        rng = np.random.default_rng(13)
        p = random_mlp(rng, (2, 3, 2))
        with pytest.raises(TrainError):
            grad(p, np.ones((3, 2)), np.ones((2, 2)), np.ones(3))


class TestDistinctRows:
    """The training step runs the tower once per distinct node of the batch;
    pairs that share endpoints must give the loss and gradients of the
    stacked batch that ``grad`` runs."""

    @staticmethod
    def shared_endpoint_ids(rng, n_rows=6, n_pairs=40):
        """(node rows, i, j, d_true) for n_pairs pairs (i[p], j[p]) of node
        ids over n_rows nodes; the defaults draw more pairs than there are
        ordered pairs, so some repeat."""
        nodes = rng.normal(size=(n_rows, 2))
        i = rng.integers(0, n_rows, n_pairs)
        j = (i + rng.integers(1, n_rows, n_pairs)) % n_rows
        return nodes, i, j, rng.uniform(0.5, 2.5, n_pairs)

    @classmethod
    def shared_endpoint_pairs(cls, rng, n_rows=6, n_pairs=40):
        nodes, i, j, dt = cls.shared_endpoint_ids(rng, n_rows, n_pairs)
        return nodes[i], nodes[j], dt

    @staticmethod
    def probes(p, grads, h):
        """(move, analytic derivative, step) along every affine entry and, for
        an HNN, every chart direction at each bias point; move(s) returns the
        parameters moved by s along the probe."""
        arrays = tr._flatten(p)
        for k, (arr, g) in enumerate(zip(arrays, flatten_grads(p, grads))):
            for i, e in enumerate(np.eye(arr.size)):

                def move(s, k=k, e=e.reshape(arr.shape)):
                    moved = list(arrays)
                    moved[k] = arrays[k] + s * e
                    return tr._rebuild(p, moved)

                yield move, g.ravel()[i], h * max(1.0, abs(arr.ravel()[i]))
        if isinstance(p, HnnParams):
            d_entry, layer_grads = grads
            points = [p.entry_bias] + [c for _, _, c in p.layers]
            bias_grads = [d_entry] + [dc for _, _, dc in layer_grads]
            for j, (c, g) in enumerate(zip(points, bias_grads)):
                for v in tangent_basis(c.coords):

                    def move(s, j=j, v=v):
                        moved = list(points)
                        moved[j] = project_to_hyperboloid(moved[j].coords + s * v)
                        layers = tuple((A, b, m) for (A, b, _), m in zip(p.layers, moved[1:]))
                        return HnnParams(moved[0], layers)

                    yield move, float(minkowski_inner(g, v)), h

    @classmethod
    def check_fd(cls, p, x1, x2, dt, bn, h=1e-5, tol=1e-4):
        """Central differences along every probe of ``probes``."""
        _, grads = grad(p, x1, x2, dt, bn)
        for move, an, step in cls.probes(p, grads, h):
            fd = (loss_at(move(step), x1, x2, dt, bn) - loss_at(move(-step), x1, x2, dt, bn)) / (2 * step)
            assert abs(an - fd) <= tol * max(abs(fd), 1e-5), (an, fd)

    @pytest.mark.parametrize("bn", [False, True])
    @pytest.mark.parametrize("kind", ["mlp", "hnn"])
    def test_matches_stacked_batch(self, kind, bn):
        rng = np.random.default_rng(14)
        x1, x2, dt = self.shared_endpoint_pairs(rng)
        assert np.unique(np.concatenate([x1, x2]), axis=0).shape[0] == 6
        p = random_mlp(rng, (2, 5, 4, 2)) if kind == "mlp" else random_hnn(rng, (2, 5, 4, 2))
        loss, _ = grad(p, x1, x2, dt, bn)
        assert loss == pytest.approx(stacked_pair_loss(p, x1, x2, dt, bn), rel=1e-12)
        self.check_fd(p, x1, x2, dt, bn, tol=1e-4 if kind == "mlp" else 1e-3)

    def test_held_out_mse_matches_stacked_batch(self):
        rng = np.random.default_rng(15)
        X, i, j, dt = self.shared_endpoint_ids(rng)
        p = random_hnn(rng, (2, 5, 2))
        got = tr._pair_mse(p, *tr._node_batch(X, i, j, dt), batch_norm=True)
        assert got == pytest.approx(stacked_pair_loss(p, X[i], X[j], dt, True), rel=1e-12)

    def test_node_batch(self):
        # the distinct nodes of the batch in node order, unused nodes skipped,
        # and each node's count among the 2B endpoints
        X = np.arange(20.0).reshape(10, 2)
        i, j = np.array([7, 2, 7, 4, 2]), np.array([2, 4, 2, 7, 9])
        d = np.arange(5.0)
        rows, j1, j2, dt, counts = tr._node_batch(X, i, j, d)
        assert np.array_equal(rows, X[[2, 4, 7, 9]])
        assert np.array_equal(rows[j1], X[i]) and np.array_equal(rows[j2], X[j])
        assert np.array_equal(counts, [4, 2, 3, 1]) and dt is d

    @pytest.mark.parametrize("bn", [False, True])
    @pytest.mark.parametrize("kind", ["mlp", "hnn"])
    def test_node_step_matches_grad(self, kind, bn):
        # repeated pairs, nodes in both endpoint sets, and nodes that no pair
        # of the batch uses; grad runs the stacked rows of both endpoint
        # sets, with no deduplication
        rng = np.random.default_rng(18)
        _, i, j, dt = self.shared_endpoint_ids(rng)
        used = np.array([1, 2, 4, 5, 7, 8])
        i, j = used[i], used[j]
        assert len(set(zip(i.tolist(), j.tolist()))) < i.size and set(i.tolist()) & set(j.tolist())
        X = rng.normal(size=(10, 2))
        p = random_mlp(rng, (2, 5, 4, 2)) if kind == "mlp" else random_hnn(rng, (2, 5, 4, 2))
        loss, flat = tr._step(p, *tr._node_batch(X, i, j, dt), bn)
        want_loss, grads = grad(p, X[i], X[j], dt, bn)
        assert loss == pytest.approx(want_loss, rel=1e-12)
        want = flatten_grads(p, grads)
        assert len(flat) == len(want)
        # an MLP's output bias gradient is 0 up to rounding (its distances
        # do not move under translation), so the floor is the largest entry
        scale = max(np.max(np.abs(w)) for w in want)
        for g, w in zip(flat, want):
            assert_allclose(g, w, rtol=1e-12, atol=1e-12 * scale)


# ----------------------------------------------------------------------
# Initialization
# ----------------------------------------------------------------------

class TestInitParams:
    def test_mlp_shape(self):
        cfg = TrainConfig(hidden_layers=3, hidden_width=16, embed_dim=4)
        p = init_params(cfg, in_dim=2)
        dims = [A.shape for A, _ in p.layers]
        assert dims == [(16, 2), (16, 16), (16, 16), (4, 16)]
        assert all(np.all(b == 0.0) for _, b in p.layers)

    def test_hnn_starts_at_apex_with_shared_affine(self):
        cfg_m = TrainConfig(model_kind="mlp", hidden_layers=2, hidden_width=8)
        cfg_h = TrainConfig(model_kind="hnn", hidden_layers=2, hidden_width=8)
        m = init_params(cfg_m, in_dim=2)
        h = init_params(cfg_h, in_dim=2)
        for (Am, bm), (Ah, bh, c) in zip(m.layers, h.layers):
            np.testing.assert_array_equal(Am, Ah)
            np.testing.assert_array_equal(bm, bh)
            assert c.coords[-1] == 1.0 and not np.any(c.coords[:-1])
        assert h.entry_bias.coords[-1] == 1.0

    def test_seed_controls_draw(self):
        cfg = TrainConfig(seed=1)
        a = init_params(cfg, 2)
        b = init_params(TrainConfig(seed=1), 2)
        c = init_params(TrainConfig(seed=2), 2)
        np.testing.assert_array_equal(a.layers[0][0], b.layers[0][0])
        assert not np.array_equal(a.layers[0][0], c.layers[0][0])


# ----------------------------------------------------------------------
# The training loop
# ----------------------------------------------------------------------

SMALL = dict(hidden_layers=2, hidden_width=8, batch_size=64, epochs=5)


class TestTrainEmbedding:
    @pytest.mark.parametrize("kind", ["mlp", "hnn"])
    def test_two_node_tree_converges(self, kind):
        cfg = TrainConfig(
            model_kind=kind, epochs=200, batch_size=8,
            hidden_layers=2, hidden_width=8, learning_rate=1e-2,
        )
        params, history, report = train_embedding(two_node_tree(), cfg)
        assert history[-1].train_mse < 1e-4
        assert len(history) == 200

    def test_deterministic_history(self):
        t = gen_binary(3)
        spring_layout(t, dim=2, seed=0)
        cfg = TrainConfig(seed=3, **SMALL)
        _, h1, r1 = train_embedding(t, cfg)
        _, h2, r2 = train_embedding(t, cfg)
        assert h1 == h2
        assert r1 == r2

    def test_history_schema(self):
        t = gen_binary(2)
        spring_layout(t, dim=2, seed=0)
        cfg = TrainConfig(seed=0, **SMALL)
        _, history, _ = train_embedding(t, cfg)
        assert [row.epoch for row in history] == list(range(cfg.epochs))
        for row in history:
            assert math.isfinite(row.train_mse) and math.isfinite(row.test_mse)

    def test_hnn_beats_mlp_on_binary_tree(self):
        t = gen_binary(5)
        spring_layout(t, dim=2, seed=0)
        base = TrainConfig(
            seed=0, epochs=30, batch_size=512, hidden_layers=3,
            hidden_width=32, learning_rate=1e-2, embed_dim=2,
        )
        _, hist_m, rep_m = train_embedding(t, replace(base, model_kind="mlp"))
        _, hist_h, rep_h = train_embedding(t, replace(base, model_kind="hnn"))
        assert hist_h[-1].test_mse < hist_m[-1].test_mse

    def test_median_loss_nonincreasing_early(self):
        t = gen_binary(4)
        spring_layout(t, dim=2, seed=0)
        rows = []
        for seed in range(5):
            cfg = TrainConfig(
                seed=seed, epochs=5, batch_size=256,
                hidden_layers=2, hidden_width=16, learning_rate=1e-2,
            )
            _, history, _ = train_embedding(t, cfg)
            rows.append([r.train_mse for r in history])
        med = np.median(np.array(rows), axis=0)
        assert np.all(np.diff(med) <= 1e-12)

    def test_hyperbolic_biases_stay_on_sheet(self):
        t = gen_binary(3)
        spring_layout(t, dim=2, seed=0)
        cfg = TrainConfig(model_kind="hnn", seed=1, **SMALL)
        params, _, _ = train_embedding(t, cfg)
        pts = [params.entry_bias] + [c for _, _, c in params.layers]
        for c in pts:
            v = c.coords
            resid = abs(1.0 + float(v[:-1] @ v[:-1]) - float(v[-1] * v[-1]))
            assert resid <= 1e-8 * max(1.0, v[-1] ** 2)

    @pytest.mark.parametrize("optimizer", ["adam", "sgd"])
    def test_hnn_biases_keep_their_apex_init(self, optimizer):
        # pair distances do not depend on the bias points, so their gradient
        # is exactly 0 and neither optimizer moves them
        t = gen_binary(3)
        spring_layout(t, dim=2, seed=0)
        cfg = TrainConfig(model_kind="hnn", optimizer=optimizer, seed=1, **SMALL)
        params, _, _ = train_embedding(t, cfg)
        for c in [params.entry_bias] + [c for _, _, c in params.layers]:
            assert np.array_equal(c.coords, basepoint(c.dim).coords)

    def test_mlp_divergence_raises_with_epoch(self):
        # seed 1: the first giant step leaves live relu paths, so the next
        # forward overflows; some seeds instead kill every unit and stall
        t = gen_binary(3)
        spring_layout(t, dim=2, seed=0)
        cfg = TrainConfig(optimizer="sgd", learning_rate=1e6, seed=1, **SMALL)
        with pytest.raises(TrainDivergenceError) as err:
            train_embedding(t, cfg)
        assert isinstance(err.value.epoch, int)
        assert err.value.epoch >= 0
        assert "epoch" in str(err.value)

    def test_hnn_divergence_raises(self):
        t = gen_binary(3)
        spring_layout(t, dim=2, seed=0)
        cfg = TrainConfig(model_kind="hnn", learning_rate=1e6, seed=0, **SMALL)
        with pytest.raises(TrainDivergenceError):
            train_embedding(t, cfg)

    @pytest.mark.parametrize("kind", ["mlp", "hnn"])
    def test_step_to_non_finite_params_is_divergence(self, kind):
        # the first loss is finite, but one SGD step of size 1e308 overflows
        # the affine arrays, which the parameter containers reject
        t = gen_binary(3)
        spring_layout(t, dim=2, seed=0)
        cfg = TrainConfig(model_kind=kind, optimizer="sgd", learning_rate=1e308, seed=1, **SMALL)
        with pytest.raises(TrainDivergenceError, match="left the domain") as err:
            train_embedding(t, cfg)
        assert err.value.epoch == 0

    def test_memory_error_in_a_step_propagates(self, monkeypatch):
        # only a rejected parameter set is divergence; running out of memory
        # is not, so the grid can record it as error:MemoryError
        def out_of_memory(params, arrays):
            raise MemoryError

        monkeypatch.setattr(tr, "_rebuild", out_of_memory)
        t = gen_binary(3)
        spring_layout(t, dim=2, seed=0)
        with pytest.raises(MemoryError):
            train_embedding(t, TrainConfig(**SMALL))

    @pytest.mark.parametrize("kind", ["mlp", "hnn"])
    def test_training_batches_by_node_id(self, monkeypatch, kind):
        # every step runs the tower once per distinct node of its batch,
        # never once per pair endpoint
        rows = []
        step = tr._step

        def spy(params, X, i1, i2, d_true, counts, batch_norm):
            rows.append((X.shape[0], np.unique(np.concatenate([i1, i2])).size, i1.size))
            assert counts.sum() == 2 * i1.size
            return step(params, X, i1, i2, d_true, counts, batch_norm)

        monkeypatch.setattr(tr, "_step", spy)
        t = gen_binary(3)
        spring_layout(t, dim=2, seed=0)
        _, history, _ = train_embedding(t, TrainConfig(model_kind=kind, **{**SMALL, "epochs": 1}))
        assert len(history) == 1 and rows
        assert all(n_rows == n_used <= t.n_nodes < 2 * n_pairs for n_rows, n_used, n_pairs in rows)

    def test_missing_layout_rejected(self):
        with pytest.raises(TrainError, match="layout"):
            train_embedding(gen_binary(2), TrainConfig(**SMALL))

    def test_single_node_rejected(self):
        t = WeightedTree([0], [], coords={0: [0.0, 0.0]})
        with pytest.raises(TrainError):
            train_embedding(t, TrainConfig(**SMALL))

    def test_max_pairs_subsample(self):
        t = gen_binary(4)
        spring_layout(t, dim=2, seed=0)
        cfg = TrainConfig(seed=0, max_pairs=30, **SMALL)
        _, history, report = train_embedding(t, cfg)
        assert len(history) == cfg.epochs
        assert math.isfinite(report.beta)

    @pytest.mark.parametrize("kind", ["mlp", "hnn"])
    def test_batch_norm_path_runs_deterministically(self, kind):
        t = gen_binary(3)
        spring_layout(t, dim=2, seed=0)
        cfg = TrainConfig(model_kind=kind, batch_norm=True, seed=2, **SMALL)
        _, h1, _ = train_embedding(t, cfg)
        _, h2, _ = train_embedding(t, cfg)
        assert h1 == h2
        assert all(math.isfinite(r.train_mse) for r in h1)

    def test_report_uses_model_geometry(self):
        t = gen_binary(3)
        spring_layout(t, dim=2, seed=0)
        cfg = TrainConfig(seed=0, **SMALL)
        params, _, report = train_embedding(t, cfg)
        X = np.stack([t.coords[i] for i in tree_metric(t).ids])
        pts = tr._predict_rows(params, X, batch_norm=False)
        metric = tree_metric(t)
        iu, ju = np.triu_indices(t.n_nodes, k=1)
        ds = np.linalg.norm(pts[iu] - pts[ju], axis=1)
        ratios = ds / metric.matrix[iu, ju]
        assert report.beta == pytest.approx(float(ratios.max()), rel=1e-12)
        assert report.alpha == pytest.approx(float(ratios.min()), rel=1e-12)
