"""Finite-difference checks of the training tower's forward and reverse pass
(``autodiff.Tape``) and of the training step built on it (``train._step``)."""

import tracemalloc

import numpy as np
import pytest
from numpy.testing import assert_allclose

from hyptree import train as tr
from hyptree.autodiff import Tape
from hyptree.networks import MlpParams, hnn_from_mlp

COUNTS = np.array([3.0, 1.0, 5.0, 2.0, 1.0, 4.0, 2.0])


def fd_grad(fn, x0, h=1e-6):
    """Central finite differences of a scalar function of one array."""
    x0 = np.asarray(x0, np.float64)
    g = np.zeros(x0.size)
    flat = x0.ravel().copy()
    for i in range(flat.size):
        step = h * max(1.0, abs(flat[i]))
        up = flat.copy()
        up[i] += step
        dn = flat.copy()
        dn[i] -= step
        g[i] = (fn(up.reshape(x0.shape)) - fn(dn.reshape(x0.shape))) / (2 * step)
    return g.reshape(x0.shape)


def random_layers(rng, dims):
    return [(rng.normal(size=(fo, fi)), rng.normal(size=fo)) for fi, fo in zip(dims[:-1], dims[1:])]


def tape_mse(layers, X, batch_norm, weights, T):
    """Mean of (T - Y)^2 over the entries of the tower's output rows Y."""
    return float(np.mean((T - Tape(layers, X, batch_norm, weights).output) ** 2))


def check_tape_grads(layers, X, T, batch_norm=False, weights=None, rtol=1e-5, atol=1e-8):
    """``backward``'s (dA, db) of ``tape_mse`` against central differences of
    every A and b; the cotangent reaching the output differs entry by entry."""
    tape = Tape(layers, X, batch_norm, weights)
    grads = tape.backward(-2.0 * (T - tape.output) / T.size)
    assert len(grads) == len(layers)
    for k, (A, b) in enumerate(layers):
        for j, arr in enumerate((A, b)):

            def loss_at(x, k=k, j=j):
                moved = list(layers)
                moved[k] = (x, b) if j == 0 else (A, x)
                return tape_mse(moved, X, batch_norm, weights, T)

            assert_allclose(grads[k][j], fd_grad(loss_at, arr), rtol=rtol, atol=atol)


def z_of(node):
    """The batch norm's output that made a record's input rows, before the ReLU."""
    return node.c * node.rs[None, :]


class TestAffineOps:
    def test_affine_value_and_grads(self):
        rng = np.random.default_rng(1)
        X = rng.normal(size=(4, 3))
        layers = random_layers(rng, (3, 5))
        A, b = layers[0]
        assert np.array_equal(Tape(layers, X).output, X @ A.T + b)
        check_tape_grads(layers, X, rng.normal(size=(4, 5)))

    def test_two_layer_tower(self):
        rng = np.random.default_rng(0)
        X = rng.normal(size=(4, 3))
        layers = random_layers(rng, (3, 5, 2))
        (A1, b1), (A2, b2) = layers
        assert np.array_equal(Tape(layers, X).output, np.maximum(X @ A1.T + b1, 0.0) @ A2.T + b2)
        check_tape_grads(layers, X, rng.normal(size=(4, 2)))


class TestRowOps:
    def test_pair_rows_repeated_indices(self):
        # the head's row gradients sum over repeated indices, in pair order
        # as np.add.at sums them, and row 3, which no pair uses, gets 0
        rng = np.random.default_rng(6)
        i1 = np.array([0, 2, 2, 1, 4, 0])
        i2 = np.array([1, 2, 4, 0, 2, 4])
        idx = np.concatenate([i1, i2])
        rows = rng.normal(size=(idx.size, 2))
        want = np.zeros((5, 2))
        np.add.at(want, idx, rows)
        got = tr._scatter_rows(5, idx, rows)
        assert got.tobytes() == want.tobytes()
        assert np.all(got[3] == 0.0)
        # so the step's gradients do not see the row that no pair uses
        p = MlpParams(tuple(random_layers(rng, (2, 4, 2))))
        X = rng.normal(size=(5, 2))
        d = rng.uniform(0.5, 2.0, i1.size)
        first = tr._step(p.layers, tr._head(p), X, i1, i2, d, None, False)[1]
        X[3] = [7.0, -9.0]
        for g, h in zip(first, tr._step(p.layers, tr._head(p), X, i1, i2, d, None, False)[1]):
            assert g.tobytes() == h.tobytes()


class TestLossHeads:
    def test_mean_of_squared_residuals(self):
        rng = np.random.default_rng(8)
        for kind in ("mlp", "hnn"):
            p = step_params(rng, kind)
            X, i1, i2, d_true, counts = step_batch(rng)
            loss, _ = tr._step(p.layers, tr._head(p), X, i1, i2, d_true, counts, True)
            r = d_true - tr._head(p)(tr._predict_rows(p.layers, X, True, counts), i1, i2)
            assert loss == np.mean(r * r)

    def test_zero_residual_gives_zero_gradient(self):
        rng = np.random.default_rng(9)
        for kind in ("mlp", "hnn"):
            p = step_params(rng, kind)
            X, i1, i2, _, counts = step_batch(rng)
            d = tr._head(p)(tr._predict_rows(p.layers, X, True, counts), i1, i2)
            loss, flat = tr._step(p.layers, tr._head(p), X, i1, i2, d, counts, True)
            assert loss == 0.0
            assert all(np.all(g == 0.0) for g in flat)


class TestBackwardContract:
    def test_non_finite_loss_raises(self):
        rng = np.random.default_rng(10)
        X, i1, i2, d_true, counts = step_batch(rng)
        d_true[0] = np.inf
        with pytest.raises(FloatingPointError, match="loss is not finite"):
            p = step_params(rng, "mlp")
            tr._step(p.layers, tr._head(p), X, i1, i2, d_true, counts, False)

    def test_grads_reset_between_backward_calls(self):
        # a step keeps nothing from the one before it and writes none of its inputs
        rng = np.random.default_rng(11)
        p = step_params(rng, "hnn")
        batch = step_batch(rng)
        before = [a.tobytes() for a in batch]
        first = tr._step(p.layers, tr._head(p), *batch, True)
        second = tr._step(p.layers, tr._head(p), *batch, True)
        assert [a.tobytes() for a in batch] == before
        assert first[0] == second[0]
        for g, h in zip(first[1], second[1]):
            assert g.tobytes() == h.tobytes()


class TestBufferContract:
    """What a tape keeps: the layers' input rows, one row buffer per hidden
    layer (two with batch norm), the ReLU masks and nothing of X or of the
    reverse pass."""

    TARGET = np.random.default_rng(12).normal(size=(7, 2))

    def layers(self):
        return random_layers(np.random.default_rng(11), (3, 5, 4, 2))

    def X(self):
        return np.random.default_rng(13).normal(size=(7, 3))

    def test_relu_on_a_leaf_leaves_the_callers_array(self):
        # the first layer only reads X; the ReLUs write the later layers' rows
        X = self.X()
        X[0, 0] = -0.0
        before = X.tobytes()
        tape = Tape(self.layers(), X)
        assert tape.nodes[0].value is X
        tape.backward(self.TARGET - tape.output)
        assert X.tobytes() == before

    def test_batch_norm_on_a_leaf_leaves_the_callers_array(self):
        # batch norm centres the affine outputs in place, never X
        X = self.X()
        before = X.tobytes()
        tape = Tape(self.layers(), X, True, COUNTS)
        assert tape.nodes[0].value is X
        assert all(not np.shares_memory(X, node.c) for node in tape.nodes[1:])
        tape.backward(self.TARGET - tape.output)
        assert X.tobytes() == before

    def test_relu_reuses_the_buffer_of_the_op_before_it(self):
        # a tower of 3 hidden layers holds per hidden layer one row array,
        # the ReLU output written over the affine output, and a mask of 1/8
        # of a row array; with batch norm also the affine output, centred in
        # place. A tape that kept the affine output beside the ReLU output
        # would hold one more row array per layer (3.41 and 6.44 here)
        rng = np.random.default_rng(14)
        width, B = 64, 500
        layers = random_layers(rng, (3, width, width, width, 2))
        X = rng.normal(size=(B, 3))
        for bn, bound in ((False, 4.0), (True, 7.0)):
            tracemalloc.start()
            try:
                tape = Tape(layers, X, bn)
                held = tracemalloc.get_traced_memory()[0]
            finally:
                tracemalloc.stop()
            del tape
            assert held <= bound * B * width * 8, bn

    def test_batch_norm_relu_tower_grads(self):
        # the reverse pass re-forms the batch norm's output, which the relu overwrote
        check_tape_grads(self.layers(), self.X(), self.TARGET, True, COUNTS)

    def test_backward_twice_gives_bitwise_equal_leaf_grads(self):
        tape = Tape(self.layers(), self.X(), True, COUNTS)
        G = self.TARGET - tape.output
        first = tape.backward(G)
        second = tape.backward(G)
        for g, h in zip(first, second):
            assert g[0].tobytes() == h[0].tobytes() and g[1].tobytes() == h[1].tobytes()

    def test_backward_drops_interior_cotangents(self):
        # the reverse pass stores no cotangent on the tape and writes no buffer
        tape = Tape(self.layers(), self.X(), True, COUNTS)
        keys = set(vars(tape))
        before = [(n.value.tobytes(), n.c.tobytes()) for n in tape.nodes[1:]]
        tape.backward(self.TARGET - tape.output)
        assert set(vars(tape)) == keys
        assert [(n.value.tobytes(), n.c.tobytes()) for n in tape.nodes[1:]] == before


class TestBatchingOps:
    """The batch norm between layers: (h - mean) / sqrt(var + eps) per
    column, with optional row weights."""

    def test_batch_norm_tower_grads(self):
        rng = np.random.default_rng(6)
        X = rng.normal(size=(7, 3)) * 2.0 + 1.0
        check_tape_grads(random_layers(rng, (3, 5, 3)), X, rng.normal(size=(7, 3)), True)

    def test_batch_norm_weighted_grads(self):
        # non-uniform integer counts: a vjp that weights the column sums by
        # the row shares is right only for equal counts, and fails here
        rng = np.random.default_rng(5)
        X = rng.normal(size=(7, 3)) * 2.0 + 1.0
        check_tape_grads(random_layers(rng, (3, 5, 3)), X, rng.normal(size=(7, 3)), True, COUNTS)

    def test_batch_norm_weighted_is_repeated_rows(self):
        # integer weights act like repeating rows: each row of the weighted
        # layer equals its copies in the layer over the row-repeated batch
        rng = np.random.default_rng(9)
        M = rng.normal(size=(7, 3))
        layers = [(np.eye(3), np.zeros(3))] * 2
        reps = COUNTS.astype(int)
        got = z_of(Tape(layers, M, True, COUNTS).nodes[1])
        rep = z_of(Tape(layers, np.repeat(M, reps, axis=0), True).nodes[1])
        assert_allclose(np.repeat(got, reps, axis=0), rep, rtol=1e-13, atol=1e-14)

    def test_batch_norm_whitens(self):
        rng = np.random.default_rng(7)
        M = rng.normal(size=(64, 4)) * 5.0 - 3.0
        layers = [(np.eye(4), np.zeros(4))] * 2
        h = z_of(Tape(layers, M, True).nodes[1])
        assert_allclose(h.mean(axis=0), 0.0, atol=1e-14)
        assert_allclose(h.std(axis=0), 1.0, atol=1e-3)
        w = rng.integers(1, 6, size=64).astype(float)
        h = z_of(Tape(layers, M, True, w).nodes[1])
        assert_allclose(np.average(h, axis=0, weights=w), 0.0, atol=1e-14)
        assert_allclose(np.sqrt(np.average(h * h, axis=0, weights=w)), 1.0, atol=1e-3)


def step_params(rng, kind, dims=(2, 5, 4, 2)):
    mlp = MlpParams(tuple((A / np.sqrt(A.shape[1]), 0.3 * b) for A, b in random_layers(rng, dims)))
    return mlp if kind == "mlp" else hnn_from_mlp(mlp)


def step_batch(rng, n_rows=7, n_pairs=24):
    """``_step``'s (rows, i1, i2, d_true, counts) for pairs with repeats over
    n_rows nodes, by ``_node_batch``: the counts are the nodes' endpoint
    counts, which differ from node to node."""
    X = rng.normal(size=(n_rows, 2))
    i = rng.integers(0, n_rows, n_pairs)
    j = (i + rng.integers(1, n_rows, n_pairs)) % n_rows
    return tr._node_batch(X, i, j, rng.uniform(0.5, 2.5, n_pairs))


class TestStep:
    @pytest.mark.parametrize("bn", [False, True])
    @pytest.mark.parametrize("kind", ["mlp", "hnn"])
    def test_matches_central_differences(self, kind, bn):
        # every trained array of _step, against central differences of its
        # loss; with batch norm the counts weight the batch statistics
        rng = np.random.default_rng(15)
        p = step_params(rng, kind)
        batch = step_batch(rng)
        counts = batch[-1]
        assert counts.min() < counts.max()
        loss, flat = tr._step(p.layers, tr._head(p), *batch, bn)
        arrays = [a for layer in p.layers for a in layer[:2]]
        for k, (arr, got) in enumerate(zip(arrays, flat)):

            def loss_at(x, k=k):
                moved = list(arrays)
                moved[k] = x
                return tr._step(list(zip(moved[::2], moved[1::2])), tr._head(p), *batch, bn)[0]

            assert_allclose(got, fd_grad(loss_at, arr), rtol=1e-5, atol=1e-7)
