"""Finite-difference checks for every tape operation and its derivative."""

import inspect
import math
import re
from pathlib import Path

import numpy as np
import pytest
from numpy.testing import assert_allclose

from hyptree import autodiff as ad
from hyptree.autodiff import Tape


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


def check_leaf_grads(build, leaves, rtol=1e-5, atol=1e-8):
    """build(tape, nodes) -> scalar loss node, from public ops only (here the
    op under test followed by ``mse`` against a fixed random target, so the
    cotangent reaching the op differs entry by entry); FD each leaf against
    tape.backward."""
    tape = Tape()
    nodes = [tape.leaf(v) for v in leaves]
    loss = build(tape, nodes)
    tape.backward(loss)
    for k, leaf_val in enumerate(leaves):

        def loss_at(x, k=k):
            t2 = Tape()
            ns = [t2.leaf(x if j == k else v) for j, v in enumerate(leaves)]
            return float(build(t2, ns).value)

        want = fd_grad(loss_at, leaf_val)
        got = nodes[k].grad
        assert got is not None, f"leaf {k} got no gradient"
        assert_allclose(got, want, rtol=rtol, atol=atol)


class TestAffineOps:
    def test_affine_value_and_grads(self):
        rng = np.random.default_rng(1)
        X = rng.normal(size=(4, 3))
        A = rng.normal(size=(5, 3))
        b = rng.normal(size=5)
        T = rng.normal(size=(4, 5))
        tape = Tape()
        out = tape.affine(tape.leaf(X), tape.leaf(A), tape.leaf(b))
        assert np.array_equal(out.value, X @ A.T + b)
        check_leaf_grads(lambda t, ns: t.mse(t.affine(*ns), T), [X, A, b])

    def test_two_layer_tower(self):
        rng = np.random.default_rng(0)
        X = rng.normal(size=(4, 3))
        A1 = rng.normal(size=(5, 3))
        b1 = rng.normal(size=5)
        A2 = rng.normal(size=(2, 5))
        b2 = rng.normal(size=2)
        T = rng.normal(size=(4, 2))

        def build(t, ns):
            x, a1, v1, a2, v2 = ns
            return t.mse(t.affine(t.relu(t.affine(x, a1, v1)), a2, v2), T)

        check_leaf_grads(build, [X, A1, b1, A2, b2])


class TestRowOps:
    def test_pair_rows_repeated_indices(self):
        # d[p] = <M[i1[p]], M[i2[p]]> with its closed-form row gradients;
        # rows recur across pairs and within one pair, and row 3 is unused
        rng = np.random.default_rng(6)
        M = rng.normal(size=(5, 2))
        i1 = np.array([0, 2, 2, 1, 4, 0])
        i2 = np.array([1, 2, 4, 0, 2, 4])
        T = rng.normal(size=i1.size)

        def dot(U, j1, j2):
            return np.sum(U[j1] * U[j2], axis=1), U[j2], U[j1]

        tape = Tape()
        n = tape.leaf(M)
        assert np.array_equal(tape.pair_rows(n, i1, i2, dot).value, np.sum(M[i1] * M[i2], axis=1))
        check_leaf_grads(lambda t, ns: t.mse(t.pair_rows(ns[0], i1, i2, dot), T), [M])
        tape.backward(tape.mse(tape.pair_rows(n, i1, i2, dot), T))
        assert np.all(n.grad[3] == 0.0)


class TestLossHeads:
    def test_mean_of_squared_residuals(self):
        rng = np.random.default_rng(8)
        c = rng.normal(size=7)
        d_true = rng.normal(size=7)
        tape = Tape()
        assert tape.mse(tape.leaf(c), d_true).value == np.mean((d_true - c) ** 2)
        check_leaf_grads(lambda t, ns: t.mse(ns[0], d_true), [c])

    def test_zero_residual_gives_zero_gradient(self):
        c = np.array([1.0, 2.0, 3.0])
        t = Tape()
        n = t.leaf(c)
        t.backward(t.mse(n, c.copy()))
        assert np.all(n.grad == 0.0)


class TestBackwardContract:
    def test_requires_scalar(self):
        t = Tape()
        n = t.leaf(np.ones(3))
        with pytest.raises(ValueError):
            t.backward(n)

    def test_non_finite_loss_raises(self):
        t = Tape()
        n = t.leaf(np.array(math.inf))
        with pytest.raises(FloatingPointError):
            t.backward(n)

    def test_grads_reset_between_backward_calls(self):
        t = Tape()
        n = t.leaf(np.ones(4))
        loss = t.mse(n, np.zeros(4))
        t.backward(loss)
        first = n.grad.copy()
        t.backward(loss)
        assert np.array_equal(n.grad, first)


def bn_tower(t, ns, weights, target):
    """affine -> weighted batch_norm -> relu -> affine -> mse on leaves
    (X, A1, b1, A2, b2): the relu overwrites the batch norm's output, and
    the batch norm centres the first affine's output, in place."""
    x, a1, v1, a2, v2 = ns
    H = t.relu(t.batch_norm(t.affine(x, a1, v1), weights))
    return t.mse(t.affine(H, a2, v2), target)


class TestBufferContract:
    """What a step keeps: ops overwrite the buffers of the ops before them,
    never a leaf's array, and backward drops interior cotangents."""

    COUNTS = np.array([3.0, 1.0, 5.0, 2.0, 1.0, 4.0, 2.0])

    TARGET = np.random.default_rng(12).normal(size=(7, 2))

    def leaves(self):
        rng = np.random.default_rng(11)
        return [rng.normal(size=s) for s in ((7, 3), (5, 3), 5, (2, 5), 2)]

    def tower(self, t, ns):
        return bn_tower(t, ns, self.COUNTS, self.TARGET)

    def test_relu_on_a_leaf_leaves_the_callers_array(self):
        X = np.random.default_rng(3).normal(size=(6, 4))
        X[0, 0] = -0.0
        before = X.tobytes()
        t = Tape()
        out = t.relu(t.leaf(X))
        assert X.tobytes() == before
        assert np.array_equal(out.value, np.where(X > 0.0, X, 0.0))
        t.backward(t.mse(out, np.zeros((6, 4))))
        assert X.tobytes() == before

    def test_batch_norm_on_a_leaf_leaves_the_callers_array(self):
        X = np.random.default_rng(4).normal(size=(7, 3))
        before = X.tobytes()
        t = Tape()
        t.batch_norm(t.leaf(X), self.COUNTS)
        assert X.tobytes() == before

    def test_relu_reuses_the_buffer_of_the_op_before_it(self):
        X, A, b = self.leaves()[:3]
        t = Tape()
        H = t.affine(t.leaf(X), t.leaf(A), t.leaf(b))
        assert t.relu(H).value is H.value
        Z = t.batch_norm(H)
        assert t.relu(Z).value is Z.value

    def test_batch_norm_relu_tower_grads(self):
        # the vjp re-forms the batch norm's output, which the relu overwrote
        check_leaf_grads(self.tower, self.leaves())

    def test_backward_twice_gives_bitwise_equal_leaf_grads(self):
        t = Tape()
        nodes = [t.leaf(v) for v in self.leaves()]
        loss = self.tower(t, nodes)
        t.backward(loss)
        first = [n.grad.copy() for n in nodes]
        t.backward(loss)
        for n, g in zip(nodes, first):
            assert n.grad.tobytes() == g.tobytes()

    def test_backward_drops_interior_cotangents(self):
        t = Tape()
        nodes = [t.leaf(v) for v in self.leaves()]
        t.backward(self.tower(t, nodes))
        assert all(n.grad is not None for n in nodes)
        assert all(n.grad is None for n in t.nodes if n.vjp is not None)


class TestBatchingOps:
    """The batch-norm layer: (h - mean) / sqrt(var + eps) per column, with
    optional row weights."""

    COUNTS = np.array([3.0, 1.0, 5.0, 2.0, 1.0, 4.0, 2.0])

    def test_batch_norm_tower_grads(self):
        rng = np.random.default_rng(6)
        M = rng.normal(size=(7, 3)) * 2.0 + 1.0
        T = rng.normal(size=(7, 3))
        check_leaf_grads(lambda t, ns: t.mse(t.batch_norm(ns[0]), T), [M])

    def test_batch_norm_weighted_grads(self):
        # non-uniform integer counts: a vjp that weights the column sums by
        # the row shares is right only for equal counts, and fails here
        rng = np.random.default_rng(5)
        M = rng.normal(size=(7, 3)) * 2.0 + 1.0
        T = rng.normal(size=(7, 3))
        check_leaf_grads(lambda t, ns: t.mse(t.batch_norm(ns[0], self.COUNTS), T), [M])

    def test_batch_norm_weighted_is_repeated_rows(self):
        # integer weights act like repeating rows: each row of the weighted
        # layer equals its copies in the layer over the row-repeated batch
        rng = np.random.default_rng(9)
        M = rng.normal(size=(7, 3))
        t = Tape()
        got = t.batch_norm(t.leaf(M), self.COUNTS).value
        rep = t.batch_norm(t.leaf(np.repeat(M, self.COUNTS.astype(int), axis=0))).value
        assert_allclose(np.repeat(got, self.COUNTS.astype(int), axis=0), rep, rtol=1e-13, atol=1e-14)

    def test_batch_norm_whitens(self):
        rng = np.random.default_rng(7)
        M = rng.normal(size=(64, 4)) * 5.0 - 3.0
        t = Tape()
        h = t.batch_norm(t.leaf(M)).value
        assert_allclose(h.mean(axis=0), 0.0, atol=1e-14)
        assert_allclose(h.std(axis=0), 1.0, atol=1e-3)
        w = rng.integers(1, 6, size=64).astype(float)
        h = t.batch_norm(t.leaf(M), w).value
        assert_allclose(np.average(h, axis=0, weights=w), 0.0, atol=1e-14)
        assert_allclose(np.sqrt(np.average(h * h, axis=0, weights=w)), 1.0, atol=1e-3)


class TestOpSet:
    def test_every_public_op_has_a_library_caller(self):
        # the tape's ops are the model's layers, and each has a caller
        # outside autodiff.py; so does every public helper of the module
        library = "".join(
            p.read_text() for p in Path(ad.__file__).parent.glob("*.py") if p.name != "autodiff.py"
        )
        ops = [n for n, _ in inspect.getmembers(Tape, inspect.isfunction) if not n.startswith("_")]
        helpers = [
            n for n, f in inspect.getmembers(ad, inspect.isfunction)
            if not n.startswith("_") and f.__module__ == ad.__name__
        ]
        assert set(ops) == {"leaf", "affine", "relu", "batch_norm", "pair_rows", "mse", "backward"}
        unused = [n for n in ops if not re.search(rf"\.{n}\(", library)]
        unused += [n for n in helpers if not re.search(rf"\b{n}\b", library)]
        assert unused == []
