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


def wsum(tape, M, weights):
    """A scalar loss to differentiate: the mean of M times fixed weights."""
    return tape.mean(tape.mul_cols(M, tape.leaf(weights)))


def check_leaf_grads(build, leaves, rtol=1e-5, atol=1e-8):
    """build(tape, nodes) -> loss node; FD each leaf against tape.backward."""
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
    def test_two_layer_tower(self):
        rng = np.random.default_rng(0)
        X = rng.normal(size=(4, 3))
        A1 = rng.normal(size=(5, 3))
        b1 = rng.normal(size=5)
        A2 = rng.normal(size=(2, 5))
        b2 = rng.normal(size=2)
        w = rng.normal(size=(4, 2))

        def build(t, ns):
            x, a1, v1, a2, v2 = ns
            h = t.relu(t.add_vec(t.matmul_rt(x, a1), v1))
            out = t.add_vec(t.matmul_rt(h, a2), v2)
            return wsum(t, out, w)

        check_leaf_grads(build, [X, A1, b1, A2, b2])

    def test_sub_vec(self):
        rng = np.random.default_rng(1)
        M = rng.normal(size=(3, 4))
        v = rng.normal(size=4)
        w = rng.normal(size=(3, 4))
        check_leaf_grads(lambda t, ns: wsum(t, t.sub_vec(ns[0], ns[1]), w), [M, v])


class TestRowOps:
    def test_mul_cols(self):
        rng = np.random.default_rng(5)
        a = rng.normal(size=6)
        b = rng.normal(size=6)
        w = rng.normal(size=6)
        check_leaf_grads(lambda t, ns: wsum(t, t.mul_cols(ns[0], ns[1]), w), [a, b])

    def test_pair_rows_repeated_indices(self):
        # d[p] = <M[i1[p]], M[i2[p]]> with its closed-form row gradients;
        # rows recur across pairs and within one pair, and row 3 is unused
        rng = np.random.default_rng(6)
        M = rng.normal(size=(5, 2))
        i1 = np.array([0, 2, 2, 1, 4, 0])
        i2 = np.array([1, 2, 4, 0, 2, 4])
        w = rng.normal(size=i1.size)

        def dot(U, j1, j2):
            return np.sum(U[j1] * U[j2], axis=1), U[j2], U[j1]

        tape = Tape()
        n = tape.leaf(M)
        assert np.array_equal(tape.pair_rows(n, i1, i2, dot).value, np.sum(M[i1] * M[i2], axis=1))
        check_leaf_grads(lambda t, ns: wsum(t, t.pair_rows(ns[0], i1, i2, dot), w), [M])
        tape.backward(wsum(tape, tape.pair_rows(n, i1, i2, dot), w))
        assert np.all(n.grad[3] == 0.0)


class TestLossHeads:
    def test_mean_of_squared_residuals(self):
        rng = np.random.default_rng(8)
        c = rng.normal(size=7)
        d_true = rng.normal(size=7)

        def build(t, ns):
            r = t.sub_from_const(d_true, ns[0])
            return t.mean(t.elemwise(r, lambda x: x * x, lambda x: 2.0 * x))

        check_leaf_grads(build, [c])

    def test_zero_residual_gives_zero_gradient(self):
        c = np.array([1.0, 2.0, 3.0])
        t = Tape()
        n = t.leaf(c)
        r = t.sub_from_const(c.copy(), n)
        loss = t.mean(t.elemwise(r, lambda x: x * x, lambda x: 2.0 * x))
        t.backward(loss)
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
        loss = t.mean(n)
        t.backward(loss)
        first = n.grad.copy()
        t.backward(loss)
        assert np.array_equal(n.grad, first)


class TestBatchingOps:
    """Ops for batch statistics."""

    def test_col_mean_value_and_grad(self):
        rng = np.random.default_rng(3)
        M = rng.normal(size=(5, 3))
        w = rng.normal(size=3)

        def build(t, ns):
            # loss = sum(col_mean(M) * w)
            return wsum(t, t.col_mean(ns[0]), w)

        tape = Tape()
        n = tape.leaf(M)
        out = tape.col_mean(n)
        assert_allclose(out.value, M.mean(axis=0), rtol=1e-15)
        check_leaf_grads(build, [M])

    def test_mul_vec_grads(self):
        rng = np.random.default_rng(4)
        M = rng.normal(size=(4, 3))
        v = rng.normal(size=3)

        def build(t, ns):
            prod = t.mul_vec(ns[0], ns[1])
            return t.mean(t.mul_cols(prod, prod))

        check_leaf_grads(build, [M, v])

    def test_col_mean_weighted(self):
        # integer weights act like repeating rows: weighted mean of M equals
        # the plain mean of the row-repeated batch
        rng = np.random.default_rng(9)
        M = rng.normal(size=(4, 3))
        weights = np.array([3.0, 1.0, 5.0, 2.0])
        w = rng.normal(size=3)
        tape = Tape()
        out = tape.col_mean(tape.leaf(M), weights)
        repeated = np.repeat(M, weights.astype(int), axis=0)
        assert_allclose(out.value, repeated.mean(axis=0), rtol=1e-14, atol=1e-15)
        check_leaf_grads(lambda t, ns: wsum(t, t.col_mean(ns[0], weights), w), [M])

    def test_batch_norm_tower_grads(self):
        # (x - mean) / sqrt(var + eps): the per-batch whitening transform
        rng = np.random.default_rng(6)
        M = rng.normal(size=(7, 3)) * 2.0 + 1.0
        eps = 1e-5

        def build(t, ns):
            X = ns[0]
            c = t.sub_vec(X, t.col_mean(X))
            var = t.col_mean(t.mul_cols(c, c))
            rs = t.elemwise(
                var,
                lambda v: 1.0 / np.sqrt(v + eps),
                lambda v: -0.5 * (v + eps) ** -1.5,
            )
            h = t.mul_vec(c, rs)
            return t.mean(t.mul_cols(h, h))

        check_leaf_grads(build, [M], rtol=1e-4)

    def test_batch_norm_whitens(self):
        rng = np.random.default_rng(7)
        M = rng.normal(size=(64, 4)) * 5.0 - 3.0
        t = Tape()
        X = t.leaf(M)
        c = t.sub_vec(X, t.col_mean(X))
        var = t.col_mean(t.mul_cols(c, c))
        rs = t.elemwise(var, lambda v: 1.0 / np.sqrt(v + 1e-5), lambda v: v)
        h = t.mul_vec(c, rs)
        assert_allclose(h.value.mean(axis=0), 0.0, atol=1e-14)
        assert_allclose(h.value.std(axis=0), 1.0, atol=1e-3)


class TestOpSet:
    def test_every_public_op_has_a_library_caller(self):
        # the tape carries only what training uses: an op that no module
        # outside autodiff.py calls, or a helper it never names, is test-only
        library = "".join(
            p.read_text() for p in Path(ad.__file__).parent.glob("*.py") if p.name != "autodiff.py"
        )
        ops = [n for n, _ in inspect.getmembers(Tape, inspect.isfunction) if not n.startswith("_")]
        helpers = [
            n for n, f in inspect.getmembers(ad, inspect.isfunction)
            if not n.startswith("_") and f.__module__ == ad.__name__
        ]
        assert len(ops) >= 10
        unused = [n for n in ops if not re.search(rf"\.{n}\(", library)]
        unused += [n for n in helpers if not re.search(rf"\b{n}\b", library)]
        assert unused == []
