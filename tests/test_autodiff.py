"""Finite-difference checks for every tape operation and its derivative."""

import math

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


class TestSmoothFunctions:
    """Analytic derivatives of the scalar kernels vs direct FD."""

    QS = [1e-12, 1e-10, 1e-6, 1e-3, 0.1, 1.0, 7.0, 100.0]

    @pytest.mark.parametrize(
        "f,fp",
        [
            (ad.gamma_fn, ad.gamma_prime),
            (ad.cosh_sqrt, ad.cosh_sqrt_prime),
            (ad.sinhc_sqrt, ad.sinhc_sqrt_prime),
        ],
    )
    def test_derivative_matches_fd(self, f, fp):
        for q in self.QS:
            # absolute floor: these functions have O(1) value and curvature
            # near zero, so an h proportional to q starves the difference
            h = 1e-7 * max(q, 1.0)
            want = (f(np.array([q + h]))[0] - f(np.array([q - h]))[0]) / (2 * h)
            got = fp(np.array([q]))[0]
            assert_allclose(got, want, rtol=5e-5, atol=1e-10)

    def test_dist_fn_derivative(self):
        for q in [1e-6, 1e-3, 0.1, 1.0, 50.0]:
            h = 1e-7 * q
            want = (ad.dist_fn(np.array([q + h]))[0] - ad.dist_fn(np.array([q - h]))[0]) / (2 * h)
            assert_allclose(ad.dist_prime(np.array([q]))[0], want, rtol=5e-5)

    def test_branch_continuity(self):
        # series and closed forms must agree where they hand off
        for f in (ad.gamma_fn, ad.cosh_sqrt, ad.sinhc_sqrt):
            lo = f(np.array([1e-8 * (1 - 1e-6)]))[0]
            hi = f(np.array([1e-8 * (1 + 1e-6)]))[0]
            assert abs(lo - hi) < 1e-14

    def test_tiny_negative_inputs_stay_finite(self):
        w = np.array([-1e-16, 0.0])
        assert np.all(np.isfinite(ad.cosh_sqrt(w)))
        assert np.all(np.isfinite(ad.sinhc_sqrt(w)))
        assert np.all(np.isfinite(ad.gamma_fn(w)))


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
            return t.wsum(out, w)

        check_leaf_grads(build, [X, A1, b1, A2, b2])

    def test_sub_vec(self):
        rng = np.random.default_rng(1)
        M = rng.normal(size=(3, 4))
        v = rng.normal(size=4)
        w = rng.normal(size=(3, 4))
        check_leaf_grads(lambda t, ns: t.wsum(t.sub_vec(ns[0], ns[1]), w), [M, v])


class TestRowOps:
    def test_row_mink_and_scale_rows(self):
        rng = np.random.default_rng(2)
        M = rng.normal(size=(4, 3))
        N = rng.normal(size=(4, 3))
        w = rng.normal(size=(4, 3))

        def build(t, ns):
            m, n = ns
            q = t.row_mink(m, n)
            g = t.elemwise(q, ad.cosh_sqrt, ad.cosh_sqrt_prime)
            return t.wsum(t.scale_rows(g, m), w)

        # keep q positive so cosh_sqrt stays in its smooth regime
        M[:, -1] = 0.1
        N = M + 0.01 * N
        N[:, -1] = 0.1
        check_leaf_grads(build, [M, N])

    def test_row_dot_vec_and_row_sum(self):
        rng = np.random.default_rng(3)
        M = rng.normal(size=(5, 3))
        v = rng.normal(size=3)
        w = rng.normal(size=5)

        def build(t, ns):
            c = t.row_dot_vec(ns[0], ns[1])
            s = t.row_sum(t.scale_rows(c, ns[0]))
            return t.wsum(s, w)

        check_leaf_grads(build, [M, v])

    def test_outer_vec_with_const(self):
        rng = np.random.default_rng(4)
        c = rng.normal(size=4)
        v = rng.normal(size=3)
        const = np.array([0.0, 0.0, 1.0])
        w = rng.normal(size=(4, 3))
        check_leaf_grads(
            lambda t, ns: t.wsum(t.outer_vec(ns[0], ns[1], const=const), w), [c, v]
        )

    def test_mul_cols_scale_const(self):
        rng = np.random.default_rng(5)
        a = rng.normal(size=6)
        b = rng.normal(size=6)
        w = rng.normal(size=6)
        check_leaf_grads(
            lambda t, ns: t.wsum(t.mul_cols(t.scale_const(ns[0], 0.5), ns[1]), w), [a, b]
        )


class TestStructuralOps:
    def test_pad_drop_last_col(self):
        rng = np.random.default_rng(6)
        M = rng.normal(size=(3, 4))
        w4 = rng.normal(size=(3, 5))
        check_leaf_grads(lambda t, ns: t.wsum(t.pad_zero_col(ns[0]), w4), [M])
        w3 = rng.normal(size=(3, 3))
        check_leaf_grads(lambda t, ns: t.wsum(t.drop_last_col(ns[0]), w3), [M])

    def test_last_col_vec_head_scalar_last(self):
        rng = np.random.default_rng(7)
        M = rng.normal(size=(3, 4))
        v = rng.normal(size=4)
        wc = rng.normal(size=3)
        check_leaf_grads(lambda t, ns: t.wsum(t.last_col(ns[0]), wc), [M])
        wh = rng.normal(size=3)
        check_leaf_grads(lambda t, ns: t.wsum(t.vec_head(ns[0]), wh), [v])
        check_leaf_grads(
            lambda t, ns: t.wsum(t.div_shift(t.last_col(ns[0]), t.scalar_last(ns[1]), 1.0), wc),
            [M, v + 2.0],
        )


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
    """Ops for batch statistics and for gathering pair endpoints."""

    def test_col_mean_value_and_grad(self):
        rng = np.random.default_rng(3)
        M = rng.normal(size=(5, 3))
        w = rng.normal(size=3)

        def build(t, ns):
            # loss = sum(col_mean(M) * w)
            return t.wsum(t.col_mean(ns[0]), w)

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
        check_leaf_grads(lambda t, ns: t.wsum(t.col_mean(ns[0], weights), w), [M])

    def test_take_rows_repeated_indices(self):
        # every row is taken at least twice and row 3 not at all, so the vjp
        # must accumulate repeats and leave untouched rows at zero
        rng = np.random.default_rng(5)
        M = rng.normal(size=(5, 2))
        idx = np.array([0, 2, 2, 1, 0, 4, 2, 1, 4])
        w = rng.normal(size=(idx.size, 2))

        tape = Tape()
        n = tape.leaf(M)
        assert np.array_equal(tape.take_rows(n, idx).value, M[idx])
        check_leaf_grads(lambda t, ns: t.wsum(t.take_rows(ns[0], idx), w), [M])

        def build(t, ns):
            d = t.sub(t.take_rows(ns[0], idx[:4]), t.take_rows(ns[0], idx[5:]))
            return t.mean(t.mul_cols(d, d))

        check_leaf_grads(build, [M])
        tape = Tape()
        n = tape.leaf(M)
        tape.backward(tape.wsum(tape.take_rows(n, idx), w))
        assert np.all(n.grad[3] == 0.0)

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
