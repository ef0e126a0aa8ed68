"""A small reverse-mode tape for batched distance-regression losses.

Values are either row batches (B, k), per-row columns (B,), parameter
vectors/matrices, or scalars. Every operation records a node holding its
value and a closure mapping the output cotangent to parent cotangents;
``backward`` walks nodes in reverse creation order, which is a valid
topological order because operands always exist before their result.

The op set is deliberately narrow: exactly what affine/ReLU towers and
hyperboloid read/write maps need. Smooth per-component functions take an
explicit derivative, with series branches near zero so arguments that
round to tiny negatives stay finite.
"""

from __future__ import annotations

import math

import numpy as np


def _piecewise(x, thresh, small, big):
    """Componentwise small/big branch split at thresh; both vectorized."""
    x = np.asarray(x, dtype=np.float64)
    out = np.empty_like(x)
    m = x > thresh
    out[m] = big(x[m])
    out[~m] = small(x[~m])
    return out


# scale factor of Log: gamma(q) = 2 asinh(sqrt(q)/2) / sqrt(q (1 + q/4))
def gamma_fn(q):
    return _piecewise(
        q,
        1e-8,
        lambda s: 1.0 - s / 6.0,
        lambda b: 2.0 * np.arcsinh(0.5 * np.sqrt(b)) / np.sqrt(b * (1.0 + 0.25 * b)),
    )


def gamma_prime(q):
    def big(b):
        g = 2.0 * np.arcsinh(0.5 * np.sqrt(b)) / np.sqrt(b * (1.0 + 0.25 * b))
        return (1.0 - g * (1.0 + 0.5 * b)) / (2.0 * b * (1.0 + 0.25 * b))

    return _piecewise(q, 1e-8, lambda s: np.full_like(s, -1.0 / 6.0), big)


# Exp coefficients as functions of w = theta^2 (entire, so the series
# branch absorbs round-off negatives)
def cosh_sqrt(w):
    return _piecewise(
        w,
        1e-8,
        lambda s: 1.0 + 0.5 * s + s * s / 24.0,
        lambda b: np.cosh(np.sqrt(b)),
    )


def cosh_sqrt_prime(w):
    return 0.5 * sinhc_sqrt(w)


def sinhc_sqrt(w):
    return _piecewise(
        w,
        1e-8,
        lambda s: 1.0 + s / 6.0 + s * s / 120.0,
        lambda b: np.sinh(np.sqrt(b)) / np.sqrt(b),
    )


def sinhc_sqrt_prime(w):
    return _piecewise(
        w,
        1e-8,
        lambda s: 1.0 / 6.0 + s / 60.0,
        lambda b: (np.cosh(np.sqrt(b)) - np.sinh(np.sqrt(b)) / np.sqrt(b)) / (2.0 * b),
    )


# hyperbolic distance from the chordal gap: d(q) = 2 asinh(sqrt(q)/2)
def dist_fn(q):
    return 2.0 * np.arcsinh(0.5 * np.sqrt(np.maximum(q, 0.0)))


def dist_prime(q):
    # unbounded at q -> 0; the cap keeps 0 * inf out of the chain rule
    qc = np.maximum(q, 1e-20)
    return 1.0 / (2.0 * np.sqrt(qc * (1.0 + 0.25 * qc)))


def sqrt_fn(s):
    return np.sqrt(np.maximum(s, 0.0))


def sqrt_prime(s):
    return 0.5 / np.sqrt(np.maximum(s, 1e-20))


class Node:
    __slots__ = ("value", "parents", "vjp", "grad")

    def __init__(self, value, parents=(), vjp=None):
        self.value = value
        self.parents = parents
        self.vjp = vjp
        self.grad = None


def _mink_flip(m):
    """Negate the last column (or entry): the Minkowski metric matrix applied."""
    out = np.array(m, copy=True)
    out[..., -1] = -out[..., -1]
    return out


class Tape:
    """Records operations; ``backward`` fills ``grad`` on every node."""

    def __init__(self):
        self.nodes = []

    def _record(self, value, parents=(), vjp=None) -> Node:
        node = Node(np.asarray(value, dtype=np.float64), parents, vjp)
        self.nodes.append(node)
        return node

    def leaf(self, value) -> Node:
        return self._record(value)

    # affine pieces
    def matmul_rt(self, X: Node, A: Node) -> Node:
        """Rows times a weight matrix: X @ A.T."""
        return self._record(
            X.value @ A.value.T,
            (X, A),
            lambda g: (g @ A.value, g.T @ X.value),
        )

    def add_vec(self, M: Node, v: Node) -> Node:
        return self._record(
            M.value + v.value[None, :], (M, v), lambda g: (g, g.sum(axis=0))
        )

    def sub_vec(self, M: Node, v: Node) -> Node:
        return self._record(
            M.value - v.value[None, :], (M, v), lambda g: (g, -g.sum(axis=0))
        )

    def relu(self, M: Node) -> Node:
        mask = M.value > 0.0
        return self._record(np.where(mask, M.value, 0.0), (M,), lambda g: (g * mask,))

    def add(self, M: Node, N: Node) -> Node:
        return self._record(M.value + N.value, (M, N), lambda g: (g, g))

    def sub(self, M: Node, N: Node) -> Node:
        return self._record(M.value - N.value, (M, N), lambda g: (g, -g))

    # column shuffling
    def pad_zero_col(self, M: Node) -> Node:
        val = np.concatenate([M.value, np.zeros((M.value.shape[0], 1))], axis=1)
        return self._record(val, (M,), lambda g: (g[:, :-1],))

    def drop_last_col(self, M: Node) -> Node:
        def vjp(g):
            out = np.concatenate([g, np.zeros((g.shape[0], 1))], axis=1)
            return (out,)

        return self._record(M.value[:, :-1], (M,), vjp)

    def last_col(self, M: Node) -> Node:
        def vjp(g):
            out = np.zeros_like(M.value)
            out[:, -1] = g
            return (out,)

        return self._record(M.value[:, -1], (M,), vjp)

    def vec_head(self, v: Node) -> Node:
        """All but the last entry of a parameter vector."""

        def vjp(g):
            out = np.zeros_like(v.value)
            out[:-1] = g
            return (out,)

        return self._record(v.value[:-1], (v,), vjp)

    def scalar_last(self, v: Node) -> Node:
        def vjp(g):
            out = np.zeros_like(v.value)
            out[-1] = g
            return (out,)

        return self._record(v.value[-1], (v,), vjp)

    # rowwise contractions
    def row_mink(self, M: Node, N: Node) -> Node:
        """Per-row Minkowski product: spatial dot minus the time product."""
        val = np.einsum("ij,ij->i", M.value, _mink_flip(N.value))
        return self._record(
            val,
            (M, N),
            lambda g: (g[:, None] * _mink_flip(N.value), g[:, None] * _mink_flip(M.value)),
        )

    def row_dot_vec(self, M: Node, v: Node) -> Node:
        return self._record(
            M.value @ v.value,
            (M, v),
            lambda g: (g[:, None] * v.value[None, :], M.value.T @ g),
        )

    def row_sum(self, M: Node) -> Node:
        return self._record(
            M.value.sum(axis=1),
            (M,),
            lambda g: (np.repeat(g[:, None], M.value.shape[1], axis=1),),
        )

    # broadcasting products
    def scale_rows(self, c: Node, M: Node) -> Node:
        return self._record(
            c.value[:, None] * M.value,
            (c, M),
            lambda g: ((g * M.value).sum(axis=1), c.value[:, None] * g),
        )

    def outer_vec(self, c: Node, v: Node, const=None) -> Node:
        """c[:, None] * (v + const)[None, :]; const is a plain array offset."""
        vv = v.value if const is None else v.value + const
        return self._record(
            c.value[:, None] * vv[None, :],
            (c, v),
            lambda g: (g @ vv, g.T @ c.value),
        )

    def mul_cols(self, a: Node, b: Node) -> Node:
        return self._record(
            a.value * b.value, (a, b), lambda g: (g * b.value, g * a.value)
        )

    def mul_vec(self, M: Node, v: Node) -> Node:
        return self._record(
            M.value * v.value[None, :],
            (M, v),
            lambda g: (g * v.value[None, :], (g * M.value).sum(axis=0)),
        )

    def col_mean(self, M: Node, weights=None) -> Node:
        """Column means of a row batch with row ``weights`` (any positive
        scale, divided by their sum); every row counts once when omitted."""
        w = np.ones(M.value.shape[0]) if weights is None else np.asarray(weights, np.float64)
        total = w.sum()
        return self._record(
            np.sum(w[:, None] * M.value, axis=0) / total,
            (M,),
            lambda g: (w[:, None] * (g[None, :] / total),),
        )

    # row gathering (pair endpoints indexed out of per-node rows)
    def take_rows(self, M: Node, idx) -> Node:
        """M[idx]; the vjp scatter-adds over repeated indices."""
        idx = np.asarray(idx, np.intp)

        def vjp(g):
            out = np.zeros_like(M.value)
            np.add.at(out, idx, g)
            return (out,)

        return self._record(M.value[idx], (M,), vjp)

    def scale_const(self, c: Node, k: float) -> Node:
        return self._record(c.value * k, (c,), lambda g: (g * k,))

    def div_shift(self, c: Node, s: Node, shift: float) -> Node:
        """c / (shift + s) for a scalar node s."""
        den = shift + s.value
        return self._record(
            c.value / den,
            (c, s),
            lambda g: (g / den, -np.sum(g * c.value) / (den * den)),
        )

    def elemwise(self, c: Node, f, fp) -> Node:
        return self._record(f(c.value), (c,), lambda g: (g * fp(c.value),))

    # loss heads
    def sub_from_const(self, const, c: Node) -> Node:
        return self._record(np.asarray(const, np.float64) - c.value, (c,), lambda g: (-g,))

    def mean(self, c: Node) -> Node:
        n = c.value.size
        return self._record(
            c.value.mean(), (c,), lambda g: (np.full_like(c.value, g / n),)
        )

    def wsum(self, M: Node, weights) -> Node:
        w = np.asarray(weights, np.float64)
        return self._record(float((M.value * w).sum()), (M,), lambda g: (g * w,))

    def backward(self, loss: Node) -> None:
        if loss.value.ndim != 0:
            raise ValueError("backward starts from a scalar node")
        if not math.isfinite(float(loss.value)):
            raise FloatingPointError("loss is not finite")
        for node in self.nodes:
            node.grad = None
        loss.grad = np.ones(())
        for node in reversed(self.nodes):
            if node.grad is None or node.vjp is None:
                continue
            for parent, contrib in zip(node.parents, node.vjp(node.grad)):
                if parent.grad is None:
                    parent.grad = np.zeros_like(parent.value)
                parent.grad = parent.grad + contrib
