"""A small reverse-mode tape for batched distance-regression losses.

Values are either row batches (B, k), per-row columns (B,), parameter
vectors/matrices, or scalars. Every operation records a node holding its
value and a closure mapping the output cotangent to parent cotangents;
``backward`` walks nodes in reverse creation order, which is a valid
topological order because operands always exist before their result.

The op set is deliberately narrow: exactly what the affine/ReLU tower,
its batch statistics and the pair loss need. Both pair heads, the
Euclidean and the hyperbolic one, enter through ``pair_rows``, which takes
a per-pair function with closed-form row gradients. ``elemwise`` takes a
smooth per-component function together with its explicit derivative.
"""

from __future__ import annotations

import math

import numpy as np


def _scatter_rows(n, idx, rows):
    """out[i] = sum of rows[p] over idx[p] == i, for i < n, summed in the order
    of p (the order np.add.at uses), one bincount per column."""
    return np.stack(
        [np.bincount(idx, weights=rows[:, c], minlength=n) for c in range(rows.shape[1])], axis=1
    )


class Node:
    __slots__ = ("value", "parents", "vjp", "grad")

    def __init__(self, value, parents=(), vjp=None):
        self.value = value
        self.parents = parents
        self.vjp = vjp
        self.grad = None


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

    # pair heads (pair endpoints indexed out of per-node rows)
    def pair_rows(self, M: Node, i1, i2, f) -> Node:
        """Per-pair values d[p] of the rows M[i1[p]] and M[i2[p]].

        ``f(M, i1, i2)`` returns (d, G1, G2), where G1[p] and G2[p] are the
        gradients of d[p] with respect to the two rows; the vjp scatter-adds
        them over repeated indices.
        """
        i1 = np.asarray(i1, np.intp)
        i2 = np.asarray(i2, np.intp)
        d, G1, G2 = f(M.value, i1, i2)
        idx = np.concatenate([i1, i2])
        n = M.value.shape[0]

        def vjp(g):
            return (_scatter_rows(n, idx, np.concatenate([g[:, None] * G1, g[:, None] * G2])),)

        return self._record(d, (M,), vjp)

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
