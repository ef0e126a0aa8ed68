"""A small reverse-mode tape for batched distance-regression losses.

Values are either row batches (B, k), per-row columns (B,), parameter
vectors/matrices, or scalars. Every operation records a node holding its
value and a closure mapping the output cotangent to parent cotangents;
``backward`` walks nodes in reverse creation order, which is a valid
topological order because operands always exist before their result.

A training step keeps one row buffer per hidden layer (two with batch
norm), plus the relu masks and the leaves' gradients. ``relu`` zeroes its
input's buffer in place when another op made it and keeps only its bool
mask; ``batch_norm`` centres its input in place and keeps that and its
column scales, from which its vjp re-forms the output that a relu may
then have overwritten. A leaf is copied first, since its array may be
the caller's. The one vjp that reads an input's value is ``affine``'s,
and in a tower that input is a leaf or a relu's output, which nothing
overwrites; so an op output that feeds ``relu`` or ``batch_norm`` must
feed no other op. ``backward`` drops each interior node's cotangent once
its vjp has used it.

The op set is the model's layers and nothing else: ``affine`` and
``relu`` for the tower, ``batch_norm`` for its optional batch statistics,
``pair_rows`` for the pair head and ``mse`` for the loss, each with a
closed-form vjp. Both pair heads, the Euclidean and the hyperbolic one,
enter through ``pair_rows``, which takes a per-pair function with
closed-form row gradients.
"""

from __future__ import annotations

import math

import numpy as np

_BN_EPS = 1e-5


def _scatter_rows(n, idx, rows):
    """out[i] = sum of rows[p] over idx[p] == i, for i < n, summed in the order
    of p (the order np.add.at uses), one bincount per column."""
    return np.stack(
        [np.bincount(idx, weights=rows[:, c], minlength=n) for c in range(rows.shape[1])], axis=1
    )


def _buffer(node):
    """The array an op may overwrite with its output: the node's own value
    when another op made it, a copy when it is a leaf, whose array may be
    the caller's."""
    return node.value if node.vjp is not None else node.value.copy()


class Node:
    __slots__ = ("value", "parents", "vjp", "grad")

    def __init__(self, value, parents=(), vjp=None):
        self.value = value
        self.parents = parents
        self.vjp = vjp
        self.grad = None


class Tape:
    """Records operations; ``backward`` fills ``grad`` on every leaf."""

    def __init__(self):
        self.nodes = []

    def _record(self, value, parents=(), vjp=None) -> Node:
        node = Node(np.asarray(value, dtype=np.float64), parents, vjp)
        self.nodes.append(node)
        return node

    def leaf(self, value) -> Node:
        return self._record(value)

    # the tower's layers
    def affine(self, X: Node, A: Node, b: Node) -> Node:
        """Rows through one affine layer: X @ A.T + b."""
        return self._record(
            X.value @ A.value.T + b.value[None, :],
            (X, A, b),
            lambda g: (g @ A.value, g.T @ X.value, g.sum(axis=0)),
        )

    def relu(self, M: Node) -> Node:
        """max(M, 0), in M's own buffer unless M is a leaf."""
        out = _buffer(M)
        mask = out > 0.0
        np.copyto(out, 0.0, where=~mask)
        return self._record(out, (M,), lambda g: (g * mask,))

    def batch_norm(self, H: Node, weights=None) -> Node:
        """Whiten each column with the batch's own statistics, z = c rs with
        c = h - mean (in H's own buffer unless H is a leaf) and
        rs = (var + eps)^(-1/2).

        Row k counts ``weights[k]`` times in the mean and variance (any
        positive scale, divided by their sum; once each when None). Row k
        stands for a share wbar[k] of the batch, so the vjp
        rs (g - wbar (sum g + z sum g z)) sums over rows without weights.
        """
        h = H.value
        w = np.ones(h.shape[0]) if weights is None else np.asarray(weights, np.float64)
        total = w.sum()
        mean = np.sum(w[:, None] * h, axis=0) / total
        c = _buffer(H)
        c -= mean[None, :]
        rs = 1.0 / np.sqrt(np.sum(w[:, None] * (c * c), axis=0) / total + _BN_EPS)
        z = c * rs[None, :]
        wbar = (w / total)[:, None]

        def vjp(g):
            z = c * rs[None, :]  # the forward's z, which a relu may have overwritten
            return (rs * (g - wbar * (g.sum(axis=0) + z * (g * z).sum(axis=0))),)

        return self._record(z, (H,), vjp)

    # the pair head (pair endpoints indexed out of per-node rows)
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

    # the loss
    def mse(self, d: Node, target) -> Node:
        """Mean of (target - d)^2 over the entries of d."""
        r = np.asarray(target, np.float64) - d.value
        n = r.size
        return self._record(np.mean(r * r), (d,), lambda g: (-2.0 * ((g / n) * r),))

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
            g, node.grad = node.grad, None  # spent once its vjp has run
            # a parent's first cotangent is its gradient; later ones add to it
            for parent, contrib in zip(node.parents, node.vjp(g)):
                parent.grad = contrib if parent.grad is None else parent.grad + contrib
