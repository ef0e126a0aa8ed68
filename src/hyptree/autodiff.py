"""The training tower's forward pass and its explicit reverse pass.

The tower is the trained model's affine layers, with a ReLU between two
layers, after a batch norm when it is enabled. ``Tape`` runs it forward
when it is made and keeps what the reverse pass reads: per layer, the
rows that went into it, and with batch norm the batch norm's output z and
column scales rs. The ReLU is ``np.fmax(h, 0.0)``, which writes +0.0 where
h is NaN, as a masked copy would; ``np.maximum`` would keep the NaN. Its
rows are > 0 exactly where its input was, so the reverse pass masks by
them. ``backward`` maps the cotangent of the output rows to each layer's
(dA, db) by the layers' closed-form vjps.

One row buffer per hidden layer is kept, two with batch norm. The affine
output is the buffer that the ReLU overwrites, or that batch norm centres
and scales into z in place; then the ReLU writes new rows. The input rows
X are read, never written.

A weight gradient G.T @ V sums over the batch's rows, and OpenBLAS splits
one such product over more than a few hundred rows differently on one
thread and on two, so its last bits would follow the thread count.
``backward`` sums products over blocks of ``_GRAD_ROWS`` rows in row order
instead, whose bits matched on one and two threads in every case tried, so
a process that loaded numpy before the CLI could pin one thread (a library
caller, a test, the tracer) writes the CLI's outputs. The forward products
and G @ A read the same bits on one and two threads at 1000 rows, and stay
one product each.
"""

from __future__ import annotations

from collections import namedtuple

import numpy as np

_BN_EPS = 1e-5
_GRAD_ROWS = 384


# What the reverse pass reads of one layer: its input rows ``value`` and,
# past the first layer with batch norm, the batch norm's output z and
# column scales rs that formed them, through the ReLU, from the previous
# layer's affine output.
_Layer = namedtuple("_Layer", "value z rs", defaults=(None, None))


class Tape:
    """The tower's forward pass on rows X, with one record per layer in
    ``nodes`` and the output rows in ``output``.

    ``layers`` holds each layer's (A, b, ...) with A of shape (out, in).
    With ``batch_norm``, row k counts ``weights[k]`` times in the column
    mean and variance (any positive scale, divided by their sum; once each
    when None).
    """

    def __init__(self, layers, X, batch_norm=False, weights=None):
        self.layers = layers
        if batch_norm:
            w = np.ones(X.shape[0]) if weights is None else np.asarray(weights, np.float64)
            total = w.sum()
            self.wbar = (w / total)[:, None]  # the share of the batch that each row stands for
        self.nodes = []
        node = _Layer(X)
        for i, (A, b, *_) in enumerate(layers):
            if i and batch_norm:
                # whiten each column in place, z = (h - mean) rs with
                # rs = (var + eps)^(-1/2); the ReLU writes new rows
                H -= (np.sum(w[:, None] * H, axis=0) / total)[None, :]
                rs = 1.0 / np.sqrt(np.sum(w[:, None] * (H * H), axis=0) / total + _BN_EPS)
                H *= rs[None, :]
                node = _Layer(np.fmax(H, 0.0), H, rs)
            elif i:
                node = _Layer(np.fmax(H, 0.0, out=H))
            self.nodes.append(node)
            H = node.value @ A.T + b[None, :]
        self.output = H

    def backward(self, G):
        """(dA, db) of every layer, from the cotangent G of the output rows.

        The batch norm's vjp rs (g - wbar (sum g + z sum g z)) sums over
        rows without weights: row k already stands for a share wbar[k].
        """
        grads = []
        for k in reversed(range(len(self.nodes))):
            node = self.nodes[k]
            dA = G[:_GRAD_ROWS].T @ node.value[:_GRAD_ROWS]
            for r in range(_GRAD_ROWS, len(G), _GRAD_ROWS):
                dA += G[r:r + _GRAD_ROWS].T @ node.value[r:r + _GRAD_ROWS]
            grads.append((dA, G.sum(axis=0)))
            if k == 0:
                break
            G = G @ self.layers[k][0]
            G *= node.value > 0.0  # in place: the previous G is already freed
            if node.z is not None:
                G = node.rs * (G - self.wbar * (G.sum(axis=0) + node.z * (G * node.z).sum(axis=0)))
        return grads[::-1]
