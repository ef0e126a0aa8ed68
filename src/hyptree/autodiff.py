"""The training tower's forward pass and its explicit reverse pass.

The tower is the trained model's affine layers, with a ReLU between two
layers, after a batch norm when it is enabled. ``Tape`` runs it forward
when it is made and keeps what the reverse pass reads: per layer, the
rows that went into it. Between layers it keeps the ReLU's bool mask,
and with batch norm its centred rows c and column scales rs, from which
the reverse pass forms the batch norm's output z = c rs again, because
the ReLU overwrote it. ``backward`` maps the cotangent of the output rows
to each layer's (dA, db) by the layers' closed-form vjps.

One row buffer per hidden layer is kept, two with batch norm. The affine
output is the buffer that batch norm centres in place, or that the ReLU
zeroes in place; with batch norm the ReLU zeroes z in place. The input
rows X are read, never written.
"""

from __future__ import annotations

from collections import namedtuple

import numpy as np

_BN_EPS = 1e-5


# What the reverse pass reads of one layer: its input rows ``value`` and,
# past the first layer, the ReLU mask and the batch norm's c and rs that
# formed them from the previous layer's affine output.
_Layer = namedtuple("_Layer", "value mask c rs", defaults=(None, None, None))


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
            if i:
                c = rs = None
                if batch_norm:
                    # whiten each column, z = c rs with c = h - mean and
                    # rs = (var + eps)^(-1/2), centring h in place
                    c = H
                    c -= (np.sum(w[:, None] * H, axis=0) / total)[None, :]
                    rs = 1.0 / np.sqrt(np.sum(w[:, None] * (c * c), axis=0) / total + _BN_EPS)
                    H = c * rs[None, :]
                mask = H > 0.0
                np.copyto(H, 0.0, where=~mask)
                node = _Layer(H, mask, c, rs)
            self.nodes.append(node)
            H = node.value @ A.T + b[None, :]
        self.output = H

    def backward(self, G):
        """(dA, db) of every layer, from the cotangent G of the output rows.

        The batch norm's vjp rs (g - wbar (sum g + z sum g z)) sums over
        rows without weights: row k already stands for a share wbar[k].
        """
        grads = []
        for node, (A, *_) in zip(reversed(self.nodes), reversed(self.layers)):
            grads.append((G.T @ node.value, G.sum(axis=0)))
            if node.mask is None:
                break
            G = G @ A
            G *= node.mask  # in place: the previous G is already freed
            if node.c is not None:
                z = node.c * node.rs[None, :]
                G = node.rs * (G - self.wbar * (G.sum(axis=0) + z * (G * z).sum(axis=0)))
        return grads[::-1]
