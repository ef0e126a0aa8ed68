"""A reference training tower whose ReLU is a masked copy.

``MaskedCopyTape`` restates ``autodiff.Tape`` with the ReLU it had before
it became ``np.fmax``: ``mask = h > 0; np.copyto(h, 0.0, where=~mask)``,
which writes +0.0 wherever h is not > 0, NaN and -0.0 included. Its
reverse pass reads the stored masks, and re-forms the batch norm's output
z = c rs from the centred rows c. ``pre`` keeps a copy of each hidden
layer's pre-activations (the ReLU's input), so that a test can show which
values reached the ReLU.
"""

import numpy as np

_BN_EPS = 1e-5


class MaskedCopyTape:
    def __init__(self, layers, X, batch_norm=False, weights=None):
        self.layers = layers
        if batch_norm:
            w = np.ones(X.shape[0]) if weights is None else np.asarray(weights, np.float64)
            total = w.sum()
            self.wbar = (w / total)[:, None]
        self.nodes, self.pre = [(X, None, None, None)], []
        H = X @ layers[0][0].T + layers[0][1][None, :]
        for A, b, *_ in layers[1:]:
            c = rs = None
            if batch_norm:
                c = H
                c -= (np.sum(w[:, None] * H, axis=0) / total)[None, :]
                rs = 1.0 / np.sqrt(np.sum(w[:, None] * (c * c), axis=0) / total + _BN_EPS)
                H = c * rs[None, :]
            self.pre.append(H.copy())
            mask = H > 0.0
            np.copyto(H, 0.0, where=~mask)
            self.nodes.append((H, mask, c, rs))
            H = H @ A.T + b[None, :]
        self.output = H

    def backward(self, G):
        grads = []
        for (value, mask, c, rs), (A, *_) in zip(reversed(self.nodes), reversed(self.layers)):
            grads.append((G.T @ value, G.sum(axis=0)))
            if mask is None:
                break
            G = G @ A
            G *= mask
            if c is not None:
                z = c * rs[None, :]
                G = rs * (G - self.wbar * (G.sum(axis=0) + z * (G * z).sum(axis=0)))
        return grads[::-1]
