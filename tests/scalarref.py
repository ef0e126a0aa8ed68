"""Scalar reference implementations used by the test suite.

Each function here is a plain per-element or per-pair restatement of
something the library computes in vectorized or batched form: the spring
layout step, the distortion bounds, one hyperbolic layer, the pair
distance heads and the pair loss.
"""

import numpy as np

from hyptree.hypgeom import basepoint, distance, drop, exp_map, lift, log_map, parallel_transport
from hyptree.networks import NetworkError, hnn_forward, mlp_forward

_EPS = 1e-12


def fr_step(pos, eu, ev, k, t):
    """One Fruchterman-Reingold iteration as scalar loops."""
    n, dim = pos.shape
    disp = np.zeros((n, dim))
    # repulsion between every pair: k^2 / d along the separation
    for i in range(n):
        for j in range(n):
            if i == j:
                continue
            d2 = 0.0
            for c in range(dim):
                diff = pos[i, c] - pos[j, c]
                d2 += diff * diff
            d = max(np.sqrt(d2), _EPS)
            coef = k * k / (d * d)
            for c in range(dim):
                disp[i, c] += (pos[i, c] - pos[j, c]) * coef
    # attraction along edges: d^2 / k
    for u, v in zip(eu, ev):
        d2 = 0.0
        for c in range(dim):
            diff = pos[u, c] - pos[v, c]
            d2 += diff * diff
        coef = max(np.sqrt(d2), _EPS) / k
        for c in range(dim):
            step = (pos[u, c] - pos[v, c]) * coef
            disp[u, c] -= step
            disp[v, c] += step
    # displacement capped at the temperature
    out = pos.copy()
    for i in range(n):
        d = np.sqrt(sum(disp[i, c] * disp[i, c] for c in range(dim)))
        if d > _EPS:
            scale = min(d, t) / d
            for c in range(dim):
                out[i, c] += disp[i, c] * scale
    return out


def ratio_bounds(dspace, dtree):
    """(min, max) of dspace/dtree over pairs i < j, and whether every dspace > 0."""
    n = dspace.shape[0]
    alpha, beta, injective = np.inf, 0.0, True
    for i in range(n):
        for j in range(i + 1, n):
            ds = dspace[i, j]
            if ds <= 0.0:
                injective = False
            r = ds / dtree[i, j]
            alpha = min(alpha, r)
            beta = max(beta, r)
    return alpha, beta, injective


def hyperbolic_layer(a, b, c, A, x):
    """One hyperboloid-valued layer: read at a, affine + ReLU, write at c."""
    A = np.asarray(A, dtype=np.float64)
    b = np.asarray(b, dtype=np.float64)
    if x.dim != a.dim:
        raise NetworkError(f"input on H^{x.dim} but layer reads at a point on H^{a.dim}")
    if A.ndim != 2 or A.shape != (c.dim, a.dim) or b.shape != (c.dim,):
        raise NetworkError(f"affine part must map dim {a.dim} to dim {c.dim}")
    u = drop(parallel_transport(a, basepoint(a.dim), log_map(a, x)))
    v = lift(np.maximum(A @ u + b, 0.0))
    return exp_map(c, parallel_transport(basepoint(v.dim), c, v))


def d_pred_mlp(p, x1, x2) -> float:
    """Euclidean distance between the two forward passes."""
    return float(np.linalg.norm(mlp_forward(p, x1) - mlp_forward(p, x2)))


def d_pred_hnn(p, x1, x2) -> float:
    """Hyperbolic distance (kappa = -1) between the two outputs."""
    return distance(hnn_forward(p, x1), hnn_forward(p, x2))


def loss_mse(batch, predict) -> float:
    """Mean of (d_true - predict(u, v))^2 over the batch."""
    preds = np.array([predict(int(a), int(b)) for a, b in zip(batch.u, batch.v)])
    return float(np.mean((batch.d_true - preds) ** 2))
