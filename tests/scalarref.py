"""Scalar reference implementations used by the test suite.

Each function here is a plain per-element or per-pair restatement of
something the library computes in vectorized or batched form: the spring
layout step, the distortion bounds, one hyperbolic layer, the pair
distance heads and the pair loss. The ``*_full`` kernels compute the spring
layout step and the pairwise distance matrices on whole n x n matrices,
with the float operations of the row-blocked library kernels, as oracles
those kernels must match bit for bit; ``hyperbolic_matrix`` evaluates the
HNN training head on every ordered pair, the oracle of the symmetric
intrinsic kernel. ``stacked_pair_loss`` restates the
batched training loss without deduplicating the pair endpoints.
``embedding_distance_pair`` unrolls the tree path of one pair with the
scalar log-space triangle helpers below, on frames and lengths rebuilt from
the tree by ``ambientutil.frame_slots``, and ``curvature_scan_pairwise``
runs the curvature scan pair by pair on it. ``curvature_scan_full`` judges
every scale on its full distance matrix with ``distortion_from_matrices``,
the oracle of every decision and exit message of the library's probing
scan, whose full check streams its blocks instead.

The library has no caller for a few forms that the tests use as shorthand,
so they live here: ``pairwise_intrinsic`` (the matrix of
``kernels.intrinsic_blocks``), ``mlp_forward`` (one input through an MLP),
and ``load_params`` (the reader of the params JSON that the program writes
and never reads back).
"""

import json
import math

import numpy as np

from ambientutil import frame_slots
from hyptree import kernels
from hyptree.embed import EmbedError, embedding_distance_matrix, sarkar_embed
from hyptree.hypgeom import (
    HPoint,
    basepoint,
    distance,
    drop,
    exp_map,
    lift,
    log_map,
    parallel_transport,
)
from hyptree.networks import HnnParams, MlpParams, NetworkError, hnn_forward
from hyptree.train import _hyperbolic_head, _predict_rows
from hyptree.trees import centroid

_EPS = 1e-12
_LN2 = math.log(2.0)
_TWO_PI = 2.0 * math.pi


def fr_step(pos, eu, ev, k, t):
    """One Fruchterman-Reingold iteration as scalar loops over Python floats."""
    n, dim = pos.shape
    x = pos.tolist()
    disp = [[0.0] * dim for _ in range(n)]
    # repulsion between every pair: k^2 / d along the separation
    for i in range(n):
        for j in range(n):
            if i == j:
                continue
            d2 = 0.0
            for c in range(dim):
                diff = x[i][c] - x[j][c]
                d2 += diff * diff
            d = max(math.sqrt(d2), _EPS)
            coef = k * k / (d * d)
            for c in range(dim):
                disp[i][c] += (x[i][c] - x[j][c]) * coef
    # attraction along edges: d^2 / k
    for u, v in zip(eu.tolist(), ev.tolist()):
        d2 = 0.0
        for c in range(dim):
            diff = x[u][c] - x[v][c]
            d2 += diff * diff
        coef = max(math.sqrt(d2), _EPS) / k
        for c in range(dim):
            step = (x[u][c] - x[v][c]) * coef
            disp[u][c] -= step
            disp[v][c] += step
    # displacement capped at the temperature
    out = [row[:] for row in x]
    for i in range(n):
        d = math.sqrt(sum(disp[i][c] * disp[i][c] for c in range(dim)))
        if d > _EPS:
            scale = min(d, t) / d
            for c in range(dim):
                out[i][c] += disp[i][c] * scale
    return np.array(out)


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


def distortion_from_matrices(d_space, d_tree):
    """The report of d_space/d_tree over the pairs i < j of two dense
    matrices, by ``kernels.ratio_bounds``."""
    if np.shape(d_space)[0] < 2:
        raise EmbedError("distortion needs at least two nodes")
    return kernels.ratio_bounds(np.asarray(d_space, np.float64), np.asarray(d_tree, np.float64))


def _squared_distances_full(pts, diff):
    """sum_c (x_ic - x_jc)^2 as one n x n matrix, accumulated one coordinate
    at a time through the n x n scratch array diff."""
    n = pts.shape[0]
    out = np.zeros((n, n))
    for c in range(pts.shape[1]):
        np.subtract.outer(pts[:, c], pts[:, c], out=diff)
        out += np.square(diff, out=diff)
    return out


def fr_step_full(pos, eu, ev, k, t):
    """One Fruchterman-Reingold iteration on full n x n matrices, with the
    float operations of the row-blocked kernel in the same order: the oracle
    the kernel must match bit for bit."""
    n = pos.shape[0]
    diff = np.empty((n, n))
    coef = _squared_distances_full(pos, diff)
    np.maximum(coef, _EPS * _EPS, out=coef)
    np.divide(k * k, coef, out=coef)
    np.fill_diagonal(coef, 0.0)
    disp = np.empty_like(pos)
    for c in range(pos.shape[1]):
        np.subtract.outer(pos[:, c], pos[:, c], out=diff)
        disp[:, c] = np.einsum("ij,ij->i", coef, diff)

    edge_diff = pos[eu] - pos[ev]
    edge_dist = np.maximum(np.sqrt(np.sum(edge_diff**2, axis=-1)), _EPS)
    pull = edge_diff * (edge_dist / k)[:, None]
    np.subtract.at(disp, eu, pull)
    np.add.at(disp, ev, pull)

    length = np.sqrt(np.sum(disp * disp, axis=-1))
    scale = np.where(length > _EPS, np.minimum(length, t) / np.maximum(length, _EPS), 0.0)
    return pos + disp * scale[:, None]


def pairwise_euclidean_full(pts):
    """Euclidean distance matrix on full n x n matrices (bit-for-bit oracle)."""
    n = pts.shape[0]
    out = _squared_distances_full(pts, np.empty((n, n)))
    return np.sqrt(out, out=out)


def pairwise_hyperboloid_full(pts):
    """Hyperboloid distance matrix on full n x n matrices (bit-for-bit oracle)."""
    n = pts.shape[0]
    diff = np.empty((n, n))
    q = _squared_distances_full(pts[:, :-1], diff)
    np.subtract.outer(pts[:, -1], pts[:, -1], out=diff)
    q -= np.square(diff, out=diff)
    np.maximum(q, 0.0, out=q)
    np.sqrt(q, out=q)
    q *= 0.5
    np.arcsinh(q, out=q)
    q *= 2.0
    return q


def hyperbolic_matrix(U):
    """H^k distances d(Exp_0 u_i, Exp_0 u_j) between all tangent rows of U:
    the training head on every ordered pair, ceil(n/16) source rows per
    call (the oracle of ``pairwise_intrinsic``)."""
    n = U.shape[0]
    out = np.empty((n, n))
    step = -(-n // 16)
    cols = np.arange(n)
    for start in range(0, n, step):
        rows = np.arange(start, min(start + step, n))
        out[rows] = _hyperbolic_head(U, np.repeat(rows, n), np.tile(cols, rows.size)).reshape(rows.size, n)
    return out


def pairwise_intrinsic(U):
    """The matrix of ``kernels.intrinsic_blocks``, mirrored; the distance is
    exactly symmetric."""
    return kernels._symmetric_matrix(U.shape[0], kernels.intrinsic_blocks(U))


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


def mlp_forward(p: MlpParams, x) -> np.ndarray:
    """One input vector through the MLP: affine layers, ReLU between them."""
    x = np.asarray(x, dtype=np.float64)
    if x.ndim != 1 or x.size != p.input_dim:
        raise NetworkError(f"input must be a vector of dim {p.input_dim}")
    h = x
    last = len(p.layers) - 1
    for i, (A, b) in enumerate(p.layers):
        h = A @ h + b
        if i != last:
            h = np.maximum(h, 0.0)
    return h


def params_from_dict(data: dict):
    """MlpParams or HnnParams from the dict that ``networks.params_to_dict`` writes."""
    kind = data.get("kind")
    if kind == "mlp":
        return MlpParams(
            tuple(
                (np.asarray(l["A"], np.float64), np.asarray(l["b"], np.float64))
                for l in data["layers"]
            )
        )
    if kind == "hnn":
        return HnnParams(
            HPoint(np.asarray(data["entry_bias"], np.float64)),
            tuple(
                (
                    np.asarray(l["A"], np.float64),
                    np.asarray(l["b"], np.float64),
                    HPoint(np.asarray(l["c"], np.float64)),
                )
                for l in data["layers"]
            ),
        )
    raise NetworkError(f"unknown params kind {kind!r}")


def load_params(path):
    with open(path, "r", encoding="utf-8") as fh:
        return params_from_dict(json.load(fh))


def d_pred_mlp(p, x1, x2) -> float:
    """Euclidean distance between the two forward passes."""
    return float(np.linalg.norm(mlp_forward(p, x1) - mlp_forward(p, x2)))


def d_pred_hnn(p, x1, x2) -> float:
    """Hyperbolic distance (kappa = -1) between the two outputs."""
    return distance(hnn_forward(p, x1), hnn_forward(p, x2))


def loss_mse(u, v, d_true, predict) -> float:
    """Mean of (d_true - predict(u, v))^2 over the node pairs (u, v)."""
    preds = np.array([predict(int(a), int(b)) for a, b in zip(u, v)])
    return float(np.mean((np.asarray(d_true) - preds) ** 2))


def stacked_pair_loss(params, x1, x2, d_true, batch_norm) -> float:
    """Pair MSE with all 2B endpoint rows [x1; x2] pushed through the tower
    as one batch, every row once in the batch statistics, then split in half.
    An HNN's rows are tangent vectors at the apex; each pair's distance is
    taken between their ambient images Exp_0 u."""
    n = len(x1)
    Y = _predict_rows(params.layers, np.concatenate([x1, x2], axis=0), batch_norm)
    if isinstance(params, HnnParams):
        apex = basepoint(Y.shape[1])
        pts = [exp_map(apex, lift(u)) for u in Y]
        d = np.array([distance(p, q) for p, q in zip(pts[:n], pts[n:])])
    else:
        d = np.sqrt(np.sum((Y[:n] - Y[n:]) ** 2, axis=1))
    return float(np.mean((np.asarray(d_true) - d) ** 2))


def _ln_cosh(x: float) -> float:
    ax = abs(x)
    return ax + math.log1p(math.exp(-2.0 * ax)) - _LN2


def _ln_sinh(x: float) -> float:
    # requires x > 0
    return x + math.log1p(-math.exp(-2.0 * x)) - _LN2


def _inv_ln_cosh(y: float) -> float:
    """Solve ln cosh D = y for D >= 0."""
    if y <= 0.0:
        return 0.0
    if y < 30.0:
        return math.acosh(math.exp(y))
    return y + _LN2


def _wrap(a: float) -> float:
    """Reduce an angle to (-pi, pi]."""
    r = math.remainder(a, _TWO_PI)
    return math.pi if r == -math.pi else r


def _side_from_angle(d: float, ell: float, theta: float) -> float:
    """Third side of a triangle with sides d, ell and included angle |theta|:
    cosh D' = sin^2(t/2) cosh(d+ell) + cos^2(t/2) cosh(d-ell), in log space."""
    s = math.sin(0.5 * abs(theta))
    c = math.cos(0.5 * abs(theta))
    s2, c2 = s * s, c * c
    terms = []
    if s2 > 0.0:
        terms.append(math.log(s2) + _ln_cosh(d + ell))
    if c2 > 0.0:
        terms.append(math.log(c2) + _ln_cosh(d - ell))
    y = terms[0] if len(terms) == 1 else np.logaddexp(terms[0], terms[1])
    return _inv_ln_cosh(float(y))


def _angle_opposite(side_far: float, side_near: float, side_op: float, theta: float) -> float:
    """Angle adjacent to side_near, opposite side_op, in a triangle whose
    included angle between side_op and side_near is |theta|."""
    if side_far <= 0.0 or side_near <= 0.0:
        return 0.0
    if side_op <= 0.0:
        sin_a = 0.0
    else:
        sin_a = math.sin(abs(theta)) * math.exp(_ln_sinh(side_op) - _ln_sinh(side_far))
    a = _ln_cosh(side_far) + _ln_cosh(side_near)
    b = _ln_cosh(side_op)
    m = max(a, b)
    num = math.exp(a - m) - math.exp(b - m)
    den = math.exp(_ln_sinh(side_far) + _ln_sinh(side_near) - m)
    return math.atan2(sin_a, num / den)


def reference_frame(t):
    """The tree's frames, parents and weights to the parent, rebuilt by
    ``ambientutil.frame_slots`` from the tree alone: the oracle's own record
    of the construction, shared with nothing under test."""
    return frame_slots(t, centroid(t))


def _tree_path(parent, u, v):
    """Nodes on the tree path from u to v, both included."""
    up_u = [u]
    while parent[up_u[-1]] is not None:
        up_u.append(parent[up_u[-1]])
    on_u = set(up_u)
    up_v = [v]
    while up_v[-1] not in on_u:
        up_v.append(parent[up_v[-1]])
    lca = up_v[-1]
    head = up_u[: up_u.index(lca) + 1]
    return head + up_v[-2::-1]


def embedding_distance_pair(frame, tau, u, v):
    """d_{-1} between the images of u and v at scale tau: one law-of-cosines
    step per hop along the tree path from u to v. ``frame`` is the tree's
    ``reference_frame``; each slot angle is 2 pi times its exact fraction of
    a full turn, and each edge is tau times its tree weight."""
    slots, parent, w_up = frame
    if u == v:
        return 0.0
    path = _tree_path(parent, u, v)

    def length(a, b):
        return tau * (w_up[b] if parent[b] == a else w_up[a])

    def angle(a, b):
        frac = slots[a][b]
        return _TWO_PI * frac.numerator / frac.denominator

    d = length(path[0], path[1])
    if len(path) == 2:
        return d
    # state: d = dist(u, p_i); psi = signed angle at p_i from the ray
    # toward p_{i+1} to the ray toward u
    psi = _wrap(angle(path[1], path[0]) - angle(path[1], path[2]))
    for i in range(1, len(path) - 1):
        mid, nxt = path[i], path[i + 1]
        ell = length(mid, nxt)
        d_new = _side_from_angle(d, ell, psi)
        delta = _angle_opposite(d_new, ell, d, psi)
        sign = 1.0 if psi >= 0.0 else -1.0
        back_to_u = _wrap(-sign * delta)
        if i + 2 < len(path):
            turn = _wrap(angle(nxt, path[i + 2]) - angle(nxt, mid))
            psi = _wrap(back_to_u - turn)
        d = d_new
    return d


def curvature_scan_pairwise(t, metric, lam, tau_grid):
    """(tau, alpha, beta) of the first grid scale meeting lam, or None.

    Every pair's ratio d_{-1} / (tau d_T) is formed one at a time. The scan
    stops at the first scale that puts the centroid's metric row past 350.
    """
    ids = list(metric.ids)
    frame = reference_frame(t)
    ecc = float(metric.matrix[ids.index(centroid(t))].max())
    for tau in sorted(tau_grid):
        if tau * ecc > 350:
            return None
        alpha, beta = math.inf, 0.0
        for i, u in enumerate(ids):
            for v in ids[i + 1 :]:
                ratio = embedding_distance_pair(frame, tau, u, v) / (tau * metric.dist(u, v))
                alpha = min(alpha, ratio)
                beta = max(beta, ratio)
        if alpha >= 1.0 / lam and beta <= lam:
            return tau, alpha, beta
    return None


def curvature_scan_full(t, metric, lam, tau_grid, reports):
    """(tau, report) of the first grid scale meeting lam, or the scan's error text.

    Each scale is judged on its full ``embedding_distance_matrix``. The dict
    ``reports`` keeps each scale's report, or the overflow message of the
    scale that hit the cap, across calls on the same tree. A scale hits the
    cap when it puts the centroid's metric row past 350.
    """
    ids = list(metric.ids)
    ecc = float(metric.matrix[ids.index(centroid(t))].max())
    best = capped = None
    for tau in sorted(tau_grid):
        if tau not in reports:
            if tau * ecc > 350:
                reports[tau] = f"tau={tau:g} hit the overflow cap: radius {tau * ecc:.1f} > 350"
            else:
                mat = embedding_distance_matrix(sarkar_embed(t, tau), ids)
                reports[tau] = distortion_from_matrices(mat, tau * metric.matrix)
        report = reports[tau]
        if isinstance(report, str):
            capped = report
            break
        if report.alpha >= 1.0 / lam and report.beta <= lam:
            return tau, report
        if best is None or report.dist < best[0]:
            best = (report.dist, tau)
    reasons = [f"no grid scale met lambda={lam:g}"]
    if best is not None:
        reasons.append(f"best distortion {best[0]:.6g} at tau={best[1]:g}")
    if capped:
        reasons.append(capped)
    return "; ".join(reasons)
