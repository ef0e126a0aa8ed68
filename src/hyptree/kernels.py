"""Hot numeric kernels, one vectorized numpy implementation each.

Scalar references for the kernels live with the tests, which check every
kernel against an independent oracle. All kernels are pure: no RNG, no
global state, deterministic outputs.
"""

from __future__ import annotations

import math

import numpy as np

_EPS = 1e-12
_LN2 = math.log(2.0)
_TWO_PI = 2.0 * math.pi

# The benchmark's traced run records this name; numpy is the only backend.
ACTIVE_BACKEND = "numpy"


def fr_step(pos, eu, ev, k, t):
    """One Fruchterman-Reingold iteration: k^2/d repulsion between all pairs,
    d^2/k attraction along edges, displacement capped at the temperature t.

    The repulsion coefficients k^2/d^2 fill one n x n matrix, and each
    coordinate of the displacement is its row contraction with the n x n
    differences of that coordinate, so no (n, n, dim) array is formed. The
    contraction keeps the difference form sum_j c_ij (x_i - x_j): the
    expanded x_i sum_j c_ij - sum_j c_ij x_j cancels on near-coincident
    points (with two of 40 points 1e-9 apart, the step's relative error is
    2e-7 in that form and 5e-15 in this one).
    """
    n = pos.shape[0]
    diff = np.empty((n, n))
    coef = _squared_distances(pos, diff)
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


def tree_metric_all_pairs(eu, ev, w, n):
    """All-pairs path lengths of the tree with edges (eu[e], ev[e], w[e]) on nodes 0..n-1.

    In a DFS preorder from node 0 every subtree is a contiguous range of
    columns. A bottom-up sweep fills each parent's row on a child's subtree
    from the child's row; a top-down sweep fills each child's row outside its
    subtree from the parent's row. Every entry is a sum of edge weights, never
    a difference, and the diagonal stays exactly 0.
    """
    adj = [[] for _ in range(n)]
    for u, v, wt in zip(eu.tolist(), ev.tolist(), w.tolist()):
        adj[u].append((v, wt))
        adj[v].append((u, wt))
    order, parent, up = [], [-1] * n, [0.0] * n
    stack = [0]
    while stack:
        v = stack.pop()
        order.append(v)
        for nbr, wt in adj[v]:
            if nbr != parent[v]:
                parent[nbr], up[nbr] = v, wt
                stack.append(nbr)
    pos = np.empty(n, np.int64)
    pos[order] = np.arange(n)
    # from here on, nodes are named by their preorder position; the root is 0
    par = [0] + [int(pos[parent[v]]) for v in order[1:]]
    edge = [up[v] for v in order]
    end = list(range(1, n + 1))  # subtree of i is the column range [i, end[i])
    for i in range(n - 1, 0, -1):
        end[par[i]] = max(end[par[i]], end[i])

    out = np.zeros((n, n))
    for i in range(n - 1, 0, -1):
        out[par[i], i:end[i]] = out[i, i:end[i]] + edge[i]
    for i in range(1, n):
        p, e = par[i], end[i]
        out[i, :i] = out[p, :i] + edge[i]
        out[i, e:] = out[p, e:] + edge[i]
    return out[np.ix_(pos, pos)]


def _squared_distances(pts, diff):
    """sum_c (x_ic - x_jc)^2 as one n x n matrix, accumulated one coordinate
    at a time through the n x n scratch array diff."""
    n = pts.shape[0]
    out = np.zeros((n, n))
    for c in range(pts.shape[1]):
        np.subtract.outer(pts[:, c], pts[:, c], out=diff)
        out += np.square(diff, out=diff)
    return out


def pairwise_euclidean(pts):
    n = pts.shape[0]
    out = _squared_distances(pts, np.empty((n, n)))
    return np.sqrt(out, out=out)


def pairwise_hyperboloid(pts):
    """Chordal-stable d = 2 asinh(sqrt(<x-y|x-y>_M)/2); time coordinate last."""
    n = pts.shape[0]
    diff = np.empty((n, n))
    q = _squared_distances(pts[:, :-1], diff)
    np.subtract.outer(pts[:, -1], pts[:, -1], out=diff)
    q -= np.square(diff, out=diff)
    np.maximum(q, 0.0, out=q)
    np.sqrt(q, out=q)
    q *= 0.5
    np.arcsinh(q, out=q)
    q *= 2.0
    return q


def ratio_bounds(dspace, dtree):
    """(min, max) of dspace/dtree over pairs i < j, and whether every dspace > 0."""
    n = dspace.shape[0]
    iu, ju = np.triu_indices(n, k=1)
    ds = dspace[iu, ju]
    ratios = ds / dtree[iu, ju]
    return float(np.min(ratios)), float(np.max(ratios)), bool(np.all(ds > 0.0))


def wrap_angle(a):
    """Angles reduced to (-pi, pi]: math.remainder(a, 2*pi) bit for bit, with -pi
    sent to pi. fmod is exact, and so is its one correction by 2*pi (Sterbenz)."""
    r = np.fmod(a, _TWO_PI)
    r = np.where(r > np.pi, r - _TWO_PI, r)
    return np.where(r <= -np.pi, r + _TWO_PI, r)


def _log_cosh(x):
    ax = np.abs(x)
    return ax + np.log1p(np.exp(-2.0 * ax)) - _LN2


def _log_sinh(x):
    # requires x > 0
    return x + np.log1p(-np.exp(-2.0 * x)) - _LN2


def _inv_log_cosh(y):
    """Solve ln cosh D = y for D >= 0 (D = 0 where y <= 0)."""
    # beyond y = 30, e^{-2D} < 1e-26, so the log1p correction is below resolution
    return np.where(y < 30.0, np.arccosh(np.exp(np.clip(y, 0.0, 30.0))), y + _LN2)


def _interior_angle(lc_far, ls_far, lc_near, ls_near, lc_op, ls_op, sin_t):
    """Angle between the sides far and near, opposite the side op, from the
    sides' ln cosh and ln sinh: sin by the law of sines, cos by the law of
    cosines, with shifted exponentials so huge cosh values never materialize."""
    sin_a = sin_t * np.exp(ls_op - ls_far)
    a = lc_far + lc_near
    m = np.maximum(a, lc_op)
    cos_num = np.exp(a - m) - np.exp(lc_op - m)
    return np.arctan2(sin_a, cos_num / np.exp(ls_far + ls_near - m))


def triangle_step(d, ell, theta):
    """One log-space law-of-cosines step, on arrays.

    The sides d = PA and ell = PB meet at P, where theta is the signed angle
    from the ray PB to the ray PA. Returns (side, at_b, at_a): the third side
    AB, the signed angle at B from the ray BP to the ray BA, in (-pi, pi], and
    the signed angle at A from the ray AP to the ray AB. Both angles are 0
    where any side is 0. The side is the half-angle split
    cosh AB = sin^2(t/2) cosh(d + ell) + cos^2(t/2) cosh(d - ell), in log space.
    """
    half = 0.5 * np.abs(theta)
    with np.errstate(divide="ignore"):  # log(0) where theta = 0 drops that term
        y = np.logaddexp(np.log(np.sin(half) ** 2) + _log_cosh(d + ell),
                         np.log(np.cos(half) ** 2) + _log_cosh(d - ell))
    side = _inv_log_cosh(y)
    sides = (side, d, ell)
    ok = (side > 0.0) & (d > 0.0) & (ell > 0.0)
    if not ok.all():
        sides = tuple(np.where(ok, s, 1.0) for s in sides)
    lc = [_log_cosh(s) for s in sides]
    ls = [_log_sinh(s) for s in sides]
    sin_t = np.sin(np.abs(theta))
    at_b = np.where(ok, _interior_angle(lc[0], ls[0], lc[2], ls[2], lc[1], ls[1], sin_t), 0.0)
    at_a = np.where(ok, _interior_angle(lc[0], ls[0], lc[1], ls[1], lc[2], ls[2], sin_t), 0.0)
    sign = np.where(theta >= 0.0, 1.0, -1.0)
    return side, wrap_angle(-sign * at_b), sign * at_a
