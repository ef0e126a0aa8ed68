"""Hot numeric kernels, one vectorized numpy implementation each.

Scalar references for the kernels live with the tests, which check every
kernel against an independent oracle. All kernels are pure: no RNG, no
global state, deterministic outputs.
"""

from __future__ import annotations

import numpy as np

_EPS = 1e-12

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
