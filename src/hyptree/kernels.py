"""Hot numeric kernels, one vectorized numpy implementation each.

Scalar references for the kernels live with the tests, which check every
kernel against an independent oracle. All kernels are pure: no RNG, no
global state, deterministic outputs.

The n x n kernels walk their rows in blocks, so a block's arrays stay in
cache and no kernel allocates an n x n scratch array. Two walks share the
block forms:

- ``pairwise_euclidean``, ``pairwise_hyperboloid`` and ``ratio_bounds`` walk
  full rows, about ``_BLOCK`` entries per block array. Every entry goes
  through the float operations of the full-matrix form in the same order,
  so their outputs are bitwise equal to it.
- ``fr_step`` and ``pairwise_intrinsic`` walk the upper triangle
  (``_triangle_blocks``): rows [r0, r1) against the columns [r0, n), the
  rows growing as the columns shrink, so each unordered pair is formed once.
  A block's whole buffer is about ``_TRIANGLE_BYTES``, 1 MB: at dim 2,
  fr_step's four block arrays hold 2^15 entries each. Spring layouts of
  random(1000) took about the same time with 512 KB to 2 MB buffers, and a
  third longer or more at 256 KB and at 4 MB.

``_row_blocks`` gives each block of the two full-row distance kernels and
of ``fr_step`` its coordinate differences and their squared sum. It forms the
differences x_i - x_j of a block with one matmul of the rows [x_i, 1] by
the columns [1; -x_j]: a broadcast subtraction pays numpy's per-row overhead
on every row of the block, which made it about 40% of a spring-layout step
at n = 1000, and the matmul does not. Both products are exact, so each
difference is the subtraction rounded once (up to the sign of a zero, which
no output carries). ``fr_step`` sums each pair's repulsion into both of its
rows, so its sums run in another order than the full-matrix form's and
agree with it to rounding. ``pairwise_intrinsic``, the H^k distance between
the images Exp_0 u of tangent rows, goes through ``_apex_distance``, the one
implementation of that distance, which the HNN training head evaluates on
pair lists.
"""

from __future__ import annotations

import math

import numpy as np

_EPS = 1e-12
_LN2 = math.log(2.0)
_TWO_PI = 2.0 * math.pi
_BLOCK = 1 << 16  # float64 entries per full-row block array (512 KB)
_TRIANGLE_BYTES = 1 << 20  # a triangle block's whole buffer, over all its arrays

# The benchmark's traced run records this name; numpy is the only backend.
ACTIVE_BACKEND = "numpy"


def fr_step(pos, eu, ev, k, t):
    """One Fruchterman-Reingold iteration: k^2/d repulsion between all pairs,
    d^2/k attraction along edges, displacement capped at the temperature t.

    The repulsion walks the upper triangle in blocks (``_triangle_blocks``):
    rows [r0, r1) against columns [r0, n), a block's dim + 2 arrays about
    _TRIANGLE_BYTES in all. In each block the squared distances turn in
    place into the coefficients c_ij = k^2/max(d^2, eps^2), so each
    unordered pair's coefficient and differences are formed once, and the
    step holds no n x n array. For each coordinate the block adds its row
    contraction sum_j c_ij (x_i - x_j) to the displacement of its rows, and
    subtracts its column contraction sum_i c_ij (x_i - x_j) over the columns
    j >= r1 from theirs (the pairs among the block's own rows appear in both
    orders and reach their rows through the row contraction). The diagonal
    needs no zeroing: for finite coordinates its differences are exactly +0,
    so its coefficient k^2/eps^2, finite for k < 1e142, adds +0. Both
    contractions keep the difference form, since the expanded
    x_i sum_j c_ij - sum_j c_ij x_j cancels on near-coincident points (with
    two of 40 points 1e-9 apart, the step's relative error is 2e-7 in that
    form and 5e-15 in this one), and a pair split across two blocks reaches
    its second point through the column contraction. The sums run in another order than a
    full-matrix step's, so the two agree to rounding, not bit for bit.
    """
    disp = np.zeros_like(pos)
    for r0, r1, diff, coef in _row_blocks(pos, pos.shape[1], upper=True):
        np.maximum(coef, _EPS * _EPS, out=coef)
        np.divide(k * k, coef, out=coef)
        h = r1 - r0
        for c in range(pos.shape[1]):
            disp[r0:r1, c] += np.einsum("ij,ij->i", coef, diff[c])
            if r1 < len(pos):  # the last block has no columns past its rows
                disp[r1:, c] -= np.einsum("ij,ij->j", coef[:, h:], diff[c][:, h:])

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


def _block_rows(n):
    """Rows per block of an n-column walk: about _BLOCK entries, at least one."""
    return max(1, min(n, _BLOCK // max(n, 1)))


def _triangle_blocks(n, arrays):
    """Row blocks [r0, r1) of an upper-triangle walk, each against the
    columns [r0, n). A block's ``arrays`` float64 arrays fill about
    _TRIANGLE_BYTES, with at least one row, so its rows grow as its
    columns shrink."""
    entries = _TRIANGLE_BYTES // (8 * arrays)
    r0 = 0
    while r0 < n:
        r1 = min(n, r0 + max(1, entries // (n - r0)))
        yield r0, r1
        r0 = r1


def _row_blocks(pts, summed, upper=False):
    """Walk the rows of pts in blocks; yield (r0, r1, diff, sq) for each.

    diff[c] holds x_ic - x_jc for the rows i in [r0, r1) and every column j,
    or with ``upper`` every column j >= r0 (``_triangle_blocks``, with the
    whole buffer about _TRIANGLE_BYTES). It is formed as the product of
    left[c], the rows [x_ic, 1], and right[c], the rows [1; -x_jc], both
    built once per call: one matmul fills a block for every coordinate,
    where a broadcast subtraction pays numpy's overhead once per row of the
    block. With K = 2 both products are exact, so in any summation order,
    with or without FMA, the only rounding is that of x_ic - x_jc: the same
    double as the subtraction, except that a zero may come out +0 where
    x_ic = -0 and x_jc = +0 would give -0. A block's product is about 2^17
    multiply-adds, too small for the BLAS to split it across threads, so it
    runs on the calling thread.

    sq holds the sum of diff[c]^2 over the first ``summed`` coordinates,
    accumulated as square(diff[0]), then += square(diff[c]) in coordinate
    order. Both are views of one buffer that the next block overwrites.
    """
    n, dim = pts.shape
    left = np.ones((dim, n, 2))
    left[:, :, 0] = pts.T
    right = np.ones((dim, 2, n))
    np.negative(pts.T, out=right[:, 1])
    if upper:
        spans = [(r0, r1, r0) for r0, r1 in _triangle_blocks(n, dim + 2)]
    else:
        rows = _block_rows(n)
        spans = [(r0, min(r0 + rows, n), 0) for r0 in range(0, n, rows)]
    buf = np.empty((dim + 2) * max(((r1 - r0) * (n - c0) for r0, r1, c0 in spans), default=0))
    for r0, r1, c0 in spans:
        block = buf[: (dim + 2) * (r1 - r0) * (n - c0)].reshape(dim + 2, r1 - r0, n - c0)
        diff, sq, tmp = block[:dim], block[dim], block[dim + 1]
        np.matmul(left[:, r0:r1], right[:, :, c0:], out=diff)
        np.square(diff[0], out=sq)
        for c in range(1, summed):
            sq += np.square(diff[c], out=tmp)
        yield r0, r1, diff, sq


def pairwise_euclidean(pts):
    n = pts.shape[0]
    out = np.empty((n, n))
    for r0, r1, _, sq in _row_blocks(pts, pts.shape[1]):
        np.sqrt(sq, out=out[r0:r1])
    return out


def pairwise_hyperboloid(pts):
    """Chordal-stable d = 2 asinh(sqrt(<x-y|x-y>_M)/2); time coordinate last."""
    n = pts.shape[0]
    out = np.empty((n, n))
    for r0, r1, diff, q in _row_blocks(pts, pts.shape[1] - 1):
        q -= np.square(diff[-1], out=diff[-1])
        np.maximum(q, 0.0, out=q)
        np.sqrt(q, out=q)
        q *= 0.5
        np.arcsinh(q, out=q)
        np.multiply(q, 2.0, out=out[r0:r1])
    return out


@np.errstate(divide="ignore")  # ln sinh 0 = -inf is meant
def _apex_radii(U):
    """(a, 1/a, ln sinh a) of the tangent rows U at the apex, a = |u|; 1/a is
    0 for a zero row."""
    a = np.sqrt(np.einsum("ij,ij->i", U, U))
    return a, np.divide(1.0, a, out=np.zeros_like(a), where=a > 0.0), _log_sinh(a)


@np.errstate(divide="ignore", invalid="ignore")  # ln 0 = -inf is meant
def _apex_distance(a1, a2, r1, r2, ls1, ls2, delta, total):
    """Distances d(Exp_0 u1, Exp_0 u2) on H^k (kappa = -1) between tangent
    vectors u1, u2 at the apex.

    The arguments broadcast together: the ``_apex_radii`` of u1 and of u2,
    and delta = u1 - u2 and total = u1 + u2 with the coordinate on the first
    axis. With s = |u1/a1 - u2/a2|^2, the squared chord between the two
    directions, the half-angle split

        sinh^2(d/2) = sinh^2((a1 - a2)/2) + sinh a1 sinh a2 s/4

    is evaluated in log space, so no cosh of a radius is formed. Both
    a1 - a2 = <delta, total>/(a1 + a2) and the chord are formed from delta
    and total, never from two rounded norms or two rounded directions, so
    each term keeps its relative accuracy as a -> 0, as a1 -> a2 and as the
    directions meet. A zero vector has no direction; its term vanishes with
    sinh 0. Swapping u1 and u2 negates a1 - a2 and the chord exactly, so d
    is exactly symmetric, and d = 0 where u1 = u2.

    Overwrites delta with the chord and total with scratch. Returns
    (d, h, a_diff, ls_half, log_s4, s, chord): h = ln sinh(d/2),
    a_diff = a1 - a2, ls_half = ln sinh(|a_diff|/2) and log_s4 = ln(s/4).
    """
    a_sum = a1 + a2
    a_diff = np.einsum("i...,i...->...", delta, total)
    np.divide(a_diff, a_sum, out=a_diff, where=a_sum > 0.0)
    # chord = ((a1 + a2) delta - (a1 - a2) total) / (2 a1 a2); where a vector is
    # zero, ((1/a1 + 1/a2) delta - (1/a2 - 1/a1) total) / 2 with 1/0 -> 0
    both = a1 * a2 > 0.0
    delta *= np.where(both, a_sum, 0.5 * (r1 + r2))
    total *= np.where(both, a_diff, 0.5 * (r2 - r1))
    delta -= total
    delta *= np.where(both, 0.5 * r1 * r2, 1.0)
    s = np.einsum("i...,i...->...", delta, delta)
    ls_half = _log_sinh(0.5 * np.abs(a_diff))
    log_s4 = np.log(0.25 * s)
    h = 0.5 * np.logaddexp(2.0 * ls_half, ls1 + ls2 + log_s4)
    d = np.where(h < 20.0, 2.0 * np.arcsinh(np.exp(np.minimum(h, 20.0))), 2.0 * (h + _LN2))
    return d, h, a_diff, ls_half, log_s4, s, delta


def pairwise_intrinsic(U):
    """d(Exp_0 u_i, Exp_0 u_j) on H^k between all tangent rows of U at the
    apex, by ``_apex_distance``.

    The value is exactly symmetric, so each block of rows [r0, r1) forms its
    columns j >= r0 once and mirrors them. The formula keeps about 16 arrays
    of a block alive, so ``_triangle_blocks`` sizes the blocks for 16.
    """
    n = U.shape[0]
    a, r, ls = _apex_radii(U)
    cols = np.ascontiguousarray(U.T)
    out = np.empty((n, n))
    for r0, r1 in _triangle_blocks(n, 16):
        i, j = slice(r0, r1), slice(r0, n)
        d = _apex_distance(a[i, None], a[None, j], r[i, None], r[None, j], ls[i, None], ls[None, j],
                           cols[:, i, None] - cols[:, None, j], cols[:, i, None] + cols[:, None, j])[0]
        out[i, j] = d
        out[j, i] = d.T
    return out


def ratio_bounds(dspace, dtree):
    """(min, max) of dspace/dtree over pairs i < j, and whether every dspace > 0.

    Each block of rows divides only its pairs j > i, so the diagonal's 0/0
    is never formed; NaN ratios propagate to both bounds.
    """
    n = dspace.shape[0]
    alpha, beta, injective = np.inf, -np.inf, True
    col, rows = np.arange(n), _block_rows(n)
    for r0 in range(0, n, rows):
        r1 = min(r0 + rows, n)
        upper = col[None, r0:] > col[r0:r1, None]
        ds = dspace[r0:r1, r0:]
        ratios = np.divide(ds, dtree[r0:r1, r0:], where=upper, out=np.empty(ds.shape))
        alpha = np.minimum(alpha, np.min(ratios, where=upper, initial=np.inf))
        beta = np.maximum(beta, np.max(ratios, where=upper, initial=-np.inf))
        injective = injective and bool(np.all(ds > 0.0, where=upper))
    return float(alpha), float(beta), injective


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
    # requires x >= 0 (-inf at 0); expm1 keeps full relative accuracy as x -> 0
    return x + np.log(-np.expm1(-2.0 * x)) - _LN2


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
