"""Hot numeric kernels, one vectorized numpy implementation each.

Scalar references for the kernels live with the tests, which check every
kernel against an independent oracle. All kernels are pure: no RNG, no
global state, deterministic outputs.

Memory rule: a ``train`` or ``grid`` row holds one n x n array, the tree
metric, and nothing else of size n^2. ``tree_metric_all_pairs`` fills it in
place by two sweeps along a DFS preorder that it is given (the tree's one
walk, ``trees._preorder``), and ``_mirror_lower``, the one mirror, makes it
symmetric. Everything else over all pairs walks blocks of rows, so a
block's arrays stay in cache and no kernel allocates an n x n scratch array.
One budget sizes every block: its arrays hold about ``_TRIANGLE_BYTES``,
1 MB, in all. A walk is a list of spans (r0, r1, c1): the rows [r0, r1)
against the columns [r0, c1), so each unordered pair is formed once.
``euclidean_blocks``, ``intrinsic_blocks``, ``pairwise_hyperboloid``,
``ratio_bounds`` and ``_mirror_lower`` walk the upper triangle
(``_triangle_blocks``, c1 = n), the rows growing as the columns shrink; only
the tree metric's column reorder takes whole rows. ``near_pairs`` walks
strips (``_strip_blocks``): its rows sorted by their first coordinate, in
the triangle walk's row blocks, each against the columns up to the end of
its last row's strip, since no pair farther apart is near. At dim 2, a
triangle block's four arrays hold 2^15 entries each, a mirror or ratio
block's two hold 2^16, and a strip block's hold fewer. On a 2-vCPU machine,
spring layouts of random(1000), which walk their 3k strips 5 times, took a
median 27.3 ms with 1 MB buffers, 27.4 ms at 512 KB, 28.4 ms at 2 MB,
29.4 ms at 256 KB and 31.4 ms at 4 MB (9 interleaved repeats).

``fr_step``, one spring-layout step, walks no blocks: it reads the list of
near pairs that ``near_pairs`` found, a Verlet list that the layout reuses
for several steps, and sums each pair's repulsion into its two rows by
``np.bincount``.

``block_ratio_bounds``, the one distortion reduction, consumes such blocks
and returns their ``DistortionReport``: training reduces its model's
distances straight from ``euclidean_blocks`` (R^k) or ``intrinsic_blocks``
(H^k), the curvature scan each block of its walk against tau * d_T.
``ratio_bounds`` feeds it a matrix's blocks, and ``pairwise_euclidean`` and
``pairwise_hyperboloid`` fill a matrix from theirs; only the gates, the
benchmark's tracer and the tests call these.

``_row_blocks`` gives each block of the walk that its caller passes
(``pairwise_hyperboloid``, ``euclidean_blocks`` and ``near_pairs``) its
coordinate differences and their squared sum. It forms the differences
x_i - x_j of a block with one matmul of the rows [x_i, 1] by the columns
[1; -x_j]: a broadcast subtraction pays numpy's per-row overhead on every
row of the block, which made it about 40% of a spring-layout step at
n = 1000, and the matmul does not. Both products are exact, so each
difference is the subtraction rounded once (up to the sign of a zero,
which no output carries), and x_j - x_i is x_i - x_j negated, so a
distance is the same double as the full-matrix form's at (i, j) and at
(j, i), and as ``fr_step``'s, which subtracts each listed pair's rows.
``fr_step`` sums each pair's repulsion into both of its rows, in another
order than the full-matrix form, so the two agree to rounding.

``_half_angle_side`` is the one hyperbolic triangle formula. It forms the
H^k distance of ``_apex_distance`` (``intrinsic_blocks`` and the HNN
training head) and the third side of ``triangle_step`` (the embedding's
distance walk and its placement).
"""

from __future__ import annotations

import math
from dataclasses import dataclass

import numpy as np

_EPS = 1e-12
_LN2 = math.log(2.0)
_TWO_PI = 2.0 * math.pi
_TRIANGLE_BYTES = 1 << 20  # the most a block's whole buffer holds, over all its arrays

# The benchmark's traced run records this name; numpy is the only backend.
ACTIVE_BACKEND = "numpy"


def near_pairs(pos, reach):
    """The pairs (i, j) of rows of pos whose squared distance, summed as
    ``_row_blocks`` sums it, is below reach^2 rounded: two index arrays,
    each pair once.

    The rows are sorted by their first coordinate (stable), and the walk is
    ``_strip_blocks``: rows [r0, r1) against the columns [r0, c1) of the
    last row's reach strip, a block's dim + 2 arrays at most about
    _TRIANGLE_BYTES in all. A pair past the strip has a rounded squared
    distance of at least reach^2, so none below it is dropped, and the walk
    holds no n x n array. Of a block's entries, those at a column past
    their row (in sorted order) are kept. The pairs come in walk order, as
    node indices of pos.
    """
    dim = pos.shape[1]
    order = np.argsort(pos[:, 0], kind="stable")
    rows = pos[order]
    cut = reach * reach
    first, second = [], []
    for r0, r1, _, sq in _row_blocks(rows, dim, _strip_blocks(rows[:, 0], reach, dim + 2)):
        i, j = np.nonzero(sq < cut)
        upper = j > i
        first.append(i[upper] + r0)
        second.append(j[upper] + r0)
    return order[np.concatenate(first)], order[np.concatenate(second)]


def fr_step(pos, pairs, eu, ev, k, t):
    """One Fruchterman-Reingold iteration, the grid variant: k^2/d repulsion
    between the pairs closer than 2k, d^2/k attraction along edges,
    displacement capped at the temperature t.

    The repulsion reads only ``pairs``, two index arrays (``near_pairs``),
    which must hold every pair closer than 2k. Per pair it forms the
    difference x_i - x_j by subtraction and sums d^2 in coordinate order, as
    ``_row_blocks`` does. A pair repels when that d^2 is below (2k)^2, so
    the cutoff reads the same rounded d^2 as the coefficient
    c_ij = k^2/max(d^2, eps^2), and a listed pair farther apart adds 0. For
    each coordinate, c_ij (x_i - x_j) is added to row i and subtracted from
    row j, one ``np.bincount`` per side. This keeps the difference form,
    since the expanded x_i sum_j c_ij - sum_j c_ij x_j cancels on
    near-coincident points (with two of 40 points 1e-9 apart, the step's
    relative error is 4e-8 in that form and 6e-15 in this one). The sums
    run in another order than a full-matrix step's, so the two agree to
    rounding, not bit for bit. The edge pull is summed per coordinate by
    ``np.bincount`` too.
    """
    n, dim = pos.shape
    first, second = pairs
    diff = [x[first] - x[second] for x in pos.T]
    coef = np.square(diff[0])
    for c in range(1, dim):
        coef += np.square(diff[c])
    near = coef < 4.0 * k * k  # (2k)^2 rounded once, as 2k is exact
    np.maximum(coef, _EPS * _EPS, out=coef)
    np.divide(k * k, coef, out=coef)
    coef *= near  # exact (a factor 1 or 0), and faster than a masked copyto
    disp = np.empty_like(pos)
    for c in range(dim):
        push = np.multiply(diff[c], coef, out=diff[c])
        disp[:, c] = np.bincount(first, push, n) - np.bincount(second, push, n)

    edge_diff = pos[eu] - pos[ev]
    edge_dist = np.maximum(np.sqrt(np.sum(edge_diff**2, axis=-1)), _EPS)
    pull = edge_diff * (edge_dist / k)[:, None]
    for c in range(dim):
        disp[:, c] += np.bincount(ev, pull[:, c], n) - np.bincount(eu, pull[:, c], n)

    length = np.sqrt(np.sum(disp * disp, axis=-1))
    scale = np.where(length > _EPS, np.minimum(length, t) / np.maximum(length, _EPS), 0.0)
    return pos + disp * scale[:, None]


def tree_metric_all_pairs(order, parent, weight):
    """All-pairs path lengths of a tree on nodes 0..n-1, swept along a given
    DFS preorder: ``order`` lists the n nodes in preorder, and the node
    order[k + 1] hangs from node parent[k] by an edge of weight weight[k].

    In a DFS preorder every subtree is a contiguous range of columns. A
    bottom-up sweep fills each parent's row on a child's subtree from the
    child's row; a top-down sweep fills each child's row outside its subtree
    from the parent's row. Every entry is a sum of edge weights, never a
    difference, and the diagonal stays exactly 0.

    Each preorder row is kept at its node's row, so only the columns are
    in preorder when the sweeps end; they are put in node order one block of
    rows at a time, a block's rows and their gathered copy about
    _TRIANGLE_BYTES in all. The output is the only n x n array. The two sweeps sum
    a path in opposite orders, so the result need not be exactly symmetric
    (``_mirror_lower`` makes it so).
    """
    n = len(order)
    pos = np.empty(n, np.int64)
    pos[order] = np.arange(n)
    # from here on, columns are named by their preorder position (the root is
    # 0), and the row of preorder position i is the row of node order[i]
    par = [0] + pos[parent].tolist()
    edge = [0.0] + list(weight)
    end = list(range(1, n + 1))  # subtree of i is the column range [i, end[i])
    for i in range(n - 1, 0, -1):
        end[par[i]] = max(end[par[i]], end[i])

    out = np.zeros((n, n))
    for i in range(n - 1, 0, -1):
        np.add(out[order[i], i : end[i]], edge[i], out=out[order[par[i]], i : end[i]])
    for i in range(1, n):
        row, p, e = out[order[i]], out[order[par[i]]], end[i]
        np.add(p[:i], edge[i], out=row[:i])
        np.add(p[e:], edge[i], out=row[e:])
    rows = max(1, _TRIANGLE_BYTES // (16 * n))
    for r0 in range(0, n, rows):
        out[r0 : r0 + rows] = out[r0 : r0 + rows, pos]
    return out


def _mirror_lower(mat):
    """Copy the strict lower triangle of the square ``mat`` onto its strict
    upper triangle in place, so mat[i, j] = mat[j, i] = the old mat[max, min].

    Pure data movement over the spans of ``_triangle_blocks``, sized for a
    block's two arrays: the copy of its source and its mask.
    ``_mirror_lower(mat.T)`` mirrors the upper triangle onto the lower one.
    """
    col = np.arange(mat.shape[0])
    for r0, r1, _ in _triangle_blocks(mat.shape[0], 2):
        np.copyto(mat[r0:r1, r0:], mat[r0:, r0:r1].T, where=col[None, r0:] > col[r0:r1, None])


def _triangle_blocks(n, arrays):
    """Spans (r0, r1, n) of an upper-triangle walk: the row blocks [r0, r1),
    each against the columns [r0, n). A block's ``arrays`` float64 arrays
    fill about _TRIANGLE_BYTES, with at least one row, so its rows grow as
    its columns shrink."""
    entries = _TRIANGLE_BYTES // (8 * arrays)
    r0 = 0
    while r0 < n:
        r1 = min(n, r0 + max(1, entries // (n - r0)))
        yield r0, r1, n
        r0 = r1


def _strip_blocks(x, reach, arrays):
    """Spans (r0, r1, c1) of a strip walk over the sorted coordinates x: the
    row blocks of ``_triangle_blocks``, each against the columns [r0, c1),
    where c1 - 1 is the last column with x_j <= x_{r1-1} + reach, the sum
    rounded. A column past it has x_j > x_{r1-1} + reach exactly, since the
    sum rounds to nearest, so every row i of the block has x_j - x_i > reach.
    Rounding is monotone, so that pair's rounded difference is at least
    reach, and any rounded sum of squares over it at least reach^2 rounded:
    the strip drops no pair whose rounded squared distance is below that."""
    for r0, r1, _ in _triangle_blocks(len(x), arrays):
        yield r0, r1, int(np.searchsorted(x, x[r1 - 1] + reach, side="right"))


def _row_blocks(pts, summed, spans):
    """Walk the pairs of rows of pts in the given spans (r0, r1, c1), the
    rows [r0, r1) against the columns [r0, c1) (``_triangle_blocks``,
    ``_strip_blocks``); yield (r0, r1, diff, sq) for each.

    diff[c] holds x_ic - x_jc for the rows i in [r0, r1) and the columns
    j in [r0, c1). It is formed as the product of left[c], the rows
    [x_ic, 1], and right[c], the rows [1; -x_jc], both built once per call:
    one matmul fills a block for every coordinate, where a broadcast
    subtraction pays numpy's overhead once per row of the block. With K = 2
    both products are exact, so in any summation order, with or without
    FMA, the only rounding is that of x_ic - x_jc: the same double as the
    subtraction, except that a zero may come out +0 where x_ic = -0 and
    x_jc = +0 would give -0. A block's product is about 2^17 multiply-adds,
    too small for the BLAS to split it across threads, so it runs on the
    calling thread.

    sq holds the sum of diff[c]^2 over the first ``summed`` coordinates,
    accumulated as square(diff[0]), then += square(diff[c]) in coordinate
    order. Both are views of one buffer, sized for the largest span, that
    the next block overwrites.
    """
    n, dim = pts.shape
    left = np.ones((dim, n, 2))
    left[:, :, 0] = pts.T
    right = np.ones((dim, 2, n))
    np.negative(pts.T, out=right[:, 1])
    spans = list(spans)
    buf = np.empty((dim + 2) * max(((r1 - r0) * (c1 - r0) for r0, r1, c1 in spans), default=0))
    for r0, r1, c1 in spans:
        block = buf[: (dim + 2) * (r1 - r0) * (c1 - r0)].reshape(dim + 2, r1 - r0, c1 - r0)
        diff, sq, tmp = block[:dim], block[dim], block[dim + 1]
        np.matmul(left[:, r0:r1], right[:, :, r0:c1], out=diff)
        np.square(diff[0], out=sq)
        for c in range(1, summed):
            sq += np.square(diff[c], out=tmp)
        yield r0, r1, diff, sq


def euclidean_blocks(pts):
    """Walk the upper triangle of |x_i - x_j| in blocks (``_row_blocks``);
    yield (r0, r1, d), the rows [r0, r1) at the columns [r0, n). d is a view
    that the next block overwrites."""
    n, dim = pts.shape
    for r0, r1, _, sq in _row_blocks(pts, dim, _triangle_blocks(n, dim + 2)):
        yield r0, r1, np.sqrt(sq, out=sq)


def _symmetric_matrix(n, blocks):
    """The n x n matrix of upper-triangle ``blocks`` (r0, r1, d), mirrored
    below the diagonal by ``_mirror_lower``."""
    out = np.empty((n, n))
    for r0, r1, d in blocks:
        out[r0:r1, r0:] = d
    _mirror_lower(out.T)
    return out


def pairwise_euclidean(pts):
    """The matrix of ``euclidean_blocks``: |x_j - x_i| is |x_i - x_j| bit
    for bit, so it is exactly symmetric."""
    return _symmetric_matrix(pts.shape[0], euclidean_blocks(pts))


def pairwise_hyperboloid(pts):
    """Chordal-stable d = 2 asinh(sqrt(<x-y|x-y>_M)/2); time coordinate
    last. The matrix of the upper-triangle blocks, mirrored, so it is
    exactly symmetric."""

    def blocks():
        n, dim = pts.shape
        for r0, r1, diff, q in _row_blocks(pts, dim - 1, _triangle_blocks(n, dim + 2)):
            q -= np.square(diff[-1], out=diff[-1])
            np.sqrt(np.maximum(q, 0.0, out=q), out=q)
            yield r0, r1, 2.0 * np.arcsinh(np.multiply(q, 0.5, out=q), out=q)

    return _symmetric_matrix(pts.shape[0], blocks())


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
    axis. d is ``_half_angle_side`` of the sides a1 and a2, whose angle has
    s = |u1/a1 - u2/a2|^2, the squared chord between the two directions. Both
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
    d, h = _half_angle_side(ls_half, ls1 + ls2, log_s4)
    return d, h, a_diff, ls_half, log_s4, s, delta


def _half_angle_side(ls_half, ls_prod, log_s4):
    """(c, h = ln sinh(c/2)) for the third side c of a triangle on H^2 whose
    sides a and b meet at an angle t, s/4 = sin^2(t/2), by the half-angle split

        sinh^2(c/2) = sinh^2((a - b)/2) + sinh a sinh b s/4

    from ls_half = ln sinh(|a - b|/2), ls_prod = ln sinh a + ln sinh b and
    log_s4 = ln(s/4). Both terms are >= 0 and added in log space, so c keeps
    its relative accuracy on short sides and no cosh of a side is formed.
    Past h = 20, asinh(e^h) is h + ln 2 to double precision.
    """
    h = 0.5 * np.logaddexp(2.0 * ls_half, ls_prod + log_s4)
    c = np.where(h < 20.0, 2.0 * np.arcsinh(np.exp(np.minimum(h, 20.0))), 2.0 * (h + _LN2))
    return c, h


def intrinsic_blocks(U):
    """Walk the upper triangle of d(Exp_0 u_i, Exp_0 u_j) on H^k between the
    tangent rows of U at the apex, by ``_apex_distance``; yield (r0, r1, d),
    the rows [r0, r1) at the columns [r0, n). The formula keeps about 16
    arrays of a block alive, so ``_triangle_blocks`` sizes the blocks for 16.
    """
    n = U.shape[0]
    a, r, ls = _apex_radii(U)
    cols = np.ascontiguousarray(U.T)
    for r0, r1, c1 in _triangle_blocks(n, 16):
        i, j = slice(r0, r1), slice(r0, c1)
        yield r0, r1, _apex_distance(
            a[i, None], a[None, j], r[i, None], r[None, j], ls[i, None], ls[None, j],
            cols[:, i, None] - cols[:, None, j], cols[:, i, None] + cols[:, None, j],
        )[0]


@dataclass(frozen=True)
class DistortionReport:
    """Worst-case shrink (alpha), stretch (beta), and their ratio dist = beta /
    alpha, +inf for a map that is not injective; a rescaling has dist 1."""

    alpha: float
    beta: float
    dist: float
    injective: bool


def ratio_bounds(dspace, dtree):
    """The report of dspace/dtree over pairs i < j, by ``block_ratio_bounds``
    over the matrix's ``_triangle_blocks``, sized for a block's two arrays:
    its ratios and its mask."""
    spans = _triangle_blocks(dspace.shape[0], 2)
    return block_ratio_bounds(((r0, r1, dspace[r0:r1, r0:]) for r0, r1, _ in spans), dtree)


def block_ratio_bounds(blocks, dtree, scale=None):
    """The report of ds/dtree, or of ds/(scale * dtree), over the pairs i < j
    of ``blocks``: alpha and beta are the min and max ratio, and the map is
    injective when every such ds > 0 and alpha > 0.

    Each block (r0, r1, ds) holds the rows [r0, r1) of the distances at the
    columns [r0, n); together the blocks cover every pair i < j. Each block
    divides only its pairs j > i, so the diagonal's 0/0 is never formed; NaN
    ratios propagate to both bounds. A ``scale`` is multiplied into each
    block's dtree in the ratio buffer, so no scaled copy is formed. min and
    max are exact, so the bounds do not depend on how the pairs are split.
    """
    alpha, beta, injective = np.inf, -np.inf, True
    col = np.arange(dtree.shape[0])
    for r0, r1, ds in blocks:
        upper = col[None, r0:] > col[r0:r1, None]
        ratios = np.empty(ds.shape)
        den = dtree[r0:r1, r0:]
        if scale is not None:
            den = np.multiply(scale, den, out=ratios)
        np.divide(ds, den, where=upper, out=ratios)
        alpha = np.minimum(alpha, np.min(ratios, where=upper, initial=np.inf))
        beta = np.maximum(beta, np.max(ratios, where=upper, initial=-np.inf))
        injective = injective and bool(np.all(ds > 0.0, where=upper))
        del upper, ratios, den, ds  # so that the next block's are not formed beside them
    alpha, beta = float(alpha), float(beta)
    injective = injective and not alpha <= 0.0  # a NaN alpha leaves it, and dist is NaN
    return DistortionReport(alpha, beta, beta / alpha if injective else math.inf, injective)


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


@np.errstate(divide="ignore")  # ln 0 = -inf drops a term where a side or theta is 0
def triangle_step(d, ell, theta):
    """One hyperbolic triangle step (kappa = -1), on arrays.

    The sides d = PA and ell = PB meet at P, where theta is the signed angle
    from the ray PB to the ray PA. Returns (side, at_b, at_a): the third side
    AB, the signed angle at B from the ray BP to the ray BA, in (-pi, pi], and
    the signed angle at A from the ray AP to the ray AB; both angles are 0
    where any side is 0. The side is ``_half_angle_side`` with
    s/4 = sin^2(theta/2). The angle at B, opposite d, is the four-part formula
    in the same half-angle split, atan2(sin|theta| sinh d,
    sinh(d + ell) sin^2(theta/2) + sinh(ell - d) cos^2(theta/2)); the angle at
    A swaps d and ell. Both atan2 arguments are scaled by 2 e^{-(d + ell)}, so
    nothing overflows at large radius, and each term keeps its relative
    accuracy on short sides.
    """
    half = 0.5 * np.abs(theta)
    side, _ = _half_angle_side(_log_sinh(0.5 * np.abs(d - ell)), _log_sinh(d) + _log_sinh(ell),
                               2.0 * np.log(np.sin(half)))
    s2, c2, sin_t = np.sin(half) ** 2, np.cos(half) ** 2, np.sin(np.abs(theta))
    sinh_d = -np.expm1(-2.0 * d) * np.exp(-ell)  # 2 e^{-(d + ell)} sinh d, and so on
    sinh_ell = -np.expm1(-2.0 * ell) * np.exp(-d)
    sinh_sum = -np.expm1(-2.0 * (d + ell))
    # e^{-2d} expm1(2(d - ell)) would overflow where ell << d
    sinh_diff = -np.expm1(-2.0 * np.abs(ell - d)) * np.exp(-2.0 * np.minimum(d, ell))
    sinh_diff *= np.sign(ell - d)
    # at theta = 0 only the sinh(ell - d) term is left, and where both sides
    # pass ~354 it underflows to 0; the sign of ell - d still tells 0 from pi
    ray = s2 == 0.0
    den_b = np.where(ray, ell - d, sinh_sum * s2 + sinh_diff * c2)
    den_a = np.where(ray, d - ell, sinh_sum * s2 - sinh_diff * c2)
    ok = (side > 0.0) & (d > 0.0) & (ell > 0.0)
    at_b = np.where(ok, np.arctan2(sin_t * sinh_d, den_b), 0.0)
    at_a = np.where(ok, np.arctan2(sin_t * sinh_ell, den_a), 0.0)
    sign = np.where(theta >= 0.0, 1.0, -1.0)
    return side, wrap_angle(-sign * at_b), sign * at_a
