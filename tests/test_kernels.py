"""Each numpy kernel against an independent oracle.

The scalar references live in ``scalarref``; the hyperboloid distances are
checked against mpmath. The tree metric's oracle is scipy's Dijkstra, in
``test_trees.py``. ``TestRowBlocks`` checks the row-blocked n x n kernels bit
for bit against their full-matrix forms, at sizes on both sides of a block
boundary, on random and on adversarial coordinates (subnormals, magnitudes of
1e+-300, repeated rows, signed zeros, and for the distance kernels inf and nan
rows). ``TestFormedDifferences`` checks the blocks' differences against the
subtraction on arbitrary finite inputs, and ``TestPairwiseIntrinsic`` the
intrinsic kernel against the training head on every pair.
``TestTemporaries`` bounds the memory the n x n kernels allocate, so none of
them builds an n x n scratch array.
"""

import math
import tracemalloc

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st
from hypothesis.extra.numpy import arrays
from numpy.testing import assert_allclose, assert_array_equal

import scalarref
from hyptree import kernels, trees
from mputil import mp_distance


def bounds(report):
    """(alpha, beta, injective) of a distortion report, the scalar reference's triple."""
    return report.alpha, report.beta, report.injective


def _random_tree_arrays(n, seed):
    t = trees.gen_random(n, seed)
    index = {i: k for k, i in enumerate(t.node_ids)}
    eu = np.array([index[u] for u, v, _ in t.edges], np.int64)
    ev = np.array([index[v] for u, v, _ in t.edges], np.int64)
    return eu, ev


class TestBackendsAgree:
    """The numpy kernels agree with per-pair references computed another way."""

    def test_fr_step(self):
        # dim 2 is the default layout; `gen --layout-dim` accepts any dim >= 1
        rng = np.random.default_rng(0)
        eu, ev = _random_tree_arrays(40, 1)
        k, t = 0.15, 0.02
        for dim in (2, 1, 3, 4):
            pos = rng.uniform(size=(40, dim))
            for _ in range(3):
                want = scalarref.fr_step(pos, eu, ev, k, t)
                assert_allclose(kernels.fr_step(pos, eu, ev, k, t), want, rtol=1e-9, atol=1e-12)
                pos = want

    def test_fr_step_near_coincident_points(self):
        # Repulsion k^2/d^2 reaches 1e16 here; a contraction that expands
        # sum_j c_ij (x_i - x_j) into x_i sum_j c_ij - sum_j c_ij x_j loses
        # about 7 digits of the step to cancellation. The step, not the new
        # position, is compared, so those digits are not hidden under |x|.
        rng = np.random.default_rng(7)
        eu, ev = _random_tree_arrays(40, 1)
        pos = rng.uniform(size=(40, 2))
        for i, j, gap in ((3, 17, 1e-6), (8, 30, 1e-9)):
            direction = rng.normal(size=2)
            pos[j] = pos[i] + gap * direction / np.linalg.norm(direction)
        k, t = 0.15, 0.02
        for _ in range(2):
            want = scalarref.fr_step(pos, eu, ev, k, t)
            got = kernels.fr_step(pos, eu, ev, k, t)
            assert_allclose(got - pos, want - pos, rtol=1e-9, atol=1e-12)
            pos = want

    def test_pairwise_euclidean(self):
        pts = np.random.default_rng(2).normal(size=(80, 3))
        want = np.array([[np.linalg.norm(p - q) for q in pts] for p in pts])
        assert_allclose(kernels.pairwise_euclidean(pts), want, rtol=1e-12, atol=1e-14)

    def test_pairwise_hyperboloid(self):
        rng = np.random.default_rng(3)
        spatial = rng.normal(size=(30, 2)) * 2.0
        pts = np.column_stack([spatial, np.sqrt(1.0 + np.sum(spatial**2, axis=1))])
        got = kernels.pairwise_hyperboloid(pts)
        iu, ju = np.triu_indices(len(pts), k=1)
        want = [mp_distance(pts[i], pts[j]) for i, j in zip(iu, ju)]
        assert_allclose(got[iu, ju], want, rtol=1e-12)
        assert_allclose(got, got.T, rtol=0, atol=0)
        assert np.all(np.diag(got) == 0.0)

    def test_ratio_bounds(self):
        rng = np.random.default_rng(4)
        n = 30
        dt = np.abs(rng.normal(size=(n, n))) + 0.1
        ds = np.abs(rng.normal(size=(n, n))) + 0.1
        got = bounds(kernels.ratio_bounds(ds, dt))
        want = scalarref.ratio_bounds(ds, dt)
        assert_allclose(got[:2], want[:2], rtol=1e-14)
        assert got[2] == want[2]

    def test_ratio_bounds_flags_non_injective(self):
        dt = np.ones((3, 3))
        ds = np.ones((3, 3))
        ds[0, 1] = ds[1, 0] = 0.0
        assert not scalarref.ratio_bounds(ds, dt)[2]
        assert not kernels.ratio_bounds(ds, dt).injective


def _block_sizes():
    """n = 2, n within one block, a multiple of the block's row count, and one
    row past a multiple, so the last block is a single row."""
    below = 200
    assert kernels._block_rows(below) == below
    multiple = next(n for n in range(below + 1, 4096) if n % kernels._block_rows(n) == 0
                    and n > kernels._block_rows(n))
    one_past = next(n for n in range(below + 1, 4096) if n % kernels._block_rows(n) == 1)
    return (2, below, multiple, one_past)


BLOCK_SIZES = _block_sizes()


def _hyperboloid_points(rng, n, spatial_dim):
    spatial = rng.normal(size=(n, spatial_dim))
    return np.column_stack([spatial, np.sqrt(1.0 + np.sum(spatial**2, axis=1))])


def _adversarial_rows(rng, n, dim, nonfinite=False):
    """Coordinates that stress the formed differences x_i - x_j: multiples of
    the smallest subnormal, subnormals with full mantissas, magnitudes of
    1e-300 and 1e300 with mixed signs, exactly repeated rows, and signed
    zeros among normal values. With ``nonfinite``, one more input holds a
    mixed-sign inf row and a nan row."""
    shape = (n, dim)
    sign = rng.choice([-1.0, 1.0], size=shape)
    inputs = [
        sign * rng.integers(0, 4, size=shape) * 5e-324,
        sign * rng.uniform(1e-310, 2e-308, size=shape),
        sign * rng.uniform(1.0, 1.7, size=shape) * rng.choice([1e-300, 1e300], size=shape),
        rng.normal(size=shape)[rng.integers(0, max(1, n // 4), size=n)],
        np.where(rng.random(size=shape) < 0.6, sign * 0.0, rng.normal(size=shape)),
    ]
    if nonfinite:
        bad = rng.normal(size=shape)
        bad[n // 2] = sign[n // 2] * np.inf
        bad[n // 3] = np.nan
        inputs.append(bad)
    return inputs


def _assert_step_close(got, want):
    """Within TestBackendsAgree's tolerance of want, and NaN where want is NaN."""
    nan = np.isnan(want)
    assert_array_equal(np.isnan(got), nan)
    assert_allclose(got[~nan], want[~nan], rtol=1e-9, atol=1e-12)


def _assert_bitwise(got, want):
    """Equal bit for bit, signed zeros included; NaN matches NaN."""
    nan = np.isnan(want)
    assert_array_equal(np.isnan(got), nan)
    assert_array_equal(got[~nan].view(np.int64), want[~nan].view(np.int64))


@pytest.mark.filterwarnings("error")
class TestRowBlocks:
    """The row-blocked kernels equal their full-matrix forms bit for bit."""

    @pytest.mark.parametrize("n", BLOCK_SIZES)
    def test_fr_step(self, n):
        # the triangle walk sums in another order than the full-matrix form
        rng = np.random.default_rng(n)
        eu, ev = np.arange(n - 1), np.arange(1, n)
        for dim in (1, 2, 3, 4):
            pos = rng.uniform(size=(n, dim))
            _assert_step_close(kernels.fr_step(pos, eu, ev, 0.05, 0.01),
                               scalarref.fr_step_full(pos, eu, ev, 0.05, 0.01))
            for pos in _adversarial_rows(rng, n, dim):
                with np.errstate(all="ignore"):
                    want = scalarref.fr_step_full(pos, eu, ev, 0.05, 0.01)
                    got = kernels.fr_step(pos, eu, ev, 0.05, 0.01)
                _assert_step_close(got, want)

    @pytest.mark.parametrize("n", BLOCK_SIZES)
    def test_pairwise_euclidean(self, n):
        rng = np.random.default_rng(n)
        for dim in (1, 2, 3, 4):
            pts = rng.normal(size=(n, dim))
            _assert_bitwise(kernels.pairwise_euclidean(pts), scalarref.pairwise_euclidean_full(pts))
            for pts in _adversarial_rows(rng, n, dim, nonfinite=True):
                with np.errstate(all="ignore"):
                    want = scalarref.pairwise_euclidean_full(pts)
                    got = kernels.pairwise_euclidean(pts)
                _assert_bitwise(got, want)

    @pytest.mark.parametrize("n", BLOCK_SIZES)
    def test_pairwise_hyperboloid(self, n):
        rng = np.random.default_rng(n)
        for spatial_dim in (1, 2, 3, 4):
            pts = _hyperboloid_points(rng, n, spatial_dim)
            _assert_bitwise(kernels.pairwise_hyperboloid(pts), scalarref.pairwise_hyperboloid_full(pts))
            for pts in _adversarial_rows(rng, n, spatial_dim + 1, nonfinite=True):
                with np.errstate(all="ignore"):
                    want = scalarref.pairwise_hyperboloid_full(pts)
                    got = kernels.pairwise_hyperboloid(pts)
                _assert_bitwise(got, want)

    def test_spring_layout_random_1000(self, monkeypatch):
        # 50 steps at n = 1000 move the layout by rounding only
        got = trees.spring_layout(trees.gen_random(1000, 3))
        monkeypatch.setattr(kernels, "fr_step", scalarref.fr_step_full)
        want = trees.spring_layout(trees.gen_random(1000, 3))
        assert want.keys() == got.keys()
        for i in want:
            assert_allclose(got[i], want[i], rtol=0.0, atol=1e-12)

    @pytest.mark.parametrize("n", BLOCK_SIZES)
    def test_ratio_bounds(self, n):
        rng = np.random.default_rng(n)
        pts = rng.normal(size=(n, 3))
        dt = kernels.pairwise_euclidean(rng.normal(size=(n, 2))) + 0.5
        np.fill_diagonal(dt, 0.0)
        ds = kernels.pairwise_euclidean(pts)
        assert bounds(kernels.ratio_bounds(ds, dt)) == scalarref.ratio_bounds(ds, dt)
        # a zero distance at the last pair i < j, in the last block with pairs
        ds[n - 2, n - 1] = ds[n - 1, n - 2] = 0.0
        got = bounds(kernels.ratio_bounds(ds, dt))
        assert got == scalarref.ratio_bounds(ds, dt)
        assert got[0] == 0.0 and not got[2]

    @pytest.mark.parametrize("n", BLOCK_SIZES)
    def test_ratio_bounds_nan_propagates(self, n):
        rng = np.random.default_rng(n)
        ds = kernels.pairwise_euclidean(rng.normal(size=(n, 2)))
        dt = ds + 1.0
        i, j = n // 3, n - 1
        # NaN below the diagonal is never read, as in the i < j reduction
        ds[j, i] = np.nan
        assert bounds(kernels.ratio_bounds(ds, dt)) == scalarref.ratio_bounds(ds, dt)
        dnan = ds.copy()
        dnan[i, j] = np.nan
        alpha, beta, injective = bounds(kernels.ratio_bounds(dnan, dt))
        assert math.isnan(alpha) and math.isnan(beta) and not injective
        dt[i, j] = np.nan
        alpha, beta, injective = bounds(kernels.ratio_bounds(ds, dt))
        assert math.isnan(alpha) and math.isnan(beta) and injective

    def test_ratio_bounds_two_points(self):
        # the pair the acceptance suite warms the kernels with
        pts = np.array([[0.0, 0.0, 1.0], [0.3, 0.1, math.sqrt(1.1)]])
        d = kernels.pairwise_hyperboloid(pts)
        dt = np.array([[0.0, 1.0], [1.0, 0.0]])
        assert bounds(kernels.ratio_bounds(d, dt)) == (d[0, 1], d[0, 1], True)


def _triangle_sizes():
    """Sizes from the row schedule of ``fr_step``'s strip walk, the triangle
    walk's row blocks, which hold dim + 2 arrays: n = 2, the largest n that
    one block takes at every dim 1-4, the smallest n whose last block is one
    row at some dim, and the smallest n that every dim splits into two
    blocks or more."""
    dims = (1, 2, 3, 4)

    def blocks(n, dim):
        return list(kernels._triangle_blocks(n, dim + 2))

    within = max(n for n in range(2, 1024) if all(len(blocks(n, d)) == 1 for d in dims))
    one_row = next(n for n in range(2, 1024)
                   if any(blocks(n, d)[-1] == (n - 1, n, n) for d in dims))
    split = next(n for n in range(2, 1024) if all(len(blocks(n, d)) > 1 for d in dims))
    return (2, within, one_row, split)


TRIANGLE_SIZES = _triangle_sizes()


@pytest.mark.filterwarnings("error")
class TestTriangleWalk:
    """``fr_step`` walks the strips of its x-sorted rows in the triangle
    walk's row blocks, so it sums in another order than a full-matrix step.
    It is checked against the scalar step at TestBackendsAgree's tolerance,
    at sizes on the edges of its row schedule, on random and on adversarial
    finite coordinates."""

    @pytest.mark.parametrize("n", TRIANGLE_SIZES)
    def test_fr_step(self, n):
        rng = np.random.default_rng(n)
        eu, ev = np.arange(n - 1), np.arange(1, n)
        for dim in (1, 2, 3, 4):
            pos = rng.uniform(size=(n, dim))
            assert_allclose(kernels.fr_step(pos, eu, ev, 0.05, 0.01),
                            scalarref.fr_step(pos, eu, ev, 0.05, 0.01), rtol=1e-9, atol=1e-12)
            for pos in _adversarial_rows(rng, n, dim):
                with np.errstate(all="ignore"):
                    got = kernels.fr_step(pos, eu, ev, 0.05, 0.01)
                    want = scalarref.fr_step(pos, eu, ev, 0.05, 0.01)
                    full = scalarref.fr_step_full(pos, eu, ev, 0.05, 0.01)
                # Rows of 1e+-300 overflow the edge pull to inf. Where a
                # displacement's length is inf or NaN, the vectorized forms
                # both write NaN and the scalar step keeps the position, so
                # the NaN pattern is the full-matrix step's.
                _assert_step_close(got, np.where(np.isnan(full), np.nan, want))

    def test_near_coincident_pair_across_blocks(self):
        # As test_fr_step_near_coincident_points, with one pair astride the
        # first block boundary of the x-sorted rows, so its repulsion reaches
        # its second point through the column contraction, and one pair of
        # rows far apart in index order, which the sort makes neighbours.
        n = TRIANGLE_SIZES[-1]
        (_, r1, _), *_ = kernels._triangle_blocks(n, 4)
        rng = np.random.default_rng(7)
        eu, ev = _random_tree_arrays(n, 1)
        pos = rng.uniform(size=(n, 2))

        def near(i, j):
            direction = rng.normal(size=2)
            pos[j] = pos[i] + 1e-9 * direction / np.linalg.norm(direction)

        near(3, n - 2)
        order = np.argsort(pos[:, 0], kind="stable")
        near(order[r1 - 1], order[r1])
        rank = np.argsort(np.argsort(pos[:, 0], kind="stable"))
        assert sorted(rank[order[r1 - 1 : r1 + 1]]) == [r1 - 1, r1]
        k, t = 0.05, 0.01
        for _ in range(2):
            want = scalarref.fr_step(pos, eu, ev, k, t)
            got = kernels.fr_step(pos, eu, ev, k, t)
            assert_allclose(got - pos, want - pos, rtol=1e-9, atol=1e-12)
            pos = want


def _at_cutoff(y0, k, below):
    """A y with (y0 - y)^2, rounded as the step rounds it, the largest double
    below 4k^2 (``below``) or the smallest one at or above it."""
    cut = 4.0 * k * k
    y = y0 + 2.0 * k
    while (y0 - y) ** 2 >= cut:
        y = math.nextafter(y, -math.inf)
    while (y0 - y) ** 2 < cut:
        y = math.nextafter(y, math.inf)
    return math.nextafter(y, -math.inf) if below else y


@pytest.mark.filterwarnings("error")
class TestStripWalk:
    """``fr_step`` is the grid variant: pairs whose rounded squared distance
    is 4k^2 or more do not repel, and its walk forms only the pairs in the
    2k strips of its x-sorted rows."""

    def test_far_cluster_leaves_other_rows_bitwise(self):
        # A cluster narrower than 2k and more than 2k beyond every other row
        # in x, with no edge to them, moves; the other rows' step keeps its
        # bits, whichever blocks the cluster shares with them.
        rng = np.random.default_rng(5)
        near, far, k = 300, 20, 0.05
        pos = np.vstack([rng.uniform(size=(near, 2)), rng.uniform(1.2, 1.25, size=(far, 2))])
        tree_a, tree_b = _random_tree_arrays(near, 3), _random_tree_arrays(far, 4)
        eu = np.concatenate([tree_a[0], near + tree_b[0]])
        ev = np.concatenate([tree_a[1], near + tree_b[1]])
        moved = pos.copy()
        moved[near:] += (0.5, -0.75)
        before = kernels.fr_step(pos, eu, ev, k, 0.01)
        after = kernels.fr_step(moved, eu, ev, k, 0.01)
        assert_array_equal(after[:near].view(np.int64), before[:near].view(np.int64))
        assert_allclose(after, scalarref.fr_step(moved, eu, ev, k, 0.01), rtol=1e-9, atol=1e-12)

    @pytest.mark.parametrize("below", [True, False])
    def test_pairs_at_the_cutoff_match_the_scalar_step(self, below):
        # Pairs at squared distance one double below 4k^2, or at or just
        # above it: inside the first block, astride its boundary, and along x
        # at the end of its last row's strip. With 2k = 1/8 and y = 1/2, the
        # pairs apart in y sit at exactly 4k^2 above. The temperature caps no
        # step, so one pair's repulsion k/2 would show.
        n, k = TRIANGLE_SIZES[-1], 1.0 / 16.0
        (_, r1, _), *_ = kernels._triangle_blocks(n, 4)
        pos = np.random.default_rng(11).uniform(size=(n, 2))
        order = np.argsort(pos[:, 0], kind="stable")
        pairs = [(order[10], order[11]), (order[r1 - 1], order[r1])]
        for i, j in pairs:  # apart in y only
            pos[i, 1] = 0.5
            pos[j] = pos[i, 0], _at_cutoff(0.5, k, below)
        edge, end = np.argsort(pos[:, 0], kind="stable")[[r1 - 1, -1]]
        pos[end] = _at_cutoff(pos[edge, 0], k, below), pos[edge, 1]  # apart in x only
        pairs.append((edge, end))
        order = np.argsort(pos[:, 0], kind="stable")
        assert order[r1 - 1] == edge and set(order[r1 - 1 : r1 + 1]) == set(pairs[1])
        for m, (i, j) in enumerate(pairs):
            d2 = sum((a - b) ** 2 for a, b in zip(pos[i].tolist(), pos[j].tolist()))
            assert (d2 < 4.0 * k * k) == below
            assert below or m == 2 or d2 == 4.0 * k * k
        eu, ev = np.arange(n - 1), np.arange(1, n)
        got = kernels.fr_step(pos, eu, ev, k, 1e3)
        want = scalarref.fr_step(pos, eu, ev, k, 1e3)
        assert_allclose(got - pos, want - pos, rtol=1e-9, atol=1e-12)

    def test_uniform_start_forms_few_entries(self, monkeypatch):
        # random(1000)'s first step from spring_layout's uniform start
        n = 1000
        formed = []
        row_blocks = kernels._row_blocks

        def spy(*args):
            for block in row_blocks(*args):
                formed.append(block[3].size)
                yield block

        monkeypatch.setattr(kernels, "_row_blocks", spy)
        pos = np.random.default_rng(0).uniform(0.0, 1.0, size=(n, 2))
        eu, ev = _random_tree_arrays(n, 0)
        k = math.sqrt(1.0 / n)
        kernels.fr_step(pos, eu, ev, k, 0.1 * k)
        assert 0 < sum(formed) <= 0.4 * n * (n - 1) / 2


class TestFormedDifferences:
    """``_row_blocks`` forms x_i - x_j as the product of the rows [x_i, 1] and
    [1; -x_j]. Both products are exact, so in any summation order the only
    rounding is that of the subtraction. Every block of the upper-triangle
    walk and of the strip walk is checked."""

    @settings(max_examples=300, deadline=None, derandomize=True, database=None)
    @given(arrays(np.float64, st.tuples(st.integers(1, 8), st.integers(1, 3)),
                  elements=st.floats(allow_nan=False, allow_infinity=False)))
    def test_equals_subtraction_for_finite_pairs(self, pts):
        n, dim = pts.shape
        pts = pts[np.argsort(pts[:, 0], kind="stable")]
        walks = (kernels._triangle_blocks(n, dim + 2),
                 kernels._strip_blocks(pts[:, 0], 1.0, dim + 2))
        with np.errstate(over="ignore"):  # |x_i - x_j| may round past the largest double
            for spans in walks:
                for r0, r1, diff, _ in kernels._row_blocks(pts, dim, spans):
                    cols = pts[r0 : r0 + diff.shape[-1]]
                    for c in range(dim):
                        assert np.array_equal(diff[c], np.subtract.outer(pts[r0:r1, c], cols[:, c]))


def _tangent_rows(rng, n, dim, scale):
    """n tangent rows; past three rows, row 1 is zero and row 3 repeats row 2."""
    U = rng.normal(size=(n, dim)) * scale
    if n > 3:
        U[1] = 0.0
        U[3] = U[2]
    return U


@pytest.mark.filterwarnings("error")
class TestPairwiseIntrinsic:
    """The symmetric row-blocked intrinsic kernel against the training head
    on every ordered pair (``scalarref.hyperbolic_matrix``). The head is
    checked against mpmath in ``test_train.py``. A block's row count grows as
    its columns shrink: up to n = 5 the kernel takes one block, at n = 97
    two, and at n = 400 many of growing height."""

    SIZES = (1, 2, 5, 97, 400)
    SCALES = (1e-9, 1.0, 30.0, 400.0)

    @pytest.mark.parametrize("n", SIZES)
    def test_bitwise_at_dim_2(self, n):
        rng = np.random.default_rng(n)
        for scale in self.SCALES:
            U = _tangent_rows(rng, n, 2, scale)
            assert_array_equal(scalarref.pairwise_intrinsic(U), scalarref.hyperbolic_matrix(U))

    @pytest.mark.parametrize("dim", [4, 8])
    @pytest.mark.parametrize("n", SIZES)
    def test_higher_dims(self, n, dim):
        rng = np.random.default_rng(100 * dim + n)
        for scale in self.SCALES:
            U = _tangent_rows(rng, n, dim, scale)
            assert_allclose(scalarref.pairwise_intrinsic(U), scalarref.hyperbolic_matrix(U),
                            rtol=1e-15, atol=0.0)

    @pytest.mark.parametrize("n", SIZES)
    def test_symmetric_with_zero_diagonal(self, n):
        rng = np.random.default_rng(n + 7)
        for dim in (1, 2, 3):
            M = scalarref.pairwise_intrinsic(_tangent_rows(rng, n, dim, 3.0))
            assert_array_equal(M, M.T)
            assert not np.any(np.diag(M))

    def test_zero_and_coincident_rows(self):
        # a zero row sits at its own radius from every row; coincident rows,
        # zero or not, are at distance exactly 0
        rng = np.random.default_rng(3)
        U = _tangent_rows(rng, 6, 3, 2.0)
        U[5] = 0.0
        M = scalarref.pairwise_intrinsic(U)
        assert_allclose(M[1], np.linalg.norm(U, axis=1), rtol=1e-15)
        assert_array_equal(M[2], M[3])
        iu, ju = np.triu_indices(6, k=1)
        zero = {(1, 5), (2, 3)}
        assert all((M[i, j] == 0.0) == ((i, j) in zero) for i, j in zip(iu.tolist(), ju.tolist()))

    def test_one_and_two_rows(self):
        assert_array_equal(scalarref.pairwise_intrinsic(np.array([[0.4, -1.0]])), [[0.0]])
        U = np.array([[0.0, 0.0], [3.0, 4.0]])
        assert_array_equal(scalarref.pairwise_intrinsic(U), [[0.0, 5.0], [5.0, 0.0]])


def _peak_bytes(fn, *args):
    tracemalloc.start()
    try:
        fn(*args)
        return tracemalloc.get_traced_memory()[1]
    finally:
        tracemalloc.stop()


class TestTemporaries:
    """Each n x n kernel peaks below four n x n float64 arrays at dim 4: it
    accumulates one coordinate at a time, with no (n, n, dim) temporary. At
    n = 2000 the row blocks bound fr_step and ratio_bounds below a quarter of
    one n x n array, so their peak no longer grows with n^2, the pairwise
    kernels below their output plus half of one more, and the tree metric,
    built and mirrored in place, below its output plus a quarter of one."""

    N, DIM = 500, 4
    BOUND = 4 * N * N * 8
    BIG_N = 2000
    SQUARE = BIG_N * BIG_N * 8

    def test_fr_step(self):
        eu, ev = _random_tree_arrays(self.N, 2)
        pos = np.random.default_rng(8).uniform(size=(self.N, self.DIM))
        assert _peak_bytes(kernels.fr_step, pos, eu, ev, 0.05, 0.005) < self.BOUND

    def test_pairwise_euclidean(self):
        pts = np.random.default_rng(9).normal(size=(self.N, self.DIM))
        assert _peak_bytes(kernels.pairwise_euclidean, pts) < self.BOUND

    def test_pairwise_hyperboloid(self):
        pts = _hyperboloid_points(np.random.default_rng(10), self.N, self.DIM - 1)
        assert _peak_bytes(kernels.pairwise_hyperboloid, pts) < self.BOUND

    def test_ratio_bounds(self):
        rng = np.random.default_rng(11)
        ds = kernels.pairwise_euclidean(rng.normal(size=(self.N, self.DIM)))
        dt = ds + 1.0
        assert _peak_bytes(kernels.ratio_bounds, ds, dt) < self.BOUND

    def test_pairwise_intrinsic(self):
        U = np.random.default_rng(16).normal(size=(self.N, self.DIM)) * 3.0
        assert _peak_bytes(scalarref.pairwise_intrinsic, U) < self.BOUND

    def test_fr_step_big(self):
        eu, ev = _random_tree_arrays(self.BIG_N, 2)
        pos = np.random.default_rng(12).uniform(size=(self.BIG_N, self.DIM))
        assert _peak_bytes(kernels.fr_step, pos, eu, ev, 0.02, 0.002) < self.SQUARE / 4

    def test_ratio_bounds_big(self):
        rng = np.random.default_rng(13)
        ds = kernels.pairwise_euclidean(rng.normal(size=(self.BIG_N, self.DIM)))
        dt = ds + 1.0
        assert _peak_bytes(kernels.ratio_bounds, ds, dt) < self.SQUARE / 4

    def test_pairwise_euclidean_big(self):
        pts = np.random.default_rng(14).normal(size=(self.BIG_N, self.DIM))
        assert _peak_bytes(kernels.pairwise_euclidean, pts) < 1.5 * self.SQUARE

    def test_pairwise_hyperboloid_big(self):
        pts = _hyperboloid_points(np.random.default_rng(15), self.BIG_N, self.DIM - 1)
        assert _peak_bytes(kernels.pairwise_hyperboloid, pts) < 1.5 * self.SQUARE

    def test_tree_metric_big(self):
        t = trees.gen_random(self.BIG_N, 2)
        assert _peak_bytes(trees.tree_metric, t) < 1.25 * self.SQUARE

    def test_pairwise_intrinsic_big(self):
        U = np.random.default_rng(17).normal(size=(self.BIG_N, self.DIM)) * 3.0
        assert _peak_bytes(scalarref.pairwise_intrinsic, U) < 1.5 * self.SQUARE
