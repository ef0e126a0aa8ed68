"""Each numpy kernel against an independent oracle.

The scalar references live in ``scalarref``; the hyperboloid distances are
checked against mpmath. The tree metric's oracle is scipy's Dijkstra, in
``test_trees.py``. ``TestTemporaries`` bounds the memory the n x n kernels
allocate, so none of them builds an (n, n, dim) array.
"""

import tracemalloc

import numpy as np
from numpy.testing import assert_allclose

import scalarref
from hyptree import kernels, trees
from mputil import mp_distance


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
        got = kernels.ratio_bounds(ds, dt)
        want = scalarref.ratio_bounds(ds, dt)
        assert_allclose(got[:2], want[:2], rtol=1e-14)
        assert got[2] == want[2]

    def test_ratio_bounds_flags_non_injective(self):
        dt = np.ones((3, 3))
        ds = np.ones((3, 3))
        ds[0, 1] = ds[1, 0] = 0.0
        assert not scalarref.ratio_bounds(ds, dt)[2]
        assert not kernels.ratio_bounds(ds, dt)[2]


def _peak_bytes(fn, *args):
    tracemalloc.start()
    try:
        fn(*args)
        return tracemalloc.get_traced_memory()[1]
    finally:
        tracemalloc.stop()


class TestTemporaries:
    """Each n x n kernel peaks below four n x n float64 arrays at dim 4: it
    accumulates one coordinate at a time, with no (n, n, dim) temporary."""

    N, DIM = 500, 4
    BOUND = 4 * N * N * 8

    def test_fr_step(self):
        eu, ev = _random_tree_arrays(self.N, 2)
        pos = np.random.default_rng(8).uniform(size=(self.N, self.DIM))
        assert _peak_bytes(kernels.fr_step, pos, eu, ev, 0.05, 0.005) < self.BOUND

    def test_pairwise_euclidean(self):
        pts = np.random.default_rng(9).normal(size=(self.N, self.DIM))
        assert _peak_bytes(kernels.pairwise_euclidean, pts) < self.BOUND

    def test_pairwise_hyperboloid(self):
        spatial = np.random.default_rng(10).normal(size=(self.N, self.DIM - 1))
        pts = np.column_stack([spatial, np.sqrt(1.0 + np.sum(spatial**2, axis=1))])
        assert _peak_bytes(kernels.pairwise_hyperboloid, pts) < self.BOUND
