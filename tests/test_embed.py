"""Tree embedding tests: construction oracles, distances, curvature search.

The construction is checked three ways: against a from-scratch float64
ambient recursion at small scale, against the same recursion run in
mpmath at scales float64 coordinates cannot reach, and through internal
invariants (edge exactness, domination by the scaled tree metric,
evaluator symmetry) that hold at every scale.
"""

import json
import math
import tracemalloc
import warnings
from dataclasses import replace

import mpmath as mp
import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

import ambientutil as amb
import scalarref as ref
from hyptree import embed as em
from hyptree import kernels
from hyptree.embed import (
    EmbedError,
    choose_curvature,
    embedding_distance,
    embedding_distance_matrix,
    hnn_realize,
    sarkar_embed,
    save_embedding,
)
from hyptree.hypgeom import OverflowGuardError
from hyptree.hypgeom import distance as ambient_distance
from hyptree.networks import hnn_forward, par_count, params_to_dict
from hyptree.seeding import child_seed
from hyptree.trees import (
    TreeError,
    WeightedTree,
    centroid,
    gen_binary,
    gen_random,
    gen_spider,
    gen_ternary,
    spring_layout,
    tree_metric,
)


def assert_points_match(points, oracle, tol):
    """Coordinate agreement relative to each point's own magnitude.

    At radius r every coordinate is O(cosh r), and an angular error eps
    moves spatial coordinates by about eps * sinh(r), so per-coordinate
    relative comparison is meaningless near zeros of sin/cos; compare
    against the point scale instead.
    """
    for v, p in points.items():
        o = np.array([float(c) for c in oracle[v]])
        scale = max(1.0, o[-1])
        np.testing.assert_allclose(
            p.coords, o, rtol=0.0, atol=tol * scale,
            err_msg=f"node {v} mismatch",
        )


# ----------------------------------------------------------------------
# The log-space triangle kernel
# ----------------------------------------------------------------------

def _side(d, ell, theta):
    return float(kernels.triangle_step(d, ell, theta)[0])


class TestScalarHelpers:
    """The log-space helpers and ``kernels.triangle_step``, on arrays."""

    def test_ln_cosh_ln_sinh_moderate(self):
        xs = np.array([1e-3, 0.1, 0.7, 3.0, 15.0, 40.0])
        want_c = [math.log(math.cosh(min(x, 700))) for x in xs]
        assert kernels._log_cosh(xs) == pytest.approx(want_c, rel=1e-14)
        assert kernels._log_sinh(xs) == pytest.approx([math.log(math.sinh(x)) for x in xs], rel=1e-13)

    def test_ln_cosh_huge_vs_mpmath(self):
        xs = np.array([120.0, 345.0, 700.0])
        want_c = [float(mp.log(mp.cosh(mp.mpf(x)))) for x in xs]
        want_s = [float(mp.log(mp.sinh(mp.mpf(x)))) for x in xs]
        assert kernels._log_cosh(xs) == pytest.approx(want_c, rel=1e-15)
        assert kernels._log_sinh(xs) == pytest.approx(want_s, rel=1e-15)

    def test_ln_cosh_even(self):
        assert kernels._log_cosh(np.array([-7.5])) == kernels._log_cosh(np.array([7.5]))
        assert kernels._log_cosh(np.array([0.0])) == 0.0

    @staticmethod
    def _side_of_h(h):
        # with no second term, _half_angle_side maps h = ln sinh(c/2) to c
        return kernels._half_angle_side(h, -np.inf, 0.0)

    def test_half_angle_side_roundtrip(self):
        xs = np.array([1e-12, 1e-6, 0.5, 2.0, 29.0, 31.0, 40.0, 42.0, 100.0, 340.0])
        c, h = self._side_of_h(kernels._log_sinh(0.5 * xs))
        assert c == pytest.approx(xs, rel=1e-12)
        np.testing.assert_array_equal(h, kernels._log_sinh(0.5 * xs))
        c, h = self._side_of_h(np.array([-np.inf]))
        assert c[0] == 0.0 and h[0] == -np.inf

    def test_half_angle_side_branch_seam(self):
        # c = 2 asinh(e^h) below h = 20 and 2 (h + ln 2) above; dc/dh is 2 there
        (lo, hi), _ = self._side_of_h(np.array([20.0 - 1e-9, 20.0 + 1e-9]))
        assert hi - lo == pytest.approx(4e-9, rel=1e-4)

    def test_wrap_range_and_identities(self):
        w = kernels.wrap_angle(np.array([3 * math.pi, -3 * math.pi, math.pi, -math.pi, 0.25]))
        assert w[:2] == pytest.approx([math.pi, math.pi])
        assert w[2] == math.pi
        assert w[3] == math.pi
        assert w[4] == 0.25
        a = np.linspace(-20.0, 20.0, 101)
        w = kernels.wrap_angle(a)
        assert np.all((-math.pi < w) & (w <= math.pi))
        for wi, ai in zip(w, a):
            assert math.remainder(wi - ai, 2 * math.pi) == pytest.approx(0.0, abs=1e-12)

    def test_wrap_equals_ieee_remainder_bitwise(self):
        rng = np.random.default_rng(4)
        a = np.concatenate([
            rng.uniform(-50.0, 50.0, 2000),
            np.arange(-9, 10) * math.pi,
            np.arange(-9, 10) * 2 * math.pi,
            [0.0, -0.0, 1e-300, -1e-300, 1e6, -1e6],
        ])
        np.testing.assert_array_equal(kernels.wrap_angle(a), [ref._wrap(float(x)) for x in a])

    def test_side_from_angle_small_vs_direct(self):
        rng = np.random.default_rng(5)
        cases = []
        for _ in range(50):
            d, ell = rng.uniform(0.1, 4.0, 2)
            cases.append((d, ell, rng.uniform(-math.pi, math.pi)))
        want = [
            math.acosh(math.cosh(d) * math.cosh(ell) - math.sinh(d) * math.sinh(ell) * math.cos(th))
            for d, ell, th in cases
        ]
        d, ell, th = map(np.array, zip(*cases))
        assert kernels.triangle_step(d, ell, th)[0] == pytest.approx(want, rel=1e-12, abs=1e-12)

    def test_side_from_angle_degenerate_angles(self):
        with warnings.catch_warnings():
            warnings.simplefilter("error")
            assert _side(3.0, 1.25, math.pi) == pytest.approx(4.25, rel=1e-15)
            assert _side(3.0, 1.25, 0.0) == pytest.approx(1.75, rel=1e-14)
            assert _side(1.25, 3.0, 0.0) == pytest.approx(1.75, rel=1e-14)

    def test_side_from_angle_huge_vs_mpmath(self):
        with mp.workdps(60):
            for d, ell, th in [(200.0, 50.0, 2.0), (300.0, 290.0, 0.3), (120.0, 120.0, 3.0)]:
                want = float(
                    mp.acosh(
                        mp.cosh(d) * mp.cosh(ell)
                        - mp.sinh(d) * mp.sinh(ell) * mp.cos(th)
                    )
                )
                assert _side(d, ell, th) == pytest.approx(want, rel=1e-13)

    def test_angle_opposite_vs_mpmath(self):
        # triangle with sides a,b and included angle th; check the angle
        # adjacent to b (opposite a), and the one adjacent to a (opposite b),
        # against a high-precision rebuild
        cases = [(1.0, 0.7, 1.2), (4.0, 2.5, 2.9), (60.0, 30.0, 0.8), (250.0, 200.0, 2.4)]
        with mp.workdps(80):
            for a, b, th in cases:
                c = mp.acosh(mp.cosh(a) * mp.cosh(b) - mp.sinh(a) * mp.sinh(b) * mp.cos(th))
                want_b = float(
                    mp.acos((mp.cosh(c) * mp.cosh(b) - mp.cosh(a)) / (mp.sinh(c) * mp.sinh(b)))
                )
                want_a = float(
                    mp.acos((mp.cosh(c) * mp.cosh(a) - mp.cosh(b)) / (mp.sinh(c) * mp.sinh(a)))
                )
                _, at_b, at_a = kernels.triangle_step(a, b, th)
                assert -at_b == pytest.approx(want_b, rel=1e-10, abs=1e-12)
                assert at_a == pytest.approx(want_a, rel=1e-10, abs=1e-12)

    def test_angle_opposite_degenerate_sides(self):
        with warnings.catch_warnings():
            warnings.simplefilter("error")
            # a collapsed third side (theta = 0, equal sides) and a zero side
            side, at_b, at_a = kernels.triangle_step(np.array([1.0, 0.0]), 1.0,
                                                     np.array([0.0, 0.5]))
        assert side[0] == 0.0 and at_b[0] == 0.0 and at_a[0] == 0.0
        assert side[1] == pytest.approx(1.0, rel=1e-15)
        assert at_b[1] == pytest.approx(0.0, abs=1e-15)
        assert at_a[1] == 0.0

    def test_side_and_angles_vs_mpmath_at_every_scale(self):
        # the cosh form rebuilt in mpmath with enough digits to survive its
        # cancellation (about (d + ell)/ln 10 of them); the angles by the law
        # of sines over the law of cosines, through atan2
        rng = np.random.default_rng(8)
        sides = np.concatenate([[1e-12, 1e-7, 1e-3, 1.0, 30.0, 1e3], 10 ** rng.uniform(-12, 3, 3)])
        thetas = [0.0, math.pi, 1e-9, -1e-9, *rng.uniform(-math.pi, math.pi, 4)]
        d, ell, th = map(np.ravel, np.meshgrid(sides, sides, thetas, indexing="ij"))
        side, at_b, at_a = kernels.triangle_step(d, ell, th)
        for k in range(d.size):
            with mp.workdps(100 + int((d[k] + ell[k]) / 2.3)):
                p, q, t = mp.mpf(d[k]), mp.mpf(ell[k]), mp.mpf(th[k])
                ch = mp.cosh(p) * mp.cosh(q) - mp.sinh(p) * mp.sinh(q) * mp.cos(t)
                c = mp.acosh(max(ch, 1))
                if c < 1e-40:  # theta = 0 and d = ell: the cancellation's residue
                    assert side[k] == 0.0 and at_b[k] == 0.0 and at_a[k] == 0.0
                    continue
                want_b = mp.atan2(abs(mp.sin(t)) * mp.sinh(p) / mp.sinh(c),
                                  (ch * mp.cosh(q) - mp.cosh(p)) / (mp.sinh(c) * mp.sinh(q)))
                want_a = mp.atan2(abs(mp.sin(t)) * mp.sinh(q) / mp.sinh(c),
                                  (ch * mp.cosh(p) - mp.cosh(q)) / (mp.sinh(c) * mp.sinh(p)))
            assert side[k] == pytest.approx(float(c), rel=1e-13), (d[k], ell[k], th[k])
            sign = 1.0 if th[k] >= 0.0 else -1.0
            for got, want in ((-sign * at_b[k], want_b), (sign * at_a[k], want_a)):
                assert math.remainder(got - float(want), 2 * math.pi) == pytest.approx(
                    0.0, abs=1e-14), (d[k], ell[k], th[k])

    def test_matches_scalar_reference(self):
        rng = np.random.default_rng(6)
        d = rng.uniform(0.05, 300.0, 400)
        ell = rng.uniform(0.05, 50.0, 400)
        th = rng.uniform(-math.pi, math.pi, 400)
        side, at_b, at_a = kernels.triangle_step(d, ell, th)
        for k in range(len(d)):
            want = ref._side_from_angle(d[k], ell[k], th[k])
            sign = 1.0 if th[k] >= 0.0 else -1.0
            assert side[k] == pytest.approx(want, rel=1e-14)
            assert at_b[k] == pytest.approx(
                ref._wrap(-sign * ref._angle_opposite(want, ell[k], d[k], th[k])),
                rel=1e-12, abs=1e-14)
            assert at_a[k] == pytest.approx(
                sign * ref._angle_opposite(want, d[k], ell[k], th[k]), rel=1e-12, abs=1e-14)


# ----------------------------------------------------------------------
# Construction against the ambient oracles
# ----------------------------------------------------------------------

SMALL_TREES = [
    gen_binary(3),
    gen_ternary(2),
    gen_spider(7, leg_length=3),
    gen_random(17, seed=3),
    gen_random(2, seed=0),
]


def _reweighted(t, seed):
    rng = np.random.default_rng(seed)
    return WeightedTree(t.node_ids, [(u, v, float(rng.uniform(0.2, 3.0))) for u, v, _ in t.edges])


def _relabeled(t, seed):
    """t with its node ids permuted and listed out of sorted order."""
    rng = np.random.default_rng(seed)
    new = dict(zip(t.node_ids, (10 * rng.permutation(t.n_nodes) + 3).tolist()))
    return WeightedTree(list(rng.permutation([new[v] for v in t.node_ids])),
                        [(new[u], new[v], w) for u, v, w in t.edges])


PARITY_TREES = SMALL_TREES + [_reweighted(gen_random(30, seed=9), seed=1)]
UNSORTED = _relabeled(_reweighted(gen_random(40, seed=5), seed=2), seed=3)
# weighted trees, one with its ids out of node order, for the mpmath oracle:
# the float64 recursion itself is off by ~5e-6 on UNSORTED at tau=1.25
WEIGHTED_TREES = [UNSORTED, PARITY_TREES[-1], _reweighted(gen_spider(9, leg_length=3), seed=4)]


class TestConstructionOracle:
    @pytest.mark.parametrize("idx", range(len(SMALL_TREES)))
    @pytest.mark.parametrize("tau", [0.5, 1.25])
    def test_matches_float64_recursion(self, idx, tau):
        # the oracle's Lorentz cross products lose ~cosh(r) * 1e-16 per
        # level, so keep it to radii where that noise sits under the bar
        t = SMALL_TREES[idx]
        e = sarkar_embed(t, tau)
        oracle = amb.ambient_points_f64(t, centroid(t), tau)
        assert_points_match(e.points, oracle, tol=5e-11)

    def test_matches_mpmath_recursion_moderate_scale(self):
        t = gen_random(17, seed=3)
        e = sarkar_embed(t, 2.0)
        oracle = amb.ambient_points_mp(t, centroid(t), 2.0, dps=80)
        assert_points_match(e.points, oracle, tol=1e-12)

    @pytest.mark.parametrize("idx", range(len(WEIGHTED_TREES)))
    def test_weighted_trees_match_mpmath_recursion(self, idx):
        t = WEIGHTED_TREES[idx]
        e = sarkar_embed(t, 2.0)
        oracle = amb.ambient_points_mp(t, centroid(t), 2.0, dps=80)
        assert_points_match(e.points, oracle, tol=1e-12)

    def test_matches_mpmath_recursion_large_scale(self):
        t = gen_binary(4)
        e = sarkar_embed(t, 32.0)
        oracle = amb.ambient_points_mp(t, centroid(t), 32.0, dps=160)
        assert_points_match(e.points, oracle, tol=1e-9)

    def test_pair_distances_match_mpmath_large_scale(self):
        t = gen_binary(4)
        e = sarkar_embed(t, 32.0)
        oracle = amb.ambient_points_mp(t, centroid(t), 32.0, dps=160)
        ids = e.node_ids()
        rows = embedding_distance(e, ids)
        for i, u in enumerate(ids):
            for j in range(i + 1, len(ids)):
                want = amb.mp_distance(oracle[u], oracle[ids[j]], dps=160)
                assert rows[i, j] == pytest.approx(want, rel=1e-10, abs=1e-10)

    def test_evaluator_agrees_with_ambient_distance_small_scale(self):
        # ambient chordal distances carry ~exp(r_u + r_v - D) * 1e-16
        # noise, so the ambient reference is only good at small radius
        t = gen_random(14, seed=8)
        e = sarkar_embed(t, 1.0)
        ids = e.node_ids()
        rows = embedding_distance(e, ids)
        for i, u in enumerate(ids):
            for j in range(i + 1, len(ids)):
                want = ambient_distance(e.points[u], e.points[ids[j]])
                assert rows[i, j] == pytest.approx(want, abs=1e-9)

    def test_frame_assignment_matches_oracle(self):
        # the root and the directed-edge table against the oracle's slots,
        # parents and weights
        for t in SMALL_TREES + [UNSORTED]:
            f = em._frame(t)
            root = centroid(t)
            slots, oparent, ow_up = amb.frame_slots(t, root)
            ids = f.ids
            assert ids == tuple(t.node_ids)
            assert ids[f.root] == root
            assert len(f.head) == 2 * len(t.edges)
            for k, a in enumerate(ids):
                out = f.head[f.start[k] : f.start[k + 1]]
                assert sorted(ids[b] for b in out) == sorted(slots[a])
            for j in range(len(f.head)):
                a = ids[np.searchsorted(f.start, j, side="right") - 1]
                b = ids[f.head[j]]
                assert f.edge_angle[j] == pytest.approx(2.0 * math.pi * float(slots[a][b]),
                                                        abs=1e-12)
                assert f.edge_w[j] == (ow_up[b] if oparent[b] == a else ow_up[a])
                succ = f.succ_edge[f.succ_ptr[j] : f.succ_ptr[j + 1]]
                assert sorted(ids[f.head[c]] for c in succ) == sorted(set(slots[b]) - {a})
                for c, turn in zip(succ, f.succ_turn[f.succ_ptr[j] : f.succ_ptr[j + 1]]):
                    want = ref._wrap(2.0 * math.pi * float(slots[b][ids[f.head[c]]] - slots[b][a]))
                    assert turn == pytest.approx(want, abs=1e-12)


# ----------------------------------------------------------------------
# The array walk against the per-pair path unroll
# ----------------------------------------------------------------------

ULPS_PER_HOP = 4


def _hop_counts(t, ids):
    """Edges on the tree path between every two of ids."""
    unit = tree_metric(WeightedTree(t.node_ids, [(u, v, 1.0) for u, v, _ in t.edges]))
    pos = {v: k for k, v in enumerate(unit.ids)}
    ix = [pos[v] for v in ids]
    return unit.matrix[np.ix_(ix, ix)]


def assert_within_hop_ulps(got, want, hops):
    """|got - want| <= ULPS_PER_HOP * hops ulps of want, entry by entry."""
    got, want = np.asarray(got), np.asarray(want)
    excess = np.abs(got - want) - ULPS_PER_HOP * hops * np.finfo(np.float64).eps * np.abs(want)
    worst = np.unravel_index(np.argmax(excess), np.shape(excess))
    assert excess[worst] <= 0.0, (
        f"entry {worst}: got {got[worst]!r}, want {want[worst]!r} over {hops[worst]:g} hops"
    )


class TestPairwiseReference:
    """The array walk against ``scalarref.embedding_distance_pair``.

    Both sides evaluate the same log-space formulas in the same order, but
    the walk uses numpy's exp, log1p, arccosh and arctan2 and the unroll
    uses math's, and the two differ in the last ulp on part of the inputs
    (1 to 10% of samples, depending on the function). Each hop is one
    triangle step: it adds its own last-ulp differences and passes on those
    of its inputs without amplifying them on these trees, so the gap grows
    at most linearly with the pair's hop count. The bound is ULPS_PER_HOP
    ulps of the reference distance per hop. The largest readings are 1.1
    ulp per hop on binary(7) (10.75 ulp over 10 hops at tau = 1) and 1.3 on
    gen_spider(200, leg_length=2); a walk with swapped sides or a flipped
    sign in the back-angle is off by over 10%. Exact equality held while
    both sides used ``math``; the test keeps its name.
    """

    @pytest.mark.parametrize("idx", range(len(PARITY_TREES)))
    @pytest.mark.parametrize("tau", [1.0, 2.0, 4.0, 8.0])
    def test_matrix_bitwise_equal(self, idx, tau):
        t = PARITY_TREES[idx]
        e = sarkar_embed(t, tau)
        frame = ref.reference_frame(t)
        ids = list(np.random.default_rng(idx).permutation(t.node_ids))
        want = np.zeros((len(ids), len(ids)))
        for i, u in enumerate(ids):
            for j in range(i + 1, len(ids)):
                want[i, j] = want[j, i] = ref.embedding_distance_pair(frame, tau, u, ids[j])
        assert_within_hop_ulps(embedding_distance_matrix(e, ids), want, _hop_counts(t, ids))

    @pytest.mark.parametrize("tau", [1.0, 8.0])
    def test_unsorted_node_ids(self, tau):
        # the walk's columns follow the tree's node order, which is not sorted here
        t = UNSORTED
        assert t.node_ids != sorted(t.node_ids)
        e = sarkar_embed(t, tau)
        assert e.node_ids() == t.node_ids == list(tree_metric(t).ids)
        frame = ref.reference_frame(t)
        src = t.node_ids[::7]
        want = [[ref.embedding_distance_pair(frame, tau, u, v) for v in t.node_ids] for u in src]
        hops = _hop_counts(t, t.node_ids)[[t.node_ids.index(u) for u in src]]
        assert_within_hop_ulps(embedding_distance(e, src), want, hops)

    @pytest.mark.parametrize("idx", range(len(PARITY_TREES)))
    @pytest.mark.parametrize("lam", [1.5, 1.1, 1.02])
    def test_choose_curvature_identical(self, idx, lam):
        t = PARITY_TREES[idx]
        want = ref.curvature_scan_pairwise(t, tree_metric(t), lam, em.DEFAULT_TAU_GRID)
        if want is None:
            with pytest.raises(EmbedError, match="best distortion"):
                choose_curvature(t, lam)
            return
        e, kappa, rep = choose_curvature(t, lam)
        assert e.tau == want[0]
        assert math.sqrt(-kappa.kappa) == e.tau
        diameter = _hop_counts(t, t.node_ids).max()
        assert_within_hop_ulps([rep.alpha, rep.beta], want[1:], np.full(2, diameter))

    def test_walk_past_the_overflow_cap(self, tmp_path):
        # binary(5) at tau = 128 puts its leaves about 640 from the root: the
        # walk gives every distance, and only the ambient points refuse, naming
        # the radius that sinh and cosh would get, before a file is opened or
        # a network built
        t, tau = gen_binary(5), 128.0
        spring_layout(t, dim=2, seed=0)
        e = sarkar_embed(t, tau)
        ids = e.node_ids()
        mat = embedding_distance_matrix(e)
        assert np.isfinite(mat).all()
        frame = ref.reference_frame(t)
        iu, ju = np.triu_indices(len(ids), k=1)
        pick = np.random.default_rng(0).choice(len(iu), 60, replace=False)
        iu, ju = iu[pick], ju[pick]
        want = [ref.embedding_distance_pair(frame, tau, ids[i], ids[j]) for i, j in zip(iu, ju)]
        assert_within_hop_ulps(mat[iu, ju], want, _hop_counts(t, ids)[iu, ju])
        radius = embedding_distance(e, [centroid(t)]).max()
        assert 350.0 < radius < tau * 5
        message = f"tau 128 puts nodes at radius {radius:.1f} > 350; reduce tau"
        for read in (lambda: e.points, lambda: save_embedding(tmp_path / "e.json", e),
                     lambda: hnn_realize(e, t)):
            with pytest.raises(OverflowGuardError) as err:
                read()
            assert str(err.value) == message
        assert not (tmp_path / "e.json").exists()

    @pytest.mark.parametrize("make", [lambda: gen_binary(9), lambda: gen_random(1000, seed=0)],
                             ids=["binary9", "random1000"])
    def test_sampled_rows_at_scale(self, make):
        t = make()
        e = sarkar_embed(t, 1.0)
        ids = e.node_ids()
        frame = ref.reference_frame(t)
        src = [ids[k] for k in np.random.default_rng(0).choice(len(ids), 3, replace=False)]
        want = [[ref.embedding_distance_pair(frame, 1.0, u, v) for v in ids] for u in src]
        hops = _hop_counts(t, ids)[[ids.index(u) for u in src]]
        assert_within_hop_ulps(embedding_distance(e, src), want, hops)


class TestTemporaries:
    """The all-pairs walk peaks below 8 n x n float64 arrays. On the spider
    one hop holds about half of all ordered pairs at once."""

    @pytest.mark.parametrize("make", [lambda: gen_binary(8), lambda: gen_spider(200, leg_length=2)],
                             ids=["binary8", "spider200"])
    def test_distance_matrix_peak(self, make):
        t = make()
        e = sarkar_embed(t, 1.0)
        tracemalloc.start()
        try:
            embedding_distance_matrix(e)
            peak = tracemalloc.get_traced_memory()[1]
        finally:
            tracemalloc.stop()
        assert peak < 8 * t.n_nodes**2 * 8

    @pytest.mark.parametrize("make, lam, bound", [(lambda: gen_binary(7), 1.1, 2.5),
                                                  (lambda: gen_random(1000, seed=3), 1.5, 1.0)],
                             ids=["binary7", "random1000"])
    def test_scan_peak_beyond_the_metric(self, make, lam, bound):
        # the full check reduces each block of walked rows as it is walked:
        # no n x n array of walked distances, no scaled copy of the metric
        t = make()
        t.metric  # built before tracing
        tracemalloc.start()
        try:
            choose_curvature(t, lam)
            peak = tracemalloc.get_traced_memory()[1]
        finally:
            tracemalloc.stop()
        assert peak <= bound * 8 * t.n_nodes**2


# ----------------------------------------------------------------------
# Metric invariants of the construction
# ----------------------------------------------------------------------

class TestEmbeddingInvariants:
    def test_single_edge_exact_length(self):
        t = WeightedTree([0, 1], [(0, 1, 1.0)])
        e = sarkar_embed(t, 3.0)
        np.testing.assert_array_equal(embedding_distance(e, [0, 1]), [[0.0, 3.0], [3.0, 0.0]])
        assert ambient_distance(e.points[0], e.points[1]) == pytest.approx(3.0, abs=1e-12)

    def test_edges_map_to_exact_scaled_length(self):
        t = gen_random(20, seed=11)
        tau = 0.8
        e = sarkar_embed(t, tau)
        for u, v, w in t.edges:
            d = ambient_distance(e.points[u], e.points[v])
            assert d == pytest.approx(tau * w, abs=1e-9)

    @pytest.mark.parametrize("tau", [2.0, 8.0])
    def test_domination(self, tau):
        t = gen_binary(4)
        e = sarkar_embed(t, tau)
        metric = tree_metric(t)
        ids = e.node_ids()
        rows = embedding_distance(e, ids)
        for i, u in enumerate(ids):
            for j in range(i + 1, len(ids)):
                assert rows[i, j] <= tau * metric.dist(u, ids[j]) + 1e-9

    def test_evaluator_symmetry(self):
        t = gen_random(12, seed=2)
        e = sarkar_embed(t, 3.0)
        rows = embedding_distance(e, e.node_ids())
        np.testing.assert_allclose(rows, rows.T, rtol=0, atol=1e-9)
        assert np.all(np.diag(rows) == 0.0)

    def test_distance_matrix_is_symmetric_with_sorted_ids(self):
        t = gen_spider(4, leg_length=2)
        e = sarkar_embed(t, 2.0)
        mat = embedding_distance_matrix(e)
        assert mat.shape == (t.n_nodes, t.n_nodes)
        np.testing.assert_array_equal(mat, mat.T)
        assert np.all(np.diag(mat) == 0.0)

    def test_star_at_large_scale_has_small_distortion(self):
        t = gen_spider(3, leg_length=1)
        tau = 10.0
        e = sarkar_embed(t, tau)
        metric = tree_metric(t)
        ids = list(metric.ids)
        mat = embedding_distance_matrix(e, ids) / tau
        report = ref.distortion_from_matrices(mat, metric.matrix)
        assert report.injective
        assert report.dist <= 1.05

    def test_distortion_nonincreasing_in_scale(self):
        t = gen_binary(5)
        metric = tree_metric(t)
        ids = list(metric.ids)
        dists = []
        for tau in [2.0, 5.0, 10.0]:
            e = sarkar_embed(t, tau)
            mat = embedding_distance_matrix(e, ids) / tau
            dists.append(ref.distortion_from_matrices(mat, metric.matrix).dist)
        assert dists[1] <= dists[0] + 1e-9
        assert dists[2] <= dists[1] + 1e-9

    def test_root_is_centroid_and_at_apex(self):
        t = gen_binary(3)
        e = sarkar_embed(t, 2.0)
        root = e.frame.ids[e.frame.root]
        assert root == centroid(t)
        np.testing.assert_array_equal(e.points[root].coords, [0.0, 0.0, 1.0])

    def test_single_node_tree(self):
        e = sarkar_embed(WeightedTree([5], []), 2.0)
        assert list(e.points) == [5]
        np.testing.assert_array_equal(e.points[5].coords, [0.0, 0.0, 1.0])

    def test_overflow_guard(self):
        e = sarkar_embed(gen_binary(6), 64.0)
        with pytest.raises(OverflowGuardError, match="reduce tau"):
            e.points

    def test_points_where_the_walk_rounds_past_the_cap(self):
        # 20 hops of 17.5 each way from the centroid: the scan accepts tau = 1,
        # where the metric puts the ends exactly 350 from the root, and the
        # walk's radius rounds past it
        t = WeightedTree(list(range(41)), [(i, i + 1, 17.5) for i in range(40)])
        e, _, _ = choose_curvature(t, 1.5)
        assert e.tau == 1.0
        assert embedding_distance(e, [centroid(t)]).max() > 350.0
        assert len(e.points) == 41

    def test_non_finite_distance_raises(self):
        # the kernel silences only log(0); the NaN shows as numpy's invalid
        # warning, then as the error
        e = sarkar_embed(gen_binary(3), 1.0)
        edge_w = e.frame.edge_w.copy()
        edge_w[-1] = math.nan
        with pytest.warns(RuntimeWarning, match="invalid"), \
                pytest.raises(EmbedError, match="not finite"):
            embedding_distance(replace(e, frame=replace(e.frame, edge_w=edge_w)), e.node_ids())

    def test_bad_tau_rejected(self):
        with pytest.raises(EmbedError):
            sarkar_embed(gen_binary(2), 0.0)
        with pytest.raises(EmbedError):
            sarkar_embed(gen_binary(2), -1.0)
        with pytest.raises(EmbedError, match="tau must be positive"):
            sarkar_embed(gen_binary(2), math.nan)


# ----------------------------------------------------------------------
# Distortion reports
# ----------------------------------------------------------------------

class TestDistortion:
    PATH3 = tree_metric(WeightedTree([0, 1, 2], [(0, 1, 1.0), (1, 2, 1.0)])).matrix

    def test_pure_scaling_has_unit_distortion(self):
        rep = ref.distortion_from_matrices(2.0 * self.PATH3, self.PATH3)
        assert rep.alpha == pytest.approx(2.0)
        assert rep.beta == pytest.approx(2.0)
        assert rep.dist == pytest.approx(1.0)
        assert rep.injective

    def test_collision_reported_non_injective(self):
        rep = ref.distortion_from_matrices(np.zeros((3, 3)), self.PATH3)
        assert not rep.injective
        assert rep.dist == math.inf

    def test_single_node_rejected(self):
        for n in (0, 1):
            with pytest.raises(EmbedError, match="at least two nodes"):
                ref.distortion_from_matrices(np.zeros((n, n)), np.zeros((n, n)))


# ----------------------------------------------------------------------
# Curvature selection
# ----------------------------------------------------------------------

class TestChooseCurvature:
    def test_single_edge_passes_first_scale(self):
        t = WeightedTree([0, 1], [(0, 1, 1.0)])
        e, kappa, rep = choose_curvature(t, lam=1.5)
        assert kappa.kappa == -1.0
        assert rep.dist == pytest.approx(1.0)

    def test_binary_tree_meets_mild_bound(self):
        t = gen_binary(6)
        lam = 1.1
        e, kappa, rep = choose_curvature(t, lam)
        assert rep.alpha >= 1.0 / lam
        assert rep.beta <= lam
        # minimality: every smaller grid scale must fail the bound
        metric = tree_metric(t)
        ids = list(metric.ids)
        for tau in em.DEFAULT_TAU_GRID:
            if tau >= math.sqrt(-kappa.kappa):
                break
            e_lo = sarkar_embed(t, tau)
            mat = embedding_distance_matrix(e_lo, ids) / tau
            rep_lo = ref.distortion_from_matrices(mat, metric.matrix)
            assert rep_lo.alpha < 1.0 / lam or rep_lo.beta > lam

    def test_tighter_bound_needs_stronger_curvature(self):
        t = gen_binary(4)
        _, k_loose, _ = choose_curvature(t, 1.1)
        _, k_tight, _ = choose_curvature(t, 1.01)
        assert -k_tight.kappa >= -k_loose.kappa

    def test_exhausted_grid_reports_best(self, monkeypatch):
        # a grid that ends before the overflow cap: the message names the best
        # scale tried and no cap
        monkeypatch.setattr(em, "DEFAULT_TAU_GRID", (1.0, 2.0))
        with pytest.raises(EmbedError, match="best distortion") as err:
            choose_curvature(gen_binary(4), 1.0001)
        assert "overflow cap" not in str(err.value)

    def test_cap_before_any_scale_names_the_cap(self):
        # a 400-unit edge puts the first grid scale past the overflow cap, so
        # no distortion was measured and none is reported
        t = WeightedTree([0, 1], [(0, 1, 400.0)])
        with pytest.raises(EmbedError) as err:
            choose_curvature(t, 1.1)
        assert str(err.value) == (
            "no grid scale met lambda=1.1; tau=1 hit the overflow cap: radius 400.0 > 350"
        )

    def test_cap_after_best_names_both(self):
        # binary(5) is 5 deep from its centroid: tau=64 is the last scale
        # inside the cap, and tau=128 stops the scan at radius 640
        with pytest.raises(EmbedError) as err:
            choose_curvature(gen_binary(5), 1.001)
        assert str(err.value) == (
            "no grid scale met lambda=1.001; best distortion 1.00395 at tau=64; "
            "tau=128 hit the overflow cap: radius 640.0 > 350"
        )

    @pytest.mark.parametrize("w", [1e-9, 1e-7, 1e-5])
    def test_short_path_accepted_at_first_scale(self, w):
        # a path embeds isometrically at any scale; the walk must not lose its
        # multi-hop distances to cancellation on short sides
        t = WeightedTree([0, 1, 2, 3], [(0, 1, w), (1, 2, w), (2, 3, w)])
        e, kappa, rep = choose_curvature(t, 1.5)
        assert e.tau == 1.0
        assert 1.0 <= rep.dist <= 1.0 + 1e-12
        assert rep.injective

    @settings(max_examples=60, deadline=None, derandomize=True, database=None)
    @given(st.lists(st.tuples(st.floats(0.0, 1.0), st.floats(-12.0, math.log10(30.0))),
                    min_size=2, max_size=12))
    def test_small_weights_never_read_as_collisions(self, hops):
        # node k + 1 hangs from a node drawn among 0..k by an edge of weight
        # 10^x: whatever the scan decides, it measures every scale it tries
        edges = [(k + 1, int(u * (k + 1)) % (k + 1), 10.0 ** x) for k, (u, x) in enumerate(hops)]
        t = WeightedTree(list(range(len(hops) + 1)), edges)
        try:
            _, _, rep = choose_curvature(t, 1.5)
        except EmbedError as exc:
            assert "best distortion inf" not in str(exc)
        else:
            assert rep.injective

    def test_bad_lambda_rejected(self):
        t = WeightedTree([0, 1], [(0, 1, 1.0)])
        with pytest.raises(EmbedError):
            choose_curvature(t, 1.0)
        with pytest.raises(EmbedError):
            choose_curvature(t, 0.5)
        # NaN passes a lam <= 1 check and would run the whole scan
        with pytest.raises(EmbedError, match="lambda must exceed 1"):
            choose_curvature(t, math.nan)

    def test_single_node_rejected(self):
        with pytest.raises(EmbedError):
            choose_curvature(WeightedTree([0], []), 1.5)

    def test_frame_built_once_per_scan(self, monkeypatch):
        # binary(7) at lam=1.1 places three scales on one frame: the
        # centroid is found once, not once per scale or per walk
        calls = []
        find = em.centroid

        def counted(t):
            calls.append(t.n_nodes)
            return find(t)

        monkeypatch.setattr(em, "centroid", counted)
        e, _, _ = choose_curvature(gen_binary(7), 1.1)
        assert e.tau == 4.0
        assert calls == [255]


SCAN_TREES = SMALL_TREES + [gen_binary(4), gen_binary(5)] + [
    gen_random(60, seed=s) for s in range(6)
] + [gen_spider(64)]


@pytest.fixture(scope="module")
def full_reports():
    """Per scan tree, each grid scale's full-matrix report, shared across lambdas."""
    return {}


def assert_scan_matches_full(t, lam, reports):
    want = ref.curvature_scan_full(t, tree_metric(t), lam, em.DEFAULT_TAU_GRID, reports)
    if isinstance(want, str):
        with pytest.raises(EmbedError) as err:
            choose_curvature(t, lam)
        assert str(err.value) == want
        return
    e, kappa, rep = choose_curvature(t, lam)
    assert e.tau == math.sqrt(-kappa.kappa) == want[0]
    assert rep == want[1]  # alpha, beta, dist and injective, exactly
    assert e.points == sarkar_embed(t, e.tau).points


class TestProbeScan:
    """The scan rejects a scale on a few probe rows and walks every source
    only when they hold no witness; each decision must be the full check's."""

    @pytest.mark.parametrize("idx", range(len(SCAN_TREES)))
    @pytest.mark.parametrize("lam", [1.5, 1.1, 1.01, 1.001])
    def test_decides_like_full_matrix_scan(self, full_reports, idx, lam):
        assert_scan_matches_full(SCAN_TREES[idx], lam, full_reports.setdefault(idx, {}))

    @pytest.mark.parametrize("seed", [0, 1])
    def test_probe_miss_falls_back_to_full_walk(self, monkeypatch, seed):
        # at lam=1.5 the probe rows of random(255) hold no witness at tau=2,
        # which the full walk then rejects
        missed = []
        probe = em._probe_witness

        def logged(record, *args):
            found = probe(record, *args)
            if found is None:
                missed.append(record.tau)
            return found

        monkeypatch.setattr(em, "_probe_witness", logged)
        assert_scan_matches_full(gen_random(255, seed=seed), 1.5, {})
        assert 2.0 in missed

    def test_rejected_scales_walk_few_rows(self, monkeypatch):
        # binary(7) at lam=1.1 rejects tau = 1 and 2: only the accepted
        # scale walks all n sources, each scale's probes walk at most 8
        rows = []
        walk = em.embedding_distance

        def counted(e, sources):
            rows.append((e.tau, len(sources)))
            return walk(e, sources)

        monkeypatch.setattr(em, "embedding_distance", counted)
        t = gen_binary(7)
        e, _, _ = choose_curvature(t, 1.1)
        assert e.tau == 4.0
        tried = {tau for tau, _ in rows}
        assert tried == {1.0, 2.0, 4.0}
        assert sum(k for _, k in rows) <= t.n_nodes + 8 * len(tried)

    def test_no_scale_is_fully_checked_twice(self, monkeypatch):
        # random(40), seed 34, meets lam=1.02 at no grid scale: the probes
        # miss at tau=32, which the full walk rejects, and the cap stops the
        # scan at tau=64. The best distortion then needs full checks of the
        # probe-rejected scales only, and its message is the one from full
        # checks of every scale tried
        checked = []
        full = em._full_check

        def counted(record, metric):
            checked.append(record.tau)
            return full(record, metric)

        monkeypatch.setattr(em, "_full_check", counted)
        t = gen_random(40, seed=34)
        assert_scan_matches_full(t, 1.02, {})
        assert checked == [32.0, 1.0, 2.0, 4.0, 8.0, 16.0]


# ----------------------------------------------------------------------
# Network realization and padding
# ----------------------------------------------------------------------

class TestRealize:
    def test_two_node_tree_exact(self):
        t = WeightedTree([0, 1], [(0, 1, 1.0)],
                         coords={0: [0.0, 0.0], 1: [1.0, 0.0]})
        e = sarkar_embed(t, 2.0)
        p = hnn_realize(e, t)
        for v in (0, 1):
            out = hnn_forward(p, np.asarray(t.coords[v]))
            assert ambient_distance(out, e.points[v]) <= 1e-9

    def test_binary_tree_with_spring_layout(self):
        t = gen_binary(4)
        spring_layout(t, dim=2, seed=0)
        e = sarkar_embed(t, 2.0)
        p = hnn_realize(e, t)
        worst = 0.0
        for v in sorted(e.points):
            out = hnn_forward(p, t.coords[v])
            worst = max(worst, ambient_distance(out, e.points[v]))
        assert worst <= 1e-6

    def test_parameter_triple_does_not_depend_on_bound(self):
        t = gen_binary(4)
        spring_layout(t, dim=2, seed=0)
        e_a, _, _ = choose_curvature(t, 1.1)
        e_b, _, _ = choose_curvature(t, 1.01)
        pc_a = par_count(hnn_realize(e_a, t))
        pc_b = par_count(hnn_realize(e_b, t))
        assert (pc_a.depth, pc_a.width, pc_a.par) == (pc_b.depth, pc_b.width, pc_b.par)

    @pytest.mark.parametrize("seed", [0, 1, 2])
    def test_output_layer_well_conditioned(self, seed):
        # `gen binary 7 --seed s` then `embed --lambda 1.1 --realize-hnn --seed s`;
        # the first separating direction of the 64 draws has max |A2| of
        # 4.4e6 / 4.9e6 / 4.1e5 here
        t = gen_binary(7)
        spring_layout(t, dim=2, seed=child_seed(seed, "layout"))
        e, _, _ = choose_curvature(t, 1.1)
        p = hnn_realize(e, t, seed=seed)
        assert np.max(np.abs(p.layers[-1][0])) < 1e6

    def test_node_order_does_not_change_the_network(self):
        # the same tree with its node list reversed: the memorizer sorts
        # the projections, so the rows' order does not reach the network
        t = gen_binary(3)
        spring_layout(t, dim=2, seed=0)
        s = WeightedTree(t.node_ids[::-1], t.edges, t.coords)
        e, _, _ = choose_curvature(t, 1.1)
        f, _, _ = choose_curvature(s, 1.1)
        assert params_to_dict(hnn_realize(e, t)) == params_to_dict(hnn_realize(f, s))

    def test_missing_coords_rejected(self):
        t = gen_binary(2)
        e = sarkar_embed(t, 2.0)
        with pytest.raises(TreeError, match="missing_coords: tree nodes lack layout"):
            hnn_realize(e, t)

    def test_one_node_without_coords_rejected(self):
        t = gen_binary(2)
        spring_layout(t, dim=2, seed=0)
        del t.coords[3]
        e = sarkar_embed(t, 2.0)
        with pytest.raises(TreeError, match=r"lack layout coordinates: \[3\]"):
            hnn_realize(e, t)

    def test_missing_node_rejected(self):
        t = gen_binary(2)
        spring_layout(t, dim=2, seed=0)
        e = sarkar_embed(gen_binary(1), 2.0)
        with pytest.raises(EmbedError, match="missing"):
            hnn_realize(e, t)

    @pytest.mark.parametrize("tau", [2.0, 128.0])
    def test_missing_nodes_rejected_at_any_tau(self, tau):
        # the tree's ids are checked against the frame before any point is
        # formed, so a tau past the overflow cap gives the same error
        t = gen_binary(6)
        spring_layout(t, dim=2, seed=0)
        e = sarkar_embed(gen_binary(5), tau)
        with pytest.raises(EmbedError, match=r"embedding is missing nodes \[63, 64, 65\]"):
            hnn_realize(e, t)


# ----------------------------------------------------------------------
# JSON interchange
# ----------------------------------------------------------------------

class TestEmbeddingJson:
    def test_round_trip_bit_exact(self, tmp_path):
        # the JSON floats read back to the very coordinates that were written
        t = gen_random(10, seed=6)
        e = sarkar_embed(t, 4.0)
        path = tmp_path / "emb.json"
        save_embedding(path, e)
        data = json.loads(path.read_text())
        assert data["kappa"] == e.kappa.kappa
        assert sorted(int(v) for v in data["points"]) == sorted(e.points)
        for v, coords in data["points"].items():
            np.testing.assert_array_equal(coords, e.points[int(v)].coords)

    def test_schema_shape(self, tmp_path):
        e = sarkar_embed(gen_binary(1), 2.0)
        path = tmp_path / "emb.json"
        save_embedding(path, e)
        data = json.loads(path.read_text())
        assert set(data) == {"kappa", "points"}
        assert data["kappa"] == -4.0
        assert set(data["points"]) == {"0", "1", "2"}
        assert all(len(v) == 3 for v in data["points"].values())
