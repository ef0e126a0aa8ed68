"""Tree module tests; scipy's Dijkstra is the independent metric oracle."""

import numpy as np
import pytest
from numpy.testing import assert_allclose
from scipy.sparse import csr_matrix
from scipy.sparse.csgraph import connected_components, dijkstra

from hyptree import kernels, trees

RNG = np.random.default_rng(7)


def random_weighted_tree(n, seed):
    base = trees.gen_random(n, seed)
    rng = np.random.default_rng(seed + 1)
    edges = [(u, v, float(rng.uniform(0.5, 2.0))) for u, v, _ in base.edges]
    return trees.WeightedTree(base.node_ids, edges)


def weighted_path(n, seed, reverse=False):
    """Path 0-1-...-(n-1) with weights uniform in [0.5, 2]; ``reverse`` lists ids from n-1 down."""
    w = np.random.default_rng(seed).uniform(0.5, 2.0, size=n - 1)
    ids = list(range(n))
    return trees.WeightedTree(ids[::-1] if reverse else ids, [(i, i + 1, float(w[i])) for i in range(n - 1)])


def dijkstra_oracle(t):
    index = {i: k for k, i in enumerate(t.node_ids)}
    n = t.n_nodes
    rows, cols, vals = [], [], []
    for u, v, w in t.edges:
        rows += [index[u], index[v]]
        cols += [index[v], index[u]]
        vals += [w, w]
    graph = csr_matrix((vals, (rows, cols)), shape=(n, n))
    return dijkstra(graph, directed=False)


class TestValidation:
    def test_valid_tree_passes(self):
        trees.WeightedTree([0, 1, 2], [(0, 1, 1.0), (1, 2, 0.5)])

    @pytest.mark.parametrize(
        "ids,edges,code",
        [
            ([0, 0, 1], [(0, 1, 1.0)], "duplicate_node"),
            ([0, 1], [(0, 2, 1.0)], "unknown_endpoint"),
            ([0, 1], [(0, 0, 1.0)], "self_loop"),
            ([0, 1, 2], [(0, 1, 1.0), (1, 0, 1.0)], "duplicate_edge"),
            ([0, 1], [(0, 1, 0.0)], "nonpositive_weight"),
            ([0, 1], [(0, 1, -2.0)], "nonpositive_weight"),
            ([0, 1, 2, 3], [(0, 1, 1.0), (2, 3, 1.0)], "disconnected"),
            ([0, 1, 2], [(0, 1, 1.0), (1, 2, 1.0), (0, 2, 1.0)], "cycle"),
            # n - 1 edges: a cycle beside an isolated node; a walk that skips
            # only the parent would go round the cycle forever
            ([0, 1, 2, 3], [(0, 1, 1.0), (1, 2, 1.0), (0, 2, 1.0)], "disconnected"),
        ],
    )
    def test_error_codes(self, ids, edges, code):
        with pytest.raises(trees.TreeError) as err:
            trees.WeightedTree(ids, edges)
        assert err.value.code == code


class TestGenerators:
    def test_binary_counts(self):
        """Complete binary tree of depth k: 2^{k+1}-1 nodes, 2^k leaves."""
        for k in (1, 2, 4, 6):
            t = trees.gen_binary(k)
            assert t.n_nodes == 2 ** (k + 1) - 1
            assert len(trees.leaves(t)) == 2**k
            assert len(t.edges) == t.n_nodes - 1

    def test_ternary_counts(self):
        for k in (1, 2, 3):
            t = trees.gen_ternary(k)
            assert t.n_nodes == (3 ** (k + 1) - 1) // 2
            assert len(trees.leaves(t)) == 3**k

    def test_binary_depth_by_hops(self):
        """Unit weights: root-to-leaf distance equals the depth."""
        t = trees.gen_binary(5)
        m = trees.tree_metric(t)
        dists = [m.dist(0, leaf) for leaf in trees.leaves(t)]
        assert set(dists) == {5.0}

    def test_spider_counts_and_metric(self):
        t = trees.gen_spider(8, leg_length=2)
        assert t.n_nodes == 17
        assert len(trees.leaves(t)) == 8
        assert sum(0 in (u, v) for u, v, _ in t.edges) == 8
        m = trees.tree_metric(t)
        tips = trees.leaves(t)
        assert m.dist(0, tips[0]) == 2.0
        assert m.dist(tips[0], tips[1]) == 4.0

    def test_spider_single_edge_legs(self):
        t = trees.gen_spider(3, leg_length=1)
        assert t.n_nodes == 4
        assert len(trees.leaves(t)) == 3

    def test_random_trees_are_valid_and_deterministic(self):
        for n in (1, 2, 3, 17, 200):
            a = trees.gen_random(n, seed=5)
            b = trees.gen_random(n, seed=5)
            assert a.edges == b.edges
            assert a.n_nodes == n

    def test_random_seed_sweep_hits_distinct_trees(self):
        shapes = {tuple(sorted((u, v) for u, v, _ in trees.gen_random(5, s).edges)) for s in range(50)}
        assert len(shapes) >= 10


class TestMetric:
    def test_against_dijkstra_oracle(self):
        cases = [random_weighted_tree(n, seed) for n, seed in ((2, 0), (17, 3), (63, 4), (200, 5))]
        # a deep path, with the first (DFS root) node a leaf at either end
        cases += [weighted_path(2000, 6), weighted_path(2000, 6, reverse=True)]
        for t in cases:
            got = trees.tree_metric(t).matrix
            assert_allclose(got, dijkstra_oracle(t), rtol=1e-12, atol=1e-12)

    def test_symmetric_zero_diagonal(self):
        t = random_weighted_tree(40, 9)
        m = trees.tree_metric(t).matrix
        assert_allclose(m, m.T, rtol=0, atol=0)
        assert np.all(np.diag(m) == 0.0)

    def test_four_point_condition(self):
        """Of the three pair sums, the largest two coincide (tree metric)."""
        t = random_weighted_tree(60, 11)
        m = trees.tree_metric(t).matrix
        for _ in range(200):
            x, y, z, w = RNG.choice(60, size=4, replace=False)
            sums = sorted([m[x, y] + m[z, w], m[x, z] + m[y, w], m[x, w] + m[y, z]])
            assert abs(sums[2] - sums[1]) <= 1e-9

    def test_non_contiguous_ids(self):
        t = trees.WeightedTree([5, 9, 12], [(5, 9, 2.0), (9, 12, 3.0)])
        m = trees.tree_metric(t)
        assert m.dist(5, 12) == 5.0
        assert m.dist(12, 5) == 5.0

    def test_kernel_sweeps_any_given_preorder(self):
        """The kernel takes any DFS preorder: here one that visits neighbors
        by descending index, rooted at nodes other than index 0."""
        t = random_weighted_tree(200, 21)
        index = {i: k for k, i in enumerate(t.node_ids)}
        nbrs = [[] for _ in range(t.n_nodes)]
        for u, v, w in t.edges:
            nbrs[index[u]].append((index[v], w))
            nbrs[index[v]].append((index[u], w))

        def visit(v, p, order, parent, weight):
            order.append(v)
            for c, w in sorted(nbrs[v], reverse=True):
                if c != p:
                    parent.append(v)
                    weight.append(w)
                    visit(c, v, order, parent, weight)

        for root in (17, 199):
            order, parent, weight = [], [], []
            visit(root, -1, order, parent, weight)
            got = kernels.tree_metric_all_pairs(order, parent, weight)
            assert_allclose(got, dijkstra_oracle(t), rtol=1e-12, atol=1e-12)

    def test_tree_keeps_its_metric(self):
        t = random_weighted_tree(30, 14)
        assert t.metric is t.metric
        assert t.metric.ids == tuple(t.node_ids)
        assert_allclose(t.metric.matrix, trees.tree_metric(t).matrix, rtol=0, atol=0)

    def test_single_node(self):
        m = trees.tree_metric(trees.WeightedTree([3], []))
        assert m.matrix.shape == (1, 1)

    def test_dist_reads_matrix_for_every_pair(self):
        base = random_weighted_tree(12, 13)
        ids = [int(i) for i in np.random.default_rng(13).permutation(12) * 7 + 3]
        relabel = dict(zip(base.node_ids, ids))
        t = trees.WeightedTree(ids, [(relabel[u], relabel[v], w) for u, v, w in base.edges])
        m = trees.tree_metric(t)
        for i, u in enumerate(t.node_ids):
            for j, v in enumerate(t.node_ids):
                assert m.dist(u, v) == m.matrix[i, j]


class TestCentroidLeavesDegree:
    def test_path_centroid_is_middle(self):
        t = trees.WeightedTree(list(range(5)), [(i, i + 1, 1.0) for i in range(4)])
        assert trees.centroid(t) == 2

    def test_complete_binary_centroid_is_root(self):
        assert trees.centroid(trees.gen_binary(4)) == 0

    def test_centroid_against_brute_force(self):
        """Removing the centroid leaves the smallest largest component (ties:
        smallest id), on random trees with permuted, non-contiguous ids."""
        for seed in range(30):
            rng = np.random.default_rng(100 + seed)
            n = int(rng.integers(1, 60))
            base = trees.gen_random(n, seed)
            ids = [int(i) for i in rng.permutation(n) * 7 + 3]
            t = trees.WeightedTree([ids[k] for k in rng.permutation(n)],
                                   [(ids[u], ids[v], w) for u, v, w in base.edges])

            def largest_left(v):
                keep = [i for i in t.node_ids if i != v]
                if not keep:
                    return 0
                sub = {i: k for k, i in enumerate(keep)}
                rows = [sub[a] for a, b, _ in t.edges if v not in (a, b)]
                cols = [sub[b] for a, b, _ in t.edges if v not in (a, b)]
                graph = csr_matrix((np.ones(len(rows)), (rows, cols)), shape=(n - 1, n - 1))
                _, label = connected_components(graph, directed=False)
                return int(np.bincount(label).max())

            want = min(t.node_ids, key=lambda v: (largest_left(v), v))
            assert trees.centroid(t) == want, seed

    def test_star_leaves(self):
        star = trees.WeightedTree(list(range(5)), [(0, i, 1.0) for i in range(1, 5)])
        assert trees.leaves(star) == [1, 2, 3, 4]
        assert trees.centroid(star) == 0


class TestSpringLayout:
    def test_deterministic(self):
        t1 = trees.gen_binary(4)
        t2 = trees.gen_binary(4)
        a = trees.spring_layout(t1, seed=3)
        b = trees.spring_layout(t2, seed=3)
        for i in t1.node_ids:
            assert np.array_equal(a[i], b[i])

    def test_seed_changes_layout(self):
        t = trees.gen_binary(3)
        a = trees.spring_layout(t, seed=1)
        b = trees.spring_layout(t, seed=2)
        assert any(not np.array_equal(a[i], b[i]) for i in t.node_ids)

    def test_writes_coords_onto_tree(self):
        t = trees.gen_binary(3)
        assert t.n_dim == 0
        trees.spring_layout(t, dim=4, seed=0)
        assert t.n_dim == 4
        assert set(t.coords) == set(t.node_ids)

    def test_no_duplicate_coordinates_up_to_1000_nodes(self):
        t = trees.gen_random(1000, seed=12)
        layout = trees.spring_layout(t, seed=12)
        pts = np.array([layout[i] for i in t.node_ids])
        assert np.unique(pts, axis=0).shape[0] == 1000

    def test_single_node(self):
        t = trees.WeightedTree([0], [])
        layout = trees.spring_layout(t, seed=0)
        assert layout[0].shape == (2,)


class TestJson:
    def test_round_trip_bit_exact(self, tmp_path):
        t = random_weighted_tree(23, 2)
        trees.spring_layout(t, seed=4)
        path = tmp_path / "tree.json"
        trees.save_tree(t, path)
        back = trees.load_tree(path)
        assert back.node_ids == t.node_ids
        assert back.edges == t.edges
        for i in t.node_ids:
            assert np.array_equal(back.coords[i], t.coords[i])

    def test_schema_fields(self, tmp_path):
        import json

        t = trees.gen_binary(1)
        path = tmp_path / "t.json"
        trees.save_tree(t, path)
        d = json.loads(path.read_text())
        assert set(d) == {"n_dim", "nodes", "edges"}
        assert d["n_dim"] == 0
        assert {"id", "coords"} == set(d["nodes"][0])
        assert {"u", "v", "w"} == set(d["edges"][0])

    def test_save_is_deterministic(self, tmp_path):
        t = random_weighted_tree(23, 2)
        trees.spring_layout(t, seed=4)
        p1, p2 = tmp_path / "a.json", tmp_path / "b.json"
        trees.save_tree(t, p1)
        trees.save_tree(t, p2)
        assert p1.read_bytes() == p2.read_bytes()
