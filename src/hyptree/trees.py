"""Weighted trees: validation, metrics, generators, spring layout, JSON I/O.

A tree is nodes with integer ids (plus optional Euclidean coordinates used
as network inputs) and positively weighted undirected edges, with exactly
|V| - 1 edges and one connected component. The all-pairs path metric is the
n x n matrix of weighted path lengths.
"""

from __future__ import annotations

import heapq
import json
from dataclasses import dataclass, field

import numpy as np

from . import kernels


class TreeError(ValueError):
    """Tree validation failure; ``code`` names the violated rule."""

    def __init__(self, code: str, message: str):
        super().__init__(f"{code}: {message}")
        self.code = code


@dataclass
class WeightedTree:
    """Nodes with ids (and optional coords) plus weighted edges."""

    node_ids: list[int]
    edges: list[tuple[int, int, float]]
    coords: dict[int, np.ndarray] = field(default_factory=dict)

    def __post_init__(self):
        self.node_ids = [int(i) for i in self.node_ids]
        self.edges = [(int(u), int(v), float(w)) for u, v, w in self.edges]
        self.coords = {int(i): np.asarray(c, dtype=np.float64) for i, c in self.coords.items()}
        validate_tree(self)

    @property
    def n_nodes(self) -> int:
        return len(self.node_ids)

    @property
    def n_dim(self) -> int:
        if not self.coords:
            return 0
        return next(iter(self.coords.values())).size

    def adjacency(self) -> dict[int, list[tuple[int, float]]]:
        adj: dict[int, list[tuple[int, float]]] = {i: [] for i in self.node_ids}
        for u, v, w in self.edges:
            adj[u].append((v, w))
            adj[v].append((u, w))
        return adj


def validate_tree(t: WeightedTree) -> None:
    """Raise TreeError (with a distinct code) on any structural violation."""
    ids = t.node_ids
    if len(ids) == 0:
        raise TreeError("empty", "a tree needs at least one node")
    if len(set(ids)) != len(ids):
        raise TreeError("duplicate_node", "node ids must be unique")
    idset = set(ids)
    seen = set()
    for u, v, w in t.edges:
        if u not in idset or v not in idset:
            raise TreeError("unknown_endpoint", f"edge ({u},{v}) references a missing node")
        if u == v:
            raise TreeError("self_loop", f"self loop at node {u}")
        key = (min(u, v), max(u, v))
        if key in seen:
            raise TreeError("duplicate_edge", f"edge {key} appears twice")
        seen.add(key)
        if not (w > 0.0 and np.isfinite(w)):
            raise TreeError("nonpositive_weight", f"edge {key} has weight {w}")
    for i, c in t.coords.items():
        if i not in idset:
            raise TreeError("unknown_endpoint", f"coords for missing node {i}")
        if c.ndim != 1:
            raise TreeError("bad_coords", f"coords for node {i} are not a vector")
    # connectivity by BFS, then the edge count separates cycle from forest
    adj: dict[int, list[int]] = {i: [] for i in ids}
    for u, v, _ in t.edges:
        adj[u].append(v)
        adj[v].append(u)
    seen_nodes = {ids[0]}
    frontier = [ids[0]]
    while frontier:
        nxt = []
        for node in frontier:
            for nbr in adj[node]:
                if nbr not in seen_nodes:
                    seen_nodes.add(nbr)
                    nxt.append(nbr)
        frontier = nxt
    if len(seen_nodes) != len(ids):
        raise TreeError("disconnected", f"only {len(seen_nodes)} of {len(ids)} nodes reachable")
    if len(t.edges) != len(ids) - 1:
        raise TreeError("cycle", f"{len(t.edges)} edges on {len(ids)} connected nodes")


@dataclass(frozen=True)
class TreeMetric:
    """All-pairs weighted path distances plus the id -> row/col mapping."""

    ids: tuple[int, ...]
    matrix: np.ndarray

    @property
    def index(self) -> dict[int, int]:
        return {i: k for k, i in enumerate(self.ids)}

    def dist(self, u: int, v: int) -> float:
        idx = self.index
        return float(self.matrix[idx[u], idx[v]])


def _edge_arrays(t: WeightedTree):
    index = {i: k for k, i in enumerate(t.node_ids)}
    m = len(t.edges)
    eu = np.empty(m, np.int64)
    ev = np.empty(m, np.int64)
    w = np.empty(m, np.float64)
    for e, (u, v, wt) in enumerate(t.edges):
        eu[e] = index[u]
        ev[e] = index[v]
        w[e] = wt
    return eu, ev, w


def tree_metric(t: WeightedTree) -> TreeMetric:
    """O(n^2) all-pairs metric (two additive sweeps over a DFS preorder)."""
    eu, ev, w = _edge_arrays(t)
    mat = kernels.tree_metric_all_pairs(eu, ev, w, t.n_nodes)
    lower = np.tril(mat)  # the sweeps sum a path in opposite orders; make d(u,v) == d(v,u) exact
    mat = lower + lower.T
    mat.setflags(write=False)
    return TreeMetric(tuple(t.node_ids), mat)


def leaves(t: WeightedTree) -> list[int]:
    """Nodes of degree <= 1 (a single isolated root counts as a leaf)."""
    deg = {i: 0 for i in t.node_ids}
    for u, v, _ in t.edges:
        deg[u] += 1
        deg[v] += 1
    return [i for i in t.node_ids if deg[i] <= 1]


def centroid(t: WeightedTree) -> int:
    """Node minimizing the largest component left by its removal (ties: min id)."""
    n = t.n_nodes
    if n == 1:
        return t.node_ids[0]
    adj = t.adjacency()
    root = t.node_ids[0]
    order = []
    parent = {root: None}
    stack = [root]
    while stack:
        v = stack.pop()
        order.append(v)
        for nbr, _ in adj[v]:
            if nbr != parent[v]:
                parent[nbr] = v
                stack.append(nbr)
    size = {i: 1 for i in t.node_ids}
    for v in reversed(order):
        if parent[v] is not None:
            size[parent[v]] += size[v]
    best, best_score = None, n + 1
    for v in t.node_ids:
        worst = n - size[v]
        for nbr, _ in adj[v]:
            if nbr != parent[v]:
                worst = max(worst, size[nbr])
        if worst < best_score or (worst == best_score and v < best):
            best, best_score = v, worst
    return best


# ----------------------------------------------------------------------
# Generators
# ----------------------------------------------------------------------

def _gen_bary(branching: int, depth: int) -> WeightedTree:
    if depth < 0:
        raise ValueError("depth must be >= 0")
    n = (branching ** (depth + 1) - 1) // (branching - 1)
    ids = list(range(n))
    edges = [(child, (child - 1) // branching, 1.0) for child in range(1, n)]
    return WeightedTree(ids, [(min(u, v), max(u, v), w) for u, v, w in edges])


def gen_binary(depth: int) -> WeightedTree:
    """Complete binary tree of the given depth, unit weights, 2^depth leaves."""
    return _gen_bary(2, depth)


def gen_ternary(depth: int) -> WeightedTree:
    """Complete ternary tree of the given depth, unit weights, 3^depth leaves."""
    return _gen_bary(3, depth)


def gen_spider(legs: int, leg_length: int = 2) -> WeightedTree:
    """Hub node 0 with ``legs`` unit-weight paths of ``leg_length`` edges each.

    The leaf count equals ``legs`` exactly, which makes these trees the
    controlled family for leaf-count sweeps.
    """
    if legs < 1 or leg_length < 1:
        raise ValueError("legs and leg_length must be >= 1")
    ids = [0]
    edges = []
    nxt = 1
    for _ in range(legs):
        prev = 0
        for _ in range(leg_length):
            ids.append(nxt)
            edges.append((min(prev, nxt), max(prev, nxt), 1.0))
            prev = nxt
            nxt += 1
    return WeightedTree(ids, edges)


def gen_random(n: int, seed: int) -> WeightedTree:
    """Uniform random labelled tree on n nodes (random Pruefer sequence)."""
    if n < 1:
        raise ValueError("n must be >= 1")
    if n == 1:
        return WeightedTree([0], [])
    if n == 2:
        return WeightedTree([0, 1], [(0, 1, 1.0)])
    rng = np.random.default_rng(seed)
    seq = rng.integers(0, n, size=n - 2)
    deg = np.ones(n, np.int64)
    for s in seq:
        deg[s] += 1
    edges = []
    # classic decode: repeatedly join the smallest leaf to the next code entry
    leafheap = [i for i in range(n) if deg[i] == 1]
    heapq.heapify(leafheap)
    for s in seq:
        leaf = heapq.heappop(leafheap)
        edges.append((min(leaf, int(s)), max(leaf, int(s)), 1.0))
        deg[s] -= 1
        if deg[s] == 1:
            heapq.heappush(leafheap, int(s))
    u = heapq.heappop(leafheap)
    v = heapq.heappop(leafheap)
    edges.append((min(u, v), max(u, v), 1.0))
    return WeightedTree(list(range(n)), edges)


# ----------------------------------------------------------------------
# Spring layout (Fruchterman-Reingold)
# ----------------------------------------------------------------------

def spring_layout(t: WeightedTree, dim: int = 2, iterations: int = 50, seed: int = 0) -> dict[int, np.ndarray]:
    """Force-directed node coordinates in R^dim; deterministic given the seed.

    k = sqrt(area/n) with unit area, repulsion k^2/d between all pairs,
    attraction d^2/k along edges, displacement capped by the temperature
    t_i = t_0 (1 - i/iterations) with t_0 = 0.1 k, positions seeded uniformly
    in the unit square. Coordinates are written back onto the tree's nodes
    and also returned.
    """
    n = t.n_nodes
    rng = np.random.default_rng(seed)
    pos = rng.uniform(0.0, 1.0, size=(n, dim))
    if n > 1:
        eu, ev, _ = _edge_arrays(t)
        k = float(np.sqrt(1.0 / n))
        t0 = 0.1 * k
        for i in range(iterations):
            temp = t0 * (1.0 - i / iterations)
            pos = kernels.fr_step(pos, eu, ev, k, temp)
    out = {}
    for row, i in enumerate(t.node_ids):
        vec = np.array(pos[row], copy=True)
        t.coords[i] = vec
        out[i] = vec
    return out


# ----------------------------------------------------------------------
# JSON I/O
# ----------------------------------------------------------------------

def tree_to_dict(t: WeightedTree) -> dict:
    return {
        "n_dim": t.n_dim,
        "nodes": [
            {"id": i, "coords": [float(c) for c in t.coords.get(i, np.empty(0))]}
            for i in t.node_ids
        ],
        "edges": [{"u": u, "v": v, "w": w} for u, v, w in t.edges],
    }


def tree_from_dict(d: dict) -> WeightedTree:
    ids = [n["id"] for n in d["nodes"]]
    coords = {n["id"]: np.asarray(n["coords"], dtype=np.float64) for n in d["nodes"] if n["coords"]}
    edges = [(e["u"], e["v"], e["w"]) for e in d["edges"]]
    return WeightedTree(ids, edges, coords)


def save_tree(t: WeightedTree, path) -> None:
    with open(path, "w") as fh:
        json.dump(tree_to_dict(t), fh, indent=1)
        fh.write("\n")


def load_tree(path) -> WeightedTree:
    with open(path) as fh:
        return tree_from_dict(json.load(fh))
