"""Weighted trees: validation, metrics, generators, spring layout, JSON I/O.

The spring layout is the grid variant of Fruchterman & Reingold (1991):
nodes repel only within 2k. A step reads a list of the pairs closer than
3k (``kernels.near_pairs``, which walks the strips of the nodes sorted by
their first coordinate), not all pairs, and the list serves several steps:
it is a Verlet list, rebuilt before the nodes could have moved a pair from
beyond 3k to within 2k (``kernels.fr_step``).

A tree is nodes with integer ids (plus optional Euclidean coordinates used
as network inputs) and positively weighted undirected edges, with exactly
|V| - 1 edges and one connected component. The all-pairs path metric, the
n x n matrix of weighted path lengths, is built once per tree (``metric``).
``layout`` reads the coordinates as rows in node order. Tree files are
type-checked field by field.
"""

from __future__ import annotations

import heapq
import json
import math
from dataclasses import dataclass, field
from functools import cached_property

import numpy as np

from . import kernels


class TreeError(ValueError):
    """Tree validation failure; ``code`` names the violated rule."""

    def __init__(self, code: str, message: str):
        super().__init__(f"{code}: {message}")
        self.code = code


@dataclass
class WeightedTree:
    """Nodes with ids (and optional coords) plus weighted edges.

    Ids and edges are fixed once validated (``spring_layout`` writes only
    coords), so ``metric``, ``tree_metric(self)``, is built once and kept.
    """

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

    @cached_property
    def metric(self) -> TreeMetric:
        return tree_metric(self)

    def layout(self) -> np.ndarray:
        """The layout coordinates, one row per node in node order. Raises
        TreeError ``missing_coords`` naming up to three nodes that have none."""
        missing = [i for i in self.node_ids if i not in self.coords]
        if missing:
            raise TreeError("missing_coords", f"tree nodes lack layout coordinates: {missing[:3]}")
        return np.array([self.coords[i] for i in self.node_ids], dtype=np.float64)

    def adjacency(self) -> dict[int, list[tuple[int, float]]]:
        adj: dict[int, list[tuple[int, float]]] = {i: [] for i in self.node_ids}
        for u, v, w in self.edges:
            adj[u].append((v, w))
            adj[v].append((u, w))
        return adj


def _preorder(adj: dict, root: int) -> tuple[list, dict]:
    """Depth-first preorder of the nodes reachable from ``root`` in ``adj``,
    and up[v] = (parent, edge weight) for each of them but the root.

    Each subtree is one contiguous run of the order. Neighbors are pushed in
    adjacency order and popped last-in, first-out. A node is marked when it
    is pushed, so the walk ends on any graph, cycles included.
    """
    order, up, stack = [], {}, [root]
    while stack:
        v = stack.pop()
        order.append(v)
        for nbr, w in adj[v]:
            if nbr != root and nbr not in up:
                up[nbr] = (v, w)
                stack.append(nbr)
    return order, up


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
        if not (w > 0.0 and math.isfinite(w)):  # w is a float (``__post_init__``)
            raise TreeError("nonpositive_weight", f"edge {key} has weight {w}")
    lengths = set()
    for i, c in t.coords.items():
        if i not in idset:
            raise TreeError("unknown_endpoint", f"coords for missing node {i}")
        if c.ndim != 1:
            raise TreeError("bad_coords", f"coords for node {i} are not a vector")
        if not np.all(np.isfinite(c)):
            raise TreeError("nonfinite_coords", f"coords for node {i} are not finite")
        lengths.add(c.size)
    if len(lengths) > 1:
        raise TreeError("coord_length_mismatch", f"coords have lengths {sorted(lengths)}")
    # connected iff the walk from the first node reaches every node; then the
    # edge count separates cycle from forest
    reached, _ = _preorder(t.adjacency(), ids[0])
    if len(reached) != len(ids):
        raise TreeError("disconnected", f"only {len(reached)} of {len(ids)} nodes reachable")
    if len(t.edges) != len(ids) - 1:
        raise TreeError("cycle", f"{len(t.edges)} edges on {len(ids)} connected nodes")


@dataclass(frozen=True)
class TreeMetric:
    """All-pairs weighted path distances plus the id -> row/col mapping."""

    ids: tuple[int, ...]
    matrix: np.ndarray

    @cached_property
    def index(self) -> dict[int, int]:
        return {i: k for k, i in enumerate(self.ids)}

    def dist(self, u: int, v: int) -> float:
        idx = self.index
        return float(self.matrix[idx[u], idx[v]])


def tree_metric(t: WeightedTree) -> TreeMetric:
    """O(n^2) all-pairs metric (two additive sweeps over a DFS preorder),
    built in place: the matrix is the only n x n array."""
    index = {i: k for k, i in enumerate(t.node_ids)}
    order, up = _preorder(t.adjacency(), t.node_ids[0])
    mat = kernels.tree_metric_all_pairs([index[v] for v in order],
                                        [index[up[v][0]] for v in order[1:]],
                                        [up[v][1] for v in order[1:]])
    # the sweeps sum a path in opposite orders; make d(u,v) == d(v,u) exact
    kernels._mirror_lower(mat)
    mat.setflags(write=False)
    return TreeMetric(tuple(t.node_ids), mat)


def leaves(t: WeightedTree) -> list[int]:
    """Nodes of degree <= 1 (a single isolated root counts as a leaf)."""
    return [i for i, nbrs in t.adjacency().items() if len(nbrs) <= 1]


def centroid(t: WeightedTree) -> int:
    """Node minimizing the largest component left by its removal (ties: min id)."""
    n = t.n_nodes
    order, up = _preorder(t.adjacency(), t.node_ids[0])
    size = dict.fromkeys(order, 1)
    for v in reversed(order[1:]):
        size[up[v][0]] += size[v]
    # removing v leaves the n - size[v] nodes above it and each child's subtree
    worst = {v: n - size[v] for v in order}
    for v in order[1:]:
        worst[up[v][0]] = max(worst[up[v][0]], size[v])
    return min(order, key=lambda v: (worst[v], v))


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
    seq = rng.integers(0, n, size=n - 2).tolist()
    deg = (np.bincount(seq, minlength=n) + 1).tolist()
    edges = []
    # classic decode: repeatedly join the smallest leaf to the next code entry,
    # on Python ints, which decode about twice as fast as numpy scalars
    leafheap = [i for i in range(n) if deg[i] == 1]
    heapq.heapify(leafheap)
    for s in seq:
        leaf = heapq.heappop(leafheap)
        edges.append((min(leaf, s), max(leaf, s), 1.0))
        deg[s] -= 1
        if deg[s] == 1:
            heapq.heappush(leafheap, s)
    u = heapq.heappop(leafheap)
    v = heapq.heappop(leafheap)
    edges.append((min(u, v), max(u, v), 1.0))
    return WeightedTree(list(range(n)), edges)


# ----------------------------------------------------------------------
# Spring layout (Fruchterman-Reingold)
# ----------------------------------------------------------------------

def spring_layout(t: WeightedTree, dim: int = 2, seed: int = 0) -> dict[int, np.ndarray]:
    """Force-directed node coordinates in R^dim; deterministic given the seed.

    Fruchterman & Reingold's grid variant: k = sqrt(area/n) with unit
    area, repulsion k^2/d between the pairs closer than 2k (the cutoff read
    on the rounded squared distance), attraction d^2/k along edges, 50
    iterations with the displacement capped by the temperature
    t_i = t_0 (1 - i/50), t_0 = 0.1 k, positions seeded uniformly in the
    unit square. Coordinates are written back onto the tree's nodes and
    also returned.

    The steps share a list of near pairs, a Verlet list
    (``kernels.near_pairs``): every pair closer than 3k, the cutoff 2k plus
    a margin k. A step moves each node by at most its temperature, so a
    pair's distance has shrunk by at most 2 sum t since the list was built,
    and the list holds every pair closer than 2k while that stays below the
    margin. It is rebuilt before any step where it might not, with a
    relative allowance of 1e-9 for rounding: over 50 steps, coordinates of
    a few units round by less than 1e-14 in all, below 1e-9 k for any n up
    to 1e9. The rule reads only the temperatures, fixed fractions of k, so
    every layout rebuilds before the same steps: 0, 6, 13, 21 and 32.
    """
    n = t.n_nodes
    rng = np.random.default_rng(seed)
    pos = rng.uniform(0.0, 1.0, size=(n, dim))
    if n > 1:
        index = {i: k for k, i in enumerate(t.node_ids)}
        eu, ev = np.array([(index[u], index[v]) for u, v, _ in t.edges]).T
        k = float(np.sqrt(1.0 / n))
        t0 = 0.1 * k
        moved = math.inf  # sum of the temperatures since the list was built
        for i in range(50):
            if 2.0 * moved * (1.0 + 1e-9) > k:
                pairs = None  # so that the old list is not held beside the walk
                pairs, moved = kernels.near_pairs(pos, 3.0 * k), 0.0
            temp = t0 * (1.0 - i / 50)
            pos = kernels.fr_step(pos, pairs, eu, ev, k, temp)
            moved += temp
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


def _typed(value, kinds, what: str):
    """``value`` if it is of ``kinds`` and no bool (JSON's true/false); TreeError otherwise."""
    if isinstance(value, bool) or not isinstance(value, kinds):
        raise TreeError("bad_type", f"{what}, got {value!r}")
    return value


def _field(obj, key: str, what: str):
    """``obj[key]``; TreeError naming ``what`` when it is no JSON object or lacks ``key``."""
    if not isinstance(obj, dict):
        raise TreeError("bad_type", f"{what} must be a JSON object, got {type(obj).__name__}")
    if key not in obj:
        raise TreeError("missing_key", f'{what} lacks "{key}"')
    return obj[key]


def tree_from_dict(d: dict) -> WeightedTree:
    nodes = _typed(_field(d, "nodes", "tree file"), list, "nodes must be a list")
    edges = _typed(_field(d, "edges", "tree file"), list, "edges must be a list")
    ids = [_typed(_field(n, "id", f"node {k}"), int, "node ids must be integers")
           for k, n in enumerate(nodes)]
    coords = {}
    for k, (i, n) in enumerate(zip(ids, nodes)):
        c = _typed(_field(n, "coords", f"node {k}"), list, f"coords of node {i} must be a list")
        if c:
            coords[i] = [_typed(x, (int, float), f"coords of node {i} must be numbers") for x in c]
    edges = [(_typed(_field(e, "u", f"edge {k}"), int, "edge endpoints must be integers"),
              _typed(_field(e, "v", f"edge {k}"), int, "edge endpoints must be integers"),
              _typed(_field(e, "w", f"edge {k}"), (int, float), "edge weights must be numbers"))
             for k, e in enumerate(edges)]
    return WeightedTree(ids, edges, coords)


def save_tree(t: WeightedTree, path) -> None:
    with open(path, "w") as fh:
        json.dump(tree_to_dict(t), fh, indent=1)
        fh.write("\n")


def load_tree(path) -> WeightedTree:
    with open(path) as fh:
        return tree_from_dict(json.load(fh))
