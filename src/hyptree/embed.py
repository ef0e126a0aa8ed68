"""Low-distortion tree embeddings into the hyperbolic plane.

The construction roots the tree at a centroid and walks outward, placing
each child at distance ``tau * w(edge)`` from its parent along a direction
obtained by splitting the full angle at the parent evenly among its
neighbors (the parent's own incoming direction occupies one slot). As tau
grows, geodesics between the images of far-apart nodes hug the tree paths
more and more tightly, so the metric distortion under the rescaled
distance d_{-1}/tau falls toward 1.

Only the edge lengths depend on tau. The frames and the directed-edge table
with each edge's successors and turns are built once per tree, with no
scale, and an embedding is that frame and tau.

Numerics are the whole game at large scale. Ambient hyperboloid
coordinates grow like cosh(tau * depth), and beyond radius ~35 float64
spacing exceeds the angular separation of nearby images, so coordinates
alone cannot support distance evaluation. Distances are therefore evaluated
on the frame: every source walks outward over the tree at once, one hop per
step, and each (source, node) pair gets its distance and back-bearing to the
source from its predecessor's in one hyperbolic law-of-cosines step
(``kernels.triangle_step``). It takes the half-angle split of the HNN head,
sinh^2(c/2) = sinh^2((d - l)/2) + sinh d sinh l sin^2(theta/2), in log
space, so short sides keep their relative accuracy too. Ambient coordinates
are formed on first use, for output and small-scale work, from the root's
walk, which also carries each node's bearing at the root; the evaluator
never reads them. So an embedding exists at any tau: the overflow cap is
checked only where ambient coordinates are formed, in ``points``.

The curvature scan builds the frame once and walks every source only for a
scale it may accept. It first walks a few probe rows, and one entry of
theirs that the full check would hold, out of bounds on the same float
quotient, rejects the scale. A scale whose probes find no such entry gets
the full check, so every decision is the full check's. That check reduces
each block of walked rows against tau * d_T through the distortion
reduction that training uses, ``kernels.block_ratio_bounds``, so it holds
no n x n array besides the metric. Embeddings and realized networks are
written as JSON and not read back.
"""

from __future__ import annotations

import json
import math
from dataclasses import dataclass, field
from functools import cached_property

import numpy as np

from . import kernels
from .hypgeom import Curvature, HPoint, OVERFLOW_CAP, OverflowGuardError
from .networks import HnnParams, memorize_hnn
from .trees import TreeMetric, WeightedTree, _preorder, centroid

_TWO_PI = 2.0 * math.pi


class EmbedError(ValueError):
    """Embedding construction or curvature search failure."""


# ----------------------------------------------------------------------
# The construction
# ----------------------------------------------------------------------

def _ranges(first, count):
    """Concatenated ranges first[i] .. first[i] + count[i] - 1, with the i of each entry."""
    owner = np.repeat(np.arange(len(count)), count)
    return owner, np.arange(len(owner)) + (first - np.cumsum(count) + count)[owner]


@dataclass(frozen=True)
class _Frame:
    """The construction of one tree at no particular scale.

    Nodes are numbered by their place in ``ids``, the tree's node order. The
    root is node ``root``, the centroid. Each node's frame puts its neighbors
    at exact multiples of 2*pi/deg: at the root the sorted neighbors from 0,
    elsewhere the parent at 0 and the sorted children after it.

    The directed edges are grouped by tail: node k's out-edges are
    start[k] .. start[k + 1] - 1, and edge j ends at node head[j] over weight
    edge_w[j], leaving its tail at angle edge_angle[j] of the tail's frame.
    The successors of edge a->b are the edges b->c with c != a, at
    succ_ptr[j] .. succ_ptr[j + 1] - 1 of succ_edge, each with its turn at b:
    the signed angle from the ray toward a to the ray toward c.
    """

    ids: tuple
    index: dict
    root: int
    start: np.ndarray
    head: np.ndarray
    edge_w: np.ndarray
    edge_angle: np.ndarray
    succ_ptr: np.ndarray
    succ_edge: np.ndarray
    succ_turn: np.ndarray


def _frame(t: WeightedTree) -> _Frame:
    """The tree's frames and directed-edge table, oriented by the preorder from its centroid."""
    ids = tuple(t.node_ids)
    index = {v: k for k, v in enumerate(ids)}
    adj = t.adjacency()
    root = centroid(t)
    _, up = _preorder(adj, root)
    # ring[v]: v's (neighbor, weight) in frame order, the edge up to its parent first
    ring = {v: sorted(adj[v], key=lambda nb, v=v: (nb != up.get(v), nb)) for v in ids}
    angle = {(a, b): _TWO_PI * j / len(ring[a]) for a in ids for j, (b, _) in enumerate(ring[a])}

    edge_id = {ab: j for j, ab in enumerate(angle)}
    head = np.array([index[b] for _, b in angle], np.intp)
    edge_angle = np.array(list(angle.values()))
    rev = np.array([edge_id[b, a] for a, b in angle], np.intp)
    start = np.cumsum([0] + [len(ring[a]) for a in ids])
    # every out-edge of b is a candidate successor of a->b, except b->a
    count = start[head + 1] - start[head]
    j, cand = _ranges(start[head], count)
    keep = cand != rev[j]
    return _Frame(
        ids=ids,
        index=index,
        root=index[root],
        start=start,
        head=head,
        edge_w=np.array([w for a in ids for _, w in ring[a]]),
        edge_angle=edge_angle,
        succ_ptr=np.concatenate([[0], np.cumsum(count - 1)]),
        succ_edge=cand[keep],
        succ_turn=kernels.wrap_angle(edge_angle[cand[keep]] - edge_angle[rev[j[keep]]]),
    )


def _walk(f: _Frame, length, src, out, bearing=None) -> None:
    """Walk from the nodes src together over the frame's directed edges, one hop per step.

    Edge j has length length[j]. Row i of ``out`` gets d_{-1} from the image
    of node src[i] to that of every node, one column per node in ``f.ids``
    order. The state of (source, directed edge a->b) is the distance from the
    source to b and the signed angle at b from the ray back to a to the ray
    toward the source; one ``kernels.triangle_step`` call gives every next
    hop's state. Given ``bearing``, row i of it gets each node's bearing at
    src[i]: the slot angle of the first edge, turned at each hop by the
    triangle's angle at the source.
    """
    row, edge = _ranges(f.start[src], f.start[src + 1] - f.start[src])
    dist, back = length[edge], np.zeros(len(edge))
    at = None if bearing is None else f.edge_angle[edge]
    while edge.size:
        out[row, f.head[edge]] = dist
        if at is not None:
            bearing[row, f.head[edge]] = at
        prev, pos = _ranges(f.succ_ptr[edge], f.succ_ptr[edge + 1] - f.succ_ptr[edge])
        # signed angle at the edge's head from the ray ahead to the ray toward the source
        psi = kernels.wrap_angle(back[prev] - f.succ_turn[pos])
        row, edge, dist = row[prev], f.succ_edge[pos], dist[prev]
        if at is not None:
            at = at[prev]
        del prev, pos, back
        dist, back, turn = kernels.triangle_step(dist, length[edge], psi)
        if at is not None:
            at = kernels.wrap_angle(at + turn)


@dataclass(frozen=True, eq=False)
class HyperbolicEmbedding:
    """A tree's frame placed on H^2 at scale tau: edges are tau times the
    tree's weights, and the root sits at the apex.

    ``kappa`` = -tau^2 is the curvature under which tree units are recovered
    (d_kappa = d_{-1}/tau). ``points``, the unit-curvature ambient
    coordinates in the tree's node order (``node_ids()``), are formed on
    first use from the root's walk, which gives each node's distance from
    the root and bearing at the root; the distance evaluator never reads
    them. Past a walked radius of 350, beyond the walk's rounding, they raise
    OverflowGuardError before any sinh or cosh is formed.
    """

    frame: _Frame = field(repr=False)
    tau: float

    @property
    def kappa(self) -> Curvature:
        return Curvature.from_scale(self.tau)

    def node_ids(self) -> list:
        return list(self.frame.ids)

    @cached_property
    def points(self) -> dict:
        f = self.frame
        r, bearing = np.zeros((2, 1, len(f.ids)))
        _walk(f, self.tau * f.edge_w, np.array([f.root]), r, bearing)
        # the walk rounds each hop, so a radius can pass the scan's stop, tau * ecc, by a
        # few ulps (350.00000000000006 on a path of 40 hops of 17.5); the cap allows that
        radius = float(r.max())
        if radius > OVERFLOW_CAP * (1.0 + 1e-9):
            raise OverflowGuardError(f"tau {self.tau:g} puts nodes at radius {radius:.1f} > "
                                     f"{OVERFLOW_CAP:g}; reduce tau")
        points = {}
        for v, rv, b in zip(f.ids, r[0].tolist(), bearing[0].tolist()):
            sr = math.sinh(rv)
            points[v] = HPoint(np.array([sr * math.cos(b), sr * math.sin(b), math.cosh(rv)]))
        return points


def sarkar_embed(t: WeightedTree, tau: float) -> HyperbolicEmbedding:
    """Place the tree in H^2 at unit curvature, edge lengths tau * w, any tau > 0.

    The root sits at the apex. Every child goes at exact geodesic
    distance tau * w from its parent, rotated from the parent's incoming
    direction by an exact multiple of 2*pi/deg. The embedding is the frame
    and tau; its ``points`` raise OverflowGuardError past the overflow cap.
    """
    if not tau > 0.0:
        raise EmbedError("tau must be positive")
    return HyperbolicEmbedding(_frame(t), tau)


def _sources_per_block(n: int) -> int:
    """Sources that walk together over n nodes: a block of b sources holds at
    most b * n states in one hop (on a star, almost every ordered pair), so
    n / 4 sources keep each hop's temporaries to a few n^2 / 4 floats."""
    return -(-n // 4)


def embedding_distance(e: HyperbolicEmbedding, sources) -> np.ndarray:
    """d_{-1} from the image of each source to the image of every node.

    Row i holds the distances from sources[i], one column per node in
    ``e.node_ids()`` order. Each block of sources walks the frame together
    (``_walk``), so accuracy does not degrade with scale the way ambient
    coordinates do. Raises EmbedError on a non-finite distance.
    """
    f = e.frame
    src = np.array([f.index[u] for u in sources], np.intp)
    length = e.tau * f.edge_w
    out = np.zeros((len(src), len(f.ids)))
    step = _sources_per_block(len(f.ids))
    for lo in range(0, len(src), step):
        _walk(f, length, src[lo : lo + step], out[lo : lo + step])
    if not np.isfinite(out).all():
        raise EmbedError("embedding distance is not finite; check the edge lengths")
    return out


def embedding_distance_matrix(e: HyperbolicEmbedding, ids=None) -> np.ndarray:
    """Symmetric matrix of d_{-1} over ``ids`` (default: all nodes, in ``e.node_ids()`` order).

    Row i comes from the walk of ids[i] and fills the entries j > i; the
    rest is its mirror image, so the matrix is exactly symmetric. The walk's
    columns are in node order, so they are gathered only for other ``ids``,
    and the mirror is made in place: the walk's output is the only n x n
    array when ``ids`` is the node order.
    """
    ids = list(ids) if ids is not None else e.node_ids()
    mat = embedding_distance(e, ids)
    if ids != e.node_ids():
        mat = mat[:, [e.frame.index[v] for v in ids]]
    kernels._mirror_lower(mat.T)
    return mat


# ----------------------------------------------------------------------
# Curvature selection
# ----------------------------------------------------------------------

DEFAULT_TAU_GRID = (1.0, 2.0, 4.0, 8.0, 16.0, 32.0, 64.0, 128.0, 256.0)


def _probe_witness(record: HyperbolicEmbedding, metric, lam: float, sources):
    """A pair (i, j), i < j, of rows of ``metric`` whose ratio fails the bound.

    Walks only the given source rows; the walk's columns are the tree's node
    order, as are the metric's. Entry (i, j) of the full check is the walk
    of ids[i] at column j, divided by tau * d_T as ``_full_check`` divides
    it, so a source's row counts as it is at columns j > i. At j < i the
    entry comes from the walk of ids[j]: each source's worst such column is
    walked next, and its row counts the same way. Returns None when no
    walked entry fails.
    """
    ids = metric.ids
    cols = np.arange(len(ids))
    src = sorted(sources)
    for _ in range(2):  # the probe rows, then the rows that confirm their hits at j < i
        src = np.array(src, np.intp)
        rows = embedding_distance(record, [ids[i] for i in src])
        off = cols != src[:, None]
        ratio = np.divide(rows, record.tau * metric.matrix[src], out=np.ones(rows.shape),
                          where=off)
        bad = ~((ratio >= 1.0 / lam) & (ratio <= lam))
        hits = np.flatnonzero(bad & (cols > src[:, None]))
        if hits.size:
            k, j = np.unravel_index(hits[np.argmin(ratio.flat[hits])], bad.shape)
            return int(src[k]), int(j)
        below = bad & (cols < src[:, None])
        worst_below = np.argmin(np.where(below, ratio, np.inf), axis=1)
        src = sorted(set(worst_below[below.any(axis=1)].tolist()))
        if not src:
            break
    return None


def _full_check(record: HyperbolicEmbedding, metric: TreeMetric) -> kernels.DistortionReport:
    """The report of d_{-1} / (tau d_T) over every pair i < j: each block of
    sources in node order walks, and its rows [lo, hi) at the columns [lo, n)
    go straight to ``kernels.block_ratio_bounds``, which divides them by
    tau * d_T, so no n x n array of walked or scaled distances is formed."""
    ids, n = metric.ids, len(metric.ids)
    step = _sources_per_block(n)
    blocks = ((lo, min(lo + step, n), embedding_distance(record, ids[lo : lo + step])[:, lo:])
              for lo in range(0, n, step))
    return kernels.block_ratio_bounds(blocks, metric.matrix, record.tau)


def choose_curvature(t: WeightedTree, lam: float):
    """Smallest grid scale whose embedding meets the two-sided bound.

    For each tau (ascending) the tree is embedded at unit curvature and
    judged under kappa = -tau^2, i.e. distances d_{-1}/tau against tree
    units: accepted iff (1/lam) d_T <= d_kappa <= lam * d_T on every
    pair. Tighter lam forces larger tau, hence more negative curvature.

    A tau is rejected on a few probe rows first: the centroid and the node
    farthest from it (the ends of a longest path from the centroid), and
    the pair that rejected the previous tau. One out-of-bounds entry that
    the full check would hold, on the same float quotient, rejects it, so
    NaN and 0 reject as they do there. Only a tau with no such witness
    walks every source, so each decision is exactly the full check's.
    The full check (``_full_check``) reduces each block of walked rows as
    it comes; when no tau is accepted, the best distortion comes from full
    checks of the rejected ones, none twice. The tree's frame is built once
    and walked at each tau, and no ambient point is formed until the caller
    reads the returned embedding's. Pairs are judged against the tree's own
    metric, ``t.metric``, built once per tree.

    The scan stops at the first tau that puts the centroid's row of the
    metric past the overflow cap; that bounds every walked radius.

    Returns (embedding, curvature, report). Raises EmbedError if no scale
    meets the bound: with the best achieved distortion whenever some scale
    was evaluated, and with the scale and radius that stopped the scan when
    one passed the overflow cap.
    """
    if not lam > 1.0:
        raise EmbedError("lambda must exceed 1")
    metric = t.metric
    if len(metric.ids) < 2:
        raise EmbedError("need at least two nodes")
    frame = _frame(t)
    end = int(np.argmax(metric.matrix[frame.root]))
    ecc = metric.matrix[frame.root, end]
    ends = {frame.root, end}
    rejected, witness, capped = [], (), None
    for tau in DEFAULT_TAU_GRID:
        if tau * ecc > OVERFLOW_CAP:
            capped = (f"tau={tau:g} hit the overflow cap: "
                      f"radius {tau * ecc:.1f} > {OVERFLOW_CAP:g}")
            break
        record = HyperbolicEmbedding(frame, tau)
        witness = _probe_witness(record, metric, lam, ends.union(witness)) or ()
        report = None if witness else _full_check(record, metric)
        if report and report.alpha >= 1.0 / lam and report.beta <= lam:
            return record, record.kappa, report
        rejected.append((record, report))
    reasons = [f"no grid scale met lambda={lam:g}"]
    best = None
    for record, report in rejected:
        report = report or _full_check(record, metric)  # once for each tau the probes rejected
        if best is None or report.dist < best[0]:
            best = (report.dist, record.tau)
    if best is not None:
        reasons.append(f"best distortion {best[0]:.6g} at tau={best[1]:g}")
    if capped:
        reasons.append(capped)
    raise EmbedError("; ".join(reasons))


# ----------------------------------------------------------------------
# Realizing an embedding as a network
# ----------------------------------------------------------------------

def hnn_realize(e: HyperbolicEmbedding, t: WeightedTree, seed: int = 0) -> HnnParams:
    """Network that maps each node's layout coordinates to its image.

    Exact interpolation of the embedding's ambient points from the layout
    rows, both in node order, so in exact arithmetic the network inherits
    the embedding's distortion. Raises EmbedError when the embedding's frame
    lacks a node of the tree, before any point is formed; TreeError
    ``missing_coords`` when the tree lacks a layout; and NetworkError when
    two nodes share coordinates or no seeded direction separates them. The
    targets are the embedding's ``points``, so on a matching tree a tau past
    the overflow cap raises OverflowGuardError there. Nothing evaluates the
    realized network: beyond r ~ 35 float64 ambient targets cannot separate
    nearby images (ROADMAP item 1).
    """
    missing = [v for v in t.node_ids if v not in e.frame.index]
    if missing:
        raise EmbedError(f"embedding is missing nodes {missing[:3]}")
    return memorize_hnn(t.layout(), [e.points[v] for v in t.node_ids], seed=seed)


# ----------------------------------------------------------------------
# JSON output
# ----------------------------------------------------------------------

def embedding_to_dict(e: HyperbolicEmbedding) -> dict:
    return {
        "kappa": e.kappa.kappa,
        "points": {str(v): e.points[v].coords.tolist() for v in sorted(e.points)},
    }


def save_embedding(path, e: HyperbolicEmbedding) -> None:
    doc = embedding_to_dict(e)  # past the overflow cap this raises before any file exists
    with open(path, "w", encoding="utf-8") as fh:
        json.dump(doc, fh, indent=1)
        fh.write("\n")
