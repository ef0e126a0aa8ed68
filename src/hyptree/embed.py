"""Low-distortion tree embeddings into the hyperbolic plane.

The construction roots the tree at a centroid and walks outward, placing
each child at distance ``tau * w(edge)`` from its parent along a direction
obtained by splitting the full angle at the parent evenly among its
neighbors (the parent's own incoming direction occupies one slot). As tau
grows, geodesics between the images of far-apart nodes hug the tree paths
more and more tightly, so the metric distortion under the rescaled
distance d_{-1}/tau falls toward 1.

Numerics are the whole game at large scale. Ambient hyperboloid
coordinates grow like cosh(tau * depth), and beyond radius ~35 float64
spacing exceeds the angular separation of nearby images, so coordinates
alone cannot support distance evaluation. The construction therefore
tracks each node intrinsically (distance from the root, bearing at the root,
and exact frame angles at every node) and evaluates distances on that
record: every source walks outward over the tree at once, one hop per step,
and each (source, node) pair gets its distance and back-bearing to the
source from its predecessor's in one hyperbolic law-of-cosines step
evaluated entirely in log space (``kernels.triangle_step``, which also
places the nodes level by level). Ambient coordinates are materialized from
the polar data for interop and small-scale work; the evaluator never reads
them.

The curvature scan walks every source only for a scale it may accept. It
first walks a few probe rows, and one entry of theirs that the full check
would hold, out of bounds on the same float quotient, rejects the scale. A
scale whose probes find no such entry gets the full check, so every
decision is the full check's. Only the accepted scale gets ambient points.
"""

from __future__ import annotations

import json
import math
from dataclasses import dataclass, field, replace

import numpy as np

from . import kernels
from .hypgeom import Curvature, HPoint, OVERFLOW_CAP, OverflowGuardError
from .networks import HnnParams, memorize_hnn
from .trees import WeightedTree, centroid, tree_metric

_TWO_PI = 2.0 * math.pi


class EmbedError(ValueError):
    """Embedding construction or curvature search failure."""


# ----------------------------------------------------------------------
# Distortion accounting
# ----------------------------------------------------------------------

@dataclass(frozen=True)
class DistortionReport:
    """Worst-case shrink (alpha), stretch (beta), and their ratio.

    dist = beta / alpha when the map is injective, +inf otherwise; a map
    that merely rescales every distance has dist exactly 1.
    """

    alpha: float
    beta: float
    dist: float
    injective: bool


def distortion_from_matrices(d_space: np.ndarray, d_tree: np.ndarray) -> DistortionReport:
    """Worst-case ratio d_space/d_tree over the pairs i < j of two dense matrices."""
    if np.shape(d_space)[0] < 2:
        raise EmbedError("distortion needs at least two nodes")
    alpha, beta, injective = kernels.ratio_bounds(
        np.asarray(d_space, np.float64), np.asarray(d_tree, np.float64)
    )
    if not injective or alpha <= 0.0:
        return DistortionReport(alpha, beta, math.inf, False)
    return DistortionReport(alpha, beta, beta / alpha, True)


# ----------------------------------------------------------------------
# The embedding object
# ----------------------------------------------------------------------

@dataclass(frozen=True)
class HyperbolicEmbedding:
    """Node images on H^2 plus the intrinsic construction record.

    ``points`` are unit-curvature ambient coordinates; ``kappa`` is the
    curvature under which tree units are recovered (d_kappa = d_{-1}/tau).
    ``frames``/``parent``/``edge_len`` describe the construction
    intrinsically and power the exact distance evaluator; they are None on
    embeddings loaded from JSON, which carry points only. The curvature
    scan's records carry the construction and no points.
    """

    points: dict
    kappa: Curvature
    tau: float
    root: int | None = None
    parent: dict | None = field(default=None, repr=False)
    edge_len: dict | None = field(default=None, repr=False)
    frames: dict | None = field(default=None, repr=False)

    def node_ids(self) -> list:
        return sorted(self.points if self.parent is None else self.parent)


def _neighbor_frames(t: WeightedTree, root: int) -> tuple[dict, dict, dict]:
    """Per-node direction angles: parent at 0, the rest evenly spaced.

    Returns (frames, parent, edge weight to parent). Frame angles are
    exact multiples of 2*pi/deg, so turn angles carry no construction
    round-off beyond the division itself.
    """
    adj = t.adjacency()
    frames: dict = {}
    parent: dict = {root: None}
    w_up: dict = {}
    order = [root]
    seen = {root}
    for v in order:
        nbrs = sorted(nb for nb, _ in adj[v])
        g = len(nbrs)
        if v == root:
            slots = {nb: _TWO_PI * j / g for j, nb in enumerate(nbrs)} if g else {}
        else:
            kids = [nb for nb in nbrs if nb != parent[v]]
            slots = {parent[v]: 0.0}
            for k, nb in enumerate(kids):
                slots[nb] = _TWO_PI * (k + 1) / g
        frames[v] = slots
        for nb, w in sorted(adj[v]):
            if nb not in seen:
                seen.add(nb)
                parent[nb] = v
                w_up[nb] = w
                order.append(nb)
    return frames, parent, w_up


def _construction(t: WeightedTree, tau: float):
    """The construction record at scale tau, and each node's polar position.

    Returns (record, order, r, bearing): ``record`` is the embedding with no
    ambient points yet, which is all ``embedding_distance`` reads; r and
    bearing give each node's distance from the root and bearing at the
    root, in the BFS order ``order``.
    """
    if tau <= 0.0:
        raise EmbedError("tau must be positive")
    root = centroid(t)
    frames, parent, w_up = _neighbor_frames(t, root)
    # parent lists the nodes in BFS order, so each tree level is one contiguous run
    order = list(parent)
    index = {v: k for k, v in enumerate(order)}
    par = [0] + [index[parent[v]] for v in order[1:]]
    w = [0.0] + [w_up[v] for v in order[1:]]
    hops, depth = [0], [0.0]
    for k in range(1, len(order)):
        hops.append(hops[par[k]] + 1)
        depth.append(depth[par[k]] + w[k])
    ecc = max(depth)
    if tau * ecc > OVERFLOW_CAP:
        raise OverflowGuardError(
            f"tau {tau:g} puts nodes at radius {tau * ecc:.1f} > {OVERFLOW_CAP:g}; "
            "reduce tau"
        )

    # r = distance from the root, bearing = angle at the root, beta = signed
    # angle at the node from the ray back to its parent to the ray toward the
    # root; the root's neighbors sit at r = ell on their slot, with beta = 0
    par, ell = np.array(par), tau * np.array(w)
    slot = np.array([0.0] + [frames[parent[v]][v] for v in order[1:]])
    r, bearing, beta = ell.copy(), slot.copy(), np.zeros(len(order))
    level = np.searchsorted(hops, np.arange(2, hops[-1] + 2))
    for lo, hi in zip(level[:-1], level[1:]):
        p = par[lo:hi]
        # signed angle at the parent from the ray toward the node to the ray toward the root
        theta = kernels.wrap_angle(beta[p] - slot[lo:hi])
        r[lo:hi], beta[lo:hi], turn = kernels.triangle_step(r[p], ell[lo:hi], theta)
        bearing[lo:hi] = kernels.wrap_angle(bearing[p] + turn)

    record = HyperbolicEmbedding(
        points={},
        kappa=Curvature.from_scale(tau),
        tau=tau,
        root=root,
        parent=parent,
        edge_len={v: tau * w for v, w in w_up.items()},
        frames=frames,
    )
    return record, order, r, bearing


def _with_points(record: HyperbolicEmbedding, order, r, bearing) -> HyperbolicEmbedding:
    """The record with its ambient points, formed from the polar positions."""
    points = {}
    for v, rv, b in zip(order, r.tolist(), bearing.tolist()):
        sr = math.sinh(rv)
        points[v] = HPoint(np.array([sr * math.cos(b), sr * math.sin(b), math.cosh(rv)]))
    return replace(record, points=points)


def sarkar_embed(t: WeightedTree, tau: float) -> HyperbolicEmbedding:
    """Place the tree in H^2 at unit curvature, edge lengths tau * w.

    The root sits at the apex. Every child goes at exact geodesic
    distance tau * w from its parent, rotated from the parent's incoming
    direction by an exact multiple of 2*pi/deg. Positions are tracked as
    (distance from root, bearing at root), one tree level per
    ``kernels.triangle_step`` call; ambient coordinates come from that polar
    data at the end.
    """
    return _with_points(*_construction(t, tau))


def _ranges(first, count):
    """Concatenated ranges first[i] .. first[i] + count[i] - 1, with the i of each entry."""
    owner = np.repeat(np.arange(len(count)), count)
    return owner, np.arange(len(owner)) + (first - np.cumsum(count) + count)[owner]


def _edge_table(e: HyperbolicEmbedding, index: dict):
    """Directed edges of the construction record, grouped by tail node.

    Node v is numbered index[v]; its out-edges are start[k] .. start[k + 1] - 1
    for k = index[v]. Edge j ends at node head[j] after length[j]. The
    successors of edge a->b are the edges b->c with c != a, at
    succ_ptr[j] .. succ_ptr[j + 1] - 1 of succ_edge, each with its turn at b:
    the signed angle from the ray toward a to the ray toward c.
    """
    frames, parent, edge_len = e.frames, e.parent, e.edge_len
    edge_id, head, length, angle = {}, [], [], []
    for a in index:
        for b, ang in frames[a].items():
            edge_id[a, b] = len(head)
            head.append(index[b])
            length.append(edge_len[b] if parent[b] == a else edge_len[a])
            angle.append(ang)
    head, angle = np.array(head, np.intp), np.array(angle)
    rev = np.array([edge_id[b, a] for a, b in edge_id], np.intp)
    start = np.cumsum([0] + [len(frames[a]) for a in index])
    # every out-edge of b is a candidate successor of a->b, except b->a
    count = start[head + 1] - start[head]
    j, cand = _ranges(start[head], count)
    keep = cand != rev[j]
    succ_edge = cand[keep]
    succ_turn = kernels.wrap_angle(angle[succ_edge] - angle[rev[j[keep]]])
    succ_ptr = np.concatenate([[0], np.cumsum(count - 1)])
    return start, head, np.array(length), succ_ptr, succ_edge, succ_turn


def embedding_distance(e: HyperbolicEmbedding, sources) -> np.ndarray:
    """d_{-1} from the image of each source to the image of every node.

    Row i holds the distances from sources[i], one column per node in
    ``e.node_ids()`` order. The sources walk the construction record together,
    one hop per step. The state of (source, directed edge a->b) is the
    distance from the source to b and the signed angle at b from the ray back
    to a to the ray toward the source; one ``kernels.triangle_step`` call
    gives every next hop's state, so accuracy does not degrade with scale the
    way ambient coordinates do. Raises EmbedError on a non-finite distance.
    """
    if e.frames is None:
        raise EmbedError("embedding carries no construction record")
    index = {v: k for k, v in enumerate(e.node_ids())}
    start, head, length, succ_ptr, succ_edge, succ_turn = _edge_table(e, index)
    src = np.array([index[u] for u in sources], np.intp)
    out = np.zeros((len(src), len(index)))
    # A block of b sources holds at most b * n states in one hop (on a star,
    # one hop holds almost every ordered pair), so blocks of n / 4 sources
    # keep each hop's temporaries to a few n^2 / 4 floats.
    step = -(-len(index) // 4)
    for lo in range(0, len(src), step):
        block = src[lo : lo + step]
        row, edge = _ranges(start[block], start[block + 1] - start[block])
        dist, back = length[edge], np.zeros(len(edge))
        while edge.size:
            out[lo + row, head[edge]] = dist
            prev, pos = _ranges(succ_ptr[edge], succ_ptr[edge + 1] - succ_ptr[edge])
            # signed angle at the edge's head from the ray ahead to the ray toward the source
            psi = kernels.wrap_angle(back[prev] - succ_turn[pos])
            row, edge, dist = row[prev], succ_edge[pos], dist[prev]
            del prev, pos, back
            dist, back, _ = kernels.triangle_step(dist, length[edge], psi)
    if not np.isfinite(out).all():
        raise EmbedError("embedding distance is not finite; check the edge lengths")
    return out


def embedding_distance_matrix(e: HyperbolicEmbedding, ids=None) -> np.ndarray:
    """Symmetric matrix of d_{-1} over ``ids`` (default: all nodes, sorted).

    Row i comes from the walk of ids[i] and fills the entries j > i; the
    rest is its mirror image, so the matrix is exactly symmetric.
    """
    ids = list(ids) if ids is not None else e.node_ids()
    col = {v: k for k, v in enumerate(e.node_ids())}
    upper = np.triu(embedding_distance(e, ids)[:, [col[v] for v in ids]], 1)
    return upper + upper.T


# ----------------------------------------------------------------------
# Curvature selection
# ----------------------------------------------------------------------

DEFAULT_TAU_GRID = (1.0, 2.0, 4.0, 8.0, 16.0, 32.0, 64.0, 128.0, 256.0)


def _probe_witness(record: HyperbolicEmbedding, metric, lam: float, sources):
    """A pair (i, j), i < j, of rows of ``metric`` whose ratio fails the bound.

    Walks only the given source rows. Entry (i, j) of the full check is the
    walk of ids[i] at column j, divided by tau * d_T as ``ratio_bounds``
    divides it, so a source's row counts as it is at columns j > i. At
    j < i the entry comes from the walk of ids[j]: each source's worst such
    column is walked next, and its row counts the same way. Returns None
    when no walked entry fails.
    """
    ids = metric.ids
    node_col = {v: k for k, v in enumerate(record.node_ids())}
    cols = np.arange(len(ids))
    perm = [node_col[v] for v in ids]
    src = sorted(sources)
    for _ in range(2):  # the probe rows, then the rows that confirm their hits at j < i
        src = np.array(src, np.intp)
        rows = embedding_distance(record, [ids[i] for i in src])[:, perm]
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
    Ambient points are formed for the accepted tau only. When no tau is
    accepted, the best distortion comes from full walks of the rejected
    ones.

    Returns (embedding, curvature, report). Raises EmbedError if no scale
    meets the bound: with the best achieved distortion whenever some scale
    was evaluated, and with the scale and radius that stopped the scan when
    one passed the overflow cap.
    """
    if lam <= 1.0:
        raise EmbedError("lambda must exceed 1")
    metric = tree_metric(t)
    ids = list(metric.ids)
    if len(ids) < 2:
        raise EmbedError("need at least two nodes")
    center = ids.index(centroid(t))
    end = int(np.argmax(metric.matrix[center]))
    ends = {center, end}
    rejected, witness, capped = [], (), None
    for tau in DEFAULT_TAU_GRID:
        try:
            record, *polar = _construction(t, tau)
        except OverflowGuardError:
            ecc = float(metric.matrix[center].max())
            capped = f"tau={tau:g} hit the overflow cap: radius {tau * ecc:.1f} > {OVERFLOW_CAP:g}"
            break
        witness = _probe_witness(record, metric, lam, ends.union(witness)) or ()
        if not witness:
            mat = embedding_distance_matrix(record, ids)
            report = distortion_from_matrices(mat, tau * metric.matrix)
            if report.alpha >= 1.0 / lam and report.beta <= lam:
                return _with_points(record, *polar), Curvature.from_scale(tau), report
        rejected.append(record)
    reasons = [f"no grid scale met lambda={lam:g}"]
    best = None
    for record in rejected:
        mat = embedding_distance_matrix(record, ids)
        report = distortion_from_matrices(mat, record.tau * metric.matrix)
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

    Exact interpolation, so the network inherits the embedding's
    distortion. Accuracy degrades with the embedding radius: beyond
    r ~ 30 float64 ambient targets are too coarse for the 1e-6 check,
    though the construction itself still goes through.
    """
    ids = sorted(e.points)
    missing = [v for v in t.node_ids if v not in e.points]
    if missing:
        raise EmbedError(f"embedding is missing nodes {missing[:3]}")
    unplaced = [v for v in ids if v not in t.coords]
    if unplaced:
        raise EmbedError(f"tree nodes lack layout coordinates: {unplaced[:3]}")
    pts = np.stack([np.asarray(t.coords[v], np.float64) for v in ids])
    targets = [e.points[v] for v in ids]
    return memorize_hnn(pts, targets, seed=seed)


# ----------------------------------------------------------------------
# JSON interchange
# ----------------------------------------------------------------------

def embedding_to_dict(e: HyperbolicEmbedding) -> dict:
    return {
        "kappa": e.kappa.kappa,
        "points": {str(v): e.points[v].coords.tolist() for v in sorted(e.points)},
    }


def embedding_from_dict(data: dict) -> HyperbolicEmbedding:
    kappa = Curvature(float(data["kappa"]))
    points = {}
    for key, coords in data["points"].items():
        points[int(key)] = HPoint(np.asarray(coords, np.float64))
    if not points:
        raise EmbedError("embedding holds no points")
    return HyperbolicEmbedding(points=points, kappa=kappa, tau=kappa.scale)


def save_embedding(path, e: HyperbolicEmbedding) -> None:
    with open(path, "w", encoding="utf-8") as fh:
        json.dump(embedding_to_dict(e), fh, indent=1)
        fh.write("\n")


def load_embedding(path) -> HyperbolicEmbedding:
    with open(path, "r", encoding="utf-8") as fh:
        return embedding_from_dict(json.load(fh))
