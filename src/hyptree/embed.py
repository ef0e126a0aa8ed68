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
and exact frame angles at every node) and evaluates pair distances by
unrolling the tree path with the hyperbolic law of cosines entirely in
log space. Ambient coordinates are materialized from the polar data for
interop and small-scale work; the evaluator never reads them.
"""

from __future__ import annotations

import json
import math
from dataclasses import dataclass, field, replace

import numpy as np

from . import kernels
from .hypgeom import Curvature, GeometryError, HPoint, OVERFLOW_CAP, OverflowGuardError
from .networks import HnnParams, memorize_hnn
from .trees import TreeMetric, WeightedTree, centroid, tree_metric

_LN2 = math.log(2.0)
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


def _report_from_bounds(alpha: float, beta: float, injective: bool) -> DistortionReport:
    if not injective or alpha <= 0.0:
        return DistortionReport(alpha, beta, math.inf, False)
    return DistortionReport(alpha, beta, beta / alpha, True)


def distortion(f: dict, d_tree: TreeMetric, d_space) -> DistortionReport:
    """Compare a node->point map against the tree metric pair by pair.

    ``d_space`` is any distance callable on two image points. Quadratic
    in the node count; the matrix front ends below are the fast path.
    """
    ids = list(d_tree.ids)
    if len(ids) < 2:
        raise EmbedError("distortion needs at least two nodes")
    missing = [v for v in ids if v not in f]
    if missing:
        raise EmbedError(f"map is missing nodes {missing[:3]}")
    alpha, beta, injective = math.inf, 0.0, True
    for i, u in enumerate(ids):
        for v in ids[i + 1 :]:
            ds = float(d_space(f[u], f[v]))
            ratio = ds / d_tree.dist(u, v)
            alpha = min(alpha, ratio)
            beta = max(beta, ratio)
            if ds <= 0.0:
                injective = False
    return _report_from_bounds(alpha, beta, injective)


def distortion_from_matrices(d_space: np.ndarray, d_tree: np.ndarray) -> DistortionReport:
    """Same report from dense distance matrices (kernel-backed)."""
    alpha, beta, injective = kernels.ratio_bounds(
        np.asarray(d_space, np.float64), np.asarray(d_tree, np.float64)
    )
    return _report_from_bounds(alpha, beta, injective)


# ----------------------------------------------------------------------
# Log-space scalar kernels
# ----------------------------------------------------------------------

def _ln_cosh(x: float) -> float:
    ax = abs(x)
    return ax + math.log1p(math.exp(-2.0 * ax)) - _LN2


def _ln_sinh(x: float) -> float:
    # requires x > 0
    return x + math.log1p(-math.exp(-2.0 * x)) - _LN2


def _inv_ln_cosh(y: float) -> float:
    """Solve ln cosh D = y for D >= 0."""
    if y <= 0.0:
        return 0.0
    if y < 30.0:
        return math.acosh(math.exp(y))
    # e^{-2D} < 1e-26 here, so the log1p correction is below resolution
    return y + _LN2


def _wrap(a: float) -> float:
    """Reduce an angle to (-pi, pi]."""
    r = math.remainder(a, _TWO_PI)
    return math.pi if r == -math.pi else r


def _side_from_angle(d: float, ell: float, theta: float) -> float:
    """Third side of a triangle with sides d, ell and included angle |theta|.

    Half-angle split of the law of cosines, evaluated in log space:
    cosh D' = sin^2(t/2) cosh(d+ell) + cos^2(t/2) cosh(d-ell).
    """
    s = math.sin(0.5 * abs(theta))
    c = math.cos(0.5 * abs(theta))
    s2, c2 = s * s, c * c
    terms = []
    if s2 > 0.0:
        terms.append(math.log(s2) + _ln_cosh(d + ell))
    if c2 > 0.0:
        terms.append(math.log(c2) + _ln_cosh(d - ell))
    y = terms[0] if len(terms) == 1 else np.logaddexp(terms[0], terms[1])
    return _inv_ln_cosh(float(y))


def _angle_opposite(side_far: float, side_near: float, side_op: float, theta: float) -> float:
    """Angle adjacent to side_near, opposite side_op, in a triangle whose
    included angle between side_op and side_near is |theta|.

    sin from the law of sines, cos from the law of cosines, both formed
    with shifted exponentials so huge cosh values never materialize.
    """
    if side_far <= 0.0 or side_near <= 0.0:
        return 0.0
    if side_op <= 0.0:
        sin_a = 0.0
    else:
        sin_a = math.sin(abs(theta)) * math.exp(_ln_sinh(side_op) - _ln_sinh(side_far))
    a = _ln_cosh(side_far) + _ln_cosh(side_near)
    b = _ln_cosh(side_op)
    m = max(a, b)
    num = math.exp(a - m) - math.exp(b - m)
    den = math.exp(_ln_sinh(side_far) + _ln_sinh(side_near) - m)
    return math.atan2(sin_a, num / den)


# ----------------------------------------------------------------------
# The embedding object
# ----------------------------------------------------------------------

@dataclass(frozen=True)
class HyperbolicEmbedding:
    """Node images on H^2 plus the intrinsic construction record.

    ``points`` are unit-curvature ambient coordinates; ``kappa`` is the
    curvature under which tree units are recovered (d_kappa = d_{-1}/tau).
    ``polar``/``frames``/``parent`` describe the construction intrinsically
    and power the exact pair-distance evaluator; they are None on
    embeddings loaded from JSON, which carry points only.
    """

    points: dict
    kappa: Curvature
    tau: float
    root: int | None = None
    parent: dict | None = field(default=None, repr=False)
    edge_len: dict | None = field(default=None, repr=False)
    frames: dict | None = field(default=None, repr=False)
    polar: dict | None = field(default=None, repr=False)

    def node_ids(self) -> list:
        return sorted(self.points)


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


def sarkar_embed(t: WeightedTree, tau: float) -> HyperbolicEmbedding:
    """Place the tree in H^2 at unit curvature, edge lengths tau * w.

    The root sits at the apex. Every child goes at exact geodesic
    distance tau * w from its parent, rotated from the parent's incoming
    direction by an exact multiple of 2*pi/deg. Positions are tracked as
    (distance from root, bearing at root) via triangle recursions in log
    space; ambient coordinates come from that polar data at the end.
    """
    if tau <= 0.0:
        raise EmbedError("tau must be positive")
    root = centroid(t)
    metric_root = _single_source(t, root)
    ecc = max(metric_root.values())
    if tau * ecc > OVERFLOW_CAP:
        raise OverflowGuardError(
            f"tau {tau:g} puts nodes at radius {tau * ecc:.1f} > {OVERFLOW_CAP:g}; "
            "reduce tau"
        )
    frames, parent, w_up = _neighbor_frames(t, root)

    # polar[v] = (r, bearing); beta[v] = signed angle at v from the ray
    # back to the parent to the ray toward the root
    polar = {root: (0.0, 0.0)}
    beta = {root: 0.0}
    stack = [(c, root) for c in sorted(frames[root], reverse=True)]
    while stack:
        v, p = stack.pop()
        ell = tau * w_up[v]
        if p == root:
            r = ell
            bearing = frames[root][v]
            beta[v] = 0.0
        else:
            r_p, bearing_p = polar[p]
            # signed angle at p from the ray toward v to the ray toward root
            theta = _wrap(beta[p] - frames[p][v])
            r = _side_from_angle(r_p, ell, theta)
            delta = _angle_opposite(r, ell, r_p, theta)
            eps = _angle_opposite(r, r_p, ell, theta)
            sign = 1.0 if theta >= 0.0 else -1.0
            beta[v] = _wrap(-sign * delta)
            bearing = _wrap(bearing_p + sign * eps)
        polar[v] = (r, bearing)
        for c in sorted(frames[v]):
            if c != parent.get(v):
                stack.append((c, v))

    points = {}
    for v, (r, b) in polar.items():
        sr = math.sinh(r)
        points[v] = HPoint(np.array([sr * math.cos(b), sr * math.sin(b), math.cosh(r)]))
    edge_len = {v: tau * w for v, w in w_up.items()}
    return HyperbolicEmbedding(
        points=points,
        kappa=Curvature.from_scale(tau),
        tau=tau,
        root=root,
        parent=parent,
        edge_len=edge_len,
        frames=frames,
        polar=polar,
    )


def _single_source(t: WeightedTree, src: int) -> dict:
    adj = t.adjacency()
    dist = {src: 0.0}
    stack = [src]
    while stack:
        v = stack.pop()
        for nb, w in adj[v]:
            if nb not in dist:
                dist[nb] = dist[v] + w
                stack.append(nb)
    return dist


def _tree_path(e: HyperbolicEmbedding, u: int, v: int) -> list:
    up_u = [u]
    while e.parent[up_u[-1]] is not None:
        up_u.append(e.parent[up_u[-1]])
    on_u = set(up_u)
    up_v = [v]
    while up_v[-1] not in on_u:
        up_v.append(e.parent[up_v[-1]])
    lca = up_v[-1]
    head = up_u[: up_u.index(lca) + 1]
    return head + up_v[-2::-1]


def embedding_distance(e: HyperbolicEmbedding, u: int, v: int) -> float:
    """d_{-1} between two node images, evaluated intrinsically.

    Unrolls the tree path through the construction record, so accuracy
    does not degrade with scale the way ambient coordinates do.
    """
    if e.frames is None:
        raise EmbedError("embedding carries no construction record")
    if u == v:
        return 0.0
    path = _tree_path(e, u, v)
    d = e.edge_len[path[1]] if e.parent[path[1]] == path[0] else e.edge_len[path[0]]
    if len(path) == 2:
        return d
    # state: d = dist(u, p_i); psi = signed angle at p_i from the ray
    # toward p_{i+1} to the ray toward u
    psi = _wrap(e.frames[path[1]][path[0]] - e.frames[path[1]][path[2]])
    for i in range(1, len(path) - 1):
        mid, nxt = path[i], path[i + 1]
        ell = e.edge_len[nxt] if e.parent.get(nxt) == mid else e.edge_len[mid]
        d_new = _side_from_angle(d, ell, psi)
        delta = _angle_opposite(d_new, ell, d, psi)
        sign = 1.0 if psi >= 0.0 else -1.0
        back_to_u = _wrap(-sign * delta)
        if i + 2 < len(path):
            turn = _wrap(e.frames[nxt][path[i + 2]] - e.frames[nxt][mid])
            psi = _wrap(back_to_u - turn)
        d = d_new
    return d


def embedding_distance_matrix(e: HyperbolicEmbedding, ids=None) -> np.ndarray:
    ids = list(ids) if ids is not None else e.node_ids()
    n = len(ids)
    out = np.zeros((n, n))
    for i in range(n):
        for j in range(i + 1, n):
            d = embedding_distance(e, ids[i], ids[j])
            out[i, j] = out[j, i] = d
    return out


# ----------------------------------------------------------------------
# Curvature selection
# ----------------------------------------------------------------------

DEFAULT_TAU_GRID = (1.0, 2.0, 4.0, 8.0, 16.0, 32.0, 64.0, 128.0, 256.0)


def choose_curvature(t: WeightedTree, lam: float, tau_grid=None):
    """Smallest grid scale whose embedding meets the two-sided bound.

    For each tau (ascending) the tree is embedded at unit curvature and
    judged under kappa = -tau^2, i.e. distances d_{-1}/tau against tree
    units: accepted iff (1/lam) d_T <= d_kappa <= lam * d_T on every
    pair. Tighter lam forces larger tau, hence more negative curvature.

    Returns (embedding, curvature, report). Raises EmbedError with the
    best achieved distortion if the grid runs out (extend the grid), or
    if every scale overflows.
    """
    if lam <= 1.0:
        raise EmbedError("lambda must exceed 1")
    grid = sorted(tau_grid) if tau_grid is not None else list(DEFAULT_TAU_GRID)
    if not grid:
        raise EmbedError("tau grid is empty")
    metric = tree_metric(t)
    ids = list(metric.ids)
    if len(ids) < 2:
        raise EmbedError("need at least two nodes")
    best = (math.inf, None)
    for tau in grid:
        try:
            emb = sarkar_embed(t, tau)
        except OverflowGuardError:
            break
        alpha, beta = math.inf, 0.0
        for i, u in enumerate(ids):
            for v in ids[i + 1 :]:
                ratio = embedding_distance(emb, u, v) / (tau * metric.dist(u, v))
                alpha = min(alpha, ratio)
                beta = max(beta, ratio)
        if alpha >= 1.0 / lam and beta <= lam:
            report = _report_from_bounds(alpha, beta, alpha > 0.0)
            return emb, Curvature.from_scale(tau), report
        if alpha > 0.0 and beta / alpha < best[0]:
            best = (beta / alpha, tau)
    raise EmbedError(
        f"no grid scale met lambda={lam:g}; best distortion {best[0]:.6g} at tau={best[1]}"
    )


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
    if not t.coords:
        raise EmbedError("tree nodes carry no layout coordinates")
    pts = np.stack([np.asarray(t.coords[v], np.float64) for v in ids])
    targets = [e.points[v] for v in ids]
    return memorize_hnn(pts, targets, seed=seed)


# ----------------------------------------------------------------------
# MLP lower-bound sweep
# ----------------------------------------------------------------------

def mlp_distortion_study(leaf_counts, dim: int, cfg, seeds=(0, 1, 2)):
    """Distortion of trained MLP embeddings of spiders, per leaf count.

    Each row embeds a hub-with-L-legs tree (legs two unit edges long, so
    the leaf count is exactly L) into R^dim with an MLP trained on pair
    distances, keeping the best (smallest) distortion across seeds.
    Returns (rows, fitted_exponent): rows are dicts with L, dist, alpha,
    beta, status; the exponent is the least-squares slope of log dist
    against log L over the rows that trained successfully.
    """
    from . import train as train_mod
    from .trees import gen_spider, spring_layout

    rows = []
    for n_leaves in leaf_counts:
        t = gen_spider(int(n_leaves), leg_length=2)
        spring_layout(t, dim=2, seed=cfg.seed)
        best = None
        status = "ok"
        for s in seeds:
            run_cfg = replace(cfg, model_kind="mlp", embed_dim=dim, seed=int(s))
            try:
                _, _, report = train_mod.train_embedding(t, run_cfg)
            except train_mod.TrainDivergenceError:
                continue
            if best is None or report.dist < best.dist:
                best = report
        if best is None:
            status = "diverged"
            rows.append(
                {"L": int(n_leaves), "dim": dim, "dist": math.nan,
                 "alpha": math.nan, "beta": math.nan, "status": status}
            )
            continue
        rows.append(
            {"L": int(n_leaves), "dim": dim, "dist": best.dist,
             "alpha": best.alpha, "beta": best.beta, "status": status}
        )
    good = [r for r in rows if r["status"] == "ok" and math.isfinite(r["dist"])]
    if len(good) >= 2:
        lx = np.log([r["L"] for r in good])
        ly = np.log([r["dist"] for r in good])
        exponent = float(np.polyfit(lx, ly, 1)[0])
    else:
        exponent = math.nan
    return rows, exponent


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
