"""Feed-forward networks with Euclidean and hyperboloid-valued layers.

An MLP here is the usual affine stack with componentwise ReLU between
layers and none after the last. The hyperbolic counterpart keeps every
activation on the hyperboloid: a layer reads its input into the tangent
space at a shared hyperbolic bias, applies an affine map plus ReLU in
flat coordinates, and writes the result back onto the sheet at the next
bias. Reading and writing go through the apex ``(0, ..., 0, 1)``:

    read(a, x)  = drop(transport a->apex (Log_a x))
    write(c, z) = Exp_c(transport apex->c (lift z))

so a network whose hyperbolic biases all sit at the apex collapses to an
ordinary MLP conjugated by ``Exp . lift`` (the transports become exact
identities). The memorizers below exploit that collapse: an exact
piecewise-linear interpolant built from ReLU units, wrapped so its
outputs land on the hyperboloid.

Parameter counts follow the sparsity convention: the size of a network
is the number of non-zero entries across its matrices and bias vectors,
with each shared hyperbolic bias counted once.
"""

from __future__ import annotations

import json
from dataclasses import dataclass

import numpy as np

from .hypgeom import (
    HPoint,
    _freeze,
    basepoint,
    drop,
    exp_map,
    lift,
    log_map,
    parallel_transport,
)
from .seeding import seed_stream


class NetworkError(ValueError):
    """Malformed parameters, dimension mismatch, or a failed construction."""


def _check_affine(A, b, i: int) -> tuple[np.ndarray, np.ndarray]:
    A = np.asarray(A, dtype=np.float64)
    b = np.asarray(b, dtype=np.float64)
    if A.ndim != 2 or A.shape[0] < 1 or A.shape[1] < 1:
        raise NetworkError(f"layer {i}: A must be a non-empty 2-d matrix")
    if b.ndim != 1 or b.size != A.shape[0]:
        raise NetworkError(f"layer {i}: b must have one entry per row of A")
    if not (np.all(np.isfinite(A)) and np.all(np.isfinite(b))):
        raise NetworkError(f"layer {i}: parameters must be finite")
    return A, b


@dataclass(frozen=True)
class MlpParams:
    """Affine layers ``(A, b)``; ReLU between layers but not after the last."""

    layers: tuple

    def __post_init__(self):
        if not self.layers:
            raise NetworkError("a network needs at least one layer")
        checked = []
        prev = None
        for i, (A, b) in enumerate(self.layers):
            A, b = _check_affine(A, b, i)
            if prev is not None and A.shape[1] != prev:
                raise NetworkError(
                    f"layer {i}: expects dim {A.shape[1]}, previous layer emits {prev}"
                )
            prev = A.shape[0]
            checked.append((_freeze(A), _freeze(b)))
        object.__setattr__(self, "layers", tuple(checked))

    @property
    def dims(self) -> tuple:
        """Dimension chain input -> hidden -> ... -> output."""
        return (self.layers[0][0].shape[1],) + tuple(A.shape[0] for A, _ in self.layers)

    @property
    def input_dim(self) -> int:
        return self.layers[0][0].shape[1]


@dataclass(frozen=True)
class HnnParams:
    """Entry bias ``c0`` on H^n plus layer triples ``(A, b, c)``.

    Layer i maps H^{m_{i-1}} to H^{m_i}: it reads at the previous layer's
    hyperbolic bias and writes at its own ``c``, so consecutive layers share
    one bias point. ReLU applies on every layer except the last. The affine
    layers are checked and frozen as an ``MlpParams``; only the bias points'
    checks are made here.
    """

    entry_bias: HPoint
    layers: tuple

    def __post_init__(self):
        if not isinstance(self.entry_bias, HPoint):
            raise NetworkError("entry bias must be a hyperboloid point")
        affine = MlpParams(tuple((A, b) for A, b, _ in self.layers))
        biases = [c for _, _, c in self.layers]
        if affine.input_dim != self.entry_bias.dim:
            raise NetworkError(f"layer 0: expects dim {affine.input_dim}, "
                               f"previous layer emits {self.entry_bias.dim}")
        for i, ((A, _), c) in enumerate(zip(affine.layers, biases)):
            if not isinstance(c, HPoint):
                raise NetworkError(f"layer {i}: hyperbolic bias must be an HPoint")
            if c.dim != A.shape[0]:
                raise NetworkError(
                    f"layer {i}: bias lives on H^{c.dim} but A emits dim {A.shape[0]}"
                )
        object.__setattr__(self, "layers", tuple((A, b, c) for (A, b), c in zip(affine.layers, biases)))

    @property
    def dims(self) -> tuple:
        return (self.entry_bias.dim,) + tuple(c.dim for _, _, c in self.layers)

    @property
    def input_dim(self) -> int:
        return self.entry_bias.dim


@dataclass(frozen=True)
class ParamCount:
    """depth = number of layers, width = largest layer dimension,
    par = non-zero trainable entries."""

    depth: int
    width: int
    par: int


def _read_tangent(a: HPoint, x: HPoint) -> np.ndarray:
    """Flat coordinates of x as seen from a: Log, carry to the apex, drop time."""
    u = log_map(a, x)
    return drop(parallel_transport(a, basepoint(a.dim), u))


def _write_tangent(c: HPoint, z) -> HPoint:
    """Place flat coordinates z on the sheet at c: lift, carry from the apex, Exp."""
    v = lift(np.asarray(z, dtype=np.float64))
    return exp_map(c, parallel_transport(basepoint(v.dim), c, v))


def hnn_forward(p: HnnParams, x) -> HPoint:
    x = np.asarray(x, dtype=np.float64)
    if x.ndim != 1 or x.size != p.input_dim:
        raise NetworkError(f"input must be a vector of dim {p.input_dim}")
    h = _write_tangent(p.entry_bias, x)
    a = p.entry_bias
    last = len(p.layers) - 1
    for i, (A, b, c) in enumerate(p.layers):
        z = A @ _read_tangent(a, h) + b
        if i != last:
            z = np.maximum(z, 0.0)
        h = _write_tangent(c, z)
        a = c
    return h


def hnn_from_mlp(p: MlpParams) -> HnnParams:
    """Wrap an MLP with every hyperbolic bias at the apex.

    At the apex the transports are exact identities and read/write invert
    each other, so the wrapped network computes Exp(lift(mlp(x))) up to
    float round-off.
    """
    layers = tuple((A, b, basepoint(A.shape[0])) for A, b in p.layers)
    return HnnParams(basepoint(p.input_dim), layers)


def _nnz(a: np.ndarray) -> int:
    return int(np.count_nonzero(a))


def par_count(p) -> ParamCount:
    """Count non-zero trainable entries; shared hyperbolic biases count once."""
    if not isinstance(p, (MlpParams, HnnParams)):
        raise NetworkError("expected MlpParams or HnnParams")
    par = sum(_nnz(A) + _nnz(b) for A, b, *_ in p.layers)
    if isinstance(p, HnnParams):
        par += _nnz(p.entry_bias.coords) + sum(_nnz(c.coords) for *_, c in p.layers)
    return ParamCount(depth=len(p.layers), width=max(p.dims), par=par)


def duplicate_rows(pts: np.ndarray):
    """Row indices (i, j) of the first two equal rows of pts in lexicographic
    order, or None when the rows are pairwise distinct. Sorting puts equal
    rows side by side; == counts -0.0 and 0.0 as equal."""
    order = np.lexsort(pts.T) if pts.shape[1] else np.arange(pts.shape[0])
    same = np.flatnonzero(np.all(pts[order[1:]] == pts[order[:-1]], axis=1))
    return (int(order[same[0]]), int(order[same[0] + 1])) if same.size else None


def separating_directions(pts: np.ndarray, seed: int = 0):
    """The seeded unit directions, of 64 draws, along which the rows of pts
    project pairwise separated: with enough gap between neighbors that the
    memorizer's slopes stay finite. Yields (theta, order, ts, gaps): the
    projections' sorting order, the sorted projections and their gaps.
    Whether any is found depends only on the set of rows and the seed."""
    rng = seed_stream(seed, "memorize-direction")
    for _ in range(64):
        theta = rng.normal(size=pts.shape[1])
        nrm = np.linalg.norm(theta)
        if nrm == 0.0:
            continue
        theta /= nrm
        t = pts @ theta
        order = np.argsort(t, kind="stable")
        ts = t[order]
        gaps = np.diff(ts)
        if np.all(gaps > 1e-12 * (1.0 + ts[-1] - ts[0])):
            yield theta, order, ts, gaps


def memorize_relu(points, targets, seed: int = 0) -> MlpParams:
    """Depth-2 ReLU network that interpolates targets at the given points exactly.

    Projects the points onto a line, then realizes each output coordinate as
    the piecewise-linear interpolant of the projected values using one ReLU
    unit per interior knot:

        g(s) = y_1 + sum_j (m_j - m_{j-1}) relu(s - t_j),   m_0 = 0

    which telescopes to y_i at every knot t_i. Hidden width N - 1,
    parameters O(N (n + d)).

    The line is the best of the ``separating_directions`` of the points.
    Close knots make steep slopes, and the interpolation error grows with
    the slope jumps m_j - m_{j-1}, so the draw whose output layer has the
    smallest max |weight| wins, the earliest on ties. Only draws that keep
    the most nonzero entries compete: a knot at 0, or a zero jump between
    targets that coincide in float64, would otherwise make ``par_count``
    depend on the draw.
    """
    pts = np.asarray(points, dtype=np.float64)
    tgt = np.asarray(targets, dtype=np.float64)
    if pts.ndim != 2 or tgt.ndim != 2:
        raise NetworkError("points and targets must be 2-d arrays (one row per sample)")
    if pts.shape[0] != tgt.shape[0]:
        raise NetworkError("points and targets must pair one-to-one")
    if not (np.all(np.isfinite(pts)) and np.all(np.isfinite(tgt))):
        raise NetworkError("points and targets must be finite")
    n_pts, n = pts.shape
    d = tgt.shape[1]
    if n_pts == 0:
        raise NetworkError("need at least one point")
    if duplicate_rows(pts) is not None:
        raise NetworkError("points must be pairwise distinct")

    if n_pts == 1:
        return MlpParams(((np.zeros((d, n)), tgt[0].copy()),))

    best = None
    for theta, order, ts, gaps in separating_directions(pts, seed):
        ys = tgt[order]
        slopes = (ys[1:] - ys[:-1]) / gaps[:, None]
        jumps = np.vstack([slopes[:1], np.diff(slopes, axis=0)])
        nnz = (n_pts - 1) * _nnz(theta) + _nnz(ts[:-1]) + _nnz(jumps) + _nnz(ys[0])
        key = (-nnz, np.max(np.abs(jumps)))
        if best is None or key < best[0]:
            best = (key, theta, ts, ys, jumps)
    if best is None:
        raise NetworkError("no direction separated the projections after 64 tries")

    _, theta, ts, ys, jumps = best
    hidden = np.tile(theta, (n_pts - 1, 1))
    return MlpParams(((hidden, -ts[:-1]), (jumps.T.copy(), ys[0].copy())))


def memorize_hnn(points, targets, seed: int = 0) -> HnnParams:
    """Hyperboloid-valued memorizer: interpolate in the apex tangent space.

    Targets are pulled back through Log at the apex, an exact ReLU
    interpolant is built for those flat coordinates, and the network is
    wrapped with all hyperbolic biases at the apex so its outputs land
    back on the target points.
    """
    targets = list(targets)
    if not targets:
        raise NetworkError("need at least one target")
    if not all(isinstance(y, HPoint) for y in targets):
        raise NetworkError("targets must be hyperboloid points")
    d = targets[0].dim
    if any(y.dim != d for y in targets):
        raise NetworkError("targets must share one dimension")
    base = basepoint(d)
    flat = np.stack([drop(log_map(base, y)) for y in targets])
    return hnn_from_mlp(memorize_relu(points, flat, seed=seed))


def params_to_dict(p) -> dict:
    """JSON-ready form; matrices are row-major nested lists."""
    if isinstance(p, MlpParams):
        return {
            "kind": "mlp",
            "layers": [{"A": A.tolist(), "b": b.tolist()} for A, b in p.layers],
        }
    if isinstance(p, HnnParams):
        return {
            "kind": "hnn",
            "entry_bias": p.entry_bias.coords.tolist(),
            "layers": [
                {"A": A.tolist(), "b": b.tolist(), "c": c.coords.tolist()}
                for A, b, c in p.layers
            ],
        }
    raise NetworkError("expected MlpParams or HnnParams")


def save_params(path, p) -> None:
    with open(path, "w", encoding="utf-8") as fh:
        json.dump(params_to_dict(p), fh, indent=1)
        fh.write("\n")
