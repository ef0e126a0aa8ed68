"""Distance-supervised training of tree embeddings.

A model maps layout coordinates to an embedding space (R^k for MLPs,
the hyperboloid H^k for the hyperbolic networks) and is fit by mean
squared error between predicted pair distances and tree distances.
Gradients come from the reverse-mode tape in ``autodiff``; hyperbolic
bias points get the ambient gradient flipped through the Minkowski
metric and projected to their tangent space, and are pulled back onto
the sheet after every optimizer step.

The pair structure lives only in the loss head. Each step runs the
tower once over the distinct input rows of the batch, so a node that
joins many pairs is computed once, and the head gathers the two
endpoints of every pair from those output rows. With ``batch_norm``
enabled, the column statistics weight each distinct row by how often it
occurs among the 2B endpoints of the batch, which is exactly
normalizing the stacked batch of both endpoint sets. There is no stored
running state: statistics always come from whatever batch is being
pushed through, including at evaluation time, so a trained model is
evaluated on the full node set in one pass.
"""

from __future__ import annotations

import math
from dataclasses import dataclass

import numpy as np

from . import kernels
from .autodiff import (
    Tape,
    cosh_sqrt,
    cosh_sqrt_prime,
    dist_fn,
    dist_prime,
    gamma_fn,
    gamma_prime,
    sinhc_sqrt,
    sinhc_sqrt_prime,
    sqrt_fn,
    sqrt_prime,
)
from .embed import distortion_from_matrices
from .hypgeom import minkowski_inner, project_to_hyperboloid
from .networks import HnnParams, MlpParams
from .seeding import seed_stream
from .trees import WeightedTree, tree_metric

_BN_EPS = 1e-5


class TrainError(ValueError):
    """Bad training configuration or input."""


class TrainDivergenceError(TrainError):
    """Loss became non-finite; ``epoch`` is the pass where it happened."""

    def __init__(self, epoch: int, detail: str = ""):
        self.epoch = int(epoch)
        msg = f"training diverged at epoch {epoch}"
        super().__init__(msg + (f": {detail}" if detail else ""))


# ----------------------------------------------------------------------
# Configuration and batches
# ----------------------------------------------------------------------

@dataclass(frozen=True)
class TrainConfig:
    """Knobs for one training run.

    ``hidden_layers`` counts the ReLU blocks of width ``hidden_width``
    between input and output, so the affine chain is
    in -> width * hidden_layers -> embed_dim. ``max_pairs`` caps the
    number of node pairs used (seeded subsample) for large trees.
    """

    epochs: int = 20
    batch_size: int = 4096
    learning_rate: float = 1e-2
    seed: int = 0
    model_kind: str = "mlp"
    hidden_layers: int = 4
    hidden_width: int = 64
    embed_dim: int = 2
    optimizer: str = "adam"
    batch_norm: bool = False
    max_pairs: int | None = None

    def __post_init__(self):
        for name in ("epochs", "batch_size", "hidden_layers", "hidden_width", "embed_dim"):
            v = getattr(self, name)
            if not isinstance(v, int) or v < 1:
                raise TrainError(f"{name} must be an integer >= 1")
        if not (self.learning_rate > 0.0 and math.isfinite(self.learning_rate)):
            raise TrainError("learning_rate must be a positive real")
        if self.model_kind not in ("mlp", "hnn"):
            raise TrainError("model_kind must be 'mlp' or 'hnn'")
        if self.optimizer not in ("adam", "sgd"):
            raise TrainError("optimizer must be 'adam' or 'sgd'")
        if self.max_pairs is not None and (not isinstance(self.max_pairs, int) or self.max_pairs < 1):
            raise TrainError("max_pairs must be None or an integer >= 1")


@dataclass(frozen=True)
class PairBatch:
    """Node id pairs with their tree distances."""

    u: np.ndarray
    v: np.ndarray
    d_true: np.ndarray

    def __post_init__(self):
        u = np.asarray(self.u, np.int64)
        v = np.asarray(self.v, np.int64)
        d = np.asarray(self.d_true, np.float64)
        if not (u.ndim == v.ndim == d.ndim == 1 and u.size == v.size == d.size):
            raise TrainError("pair arrays must be 1-d and equally long")
        if u.size == 0:
            raise TrainError("a pair batch cannot be empty")
        if np.any(u == v):
            raise TrainError("pairs must join distinct nodes")
        if not np.all(np.isfinite(d)) or np.any(d <= 0.0):
            raise TrainError("pair distances must be positive and finite")
        object.__setattr__(self, "u", u)
        object.__setattr__(self, "v", v)
        object.__setattr__(self, "d_true", d)

    def __len__(self) -> int:
        return int(self.u.size)


@dataclass(frozen=True)
class EpochStats:
    epoch: int
    train_mse: float
    test_mse: float


# ----------------------------------------------------------------------
# Tape towers
# ----------------------------------------------------------------------

def _bn(tape, H, weights):
    """Whiten over the batch dimension with the batch's own statistics
    (row i counted ``weights[i]`` times; once each when None)."""
    c = tape.sub_vec(H, tape.col_mean(H, weights))
    var = tape.col_mean(tape.mul_cols(c, c), weights)
    rs = tape.elemwise(
        var,
        lambda v: 1.0 / np.sqrt(v + _BN_EPS),
        lambda v: -0.5 * (v + _BN_EPS) ** -1.5,
    )
    return tape.mul_vec(c, rs)


def _mlp_tower(tape, layer_nodes, X, batch_norm, weights):
    H = X
    last = len(layer_nodes) - 1
    for i, (A, b) in enumerate(layer_nodes):
        H = tape.add_vec(tape.matmul_rt(H, A), b)
        if i != last:
            if batch_norm:
                H = _bn(tape, H, weights)
            H = tape.relu(H)
    return H


def _e_time(k):
    e = np.zeros(k)
    e[-1] = 1.0
    return e


def _read_tangent_rows(tape, a, P):
    """Rows of drop(transport bias->apex (Log_bias(P))).

    a is the bias point node (K+1,), P the point rows (B, K+1). The
    transported vector's time component vanishes identically, so the
    final column drop is exact.
    """
    D = tape.sub_vec(P, a)
    q = tape.row_mink(D, D)
    gam = tape.elemwise(q, gamma_fn, gamma_prime)
    U = tape.scale_rows(gam, tape.sub(D, tape.outer_vec(tape.scale_const(q, 0.5), a)))
    coef = tape.div_shift(tape.last_col(U), tape.scalar_last(a), 1.0)
    Ut = tape.sub(U, tape.outer_vec(coef, a, const=_e_time(a.value.size)))
    return tape.drop_last_col(Ut)


def _write_point_rows(tape, c, Z):
    """Rows of Exp_c(transport apex->c (lift(Z)))."""
    V = tape.pad_zero_col(Z)
    coef = tape.div_shift(tape.row_dot_vec(Z, tape.vec_head(c)), tape.scalar_last(c), 1.0)
    W = tape.add(V, tape.outer_vec(coef, c, const=_e_time(c.value.size)))
    w = tape.row_mink(W, W)
    f1 = tape.elemwise(w, cosh_sqrt, cosh_sqrt_prime)
    f2 = tape.elemwise(w, sinhc_sqrt, sinhc_sqrt_prime)
    return tape.add(tape.outer_vec(f1, c), tape.scale_rows(f2, W))


def _hnn_tower(tape, entry_node, layer_nodes, X, batch_norm, weights):
    P = _write_point_rows(tape, entry_node, X)
    prev = entry_node
    last = len(layer_nodes) - 1
    for i, (A, b, c) in enumerate(layer_nodes):
        Z = _read_tangent_rows(tape, prev, P)
        H = tape.add_vec(tape.matmul_rt(Z, A), b)
        if i != last:
            if batch_norm:
                H = _bn(tape, H, weights)
            H = tape.relu(H)
        P = _write_point_rows(tape, c, H)
        prev = c
    return P


def _tower(tape, params, X, batch_norm, weights):
    """(parameter leaves, output rows) of the model's tower on input rows X."""
    x = tape.leaf(X)
    if isinstance(params, MlpParams):
        nodes = [(tape.leaf(A), tape.leaf(b)) for A, b in params.layers]
        return nodes, _mlp_tower(tape, nodes, x, batch_norm, weights)
    if isinstance(params, HnnParams):
        entry = tape.leaf(params.entry_bias.coords)
        nodes = [
            (tape.leaf(A), tape.leaf(b), tape.leaf(c.coords)) for A, b, c in params.layers
        ]
        return (entry, nodes), _hnn_tower(tape, entry, nodes, x, batch_norm, weights)
    raise TrainError("params must be MlpParams or HnnParams")


def _distinct_rows(x1, x2):
    """Distinct rows of the stacked endpoints [x1; x2].

    Returns (X, i1, i2, counts) with X[i1] == x1 and X[i2] == x2 row for
    row, and counts[k] the number of times X[k] occurs among the 2B
    endpoints. Rows are matched by their bytes; identical rows share one
    entry.
    """
    R = np.concatenate([x1, x2], axis=0)
    keys = R.view(np.dtype((np.void, R.itemsize * R.shape[1]))).ravel()
    _, first, inv, counts = np.unique(keys, return_index=True, return_inverse=True, return_counts=True)
    n = x1.shape[0]
    return R[first], inv[:n], inv[n:], counts


def _pair_loss(tape, Y, i1, i2, d_true, hyperbolic):
    """MSE head on pairs of output rows (Y[i1] against Y[i2])."""
    D = tape.sub(tape.take_rows(Y, i1), tape.take_rows(Y, i2))
    if hyperbolic:
        q = tape.row_mink(D, D)
        d = tape.elemwise(q, dist_fn, dist_prime)
    else:
        s = tape.row_sum(tape.mul_cols(D, D))
        d = tape.elemwise(s, sqrt_fn, sqrt_prime)
    r = tape.sub_from_const(d_true, d)
    return tape.mean(tape.mul_cols(r, r))


# ----------------------------------------------------------------------
# Gradients
# ----------------------------------------------------------------------

def _tangent_project(g, c):
    """Riemannian gradient at a hyperboloid point from the ambient one.

    Flip the time component (inverse Minkowski metric), then project to
    the tangent space: rgrad = Jg + <Jg|c>_M c. For any tangent v this
    satisfies <rgrad|v>_M = g . v, the ambient directional derivative.
    """
    jg = np.array(g, copy=True)
    jg[-1] = -jg[-1]
    return jg + float(minkowski_inner(jg, c)) * c


def _grad_of(node):
    """The node's gradient after backward; zeros if the loss never reached it."""
    return node.grad if node.grad is not None else np.zeros_like(node.value)


def grad(params, x1, x2, d_true, batch_norm: bool = False):
    """Reverse-mode gradient of the pair MSE at ``params``.

    Returns (loss, grads) with grads shaped like the parameters: for an
    MLP a tuple of (dA, db) per layer; for an HNN a pair
    (d_entry_bias, tuple of (dA, db, dc)) where bias gradients are
    Riemannian (tangent to the hyperboloid at the bias point).
    Raises FloatingPointError when the loss is not finite.
    """
    x1 = np.atleast_2d(np.asarray(x1, np.float64))
    x2 = np.atleast_2d(np.asarray(x2, np.float64))
    d_true = np.atleast_1d(np.asarray(d_true, np.float64))
    if x1.shape != x2.shape or x1.shape[0] != d_true.size:
        raise TrainError("pair inputs must align: x1, x2 (B,n); d_true (B,)")
    X, i1, i2, counts = _distinct_rows(x1, x2)
    tape = Tape()
    with np.errstate(over="ignore", invalid="ignore", divide="ignore"):
        nodes, Y = _tower(tape, params, X, batch_norm, counts)
        hyperbolic = isinstance(params, HnnParams)
        loss = _pair_loss(tape, Y, i1, i2, d_true, hyperbolic)
        tape.backward(loss)
        if not hyperbolic:
            return float(loss.value), tuple((_grad_of(An), _grad_of(bn)) for An, bn in nodes)
        entry, layer_nodes = nodes
        layer_grads = tuple(
            (_grad_of(An), _grad_of(bn), _tangent_project(_grad_of(cn), cn.value))
            for An, bn, cn in layer_nodes
        )
        return float(loss.value), (_tangent_project(_grad_of(entry), entry.value), layer_grads)


def _predict_rows(params, X, batch_norm, weights=None):
    """Model outputs for input rows, via the same towers (values only).

    With ``batch_norm``, row i counts ``weights[i]`` times in the batch
    statistics (once each when None).
    """
    X = np.atleast_2d(np.asarray(X, np.float64))
    with np.errstate(over="ignore", invalid="ignore", divide="ignore"):
        return _tower(Tape(), params, X, batch_norm, weights)[1].value


def _pair_mse(params, x1, x2, d_true, batch_norm):
    """Full-batch evaluation MSE (no gradient), on distinct rows like ``grad``."""
    X, i1, i2, counts = _distinct_rows(np.atleast_2d(x1), np.atleast_2d(x2))
    Y = _predict_rows(params, X, batch_norm, counts)
    D = Y[i1] - Y[i2]
    with np.errstate(over="ignore", invalid="ignore"):
        if isinstance(params, HnnParams):
            q = np.sum(D[:, :-1] ** 2, axis=1) - D[:, -1] ** 2
            d = dist_fn(q)
        else:
            d = np.sqrt(np.sum(D * D, axis=1))
        return float(np.mean((d_true - d) ** 2))


# ----------------------------------------------------------------------
# Parameter flattening and optimizers
# ----------------------------------------------------------------------

def _flatten(params):
    """(arrays, kinds): kinds mark hyperbolic bias points for retraction."""
    if isinstance(params, MlpParams):
        arrays, kinds = [], []
        for A, b in params.layers:
            arrays += [A, b]
            kinds += ["euclid", "euclid"]
        return arrays, kinds
    arrays = [params.entry_bias.coords]
    kinds = ["hyper"]
    for A, b, c in params.layers:
        arrays += [A, b, c.coords]
        kinds += ["euclid", "euclid", "hyper"]
    return arrays, kinds


def _flatten_grads(params, grads):
    if isinstance(params, MlpParams):
        out = []
        for dA, db in grads:
            out += [dA, db]
        return out
    d_entry, layer_grads = grads
    out = [d_entry]
    for dA, db, dc in layer_grads:
        out += [dA, db, dc]
    return out


def _rebuild(params, arrays):
    if isinstance(params, MlpParams):
        layers = []
        it = iter(arrays)
        for _ in params.layers:
            layers.append((next(it), next(it)))
        return MlpParams(tuple(layers))
    it = iter(arrays)
    entry = project_to_hyperboloid(next(it))
    layers = []
    for _ in params.layers:
        A, b, c = next(it), next(it), next(it)
        layers.append((A, b, project_to_hyperboloid(c)))
    return HnnParams(entry, tuple(layers))


class _Sgd:
    def __init__(self, lr):
        self.lr = lr

    def step(self, arrays, grads):
        return [a - self.lr * g for a, g in zip(arrays, grads)]


class _Adam:
    def __init__(self, lr, beta1=0.9, beta2=0.999, eps=1e-8):
        self.lr, self.b1, self.b2, self.eps = lr, beta1, beta2, eps
        self.t = 0
        self.m = None
        self.v = None

    def step(self, arrays, grads):
        if self.m is None:
            self.m = [np.zeros_like(a) for a in arrays]
            self.v = [np.zeros_like(a) for a in arrays]
        self.t += 1
        out = []
        c1 = 1.0 - self.b1**self.t
        c2 = 1.0 - self.b2**self.t
        for i, (a, g) in enumerate(zip(arrays, grads)):
            self.m[i] = self.b1 * self.m[i] + (1.0 - self.b1) * g
            self.v[i] = self.b2 * self.v[i] + (1.0 - self.b2) * g * g
            mhat = self.m[i] / c1
            vhat = self.v[i] / c2
            out.append(a - self.lr * mhat / (np.sqrt(vhat) + self.eps))
        return out


def _make_optimizer(cfg: TrainConfig):
    if cfg.optimizer == "adam":
        return _Adam(cfg.learning_rate)
    return _Sgd(cfg.learning_rate)


# ----------------------------------------------------------------------
# Initialization
# ----------------------------------------------------------------------

def init_params(cfg: TrainConfig, in_dim: int):
    """Seeded He-style init; the HNN shares the MLP's affine draw, so the
    two model kinds start from identical weights under one seed."""
    rng = seed_stream(cfg.seed, "init-mlp")
    dims = [in_dim] + [cfg.hidden_width] * cfg.hidden_layers + [cfg.embed_dim]
    layers = []
    for fan_in, fan_out in zip(dims[:-1], dims[1:]):
        A = rng.normal(0.0, math.sqrt(2.0 / fan_in), size=(fan_out, fan_in))
        layers.append((A, np.zeros(fan_out)))
    mlp = MlpParams(tuple(layers))
    if cfg.model_kind == "mlp":
        return mlp
    from .networks import hnn_from_mlp

    return hnn_from_mlp(mlp)


# ----------------------------------------------------------------------
# The training loop
# ----------------------------------------------------------------------

def _all_pairs(metric):
    n = metric.matrix.shape[0]
    iu, ju = np.triu_indices(n, k=1)
    return iu, ju, metric.matrix[iu, ju]


def train_embedding(t: WeightedTree, cfg: TrainConfig):
    """Fit a model to the tree's metric from its layout coordinates.

    Returns (params, history, report): the final parameters, per-epoch
    EpochStats (train and held-out MSE), and the distortion of the node
    embedding induced by the trained model (Euclidean for MLPs,
    hyperbolic at kappa = -1 for HNNs). Deterministic given (tree, cfg).
    Raises TrainDivergenceError with the epoch index if the loss goes
    non-finite, and TrainError when the tree carries no layout.
    """
    missing = [i for i in t.node_ids if i not in t.coords]
    if missing:
        raise TrainError(f"tree nodes lack layout coordinates: {missing[:3]}")
    if t.n_nodes < 2:
        raise TrainError("training needs at least two nodes")
    metric = tree_metric(t)
    ids = list(metric.ids)
    X = np.stack([np.asarray(t.coords[i], np.float64) for i in ids])
    in_dim = X.shape[1]

    iu, ju, d_all = _all_pairs(metric)
    if cfg.max_pairs is not None and cfg.max_pairs < iu.size:
        sel = seed_stream(cfg.seed, "pair-subsample").choice(
            iu.size, size=cfg.max_pairs, replace=False
        )
        sel.sort()
        iu, ju, d_all = iu[sel], ju[sel], d_all[sel]

    perm = seed_stream(cfg.seed, "pair-split").permutation(iu.size)
    n_test = iu.size // 10
    test_idx = perm[:n_test]
    train_idx = perm[n_test:]
    if n_test == 0:
        test_idx = train_idx  # too few pairs to hold out; report train twice

    params = init_params(cfg, in_dim)
    opt = _make_optimizer(cfg)
    order_rng = seed_stream(cfg.seed, "batch-order")

    x1_test, x2_test, d_test = X[iu[test_idx]], X[ju[test_idx]], d_all[test_idx]
    history = []
    for epoch in range(cfg.epochs):
        order = order_rng.permutation(train_idx.size)
        total, steps = 0.0, 0
        for start in range(0, train_idx.size, cfg.batch_size):
            sel = train_idx[order[start : start + cfg.batch_size]]
            try:
                loss, grads = grad(
                    params, X[iu[sel]], X[ju[sel]], d_all[sel], cfg.batch_norm
                )
            except FloatingPointError as exc:
                raise TrainDivergenceError(epoch, str(exc)) from exc
            arrays, kinds = _flatten(params)
            stepped = opt.step(arrays, _flatten_grads(params, grads))
            try:
                params = _rebuild(params, stepped)
            except Exception as exc:
                raise TrainDivergenceError(epoch, f"parameters left the domain ({exc})") from exc
            total += loss * sel.size
            steps += sel.size
        train_mse = total / steps
        test_mse = _pair_mse(params, x1_test, x2_test, d_test, cfg.batch_norm)
        if not (math.isfinite(train_mse) and math.isfinite(test_mse)):
            raise TrainDivergenceError(epoch, "non-finite epoch loss")
        history.append(EpochStats(epoch, float(train_mse), float(test_mse)))

    pts = _predict_rows(params, X, cfg.batch_norm)
    with np.errstate(over="ignore", invalid="ignore"):
        if isinstance(params, HnnParams):
            space = kernels.pairwise_hyperboloid(pts)
        else:
            space = kernels.pairwise_euclidean(pts)
    report = distortion_from_matrices(space, metric.matrix)
    return params, history, report
