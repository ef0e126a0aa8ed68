"""Distance-supervised training of tree embeddings.

A model maps layout coordinates to an embedding space (R^k for MLPs,
the hyperboloid H^k for the hyperbolic networks) and is fit by mean
squared error between predicted pair distances and tree distances.
Gradients come from the reverse-mode tape in ``autodiff``.

An HNN is trained as what it computes. Each of its layers reads its
input at the bias point where the previous layer wrote it, so every
Log/Exp pair and both transports cancel, and the network is Exp_0 of the
MLP on its affine layers followed by an isometry of H^k. Pair distances,
the only thing the loss reads, are therefore d(Exp_0 u1, Exp_0 u2) for
the MLP's tangent outputs u: the tower is the MLP tower, the head is an
intrinsic H^k distance evaluated in log space, and no ambient point is
formed. The bias points get exactly zero gradient and keep their values.

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
from .autodiff import Tape, sqrt_fn, sqrt_prime
from .embed import distortion_from_matrices
from .hypgeom import project_to_hyperboloid
from .networks import HnnParams, MlpParams
from .seeding import seed_stream
from .trees import WeightedTree, tree_metric

_BN_EPS = 1e-5
_LN2 = math.log(2.0)


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
    """One epoch's losses, the largest L2 norm of the full parameter
    gradient over its steps, and the largest output radius |u| over all
    nodes after it (the Euclidean norm of an MLP output, the distance from
    the apex of an HNN output)."""

    epoch: int
    train_mse: float
    test_mse: float
    grad_norm: float
    max_radius: float


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


def _tower(tape, params, X, batch_norm, weights):
    """(affine parameter leaves, output rows) of the model's tower on input
    rows X. An HNN's tower is the MLP on its affine layers: its outputs are
    tangent rows at the apex, which the hyperbolic head reads."""
    x = tape.leaf(X)
    if not isinstance(params, (MlpParams, HnnParams)):
        raise TrainError("params must be MlpParams or HnnParams")
    nodes = [(tape.leaf(layer[0]), tape.leaf(layer[1])) for layer in params.layers]
    return nodes, _mlp_tower(tape, nodes, x, batch_norm, weights)


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


@np.errstate(divide="ignore", invalid="ignore")  # ln 0 = -inf is meant
def _hyperbolic_head(U, i1, i2, with_grad=False):
    """Distances d(Exp_0 U[i1], Exp_0 U[i2]) on H^k (kappa = -1) from tangent
    rows U at the apex.

    With a = |u1|, b = |u2| and s = |u1/a - u2/b|^2, the squared chord
    between the two directions, the half-angle split

        sinh^2(d/2) = sinh^2((a - b)/2) + sinh a sinh b s/4

    is evaluated in log space, so no cosh of a radius is formed. Both a - b
    and the chord are formed from u1 - u2 and u1 + u2, never from two
    rounded norms or two rounded directions, so each term keeps its relative
    accuracy as a, b -> 0, as a -> b and as the directions meet. A zero row
    has no direction; its term vanishes with sinh 0.

    With ``with_grad`` it returns (d, G1, G2), where G1 and G2 are the
    gradients of d with respect to the rows u1 and u2 (0 where d = 0).
    """
    a = np.sqrt(np.einsum("ij,ij->i", U, U))
    r = np.divide(1.0, a, out=np.zeros_like(a), where=a > 0.0)
    ls = kernels._log_sinh(a)
    U1, U2 = np.take(U, i1, axis=0), np.take(U, i2, axis=0)
    a1, a2, r1, r2 = np.take(a, i1), np.take(a, i2), np.take(r, i1), np.take(r, i2)
    delta, total = U1 - U2, U1 + U2
    a_sum = a1 + a2
    a_diff = np.einsum("ij,ij->i", delta, total) / np.where(a_sum > 0.0, a_sum, 1.0)
    # chord = u1/a - u2/b = ((a + b)(u1 - u2) - (a - b)(u1 + u2)) / (2ab); where a
    # row is zero, ((1/a + 1/b)(u1 - u2) - (1/b - 1/a)(u1 + u2)) / 2 with 1/0 -> 0
    both = a1 * a2 > 0.0
    p = np.where(both, a_sum, 0.5 * (r1 + r2))
    q = np.where(both, a_diff, 0.5 * (r2 - r1))
    chord = (p[:, None] * delta - q[:, None] * total) * np.where(both, 0.5 * r1 * r2, 1.0)[:, None]
    s = np.einsum("ij,ij->i", chord, chord)
    half = 0.5 * np.abs(a_diff)
    ls_half = kernels._log_sinh(half)
    ls1, ls2 = np.take(ls, i1), np.take(ls, i2)
    log_s4 = np.log(0.25 * s)
    h = 0.5 * np.logaddexp(2.0 * ls_half, ls1 + ls2 + log_s4)  # ln sinh(d/2)
    d = np.where(h < 20.0, 2.0 * np.arcsinh(np.exp(np.minimum(h, 20.0))), 2.0 * (h + _LN2))
    if not with_grad:
        return d
    # dd/du1 = (dd/da) u1/a + (dd/ds) ds/du1 with ds/du1 = (2/a)(chord - (s/2) u1/a),
    # and likewise for u2; each factor is the exponential of a sum of logs
    lc = kernels._log_cosh(a)
    ls_a = np.where(a > 0.0, ls - np.log(a), 0.0)  # ln(sinh a / a)
    # ln(dd/dS) for S = sinh^2(d/2): dd/dS = 1 / (sinh(d/2) cosh(d/2))
    ld = np.where(np.isfinite(h), -h - kernels._log_cosh(0.5 * d), -np.inf)
    radial = np.sign(a_diff) * np.exp(ld + ls_half + kernels._log_cosh(half))
    beta1 = np.exp(ld + np.take(ls_a, i1) + ls2 - _LN2)
    beta2 = np.exp(ld + ls1 + np.take(ls_a, i2) - _LN2)
    c1 = radial + np.exp(ld + log_s4 + np.take(lc, i1) + ls2) - 0.5 * s * beta1
    c2 = -radial + np.exp(ld + log_s4 + ls1 + np.take(lc, i2)) - 0.5 * s * beta2
    G1 = (c1 * r1)[:, None] * U1 + beta1[:, None] * chord
    G2 = (c2 * r2)[:, None] * U2 - beta2[:, None] * chord
    return d, G1, G2


def _hyperbolic_matrix(U):
    """Head distances between all rows of U, ceil(n/16) source rows per call,
    so that no call holds more than n^2/16 pairs (the head keeps about 14
    floats per pair alive)."""
    n = U.shape[0]
    out = np.empty((n, n))
    step = -(-n // 16)
    cols = np.arange(n)
    for start in range(0, n, step):
        rows = np.arange(start, min(start + step, n))
        out[rows] = _hyperbolic_head(U, np.repeat(rows, n), np.tile(cols, rows.size)).reshape(rows.size, n)
    return out


def _pair_loss(tape, Y, i1, i2, d_true, hyperbolic):
    """MSE head on pairs of output rows (Y[i1] against Y[i2])."""
    if hyperbolic:
        d = tape.pair_rows(Y, i1, i2, lambda U, j1, j2: _hyperbolic_head(U, j1, j2, True))
    else:
        D = tape.sub(tape.take_rows(Y, i1), tape.take_rows(Y, i2))
        s = tape.row_sum(tape.mul_cols(D, D))
        d = tape.elemwise(s, sqrt_fn, sqrt_prime)
    r = tape.sub_from_const(d_true, d)
    return tape.mean(tape.mul_cols(r, r))


# ----------------------------------------------------------------------
# Gradients
# ----------------------------------------------------------------------

def _grad_of(node):
    """The node's gradient after backward; zeros if the loss never reached it."""
    return node.grad if node.grad is not None else np.zeros_like(node.value)


def grad(params, x1, x2, d_true, batch_norm: bool = False):
    """Reverse-mode gradient of the pair MSE at ``params``.

    Returns (loss, grads) with grads shaped like the parameters: for an
    MLP a tuple of (dA, db) per layer; for an HNN a pair
    (d_entry_bias, tuple of (dA, db, dc)). The bias gradients of an HNN
    are exactly 0: each layer reads at the point where the previous one
    wrote, so the tower is Exp_0 of its MLP followed by an isometry, and
    pair distances do not depend on the bias points.
    Raises FloatingPointError when the loss is not finite.
    """
    x1 = np.atleast_2d(np.asarray(x1, np.float64))
    x2 = np.atleast_2d(np.asarray(x2, np.float64))
    d_true = np.atleast_1d(np.asarray(d_true, np.float64))
    if x1.shape != x2.shape or x1.shape[0] != d_true.size:
        raise TrainError("pair inputs must align: x1, x2 (B,n); d_true (B,)")
    X, i1, i2, counts = _distinct_rows(x1, x2)
    tape = Tape()
    hyperbolic = isinstance(params, HnnParams)
    with np.errstate(over="ignore", invalid="ignore", divide="ignore"):
        nodes, Y = _tower(tape, params, X, batch_norm, counts)
        loss = _pair_loss(tape, Y, i1, i2, d_true, hyperbolic)
        tape.backward(loss)
    affine = tuple((_grad_of(An), _grad_of(bn)) for An, bn in nodes)
    if not hyperbolic:
        return float(loss.value), affine
    layer_grads = tuple(
        (dA, db, np.zeros_like(c.coords)) for (dA, db), (_, _, c) in zip(affine, params.layers)
    )
    return float(loss.value), (np.zeros_like(params.entry_bias.coords), layer_grads)


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
    with np.errstate(over="ignore", invalid="ignore"):
        if isinstance(params, HnnParams):
            d = _hyperbolic_head(Y, i1, i2)
        else:
            D = Y[i1] - Y[i2]
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
        total, steps, grad_norm = 0.0, 0, 0.0
        for start in range(0, train_idx.size, cfg.batch_size):
            sel = train_idx[order[start : start + cfg.batch_size]]
            try:
                loss, grads = grad(
                    params, X[iu[sel]], X[ju[sel]], d_all[sel], cfg.batch_norm
                )
            except FloatingPointError as exc:
                raise TrainDivergenceError(epoch, str(exc)) from exc
            arrays, kinds = _flatten(params)
            flat = _flatten_grads(params, grads)
            grad_norm = max(grad_norm, math.sqrt(sum(float(np.vdot(g, g)) for g in flat)))
            stepped = opt.step(arrays, flat)
            try:
                params = _rebuild(params, stepped)
            except Exception as exc:
                raise TrainDivergenceError(epoch, f"parameters left the domain ({exc})") from exc
            total += loss * sel.size
            steps += sel.size
        train_mse = total / steps
        test_mse = _pair_mse(params, x1_test, x2_test, d_test, cfg.batch_norm)
        pts = _predict_rows(params, X, cfg.batch_norm)
        max_radius = float(np.max(np.sqrt(np.einsum("ij,ij->i", pts, pts))))
        if not (math.isfinite(train_mse) and math.isfinite(test_mse) and math.isfinite(max_radius)):
            raise TrainDivergenceError(epoch, "non-finite epoch loss or output")
        history.append(EpochStats(epoch, float(train_mse), float(test_mse), grad_norm, max_radius))

    with np.errstate(over="ignore", invalid="ignore"):
        if isinstance(params, HnnParams):
            space = _hyperbolic_matrix(pts)
        else:
            space = kernels.pairwise_euclidean(pts)
    report = distortion_from_matrices(space, metric.matrix)
    return params, history, report
