"""Distance-supervised training of tree embeddings.

A model maps layout coordinates to an embedding space (R^k for MLPs,
the hyperboloid H^k for the hyperbolic networks) and is fit by mean
squared error between predicted pair distances and tree distances.
Gradients come from the reverse-mode tape in ``autodiff``, which records
one node per layer: ``affine`` for each layer, ``batch_norm`` (if enabled)
and ``relu`` between layers, ``pair_rows`` for the pair head and ``mse``
for the loss.

An HNN is trained as what it computes. Each of its layers reads its
input at the bias point where the previous layer wrote it, so every
Log/Exp pair and both transports cancel, and the network is Exp_0 of the
MLP on its affine layers followed by an isometry of H^k. Pair distances,
the only thing the loss reads, are therefore d(Exp_0 u1, Exp_0 u2) for
the MLP's tangent outputs u: the tower is the MLP tower, the head is an
intrinsic H^k distance evaluated in log space, and no ambient point is
formed. The bias points get exactly zero gradient, so the optimizer
trains only the affine arrays of either model kind, and an HNN keeps its
bias points as they are.

The pair structure lives only in the loss head. The loop holds every
pair as two node ids, and each step runs the tower once over the
distinct nodes of the batch, found from those ids by a bincount over the
nodes, never by comparing coordinate rows. A node that joins many pairs
is computed once, and the head gathers the two endpoints of every pair
from the output rows. ``grad``, which takes coordinate rows, runs the
same step on the stacked batch of both endpoint sets. Both heads, R^k
distance for an MLP and H^k distance for an HNN, have one contract:
distances of row pairs plus their closed-form row gradients, which enter
the tape through ``Tape.pair_rows``. With ``batch_norm`` enabled, the
column statistics weight each distinct node by how often it occurs among
the 2B endpoints of the batch, which is exactly normalizing the stacked
batch. There is no stored running state: statistics always come from
whatever batch is being pushed through, including at evaluation time, so
a trained model is evaluated on the full node set in one pass.
"""

from __future__ import annotations

import math
from dataclasses import dataclass

import numpy as np

from . import kernels
from .autodiff import Tape
from .embed import distortion_from_matrices
from .networks import HnnParams, MlpParams, NetworkError
from .seeding import seed_stream
from .trees import WeightedTree, tree_metric

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
# Configuration
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
        # a JSON config can carry true/false where a count belongs, and bool is an int
        def count(v):
            return isinstance(v, int) and not isinstance(v, bool) and v >= 1

        for name in ("epochs", "batch_size", "hidden_layers", "hidden_width", "embed_dim"):
            if not count(getattr(self, name)):
                raise TrainError(f"{name} must be an integer >= 1, got {getattr(self, name)!r}")
        lr = self.learning_rate
        if isinstance(lr, bool) or not (lr > 0.0 and math.isfinite(lr)):
            raise TrainError("learning_rate must be a positive real")
        if self.model_kind not in ("mlp", "hnn"):
            raise TrainError("model_kind must be 'mlp' or 'hnn'")
        if self.optimizer not in ("adam", "sgd"):
            raise TrainError("optimizer must be 'adam' or 'sgd'")
        if not isinstance(self.batch_norm, bool):
            raise TrainError(f"batch_norm must be true or false, got {self.batch_norm!r}")
        if self.max_pairs is not None and not count(self.max_pairs):
            raise TrainError(f"max_pairs must be None or an integer >= 1, got {self.max_pairs!r}")


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

def _tower(tape, params, X, batch_norm, weights):
    """(affine parameter leaves, output rows) of the model's tower on input
    rows X: affine layers with ReLU (after batch norm, if enabled) between
    them. An HNN's tower is the MLP on its affine layers: its outputs are
    tangent rows at the apex, which the hyperbolic head reads."""
    if not isinstance(params, (MlpParams, HnnParams)):
        raise TrainError("params must be MlpParams or HnnParams")
    H = tape.leaf(X)
    nodes = [(tape.leaf(layer[0]), tape.leaf(layer[1])) for layer in params.layers]
    for i, (A, b) in enumerate(nodes):
        if i:
            H = tape.relu(tape.batch_norm(H, weights) if batch_norm else H)
        H = tape.affine(H, A, b)
    return nodes, H


@np.errstate(divide="ignore", invalid="ignore")  # ln 0 = -inf is meant
def _hyperbolic_head(U, i1, i2, with_grad=False):
    """Distances d(Exp_0 U[i1], Exp_0 U[i2]) on H^k (kappa = -1) from tangent
    rows U at the apex, by ``kernels._apex_distance``.

    With ``with_grad`` it returns (d, G1, G2), where G1 and G2 are the
    gradients of d with respect to the rows u1 and u2 (0 where d = 0).
    """
    a, r, ls = kernels._apex_radii(U)
    U1, U2 = np.take(U.T, i1, axis=1), np.take(U.T, i2, axis=1)
    a1, a2, r1, r2, ls1, ls2 = (np.take(v, i) for v in (a, r, ls) for i in (i1, i2))
    d, h, a_diff, ls_half, log_s4, s, chord = kernels._apex_distance(
        a1, a2, r1, r2, ls1, ls2, U1 - U2, U1 + U2
    )
    if not with_grad:
        return d
    # dd/du1 = (dd/da) u1/a + (dd/ds) ds/du1 with ds/du1 = (2/a)(chord - (s/2) u1/a),
    # and likewise for u2; each factor is the exponential of a sum of logs
    lc = kernels._log_cosh(a)
    ls_a = np.where(a > 0.0, ls - np.log(a), 0.0)  # ln(sinh a / a)
    # ln(dd/dS) for S = sinh^2(d/2): dd/dS = 1 / (sinh(d/2) cosh(d/2))
    ld = np.where(np.isfinite(h), -h - kernels._log_cosh(0.5 * d), -np.inf)
    radial = np.sign(a_diff) * np.exp(ld + ls_half + kernels._log_cosh(0.5 * a_diff))
    beta1 = np.exp(ld + np.take(ls_a, i1) + ls2 - _LN2)
    beta2 = np.exp(ld + ls1 + np.take(ls_a, i2) - _LN2)
    c1 = radial + np.exp(ld + log_s4 + np.take(lc, i1) + ls2) - 0.5 * s * beta1
    c2 = -radial + np.exp(ld + log_s4 + ls1 + np.take(lc, i2)) - 0.5 * s * beta2
    G1 = (c1 * r1) * U1 + beta1 * chord
    G2 = (c2 * r2) * U2 - beta2 * chord
    return d, G1.T, G2.T


def _euclidean_head(U, i1, i2, with_grad=False):
    """Distances |U[i1] - U[i2]| between rows of U in R^k.

    With ``with_grad`` it returns (d, G1, G2), where G1 = (u1 - u2)/d and
    G2 = -G1 are the gradients of d with respect to the rows u1 and u2
    (0 where d = 0).
    """
    D = np.take(U, i1, axis=0) - np.take(U, i2, axis=0)
    d = np.sqrt(np.einsum("ij,ij->i", D, D))
    if not with_grad:
        return d
    G1 = np.divide(D, d[:, None], out=np.zeros_like(D), where=d[:, None] > 0.0)
    return d, G1, -G1


def _head(params):
    """The pair head of the model kind: R^k distance for an MLP, H^k for an HNN."""
    return _hyperbolic_head if isinstance(params, HnnParams) else _euclidean_head


# ----------------------------------------------------------------------
# Gradients
# ----------------------------------------------------------------------

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
    B = x1.shape[0]
    X = np.concatenate([x1, x2])
    loss, flat = _step(params, X, np.arange(B), np.arange(B, 2 * B), d_true, None, batch_norm)
    affine = tuple(zip(flat[::2], flat[1::2]))
    if isinstance(params, MlpParams):
        return loss, affine
    layer_grads = tuple(
        (dA, db, np.zeros_like(c.coords)) for (dA, db), (_, _, c) in zip(affine, params.layers)
    )
    return loss, (np.zeros_like(params.entry_bias.coords), layer_grads)


def _step(params, X, i1, i2, d_true, counts, batch_norm):
    """(loss, gradients of the arrays of ``_flatten``) of the pair MSE on the
    pairs (X[i1[p]], X[i2[p]]) of input rows X, where counts[k] is how often
    X[k] occurs among the 2B endpoints (once each when None). The tower runs
    once over X. Raises FloatingPointError when the loss is not finite.
    """
    tape = Tape()
    with np.errstate(over="ignore", invalid="ignore", divide="ignore"):
        nodes, Y = _tower(tape, params, X, batch_norm, counts)
        d = tape.pair_rows(Y, i1, i2, lambda U, j1, j2: _head(params)(U, j1, j2, True))
        loss = tape.mse(d, d_true)
        tape.backward(loss)
    return float(loss.value), [leaf.grad for layer in nodes for leaf in layer]


def _node_batch(X, i1, i2, d_true):
    """``_step``'s (rows, i1, i2, d_true, counts) for the pairs of node ids
    (i1[p], i2[p]) over the input rows X of all nodes: the rows of the
    batch's distinct nodes in node order, both endpoints' positions among
    them, and each node's count among the 2B endpoints, by bincount over the
    nodes, so no float row is compared or sorted."""
    n = X.shape[0]
    counts = np.bincount(i1, minlength=n) + np.bincount(i2, minlength=n)
    nodes = np.flatnonzero(counts)
    pos = np.empty(n, np.intp)
    pos[nodes] = np.arange(nodes.size)
    return X[nodes], pos[i1], pos[i2], d_true, counts[nodes]


def _predict_rows(params, X, batch_norm, weights=None):
    """Model outputs for input rows, via the same towers (values only).

    With ``batch_norm``, row i counts ``weights[i]`` times in the batch
    statistics (once each when None).
    """
    X = np.atleast_2d(np.asarray(X, np.float64))
    with np.errstate(over="ignore", invalid="ignore", divide="ignore"):
        return _tower(Tape(), params, X, batch_norm, weights)[1].value


def _pair_mse(params, X, i1, i2, d_true, counts, batch_norm):
    """Full-batch evaluation MSE (no gradient) on ``_step``'s arguments."""
    Y = _predict_rows(params, X, batch_norm, counts)
    with np.errstate(over="ignore", invalid="ignore"):
        d = _head(params)(Y, i1, i2)
        return float(np.mean((d_true - d) ** 2))


# ----------------------------------------------------------------------
# Parameter flattening and optimizers
# ----------------------------------------------------------------------

def _flatten(params):
    """The trained arrays, A and b of every layer in order. An HNN's bias
    points are not among them: their gradient is exactly 0."""
    return [arr for layer in params.layers for arr in layer[:2]]


def _rebuild(params, arrays):
    """``params`` with the arrays of ``_flatten`` replaced; an HNN keeps its
    bias points."""
    it = iter(arrays)
    if isinstance(params, MlpParams):
        return MlpParams(tuple((next(it), next(it)) for _ in params.layers))
    return HnnParams(params.entry_bias, tuple((next(it), next(it), c) for _, _, c in params.layers))


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

    test = _node_batch(X, iu[test_idx], ju[test_idx], d_all[test_idx])
    history = []
    for epoch in range(cfg.epochs):
        order = order_rng.permutation(train_idx.size)
        total, steps, grad_norm = 0.0, 0, 0.0
        for start in range(0, train_idx.size, cfg.batch_size):
            sel = train_idx[order[start : start + cfg.batch_size]]
            try:
                batch = _node_batch(X, iu[sel], ju[sel], d_all[sel])
                loss, flat = _step(params, *batch, cfg.batch_norm)
            except FloatingPointError as exc:
                raise TrainDivergenceError(epoch, str(exc)) from exc
            grad_norm = max(grad_norm, math.sqrt(sum(float(np.vdot(g, g)) for g in flat)))
            with np.errstate(over="ignore", invalid="ignore"):  # a step to inf is caught below
                stepped = opt.step(_flatten(params), flat)
            try:
                params = _rebuild(params, stepped)
            except NetworkError as exc:
                raise TrainDivergenceError(epoch, f"parameters left the domain ({exc})") from exc
            total += loss * sel.size
            steps += sel.size
        train_mse = total / steps
        test_mse = _pair_mse(params, *test, cfg.batch_norm)
        pts = _predict_rows(params, X, cfg.batch_norm)
        max_radius = float(np.max(np.sqrt(np.einsum("ij,ij->i", pts, pts))))
        if not (math.isfinite(train_mse) and math.isfinite(test_mse) and math.isfinite(max_radius)):
            raise TrainDivergenceError(epoch, "non-finite epoch loss or output")
        history.append(EpochStats(epoch, float(train_mse), float(test_mse), grad_norm, max_radius))

    with np.errstate(over="ignore", invalid="ignore"):
        if isinstance(params, HnnParams):
            space = kernels.pairwise_intrinsic(pts)
        else:
            space = kernels.pairwise_euclidean(pts)
    report = distortion_from_matrices(space, metric.matrix)
    return params, history, report
