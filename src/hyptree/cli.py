"""Command-line harness.

Subcommands
-----------

* ``gen``        generate a tree with a spring layout and save it as JSON
* ``embed``      pick a curvature meeting a distortion target, save the embedding
* ``train``      fit an MLP or hyperbolic network to pair distances
* ``grid``       sweep (tree x dim x model x seed), emit a long-format CSV
* ``lowerbound`` trained-MLP distortion growth vs the constructive column

Once its input checks pass, every invocation creates its output directory
(``--out-dir``, or a grid config's ``output_dir`` in its place) and writes
``<command>_manifest.json`` there after its result files, also when it stops
with exit 3 or 4; the manifest lists the resolved configuration and the output
files the run wrote. Manifest content is a pure function of config, seed, and library
version, so identical invocations produce byte-identical files (wall-clock time
lives in filesystem metadata only).

The training knobs are declared once, in ``TRAIN_FLAGS``. ``train`` takes
each as a flag whose default is TrainConfig's, except ``--epochs`` (10 here, 20
in TrainConfig and so in a grid), and its manifest records each. ``lowerbound``
and a grid config (under ``"train"``) take each but ``embed_dim``, which
``--dims`` and the grid's dims set per row.
``--threads`` belongs to ``grid``, the one command that starts workers.
The CLI sets OpenBLAS's spin timeout (``OPENBLAS_THREAD_TIMEOUT``) so idle BLAS
threads sleep at once, and leaves the BLAS thread count alone.

Exit codes: 0 success, 2 usage error, 3 distortion target unreachable on the
scale grid, 4 training diverged.
"""

from __future__ import annotations

import argparse
import csv
import json
import math
import os
import sys
from contextlib import contextmanager
from dataclasses import asdict, replace

# OpenBLAS reads this once, when numpy loads it, so it is set before the first
# numpy import of a CLI process (``hyptree/__init__.py`` imports nothing), and
# pool workers fork with it. An idle BLAS thread then spins 2^4 cycles before
# it sleeps, not 2^28 (about 0.13 s of CPU) after start-up and after every
# threaded call; a spin long enough to span a training step competes with the
# other grid worker. The thread count, and so every output bit, is unchanged.
os.environ["OPENBLAS_THREAD_TIMEOUT"] = "4"

import numpy as np

from . import __version__
from .embed import EmbedError, choose_curvature, hnn_realize, save_embedding
from .networks import NetworkError, duplicate_rows, par_count, save_params, separating_directions
from .seeding import child_seed
from .train import TrainConfig, TrainDivergenceError, TrainError, check_diameter, train_embedding
from .trees import (
    TreeError,
    WeightedTree,
    gen_binary,
    gen_random,
    gen_spider,
    gen_ternary,
    leaves,
    load_tree,
    save_tree,
    spring_layout,
)

EXIT_OK = 0
EXIT_USAGE = 2
EXIT_UNREACHABLE = 3
EXIT_DIVERGENCE = 4


class UsageError(ValueError):
    """Bad flags or config; argparse type callables also convert this to exit 2."""


# ----------------------------------------------------------------------
# Small shared helpers
# ----------------------------------------------------------------------

def _fmt(x) -> str:
    """Shortest round-trip decimal for a float; ``nan`` for NaN of either sign."""
    return repr(float(x))


def _out_path(out_dir: str, name: str) -> str:
    """The path of output ``name``, checked to be writable before any work
    runs. Creates ``out_dir``, where the manifest goes, so a command asks for
    its paths only once its input checks pass."""
    try:
        os.makedirs(out_dir, exist_ok=True)
    except OSError as exc:
        raise UsageError(f"cannot create output directory {out_dir}: {exc.strerror}") from exc
    path = name if os.path.isabs(name) else os.path.join(out_dir, name)
    folder = os.path.dirname(path) or "."
    if not os.path.isdir(folder):
        raise UsageError(f"cannot write {path}: {folder} is not a directory")
    if os.path.isdir(path):
        raise UsageError(f"cannot write {path}: it is a directory")
    return path


@contextmanager
def _manifest(out_dir: str, command: str, config: dict, seed: int):
    """Yield a list for the command to add each output path to once written.

    ``<command>_manifest.json`` is written when the block ends, on every
    exit path, so it lists exactly the outputs that exist.
    """
    outputs = []
    try:
        yield outputs
    finally:
        _write_json(_out_path(out_dir, f"{command}_manifest.json"), {
            "command": command,
            "config": config,
            "library_version": __version__,
            "seed": seed,
            "outputs": sorted(os.path.basename(p) for p in outputs),
        })


def _write_csv(path: str, header, rows) -> None:
    with open(path, "w", newline="") as fh:
        w = csv.writer(fh, lineterminator="\n")
        w.writerow(header)
        w.writerows(rows)


def _write_json(path: str, doc) -> None:
    with open(path, "w") as fh:
        json.dump(doc, fh, indent=1, sort_keys=True)
        fh.write("\n")


def _repeated(values):
    """The first value that occurs twice in ``values``, or None."""
    seen = set()
    for v in values:
        if v in seen:
            return v
        seen.add(v)
    return None


def _load_tree_arg(path: str) -> WeightedTree:
    try:
        return load_tree(path)
    except OSError as exc:
        raise UsageError(f"cannot read tree file: {exc}") from exc
    except (KeyError, TypeError, ValueError, OverflowError) as exc:
        raise UsageError(f"malformed tree file {path}: {exc}") from exc


def _report_doc(report) -> dict:
    # a map that is not injective has no finite distortion, and JSON has no inf
    return {
        "alpha": report.alpha,
        "beta": report.beta,
        "dist": report.dist if math.isfinite(report.dist) else None,
        "injective": report.injective,
    }


# (flag, TrainConfig field, argparse keywords) for every training knob that
# train takes as a flag; lowerbound and a grid config take each but embed_dim,
# which their dims set
TRAIN_FLAGS = (
    ("--epochs", "epochs", {"type": int}),
    ("--batch-size", "batch_size", {"type": int}),
    ("--lr", "learning_rate", {"type": float}),
    ("--hidden-layers", "hidden_layers", {"type": int}),
    ("--width", "hidden_width", {"type": int}),
    ("--embed-dim", "embed_dim", {"type": int}),
    ("--optimizer", "optimizer", {"choices": ["adam", "sgd"]}),
    ("--batch-norm", "batch_norm", {"action": "store_true"}),
    ("--max-pairs", "max_pairs", {"type": int}),
)


def _train_config_from_args(args, model: str) -> TrainConfig:
    return TrainConfig(seed=args.seed, model_kind=model,
                       **{field: getattr(args, field) for _, field, _ in TRAIN_FLAGS
                          if hasattr(args, field)})


def _train_knobs(cfg: TrainConfig) -> dict:
    """The manifest's record of a run's TrainConfig: every field but the two
    that the manifest holds elsewhere, seed and model kind."""
    return {k: v for k, v in asdict(cfg).items() if k not in ("seed", "model_kind")}


# ----------------------------------------------------------------------
# gen
# ----------------------------------------------------------------------

def _tree_size(spec: dict, trainable: bool = False) -> int:
    """Check a tree request {kind, depth or n}; return the depth of a binary or
    ternary tree, or the node count of a random one. A trainable tree needs
    at least two nodes."""
    kind = spec.get("kind")
    if kind not in ("binary", "ternary", "random"):
        raise UsageError(f"unknown tree kind {kind!r}")
    key, low = ("n", 1 + trainable) if kind == "random" else ("depth", int(trainable))
    value = spec.get(key)
    if isinstance(value, bool) or not isinstance(value, int) or value < low:
        raise UsageError(f"a {kind} tree needs an integer {key} >= {low}, got {value!r}")
    return value


def _build_tree(kind: str, size: int, seed: int, tag: str = "", layout_dim: int = 2) -> WeightedTree:
    """Generate a checked tree request and lay it out; ``tag`` names its seed streams."""
    if kind == "random":
        t = gen_random(size, child_seed(seed, f"tree{tag}"))
    else:
        t = gen_binary(size) if kind == "binary" else gen_ternary(size)
    spring_layout(t, dim=layout_dim, seed=child_seed(seed, f"layout{tag}"))
    return t


def cmd_gen(args) -> int:
    size = _tree_size({"kind": args.kind, "depth": args.depth, "n": args.n})
    if args.layout_dim < 1:
        raise UsageError(f"--layout-dim must be >= 1, got {args.layout_dim}")
    out = _out_path(args.out_dir, args.output or f"tree_{args.kind}.json")
    t = _build_tree(args.kind, size, args.seed, layout_dim=args.layout_dim)
    with _manifest(args.out_dir, "gen",
                   {"kind": args.kind, "depth": args.depth, "n": args.n,
                    "layout_dim": args.layout_dim}, args.seed) as written:
        save_tree(t, out)
        written.append(out)
    print(f"nodes={t.n_nodes} edges={len(t.edges)} leaves={len(leaves(t))}")
    print(f"wrote {out}")
    return EXIT_OK


# ----------------------------------------------------------------------
# embed
# ----------------------------------------------------------------------

def _check_lambda(lam: float) -> None:
    if not (math.isfinite(lam) and lam > 1.0):
        raise UsageError(f"--lambda must be a finite number > 1, got {lam:g}")


def cmd_embed(args) -> int:
    t = _load_tree_arg(args.tree)
    _check_lambda(args.lam)
    if t.n_nodes < 2:
        raise UsageError("tree must have at least 2 nodes")
    if args.realize_hnn:
        # no network maps two nodes that share coordinates to two images, and
        # the memorizer needs a seeded direction that separates them all
        X = t.layout()
        pair = duplicate_rows(X)
        if pair is not None:
            a, b = sorted(t.node_ids[k] for k in pair)
            raise UsageError(f"cannot realize the embedding on this layout: nodes {a} and {b} "
                             f"share coordinates {X[pair[0]].tolist()}")
        if next(separating_directions(X, args.seed), None) is None:
            raise UsageError("cannot realize the embedding on this layout: no seeded direction "
                             f"separates its nodes' projections (seed {args.seed})")

    out_emb = _out_path(args.out_dir, args.output or "embedding.json")
    out_report = _out_path(args.out_dir, "embed_report.json")
    out_params = _out_path(args.out_dir, "hnn_params.json")
    with _manifest(args.out_dir, "embed",
                   {"tree": os.path.basename(args.tree), "lambda": args.lam,
                    "realize_hnn": args.realize_hnn}, args.seed) as written:
        try:
            emb, kappa, report = choose_curvature(t, args.lam)
        except EmbedError as exc:
            print(f"target unreachable: {exc}", file=sys.stderr)
            return EXIT_UNREACHABLE

        save_embedding(out_emb, emb)
        _write_json(out_report, {"kappa": kappa.kappa, "tau": emb.tau, **_report_doc(report)})
        written += [out_emb, out_report]
        print(
            f"kappa={kappa.kappa:g} alpha={report.alpha:.6g} "
            f"beta={report.beta:.6g} dist={report.dist:.6g}"
        )
        if args.realize_hnn:
            try:
                params = hnn_realize(emb, t, seed=args.seed)
            except (EmbedError, NetworkError) as exc:
                raise UsageError(f"cannot realize the embedding on this layout: {exc}") from exc
            save_params(out_params, params)
            written.append(out_params)
            pc = par_count(params)
            print(f"realized depth={pc.depth} width={pc.width} par={pc.par}")
    print(f"wrote {out_emb}")
    return EXIT_OK


# ----------------------------------------------------------------------
# train
# ----------------------------------------------------------------------

def cmd_train(args) -> int:
    t = _load_tree_arg(args.tree)
    t.layout()  # TreeError, exit 2, before any work when a node has no coordinates
    if t.n_nodes < 2:
        raise UsageError("training needs at least two nodes")
    cfg = _train_config_from_args(args, args.model)
    check_diameter(t, cfg)

    out_csv = _out_path(args.out_dir, "train_loss.csv")
    out_report = _out_path(args.out_dir, "train_report.json")
    out_params = _out_path(args.out_dir, "model_params.json")
    with _manifest(args.out_dir, "train",
                   {"tree": os.path.basename(args.tree), "model": args.model, **_train_knobs(cfg)},
                   args.seed) as written:
        try:
            params, history, report = train_embedding(t, cfg)
        except TrainDivergenceError as exc:
            print(str(exc), file=sys.stderr)
            return EXIT_DIVERGENCE

        _write_csv(
            out_csv, ["epoch", "train_mse", "test_mse"],
            [[row.epoch, _fmt(row.train_mse), _fmt(row.test_mse)] for row in history],
        )
        doc = _report_doc(report)
        doc["epochs"] = [
            # finite gradient entries can have squares that overflow in the norm
            {"epoch": row.epoch, "grad_norm": row.grad_norm if math.isfinite(row.grad_norm) else None,
             "max_radius": row.max_radius}
            for row in history
        ]
        _write_json(out_report, doc)
        save_params(out_params, params)
        written += [out_csv, out_report, out_params]
    last = history[-1]
    print(
        f"model={args.model} final train_mse={last.train_mse:.6g} "
        f"test_mse={last.test_mse:.6g} dist={report.dist:.6g}"
    )
    return EXIT_OK


# ----------------------------------------------------------------------
# grid
# ----------------------------------------------------------------------

def _parse_grid_config(doc: dict) -> tuple[dict, list, dict]:
    """Check a grid config before any work runs; a UsageError names the fault.

    Returns the resolved config as the manifest records it, the checked
    size of each tree, and a TrainConfig per (dim, model) whose seed and
    max_pairs each row fills in.
    """
    if not isinstance(doc, dict):
        raise UsageError("not a JSON object")
    trees = doc.get("trees")
    if trees is None:
        kind = doc.get("kind")
        if kind is None:
            raise UsageError('needs "trees" or "kind"')
        key = "n" if kind == "random" else "depth"
        many = doc.get(key + "s")
        if many is not None and not isinstance(many, list):
            raise UsageError(f"{key}s must be a list, got {many!r}")
        trees = [{"kind": kind, key: size} for size in many or [doc.get(key)]]
    if not isinstance(trees, list) or not all(isinstance(spec, dict) for spec in trees):
        raise UsageError("trees must be a list of JSON objects")
    sizes = [_tree_size(spec, trainable=True) for spec in trees]
    dims = doc.get("dims", [2, 4, 6, 8])
    models = doc.get("models", ["mlp", "hnn"])
    seeds = doc.get("seeds", [0])
    for key, value, kind, noun in (("dims", dims, int, "integers"), ("models", models, str, "strings"),
                                   ("seeds", seeds, int, "integers")):
        # bool is a Python int, and a string would iterate as its characters
        if not isinstance(value, list) or not all(
                isinstance(v, kind) and not isinstance(v, bool) for v in value):
            raise UsageError(f"{key} must be a list of {noun}, got {value!r}")
    if not trees or not dims or not models or not seeds:
        raise UsageError("trees, dims, models, seeds must be non-empty")
    for key, value in (("dims", dims), ("models", models), ("seeds", seeds)):
        # a repeated value would train the same rows twice
        if (rep := _repeated(value)) is not None:
            raise UsageError(f"{key} repeats {rep!r}")
    bad = set(models) - {"mlp", "hnn"}
    if bad:
        raise UsageError(f"unknown model kinds {sorted(bad)}")
    if min(seeds) < 0:
        raise UsageError(f"seeds must be >= 0, got {min(seeds)}")
    train = doc.get("train", {})
    if not isinstance(train, dict):
        raise UsageError('"train" must be a JSON object')
    unknown = set(train) - {field for _, field, _ in TRAIN_FLAGS if field != "embed_dim"}
    if unknown:
        raise UsageError(
            f"train overrides {sorted(unknown)} not allowed; "
            "model_kind, embed_dim and seed come from the sweep"
        )
    try:
        bases = {(d, m): TrainConfig(model_kind=m, embed_dim=d, **train) for d in dims for m in models}
    except (TrainError, TypeError) as exc:
        raise UsageError(str(exc)) from exc
    output_dir = doc.get("output_dir")
    if output_dir is not None and not isinstance(output_dir, str):
        raise UsageError(f"output_dir must be a string, got {output_dir!r}")
    cfg = {"trees": trees, "dims": dims, "models": models, "seeds": seeds,
           "train": train, "output_dir": output_dir}
    return cfg, sizes, bases


def _grid_row(payload: dict, n_nodes: int, status: str) -> dict:
    cfg = payload["config"]
    return {
        "kind": payload["kind"], "n_nodes": n_nodes, "dim": cfg.embed_dim,
        "model": cfg.model_kind, "seed": cfg.seed,
        "train_mse": math.nan, "test_mse": math.nan, "dist": math.nan,
        "status": status,
    }


def _grid_worker(payload: dict) -> dict:
    t = payload["tree"]
    row = _grid_row(payload, t.n_nodes, "ok")
    try:
        _, history, report = train_embedding(t, payload["config"])
    except TrainDivergenceError as exc:
        row["status"] = f"diverged@{exc.epoch}"
        return row
    except (TrainError, FloatingPointError, MemoryError) as exc:
        row["status"] = f"error:{type(exc).__name__}"
        return row
    row["train_mse"] = history[-1].train_mse
    row["test_mse"] = history[-1].test_mse
    row["dist"] = report.dist
    return row


def _pool_rows(payloads: list, workers: int) -> list:
    """Grid rows from a pool of ``workers`` processes, in payload order.

    Each row is collected from its own future. A worker that dies breaks
    the pool and fails every row still pending, so each of those rows runs
    again alone, in a fresh one-worker pool; a payload that kills its worker
    there too costs only its own row, ``error:BrokenProcessPool``. At most
    ``workers`` processes run at any time.
    """
    from concurrent.futures import ProcessPoolExecutor
    from concurrent.futures.process import BrokenProcessPool

    def collect(todo, n_workers):
        out = {}
        with ProcessPoolExecutor(max_workers=n_workers) as pool:
            futures = [(i, pool.submit(_grid_worker, payloads[i])) for i in todo]
            for i, fut in futures:
                try:
                    out[i] = fut.result()
                except BrokenProcessPool:
                    out[i] = None
        return out

    rows = collect(range(len(payloads)), workers)
    for i in [i for i, row in rows.items() if row is None]:
        rows[i] = collect([i], 1)[i]
        if rows[i] is None:
            rows[i] = _grid_row(payloads[i], payloads[i]["tree"].n_nodes, "error:BrokenProcessPool")
    return [rows[i] for i in range(len(payloads))]


def resolve_threads(requested: int, rows: int) -> int:
    """Worker processes for a grid of ``rows`` rows.

    A request (--threads) below 1 is a usage error; otherwise the count is
    clamped to min(rows, CPU count), so no input can start more workers than
    there are rows or cores.
    """
    if requested < 1:
        raise UsageError(f"thread count must be >= 1, got {requested}")
    return min(requested, rows, os.cpu_count() or 1)


GRID_HEADER = ["kind", "n_nodes", "dim", "model", "seed", "train_mse", "test_mse", "dist", "status"]


def cmd_grid(args) -> int:
    try:
        with open(args.config) as fh:
            doc = json.load(fh)
    except OSError as exc:
        raise UsageError(f"cannot read config: {exc}") from exc
    except json.JSONDecodeError as exc:
        raise UsageError(f"config is not valid JSON: {exc}") from exc
    try:
        cfg, sizes, bases = _parse_grid_config(doc)
    except UsageError as exc:
        raise UsageError(f"grid config: {exc}") from exc
    n_rows = len(cfg["trees"]) * len(cfg["dims"]) * len(cfg["models"]) * len(cfg["seeds"])
    workers = resolve_threads(args.threads, n_rows)
    out_dir = cfg["output_dir"] or args.out_dir
    out_csv = _out_path(out_dir, "grid_results.csv")
    payloads = []
    for ti, (spec, size) in enumerate(zip(cfg["trees"], sizes)):
        t = _build_tree(spec["kind"], size, args.seed, f"-{ti}")
        t.metric  # built here, once per tree, and carried to pool workers with it
        n = t.n_nodes
        pairs = {} if "max_pairs" in cfg["train"] else {"max_pairs": min(n * (n - 1) // 2, 50 * n)}
        for dim in cfg["dims"]:
            for model in cfg["models"]:
                for seed in cfg["seeds"]:
                    payloads.append({
                        "tree": t, "kind": spec["kind"],
                        "config": replace(bases[dim, model], seed=seed, **pairs),
                    })

    with _manifest(out_dir, "grid",
                   {"config": cfg, "pair_policy": "min(all pairs, 50*N) unless train.max_pairs set",
                    "svg": args.svg}, args.seed) as written:
        rows = _pool_rows(payloads, workers) if workers > 1 else [_grid_worker(p) for p in payloads]
        _write_csv(
            out_csv, GRID_HEADER,
            [[r["kind"], r["n_nodes"], r["dim"], r["model"], r["seed"],
              _fmt(r["train_mse"]), _fmt(r["test_mse"]), _fmt(r["dist"]), r["status"]]
             for r in rows],
        )
        written.append(out_csv)
        if args.svg:
            for model in cfg["models"]:
                written.append(_svg_for_model(out_dir, model, rows))

    n_ok = sum(r["status"] == "ok" for r in rows)
    print(f"grid: {n_ok}/{len(rows)} rows ok, wrote {out_csv}")
    return EXIT_OK if n_ok else EXIT_DIVERGENCE


# ----------------------------------------------------------------------
# SVG heatmap (no plotting dependency; CSV stays the primary artifact)
# ----------------------------------------------------------------------

def _cell_color(t: float) -> str:
    # low values blue, high values red
    lo = (44, 123, 182)
    hi = (215, 25, 28)
    r, g, b = (round(a + (c - a) * t) for a, c in zip(lo, hi))
    return f"#{r:02x}{g:02x}{b:02x}"


def _svg_heatmap(path: str, col_labels, row_labels, values: np.ndarray, title: str) -> None:
    cell, pad_l, pad_t, pad_b = 70, 120, 50, 34
    n_rows, n_cols = values.shape
    width = pad_l + cell * n_cols + 20
    height = pad_t + cell * n_rows + pad_b
    finite = values[np.isfinite(values)]
    vmin = float(finite.min()) if finite.size else 0.0
    vmax = float(finite.max()) if finite.size else 1.0
    if vmax <= vmin:
        vmax = vmin + 1.0
    parts = [
        f'<svg xmlns="http://www.w3.org/2000/svg" width="{width}" height="{height}" '
        f'font-family="monospace" font-size="12">',
        f'<text x="{pad_l}" y="20" font-size="14">{title}</text>',
    ]
    for i in range(n_rows):
        y = pad_t + i * cell
        parts.append(
            f'<text x="{pad_l - 8}" y="{y + cell / 2 + 4}" text-anchor="end">{row_labels[i]}</text>'
        )
        for j in range(n_cols):
            x = pad_l + j * cell
            v = values[i, j]
            if math.isfinite(v):
                frac = (v - vmin) / (vmax - vmin)
                fill = _cell_color(frac)
                label = f"{v:.3g}"
                text_fill = "#ffffff" if frac > 0.6 else "#000000"
            else:
                fill = "#bbbbbb"
                label = "n/a"
                text_fill = "#000000"
            parts.append(
                f'<rect x="{x}" y="{y}" width="{cell}" height="{cell}" '
                f'fill="{fill}" stroke="#ffffff"/>'
            )
            parts.append(
                f'<text x="{x + cell / 2}" y="{y + cell / 2 + 4}" text-anchor="middle" '
                f'fill="{text_fill}">{label}</text>'
            )
    for j in range(n_cols):
        x = pad_l + j * cell
        parts.append(
            f'<text x="{x + cell / 2}" y="{pad_t + n_rows * cell + 16}" '
            f'text-anchor="middle">{col_labels[j]}</text>'
        )
    parts.append("</svg>")
    with open(path, "w") as fh:
        fh.write("\n".join(parts))
        fh.write("\n")


def _svg_for_model(out_dir: str, model: str, rows) -> str:
    """Write the heatmap of mean test MSE per (tree, dim) cell for one model
    kind; return its path."""
    mine = [r for r in rows if r["model"] == model]
    tree_keys = sorted({(r["kind"], r["n_nodes"]) for r in mine})
    dims = sorted({r["dim"] for r in mine})
    grid = np.full((len(tree_keys), len(dims)), math.nan)
    for i, tk in enumerate(tree_keys):
        for j, d in enumerate(dims):
            vals = [
                r["test_mse"] for r in mine
                if (r["kind"], r["n_nodes"]) == tk and r["dim"] == d
                and r["status"] == "ok" and math.isfinite(r["test_mse"])
            ]
            if vals:
                grid[i, j] = float(np.mean(vals))
    path = _out_path(out_dir, f"grid_{model}.svg")
    _svg_heatmap(
        path,
        [f"dim {d}" for d in dims],
        [f"{k} n={n}" for k, n in tree_keys],
        grid,
        f"{model}: mean test MSE over seeds",
    )
    return path


# ----------------------------------------------------------------------
# lowerbound
# ----------------------------------------------------------------------

def _int_list(text: str, flag: str, low: int) -> list[int]:
    try:
        vals = [int(p) for p in text.split(",") if p.strip()]
    except ValueError as exc:
        raise UsageError(f"{flag} expects a comma-separated integer list") from exc
    if not vals:
        raise UsageError(f"{flag} must be non-empty")
    if min(vals) < low:
        raise UsageError(f"{flag} values must be >= {low}, got {min(vals)}")
    if (rep := _repeated(vals)) is not None:
        raise UsageError(f"{flag} repeats {rep}")
    return vals


def cmd_lowerbound(args) -> int:
    """Trained-MLP distortion of spiders against the constructive column.

    A spider is a hub with L legs of two unit edges, so it has exactly L
    leaves. Each (L, dim) row trains an MLP into R^dim on the pair distances
    once per study seed and keeps the smallest distortion; the constructive
    column is the distortion of the embedding that choose_curvature picks
    for ``--lambda``. The exponent fitted per dim is the least-squares slope
    of log dist against log L over the rows that trained to a finite value,
    and null with fewer than two such rows; ``hnn_max_dist`` is null when no
    spider met ``--lambda``.
    """
    leaf_counts = _int_list(args.leaves, "--leaves", 1)
    dims = _int_list(args.dims, "--dims", 1)
    study_seeds = _int_list(args.study_seeds, "--study-seeds", 0)
    _check_lambda(args.lam)
    cfg = _train_config_from_args(args, "mlp")

    out_csv = _out_path(args.out_dir, "lowerbound.csv")
    out_summary = _out_path(args.out_dir, "lowerbound_summary.json")
    knobs = _train_knobs(cfg)
    del knobs["embed_dim"]  # each row's comes from --dims
    with _manifest(args.out_dir, "lowerbound",
                   {"leaves": leaf_counts, "dims": dims, "lambda": args.lam,
                    "study_seeds": study_seeds, **knobs}, args.seed) as written:
        spiders = []
        for L in leaf_counts:
            t = gen_spider(L, leg_length=2)
            spring_layout(t, dim=2, seed=args.seed)
            try:
                spiders.append((L, t, choose_curvature(t, args.lam)[2].dist, "ok"))
            except EmbedError as exc:
                spiders.append((L, t, math.nan, f"error:{exc}"))

        csv_rows, exponents = [], {}
        for dim in dims:
            fit = []
            for L, t, hnn_dist, hnn_status in spiders:
                dists = []
                for seed in study_seeds:
                    try:
                        _, _, report = train_embedding(t, replace(cfg, embed_dim=dim, seed=seed))
                    except TrainDivergenceError:
                        continue
                    dists.append(report.dist)
                mlp_dist = min(dists) if dists else math.nan
                if math.isfinite(mlp_dist):
                    fit.append((L, mlp_dist))
                csv_rows.append([L, dim, _fmt(mlp_dist), "ok" if dists else "diverged",
                                 _fmt(hnn_dist), hnn_status])
            # the leaf counts are distinct, so two rows give a slope
            exponents[str(dim)] = (
                float(np.polyfit(np.log([L for L, _ in fit]), np.log([d for _, d in fit]), 1)[0])
                if len(fit) >= 2 else None
            )

        _write_csv(
            out_csv,
            ["L", "dim", "mlp_dist", "mlp_status", "hnn_dist", "hnn_status"],
            csv_rows,
        )
        hnn_finite = [d for _, _, d, _ in spiders if math.isfinite(d)]
        summary = {
            "lambda": args.lam,
            "fitted_exponent_per_dim": exponents,
            "hnn_max_dist": max(hnn_finite) if hnn_finite else None,
        }
        _write_json(out_summary, summary)
        written += [out_csv, out_summary]

    def show(x, spec):
        return "undefined" if x is None else format(x, spec)

    for dim in dims:
        print(f"dim={dim} fitted_exponent={show(exponents[str(dim)], '.4g')}")
    print(f"hnn_max_dist={show(summary['hnn_max_dist'], '.6g')} (lambda={args.lam:g})")
    return EXIT_OK


# ----------------------------------------------------------------------
# parser / entry point
# ----------------------------------------------------------------------

def _seed(text: str) -> int:
    value = int(text)
    if value < 0:
        raise argparse.ArgumentTypeError(f"seed must be >= 0, got {value}")
    return value


def _build_parser() -> argparse.ArgumentParser:
    common = argparse.ArgumentParser(add_help=False)
    common.add_argument("--seed", type=_seed, default=0, help="top-level seed for all streams")
    common.add_argument("--out-dir", default=".", help="directory for outputs")

    def train_flags(*skip):
        parent = argparse.ArgumentParser(add_help=False)
        for flag, field, kwargs in TRAIN_FLAGS:
            if field not in skip:
                # the CLI trains for 10 epochs unless told otherwise; TrainConfig, so a grid, for 20
                default = 10 if field == "epochs" else getattr(TrainConfig, field)
                parent.add_argument(flag, dest=field, default=default, **kwargs)
        return parent

    p = argparse.ArgumentParser(
        prog="hyptree",
        description="trees, hyperbolic embeddings, and distance-regression experiments",
    )
    sub = p.add_subparsers(dest="command", required=True)

    g = sub.add_parser("gen", parents=[common], help="generate a tree with layout")
    g.add_argument("--kind", choices=["binary", "ternary", "random"], required=True)
    g.add_argument("--depth", type=int, help="depth for binary/ternary")
    g.add_argument("--n", type=int, help="node count for random")
    g.add_argument("--layout-dim", type=int, default=2)
    g.add_argument("-o", "--output", help="tree JSON filename")
    g.set_defaults(func=cmd_gen)

    e = sub.add_parser("embed", parents=[common], help="curvature selection for a tree")
    e.add_argument("tree", help="tree JSON file")
    e.add_argument("--lambda", dest="lam", type=float, required=True,
                   help="distortion target (> 1)")
    e.add_argument("--realize-hnn", action="store_true",
                   help="also memorize the embedding into a hyperbolic network")
    e.add_argument("-o", "--output", help="embedding JSON filename")
    e.set_defaults(func=cmd_embed)

    t = sub.add_parser("train", parents=[common, train_flags()],
                       help="fit a model to tree pair distances")
    t.add_argument("tree", help="tree JSON file with layout")
    t.add_argument("--model", choices=["mlp", "hnn"], default="mlp")
    t.set_defaults(func=cmd_train)

    gr = sub.add_parser("grid", parents=[common], help="run an experiment grid")
    gr.add_argument("config", help="experiment config JSON")
    gr.add_argument("--svg", action="store_true", help="emit per-model heatmaps")
    gr.add_argument("--threads", type=int, default=1,
                    help="worker processes for grid rows, at most min(rows, CPUs)")
    gr.set_defaults(func=cmd_grid)

    lb = sub.add_parser("lowerbound", parents=[common, train_flags("embed_dim")],
                        help="trained-MLP distortion growth vs constructive embeddings")
    lb.add_argument("--leaves", default="8,16,32,64",
                    help="comma-separated spider leaf counts")
    lb.add_argument("--dims", default="2", help="comma-separated embed dims")
    lb.add_argument("--lambda", dest="lam", type=float, default=1.1,
                    help="distortion target for the constructive column")
    lb.add_argument("--study-seeds", default="0,1,2",
                    help="seeds per study cell (comma-separated)")
    lb.set_defaults(func=cmd_lowerbound)
    return p


def main(argv=None) -> int:
    args = _build_parser().parse_args(argv)
    try:
        return args.func(args)
    except (UsageError, TreeError, TrainError) as exc:
        print(f"error: {exc}", file=sys.stderr)
        return EXIT_USAGE


if __name__ == "__main__":
    sys.exit(main())
