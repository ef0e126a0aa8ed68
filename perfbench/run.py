"""hyptree benchmark: CLI workloads timed end to end, and one traced run per workload.

Usage (from the repository root):

    python3 perfbench/run.py --workload NAME --seed N --seconds S --trace 0|1

Each workload runs ``python -m hyptree.cli ...`` in a subprocess, one run at a
time, on inputs made from ``--seed``, repeating the same command until
``--seconds`` have passed. End-to-end metrics are medians over those runs.
With ``--trace 1`` one more run goes through ``perfbench/traced.py``, which
wraps the layer functions in-process; its counters give the per-layer
metrics. Every run's outputs are checked (see ``check_*``); a run that fails
a check is counted in ``failed``, never retried. The last stdout line is the
result JSON; the line before it records provenance. ``perfbench/NOTES.md``
explains the workloads and metrics.
"""

from __future__ import annotations

import argparse
import csv
import hashlib
import importlib.util
import json
import math
import os
import platform
import shutil
import signal
import statistics
import subprocess
import sys
import threading
import time
from dataclasses import dataclass
from pathlib import Path

import numpy as np

HERE = Path(__file__).resolve().parent
ROOT = HERE.parent
SRC = ROOT / "src"
WORK = ROOT / ".perfbench_work"

SETUP_REPEATS = 5
DEADLINE_S = 170.0  # every run ends within 3 minutes
BLAS_VARS = ("OMP_NUM_THREADS", "OPENBLAS_NUM_THREADS", "MKL_NUM_THREADS",
             "BLIS_NUM_THREADS", "VECLIB_MAXIMUM_THREADS", "NUMEXPR_NUM_THREADS")


@dataclass(frozen=True)
class Workload:
    """One benchmark input set. ``trees`` are (kind, depth or n) specs."""

    name: str
    command: str  # "embed" or "grid"
    trees: tuple
    lam: float = 1.1
    models: tuple = ()
    epochs: int = 1
    max_pairs: int | None = None
    pairs: str = "train"  # what pairs_per_s counts: certified, train or metric
    grid_seed: int | None = None  # grid --seed (trees, layouts); None: the workload seed


# Grids run as one process: the --threads 2 workload was too unsteady to keep.
GRID_THREADS = 1
WORKLOADS = {
    w.name: w
    for w in (
        Workload("embed-scan", "embed", (("binary", 7),), pairs="certified"),
        Workload("grid-train", "grid", (("binary", 6), ("ternary", 5)),
                 models=("mlp", "hnn"), epochs=2),
        # A random tree's diameter sets the metric's cost, so its seed is fixed;
        # the workload seed still sets the training seed.
        Workload("grid-bigtree", "grid", (("random", 1000),), models=("mlp",),
                 max_pairs=2048, pairs="metric", grid_seed=0),
    )
}

END_TO_END_UNITS = {
    "wall_s": "s",
    "cpu_s": "s",
    "peak_rss_mb": "MB",
    "setup_s": "s",
    "pairs_per_s": "1/s",
    "success_rate": "frac",
}

# stats kept from each wrapped function: calls, s (total) and self_s
SPAN_STATS = {
    "cli.main": ("s", "self_s"),
    "trees.spring_layout": ("calls", "s", "self_s"),
    "trees.tree_metric": ("calls", "s", "self_s"),
    "trees.TreeMetric.dist": ("calls", "s", "self_s"),
    "kernels.fr_step": ("calls", "s"),
    "kernels.tree_metric_all_pairs": ("calls", "s", "self_s"),
    "kernels.pairwise_euclidean": ("calls", "s", "self_s"),
    "kernels.pairwise_hyperboloid": ("calls", "s", "self_s"),
    "kernels.ratio_bounds": ("calls", "s", "self_s"),
    "embed.choose_curvature": ("calls", "s", "self_s"),
    "embed.sarkar_embed": ("calls",),
    "embed.embedding_distance": ("calls", "s", "self_s"),
    "embed.hnn_realize": ("s",),
    "networks.memorize_hnn": ("s",),
    "train.train_embedding": ("calls", "s", "self_s"),
    "train.grad": ("calls", "s"),
    "autodiff.Tape.backward": ("calls", "s"),
    "hypgeom.project_to_hyperboloid": ("calls", "s"),
}
DERIVED_UNITS = {
    "cli.outputs.bytes": "B",
    "kernels.fr_step.bytes": "B_computed",
    "trees.tree_metric.unique_frac": "frac",
    "embed.scan.wasted_pair_frac": "frac",
    "train.grad.pairs": "count",
    "train.grad.row_redundancy": "ratio",
    "train.forward.s": "s",
    "autodiff.tape.nodes": "nodes/step",
    "autodiff.tape.bytes": "B/step",
    "test_mse": "sq_tree_unit",
    "distortion": "ratio",
    "emb_bad_pair_frac": "frac",
    "trace.wall_s": "s",
    "trace.overhead_frac": "frac",
}
_STAT_UNITS = {"calls": "count", "s": "s", "self_s": "s"}
PER_LAYER_UNITS = {
    **{f"{fn}.{stat}": _STAT_UNITS[stat] for fn, stats in SPAN_STATS.items() for stat in stats},
    **DERIVED_UNITS,
}


class HarnessError(RuntimeError):
    """No result can be given: no timed run passed its checks, or the traced run failed."""


# ----------------------------------------------------------------------
# Running one command
# ----------------------------------------------------------------------

@dataclass
class Proc:
    code: int
    wall_s: float
    cpu_s: float
    rss_mb: float


def child_env() -> dict:
    env = {k: v for k, v in os.environ.items() if not k.startswith("HYPTREE_")}
    env["PYTHONPATH"] = os.pathsep.join(filter(None, [str(SRC), os.environ.get("PYTHONPATH")]))
    return env


def run_proc(argv: list, log: Path, timeout: float) -> Proc:
    """Run argv to completion; CPU time and peak RSS come from wait4.

    On timeout the whole process group is killed and the run is a failure.
    """
    with open(log, "w") as out:
        t0 = time.perf_counter()
        proc = subprocess.Popen([str(a) for a in argv], cwd=ROOT, env=child_env(), stdout=out,
                                stderr=subprocess.STDOUT, start_new_session=True)
        timer = threading.Timer(max(timeout, 1.0), os.killpg, (proc.pid, signal.SIGKILL))
        timer.start()
        try:
            _, status, usage = os.wait4(proc.pid, 0)
        except BaseException:  # interrupted (SIGTERM exits via SystemExit): stop the child too
            os.killpg(proc.pid, signal.SIGKILL)
            os.wait4(proc.pid, 0)
            raise
        finally:
            timer.cancel()
        wall = time.perf_counter() - t0
    proc.returncode = code = os.waitstatus_to_exitcode(status)
    return Proc(code, wall, usage.ru_utime + usage.ru_stime, usage.ru_maxrss / 1024.0)


def cli_argv(*args) -> list:
    return [sys.executable, "-m", "hyptree.cli", *args]


def digest(directory: Path) -> dict:
    return {
        str(p.relative_to(directory)): hashlib.sha256(p.read_bytes()).hexdigest()
        for p in sorted(directory.rglob("*")) if p.is_file()
    }


# ----------------------------------------------------------------------
# Inputs and the benchmark's own reference computations
# ----------------------------------------------------------------------

def tree_size(spec) -> int:
    kind, size = spec
    branching = {"binary": 2, "ternary": 3}.get(kind)
    return (branching ** (size + 1) - 1) // (branching - 1) if branching else size


def grid_config(w: Workload, seed: int) -> dict:
    train = {"epochs": w.epochs}
    if w.max_pairs is not None:
        train["max_pairs"] = w.max_pairs
    return {
        "trees": [{"kind": k, ("n" if k == "random" else "depth"): s} for k, s in w.trees],
        "dims": [2],
        "models": list(w.models),
        "seeds": [seed],
        "train": train,
    }


def train_pairs_per_row(n: int, w: Workload) -> int:
    """Training pairs per epoch, by the grid's pair policy and 10% hold-out."""
    used = min(n * (n - 1) // 2, w.max_pairs or 50 * n)
    return used - used // 10


def tree_distances(tree_doc: dict) -> tuple[list, np.ndarray]:
    """All-pairs path lengths by one traversal per source (independent of hyptree)."""
    ids = [node["id"] for node in tree_doc["nodes"]]
    index = {v: k for k, v in enumerate(ids)}
    adj = {v: [] for v in ids}
    for e in tree_doc["edges"]:
        adj[e["u"]].append((e["v"], e["w"]))
        adj[e["v"]].append((e["u"], e["w"]))
    out = np.zeros((len(ids), len(ids)))
    for src in ids:
        dist = {src: 0.0}
        stack = [src]
        while stack:
            v = stack.pop()
            for nb, wt in adj[v]:
                if nb not in dist:
                    dist[nb] = dist[v] + wt
                    stack.append(nb)
        row = out[index[src]]
        for v, d in dist.items():
            row[index[v]] = d
    return ids, out


def embedding_quality(tree_doc: dict, emb_doc: dict, lam: float) -> dict:
    """Pair checks on the written float64 points, at unit curvature scaled by tau.

    d = 2 asinh(sqrt(q)/2) with q the Minkowski square of the difference, the
    stable form. A pair is bad when d/tau leaves [d_T/lam, lam d_T].
    """
    ids, d_tree = tree_distances(tree_doc)
    pts = np.array([emb_doc["points"][str(v)] for v in ids], dtype=np.float64)
    tau = math.sqrt(-float(emb_doc["kappa"]))
    iu, ju = np.triu_indices(len(ids), k=1)
    diff = pts[iu] - pts[ju]
    q = np.sum(diff[:, :-1] ** 2, axis=1) - diff[:, -1] ** 2
    d = 2.0 * np.arcsinh(0.5 * np.sqrt(np.maximum(q, 0.0))) / tau
    dt = d_tree[iu, ju]
    bad = (d < dt / lam) | (d > lam * dt)
    return {"bad_pair_frac": float(np.mean(bad)), "mse": float(np.mean((d - dt) ** 2))}


# ----------------------------------------------------------------------
# Output checks; each returns (operations, failures, quality, notes)
# ----------------------------------------------------------------------

def check_embed(w: Workload, out: Path, tree_doc: dict):
    notes = []
    report = json.loads((out / "embed_report.json").read_text())
    emb = json.loads((out / "embedding.json").read_text())
    if report["kappa"] != -report["tau"] ** 2:
        notes.append(f"kappa {report['kappa']} != -tau^2 for tau {report['tau']}")
    if report["injective"] is not True:
        notes.append("embedding reported not injective")
    if not report["dist"] <= w.lam:
        notes.append(f"dist {report['dist']} > lambda {w.lam}")
    if len(emb["points"]) != len(tree_doc["nodes"]) or emb["kappa"] != report["kappa"]:
        notes.append("embedding.json does not match the tree or the report")
    if not (out / "hnn_params.json").is_file():
        notes.append("hnn_params.json missing")
    quality = embedding_quality(tree_doc, emb, w.lam)
    quality["distortion"] = report["dist"]
    return 1, int(bool(notes)), quality, notes


def check_grid(w: Workload, out: Path, seed: int):
    with open(out / "grid_results.csv", newline="") as fh:
        rows = list(csv.DictReader(fh))
    expected = [(tree_size(t), m) for t in w.trees for m in w.models]
    if len(rows) != len(expected):
        return len(expected), len(expected), None, [f"{len(rows)} rows, expected {len(expected)}"]
    notes = [
        f"row {row}" for row, (n, model) in zip(rows, expected)
        if row["status"] != "ok" or int(row["n_nodes"]) != n or row["model"] != model
        or int(row["seed"]) != seed or not math.isfinite(float(row["test_mse"]))
    ]
    dists = [float(r["dist"]) for r in rows if math.isfinite(float(r["dist"]))]
    quality = {
        "mse": statistics.fmean(float(r["test_mse"]) for r in rows),
        "distortion": statistics.median(dists) if dists else 0.0,
        "bad_pair_frac": 0.0,
    }
    return len(expected), len(notes), quality, notes


# ----------------------------------------------------------------------
# One benchmark run
# ----------------------------------------------------------------------

def pairs_per_op(w: Workload) -> int:
    """Pairs one run of the workload handles; pairs_per_s divides this by wall time."""
    if w.pairs in ("certified", "metric"):
        return sum(tree_size(t) * (tree_size(t) - 1) // 2 for t in w.trees)
    per_epoch = sum(train_pairs_per_row(tree_size(t), w) for t in w.trees) * len(w.models)
    return per_epoch * w.epochs


def provenance(w: Workload) -> dict:
    git = None
    if (ROOT / ".git").exists():
        res = subprocess.run(["git", "rev-parse", "HEAD"], cwd=ROOT, capture_output=True, text=True)
        git = res.stdout.strip() or None
    src = hashlib.sha256()
    for p in sorted(SRC.rglob("*.py")):
        src.update(str(p.relative_to(SRC)).encode() + b"\0" + p.read_bytes())
    return {
        "git_sha": git or "unknown (not a git checkout)",
        "src_sha256": src.hexdigest(),
        "nproc": os.cpu_count(),
        "cpus_usable": len(os.sched_getaffinity(0)),
        "grid_threads": GRID_THREADS if w.command == "grid" else None,
        "blas_env": {v: os.environ.get(v, "unset (library default)") for v in BLAS_VARS},
        "python": platform.python_version(),
        "numpy": np.__version__,
        "numba": "absent: every run uses the numpy kernels"
        if importlib.util.find_spec("numba") is None else "installed",
        "machine": platform.machine(),
    }


class Run:
    """One benchmark run: set-up, the timed loop, and optionally the traced run."""

    def __init__(self, w: Workload, seed: int, run_dir: Path):
        self.w, self.seed, self.dir = w, seed, run_dir
        self.deadline = time.perf_counter() + DEADLINE_S
        self.attempted = self.failed = 0
        self.notes = []
        self.reference = None  # output digest of the first run; every rerun must match
        self.tree_doc = None
        self.args = None  # the timed command, set by setup()

    def count(self, ops: int, failures: int, notes=()):
        self.attempted += ops
        self.failed += failures
        self.notes += list(notes)

    def proc(self, argv: list, log: Path) -> Proc:
        return run_proc(argv, log, self.deadline - time.perf_counter())

    def setup(self) -> list:
        """Make the inputs SETUP_REPEATS times; they must be byte-identical.

        embed: ``gen`` writes the tree. grid: the config is written and the
        program is started once with ``--help``, so every workload's set-up
        includes one program start.
        """
        w, times, digests = self.w, [], []
        for k in range(SETUP_REPEATS):
            d = self.dir / f"setup{k}"
            d.mkdir()
            t0 = time.perf_counter()
            if w.command == "embed":
                kind, depth = w.trees[0]
                p = self.proc(cli_argv("gen", "--kind", kind, "--depth", depth, "--seed", self.seed,
                                       "--out-dir", d, "-o", "tree.json"), self.dir / f"setup{k}.log")
            else:
                (d / "grid.json").write_text(json.dumps(grid_config(w, self.seed), indent=1) + "\n")
                p = self.proc(cli_argv("--help"), self.dir / f"setup{k}.log")
            times.append(time.perf_counter() - t0)
            digests.append(digest(d))
            self.count(1, int(p.code != 0), [f"set-up {k}: exit {p.code}"] if p.code else [])
        if any(dg != digests[0] for dg in digests):
            self.count(0, 1, ["set-up outputs differ between repeats"])
        inputs = self.dir / "setup0"
        if w.command == "embed":
            self.tree_doc = json.loads((inputs / "tree.json").read_text())
            self.args = ["embed", inputs / "tree.json", "--lambda", w.lam, "--realize-hnn",
                         "--seed", self.seed]
        else:
            grid_seed = self.seed if w.grid_seed is None else w.grid_seed
            self.args = ["grid", inputs / "grid.json", "--seed", grid_seed, "--threads", GRID_THREADS]
        return times

    def check(self, p: Proc, out: Path, what: str):
        """Count the run's operations and failures; return its quality figures if it passed."""
        w = self.w
        ops = 1 if w.command == "embed" else len(w.trees) * len(w.models)
        if p.code != 0:
            self.count(ops, ops, [f"{what}: exit {p.code}"])
            return None
        try:
            if w.command == "embed":
                ops, failures, quality, notes = check_embed(w, out, self.tree_doc)
            else:
                ops, failures, quality, notes = check_grid(w, out, self.seed)
        except (OSError, KeyError, ValueError) as exc:
            self.count(ops, ops, [f"{what}: unreadable output ({exc!r})"])
            return None
        dg = digest(out)
        if self.reference is None:
            self.reference = dg
        elif dg != self.reference:
            failures, notes = ops, notes + ["outputs differ from the first run's"]
        self.count(ops, failures, [f"{what}: {n}" for n in notes])
        return None if failures else quality

    def timed(self, seconds: float) -> tuple[list, list]:
        """Rerun the command until ``seconds`` have passed; return (all runs, passed runs)."""
        runs, passed = [], []
        t0 = time.perf_counter()
        while not runs or time.perf_counter() - t0 < seconds:
            out = self.dir / f"run{len(runs)}"
            p = self.proc(cli_argv(*self.args, "--out-dir", out), self.dir / f"run{len(runs)}.log")
            if self.check(p, out, f"run {len(runs)}") is not None:
                passed.append(p)
            shutil.rmtree(out, ignore_errors=True)
            runs.append(p)
            if p.code != 0 or self.deadline - time.perf_counter() < 2 * p.wall_s:
                break
        return runs, passed

    def traced(self, untraced_wall: float) -> dict:
        out, stats_path = self.dir / "traced", self.dir / "stats.json"
        p = self.proc([sys.executable, HERE / "traced.py", stats_path, "--",
                       *self.args, "--out-dir", out], self.dir / "traced.log")
        quality = self.check(p, out, "traced run")
        if quality is None:
            raise HarnessError("the traced run failed: " + "; ".join(self.notes[-3:]))
        stats = json.loads(stats_path.read_text())
        layer = per_layer(stats, p.wall_s, untraced_wall)
        layer["cli.outputs.bytes"] = float(sum(f.stat().st_size for f in out.rglob("*") if f.is_file()))
        layer["test_mse"] = quality["mse"]
        layer["distortion"] = quality["distortion"]
        layer["emb_bad_pair_frac"] = quality["bad_pair_frac"]
        layer["kernel_backend"] = stats["kernel_backend"]
        return layer


def measure(w: Workload, seed: int, seconds: float, trace: bool, run_dir: Path) -> dict:
    """One benchmark run; the record holds the result fields and the raw samples."""
    run = Run(w, seed, run_dir)
    setup_times = run.setup()
    runs, ok = run.timed(seconds)
    if not ok:
        raise HarnessError("no run of the workload passed its checks: " + "; ".join(run.notes[:5]))
    wall = statistics.median(p.wall_s for p in ok)
    record = {"samples": [vars(p) for p in runs], "setup_times": setup_times}
    if trace:
        metrics, units = run.traced(wall), PER_LAYER_UNITS
        record["kernel_backend"] = metrics.pop("kernel_backend")
    else:
        units = END_TO_END_UNITS
        metrics = {
            "wall_s": wall,
            "cpu_s": statistics.median(p.cpu_s for p in ok),
            "peak_rss_mb": statistics.median(p.rss_mb for p in ok),
            "setup_s": statistics.median(setup_times),
            "pairs_per_s": statistics.median(pairs_per_op(w) / p.wall_s for p in ok),
            "success_rate": (run.attempted - run.failed) / run.attempted,
        }
    record.update(attempted=run.attempted, failed=run.failed, notes=run.notes,
                  metrics={k: {"value": float(metrics[k]), "unit": u} for k, u in units.items()})
    return record


def per_layer(stats: dict, traced_wall: float, untraced_wall: float) -> dict:
    spans, counters = stats["spans"], stats["counters"]

    def stat(fn, i):
        return float(spans.get(fn, [0, 0.0, 0.0])[i])

    out = {}
    for fn, kept in SPAN_STATS.items():
        for name in kept:
            out[f"{fn}.{name}"] = stat(fn, ("calls", "s", "self_s").index(name))

    def ratio(a, b):
        return a / b if b else 0.0

    steps = counters.get("tape.steps", 0.0)
    out.update({
        "kernels.fr_step.bytes": counters.get("fr_step.bytes", 0.0),
        "trees.tree_metric.unique_frac": ratio(stats["tree_keys"], stat("trees.tree_metric", 0)),
        "embed.scan.wasted_pair_frac": ratio(counters.get("scan.wasted_pairs", 0.0),
                                             counters.get("scan.pairs", 0.0)),
        "train.grad.pairs": counters.get("grad.pairs", 0.0),
        "train.grad.row_redundancy": ratio(counters.get("grad.rows", 0.0),
                                           counters.get("grad.distinct_rows", 0.0)),
        "train.forward.s": stat("train.grad", 1) - stat("autodiff.Tape.backward", 1),
        "autodiff.tape.nodes": ratio(counters.get("tape.nodes", 0.0), steps),
        "autodiff.tape.bytes": ratio(counters.get("tape.bytes", 0.0), steps),
        "trace.wall_s": traced_wall,
        "trace.overhead_frac": traced_wall / untraced_wall - 1.0,
    })
    return out


def main(argv=None) -> int:
    ap = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    ap.add_argument("--workload", required=True, choices=sorted(WORKLOADS))
    ap.add_argument("--seed", type=int, required=True)
    ap.add_argument("--seconds", type=float, required=True)
    ap.add_argument("--trace", type=int, choices=(0, 1), default=0)
    args = ap.parse_args(argv)
    signal.signal(signal.SIGTERM, lambda *_: sys.exit(128 + signal.SIGTERM))
    if not (SRC / "hyptree" / "cli.py").is_file():
        print(f"error: the program is missing ({SRC / 'hyptree'} not found)", file=sys.stderr)
        return 2
    w = WORKLOADS[args.workload]
    run_dir = WORK / f"{w.name}-seed{args.seed}-trace{args.trace}-{os.getpid()}"
    shutil.rmtree(run_dir, ignore_errors=True)
    run_dir.mkdir(parents=True)
    try:
        record = measure(w, args.seed, args.seconds, bool(args.trace), run_dir)
    except HarnessError as exc:
        print(f"error: {exc}", file=sys.stderr)
        return 1
    finally:
        shutil.rmtree(run_dir, ignore_errors=True)
    record["provenance"] = provenance(w)
    record["workload"] = {"name": w.name, "seed": args.seed, "seconds": args.seconds,
                          "trace": args.trace}
    (WORK / f"last-{w.name}-trace{args.trace}.json").write_text(json.dumps(record, indent=1) + "\n")
    for note in record["notes"]:
        print(f"check failed: {note}", file=sys.stderr)
    print(json.dumps({"provenance": record["provenance"]}))
    print(json.dumps({
        "correct": record["failed"] == 0,
        "attempted": record["attempted"],
        "failed": record["failed"],
        "metrics": record["metrics"],
    }))
    return 0


if __name__ == "__main__":
    sys.exit(main())
