"""Run one hyptree CLI command in this process with its layers wrapped from outside.

Usage: python3 perfbench/traced.py STATS_JSON -- <hyptree cli arguments>

``run.py`` starts this script with ``src`` on ``PYTHONPATH``. It imports
``hyptree``, replaces each function in ``TARGETS`` (and every alias of it in
the other hyptree modules) with a timing wrapper, runs ``hyptree.cli.main``,
then puts every original attribute back and checks that no wrapper is left.
STATS_JSON receives, per wrapped function, the call count, the total time and
the self time (total minus the time of wrapped calls made inside it), plus the
layer counters named in ``perfbench/NOTES.md``.

Time spent in the counter hooks themselves is kept out of every span. Only
this process is traced: a command that forks workers (``grid --threads`` > 1)
exits with status 71, since their calls would be missing. Otherwise the exit
status is the CLI's, or 70 when a wrapper survived the restore.
"""

from __future__ import annotations

import functools
import json
import os
import sys
import time
from collections import defaultdict

import numpy as np

from hyptree import autodiff, cli, embed, hypgeom, kernels, networks, train, trees

EXIT_NOT_RESTORED = 70
EXIT_FORKED = 71

# (module, attribute); "Class.method" wraps the method on the class
TARGETS = (
    (cli, "main"),
    (trees, "spring_layout"),
    (trees, "tree_metric"),
    (trees, "TreeMetric.dist"),
    (kernels, "fr_step"),
    (kernels, "tree_metric_all_pairs"),
    (kernels, "pairwise_euclidean"),
    (kernels, "pairwise_hyperboloid"),
    (kernels, "ratio_bounds"),
    (embed, "choose_curvature"),
    (embed, "sarkar_embed"),
    (embed, "embedding_distance"),
    (embed, "hnn_realize"),
    (networks, "memorize_hnn"),
    (train, "train_embedding"),
    (train, "grad"),
    (autodiff, "Tape.backward"),
    (hypgeom, "project_to_hyperboloid"),
)

WRAPPER_MARK = "__perfbench_wrapper__"


def _short(module) -> str:
    return module.__name__.rpartition(".")[2]


def _hyptree_modules():
    return [m for k, m in sorted(sys.modules.items()) if k == "hyptree" or k.startswith("hyptree.")]


class Tracer:
    """Spans and counters of this process."""

    def __init__(self):
        self.patches = []  # (owner, attribute, original)
        self.spans = defaultdict(lambda: [0, 0.0, 0.0])  # calls, s, self_s
        self.counters = defaultdict(float)
        self.tree_keys = set()
        self.stack = []  # wrapped-child time of each open span
        self.excluded = 0.0  # hook time, subtracted from every span it falls in
        self.scan = None  # embedding_distance calls per tau inside choose_curvature
        self.forked = False
        os.register_at_fork(after_in_parent=self._after_fork)

    def _after_fork(self):
        self.forked = True

    # -- wrapping ------------------------------------------------------

    def span(self, name, fn, before=None):
        """Time ``fn`` under ``name``; ``before`` runs untimed on the arguments."""
        clock = time.perf_counter

        @functools.wraps(fn)
        def wrapper(*args, **kwargs):
            if before is not None:
                h0 = clock()
                before(*args, **kwargs)
                self.excluded += clock() - h0
            ex0 = self.excluded
            self.stack.append(0.0)
            t0 = clock()
            try:
                return fn(*args, **kwargs)
            finally:
                dt = clock() - t0 - (self.excluded - ex0)
                child = self.stack.pop()
                if self.stack:
                    self.stack[-1] += dt
                s = self.spans[name]
                s[0] += 1
                s[1] += dt
                s[2] += dt - child

        setattr(wrapper, WRAPPER_MARK, True)
        return wrapper

    def install(self):
        hooks = {
            "kernels.fr_step": self._count_fr_step,
            "trees.tree_metric": self._count_tree,
            "embed.embedding_distance": self._count_scan_pair,
            "train.grad": self._count_grad,
            "autodiff.Tape.backward": self._count_tape,
        }
        for module, attr in TARGETS:
            name = f"{_short(module)}.{attr}"
            if "." in attr:
                cls_name, meth = attr.split(".")
                owner = getattr(module, cls_name)
                orig = owner.__dict__[meth]
                self._patch(owner, meth, orig, self.span(name, orig, hooks.get(name)))
                continue
            orig = getattr(module, attr)
            fn = self._scan_accounting(orig) if name == "embed.choose_curvature" else orig
            wrapper = self.span(name, fn, hooks.get(name))
            for mod in _hyptree_modules():
                for key, value in list(vars(mod).items()):
                    if value is orig:
                        self._patch(mod, key, orig, wrapper)

    def _patch(self, owner, attr, orig, replacement):
        setattr(owner, attr, replacement)
        self.patches.append((owner, attr, orig))

    def restore(self) -> list[str]:
        """Put every original back; return the names of wrappers still reachable."""
        for owner, attr, orig in reversed(self.patches):
            setattr(owner, attr, orig)
        leaked = [
            f"{getattr(owner, '__name__', owner)}.{attr}"
            for owner, attr, orig in self.patches
            if vars(owner).get(attr) is not orig
        ]
        for mod in _hyptree_modules():
            for key, value in vars(mod).items():
                if getattr(value, WRAPPER_MARK, False):
                    leaked.append(f"{mod.__name__}.{key}")
                if isinstance(value, type):
                    leaked += [f"{mod.__name__}.{key}.{m}" for m, v in vars(value).items()
                               if getattr(v, WRAPPER_MARK, False)]
        return sorted(set(leaked))

    # -- counters ------------------------------------------------------

    def _count_fr_step(self, pos, *args, **kwargs):
        n, dim = np.shape(pos)
        self.counters["fr_step.bytes"] += 8.0 * n * n * dim

    def _count_tree(self, t, *args, **kwargs):
        self.tree_keys.add(hash((tuple(t.node_ids), tuple(t.edges))))

    def _count_scan_pair(self, e, *args, **kwargs):
        if self.scan is not None:
            self.scan[e.tau] += 1

    def _count_grad(self, params, x1, x2, *args, **kwargs):
        rows = np.concatenate([np.atleast_2d(x1), np.atleast_2d(x2)])
        self.counters["grad.pairs"] += rows.shape[0] // 2
        self.counters["grad.rows"] += rows.shape[0]
        self.counters["grad.distinct_rows"] += np.unique(rows, axis=0).shape[0]

    def _count_tape(self, tape, *args, **kwargs):
        self.counters["tape.steps"] += 1
        self.counters["tape.nodes"] += len(tape.nodes)
        self.counters["tape.bytes"] += sum(node.value.nbytes for node in tape.nodes)

    def _scan_accounting(self, fn):
        @functools.wraps(fn)
        def scan(*args, **kwargs):
            self.scan = defaultdict(int)
            accepted = None
            try:
                result = fn(*args, **kwargs)
                accepted = result[0].tau
                return result
            finally:
                total = sum(self.scan.values())
                self.counters["scan.pairs"] += total
                self.counters["scan.wasted_pairs"] += total - self.scan.get(accepted, 0)
                self.scan = None

        return scan

    def doc(self) -> dict:
        return {
            "spans": {k: list(v) for k, v in self.spans.items()},
            "counters": dict(self.counters),
            "tree_keys": len(self.tree_keys),
        }


def main(argv: list[str]) -> int:
    if len(argv) < 3 or argv[1] != "--":
        print(__doc__.splitlines()[2], file=sys.stderr)
        return 2
    tracer = Tracer()
    tracer.install()
    try:
        code = cli.main(argv[2:])
    finally:
        leaked = tracer.restore()
    doc = tracer.doc()
    doc["leaked_wrappers"] = leaked
    doc["kernel_backend"] = kernels.ACTIVE_BACKEND
    with open(argv[0], "w") as fh:
        json.dump(doc, fh, indent=1, sort_keys=True)
    if tracer.forked:
        return EXIT_FORKED
    return EXIT_NOT_RESTORED if leaked else code


if __name__ == "__main__":
    sys.exit(main(sys.argv[1:]))
