"""Fast check of the benchmark harness at tiny sizes.

Run from the repository root with ``python3 perfbench/test_smoke.py`` (or
``python3 -m pytest perfbench/test_smoke.py``); it takes well under a minute.
Each workload is shrunk to binary(3)-sized trees and one epoch, run once
untraced and once traced, and every metric that ``BENCHMARK.json`` names must
come out with its unit. It also checks that the harness refuses to run, and
prints no result, when the program is missing.
"""

from __future__ import annotations

import json
import shutil
import subprocess
import sys
from dataclasses import replace
from pathlib import Path

sys.path.insert(0, str(Path(__file__).resolve().parent))

import run  # noqa: E402

TINY_TREES = {"embed-scan": (("binary", 3),), "grid-bigtree": (("random", 40),)}


def tiny(w: run.Workload) -> run.Workload:
    return replace(w, trees=TINY_TREES.get(w.name, (("binary", 3), ("ternary", 2))), epochs=1)


def test_every_metric_emitted_with_unit():
    doc = json.loads((run.ROOT / "BENCHMARK.json").read_text())
    assert sorted(w["name"] for w in doc["workloads"]) == sorted(run.WORKLOADS)
    want = {trace: {m["name"]: m["unit"] for m in doc[key]}
            for trace, key in ((False, "end_to_end"), (True, "per_layer"))}
    for w in run.WORKLOADS.values():
        for trace in (False, True):
            run_dir = run.WORK / f"smoke-{w.name}-{int(trace)}"
            shutil.rmtree(run_dir, ignore_errors=True)
            run_dir.mkdir(parents=True)
            try:
                rec = run.measure(tiny(w), seed=3, seconds=0.1, trace=trace, run_dir=run_dir)
            finally:
                shutil.rmtree(run_dir, ignore_errors=True)
            got = {k: v["unit"] for k, v in rec["metrics"].items()}
            assert got == want[trace], (w.name, trace, set(got) ^ set(want[trace]))
            assert rec["failed"] == 0 and rec["attempted"] >= 1, (w.name, rec["notes"])
            assert all(isinstance(v["value"], float) for v in rec["metrics"].values())


def test_refuses_without_program():
    base = run.WORK / "smoke-bare"
    shutil.rmtree(base, ignore_errors=True)
    shutil.copytree(run.HERE, base / run.HERE.name, ignore=shutil.ignore_patterns("__pycache__"))
    shutil.copy(run.ROOT / "BENCHMARK.json", base)
    try:
        res = subprocess.run(
            [sys.executable, f"{run.HERE.name}/run.py", "--workload", "grid-train", "--seed", "1",
             "--seconds", "1", "--trace", "0"],
            cwd=base, capture_output=True, text=True, timeout=60,
        )
    finally:
        shutil.rmtree(base, ignore_errors=True)
    assert res.returncode != 0 and "correct" not in res.stdout, res.stdout


if __name__ == "__main__":
    test_every_metric_emitted_with_unit()
    test_refuses_without_program()
    print("smoke ok")
