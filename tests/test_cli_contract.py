"""The CLI contract, checked on drawn inputs: near-valid tree files, grid
configs and flag values go through ``cli.main`` in this process.

Whatever the input, a command
- exits 0, 2, 3 or 4, and no exception escapes it;
- at exit 2 prints one ``error:`` line and creates no output directory,
  and a tree file that lacks a key, or holds a list, gets a line naming it;
- writes strict JSON only, with no NaN or Infinity;
- lists in its manifest exactly the other files of its output directory;
- at exit 0 reports every number finite, or null where it has none. A
  grid row that did not train reports NaN in its CSV, and an ok row whose
  map is not injective reports its distortion as inf there.

Examples are derandomized, so the suite stays deterministic. Trees keep to
at most 15 nodes, training to one epoch, and a grid to at most two worker
processes; larger ``--threads`` values go through ``resolve_threads`` alone,
which starts none.
"""

import contextlib
import csv
import functools
import io
import json
import math
import os
import tempfile
from pathlib import Path

import pytest
from hypothesis import HealthCheck, example, given, settings
from hypothesis import strategies as st

from hyptree import cli
from hyptree.trees import gen_binary, gen_random, gen_ternary, spring_layout, tree_to_dict

CONTRACT = settings(derandomize=True, database=None, deadline=None, max_examples=100,
                    suppress_health_check=[HealthCheck.too_slow])

# values that sit at or past the edge of what a field holds
EDGE_NUMBERS = [0, -1, 5e-324, 1e-300, 1e154, 1e200, 1e308, math.nan, math.inf]
WRONG_TYPES = ["1", True, None, [1]]


@functools.lru_cache(maxsize=None)
def laid_out(kind, size, seed):
    """The JSON text of a generated tree with its spring layout."""
    t = {"binary": gen_binary, "ternary": gen_ternary}[kind](size) if kind != "random" \
        else gen_random(size, seed)
    spring_layout(t, dim=2, seed=seed)
    return json.dumps(tree_to_dict(t))


def tree_doc(recipe):
    """The tree file of a recipe (kind, size, layout seed, mutations), and the
    messages that name what its mutations took away: each dropped key with
    the object that lacks it, or, for a file that holds a list, the object."""
    kind, size, seed, mutations = recipe
    doc = json.loads(laid_out(kind, size, seed))
    nodes, edges = doc["nodes"], doc["edges"]
    dropped = []
    for what, i, j, value in mutations:
        node, edge = nodes[i % len(nodes)], edges[i % len(edges)] if edges else {}
        if what == "weight":
            edge["w"] = value
        elif what == "coord":
            node["coords"][j % len(node["coords"])] = value
        elif what == "coords":  # a node without a layout row, or with a longer one
            node["coords"] = [] if j % 2 else node["coords"] + [0.5]
        elif what == "id":
            node["id"] = value
        elif what == "same-coords":
            node["coords"] = list(nodes[j % len(nodes)]["coords"])
        elif what == "drop-edge":
            edges[:] = [e for e in edges if e is not edge]
        elif what == "extra-edge":
            edges.append({"u": node["id"], "v": nodes[j % len(nodes)]["id"], "w": 1.0})
        elif what == "drop-key":
            for d in (doc, node, edge):
                if value in d:
                    del d[value]
                    dropped.append((d, value))
    if any(what == "as-list" for what, *_ in mutations):
        return [doc], ["tree file must be a JSON object, got list"]
    # an object is named by where it ends up, and an edge dropped later is named by none
    names = [(doc, "tree file")] + [(n, f"node {k}") for k, n in enumerate(nodes)] + [
        (e, f"edge {k}") for k, e in enumerate(edges)]
    return doc, [f'{name} lacks "{key}"' for d, key in dropped for obj, name in names if obj is d]


@st.composite
def mutations(draw):
    what = draw(st.sampled_from(["weight", "weight", "coord", "coord", "coords", "id",
                                 "same-coords", "drop-edge", "extra-edge", "drop-key",
                                 "as-list"]))
    i, j = draw(st.integers(0, 14)), draw(st.integers(0, 14))
    if what == "drop-key":
        value = draw(st.sampled_from(["nodes", "edges", "id", "coords", "u", "v", "w"]))
    elif what == "id":
        value = draw(st.sampled_from([0, 1, -5, 10**20, 1.5] + WRONG_TYPES))
    else:
        value = draw(st.sampled_from(EDGE_NUMBERS + WRONG_TYPES + [0.5, 2.0, 7.0]))
    return what, i, j, value


@st.composite
def tree_recipes(draw):
    # hypothesis leans toward the first of the sampled values, so the
    # trainable sizes come first
    kind = draw(st.sampled_from(["binary", "ternary", "random"]))
    size = draw(st.sampled_from({"binary": [3, 2, 1, 0], "ternary": [2, 1, 0],
                                 "random": [15, 9, 5, 2, 1]}[kind]))
    changed = draw(st.sampled_from([(), (), (mutations(),), (mutations(), mutations())]))
    return kind, size, draw(st.integers(0, 2)), tuple(draw(m) for m in changed)


def flags(draw, valid, invalid):
    """A flag list: some of the ``valid`` flags, each with one of its values,
    and now and then one flag with a value from ``invalid``."""
    chosen = {k: draw(st.sampled_from(v)) for k, v in valid.items() if draw(st.booleans())}
    if draw(st.integers(0, 3)) == 3:
        k = draw(st.sampled_from(sorted(invalid)))
        chosen[k] = draw(st.sampled_from(invalid[k]))
    return [str(x) for k, v in sorted(chosen.items()) for x in ([k] if v is None else [k, v])]


@st.composite
def tree_commands(draw):
    if draw(st.booleans()):
        lam = draw(st.sampled_from([1.001, 1.1, 1.1, 1.5, 2.0, 1e308]))
        return ["embed", "--lambda", str(lam)] + flags(
            draw, {"--realize-hnn": [None], "--seed": [0, 1]},
            {"--lambda": [1.0, -1.0, "nan", "inf"], "--seed": [-1]})
    width, depth = draw(st.integers(1, 4)), draw(st.integers(1, 2))
    return ["train", "--model", draw(st.sampled_from(["mlp", "hnn"])), "--epochs", "1",
            "--width", str(width), "--hidden-layers", str(depth)] + flags(
        draw, {"--lr": [1e-3, 1e-2, 1.0, 1e6, 1e308], "--batch-size": [1, 8, 4096],
               "--max-pairs": [1, 5], "--embed-dim": [1, 3], "--optimizer": ["sgd", "adam"],
               "--batch-norm": [None], "--seed": [0, 1]},
        {"--lr": [0.0, -1.0, "nan", "inf"], "--batch-size": [0], "--max-pairs": [0],
         "--epochs": [0], "--width": [0], "--seed": [-1]})


@st.composite
def grid_docs(draw):
    """A valid grid config, and then, now and then, one field out of place."""
    def spec():
        kind = draw(st.sampled_from(["binary", "ternary", "random"]))
        if kind == "random":
            return {"kind": kind, "n": draw(st.integers(2, 15))}
        return {"kind": kind, "depth": draw(st.integers(1, 2))}

    def some(values):
        return draw(st.lists(st.sampled_from(values), min_size=1, max_size=2, unique=True))

    doc = {
        "trees": [spec() for _ in range(draw(st.integers(1, 2)))],
        "dims": some([1, 2, 3]),
        "models": some(["mlp", "hnn"]),
        "seeds": some([0, 1]),
        "train": {"epochs": 1, "hidden_layers": 1, "hidden_width": 4},
    }
    doc["train"].update(draw(st.fixed_dictionaries({}, optional={
        "learning_rate": st.sampled_from([1e-2, 1.0, 1e6, 1e308]),
        "batch_size": st.sampled_from([1, 8, 4096]),
        "max_pairs": st.sampled_from([1, 5]),
        "optimizer": st.sampled_from(["sgd", "adam"]),
        "batch_norm": st.sampled_from([True, False]),
    })))
    fault = draw(st.sampled_from([None, None, "trees", "tree", "dims", "models", "seeds", "train",
                                  "output_dir"]))
    wrong = draw(st.sampled_from(WRONG_TYPES + [[], 0, -1, 2.5, math.nan, 10**400]))
    if fault == "tree":
        spec = doc["trees"][0]
        spec[draw(st.sampled_from(sorted(spec) + ["n", "depth"]))] = wrong
    elif fault == "train":
        key = draw(st.sampled_from(["epochs", "learning_rate", "batch_size", "max_pairs",
                                    "optimizer", "batch_norm", "embed_dim", "seed", "bogus"]))
        doc["train"][key] = wrong
    elif fault in ("dims", "models", "seeds"):
        # a wrong value in the list, a repeated one, or no list at all
        doc[fault] = draw(st.sampled_from([doc[fault] + [wrong], doc[fault] * 2, wrong]))
    elif fault is not None:
        doc[fault] = wrong
    return doc


def strict_json(path):
    def reject(name):
        raise AssertionError(f"{path.name}: {name} is not JSON")

    with open(path) as fh:
        return json.load(fh, parse_constant=reject)


def numbers(doc):
    """Every number in a JSON document, booleans aside."""
    if isinstance(doc, dict):
        doc = list(doc.values())
    if isinstance(doc, list):
        return [x for item in doc for x in numbers(item)]
    return [doc] if isinstance(doc, (int, float)) and not isinstance(doc, bool) else []


def check_contract(argv, out: Path):
    """Run ``argv`` with ``--out-dir out``, assert the contract, and return
    the exit code and what the command printed to stderr."""
    err = io.StringIO()
    with contextlib.redirect_stdout(io.StringIO()), contextlib.redirect_stderr(err):
        try:
            code = cli.main(argv + ["--out-dir", str(out)])
        except SystemExit as exc:  # argparse rejects the flag, with its usage line
            code = exc.code
    assert code in (0, 2, 3, 4), (argv, err.getvalue())
    if code == 2:
        assert sum("error:" in line for line in err.getvalue().splitlines()) == 1, err.getvalue()
        assert not out.exists(), (argv, err.getvalue(), sorted(os.listdir(out)))
        return code, err.getvalue()
    files = sorted(os.listdir(out))
    manifests = [f for f in files if f.endswith("_manifest.json")]
    assert len(manifests) == 1, files
    listed = strict_json(out / manifests[0])["outputs"]
    assert sorted(listed) == [f for f in files if f != manifests[0]], (argv, err.getvalue())
    docs = [strict_json(out / f) for f in files if f.endswith(".json")]
    if code == 0:
        assert all(math.isfinite(x) for doc in docs for x in numbers(doc)), argv
        for name in (f for f in files if f.endswith(".csv")):
            with open(out / name, newline="") as fh:
                rows = list(csv.DictReader(fh))
            for row in rows:
                if row.get("status", "ok") == "ok":
                    values = [float(v) for k, v in row.items() if k.endswith("mse")]
                    assert all(math.isfinite(v) for v in values), (name, row)
                    assert not math.isnan(float(row.get("dist", 0.0))), (name, row)
                else:
                    assert row["train_mse"] == row["test_mse"] == row["dist"] == "nan", row
    return code, err.getvalue()


# binary(2) laid out at seed 0 with one coordinate at 1e154: every gradient
# entry is finite, but the sum of their squares is not
BIG_COORD = ("binary", 2, 0, (("coord", 3, 1, 1e154),))
ONE_EPOCH = ["--epochs", "1", "--width", "4", "--hidden-layers", "1"]


@CONTRACT
@given(recipe=tree_recipes(), command=tree_commands())
@example(recipe=BIG_COORD, command=["train", "--model", "mlp"] + ONE_EPOCH)
@example(recipe=BIG_COORD, command=["train", "--model", "hnn"] + ONE_EPOCH)
# the squared diameter, summed over the pairs, overflows before any step
@example(recipe=("binary", 1, 0, (("weight", 0, 0, 1e200),)),
         command=["train", "--model", "mlp"] + ONE_EPOCH)
# a file that lacks a key, or holds a list, exits 2 with a line that names it
@example(recipe=("binary", 2, 0, (("drop-key", 4, 0, "u"),)), command=["embed", "--lambda", "1.1"])
@example(recipe=("random", 5, 1, (("drop-key", 2, 0, "coords"), ("drop-key", 0, 0, "edges"))),
         command=["train", "--model", "mlp"] + ONE_EPOCH)
@example(recipe=("ternary", 1, 0, (("as-list", 0, 0, None),)), command=["embed", "--lambda", "2.0"])
def test_tree_file_commands_keep_the_contract(recipe, command):
    with tempfile.TemporaryDirectory() as tmp:
        tree = Path(tmp, "t.json")
        doc, missing = tree_doc(recipe)
        tree.write_text(json.dumps(doc))
        code, err = check_contract([command[0], str(tree)] + command[1:], Path(tmp, "out"))
    # argparse rejects a flag value before the file is read, and its usage line says so
    if missing and all(what in ("drop-key", "as-list") for what, *_ in recipe[3]) \
            and "usage:" not in err:
        assert code == 2 and any(m in err for m in missing), (recipe, err)


@CONTRACT
@given(doc=grid_docs(), threads=st.sampled_from([1, 1, 1, 2, 0, -1]), seed=st.integers(0, 1))
def test_grid_configs_keep_the_contract(doc, threads, seed):
    with tempfile.TemporaryDirectory() as tmp:
        config = Path(tmp, "grid.json")
        config.write_text(json.dumps(doc))
        check_contract(["grid", str(config), "--threads", str(threads), "--seed", str(seed)],
                       Path(tmp, "out"))


@settings(derandomize=True, database=None)
@given(requested=st.integers(-10, 10**9), rows=st.integers(1, 10**4))
def test_thread_requests_are_clamped(requested, rows):
    if requested < 1:
        with pytest.raises(cli.UsageError):
            cli.resolve_threads(requested, rows)
        return
    workers = cli.resolve_threads(requested, rows)
    assert 1 <= workers <= min(requested, rows, os.cpu_count() or 1)
