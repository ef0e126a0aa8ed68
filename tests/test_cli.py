"""End-to-end command tests: exit codes, file schemas, reproducibility."""

import csv
import json
import math
import os
import subprocess
import sys
from dataclasses import asdict, fields, replace
from pathlib import Path

import numpy as np
import pytest

from hyptree import cli, embed, train
from hyptree.embed import distortion_from_matrices
from hyptree.kernels import pairwise_hyperboloid
from hyptree.networks import HnnParams, MlpParams, hnn_forward, load_params
from hyptree.train import TrainConfig, _predict_rows
from hyptree.trees import WeightedTree, gen_binary, load_tree, save_tree, spring_layout, tree_metric


def run(argv):
    return cli.main([str(a) for a in argv])


def read_bytes(path):
    with open(path, "rb") as fh:
        return fh.read()


def read_csv(path):
    with open(path, newline="") as fh:
        return list(csv.reader(fh))


def two_node_file(path):
    t = WeightedTree([0, 1], [(0, 1, 1.0)], coords={0: [0.0, 0.0], 1: [1.0, 0.0]})
    save_tree(t, path)
    return path


def manifest(out_dir, command):
    with open(os.path.join(out_dir, f"{command}_manifest.json")) as fh:
        doc = json.load(fh)
    assert doc["command"] == command
    assert set(doc) == {"command", "config", "library_version", "seed", "outputs"}
    return doc


# ----------------------------------------------------------------------
# gen
# ----------------------------------------------------------------------

class TestGen:
    def test_binary_counts(self, tmp_path, capsys):
        code = run(["gen", "--kind", "binary", "--depth", 3,
                    "--out-dir", tmp_path, "-o", "t.json"])
        assert code == 0
        out = capsys.readouterr().out
        assert "nodes=15" in out and "edges=14" in out and "leaves=8" in out
        t = load_tree(tmp_path / "t.json")
        assert t.n_nodes == 15
        assert all(i in t.coords for i in t.node_ids)
        doc = manifest(tmp_path, "gen")
        assert doc["outputs"] == ["t.json"]

    def test_ternary_counts(self, tmp_path, capsys):
        code = run(["gen", "--kind", "ternary", "--depth", 2, "--out-dir", tmp_path])
        assert code == 0
        out = capsys.readouterr().out
        assert "nodes=13" in out and "leaves=9" in out

    def test_random_determinism(self, tmp_path):
        for sub in ("a", "b"):
            code = run(["gen", "--kind", "random", "--n", 100, "--seed", 7,
                        "--out-dir", tmp_path / sub, "-o", "t.json"])
            assert code == 0
        assert read_bytes(tmp_path / "a" / "t.json") == read_bytes(tmp_path / "b" / "t.json")
        assert read_bytes(tmp_path / "a" / "gen_manifest.json") == read_bytes(
            tmp_path / "b" / "gen_manifest.json"
        )

    def test_missing_depth_is_usage_error(self, tmp_path, capsys):
        code = run(["gen", "--kind", "binary", "--out-dir", tmp_path])
        assert code == 2
        assert "depth" in capsys.readouterr().err

    def test_bad_kind_exits_2(self):
        with pytest.raises(SystemExit) as exc:
            run(["gen", "--kind", "star"])
        assert exc.value.code == 2

    @pytest.mark.parametrize(
        "argv,message",
        [
            (["--kind", "binary", "--depth", -1], "depth >= 0"),
            (["--kind", "random", "--n", 0], "n >= 1"),
            (["--kind", "binary", "--depth", 2, "--layout-dim", 0], "layout-dim"),
        ],
    )
    def test_bad_size_exits_2_before_work(self, tmp_path, capsys, argv, message):
        assert run(["gen", "--out-dir", tmp_path] + argv) == 2
        err = capsys.readouterr().err
        assert message in err and "Traceback" not in err
        assert os.listdir(tmp_path) == []

    def test_negative_seed_exits_2(self, tmp_path):
        with pytest.raises(SystemExit) as exc:
            run(["gen", "--kind", "binary", "--depth", 2, "--seed", -1, "--out-dir", tmp_path])
        assert exc.value.code == 2


# ----------------------------------------------------------------------
# embed
# ----------------------------------------------------------------------

class TestEmbed:
    def test_single_edge(self, tmp_path, capsys):
        tree = two_node_file(tmp_path / "t.json")
        code = run(["embed", tree, "--lambda", 1.5, "--out-dir", tmp_path])
        assert code == 0
        out = capsys.readouterr().out
        dist = float(out.split("dist=")[1].split()[0])
        assert dist <= 1.5
        emb = json.load(open(tmp_path / "embedding.json"))
        assert sorted(emb["points"]) == ["0", "1"]

    def test_binary6_meets_target(self, tmp_path, capsys):
        t = gen_binary(6)
        save_tree(t, tmp_path / "t.json")
        code = run(["embed", tmp_path / "t.json", "--lambda", 1.1, "--out-dir", tmp_path])
        assert code == 0
        dist = float(capsys.readouterr().out.split("dist=")[1].split()[0])
        assert dist <= 1.21

    def test_realize_hnn_roundtrip(self, tmp_path, capsys):
        t = gen_binary(4)
        spring_layout(t, dim=2, seed=0)
        save_tree(t, tmp_path / "t.json")
        code = run(["embed", tmp_path / "t.json", "--lambda", 1.1,
                    "--realize-hnn", "--out-dir", tmp_path])
        assert code == 0
        out = capsys.readouterr().out
        assert "par=" in out
        reported = json.load(open(tmp_path / "embed_report.json"))["dist"]
        params = load_params(tmp_path / "hnn_params.json")
        assert isinstance(params, HnnParams)
        metric = tree_metric(t)
        pts = np.stack([hnn_forward(params, t.coords[i]).coords for i in metric.ids])
        rep = distortion_from_matrices(
            pairwise_hyperboloid(np.ascontiguousarray(pts)), metric.matrix
        )
        assert rep.dist == pytest.approx(reported, abs=1e-5)

    def test_realize_hnn_leaves_numpy_ma_unimported(self, tmp_path):
        # importing numpy.ma costs 11-16 ms per run; np.unique(..., axis=0)
        # pulls it in, so the memorizer's duplicate check must not use it
        t = gen_binary(4)
        spring_layout(t, dim=2, seed=0)
        save_tree(t, tmp_path / "t.json")
        script = ("import sys\nfrom hyptree import cli\n"
                  "code = cli.main(sys.argv[1:])\nprint(code, 'numpy.ma' in sys.modules)")
        src = str(Path(cli.__file__).resolve().parents[1])
        env = dict(os.environ, PYTHONPATH=os.pathsep.join([src, os.environ.get("PYTHONPATH", "")]))
        proc = subprocess.run(
            [sys.executable, "-c", script, "embed", str(tmp_path / "t.json"), "--lambda", "1.1",
             "--realize-hnn", "--out-dir", str(tmp_path)],
            capture_output=True, text=True, env=env, timeout=120,
        )
        assert proc.returncode == 0, proc.stderr
        assert proc.stdout.split()[-2:] == ["0", "False"]

    @pytest.mark.parametrize("emptied,listed", [(None, "[0, 1, 2]"), (3, "[3]")])
    def test_realize_hnn_without_layout_exits_2(self, tmp_path, capsys, emptied, listed):
        # a file saved without layout, or with one node's coords emptied
        t = gen_binary(3)
        if emptied is not None:
            spring_layout(t, dim=2, seed=0)
            del t.coords[emptied]
        save_tree(t, tmp_path / "t.json")
        code = run(["embed", tmp_path / "t.json", "--lambda", 1.1,
                    "--realize-hnn", "--out-dir", tmp_path / "out"])
        assert code == 2
        err = capsys.readouterr().err
        assert f"tree nodes lack layout coordinates: {listed}" in err
        assert "Traceback" not in err
        assert os.listdir(tmp_path / "out") == []

    def test_realize_hnn_on_coincident_layout_exits_2(self, tmp_path, capsys):
        # nodes 2 and 3 share their layout coordinates (a signed zero
        # counts as equal), so no network maps them to two images; the
        # layout is rejected before the scan, and nothing is written
        t = WeightedTree([0, 1, 2, 3], [(0, 1, 1.0), (0, 2, 1.0), (0, 3, 1.0)],
                         coords={0: [0.0, 0.0], 1: [1.0, 0.0], 2: [0.0, 1.0], 3: [-0.0, 1.0]})
        save_tree(t, tmp_path / "t.json")
        out = tmp_path / "out"
        code = run(["embed", tmp_path / "t.json", "--lambda", 1.5, "--realize-hnn",
                    "--out-dir", out])
        assert code == 2
        err = capsys.readouterr().err
        assert ("cannot realize the embedding on this layout: nodes 2 and 3 share coordinates"
                in err)
        assert "Traceback" not in err
        assert os.listdir(out) == []

    @pytest.mark.parametrize("x", [1e-300, 1e200])
    def test_realize_hnn_on_inseparable_layout_exits_2(self, tmp_path, capsys, x):
        # distinct rows, but no seeded direction gives the memorizer
        # projections that far apart relative to their spread; the layout
        # is rejected before the scan, and nothing is written
        t = WeightedTree([0, 1, 2], [(0, 1, 1.0), (1, 2, 1.0)],
                         coords={0: [0.0, 0.0], 1: [x, 0.0], 2: [2.0, 1.0]})
        save_tree(t, tmp_path / "t.json")
        out = tmp_path / "out"
        code = run(["embed", tmp_path / "t.json", "--lambda", 1.5, "--realize-hnn",
                    "--out-dir", out])
        assert code == 2
        err = capsys.readouterr().err
        assert ("cannot realize the embedding on this layout: no seeded direction separates"
                in err)
        assert "Traceback" not in err
        assert os.listdir(out) == []

    def test_unreachable_target_exits_3(self, tmp_path, capsys):
        t = gen_binary(6)
        save_tree(t, tmp_path / "t.json")
        code = run(["embed", tmp_path / "t.json", "--lambda", 1.0001, "--out-dir", tmp_path])
        assert code == 3
        err = capsys.readouterr().err
        assert "best distortion" in err

    def test_cap_before_any_scale_exits_3_naming_the_cap(self, tmp_path, capsys):
        t = WeightedTree([0, 1], [(0, 1, 400.0)], coords={0: [0.0, 0.0], 1: [1.0, 0.0]})
        save_tree(t, tmp_path / "t.json")
        assert run(["embed", tmp_path / "t.json", "--lambda", 1.1, "--out-dir", tmp_path]) == 3
        err = capsys.readouterr().err
        assert "tau=1 hit the overflow cap: radius 400.0 > 350" in err
        assert "best distortion" not in err

    def test_bad_lambda_exits_2(self, tmp_path, capsys):
        tree = two_node_file(tmp_path / "t.json")
        assert run(["embed", tree, "--lambda", 0.9, "--out-dir", tmp_path]) == 2

    @pytest.mark.parametrize("lam", ["nan", "inf"])
    def test_nonfinite_lambda_exits_2_before_work(self, tmp_path, capsys, lam):
        tree = two_node_file(tmp_path / "t.json")
        out = tmp_path / "out"
        assert run(["embed", tree, "--lambda", lam, "--out-dir", out]) == 2
        err = capsys.readouterr().err
        assert "--lambda must be a finite number > 1" in err
        assert os.listdir(out) == []

    def test_missing_file_exits_2(self, tmp_path, capsys):
        assert run(["embed", tmp_path / "nope.json", "--lambda", 1.5,
                    "--out-dir", tmp_path]) == 2


# ----------------------------------------------------------------------
# train
# ----------------------------------------------------------------------

TRAIN_SMALL = ["--epochs", 200, "--batch-size", 8, "--width", 8, "--hidden-layers", 2]


class TestTrain:
    def test_two_node_mlp_converges(self, tmp_path, capsys):
        tree = two_node_file(tmp_path / "t.json")
        code = run(["train", tree, "--model", "mlp", "--out-dir", tmp_path] + TRAIN_SMALL)
        assert code == 0
        rows = read_csv(tmp_path / "train_loss.csv")
        assert rows[0] == ["epoch", "train_mse", "test_mse"]
        assert len(rows) == 201
        assert float(rows[-1][1]) < 1e-4
        report = json.load(open(tmp_path / "train_report.json"))
        assert set(report) == {"alpha", "beta", "dist", "injective", "epochs"}
        assert isinstance(load_params(tmp_path / "model_params.json"), MlpParams)

    @pytest.mark.parametrize("w, code", [(1e300, 2), (1e6, 0)])
    def test_huge_diameter_exits_2_before_training(self, tmp_path, capsys, w, code):
        # at w = 1e300 the squared distances overflow before any step is
        # taken, which is no divergence of the model; 1e6 trains
        t = WeightedTree([0, 1, 2, 3], [(0, 1, w), (1, 2, w), (2, 3, w)],
                         coords={0: [0.0, 0.0], 1: [1.0, 0.0], 2: [2.0, 0.5], 3: [3.0, 0.0]})
        save_tree(t, tmp_path / "t.json")
        out = tmp_path / "out"
        assert run(["train", tmp_path / "t.json", "--model", "mlp", "--epochs", 2,
                    "--out-dir", out]) == code
        err = capsys.readouterr().err
        assert "Traceback" not in err and "diverged" not in err
        if code:
            assert "tree diameter 3e+300 is too large" in err
            assert os.listdir(out) == ["train_manifest.json"]

    def test_same_seed_identical_outputs(self, tmp_path):
        tree = two_node_file(tmp_path / "t.json")
        args = ["train", tree, "--model", "hnn", "--seed", 5,
                "--epochs", 6, "--batch-size", 8, "--width", 8, "--hidden-layers", 2]
        for sub in ("a", "b"):
            assert run(args + ["--out-dir", tmp_path / sub]) == 0
        for name in ("train_loss.csv", "train_report.json",
                     "model_params.json", "train_manifest.json"):
            assert read_bytes(tmp_path / "a" / name) == read_bytes(tmp_path / "b" / name)

    @pytest.mark.parametrize("model", ["mlp", "hnn"])
    def test_report_records_epoch_stats(self, tmp_path, model):
        t = gen_binary(4)
        spring_layout(t, dim=2, seed=0)
        save_tree(t, tmp_path / "t.json")
        args = ["train", tmp_path / "t.json", "--model", model, "--seed", 2,
                "--epochs", 4, "--batch-size", 64, "--width", 8, "--hidden-layers", 2]
        for sub in ("a", "b"):
            assert run(args + ["--out-dir", tmp_path / sub]) == 0
        name = "train_report.json"
        assert read_bytes(tmp_path / "a" / name) == read_bytes(tmp_path / "b" / name)
        epochs = json.load(open(tmp_path / "a" / name))["epochs"]
        assert [e["epoch"] for e in epochs] == [0, 1, 2, 3]
        assert all(set(e) == {"epoch", "grad_norm", "max_radius"} for e in epochs)
        assert all(math.isfinite(e["grad_norm"]) and e["grad_norm"] > 0 for e in epochs)
        # the radius is the largest |u| over all nodes' outputs after the epoch
        params = load_params(tmp_path / "a" / "model_params.json")
        X = np.stack([t.coords[i] for i in tree_metric(t).ids])
        rows = _predict_rows(params, X, batch_norm=False)
        assert epochs[-1]["max_radius"] == float(np.max(np.linalg.norm(rows, axis=1)))

    def test_hnn_beats_mlp_binary5(self, tmp_path):
        t = gen_binary(5)
        spring_layout(t, dim=2, seed=0)
        save_tree(t, tmp_path / "t.json")
        finals = {}
        for model in ("mlp", "hnn"):
            out = tmp_path / model
            code = run(["train", tmp_path / "t.json", "--model", model,
                        "--out-dir", out, "--embed-dim", 2,
                        "--epochs", 30, "--batch-size", 512,
                        "--width", 32, "--hidden-layers", 3])
            assert code == 0
            finals[model] = float(read_csv(out / "train_loss.csv")[-1][2])
        assert finals["hnn"] < finals["mlp"]

    def test_divergence_exits_4(self, tmp_path, capsys):
        t = gen_binary(3)
        spring_layout(t, dim=2, seed=0)
        save_tree(t, tmp_path / "t.json")
        code = run(["train", tmp_path / "t.json", "--model", "mlp",
                    "--optimizer", "sgd", "--lr", 1e6, "--seed", 1,
                    "--out-dir", tmp_path, "--epochs", 5,
                    "--batch-size", 64, "--width", 8, "--hidden-layers", 2])
        assert code == 4
        assert "epoch" in capsys.readouterr().err

    def test_layoutless_tree_exits_2(self, tmp_path, capsys):
        save_tree(gen_binary(2), tmp_path / "t.json")
        code = run(["train", tmp_path / "t.json", "--out-dir", tmp_path / "out"])
        assert code == 2
        err = capsys.readouterr().err
        assert "tree nodes lack layout coordinates: [0, 1, 2]" in err
        assert "Traceback" not in err
        assert os.listdir(tmp_path / "out") == []

    @pytest.mark.parametrize(
        "node2_coords,code",
        [([1.0, 0.5, 2.0], "coord_length_mismatch"), ([math.nan, 0.5], "nonfinite_coords")],
    )
    def test_bad_coords_exit_2(self, tmp_path, capsys, node2_coords, code):
        # written by hand: the tree constructor rejects such coords itself
        doc = {"n_dim": 2,
               "nodes": [{"id": 0, "coords": [0.0, 0.0]}, {"id": 1, "coords": [1.0, 0.0]},
                         {"id": 2, "coords": node2_coords}],
               "edges": [{"u": 0, "v": 1, "w": 1.0}, {"u": 1, "v": 2, "w": 1.0}]}
        with open(tmp_path / "t.json", "w") as fh:
            json.dump(doc, fh)
        assert run(["train", tmp_path / "t.json", "--out-dir", tmp_path, "--epochs", 1]) == 2
        err = capsys.readouterr().err
        assert code in err and "Traceback" not in err


# ----------------------------------------------------------------------
# grid
# ----------------------------------------------------------------------

def tiny_grid_config(path, **extra):
    doc = {
        "trees": [{"kind": "binary", "depth": 3}],
        "dims": [2],
        "models": ["mlp", "hnn"],
        "seeds": [0],
        "train": {"epochs": 2, "batch_size": 256, "hidden_layers": 2, "hidden_width": 8},
    }
    doc.update(extra)
    with open(path, "w") as fh:
        json.dump(doc, fh)
    return path


class TestGrid:
    def test_two_row_grid(self, tmp_path, capsys):
        cfgf = tiny_grid_config(tmp_path / "cfg.json")
        code = run(["grid", cfgf, "--out-dir", tmp_path])
        assert code == 0
        rows = read_csv(tmp_path / "grid_results.csv")
        assert rows[0] == cli.GRID_HEADER
        assert len(rows) == 3
        for row in rows[1:]:
            assert row[0] == "binary"
            assert int(row[1]) == 15
            assert int(row[2]) == 2
            assert row[3] in ("mlp", "hnn")
            assert row[8] == "ok"
            assert math.isfinite(float(row[6]))

    def test_svg_emitted_per_model(self, tmp_path):
        cfgf = tiny_grid_config(tmp_path / "cfg.json")
        assert run(["grid", cfgf, "--svg", "--out-dir", tmp_path]) == 0
        for model in ("mlp", "hnn"):
            body = read_bytes(tmp_path / f"grid_{model}.svg").decode()
            assert body.startswith("<svg")
            assert "dim 2" in body and "binary n=15" in body

    def test_deterministic_and_parallel_merge(self, tmp_path):
        cfgf = tiny_grid_config(tmp_path / "cfg.json", seeds=[0, 1])
        assert run(["grid", cfgf, "--out-dir", tmp_path / "serial"]) == 0
        assert run(["grid", cfgf, "--out-dir", tmp_path / "serial2"]) == 0
        assert run(["grid", cfgf, "--threads", 2, "--out-dir", tmp_path / "par"]) == 0
        a = read_bytes(tmp_path / "serial" / "grid_results.csv")
        assert a == read_bytes(tmp_path / "serial2" / "grid_results.csv")
        assert a == read_bytes(tmp_path / "par" / "grid_results.csv")

    def test_shorthand_config(self, tmp_path):
        path = tmp_path / "cfg.json"
        with open(path, "w") as fh:
            json.dump({"kind": "binary", "depths": [3], "dims": [2],
                       "models": ["mlp"], "seeds": [0],
                       "train": {"epochs": 1, "batch_size": 256,
                                 "hidden_layers": 2, "hidden_width": 8}}, fh)
        assert run(["grid", path, "--out-dir", tmp_path]) == 0
        assert len(read_csv(tmp_path / "grid_results.csv")) == 2

    @pytest.mark.parametrize(
        "patch",
        [
            {"models": ["cnn"]},
            {"dims": []},
            {"train": {"model_kind": "hnn"}},
            {"trees": [{"kind": "binary"}]},
            {"train": {"epochs": 0}},
            {"dims": [0]},
            {"trees": [{"kind": "binary", "depth": -1}]},
            {"trees": [{"kind": "random", "n": "x"}]},
            {"trees": [{"kind": "ternary", "depth": 0}]},
            {"seeds": [-1]},
            # each of these ran with the wrong values or ended in a traceback
            {"dims": "2"},
            {"dims": [2.9]},
            {"seeds": [True]},
            {"seeds": "12"},
            {"models": "hnn"},
            {"output_dir": 5},
            {"models": [["mlp"]]},
            {"trees": None, "kind": "binary", "depths": 3},
        ],
    )
    def test_bad_config_exits_2(self, tmp_path, capsys, patch):
        cfgf = tiny_grid_config(tmp_path / "cfg.json", **patch)
        out = tmp_path / "out"
        assert run(["grid", cfgf, "--out-dir", out]) == 2
        err = capsys.readouterr().err
        assert err.startswith("error: grid config: ") and "Traceback" not in err
        assert os.listdir(out) == []

    @pytest.mark.parametrize(
        "train, message",
        [
            # a bool is a Python int: true ran 1 epoch, and in max_pairs it
            # reached numpy's sampler and ended in a traceback
            ({"epochs": True}, "epochs must be an integer >= 1, got True"),
            ({"max_pairs": True}, "max_pairs must be None or an integer >= 1, got True"),
            # a non-empty string is truthy, so "false" turned batch norm on
            ({"batch_norm": "false"}, "batch_norm must be true or false, got 'false'"),
        ],
    )
    def test_mistyped_train_field_exits_2(self, tmp_path, capsys, train, message):
        cfgf = tiny_grid_config(tmp_path / "cfg.json", train={"hidden_layers": 2, **train})
        out = tmp_path / "out"
        assert run(["grid", cfgf, "--out-dir", out]) == 2
        err = capsys.readouterr().err
        assert err.startswith("error: grid config: ") and message in err
        assert "Traceback" not in err
        assert os.listdir(out) == []

    def test_missing_config_exits_2(self, tmp_path):
        assert run(["grid", tmp_path / "nope.json", "--out-dir", tmp_path]) == 2

    def test_divergent_rows_recorded(self, tmp_path):
        cfgf = tiny_grid_config(
            tmp_path / "cfg.json",
            models=["mlp"], seeds=[1],
            train={"epochs": 3, "batch_size": 64, "hidden_layers": 2,
                   "hidden_width": 8, "optimizer": "sgd", "learning_rate": 1e6},
        )
        code = run(["grid", cfgf, "--out-dir", tmp_path])
        rows = read_csv(tmp_path / "grid_results.csv")
        assert rows[1][8].startswith("diverged@")
        assert code == 4


    def test_random_tree_hnn_row_trains(self, tmp_path):
        # random(255), grid seed 3: the HNN's output radii pass 20 within
        # three epochs, where ambient hyperboloid coordinates lose the pair
        # distances to rounding
        path = tmp_path / "cfg.json"
        with open(path, "w") as fh:
            json.dump({"trees": [{"kind": "random", "n": 255}], "dims": [2],
                       "models": ["hnn"], "seeds": [3], "train": {"epochs": 3}}, fh)
        assert run(["grid", path, "--seed", 3, "--out-dir", tmp_path]) == 0
        rows = read_csv(tmp_path / "grid_results.csv")
        assert len(rows) == 2 and rows[1][8] == "ok"

    def test_dead_worker_costs_only_its_row(self, tmp_path, monkeypatch):
        cfgf = tiny_grid_config(tmp_path / "cfg.json")
        assert run(["grid", cfgf, "--out-dir", tmp_path / "serial"]) == 0
        monkeypatch.setattr(os, "cpu_count", lambda: 2)
        monkeypatch.setattr(cli, "_grid_worker", _worker_exits_on_hnn)
        assert run(["grid", cfgf, "--threads", 2, "--out-dir", tmp_path / "pool"]) == 0
        serial = read_csv(tmp_path / "serial" / "grid_results.csv")
        pool = read_csv(tmp_path / "pool" / "grid_results.csv")
        assert [r[3] for r in pool[1:]] == ["mlp", "hnn"]
        assert pool[1] == serial[1]
        assert pool[2][:5] == serial[2][:5] and pool[2][8] == "error:BrokenProcessPool"

    def test_memory_error_costs_only_its_row(self, tmp_path, monkeypatch):
        train_embedding = cli.train_embedding

        def train_or_fail(t, cfg, metric):
            if cfg.model_kind == "hnn":
                raise MemoryError
            return train_embedding(t, cfg, metric)

        monkeypatch.setattr(cli, "train_embedding", train_or_fail)
        assert run(["grid", tiny_grid_config(tmp_path / "cfg.json"), "--out-dir", tmp_path]) == 0
        rows = read_csv(tmp_path / "grid_results.csv")
        assert [r[8] for r in rows[1:]] == ["ok", "error:MemoryError"]

    def test_one_metric_per_tree(self, tmp_path, monkeypatch):
        calls = count_tree_metric(monkeypatch)
        cfgf = tiny_grid_config(tmp_path / "cfg.json", seeds=[0, 1])
        assert run(["grid", cfgf, "--out-dir", tmp_path]) == 0
        assert len(read_csv(tmp_path / "grid_results.csv")) == 5
        assert calls == [15]


def count_tree_metric(monkeypatch):
    """Record the node count of every tree_metric call the CLI makes."""
    calls = []

    def counted(t):
        calls.append(t.n_nodes)
        return tree_metric(t)

    for module in (cli, embed, train):
        monkeypatch.setattr(module, "tree_metric", counted)
    return calls


_grid_worker = cli._grid_worker


def _worker_exits_on_hnn(payload):
    """A grid worker whose process dies on every HNN payload."""
    if payload["config"].model_kind == "hnn":
        os._exit(1)
    return _grid_worker(payload)


class TestResolveThreads:
    """The worker count is checked and clamped before any pool starts."""

    def test_request_within_bounds_is_kept(self, monkeypatch):
        monkeypatch.setattr(os, "cpu_count", lambda: 8)
        assert cli.resolve_threads(1, 10) == 1
        assert cli.resolve_threads(3, 10) == 3

    def test_clamped_to_rows_and_cpus(self, monkeypatch):
        monkeypatch.setattr(os, "cpu_count", lambda: 2)
        assert cli.resolve_threads(10**6, 100) == 2
        monkeypatch.setattr(os, "cpu_count", lambda: 64)
        assert cli.resolve_threads(10**6, 3) == 3
        monkeypatch.setattr(os, "cpu_count", lambda: None)
        assert cli.resolve_threads(4, 3) == 1

    @pytest.mark.parametrize("requested", [0, -3])
    def test_below_one_is_usage_error(self, requested):
        with pytest.raises(cli.UsageError):
            cli.resolve_threads(requested, 10)


# ----------------------------------------------------------------------
# lowerbound
# ----------------------------------------------------------------------

class TestLowerbound:
    def test_small_study(self, tmp_path, capsys):
        code = run(["lowerbound", "--leaves", "2,4", "--dims", "2",
                    "--study-seeds", "0", "--epochs", 3, "--batch-size", 256,
                    "--width", 8, "--hidden-layers", 2, "--out-dir", tmp_path])
        assert code == 0
        rows = read_csv(tmp_path / "lowerbound.csv")
        assert rows[0] == ["L", "dim", "mlp_dist", "mlp_status", "hnn_dist", "hnn_status"]
        assert [r[0] for r in rows[1:]] == ["2", "4"]
        for row in rows[1:]:
            assert row[5] == "ok"
            assert float(row[4]) <= 1.1
        summary = json.load(open(tmp_path / "lowerbound_summary.json"))
        assert "2" in summary["fitted_exponent_per_dim"]
        assert summary["hnn_max_dist"] <= 1.1
        assert "fitted_exponent" in capsys.readouterr().out

    def test_one_metric_per_spider(self, tmp_path, monkeypatch):
        calls = count_tree_metric(monkeypatch)
        assert run(["lowerbound", "--leaves", "2,4", "--dims", "2,3", "--study-seeds", "0,1",
                    "--epochs", 1, "--out-dir", tmp_path]) == 0
        assert calls == [5, 9]

    def test_mlp_dist_meets_packing_bound(self, tmp_path):
        # A spider's L leaves lie pairwise 4 apart and within 2 of the hub.
        # Scaled so that no distance shrinks, a map of distortion D puts
        # disjoint balls of radius 2 around the leaves' images inside one
        # ball of radius 2D + 2, so L <= (D + 1)^d: D >= L^(1/d) - 1 for any
        # map into R^d, trained or not.
        assert run(["lowerbound", "--leaves", "8,16,32", "--dims", "2,3",
                    "--study-seeds", "0", "--epochs", 3, "--batch-size", 256,
                    "--width", 8, "--hidden-layers", 2, "--out-dir", tmp_path]) == 0
        rows = read_csv(tmp_path / "lowerbound.csv")[1:]
        assert [(r[0], r[1], r[3]) for r in rows] == [
            (L, d, "ok") for d in ("2", "3") for L in ("8", "16", "32")]
        for L, d, mlp_dist, *_ in rows:
            assert float(mlp_dist) >= int(L) ** (1.0 / int(d)) - 1.0

    def test_empty_leaves_exits_2(self, tmp_path):
        assert run(["lowerbound", "--leaves", ",", "--out-dir", tmp_path]) == 2

    @pytest.mark.parametrize("argv", [["--leaves", "0"], ["--leaves", "4", "--dims", "2,0"]])
    def test_nonpositive_values_exit_2_before_work(self, tmp_path, capsys, argv):
        assert run(["lowerbound", "--out-dir", tmp_path] + argv) == 2
        err = capsys.readouterr().err
        assert ">= 1" in err and "Traceback" not in err
        assert os.listdir(tmp_path) == []

    def test_negative_study_seed_exits_2_with_reason(self, tmp_path, capsys):
        assert run(["lowerbound", "--study-seeds", "-1", "--out-dir", tmp_path]) == 2
        assert "--study-seeds values must be >= 0" in capsys.readouterr().err
        assert os.listdir(tmp_path) == []

    @pytest.mark.parametrize("lam", ["nan", "inf"])
    def test_nonfinite_lambda_exits_2_before_work(self, tmp_path, capsys, lam):
        assert run(["lowerbound", "--lambda", lam, "--out-dir", tmp_path]) == 2
        assert "--lambda must be a finite number > 1" in capsys.readouterr().err
        assert os.listdir(tmp_path) == []


# ----------------------------------------------------------------------
# the training flags and --threads across commands
# ----------------------------------------------------------------------

# every TrainConfig field but seed and model_kind, by the flag that sets it,
# with a value other than its default
TRAIN_FLAG_VALUES = {
    "--epochs": ("epochs", 3),
    "--batch-size": ("batch_size", 7),
    "--lr": ("learning_rate", 0.5),
    "--hidden-layers": ("hidden_layers", 2),
    "--width": ("hidden_width", 5),
    "--embed-dim": ("embed_dim", 3),
    "--optimizer": ("optimizer", "sgd"),
    "--batch-norm": ("batch_norm", True),
    "--max-pairs": ("max_pairs", 9),
}
TRAINING_COMMANDS = [["train", "t.json"], ["lowerbound"]]


def parsed_config(argv):
    args = cli._build_parser().parse_args([str(a) for a in argv])
    return cli._train_config_from_args(args, "mlp")


def flag_values(command):
    """The TRAIN_FLAG_VALUES a command takes: lowerbound's --dims sets embed_dim."""
    return {flag: fv for flag, fv in TRAIN_FLAG_VALUES.items()
            if command[0] == "train" or flag != "--embed-dim"}


class TestTrainFlags:
    def test_every_field_but_seed_and_model_kind_has_a_flag(self):
        knobs = {f.name for f in fields(TrainConfig)} - {"seed", "model_kind"}
        assert {field for field, _ in TRAIN_FLAG_VALUES.values()} == knobs
        assert {flag for flag, _, _ in cli.TRAIN_FLAGS} == set(TRAIN_FLAG_VALUES)

    @pytest.mark.parametrize("command", TRAINING_COMMANDS)
    def test_each_flag_sets_its_field(self, command):
        argv = list(command)
        values = flag_values(command)
        for flag, (_, value) in values.items():
            argv += [flag] if value is True else [flag, value]
        got = asdict(parsed_config(argv))
        assert {field: got[field] for field, _ in values.values()} == dict(values.values())

    def test_lowerbound_rejects_embed_dim(self, tmp_path):
        out = tmp_path / "out"
        with pytest.raises(SystemExit) as exc:
            run(["lowerbound", "--embed-dim", 3, "--out-dir", out])
        assert exc.value.code == 2
        assert not out.exists()

    @pytest.mark.parametrize("command", TRAINING_COMMANDS)
    def test_defaults_are_train_configs_but_epochs(self, command):
        # the CLI trains for 10 epochs unless told otherwise, TrainConfig and a grid for 20
        assert TrainConfig().epochs == 20
        assert parsed_config(command) == replace(TrainConfig(), epochs=10)

    def test_manifests_record_every_knob(self, tmp_path):
        t = gen_binary(3)
        spring_layout(t, dim=2, seed=0)
        save_tree(t, tmp_path / "t.json")
        knobs = ["--epochs", 2, "--batch-size", 8, "--lr", 0.02, "--hidden-layers", 1,
                 "--width", 4, "--optimizer", "sgd", "--max-pairs", 8]
        want = {"epochs": 2, "batch_size": 8, "learning_rate": 0.02, "hidden_layers": 1,
                "hidden_width": 4, "optimizer": "sgd", "batch_norm": False, "max_pairs": 8}
        assert run(["train", tmp_path / "t.json", "--embed-dim", 3,
                    "--out-dir", tmp_path] + knobs) == 0
        assert manifest(tmp_path, "train")["config"] == {
            "tree": "t.json", "model": "mlp", "embed_dim": 3, **want}
        assert run(["lowerbound", "--leaves", 2, "--dims", 2, "--study-seeds", 0,
                    "--out-dir", tmp_path] + knobs) == 0
        # --dims sets each row's embed_dim
        assert manifest(tmp_path, "lowerbound")["config"] == {
            "leaves": [2], "dims": [2], "lambda": 1.1, "study_seeds": [0], **want}


class TestThreadsFlag:
    @pytest.mark.parametrize("argv", [["gen", "--kind", "binary", "--depth", 2],
                                      ["embed", "t.json", "--lambda", 1.5]] + TRAINING_COMMANDS)
    def test_only_grid_takes_threads(self, tmp_path, argv):
        out = tmp_path / "out"
        with pytest.raises(SystemExit) as exc:
            run(argv + ["--threads", 2, "--out-dir", out])
        assert exc.value.code == 2
        assert not out.exists()

    def test_grid_below_one_exits_2_before_work(self, tmp_path, capsys):
        out = tmp_path / "out"
        assert run(["grid", tiny_grid_config(tmp_path / "cfg.json"), "--threads", 0,
                    "--out-dir", out]) == 2
        assert "thread count must be >= 1" in capsys.readouterr().err
        assert os.listdir(out) == []

    def test_blas_spin_timeout_set_before_numpy_loads(self):
        # OpenBLAS reads its spin timeout once, when numpy loads it
        script = ("import os, sys\nimport hyptree\nprint('numpy' in sys.modules)\n"
                  "import hyptree.cli\nprint(os.environ['OPENBLAS_THREAD_TIMEOUT'])")
        src = str(Path(cli.__file__).resolve().parents[1])
        env = dict(os.environ, PYTHONPATH=os.pathsep.join([src, os.environ.get("PYTHONPATH", "")]))
        env.pop("OPENBLAS_THREAD_TIMEOUT", None)
        proc = subprocess.run([sys.executable, "-c", script],
                              capture_output=True, text=True, env=env, timeout=120)
        assert proc.returncode == 0, proc.stderr
        assert proc.stdout.split() == ["False", "4"]

    def test_library_reads_no_environment_variable(self):
        # the one environment access is the CLI writing OpenBLAS's spin
        # timeout, which no input can change
        allowed = ("cli.py", 'os.environ["OPENBLAS_THREAD_TIMEOUT"] = "4"')
        src = Path(cli.__file__).resolve().parent
        hits = [(path.name, line.strip()) for path in sorted(src.glob("*.py"))
                for line in path.read_text().splitlines()
                if any(f"os.{name}" in line for name in ("environ", "getenv", "putenv", "unsetenv"))]
        assert hits == [allowed]


# ----------------------------------------------------------------------
# manifests and schemas across commands
# ----------------------------------------------------------------------

def listed_outputs(out_dir, command):
    """The outputs a manifest lists, each checked to exist."""
    listed = manifest(out_dir, command)["outputs"]
    assert [name for name in listed if not os.path.isfile(os.path.join(out_dir, name))] == []
    return listed


def no_work(*args, **kwargs):
    raise AssertionError("work ran before the output paths were checked")


class TestOutputPaths:
    """An output that cannot be written exits 2 before any work runs."""

    @pytest.mark.parametrize(
        "name, message", [("nosuch/t.json", "nosuch is not a directory"), (".", "it is a directory")]
    )
    def test_gen_output_not_writable(self, tmp_path, capsys, monkeypatch, name, message):
        monkeypatch.setattr(cli, "spring_layout", no_work)
        assert run(["gen", "--kind", "binary", "--depth", 3, "--out-dir", tmp_path, "-o", name]) == 2
        err = capsys.readouterr().err
        assert err.startswith("error: cannot write ") and message in err
        assert os.listdir(tmp_path) == []

    def test_embed_output_in_missing_directory(self, tmp_path, capsys, monkeypatch):
        tree = two_node_file(tmp_path / "t.json")
        monkeypatch.setattr(cli, "choose_curvature", no_work)
        assert run(["embed", tree, "--lambda", 1.1, "--out-dir", tmp_path / "out",
                    "-o", "nosuch/e.json"]) == 2
        assert "nosuch is not a directory" in capsys.readouterr().err
        assert os.listdir(tmp_path / "out") == []

    def test_out_dir_naming_a_file(self, tmp_path, capsys):
        blocker = tmp_path / "file"
        blocker.write_text("kept\n")
        tree = two_node_file(tmp_path / "t.json")
        for argv in (["gen", "--kind", "binary", "--depth", 2], ["embed", tree, "--lambda", 1.1],
                     ["train", tree], ["grid", tiny_grid_config(tmp_path / "cfg.json")],
                     ["lowerbound", "--leaves", 8]):
            assert run(argv + ["--out-dir", blocker]) == 2, argv
            err = capsys.readouterr().err
            assert err.startswith(f"error: cannot create output directory {blocker}: "), argv
        assert blocker.read_text() == "kept\n"

    def test_grid_output_dir_naming_a_file(self, tmp_path, capsys):
        blocker = tmp_path / "file"
        blocker.write_text("kept\n")
        cfgf = tiny_grid_config(tmp_path / "cfg.json", output_dir=str(blocker))
        assert run(["grid", cfgf, "--out-dir", tmp_path / "out"]) == 2
        assert f"error: cannot create output directory {blocker}: " in capsys.readouterr().err
        assert os.listdir(tmp_path / "out") == []
        assert blocker.read_text() == "kept\n"


class TestArtifacts:
    def test_manifest_written_even_when_training_diverges(self, tmp_path):
        # the manifest is written last, also on exit 3 and 4, and names only
        # outputs that exist: here none
        t = gen_binary(3)
        spring_layout(t, dim=2, seed=0)
        save_tree(t, tmp_path / "t.json")
        code = run(["train", tmp_path / "t.json", "--optimizer", "sgd",
                    "--lr", 1e6, "--seed", 1, "--out-dir", tmp_path / "train",
                    "--epochs", 5, "--batch-size", 64,
                    "--width", 8, "--hidden-layers", 2])
        assert code == 4
        assert listed_outputs(tmp_path / "train", "train") == []
        code = run(["embed", tmp_path / "t.json", "--lambda", 1.0001,
                    "--out-dir", tmp_path / "embed"])
        assert code == 3
        assert listed_outputs(tmp_path / "embed", "embed") == []
        assert os.listdir(tmp_path / "embed") == ["embed_manifest.json"]

    def test_every_emitted_file_parses(self, tmp_path):
        tree = two_node_file(tmp_path / "t.json")
        assert run(["train", tree, "--out-dir", tmp_path,
                    "--epochs", 2, "--batch-size", 8,
                    "--width", 8, "--hidden-layers", 2]) == 0
        cfgf = tiny_grid_config(tmp_path / "cfg.json")
        assert run(["grid", cfgf, "--svg", "--out-dir", tmp_path]) == 0
        seen = 0
        for name in sorted(os.listdir(tmp_path)):
            path = tmp_path / name
            if name.endswith(".json"):
                json.load(open(path))
                seen += 1
            elif name.endswith(".csv"):
                rows = read_csv(path)
                assert len(rows) >= 2 and rows[0]
                seen += 1
            elif name.endswith(".svg"):
                assert read_bytes(path).decode().startswith("<svg")
                seen += 1
        assert seen >= 7
        assert listed_outputs(tmp_path, "train") == [
            "model_params.json", "train_loss.csv", "train_report.json"]
        assert listed_outputs(tmp_path, "grid") == [
            "grid_hnn.svg", "grid_mlp.svg", "grid_results.csv"]
