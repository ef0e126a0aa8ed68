"""``perfbench/traced.py`` times library functions by wrapping them from
outside, by name. A library change that deletes or renames one of those names
breaks the traced benchmark run, so every name it reads must still resolve.
"""

import importlib.util
from pathlib import Path

import numpy as np
import pytest

from hyptree import kernels
from hyptree.autodiff import Tape

TRACED = Path(__file__).resolve().parents[1] / "perfbench" / "traced.py"


def load_traced():
    spec = importlib.util.spec_from_file_location("perfbench_traced", TRACED)
    module = importlib.util.module_from_spec(spec)
    spec.loader.exec_module(module)
    return module


def test_every_traced_target_resolves():
    # "Class.method" is looked up in the class's own namespace, as the
    # harness does when it installs its wrapper
    traced = load_traced()
    assert len(traced.TARGETS) >= 10
    missing = []
    for module, attr in traced.TARGETS:
        cls_name, _, meth = attr.rpartition(".")
        owner = vars(getattr(module, cls_name)) if cls_name else vars(module)
        if not callable(owner.get(meth)):
            missing.append(f"{module.__name__}.{attr}")
    assert missing == []


def test_recorded_backend_constant_resolves():
    assert isinstance(kernels.ACTIVE_BACKEND, str)


@pytest.mark.parametrize("batch_norm", [False, True])
def test_tape_records_are_what_the_tape_counter_reads(batch_norm):
    # the tracer counts len(tape.nodes) and sums node.value.nbytes when
    # backward is entered: one record per layer, each value an array of its
    # own, so that no buffer is counted twice
    rng = np.random.default_rng(0)
    layers = [(rng.normal(size=(o, i)), rng.normal(size=o)) for i, o in ((2, 8), (8, 8), (8, 2))]
    tape = Tape(layers, rng.normal(size=(6, 2)), batch_norm)
    assert len(tape.nodes) == len(layers)
    assert all(isinstance(node.value, np.ndarray) for node in tape.nodes)
    values = [node.value for node in tape.nodes]
    assert not any(np.shares_memory(a, b) for k, a in enumerate(values) for b in values[k + 1:])
