"""``perfbench/traced.py`` times library functions by wrapping them from
outside, by name. A library change that deletes or renames one of those names
breaks the traced benchmark run, so every name it reads must still resolve.
"""

import importlib.util
from pathlib import Path

from hyptree import kernels

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
