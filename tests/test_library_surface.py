"""Every top-level name in ``src/hyptree``, public or private, and every
public method and property of its classes, has a caller in the library, or
a reason to stay listed here: an acceptance gate (``tests/test_acceptance.py``)
uses it, or the benchmark's tracer (``perfbench/traced.py``) reads it. A
function that only the tests call belongs under ``tests/``, so this test
fails when one comes back. Dunder names (``__version__``) are exempt.

Uses are read from the source: a name imported from a hyptree module and
then used, an attribute of an imported hyptree module, or, inside the
library, a module's own top-level name used outside its definition. The
type of an object is not known from the source, so a class member counts as
used wherever its name is read as an attribute (``x.norm``), except off
another package's import (``np.linalg.norm``).

No linter runs on the library, so the same parse also fails on a name that a
module imports and never reads.
"""

import ast
from pathlib import Path

from test_traced_targets import TRACED, load_traced

ROOT = Path(__file__).resolve().parents[1]
SRC = ROOT / "src" / "hyptree"
ACCEPTANCE = ROOT / "tests" / "test_acceptance.py"

# public names that no library code uses, kept for the gate that uses them
GATE_NAMES = {
    "embed.embedding_distance_matrix": "c2 checks the selected embedding on every pair",
    "hypgeom.distance": "c1 checks the geometry's distance, c4 the memorized images",
    "hypgeom.project_to_hyperboloid": "c5 moves hyperbolic biases along the sheet",
    "kernels.pairwise_hyperboloid": "the gates' kernel warm-up",
    "kernels.ratio_bounds": "the gates' kernel warm-up",
    "networks.hnn_forward": "c4 evaluates the memorized network",
    "train.grad": "c5 checks the training gradient by finite differences",
    "hypgeom.TangentVec.norm": "c1 checks that Exp_x moves v.norm() along the sheet",
}


def _defined(node):
    if isinstance(node, (ast.FunctionDef, ast.ClassDef)):
        return [node.name]
    if isinstance(node, ast.Assign):
        targets = [e for t in node.targets for e in (t.elts if isinstance(t, ast.Tuple) else [t])]
        return [t.id for t in targets if isinstance(t, ast.Name)]
    return []


def _imported(tree, package):
    """(module aliases, name aliases) of the hyptree imports in ``tree``:
    alias -> "module", and alias -> "module.name"."""
    modules, names = {}, {}
    for node in ast.walk(tree):
        if not isinstance(node, ast.ImportFrom):
            continue
        if node.level == 1 or node.module == package:
            source = node.module if node.level == 1 else None
        elif (node.module or "").startswith(package + "."):
            source = node.module[len(package) + 1 :]
        else:
            continue
        for alias in node.names:
            if source is None:
                modules[alias.asname or alias.name] = alias.name
            else:
                names[alias.asname or alias.name] = f"{source}.{alias.name}"
    return modules, names


def references(tree, package="hyptree"):
    """The hyptree names ("module.name") that the code of one file uses."""
    modules, names = _imported(tree, package)
    refs = set()
    for node in ast.walk(tree):
        if isinstance(node, ast.Attribute) and isinstance(node.value, ast.Name) \
                and node.value.id in modules:
            refs.add(f"{modules[node.value.id]}.{node.attr}")
        elif isinstance(node, ast.Name) and node.id in names:
            refs.add(names[node.id])
    return refs


def library_surface():
    """(top-level names of the library but dunders, the ones its own code uses)."""
    public, used = set(), set()
    for path in sorted(SRC.glob("*.py")):
        tree = ast.parse(path.read_text())
        used |= references(tree)
        own = {}
        for node in tree.body:
            for name in _defined(node):
                if not name.startswith("__"):
                    own[name] = node
        public |= {f"{path.stem}.{name}" for name in own}
        for node in tree.body:
            for sub in ast.walk(node):
                if isinstance(sub, ast.Name) and sub.id in own and own[sub.id] is not node:
                    used.add(f"{path.stem}.{sub.id}")
    return public, used


def _foreign(tree, package="hyptree"):
    """The names that imports of other packages bind in ``tree`` (np, math, ...)."""
    names = set()
    for node in ast.walk(tree):
        if isinstance(node, ast.Import):
            names |= {(alias.asname or alias.name).partition(".")[0] for alias in node.names}
        elif isinstance(node, ast.ImportFrom) and node.level == 0 \
                and node.module != package and not node.module.startswith(package + "."):
            names |= {alias.asname or alias.name for alias in node.names}
    return names


def attributes_read(tree):
    """The attribute names read in ``tree``, but off another package's import."""
    foreign = _foreign(tree)
    read = set()
    for node in ast.walk(tree):
        if isinstance(node, ast.Attribute):
            root = node.value
            while isinstance(root, ast.Attribute):
                root = root.value
            if not (isinstance(root, ast.Name) and root.id in foreign):
                read.add(node.attr)
    return read


def library_members():
    """(public methods and properties of library classes as "module.Class.name",
    the attribute names that library code reads)."""
    members, read = set(), set()
    for path in sorted(SRC.glob("*.py")):
        tree = ast.parse(path.read_text())
        read |= attributes_read(tree)
        for cls in tree.body:
            if isinstance(cls, ast.ClassDef):
                members |= {f"{path.stem}.{cls.name}.{f.name}" for f in cls.body
                            if isinstance(f, ast.FunctionDef) and not f.name.startswith("_")}
    return members, read


def traced_names():
    """The library names the tracer reads: its TARGETS (a "Class.method"
    target names both its class and the method) and every hyptree attribute
    in its code."""
    targets = set()
    for module, attr in load_traced().TARGETS:
        name = module.__name__.rpartition(".")[2]
        targets |= {f"{name}.{attr.partition('.')[0]}", f"{name}.{attr}"}
    return targets | references(ast.parse(TRACED.read_text()))


def unread_imports(tree):
    """The names that imports in ``tree`` bind and its code never reads."""
    bound = set()
    for node in ast.walk(tree):
        if isinstance(node, ast.Import):
            bound |= {(alias.asname or alias.name).partition(".")[0] for alias in node.names}
        elif isinstance(node, ast.ImportFrom) and node.module != "__future__":
            bound |= {alias.asname or alias.name for alias in node.names}
    return bound - {node.id for node in ast.walk(tree) if isinstance(node, ast.Name)}


def test_every_library_import_is_read():
    unread = {path.stem: sorted(unread_imports(ast.parse(path.read_text())))
              for path in sorted(SRC.glob("*.py"))}
    assert {stem: names for stem, names in unread.items() if names} == {}
    tree = ast.parse("from __future__ import annotations\nimport os.path\n"
                     "from . import kernels as k\nfrom .trees import WeightedTree\n"
                     "def f(t: WeightedTree):\n    return os.sep\n")
    assert unread_imports(tree) == {"k"}


def test_only_listed_names_lack_a_library_caller():
    public, used = library_surface()
    traced = traced_names()
    unused = public - used
    unexplained = sorted(unused - traced - GATE_NAMES.keys())
    assert unexplained == [], "names that only the tests use; move them under tests/"
    stale = sorted(k for k in GATE_NAMES if k.count(".") == 1 and k not in unused)
    assert stale == [], "listed gate names that library code now uses"


def test_only_listed_members_lack_a_library_reader():
    members, read = library_members()
    read |= attributes_read(ast.parse(TRACED.read_text()))
    unread = {m for m in members if m.rpartition(".")[2] not in read}
    unexplained = sorted(unread - traced_names() - GATE_NAMES.keys())
    assert unexplained == [], "public members that only the tests use; move them under tests/"
    stale = sorted(k for k in GATE_NAMES if k.count(".") == 2 and k not in unread)
    assert stale == [], "listed gate members that library code now reads"


def test_gate_reasons_hold():
    # each listed name is one the gates really use; a member, by its name
    acceptance = ast.parse(ACCEPTANCE.read_text())
    names = {k for k in GATE_NAMES if k.count(".") == 1}
    assert names <= references(acceptance)
    assert {k.rpartition(".")[2] for k in GATE_NAMES.keys() - names} <= attributes_read(acceptance)


def test_reference_scan_sees_each_kind_of_use():
    tree = ast.parse(
        "from . import kernels\nfrom .embed import choose_curvature as cc\n"
        "def f():\n    return kernels.fr_step, cc\n"
    )
    assert references(tree) == {"kernels.fr_step", "embed.choose_curvature"}
    public, used = library_surface()
    assert {"embed.embedding_distance", "kernels.block_ratio_bounds", "cli.main"} <= used
    assert "embed.embedding_distance_matrix" in public - used
    # private names count too, used in their own module or off another's
    assert {"train._step", "kernels._apex_radii", "autodiff._BN_EPS"} <= used
    assert "train._step" in public and "__init__.__version__" not in public
    assert _defined(ast.parse("_a, b = 1, 2").body[0]) == ["_a", "b"]
    members, read = library_members()
    assert {"hypgeom.TangentVec.norm", "trees.WeightedTree.layout"} <= members
    assert "layout" in read and "norm" not in read
    tree = ast.parse("import numpy as np\ndef f(v, x):\n    return np.linalg.norm(x), v.dim\n")
    assert attributes_read(tree) == {"dim"}
