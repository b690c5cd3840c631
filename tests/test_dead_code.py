"""Every top-level function and class of the package, every name a
module-level assignment binds, and every method and property of its
top-level classes, has a user; and the benchmark tracer still finds every
function it times.

A name counts as used when some other place in `src/cbfsteer/` or in
`perfbench/` mentions it: as a name, an attribute, or inside a string (the
benchmark tracer resolves the functions it times by name). Mentions inside
the definition itself, such as recursion, and in docstrings do not count.
Exempt are the entry point `cli.main`, `cli._Parser.error` (argparse calls
it) and dunder names (Python reads them). The definitions only `perfbench/`
mentions are listed in `TRACER_ONLY`, so that a new one fails and a deleted
one must be struck from the list.
"""

import ast
import functools
import importlib.util
import sys
from pathlib import Path

import pytest

ROOT = Path(__file__).resolve().parent.parent
PACKAGE = ROOT / "src" / "cbfsteer"
ENTRY_POINTS = {("cli", "main"), ("cli", "_Parser.error")}
BENCHMARK = ROOT / "perfbench"
# definitions with no user in the package that the benchmark tracer times by
# name; they go with their tracer layers
TRACER_ONLY = {"environment.step_obstacles", "geometry.segment_rect_signed_distance",
               "planner.steer_filter_lqr"}


def mentions(node, skip=None):
    """Identifiers mentioned under node, leaving out the subtree `skip`."""
    out = set()
    stack = [node]
    while stack:
        n = stack.pop()
        if n is skip:
            continue
        if (isinstance(n, ast.Expr) and isinstance(n.value, ast.Constant)
                and isinstance(n.value.value, str)):
            continue  # a docstring names things, it does not use them
        if isinstance(n, ast.Name):
            out.add(n.id)
        elif isinstance(n, ast.Attribute):
            out.add(n.attr)
        elif isinstance(n, ast.alias):
            out.add(n.name.rsplit(".", 1)[-1])
        elif isinstance(n, ast.Constant) and isinstance(n.value, str):
            out.update(n.value.replace(".", " ").split())
        stack.extend(ast.iter_child_nodes(n))
    return out


@functools.cache
def parse(path):
    return ast.parse(path.read_text(), filename=str(path))


def test_scan_covers_the_package_and_the_benchmark():
    assert len(list(PACKAGE.glob("*.py"))) >= 10
    assert (BENCHMARK / "tracing.py").exists()


def is_dunder(name):
    return name.startswith("__") and name.endswith("__")


def top_level(tree):
    """(name, node) of every top-level function and class, and of every
    non-dunder name bound by a module-level `Assign` or `AnnAssign`."""
    for node in tree.body:
        if isinstance(node, (ast.FunctionDef, ast.ClassDef)):
            yield node.name, node
        elif isinstance(node, (ast.Assign, ast.AnnAssign)):
            targets = node.targets if isinstance(node, ast.Assign) else [node.target]
            for target in targets:
                elts = target.elts if isinstance(target, (ast.Tuple, ast.List)) else [target]
                for elt in elts:
                    if isinstance(elt, ast.Name) and not is_dunder(elt.id):
                        yield elt.id, node


def methods(tree):
    """(Class.name, node) of every method and property of a top-level
    class, dunders left out."""
    for node in tree.body:
        if isinstance(node, ast.ClassDef):
            for member in node.body:
                if isinstance(member, ast.FunctionDef) and not is_dunder(member.name):
                    yield f"{node.name}.{member.name}", member


def unused(path, definitions, scanned=(PACKAGE, BENCHMARK)):
    """Qualified names of the definitions in `path` that no file of the
    `scanned` directories uses."""
    trees = {p: parse(p) for directory in scanned for p in directory.glob("*.py")}
    elsewhere = set()
    for other, tree in trees.items():
        if other != path:
            elsewhere |= mentions(tree)
    tree = trees[path]
    found = []
    for qualname, node in definitions(tree):
        name = qualname.rsplit(".", 1)[-1]
        if ((path.stem, qualname) not in ENTRY_POINTS
                and name not in elsewhere and name not in mentions(tree, skip=node)):
            found.append(qualname)
    return found


@pytest.mark.parametrize("path", sorted(PACKAGE.glob("*.py")), ids=lambda p: p.stem)
def test_every_top_level_definition_is_used(path):
    found = unused(path, top_level)
    assert found == [], f"{path.name}: nothing calls {found}"


@pytest.mark.parametrize("path", sorted(PACKAGE.glob("*.py")), ids=lambda p: p.stem)
def test_every_method_is_used(path):
    found = unused(path, methods)
    assert found == [], f"{path.name}: nothing calls {found}"


def test_only_the_tracer_keeps_these_alive():
    found = {f"{path.stem}.{name}" for path in PACKAGE.glob("*.py")
             for definitions in (top_level, methods)
             for name in unused(path, definitions, scanned=(PACKAGE,))}
    assert found == TRACER_ONLY


def test_the_method_scan_sees_methods_and_properties():
    names = {name for name, _ in methods(parse(PACKAGE / "cbf.py"))}
    assert {"NeuralBarrier.value_and_grad", "NeuralBarrier.kind", "Dataset.load"} <= names
    assert "Dataset.__len__" not in names


def test_the_top_level_scan_sees_module_level_names():
    assert "steer_filter_lqr" in {name for name, _ in top_level(parse(PACKAGE / "planner.py"))}
    names = {name for name, _ in top_level(parse(PACKAGE / "environment.py"))}
    assert {"ROW_BLOCK", "signed_distance_batch"} <= names
    assert not any(is_dunder(name) for path in PACKAGE.glob("*.py")
                   for name, _ in top_level(parse(path)))


def test_benchmark_tracer_resolves_every_layer():
    # the tracer finds the functions it times by module and name; building
    # it, without installing it, fails on a layer renamed or deleted here
    spec = importlib.util.spec_from_file_location("perfbench_tracing",
                                                  ROOT / "perfbench" / "tracing.py")
    tracing = importlib.util.module_from_spec(spec)
    sys.modules[spec.name] = tracing  # its dataclasses look their module up
    try:
        spec.loader.exec_module(tracing)
        tracer = tracing.Tracer()
    finally:
        del sys.modules[spec.name]
    patched = {original for _, _, _, original in tracer._patches}
    assert len(patched) == len(tracing.LAYERS)
