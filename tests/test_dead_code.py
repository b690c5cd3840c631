"""Every top-level function and class of the package, and every method and
property of its top-level classes, has a caller; and the benchmark tracer
still finds every function it times.

A name counts as used when some other place in `src/cbfsteer/` or in
`perfbench/` mentions it: as a name, an attribute, or inside a string (the
benchmark tracer resolves the functions it times by name). Mentions inside
the definition itself, such as recursion, and in docstrings do not count.
Exempt are the entry point `cli.main`, `cli._Parser.error` (argparse calls
it) and dunder methods (Python calls them).
"""

import ast
import importlib.util
import sys
from pathlib import Path

import pytest

ROOT = Path(__file__).resolve().parent.parent
PACKAGE = ROOT / "src" / "cbfsteer"
ENTRY_POINTS = {("cli", "main"), ("cli", "_Parser.error")}


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


def parse(path):
    return ast.parse(path.read_text(), filename=str(path))


def test_scan_covers_the_package_and_the_benchmark():
    assert len(list(PACKAGE.glob("*.py"))) >= 10
    assert (ROOT / "perfbench" / "tracing.py").exists()


def top_level(tree):
    """(name, node) of every top-level function and class."""
    for node in tree.body:
        if isinstance(node, (ast.FunctionDef, ast.ClassDef)):
            yield node.name, node


def methods(tree):
    """(Class.name, node) of every method and property of a top-level
    class, dunders left out."""
    for node in tree.body:
        if isinstance(node, ast.ClassDef):
            for member in node.body:
                if (isinstance(member, ast.FunctionDef)
                        and not (member.name.startswith("__") and member.name.endswith("__"))):
                    yield f"{node.name}.{member.name}", member


def unused(path, definitions):
    trees = {p: parse(p) for p in [*PACKAGE.glob("*.py"), *(ROOT / "perfbench").glob("*.py")]}
    elsewhere = set()
    for other, tree in trees.items():
        if other != path:
            elsewhere |= mentions(tree)
    tree = trees[path]
    return [qualname for qualname, node in definitions(tree)
            if (path.stem, qualname) not in ENTRY_POINTS
            and node.name not in elsewhere and node.name not in mentions(tree, skip=node)]


@pytest.mark.parametrize("path", sorted(PACKAGE.glob("*.py")), ids=lambda p: p.stem)
def test_every_top_level_definition_is_used(path):
    found = unused(path, top_level)
    assert found == [], f"{path.name}: nothing calls {found}"


@pytest.mark.parametrize("path", sorted(PACKAGE.glob("*.py")), ids=lambda p: p.stem)
def test_every_method_is_used(path):
    found = unused(path, methods)
    assert found == [], f"{path.name}: nothing calls {found}"


def test_the_method_scan_sees_methods_and_properties():
    names = {name for name, _ in methods(parse(PACKAGE / "cbf.py"))}
    assert {"NeuralBarrier.value_and_grad", "NeuralBarrier.needs_observation",
            "Dataset.load"} <= names
    assert "Dataset.__len__" not in names


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
