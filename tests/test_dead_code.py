"""Every top-level function and class of the package has a caller.

A name counts as used when some other place in `src/cbfsteer/` or in
`perfbench/` mentions it: as a name, an attribute, or inside a string (the
benchmark tracer resolves the functions it times by name). Mentions inside
the definition itself, such as recursion, and in docstrings do not count.
The only entry point exempt is `cli.main`.
"""

import ast
from pathlib import Path

import pytest

ROOT = Path(__file__).resolve().parent.parent
PACKAGE = ROOT / "src" / "cbfsteer"
ENTRY_POINTS = {("cli", "main")}


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


@pytest.mark.parametrize("path", sorted(PACKAGE.glob("*.py")), ids=lambda p: p.stem)
def test_every_top_level_definition_is_used(path):
    trees = {p: parse(p) for p in [*PACKAGE.glob("*.py"), *(ROOT / "perfbench").glob("*.py")]}
    elsewhere = set()
    for other, tree in trees.items():
        if other != path:
            elsewhere |= mentions(tree)
    unused = []
    tree = trees[path]
    for node in tree.body:
        if not isinstance(node, (ast.FunctionDef, ast.ClassDef)):
            continue
        if (path.stem, node.name) in ENTRY_POINTS:
            continue
        if node.name not in elsewhere and node.name not in mentions(tree, skip=node):
            unused.append(node.name)
    assert unused == [], f"{path.name}: nothing calls {unused}"
