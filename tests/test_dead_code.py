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

Every defaulted parameter of a package function or method is also passed
by some call in `src/cbfsteer/` or `perfbench/`, positionally, by keyword
or through `*`/`**`, with calls matched by the callee's name as above. The
few no call passes are listed in `UNSET_KEPT`, each with its reason, and an
entry that no longer applies fails as in `TRACER_ONLY`.

Every parameter of a package function or method is read by its body. The
ones that only fill a shared signature are listed in `UNREAD_KEPT`, each
with its reason, and checked the same way.
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
TRACER_ONLY = {"geometry.segment_rect_signed_distance", "planner.steer_filter_lqr"}


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


# defaulted parameters no call in the package or the benchmark passes, and
# why each stays
UNSET_KEPT = {
    "bench.eval_controller.barrier_cache":
        "the benchmark's control-dynamic pass will share one cache per run",
    "geometry._strict_sign_flip.tol": "tracer-only scalar geometry; it goes with that layer",
    "cli.main.argv": "the entry point; tests pass their own argument lists",
    "cbf._audit.batch_size": "a test hook: audits in other slice sizes must count the same",
}


def defaulted_parameters(tree):
    """(qualified name, parameter name, positional index or None) of every
    defaulted parameter of a top-level function or of a method of a
    top-level class. The index counts the call's own arguments, so a
    method's `self` or `cls` is left out; a keyword-only parameter has none."""
    defs = [("", node) for node in tree.body if isinstance(node, ast.FunctionDef)]
    defs += [(f"{node.name}.", member) for node in tree.body if isinstance(node, ast.ClassDef)
             for member in node.body if isinstance(member, ast.FunctionDef)]
    for prefix, fn in defs:
        a = fn.args
        bound = bool(prefix) and not any(isinstance(d, ast.Name) and d.id == "staticmethod"
                                         for d in fn.decorator_list)
        positional = a.posonlyargs + a.args
        for i, arg in enumerate(positional[len(positional) - len(a.defaults):],
                                len(positional) - len(a.defaults)):
            yield prefix + fn.name, arg.arg, i - bound
        for arg, default in zip(a.kwonlyargs, a.kw_defaults):
            if default is not None:
                yield prefix + fn.name, arg.arg, None


def calls_by_name():
    """name -> every call to that name in the package and the benchmark, the
    callee named by its last identifier (`a.b.f(...)` calls f)."""
    calls: dict = {}
    for directory in (PACKAGE, BENCHMARK):
        for path in directory.glob("*.py"):
            for node in ast.walk(parse(path)):
                if isinstance(node, ast.Call):
                    f = node.func
                    name = f.id if isinstance(f, ast.Name) else getattr(f, "attr", None)
                    calls.setdefault(name, []).append(node)
    return calls


def sets(call, param, index):
    """Whether `call` passes the parameter: by keyword, through `**`, at its
    position, or through a `*` at or before it."""
    if any(kw.arg in (param, None) for kw in call.keywords):
        return True
    if index is None:
        return False
    return any(i == index or isinstance(arg, ast.Starred)
               for i, arg in enumerate(call.args[:index + 1]))


def unset_parameters():
    calls = calls_by_name()
    found = set()
    for path in PACKAGE.glob("*.py"):
        for qualname, param, index in defaulted_parameters(parse(path)):
            # a class is called by its own name for its __init__
            name = qualname.removesuffix(".__init__").rsplit(".", 1)[-1]
            if not any(sets(call, param, index) for call in calls.get(name, ())):
                found.add(f"{path.stem}.{qualname}.{param}")
    return found


def test_every_defaulted_parameter_is_set_by_a_caller():
    assert unset_parameters() == set(UNSET_KEPT)


def test_the_parameter_scan_reads_calls():
    sig = ast.parse("class C:\n    def f(self, a, b=1, *, c=2): pass\n"
                    "def g(x, y=0): pass\n")
    assert list(defaulted_parameters(sig)) == [("g", "y", 1), ("C.f", "b", 1), ("C.f", "c", None)]
    def call(src):
        return ast.parse(src).body[0].value

    assert sets(call("o.f(0, 1)"), "b", 1) and not sets(call("o.f(0)"), "b", 1)
    assert sets(call("o.f(0, c=3)"), "c", None) and not sets(call("o.f(0, 1)"), "c", None)
    assert sets(call("o.f(**kw)"), "c", None) and sets(call("o.f(*args)"), "b", 1)
    assert not sets(call("o.f(0, 1, *args)"), "c", None)


# parameters no body reads, and why each stays
UNREAD_KEPT = {
    "cbf.HandcraftedBarrier.value_and_grad.observation":
        "barriers share one signature; the hand barrier reads the world, not an observation",
    "cli._cmd_replay.out_dir": "every command takes (args, cfg, out_dir); replay writes no file",
    "neural._Fresh.get.key": "a BatchWorkspace method; with no workspace nothing is keyed",
    "neural._Fresh.out.key": "a BatchWorkspace method; with no workspace nothing is keyed",
    "neural._Fresh.out.shape": "a BatchWorkspace method; numpy sizes the result itself",
    "neural._Fresh.out.dtype": "a BatchWorkspace method; numpy types the result itself",
    "neural._Fresh.sub.name": "a BatchWorkspace method; with no workspace nothing is keyed",
    "config.make_hyper.kind":
        "the benchmark workloads pass it, until the benchmark change of ROADMAP item 6",
}


def functions(tree):
    """(qualified name, node, whether it is bound) of every top-level
    function and every method of a top-level class; a bound method's first
    parameter is its `self` or `cls`."""
    for node in tree.body:
        if isinstance(node, ast.FunctionDef):
            yield node.name, node, False
        elif isinstance(node, ast.ClassDef):
            for member in node.body:
                if isinstance(member, ast.FunctionDef):
                    bound = not any(isinstance(d, ast.Name) and d.id == "staticmethod"
                                    for d in member.decorator_list)
                    yield f"{node.name}.{member.name}", member, bound


def unread(tree):
    """Qualified name and parameter name of every parameter that its
    function's body does not read (defaults are not the body)."""
    for qualname, fn, bound in functions(tree):
        a = fn.args
        params = a.posonlyargs + a.args + [a.vararg] + a.kwonlyargs + [a.kwarg]
        read = {n.id for stmt in fn.body for n in ast.walk(stmt)
                if isinstance(n, ast.Name) and isinstance(n.ctx, ast.Load)}
        for p in [p.arg for p in params if p is not None][int(bound):]:
            if p not in read:
                yield f"{qualname}.{p}"


def test_every_parameter_is_read():
    found = {f"{path.stem}.{name}" for path in PACKAGE.glob("*.py") for name in unread(parse(path))}
    assert found == set(UNREAD_KEPT)


def test_the_read_scan_sees_bodies_only():
    tree = ast.parse("class C:\n    def f(self, a, b=1, *c, d, **e):\n        return a + c\n"
                     "    @staticmethod\n    def g(x):\n        x = 1\n"
                     "def h(y=z):\n    return lambda: y\n")
    assert {(q, bound) for q, _, bound in functions(tree)} == {
        ("C.f", True), ("C.g", False), ("h", False)}
    assert set(unread(tree)) == {"C.f.b", "C.f.d", "C.f.e", "C.g.x"}
