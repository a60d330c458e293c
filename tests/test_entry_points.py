"""No dead entry points and no unset knobs.

Every definition in ``src/qlag`` is reached by the package itself or by the
benchmark's tracer, and every parameter with a default is set by some call
in the package.

A top-level function or class, or a method that is not a dunder, counts as
reached when its name appears as a ``Name`` or an ``Attribute`` in another
``src/qlag`` module, or in its own module outside its own ``def``, or when
``perfbench/tracing.py`` wraps an attribute of that name.  ``__init__`` and
``__main__`` re-export and dispatch only, so they do not count.  Tests do
not count either: a helper only a test calls is a second copy of a routine
the package already has.

A parameter with a default counts as set when a ``src/qlag`` call of a
function of that name passes it by keyword, by position, or through ``*``
or ``**``; a method's calls skip ``self``, and ``__init__`` is called by its
class name or through ``super().__init__``.  A default no call overrides is
a decision written in two places, the signature and every caller's silence,
so it belongs where it is used.
"""

import ast
import importlib.util
import os
import sys

import pytest

HERE = os.path.dirname(__file__)
PACKAGE = os.path.join(HERE, os.pardir, "src", "qlag")
TRACING = os.path.join(HERE, os.pardir, "perfbench", "tracing.py")

# name -> why it stays although nothing in the package reaches it
ALLOWED = {
    "catalog": "the named instances are the package's public inputs",
    "immersion.measured_lagrangian_angle": "the measured angle the report is to carry",
    "projective.submersion_isometry_defect": "acceptance criterion 6, due in the report",
    "immersion.gradient_graph_variation": "the negative control of the variation check",
    "lattice.LatticeBasis.contains": "acceptance criterion 1 compares dual lattices with it",
}


def _modules() -> dict[str, ast.Module]:
    out = {}
    for name in sorted(os.listdir(PACKAGE)):
        stem, ext = os.path.splitext(name)
        if ext == ".py" and stem not in ("__init__", "__main__"):
            with open(os.path.join(PACKAGE, name)) as fh:
                out[stem] = ast.parse(fh.read(), filename=name)
    return out


def _definitions(tree: ast.Module):
    """(qualified name, node) of top-level defs and their non-dunder methods."""
    defs = (ast.FunctionDef, ast.AsyncFunctionDef, ast.ClassDef)
    for node in tree.body:
        if not isinstance(node, defs):
            continue
        yield node.name, node
        if isinstance(node, ast.ClassDef):
            for item in node.body:
                if isinstance(item, defs[:2]) and not item.name.startswith("__"):
                    yield f"{node.name}.{item.name}", item


def _uses(tree: ast.AST, skip: ast.AST | None = None) -> set[str]:
    """Identifiers read as a Name or an Attribute in tree, outside skip."""
    out = set()
    stack = [tree]
    while stack:
        node = stack.pop()
        if node is skip:
            continue
        if isinstance(node, ast.Name):
            out.add(node.id)
        elif isinstance(node, ast.Attribute):
            out.add(node.attr)
        stack.extend(ast.iter_child_nodes(node))
    return out


def _traced() -> set[str]:
    spec = importlib.util.spec_from_file_location("perfbench_tracing", TRACING)
    module = importlib.util.module_from_spec(spec)
    sys.modules[spec.name] = module  # its dataclass looks itself up there
    spec.loader.exec_module(module)
    return {attr for _, attr, _, _ in module.BINDINGS}


def _unreached() -> list[str]:
    modules = _modules()
    traced = _traced()
    elsewhere = {
        stem: set().union(*(_uses(t) for s, t in modules.items() if s != stem))
        for stem in modules
    }
    out = []
    for stem, tree in modules.items():
        for name, node in _definitions(tree):
            bare = name.rsplit(".", 1)[-1]
            if bare in traced or bare in elsewhere[stem] or bare in _uses(tree, skip=node):
                continue
            out.append(f"{stem}.{name}")
    return out


def _allowed(qualified: str, allowlist: dict = ALLOWED) -> bool:
    return qualified in allowlist or qualified.split(".", 1)[0] in allowlist


def test_every_entry_point_is_reached():
    dead = [name for name in _unreached() if not _allowed(name)]
    assert not dead, f"reached by no qlag module and no tracer binding: {dead}"


@pytest.mark.parametrize("entry", sorted(ALLOWED))
def test_allowlist_entry_is_defined_and_still_needed(entry):
    modules = _modules()
    stem, _, name = entry.partition(".")
    assert stem in modules, f"no module qlag.{stem}"
    if name:
        assert name in dict(_definitions(modules[stem])), f"qlag.{stem} has no {name}"
        assert entry in _unreached(), f"{entry} is reached now; drop it from ALLOWED"


# -- knobs: parameters with a default that some package call sets ---------------------

# "module.function(parameter)" or a module -> why its default stays unset
KNOBS_ALLOWED = {
    "catalog": "the named instances are the package's public inputs",
    "cli.main(argv)": "the console script passes no argv; tests and embedders do",
    "immersion.gradient_graph_variation(resolution)": "the negative control, reached by tests",
}


def _knobs(tree: ast.Module):
    """(qualified name, names a call may use, parameter name, position among
    the call's arguments or None) of every parameter with a default, in
    top-level functions and methods."""
    for node in tree.body:
        if isinstance(node, ast.ClassDef):
            for m in node.body:
                if isinstance(m, ast.FunctionDef):
                    callees = {node.name, "__init__"} if m.name == "__init__" else {m.name}
                    yield from _params(m, f"{node.name}.{m.name}", callees, skip=1)
        elif isinstance(node, ast.FunctionDef):
            yield from _params(node, node.name, {node.name}, skip=0)


def _params(fn: ast.FunctionDef, qualified: str, callees: set[str], skip: int):
    """_knobs' tuples for one function; skip drops self from the positions."""
    args = fn.args
    positional = args.posonlyargs + args.args
    for i, arg in enumerate(positional[len(positional) - len(args.defaults):]):
        position = len(positional) - len(args.defaults) + i - skip
        yield f"{qualified}({arg.arg})", callees, arg.arg, position
    for arg, default in zip(args.kwonlyargs, args.kw_defaults):
        if default is not None:
            yield f"{qualified}({arg.arg})", callees, arg.arg, None


def _sets(call: ast.Call, name: str, position: int | None) -> bool:
    """Whether call passes the parameter, by keyword, position, * or **."""
    if any(kw.arg in (name, None) for kw in call.keywords):
        return True
    if position is None:
        return False
    return len(call.args) > position or any(isinstance(a, ast.Starred) for a in call.args)


def _unset_knobs() -> list[str]:
    modules = _modules()
    calls = [node for tree in modules.values() for node in ast.walk(tree)
             if isinstance(node, ast.Call)]

    def callee(call: ast.Call) -> str | None:
        func = call.func
        return func.id if isinstance(func, ast.Name) else getattr(func, "attr", None)

    out = []
    for stem, tree in modules.items():
        for qualified, names, param, position in _knobs(tree):
            if not any(callee(c) in names and _sets(c, param, position) for c in calls):
                out.append(f"{stem}.{qualified}")
    return out


def test_every_knob_is_set_by_a_package_call():
    unset = [name for name in _unset_knobs() if not _allowed(name, KNOBS_ALLOWED)]
    assert not unset, f"defaults no qlag call overrides: {unset}"


@pytest.mark.parametrize("entry", sorted(KNOBS_ALLOWED))
def test_knob_allowlist_entry_is_still_unset(entry):
    unset = _unset_knobs()
    if "(" in entry:
        assert entry in unset, f"{entry} is set by a qlag call now, or gone; drop it"
    else:
        assert any(name.startswith(entry + ".") for name in unset), f"no unset knob in {entry}"
