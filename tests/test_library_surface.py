"""Every function, class and method of the library has a production use.

Test-only helpers live in `conftest.py` as oracles, not in `src/se3shell`.
The roots of production use are the package exports (`__all__`), the command
line (`cli.main`), the names the benchmark tracer wraps and the short list
below.  A definition is used when code at module level, or inside a used
definition other than itself, refers to it: a function or class by its name
(in its own module or where it is imported) or as an attribute, a method as
an attribute.  So a helper that only another test-only helper calls counts
as unused too.
"""

import ast
from collections import defaultdict
from pathlib import Path

ROOT = Path(__file__).resolve().parent.parent
PACKAGE = ROOT / "src" / "se3shell"
LAYERS = ROOT / "perfbench" / "layers.py"

# Kept without a caller in src/, with the reason.
ALLOWED = {
    "energies": "the energy at convergence, for the planned per-attempt record",
    "log_se3": "the inverse of exp_se3 that nodal-pose interpolation will use",
    "accumulated_edge_rotation": "the benchmark answer check "
                                 "(perfbench/answers.py) measures windings with it",
}

_FUNCS = (ast.FunctionDef, ast.AsyncFunctionDef)


def _definitions(tree):
    """(name, node, is_method) of top-level defs and non-dunder methods."""
    for node in tree.body:
        if not isinstance(node, _FUNCS + (ast.ClassDef,)):
            continue
        yield node.name, node, False
        if isinstance(node, ast.ClassDef):
            for item in node.body:
                if (isinstance(item, _FUNCS)
                        and not (item.name.startswith("__") and item.name.endswith("__"))):
                    yield item.name, item, True


def _references(module, tree, def_ids):
    """(name, target, container) of every name and attribute use.

    `target` is the (module, name) a bare name resolves to, or None for an
    attribute; `container` is the id of the innermost definition holding the
    use, or None at module level.
    """
    imported = {}
    for node in ast.walk(tree):
        if isinstance(node, ast.ImportFrom) and node.level == 1 and node.module:
            for alias in node.names:
                imported[alias.asname or alias.name] = (node.module, alias.name)
    out = []

    def visit(node, container):
        if id(node) in def_ids:
            container = id(node)
        if isinstance(node, ast.Name):
            target = imported.get(node.id, (module, node.id))
            out.append((target[1], target, container))
        elif isinstance(node, ast.Attribute):
            out.append((node.attr, None, container))
        for child in ast.iter_child_nodes(node):
            visit(child, container)

    visit(tree, None)
    return out


def _traced_names():
    """Attribute names in the SPANS table of the benchmark tracer."""
    for node in ast.parse(LAYERS.read_text()).body:
        if isinstance(node, ast.Assign) and any(
                isinstance(t, ast.Name) and t.id == "SPANS" for t in node.targets):
            return {elt.elts[1].value for elt in node.value.elts}
    raise AssertionError("perfbench/layers.py has no SPANS table")


def _exported_names():
    for node in ast.parse((PACKAGE / "__init__.py").read_text()).body:
        if isinstance(node, ast.Assign) and node.targets[0].id == "__all__":
            return set(ast.literal_eval(node.value))
    raise AssertionError("se3shell/__init__.py has no __all__")


def unused_library_names():
    trees = {path.stem: ast.parse(path.read_text())
             for path in sorted(PACKAGE.glob("*.py"))}
    defs = [(module, name, node, is_method) for module, tree in trees.items()
            for name, node, is_method in _definitions(tree)]
    def_ids = {id(node) for _, _, node, _ in defs}
    refs = defaultdict(list)
    for module, tree in trees.items():
        for name, target, container in _references(module, tree, def_ids):
            refs[name].append((target, container))

    roots = _exported_names() | _traced_names() | set(ALLOWED)
    used = {id(node) for module, name, node, _ in defs
            if name in roots or (module, name) == ("cli", "main")}
    changed = True
    while changed:
        changed = False
        for module, name, node, is_method in defs:
            if id(node) in used:
                continue
            if any((target is None or (not is_method and target == (module, name)))
                   and (container is None or (container in used and container != id(node)))
                   for target, container in refs[name]):
                used.add(id(node))
                changed = True
    return [f"{module}.{name}" for module, name, node, _ in defs if id(node) not in used]


def test_every_library_name_has_a_production_use():
    unused = unused_library_names()
    assert not unused, ("defined in src/se3shell but used only by tests (move them "
                        f"to tests/conftest.py) or by nothing: {unused}")


def test_allowlist_names_exist():
    defined = {name for path in PACKAGE.glob("*.py")
               for name, _, _ in _definitions(ast.parse(path.read_text()))}
    assert set(ALLOWED) <= defined
