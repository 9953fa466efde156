"""Every function, class and method of the library has a production use.

Test-only helpers live in `conftest.py` as oracles, not in `src/se3shell`.
The roots of production use are the package exports (`__all__`), the command
line (`cli.main`), the names the benchmark tracer wraps and the short list
below.  A definition is used when code at module level, or inside a used
definition other than itself, refers to it: a function or class by its name
(in its own module or where it is imported) or as an attribute, a method as
an attribute.  So a helper that only another test-only helper calls counts
as unused too.  Two last checks keep `np.moveaxis` and `np.cross` out of
the modules that run on every build and dump, file writes in `outputs.py`,
and `scipy.sparse` out of the modules that assemble and solve the band.
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

# Modules that run on every system build or mesh dump.  They move axes with
# transpose views, not np.moveaxis (4-7 us of axis normalisation a call), and
# form cross products from components, not with np.cross (twice the cost);
# the set-up code in scenario.py is exempt.
PER_BUILD_MODULES = ("liegroup", "fem", "magnetics", "solver", "mesh", "outputs")
SLOW_HELPERS = {"moveaxis", "cross"}

# The one module that writes files: the run's CSV, mesh dumps and solve
# report.  A write is an `open` with a mode that writes, appends, creates or
# updates, or a `write_text`/`write_bytes` call.
FILE_WRITER = "outputs"
MODE_CHARS = set("rwxabt+")
WRITE_METHODS = {"write_text", "write_bytes"}

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


def test_per_build_modules_call_neither_moveaxis_nor_cross():
    calls = [f"{module}.py:{node.lineno}" for module in PER_BUILD_MODULES
             for node in ast.walk(ast.parse((PACKAGE / f"{module}.py").read_text()))
             if (isinstance(node, ast.Attribute) and node.attr in SLOW_HELPERS)
             or (isinstance(node, ast.ImportFrom)
                 and SLOW_HELPERS & {alias.name for alias in node.names})]
    assert not calls, f"np.moveaxis or np.cross in a per-build module: {calls}"


def _is_write_mode(node) -> bool:
    return (isinstance(node, ast.Constant) and isinstance(node.value, str)
            and set(node.value) <= MODE_CHARS and bool(set(node.value) & set("wax+")))


def file_writes(tree) -> list[int]:
    """Line numbers of the file writes in a module."""
    lines = []
    for node in ast.walk(tree):
        if not isinstance(node, ast.Call):
            continue
        func = node.func
        name = func.id if isinstance(func, ast.Name) else getattr(func, "attr", None)
        # the mode is open's second argument, or Path.open's first
        modes = node.args[:2] + [kw.value for kw in node.keywords if kw.arg == "mode"]
        if name in WRITE_METHODS or (name == "open" and any(map(_is_write_mode, modes))):
            lines.append(node.lineno)
    return lines


def test_only_outputs_writes_files():
    assert file_writes(ast.parse((PACKAGE / f"{FILE_WRITER}.py").read_text()))
    writes = [f"{path.name}:{line}" for path in sorted(PACKAGE.glob("*.py"))
              if path.stem != FILE_WRITER
              for line in file_writes(ast.parse(path.read_text()))]
    assert not writes, f"file writes outside {FILE_WRITER}.py: {writes}"


# The modules that assemble and solve the tangent hold it in one container,
# the dgbtrf band of `fem.Band`; none of them imports a sparse format.
BAND_MODULES = ("fem", "solver")


def sparse_imports(tree) -> list[int]:
    """Line numbers of the imports of scipy.sparse or its submodules."""
    lines = []
    for node in ast.walk(tree):
        if isinstance(node, ast.Import):
            names = [alias.name for alias in node.names]
        elif isinstance(node, ast.ImportFrom) and node.level == 0:
            names = [node.module or ""] + [f"{node.module}.{a.name}" for a in node.names]
        else:
            continue
        if any(name == "scipy.sparse" or name.startswith("scipy.sparse.") for name in names):
            lines.append(node.lineno)
    return lines


def test_band_modules_import_no_sparse_format():
    imports = [f"{module}.py:{line}" for module in BAND_MODULES
               for line in sparse_imports(ast.parse((PACKAGE / f"{module}.py").read_text()))]
    assert not imports, f"scipy.sparse imported where the band is assembled or solved: {imports}"
    for source in ("import scipy.sparse as sp", "from scipy.sparse import linalg",
                   "from scipy import sparse", "import scipy.sparse.linalg"):
        assert sparse_imports(ast.parse(source)), source
