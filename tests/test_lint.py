"""Static checks on the package source, with the standard library only.

- A module-level import must be used in its module, unless the name is
  in ``__all__``.
- A module-level ``_private`` function, class or assigned name must be
  referenced somewhere in the package.
- Every name in the package's ``__all__`` must be bound in
  ``__init__.py``.
- A text-mode ``open`` names its encoding.
- ``json.dump`` is called in one function only, so manifests and
  artifacts are written alike. Likewise the steady-state solves call
  the Newton polish ``_damped_newton4``, construct
  ``InternalConsistencyError`` and call ``_merge_duplicates`` in one
  function each, shared by both routes.
- The test oracles (``tests/_oracles.py``) may take from the package
  only the parameter containers and the equations, so they stay
  independent of the solvers they check.
- The RK4 step loop of ``dynamics.integrate_segment`` calls nothing
  outside its ``raise``: the equations are written into it.
- Only ``model``, ``config`` and ``__init__`` name ``DriveSpec``: every
  solver takes the drive as its amplitude ``eta``.
- No module imports ``multiprocessing`` or ``concurrent.futures``:
  scans run in the calling thread.
- ``steady`` takes no eigenvalues and no ``np.roots``, and defines no
  tolerance on the imaginary part of a root: its one root rule is the
  derivative cascade of ``_real_roots``.
"""

import ast
from pathlib import Path

import pytest

SRC = Path(__file__).resolve().parents[1] / "src" / "magpol"
MODULES = sorted(SRC.glob("*.py"))
ORACLES = Path(__file__).resolve().parent / "_oracles.py"
ORACLE_IMPORTS = {"DriveSpec", "SystemParams", "vector_field"}


def _tree(path):
    return ast.parse(path.read_text(), filename=str(path))


def _exported(tree) -> set[str]:
    for node in tree.body:
        if (isinstance(node, ast.Assign)
                and any(isinstance(t, ast.Name) and t.id == "__all__"
                        for t in node.targets)):
            return {elt.value for elt in node.value.elts}
    return set()


def _defined(node) -> list[str]:
    """Names a top-level function, class or assignment defines."""
    if isinstance(node, (ast.FunctionDef, ast.AsyncFunctionDef,
                         ast.ClassDef)):
        return [node.name]
    if isinstance(node, (ast.Assign, ast.AnnAssign)):
        targets = node.targets if isinstance(node, ast.Assign) \
            else [node.target]
        return [t.id for t in targets if isinstance(t, ast.Name)]
    return []


def _bound(tree) -> set[str]:
    """Names a module binds at its top level."""
    names = set()
    for node in tree.body:
        if isinstance(node, (ast.Import, ast.ImportFrom)):
            names.update((alias.asname or alias.name).split(".")[0]
                         for alias in node.names)
        else:
            names.update(_defined(node))
    return names


def _referenced(tree) -> set[str]:
    """Names read, attributes taken and names imported anywhere."""
    names = set()
    for node in ast.walk(tree):
        if isinstance(node, ast.Name) and isinstance(node.ctx, ast.Load):
            names.add(node.id)
        elif isinstance(node, ast.Attribute):
            names.add(node.attr)
        elif isinstance(node, ast.ImportFrom):
            names.update(alias.name for alias in node.names)
    return names


@pytest.mark.parametrize("path", MODULES, ids=lambda p: p.name)
def test_module_level_imports_are_used(path):
    tree = _tree(path)
    used = {node.id for node in ast.walk(tree) if isinstance(node, ast.Name)}
    exported = _exported(tree)
    unused = []
    for node in tree.body:
        if not isinstance(node, (ast.Import, ast.ImportFrom)):
            continue
        if isinstance(node, ast.ImportFrom) and node.module == "__future__":
            continue
        for alias in node.names:
            name = (alias.asname or alias.name).split(".")[0]
            if name not in used and name not in exported:
                unused.append(f"{path.name}:{node.lineno} {name}")
    assert not unused, f"unused imports: {unused}"


def test_private_definitions_are_referenced():
    trees = {path.name: _tree(path) for path in MODULES}
    referenced = set().union(*map(_referenced, trees.values()))
    orphans = [f"{name}:{node.lineno} {defined}"
               for name, tree in trees.items() for node in tree.body
               for defined in _defined(node)
               if defined.startswith("_")
               and not defined.startswith("__")
               and defined not in referenced]
    assert not orphans, f"unreferenced private definitions: {orphans}"


def test_exported_names_are_bound():
    tree = _tree(SRC / "__init__.py")
    exported = _exported(tree)
    assert exported, "__init__.py has no __all__"
    missing = sorted(exported - _bound(tree))
    assert not missing, f"__all__ names not bound in __init__.py: {missing}"


def _opens_text_without_encoding(node) -> bool:
    """A call of the builtin ``open`` in text mode with no
    ``encoding=``."""
    if not (isinstance(node, ast.Call) and isinstance(node.func, ast.Name)
            and node.func.id == "open"):
        return False
    keywords = {kw.arg: kw.value for kw in node.keywords}
    mode = node.args[1] if len(node.args) > 1 else keywords.get("mode")
    binary = isinstance(mode, ast.Constant) and "b" in str(mode.value)
    return not binary and "encoding" not in keywords and len(node.args) < 4


def test_text_files_are_opened_as_utf8():
    """How a config or CSV decodes must not depend on the locale."""
    bare = [f"{path.name}:{node.lineno}" for path in MODULES
            for node in ast.walk(_tree(path))
            if _opens_text_without_encoding(node)]
    assert not bare, f"open() without encoding=: {bare}"


def _callers(path, callee: str) -> list[str]:
    """``module:function`` of each call of ``callee``, as the source
    spells the called name (``json.dump``), in ``path``; a call outside
    any function is ``module:<module>``."""
    callers = []

    def visit(node, owner):
        if isinstance(node, (ast.FunctionDef, ast.AsyncFunctionDef)):
            owner = node.name
        if (isinstance(node, ast.Call)
                and ast.unparse(node.func) == callee):
            callers.append(f"{path.name}:{owner}")
        for child in ast.iter_child_nodes(node):
            visit(child, owner)

    visit(_tree(path), "<module>")
    return callers


def _assert_one_caller(callee: str):
    callers = [c for path in MODULES for c in _callers(path, callee)]
    assert len(set(callers)) == 1, f"{callee} called in {callers}"


def test_one_json_writer():
    """Every JSON file, manifest or artifact, gets its bytes from one
    function."""
    _assert_one_caller("json.dump")


@pytest.mark.parametrize("callee", ["_damped_newton4",
                                    "InternalConsistencyError",
                                    "_merge_duplicates"])
def test_one_polish_and_one_merge_for_both_steady_routes(callee):
    """The passive and active solves polish their candidates, fail a
    cell whose required root does not polish, and merge duplicate
    points in one function each, so each rule is written once."""
    _assert_one_caller(callee)


def test_oracles_import_only_the_equations():
    """A module import would hand the oracles every solver, so only
    names from ``from magpol... import`` statements pass."""
    taken = set()
    for node in ast.walk(_tree(ORACLES)):
        if isinstance(node, ast.Import):
            taken.update(alias.name for alias in node.names
                         if alias.name.split(".")[0] == "magpol")
        elif (isinstance(node, ast.ImportFrom) and node.module
              and node.module.split(".")[0] == "magpol"):
            taken.update(alias.name for alias in node.names)
    assert taken, "_oracles.py imports nothing from magpol"
    extra = sorted(taken - ORACLE_IMPORTS)
    assert not extra, f"_oracles.py imports {extra} from magpol"


def test_integrator_step_loop_calls_nothing():
    """A call per RK4 stage costs about as much as the stage's
    arithmetic, so the equations stay inline in the one step loop of
    ``integrate_segment``; only the divergence ``raise`` may call."""
    func = next(node for node in ast.walk(_tree(SRC / "dynamics.py"))
                if isinstance(node, ast.FunctionDef)
                and node.name == "integrate_segment")
    loops = [node for node in ast.walk(func)
             if isinstance(node, (ast.For, ast.While))]
    assert len(loops) == 1, f"integrate_segment has {len(loops)} loops"
    calls = []

    def visit(node):
        if isinstance(node, ast.Raise):
            return
        if isinstance(node, ast.Call):
            calls.append(f"dynamics.py:{node.lineno} {ast.unparse(node)}")
        for child in ast.iter_child_nodes(node):
            visit(child)

    for stmt in loops[0].body + loops[0].orelse:
        visit(stmt)
    assert not calls, f"calls in the step loop: {calls}"


DRIVE_MODULES = {"__init__.py", "config.py", "model.py"}


def test_drive_spec_stays_at_the_boundary():
    """``DriveSpec`` is the validated drive of a config and the type of
    the power conversions; the solvers take its amplitude ``eta`` (a
    float, an array, or None for the active model), so no other module
    names it."""
    naming = {path.name for path in MODULES
              if "DriveSpec" in _referenced(_tree(path)) | _bound(_tree(path))}
    assert "model.py" in naming
    assert naming <= DRIVE_MODULES, \
        f"DriveSpec named in {sorted(naming - DRIVE_MODULES)}"


POOL_MODULES = ("multiprocessing", "concurrent.futures")


def _imported_modules(node) -> list[str]:
    """Modules an import statement loads, a ``from`` import's names
    counted as submodules (``from concurrent import futures``)."""
    if isinstance(node, ast.Import):
        return [alias.name for alias in node.names]
    if isinstance(node, ast.ImportFrom) and node.module:
        return [node.module] + [f"{node.module}.{alias.name}"
                                for alias in node.names]
    return []


def test_no_pool_machinery():
    """A scan runs in the calling thread, so no module loads a thread
    or process pool: neither ``concurrent.futures`` nor
    ``multiprocessing``."""
    found = [f"{path.name}:{node.lineno} {name}" for path in MODULES
             for node in ast.walk(_tree(path))
             for name in _imported_modules(node)
             if any(name == m or name.startswith(m + ".")
                    for m in POOL_MODULES)]
    assert not found, f"pool machinery imported: {found}"


def test_steady_state_roots_take_no_eigenvalues():
    """The steady-state polynomials' real roots come from the
    derivative cascade alone: ``steady`` calls no eigenvalue solver or
    ``roots``, and binds no name of the companion route's imaginary-part
    tolerances."""
    tree = _tree(SRC / "steady.py")
    calls = [f"{node.lineno} {name}" for node in ast.walk(tree)
             if isinstance(node, ast.Call)
             for name in [getattr(node.func, "attr",
                                  getattr(node.func, "id", None))]
             if name in ("eig", "eigvals", "roots", "polyroots")]
    assert not calls, f"eigenvalue or root solver called in steady: {calls}"
    tolerances = sorted(name for name in _bound(tree) | _referenced(tree)
                        if name.startswith("REAL_ROOT_")
                        or name == "NEAR_REAL_RTOL")
    assert not tolerances, f"companion tolerances in steady: {tolerances}"
