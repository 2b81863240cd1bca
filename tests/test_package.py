import ast
import importlib
from pathlib import Path

import pytest

import stochpid


@pytest.mark.parametrize("module", ["design", "expr", "lyapunov", "model", "plants",
                                    "simulate", "stability"])
def test_public_names_exist(module):
    module = importlib.import_module(f"stochpid.{module}")
    assert [n for n in module.__all__ if not hasattr(module, n)] == []


@pytest.mark.parametrize("module", ["design", "lyapunov", "model", "plants", "simulate",
                                    "stability"])
def test_public_names_are_reexported(module):
    names = importlib.import_module(f"stochpid.{module}").__all__
    assert [n for n in names if not hasattr(stochpid, n)] == []
    assert set(names) <= set(stochpid.__all__)


@pytest.mark.parametrize("path", sorted(p.name for p in Path(stochpid.__file__).parent.glob("*.py")
                                        if p.name != "__init__.py"))
def test_no_unused_imports(path):
    tree = ast.parse((Path(stochpid.__file__).parent / path).read_text())
    imported = set()
    for node in ast.walk(tree):  # a function-level import is checked like a top-level one
        if isinstance(node, ast.Import):
            imported.update(a.asname or a.name.partition(".")[0] for a in node.names)
        elif isinstance(node, ast.ImportFrom) and node.module != "__future__":
            imported.update(a.asname or a.name for a in node.names)
    used = {node.id for node in ast.walk(tree) if isinstance(node, ast.Name)}
    assert sorted(imported - used) == []


@pytest.mark.parametrize("path", sorted(p.name for p in Path(stochpid.__file__).parent.glob("*.py")))
def test_no_function_level_imports(path):
    # every import runs at module level, so the import graph between the modules
    # (design -> stability, lyapunov) stays acyclic without a lazy import
    tree = ast.parse((Path(stochpid.__file__).parent / path).read_text())
    nested = [f"{fn.name}:{node.lineno}"
              for fn in ast.walk(tree) if isinstance(fn, (ast.FunctionDef, ast.AsyncFunctionDef))
              for node in ast.walk(fn) if isinstance(node, (ast.Import, ast.ImportFrom))]
    assert nested == []


def _own_names(node) -> set:
    """The names a top-level statement defines: a function, a class or assigned constants."""
    if isinstance(node, (ast.FunctionDef, ast.AsyncFunctionDef, ast.ClassDef)):
        return {node.name}
    targets = node.targets if isinstance(node, ast.Assign) else [getattr(node, "target", None)]
    return {t.id for t in targets if isinstance(t, ast.Name)}


def _referenced(path: Path) -> set:
    """The names the top-level statements of a file reference beyond their own definitions."""
    referenced = set()
    for node in ast.parse(path.read_text()).body:
        names = {sub.id for sub in ast.walk(node)
                 if isinstance(sub, ast.Name) and not isinstance(sub.ctx, ast.Store)}
        names.update(sub.attr for sub in ast.walk(node) if isinstance(sub, ast.Attribute))
        names.update(sub.name for sub in ast.walk(node) if isinstance(sub, ast.alias))
        referenced |= names - _own_names(node)
    return referenced


def test_no_orphan_private_names():
    # a private top-level name that nothing in the package references beyond its own
    # definition is dead code: a helper left behind when its caller went away
    defined, referenced = set(), set()
    for path in sorted(Path(stochpid.__file__).parent.glob("*.py")):
        for node in ast.parse(path.read_text()).body:
            defined.update((path.stem, n) for n in _own_names(node)
                           if n.startswith("_") and n[:2] != "__")
        referenced |= _referenced(path)
    assert sorted(f"{m}.{n}" for m, n in defined if n not in referenced) == []


PACKAGE = Path(stochpid.__file__).parent
# the code that uses the package: the package itself, the benchmark and the acceptance gate
CALLERS = [*PACKAGE.glob("*.py"), *(PACKAGE.parents[1] / "perfbench").glob("*.py"),
           PACKAGE.parents[1] / "tests" / "test_acceptance.py"]


MODULES = {path: importlib.import_module(f"stochpid.{path.stem}")
           for path in sorted(PACKAGE.glob("*.py")) if path.stem != "__init__"}


def test_no_uncalled_public_names():
    # a public name that no caller references beyond its own definition is dead API
    public = {name for module in MODULES.values() for name in getattr(module, "__all__", ())}
    assert public - set().union(*map(_referenced, CALLERS)) == set()


def _caught(path: Path) -> set:
    """The names that the ``except`` clauses of a file catch by name."""
    return {sub.id if isinstance(sub, ast.Name) else sub.attr
            for node in ast.walk(ast.parse(path.read_text()))
            if isinstance(node, ast.ExceptHandler) and node.type is not None
            for sub in ast.walk(node.type) if isinstance(sub, (ast.Name, ast.Attribute))}


def _is_bare(node: ast.ClassDef) -> bool:
    """A class body of nothing but a docstring or ``pass``."""
    return all(isinstance(stmt, ast.Pass) or isinstance(stmt, ast.Expr)
               and isinstance(stmt.value, ast.Constant) and isinstance(stmt.value.value, str)
               for stmt in node.body)


def test_no_uncaught_bare_exception_classes():
    # an exception class that adds nothing to its base is worth a name only when a
    # caller catches it by that name; raising the base says the same otherwise
    caught = set().union(*map(_caught, CALLERS))
    bare = [f"{path.stem}.{node.name}"
            for path, module in MODULES.items()
            for node in ast.parse(path.read_text()).body
            if isinstance(node, ast.ClassDef) and node.name in getattr(module, "__all__", ())
            and issubclass(getattr(module, node.name), BaseException)
            and _is_bare(node) and node.name not in caught]
    assert bare == []
