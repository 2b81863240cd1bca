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
    for node in tree.body:
        if isinstance(node, ast.Import):
            imported.update(a.asname or a.name.partition(".")[0] for a in node.names)
        elif isinstance(node, ast.ImportFrom) and node.module != "__future__":
            imported.update(a.asname or a.name for a in node.names)
    used = {node.id for node in ast.walk(tree) if isinstance(node, ast.Name)}
    assert sorted(imported - used) == []
