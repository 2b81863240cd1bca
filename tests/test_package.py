import importlib

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
