import importlib
import inspect

import pytest

import l0path

MODULES = ("instance", "tridiag", "fenchel", "cover", "decomp", "oracle", "errors", "cli")

# public names that stay module-level on purpose: the fill order serves
# Instance's cached refit order, main is the console entry point, and
# build_relaxation is default_relaxation's second stage, called through the
# module global so that the benchmark's tracer can time it
NOT_EXPORTED = {"oracle.fill_reducing_order", "cli.main", "decomp.build_relaxation"}


def test_all_names_resolve_once():
    assert len(set(l0path.__all__)) == len(l0path.__all__)
    for name in l0path.__all__:
        assert hasattr(l0path, name), name


@pytest.mark.parametrize("module", MODULES)
def test_public_definitions_are_exported(module):
    mod = importlib.import_module(f"l0path.{module}")
    defined = {
        name
        for name, obj in vars(mod).items()
        if not name.startswith("_")
        and (inspect.isclass(obj) or inspect.isfunction(obj))
        and obj.__module__ == mod.__name__
    }
    missing = {name for name in defined if f"{module}.{name}" not in NOT_EXPORTED} - set(l0path.__all__)
    assert not missing
    assert {f"{module}.{name}" for name in defined} >= {q for q in NOT_EXPORTED if q.startswith(f"{module}.")}
