"""The package's re-export list: every public name of the submodules, once."""

import inspect

import rotmaps
from rotmaps import adjacency, core, exceptions, families, product, shift, solver

SUBMODULES = (adjacency, core, families, product, shift, solver)


def test_all_is_the_submodules_public_names_plus_exceptions():
    exception_classes = {
        name for name, obj in vars(exceptions).items()
        if inspect.isclass(obj) and obj.__module__ == exceptions.__name__
    }
    expected = set().union(*(module.__all__ for module in SUBMODULES)) | exception_classes
    assert sorted(rotmaps.__all__) == sorted(expected)


def test_every_name_resolves():
    for module in SUBMODULES:
        for name in module.__all__:
            assert getattr(rotmaps, name) is getattr(module, name), name
    for name in rotmaps.__all__:
        assert hasattr(rotmaps, name), name
