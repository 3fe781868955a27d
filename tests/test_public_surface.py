"""The package's re-export list: every public name of the submodules, once."""

import inspect

import rotmaps
from rotmaps import adjacency, core, exceptions, families, product, shift, solver

SUBMODULES = (adjacency, core, families, product, shift, solver)
EXCEPTION_CLASSES = {
    name for name, obj in vars(exceptions).items()
    if inspect.isclass(obj) and obj.__module__ == exceptions.__name__
}


def test_all_is_the_submodules_public_names_plus_exceptions():
    expected = set().union(*(module.__all__ for module in SUBMODULES)) | EXCEPTION_CLASSES
    assert sorted(rotmaps.__all__) == sorted(expected)


def test_exceptions_all_lists_its_classes():
    assert sorted(exceptions.__all__) == sorted(EXCEPTION_CLASSES)


def test_every_name_resolves():
    for module in SUBMODULES:
        for name in module.__all__:
            assert getattr(rotmaps, name) is getattr(module, name), name
    for name in rotmaps.__all__:
        assert hasattr(rotmaps, name), name
