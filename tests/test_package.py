"""The package's public surface: every name in __all__ is importable from
membrane_lab itself, although the submodules load on first use."""

import importlib

import pytest

import membrane_lab

NAMES = [name for name in membrane_lab.__all__ if name != "__version__"]


@pytest.mark.parametrize("name", NAMES)
def test_name_is_its_submodules_object(name):
    value = getattr(membrane_lab, name)
    module = importlib.import_module(value.__module__)
    assert module.__name__.startswith("membrane_lab.")
    assert getattr(module, name) is value


def test_dir_lists_every_public_name():
    assert set(membrane_lab.__all__) <= set(dir(membrane_lab))


def test_star_import_binds_every_public_name():
    namespace = {}
    exec("from membrane_lab import *", namespace)
    assert set(membrane_lab.__all__) <= set(namespace)
    assert namespace["__version__"] == membrane_lab.__version__


def test_unknown_name_raises_attribute_error():
    with pytest.raises(AttributeError, match="no_such_name"):
        membrane_lab.no_such_name
    assert not hasattr(membrane_lab, "no_such_name")
