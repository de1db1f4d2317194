"""The package namespace is ``__all__``: a star import yields exactly its
names, each one resolves, and no other public name is exported. The
distribution is named after the package and carries its version."""
import inspect
import pathlib

import pytest

import parrondoq


def test_star_import_yields_exactly_all():
    assert len(set(parrondoq.__all__)) == len(parrondoq.__all__)
    namespace = {}
    exec("from parrondoq import *", namespace)
    del namespace["__builtins__"]
    assert set(namespace) == set(parrondoq.__all__)
    for name in parrondoq.__all__:
        assert namespace[name] is getattr(parrondoq, name), name
    public = {name for name, value in vars(parrondoq).items()
              if not name.startswith("_") and not inspect.ismodule(value)}
    assert public == set(parrondoq.__all__) - {"__version__"}


def test_distribution_is_named_and_versioned_as_the_package():
    tomllib = pytest.importorskip("tomllib")
    pyproject = pathlib.Path(__file__).parents[1] / "pyproject.toml"
    project = tomllib.loads(pyproject.read_text(encoding="utf-8"))["project"]
    assert project["name"] == "parrondoq"
    assert project["version"] == parrondoq.__version__
