"""The package namespace: every public name resolves lazily to the object
its home module defines."""

import importlib

import pytest

import shnirel
from shnirel import ratdecomp, report


def test_every_public_name_is_its_home_modules_object():
    assert shnirel.__all__[-1] == "__version__"
    names = shnirel.__all__[:-1]
    assert names == sorted(shnirel._HOME) and len(names) == len(set(names))
    for name in names:
        home = importlib.import_module(f"shnirel.{shnirel._HOME[name]}")
        assert getattr(shnirel, name) is getattr(home, name), name


def test_unknown_name_raises_attribute_error():
    with pytest.raises(AttributeError, match="no attribute 'no_such_name'"):
        shnirel.no_such_name
    assert not hasattr(shnirel, "dataclass")


def test_star_import_binds_every_public_name():
    namespace: dict = {}
    exec("from shnirel import *", namespace)
    assert set(shnirel.__all__) <= set(namespace)
    assert namespace["GaussianInt"] is shnirel.GaussianInt
    assert set(shnirel.__all__) <= set(dir(shnirel))


def test_exceptions_are_shared_with_ratdecomp():
    assert ratdecomp.SearchExhausted is report.SearchExhausted is shnirel.SearchExhausted
    assert ratdecomp.HypothesisViolation is report.HypothesisViolation
