"""The collection check in ``tests/conftest.py``: tests whose listed
names agree for the first 100 characters fail collection."""

from types import SimpleNamespace

import pytest

from tests.conftest import listed_name, pytest_collection_modifyitems


def test_listed_name_is_the_junit_class_and_name():
    assert listed_name("tests/ftl/test_x.py::test_y[a::b]") == "tests.ftl.test_x::test_y[a::b]"


def test_names_alike_for_100_characters_fail_collection():
    stem = "tests/t.py::test_" + "x" * 90
    items = [SimpleNamespace(nodeid=f"{stem}[{case}]") for case in ("one", "two")]
    with pytest.raises(pytest.UsageError, match=r"\[one\] \| .*\[two\]"):
        pytest_collection_modifyitems(None, None, items)
    pytest_collection_modifyitems(None, None, items[:1])
