"""Suite-wide collection check: every test keeps a name of its own when
a results listing cuts names short.

A listing of this suite's results prints each test as its JUnit class
and name -- ``tests.ftl.test_x::test_y[case]`` -- cut at
``LISTED_NAME_WIDTH`` characters.  Two tests whose listed names agree
that far show as one, so a failing case would hide under a passing
sibling.  Collection fails instead, naming each clash.
"""

from collections import defaultdict

import pytest

LISTED_NAME_WIDTH = 100


def listed_name(nodeid: str) -> str:
    """``tests/ftl/test_x.py::test_y[case]`` as the listing prints it."""
    path, _, name = nodeid.partition("::")
    return f"{path.removesuffix('.py').replace('/', '.')}::{name}"


def pytest_collection_modifyitems(session, config, items):
    shown = defaultdict(list)
    for item in items:
        shown[listed_name(item.nodeid)[:LISTED_NAME_WIDTH]].append(item.nodeid)
    clashes = [nodeids for nodeids in shown.values() if len(nodeids) > 1]
    if clashes:
        raise pytest.UsageError(
            f"{len(clashes)} groups of tests share the first "
            f"{LISTED_NAME_WIDTH} characters of their listed name; shorten "
            "their names or ids:\n"
            + "\n".join("  " + " | ".join(nodeids) for nodeids in clashes)
        )
