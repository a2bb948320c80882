"""Every test in this directory fails on a stray RuntimeWarning: numerical
trouble must show up in a report or a test's own ``np.errstate``, never as
a warning on stderr."""

import pathlib

import pytest

HERE = pathlib.Path(__file__).resolve().parent


def pytest_collection_modifyitems(items):
    # a conftest hook sees every collected item, so keep to this directory
    for item in items:
        if HERE in item.path.resolve().parents:
            item.add_marker(pytest.mark.filterwarnings("error::RuntimeWarning"))
