"""Marks every acceptance test ``slow``: ``python -m pytest -m "not slow"``
runs the rest of the suite as a quick loop, and a plain run still runs
everything."""

from pathlib import Path

import pytest

_ACCEPTANCE = Path(__file__).with_name("test_acceptance.py")


def pytest_collection_modifyitems(items):
    for item in items:
        if item.path == _ACCEPTANCE:
            item.add_marker(pytest.mark.slow)
