"""A file left unclosed by a test under ``tests/`` fails that test.

An unclosed file warns only when it is garbage collected, inside ``__del__``,
where an error cannot propagate; pytest then reports it as an unraisable
exception, so both warnings are errors here.
"""

from pathlib import Path

import pytest

HERE = Path(__file__).resolve().parent
STRICT = [
    pytest.mark.filterwarnings("error::ResourceWarning"),
    pytest.mark.filterwarnings("error::pytest.PytestUnraisableExceptionWarning"),
]


def pytest_collection_modifyitems(items):
    for item in items:
        if HERE in item.path.resolve().parents:
            for mark in STRICT:
                item.add_marker(mark)
