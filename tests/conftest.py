"""Shared test settings and fixtures for ``tests/``.

A file left unclosed by a test under ``tests/`` fails that test. An unclosed
file warns only when it is garbage collected, inside ``__del__``, where an
error cannot propagate; pytest then reports it as an unraisable exception, so
both warnings are errors here.
"""

from pathlib import Path

import pytest

import paretomerge.checkpoint as checkpoint

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


@pytest.fixture(params=[None, 1, 3, 7], ids=lambda block: f"block={block or 'default'}")
def merge_block(request, monkeypatch):
    """Run the test at the default block size, then at 1, 3 and 7 elements,
    so the file reader, the in-memory tensors and the merge kernel all split
    small oracle tensors into many blocks, and block edges fall inside runs
    of tied magnitudes."""
    if request.param is not None:
        monkeypatch.setattr(checkpoint, "BLOCK", request.param)
