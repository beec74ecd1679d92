"""Fixtures shared by the test modules."""

import pytest

from spdmix import linalg


@pytest.fixture
def workers(monkeypatch):
    """``use(count)`` runs later solves on a pool of their own with
    ``count`` threads; one thread means no pool."""
    original = linalg._POOL

    def retire():
        if linalg._POOL not in (None, original):
            linalg._POOL.shutdown()

    def use(count):
        retire()
        monkeypatch.setattr(linalg, "_WORKERS", count)
        monkeypatch.setattr(linalg, "_POOL", None)

    yield use
    retire()
