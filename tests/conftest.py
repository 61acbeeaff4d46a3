"""Suite-wide fixtures."""

import pytest

from tests.checked import watch


@pytest.fixture
def checked(monkeypatch):
    """Every cluster the test builds runs under the invariant oracle,
    checked after every event (see :mod:`tests.checked`)."""
    with watch(monkeypatch) as oracles:
        yield oracles
