"""Suite-wide fixtures."""

import pytest

from repro.broker import invariants


@pytest.fixture
def checked():
    """Every cluster the test builds runs under the invariant oracle,
    checked after every event (see :func:`repro.broker.invariants.checked`)."""
    with invariants.checked() as watch:
        yield watch
