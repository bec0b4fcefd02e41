import pytest

from permtri.acceptance import _tower


@pytest.fixture(scope="session")
def tower():
    """Session-cached tower factory: tower(p, h) -> FieldTower."""
    return _tower
