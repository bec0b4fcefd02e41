import pytest

from permtri.ff import make_field


@pytest.fixture(scope="session")
def tower():
    """The memoised tower factory: tower(p, h) -> FieldTower."""
    return make_field
