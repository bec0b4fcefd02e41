import resource

import pytest

from permtri.ff import make_field


@pytest.fixture(scope="session")
def tower():
    """The memoised tower factory: tower(p, h) -> FieldTower."""
    return make_field


def pytest_terminal_summary(terminalreporter):
    """One line per session: the peak resident set of the pytest process
    and of its children (the CLI subprocess tests), so a CI log shows the
    memory the suite needs."""
    mib = {
        who: resource.getrusage(which).ru_maxrss / 1024  # KiB on Linux
        for who, which in (("pytest", resource.RUSAGE_SELF), ("children", resource.RUSAGE_CHILDREN))
    }
    terminalreporter.write_line(f"peak ru_maxrss: pytest {mib['pytest']:.1f} MiB, children {mib['children']:.1f} MiB")
