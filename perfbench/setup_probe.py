"""Cold set-up of one workload, run in a fresh interpreter by run.py.

    python3 perfbench/setup_probe.py P:H [P:H ...]

Times `import permtri` plus make_field and ScanEngine for each field and
prints the seconds taken.
"""

import sys
from time import perf_counter

t0 = perf_counter()
import permtri  # noqa: E402
from permtri.engine import ScanEngine  # noqa: E402

for spec in sys.argv[1:]:
    p, h = (int(x) for x in spec.split(":"))
    ScanEngine(permtri.make_field(p, h))
print(perf_counter() - t0)
