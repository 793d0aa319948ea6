"""Child process for ``setup_s``: import the CLI with numpy and load a scenario.

Usage: python3 setup_probe.py SRC_DIR SCENARIO

Prints the seconds from just after interpreter start to the scenario being
parsed, which is the set-up a user waits for before the first suite runs.
"""

import sys
import time

t0 = time.perf_counter()
sys.path.insert(0, sys.argv[1])

import numpy  # noqa: E402,F401
import starext.cli  # noqa: E402,F401
from starext.scenario import load_scenario  # noqa: E402

load_scenario(sys.argv[2])
print(repr(time.perf_counter() - t0))
