"""Import paths for the benchmark's self-tests: the program under
``src/`` and the harness package beside this directory.

Run from the repository root with ``python3 -m pytest perfbench/tests``.
"""

import os
import sys

_BENCH = os.path.dirname(os.path.dirname(os.path.abspath(__file__)))
_SRC = os.path.join(os.path.dirname(_BENCH), "src")
for path in (_SRC, _BENCH):
    if path not in sys.path:
        sys.path.insert(0, path)
