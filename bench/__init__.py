"""The repo's performance benchmark (see ``bench/README.md``).

Six paper-shaped workloads timed with every observer off, a per-layer
table measured from outside the program, and an exact-count regression
gate.  Separate from the pytest figure suite in ``benchmarks/``.

The benchmark measures the ``repro`` package of *this* checkout, so the
package puts ``<root>/src`` first on ``sys.path`` — ``python -m bench``
and ``python3 bench/run.py`` then work from the repo root with or
without ``PYTHONPATH=src``.
"""

import sys
from pathlib import Path

ROOT = Path(__file__).resolve().parent.parent
SRC = ROOT / "src"

if str(SRC) not in sys.path:
    sys.path.insert(0, str(SRC))
