"""Self-tests of the benchmark harness; run them with ``run.py --selftest``."""

import sys
from pathlib import Path

_HERE = Path(__file__).resolve().parents[1]
for _path in (_HERE, _HERE.parents[1] / "src"):
    if str(_path) not in sys.path:
        sys.path.insert(0, str(_path))
