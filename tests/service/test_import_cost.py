"""A server process imports what serving needs and nothing heavier.

scipy costs a server process about a second of start-up and ~70 MiB of
memory, and only the AR(1) workload generator uses it, so it must be
imported on first use, never at module load.  Checked in a fresh
interpreter: this test process may already hold scipy from other tests.
"""

import os
import subprocess
import sys
from pathlib import Path

SRC = Path(__file__).resolve().parents[2] / "src"


def test_server_import_leaves_scipy_unloaded():
    code = "import sys, repro.service.server; print(sorted(m for m in sys.modules if m.split('.')[0] == 'scipy'))"
    path = os.pathsep.join(filter(None, [str(SRC), os.environ.get("PYTHONPATH")]))
    out = subprocess.run(
        [sys.executable, "-c", code],
        env={**os.environ, "PYTHONPATH": path},
        capture_output=True,
        text=True,
        check=True,
    )
    assert out.stdout.strip() == "[]"
