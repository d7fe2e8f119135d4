"""The benchmark's tracer wraps names it looks up in the package's
modules; removing one of them must fail here, not silently break
``bench/run.py --trace 1``."""

import os
import subprocess
import sys

from .conftest import SRC

BENCH = SRC.parent / "bench"


def test_tracer_installs():
    proc = subprocess.run(
        [sys.executable, "-c", "import tracer; tracer.Tracer().install()"],
        capture_output=True,
        text=True,
        env=dict(os.environ, PYTHONPATH=os.pathsep.join([str(SRC), str(BENCH)])),
    )
    assert proc.returncode == 0, proc.stderr
