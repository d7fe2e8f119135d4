"""The benchmark's tracer wraps names it looks up in the package's
modules, and its workloads keep their own copies of the move format;
removing one of those names or changing the format must fail here, not
silently break ``bench/run.py``."""

import os
import subprocess
import sys

from .conftest import SRC

BENCH = SRC.parent / "bench"


def _run_with_bench(code: str) -> subprocess.CompletedProcess:
    return subprocess.run(
        [sys.executable, "-c", code],
        capture_output=True,
        text=True,
        env=dict(os.environ, PYTHONPATH=os.pathsep.join([str(SRC), str(BENCH)])),
    )


def test_tracer_installs():
    proc = _run_with_bench("import tracer; tracer.Tracer().install()")
    assert proc.returncode == 0, proc.stderr


def test_bench_move_format_matches_package():
    """The benchmark keeps its own copies of the move kinds and of the
    parameters naming crossing ids; they must follow `moves.PARAMS`."""
    proc = _run_with_bench(
        "import spec, workloads\n"
        "from vknots.moves import ALL_KINDS, PARAMS\n"
        "ids = {k: tuple(n for n, role in p if role == 'id') for k, p in PARAMS.items()}\n"
        "assert workloads._ID_PARAMS == {k: v for k, v in ids.items() if v}, ids\n"
        "assert set(spec.MOVE_KINDS) == ALL_KINDS, spec.MOVE_KINDS\n"
    )
    assert proc.returncode == 0, proc.stderr
