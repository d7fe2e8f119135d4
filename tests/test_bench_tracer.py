"""The benchmark's tracer wraps names it looks up in the package's
modules, and its workloads keep their own copies of the move format;
removing one of those names or changing the format must fail here, not
silently break ``bench/run.py``."""

import os
import re
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


def test_tracer_wraps_every_name_kept_for_it():
    """Each name a module imports only for the tracer, marked `# noqa:
    F401  (bench/tracer.py wraps ...)`, is replaced on that module by
    `install`: a wrapper dropped from the tracer leaves a dead import,
    which fails here."""
    kept = []
    for path in sorted((SRC / "vknots").glob("*.py")):
        for line in path.read_text().splitlines():
            found = re.match(
                r"from \.\w+ import (.+?)\s+# noqa: F401\s+\(bench/tracer\.py wraps", line
            )
            if found:
                kept += [(path.stem, name.strip()) for name in found[1].split(",")]
    assert kept
    proc = _run_with_bench(
        "import importlib, tracer\n"
        f"kept = {kept!r}\n"
        "mods = {m: importlib.import_module('vknots.' + m) for m, _ in kept}\n"
        "before = {(m, n): getattr(mods[m], n) for m, n in kept}\n"
        "tracer.Tracer().install()\n"
        "same = [k for k, f in before.items() if getattr(mods[k[0]], k[1]) is f]\n"
        "assert not same, same\n"
    )
    assert proc.returncode == 0, proc.stderr


def test_bench_move_format_matches_package():
    """The benchmark keeps its own copies of the move kinds and of the
    parameters naming crossing ids; they must follow `moves.KINDS`."""
    proc = _run_with_bench(
        "import spec, workloads\n"
        "from vknots.moves import ALL_KINDS, KINDS\n"
        "ids = {k: tuple(n for n, role in row.params.items() if role == 'id')\n"
        "       for k, row in KINDS.items()}\n"
        "assert workloads._ID_PARAMS == {k: v for k, v in ids.items() if v}, ids\n"
        "assert set(spec.MOVE_KINDS) == ALL_KINDS, spec.MOVE_KINDS\n"
    )
    assert proc.returncode == 0, proc.stderr
