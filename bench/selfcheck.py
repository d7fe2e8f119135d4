"""Show that the benchmark's gates are not vacuous.

    python3 bench/selfcheck.py

Feeds the workload gates a tampered certificate and forged wrong
verdicts, and checks that each registers as a failure (and the wrong
verdicts as wrong), while the untampered bundled Kishino certificate
passes.  run.py runs this before every measurement; exit code 1 means a
gate let a bad result through.
"""

from __future__ import annotations

import random
import sys
from pathlib import Path

SRC = Path(__file__).resolve().parent.parent / "src"
if not (SRC / "vknots" / "__init__.py").is_file():
    sys.exit(f"selfcheck: no vknots package under {SRC}")
sys.path.insert(0, str(SRC))

import vknots as vk  # noqa: E402
import workloads as w  # noqa: E402


def outcome(status: str, cert=None) -> vk.SearchOutcome:
    return vk.SearchOutcome(status, cert, nodes=1, dedup=0, ms=0)


def main() -> int:
    kishino = vk.parse_certificate((w.DATA_DIR / "kishino_concordance.cert").read_text())
    long_cert = w.long_concordance(random.Random("selfcheck"), 7)
    tampered_long = vk.CobordismCertificate(long_cert.start, long_cert.steps[:-1], long_cert.end)
    # Point the first R2 deletion at two crossings that form no bigon.
    text = vk.render_certificate(kishino).replace("a=3 b=4", "a=1 b=4")
    tampered_kishino = vk.parse_certificate(text)
    trefoil = vk.parse_gauss(w.TREFOIL)

    def kishino_gate(cert, status="found"):
        return lambda led: w.gate_kishino(led, outcome(status, cert))

    # name -> (gate run on a fresh ledger, must it fail, must it be a
    # wrong verdict); None: either way.
    cases = {
        "control.kishino": (kishino_gate(kishino), False, False),
        "control.long_certificate": (
            lambda led: w.gate_long_certificate(led, long_cert), None, False),
        "tampered.long_certificate": (
            lambda led: w.gate_long_certificate(led, tampered_long), True, False),
        "tampered.kishino": (kishino_gate(tampered_kishino), True, True),
        "wrong.kishino_not_found": (kishino_gate(None, "exhausted"), True, True),
        "wrong.trefoil_found": (
            lambda led: w.gate_trefoil(led, "crossings7", outcome("found", kishino)), True, True),
        "wrong.trefoil_not_exhausted": (
            lambda led: w.gate_trefoil(led, "crossings4", outcome("budget-hit")), True, True),
        "wrong.unknot_not_reduced": (
            lambda led: w.gate_reduced(led, (trefoil, 0)), True, True),
    }
    ok = True
    for name, (run, must_fail, must_be_verdict) in cases.items():
        led = w.Ledger()
        run(led)
        failed = led.failed > 0
        wrong = bool(led.wrong_verdicts)
        # The control long certificate meets a known defect (its text
        # round trip loses the crossing labels), so only its verdicts count.
        good = (must_fail is None or failed == must_fail) and wrong == must_be_verdict
        ok &= good
        print(f"selfcheck case={name} failed={led.failed} wrong_verdicts={len(led.wrong_verdicts)} "
              f"{'ok' if good else 'BROKEN'}")
    return 0 if ok else 1


if __name__ == "__main__":
    sys.exit(main())
