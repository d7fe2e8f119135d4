"""Seeded inputs, timed units and verdict gates of the benchmark workloads.

A workload runs as one or more *units*; each unit runs in a fresh
interpreter (see worker.py), so the package's module-level caches start
cold, as they do for a command-line invocation.  `prepare` generates a
unit's inputs from the seed (this is set-up, not timed) and returns the
function that runs the unit's items against a Ledger.

Every check is an operation on the Ledger.  A failed check is counted,
never raised, and no input is ever filtered out to avoid a failure.
Checks marked as verdicts cover the searches' answers: a wrong verdict
also makes the run incorrect.
"""

from __future__ import annotations

import random
import time
from collections import Counter
from pathlib import Path

import vknots as vk
from vknots.diagram import UNDER
from vknots.moves import Move

from spec import MOVE_KINDS

KISHINO = "O1+U2-U1+O2-U3-O4+O3-U4+"
TREFOIL = "O1+U2+O3+U1+O2+U3+"

# The budget of the package's own Kishino acceptance test.
KISHINO_BUDGET = vk.SearchBudget(
    max_crossings=8, max_components=3, max_saddles=1, max_births=0,
    max_deaths=1, max_nodes=100_000, max_depth=14,
)


def _trefoil_budget(max_crossings: int, max_nodes: int) -> vk.SearchBudget:
    return vk.SearchBudget(
        max_crossings=max_crossings, max_components=4, max_saddles=2,
        max_births=2, max_deaths=2, max_nodes=max_nodes, max_depth=1_000_000,
    )


# Phase (a) exhausts the crossings <= 4 space; phase (b) is the
# crossings <= 7 probe at one twentieth of its 10^6-node allowance.
TREFOIL_PHASES = {
    "crossings4": _trefoil_budget(4, 1_000_000),
    "crossings7": _trefoil_budget(7, 50_000),
}

UNKNOT_BUDGET = vk.SearchBudget(
    max_crossings=6, max_components=1, max_nodes=3000, max_depth=12
)
UNKNOT_COUNT = 100
CERT_COUNT = 400
CERT_MAX_CROSSINGS = 8

DATA_DIR = Path(vk.__file__).resolve().parent / "data"


class Ledger:
    """Attempted and failed operations of one unit, plus search counters."""

    def __init__(self):
        self.attempted = 0
        self.failures: Counter[str] = Counter()
        self.wrong_verdicts: list[str] = []
        self.searches: list[list] = []

    @property
    def failed(self) -> int:
        return sum(self.failures.values())

    def check(self, name: str, ok: bool, detail: str = "", verdict: bool = False) -> bool:
        self.attempted += 1
        if not ok:
            self.failures[name] += 1
            if verdict:
                self.wrong_verdicts.append(f"{name} {detail}".strip())
        return ok

    def attempt(self, name: str, fn, *args, verdict: bool = False):
        """Run one operation; an exception counts as its failure.

        Returns (ok, result)."""
        try:
            return True, fn(*args)
        except Exception as err:  # any error of the program is a failure
            self.check(name, False, f"raised {err!r}", verdict)
            return False, None

    def search(self, out) -> None:
        self.searches.append([out.status, out.nodes, out.dedup])


# -- seeded inputs -------------------------------------------------------


def relabeled(d: vk.GaussDiagram, rng: random.Random) -> str:
    """The Gauss code of a one-component round diagram with crossing
    labels drawn at random and the cyclic word rotated at random."""
    (comp,) = d.components
    ids = d.crossing_ids
    new = dict(zip(ids, rng.sample(range(1, 100), len(ids))))
    r = rng.randrange(len(comp))
    word = comp[r:] + comp[:r]
    return "".join(
        f"{'OU'[role]}{new[cid]}{'+' if d.sign_of(cid) > 0 else '-'}"
        for cid, role in word
    )


def scrambled_unknot(rng: random.Random) -> vk.GaussDiagram:
    """The round unknot after 1-4 random R1/R2 insertions, <= 6 crossings.

    The unknot workload draws its scrambles from one fixed stream and
    lets the run's seed relabel and rotate them, as for the other knot
    workloads: when the seed drew the scrambles, the draw alone moved a
    pass between 5.8 s and 9.3 s."""
    d = vk.parse_gauss("()")
    for _ in range(rng.randint(1, 4)):
        kinds = set()
        if d.n_crossings + 1 <= 6:
            kinds.add("r1_insert")
        if d.n_crossings + 2 <= 6:
            kinds.add("r2_insert")
        if not kinds:
            break
        d = vk.apply_move(d, rng.choice(vk.enumerate_moves(d, kinds=kinds)))
    return d


def _sign(rng):
    return rng.choice((1, -1))


def _order(rng):
    return rng.choice(("OU", "UO"))


_ID_PARAMS = {"r1_delete": ("x",), "r2_delete": ("a", "b"), "r3": ("a", "b", "c")}


def _renamed(m: Move, ids: dict[int, int]) -> Move:
    names = _ID_PARAMS.get(m.kind, ())
    return Move(m.kind, tuple((k, ids.get(v, v) if k in names else v) for k, v in m.params))


def long_concordance(rng: random.Random, variant: int) -> vk.CobordismCertificate:
    """A concordance from a long knot to ``L:`` that uses every move
    kind, with at most CERT_MAX_CROSSINGS crossings, built by construction.

    A forward movie is grown from ``L:`` out of gadgets that keep
    saddles = births + deaths and never cap off a surface piece; the
    certificate is that movie read backwards through the exact inverses.
    The three bits of `variant` pick the gadget variants, so that a run
    holds each combination equally often.
    """
    d = vk.parse_gauss("L:")
    movie: list[tuple[vk.GaussDiagram, Move]] = []  # (diagram after, inverse)

    def do(m: Move) -> None:
        nonlocal d
        d, inv = vk.apply_move_with_inverse(d, m)
        movie.append((d, inv))

    def strand_gap() -> int:
        return rng.randrange(d.arc_count(0))

    def kink(c: int, pos: int) -> None:
        do(Move.of("r1_insert", c=c, pos=pos, sign=_sign(rng), order=_order(rng)))

    def poke(c1: int, p: int, c2: int, q: int) -> set[int]:
        before = set(d.crossing_ids)
        do(Move.of("r2_insert", c1=c1, p=p, c2=c2, q=q, sign=_sign(rng), order=_order(rng)))
        return set(d.crossing_ids) - before

    def strand_poke() -> set[int]:
        p = strand_gap()
        k = len(d.components[0])
        return poke(0, p, 0, rng.choice([x for x in range(k + 3) if x != p + 1]))

    if variant & 1:
        kink(0, strand_gap())

    # Split off a circle carrying either a kink or the under pair of a
    # poke, cancel it there, and let the chordless circle die.
    if variant & 2:
        a, b = sorted(strand_poke())
        word = d.components[0]
        i = min(word.index((a, UNDER)), word.index((b, UNDER)))
        do(Move.of("saddle", c1=0, p=i, c2=0, q=i + 2))
        do(Move.of("r2_delete", a=a, b=b))
    else:
        p = strand_gap()
        kink(0, p)
        do(Move.of("saddle", c1=0, p=p, c2=0, q=p + 2))
        do(Move.of("r1_delete", x=d.components[-1][0][0]))
    do(Move.of("death", c=d.n_components - 1))

    # Two pokes at one strand gap make the word O c O d U a U b U d U c
    # O a O b, which holds a legal r3 triangle; slide it.
    p, s = strand_gap(), _sign(rng)
    before = set(d.crossing_ids)
    do(Move.of("r2_insert", c1=0, p=p, c2=0, q=p, sign=s, order="OU"))
    do(Move.of("r2_insert", c1=0, p=p, c2=0, q=p + 4, sign=-s, order="UO"))
    fresh = set(d.crossing_ids) - before
    slides = [
        m for m in vk.enumerate_moves(d, kinds={"r3"})
        if {m["a"], m["b"], m["c"]} <= fresh
    ]
    if not slides:
        raise RuntimeError("r3 gadget left no triangle")
    do(rng.choice(slides))

    # Birth, a kink on the new circle or a poke of it under the strand,
    # then merge the circle into the strand.
    do(Move.of("birth"))
    circle = d.n_components - 1
    if variant & 4:
        poke(0, strand_gap(), circle, 0)
    else:
        kink(circle, 0)
    do(Move.of("saddle", c1=0, p=strand_gap(), c2=circle, q=rng.randrange(2)))

    # A last poke, where there is room for it.
    if d.n_crossings + 2 <= CERT_MAX_CROSSINGS:
        strand_poke()

    # Read the movie backwards.  Undoing a deletion re-inserts the
    # crossings under fresh labels, so later steps are renamed to them
    # (an r2 pair is told apart by its opposite signs).
    steps: list[Move] = []
    ids: dict[int, int] = {}
    cur = d
    for j in range(len(movie) - 1, -1, -1):
        after, inv = movie[j]
        forward_before = movie[j - 1][0] if j else vk.parse_gauss("L:")
        step = _renamed(inv, ids)
        nxt = vk.apply_move(cur, step)
        gone = set(forward_before.crossing_ids) - set(after.crossing_ids)
        new = set(nxt.crossing_ids) - set(cur.crossing_ids)
        for old in gone:
            ids[old] = next(x for x in new if nxt.sign_of(x) == forward_before.sign_of(old))
        steps.append(step)
        cur = nxt
    return vk.CobordismCertificate(d, tuple(steps), cur)


# -- gates ---------------------------------------------------------------


def _validates(cert, claim: str) -> bool:
    return vk.validate_certificate(cert, claim).ok


def _round_trips(cert, claim: str) -> bool:
    return _validates(vk.parse_certificate(vk.render_certificate(cert)), claim)


def gate(led: Ledger, name: str, fn, *args, detail: str = "", verdict: bool = False) -> bool:
    """One operation: fn(*args) must return true without raising."""
    ok, result = led.attempt(name, fn, *args, verdict=verdict)
    return ok and led.check(name, bool(result), detail, verdict)


def gate_kishino(led: Ledger, out) -> None:
    led.search(out)
    cert = out.certificate
    if not led.check("kishino.found", out.status == "found" and cert is not None,
                     out.record(), verdict=True):
        return
    led.check("kishino.counters", cert.counters() == (1, 0, 1),
              f"counters={cert.counters()}", verdict=True)
    gate(led, "kishino.validate", _validates, cert, "concordance", verdict=True)
    gate(led, "kishino.roundtrip", _round_trips, cert, "concordance")


def gate_trefoil(led: Ledger, phase: str, out) -> None:
    led.search(out)
    led.check("trefoil.not_found", out.status != "found" and out.certificate is None,
              f"{phase}: {out.record()}", verdict=True)
    if phase == "crossings4":
        led.check("trefoil.exhausted", out.status == "exhausted",
                  f"{phase}: {out.record()}", verdict=True)


def gate_reduced(led: Ledger, reduced) -> None:
    best, genus = reduced
    led.check("unknot.reduced", best.n_crossings == 0 and genus == 0,
              f"crossings={best.n_crossings} genus={genus}", verdict=True)


def gate_equivalent(led: Ledger, out) -> None:
    led.search(out)
    if not led.check("unknot.found", out.status == "found" and out.certificate is not None,
                     out.record(), verdict=True):
        return
    gate(led, "unknot.validate", _validates, out.certificate, "concordance", verdict=True)
    gate(led, "unknot.roundtrip", _round_trips, out.certificate, "concordance")


def gate_long_certificate(led: Ledger, cert) -> None:
    """In-memory and text validation, then both transports."""
    gate(led, "cert.validate", _validates, cert, "concordance")
    gate(led, "cert.roundtrip", _round_trips, cert, "concordance")
    ok, closed = led.attempt("cert.to_closure", vk.transport_long_to_closure, cert)
    if not ok:
        return
    gate(led, "cert.to_closure",
         lambda: closed.counters() == cert.counters() and _validates(closed, "concordance"))
    s, b, d = closed.counters()
    ok, lifted = led.attempt("cert.to_long", vk.transport_closure_to_long, closed, cert.start)
    if ok:
        gate(led, "cert.to_long",
             lambda: lifted.counters() == (s + 1, b, d + 1) and _validates(lifted, "concordance"))


def gate_bundled(led: Ledger) -> None:
    """The bundled Kishino certificates under both claims, and the
    concordance lifted to the long knot cut from its start."""
    for name, good in (("kishino_concordance", "concordance"),
                       ("kishino_slice_disk", "slice-disk")):
        ok, cert = led.attempt("bundled.parse", vk.parse_certificate,
                               (DATA_DIR / f"{name}.cert").read_text())
        if not ok:
            continue
        for claim in ("concordance", "slice-disk"):
            gate(led, "bundled.validate", lambda: _validates(cert, claim) == (claim == good),
                 detail=f"{name} as {claim}")
        if good == "concordance":
            k = vk.cut(cert.start, 0, 0)
            ok, lifted = led.attempt("bundled.lift", vk.transport_closure_to_long, cert, k)
            if ok:
                gate(led, "bundled.lift",
                     lambda: lifted.counters() == (2, 0, 2) and _validates(lifted, "concordance"))


# -- units ---------------------------------------------------------------


def _timed(led: Ledger, items, fn) -> list[float]:
    """Run fn on each item; return the item times in ms.  An exception
    that escapes the gates leaves the item without a verdict."""
    times = []
    for item in items:
        t0 = time.perf_counter()
        led.attempt("exception", fn, item, verdict=True)
        times.append((time.perf_counter() - t0) * 1000)
    return times


def prepare(workload: str, seed: int, unit: str):
    """Generate one unit's inputs from the seed; return (run, info).

    run(led) executes the unit's items and returns their times in ms;
    info describes the generated inputs.
    """
    rng = random.Random(f"{workload}:{seed}")
    if workload == "kishino-slice":
        code = relabeled(vk.parse_gauss(KISHINO), rng)
        knot = vk.parse_gauss(code)

        def run(led):
            return _timed(led, [knot], lambda k: gate_kishino(
                led, vk.search_slice(k, KISHINO_BUDGET)))

        return run, {"input": code}
    if workload == "trefoil-probe":
        code = relabeled(vk.parse_gauss(TREFOIL), rng)
        knot = vk.parse_gauss(code)
        budget = TREFOIL_PHASES[unit]

        def run(led):
            return _timed(led, [knot], lambda k: gate_trefoil(
                led, unit, vk.search_slice(k, budget)))

        return run, {"input": code}
    if workload == "unknot-reduce":
        scrambles = random.Random("unknot-reduce:scrambles")
        knots = [vk.parse_gauss(relabeled(scrambled_unknot(scrambles), rng))
                 for _ in range(UNKNOT_COUNT)]
        unknot = vk.parse_gauss("()")

        # Each unknot gives two verdicts, timed apart: pooled, their
        # median sits in a dense part of the distribution, where the
        # median of the pairs' sums sat between two modes and moved
        # twice as much as the wall time.
        items = [(search, d) for d in knots for search in ("reduce", "equivalent")]

        def run(led):
            def verdict(item):
                search, d = item
                if search == "reduce":
                    gate_reduced(led, vk.reduce_diagram(d, UNKNOT_BUDGET))
                else:
                    gate_equivalent(led, vk.search_equivalent(d, unknot, UNKNOT_BUDGET))

            return _timed(led, items, verdict)

        return run, {"unknots": len(knots)}
    if workload == "cert-transport":
        certs = [long_concordance(rng, i % 8) for i in range(CERT_COUNT)]
        kinds = Counter(m.kind for c in certs for m in c.steps)

        def run(led):
            gate_bundled(led)
            return _timed(led, certs, lambda c: gate_long_certificate(led, c))

        return run, {"items": len(certs), "kinds": {k: kinds[k] for k in MOVE_KINDS}}
    raise ValueError(f"unknown workload {workload!r}")
