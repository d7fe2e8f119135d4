"""Replayable cobordism certificates between Gauss diagrams.

A certificate records a start diagram, an ordered move sequence, and the
claimed end diagram.  Validation replays every step and checks the
Euler-characteristic count rule for the claim:

    concordance   saddles = births + deaths, both ends one-component
    slice-disk    births + deaths - saddles = 1, end empty

The count rule fixes the Euler characteristic of the traced cobordism
surface but not its connectivity: a movie could cap the knot off with a
higher-genus piece and balance the counters on a disjoint disk.  A
concordance must be an annulus and a slice disk a disk, so validation
also follows which diagram components lie on a common surface piece and
counts "closure" events, deaths that remove the last component of a
piece.  A concordance admits none; a slice disk admits exactly one, the
final cap.

The two transports move slicing certificates between a long knot and its
closure: closing the strand reuses the same moves with shifted arc
indices, while the reverse direction first splits the closure off the
strand with one saddle, replays the round certificate on that component,
and caps the resulting circle with a death.

Text format, one move per line (blank lines and '#' comments ignored):

    start: <gauss code>
    <move line>
    ...
    end: <gauss code>
"""

from __future__ import annotations

from dataclasses import dataclass

from .canonical import canonical_key
from .diagram import GaussDiagram, closure, parse_gauss, render_gauss
from .moves import Move, MoveError, apply_move, enumerate_moves, parse_move, render_move

CLAIMS = ("concordance", "slice-disk")


class CertificateError(ValueError):
    """Malformed certificate text or impossible transport."""


@dataclass(frozen=True)
class CobordismCertificate:
    start: GaussDiagram
    steps: tuple[Move, ...]
    end: GaussDiagram

    @property
    def saddles(self) -> int:
        return sum(1 for m in self.steps if m.kind == "saddle")

    @property
    def births(self) -> int:
        return sum(1 for m in self.steps if m.kind == "birth")

    @property
    def deaths(self) -> int:
        return sum(1 for m in self.steps if m.kind == "death")

    def counters(self) -> tuple[int, int, int]:
        return self.saddles, self.births, self.deaths


@dataclass(frozen=True)
class ValidationReport:
    ok: bool
    verdict: str  # "concordance" | "slice-disk" | "invalid"
    failure: str | None
    saddles: int
    births: int
    deaths: int

    def record(self) -> str:
        head = (
            f"valid={'yes' if self.ok else 'no'} verdict={self.verdict} "
            f"s={self.saddles} b={self.births} d={self.deaths}"
        )
        if self.failure:
            head += f" failure={self.failure!r}"
        return head


def parse_certificate(text: str) -> CobordismCertificate:
    start = end = None
    steps: list[Move] = []
    for lineno, raw in enumerate(text.splitlines(), start=1):
        line = raw.strip()
        if not line or line.startswith("#"):
            continue
        if line.startswith("start:"):
            if start is not None:
                raise CertificateError(f"line {lineno}: duplicate start line")
            start = parse_gauss(line[len("start:") :].strip())
        elif line.startswith("end:"):
            if start is None:
                raise CertificateError(f"line {lineno}: end line before start line")
            if end is not None:
                raise CertificateError(f"line {lineno}: duplicate end line")
            end = parse_gauss(line[len("end:") :].strip())
        else:
            if start is None:
                raise CertificateError(f"line {lineno}: move before start line")
            if end is not None:
                raise CertificateError(f"line {lineno}: move after end line")
            try:
                steps.append(parse_move(line))
            except MoveError as err:
                raise CertificateError(f"line {lineno}: {err}") from None
    if start is None or end is None:
        raise CertificateError("certificate needs both start and end lines")
    return CobordismCertificate(start, tuple(steps), end)


def render_certificate(c: CobordismCertificate) -> str:
    # The moves name the start's crossing ids, and the ids the replay
    # mints from them, so the ends keep their own labels.
    lines = [f"start: {render_gauss(c.start, relabel=False)}"]
    lines += [render_move(m) for m in c.steps]
    lines.append(f"end: {render_gauss(c.end, relabel=False)}")
    return "\n".join(lines) + "\n"


def replay(c: CobordismCertificate) -> list[GaussDiagram]:
    """All intermediate diagrams of the certificate, start included.

    Raises MoveError at the first inapplicable step.
    """
    out = [c.start]
    for m in c.steps:
        out.append(apply_move(out[-1], m))
    return out


def initial_classes(d: GaussDiagram) -> tuple[int, ...]:
    """Surface-piece labels of a diagram's components at movie start."""
    return tuple(range(d.n_components))


def advance_classes(
    classes: tuple[int, ...], m: Move, prev: GaussDiagram
) -> tuple[tuple[int, ...], bool]:
    """Track surface pieces across one move.

    `classes[i]` labels the cobordism-surface piece carrying component i;
    `prev` is the diagram the move acts on.  Returns the labels after the
    move and whether the move closed off a piece (a death removing the
    last component of its piece).
    """
    kind = m.kind
    if kind == "birth":
        return classes + (max(classes, default=-1) + 1,), False
    if kind == "death":
        c = m["c"]
        cls = classes[c]
        rest = classes[:c] + classes[c + 1 :]
        return rest, cls not in rest
    if kind == "saddle":
        c1, c2 = m["c1"], m["c2"]
        if c1 == c2:  # split: the new component stays on the same piece
            return classes + (classes[c1],), False
        if prev.long and c2 == 0:  # mirror the applier's strand bookkeeping
            c1, c2 = c2, c1
        a, b = classes[c1], classes[c2]
        lo = min(a, b)
        merged = [lo if x == a or x == b else x for x in classes]
        merged[c1] = lo
        del merged[c2]
        return tuple(merged), False
    return classes, False


def validate_certificate(c: CobordismCertificate, claim: str) -> ValidationReport:
    if claim not in CLAIMS:
        raise CertificateError(f"unknown claim {claim!r}; expected one of {CLAIMS}")
    s, b, d = c.counters()

    def bad(reason: str) -> ValidationReport:
        return ValidationReport(False, "invalid", reason, s, b, d)

    current = c.start
    classes = initial_classes(c.start)
    closures = 0
    for i, m in enumerate(c.steps):
        try:
            nxt = apply_move(current, m)
        except MoveError as err:
            return bad(f"step {i + 1} ({render_move(m)}): {err}")
        classes, closed = advance_classes(classes, m, current)
        closures += closed
        current = nxt
    if canonical_key(current) != canonical_key(c.end):
        return bad(
            f"replay ends at {render_gauss(current)}, "
            f"certificate claims {render_gauss(c.end)}"
        )

    if claim == "concordance":
        if s != b + d:
            return bad(f"count rule s=b+d violated: s={s} b={b} d={d}")
        if c.start.n_components != 1:
            return bad("concordance start is not a one-component knot")
        if c.end.n_components != 1:
            return bad("concordance end is not a one-component knot")
        if closures:
            return bad(
                "cobordism surface disconnects: a death caps off an "
                "isolated piece, so the movie is not an annulus"
            )
    else:  # slice-disk
        if b + d - s != 1:
            return bad(f"count rule b+d-s=1 violated: s={s} b={b} d={d}")
        if c.end.n_components != 0:
            return bad("slice-disk end is not the empty diagram")
        if closures != 1:
            return bad(
                f"slice disk must close with exactly one final cap; "
                f"the movie closes {closures} pieces"
            )
    return ValidationReport(True, claim, None, s, b, d)


# -- certificate transports between a long knot and its closure ----------


def transport_long_to_closure(c: CobordismCertificate) -> CobordismCertificate:
    """Close the strand: same moves, arcs on the strand shifted.

    The input must be a validating concordance between long diagrams; the
    output is a validating concordance between their closures with the
    same saddle/birth/death counters.
    """
    if not c.start.long or not c.end.long:
        raise CertificateError("transport_long_to_closure needs a long certificate")
    report = validate_certificate(c, "concordance")
    if not report.ok:
        raise CertificateError(f"input certificate invalid: {report.failure}")
    refs = replay(c)
    act_start = closure(c.start)
    steps = _translate_steps(
        refs,
        c.steps,
        act_start,
        image=closure,
        comp_map={i: i for i in range(c.start.n_components)},
        shift_strand_arcs=True,
    )
    return CobordismCertificate(act_start, tuple(steps), closure(c.end))


def transport_closure_to_long(
    c: CobordismCertificate, k: GaussDiagram
) -> CobordismCertificate:
    """Lift a certificate slicing closure(k) to one slicing the long k.

    One saddle splits the whole strand off as a round component (the
    closure), the round certificate is replayed on it, and the leftover
    circle is capped with a death; counters map (s, b, d) to
    (s+1, b, d+1).
    """
    if not k.long:
        raise CertificateError("transport_closure_to_long needs a long diagram")
    report = validate_certificate(c, "concordance")
    if not report.ok:
        raise CertificateError(f"input certificate invalid: {report.failure}")
    if canonical_key(c.start) != canonical_key(closure(k)):
        raise CertificateError("certificate does not start at the closure of k")
    if canonical_key(c.end) != canonical_key(parse_gauss("()")):
        raise CertificateError("certificate does not end at the unknot")

    split = Move.of("saddle", c1=0, p=0, c2=0, q=len(k.components[0]))
    act_start = apply_move(k, split)
    # act_start components: empty strand, k's closed components, then the
    # split-off closure circle at the end.
    m = k.n_components - 1
    comp_map = {0: m + 1}
    comp_map.update({j: j for j in range(1, c.start.n_components)})

    def image(ref: GaussDiagram) -> GaussDiagram:
        return GaussDiagram(((),) + ref.components, ref.signs, True)

    refs = replay(c)
    steps = _translate_steps(refs, c.steps, act_start, image, comp_map, False)
    # After the round certificate the unknot circle remains next to the
    # empty strand; cap it.
    end = parse_gauss("L:")
    return CobordismCertificate(
        k, (split,) + tuple(steps) + (Move.of("death", c=1),), end
    )


def _translate_steps(
    refs: list[GaussDiagram],
    steps: tuple[Move, ...],
    act_start: GaussDiagram,
    image,
    comp_map: dict[int, int],
    shift_strand_arcs: bool,
) -> list[Move]:
    """Re-express a move sequence on a parallel replay line.

    `refs` are the diagrams of the reference replay; `image(ref)` is the
    diagram the translated replay should be canonically equal to at each
    step.  A natural per-kind translation (component indices through the
    evolving `comp_map`, strand arcs shifted when closing) is tried
    first; when it misses, the step is re-derived by enumerating moves of
    the same kind on the current diagram and matching the expected key.
    """
    act = act_start
    out: list[Move] = []
    pi = dict(comp_map)
    for i, m in enumerate(steps):
        ref_d, ref_next = refs[i], refs[i + 1]
        expected = canonical_key(image(ref_next))
        cand = _natural_translation(m, ref_d, act, pi, shift_strand_arcs)
        chosen = None
        if cand is not None:
            try:
                nxt = apply_move(act, cand)
            except MoveError:
                nxt = None
            if nxt is not None and canonical_key(nxt) == expected:
                chosen = cand
        if chosen is None:
            for alt in enumerate_moves(act, kinds={m.kind}):
                try:
                    nxt = apply_move(act, alt)
                except MoveError:
                    continue
                if canonical_key(nxt) == expected:
                    chosen = alt
                    break
        if chosen is None:
            raise CertificateError(
                f"cannot transport step {i + 1} ({render_move(m)})"
            )
        pi = _advance_comp_map(pi, m, chosen, ref_d, act)
        act = apply_move(act, chosen)
        out.append(chosen)
    return out


def _natural_translation(
    m: Move, ref_d: GaussDiagram, act: GaussDiagram, pi: dict, shift: bool
) -> Move | None:
    """Kind-by-kind parameter translation; None if indices are unmapped."""

    def t_comp(c: int) -> int | None:
        return pi.get(c)

    def t_arc(c: int, a: int) -> int | None:
        ac = t_comp(c)
        if ac is None:
            return None
        if shift and c == 0:
            k = len(act.components[ac])
            return (a - 1) % k if k else 0
        return a

    try:
        if m.kind in ("r1_delete", "r2_delete", "r3", "birth"):
            return m  # crossing ids track across parallel replays
        if m.kind == "death":
            c = t_comp(m["c"])
            return None if c is None else Move.of("death", c=c)
        if m.kind == "r1_insert":
            c, pos = t_comp(m["c"]), t_arc(m["c"], m["pos"])
            if c is None or pos is None:
                return None
            return Move.of(
                "r1_insert", c=c, pos=pos, sign=m["sign"], order=m["order"]
            )
        if m.kind == "r2_insert":
            c1, p = t_comp(m["c1"]), t_arc(m["c1"], m["p"])
            c2 = t_comp(m["c2"])
            if c1 is None or p is None or c2 is None:
                return None
            q = m["q"]
            if shift and m["c2"] == 0:
                # q indexes the intermediate with the over pair in place.
                ki = len(act.components[c2]) + (2 if m["c1"] == m["c2"] else 0)
                q = (q - 1) % ki if ki else 0
            return Move.of(
                "r2_insert", c1=c1, p=p, c2=c2, q=q, sign=m["sign"], order=m["order"]
            )
        if m.kind == "saddle":
            c1, p = t_comp(m["c1"]), t_arc(m["c1"], m["p"])
            c2, q = t_comp(m["c2"]), t_arc(m["c2"], m["q"])
            if None in (c1, p, c2, q):
                return None
            return Move.of("saddle", c1=c1, p=p, c2=c2, q=q)
    except MoveError:
        return None
    return None


def _advance_comp_map(
    pi: dict, ref_m: Move, act_m: Move, ref_d: GaussDiagram, act_d: GaussDiagram
) -> dict:
    """Update the ref->act component map across one parallel step."""

    def removed(mapping: dict, ref_gone: int | None, act_gone: int | None) -> dict:
        out = {}
        for r, a in mapping.items():
            if r == ref_gone or a == act_gone:
                continue
            out[r - (1 if ref_gone is not None and r > ref_gone else 0)] = a - (
                1 if act_gone is not None and a > act_gone else 0
            )
        return out

    kind = ref_m.kind
    if kind == "birth":
        pi = dict(pi)
        pi[ref_d.n_components] = act_d.n_components
        return pi
    if kind == "death":
        return removed(pi, ref_m["c"], act_m["c"])
    if kind == "saddle":
        r1, r2 = ref_m["c1"], ref_m["c2"]
        a1, a2 = act_m["c1"], act_m["c2"]
        if r1 == r2 and a1 == a2:  # split: both append a new component
            pi = dict(pi)
            pi[ref_d.n_components] = act_d.n_components
            return pi
        if r1 != r2 and a1 != a2:  # merge: c2 disappears, c1 keeps the result
            out = {}
            for r, a in pi.items():
                if r == r2 or a == a2:
                    continue
                out[r - (1 if r > r2 else 0)] = a - (1 if a > a2 else 0)
            out[r1 - (1 if r1 > r2 else 0)] = a1 - (1 if a1 > a2 else 0)
            return out
        # Split on one side, merge on the other: component bookkeeping
        # diverged; drop the map and rely on re-derivation.
        return {}
    return pi
