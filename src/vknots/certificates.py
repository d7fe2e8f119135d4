"""Replayable cobordism certificates between Gauss diagrams.

A certificate records a start diagram, an ordered move sequence, and the
claimed end diagram.  Validation replays every step, checks that the
replay ends at the claimed end up to isomorphism (the two share a
`canonical.compact_key`, so the end may be written relabeled, rotated
or with its components reordered), and checks the Euler-characteristic
count rule for the claim:

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
closure: closing the strand reuses the same moves with strand gap i
becoming closed arc i-1, while the reverse direction first splits the
closure off the strand with one saddle, replays the round certificate on
that component (component indices shifted past the empty strand), and
caps the resulting circle with a death.  Each replays its input once:
the replay that validates it keeps its diagrams, and they are the
reference line the steps are carried along.  Both transports, and the
searches when they rebuild a found path on their input diagram, carry
every step exactly:
the step is lifted onto the image of its reference diagram and pulled
back onto the current diagram through the two normalizing isos of
`canonicalize`, which meet in one normal form.  A step that then misses
the key of its reference step's image raises CertificateError.

Text format, one move per line (blank lines and '#' comments ignored):

    start: <gauss code>
    <move line>
    ...
    end: <gauss code>
"""

from __future__ import annotations

from dataclasses import dataclass

from .canonical import Iso, canonicalize, compact_key, map_arc, unmap_arc
from .canonical import canonical_key  # noqa: F401  (bench/tracer.py wraps it)
from .diagram import (
    DiagramError, GaussDiagram, arc_of_slot, closure, parse_gauss, render_gauss,
    slot_of_arc,
)
from .moves import Move, MoveError, apply_move, parse_move, relabel_move, render_move
from .moves import enumerate_moves  # noqa: F401  (bench/tracer.py wraps it)

CLAIMS = ("concordance", "slice-disk")


class CertificateError(ValueError):
    """Malformed certificate text or impossible transport."""


@dataclass(frozen=True)
class CobordismCertificate:
    start: GaussDiagram
    steps: tuple[Move, ...]
    end: GaussDiagram

    def counters(self) -> tuple[int, int, int]:
        """Numbers of saddles, births and deaths."""
        kinds = [m.kind for m in self.steps]
        return kinds.count("saddle"), kinds.count("birth"), kinds.count("death")


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
        try:
            if line.startswith("start:"):
                if start is not None:
                    raise CertificateError("duplicate start line")
                start = parse_gauss(line[len("start:") :].strip())
            elif line.startswith("end:"):
                if start is None:
                    raise CertificateError("end line before start line")
                if end is not None:
                    raise CertificateError("duplicate end line")
                end = parse_gauss(line[len("end:") :].strip())
            else:
                if start is None:
                    raise CertificateError("move before start line")
                if end is not None:
                    raise CertificateError("move after end line")
                steps.append(parse_move(line))
        except (CertificateError, DiagramError, MoveError) as err:
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
        if not prev.cyclic(c2):  # mirror the applier's strand bookkeeping
            c1, c2 = c2, c1
        a, b = classes[c1], classes[c2]
        lo = min(a, b)
        merged = [lo if x == a or x == b else x for x in classes]
        merged[c1] = lo
        del merged[c2]
        return tuple(merged), False
    return classes, False


def validate_certificate(c: CobordismCertificate, claim: str) -> ValidationReport:
    """Replay `c`, holding one diagram at a time, and check `claim`."""
    return _validate(c, claim, None)


def _validate(
    c: CobordismCertificate, claim: str, line: list[GaussDiagram] | None
) -> ValidationReport:
    """`validate_certificate`; with `line`, each diagram the replay
    reaches is appended to it."""
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
        if line is not None:
            line.append(nxt)
    if compact_key(current) != compact_key(c.end):
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
    """Close the strand: same moves, strand gap i becoming closed arc i-1.

    The input must be a validating concordance between long diagrams; the
    output is a validating concordance between their closures with the
    same saddle/birth/death counters.
    """
    if not c.start.long or not c.end.long:
        raise CertificateError("transport_long_to_closure needs a long certificate")
    refs = _concordance_line(c)
    act_start = closure(c.start)
    steps = _translate_steps(refs, c.steps, act_start, closure, _close_move)
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
    refs = _concordance_line(c)
    if compact_key(c.start) != compact_key(closure(k)):
        raise CertificateError("certificate does not start at the closure of k")
    if compact_key(c.end) != compact_key(parse_gauss("()")):
        raise CertificateError("certificate does not end at the unknot")

    split = Move.of("saddle", c1=0, p=0, c2=0, q=len(k.components[0]))
    # An empty strand, k's closed components, then the split-off closure
    # circle: the round certificate's diagrams behind an empty strand.
    act_start = apply_move(k, split)
    steps = _translate_steps(
        refs, c.steps, act_start, _behind_empty_strand, _shift_components
    )
    # After the round certificate the unknot circle remains next to the
    # empty strand; cap it.
    end = parse_gauss("L:")
    return CobordismCertificate(
        k, (split,) + tuple(steps) + (Move.of("death", c=1),), end
    )


def _concordance_line(c: CobordismCertificate) -> list[GaussDiagram]:
    """The replay line of `c`, start included, which the one replay
    that validates `c` as a concordance keeps."""
    line = [c.start]
    report = _validate(c, "concordance", line)
    if not report.ok:
        raise CertificateError(f"input certificate invalid: {report.failure}")
    return line


def _behind_empty_strand(ref: GaussDiagram) -> GaussDiagram:
    return GaussDiagram(((),) + ref.components, ref.signs, True)


def _shift_components(m: Move, ref: GaussDiagram) -> Move:
    """Lift a move of a round diagram onto `_behind_empty_strand(ref)`."""
    return relabel_move(m, comp=lambda c: c + 1)


def _close_move(m: Move, ref: GaussDiagram) -> Move:
    """Lift a move of a long diagram onto its closure: strand gap i (the
    gap before endpoint i) becomes the closed arc with the same insertion
    slot, arc i-1 from endpoint i-1 to endpoint i; crossing ids and
    component indices are unchanged."""
    k = len(ref.components[0])

    def arc(c: int, a: int) -> int:
        return arc_of_slot(k, True, a) if c == 0 else a

    moved = relabel_move(m, arc=arc)
    if m.kind == "r2_insert" and m["c1"] == m["c2"] == 0:
        # q indexes the strand with the over pair in place.  At gap 0 the
        # pair opens the strand but ends the closed list, which turns the
        # closed intermediate by two more endpoints.
        q = arc_of_slot(k + 2, True, m["q"] - (2 if m["p"] == 0 else 0))
        moved = Move.of(m.kind, **dict(moved.params, q=q))
    return moved


def _translate_steps(
    refs: list[GaussDiagram],
    steps: tuple[Move, ...],
    act: GaussDiagram,
    image=lambda ref: ref,
    lift=lambda m, ref: m,
) -> list[Move]:
    """Re-express a move sequence on a parallel replay line.

    `refs` are the diagrams of the reference replay, `steps[i]` taking
    `refs[i]` to `refs[i + 1]`; `act` must have the canonical key of
    `image(refs[0])`.  Each step is lifted onto the image diagram by
    `lift(step, ref)` and then pulled back exactly onto the current
    diagram through the two normalizing isos, which meet in one normal
    form: `canonicalize(image(ref))` and `canonicalize(act)`.  The
    translated step must reach the key of `image(refs[i + 1])`; a miss
    raises CertificateError.
    """
    src = image(refs[0])
    src_canon, act_canon = canonicalize(src), canonicalize(act)
    out: list[Move] = []
    for i, m in enumerate(steps):
        nxt_src = image(refs[i + 1])
        nxt_canon = canonicalize(nxt_src)
        moved = _pull_back(lift(m, refs[i]), src, src_canon.iso, act, act_canon.iso)
        try:
            nxt = apply_move(act, moved)
            act_canon = canonicalize(nxt)
        except MoveError:
            nxt = None
        if nxt is None or act_canon.key != nxt_canon.key:
            raise CertificateError(f"cannot transport step {i + 1} ({render_move(m)})")
        out.append(moved)
        src, src_canon, act = nxt_src, nxt_canon, nxt
    return out


def _pull_back(
    m: Move, src: GaussDiagram, src_iso: Iso, dst: GaussDiagram, dst_iso: Iso
) -> Move:
    """Carry a move of `src` onto `dst`, a diagram with the same normal
    form: crossing ids through the composed id maps, components through
    the component permutations, arcs through map_arc/unmap_arc."""
    to_dst = {canon: own for own, canon in dst_iso.id_map}
    ids = {own: to_dst[canon] for own, canon in src_iso.id_map}

    def comp(c: int) -> int:
        return dst_iso.comp_perm.index(src_iso.comp_perm[c])

    def arc(c: int, a: int) -> int:
        return unmap_arc(dst_iso, dst, *map_arc(src_iso, src, c, a))[1]

    moved = relabel_move(m, ids=ids, comp=comp, arc=arc)
    if m.kind == "r2_insert" and m["c1"] == m["c2"]:
        c, q = m["c1"], m["q"]
        k = len(src.components[c])
        if src.cyclic(c) and k:
            # q indexes the component with the over pair in place: its
            # normalizing rotation r turns by 2 more when the pair lands
            # at a slot at or before r.
            def turn(r: int, p: int) -> int:
                return r + 2 if slot_of_arc(k, True, p) <= r else r

            q -= turn(src_iso.rotations[c], m["p"])
            q = (q + turn(dst_iso.rotations[comp(c)], moved["p"])) % (k + 2)
        moved = Move.of(m.kind, **dict(moved.params, q=q))
    return moved
