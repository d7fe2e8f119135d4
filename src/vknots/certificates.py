"""Replayable cobordism certificates between Gauss diagrams.

A certificate records a start diagram, an ordered move sequence, and the
claimed end diagram.  `replay` is the one loop that applies a
certificate's steps; it raises MoveError naming the first step that does
not apply.  Validation takes the line of diagrams it returns, checks
that it ends at the claimed end up to isomorphism (the two share a
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
caps the resulting circle with a death.  Each replays its input once,
checks that line as `validate_certificate` does, and maps it into the
target setting: closed, or placed behind an empty strand, each step
carried along by `moves.carry_move`.  `_translate_steps` then carries
the mapped line onto the diagram the output actually starts from, as
the searches do when they rebuild a found path on their input diagram:
each step is pulled back onto the current diagram through the two
normalizing isos of `canonicalize`, which meet in one normal form, by
the same `carry_move`, and a step that then misses the key of the
line's next diagram raises CertificateError.  No move kind is special
here: `carry_move` alone knows where an r2_insert's q lands.

Text format, one move per line (blank lines and '#' comments ignored):

    start: <gauss code>
    <move line>
    ...
    end: <gauss code>
"""

from __future__ import annotations

from collections.abc import Sequence
from dataclasses import dataclass

from .canonical import Iso, canonicalize, compact_key
from .canonical import canonical_key  # noqa: F401  (bench/tracer.py wraps it)
from .diagram import DiagramError, GaussDiagram, closure, parse_gauss, render_gauss
from .moves import KINDS, Move, MoveError, apply_move, carry_move, parse_move, render_move
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
        """Numbers of saddles, births and deaths: the steps' summed costs."""
        costs = [KINDS[m.kind].cost for m in self.steps]
        return tuple(map(sum, zip((0, 0, 0), *costs)))


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

    Raises MoveError at the first inapplicable step, naming it:
    `step i (<move>): <reason>`; its `replayed` holds the diagrams
    reached before that step.
    """
    out = [c.start]
    for i, m in enumerate(c.steps):
        try:
            out.append(apply_move(out[-1], m))
        except MoveError as err:
            failed = MoveError(f"step {i + 1} ({render_move(m)}): {err}")
            failed.replayed = out
            raise failed from None
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
    """Replay `c` and check `claim` over the line of diagrams it reaches."""
    if claim not in CLAIMS:
        raise CertificateError(f"unknown claim {claim!r}; expected one of {CLAIMS}")
    try:
        failure = _broken_rule(c, claim, replay(c))
    except MoveError as err:
        failure = str(err)
    s, b, d = c.counters()
    if failure:
        return ValidationReport(False, "invalid", failure, s, b, d)
    return ValidationReport(True, claim, None, s, b, d)


def _broken_rule(
    c: CobordismCertificate, claim: str, line: list[GaussDiagram]
) -> str | None:
    """Why `line`, the replay of `c`, does not establish `claim`; None
    if it does."""
    classes = initial_classes(c.start)
    closures = 0
    for m, prev in zip(c.steps, line):
        classes, closed = advance_classes(classes, m, prev)
        closures += closed
    s, b, d = c.counters()
    if compact_key(line[-1]) != compact_key(c.end):
        return (
            f"replay ends at {render_gauss(line[-1])}, "
            f"certificate claims {render_gauss(c.end)}"
        )
    if claim == "concordance":
        if s != b + d:
            return f"count rule s=b+d violated: s={s} b={b} d={d}"
        if c.start.n_components != 1:
            return "concordance start is not a one-component knot"
        if c.end.n_components != 1:
            return "concordance end is not a one-component knot"
        if closures:
            return (
                "cobordism surface disconnects: a death caps off an "
                "isolated piece, so the movie is not an annulus"
            )
    else:  # slice-disk
        if b + d - s != 1:
            return f"count rule b+d-s=1 violated: s={s} b={b} d={d}"
        if c.end.n_components != 0:
            return "slice-disk end is not the empty diagram"
        if closures != 1:
            return (
                f"slice disk must close with exactly one final cap; "
                f"the movie closes {closures} pieces"
            )
    return None


# -- certificate transports between a long knot and its closure ----------


def transport_long_to_closure(c: CobordismCertificate) -> CobordismCertificate:
    """Close the strand: same moves, strand gap i becoming closed arc i-1.

    The input must be a validating concordance between long diagrams; the
    output is a validating concordance between their closures with the
    same saddle/birth/death counters.
    """
    if not c.start.long or not c.end.long:
        raise CertificateError("transport_long_to_closure needs a long certificate")
    line = _concordance_line(c)
    refs = [closure(r) for r in line]
    steps = _translate_steps(
        refs, [carry_move(m, r, closed=True) for m, r in zip(c.steps, line)], refs[0]
    )
    return CobordismCertificate(refs[0], tuple(steps), closure(c.end))


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
    # circle: the round certificate's line behind an empty strand, each
    # step's components shifted past it.
    steps = _translate_steps(
        [GaussDiagram(((),) + r.components, r.signs, True) for r in refs],
        [carry_move(m, r, comp=range(1, r.n_components + 1)) for m, r in zip(c.steps, refs)],
        apply_move(k, split),
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
    try:
        line = replay(c)
        failure = _broken_rule(c, "concordance", line)
    except MoveError as err:
        failure = str(err)
    if failure:
        raise CertificateError(f"input certificate invalid: {failure}")
    return line


def _translate_steps(
    refs: list[GaussDiagram], steps: Sequence[Move], act: GaussDiagram
) -> list[Move]:
    """Carry a replay line onto an isomorphic start.

    `refs` are the diagrams of the line, `steps[i]` taking `refs[i]` to
    `refs[i + 1]`; `act` must have the canonical key of `refs[0]`.  Each
    step is pulled back exactly onto the current diagram through the two
    normalizing isos, which meet in one normal form: `canonicalize` of
    its reference and of the current diagram.  The carried step must
    reach the key of `refs[i + 1]`; a miss raises CertificateError.
    """
    src_canon, act_canon = canonicalize(refs[0]), canonicalize(act)
    out: list[Move] = []
    for i, m in enumerate(steps):
        nxt_canon = canonicalize(refs[i + 1])
        moved = _pull_back(m, refs[i], src_canon.iso, act_canon.iso)
        try:
            nxt = apply_move(act, moved)
            act_canon = canonicalize(nxt)
        except MoveError:
            nxt = None
        if nxt is None or act_canon.key != nxt_canon.key:
            raise CertificateError(f"cannot transport step {i + 1} ({render_move(m)})")
        out.append(moved)
        src_canon, act = nxt_canon, nxt
    return out


def _pull_back(m: Move, src: GaussDiagram, src_iso: Iso, dst_iso: Iso) -> Move:
    """Carry a move of `src` onto a diagram with the same normal form,
    normalized by `dst_iso`: crossing ids through the composed id maps,
    components through the component permutations, and each component
    turned by its rotation onto the normal form less that of its image."""
    to_dst = {canon: own for own, canon in dst_iso.id_map}
    ids = {own: to_dst[canon] for own, canon in src_iso.id_map}
    comp = [dst_iso.comp_perm.index(i) for i in src_iso.comp_perm]
    rot = [r - dst_iso.rotations[comp[c]] for c, r in enumerate(src_iso.rotations)]
    return carry_move(m, src, ids, comp, rot)
