"""Gauss-diagram model for round and long virtual link diagrams.

A diagram is a list of components, each a sequence of endpoints; an
endpoint is a passage of the strand through a classical crossing, either
on the over or the under branch.  Virtual crossings carry no information
and are never recorded: two planar pictures differing only in virtual
crossings have the same Gauss diagram.

Components of a round diagram are cyclic.  A long diagram has exactly one
open component (the strand, always component 0, read left to right);
further components are closed.  A chordless closed component is written
``()`` in the textual code; the empty string is the empty link.

This module writes every Gauss code the package emits: `render_gauss`
and the canonical keys of `canonical` both hand their components, as
lists of endpoint ints, to one private writer.
"""

from __future__ import annotations

import re
from dataclasses import dataclass, field

OVER = 0
UNDER = 1

Endpoint = tuple[int, int]  # (crossing id, role)


class DiagramError(ValueError):
    """Malformed Gauss code or broken diagram invariant."""


@dataclass(frozen=True)
class GaussDiagram:
    components: tuple[tuple[Endpoint, ...], ...]
    signs: tuple[tuple[int, int], ...]  # sorted (crossing id, sign) pairs
    long: bool = False
    _sign_map: dict = field(init=False, repr=False, compare=False, hash=False)

    def __post_init__(self):
        object.__setattr__(self, "_sign_map", dict(self.signs))
        _check_invariants(self)

    # -- basic queries ---------------------------------------------------

    def sign_of(self, crossing_id: int) -> int:
        return self._sign_map[crossing_id]

    @property
    def crossing_ids(self) -> tuple[int, ...]:
        return tuple(i for i, _ in self.signs)

    @property
    def n_crossings(self) -> int:
        return len(self.signs)

    @property
    def n_components(self) -> int:
        return len(self.components)

    @property
    def writhe(self) -> int:
        return sum(s for _, s in self.signs)

    def cyclic(self, comp: int) -> bool:
        """Whether a component is closed: all but a long diagram's strand."""
        return not (self.long and comp == 0)

    def arc_count(self, comp: int) -> int:
        """Number of arcs of a component (see `n_arcs`)."""
        return n_arcs(len(self.components[comp]), self.cyclic(comp))


# -- arcs and insertion slots ---------------------------------------------
#
# A cyclic component with k endpoints has arcs 0..k-1, arc i running from
# endpoint i to endpoint i+1; a chordless circle has the single arc 0.
# The open strand with k endpoints has arcs 0..k, arc i being the gap
# before endpoint i (arc k is the outgoing tail).  A move that inserts
# endpoints into an arc puts them at one slot, the index the first of
# them gets: strand gap i is slot i, cyclic arc i is slot i + 1 (so arc
# k - 1 appends), and a chordless circle's arc is slot 0.  On a cyclic
# component slots 0 and k are the same place.
#
# These take a component's length rather than a diagram, so they serve
# as well a component that a move is halfway through building.


def n_arcs(k: int, cyclic: bool) -> int:
    """Number of arcs of a component with k endpoints."""
    return max(k, 1) if cyclic else k + 1


def slot_of_arc(k: int, cyclic: bool, arc: int) -> int:
    """Endpoint index at which an insertion into `arc` lands."""
    if not cyclic:
        return arc
    return arc + 1 if k else 0


def arc_of_slot(k: int, cyclic: bool, slot: int) -> int:
    """The arc whose insertion slot is `slot`."""
    if not cyclic:
        return slot
    return (slot - 1) % k if k else 0


def read_after(seq, arc: int):
    """A cyclic component's sequence re-read from the endpoint after
    `arc` on."""
    start = (arc + 1) % len(seq) if seq else 0
    return seq[start:] + seq[:start]


def _check_invariants(d: GaussDiagram) -> None:
    _check_endpoints(d.components, d._sign_map)
    prev = None
    for cid, s in d.signs:
        if s != 1 and s != -1:
            raise DiagramError(f"crossing {cid} has sign {s}, expected +1 or -1")
        if cid <= 0:
            raise DiagramError(f"crossing id {cid} is not a positive integer")
        if prev is not None and cid <= prev:
            raise DiagramError("sign table is not sorted")
        prev = cid
    if d.long and not d.components:
        raise DiagramError("long diagram must have an open strand component")


def _check_endpoints(components, sign_map: dict) -> None:
    """Every crossing of `sign_map` has one over and one under endpoint
    among `components`, and no other crossing has any.

    Hot path (every diagram and every search child is checked): tally
    each id as over=1 / under=4 and want 5 per id, with 2 endpoints per id
    (five overs total 5 too); the slow diagnosis runs only on failure.
    """
    seen: dict[int, int] = {}
    get = seen.get
    for comp in components:
        for cid, role in comp:
            if role == OVER:
                seen[cid] = get(cid, 0) + 1
            elif role == UNDER:
                seen[cid] = get(cid, 0) + 4
            else:
                raise DiagramError(f"bad role {role!r} for crossing {cid}")
    if len(seen) != len(sign_map) or sum(map(len, components)) != 2 * len(seen):
        _diagnose(components, sign_map)
    for cid, v in seen.items():
        if v != 5 or cid not in sign_map:
            _diagnose(components, sign_map)


def _diagnose(components, sign_map: dict) -> None:
    """Pinpoint which endpoint invariant broke; always raises."""
    roles_of: dict[int, list[int]] = {}
    for comp in components:
        for cid, role in comp:
            roles_of.setdefault(cid, []).append(role)
    if set(roles_of) != set(sign_map):
        raise DiagramError(
            f"crossing ids in components {sorted(roles_of)} do not match "
            f"sign table {sorted(sign_map)}"
        )
    for cid, roles in roles_of.items():
        if len(roles) != 2:
            raise DiagramError(f"crossing {cid} appears {len(roles)} times, expected 2")
        if sorted(roles) != [OVER, UNDER]:
            which = "over" if roles[0] == OVER else "under"
            raise DiagramError(f"crossing {cid} has two {which} endpoints")
    raise AssertionError("invariant tally failed but diagnosis found nothing")


# -- textual grammar -----------------------------------------------------
#
#   diagram   := [ "L:" ] component ( ";" component )*
#   component := "()" | token+
#   token     := ("O"|"U") integer ("+"|"-")
#
# Whitespace is ignored.  The first component of a long code is the open
# strand; "L:" alone denotes the long unknot (empty strand).

# integers are ASCII digits: `\d` would match any Unicode digit
_TOKEN_RE = re.compile(r"([OU])([0-9]+)([+-])")


def parse_gauss(text: str) -> GaussDiagram:
    """Parse a Gauss code string into a diagram."""
    stripped = re.sub(r"\s+", "", text)
    long = False
    if stripped.startswith("L:"):
        long = True
        stripped = stripped[2:]
    components: list[tuple[Endpoint, ...]] = []
    signs: dict[int, int] = {}
    try:
        if stripped:
            for part in stripped.split(";"):
                components.append(_parse_component(part, signs))
        if long and not components:
            components = [()]
        return GaussDiagram(tuple(components), tuple(sorted(signs.items())), long)
    except DiagramError as err:
        raise DiagramError(f"invalid Gauss code {text!r}: {err}") from None


def _parse_component(part: str, signs: dict[int, int]) -> tuple[Endpoint, ...]:
    if part == "()":
        return ()
    if not part:
        raise DiagramError("empty component (write '()' for a chordless circle)")
    endpoints: list[Endpoint] = []
    pos = 0
    while pos < len(part):
        m = _TOKEN_RE.match(part, pos)
        if m is None:
            raise DiagramError(f"syntax error at {part[pos:]!r}")
        role = OVER if m.group(1) == "O" else UNDER
        cid = int(m.group(2))
        sign = 1 if m.group(3) == "+" else -1
        if cid in signs and signs[cid] != sign:
            raise DiagramError(f"crossing {cid} carries both signs")
        signs[cid] = sign
        endpoints.append((cid, role))
        pos = m.end()
    return tuple(endpoints)


def render_gauss(d: GaussDiagram, relabel: bool = True) -> str:
    """Render a diagram, renumbering crossings by first appearance.

    With relabel=False the diagram's own crossing ids are written, so
    that text naming those ids (a certificate's moves) still applies to
    the parsed result.
    """
    sign = d._sign_map
    ids: dict[int, int] = {}
    return _write_gauss(
        [
            [
                (ids.setdefault(cid, len(ids) + 1) if relabel else cid) * 4
                + role * 2 + (sign[cid] > 0)
                for cid, role in comp
            ]
            for comp in d.components
        ],
        d.long,
    )


class _Tokens(dict):
    """Endpoint int -> its Gauss-code token, made on first use: a memo
    of a pure function, four entries per crossing id ever written.  The
    canonical keys and relabeled renders write ids 1.. only; a render
    with relabel=False adds entries for the raw ids it writes."""

    def __missing__(self, v: int) -> str:
        tok = self[v] = ("U" if v & 2 else "O") + str(v >> 2) + ("+" if v & 1 else "-")
        return tok


_TOKENS = _Tokens()


def _write_gauss(components: list[list[int]], long: bool) -> str:
    """The Gauss code of components given as lists of endpoint ints,
    id * 4 + role * 2 + (sign > 0)."""
    body = ";".join("".join(map(_TOKENS.__getitem__, seg)) or "()" for seg in components)
    if long:
        return "L:" if body == "()" else "L:" + body
    return body


# -- unary and binary operations ----------------------------------------


def reverse(d: GaussDiagram) -> GaussDiagram:
    """Reverse the orientation: every component's endpoint order flips."""
    comps = tuple(tuple(reversed(comp)) for comp in d.components)
    return GaussDiagram(comps, d.signs, d.long)


def mirror(d: GaussDiagram, mode: str) -> GaussDiagram:
    """Mirror a diagram.

    mode="switch": swap every crossing's over/under roles and flip its
    sign; endpoint sequences are unchanged.  Works on round and long
    diagrams.

    mode="reflect": reflect a long diagram through a vertical line.  The
    open strand's word order reverses (the left-to-right convention
    re-orients it), closed components keep their order, all signs flip,
    roles are unchanged.
    """
    if mode == "switch":
        comps = tuple(
            tuple((cid, OVER if role == UNDER else UNDER) for cid, role in comp)
            for comp in d.components
        )
        signs = tuple(sorted((cid, -s) for cid, s in d.signs))
        return GaussDiagram(comps, signs, d.long)
    if mode == "reflect":
        if not d.long:
            raise DiagramError("mode=reflect requires a long diagram")
        comps = (tuple(reversed(d.components[0])),) + d.components[1:]
        signs = tuple(sorted((cid, -s) for cid, s in d.signs))
        return GaussDiagram(comps, signs, True)
    raise DiagramError(f"unknown mirror mode {mode!r}")


def inverse(k: GaussDiagram) -> GaussDiagram:
    """Group inverse of a long knot: reverse of the vertical reflection."""
    if not k.long:
        raise DiagramError("inverse requires a long diagram")
    return reverse(mirror(k, "reflect"))


def connected_sum(a: GaussDiagram, b: GaussDiagram) -> GaussDiagram:
    """Concatenate two long diagrams, a on the left."""
    if not (a.long and b.long):
        raise DiagramError("connected sum requires long diagrams")
    shift = max(a.crossing_ids, default=0)
    b_comps = tuple(
        tuple((cid + shift, role) for cid, role in comp) for comp in b.components
    )
    strand = a.components[0] + b_comps[0]
    comps = (strand,) + a.components[1:] + b_comps[1:]
    signs = tuple(sorted(a.signs + tuple((cid + shift, s) for cid, s in b.signs)))
    return GaussDiagram(comps, signs, True)


def closure(k: GaussDiagram) -> GaussDiagram:
    """Join the two ends of a long diagram; the strand becomes cyclic."""
    if not k.long:
        raise DiagramError("closure requires a long diagram")
    return GaussDiagram(k.components, k.signs, False)


def cut(d: GaussDiagram, comp: int, pos: int) -> GaussDiagram:
    """Open a round diagram at an arc, producing a long diagram.

    The arc `pos` of component `comp` is severed and the cyclic sequence
    is read from the endpoint after the cut onward.  The chosen component
    becomes the open strand; all others are carried along closed.
    """
    if d.long:
        raise DiagramError("cut requires a round diagram")
    if not 0 <= comp < len(d.components):
        raise DiagramError(f"no component {comp}")
    n = d.arc_count(comp)
    if not 0 <= pos < n:
        raise DiagramError(f"no arc {pos} on component {comp} ({n} arcs)")
    strand = read_after(d.components[comp], pos)
    comps = (strand,) + d.components[:comp] + d.components[comp + 1 :]
    return GaussDiagram(comps, d.signs, True)

