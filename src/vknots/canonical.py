"""Canonical keys for Gauss diagrams.

Two diagrams get the same key exactly when they agree after

  * rotating cyclic components,
  * reordering components (the open strand of a long diagram stays first),
  * renumbering crossings.

Nothing else is quotiented; in particular Reidemeister-equivalent
diagrams keep distinct keys.  The key doubles as the dedup identity for
search, which keys every child through `key_and_order`: besides the key
it returns the winning component order, all the sliceness search needs
to carry its surface-piece partition into canonical order.
`canonicalize` adds the normalizing isomorphism onto the normal form
the key renders (component permutation, per-component rotation, id
relabeling), which lets references be transported between diagrams sharing a key: the
certificates layer carries every translated move through two of them,
arcs through `map_arc` and `unmap_arc`.

Only the public `canonical_key` is cached.  The certificates layer asks
it for the same diagrams again and again while it validates a move
sequence; the searches key their children through the uncached
`key_and_order` instead, since almost none of them is ever looked up
twice and a cache would only pin them in memory.

The minimum is taken over label-free encodings of (component order,
rotation) candidates.  Every encoding starts each component with the
negated length, so only orders sorted by descending length can win;
permutations are enumerated within equal-length groups only, and
encoding aborts as soon as a candidate exceeds the incumbent best
(search keys every child diagram, so this path is hot).
"""

from __future__ import annotations

import itertools
from dataclasses import dataclass
from functools import lru_cache

from .diagram import OVER, GaussDiagram


@dataclass(frozen=True)
class Iso:
    """Normalization map from a source diagram to its canonical form.

    comp_perm[i] is the canonical index of source component i.
    rotations[i] = r means the canonical sequence of that component is
    seq[r:] + seq[:r] (always 0 for the open strand and for a chordless
    circle).
    id_map is the source-id -> canonical-id relabeling.
    """

    comp_perm: tuple[int, ...]
    rotations: tuple[int, ...]
    id_map: tuple[tuple[int, int], ...]


@dataclass(frozen=True)
class CanonicalResult:
    key: str
    iso: Iso


@lru_cache(maxsize=1 << 18)
def canonical_key(d: GaussDiagram) -> str:
    return key_and_order(d)[0]


def key_and_order(d: GaussDiagram) -> tuple[str, tuple[int, ...]]:
    """Canonical key plus the winning component order: order[i] is the
    source index of canonical component i."""
    order, _, code = _best_candidate(d)
    return _render_code(code, d.long), order


def canonicalize(d: GaussDiagram) -> CanonicalResult:
    """Canonical key plus the normalizing iso."""
    order, rots, code = _best_candidate(d)

    n = len(d.components)
    comp_perm = [0] * n
    rotations = [0] * n
    id_map: dict[int, int] = {}
    for new_idx, old_idx in enumerate(order):
        comp_perm[old_idx] = new_idx
        rotations[old_idx] = r = rots[new_idx]
        seq = d.components[old_idx]
        for cid, _ in seq[r:] + seq[:r]:
            id_map.setdefault(cid, len(id_map) + 1)

    iso = Iso(tuple(comp_perm), tuple(rotations), tuple(sorted(id_map.items())))
    return CanonicalResult(_render_code(code, d.long), iso)


def _candidate_orders(d: GaussDiagram):
    """All component orders that can minimize the encoding: the strand
    pinned first, chorded components by descending length (permuting
    only within equal-length groups), chordless circles last."""
    chorded = [i for i in range(len(d.components)) if d.components[i]]
    circles = [i for i in range(len(d.components)) if not d.components[i]]
    head: list[int] = []
    if d.long:
        head = [0]
        chorded = [i for i in chorded if i != 0]
        if 0 in circles:
            circles.remove(0)

    groups: list[list[int]] = []
    for i in sorted(chorded, key=lambda i: -len(d.components[i])):
        if groups and len(d.components[groups[-1][0]]) == len(d.components[i]):
            groups[-1].append(i)
        else:
            groups.append([i])
    for perm_parts in itertools.product(
        *(itertools.permutations(g) for g in groups)
    ):
        order = list(head)
        for part in perm_parts:
            order.extend(part)
        yield order + circles


def _lead_rotations(seq, sign) -> tuple[int, ...]:
    """Rotations of a leading component that can start the minimal
    encoding.

    The leading chorded component is encoded before any crossing id is
    assigned, so its first two tokens encode label-free as
    (role, sign, second-id-is-new, role, sign); only rotations realizing
    the minimal such prefix can win.
    """
    k = len(seq)
    if k <= 1:
        return (0,)
    best = None
    rots: list[int] = []
    for r in range(k):
        cid0, role0 = seq[r]
        cid1, role1 = seq[r + 1 - k]
        sig = (role0, sign[cid0], 1 if cid1 == cid0 else 2, role1, sign[cid1])
        if best is None or sig < best:
            best, rots = sig, [r]
        elif sig == best:
            rots.append(r)
    return tuple(rots)


def _best_candidate(d: GaussDiagram) -> tuple[tuple[int, ...], tuple[int, ...], list]:
    """The winning (component order, rotations) and its encoding."""
    best_code: list | None = None
    best_order: tuple[int, ...] = ()
    best_rots: tuple[int, ...] = ()
    for order in _candidate_orders(d):
        rot_ranges = []
        lead = True  # no crossing ids assigned before this component
        for i in order:
            if not d.cyclic(i) or not d.components[i]:
                rot_ranges.append((0,))
                lead = lead and not d.components[i]
            elif lead:
                rot_ranges.append(_lead_rotations(d.components[i], d._sign_map))
                lead = False
            else:
                rot_ranges.append(tuple(range(len(d.components[i]))))
        for rots in itertools.product(*rot_ranges):
            code = _encode_abort(d, order, rots, best_code)
            if code is not None:
                best_code, best_order, best_rots = code, tuple(order), rots
    return best_order, best_rots, best_code


def _encode_abort(d: GaussDiagram, order, rots, best) -> list | None:
    """Label-free encoding of one candidate; None once it provably
    compares greater-or-equal to `best`.

    Each component encodes as its negated length followed by one
    (first-appearance id, role, sign) triple per endpoint.  All
    candidates of one diagram encode to the same length, so a
    non-strictly-smaller candidate can be dropped as soon as it matches
    or exceeds the incumbent prefix.
    """
    sign = d._sign_map
    id_map: dict[int, int] = {}
    out: list[int] = []
    better = best is None
    for i, r in zip(order, rots):
        seq = d.components[i]
        k = len(seq)
        if not better:
            bv = best[len(out)]
            if -k > bv:
                return None
            better = -k < bv
        out.append(-k)
        for cid, role in seq[r:] + seq[:r]:
            new = id_map.get(cid)
            if new is None:
                new = id_map[cid] = len(id_map) + 1
            triple = [new, role, sign[cid]]
            if not better:
                incumbent = best[len(out) : len(out) + 3]
                if triple > incumbent:
                    return None
                better = triple < incumbent
            out += triple
    return out if better else None


def _render_code(code: list, long: bool) -> str:
    """Canonical key string of a winning encoding: its Gauss code with
    crossings numbered by first appearance (identical to rendering the
    normal form)."""
    parts = []
    pos = 0
    while pos < len(code):
        k = -code[pos]
        end = pos + 1 + 3 * k
        parts.append(
            "".join(
                ("O" if code[j + 1] == OVER else "U")
                + str(code[j])
                + ("+" if code[j + 2] > 0 else "-")
                for j in range(pos + 1, end, 3)
            )
            or "()"
        )
        pos = end
    body = ";".join(parts)
    if long:
        return "L:" if body == "()" else "L:" + body
    return body


def map_arc(iso: Iso, d: GaussDiagram, comp: int, arc: int) -> tuple[int, int]:
    """Transport an arc reference of `d` through its normalizing iso.

    Returns (canonical component index, canonical arc index).
    """
    return iso.comp_perm[comp], (arc - iso.rotations[comp]) % d.arc_count(comp)


def unmap_arc(iso: Iso, d: GaussDiagram, new_comp: int, new_arc: int) -> tuple[int, int]:
    """Inverse of map_arc: canonical arc reference back to `d` coordinates."""
    comp = iso.comp_perm.index(new_comp)
    return comp, (new_arc + iso.rotations[comp]) % d.arc_count(comp)

