"""Canonical keys for Gauss diagrams.

Two diagrams get the same key exactly when they agree after

  * rotating cyclic components,
  * reordering components (the open strand of a long diagram stays first),
  * renumbering crossings.

Nothing else is quotiented; in particular Reidemeister-equivalent
diagrams keep distinct keys.  The key doubles as the dedup identity for
search, which keys every child once from the endpoint lists and sign
table the applier core edits, before any diagram is built: besides the
key it returns the winning component order, all the sliceness search
needs to carry its surface-piece partition into canonical order.
`canonicalize` adds the normalizing isomorphism onto the normal form
the key renders (component permutation, per-component rotation, id
relabeling), which lets references be transported between diagrams sharing a key: the
certificates layer carries every translated move through two of them,
arcs through `map_arc` and `unmap_arc`.

Only the public `canonical_key` is cached.  The certificates layer
calls it a few times per certificate (twice to validate one, four more
times to lift one onto a long knot), and its hits come from the same
certificates, ends and goals being keyed again across calls; the
searches key their children uncached, since almost none of them is ever
looked up twice and a cache would only pin them in memory.

The key is the least label-free encoding over (component order,
rotation) candidates.  Each endpoint encodes as one int,
id * 4 + role * 2 + (sign > 0), the id numbered by first appearance;
ints compare like the (id, role, sign) triples they stand for.  The
strand stays first, chorded components follow by descending length and
chordless circles come last, so every candidate places a component of
the same length at each position, and the least encoding is the one
whose segment is least at every position.  The candidates are therefore
refined one position at a time, keeping only the partial ones tied on
the least segment so far; of each component tried, only the rotations
opening with its least first int are encoded.  When several full
candidates tie (a symmetric diagram), the smallest (order, rotations)
wins, so the iso is well defined.  The winning segments are written as
text by `diagram`'s Gauss-code writer, the one `render_gauss` uses, so
a key is the relabeled render of the normal form.
"""

from __future__ import annotations

from dataclasses import dataclass
from functools import lru_cache

from .diagram import GaussDiagram, _write_gauss


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
    return _key_and_order(d.components, d._sign_map, d.long)[0]


def _key_and_order(components, sign_map: dict, long: bool) -> tuple[str, tuple[int, ...]]:
    """Canonical key of the diagram with these endpoint lists and sign
    table, which need not be built (the searches key children this way),
    plus the winning component order: order[i] is the source index of
    canonical component i."""
    order, _, _, segments = _best_candidate(components, sign_map, long)
    return _write_gauss(segments, long), order


def canonicalize(d: GaussDiagram) -> CanonicalResult:
    """Canonical key plus the normalizing iso."""
    order, rots, ids, segments = _best_candidate(d.components, d._sign_map, d.long)
    comp_perm = [0] * len(order)
    rotations = [0] * len(order)
    for new_idx, old_idx in enumerate(order):
        comp_perm[old_idx] = new_idx
        rotations[old_idx] = rots[new_idx]
    iso = Iso(tuple(comp_perm), tuple(rotations), tuple(sorted(ids.items())))
    return CanonicalResult(_write_gauss(segments, d.long), iso)


def _best_candidate(components, sign_map: dict, long: bool):
    """(order, rotations, id map, segments) of the winning candidate.

    Components are placed one position at a time: the strand, then the
    chorded components by descending length, then the chordless circles
    in index order.  Every partial candidate tries each unplaced
    component of the position's length at each rotation, and only those
    whose segment is minimal survive to the next position.  Of the
    candidates left at the end, all encoding alike, the smallest
    (order, rotations) wins.
    """
    # Per component, (crossing id, role * 2 + (sign > 0)) per endpoint.
    low = [[(cid, role * 2 + (sign_map[cid] > 0)) for cid, role in seq] for seq in components]
    groups: dict[int, list[int]] = {}
    for i in range(1 if long else 0, len(components)):
        groups.setdefault(len(components[i]), []).append(i)
    circles = tuple(groups.pop(0, ()))

    segments: list[list[int]] = []
    cands: list[tuple[tuple[int, ...], tuple[int, ...], dict]] = [((), (), {})]
    if long:
        seg, ids = _segment(low[0], {})
        segments.append(seg)
        cands = [((0,), (0,), ids)]
    for size in sorted(groups, reverse=True):
        group = groups[size]
        for _ in group:
            best = None
            survivors: list = []
            for order, rots, ids in cands:
                nxt = len(ids) + 1
                for j in group:
                    if j in order:
                        continue
                    seq = low[j]
                    # Only rotations opening with the least int can win.
                    firsts = [(ids.get(cid) or nxt) * 4 + bits for cid, bits in seq]
                    least = min(firsts)
                    if best is not None and least > best[0]:
                        continue
                    for r in [r for r, v in enumerate(firsts) if v == least]:
                        seg, new_ids = _segment(seq[r:] + seq[:r], ids)
                        if best is None or seg < best:
                            best, survivors = seg, []
                        elif seg != best:
                            continue
                        survivors.append((order + (j,), rots + (r,), new_ids))
            segments.append(best)
            cands = survivors
    order, rots, ids = cands[0] if len(cands) == 1 else min(cands, key=lambda c: c[:2])
    segments += [[] for _ in circles]
    return order + circles, rots + (0,) * len(circles), ids, segments


def _segment(seq, ids: dict) -> tuple[list[int], dict]:
    """Encode one placed component: each endpoint as one int,
    id * 4 + role * 2 + (sign > 0), the id numbered by first appearance
    after the components `ids` already numbers.  Returns the segment and
    `ids` extended by this component's new ids."""
    ids = ids.copy()
    return [ids.setdefault(cid, len(ids) + 1) * 4 + bits for cid, bits in seq], ids


def map_arc(iso: Iso, d: GaussDiagram, comp: int, arc: int) -> tuple[int, int]:
    """Transport an arc reference of `d` through its normalizing iso.

    Returns (canonical component index, canonical arc index).
    """
    return iso.comp_perm[comp], (arc - iso.rotations[comp]) % d.arc_count(comp)


def unmap_arc(iso: Iso, d: GaussDiagram, new_comp: int, new_arc: int) -> tuple[int, int]:
    """Inverse of map_arc: canonical arc reference back to `d` coordinates."""
    comp = iso.comp_perm.index(new_comp)
    return comp, (new_arc + iso.rotations[comp]) % d.arc_count(comp)

