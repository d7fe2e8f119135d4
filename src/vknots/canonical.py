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
the key encodes (component permutation, per-component rotation, id
relabeling), which lets references be transported between diagrams sharing a key: the
certificates layer carries every translated move through two of them,
arcs through `map_arc` and `unmap_arc`.

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
wins, so the iso is well defined.

One writer, `_write_compact`, writes the winning segments as bytes:
one byte per endpoint int, a 0 closing each component and a leading 1
marking a long diagram (a wider form, opened by a 3, once an int passes
255, beyond 63 crossings).  `parse_compact` builds the normal form back
from those bytes, and `canonical_key` is only its display: the normal
form rendered as Gauss-code text by `render_gauss` (`vknots canon`
prints it).  Every nonempty key ends in a 0, which is what lets a
search append to it what else it keys a state by (`_partition_tag`).

Only `compact_key` is cached.  The certificates layer calls it a few
times per certificate (twice to validate one, four more times to lift
one onto a long knot), and its hits come from the same certificates,
ends and goals being keyed again across calls: validating and
transporting the bench's long certificates finds 94% of its calls in
the cache.  The searches key their roots through it and their children
uncached, by `_compact_key_and_order`, since almost none of the
children is ever looked up twice and a cache would only pin them in
memory.
"""

from __future__ import annotations

from dataclasses import dataclass
from functools import lru_cache

from .diagram import GaussDiagram, render_gauss


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
    key: bytes
    iso: Iso


@lru_cache(maxsize=1 << 18)
def compact_key(d: GaussDiagram) -> bytes:
    """The canonical key of `d`: equal for two diagrams exactly when
    they agree after rotating, reordering and relabeling."""
    return _compact_key_and_order(d.components, d._sign_map, d.long)[0]


def _compact_key_and_order(
    components, sign_map: dict, long: bool
) -> tuple[bytes, tuple[int, ...]]:
    """Compact key of the diagram with these endpoint lists and sign
    table, which need not be built (the searches key children this way),
    plus the winning component order: order[i] is the source index of
    canonical component i."""
    order, _, _, segments = _best_candidate(components, sign_map, long)
    return _write_compact(segments, long), order


def canonical_key(d: GaussDiagram) -> str:
    """The canonical key as Gauss-code text: the render of the normal
    form its compact key encodes."""
    return render_gauss(parse_compact(compact_key(d)))


def _write_compact(segments: list[list[int]], long: bool) -> bytes:
    """The compact key of the winning segments: one byte per endpoint
    int, each component closed by a 0, after a leading 1 if the diagram
    is long.  Past 63 crossings an int needs more than a byte, and the
    key is the wide form: a 3, then width * 2 + long, then each int and
    each terminator as `width` big-endian bytes."""
    ints = [1] if long else []
    for seg in segments:
        ints += seg
        ints.append(0)
    try:
        return bytes(ints)
    except ValueError:
        width = (max(ints).bit_length() + 7) // 8
        return bytes((3, width * 2 + long)) + b"".join(
            v.to_bytes(width, "big") for v in ints[long:]
        )


def _partition_tag(classes: tuple[int, ...]) -> bytes:
    """Dedup suffix for a nontrivial canonical partition: a 2, below any
    endpoint int, then the classes in ASCII digits and commas.  A compact
    key is empty or ends in a 0, so a tagged identity never equals a
    key, and the last 2 of one opens its tag."""
    if len(set(classes)) <= 1:
        return b""
    return b"\x02" + ",".join(map(str, classes)).encode()


def parse_compact(key: bytes) -> GaussDiagram:
    """The diagram a compact key encodes, components in canonical order
    and crossings numbered as in the key."""
    if key[:1] == b"\x03":
        width, long = divmod(key[1], 2)
        ints = [int.from_bytes(key[i:i + width], "big") for i in range(2, len(key), width)]
    else:
        long = key[:1] == b"\x01"
        ints = key[long:]
    components: list[tuple] = []
    signs: dict[int, int] = {}
    seg: list[tuple[int, int]] = []
    for v in ints:
        if v:
            seg.append((v >> 2, v >> 1 & 1))
            signs[v >> 2] = 1 if v & 1 else -1
        else:
            components.append(tuple(seg))
            seg = []
    return GaussDiagram(tuple(components), tuple(sorted(signs.items())), bool(long))


def canonicalize(d: GaussDiagram) -> CanonicalResult:
    """Canonical key plus the normalizing iso."""
    order, rots, ids, segments = _best_candidate(d.components, d._sign_map, d.long)
    comp_perm = [0] * len(order)
    rotations = [0] * len(order)
    for new_idx, old_idx in enumerate(order):
        comp_perm[old_idx] = new_idx
        rotations[old_idx] = rots[new_idx]
    iso = Iso(tuple(comp_perm), tuple(rotations), tuple(sorted(ids.items())))
    return CanonicalResult(_write_compact(segments, d.long), iso)


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

