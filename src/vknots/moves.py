"""Reidemeister and cobordism moves on Gauss diagrams.

Move kinds:

    r1_delete   remove a crossing whose two endpoints are adjacent
    r1_insert   add a kink on an arc
    r2_delete   cancel two opposite-sign crossings whose over endpoints
                are adjacent and whose under endpoints are adjacent
    r2_insert   poke: add such a cancelling pair across two arcs
    r3          slide: swap the endpoint pairs of a triangle
    saddle      oriented band resplice (merge or split components)
    birth       create a chordless circle
    death       delete a chordless circle

Enumeration and application share one site finder per kind: `_sites`
lists every pair of adjacent endpoints, and the r1 kinks, r2 pairs and
r3 triangles that the enumeration offers are the ones the appliers
accept, found by the same readers of that list.  `_SiteTables` holds
the list and what each reader found in it for one diagram, and every
r1-, r2- and r3 applier reads its pattern there.  The enumeration
fills the tables, and a caller that applies the moves it listed hands
them to `_apply_core`, so the appliers do not find the pattern again;
a move from anywhere else, such as certificate text, has its tables
built from the diagram when its handler needs them.

`KINDS` gives each kind one row, in listing order: its text, its
parameters in text order with the role of each (a crossing id, a
component, an arc, a sign or an endpoint order), its applier, its lister
and its (saddles, births, deaths) cost.  `parse_move`, `render_move`,
`carry_move` and the enumeration all read the rows.

Virtual and mixed moves act as the identity on Gauss diagrams and have
no move kind; planar isotopy likewise.

Arcs, and the slot at which an insertion into an arc lands, are those
of `diagram` (`GaussDiagram.cyclic`, `n_arcs`, `slot_of_arc`,
`arc_of_slot`, `read_after`).  For r2_insert the over pair is inserted
first and the under-arc index q refers to the diagram with the over pair
already present (this only matters when both pairs land on one
component).  Besides the r2 appliers and lister, only `carry_move`
knows that frame: it carries a move onto a relabeled, rotated or closed
copy of its diagram, every arc through its insertion slot, and such a q
over the k + 2 endpoints with the over pair in place.

All moves are applied functionally: the input diagram is unchanged, and
`apply_move_with_inverse` also returns the exact inverse move, so that
certificate paths can be reversed step by step.  The applier core,
`_apply_core`, copies the endpoint lists and the sign table once and
hands both to the kind's handler, which checks the move against the
input diagram, edits the copies in place and returns the inverse's kind
and parameters, unbuilt; the core returns the edited lists, the table
and that pair.  `apply_move` and `apply_move_with_inverse` build the
result from them, with its invariant check, in one place (`_build`),
and only `apply_move_with_inverse` builds the inverse into a `Move`.
The searches call the core directly: they check and key a child from
its lists, keep it as its key and build a diagram only for a reduction
candidate, whose Carter genus needs one.

Moves are listed by one generator, `_iter_moves`, which builds each
move as it is drawn; `enumerate_moves` is its list.  A caller that
wants only the move at an index (a search rebuilding a found chain from
the index of each step among the moves of the kinds it listed) draws up
to that index and stops.
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import Callable, Iterable, Iterator, NamedTuple

from .diagram import (
    OVER,
    UNDER,
    Endpoint,
    GaussDiagram,
    arc_of_slot,
    n_arcs,
    read_after,
    slot_of_arc,
)

class MoveError(ValueError):
    """Move is malformed or not applicable to the given diagram.

    `certificates.replay` sets `replayed` on the error it raises: the
    diagrams it reached before the failing step."""


@dataclass(frozen=True)
class Move:
    kind: str
    params: tuple[tuple[str, object], ...] = ()

    def __post_init__(self):
        if self.kind not in ALL_KINDS:
            raise MoveError(f"unknown move kind {self.kind!r}")

    def __getitem__(self, name: str):
        for key, value in self.params:
            if key == name:
                return value
        raise MoveError(f"{self.kind} move has no parameter {name!r}")

    @staticmethod
    def of(kind: str, /, **params) -> "Move":
        row = KINDS.get(kind)
        if row is None:
            raise MoveError(f"unknown move kind {kind!r}")
        roles = row.params
        if params.keys() != roles.keys():
            raise MoveError(
                f"{kind} takes parameters {tuple(roles)}, got {sorted(params)}"
            )
        return Move(kind, tuple((k, params[k]) for k in roles))


def parse_move(line: str) -> Move:
    head, *items = line.split() or [""]
    kind = next((k for k, row in KINDS.items() if row.text == head), None)
    if kind is None:
        raise MoveError(f"unrecognized move line {line!r}")
    roles = KINDS[kind].params
    params: dict[str, object] = {}
    for item in items:
        key, eq, value = item.partition("=")
        if not eq:
            raise MoveError(f"bad parameter {item!r} in {line!r}")
        if key in params:
            raise MoveError(f"repeated parameter {key!r} in {line!r}")
        role = roles.get(key)
        if role in ("id", "comp", "arc"):
            # ASCII digits only: int() also reads other digits and "1_0"
            if not (value.isascii() and value.isdigit()):
                raise MoveError(f"bad integer {value!r} in {line!r}")
            params[key] = int(value)
        elif role == "sign":
            if value not in ("+", "-"):
                raise MoveError(f"bad sign {value!r} in {line!r}")
            params[key] = 1 if value == "+" else -1
        else:
            params[key] = value
    if "sign" in roles:
        params.setdefault("sign", 1)
    return Move.of(kind, **params)


def render_move(m: Move) -> str:
    row = KINDS[m.kind]
    roles = row.params
    out = [row.text]
    for key, value in m.params:
        if roles.get(key) == "sign":
            value = "+" if value > 0 else "-"
        out.append(f"{key}={value}")
    return " ".join(out)


def carry_move(
    m: Move, src: GaussDiagram, ids=None, comp=None, rot=None, closed: bool = False
) -> Move:
    """The move `m` of `src`, carried onto a relabeled copy of `src`:
    crossing ids through the mapping `ids`, component c onto `comp[c]`
    with its endpoint list turned by `rot[c]` (the copy reads it from
    endpoint rot[c] on), and with `closed` the strand closed up.  A map
    left None is the identity.

    An arc is carried through its insertion slot: a turn by r moves the
    slot back by r, and on the strand the slot stays.  A same-component
    r2_insert's q counts the k + 2 endpoints with the over pair in place,
    so it is carried the same way, that list being turned by the pair's
    slot before the carry less its slot after."""
    roles = KINDS[m.kind].params
    poke = m.kind == "r2_insert" and m["c1"] == m["c2"]
    out = []
    c = None
    for key, value in m.params:
        role = roles.get(key)
        if role == "id" and ids is not None:
            value = ids[value]
        elif role == "comp":
            c = value
            if comp is not None:
                value = comp[c]
        elif role == "arc":
            k, cyclic = len(src.components[c]), src.cyclic(c)
            r = rot[c] if rot else 0
            if poke and key == "q":
                k, r = k + 2, s_p - t_p
            slot = slot_of_arc(k, cyclic, value)
            value = arc_of_slot(k, cyclic or closed, slot - r)
            s_p, t_p = slot, slot_of_arc(k, cyclic or closed, value)
        out.append((key, value))
    return Move(m.kind, tuple(out))


# -- application ---------------------------------------------------------

# The inverse of an applied move as its kind and parameters, which only
# `apply_move_with_inverse` builds into a `Move`.
_Inverse = tuple[str, dict]


def apply_move(d: GaussDiagram, m: Move) -> GaussDiagram:
    """Apply a move; raises MoveError if the pattern does not match."""
    comps, signs, _ = _apply_core(d, m)
    return _build(comps, signs, d.long)


def apply_move_with_inverse(d: GaussDiagram, m: Move) -> tuple[GaussDiagram, Move]:
    """Apply a move and return (result, exact inverse move on the result)."""
    comps, signs, (kind, params) = _apply_core(d, m)
    return _build(comps, signs, d.long), Move.of(kind, **params)


def _apply_core(
    d: GaussDiagram, m: Move, tables: _SiteTables | None = None
) -> tuple[list[list[Endpoint]], dict[int, int], _Inverse]:
    """The result's endpoint lists and sign table, not yet checked, and
    the kind and parameters of the exact inverse move on the result, not
    built into a `Move`.  `tables` are the site tables of `d` that the
    move's enumeration filled; without them an r1-, r2- or r3 handler
    builds its own from `d`."""
    comps = [list(c) for c in d.components]
    signs = dict(d._sign_map)
    return comps, signs, KINDS[m.kind].applier(d, m, comps, signs, tables)


def _build(comps: list, signs: dict, long: bool) -> GaussDiagram:
    """The diagram of `_apply_core`'s lists, with its invariant check."""
    return GaussDiagram(tuple(map(tuple, comps)), tuple(sorted(signs.items())), long)


def _check_comp(d: GaussDiagram, c) -> int:
    if not isinstance(c, int) or not 0 <= c < d.n_components:
        raise MoveError(f"no component {c}")
    return c


def _check_arc(c: int, arc, n: int) -> int:
    """`arc`, if it is one of the n arcs of component c."""
    if not isinstance(arc, int) or not 0 <= arc < n:
        raise MoveError(f"no arc {arc} on component {c} ({n} arcs)")
    return arc


def _fresh_ids(d: GaussDiagram, count: int) -> list[int]:
    base = d.signs[-1][0] if d.signs else 0  # the sign table is sorted by id
    return [base + i + 1 for i in range(count)]


# -- adjacency sites -----------------------------------------------------
#
# Every r1-, r2- and r3 pattern is made of sites: two endpoints, the
# second immediately after the first on one component.


def _sites(d: GaussDiagram) -> list[tuple[int, int, int, Endpoint, Endpoint]]:
    """Every site (comp, i, j, e_i, e_j), in component and position
    order: endpoint j immediately follows endpoint i on comp."""
    out = []
    for c, comp in enumerate(d.components):
        k = len(comp)
        if not d.cyclic(c):
            out.extend((c, i, i + 1, comp[i], comp[i + 1]) for i in range(k - 1))
        elif k >= 2:
            for i in range(k):
                j = (i + 1) % k
                out.append((c, i, j, comp[i], comp[j]))
    return out


class _SiteTables:
    """The sites of one diagram and the r1 kinks, r2 pairs and r3
    triangles read off them, each built on first use.  Every r1-, r2-
    and r3 applier reads its pattern here, from the tables that the
    enumeration filled when it listed the move, or else from tables
    built for the one application."""

    __slots__ = ("d", "_sites", "_kinks", "_pairs", "_triangles")

    def __init__(self, d: GaussDiagram):
        self.d = d
        self._sites = self._kinks = self._pairs = self._triangles = None

    def sites(self) -> list[tuple[int, int, int, Endpoint, Endpoint]]:
        if self._sites is None:
            self._sites = _sites(self.d)
        return self._sites

    def kinks(self) -> dict[int, tuple[int, int, str]]:
        """Crossing id -> (comp, pos, order) for each crossing whose two
        endpoints form a site, starting at pos.  Where both orders are
        sites (a circle holding only that crossing), OU wins."""
        if self._kinks is None:
            self._kinks = kinks = {}
            for c, i, _, (x, role), (y, _) in self.sites():
                if x == y and (role == OVER or x not in kinks):
                    kinks[x] = (c, i, "OU" if role == OVER else "UO")
        return self._kinks

    def pairs(self) -> tuple[dict, dict]:
        """(over, under): each maps (first id, second id) -> (comp, pos)
        for the sites whose endpoints are both over, respectively both
        under."""
        if self._pairs is None:
            self._pairs = over, under = {}, {}
            for c, i, _, (x, rx), (y, ry) in self.sites():
                if rx == ry:
                    (over if rx == OVER else under)[(x, y)] = (c, i)
        return self._pairs

    def triangles(self) -> dict[tuple[int, int, int], tuple]:
        if self._triangles is None:
            self._triangles = _r3_triangles(self.d, self.sites())
        return self._triangles


def _check_crossing(d: GaussDiagram, x) -> None:
    if x not in d._sign_map:
        raise MoveError(f"no crossing {x}")


# -- R1 ------------------------------------------------------------------


def _apply_r1_delete(d: GaussDiagram, m: Move, comps: list, signs: dict, tables) -> _Inverse:
    x = m["x"]
    _check_crossing(d, x)
    kink = (tables or _SiteTables(d)).kinks().get(x)
    if kink is None:
        raise MoveError(f"endpoints of crossing {x} are not adjacent; not an r1 kink")
    c, i, order = kink
    # The kink starts at slot i, or at slot 0 when it is the wrap pair
    # (k-1, 0) of a cyclic component.
    slot = 0 if i == len(comps[c]) - 1 else i
    comps[c] = [e for e in comps[c] if e[0] != x]
    pos = arc_of_slot(len(comps[c]), d.cyclic(c), slot)
    return "r1_insert", dict(c=c, pos=pos, sign=signs.pop(x), order=order)


def _apply_r1_insert(d: GaussDiagram, m: Move, comps: list, signs: dict, tables) -> _Inverse:
    c = _check_comp(d, m["c"])
    pos = _check_arc(c, m["pos"], d.arc_count(c))
    sign = m["sign"]
    order = m["order"]
    if sign not in (1, -1) or order not in ("OU", "UO"):
        raise MoveError(f"bad r1_insert parameters sign={sign} order={order}")
    (nid,) = _fresh_ids(d, 1)
    pair = [(nid, OVER), (nid, UNDER)] if order == "OU" else [(nid, UNDER), (nid, OVER)]
    slot = slot_of_arc(len(comps[c]), d.cyclic(c), pos)
    comps[c][slot:slot] = pair
    signs[nid] = sign
    return "r1_delete", dict(x=nid)


# -- R2 ------------------------------------------------------------------


def _ordered_pair(pairs: dict, a: int, b: int):
    """(comp, first pos, first id) of the site on {a, b}, trying (a, b)
    before (b, a); None if neither is a site."""
    if (a, b) in pairs:
        return (*pairs[(a, b)], a)
    if (b, a) in pairs:
        return (*pairs[(b, a)], b)
    return None


def _apply_r2_delete(d: GaussDiagram, m: Move, comps: list, signs: dict, tables) -> _Inverse:
    a, b = m["a"], m["b"]
    if a == b:
        raise MoveError("r2_delete needs two distinct crossings")
    for x in (a, b):
        _check_crossing(d, x)
    if d.sign_of(a) != -d.sign_of(b):
        raise MoveError(f"crossings {a},{b} do not have opposite signs")
    over_pairs, under_pairs = (tables or _SiteTables(d)).pairs()
    over = _ordered_pair(over_pairs, a, b)
    under = _ordered_pair(under_pairs, a, b)
    if over is None or under is None:
        raise MoveError(f"crossings {a},{b} do not form an r2 pattern")
    oc, opos, first_over = over
    uc, upos, first_under = under
    # Normalize names so the over pair reads (O_a, O_b).
    if first_over != a:
        a, b = b, a
    order = "UO" if first_under == b else "OU"

    # Rotate affected cyclic components so neither pair wraps; slot
    # bookkeeping for the inverse insertion is then exact.  The rotation
    # is invisible to the canonical key.
    if d.cyclic(oc):
        comps[oc] = comps[oc][opos:] + comps[oc][:opos]
        opos = 0
        if uc == oc:
            upos = comps[oc].index((first_under, UNDER))
    if uc != oc and d.cyclic(uc):
        comps[uc] = comps[uc][upos:] + comps[uc][:upos]
        upos = 0
    for c in {oc, uc}:
        comps[c] = [e for e in comps[c] if e[0] != a and e[0] != b]
    sign = signs.pop(a)
    signs.pop(b)

    kf = len(comps[oc])
    if oc != uc:
        p = arc_of_slot(kf, d.cyclic(oc), opos)
        q = arc_of_slot(len(comps[uc]), d.cyclic(uc), upos)
    elif d.cyclic(oc):
        # r2_insert appends the over pair to the rotated component, two
        # endpoints past slot 0 where it stood, and reads q in that frame.
        p, q = arc_of_slot(kf, True, 0), arc_of_slot(kf + 2, True, upos - 2)
    else:
        p, q = (opos if opos < upos else opos - 2), upos
    return "r2_insert", dict(c1=oc, p=p, c2=uc, q=q, sign=sign, order=order)


def _apply_r2_insert(d: GaussDiagram, m: Move, comps: list, signs: dict, tables) -> _Inverse:
    c1 = _check_comp(d, m["c1"])
    p = _check_arc(c1, m["p"], d.arc_count(c1))
    sign = m["sign"]
    order = m["order"]
    if sign not in (1, -1) or order not in ("OU", "UO"):
        raise MoveError(f"bad r2_insert parameters sign={sign} order={order}")
    a, b = _fresh_ids(d, 2)
    slot = slot_of_arc(len(comps[c1]), d.cyclic(c1), p)
    comps[c1][slot:slot] = [(a, OVER), (b, OVER)]
    signs[a], signs[b] = sign, -sign

    # The under-arc index q refers to the intermediate lists with the
    # over pair already inserted.
    c2 = _check_comp(d, m["c2"])
    k2, cyclic2 = len(comps[c2]), d.cyclic(c2)
    q = _check_arc(c2, m["q"], n_arcs(k2, cyclic2))
    slot2 = slot_of_arc(k2, cyclic2, q)
    pair = [(b, UNDER), (a, UNDER)] if order == "UO" else [(a, UNDER), (b, UNDER)]
    # The under pair must not land between the two over endpoints, or the
    # result is not an r2 pattern; on a chordless circle the over pair
    # also meets round the wrap, after the under pair.
    if c2 == c1 and slot2 == slot + 1 and not (cyclic2 and k2 == 2):
        raise MoveError("under arc q splits the over pair; not an r2 insertion")
    comps[c2][slot2:slot2] = pair
    return "r2_delete", dict(a=a, b=b)


# -- R3 ------------------------------------------------------------------


def _r3_triangles(d: GaussDiagram, sites: list) -> dict[tuple[int, int, int], tuple]:
    """Legal r3 triangles of `d` among its `sites`: sorted crossing ids
    -> the first triple of sites on them, in site order.

    A triangle is a both-over site A, a mixed site B and a both-under
    site C, position-disjoint and covering three distinct crossings twice
    each: A and C share exactly one crossing and B joins the other two.
    It must also pass the sign/orientation compatibility test
    (_r3_legal): only such triangles bound an embedded disk a strand can
    slide across.  Swapping an incompatible triangle is a forbidden move
    and changes the underlying knot, so those triples are never offered.
    """
    unders: dict[int, list[int]] = {}
    mixed: dict[frozenset, list[int]] = {}
    for n, (_, _, _, (x, rx), (y, ry)) in enumerate(sites):
        if rx != ry:
            mixed.setdefault(frozenset((x, y)), []).append(n)
        elif rx == UNDER:
            unders.setdefault(x, []).append(n)
            unders.setdefault(y, []).append(n)
    found = []
    for n, a in enumerate(sites):
        (x, rx), (y, ry) = a[3], a[4]
        if rx != OVER or ry != OVER:
            continue
        for shared, p in ((x, y), (y, x)):
            for t in unders.get(shared, ()):
                (u1, _), (u2, _) = sites[t][3], sites[t][4]
                r = u2 if u1 == shared else u1
                if r == p:
                    continue
                for u in mixed.get(frozenset((p, r)), ()):
                    b, c = sites[u], sites[t]
                    if _sites_disjoint((a, b, c)) and _r3_legal(d, a, b, c):
                        key = tuple(sorted((n, t, u)))
                        found.append((key, tuple(sorted((x, y, r)))))
    triangles = {}
    for key, tri in sorted(found):
        triangles.setdefault(tri, tuple(sites[k] for k in key))
    return triangles


def _sites_disjoint(triple) -> bool:
    return len({(c, p) for c, i, j, _, _ in triple for p in (i, j)}) == 6


def _r3_legal(d: GaussDiagram, a, b, c) -> bool:
    """Sign/orientation compatibility of an r3 triangle.

    Realize the triangle by three transverse strands: A over at both of
    its crossings, C under at both, B mixed.  Name the crossings ab (on
    sites A and B), ac (A and C), bc (B and C), and for each strand read
    an order bit: +1 when, following the strand's orientation, it meets
    the crossing it shares with the top strand first (for A itself: the
    crossing shared with B).  Enumerating every planar placement — two
    triangle chiralities times eight strand co-orientations — shows a
    triple is realizable, hence a legal slide, exactly when

        sign(ab)*oA*oB == sign(ac)*oA*oC == sign(bc)*oB*oC

    (both sides of the move satisfy it: the swap flips all three order
    bits and keeps signs).  The 48 incompatible patterns are forbidden
    moves and must be rejected.  The sites a, b, c are A, B, C.
    """
    ids = lambda s: {s[3][0], s[4][0]}
    ab = (ids(a) & ids(b)).pop()
    ac = (ids(a) & ids(c)).pop()
    bc = (ids(b) & ids(c)).pop()
    o_a = 1 if a[3][0] == ab else -1
    o_b = 1 if b[3][0] == ab else -1
    o_c = 1 if c[3][0] == ac else -1
    return (
        d.sign_of(ab) * o_a * o_b
        == d.sign_of(ac) * o_a * o_c
        == d.sign_of(bc) * o_b * o_c
    )


def _apply_r3(d: GaussDiagram, m: Move, comps: list, signs: dict, tables) -> _Inverse:
    ids = (m["a"], m["b"], m["c"])
    if len(set(ids)) != 3:
        raise MoveError("r3 needs three distinct crossings")
    for x in ids:
        _check_crossing(d, x)
    triple = (tables or _SiteTables(d)).triangles().get(tuple(sorted(ids)))
    if triple is None:
        raise MoveError(f"crossings {ids} do not form an r3 triangle")
    for c, i, j, _, _ in triple:
        comps[c][i], comps[c][j] = comps[c][j], comps[c][i]
    return "r3", dict(m.params)


# -- cobordism moves -----------------------------------------------------


def _apply_saddle(d: GaussDiagram, m: Move, comps: list, signs: dict, tables) -> _Inverse:
    c1 = _check_comp(d, m["c1"])
    c2 = _check_comp(d, m["c2"])
    p = _check_arc(c1, m["p"], d.arc_count(c1))
    q = _check_arc(c2, m["q"], d.arc_count(c2))
    if c1 == c2:
        # Split one component into two.
        if d.cyclic(c1):
            # Read from arc p on: the first piece ends at arc q, and is
            # all of it when p == q, which buds off a chordless circle.
            seq = read_after(comps[c1], p)
            n1 = (q - p - 1) % len(seq) + 1 if seq else 0
            piece1, piece2 = seq[:n1], seq[n1:]
            comps[c1] = piece1
            comps.append(piece2)
            return "saddle", dict(
                c1=c1,
                p=arc_of_slot(len(piece1), True, 0),
                c2=len(comps) - 1,
                q=arc_of_slot(len(piece2), True, 0),
            )
        # Split the open strand: gaps p and q sever off a circle.
        lo, hi = min(p, q), max(p, q)
        word = comps[0]
        circle = word[lo:hi]
        comps[0] = word[:lo] + word[hi:]
        comps.append(circle)
        return "saddle", dict(
            c1=0, p=lo, c2=len(comps) - 1, q=arc_of_slot(len(circle), True, 0)
        )

    # Merge two distinct components.
    if not d.cyclic(c2):
        c1, c2 = c2, c1
        p, q = q, p
    if not d.cyclic(c1):
        slot = p  # strand arc index is its insertion slot
        inserted = read_after(comps[c2], q)
        merged = comps[0][:slot] + inserted + comps[0][slot:]
        inv = dict(c1=0, p=slot, c2=0, q=slot + len(inserted))
    else:
        part1 = read_after(comps[c1], p)
        merged = part1 + read_after(comps[c2], q)
        merged_idx = c1 if c1 < c2 else c1 - 1
        km = len(merged)
        # Splitting the merged component at the arcs before each part
        # recovers the parts; if a part is empty both arcs coincide.
        inv = dict(
            c1=merged_idx, p=arc_of_slot(km, True, len(part1)),
            c2=merged_idx, q=arc_of_slot(km, True, 0),
        )
    comps[c1] = merged
    del comps[c2]
    return "saddle", inv


def _apply_birth(d: GaussDiagram, m: Move, comps: list, signs: dict, tables) -> _Inverse:
    comps.append([])
    return "death", dict(c=len(comps) - 1)


def _apply_death(d: GaussDiagram, m: Move, comps: list, signs: dict, tables) -> _Inverse:
    c = _check_comp(d, m["c"])
    if not d.cyclic(c):
        raise MoveError("cannot kill the open strand")
    if d.components[c]:
        raise MoveError(f"component {c} has endpoints; death needs a chordless circle")
    del comps[c]
    return "birth", {}


# -- enumeration ---------------------------------------------------------
#
# Each lister takes the diagram and its site tables and yields the
# applicable moves of its kind.


def _enum_r1_delete(d: GaussDiagram, tables: _SiteTables) -> Iterator[Move]:
    for x in sorted(tables.kinks()):
        yield Move.of("r1_delete", x=x)


def _enum_r2_delete(d: GaussDiagram, tables: _SiteTables) -> Iterator[Move]:
    over, under = tables.pairs()
    found = {(min(k), max(k)) for k in over if k in under or k[::-1] in under}
    for a, b in sorted(found):
        if d.sign_of(a) == -d.sign_of(b):
            yield Move.of("r2_delete", a=a, b=b)


def _enum_r3(d: GaussDiagram, tables: _SiteTables) -> Iterator[Move]:
    for a, b, c in tables.triangles():
        yield Move.of("r3", a=a, b=b, c=c)


def _all_arcs(d: GaussDiagram) -> list[tuple[int, int]]:
    return [(c, arc) for c in range(d.n_components) for arc in range(d.arc_count(c))]


def _enum_r1_insert(d: GaussDiagram, tables: _SiteTables) -> Iterator[Move]:
    for c, arc in _all_arcs(d):
        for sign in (1, -1):
            for order in ("OU", "UO"):
                yield Move(
                    "r1_insert",
                    (("c", c), ("pos", arc), ("sign", sign), ("order", order)),
                )


def _enum_r2_insert(d: GaussDiagram, tables: _SiteTables) -> Iterator[Move]:
    # q indexes arcs of the intermediate diagram (over pair inserted);
    # the arc between the two new over endpoints is excluded.
    for c1, p in _all_arcs(d):
        slot_over = slot_of_arc(len(d.components[c1]), d.cyclic(c1), p)
        for c2 in range(d.n_components):
            k2 = len(d.components[c2]) + (2 if c2 == c1 else 0)
            cyclic2 = d.cyclic(c2)
            banned = arc_of_slot(k2, cyclic2, slot_over + 1) if c2 == c1 else None
            for q in range(n_arcs(k2, cyclic2)):
                if q == banned:
                    continue
                for sign in (1, -1):
                    for order in ("OU", "UO"):
                        yield Move(
                            "r2_insert",
                            (
                                ("c1", c1),
                                ("p", p),
                                ("c2", c2),
                                ("q", q),
                                ("sign", sign),
                                ("order", order),
                            ),
                        )


def _enum_saddle(d: GaussDiagram, tables: _SiteTables) -> Iterator[Move]:
    arcs = _all_arcs(d)
    for i, (c1, p) in enumerate(arcs):
        # Same-arc saddles (i itself) just bud off a chordless circle;
        # they are legal and enumerated like any other pair.
        for c2, q in arcs[i:]:
            yield Move("saddle", (("c1", c1), ("p", p), ("c2", c2), ("q", q)))


def _enum_birth(d: GaussDiagram, tables: _SiteTables) -> Iterator[Move]:
    yield Move.of("birth")


def _enum_death(d: GaussDiagram, tables: _SiteTables) -> Iterator[Move]:
    start = 1 if d.long else 0
    for c in range(start, d.n_components):
        if not d.components[c]:
            yield Move.of("death", c=c)


# -- the move kinds ------------------------------------------------------


class Kind(NamedTuple):
    text: str
    params: dict[str, str]  # name -> role, in text order
    applier: Callable[..., _Inverse]
    lister: Callable[[GaussDiagram, _SiteTables], Iterator[Move]]
    cost: tuple[int, int, int] = (0, 0, 0)  # (saddles, births, deaths)


# Every kind, in listing order: r1/r2 deletions, r3, insertions,
# cobordism moves, so a consumer that expands in order is biased toward
# simplification.  The parameter roles:
#   id     a crossing id
#   comp   a component index
#   arc    an arc of the component named just before it
#   sign   the sign of a new crossing, written + or - (default +)
#   order  OU or UO: which endpoint of a new crossing comes first
KINDS = {
    "r1_delete": Kind("r1-", {"x": "id"}, _apply_r1_delete, _enum_r1_delete),
    "r2_delete": Kind("r2-", {"a": "id", "b": "id"}, _apply_r2_delete, _enum_r2_delete),
    "r3": Kind("r3", {"a": "id", "b": "id", "c": "id"}, _apply_r3, _enum_r3),
    "r1_insert": Kind(
        "r1+",
        {"c": "comp", "pos": "arc", "sign": "sign", "order": "order"},
        _apply_r1_insert,
        _enum_r1_insert,
    ),
    "r2_insert": Kind(
        "r2+",
        {"c1": "comp", "p": "arc", "c2": "comp", "q": "arc", "sign": "sign", "order": "order"},
        _apply_r2_insert,
        _enum_r2_insert,
    ),
    "saddle": Kind(
        "saddle",
        {"c1": "comp", "p": "arc", "c2": "comp", "q": "arc"},
        _apply_saddle,
        _enum_saddle,
        (1, 0, 0),
    ),
    "birth": Kind("birth", {}, _apply_birth, _enum_birth, (0, 1, 0)),
    "death": Kind("death", {"c": "comp"}, _apply_death, _enum_death, (0, 0, 1)),
}
ALL_KINDS = frozenset(KINDS)


def enumerate_moves(
    d: GaussDiagram,
    kinds: Iterable[str] = ALL_KINDS,
    tables: _SiteTables | None = None,
) -> list[Move]:
    """All applicable moves of the requested kinds, deletions first: the
    list of `_iter_moves`, in its order."""
    return list(_iter_moves(d, kinds, tables))


def _iter_moves(
    d: GaussDiagram,
    kinds: Iterable[str] = ALL_KINDS,
    tables: _SiteTables | None = None,
) -> Iterator[Move]:
    """Each applicable move of the requested kinds, built as it is drawn,
    in the order of `KINDS`, so one that wants the move at an index
    stops drawing there.  The r1-, r2- and r3 moves are read off the
    site tables of `d`; a caller that applies them hands the same
    `tables` to `_apply_core`, so their appliers read them there too.
    """
    kinds = set(kinds)
    unknown = kinds - ALL_KINDS
    if unknown:
        raise MoveError(f"unknown move kinds {sorted(unknown)}")
    tables = tables or _SiteTables(d)
    for kind, row in KINDS.items():
        if kind in kinds:
            yield from row.lister(d, tables)
