"""Independent oracles used to freeze expected values in the tests.

Everything here is deliberately self-contained: its own Gauss-code
parser and a brute-force dart-orbit face counter, sharing no code with
the package under test.  Values derived from these oracles are frozen
into the test suite as literals; the oracle stays so the literals can
be re-derived.
"""

from __future__ import annotations

import re

_TOKEN = re.compile(r"([OU])(\d+)([+-])")


def parse_code(text: str):
    """Parse a round Gauss code into ([(id, role, sign), ...] per
    component); role is 'O' or 'U', sign is +1/-1."""
    text = "".join(text.split())
    if text.startswith("L:"):
        raise ValueError("oracle handles round codes only")
    comps = []
    for part in text.split(";") if text else []:
        if part == "()":
            comps.append([])
            continue
        toks = []
        pos = 0
        for m in _TOKEN.finditer(part):
            if m.start() != pos:
                raise ValueError(f"bad code {part!r}")
            toks.append((int(m.group(2)), m.group(1), 1 if m.group(3) == "+" else -1))
            pos = m.end()
        if pos != len(part):
            raise ValueError(f"bad code {part!r}")
        comps.append(toks)
    return comps


def face_count(text: str) -> int:
    """Faces of the Carter surface by brute-force orbit enumeration.

    Each classical crossing is a disk with four band-ends in cyclic
    (rotation) order

        sign +:  over-out, under-out, over-in, under-in
        sign -:  over-out, under-in, over-in, under-out

    Traversal bands join each endpoint's out-dart to the next
    endpoint's in-dart.  Faces are orbits of (rotation o band-pairing).
    Only connected, chorded diagrams are supported.
    """
    comps = parse_code(text)
    signs = {}
    for toks in comps:
        for cid, _, sign in toks:
            if signs.setdefault(cid, sign) != sign:
                raise ValueError(f"crossing {cid} with both signs")
    if not signs:
        raise ValueError("oracle needs at least one crossing")

    rotation = {}  # dart -> next dart counterclockwise at the crossing
    for cid, sign in signs.items():
        order = (
            [(cid, "Oout"), (cid, "Uout"), (cid, "Oin"), (cid, "Uin")]
            if sign > 0
            else [(cid, "Oout"), (cid, "Uin"), (cid, "Oin"), (cid, "Uout")]
        )
        for i, dart in enumerate(order):
            rotation[dart] = order[(i + 1) % 4]

    band = {}  # band-pairing involution on darts
    for toks in comps:
        if not toks:
            raise ValueError("oracle needs chorded components")
        k = len(toks)
        for i in range(k):
            cid_a, role_a, _ = toks[i]
            cid_b, role_b, _ = toks[(i + 1) % k]
            a = (cid_a, role_a + "out")
            b = (cid_b, role_b + "in")
            band[a] = b
            band[b] = a

    # connectivity check (single surface piece)
    seen_c = {next(iter(signs))}
    frontier = list(seen_c)
    adj = {cid: set() for cid in signs}
    for toks in comps:
        k = len(toks)
        for i in range(k):
            adj[toks[i][0]].add(toks[(i + 1) % k][0])
            adj[toks[(i + 1) % k][0]].add(toks[i][0])
    while frontier:
        for nb in adj[frontier.pop()]:
            if nb not in seen_c:
                seen_c.add(nb)
                frontier.append(nb)
    if len(seen_c) != len(signs):
        raise ValueError("oracle needs a connected diagram")

    darts = set(rotation)
    faces = 0
    seen = set()
    for start in sorted(darts):
        if start in seen:
            continue
        faces += 1
        d = start
        while d not in seen:
            seen.add(d)
            d = rotation[band[d]]
    return faces


def odd_writhe_oracle(text: str) -> int:
    """Odd writhe of a one-component round code: the sum of signs over
    chords that interleave an odd number of other chords.  Invariant
    under all generalized Reidemeister moves, and nonzero on knots such
    as the virtual trefoil, so it detects forbidden-move corruption."""
    comps = parse_code(text)
    if len(comps) != 1:
        raise ValueError("oracle handles one-component codes only")
    toks = comps[0]
    pos = {}
    for i, (cid, role, _) in enumerate(toks):
        pos.setdefault(cid, []).append(i)
    sign = {cid: s for cid, _, s in toks}
    total = 0
    for cid, (a, b) in pos.items():
        linked = sum(
            1
            for other, (c, e) in pos.items()
            if other != cid and (a < c < b) != (a < e < b)
        )
        if linked % 2:
            total += sign[cid]
    return total


def index_polynomial_oracle(text: str) -> dict[int, int]:
    """Affine index polynomial of a one-component round code (L. H.
    Kauffman, arXiv:1211.1601): the sum over crossings of
    sign * (t^index - 1), as {exponent: coefficient} without zero terms.

    Orient each chord from its over to its under endpoint.  A crossing's
    index is the signed count of the chords that cross its chord: such a
    chord counts its sign when its under endpoint lies on the arc from
    this chord's over endpoint to its under endpoint, and minus its sign
    when its over endpoint does.  Zero on classical knots; invariant
    under all generalized Reidemeister moves."""
    comps = parse_code(text)
    if len(comps) != 1:
        raise ValueError("oracle handles one-component codes only")
    toks = comps[0]
    n = len(toks)
    over = {cid: i for i, (cid, role, _) in enumerate(toks) if role == "O"}
    under = {cid: i for i, (cid, role, _) in enumerate(toks) if role == "U"}
    sign = {cid: s for cid, _, s in toks}
    poly: dict[int, int] = {}
    for cid, s in sign.items():
        o, u = over[cid], under[cid]

        def on_arc(i: int) -> bool:
            return 0 < (i - o) % n < (u - o) % n

        index = sum(
            sign[other] * (on_arc(under[other]) - on_arc(over[other]))
            for other in sign
            if other != cid
        )
        poly[index] = poly.get(index, 0) + s
        poly[0] = poly.get(0, 0) - s
    return {e: c for e, c in poly.items() if c}


def carter_genus_oracle(text: str) -> int:
    """Genus from the oracle face count: chi = F - n, g = (2 - chi)/2."""
    comps = parse_code(text)
    n = len({cid for toks in comps for cid, _, _ in toks})
    chi = face_count(text) - n
    assert (2 - chi) % 2 == 0
    return (2 - chi) // 2


def certificate_ends(text: str) -> tuple[str, str]:
    """The start and end codes of a certificate text, read from its
    `start:` and `end:` lines."""
    ends = {}
    for line in text.splitlines():
        for tag in ("start:", "end:"):
            if line.startswith(tag):
                ends[tag] = line[len(tag):].strip()
    return ends["start:"], ends["end:"]


def assert_ends_agree(text: str) -> None:
    """Both ends of a round knot concordance's text share the odd writhe
    and the index polynomial, each a concordance invariant."""
    start, end = certificate_ends(text)
    assert odd_writhe_oracle(start) == odd_writhe_oracle(end), text
    assert index_polynomial_oracle(start) == index_polynomial_oracle(end), text
