"""Canonical keys: invariance, separation, and a brute-force differential."""

import hashlib
import itertools
import random

from vknots import (
    GaussDiagram,
    apply_move,
    canonical_key,
    canonicalize,
    enumerate_moves,
    parse_gauss,
    render_gauss,
)
from vknots.canonical import (
    _compact_key_and_order,
    compact_key,
    map_arc,
    parse_compact,
    unmap_arc,
)

from .conftest import CORPUS, KISHINO, random_diagram, scrambled


def _rotate(d: GaussDiagram, comp: int, r: int) -> GaussDiagram:
    seq = d.components[comp]
    rotated = seq[r:] + seq[:r]
    comps = d.components[:comp] + (rotated,) + d.components[comp + 1 :]
    return GaussDiagram(comps, d.signs, d.long)


def _permute(d: GaussDiagram, order) -> GaussDiagram:
    comps = tuple(d.components[i] for i in order)
    return GaussDiagram(comps, d.signs, d.long)


def _label_free_encoding(d: GaussDiagram) -> list:
    """Per component: negated length, then (first-appearance id, role,
    sign) per endpoint.  Reimplements the key's total order without any
    of the library's pruning."""
    idm: dict = {}
    out: list = []
    for comp in d.components:
        out.append(-len(comp))
        for cid, role in comp:
            out.append(idm.setdefault(cid, len(idm) + 1))
            out.append(role)
            out.append(d.sign_of(cid))
    return out


def brute_force_key(d: GaussDiagram) -> str:
    """Reference key: minimum label-free encoding over every component
    order (strand pinned) and every rotation, with no pruning."""
    n = len(d.components)
    idx = list(range(n))
    orders = (
        [[0] + list(p) for p in itertools.permutations(idx[1:])]
        if d.long
        else [list(p) for p in itertools.permutations(idx)]
    )
    best = None
    winner = None
    for order in orders:
        ranges = [
            (0,)
            if (d.long and i == 0) or not d.components[i]
            else tuple(range(len(d.components[i])))
            for i in order
        ]
        for rots in itertools.product(*ranges):
            cand = _permute(d, order)
            for pos, r in enumerate(rots):
                cand = _rotate(cand, pos, r)
            code = _label_free_encoding(cand)
            if best is None or code < best:
                best, winner = code, cand
    return render_gauss(winner)


class TestKey:
    def test_matches_brute_force(self, rng):
        for _ in range(400):
            d = random_diagram(rng, max_crossings=4)
            assert canonical_key(d) == brute_force_key(d), render_gauss(d)

    def test_corpus_matches_brute_force(self):
        for code in CORPUS:
            d = parse_gauss(code)
            assert canonical_key(d) == brute_force_key(d), code

    def test_invariant_under_rotation_permutation_relabeling(self, rng):
        for _ in range(200):
            d = random_diagram(rng, max_crossings=5)
            key = canonical_key(d)
            other = scrambled(d, rng)
            assert canonical_key(other) == key

    def test_key_parses_back_to_same_key(self, rng):
        for _ in range(200):
            d = random_diagram(rng)
            key = canonical_key(d)
            assert canonical_key(parse_gauss(key)) == key

    def test_distinguishes(self):
        pairs = [
            ("O1+U1+", "O1-U1-"),
            ("O1+U2+U1+O2+", KISHINO),
            ("L:O1+U1+", "L:U1+O1+"),    # rotation is not free on the strand
            ("()", ""),
            ("L:", "()"),
        ]
        for a, b in pairs:
            assert canonical_key(parse_gauss(a)) != canonical_key(parse_gauss(b))

    def test_special_forms(self):
        assert canonical_key(parse_gauss("L:")) == "L:"
        assert canonical_key(parse_gauss("()")) == "()"
        assert canonical_key(parse_gauss("")) == ""


def _normal_form(d: GaussDiagram, iso) -> GaussDiagram:
    """`d` carried through its normalizing iso: components permuted and
    rotated, crossings relabeled."""
    ids = dict(iso.id_map)
    comps = [()] * d.n_components
    for i, seq in enumerate(d.components):
        r = iso.rotations[i]
        comps[iso.comp_perm[i]] = tuple((ids[cid], role) for cid, role in seq[r:] + seq[:r])
    signs = tuple(sorted((ids[cid], s) for cid, s in d.signs))
    return GaussDiagram(tuple(comps), signs, d.long)


class TestIso:
    def test_normal_form_renders_key(self, rng):
        for _ in range(150):
            d = random_diagram(rng)
            res = canonicalize(d)
            normal = _normal_form(d, res.iso)
            assert parse_compact(res.key) == normal
            assert render_gauss(normal, relabel=False) == canonical_key(d)

    def test_arc_round_trip(self, rng):
        for _ in range(150):
            d = random_diagram(rng)
            res = canonicalize(d)
            for comp in range(d.n_components):
                arcs = d.arc_count(comp)
                for arc in range(arcs):
                    nc, na = map_arc(res.iso, d, comp, arc)
                    assert unmap_arc(res.iso, d, nc, na) == (comp, arc)


def _pinned_corpus():
    """The corpus, 1,000 random diagrams each followed by a scrambled
    copy, and after each of these its children by every move but r2
    insertions: over 100,000 diagrams."""
    rng = random.Random(20261019)
    diagrams = [parse_gauss(text) for text in CORPUS]
    for _ in range(1000):
        d = random_diagram(rng, max_crossings=5)
        diagrams += [d, scrambled(d, rng)]
    for d in diagrams:
        yield d
        yield from (apply_move(d, m) for m in enumerate_moves(d) if m.kind != "r2_insert")


def _text(key: bytes) -> str:
    """The Gauss-code text of a compact key, as `canonical_key` writes it."""
    return render_gauss(parse_compact(key))


class TestPinnedOutputs:
    # sha256 of the text key and the winning order, canonicalize's text
    # key and its iso, on `_pinned_corpus`; captured before the encoder
    # was rewritten, so the keys, the winning component orders and the
    # isos stay as they were.
    CANONICAL_SHA256 = "13e133f54d68b346c5716864abf2b2c400b17be74e2597e640a9406c995cc542"

    def test_canonical_outputs_are_pinned(self):
        h = hashlib.sha256()
        count = 0
        for x in _pinned_corpus():
            res = canonicalize(x)
            key, order = _compact_key_and_order(x.components, x._sign_map, x.long)
            text = _text(key)
            keyed = (text, order)
            res_text = text if res.key == key else _text(res.key)
            h.update(repr((keyed, res_text, res.iso)).encode() + b"\n")
            count += 1
        assert count > 100_000
        assert h.hexdigest() == self.CANONICAL_SHA256


# 64 kinks: 64 crossings, the fewest that need the wide compact form
WIDE = "".join(f"O{i}+U{i}+" for i in range(1, 65))


class TestCompactKey:
    def test_encodes_the_normal_form_over_pinned_corpus(self):
        # The key is canonicalize's, comes with the inverse of its
        # component permutation as the order, decodes to the normal form
        # its iso builds, and two diagrams share a key exactly when they
        # share a normal form.
        key_of: dict[GaussDiagram, bytes] = {}
        normal_of: dict[bytes, GaussDiagram] = {}
        for x in _pinned_corpus():
            res = canonicalize(x)
            key, order = _compact_key_and_order(x.components, x._sign_map, x.long)
            assert key == res.key
            assert order == tuple(map(res.iso.comp_perm.index, range(x.n_components)))
            normal = _normal_form(x, res.iso)
            if key not in normal_of:
                assert parse_compact(key) == normal
            assert key_of.setdefault(normal, key) == key
            assert normal_of.setdefault(key, normal) == normal
        assert len(key_of) > 10_000

    def test_special_forms(self):
        codes = ["", "()", "();()", "L:", "L:();()"]
        keys = [compact_key(parse_gauss(code)) for code in codes]
        assert keys == [b"", b"\x00", b"\x00\x00", b"\x01\x00", b"\x01\x00\x00"]
        for code, key in zip(codes, keys):
            assert parse_compact(key) == parse_gauss(code)

    def test_wide_form(self, rng):
        # Past 63 crossings an endpoint int needs two bytes.
        narrow = compact_key(parse_gauss(WIDE.replace("O64+U64+", "")))
        assert narrow[0] >= 4 and len(narrow) == 2 * 63 + 1
        for code in (WIDE, "L:" + WIDE, WIDE + ";()", "L:();" + WIDE):
            d = parse_gauss(code)
            key = compact_key(d)
            assert key[0] == 3 and key[1] == 2 * 2 + d.long
            assert parse_compact(key) == _normal_form(d, canonicalize(d).iso)
            assert compact_key(scrambled(d, rng)) == key
        assert compact_key(parse_gauss(WIDE)) != compact_key(parse_gauss("L:" + WIDE))
        flipped = parse_gauss(WIDE.replace("O64+U64+", "O64-U64-"))
        assert compact_key(flipped) != compact_key(parse_gauss(WIDE))
