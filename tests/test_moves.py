"""Move parsing, application, enumeration, and exact inverses."""

import hashlib
import random
from collections import Counter
from itertools import combinations

import pytest

import vknots.moves
from vknots import (
    Move,
    MoveError,
    apply_move,
    apply_move_with_inverse,
    canonical_key,
    enumerate_moves,
    parse_gauss,
    parse_move,
    render_gauss,
    render_move,
)
from vknots.certificates import advance_classes, initial_classes

from .conftest import CORPUS, KISHINO, TREFOIL, random_diagram, random_walk
from .oracles import index_polynomial_oracle, odd_writhe_oracle

R_KINDS = {"r1_delete", "r1_insert", "r2_delete", "r2_insert", "r3"}
ALL = R_KINDS | {"saddle", "birth", "death"}


def _random_knot(rng, max_crossings=6):
    """A random one-component round diagram."""
    n = rng.randint(2, max_crossings)
    tokens = []
    for cid in range(1, n + 1):
        sign = rng.choice("+-")
        tokens.append(f"O{cid}{sign}")
        tokens.append(f"U{cid}{sign}")
    rng.shuffle(tokens)
    return parse_gauss("".join(tokens))


def _enumerated_by_kind() -> dict[str, list[Move]]:
    """Every move `enumerate_moves` yields on 20 seeded random diagrams,
    by kind; the seed gives each kind at least one."""
    rng = random.Random(17)
    out: dict[str, list[Move]] = {}
    for _ in range(20):
        d = random_diagram(rng)
        for m in enumerate_moves(d):
            out.setdefault(m.kind, []).append(m)
    return out


ENUMERATED = _enumerated_by_kind()


class TestMoveText:
    @pytest.mark.parametrize(
        "line",
        [
            "r1- x=3",
            "r1+ c=0 pos=2 sign=+ order=OU",
            "r2- a=1 b=2",
            "r2+ c1=0 p=1 c2=1 q=0 sign=+ order=OU",
            "r3 a=1 b=2 c=3",
            "saddle c1=0 p=3 c2=0 q=7",
            "birth",
            "death c=1",
        ],
    )
    def test_round_trip(self, line):
        assert render_move(parse_move(line)) == line
        enumerated = ENUMERATED.get(parse_move(line).kind, [])
        assert enumerated
        for m in enumerated:
            assert parse_move(render_move(m)) == m

    @pytest.mark.parametrize(
        "bad",
        [
            "r9 x=1", "r1-", "r1- x=a", "death", "r2- a=1", "saddle c1=0", "r1- kind=3",
            "r1- x=1 x=2", "r1+ c=0 pos=0 sign=+ sign=- order=OU",
            "r1- x1", "r1+ c=0 pos=0 sign=x order=OU",
            "r1- x=\u0661", "r1- x=1_0",  # a Unicode digit; int()'s digit grouping
            pytest.param(lambda: Move.of("r9"), id="Move.of(r9)"),
        ],
    )
    def test_rejects(self, bad):
        with pytest.raises(MoveError):
            bad() if callable(bad) else parse_move(bad)


class TestApply:
    def test_r1_insert_delete(self):
        d = parse_gauss("()")
        m = parse_move("r1+ c=0 pos=0 sign=+ order=OU")
        kinked, inv = apply_move_with_inverse(d, m)
        assert kinked.n_crossings == 1
        assert canonical_key(apply_move(kinked, inv)) == canonical_key(d)

    def test_r1_delete_requires_adjacent_pair(self):
        with pytest.raises(MoveError):
            apply_move(parse_gauss(TREFOIL), parse_move("r1- x=1"))

    @pytest.mark.parametrize(
        "code,move,reason",
        [
            ("O1+U1+", "r1+ c=1 pos=0 sign=+ order=OU", "no component 1"),
            ("O1+U1+", "r1+ c=0 pos=2 sign=+ order=OU", "no arc 2"),
            ("O1+U1+", "r1+ c=0 pos=0 sign=+ order=XY", "bad r1_insert"),
            ("O1+U1+", "r2+ c1=0 p=0 c2=0 q=0 sign=+ order=XY", "bad r2_insert"),
            ("O1+U1+", "r2- a=1 b=1", "two distinct"),
            # q lands between the two new over endpoints
            ("O1+U1+", "r2+ c1=0 p=0 c2=0 q=1 sign=+ order=OU", "splits the over pair"),
            ("L:O1+U1+", "r2+ c1=0 p=0 c2=0 q=1 sign=+ order=OU", "splits the over pair"),
            # a bare strand does not wrap round
            ("L:", "r2+ c1=0 p=0 c2=0 q=1 sign=+ order=OU", "splits the over pair"),
            ("O1+U1+", "r3 a=1 b=1 c=2", "three distinct"),
            # the right over/under profile, but signs no planar placement
            # realizes
            ("O1+O2-U2-U3+O4+U1+O3+U4+", "r3 a=1 b=2 c=4", "do not form an r3 triangle"),
            ("L:O1+U1+", "death c=0", "open strand"),
            ("O1+U1+", None, "unknown move kinds"),  # enumerating kind r4
            # a move built without its parameter, as no parsed move is
            pytest.param(
                "O1+U1+", Move("r1_delete"), "r1_delete move has no parameter 'x'",
                id="missing-parameter",
            ),
        ],
    )
    def test_refused(self, code, move, reason):
        d = parse_gauss(code)
        with pytest.raises(MoveError, match=reason):
            if move is None:
                list(enumerate_moves(d, kinds={"r4"}))
            else:
                apply_move(d, move if isinstance(move, Move) else parse_move(move))

    def test_r2_insert_wraps_round_a_chordless_circle(self):
        # The under pair lands right after the first over endpoint, but
        # on a circle that held no endpoints the over pair still meets
        # round the wrap.
        d = parse_gauss("()")
        result, inv = apply_move_with_inverse(
            d, parse_move("r2+ c1=0 p=0 c2=0 q=0 sign=+ order=OU")
        )
        assert render_gauss(result) == "O1+U1+U2-O2-"
        assert canonical_key(apply_move(result, inv)) == canonical_key(d)

    def test_saddle_with_strand_second(self):
        # Enumeration always names the strand first; certificate text may
        # not, and both spellings must make the same merge.
        d = parse_gauss("L:O1+U2+;U1+O2+")
        results = []
        for line in ("saddle c1=1 p=0 c2=0 q=1", "saddle c1=0 p=1 c2=1 q=0"):
            m = parse_move(line)
            merged, inv = apply_move_with_inverse(d, m)
            labels, closed = advance_classes(initial_classes(d), m, d)
            results.append((render_gauss(merged, relabel=False), render_move(inv), labels))
            assert not closed
        assert results[0] == results[1]
        assert results[0] == ("L:O1+O2+U1+U2+", "saddle c1=0 p=1 c2=0 q=3", (0,))

    def test_r2_requires_opposite_signs(self):
        # O1+U2+...U1+O2+ has same signs; no r2- applies
        d = parse_gauss("O1+O2+U1+U2+")
        assert not list(enumerate_moves(d, kinds={"r2_delete"}))

    def test_r2_insert_delete_round_trip(self):
        d = parse_gauss(TREFOIL)
        m = parse_move("r2+ c1=0 p=1 c2=0 q=4 sign=+ order=OU")
        bigger, inv = apply_move_with_inverse(d, m)
        assert bigger.n_crossings == 5
        assert canonical_key(apply_move(bigger, inv)) == canonical_key(d)

    def test_alternating_trefoil_has_no_r3(self):
        # every triangle site is mixed: no strand passes over both others
        assert not list(enumerate_moves(parse_gauss(TREFOIL), kinds={"r3"}))

    # Closure of the braid word s1 s2 s1 s2: its s1 s2 s1 prefix is the
    # textbook braid-relation triangle, so r3 on {1,2,3} must apply.
    BRAID_CLOSURE = "O1+O2+U4+U1+O3+O4+U2+U3+"

    def test_braid_relation_triangle_applies(self):
        d = parse_gauss(self.BRAID_CLOSURE)
        m = parse_move("r3 a=1 b=2 c=3")
        assert render_move(m) in {
            render_move(x) for x in enumerate_moves(d, kinds={"r3"})
        }
        after = apply_move(d, m)
        assert after.n_crossings == d.n_crossings
        assert sorted(after.crossing_ids) == sorted(d.crossing_ids)
        # r3 is an involution
        assert canonical_key(apply_move(after, m)) == canonical_key(d)

    def test_incompatible_triangles_rejected(self):
        # a triangle with the right over/under profile but signs that no
        # planar placement of three strands realizes; swapping it would
        # be a forbidden move and change the knot
        d = parse_gauss("O1+O2-U2-U3+O4+U1+O3+U4+")
        with pytest.raises(MoveError):
            apply_move(d, parse_move("r3 a=1 b=2 c=4"))
        # all-positive signs with those site orientations: also forbidden
        assert not list(
            enumerate_moves(parse_gauss("O1+O2+U3+U1+U2+O3+"), kinds={"r3"})
        )

    def test_r_moves_preserve_oracles(self, rng):
        """Every enumerated R-move keeps the odd writhe and the affine
        index polynomial of a one-component round diagram.

        Limit: an R1 kink's chord crosses no other chord, so its index
        is 0 and it is even; an r1_insert with the wrong sign or order
        passes both oracles.  TestEnumerate and TestInverses cover R1.
        Insertions, which are most of the moves, are applied on the
        first 40 diagrams only, to keep the test short."""
        diagrams = [parse_gauss(text) for text in CORPUS]
        diagrams = [d for d in diagrams if not d.long and d.n_components == 1]
        diagrams += [_random_knot(rng) for _ in range(150)]
        applied = Counter()
        for n, d in enumerate(diagrams):
            kinds = R_KINDS if n < 40 else {"r1_delete", "r2_delete", "r3"}
            text = render_gauss(d)
            before = (odd_writhe_oracle(text), index_polynomial_oracle(text))
            for m in enumerate_moves(d, kinds=kinds):
                after = render_gauss(apply_move(d, m))
                oracles = (odd_writhe_oracle(after), index_polynomial_oracle(after))
                assert oracles == before, (text, render_move(m))
                applied[m.kind] += 1
        assert set(applied) == R_KINDS
        assert applied["r3"] > 20

    def test_reidemeister_walks_preserve_odd_writhe(self, rng):
        for _ in range(60):
            d = _random_knot(rng)
            diagrams, _, _ = random_walk(d, rng, 6, R_KINDS, max_crossings=8)
            values = {odd_writhe_oracle(render_gauss(x)) for x in diagrams}
            assert len(values) == 1, [render_gauss(x) for x in diagrams]

    def test_birth_death(self):
        d = parse_gauss(TREFOIL)
        born = apply_move(d, parse_move("birth"))
        assert born.n_components == 2
        back = apply_move(born, parse_move("death c=1"))
        assert canonical_key(back) == canonical_key(d)

    def test_death_needs_chordless(self):
        d = parse_gauss("O1+U1+;()")
        with pytest.raises(MoveError):
            apply_move(d, parse_move("death c=0"))
        assert apply_move(d, parse_move("death c=1")).n_components == 1

    def test_saddle_split_then_merge(self):
        d = parse_gauss(KISHINO)
        split = apply_move(d, parse_move("saddle c1=0 p=3 c2=0 q=7"))
        assert split.n_components == 2

    def test_saddle_merge_reduces_components(self):
        d = parse_gauss("O1+U1+;()")
        merged = apply_move(d, parse_move("saddle c1=0 p=0 c2=1 q=0"))
        assert merged.n_components == 1


class TestEnumerate:
    def test_enumerated_moves_apply(self, rng):
        for _ in range(40):
            d = random_diagram(rng, max_crossings=4)
            for m in enumerate_moves(d, kinds=ALL):
                apply_move(d, m)  # must not raise

    def test_deterministic_order(self, rng):
        for _ in range(20):
            d = random_diagram(rng, max_crossings=4)
            a = [render_move(m) for m in enumerate_moves(d, kinds=ALL)]
            b = [render_move(m) for m in enumerate_moves(d, kinds=ALL)]
            assert a == b

    @pytest.mark.parametrize("kind", ["r1_delete", "r2_delete", "r3"])
    def test_enumeration_is_what_applies(self, kind, rng):
        """`enumerate_moves` yields exactly the moves of a kind that
        `apply_move` accepts among all those naming the diagram's
        crossings in increasing id order: r1- and r2- in that order, r3
        as a set."""
        diagrams = [parse_gauss(text) for text in CORPUS]
        diagrams += [random_diagram(rng, max_crossings=6) for _ in range(400)]
        names = {"r1_delete": "x", "r2_delete": "ab", "r3": "abc"}[kind]
        total = 0
        for d in diagrams:
            accepted = []
            for ids in combinations(d.crossing_ids, len(names)):
                m = Move.of(kind, **dict(zip(names, ids)))
                try:
                    apply_move(d, m)
                except MoveError:
                    continue
                accepted.append(m)
            enumerated = enumerate_moves(d, kinds={kind})
            if kind == "r3":
                assert set(enumerated) == set(accepted), render_gauss(d)
            else:
                assert enumerated == accepted, render_gauss(d)
            total += len(accepted)
        assert total >= 40

    def test_unknot_has_no_deletions(self):
        d = parse_gauss("()")
        assert not list(enumerate_moves(d, kinds={"r1_delete", "r2_delete", "r3"}))


class TestInverses:
    def test_inverse_fuzz(self):
        rng = random.Random(2718)
        seeds = ["()", "L:", TREFOIL, KISHINO, "O1+U2+;U1+O2+", "L:O1+U2-U1+O2-"]
        for _ in range(250):
            d = parse_gauss(rng.choice(seeds))
            diagrams, moves, inverses = random_walk(d, rng, 5, ALL, max_crossings=7)
            for before, m, inv, after in zip(
                diagrams, moves, inverses, diagrams[1:]
            ):
                undone = apply_move(after, inv)
                assert canonical_key(undone) == canonical_key(before), (
                    render_gauss(before),
                    render_move(m),
                    render_move(inv),
                )

    def test_inverse_kind_pairing(self, rng):
        pairs = {
            "r1_insert": "r1_delete",
            "r1_delete": "r1_insert",
            "r2_insert": "r2_delete",
            "r2_delete": "r2_insert",
            "r3": "r3",
            "birth": "death",
            "death": "birth",
            "saddle": "saddle",
        }
        for _ in range(40):
            d = random_diagram(rng, max_crossings=4)
            for m in enumerate_moves(d, kinds=ALL):
                _, inv = apply_move_with_inverse(d, m)
                assert inv.kind == pairs[m.kind]

    def test_only_apply_move_with_inverse_builds_the_inverse(self, monkeypatch):
        # The handlers return the inverse's kind and parameters; apply_move
        # builds no `Move` from them, apply_move_with_inverse exactly one.
        built = 0
        check = Move.__post_init__

        def counted(self):
            nonlocal built
            built += 1
            check(self)

        codes = [*CORPUS, TestApply.BRAID_CLOSURE]
        moves = [(d, m) for d in map(parse_gauss, codes) for m in enumerate_moves(d)]
        assert {m.kind for _, m in moves} == ALL
        monkeypatch.setattr(Move, "__post_init__", counted)
        for d, m in moves:
            built = 0
            apply_move(d, m)
            assert built == 0, render_move(m)
            apply_move_with_inverse(d, m)
            assert built == 1, render_move(m)


class TestSiteTables:
    SITE_KINDS = {"r1_delete", "r2_delete", "r3"}

    def test_text_moves_list_sites_only_when_they_need_them(self, monkeypatch):
        # A move parsed from text has no tables to reuse: an r1-, r2- or
        # r3 applier builds them once, and no other applier builds any.
        # No CORPUS diagram has an r3 triangle; the braid closure does.
        built = 0
        sites = vknots.moves._sites

        def counted(d):
            nonlocal built
            built += 1
            return sites(d)

        monkeypatch.setattr(vknots.moves, "_sites", counted)
        applied = set()
        for d in map(parse_gauss, [*CORPUS, TestApply.BRAID_CLOSURE]):
            for line in map(render_move, enumerate_moves(d)):
                m = parse_move(line)
                built = 0
                apply_move(d, m)
                assert built == (1 if m.kind in self.SITE_KINDS else 0), line
                applied.add(m.kind)
        assert applied == ALL


class TestPinnedOutputs:
    # sha256 of every enumerated move, its result (own crossing labels)
    # and its inverse, in enumeration order, on the diagrams below.
    # Searches expand children exactly as built, so their pinned counters
    # depend on these exact lists, not only on the results' classes.
    APPLIER_SHA256 = "ad792a09c20eefe0a86dce9a2c8f9d2e110f1f5a1ed6d20d61c5c4f1063f1631"

    def test_applier_outputs_are_pinned(self):
        rng = random.Random(20261018)
        diagrams = [parse_gauss(text) for text in CORPUS]
        diagrams += [random_diagram(rng, max_crossings=5) for _ in range(150)]
        h = hashlib.sha256()
        kinds = set()
        for d in diagrams:
            for m in enumerate_moves(d):
                result, inv = apply_move_with_inverse(d, m)
                line = "|".join(
                    (render_move(m), render_gauss(result, relabel=False), render_move(inv))
                )
                h.update(line.encode() + b"\n")
                kinds.add(m.kind)
        assert kinds == ALL
        assert h.hexdigest() == self.APPLIER_SHA256
