"""Parsing, rendering, and the basic diagram operations."""

import pytest

from vknots import (
    DiagramError,
    GaussDiagram,
    closure,
    connected_sum,
    cut,
    canonical_key,
    carter_report,
    inverse,
    mirror,
    parse_gauss,
    render_gauss,
    reverse,
)
from vknots.diagram import OVER, arc_of_slot, n_arcs, slot_of_arc
from vknots.moves import Move, apply_move

from .conftest import CORPUS, KISHINO, TREFOIL, VIRTUAL_TREFOIL, random_diagram


class TestParseRender:
    @pytest.mark.parametrize("code", CORPUS)
    def test_round_trip(self, code):
        d = parse_gauss(code)
        assert parse_gauss(render_gauss(d)) == d

    def test_whitespace_ignored(self):
        assert parse_gauss(" O1+ U1+ ") == parse_gauss("O1+U1+")

    def test_empty_is_empty_link(self):
        d = parse_gauss("")
        assert d.n_components == 0
        assert not d.long
        assert render_gauss(d) == ""

    def test_long_unknot(self):
        d = parse_gauss("L:")
        assert d.long
        assert d.n_components == 1
        assert d.n_crossings == 0
        assert render_gauss(d) == "L:"

    def test_chordless_circle(self):
        d = parse_gauss("()")
        assert d.n_components == 1
        assert d.n_crossings == 0

    @pytest.mark.parametrize(
        "bad",
        [
            "O1+",                  # dangling crossing
            "O1+O1+",               # two overs
            "O1+U1-",               # sign mismatch
            "O1+U1+;",              # empty trailing component
            "X1+U1+",               # bad role letter
            "O1U1",                 # missing signs
            "O1+U1+ O2+",           # dangling second crossing
            "O1+O1+O1+O1+O1+",      # five overs tally like one over, one under
            "O1+U1+O2+O2+O2+O2+O2+",
            "O\u0661+U\u0661+",       # Arabic-Indic digit one, not ASCII
        ],
    )
    def test_rejects(self, bad):
        # grammar and invariant errors alike name the code they are in
        with pytest.raises(DiagramError, match=r"^invalid Gauss code "):
            parse_gauss(bad)

    def test_stats(self):
        d = parse_gauss(KISHINO)
        assert (d.n_crossings, d.n_components) == (4, 1)
        assert d.writhe == 0
        assert parse_gauss(TREFOIL).writhe == 3


class TestOperations:
    def test_reverse_involution(self):
        for code in CORPUS:
            d = parse_gauss(code)
            assert reverse(reverse(d)) == d

    def test_mirror_involution(self):
        for code in CORPUS:
            d = parse_gauss(code)
            assert mirror(mirror(d, "switch"), "switch") == d
            if d.long:  # reflect mirrors across the strand axis
                assert mirror(mirror(d, "reflect"), "reflect") == d

    def test_mirror_reflect_needs_long(self):
        with pytest.raises(DiagramError):
            mirror(parse_gauss("O1+U1+"), "reflect")

    def test_mirror_switch_flips_roles_and_signs(self):
        d = parse_gauss("O1+U1+")
        assert render_gauss(mirror(d, "switch")) == "U1-O1-"

    def test_inverse_involution_long(self):
        for code in ("L:", "L:O1+U1+", "L:" + KISHINO):
            d = parse_gauss(code)
            assert canonical_key(inverse(inverse(d))) == canonical_key(d)

    def test_inverse_needs_long(self):
        with pytest.raises(DiagramError):
            inverse(parse_gauss("O1+U1+"))

    def test_connected_sum_identity(self):
        e = parse_gauss("L:")
        k = parse_gauss("L:" + VIRTUAL_TREFOIL)
        assert canonical_key(connected_sum(e, k)) == canonical_key(k)
        assert canonical_key(connected_sum(k, e)) == canonical_key(k)

    def test_connected_sum_associative(self):
        a = parse_gauss("L:O1+U1+")
        b = parse_gauss("L:" + VIRTUAL_TREFOIL)
        c = parse_gauss("L:" + KISHINO)
        lhs = connected_sum(connected_sum(a, b), c)
        rhs = connected_sum(a, connected_sum(b, c))
        assert canonical_key(lhs) == canonical_key(rhs)

    def test_connected_sum_needs_long(self):
        with pytest.raises(DiagramError):
            connected_sum(parse_gauss("O1+U1+"), parse_gauss("L:"))

    def test_closure_drops_long(self):
        k = parse_gauss("L:" + KISHINO)
        c = closure(k)
        assert not c.long
        assert c.n_crossings == k.n_crossings
        assert canonical_key(c) == canonical_key(parse_gauss(KISHINO))

    def test_cut_then_close(self, rng):
        for _ in range(50):
            d = random_diagram(rng)
            if d.long or d.n_components == 0:
                continue
            comp = rng.randrange(d.n_components)
            arcs = max(1, len(d.components[comp]))
            arc = rng.randrange(arcs)
            opened = cut(d, comp, arc)
            assert opened.long
            assert canonical_key(closure(opened)) == canonical_key(d)

    def test_cut_out_of_range(self):
        with pytest.raises(DiagramError):
            cut(parse_gauss("O1+U1+"), 0, 5)
        with pytest.raises(DiagramError):
            cut(parse_gauss("O1+U1+"), 1, 0)

    @pytest.mark.parametrize(
        "refused,reason",
        [
            (lambda: GaussDiagram((((1, 0), (1, 1)),), ((1, 2),), False),
             "has sign 2"),
            (lambda: GaussDiagram(
                (((1, 0), (2, 0), (1, 1), (2, 1)),), ((2, 1), (1, 1)), False
            ), "not sorted"),
            (lambda: GaussDiagram((((1, 0), (1, 1)),), ((1, 1), (2, 1)), False),
             "do not match sign table"),
            (lambda: GaussDiagram((((1, 0), (1, 3)),), ((1, 1),), False),
             "bad role 3"),
            (lambda: GaussDiagram((), (), True), "must have an open strand"),
            (lambda: mirror(parse_gauss("O1+U1+"), "flip"), "unknown mirror mode"),
            (lambda: closure(parse_gauss("O1+U1+")), "requires a long"),
            (lambda: cut(parse_gauss("L:O1+U1+"), 0, 0), "requires a round"),
            (lambda: carter_report(parse_gauss("L:O1+U1+")), "needs a round"),
        ],
        ids=["sign", "unsorted", "missing-crossing", "role", "long-no-strand",
             "mirror-mode", "closure-round", "cut-long", "carter-long"],
    )
    def test_refused(self, refused, reason):
        with pytest.raises(DiagramError, match=reason):
            refused()


class TestArcModel:
    """The arc and insertion-slot rules, on every component of the
    corpus and of 200 random diagrams."""

    @staticmethod
    def components(rng):
        diagrams = [parse_gauss(code) for code in CORPUS]
        diagrams += [random_diagram(rng) for _ in range(200)]
        for d in diagrams:
            for c in range(d.n_components):
                yield d, c, len(d.components[c]), d.cyclic(c)

    def test_arc_count(self, rng):
        for d, c, k, cyclic in self.components(rng):
            assert n_arcs(k, cyclic) == d.arc_count(c)
            assert cyclic == (not d.long or c != 0)

    def test_slot_round_trip(self, rng):
        for d, c, k, cyclic in self.components(rng):
            for arc in range(d.arc_count(c)):
                assert arc_of_slot(k, cyclic, slot_of_arc(k, cyclic, arc)) == arc

    def test_kink_lands_at_slot(self, rng):
        for d, c, k, cyclic in self.components(rng):
            for arc in range(d.arc_count(c)):
                m = Move.of("r1_insert", c=c, pos=arc, sign=1, order="OU")
                new_id = max(d.crossing_ids, default=0) + 1
                comp = apply_move(d, m).components[c]
                assert comp.index((new_id, OVER)) == slot_of_arc(k, cyclic, arc)
