"""Budgeted search: slice, equivalence, reduce."""

import tracemalloc

import pytest

import vknots.moves
import vknots.search
from vknots import (
    DiagramError,
    GaussDiagram,
    SearchBudget,
    canonical_key,
    carter_genus,
    closure,
    connected_sum,
    inverse,
    parse_gauss,
    reduce_diagram,
    render_certificate,
    search_equivalent,
    search_slice,
    validate_certificate,
)

from .conftest import KISHINO, TREFOIL, VIRTUAL_TREFOIL, random_walk
from .oracles import assert_ends_agree

# A six-crossing diagram of the unknot that R-moves take to "()"
SIX_CROSSING_UNKNOT = "O1+U1+O2-O3+O4+U5-U6+O5-O6+U2-U3+U4+"
UNKNOT_BUDGET = SearchBudget(
    max_crossings=6, max_components=1, max_nodes=3000, max_depth=12
)

KISHINO_BUDGET = SearchBudget(
    max_crossings=8,
    max_components=3,
    max_saddles=1,
    max_births=0,
    max_deaths=1,
    max_nodes=100_000,
    max_depth=14,
)


class TestBudget:
    def test_validation(self):
        with pytest.raises(ValueError):
            SearchBudget(max_crossings=-1)

    def test_small_preset(self):
        b = SearchBudget.small()
        assert b.max_crossings == 6


class TestSearchSlice:
    def test_unknot_is_trivially_slice(self):
        out = search_slice(parse_gauss("()"), SearchBudget.small())
        assert out.status == "found"
        assert out.certificate.steps == ()

    def test_kink_unknots_without_cobordism(self):
        out = search_slice(parse_gauss("O1+U1+"), SearchBudget.small())
        assert out.status == "found"
        assert out.certificate.counters() == (0, 0, 0)
        assert validate_certificate(out.certificate, "concordance").ok

    def test_kishino_found_and_validates(self):
        out = search_slice(parse_gauss(KISHINO), KISHINO_BUDGET)
        assert out.status == "found"
        s, b, d = out.certificate.counters()
        assert (s, d) == (1, 1)
        assert validate_certificate(out.certificate, "concordance").ok

    def test_no_cobordism_budget_means_exhausted(self):
        out = search_slice(
            parse_gauss(VIRTUAL_TREFOIL),
            SearchBudget(max_crossings=4, max_components=2, max_nodes=10_000,
                         max_depth=8),
        )
        assert out.status == "exhausted"
        assert out.certificate is None

    def test_budget_hit_reported(self):
        out = search_slice(
            parse_gauss(KISHINO),
            SearchBudget(max_crossings=8, max_components=3, max_saddles=1,
                         max_deaths=1, max_nodes=5, max_depth=14),
        )
        assert out.status == "budget-hit"

    def test_requires_round_knot(self):
        with pytest.raises(DiagramError):
            search_slice(parse_gauss("L:"), SearchBudget.small())
        with pytest.raises(DiagramError):
            search_slice(parse_gauss("();()"), SearchBudget.small())

    def test_record_format(self):
        out = search_slice(parse_gauss("()"), SearchBudget.small())
        assert out.record() == f"status=found nodes=0 dedup=0 ms={out.ms}"


class TestSearchEquivalent:
    def test_same_key_is_trivial(self):
        a = parse_gauss(TREFOIL)
        out = search_equivalent(a, a, SearchBudget.small())
        assert out.status == "found"
        assert out.certificate.steps == ()

    def test_kink_to_unknot(self):
        out = search_equivalent(
            parse_gauss("O1+U1+"), parse_gauss("()"), SearchBudget.small()
        )
        assert out.status == "found"
        cert = out.certificate
        assert cert.counters() == (0, 0, 0)
        assert validate_certificate(cert, "concordance").ok

    def test_walked_diagram_reaches_origin(self, rng):
        for _ in range(5):
            diagrams, _, _ = random_walk(
                parse_gauss(VIRTUAL_TREFOIL), rng, 2, {"r1_insert", "r2_insert"}, 6
            )
            out = search_equivalent(
                diagrams[-1], parse_gauss(VIRTUAL_TREFOIL), SearchBudget.small()
            )
            assert out.status == "found"
            cert = out.certificate
            assert canonical_key(cert.start) == canonical_key(diagrams[-1])
            assert validate_certificate(cert, "concordance").ok

    def test_distinct_knots_exhaust_small_budget(self):
        out = search_equivalent(
            parse_gauss(VIRTUAL_TREFOIL),
            parse_gauss("()"),
            SearchBudget(max_crossings=4, max_components=2, max_nodes=10_000,
                         max_depth=8),
        )
        assert (out.status, out.nodes, out.dedup) == ("exhausted", 1888, 6854)

    @pytest.mark.parametrize(
        "max_nodes,nodes,dedup", [(50, 2, 6), (500, 14, 160)]
    )
    def test_budget_hit_once_frontiers_outnumber_allowance(
        self, max_nodes, nodes, dedup
    ):
        # Both frontiers together outnumber the nodes left at the start
        # of a round, so the run can no longer end in "exhausted".
        out = search_equivalent(
            parse_gauss(VIRTUAL_TREFOIL),
            parse_gauss("()"),
            SearchBudget(max_crossings=4, max_components=2, max_nodes=max_nodes,
                         max_depth=8),
        )
        assert (out.status, out.nodes, out.dedup) == ("budget-hit", nodes, dedup)
        assert out.certificate is None

    def test_splice_reverses_a_multi_step_half(self):
        # The halves meet after 4 moves from a and 3 from b, so b's half
        # is reversed through several inverses, same-component r2+
        # included, before the joined line is translated onto a.
        out = search_equivalent(
            parse_gauss("O1+U1+O2-U3+O3+U4+U2-O4+"),
            parse_gauss(SIX_CROSSING_UNKNOT),
            UNKNOT_BUDGET,
        )
        assert out.status == "found"
        assert validate_certificate(out.certificate, "concordance").ok
        assert_ends_agree(render_certificate(out.certificate))

    def test_long_round_mismatch(self):
        with pytest.raises(DiagramError):
            search_equivalent(
                parse_gauss("L:"), parse_gauss("()"), SearchBudget.small()
            )

    def test_component_count_mismatch(self):
        # R-moves never change the number of components.
        with pytest.raises(DiagramError, match="components"):
            search_equivalent(
                parse_gauss("O1+U1+;()"), parse_gauss("()"), SearchBudget.small()
            )


class TestReduce:
    def test_reduces_kinked_unknot(self):
        d = parse_gauss("O1+U1+O2-U2-")
        best, genus = reduce_diagram(d, SearchBudget.small())
        assert best.n_crossings == 0
        assert genus == 0

    def test_kishino_stays_put_under_r_moves(self):
        best, genus = reduce_diagram(
            parse_gauss(KISHINO),
            SearchBudget(max_crossings=5, max_components=2, max_nodes=500,
                         max_depth=4),
        )
        assert best.n_crossings == 4
        assert genus == carter_genus(parse_gauss(KISHINO))

    def test_requires_round(self):
        with pytest.raises(DiagramError):
            reduce_diagram(parse_gauss("L:"), SearchBudget.small())

    @pytest.mark.parametrize("code", ["()", "();()"])
    def test_rank_zero_input_returns_at_once(self, code, monkeypatch):
        # Nothing ranks below (0 crossings, genus 0), so no move is
        # enumerated, even under the default 100,000-node budget.
        def refuse(*args, **kwargs):
            raise AssertionError("reduce_diagram expanded a rank-(0, 0) input")

        monkeypatch.setattr(vknots.search, "enumerate_moves", refuse)
        d = parse_gauss(code)
        assert reduce_diagram(d, SearchBudget()) == (d, 0)


class TestCaches:
    def test_searches_leave_canonical_key_cache_small(self):
        # Children are keyed uncached; only roots, goals and the keys a
        # found certificate's translation compares reach the cache.
        canonical_key.cache_clear()
        search_slice(parse_gauss(KISHINO), KISHINO_BUDGET)
        search_equivalent(
            parse_gauss("O1+U1+O2-U2-"), parse_gauss("()"), SearchBudget.small()
        )
        reduce_diagram(
            parse_gauss(KISHINO),
            SearchBudget(max_crossings=5, max_components=2, max_nodes=500,
                         max_depth=4),
        )
        assert canonical_key.cache_info().currsize <= 64


def _counters(out):
    return out.status, out.nodes, out.dedup


class TestChildKeying:
    @pytest.mark.parametrize(
        "search,expected,bound",
        [
            # about 19,600 when every child was built
            (lambda: _counters(search_slice(parse_gauss(KISHINO), KISHINO_BUDGET)),
             ("found", 41, 1976), 200),
            # 330 when every admitted child was built
            (lambda: _counters(search_equivalent(
                parse_gauss(SIX_CROSSING_UNKNOT), parse_gauss("()"), UNKNOT_BUDGET
            )), ("found", 4, 16), 40),
            # 360 when every admitted child was built
            (lambda: reduce_diagram(parse_gauss(SIX_CROSSING_UNKNOT), UNKNOT_BUDGET),
             (parse_gauss("()"), 0), 40),
        ],
        ids=["slice", "equivalent", "reduce"],
    )
    def test_search_builds_no_child_diagram(
        self, search, expected, bound, monkeypatch
    ):
        # Children are checked and keyed from the applier core's endpoint
        # lists; diagrams are built for the root, each popped state, the
        # found chain and a reduction's best candidates only.
        built = 0
        check = GaussDiagram.__post_init__

        def counted(self):
            nonlocal built
            built += 1
            check(self)

        monkeypatch.setattr(GaussDiagram, "__post_init__", counted)
        assert search() == expected
        assert built <= bound

    def test_child_endpoints_are_checked(self, monkeypatch):
        kink = vknots.moves._HANDLERS["r1_insert"]

        def drop_endpoint(d, m, comps, signs):
            inv = kink(d, m, comps, signs)
            comps[m["c"]].pop()
            return inv

        monkeypatch.setitem(vknots.moves._HANDLERS, "r1_insert", drop_endpoint)
        with pytest.raises(DiagramError):
            search_slice(parse_gauss(KISHINO), KISHINO_BUDGET)


class TestDeterminism:
    def test_equivalence_repeats_identically(self):
        a, b = parse_gauss("O1+U1+O2-U2-"), parse_gauss("()")
        first, again = (
            search_equivalent(a, b, SearchBudget.small()) for _ in range(2)
        )
        assert first.status == "found"
        assert (first.nodes, first.dedup) == (again.nodes, again.dedup)
        assert first.certificate == again.certificate
        assert validate_certificate(first.certificate, "concordance").ok


def _ribbon_sum():
    k = parse_gauss("L:O1+U2+U1+O2+")
    return search_slice(
        closure(connected_sum(k, inverse(k))),
        SearchBudget(max_crossings=4, max_saddles=1, max_deaths=1,
                     max_nodes=20_000),
    )


class TestGoldenCertificates:
    """Certificates rebuilt from the parent pointers, pinned as text.

    The texts were captured when parent pointers still held the `Move`
    itself; rebuilding each move from its enumeration index must give
    them back byte for byte."""

    CASES = {
        "kishino": (
            lambda: search_slice(parse_gauss(KISHINO), KISHINO_BUDGET),
            (41, 1976),
            "start: O1+U2-U1+O2-U3-O4+O3-U4+\n"
            "saddle c1=0 p=3 c2=0 q=7\n"
            "r2- a=2 b=1\n"
            "r2- a=3 b=4\n"
            "death c=0\n"
            "end: ()\n",
        ),
        "ribbon-sum": (
            _ribbon_sum,
            (19, 53),
            "start: O1+U2+U1+O2+O3-U4-U3-O4-\n"
            "saddle c1=0 p=0 c2=0 q=6\n"
            "r2- a=3 b=2\n"
            "r2- a=4 b=1\n"
            "death c=0\n"
            "end: ()\n",
        ),
        "equivalent": (
            lambda: search_equivalent(
                parse_gauss("O1+U1+O2-U2-"), parse_gauss("()"),
                SearchBudget.small(),
            ),
            (2, 6),
            "start: O1+U1+O2-U2-\n"
            "r1- x=2\n"
            "r1- x=1\n"
            "end: ()\n",
        ),
    }

    @pytest.mark.parametrize("name", CASES)
    def test_certificate_text(self, name):
        search, counters, text = self.CASES[name]
        out = search()
        assert (out.status, out.nodes, out.dedup) == ("found", *counters)
        assert render_certificate(out.certificate) == text
        assert validate_certificate(out.certificate, "concordance").ok
        assert_ends_agree(text)


class TestMemory:
    def test_trefoil_probe_peak_stays_small(self):
        # The bound sits between the 5.89 MB this run peaks at when each
        # parent pointer holds a `Move` and the 2.5 MB it peaks at when
        # the pointer holds the move's enumeration index.
        budget = SearchBudget(
            max_crossings=7, max_components=4, max_saddles=2, max_births=2,
            max_deaths=2, max_nodes=5_000, max_depth=1_000_000,
        )
        knot = parse_gauss(TREFOIL)
        tracemalloc.start()
        try:
            out = search_slice(knot, budget)
            peak = tracemalloc.get_traced_memory()[1]
        finally:
            tracemalloc.stop()
        assert (out.status, out.nodes, out.dedup) == ("budget-hit", 24, 884)
        assert peak < 4_000_000
