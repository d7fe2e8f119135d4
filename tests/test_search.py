"""Budgeted search: slice, equivalence, reduce."""

import heapq
import itertools
import tracemalloc
from dataclasses import replace

import pytest

import vknots.canonical
import vknots.moves
import vknots.search
from vknots import (
    CertificateError,
    DiagramError,
    GaussDiagram,
    Move,
    SearchBudget,
    apply_move,
    canonical_key,
    carter_genus,
    closure,
    connected_sum,
    enumerate_moves,
    inverse,
    parse_gauss,
    reduce_diagram,
    render_certificate,
    search_equivalent,
    search_slice,
    validate_certificate,
)
from vknots.canonical import compact_key, parse_compact

from .conftest import KISHINO, TREFOIL, VIRTUAL_TREFOIL, random_walk, scrambled
from .oracles import assert_ends_agree
from .reference_search import reference_distances, reference_slice_states

# A six-crossing diagram of the unknot that R-moves take to "()"
SIX_CROSSING_UNKNOT = "O1+U1+O2-O3+O4+U5-U6+O5-O6+U2-U3+U4+"
UNKNOT_BUDGET = SearchBudget(
    max_crossings=6, max_components=1, max_nodes=3000, max_depth=12
)

# Run against "()" under this budget, this knot's equivalence search
# pops states of all three size classes before it ends budget-hit.
FOUR_CROSSING_KNOT = "O1+U2-U1+O2-U3+O4+O3+U4+"
FIVE_CROSSING_BUDGET = SearchBudget(
    max_crossings=5, max_components=1, max_nodes=3000, max_depth=12
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
        # Two keys first admitted through a long path are admitted again
        # when a shorter path reaches them, so each is popped twice.  A
        # state expanded by size class is popped once per class that fits
        # the crossing cap (1,890 nodes when each was expanded whole).
        out = search_equivalent(
            parse_gauss(VIRTUAL_TREFOIL),
            parse_gauss("()"),
            SearchBudget(max_crossings=4, max_components=2, max_nodes=10_000,
                         max_depth=8),
        )
        assert (out.status, out.nodes, out.dedup) == ("exhausted", 2042, 6858)

    @pytest.mark.parametrize(
        "max_nodes,nodes,dedup", [(50, 20, 25), (500, 78, 387)]
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
        # The halves meet after 3 moves from a and 4 from b, so b's half
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

    def test_halves_meet_at_the_other_root(self):
        # a's first child is b's root, before b's side pops anything, so
        # b's half of the chain is empty.
        a, b = parse_gauss("O1+U1+"), parse_gauss("()")
        out = search_equivalent(a, b, SearchBudget.small())
        assert (out.status, out.nodes, out.dedup) == ("found", 1, 0)
        text = render_certificate(out.certificate)
        assert text == "start: O1+U1+\nr1- x=1\nend: ()\n"
        assert validate_certificate(out.certificate, "concordance").ok

    @pytest.mark.parametrize(
        "a,b,budget,steps",
        [("()", "O1+U1+O2-U2-", SearchBudget.small(), (1, 1)),
         ("O1+O2-O3+O4-U4-U5-O5-U3+U1+U2-", SIX_CROSSING_UNKNOT, UNKNOT_BUDGET,
          (3, 3))],
        ids=["kinks", "six-crossing"],
    )
    def test_halves_meet_at_a_queued_state(self, a, b, budget, steps, monkeypatch):
        # The meeting state was admitted on the other side but never
        # popped, so it has no parent record there: its chain is rebuilt
        # from the (parent, index) of its admission.  In "kinks" a's
        # root has no moves of the first size class, so a's half is an
        # r1 insertion from the root popped again for the next class.
        popped = set()
        states = vknots.search._BestFirst.states

        def spy(run, *args, **kw):
            for side, entry, diag in states(run, *args, **kw):
                popped.add(entry.key)
                yield side, entry, diag

        lines = []
        splice = vknots.search._splice

        def spy_splice(a, line_a, line_b, b):
            lines.append((line_a, line_b))
            return splice(a, line_a, line_b, b)

        monkeypatch.setattr(vknots.search._BestFirst, "states", spy)
        monkeypatch.setattr(vknots.search, "_splice", spy_splice)
        out = search_equivalent(parse_gauss(a), parse_gauss(b), budget)
        assert out.status == "found"
        [((refs_a, steps_a), (refs_b, steps_b))] = lines
        assert (len(steps_a), len(steps_b)) == steps
        assert compact_key(refs_a[-1]) not in popped
        assert validate_certificate(out.certificate, "concordance").ok
        assert_ends_agree(render_certificate(out.certificate))

    def test_chain_runs_through_a_state_popped_again(self, monkeypatch):
        # a's half deletes a kink, then makes an r1 insertion in the state
        # it reached, popped again for its r1 insertions after its moves
        # of the first size class.  The re-queued entry carries that
        # state's own (parent seq, move index), so the chain runs through
        # the second pop back to a's root, and the insertion is numbered
        # in the whole enumeration, past the first class, which `line`
        # replays.
        size_class = {}  # popped seq -> the size class that pop expanded
        states = vknots.search._BestFirst.states

        def spy(run, *args, **kw):
            for side, entry, diag in states(run, *args, **kw):
                size_class[entry.seq] = entry.cls
                yield side, entry, diag

        lines = {}
        line = vknots.search._BestFirst.line

        def spy_line(run, side, chain):
            refs, steps = line(run, side, chain)
            lines[side] = (chain, refs, steps)
            return refs, steps

        monkeypatch.setattr(vknots.search._BestFirst, "states", spy)
        monkeypatch.setattr(vknots.search._BestFirst, "line", spy_line)
        out = search_equivalent(
            parse_gauss("L:O1+U2-O2-O3+O4+U3+U4+U1+"),
            parse_gauss("L:O1+O2+O3+U4+U5-O5-O6-U6-O4+U2+U3+O7+U7+U1+"),
            SearchBudget.small(),
        )
        assert _counters(out) == ("found", 7, 2)
        chain, refs, steps = lines[0]
        assert [size_class[parent] for parent, _, _ in chain] == [0, 1]
        assert [m.kind for m in steps] == ["r1_delete", "r1_insert"]
        first_class = vknots.search._SIZE_CLASSES[0][0]
        assert chain[1][1] >= len(list(enumerate_moves(refs[1], kinds=first_class))) > 0
        assert compact_key(apply_move(refs[1], steps[1])) == chain[1][2]
        assert validate_certificate(out.certificate, "concordance").ok

    @pytest.mark.xfail(
        strict=True, raises=CertificateError,
        reason="an r3 move names three crossings, not which of their triangles",
    )
    def test_r3_on_a_doubly_triangled_knot(self):
        # The six sites of a run round its six endpoints, and two
        # disjoint triples of them are legal triangles on crossings 1, 2,
        # 3: over site 0, mixed site 2 and under site 4, and over site 1,
        # mixed site 5 and under site 3.  An r3 keeps only the first, so
        # the step pulled back onto a, named by the same ids, can slide
        # a triangle other than the reference step's and misses its key.
        a = parse_gauss("O1+O2-O3+U1+U2-U3+")
        sites = vknots.moves._SiteTables(a).sites()
        for triple in ((0, 2, 4), (1, 5, 3)):
            over, mixed, under = (sites[i] for i in triple)
            assert vknots.moves._sites_disjoint((over, mixed, under))
            assert vknots.moves._r3_legal(a, over, mixed, under)
        out = search_equivalent(
            a, parse_gauss("O1+U2+O2+O3-U3-U1+"), SearchBudget.small()
        )
        assert out.status == "found"
        assert validate_certificate(out.certificate, "concordance").ok

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

    def test_stops_at_max_nodes(self, monkeypatch):
        # The reduction runs without the overfull stop, so only the node
        # cap ends it early; uncapped it runs on past 17,000 states.  Each
        # popped state is built from its key once.
        popped = 0
        parse = vknots.search.parse_compact

        def counted(key):
            nonlocal popped
            popped += 1
            assert popped <= 5, "popped a state past max_nodes"
            return parse(key)

        monkeypatch.setattr(vknots.search, "parse_compact", counted)
        budget = SearchBudget(max_crossings=8, max_components=1, max_nodes=5, max_depth=12)
        reduce_diagram(parse_gauss(KISHINO), budget)
        assert popped == 5

    @pytest.mark.parametrize(
        "code,ranks",
        [("U1+U2+O3+O1+U4+O4+U5+U3+O2+U6-O6-O5+U7+O7+",
          [(6, 0), (5, 0), (4, 0), (4, 0), (3, 0), (3, 0)]),
         ("O1+O2+U3-U2+U4+O3-U1+O5-U6+O6+U5-U7+O7+O4+",
          [(6, 1), (5, 1), (4, 1), (4, 1), (2, 1), (2, 1)])],
        ids=["trefoil", "virtual-trefoil"],
    )
    def test_node_limited_knot_reduction(self, code, ranks):
        # Seven-crossing diagrams of the trefoil and the virtual trefoil,
        # dressed by a random walk of R-moves.  A knot never reaches the
        # unknot, so max_nodes alone ends its reduction, and the re-pops
        # of the expansion by size class count as nodes.  Best rank and
        # genus bound at max_nodes = 1..6, the same as when each state
        # was expanded whole.
        d = parse_gauss(code)
        for n, rank in enumerate(ranks, start=1):
            best, genus = reduce_diagram(d, SearchBudget(max_nodes=n))
            assert (best.n_crossings, carter_genus(best), genus) == (*rank, rank[1])

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
        # The searches key their roots through the cache and every child
        # uncached, so the three runs leave at most their 4 roots there.
        compact_key.cache_clear()
        search_slice(parse_gauss(KISHINO), KISHINO_BUDGET)
        search_equivalent(
            parse_gauss("O1+U1+O2-U2-"), parse_gauss("()"), SearchBudget.small()
        )
        reduce_diagram(
            parse_gauss(KISHINO),
            SearchBudget(max_crossings=5, max_components=2, max_nodes=500,
                         max_depth=4),
        )
        assert compact_key.cache_info().currsize <= 4


def _counters(out):
    return out.status, out.nodes, out.dedup


def _compact(text: str) -> bytes:
    """The compact key the searches hold for the diagram of `text`."""
    return compact_key(parse_gauss(text))


class TestPruningAudit:
    """Every state a plain reference search reaches is covered by a state
    `search_slice` admitted: same key and partition, counters no larger.

    The reference derives the caps and the closure rule on its own, so
    this guards the search's dominance dedup, its partition tag and the
    pruning of moves before they are applied.  Keying and enumeration
    are shared, and only an "exhausted" run can be audited this way."""

    @pytest.mark.parametrize(
        "code,components,reached", [(TREFOIL, 3, 674), (VIRTUAL_TREFOIL, 4, 4180)],
        ids=["trefoil", "virtual-trefoil"],
    )
    def test_admitted_states_cover_reference(
        self, code, components, reached, monkeypatch
    ):
        budget = SearchBudget(
            max_crossings=3, max_components=components, max_saddles=2,
            max_births=2, max_deaths=2, max_nodes=10**7, max_depth=10**7,
        )
        admitted: dict[tuple, list] = {}  # (compact key, classes) -> spents
        push = vknots.search._BestFirst.push

        def spy(run, side, state, child):
            _, key, _, spent, classes = child[:5]
            admitted.setdefault((key, classes), []).append(spent)
            return push(run, side, state, child)

        monkeypatch.setattr(vknots.search._BestFirst, "push", spy)
        d = parse_gauss(code)
        out = search_slice(d, budget)
        states, found = reference_slice_states(d, budget)
        assert len(states) == reached
        assert out.status == ("found" if found else "exhausted")
        uncovered = [
            (key, classes, spent) for key, classes, spent in states
            if not any(
                all(o <= n for o, n in zip(old, spent))
                for old in admitted.get((_compact(key), classes), ())
            )
        ]
        assert not uncovered, f"{len(uncovered)} uncovered, e.g. {uncovered[:3]}"


class TestReduceAudit:
    """An exhausting `reduce_diagram` finds the least (crossings, Carter
    genus) of the whole R-move closure under the crossing cap.

    The closure is walked by the plain reference search with every
    cobordism cap at 0, so this guards the reduction's key-only dedup
    and its expansion one size class at a time: a run that does not
    stop at the unknot admits every state of the closure.  Keying and
    move enumeration are shared with the search, so a fault in those is
    not caught here."""

    @pytest.mark.parametrize(
        "code,cap,reached",
        [("O1+U1+O2-U2-", 4, 1531), (TREFOIL, 5, 216), (VIRTUAL_TREFOIL, 4, 357),
         (KISHINO, 6, 998)],
        ids=["kinked-unknot", "trefoil", "virtual-trefoil", "kishino"],
    )
    def test_best_rank_is_reference_minimum(self, code, cap, reached, monkeypatch):
        admitted = set()
        push = vknots.search._BestFirst.push

        def spy(run, side, state, child):
            admitted.add(child[1])
            return push(run, side, state, child)

        monkeypatch.setattr(vknots.search._BestFirst, "push", spy)
        d = parse_gauss(code)
        budget = SearchBudget(
            max_crossings=cap, max_components=d.n_components,
            max_nodes=10**7, max_depth=10**7,
        )
        states, _ = reference_slice_states(d, budget)
        assert len(states) == reached
        ranks = [
            (diag.n_crossings, carter_genus(diag))
            for diag in (parse_gauss(key) for key, _, _ in states)
        ]
        best, genus = reduce_diagram(d, budget)
        assert (best.n_crossings, carter_genus(best)) == min(ranks)
        assert min(g for _, g in ranks) <= genus <= carter_genus(best)
        if min(ranks) != (0, 0):  # no early stop
            assert admitted == {_compact(key) for key, _, _ in states}


class TestEquivalenceAudit:
    """An "exhausted" `search_equivalent` expanded, from a's side, every
    state closer to a than the depth cap, at its least distance, and
    admitted there exactly the keys no farther from a than the cap.

    The distances come from a plain breadth-first walk, so this guards
    the search's dedup under a binding depth cap, where a key first
    admitted through a long path must be admitted again when a shorter
    path reaches it, and its expansion one size class at a time, which
    must still reach every child of a state.  Keying and move
    enumeration are shared with the search, so a fault in those is not
    caught here."""

    @pytest.mark.parametrize(
        "code,cap,reached", [(VIRTUAL_TREFOIL, 4, 309), (TREFOIL, 5, 202)],
        ids=["virtual-trefoil", "trefoil"],
    )
    def test_exhausted_run_expands_every_state_inside_depth_cap(
        self, code, cap, reached, monkeypatch
    ):
        popped: dict[bytes, int] = {}  # key -> least depth popped on a's side
        states = vknots.search._BestFirst.states

        def spy(run, *args, **kw):
            for side, entry, diag in states(run, *args, **kw):
                if side == 0:
                    popped[entry.key] = min(entry.depth, popped.get(entry.key, entry.depth))
                yield side, entry, diag

        admitted = set()  # compact keys admitted on a's side
        admit = vknots.search._BestFirst.admit

        def spy_admit(run, side, state, ident, spent):
            new = admit(run, side, state, ident, spent)
            if new and side == 0:
                admitted.add(ident)
            return new

        monkeypatch.setattr(vknots.search._BestFirst, "states", spy)
        monkeypatch.setattr(vknots.search._BestFirst, "admit", spy_admit)
        a = parse_gauss(code)
        budget = SearchBudget(
            max_crossings=cap, max_components=1, max_nodes=10**6, max_depth=3
        )
        distances = {
            _compact(key): depth
            for key, depth in reference_distances(a, budget).items()
        }
        assert len(distances) == reached
        assert search_equivalent(a, parse_gauss("()"), budget).status == "exhausted"
        missed = {
            key: (depth, popped.get(key)) for key, depth in distances.items()
            if popped.get(key) != depth
        }
        assert not missed, f"{len(missed)} not expanded at their distance: {missed}"
        # side a admits the children of its states at depth max_depth - 1
        deeper = replace(budget, max_depth=budget.max_depth + 1)
        assert admitted == set(map(_compact, reference_distances(a, deeper)))


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
            )), ("found", 5, 2), 40),
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

    @pytest.mark.parametrize(
        "code,budget,bound",
        [(SIX_CROSSING_UNKNOT, UNKNOT_BUDGET, 16),  # 424 when expanded whole
         ("O1+U1+O2-U2-", SearchBudget.small(), 6)],  # 99 when expanded whole
        ids=["six-crossing", "kinked"],
    )
    def test_reduce_keys_insertions_only_when_reached(
        self, code, budget, bound, monkeypatch
    ):
        # A reduction expands a popped state one size class at a time,
        # so the insertions of a state are keyed only if the frontier
        # reaches their size before the unknot is found.
        keyed = 0
        key_and_order = vknots.search._compact_key_and_order

        def counted(*args):
            nonlocal keyed
            keyed += 1
            return key_and_order(*args)

        monkeypatch.setattr(vknots.search, "_compact_key_and_order", counted)
        assert reduce_diagram(parse_gauss(code), budget) == (parse_gauss("()"), 0)
        assert 0 < keyed <= bound

    @pytest.mark.parametrize(
        "code", [TREFOIL, VIRTUAL_TREFOIL, "O1+U1+O2-U2-"],
        ids=["trefoil", "virtual-trefoil", "kinked-unknot"],
    )
    def test_size_classes_split_the_whole_expansion(self, code):
        # Expanded one size class at a time, a state yields the same
        # children as expanded whole, and each child's index counts among
        # the moves of its pop's class, which `line` lists again.  A
        # cobordism search with every cobordism cap at 0 expands the
        # R-moves whole, as its one class; the R-move search pops the
        # root once per size class.
        d = parse_gauss(code)

        def expand(run):
            keys = set()
            for _, state, diag in run.states():
                cls, spent = state.cls, state.spent
                listed = enumerate_moves(diag, run.kinds(diag, spent, cls))
                assert {m.kind for m in listed} <= run.classes[cls][0]
                for (_, index), key, *_ in run.children(state, diag):
                    assert compact_key(apply_move(diag, listed[index])) == key
                    keys.add(key)
            return keys

        whole_run = vknots.search._BestFirst(SearchBudget(), (d,), cobordism=True)
        whole = expand(whole_run)
        run = vknots.search._BestFirst(SearchBudget(), (d,))
        by_class = expand(run)
        assert (whole_run.nodes, run.nodes) == (1, len(vknots.search._SIZE_CLASSES))
        assert by_class == whole

    @pytest.mark.parametrize(
        "search",
        [lambda: reduce_diagram(
            parse_gauss(TREFOIL),
            SearchBudget(max_crossings=5, max_components=1, max_nodes=10**7,
                         max_depth=10**7)),
         lambda: search_equivalent(
            parse_gauss(VIRTUAL_TREFOIL), parse_gauss("()"),
            SearchBudget(max_crossings=4, max_components=2, max_nodes=10_000,
                         max_depth=8))],
        ids=["reduce", "equivalent"],
    )
    def test_state_popped_once_per_size_class(self, search, monkeypatch):
        # The engine queues a popped state again for each next size class
        # that fits the crossing cap, at the size of that class's
        # children, so its insertions wait until the frontier reaches
        # them.  Neither run stops early, so every admitted state below
        # the depth cap is popped for each class that fits.
        pops: dict[tuple, list] = {}  # (side, key, depth) -> classes popped
        states = vknots.search._BestFirst.states
        classes = vknots.search._SIZE_CLASSES

        def spy(run, *args, **kw):
            for side, entry, diag in states(run, *args, **kw):
                size, depth, key, cls = entry.size, entry.depth, entry.key, entry.cls
                assert size == diag.n_crossings + diag.n_components + classes[cls][1]
                fits = [c for c, (_, g) in enumerate(classes)
                        if diag.n_crossings + g <= run.cap_n]
                pops.setdefault((side, key, depth), fits).remove(cls)
                yield side, entry, diag

        monkeypatch.setattr(vknots.search._BestFirst, "states", spy)
        search()
        assert pops and not any(pops.values())

    @staticmethod
    def _spy_pops(monkeypatch) -> list[int]:
        """The class of each state `_BestFirst.states` yields, in order."""
        popped = []
        states = vknots.search._BestFirst.states

        def spy(run, *args, **kw):
            for side, entry, diag in states(run, *args, **kw):
                popped.append(entry.cls)
                yield side, entry, diag

        monkeypatch.setattr(vknots.search._BestFirst, "states", spy)
        return popped

    def test_pop_lists_only_its_class(self, monkeypatch):
        # A popped state lists the moves of its own class, never those of
        # an earlier class again (502 of the 7,573 moves listed here when
        # each pop listed every class up to its own).
        popped = self._spy_pops(monkeypatch)
        listed = []
        list_moves = vknots.search.enumerate_moves

        def spy(*args, **kw):
            out = list_moves(*args, **kw)
            listed.extend((popped[-1], m.kind) for m in out)
            return out

        monkeypatch.setattr(vknots.search, "enumerate_moves", spy)
        out = search_equivalent(
            parse_gauss(FOUR_CROSSING_KNOT), parse_gauss("()"), FIVE_CROSSING_BUDGET
        )
        assert _counters(out) == ("budget-hit", 1485, 5507)
        classes = vknots.search._SIZE_CLASSES
        assert listed
        assert [kind for cls, kind in listed if kind not in classes[cls][0]] == []

    def test_insertion_pops_find_no_sites(self, monkeypatch):
        # Only the moves of the first size class (r1 and r2 deletions, r3)
        # are read off the sites, so a pop for r1 or r2 insertions finds
        # none; with no certificate to rebuild, the run finds the sites
        # once per pop of the first class.
        popped = self._spy_pops(monkeypatch)
        built = 0
        sites = vknots.moves._sites

        def counted(d):
            nonlocal built
            built += 1
            return sites(d)

        monkeypatch.setattr(vknots.moves, "_sites", counted)
        out = search_equivalent(
            parse_gauss(FOUR_CROSSING_KNOT), parse_gauss("()"), FIVE_CROSSING_BUDGET
        )
        assert _counters(out) == ("budget-hit", 1485, 5507)
        assert set(popped) == {0, 1, 2}
        assert built == popped.count(0)

    def test_site_tables_built_once_per_expansion(self, monkeypatch):
        # The r1-, r2- and r3 children of a popped diagram read the site
        # tables its enumeration built; only rebuilding and translating
        # the found line, two per step at most, finds sites again.
        built = 0
        sites = vknots.moves._sites

        def counted(d):
            nonlocal built
            built += 1
            return sites(d)

        monkeypatch.setattr(vknots.moves, "_sites", counted)
        out = search_slice(parse_gauss(KISHINO), KISHINO_BUDGET)
        assert _counters(out) == ("found", 41, 1976)
        # 83 when each r1-, r2- and r3 applier found its own sites
        assert built <= out.nodes + 2 * len(out.certificate.steps)

    def test_child_endpoints_are_checked(self, monkeypatch):
        row = vknots.moves.KINDS["r1_insert"]

        def drop_endpoint(d, m, comps, signs, tables):
            inv = row.applier(d, m, comps, signs, tables)
            comps[m["c"]].pop()
            return inv

        monkeypatch.setitem(
            vknots.moves.KINDS, "r1_insert", row._replace(applier=drop_endpoint)
        )
        with pytest.raises(DiagramError):
            search_slice(parse_gauss(KISHINO), KISHINO_BUDGET)


class TestChainRebuild:
    @pytest.mark.parametrize(
        "code", [TREFOIL, KISHINO, "O1+U2-;O2-U1+;()"],
        ids=["trefoil", "kishino", "three-component"],
    )
    def test_line_takes_the_listed_move(self, code, monkeypatch):
        # For every kind set `kinds` gives (each size class that fits the
        # crossing cap, with or without each cobordism kind), the move
        # `line` draws at an index is the listed move at that index, and
        # the enumeration stops there.
        drawn = []
        iter_moves = vknots.search._iter_moves

        def spy(*args):
            drawn.append(0)
            for m in iter_moves(*args):
                drawn[-1] += 1
                yield m

        monkeypatch.setattr(vknots.search, "_iter_moves", spy)
        d = parse_gauss(code)
        runs = {}
        for growth in (0, 1, 2):
            for s, b, dd in itertools.product((0, 1), repeat=3):
                budget = SearchBudget(
                    max_crossings=d.n_crossings + growth, max_components=4,
                    max_saddles=s, max_births=b, max_deaths=dd,
                )
                run = vknots.search._BestFirst(budget, (d,), cobordism=True)
                runs.setdefault(frozenset(run.kinds(d, (0, 0, 0), 0)), run)
        assert len(runs) == 24
        for kinds, run in runs.items():
            root = parse_compact(run.root_keys[0])
            # the record of the root's pop (seq 0), which expanded the
            # one class of a cobordism search
            run.parents[0] = (-1, -1, 0, run.root_keys[0])
            listed = enumerate_moves(root, kinds)
            assert {m.kind for m in listed} <= kinds
            for index, m in enumerate(listed):
                drawn.clear()
                refs, steps = run.line(0, [(0, index, run.root_keys[0])])
                assert steps == [m]
                assert drawn == [index + 1]
            # The counters after a cobordism step pick the next kinds.
            for first, m in enumerate(listed):
                if m.kind not in ("saddle", "birth", "death"):
                    continue
                key = compact_key(apply_move(root, m))
                reached = parse_compact(key)
                spent = vknots.search._spend((0, 0, 0), m.kind)
                after = enumerate_moves(reached, run.kinds(reached, spent, 0))
                if after:
                    run.parents[1] = (0, first, 0, key)  # the pop of `reached`
                    chain = [(0, first, key), (1, len(after) - 1, key)]
                    assert run.line(0, chain)[1] == [m, after[-1]]
                    break

    def test_search_builds_no_inverse_per_child(self, monkeypatch):
        # A child is applied through the core, whose handler returns the
        # inverse's kind and parameters unbuilt, so the Kishino search
        # builds a `Move` only for each move it lists or draws and each
        # step it translates (about 19,600 more when each child's
        # inverse was built).
        built = listed = drawn = 0
        check = Move.__post_init__
        list_moves, iter_moves = vknots.search.enumerate_moves, vknots.search._iter_moves

        def counted(self):
            nonlocal built
            built += 1
            check(self)

        def listing(*args, **kw):
            nonlocal listed
            out = list_moves(*args, **kw)
            listed += len(out)
            return out

        def drawing(*args):
            nonlocal drawn
            for m in iter_moves(*args):
                drawn += 1
                yield m

        monkeypatch.setattr(Move, "__post_init__", counted)
        monkeypatch.setattr(vknots.search, "enumerate_moves", listing)
        monkeypatch.setattr(vknots.search, "_iter_moves", drawing)
        out = search_slice(parse_gauss(KISHINO), KISHINO_BUDGET)
        assert _counters(out) == ("found", 41, 1976)
        assert built <= listed + drawn + len(out.certificate.steps)

    @pytest.mark.parametrize(
        "search",
        [lambda: search_slice(parse_gauss(KISHINO), KISHINO_BUDGET),
         lambda: search_equivalent(
            parse_gauss(SIX_CROSSING_UNKNOT), parse_gauss("()"), UNKNOT_BUDGET),
         lambda: reduce_diagram(
            parse_gauss(TREFOIL),
            SearchBudget(max_crossings=5, max_components=1, max_nodes=300))],
        ids=["slice", "equivalent", "reduce"],
    )
    def test_every_record_replays(self, search, monkeypatch):
        # Every search keeps a parent record for each state it expands,
        # and `line` replays the chain of any of them from its root: each
        # step, applied to the diagram before it, reaches the next key,
        # so the line ends at a diagram with the record's key.
        runs = []
        init = vknots.search._BestFirst.__init__

        def spy(run, *args, **kw):
            init(run, *args, **kw)
            runs.append(run)

        monkeypatch.setattr(vknots.search._BestFirst, "__init__", spy)
        search()
        [run] = runs
        assert len(run.parents) == run.nodes  # no pop reached the depth cap
        for parent, index, _, key in run.parents.values():
            chain = run.chain((parent, index), key)
            root = run.parents[chain[0][0]][3] if chain else key
            refs, steps = run.line(run.root_keys.index(root), chain)
            assert len(steps) == len(chain)
            for ref, step, reached in zip(refs, steps, refs[1:]):
                assert canonical_key(apply_move(ref, step)) == canonical_key(reached)
            assert compact_key(refs[-1]) == key


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


class TestRelabeling:
    """Every search runs on canonical keys, so relabeling its input
    changes none of its counters, only the certificate's translation."""

    SEARCHES = {
        "slice-kishino": (
            KISHINO, lambda d: search_slice(d, KISHINO_BUDGET),
        ),
        "equivalent-six-crossing": (
            SIX_CROSSING_UNKNOT,
            lambda d: search_equivalent(d, parse_gauss("()"), UNKNOT_BUDGET),
        ),
        "equivalent-virtual-trefoil": (
            VIRTUAL_TREFOIL,
            lambda d: search_equivalent(
                d, parse_gauss("()"),
                SearchBudget(max_crossings=4, max_components=2, max_nodes=10_000,
                             max_depth=8),
            ),
        ),
    }

    @pytest.mark.parametrize("name", SEARCHES)
    def test_search_counters_ignore_labels(self, name, rng):
        code, search = self.SEARCHES[name]
        d = parse_gauss(code)
        expected = _counters(search(d))
        for _ in range(5):
            out = search(scrambled(d, rng))
            assert _counters(out) == expected
            if out.certificate is not None:
                assert validate_certificate(out.certificate, "concordance").ok

    def test_reduction_ignores_labels(self, rng):
        d = parse_gauss(SIX_CROSSING_UNKNOT)
        best, genus = reduce_diagram(d, UNKNOT_BUDGET)
        for _ in range(5):
            again, again_genus = reduce_diagram(scrambled(d, rng), UNKNOT_BUDGET)
            assert (canonical_key(again), again_genus) == (canonical_key(best), genus)


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
            (3, 0),
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


class TestRecords:
    def test_records_pop_in_size_seq_order(self, rng):
        # A record's header is fixed-width and big-endian, so records
        # compare as bytes in (size, seq) order, whatever their keys,
        # also once seq or size needs more than one byte.
        run = vknots.search._BestFirst(SearchBudget(), (parse_gauss(TREFOIL),))
        heap, queued = [], []
        for _ in range(2000):
            size = rng.choice([0, 1, 7, 255, 256, 70_000])
            run.seq = rng.randrange(1 << rng.choice([8, 16, 40, 62]))
            key = bytes(rng.randrange(256) for _ in range(rng.randrange(12)))
            queued.append((size, run.seq))
            run.queue(heap, size, (run.seq - 1, rng.randrange(1 << 20)), 0, key)
        header = vknots.search._HEADER
        popped = [header.unpack_from(heapq.heappop(heap))[:2] for _ in queued]
        assert popped == sorted(queued)

    def test_partition_tag_never_equals_a_key(self):
        # A tag opens with a 2, below every endpoint int, and ends in a
        # digit, while every key is empty or ends in a 0; tagged
        # identities differ exactly when their keys or partitions do.
        tag = vknots.canonical._partition_tag
        keys = {_compact(code) for code in ["", "()", "();()", "L:", "L:();()",
                                            TREFOIL, KISHINO, "O1+U2+;U1+O2+"]}
        keys.add(_compact("".join(f"O{i}+U{i}+" for i in range(1, 65))))  # wide
        partitions = [(0, 1), (0, 1, 0), (0, 0, 1), (0, 1, 1), tuple(range(12))]
        assert tag((0,)) == tag((0, 0, 0)) == b""
        for p in partitions:
            assert tag(p)[0] == 2 and tag(p)[-1] in b"0123456789"
        idents = {key + tag(p) for key in keys for p in partitions}
        assert len(idents) == len(keys) * len(partitions)
        assert not idents & keys
        assert all(key == b"" or key[-1] == 0 for key in keys)


class TestMemory:
    def test_trefoil_probe_peak_stays_small(self):
        # The bound sits between the 1.55-1.69 MB this run peaked at when
        # a queued state was a 9-field tuple holding its text key, and
        # the 1.08-1.14 MB it peaks at now that a queued state is one
        # bytes record holding its compact key, with 25% headroom over
        # each (CPython 3.10-3.13).
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
        assert peak < 1_450_000

    def test_parent_records_only_for_popped_states(self, monkeypatch):
        # A queued state is one record; its parent record is written
        # when it is popped, so a run keeps at most one per node.
        held = []
        outcome = vknots.search._BestFirst.outcome

        def spy(run, cert):
            held.append((len(run.parents), run.seq))
            return outcome(run, cert)

        monkeypatch.setattr(vknots.search._BestFirst, "outcome", spy)
        out = search_slice(parse_gauss(KISHINO), KISHINO_BUDGET)
        assert (out.status, out.nodes, out.dedup) == ("found", 41, 1976)
        ((records, queued),) = held
        assert records <= out.nodes < queued
