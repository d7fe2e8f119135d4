"""End-to-end acceptance checks for the package.

Each test class covers one shipping criterion: the bundled Kishino
demo, count-rule enforcement, unknot reduction, the Carter genus table,
the trefoil consistency probe, certificate transports, algebraic laws,
and determinism of repeated searches.
"""

import random
import time

import pytest

from vknots import (
    CobordismCertificate,
    SearchBudget,
    apply_move,
    canonical_key,
    carter_genus,
    closure,
    connected_sum,
    cut,
    inverse,
    mirror,
    parse_certificate,
    parse_gauss,
    parse_move,
    reduce_diagram,
    reverse,
    search_equivalent,
    search_slice,
    transport_closure_to_long,
    transport_long_to_closure,
    validate_certificate,
)

from .conftest import (
    CORPUS, KINK, KISHINO, TREFOIL, VIRTUAL_TREFOIL, random_diagram, random_walk, run_cli,
)
from .oracles import carter_genus_oracle

KISHINO_SEARCH_BUDGET = SearchBudget(
    max_crossings=8,
    max_components=3,
    max_saddles=1,
    max_births=0,
    max_deaths=1,
    max_nodes=100_000,
    max_depth=14,
)


class TestCriterion1KishinoReproduction:
    def test_demo_validates_with_exact_counters(self):
        r = run_cli("demo", "kishino")
        assert r.returncode == 0
        assert r.stdout.splitlines()[-1] == "valid=yes verdict=concordance s=1 b=0 d=1"

    def test_search_rediscovers_certificate_under_60s(self):
        out = search_slice(parse_gauss(KISHINO), KISHINO_SEARCH_BUDGET)
        assert (out.status, out.nodes, out.dedup) == ("found", 41, 1976)
        assert out.ms < 60_000
        s, b, d = out.certificate.counters()
        assert (s, d) == (1, 1)
        assert validate_certificate(out.certificate, "concordance").ok


def _random_concordance(rng, start_code="()"):
    """A validating R-move-only concordance built from an insertion walk,
    read back to its start (s = b = d = 0)."""
    diagrams, _, inverses = random_walk(
        parse_gauss(start_code), rng, rng.randint(1, 4),
        {"r1_insert", "r2_insert"}, 6,
    )
    cur = diagrams[-1]
    steps = []
    for inv in reversed(inverses):
        cur = apply_move(cur, inv)
        steps.append(inv)
    return CobordismCertificate(diagrams[-1], tuple(steps), parse_gauss(start_code))


class TestCriterion2CountRule:
    def test_all_valid_replays_accepted(self, rng):
        for _ in range(30):
            cert = _random_concordance(rng)
            assert validate_certificate(cert, "concordance").ok

    def test_all_count_rule_violations_rejected(self, rng):
        rejected = 0
        total = 0
        for _ in range(30):
            cert = _random_concordance(rng)
            # splice in a birth/death pair: replay still reaches the same
            # end but now b + d = 2 while s = 0
            mutated = CobordismCertificate(
                cert.start,
                (parse_move("birth"), parse_move(f"death c={cert.start.n_components}"))
                + cert.steps,
                cert.end,
            )
            total += 1
            if not validate_certificate(mutated, "concordance").ok:
                rejected += 1
        assert rejected == total  # 100%

    def test_slice_disk_count_violations_rejected(self):
        good = "start: ()\ndeath c=0\nend:\n"
        assert validate_certificate(parse_certificate(good), "slice-disk").ok
        mutated = "start: ()\nbirth\ndeath c=1\ndeath c=0\nend:\n"
        report = validate_certificate(parse_certificate(mutated), "slice-disk")
        assert not report.ok
        assert "count rule" in report.failure


class TestCriterion3UnknotReduction:
    def test_200_unknots_reduce_under_10s(self):
        rng = random.Random(20260823)
        budget = SearchBudget(
            max_crossings=6, max_components=1, max_nodes=3000, max_depth=12
        )
        t0 = time.perf_counter()
        for i in range(200):
            diagrams, _, _ = random_walk(
                parse_gauss("()"), rng, rng.randint(1, 4),
                {"r1_insert", "r2_insert"}, 6,
            )
            best, genus = reduce_diagram(diagrams[-1], budget)
            assert best.n_crossings == 0, i
            assert genus == 0
        assert time.perf_counter() - t0 < 10.0


class TestCriterion4GenusTable:
    # [DERIVED] frozen from tests/oracles.py (brute-force dart orbits).
    TABLE = [(KINK, 0), (TREFOIL, 0), (VIRTUAL_TREFOIL, 1), (KISHINO, 2)]

    @pytest.mark.parametrize("code,genus", TABLE)
    def test_matches_frozen_values(self, code, genus):
        assert carter_genus(parse_gauss(code)) == genus

    @pytest.mark.parametrize("code,genus", TABLE)
    def test_matches_oracle(self, code, genus):
        assert carter_genus_oracle(code) == genus


@pytest.fixture(scope="module")
def full_budget_outcome():
    return search_slice(
        parse_gauss(TREFOIL), TestCriterion5TrefoilProbe._budget(7)
    )


class TestCriterion5TrefoilProbe:
    """Consistency probe: the trefoil is not slice, so search-slice must
    never produce a certificate for it.

    The headline budget (saddles <= 2, births <= 2, deaths <= 2,
    crossings <= 7, nodes <= 10^6) cannot be *exhausted*: the reachable
    space grows ~22x per allowed extra crossing (crossings <= 4 exhausts
    at ~10^4 states, <= 5 at ~2*10^5), putting crossings <= 7 near 10^8
    states, and the engine reports budget-hit as soon as admitted states
    outnumber the node allowance.  So the probe asserts that nothing is
    found at the full budget, and that the search genuinely exhausts the
    largest crossing cap whose space fits the allowance.
    """

    @staticmethod
    def _budget(max_crossings):
        return SearchBudget(
            max_crossings=max_crossings,
            max_components=4,
            max_saddles=2,
            max_births=2,
            max_deaths=2,
            max_nodes=1_000_000,
            max_depth=1_000_000,
        )

    def test_no_slicing_found_at_full_budget(self, full_budget_outcome):
        assert full_budget_outcome.status != "found"
        assert full_budget_outcome.certificate is None
        assert full_budget_outcome.nodes <= 1_000_000
        assert (full_budget_outcome.nodes, full_budget_outcome.dedup) == (3790, 408522)

    def test_exhausts_within_feasible_crossing_cap(self):
        out = search_slice(parse_gauss(TREFOIL), self._budget(4))
        assert (out.status, out.nodes, out.dedup) == ("exhausted", 12482, 84484)
        assert out.certificate is None

    @pytest.mark.xfail(
        reason="the space within crossings <= 7 exceeds the 10^6-node "
        "allowance by two orders of magnitude; exhaustion at this cap is "
        "not attainable by exhaustive search",
        strict=True,
    )
    def test_exhausts_at_full_budget(self, full_budget_outcome):
        assert full_budget_outcome.status == "exhausted"


class TestCriterion6Transports:
    def _long_concordance_to_unknot(self, rng):
        return _random_concordance(rng, start_code="L:")

    def test_kishino_closure_lifts_to_2_0_2(self):
        text = (
            f"start: {KISHINO}\n"
            "saddle c1=0 p=3 c2=0 q=7\n"
            "r2- a=3 b=4\n"
            "r2- a=1 b=2\n"
            "death c=1\n"
            "end: ()\n"
        )
        round_cert = parse_certificate(text)
        k = cut(parse_gauss(KISHINO), 0, 0)
        lifted = transport_closure_to_long(round_cert, k)
        assert lifted.counters() == (2, 0, 2)
        assert validate_certificate(lifted, "concordance").ok

    def test_50_randomized_certificates_round_trip(self, rng):
        for _ in range(50):
            cert = self._long_concordance_to_unknot(rng)
            closed = transport_long_to_closure(cert)
            assert closed.counters() == cert.counters()  # preserved exactly
            assert validate_certificate(closed, "concordance").ok
            s, b, d = closed.counters()
            lifted = transport_closure_to_long(closed, cert.start)
            assert lifted.counters() == (s + 1, b, d + 1)
            assert validate_certificate(lifted, "concordance").ok


class TestCriterion7AlgebraicLaws:
    def _random_diagrams(self, rng, count):
        return [random_diagram(rng, max_crossings=5) for _ in range(count)]

    def test_corpus_laws(self):
        self._check_laws([parse_gauss(c) for c in CORPUS])

    def test_500_random_diagrams(self, rng):
        self._check_laws(self._random_diagrams(rng, 500))

    def _check_laws(self, diagrams):
        longs = [d for d in diagrams if d.long]
        e = parse_gauss("L:")
        for d in diagrams:
            assert canonical_key(reverse(reverse(d))) == canonical_key(d)
            assert canonical_key(mirror(mirror(d, "switch"), "switch")) == canonical_key(d)
            if d.long:
                assert canonical_key(inverse(inverse(d))) == canonical_key(d)
                assert canonical_key(connected_sum(d, e)) == canonical_key(d)
                assert canonical_key(connected_sum(e, d)) == canonical_key(d)
            elif d.n_components:
                for comp in range(d.n_components):
                    arc = len(d.components[comp]) // 2
                    opened = cut(d, comp, arc)
                    assert canonical_key(closure(opened)) == canonical_key(d)
        for a, b, c in zip(longs, longs[1:], longs[2:]):
            lhs = connected_sum(connected_sum(a, b), c)
            rhs = connected_sum(a, connected_sum(b, c))
            assert canonical_key(lhs) == canonical_key(rhs)


class TestCriterion8Parallelism:
    CASES = [
        ("slice-kink", "O1+U1+"),
        ("slice-kishino", KISHINO),
        ("slice-vtref-exhausts", VIRTUAL_TREFOIL),
    ]

    @pytest.mark.parametrize("name,code", CASES)
    def test_runs_repeat_and_certificates_revalidate(self, name, code):
        if name == "slice-kishino":
            budget = KISHINO_SEARCH_BUDGET
        else:
            budget = SearchBudget(
                max_crossings=5, max_components=2, max_nodes=5000, max_depth=8
            )
        first, again = (search_slice(parse_gauss(code), budget) for _ in range(2))
        assert (first.status, first.nodes, first.dedup) == (
            again.status, again.nodes, again.dedup,
        )
        assert first.certificate == again.certificate
        if first.certificate is not None:
            assert validate_certificate(first.certificate, "concordance").ok

    def test_equivalence_and_reduce_agree(self):
        a, b = parse_gauss("O1+U1+"), parse_gauss("()")
        budget = SearchBudget(
            max_crossings=5, max_components=2, max_nodes=5000, max_depth=8
        )
        first, again = (search_equivalent(a, b, budget) for _ in range(2))
        assert first.status == "found"
        assert (first.nodes, first.dedup, first.certificate) == (
            again.nodes, again.dedup, again.certificate,
        )
        reduced = [reduce_diagram(parse_gauss("O1+U1+O2-U2-"), budget) for _ in range(2)]
        assert reduced[0] == reduced[1]
        best, genus = reduced[0]
        assert (best.n_crossings, genus) == (0, 0)
