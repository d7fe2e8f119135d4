"""Carter-surface face counts and genus."""

import pytest

from vknots import (
    GaussDiagram,
    carter_genus,
    carter_report,
    closure,
    connected_sum,
    mirror,
    parse_gauss,
    reverse,
)

from .conftest import (
    KINK,
    KISHINO,
    TREFOIL,
    VIRTUAL_TREFOIL,
    random_diagram,
    scrambled,
)
from .oracles import carter_genus_oracle, face_count

# [DERIVED] from tests/oracles.py face_count / carter_genus_oracle.
GENUS_TABLE = [
    (KINK, 3, 0),
    (TREFOIL, 5, 0),
    (VIRTUAL_TREFOIL, 2, 1),
    (KISHINO, 2, 2),
]


class TestFaces:
    @pytest.mark.parametrize("code,faces,genus", GENUS_TABLE)
    def test_frozen_table(self, code, faces, genus):
        d = parse_gauss(code)
        report = carter_report(d)
        assert report.faces == faces
        assert report.genus == genus

    @pytest.mark.parametrize("code,faces,genus", GENUS_TABLE)
    def test_table_matches_oracle(self, code, faces, genus):
        assert face_count(code) == faces
        assert carter_genus_oracle(code) == genus

    def test_random_connected_against_oracle(self, rng):
        checked = 0
        while checked < 60:
            d = random_diagram(rng, max_crossings=5)
            if d.long or d.n_crossings == 0:
                continue
            try:
                expected = face_count(" ".join([code_of(d)]))
            except ValueError:
                continue  # oracle handles connected chorded diagrams only
            assert carter_report(d).faces == expected
            assert carter_genus(d) == carter_genus_oracle(code_of(d))
            checked += 1

    def test_report_record_format(self):
        rec = carter_report(parse_gauss(TREFOIL)).record()
        assert rec == "crossings=3 faces=5 euler=2 genus=0"


def code_of(d):
    from vknots import render_gauss

    return render_gauss(d)


class TestGenusProperties:
    def test_chordless_circle_is_sphere(self):
        assert carter_genus(parse_gauss("()")) == 0

    def test_disjoint_pieces_sum(self):
        # kink ⊔ virtual trefoil: genus 0 + 1
        d = parse_gauss("O1+U1+;O2+U3+U2+O3+")
        assert carter_genus(d) == 1

    def test_invariant_under_reverse_and_mirror(self, rng):
        for _ in range(40):
            d = random_diagram(rng, max_crossings=5)
            if d.long:
                d = closure(d)
            g = carter_genus(d)
            assert carter_genus(reverse(d)) == g
            assert carter_genus(mirror(d, "switch")) == g

    def test_connected_sum_subadditive(self):
        k = parse_gauss("L:" + KISHINO)
        v = parse_gauss("L:" + VIRTUAL_TREFOIL)
        g = carter_genus(closure(connected_sum(k, v)))
        assert g <= carter_genus(closure(k)) + carter_genus(closure(v))


def random_round(rng, max_crossings=5):
    d = random_diagram(rng, max_crossings)
    return closure(d) if d.long else d


def disjoint_union(a, b):
    """a beside b, b's crossing ids shifted past a's."""
    shift = max(a.crossing_ids, default=0)
    b_comps = tuple(
        tuple((cid + shift, role) for cid, role in comp) for comp in b.components
    )
    b_signs = tuple((cid + shift, s) for cid, s in b.signs)
    return GaussDiagram(a.components + b_comps, a.signs + b_signs, False)


class TestPieces:
    """Split diagrams, which the connected-only oracle cannot check."""

    def test_disjoint_union_adds(self, rng):
        for _ in range(200):
            a, b = random_round(rng), random_round(rng)
            if rng.random() < 0.3:
                b = disjoint_union(b, parse_gauss("()"))
            ra, rb = carter_report(a), carter_report(b)
            union = disjoint_union(a, b)
            r = carter_report(union)
            assert r.crossings == ra.crossings + rb.crossings
            assert r.faces == ra.faces + rb.faces
            assert r.euler == ra.euler + rb.euler
            assert r.genus == ra.genus + rb.genus
            # the two pieces' components interleaved
            assert carter_report(scrambled(union, rng)) == r

    def test_invariant_under_reorder_rotation_relabel(self, rng):
        for _ in range(200):
            d = random_round(rng, max_crossings=6)
            assert carter_report(scrambled(d, rng)) == carter_report(d)
