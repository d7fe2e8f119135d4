"""Certificate parsing, replay, validation, and the Lemma-style transports."""

import random

import pytest

import vknots.certificates
from vknots import (
    CertificateError,
    CobordismCertificate,
    DiagramError,
    GaussDiagram,
    Move,
    SearchBudget,
    apply_move,
    canonical_key,
    closure,
    cut,
    enumerate_moves,
    parse_certificate,
    parse_gauss,
    parse_move,
    render_certificate,
    replay,
    search_slice,
    transport_closure_to_long,
    transport_long_to_closure,
    validate_certificate,
)
from vknots.certificates import _translate_steps, advance_classes, initial_classes
from vknots.moves import ALL_KINDS, carry_move

from .conftest import KISHINO, SRC, TREFOIL, random_diagram, random_walk, scrambled
from .oracles import assert_ends_agree

R_KINDS = {"r1_insert", "r2_insert", "r1_delete", "r2_delete", "r3"}

KISHINO_CONCORDANCE = f"""\
start: {KISHINO}
saddle c1=0 p=3 c2=0 q=7
r2- a=3 b=4
r2- a=1 b=2
death c=1
end: ()
"""

# A long concordance that uses every move kind, with crossing ids not in
# first-appearance order: a birth, a kinked circle merged into the
# strand, two pokes and an r3 slide, a kink split off and capped, then
# everything undone.
EVERY_KIND_LONG = """\
start: L:O5+U5+
birth
r1+ c=1 pos=0 sign=- order=OU
saddle c1=0 p=2 c2=1 q=0
r2+ c1=0 p=0 c2=0 q=0 sign=+ order=OU
r2+ c1=0 p=0 c2=0 q=4 sign=- order=UO
r3 a=7 b=8 c=10
saddle c1=0 p=8 c2=0 q=10
r1- x=5
death c=1
r3 a=7 b=8 c=10
r2- a=7 b=8
r2- a=9 b=10
r1- x=6
end: L:
"""


RELABELED_KISHINO = "O17+U42-U17+O42-U5-O9+O5-U9+"
KISHINO_BUDGET = SearchBudget(
    max_crossings=8, max_components=3, max_saddles=1,
    max_deaths=1, max_nodes=100_000, max_depth=14,
)


class TestText:
    def test_parse_render_round_trip(self):
        cert = parse_certificate(KISHINO_CONCORDANCE)
        assert cert.counters() == (1, 0, 1)
        again = parse_certificate(render_certificate(cert))
        assert again == cert

    @pytest.mark.parametrize("source", ["relabeled-kishino-search", "every-kind-long"])
    def test_round_trip_keeps_crossing_labels(self, source):
        # The moves name the start's own crossing ids (and the fresh ids
        # the replay derives from them), so the text must not renumber.
        if source == "every-kind-long":
            cert = parse_certificate(EVERY_KIND_LONG)
            assert {m.kind for m in cert.steps} == ALL_KINDS
        else:
            out = search_slice(parse_gauss(RELABELED_KISHINO), KISHINO_BUDGET)
            assert out.status == "found"
            cert = out.certificate
        assert validate_certificate(cert, "concordance").ok
        again = parse_certificate(render_certificate(cert))
        assert again == cert
        assert validate_certificate(again, "concordance").ok

    def test_comments_and_blanks_ignored(self):
        text = "# header\n\nstart: ()\n# nothing to do\n\nend: ()\n"
        cert = parse_certificate(text)
        assert cert.steps == ()

    @pytest.mark.parametrize(
        "bad",
        [
            "",
            "start: ()",
            "end: ()",
            "start: ()\nbogus move\nend: ()",
            "end: ()\nstart: ()",
            "start: O1+\nend: ()",
            "start: ()\nstart: ()\nend: ()",
            "start: ()\nend: ()\nend: ()",
            "birth\nstart: ()\nend: ()",
            "start: ()\nend: ()\nbirth",
        ],
    )
    def test_rejects(self, bad):
        with pytest.raises((CertificateError, DiagramError)):
            parse_certificate(bad)

    def test_bad_code_names_its_line(self):
        # the blank line still counts
        with pytest.raises(CertificateError, match=r"^line 3: invalid Gauss code"):
            parse_certificate("start: ()\n\nend: O1+U1-\n")

    def test_replay_lists_every_stage(self):
        cert = parse_certificate(KISHINO_CONCORDANCE)
        stages = replay(cert)
        assert len(stages) == len(cert.steps) + 1
        assert stages[0] == cert.start
        assert canonical_key(stages[-1]) == canonical_key(cert.end)


class TestValidate:
    def test_kishino_concordance(self):
        report = validate_certificate(
            parse_certificate(KISHINO_CONCORDANCE), "concordance"
        )
        assert report.ok
        assert (report.saddles, report.births, report.deaths) == (1, 0, 1)
        assert report.record() == "valid=yes verdict=concordance s=1 b=0 d=1"

    def test_bundled_kishino_ends_agree_on_oracles(self):
        text = (SRC / "vknots" / "data" / "kishino_concordance.cert").read_text()
        cert = parse_certificate(text)
        assert validate_certificate(cert, "concordance").ok
        assert_ends_agree(render_certificate(cert))

    def test_kishino_slice_disk(self):
        text = KISHINO_CONCORDANCE.replace("end: ()", "death c=0\nend:")
        report = validate_certificate(parse_certificate(text), "slice-disk")
        assert report.ok
        assert (report.saddles, report.births, report.deaths) == (1, 0, 2)

    def test_wrong_claim_rejected(self):
        cert = parse_certificate(KISHINO_CONCORDANCE)
        report = validate_certificate(cert, "slice-disk")
        assert not report.ok
        assert "count rule" in report.failure or "empty" in report.failure

    def test_end_mismatch_rejected(self):
        text = KISHINO_CONCORDANCE.replace("end: ()", f"end: {TREFOIL}")
        report = validate_certificate(parse_certificate(text), "concordance")
        assert not report.ok
        assert "replay ends" in report.failure

    def test_end_matches_up_to_isomorphism(self):
        # The claimed end may be written relabeled, rotated and with its
        # components reordered: the replay's own ends are
        # O1+U2+O3+O4-U4-U1+O2+U3+ and U3-O4+O3-U4+;O1+U2-U1+O2-.
        kinked = f"start: {TREFOIL}\nr1+ c=0 pos=2 sign=- order=OU\n" \
                 "end: O20-U20-U7+O3+U12+O7+U3+O12+\n"
        cert = parse_certificate(kinked)
        assert cert.end != replay(cert)[-1]
        assert validate_certificate(cert, "concordance").ok
        split = f"start: {KISHINO}\nsaddle c1=0 p=3 c2=0 q=7\n" \
                "end: U42-U17+O42-O17+;O5-U9+U5-O9+\n"
        cert = parse_certificate(split)
        assert cert.end != replay(cert)[-1]
        # the end matches, so validation goes on to the count rule
        report = validate_certificate(cert, "concordance")
        assert report.failure == "count rule s=b+d violated: s=1 b=0 d=0"

    def test_illegal_step_rejected(self):
        text = KISHINO_CONCORDANCE.replace("r2- a=3 b=4", "r1- x=9")
        report = validate_certificate(parse_certificate(text), "concordance")
        assert not report.ok
        assert "step" in report.failure
        # a step built without its parameter is refused the same way
        cert = CobordismCertificate(
            parse_gauss("O1+U1+"), (Move("r1_delete"),), parse_gauss("()")
        )
        report = validate_certificate(cert, "concordance")
        assert report.failure == "step 1 (r1-): r1_delete move has no parameter 'x'"

    def test_multicomponent_end_rejected(self):
        text = f"start: {KISHINO}\nsaddle c1=0 p=3 c2=0 q=7\nbirth\n" \
               "end: O1+U2-U1+O2-;O3-U4+U3-O4+;()"
        cert = parse_certificate(text)
        report = validate_certificate(cert, "concordance")
        assert not report.ok
        for text, claim, failure in [
            ("start: ();()\nend: ();()", "concordance",
             "start is not a one-component knot"),
            ("start: O1+U1+\nbirth\nend: O1+U1+;()", "slice-disk",
             "end is not the empty diagram"),
        ]:
            report = validate_certificate(parse_certificate(text), claim)
            assert failure in report.failure

    def test_disconnected_cobordism_rejected(self):
        # Caps the trefoil with a genus-1 piece and replaces it by a
        # disjoint disk: satisfies s = b + d but is not an annulus.
        bogus = f"""\
start: {TREFOIL}
saddle c1=0 p=0 c2=0 q=2
r1- x=1
saddle c1=0 p=0 c2=1 q=1
r1- x=2
r1- x=3
death c=0
birth
end: ()
"""
        report = validate_certificate(parse_certificate(bogus), "concordance")
        assert not report.ok
        assert "disconnect" in report.failure

    def test_slice_disk_needs_exactly_one_closure(self):
        # Count rule holds (s=2, b=1, d=2) but the birthed circle is
        # never joined to the disk piece: two caps, not one.
        text = (
            "start: ()\n"
            "saddle c1=0 p=0 c2=0 q=0\n"
            "birth\n"
            "saddle c1=0 p=0 c2=1 q=0\n"
            "death c=0\n"
            "death c=0\n"
            "end:\n"
        )
        report = validate_certificate(parse_certificate(text), "slice-disk")
        assert not report.ok
        assert "close" in report.failure


class TestClassTracking:
    def test_birth_is_new_piece(self):
        d = parse_gauss("()")
        classes = initial_classes(d)
        after, closed = advance_classes(classes, parse_move("birth"), d)
        assert after == (0, 1)
        assert not closed

    def test_split_shares_piece_and_merge_joins(self):
        d = parse_gauss(KISHINO)
        m = parse_move("saddle c1=0 p=3 c2=0 q=7")
        after, closed = advance_classes((0,), m, d)
        assert after == (0, 0)
        assert not closed

    def test_closing_death_detected(self):
        d = parse_gauss("();()")
        after, closed = advance_classes((0, 1), parse_move("death c=1"), d)
        assert after == (0,)
        assert closed

    def test_non_closing_death(self):
        d = parse_gauss("();()")
        after, closed = advance_classes((0, 0), parse_move("death c=1"), d)
        assert after == (0,)
        assert not closed


class TestTransports:
    def _long_unknot_certificates(self, rng, count=10, steps=4):
        """Validating concordances from random long diagrams to L:.

        Each starts at the end of a random insertion walk from L:, takes a
        second walk of insertions and r3 from there, with room for two more
        crossings, then undoes both walks with their exact inverses.
        Between them the certificates use every Reidemeister kind."""
        kinds = {"r1_insert", "r2_insert", "r3"}
        certs = []
        for _ in range(count):
            first, _, undo_first = random_walk(parse_gauss("L:"), rng, steps, kinds)
            start = first[-1]
            _, there, undo_there = random_walk(
                start, rng, steps, kinds, max_crossings=10
            )
            path = tuple(there) + tuple(reversed(undo_first + undo_there))
            cert = CobordismCertificate(start, path, parse_gauss("L:"))
            assert validate_certificate(cert, "concordance").ok
            certs.append(cert)
        assert {m.kind for cert in certs for m in cert.steps} == R_KINDS
        return certs

    def test_long_to_closure_preserves_counters(self, rng):
        for cert in self._long_unknot_certificates(rng):
            closed = transport_long_to_closure(cert)
            assert closed.counters() == cert.counters()
            assert validate_certificate(closed, "concordance").ok
            assert canonical_key(closed.start) == canonical_key(closure(cert.start))
            assert_ends_agree(render_certificate(closed))

    def test_closure_to_long_shifts_counters(self, rng):
        for cert in self._long_unknot_certificates(rng):
            k = cert.start
            round_cert = transport_long_to_closure(cert)
            lifted = transport_closure_to_long(round_cert, k)
            s, b, d = round_cert.counters()
            assert lifted.counters() == (s + 1, b, d + 1)
            assert validate_certificate(lifted, "concordance").ok
            assert lifted.start == k
            assert canonical_key(lifted.end) == canonical_key(parse_gauss("L:"))
        # The lift onto the round diagram behind the empty strand shifts
        # components, never crossing ids: r3's c names a crossing.
        two_circles = parse_gauss("();()")
        for text, shifted in (("r3 a=1 b=2 c=3", 3), ("death c=1", 2)):
            assert carry_move(parse_move(text), two_circles, comp=[1, 2])["c"] == shifted

    @pytest.mark.parametrize(
        "refused,reason",
        [
            pytest.param(
                lambda: transport_closure_to_long(
                    parse_certificate(KISHINO_CONCORDANCE.replace("death c=1", "birth")),
                    parse_gauss("L:" + KISHINO),
                ),
                "input certificate invalid",
                id="round-cert-invalid",
            ),
            pytest.param(
                lambda: transport_long_to_closure(
                    parse_certificate(EVERY_KIND_LONG.replace("birth\n", "", 1))
                ),
                "input certificate invalid",
                id="long-cert-invalid",
            ),
            pytest.param(
                lambda: transport_closure_to_long(
                    parse_certificate(KISHINO_CONCORDANCE), parse_gauss("L:O1+U2+U1+O2+")
                ),
                "does not start at the closure",
                id="other-start",
            ),
            pytest.param(
                lambda: transport_closure_to_long(
                    CobordismCertificate(parse_gauss(TREFOIL), (), parse_gauss(TREFOIL)),
                    cut(parse_gauss(TREFOIL), 0, 0),
                ),
                "does not end at the unknot",
                id="not-to-unknot",
            ),
            pytest.param(
                lambda: _translate_steps(
                    [parse_gauss("O1+U1+"), parse_gauss("O1+U2+U1+O2+")],
                    (parse_move("r1- x=1"),),
                    parse_gauss("U5+O5+"),
                ),
                "cannot transport step 1",
                id="step-misses-key",
            ),
            pytest.param(
                lambda: _translate_steps(
                    [parse_gauss("O1+U2+U1+O2+"), parse_gauss("()")],
                    (parse_move("r1- x=1"),),
                    parse_gauss("O1+U2+U1+O2+"),
                ),
                "cannot transport step 1",
                id="step-does-not-apply",
            ),
            pytest.param(
                lambda: transport_closure_to_long(
                    parse_certificate(KISHINO_CONCORDANCE), parse_gauss(KISHINO)
                ),
                "needs a long diagram",
                id="round-target",
            ),
            pytest.param(
                lambda: validate_certificate(
                    parse_certificate(KISHINO_CONCORDANCE), "bogus"
                ),
                "unknown claim 'bogus'",
                id="unknown-claim",
            ),
        ],
    )
    def test_invalid_input_refused(self, refused, reason):
        with pytest.raises(CertificateError, match=reason):
            refused()

    def test_long_input_required(self):
        cert = parse_certificate(KISHINO_CONCORDANCE)
        with pytest.raises(CertificateError):
            transport_long_to_closure(cert)

    def test_every_kind_long_round_trip(self):
        cert = parse_certificate(EVERY_KIND_LONG)
        closed = transport_long_to_closure(cert)
        assert closed.counters() == (2, 1, 1)
        assert validate_certificate(closed, "concordance").ok
        lifted = transport_closure_to_long(closed, cert.start)
        assert lifted.counters() == (3, 1, 2)
        assert validate_certificate(lifted, "concordance").ok

    def test_transports_replay_their_input_once(self, monkeypatch):
        # One replay validates the input and keeps the reference line, and
        # translating applies each step once more: two applications a step,
        # plus the split that opens the lift to the long knot.
        calls = 0
        apply = vknots.certificates.apply_move

        def counted(d, m):
            nonlocal calls
            calls += 1
            return apply(d, m)

        monkeypatch.setattr(vknots.certificates, "apply_move", counted)
        cert = parse_certificate(EVERY_KIND_LONG)
        closed = transport_long_to_closure(cert)
        assert calls == 2 * len(cert.steps)
        calls = 0
        transport_closure_to_long(closed, cert.start)
        assert calls == 2 * len(closed.steps) + 1


# (image, lift) pairs, the maps a caller applies to a replay line before
# carrying it: the search's own line, closing the strand, and a round
# diagram placed behind an empty strand.
PLAIN = (lambda ref: ref, lambda m, ref: m)
CLOSE = (closure, lambda m, ref: carry_move(m, ref, closed=True))
STRAND = (
    lambda ref: GaussDiagram(((),) + ref.components, ref.signs, True),
    lambda m, ref: carry_move(m, ref, comp=range(1, ref.n_components + 1)),
)


class TestExactTransport:
    """Every step is carried exactly through the normalizing isos."""

    def _translates(self, d, m, act, lift=PLAIN):
        image, lift_move = lift
        refs = [image(d), image(apply_move(d, m))]
        (moved,) = _translate_steps(refs, (lift_move(m, d),), act)
        return moved

    def test_every_move_onto_scrambled_copies(self):
        rng = random.Random(5)
        done = {"plain": 0, "closure": 0, "strand": 0}
        for _ in range(25):
            d = random_diagram(rng, max_crossings=4)
            lifts = {"plain": PLAIN}
            if d.long:
                lifts["closure"] = CLOSE
            else:
                lifts["strand"] = STRAND
            for name, lift in lifts.items():
                act = scrambled(lift[0](d), rng)
                for m in enumerate_moves(d):
                    try:
                        apply_move(d, m)
                    except ValueError:
                        continue
                    self._translates(d, m, act, lift)
                    done[name] += 1
        assert min(done.values()) > 1000

    def test_poke_on_chordless_circle_keeps_q(self):
        d = parse_gauss("O1+U1+;()")
        act = parse_gauss("();U7+O7+")
        for q in (0, 1):  # both arcs join the two over endpoints
            m = parse_move(f"r2+ c1=1 p=0 c2=1 q={q} sign=+ order=OU")
            moved = self._translates(d, m, act)
            assert (moved["c1"], moved["c2"], moved["q"]) == (0, 0, q)

    def test_poke_on_rotated_component(self):
        # The copy turns the trefoil by r = 3; pokes whose over pair lands
        # at a slot <= 3 turn the intermediate by r + 2.
        d = parse_gauss(TREFOIL)
        comp = d.components[0]
        act = GaussDiagram((comp[3:] + comp[:3],), d.signs, False)
        low = 0
        for m in enumerate_moves(d, kinds={"r2_insert"}):
            if m["c2"] == 0:
                self._translates(d, m, act)
                low += m["p"] < 3
        assert low

    def test_closure_lift_of_poke_at_strand_gap_zero(self):
        d = parse_gauss("L:O1+U2-U1+O2-")
        lifted = 0
        for m in enumerate_moves(d, kinds={"r2_insert"}):
            if m["c1"] == m["c2"] == 0 and m["p"] == 0:
                moved = self._translates(d, m, closure(d), CLOSE)
                k = len(d.components[0]) + 2
                assert moved["q"] == (m["q"] - 3) % k
                lifted += 1
        assert lifted

    def test_no_step_is_rederived_by_enumeration(self, monkeypatch):
        def refuse(*args, **kwargs):
            raise AssertionError("translation enumerated moves")

        monkeypatch.setattr(vknots.certificates, "enumerate_moves", refuse)
        cert = parse_certificate(EVERY_KIND_LONG)
        closed = transport_long_to_closure(cert)
        assert validate_certificate(closed, "concordance").ok
        lifted = transport_closure_to_long(closed, cert.start)
        assert validate_certificate(lifted, "concordance").ok
        out = search_slice(parse_gauss(RELABELED_KISHINO), KISHINO_BUDGET)
        assert out.status == "found"
        assert validate_certificate(out.certificate, "concordance").ok
