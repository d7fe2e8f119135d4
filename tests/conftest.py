"""Shared fixtures and generators for the test suite."""

from __future__ import annotations

import argparse
import os
import random
import subprocess
import sys
from pathlib import Path

import pytest

from vknots import GaussDiagram, apply_move_with_inverse, enumerate_moves, parse_gauss
from vknots.cli import build_parser

KINK = "O1+U1+"
TREFOIL = "O1+U2+O3+U1+O2+U3+"
VIRTUAL_TREFOIL = "O1+U2+U1+O2+"
KISHINO = "O1+U2-U1+O2-U3-O4+O3-U4+"

SRC = Path(__file__).resolve().parents[1] / "src"


def cli_subcommands() -> dict:
    """The parser of each `vknots` subcommand, by name."""
    (action,) = [
        a for a in build_parser()._actions if isinstance(a, argparse._SubParsersAction)
    ]
    return action.choices


def run_cli(*args):
    """Run ``python -m vknots.cli`` from this checkout: `src/` goes first
    on the subprocess's PYTHONPATH, so no install is needed."""
    path = os.pathsep.join(filter(None, [str(SRC), os.environ.get("PYTHONPATH")]))
    return subprocess.run(
        [sys.executable, "-m", "vknots.cli", *args],
        capture_output=True,
        text=True,
        env=dict(os.environ, PYTHONPATH=path),
    )


# 30 hand-picked diagrams: knots, links, long knots, degenerate cases.
CORPUS = [
    "()",
    "L:",
    KINK,
    "O1-U1-",
    "U1+O1+",
    TREFOIL,
    VIRTUAL_TREFOIL,
    KISHINO,
    "O1-U2-O3-U1-O2-U3-",          # left trefoil
    "O1+U2-U1+O2-",                 # virtual trefoil variant
    "O1+O2+U1+U2+",
    "O1+U1+O2-U2-",
    "O1+U2+;U1+O2+",                # 2-component link
    "O1+U1+;()",
    "();()",
    "O1-U2+U1-O2+;O3+U3+",
    "L:O1+U1+",
    "L:O1+U2-U1+O2-",
    "L:" + KISHINO,
    "L:O1+;U1+",                    # long with closed companion
    "L:();O1+U1+",                  # chordless strand, closed kink
    "O1+U2+O3+U1+O2+U3+;()",
    "U1-U2-O1-O2-",
    "U1+O2+O1+U2+",                 # interleaved chords
    "O1+U2-O3+U4-U1+O2-U3+O4-",
    "L:O1+U2+U1+O2+",
    "O1+U1+O2+U2+O3+U3+",
    "O1-U2-U1-O2-O3+U3+",
    "O1+U2+U3+O4+U1+O2+O3+U4+",
    "L:O1-U1-;O2+U2+",
]
assert len(CORPUS) == 30


def random_diagram(rng: random.Random, max_crossings: int = 5) -> GaussDiagram:
    """A uniform-ish random valid diagram: any placement of O/U endpoint
    pairs on any components is a valid virtual diagram."""
    n = rng.randint(0, max_crossings)
    n_comps = rng.randint(1, 3)
    long = rng.random() < 0.4
    tokens = []
    for cid in range(1, n + 1):
        sign = rng.choice("+-")
        tokens.append(f"O{cid}{sign}")
        tokens.append(f"U{cid}{sign}")
    rng.shuffle(tokens)
    comps = [[] for _ in range(n_comps)]
    for tok in tokens:
        comps[rng.randrange(n_comps)].append(tok)
    parts = ["".join(c) if c else "()" for c in comps]
    return parse_gauss(("L:" if long else "") + ";".join(parts))


def scrambled(d: GaussDiagram, rng: random.Random) -> GaussDiagram:
    """An isomorphic copy: crossings renumbered, cyclic components
    rotated, components shuffled behind the strand."""
    ids = rng.sample(range(1, 10 * d.n_crossings + 10), d.n_crossings)
    relabel = dict(zip(d.crossing_ids, ids))
    comps = []
    for i, comp in enumerate(d.components):
        comp = tuple((relabel[cid], role) for cid, role in comp)
        if comp and not (d.long and i == 0):
            r = rng.randrange(len(comp))
            comp = comp[r:] + comp[:r]
        comps.append(comp)
    head, rest = (comps[:1], comps[1:]) if d.long else ([], comps)
    rng.shuffle(rest)
    signs = tuple(sorted((relabel[cid], s) for cid, s in d.signs))
    return GaussDiagram(tuple(head + rest), signs, d.long)


def random_walk(
    d: GaussDiagram,
    rng: random.Random,
    steps: int,
    kinds: set[str],
    max_crossings: int = 8,
):
    """Apply `steps` random legal moves; returns (diagrams, moves, inverses).

    diagrams[0] is `d`; diagrams[i+1] = moves[i] applied to diagrams[i].
    """
    diagrams = [d]
    moves = []
    inverses = []
    for _ in range(steps):
        cur = diagrams[-1]
        allowed = set(kinds)
        if cur.n_crossings + 2 > max_crossings:
            allowed -= {"r2_insert"}
        if cur.n_crossings + 1 > max_crossings:
            allowed -= {"r1_insert"}
        cands = list(enumerate_moves(cur, kinds=allowed))
        if not cands:
            break
        m = rng.choice(cands)
        nxt, inv = apply_move_with_inverse(cur, m)
        diagrams.append(nxt)
        moves.append(m)
        inverses.append(inv)
    return diagrams, moves, inverses


@pytest.fixture
def rng() -> random.Random:
    return random.Random(20260823)
