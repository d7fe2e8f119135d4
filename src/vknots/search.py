"""Budgeted certificate search over the move calculus.

Three best-first searches share the budget, dedup and expansion
helpers: sliceness (find a cobordism path from a knot to the unknot
satisfying saddles = births + deaths), pairwise equivalence (Reidemeister
moves only, meeting in the middle from both ends), and crossing
reduction (Reidemeister moves only, tracking the best diagram seen).

The state space is infinite, so every search runs under a SearchBudget
capping crossings, components, cobordism-move counts, depth, and
expanded nodes.  "exhausted" always means exhausted *within budget*; it
is never a nonexistence proof.  Conversely "budget-hit" is returned as
soon as it is provable: once more states have been admitted to the
frontier than max_nodes could ever expand, the run can no longer end in
"exhausted" and stops rather than spend the rest of the allowance (a
certificate the forfeited expansions might have produced needs a larger
budget to be reported).

A child is never built as a `GaussDiagram` to be keyed: the applier
core returns its endpoint lists and sign table, the endpoint check
every diagram gets runs on those lists, and the child is keyed exactly
once from them, uncached, so no search fills the module-level
`canonical_key` cache; only roots and goals go through it.  In every
search a state *is* its canonical key: the frontier and the parent
pointers hold keys, and a diagram is parsed back from its key only when
the state is popped for expansion (roots too; most admitted states
never are) or lies on a found chain.  The one child diagram built is a
reduction candidate no larger than the best seen, for its Carter genus.

A parent pointer (parent seq, move index, key) names the move that made
its state by the move's index in the parent's enumeration, not by a
`Move`: enumeration is deterministic, so a found chain is rebuilt by
enumerating again the few diagrams on it, then translated onto the
input.  Small tuples (cobordism counters, dedup vectors, surface
partitions) take only a handful of distinct values, and each search
shares one tuple per value among its states.

States are deduplicated on (canonical key, spent cobordism counters,
depth) with dominance: a state is skipped when an already-visited state
has the same key and componentwise smaller-or-equal counters and depth,
since any completion of the new state also completes the old one.

The sliceness search additionally tracks which diagram components lie
on a common cobordism-surface piece.  A death that would cap off an
isolated piece is never expanded (a valid concordance contains no such
closure), and while the piece partition is nontrivial it joins the
dedup identity, since two states with the same diagram but different
partitions admit different completions.

Expansion is deterministic best-first on crossing count plus component
count, biased toward simplification (deletion moves are enumerated
first).  All three searches run through the one loop of `_BestFirst`,
which owns popping and parsing, the node and depth caps, expansion, the
keying of children and the rebuilding of a found chain, and leaves each
search the rest of its frontier payload, admission and goal test.
"""

from __future__ import annotations

import heapq
import itertools
import time
from dataclasses import dataclass, fields

from .canonical import _key_and_order, canonical_key
from .canonical import canonicalize  # noqa: F401  (bench/tracer.py wraps it)
from .certificates import CobordismCertificate, _translate_steps, advance_classes
from .diagram import DiagramError, GaussDiagram, _check_endpoints, parse_gauss
from .moves import (
    Move,
    MoveError,
    _apply_core,
    _build,
    apply_move_with_inverse,
    enumerate_moves,
)
from .moves import apply_move  # noqa: F401  (bench/tracer.py wraps it)
from .surface import carter_genus


@dataclass(frozen=True)
class SearchBudget:
    max_crossings: int = 8
    max_components: int = 4
    max_saddles: int = 0
    max_births: int = 0
    max_deaths: int = 0
    max_nodes: int = 100_000
    max_depth: int = 16

    def __post_init__(self):
        for f in fields(self):
            if getattr(self, f.name) < 0:
                raise ValueError(f"{f.name} must be nonnegative")

    @staticmethod
    def small() -> "SearchBudget":
        return SearchBudget(
            max_crossings=6, max_components=3, max_nodes=2000, max_depth=8
        )


@dataclass(frozen=True)
class SearchOutcome:
    status: str  # "found" | "exhausted" | "budget-hit"
    certificate: CobordismCertificate | None
    nodes: int
    dedup: int
    ms: int

    def record(self) -> str:
        return (
            f"status={self.status} nodes={self.nodes} "
            f"dedup={self.dedup} ms={self.ms}"
        )


# -- the engine ----------------------------------------------------------


class _Dedup:
    """Key -> minimal (s, b, d, depth) vectors, with dominance.

    A path of length L expands L distinct prefixes, so when max_depth >=
    max_nodes the depth cap can never bind and depth is dropped from the
    vector, collapsing depth variants.  `share` keeps one tuple per
    distinct value for the whole search, for the vectors and for any
    other small tuple its states repeat."""

    def __init__(self, budget: SearchBudget):
        self.track_depth = budget.max_depth < budget.max_nodes
        self.table: dict[str, tuple[tuple[int, int, int, int], ...]] = {}
        self.tuples: dict[tuple, tuple] = {}
        self.hits = 0

    def share(self, t: tuple) -> tuple:
        """The one tuple equal to `t` that this search keeps."""
        return self.tuples.setdefault(t, t)

    def admit(self, key: str, spent: tuple[int, int, int], depth: int) -> bool:
        vec = (*spent, depth if self.track_depth else 0)
        entries = self.table.get(key, ())
        for old in entries:
            if all(o <= n for o, n in zip(old, vec)):
                self.hits += 1
                return False
        kept = [e for e in entries if not all(n <= o for o, n in zip(e, vec))]
        self.table[key] = (*kept, self.share(vec))
        return True


def _partition_tag(classes: tuple[int, ...]) -> str:
    """Dedup suffix for a nontrivial canonical partition."""
    if len(set(classes)) <= 1:
        return ""
    return "|" + ",".join(map(str, classes))


_COST = {"saddle": (1, 0, 0), "birth": (0, 1, 0), "death": (0, 0, 1)}


def _spend(spent: tuple[int, int, int], kind: str) -> tuple[int, int, int]:
    """The cobordism counters after a move of `kind`: the same tuple
    after an R-move."""
    cost = _COST.get(kind)
    return spent if cost is None else tuple(x + y for x, y in zip(spent, cost))


def _chain(parents: dict, sq: int) -> list[tuple]:
    """The parent records (parent seq, move index, ...) from a root to `sq`."""
    out = []
    while sq in parents:
        out.append(parents[sq])
        sq = parents[sq][0]
    return out[::-1]


class _BestFirst:
    """The best-first loop that all three searches run through.

    There is one frontier per root diagram, a heap of entries
    (priority, seq, depth, key, *payload) popped in (priority, seq)
    order; the state's canonical key opens the payload and the rest is
    the search's own.  `states` pops one state from each nonempty
    frontier in turn and parses its key, `children` expands a popped
    state and keys its children, and `line` rebuilds a found chain, so a
    search supplies only its payload, the admission of children and its
    goal test.  The caps on crossings and components are the budget's,
    raised to fit the roots.
    """

    def __init__(
        self, budget: SearchBudget, roots: tuple[GaussDiagram, ...],
        cobordism: bool = False,
    ):
        self.t0 = time.perf_counter()
        self.budget = budget
        self.cap_n = max(budget.max_crossings, *(r.n_crossings for r in roots))
        self.cap_c = max(budget.max_components, *(r.n_components for r in roots))
        self.cobordism = cobordism
        self.frontiers: list[list[tuple]] = [[] for _ in roots]
        self.seq = 0
        self.nodes = 0
        self.status = "exhausted"

    def outcome(self, cert: CobordismCertificate | None, dedup: int) -> SearchOutcome:
        """The run's outcome: "found" with `cert`, else the loop's status."""
        ms = int((time.perf_counter() - self.t0) * 1000)
        status = self.status if cert is None else "found"
        return SearchOutcome(status, cert, self.nodes, dedup, ms)

    def push(self, side: int, size: int, depth: int, *payload) -> int:
        """Admit a state of `size` crossings plus components to frontier
        `side`; return its seq."""
        seq = self.seq
        self.seq += 1
        heapq.heappush(self.frontiers[side], (size, seq, depth, *payload))
        return seq

    def states(self, stop_when_overfull: bool = True):
        """Yield (side, entry, diagram) for each popped state below the
        depth cap, the diagram parsed from the entry's key.

        Every pop counts as a node, also of a state at the depth cap,
        which is dropped before any work is spent on it.  The run stops
        with status "budget-hit" when max_nodes states have been popped
        and a frontier is still nonempty, and, with `stop_when_overfull`,
        at the start of a round in which the frontiers together
        outnumber the nodes left (see the module docstring); it is
        "exhausted" when every frontier is empty.
        """
        budget = self.budget
        while any(self.frontiers):
            if (
                stop_when_overfull
                and sum(map(len, self.frontiers)) > budget.max_nodes - self.nodes
            ):
                self.status = "budget-hit"
                return
            for side, heap in enumerate(self.frontiers):
                if not heap:
                    continue
                if self.nodes >= budget.max_nodes:
                    self.status = "budget-hit"
                    return
                entry = heapq.heappop(heap)
                self.nodes += 1
                if entry[2] < budget.max_depth:
                    yield side, entry, parse_gauss(entry[3])

    def kinds(
        self, diag: GaussDiagram, spent: tuple[int, int, int] = (0, 0, 0)
    ) -> set[str]:
        """The move kinds expanded from `diag` at cobordism counters
        `spent`: insertions while they fit the crossing cap, and in a
        cobordism search each cobordism move while the budget allows it."""
        cap_n, cap_c = self.cap_n, self.cap_c
        kinds = {"r1_delete", "r2_delete", "r3"}
        if diag.n_crossings + 1 <= cap_n:
            kinds.add("r1_insert")
        if diag.n_crossings + 2 <= cap_n:
            kinds.add("r2_insert")
        if self.cobordism:
            s, b, dd = spent
            if s < self.budget.max_saddles:
                kinds.add("saddle")
            if b < self.budget.max_births and diag.n_components + 1 <= cap_c:
                kinds.add("birth")
            if dd < self.budget.max_deaths:
                kinds.add("death")
        return kinds

    def line(
        self, root_key: str, chain: list[tuple[int, int, str]]
    ) -> tuple[list[GaussDiagram], list[Move]]:
        """The reference line (refs, steps) of a chain of parent records
        (parent, index, key) from the root keyed `root_key`: the
        diagrams parsed from the keys, and the move `children` numbered
        each index from the diagram before it, read off its enumeration
        with the cobordism counters carried forward from (0, 0, 0)."""
        refs = [parse_gauss(root_key)]
        steps: list[Move] = []
        spent = (0, 0, 0)
        for _, index, key in chain:
            moves = enumerate_moves(refs[-1], kinds=self.kinds(refs[-1], spent))
            steps.append(next(itertools.islice(moves, index, None)))
            spent = _spend(spent, steps[-1].kind)
            refs.append(parse_gauss(key))
        return refs, steps

    def children(
        self, diag: GaussDiagram, spent: tuple[int, int, int] = (0, 0, 0),
        classes: tuple[int, ...] = (),
    ):
        """Yield (index, move, key, order, comps, signs, classes) for each
        move allowed from `diag` at cobordism counters `spent` whose
        result stays within the caps, in enumeration order; index is the
        move's position in the enumeration of `kinds(diag, spent)`.

        A child is the endpoint lists `comps` and sign table `signs` the
        applier core edits, never a `GaussDiagram`: its endpoints are
        checked and it is keyed once, with the winning component order,
        from those lists.  In a cobordism search `classes` labels the
        surface piece of each component of `diag` and is carried across
        the move; a move that closes off a piece is dropped."""
        cap_n, cap_c = self.cap_n, self.cap_c
        for i, m in enumerate(enumerate_moves(diag, kinds=self.kinds(diag, spent))):
            try:
                comps, signs, _ = _apply_core(diag, m)
            except MoveError:
                continue
            _check_endpoints(comps, signs)
            if len(signs) > cap_n or len(comps) > cap_c:
                continue
            child_classes = classes
            if self.cobordism:
                child_classes, closed = advance_classes(classes, m, diag)
                if closed:
                    continue  # would disconnect the cobordism surface
            key, order = _key_and_order(comps, signs, diag.long)
            yield i, m, key, order, comps, signs, child_classes


# -- sliceness -----------------------------------------------------------


def search_slice(d: GaussDiagram, budget: SearchBudget) -> SearchOutcome:
    """Search for a concordance from a round knot to the unknot.

    The source paper's main theorem: a classical knot is virtually slice
    if and only if it is classically slice.  So for a classical input a
    classical concordance obstruction proves that no certificate exists
    at any budget.  This search finds certificates only: "exhausted"
    still means exhausted within the budget's caps, never a proof that
    the knot is not slice."""
    if d.long:
        raise DiagramError("search_slice needs a round diagram")
    if d.n_components != 1:
        raise DiagramError("search_slice needs a one-component knot")
    run = _BestFirst(budget, (d,), cobordism=True)
    goal_key = canonical_key(parse_gauss("()"))
    root_key = canonical_key(d)
    if root_key == goal_key:
        return run.outcome(CobordismCertificate(d, (), parse_gauss("()")), 0)

    parents: dict[int, tuple[int, int, str]] = {}  # seq -> (parent, index, key)
    dedup = _Dedup(budget)
    dedup.admit(root_key, (0, 0, 0), 0)
    # payload: (key, (s, b, d), classes)
    run.push(0, d.n_crossings + d.n_components, 0, root_key, (0, 0, 0), (0,))
    for _, (_, sq, depth, _, spent, classes), diag in run.states():
        for index, m, child_key, order, comps, signs, raw_classes in run.children(
            diag, spent, classes
        ):
            child_spent = _spend(spent, m.kind)
            s, b, dd = child_spent
            if child_key == goal_key and s == b + dd:
                chain = _chain(parents, sq) + [(sq, index, child_key)]
                refs, steps = run.line(root_key, chain)
                translated = _translate_steps(refs, tuple(steps), d)
                cert = CobordismCertificate(d, tuple(translated), refs[-1])
                return run.outcome(cert, dedup.hits)
            # the partition in canonical component order, relabeled by
            # first appearance so it is isomorphism-invariant
            relabel: dict[int, int] = {}
            child_classes = tuple(
                relabel.setdefault(raw_classes[i], len(relabel)) for i in order
            )
            tag = _partition_tag(child_classes)
            if not dedup.admit(child_key + tag, child_spent, depth + 1):
                continue
            seq = run.push(
                0, len(signs) + len(comps), depth + 1, child_key,
                dedup.share(child_spent), dedup.share(child_classes),
            )
            parents[seq] = (sq, index, child_key)
    return run.outcome(None, dedup.hits)


# -- pairwise equivalence ------------------------------------------------


def search_equivalent(
    a: GaussDiagram, b: GaussDiagram, budget: SearchBudget
) -> SearchOutcome:
    """Meet-in-the-middle Reidemeister-move search from a to b.

    A found certificate uses R-moves only (all cobordism counters zero).
    R-moves keep a diagram long or round and keep its number of
    components, so inputs that differ in either are refused with
    DiagramError before any search.
    """
    if a.long != b.long:
        raise DiagramError("cannot relate a long and a round diagram")
    if a.n_components != b.n_components:
        raise DiagramError(
            f"cannot relate diagrams with {a.n_components} and "
            f"{b.n_components} components by R-moves"
        )
    run = _BestFirst(budget, (a, b))
    key_a, key_b = canonical_key(a), canonical_key(b)
    if key_a == key_b:
        return run.outcome(CobordismCertificate(a, (), b), 0)

    # visited[side]: key -> seq of the state on that side, whose chain is
    # read back through `parents`
    visited = (
        {key_a: run.push(0, a.n_crossings + a.n_components, 0, key_a)},
        {key_b: run.push(1, b.n_crossings + b.n_components, 0, key_b)},
    )
    parents: dict[int, tuple[int, int, str]] = {}  # seq -> (parent, index, key)
    hits = 0
    for side, (_, sq, depth, _), diag in run.states():
        for index, _, key, _, comps, signs, _ in run.children(diag):
            if key in visited[side]:
                hits += 1
                continue
            if key in visited[1 - side]:
                here = _chain(parents, sq) + [(sq, index, key)]
                there = _chain(parents, visited[1 - side][key])
                chain_a, chain_b = (here, there) if side == 0 else (there, here)
                cert = _splice(a, run.line(key_a, chain_a), run.line(key_b, chain_b), b)
                return run.outcome(cert, hits)
            seq = visited[side][key] = run.push(
                side, len(signs) + len(comps), depth + 1, key
            )
            parents[seq] = (sq, index, key)
    return run.outcome(None, hits)


def _splice(
    a: GaussDiagram, line_a: tuple[list, list], line_b: tuple[list, list],
    b: GaussDiagram,
) -> CobordismCertificate:
    """Join the reference lines from the normal forms of a and of b to
    one meeting state into one a-to-b certificate.

    b's line is reversed through the exact inverse of each step.  An
    inverse acts on the diagram its step reached, which has the next
    ref's key but not its labels, so the reversed line runs through the
    reached diagrams back to b's normal form.  The joined line is
    translated onto a at once."""
    refs, steps = line_a
    refs_b, steps_b = line_b
    back = [apply_move_with_inverse(r, m) for r, m in zip(refs_b, steps_b)][::-1]
    line = refs[:-1] + [reached for reached, _ in back] + refs_b[:1]
    translated = _translate_steps(line, tuple(steps + [inv for _, inv in back]), a)
    return CobordismCertificate(a, tuple(translated), b)


# -- crossing reduction --------------------------------------------------


def reduce_diagram(
    d: GaussDiagram, budget: SearchBudget
) -> tuple[GaussDiagram, int]:
    """Best-first R-move search minimizing (crossings, carter_genus).

    Returns the best diagram visited and the minimum Carter genus over
    the visited diagrams at or below the best crossing count seen (an
    upper bound for virtual genus).
    """
    if d.long:
        raise DiagramError("reduce_diagram needs a round diagram")
    best = d
    best_rank = (d.n_crossings, carter_genus(d))
    if best_rank == (0, 0):  # nothing smaller exists
        return d, 0
    min_genus = best_rank[1]

    root_key = canonical_key(d)
    dedup = _Dedup(budget)
    dedup.admit(root_key, (0, 0, 0), 0)
    run = _BestFirst(budget, (d,))
    run.push(0, d.n_crossings + d.n_components, 0, root_key)
    # No early stop: the best diagram seen improves until the last node.
    for _, (_, _, depth, _), diag in run.states(stop_when_overfull=False):
        for _, _, key, _, comps, signs, _ in run.children(diag):
            if not dedup.admit(key, (0, 0, 0), depth + 1):
                continue
            if len(signs) <= best_rank[0]:
                child = _build(comps, signs, diag.long)
                g = carter_genus(child)
                min_genus = min(min_genus, g)
                rank = (child.n_crossings, g)
                if rank < best_rank:
                    best, best_rank = child, rank
                    if best_rank == (0, 0):  # nothing smaller exists
                        return best, min_genus
            run.push(0, len(signs) + len(comps), depth + 1, key)
    return best, min_genus
