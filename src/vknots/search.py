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

Every child is keyed exactly once, through the uncached
`key_and_order`, so no search fills the module-level `canonical_key`
cache; only roots, goals and the translation of a found certificate go
through it.  In the sliceness search a state *is* its canonical key:
the frontier and the parent pointers hold keys, and a diagram is parsed
back from its key only when the state is popped for expansion (most
admitted states never are) or lies on the chain a found certificate is
rebuilt from.

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
first).  With workers > 1, each round expands a batch of states on a
thread pool; children are merged in batch order, so outcomes stay
deterministic.
"""

from __future__ import annotations

import heapq
import time
from concurrent.futures import ThreadPoolExecutor
from dataclasses import dataclass

from .canonical import canonical_key, key_and_order
from .canonical import canonicalize  # noqa: F401  (bench/tracer.py wraps it)
from .certificates import CobordismCertificate, _translate_steps, advance_classes
from .diagram import DiagramError, GaussDiagram, parse_gauss
from .moves import (
    COBORDISM_KINDS,
    R_MOVE_KINDS,
    Move,
    MoveError,
    apply_move,
    apply_move_with_inverse,
    enumerate_moves,
)
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
    workers: int = 1

    def __post_init__(self):
        for name in (
            "max_crossings",
            "max_components",
            "max_saddles",
            "max_births",
            "max_deaths",
            "max_nodes",
            "max_depth",
        ):
            if getattr(self, name) < 0:
                raise ValueError(f"{name} must be nonnegative")
        if self.workers < 1:
            raise ValueError("workers must be >= 1")

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


# -- shared engine pieces ------------------------------------------------


class _Dedup:
    """Key -> minimal (s, b, d, depth) vectors, with dominance."""

    def __init__(self):
        self.table: dict[str, list[tuple[int, int, int, int]]] = {}
        self.hits = 0

    def admit(self, key: str, vec: tuple[int, int, int, int]) -> bool:
        entries = self.table.setdefault(key, [])
        for old in entries:
            if all(o <= n for o, n in zip(old, vec)):
                self.hits += 1
                return False
        entries[:] = [e for e in entries if not all(n <= o for o, n in zip(e, vec))]
        entries.append(vec)
        return True


def _allowed_kinds(
    d: GaussDiagram, spent: tuple[int, int, int], budget: SearchBudget,
    cap_n: int, cap_c: int, cobordism: bool,
) -> set[str]:
    kinds = {"r1_delete", "r2_delete", "r3"}
    if d.n_crossings + 1 <= cap_n:
        kinds.add("r1_insert")
    if d.n_crossings + 2 <= cap_n:
        kinds.add("r2_insert")
    if cobordism:
        s, b, dd = spent
        if s < budget.max_saddles:
            kinds.add("saddle")
        if b < budget.max_births and d.n_components + 1 <= cap_c:
            kinds.add("birth")
        if dd < budget.max_deaths:
            kinds.add("death")
    return kinds


def _expand(state) -> list[tuple[Move, GaussDiagram]]:
    diagram, kinds = state
    out = []
    for m in enumerate_moves(diagram, kinds=kinds):
        try:
            out.append((m, apply_move(diagram, m)))
        except MoveError:
            continue
    return out


def _partition_tag(classes: tuple[int, ...]) -> str:
    """Dedup suffix for a nontrivial canonical partition."""
    if len(set(classes)) <= 1:
        return ""
    return "|" + ",".join(map(str, classes))


# -- sliceness -----------------------------------------------------------


def search_slice(d: GaussDiagram, budget: SearchBudget) -> SearchOutcome:
    """Search for a concordance from a round knot to the unknot.

    The frontier holds canonical keys, not diagrams or paths: a state's
    diagram is parsed from its key when the state is popped for
    expansion, paths are reconstructed through parent pointers, and a
    found path is translated back onto the input diagram's own replay
    line, which keeps memory per state small."""
    if d.long:
        raise DiagramError("search_slice needs a round diagram")
    if d.n_components != 1:
        raise DiagramError("search_slice needs a one-component knot")
    t0 = time.perf_counter()
    goal_key = canonical_key(parse_gauss("()"))
    cap_n = max(budget.max_crossings, d.n_crossings)
    cap_c = max(budget.max_components, d.n_components)

    def done(status, cert, nodes, dedup):
        ms = int((time.perf_counter() - t0) * 1000)
        return SearchOutcome(status, cert, nodes, dedup, ms)

    root_key = canonical_key(d)
    if root_key == goal_key:
        return done("found", CobordismCertificate(d, (), parse_gauss("()")), 0, 0)

    parents: dict[int, tuple[int, Move, str]] = {}  # seq -> (parent, move, key)

    def certificate(final_seq: int, last_move: Move) -> CobordismCertificate:
        chain: list[tuple[Move, str]] = [(last_move, goal_key)]
        sq = final_seq
        while sq:
            parent, move, key = parents[sq]
            chain.append((move, key))
            sq = parent
        chain.reverse()
        # canonical keys parse back to the canonical normal form
        refs = [parse_gauss(root_key)] + [parse_gauss(key) for _, key in chain]
        steps = tuple(move for move, _ in chain)
        translated = _translate_steps(
            refs, steps, d, image=lambda x: x, comp_map={},
            shift_strand_arcs=False,
        )
        return CobordismCertificate(d, tuple(translated), parse_gauss("()"))

    # A path of length L expands L distinct prefixes, so when
    # max_depth >= max_nodes the depth cap can never bind and depth can
    # be dropped from the dominance vector, collapsing depth variants.
    track_depth = budget.max_depth < budget.max_nodes

    dedup = _Dedup()
    dedup.admit(root_key, (0, 0, 0, 0))
    heap = []
    seq = 0
    # entry: (priority, seq, key, (s, b, d), depth, classes)
    heapq.heappush(
        heap, (d.n_crossings + d.n_components, 0, root_key, (0, 0, 0), 0, (0,))
    )
    nodes = 0
    pool = ThreadPoolExecutor(budget.workers) if budget.workers > 1 else None
    try:
        while heap:
            if len(heap) > budget.max_nodes - nodes:
                # The frontier alone outnumbers the remaining node
                # allowance, so this run can no longer end in
                # "exhausted".  Stop now instead of spending the rest of
                # the allowance (and the memory its admissions would
                # cost); a certificate that the forfeited expansions
                # might have produced needs a larger budget anyway.
                return done("budget-hit", None, nodes, dedup.hits)
            batch = []
            while heap and len(batch) < budget.workers:
                if nodes + len(batch) >= budget.max_nodes:
                    break
                batch.append(heapq.heappop(heap))
            if not batch:
                return done("budget-hit" if heap else "exhausted", None, nodes, dedup.hits)
            nodes += len(batch)
            jobs = []
            for _, _, key, spent, _, _ in batch:
                diag = parse_gauss(key)
                kinds = _allowed_kinds(diag, spent, budget, cap_n, cap_c, True)
                jobs.append((diag, kinds))
            results = pool.map(_expand, jobs) if pool else map(_expand, jobs)
            for (_, sq, _, spent, depth, classes), (diag, _), children in zip(
                batch, jobs, results
            ):
                if track_depth and depth + 1 > budget.max_depth:
                    continue
                for m, child in children:
                    if child.n_crossings > cap_n or child.n_components > cap_c:
                        continue
                    raw_classes, closed = advance_classes(classes, m, diag)
                    if closed:
                        continue  # would disconnect the cobordism surface
                    s, b, dd = spent
                    if m.kind == "saddle":
                        s += 1
                    elif m.kind == "birth":
                        b += 1
                    elif m.kind == "death":
                        dd += 1
                    child_key, order = key_and_order(child)
                    if child_key == goal_key and s == b + dd:
                        return done("found", certificate(sq, m), nodes, dedup.hits)
                    # the partition in canonical component order,
                    # relabeled by first appearance so it is
                    # isomorphism-invariant
                    relabel: dict[int, int] = {}
                    child_classes = tuple(
                        relabel.setdefault(raw_classes[i], len(relabel))
                        for i in order
                    )
                    if not dedup.admit(
                        child_key + _partition_tag(child_classes),
                        (s, b, dd, depth + 1 if track_depth else 0),
                    ):
                        continue
                    seq += 1
                    parents[seq] = (sq, m, child_key)
                    prio = child.n_crossings + child.n_components
                    heapq.heappush(
                        heap,
                        (prio, seq, child_key, (s, b, dd), depth + 1, child_classes),
                    )
        return done("exhausted", None, nodes, dedup.hits)
    finally:
        if pool:
            pool.shutdown(wait=False)


# -- pairwise equivalence ------------------------------------------------


def search_equivalent(
    a: GaussDiagram, b: GaussDiagram, budget: SearchBudget
) -> SearchOutcome:
    """Meet-in-the-middle Reidemeister-move search from a to b.

    A found certificate uses R-moves only (all cobordism counters zero).
    """
    if a.long != b.long:
        raise DiagramError("cannot relate a long and a round diagram")
    t0 = time.perf_counter()

    def done(status, cert, nodes, dedup):
        ms = int((time.perf_counter() - t0) * 1000)
        return SearchOutcome(status, cert, nodes, dedup, ms)

    key_a, key_b = canonical_key(a), canonical_key(b)
    if key_a == key_b:
        return done("found", CobordismCertificate(a, (), b), 0, 0)

    cap_n = max(budget.max_crossings, a.n_crossings, b.n_crossings)
    cap_c = max(budget.max_components, a.n_components, b.n_components)
    # visited[side]: key -> (diagram, path from that side's root)
    visited = ({key_a: (a, ())}, {key_b: (b, ())})
    heaps = [[], []]
    heapq.heappush(heaps[0], (a.n_crossings + a.n_components, 0, a, 0, ()))
    heapq.heappush(heaps[1], (b.n_crossings + b.n_components, 0, b, 0, ()))
    seq = 0
    nodes = 0
    hits = 0
    pool = ThreadPoolExecutor(budget.workers) if budget.workers > 1 else None
    try:
        while heaps[0] or heaps[1]:
            if len(heaps[0]) + len(heaps[1]) > budget.max_nodes - nodes:
                # more states admitted than the node allowance could ever
                # expand: the run cannot end in "exhausted" (see
                # search_slice)
                return done("budget-hit", None, nodes, hits)
            for side in (0, 1):
                heap = heaps[side]
                batch = []
                while heap and len(batch) < budget.workers:
                    if nodes + len(batch) >= budget.max_nodes:
                        break
                    batch.append(heapq.heappop(heap))
                if not batch:
                    if nodes >= budget.max_nodes and (heaps[0] or heaps[1]):
                        return done("budget-hit", None, nodes, hits)
                    continue
                nodes += len(batch)
                jobs = [
                    (diag, _allowed_kinds(diag, (0, 0, 0), budget, cap_n, cap_c, False))
                    for _, _, diag, _, _ in batch
                ]
                results = pool.map(_expand, jobs) if pool else map(_expand, jobs)
                for (_, _, diag, depth, path), children in zip(batch, results):
                    if depth + 1 > budget.max_depth:
                        continue
                    for m, child in children:
                        if child.n_crossings > cap_n or child.n_components > cap_c:
                            continue
                        key = key_and_order(child)[0]
                        if key in visited[side]:
                            hits += 1
                            continue
                        visited[side][key] = (child, path + (m,))
                        if key in visited[1 - side]:
                            cert = _splice(a, b, key, visited)
                            return done("found", cert, nodes, hits)
                        seq += 1
                        prio = child.n_crossings + child.n_components
                        heapq.heappush(
                            heap, (prio, seq, child, depth + 1, path + (m,))
                        )
        return done("exhausted", None, nodes, hits)
    finally:
        if pool:
            pool.shutdown(wait=False)


def _splice(a: GaussDiagram, b: GaussDiagram, key: str, visited) -> CobordismCertificate:
    """Join the two half-paths meeting at `key` into one a-to-b certificate."""
    meet_a, path_a = visited[0][key]
    meet_b, path_b = visited[1][key]
    # Reverse the b-side path: replay it collecting exact inverses.
    chain = [b]
    invs = []
    for m in path_b:
        nxt, inv = apply_move_with_inverse(chain[-1], m)
        chain.append(nxt)
        invs.append(inv)
    # Reversed reference line runs meet_b -> ... -> b.
    refs = chain[::-1]
    steps_back = invs[::-1]
    translated = _translate_steps(
        refs, tuple(steps_back), meet_a, image=lambda x: x, comp_map={}, shift_strand_arcs=False
    )
    return CobordismCertificate(a, tuple(path_a) + tuple(translated), b)


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
    cap_n = max(budget.max_crossings, d.n_crossings)
    cap_c = max(budget.max_components, d.n_components)

    best = d
    best_rank = (d.n_crossings, carter_genus(d))
    min_genus = best_rank[1]

    track_depth = budget.max_depth < budget.max_nodes  # see search_slice

    dedup = _Dedup()
    dedup.admit(canonical_key(d), (0, 0, 0, 0))
    heap = [(d.n_crossings + d.n_components, 0, d, 0)]
    seq = 0
    nodes = 0
    pool = ThreadPoolExecutor(budget.workers) if budget.workers > 1 else None
    try:
        while heap and nodes < budget.max_nodes:
            batch = []
            while heap and len(batch) < budget.workers and nodes + len(batch) < budget.max_nodes:
                batch.append(heapq.heappop(heap))
            nodes += len(batch)
            jobs = [
                (diag, _allowed_kinds(diag, (0, 0, 0), budget, cap_n, cap_c, False))
                for _, _, diag, _ in batch
            ]
            results = pool.map(_expand, jobs) if pool else map(_expand, jobs)
            for (_, _, diag, depth), children in zip(batch, results):
                if track_depth and depth + 1 > budget.max_depth:
                    continue
                for _, child in children:
                    if child.n_crossings > cap_n or child.n_components > cap_c:
                        continue
                    key = key_and_order(child)[0]
                    if not dedup.admit(key, (0, 0, 0, depth + 1 if track_depth else 0)):
                        continue
                    if child.n_crossings <= best_rank[0]:
                        g = carter_genus(child)
                        min_genus = min(min_genus, g)
                        rank = (child.n_crossings, g)
                        if rank < best_rank:
                            best, best_rank = child, rank
                            if best_rank == (0, 0):  # nothing smaller exists
                                return best, min_genus
                    seq += 1
                    prio = child.n_crossings + child.n_components
                    heapq.heappush(heap, (prio, seq, child, depth + 1))
        return best, min_genus
    finally:
        if pool:
            pool.shutdown(wait=False)
