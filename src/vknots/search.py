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
once from them, uncached.  In every search a state *is* its key
(`canonical.compact_key`, one byte per endpoint): the frontier, the
dedup tables and the parent pointers hold keys, roots and goal
included, and only the roots pass through the key cache.  A diagram
is built back from its key only when the state is popped for
expansion (roots too; most admitted states never are) or lies on a
found chain.  The one child diagram built is a reduction
candidate no larger than the best seen, for its Carter genus.

The engine keeps the parent pointers: a record (parent seq, move index,
class, key) names the move that made its state by its index among the
moves its parent's pop listed, not by a `Move`, and the class that pop
expanded, so a found chain is rebuilt by listing again the moves of
that class of each diagram on it, only up to the recorded index, then
translated onto the input.  A record is written when its state is
popped for expansion, since a chain passes through expanded states
only (sparse-memory graph search, Zhou and Hansen, IJCAI 2003).  Most
admitted states are never popped: the trefoil probe at crossings <= 7
under 50,000 nodes queues 50,106 states and pops 277.  So a queued
state is one bytes record, a fixed-width header (size, seq, parent
seq, move index, tag) and then its compact key, and the header
compares as bytes in (size, seq) order.  The tag numbers the state's
depth, class, cobordism counters and surface partition, which take
only a handful of distinct values, in a table of the search; the
dedup vectors are likewise shared, one tuple per value.

All three searches deduplicate states by one rule, per frontier, on
(compact key, spent cobordism counters, depth) with dominance: a state
is skipped when an already-admitted state has the same key and
componentwise smaller-or-equal counters and depth, since any completion
of the new state also completes the old one.  A key first reached
through a long path is admitted again when a shorter path reaches it,
so an "exhausted" run has expanded every state inside the depth cap.

A cobordism search also labels the surface piece of each component and
carries the labels across a move before applying it: a move that caps
off an isolated piece (no valid concordance has one) or leaves more
components than the cap is pruned unbuilt.  A nontrivial piece partition
joins the dedup identity, since two states with the same diagram but
different partitions admit different completions.

Expansion is deterministic best-first on crossing count plus component
count, biased toward simplification (deletion moves are enumerated
first).  All three searches run through the one loop of `_BestFirst`,
which owns the records, popping and decoding, the caps, expansion
and pruning, the keying, surface labels and cobordism counters of
children, the parent pointers, dedup and the rebuilding of a found
chain, and leaves each search its dedup identity and goal test.

A popped state is expanded one class of moves at a time (partial
expansion, Yoshizumi, Miura and Ishida, AAAI 2000) and lists only the
moves of that class; between classes the engine queues it again at the
size of the next class's children, so a class is listed and keyed only
when the frontier reaches its size.  Both R-move searches,
`search_equivalent` and `reduce_diagram`, use the size classes: the
moves that do not grow a state (r1 and r2 deletions, r3), then r1
insertions, then r2 insertions.  A run that stops early keys few
children; one that ends exhausted keys the same children as whole
expansion and pays for the re-pops, since every pop counts as a node,
so max_nodes still bounds the work and the frontier.  An equivalence
certificate need not be a shortest one.  `search_slice` has one class
holding every kind, so it expands a state whole: by size class, its
budget-hit trefoil probes would run several times as long.
"""

from __future__ import annotations

import heapq
import itertools
import struct
import time
from dataclasses import dataclass, fields
from typing import NamedTuple

from .canonical import _compact_key_and_order, _partition_tag, compact_key, parse_compact
from .canonical import canonical_key, canonicalize  # noqa: F401  (bench/tracer.py wraps them)
from .certificates import CobordismCertificate, _translate_steps, advance_classes
from .diagram import DiagramError, GaussDiagram, _check_endpoints, parse_gauss
from .moves import (
    ALL_KINDS,
    Move,
    _apply_core,
    _build,
    _iter_moves,
    _SiteTables,
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


_COST = {"saddle": (1, 0, 0), "birth": (0, 1, 0), "death": (0, 0, 1)}


def _spend(spent: tuple[int, int, int], kind: str) -> tuple[int, int, int]:
    """The cobordism counters after a move of `kind`: the same tuple
    after an R-move."""
    cost = _COST.get(kind)
    return spent if cost is None else tuple(x + y for x, y in zip(spent, cost))


# The size classes of R-moves, each with the growth in crossings of its
# children.  Every search expands a class while its children fit the
# crossing cap (`_BestFirst.kinds`).  The R-move searches expand a popped
# state one size class at a time; the cobordism search has the one class
# `_WHOLE`, every kind.
_SIZE_CLASSES = (
    (frozenset({"r1_delete", "r2_delete", "r3"}), 0),
    (frozenset({"r1_insert"}), 1),
    (frozenset({"r2_insert"}), 2),
)
_WHOLE = ((ALL_KINDS, 0),)

# A queued state is one bytes record: this header, then its compact key.
# Its fields are size, seq, parent seq, move index and tag; fixed-width
# and big-endian, so records compare as bytes in (size, seq) order.  No
# field can overflow: each would need more memory than any machine has
# (a diagram of 2**32 crossings, a listing of 2**31 moves, 2**32 tags)
# or 2**63 pushes.
_HEADER = struct.Struct(">IQqiI")


class _Pop(NamedTuple):
    """A popped state, unpacked from its record: crossings plus
    components (plus the growth of its class), seq, depth, the class of
    moves it expands, cobordism counters, surface labels, compact key."""

    size: int
    seq: int
    depth: int
    cls: int
    spent: tuple[int, int, int]
    labels: tuple[int, ...]
    key: bytes


# A root is admitted and queued as a child of this stand-in for a popped
# state, one level above depth 0, by the link (-1, -1) of no move.
_NO_STATE = _Pop(0, -1, -1, 0, (0, 0, 0), (0,), b"")
_ROOT_LINK = (-1, -1)
_UNKNOT = compact_key(parse_gauss("()"))


class _BestFirst:
    """The best-first loop that all three searches run through.

    A state is its compact key everywhere: in the roots, the dedup
    tables and the parent records.  There is one frontier per root
    diagram, a heap of records, each one bytes object: the `_HEADER`
    fields (size, seq, parent, index, tag), then the state's key, so the
    heap pops in (size, seq) order.  Size is crossings plus components;
    the link (parent, index) names the popped state that made this one
    by seq and the move by its index among the moves that pop listed;
    tag numbers the state's (depth, cls, spent, labels) in a table this
    search keeps (`tag`), cls being the class of moves the record
    expands, spent and labels its cobordism counters and surface labels.
    `states` pops one record from each nonempty frontier in turn, writes
    its parent record (parent, index, cls, key) and builds its diagram
    from its key; once the search is done with the popped state, it
    queues the state again, with the same depth, key, link, counters and
    labels, for the next class if `kinds` leaves it any move, at the
    size of that class's children.  The classes are `_SIZE_CLASSES`, or
    `_WHOLE` for a cobordism search, which so never re-queues a state.

    `children` lists the `kinds` of a popped state's class, prunes them
    before applying them and hands on each finished child (link, key,
    size, spent, labels, comps, signs); `admit` deduplicates a child and
    `push` queues it for its first class, one level deeper than its
    parent, writing nothing but its record; `chain` follows the parent
    records and `line` rebuilds them.  Root `side` is admitted and
    pushed as seq `side`.  A search supplies only its dedup identity and
    its goal test.  The caps on crossings and components are the
    budget's, raised to fit the roots.

    Each frontier keeps identity -> minimal (s, b, d, depth) vectors: the
    vector itself, bare, while it is the only one, and a tuple of
    vectors only while incomparable ones coexist for the identity.  A
    path of length L expands L distinct prefixes, so when max_depth >=
    max_nodes the depth cap can never bind and depth is dropped from the
    vector.  `share` keeps one tuple per distinct vector for the whole
    search.
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
        self.classes = _WHOLE if cobordism else _SIZE_CLASSES
        self.frontiers: list[list[bytes]] = [[] for _ in roots]
        self.parents: dict[int, tuple] = {}  # seq -> (parent, index, cls, key)
        self.tags: dict[tuple, int] = {}  # (depth, cls, spent, labels) -> tag
        self.tagged: list[tuple] = []  # tag -> (depth, cls, spent, labels)
        self.seq = 0
        self.nodes = 0
        self.status = "exhausted"
        self.track_depth = budget.max_depth < budget.max_nodes
        # ident -> its vector, or a tuple of incomparable vectors
        self.tables: list[dict[bytes, tuple]] = [{} for _ in roots]
        self.tuples: dict[tuple, tuple] = {}
        self.hits = 0
        self.root_keys = tuple(map(compact_key, roots))
        for side, (root, key) in enumerate(zip(roots, self.root_keys)):
            size, zero = root.n_crossings + root.n_components, (0, 0, 0)
            self.admit(side, _NO_STATE, key, zero)
            self.push(side, _NO_STATE, (_ROOT_LINK, key, size, zero, (0,)))

    def outcome(self, cert: CobordismCertificate | None) -> SearchOutcome:
        """The run's outcome: "found" with `cert`, else the loop's status."""
        ms = int((time.perf_counter() - self.t0) * 1000)
        status = self.status if cert is None else "found"
        return SearchOutcome(status, cert, self.nodes, self.hits, ms)

    def share(self, t: tuple) -> tuple:
        """The one tuple equal to `t` that this search keeps."""
        return self.tuples.setdefault(t, t)

    def tag(self, depth: int, cls: int, spent: tuple, labels: tuple) -> int:
        """The number of (depth, cls, spent, labels) in this search's
        table, entered on first use."""
        entry = (depth, cls, spent, labels)
        tag = self.tags.setdefault(entry, len(self.tagged))
        if tag == len(self.tagged):
            self.tagged.append(entry)
        return tag

    def queue(
        self, heap: list, size: int, link: tuple[int, int], tag: int, key: bytes
    ) -> None:
        """Push the record of a state onto `heap` as the next seq."""
        heapq.heappush(heap, _HEADER.pack(size, self.seq, *link, tag) + key)
        self.seq += 1

    def admit(
        self, side: int, state: _Pop, ident: bytes, spent: tuple[int, int, int]
    ) -> bool:
        """Whether a child of the popped `state` with dedup identity
        `ident` and counters `spent` is new on frontier `side`: no state
        admitted there has the same identity and counters and depth no
        larger.  A skip counts as a dedup hit."""
        vec = (*spent, state.depth + 1 if self.track_depth else 0)
        table = self.tables[side]
        old = table.get(ident)
        if old is None:
            table[ident] = self.share(vec)
            return True
        entries = old if type(old[0]) is tuple else (old,)
        for e in entries:
            if all(o <= n for o, n in zip(e, vec)):
                self.hits += 1
                return False
        kept = [e for e in entries if not all(n <= o for o, n in zip(e, vec))]
        table[ident] = (*kept, self.share(vec)) if kept else self.share(vec)
        return True

    def push(self, side: int, state: _Pop, child: tuple) -> None:
        """Queue a `child` of the popped `state`, as `children` yields it,
        to frontier `side` for its first class; only its record is
        written, and `states` keeps the parent record when it pops it."""
        link, key, size, spent, labels = child[:5]
        tag = self.tag(state.depth + 1, 0, spent, labels)
        self.queue(self.frontiers[side], size, link, tag, key)

    def chain(self, link: tuple, key: bytes) -> list[tuple[int, int, bytes]]:
        """The parent records (parent, index, key) from a root to the
        state keyed `key` that `link` (parent seq, move index) made; none
        for a root, whose link is (-1, -1)."""
        out = []
        parent, index = link
        while parent >= 0:
            out.append((parent, index, key))
            parent, index, _, key = self.parents[parent]
        return out[::-1]

    def states(self, stop_when_overfull: bool = True):
        """Yield (side, state, diagram) for each popped state below the
        depth cap: the state a `_Pop`, the diagram built from its key.

        Every pop counts as a node, also of a state at the depth cap,
        which is dropped before any work is spent on it.  The run stops
        with status "budget-hit" when max_nodes states have been popped
        and a frontier is still nonempty, and, with `stop_when_overfull`,
        at the start of a round in which the frontiers together
        outnumber the nodes left (see the module docstring); it is
        "exhausted" when every frontier is empty.
        """
        budget, classes = self.budget, self.classes
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
                record = heapq.heappop(heap)
                self.nodes += 1
                size, sq, parent, index, tag = _HEADER.unpack_from(record)
                depth, cls, spent, labels = self.tagged[tag]
                if depth >= budget.max_depth:
                    continue
                key = record[_HEADER.size:]
                self.parents[sq] = (parent, index, cls, key)
                diag = parse_compact(key)
                yield side, _Pop(size, sq, depth, cls, spent, labels, key), diag
                # The caller is done with this class's children: the next
                # class waits at the size of its children.
                cls += 1
                if cls < len(classes) and self.kinds(diag, spent, cls):
                    size = diag.n_crossings + diag.n_components + classes[cls][1]
                    tag = self.tag(depth, cls, spent, labels)
                    self.queue(heap, size, (parent, index), tag, key)

    def kinds(
        self, diag: GaussDiagram, spent: tuple[int, int, int], cls: int
    ) -> set[str]:
        """The move kinds of class `cls` expanded from `diag` at cobordism
        counters `spent`: insertions while they fit the crossing cap, and
        in a cobordism search each cobordism move while the budget allows
        it; `children` applies the component cap."""
        kinds = set().union(*(
            ks for ks, growth in _SIZE_CLASSES
            if diag.n_crossings + growth <= self.cap_n
        ))
        if self.cobordism:
            s, b, dd = spent
            if s < self.budget.max_saddles:
                kinds.add("saddle")
            if b < self.budget.max_births:
                kinds.add("birth")
            if dd < self.budget.max_deaths:
                kinds.add("death")
        return kinds & self.classes[cls][0]

    def line(
        self, side: int, chain: list[tuple[int, int, bytes]]
    ) -> tuple[list[GaussDiagram], list[Move]]:
        """The reference line (refs, steps) of a chain of parent records
        (parent, index, key) from the root of frontier `side`: the
        diagrams built from the keys, and the move `children` numbered
        each index from the diagram before it, drawn from the `kinds` of
        the class the parent's pop expanded, with the cobordism counters
        carried forward from (0, 0, 0); the listing stops at the index."""
        refs = [parse_compact(self.root_keys[side])]
        steps: list[Move] = []
        spent = (0, 0, 0)
        for parent, index, key in chain:
            cls = self.parents[parent][2]
            moves = _iter_moves(refs[-1], self.kinds(refs[-1], spent, cls))
            steps.append(next(itertools.islice(moves, index, None)))
            spent = _spend(spent, steps[-1].kind)
            refs.append(parse_compact(key))
        return refs, steps

    def children(self, state: _Pop, diag: GaussDiagram):
        """Yield (link, key, size, spent, labels, comps, signs) for each
        child of the popped `state`, built as `diag`, by a move of the
        state's class, in enumeration order: link is (state's seq, index),
        index the move's position in the enumeration of `kinds(diag,
        spent, cls)`, which `line` replays, size is crossings plus
        components, spent and labels are the child's counters and surface
        labels.

        A child is the endpoint lists `comps` and sign table `signs` the
        applier core edits, never a `GaussDiagram`: its endpoints are
        checked and it is keyed once from those lists.  In a cobordism
        search the state's labels name the surface piece of each
        component of `diag`; they are carried across a move before it is
        applied, and a move that closes off a piece or whose labels (one
        per component) outnumber the component cap is dropped unbuilt.
        A child's labels are in canonical component order, renumbered by
        first appearance, so they are isomorphism-invariant.  R-moves
        keep the labels and the component count, which the cap already
        fits, so only cobordism moves are labelled."""
        _, sq, _, cls, spent, state_labels, _ = state
        kinds = self.kinds(diag, spent, cls)
        tables = _SiteTables(diag)
        for i, m in enumerate(enumerate_moves(diag, kinds=kinds, tables=tables)):
            labels = state_labels
            if m.kind in _COST:
                labels, closed = advance_classes(state_labels, m, diag)
                if closed or len(labels) > self.cap_c:
                    continue
            comps, signs, _ = _apply_core(diag, m, tables)
            _check_endpoints(comps, signs)
            key, order = _compact_key_and_order(comps, signs, diag.long)
            if self.cobordism:
                first: dict[int, int] = {}
                labels = tuple(first.setdefault(labels[k], len(first)) for k in order)
            size = len(signs) + len(comps)
            yield (sq, i), key, size, _spend(spent, m.kind), labels, comps, signs


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
    if run.root_keys[0] == _UNKNOT:
        return run.outcome(CobordismCertificate(d, (), parse_gauss("()")))

    for _, state, diag in run.states():
        for child in run.children(state, diag):
            link, key, _, spent, labels, _, _ = child
            s, b, dd = spent
            if key == _UNKNOT and s == b + dd:
                refs, steps = run.line(0, run.chain(link, key))
                translated = _translate_steps(refs, tuple(steps), d)
                cert = CobordismCertificate(d, tuple(translated), refs[-1])
                return run.outcome(cert)
            if run.admit(0, state, key + _partition_tag(labels), spent):
                run.push(0, state, child)
    return run.outcome(None)


# -- pairwise equivalence ------------------------------------------------


def search_equivalent(
    a: GaussDiagram, b: GaussDiagram, budget: SearchBudget
) -> SearchOutcome:
    """Meet-in-the-middle Reidemeister-move search from a to b.

    A found certificate uses R-moves only (all cobordism counters zero).
    R-moves keep a diagram long or round and keep its number of
    components, so inputs that differ in either are refused with
    DiagramError before any search.

    Each side admits children by the one dominance rule, on (key,
    depth), so an "exhausted" run has expanded from each end every state
    under the caps closer to it than max_depth.  The halves meet when
    one side admits a key the other side has admitted.

    As in `reduce_diagram`, a popped state is expanded one size class of
    `_SIZE_CLASSES` at a time, each re-pop a node of `max_nodes`, so a
    run that meets early never builds most insertions, and its
    certificate need not be a shortest one.
    """
    if a.long != b.long:
        raise DiagramError("cannot relate a long and a round diagram")
    if a.n_components != b.n_components:
        raise DiagramError(
            f"cannot relate diagrams with {a.n_components} and "
            f"{b.n_components} components by R-moves"
        )
    run = _BestFirst(budget, (a, b))
    if run.root_keys[0] == run.root_keys[1]:
        return run.outcome(CobordismCertificate(a, (), b))

    # made[side]: key -> link (parent seq, move index) of its latest
    # admission on that side.  The parent was popped, so `run.chain`
    # reaches it, while the state itself may still be queued.
    made = tuple({key: _ROOT_LINK} for key in run.root_keys)
    for side, state, diag in run.states():
        for child in run.children(state, diag):
            link, key, _, spent, _, _, _ = child
            if not run.admit(side, state, key, spent):
                continue
            if key in made[1 - side]:
                here = run.chain(link, key)
                there = run.chain(made[1 - side][key], key)
                chain_a, chain_b = (here, there) if side == 0 else (there, here)
                cert = _splice(a, run.line(0, chain_a), run.line(1, chain_b), b)
                return run.outcome(cert)
            made[side][key] = link
            run.push(side, state, child)
    return run.outcome(None)


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

    A popped state is expanded one size class of `_SIZE_CLASSES` at a
    time, and the engine queues it again at the size of the next class's
    children while the crossing cap lets that class fit; each re-pop
    counts as a node of `max_nodes`.  A run that is not cut short still
    admits the whole R-move closure under the caps, keying the same
    children as whole expansion; one that stops early at rank (0, 0)
    never builds the insertions of most states it popped.
    """
    if d.long:
        raise DiagramError("reduce_diagram needs a round diagram")
    best = d
    best_rank = (d.n_crossings, carter_genus(d))
    if best_rank == (0, 0):  # nothing smaller exists
        return d, 0
    min_genus = best_rank[1]

    run = _BestFirst(budget, (d,))
    # No early stop: the best diagram seen improves until the last node.
    for _, state, diag in run.states(stop_when_overfull=False):
        for child in run.children(state, diag):
            _, key, _, spent, _, comps, signs = child
            if not run.admit(0, state, key, spent):
                continue
            if len(signs) <= best_rank[0]:
                built = _build(comps, signs, diag.long)
                g = carter_genus(built)
                min_genus = min(min_genus, g)
                rank = (built.n_crossings, g)
                if rank < best_rank:
                    best, best_rank = built, rank
                    if best_rank == (0, 0):  # nothing smaller exists
                        return best, min_genus
            run.push(0, state, child)
    return best, min_genus
