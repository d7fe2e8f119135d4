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

The engine keeps the parent pointers: a record (parent seq, move index,
key) names the move that made its state by its index in the parent's
enumeration, not by a `Move`, so a found chain is rebuilt by listing
again the moves of each diagram on it, only up to the recorded index,
then translated onto the input.  A record is written when its state is
popped for expansion, since a chain passes through expanded states
only; a queued state is one heap entry that carries its parent seq and
move index (sparse-memory graph search, Zhou and Hansen, IJCAI 2003).
Most admitted states are never popped: the trefoil probe at crossings
<= 7 under 50,000 nodes queues 50,106 states and pops 277.
Small tuples (cobordism counters, dedup vectors, surface partitions)
take only a handful of distinct values, and each search shares one
tuple per value among its states.

All three searches deduplicate states by one rule, per frontier, on
(canonical key, spent cobordism counters, depth) with dominance: a state
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
which owns popping and parsing, the caps, expansion and pruning, the
keying, surface labels and cobordism counters of children, the parent
pointers, dedup and the rebuilding of a found chain, and leaves each
search its dedup identity and goal test.

Both R-move searches, `search_equivalent` and `reduce_diagram`, expand
a popped state one size class at a time (partial expansion, Yoshizumi,
Miura and Ishida, AAAI 2000): first the moves that do not grow it (r1
and r2 deletions, r3), then the r1 insertions, then the r2 insertions.
Between classes `_BestFirst.states` queues the state again, with its
own parent seq and move index, at the size of the next class's
children, so insertions are keyed only when the frontier reaches their
size.  A run that stops early keys few children: the equivalence
searches of the 100 bench unknots key 644 where whole expansion keyed
10,272.  A run that ends exhausted keys the same children and pays for
the re-pops, since every pop counts as a node, so max_nodes still
bounds the work and the frontier.  Equivalence certificates are no
longer shortest: 251 steps in all for the bench unknots, where whole
expansion found a shortest path for each, 233.  `search_slice` expands
a state whole, and its heap entries carry no class: by class, its
budget-hit trefoil probes would run several times as long.
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


# The size classes of R-moves, each with the growth in crossings of its
# children, in the order `enumerate_moves` lists them.  Every search
# expands a class while its children fit the crossing cap; the R-move
# searches expand a popped state one class at a time.
_SIZE_CLASSES = (
    (frozenset({"r1_delete", "r2_delete", "r3"}), 0),
    (frozenset({"r1_insert"}), 1),
    (frozenset({"r2_insert"}), 2),
)


class _BestFirst:
    """The best-first loop that all three searches run through.

    There is one frontier per root diagram, a heap of entries
    (priority, seq, depth, key, parent, index, *payload) popped in
    (priority, seq) order: the state's canonical key, the seq of the
    popped state that made it and the move's index in that state's
    enumeration (both None for a root, and in a reduction, which keeps
    no parent pointers), then the search's own payload.  Root `side` is
    keyed, admitted and pushed at depth 0 with the search's root
    `payload` as seq `side`.  `states` pops one state from each nonempty
    frontier in turn, writes its parent record (parent, index, key) if
    it is expanded, and parses its key.  With `by_class`, the payload
    starts with the index into `_SIZE_CLASSES` of the class the entry
    expands, 0 when a search pushes it; once the search is done with
    the popped state, `states` queues it again for the next class that
    fits the crossing cap, with the state's own depth, key, parent and
    index.  `children` prunes a popped state's moves before applying
    them and hands on each finished child: its key, size, cobordism
    counters and surface labels; `admit` deduplicates; `push` queues a
    child, writing nothing but its heap entry; `chain` follows the
    records and `line` rebuilds them.  A search supplies only its dedup
    identity and its goal test.  The caps on crossings and components
    are the budget's, raised to fit the roots.

    Each frontier keeps identity -> minimal (s, b, d, depth) vectors: the
    vector itself, bare, while it is the only one, and a tuple of
    vectors only while incomparable ones coexist for the identity.  A
    path of length L expands L distinct prefixes, so when max_depth >=
    max_nodes the depth cap can never bind and depth is dropped from the
    vector.  `share` keeps one tuple per distinct value for the whole
    search, for the vectors and any other small tuple its states repeat.
    """

    def __init__(
        self, budget: SearchBudget, roots: tuple[GaussDiagram, ...],
        cobordism: bool = False, payload: tuple = (), by_class: bool = False,
    ):
        self.t0 = time.perf_counter()
        self.budget = budget
        self.cap_n = max(budget.max_crossings, *(r.n_crossings for r in roots))
        self.cap_c = max(budget.max_components, *(r.n_components for r in roots))
        self.cobordism = cobordism
        self.by_class = by_class
        self.frontiers: list[list[tuple]] = [[] for _ in roots]
        self.parents: dict[int, tuple[int, int, str]] = {}  # popped seq -> record
        self.seq = 0
        self.nodes = 0
        self.status = "exhausted"
        self.track_depth = budget.max_depth < budget.max_nodes
        # ident -> its vector, or a tuple of incomparable vectors
        self.tables: list[dict[str, tuple]] = [{} for _ in roots]
        self.tuples: dict[tuple, tuple] = {}
        self.hits = 0
        self.root_keys = tuple(canonical_key(r) for r in roots)
        for side, (root, key) in enumerate(zip(roots, self.root_keys)):
            self.admit(side, key, (0, 0, 0), 0)
            self.push(side, root.n_crossings + root.n_components, 0, key, *payload)

    def outcome(self, cert: CobordismCertificate | None) -> SearchOutcome:
        """The run's outcome: "found" with `cert`, else the loop's status."""
        ms = int((time.perf_counter() - self.t0) * 1000)
        status = self.status if cert is None else "found"
        return SearchOutcome(status, cert, self.nodes, self.hits, ms)

    def share(self, t: tuple) -> tuple:
        """The one tuple equal to `t` that this search keeps."""
        return self.tuples.setdefault(t, t)

    def admit(
        self, side: int, ident: str, spent: tuple[int, int, int], depth: int
    ) -> bool:
        """Whether a state of dedup identity `ident` is new on frontier
        `side`: no state admitted there has the same identity and counters
        and depth no larger.  A skip counts as a dedup hit."""
        vec = (*spent, depth if self.track_depth else 0)
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

    def push(
        self, side: int, size: int, depth: int, key: str, *payload,
        parent: tuple = (None, None),
    ) -> None:
        """Queue the state keyed `key`, of `size` crossings plus
        components, to frontier `side`.  `parent` (parent seq, move
        index) names the popped state and the move that made it; only
        the heap entry is written, and `states` keeps the record when
        it pops the entry."""
        heapq.heappush(
            self.frontiers[side], (size, self.seq, depth, key, *parent, *payload)
        )
        self.seq += 1

    def chain(self, seq: int) -> list[tuple[int, int, str]]:
        """The parent records (parent, index, key) from a root to `seq`."""
        out = []
        while seq in self.parents:
            out.append(self.parents[seq])
            seq = out[-1][0]
        return out[::-1]

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
                    if entry[4] is not None:
                        self.parents[entry[1]] = (entry[4], entry[5], entry[3])
                    diag = parse_gauss(entry[3])
                    yield side, entry, diag
                    # The caller is done with this class's children: the
                    # next class waits at the size of its children.
                    if self.by_class and entry[6] + 1 < len(_SIZE_CLASSES):
                        cls = entry[6] + 1
                        growth = _SIZE_CLASSES[cls][1]
                        if diag.n_crossings + growth <= self.cap_n:
                            size = diag.n_crossings + diag.n_components + growth
                            self.push(
                                side, size, entry[2], entry[3], cls, *entry[7:],
                                parent=entry[4:6],
                            )

    def kinds(
        self, diag: GaussDiagram, spent: tuple[int, int, int] = (0, 0, 0)
    ) -> set[str]:
        """The move kinds expanded from `diag` at cobordism counters
        `spent`: insertions while they fit the crossing cap, and in a
        cobordism search each cobordism move while the budget allows it;
        `children` applies the component cap."""
        kinds = set().union(*(
            cls for cls, growth in _SIZE_CLASSES
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
        return kinds

    def line(
        self, side: int, chain: list[tuple[int, int, str]]
    ) -> tuple[list[GaussDiagram], list[Move]]:
        """The reference line (refs, steps) of a chain of parent records
        (parent, index, key) from the root of frontier `side`: the
        diagrams parsed from the keys, and the move `children` numbered
        each index from the diagram before it, drawn from its enumeration
        with the cobordism counters carried forward from (0, 0, 0); the
        enumeration stops at the index."""
        refs = [parse_gauss(self.root_keys[side])]
        steps: list[Move] = []
        spent = (0, 0, 0)
        for _, index, key in chain:
            moves = _iter_moves(refs[-1], self.kinds(refs[-1], spent))
            steps.append(next(itertools.islice(moves, index, None)))
            spent = _spend(spent, steps[-1].kind)
            refs.append(parse_gauss(key))
        return refs, steps

    def children(
        self, diag: GaussDiagram, spent: tuple[int, int, int] = (0, 0, 0),
        classes: tuple[int, ...] = (), size_class: int | None = None,
    ):
        """Yield (index, key, size, spent, classes, comps, signs) for each
        child of `diag` at cobordism counters `spent`, in enumeration
        order: index is the move's position in the enumeration of
        `kinds(diag, spent)`, size is crossings plus components.  With
        `size_class`, only the moves of that class of `_SIZE_CLASSES`
        are applied and the enumeration stops after them; the classes
        are listed in that order, so the index still counts in the whole
        enumeration, the one `line` replays.

        A child is the endpoint lists `comps` and sign table `signs` the
        applier core edits, never a `GaussDiagram`: its endpoints are
        checked and it is keyed once from those lists.  In a cobordism
        search `classes` labels the surface piece of each component of
        `diag`; the labels are carried across a move before it is
        applied, and a move that closes off a piece or whose labels (one
        per component) outnumber the component cap is dropped unbuilt.
        A child's labels are in canonical component order, renumbered by
        first appearance, so they are isomorphism-invariant.  R-moves
        keep the labels and the component count, which the cap already
        fits, so only cobordism moves are labelled."""
        kinds, only = self.kinds(diag, spent), None
        if size_class is not None:
            only = _SIZE_CLASSES[size_class][0]
            kinds &= frozenset().union(*(k for k, _ in _SIZE_CLASSES[: size_class + 1]))
        tables = _SiteTables(diag)
        for i, m in enumerate(enumerate_moves(diag, kinds=kinds, tables=tables)):
            if only is not None and m.kind not in only:
                continue
            labels = classes
            if m.kind in _COST:
                labels, closed = advance_classes(classes, m, diag)
                if closed or len(labels) > self.cap_c:
                    continue
            comps, signs, _ = _apply_core(diag, m, tables)
            _check_endpoints(comps, signs)
            key, order = _key_and_order(comps, signs, diag.long)
            if self.cobordism:
                first: dict[int, int] = {}
                labels = tuple(first.setdefault(labels[k], len(first)) for k in order)
            size = len(signs) + len(comps)
            yield i, key, size, _spend(spent, m.kind), labels, comps, signs


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
    # payload: ((s, b, d), classes)
    run = _BestFirst(budget, (d,), cobordism=True, payload=((0, 0, 0), (0,)))
    goal_key = canonical_key(parse_gauss("()"))
    if run.root_keys[0] == goal_key:
        return run.outcome(CobordismCertificate(d, (), parse_gauss("()")))

    for _, (_, sq, depth, _, _, _, spent, classes), diag in run.states():
        for index, key, size, child_spent, child_classes, _, _ in run.children(
            diag, spent, classes
        ):
            s, b, dd = child_spent
            if key == goal_key and s == b + dd:
                refs, steps = run.line(0, run.chain(sq) + [(sq, index, key)])
                translated = _translate_steps(refs, tuple(steps), d)
                cert = CobordismCertificate(d, tuple(translated), refs[-1])
                return run.outcome(cert)
            tag = _partition_tag(child_classes)
            if run.admit(0, key + tag, child_spent, depth + 1):
                run.push(
                    0, size, depth + 1, key, run.share(child_spent),
                    run.share(child_classes), parent=(sq, index),
                )
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
    # payload: the index into _SIZE_CLASSES of the class this pop expands
    run = _BestFirst(budget, (a, b), payload=(0,), by_class=True)
    if run.root_keys[0] == run.root_keys[1]:
        return run.outcome(CobordismCertificate(a, (), b))

    # made[side]: key -> (parent seq, move index) of its latest admission
    # on that side, None for the root.  The parent was popped, so
    # `run.chain` reaches it, while the state itself may still be queued.
    made = tuple({key: None} for key in run.root_keys)

    def records(link, key):
        return [] if link is None else run.chain(link[0]) + [(*link, key)]

    for side, (_, sq, depth, _, _, _, cls), diag in run.states():
        for index, key, size, *_ in run.children(diag, size_class=cls):
            if not run.admit(side, key, (0, 0, 0), depth + 1):
                continue
            if key in made[1 - side]:
                here = records((sq, index), key)
                there = records(made[1 - side][key], key)
                chain_a, chain_b = (here, there) if side == 0 else (there, here)
                cert = _splice(a, run.line(0, chain_a), run.line(1, chain_b), b)
                return run.outcome(cert)
            made[side][key] = link = (sq, index)
            run.push(side, size, depth + 1, key, 0, parent=link)
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

    # payload: the index into _SIZE_CLASSES of the class this pop expands
    run = _BestFirst(budget, (d,), payload=(0,), by_class=True)
    # No early stop: the best diagram seen improves until the last node.
    for _, (_, _, depth, _, _, _, cls), diag in run.states(stop_when_overfull=False):
        for _, key, size, _, _, comps, signs in run.children(diag, size_class=cls):
            if not run.admit(0, key, (0, 0, 0), depth + 1):
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
            run.push(0, size, depth + 1, key, 0)
    return best, min_genus
