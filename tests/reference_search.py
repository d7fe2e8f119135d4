"""Plain reference searches for auditing the searches' pruning.

`reference_slice_states` walks every state the slice search could
reach, with none of the search's shortcuts: no dominance, no depth, no
early stop.  A state is (canonical key, surface partition in canonical
component order, spent cobordism counters).  The caps and the closure
rule are derived here independently, on each built child, through
`apply_move` and `advance_classes`.  With every cobordism cap at 0 it
walks the R-move closure that `reduce_diagram` searches.

`reference_distances` walks the R-move graph breadth first for
`search_equivalent`, keeping each key's least distance from the start.

Keying and move enumeration are shared with the searches, so a fault in
those is not caught here.
"""

from __future__ import annotations

from vknots import (
    SearchBudget, apply_move, canonical_key, canonicalize, enumerate_moves, parse_gauss,
)
from vknots.certificates import advance_classes

_COST = {"saddle": 0, "birth": 1, "death": 2}  # index into (s, b, d)
_GROWTH = {"r1_insert": 1, "r2_insert": 2}  # crossings added


def _r_move_kinds(diag, cap_n: int) -> set[str]:
    """Every R-move kind, insertions only where they fit the crossing cap."""
    grown = {k for k, grow in _GROWTH.items() if diag.n_crossings + grow <= cap_n}
    return {"r1_delete", "r2_delete", "r3"} | grown


def reference_slice_states(d, budget: SearchBudget):
    """(states, found) over the whole capped space from the round knot
    `d`: found when some state is the unknot with s = b + d."""
    cap_n = max(budget.max_crossings, d.n_crossings)
    cap_c = max(budget.max_components, d.n_components)
    allowed = (budget.max_saddles, budget.max_births, budget.max_deaths)
    goal = canonical_key(parse_gauss("()"))
    root = (canonical_key(d), (0,), (0, 0, 0))
    states, todo, found = {root}, [root], False
    while todo:
        key, classes, spent = todo.pop()
        diag = parse_gauss(key)  # components in canonical order
        kinds = _r_move_kinds(diag, cap_n)
        # cobordism moves while their counters allow
        kinds |= {k for k, i in _COST.items() if spent[i] < allowed[i]}
        for m in enumerate_moves(diag, kinds=kinds):
            child_spent = list(spent)
            if m.kind in _COST:
                child_spent[_COST[m.kind]] += 1
            child = apply_move(diag, m)
            if child.n_crossings > cap_n or child.n_components > cap_c:
                continue
            labels, closed = advance_classes(classes, m, diag)
            if closed:
                continue
            key = canonical_key(child)
            canon = [0] * len(labels)  # labels moved into canonical order
            for old, new in enumerate(canonicalize(child).iso.comp_perm):
                canon[new] = labels[old]
            first: dict[int, int] = {}
            partition = tuple(first.setdefault(x, len(first)) for x in canon)
            state = (key, partition, tuple(child_spent))
            s, b, dd = state[2]
            found |= key == goal and s == b + dd
            if state not in states:
                states.add(state)
                todo.append(state)
    return states, found


def reference_distances(a, budget: SearchBudget) -> dict[str, int]:
    """Each key's least R-move distance from `a`, for the keys closer
    than max_depth: a breadth-first walk that applies every R-move, with
    insertions only where they fit the crossing cap."""
    cap_n = max(budget.max_crossings, a.n_crossings)
    distances = {canonical_key(a): 0}
    layer = [a]
    for depth in range(1, budget.max_depth):
        reached = []
        for diag in layer:
            for m in enumerate_moves(diag, kinds=_r_move_kinds(diag, cap_n)):
                child = apply_move(diag, m)
                key = canonical_key(child)
                if key not in distances:
                    distances[key] = depth
                    reached.append(child)
        layer = reached
    return distances
