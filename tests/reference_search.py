"""A plain reference search for auditing `search_slice`'s pruning.

It walks every state the slice search could reach, with none of the
search's shortcuts: no dominance, no depth, no early stop.  A state is
(canonical key, surface partition in canonical component order, spent
cobordism counters).  The caps and the closure rule are derived here
independently, on each built child, through `apply_move` and
`advance_classes`; keying and move enumeration are shared with the
search, so a fault in those is not caught here.
"""

from __future__ import annotations

from vknots import (
    SearchBudget, apply_move, canonical_key, canonicalize, enumerate_moves, parse_gauss,
)
from vknots.certificates import advance_classes

_COST = {"saddle": 0, "birth": 1, "death": 2}  # index into (s, b, d)
_GROWTH = {"r1_insert": 1, "r2_insert": 2}  # crossings added


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
        # insertions that can fit the crossing cap, cobordism moves while
        # their counters allow
        kinds = {"r1_delete", "r2_delete", "r3"}
        kinds |= {k for k, grow in _GROWTH.items() if diag.n_crossings + grow <= cap_n}
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
            result = canonicalize(child)
            canon = [0] * len(labels)  # labels moved into canonical order
            for old, new in enumerate(result.iso.comp_perm):
                canon[new] = labels[old]
            first: dict[int, int] = {}
            partition = tuple(first.setdefault(x, len(first)) for x in canon)
            state = (result.key, partition, tuple(child_spent))
            s, b, dd = state[2]
            found |= result.key == goal and s == b + dd
            if state not in states:
                states.add(state)
                todo.append(state)
    return states, found
