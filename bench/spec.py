"""Names shared by the benchmark's parent and worker processes: the
workloads and their units, the metrics with their units, and the
reference search counters.  Imports nothing from vknots."""

from __future__ import annotations

UNITS = {
    "kishino-slice": ("slice",),
    "trefoil-probe": ("crossings4", "crossings7"),
    "unknot-reduce": ("reduce",),
    "cert-transport": ("transport",),
}

MOVE_KINDS = (
    "r1_delete", "r1_insert", "r2_delete", "r2_insert", "r3",
    "saddle", "birth", "death",
)

END_TO_END = {
    "wall_s": "s",
    "verdict_p50_ms": "ms",
    "verdict_p95_ms": "ms",
    "peak_rss_mb": "MB",
    "setup_s": "s",
}

# Spans, each reported as <layer>.calls and <layer>.s.
TIMED_LAYERS = (
    "diagram.parse", "diagram.construct", "canonical.key",
    "canonical.canonicalize", "moves.enumerate",
    *(f"moves.apply.{k}" for k in MOVE_KINDS),
    "surface.genus", "certificates.validate", "certificates.transport",
    "certificates.parse", "certificates.render",
    "certificates.advance_classes", "search",
)

SEARCH_STATUSES = ("found", "exhausted", "budget-hit")

PER_LAYER = {
    **{f"{layer}.{stat}": unit for layer in TIMED_LAYERS
       for stat, unit in (("calls", "count"), ("s", "s"))},
    **{f"moves.apply.{k}.rejected": "count" for k in MOVE_KINDS},
    "moves.apply.accept_ratio": "ratio",
    "moves.enumerate.yielded": "count",
    "canonical.key.hit_ratio": "ratio",
    "certificates.fallbacks": "count",
    "search.self_s": "s",
    **{f"search.status.{s.replace('-', '_')}": "count" for s in SEARCH_STATUSES},
    "search.nodes": "count",
    "search.dedup_hits": "count",
    "search.children": "count",
    "search.admitted": "count",
    "search.frontier_peak": "count",
    "search.admit_ratio": "ratio",
    "trace.wall_s": "s",
    "trace.overhead_s": "s",
}


def ratios(layers: dict[str, float]) -> dict[str, float]:
    """The ratio metrics, from the summed counts of a traced pass."""

    def share(num: float, den: float) -> float:
        return num / den if den else 0.0

    applied = sum(layers[f"moves.apply.{k}.calls"] for k in MOVE_KINDS)
    rejected = sum(layers[f"moves.apply.{k}.rejected"] for k in MOVE_KINDS)
    return {
        "moves.apply.accept_ratio": share(applied - rejected, applied),
        "canonical.key.hit_ratio": share(layers["canonical.key.hits"],
                                         layers["canonical.key.calls"]),
        "search.admit_ratio": share(layers["search.admitted"], layers["search.children"]),
    }


# (status, nodes, dedup) of the knot searches at the commit that added
# this benchmark.  Relabeling and rotation leave them unchanged, so
# every seed must reproduce them; match=no flags a change in search
# behaviour, which the change must explain.
REFERENCE_COUNTERS = {
    ("kishino-slice", "slice"): [["found", 41, 1976]],
    ("trefoil-probe", "crossings4"): [["exhausted", 12482, 84484]],
    ("trefoil-probe", "crossings7"): [["budget-hit", 277, 14401]],
}
