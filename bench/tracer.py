"""Per-layer spans and counts around the calls into each vknots module.

The package's modules import each other's names directly, so the
wrappers are installed on the names consumers look up at call time
(``vknots.search.canonical_key``, ``vknots.certificates.enumerate_moves``,
...) and on the package names the benchmark itself calls.  Nothing under
src/ changes.  A call a module makes to one of its own functions is not
seen: the spans cover the boundaries between layers.

Each span adds its duration to its layer and to the span that encloses
it, so a layer's self time is its duration minus its child spans.
"""

from __future__ import annotations

import heapq
import time
from collections import defaultdict

import vknots
import vknots.canonical
import vknots.certificates
import vknots.diagram
import vknots.search
from vknots.moves import MoveError

from spec import PER_LAYER, TIMED_LAYERS


class Tracer:
    def __init__(self):
        self.calls: dict[str, int] = defaultdict(int)
        self.secs: dict[str, float] = defaultdict(float)
        self.self_secs: dict[str, float] = defaultdict(float)
        self.counts: dict[str, int] = defaultdict(int)
        # Child time of each open span; the bottom entry is the caller.
        self._open = [0.0]

    def _close(self, name: str, t0: float, call: bool = True) -> None:
        dt = time.perf_counter() - t0
        child = self._open.pop()
        self.calls[name] += call
        self.secs[name] += dt
        self.self_secs[name] += dt - child
        self._open[-1] += dt

    def span(self, name: str, fn):
        def traced(*args, **kwargs):
            self._open.append(0.0)
            t0 = time.perf_counter()
            try:
                return fn(*args, **kwargs)
            finally:
                self._close(name, t0)

        return traced

    def apply_span(self, fn, counts_children: bool):
        """apply_move and apply_move_with_inverse, by move kind."""

        def traced(d, m, *args, **kwargs):
            name = f"moves.apply.{m.kind}"
            self._open.append(0.0)
            t0 = time.perf_counter()
            try:
                out = fn(d, m, *args, **kwargs)
            except MoveError:
                self.counts[f"{name}.rejected"] += 1
                raise
            finally:
                self._close(name, t0)
            if counts_children:
                self.counts["search.children"] += 1
            return out

        return traced

    def enumerate_span(self, fn, counter: str | None):
        """enumerate_moves as a generator, so a consumer that stops early
        stays lazy; each step is timed on its own."""

        def traced(*args, **kwargs):
            if counter:
                self.counts[counter] += 1
            self._open.append(0.0)
            t0 = time.perf_counter()
            try:
                it = iter(fn(*args, **kwargs))
            finally:
                self._close("moves.enumerate", t0)
            while True:
                self._open.append(0.0)
                t0 = time.perf_counter()
                try:
                    m = next(it)
                except StopIteration:
                    return
                finally:
                    self._close("moves.enumerate", t0, call=False)
                self.counts["moves.enumerate.yielded"] += 1
                yield m

        return traced

    def search_span(self, fn):
        """A search entry point; also collects its outcome's counters."""
        traced_call = self.span("search", fn)

        def traced(*args, **kwargs):
            out = traced_call(*args, **kwargs)
            if hasattr(out, "status"):
                self.counts[f"search.status.{out.status.replace('-', '_')}"] += 1
                self.counts["search.nodes"] += out.nodes
                self.counts["search.dedup_hits"] += out.dedup
            return out

        return traced

    def install(self) -> "Tracer":
        search, certs = vknots.search, vknots.certificates
        for mod in (search, certs):
            mod.parse_gauss = self.span("diagram.parse", mod.parse_gauss)
            mod.canonical_key = self.span("canonical.key", mod.canonical_key)
            mod.advance_classes = self.span("certificates.advance_classes", mod.advance_classes)
            mod.apply_move = self.apply_span(mod.apply_move, mod is search)
        search.apply_move_with_inverse = self.apply_span(search.apply_move_with_inverse, False)
        search.enumerate_moves = self.enumerate_span(search.enumerate_moves, None)
        certs.enumerate_moves = self.enumerate_span(certs.enumerate_moves, "certificates.fallbacks")
        search.canonicalize = self.span("canonical.canonicalize", search.canonicalize)
        search.carter_genus = self.span("surface.genus", search.carter_genus)
        search.heapq = _HeapProbe(self.counts)
        certs.validate_certificate = self.span("certificates.validate", certs.validate_certificate)
        for name, layer in (
            ("validate_certificate", "certificates.validate"),
            ("transport_long_to_closure", "certificates.transport"),
            ("transport_closure_to_long", "certificates.transport"),
            ("parse_certificate", "certificates.parse"),
            ("render_certificate", "certificates.render"),
        ):
            setattr(vknots, name, self.span(layer, getattr(vknots, name)))
        for name in ("search_slice", "search_equivalent", "reduce_diagram"):
            setattr(vknots, name, self.search_span(getattr(vknots, name)))
        cls = vknots.diagram.GaussDiagram
        cls.__init__ = self.span("diagram.construct", cls.__init__)
        return self

    def metrics(self, wall_s: float) -> dict[str, float]:
        """Sums of this unit; spec.ratios derives the ratios from them."""
        out: dict[str, float] = {}
        for layer in TIMED_LAYERS:
            out[f"{layer}.calls"] = self.calls[layer]
            out[f"{layer}.s"] = self.secs[layer]
        for key, unit in PER_LAYER.items():
            if unit == "count" and key not in out:
                out[key] = self.counts[key]
        out["search.self_s"] = self.self_secs["search"]
        info = getattr(vknots.canonical.canonical_key, "cache_info", None)
        out["canonical.key.hits"] = info().hits if info else 0
        out["trace.wall_s"] = wall_s
        return out


class _HeapProbe:
    """Stands in for the heapq module inside vknots.search: counts the
    states pushed onto a frontier and the largest frontier seen."""

    def __init__(self, counts):
        self._counts = counts

    def heappush(self, heap, item):
        heapq.heappush(heap, item)
        self._counts["search.admitted"] += 1
        if len(heap) > self._counts["search.frontier_peak"]:
            self._counts["search.frontier_peak"] = len(heap)

    def __getattr__(self, name):
        return getattr(heapq, name)
