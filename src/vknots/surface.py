"""Carter band surface of a diagram and its genus.

Every classical crossing becomes a 4-valent vertex carrying two
intersecting bands; the arcs between consecutive endpoints become band
edges.  Capping the boundary circles of the resulting band surface with
disks yields a closed oriented surface whose genus upper-bounds the
virtual genus of the underlying knot.

The surface is encoded as a combinatorial map: one dart per arc end,
the involution `alpha` pairing the two darts of an arc, and the rotation
`sigma` giving the counterclockwise order of the four darts at each
vertex.  Boundary circles are the orbits of sigma composed with alpha.

Rotation convention, for a crossing of sign epsilon (validated against
the planar trefoil, which must produce 5 faces):

    epsilon = +1 : over-out, under-out, over-in, under-in
    epsilon = -1 : over-out, under-in, over-in, under-out
"""

from __future__ import annotations

from dataclasses import dataclass

from .diagram import OVER, DiagramError, GaussDiagram

# Dart encoding: ("out", comp, arc) leaves the vertex at the arc's start
# endpoint; ("in", comp, arc) arrives at the vertex at its end endpoint.
Dart = tuple[str, int, int]


@dataclass(frozen=True)
class CombinatorialMap:
    darts: tuple[Dart, ...]
    alpha: tuple[tuple[Dart, Dart], ...]  # arc-end pairing
    sigma: tuple[tuple[Dart, ...], ...]  # one 4-cycle per crossing vertex
    vertex_of: tuple[tuple[Dart, int], ...]  # dart -> crossing id

    def alpha_map(self) -> dict[Dart, Dart]:
        m: dict[Dart, Dart] = {}
        for a, b in self.alpha:
            m[a] = b
            m[b] = a
        return m

    def sigma_map(self) -> dict[Dart, Dart]:
        m: dict[Dart, Dart] = {}
        for cycle in self.sigma:
            for i, dart in enumerate(cycle):
                m[dart] = cycle[(i + 1) % len(cycle)]
        return m


@dataclass(frozen=True)
class CarterReport:
    crossings: int
    faces: int
    euler: int
    genus: int

    def record(self) -> str:
        return (
            f"crossings={self.crossings} faces={self.faces} "
            f"euler={self.euler} genus={self.genus}"
        )


def build_map(d: GaussDiagram) -> CombinatorialMap:
    """Combinatorial map of the band surface of a round diagram.

    Chordless circles carry no crossings and are left out (they are
    spheres); long diagrams must be closed first.
    """
    if d.long:
        raise DiagramError("build_map needs a round diagram; close the strand first")

    darts: list[Dart] = []
    alpha: list[tuple[Dart, Dart]] = []
    # Per crossing: incoming/outgoing dart on the over and under branch.
    at_crossing: dict[int, dict[str, Dart]] = {}

    for c, comp in enumerate(d.components):
        k = len(comp)
        for i in range(k):
            out_dart: Dart = ("out", c, i)
            in_dart: Dart = ("in", c, i)
            darts += [out_dart, in_dart]
            alpha.append((out_dart, in_dart))
            src_id, src_role = comp[i]
            dst_id, dst_role = comp[(i + 1) % k]
            src_branch = "over" if src_role == OVER else "under"
            dst_branch = "over" if dst_role == OVER else "under"
            at_crossing.setdefault(src_id, {})[src_branch + "_out"] = out_dart
            at_crossing.setdefault(dst_id, {})[dst_branch + "_in"] = in_dart

    sigma: list[tuple[Dart, ...]] = []
    vertex_of: list[tuple[Dart, int]] = []
    for cid in sorted(at_crossing):
        ends = at_crossing[cid]
        if d.sign_of(cid) > 0:
            cycle = (
                ends["over_out"],
                ends["under_out"],
                ends["over_in"],
                ends["under_in"],
            )
        else:
            cycle = (
                ends["over_out"],
                ends["under_in"],
                ends["over_in"],
                ends["under_out"],
            )
        sigma.append(cycle)
        vertex_of += [(dart, cid) for dart in cycle]

    return CombinatorialMap(tuple(darts), tuple(alpha), tuple(sigma), tuple(vertex_of))


def trace_faces(m: CombinatorialMap) -> int:
    """Number of boundary circles: orbits of sigma∘alpha on darts."""
    return len(face_orbits(m))


def face_orbits(m: CombinatorialMap) -> list[list[Dart]]:
    alpha = m.alpha_map()
    sigma = m.sigma_map()
    seen: set[Dart] = set()
    orbits: list[list[Dart]] = []
    for start in m.darts:
        if start in seen:
            continue
        orbit = []
        dart = start
        while dart not in seen:
            seen.add(dart)
            orbit.append(dart)
            dart = sigma[alpha[dart]]
        orbits.append(orbit)
    return orbits


def carter_report(d: GaussDiagram) -> CarterReport:
    """Face, Euler characteristic, and genus bookkeeping for a diagram.

    Split diagrams give disconnected band surfaces; genus is summed over
    the connected pieces.  Chordless circles are genus-0 spheres and
    contribute nothing.
    """
    if d.long:
        raise DiagramError("carter_report needs a round diagram")
    m = build_map(d)
    vertex_of = dict(m.vertex_of)

    # Connected pieces of the band graph, via union-find on crossing ids.
    parent: dict[int, int] = {cid: cid for cid in d.crossing_ids}

    def find(x: int) -> int:
        while parent[x] != x:
            parent[x] = parent[parent[x]]
            x = parent[x]
        return x

    def union(x: int, y: int) -> None:
        parent[find(x)] = find(y)

    for comp in d.components:
        for i in range(len(comp)):
            union(comp[i][0], comp[(i + 1) % len(comp)][0])

    n_piece: dict[int, int] = {}
    for cid in d.crossing_ids:
        root = find(cid)
        n_piece[root] = n_piece.get(root, 0) + 1
    f_piece: dict[int, int] = {root: 0 for root in n_piece}
    for orbit in face_orbits(m):
        f_piece[find(vertex_of[orbit[0]])] += 1

    total_faces = sum(f_piece.values())
    total_genus = 0
    for root, n in n_piece.items():
        chi = f_piece[root] - n
        if chi % 2 != 0 or chi > 2:
            raise AssertionError(
                f"band-surface piece has Euler characteristic {chi}; "
                "rotation convention broken"
            )
        total_genus += (2 - chi) // 2

    return CarterReport(
        crossings=d.n_crossings,
        faces=total_faces,
        euler=total_faces - d.n_crossings,
        genus=total_genus,
    )


def carter_genus(d: GaussDiagram) -> int:
    """Genus of the capped band surface, summed over connected pieces."""
    return carter_report(d).genus
