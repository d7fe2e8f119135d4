"""Carter band surface of a diagram and its genus.

Every classical crossing becomes a 4-valent vertex carrying two
intersecting bands; the arcs between consecutive endpoints become band
edges.  Capping the boundary circles of the resulting band surface with
disks yields a closed oriented surface whose genus upper-bounds the
virtual genus of the underlying knot.

Darts are integers.  Endpoints are numbered 0, 1, ... in component
order; the arc leaving endpoint e carries dart 2e, which leaves e's
vertex, and dart 2e + 1, which arrives at the vertex of the next
endpoint on the component.  The involution alpha pairing the two darts
of an arc is therefore ``dart ^ 1``, and the rotation sigma gives the
counterclockwise order of the four darts at each vertex.  Boundary
circles are the orbits of sigma composed with alpha.

Rotation convention, for a crossing of sign epsilon (validated against
the planar trefoil, which must produce 5 faces):

    epsilon = +1 : over-out, under-out, over-in, under-in
    epsilon = -1 : over-out, under-in, over-in, under-out

The connected pieces of the surface are found by union-find over the
components, two components being joined at each crossing they share.
"""

from __future__ import annotations

from dataclasses import dataclass

from .diagram import DiagramError, GaussDiagram


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


def carter_report(d: GaussDiagram) -> CarterReport:
    """Face, Euler characteristic, and genus bookkeeping for a diagram.

    Split diagrams give disconnected band surfaces; genus is summed over
    the connected pieces.  Chordless circles are genus-0 spheres and
    contribute nothing.
    """
    if d.long:
        raise DiagramError("carter_report needs a round diagram")
    comp_of: list[int] = []  # dart -> its component
    # crossing id -> its darts [over-out, under-out, over-in, under-in]
    darts: dict[int, list[int]] = {}
    for c, comp in enumerate(d.components):
        base, k = len(comp_of), len(comp)
        for i, (cid, role) in enumerate(comp):
            at = darts.setdefault(cid, [0, 0, 0, 0])
            at[role] = base + 2 * i
            at[2 + role] = base + 2 * ((i - 1) % k) + 1
        comp_of += [c] * (2 * k)

    parent = list(range(d.n_components))

    def find(x: int) -> int:
        while parent[x] != x:
            parent[x] = parent[parent[x]]
            x = parent[x]
        return x

    for over_out, under_out, _, _ in darts.values():
        parent[find(comp_of[over_out])] = find(comp_of[under_out])

    # Euler characteristic per piece, kept at the piece's root: one
    # less per vertex, one more per face.
    chi = [0] * d.n_components
    sigma = [0] * len(comp_of)
    for cid, (over_out, under_out, over_in, under_in) in darts.items():
        chi[find(comp_of[over_out])] -= 1
        if d.sign_of(cid) > 0:
            cycle = (over_out, under_out, over_in, under_in)
        else:
            cycle = (over_out, under_in, over_in, under_out)
        for i in range(4):
            sigma[cycle[i]] = cycle[(i + 1) % 4]

    seen = bytearray(len(sigma))
    for start in range(len(sigma)):
        if seen[start]:
            continue
        chi[find(comp_of[start])] += 1
        dart = start
        while not seen[dart]:
            seen[dart] = 1
            dart = sigma[dart ^ 1]

    genus = 0
    for root in {find(comp_of[over_out]) for over_out, *_ in darts.values()}:
        if chi[root] % 2 != 0 or chi[root] > 2:
            raise AssertionError(
                f"band-surface piece has Euler characteristic {chi[root]}; "
                "rotation convention broken"
            )
        genus += (2 - chi[root]) // 2

    euler = sum(chi)
    return CarterReport(
        crossings=d.n_crossings,
        faces=euler + d.n_crossings,
        euler=euler,
        genus=genus,
    )


def carter_genus(d: GaussDiagram) -> int:
    """Genus of the capped band surface, summed over connected pieces."""
    return carter_report(d).genus
