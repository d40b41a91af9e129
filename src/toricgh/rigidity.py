"""Bar frameworks on polytope skeletons and their stresses.

The framework of a polytope has its vertices as joints and, as bars, the
edges of the polytope plus enough diagonals to triangulate every 2-face
(a fan of diagonals from the least-index vertex of each).  The kernel of
its rigidity matrix consists of the first-order motions; for a convex
polytope all of them are restrictions of global affine motions, so the
kernel has dimension C(d+1, 2).  The cokernel is the space of stresses,
whose dimension realizes the invariant g_2 in dimension >= 4 and
vanishes in dimension 3 (Cauchy-Dehn-Aleksandrov rigidity).

Degree one is simpler: the rank of the ray-restriction matrix of a fan
computes the number of rays minus dim V, realizing h_1 for central fans
and g_1 for single full-dimensional cones.
"""

from __future__ import annotations

import warnings
from dataclasses import dataclass
from fractions import Fraction
from math import comb, lcm

from toricgh.geometry import GeometricPolytope, exact_rank
from toricgh.toric import flag_vector


@dataclass(frozen=True)
class Framework:
    """Joints at rational points plus bars between them."""

    points: tuple
    edges: tuple          # pairs of point indices
    d: int

    @property
    def n_edges(self):
        return len(self.edges)


def _cycle_order(lat, face):
    """Vertices of a 2-face in boundary-walk order."""
    verts = sorted(lat.faces[face])
    edges = [sorted(lat.faces[e]) for e in lat.below(face) if lat.dims[e] == 1]
    nbr = {v: [] for v in verts}
    for a, b in edges:
        nbr[a].append(b)
        nbr[b].append(a)
    if any(len(ns) != 2 for ns in nbr.values()):
        raise ValueError("2-face edges do not form a cycle")
    walk = [verts[0], min(nbr[verts[0]])]
    while len(walk) < len(verts):
        prev, cur = walk[-2], walk[-1]
        nxt = nbr[cur][0] if nbr[cur][0] != prev else nbr[cur][1]
        walk.append(nxt)
    return walk


def build_framework(p: GeometricPolytope) -> Framework:
    """Edges of the polytope plus a diagonal fan in every 2-face."""
    if p.d < 3:
        raise ValueError("frameworks need dimension >= 3")
    lat = p.lattice
    edges = [tuple(sorted(lat.faces[e])) for e in lat.faces_of_dim(1)]
    for face in lat.faces_of_dim(2):
        walk = _cycle_order(lat, face)
        v0 = walk[0]
        for w in walk[2:-1]:
            edges.append((v0, w))
    fv = flag_vector(lat)
    expected = fv.count(1) + fv.count(0, 2) - 3 * fv.count(2)
    if len(edges) != expected:
        raise AssertionError(
            f"edge count {len(edges)} != f1 + f02 - 3 f2 = {expected}"
        )
    return Framework(tuple(p.coords), tuple(edges), p.d)


def rigidity_matrix(fw: Framework):
    """One row per bar: (v - v') in v's block, (v' - v) in v''s block."""
    rows = []
    for u, w in fw.edges:
        row = [0] * (fw.d * len(fw.points))
        diff = [a - b for a, b in zip(fw.points[u], fw.points[w])]
        for k in range(fw.d):
            row[fw.d * u + k] = diff[k]
            row[fw.d * w + k] = -diff[k]
        rows.append(row)
    return rows


def rigidity_rank(fw: Framework) -> int:
    """Exact rank of the rigidity matrix, certified modulo a prime.

    The joints are scaled to integer points by one positive integer, which
    scales the matrix and leaves its rank unchanged.  When they affinely
    span R^d, the C(d+1, 2)-dimensional space of trivial motions lies in
    the kernel, so the rank is at most d n - C(d+1, 2); ``exact_rank``
    takes its rank mod p when it reaches that bound.  Polytope frameworks
    with triangulated 2-faces are infinitesimally rigid (Whiteley), so
    they reach it and the Bareiss fallback does not run.
    """
    points = [[Fraction(x) for x in p] for p in fw.points]
    mult = lcm(*(x.denominator for p in points for x in p))
    joints = [[x.numerator * (mult // x.denominator) for x in p] for p in points]
    at_most = None
    if joints and exact_rank([[a - b for a, b in zip(p, joints[0])] for p in joints]) == fw.d:
        at_most = fw.d * len(joints) - comb(fw.d + 1, 2)
    rows = rigidity_matrix(Framework(tuple(joints), fw.edges, fw.d))
    return exact_rank(rows, at_most=at_most)


def stress_dimension(fw: Framework) -> int:
    """dim of the stress space = number of bars minus the matrix rank."""
    return fw.n_edges - rigidity_rank(fw)


def g2_via_stresses(p: GeometricPolytope) -> int:
    """g_2 realized as the stress space of the triangulated skeleton.

    Equals g_2(P) for convex P of dimension >= 4 and 0 in dimension 3.
    """
    return stress_dimension(build_framework(p))


def infinitesimal_rigidity_check(fw: Framework) -> bool:
    """All first-order motions are affine: kernel dim equals C(d+1, 2)."""
    return fw.d * len(fw.points) - rigidity_rank(fw) == comb(fw.d + 1, 2)


def degree_one_dim(fan) -> int:
    """Number of rays minus the rank of the ray matrix.

    When the rays span the ambient space this is #rays - dim V, which is
    h_1 for a complete polytopal fan and g_1 for a full-dimensional cone
    over a polytope; when they do not span, a warning is emitted and the
    corank is returned anyway.
    """
    rays = list(fan.rays)
    if not rays:
        return 0
    rank = exact_rank(rays)
    if rank < len(rays[0]):
        warnings.warn("fan rays do not span the ambient space", stacklevel=2)
    return len(rays) - rank
