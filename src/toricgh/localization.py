"""Face decompositions of a full-dimensional cone relative to a direction.

Fix a pointed full-dimensional cone sigma and a nonzero vector v.  A face
is a *back* face when moving off it in direction v stays inside sigma for
a short time, a *front* face when the same holds for -v, and *fixed*
(the Delta_0 class) when v lies in its linear span.  A face is back
exactly when no facet through it has an inner normal pairing negatively
with v, so the back faces are those in no such row of the facet x face
incidence matrix; front is the same with the sign flipped.  The span
of a face is the meet of the facet hyperplanes through it, so fixed =
back & front.  All three come from one integer pairing per facet, with v
scaled to a primitive integer vector.

Every back face tau has a unique minimal fixed face above it (tau plus
the drift direction), and summing g(tau, 1) g(sigma/tau, 1) over the
minimal fixed faces bounds g(sigma, 1) from below.
"""

from __future__ import annotations

import random
from dataclasses import dataclass
from fractions import Fraction

import numpy as np

from toricgh.geometry import Cone, _integer_kernel, dot, primitive_ray
from toricgh.toric import _face_tables, _quotient_tables


@dataclass(frozen=True)
class ConeDecomposition:
    cone: Cone
    back: frozenset        # lattice face indices
    front: frozenset
    fixed: frozenset       # Delta_0: faces whose span contains v
    min_fixed: tuple       # antichain of minimal members of Delta_0


def classify_faces(cone: Cone, v) -> ConeDecomposition:
    """Split the faces of the cone into back / front / fixed classes."""
    ray = primitive_ray(v)
    if len(ray) != cone.dim or not any(ray):
        raise ValueError(f"direction must be a nonzero vector of length {cone.dim}")
    if cone.dim < 2:
        # a point has no facets to lift, so the apex would pass as fixed
        raise ValueError("face classes need a cone over a polytope of dimension >= 1")
    lat = cone.lattice
    inc = cone.polytope.facet_incidence
    # signs in Python ints: a normal times the primitive ray can pass int64
    sign = np.array([(p > 0) - (p < 0) for p in (dot(a, ray) for a in cone.normals)])
    back = ~inc[sign < 0].any(axis=0)
    front = ~inc[sign > 0].any(axis=0)
    fixed = back & front
    # a fixed face above another fixed face is not minimal
    px, py = lat.pairs
    minimal = fixed.copy()
    minimal[py[fixed[px] & fixed[py]]] = False

    def faces(mask):
        return frozenset(np.flatnonzero(mask).tolist())

    return ConeDecomposition(
        cone, faces(back), faces(front), faces(fixed),
        tuple(np.flatnonzero(minimal).tolist()),
    )


def check_generalized_monotonicity(cone: Cone, v):
    """g(sigma, 1) >= sum over minimal fixed faces of g(tau, 1) g(sigma/tau, 1).

    Returns (lhs, rhs, ok).  When v is interior to a face tau this is
    monotonicity for the single face tau evaluated at t = 1; for special
    v several faces contribute and equality can hold.
    """
    decomp = classify_faces(cone, v)
    lat = cone.lattice
    G, quot = _face_tables(lat)[1], _quotient_tables(lat)[1]
    lhs = sum(G[lat.top].tolist())
    rhs = sum(sum(G[tau].tolist()) * sum(quot[tau].tolist()) for tau in decomp.min_fixed)
    return lhs, rhs, lhs >= rhs


def span_pair_direction(cone: Cone, f1: int, f2: int):
    """A nonzero rational vector in span(f1) meet span(f2), if any.

    Each kernel vector of [rays of f1 | -rays of f2] comes in ints, scaled
    by the last Bareiss pivot; its f1 part is summed over the int rays and
    divided by the pivot once per coordinate.
    """
    r1 = cone.face_rays(f1)
    r2 = cone.face_rays(f2)
    if not r1 or not r2:
        return None
    cols = [list(ray) for ray in r1] + [[-x for x in ray] for ray in r2]
    rows = [[cols[c][i] for c in range(len(cols))] for i in range(cone.dim)]
    basis, den = _integer_kernel(rows)
    for coeffs in basis:
        vec = [
            sum(coeffs[k] * r1[k][i] for k in range(len(r1)))
            for i in range(cone.dim)
        ]
        if any(vec):
            return tuple(Fraction(x, den) for x in vec)
    return None


def sample_directions(cone: Cone, seed: int = 0, grid: int = 12):
    """Deterministic direction sample hitting nontrivial fixed strata.

    Mixes directions lying in intersections of spans of face pairs
    (these produce interesting Delta_0 classes) with a pseudo-random
    rational batch; all directions are nonzero and exact.
    """
    if grid < 0:
        raise ValueError(f"grid must be >= 0, got {grid}")
    lat = cone.lattice
    out = []
    seen = set()

    def push(v):
        if v is None or not any(v):
            return
        # ints and Fractions of one value hash, compare and print alike
        key = tuple(v)
        if key not in seen:
            seen.add(key)
            out.append(key)

    # the proper faces are 1, ..., n - 2 and the index order extends the face
    # order, so a pairs with the later ones not above it (the top is above all)
    n = len(lat)
    counts = np.arange(n - 3, -1, -1) - np.diff(lat._rows())[1:n - 1] + 1
    starts = np.concatenate(([0], np.cumsum(counts)))
    n_pairs = int(starts[-1])
    rng = random.Random(seed)
    # the pairs are numbered in (a, b) order; draw 2 * grid of the numbers
    for k in rng.sample(range(n_pairs), min(2 * grid, n_pairs)):
        a = int(np.searchsorted(starts, k, side="right"))   # block a - 1 holds k
        later = np.setdiff1d(np.arange(a + 1, n - 1), lat.above(a), assume_unique=True)
        push(span_pair_direction(cone, a, int(later[k - starts[a - 1]])))
    push(cone.rays[0])
    push(tuple(sum(col) for col in zip(*cone.rays)))  # interior direction
    for _ in range(grid):
        push(tuple(rng.randint(-7, 7) for _ in range(cone.dim)))
    return out
