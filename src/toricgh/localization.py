"""Face decompositions of a full-dimensional cone relative to a direction.

Fix a pointed full-dimensional cone sigma and a nonzero vector v.  A face
is a *back* face when moving off it in direction v stays inside sigma for
a short time, a *front* face when the same holds for -v, and *fixed*
(the Delta_0 class) when v lies in its linear span.  Both membership
tests are exact: the interval condition is equivalent to the tight facet
normals all pairing nonnegatively with v, and the span condition reduces
v, scaled to integers, against each face's integer echelon basis, which
the cone computes once for all directions.

Every back face tau has a unique minimal fixed face above it (tau plus
the drift direction), and summing g(tau, 1) g(sigma/tau, 1) over the
minimal fixed faces bounds g(sigma, 1) from below.
"""

from __future__ import annotations

import random
from dataclasses import dataclass
from fractions import Fraction

from toricgh.geometry import Cone, dot, in_span, nullspace, primitive_ray
from toricgh.toric import face_g, quotient_g


@dataclass(frozen=True)
class ConeDecomposition:
    cone: Cone
    v: tuple
    back: frozenset        # lattice face indices
    front: frozenset
    fixed: frozenset       # Delta_0: faces whose span contains v
    min_fixed: tuple       # antichain of minimal members of Delta_0


def classify_faces(cone: Cone, v) -> ConeDecomposition:
    """Split the faces of the cone into back / front / fixed classes."""
    v = tuple(Fraction(x) for x in v)
    if len(v) != cone.dim or not any(v):
        raise ValueError(f"direction must be a nonzero vector of length {cone.dim}")
    lat = cone.lattice
    n = len(lat.faces)
    pairing = [dot(normal, v) for normal in cone.normals]

    back = frozenset(
        i for i in range(n) if all(pairing[j] >= 0 for j in cone.tight[i])
    )
    front = frozenset(
        i for i in range(n) if all(pairing[j] <= 0 for j in cone.tight[i])
    )
    ray = primitive_ray(v)
    spans = cone.face_spans
    fixed = frozenset(i for i in range(1, n) if in_span(spans[i], ray))
    if fixed != back & front:
        raise AssertionError("span test disagrees with the facet-normal test")
    minimal = tuple(
        sorted(
            i for i in fixed
            if not any(j != i and lat.leq[j, i] for j in fixed)
        )
    )
    return ConeDecomposition(cone, v, back, front, fixed, minimal)


def tau_plus_v(decomp: ConeDecomposition, face: int) -> int:
    """The unique smallest fixed face containing a back face."""
    if face not in decomp.back:
        raise ValueError("drift target is only defined for back faces")
    lat = decomp.cone.lattice
    above = [i for i in decomp.fixed if lat.leq[face, i]]
    mins = [i for i in above if not any(j != i and lat.leq[j, i] for j in above)]
    if len(mins) != 1:
        raise AssertionError(f"minimal fixed face above {face} is not unique: {mins}")
    return mins[0]


def check_generalized_monotonicity(cone: Cone, v):
    """g(sigma, 1) >= sum over minimal fixed faces of g(tau, 1) g(sigma/tau, 1).

    Returns (lhs, rhs, ok).  When v is interior to a face tau this is
    monotonicity for the single face tau evaluated at t = 1; for special
    v several faces contribute and equality can hold.
    """
    decomp = classify_faces(cone, v)
    lat = cone.lattice
    lhs = face_g(lat, lat.top)(1)
    rhs = 0
    for tau in decomp.min_fixed:
        rhs += face_g(lat, tau)(1) * quotient_g(lat, tau)(1)
    return lhs, rhs, lhs >= rhs


def span_pair_direction(cone: Cone, f1: int, f2: int):
    """A nonzero rational vector in span(f1) meet span(f2), if any."""
    r1 = cone.face_rays(f1)
    r2 = cone.face_rays(f2)
    if not r1 or not r2:
        return None
    cols = [list(ray) for ray in r1] + [[-x for x in ray] for ray in r2]
    rows = [[cols[c][i] for c in range(len(cols))] for i in range(cone.dim)]
    for coeffs in nullspace(rows):
        vec = [
            sum(coeffs[k] * r1[k][i] for k in range(len(r1)))
            for i in range(cone.dim)
        ]
        if any(vec):
            return tuple(vec)
    return None


def sample_directions(cone: Cone, seed: int = 0, grid: int = 12):
    """Deterministic direction sample hitting nontrivial fixed strata.

    Mixes directions lying in intersections of spans of face pairs
    (these produce interesting Delta_0 classes) with a pseudo-random
    rational batch; all directions are nonzero and exact.
    """
    lat = cone.lattice
    out = []
    seen = set()

    def push(v):
        if v is None or not any(v):
            return
        key = tuple(Fraction(x) for x in v)
        if key not in seen:
            seen.add(key)
            out.append(key)

    proper = [i for i in range(1, len(lat.faces) - 1) if lat.dims[i] >= 0]
    pairs = [
        (a, b)
        for ai, a in enumerate(proper)
        for b in proper[ai + 1:]
        if not (lat.leq[a, b] or lat.leq[b, a])
    ]
    rng = random.Random(seed)
    rng.shuffle(pairs)
    for a, b in pairs[: 2 * grid]:
        push(span_pair_direction(cone, a, b))
    push(cone.rays[0])
    push(tuple(sum(col) for col in zip(*cone.rays)))  # interior direction
    for _ in range(grid):
        push(tuple(rng.randint(-7, 7) for _ in range(cone.dim)))
    return out
