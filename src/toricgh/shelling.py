"""Line shellings of polytope boundaries and local h decompositions.

A shelling order on the facets splits the defining sum of h(P, t) into
relative pieces h(I_j, I_{j-1}, t), one per facet, where I_j is the
subcomplex covered by the first j facets.  The pieces always add up to
h(P, t); convexity guarantees each piece has nonnegative coefficients,
and this module certifies both facts on every decomposition it emits.

Shellings are generated by the classical rotating-line construction:
walk along a generic line through an interior point, listing facets in
the order their hyperplanes are crossed going up, then in the order
they are crossed returning from below.
"""

from __future__ import annotations

import random
from dataclasses import dataclass
from fractions import Fraction
from itertools import chain, islice

import numpy as np

from toricgh.geometry import GeometricPolytope, dot
from toricgh.polynomial import Polynomial
from toricgh.toric import _interval_tables, _kernels, toric_h


class ShellingError(RuntimeError):
    """A generated facet order failed a shelling validity check."""


@dataclass(frozen=True)
class Shelling:
    polytope: GeometricPolytope
    order: tuple[int, ...]          # facet indices, shelling order
    base_point: tuple
    direction: tuple
    crossings: tuple                # line parameter at each facet plane


def _direction_stream(dim, seed):
    rng = random.Random(seed)
    while True:
        v = tuple(Fraction(rng.randint(-99, 99), rng.randint(1, 9)) for _ in range(dim))
        if any(v):
            yield v


def line_shelling(
    p: GeometricPolytope, direction=None, seed: int = 0, retries: int = 64
) -> Shelling:
    """Shelling of the facets of ``p`` along a generic line.

    The line runs through the vertex average.  A direction is generic
    when it is parallel to no facet hyperplane and the crossing
    parameters are pairwise distinct; non-generic directions (given or
    drawn) are discarded and a fresh one is drawn from the seeded
    stream, up to the retry budget.
    """
    if p.d < 1:
        raise ValueError("shellings need dimension >= 1")
    if retries < 0:
        raise ValueError(f"retries must be >= 0, got {retries}")
    base = p.barycenter()
    candidates = islice(_direction_stream(p.d, seed), retries)
    if direction is not None:
        direction = tuple(Fraction(x) for x in direction)
        if len(direction) != p.d:
            raise ValueError(f"direction must have {p.d} coordinates")
        candidates = chain([direction], candidates)

    for v in candidates:
        speeds = [dot(a, v) for a, _, _ in p.facets]
        if any(s == 0 for s in speeds):
            continue
        times = [
            (b - dot(a, base)) / s for (a, b, _), s in zip(p.facets, speeds)
        ]
        if len(set(times)) != len(times):
            continue
        up = sorted((t, i) for i, t in enumerate(times) if speeds[i] > 0)
        down = sorted((t, i) for i, t in enumerate(times) if speeds[i] < 0)
        order = tuple(i for _, i in up + down)
        sh = Shelling(p, order, base, v, tuple(times[i] for i in order))
        _check_partial_unions(sh)
        return sh
    raise ShellingError(
        f"no generic direction found in {retries} retries (seed {seed})"
    )


def _check_partial_unions(sh: Shelling):
    """Necessary conditions for a shelling, checked exactly.

    For j >= 2 the intersection of facet F_j with the union of the
    earlier facets must be a nonempty pure (d-2)-dimensional subcomplex
    of the boundary of F_j, proper for j < r and all of it for j = r.
    The full topological-disk condition is not verified; the rotating
    line guarantees it, and these checks catch bookkeeping errors.
    """
    p = sh.polytope
    inc = p.facet_incidence[list(sh.order)]
    ridge = p.lattice.dims == p.d - 2
    r = len(inc)
    covered = inc[0].copy()
    for j in range(1, r):
        inside = inc[j] & covered      # the faces of F_j in earlier facets
        ridges = np.flatnonzero(inside & ridge)
        if not ridges.size:
            raise ShellingError(f"step {j + 1}: no shared ridge with earlier facets")
        # a shared ridge R lies in F_j and in exactly one earlier facet F_k,
        # and the faces of R are those of the meet F_j ^ F_k: inc[k] & inc[j]
        partners = inc[:j][inc[:j, ridges].any(axis=1)]
        if np.any(inside & ~(partners & inc[j]).any(axis=0)):
            raise ShellingError(f"step {j + 1}: shared boundary is not pure")
        n_all = int((inc[j] & ridge).sum())
        if j < r - 1 and len(ridges) == n_all:
            raise ShellingError(f"step {j + 1}: facet glued along its whole boundary")
        if j == r - 1 and len(ridges) != n_all:
            raise ShellingError("last facet must close up the sphere")
        covered |= inc[j]


def _first_cover(sh: Shelling) -> np.ndarray:
    """The first facet in shelling order that holds each boundary face."""
    inc = sh.polytope.facet_incidence[list(sh.order), :-1]
    if not inc.any(axis=0).all():
        raise ShellingError("some boundary face lies in no facet")
    return inc.argmax(axis=0)


def shelling_decomposition(sh: Shelling) -> list[Polynomial]:
    """The local polynomials h(I_j, I_{j-1}, t) of a shelling.

    Certifies that they sum to h(P, t) and that every coefficient is
    nonnegative; a violation is reported as an error since it would
    falsify the implementation, not the underlying theorem.
    """
    lat = sh.polytope.lattice
    d = sh.polytope.d
    first_cover = _first_cover(sh)
    # g(F) (t-1)^(d-1-dim F) per boundary face F, one product per dimension on
    # the rows of the bottom g table; summands of h, so in ``_guard``'s int64 bound
    pos, _, G = _interval_tables(lat, lat.bottom)
    face = np.fromiter(pos, dtype=np.intp, count=len(pos))
    row = np.fromiter(pos.values(), dtype=np.intp, count=len(pos))
    stacks, _ = _kernels(d + 1)
    pieces = np.zeros((len(sh.order), d + 1), dtype=np.int64)
    for e in range(-1, d):
        at = lat.dims[face] == e
        np.add.at(pieces, first_cover[face[at]], G[row[at]] @ stacks[d - 1 - e][:d + 1])
    locals_ = [Polynomial(coeffs) for coeffs in pieces.tolist()]
    if (pieces < 0).any():
        j = int(np.argmax((pieces < 0).any(axis=1)))
        raise ShellingError(
            f"negative local h at step {j + 1}: {locals_[j]} (order {sh.order})"
        )
    total = Polynomial(pieces.sum(axis=0).tolist())
    if total != toric_h(lat):
        raise ShellingError(
            f"local pieces sum to {total}, expected {toric_h(lat)}"
        )
    return locals_
