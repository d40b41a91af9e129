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
from math import lcm

import numpy as np

from toricgh.geometry import GeometricPolytope, dot, primitive_ray
from toricgh.polynomial import Polynomial
from toricgh.toric import _binom_kernel, _face_tables, toric_h


class ShellingError(RuntimeError):
    """A generated facet order failed a shelling validity check."""


@dataclass(frozen=True)
class Shelling:
    polytope: GeometricPolytope
    order: tuple[int, ...]          # facet indices, shelling order
    direction: tuple


# generic directions drawn from the seeded stream before a shelling gives up
_RETRIES = 64


def _direction_stream(dim, seed):
    rng = random.Random(seed)
    while True:
        v = tuple(Fraction(rng.randint(-99, 99), rng.randint(1, 9)) for _ in range(dim))
        if any(v):
            yield v


def line_shelling(p: GeometricPolytope, direction=None, seed: int = 0) -> Shelling:
    """Shelling of the facets of ``p`` along a generic line.

    The line runs through the vertex average.  A direction is generic
    when it is parallel to no facet hyperplane and the crossing
    parameters are pairwise distinct; non-generic directions (given or
    drawn) are discarded and a fresh one is drawn from the seeded
    stream, up to ``_RETRIES`` draws.

    Crossings are compared in integers, on the polytope's integer points
    x, their sum B and their number n.  Facet i (<a_i, x> <= b_i) is
    crossed at t_i = (L / n) num_i / den_i from the base point B / n,
    where num_i = n b_i - <a_i, B> > 0 (the base point is interior),
    w = L v is the primitive integer direction (``primitive_ray``) and
    den_i = <a_i, w>.  The factor in front is positive (L > 0), so with
    M = lcm |den_i| the integer keys num_i (M / den_i) = M num_i / den_i
    sort and tie exactly as the t_i do.  The order lists the facets
    crossed going up (den_i > 0) by key, then those crossed returning
    from below.
    """
    if p.d < 1:
        raise ValueError("shellings need dimension >= 1")
    candidates = islice(_direction_stream(p.d, seed), _RETRIES)
    if direction is not None:
        direction = tuple(Fraction(x) for x in direction)
        if len(direction) != p.d:
            raise ValueError(f"direction must have {p.d} coordinates")
        candidates = chain([direction], candidates)

    _, pts = p.integer_points
    n = len(pts)
    total = [sum(col) for col in zip(*pts)]
    normals = [a for a, _, _ in p.facets]
    nums = [n * b - dot(a, total) for a, b, _ in p.facets]
    for v in candidates:
        w = primitive_ray(v)
        dens = [dot(a, w) for a in normals]
        if not all(dens):
            continue
        m = lcm(*dens)
        keys = [num * (m // den) for num, den in zip(nums, dens)]
        if len(set(keys)) != len(keys):
            continue
        by_key = sorted(range(len(keys)), key=keys.__getitem__)
        order = tuple([i for i in by_key if dens[i] > 0] + [i for i in by_key if dens[i] < 0])
        sh = Shelling(p, order, v)
        _check_partial_unions(sh)
        return sh
    raise ShellingError(
        f"no generic direction found in {_RETRIES} retries (seed {seed})"
    )


def _check_partial_unions(sh: Shelling):
    """Necessary conditions for a shelling, checked exactly.

    For j >= 2 the intersection of facet F_j with the union of the
    earlier facets must be a nonempty pure (d-2)-dimensional subcomplex
    of the boundary of F_j, proper for j < r and all of it for j = r.
    The full topological-disk condition is not verified; the rotating
    line guarantees it, and these checks catch bookkeeping errors.

    All steps are read at once: the covered faces before each step are a
    running OR down the incidence rows.  A shared ridge lies in F_j and
    in exactly one earlier facet F_k, and its faces are those of the meet
    F_j ^ F_k, so the shared boundary is pure when every face of F_j that
    is covered lies in a facet F_k, k < j, sharing a ridge with F_j: the
    lower triangle of R R^T, with R the facet x ridge incidence.  The
    first failing step raises.
    """
    p = sh.polytope
    inc = p.facet_incidence[list(sh.order)]
    r = len(inc)
    if r < 2:
        return
    ridge = p.lattice.dims == p.d - 2
    # row i below is the (i + 2)-th facet of the order against those before it
    inside = inc[1:] & np.logical_or.accumulate(inc[:-1], axis=0)
    shared = inside[:, ridge].sum(axis=1)
    n_all = inc[1:, ridge].sum(axis=1)
    # bool products: partners[i, k] marks the earlier facets k sharing a
    # ridge with row i, and partners @ inc the faces lying in one of them
    rid = inc[:, ridge]
    partners = np.tril(rid @ rid.T, -1)[1:]
    impure = (inside & ~(partners @ inc)).any(axis=1)
    last = np.arange(1, r) == r - 1
    fails = [
        (shared == 0, "step {}: no shared ridge with earlier facets"),
        (impure, "step {}: shared boundary is not pure"),
        (~last & (shared == n_all), "step {}: facet glued along its whole boundary"),
        (last & (shared != n_all), "last facet must close up the sphere"),
    ]
    bad = np.any([mask for mask, _ in fails], axis=0)
    if bad.any():
        i = int(np.argmax(bad))
        text = next(text for mask, text in fails if mask[i])
        raise ShellingError(text.format(i + 2))


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
    # g(F) (t-1)^(d-1-dim F) per boundary face F, one pass per coefficient of
    # (t-1)^(d-1-e) over the g rows of each dimension e; the products have
    # degree <= d, so no column of g they need is cut off.  They are summands
    # of h, so in the int64 bound ``_chain_flags`` checks
    G = _face_tables(lat)[1]
    pieces = np.zeros((len(sh.order), d + 1), dtype=np.int64)
    for e in range(-1, d):
        at = np.flatnonzero(lat.dims == e)
        rows = np.zeros((len(at), d + 1), dtype=np.int64)
        for j, c in enumerate(_binom_kernel(d - 1 - e).tolist()):
            rows[:, j:] += c * G[at, :d + 1 - j]
        np.add.at(pieces, first_cover[at], rows)
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
