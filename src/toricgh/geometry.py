"""Exact geometry: polytopes from vertices and the cones over them.

The input points are ``fractions.Fraction`` tuples, and they stay at
the input: once parsed, each coordinate row is cleared of denominators
and every later step runs on integers.  A polytope keeps one coordinate
form, ``integer_points``: its points in affine coordinates on their
hull, scaled by the least positive integer that makes them integers.
The double description, the facet offsets, the cone rays and normals,
the frameworks and the shelling keys all read it.  Every kernel comes
from one fraction-free (Bareiss) elimination on integer rows, and so
does every rank that its value modulo a 31-bit prime does not settle,
so there is no floating point anywhere.  Facet enumeration is the double
description method (Motzkin; Fukuda & Prodon, "Double description method
revisited", 1996) on the integer points: it adds the points one at a
time to the cone of a starting simplex, so its cost follows the number
of facets met on the way rather than the C(n, d) hyperplanes that
d-subsets of the points span.
"""

from __future__ import annotations

from fractions import Fraction
from functools import cached_property
from math import gcd, lcm

import numpy as np

from toricgh.lattice import FaceLattice, point_lattice


def dot(a, b):
    return sum(x * y for x, y in zip(a, b))


def primitive_ray(v) -> tuple[int, ...]:
    """Scale by a positive rational to the primitive integer vector."""
    (ints,) = _integer_rows([tuple(v)])
    g = gcd(*ints) or 1
    return tuple(x // g for x in ints)


# -- exact linear algebra ----------------------------------------------


def _integer_rows(rows):
    """Each row as a list of ints, scaled by the lcm of its denominators.

    Integer rows are copied as they are, and Fractions are read as they
    are; only other entries (strings, floats) are parsed.  Scaling a row
    changes neither the rank nor the reduced row echelon form.
    """
    out = []
    for row in rows:
        if all(type(x) is int for x in row):
            out.append(list(row))
            continue
        fr = [x if type(x) is int or type(x) is Fraction else Fraction(x) for x in row]
        mult = lcm(*(x.denominator for x in fr))
        out.append([x.numerator * (mult // x.denominator) for x in fr])
    return out


def _eliminate(mat, full=False):
    """Fraction-free (Bareiss) elimination of the int matrix ``mat`` in place.

    Returns (pivot columns, last pivot).  Row r then leads at pivots[r] and
    the rows past len(pivots) are zero.  Every division is exact, so all
    intermediate values are integers bounded by minors of the input.  With
    ``full`` the rows above each pivot are cleared too (fraction-free
    Gauss-Jordan); the pivot rows are then the last pivot times the
    reduced row echelon form.
    """
    nrows = len(mat)
    ncols = len(mat[0]) if mat else 0
    pivots = []
    prev = 1
    for col in range(ncols):
        rank = len(pivots)
        if rank == nrows:
            break
        piv = next((r for r in range(rank, nrows) if mat[r][col]), None)
        if piv is None:
            continue
        mat[rank], mat[piv] = mat[piv], mat[rank]
        prow = mat[rank]
        p = prow[col]
        for r in range(0 if full else rank + 1, nrows):
            if r == rank:
                continue
            row = mat[r]
            head = row[col]
            for c in range(0 if r < rank else col + 1, ncols):
                row[c] = (row[c] * p - head * prow[c]) // prev
            row[col] = 0
        prev = p
        pivots.append(col)
    return pivots, prev


# a 31-bit prime: the product of two residues fits in int64
_PRIME = 2_147_483_647


def _rank_mod_p(mat) -> int:
    """Rank over GF(_PRIME) of the int matrix ``mat``, on int64 rows.

    Entries are reduced as Python ints before they enter int64, and every
    product of two residues stays below 2^62, so nothing wraps.
    """
    a = np.array([[x % _PRIME for x in row] for row in mat], dtype=np.int64)
    nrows, ncols = a.shape
    rank = 0
    for col in range(ncols):
        if rank == nrows:
            break
        nz = rank + np.flatnonzero(a[rank:, col])
        if not nz.size:
            continue
        a[[rank, nz[0]]] = a[[nz[0], rank]]
        prow = a[rank, col:] * pow(int(a[rank, col]), -1, _PRIME) % _PRIME
        below = nz[1:]
        a[below, col:] = (a[below, col:] - np.outer(a[below, col], prow) % _PRIME) % _PRIME
        rank += 1
    return rank


def exact_rank(rows, at_most=None) -> int:
    """Rank over Q, certified by a rank modulo the prime ``_PRIME``.

    Rows may hold ints or Fractions; denominators are cleared per row,
    which does not change the rank.  The rank mod p never exceeds the rank
    over Q, so it is exact when it reaches an upper bound: min(rows,
    cols), or ``at_most`` when the caller has proven the rank is no
    larger.  Otherwise fraction-free (Bareiss) elimination gives the rank.
    """
    mat = _integer_rows(rows)
    if not mat or not mat[0]:
        return 0
    bound = min(len(mat), len(mat[0]))
    if at_most is not None:
        bound = min(bound, at_most)
    if _rank_mod_p(mat) == bound:
        return bound
    return len(_eliminate(mat)[0])


def _integer_kernel(rows):
    """Basis of the right kernel as int tuples, and their common divisor.

    Rows may hold ints or Fractions, cleared per row as in ``exact_rank``.
    Returns (basis, den): one vector per free column, in column order,
    is den at its free column, 0 at the other free columns, and the
    negated fraction-free reduced column at the pivot columns.  Divided
    by den (the last Bareiss pivot) it is the basis read off the reduced
    row echelon form.
    """
    ncols = len(rows[0])
    mat = _integer_rows(rows)
    pivots, den = _eliminate(mat, full=True)
    pivot_set = set(pivots)
    basis = []
    for fc in range(ncols):
        if fc in pivot_set:
            continue
        vec = [0] * ncols
        vec[fc] = den
        for r, pc in enumerate(pivots):
            vec[pc] = -mat[r][fc]
        basis.append(tuple(vec))
    return basis, den


# -- polytopes ----------------------------------------------------------


class GeometricPolytope:
    """Convex polytope given by its vertices, with exact facet data.

    ``integer_points`` is (scale, points): the vertices in affine
    coordinates on their hull, so they span dimension d, times the least
    positive integer ``scale`` that makes them all integers, in input
    order with duplicates dropped.  ``facets`` is a list of (normal,
    offset, tight vertex set) with <normal, x> <= offset valid on all the
    points x and tight exactly on the facet; normals and offsets are
    integers, in the units of the points.  ``lattice`` is the face
    lattice derived from the tight sets, ``facet_faces`` names the
    lattice face of each facet, and ``facet_incidence`` marks the faces
    lying in each facet.
    """

    def __init__(self, d, facets, lattice, integer_points):
        self.d = d
        self.facets = facets
        self.lattice = lattice
        self.integer_points = integer_points

    def __repr__(self):
        return f"GeometricPolytope(d={self.d}, vertices={len(self.integer_points[1])})"

    @cached_property
    def facet_faces(self) -> tuple[int, ...]:
        """Lattice face index of each facet, in ``facets`` order."""
        return tuple(self.lattice.index_of(t) for _, _, t in self.facets)

    @cached_property
    def facet_incidence(self) -> np.ndarray:
        """Read-only r x n bool: row j marks facet j and the faces below it."""
        lat = self.lattice
        inc = np.zeros((len(self.facets), len(lat)), dtype=bool)
        for j, f in enumerate(self.facet_faces):
            inc[j, np.append(lat.below(f), f)] = True
        inc.setflags(write=False)
        return inc


def _rational_points(vertices):
    """The input rows as Fraction tuples; ValueError names a bad row."""
    try:
        rows = list(vertices)
    except TypeError:
        raise ValueError("vertices must be a list of coordinate rows") from None
    pts = []
    for i, row in enumerate(rows):
        if not isinstance(row, (list, tuple)):
            raise ValueError(f"vertex row {i} is not a list of coordinates: {row!r}")
        if pts and len(row) != len(pts[0]):
            raise ValueError(
                f"vertex row {i} has {len(row)} coordinates, row 0 has {len(pts[0])}"
            )
        if any(isinstance(x, bool) for x in row):
            raise ValueError(f"vertex row {i}: a boolean is not a coordinate")
        try:
            pts.append(tuple(Fraction(x) for x in row))
        except (TypeError, ValueError, OverflowError) as e:
            raise ValueError(f"vertex row {i}: {e}") from None
        except ZeroDivisionError:
            raise ValueError(f"vertex row {i}: zero denominator") from None
    return pts


def _affine_coordinates(points):
    """Integer coordinates of the points on their affine hull.

    Returns (scale, coords, basis): the differences p - p0 that raise the
    rank, taken in input order, form the basis, and a point's coordinates
    are its difference in that basis, times the least positive integer
    ``scale`` that makes every coordinate an integer.  One Gauss-Jordan
    elimination gives all three: the coordinate rows, cleared of
    denominators, then less p0, are its rows; the pivot columns are the
    basis, and the reduced columns are the coordinates times the last
    pivot, den.  With g the gcd of den and every entry, scale = |den| / g
    and the coordinates are the entries times sign(den) / g.
    """
    mat = [[x - row[0] for x in row] for row in _integer_rows(zip(*points))]
    basis, den = _eliminate(mat, full=True)
    rows = mat[:len(basis)]
    g = gcd(den, *(x for row in rows for x in row))
    unit = (den > 0) - (den < 0)
    coords = tuple(zip(*([unit * x // g for x in row] for row in rows))) or ((),) * len(points)
    return abs(den) // g, coords, basis


def _double_description(points, basis, scale):
    """Facets of conv(points) for integer points spanning Z^d affinely.

    A facet is an extreme ray h = (h_0, h') of the cone of all h with
    h_0 + <h', x> >= 0 on every point; it is stored with its zero set, a
    bitmask of the points it is tight on.  The points 0 and ``basis``
    (0 and scale * e_k) form the starting simplex, whose cone has the rays
    (scale, -1, ..., -1) and (0, e_k).  Each further point splits the rays
    into +, 0 and - by sign; a new ray combines a + and a - ray that are
    adjacent, which holds exactly when no third ray is tight on every
    point both are tight on (Fukuda & Prodon, Prop. 7).
    """
    d = len(points[0])
    rays = [(scale,) + (-1,) * d] + [
        (0,) + tuple(int(j == k) for j in range(d)) for k in range(d)
    ]
    start = [0] + list(basis)
    zeros = [
        sum(1 << i for i in start if h[0] + dot(h[1:], points[i]) == 0) for h in rays
    ]
    for i in range(len(points)):
        if i in start:
            continue
        x, bit = points[i], 1 << i
        vals = [h[0] + dot(h[1:], x) for h in rays]
        plus = [k for k, val in enumerate(vals) if val > 0]
        minus = [k for k, val in enumerate(vals) if val < 0]
        new_rays, new_zeros = [], []
        for k, val in enumerate(vals):
            if val >= 0:
                new_rays.append(rays[k])
                new_zeros.append(zeros[k] | bit if val == 0 else zeros[k])
        for kp in plus:
            for km in minus:
                common = zeros[kp] & zeros[km]
                if common.bit_count() < d - 1 or any(
                    z & common == common
                    for k, z in enumerate(zeros)
                    if k != kp and k != km
                ):
                    continue
                hp, hm, vp, vm = rays[kp], rays[km], vals[kp], vals[km]
                h = [vp * b - vm * a for a, b in zip(hp, hm)]
                g = gcd(*h)
                new_rays.append(tuple(c // g for c in h))
                new_zeros.append(common | bit)
        rays, zeros = new_rays, new_zeros
    return list(zip(rays, zeros))


def facet_enumeration(vertices) -> GeometricPolytope:
    """All facets of conv(vertices), by the double description method.

    Rows must be equally long lists of finite rationals (ints, Fractions,
    finite floats or strings such as "1/2"); a bad row raises ValueError.
    Duplicated points are dropped silently and the dimension is taken
    from the points themselves.  Points that are not extreme are a
    contract violation and raise.  Facets come sorted by tight set.
    """
    pts = list(dict.fromkeys(_rational_points(vertices)))
    if not pts:
        raise ValueError("no points given")
    scale, ints, basis = _affine_coordinates(pts)
    d, n = len(basis), len(pts)
    if d == 0:
        return GeometricPolytope(0, [], point_lattice(), (scale, ints))

    facets = _double_description(ints, basis, scale)
    for i in range(n):
        # the points on every facet through point i are those of the
        # smallest face holding it, which is a vertex iff it is i alone
        common = (1 << n) - 1
        for _, zero in facets:
            if zero >> i & 1:
                common &= zero
        if common != 1 << i:
            raise ValueError(f"input point {pts[i]} is not a vertex of the hull")
    facet_list = []
    for h, zero in facets:
        tight = frozenset(i for i in range(n) if zero >> i & 1)
        facet_list.append((tuple(-a for a in h[1:]), h[0], tight))
    facet_list.sort(key=lambda f: sorted(f[2]))
    lat = FaceLattice.from_vertex_facets(n, [f[2] for f in facet_list])
    return GeometricPolytope(d, facet_list, lat, (scale, ints))


# -- cones -------------------------------------------------------------


class Cone:
    """Pointed cone over a polytope P, living in dimension d + 1.

    Rays are (v, 1) over the vertex coordinates v = x / scale, made
    primitive: the primitive vectors of (x, scale) over the integer
    points x.  Faces of the cone correspond to faces of P, with the zero
    cone standing in for the empty face.  ``normals[j]`` is facet j of P
    lifted to an integer inner normal of the cone.  The cone's facet j is
    the cone over lattice face ``polytope.facet_faces[j]``, and the faces
    lying in it are row j of ``polytope.facet_incidence``.
    """

    def __init__(self, polytope: GeometricPolytope):
        p = polytope
        scale, pts = p.integer_points
        self.polytope = p
        self.lattice = p.lattice
        self.dim = p.d + 1
        self.rays = tuple(primitive_ray(x + (scale,)) for x in pts)
        # <a, x> <= b on the points is <a, v> <= (b / scale) s at s = 1, so
        # <(-scale a, b), (v, s)> >= 0 lifts it; facets of the cone are
        # exactly the lifted facets of P (P bounded keeps s >= 0 implied)
        self.normals = tuple(
            primitive_ray([-scale * x for x in a] + [b]) for a, b, _ in p.facets
        )

    def __repr__(self):
        return f"Cone(dim={self.dim}, rays={len(self.rays)})"

    def face_rays(self, face: int):
        """Primitive ray generators of the cone over lattice face ``face``."""
        return [self.rays[v] for v in sorted(self.lattice.faces[face])]


def cone_over(p: GeometricPolytope) -> Cone:
    return Cone(p)
