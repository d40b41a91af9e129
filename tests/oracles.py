"""Slow, independent reference implementations kept for the tests.

``rref`` is reduced row echelon form over ``Fraction``; the kernel,
solve and rank below read off it.  ``brute_force_facets`` is the
C(n, d) facet enumeration the library used before its double
description enumerator: every hyperplane spanned by an affinely
independent d-subset of the points is tested against all of them.
Neither shares code with ``toricgh.geometry``.
"""

from fractions import Fraction
from itertools import combinations
from math import gcd, lcm


def rref(rows):
    """Reduced row echelon form over Q; returns (rows, pivot columns)."""
    mat = [list(map(Fraction, row)) for row in rows]
    if not mat:
        return [], []
    ncols = len(mat[0])
    pivots = []
    r = 0
    for col in range(ncols):
        piv = next((i for i in range(r, len(mat)) if mat[i][col] != 0), None)
        if piv is None:
            continue
        mat[r], mat[piv] = mat[piv], mat[r]
        inv = 1 / mat[r][col]
        mat[r] = [x * inv for x in mat[r]]
        for i in range(len(mat)):
            if i != r and mat[i][col] != 0:
                f = mat[i][col]
                mat[i] = [a - f * b for a, b in zip(mat[i], mat[r])]
        pivots.append(col)
        r += 1
    return mat[:r], pivots


def rank(rows):
    return len(rref(rows)[1])


def nullspace(rows):
    """Basis of the right kernel: one vector per free column, from the RREF."""
    if not rows:
        return []
    ncols = len(rows[0])
    red, pivots = rref(rows)
    basis = []
    for fc in (c for c in range(ncols) if c not in pivots):
        vec = [Fraction(0)] * ncols
        vec[fc] = Fraction(1)
        for r, pc in enumerate(pivots):
            vec[pc] = -red[r][fc]
        basis.append(tuple(vec))
    return basis


def solve(a_rows, b):
    """The solution of A x = b with free variables 0, or None."""
    red, pivots = rref([list(row) + [bv] for row, bv in zip(a_rows, b)])
    ncols = len(a_rows[0])
    if ncols in pivots:
        return None
    x = [Fraction(0)] * ncols
    for r, pc in enumerate(pivots):
        x[pc] = red[r][-1]
    return tuple(x)


def _primitive(v):
    mult = lcm(*(x.denominator for x in v))
    ints = [int(x * mult) for x in v]
    g = gcd(*ints)
    return tuple(x // g for x in ints)


def _dot(a, b):
    return sum(x * y for x, y in zip(a, b))


def brute_force_facets(vertices):
    """(d, facets) of conv(vertices), facets as (normal, offset, tight) sorted by tight set.

    Duplicates are dropped; a point that is not a vertex raises ValueError.
    """
    pts = list(dict.fromkeys(tuple(Fraction(x) for x in v) for v in vertices))
    p0 = pts[0]
    diffs = [tuple(a - b for a, b in zip(p, p0)) for p in pts]
    basis = []
    for v in diffs:
        if any(v) and rank(basis + [v]) > len(basis):
            basis.append(v)
    d = len(basis)
    if d == 0:
        return 0, []
    bt = [[basis[j][i] for j in range(d)] for i in range(len(p0))]
    coords = [solve(bt, list(v)) for v in diffs]
    n = len(pts)
    facets = {}
    for subset in combinations(range(n), d):
        base = coords[subset[0]]
        rows = [[coords[i][c] - base[c] for c in range(d)] for i in subset[1:]]
        null = nullspace(rows) if rows else [(Fraction(1),)]
        if len(null) != 1:
            continue
        normal = null[0]
        offset = _dot(normal, base)
        values = [_dot(normal, p) for p in coords]
        if all(val <= offset for val in values):
            pass
        elif all(val >= offset for val in values):
            normal = tuple(-x for x in normal)
            offset = -offset
            values = [-v for v in values]
        else:
            continue
        key = _primitive(list(normal) + [offset])
        if key not in facets:
            tight = frozenset(i for i, val in enumerate(values) if val == offset)
            facets[key] = (normal, offset, tight)
    facet_list = sorted(facets.values(), key=lambda f: sorted(f[2]))
    for i in range(n):
        if rank([f[0] for f in facet_list if i in f[2]]) != d:
            raise ValueError(f"input point {pts[i]} is not a vertex of the hull")
    return d, facet_list
