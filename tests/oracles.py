"""Slow, independent reference implementations kept for the tests.

``rref`` is reduced row echelon form over ``Fraction``; the kernel,
solve and rank below read off it.  ``brute_force_facets`` is the
C(n, d) facet enumeration the library used before its double
description enumerator: every hyperplane spanned by an affinely
independent d-subset of the points is tested against all of them.
Neither shares code with ``toricgh.geometry``.

``Invariant`` and ``convolution`` evaluate invariants on rebuilt
sublattices (``lat.face(f)``, ``lat.quotient(f)``), the way the library
computed the Kalai convolution before its all-pairs interval tables.
``canonical_form`` is a certificate for lattice isomorphism: iterated
partition refinement on the Hasse diagram, with budgeted backtracking
individualization when refinement stalls.

``dense_from_vertex_facets`` and ``dense_build`` are the face lattice
construction the library used before it worked on the list of
comparable pairs: a frozenset intersection closure of the facets
(``set_closure``), inclusion from an int64 incidence product, heights
from a per-face loop, covers and the Eulerian balance from float64
matrix products, and flag numbers from ``np.ix_`` slices of the dense
order.  They return plain ``(faces, leq, dims)`` and raise the same
``LatticeError`` messages.  ``is_eulerian`` reads the balance off
``interval_counts``, the pass over all triples x < z < y the library
ran before its validation skipped the Boolean intervals; only tests ask
for either.

``subset_scan_cyclic_facets`` is the cyclic facet list the library made
before it generated the facets block by block: Gale's evenness test on
every d-subset, in the order of ``combinations``.

``build`` is the constructor the library kept for face sets before
the empty polytope and the point became literals: inclusion over the
given vertex sets, found and graded by the library's own pair builder,
with no validation.  ``validated_build`` is ``build`` with the
validation that only facet lists get.  ``simplex_facet_lattice``,
``cube_lattice``, ``cube_vertices``, ``cross_lattice`` and
``cross_vertices`` are the simplex, cube and cross-polytope the library
built from facet lists before it built them as pyramid^d(point),
prism^d(point) and bipyramid^(d-1)(segment).

``pyramid_by_inclusion``, ``bipyramid_by_inclusion``,
``prism_by_inclusion``, ``dual_by_inclusion`` and
``interval_by_inclusion`` are the derived lattices the library built
before it read them off the base lattice by construction rules: each
makes its faces as frozensets and rediscovers the order and the grading
with ``build``.

``dense_interval_tables`` is the single-root h/g table the library built
before it read the list of comparable pairs: the root's block of the
dense order copied with ``np.ix_`` and one int64 product per pair of
dimension layers.

``dense_order`` is the n x n inclusion matrix the library filled before
it built the pair list straight from the bitsets, by the same chunked
word test on the packed vertex bitsets.  ``searchsorted_intervals`` and
``searchsorted_pair_tables`` are the triple passes the library ran
before its row-pointer gather (``lattice._triples``): each triple finds
the row of (x, y) by a ``searchsorted`` over the keys of all pairs.

``span_fixed`` is the Delta_0 class the library computed before it read
the classes off the facet down-sets: the faces whose linear span holds
the direction, each tested by reducing the direction against the face's
integer ``echelon`` basis (``face_spans``, built once per cone).

``face_loop_pieces`` is the shelling decomposition the library computed
before it read the pieces off the bottom g table: one ``Polynomial``
g(F) (t-1)^(d-1-dim F) per boundary face F, added into the piece of the
first facet holding F, here found on the dense order.
``pair_list_directions`` is the direction sampler the library ran before
it drew pair numbers: it lists every incomparable pair of proper faces
and samples 2 * grid of them from the list.  ``random.sample`` reads only
the length of what it samples from, so both draw the same indices and
leave the generator in the same state.
``loop_min_fixed`` is the antichain of minimal fixed faces the library
found before one masked pass over the pairs: a fixed face is minimal
when its down-set holds no other fixed face.

``fraction_line_shelling`` is the line shelling the library computed
before it ordered the crossings by integer keys: every crossing time a
Fraction, from the Fraction barycenter of the coordinates.
``loop_partial_unions`` is its shelling certificate before the one
array pass: a loop over the facets in order with a running OR of the
incidence rows.  ``fraction_span_pair_direction`` is the span direction
before the integer kernel: the Fraction ``nullspace`` of the stacked
rays, then Fraction sums over them.

``downset_first_cover``, ``downset_check_partial_unions`` and
``downset_classes`` are the shelling checks and cone classes the library
computed before it read the facet x face incidence matrix
(``GeometricPolytope.facet_incidence``): each builds its face masks
from the lattice down-sets ``lat.below`` of the facets, and of the
shared ridges, at every step.

``Fan``, ``central_fan``, ``face_fan``, ``fan_h`` and ``degree_one_dim``
are the fan layer the library once exported: fans of cones over the
faces of a polytope, their h-polynomial as a sum of cone g-polynomials,
and the corank of the ray matrix.  ``relative_h`` is a shelling piece
summed face by face over a pair of subcomplexes, ``tau_plus_v`` the
drift of a back face to its minimal fixed face, ``covers`` the Hasse
diagram read off the interval counts, and ``geometric_catalog`` the
entries of the catalog with coordinates.

``pair_tables`` is h and g of every interval [x, y] at once, the
all-pairs table the library kept until the Verma solver read weighted
chain counts instead: the recursion of ``chunk_tables`` one dimension
layer at a time over the triples x < z < y of whole x's
(``whole_x_triples``, the chunking ``lattice._triples`` did with a
``row_cost``).  ``pair_table`` keeps its g columns per lattice.
``layered_multiplicities`` is the Verma solver on that table, a
dimension layer at a time, and ``verma_by_face`` the one before it: one
stalk at a time in ascending index, its row checked "beyond middle
degree" first and "negative" second, and every pair (x, y) with x in
the layer found by a mask over all pairs, then pushed one degree at a
time with ``np.add.at``.  ``block_rows`` is the (dim x, dim y) block of
the lattice's sorted pairs that the prefix recursion below reads.
``coefficientwise_geq`` is the comparison monotonicity made on
``Polynomial`` values before it compared int lists.

``pair_flag_vector`` and ``reversed_polar_g`` are the flag numbers and
polar g the library computed before it read both off one per-face
chain-count table (``toric._face_flags``): a prefix recursion over the
2^d dimension sets that scatter-adds chain counts along the pairs with
``np.add.at``, and the all-pairs h/g pass run again on the
order-reversed lattice.

``pair_quotients`` is h and g of every quotient P/F as the library read
them before one chain count on the order read top-down gave them
(``toric._quotient_tables``): the rows (F, top) of the all-pairs table.

``guard`` and ``interval_tables`` are the int64 check and the rooted
quotient tables the library ran before one chain count did both
(``toric._chain_flags``): the chains counted a second time, layer by
layer with ``np.add.at``, and the ``chunk_tables`` recursion over the
triples of one root's up-set.
"""

import random
from fractions import Fraction
from itertools import chain, combinations, islice, product
from math import gcd, lcm, prod
from typing import NamedTuple
from weakref import WeakKeyDictionary

import numpy as np

from toricgh import lattice, toric
from toricgh.catalog import catalog
from toricgh.geometry import _eliminate, _integer_rows, dot, primitive_ray
from toricgh.lattice import (
    _CHUNK,
    FaceLattice,
    LatticeError,
    _from_sorted,
    _run_starts,
    _sorted_faces,
    _spans,
    _triples,
)
from toricgh.localization import span_pair_direction
from toricgh.polynomial import Polynomial, binomial_power
from toricgh.shelling import Shelling, ShellingError, _direction_stream
from toricgh.toric import (
    FlagVector,
    _binom_kernel,
    _blocks,
    _face_flags,
    _kernels,
    face_g,
    gtilde,
    toric_g,
)


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


# -- fixed faces by span tests ------------------------------------------


def echelon(rows):
    """Integer echelon basis of the row space, as (pivot column, row) pairs."""
    mat = _integer_rows(rows)
    pivots, _ = _eliminate(mat)
    return tuple((pc, tuple(mat[r])) for r, pc in enumerate(pivots))


def in_span(basis, v) -> bool:
    """Whether the integer vector ``v`` lies in the span of an ``echelon`` basis."""
    v = list(v)
    for pc, row in basis:
        head = v[pc]
        if head:
            p = row[pc]
            v = [p * a - head * b for a, b in zip(v, row)]
    return not any(v)


def face_spans(cone):
    """The ``echelon`` basis of the linear span of each face of the cone."""
    return tuple(echelon(cone.face_rays(i)) for i in range(len(cone.lattice.faces)))


def span_fixed(spans, v):
    """Delta_0: the faces other than the apex whose span (from ``face_spans``) holds v."""
    ray = primitive_ray(v)
    return frozenset(i for i in range(1, len(spans)) if in_span(spans[i], ray))


# -- shelling pieces and direction samples --------------------------------


def face_loop_pieces(sh):
    """The local pieces h(I_j, I_{j-1}, t) of a shelling, one face at a time."""
    lat = sh.polytope.lattice
    d = sh.polytope.d
    leq = dense_order(lat)
    faces = [sh.polytope.facet_faces[i] for i in sh.order]
    pieces = [Polynomial() for _ in faces]
    for g in range(len(lat.faces) - 1):
        j = next(j for j, f in enumerate(faces) if leq[g, f])
        pieces[j] = pieces[j] + face_g(lat, g) * binomial_power(-1, d - 1 - int(lat.dims[g]))
    return pieces


def pair_list_directions(cone, seed=0, grid=12):
    """``sample_directions`` over a sample of the list of every incomparable proper pair."""
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
    # the index order extends the face order, so a later b is never below a
    pairs = []
    for ai, a in enumerate(proper):
        up = set(lat.above(a).tolist())
        pairs += [(a, b) for b in proper[ai + 1:] if b not in up]
    rng = random.Random(seed)
    for a, b in rng.sample(pairs, min(2 * grid, len(pairs))):
        push(span_pair_direction(cone, a, b))
    push(cone.rays[0])
    push(tuple(sum(col) for col in zip(*cone.rays)))  # interior direction
    for _ in range(grid):
        push(tuple(rng.randint(-7, 7) for _ in range(cone.dim)))
    return out


def loop_min_fixed(lat, fixed):
    """The minimal members of ``fixed``, each tested against its down-set."""
    return tuple(sorted(i for i in fixed if fixed.isdisjoint(lat.below(i).tolist())))


def downset_first_cover(sh):
    """The first facet in shelling order holding each boundary face, by a reversed loop."""
    lat = sh.polytope.lattice
    faces = [sh.polytope.facet_faces[i] for i in sh.order]
    r = len(faces)
    first_cover = np.full(len(lat.faces) - 1, r)
    for j in reversed(range(r)):
        first_cover[lat.below(faces[j])] = j
        first_cover[faces[j]] = j
    if np.any(first_cover == r):
        raise ShellingError("some boundary face lies in no facet")
    return first_cover


def downset_check_partial_unions(sh):
    """``shelling._check_partial_unions`` on masks rebuilt from down-sets at every step."""
    lat = sh.polytope.lattice
    d = sh.polytope.d
    faces = [sh.polytope.facet_faces[i] for i in sh.order]
    r = len(faces)
    dims = lat.dims

    def faces_of(*tops):
        """Mask of the faces lying in one of ``tops``: their down-sets."""
        mask = np.zeros(len(lat.faces), dtype=bool)
        mask[np.concatenate([lat.below(f) for f in tops])] = True
        mask[list(tops)] = True
        return mask

    covered = faces_of(faces[0])
    for j in range(1, r):
        fj = faces[j]
        in_fj = faces_of(fj)
        inside = in_fj & covered
        inside[fj] = False
        ridges = np.nonzero(inside & (dims == d - 2))[0]
        if not ridges.size:
            raise ShellingError(f"step {j + 1}: no shared ridge with earlier facets")
        if np.any(inside & (dims >= 0) & ~faces_of(*ridges)):
            raise ShellingError(f"step {j + 1}: shared boundary is not pure")
        n_all = int((in_fj & (dims == d - 2)).sum())
        if j < r - 1 and len(ridges) == n_all:
            raise ShellingError(f"step {j + 1}: facet glued along its whole boundary")
        if j == r - 1 and len(ridges) != n_all:
            raise ShellingError("last facet must close up the sphere")
        covered |= in_fj


def loop_partial_unions(sh):
    """``shelling._check_partial_unions`` as a loop over the facets in shelling order.

    A running OR of the incidence rows holds the covered faces; at each
    step the earlier facets holding one of the shared ridges are listed,
    and the shared faces must all lie in their meets with F_j.
    """
    p = sh.polytope
    inc = p.facet_incidence[list(sh.order)]
    ridge = p.lattice.dims == p.d - 2
    r = len(inc)
    covered = inc[0].copy()
    for j in range(1, r):
        inside = inc[j] & covered
        ridges = np.flatnonzero(inside & ridge)
        if not ridges.size:
            raise ShellingError(f"step {j + 1}: no shared ridge with earlier facets")
        partners = inc[:j][inc[:j, ridges].any(axis=1)]
        if np.any(inside & ~(partners & inc[j]).any(axis=0)):
            raise ShellingError(f"step {j + 1}: shared boundary is not pure")
        n_all = int((inc[j] & ridge).sum())
        if j < r - 1 and len(ridges) == n_all:
            raise ShellingError(f"step {j + 1}: facet glued along its whole boundary")
        if j == r - 1 and len(ridges) != n_all:
            raise ShellingError("last facet must close up the sphere")
        covered |= inc[j]


def fraction_line_shelling(p, direction=None, seed=0, retries=64):
    """``shelling.line_shelling`` with every crossing time a Fraction.

    The base point is the average of ``p.coords``; each candidate's
    crossing times (b - <a, base>) / <a, v> are compared as Fractions.
    The candidates come from the same seeded stream, and the accepted
    order passes ``loop_partial_unions``.
    """
    if p.d < 1:
        raise ValueError("shellings need dimension >= 1")
    n = len(p.coords)
    base = tuple(sum(col) / n for col in zip(*p.coords))
    candidates = islice(_direction_stream(p.d, seed), retries)
    if direction is not None:
        candidates = chain([tuple(Fraction(x) for x in direction)], candidates)
    for v in candidates:
        speeds = [dot(a, v) for a, _, _ in p.facets]
        if any(s == 0 for s in speeds):
            continue
        times = [(b - dot(a, base)) / s for (a, b, _), s in zip(p.facets, speeds)]
        if len(set(times)) != len(times):
            continue
        up = sorted((t, i) for i, t in enumerate(times) if speeds[i] > 0)
        down = sorted((t, i) for i, t in enumerate(times) if speeds[i] < 0)
        order = tuple(i for _, i in up + down)
        sh = Shelling(p, order, base, v, tuple(times[i] for i in order))
        loop_partial_unions(sh)
        return sh
    raise ShellingError(f"no generic direction found in {retries} retries (seed {seed})")


def fraction_span_pair_direction(cone, f1, f2):
    """``localization.span_pair_direction`` on the Fraction ``nullspace`` above."""
    r1 = cone.face_rays(f1)
    r2 = cone.face_rays(f2)
    if not r1 or not r2:
        return None
    cols = [list(ray) for ray in r1] + [[-x for x in ray] for ray in r2]
    rows = [[col[i] for col in cols] for i in range(cone.dim)]
    for coeffs in nullspace(rows):
        vec = [sum(c * ray[i] for c, ray in zip(coeffs, r1)) for i in range(cone.dim)]
        if any(vec):
            return tuple(vec)
    return None


def downset_classes(cone, v):
    """(back, front) of ``localization.classify_faces``, from the facet down-sets."""
    lat = cone.lattice
    ray = primitive_ray(v)
    pairing = [dot(normal, ray) for normal in cone.normals]

    def outside(sign):
        """The faces lying in a facet whose pairing with v has ``sign``."""
        mask = np.zeros(len(lat.faces), dtype=bool)
        for f, p in zip(cone.polytope.facet_faces, pairing):
            if p * sign > 0:
                mask[lat.below(f)] = True
                mask[f] = True
        return mask

    return (
        frozenset(np.flatnonzero(~outside(-1)).tolist()),
        frozenset(np.flatnonzero(~outside(1)).tolist()),
    )


# -- invariants on sublattices -------------------------------------------


class Invariant:
    """A polytope invariant tagged with the dimension it expects.

    Convolutions are graded: combining invariants of d1- and
    d2-polytopes yields one of (d1 + d2 + 1)-polytopes, and applying an
    invariant to a lattice of the wrong dimension is a hard error.
    """

    def __init__(self, name, dim, func):
        self.name = name
        self.dim = dim
        self.func = func

    def __call__(self, lat):
        if lat.d != self.dim:
            raise ValueError(
                f"{self.name} expects {self.dim}-polytopes, got d={lat.d}"
            )
        return self.func(lat)

    def __repr__(self):
        return f"{self.name}^{self.dim}"


def gtilde_invariant(k, dim):
    return Invariant(f"gtilde_{k}", dim, lambda lat: gtilde(lat, k))


def g_invariant(k, dim):
    return Invariant(f"g_{k}", dim, lambda lat: toric_g(lat)[k])


def convolution(phi, psi, lat):
    """(phi * psi)(P) = sum over faces F of dim d1 of phi(F) psi(P/F)."""
    if lat.d != phi.dim + psi.dim + 1:
        raise ValueError(
            f"convolution of dims {phi.dim} and {psi.dim} applies to "
            f"{phi.dim + psi.dim + 1}-polytopes, got d={lat.d}"
        )
    total = 0
    for f in lat.faces_of_dim(phi.dim):
        total += phi(lat.face(f)) * psi(lat.quotient(f))
    return total


# -- canonical forms ------------------------------------------------------


class CanonicalBudgetExceeded(RuntimeError):
    pass


def canonical_form(lat, budget=512):
    """Certificate equal for isomorphic lattices, distinct otherwise."""
    n = len(lat.faces)
    up = [tuple(c) for c in covers(lat)]
    down = [[] for _ in range(n)]
    for i in range(n):
        for j in up[i]:
            down[j].append(i)
    colors = _refine([int(d) for d in lat.dims], up, down)
    state = {"leaves": 0}
    return _canon_search(colors, up, down, budget, state)


def is_isomorphic(a, b, budget=512):
    if len(a.faces) != len(b.faces) or a.d != b.d:
        return False
    return canonical_form(a, budget) == canonical_form(b, budget)


def _refine(colors, up, down):
    n = len(colors)
    while True:
        sigs = [
            (colors[i], tuple(sorted(colors[j] for j in up[i])),
             tuple(sorted(colors[j] for j in down[i])))
            for i in range(n)
        ]
        order = {s: c for c, s in enumerate(sorted(set(sigs)))}
        new = [order[s] for s in sigs]
        if len(set(new)) == len(set(colors)):
            return new
        colors = new


def _canon_search(colors, up, down, budget, state):
    n = len(colors)
    classes = {}
    for i, c in enumerate(colors):
        classes.setdefault(c, []).append(i)
    target = next(
        (classes[c] for c in sorted(classes) if len(classes[c]) > 1), None
    )
    if target is None:
        state["leaves"] += 1
        if state["leaves"] > budget:
            raise CanonicalBudgetExceeded(f"more than {budget} leaves")
        perm = sorted(range(n), key=colors.__getitem__)
        pos = {v: k for k, v in enumerate(perm)}
        rows = [
            (colors[v], tuple(sorted(pos[w] for w in up[v]))) for v in perm
        ]
        return repr(rows).encode()
    best = None
    for v in target:
        trial = list(colors)
        trial[v] = -1
        cert = _canon_search(_refine(trial, up, down), up, down, budget, state)
        if best is None or cert < best:
            best = cert
    return best


# -- dense face lattices --------------------------------------------------


def dense_from_vertex_facets(n_vertices, facets, check=True):
    """(faces, leq, dims) of the intersection closure of the facets."""
    if n_vertices < 1:
        raise LatticeError("need at least one vertex")
    facets = [frozenset(f) for f in facets]
    if not facets or any(not f for f in facets):
        raise LatticeError("facets must be nonempty vertex sets")
    for i, f in enumerate(facets):
        for j, g in enumerate(facets):
            if i != j and f <= g:
                raise LatticeError("one facet contains another")
    if frozenset().union(*facets) != frozenset(range(n_vertices)):
        raise LatticeError("some vertex lies on no facet")
    return dense_build(set_closure(n_vertices, facets), n_vertices, check=check)


def set_closure(n_vertices, facets):
    """The facets' intersections as frozensets, with the empty face and the top."""
    facets = [frozenset(f) for f in facets]
    faces = set(facets)
    queue = list(facets)
    while queue:
        f = queue.pop()
        for g in facets:
            h = f & g
            if h not in faces:
                faces.add(h)
                queue.append(h)
    faces.add(frozenset())
    faces.add(frozenset(range(n_vertices)))
    return faces


def dense_build(face_sets, n_vertices, check=True):
    """(faces, leq, dims) with the order from an int64 inclusion product."""
    face_sets = {frozenset(f) for f in face_sets}
    faces = sorted(face_sets, key=lambda f: (len(f), sorted(f)))
    n = len(faces)
    if n == 0:
        raise LatticeError("no faces given")
    # inclusion via intersection-size counts
    inc = np.zeros((n, max(n_vertices, 1)), dtype=np.int64)
    for i, f in enumerate(faces):
        for v in f:
            if not 0 <= v < n_vertices:
                raise LatticeError(f"vertex index {v} out of range")
            inc[i, v] = 1
    sizes = inc.sum(axis=1)
    common = inc @ inc.T
    leq = common == sizes[:, None]
    dims = dense_grade(faces, leq)
    if check:
        dense_validate(faces, leq, dims)
    return faces, leq, dims


def dense_grade(faces, leq):
    """Longest-chain heights shifted so the bottom face has dim -1."""
    n = len(faces)
    if int(leq[0].sum()) != n:
        raise LatticeError("no unique bottom element")
    heights = np.full(n, 0, dtype=np.int64)
    for j in range(n):
        below = np.nonzero(leq[:, j])[0]
        below = below[below != j]
        if below.size:
            heights[j] = int(heights[below].max()) + 1
    return heights - 1


def dense_validate(faces, leq, dims):
    n = len(faces)
    if faces[0] != frozenset() or dims[0] != -1:
        raise LatticeError("missing empty face at the bottom")
    if int(leq[:, -1].sum()) != n or int(leq[0].sum()) != n:
        raise LatticeError("bottom or top element is not unique")
    if n == 1:
        return
    # gradedness: every cover step raises the longest-chain height by 1
    lt = leq & ~np.eye(n, dtype=bool)
    covers = lt & ~(lt.astype(np.float64) @ lt.astype(np.float64) > 0)
    ci, cj = np.nonzero(covers)
    if np.any(dims[cj] - dims[ci] != 1):
        raise LatticeError("poset is not graded")
    bad = dense_unbalanced(leq, dims, lt)
    if bad.any():
        i, j = map(int, np.argwhere(bad)[0])
        raise LatticeError(
            f"not Eulerian: interval [{_ascending(faces[i])}, {_ascending(faces[j])}] is unbalanced"
        )
    # atomicity: dim-0 faces are singletons and generate every face
    for i in np.nonzero(dims == 0)[0]:
        if len(faces[i]) != 1:
            raise LatticeError("an atom is not a single vertex")
    atom_of = {next(iter(faces[i])) for i in np.nonzero(dims == 0)[0]}
    for f in faces:
        if not set(f) <= atom_of:
            raise LatticeError("face contains a non-atom vertex")


def _ascending(face):
    return "{" + ", ".join(str(v) for v in sorted(face)) + "}"


def dense_unbalanced(leq, dims, lt):
    """Pairs F < G whose interval [F, G] is not Eulerian, by one matrix product."""
    z = leq.astype(np.float64)
    signed = z * np.where(dims % 2 == 0, 1.0, -1.0)[None, :]
    p = signed @ z
    return (p != 0) & lt


def dense_covers(leq):
    """Row k lists the faces covering face k, ascending."""
    n = len(leq)
    lt = leq & ~np.eye(n, dtype=bool)
    two = (lt.astype(np.float64) @ lt.astype(np.float64)) > 0
    cmat = lt & ~two
    return [list(map(int, np.nonzero(cmat[k])[0])) for k in range(n)]


def dense_flag_vector(leq, dims):
    """All 2^d flag numbers by chain counting over slices of the order."""
    d = int(dims[-1])
    layers = {k: np.nonzero(dims == k)[0] for k in range(d)}
    fv = FlagVector()
    fv[()] = 1

    def extend(prefix, counts, last):
        for nxt in range(last + 1, d):
            step = leq[np.ix_(layers[last], layers[nxt])].astype(np.int64)
            nxt_counts = counts @ step
            fv[prefix + (nxt,)] = int(nxt_counts.sum())
            extend(prefix + (nxt,), nxt_counts, nxt)

    for start in range(d):
        counts = np.ones(len(layers[start]), dtype=np.int64)
        fv[(start,)] = len(layers[start])
        extend((start,), counts, start)
    return fv


def block_rows(blocks, a, b):
    """The rows of the pairs with dim x = a and dim y = b, by y, out of ``toric._blocks``."""
    k = (a + 1) * blocks.span + b + 1
    return blocks.order[blocks.bounds[k]:blocks.bounds[k + 1]]


def whole_x_triples(px, py, start, row_cost):
    """The triples x < z < y by whole x's, as (lo, hi, xz, xy) like ``lattice._triples``.

    No x is split between two chunks, and a chunk's runs hold about
    _CHUNK // row_cost rows, one x at least, as ``_triples`` chunked
    them with a ``row_cost`` for ``chunk_tables``.  The row of (x, y) is
    found by a search over the keys of all pairs.  The chunk size is
    read at call time, so a test can lower it.
    """
    n = len(start) - 1
    keys = px * n + py
    a = 0
    while a < len(px):
        b = int(start[px[min(a + max(1, lattice._CHUNK // row_cost), len(px)) - 1] + 1])
        z = py[a:b]
        xz = np.repeat(np.arange(a, b), start[z + 1] - start[z])
        xy = np.searchsorted(keys, px[xz] * n + py[_spans(start[z], start[z + 1])])
        yield a, b, xz, xy
        a = b


def chunk_tables(dx, dy, xz, xy, d):
    """h and g of the strict pairs of whole x's, from their triples x < z < y.

    Row r is a pair (x, y) with dim x = dx[r] and dim y = dy[r]; a triple
    names the rows of (x, z) and (x, y), so dim z is dy[xz].  Returns
    (order, H, G), the rows of H/G going by dim y (never by index: the
    index order is only a linear extension) as ``order`` lists them.
    The pass is the recursion over the layers of dim y: h of a layer is
    S[pair] against the stacked (t-1)^(dim y - dim z - 1) kernels, and
    once g of the layer is known it is summed, per pair (x, y), into
    S[(x, y), dim z].  The chunk size is read at call time.
    """
    width, span = max(d + 1, 1), d + 2
    order = np.argsort(dy, kind="stable")
    row = np.empty_like(order)
    row[order] = np.arange(len(order))
    by_z = np.argsort(dy[xz] * len(order) + row[xy])
    z, y = row[xz[by_z]], row[xy[by_z]]
    e_y, x_dims = dy[order], dx[order]
    layers = np.arange(-1, d + 2)
    row_bounds, pair_bounds = np.searchsorted(e_y, layers), np.searchsorted(e_y[z], layers)
    H = np.zeros((len(order), width), dtype=np.int64)
    G = np.zeros_like(H)
    S = np.zeros((len(order), span, width), dtype=np.int64)
    S[np.arange(len(order)), x_dims + 1, 0] = 1       # g(x, x) = 1
    stacks, keep = _kernels(width)
    step = max(1, toric._CHUNK // width)
    for e in range(max(int(e_y[0]), 0), d + 1):
        a, b = row_bounds[e + 1], row_bounds[e + 2]
        if a < b:
            h = H[a:b] = S[a:b, :e + 1].reshape(b - a, -1) @ stacks[e]
            # g_k = h_k - h_{k-1} up to half of each interval's dimension
            g = G[a:b]
            g[:, 0] = h[:, 0]
            np.subtract(h[:, 1:], h[:, :-1], out=g[:, 1:])
            g *= keep[e - x_dims[a:b]]
        # the triples whose z is in the layer, a piece of about _CHUNK cells at a time
        p, q = pair_bounds[e + 1], pair_bounds[e + 2]
        for p in range(p, q, step):
            ys = y[p:min(p + step, q)]
            first = _run_starts(ys)
            S[ys[first], e + 1] += np.add.reduceat(G[z[p:p + len(ys)]], first)
    return order, H, G


def pair_tables(px, py, dims, d):
    """h and g of every interval [x, y] of a graded order, in one pass.

    Takes the strict pairs x < y in any order and returns (px, py, H, G):
    one row per comparable pair x <= y, the diagonal added and the pairs
    sorted by (x, y), and rows of H/G holding the coefficients of h/g of
    [x, y] as a polytope of dimension dims[y] - dims[x] - 1.  The triples
    come from ``whole_x_triples``, the block S of ``chunk_tables`` near
    _CHUNK cells, and each chunk goes through it.  Integer throughout;
    storage is O(comparable pairs * d), and the int64 check of
    ``toric._chain_flags`` on the same order bounds every coefficient:
    the caller runs it first.
    """
    n = len(dims)
    fx, fy = np.concatenate((px, np.arange(n))), np.concatenate((py, np.arange(n)))
    order = np.lexsort((fy, fx))
    fx, fy = fx[order], fy[order]
    strict = fx != fy
    full = np.flatnonzero(strict)       # the rows of the strict pairs among all
    px, py = fx[strict], fy[strict]
    H = np.zeros((len(fx), max(d + 1, 1)), dtype=np.int64)
    G = np.zeros_like(H)
    H[~strict, 0] = G[~strict, 0] = 1
    starts = np.searchsorted(px, np.arange(n + 1))
    for lo, hi, xz, xy in whole_x_triples(px, py, starts, (d + 2) * (d + 1)):
        order, h, g = chunk_tables(dims[px[lo:hi]], dims[py[lo:hi]], xz - lo, xy - lo, d)
        H[full[lo + order]], G[full[lo + order]] = h, g
    return fx, fy, H, G


class PairTable(NamedTuple):
    px: np.ndarray
    py: np.ndarray
    G: np.ndarray


_PAIR_TABLES = WeakKeyDictionary()


def pair_table(lat):
    """(px, py, G) of ``pair_tables``, G up to column d // 2; built once per lattice.

    Beyond column d // 2 every g is zero.  ``_face_flags`` runs first:
    it refuses a lattice past int64.  Kept per lattice, so a test can
    change an entry before a solver reads it.
    """
    if lat not in _PAIR_TABLES:
        _face_flags(lat)
        px, py, _, G = pair_tables(*lat.pairs, lat.dims, lat.d)
        _PAIR_TABLES[lat] = PairTable(px, py, G[:, :max(lat.d // 2 + 1, 1)].copy())
    return _PAIR_TABLES[lat]


def pair_flag_vector(lat):
    """All 2^d flag numbers by prefix recursion over the comparable pairs.

    ``counts[w]`` is the number of chains with the prefix's dimensions
    that end at face w.  Extending the prefix by a dimension scatter-adds
    these counts along the pairs from its last layer to the new one.
    """
    d, dims, n = lat.d, lat.dims, len(lat)
    px, py = lat.pairs
    blocks = _blocks(lat)
    fv = FlagVector()
    fv[()] = 1

    def extend(prefix, counts, last):
        for nxt in range(last + 1, d):
            sel = block_rows(blocks, last, nxt)
            carried = counts[px[sel]]
            fv[prefix + (nxt,)] = int(carried.sum())
            nxt_counts = np.zeros(n, dtype=np.int64)
            np.add.at(nxt_counts, py[sel], carried)
            extend(prefix + (nxt,), nxt_counts, nxt)

    for start in range(d):
        counts = (dims == start).astype(np.int64)
        fv[(start,)] = int(counts.sum())
        extend((start,), counts, start)
    return fv


def reversed_polar_g(lat):
    """Row f holds g of the polar of face f, from the order-reversed pair table.

    The polar of F is the interval [F, bottom] of the reversed lattice,
    where F has dimension d - 1 - dim F; (F, bottom) opens the block of
    F in the reversed pair table.  The reversed order has the same
    chains, so it runs its own ``guard``.
    """
    below, above = lat.pairs
    guard(above, below, lat.d - 1 - lat.dims, lat.d)
    px, _, _, G = pair_tables(above, below, lat.d - 1 - lat.dims, lat.d)
    return G[np.searchsorted(px, np.arange(len(lat)))]


_PAIR_QUOTIENTS = WeakKeyDictionary()


def pair_quotients(lat):
    """(H, G): row f holds h and g of P/f, the pair table's row (f, top).

    (f, top) closes the block of f in the pair table, whose rows run by
    (x, y).  Kept per lattice, so a test can read it root by root.
    """
    if lat not in _PAIR_QUOTIENTS:
        px, _, H, G = pair_tables(*lat.pairs, lat.dims, lat.d)
        quot = np.cumsum(np.bincount(px, minlength=len(lat))) - 1
        _PAIR_QUOTIENTS[lat] = H[quot], G[quot]
    return _PAIR_QUOTIENTS[lat]


def guard(px, py, dims, d):
    """Refuse an order whose h/g coefficients could leave int64.

    The check the library ran as its own chain count before the flag
    count checked the same rule as it pushes (``toric._chain_flags``,
    whose docstring gives the bound).  The most chains that end at one
    face, from any face, must stay under ``_INT64_LIMIT >> (d + 2)``.
    The product of (f_e + 1) bounds that count; when it is too coarse the
    chains are counted layer by layer with ``np.add.at``, refusing before
    a count could pass the cap.  The limit is read at call time, so a
    test can lower it.
    """
    limit = toric._INT64_LIMIT
    cap = limit >> (d + 2)
    if prod(int(f) + 1 for f in np.bincount(dims + 1)) < cap:
        return
    chains = np.ones(len(dims), dtype=np.int64)     # chains ending at each face
    below, layer = np.bincount(py, minlength=len(dims)), dims[py]
    for e in range(d + 1):
        sel = np.flatnonzero(layer == e)
        if sel.size and int(chains.max()) * int(below[py[sel]].max()) >= cap:
            raise LatticeError(
                f"h/g coefficients could exceed the int64 bound 2^{limit.bit_length() - 1}"
            )
        np.add.at(chains, py[sel], chains[px[sel]])


def interval_tables(lat, root):
    """h/g coefficient tables for every face x >= root, re-graded at root.

    Returns (pos, H, G): ``pos`` maps a face index of ``lat`` to its row,
    and row i of H/G holds the coefficients of h/g of the interval
    [root, x] viewed as a polytope of dimension dims[x] - dims[root] - 1.
    Rows run by dimension, then by face index.  The library read the
    quotients this way before it counted the chains of the root's up-set
    (``toric._rooted_g``): the pair table rows of root's run of
    ``lat.pairs``, in dimensions relative to the root, through
    ``chunk_tables``, the triples root < z < y being the runs of
    root's faces z.  ``guard`` runs on the lattice first.
    """
    guard(*lat.pairs, lat.dims, lat.d)
    py = lat.pairs[1]
    start = lat._rows()
    run = py[start[root]:start[root + 1]]
    up = np.concatenate(([root], run))              # row 0 stands for [root, root]
    rel = lat.dims[up] - lat.dims[root] - 1
    # the runs of the faces z above root; y's row is its place in root's run
    cnt = start[run + 1] - start[run]
    ends = np.cumsum(cnt)
    zy = np.repeat(start[run] - ends + cnt, cnt) + np.arange(ends[-1] if len(ends) else 0)
    xz, xy = np.repeat(np.arange(1, len(up)), cnt), 1 + np.searchsorted(run, py[zy])
    order, H, G = chunk_tables(np.full(len(up), -1), rel, xz, xy, int(rel[-1]))
    H[0, 0] = G[0, 0] = 1
    return dict(zip(up[order].tolist(), range(len(up)))), H, G


def dense_interval_tables(lat, root):
    """(pos, H, G) for every face x >= root, from dense blocks of the order."""
    leq, dims = dense_order(lat), lat.dims
    sel = np.nonzero(leq[root])[0]
    rel = dims[sel] - dims[root] - 1
    order = np.argsort(rel, kind="stable")
    sel, rel = sel[order], rel[order]
    m = len(sel)
    top_dim = int(rel[-1])
    width = max(top_dim + 1, 1)

    H = np.zeros((m, width), dtype=np.int64)
    G = np.zeros((m, width), dtype=np.int64)
    H[0, 0] = 1
    G[0, 0] = 1

    sub = leq[np.ix_(sel, sel)]
    layers = {int(e): np.nonzero(rel == e)[0] for e in np.unique(rel)}
    for e in range(top_dim + 1):
        if e not in layers:
            continue
        cur = layers[e]
        acc = np.zeros((len(cur), width), dtype=np.int64)
        for e2, rows in layers.items():
            if e2 >= e:
                continue
            below = sub[np.ix_(rows, cur)].astype(np.int64)
            s = below.T @ G[rows]
            for j, c in enumerate(_binom_kernel(e - 1 - e2)):
                if c:
                    acc[:, j:] += c * s[:, : width - j]
        H[cur] = acc
        G[cur, 0] = acc[:, 0]
        for k in range(1, e // 2 + 1):
            G[cur, k] = acc[:, k] - acc[:, k - 1]

    pos = {int(f): i for i, f in enumerate(sel)}
    return pos, H, G


_DENSE = WeakKeyDictionary()


def dense_order(lat):
    """leq[i, j] iff face i's vertices lie in face j's, for the faces of ``lat``.

    Faces are sorted by vertex count and equal counts are incomparable,
    so only i <= j can hold: each block of columns is tested against the
    rows up to its end, about _CHUNK cells at a time.  Kept per lattice.
    """
    if lat not in _DENSE:
        _DENSE[lat] = _dense_order(lat)
    return _DENSE[lat]


def _dense_order(lat):
    _, bits, _ = _sorted_faces(lat.faces, lat.n_vertices)
    assert (bits == lat.words).all()
    n = len(bits)
    leq = np.zeros((n, n), dtype=bool)
    step = max(1, _CHUNK // n)
    for a in range(0, n, step):
        b = min(n, a + step)
        outside = bits[:b, 0, None] & ~bits[None, a:b, 0]
        for word in range(1, bits.shape[1]):
            outside |= bits[:b, word, None] & ~bits[None, a:b, word]
        leq[:b, a:b] = outside == 0
    leq.setflags(write=False)
    return leq


def strict_pairs(leq):
    """The strict pairs of a boolean order matrix, row-major (sorted by (x, y))."""
    px, py = np.nonzero(leq)
    keep = px != py
    return px[keep], py[keep]


def searchsorted_intervals(lat):
    """(between, balance) per strict pair, each triple found by a key search."""
    px, py = lat.pairs
    n, m = len(lat.faces), len(px)
    keys = px * n + py
    by_col = np.argsort(py, kind="stable")
    below = np.bincount(py, minlength=n)
    above = np.bincount(px, minlength=n)
    col_start = np.cumsum(below) - below
    row_start = np.cumsum(above) - above
    per_z = below * above
    odd = lat.dims % 2 == 1
    counts = np.zeros((2, m), dtype=np.int64)
    for parity in (0, 1):
        z_all = np.flatnonzero(per_z * (odd == parity))
        cnt = per_z[z_all]
        z = np.repeat(z_all, cnt)
        k = np.arange(len(z)) - np.repeat(np.cumsum(cnt) - cnt, cnt)
        i, j = np.divmod(k, above[z])
        x = px[by_col[col_start[z] + i]]
        y = py[row_start[z] + j]
        counts[parity] += np.bincount(np.searchsorted(keys, x * n + y), minlength=m)
    sign = np.where(odd, -1, 1)
    return counts.sum(axis=0), sign[px] + sign[py] + counts[0] - counts[1]


def searchsorted_pair_tables(px, py, dims, d):
    """(px, py, H, G) of every interval [x, y], one (dim y, dim z) layer at a time."""
    n = len(dims)
    px, py = np.r_[px, np.arange(n)], np.r_[py, np.arange(n)]
    order = np.lexsort((py, px))
    px, py = px[order], py[order]
    keys = px * n + py
    width = max(d + 1, 1)
    H = np.zeros((len(px), width), dtype=np.int64)
    G = np.zeros_like(H)
    strict = px != py
    H[~strict, 0] = G[~strict, 0] = 1
    # the pairs (x, z) for a fixed z form one block of the column order
    by_col = np.lexsort((px, py))
    col_count = np.bincount(py, minlength=n)
    col_start = np.cumsum(col_count) - col_count
    dx, dy = dims[px], dims[py]
    grades = np.unique(dims)
    for e_y in grades[1:]:
        in_layer = strict & (dy == e_y)
        for e_z in grades[grades < e_y]:
            zy = np.nonzero(in_layer & (dx == e_z))[0]
            if not len(zy):
                continue
            z, y = px[zy], py[zy]
            cnt = col_count[z]
            ends = np.cumsum(cnt)
            step = np.repeat(col_start[z] - (ends - cnt), cnt)
            src = by_col[step + np.arange(ends[-1])]             # pairs (x, z)
            tgt = np.searchsorted(keys, px[src] * n + np.repeat(y, cnt))
            order = np.argsort(tgt, kind="stable")
            tgt = tgt[order]
            first = np.flatnonzero(np.r_[True, tgt[1:] != tgt[:-1]])
            s = np.add.reduceat(G[src[order]], first, axis=0)
            rows = tgt[first]
            for j, c in enumerate(_binom_kernel(int(e_y - e_z) - 1)):
                if c:
                    H[rows, j:] += c * s[:, : width - j]
        # g_k = h_k - h_{k-1} up to half of each interval's dimension
        rows = np.nonzero(in_layer)[0]
        g = H[rows].copy()
        g[:, 1:] -= H[rows, :-1]
        g *= np.arange(width) <= (e_y - dx[rows] - 1)[:, None] // 2
        G[rows] = g
    return px, py, H, G


def is_eulerian(lat) -> bool:
    """Every interval of length >= 1 has equal even- and odd-dim counts."""
    return not interval_counts(lat)[1].any()


def interval_counts(lat):
    """Per strict pair x < y: faces strictly between, and sum of (-1)^dim over [x, y].

    One integer pass over all the triples x < z < y (``_triples``)
    counts the middles per pair, and those of odd dimension apart.  A
    pair with no middle is a cover; a nonzero sum is an unbalanced
    (non-Eulerian) interval.
    """
    px, py = lat.pairs
    odd = lat.dims % 2 == 1
    between = np.zeros(len(px), dtype=np.int64)
    odd_between = np.zeros_like(between)
    for lo, hi, xz, xy in _triples(px, py, lat._rows()):
        between[lo:hi] += np.bincount(xy - lo, minlength=hi - lo)
        odd_between[lo:hi] += np.bincount(xy[odd[py[xz]]] - lo, minlength=hi - lo)
    sign = np.where(odd, -1, 1)
    return between, between - 2 * odd_between + sign[px] + sign[py]


def subset_scan_cyclic_facets(n, d):
    """Facets of the cyclic polytope C(n, d): Gale's evenness test on every d-subset."""
    facets = []
    for s in combinations(range(n), d):
        sset = set(s)
        outside = [i for i in range(n) if i not in sset]
        ok = True
        for a, b in zip(outside, outside[1:]):
            if sum(1 for k in s if a < k < b) % 2:
                ok = False
                break
        if ok:
            facets.append(frozenset(s))
    return facets


def simplex_facet_lattice(d):
    """The d-simplex from its d + 1 facets; the point (d = 0) by ``build``."""
    if d == 0:
        return build([(), (0,)], 1)
    return FaceLattice.from_vertex_facets(d + 1, list(combinations(range(d + 1), d)))


def cube_lattice(d):
    """The d-cube from its 2d facets: vertex v has coordinate a = (v >> a) & 1."""
    facets = []
    for axis in range(d):
        for side in (0, 1):
            facets.append(
                frozenset(
                    v for v in range(2 ** d) if (v >> axis) & 1 == side
                )
            )
    return FaceLattice.from_vertex_facets(2 ** d, facets)


def cube_vertices(d):
    return [tuple(Fraction((v >> a) & 1) for a in range(d)) for v in range(2 ** d)]


def cross_lattice(d):
    # vertex 2i is +e_i, vertex 2i+1 is -e_i; facets pick one sign per axis
    facets = [
        frozenset(2 * i + s for i, s in enumerate(signs))
        for signs in product((0, 1), repeat=d)
    ]
    return FaceLattice.from_vertex_facets(2 * d, facets)


def cross_vertices(d):
    out = []
    for i in range(d):
        for s in (1, -1):
            out.append(tuple(Fraction(s * int(i == j)) for j in range(d)))
    return out


def build(face_sets, n_vertices):
    """The lattice of a collection of faces given as vertex sets, ordered by inclusion.

    Inclusion is the face relation for every atomic lattice (each face
    is the join of its vertices), so the order is found by the
    library's inclusion test on the packed words and graded by longest
    chains, as for a facet list's closure.  The empty face must be a
    member unless the collection is the one-element empty-polytope
    lattice.  Not validated.
    """
    return _from_sorted(*_sorted_faces({frozenset(f) for f in face_sets}, n_vertices), n_vertices)


def validated_build(face_sets, n_vertices):
    """``build`` followed by the validation it leaves out."""
    lat = build(face_sets, n_vertices)
    lat._validate()
    return lat


def geometric_catalog():
    """The catalog entries with coordinates (every built-in entry has them)."""
    return [e for e in catalog() if e.has_coordinates()]


def covers(lat):
    """Row k lists the faces covering face k, ascending: the pairs with no face between."""
    px, py = lat.pairs
    cover = interval_counts(lat)[0] == 0
    cx, cy = px[cover], py[cover].tolist()
    bounds = np.searchsorted(cx, np.arange(len(lat.faces) + 1)).tolist()
    return [cy[a:b] for a, b in zip(bounds, bounds[1:])]


# -- fans, shelling pieces and drift -----------------------------------------


class Fan:
    """A fan given by ray indices per cone, each the cone over a face of ``lattice``.

    The zero cone has an empty ray set.  The boundary subfan is generated
    by the codimension-one cones lying in exactly one top-dimensional
    cone; a complete fan has none.
    """

    def __init__(self, rays, cones, cone_faces, lattice, complete):
        self.rays = tuple(rays)
        self.cones = tuple(frozenset(c) for c in cones)
        self.cone_faces = tuple(cone_faces)
        self.lattice = lattice
        self.complete = complete
        index = set(self.cones)
        if len(index) != len(self.cones):
            raise ValueError("duplicate cones in fan")
        # the meet of two cones is the intersection of their ray sets,
        # which must itself be a cone of the fan
        if any(a & b not in index for a in self.cones for b in self.cones):
            raise ValueError("cone intersection is not a face of the fan")
        self.dim = max(map(self.cone_dim, range(len(self.cones))))
        self.boundary = frozenset() if complete else self._boundary()

    def cone_dim(self, i):
        return int(self.lattice.dims[self.cone_faces[i]]) + 1

    def cone_g(self, i):
        return face_g(self.lattice, self.cone_faces[i])

    def _boundary(self):
        n, d = len(self.cones), self.dim
        top = [t for t in range(n) if self.cone_dim(t) == d]
        gen = [
            i for i in range(n)
            if self.cone_dim(i) == d - 1
            and sum(self.cones[i] <= self.cones[t] for t in top) == 1
        ]
        return frozenset(i for g in gen for i in range(n) if self.cones[i] <= self.cones[g])


def central_fan(p):
    """Complete fan of the cones over the proper faces, origin at the barycenter."""
    c = p.barycenter()
    rays = [primitive_ray([x - y for x, y in zip(v, c)]) for v in p.coords]
    lat = p.lattice
    proper = range(len(lat.faces) - 1)
    return Fan(rays, [lat.faces[i] for i in proper], proper, lat, complete=True)


def face_fan(cone):
    """The fan of one full-dimensional cone and all its faces."""
    lat = cone.lattice
    every = range(len(lat.faces))
    return Fan(cone.rays, [lat.faces[i] for i in every], every, lat, complete=False)


def fan_h(fan):
    """Sum of g(cone) (t-1)^(d - dim cone) over the cones off the boundary.

    h of the polytope for a complete fan, g of the base for the fan of a
    single full-dimensional cone.
    """
    out = Polynomial()
    for c in range(len(fan.cones)):
        if c not in fan.boundary:
            out = out + fan.cone_g(c) * binomial_power(-1, fan.dim - fan.cone_dim(c))
    return out


def degree_one_dim(fan):
    """Number of rays minus the rank of the ray matrix: h_1 or g_1 when the rays span."""
    rays = list(fan.rays)
    return len(rays) - rank(rays) if rays else 0


def relative_h(lat, faces_i, faces_j):
    """h(I, J, t) = sum over F in I minus J of g(F) (t-1)^(d-1-dim F).

    I and J are subcomplexes of the boundary, given as lattice face
    indices; the empty face counts as a member of every nonempty
    subcomplex and may be omitted.
    """
    d = lat.d
    si = set(faces_i) | ({lat.bottom} if faces_i else set())
    sj = set(faces_j) | ({lat.bottom} if faces_j else set())
    if not sj <= si:
        raise ValueError("J must be a subcomplex of I")
    for s in (si, sj):
        if lat.top in s:
            raise ValueError("subcomplexes live in the boundary, not P itself")
        for f in s:
            if not s.issuperset(lat.below(f).tolist()):
                raise ValueError("face sets must be closed under subfaces")
    out = Polynomial()
    for f in si - sj:
        out = out + face_g(lat, f) * binomial_power(-1, d - 1 - int(lat.dims[f]))
    return out


def tau_plus_v(decomp, face):
    """The unique smallest fixed face above the back face ``face``."""
    if face not in decomp.back:
        raise ValueError("drift target is only defined for back faces")
    lat = decomp.cone.lattice
    up = {face, *lat.above(face).tolist()}
    above = [i for i in decomp.fixed if i in up]
    held = set(above)
    mins = [i for i in above if held.isdisjoint(lat.below(i).tolist())]
    if len(mins) != 1:
        raise AssertionError(f"minimal fixed face above {face} is not unique: {mins}")
    return mins[0]


# -- derived lattices by inclusion ---------------------------------------------


def interval_by_inclusion(lat, lo, hi):
    """``lat.interval(lo, hi)`` as frozensets of atoms, its order rediscovered by ``build``."""
    up = lat.above(lo).tolist()
    if lo != hi and hi not in up:
        raise LatticeError("interval endpoints are not comparable")
    inside = set(lat.below(hi).tolist())
    sel = [lo, *(i for i in up if i in inside), hi][: 1 if lo == hi else None]
    atoms = [i for i in sel if lat.dims[i] == lat.dims[lo] + 1]
    atom_pos = {a: p for p, a in enumerate(atoms)}
    face_sets = [
        frozenset(atom_pos[a] for a in [*lat.below(i).tolist(), i] if a in atom_pos)
        for i in sel
    ]
    return build(face_sets, len(atoms))


def dual_by_inclusion(lat):
    """``lat.dual()``: each face as the set of facets holding it, by ``build``."""
    facets = lat.faces_of_dim(lat.d - 1)
    fpos = {f: p for p, f in enumerate(facets)}
    face_sets = [
        frozenset(fpos[f] for f in [i, *lat.above(i).tolist()] if f in fpos)
        for i in range(len(lat.faces))
    ]
    return build(face_sets, len(facets))


def pyramid_by_inclusion(lat):
    """``lat.pyramid()``: the faces F and F + apex, by ``build``."""
    apex = lat.n_vertices
    sets = set(lat.faces)
    sets.update(f | {apex} for f in lat.faces)
    return build(sets, apex + 1)


def bipyramid_by_inclusion(lat):
    """``lat.bipyramid()``: two apexes over every proper face and a new top, by ``build``."""
    a1, a2 = lat.n_vertices, lat.n_vertices + 1
    proper = lat.faces[:-1]
    sets = set(proper)
    sets.update(f | {a1} for f in proper)
    sets.update(f | {a2} for f in proper)
    sets.add(lat.faces[-1] | {a1, a2})
    return build(sets, a2 + 1)


def prism_by_inclusion(lat):
    """``lat.prism()``: bottom, top and vertical copies of every face, by ``build``."""
    n = lat.n_vertices
    sets = {frozenset()}
    for f in lat.faces[1:]:
        ft = frozenset(v + n for v in f)
        sets.update((f, ft, f | ft))
    return build(sets, 2 * n)


# -- multiplicities and monotonicity by face -----------------------------------


def verma_by_face(lat):
    """{face: (m_0, m_1, ...)} over the cone on ``lat``, one stalk at a time."""
    def trim(row):
        row = list(row)
        while row and row[-1] == 0:
            row.pop()
        return tuple(row) if row else (0,)

    n = len(lat)
    width = (lat.d + 1) // 2 + 2
    acc = np.zeros((n, width), dtype=np.int64)
    m = np.zeros((n, width), dtype=np.int64)
    table = {}
    px, py, G = pair_table(lat)
    for e in np.unique(lat.dims):
        cone_dim = int(e) + 1  # the cone over a face of dimension e
        for y in np.nonzero(lat.dims == e)[0].tolist():
            if y == lat.bottom:
                row = (1,)
            else:
                # the stalk equation reads acc + (-1)^cone_dim * m_k = 0
                k_max = (cone_dim - 1) // 2
                sign = 1 if cone_dim % 2 else -1
                row = tuple(int(sign * acc[y, k]) for k in range(k_max + 1))
                if any(acc[y, k] != 0 for k in range(k_max + 1, width)):
                    raise AssertionError(f"multiplicity beyond middle degree at face {y}")
                if any(v < 0 for v in row):
                    raise AssertionError(f"negative multiplicity at face {y}: {row}")
            table[y] = trim(row)
            m[y, : len(table[y])] = table[y][:width]

        # push (-1)^(cone dim) * m_y(t) * g([y, x], t) onto every x > y
        sel = np.nonzero((px != py) & (lat.dims[px] == e))[0]
        sign_y = -1 if cone_dim % 2 else 1
        for j in range(width):
            c = sign_y * m[px[sel], j]
            if c.any():
                take = min(G.shape[1], width - j)
                np.add.at(acc[:, j:j + take], py[sel], c[:, None] * G[sel, :take])
    return table


def layered_multiplicities(lat):
    """Row f holds m_0(f), m_1(f), ..., zero-padded: the pair table solved a layer at a time.

    The faces of one dimension e are incomparable, so the stalk
    equations of a layer read only what the layers below pushed into
    ``acc``: m = (-1)^e acc[layer, :e // 2 + 1], each face checked to be
    nonnegative with nothing beyond its middle degree.  The layer then
    pushes (-1)^(e + 1) m_x(t) g([x, y], t), truncated, from each of its
    faces x onto every y > x: one convolution over its rows of the pair
    table (its block rows, grouped by y) and one sum per y.
    """
    n, d, dims = len(lat), lat.d, lat.dims
    width = (d + 1) // 2 + 2
    acc = np.zeros((n, width), dtype=np.int64)
    m = np.zeros_like(acc)
    m[lat.bottom, 0] = 1                            # the apex
    table, blocks = pair_table(lat), _blocks(lat)
    strict_x, G = lat.pairs[0], table.G
    by_dim = np.argsort(dims, kind="stable")
    layers = np.searchsorted(dims[by_dim], np.arange(-1, d + 2))
    for e in range(-1, d + 1):
        if e >= 0:
            layer = by_dim[layers[e + 1]:layers[e + 2]]
            k_max = e // 2
            solved = acc[layer, :k_max + 1] * (1 if e % 2 == 0 else -1)
            beyond = acc[layer, k_max + 1:].any(axis=1)
            bad = beyond | (solved < 0).any(axis=1)
            if bad.any():
                # the first failing face by index; "beyond" before "negative" at one face
                i = int(np.argmax(bad))
                if beyond[i]:
                    raise AssertionError(f"multiplicity beyond middle degree at face {layer[i]}")
                raise AssertionError(
                    f"negative multiplicity at face {layer[i]}: {tuple(solved[i].tolist())}"
                )
            m[layer, :k_max + 1] = solved
        # the strict pairs with dim x = e, by (dim y, y); strict pair k is
        # row k + x + 1 of the pair table, past the x + 1 diagonal rows
        k = blocks.from_dim(e)
        if not len(k):
            continue
        x = strict_x[k]
        g = G[k + x + 1, :width]
        c = m[x, :max(e, 0) // 2 + 1] * (-1 if e % 2 == 0 else 1)
        push = np.zeros((len(k), width), dtype=np.int64)
        for j in range(c.shape[1]):
            take = min(g.shape[1], width - j)
            push[:, j:j + take] += c[:, j, None] * g[:, :take]
        y = lat.pairs[1][k]
        first = _run_starts(y)
        acc[y[first]] += np.add.reduceat(push, first)
    return m


def coefficientwise_geq(a, b):
    """True iff every coefficient of a - b (zero-padded) is >= 0."""
    n = max(len(a.coeffs), len(b.coeffs))
    return all(a[k] >= b[k] for k in range(n))
