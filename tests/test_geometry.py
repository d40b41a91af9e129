from fractions import Fraction
from itertools import product

import pytest
from hypothesis import given, settings, strategies as st

from toricgh import geometry
from toricgh.catalog import cyclic_lattice, cyclic_vertices
from toricgh.geometry import (
    _integer_kernel,
    cone_over,
    exact_rank,
    facet_enumeration,
    primitive_ray,
)

import oracles
from oracles import Fan, central_fan, cube_lattice, face_fan


def test_unit_square():
    p = facet_enumeration([(0, 0), (1, 0), (1, 1), (0, 1)])
    assert len(p.facets) == 4
    assert p.lattice.f_vector() == (4, 4)


def test_cube3_hand_enumeration():
    p = facet_enumeration(list(product([0, 1], repeat=3)))
    assert len(p.facets) == 6
    assert p.lattice.f_vector() == (8, 12, 6)


def test_cube4_product_structure_oracle():
    # oracle: the 4-cube is combinatorially segment^4, built by lattice prisms
    p = facet_enumeration(list(product([0, 1], repeat=4)))
    assert p.lattice.f_vector() == (16, 32, 24, 8)
    assert set(p.lattice.faces) == set(cube_lattice(4).faces)


def test_degenerate_dimension_recomputed():
    # four coplanar points in R^3 come out as a 2-polytope, not an error
    p = facet_enumeration([(0, 0, 0), (1, 0, 1), (0, 1, 1), (1, 1, 2)])
    assert p.d == 2
    assert p.lattice.f_vector() == (4, 4)


def test_duplicates_deduped_and_nonvertex_rejected():
    p = facet_enumeration([(0, 0), (1, 0), (1, 1), (0, 1), (0, 0)])
    assert len(p.vertices) == 4
    with pytest.raises(ValueError, match="not a vertex"):
        facet_enumeration([(0, 0), (2, 0), (1, 0)])
    with pytest.raises(ValueError, match="not a vertex"):
        facet_enumeration([(0, 0), (2, 0), (0, 2), (1, 1)])


def test_rational_string_coordinates():
    p = facet_enumeration([("0", "0"), ("1/2", "0"), ("0", "1/3")])
    assert p.d == 2 and len(p.facets) == 3


def test_facet_tight_sets_cut_out_lattice():
    # round trip: the lattice is exactly the intersection closure of tight sets
    p = facet_enumeration(list(product([0, 1], repeat=3)))
    for i, f in enumerate(p.lattice.faces):
        tight = [t for _, _, t in p.facets if f <= t]
        if tight and f:
            inter = frozenset.intersection(*tight)
            assert inter == f or len(tight) == 0


def test_facet_incidence_is_the_facet_down_sets():
    for p in (facet_enumeration(list(product([0, 1], repeat=3))), facet_enumeration([[3]])):
        inc = p.facet_incidence
        leq = oracles.dense_order(p.lattice)
        assert inc.shape == (len(p.facets), len(p.lattice.faces)) and not inc.flags.writeable
        for j, f in enumerate(p.facet_faces):
            assert (inc[j] == leq[:, f]).all()
        assert p.facet_incidence is inc


def test_exact_rank_examples():
    assert exact_rank([[1, 0, 0], [0, 1, 0], [0, 0, 1]]) == 3
    assert exact_rank([[0, 0], [0, 0]]) == 0
    assert exact_rank([[1, 2, 3], [2, 4, 6]]) == 1
    assert 3 - exact_rank([[1, 2, 3], [2, 4, 6]]) == 2    # kernel dimension
    assert exact_rank([[Fraction(1, 2), Fraction(1, 3)], [3, 2]]) == 1
    assert exact_rank([]) == exact_rank([[]]) == 0


def test_exact_rank_past_the_modular_certificate():
    p = geometry._PRIME
    # multiples of the prime vanish mod p, so the certificate misses and
    # Bareiss gives the rank over Q
    assert geometry._rank_mod_p([[p]]) == 0
    assert exact_rank([[p]]) == 1
    assert exact_rank([[p, 0], [0, 1]]) == 2
    # entries wider than int64 are reduced as Python ints, never wrapped
    assert exact_rank([[2**70, 1], [2**71, 2]]) == 1


small_entries = st.one_of(
    st.integers(-6, 6), st.fractions(min_value=-6, max_value=6, max_denominator=4)
)
small_matrices = st.lists(
    st.lists(small_entries, min_size=3, max_size=3), min_size=1, max_size=5
)


def _apply(rows, x):
    return [sum(a * b for a, b in zip(row, x)) for row in rows]


@given(small_matrices)
def test_rank_matches_rref_oracle(rows):
    rank = exact_rank(rows)
    assert rank == oracles.rank(rows)  # independent route: RREF over Fraction
    ints, den = _integer_kernel(rows)
    assert all(type(x) is int for v in ints for x in v)
    basis = [tuple(Fraction(x, den) for x in v) for v in ints]
    assert basis == oracles.nullspace(rows)
    assert len(basis) == 3 - rank
    for v in basis:
        assert _apply(rows, v) == [0] * len(rows)
    # a nonzero kernel vector is orthogonal to the row space, so outside it
    span = oracles.echelon(rows)
    assert all(oracles.in_span(span, primitive_ray(row)) for row in rows)
    assert not any(oracles.in_span(span, primitive_ray(v)) for v in basis)


@given(small_matrices)
def test_rank_equals_rank_of_transpose(rows):
    cols = [[rows[i][j] for i in range(len(rows))] for j in range(3)]
    assert exact_rank(rows) == exact_rank(cols)


def test_nullspace_example():
    rows = [[1, 2, 3], [2, 4, 6]]
    ints, den = _integer_kernel(rows)
    ns = [tuple(Fraction(x, den) for x in v) for v in ints]
    assert ns == oracles.nullspace(rows)
    assert len(ns) == 2
    for v in ns:
        assert sum(a * b for a, b in zip([1, 2, 3], v)) == 0


def test_primitive_ray():
    assert primitive_ray([Fraction(1, 2), Fraction(3, 2)]) == (1, 3)
    assert primitive_ray([4, 6]) == (2, 3)
    assert primitive_ray([-2, 4]) == (-1, 2)  # orientation preserved


def test_cone_over_examples():
    sq = facet_enumeration([(0, 0), (1, 0), (1, 1), (0, 1)])
    c = cone_over(sq)
    assert c.dim == 3 and len(c.rays) == 4
    pt = facet_enumeration([(7,)])
    assert cone_over(pt).rays == ((1,),) or len(cone_over(pt).rays) == 1
    seg = facet_enumeration([(0,), (1,)])
    cs = cone_over(seg)
    assert cs.dim == 2 and len(cs.rays) == 2
    # pointed: the two rays are linearly independent
    assert exact_rank(list(cs.rays)) == 2


def test_central_fan_counts():
    sq = facet_enumeration([(0, 0), (1, 0), (1, 1), (0, 1)])
    fan = central_fan(sq)
    assert fan.complete and len(fan.cones) == 9  # zero + 4 rays + 4 two-cones
    seg = facet_enumeration([(0,), (2,)])
    fan1 = central_fan(seg)
    assert len(fan1.cones) == 3
    cube = facet_enumeration(list(product([0, 1], repeat=3)))
    fan3 = central_fan(cube)
    assert len(fan3.cones) == 27  # 26 nonzero cones plus the origin


def test_fan_face_intersection_axiom_enforced():
    sq = facet_enumeration([(0, 0), (1, 0), (1, 1), (0, 1)])
    fan = central_fan(sq)
    # dropping a ray cone breaks closure under intersections
    keep = [i for i, c in enumerate(fan.cones) if c != frozenset({0})]
    with pytest.raises(ValueError):
        Fan(
            rays=fan.rays,
            cones=[fan.cones[i] for i in keep],
            cone_faces=[fan.cone_faces[i] for i in keep],
            lattice=fan.lattice,
            complete=True,
        )


def test_boundary_of_single_cone_fan():
    sq = facet_enumeration([(0, 0), (1, 0), (1, 1), (0, 1)])
    fan = face_fan(cone_over(sq))
    # everything except the full cone is boundary
    assert len(fan.boundary) == len(fan.cones) - 1


def test_cyclic_realization_matches_combinatorics():
    for n, d in [(6, 2), (6, 3), (7, 4), (8, 3)]:
        p = facet_enumeration(cyclic_vertices(n, d))
        assert set(p.lattice.faces) == set(cyclic_lattice(n, d).faces), (n, d)


def test_cross_polytope_enum():
    pts = [
        tuple(Fraction(s * int(i == j)) for j in range(4))
        for i in range(4)
        for s in (1, -1)
    ]
    p = facet_enumeration(pts)
    assert p.lattice.f_vector() == (8, 24, 32, 16)
    assert p.lattice.is_simplicial()


def _outcome(enumerate_facets, pts):
    """(d, facets) of the enumeration, or the ValueError message it raised."""
    try:
        return enumerate_facets(pts)
    except ValueError as e:
        return str(e)


@st.composite
def point_sets(draw):
    """Small rational point sets, mostly of affine dimension 1-4.

    A base configuration in Q^k (random points, or points lifted to the
    paraboloid, which are in convex position) gets up to two extra
    coordinates, integer combinations of the first k, so that it lies in
    a proper flat; then duplicates, midpoints, barycenters of a few points
    and the barycenter of the points on a face (the face of the base
    maximizing a drawn functional, the whole hull for the zero one) may
    join it.  Each lies in the relative interior of the smallest face
    holding its points, so it is a vertex only as a duplicate.
    """
    k = draw(st.integers(1, 4))
    coord = st.fractions(min_value=-3, max_value=3, max_denominator=2)
    if k >= 2 and draw(st.booleans()):
        ys = draw(st.lists(st.tuples(*[st.integers(-2, 2)] * (k - 1)),
                           min_size=k + 1, max_size=k + 3, unique=True))
        base = [y + (sum(c * c for c in y),) for y in ys]
    else:
        base = draw(st.lists(st.tuples(*[coord] * k), min_size=k + 1, max_size=k + 3))
    extra = draw(st.lists(st.tuples(*[st.integers(-2, 2)] * k), max_size=2))
    pts = [p + tuple(sum(r * x for r, x in zip(row, p)) for row in extra) for p in base]
    for _ in range(draw(st.integers(0, 2))):
        pts.append(draw(st.sampled_from(pts)))
    if draw(st.booleans()):
        p, q = draw(st.sampled_from(pts)), draw(st.sampled_from(pts))
        pts.append(tuple(Fraction(x + y, 2) for x, y in zip(p, q)))

    def barycenter(group):
        return tuple(Fraction(sum(col), len(group)) for col in zip(*group))

    if draw(st.booleans()):
        pts.append(barycenter(draw(st.lists(st.sampled_from(pts), min_size=2, max_size=4))))
    if draw(st.booleans()):
        c = draw(st.tuples(*[st.integers(-1, 1)] * k))
        values = [sum(a * x for a, x in zip(c, p)) for p in pts]
        face = [p for p, val in zip(pts, values) if val == max(values)]
        pts.insert(draw(st.integers(0, len(pts))), barycenter(face))
    return pts


@settings(deadline=None)
@given(point_sets())
def test_enumeration_matches_brute_force_oracle(pts):
    def enumerate_facets(points):
        p = facet_enumeration(points)
        return p.d, p.facets

    new, old = _outcome(enumerate_facets, pts), _outcome(oracles.brute_force_facets, pts)
    if isinstance(new, str) or isinstance(old, str):
        assert new == old
        return
    (d, facets), (d_old, facets_old) = new, old
    assert d == d_old
    assert [t for _, _, t in facets] == [t for _, _, t in facets_old]
    for (a, b, _), (a_old, b_old, _) in zip(facets, facets_old):
        # the same inequality up to a positive factor
        lam = next(x / y for x, y in zip(a, a_old) if y)
        assert lam > 0 and b == lam * b_old
        assert list(a) == [lam * y for y in a_old]
