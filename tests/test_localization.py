import random
from fractions import Fraction
from functools import cache

import pytest
from hypothesis import given, settings, strategies as st

from toricgh import localization
from toricgh.catalog import parse_recipe
from toricgh.geometry import cone_over, exact_rank, facet_enumeration
from toricgh.localization import (
    check_generalized_monotonicity,
    classify_faces,
    sample_directions,
    span_pair_direction,
)

import oracles
from oracles import dense_order, geometric_catalog, tau_plus_v


@pytest.fixture(scope="module")
def square_cone():
    return cone_over(parse_recipe("cube2").polytope())


@pytest.fixture(scope="module")
def opposite_direction(square_cone):
    lat = square_cone.lattice
    e1 = lat.index_of({0, 1})
    e2 = lat.index_of({2, 3})
    v = span_pair_direction(square_cone, e1, e2)
    assert v is not None
    return v


def _interior(cone):
    return tuple(sum(col) for col in zip(*cone.rays))


def test_interior_direction_every_face_is_back(square_cone):
    dec = classify_faces(square_cone, _interior(square_cone))
    n = len(square_cone.lattice.faces)
    assert dec.fixed == frozenset({square_cone.lattice.top})
    assert dec.back == frozenset(range(n))  # all faces, apex included


def test_opposite_two_faces_strata(square_cone, opposite_direction):
    dec = classify_faces(square_cone, opposite_direction)
    lat = square_cone.lattice
    expected = {lat.index_of({0, 1}), lat.index_of({2, 3}), lat.top}
    assert dec.fixed == frozenset(expected)
    assert set(dec.min_fixed) == expected - {lat.top}


def test_first_octant_like_cone():
    c = cone_over(parse_recipe("simplex2").polytope())
    dec = classify_faces(c, _interior(c))
    assert dec.fixed == frozenset({c.lattice.top})
    assert dec.back == frozenset(range(len(c.lattice.faces)))


def test_zero_direction_rejected(square_cone):
    with pytest.raises(ValueError):
        classify_faces(square_cone, (0, 0, 0))


def test_tau_plus_v(square_cone, opposite_direction):
    dec = classify_faces(square_cone, opposite_direction)
    lat = square_cone.lattice
    # a fixed face drifts to itself
    for f in dec.fixed:
        if f in dec.back:
            assert tau_plus_v(dec, f) == f
    # a ray below a fixed 2-face drifts up to it
    for edge in ({0, 1}, {2, 3}):
        target = lat.index_of(edge)
        for v in edge:
            ray = lat.index_of({v})
            if ray in dec.back:
                assert tau_plus_v(dec, ray) == target
    # the apex is a back face only for v inside the cone; then it drifts
    # to the overall minimal fixed face
    dec_int = classify_faces(square_cone, _interior(square_cone))
    assert tau_plus_v(dec_int, square_cone.lattice.bottom) == square_cone.lattice.top
    # front-only faces have no drift target
    non_back = set(range(len(lat.faces))) - set(dec.back)
    if non_back:
        with pytest.raises(ValueError):
            tau_plus_v(dec, next(iter(non_back)))


def test_drift_is_onto_fixed(square_cone, opposite_direction):
    dec = classify_faces(square_cone, opposite_direction)
    assert {tau_plus_v(dec, b) for b in dec.back} == set(dec.fixed)


def test_generalized_monotonicity_square_equality(square_cone, opposite_direction):
    lhs, rhs, ok = check_generalized_monotonicity(square_cone, opposite_direction)
    assert (lhs, rhs, ok) == (2, 2, True)


def test_relative_interior_direction_single_term(square_cone):
    # v inside the cone over one edge: Min Delta_0 is that edge cone alone,
    # recovering plain monotonicity at t = 1
    lat = square_cone.lattice
    edge = lat.index_of({0, 1})
    rays = square_cone.face_rays(edge)
    v = tuple(a + b for a, b in zip(*rays))
    dec = classify_faces(square_cone, v)
    assert set(dec.min_fixed) == {edge}
    lhs, rhs, ok = check_generalized_monotonicity(square_cone, v)
    assert ok and rhs == 1


def test_generic_direction_trivial_equality(square_cone):
    dec = classify_faces(square_cone, (1, 2, 5))
    if dec.fixed == frozenset({square_cone.lattice.top}):
        lhs, rhs, ok = check_generalized_monotonicity(square_cone, (1, 2, 5))
        assert lhs == rhs and ok


def _assert_front_back_invariants(cone, v):
    lat = cone.lattice
    leq = dense_order(lat)
    dec = classify_faces(cone, v)
    neg = tuple(-x for x in v)
    dec_neg = classify_faces(cone, neg)
    # (sym) swapping v for -v swaps front and back
    assert dec.front == dec_neg.back and dec.back == dec_neg.front
    # (1) all three classes are closed under passing to cofaces
    for cls in (dec.back, dec.front, dec.fixed):
        for f in cls:
            for g in range(len(lat.faces)):
                if leq[f, g]:
                    assert g in cls
    # (3) the subfan generated by the strictly-front faces is the complement
    # of the back faces
    plus = set(dec.front) - set(dec.fixed)
    closure = {
        g
        for f in plus
        for g in range(len(lat.faces))
        if leq[g, f]
    }
    assert closure == set(range(len(lat.faces))) - set(dec.back)
    # (4) projection along v is injective on every cone of that subfan:
    # v lies in the span of none of them
    for f in closure:
        rays = cone.face_rays(f)
        if rays:
            assert exact_rank(rays + [list(v)]) == exact_rank(rays) + 1


def test_front_back_invariants_square(square_cone, opposite_direction):
    _assert_front_back_invariants(square_cone, opposite_direction)
    _assert_front_back_invariants(square_cone, _interior(square_cone))
    _assert_front_back_invariants(square_cone, (1, 2, 5))


def test_front_back_invariants_sampled():
    for name in ["simplex2", "cube3", "cross3", "cyclic(6,3)"]:
        cone = cone_over(parse_recipe(name).polytope())
        for v in sample_directions(cone, seed=2, grid=4):
            _assert_front_back_invariants(cone, v)


def test_inequality_on_sampled_directions():
    for entry in geometric_catalog():
        if entry.dim < 1:
            continue
        cone = cone_over(entry.polytope())
        for seed in (0, 1, 2, 5):
            for v in sample_directions(cone, seed=seed, grid=6):
                lhs, rhs, ok = check_generalized_monotonicity(cone, v)
                assert ok, (entry.name, seed, v, lhs, rhs)


def test_sampler_hits_nontrivial_strata(square_cone):
    dirs = sample_directions(square_cone, seed=0, grid=4)
    assert any(
        len(classify_faces(square_cone, v).fixed) > 1 for v in dirs
    )


def test_negative_grid_rejected(square_cone):
    with pytest.raises(ValueError, match="grid must be >= 0"):
        sample_directions(square_cone, grid=-1)


def test_sampler_matches_pair_list_oracle(monkeypatch):
    # a span direction stands in as its pair (a, b), so the pair sequences
    # themselves are compared, at no nullspace cost; grid 1 and 3 end the
    # pair batch early, and the random batch after the pairs checks that
    # the generator's state is the oracle's too
    def pair(cone, a, b):
        return (a, b)

    monkeypatch.setattr(localization, "span_pair_direction", pair)
    monkeypatch.setattr(oracles, "span_pair_direction", pair)
    for entry in geometric_catalog():
        if entry.dim < 1:
            continue
        cone = cone_over(entry.polytope())
        for grid in (1, 3, 6):
            for seed in range(3):
                got = sample_directions(cone, seed=seed, grid=grid)
                expect = oracles.pair_list_directions(cone, seed=seed, grid=grid)
                assert got == expect, (entry.name, grid, seed)


def test_integer_span_directions_match_fraction_oracle():
    # random pairs of proper faces, comparable or not, the same face twice
    # and pairs whose spans meet only in 0 (the answer is then None)
    rng = random.Random(5)
    seen = set()
    for entry in geometric_catalog():
        if entry.dim < 1:
            continue
        cone = cone_over(entry.polytope())
        n = len(cone.lattice.faces)
        for _ in range(12):
            a, b = rng.randrange(1, n - 1), rng.randrange(1, n - 1)
            got = span_pair_direction(cone, a, b)
            assert got == oracles.fraction_span_pair_direction(cone, a, b), (entry.name, a, b)
            assert got is None or all(type(x) is Fraction for x in got)
            seen.add(got is None)
    assert seen == {True, False}


def test_incidence_classes_match_down_set_oracle():
    for entry in geometric_catalog():
        if entry.dim < 1:
            continue
        cone = cone_over(entry.polytope())
        for v in sample_directions(cone, seed=0, grid=6):
            dec = classify_faces(cone, v)
            assert (dec.back, dec.front) == oracles.downset_classes(cone, v), (entry.name, v)
            assert dec.min_fixed == oracles.loop_min_fixed(cone.lattice, dec.fixed), (entry.name, v)


def test_cone_over_a_point_rejected():
    # the ray over a point has no lifted facet, so no class can be read off
    with pytest.raises(ValueError, match="dimension >= 1"):
        classify_faces(cone_over(facet_enumeration([[3]])), (1,))


SPAN_ORACLE_CONES = (
    "simplex2", "cube2", "simplex3", "cube3", "cross3", "cyclic(6,3)",
    "pyramid(cube3)", "bipyramid(simplex3)", "prism(cross3)", "cube4",
    "cross4", "cyclic(7,4)",
)


@cache
def _cone_and_spans(name):
    cone = cone_over(parse_recipe(name).polytope())
    return cone, oracles.face_spans(cone)


@st.composite
def cone_directions(draw):
    """A catalog cone and a direction: random integers or a span-pair direction."""
    cone, spans = _cone_and_spans(draw(st.sampled_from(SPAN_ORACLE_CONES)))
    if draw(st.booleans()):
        n = len(cone.lattice.faces)
        v = span_pair_direction(cone, draw(st.integers(1, n - 1)), draw(st.integers(1, n - 1)))
        if v is not None:
            return cone, spans, v
    coords = st.lists(st.integers(-4, 4), min_size=cone.dim, max_size=cone.dim)
    return cone, spans, tuple(draw(coords.filter(any)))


@settings(deadline=None)
@given(cone_directions())
def test_lattice_classification_matches_span_oracle(case):
    # Delta_0 read off the facet down-sets equals the faces whose span holds v
    cone, spans, v = case
    for w in (v, tuple(-x for x in v)):
        assert classify_faces(cone, w).fixed == oracles.span_fixed(spans, w)
