from math import comb

import numpy as np
import pytest
from hypothesis import given, strategies as st

from toricgh.catalog import (
    catalog,
    cyclic_lattice,
    empty_lattice,
    parse_recipe,
    point_lattice,
    simplex_lattice,
)
from toricgh.geometry import cone_over, facet_enumeration
from toricgh.lattice import FaceLattice, LatticeError
from toricgh.polynomial import Polynomial
from toricgh.toric import (
    _monotone,
    _quotient_tables,
    _rooted_g,
    check_cone_bipyramid,
    check_dehn_sommerville,
    check_g_cascade,
    check_kalai_identity,
    check_monotonicity,
    check_monotonicity_all,
    check_ubt,
    face_g,
    flag_vector,
    g1_closed,
    g2_closed,
    gtilde,
    quotient_g,
    report,
    simplicial_h,
    toric_g,
    toric_h,
)

from oracles import (
    Invariant,
    central_fan,
    coefficientwise_geq,
    convolution,
    cross_lattice,
    cube_lattice,
    dense_interval_tables,
    dense_order,
    face_fan,
    fan_h,
    g_invariant,
    gtilde_invariant,
)

SQUARE = cube_lattice(2)
CUBE3 = cube_lattice(3)
CUBE4 = cube_lattice(4)
OCT = cross_lattice(3)
PRISM3 = simplex_lattice(2).prism()
EMPTY = empty_lattice()


def test_h_and_g_of_square():
    assert toric_h(SQUARE) == Polynomial([1, 2, 1])
    assert toric_g(SQUARE) == Polynomial([1, 1])


def test_h_of_triangular_prism():
    assert toric_h(PRISM3) == Polynomial([1, 3, 3, 1])


def test_h_of_cube3_hand_expansion():
    # (t-1)^3 + 8(t-1)^2 + 12(t-1) + 6(1+t) expanded by hand
    assert toric_h(CUBE3) == Polynomial([1, 5, 5, 1])
    assert toric_g(CUBE3) == Polynomial([1, 4])


def test_empty_polytope_base_case():
    assert toric_h(EMPTY) == Polynomial([1])
    assert toric_g(EMPTY) == Polynomial([1])


def test_simplicial_h_examples():
    assert simplicial_h((6, 12, 8), 3) == Polynomial([1, 3, 3, 1])
    for d in range(1, 6):
        f = tuple(comb(d + 1, k + 1) for k in range(d))
        assert simplicial_h(f, d) == Polynomial([1] * (d + 1))
    assert simplicial_h((4, 4), 2) == Polynomial([1, 2, 1])
    with pytest.raises(ValueError):
        simplicial_h((4,), 2)


def test_simplicial_h_agrees_with_recursion():
    for lat in (OCT, cross_lattice(4), cyclic_lattice(7, 4), simplex_lattice(4)):
        assert lat.is_simplicial()
        assert simplicial_h(lat.f_vector(), lat.d) == toric_h(lat)


def test_fan_h_examples():
    sq = facet_enumeration([(0, 0), (1, 0), (1, 1), (0, 1)])
    assert fan_h(central_fan(sq)) == Polynomial([1, 2, 1])
    assert fan_h(face_fan(cone_over(sq))) == Polynomial([1, 1])
    cube = facet_enumeration([(x, y, z) for x in (0, 1) for y in (0, 1) for z in (0, 1)])
    assert fan_h(central_fan(cube)) == toric_h(cube.lattice)


def _flag_oracle(lat, dims):
    """Chain count by explicit enumeration over face tuples."""
    pools = [lat.faces_of_dim(k) for k in dims]
    leq = dense_order(lat)

    def count(prefix_face, level):
        if level == len(pools):
            return 1
        total = 0
        for f in pools[level]:
            if prefix_face is None or leq[prefix_face, f]:
                total += count(f, level + 1)
        return total

    return count(None, 0)


def test_flag_vector_examples():
    fv = flag_vector(SQUARE)
    assert fv.count(0) == 4 and fv.count(1) == 4 and fv.count(0, 1) == 8
    assert flag_vector(CUBE3).count(0, 2) == 24  # 6 squares x 4 vertices
    s4 = simplex_lattice(4)
    fv4 = flag_vector(s4)
    assert fv4.count(0) == 5
    # multinomial chain count: choose the vertex, then the edge through it
    assert fv4.count(0, 1) == comb(5, 2) * 2
    for dims in [(0,), (1, 3), (0, 2, 3), (0, 1, 2, 3)]:
        assert fv4[tuple(dims)] == _flag_oracle(s4, dims)


def test_flag_vector_brute_force_oracle_on_cube():
    fv = flag_vector(CUBE3)
    for dims in [(0,), (1,), (2,), (0, 1), (0, 2), (1, 2), (0, 1, 2)]:
        assert fv[dims] == _flag_oracle(CUBE3, dims), dims


def test_g1_g2_closed_forms():
    assert g1_closed(SQUARE) == 1
    assert g1_closed(CUBE4) == 11
    assert g2_closed(CUBE4) == 32 + 96 - 72 - 64 + 10 == 2
    with pytest.raises(ValueError):
        g2_closed(CUBE3)
    with pytest.raises(ValueError):
        g1_closed(point_lattice())


def test_g1_g2_match_recursion_on_catalog_sample():
    for name in ["cube4", "cross4", "cyclic(7,4)", "cyclic(9,5)", "prism(cube3)",
                 "pyramid(cross3)", "cube5"]:
        lat = parse_recipe(name).lattice()
        g = toric_g(lat)
        assert g[1] == g1_closed(lat), name
        if lat.d >= 4:
            assert g[2] == g2_closed(lat), name


def test_dehn_sommerville():
    for lat in (CUBE3, PRISM3, CUBE4, OCT, cyclic_lattice(9, 4)):
        assert check_dehn_sommerville(lat)


def test_monotonicity_examples():
    v = CUBE4.index_of({0})
    assert check_monotonicity(CUBE4, v)
    cross4 = cross_lattice(4)
    edge = next(i for i in cross4.faces_of_dim(1))
    # both sides computed by the recursion
    lhs = toric_g(cross4)
    rhs = face_g(cross4, edge) * quotient_g(cross4, edge)
    assert coefficientwise_geq(lhs, rhs)
    assert check_monotonicity(cross4, edge)
    assert check_monotonicity_all(CUBE4)


def test_monotonicity_refuses_the_bottom_and_the_top():
    lat = parse_recipe("cube3").lattice()
    for face in (lat.bottom, lat.top):
        with pytest.raises(ValueError, match=f"proper nonempty face, not face {face}$"):
            check_monotonicity(lat, face)
    _quotient_tables(lat)
    with pytest.raises(ValueError, match=f"not face {lat.top}$"):
        check_monotonicity(lat, lat.top)


def test_monotonicity_matches_polynomial_comparison():
    # each face once on a lattice without a quotient table (rooted counts),
    # then on one with it, against the Polynomial comparison of before
    for name in ["cube4", "cross4", "cyclic(8,5)", "prism(pyramid(cube2))", "pyramid(cross4)"]:
        bare, tabled = parse_recipe(name).lattice(), parse_recipe(name).lattice()
        _quotient_tables(tabled)
        g = toric_g(tabled)
        for f in range(1, len(bare) - 1):
            expected = coefficientwise_geq(g, face_g(tabled, f) * quotient_g(tabled, f))
            assert check_monotonicity(bare, f) is expected is check_monotonicity(tabled, f)
        assert "quotient_tables" not in bare._cache and "pairs" not in bare._cache
        assert check_monotonicity_all(tabled)


@given(st.lists(st.integers(-5, 5), max_size=5), st.lists(st.integers(-5, 5), max_size=4),
       st.lists(st.integers(-5, 5), max_size=4))
def test_monotone_lists_match_polynomial_comparison(g, face, quot):
    expected = coefficientwise_geq(Polynomial(g), Polynomial(face) * Polynomial(quot))
    assert _monotone(g, face, quot) is expected


def test_ubt():
    assert toric_g(CUBE4)[2] == 2 <= comb(12, 2)
    assert check_ubt(CUBE4)
    assert check_ubt(simplex_lattice(5))
    # cyclic polytopes meet the bound with equality (they are neighborly)
    for n, d in [(8, 4), (9, 4), (10, 6)]:
        lat = cyclic_lattice(n, d)
        g = toric_g(lat)
        for i in range(1, d // 2 + 1):
            assert g[i] == comb(n - d + i - 2, i), (n, d, i)
        assert check_ubt(lat)


def test_gtilde():
    assert gtilde(SQUARE, 2) == -1  # h2 - h1 = 1 - 2 = -g1
    assert gtilde(SQUARE, 0) == 1
    for lat in (CUBE3, OCT, PRISM3):  # odd dimension: middle value vanishes
        assert gtilde(lat, 2) == 0
    assert gtilde(CUBE3, 4) == -1
    assert gtilde(CUBE3, 9) == 0
    g = toric_g(CUBE4)
    assert [gtilde(CUBE4, k) for k in range(3)] == list(g.coeffs)
    assert gtilde(CUBE4, 3) == -g[2] and gtilde(CUBE4, 4) == -g[1]


def test_convolution():
    # counting vertices: unit invariants on points and on the quotient
    for lat in (CUBE3, SQUARE, cross_lattice(4)):
        d = lat.d
        n = convolution(gtilde_invariant(0, 0), gtilde_invariant(0, d - 1), lat)
        assert n == len(lat.faces_of_dim(0))
    # six squares in the 3-cube, each with g1 = 1
    assert convolution(g_invariant(1, 2), gtilde_invariant(0, 0), CUBE3) == 6
    with pytest.raises(ValueError):
        convolution(gtilde_invariant(0, 0), gtilde_invariant(0, 0), CUBE3)
    bad = Invariant("g_1", 3, lambda lat: toric_g(lat)[1])
    with pytest.raises(ValueError):
        bad(SQUARE)


def test_kalai_identity_square_by_hand():
    # k = 0: 1*g1 + 3*g0 = 4 equals the number of vertices
    assert (0 + 1) * gtilde(SQUARE, 1) + (2 - 0 + 1) * gtilde(SQUARE, 0) == 4
    assert check_kalai_identity(SQUARE, 0)
    assert check_kalai_identity(SQUARE, 1)  # middle degree: 0 = 0


def test_kalai_identity_simplicial_specialization():
    # sum over vertices of g_k(P/v) = (d-k+1) g_k + (k+1) g_{k+1}
    for lat in (OCT, cross_lattice(4), cross_lattice(5)):
        d = lat.d
        g = toric_g(lat)
        for k in range(d // 2):
            lhs = sum(
                toric_g(lat.quotient(v))[k] for v in lat.faces_of_dim(0)
            )
            assert lhs == (d - k + 1) * g[k] + (k + 1) * g[k + 1], (lat.d, k)
            assert check_kalai_identity(lat, k)


def test_kalai_identity_all_degrees_on_sample():
    for name in ["cube3", "cross4", "cyclic(8,4)", "pyramid(cube3)", "cube5"]:
        lat = parse_recipe(name).lattice()
        for k in range(lat.d // 2 + 1):
            assert check_kalai_identity(lat, k), (name, k)


def test_cone_and_bipyramid_identities():
    assert check_cone_bipyramid(SQUARE)
    # bipyramid over triangle: h = (1+t)(1+t+t^2)
    tri = simplex_lattice(2)
    assert toric_h(tri.bipyramid()) == Polynomial([1, 1]) * Polynomial([1, 1, 1])
    assert check_cone_bipyramid(tri)
    assert check_cone_bipyramid(point_lattice())
    assert toric_g(SQUARE.pyramid()) == toric_g(SQUARE)


def test_g_cascade():
    assert check_g_cascade(simplex_lattice(5))  # g = (1, 0, 0)
    assert check_g_cascade(CUBE4)               # (1, 11, 2)
    assert check_g_cascade(CUBE4.pyramid())     # unchanged by coning


def test_quotient_h_matches_regraded_interval():
    for face in (CUBE4.index_of({0}), CUBE4.index_of({0, 1})):
        qh = Polynomial(_quotient_tables(CUBE4)[0][face].tolist())
        assert qh == toric_h(CUBE4.quotient(face))
        assert qh.is_palindromic(CUBE4.d - int(CUBE4.dims[face]) - 1)


def test_dual_agrees_in_middle_degree_even_dim():
    for lat in (CUBE4, cross_lattice(4), cube_lattice(6), cyclic_lattice(8, 4)):
        d = lat.d
        assert toric_g(lat)[d // 2] == toric_g(lat.dual())[d // 2]


def test_m_sequence_spot_check():
    for e in catalog():
        lat = e.lattice()
        if lat.d < 4:
            continue
        g = toric_g(lat)
        assert g[2] <= comb(g[1] + 1, 2), e.name


def test_h_palindromic_on_catalog():
    for e in catalog():
        if e.dim >= 0:
            assert check_dehn_sommerville(e.lattice()), e.name


def test_non_eulerian_rejected_by_constructor():
    with pytest.raises(LatticeError):
        FaceLattice.from_vertex_facets(4, [{0, 1}, {1, 2}, {2, 3}])


def test_monotonicity_over_all_faces_builds_one_quotient_table(monkeypatch):
    import toricgh.toric as toric_module
    import toricgh.verma as verma_module
    from toricgh.cli import _verify_one

    def refuse(*args):
        raise AssertionError("monotonicity ran the weighted chain count")

    builds = []
    count_once = toric_module._quotient_tables
    monkeypatch.setattr(verma_module, "_count_chains", refuse)
    monkeypatch.setattr(
        toric_module, "_quotient_tables",
        lambda lat: builds.append("quotient_tables" not in lat._cache) or count_once(lat),
    )
    for name in ["cube4", "cyclic(8,5)", "prism(cross4)", "bipyramid(pyramid(cube3))"]:
        lat, alone = parse_recipe(name).lattice(), parse_recipe(name).lattice()
        builds.clear()
        assert check_monotonicity_all(lat)
        assert builds == [True]
        # the table's rows are the rooted counts of a lattice without one
        quot = _quotient_tables(lat)[1]
        for f in range(1, len(lat) - 1):
            assert Polynomial(quot[f].tolist()) == Polynomial(_rooted_g(alone, f)), (name, f)
            assert quotient_g(lat, f) == quotient_g(alone, f), (name, f)
            assert check_monotonicity(lat, f) == check_monotonicity(alone, f)
        assert "quotients" not in lat._cache and "quotient_tables" not in alone._cache
        assert sorted(alone._cache["quotients"]) == list(range(1, len(lat) - 1))
        inp = parse_recipe(name)
        builds.clear()
        assert _verify_one("monotonicity", inp, 0, "all")
        assert builds == [True] and "quotient_tables" in inp.lattice()._cache
        assert "verma_m" not in inp.lattice()._cache


def test_rooted_quotients_are_kept_as_int_lists():
    # without a quotient table, monotonicity keeps one g row per face, not a table per root
    lat = cube_lattice(6)
    edges = lat.faces_of_dim(1)
    assert all(check_monotonicity(lat, f) for f in edges)
    rows = lat._cache["quotients"]
    assert "quotient_tables" not in lat._cache and "verma_m" not in lat._cache
    assert sorted(rows) == sorted(edges)
    assert all(type(row) is list and all(type(c) is int for c in row) for row in rows.values())
    assert all(Polynomial(rows[f]) == toric_g(lat.quotient(f)) for f in edges[:4])


def test_invariants_make_no_vertex_sets():
    # h, g, the checks and the flag numbers read the order only, so a
    # rule-built lattice never unpacks its words into vertex sets
    lat = parse_recipe("cube6").lattice()
    report(lat)
    flag_vector(lat)
    assert "faces" not in lat._cache


def test_int64_guard_refuses_past_the_limit(monkeypatch, capsys):
    import toricgh.toric as toric_module
    from toricgh.cli import main
    from toricgh.toric import _polar_g
    from toricgh.verma import verma_multiplicities

    monkeypatch.setattr(toric_module, "_INT64_LIMIT", 1 << 12)
    lat = cube_lattice(4)
    for compute in (toric_h, flag_vector, _polar_g, _quotient_tables, verma_multiplicities):
        with pytest.raises(LatticeError, match="int64"):
            compute(lat)
    for command in ("gh", "verma"):
        assert main([command, "cube4"]) == 2
        err = capsys.readouterr().err
        assert err.count("\n") == 1 and "int64" in err


def test_int64_guard_counts_chains_when_the_product_bound_is_coarse():
    import toricgh.toric as toric_module
    from math import prod

    lat = cube_lattice(7)
    f = np.bincount(lat.dims + 1)
    assert prod(int(k) + 1 for k in f) >= toric_module._INT64_LIMIT >> (lat.d + 2)
    pos, H, _ = dense_interval_tables(lat, lat.bottom)
    assert toric_h(lat) == Polynomial(H[pos[lat.top]].tolist())
