import pytest

from toricgh.catalog import (
    cyclic_lattice,
    parse_recipe,
    point_lattice,
    simplex_lattice,
)
from toricgh.polynomial import Polynomial
from toricgh.toric import quotient_g, toric_g
from toricgh.verma import (
    check_reciprocity,
    check_verma_vs_polar,
    polar_g,
    truncated_inequality,
    verma_multiplicities,
)

from oracles import cross_lattice, cube_lattice

SQUARE = cube_lattice(2)
CUBE3 = cube_lattice(3)

ZERO = Polynomial()


def test_square_multiplicities():
    table = verma_multiplicities(SQUARE)
    assert table[SQUARE.top] == (1, 1)
    # rays (dim-1 cones) carry only m_0
    for v in SQUARE.faces_of_dim(0):
        assert table[v] == (1,)
    assert table[SQUARE.bottom] == (1,)


def test_cube3_multiplicities_match_octahedron_g():
    table = verma_multiplicities(CUBE3)
    assert table[CUBE3.top] == (1, 2)
    assert toric_g(cross_lattice(3)) == Polynomial([1, 2])


def test_m0_column_is_one_and_entries_nonnegative():
    for name in ["cube3", "cross4", "cyclic(7,4)", "pyramid(cube3)"]:
        lat = parse_recipe(name).lattice()
        table = verma_multiplicities(lat)
        for f, row in table.items():
            assert row[0] == 1
            assert all(v >= 0 for v in row)


def test_polar_comparison():
    assert check_verma_vs_polar(SQUARE)   # square is self-polar here
    assert check_verma_vs_polar(CUBE3)
    assert check_verma_vs_polar(simplex_lattice(4))
    assert check_verma_vs_polar(cyclic_lattice(7, 4))
    assert check_verma_vs_polar(cube_lattice(4))


def test_middle_degree_matches_self_for_even_dim():
    for lat in (cube_lattice(4), cross_lattice(4), cyclic_lattice(8, 4)):
        d = lat.d
        table = verma_multiplicities(lat)
        assert table.m(lat.top, d // 2) == toric_g(lat)[d // 2]


def test_reciprocity_point_by_hand():
    # two faces: -g(empty) g(point) + g(point*) g(empty) = -1 + 1
    assert check_reciprocity(point_lattice()) == ZERO


def test_reciprocity_cube3_by_hand():
    lat = CUBE3
    # assemble the alternating sum from its pieces independently
    total = ZERO
    pieces = []
    for f in range(len(lat.faces)):
        term = polar_g(lat, f) * quotient_g(lat, f)
        sign = 1 if lat.dims[f] % 2 == 0 else -1
        pieces.append(sign * term)
        total = total + sign * term
    # -g(cube) + 8 - 12 + 6(1+t) - g(oct)
    assert pieces[0] == -Polynomial([1, 4])
    assert sum(pieces[1:9], ZERO) == Polynomial([8])
    assert sum(pieces[9:21], ZERO) == Polynomial([-12])
    assert sum(pieces[21:27], ZERO) == 6 * Polynomial([1, 1])
    assert pieces[27] == -Polynomial([1, 2])
    assert total == ZERO
    assert check_reciprocity(lat) == ZERO


def test_reciprocity_on_sample_and_duals():
    for name in ["simplex3", "cube4", "cross4", "cyclic(8,4)", "prism(cube3)",
                 "bipyramid(simplex3)"]:
        lat = parse_recipe(name).lattice()
        assert check_reciprocity(lat) == ZERO, name
        assert check_reciprocity(lat.dual()) == ZERO, name


def test_reciprocity_rejects_empty():
    empty = parse_recipe("empty").lattice()
    with pytest.raises(ValueError):
        check_reciprocity(empty)


def test_truncated_s0_recovers_g_nonnegativity():
    for name in ["cube3", "cube4", "cyclic(8,4)"]:
        lat = parse_recipe(name).lattice()
        g = toric_g(lat)
        for k in range(lat.d // 2 + 1):
            value, ok = truncated_inequality(lat, k, 0)
            assert ok and value == g[k], (name, k)


def test_truncated_cube3_k1_s1():
    value, ok = truncated_inequality(CUBE3, 1, 1)
    # reduces to f1 - f0 - (d+1)(d-2)/2 = 12 - 8 - 2 with no g2 term in dim 3
    assert (value, ok) == (2, True)


def test_truncated_simplex_all_small_ks():
    lat = simplex_lattice(4)
    for k in range(4):
        for s in range(6):
            value, ok = truncated_inequality(lat, k, s)
            assert ok, (k, s, value)


def test_truncated_large_s_closes_to_zero():
    # once every face is admitted the strand is the full exact sequence
    for name in ["cube3", "cross4"]:
        lat = parse_recipe(name).lattice()
        for k in range(lat.d // 2 + 1):
            value, ok = truncated_inequality(lat, k, lat.d + 1)
            assert ok and value == 0, (name, k)


def test_truncated_nonnegative_on_sample():
    for name in ["cube4", "cross4", "cyclic(7,4)", "pyramid(cube3)", "cube5"]:
        lat = parse_recipe(name).lattice()
        for k in range(lat.d // 2 + 2):
            for s in range(lat.d + 2):
                value, ok = truncated_inequality(lat, k, s)
                assert ok, (name, k, s, value)


def test_invalid_arguments():
    with pytest.raises(ValueError):
        truncated_inequality(CUBE3, -1, 0)
    with pytest.raises(ValueError):
        truncated_inequality(CUBE3, 0, -2)
