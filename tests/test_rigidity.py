from fractions import Fraction
from math import comb

import pytest

from toricgh import geometry
from toricgh.catalog import parse_recipe
from toricgh.geometry import (
    _eliminate,
    _integer_rows,
    cone_over,
    exact_rank,
    facet_enumeration,
)
from toricgh.rigidity import (
    Framework,
    build_framework,
    g2_via_stresses,
    rigidity_matrix,
    rigidity_rank,
    stress_dimension,
)
from toricgh.toric import g2_closed, toric_g

from oracles import central_fan, degree_one_dim, face_fan, geometric_catalog


def infinitesimally_rigid(fw):
    """All first-order motions are affine: the kernel has dimension C(d+1, 2)."""
    return fw.d * len(fw.points) - rigidity_rank(fw) == comb(fw.d + 1, 2)


@pytest.fixture(scope="module")
def cube3():
    return parse_recipe("cube3").polytope()


@pytest.fixture(scope="module")
def cube4():
    return parse_recipe("cube4").polytope()


def test_framework_edge_counts(cube3, cube4):
    assert build_framework(cube3).n_edges == 12 + 6  # one diagonal per square
    assert build_framework(cube4).n_edges == 32 + 96 - 72  # = 56
    simp = parse_recipe("cross4").polytope()
    assert build_framework(simp).n_edges == 24  # simplicial: edges only


def test_framework_needs_dim_three():
    with pytest.raises(ValueError):
        build_framework(parse_recipe("cube2").polytope())


def test_rigidity_matrix_single_edge():
    fw = Framework(points=((Fraction(0),), (Fraction(1),)), edges=((0, 1),), d=1)
    rows = rigidity_matrix(fw)
    assert len(rows) == 1 and sorted(rows[0]) == [-1, 1]


def test_triangle_in_plane():
    fw = Framework(
        points=((Fraction(0), Fraction(0)), (Fraction(1), Fraction(0)),
                (Fraction(0), Fraction(1))),
        edges=((0, 1), (0, 2), (1, 2)),
        d=2,
    )
    mat = rigidity_matrix(fw)
    assert exact_rank(mat) == 3
    # kernel = 3 = dim of planar rigid motions
    assert infinitesimally_rigid(fw)


def test_square_without_diagonal_is_flexible():
    fw = Framework(
        points=((Fraction(0), Fraction(0)), (Fraction(1), Fraction(0)),
                (Fraction(1), Fraction(1)), (Fraction(0), Fraction(1))),
        edges=((0, 1), (1, 2), (2, 3), (0, 3)),
        d=2,
    )
    assert not infinitesimally_rigid(fw)  # classic 4-bar linkage


def test_cube3_rank_and_kernel(cube3):
    fw = build_framework(cube3)
    mat = rigidity_matrix(fw)
    assert exact_rank(mat) == 18
    assert stress_dimension(fw) == 0
    assert infinitesimally_rigid(fw)  # kernel 24 - 18 = 6 = C(4,2)


def test_cube4_stresses_give_g2(cube4):
    fw = build_framework(cube4)
    mat = rigidity_matrix(fw)
    assert exact_rank(mat) == 54
    assert stress_dimension(fw) == 2
    assert infinitesimally_rigid(fw)  # kernel 64 - 54 = 10 = C(5,2)
    assert g2_via_stresses(cube4) == toric_g(cube4.lattice)[2] == g2_closed(cube4.lattice)


def test_simplicial_three_polytopes_are_rigid():
    for name in ["cross3", "simplex3", "cyclic(6,3)"]:
        p = parse_recipe(name).polytope()
        assert stress_dimension(build_framework(p)) == 0, name


def test_three_way_agreement_on_dim4_sample():
    for name in ["cross4", "cyclic(6,4)", "pyramid(cube3)", "prism(simplex3)"]:
        p = parse_recipe(name).polytope()
        lat = p.lattice
        assert (
            g2_via_stresses(p) == toric_g(lat)[2] == g2_closed(lat)
        ), name


def test_euler_characteristic_bookkeeping():
    # C(d+1,2) - d f0 + E = g2 holds with no rank computation at all
    for name in ["cube4", "cross4", "cyclic(7,4)", "pyramid(cube3)", "cube5"]:
        lat = parse_recipe(name).lattice()
        assert g2_closed(lat) == toric_g(lat)[2], name


def test_stress_dimension_affine_invariance(cube4):
    fw = build_framework(cube4)
    # invertible affine map: shear + scale + translate
    mapped = tuple(
        (2 * x + y + 1, y - x, z + x, w + Fraction(1, 3))
        for x, y, z, w in fw.points
    )
    fw2 = Framework(points=mapped, edges=fw.edges, d=4)
    assert stress_dimension(fw2) == stress_dimension(fw) == 2


def test_stress_dimension_triangulation_order_invariance():
    # relabeling vertices changes which diagonals the fan rule picks
    pts = parse_recipe("cube4").polytope().vertices
    relabeled = facet_enumeration(list(reversed(pts)))
    assert g2_via_stresses(relabeled) == 2


def test_degree_one_dims():
    sq = parse_recipe("cube2").polytope()
    assert degree_one_dim(central_fan(sq)) == 2      # f0 - d = h1
    assert degree_one_dim(face_fan(cone_over(sq))) == 1  # f0 - (d+1) = g1
    ray = face_fan(cone_over(parse_recipe("point").polytope()))
    assert degree_one_dim(ray) == 0


def test_catalog_rigidity_invariants():
    for name in ["cube3", "cross3", "prism(simplex2)", "pyramid(cube2)"]:
        p = parse_recipe(name).polytope()
        fw = build_framework(p)
        assert stress_dimension(fw) == 0, name
        assert infinitesimally_rigid(fw), name
        assert kernel_dim_of(fw) == comb(p.d + 1, 2)


def kernel_dim_of(fw):
    rows = rigidity_matrix(fw)
    return len(rows[0]) - exact_rank(rows)


def _bareiss_rank(fw):
    return len(_eliminate(_integer_rows(rigidity_matrix(fw)))[0])


@pytest.fixture
def bareiss_calls(monkeypatch):
    """Counts the Bareiss eliminations that ``exact_rank`` falls back to."""
    calls = []

    def spy(mat, full=False):
        calls.append(len(mat))
        return _eliminate(mat, full)

    monkeypatch.setattr(geometry, "_eliminate", spy)
    return calls


def test_certified_rank_equals_bareiss(bareiss_calls):
    # every catalog framework reaches d n - C(d+1, 2), so no fallback runs
    polytopes = [e.polytope() for e in geometric_catalog() if e.dim >= 3]
    polytopes.append(facet_enumeration(parse_recipe("cube5").vertices()))
    for p in polytopes:
        fw = build_framework(p)
        expect = _bareiss_rank(fw)
        bareiss_calls.clear()
        assert rigidity_rank(fw) == expect == fw.d * len(fw.points) - comb(fw.d + 1, 2), p
        assert fw.n_edges - expect == stress_dimension(fw)
        assert not bareiss_calls, p


def test_framework_without_diagonals_falls_back_to_bareiss(bareiss_calls):
    # without the diagonals of its square 2-faces the prism flexes, and the
    # stresses of its two simplicial facets keep the rank below the number of
    # bars too: no bound is met, so the rank mod p certifies nothing
    p = parse_recipe("prism(cyclic(6,4))").polytope()
    lat = p.lattice
    edges = tuple(tuple(sorted(lat.faces[e])) for e in lat.faces_of_dim(1))
    fw = Framework(tuple(p.coords), edges, p.d)
    expect = _bareiss_rank(fw)
    assert expect < min(len(edges), p.d * len(p.coords) - comb(p.d + 1, 2))
    bareiss_calls.clear()
    assert rigidity_rank(fw) == expect
    assert bareiss_calls
    assert not infinitesimally_rigid(fw)
