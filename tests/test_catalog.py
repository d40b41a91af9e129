import numpy as np
import pytest

from toricgh.catalog import (
    CatalogEntry,
    catalog,
    cross_lattice,
    cube_lattice,
    cyclic_facets,
    cyclic_lattice,
    cyclic_vertices,
    geometric_catalog,
    parse_recipe,
    point_lattice,
    simplex_lattice,
)
from toricgh.geometry import facet_enumeration
from toricgh.lattice import is_eulerian

from oracles import is_isomorphic


def test_base_families_agree_with_iterated_constructions():
    assert set(cube_lattice(3).faces) == set(
        cube_lattice(2).prism().faces
    ) or is_isomorphic(cube_lattice(3), cube_lattice(2).prism())
    assert is_isomorphic(cross_lattice(4), cross_lattice(3).bipyramid())
    assert is_isomorphic(simplex_lattice(3), simplex_lattice(2).pyramid())


def test_cyclic_gale_evenness_against_enumeration():
    # facets from the parity criterion match brute-force geometry
    for n, d in [(6, 2), (6, 3), (7, 4), (8, 5)]:
        combinatorial = set(cyclic_facets(n, d))
        geometric = {t for _, _, t in facet_enumeration(cyclic_vertices(n, d)).facets}
        assert combinatorial == geometric, (n, d)


def test_cyclic_is_neighborly_in_dim4():
    lat = cyclic_lattice(8, 4)
    assert len(lat.faces_of_dim(1)) == 8 * 7 // 2


def test_cyclic_validations():
    with pytest.raises(ValueError):
        cyclic_lattice(4, 4)


def test_catalog_contents():
    cat = catalog()
    names = {e.name for e in cat}
    assert {"cube6", "cross6", "simplex6", "cyclic(10,6)", "point"} <= names
    assert "pyramid(cross5)" in names and "prism(bipyramid(cube3))" in names
    assert all(e.dim <= 6 for e in cat)
    assert len(cat) == len(names)


def test_face_order_is_a_linear_extension():
    # leq[i, j] implies i <= j; the index order is not the dimension order
    unsorted = []
    for e in catalog():
        lat = e.lattice()
        assert not np.tril(lat.leq, -1).any(), e.name
        if np.any(np.diff(lat.dims) < 0):
            unsorted.append(e.name)
    assert "prism(simplex3)" in unsorted


def test_catalog_entries_are_eulerian_sample():
    for e in catalog()[::9]:
        assert is_eulerian(e.lattice()), e.name


def test_geometric_entries_round_trip():
    for name in ["cube3", "cross4", "cyclic(6,3)", "pyramid(cube2)",
                 "prism(simplex3)", "bipyramid(simplex2)",
                 "prism(cross5)", "prism(prism(cross3))"]:
        entry = parse_recipe(name)
        p = entry.realize()
        assert p is not None
        assert set(p.lattice.faces) == set(entry.lattice().faces), name


def test_realization_budget():
    assert parse_recipe("cube4").realizable()
    assert not parse_recipe("cube5").realizable()   # C(32,5) too large
    assert parse_recipe("cross6").realizable()
    assert not parse_recipe("empty").realizable()
    assert parse_recipe("cube5").realize() is None


def test_geometric_catalog_is_realizable_slice():
    geo = geometric_catalog()
    assert all(e.realizable() for e in geo)
    assert any(e.name == "cube4" for e in geo)
    assert all(e.name != "cube5" for e in geo)


def test_recipe_parser():
    assert parse_recipe("segment").dim == 1
    assert parse_recipe("prism(pyramid(cube2))").dim == 4
    assert parse_recipe("cyclic(7, 3)").name == "cyclic(7,3)"
    assert parse_recipe("bipyramid(bipyramid(point))").dim == 2
    for bad in ["cube", "dodecahedron", "cyclic(7)", "prism()", "cube3)",
                "prism(cube3", "cube3 extra"]:
        with pytest.raises(ValueError):
            parse_recipe(bad)


def test_point_and_empty():
    assert parse_recipe("empty").dim == -1
    assert parse_recipe("point").dim == 0
    assert point_lattice().d == 0


def test_entry_caches_lattice():
    e = parse_recipe("cube3")
    assert e.lattice() is e.lattice()
    assert isinstance(e, CatalogEntry)
