import json

import numpy as np
import pytest

from toricgh.catalog import (
    CatalogEntry,
    catalog,
    cyclic_facets,
    cyclic_lattice,
    cyclic_vertices,
    parse_recipe,
    point_lattice,
    simplex_lattice,
    simplex_vertices,
)
from toricgh.cli import load_input
from toricgh.geometry import facet_enumeration

from oracles import (
    cross_lattice,
    cross_vertices,
    cube_lattice,
    cube_vertices,
    dense_order,
    geometric_catalog,
    is_eulerian,
    is_isomorphic,
    simplex_facet_lattice,
    subset_scan_cyclic_facets,
)


FACET_LISTS = {"simplex": (simplex_facet_lattice, simplex_vertices),
               "cube": (cube_lattice, cube_vertices), "cross": (cross_lattice, cross_vertices)}


@pytest.mark.parametrize("kind, d", [("simplex", d) for d in range(8)] + [("cube", d) for d in range(1, 9)]
                         + [("cross", d) for d in range(2, 8)])
def test_base_families_agree_with_iterated_constructions(kind, d):
    # simplex(d) = pyramid^d(point), cube(d) = prism^d(point) and
    # cross(d) = bipyramid^(d-1)(segment) give the facet lists' lattice and
    # vertices, labels and order included (simplex0 is the point)
    entry = parse_recipe(f"{kind}{d}" if d else "point")
    lattice, vertices = FACET_LISTS[kind]
    lat, ref = entry.lattice(), lattice(d)
    assert lat.faces == ref.faces and lat.n_vertices == ref.n_vertices
    assert np.array_equal(lat.dims, ref.dims)
    assert np.array_equal(np.stack(lat.pairs), np.stack(ref.pairs))
    assert entry.vertices() == vertices(d)


def test_simplex_is_an_iterated_pyramid():
    assert is_isomorphic(simplex_lattice(3), simplex_lattice(2).pyramid())


def test_cyclic_facets_match_subset_scan():
    # the block-by-block generation lists the facets in the subset scan's order
    for n in range(3, 16):
        for d in range(2, n):
            assert cyclic_facets(n, d) == subset_scan_cyclic_facets(n, d), (n, d)


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
        assert not np.tril(dense_order(lat), -1).any(), e.name
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
        p = entry.polytope()
        assert p is not None
        assert set(p.lattice.faces) == set(entry.lattice().faces), name


def test_realization_budget(tmp_path):
    # every entry with vertices realizes: no C(n, d) rule refuses cube5
    # (C(32, 5) = 201,376) or prism(cube5) (C(64, 6) = 74,974,368)
    for name in ["cube4", "cube5", "prism(cube5)", "cross6"]:
        entry = parse_recipe(name)
        assert entry.has_coordinates()
        assert entry._lattice is None and entry._polytope is None   # the predicate builds nothing
        assert set(entry.polytope().lattice.faces) == set(entry.lattice().faces), name
    lattice_file = tmp_path / "square.json"
    lattice_file.write_text(json.dumps(cube_lattice(2).to_json()))
    for entry in (parse_recipe("empty"), load_input(str(lattice_file))):
        assert entry.dim == entry.lattice().d
        assert not entry.has_coordinates()
        with pytest.raises(ValueError, match="coordinates required"):
            entry.polytope()


def test_geometric_catalog_is_realizable_slice():
    geo = geometric_catalog()
    assert len(geo) == 128
    assert all(e.has_coordinates() for e in geo)
    names = {e.name for e in geo}
    assert {"cube4", "cube5", "cube6", "prism(cube5)", "prism(prism(cube3))"} <= names


def test_recipe_parser():
    assert parse_recipe("segment").dim == 1
    assert parse_recipe("prism(pyramid(cube2))").dim == 4
    assert parse_recipe("cyclic(7, 3)").name == "cyclic(7,3)"
    assert parse_recipe("bipyramid(pyramid(point))").dim == 2
    for bad in ["cube", "dodecahedron", "cyclic(7)", "prism()", "cube3)",
                "prism(cube3", "cube3 extra", "cube0", "cross1",
                # out of the grammar's bounds, refused before anything is built
                "cyclic(3,5)", "cyclic(4,4)", "cyclic(5,1)", "prism(empty)",
                "bipyramid(point)", "prism(bipyramid(empty))"]:
        with pytest.raises(ValueError):
            parse_recipe(bad)


def test_dimension_is_read_off_the_recipe():
    # the base's d, +1 per operation: reading it, or repr(), builds nothing
    entries = catalog()
    dims = [e.dim for e in entries]
    assert all(map(repr, entries)) and all(e._lattice is None for e in entries)
    assert dims == [e.lattice().d for e in entries]


def test_point_and_empty():
    assert parse_recipe("empty").dim == -1
    assert parse_recipe("point").dim == 0
    assert point_lattice().d == 0


def test_entry_caches_lattice():
    e = parse_recipe("cube3")
    assert e.lattice() is e.lattice()
    assert isinstance(e, CatalogEntry)


def test_catalog_submodule_is_not_shadowed():
    import sys

    import toricgh
    import toricgh.catalog as module

    assert module is sys.modules["toricgh.catalog"] and toricgh.catalog is module
    assert [e.name for e in module.catalog()] == [e.name for e in catalog()]


def test_readme_example_runs(capsys):
    import re
    from pathlib import Path

    readme = (Path(__file__).resolve().parents[1] / "README.md").read_text()
    code = re.search(r"```python\n(.*?)```", readme, re.S).group(1)
    exec(compile(code, "README.md", "exec"), {})
    printed = capsys.readouterr().out.splitlines()
    expected = re.findall(r"print\(.*\)\s+# (\S.*)", code)
    assert printed[: len(expected)] == [line.split(",")[0].strip() for line in expected]
