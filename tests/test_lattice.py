import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from toricgh.lattice import FaceLattice, LatticeError, _sorted_faces
from toricgh.catalog import (
    catalog,
    cyclic_lattice,
    empty_lattice,
    point_lattice,
    simplex_lattice,
)

from oracles import (
    CanonicalBudgetExceeded,
    bipyramid_by_inclusion,
    canonical_form,
    covers,
    cross_lattice,
    cube_lattice,
    dense_order,
    dual_by_inclusion,
    interval_by_inclusion,
    is_eulerian,
    is_isomorphic,
    prism_by_inclusion,
    pyramid_by_inclusion,
    validated_build,
)

CUBE_FACETS = [
    {0, 1, 2, 3}, {4, 5, 6, 7}, {0, 1, 4, 5},
    {2, 3, 6, 7}, {0, 2, 4, 6}, {1, 3, 5, 7},
]


@pytest.fixture(scope="module")
def cube():
    return FaceLattice.from_vertex_facets(8, CUBE_FACETS)


def test_triangle_counts():
    tri = FaceLattice.from_vertex_facets(3, [{0, 1}, {1, 2}, {0, 2}])
    assert len(tri) == 8  # 1 + 3 + 3 + 1
    assert tri.d == 2
    assert tri.f_vector() == (3, 3)


def test_square_by_hand_enumeration():
    sq = FaceLattice.from_vertex_facets(4, [{0, 1}, {1, 2}, {2, 3}, {0, 3}])
    assert sq.f_vector() == (4, 4)
    # the proper faces are exactly the 4 vertices and the 4 given edges
    proper = {sq.faces[i] for i in range(1, len(sq) - 1)}
    assert proper == {frozenset({v}) for v in range(4)} | {
        frozenset(f) for f in [{0, 1}, {1, 2}, {2, 3}, {0, 3}]
    }


def test_open_path_is_rejected_as_not_eulerian():
    with pytest.raises(LatticeError, match="Eulerian"):
        FaceLattice.from_vertex_facets(4, [{0, 1}, {1, 2}, {2, 3}])


def test_facet_containment_rejected():
    with pytest.raises(LatticeError):
        FaceLattice.from_vertex_facets(3, [{0, 1, 2}, {0, 1}])


def test_uncovered_vertex_rejected():
    with pytest.raises(LatticeError):
        FaceLattice.from_vertex_facets(5, [{0, 1}, {1, 2}, {2, 3}, {0, 3}])


def test_interval_vertex_figure_of_cube(cube):
    # 3 squares and 3 edges contain a cube vertex: the quotient is a triangle
    q = cube.quotient(cube.index_of({0}))
    q = validated_build(q.faces, q.n_vertices)
    assert q.d == 2
    assert q.f_vector() == (3, 3)
    assert len(q) == 8


def test_interval_full_and_degenerate(cube):
    full = cube.interval(cube.bottom, cube.top)
    assert len(full) == len(cube) and full.d == cube.d
    single = cube.interval(5, 5)
    assert len(single) == 1 and single.d == -1
    with pytest.raises(LatticeError):
        cube.interval(cube.index_of({0}), cube.index_of({1}))


def test_dual_of_cube_is_octahedron(cube):
    oc = cube.dual()
    oc = validated_build(oc.faces, oc.n_vertices)
    assert oc.f_vector() == (6, 12, 8)
    assert is_eulerian(oc)


def test_dual_is_involution(cube):
    dd = cube.dual().dual()
    # double dual restores the vertex-set description exactly
    assert set(dd.faces) == set(cube.faces)
    assert is_isomorphic(dd, cube)


def test_simplex_self_dual():
    s3 = simplex_lattice(3)
    assert is_isomorphic(s3.dual(), s3)


def test_pyramid_bipyramid_prism_counts():
    sq = cube_lattice(2)
    tri = simplex_lattice(2)
    assert sq.pyramid().f_vector() == (5, 8, 5)
    assert sq.bipyramid().f_vector() == (6, 12, 8)
    assert tri.prism().f_vector() == (6, 9, 5)


def test_pyramid_of_point_is_segment():
    seg = point_lattice().pyramid()
    assert seg.d == 1 and seg.f_vector() == (2,)


def test_bipyramid_of_square_is_octahedron(cube):
    assert is_isomorphic(cube_lattice(2).bipyramid(), cube.dual())


def test_is_eulerian_cases(cube):
    assert is_eulerian(cube)
    assert is_eulerian(FaceLattice.build([frozenset()], 0))  # vacuous
    # removing a facet breaks the balance
    broken = FaceLattice.build(
        [f for f in cube.faces if f != frozenset({4, 5, 6, 7})],
        8,
    )
    assert not is_eulerian(broken)


def test_every_constructor_output_validates():
    # the derived lattices are built unvalidated: re-validate what they hold,
    # over every catalog lattice (composites are derived lattices too)
    for entry in catalog():
        base = entry.lattice()
        derived = [base, base.dual(), base.pyramid(), base.prism()]
        derived += [base.face(base.faces_of_dim(base.d - 1)[0]), base.quotient(1)]
        if base.d >= 1:
            derived.append(base.bipyramid())
        else:
            with pytest.raises(LatticeError, match="dimension >= 1"):
                base.bipyramid()
        for lat in derived:
            lat._validate()


def _same_lattice(rule, oracle, what):
    # the rule's output is the oracle's lattice, face order and all, and read-only
    assert rule.faces == oracle.faces and rule.n_vertices == oracle.n_vertices, what
    for a, b in zip((*rule.pairs, rule.dims), (*oracle.pairs, oracle.dims)):
        assert a.dtype == b.dtype and np.array_equal(a, b), what
        assert not a.flags.writeable, what


def test_operations_match_inclusion_oracles():
    for entry in catalog():
        lat = entry.lattice()
        ops = [("pyramid", pyramid_by_inclusion), ("prism", prism_by_inclusion),
               ("dual", dual_by_inclusion)]
        if lat.d >= 1:
            ops.append(("bipyramid", bipyramid_by_inclusion))
        for name, oracle in ops:
            _same_lattice(getattr(lat, name)(), oracle(lat), f"{name}({entry.name})")
        if len(lat) <= 100:
            for f in range(len(lat)):
                _same_lattice(lat.face(f), interval_by_inclusion(lat, 0, f), (entry.name, f))
                _same_lattice(lat.quotient(f), interval_by_inclusion(lat, f, lat.top),
                              (entry.name, f))


@pytest.mark.parametrize("start, op, oracle, steps", [
    (point_lattice, "prism", prism_by_inclusion, 8),                            # cube1 ... cube8
    (lambda: simplex_lattice(1), "bipyramid", bipyramid_by_inclusion, 7),      # cross2 ... cross8
    (empty_lattice, "pyramid", pyramid_by_inclusion, 4),                        # point ... simplex3
])
def test_operation_chains_match_inclusion_oracles(start, op, oracle, steps):
    lat = start()
    _same_lattice(lat.dual(), dual_by_inclusion(lat), "dual")
    _same_lattice(lat.face(0), interval_by_inclusion(lat, 0, 0), "face(0)")
    for step in range(steps):
        lat, base = getattr(lat, op)(), lat
        _same_lattice(lat, oracle(base), (op, step))


def test_corrupted_pairs_fail_validation(cube):
    px, py = cube.pairs
    vertex, edge = cube.index_of({0}), cube.index_of({0, 1})
    drop_cover = ~((px == vertex) & (py == edge))
    drop_bottom = np.arange(len(px)) != 0
    for keep, message in ((drop_cover, "Eulerian|graded"), (drop_bottom, "not unique")):
        with pytest.raises(LatticeError, match=message):
            FaceLattice(cube.faces, cube.n_vertices, (px[keep], py[keep]), cube.dims)._validate()


def test_grading_conventions(cube):
    assert cube.dims[0] == -1
    assert int(cube.dims[-1]) == 3
    assert sorted(len(cube.faces_of_dim(k)) for k in range(-1, 4)) == [1, 1, 6, 8, 12]


def test_canonical_form_invariant_under_relabeling():
    sq1 = FaceLattice.from_vertex_facets(4, [{0, 1}, {1, 2}, {2, 3}, {0, 3}])
    # same square, vertices renamed by a scramble
    sq2 = FaceLattice.from_vertex_facets(4, [{2, 0}, {0, 3}, {3, 1}, {2, 1}])
    assert canonical_form(sq1) == canonical_form(sq2)


def test_canonical_form_separates_same_f_vector():
    # octahedron and cyclic(6,3) share f = (6,12,8) but are not isomorphic
    oc = cross_lattice(3)
    cy = cyclic_lattice(6, 3)
    assert oc.f_vector() == cy.f_vector() == (6, 12, 8)
    assert not is_isomorphic(oc, cy)


def test_canonical_budget_raises():
    with pytest.raises(CanonicalBudgetExceeded):
        canonical_form(cross_lattice(4), budget=2)


def test_json_round_trip(cube):
    data = cube.to_json()
    assert data["dim"] == 3 and data["n_vertices"] == 8
    again = FaceLattice.from_json(data)
    assert set(again.faces) == set(cube.faces)
    with pytest.raises(LatticeError):
        FaceLattice.from_json({"dim": 2, "n_vertices": 8, "facets": data["facets"]})


def test_order_is_read_only(cube):
    with pytest.raises(ValueError):
        cube.pairs[0][0] = 5
    with pytest.raises(ValueError):
        cube.pairs[1][0] = 5
    with pytest.raises(ValueError):
        cube.dims[0] = 5
    # the dense compatibility view is built from the pairs, and frozen too
    lat = FaceLattice.from_vertex_facets(8, CUBE_FACETS)
    assert "leq" not in lat._cache
    assert np.array_equal(lat.leq, dense_order(lat))
    with pytest.raises(ValueError):
        lat.leq[0, 0] = False


def test_maximal_chains_have_uniform_length(cube):
    # graded: walk covers from bottom, all maximal chains reach dim 3 in 5 steps
    up = covers(cube)

    def depth(i):
        return 1 + max(map(depth, up[i])) if up[i] else 0

    assert depth(cube.bottom) == cube.d + 1


def _by_sorted_vertices(faces):
    """The face order as a per-face sort defines it: count, then sorted vertices."""
    return sorted(faces, key=lambda f: (len(f), sorted(f)))


def test_catalog_face_order_is_count_then_sorted_vertices():
    entries = catalog()
    assert len(entries) == 128
    for e in entries:
        faces = e.lattice().faces
        assert list(faces) == _by_sorted_vertices(faces), e.name


@settings(max_examples=200, deadline=None)
@given(st.sets(st.frozensets(st.integers(0, 140), max_size=7), max_size=40))
def test_sorted_faces_matches_per_face_sort(family):
    faces, sizes, bits, (rows, verts) = _sorted_faces(family, 141)
    assert faces == _by_sorted_vertices(family)
    assert sizes.tolist() == [len(f) for f in faces]
    # bit 63 - v % 64 of word v // 64 is set iff v is a vertex of the face
    inc = np.unpackbits(bits.astype(">u8").view(np.uint8), axis=1).astype(bool)
    assert [set(np.flatnonzero(row).tolist()) for row in inc] == [set(f) for f in faces]
    members = [set() for _ in faces]
    for r, v in zip(rows.tolist(), verts.tolist()):
        members[r].add(v)
    assert members == [set(f) for f in faces]
