"""Validation counts the triples only where an interval can fail.

``FaceLattice._validate`` runs the pass over the triples x < z < y
(``lattice._counted_intervals``) only for the pairs whose y is not
Boolean below: a face y whose subsets are all faces below it, as are the
subsets of every face below it, spans only Boolean intervals, which are
graded and balanced.  ``oracles.interval_counts`` is the pass over all
triples the validation ran before; on the pairs it counts, the
validation must read the same middles, and it must skip exactly the
pairs a dense inclusion order calls Boolean.
"""

import numpy as np
import pytest

from toricgh.catalog import catalog, parse_recipe
from toricgh.lattice import (
    FaceLattice,
    LatticeError,
    _boolean_below,
    _counted_intervals,
    _sizes,
)

from oracles import build, dense_order, dense_validate, interval_counts, set_closure

CATALOG = catalog()

# the scale inputs of the benchmark, as it builds them: lattice/v1 or recipe
SCALE = [("cube7", True), ("cross7", True), ("cyclic(12,6)", True),
         ("prism(cube6)", False), ("bipyramid(cross6)", False), ("cyclic(14,7)", False)]

# every proper face is a triangle or below: two closed surfaces that bound no polytope
TORUS = sorted({tuple(sorted({i, (i + a) % 7, (i + 3) % 7})) for i in range(7) for a in (1, 2)})
RP2 = [(0, 1, 2), (0, 2, 3), (0, 3, 4), (0, 4, 5), (0, 1, 5),
       (1, 2, 4), (2, 3, 5), (1, 3, 4), (2, 4, 5), (1, 3, 5)]


def _boolean_by_inclusion(lat):
    """Faces y with 2^|y| faces at or below them in the dense inclusion order."""
    at_or_below = dense_order(lat).sum(axis=0).tolist()
    return np.array([c == 2 ** len(f) for c, f in zip(at_or_below, lat.faces)])


def _assert_counts_where_not_boolean(lat):
    px, py = lat.pairs
    boolean, (cx, cy), between, balance = _counted_intervals(lat, _sizes(lat.words))
    # in the inclusion order a face's subsets are the faces below it, so the count alone is hereditary
    assert np.array_equal(boolean, _boolean_by_inclusion(lat))
    counted = ~boolean[py]
    assert np.array_equal(cx, px[counted]) and np.array_equal(cy, py[counted])
    all_between, all_balance = interval_counts(lat)
    assert np.array_equal(between, all_between[counted])
    assert np.array_equal(balance, all_balance[counted])
    assert not all_balance[~counted].any()


def _derived(lat):
    out = [lat, lat.dual(), lat.pyramid(), lat.prism()]
    out += [lat.face(lat.faces_of_dim(lat.d - 1)[0]), lat.quotient(1)]
    if lat.d >= 1:
        out.append(lat.bipyramid())
    return out


@pytest.mark.parametrize("entry", CATALOG, ids=lambda e: e.name)
def test_validation_counts_exactly_the_pairs_not_boolean_below(entry):
    for lat in _derived(entry.lattice()):
        _assert_counts_where_not_boolean(lat)


@pytest.mark.parametrize("name, from_json", SCALE)
def test_scale_inputs_count_exactly_the_pairs_not_boolean_below(name, from_json):
    lat = parse_recipe(name).lattice()
    if from_json:
        lat = FaceLattice.from_json(lat.to_json())
    _assert_counts_where_not_boolean(lat)


def test_simplicial_validation_counts_only_the_top():
    lat = FaceLattice.from_json(parse_recipe("cyclic(14,7)").lattice().to_json())
    _, (cx, cy), _, _ = _counted_intervals(lat, _sizes(lat.words))
    assert np.array_equal(cx, np.arange(lat.top)) and (cy == lat.top).all()


def test_a_missing_pair_below_a_simplex_is_counted():
    # drop a cover vertex < edge below a triangle of the octahedron: the
    # triangle keeps its count, 2^3 - 1 faces below it, so a rule on the
    # count alone would skip its intervals, one of which lost its middle
    lat = parse_recipe("cross3").lattice()
    triangle = lat.faces_of_dim(2)[0]
    edge = next(int(f) for f in lat.below(triangle) if lat.dims[f] == 1)
    vertex = int(lat.below(edge)[-1])
    px, py = lat.pairs
    keep = ~((px == vertex) & (py == edge))
    px, py = px[keep], py[keep]
    sizes = _sizes(lat.words)
    assert np.count_nonzero(py == triangle) + 1 == 2 ** 3
    broken = FaceLattice(lat.words, lat.n_vertices, (px, py), lat.dims)
    assert not _boolean_below(sizes, px, py)[triangle]
    _, (cx, cy), _, _ = _counted_intervals(broken, sizes)
    assert np.count_nonzero(cy == triangle) == np.count_nonzero(py == triangle)

    leq = dense_order(lat).copy()
    leq[vertex, edge] = False
    with pytest.raises(LatticeError) as dense:
        dense_validate(list(lat.faces), leq, lat.dims)
    with pytest.raises(LatticeError) as ours:
        broken._validate()
    assert str(ours.value) == str(dense.value)
    assert str(ours.value).startswith("not Eulerian")


def test_a_misgraded_face_below_a_simplex_fails_as_dense():
    # an edge given dimension 2: its covers are skipped by the triple pass,
    # so the per-face check on Boolean faces must find what the covers would
    lat = parse_recipe("cross3").lattice()
    dims = lat.dims.copy()
    dims[lat.faces_of_dim(1)[0]] = 2
    with pytest.raises(LatticeError) as dense:
        dense_validate(list(lat.faces), dense_order(lat), dims)
    with pytest.raises(LatticeError) as ours:
        FaceLattice(lat.words, lat.n_vertices, lat.pairs, dims)._validate()
    assert str(ours.value) == str(dense.value) == "poset is not graded"


@pytest.mark.parametrize("facets, n, top", [
    (TORUS, 7, "{0, 1, 2, 3, 4, 5, 6}"),
    (RP2, 6, "{0, 1, 2, 3, 4, 5}"),
])
def test_simplicial_surfaces_that_bound_nothing_are_not_eulerian(facets, n, top):
    # the 7-vertex torus and the 6-vertex projective plane: every proper face
    # is a simplex, so only [{}, P] is counted, and it is unbalanced
    unvalidated = build(set_closure(n, facets), n)
    _, (cx, cy), _, balance = _counted_intervals(unvalidated, _sizes(unvalidated.words))
    assert (cy == unvalidated.top).all() and len(cy) == unvalidated.top
    assert balance[0] != 0
    with pytest.raises(LatticeError) as err:
        FaceLattice.from_json({"dim": 3, "n_vertices": n, "facets": [list(f) for f in facets]})
    assert str(err.value) == f"not Eulerian: interval [{{}}, {top}] is unbalanced"
