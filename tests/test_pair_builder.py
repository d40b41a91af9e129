"""The pair-list builder and the row-pointer triple gather against their oracles.

``lattice._strict_pairs`` makes the strict comparable pairs straight from
the packed vertex bitsets, and ``lattice._triples`` finds the row of each
(x, y) by row pointers.  ``oracles.dense_order`` and
``oracles.dense_from_vertex_facets`` are the dense inclusion tests the
builder replaced; ``searchsorted_intervals`` and
``searchsorted_pair_tables`` are the passes that searched the keys of all
pairs.  Values and order must agree, also with chunks so small that the
triples of one face span several of them.
"""

import tracemalloc

import numpy as np
import pytest
from hypothesis import assume, given, settings
from hypothesis import strategies as st

import toricgh.lattice as lattice_module
import toricgh.toric as toric_module
from toricgh.catalog import catalog, parse_recipe
from toricgh.lattice import FaceLattice, LatticeError, _triples
from toricgh.toric import _pair_tables

from oracles import (
    cube_lattice,
    dense_build,
    dense_from_vertex_facets,
    dense_order,
    searchsorted_intervals,
    searchsorted_pair_tables,
    strict_pairs,
    validated_build,
)

CATALOG = catalog()

BASES = st.one_of(
    st.builds("simplex{}".format, st.integers(1, 4)),
    st.builds("cube{}".format, st.integers(1, 4)),
    st.builds("cross{}".format, st.integers(2, 4)),
    st.integers(2, 5).flatmap(
        lambda d: st.builds(lambda n: f"cyclic({n},{d})", st.integers(d + 1, d + 4))
    ),
)
TOWERS = st.tuples(BASES, st.lists(st.sampled_from(["pyramid", "prism", "bipyramid"]), max_size=3))


def _assert_pairs_match(lat, leq):
    px, py = lat.pairs
    assert px.dtype == py.dtype == np.int64
    assert np.array_equal(np.stack(lat.pairs), np.stack(strict_pairs(leq)))


def _assert_passes_match(lat):
    between, balance = lat._intervals()
    old_between, old_balance = searchsorted_intervals(lat)
    assert np.array_equal(between, old_between) and np.array_equal(balance, old_balance)
    forward = (*lat.pairs, lat.dims, lat.d)
    reversed_ = (lat.pairs[1], lat.pairs[0], lat.d - 1 - lat.dims, lat.d)
    for args in (forward, reversed_):
        for new, old in zip(_pair_tables(*args), searchsorted_pair_tables(*args)):
            assert new.dtype == old.dtype and np.array_equal(new, old)


@pytest.mark.parametrize("entry", CATALOG, ids=lambda e: e.name)
def test_catalog_pairs_match_dense_order(entry):
    lat = entry.lattice()
    _assert_pairs_match(lat, dense_order(lat))


@pytest.mark.parametrize("name", ["cube7", "cyclic(70,2)", "prism(cyclic(40,3))"])
def test_multiword_bitsets_match_dense_order(name):
    # more than 64 vertices: the inclusion test runs over several words
    lat = parse_recipe(name).lattice()
    assert lat.n_vertices > 64
    _assert_pairs_match(lat, dense_order(lat))


def test_passes_match_searchsorted_oracles_on_catalog():
    for e in CATALOG[::3]:
        lat = e.lattice()
        if len(lat.faces) <= 800:
            _assert_passes_match(lat)


@settings(max_examples=40, deadline=None)
@given(TOWERS, st.randoms(use_true_random=False))
def test_vertex_facet_towers_match_dense_oracle(tower, rng):
    base, ops = tower
    recipe = base
    for op in ops:
        recipe = f"{op}({recipe})"
    lat = parse_recipe(recipe).lattice()
    assume(len(lat.faces) <= 600)
    # relabelled vertices reorder the faces within each vertex count
    perm = list(range(lat.n_vertices))
    rng.shuffle(perm)
    facets = [[perm[v] for v in f] for f in lat.to_json()["facets"]]
    new = FaceLattice.from_vertex_facets(lat.n_vertices, facets)
    faces, leq, dims = dense_from_vertex_facets(lat.n_vertices, facets)
    assert new.faces == tuple(faces) and np.array_equal(new.dims, dims)
    _assert_pairs_match(new, leq)
    _assert_passes_match(new)


@pytest.mark.parametrize("name", ["cube4", "prism(simplex3)", "cyclic(9,5)", "bipyramid(cross4)"])
def test_small_chunks_agree_with_oracles(monkeypatch, name):
    # fewer candidates, triples and table cells per chunk than one face has on its own
    monkeypatch.setattr(lattice_module, "_CHUNK", 61)
    monkeypatch.setattr(toric_module, "_CHUNK", 61)
    ref = parse_recipe(name).lattice()
    lat = FaceLattice.from_vertex_facets(ref.n_vertices, ref.to_json()["facets"])
    _assert_pairs_match(lat, dense_order(lat))
    _assert_passes_match(lat)


def test_triples_are_every_chain_of_three(monkeypatch):
    monkeypatch.setattr(lattice_module, "_CHUNK", 61)
    lat = parse_recipe("prism(cube3)").lattice()
    px, py = lat.pairs
    lt = dense_order(lat) & ~np.eye(len(lat), dtype=bool)
    expect = sorted(
        (int(x), int(z), int(y)) for x, z in zip(*np.nonzero(lt)) for y in np.flatnonzero(lt[z])
    )
    for row_cost in (0, 5):
        got, split, last = [], False, set()
        for lo, hi, xz, xy in _triples(px, py, lat._rows(), row_cost):
            assert np.all((lo <= xy) & (xy < hi)) and np.array_equal(px[xz], px[xy])
            got += zip(px[xz].tolist(), py[xz].tolist(), py[xy].tolist())
            xs = set(px[xz].tolist())
            split |= bool(xs & last)
            last = xs
        assert sorted(got) == expect
        assert split == (not row_cost)


def test_cube8_build_holds_no_dense_order():
    # a dense n x n order of bools alone would take n² bytes
    tracemalloc.start()
    try:
        lat = cube_lattice(8)
        peak = tracemalloc.get_traced_memory()[1]
    finally:
        tracemalloc.stop()
    assert len(lat.faces) == 3 ** 8 + 1
    assert peak < len(lat.faces) ** 2
    assert "leq" not in lat._cache


@pytest.mark.parametrize(
    "faces, n",
    [([{0}, {1}], 2), ([{0}], 1), ([set()], 0), ([set(), {0}], 1), ([{0}, {0, 1}], 2),
     ([set(), {0}, {1}], 2), ([set(), {0}, {0, 1}, {1, 2}], 3)],
)
def test_tiny_face_families_fail_like_dense_oracle(faces, n):
    def outcome(build):
        try:
            return build(faces, n)
        except LatticeError as e:
            return str(e)

    new, old = outcome(validated_build), outcome(dense_build)
    if isinstance(old, str):
        assert new == old
    else:
        assert new.faces == tuple(old[0]) and np.array_equal(new.dims, old[2])
        _assert_pairs_match(new, old[1])
