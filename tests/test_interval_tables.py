"""The single-root interval tables against the dense ones they replaced.

``_interval_tables(lat, root)`` reads only the list of comparable pairs.
``oracles.dense_interval_tables`` is the former construction from
``np.ix_`` blocks of the dense ``leq``; the two must agree row for row:
the same face-to-row map and the same int64 h and g rows.  A lattice
whose ``leq`` is removed must give the same values from every reader of
the tables.
"""

import numpy as np
from hypothesis import given, settings
from hypothesis import strategies as st

from toricgh.catalog import catalog, empty_lattice, parse_recipe
from toricgh.polynomial import Polynomial
from toricgh.toric import (
    _interval_tables,
    check_kalai_identity,
    face_g,
    quotient_g,
    report,
    toric_g,
)
from toricgh.verma import check_reciprocity, verma_multiplicities

from oracles import dense_interval_tables

SMALL = [e for e in catalog() if len(e.lattice()) <= 200]
LARGE = {name: parse_recipe(name).lattice() for name in ("cyclic(12,6)", "prism(cube6)")}


def _assert_same_tables(lat, root):
    pos, H, G = _interval_tables(lat, root)
    pos_d, H_d, G_d = dense_interval_tables(lat, root)
    assert pos == pos_d, root
    assert H.dtype == G.dtype == np.int64
    assert np.array_equal(H, H_d) and np.array_equal(G, G_d), root


def test_every_root_of_small_catalog_matches_dense_tables():
    for e in SMALL:
        lat = e.lattice()
        for root in range(len(lat.faces)):
            _assert_same_tables(lat, root)


@settings(max_examples=40, deadline=None)
@given(st.sampled_from(sorted(LARGE)), st.data())
def test_sampled_roots_of_large_lattices_match_dense_tables(name, data):
    lat = LARGE[name]
    root = data.draw(st.integers(0, len(lat.faces) - 1))
    _assert_same_tables(lat, root)


def test_degenerate_lattices_match_dense_tables():
    for lat in (empty_lattice(), parse_recipe("point").lattice(), parse_recipe("segment").lattice()):
        for root in range(len(lat.faces)):
            _assert_same_tables(lat, root)


def test_index_order_that_is_not_a_dimension_sort():
    lat = parse_recipe("prism(simplex3)").lattice()
    assert np.any(np.diff(lat.dims) < 0)
    for root in range(len(lat.faces)):
        _assert_same_tables(lat, root)


def _values(lat):
    d = lat.d
    faces = range(1, len(lat.faces) - 1)
    return {
        "report": report(lat),
        "face_g": [face_g(lat, f) for f in faces],
        # before any pair table exists, then read off it
        "quotient_g": [quotient_g(lat, f) for f in faces],
        "kalai": [check_kalai_identity(lat, k) for k in range(d // 2 + 2)],
        "quotient_g_table": [quotient_g(lat, f) for f in faces],
        "reciprocity": check_reciprocity(lat),
        "verma": verma_multiplicities(lat),
    }


def test_table_readers_never_read_leq():
    for name in ("cube4", "cyclic(7,4)", "prism(simplex3)", "bipyramid(cube3)"):
        expected = _values(parse_recipe(name).lattice())
        lat = parse_recipe(name).lattice()
        lat.leq = None
        assert _values(lat) == expected, name
        ref = parse_recipe(name).lattice()
        pos, _, G = dense_interval_tables(ref, ref.bottom)
        assert toric_g(lat) == Polynomial(G[pos[ref.top]].tolist())
        for f in range(1, len(ref.faces) - 1):
            pos, _, G = dense_interval_tables(ref, f)
            assert quotient_g(lat, f) == Polynomial(G[pos[ref.top]].tolist()), (name, f)
