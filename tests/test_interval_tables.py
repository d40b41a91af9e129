"""The single-root interval tables against the dense ones they replaced.

``_interval_tables(lat, root)`` reads only the list of comparable pairs.
``oracles.dense_interval_tables`` is the former construction from
``np.ix_`` blocks of the dense order; the two must agree row for row:
the same face-to-row map and the same int64 h and g rows.  No reader of
the tables, and no shelling, rigidity, localization, interval or dual,
may build the dense ``leq`` view.
"""

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from toricgh.catalog import catalog, empty_lattice, parse_recipe
from toricgh.geometry import cone_over
from toricgh.lattice import FaceLattice
from toricgh.localization import (
    check_generalized_monotonicity,
    classify_faces,
    sample_directions,
)
from toricgh.rigidity import g2_via_stresses
from toricgh.shelling import line_shelling, shelling_decomposition
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


def test_no_reader_builds_the_dense_order(monkeypatch):
    # every library path reads the pairs; the dense ``leq`` view is for outside readers
    monkeypatch.setattr(FaceLattice, "leq", property(lambda lat: pytest.fail("leq was read")))
    lattices = []
    for name in ("cube4", "cyclic(7,4)", "prism(simplex3)", "bipyramid(cube3)"):
        p = parse_recipe(name).polytope()
        lat = p.lattice
        lattices += [lat, lat.dual(), lat.interval(lat.index_of(p.facets[0][2] & p.facets[1][2]), lat.top)]
        report(lat)
        for f in range(1, len(lat.faces) - 1):
            lattices.append(lat.face(f))
            quotient_g(lat, f)
        check_kalai_identity(lat, 1), check_reciprocity(lat), verma_multiplicities(lat)
        shelling_decomposition(line_shelling(p, seed=1))
        g2_via_stresses(p)
        cone = cone_over(p)
        lattices.append(cone.lattice)
        for v in sample_directions(cone, seed=3, grid=2)[:4]:
            classify_faces(cone, v)
            check_generalized_monotonicity(cone, v)
        pos, _, G = dense_interval_tables(lat, lat.bottom)
        assert toric_g(lat) == Polynomial(G[pos[lat.top]].tolist())
    assert not [lat for lat in lattices if "leq" in lat._cache]
