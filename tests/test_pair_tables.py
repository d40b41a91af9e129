"""The all-pairs interval tables against rebuilt sublattices.

``oracles.pair_tables`` gives h and g of every interval [x, y] in one
pass, and ``_polar_g`` g of every polar from the per-face flag table.  Each value
here is recomputed independently by building the interval, the face or
its dual as a lattice of its own and running the single-root recursion
on it.
"""

from functools import lru_cache
from typing import NamedTuple

import numpy as np
from hypothesis import given, settings
from hypothesis import strategies as st

from toricgh.catalog import catalog, parse_recipe
from toricgh.polynomial import Polynomial
from toricgh.toric import _kalai_rhs, _polar_g, toric_g, toric_h

from oracles import convolution, dense_order, gtilde_invariant, pair_table, pair_tables

SMALL = [e for e in catalog() if e.dim <= 4]
LARGE = {name: parse_recipe(name).lattice()
         for name in ("cyclic(9,6)", "prism(cyclic(7,5))", "pyramid(pyramid(cube3))")}


class _Rows(NamedTuple):
    px: np.ndarray
    py: np.ndarray
    H: np.ndarray
    G: np.ndarray


@lru_cache(maxsize=None)
def _rows(lat):
    """Every pair's h and g rows; the per-lattice pair table keeps g up to d // 2."""
    rows = _Rows(*pair_tables(*lat.pairs, lat.dims, lat.d))
    t = pair_table(lat)
    k = max(lat.d // 2 + 1, 1)
    assert np.array_equal(t.px, rows.px) and np.array_equal(t.py, rows.py)
    assert t.G.shape[1] == k and np.array_equal(t.G, rows.G[:, :k]) and not rows.G[:, k:].any()
    return rows


def _row(table, r):
    return Polynomial(table[r].tolist())


def _assert_pair(lat, t, r):
    x, y = int(t.px[r]), int(t.py[r])
    sub = lat.interval(x, y)
    assert _row(t.H, r) == toric_h(sub), (x, y)
    assert _row(t.G, r) == toric_g(sub), (x, y)


def test_rows_are_the_comparable_pairs_in_order():
    for e in SMALL[::5] + [parse_recipe("prism(simplex3)")]:
        lat = e.lattice()
        t = _rows(lat)
        keys = t.px * len(lat.faces) + t.py
        leq = dense_order(lat)
        assert leq[t.px, t.py].all() and len(t.px) == int(leq.sum())
        assert np.all(np.diff(keys) > 0), e.name
        for table in (t.H, t.G, _polar_g(lat)):
            assert table.dtype == np.int64, e.name


def test_every_pair_of_small_catalog_matches_interval():
    for e in SMALL:
        lat = e.lattice()
        t = _rows(lat)
        for r in range(len(t.px)):
            _assert_pair(lat, t, r)


@settings(max_examples=60, deadline=None)
@given(st.sampled_from(sorted(LARGE)), st.data())
def test_sampled_pairs_of_large_lattices_match_interval(name, data):
    lat = LARGE[name]
    t = _rows(lat)
    r = data.draw(st.integers(0, len(t.px) - 1))
    _assert_pair(lat, t, r)


def test_polar_g_matches_dual_of_face():
    for e in catalog()[::7]:
        lat = e.lattice()
        polar = _polar_g(lat)
        for f in range(len(lat.faces)):
            assert _row(polar, f) == toric_g(lat.face(f).dual()), (e.name, f)


def test_pass_reads_dimensions_not_indices():
    # the same order under a shuffled indexing gives the same rows
    rng = np.random.default_rng(7)
    for name in ("prism(simplex3)", "bipyramid(cube3)", "cyclic(7,4)"):
        lat = parse_recipe(name).lattice()
        n = len(lat.faces)
        px, py, H, G = pair_tables(*lat.pairs, lat.dims, lat.d)
        perm = rng.permutation(n)      # new face i is old face perm[i]
        new_of = np.argsort(perm)      # old face j is new face new_of[j]
        sx, sy = lat.pairs
        qx, qy, H2, G2 = pair_tables(new_of[sx], new_of[sy], lat.dims[perm], lat.d)
        back = np.lexsort((perm[qy], perm[qx]))
        assert np.array_equal(perm[qx][back], px) and np.array_equal(perm[qy][back], py)
        assert np.array_equal(H2[back], H) and np.array_equal(G2[back], G), name


def test_kalai_rhs_matches_convolution_oracle():
    for e in catalog()[::6]:
        lat = e.lattice()
        if len(lat.faces) > 200:
            continue
        d = lat.d
        for k in range(d + 2):
            oracle = sum(
                (i + 1) * convolution(
                    gtilde_invariant(i, 2 * i), gtilde_invariant(k - i, d - 2 * i - 1), lat
                )
                for i in range(k + 1)
                if d - 2 * i - 1 >= 0
            )
            assert _kalai_rhs(lat, k) == oracle, (e.name, k)
