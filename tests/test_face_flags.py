"""The per-face flag table and what is read off it.

``toric._face_flags`` counts the chains below every face in one layered
pass.  ``flag_vector`` is its top row, ``_face_tables`` reads h and g of
every face off the rows through the flag-to-h matrices ``_flag_coeffs``,
and ``_polar_g`` reads every row with its dimensions reversed.  The
oracles are the prefix recursion with scatter-adds
(``oracles.pair_flag_vector``), dense chain counting
(``oracles.dense_flag_vector``), the all-pairs pass on the
order-reversed lattice (``oracles.reversed_polar_g``), and for the
faces the chunk recursion rooted at the bottom
(``oracles.interval_tables``) and the dense blocks
(``oracles.dense_interval_tables``).  The count refuses an order whose
tables could leave int64 exactly where the separate chain count
``oracles.guard`` refuses it.
"""

from math import comb

import numpy as np
import pytest

import toricgh.toric as toric_module
from toricgh.catalog import catalog, parse_recipe
from toricgh.lattice import LatticeError
from toricgh.polynomial import Polynomial
from toricgh.toric import (
    _face_flags,
    _face_tables,
    _flag_coeffs,
    _polar_g,
    _quotient_tables,
    check_monotonicity,
    flag_vector,
    quotient_g,
    report,
    toric_h,
)
from toricgh.verma import polar_matches, verma_multiplicities

from oracles import (
    dense_flag_vector,
    dense_interval_tables,
    dense_order,
    guard,
    interval_tables,
    pair_flag_vector,
    reversed_polar_g,
)

CATALOG = [e.name for e in catalog()]
FAMILIES = [f"cube{k}" for k in range(1, 9)] + [f"cross{k}" for k in range(2, 9)]
SCALE = ["cube7", "cross7", "cyclic(12,6)", "prism(cube6)", "bipyramid(cross6)", "cyclic(14,7)"]
LIMITS = [1 << k for k in (62, 40, 30, 26, 24, 22, 20, 18, 16, 14, 12)]


def _flag_row(fv, d):
    """The flag vector as the column order of ``_face_flags``: bit j for dim j."""
    return np.array([fv[tuple(j for j in range(d) if S >> j & 1)] for S in range(1 << d)])


@pytest.mark.parametrize("name", list(dict.fromkeys(CATALOG + FAMILIES + SCALE)))
def test_flag_vector_matches_scatter_and_dense_oracles(name):
    lat = parse_recipe(name).lattice()
    fv = flag_vector(lat)
    assert fv == pair_flag_vector(lat)
    assert fv == dense_flag_vector(dense_order(lat), lat.dims)
    assert list(fv) == sorted(fv)       # the order the prefix recursion inserted


@pytest.mark.parametrize("name", ["cube5", "cyclic(9,6)", "prism(cross4)", "bipyramid(cube3)"])
def test_face_flags_do_not_depend_on_the_chunk_size(monkeypatch, name):
    # runs of one face split between pieces add up to the same row
    want = [F.copy() for F in _face_flags(parse_recipe(name).lattice())]
    for chunk in (1, 5, 64):
        monkeypatch.setattr(toric_module, "_CHUNK", chunk)
        got = _face_flags(parse_recipe(name).lattice())
        assert all(np.array_equal(a, b) for a, b in zip(got, want)), (name, chunk)


def test_face_flag_rows_are_the_flag_vectors_of_the_faces():
    lat = parse_recipe("prism(cyclic(6,4))").lattice()
    flags = _face_flags(lat)
    for e in range(lat.d + 1):
        for i, f in enumerate(np.flatnonzero(lat.dims == e)):
            assert np.array_equal(flags[e][i], _flag_row(flag_vector(lat.face(int(f))), e)), f


@pytest.mark.parametrize("name", CATALOG)
def test_polar_g_matches_reversed_pair_tables_on_catalog_and_duals(name):
    base = parse_recipe(name).lattice()
    for lat in (base, base.dual()):
        polar = _polar_g(lat)
        assert polar.dtype == np.int64
        assert np.array_equal(polar, reversed_polar_g(lat)), name


@pytest.mark.parametrize("name", SCALE)
def test_polar_g_matches_reversed_pair_tables_at_scale(name):
    lat = parse_recipe(name).lattice()
    assert np.array_equal(_polar_g(lat), reversed_polar_g(lat)), name


def test_polar_g_runs_no_weighted_count(monkeypatch):
    import toricgh.verma as verma_module

    def refuse(*args):
        raise AssertionError("polar g ran the Verma solver's weighted count")

    monkeypatch.setattr(verma_module, "_count_chains", refuse)
    lat = parse_recipe("cube4").lattice()
    assert Polynomial(_polar_g(lat)[lat.top].tolist()) == Polynomial([1, 3, 2])   # g(cross4)
    assert "verma_m" not in lat._cache


def test_flag_coeffs_give_toric_h_on_the_catalog():
    # h as a linear function of the flag numbers, with no interval table
    for name in CATALOG:
        lat = parse_recipe(name).lattice()
        if lat.d >= 1:
            h = _flag_row(flag_vector(lat), lat.d) @ _flag_coeffs(lat.d)
            assert Polynomial(h.tolist()) == toric_h(lat), name


def test_flag_coeffs_are_bounded_by_two_to_the_e():
    try:
        for e in range(17):
            C = _flag_coeffs(e)
            assert C.shape == (1 << e, e + 1) and not C.flags.writeable
            assert int(np.abs(C).max()) == comb(e, e // 2) <= 1 << e
    finally:
        _flag_coeffs.cache_clear()
        toric_module._polar_coeffs.cache_clear()


def test_flag_coeffs_of_small_dimensions_by_hand():
    # a point: h = 1; a segment: (t-1) + f_0; a polygon: (t-1)^2 + f_0 (t-1) - f_1 + f_01,
    # so an n-gon has h = 1 + (n-2) t + t^2
    assert _flag_coeffs(0).tolist() == [[1]]
    assert _flag_coeffs(1).tolist() == [[-1, 1], [1, 0]]
    assert _flag_coeffs(2).tolist() == [[1, -2, 1], [-1, 1, 0], [-1, 0, 0], [1, 0, 0]]


@pytest.mark.parametrize("name", ["cube3", "cube4", "cyclic(7,4)", "prism(cross3)"])
def test_polar_matches_flags_a_changed_flag_row(name):
    # one more facet under a face gives its polar one more vertex, so g_1 moves
    d = parse_recipe(name).lattice().d
    for e in range(2, d):
        lat = parse_recipe(name).lattice()
        flags = _face_flags(lat)
        flags[e][0, 1 << (e - 1)] += 1
        face = int(np.flatnonzero(lat.dims == e)[0])
        match = polar_matches(lat)
        assert not match[face], (name, e)
        assert match.sum() == len(lat) - 1, (name, e)


def _assert_face_tables_match_rooted_tables(lat, name):
    H, G = _face_tables(lat)
    assert H.dtype == G.dtype == np.int64 and H.shape == G.shape == (len(lat), max(lat.d + 1, 1))
    for pos, H_r, G_r in (interval_tables(lat, 0), dense_interval_tables(lat, 0)):
        rows = [pos[f] for f in range(len(lat))]
        assert np.array_equal(H, H_r[rows]) and np.array_equal(G, G_r[rows]), name


@pytest.mark.parametrize("name", CATALOG)
def test_face_tables_match_rooted_tables_on_catalog_and_duals(name):
    base = parse_recipe(name).lattice()
    for lat in (base, base.dual()):
        _assert_face_tables_match_rooted_tables(lat, name)


@pytest.mark.parametrize("name", list(dict.fromkeys(FAMILIES + SCALE)))
def test_face_tables_match_rooted_tables_on_families_and_scale(name):
    _assert_face_tables_match_rooted_tables(parse_recipe(name).lattice(), name)


def test_toric_h_and_report_build_no_interval_table():
    lat = parse_recipe("cube6").lattice()
    toric_h(lat)
    report(lat)
    assert "quotients" not in lat._cache and "pairs" not in lat._cache


def test_a_changed_flag_row_moves_its_face_row_only():
    # f_1 of one square of cube4 raised by 1000: h_0 of the square falls by
    # 1000, so g_1 = h_1 - h_0 rises past g_1(cube4) and monotonicity fails there
    clean = parse_recipe("cube4").lattice()
    lat = parse_recipe("cube4").lattice()
    square = int(np.flatnonzero(lat.dims == 2)[0])
    _face_flags(lat)[2][0, 1 << 1] += 1000
    H, G = _face_tables(lat)
    H_c, G_c = _face_tables(clean)
    moved = np.flatnonzero((H != H_c).any(axis=1) | (G != G_c).any(axis=1)).tolist()
    assert moved == [square]
    assert H[square].tolist()[:3] == [H_c[square, 0] - 1000, *H_c[square, 1:3].tolist()]
    assert check_monotonicity(clean, square)
    assert not check_monotonicity(lat, square)


@pytest.mark.parametrize("name", list(dict.fromkeys(CATALOG + SCALE + ["simplex12", "cube9"])))
def test_the_flag_count_refuses_exactly_where_the_guard_does(monkeypatch, name):
    # the limits run down, so a table that passes also passed at 2^62
    lat = parse_recipe(name).lattice()
    want = None
    for limit in LIMITS:
        monkeypatch.setattr(toric_module, "_INT64_LIMIT", limit)
        lat._cache.pop("face_flags", None)
        try:
            guard(*lat.pairs, lat.dims, lat.d)
        except LatticeError as refused:
            with pytest.raises(LatticeError) as also:
                _face_flags(lat)
            assert str(also.value) == str(refused), (name, limit)
            continue
        got = _face_flags(lat)
        if want is None:
            want = got
        assert all(np.array_equal(a, b) for a, b in zip(got, want)), (name, limit)


def test_the_int64_guard_runs_once_per_lattice(monkeypatch):
    # cube7 is past the product bound, so the count checks every layer
    runs = []
    count = toric_module._chain_flags
    monkeypatch.setattr(toric_module, "_chain_flags", lambda *a: runs.append(1) or count(*a))
    lat = parse_recipe("cube7").lattice()
    faces = [lat.faces_of_dim(k)[0] for k in range(lat.d)]
    before = [quotient_g(lat, f) for f in faces]      # single faces, before the quotient table
    flag_vector(lat)
    verma_multiplicities(lat)
    _polar_g(lat)
    _quotient_tables(lat)
    toric_h(lat)
    assert [quotient_g(lat, f) for f in faces] == before
    assert len(runs) == 1


def test_a_table_whose_build_raises_keeps_nothing(monkeypatch):
    # every table read off the refused face count raises again on the next
    # call; only the pair blocks, whose build passed, are kept
    lat = parse_recipe("cube7").lattice()
    monkeypatch.setattr(toric_module, "_INT64_LIMIT", 1 << 20)
    builds = (_face_flags, flag_vector, _face_tables, _polar_g, _quotient_tables,
              verma_multiplicities, lambda lat: quotient_g(lat, 1), lambda lat: check_monotonicity(lat, 1))
    for build in builds:
        for _ in range(2):
            with pytest.raises(LatticeError, match="int64 bound"):
                build(lat)
    assert set(lat._cache) == {"blocks"}
    monkeypatch.setattr(toric_module, "_INT64_LIMIT", 1 << 62)
    assert flag_vector(lat) == flag_vector(parse_recipe("cube7").lattice())
