"""h and g of every quotient P/F from one chain count on the reversed order.

``toric._quotient_tables`` reads the quotient [F, top] of every face F
as the polar of a face of the lattice read top-down: one chain count on
the reversed pairs, its rows times ``_polar_coeffs``.  Each row must
equal the chain count of the face's up-set alone (``toric._rooted_g``)
and the row (F, top) of the all-pairs table (``oracles.pair_quotients``),
whatever the piece size of the count.  The count itself never refuses:
``_face_flags`` runs first and bounds every interval, so every reader of
the table refuses exactly where ``_face_flags`` does.
"""

import numpy as np
import pytest

import toricgh.toric as toric_module
from toricgh.catalog import catalog, parse_recipe
from toricgh.geometry import Cone
from toricgh.lattice import LatticeError
from toricgh.localization import check_generalized_monotonicity
from toricgh.polynomial import Polynomial
from toricgh.toric import (
    _face_flags,
    _quotient_tables,
    _rooted_g,
    check_kalai_identity,
    check_monotonicity_all,
)
from toricgh.verma import check_reciprocity, truncated_inequality

from oracles import pair_quotients

CATALOG = [e.name for e in catalog()]
SCALE = ["cube7", "cross7", "cyclic(12,6)", "prism(cube6)", "bipyramid(cross6)", "cyclic(14,7)"]
LIMITS = [1 << k for k in (62, 40, 30, 26, 24, 22, 20, 18, 16, 14, 12)]
# the tables the readers build; the lattice's own caches (pair blocks, rows) stay
TABLES = ("face_flags", "face_tables", "polar_g", "quotient_tables", "signed_sums", "quotients")


def _forget(lat):
    for key in TABLES:
        lat._cache.pop(key, None)


def _assert_quotient_tables(lat, name):
    H, G = _quotient_tables(lat)
    width = max(lat.d + 1, 1)
    assert H.dtype == G.dtype == np.int64 and H.shape == G.shape == (len(lat), width), name
    assert H[lat.top].tolist() == G[lat.top].tolist() == [1] + [0] * (width - 1), name
    H_p, G_p = pair_quotients(lat)
    assert np.array_equal(H, H_p) and np.array_equal(G, G_p), name
    for f in range(len(lat)):
        g = _rooted_g(lat, f)
        assert G[f, :len(g)].tolist() == g and not G[f, len(g):].any(), (name, f)


@pytest.mark.parametrize("name", CATALOG)
def test_quotient_tables_match_rooted_counts_and_pair_rows_on_catalog_and_duals(name):
    base = parse_recipe(name).lattice()
    for lat in (base, base.dual()):
        _assert_quotient_tables(lat, name)


@pytest.mark.parametrize("name", SCALE)
def test_quotient_tables_match_rooted_counts_and_pair_rows_at_scale(name):
    _assert_quotient_tables(parse_recipe(name).lattice(), name)


@pytest.mark.parametrize("chunk", [1, 61])
def test_quotient_tables_do_not_depend_on_the_chunk_size(monkeypatch, chunk):
    # runs of one face split between pieces add up to the same row; at one
    # pair per piece the count is a Python loop over the pairs, so it runs
    # on a quarter of the catalog
    lattices = []
    for name in CATALOG + SCALE if chunk > 1 else CATALOG[::4]:
        base = parse_recipe(name).lattice()
        lattices += [(name, base), (name, base.dual())]
    want = [_quotient_tables(lat) for _, lat in lattices]
    monkeypatch.setattr(toric_module, "_CHUNK", chunk)
    for (name, lat), (H, G) in zip(lattices, want):
        _forget(lat)
        H_c, G_c = _quotient_tables(lat)
        assert np.array_equal(H_c, H) and np.array_equal(G_c, G), (name, chunk)


def test_quotient_h_is_palindromic_of_the_quotient_dimension():
    for name in CATALOG[::4]:
        lat = parse_recipe(name).lattice()
        H = _quotient_tables(lat)[0]
        for f in range(len(lat)):
            e = lat.d - int(lat.dims[f]) - 1
            assert Polynomial(H[f].tolist()).is_palindromic(max(e, 0)), (name, f)


def test_the_reversed_count_runs_unchecked_after_the_face_count(monkeypatch):
    # _face_flags bounds every interval, so the reversed count does not check again
    checked, counted = [], []
    check, count = toric_module._chain_flags, toric_module._count_chains
    monkeypatch.setattr(toric_module, "_chain_flags", lambda *a: checked.append(1) or check(*a))
    monkeypatch.setattr(toric_module, "_count_chains", lambda *a: counted.append(1) or count(*a))
    lat = parse_recipe("cube7").lattice()
    _quotient_tables(lat)
    _quotient_tables(lat)
    assert len(checked) == 1 and len(counted) == 2


def _readers(inp):
    """Every reader of the quotient table, on the realization's lattice."""
    cone = Cone(inp.polytope()) if inp.dim >= 1 else None

    def localization():
        if cone is None:
            return None
        return check_generalized_monotonicity(cone, tuple(sum(col) for col in zip(*cone.rays)))

    def truncated():
        d = lat.d
        return [truncated_inequality(lat, k, s) for k in range(d // 2 + 2) for s in range(d + 2)]

    lat = cone.lattice if cone else inp.lattice()
    readers = {
        "reciprocity": lambda: check_reciprocity(lat) if lat.d >= 0 else None,
        "kalai": lambda: [check_kalai_identity(lat, k) for k in range(lat.d + 2)],
        "truncated": truncated,
        "monotonicity": lambda: check_monotonicity_all(lat),
        "localization": localization,
    }
    return lat, readers


@pytest.mark.parametrize("name", list(dict.fromkeys(CATALOG + SCALE + ["simplex12"])))
def test_the_readers_refuse_exactly_where_the_face_count_does(monkeypatch, name):
    # the limits run down, so what passes at a limit also passed at 2^62
    lat, readers = _readers(parse_recipe(name))
    want = None
    for limit in LIMITS:
        monkeypatch.setattr(toric_module, "_INT64_LIMIT", limit)
        _forget(lat)
        try:
            _face_flags(lat)
        except LatticeError as refused:
            for reader, run in readers.items():
                _forget(lat)
                with pytest.raises(LatticeError) as also:
                    run()
                assert str(also.value) == str(refused), (name, limit, reader)
            continue
        got = {}
        for reader, run in readers.items():
            _forget(lat)
            got[reader] = run()
        if want is None:
            want = got
        assert got == want, (name, limit)


def test_the_quotient_readers_run_no_weighted_count(monkeypatch):
    # only the Verma solver runs the chain count weighted by multiplicities
    import toricgh.verma as verma_module
    from toricgh.cli import _verify_one

    def refuse(*args):
        raise AssertionError("a quotient reader ran the weighted count")

    monkeypatch.setattr(verma_module, "_count_chains", refuse)
    suites = ("reciprocity", "truncated", "kalai-identity", "monotonicity", "localization")
    for name in ("cube4", "cyclic(8,5)", "prism(cross4)", "bipyramid(pyramid(cube3))"):
        inp = parse_recipe(name)
        for suite in suites:
            assert _verify_one(suite, inp, 0), (name, suite)
        assert "verma_m" not in inp.lattice()._cache and "quotient_tables" in inp.lattice()._cache
