"""The Verma multiplicities, solved from one weighted chain count.

``verma._multiplicities`` reads every stalk equation off the flag count
weighted at each chain's lowest face (``toric._count_chains`` with a
``width``).  Its oracles are the same solve on the all-pairs g table,
a layer at a time (``oracles.layered_multiplicities``) and one stalk at
a time (``oracles.verma_by_face``).  A changed entry of that table moves
the stalk sum at its upper face; ``_corrupt`` moves the library's sum
the same way, through the column of the face's facets in the weighted
count, so both solvers must fail at the same face with the same words.
"""

import numpy as np
import pytest

import toricgh.toric as toric_module
import toricgh.verma as verma_module
from toricgh.catalog import (
    catalog,
    cyclic_lattice,
    parse_recipe,
    point_lattice,
    simplex_lattice,
)
from toricgh.polynomial import Polynomial
from toricgh.lattice import LatticeError
from toricgh.toric import _face_flags, _polar_g, _quotient_tables, quotient_g, toric_g
from toricgh.verma import (
    SolveError,
    _multiplicities,
    check_reciprocity,
    check_verma_vs_polar,
    polar_g,
    polar_matches,
    truncated_inequality,
    verma_multiplicities,
)

from oracles import cross_lattice, cube_lattice, layered_multiplicities, pair_table, verma_by_face

SQUARE = cube_lattice(2)
CUBE3 = cube_lattice(3)

ZERO = Polynomial()


def test_square_multiplicities():
    table = verma_multiplicities(SQUARE)
    assert table[SQUARE.top] == (1, 1)
    # rays (dim-1 cones) carry only m_0
    for v in SQUARE.faces_of_dim(0):
        assert table[v] == (1,)
    assert table[SQUARE.bottom] == (1,)


def test_cube3_multiplicities_match_octahedron_g():
    table = verma_multiplicities(CUBE3)
    assert table[CUBE3.top] == (1, 2)
    assert toric_g(cross_lattice(3)) == Polynomial([1, 2])


def test_m0_column_is_one_and_entries_nonnegative():
    for name in ["cube3", "cross4", "cyclic(7,4)", "pyramid(cube3)"]:
        lat = parse_recipe(name).lattice()
        table = verma_multiplicities(lat)
        for f, row in table.items():
            assert row[0] == 1
            assert all(v >= 0 for v in row)


def test_polar_comparison():
    assert check_verma_vs_polar(SQUARE)   # square is self-polar here
    assert check_verma_vs_polar(CUBE3)
    assert check_verma_vs_polar(simplex_lattice(4))
    assert check_verma_vs_polar(cyclic_lattice(7, 4))
    assert check_verma_vs_polar(cube_lattice(4))


def _oracle_lattices():
    for entry in catalog():
        yield entry.name, entry.lattice()
        yield f"dual({entry.name})", entry.lattice().dual()
    for d in range(1, 9):
        yield f"cube{d}", parse_recipe(f"cube{d}").lattice()
    for d in range(2, 9):
        yield f"cross{d}", parse_recipe(f"cross{d}").lattice()


def test_layered_solver_matches_per_face_oracle():
    # the weighted count against the pair-table solvers, layered and per face
    for name, lat in _oracle_lattices():
        assert verma_multiplicities(lat) == verma_by_face(lat), name
        assert np.array_equal(_multiplicities(lat), layered_multiplicities(lat)), name


@pytest.mark.parametrize("chunk", [1, 61])
def test_multiplicities_do_not_depend_on_the_chunk_size(monkeypatch, chunk):
    # a face's weighted rows split between pieces add up to the same sums
    lattices = [parse_recipe(e.name).lattice() for e in catalog()[::1 if chunk > 1 else 4]]
    want = [_multiplicities(lat) for lat in lattices]
    monkeypatch.setattr(toric_module, "_CHUNK", chunk)
    for lat, m in zip(lattices, want):
        del lat._cache["verma_m"]
        assert np.array_equal(_multiplicities(lat), m)


def test_polar_matches_the_per_face_comparison():
    # the comparison ``verma`` and ``verify verma`` made face by face before
    for entry in catalog():
        lat = entry.lattice()
        table = verma_by_face(lat)
        expected = [table[f] == (polar_g(lat, f).coeffs or (1,)) for f in range(len(lat))]
        assert polar_matches(lat).tolist() == expected, entry.name
        assert check_verma_vs_polar(lat) == all(expected), entry.name


def test_polar_matches_flags_a_changed_polar_row():
    lat = parse_recipe("cube3").lattice()
    polar = lat._cache["polar_g"] = _polar_g(lat).copy()
    polar[lat.top, 1] += 1
    match = polar_matches(lat)
    assert match.tolist() == [f != lat.top for f in range(len(lat))]
    assert not check_verma_vs_polar(lat)


def test_multiplicities_are_solved_once_per_lattice():
    lat = parse_recipe("cyclic(9,6)").lattice()
    assert check_verma_vs_polar(lat)
    m = lat._cache["verma_m"]
    table = verma_multiplicities(lat)
    assert lat._cache["verma_m"] is m
    assert verma_multiplicities(lat) is table
    assert polar_matches(lat).all()


def _shift_stalks(monkeypatch, lat, shifts):
    """Make the solve of ``lat`` read face y's stalk sum moved by shifts[y].

    Column 2^e of a face of dim e sums the weights of its facets, whose
    interval up to the face is a point, with g = 1: adding to its
    coefficient i moves the stalk sum at degree i alone.  The entry is
    changed in the layer the weighted count yields, and put back before
    the layer pushes, so the faces above read only the solved weights.
    """
    count = verma_module._count_chains

    def shifted(px, py, dims, d, blocks, width):
        for e, W in enumerate(count(px, py, dims, d, blocks, width), -1):
            rows = {int(np.searchsorted(np.flatnonzero(dims == e), y)): np.asarray(shift)
                    for y, shift in shifts.items() if px is lat.pairs[0] and dims[y] == e}
            for i, shift in rows.items():
                W[i, 1 << e, :len(shift)] += shift
            yield W
            for i, shift in rows.items():
                W[i, 1 << e, :len(shift)] -= shift

    monkeypatch.setattr(verma_module, "_count_chains", shifted)


def _corrupt(monkeypatch, name, *entries):
    """A fresh lattice whose pair table holds G[(x, y), k] = value for each entry.

    The oracles read that table.  The library's solve reads the stalk
    sum at y moved as the entry moves it: by the change of g_k([x, y])
    times the weight (-1)^(dim x + 1) m(x), shifted by k, truncated.
    """
    lat = parse_recipe(name).lattice()
    table, m = pair_table(lat), _multiplicities(parse_recipe(name).lattice())
    width = m.shape[1]
    shifts = {}
    for x, y, k, value in entries:
        row = np.flatnonzero((table.px == x) & (table.py == y))[0]
        change = value - int(table.G[row, k])
        table.G[row, k] = value
        weight = m[x] * (-1) ** (int(lat.dims[x]) + 1)
        shifts.setdefault(y, np.zeros(width, dtype=np.int64))[k:] += change * weight[:width - k]
    _shift_stalks(monkeypatch, lat, shifts)
    return lat


def _truncated_values(lat):
    return {(k, s): truncated_inequality(lat, k, s)[0]
            for k in range(lat.d // 2 + 2) for s in range(lat.d + 2)}


@pytest.mark.parametrize("name", ["cube3", "cube4", "cyclic(7,4)", "prism(cross3)"])
def test_a_changed_weighted_entry_fails_verma_only(monkeypatch, name):
    # polar g reads the flag table and the quotients their own table, so one
    # wrong entry of the weighted count shows in verma alone: coefficient 1
    # of the top's facet column moved so that m_1 of the top rises and the
    # solve still succeeds
    clean = parse_recipe(name).lattice()
    lat = parse_recipe(name).lattice()
    _shift_stalks(monkeypatch, lat, {lat.top: [0, (-1) ** lat.d]})
    top = list(verma_multiplicities(clean)[clean.top])
    top[1] += 1
    assert verma_multiplicities(lat)[lat.top] == tuple(top)
    assert polar_matches(lat).tolist() == [f != lat.top for f in range(len(lat))]
    assert not check_verma_vs_polar(lat)
    assert check_reciprocity(lat) == ZERO
    assert _truncated_values(lat) == _truncated_values(clean)


@pytest.mark.parametrize("name", ["cube3", "cube4", "cyclic(7,4)", "prism(cross3)"])
def test_a_changed_quotient_table_entry_fails_reciprocity_and_truncated_at_its_face(name):
    # g_1(P/v) of one vertex lowered by 1000: the vertex enters the truncated
    # sums of degree 1 with g_0(v*) = 1 from s = 1 on, with sign (-1)^(s + 1),
    # and reciprocity gains -1000 t; verma reads the weighted count only
    clean = parse_recipe(name).lattice()
    lat = parse_recipe(name).lattice()
    v = lat.faces_of_dim(0)[0]
    _quotient_tables(lat)[1][v, 1] -= 1000
    assert check_reciprocity(lat) == Polynomial([0, -1000])
    want = _truncated_values(clean)
    for (k, s), value in _truncated_values(lat).items():
        moved = -1000 * (-1) ** (s + 1) if k == 1 and s >= 1 else 0
        assert value == want[k, s] + moved, (name, k, s)
    assert not all(truncated_inequality(lat, 1, s)[1] for s in range(1, lat.d + 2, 2))
    assert check_verma_vs_polar(lat)


def test_reciprocity_and_truncated_sums_past_int64_are_exact():
    # planted tables whose entries fit int64 but whose products do not
    lat = parse_recipe("cube3").lattice()
    rng = np.random.default_rng(3)
    k = lat.d // 2 + 1
    polar, quot = np.zeros((2, len(lat), lat.d + 1), dtype=np.int64)
    polar[:, :k] = rng.integers(-(1 << 40), 1 << 40, size=(len(lat), k))
    quot[:, :k] = rng.integers(-(1 << 40), 1 << 40, size=(len(lat), k))
    lat._cache["polar_g"] = polar
    lat._cache["quotient_tables"] = (np.zeros_like(quot), quot)
    rows = [(int(lat.dims[f]), polar[f].tolist(), quot[f].tolist()) for f in range(len(lat))]
    want = Polynomial()
    for dim, a, b in rows:
        want = want + (-1) ** (dim % 2) * Polynomial(a) * Polynomial(b)
    assert max(abs(c) for c in want.coeffs) >= 1 << 63
    assert check_reciprocity(lat) == want
    for deg in range(lat.d // 2 + 2):
        for s in range(lat.d + 2):
            total = sum(
                (-1) ** ((dim - s + 1) % 2) * a[i] * b[deg - i]
                for dim, a, b in rows
                for i in range(deg + 1)
                if dim <= s + 2 * i - 1 and i < len(a) and deg - i < len(b)
            )
            assert truncated_inequality(lat, deg, s) == (total, total >= 0), (deg, s)


def test_reciprocity_sums_stay_int64_inside_the_bound():
    lat = parse_recipe("cube5").lattice()
    assert check_reciprocity(lat) == ZERO
    assert lat._cache["signed_sums"].dtype == np.int64


def _message(solve, lat):
    with pytest.raises(AssertionError) as err:
        solve(lat)
    return str(err.value)


def _failing_face(lat):
    with pytest.raises(SolveError) as err:
        verma_multiplicities(lat)
    return err.value.face


def _vertex_below(lat, face):
    return next(int(v) for v in lat.below(face) if lat.dims[v] == 0)


CUBE3_BY_RULE = parse_recipe("cube3").lattice()


def _cube3_error_cases():
    # the cone over an edge has m = (1,): g([bottom, edge])_0 = 3 makes its
    # m_0 -1, and g([v, edge])_1 = 1 at a vertex v of it puts -1 past degree 0
    lat = CUBE3_BY_RULE
    v, a, b = 1, 9, 10                  # a vertex, then two edges by index

    def negative(e):
        return (lat.bottom, e, 0, 3)

    def beyond(e):
        return (_vertex_below(lat, e), e, 1, 1)

    neg, past = "negative multiplicity at face {}: (-1,)", "multiplicity beyond middle degree at face {}"
    return {
        "vertex negative": ([(lat.bottom, v, 0, -1)], neg.format(v)),
        "edge beyond": ([beyond(a)], past.format(a)),
        "negative then beyond": ([negative(a), beyond(b)], neg.format(a)),
        "beyond then negative": ([beyond(a), negative(b)], past.format(a)),
        "one face both": ([negative(a), beyond(a)], past.format(a)),
    }


CUBE3_ERRORS = _cube3_error_cases()


@pytest.mark.parametrize("case", sorted(CUBE3_ERRORS))
def test_solver_errors_name_the_face_the_oracle_names(monkeypatch, case):
    entries, expected = CUBE3_ERRORS[case]
    assert [int(CUBE3_BY_RULE.dims[f]) for f in (1, 9, 10)] == [0, 1, 1]
    lat = _corrupt(monkeypatch, "cube3", *entries)
    assert _message(verma_by_face, lat) == expected
    assert _message(layered_multiplicities, lat) == expected
    assert _message(verma_multiplicities, lat) == expected
    assert f"at face {_failing_face(lat)}" in expected
    assert "verma_m" not in lat._cache


def test_solver_errors_go_by_layer_before_index(monkeypatch):
    # in prism(simplex3) the tetrahedron 33 precedes the square 34 by index,
    # but the square's layer is solved first, so its failure is the one named
    prism = parse_recipe("prism(simplex3)").lattice()
    tetra, square = 33, 34
    assert (int(prism.dims[tetra]), int(prism.dims[square])) == (3, 2)
    lat = _corrupt(monkeypatch, "prism(simplex3)", (prism.bottom, square, 0, -1),
                   (_vertex_below(prism, tetra), tetra, 2, 1))
    got = _message(verma_by_face, lat)
    assert got.startswith(f"negative multiplicity at face {square}: ")
    assert _message(layered_multiplicities, lat) == got
    assert _message(verma_multiplicities, lat) == got
    assert _failing_face(lat) == square


def test_middle_degree_matches_self_for_even_dim():
    for lat in (cube_lattice(4), cross_lattice(4), cyclic_lattice(8, 4)):
        d = lat.d
        table = verma_multiplicities(lat)
        assert table.m(lat.top, d // 2) == toric_g(lat)[d // 2]


def test_reciprocity_point_by_hand():
    # two faces: -g(empty) g(point) + g(point*) g(empty) = -1 + 1
    assert check_reciprocity(point_lattice()) == ZERO


def test_reciprocity_cube3_by_hand():
    lat = CUBE3
    # assemble the alternating sum from its pieces independently
    total = ZERO
    pieces = []
    for f in range(len(lat.faces)):
        term = polar_g(lat, f) * quotient_g(lat, f)
        sign = 1 if lat.dims[f] % 2 == 0 else -1
        pieces.append(sign * term)
        total = total + sign * term
    # -g(cube) + 8 - 12 + 6(1+t) - g(oct)
    assert pieces[0] == -Polynomial([1, 4])
    assert sum(pieces[1:9], ZERO) == Polynomial([8])
    assert sum(pieces[9:21], ZERO) == Polynomial([-12])
    assert sum(pieces[21:27], ZERO) == 6 * Polynomial([1, 1])
    assert pieces[27] == -Polynomial([1, 2])
    assert total == ZERO
    assert check_reciprocity(lat) == ZERO


def test_reciprocity_on_sample_and_duals():
    for name in ["simplex3", "cube4", "cross4", "cyclic(8,4)", "prism(cube3)",
                 "bipyramid(simplex3)"]:
        lat = parse_recipe(name).lattice()
        assert check_reciprocity(lat) == ZERO, name
        assert check_reciprocity(lat.dual()) == ZERO, name


def test_reciprocity_rejects_empty():
    empty = parse_recipe("empty").lattice()
    with pytest.raises(ValueError):
        check_reciprocity(empty)


def test_truncated_s0_recovers_g_nonnegativity():
    for name in ["cube3", "cube4", "cyclic(8,4)"]:
        lat = parse_recipe(name).lattice()
        g = toric_g(lat)
        for k in range(lat.d // 2 + 1):
            value, ok = truncated_inequality(lat, k, 0)
            assert ok and value == g[k], (name, k)


def test_truncated_cube3_k1_s1():
    value, ok = truncated_inequality(CUBE3, 1, 1)
    # reduces to f1 - f0 - (d+1)(d-2)/2 = 12 - 8 - 2 with no g2 term in dim 3
    assert (value, ok) == (2, True)


def test_truncated_simplex_all_small_ks():
    lat = simplex_lattice(4)
    for k in range(4):
        for s in range(6):
            value, ok = truncated_inequality(lat, k, s)
            assert ok, (k, s, value)


def test_truncated_large_s_closes_to_zero():
    # once every face is admitted the strand is the full exact sequence
    for name in ["cube3", "cross4"]:
        lat = parse_recipe(name).lattice()
        for k in range(lat.d // 2 + 1):
            value, ok = truncated_inequality(lat, k, lat.d + 1)
            assert ok and value == 0, (name, k)


def test_truncated_nonnegative_on_sample():
    for name in ["cube4", "cross4", "cyclic(7,4)", "pyramid(cube3)", "cube5"]:
        lat = parse_recipe(name).lattice()
        for k in range(lat.d // 2 + 2):
            for s in range(lat.d + 2):
                value, ok = truncated_inequality(lat, k, s)
                assert ok, (name, k, s, value)


def test_invalid_arguments():
    with pytest.raises(ValueError):
        truncated_inequality(CUBE3, -1, 0)
    with pytest.raises(ValueError):
        truncated_inequality(CUBE3, 0, -2)


SCALE = ["cube7", "cross7", "cyclic(12,6)", "prism(cube6)", "bipyramid(cross6)", "cyclic(14,7)"]


@pytest.mark.parametrize(
    "name", [e.name for e in catalog()] + SCALE + ["simplex11", "cyclic(16,8)"]
)
def test_the_weighted_check_refuses_nothing_the_face_count_passes(monkeypatch, name):
    # and the bound it checks holds: per coefficient, each column of a face w
    # other than its own weight is at most M c(w) in absolute value, and all
    # of them sum to at most 2 M c(w), M the largest |m| below w and c(w)
    # its chains, the row sum of its flags
    lat = parse_recipe(name).lattice()
    flags, count, seen = _face_flags(lat), verma_module._count_chains, []

    def checked(px, py, dims, d, blocks, width):
        for e, W in enumerate(count(px, py, dims, d, blocks, width), -1):
            if e >= 0:
                most = int(np.abs(m[dims < e]).max())
                chains = most * flags[e].sum(axis=1)
                assert (np.abs(W[:, 1:]).max(axis=(1, 2)) <= chains).all(), (name, e)
                assert (np.abs(W[:, 1:]).sum(axis=1).max(axis=1) <= 2 * chains).all(), (name, e)
                seen.append(e)
            yield W

    m = layered_multiplicities(parse_recipe(name).lattice()) if len(lat) < 3000 else None
    if m is not None:
        monkeypatch.setattr(verma_module, "_count_chains", checked)
    solved = _multiplicities(lat)
    assert m is None or (np.array_equal(solved, m) and seen == list(range(lat.d + 1)))


@pytest.mark.parametrize("name", ["cube4", "cyclic(8,5)", "simplex5", "prism(cross3)"])
def test_the_weighted_check_refuses_from_its_bound(monkeypatch, name):
    # width * M * 2^(d + 2) * c(top), M the largest |m| of a face below the top
    want = _multiplicities(parse_recipe(name).lattice())
    lat = parse_recipe(name).lattice()
    d, width = lat.d, want.shape[1]
    chains = int(_face_flags(lat)[d][0].sum())
    bound = int(np.abs(want[lat.dims < d]).max()) * width * chains << (d + 2)
    monkeypatch.setattr(verma_module, "_INT64_LIMIT", bound)
    with pytest.raises(LatticeError, match="int64 bound 2\\^"):
        _multiplicities(lat)
    assert "verma_m" not in lat._cache
    monkeypatch.setattr(verma_module, "_INT64_LIMIT", bound + 1)
    assert np.array_equal(_multiplicities(lat), want)
