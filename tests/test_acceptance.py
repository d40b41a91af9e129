"""Acceptance gate: one test per criterion of the build contract.

Every comparison is exact (integer / rational); the only tolerances are
the wall-clock budgets stated on criteria 1, 3 and 5.  Each test prints
a `criterion NN [PASS|FAIL]` line (visible with `pytest -s`).

The instance set is the full built-in catalog; "geometric" means the
members with coordinates, realized exactly by the double description.
"""

import time
from fractions import Fraction

import pytest

from toricgh.catalog import catalog, parse_recipe
from toricgh.geometry import cone_over, exact_rank
from toricgh.localization import (
    check_generalized_monotonicity,
    classify_faces,
    sample_directions,
    span_pair_direction,
)
from toricgh.polynomial import Polynomial
from toricgh.rigidity import build_framework, rigidity_matrix
from toricgh.shelling import line_shelling, shelling_decomposition
from toricgh.toric import (
    check_dehn_sommerville,
    check_g_cascade,
    check_kalai_identity,
    check_monotonicity_all,
    g1_closed,
    g2_closed,
    toric_g,
    toric_h,
)
from toricgh.verma import check_reciprocity, check_verma_vs_polar, verma_multiplicities

from oracles import central_fan, dense_order, fan_h

ZERO = Polynomial()


@pytest.fixture(scope="module")
def entries():
    return catalog()


@pytest.fixture(scope="module")
def geometric(entries):
    return [e for e in entries if e.has_coordinates() and e.dim >= 1]


def _line(num, desc, ok, detail=""):
    print(f"criterion {num:>2} [{'PASS' if ok else 'FAIL'}] {desc}{detail}")


def test_criterion_01_square_h_and_quadrant_fan():
    t0 = time.monotonic()
    square = parse_recipe("cube2").polytope()
    h = toric_h(square.lattice)
    fh = fan_h(central_fan(square))
    elapsed = time.monotonic() - t0
    ok = h == Polynomial([1, 2, 1]) == fh and elapsed < 1.0
    _line(1, "square h = 1+2t+t^2 = fan h", ok, f" ({elapsed:.2f}s)")
    assert h == Polynomial([1, 2, 1])
    assert fh == h
    assert elapsed < 1.0


def test_criterion_02_prism_shelling_example():
    t0 = time.monotonic()
    prism = parse_recipe("prism(simplex2)").polytope()
    lat = prism.lattice
    assert toric_h(lat) == Polynomial([1, 3, 3, 1])
    sh = line_shelling(prism, direction=(Fraction(3, 4), Fraction(-1, 2), 1))
    sizes = [len(lat.faces[prism.facet_faces[i]]) for i in sh.order]
    locals_ = shelling_decomposition(sh)
    elapsed = time.monotonic() - t0
    ok = (
        sizes[0] == 3
        and sizes[3] == 3
        and [p.to_json() for p in locals_]
        == [[0, 0, 0, 1], [0, 0, 2], [0, 1, 1], [0, 1], [1, 1]]
        and elapsed < 1.0
    )
    _line(2, "prism shelling: triangles 1st/4th, local h list", ok,
          f" ({elapsed:.2f}s)")
    assert ok


def test_criterion_03_dehn_sommerville_catalog(entries):
    t0 = time.monotonic()
    bad = [
        e.name
        for e in entries
        if e.dim >= 0 and not check_dehn_sommerville(e.lattice())
    ]
    elapsed = time.monotonic() - t0
    ok = not bad and elapsed < 30.0
    _line(3, f"h palindromic on {len(entries)} catalog entries", ok,
          f" ({elapsed:.1f}s)")
    assert not bad, bad[:5]
    assert elapsed < 30.0


def test_criterion_04_closed_forms_catalog(entries):
    bad = []
    for e in entries:
        lat = e.lattice()
        if lat.d < 1:
            continue
        g = toric_g(lat)
        if g[1] != g1_closed(lat):
            bad.append((e.name, "g1"))
        if lat.d >= 4 and g[2] != g2_closed(lat):
            bad.append((e.name, "g2"))
    ok = not bad
    _line(4, "g1/g2 closed forms match the recursion on the catalog", ok)
    assert not bad, bad[:5]


def test_criterion_05_rigidity_realizes_g2(geometric):
    t0 = time.monotonic()
    bad = []
    n3 = n4 = 0
    for e in geometric:
        if e.dim not in (3, 4):
            continue
        p = e.polytope()
        fw = build_framework(p)
        mat = rigidity_matrix(fw)
        rank = exact_rank(mat)
        stress = fw.n_edges - rank
        if e.dim == 3:
            n3 += 1
            if stress != 0 or (fw.d * len(fw.points) - rank) != 6:
                bad.append(e.name)
        else:
            n4 += 1
            if stress != toric_g(p.lattice)[2]:
                bad.append(e.name)
    elapsed = time.monotonic() - t0
    ok = not bad and elapsed < 60.0
    _line(5, f"stress dim = g2 on {n4} d=4 entries; rigid on {n3} d=3 entries",
          ok, f" ({elapsed:.1f}s)")
    assert not bad, bad[:5]
    assert elapsed < 60.0


def test_criterion_06_shelling_decompositions(geometric):
    bad = []
    for e in geometric:
        p = e.polytope()
        h = toric_h(p.lattice)
        for seed in range(5):
            try:
                locals_ = shelling_decomposition(line_shelling(p, seed=seed))
            except Exception as exc:  # any failure indicts the entry
                bad.append((e.name, seed, str(exc)))
                break
            if sum(locals_, ZERO) != h or any(
                c < 0 for piece in locals_ for c in piece.coeffs
            ):
                bad.append((e.name, seed, "sum/nonneg"))
                break
    ok = not bad
    _line(6, f"local h sums and nonnegativity, 5 seeds x {len(geometric)} entries", ok)
    assert not bad, bad[:5]


def test_criterion_07_reciprocity_catalog_and_duals(entries):
    bad = []
    for e in entries:
        lat = e.lattice()
        if lat.d < 0:
            continue
        if check_reciprocity(lat) != ZERO:
            bad.append(e.name)
        if check_reciprocity(lat.dual()) != ZERO:
            bad.append(e.name + " (dual)")
    ok = not bad
    _line(7, "reciprocity sum vanishes on catalog lattices and duals", ok)
    assert not bad, bad[:5]


def test_criterion_08_verma_multiplicities(entries):
    square = parse_recipe("cube2").lattice()
    cube3 = parse_recipe("cube3").lattice()
    anchors = (
        verma_multiplicities(square)[square.top] == (1, 1)
        and verma_multiplicities(cube3)[cube3.top] == (1, 2)
    )
    bad = [e.name for e in entries if not check_verma_vs_polar(e.lattice())]
    ok = anchors and not bad
    _line(8, "m_k(cone) = polar g_k on the whole catalog", ok)
    assert anchors
    assert not bad, bad[:5]


def test_criterion_09_kalai_identity(entries):
    bad = []
    for e in entries:
        lat = e.lattice()
        for k in range((lat.d + 2) // 2):
            if not check_kalai_identity(lat, k):
                bad.append((e.name, k))
    # simplicial specialization: vertex sums on cross-polytopes
    for d in range(3, 6):
        lat = parse_recipe(f"cross{d}").lattice()
        g = toric_g(lat)
        for k in range(d // 2):
            lhs = sum(toric_g(lat.quotient(v))[k] for v in lat.faces_of_dim(0))
            if lhs != (d - k + 1) * g[k] + (k + 1) * g[k + 1]:
                bad.append((f"cross{d} vertex-sum", k))
    ok = not bad
    _line(9, "vertex-degree identity, all catalog entries and degrees", ok)
    assert not bad, bad[:5]


def test_criterion_10_monotonicity_and_cascade(entries):
    bad = []
    for e in entries:
        lat = e.lattice()
        if not check_monotonicity_all(lat):
            bad.append((e.name, "monotonicity"))
        if not check_g_cascade(lat):
            bad.append((e.name, "cascade"))
    ok = not bad
    _line(10, "coefficientwise monotonicity on all faces; g-cascade", ok)
    assert not bad, bad[:5]


def test_criterion_11_localization_inequality(geometric):
    square_cone = cone_over(parse_recipe("cube2").polytope())
    lat = square_cone.lattice
    v = span_pair_direction(square_cone, lat.index_of({0, 1}), lat.index_of({2, 3}))
    lhs, rhs, ok0 = check_generalized_monotonicity(square_cone, v)
    anchors = (lhs, rhs, ok0) == (2, 2, True)
    bad = []
    for e in geometric:
        cone = cone_over(e.polytope())
        for v in sample_directions(cone, seed=17, grid=4):
            l, r, ok = check_generalized_monotonicity(cone, v)
            if not ok:
                bad.append((e.name, tuple(map(str, v)), l, r))
    ok = anchors and not bad
    _line(11, "g(sigma,1) lower bound over sampled directions, all cones", ok)
    assert anchors
    assert not bad, bad[:3]


def test_criterion_12_front_back_property_gate(geometric):
    import numpy as np

    bad = []
    sampled = [e for e in geometric if e.dim <= 4] + [
        e for e in geometric if e.dim == 5
    ][:2]
    for e in sampled:
        cone = cone_over(e.polytope())
        lat = cone.lattice
        leq = dense_order(lat)
        n = len(lat.faces)
        for v in sample_directions(cone, seed=23, grid=3):
            dec = classify_faces(cone, v)
            neg = tuple(-x for x in v)
            dec_neg = classify_faces(cone, neg)
            if dec.front != dec_neg.back or dec.back != dec_neg.front:
                bad.append((e.name, "v/-v symmetry"))
                continue
            for cls in (dec.back, dec.front, dec.fixed):
                idx = sorted(cls)
                if idx and not set(np.nonzero(leq[idx].any(axis=0))[0]) <= cls:
                    bad.append((e.name, "coface closure"))
            plus = sorted(set(dec.front) - set(dec.fixed))
            closure = (
                set(np.nonzero(leq[:, plus].any(axis=1))[0]) if plus else set()
            )
            if closure != set(range(n)) - set(dec.back):
                bad.append((e.name, "front subfan complement"))
                continue
            for f in closure:
                rays = cone.face_rays(f)
                if rays and exact_rank(rays + [list(v)]) != exact_rank(rays) + 1:
                    bad.append((e.name, "projection injectivity"))
                    break
    ok = not bad
    _line(12, f"front/back invariants (1)-(4) on {len(sampled)} cones", ok)
    assert not bad, bad[:5]
