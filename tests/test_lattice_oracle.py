"""The face lattice layer against the dense construction it replaced.

``oracles.dense_build`` and ``oracles.dense_from_vertex_facets`` are the
frozenset closure, int64 inclusion product, per-face grading and float64
cover/Eulerian products the library used before it worked on the list
of comparable pairs.  Both sides must agree on the order, the grading,
the covers and every flag number, and on mutated inputs they must raise
the same ``LatticeError`` message or both accept.
"""

import random
import re
from pathlib import Path

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from toricgh.catalog import catalog, parse_recipe
from toricgh.lattice import FaceLattice, LatticeError
from toricgh.toric import flag_vector

from oracles import (
    build,
    covers,
    dense_build,
    dense_covers,
    dense_flag_vector,
    dense_from_vertex_facets,
    dense_order,
    set_closure,
    strict_pairs,
    validated_build,
)

CATALOG = catalog()
SMALL = [e for e in CATALOG if len(e.lattice()) <= 200]
MUTABLE = [e for e in SMALL if e.dim >= 1]
KINDS = ["drop", "union", "vertex"]


def _assert_matches_dense(lat):
    faces, leq, dims = dense_build(lat.faces, lat.n_vertices, check=False)
    assert tuple(faces) == lat.faces
    assert np.array_equal(dense_order(lat), leq) and np.array_equal(lat.dims, dims)
    assert np.array_equal(np.stack(lat.pairs), np.stack(strict_pairs(leq)))
    assert covers(lat) == dense_covers(leq)
    assert flag_vector(lat) == dense_flag_vector(leq, dims)


@pytest.mark.parametrize("name", [e.name for e in CATALOG] + ["cyclic(12,6)"])
def test_order_grading_covers_and_flags_match_dense_oracle(name):
    lat = parse_recipe(name).lattice()
    _assert_matches_dense(lat)
    px, py = lat.pairs
    assert px.dtype == py.dtype == np.int64 and bool((px < py).all())
    strict = dense_order(lat) & ~np.eye(len(lat), dtype=bool)
    assert np.array_equal(np.stack([px, py]), np.array(np.nonzero(strict)))


@settings(max_examples=25, deadline=None)
@given(st.sampled_from(SMALL), st.randoms(use_true_random=False))
def test_relabelled_vertices_match_dense_oracle(entry, rng):
    # a vertex relabelling reorders the faces within each vertex count
    lat = entry.lattice()
    perm = list(range(lat.n_vertices))
    rng.shuffle(perm)
    faces = [frozenset(perm[v] for v in f) for f in lat.faces]
    _assert_matches_dense(validated_build(faces, lat.n_vertices))


def _outcome(build, *args):
    try:
        return "accept", build(*args)
    except LatticeError as e:
        return str(e), None


def _mutate_faces(lat, kind, rng):
    faces, n = list(lat.faces), lat.n_vertices
    for _ in range(rng.randint(1, 3)):
        if kind == "drop":
            faces.pop(rng.randrange(len(faces)))
        elif kind == "union":
            faces.append(rng.choice(faces) | rng.choice(faces))
        else:
            # a new vertex, alone or joined to some faces
            grown = rng.sample(range(len(faces)), rng.randint(0, min(3, len(faces))))
            faces += [faces[i] | {n} for i in grown] + [frozenset({n})] * rng.randint(0, 1)
            n += 1
    return faces, n


def _mutate_facets(lat, kind, rng):
    facets = [lat.faces[i] for i in lat.faces_of_dim(lat.d - 1)]
    n = lat.n_vertices
    if kind == "drop":
        facets.pop(rng.randrange(len(facets)))
    elif kind == "union":
        facets.append(rng.choice(facets) | rng.choice(facets))
    else:
        i = rng.randrange(len(facets))
        facets[i] = facets[i] | {n}
        n += 1
    return facets, n


@settings(max_examples=300, deadline=None)
@given(
    st.sampled_from(MUTABLE),
    st.sampled_from(KINDS),
    st.booleans(),
    st.randoms(use_true_random=False),
)
def test_mutated_lattices_fail_like_dense_oracle(entry, kind, by_facets, rng):
    lat = entry.lattice()
    if by_facets:
        facets, n = _mutate_facets(lat, kind, rng)
        new = _outcome(FaceLattice.from_vertex_facets, n, facets)
        old = _outcome(dense_from_vertex_facets, n, facets)
    else:
        faces, n = _mutate_faces(lat, kind, rng)
        new = _outcome(validated_build, faces, n)
        old = _outcome(dense_build, faces, n)
    assert new[0] == old[0]
    if new[1] is not None:
        faces, leq, dims = old[1]
        assert new[1].faces == tuple(faces)
        assert np.array_equal(dense_order(new[1]), leq) and np.array_equal(new[1].dims, dims)
        assert np.array_equal(np.stack(new[1].pairs), np.stack(strict_pairs(leq)))


def test_unbalanced_interval_message_lists_vertices_ascending():
    # a union of two faces of pyramid(cube4); as a set its vertices iterate
    # as {0, 1, 12, 8}, {8, 1, 12, 0} or {8, 0, 12, 1}, by insertion order
    lat = parse_recipe("pyramid(cube4)").lattice()
    want = "not Eulerian: interval [{}, {0, 1, 8, 12}] is unbalanced"
    for listed in (
        sorted, lambda f: sorted(f, reverse=True), lambda f: sorted(f, key=lambda v: -(v // 8))
    ):
        faces = [listed(f) for f in lat.faces] + [listed({8, 12, 0, 1})]
        assert _outcome(validated_build, faces, lat.n_vertices)[0] == want
        assert _outcome(dense_build, faces, lat.n_vertices)[0] == want


def test_mutations_reach_each_kind_of_rejection():
    # the mutation test above is only as strong as the messages it reaches
    rng = random.Random(7)
    seen = set()
    for _ in range(400):
        lat = rng.choice(SMALL[2:]).lattice()
        kind = rng.choice(["drop", "union", "vertex"])
        if rng.random() < 0.5:
            facets, n = _mutate_facets(lat, kind, rng)
            msg, _ = _outcome(FaceLattice.from_vertex_facets, n, facets)
        else:
            faces, n = _mutate_faces(lat, kind, rng)
            msg, _ = _outcome(validated_build, faces, n)
        seen.add(re.sub(r"\[.*\]", "[...]", msg))
    assert {
        "accept",
        "no unique bottom element",
        "bottom or top element is not unique",
        "poset is not graded",
        "not Eulerian: interval [...] is unbalanced",
        "face contains a non-atom vertex",
        "one facet contains another",
    } <= seen


@pytest.mark.parametrize("faces, n, message", [
    ([(0,), (0, 1)], 2, "missing empty face at the bottom"),
    ([(), (0, 1), (2,), (0, 1, 2)], 3, "an atom is not a single vertex"),
    ([(), (0,), (1,), (0, 1, 2)], 3, "face contains a non-atom vertex"),
])
def test_validation_on_words_fails_like_dense_oracle(faces, n, message):
    # the bottom and atom checks read the packed words; the mutations above
    # reach only the last of these messages
    assert _outcome(validated_build, faces, n)[0] == _outcome(dense_build, faces, n)[0] == message


def _facet_side(lat):
    """Whether from_vertex_facets closes the facets (no more facets than vertices)."""
    return len(lat.faces_of_dim(lat.d - 1)) <= lat.n_vertices


def test_mutations_reach_both_closure_sides():
    # from_vertex_facets closes the facets or the vertex columns, whichever
    # are fewer: the mutation test draws entries of both kinds, and mutated
    # incidences that reach the closure on both sides
    sides = {}
    for e in MUTABLE:
        sides.setdefault(_facet_side(e.lattice()), set()).add(re.match("[a-z]+", e.name)[0])
    assert {"cross", "cyclic"} <= sides[False] and {"cube", "prism"} <= sides[True]
    rng = random.Random(7)
    reached = set()
    for _ in range(200):
        lat = rng.choice(MUTABLE).lattice()
        facets, n = _mutate_facets(lat, rng.choice(KINDS), rng)
        msg, _ = _outcome(FaceLattice.from_vertex_facets, n, facets)
        if msg not in ("one facet contains another", "some vertex lies on no facet"):
            reached.add(len(facets) <= n)
    assert reached == {False, True}


@pytest.mark.parametrize("name", ["cube7", "cross7", "cyclic(12,6)", "cyclic(14,7)"])
def test_both_closure_sides_match_set_closure(name):
    # the frozenset closure of the facets, ordered by build: no n x n product
    lat = parse_recipe(name).lattice()
    facets = [lat.faces[i] for i in lat.faces_of_dim(lat.d - 1)]
    assert _facet_side(lat) == name.startswith("cube")
    ref = build(set_closure(lat.n_vertices, facets), lat.n_vertices)
    assert lat.faces == ref.faces and np.array_equal(lat.dims, ref.dims)
    assert np.array_equal(np.stack(lat.pairs), np.stack(ref.pairs))


def test_no_float_dtype_in_the_package():
    # exact arithmetic: no float arrays, and no bincount weights (they return float64)
    pattern = re.compile(r"float(16|32|64|128)|np\.float|dtype=float|astype\(float|weights=")
    src = Path(__file__).resolve().parents[1] / "src" / "toricgh"
    hits = [
        f"{path.name}:{k}: {line.strip()}"
        for path in sorted(src.glob("*.py"))
        for k, line in enumerate(path.read_text().splitlines(), 1)
        if pattern.search(line)
    ]
    assert hits == []
