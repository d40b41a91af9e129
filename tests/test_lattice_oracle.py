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

from oracles import dense_build, dense_covers, dense_flag_vector, dense_from_vertex_facets

CATALOG = catalog()
SMALL = [e for e in CATALOG if len(e.lattice()) <= 200]


def _assert_matches_dense(lat):
    faces, leq, dims = dense_build(lat.faces, lat.n_vertices, check=False)
    assert tuple(faces) == lat.faces
    assert np.array_equal(lat.leq, leq) and np.array_equal(lat.dims, dims)
    assert [lat.covers_of(i) for i in range(len(faces))] == dense_covers(leq)
    assert flag_vector(lat) == dense_flag_vector(leq, dims)


@pytest.mark.parametrize("name", [e.name for e in CATALOG] + ["cyclic(12,6)"])
def test_order_grading_covers_and_flags_match_dense_oracle(name):
    lat = parse_recipe(name).lattice()
    _assert_matches_dense(lat)
    px, py = lat.pairs
    assert px.dtype == py.dtype == np.int64 and bool((px < py).all())
    strict = lat.leq & ~np.eye(len(lat), dtype=bool)
    assert np.array_equal(np.stack([px, py]), np.array(np.nonzero(strict)))


@settings(max_examples=25, deadline=None)
@given(st.sampled_from(SMALL), st.randoms(use_true_random=False))
def test_relabelled_vertices_match_dense_oracle(entry, rng):
    # a vertex relabelling reorders the faces within each vertex count
    lat = entry.lattice()
    perm = list(range(lat.n_vertices))
    rng.shuffle(perm)
    faces = [frozenset(perm[v] for v in f) for f in lat.faces]
    _assert_matches_dense(FaceLattice.build(faces, lat.n_vertices, check=True))


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
    st.sampled_from([e for e in SMALL if e.dim >= 1]),
    st.sampled_from(["drop", "union", "vertex"]),
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
        new = _outcome(FaceLattice.build, faces, n)
        old = _outcome(dense_build, faces, n)
    assert new[0] == old[0]
    if new[1] is not None:
        faces, leq, dims = old[1]
        assert new[1].faces == tuple(faces)
        assert np.array_equal(new[1].leq, leq) and np.array_equal(new[1].dims, dims)


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
            msg, _ = _outcome(FaceLattice.build, faces, n)
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
