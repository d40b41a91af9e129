"""Graded face lattices of convex polytopes.

A lattice is stored as an indexed family of faces, each identified by its
vertex set, together with the full order relation as a read-only numpy
boolean matrix (``leq[i, j]`` iff face i is a face of face j).  Faces are
sorted by vertex count, which is a linear extension of the order
(``leq[i, j]`` implies i <= j) but not always a sort by dimension: in
the prism over a tetrahedron the 4-vertex tetrahedron {0, 1, 2, 3}
comes before the 4-vertex square {0, 1, 4, 5}.  Code that needs the
dimension layers reads ``dims``.  Index 0 is the empty face and the
last index is the whole polytope.  Construction validates that the
poset is graded, atomic and Eulerian; inputs that fail (e.g. an open
facet path) are rejected since they cannot be polytope boundaries.

Dimension conventions: dim(empty face) = -1; the one-element lattice is
the empty polytope, which is distinct from a point (two elements).
"""

from __future__ import annotations

import numpy as np


class LatticeError(ValueError):
    """Input does not describe the boundary of a convex polytope."""


class FaceLattice:
    def __init__(self, faces, n_vertices, leq, dims, check=True):
        self.faces = tuple(faces)
        self.n_vertices = n_vertices
        self.leq = leq
        self.dims = dims
        self.d = int(dims[-1])
        self._cache = {}
        if check:
            self._validate()

    # -- construction -------------------------------------------------

    @staticmethod
    def build(face_sets, n_vertices, check=True) -> "FaceLattice":
        """Create a lattice from a collection of faces given as vertex sets.

        The order relation is set inclusion, which is the face relation
        for every atomic lattice (each face is the join of its vertices).
        The empty face must be a member unless the collection is the
        single-element empty-polytope lattice.
        """
        face_sets = {frozenset(f) for f in face_sets}
        faces = sorted(face_sets, key=lambda f: (len(f), sorted(f)))
        n = len(faces)
        if n == 0:
            raise LatticeError("no faces given")
        # inclusion via intersection-size counts
        inc = np.zeros((n, max(n_vertices, 1)), dtype=np.int64)
        for i, f in enumerate(faces):
            for v in f:
                if not 0 <= v < n_vertices:
                    raise LatticeError(f"vertex index {v} out of range")
                inc[i, v] = 1
        sizes = inc.sum(axis=1)
        common = inc @ inc.T
        leq = common == sizes[:, None]
        dims = _grade(faces, leq)
        leq.setflags(write=False)
        dims.setflags(write=False)
        return FaceLattice(faces, n_vertices, leq, dims, check=check)

    @staticmethod
    def from_vertex_facets(n_vertices, facets, check=True) -> "FaceLattice":
        """Full face lattice from a vertex-facet incidence description.

        Proper faces are all intersections of facet vertex sets; the empty
        face and the top face are adjoined.  Rejects descriptions whose
        closure is not a graded Eulerian atomic lattice.
        """
        if n_vertices < 1:
            raise LatticeError("need at least one vertex")
        facets = [frozenset(f) for f in facets]
        if not facets or any(not f for f in facets):
            raise LatticeError("facets must be nonempty vertex sets")
        for i, f in enumerate(facets):
            for j, g in enumerate(facets):
                if i != j and f <= g:
                    raise LatticeError("one facet contains another")
        top = frozenset(range(n_vertices))
        if frozenset().union(*facets) != top:
            raise LatticeError("some vertex lies on no facet")

        faces = set(facets)
        queue = list(facets)
        while queue:
            f = queue.pop()
            for g in facets:
                h = f & g
                if h not in faces:
                    faces.add(h)
                    queue.append(h)
        faces.add(frozenset())
        faces.add(top)
        return FaceLattice.build(faces, n_vertices, check=check)

    def _validate(self):
        faces, leq, dims = self.faces, self.leq, self.dims
        n = len(faces)
        if faces[0] != frozenset() or dims[0] != -1:
            raise LatticeError("missing empty face at the bottom")
        if int(leq[:, -1].sum()) != n or int(leq[0].sum()) != n:
            raise LatticeError("bottom or top element is not unique")
        if n == 1:
            return
        # gradedness: every cover step raises the longest-chain height by 1
        lt = leq & ~np.eye(n, dtype=bool)
        covers = lt & ~(lt.astype(np.float64) @ lt.astype(np.float64) > 0)
        ci, cj = np.nonzero(covers)
        if np.any(dims[cj] - dims[ci] != 1):
            raise LatticeError("poset is not graded")
        bad = _unbalanced(leq, dims, lt)
        if bad.any():
            i, j = map(int, np.argwhere(bad)[0])
            raise LatticeError(
                f"not Eulerian: interval [{set(self.faces[i]) or '{}'}, "
                f"{set(self.faces[j])}] is unbalanced"
            )
        # atomicity: dim-0 faces are singletons and generate every face
        for i in np.nonzero(dims == 0)[0]:
            if len(faces[i]) != 1:
                raise LatticeError("an atom is not a single vertex")
        atom_of = {next(iter(faces[i])) for i in np.nonzero(dims == 0)[0]}
        for f in faces:
            if not set(f) <= atom_of:
                raise LatticeError("face contains a non-atom vertex")

    # -- basic queries -------------------------------------------------

    def __len__(self):
        return len(self.faces)

    def __repr__(self):
        return f"FaceLattice(d={self.d}, faces={len(self.faces)})"

    def index_of(self, vertex_set) -> int:
        key = frozenset(vertex_set)
        lookup = self._cache.get("lookup")
        if lookup is None:
            lookup = {f: i for i, f in enumerate(self.faces)}
            self._cache["lookup"] = lookup
        if key not in lookup:
            raise KeyError(f"{set(key) or '{}'} is not a face")
        return lookup[key]

    def faces_of_dim(self, k) -> list[int]:
        return [int(i) for i in np.nonzero(self.dims == k)[0]]

    @property
    def top(self) -> int:
        return len(self.faces) - 1

    @property
    def bottom(self) -> int:
        return 0

    def f_vector(self) -> tuple[int, ...]:
        """(f_0, ..., f_{d-1}): numbers of proper nonempty faces per dim."""
        return tuple(len(self.faces_of_dim(k)) for k in range(self.d))

    def covers_of(self, i) -> list[int]:
        cov = self._cache.get("covers")
        if cov is None:
            n = len(self.faces)
            lt = self.leq & ~np.eye(n, dtype=bool)
            two = (lt.astype(np.float64) @ lt.astype(np.float64)) > 0
            cmat = lt & ~two
            cov = [list(map(int, np.nonzero(cmat[k])[0])) for k in range(n)]
            self._cache["covers"] = cov
        return cov[i]

    def is_simplicial(self) -> bool:
        """Every proper face is a simplex (|vertices| = dim + 1)."""
        return all(
            len(self.faces[i]) == self.dims[i] + 1
            for i in range(len(self.faces) - 1)
        )

    # -- derived lattices ----------------------------------------------

    def interval(self, lo: int, hi: int, check=False) -> "FaceLattice":
        """The interval [lo, hi] re-graded so lo becomes the empty face.

        ``interval(bottom, F)`` is the face F as a polytope in its own
        right; ``interval(F, top)`` is the quotient polytope whose faces
        are the faces containing F.  Intervals of Eulerian polytope
        lattices are again such, so validation is off by default.
        """
        if not self.leq[lo, hi]:
            raise LatticeError("interval endpoints are not comparable")
        sel = np.nonzero(self.leq[lo] & self.leq[:, hi])[0]
        atoms = [i for i in sel if self.dims[i] == self.dims[lo] + 1]
        atom_pos = {a: p for p, a in enumerate(atoms)}
        face_sets = []
        for i in sel:
            face_sets.append(
                frozenset(atom_pos[a] for a in atoms if self.leq[a, i])
            )
        return FaceLattice.build(face_sets, len(atoms), check=check)

    def face(self, i: int, check=False) -> "FaceLattice":
        """Face i as a polytope of dimension dims[i]."""
        return self.interval(0, i, check=check)

    def quotient(self, i: int, check=False) -> "FaceLattice":
        """The quotient polytope P/F_i of dimension d - dims[i] - 1."""
        return self.interval(i, self.top, check=check)

    def dual(self, check=False) -> "FaceLattice":
        """Order-reversed lattice; atoms of the dual are the facets."""
        facets = self.faces_of_dim(self.d - 1)
        fpos = {f: p for p, f in enumerate(facets)}
        face_sets = [
            frozenset(fpos[f] for f in facets if self.leq[i, f])
            for i in range(len(self.faces))
        ]
        return FaceLattice.build(face_sets, len(facets), check=check)

    def pyramid(self, check=True) -> "FaceLattice":
        """Cone over this polytope: faces are F and F + apex for all F."""
        apex = self.n_vertices
        sets = set(self.faces)
        sets.update(f | {apex} for f in self.faces)
        return FaceLattice.build(sets, apex + 1, check=check)

    def bipyramid(self, check=True) -> "FaceLattice":
        """Suspension: two apexes over every proper face, plus a new top."""
        a1, a2 = self.n_vertices, self.n_vertices + 1
        proper = self.faces[:-1]
        sets = set(proper)
        sets.update(f | {a1} for f in proper)
        sets.update(f | {a2} for f in proper)
        sets.add(self.faces[-1] | {a1, a2})
        return FaceLattice.build(sets, a2 + 1, check=check)

    def prism(self, check=True) -> "FaceLattice":
        """Product with a segment: bottom copy, top copy and vertical faces."""
        if self.d < 0:
            raise LatticeError("prism over the empty polytope is undefined")
        n = self.n_vertices
        sets = {frozenset()}
        for f in self.faces[1:]:
            fb = frozenset(f)
            ft = frozenset(v + n for v in f)
            sets.add(fb)
            sets.add(ft)
            sets.add(fb | ft)
        return FaceLattice.build(sets, 2 * n, check=check)

    # -- serialization ---------------------------------------------------

    def to_json(self) -> dict:
        """The "lattice/v1" interchange form (vertex-facet description)."""
        return {
            "dim": self.d,
            "n_vertices": self.n_vertices,
            "facets": [sorted(self.faces[i]) for i in self.faces_of_dim(self.d - 1)],
        }

    @staticmethod
    def from_json(data: dict) -> "FaceLattice":
        if not {"dim", "n_vertices", "facets"} <= set(data):
            raise LatticeError("lattice/v1 needs dim, n_vertices, facets")
        lat = FaceLattice.from_vertex_facets(data["n_vertices"], data["facets"])
        if lat.d != data["dim"]:
            raise LatticeError(f"declared dim {data['dim']}, derived {lat.d}")
        return lat


def _grade(faces, leq):
    """Longest-chain heights shifted so the bottom face has dim -1."""
    n = len(faces)
    if int(leq[0].sum()) != n:
        raise LatticeError("no unique bottom element")
    heights = np.full(n, 0, dtype=np.int64)
    for j in range(n):
        below = np.nonzero(leq[:, j])[0]
        below = below[below != j]
        if below.size:
            heights[j] = int(heights[below].max()) + 1
    return heights - 1


def _unbalanced(leq, dims, lt):
    """Pairs F < G whose interval [F, G] is not Eulerian.

    Eulerian means every interval of length >= 1 balances even and odd
    dims, i.e. the sum of (-1)^dim over [F, G] vanishes; one matrix
    product checks all intervals at once.
    """
    z = leq.astype(np.float64)
    signed = z * np.where(dims % 2 == 0, 1.0, -1.0)[None, :]
    p = signed @ z
    return (p != 0) & lt


def is_eulerian(lat: FaceLattice) -> bool:
    """Every interval of length >= 1 has equal even- and odd-dim counts."""
    lt = lat.leq & ~np.eye(len(lat.faces), dtype=bool)
    return not _unbalanced(lat.leq, lat.dims, lt).any()
