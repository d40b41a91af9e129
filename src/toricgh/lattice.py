"""Graded face lattices of convex polytopes.

A lattice is stored as an indexed family of faces, each identified by its
vertex set.  Faces are sorted by vertex count, which is a linear
extension of the order (face i below face j implies i <= j) but not
always a sort by dimension: in the prism over a tetrahedron the
4-vertex tetrahedron {0, 1, 2, 3} comes before the 4-vertex square
{0, 1, 4, 5}.  Code that needs the dimension layers reads ``dims``.
Index 0 is the empty face and the last index is the whole polytope.

The order relation is held twice.  ``pairs`` is the integer list of
strict comparable pairs x < y, sorted by (x, y); grading, validation,
covers and flag counting are integer sums over these pairs and over the
triples x < z < y they form.  ``leq`` is a read-only boolean matrix
(``leq[i, j]`` iff face i is a face of face j) for single lookups.
Inclusion itself is tested on packed vertex bitsets.  Construction
validates that the poset is graded, atomic and Eulerian; inputs that
fail (e.g. an open facet path) are rejected since they cannot be
polytope boundaries.

Dimension conventions: dim(empty face) = -1; the one-element lattice is
the empty polytope, which is distinct from a point (two elements).
"""

from __future__ import annotations

from itertools import chain

import numpy as np

# Cells per temporary array in the chunked inclusion test and triples per
# chunk of the pass over x < z < y: large enough for few numpy calls,
# small enough that the temporaries stay near 2 MB each (the dense
# int64 product they replace took 8n² bytes).
_CHUNK = 1 << 18


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
        faces, sizes, bits = _sorted_faces({frozenset(f) for f in face_sets}, n_vertices)
        n = len(faces)
        if n == 0:
            raise LatticeError("no faces given")
        leq = _inclusion(bits)
        if int(leq[0].sum()) != n:
            raise LatticeError("no unique bottom element")
        px, py = _strict(leq)
        dims = _grade(sizes, px, py)
        leq.setflags(write=False)
        dims.setflags(write=False)
        lat = FaceLattice(faces, n_vertices, leq, dims, check=False)
        lat._cache["strict_pairs"] = (px, py)
        if check:
            lat._validate()
        return lat

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
        _check_range(facets, n_vertices)
        # the closure under intersection, on int bitmasks
        masks = [sum(1 << v for v in f) for f in facets]
        top = 0
        for m in masks:
            top |= m
        if top.bit_count() != n_vertices:
            raise LatticeError("some vertex lies on no facet")
        found, frontier = set(masks), set(masks)
        while frontier:
            met = set()
            for f in frontier:
                met |= {f & g for g in masks}
            frontier = met - found
            found |= frontier
        found.update((0, top))
        return FaceLattice.build(map(_vertices, found), n_vertices, check=check)

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
        px, py = self.pairs
        between, balance = self._intervals()
        cover = between == 0
        if np.any(dims[py[cover]] - dims[px[cover]] != 1):
            raise LatticeError("poset is not graded")
        bad = np.flatnonzero(balance)
        if bad.size:
            i, j = int(px[bad[0]]), int(py[bad[0]])
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

    def _intervals(self):
        """Per strict pair x < y: faces strictly between, and sum of (-1)^dim over [x, y].

        One integer pass over the triples x < z < y: for each z it pairs
        every (x, z) with every (z, y) and counts the middles per pair,
        z of even and of odd dimension apart.  A pair with no middle is
        a cover; a nonzero sum is an unbalanced (non-Eulerian) interval.
        """
        cached = self._cache.get("intervals")
        if cached is not None:
            return cached
        px, py = self.pairs
        n, m = len(self.faces), len(px)
        keys = px * n + py
        by_col = np.argsort(py, kind="stable")
        below = np.bincount(py, minlength=n)
        above = np.bincount(px, minlength=n)
        col_start = np.cumsum(below) - below
        row_start = np.cumsum(above) - above
        per_z = below * above
        odd = self.dims % 2 == 1
        counts = np.zeros((2, m), dtype=np.int64)
        for parity in (0, 1):
            z_all = np.flatnonzero(per_z * (odd == parity))
            ends = np.cumsum(per_z[z_all])
            lo = 0
            while lo < len(z_all):
                # whole z's, about _CHUNK triples at a time
                base = ends[lo] - per_z[z_all[lo]]
                hi = max(lo + 1, int(np.searchsorted(ends, base + _CHUNK, "right")))
                cnt = per_z[z_all[lo:hi]]
                z = np.repeat(z_all[lo:hi], cnt)
                k = np.arange(len(z)) - np.repeat(np.cumsum(cnt) - cnt, cnt)
                i, j = np.divmod(k, above[z])
                x = px[by_col[col_start[z] + i]]
                y = py[row_start[z] + j]
                counts[parity] += np.bincount(np.searchsorted(keys, x * n + y), minlength=m)
                lo = hi
        sign = np.where(odd, -1, 1)
        balance = sign[px] + sign[py] + counts[0] - counts[1]
        cached = self._cache["intervals"] = (counts.sum(axis=0), balance)
        return cached

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

    @property
    def pairs(self) -> tuple[np.ndarray, np.ndarray]:
        """(px, py): every strict comparable pair px[k] < py[k], sorted by (x, y)."""
        pairs = self._cache.get("strict_pairs")
        if pairs is None:
            pairs = self._cache["strict_pairs"] = _strict(self.leq)
        return pairs

    def covers_of(self, i) -> list[int]:
        cov = self._cache.get("covers")
        if cov is None:
            px, py = self.pairs
            cover = self._intervals()[0] == 0
            cx, cy = px[cover], py[cover]
            bounds = np.searchsorted(cx, np.arange(len(self.faces) + 1)).tolist()
            cy = cy.tolist()
            cov = [cy[a:b] for a, b in zip(bounds, bounds[1:])]
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
        n, facets = data["n_vertices"], data["facets"]
        if not _is_int(n):
            raise LatticeError(f"n_vertices must be an integer, got {n!r}")
        if not isinstance(facets, list) or not all(
            isinstance(f, list) and all(map(_is_int, f)) for f in facets
        ):
            raise LatticeError("facets must be lists of vertex indices")
        lat = FaceLattice.from_vertex_facets(n, facets)
        if lat.d != data["dim"]:
            raise LatticeError(f"declared dim {data['dim']}, derived {lat.d}")
        return lat


def _is_int(v) -> bool:
    return isinstance(v, int) and not isinstance(v, bool)


def _check_range(faces, n_vertices):
    for f in faces:
        for v in f:
            if not 0 <= v < n_vertices:
                raise LatticeError(f"vertex index {v} out of range")


def _vertices(mask: int) -> frozenset:
    """The vertex set of a bitmask."""
    out = []
    while mask:
        low = mask & -mask
        out.append(low.bit_length() - 1)
        mask ^= low
    return frozenset(out)


def _sorted_faces(face_sets, n_vertices):
    """(faces, sizes, bits): faces by vertex count, then by sorted vertex list.

    ``bits`` holds one row of packed uint64 words per face, bit v set iff
    v is in the face.  Two faces of one count compare at the first
    vertex in which they differ, and the face holding it comes first:
    with vertex 0 as the highest bit that is descending order of the
    masks, so one lexsort over the words orders them, with no per-face
    sort.
    """
    faces = list(face_sets)
    n = len(faces)
    sizes = np.fromiter(map(len, faces), dtype=np.int64, count=n)
    flat = list(chain.from_iterable(faces))
    if flat and not 0 <= min(flat) <= max(flat) < n_vertices:
        _check_range(faces, n_vertices)
    inc = np.zeros((n, 64 * -(-max(n_vertices, 1) // 64)), dtype=bool)
    inc[np.repeat(np.arange(n), sizes), np.array(flat, dtype=np.int64)] = True
    packed = np.packbits(inc, axis=1)       # vertex 0 is the high bit of byte 0
    order = np.lexsort((*(~packed.view(">u8")).T[::-1], sizes))
    return [faces[i] for i in order], sizes[order], packed.view(np.uint64)[order]


def _inclusion(bits):
    """leq[i, j] iff face i's vertices lie in face j's.

    Faces are sorted by vertex count and equal counts are incomparable,
    so only i <= j can hold: each block of columns is tested against the
    rows up to its end, about _CHUNK cells at a time.
    """
    n = len(bits)
    leq = np.zeros((n, n), dtype=bool)
    step = max(1, _CHUNK // n)
    for a in range(0, n, step):
        b = min(n, a + step)
        outside = bits[:b, 0, None] & ~bits[None, a:b, 0]
        for word in range(1, bits.shape[1]):
            outside |= bits[:b, word, None] & ~bits[None, a:b, word]
        leq[:b, a:b] = outside == 0
    return leq


def _strict(leq):
    """The strict pairs of a boolean order matrix, row-major (sorted by (x, y))."""
    px, py = np.nonzero(leq)
    keep = px != py
    return px[keep], py[keep]


def _grade(sizes, px, py):
    """Longest-chain heights shifted so the bottom face has dim -1.

    Faces with equal vertex counts are incomparable, so one count class
    at a time takes its heights from the finished classes below it.
    """
    heights = np.zeros(len(sizes), dtype=np.int64)
    order = np.argsort(py, kind="stable")
    cx, cy = px[order], py[order]
    cls = sizes[cy]
    bounds = np.r_[np.unique(cls, return_index=True)[1], len(cls)]
    for a, b in zip(bounds[:-1], bounds[1:]):
        ys = cy[a:b]
        first = np.flatnonzero(np.r_[True, ys[1:] != ys[:-1]])
        heights[ys[first]] = np.maximum.reduceat(heights[cx[a:b]], first) + 1
    return heights - 1


def is_eulerian(lat: FaceLattice) -> bool:
    """Every interval of length >= 1 has equal even- and odd-dim counts."""
    return not lat._intervals()[1].any()
