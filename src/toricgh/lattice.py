"""Graded face lattices of convex polytopes.

A lattice is stored as an indexed family of faces, each held as its
packed vertex words (``words``: one read-only uint64 row per face,
vertex v as bit 63 - v % 64 of word v // 64, the bitset form of Kaibel
and Pfetsch).  The vertex sets (``faces``, frozensets) are unpacked from
the words on first read and cached; the invariants read only the order,
so most lattices never make them.  Faces are sorted by vertex count,
which is a linear extension of the order (face i below face j implies
i <= j) but not always a sort by dimension: in the prism over a
tetrahedron the 4-vertex tetrahedron {0, 1, 2, 3} comes before the
4-vertex square {0, 1, 4, 5}.  Code that needs the dimension layers
reads ``dims``.  Index 0 is the empty face and the last index is the
whole polytope.

The order relation is held once, as ``pairs``: the integer list of
strict comparable pairs x < y, sorted by (x, y), so the pairs of each x
are one run.  It is built straight from the packed words: each face
is tested only against the larger faces that hold its rarest vertex,
read from an inverted vertex index, so the cost follows the comparable
pairs and no n x n array is ever formed.  Grading, validation, covers
and flag counting are integer sums over the pairs and over the triples
x < z < y they form (``_triples``); down-sets and up-sets (``below``,
``above``) are slices of the same list.  ``leq`` is a dense boolean
view kept for outside readers only, built on first access.

There are two constructors.  A lattice made from a facet list
(``from_vertex_facets``) is validated as graded, atomic and Eulerian;
inputs that fail (e.g. an open facet path) cannot be polytope
boundaries.  Derived lattices (pyramid, bipyramid, prism, dual,
intervals) are not rediscovered by inclusion: each operation reads its
words, its strict pairs and its dims off the base lattice's by a rule,
and ``_assemble`` orders the faces as ``_sort`` does, relabels the pairs
into one int64 key array and sorts it once, in place.  They are not
validated.  The empty polytope and the point are literals
(``empty_lattice``, ``point_lattice``); the simplex and the cube are
built from the point by rule.

A vertex-facet incidence (``from_vertex_facets``) is checked on packed
words over the vertices the facets name, and then closed under
intersection on its smaller side: the facets, or, with more facets
than vertices, the vertex columns (the facets through each vertex),
each face's vertices then read off as the columns that hold its facet
set.  Either way the cost follows faces x min(facets, vertices), and
the faces reach the order builder as packed words (``_sorted_words``).

Dimension conventions: dim(empty face) = -1; the one-element lattice is
the empty polytope, which is distinct from a point (two elements).
"""

from __future__ import annotations

from itertools import chain

import numpy as np

# Candidate pairs per chunk of the inclusion test, and triples (or cells
# of the position block) per chunk of the pass over x < z < y: large
# enough for few numpy calls, small enough that the temporaries stay
# near 1 MB each.
_CHUNK = 1 << 17


class LatticeError(ValueError):
    """Input does not describe the boundary of a convex polytope."""


class FaceLattice:
    def __init__(self, words, n_vertices, pairs, dims):
        self.words = words          # packed vertex words, one row per face
        self.n_vertices = n_vertices
        self.pairs = tuple(pairs)   # (px, py): strict pairs px[k] < py[k], sorted by (x, y)
        self.dims = dims
        self.d = int(dims[-1])
        self._cache = {}

    # -- construction -------------------------------------------------

    @staticmethod
    def from_vertex_facets(n_vertices, facets) -> "FaceLattice":
        """Full face lattice from a vertex-facet incidence description.

        Proper faces are all intersections of facet vertex sets; the empty
        face and the top face are adjoined.  The closure is taken on the
        smaller side of the incidence: with more facets than vertices it
        closes the vertex columns (the facets through each vertex) under
        intersection instead, and reads each face's vertices off as the
        vertices whose column holds its facet set.  Once every vertex
        lies on a facet both sides give the same faces.  Rejects
        descriptions whose closure is not a graded Eulerian atomic
        lattice.  Facet containment, vertex range and vertex coverage
        are checked in that order, before the closure.
        """
        if n_vertices < 1:
            raise LatticeError("need at least one vertex")
        facets = [set(f) for f in facets]
        if not facets or any(not f for f in facets):
            raise LatticeError("facets must be nonempty vertex sets")
        # Facets are compared as words over the vertices they name,
        # numbered in order (the identity once range and coverage hold),
        # so the checks keep their order and nothing sized by n_vertices
        # is made before coverage is known.
        named = sorted(set().union(*facets))
        if named[0] != 0 or named[-1] != len(named) - 1:
            number = {v: i for i, v in enumerate(named)}
            facet_sets = [[number[v] for v in f] for f in facets]
        else:
            facet_sets = facets
        sizes, bits, members = _sorted_faces(facet_sets, len(named))
        equal = (bits[1:] == bits[:-1]).all(axis=1).any()     # neighbours once sorted
        if equal or _strict_pairs(sizes, bits, members)[0].size:
            raise LatticeError("one facet contains another")
        if named[0] < 0 or named[-1] >= n_vertices:
            _check_range(facets, n_vertices)
        if len(named) != n_vertices:
            raise LatticeError("some vertex lies on no facet")
        words = _closure(bits, members, n_vertices)
        lat = _from_sorted(*_sorted_words(words), n_vertices)
        lat._validate()
        return lat

    def _validate(self):
        words, dims = self.words, self.dims
        px, py = self.pairs
        n = len(self)
        if words[0].any() or dims[0] != -1:
            raise LatticeError("missing empty face at the bottom")
        if np.count_nonzero(py == n - 1) != n - 1 or np.count_nonzero(px == 0) != n - 1:
            raise LatticeError("bottom or top element is not unique")
        if n == 1:
            return
        # gradedness: every cover step raises the longest-chain height by 1
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
        # atomicity: dim-0 faces hold one vertex each and generate every face
        atoms = words[dims == 0]
        if np.any(_sizes(atoms) != 1):
            raise LatticeError("an atom is not a single vertex")
        if (np.bitwise_or.reduce(words) & ~np.bitwise_or.reduce(atoms)).any():
            raise LatticeError("face contains a non-atom vertex")

    def _intervals(self):
        """Per strict pair x < y: faces strictly between, and sum of (-1)^dim over [x, y].

        One integer pass over the triples x < z < y (``_triples``) counts
        the middles per pair, and those of odd dimension apart.  A pair
        with no middle is a cover; a nonzero sum is an unbalanced
        (non-Eulerian) interval.
        """
        cached = self._cache.get("intervals")
        if cached is not None:
            return cached
        px, py = self.pairs
        odd = self.dims % 2 == 1
        between = np.zeros(len(px), dtype=np.int64)
        odd_between = np.zeros_like(between)
        for lo, hi, xz, xy in _triples(px, py, self._rows()):
            between[lo:hi] += np.bincount(xy - lo, minlength=hi - lo)
            odd_between[lo:hi] += np.bincount(xy[odd[py[xz]]] - lo, minlength=hi - lo)
        sign = np.where(odd, -1, 1)
        balance = between - 2 * odd_between
        balance += sign[px]
        balance += sign[py]
        cached = self._cache["intervals"] = (between, balance)
        return cached

    # -- basic queries -------------------------------------------------

    def __len__(self):
        return len(self.dims)

    def __repr__(self):
        return f"FaceLattice(d={self.d}, faces={len(self)})"

    @property
    def faces(self) -> tuple[frozenset, ...]:
        """Each face's vertex set, unpacked from ``words`` on first read."""
        faces = self._cache.get("faces")
        if faces is None:
            rows, verts = _unpack(self.words)
            flat = verts.tolist()
            ends = np.cumsum(np.bincount(rows, minlength=len(self))).tolist()
            faces = self._cache["faces"] = tuple(frozenset(flat[a:b]) for a, b in zip([0, *ends], ends))
        return faces

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
        return len(self) - 1

    @property
    def bottom(self) -> int:
        return 0

    def f_vector(self) -> tuple[int, ...]:
        """(f_0, ..., f_{d-1}): numbers of proper nonempty faces per dim."""
        return tuple(len(self.faces_of_dim(k)) for k in range(self.d))

    def _rows(self) -> np.ndarray:
        """Row pointers: the run of face x in ``pairs`` is rows[x]:rows[x + 1]."""
        rows = self._cache.get("rows")
        if rows is None:
            rows = self._cache["rows"] = np.searchsorted(self.pairs[0], np.arange(len(self) + 1))
        return rows

    def _columns(self):
        """(by_col, col_start): the pairs sorted by y, and where the run of each y starts."""
        cols = self._cache.get("columns")
        if cols is None:
            by_col = np.argsort(self.pairs[1], kind="stable")
            cols = self._cache["columns"] = (
                by_col, np.searchsorted(self.pairs[1][by_col], np.arange(len(self) + 1))
            )
        return cols

    def above(self, i) -> np.ndarray:
        """The faces strictly above face i, ascending: its run of ``pairs``."""
        rows = self._rows()
        return self.pairs[1][rows[i]:rows[i + 1]]

    def below(self, i) -> np.ndarray:
        """The faces strictly below face i, ascending."""
        by_col, col_start = self._columns()
        return self.pairs[0][by_col[col_start[i]:col_start[i + 1]]]

    @property
    def leq(self) -> np.ndarray:
        """Dense n x n view, ``leq[i, j]`` iff face i lies in face j; nothing in the library reads it."""
        leq = self._cache.get("leq")
        if leq is None:
            leq = np.eye(len(self), dtype=bool)
            leq[self.pairs] = True
            leq.setflags(write=False)
            self._cache["leq"] = leq
        return leq

    def is_simplicial(self) -> bool:
        """Every proper face is a simplex (|vertices| = dim + 1)."""
        return bool(np.all(_sizes(self.words[:-1]) == self.dims[:-1] + 1))

    # -- derived lattices ----------------------------------------------
    #
    # Every operation below reads the words, pairs and dims of its result
    # off this lattice's by a rule and hands them to ``_assemble``: no
    # inclusion test and no grading pass.

    def interval(self, lo: int, hi: int) -> "FaceLattice":
        """The interval [lo, hi] re-graded so lo becomes the empty face.

        ``interval(bottom, F)`` is the face F as a polytope in its own
        right; ``interval(F, top)`` is the quotient polytope whose faces
        are the faces containing F.  Intervals of Eulerian polytope
        lattices are again such; no derived lattice is re-validated.
        The pairs are those of the selected faces' runs that end inside;
        the vertices are the atoms (the faces one above lo).
        """
        up = self.above(lo)
        if lo != hi and hi not in up:
            raise LatticeError("interval endpoints are not comparable")
        sel = np.union1d(np.intersect1d(up, self.below(hi), assume_unique=True), [lo, hi])
        pos = np.full(len(self), -1)
        pos[sel] = np.arange(len(sel))
        start, (px, py) = self._rows(), self.pairs
        run = _spans(start[sel], start[sel + 1])
        x, y = pos[px[run]], pos[py[run]]
        inside = y >= 0
        x, y = x[inside], y[inside]
        dims = self.dims[sel] - self.dims[lo] - 1
        atom = dims == 0
        atoms = np.flatnonzero(atom)
        on = atom[x]
        rows = np.concatenate((y[on], atoms))
        verts = (np.cumsum(atom) - 1)[np.concatenate((x[on], atoms))]
        return _assemble(_pack(rows, verts, len(sel), len(atoms)), dims, [(x, 0, y, 0)], len(atoms))

    def face(self, i: int) -> "FaceLattice":
        """Face i as a polytope of dimension dims[i]."""
        return self.interval(0, i)

    def quotient(self, i: int) -> "FaceLattice":
        """The quotient polytope P/F_i of dimension d - dims[i] - 1."""
        return self.interval(i, self.top)

    def dual(self) -> "FaceLattice":
        """Order-reversed lattice; atoms of the dual are the facets.

        Face i becomes the set of facets holding it, of dimension
        d - 1 - dims[i], and every pair is reversed.
        """
        px, py = self.pairs
        facet = self.dims == self.d - 1
        facets = np.flatnonzero(facet)
        up = facet[py]
        rows = np.concatenate((px[up], facets))
        verts = (np.cumsum(facet) - 1)[np.concatenate((py[up], facets))]
        return _assemble(_pack(rows, verts, len(self), len(facets)),
                         self.d - 1 - self.dims, [(py, 0, px, 0)], len(facets))

    def pyramid(self) -> "FaceLattice":
        """Cone over this polytope: faces are F and F + apex for all F.

        F < G gives (F, G), (F + a, G + a) and (F, G + a); every F lies
        below F + a.
        """
        apex, m = self.n_vertices, len(self)
        base = _place(self.words, _width(apex + 1))
        px, py = self.pairs
        every = np.arange(m)
        return _assemble(
            np.concatenate((base, base | _pack([0], [apex], 1, apex + 1))),
            np.concatenate((self.dims, self.dims + 1)),
            [(px, 0, py, 0), (px, m, py, m), (px, 0, py, m), (every, 0, every, m)],
            apex + 1,
        )

    def bipyramid(self) -> "FaceLattice":
        """Suspension: two apexes over every proper face, plus a new top.

        Over the k proper faces: F < G gives (F, G), and (F + a, G + a)
        and (F, G + a) for each apex a; F lies below F + a, and every
        face below the new top.
        """
        if self.d < 1:   # over a point the top would hold a non-atom vertex
            raise LatticeError("bipyramid needs a polytope of dimension >= 1")
        a1, a2 = self.n_vertices, self.n_vertices + 1
        k = len(self) - 1
        base = _place(self.words, _width(a2 + 1))
        apex1, apex2 = _pack([0], [a1], 1, a2 + 1), _pack([0], [a2], 1, a2 + 1)
        px, py = self.pairs
        proper = py != k
        px, py = px[proper], py[proper]
        every = np.arange(k)
        proper_dims = self.dims[:-1]
        return _assemble(
            np.concatenate((base[:k], base[:k] | apex1, base[:k] | apex2, base[k:] | apex1 | apex2)),
            np.concatenate((proper_dims, proper_dims + 1, proper_dims + 1, [self.d + 1])),
            [(px, 0, py, 0), (px, k, py, k), (px, 2 * k, py, 2 * k), (px, 0, py, k),
             (px, 0, py, 2 * k), (every, 0, every, k), (every, 0, every, 2 * k),
             (np.arange(3 * k), 0, np.full(3 * k, 3 * k), 0)],
            a2 + 1,
        )

    def prism(self) -> "FaceLattice":
        """Product with a segment: bottom copy, top copy and vertical faces.

        The faces are the empty face and (F, s) for the k faces F != {}
        and s in {bottom, top, side}; (F, s) < (G, s') iff F <= G and
        s <= s' (bottom < side, top < side), and the two differ.
        """
        if self.d < 0:
            raise LatticeError("prism over the empty polytope is undefined")
        n, k = self.n_vertices, len(self) - 1
        width = _width(2 * n)
        bits = self.words[1:]
        bottom, top = _place(bits, width), _place(bits, width, n)
        px, py = self.pairs
        px, py = px[k:], py[k:]          # the empty face's run is the first k pairs
        every = np.arange(1, k + 1)
        dims = self.dims[1:]
        return _assemble(
            np.concatenate((np.zeros((1, width), dtype=np.uint64), bottom, top, bottom | top)),
            np.concatenate(([-1], dims, dims, dims + 1)),
            [(px, 0, py, 0), (px, k, py, k), (px, 2 * k, py, 2 * k), (px, 0, py, 2 * k),
             (px, k, py, 2 * k), (every, 0, every, 2 * k), (every, k, every, 2 * k),
             (np.zeros(3 * k, dtype=np.int64), 0, np.arange(1, 3 * k + 1), 0)],
            2 * n,
        )

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
        for key in ("n_vertices", "dim"):
            if not _is_int(data[key]):
                raise LatticeError(f"{key} must be an integer, got {data[key]!r}")
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


def empty_lattice() -> FaceLattice:
    """The empty polytope: the empty face alone, of dimension -1."""
    none = np.zeros(0, dtype=np.int64)
    return _frozen(np.zeros((1, 1), dtype=np.uint64), 0, none, none, np.array([-1], dtype=np.int64))


def point_lattice() -> FaceLattice:
    """The point: the empty face below its one vertex."""
    return _frozen(_pack([1], [0], 2, 1), 1, np.zeros(1, dtype=np.int64),
                   np.ones(1, dtype=np.int64), np.array([-1, 0], dtype=np.int64))


def _sorted_faces(face_sets, n_vertices):
    """(sizes, bits, members) of vertex sets, sorted as ``_sort`` orders them."""
    faces = list(face_sets)
    n = len(faces)
    sizes = np.fromiter(map(len, faces), dtype=np.int64, count=n)
    flat = list(chain.from_iterable(faces))
    if flat and not 0 <= min(flat) <= max(flat) < n_vertices:
        _check_range(faces, n_vertices)
    verts = np.array(flat, dtype=np.int64)
    rows = np.repeat(np.arange(n), sizes)
    return _sort(sizes, _pack(rows, verts, n, n_vertices), (rows, verts))


def _width(n_vertices):
    """Words per face row over ``n_vertices`` vertices."""
    return -(-max(n_vertices, 1) // 64)


def _pack(rows, verts, n, n_vertices):
    """Word rows of n faces from (rows, verts), one entry per vertex of each face.

    Vertex v is bit 63 - v % 64 of word v // 64.
    """
    verts = np.asarray(verts, dtype=np.int64)
    bits = np.zeros((n, _width(n_vertices)), dtype=np.uint64)
    np.bitwise_or.at(bits, (rows, verts // 64), np.uint64(1) << (63 - verts % 64).astype(np.uint64))
    return bits


def _place(bits, width, shift=0):
    """Word rows ``bits`` widened to ``width`` words, each vertex v moved to v + shift."""
    q, r = divmod(shift, 64)
    out = np.zeros((len(bits), width), dtype=np.uint64)
    w = min(bits.shape[1], width - q)
    out[:, q:q + w] = bits[:, :w] >> np.uint64(r)
    if r:       # the low r bits of each word spill into the next
        w = min(bits.shape[1], width - q - 1)
        out[:, q + 1:q + 1 + w] |= bits[:, :w] << np.uint64(64 - r)
    return out


def _unpack(bits):
    """(rows, verts) of word rows, one entry per vertex of each face, both ascending.

    The words are unpacked about _CHUNK bits at a time.
    """
    step = max(1, _CHUNK // (64 * bits.shape[1]))
    rows, verts = [], []
    for a in range(0, len(bits), step):
        r, v = np.nonzero(np.unpackbits(bits[a:a + step].astype(">u8").view(np.uint8), axis=1))
        rows.append(r + a)
        verts.append(v)
    return np.concatenate(rows), np.concatenate(verts)


def _sizes(bits):
    """The vertex count of each word row, summed over its bytes from a 256-entry table."""
    per_byte = np.unpackbits(np.arange(256, dtype=np.uint8)[:, None], axis=1).sum(axis=1, dtype=np.uint8)
    return per_byte[bits.view(np.uint8)].sum(axis=1, dtype=np.int64)


def _sorted_words(bits):
    """(sizes, bits, members) of faces given as word rows, sorted as ``_sort`` orders them."""
    rows, verts = _unpack(bits)
    return _sort(np.bincount(rows, minlength=len(bits)), bits, (rows, verts))


def _sort(sizes, bits, members):
    """(sizes, bits, members) by vertex count, then by sorted vertex list.

    ``bits`` holds one row of uint64 words per face, vertex v as bit
    63 - v % 64 of word v // 64.  Two faces of one count compare at the
    first vertex in which they differ, and the face holding it comes
    first: with vertex 0 as the highest bit that is descending order of
    the words, so one lexsort over them orders the faces, with no
    per-face sort.  ``members`` is (rows, verts), one entry per vertex of
    each face, rows counted in the sorted order.
    """
    rows, verts = members
    order = _face_order(sizes, bits)
    return sizes[order], bits[order], (_ranks(order)[rows], verts)


def _face_order(sizes, bits):
    """The face order: by vertex count, then descending words (see ``_sort``)."""
    return np.lexsort((*(~bits).T[::-1], sizes))


def _ranks(order):
    """The inverse permutation: where each original index lands in ``order``."""
    rank = np.empty_like(order)
    rank[order] = np.arange(len(order))
    return rank


def _closure(bits, members, n_vertices):
    """Word rows of every face of the facets ``bits``, closed on the smaller side.

    With no more facets than vertices the facets' vertex sets are closed
    under intersection, as ints with the words' bit layout.  Otherwise
    the vertex columns are: the facet set of a face is an intersection
    of the columns of its vertices (no facet for the top), and its
    vertices are those whose column holds that set, read for all faces
    in one pass over the words.  A closure costs one AND per face and
    generator, and there are min(facets, vertices) generators.
    """
    m, width = bits.shape
    if m <= n_vertices:
        found = _intersections([int.from_bytes(row.tobytes(), "big") for row in bits.astype(">u8")])
        found.update((0, ((1 << n_vertices) - 1) << (64 * width - n_vertices)))
        words = b"".join(f.to_bytes(8 * width, "big") for f in found)
        return np.frombuffer(words, dtype=">u8").reshape(-1, width).astype(np.uint64)
    rows, verts = members
    through = np.zeros((n_vertices, -(-m // 64) * 64), dtype=bool)
    through[verts, rows] = True
    columns = np.packbits(through, axis=1)
    found = _intersections([int.from_bytes(c.tobytes(), "big") for c in columns])
    found.add(0)
    # the facet sets and the columns are read alike from big-endian bytes,
    # and only AND and NOT act on them, so the word order does not matter
    held = b"".join(f.to_bytes(columns.shape[1], "big") for f in found)
    held = np.frombuffer(held, dtype=np.uint64).reshape(len(found), -1)
    inside = np.zeros((len(found) + 1, 64 * width), dtype=bool)     # row 0 is the empty face
    for v, column in enumerate(columns.view(np.uint64)):
        inside[1:, v] = ~(held & ~column).any(axis=1)
    return np.packbits(inside, axis=1).view(">u8").astype(np.uint64)


def _intersections(gens):
    """Every intersection of one or more of the int bitmasks ``gens``."""
    found, frontier = set(gens), list(set(gens))
    while frontier:
        new = []
        for f in frontier:
            for g in gens:
                h = f & g
                if h not in found:
                    found.add(h)
                    new.append(h)
        frontier = new
    return found


def _from_sorted(sizes, bits, members, n_vertices):
    """The lattice of sorted faces: strict pairs by inclusion, then the grading."""
    n = len(bits)
    if n == 0:
        raise LatticeError("no faces given")
    px, py = _strict_pairs(sizes, bits, members)
    if int(np.searchsorted(px, 1)) != n - 1:
        raise LatticeError("no unique bottom element")
    dims = _grade(sizes, px, py)
    return _frozen(bits, n_vertices, px, py, dims)


def _frozen(bits, n_vertices, px, py, dims):
    """The lattice of sorted faces and their order, its arrays read-only.

    Every lattice is made here: the facet lists through ``_from_sorted``,
    the construction rules through ``_assemble`` and the two literals.
    """
    for a in (bits, px, py, dims):
        a.setflags(write=False)
    return FaceLattice(bits, n_vertices, (px, py), dims)


def _assemble(bits, dims, pairs, n_vertices):
    """The lattice of faces whose order and grading a construction rule gives.

    ``bits`` (the packed words of the faces) and ``dims`` list the
    faces in any labelling, and ``pairs`` holds the strict pairs x < y
    in runs (x, dx, y, dy), each the labels x + dx < y + dy.  The faces
    are ordered as ``_sort`` orders them; the pairs are relabelled into
    one int64 key x * n + y, filled run by run and sorted in place, so no
    pair array is concatenated or copied.
    """
    n = len(bits)
    order = _face_order(_sizes(bits), bits)
    rank = _ranks(order)
    key = np.empty(sum(len(x) for x, _, _, _ in pairs), dtype=np.int64)
    a = 0
    for x, dx, y, dy in pairs:
        run = key[a:a + len(x)]
        np.take(rank[dx:], x, out=run)
        run *= n
        run += rank[dy:][y]
        a += len(x)
    key.sort()
    px = key // n
    py = np.remainder(key, n, out=key)
    return _frozen(bits[order], n_vertices, px, py, dims[order])


def _strict_pairs(sizes, bits, members):
    """Every strict inclusion x < y between the sorted faces, sorted by (x, y).

    The faces containing x are larger and hold its rarest vertex, so the
    candidates for x are that vertex's run of an inverted index (the
    faces holding each vertex, ascending) past the faces of x's size.
    They are tested on the packed words, about _CHUNK at a time, and
    come out in (x, y) order.
    """
    n, (rows, verts) = len(sizes), members
    freq = np.bincount(verts)
    rare = np.full(n, np.iinfo(np.int64).max)
    np.minimum.at(rare, rows, freq[verts] * len(freq) + verts)
    rare %= max(len(freq), 1)
    keys = np.sort(verts * n + rows)        # the faces of each vertex, ascending
    holders = keys % n
    lo = np.searchsorted(keys, rare * n + np.searchsorted(sizes, sizes, "right"))
    cnt = np.where(sizes > 0, np.searchsorted(keys, rare * n + n) - lo, 0)
    xs = np.flatnonzero(cnt)
    ends = np.cumsum(cnt[xs])
    k = n - 1 if sizes[0] == 0 else 0       # the empty face lies below every other
    out = [(np.zeros(k, dtype=np.int64), np.arange(1, k + 1))]
    a = 0
    while a < len(xs):
        base = ends[a] - cnt[xs[a]]
        b = max(a + 1, int(np.searchsorted(ends, base + _CHUNK, "right")))
        x, c = xs[a:b], cnt[xs[a:b]]
        y = holders[np.repeat(lo[x] - (ends[a:b] - c - base), c) + np.arange(ends[b - 1] - base)]
        outside = np.repeat(bits[x, 0], c) & ~bits[y, 0]
        for w in range(1, bits.shape[1]):
            outside |= np.repeat(bits[x, w], c) & ~bits[y, w]
        keep = outside == 0
        out.append((np.repeat(x, c)[keep], y[keep]))
        a = b
    return tuple(np.concatenate(part) for part in zip(*out))


def _spans(starts, ends):
    """The indices of the ranges starts[k]:ends[k], one after the other."""
    cnt = ends - starts
    return np.repeat(starts - np.cumsum(cnt) + cnt, cnt) + np.arange(cnt.sum())


def _run_starts(a):
    """Where each run of equal values in the sorted array ``a`` starts."""
    new = np.empty(len(a), dtype=bool)
    new[:1] = True
    np.not_equal(a[1:], a[:-1], out=new[1:])
    return np.flatnonzero(new)


def _triples(px, py, start, row_cost=0):
    """The triples x < z < y of a strict order, about _CHUNK at a time.

    ``px, py`` are the strict pairs sorted by (x, y), so the pairs of
    each x are one run, from start[x] to start[x + 1].  A chunk covers
    consecutive rows (x, z) and yields (lo, hi, xz, xy): per triple the
    rows of (x, z) and of (x, y), all xy inside the runs [lo, hi) of the
    chunk's x's.  The row of (x, y) is read by row pointers: the runs of
    the chunk's x's are scattered into a position block of at most
    _CHUNK // n rows of n entries, then gathered at (x, y), with no
    search over the keys.  With a ``row_cost`` no x is split between two
    chunks, and a chunk's runs hold at most about _CHUNK // row_cost
    rows (one x at least).
    """
    n = len(start) - 1
    per_row = np.diff(start)[py]       # triples that each row (x, z) opens
    ends = np.cumsum(per_row)
    span = max(1, _CHUNK // max(n, 1))
    block = np.empty((span, n), dtype=np.int64)
    a = 0
    while a < len(px):
        x0 = int(px[a])
        base = ends[a] - per_row[a]
        b = max(a + 1, int(np.searchsorted(ends, base + _CHUNK, "right")))
        b = min(b, int(start[min(x0 + span, n)]))
        if row_cost:
            b = min(b, int(start[np.searchsorted(start, a + _CHUNK // row_cost, "right") - 1]))
            b = int(start[px[max(b, a + 1) - 1] + 1])
        lo, hi = int(start[x0]), int(start[px[b - 1] + 1])
        cnt = per_row[a:b]
        zy = np.repeat(start[py[a:b]] - (ends[a:b] - cnt - base), cnt)
        zy += np.arange(len(zy))
        at = np.repeat((px[a:b] - x0) * n, cnt)
        at += py[zy]
        block[px[lo:hi] - x0, py[lo:hi]] = np.arange(lo, hi)
        xy = block.ravel()[at]
        del zy, at
        yield lo, hi, np.repeat(np.arange(a, b), cnt), xy
        a = b


def _grade(sizes, px, py):
    """Longest-chain heights shifted so the bottom face has dim -1.

    Faces with equal vertex counts are incomparable, so one count class
    at a time takes its heights from the finished classes below it.
    """
    heights = np.zeros(len(sizes), dtype=np.int64)
    order = np.argsort(py, kind="stable")
    cx, cy = px[order], py[order]
    # the pairs whose y opens each count class
    bounds = np.append(np.searchsorted(cy, _run_starts(sizes)), len(cy))
    for a, b in zip(bounds[:-1], bounds[1:]):
        if a == b:
            continue
        ys = cy[a:b]
        first = _run_starts(ys)
        heights[ys[first]] = np.maximum.reduceat(heights[cx[a:b]], first) + 1
    return heights - 1

