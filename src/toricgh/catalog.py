"""Built-in polytope families and the recipe grammar that names them.

Base families: simplex(d), cube(d), cross(d) and cyclic(n, d) with the
standard realizations (unit simplex, 0/1 cube, unit cross-polytope,
moment curve at integer parameters 1..n).  Cyclic facets are generated
by Gale's evenness criterion, block by block, independently of
coordinates.
Composite entries apply pyramid / bipyramid / prism to other entries;
recipes like ``prism(pyramid(cube3))`` compose arbitrarily.

An entry is the one input type of the command line: a recipe, a
polytope/v1 file (vertices, realized when loaded) or a lattice/v1 file
(a lattice, no vertices).  Lattice-level checks run on every entry;
coordinate-level checks (shellings, rigidity, cones) run on the entries
with vertices, realized exactly by the double description method.
"""

from __future__ import annotations

import re
from fractions import Fraction
from itertools import chain, combinations, product

from toricgh.geometry import GeometricPolytope, facet_enumeration
from toricgh.lattice import FaceLattice


class CatalogEntry:
    """A named polytope: a lattice, and vertices when known.

    With no ``make_lattice`` the entry is its vertices alone, and its
    lattice is the realization's.
    """

    def __init__(self, name, make_lattice, make_vertices=None):
        self.name = name
        self._make_lattice = make_lattice
        self._make_vertices = make_vertices
        self._lattice = None
        self._polytope = None

    def lattice(self) -> FaceLattice:
        if self._lattice is None:
            self._lattice = self._make_lattice() if self._make_lattice else self.polytope().lattice
        return self._lattice

    @property
    def dim(self) -> int:
        return self.lattice().d

    def vertices(self):
        return self._make_vertices() if self._make_vertices else None

    def has_coordinates(self) -> bool:
        """Whether ``polytope()`` has vertices to realize; builds nothing."""
        return self._make_vertices is not None

    def polytope(self) -> GeometricPolytope:
        """The exact realization of the entry's vertices."""
        if self._polytope is None:
            if not self.has_coordinates():
                raise ValueError(f"{self.name}: coordinates required")
            self._polytope = facet_enumeration(self.vertices())
        return self._polytope

    def __repr__(self):
        return f"CatalogEntry({self.name!r}, d={self.dim})"


# -- base families -------------------------------------------------------


def empty_lattice():
    return FaceLattice.build([frozenset()], 0)


def point_lattice():
    return FaceLattice.build([frozenset(), frozenset({0})], 1)


def simplex_lattice(d):
    if d == 0:
        return point_lattice()
    verts = range(d + 1)
    return FaceLattice.from_vertex_facets(
        d + 1, [frozenset(s) for s in combinations(verts, d)]
    )


def simplex_vertices(d):
    zero = tuple(Fraction(0) for _ in range(d))
    basis = [
        tuple(Fraction(int(i == j)) for j in range(d)) for i in range(d)
    ]
    return [zero] + basis


def cube_lattice(d):
    facets = []
    for axis in range(d):
        for side in (0, 1):
            facets.append(
                frozenset(
                    v for v in range(2 ** d) if (v >> axis) & 1 == side
                )
            )
    return FaceLattice.from_vertex_facets(2 ** d, facets)


def cube_vertices(d):
    return [tuple(Fraction((v >> a) & 1) for a in range(d)) for v in range(2 ** d)]


def cross_lattice(d):
    # vertex 2i is +e_i, vertex 2i+1 is -e_i; facets pick one sign per axis
    facets = [
        frozenset(2 * i + s for i, s in enumerate(signs))
        for signs in product((0, 1), repeat=d)
    ]
    return FaceLattice.from_vertex_facets(2 * d, facets)


def cross_vertices(d):
    out = []
    for i in range(d):
        for s in (1, -1):
            out.append(tuple(Fraction(s * int(i == j)) for j in range(d)))
    return out


def cyclic_facets(n, d):
    """Facets of the cyclic polytope by Gale's evenness criterion.

    A d-subset S of the n moment-curve points spans a facet exactly when
    every two points outside S are separated by an even number of points
    of S.  So S is a run 0..a-1 at the start, a run n-b..n-1 at the end
    and, apart from both, runs of even length: k = (d - a - b) / 2
    disjoint pairs {p, p+1} inside a+1..n-b-2, placed by choosing k of
    n-a-b-2-k slots.  The facets are listed from these choices and
    returned in the order of ``combinations(range(n), d)``, so the cost
    follows the facet count, not C(n, d).
    """
    facets = []
    for a in range(d + 1):
        for b in range((d - a) % 2, min(d - a, n - 1 - a) + 1, 2):
            k = (d - a - b) // 2
            head, tail = tuple(range(a)), tuple(range(n - b, n))
            for slots in combinations(range(n - a - b - 2 - k), k):
                pairs = chain.from_iterable((a + 1 + s + i, a + 2 + s + i) for i, s in enumerate(slots))
                facets.append(head + tuple(pairs) + tail)
    return [frozenset(s) for s in sorted(facets)]


def cyclic_lattice(n, d):
    if not 2 <= d < n:
        raise ValueError("cyclic polytopes need 2 <= d < n")
    return FaceLattice.from_vertex_facets(n, cyclic_facets(n, d))


def cyclic_vertices(n, d):
    return [tuple(Fraction(t ** j) for j in range(1, d + 1)) for t in range(1, n + 1)]


# -- composite constructions ---------------------------------------------


def pyramid_vertices(base):
    bary = tuple(sum(col) / len(base) for col in zip(*base))
    return [v + (Fraction(0),) for v in base] + [bary + (Fraction(1),)]


def bipyramid_vertices(base):
    bary = tuple(sum(col) / len(base) for col in zip(*base))
    return (
        [v + (Fraction(0),) for v in base]
        + [bary + (Fraction(1),), bary + (Fraction(-1),)]
    )


def prism_vertices(base):
    return [v + (Fraction(0),) for v in base] + [v + (Fraction(1),) for v in base]


_OPS = {
    "pyramid": (FaceLattice.pyramid, pyramid_vertices),
    "bipyramid": (FaceLattice.bipyramid, bipyramid_vertices),
    "prism": (FaceLattice.prism, prism_vertices),
}


def apply_op(op: str, entry: CatalogEntry) -> CatalogEntry:
    lat_op, vert_op = _OPS[op]
    make_vertices = None
    if entry._make_vertices is not None:
        make_vertices = lambda: vert_op(entry.vertices())
    return CatalogEntry(
        f"{op}({entry.name})",
        lambda: lat_op(entry.lattice()),
        make_vertices,
    )


# -- the catalog and the recipe grammar -----------------------------------


def _base_entry(name):
    if name == "empty":
        return CatalogEntry("empty", empty_lattice)
    if name == "point":
        return CatalogEntry("point", point_lattice, lambda: [()])
    if name == "segment":
        return _base_entry("simplex1")
    m = re.fullmatch(r"(simplex|cube|cross)(\d+)", name)
    if m:
        kind, d = m.group(1), int(m.group(2))
        if d < 1 or (kind == "cross" and d < 2):
            raise ValueError(f"{name}: dimension too small")
        maker = {
            "simplex": (simplex_lattice, simplex_vertices),
            "cube": (cube_lattice, cube_vertices),
            "cross": (cross_lattice, cross_vertices),
        }[kind]
        return CatalogEntry(name, lambda: maker[0](d), lambda: maker[1](d))
    return None


def parse_recipe(text: str) -> CatalogEntry:
    """Parse a catalog recipe: name, name<digits>, cyclic(n,d) or op(expr)."""
    tokens = re.findall(r"[a-z]+\d*|\d+|[(),]", text.replace(" ", ""))
    if "".join(tokens) != text.replace(" ", ""):
        raise ValueError(f"cannot tokenize recipe {text!r}")
    pos = 0

    def expect(tok):
        nonlocal pos
        if pos >= len(tokens) or tokens[pos] != tok:
            raise ValueError(f"expected {tok!r} at position {pos} in {text!r}")
        pos += 1

    def number() -> int:
        nonlocal pos
        if pos >= len(tokens) or not tokens[pos].isdigit():
            raise ValueError(f"expected a number at position {pos} in {text!r}")
        pos += 1
        return int(tokens[pos - 1])

    def expr() -> CatalogEntry:
        nonlocal pos
        if pos >= len(tokens):
            raise ValueError(f"unexpected end of recipe {text!r}")
        head = tokens[pos]
        pos += 1
        if head == "cyclic":
            expect("(")
            n = number()
            expect(",")
            d = number()
            expect(")")
            return CatalogEntry(
                f"cyclic({n},{d})",
                lambda: cyclic_lattice(n, d),
                lambda: cyclic_vertices(n, d),
            )
        if head in _OPS:
            expect("(")
            inner = expr()
            expect(")")
            return apply_op(head, inner)
        entry = _base_entry(head)
        if entry is None:
            raise ValueError(f"unknown generator {head!r} in {text!r}")
        return entry

    out = expr()
    if pos != len(tokens):
        raise ValueError(f"trailing input in recipe {text!r}")
    return out


def catalog() -> list[CatalogEntry]:
    """The standard instance set used by the verification suites.

    Base families up to dimension 6 (cyclic with up to 10 vertices) plus
    pyramid / bipyramid / prism composites: every single operation over
    the bases of dimension 2..5 and every two-letter composition over a
    dimension 2-3 core, keeping all results at dimension <= 6.
    """
    names = ["point", "segment"]
    names += [f"simplex{d}" for d in range(2, 7)]
    names += [f"cube{d}" for d in range(2, 7)]
    names += [f"cross{d}" for d in range(3, 7)]
    names += [
        f"cyclic({n},{d})" for d in range(2, 7) for n in range(d + 2, 11)
    ]
    depth1 = (
        [f"simplex{d}" for d in range(2, 6)]
        + [f"cube{d}" for d in range(2, 6)]
        + [f"cross{d}" for d in range(3, 6)]
        + ["cyclic(5,3)", "cyclic(6,4)", "cyclic(7,5)"]
    )
    names += [f"{op}({b})" for op in _OPS for b in depth1]
    depth2 = ["simplex2", "cube2", "simplex3", "cube3", "cross3"]
    names += [
        f"{o1}({o2}({b}))" for o1 in _OPS for o2 in _OPS for b in depth2
    ]
    return [parse_recipe(n) for n in names]
