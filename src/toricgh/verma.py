"""Multiplicities from the pure resolution of the apex skyscraper.

Resolving the origin-supported sheaf on a cone by pure sheaves places a
summand with multiplicity m_k(tau) and grading shift k at each face tau,
in homological position dim(tau) - 2k.  Exactness of the reduced stalk
sequence gives one Euler-characteristic equation per face and degree:

    sum over rho <= tau, j <= k of
        (-1)^(dim rho) m_j(rho) g_{k-j}(tau / rho)  =  0,

which determines every m_k(tau) from the values at proper faces (the
apex contributes m = (1,)).  The solved multiplicities coincide with the
g-numbers of the polar polytope, the alternating sum itself is the
g-polynomial reciprocity identity, and truncating the exact sequence
yields sign-alternating inequalities; all three are implemented as
checks here.

A cone over a polytope is identified with the polytope's face lattice:
face F of dimension e stands for the cone of dimension e + 1, the empty
face for the apex.

The faces of one dimension are incomparable, so the solver works a
dimension layer at a time on the pair table: a layer's equations are one
array slice, and its push onto the faces above is one truncated
convolution and one sum per face.  The solution (and the table made
from it) is kept on the lattice, so the polar comparison and the
table's readers solve once.
"""

from __future__ import annotations

import numpy as np

from toricgh.lattice import FaceLattice, _run_starts
from toricgh.polynomial import Polynomial
from toricgh.toric import _blocks, _pairs, _polar_g, _quotient_tables


class MultiplicityTable(dict):
    """Face index -> tuple of multiplicities (m_0, m_1, ...), trimmed."""

    def m(self, face: int, k: int) -> int:
        row = self[face]
        return row[k] if 0 <= k < len(row) else 0

    def to_json(self, lat: FaceLattice) -> dict:
        return {
            "|".join(map(str, sorted(lat.faces[f]))) or "apex": list(row)
            for f, row in sorted(self.items())
        }


def _trimmed(rows: np.ndarray) -> list[tuple[int, ...]]:
    """Each row as a tuple without its trailing zeros; (0,) for a zero row."""
    nonzero = rows != 0
    ends = np.where(nonzero.any(axis=1), rows.shape[1] - np.argmax(nonzero[:, ::-1], axis=1), 1)
    return [tuple(row[:k]) for row, k in zip(rows.tolist(), ends.tolist())]


def _multiplicities(lat: FaceLattice) -> np.ndarray:
    """Row f holds m_0(f), m_1(f), ..., zero-padded; solved once per lattice.

    The faces of one dimension e are incomparable, so the stalk
    equations of a layer read only what the layers below pushed into
    ``acc``: m = (-1)^e acc[layer, :e // 2 + 1], each face checked to be
    nonnegative with nothing beyond its middle degree.  The layer then
    pushes (-1)^(e + 1) m_x(t) g([x, y], t), truncated, from each of its
    faces x onto every y > x: one convolution over its rows of the pair
    table (its block rows, grouped by y) and one sum per y.
    """
    m = lat._cache.get("verma_m")
    if m is not None:
        return m
    n, d, dims = len(lat), lat.d, lat.dims
    width = (d + 1) // 2 + 2
    acc = np.zeros((n, width), dtype=np.int64)
    m = np.zeros_like(acc)
    m[lat.bottom, 0] = 1                            # the apex
    table, blocks = _pairs(lat), _blocks(lat)
    strict_x, G = lat.pairs[0], table.G
    by_dim = np.argsort(dims, kind="stable")
    layers = np.searchsorted(dims[by_dim], np.arange(-1, d + 2))
    for e in range(-1, d + 1):
        if e >= 0:
            layer = by_dim[layers[e + 1]:layers[e + 2]]
            k_max = e // 2
            solved = acc[layer, :k_max + 1] * (1 if e % 2 == 0 else -1)
            beyond = acc[layer, k_max + 1:].any(axis=1)
            bad = beyond | (solved < 0).any(axis=1)
            if bad.any():
                # the first failing face by index; "beyond" before "negative" at one face
                i = int(np.argmax(bad))
                if beyond[i]:
                    raise AssertionError(f"multiplicity beyond middle degree at face {layer[i]}")
                raise AssertionError(
                    f"negative multiplicity at face {layer[i]}: {tuple(solved[i].tolist())}"
                )
            m[layer, :k_max + 1] = solved
        # the strict pairs with dim x = e, by (dim y, y); strict pair k is
        # row k + x + 1 of the pair table, past the x + 1 diagonal rows
        k = blocks.from_dim(e)
        if not len(k):
            continue
        x = strict_x[k]
        g = G[k + x + 1, :width]
        c = m[x, :max(e, 0) // 2 + 1] * (-1 if e % 2 == 0 else 1)
        push = np.zeros((len(k), width), dtype=np.int64)
        for j in range(c.shape[1]):
            take = min(g.shape[1], width - j)
            push[:, j:j + take] += c[:, j, None] * g[:, :take]
        y = lat.pairs[1][k]
        first = _run_starts(y)
        acc[y[first]] += np.add.reduceat(push, first)
    lat._cache["verma_m"] = m
    return m


def verma_multiplicities(lat: FaceLattice) -> MultiplicityTable:
    """Solve for all m_k(tau) over the cone on ``lat``, apex upward.

    The faces are solved a dimension layer at a time from the degree-k
    Euler characteristic equations at their stalks (``_multiplicities``).
    The solution is asserted nonnegative, and zero beyond the middle
    degree of each face, as the resolution requires; a failure names the
    first such face of the lowest failing layer.  The table is built once
    per lattice.
    """
    table = lat._cache.get("verma")
    if table is None:
        table = lat._cache["verma"] = MultiplicityTable(enumerate(_trimmed(_multiplicities(lat))))
    return table


def polar_matches(lat: FaceLattice) -> np.ndarray:
    """Per face tau, whether m(tau) equals g of the polar of its base.

    A polar g that is zero compares as 1, the empty polytope's.
    """
    m, polar = _multiplicities(lat), _polar_g(lat)
    have, want = np.zeros((2, len(lat), max(m.shape[1], polar.shape[1])), dtype=np.int64)
    have[:, :m.shape[1]] = m
    want[:, :polar.shape[1]] = polar
    want[~polar.any(axis=1), 0] = 1
    return (have == want).all(axis=1)


def check_verma_vs_polar(lat: FaceLattice) -> bool:
    """m_k of each cone equals g_k of the polar of its base polytope."""
    return bool(polar_matches(lat).all())


def polar_g(lat: FaceLattice, face: int) -> Polynomial:
    """g of the polar of the face, read off its flag numbers (``toric._polar_g``)."""
    return Polynomial(_polar_g(lat)[face].tolist())


def _signed_sums(lat: FaceLattice) -> np.ndarray:
    """A[e + 1, i, j]: sum over faces F with dim F <= e of (-1)^dim F g_i(F*) g_j(P/F).

    The polars come from ``_polar_g`` and the quotients from
    ``_quotient_tables``, up to column d // 2, beyond which g is zero.
    Each table entry is bounded, but a sum of their products is not:
    when max |g(F*)| * max |g(P/F)| * faces could reach 2^63 the sums
    are taken in Python ints.  Reciprocity reads A[d + 1], and each
    truncated sum one entry per degree.  Built once per lattice.
    """
    sums = lat._cache.get("signed_sums")
    if sums is None:
        k = max(lat.d // 2 + 1, 1)
        polar, quot = _polar_g(lat)[:, :k], _quotient_tables(lat)[1][:, :k]
        if int(np.abs(polar).max()) * int(np.abs(quot).max()) * len(lat) >= 1 << 63:
            polar, quot = polar.astype(object), quot.astype(object)
        layers = []
        for e in range(-1, lat.d + 1):
            faces = lat.dims == e
            layer = polar[faces].T @ quot[faces]
            layers.append(layer if e % 2 == 0 else -layer)
        sums = lat._cache["signed_sums"] = np.cumsum(layers, axis=0)
    return sums


def check_reciprocity(lat: FaceLattice) -> Polynomial:
    """sum over all faces of (-1)^dim F g(F*, t) g(P/F, t); zero if correct.

    Conventions at the ends: the empty face is its own polar with g = 1,
    P/empty is P, and P/P is the empty polytope.
    """
    if lat.d < 0:
        raise ValueError("reciprocity needs a nonempty polytope")
    # coefficient (i, j) of sum_F sign_F g(F*) g(P/F) lands on t^(i + j)
    prod = _signed_sums(lat)[-1].tolist()
    out = [0] * (len(prod) + len(prod[0]) - 1)
    for i, row in enumerate(prod):
        for j, c in enumerate(row):
            out[i + j] += c
    return Polynomial(out)


def truncated_inequality(lat: FaceLattice, k: int, s: int):
    """Partial Euler sum of the degree-k resolution strand; returns (value, ok).

    value = sum over i + j = k and faces F with dim F <= s + 2i - 1 of
    (-1)^(dim F - s + 1) g_i(F*) g_j(P/F); exactness of the strand makes
    it nonnegative.  s = 0 reduces to g_k(P) >= 0.
    """
    if k < 0 or s < 0:
        raise ValueError("k and s must be nonnegative")
    sums = _signed_sums(lat)
    width = sums.shape[1]
    total = 0
    for i in range(max(k - width + 1, 0), min(k + 1, width)):
        top = min(s + 2 * i - 1, lat.d)
        total += int(sums[top + 1, i, k - i])
    total *= (-1) ** (s + 1)
    return total, total >= 0
