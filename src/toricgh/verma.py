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

The stalk equation at tau reads g of the intervals [rho, tau] only
through the weighted sums of their flag numbers, since g is linear in
them.  So one chain count gives every equation: the flag count with each
chain weighted by (-1)^(dim rho + 1) m(rho) at its lowest face rho
(``toric._count_chains`` with a ``width``).  The faces of one dimension
are incomparable, so each layer is solved as soon as the count has
pushed everything below it into its rows, and its weights go into the
count before it pushes.  The solution (and the table made from it) is
kept on the lattice, so the polar comparison and the table's readers
solve once.
"""

from __future__ import annotations

from functools import lru_cache

import numpy as np

from toricgh.lattice import FaceLattice, LatticeError, _memo
from toricgh.polynomial import Polynomial
from toricgh.toric import (
    _INT64_LIMIT,
    _blocks,
    _count_chains,
    _face_flags,
    _flag_coeffs,
    _g_of,
    _polar_g,
    _quotient_tables,
)


class SolveError(AssertionError):
    """A stalk equation whose solution is negative or runs past the middle degree."""

    def __init__(self, message: str, face: int):
        super().__init__(message)
        self.face = face


class MultiplicityTable(dict):
    """Face index -> tuple of multiplicities (m_0, m_1, ...), trimmed."""

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


@lru_cache(maxsize=None)
def _stalk_coeffs(e: int, width: int) -> np.ndarray:
    """Maps the weighted row of a face of dim e, flattened, to its stalk sum.

    Row (S, j) is the column S of the row at coefficient j.  The chains
    from dim a are the columns [2^(a+1) :: 2^(a+2)], and their bits above
    a + 1 are a flag of the interval [rho, tau], of dim e - a - 1: they
    go through ``_g_of(_flag_coeffs(e - a - 1))``, shifted by j and
    truncated at ``width``.  Column 0, the face's own weight, maps to 0.
    """
    K = np.zeros((2 << e, width, width), dtype=np.int64)
    for a in range(-1, e):
        g = _g_of(_flag_coeffs(e - a - 1), e - a - 1)
        for j in range(width):
            take = min(g.shape[1], width - j)
            K[1 << (a + 1)::1 << (a + 2), j, j:j + take] = g[:, :take]
    K = K.reshape(-1, width)
    K.setflags(write=False)
    return K


@_memo("verma_m")
def _multiplicities(lat: FaceLattice) -> np.ndarray:
    """Row f holds m_0(f), m_1(f), ..., zero-padded; solved once per lattice.

    ``_count_chains`` with a ``width`` yields one dimension layer e at a
    time, whole, with column 0 of each row left for its weight.  The
    layer's stalk sums are its rows times ``_stalk_coeffs(e)``: acc =
    sum over rho < tau of (-1)^(dim rho + 1) m(rho) g([rho, tau]),
    truncated at ``width``.  So m = (-1)^e acc[:e // 2 + 1], each face
    checked to be nonnegative with nothing beyond its middle degree
    (``SolveError`` names the first failing face by index), and the
    weights (-1)^(e + 1) m go into column 0 before the layer pushes.

    int64: column S of a face w sums the weights of distinct chains
    u < ... < w that all start at one dimension, and putting the bottom
    first (unless u is the bottom) maps them one to one into the chains
    of [bottom, w].  So each entry, and every partial sum of it, is at
    most M c(w), where M = max |m| over the layers pushed and c(w) <=
    c(top), the chain total that ``_chain_flags`` bounds (the row sums of
    ``_face_flags``).  Over all S the chains from the bottom and the
    others each map so, so a row's entries sum to at most 2 M c(w) in
    absolute value per coefficient, and a stalk sum adds ``width`` such
    sums times |g| <= 2^(e+1).  So before each layer pushes, width M
    2^(d+2) c(top) must stay below ``_INT64_LIMIT``; the solve refuses
    the lattice otherwise.
    """
    d, dims = lat.d, lat.dims
    width = (d + 1) // 2 + 2
    flags = _face_flags(lat)                        # refuses a lattice past int64
    room = width * int(flags[d][0].sum()) << (d + 2) if d >= 0 else 0
    by_dim = np.argsort(dims, kind="stable")        # the faces of each layer, by index
    starts = np.searchsorted(dims[by_dim], np.arange(-1, d + 2)).tolist()
    solved = np.zeros((len(lat), width), dtype=np.int64)   # row i is face by_dim[i]
    solved[0, 0] = most = 1                         # the apex
    for e, W in enumerate(_count_chains(*lat.pairs, dims, d, _blocks(lat), width), -1):
        rows = solved[starts[e + 1]:starts[e + 2]]
        if e >= 0:
            acc = W.reshape(len(W), -1) @ _stalk_coeffs(e, width)
            k = e // 2 + 1
            rows[:, :k] = acc[:, :k] * (-1) ** e
            if acc[:, k:].any() or (rows < 0).any():
                # the first failing face by index; "beyond" before "negative" at one face
                beyond = acc[:, k:].any(axis=1)
                i = int(np.argmax(beyond | (rows < 0).any(axis=1)))
                face = int(by_dim[starts[e + 1] + i])
                if beyond[i]:
                    raise SolveError(f"multiplicity beyond middle degree at face {face}", face)
                row = tuple(rows[i, :k].tolist())
                raise SolveError(f"negative multiplicity at face {face}: {row}", face)
            most = max(most, int(rows.max()))
        W[:, 0] = rows * (-1) ** (e + 1)
        if e < d and most * room >= _INT64_LIMIT:
            raise LatticeError(
                f"multiplicities could exceed the int64 bound 2^{_INT64_LIMIT.bit_length() - 1}"
            )
    m = np.empty_like(solved)
    m[by_dim] = solved
    return m


@_memo("verma")
def verma_multiplicities(lat: FaceLattice) -> MultiplicityTable:
    """Solve for all m_k(tau) over the cone on ``lat``, apex upward.

    The faces are solved a dimension layer at a time from the degree-k
    Euler characteristic equations at their stalks (``_multiplicities``).
    The solution is asserted nonnegative, and zero beyond the middle
    degree of each face, as the resolution requires; a failure raises
    ``SolveError`` at the first such face of the lowest failing layer.
    The table is built once per lattice.
    """
    return MultiplicityTable(enumerate(_trimmed(_multiplicities(lat))))


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


def polar_rows(lat: FaceLattice) -> list[tuple[int, ...]]:
    """``polar_g`` of every face as a trimmed tuple, by face index; a zero g reads (1,)."""
    return [row if any(row) else (1,) for row in _trimmed(_polar_g(lat))]


@_memo("signed_sums")
def _signed_sums(lat: FaceLattice) -> np.ndarray:
    """A[e + 1, i, j]: sum over faces F with dim F <= e of (-1)^dim F g_i(F*) g_j(P/F).

    The polars come from ``_polar_g`` and the quotients from
    ``_quotient_tables``, up to column d // 2, beyond which g is zero.
    Each table entry is bounded, but a sum of their products is not:
    when max |g(F*)| * max |g(P/F)| * faces could reach 2^63 the sums
    are taken in Python ints.  Reciprocity reads A[d + 1], and each
    truncated sum one entry per degree.  Built once per lattice.
    """
    k = max(lat.d // 2 + 1, 1)
    polar, quot = _polar_g(lat)[:, :k], _quotient_tables(lat)[1][:, :k]
    if int(np.abs(polar).max()) * int(np.abs(quot).max()) * len(lat) >= 1 << 63:
        polar, quot = polar.astype(object), quot.astype(object)
    layers = []
    for e in range(-1, lat.d + 1):
        faces = lat.dims == e
        layer = polar[faces].T @ quot[faces]
        layers.append(layer if e % 2 == 0 else -layer)
    return np.cumsum(layers, axis=0)


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
