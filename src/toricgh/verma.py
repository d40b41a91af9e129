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
"""

from __future__ import annotations

import numpy as np

from toricgh.lattice import FaceLattice
from toricgh.polynomial import Polynomial
from toricgh.toric import _column, _pairs, _polar_g


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


def _trim(row):
    row = list(row)
    while row and row[-1] == 0:
        row.pop()
    return tuple(row) if row else (0,)


def verma_multiplicities(lat: FaceLattice) -> MultiplicityTable:
    """Solve for all m_k(tau) over the cone on ``lat``, apex upward.

    Faces are processed in increasing dimension; each step solves the
    degree-k Euler characteristic equations at one stalk.  The solution
    is asserted integral and nonnegative, and zero beyond the middle
    degree of the face, as the resolution requires.  Once a layer is
    solved, m_y(t) g([y, x], t) is pushed from all of it onto every x > y
    over the pair table.
    """
    n = len(lat)
    width = (lat.d + 1) // 2 + 2
    acc = np.zeros((n, width), dtype=np.int64)
    m = np.zeros((n, width), dtype=np.int64)
    table = MultiplicityTable()
    pairs = _pairs(lat)
    px, py, G = pairs.px, pairs.py, pairs.G
    for e in np.unique(lat.dims):
        cone_dim = int(e) + 1  # the cone over a face of dimension e
        for y in np.nonzero(lat.dims == e)[0].tolist():
            if y == lat.bottom:
                row = (1,)
            else:
                # the stalk equation reads acc + (-1)^cone_dim * m_k = 0
                k_max = (cone_dim - 1) // 2
                sign = 1 if cone_dim % 2 else -1
                row = tuple(int(sign * acc[y, k]) for k in range(k_max + 1))
                if any(acc[y, k] != 0 for k in range(k_max + 1, width)):
                    raise AssertionError(
                        f"multiplicity beyond middle degree at face {y}"
                    )
                if any(v < 0 for v in row):
                    raise AssertionError(f"negative multiplicity at face {y}: {row}")
            table[y] = _trim(row)
            m[y, : len(table[y])] = table[y][:width]

        # push (-1)^(cone dim) * m_y(t) * g([y, x], t) onto every x > y
        sel = np.nonzero((px != py) & (lat.dims[px] == e))[0]
        sign_y = -1 if cone_dim % 2 else 1
        for j in range(width):
            c = sign_y * m[px[sel], j]
            if c.any():
                take = min(G.shape[1], width - j)
                np.add.at(acc[:, j:j + take], py[sel], c[:, None] * G[sel, :take])
    return table


def check_verma_vs_polar(lat: FaceLattice) -> bool:
    """m_k of each cone equals g_k of the polar of its base polytope."""
    table = verma_multiplicities(lat)
    for f in range(len(lat)):
        if table[f] != _trim(polar_g(lat, f).coeffs or (1,)):
            return False
    return True


def polar_g(lat: FaceLattice, face: int) -> Polynomial:
    """g of the polar of the face, from the order-reversed pair table."""
    return Polynomial(_polar_g(lat)[face].tolist())


def check_reciprocity(lat: FaceLattice) -> Polynomial:
    """sum over all faces of (-1)^dim F g(F*, t) g(P/F, t); zero if correct.

    Conventions at the ends: the empty face is its own polar with g = 1,
    P/empty is P, and P/P is the empty polytope.
    """
    if lat.d < 0:
        raise ValueError("reciprocity needs a nonempty polytope")
    signed = np.where(lat.dims % 2 == 0, 1, -1)[:, None] * _polar_g(lat)
    quot = _pairs(lat).quot_g
    # coefficient (i, j) of sum_F sign_F g(F*) g(P/F) lands on t^(i + j)
    prod = (signed.T @ quot).tolist()
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
    dims = lat.dims
    sign = np.where((dims - s + 1) % 2 == 0, 1, -1)
    polar, quot = _polar_g(lat), _pairs(lat).quot_g
    total = 0
    for i in range(k + 1):
        keep = dims <= s + 2 * i - 1
        terms = sign * _column(polar, i) * _column(quot, k - i)
        total += int(terms[keep].sum())
    return total, total >= 0
