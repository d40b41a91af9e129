"""Toric h/g-polynomials, flag vectors and the identities between them.

The h-polynomial of a polytope P with face lattice L is the mutual
recursion

    h(P, t) = sum over faces F < P of g(F, t) (t-1)^(d - 1 - dim F),
    g_k = h_k - h_{k-1} for 0 <= k <= d/2,

starting from g = h = 1 on the empty polytope.  Two engines run it one
dimension layer at a time, in exact int64 with numpy doing the bulk
sums, and both read only the lattice's list of strict comparable pairs:
``_interval_tables`` for the intervals [root, x] over one root (P and
its faces from the bottom, one quotient from a face), and
``_pair_tables`` for every interval [x, y] at once, and on the reversed
order for every polar.  The rest of the module is arithmetic on those
tables: closed forms for g1/g2, the extended g-tilde numbers, and
executable checks of Dehn-Sommerville, monotonicity, the upper bound
inequality, the vertex identity relating g_k and g_{k+1}, and the
cone/bipyramid identities.
"""

from __future__ import annotations

from functools import lru_cache
from math import comb
from typing import NamedTuple

import numpy as np

from toricgh.lattice import FaceLattice, LatticeError
from toricgh.polynomial import Polynomial, binomial_power, coefficientwise_geq


def _binom_kernel(k: int) -> np.ndarray:
    # coefficients of (t-1)^k
    return np.array([comb(k, j) * (-1) ** (k - j) for j in range(k + 1)], dtype=np.int64)


@lru_cache(maxsize=None)
def _kernels(width: int) -> np.ndarray:
    """T[k] multiplies a coefficient row by (t-1)^k, truncated at ``width``."""
    T = np.zeros((width, width, width), dtype=np.int64)
    for k in range(width):
        for j, c in enumerate(_binom_kernel(k)):
            T[k, np.arange(width - j), np.arange(j, width)] = c
    T.setflags(write=False)
    return T


class _Blocks(NamedTuple):
    order: np.ndarray   # the rows of lat.pairs sorted by (dim x, dim y, y)
    bounds: np.ndarray  # where each (dim x, dim y) block starts in ``order``
    span: int           # d + 2 dimensions, -1 to d

    def rows(self, a: int, b: int) -> np.ndarray:
        """The rows of lat.pairs with dim x = a and dim y = b, by y."""
        k = (a + 1) * self.span + b + 1
        return self.order[self.bounds[k]:self.bounds[k + 1]]


def _blocks(lat: FaceLattice) -> _Blocks:
    """The strict pairs grouped by (dim x, dim y), each block sorted by y; built once per lattice."""
    blocks = lat._cache.get("blocks")
    if blocks is None:
        px, py = lat.pairs
        n, span = len(lat.faces), lat.d + 2
        block = (lat.dims[px] + 1) * span + lat.dims[py] + 1
        order = np.argsort(block * n + py)
        bounds = np.searchsorted(block[order], np.arange(span * span + 1))
        blocks = lat._cache["blocks"] = _Blocks(order, bounds, span)
    return blocks


def _interval_tables(lat: FaceLattice, root: int):
    """h/g coefficient tables for every face x >= root, re-graded at root.

    Returns (pos, H, G): ``pos`` maps a face index of ``lat`` to its row,
    and row i of H/G holds the coefficients of h/g of the interval
    [root, x] viewed as a polytope of dimension dims[x] - dims[root] - 1.
    Rows run by dimension, then by face index.

    The pass is the recursion over the pairs root <= z < y: once the g
    of a layer of z is known it is summed, per y, into S[y, layer], and
    h of a layer of y is then S[y] against the (t-1)^(dim y - dim z - 1)
    kernels.  The bottom reads every pair in the lattice's block order,
    which already groups them by dim z and, within, by the row of y; any
    other root gathers the pairs of its up-set (the pairs of each z are
    one run of ``lat.pairs``, sorted by x) and sorts only those, so its
    cost follows the interval.
    """
    cache = lat._cache.setdefault("interval_tables", {})
    if root in cache:
        return cache[root]

    px, py = lat.pairs
    dims = lat.dims
    if root == lat.bottom:
        sel = np.argsort(dims, kind="stable")
        row = np.empty_like(sel)
        row[sel] = np.arange(len(sel))
        by_block = _blocks(lat).order
        z, y = row[px[by_block]], row[py[by_block]]
        rel = dims[sel]
    else:
        lo, hi = np.searchsorted(px, [root, root + 1])
        up = np.r_[root, py[lo:hi]]
        order = np.argsort(dims[up], kind="stable")
        sel = up[order]
        row = np.empty_like(order)
        row[order] = np.arange(len(up))
        rel = dims[sel] - dims[root] - 1
        # every pair (z, y) with root <= z: the rows of the z in the up-set
        start = np.searchsorted(px, sel)
        cnt = np.searchsorted(px, sel + 1) - start
        ends = np.cumsum(cnt)
        at = np.repeat(start - (ends - cnt), cnt) + np.arange(ends[-1])
        z = np.repeat(np.arange(len(sel)), cnt)
        y = row[np.searchsorted(up, py[at])]
        by_y = np.argsort(rel[z] * len(sel) + y)
        z, y = z[by_y], y[by_y]

    m, top = len(sel), int(rel[-1])
    width = max(top + 1, 1)
    H = np.zeros((m, width), dtype=np.int64)
    G = np.zeros_like(H)
    H[0, 0] = G[0, 0] = 1
    # S[y, e + 1] sums g(root, z) over the z < y of relative dimension e
    S = np.zeros((m, top + 1, width), dtype=np.int64)
    layers = np.arange(-1, top + 2)
    row_bounds = np.searchsorted(rel, layers)
    pair_bounds = np.searchsorted(rel[z], layers)
    T = _kernels(width)
    for e in range(-1, top + 1):
        a, b = row_bounds[e + 1], row_bounds[e + 2]
        if e >= 0:
            h = S[a:b, :e + 1].reshape(b - a, -1) @ T[e::-1].reshape(-1, width)
            H[a:b] = h
            # g_k = h_k - h_{k-1} up to half of the layer's dimension
            G[a:b, 0] = h[:, 0]
            G[a:b, 1:e // 2 + 1] = h[:, 1:e // 2 + 1] - h[:, :e // 2]
        p, q = pair_bounds[e + 1], pair_bounds[e + 2]
        if p < q:
            ys = y[p:q]
            first = np.flatnonzero(np.r_[True, ys[1:] != ys[:-1]])
            S[ys[first], e + 1] = np.add.reduceat(G[z[p:q]], first)

    pos = dict(zip(sel.tolist(), range(m)))
    cache[root] = (pos, H, G)
    return cache[root]


def _pair_tables(px, py, dims, d: int):
    """h and g of every interval [x, y] of a graded order, in one pass.

    Takes the strict pairs x < y in any order and returns (px, py, H, G):
    one row per comparable pair x <= y, the diagonal added and the pairs
    sorted by (x, y), and rows of H/G holding the coefficients of h/g of
    [x, y] as a polytope of dimension dims[y] - dims[x] - 1.  The pass
    walks the layers of y by dimension (never by index: the index order
    is only a linear extension).  For each layer of z below it sums
    g(x, z) over the triples x <= z < y, then applies the
    (t-1)^(dim y - dim z - 1) kernel.  Integer throughout; storage is
    O(comparable pairs * d).
    """
    n = len(dims)
    px, py = np.r_[px, np.arange(n)], np.r_[py, np.arange(n)]
    order = np.lexsort((py, px))
    px, py = px[order], py[order]
    keys = px * n + py
    width = max(d + 1, 1)
    H = np.zeros((len(px), width), dtype=np.int64)
    G = np.zeros_like(H)
    strict = px != py
    H[~strict, 0] = G[~strict, 0] = 1

    # the pairs (x, z) for a fixed z form one block of the column order
    by_col = np.lexsort((px, py))
    col_count = np.bincount(py, minlength=n)
    col_start = np.cumsum(col_count) - col_count
    dx, dy = dims[px], dims[py]
    grades = np.unique(dims)
    for e_y in grades[1:]:
        in_layer = strict & (dy == e_y)
        for e_z in grades[grades < e_y]:
            zy = np.nonzero(in_layer & (dx == e_z))[0]
            if not len(zy):
                continue
            z, y = px[zy], py[zy]
            cnt = col_count[z]
            ends = np.cumsum(cnt)
            step = np.repeat(col_start[z] - (ends - cnt), cnt)
            src = by_col[step + np.arange(ends[-1])]             # pairs (x, z)
            tgt = np.searchsorted(keys, px[src] * n + np.repeat(y, cnt))
            order = np.argsort(tgt, kind="stable")
            tgt = tgt[order]
            first = np.flatnonzero(np.r_[True, tgt[1:] != tgt[:-1]])
            s = np.add.reduceat(G[src[order]], first, axis=0)
            rows = tgt[first]
            for j, c in enumerate(_binom_kernel(int(e_y - e_z) - 1)):
                if c:
                    H[rows, j:] += c * s[:, : width - j]
        # g_k = h_k - h_{k-1} up to half of each interval's dimension
        rows = np.nonzero(in_layer)[0]
        g = H[rows].copy()
        g[:, 1:] -= H[rows, :-1]
        g *= np.arange(width) <= (e_y - dx[rows] - 1)[:, None] // 2
        G[rows] = g
    return px, py, H, G


class _PairTable(NamedTuple):
    px: np.ndarray
    py: np.ndarray
    G: np.ndarray
    face_h: np.ndarray
    quot_h: np.ndarray
    quot_g: np.ndarray


def _pairs(lat: FaceLattice) -> _PairTable:
    """The pair table of ``lat`` and its columns, built once per lattice.

    Besides (px, py, G) it holds, per face x, the rows of the face
    [bottom, x] (``face_h``) and of the quotient [x, top] (``quot_h``,
    ``quot_g``).  The h row of every pair is not kept: nothing reads it
    past these columns, and it would cost 8 * (d + 1) bytes per pair for
    the life of the lattice.
    """
    table = lat._cache.get("pairs")
    if table is None:
        px, py, H, G = _pair_tables(*lat.pairs, lat.dims, lat.d)
        n = len(lat.faces)
        # bottom <= x for every x opens the table; (x, top) closes block x
        quot = np.cumsum(np.bincount(px, minlength=n)) - 1
        table = lat._cache["pairs"] = _PairTable(
            px, py, G, H[:n].copy(), H[quot], G[quot]
        )
    return table


def _polar_g(lat: FaceLattice) -> np.ndarray:
    """Row f holds g of the polar of face f, from the reversed order.

    The polar of F is the interval [F, bottom] of the order-reversed
    lattice, where F has dimension d - 1 - dim F; (F, bottom) opens the
    block of F in the reversed pair table.
    """
    polar = lat._cache.get("polar_g")
    if polar is None:
        below, above = lat.pairs
        px, _, _, G = _pair_tables(above, below, lat.d - 1 - lat.dims, lat.d)
        first = np.searchsorted(px, np.arange(len(lat.faces)))
        polar = lat._cache["polar_g"] = G[first]
    return polar


def _column(table: np.ndarray, k: int) -> np.ndarray:
    """Coefficient k of every row, zero beyond the table's width."""
    if 0 <= k < table.shape[1]:
        return table[:, k]
    return np.zeros(len(table), dtype=np.int64)


def _row_poly(table, pos, face) -> Polynomial:
    return Polynomial(table[pos[face]].tolist())


def toric_h(lat: FaceLattice) -> Polynomial:
    """h(P, t) of the polytope with face lattice ``lat``."""
    pos, H, _ = _interval_tables(lat, lat.bottom)
    return _row_poly(H, pos, lat.top)


def toric_g(lat: FaceLattice) -> Polynomial:
    """g(P, t), truncated at degree floor(d/2)."""
    pos, _, G = _interval_tables(lat, lat.bottom)
    return _row_poly(G, pos, lat.top)


def face_g(lat: FaceLattice, face: int) -> Polynomial:
    """g of the face as a polytope, straight from the bottom tables."""
    pos, _, G = _interval_tables(lat, lat.bottom)
    return _row_poly(G, pos, face)


def quotient_g(lat: FaceLattice, face: int) -> Polynomial:
    """g of P/face: a pair table lookup, else one table rooted at the face."""
    table = lat._cache.get("pairs")
    if table is not None:
        return Polynomial(table.quot_g[face].tolist())
    pos, _, G = _interval_tables(lat, face)
    return _row_poly(G, pos, lat.top)


def simplicial_h(f: tuple[int, ...], d: int) -> Polynomial:
    """h from the face numbers alone: sum of f_{k-1} (t-1)^(d-k).

    Valid as the h-polynomial only for simplicial polytopes, where it
    agrees with the recursive definition.
    """
    if len(f) != d:
        raise ValueError(f"need {d} face numbers, got {len(f)}")
    out = binomial_power(-1, d)
    for k, fk in enumerate(f):
        out = out + int(fk) * binomial_power(-1, d - 1 - k)
    return out


# -- flag vectors ------------------------------------------------------


class FlagVector(dict):
    """Map from dimension sets S (sorted tuples) to chain counts f_S."""

    def count(self, *dims) -> int:
        return self[tuple(sorted(dims))]

    def to_json(self) -> dict:
        return {",".join(map(str, s)): v for s, v in sorted(self.items())}


def flag_vector(lat: FaceLattice) -> FlagVector:
    """All 2^d flag numbers by chain counting over the comparable pairs.

    ``counts[w]`` is the number of chains with the prefix's dimensions
    that end at face w.  Extending the prefix by a dimension scatter-adds
    these counts along the pairs from its last layer to the new one.
    """
    if "flags" in lat._cache:
        return lat._cache["flags"]
    d, dims, n = lat.d, lat.dims, len(lat.faces)
    px, py = lat.pairs
    blocks = _blocks(lat)
    fv = FlagVector()
    fv[()] = 1

    def extend(prefix, counts, last):
        for nxt in range(last + 1, d):
            sel = blocks.rows(last, nxt)
            carried = counts[px[sel]]
            fv[prefix + (nxt,)] = int(carried.sum())
            nxt_counts = np.zeros(n, dtype=np.int64)
            np.add.at(nxt_counts, py[sel], carried)
            extend(prefix + (nxt,), nxt_counts, nxt)

    for start in range(d):
        counts = (dims == start).astype(np.int64)
        fv[(start,)] = int(counts.sum())
        extend((start,), counts, start)
    lat._cache["flags"] = fv
    return fv


def g1_closed(lat: FaceLattice) -> int:
    """g_1 = f_0 - (d + 1)."""
    if lat.d < 1:
        raise ValueError("g1 needs dimension >= 1")
    return len(lat.faces_of_dim(0)) - (lat.d + 1)


def g2_closed(lat: FaceLattice) -> int:
    """g_2 = f_1 + f_02 - 3 f_2 - d f_0 + C(d+1, 2)."""
    d = lat.d
    if d < 4:
        raise ValueError("g2 needs dimension >= 4")
    fv = flag_vector(lat)
    return (
        fv.count(1)
        + fv.count(0, 2)
        - 3 * fv.count(2)
        - d * fv.count(0)
        + comb(d + 1, 2)
    )


# -- fans --------------------------------------------------------------


def fan_h(fan) -> Polynomial:
    """h-polynomial of a purely d-dimensional fan with known boundary.

    Sums g(cone) (t-1)^(d - dim cone) over cones not in the boundary
    subfan; for a complete fan the boundary is empty and this equals the
    h-polynomial of the underlying polytope, and for the fan of a single
    full-dimensional cone it collapses to g of the base.
    """
    d = fan.dim
    out = Polynomial()
    for c in range(len(fan.cones)):
        if c in fan.boundary:
            continue
        out = out + fan.cone_g(c) * binomial_power(-1, d - fan.cone_dim(c))
    return out


# -- extended g --------------------------------------------------------


def gtilde(lat: FaceLattice, k: int) -> int:
    """h_k - h_{k-1} for arbitrary k >= 0, with out-of-range h = 0.

    Below the middle this is g_k; by palindromicity it equals
    -g_{d-k+1} above the middle and vanishes at k = (d+1)/2 for odd d.
    """
    if k < 0:
        raise ValueError("negative degree")
    h = toric_h(lat)
    return h[k] - h[k - 1] if k else h[0]


# -- checks ------------------------------------------------------------


def check_dehn_sommerville(lat: FaceLattice) -> bool:
    """h_i = h_{d-i} for all i."""
    return toric_h(lat).is_palindromic(lat.d)


def check_monotonicity(lat: FaceLattice, face: int) -> bool:
    """g(P) >= g(F) g(P/F) coefficientwise, for a proper nonempty face."""
    lhs = toric_g(lat)
    rhs = face_g(lat, face) * quotient_g(lat, face)
    return coefficientwise_geq(lhs, rhs)


def check_monotonicity_all(lat: FaceLattice) -> bool:
    """Monotonicity at every proper face, reading one pair table."""
    _pairs(lat)
    return all(
        check_monotonicity(lat, f)
        for f in range(1, len(lat.faces) - 1)
    )


def check_ubt(lat: FaceLattice) -> bool:
    """g_i <= C(f_0 - d + i - 2, i) for 1 <= i <= d/2."""
    g = toric_g(lat)
    f0 = len(lat.faces_of_dim(0))
    d = lat.d
    return all(
        g[i] <= comb(max(f0 - d + i - 2, 0), i)
        for i in range(1, d // 2 + 1)
    )


def check_g_cascade(lat: FaceLattice) -> bool:
    """No zero g-coefficient is followed by a nonzero one."""
    g = toric_g(lat)
    seen_zero = False
    for k in range(lat.d // 2 + 1):
        if g[k] == 0:
            seen_zero = True
        elif seen_zero:
            return False
    return True


def check_kalai_identity(lat: FaceLattice, k: int) -> bool:
    """(k+1) gt_{k+1} + (d-k+1) gt_k = sum_i (i+1) (gt_i * gt_{k-i}).

    The convolution on the right pairs g_i on 2i-dimensional faces with
    gt_{k-i} on the quotients; summands whose quotient invariant would
    live on (-1)-dimensional polytopes are identically zero and are
    skipped.  Holds for every k >= 0.
    """
    d = lat.d
    lhs = (k + 1) * gtilde(lat, k + 1) + (d - k + 1) * gtilde(lat, k)
    return lhs == _kalai_rhs(lat, k)


def _kalai_rhs(lat: FaceLattice, k: int) -> int:
    """sum_i (i+1) sum over 2i-faces F of gt_i(F) gt_{k-i}(P/F), for 2i < d."""
    def gt(H, j):
        return _column(H, j) - _column(H, j - 1) if j else _column(H, 0)

    table = _pairs(lat)
    rhs = 0
    for i in range(min(k, (lat.d - 1) // 2) + 1):
        faces = lat.dims == 2 * i
        left = gt(table.face_h[faces], i).tolist()
        right = gt(table.quot_h[faces], k - i).tolist()
        rhs += (i + 1) * sum(a * b for a, b in zip(left, right))
    return rhs


def check_cone_bipyramid(lat: FaceLattice) -> bool:
    """g is fixed by coning and h gains a factor (1+t) under bipyramids."""
    if lat.d < 0:
        raise LatticeError("needs a nonempty polytope")
    cone_ok = toric_g(lat.pyramid(check=False)) == toric_g(lat)
    bipyr_ok = toric_h(lat.bipyramid(check=False)) == Polynomial([1, 1]) * toric_h(lat)
    return cone_ok and bipyr_ok


def report(lat: FaceLattice) -> dict:
    """CLI-facing bundle: h, g, flags and check verdicts for one lattice."""
    h = toric_h(lat)
    g = toric_g(lat)
    return {
        "dim": lat.d,
        "f_vector": list(lat.f_vector()),
        "h": h.to_json(),
        "g": g.to_json(),
        "flags": flag_vector(lat).to_json() if lat.d >= 0 else {},
        "checks": {
            "dehn_sommerville": check_dehn_sommerville(lat),
            "g_cascade": check_g_cascade(lat),
        },
    }
