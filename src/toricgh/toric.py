"""Toric h/g-polynomials, flag vectors and the identities between them.

The h-polynomial of a polytope P with face lattice L is the mutual
recursion

    h(P, t) = sum over faces F < P of g(F, t) (t-1)^(d - 1 - dim F),
    g_k = h_k - h_{k-1} for 0 <= k <= d/2,

starting from g = h = 1 on the empty polytope.  One engine,
``_chunk_tables``, runs it one dimension layer at a time, in exact
int64 with numpy doing the bulk sums, on the lattice's list of strict
comparable pairs and the triples x < z < y it forms:
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
from math import comb, prod
from typing import NamedTuple

import numpy as np

from toricgh.lattice import _CHUNK, FaceLattice, LatticeError, _run_starts, _triples
from toricgh.polynomial import Polynomial, binomial_power, coefficientwise_geq


def _binom_kernel(k: int) -> np.ndarray:
    # coefficients of (t-1)^k
    return np.array([comb(k, j) * (-1) ** (k - j) for j in range(k + 1)], dtype=np.int64)


@lru_cache(maxsize=None)
def _kernels(width: int):
    """(stacks, keep), truncated at ``width`` coefficients.

    ``stacks[e]`` multiplies the rows S[0], ..., S[e], stacked, by
    (t-1)^e, ..., (t-1)^0 and sums them; ``keep[k + 1]`` masks the
    coefficients g keeps for an interval of dimension k.
    """
    T = np.zeros((width, width, width), dtype=np.int64)
    for k in range(width):
        for j, c in enumerate(_binom_kernel(k)):
            T[k, np.arange(width - j), np.arange(j, width)] = c
    stacks = [np.ascontiguousarray(T[e::-1].reshape(-1, width)) for e in range(width)]
    keep = np.arange(width) <= np.arange(-1, width)[:, None] // 2
    for a in (*stacks, keep):
        a.setflags(write=False)
    return stacks, keep


# ``_guard`` refuses an order whose table entries could pass this bound.
_INT64_LIMIT = 1 << 62


def _guard(px, py, dims, d: int):
    """Refuse an order whose h/g coefficients could leave int64.

    By induction over the recursion, the coefficients of h of [x, y] sum
    in absolute value to at most 2^(dim y - dim x) c(x, y), c(x, y) the
    number of chains from x to y, and those of g to twice that; every
    partial sum in the tables (block sums, kernel products, h_k - h_{k-1})
    is bounded by such a sum.  So every entry stays within 2^(d + 2)
    times the most chains that end at one face.  That count is at most
    the product of (f_e + 1) over the dimensions e; when the product is
    too coarse the chains are counted layer by layer, refusing before a
    count could pass ``_INT64_LIMIT >> (d + 2)``.
    """
    cap = _INT64_LIMIT >> (d + 2)
    if prod(int(f) + 1 for f in np.bincount(dims + 1)) < cap:
        return
    chains = np.ones(len(dims), dtype=np.int64)     # chains ending at each face
    below, layer = np.bincount(py, minlength=len(dims)), dims[py]
    for e in range(d + 1):
        sel = np.flatnonzero(layer == e)
        if sel.size and int(chains.max()) * int(below[py[sel]].max()) >= cap:
            raise LatticeError(
                f"h/g coefficients could exceed the int64 bound 2^{_INT64_LIMIT.bit_length() - 1}"
            )
        np.add.at(chains, py[sel], chains[px[sel]])


def _guarded(lat: FaceLattice) -> FaceLattice:
    """``lat``, once ``_guard`` has passed on it."""
    if "int64_ok" not in lat._cache:
        _guard(*lat.pairs, lat.dims, lat.d)
        lat._cache["int64_ok"] = True
    return lat


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
        n, span = len(lat), lat.d + 2
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
    Rows run by dimension, then by face index.  They are the pair table
    rows of root's run of ``lat.pairs``, in dimensions relative to the
    root, through ``_chunk_tables``.  For the bottom the triples
    bottom < z < y are the other pairs, already in the lattice's block
    order; any other root gathers those of its up-set, the runs of its
    faces z, so its cost follows the interval.  ``_guard`` bounds every
    entry a priori.
    """
    cache = _guarded(lat)._cache.setdefault("interval_tables", {})
    if root in cache:
        return cache[root]
    px, py = lat.pairs
    start = lat._rows()
    run = py[start[root]:start[root + 1]]
    up = np.concatenate(([root], run))              # row 0 stands for [root, root]
    rel = lat.dims[up] - lat.dims[root] - 1
    order = None
    if root == lat.bottom:
        # row f is face f, and the block order sorts the pairs z < y, z
        # nonempty, by (dim z, dim y, y)
        order = np.argsort(rel, kind="stable")
        rank = np.empty_like(order)
        rank[order] = np.arange(len(order))
        blocks = _blocks(lat)
        at = blocks.order[blocks.bounds[blocks.span]:]
        xz, xy = rank[px[at]], rank[py[at]]
    else:
        # the runs of the faces z above root; y's row is its place in root's run
        cnt = start[run + 1] - start[run]
        ends = np.cumsum(cnt)
        zy = np.repeat(start[run] - ends + cnt, cnt) + np.arange(ends[-1] if len(ends) else 0)
        xz, xy = np.repeat(np.arange(1, len(up)), cnt), 1 + np.searchsorted(run, py[zy])
    order, H, G = _chunk_tables(np.full(len(up), -1), rel, xz, xy, int(rel[-1]), order)
    H[0, 0] = G[0, 0] = 1
    cache[root] = (dict(zip(up[order].tolist(), range(len(up)))), H, G)
    return cache[root]


def _chunk_tables(dx, dy, xz, xy, d: int, order=None):
    """h and g of the strict pairs of whole x's, from their triples x < z < y.

    Row r is a pair (x, y) with dim x = dx[r] and dim y = dy[r]; a triple
    names the rows of (x, z) and (x, y), so dim z is dy[xz].  Returns
    (order, H, G), the rows of H/G going by dim y (never by index: the
    index order is only a linear extension) as ``order`` lists them.
    The pass is the recursion over the layers of dim y: h of a layer is
    S[pair] against the stacked (t-1)^(dim y - dim z - 1) kernels, and
    once g of the layer is known it is summed, per pair (x, y), into
    S[(x, y), dim z].  A caller that passes ``order`` gives the triples
    as positions in it, already sorted by (dim z, position of y).
    """
    width, span = max(d + 1, 1), d + 2
    z, y = xz, xy
    if order is None:
        order = np.argsort(dy, kind="stable")
        row = np.empty_like(order)
        row[order] = np.arange(len(order))
        by_z = np.argsort(dy[xz] * len(order) + row[xy])
        z, y = row[xz[by_z]], row[xy[by_z]]
    e_y, x_dims = dy[order], dx[order]
    layers = np.arange(-1, d + 2)
    row_bounds, pair_bounds = np.searchsorted(e_y, layers), np.searchsorted(e_y[z], layers)
    H = np.zeros((len(order), width), dtype=np.int64)
    G = np.zeros_like(H)
    S = np.zeros((len(order), span, width), dtype=np.int64)
    S[np.arange(len(order)), x_dims + 1, 0] = 1       # g(x, x) = 1
    stacks, keep = _kernels(width)
    step = max(1, _CHUNK // width)
    for e in range(max(int(e_y[0]), 0), d + 1):
        a, b = row_bounds[e + 1], row_bounds[e + 2]
        if a < b:
            h = H[a:b] = S[a:b, :e + 1].reshape(b - a, -1) @ stacks[e]
            # g_k = h_k - h_{k-1} up to half of each interval's dimension
            g = G[a:b]
            g[:, 0] = h[:, 0]
            np.subtract(h[:, 1:], h[:, :-1], out=g[:, 1:])
            g *= keep[e - x_dims[a:b]]
        # the triples whose z is in the layer, a piece of about _CHUNK cells at a time
        p, q = pair_bounds[e + 1], pair_bounds[e + 2]
        for p in range(p, q, step):
            ys = y[p:min(p + step, q)]
            first = _run_starts(ys)
            S[ys[first], e + 1] += np.add.reduceat(G[z[p:p + len(ys)]], first)
    return order, H, G


def _pair_tables(px, py, dims, d: int):
    """h and g of every interval [x, y] of a graded order, in one pass.

    Takes the strict pairs x < y in any order and returns (px, py, H, G):
    one row per comparable pair x <= y, the diagonal added and the pairs
    sorted by (x, y), and rows of H/G holding the coefficients of h/g of
    [x, y] as a polytope of dimension dims[y] - dims[x] - 1.  The triples
    come from ``_triples``, whole x's at a time with the block S of
    ``_chunk_tables`` near _CHUNK cells, and each chunk goes through it.  Integer throughout; storage is
    O(comparable pairs * d), and ``_guard`` bounds every coefficient.
    """
    n = len(dims)
    fx, fy = np.concatenate((px, np.arange(n))), np.concatenate((py, np.arange(n)))
    order = np.lexsort((fy, fx))
    fx, fy = fx[order], fy[order]
    strict = fx != fy
    full = np.flatnonzero(strict)       # the rows of the strict pairs among all
    px, py = fx[strict], fy[strict]
    _guard(px, py, dims, d)
    H = np.zeros((len(fx), max(d + 1, 1)), dtype=np.int64)
    G = np.zeros_like(H)
    H[~strict, 0] = G[~strict, 0] = 1
    starts = np.searchsorted(px, np.arange(n + 1))
    for lo, hi, xz, xy in _triples(px, py, starts, row_cost=(d + 2) * (d + 1)):
        order, h, g = _chunk_tables(dims[px[lo:hi]], dims[py[lo:hi]], xz - lo, xy - lo, d)
        H[full[lo + order]], G[full[lo + order]] = h, g
    return fx, fy, H, G


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
        n = len(lat)
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
        first = np.searchsorted(px, np.arange(len(lat)))
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
    _guarded(lat)
    d, dims, n = lat.d, lat.dims, len(lat)
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
        for f in range(1, len(lat) - 1)
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
    """g is fixed by coning and h gains a factor (1+t) under bipyramids (d >= 1)."""
    if lat.d < 0:
        raise LatticeError("needs a nonempty polytope")
    cone_ok = toric_g(lat.pyramid()) == toric_g(lat)
    bipyr_ok = lat.d < 1 or toric_h(lat.bipyramid()) == Polynomial([1, 1]) * toric_h(lat)
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
