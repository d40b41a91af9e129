"""Toric h/g-polynomials, flag vectors and the identities between them.

The h-polynomial of a polytope P with face lattice L is the mutual
recursion

    h(P, t) = sum over faces F < P of g(F, t) (t-1)^(d - 1 - dim F),
    g_k = h_k - h_{k-1} for 0 <= k <= d/2,

starting from g = h = 1 on the empty polytope.  Toric h is linear in
the flag numbers (``_flag_coeffs``), so P, its faces, their polars and
its quotients are read off one chain count, ``_chain_flags``, which
counts the chains below every element of a graded order a dimension
layer at a time and refuses an order whose tables could leave int64.
On the lattice (``_face_flags``) its top row is the flag vector, its
rows give h and g of every face (``_face_tables``), and the same rows
with their dimensions reversed give g of every polar (``_polar_g``).
On the order read top-down, its rows are the polars of the quotients,
so one more count (``_top_down_flags``) gives h and g of every quotient
P/F (``_quotient_tables``), and the same count on one face's up-set
gives g of that quotient alone (``_rooted_g``); both run unchecked once
``_face_flags`` has bounded every interval.  No table of every interval
[x, y] is built: a sum over intervals weighted at their lower ends, as
the Verma solver needs, is the same count with the weights pushed up
the chains (``_count_chains`` with a ``width``).  Each table is built
once per lattice, through ``lattice._memo``.  The rest of the
module is arithmetic on those tables: closed forms for g1/g2, the
extended g-tilde numbers, and executable checks of Dehn-Sommerville,
monotonicity, the upper bound inequality, the vertex identity relating
g_k and g_{k+1}, and the cone/bipyramid identities.
"""

from __future__ import annotations

from functools import lru_cache
from itertools import zip_longest
from math import comb, prod
from typing import NamedTuple

import numpy as np

from toricgh.lattice import _CHUNK, FaceLattice, LatticeError, _memo, _run_starts
from toricgh.polynomial import Polynomial, binomial_power


def _binom_kernel(k: int) -> np.ndarray:
    # coefficients of (t-1)^k
    return np.array([comb(k, j) * (-1) ** (k - j) for j in range(k + 1)], dtype=np.int64)


# ``_chain_flags`` refuses an order whose table entries could pass this bound.
_INT64_LIMIT = 1 << 62


class _Blocks(NamedTuple):
    order: np.ndarray   # the rows of the pairs sorted by (dim x, dim y, y)
    bounds: np.ndarray  # where each (dim x, dim y) block starts in ``order``
    span: int           # d + 2 dimensions, -1 to d

    def from_dim(self, a: int) -> np.ndarray:
        """The rows of the pairs with dim x = a, by (dim y, y)."""
        return self.order[self.bounds[(a + 1) * self.span]:self.bounds[(a + 2) * self.span]]


@_memo("blocks")
def _blocks(lat: FaceLattice) -> _Blocks:
    """The lattice's strict pairs grouped by (dim x, dim y), each block sorted by y; built once."""
    (px, py), dims, n, span = lat.pairs, lat.dims, len(lat), lat.d + 2
    block = (dims[px] + 1) * span + dims[py] + 1
    order = np.argsort(block * n + py)
    return _Blocks(order, np.searchsorted(block[order], np.arange(span * span + 1)), span)


def _top_down_flags(px, py, dims, d: int) -> list[np.ndarray]:
    """``_count_chains`` of a graded order read top-down, unchecked: on the pairs (y, x).

    (px, py) are the pairs sorted by (x, y) and ``dims`` the dimensions
    reversed, the top at -1.  The blocks come from one stable sort of a 1-
    or 2-byte key, the block (dim py, dim px) of the reversed pair, so
    each block stays sorted by px, its upper end there.
    """
    span = d + 2
    key = ((dims[py] + 1) * span + dims[px] + 1).astype(np.min_scalar_type(span * span))
    order = np.argsort(key, kind="stable")
    bounds = np.concatenate(([0], np.cumsum(np.bincount(key, minlength=span * span))))
    return list(_count_chains(py, px, dims, d, _Blocks(order, bounds, span)))


def _g_of(h: np.ndarray, e: int) -> np.ndarray:
    """g of e-dimensional h rows: h_k - h_{k-1}, kept up to k = e/2."""
    k = e // 2 + 1
    g = h[..., :k].copy()
    g[..., 1:] -= h[..., :k - 1]
    return g


def _tables(flags, dims, coeffs, empty: int):
    """(H, G): h and g of every element of a chain count's arrays ``flags``.

    Row i of array e is the i-th element of ``dims`` e by index: its h is
    that flag row times ``coeffs(e)``, and its g the ``_g_of`` of h.
    |h_k| is at most the chains of the row's interval times max |C_e| =
    C(e, floor(e/2)) <= 2^e, so every entry stays inside the bound
    ``_chain_flags`` checks as it counts the flags.  Row ``empty``, the
    empty polytope, is 1.
    """
    H = np.zeros((len(dims), max(len(flags), 1)), dtype=np.int64)
    G = np.zeros_like(H)
    H[empty, 0] = G[empty, 0] = 1
    for e, F in enumerate(flags):
        h = F @ coeffs(e)
        faces = np.flatnonzero(dims == e)
        H[faces, :e + 1], G[faces, :e // 2 + 1] = h, _g_of(h, e)
    return H, G


@_memo("face_tables")
def _face_tables(lat: FaceLattice):
    """(H, G): row f holds h and g of face f as a polytope, [bottom, f].

    h is the face's row of ``_face_flags`` times ``_flag_coeffs(e)``;
    the bottom, the empty polytope, has h = g = 1.  Built once per
    lattice; P itself is the top row.
    """
    return _tables(_face_flags(lat), lat.dims, _flag_coeffs, lat.bottom)


@_memo("polar_g")
def _polar_g(lat: FaceLattice) -> np.ndarray:
    """Row f holds g of the polar of face f, read off its flag numbers.

    The polar of a face w of dimension e is [bottom, w] with the order
    reversed, so f_S(w*) = f_{e-1-S}(w): h(w*) is w's row of
    ``_face_flags`` times ``_polar_coeffs(e)``, ``_flag_coeffs(e)`` with
    its rows bit-reversed (``_tables`` bounds it), and this is the G of
    ``_tables`` over those rows.  The bottom, the empty face, is its own
    polar: row 0 is 1.  Built once per lattice.
    """
    return _tables(_face_flags(lat), lat.dims, _polar_coeffs, lat.bottom)[1]


@_memo("quotient_tables")
def _quotient_tables(lat: FaceLattice):
    """(H, G): row f holds h and g of the quotient P/f, the interval [f, top].

    Read top-down, [f, top] is the polar of P/f, so its flag numbers are
    f's row of the chain count on the reversed order
    (``_top_down_flags``, f of dimension e = d - 1 - dim f), and h(P/f)
    is that row times ``_polar_coeffs(e)``, as the polars are read off
    ``_face_flags``.  The top, whose quotient is the empty polytope, is 1.

    ``_face_flags`` runs first and refuses a lattice past int64, so the
    reversed count runs unchecked.  A chain from x to w becomes one from
    the bottom by putting the bottom first, so c(x, w) <= c(bottom, w):
    the forward count's check bounds the chains of every interval below
    ``_INT64_LIMIT >> (d + 2)``.  The reversed order has the same
    intervals with the same chains, and ``_tables`` bounds h by them, so
    no entry can wrap; a check of its own would only add a coarser
    estimate that can refuse by itself.  Built once per lattice.
    """
    _face_flags(lat)
    dims = lat.d - 1 - lat.dims
    return _tables(_top_down_flags(*lat.pairs, dims, lat.d), dims, _polar_coeffs, lat.top)


def _column(table: np.ndarray, k: int) -> np.ndarray:
    """Coefficient k of every row, zero beyond the table's width."""
    if 0 <= k < table.shape[1]:
        return table[:, k]
    return np.zeros(len(table), dtype=np.int64)


def toric_h(lat: FaceLattice) -> Polynomial:
    """h(P, t) of the polytope with face lattice ``lat``."""
    return Polynomial(_face_tables(lat)[0][lat.top].tolist())


def toric_g(lat: FaceLattice) -> Polynomial:
    """g(P, t), truncated at degree floor(d/2)."""
    return face_g(lat, lat.top)


def face_g(lat: FaceLattice, face: int) -> Polynomial:
    """g of the face as a polytope, straight from the face table."""
    return Polynomial(_face_tables(lat)[1][face].tolist())


def quotient_g(lat: FaceLattice, face: int) -> Polynomial:
    """g of P/face: a quotient table lookup, else the chains of the face's up-set."""
    return Polynomial(_quotient_row(lat, face))


def _quotient_row(lat: FaceLattice, face: int) -> list[int]:
    """g of P/face as an int list; without a quotient table, kept per face in ``"quotients"``."""
    tables = lat._cache.get("quotient_tables")
    if tables is not None:
        return tables[1][face].tolist()
    row = lat._cache.get("quotients", {}).get(face)
    if row is None:
        row = lat._cache.setdefault("quotients", {})[face] = _rooted_g(lat, face)
    return row


def _rooted_g(lat: FaceLattice, root: int) -> list[int]:
    """g of the quotient [root, top]: the count of ``_quotient_tables`` on the root's up-set.

    Read top-down, the up-set (``FaceLattice._pairs_among``) is the polar
    of the quotient, and the root, of dim e = d - 1 - dim root there, is
    its one top face: its row times ``_polar_coeffs(e)`` is h of the
    quotient.  The count runs unchecked after ``_face_flags``, as there,
    so a quotient refuses exactly where the lattice does.
    """
    _face_flags(lat)
    up = np.concatenate(([root], lat.above(root)))
    dims = lat.d - 1 - lat.dims[up]
    e = int(dims[0])
    if e < 0:
        return [1]
    flags = _top_down_flags(*lat._pairs_among(up), dims, e)
    return _g_of(flags[e][0] @ _polar_coeffs(e), e).tolist()


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


def _chain_flags(px, py, dims, d: int, blocks: _Blocks) -> list[np.ndarray]:
    """The flag numbers of every element of a graded order, one int64 array per dimension e.

    ``_count_chains`` counts them; this checks, before each array pushes,
    that no table entry read off them could leave int64.  By induction
    over the recursion, the coefficients of h of [x, y] sum in absolute
    value to at most 2^(dim y - dim x) c(x, y), c(x, y) the chains from x
    to y, and those of g to twice that; every partial sum in the tables is
    bounded by such a sum.  So the count refuses an order where the most
    chains ending at one element, from any element, could reach cap =
    ``_INT64_LIMIT >> (d + 2)``.  The product of (f_e + 1) bounds that;
    when it is too coarse, array a is checked once whole, before it
    pushes.  Its chains number at most 1 + below(w) * ``most``, with
    below(w), the elements under w, 1 plus w's singleton columns (face
    counts, which cannot wrap) and ``most`` twice the largest row sum of
    the arrays checked before.  An array is read only after its own
    check, and an interval [x, top] of an order that passes passes too:
    no more chains, below-counts no larger, a cap no smaller.
    """
    cap = _INT64_LIMIT >> (d + 2)
    layers = _count_chains(px, py, dims, d, blocks)
    if prod(int(f) + 1 for f in np.bincount(dims + 1)) < cap:
        return list(layers)
    flags, most = [], 1
    for a, F in enumerate(layers):
        below = 1 + int(F[:, 1 << np.arange(a)].sum(axis=1).max())
        if most * below >= cap:
            raise LatticeError(
                f"h/g coefficients could exceed the int64 bound 2^{_INT64_LIMIT.bit_length() - 1}"
            )
        most = max(most, 2 * int(F.sum(axis=1).max()))
        flags.append(F)
    return flags


def _count_chains(px, py, dims, d: int, blocks: _Blocks, width: int = 0):
    """Yield the flag arrays of a graded order, each once it is whole, before it pushes.

    The order has strict pairs (px, py), grouped as ``_blocks`` groups them,
    and a bottom of dimension -1.  Row i of array e is the i-th element w
    of dim e by index; column S, a bitmask of dimensions (bit j for dim
    j < e), holds f_S([bottom, w]), the chains bottom < w_1 < ... < w
    that meet the dimensions in S.  Column 0 is 1.  A chain whose highest
    dimension below w is a ends at an element u < w of dim a, so columns
    [2^a, 2^(a+1)) of w's row sum the rows of array a over the pairs
    u < w: once the dimensions below a have pushed, array a is whole and
    pushes onto every element above, one ``np.add.reduceat`` per piece of
    about _CHUNK cells of its block rows, by (dim y, y).  Nothing here
    bounds the entries: ``_chain_flags`` checks them.

    With a ``width`` the chains are weighted at their lowest element.
    The bottom is an array of its own and bit j + 1 stands for dim j, so
    array e, from e = -1, has 2^(e+1) columns, and each entry is a row of
    ``width`` coefficients.  Column 0 starts at zero: the caller writes
    each element's weight there when its array is yielded.  Column S of
    w then sums the weights of the lowest elements of the chains
    u < ... < w that meet the dimensions in S, the chains from dim a
    being the columns [2^(a+1) :: 2^(a+2)].  An array pushes only up to
    its last coefficient that is nonzero anywhere in it.  The caller
    bounds these entries too.
    """
    shift = 1 if width else 0               # bit j + shift stands for dim j
    n = len(dims)
    by_dim = np.argsort(dims, kind="stable")
    rank = np.empty(n, dtype=np.int64)      # each element's place in by_dim
    rank[by_dim] = np.arange(n)
    starts = np.searchsorted(dims[by_dim], np.arange(-1, d + 2))
    pos = rank - starts[dims + 1]           # each element's row in its array
    starts = starts.tolist()
    cells = (width,) if width else ()
    flags = [
        np.zeros((starts[e + 2] - starts[e + 1], 1 << (e + shift), *cells), dtype=np.int64)
        for e in range(-shift, d + 1)
    ]
    if not width:
        for F in flags:
            F[:, 0] = 1
    for a, F in enumerate(flags, -shift):
        yield F
        bit, live = a + shift, None
        if width:   # coefficients that are zero throughout the array push nothing
            live = int(np.flatnonzero(F.any(axis=(0, 1))).max(initial=-1)) + 1
            F = np.ascontiguousarray(F[..., :live])     # a strided gather is slower
        sel, step = blocks.from_dim(a), max(1, _CHUNK // max(F[:1].size, 1))
        for p in range(0, len(sel), step):
            part = sel[p:p + step]
            w = rank[py[part]]
            sums = np.add.reduceat(F[pos[px[part]]], _run_starts(w))
            # every element above dim a lies above one of dim a, so the
            # runs are the elements w[0]..w[-1] of by_dim, layer after layer
            lo, hi = int(w[0]), int(w[-1]) + 1
            for e in range(a + 1, d + 1):
                s, t = max(lo, starts[e + 1]), min(hi, starts[e + 2])
                if s < t:
                    rows = slice(s - starts[e + 1], t - starts[e + 1])
                    flags[e + shift][rows, 1 << bit:2 << bit][..., :live] += sums[s - lo:t - lo]


@_memo("face_flags")
def _face_flags(lat: FaceLattice) -> list[np.ndarray]:
    """``_chain_flags`` of the lattice: row i of array e is the i-th face of dim e; built once."""
    return _chain_flags(*lat.pairs, lat.dims, lat.d, _blocks(lat))


@lru_cache(maxsize=None)
def _flag_coeffs(e: int) -> np.ndarray:
    """The 2^e x (e + 1) matrix C_e with h(Q, t) = sum over S of f_S(Q) C_e[S].

    Q is any graded poset of rank e + 1 (the face lattice of an
    e-polytope) and S a bitmask over the dimensions 0..e-1, as in
    ``_face_flags``.  h(Q) sums g(F) (t-1)^(e-1-dim F) over F < Q: the
    empty face gives C_e[{}] = (t-1)^e, and summing g(F) = trunc h(F)
    over the faces F of dim j turns f_S(F) into f_{S + {j}}(Q), so
    C_e[S + {j}] = trunc(C_j[S]) (t-1)^(e-1-j) for S within 0..j-1.
    """
    C = np.zeros((1 << e, e + 1), dtype=np.int64)
    C[0] = _binom_kernel(e)
    for j in range(e):
        g = _g_of(_flag_coeffs(j), j)
        kernel = _binom_kernel(e - 1 - j)
        for i in range(g.shape[1]):
            C[1 << j:2 << j, i:i + len(kernel)] += g[:, i, None] * kernel
    C.setflags(write=False)
    return C


@lru_cache(maxsize=None)
def _polar_coeffs(e: int) -> np.ndarray:
    """``_flag_coeffs(e)`` with its rows bit-reversed: row S is C_e[e-1-S]."""
    S = np.arange(1 << e)
    rev = np.zeros_like(S)
    for j in range(e):
        rev |= (S >> j & 1) << (e - 1 - j)
    C = _flag_coeffs(e)[rev]
    C.setflags(write=False)
    return C


@_memo("flags")
def flag_vector(lat: FaceLattice) -> FlagVector:
    """All 2^d flag numbers: the top row of ``_face_flags``."""
    d = lat.d
    top = _face_flags(lat)[d][0].tolist() if d >= 0 else [1]
    return FlagVector(sorted(
        (tuple(j for j in range(d) if S >> j & 1), f) for S, f in enumerate(top)
    ))


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
    """g(P) >= g(F) g(P/F) coefficientwise, for a proper nonempty face F.

    At the bottom or the top the inequality reads g(P) >= g(P) and checks
    nothing, so those raise ``ValueError``.  g(P) and g(F) come from the
    face table, and g(P/F) as ``quotient_g`` reads it, all as int lists.
    """
    if not lat.bottom < face < lat.top:
        raise ValueError(f"monotonicity needs a proper nonempty face, not face {face}")
    G = _face_tables(lat)[1]
    return _monotone(G[lat.top].tolist(), G[face].tolist(), _quotient_row(lat, face))


def check_monotonicity_all(lat: FaceLattice) -> bool:
    """Monotonicity at every proper face, g(P/F) read off the quotient table."""
    G, quot = _face_tables(lat)[1], _quotient_tables(lat)[1]
    g = G[lat.top].tolist()
    return all(
        _monotone(g, G[f].tolist(), quot[f].tolist()) for f in range(1, len(lat) - 1)
    )


def _monotone(g: list[int], face: list[int], quot: list[int]) -> bool:
    """g >= face * quot coefficientwise, on ascending coefficient lists."""
    rhs = [0] * (len(face) + len(quot) - 1)
    for i, a in enumerate(face):
        if a:
            for j, b in enumerate(quot):
                rhs[i + j] += a * b
    return all(a >= b for a, b in zip_longest(g, rhs, fillvalue=0))


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

    face_h, quot_h = _face_tables(lat)[0], _quotient_tables(lat)[0]
    rhs = 0
    for i in range(min(k, (lat.d - 1) // 2) + 1):
        faces = lat.dims == 2 * i
        left = gt(face_h[faces], i).tolist()
        right = gt(quot_h[faces], k - i).tolist()
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
