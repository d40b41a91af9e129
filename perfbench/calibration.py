"""A fixed probe of the host's speed, run after every row of a pass.

The host this benchmark was written on is a 2-core VM on a shared
machine whose speed drifts by 20-40 % over seconds to minutes, the same
for every process on it.  A run times its rows in one window of that
drift, so raw times differ between runs by more than any change worth
measuring.  The probe below is a fixed piece of work in the same mix as
the library's (frozensets and dicts, exact integer and Fraction
elimination, one float64 matrix product) that the benchmark owns, so no
commit under test changes it.  Timed after every row, the probes around
a row say how fast the host ran while it ran; ``worker.py`` scales the
row by NOMINAL_S / their median, which gives its time on a host on which
the probe takes NOMINAL_S.

The probe runs with the cyclic garbage collector off, so the size of the
library's heap does not enter its time.
"""

from __future__ import annotations

import gc
import time
from fractions import Fraction
from itertools import product

import numpy as np

# The probe time the reported times refer to.  It was read off passes on
# the 2-core, 2.1 GHz VM (Python 3.11, numpy 2.4 with OpenBLAS on one
# thread) in a fast spell; over the 107 passes of a later ten-seed proof
# on that VM the in-pass median was 4.1 ms, so reported times ran about
# 15 % below raw ones there.  A constant: changing it rescales every
# reported time, and no spread.
NOMINAL_S = 0.0034

_N = 5                      # the probe builds the face lattice of the 5-cube
_MAT = np.arange(160 * 160, dtype=np.float64).reshape(160, 160) % 7


def _work():
    verts = list(product((0, 1), repeat=_N))
    facets = [
        frozenset(i for i, v in enumerate(verts) if v[k] == b)
        for k in range(_N) for b in (0, 1)
    ]
    faces = {frozenset(range(len(verts)))}
    frontier = set(facets)
    while frontier:
        faces |= frontier
        frontier = {f & g for f in frontier for g in facets} - faces
    order = sorted(faces, key=lambda f: (len(f), sorted(f)))
    index = {f: i for i, f in enumerate(order)}
    up = [[index[g] for g in order[i:] if f <= g] for i, f in enumerate(order)]
    # exact rank of an integer matrix, fraction-free, and one Fraction pivot row
    mat = [[(3 * i + j * j) % 11 - 5 for j in range(12)] for i in range(12)]
    prev, rank = 1, 0
    for col in range(12):
        piv = next((r for r in range(rank, 12) if mat[r][col]), None)
        if piv is None:
            continue
        mat[rank], mat[piv] = mat[piv], mat[rank]
        p = mat[rank][col]
        for r in range(rank + 1, 12):
            head, row, prow = mat[r][col], mat[r], mat[rank]
            for c in range(col + 1, 12):
                row[c] = (row[c] * p - head * prow[c]) // prev
            row[col] = 0
        prev, rank = p, rank + 1
    inv = [Fraction(x, prev or 1) for x in mat[0]]
    dense = float((_MAT @ _MAT).trace())
    return sum(map(len, up)) + rank + len(inv) + (dense > 0)


def probe() -> float:
    """Seconds one run of the fixed work takes now."""
    enabled = gc.isenabled()
    gc.disable()
    try:
        t0 = time.perf_counter()
        _work()
        return time.perf_counter() - t0
    finally:
        if enabled:
            gc.enable()
