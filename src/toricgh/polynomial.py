"""Dense univariate polynomials with integer coefficients.

Every invariant computed by this package (h-polynomials, g-polynomials,
local h contributions, multiplicity generating functions) lives in Z[t],
so a tiny dedicated type beats pulling in a computer algebra system.
Coefficients are arbitrary-precision Python ints; degrees stay below a
dozen for desk-scale polytopes.
"""

from __future__ import annotations

from math import comb
from typing import Iterable


def _trim(coeffs):
    n = len(coeffs)
    while n > 0 and coeffs[n - 1] == 0:
        n -= 1
    return tuple(coeffs[:n])


class Polynomial:
    """Immutable polynomial in t; ``coeffs[k]`` is the coefficient of t^k.

    The zero polynomial has an empty coefficient tuple. Trailing zeros are
    always trimmed, so equality and hashing are structural.
    """

    __slots__ = ("coeffs",)

    def __init__(self, coeffs: Iterable[int] = ()):
        self.coeffs = _trim([int(c) for c in coeffs])

    @property
    def degree(self) -> int:
        """Degree, with the convention deg 0 = -1."""
        return len(self.coeffs) - 1

    def __bool__(self):
        return bool(self.coeffs)

    def __getitem__(self, k: int) -> int:
        """Coefficient of t^k (zero when out of range)."""
        if 0 <= k < len(self.coeffs):
            return self.coeffs[k]
        return 0

    def __eq__(self, other):
        if isinstance(other, int):
            other = Polynomial([other])
        if not isinstance(other, Polynomial):
            return NotImplemented
        return self.coeffs == other.coeffs

    def __hash__(self):
        return hash(self.coeffs)

    def __add__(self, other):
        if isinstance(other, int):
            other = Polynomial([other])
        n = max(len(self.coeffs), len(other.coeffs))
        return Polynomial([self[k] + other[k] for k in range(n)])

    __radd__ = __add__

    def __neg__(self):
        return Polynomial([-c for c in self.coeffs])

    def __sub__(self, other):
        if isinstance(other, int):
            other = Polynomial([other])
        return self + (-other)

    def __rsub__(self, other):
        return (-self) + other

    def __mul__(self, other):
        if isinstance(other, int):
            return Polynomial([other * c for c in self.coeffs])
        if not (self.coeffs and other.coeffs):
            return Polynomial()
        out = [0] * (len(self.coeffs) + len(other.coeffs) - 1)
        for i, a in enumerate(self.coeffs):
            if a:
                for j, b in enumerate(other.coeffs):
                    out[i + j] += a * b
        return Polynomial(out)

    __rmul__ = __mul__

    def __call__(self, x: int) -> int:
        """Evaluate at an integer point by Horner's rule."""
        acc = 0
        for c in reversed(self.coeffs):
            acc = acc * x + c
        return acc

    def reversed(self, d: int) -> "Polynomial":
        """t^d * p(1/t); requires d >= degree."""
        if d < self.degree:
            raise ValueError("reversal degree below polynomial degree")
        return Polynomial([self[d - k] for k in range(d + 1)])

    def is_palindromic(self, d: int) -> bool:
        """True iff coefficient k equals coefficient d-k for 0 <= k <= d."""
        return all(self[k] == self[d - k] for k in range(d + 1))

    def to_json(self) -> list[int]:
        """JSON form: ascending list of integer coefficients."""
        return list(self.coeffs)

    def __repr__(self):
        return f"Polynomial({list(self.coeffs)})"

    def __str__(self):
        if not self.coeffs:
            return "0"
        parts = []
        for k, c in enumerate(self.coeffs):
            if c == 0:
                continue
            if k == 0:
                parts.append(str(c))
            elif k == 1:
                parts.append(f"{c}*t")
            else:
                parts.append(f"{c}*t^{k}")
        return " + ".join(parts).replace("+ -", "- ")


ZERO = Polynomial()
T = Polynomial([0, 1])


def binomial_power(base_shift: int, n: int) -> Polynomial:
    """(t + base_shift)^n, expanded by the binomial theorem.

    The h-recursions use base_shift = -1; n below zero is a caller bug.
    """
    if n < 0:
        raise ValueError("negative exponent in binomial_power")
    return Polynomial([comb(n, k) * base_shift ** (n - k) for k in range(n + 1)])


def coefficientwise_geq(a: Polynomial, b: Polynomial) -> bool:
    """True iff every coefficient of a - b (zero-padded) is >= 0."""
    n = max(len(a.coeffs), len(b.coeffs))
    return all(a[k] >= b[k] for k in range(n))
