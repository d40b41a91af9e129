import pytest
from hypothesis import given, strategies as st

from toricgh.polynomial import Polynomial, binomial_power

from oracles import coefficientwise_geq


def test_trailing_zeros_trimmed():
    assert Polynomial([1, 2, 0, 0]).coeffs == (1, 2)
    assert Polynomial([0, 0]).coeffs == ()
    assert Polynomial().degree == -1


def test_mul_square_of_t_minus_one():
    tm1 = Polynomial([-1, 1])
    assert (tm1 * tm1).coeffs == (1, -2, 1)


def test_add_zero_is_identity():
    p = Polynomial([3, 0, 7])
    assert p + Polynomial() == p
    assert Polynomial() + p == p


def test_hand_multiplication_oracle():
    # (1+t)(1+t+t^2) multiplied out by hand: 1+2t+2t^2+t^3
    got = Polynomial([1, 1]) * Polynomial([1, 1, 1])
    assert got.coeffs == (1, 2, 2, 1)


def test_binomial_power_examples():
    assert binomial_power(-1, 0) == Polynomial([1])
    assert binomial_power(-1, 2).coeffs == (1, -2, 1)
    # binomial theorem by hand for n = 3
    assert binomial_power(-1, 3).coeffs == (-1, 3, -3, 1)
    assert binomial_power(1, 2).coeffs == (1, 2, 1)
    with pytest.raises(ValueError):
        binomial_power(-1, -1)


def test_coefficientwise_geq():
    assert coefficientwise_geq(Polynomial([1, 4]), Polynomial([1, 1]))
    assert not coefficientwise_geq(Polynomial([1, 1]), Polynomial([1, 4]))
    assert coefficientwise_geq(Polynomial([1, 1]), Polynomial([1, 1]))
    # padding: longer minus shorter
    assert coefficientwise_geq(Polynomial([1, 1, 1]), Polynomial([1]))
    assert not coefficientwise_geq(Polynomial([1]), Polynomial([1, 0, 1]))


def test_eval_of_t_minus_one_powers_at_one():
    assert binomial_power(-1, 0)(1) == 1
    for n in range(1, 8):
        assert binomial_power(-1, n)(1) == 0


def test_reversal_and_palindromes():
    p = Polynomial([1, 3, 3, 1])
    assert p.is_palindromic(3)
    assert p.reversed(3) == p
    q = Polynomial([1, 2])
    assert q.reversed(3).coeffs == (0, 0, 2, 1)
    with pytest.raises(ValueError):
        q.reversed(0)


def test_str_rendering():
    assert str(Polynomial([1, 2, 1])) == "1 + 2*t + 1*t^2"
    assert str(Polynomial()) == "0"
    assert Polynomial([1, 0, -2]).to_json() == [1, 0, -2]


small_polys = st.lists(st.integers(-9, 9), max_size=5).map(Polynomial)


@given(small_polys, small_polys, small_polys)
def test_ring_axioms(a, b, c):
    assert a + b == b + a
    assert a * b == b * a
    assert (a + b) + c == a + (b + c)
    assert (a * b) * c == a * (b * c)
    assert a * (b + c) == a * b + a * c


@given(small_polys, st.integers(-5, 5))
def test_evaluation_is_ring_hom(p, x):
    q = Polynomial([2, -1, 3])
    assert (p * q)(x) == p(x) * q(x)
    assert (p + q)(x) == p(x) + q(x)
