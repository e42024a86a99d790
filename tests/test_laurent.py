from fractions import Fraction

import pytest
import sympy
from hypothesis import given, settings
from hypothesis import strategies as st

from casson4 import LaurentPolynomial, second_derivative_at_one
from helpers import (
    NotSymmetrizable,
    NotUnimodularAtOne,
    laurent_normalize_symmetric,
    sympy_laurent_product,
)

L = LaurentPolynomial


def test_normalize_rejects_non_palindromic():
    with pytest.raises(NotSymmetrizable):
        laurent_normalize_symmetric(L({1: -1, 0: 1}))


def test_normalize_shifts_quadratic():
    q = laurent_normalize_symmetric(L({2: 1, 1: -1, 0: 1}))
    assert q == L({1: 1, 0: -1, -1: 1})
    assert q.is_palindromic()
    assert q(1) == 1


def test_normalize_identity():
    assert laurent_normalize_symmetric(L.one()) == L.one()


def test_normalize_flips_sign():
    q = laurent_normalize_symmetric(L({1: -1, 0: 1, -1: -1}))
    assert q == L({1: 1, 0: -1, -1: 1})


def test_normalize_odd_span_fails():
    with pytest.raises(NotSymmetrizable):
        laurent_normalize_symmetric(L({0: 1, 1: 1}))


def test_normalize_rejects_wrong_value_at_one():
    with pytest.raises(NotUnimodularAtOne):
        laurent_normalize_symmetric(L({0: 2}))
    with pytest.raises(NotUnimodularAtOne):
        laurent_normalize_symmetric(L({}))


def test_second_derivative_examples():
    assert second_derivative_at_one(L({1: 1, 0: -1, -1: 1})) == 2
    assert second_derivative_at_one(L.one()) == 0
    assert second_derivative_at_one(L({1: -1, 0: 3, -1: -1})) == -2


def _sympy_derivative_at_one(p: LaurentPolynomial, order: int) -> int:
    t = sympy.symbols("t")
    expr = sum(c * t**e for e, c in p.items())
    return int(sympy.diff(expr, t, order).subs(t, 1))


coeff_maps = st.dictionaries(
    st.integers(min_value=-6, max_value=6),
    st.integers(min_value=-9, max_value=9),
    max_size=6,
)


@given(coeff_maps)
@settings(max_examples=60, deadline=None)
def test_derivatives_match_sympy(coeffs):
    p = L(coeffs)
    assert second_derivative_at_one(p) == _sympy_derivative_at_one(p, 2)


@given(coeff_maps, coeff_maps)
@settings(max_examples=60, deadline=None)
def test_leibniz_rule_for_second_derivative(ac, bc):
    p, q = L(ac), L(bc)
    lhs = second_derivative_at_one(sympy_laurent_product(p, q))
    rhs = (
        p(1) * second_derivative_at_one(q)
        + 2 * _sympy_derivative_at_one(p, 1) * _sympy_derivative_at_one(q, 1)
        + q(1) * second_derivative_at_one(p)
    )
    assert lhs == rhs


def test_evaluation_and_reverse():
    # the reverse p(1/t) equals p exactly when p is palindromic
    p = L({2: 3, -1: 5})
    assert p(1) == 8
    assert p(-1) == 3 - 5
    assert p(Fraction(1, 2)) == Fraction(3, 4) + 10
    assert not p.is_palindromic()
    # each coefficient must match the one at the negated exponent, not just its support
    assert not L({2: 3, -2: 5}).is_palindromic()
    assert not L({2: 3, 0: 1}).is_palindromic()
    assert L({2: 3, 0: -1, -2: 3}).is_palindromic() and L({}).is_palindromic()


def test_evaluation_refuses_float():
    with pytest.raises(TypeError):
        L({1: 1, 0: -1, -1: 1})(0.1)


def test_no_zero_coefficients_stored():
    p = L({3: 0, 1: 2, -2: 0})
    assert p.items() == [(1, 2)]
    assert L({3: 0}) == L({})
    assert str(L({3: 0})) == "0"


def test_constructor_refuses_non_integers():
    with pytest.raises(TypeError):
        L({1: 1.0})
    with pytest.raises(TypeError):
        L({Fraction(1, 2): 1})


def test_string_rendering():
    assert str(L({1: 1, 0: -1, -1: 1})) == "t - 1 + t^-1"
    assert str(L({2: -2})) == "-2*t^2"
