import cmath
import random
from fractions import Fraction
from math import gcd

import pytest
import sympy

from casson4 import CyclotomicField, LaurentPolynomial
from casson4.cyclotomic import cyclotomic_polynomial, fixed_point_cosines
from helpers import embed, evaluate_laurent, field_i, phi_divides


def test_cyclotomic_polynomials_match_sympy():
    t = sympy.symbols("t")
    for n in range(1, 25):
        ours = cyclotomic_polynomial(n)
        theirs = sympy.Poly(sympy.cyclotomic_poly(n, t), t).all_coeffs()[::-1]
        assert list(ours) == [int(c) for c in theirs]


def _numeric(elt):
    n = elt.field.n
    return sum(
        complex(c) * cmath.exp(2j * cmath.pi * j / n)
        for j, c in enumerate(elt.coeffs)
    )


def test_arithmetic_matches_complex_floats():
    rng = random.Random(5)
    for n in [1, 2, 3, 4, 5, 6, 8, 12]:
        field = CyclotomicField(n)
        for _ in range(10):
            a = field.element([rng.randint(-4, 4) for _ in range(field.degree)])
            b = field.element([rng.randint(-4, 4) for _ in range(field.degree)])
            assert abs(_numeric(a + b) - (_numeric(a) + _numeric(b))) < 1e-9
            assert abs(_numeric(a * b) - _numeric(a) * _numeric(b)) < 1e-9
            assert abs(_numeric(a.conjugate()) - _numeric(a).conjugate()) < 1e-9
            if not a.is_zero():
                assert abs(_numeric(a.inverse()) - 1 / _numeric(a)) < 1e-9
                assert a * a.inverse() == field.one()


def test_galois_is_a_field_automorphism():
    rng = random.Random(11)
    for n in [1, 3, 4, 5, 7, 8, 12, 13]:
        field = CyclotomicField(n)
        units = [m for m in range(-n, 2 * n) if gcd(m, n) == 1]
        for _ in range(8):
            a = field.element([rng.randint(-4, 4) for _ in range(field.degree)])
            b = field.element([rng.randint(-4, 4) for _ in range(field.degree)])
            # the conjugation formula galois(-1) replaced: sum c_j zeta^-j
            old_conjugate = field.zero()
            for j, c in enumerate(a.coeffs):
                old_conjugate = old_conjugate + field.zeta(-j) * c
            assert a.galois(-1) == a.conjugate() == old_conjugate
            for m in rng.sample(units, min(3, len(units))):
                assert (a + b).galois(m) == a.galois(m) + b.galois(m)
                assert (a * b).galois(m) == a.galois(m) * b.galois(m)
                assert a.galois(m).galois(pow(m, -1, n)) == a
                assert field.zeta().galois(m) == field.zeta(m)
                if not a.is_zero():
                    assert a.inverse().galois(m) == a.galois(m).inverse()
    with pytest.raises(ValueError):
        CyclotomicField(12).zeta().galois(2)


def test_zeta_has_exact_order():
    for n in [1, 2, 3, 4, 6, 7, 12]:
        field = CyclotomicField(n)
        power = field.one()
        for _ in range(n):
            power = power * field.zeta()
        assert power == field.one()
        if n > 1:
            assert field.zeta() != field.one()


def test_embedding_is_a_ring_map():
    small = CyclotomicField(3)
    big = CyclotomicField(12)
    a = small.zeta() + small.rational(2)
    b = small.zeta(2) * 3
    assert embed(big, a * b) == embed(big, a) * embed(big, b)
    assert embed(big, a + b) == embed(big, a) + embed(big, b)
    assert abs(_numeric(embed(big, a)) - _numeric(a)) < 1e-9
    with pytest.raises(ValueError):
        embed(CyclotomicField(5), big.one())


def test_reality_and_rationality_predicates():
    field = CyclotomicField(12)
    z = field.zeta()
    real = z + z.conjugate()
    assert real.is_real() and not real.is_rational()
    assert not z.is_real()
    assert field.rational(Fraction(3, 2)).is_rational()
    assert field_i(field) * field_i(field) == field.rational(-1)


def test_evaluate_laurent_exactly():
    p = LaurentPolynomial({1: 1, 0: -1, -1: 1})
    f6 = CyclotomicField(6)
    assert evaluate_laurent(p, f6, 1).is_zero()  # the trefoil vanishing
    f5 = CyclotomicField(5)
    value = evaluate_laurent(p, f5, 2)
    expected = f5.zeta(2) + f5.zeta(3) - f5.one()
    assert value == expected
    assert abs(_numeric(value) - (_numeric(f5.zeta(2)) + _numeric(f5.zeta(3)) - 1)) < 1e-9


@pytest.mark.parametrize("prec", [1, 2, 3, 32, 64, 128, 256, 512, 1024])
def test_fixed_point_cosines_are_within_one(prec):
    import mpmath

    ctx = mpmath.MPContext()
    ctx.prec = prec + 200
    for n in range(1, 98):
        table = fixed_point_cosines(n, prec)
        assert len(table) == n
        for j, c in enumerate(table):
            exact = ctx.ldexp(2 * ctx.cos(2 * ctx.pi * j / n), prec)
            assert abs(c - exact) <= 1, (n, j, prec)


def test_too_wide_enclosures_build_no_cosine_table(monkeypatch):
    # 24 guard bits fewer leave the error bound above 2^(g - 2): the guard refuses
    from casson4 import cyclotomic
    from casson4.errors import InternalError

    monkeypatch.setattr(cyclotomic, "_GUARD_BITS", -8)
    fixed_point_cosines.cache_clear()
    try:
        with pytest.raises(InternalError, match="too wide"):
            fixed_point_cosines(7, 64)
        assert fixed_point_cosines.cache_info().currsize == 0
    finally:
        fixed_point_cosines.cache_clear()


def test_phi_divides_matches_sympy():
    t = sympy.symbols("t")
    rng = random.Random(23)
    for n in range(1, 30):
        phi = sympy.cyclotomic_poly(n, t)
        for _ in range(6):
            other = sympy.Poly([rng.randint(-3, 3) for _ in range(rng.randint(1, 8))], t)
            for poly in (other, other * sympy.Poly(phi, t)):
                coeffs = [int(c) for c in reversed(poly.all_coeffs())]
                expected = sympy.rem(poly.as_expr(), phi, t) == 0
                assert phi_divides(n, coeffs) == expected, (n, coeffs)
