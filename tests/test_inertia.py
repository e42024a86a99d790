import random
from fractions import Fraction
from math import prod

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from casson4 import certified_signature
from casson4.cyclotomic import CyclotomicField
from casson4.errors import InternalError, NotHermitian
from casson4.inertia import (
    IntervalWitness,
    _SMALL_ODD_PRIMES,
    _charpoly_bound,
    _proth_prime,
    cosine_sum_signs,
    descartes_inertia,
)
from helpers import (
    RationalWitness,
    ZeroWitness,
    certified_sign,
    doubled_signature,
    hermitian_pivots,
    numpy_inertia,
    pivot_signature,
    proth_prime_unsieved,
)


def test_zero_matrix_any_size():
    for g in range(5):
        assert certified_signature([[0] * g for _ in range(g)]) == (0, 0, g)


def test_negative_definite_example():
    assert certified_signature([[-2, 1], [1, -2]]) == (0, 2, 0)


def test_hyperbolic_example():
    assert certified_signature([[4, 2], [2, -4]]) == (1, 1, 0)


def test_not_hermitian_rejected():
    with pytest.raises(NotHermitian):
        certified_signature([[0, 1], [0, 0]])
    field = CyclotomicField(5)
    z = field.zeta()
    with pytest.raises(NotHermitian):
        pivot_signature([[field.one(), z], [z, field.one()]])


def test_rational_input_is_eliminated_over_the_rationals():
    pivots = hermitian_pivots([[2, 1], [1, 2]])
    assert pivots == [2, Fraction(3, 2)]
    assert all(type(p) in (int, Fraction) for p in pivots)


def test_boundary_refuses_non_square_and_mixed_fields():
    with pytest.raises(ValueError):
        certified_signature([[1, 0], [0]])
    f3, f5 = CyclotomicField(3), CyclotomicField(5)
    with pytest.raises(ValueError):
        pivot_signature([[f3.one(), 0], [0, f5.one()]])
    with pytest.raises(TypeError):
        certified_signature([[0.5]])
    # cyclotomic entries are the elimination oracle's, not certified_signature's
    with pytest.raises(TypeError):
        certified_signature([[f3.one(), 0], [0, f3.one()]])


def test_inertia_sums_to_dimension_and_matches_numpy():
    rng = random.Random(17)
    for _ in range(60):
        n = rng.randint(1, 6)
        a = [[rng.randint(-4, 4) for _ in range(n)] for _ in range(n)]
        h = [[a[i][j] + a[j][i] for j in range(n)] for i in range(n)]
        inertia = certified_signature(h)
        assert sum(inertia) == n
        assert inertia == numpy_inertia(h)


def test_negation_swaps_plus_and_minus():
    rng = random.Random(3)
    for _ in range(20):
        n = rng.randint(1, 5)
        a = [[rng.randint(-3, 3) for _ in range(n)] for _ in range(n)]
        h = [[a[i][j] + a[j][i] for j in range(n)] for i in range(n)]
        p, m, z = certified_signature(h)
        neg = [[-x for x in row] for row in h]
        assert certified_signature(neg) == (m, p, z)


@given(st.integers(min_value=1, max_value=10 ** 6), st.integers(min_value=1, max_value=10 ** 6))
@settings(max_examples=25, deadline=None)
def test_positive_scaling_invariance(num, den):
    c = Fraction(num, den)
    h = [[4, 2, 0], [2, -4, 1], [0, 1, 0]]
    scaled = [[c * x for x in row] for row in h]
    assert certified_signature(scaled) == certified_signature(h)


def test_complex_hermitian_matches_numpy_and_doubling():
    rng = random.Random(29)
    for n_field in [3, 4, 5, 6, 8, 12]:
        field = CyclotomicField(n_field)
        for _ in range(6):
            dim = rng.randint(1, 3)
            raw = [
                [
                    field.element([rng.randint(-2, 2) for _ in range(field.degree)])
                    for _ in range(dim)
                ]
                for _ in range(dim)
            ]
            h = [
                [raw[i][j] + raw[j][i].conjugate() for j in range(dim)]
                for i in range(dim)
            ]
            inertia = pivot_signature(h)
            assert inertia == doubled_signature(h, field)
            import cmath

            numeric = [
                [
                    sum(
                        complex(c) * cmath.exp(2j * cmath.pi * k / n_field)
                        for k, c in enumerate(entry.coeffs)
                    )
                    for entry in row
                ]
                for row in h
            ]
            assert inertia == numpy_inertia(numeric)


def test_exact_zero_detection_in_cyclotomic_field():
    # Hermitian matrix with an exactly-zero eigenvalue at a root of the
    # trefoil polynomial: floating point alone cannot certify this
    field = CyclotomicField(6)
    z = field.zeta()
    one = field.one()
    h = [[field.rational(-1), one - z], [one - z.conjugate(), field.rational(-1)]]
    assert pivot_signature(h) == (0, 1, 1)


def test_certified_sign_witnesses():
    s = certified_sign(Fraction(-3, 7))
    assert s.value == -1
    assert isinstance(s.witness, RationalWitness)
    assert s.witness.upper < 0

    field = CyclotomicField(12)
    zero = field.zeta(4) + field.zeta(8) + field.one()  # 1 + z^4 + z^8 = 0
    s0 = certified_sign(zero)
    assert s0.value == 0
    assert isinstance(s0.witness, ZeroWitness)

    sqrt3 = field.zeta(1) + field.zeta(11)
    s1 = certified_sign(sqrt3)
    assert s1.value == 1
    assert 0 < s1.witness.lower <= s1.witness.upper
    assert s1.witness.precision >= 64


def test_certified_sign_rejects_nonreal():
    field = CyclotomicField(5)
    with pytest.raises(ValueError):
        certified_sign(field.zeta())


def test_certified_sign_leaves_global_interval_precision_alone():
    import mpmath

    field = CyclotomicField(13)
    x = field.zeta(1) + field.zeta(12) - Fraction(3, 2)  # 2 cos(2 pi / 13) - 3/2
    before = mpmath.iv.prec
    try:
        mpmath.iv.prec = 20
        s = certified_sign(x)
        assert mpmath.iv.prec == 20
    finally:
        mpmath.iv.prec = before
    assert s.value == 1


def test_descartes_inertia_examples():
    # det(x I - H) = x^2 - e_1 x + e_2
    assert descartes_inertia([1, 1, 1]) == (2, 0, 0)  # diag(1, 1)
    assert descartes_inertia([1, -1, 1]) == (0, 2, 0)  # diag(-1, -1)
    assert descartes_inertia([1, 0, -1]) == (1, 1, 0)  # diag(1, -1)
    assert descartes_inertia([1, 1, 0]) == (1, 0, 1)  # diag(1, 0)
    assert descartes_inertia([1, 0, 0, 0]) == (0, 0, 3)


def test_descartes_inertia_refuses_signs_of_no_hermitian_matrix():
    # x^2 + 1 has no real roots: no Hermitian matrix has e_1 = 0 < e_2
    with pytest.raises(InternalError):
        descartes_inertia([1, 0, 1])


def test_cosine_sum_signs_witnesses_enclose_the_values():
    # each batch is one class m: random vectors, most signed at 64 bits, mixed
    # with near-cancelling ones, |value| < 2^-70 with coordinates near 2^96,
    # which only the refinement can sign
    import math

    import mpmath

    ctx = mpmath.MPContext()
    ctx.prec = 512
    rng = random.Random(29)
    easy = refined = 0
    for _ in range(60):
        n = rng.randint(3, 64)
        m = rng.choice([k for k in range(1, n) if math.gcd(k, n) == 1])

        def value(a):
            return a[0] + sum(
                x * 2 * ctx.cos(2 * ctx.pi * j * m / n) for j, x in enumerate(a[1:], 1)
            )

        batch = [[rng.randint(-50, 50) for _ in range(rng.randint(1, 9))] for _ in range(4)]
        for _ in range(3):
            j = rng.randint(1, 8)
            cosine = 2 * ctx.cos(2 * ctx.pi * j * m / n)
            q = Fraction(int(ctx.nint(ctx.ldexp(cosine, 400))), 1 << 400).limit_denominator(1 << 96)
            batch.insert(rng.randint(0, len(batch)), [-q.numerator] + [0] * (j - 1) + [q.denominator])
        # exact zeros are the caller's to catch (c = 0, or a rational cosine)
        batch = [a for a in batch if abs(value(a)) > 1e-100]
        signs = cosine_sum_signs(batch, n, m)
        assert len(signs) == len(batch)
        for a, sign in zip(batch, signs):
            witness = sign.witness
            assert isinstance(witness, IntervalWitness)
            assert not hasattr(sign, "__dict__") and not hasattr(witness, "__dict__")
            assert witness.lower == Fraction(witness.low, 1 << witness.precision)
            assert witness.upper == Fraction(witness.high, 1 << witness.precision)
            lower = ctx.ldexp(witness.low, -witness.precision)
            upper = ctx.ldexp(witness.high, -witness.precision)
            v = value(a)
            assert lower <= v <= upper, (a, n, m)
            assert (lower > 0 and sign.value == 1) or (upper < 0 and sign.value == -1)
            if abs(v) > 2**-40:  # decided at the start, whatever else the batch holds
                assert witness.precision == 64
                easy += 1
            elif abs(v) < 2**-70:
                assert witness.precision > 64
                refined += 1
    assert easy >= 150 and refined >= 60


def test_certified_sign_of_real_cyclotomic_encloses_the_value():
    # independent of the cosine table: the value comes from the random
    # coefficients of y, with cosines taken by mpmath at 512 bits
    import mpmath

    ctx = mpmath.MPContext()
    ctx.prec = 512
    rng = random.Random(31)
    # Q(zeta_n) has real irrationals only when phi(n) > 2
    orders = [n for n in range(3, 65) if n not in (3, 4, 6)]
    checked = 0
    while checked < 240:
        n = rng.choice(orders)
        field = CyclotomicField(n)
        coeffs = [
            Fraction(rng.randint(-30, 30), rng.randint(1, 12)) if rng.random() < 0.6 else 0
            for _ in range(field.degree)
        ]
        y = field.element(coeffs)
        value = sum(
            2 * ctx.mpf(c.numerator) / c.denominator * ctx.cos(2 * ctx.pi * j / n)
            for j, c in enumerate(map(Fraction, coeffs))
        )
        if checked % 4 == 3:
            # near-cancellation: subtract a 100-bit dyadic approximation of the value
            approx = Fraction(int(ctx.nint(ctx.ldexp(value, 100))), 2 ** 100)
            y, value = y - approx / 2, value - ctx.mpf(approx.numerator) / approx.denominator
        x = y + y.conjugate()
        if x.is_rational():
            continue
        sign = certified_sign(x)
        witness = sign.witness
        assert isinstance(witness, RationalWitness)
        lower = ctx.mpf(witness.lower.numerator) / witness.lower.denominator
        upper = ctx.mpf(witness.upper.numerator) / witness.upper.denominator
        assert lower <= value <= upper, (n, coeffs)
        assert (lower > 0 and sign.value == 1) or (upper < 0 and sign.value == -1)
        assert sign.value == (1 if value > 0 else -1)
        checked += 1
    # exact zeros: the sum of all n-th roots of unity, and 2 cos(2 pi / 5),
    # a root of x^2 + x - 1
    zeros = [CyclotomicField(n).element([1] * n) for n in (5, 7, 12, 13, 64)]
    field = CyclotomicField(5)
    c = field.zeta(1) + field.zeta(4)
    zeros.append(c * c + c - 1)
    for x in zeros:
        s = certified_sign(x)
        assert s.value == 0 and isinstance(s.witness, ZeroWitness)


def _rational_symmetric(rng, n):
    """A seeded rational symmetric matrix of size n, often rank-deficient.

    Kinds: zero; entrywise random; B^T D B with B of k < n rows and D
    diagonal (rank <= k); and a rational multiple of an integer one.
    """
    kind = rng.randrange(4)
    if kind == 0:
        return [[0] * n for _ in range(n)]

    def q():
        return Fraction(rng.randint(-30, 30), rng.randint(1, 9))

    if kind == 1:
        a = [[q() for _ in range(n)] for _ in range(n)]
        return [[a[i][j] + a[j][i] for j in range(n)] for i in range(n)]
    if kind == 2:
        k = rng.randint(0, max(n - 1, 0))
        b = [[q() for _ in range(n)] for _ in range(k)]
        d = [q() for _ in range(k)]
        return [
            [sum(b[r][i] * d[r] * b[r][j] for r in range(k)) for j in range(n)]
            for i in range(n)
        ]
    c = q() or Fraction(1, 7)
    a = [[rng.randint(-5, 5) for _ in range(n)] for _ in range(n)]
    return [[c * (a[i][j] + a[j][i]) for j in range(n)] for i in range(n)]


def test_certified_signature_matches_elimination_oracle():
    rng = random.Random(1013)
    deficient = 0
    for _ in range(1200):
        h = _rational_symmetric(rng, rng.randint(0, 8))
        inertia = certified_signature(h)
        assert inertia == pivot_signature(h), h
        deficient += inertia[2] > 0
    assert deficient >= 300


def test_charpoly_bound_and_prime_hold_the_coefficients():
    import sympy

    rng = random.Random(1019)
    for _ in range(24):
        n = rng.randint(1, 7)
        a = [[rng.randint(-200, 200) for _ in range(n)] for _ in range(n)]
        M = [[a[i][j] + a[j][i] for j in range(n)] for i in range(n)]
        coeffs = sympy.Matrix(M).charpoly().all_coeffs()
        bound = _charpoly_bound(M)
        assert max(abs(int(c)) for c in coeffs) <= bound
        bits = (2 * bound).bit_length()
        p = _proth_prime(bits)
        assert p > 2 * bound
        k, rest = divmod(p - 1, 1 << bits)
        assert rest == 0 and k % 2 == 1 and k < 1 << bits
        assert sympy.isprime(p)


@pytest.mark.parametrize("order", [1, 2, 3, 4, 5, 7, 8, 12, 13, 16, 61, 64, 97])
def test_sieved_proth_prime_is_the_unsieved_one(order):
    # from bits = 1 on, so the answers and the rejected candidates below 1000 are covered
    import sympy

    search = _proth_prime.__wrapped__  # past the cache, so the sieve runs every time
    for bits in range(1, 221):
        p = search(bits, order)
        assert p == proth_prime_unsieved(bits, order), (bits, order)
        assert sympy.isprime(p) and (p - 1) % order == 0, (bits, order)


def test_sieve_passes_primes_and_products_of_distinct_small_primes():
    import sympy

    assert _SMALL_ODD_PRIMES == prod(sympy.primerange(3, 1000))
    search = _proth_prime.__wrapped__
    # 5 and 13 share all of their factors with the sieve and are still found; 9 and
    # 25 are skipped before 41; 57 = 3 * 19 divides the product, so the power test
    # rejects it before 113 is found
    assert [search(1), search(1, 3), search(3), search(3, 7)] == [5, 13, 41, 113]


def test_too_small_a_prime_fails_the_determinant_check(monkeypatch):
    monkeypatch.setattr("casson4.inertia._charpoly_bound", lambda M: 1)
    with pytest.raises(InternalError):
        certified_signature([[-2, 1], [1, -2]])  # det 3 lifts to -2 mod 5
