import random
from fractions import Fraction
from math import gcd, prod

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from casson4 import certified_signature
from casson4.cyclotomic import CyclotomicField
from casson4.errors import InternalError, NotHermitian
from casson4.inertia import (
    IntervalWitness,
    _SMALL_ODD_PRIMES,
    _ceil_sqrt,
    _proth_prime,
    _root_product_bound,
    _symmetric_inertia,
    cosine_sum_signs,
    descartes_inertia,
    integer_determinant,
)
from casson4.seifert import torus_knot_seifert
from helpers import (
    RationalWitness,
    ZeroWitness,
    certified_sign,
    charpoly_bound,
    doubled_signature,
    hermitian_pivots,
    litherland_torus,
    numpy_inertia,
    pivot_signature,
    proth_prime_unsieved,
    proth_split,
    symmetric_inertia_by_descartes,
    torus_alexander_closed_form,
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
    assert s.sign == -1
    assert isinstance(s, RationalWitness)
    assert s.upper < 0

    field = CyclotomicField(12)
    zero = field.zeta(4) + field.zeta(8) + field.one()  # 1 + z^4 + z^8 = 0
    s0 = certified_sign(zero)
    assert s0.sign == 0
    assert isinstance(s0, ZeroWitness)

    sqrt3 = field.zeta(1) + field.zeta(11)
    s1 = certified_sign(sqrt3)
    assert s1.sign == 1
    assert 0 < s1.lower <= s1.upper
    assert s1.precision >= 64


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
    assert s.sign == 1


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
        for a, witness in zip(batch, signs):
            assert isinstance(witness, IntervalWitness)
            assert not hasattr(witness, "__dict__")
            lower = ctx.ldexp(witness.low, -witness.precision)
            upper = ctx.ldexp(witness.high, -witness.precision)
            v = value(a)
            assert lower <= v <= upper, (a, n, m)
            assert (lower > 0 and witness.sign == 1) or (upper < 0 and witness.sign == -1)
            assert witness.sign == (1 if v > 0 else -1)
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
        witness = certified_sign(x)
        assert isinstance(witness, RationalWitness)
        lower = ctx.mpf(witness.lower.numerator) / witness.lower.denominator
        upper = ctx.mpf(witness.upper.numerator) / witness.upper.denominator
        assert lower <= value <= upper, (n, coeffs)
        assert (lower > 0 and witness.sign == 1) or (upper < 0 and witness.sign == -1)
        assert witness.sign == (1 if value > 0 else -1)
        checked += 1
    # exact zeros: the sum of all n-th roots of unity, and 2 cos(2 pi / 5),
    # a root of x^2 + x - 1
    zeros = [CyclotomicField(n).element([1] * n) for n in (5, 7, 12, 13, 64)]
    field = CyclotomicField(5)
    c = field.zeta(1) + field.zeta(4)
    zeros.append(c * c + c - 1)
    for x in zeros:
        s = certified_sign(x)
        assert s.sign == 0 and isinstance(s, ZeroWitness)


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
        bound = charpoly_bound(M)
        assert max(abs(int(c)) for c in coeffs) <= bound
        bits = (2 * bound).bit_length()
        p = _proth_prime(bits)
        assert 2 * bound < 1 << bits < p
        c, b = proth_split(p)
        assert c < 1 << b and sympy.isprime(p)


def test_root_product_bound_is_one_rounding_above_the_product():
    # B >= prod (1 + sqrt a_i), enclosed by mpmath's interval arithmetic, and
    # B < e^(2^-8) times it plus 1; never above rounding each root up first
    from mpmath import iv

    iv.prec = 2000
    rng = random.Random(1021)
    cases = [[], [0], [0, 0, 1], [4, 9, 16], [2] * 168, [10**60, 3]]
    cases += [[rng.randint(0, 10 ** rng.randint(1, 8)) for _ in range(rng.randint(1, 48))]
              for _ in range(200)]
    cases += [[rng.randint(1, 40) ** 2 for _ in range(rng.randint(1, 48))] for _ in range(50)]
    for squares in cases:
        bound = _root_product_bound(squares)
        exact = iv.mpf(1)
        for a in squares:
            exact *= 1 + iv.sqrt(a)
        assert exact.a <= bound < exact.b * iv.exp(iv.mpf(2) ** -8) + 1, squares
        assert bound <= prod(1 + _ceil_sqrt(a) for a in squares)


PROTH_ORDERS = [1, 2, 3, 4, 5, 7, 8, 12, 13, 16, 61, 64, 97]


@pytest.mark.parametrize("order", PROTH_ORDERS)
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
    # 5 and 13 share all of their factors with the sieve and are still found; 3
    # divides the product and is its own witness, so the power test rejects it
    # before 5; 9 is skipped before 13; 57 = 3 * 19 divides the product, so the
    # power test rejects it before 113 is found
    assert [search(1), search(1, 3), search(3), search(3, 7)] == [5, 13, 13, 113]


@pytest.mark.parametrize("order", PROTH_ORDERS)
def test_proth_prime_has_one_bit_more_than_asked(order):
    # the least Proth prime above 2^bits lies below 2^(bits + 1) at every size
    # the bounds ask for, so no prime carries a bit its lift does not need
    for bits in range(32, 561):
        p = _proth_prime(bits, order)
        assert p.bit_length() == bits + 1 and (p - 1) % order == 0, (bits, order)


def test_too_small_a_prime_fails_the_determinant_check(monkeypatch):
    # in the Descartes oracle every e_r lifts within the true bound, so the
    # Bareiss determinant decides
    monkeypatch.setattr("helpers._proth_prime", lambda bits, order=1: 5)
    with pytest.raises(InternalError, match=r"e_2\(M\) came out -2, not det M = 3$"):
        symmetric_inertia_by_descartes([[-2, 1], [1, -2]], 3)  # det 3 lifts to -2 mod 5


def test_too_small_a_bound_fails_the_bound_check(monkeypatch):
    monkeypatch.setattr("helpers.charpoly_bound", lambda M: 1)
    with pytest.raises(InternalError, match=r"some e_r\(M\) exceeds the bound 1$"):
        symmetric_inertia_by_descartes([[-2, 1], [1, -2]], 3)  # e_2 = 3 lifts to -2 mod 5


def test_wrong_determinant_fails_the_last_pivot_check(monkeypatch):
    # the elimination's last pivot minor is checked against the determinant
    # it is handed, 0 when a zero block is left
    monkeypatch.setattr("casson4.inertia.integer_determinant", lambda M: 4)
    with pytest.raises(InternalError, match=r"D_2 came out 3, not det M = 4$"):
        certified_signature([[-2, 1], [1, -2]])
    with pytest.raises(InternalError, match=r"D_3 came out 0, not det M = 4$"):
        certified_signature([[0, 1, 0], [1, 0, 0], [0, 0, 0]])


def _e8():
    """The Cartan matrix of E8: the chain 0 - 1 - .. - 6, with 7 joined to 4."""
    M = [[2 * (i == j) for j in range(8)] for i in range(8)]
    for i, j in [(i, i + 1) for i in range(6)] + [(4, 7)]:
        M[i][j] = M[j][i] = -1
    return M


def _direct_sum(*blocks):
    n = sum(map(len, blocks))
    M, start = [[0] * n for _ in range(n)], 0
    for block in blocks:
        for i, row in enumerate(block):
            M[start + i][start : start + len(row)] = row
        start += len(block)
    return M


def _random_symmetric(rng, n, size):
    """A seeded symmetric integer matrix of n rows, entries up to size.

    Kinds: entrywise random, with some entries 0; B^T D B with B of k < n
    rows (singular); a zero diagonal; and [[0, B], [B^T, 0]] under a
    symmetric permutation, whose diagonal every 2 x 2 step leaves zero, so
    such steps follow one another until the rank of B is used up.
    """
    kind = rng.randrange(4)
    if kind == 1:
        k = rng.randrange(n)
        b = [[rng.randint(-size, size) for _ in range(n)] for _ in range(k)]
        d = [rng.choice([-1, 1]) * rng.randint(1, 3) for _ in range(k)]
        return [[sum(b[r][i] * d[r] * b[r][j] for r in range(k)) for j in range(n)] for i in range(n)]
    M = [[0] * n for _ in range(n)]
    for i in range(n):
        for j in range(i, n):
            if kind == 0 or (kind == 2 and i != j) or (kind == 3 and i < n // 2 <= j):
                M[i][j] = M[j][i] = rng.choice([0, rng.randint(-size, size)])
    if kind == 3:
        order = rng.sample(range(n), n)
        M = [[M[i][j] for j in order] for i in order]
    return M


def test_symmetric_elimination_matches_descartes_and_pivot_oracles():
    # the fraction-free elimination against the Descartes route it replaced
    # and against elimination over Q; a success also shows its last pivot
    # minor equal to the Bareiss determinant, as one unit more is refused.
    # Entries up to 2^200 go through the Descartes route only at n <= 4: its
    # prime search at n = 6 takes over a second
    hyperbolic, e8 = [[0, 1], [1, 0]], _e8()
    named = {  # E8, H + H (two 2 x 2 steps in a row) and -E8 + H
        (8, 0, 0): e8,
        (2, 2, 0): _direct_sum(hyperbolic, hyperbolic),
        (1, 9, 0): _direct_sum([[-x for x in row] for row in e8], hyperbolic),
    }
    for inertia, M in named.items():
        assert _symmetric_inertia(M, integer_determinant(M)) == inertia
    rng = random.Random(1031)
    cases = list(named.values())
    cases += [_random_symmetric(rng, rng.randint(1, 12), 1000) for _ in range(600)]
    cases += [_random_symmetric(rng, rng.randint(1, 12), 2**200) for _ in range(60)]
    singular = 0
    for M in cases:
        det = integer_determinant(M)
        inertia = _symmetric_inertia(M, det)
        assert inertia == pivot_signature(M), M
        if max(abs(x) for row in M for x in row) < 2**100 or len(M) <= 4:
            assert inertia == symmetric_inertia_by_descartes(M, det), M
        with pytest.raises(InternalError, match="came out"):
            _symmetric_inertia(M, det + 1)
        singular += inertia[2] > 0
    assert singular >= 150


def _conjugated(rng, M, moves):
    """P^T M P, P a product of seeded elementary moves, each made on rows and columns alike."""
    M = [row[:] for row in M]
    for _ in range(moves):
        i, j = rng.sample(range(len(M)), 2)
        c = rng.choice([-2, -1, 1, 2])
        M[i] = [x + c * y for x, y in zip(M[i], M[j])]
        for row in M:
            row[i] += c * row[j]
    return M


def test_symmetric_elimination_reads_every_torus_knot_to_168_rows():
    # S + S^T of every T(p, q) with (p - 1)(q - 1) <= 168 on the fiber basis,
    # and up to 80 rows on a seeded conjugate, has Litherland's signature and
    # determinant (-1)^(d/2) Delta(-1) from the closed form; up to 48 rows the
    # Descartes route, elimination over Q and Bareiss agree
    rng = random.Random(1033)
    pairs = [(p, q) for p in range(2, 14) for q in range(p + 1, 170)
             if gcd(p, q) == 1 and (p - 1) * (q - 1) <= 168]
    assert len(pairs) == 256
    for p, q in pairs:
        s = torus_knot_seifert(p, q)
        d = s.size
        det = sum(c * (-1) ** (e + d // 2) for e, c in torus_alexander_closed_form(p, q).items())
        signature = litherland_torus(p, q, Fraction(1, 2))[0]
        expected = ((d + signature) // 2, (d - signature) // 2, 0)
        fiber = [[x + y for x, y in zip(row, col)] for row, col in zip(s.entries, zip(*s.entries))]
        for M in [fiber] if d > 80 else [fiber, _conjugated(rng, fiber, d)]:
            assert _symmetric_inertia(M, det) == expected, (p, q)
            if d <= 48:
                assert integer_determinant(M) == det, (p, q)
                assert symmetric_inertia_by_descartes(M, det) == pivot_signature(M) == expected
