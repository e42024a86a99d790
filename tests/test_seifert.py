import random
from fractions import Fraction
from math import ceil, gcd, isqrt, prod

import pytest

from casson4 import (
    LaurentPolynomial,
    SeifertMatrix,
    SignatureSpectrum,
    alexander_polynomial,
    arf_invariant,
    connected_sum,
    preset_knot,
    signature_spectrum,
    tl_nullity,
    tl_signature,
    torus_knot_seifert,
)
from casson4 import seifert
from casson4.errors import InternalError, InvalidSeifertMatrix, NotCoprime
from casson4.inertia import IntervalWitness, _root_product_bound, integer_determinant
from helpers import (
    _descartes_orbit,
    _minor_sums,
    alexander_at_root_of_unity,
    alexander_by_interpolation,
    brute_force_arf,
    clear_caches,
    congruent,
    corpus_knots,
    litherland_torus,
    numpy_inertia,
    phi_divides,
    pivot_signature,
    proth_split,
    random_seifert,
    random_unimodular,
    rank_over_field,
    skew_alexander_charpoly,
    skew_symmetric_inertia,
    stabilized,
    symmetric_inertia_by_descartes,
    sympy_alexander,
    sympy_laurent_product,
    sympy_minor_sums,
    tl_form,
    tl_orbit_by_elimination,
    torus_alexander_closed_form,
)

L = LaurentPolynomial
TREFOIL = preset_knot("right_trefoil")
FIG8 = preset_knot("figure_eight")
UNKNOT = preset_knot("unknot")


def test_seifert_matrix_validation():
    with pytest.raises(InvalidSeifertMatrix):
        SeifertMatrix([[1]])  # odd size
    with pytest.raises(InvalidSeifertMatrix):
        SeifertMatrix([[0, 0], [0, 0]])  # skew form not unimodular
    with pytest.raises(InvalidSeifertMatrix):
        SeifertMatrix([[1, 2], [0, 1]])  # det(S - S^T) = 4
    SeifertMatrix([])  # unknot is fine


def test_alexander_examples():
    assert alexander_polynomial(TREFOIL) == L({1: 1, 0: -1, -1: 1})
    assert alexander_polynomial(UNKNOT) == L.one()
    assert alexander_polynomial(preset_knot("untwisted_double")) == L.one()


def test_alexander_against_sympy_cofactors():
    rng = random.Random(41)
    checked = 0
    while checked < 10:
        s = random_seifert(rng)
        if s.size > 6:
            continue  # the symbolic oracle gets slow beyond this
        assert alexander_polynomial(s) == sympy_alexander(s)
        checked += 1
    s = torus_knot_seifert(3, 4)
    assert alexander_polynomial(s) == sympy_alexander(s)


def test_tl_signature_examples():
    assert tl_signature(TREFOIL, Fraction(1, 2)) == -2
    assert tl_signature(TREFOIL, 0) == 0
    assert tl_signature(FIG8, Fraction(1, 2)) == 0


def test_tl_signature_matches_eigenvalue_oracle():
    import cmath

    rng = random.Random(59)
    for _ in range(15):
        s = random_seifert(rng)
        if s.size == 0:
            continue
        a = Fraction(rng.randint(0, 5), 6)
        w = cmath.exp(2j * cmath.pi * float(a))
        numeric = [
            [
                (1 - w) * s.entries[i][j] + (1 - w.conjugate()) * s.entries[j][i]
                for j in range(s.size)
            ]
            for i in range(s.size)
        ]
        p, m, _ = numpy_inertia(numeric, tol=1e-6)
        assert tl_signature(s, a) == p - m


def test_spectrum_examples():
    assert signature_spectrum(TREFOIL, 2).values == (0, -2)
    assert signature_spectrum(UNKNOT, 7).values == (0,) * 7
    assert signature_spectrum(TREFOIL, 1).values == (0,)


def _galois_oracle_knots():
    rng = random.Random(2005)
    knots = [s for _, s in corpus_knots()] + [torus_knot_seifert(5, 7)]
    return knots + [random_seifert(rng) for _ in range(20)]


@pytest.mark.parametrize("n", [5, 7, 8, 12, 13])
def test_galois_orbit_spectrum_matches_direct_eliminations(n):
    # the slow path: one certified elimination of H(zeta_n^m) per m, over
    # Q(zeta_n) itself, with the exact rank as the pivot-count oracle.
    # H(zeta_n^(n-m)) is the transpose of H(zeta_n^m), and SignatureSpectrum
    # enforces values[m] == values[n - m], so m <= n/2 covers every m.
    for s in _galois_oracle_knots():
        spectrum = signature_spectrum(s, n)
        for m in range(1, n // 2 + 1):
            H, field = tl_form(s, n, m)
            n_plus, n_minus, n_zero = pivot_signature(H)
            rank = rank_over_field(H, lambda x: x.is_zero(), lambda x: x.inverse())
            assert n_zero == s.size - rank, (s, n, m)
            assert spectrum.values[m] == n_plus - n_minus, (s, n, m)
            assert tl_signature(s, Fraction(m, n)) == n_plus - n_minus
            assert tl_signature(s, Fraction(n - m, n)) == n_plus - n_minus
            assert tl_nullity(s, Fraction(m, n)) == n_zero, (s, n, m)


def _order_two_oracle_knots():
    """The corpus, 200 seeded knots and a seeded conjugate P^T S P of each."""
    rng = random.Random(2011)
    knots = [s for _, s in corpus_knots()] + [random_seifert(rng) for _ in range(200)]
    return knots + [congruent(s, random_unimodular(rng, s.size)) for s in knots if s.size]


def test_half_signature_matches_elimination_oracle():
    # the slow path it replaced: one elimination over Q of S + S^T, which
    # H(-1) doubles.  Order 2 shares its core with certified_signature, so
    # this is its independent check; the mirror -S^T has the negated form
    for s in _order_two_oracle_knots():
        for t in (s, s.mirror()):
            d = t.size
            M = [[t.entries[i][j] + t.entries[j][i] for j in range(d)] for i in range(d)]
            n_plus, n_minus, n_zero = pivot_signature(M)
            assert tl_signature(t, Fraction(1, 2)) == n_plus - n_minus, t
            assert tl_nullity(t, Fraction(1, 2)) == n_zero, t


def test_det_s_plus_s_transpose_is_signed_delta_at_minus_one():
    # the order-2 check rests on det(S + S^T) = (-1)^(d/2) Delta(-1)
    import sympy

    for s in _order_two_oracle_knots():
        d = s.size
        M = sympy.Matrix(d, d, lambda i, j: s.entries[i][j] + s.entries[j][i])
        delta = alexander_polynomial(s)
        value = sum(c * (-1) ** (e % 2) for e, c in delta.items())
        assert (M.det() if d else 1) == (-1) ** (d // 2) * value, s


def test_order_two_is_one_symmetric_inertia(monkeypatch):
    # k = 2 finds no root of unity, signs no cosine sum, solves no V c = v,
    # takes no pencil, asks no prime and builds no characteristic polynomial:
    # it hands S + S^T and its determinant to inertia._symmetric_inertia,
    # which eliminates.  k = 3 keeps the class route: one class, one call of
    # each, and no symmetric inertia
    from casson4 import inertia

    calls, asked, charpolys = [], [], []

    def counted(name):
        real = getattr(seifert, name)

        def spy(*args):
            calls.append((name, args))
            return real(*args)

        monkeypatch.setattr(seifert, name, spy)

    for name in ("_root_of_unity", "cosine_sum_signs", "_solve_mod", "_principal_sums",
                 "_symmetric_inertia"):
        counted(name)
    proth, charpoly = seifert._proth_prime, inertia._charpoly_mod

    def proth_spy(bits, order=1):
        asked.append((bits, order, proth(bits, order)))
        return asked[-1][2]

    def charpoly_spy(H, p):
        charpolys.append(len(H))
        return charpoly(H, p)

    for module in (seifert, inertia):
        monkeypatch.setattr(module, "_proth_prime", proth_spy)
        monkeypatch.setattr(module, "_charpoly_mod", charpoly_spy)
    rng = random.Random(2027)
    knots = [TREFOIL, FIG8, torus_knot_seifert(7, 9)] + [random_seifert(rng) for _ in range(8)]
    for s in filter(lambda s: s.size, knots):
        e = s.entries
        seifert._alexander_cached(e)
        symmetric = [[a + b for a, b in zip(row, col)] for row, col in zip(e, zip(*e))]
        calls.clear()
        asked.clear()
        charpolys.clear()
        seifert._tl_orbit_cached.__wrapped__(e, 2)
        assert calls == [("_symmetric_inertia", (symmetric, integer_determinant(symmetric)))], s
        assert asked == [] and charpolys == [], s
        calls.clear()
        asked.clear()
        seifert._tl_orbit_cached.__wrapped__(e, 3)
        assert sorted(name for name, _ in calls) == sorted(
            ["_root_of_unity", "_principal_sums", "_solve_mod", "cosine_sum_signs"]
        ), s
        assert [order for _, order, _ in asked] == [3], s


def _descartes_oracle_knots():
    rng = random.Random(2007)
    knots = [s for _, s in corpus_knots()] + [torus_knot_seifert(2, 9)]
    return knots + [random_seifert(rng) for _ in range(20)]


def test_descartes_orbit_matches_elimination_oracle():
    # the slow path it replaced: one elimination of H(zeta_k) over Q(zeta_k)
    # per order, Galois images of the pivots for the other roots.  The
    # mirror -S^T has the form -conj(H): negated signatures, same nullity.
    for s in _descartes_oracle_knots():
        for k in range(3, 14):
            values, nullity = tl_orbit_by_elimination(s.entries, k)
            assert seifert._tl_orbit_cached(s.entries, k) == (values, nullity), (s, k)
            negated = tuple(None if v is None else -v for v in values)
            assert seifert._tl_orbit_cached(s.mirror().entries, k) == (negated, nullity)


def _mirror_oracle_knots():
    """The Descartes oracle knots, each also stabilized and congruent."""
    rng = random.Random(2141)
    knots = []
    for s in _descartes_oracle_knots():
        column = [rng.randrange(-1, 2) for _ in range(s.size)]
        knots += [s, stabilized(s, column)]
        if s.size:
            knots.append(congruent(s, random_unimodular(rng, s.size)))
    return knots


def test_mirror_readers_match_the_direct_route():
    # the readers serve -S^T from the entry of the smaller of S and -S^T;
    # the direct route computes -S^T's own orbits, uncached
    orbit = seifert._tl_orbit_cached.__wrapped__
    signs = set()
    for s in _mirror_oracle_knots():
        m = s.mirror()
        signs.add(seifert._oriented(m.entries)[1])
        direct = {k: orbit(m.entries, k) for k in range(1, 14)}
        for n in range(1, 14):
            values = [0] * n
            for k in filter(lambda k: n % k == 0, range(1, n + 1)):
                for a, value in enumerate(direct[k][0]):
                    if value is not None:
                        values[a * n // k] = value
            assert signature_spectrum(m, n).values == tuple(values), (s, n)
            for a in (1 % n, n - 1):
                assert tl_nullity(m, Fraction(a, n)) == direct[n][1], (s, n)
        assert tl_signature(m, Fraction(1, 2)) == direct[2][0][1], s
        assert alexander_polynomial(m) == seifert._alexander_cached.__wrapped__(m.entries), s
        assert arf_invariant(m) == seifert._arf_cached.__wrapped__(m.entries), s
    assert signs == {-1, 1}


def test_mirror_reads_add_no_cache_miss():
    cached = (seifert._tl_orbit_cached, seifert._alexander_cached, seifert._arf_cached)
    rng = random.Random(2143)
    knots = [TREFOIL, FIG8, torus_knot_seifert(3, 5)]
    knots += [s for s in (random_seifert(rng) for _ in range(4)) if s.size]
    for s in knots + [s.mirror() for s in knots]:
        clear_caches()
        spectrum = signature_spectrum(s, 12)
        delta, arf = alexander_polynomial(s), arf_invariant(s)
        misses = [fn.cache_info().misses for fn in cached]
        m = s.mirror()
        assert signature_spectrum(m, 12) == spectrum.negated(), s
        assert (alexander_polynomial(m), arf_invariant(m)) == (delta, arf), s
        assert [fn.cache_info().misses for fn in cached] == misses, s
    clear_caches()


def test_oriented_key_is_shared_by_a_mirror_pair():
    rng = random.Random(2147)
    knots = [s for _, s in corpus_knots()] + [random_seifert(rng) for _ in range(40)]
    signs = set()
    for s in filter(lambda s: s.size, knots):
        key, sign = seifert._oriented(s.entries)
        assert seifert._oriented(s.mirror().entries) == (key, -sign), s
        assert key == min(s.entries, s.mirror().entries)
        assert key == (s.entries if sign == 1 else s.mirror().entries)
        signs.add(sign)
    assert signs == {-1, 1}
    assert seifert._oriented(UNKNOT.entries) == ((), 1)


def _minor_sum_oracle_knots():
    """20 matrices of size 2 to 6, every other one a 12 n-move conjugate."""
    rng = random.Random(2031)
    knots = []
    while len(knots) < 20:
        s = random_seifert(rng)
        if not 0 < s.size <= 6:
            continue  # 2^d principal minors each
        if len(knots) % 2:
            s = congruent(s, random_unimodular(rng, s.size, 12 * s.size))
        knots.append(s)
    return knots


def test_minor_sums_match_principal_minors_within_the_bound():
    import sympy

    knots = _minor_sum_oracle_knots()
    assert max(abs(x) for s in knots for row in s.entries for x in row) >= 100
    for s in knots:
        expected = sympy_minor_sums(s)
        assert _minor_sums(s.entries) == expected
        bound = seifert._minor_sum_bound(s.entries)
        assert max(abs(c) for g in expected for c in g) <= bound
        bits = (2 * bound).bit_length()
        p = seifert._proth_prime(bits)
        assert 2 * bound < 1 << bits < p
        c, b = proth_split(p)
        assert c < 1 << b and sympy.isprime(p)


@pytest.mark.parametrize("bound", [1, 10])
def test_minor_sums_with_too_small_a_prime_raise_internal_error(monkeypatch, bound):
    # with a prime far below the coordinates in the hundreds, their lift
    # goes wrong and a post-check catches it
    rng = random.Random(2)
    s = torus_knot_seifert(2, 5)
    s = congruent(s, random_unimodular(rng, s.size, 12 * s.size))
    assert max(abs(c) for g in _minor_sums(s.entries) for c in g) > 100
    monkeypatch.setattr(seifert, "_minor_sum_bound", lambda entries: bound)
    clear_caches()
    try:
        with pytest.raises(InternalError):
            signature_spectrum(s, 5)
    finally:
        clear_caches()


def _class_count(k):
    """h, the number of classes m in [1, k/2] prime to k: phi(k)/2 for k >= 3, 1 at k = 2."""
    return sum(1 for m in range(1, k // 2 + 1) if gcd(m, k) == 1)


def _ceil_sqrt(n):
    return isqrt(n - 1) + 1 if n else 0


def _row_bounds(entries):
    """(a, rho), recomputed: a_i = sum_j (|S_ij| + |S_ji|)^2 and rho_i = ceil|S_i.| + ceil|S_.i|."""
    a, rho = [], []
    for row, col in zip(entries, zip(*entries)):
        a.append(sum((abs(x) + abs(y)) ** 2 for x, y in zip(row, col)))
        rho.append(_ceil_sqrt(sum(x * x for x in row)) + _ceil_sqrt(sum(y * y for y in col)))
    return a, rho


def _lift_bound(entries, k):
    """The bound _tl_orbit_cached must keep what it lifts within, recomputed.

    At k = 2, where _tl_orbit_cached eliminates and lifts nothing, it is
    the Hadamard bound of S + S^T, which holds e_r(S + S^T) = (-1)^r g_r(-1)
    as the Descartes oracle lifts them; at k >= 3 the coordinates c, within 2^d prod_i (1 + sqrt(a_i)),
    times the Gram factor when h <= d.  Each product of 1 + sqrt is rounded up
    by _root_product_bound, which test_inertia checks against an enclosure.
    """
    d, h = len(entries), _class_count(k)
    if k == 2:
        return _root_product_bound(
            [sum((a + b) ** 2 for a, b in zip(row, col)) for row, col in zip(entries, zip(*entries))]
        )
    bound = 2**d * _root_product_bound(_row_bounds(entries)[0])
    return ceil(bound * Fraction(*seifert._gram_factor(k))) if h <= d else bound


def _row_column_bound(entries, k):
    """2^d prod_i (1 + rho_i), times the Cramer factor ceil(sqrt h)^h 2^(h - 1)
    when h <= d: the looser bound that each bound of _lift_bound must not exceed."""
    d, h = len(entries), _class_count(k)
    bound = 2**d * prod(1 + rho for rho in _row_bounds(entries)[1])
    return bound * _ceil_sqrt(h) ** h * 2 ** (h - 1) if h <= d else bound


def _laurent_coordinates(entries, r):
    """Coefficients a_0 .. a_d of e_r(H(t)) = a_0 + sum_j a_j (t^j + t^-j), from the oracle."""
    shifted = list(_minor_sums(entries)[r])
    for _ in range(r):
        shifted = [x - y for x, y in zip(shifted + [0], [0] + shifted)]
    return tuple(shifted[r:]) + (0,) * (len(entries) - r)


def _conjugate_oracle_cases():
    """(entries, k): 300 seeded knots and their mirrors, each at the orders
    where their base knots have roots of Delta, at 2, and at two seeded orders in 3 .. 64."""
    rng = random.Random(2111)
    knots = []
    while len(knots) < 300:
        s = random_seifert(rng)
        if s.size:
            knots.append(s)
    cases = []
    for s in knots + [s.mirror() for s in knots]:
        orders = {2, 6, 10, 12, 14, 15} | {rng.randrange(3, 65) for _ in range(2)}
        cases += [(s.entries, k) for k in sorted(orders)]
    return cases


def test_conjugate_orbit_matches_interpolation_oracle(monkeypatch):
    # where d + 1 <= h the coordinates are the Laurent coefficients
    # of e_r(H(t)); each class passes every nonzero one, in the order of r,
    # to one cosine_sum_signs call, and a zero one means e_r(H) = 0; k = 2
    # signs no coordinate, and e_r(S + S^T) = (-1)^r g_r(-1) keeps within
    # the Hadamard bound the Descartes oracle sizes its prime by
    seen = []
    signs = seifert.cosine_sum_signs

    def spy(vectors, k, m):
        seen.append([tuple(a) for a in vectors])
        return signs(vectors, k, m)

    monkeypatch.setattr(seifert, "cosine_sum_signs", spy)
    singular = exact = 0
    for entries, k in _conjugate_oracle_cases():
        seen.clear()
        values, nullity = seifert._tl_orbit_cached.__wrapped__(entries, k)
        assert (values, nullity) == _descartes_orbit(entries, k), (entries, k)
        singular += nullity > 0
        bound = _lift_bound(entries, k)
        if k == 2:
            assert seen == []
            minus_one = [sum(c * (-1) ** j for j, c in enumerate(g)) for g in _minor_sums(entries)]
            assert max(map(abs, minus_one)) <= bound, entries
            continue
        assert all(abs(x) <= bound for batch in seen for a in batch for x in a)
        assert len(seen) == _class_count(k) and all(batch == seen[0] for batch in seen)
        d = len(entries)
        if d + 1 <= _class_count(k):
            expected = [_laurent_coordinates(entries, r) for r in range(d + 1)]
            nonzero = [a for a in expected if any(a)]
            assert seen == [nonzero] * _class_count(k), (entries, k)
            exact += 1
    assert singular >= 200 and exact >= 200


def test_conjugate_prime_is_a_proth_prime_one_mod_k(monkeypatch):
    # at k >= 3 the orbit's prime is 1 mod k and holds an omega of order k;
    # k = 2 eliminates: it asks no prime, builds no characteristic
    # polynomial and finds no root of unity
    import sympy

    from casson4 import inertia

    primes, charpolys, roots = [], [], []
    proth, charpoly, root = seifert._proth_prime, inertia._charpoly_mod, seifert._root_of_unity

    def spy(bits, order=1):
        primes.append((bits, order, proth(bits, order)))
        return primes[-1][2]

    def charpoly_spy(H, p):
        charpolys.append(len(H))
        return charpoly(H, p)

    def root_spy(p, k):
        roots.append(k)
        return root(p, k)

    for module in (seifert, inertia):
        monkeypatch.setattr(module, "_proth_prime", spy)
        monkeypatch.setattr(module, "_charpoly_mod", charpoly_spy)
    monkeypatch.setattr(seifert, "_root_of_unity", root_spy)
    rng = random.Random(2113)
    knots = [torus_knot_seifert(3, 5), torus_knot_seifert(2, 9)]
    knots += [random_seifert(rng) for _ in range(6)]
    for s in filter(lambda s: s.size, knots):
        for k in (2, 3, 4, 7, 12, 16, 30, 61, 64):
            clear_caches()
            seifert._alexander_cached(s.entries)
            primes.clear()
            charpolys.clear()
            roots.clear()
            seifert._tl_orbit_cached(s.entries, k)
            if k == 2:
                assert primes == [] and charpolys == [] and roots == [], s
                continue
            [(bits, order, p)] = primes
            assert order == k and (p - 1) % k == 0
            assert p > 2 * _lift_bound(s.entries, k)
            c, b = proth_split(p)
            assert p > 1 << bits and c < 1 << b and sympy.isprime(p)
            omega = seifert._root_of_unity(p, k)
            assert [j for j in range(1, k + 1) if pow(omega, j, p) == 1] == [k]
    clear_caches()


def test_proth_prime_moves_to_the_next_exponent():
    # no multiple of 61 lies below 2^2, so the search moves past b = 2
    import sympy

    p = seifert._proth_prime(2, 61)
    c, b = proth_split(p)
    assert b > 2 and c % 61 == 0 and c % 2 == 1 and c < 1 << b
    assert sympy.isprime(p)


def test_no_prime_outgrows_the_row_column_bound(monkeypatch):
    # every prime is sized by the bound of what it lifts: on seeded matrices and
    # on ones with entries in the hundreds, at every order 1 .. 64, the realized
    # |coefficient| or |coordinate| <= that bound <= the row-and-column bound,
    # the one prime asked for is a prime above twice that bound, 1 mod the
    # order, and Delta and the spectra are the interpolation oracles'.  k = 2
    # eliminates S + S^T: it lifts nothing, and asks no prime and no root of unity
    import sympy

    from casson4 import inertia

    rng = random.Random(2213)
    knots = [s for s in (random_seifert(rng) for _ in range(8)) if s.size]
    knots += _minor_sum_oracle_knots()
    assert max(abs(x) for s in knots for row in s.entries for x in row) >= 100
    lifted, asked, roots = [], [], []
    solve, proth, charpoly = seifert._solve_mod, seifert._proth_prime, inertia._charpoly_mod
    root = seifert._root_of_unity

    def solve_spy(a_rows, b_rows, p):
        X = solve(a_rows, b_rows, p)
        lifted.extend(x - p if x > p // 2 else x for row in X for x in row)
        return X

    def charpoly_spy(H, p):
        chi = charpoly(H, p)
        lifted.extend(x - p if x > p // 2 else x for x in chi)
        return chi

    def proth_spy(bits, order=1):
        asked.append((bits, order, proth(bits, order)))
        return asked[-1][2]

    def root_spy(p, k):
        roots.append(k)
        return root(p, k)

    def sized_by(bound, order):
        [(bits, k, p)] = asked
        assert (bits, k) == ((2 * bound).bit_length(), order)
        assert 2 * bound < p and sympy.isprime(p) and (p - 1) % order == 0

    monkeypatch.setattr(seifert, "_proth_prime", proth_spy)
    monkeypatch.setattr(inertia, "_proth_prime", proth_spy)
    for s in knots:
        e = s.entries
        clear_caches()
        asked.clear()
        delta = seifert._alexander_cached(e)
        assert delta == alexander_by_interpolation(s)
        bound = seifert._coefficient_bound(e)
        a, rho = _row_bounds(e)
        assert bound == _ceil_sqrt(prod(a))
        assert max(abs(c) for _, c in delta.items()) <= bound <= prod(rho)
        sized_by(bound, 1)
        with monkeypatch.context() as patch:
            patch.setattr(seifert, "_solve_mod", solve_spy)
            patch.setattr(inertia, "_charpoly_mod", charpoly_spy)
            patch.setattr(seifert, "_root_of_unity", root_spy)
            for k in range(1, 65):
                lifted.clear()
                asked.clear()
                roots.clear()
                if k == 1:  # the zero form: nothing is lifted
                    assert seifert._tl_orbit_cached(e, k) == ((0,), len(e))
                    assert not lifted and not asked
                    continue
                assert seifert._tl_orbit_cached(e, k) == _descartes_orbit(e, k), (e, k)
                if k == 2:
                    assert not lifted and not asked and not roots, e
                    continue
                bound = _lift_bound(e, k)
                sized_by(bound, k)
                assert max(map(abs, lifted)) <= bound <= _row_column_bound(e, k), (e, k)
    clear_caches()


def _gram_oracle(k):
    """V^T V summed over the classes m as a polynomial in zeta_k: V_(m,0) = 1 and
    V_(m,j) = zeta^(jm) + zeta^(-jm), so each product is a sum of powers of zeta."""
    classes = [m for m in range(1, k // 2 + 1) if gcd(m, k) == 1]
    exponents = [[[0]] + [[j * m % k, -j * m % k] for j in range(1, len(classes))] for m in classes]
    polys = {}
    for i in range(len(classes)):
        for j in range(i, len(classes)):
            poly = [0] * k
            for powers in exponents:
                for a in powers[i]:
                    for b in powers[j]:
                        poly[(a + b) % k] += 1
            polys[i, j] = poly
    return polys


def test_gram_matrix_is_the_sum_over_the_classes():
    # G_ij - sum_m V_mi V_mj vanishes at zeta_k exactly when Phi_k divides it
    for k in range(3, 65):
        G = seifert._gram_matrix(k)
        assert len(G) == _class_count(k) and all(len(row) == len(G) for row in G)
        for (i, j), poly in _gram_oracle(k).items():
            assert G[i][j] == G[j][i]
            assert phi_divides(k, [poly[0] - G[i][j]] + poly[1:]), (k, i, j)


def _fraction_inverse(G):
    """G^-1 by Gauss-Jordan over the rationals."""
    h = len(G)
    rows = [[Fraction(x) for x in row] + [Fraction(int(i == j)) for j in range(h)]
            for i, row in enumerate(G)]
    for c in range(h):
        pivot = next(i for i in range(c, h) if rows[i][c])
        rows[c], rows[pivot] = rows[pivot], rows[c]
        rows[c] = [x / rows[c][c] for x in rows[c]]
        for i in range(h):
            if i != c and rows[i][c]:
                u = rows[i][c]
                rows[i] = [x - u * y for x, y in zip(rows[i], rows[c])]
    return [row[h:] for row in rows]


def test_gram_factor_bounds_the_coordinates_below_the_cramer_factor():
    import numpy

    rng = numpy.random.default_rng(2311)
    for k in range(3, 65):
        G = seifert._gram_matrix(k)
        h = len(G)
        weights = [h] + [2 * h] * (h - 1)
        factor = max(sum(abs(x) * w for x, w in zip(row, weights)) for row in _fraction_inverse(G))
        assert Fraction(*seifert._gram_factor(k)) == factor
        assert factor <= _ceil_sqrt(h) ** h * 2 ** (h - 1)  # the Cramer factor
        # |c_j| <= F max|v| for v = V c, in floats with room for rounding
        classes = [m for m in range(1, k // 2 + 1) if gcd(m, k) == 1]
        V = numpy.array([[1.0] + [2 * numpy.cos(2 * numpy.pi * j * m / k) for j in range(1, h)]
                         for m in classes])
        assert numpy.allclose(V.T @ V, numpy.array(G, dtype=float))
        for c in rng.integers(-1000, 1001, size=(20, h)):
            assert abs(c).max() <= float(factor) * abs(V @ c).max() * (1 + 1e-9) + 1e-6


class _Asked(Exception):
    pass


def _bits_asked(monkeypatch, compute, entries):
    """The bits the first _proth_prime call asks for, in seifert, in inertia
    or in the Descartes oracle of helpers, stopping the computation there."""
    import helpers
    from casson4 import inertia

    asked = []

    def spy(bits, order=1):
        asked.append(bits)
        raise _Asked

    for module in (seifert, inertia, helpers):
        monkeypatch.setattr(module, "_proth_prime", spy)
    with pytest.raises(_Asked):
        compute(entries)
    monkeypatch.undo()
    return asked[0]


@pytest.mark.parametrize(
    "p, q, k, most",  # bits with the row-and-column bound and the Cramer factor: 267, 160, 559
    [(7, 9, 61, 170), (7, 9, 2, 110), (13, 15, 2, 380)],
)
def test_orbit_prime_bits_stay_within_their_guard(monkeypatch, p, q, k, most):
    from casson4 import inertia

    entries = torus_knot_seifert(p, q).entries
    # order 2 sums Delta(-1) first: a stub Delta keeps the Alexander prime out
    # of the count, and both knots have det(S + S^T) = 1 = Delta(-1) for it
    monkeypatch.setattr(seifert, "_alexander_cached", lambda e: LaurentPolynomial.one())
    orbit = seifert._tl_orbit_cached.__wrapped__
    if k == 2:  # it asks no prime; the Descartes route it replaced keeps its guard
        asked = []
        with monkeypatch.context() as patch:
            for module in (seifert, inertia):
                patch.setattr(module, "_proth_prime", lambda *args: asked.append(args))
            orbit(entries, k)
        assert asked == []
        symmetric = [[a + b for a, b in zip(row, col)] for row, col in zip(entries, zip(*entries))]
        oracle = _bits_asked(monkeypatch, lambda M: symmetric_inertia_by_descartes(M, 1), symmetric)
        assert oracle <= most
    else:
        assert _bits_asked(monkeypatch, lambda e: orbit(e, k), entries) <= most


@pytest.mark.parametrize("p, q, most", [(7, 9, 90), (13, 15, 320)])  # 97 and 337 with rho_i
def test_alexander_prime_bits_stay_within_their_guard(monkeypatch, p, q, most):
    entries = torus_knot_seifert(p, q).entries
    assert _bits_asked(monkeypatch, seifert._alexander_cached.__wrapped__, entries) <= most


def test_conjugate_orbit_checks_raise_internal_error(monkeypatch):
    # each post-check of _tl_orbit_cached, reached by one defect at orders 2 and
    # 5: order 2 makes its one check, of the last pivot minor against
    # (-1)^(d/2) Delta(-1), in inertia._symmetric_inertia, so its defects are
    # a wrong Delta or a skewed S + S^T handed to the elimination
    from casson4 import LaurentPolynomial as Laurent

    big = congruent(torus_knot_seifert(2, 5), random_unimodular(random.Random(2), 4, 48))
    t25 = torus_knot_seifert(2, 5)
    for knot in (TREFOIL, FIG8, big, t25):  # cached before _charpoly_mod is patched,
        seifert._alexander_cached(knot.entries)  # under the entries the orbit reads

    def reached(messages, knot=TREFOIL):  # the Alexander polynomials stay cached
        for k, match in messages.items():
            seifert._tl_orbit_cached.cache_clear()
            try:
                with pytest.raises(InternalError, match=match):
                    seifert._tl_orbit_cached(knot.entries, k)
            finally:
                seifert._tl_orbit_cached.cache_clear()

    def add_one(M):  # the trefoil's [[-2, 1], [1, -2]] becomes [[-1, 1], [1, -2]]
        M[0][0] += 1

    def zero_diagonal(M):  # the elimination starts with a 2 x 2 step
        for i, row in enumerate(M):
            row[i] = 0

    def zero_last(M):  # rank 3: a block of one zero is left, and D_4 = 0
        M[-1] = [0] * len(M)
        for row in M:
            row[-1] = 0

    # Delta disagrees with g_d; at k = 2, det(S + S^T) = 3 is not -Delta(-1) = -2
    with monkeypatch.context() as patch:
        patch.setattr(seifert, "_alexander_cached", lambda entries: Laurent({0: 2}))
        reached({2: r"D_2 came out 3, not det M = -2$", 5: "is not det"})
    charpoly = seifert._charpoly_mod

    def lead_two(H, p):
        coeffs = charpoly(H, p)
        coeffs[-1] = 2  # g_0 = 2, and g_d is untouched
        return coeffs

    with monkeypatch.context() as patch:
        patch.setattr(seifert, "_charpoly_mod", lead_two)
        skew_symmetric_inertia(patch, add_one)
        reached({2: r"D_2 came out 1, not det M = 3$", 5: r"e_0\(H\) has coordinates .*, not 1"})
    with monkeypatch.context() as patch:  # too small a prime at k = 5
        patch.setattr(seifert, "_minor_sum_bound", lambda entries: 1)
        skew_symmetric_inertia(patch, zero_diagonal)
        reached({2: r"D_4 came out -310235687, not det M = 5$", 5: "exceeds the bound"}, big)
    with monkeypatch.context() as patch:  # e_1 = trace H = 0: signs +, 0, +
        patch.setattr(
            seifert, "cosine_sum_signs", lambda vectors, k, m: [IntervalWitness(1, 1, 0)] * len(vectors)
        )
        reached({5: "sign changes"}, FIG8)
    with monkeypatch.context() as patch:
        skew_symmetric_inertia(patch, zero_last)
        reached({2: r"D_4 came out 0, not det M = 5$"}, t25)


def test_every_order_takes_the_class_route(monkeypatch):
    # certified_signature is off the signature path: with it raising in
    # every module that holds it, orders 1 .. 12 still give the oracle's
    # signatures and nullities, k = 2 included, which shares only its core
    import sys

    rng = random.Random(2137)
    knots = [TREFOIL, FIG8, torus_knot_seifert(3, 5), torus_knot_seifert(2, 7)]
    knots += [s for s in (random_seifert(rng) for _ in range(8)) if s.size]
    expected = {
        (s, k): _descartes_orbit(s.entries, k) if k > 1 else ((0,), s.size)
        for s in knots
        for k in range(1, 13)
    }

    def refuse(h):
        raise AssertionError("certified_signature on the signature path")

    assert not hasattr(seifert, "certified_signature")
    for name, module in list(sys.modules.items()):
        if name.split(".")[0] == "casson4" and hasattr(module, "certified_signature"):
            monkeypatch.setattr(module, "certified_signature", refuse)
    clear_caches()
    try:
        for (s, k), (values, nullity) in expected.items():
            spectrum = signature_spectrum(s, k)
            for m in range(k):
                a = Fraction(m, k)
                assert spectrum.values[m] == tl_signature(s, a), (s, k, m)
                if gcd(m, k) == 1:
                    assert (tl_signature(s, a), tl_nullity(s, a)) == (values[m], nullity)
    finally:
        clear_caches()


def test_nullity_at_alexander_roots():
    sum_tre_fig8 = connected_sum(TREFOIL, FIG8)
    granny = connected_sum(TREFOIL, TREFOIL)
    cases = [
        (TREFOIL, Fraction(1, 6), -1, 1),  # Delta(zeta_6) = 0, simple root
        (TREFOIL, Fraction(1, 5), -2, 0),
        (torus_knot_seifert(2, 5), Fraction(1, 10), -1, 1),
        (torus_knot_seifert(2, 5), Fraction(3, 10), -3, 1),
        (granny, Fraction(1, 6), -2, 2),  # double root of Delta^2
        (sum_tre_fig8, Fraction(1, 6), -1, 1),
        (granny.mirror(), Fraction(5, 6), 2, 2),
    ]
    for s, a, signature, nullity in cases:
        assert (tl_signature(s, a), tl_nullity(s, a)) == (signature, nullity), (s, a)


def test_spectra_match_litherland_count():
    cases = [((3, 5), [61])]
    cases += [((2, q), range(3, 65)) for q in (3, 5, 7, 9)]
    cases += [((3, 4), range(3, 65))]
    for (p, q), orders in cases:
        s = torus_knot_seifert(p, q)
        for n in orders:
            expected = [litherland_torus(p, q, Fraction(m, n)) for m in range(n)]
            assert signature_spectrum(s, n).values == tuple(e[0] for e in expected)
            for m in range(1, n):
                assert tl_nullity(s, Fraction(m, n)) == expected[m][1], (p, q, n, m)


def test_conjugated_spectrum_matches_the_torus_knot():
    # no field is built or loaded on this path: test_api.py checks that in a fresh interpreter
    s = congruent(torus_knot_seifert(3, 5), random_unimodular(random.Random(3), 8))
    seifert._tl_orbit_cached.cache_clear()
    assert signature_spectrum(s, 61).total() == -256
    assert signature_spectrum(s, 12) == signature_spectrum(torus_knot_seifert(3, 5), 12)


def test_spectrum_builds_no_fraction(monkeypatch):
    # sign witnesses stay integers on the order-k route: no Fraction per sign
    s = torus_knot_seifert(3, 5)  # genus 4
    knots = (s, s.mirror())
    made = []
    new = Fraction.__new__

    def counted(cls, *args, **kwargs):
        made.append(args)
        return new(cls, *args, **kwargs)

    clear_caches()
    monkeypatch.setattr(Fraction, "__new__", staticmethod(counted))
    spectra = [signature_spectrum(knot, n) for knot in knots for n in (13, 12)]
    assert made == []
    Fraction(1, 3)  # the spy is live
    assert made == [(1, 3)]
    monkeypatch.undo()
    expected = [
        [litherland_torus(3, 5, Fraction(m, n))[0] for m in range(n)] for n in (13, 12)
    ]
    assert [x.values for x in spectra[:2]] == [tuple(e) for e in expected]
    assert [x.negated() for x in spectra[:2]] == spectra[2:]
    clear_caches()


def test_unknot_signature_at_order_997():
    assert tl_signature(UNKNOT, Fraction(1, 997)) == 0


def test_float_circle_points_rejected():
    for fn in (tl_signature, tl_nullity):
        with pytest.raises(TypeError):
            fn(TREFOIL, 0.3)
        with pytest.raises(TypeError):
            fn(TREFOIL, 0.5)
    assert tl_signature(TREFOIL, "1/2") == -2


def test_spectrum_validation():
    with pytest.raises(ValueError):
        SignatureSpectrum(2, [1, 0])  # entry zero must vanish
    with pytest.raises(ValueError):
        SignatureSpectrum(3, [0, 2, 4])  # breaks conjugation symmetry
    SignatureSpectrum(2, [0, 16])
    for order in (0, -1):
        with pytest.raises(ValueError, match="^order must be a positive integer$"):
            signature_spectrum(TREFOIL, order)


def test_arf_examples_and_oracle():
    assert arf_invariant(TREFOIL) == 1
    assert arf_invariant(UNKNOT) == 0
    assert arf_invariant(FIG8) == 1
    rng = random.Random(61)
    for _ in range(12):
        s = random_seifert(rng, max_stabilizations=1)
        assert arf_invariant(s) == brute_force_arf(s)


def test_torus_knot_alexander_closed_form():
    for p, q in [
        (2, 3), (2, 5), (2, 7), (3, 4), (3, 5), (4, 5), (5, 6), (3, 7), (9, 11), (11, 13)
    ]:
        s = torus_knot_seifert(p, q)
        assert s.size == (p - 1) * (q - 1)
        assert alexander_polynomial(s) == torus_alexander_closed_form(p, q)


def _alexander_oracle_knots() -> list[SeifertMatrix]:
    """Corpus, torus knots to T(7,9) on two bases, 42 seeded random matrices."""
    rng = random.Random(2024)
    knots = [s for _, s in corpus_knots()]
    for p, q in [(2, 3), (3, 4), (3, 5), (5, 7), (7, 9)]:
        fiber = torus_knot_seifert(p, q)
        knots += [fiber, congruent(fiber, random_unimodular(rng, fiber.size))]
    knots += [random_seifert(rng) for _ in range(30)]
    large = []
    while len(large) < 12:
        # many more moves than random_seifert makes: entries in the hundreds
        s = random_seifert(rng)
        if s.size:
            large.append(congruent(s, random_unimodular(rng, s.size, 12 * s.size)))
    return knots + large


def test_alexander_matches_interpolation_oracle_within_the_bound():
    import sympy

    knots = _alexander_oracle_knots()
    assert max(abs(x) for s in knots for row in s.entries for x in row) >= 100
    for s in knots:
        expected = alexander_by_interpolation(s)
        assert alexander_polynomial(s) == expected
        if not s.size:
            continue
        bound = seifert._coefficient_bound(s.entries)
        # normalizing multiplies by +-t^m, so these are the raw coefficients
        assert max(abs(c) for _, c in expected.items()) <= bound
        bits = (2 * bound).bit_length()
        p = seifert._proth_prime(bits)
        assert 2 * bound < 1 << bits < p
        c, b = proth_split(p)
        assert c < 1 << b and sympy.isprime(p)


def test_alexander_post_check_raises_internal_error(monkeypatch):
    # with a modulus far below the coefficients the lift goes wrong; the
    # value at t = 1 then misses det(S - S^T) = 1
    granny = connected_sum(TREFOIL, TREFOIL)
    assert max(abs(c) for _, c in alexander_polynomial(granny).items()) > 2
    monkeypatch.setattr(seifert, "_coefficient_bound", lambda entries: 1)
    seifert._alexander_cached.cache_clear()
    try:
        with pytest.raises(InternalError):
            alexander_polynomial(granny)
    finally:
        seifert._alexander_cached.cache_clear()


def test_alexander_palindrome_check_raises_internal_error(monkeypatch):
    skew_alexander_charpoly(monkeypatch)
    seifert._alexander_cached.cache_clear()
    try:
        with pytest.raises(InternalError, match="not palindromic"):
            alexander_polynomial(TREFOIL)
    finally:
        seifert._alexander_cached.cache_clear()


def test_torus_knot_examples():
    assert alexander_polynomial(torus_knot_seifert(2, 3)) == alexander_polynomial(TREFOIL)
    assert alexander_polynomial(torus_knot_seifert(2, 5)) == L(
        {2: 1, 1: -1, 0: 1, -1: -1, -2: 1}
    )
    assert abs(tl_signature(torus_knot_seifert(3, 5), Fraction(1, 2))) == 8


def test_torus_knot_rejects_bad_parameters():
    with pytest.raises(NotCoprime):
        torus_knot_seifert(4, 6)
    with pytest.raises(ValueError):
        torus_knot_seifert(1, 5)


def test_mirror_and_connected_sum():
    assert tl_signature(TREFOIL.mirror(), Fraction(1, 2)) == 2
    assert connected_sum(TREFOIL, UNKNOT) == TREFOIL
    assert alexander_polynomial(connected_sum(TREFOIL, FIG8)) == sympy_laurent_product(
        alexander_polynomial(TREFOIL), alexander_polynomial(FIG8)
    )


def test_mirror_is_a_valid_minus_transpose():
    # mirror(), connected_sum and torus_knot_seifert skip the constructor's
    # unimodularity check; the validating constructor must accept what they
    # build, for every torus reference the CLI accepts, in both orders
    rng = random.Random(2137)
    knots = list(seifert.PRESET_KNOTS.values())
    knots += [torus_knot_seifert(p, q) for p, q in ((2, 3), (2, 5), (3, 4), (3, 5), (2, 9))]
    knots += [stabilized(s) for s in knots[:6]]
    knots += [stabilized(s, [rng.randint(-3, 3) for _ in range(s.size)]) for s in knots[5:10]]
    knots += [congruent(s, random_unimodular(rng, s.size)) for s in knots if s.size]

    def skew(e):
        return [[e[i][j] - e[j][i] for j in range(len(e))] for i in range(len(e))]

    assert len(knots) > 30
    for s in knots:
        m, n = s.mirror(), s.size
        assert m.entries == tuple(tuple(-s.entries[j][i] for j in range(n)) for i in range(n))
        assert SeifertMatrix(m.entries) == m
        assert m.mirror() == s
        assert skew(m.entries) == skew(s.entries)

    sums = [connected_sum(a, b) for a, b in zip(knots, knots[1:])]  # knots[0] is the unknot
    sums += [connected_sum(s, s.mirror()) for s in knots[1:12]]
    tori = [
        torus_knot_seifert(p, q)
        for p in range(2, 16)
        for q in range(2, 16)
        if gcd(p, q) == 1 and (p - 1) * (q - 1) <= 168
    ]
    assert len(tori) == 112
    for out in [s.mirror() for s in knots] + sums + tori:
        checked = SeifertMatrix(out.entries)
        assert checked == out and hash(checked) == hash(out)
        assert integer_determinant(skew(out.entries)) == 1


def test_derived_knots_skip_the_determinant(monkeypatch):
    a, b = torus_knot_seifert(3, 4), FIG8

    def refuse(rows):
        raise RuntimeError("integer_determinant called")

    monkeypatch.setattr(seifert, "integer_determinant", refuse)
    for out in (torus_knot_seifert(13, 15), connected_sum(a, b), a.mirror()):
        assert type(out.entries) is tuple  # the key every lru_cache in seifert hashes
        assert all(type(row) is tuple and all(type(x) is int for x in row) for row in out.entries)
        with pytest.raises(RuntimeError, match="integer_determinant called"):
            SeifertMatrix(out.to_lists())


def test_mirror_properties_across_corpus():
    for _, s in corpus_knots():
        m = s.mirror()
        assert alexander_polynomial(m) == alexander_polynomial(s)
        assert arf_invariant(m) == arf_invariant(s)
        for a in (Fraction(1, 2), Fraction(1, 3)):
            assert tl_signature(m, a) == -tl_signature(s, a)


def test_conjugation_symmetry_of_signature():
    for a_num, a_den in [(1, 3), (2, 5), (1, 6), (3, 7)]:
        a = Fraction(a_num, a_den)
        assert tl_signature(TREFOIL, a) == tl_signature(TREFOIL, 1 - a)
        s = torus_knot_seifert(3, 4)
        assert tl_signature(s, a) == tl_signature(s, 1 - a)


def test_congruence_invariance():
    rng = random.Random(67)
    for _ in range(10):
        s = random_seifert(rng, max_stabilizations=1)
        if s.size == 0:
            continue
        t = congruent(s, random_unimodular(rng, s.size))
        assert alexander_polynomial(t) == alexander_polynomial(s)
        assert arf_invariant(t) == arf_invariant(s)
        assert tl_signature(t, Fraction(1, 2)) == tl_signature(s, Fraction(1, 2))
        assert signature_spectrum(t, 3) == signature_spectrum(s, 3)


def test_stabilization_preserves_invariants():
    rng = random.Random(71)
    for _, s in corpus_knots()[:6]:
        column = [rng.randint(-1, 1) for _ in range(s.size)]
        t = stabilized(s, column)
        assert t.size == s.size + 2
        assert alexander_polynomial(t) == alexander_polynomial(s)
        assert arf_invariant(t) == arf_invariant(s)
        assert tl_signature(t, Fraction(1, 2)) == tl_signature(s, Fraction(1, 2))


def test_degeneracy_iff_alexander_root():
    # the nullity of the equivariant form is nonzero exactly when the
    # Alexander polynomial vanishes at the corresponding root of unity
    cases = [
        (TREFOIL, 1, 6, True),   # Delta(zeta_6) = 0
        (TREFOIL, 1, 2, False),  # Delta(-1) = -3
        (TREFOIL, 1, 3, False),
        (FIG8, 1, 2, False),
        (torus_knot_seifert(2, 5), 1, 10, True),
        (torus_knot_seifert(2, 5), 1, 2, False),
    ]
    for s, m, n, vanishes in cases:
        value = alexander_at_root_of_unity(s, n, m)
        assert value.is_zero() == vanishes
        assert (tl_nullity(s, Fraction(m, n)) > 0) == vanishes


def test_murasugi_congruence_across_corpus():
    for name, s in corpus_knots():
        delta_minus_one = alexander_polynomial(s)(-1)
        arf = arf_invariant(s)
        assert (arf == 0) == (delta_minus_one % 8 in (1, 7)), name


def test_half_second_derivative_matches_arf_mod2():
    from casson4 import second_derivative_at_one

    for name, s in corpus_knots():
        d2 = second_derivative_at_one(alexander_polynomial(s))
        assert d2 % 2 == 0, name
        assert (d2 // 2) % 2 == arf_invariant(s), name


def test_basis_moves_keep_their_refusals():
    # helpers.congruent and helpers.stabilized build only valid Seifert matrices
    trefoil = preset_knot("left_trefoil")
    with pytest.raises(ValueError, match="unimodular"):
        congruent(trefoil, [[2, 0], [0, 1]])
    with pytest.raises(ValueError, match="size"):
        congruent(trefoil, [[1, 0, 0], [0, 1, 0], [0, 0, 1]])
    with pytest.raises(ValueError, match="size"):
        congruent(trefoil, [[1, 0], [0]])
    with pytest.raises(ValueError, match="column length"):
        stabilized(trefoil, [1, 0, 0])
    assert congruent(trefoil, [[0, 1], [1, 0]]) == SeifertMatrix([[1, 1], [0, 1]])
    assert stabilized(trefoil).entries == ((1, 0, 0, 0), (1, 1, 0, 0), (0, 0, 0, 1), (0, 0, 0, 0))


def test_fractional_entries_refused_not_truncated():
    # int() would read this as the left trefoil [[1, 0], [1, 1]]
    with pytest.raises(TypeError):
        SeifertMatrix([[1.7, 0.2], [1.9, 1.0]])
    trefoil = preset_knot("left_trefoil")
    with pytest.raises(TypeError):
        congruent(trefoil, [[1, 0.0], [0, 1]])
    with pytest.raises(TypeError):
        SignatureSpectrum(3, [0, -2.0, -2.0])
