import random
from fractions import Fraction
from math import ceil, gcd, sqrt

import pytest

from casson4 import (
    LaurentPolynomial,
    SeifertMatrix,
    SignatureSpectrum,
    alexander_polynomial,
    arf_invariant,
    connected_sum,
    mirror,
    preset_knot,
    signature_spectrum,
    tl_nullity,
    tl_signature,
    torus_knot_seifert,
)
from casson4 import seifert
from casson4.errors import InternalError, InvalidSeifertMatrix, NotCoprime
from casson4.inertia import CertifiedSign
from helpers import (
    _descartes_orbit,
    _minor_sums,
    alexander_at_root_of_unity,
    alexander_by_interpolation,
    brute_force_arf,
    clear_caches,
    corpus_knots,
    litherland_torus,
    numpy_inertia,
    pivot_signature,
    random_seifert,
    random_unimodular,
    rank_over_field,
    skew_alexander_charpoly,
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


def test_half_signature_matches_elimination_oracle():
    # the slow path it replaced: one elimination of H(-1) = 2 (S + S^T);
    # the mirror -S^T has the negated form
    rng = random.Random(2011)
    knots = [s for _, s in corpus_knots()] + [random_seifert(rng) for _ in range(200)]
    for s in knots:
        for t in (s, s.mirror()):
            d = t.size
            H = [[2 * (t.entries[i][j] + t.entries[j][i]) for j in range(d)] for i in range(d)]
            n_plus, n_minus, n_zero = pivot_signature(H)
            assert tl_signature(t, Fraction(1, 2)) == n_plus - n_minus, t
            assert tl_nullity(t, Fraction(1, 2)) == n_zero, t


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
        knots += [s, s.stabilized(column)]
        if s.size:
            knots.append(s.congruent(random_unimodular(rng, s.size)))
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
            s = s.congruent(random_unimodular(rng, s.size, 12 * s.size))
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
        assert p > 2 * bound
        k, rest = divmod(p - 1, 1 << bits)
        assert rest == 0 and k % 2 == 1 and k < 1 << bits
        assert sympy.isprime(p)


@pytest.mark.parametrize("bound", [1, 10])
def test_minor_sums_with_too_small_a_prime_raise_internal_error(monkeypatch, bound):
    # with a prime far below the coordinates in the hundreds, their lift
    # goes wrong and a post-check catches it
    rng = random.Random(2)
    s = torus_knot_seifert(2, 5)
    s = s.congruent(random_unimodular(rng, s.size, 12 * s.size))
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


def _coordinate_bound(entries, k):
    """The bound _tl_orbit_cached must keep its coordinates within, recomputed."""
    d, h = len(entries), _class_count(k)
    bound = 2**d * seifert._minor_sum_bound(entries)
    if d + 1 > h:
        bound *= ceil(sqrt(h)) ** h * 2 ** (h - 1)
    return bound


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
    # to one cosine_sum_signs call, and a zero one means e_r(H) = 0
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
        bound = _coordinate_bound(entries, k)
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
    import sympy

    primes = []
    proth = seifert._proth_prime

    def spy(bits, order=1):
        primes.append((bits, order, proth(bits, order)))
        return primes[-1][2]

    monkeypatch.setattr(seifert, "_proth_prime", spy)
    rng = random.Random(2113)
    knots = [torus_knot_seifert(3, 5), torus_knot_seifert(2, 9)]
    knots += [random_seifert(rng) for _ in range(6)]
    for s in filter(lambda s: s.size, knots):
        for k in (2, 3, 4, 7, 12, 16, 30, 61, 64):
            clear_caches()
            primes.clear()
            seifert._tl_orbit_cached(s.entries, k)
            bits, order, p = primes[0]  # the orbit asks before Alexander
            assert order == k and (p - 1) % k == 0
            assert p > 2 * _coordinate_bound(s.entries, k)
            c, b = p - 1, 0
            while c % 2 == 0:
                c, b = c // 2, b + 1
            assert b >= bits and c < 1 << b and sympy.isprime(p)
            omega = seifert._root_of_unity(p, k)
            assert [j for j in range(1, k + 1) if pow(omega, j, p) == 1] == [k]
    clear_caches()


def test_proth_prime_moves_to_the_next_exponent():
    # no odd multiple of 61 lies below 2^2, so the search moves past b = 2
    import sympy

    p = seifert._proth_prime(2, 61)
    b = ((p - 1) & (1 - p)).bit_length() - 1
    c = (p - 1) >> b
    assert b > 2 and c % 61 == 0 and c % 2 == 1 and c < 1 << b
    assert sympy.isprime(p)


def test_conjugate_orbit_checks_raise_internal_error(monkeypatch):
    # each post-check of _tl_orbit_cached, reached by one defect at orders 2 and 5
    from casson4 import LaurentPolynomial as Laurent

    big = torus_knot_seifert(2, 5).congruent(random_unimodular(random.Random(2), 4, 48))
    for knot in (TREFOIL, FIG8, big):  # cached before _charpoly_mod is patched,
        seifert._alexander_cached(knot.entries)  # under the entries the orbit reads

    def reached(match, knot=TREFOIL):  # the Alexander polynomials stay cached
        for k in (2, 5):
            seifert._tl_orbit_cached.cache_clear()
            try:
                with pytest.raises(InternalError, match=match):
                    seifert._tl_orbit_cached(knot.entries, k)
            finally:
                seifert._tl_orbit_cached.cache_clear()

    with monkeypatch.context() as patch:  # Delta disagrees with g_d
        patch.setattr(seifert, "_alexander_cached", lambda entries: Laurent({0: 2}))
        reached("is not det")
    charpoly = seifert._charpoly_mod

    def lead_two(H, p):
        coeffs = charpoly(H, p)
        coeffs[-1] = 2  # g_0 = 2, and g_d is untouched
        return coeffs

    with monkeypatch.context() as patch:
        patch.setattr(seifert, "_charpoly_mod", lead_two)
        reached("not 1")
    with monkeypatch.context() as patch:  # too small a prime
        patch.setattr(seifert, "_minor_sum_bound", lambda entries: 1)
        reached("exceeds the bound", big)
    with monkeypatch.context() as patch:  # e_1 = trace H = 0: signs +, 0, +
        patch.setattr(
            seifert, "cosine_sum_signs", lambda vectors, k, m: [CertifiedSign(1, None)] * len(vectors)
        )
        reached("sign changes", FIG8)


def test_every_order_takes_the_class_route(monkeypatch):
    # certified_signature is off the signature path: with it raising in
    # every module that holds it, orders 1 .. 12 still give the oracle's
    # signatures and nullities, k = 2 included
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
        (mirror(granny), Fraction(5, 6), 2, 2),
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
    s = torus_knot_seifert(3, 5).congruent(random_unimodular(random.Random(3), 8))
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
        knots += [fiber, fiber.congruent(random_unimodular(rng, fiber.size))]
    knots += [random_seifert(rng) for _ in range(30)]
    large = []
    while len(large) < 12:
        # many more moves than random_seifert makes: entries in the hundreds
        s = random_seifert(rng)
        if s.size:
            large.append(s.congruent(random_unimodular(rng, s.size, 12 * s.size)))
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
        assert p > 2 * bound
        k, rest = divmod(p - 1, 1 << bits)
        assert rest == 0 and k % 2 == 1 and k < 1 << bits
        assert sympy.isprime(p)


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
    assert tl_signature(mirror(TREFOIL), Fraction(1, 2)) == 2
    assert connected_sum(TREFOIL, UNKNOT) == TREFOIL
    assert alexander_polynomial(connected_sum(TREFOIL, FIG8)) == sympy_laurent_product(
        alexander_polynomial(TREFOIL), alexander_polynomial(FIG8)
    )


def test_mirror_is_a_valid_minus_transpose():
    # mirror() skips the constructor's unimodularity check; the validating
    # constructor must accept what it builds
    rng = random.Random(2137)
    knots = list(seifert.PRESET_KNOTS.values())
    knots += [torus_knot_seifert(p, q) for p, q in ((2, 3), (2, 5), (3, 4), (3, 5), (2, 9))]
    knots += [s.stabilized() for s in knots[:6]]
    knots += [s.stabilized([rng.randint(-3, 3) for _ in range(s.size)]) for s in knots[5:10]]
    knots += [s.congruent(random_unimodular(rng, s.size)) for s in knots if s.size]

    def skew(e):
        return [[e[i][j] - e[j][i] for j in range(len(e))] for i in range(len(e))]

    assert len(knots) > 30
    for s in knots:
        m, n = s.mirror(), s.size
        assert m.entries == tuple(tuple(-s.entries[j][i] for j in range(n)) for i in range(n))
        assert SeifertMatrix(m.entries) == m
        assert m.mirror() == s
        assert skew(m.entries) == skew(s.entries)


def test_mirror_properties_across_corpus():
    for _, s in corpus_knots():
        m = mirror(s)
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
        t = s.congruent(random_unimodular(rng, s.size))
        assert alexander_polynomial(t) == alexander_polynomial(s)
        assert arf_invariant(t) == arf_invariant(s)
        assert tl_signature(t, Fraction(1, 2)) == tl_signature(s, Fraction(1, 2))
        assert signature_spectrum(t, 3) == signature_spectrum(s, 3)


def test_stabilization_preserves_invariants():
    rng = random.Random(71)
    for _, s in corpus_knots()[:6]:
        column = [rng.randint(-1, 1) for _ in range(s.size)]
        t = s.stabilized(column)
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


def test_fractional_entries_refused_not_truncated():
    # int() would read this as the left trefoil [[1, 0], [1, 1]]
    with pytest.raises(TypeError):
        SeifertMatrix([[1.7, 0.2], [1.9, 1.0]])
    trefoil = preset_knot("left_trefoil")
    with pytest.raises(TypeError):
        trefoil.congruent([[1, 0.0], [0, 1]])
    with pytest.raises(TypeError):
        SignatureSpectrum(3, [0, -2.0, -2.0])
