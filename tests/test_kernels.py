"""Direct oracle tests of the three exact elimination kernels.

integer_determinant is checked against sympy's determinant, _solve_mod by
A X = B mod p, and _charpoly_mod against sympy's characteristic polynomial
reduced mod p, on both of its routes.  The inputs put zeros where the pivots
would go, make matrices singular, close Krylov spaces early, and shift
entries by multiples of p, so that a pivot chosen by an unreduced value
shows.
"""

import random

import pytest
import sympy

from casson4 import inertia, torus_knot_seifert
from casson4.errors import InternalError
from casson4.inertia import _charpoly_mod, _charpoly_packed, _proth_prime, integer_determinant
from casson4.seifert import _solve_mod
from helpers import charpoly_bound, sympy_determinant

PRIMES = (10007, 135 * 2**90 + 1)  # a small prime and a 98-bit Proth prime


def _random_matrix(rng, n, low=-3, high=3):
    return [[rng.randint(low, high) for _ in range(n)] for _ in range(n)]


def _determinant_cases():
    rng = random.Random(4101)
    for n in range(10):
        for _ in range(3):
            yield _random_matrix(rng, n)
        if n >= 2:
            M = _random_matrix(rng, n)
            M[0][0] = 0  # a zero leading pivot
            yield M
            M = _random_matrix(rng, n)
            M[1] = [2 * x for x in M[0]]  # singular: the leading 2 x 2 minor is 0
            yield M
            M = _random_matrix(rng, n)
            for row in M:
                row[n - 1] = 0  # singular: a zero last column
            yield M
            # sparse: most steps leave most rows as they are
            yield [[rng.choice((0, 0, 0, 0, 1, -1, 2)) for _ in range(n)] for _ in range(n)]
        if n >= 3:  # a zero pivot that only shows after one step
            M = _random_matrix(rng, n)
            M[1][:2] = [2 * M[0][0], 2 * M[0][1]]
            yield M


def test_integer_determinant_matches_sympy():
    cases = list(_determinant_cases())
    assert any(sympy_determinant(M) == 0 for M in cases)
    for M in cases:
        before = [row[:] for row in M]
        assert integer_determinant(M) == sympy_determinant(M), M
        assert M == before  # the input is not touched


def test_integer_determinant_of_large_entries():
    rng = random.Random(4102)
    for n in (2, 5, 8):
        M = _random_matrix(rng, n, -(10**30), 10**30)
        assert integer_determinant(M) == sympy_determinant(M)


def _invertible_mod(rng, n, p):
    """A random n x n matrix invertible mod p, whose first column is zero in
    its first min(2, n - 1) rows: the first pivot lies one or two rows down."""
    while True:
        A = _random_matrix(rng, n, -5, 5)
        for row in A[: min(2, n - 1)]:
            row[0] = 0
        if integer_determinant(A) % p:
            return A


@pytest.mark.parametrize("p", PRIMES)
def test_solve_mod_solves_with_zero_leading_pivots(p):
    rng = random.Random(p)
    for n in range(1, 9):
        for m in {1, n + 3, max(1, n - 1)} - {n}:
            A = _invertible_mod(rng, n, p)
            B = _random_matrix(rng, max(n, m), -(10**6), 10**6)
            B = [row[:m] for row in B[:n]]
            # entries shifted by multiples of p, and A[0][0] = 0 turned into p,
            # which must not be taken for a pivot
            shifted = [[x + p * rng.randint(-2, 2) for x in row] for row in A]
            if n > 1:
                shifted[0][0] = p
            for a_rows in (A, shifted):
                X = _solve_mod(a_rows, B, p)
                assert len(X) == n and all(len(row) == m for row in X)
                assert all(0 <= x < p for row in X for x in row)
                for i in range(n):
                    for j in range(m):
                        value = sum(A[i][k] * X[k][j] for k in range(n))
                        assert (value - B[i][j]) % p == 0, (n, m, i, j)


def test_solve_mod_names_the_column_of_a_singular_matrix():
    with pytest.raises(InternalError, match="column 1 has no pivot mod 7"):
        _solve_mod([[1, 2], [2, 4]], [[1], [1]], 7)
    with pytest.raises(InternalError, match="column 0 has no pivot mod 7"):
        _solve_mod([[7, 1], [14, 3]], [[1], [1]], 7)


def _sympy_charpoly_mod(H, p):
    poly = sympy.Matrix(len(H), len(H), [x for row in H for x in row]).charpoly()
    return [int(c) % p for c in reversed(poly.all_coeffs())]


N0, B0 = inertia._PACKED_MIN_ROWS, inertia._PACKED_MAX_BITS
# with primes of B0 and of B0 + 1 bits: _charpoly_mod packs for the first only
CHARPOLY_PRIMES = PRIMES + (sympy.prevprime(1 << B0), sympy.nextprime(1 << B0))


def _charpoly_cases(p):
    rng = random.Random(p + 1)
    for n in range(10):
        yield [[rng.randrange(p) for _ in range(n)] for _ in range(n)]
        yield _random_matrix(rng, n)
    # block upper triangular, with a zero subdiagonal entry at (1, 0): steps 1
    # and 2 find no pivot, and step 3 pivots in the lower block
    upper, lower = _random_matrix(rng, 2), _random_matrix(rng, 5)
    upper[1][0] = 0
    H = [row + [rng.randint(-3, 3) for _ in range(5)] for row in upper]
    H += [[0, 0] + row for row in lower]
    yield H
    yield [row[:3] + [0] * 3 for row in _random_matrix(rng, 6)]  # singular
    yield [[int(i + 1 == j) for j in range(7)] for i in range(7)]  # nilpotent
    # the sizes around the packed route's limit, and Krylov spaces of e_0 that
    # close early: every column of the packed route restarts on the zero
    # matrix, the identity and the nilpotent shift, which takes e_(j+1) to e_j
    for n in (N0 - 1, N0, 24, 48):
        yield [[rng.randrange(p) for _ in range(n)] for _ in range(n)]
    n, half = N0, N0 // 2
    yield _random_matrix(rng, n)
    yield [[0] * n for _ in range(n)]
    yield [[int(i == j) for j in range(n)] for i in range(n)]
    yield [[int(i + 1 == j) for j in range(n)] for i in range(n)]
    B = [[rng.randrange(p) for _ in range(half)] for _ in range(half)]
    yield [row + [0] * half for row in B] + [[0] * half + row for row in B]  # diag(B, B)
    # block upper triangular: e_0's space closes in the leading 3 x 3 block,
    # and every later vector has a part in it to eliminate
    H = _random_matrix(rng, n)
    for row in H[3:]:
        row[:3] = [0, 0, 0]
    yield H
    for n in (N0, 48):  # every slot of the packed route at its largest
        yield [[p - 1] * n for _ in range(n)]
    # symmetric tridiagonal pencils -(S + S^T) of T(2, q), 20 to 66 rows: the
    # list similarity has no multiplier to apply, while every packed Krylov
    # column stays sparse
    for q in (21, 41, 49, 67):
        yield _half_pencil(2, q)


def _half_pencil(p, q):
    """-(S + S^T) for T(p, q)'s Seifert matrix S: the pencil t S - S^T at t = -1."""
    S = torus_knot_seifert(p, q).entries
    return [[-(a + b) for a, b in zip(row, col)] for row, col in zip(S, zip(*S))]


@pytest.mark.parametrize("p", CHARPOLY_PRIMES)
def test_charpoly_mod_matches_sympy(p, monkeypatch):
    rng = random.Random(p + 2)
    cases = [(H, _sympy_charpoly_mod(H, p)) for H in _charpoly_cases(p)]
    for H, expected in cases:
        assert _charpoly_mod([row[:] for row in H], p) == expected, H
        # the same matrix mod p, with every entry moved by a multiple of p and
        # each zero of the first column turned into p: no such p may be a pivot
        shifted = [[x + p * rng.randint(-3, 3) for x in row] for row in H]
        for row in shifted[1:]:
            if row[0] % p == 0:
                row[0] = p
        if len(H) >= N0:  # the packed route, at either prime, only reads H
            before = [row[:] for row in shifted]
            assert _charpoly_packed(shifted, p) == expected, H
            assert shifted == before
        assert _charpoly_mod(shifted, p) == expected, H
    monkeypatch.setattr(inertia, "_PACKED_MIN_ROWS", 1 << 30)  # the list route only
    for H, expected in cases:
        assert _charpoly_mod([row[:] for row in H], p) == expected, H


def test_charpoly_route_is_chosen_by_size_prime_and_shape(monkeypatch):
    calls = []
    monkeypatch.setattr(inertia, "_charpoly_packed", lambda H, p: calls.append((len(H), p)) or [])
    small, large = CHARPOLY_PRIMES[-2:]
    for n, p in ((N0 - 1, small), (N0, small), (N0, large), (48, small), (48, large)):
        corner = [[0] * n for _ in range(n)]
        corner[-1][0] = 1  # one entry below the subdiagonal
        _charpoly_mod(corner, p)
    assert calls == [(N0, small), (48, small)]
    # a matrix that is already upper Hessenberg takes the list route at any
    # size: the tridiagonal pencils of T(2, 41) and T(2, 67), 40 and 66 rows,
    # at their own packable primes; T(7, 9)'s banded pencil, 48 rows, packs
    calls.clear()
    for p, q in ((2, 41), (2, 67), (7, 9)):
        H = _half_pencil(p, q)
        prime = _proth_prime((2 * charpoly_bound(H)).bit_length(), 2)
        assert len(H) >= N0 and prime.bit_length() <= B0
        _charpoly_mod(H, prime)
    assert [n for n, _ in calls] == [48]
