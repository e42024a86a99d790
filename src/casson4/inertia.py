"""Certified inertia of Hermitian matrices, by Descartes' rule of signs.

The characteristic polynomial of a Hermitian matrix has only real roots,
so the signs of its coefficients give the inertia exactly
(descartes_inertia).  For a Tristram-Levine form at a root of unity of
order n >= 3 each coefficient is c_0 + sum_j c_j 2 cos(2 pi j / n), with
integer coordinates c in a basis of the real cyclotomic integers: it is
zero exactly when c = 0, and any other sign is certified, all of one
class m in one call (cosine_sum_signs), by an error budget that rests on
the bound |C_j - 2^prec 2 cos| <= 1 proved for the integer cosine table
(fixed_point_cosines); no field is built.  For a rational symmetric
matrix the coefficients are found exactly, in integers after scaling,
modulo one proven prime (certified_signature).
"""

from __future__ import annotations

from dataclasses import dataclass
from fractions import Fraction
from functools import lru_cache
from itertools import count
from math import gcd, isqrt, lcm, prod
from operator import mul
from typing import Sequence

from .errors import InternalError, NotHermitian

_START_PREC = 64
_MAX_PREC = 1 << 16
# working bits beyond prec + 2 bitlen(prec) + 2 s; the table's guard checks they suffice
_GUARD_BITS = 16


@dataclass(slots=True)
class IntervalWitness:
    """The dyadic interval [low, high] / 2^precision, which excludes zero.

    The endpoints stay integers; lower and upper are their Fractions,
    built only on request.
    """

    low: int
    high: int
    precision: int

    @property
    def lower(self) -> Fraction:
        return Fraction(self.low, 1 << self.precision)

    @property
    def upper(self) -> Fraction:
        return Fraction(self.high, 1 << self.precision)


@dataclass(slots=True)
class CertifiedSign:
    value: int  # -1 or +1
    witness: IntervalWitness


def _arctan_inverse(x: int, w: int) -> tuple[int, int]:
    """(A, N): A is the alternating sum of the N nonzero terms
    floor(2^w / ((2i + 1) x^(2i + 1))) of 2^w atan(1/x)."""
    total, power, i = 0, (1 << w) // x, 0
    while term := power // (2 * i + 1):  # power = floor(2^w / x^(2i + 1)), nested floors
        total += -term if i % 2 else term
        power //= x * x
        i += 1
    return total, i


@lru_cache(maxsize=256)
def fixed_point_cosines(n: int, prec: int) -> tuple[int, ...]:
    """Integers C_j with |C_j - 2^prec 2 cos(2 pi j / n)| <= 1, j = 0 .. n-1.

    In integers only, in ulps of 2^-w: w = prec + g, with
    g = 2 bitlen(prec) + 2 s + _GUARD_BITS and s = isqrt(prec) // 2 + 1
    (Brent & Zimmermann, Modern Computer Arithmetic, ch. 4).  The errors:

    1. pi~ = 4 (4 A_5 - A_239) (Machin).  Each of the N_x terms of A_x is
       an exact floor, off by less than 1, and the alternating tail is
       below one ulp, so pi~ is off by E_pi = 16 (N_5 + 1) + 4 (N_239 + 1).
    2. Up to the sign, 2 pi j / n = pi a / n with 0 <= a / n <= 1/2, as
       cos is even and cos(pi - x) = -cos x.  x~ = floor(pi~ a / n) is off
       by E_x = E_pi / 2 + 1.
    3. u = floor(x~^2 / 2^(w + 2s)) stands for 2^w y^2, y = x / 2^s <= pi / 4,
       off by E_2 = E_x + 2 + floor(E_x^2 / 2^(w + 2s)), since
       |x~^2 - X^2| <= E_x (pi 2^w + E_x) for X = 2^w x.
    4. t_0 = 2^w, t_k = floor(t_(k-1) u / (2^w (2k - 1) 2k)) until t_K = 0,
       the Taylor terms of cos sqrt(v), v = u / 2^w.  Their ratios are at
       most v / 2 <= 1/2, so each t_k, and the tail from t_K on, is within
       2 of the exact one, and |d cos sqrt(v) / dv| <= 1/2: the sum is
       within E_c = 2K + ceil(E_2 / 2) of 2^w cos y.
    5. Each of the s doublings c -> floor(c^2 / 2^(w - 1)) - 2^w
       (cos 2y = 2 cos^2 y - 1) takes an error E to
       4E + 2 + floor(E^2 / 2^(w - 1)).
    6. A final error E_s <= 2^(g - 2) gives |c / 2^(g - 1) - 2^prec 2 cos|
       <= 1/2, and rounding adds 1/2.  It also gives E_2 < 2^(w - 4), so
       v < 1, as step 4 assumes.

    The guard evaluates E_s from the actual term counts; if it exceeds
    2^(g - 2), that is an internal error, and no table is built.
    """
    s = isqrt(prec) // 2 + 1
    g = 2 * prec.bit_length() + 2 * s + _GUARD_BITS
    w = prec + g
    one = 1 << w
    a5, n5 = _arctan_inverse(5, w)
    a239, n239 = _arctan_inverse(239, w)
    pi = 4 * (4 * a5 - a239)
    x_error = 8 * (n5 + 1) + 2 * (n239 + 1) + 1
    u_error = x_error + 2 + (x_error * x_error >> (w + 2 * s))
    half = []
    for j in range(n // 2 + 1):
        a, sign = (2 * j, 1) if 4 * j <= n else (n - 2 * j, -1)
        x = pi * a // n
        u = x * x >> (w + 2 * s)
        c, term, k = one, one, 0
        while term:
            k += 1
            term = (term * u >> w) // ((2 * k - 1) * 2 * k)
            c += -term if k % 2 else term
        error = 2 * k + (u_error + 1) // 2
        for _ in range(s):
            c = (c * c >> (w - 1)) - one
            error = 4 * error + 2 + (error * error >> (w - 1))
        if error > 1 << (g - 2):
            raise InternalError(f"error bound of cos(2 pi {j}/{n}) is too wide for {prec} bits")
        half.append(sign * ((c + (1 << (g - 2))) >> (g - 1)))
    return tuple(half[min(j, n - j)] for j in range(n))


def cosine_sum_signs(vectors: Sequence[Sequence[int]], n: int, m: int) -> list[CertifiedSign]:
    """Signs of the nonzero reals a_0 + sum_(j>0) a_j 2 cos(2 pi j m / n), one per a.

    With the integer cosines C of fixed_point_cosines(n, prec),
    W = a_0 2^prec + sum_j a_j C_(jm mod n) lies within
    budget = sum_(j>0) |a_j| of 2^prec times the value, so |W| > budget
    certifies the sign, with the dyadic interval (W -+ budget) / 2^prec as
    witness.  Each precision reads the class's cosines C_(jm mod n) once,
    for every vector, and doubles only for the vectors still undecided.
    The caller has shown each value nonzero by an exact test, so the
    refinement ends.
    """
    signs = [None] * len(vectors)
    width = max(map(len, vectors), default=1)
    pending = [(i, a[0], a[1:], sum(map(abs, a[1:]))) for i, a in enumerate(vectors)]
    prec = _START_PREC
    while pending:
        if prec > _MAX_PREC:
            raise InternalError("fixed-point refinement failed to separate a nonzero value from 0")
        cosines = fixed_point_cosines(n, prec)
        class_cosines = [cosines[j * m % n] for j in range(1, width)]
        undecided = []
        for item in pending:
            i, head, tail, budget = item
            w = (head << prec) + sum(map(mul, tail, class_cosines))
            if abs(w) > budget:
                signs[i] = CertifiedSign(
                    1 if w > 0 else -1, IntervalWitness(w - budget, w + budget, prec)
                )
            else:
                undecided.append(item)
        pending = undecided
        prec *= 2
    return signs


def descartes_inertia(signs: Sequence[int]) -> tuple[int, int, int]:
    """Inertia (n_plus, n_minus, n_zero) of a Hermitian matrix of size n.

    signs[r] is the sign of e_r, the r-th elementary symmetric function of
    the eigenvalues, for r = 0 .. n, so det(x I - H) = sum_r (-1)^r e_r
    x^(n - r).  That polynomial has only real roots, which makes
    Descartes' rule of signs exact for it (Basu, Pollack & Roy, ch. 2):
    n_plus is the number of sign changes of ((-1)^r e_r), n_minus that of
    (e_r), and 0 is a root of multiplicity n - rank, where rank is the
    last r with e_r != 0.  Sign changes that do not add up to the rank
    mean the signs cannot come from a Hermitian matrix: an internal error.
    """
    nonzero = [(r, s) for r, s in enumerate(signs) if s]
    pairs = list(zip(nonzero, nonzero[1:]))
    n_minus = sum(1 for (_, s), (_, t) in pairs if s * t < 0)
    n_plus = sum(1 for (r, s), (q, t) in pairs if s * t * (-1) ** (q - r) < 0)
    rank = nonzero[-1][0]
    if n_plus + n_minus != rank:
        raise InternalError(
            f"{n_plus} + {n_minus} sign changes, but the rank is {rank}"
        )
    return n_plus, n_minus, len(signs) - 1 - rank


# --- exact characteristic polynomials ---

def integer_determinant(rows: Sequence[Sequence[int]]) -> int:
    """Fraction-free (Bareiss) determinant of an integer matrix."""
    M = [list(map(int, row)) for row in rows]
    n = len(M)
    sign = prev = 1
    for k in range(n - 1):
        if not M[k][k]:
            swap = next((r for r in range(k + 1, n) if M[r][k]), None)
            if swap is None:
                return 0
            M[k], M[swap] = M[swap], M[k]
            sign = -sign
        top, pivot = M[k], M[k][k]
        for row in M[k + 1:]:
            a = row[k]
            if a or pivot != prev:  # else the step scales the row by pivot / prev = 1
                for j in range(k + 1, n):
                    row[j] = (row[j] * pivot - a * top[j]) // prev
        prev = pivot
    return sign * M[-1][-1] if M else 1


def ceil_norm(vector: Sequence[int]) -> int:
    """The Euclidean norm of an integer vector, rounded up (by an integer square root)."""
    square = sum(map(mul, vector, vector))
    return isqrt(square - 1) + 1 if square else 0


def _odd_prime_product(limit: int) -> int:
    """The product of the odd primes below limit, by a sieve of Eratosthenes."""
    composite = bytearray(limit)
    for i in range(3, isqrt(limit - 1) + 1, 2):
        if not composite[i]:
            composite[i * i :: 2 * i] = bytes([1]) * len(range(i * i, limit, 2 * i))
    return prod(i for i in range(3, limit, 2) if not composite[i])


_SMALL_ODD_PRIMES = _odd_prime_product(1000)


@lru_cache(maxsize=1024)
def _proth_prime(bits: int, order: int = 1) -> int:
    """A prime c 2^b + 1 with b >= bits and odd c < 2^b, proven prime by Proth's theorem.

    Proth: such an N is prime if a^((N-1)/2) = -1 mod N for some a.  A
    prime N gives +-1 for every a prime to it, so any other value shows
    that N is composite and the search moves on, to the next b once no c
    is left.  Every c is a multiple of the odd part of order, and
    2^b >= its even part, so order divides N - 1.

    Before any power, a sieve skips N when g = gcd(N, P) is neither 1 nor
    N, P the product of the odd primes below 1000: then g is a proper
    factor of N.  A prime N has no proper factor, so the sieve skips only
    composites, which the test above never returns; the first N it
    proves, and so the p returned for each (bits, order), is the one the
    unsieved search finds.
    """
    odd = order // (order & -order)
    for b in count(max(bits, (order & -order).bit_length() - 1)):
        for c in range(odd, 1 << b, 2 * odd):
            candidate = (c << b) + 1
            if gcd(candidate, _SMALL_ODD_PRIMES) not in (1, candidate):
                continue
            for a in (3, 5, 7, 11, 13):
                power = pow(a, candidate >> 1, candidate)
                if power == candidate - 1:
                    return candidate
                if power != 1:
                    break


def _charpoly_mod(H: list[list[int]], p: int) -> list[int]:
    """Coefficients, constant first, of det(x I - H) mod the prime p.  H, reduced
    mod p or not, is taken in place to upper Hessenberg form by similarity, then
    the characteristic polynomials of its leading blocks follow by the usual
    recurrence (Cohen, GTM 138, Algorithm 2.2.9): O(n^3) in all."""
    n = len(H)
    for m in range(1, n - 1):
        pivot = next((i for i in range(m, n) if H[i][m - 1] % p), None)
        if pivot is None:
            continue
        H[m], H[pivot] = H[pivot], H[m]
        for row in H:
            row[m], row[pivot] = row[pivot], row[m]
        inverse = pow(H[m][m - 1], -1, p)
        # row i -= u_i row m for every i > m, then column m += sum u_i column i:
        # one similarity, as the row moves commute.  They skip column m - 1, never
        # read again, and leave their results unreduced (each adds less than p^2).
        top = H[m][m:] = [x % p for x in H[m][m:]]
        factors = [H[i][m - 1] * inverse % p for i in range(m + 1, n)]
        for i, u in enumerate(factors, m + 1):
            if u:
                H[i][m:] = [x - u * y for x, y in zip(H[i][m:], top)]
        if any(factors):
            for row in H:
                row[m] = (row[m] + sum(map(mul, factors, row[m + 1:]))) % p
    polys = [[1]]
    for k in range(n):
        last = polys[k]
        poly = [0] + last
        poly[: k + 1] = [x - H[k][k] * y for x, y in zip(poly, last)]
        subdiagonal = 1
        for i in range(k - 1, -1, -1):
            subdiagonal = subdiagonal * H[i + 1][i] % p
            if not subdiagonal:
                break
            c = H[i][k] * subdiagonal % p
            if c:
                poly[: i + 1] = [x - c * y for x, y in zip(poly, polys[i])]
        polys.append([x % p for x in poly])
    return polys[n]


def _charpoly_bound(M: list[list[int]]) -> int:
    """B >= |e_r(M)| for every r, for a symmetric integer matrix M.

    Hadamard bounds each principal minor on the index set I by the
    product of rho_i = ceil|M_i.| over I, so |e_r| <= e_r(rho) <=
    prod_i (1 + rho_i).
    """
    return prod(1 + ceil_norm(row) for row in M)


def certified_signature(h: Sequence[Sequence]) -> tuple[int, int, int]:
    """Exact inertia (n_plus, n_minus, n_zero) of a rational symmetric matrix.

    Entries may be ints and Fractions.  Raises ValueError for a matrix
    that is not square, TypeError for any other kind of entry, and
    NotHermitian when the matrix differs from its transpose.

    M = L h, with L the lcm of the denominators, has the same inertia
    and integer e_r(M).  They are read from det(x I - M) modulo a Proth
    prime p > 2 B (B from _charpoly_bound), as the residues nearest zero,
    and e_n must equal det M, taken apart by Bareiss.
    """
    n = len(h)
    for row in h:
        if len(row) != n:
            raise ValueError("matrix must be square")
        for entry in row:
            if not isinstance(entry, (int, Fraction)):
                raise TypeError(f"cannot take the inertia of a {type(entry)!r} entry")
    scale = lcm(*(x.denominator for row in h for x in row))
    M = [[x.numerator * (scale // x.denominator) for x in row] for row in h]
    for i in range(n):
        for j in range(i + 1, n):
            if M[i][j] != M[j][i]:
                raise NotHermitian(f"entry ({i},{j}) breaks symmetry")
    p = _proth_prime((2 * _charpoly_bound(M)).bit_length())
    chi = _charpoly_mod([[x % p for x in row] for row in M], p)
    # the x^(n - r) coefficient is (-1)^r e_r
    e = [(-1) ** r * (c - p if c > p // 2 else c) for r, c in enumerate(reversed(chi))]
    det = integer_determinant(M)
    if e[n] != det:
        raise InternalError(f"e_{n}(M) came out {e[n]}, not det M = {det}")
    return descartes_inertia([(x > 0) - (x < 0) for x in e])
