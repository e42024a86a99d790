"""Certified inertia of Hermitian matrices: by Descartes' rule of signs, or by
elimination for integer ones.

The characteristic polynomial of a Hermitian matrix has only real roots,
so the signs of its coefficients give the inertia exactly
(descartes_inertia).  For a Tristram-Levine form at a root of unity of
order n >= 3 each coefficient is c_0 + sum_j c_j 2 cos(2 pi j / n), with
integer coordinates c in a basis of the real cyclotomic integers: it is
zero exactly when c = 0, and any other sign is certified, all of one
class m in one call (cosine_sum_signs), by an error budget that rests on
the bound |C_j - 2^prec 2 cos| <= 1 proved for the integer cosine table
(fixed_point_cosines).  Each such sign is its witness, a dyadic interval
that excludes zero (IntervalWitness.sign); no field is built.  A
symmetric integer matrix, such as S + S^T at order 2, takes no
characteristic polynomial and no prime: one fraction-free symmetric
elimination reads its inertia from the signs of its pivots
(_symmetric_inertia).
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
# fraction bits beyond bitlen(n) of _root_product_bound's factors
_ROOT_GUARD_BITS = 8
# where _charpoly_mod's packed route starts to beat its list route (CHANGES.md)
_PACKED_MIN_ROWS = 20
_PACKED_MAX_BITS = 128


@dataclass(slots=True)
class IntervalWitness:
    """The dyadic interval [low, high] / 2^precision, which excludes zero.

    It is the certified sign of the value it encloses: sign is +1 when
    low > 0 and -1 when high < 0.  The endpoints stay integers.
    """

    low: int
    high: int
    precision: int

    @property
    def sign(self) -> int:
        return 1 if self.low > 0 else -1


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


def cosine_sum_signs(vectors: Sequence[Sequence[int]], n: int, m: int) -> list[IntervalWitness]:
    """Signs of the nonzero reals a_0 + sum_(j>0) a_j 2 cos(2 pi j m / n), one per a.

    With the integer cosines C of fixed_point_cosines(n, prec),
    W = a_0 2^prec + sum_j a_j C_(jm mod n) lies within
    budget = sum_(j>0) |a_j| of 2^prec times the value, so |W| > budget
    certifies the sign: the dyadic interval (W -+ budget) / 2^prec
    excludes zero, and is returned as the sign's IntervalWitness.  Each
    precision reads the class's cosines C_(jm mod n) once, for every
    vector, and doubles only for the vectors still undecided.
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
                signs[i] = IntervalWitness(w - budget, w + budget, prec)
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
        raise InternalError(f"{n_plus} + {n_minus} sign changes, but the rank is {rank}")
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


def _ceil_sqrt(square: int) -> int:
    """The square root of a non-negative integer, rounded up."""
    return isqrt(square - 1) + 1 if square else 0


def ceil_norm(vector: Sequence[int]) -> int:
    """The Euclidean norm of an integer vector, rounded up."""
    return _ceil_sqrt(sum(map(mul, vector, vector)))


def _root_product_bound(squares: Sequence[int]) -> int:
    """An integer B >= prod_i (1 + sqrt(a_i)) for non-negative integers a_i.

    One fixed-point product: each factor is rounded up to f fraction bits,
    f = bitlen(n) + _ROOT_GUARD_BITS, and only the product is rounded to an
    integer.  Each factor is at least 1 and gains less than 2^-f, so B is
    below (1 + 2^-f)^n < e^(2^-_ROOT_GUARD_BITS) times the product, plus 1.
    """
    f = len(squares).bit_length() + _ROOT_GUARD_BITS
    scaled = prod((1 << f) + _ceil_sqrt(a << 2 * f) for a in squares)
    return -(-scaled >> f * len(squares))


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
    """The least prime N = c 2^b + 1 > 2^bits with c < 2^b and order | N - 1
    that Proth's theorem proves with one of the witnesses 3, 5, 7, 11, 13.

    Proth: such an N is prime if a^((N-1)/2) = -1 mod N for some a.  A
    prime N gives +-1 for every a prime to it, so any other value shows
    that N is composite and the search moves on.  N - 1 >= 2^bits and
    N - 1 < 2^(2b) give b > bits / 2, so the search starts at
    b = bits // 2 + 1, or at the exponent of 2 in order if that is larger,
    and there meets every such N up to 2^(2b) in increasing order, c
    running over the multiples of order's odd part: an N with a larger
    exponent is some c 2^b with c even.  It moves to the next b only once
    no c is left, past every N it has tried.  As 2^(bits + 1) <= 2^(2b),
    N has bits + 1 bits whenever a proven one has.

    Before any power, a sieve skips N when g = gcd(N, P) is neither 1 nor
    N, P the product of the odd primes below 1000: then g is a proper
    factor of N.  A prime N has no proper factor, so the sieve skips only
    composites, which the test above never returns; the first N it
    proves, and so the p returned for each (bits, order), is the one the
    unsieved search finds.
    """
    odd = order // (order & -order)
    low = 1 << bits  # the least N - 1 not yet tried
    for b in count(max(bits // 2 + 1, (order & -order).bit_length() - 1)):
        first = -(-low >> b)
        for c in range(first + -first % odd, 1 << b, odd):
            candidate = (c << b) + 1
            if gcd(candidate, _SMALL_ODD_PRIMES) not in (1, candidate):
                continue
            for a in (3, 5, 7, 11, 13):
                power = pow(a, candidate >> 1, candidate)
                if power == candidate - 1:
                    return candidate
                if power != 1:
                    break
        low = 1 << 2 * b


def _charpoly_mod(H: list[list[int]], p: int) -> list[int]:
    """Coefficients, constant first, of det(x I - H) mod the prime p, for H
    reduced mod p or not.  Both routes find T = L^-1 H L upper Hessenberg, then
    the characteristic polynomials of T's leading blocks by the usual recurrence
    (Cohen, GTM 138, Algorithm 2.2.9): O(n^3) in all.

    Below _PACKED_MIN_ROWS rows, for p of more than _PACKED_MAX_BITS bits, or
    for an H that is already upper Hessenberg, the list route takes H to T in
    place by similarity, one entry at a time, and so overwrites the caller's
    H.  Otherwise the packed route, _charpoly_packed, builds T from products
    H L on residues packed many to one integer, in slots of
    w >= 2 bitlen(p) + bitlen(2 n) bits (derived there), and only reads H.
    The list route skips zeros and the packed route gains little from them,
    so the two constants are where the packed route stops beating the list
    route on dense matrices and on the sparse pencils t S - S^T alike, and
    on a Hessenberg H, such as the tridiagonal pencils of T(2, q), the list
    route has nothing to eliminate (measured in CHANGES.md).  The shape is
    read from the entries as given: a nonzero multiple of p below the
    subdiagonal sends H to the packed route, which is as exact.
    """
    n = len(H)
    if (
        n >= _PACKED_MIN_ROWS
        and p.bit_length() <= _PACKED_MAX_BITS
        and any(any(row[: i - 1]) for i, row in enumerate(H[2:], 2))
    ):
        return _charpoly_packed(H, p)
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


def _charpoly_packed(H: list[list[int]], p: int) -> list[int]:
    """det(x I - H) mod p, constant first, by the Krylov process (Dumas, Pernet &
    Wan, ISSAC 2005) on packed residues (Dumas, Fousse & Salvy, J. Symb. Comp.
    46 (2011)).  H is only read.

    H L = L T with T upper Hessenberg, and L's columns built in turn: l_0 = e_0,
    and l_(j+1) is what is left of H l_j once T[i][j] l_i is taken off for
    i = 0 .. j in that order, T[i][j] being the remainder's entry at l_i's
    pivot over l_i's own.  Each l_i is 0 at every earlier pivot, so the rest
    is 0 at all of them, and its first nonzero entry is its pivot, with
    T[j+1][j] = 1.  A zero rest restarts on the first unit vector off the
    pivots, with T[j+1][j] = 0, so the recurrence reads no column of T left
    of it.

    A vector of n residues is one integer with slot i in bits [i w, (i + 1) w),
    so each product H l_j is one sum of n scalar multiples of packed columns,
    and each elimination step and recurrence term one multiply-add.  Each is
    made non-negative by adding c = -t mod p times a packed vector in place of
    subtracting t, so no slot ever borrows.  Every packed operand has its
    slots below p: the sums are unpacked, reduced and packed again after
    each column.
    For b = bitlen(p), w >= 2 b + bitlen(2 n) keeps every slot below 2^w, so
    no carry crosses into the next: a slot of H l_j is at most n (p - 1)^2 and
    the at most n elimination steps add at most n (p - 1)^2 to it, and a
    polynomial's slot is at most p - 1 plus n terms of at most (p - 1)^2: both
    below 2 n p^2 < 2^(bitlen(2 n) + 2 b).  w is that rounded up to whole
    bytes, the unit of int.to_bytes.
    """
    n = len(H)
    size = (2 * p.bit_length() + (2 * n).bit_length() + 7) // 8  # bytes per slot
    width = 8 * size
    mask = (1 << width) - 1

    def pack(v):
        return int.from_bytes(b"".join([x.to_bytes(size, "little") for x in v]), "little")

    def unpack(packed, count):
        data = packed.to_bytes(count * size, "little")
        return [int.from_bytes(data[s : s + size], "little") % p for s in range(0, count * size, size)]

    columns = [pack([x % p for x in column]) for column in zip(*H)]
    pivots = [0]
    basis = [(0, 1, 1)]  # per column of L: its pivot's bit offset, 1 / its pivot entry, packed
    v = [1] + [0] * (n - 1)  # the last column of L
    polys = [1]  # det(x I - T) of T's leading j x j block, packed, j = 0 .. n
    start = 0  # the column that began the current block of T
    for j in range(n):
        product = sum(map(mul, v, columns))
        column = []  # -T[i][j] mod p
        for offset, inverse, l in basis:
            c = -(product >> offset & mask) * inverse % p
            column.append(c)
            if c:
                product += c * l
        poly = (polys[j] << width) + sum(map(mul, column[start:], polys[start:]))
        polys.append(pack(unpack(poly, j + 2)))
        if j == n - 1:
            break
        v = unpack(product, n)
        pivot = next((k for k, x in enumerate(v) if x), None)
        if pivot is None:
            pivot = next(k for k in range(n) if k not in pivots)
            v[pivot] = 1
            start = j + 1
        pivots.append(pivot)
        basis.append((pivot * width, pow(v[pivot], -1, p), pack(v)))
    return unpack(polys[n], n + 1)


def _symmetric_inertia(M: list[list[int]], det: int) -> tuple[int, int, int]:
    """Inertia of a symmetric integer matrix M with determinant det, by one
    fraction-free symmetric elimination: Bareiss's (Math. Comp. 22, 1968),
    with the 2 x 2 pivots of Bunch & Kaufman (Math. Comp. 31, 1977).

    Only the upper triangle is read and updated, on the rows not yet
    pivoted.  Once pivots on a set P are taken, entry (i, j) is the minor
    of M on the rows P + i and the columns P + j, and D the minor on P, so
    by Sylvester's identity every division below is exact.  A nonzero
    diagonal entry a is a 1 x 1 pivot, of the sign of a / D, and D
    becomes a.  On a zero diagonal, a nonzero entry b at (p, q) is
    the 2 x 2 pivot [[0, b], [b, 0]] / D, of inertia (1, 1): each w at
    (i, j) becomes b (y u + x v - b w) / D^2, x and y being the (p, j) and
    (q, j) entries and u and v the (i, p) and (i, q) ones, and D becomes
    -b^2 / D.  A zero block left is the nullity.  D_n, the last D, or 0
    when a block is left, is det M: any other value is an internal error.
    """
    M = [list(row) for row in M]
    n = len(M)
    rest, D, n_minus = list(range(n)), 1, 0

    def column(p):  # the entries (i, p) for i in rest
        return [M[i][p] if i < p else M[p][i] for i in rest]

    while rest:
        p = next((i for i in rest if M[i][i]), None)
        if p is not None:
            pivot = M[p][p]
            rest.remove(p)
            x = column(p)
            for t, (i, u) in enumerate(zip(rest, x)):
                if u or pivot != D:  # else the step scales the row by pivot / D = 1
                    row = M[i]
                    for j, c in zip(rest[t:], x[t:]):
                        row[j] = (row[j] * pivot - u * c) // D
            n_minus += (pivot < 0) != (D < 0)
            D = pivot
            continue
        pair = next(((i, j) for t, i in enumerate(rest) for j in rest[t + 1 :] if M[i][j]), None)
        if pair is None:
            break
        p, q = pair
        b = M[p][q]
        rest.remove(p)
        rest.remove(q)
        x, y, square = column(p), column(q), D * D
        for t, (i, u, v) in enumerate(zip(rest, x, y)):
            row = M[i]
            for j, xj, yj in zip(rest[t:], x[t:], y[t:]):
                row[j] = b * (yj * u + xj * v - b * row[j]) // square
        n_minus += 1
        D = -b * b // D
    last = 0 if rest else D
    if last != det:
        raise InternalError(f"D_{n} came out {last}, not det M = {det}")
    return n - len(rest) - n_minus, n_minus, len(rest)


def certified_signature(h: Sequence[Sequence]) -> tuple[int, int, int]:
    """Exact inertia (n_plus, n_minus, n_zero) of a rational symmetric matrix.

    Entries may be ints and Fractions.  Raises ValueError for a matrix
    that is not square, TypeError for any other kind of entry, and
    NotHermitian when the matrix differs from its transpose.  M = L h,
    with L the lcm of the denominators, has the same inertia, and
    _symmetric_inertia checks its last pivot minor against det M, taken
    by integer_determinant.
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
    return _symmetric_inertia(M, integer_determinant(M))
