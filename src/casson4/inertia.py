"""Certified inertia of Hermitian matrices, by Descartes' rule of signs.

The characteristic polynomial of a Hermitian matrix has only real roots,
so the signs of its coefficients give the inertia exactly
(descartes_inertia).  For a Tristram-Levine form at a root of unity of
order >= 3 each coefficient is an integer combination of cosines
2 cos(2 pi j / n), whose sign is certified with fixed-point integer
cosines and an error budget (cosine_sum_sign) after an exact zero test
the caller makes; no field is built.  For a rational symmetric matrix
the coefficients are found exactly, in integers after scaling, modulo
one proven prime (certified_signature).  certified_sign reads the sign
of a real cyclotomic number from the same cosines.
"""

from __future__ import annotations

from dataclasses import dataclass
from fractions import Fraction
from math import isqrt, lcm, prod
from operator import mul
from typing import Sequence, Union

from .cyclotomic import CycElt, fixed_point_cosines
from .errors import InternalError, NotHermitian

_START_PREC = 64
_MAX_PREC = 1 << 16


@dataclass(frozen=True)
class IntervalWitness:
    """Dyadic interval excluding zero; precision 0 means an exact endpoint."""

    lower: Fraction
    upper: Fraction
    precision: int


@dataclass(frozen=True)
class ZeroWitness:
    """Exact algebraic identity certifying the value is zero."""

    reason: str


@dataclass(frozen=True)
class CertifiedSign:
    value: int  # -1, 0, +1
    witness: Union[IntervalWitness, ZeroWitness]


def certified_sign(x) -> CertifiedSign:
    """Sign of a real algebraic number, with a checkable witness.

    Zero is detected exactly (never from a small interval); nonzero signs
    carry a dyadic interval that excludes zero.  A rational CycElt is
    read as its Fraction.  Any other real x = sum_j c_j zeta^j is
    (2 a_0 + sum_(j>0) a_j 2 cos(2 pi j / n)) / 2L with a = L c, L the
    lcm of the denominators; cosine_sum_sign certifies the numerator, and
    its interval divided by 2L is the witness.
    """
    if isinstance(x, CycElt) and x.is_rational():
        x = x.rational_value()
    if isinstance(x, (int, Fraction)):
        q = Fraction(x)
        if q == 0:
            return CertifiedSign(0, ZeroWitness("rational value is exactly zero"))
        sign = 1 if q > 0 else -1
        return CertifiedSign(sign, IntervalWitness(q, q, 0))
    if not isinstance(x, CycElt):
        raise TypeError(f"cannot certify sign of {type(x)!r}")
    if not x.is_real():
        raise ValueError("sign is only defined for real elements")
    scale = lcm(*(c.denominator for c in x.coeffs))
    a = [c.numerator * (scale // c.denominator) for c in x.coeffs]
    a[0] *= 2
    # not rational, hence nonzero: the refinement ends
    s = cosine_sum_sign(a, x.field.n, 1)
    w, half = s.witness, Fraction(1, 2 * scale)
    return CertifiedSign(s.value, IntervalWitness(w.lower * half, w.upper * half, w.precision))


def cosine_sum_sign(a: Sequence[int], n: int, m: int) -> CertifiedSign:
    """Sign of the nonzero real a_0 + sum_(j>0) a_j 2 cos(2 pi j m / n).

    With the integer cosines C of fixed_point_cosines(n, prec),
    W = a_0 2^prec + sum_j a_j C_(jm mod n) lies within
    budget = sum_(j>0) |a_j| of 2^prec times the value, so |W| > budget
    certifies the sign, with the dyadic interval (W -+ budget) / 2^prec as
    witness; otherwise the precision doubles.  The caller has shown the
    value nonzero by an exact test, so the refinement ends.
    """
    head, tail = a[0], a[1:]
    budget = sum(map(abs, tail))
    prec = _START_PREC
    while prec <= _MAX_PREC:
        cosines = fixed_point_cosines(n, prec)
        w = (head << prec) + sum(
            x * cosines[j * m % n] for j, x in enumerate(tail, 1) if x
        )
        if abs(w) > budget:
            witness = IntervalWitness(
                Fraction(w - budget, 1 << prec), Fraction(w + budget, 1 << prec), prec
            )
            return CertifiedSign(1 if w > 0 else -1, witness)
        prec *= 2
    raise InternalError("fixed-point refinement failed to separate a nonzero value from 0")


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
    if n == 0:
        return 1
    sign = 1
    prev = 1
    for k in range(n - 1):
        if M[k][k] == 0:
            swap = next((r for r in range(k + 1, n) if M[r][k] != 0), None)
            if swap is None:
                return 0
            M[k], M[swap] = M[swap], M[k]
            sign = -sign
        for i in range(k + 1, n):
            for j in range(k + 1, n):
                M[i][j] = (M[i][j] * M[k][k] - M[i][k] * M[k][j]) // prev
        prev = M[k][k]
    return sign * M[n - 1][n - 1]


def ceil_norm(vector: Sequence[int]) -> int:
    """The Euclidean norm of an integer vector, rounded up (by an integer square root)."""
    square = sum(x * x for x in vector)
    return isqrt(square - 1) + 1 if square else 0


def _proth_prime(bits: int) -> int:
    """A prime k 2^bits + 1 with odd k < 2^bits, proven prime by Proth's theorem.

    Proth: such an N is prime if a^((N-1)/2) = -1 mod N for some a.  A
    prime N gives +-1 for every a prime to it, so any other value shows
    that N is composite and the search moves on.
    """
    for k in range(1, 1 << bits, 2):
        candidate = (k << bits) + 1
        for a in (3, 5, 7, 11, 13):
            power = pow(a, candidate >> 1, candidate)
            if power == candidate - 1:
                return candidate
            if power != 1:
                break
    raise InternalError(f"no Proth prime k 2^{bits} + 1 with k < 2^{bits} found")


def _charpoly_mod(H: list[list[int]], p: int) -> list[int]:
    """Coefficients, constant first, of det(x I - H) mod the prime p.

    H is reduced in place to upper Hessenberg form by similarity, then
    the characteristic polynomials of its leading blocks follow by the
    usual recurrence (Cohen, GTM 138, Algorithm 2.2.9): O(n^3) in all.
    """
    n = len(H)
    for m in range(1, n - 1):
        pivot = next((i for i in range(m, n) if H[i][m - 1]), None)
        if pivot is None:
            continue
        H[m], H[pivot] = H[pivot], H[m]
        for row in H:
            row[m], row[pivot] = row[pivot], row[m]
        inverse = pow(H[m][m - 1], -1, p)
        # row i -= u_i row m for every i > m, then column m += sum u_i column i:
        # the row moves commute, so this is one similarity.  Rows from m on
        # are already zero left of column m - 1, so the row moves skip that.
        top = H[m][m - 1:]
        factors = [H[i][m - 1] * inverse % p for i in range(m + 1, n)]
        for i, u in enumerate(factors, m + 1):
            if u:
                row = H[i]
                row[m - 1:] = [(x - u * y) % p for x, y in zip(row[m - 1:], top)]
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
