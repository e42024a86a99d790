"""Certified inertia of Hermitian matrices.

Two routes.  Tristram-Levine forms at roots of unity of order >= 3 take
Descartes' rule of signs: the characteristic polynomial of a Hermitian
matrix has only real roots, so the signs of its coefficients give the
inertia exactly (descartes_inertia).  Each coefficient is an integer
combination of cosines 2 cos(2 pi j / n); its sign is certified with
fixed-point integer cosines and an error budget (cosine_sum_sign), after
an exact zero test the caller makes.  No field is built on this route.

Matrices with entries in Q or one cyclotomic field take elimination.  One
Hermitian congruence (LDL-style) elimination on the entries as
given gives exact, exactly nonzero, real pivots.  Their number is the
rank, so the zero eigenvalue count is the dimension minus the number of
pivots.  The positive/negative counts are the pivot signs, each
certified either exactly (rational pivots) or, for a real pivot
sum_j c_j zeta^j, as the cosine sum 2 sum_j c_j cos(2 pi j / n) by
cosine_sum_sign, the same certifier the first route uses.
Termination is guaranteed because every pivot is exactly nonzero.

The elimination uses only field operations, conjugation and exact zero
tests, so a Galois automorphism of the field maps the pivots of H to the
pivots of its image; callers may certify the signs of those images
instead of eliminating again.
"""

from __future__ import annotations

from dataclasses import dataclass
from fractions import Fraction
from math import lcm
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


# --- exact elimination ---

def hermitian_pivots(matrix: Sequence[Sequence]) -> list:
    """Pivots of one congruence diagonalization of a Hermitian matrix.

    The entries are eliminated as given: ints and Fractions, or CycElt
    values of one field, through exact zero tests (``not x``), inverses
    ``Fraction(1) / p`` and ``x.conjugate()``.  The pivots are exactly
    nonzero and real; their number is the rank and their signs give the
    inertia, by Sylvester's law for Hermitian forms.  The matrix is not
    checked: certified_signature is the entry point for unchecked input.
    """
    M = [list(row) for row in matrix]
    active = list(range(len(M)))
    pivots = []
    while active:
        k = next((i for i in active if M[i][i]), None)
        if k is None:
            offdiag = next(
                (
                    (i, j)
                    for ai, i in enumerate(active)
                    for j in active[ai + 1:]
                    if M[i][j]
                ),
                None,
            )
            if offdiag is None:
                break  # remaining block is identically zero
            i, j = offdiag
            # congruence by (row i += c * row j) with c = M[i][j]: the new
            # diagonal entry is 2 |M[i][j]|^2 != 0
            c = M[i][j]
            cbar = c.conjugate()
            for l in active:
                M[i][l] = M[i][l] + c * M[j][l]
            for l in active:
                M[l][i] = M[l][i] + M[l][j] * cbar
            continue
        p = M[k][k]
        pivots.append(p)
        active.remove(k)
        inv_p = Fraction(1) / p
        col = {i: M[i][k] * inv_p for i in active}
        for i in active:
            ci = col[i]
            if not ci:
                continue
            row_k = M[k]
            row_i = M[i]
            for j in active:
                row_i[j] = row_i[j] - ci * row_k[j]
    return pivots


def certified_signature(h: Sequence[Sequence]) -> tuple[int, int, int]:
    """Exact inertia (n_plus, n_minus, n_zero) of a Hermitian matrix.

    Entries may be ints, Fractions and CycElt values of one cyclotomic
    field.  Raises ValueError for a matrix that is not square or mixes
    fields, TypeError for any other kind of entry, and NotHermitian when
    the matrix differs from its conjugate transpose.
    """
    n = len(h)
    fields = set()
    for row in h:
        if len(row) != n:
            raise ValueError("matrix must be square")
        for entry in row:
            if isinstance(entry, CycElt):
                fields.add(entry.field)
            elif not isinstance(entry, (int, Fraction)):
                raise TypeError(f"cannot take the inertia of a {type(entry)!r} entry")
    if len(fields) > 1:
        raise ValueError("entries come from different cyclotomic fields")
    for i in range(n):
        for j in range(i, n):
            if h[i][j] != h[j][i].conjugate():
                raise NotHermitian(f"entry ({i},{j}) breaks conjugate symmetry")
    pivots = hermitian_pivots(h)
    return count_pivot_signs(pivots) + (n - len(pivots),)


def count_pivot_signs(pivots) -> tuple[int, int]:
    """(n_plus, n_minus) of exactly nonzero real pivots, each sign certified."""
    n_plus = n_minus = 0
    for p in pivots:
        s = certified_sign(p)
        if s.value > 0:
            n_plus += 1
        elif s.value < 0:
            n_minus += 1
        else:
            raise InternalError("elimination produced an exactly-zero pivot")
    return (n_plus, n_minus)
