"""Certified inertia of Hermitian matrices over cyclotomic fields.

One Hermitian congruence (LDL-style) elimination over the field gives
exact, exactly nonzero, real pivots.  Their number is the rank, so the
zero eigenvalue count is the dimension minus the number of pivots.  The
positive/negative counts are the pivot signs, each certified either
exactly (rational pivots) or by adaptive-precision dyadic interval
refinement, doubling the working precision each round.  Termination is
guaranteed because every pivot is exactly nonzero.

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

from mpmath import libmp

from .cyclotomic import CycElt, CyclotomicField
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


def _interval_endpoints(interval) -> tuple[Fraction, Fraction]:
    lo, hi = interval._mpi_
    return Fraction(*libmp.to_rational(lo)), Fraction(*libmp.to_rational(hi))


def certified_sign(x, start_prec: int = _START_PREC) -> CertifiedSign:
    """Sign of a real algebraic number, with a checkable witness.

    Zero is detected exactly (never from a small interval); nonzero signs
    carry a dyadic interval that excludes zero.
    """
    if isinstance(x, (int, Fraction)):
        q = Fraction(x)
        if q == 0:
            return CertifiedSign(0, ZeroWitness("rational value is exactly zero"))
        sign = 1 if q > 0 else -1
        return CertifiedSign(sign, IntervalWitness(q, q, 0))
    if not isinstance(x, CycElt):
        raise TypeError(f"cannot certify sign of {type(x)!r}")
    if x.is_zero():
        return CertifiedSign(
            0, ZeroWitness("element reduces to zero modulo the cyclotomic polynomial")
        )
    if x.is_rational():
        q = x.rational_value()
        sign = 1 if q > 0 else -1
        return CertifiedSign(sign, IntervalWitness(q, q, 0))
    if not x.is_real():
        raise ValueError("sign is only defined for real elements")
    prec = start_prec
    while prec <= _MAX_PREC:
        enclosure = x.real_enclosure(prec)
        lo, hi = _interval_endpoints(enclosure)
        if lo > 0:
            return CertifiedSign(1, IntervalWitness(lo, hi, prec))
        if hi < 0:
            return CertifiedSign(-1, IntervalWitness(lo, hi, prec))
        prec *= 2
    raise InternalError("interval refinement failed to separate a nonzero value from 0")


# --- exact eliminations ---

def _hermitian_pivots(matrix: list[list], is_zero, inverse, conj) -> list:
    """Pivots of a congruence diagonalization of a Hermitian matrix.

    Returns the list of (exactly nonzero, real) diagonal pivots; their
    count is the rank and their signs give the inertia, by Sylvester's
    law for Hermitian forms.  Pass conj = identity for real symmetric
    input.
    """
    n = len(matrix)
    M = [row[:] for row in matrix]
    active = list(range(n))
    pivots = []
    while active:
        k = next((i for i in active if not is_zero(M[i][i])), None)
        if k is None:
            offdiag = next(
                (
                    (i, j)
                    for ai, i in enumerate(active)
                    for j in active[ai + 1:]
                    if not is_zero(M[i][j])
                ),
                None,
            )
            if offdiag is None:
                break  # remaining block is identically zero
            i, j = offdiag
            # congruence by (row i += c * row j) with c = M[i][j]: the new
            # diagonal entry is 2 |M[i][j]|^2 != 0
            c = M[i][j]
            cbar = conj(c)
            for l in active:
                M[i][l] = M[i][l] + c * M[j][l]
            for l in active:
                M[l][i] = M[l][i] + M[l][j] * cbar
            continue
        p = M[k][k]
        pivots.append(p)
        active.remove(k)
        inv_p = inverse(p)
        col = {i: M[i][k] * inv_p for i in active}
        for i in active:
            ci = col[i]
            if is_zero(ci):
                continue
            row_k = M[k]
            row_i = M[i]
            for j in active:
                row_i[j] = row_i[j] - ci * row_k[j]
    return pivots


def _as_field_matrix(h: Sequence[Sequence], field: CyclotomicField | None):
    """Coerce input rows to CycElt entries over a single field.

    Entries from different cyclotomic fields are embedded into the field
    of order lcm of the orders present.
    """
    n = len(h)
    for row in h:
        if len(row) != n:
            raise ValueError("matrix must be square")
    orders = {entry.field.n for row in h for entry in row if isinstance(entry, CycElt)}
    if field is not None:
        orders.add(field.n)
    target = CyclotomicField(lcm(*orders)) if orders else CyclotomicField(1)
    out = []
    for row in h:
        out_row = []
        for entry in row:
            if isinstance(entry, CycElt):
                out_row.append(entry if entry.field is target else target.embed(entry))
            else:
                out_row.append(target.rational(Fraction(entry)))
        out.append(out_row)
    return out, target


def hermitian_pivots(h: Sequence[Sequence], field: CyclotomicField | None = None) -> list:
    """Exact pivots of one congruence diagonalization of a Hermitian matrix.

    Entries may be CycElt values over cyclotomic fields, or plain
    ints/Fractions (treated as rationals).  The pivots are exactly
    nonzero real elements of the common field; their number is the rank
    and their signs give the inertia.  Raises NotHermitian when the
    matrix differs from its conjugate transpose.
    """
    if not h:
        return []
    matrix, field = _as_field_matrix(h, field)
    n = len(matrix)
    for i in range(n):
        for j in range(i, n):
            if matrix[i][j] != matrix[j][i].conjugate():
                raise NotHermitian(f"entry ({i},{j}) breaks conjugate symmetry")

    if all(entry.is_rational() for row in matrix for entry in row):
        q = [[entry.rational_value() for entry in row] for row in matrix]
        pivots = _hermitian_pivots(q, lambda x: x == 0, lambda x: 1 / x, lambda x: x)
        return [field.rational(p) for p in pivots]
    return _hermitian_pivots(
        matrix,
        lambda x: x.is_zero(),
        lambda x: x.inverse(),
        lambda x: x.conjugate(),
    )


def certified_signature(
    h: Sequence[Sequence], field: CyclotomicField | None = None
) -> tuple[int, int, int]:
    """Exact inertia (n_plus, n_minus, n_zero) of a Hermitian matrix.

    Entries may be CycElt values over one cyclotomic field, or plain
    ints/Fractions (treated as rationals).  Raises NotHermitian when the
    matrix differs from its conjugate transpose.
    """
    pivots = hermitian_pivots(h, field)
    return count_pivot_signs(pivots) + (len(h) - len(pivots),)


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
