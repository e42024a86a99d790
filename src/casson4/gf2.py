"""GF(2) linear algebra on int-bitset rows.

A matrix is a list of row bitmasks; bit j of row i is entry (i, j).  This
keeps 4x4 cohomology bases and 2g x 2g Seifert polarizations in plain
Python integers.  The invariants need three things of it: the rank of a
list of rows, the value of a bilinear or quadratic form, and a symplectic
basis of an alternating form.  Callers build their rows directly.
"""

from __future__ import annotations

from typing import List, Sequence

from .errors import DegeneratePolarization


def bitrows_rank(rows: List[int]) -> int:
    """Rank over GF(2) of a list of row bitmasks, by Gaussian elimination."""
    rank = 0
    pivots = []
    for row in rows:
        for p in pivots:
            low = p & -p
            if row & low:
                row ^= p
        if row:
            pivots.append(row)
            rank += 1
    return rank


def form_value(rows: Sequence[int], x: int, y: int) -> int:
    """x^T B y over GF(2), for the Gram matrix B given as row bitmasks.

    Only the bits of x that index a row are read.  With x = y this is the
    quadratic form of B.
    """
    x &= (1 << len(rows)) - 1
    acc = 0
    while x:
        low = x & -x
        acc ^= rows[low.bit_length() - 1]
        x ^= low
    return (acc & y).bit_count() & 1


def symplectic_basis(form_rows: Sequence[int], dim: int) -> list[tuple[int, int]]:
    """Symplectic basis of a nonsingular alternating GF(2) form.

    ``form_rows`` is the Gram matrix as row bitmasks, with zero diagonal.
    Returns pairs (a_i, b_i) of vector bitmasks with B(a_i, b_i) = 1 and
    all other pairings zero.  Raises DegeneratePolarization when the form
    is singular.

    Each step takes a = pool[0], a partner b with B(a, b) = 1, and moves
    every other v to v + B(v, b) a + B(v, a) b, which is orthogonal to both
    (B is alternating).  The map from the pool to {a, b} and the moved
    vectors is unitriangular, so the moved vectors stay independent and
    nonzero: the next pool needs no re-elimination.  The form is singular
    exactly when some a finds no partner.
    """
    pool = [1 << i for i in range(dim)]
    pairs: list[tuple[int, int]] = []
    while pool:
        a = pool[0]
        b = next((v for v in pool if form_value(form_rows, a, v)), None)
        if b is None:
            # a pairs trivially with everything left: radical is nonzero
            raise DegeneratePolarization(
                "alternating form is singular: no dual partner found"
            )
        reduced = []
        for v in pool:
            if v in (a, b):
                continue
            if form_value(form_rows, v, b):
                v ^= a
            if form_value(form_rows, v, a):
                v ^= b
            reduced.append(v)
        pool = reduced
        pairs.append((a, b))
    return pairs
