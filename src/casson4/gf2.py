"""GF(2) linear algebra on int-bitset rows.

A matrix is a list of row bitmasks; bit j of row i is entry (i, j).  This
keeps 4x4 cohomology bases and 2g x 2g Seifert polarizations in plain
Python integers.
"""

from __future__ import annotations

from typing import Iterable, List, Sequence

from .errors import DegeneratePolarization


class F2Matrix:
    """Immutable matrix over GF(2)."""

    __slots__ = ("rows", "ncols", "_row_bits")

    def __init__(self, entries: Sequence[Sequence[int]]):
        bits = []
        width = None
        for row in entries:
            row = list(row)
            if width is None:
                width = len(row)
            elif len(row) != width:
                raise ValueError("ragged rows")
            mask = 0
            for j, value in enumerate(row):
                if value % 2:
                    mask |= 1 << j
            bits.append(mask)
        self.rows = len(bits)
        self.ncols = width if width is not None else 0
        self._row_bits = tuple(bits)

    @classmethod
    def from_bitrows(cls, bitrows: Iterable[int], ncols: int) -> "F2Matrix":
        m = cls.__new__(cls)
        m._row_bits = tuple(b & ((1 << ncols) - 1) for b in bitrows)
        m.rows = len(m._row_bits)
        m.ncols = ncols
        return m

    @classmethod
    def identity(cls, n: int) -> "F2Matrix":
        return cls.from_bitrows([1 << i for i in range(n)], n)

    @classmethod
    def zero(cls, rows: int, cols: int) -> "F2Matrix":
        return cls.from_bitrows([0] * rows, cols)

    @property
    def bitrows(self) -> tuple[int, ...]:
        return self._row_bits

    def entry(self, i: int, j: int) -> int:
        return (self._row_bits[i] >> j) & 1

    def to_lists(self) -> List[List[int]]:
        return [[self.entry(i, j) for j in range(self.ncols)] for i in range(self.rows)]

    def transpose(self) -> "F2Matrix":
        cols = []
        for j in range(self.ncols):
            mask = 0
            for i in range(self.rows):
                if (self._row_bits[i] >> j) & 1:
                    mask |= 1 << i
            cols.append(mask)
        return F2Matrix.from_bitrows(cols, self.rows)

    def __eq__(self, other):
        if not isinstance(other, F2Matrix):
            return NotImplemented
        return (
            self.rows == other.rows
            and self.ncols == other.ncols
            and self._row_bits == other._row_bits
        )

    def __hash__(self):
        return hash((self.rows, self.ncols, self._row_bits))

    def __repr__(self):
        return f"F2Matrix({self.to_lists()!r})"

    def rank(self) -> int:
        return bitrows_rank(list(self._row_bits))

    def __matmul__(self, other: "F2Matrix") -> "F2Matrix":
        if self.ncols != other.rows:
            raise ValueError("dimension mismatch")
        other_t = other.transpose()._row_bits
        out = []
        for r in self._row_bits:
            mask = 0
            for j, col in enumerate(other_t):
                if (r & col).bit_count() & 1:
                    mask |= 1 << j
            out.append(mask)
        return F2Matrix.from_bitrows(out, other.ncols)


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


def f2_rank(m: F2Matrix) -> int:
    """Gaussian-elimination rank of m over GF(2)."""
    return m.rank()


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
