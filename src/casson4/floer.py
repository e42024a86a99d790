"""Bookkeeping for Floer Lefschetz numbers.

The eight graded ranks and induced maps are fixture inputs (computing
instanton groups is out of scope).  This module evaluates the alternating
trace, enforces the evenness constraint, halves to the mapping-torus
invariant, and deduces forced sign patterns on rank-one gradings.
"""

from __future__ import annotations

import operator
from dataclasses import dataclass
from fractions import Fraction
from itertools import product
from typing import Sequence, Union

from .errors import AmbiguousSolution, NoSolution, OddLefschetz, SizeMismatch

MapSpec = Union[str, Sequence[Sequence]]

IDENTITY = "id"
MINUS_IDENTITY = "-id"


def _trace(spec: MapSpec, rank: int) -> Fraction:
    if spec == IDENTITY:
        return Fraction(rank)
    if spec == MINUS_IDENTITY:
        return Fraction(-rank)
    return sum((spec[i][i] for i in range(rank)), Fraction(0))


def _exact(x) -> Fraction:
    if isinstance(x, float):
        raise TypeError(f"map entries must be exact (int, Fraction or str), not {x!r}")
    return Fraction(x)


@dataclass(frozen=True)
class FloerData:
    """Eight graded ranks b_0..b_7 with the endomorphism of each grading.

    Each map is the token "id" or "-id", or an explicit square rational
    matrix of the matching rank.
    """

    ranks: tuple[int, ...]
    maps: tuple[MapSpec, ...]

    def __init__(self, ranks: Sequence[int], maps: Sequence[MapSpec] | None = None):
        ranks = tuple(map(operator.index, ranks))
        if len(ranks) != 8 or any(b < 0 for b in ranks):
            raise ValueError("ranks must be 8 nonnegative integers")
        if maps is None:
            maps = (IDENTITY,) * 8
        maps = tuple(
            m if isinstance(m, str) else tuple(tuple(map(_exact, row)) for row in m)
            for m in maps
        )
        if len(maps) != 8:
            raise ValueError("exactly one map per grading is required")
        for m, b in zip(maps, ranks):
            if isinstance(m, str):
                if m not in (IDENTITY, MINUS_IDENTITY):
                    raise ValueError(f"unknown map token {m!r}")
            elif len(m) != b or any(len(row) != b for row in m):
                raise SizeMismatch(
                    f"map matrix is {len(m)}x{len(m[0]) if m else 0}, "
                    f"declared rank is {b}"
                )
        object.__setattr__(self, "ranks", ranks)
        object.__setattr__(self, "maps", maps)

    def traces(self) -> list[Fraction]:
        return [_trace(m, b) for m, b in zip(self.maps, self.ranks)]


def lefschetz(f: FloerData) -> int | Fraction:
    """Alternating trace sum over the eight gradings, exact."""
    total = sum(
        ((-1) ** k * t for k, t in enumerate(f.traces())), Fraction(0)
    )
    return int(total) if total.denominator == 1 else total


def check_evenness(f: FloerData) -> int:
    """1 iff the Lefschetz number is an even integer.

    Geometric fixtures must pass; a failure flags non-geometric input.
    """
    value = lefschetz(f)
    return 1 if isinstance(value, int) and value % 2 == 0 else 0


def lambda_fo_from_lefschetz(f: FloerData) -> int:
    """Half the Lefschetz number; raises OddLefschetz when not even."""
    value = lefschetz(f)
    if not isinstance(value, int) or value % 2:
        raise OddLefschetz(f"Lefschetz number {value} is not an even integer")
    return value // 2


def block_diagonal(f1: FloerData, f2: FloerData) -> FloerData:
    """Direct sum of two fixtures; Lefschetz numbers add."""
    ranks = tuple(a + b for a, b in zip(f1.ranks, f2.ranks))
    maps = []
    for k in range(8):
        m1, m2, b1, b2 = f1.maps[k], f2.maps[k], f1.ranks[k], f2.ranks[k]
        if isinstance(m1, str) and m1 == m2:
            maps.append(m1)
            continue
        rows1 = _expand(m1, b1)
        rows2 = _expand(m2, b2)
        top = [row + (Fraction(0),) * b2 for row in rows1]
        bottom = [(Fraction(0),) * b1 + row for row in rows2]
        maps.append(tuple(top + bottom))
    return FloerData(ranks, tuple(maps))


def _expand(spec: MapSpec, rank: int) -> list[tuple[Fraction, ...]]:
    if isinstance(spec, str):
        diag = Fraction(1) if spec == IDENTITY else Fraction(-1)
        return [
            tuple(diag if i == j else Fraction(0) for j in range(rank))
            for i in range(rank)
        ]
    return [tuple(row) for row in spec]


def deduce_sign_pattern(ranks: Sequence[int], target_lef: int) -> dict[int, int]:
    """Sign assignment on the supported gradings forced by the target.

    Every nonzero rank must equal 1, so each graded map is plus or minus
    the identity.  Returns the unique assignment {degree: +-1} whose
    alternating sum hits target_lef; raises NoSolution when none does and
    AmbiguousSolution (carrying all candidates) when several do.
    """
    ranks = tuple(map(operator.index, ranks))
    target_lef = operator.index(target_lef)
    if len(ranks) != 8:
        raise ValueError("ranks must be 8 integers")
    supported = [k for k, b in enumerate(ranks) if b]
    if any(ranks[k] != 1 for k in supported):
        raise ValueError("sign deduction requires every nonzero rank to equal 1")
    solutions = []
    for signs in product((1, -1), repeat=len(supported)):
        total = sum(
            (-1) ** k * eps * ranks[k] for k, eps in zip(supported, signs)
        )
        if total == target_lef:
            solutions.append(dict(zip(supported, signs)))
    if not solutions:
        raise NoSolution(f"no sign pattern realizes Lefschetz number {target_lef}")
    if len(solutions) > 1:
        raise AmbiguousSolution(solutions)
    return solutions[0]


def seifert_tau_lefschetz(b1: int, b3: int, b5: int, b7: int) -> int:
    """Lefschetz number of the complex-conjugation involution fixture.

    On Seifert fibered homology spheres the graded groups vanish in even
    degrees and the induced map is the identity in degrees 1 mod 4 and
    minus the identity in degrees 3 mod 4, giving -b1 + b3 - b5 + b7.
    """
    b1, b3, b5, b7 = map(operator.index, (b1, b3, b5, b7))
    if min(b1, b3, b5, b7) < 0:
        raise ValueError("ranks must be nonnegative")
    return -b1 + b3 - b5 + b7


def seifert_tau_floer_data(b1: int, b3: int, b5: int, b7: int) -> FloerData:
    """FloerData fixture with the forced +-identity pattern on odd degrees."""
    ranks = (0, b1, 0, b3, 0, b5, 0, b7)
    maps = (IDENTITY, IDENTITY, IDENTITY, MINUS_IDENTITY,
            IDENTITY, IDENTITY, IDENTITY, MINUS_IDENTITY)
    return FloerData(ranks, maps)
