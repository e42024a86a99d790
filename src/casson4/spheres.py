"""Homology spheres built by chains of 1/q surgeries on knots.

Each step adds a knot (given by a Seifert matrix, interpreted in the
sphere built so far) with framing 1/q.  The Casson invariant accumulates
(q/2) * Delta''(1) per step and the Rohlin invariant accumulates
q * arf mod 2; the two reduce to each other mod 2.  A presentation
holds its steps as (knot, q) pairs and checks each q when it is built.
"""

from __future__ import annotations

import operator
from dataclasses import dataclass
from fractions import Fraction
from typing import Sequence

from .errors import NonIntegral
from .laurent import second_derivative_at_one
from .seifert import SeifertMatrix, alexander_polynomial, arf_invariant, tl_signature


class SurgeryPresentation:
    """Ordered chain of (knot, 1/q) surgeries starting from S^3.

    steps holds (knot, q) pairs; q is an integer (operator.index, so a
    float or Fraction raises TypeError) and not 0 (ValueError).
    """

    __slots__ = ("steps",)

    def __init__(self, steps: Sequence[tuple[SeifertMatrix, int]] = ()):
        out = []
        for knot, q in steps:
            q = operator.index(q)
            if q == 0:
                raise ValueError("surgery coefficient 1/q requires q != 0")
            out.append((knot, q))
        self.steps = tuple(out)

    def __len__(self):
        return len(self.steps)

    def __eq__(self, other):
        if not isinstance(other, SurgeryPresentation):
            return NotImplemented
        return self.steps == other.steps

    def __hash__(self):
        return hash(self.steps)

    def __repr__(self):
        return f"SurgeryPresentation({list(self.steps)!r})"


@dataclass(frozen=True)
class SphereInvariants:
    casson: int
    rohlin: int
    congruent: int


def casson(p: SurgeryPresentation) -> int:
    """Casson invariant: sum of (q/2) * Delta''(1) over the chain.

    Delta''(1) = sum_e c_e e (e - 1) and every e (e - 1) is even, so the
    halving is exact and the result is an integer.
    """
    total = 0
    for knot, q in p.steps:
        d2 = second_derivative_at_one(alexander_polynomial(knot))
        total += q * (d2 // 2)
    return total


def rohlin(p: SurgeryPresentation) -> int:
    """Rohlin invariant: sum of q * arf(knot) mod 2."""
    return sum(q * arf_invariant(knot) for knot, q in p.steps) % 2


def check_casson_rohlin(p: SurgeryPresentation) -> SphereInvariants:
    """Compute lambda and rho and report whether lambda = rho (mod 2)."""
    lam = casson(p)
    rho = rohlin(p)
    return SphereInvariants(lam, rho, 1 if lam % 2 == rho else 0)


def mubar_double_branched(branch: SeifertMatrix) -> Fraction:
    """One eighth of the knot signature: the mu-bar invariant of the
    double branched cover (a Seifert fibered homology sphere for the
    intended Montesinos branch sets; that hypothesis is the caller's).

    Raises NonIntegral when the signature is not divisible by 8, which
    signals an invalid branch-set claim.
    """
    sig = tl_signature(branch, Fraction(1, 2))
    if sig % 8:
        raise NonIntegral(f"signature {sig} is not divisible by 8")
    return Fraction(sig, 8)
