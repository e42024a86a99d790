"""Equivariant Casson and Furuta-Ohta invariants of mapping tori.

A finite-order diffeomorphism of a homology sphere is described by its
quotient data: for a branched quotient, the order n, the Casson invariant
of the quotient sphere, and the signature spectrum of the branch knot;
for a free quotient, the order n, the surgery coefficient q coprime to n,
the Casson invariant of the base sphere, and the surgered knot.  The
mapping-torus invariant equals the equivariant Casson invariant computed
from this data.
"""

from __future__ import annotations

from dataclasses import dataclass
from fractions import Fraction
from math import gcd
from operator import index
from typing import Union

from .errors import NonIntegral, NotCoprime
from .laurent import second_derivative_at_one
from .seifert import (
    SeifertMatrix,
    SignatureSpectrum,
    alexander_polynomial,
    signature_spectrum,
)


@dataclass(frozen=True)
class BranchedQuotientData:
    """Quotient data of an order-n diffeomorphism with nonempty fixed set."""

    n: int
    quotient_casson: int
    branch_spectrum: SignatureSpectrum

    def __post_init__(self):
        object.__setattr__(self, "quotient_casson", index(self.quotient_casson))
        if self.n < 1:
            raise ValueError("order must be a positive integer")
        if self.branch_spectrum.order != self.n:
            raise ValueError(
                f"spectrum order {self.branch_spectrum.order} != n = {self.n}"
            )

    @classmethod
    def from_knot(
        cls, n: int, quotient_casson: int, knot: SeifertMatrix
    ) -> "BranchedQuotientData":
        return cls(n, quotient_casson, signature_spectrum(knot, n))

    def reversed_orientation(self) -> "BranchedQuotientData":
        """Mirror the branch knot and negate the quotient invariant."""
        return BranchedQuotientData(
            self.n, -self.quotient_casson, self.branch_spectrum.negated()
        )


@dataclass(frozen=True)
class FreeQuotientData:
    """Quotient data of a free order-n diffeomorphism.

    The quotient lens space is (n/q)-surgery on the knot in a homology
    sphere with Casson invariant base_casson.
    """

    n: int
    q: int
    base_casson: int
    knot: SeifertMatrix

    def __post_init__(self):
        object.__setattr__(self, "base_casson", index(self.base_casson))
        if self.n < 1:
            raise ValueError("order must be a positive integer")

    def reversed_orientation(self) -> "FreeQuotientData":
        """Mirror the knot; negate both the base invariant and the framing."""
        return FreeQuotientData(self.n, -self.q, -self.base_casson, self.knot.mirror())


QuotientData = Union[BranchedQuotientData, FreeQuotientData]


@dataclass(frozen=True)
class MappingTorusReport:
    lambda_fo: Fraction
    rho: int
    congruent: int


def equivariant_casson_branched(d: BranchedQuotientData) -> Fraction:
    """n * lambda(quotient) + (1/8) * sum of the branch signature spectrum.

    Non-integral values are returned as exact rationals; the report layer
    flags them as non-geometric input.
    """
    return Fraction(8 * d.n * d.quotient_casson + d.branch_spectrum.total(), 8)


def equivariant_casson_free(d: FreeQuotientData) -> Fraction:
    """n * lambda(base) + (1/8) * spectrum total + (q/2) * Delta''(1)."""
    if gcd(d.n, d.q) != 1:
        raise NotCoprime(f"gcd(n = {d.n}, q = {d.q}) != 1")
    spectrum = signature_spectrum(d.knot, d.n)
    d2 = second_derivative_at_one(alexander_polynomial(d.knot))
    return Fraction(8 * d.n * d.base_casson + spectrum.total() + 4 * d.q * d2, 8)


def furuta_ohta_mapping_torus(d: QuotientData) -> Fraction:
    """Furuta-Ohta invariant of the mapping torus for quotient data d."""
    if isinstance(d, BranchedQuotientData):
        return equivariant_casson_branched(d)
    if isinstance(d, FreeQuotientData):
        return equivariant_casson_free(d)
    raise TypeError(f"expected quotient data, got {type(d)!r}")


def branched_free_relation(
    d: FreeQuotientData, cover_data: BranchedQuotientData
) -> int:
    """Check the covering relation between the free and branched formulas.

    When cover_data describes the n-fold branched cover of the base along
    the same knot, the free invariant exceeds the branched invariant of
    the cover by exactly (q/2) * Delta''(1).  Returns 1 when the identity
    holds for the supplied data, 0 otherwise.
    """
    free_value = equivariant_casson_free(d)
    branched_value = equivariant_casson_branched(cover_data)
    d2 = second_derivative_at_one(alexander_polynomial(d.knot))
    return 1 if free_value - branched_value == Fraction(d.q * d2, 2) else 0


def matched_cover_data(d: FreeQuotientData) -> BranchedQuotientData:
    """Branched data of the n-fold cover implied by free quotient data."""
    return BranchedQuotientData.from_knot(d.n, d.base_casson, d.knot)


def check_rohlin_congruence(d: QuotientData, rho_sigma: int) -> MappingTorusReport:
    """Report whether the mapping-torus invariant matches rho mod 2.

    rho_sigma is the Rohlin invariant of the covering sphere (equal to
    the Rohlin invariant of the mapping torus).  Raises NonIntegral when
    the equivariant invariant is not an integer, which marks the input as
    non-geometric.
    """
    rho_sigma = index(rho_sigma)
    if rho_sigma not in (0, 1):
        raise ValueError("rho must be a bit")
    lam = furuta_ohta_mapping_torus(d)
    if lam.denominator != 1:
        raise NonIntegral(f"invariant is not an integer: {lam}")
    congruent = 1 if int(lam) % 2 == rho_sigma else 0
    return MappingTorusReport(lam, rho_sigma, congruent)


def orientation_reversal_check(d: QuotientData) -> int:
    """1 iff the invariant is antisymmetric under orientation reversal."""
    value = furuta_ohta_mapping_torus(d)
    reversed_value = furuta_ohta_mapping_torus(d.reversed_orientation())
    return 1 if reversed_value == -value else 0
