"""Vanishing certificates for Euler-number-one circle bundles.

The base is a homology S^1 x S^2 obtained by 0-surgery on a knot with
trivial Alexander polynomial.  Both the Rohlin invariant and the
mapping-torus-style instanton count of the total space vanish; rather
than counting anything, circle_bundle_report computes the quantities
that force the zeros (arf = 0 and Delta''(1) = 0) and reports both
invariants with that certificate.
"""

from __future__ import annotations

from dataclasses import dataclass
from operator import index

from .errors import BadEuler, InternalError, NonTrivialAlexander
from .laurent import LaurentPolynomial, second_derivative_at_one
from .seifert import SeifertMatrix, alexander_polynomial, arf_invariant


@dataclass(frozen=True)
class CircleBundleData:
    """Knot presenting the base (by 0-surgery) and the Euler number.

    Construction raises BadEuler unless the Euler number is 1, then
    NonTrivialAlexander unless the knot has Alexander polynomial 1.
    """

    knot: SeifertMatrix
    euler: int

    def __post_init__(self):
        object.__setattr__(self, "euler", index(self.euler))
        if self.euler != 1:
            raise BadEuler(f"only Euler number 1 is supported, got {self.euler}")
        delta = alexander_polynomial(self.knot)
        if delta != LaurentPolynomial.one():
            raise NonTrivialAlexander(
                f"Alexander polynomial is {delta}, not 1; the total space is not "
                "a homology S^1 x S^3 over its abelian cover"
            )


@dataclass(frozen=True)
class BundleVanishingReport:
    """Both invariants with the checks that certify their vanishing."""

    rho: int
    furuta_ohta: int
    arf: int
    second_derivative: int
    congruent: int
    certificate: tuple[str, ...]


def circle_bundle_report(d: CircleBundleData) -> BundleVanishingReport:
    """Both invariants of the bundle, 0, with the trail that certifies them.

    The Rohlin invariant reduces to the Arf invariant of the induced spin
    surface, and both Stiefel-Whitney sectors of the instanton count
    reduce to Delta''(1); trivial Alexander polynomial forces both to
    vanish, and each is recomputed here rather than assumed.  The
    congruent flag records the (trivial) mod-2 agreement of the two
    invariants, one more instance of the main congruence.
    """
    arf = arf_invariant(d.knot)
    if arf != 0:
        raise InternalError(
            "arf = 1 with trivial Alexander polynomial contradicts the "
            "mod-8 determinant congruence"
        )
    d2 = second_derivative_at_one(alexander_polynomial(d.knot))
    if d2 != 0:
        raise InternalError("Delta''(1) != 0 for the constant polynomial 1")
    rho = lam = 0  # forced by arf = 0 and Delta''(1) = 0
    return BundleVanishingReport(
        rho=rho,
        furuta_ohta=lam,
        arf=arf,
        second_derivative=d2,
        congruent=1 if (lam - rho) % 2 == 0 else 0,
        certificate=(
            "euler = 1",
            "alexander polynomial = 1",
            f"arf = {arf} (forces rho = 0)",
            f"Delta''(1) = {d2} (forces both instanton sectors to 0)",
        ),
    )
