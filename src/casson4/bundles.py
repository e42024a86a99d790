"""Vanishing certificates for Euler-number-one circle bundles.

The base is a homology S^1 x S^2 obtained by 0-surgery on a knot with
trivial Alexander polynomial.  Both the Rohlin invariant and the
mapping-torus-style instanton count of the total space vanish; rather
than counting anything, these operations verify the preconditions and
certify the quantities that force the zeros (arf = 0 and Delta''(1) = 0).
"""

from __future__ import annotations

from dataclasses import dataclass

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
        if self.euler != 1:
            raise BadEuler(f"only Euler number 1 is supported, got {self.euler}")
        delta = alexander_polynomial(self.knot)
        if delta != LaurentPolynomial.one():
            raise NonTrivialAlexander(
                f"Alexander polynomial is {delta}, not 1; the total space is not "
                "a homology S^1 x S^3 over its abelian cover"
            )


def circle_bundle_rho(d: CircleBundleData) -> int:
    """Rohlin invariant of the bundle: always 0.

    The invariant reduces to the Arf invariant of the induced spin
    surface, which trivial Alexander polynomial forces to vanish; the
    Arf value is recomputed here rather than assumed.
    """
    if arf_invariant(d.knot) != 0:
        raise InternalError(
            "arf = 1 with trivial Alexander polynomial contradicts the "
            "mod-8 determinant congruence"
        )
    return 0


def circle_bundle_furuta_ohta(d: CircleBundleData) -> int:
    """Instanton count of the bundle: always 0.

    Both Stiefel-Whitney sectors of the count reduce to Delta''(1),
    which vanishes identically for trivial Alexander polynomial; the
    derivative is recomputed here rather than assumed.
    """
    if second_derivative_at_one(alexander_polynomial(d.knot)) != 0:
        raise InternalError("Delta''(1) != 0 for the constant polynomial 1")
    return 0


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
    """Certificate trail for both vanishing results on one input.

    The congruent flag records the (trivial) mod-2 agreement of the two
    invariants, one more instance of the main congruence.
    """
    rho = circle_bundle_rho(d)
    lam = circle_bundle_furuta_ohta(d)
    # each call raises unless the value that certifies it is 0
    arf = d2 = 0
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
