"""Integer Laurent polynomials in one variable t, as values.

Coefficients are stored sparsely as a map from integer exponent to nonzero
integer coefficient, so negative exponents cost nothing.  Values are
immutable and hashable.  The invariants read a polynomial and never
compute with it: they evaluate it, test its symmetry and take its
second derivative at t = 1, so no ring operations are defined.
"""

from __future__ import annotations

from fractions import Fraction
from typing import Mapping


class LaurentPolynomial:
    """An element of Z[t, t^-1]."""

    __slots__ = ("_coeffs",)

    def __init__(self, coeffs: Mapping[int, int]):
        if not all(isinstance(x, int) for item in coeffs.items() for x in item):
            raise TypeError("exponents and coefficients must be integers")
        self._coeffs = {e: c for e, c in coeffs.items() if c}

    @classmethod
    def one(cls) -> "LaurentPolynomial":
        return cls({0: 1})

    def items(self):
        return sorted(self._coeffs.items())

    def __eq__(self, other):
        if not isinstance(other, LaurentPolynomial):
            return NotImplemented
        return self._coeffs == other._coeffs

    def __hash__(self):
        return hash(frozenset(self._coeffs.items()))

    # --- evaluation and symmetry ---

    def __call__(self, value):
        """Evaluate at a nonzero rational (or integer) point."""
        if isinstance(value, float):
            raise TypeError(f"evaluation point must be exact, not float {value!r}")
        v = Fraction(value)
        if v == 0:
            raise ZeroDivisionError("Laurent polynomials cannot be evaluated at 0")
        total = Fraction(0)
        for e, c in self._coeffs.items():
            total += c * v ** e
        if total.denominator == 1:
            return int(total)
        return total

    def is_palindromic(self) -> bool:
        """p(t) = p(1/t): each coefficient equals the one at the negated exponent."""
        return all(self._coeffs.get(-e) == c for e, c in self._coeffs.items())

    def __repr__(self):
        return f"LaurentPolynomial({self._coeffs!r})"

    def __str__(self):
        if not self._coeffs:
            return "0"
        parts = []
        for e in sorted(self._coeffs, reverse=True):
            c = self._coeffs[e]
            sign = "-" if c < 0 else "+"
            mag = abs(c)
            if e == 0:
                body = str(mag)
            else:
                var = "t" if e == 1 else f"t^{e}"
                body = var if mag == 1 else f"{mag}*{var}"
            parts.append((sign, body))
        first_sign, first_body = parts[0]
        text = ("-" if first_sign == "-" else "") + first_body
        for sign, body in parts[1:]:
            text += f" {sign} {body}"
        return text


def second_derivative_at_one(p: LaurentPolynomial) -> int:
    """Exact second derivative at t = 1: sum of e(e-1) * coeff(e)."""
    if not isinstance(p, LaurentPolynomial):
        raise TypeError("expected a LaurentPolynomial")
    return sum(c * e * (e - 1) for e, c in p._coeffs.items())
