"""Integer Laurent polynomials in one variable t.

Coefficients are stored sparsely as a map from integer exponent to nonzero
integer coefficient, so negative exponents cost nothing.  Values are
immutable and hashable; all arithmetic is exact.
"""

from __future__ import annotations

from fractions import Fraction
from typing import Iterable, Mapping


class LaurentPolynomial:
    """An element of Z[t, t^-1]."""

    __slots__ = ("_coeffs",)

    def __init__(self, coeffs: Mapping[int, int] | Iterable[tuple[int, int]] = ()):
        items = coeffs.items() if isinstance(coeffs, Mapping) else coeffs
        clean: dict[int, int] = {}
        for exp, c in items:
            if not isinstance(exp, int) or not isinstance(c, int):
                raise TypeError("exponents and coefficients must be integers")
            if c:
                clean[exp] = clean.get(exp, 0) + c
                if not clean[exp]:
                    del clean[exp]
        self._coeffs = clean

    # --- constructors ---

    @classmethod
    def zero(cls) -> "LaurentPolynomial":
        return cls()

    @classmethod
    def one(cls) -> "LaurentPolynomial":
        return cls({0: 1})

    @classmethod
    def t(cls, exp: int = 1, coeff: int = 1) -> "LaurentPolynomial":
        return cls({exp: coeff})

    # --- basic accessors ---

    def coefficient(self, exp: int) -> int:
        return self._coeffs.get(exp, 0)

    def items(self):
        return sorted(self._coeffs.items())

    @property
    def support(self) -> tuple[int, ...]:
        return tuple(sorted(self._coeffs))

    @property
    def min_exp(self) -> int:
        if not self._coeffs:
            raise ValueError("zero polynomial has no support")
        return min(self._coeffs)

    @property
    def max_exp(self) -> int:
        if not self._coeffs:
            raise ValueError("zero polynomial has no support")
        return max(self._coeffs)

    def is_zero(self) -> bool:
        return not self._coeffs

    # --- arithmetic ---

    def __add__(self, other):
        other = _coerce(other)
        if other is NotImplemented:
            return NotImplemented
        out = dict(self._coeffs)
        for e, c in other._coeffs.items():
            out[e] = out.get(e, 0) + c
            if not out[e]:
                del out[e]
        return _raw(out)

    __radd__ = __add__

    def __neg__(self):
        return _raw({e: -c for e, c in self._coeffs.items()})

    def __sub__(self, other):
        other = _coerce(other)
        if other is NotImplemented:
            return NotImplemented
        return self + (-other)

    def __rsub__(self, other):
        other = _coerce(other)
        if other is NotImplemented:
            return NotImplemented
        return other + (-self)

    def __mul__(self, other):
        other = _coerce(other)
        if other is NotImplemented:
            return NotImplemented
        out: dict[int, int] = {}
        for e1, c1 in self._coeffs.items():
            for e2, c2 in other._coeffs.items():
                e = e1 + e2
                out[e] = out.get(e, 0) + c1 * c2
                if not out[e]:
                    del out[e]
        return _raw(out)

    __rmul__ = __mul__

    def __pow__(self, n: int):
        if n < 0:
            raise ValueError("negative powers are not defined for polynomials")
        result = LaurentPolynomial.one()
        base = self
        while n:
            if n & 1:
                result = result * base
            base = base * base
            n >>= 1
        return result

    def __eq__(self, other):
        other = _coerce(other)
        if other is NotImplemented:
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

    def at_one(self) -> int:
        return sum(self._coeffs.values())

    def reverse(self) -> "LaurentPolynomial":
        """Substitute t -> t^-1."""
        return _raw({-e: c for e, c in self._coeffs.items()})

    def shifted(self, m: int) -> "LaurentPolynomial":
        """Multiply by t^m."""
        return _raw({e + m: c for e, c in self._coeffs.items()})

    def is_palindromic(self) -> bool:
        return self._coeffs == self.reverse()._coeffs

    def derivative_at_one(self, order: int = 1) -> int:
        """Exact value of the order-th derivative at t = 1.

        The k-th derivative of t^e at 1 is the falling factorial
        e (e-1) ... (e-k+1).
        """
        total = 0
        for e, c in self._coeffs.items():
            term = 1
            for k in range(order):
                term *= e - k
            total += c * term
        return total

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


def _raw(coeffs: dict[int, int]) -> LaurentPolynomial:
    p = LaurentPolynomial.__new__(LaurentPolynomial)
    p._coeffs = coeffs
    return p


def _coerce(value) -> LaurentPolynomial:
    if isinstance(value, LaurentPolynomial):
        return value
    if isinstance(value, int):
        return LaurentPolynomial({0: value})
    return NotImplemented


def second_derivative_at_one(p: LaurentPolynomial) -> int:
    """Exact second derivative at t = 1: sum of e(e-1) * coeff(e)."""
    if not isinstance(p, LaurentPolynomial):
        p = _coerce(p)
        if p is NotImplemented:
            raise TypeError("expected a LaurentPolynomial")
    return p.derivative_at_one(2)
