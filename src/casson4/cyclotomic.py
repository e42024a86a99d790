"""Cyclotomic polynomials and the fields Q(zeta_n): the tests' elimination oracle.

No runtime path loads this module: signature spectra read 2 cos(2 pi j / n)
from the integer cosine table in casson4.inertia and build no field.
It stays in src/ only until the benchmark's layer tracer, which wraps
CycElt.__mul__ and CycElt.inverse, stops importing it; then it moves to
the tests.

Elements are vectors of rationals over the power basis 1, zeta, ...,
zeta^(d-1), reduced modulo the n-th cyclotomic polynomial (d = deg Phi_n).
This gives exact zero tests, inversion and the Galois automorphisms
zeta -> zeta^m (conjugation is m = -1).
"""

from __future__ import annotations

from fractions import Fraction
from functools import lru_cache
from math import gcd
from typing import Sequence


@lru_cache(maxsize=1024)
def cyclotomic_polynomial(n: int) -> tuple[int, ...]:
    """Coefficients of Phi_n, ascending degree, monic."""
    if n < 1:
        raise ValueError("order must be positive")
    poly = [-1] + [0] * (n - 1) + [1]  # x^n - 1
    for d in range(1, n):
        if n % d == 0:
            poly = _exact_div(poly, list(cyclotomic_polynomial(d)))
    return tuple(poly)


def _exact_div(num: list[int], den: list[int]) -> list[int]:
    # den is monic; division of integer polynomials is exact here
    num = list(num)
    out = [0] * (len(num) - len(den) + 1)
    for k in range(len(out) - 1, -1, -1):
        c = num[k + len(den) - 1]
        out[k] = c
        if c:
            for j, dj in enumerate(den):
                num[k + j] -= c * dj
    if any(num[: len(den) - 1]):
        raise ArithmeticError("polynomial division was not exact")
    return out


class CyclotomicField:
    """The field Q(zeta_n) with zeta_n = exp(2*pi*i/n)."""

    _instances: dict[int, "CyclotomicField"] = {}

    def __new__(cls, n: int):
        if n in cls._instances:
            return cls._instances[n]
        self = super().__new__(cls)
        cls._instances[n] = self
        self.n = n
        phi = cyclotomic_polynomial(n)
        self.degree = len(phi) - 1
        self._phi = phi
        # reduction of x^k mod Phi_n for k = 0 .. n-1, as integer tuples
        powers = []
        current = [1] + [0] * (self.degree - 1) if self.degree > 0 else []
        for _ in range(n):
            powers.append(tuple(current))
            current = self._shift_reduce(current)
        self._zeta_powers = powers
        return self

    def _shift_reduce(self, vec: list[int]) -> list[int]:
        d = self.degree
        out = [0] * d
        carry = vec[d - 1]
        for j in range(d - 1, 0, -1):
            out[j] = vec[j - 1]
        # x^d = -(phi_0 + phi_1 x + ... + phi_{d-1} x^{d-1})
        if carry:
            for j in range(d):
                out[j] -= carry * self._phi[j]
        return out

    # --- element constructors ---

    def element(self, coeffs: Sequence) -> "CycElt":
        vec = [Fraction(c) for c in coeffs]
        if len(vec) > self.degree:
            extra = vec[self.degree:]
            vec = vec[: self.degree]
            for k, c in enumerate(extra, start=self.degree):
                if c:
                    red = self._zeta_powers[k % self.n]
                    for j in range(self.degree):
                        vec[j] += c * red[j]
        else:
            vec = vec + [Fraction(0)] * (self.degree - len(vec))
        return CycElt(self, tuple(vec))

    def zero(self) -> "CycElt":
        return self.element([])

    def one(self) -> "CycElt":
        return self.rational(1)

    def rational(self, value) -> "CycElt":
        vec = [Fraction(0)] * self.degree
        vec[0] = Fraction(value)
        return CycElt(self, tuple(vec))

    def zeta(self, power: int = 1) -> "CycElt":
        red = self._zeta_powers[power % self.n]
        return CycElt(self, tuple(Fraction(c) for c in red))

    def __repr__(self):
        return f"CyclotomicField({self.n})"


class CycElt:
    """Immutable element of a CyclotomicField."""

    __slots__ = ("field", "coeffs")

    def __init__(self, field: CyclotomicField, coeffs: tuple[Fraction, ...]):
        self.field = field
        self.coeffs = coeffs

    def _check(self, other) -> "CycElt":
        if isinstance(other, CycElt):
            if other.field is not self.field:
                raise ValueError("elements belong to different cyclotomic fields")
            return other
        if isinstance(other, (int, Fraction)):
            return self.field.rational(other)
        raise TypeError(f"cannot combine CycElt with {type(other)!r}")

    def __add__(self, other):
        other = self._check(other)
        return CycElt(self.field, tuple(a + b for a, b in zip(self.coeffs, other.coeffs)))

    __radd__ = __add__

    def __neg__(self):
        return CycElt(self.field, tuple(-a for a in self.coeffs))

    def __sub__(self, other):
        return self + (-self._check(other))

    def __rsub__(self, other):
        return self._check(other) - self

    def __mul__(self, other):
        if isinstance(other, (int, Fraction)):
            q = Fraction(other)
            return CycElt(self.field, tuple(a * q for a in self.coeffs))
        other = self._check(other)
        d = self.field.degree
        prod = [Fraction(0)] * (2 * d - 1)
        for i, a in enumerate(self.coeffs):
            if a:
                for j, b in enumerate(other.coeffs):
                    if b:
                        prod[i + j] += a * b
        # reduce powers >= d using precomputed zeta-power vectors
        vec = prod[:d]
        for k in range(d, 2 * d - 1):
            c = prod[k]
            if c:
                red = self.field._zeta_powers[k % self.field.n]
                for j in range(d):
                    vec[j] += c * red[j]
        return CycElt(self.field, tuple(vec))

    __rmul__ = __mul__

    def __rtruediv__(self, other):
        return self.inverse() * other

    def inverse(self) -> "CycElt":
        if self.is_zero():
            raise ZeroDivisionError("division by zero in cyclotomic field")
        # extended Euclid in Q[x] against the (irreducible) minimal polynomial
        a = list(self.coeffs)
        b = [Fraction(c) for c in self.field._phi]
        s0, s1 = [Fraction(1)], [Fraction(0)]
        r0, r1 = a, b
        while any(r1):
            q, r = _poly_divmod(r0, r1)
            r0, r1 = r1, r
            s0, s1 = s1, _poly_sub(s0, _poly_mul(q, s1))
        # r0 is a nonzero constant gcd
        g = next(c for c in r0 if c)
        inv = [c / g for c in s0]
        return self.field.element(inv)

    def galois(self, m: int) -> "CycElt":
        """Image under the automorphism zeta -> zeta^m, for gcd(m, n) = 1."""
        field = self.field
        if gcd(m, field.n) != 1:
            raise ValueError(
                f"zeta -> zeta^{m} is not an automorphism of Q(zeta_{field.n})"
            )
        out = [Fraction(0)] * field.degree
        for j, c in enumerate(self.coeffs):
            if c:
                red = field._zeta_powers[(j * m) % field.n]
                for k, r in enumerate(red):
                    if r:
                        out[k] += c * r
        return CycElt(field, tuple(out))

    def conjugate(self) -> "CycElt":
        """Complex conjugation, zeta -> zeta^-1."""
        return self.galois(-1)

    def is_zero(self) -> bool:
        return all(c == 0 for c in self.coeffs)

    def __bool__(self) -> bool:
        return not self.is_zero()

    def is_rational(self) -> bool:
        return all(c == 0 for c in self.coeffs[1:])

    def is_real(self) -> bool:
        return self == self.conjugate()

    def __eq__(self, other):
        if isinstance(other, (int, Fraction)):
            other = self.field.rational(other)
        if not isinstance(other, CycElt):
            return NotImplemented
        return self.field is other.field and self.coeffs == other.coeffs

    def __hash__(self):
        return hash((self.field.n, self.coeffs))

    def __repr__(self):
        return f"CycElt(n={self.field.n}, {list(self.coeffs)})"


def _poly_divmod(num: list[Fraction], den: list[Fraction]):
    num = list(num)
    ddeg = _deg(den)
    lead = den[ddeg]
    q = [Fraction(0)] * max(len(num), 1)
    while True:
        ndeg = _deg(num)
        if ndeg < ddeg:
            break
        c = num[ndeg] / lead
        q[ndeg - ddeg] = c
        for j in range(ddeg + 1):
            num[ndeg - ddeg + j] -= c * den[j]
    return q, num


def _deg(p: list[Fraction]) -> int:
    for k in range(len(p) - 1, -1, -1):
        if p[k]:
            return k
    return -1


def _poly_mul(a: list[Fraction], b: list[Fraction]) -> list[Fraction]:
    out = [Fraction(0)] * (len(a) + len(b) - 1 if a and b else 1)
    for i, x in enumerate(a):
        if x:
            for j, y in enumerate(b):
                if y:
                    out[i + j] += x * y
    return out


def _poly_sub(a: list[Fraction], b: list[Fraction]) -> list[Fraction]:
    width = max(len(a), len(b))
    out = [Fraction(0)] * width
    for i, x in enumerate(a):
        out[i] += x
    for i, x in enumerate(b):
        out[i] -= x
    return out

