"""Knot invariants from Seifert matrices.

Everything is computed exactly from an integer Seifert matrix: the
symmetric Alexander polynomial, Tristram-Levine signatures at rational
points on the circle, the full signature spectrum at a given order, and
the Arf invariant of the mod-2 quadratic refinement.

Signatures at roots of unity of order k >= 3 come from Descartes' rule:
the sums g_r(t) = e_r(t S - S^T) of principal minors are interpolated
once per matrix, modulo one proven prime, and at each order the signs of
the coefficients of det(x I - H(zeta_k^m)) follow from an exact
cyclotomic zero test and fixed-point integer cosines.  No cyclotomic
field is built.  At k = 2 the form is the integer matrix 2 (S + S^T),
whose inertia certified_signature reads by the same rule.
"""

from __future__ import annotations

from fractions import Fraction
from functools import lru_cache
from math import gcd, prod
from operator import index, mul
from typing import Sequence

from .cyclotomic import phi_divides
from .errors import DegeneratePolarization, InternalError, InvalidSeifertMatrix, NotCoprime
from .gf2 import symplectic_basis
from .inertia import (
    CertifiedSign,
    ZeroWitness,
    _charpoly_mod,
    _proth_prime,
    ceil_norm,
    certified_signature,
    cosine_sum_sign,
    descartes_inertia,
    integer_determinant,
)
from .laurent import LaurentPolynomial


class SeifertMatrix:
    """Integer Seifert matrix of even size 2g (size 0 is the unknot).

    Validity demands |det(S - S^T)| = 1, i.e. the skew pairing is
    unimodular.  All derived invariants are unchanged under congruence
    S -> P^T S P with |det P| = 1.
    """

    __slots__ = ("entries",)

    def __init__(self, entries: Sequence[Sequence[int]]):
        rows = tuple(tuple(map(index, row)) for row in entries)
        n = len(rows)
        for row in rows:
            if len(row) != n:
                raise InvalidSeifertMatrix("matrix must be square")
        if n % 2:
            raise InvalidSeifertMatrix(f"size {n} is odd; Seifert matrices have size 2g")
        skew = [[rows[i][j] - rows[j][i] for j in range(n)] for i in range(n)]
        if abs(integer_determinant(skew)) != 1:
            raise InvalidSeifertMatrix("S - S^T is not unimodular")
        self.entries = rows

    @property
    def size(self) -> int:
        return len(self.entries)

    @property
    def genus(self) -> int:
        return len(self.entries) // 2

    def to_lists(self) -> list[list[int]]:
        return [list(row) for row in self.entries]

    def mirror(self) -> "SeifertMatrix":
        n = self.size
        return SeifertMatrix(
            [[-self.entries[j][i] for j in range(n)] for i in range(n)]
        )

    def congruent(self, p_rows: Sequence[Sequence[int]]) -> "SeifertMatrix":
        """P^T S P for a unimodular integer matrix P."""
        n = self.size
        P = [list(map(index, row)) for row in p_rows]
        if len(P) != n or any(len(r) != n for r in P):
            raise ValueError("P must match the matrix size")
        if abs(integer_determinant(P)) != 1:
            raise ValueError("P must be unimodular")
        SP = [[sum(self.entries[i][k] * P[k][j] for k in range(n)) for j in range(n)]
              for i in range(n)]
        PtSP = [[sum(P[k][i] * SP[k][j] for k in range(n)) for j in range(n)]
                for i in range(n)]
        return SeifertMatrix(PtSP)

    def stabilized(self, column: Sequence[int] | None = None) -> "SeifertMatrix":
        """Add a trivial hyperbolic pair (with optional linking column).

        The result presents the same knot; all invariants computed here
        are unchanged.
        """
        n = self.size
        col = list(column) if column is not None else [0] * n
        if len(col) != n:
            raise ValueError("column length must match matrix size")
        out = [list(row) + [col[i], 0] for i, row in enumerate(self.entries)]
        out.append([0] * n + [0, 1])
        out.append([0] * n + [0, 0])
        return SeifertMatrix(out)

    def __eq__(self, other):
        if not isinstance(other, SeifertMatrix):
            return NotImplemented
        return self.entries == other.entries

    def __hash__(self):
        return hash(self.entries)

    def __repr__(self):
        return f"SeifertMatrix({self.to_lists()!r})"


def mirror(s: SeifertMatrix) -> SeifertMatrix:
    """Seifert matrix -S^T of the mirror knot."""
    return s.mirror()


def connected_sum(s1: SeifertMatrix, s2: SeifertMatrix) -> SeifertMatrix:
    """Block-diagonal sum, presenting the connected sum of the knots."""
    n1, n2 = s1.size, s2.size
    out = [list(row) + [0] * n2 for row in s1.entries]
    out += [[0] * n1 + list(row) for row in s2.entries]
    return SeifertMatrix(out)


# --- Alexander polynomial ---

def _row_column_norms(entries: tuple[tuple[int, ...], ...]) -> list[int]:
    """rho_i = ceil|S_i.| + ceil|S_.i|, in integers: on |t| = 1 row i of
    t S - S^T has norm at most rho_i."""
    return [ceil_norm(row) + ceil_norm(col) for row, col in zip(entries, zip(*entries))]


def _coefficient_bound(entries: tuple[tuple[int, ...], ...]) -> int:
    """B >= |c| for every coefficient c of det(t S - S^T), in integers only.

    Hadamard's inequality bounds the determinant on |t| = 1 by the product
    of the rho_i, and Cauchy's bound carries that to every coefficient.
    """
    return prod(_row_column_norms(entries))


def _minor_sum_bound(entries: tuple[tuple[int, ...], ...]) -> int:
    """B >= |c| for every coefficient c of every e_r(t S - S^T), r = 0 .. d.

    On |t| = 1 Hadamard bounds each principal minor on the index set I by
    the product of rho_i over I, so |e_r| <= e_r(rho) <= prod_i (1 + rho_i)
    there, and Cauchy's bound carries that to every coefficient.
    """
    return prod(1 + rho for rho in _row_column_norms(entries))


def _solve_mod(a_rows, b_rows, p: int) -> list[list[int]]:
    """A^-1 B mod the prime p by Gauss-Jordan elimination; A is invertible mod p."""
    n = len(a_rows)
    rows = [[x % p for x in a] + [x % p for x in b] for a, b in zip(a_rows, b_rows)]
    for c in range(n):
        pivot = next(i for i in range(c, n) if rows[i][c])
        rows[c], rows[pivot] = rows[pivot], rows[c]
        inverse = pow(rows[c][c], -1, p)
        top = rows[c] = [x * inverse % p for x in rows[c]]
        for i in range(n):
            factor = rows[i][c]
            if i != c and factor:
                rows[i] = [(x - factor * y) % p for x, y in zip(rows[i], top)]
    return [row[n:] for row in rows]


@lru_cache(maxsize=1024)
def _alexander_cached(entries: tuple[tuple[int, ...], ...]) -> LaurentPolynomial:
    n = len(entries)
    if n == 0:
        return LaurentPolynomial.one()
    # A = S - S^T is skew and unimodular, so det A = Pf(A)^2 = 1 and
    # det(t S - S^T) = det(A) det(I + (t - 1) M) with M = A^-1 S.  With
    # N = -M = (S^T - S)^-1 S and det(x I - N) = sum_k c_k x^k this is
    # sum_k c_k (t - 1)^(n - k).  Everything runs mod a prime p > 2B,
    # whose residues nearest zero are then the integer coefficients.
    p = _proth_prime((2 * _coefficient_bound(entries)).bit_length())
    skew = [[entries[j][i] - entries[i][j] for j in range(n)] for i in range(n)]
    coeffs = _charpoly_mod(_solve_mod(skew, entries, p), p)[::-1]
    for i in range(n):  # Taylor shift: substitute u = t - 1
        for j in range(n - 1, i - 1, -1):
            coeffs[j] = (coeffs[j] - coeffs[j + 1]) % p
    coeffs = [c - p if c > p // 2 else c for c in coeffs]
    if sum(coeffs) != 1:
        raise InternalError(
            f"det(t S - S^T) at t = 1 came out {sum(coeffs)}, not det(S - S^T) = 1"
        )
    # n is even and f(t) = det(t S - S^T) has f(1/t) = t^-n f(t), so
    # t^(-n/2) f(t) is already centred and palindromic, with value 1 at 1
    poly = LaurentPolynomial({e - n // 2: c for e, c in enumerate(coeffs)})
    if not poly.is_palindromic():
        raise InternalError(f"t^(-n/2) det(t S - S^T) came out {poly}, not palindromic")
    return poly


def alexander_polynomial(s: SeifertMatrix) -> LaurentPolynomial:
    """Symmetric Alexander polynomial det(t^(1/2) S - t^(-1/2) S^T).

    Normalized so that Delta(1) = 1 and Delta(t) = Delta(1/t).
    """
    return _alexander_cached(s.entries)


# --- Tristram-Levine signatures ---

def _lagrange_basis_mod(nodes: list[int], p: int) -> list[list[int]]:
    """Coefficients, constant first, of the Lagrange basis on distinct nodes, mod p."""
    master = [1]  # prod_j (x - u_j)
    for u in nodes:
        master = [(a - u * b) % p for a, b in zip([0] + master, master + [0])]
    basis = []
    for i, u in enumerate(nodes):
        quotient = [0] * len(nodes)  # master / (x - u), by synthetic division
        carry = 0
        for j in range(len(nodes), 0, -1):
            carry = quotient[j - 1] = (master[j] + u * carry) % p
        weight = pow(prod(u - v for k, v in enumerate(nodes) if k != i) % p, -1, p)
        basis.append([c * weight % p for c in quotient])
    return basis


@lru_cache(maxsize=1024)
def _minor_sums(entries: tuple[tuple[int, ...], ...]) -> tuple[tuple[int, ...], ...]:
    """Coefficients, constant first, of g_r(t) = e_r(t S - S^T), r = 0 .. d.

    e_r is the sum of the principal r-minors, so g_r has degree <= r and
    (-1)^r g_r(t) is the x^(d - r) coefficient of det(x I - (t S - S^T)).
    Transposing t^-1 S - S^T gives g_r(1/t) = (-1)^r t^-r g_r(t), so with
    u = t + 1/t and some P_r of degree <= s
        g_r(t) = t^s P_r(u)           for r = 2s,
        g_r(t) = (t - 1) t^s P_r(u)   for r = 2s + 1.
    Characteristic polynomials at the d/2 + 1 points t = 2 .. d/2 + 2 fix
    every P_r by interpolation in u, and one more at t = 0 checks the
    result against g_r(0).  All of it runs modulo one Proth prime
    p > 2 B (B from _minor_sum_bound), whose residues nearest zero are the
    coefficients: no CRT, and no probabilistic test.  A residue check
    cannot see a wrong lift, so two exact anchors follow: g_d must be
    det(t S - S^T) from _alexander_cached, and the signs at t = -1 must
    give the inertia of the integer form there.
    """
    d = len(entries)
    half = d // 2
    p = _proth_prime((2 * _minor_sum_bound(entries)).bit_length())
    if (half + 2) ** 2 >= p:  # else t t' = 1 mod p could merge two nodes u
        raise InternalError(f"prime {p} is too small for {half + 1} interpolation nodes")

    columns = list(zip(*entries))

    def sums_at(t: int) -> list[int]:  # g_r(t) mod p, r = 0 .. d
        pencil = [
            [(t * a - b) % p for a, b in zip(row, col)] for row, col in zip(entries, columns)
        ]
        chi = _charpoly_mod(pencil, p)
        return [chi[d - r] if r % 2 == 0 else -chi[d - r] % p for r in range(d + 1)]

    points = range(2, half + 3)
    basis = _lagrange_basis_mod([(t + pow(t, -1, p)) % p for t in points], p)
    samples = [sums_at(t) for t in points]
    at_zero = sums_at(0)
    sums = []
    for r in range(d + 1):
        s = r // 2
        scales = [pow(t ** s * (t - 1 if r % 2 else 1), -1, p) for t in points]
        values = [sample[r] * scale for sample, scale in zip(samples, scales)]
        P = [sum(map(mul, values, column)) % p for column in zip(*basis)]
        if any(P[s + 1:]):
            raise InternalError(f"e_{r}(t S - S^T) interpolates to degree above {r}")
        g = [P[s]]  # t^s P(t + 1/t), centred: exponents -k .. k after step k
        for c in reversed(P[:s]):
            g = [x + y for x, y in zip([0, 0] + g, g + [0, 0])]
            g[len(g) // 2] += c
        if r % 2:
            g = [y - x for x, y in zip(g + [0], [0] + g)]
        g = tuple(c % p - p if c % p > p // 2 else c % p for c in g)
        if (g[0] - at_zero[r]) % p:
            raise InternalError(
                f"e_{r}(t S - S^T) at t = 0 is not the value its symmetry predicts"
            )
        sums.append(g)
    if sums[0] != (1,):
        raise InternalError(f"e_0(t S - S^T) came out {sums[0]}, not 1")
    alexander = _alexander_cached(entries)
    if sums[d] != tuple(alexander.coefficient(e - half) for e in range(d + 1)):
        raise InternalError(
            f"e_{d}(t S - S^T) = {sums[d]} differs from det(t S - S^T) = {alexander}"
        )
    # an exact anchor for every r: at t = -1 the form H is 2 (S + S^T) and
    # e_r(H(-1)) = (-2)^r g_r(-1) is an integer, so Descartes' rule must
    # give the inertia that certified_signature finds for that form, from
    # a characteristic polynomial taken with its own bound and prime
    signs = []
    for r, g in enumerate(sums):
        value = (-2) ** r * sum(c if j % 2 == 0 else -c for j, c in enumerate(g))
        signs.append((value > 0) - (value < 0))
    n_plus, n_minus, nullity = descartes_inertia(signs)
    values, expected = _tl_orbit_cached(entries, 2)
    if (n_plus - n_minus, nullity) != (values[1], expected):
        raise InternalError(
            f"e_r(t S - S^T) at t = -1 give signature {n_plus - n_minus} and "
            f"nullity {nullity}; certified_signature of S + S^T gives {values[1]} "
            f"and {expected}"
        )
    return tuple(sums)


def _descartes_orbit(
    entries: tuple[tuple[int, ...], ...], k: int
) -> tuple[tuple[int | None, ...], int]:
    """_tl_orbit_cached for k >= 3 and d > 0, by Descartes' rule.

    H(t) = (1 - t) S + (1 - 1/t) S^T = (1/t - 1)(t S - S^T), so
    e_r(H(t)) = (1/t - 1)^r g_r(t) = a_0 + sum_(j>0) a_j (t^j + t^-j) with
    integers a, and at t = zeta_k^m it is a_0 + sum_j a_j 2 cos(2 pi jm/k).
    It vanishes exactly when Phi_k divides t^r e_r(H(t)) = (1 - t)^r g_r(t),
    a test made once per r because it holds along the whole Galois orbit;
    the other signs are certified at each m.
    """
    rows = []  # (a, zero sign or None) per r
    for r, g in enumerate(_minor_sums(entries)):
        shifted = list(g)  # t^r e_r(H(t)), constant first
        for _ in range(r):
            shifted = [x - y for x, y in zip(shifted + [0], [0] + shifted)]
        zero = None
        if phi_divides(k, shifted):
            zero = CertifiedSign(0, ZeroWitness(f"Phi_{k} divides t^{r} e_{r}(H(t))"))
        rows.append((shifted[r:], zero))
    values = [None] * k
    nullity = None
    for m in range(1, k):
        if gcd(m, k) == 1 and values[m] is None:
            # zeta^m and zeta^-m give the same cosines: one sign serves both
            signs = [zero or cosine_sum_sign(a, k, m) for a, zero in rows]
            n_plus, n_minus, nullity = descartes_inertia([s.value for s in signs])
            values[m] = values[-m % k] = n_plus - n_minus
    return tuple(values), nullity


@lru_cache(maxsize=1024)
def _tl_orbit_cached(
    entries: tuple[tuple[int, ...], ...], k: int
) -> tuple[tuple[int | None, ...], int]:
    """Signatures at every primitive k-th root of unity, and their nullity.

    Returns (values, nullity): values[m] is the signature at zeta_k^m for
    gcd(m, k) = 1 and None otherwise.  For k >= 3 see _descartes_orbit.
    At zeta_2 = -1 the form is 2 (S + S^T), a positive multiple of
    S + S^T, which has the same inertia (certified_signature); at k = 1,
    and for d = 0, it is the zero form.
    """
    d = len(entries)
    if k > 2 and d:
        return _descartes_orbit(entries, k)
    n_plus = n_minus = 0
    nullity = d
    if k == 2:
        n_plus, n_minus, nullity = certified_signature(
            [[a + b for a, b in zip(row, col)] for row, col in zip(entries, zip(*entries))]
        )
    values = tuple(n_plus - n_minus if gcd(m, k) == 1 else None for m in range(k))
    return values, nullity


def _circle_point(a) -> Fraction:
    """The exact rational a in [0, 1) naming the point e^(2*pi*i*a)."""
    if isinstance(a, float):
        raise TypeError(
            f"a must be exact (int, Fraction or str), not float {a!r}"
        )
    a = Fraction(a)
    if not 0 <= a < 1:
        raise ValueError(f"a must lie in [0, 1), got {a}")
    return a


def tl_signature(s: SeifertMatrix, a) -> int:
    """Tristram-Levine signature at e^(2*pi*i*a) for rational a in [0, 1).

    Signature of the Hermitian form (1 - w) S + (1 - conj(w)) S^T at
    w = e^(2*pi*i*a), computed with certified exact arithmetic.
    """
    a = _circle_point(a)
    return _tl_orbit_cached(s.entries, a.denominator)[0][a.numerator]


def tl_nullity(s: SeifertMatrix, a) -> int:
    """Dimension of the kernel of the Tristram-Levine form at a."""
    a = _circle_point(a)
    return _tl_orbit_cached(s.entries, a.denominator)[1]


class SignatureSpectrum:
    """Tristram-Levine signatures at all n-th roots of unity.

    values[m] is the signature at e^(2*pi*i*m/n).  Entry 0 is always 0 and
    the list is symmetric under m -> n - m (conjugation).
    """

    __slots__ = ("order", "values")

    def __init__(self, order: int, values: Sequence[int]):
        if order < 1:
            raise ValueError("order must be a positive integer")
        values = tuple(map(index, values))
        if len(values) != order:
            raise ValueError(f"expected {order} values, got {len(values)}")
        if values and values[0] != 0:
            raise ValueError("entry 0 of a signature spectrum must be 0")
        for m in range(1, order):
            if values[m] != values[order - m]:
                raise ValueError(
                    f"spectrum breaks conjugation symmetry at m = {m}"
                )
        self.order = order
        self.values = values

    def total(self) -> int:
        return sum(self.values)

    def negated(self) -> "SignatureSpectrum":
        return SignatureSpectrum(self.order, tuple(-v for v in self.values))

    def __eq__(self, other):
        if not isinstance(other, SignatureSpectrum):
            return NotImplemented
        return self.order == other.order and self.values == other.values

    def __hash__(self):
        return hash((self.order, self.values))

    def __repr__(self):
        return f"SignatureSpectrum({self.order}, {list(self.values)})"


def signature_spectrum(s: SeifertMatrix, n: int) -> SignatureSpectrum:
    """Spectrum (sign^(m/n))_{m=0..n-1} of the knot."""
    if n < 1:
        raise ValueError("order must be a positive integer")
    values = []
    for m in range(n):
        g = gcd(m, n)  # e^(2 pi i m/n) is a primitive (n/g)-th root
        values.append(_tl_orbit_cached(s.entries, n // g)[0][m // g])
    return SignatureSpectrum(n, values)


# --- Arf invariant ---

@lru_cache(maxsize=1024)
def _arf_cached(entries: tuple[tuple[int, ...], ...]) -> int:
    d = len(entries)
    if d == 0:
        return 0
    rows = [
        sum(((entries[i][j] + entries[j][i]) & 1) << j for j in range(d))
        for i in range(d)
    ]
    try:
        pairs = symplectic_basis(rows, d)
    except DegeneratePolarization:
        raise DegeneratePolarization(
            "S + S^T is singular mod 2; not a valid Seifert matrix"
        ) from None

    def q(x: int) -> int:
        total = 0
        support = [i for i in range(d) if (x >> i) & 1]
        for i in support:
            for j in support:
                total += entries[i][j]
        return total & 1

    return sum(q(a) * q(b) for a, b in pairs) & 1


def arf_invariant(s: SeifertMatrix) -> int:
    """Arf invariant of the quadratic form q(x) = x^T S x mod 2.

    Computed from a symplectic basis of the polarization S + S^T mod 2 as
    the sum of products q(a_i) q(b_i).
    """
    return _arf_cached(s.entries)


# --- standard families ---

def torus_knot_seifert(p: int, q: int) -> SeifertMatrix:
    """Seifert matrix of the (p, q) torus knot on the fiber-surface basis.

    Uses the standard brick/fence basis: generators h(i, k) for columns
    i = 1..p-1 and rows k = 1..q-1, with self-linking -1 and single
    off-diagonal links between bricks sharing a band.  The convention is
    right-handed: tl_signature at 1/2 is negative.
    """
    if p < 2 or q < 2:
        raise ValueError("torus knot parameters must be at least 2")
    if gcd(p, q) != 1:
        raise NotCoprime(f"gcd({p}, {q}) != 1")
    size = (p - 1) * (q - 1)

    def idx(i: int, k: int) -> int:
        return (i - 1) * (q - 1) + (k - 1)

    V = [[0] * size for _ in range(size)]
    for i in range(1, p):
        for k in range(1, q):
            V[idx(i, k)][idx(i, k)] = -1
            if k + 1 < q:
                V[idx(i, k)][idx(i, k + 1)] = 1
            if i + 1 < p:
                V[idx(i + 1, k)][idx(i, k)] = 1
                if k - 1 >= 1:
                    V[idx(i + 1, k - 1)][idx(i, k)] = -1
    return SeifertMatrix(V)


# Named presets.  Chirality is never guessed from a name: each preset is
# an explicit matrix, and the stored orientation is part of the contract.
PRESET_KNOTS: dict[str, SeifertMatrix] = {
    "unknot": SeifertMatrix([]),
    # left-handed trefoil: tl_signature at 1/2 is +2
    "left_trefoil": SeifertMatrix([[1, 0], [1, 1]]),
    # right-handed trefoil: tl_signature at 1/2 is -2
    "right_trefoil": SeifertMatrix([[-1, 1], [0, -1]]),
    "figure_eight": SeifertMatrix([[1, 1], [0, -1]]),
    # trivial Alexander polynomial, untwisted-double type
    "untwisted_double": SeifertMatrix([[-1, 1], [0, 0]]),
}


def preset_knot(name: str) -> SeifertMatrix:
    try:
        return PRESET_KNOTS[name]
    except KeyError:
        raise KeyError(
            f"unknown preset knot {name!r}; available: {sorted(PRESET_KNOTS)}"
        ) from None
