"""Knot invariants from Seifert matrices.

Everything is computed exactly from an integer Seifert matrix: the
symmetric Alexander polynomial, Tristram-Levine signatures at rational
points on the circle, the full signature spectrum at a given order, and
the Arf invariant of the mod-2 quadratic refinement.
"""

from __future__ import annotations

from fractions import Fraction
from functools import lru_cache
from math import gcd, isqrt
from operator import mul
from typing import Sequence

from .cyclotomic import CyclotomicField
from .errors import DegeneratePolarization, InternalError, InvalidSeifertMatrix, NotCoprime
from .gf2 import symplectic_basis
from .inertia import count_pivot_signs, hermitian_pivots
from .laurent import LaurentPolynomial


def integer_determinant(rows: Sequence[Sequence[int]]) -> int:
    """Fraction-free (Bareiss) determinant of an integer matrix."""
    M = [list(map(int, row)) for row in rows]
    n = len(M)
    if n == 0:
        return 1
    sign = 1
    prev = 1
    for k in range(n - 1):
        if M[k][k] == 0:
            swap = next((r for r in range(k + 1, n) if M[r][k] != 0), None)
            if swap is None:
                return 0
            M[k], M[swap] = M[swap], M[k]
            sign = -sign
        for i in range(k + 1, n):
            for j in range(k + 1, n):
                M[i][j] = (M[i][j] * M[k][k] - M[i][k] * M[k][j]) // prev
        prev = M[k][k]
    return sign * M[n - 1][n - 1]


class SeifertMatrix:
    """Integer Seifert matrix of even size 2g (size 0 is the unknot).

    Validity demands |det(S - S^T)| = 1, i.e. the skew pairing is
    unimodular.  All derived invariants are unchanged under congruence
    S -> P^T S P with |det P| = 1.
    """

    __slots__ = ("entries",)

    def __init__(self, entries: Sequence[Sequence[int]]):
        rows = tuple(tuple(int(x) for x in row) for row in entries)
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
        P = [list(map(int, row)) for row in p_rows]
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

def _coefficient_bound(entries: tuple[tuple[int, ...], ...]) -> int:
    """B >= |c| for every coefficient c of det(t S - S^T), in integers only.

    On |t| = 1 row i of t S - S^T has norm at most |S_i.| + |S_.i|, so
    Hadamard's inequality bounds the determinant there by the product of
    those sums, and Cauchy's bound carries that to every coefficient.
    Each norm is rounded up by an integer square root.
    """

    def ceil_norm(vector) -> int:
        square = sum(x * x for x in vector)
        return isqrt(square - 1) + 1 if square else 0

    bound = 1
    for row, column in zip(entries, zip(*entries)):
        bound *= ceil_norm(row) + ceil_norm(column)
    return bound


def _proth_prime(bits: int) -> int:
    """A prime k 2^bits + 1 with odd k < 2^bits, proven prime by Proth's theorem.

    Proth: such an N is prime if a^((N-1)/2) = -1 mod N for some a.  A
    prime N gives +-1 for every a prime to it, so any other value shows
    that N is composite and the search moves on.
    """
    for k in range(1, 1 << bits, 2):
        candidate = (k << bits) + 1
        for a in (3, 5, 7, 11, 13):
            power = pow(a, candidate >> 1, candidate)
            if power == candidate - 1:
                return candidate
            if power != 1:
                break
    raise InternalError(f"no Proth prime k 2^{bits} + 1 with k < 2^{bits} found")


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


def _charpoly_mod(H: list[list[int]], p: int) -> list[int]:
    """Coefficients, constant first, of det(x I - H) mod the prime p.

    H is reduced in place to upper Hessenberg form by similarity, then
    the characteristic polynomials of its leading blocks follow by the
    usual recurrence (Cohen, GTM 138, Algorithm 2.2.9): O(n^3) in all.
    """
    n = len(H)
    for m in range(1, n - 1):
        pivot = next((i for i in range(m, n) if H[i][m - 1]), None)
        if pivot is None:
            continue
        H[m], H[pivot] = H[pivot], H[m]
        for row in H:
            row[m], row[pivot] = row[pivot], row[m]
        inverse = pow(H[m][m - 1], -1, p)
        top = H[m]
        # row i -= u_i row m for every i > m, then column m += sum u_i column i:
        # the row moves commute, so this is one similarity
        factors = [H[i][m - 1] * inverse % p for i in range(m + 1, n)]
        for i, u in enumerate(factors, m + 1):
            if u:
                H[i] = [(x - u * y) % p for x, y in zip(H[i], top)]
        if any(factors):
            for row in H:
                row[m] = (row[m] + sum(map(mul, factors, row[m + 1:]))) % p
    polys = [[1]]
    for k in range(n):
        last = polys[k]
        poly = [0] + last
        poly[: k + 1] = [x - H[k][k] * y for x, y in zip(poly, last)]
        subdiagonal = 1
        for i in range(k - 1, -1, -1):
            subdiagonal = subdiagonal * H[i + 1][i] % p
            if not subdiagonal:
                break
            c = H[i][k] * subdiagonal % p
            if c:
                poly[: i + 1] = [x - c * y for x, y in zip(poly, polys[i])]
        polys.append([x % p for x in poly])
    return polys[n]


@lru_cache(maxsize=None)
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

@lru_cache(maxsize=None)
def _tl_orbit_cached(
    entries: tuple[tuple[int, ...], ...], k: int
) -> tuple[tuple[int | None, ...], int]:
    """Signatures at every primitive k-th root of unity, and their nullity.

    Returns (values, nullity): values[m] is the signature at zeta_k^m for
    gcd(m, k) = 1 and None otherwise.  H(zeta_k^m) is the image of
    H(zeta_k) under the automorphism zeta -> zeta^m, which commutes with
    the elimination, so one elimination gives every pivot exactly; only
    the signs of the images are certified.  The rank, and so the nullity,
    is the same along the orbit.
    """
    d = len(entries)
    pivots = []
    if k > 1 and d:  # else H is the zero form: a = 0, or the unknot
        if k == 2:  # zeta_2 = -1, so H = 2 (S + S^T) has integer entries
            u = ubar = 2
        else:
            field = CyclotomicField(k)
            u = field.one() - field.zeta()
            ubar = u.conjugate()
        H = [
            [u * entries[i][j] + ubar * entries[j][i] for j in range(d)]
            for i in range(d)
        ]
        pivots = hermitian_pivots(H)
    values = [None] * k
    for m in range(k):
        if gcd(m, k) == 1 and values[m] is None:
            # sigma_(-m) is sigma_m followed by conjugation, which fixes
            # the real pivots: one certification serves m and -m
            images = pivots if m == 1 else [p.galois(m) for p in pivots]
            n_plus, n_minus = count_pivot_signs(images)
            values[m] = values[-m % k] = n_plus - n_minus
    return tuple(values), d - len(pivots)


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
        values = tuple(int(v) for v in values)
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

@lru_cache(maxsize=None)
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
