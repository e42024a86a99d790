"""Knot invariants from Seifert matrices.

Everything is computed exactly from an integer Seifert matrix: the
symmetric Alexander polynomial, Tristram-Levine signatures at rational
points on the circle, the full signature spectrum at a given order, and
the Arf invariant of the mod-2 quadratic refinement.

Signatures at roots of unity of every order k >= 2 come from Descartes'
rule, on the integer coordinates of the coefficients of det(x I - H),
found modulo one proven prime and signed by the fixed-point integer
cosines of inertia.fixed_point_cosines (_tl_orbit_cached).  No
cyclotomic field is built or loaded: casson4.cyclotomic is the tests'
oracle, and inertia.certified_signature serves callers' own matrices
and the tests, not this path.

The caches hold one entry per mirror pair.  The public readers pass the
oriented key of _oriented, the smaller of S and -S^T: the mirror has the
same Delta and Arf invariant, and its form -conj(H) has the negated
signatures and the same nullity, so its values are read from S's entry.
"""

from __future__ import annotations

from fractions import Fraction
from functools import lru_cache
from itertools import count
from math import gcd, isqrt, prod
from operator import index, neg
from typing import Sequence

from .errors import InternalError, InvalidSeifertMatrix, NotCoprime
from .gf2 import form_value, symplectic_basis
from .inertia import (
    _charpoly_mod,
    _proth_prime,
    ceil_norm,
    cosine_sum_signs,
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
        # -S^T is valid whenever S is, so the constructor's check is skipped:
        # it is square of the same even size, and its skew matrix
        # -S^T - (-S^T)^T = S - S^T is S's own, which is unimodular.
        out = SeifertMatrix.__new__(SeifertMatrix)
        out.entries = _minus_transpose(self.entries)
        return out

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


def _minus_transpose(entries: tuple[tuple[int, ...], ...]) -> tuple[tuple[int, ...], ...]:
    return tuple(tuple(map(neg, col)) for col in zip(*entries))


def _oriented(entries: tuple[tuple[int, ...], ...]) -> tuple[tuple[tuple[int, ...], ...], int]:
    """(key, sign): the lexicographically smaller of S and -S^T, and -1 iff it is -S^T.

    S = -S^T would make det(S - S^T) = 2^d det S even, so the two tie
    only at d = 0: the unknot gets sign +1.
    """
    for row, col in zip(entries, zip(*entries)):  # row i of -S^T is -(column i of S)
        mirrored = tuple(map(neg, col))
        if row != mirrored:
            return (entries, 1) if row < mirrored else (_minus_transpose(entries), -1)
    return entries, 1


def connected_sum(s1: SeifertMatrix, s2: SeifertMatrix) -> SeifertMatrix:
    """Block-diagonal sum, presenting the connected sum of the knots."""
    n1, n2 = s1.size, s2.size
    out = [list(row) + [0] * n2 for row in s1.entries]
    out += [[0] * n1 + list(row) for row in s2.entries]
    return SeifertMatrix(out)


# --- Alexander polynomial ---

def _row_column_norms(entries: Sequence[Sequence[int]]) -> list[int]:
    """rho_i = ceil|S_i.| + ceil|S_.i|, in integers: on |t| = 1 row i of
    t S - S^T has norm at most rho_i."""
    return [ceil_norm(row) + ceil_norm(col) for row, col in zip(entries, zip(*entries))]


def _coefficient_bound(entries: tuple[tuple[int, ...], ...]) -> int:
    """B >= |c| for every coefficient c of det(t S - S^T), in integers only:
    Hadamard's inequality bounds the determinant on |t| = 1 by the product
    of the rho_i, and Cauchy's bound carries that to every coefficient."""
    return prod(_row_column_norms(entries))


@lru_cache(maxsize=1024)
def _minor_sum_bound(entries: tuple[tuple[int, ...], ...]) -> int:
    """B >= |c| for every coefficient c of every e_r(t S - S^T), r = 0 .. d:
    on |t| = 1 Hadamard bounds each principal minor on the index set I by
    the product of rho_i over I, so |e_r| <= e_r(rho) <= prod_i (1 + rho_i)
    there, and Cauchy's bound carries that to every coefficient."""
    return prod(1 + rho for rho in _row_column_norms(entries))


def _solve_mod(a_rows, b_rows, p: int) -> list[list[int]]:
    """A^-1 B mod the prime p, by elimination below each pivot and back
    substitution on B, reducing the row moves' results only where read."""
    n = len(a_rows)
    rows = [[*a, *b] for a, b in zip(a_rows, b_rows)]
    for c in range(n):
        pivot = next((i for i in range(c, n) if rows[i][c] % p), None)
        if pivot is None:
            raise InternalError(f"column {c} has no pivot mod {p}: the matrix is singular")
        rows[c], rows[pivot] = rows[pivot], rows[c]
        inverse = pow(rows[c][c], -1, p)
        tail = rows[c][c + 1:] = [x * inverse % p for x in rows[c][c + 1:]]
        for row in rows[c + 1:]:
            u = row[c] % p
            if u:
                row[c + 1:] = [x - u * y for x, y in zip(row[c + 1:], tail)]
    X = [row[n:] for row in rows]
    for c in range(n - 1, 0, -1):  # X[c] is final and reduced
        for i, row in enumerate(rows[:c]):
            u = row[c]
            if u:
                X[i] = [y - u * z for y, z in zip(X[i], X[c])]
        X[c - 1] = [y % p for y in X[c - 1]]
    return X


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
    return _alexander_cached(_oriented(s.entries)[0])


# --- Tristram-Levine signatures ---

@lru_cache(maxsize=1024)
def _root_of_unity(p: int, k: int) -> int:
    """omega = g^((p-1)/k) of exact order k mod the prime p = 1 mod k: the
    first g with omega^(k/q) != 1 for every divisor q > 1 of k."""
    for g in count(2):
        omega = pow(g, (p - 1) // k, p)
        if all(pow(omega, k // q, p) != 1 for q in range(2, k + 1) if k % q == 0):
            return omega


def _powers(x: int, count: int, p: int) -> list[int]:
    """[1, x, .., x^(count - 1)] mod p, as running products."""
    out = [1]
    for _ in range(count - 1):
        out.append(out[-1] * x % p)
    return out


def _principal_sums(entries: tuple[tuple[int, ...], ...], t: int, p: int) -> list[int]:
    """g_r(t) = e_r(t S - S^T) mod p, r = 0 .. d, the sums of principal
    r-minors: (-1)^r g_r(t) is the x^(d - r) coefficient of det(x I - (t S - S^T))."""
    pencil = [[(t * a - b) % p for a, b in zip(r, c)] for r, c in zip(entries, zip(*entries))]
    chi = _charpoly_mod(pencil, p)[::-1]
    return [(-1) ** r * c % p for r, c in enumerate(chi)]


@lru_cache(maxsize=1024)
def _tl_orbit_cached(
    entries: tuple[tuple[int, ...], ...], k: int
) -> tuple[tuple[int | None, ...], int]:
    """Signatures at every primitive k-th root of unity, and their nullity.

    Returns (values, nullity): values[m] is the signature at zeta_k^m for
    gcd(m, k) = 1 and None otherwise.  At k = 1, and for d = 0, the form
    is zero; every other order takes Descartes' rule.  The readers pass
    the oriented key of _oriented and multiply by its sign, since -S^T
    has the form -conj(H): negated signatures, the same nullity.  Called
    on any other valid matrix it is the direct route.

    H(t) = (1/t - 1)(t S - S^T), so e_r(H(t)) = (1/t - 1)^r g_r(t), an
    integer Laurent polynomial in u_j = t^j + t^-j.  At zeta = zeta_k it
    has integer coordinates c over the basis 1, u_1, .., u_(h-1) of
    Z[zeta + 1/zeta], where h is the number of classes m in [1, k/2] prime
    to k: phi(k)/2 for k >= 3, and 1 at k = 2.  Its value at zeta^m is
    c_0 + sum_j c_j 2 cos(2 pi jm/k): zero exactly when c = 0, else signed
    by cosine_sum_signs, one call per class for all the nonzero c.
    Modulo a Proth prime p = 1 mod k, zeta becomes omega, and one
    characteristic polynomial per class gives every g_r(omega^m).  On the
    first n = min(d + 1, h) classes c solves V c = v, V_(m,0) = 1 and
    V_(m,j) = omega^(jm) + omega^(-jm): a unit-triangular change from the
    Vandermonde matrix in omega^m + omega^-m, which are distinct mod p and
    over R.  For d + 1 <= h, c holds the Laurent coefficients, at most
    2^d B in size (B from _minor_sum_bound); else det V^2 is the nonzero
    discriminant of the basis, and Cramer and Hadamard give
    |c_j| <= ceil(sqrt h)^h 2^(d+h-1) B.  p exceeds twice the bound, so c
    is the residues nearest 0.  At k = 2, omega = -1, V = [1], the Cramer
    factor is 1, and c is the integer e_r(H(-1)) = e_r(2 (S + S^T)).
    """
    d = len(entries)
    if k == 1 or not d:
        return tuple(0 if gcd(m, k) == 1 else None for m in range(k)), d
    classes = [m for m in range(1, k // 2 + 1) if gcd(m, k) == 1]
    n = min(d + 1, len(classes))
    bound = 2**d * _minor_sum_bound(entries)
    if n < d + 1:
        bound *= (isqrt(n - 1) + 1) ** n * 2 ** (n - 1)
    p = _proth_prime((2 * bound).bit_length(), k)
    omega = _root_of_unity(p, k)
    alexander = _alexander_cached(entries).items()
    powers = _powers(omega, k, p)
    rows, V = [], []  # e_r(H(omega^m)) mod p, r = 0 .. d, and V, per class used
    for m in classes[:n]:
        w, inverse = powers[m], powers[k - m]
        up = [powers[j * m % k] for j in range(d + 1)]
        down = [powers[-j * m % k] for j in range(n)]
        scale = _powers(inverse - 1, d + 1, p)
        g = _principal_sums(entries, w, p)
        if (g[d] - sum(c * up[e + d // 2] for e, c in alexander)) % p:
            raise InternalError(f"g_{d}(omega^{m}) is not det(t S - S^T) there, mod {p}")
        rows.append([x * y % p for x, y in zip(g, scale)])
        V.append([1] + [x + y for x, y in zip(up[1:n], down[1:n])])
    coords = [tuple(x - p if x > p // 2 else x for x in c) for c in zip(*_solve_mod(V, rows, p))]
    if coords[0] != (1,) + (0,) * (n - 1):
        raise InternalError(f"e_0(H) has coordinates {coords[0]}, not 1")
    if any(abs(x) > bound for c in coords for x in c):
        raise InternalError(f"a coordinate of some e_r(H) exceeds the bound {bound}")
    nonzero = [r for r, c in enumerate(coords) if any(c)]
    vectors = [coords[r] for r in nonzero]
    values = [None] * k
    for m in classes:
        signs = [0] * (d + 1)
        for r, sign in zip(nonzero, cosine_sum_signs(vectors, k, m)):
            signs[r] = sign.value
        n_plus, n_minus, nullity = descartes_inertia(signs)
        values[m] = values[k - m] = n_plus - n_minus
    return tuple(values), nullity


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
    key, sign = _oriented(s.entries)
    return sign * _tl_orbit_cached(key, a.denominator)[0][a.numerator]


def tl_nullity(s: SeifertMatrix, a) -> int:
    """Dimension of the kernel of the Tristram-Levine form at a."""
    a = _circle_point(a)
    return _tl_orbit_cached(_oriented(s.entries)[0], a.denominator)[1]


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
    key, sign = _oriented(s.entries)
    values = [0] * n
    for k in range(1, n + 1):  # e^(2 pi i a/k) with gcd(a, k) = 1 is m = a n/k
        if n % k == 0:
            step = n // k
            for a, value in enumerate(_tl_orbit_cached(key, k)[0]):
                if value is not None:
                    values[a * step] = sign * value
    return SignatureSpectrum(n, values)


# --- Arf invariant ---

@lru_cache(maxsize=1024)
def _arf_cached(entries: tuple[tuple[int, ...], ...]) -> int:
    d = len(entries)
    if d == 0:
        return 0

    def bits(row) -> int:  # a row mod 2 as a bitmask: bit j is entry j
        return sum(1 << j for j, c in enumerate(row) if c & 1)

    odd = [bits(row) for row in entries]
    polar = [r ^ bits(col) for r, col in zip(odd, zip(*entries))]  # S + S^T mod 2
    # S + S^T = S - S^T mod 2, and the constructor proves det(S - S^T) = +-1: never singular
    pairs = symplectic_basis(polar, d)
    return sum(form_value(odd, a, a) * form_value(odd, b, b) for a, b in pairs) & 1


def arf_invariant(s: SeifertMatrix) -> int:
    """Arf invariant of the quadratic form q(x) = x^T S x mod 2.

    Computed from a symplectic basis of the polarization S + S^T mod 2 as
    the sum of products q(a_i) q(b_i).
    """
    return _arf_cached(_oriented(s.entries)[0])


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
