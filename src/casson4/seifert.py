"""Knot invariants from Seifert matrices.

Everything is computed exactly from an integer Seifert matrix: the
symmetric Alexander polynomial, Tristram-Levine signatures at rational
points on the circle, the full signature spectrum at a given order, and
the Arf invariant of the mod-2 quadratic refinement.

Signatures at roots of unity come from _tl_orbit_cached: at k = 2 from
one fraction-free elimination of the integer form S + S^T, with no prime
(inertia._symmetric_inertia); at k >= 3 from Descartes' rule on
det(x I - H), found modulo one proven prime on the integer coordinates
of its coefficients, signed by the integer cosines of
inertia.fixed_point_cosines.  No cyclotomic field is built or loaded:
casson4.cyclotomic is the tests' oracle.

The caches hold one entry per mirror pair.  The public readers pass the
oriented key of _oriented, the smaller of S and -S^T: the mirror has the
same Delta and Arf invariant, and its form -conj(H) has the negated
signatures and the same nullity, so its values are read from S's entry.
"""

from __future__ import annotations

from fractions import Fraction
from functools import lru_cache
from itertools import count
from math import gcd, prod
from operator import add, index, neg
from typing import Sequence

from .errors import InternalError, InvalidSeifertMatrix, NotCoprime
from .gf2 import form_value, symplectic_basis
from .inertia import (
    _ceil_sqrt,
    _charpoly_mod,
    _proth_prime,
    _root_product_bound,
    _symmetric_inertia,
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

    The constructor judges the rows no theorem vouches for: a caller's rows
    and the presets.  A builder whose output is valid by a theorem, which
    the tests check over the CLI's whole domain, builds through _valid.
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

    @classmethod
    def _valid(cls, entries: tuple[tuple[int, ...], ...]) -> "SeifertMatrix":
        """S on normalized rows valid by a theorem, without the constructor's check:
        mirror: -S^T - (-S^T)^T = S - S^T, which is S's own skew matrix;
        connected_sum: the skew determinant of a block sum is the product 1 * 1;
        torus_knot_seifert: the fiber surface of T(p, q) is once-punctured, and
        the tests check every torus reference the CLI accepts.
        """
        out = cls.__new__(cls)
        out.entries = entries
        return out

    @property
    def size(self) -> int:
        return len(self.entries)

    @property
    def genus(self) -> int:
        return len(self.entries) // 2

    def to_lists(self) -> list[list[int]]:
        return [list(row) for row in self.entries]

    def mirror(self) -> "SeifertMatrix":
        return SeifertMatrix._valid(_minus_transpose(self.entries))

    def __eq__(self, other):
        if not isinstance(other, SeifertMatrix):
            return NotImplemented
        return self.entries == other.entries

    def __hash__(self):
        return hash(self.entries)

    def __repr__(self):
        return f"SeifertMatrix({self.to_lists()!r})"


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
    rows = tuple(r + (0,) * n2 for r in s1.entries) + tuple((0,) * n1 + r for r in s2.entries)
    return SeifertMatrix._valid(rows)


# --- Alexander polynomial ---

@lru_cache(maxsize=1024)
def _row_squares(entries: tuple[tuple[int, ...], ...]) -> tuple[int, ...]:
    """a_i = sum_j (|S_ij| + |S_ji|)^2: on |t| = 1 the entry t S_ij - S_ji of
    row i of t S - S^T has modulus at most |S_ij| + |S_ji|, so the row has
    norm at most sqrt(a_i).  Cached: both bounds below read it."""
    return tuple(
        sum((abs(a) + abs(b)) ** 2 for a, b in zip(row, col))
        for row, col in zip(entries, zip(*entries))
    )


def _coefficient_bound(entries: tuple[tuple[int, ...], ...]) -> int:
    """B >= |c| for every coefficient c of det(t S - S^T), in integers only:
    Hadamard's inequality bounds the determinant on |t| = 1 by the product
    of the row norms, at most sqrt(prod_i a_i) with a_i of _row_squares,
    rounded up once, and Cauchy's bound carries that to every coefficient."""
    return _ceil_sqrt(prod(_row_squares(entries)))


def _minor_sum_bound(entries: tuple[tuple[int, ...], ...]) -> int:
    """B >= |g_r(t)| on |t| = 1 for every g_r(t) = e_r(t S - S^T), r = 0 .. d,
    and so, by Cauchy's bound, for every coefficient of g_r: Hadamard bounds
    each principal minor on the index set I by the product of the row norms
    over I, so |g_r| <= prod_i (1 + sqrt(a_i)) there, with a_i of
    _row_squares, which _root_product_bound rounds up once."""
    return _root_product_bound(_row_squares(entries))


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


def _gram_matrix(k: int) -> list[list[int]]:
    """G = V^T V for V_(m,0) = 1 and V_(m,j) = 2 cos(2 pi jm/k), j < h, over
    the h classes m in [1, k/2] prime to k, k >= 3: an integer matrix.

    With the Ramanujan sums c_k(a), the sums of zeta_k^(am) over the units
    m mod k, G_00 = h, G_0j = c_k(j), G_ij = c_k(i + j) + c_k(i - j) (i, j > 0):
    the units pair up as the classes m and k - m, so summing
    2 cos(2 pi am/k) over the classes gives c_k(a), and
    4 cos x cos y = 2 cos(x + y) + 2 cos(x - y).  The units are the m that
    no prime q of k divides, so by inclusion and exclusion c_k(a) is the
    sum of (-1)^|E| k/e, e = prod E, over the sets E of those primes with
    k/e dividing a.
    """
    primes = [q for q in range(2, k + 1) if k % q == 0 and all(q % r for r in range(2, q))]
    ramanujan = [0] * k
    for subset in range(1 << len(primes)):
        e = prod(q for i, q in enumerate(primes) if subset >> i & 1)
        for a in range(0, k, k // e):
            ramanujan[a] += (-1) ** subset.bit_count() * (k // e)
    h = ramanujan[0] // 2
    return [[h] + ramanujan[1:h]] + [
        [ramanujan[i]] + [ramanujan[(i + j) % k] + ramanujan[(i - j) % k] for j in range(1, h)]
        for i in range(1, h)
    ]


@lru_cache(maxsize=1024)
def _gram_factor(k: int) -> tuple[int, int]:
    """(a, b) with a / b = F = max_j sum_i |G^-1_ji| w_i, for k >= 3.

    F bounds the solution of V c = v: |c_j| <= F max_m |v_m|.  V of
    _gram_matrix is real and invertible, so c = G^-1 V^T v, and
    |(V^T v)_i| <= |V_.i|_1 max|v| <= w_i max|v|, with w_0 = h and
    w_i = 2h.  G = V^T V is positive definite, so the fraction-free
    Gauss-Jordan elimination of [G | I] finds every pivot on the diagonal,
    with exact divisions, and ends with det G times I on the left and the
    adjugate of G on the right: F is the largest weighted row sum of the
    adjugate over det G.
    """
    G = _gram_matrix(k)
    h = len(G)
    rows = [row + [int(i == j) for j in range(h)] for i, row in enumerate(G)]
    previous = 1
    for c in range(h):
        top = rows[c]
        pivot = top[c]
        for i, row in enumerate(rows):
            if i != c:
                u = row[c]
                rows[i] = [(x * pivot - u * y) // previous for x, y in zip(row, top)]
        previous = pivot
    weights = [h] + [2 * h] * (h - 1)
    return max(sum(abs(x) * w for x, w in zip(row[h:], weights)) for row in rows), previous


@lru_cache(maxsize=1024)
def _tl_orbit_cached(
    entries: tuple[tuple[int, ...], ...], k: int
) -> tuple[tuple[int | None, ...], int]:
    """Signatures at every primitive k-th root of unity, and their nullity.

    Returns (values, nullity): values[m] is the signature at zeta_k^m for
    gcd(m, k) = 1 and None otherwise.  The readers pass the key of
    _oriented and apply its sign; on any other valid matrix it is the
    direct route.  At k = 1, and for d = 0, the form is zero.  At k = 2,
    H = 2 (S + S^T) has the inertia of S + S^T, which _symmetric_inertia
    reads by elimination, with no prime, checking its last pivot minor
    against det(S + S^T) = (-1)^(d/2) Delta(-1).

    For k >= 3, H(t) = (1/t - 1)(t S - S^T), so e_r(H(t)) = (1/t - 1)^r g_r(t),
    an integer Laurent polynomial in u_j = t^j + t^-j.  At zeta = zeta_k it
    has integer coordinates c over the basis 1, u_1, .., u_(h-1) of
    Z[zeta + 1/zeta], where h = phi(k)/2 is the number of classes m in
    [1, k/2] prime to k.  Its value at zeta^m is
    c_0 + sum_j c_j 2 cos(2 pi jm/k): zero exactly when c = 0, else signed
    by cosine_sum_signs, one call per class for all the nonzero c.
    Modulo a Proth prime p = 1 mod k, zeta becomes omega, and one
    characteristic polynomial per class gives every g_r(omega^m).  On the
    first n = min(d + 1, h) classes c solves V c = v, V_(m,0) = 1 and
    V_(m,j) = omega^(jm) + omega^(-jm): a unit-triangular change from the
    Vandermonde matrix in omega^m + omega^-m, which are distinct mod p and
    over R.  p exceeds twice a bound on c, so the lift is the residues
    nearest 0.  On |t| = 1, |1/t - 1| <= 2 and |g_r(t)| <= B
    (_minor_sum_bound), so |e_r(H(t))| <= 2^d B.  For d + 1 <= h, c holds
    the Laurent coefficients of e_r(H(t)), which Cauchy's bound keeps
    within 2^d B; else n = h, and the values v_m = e_r(H(zeta^m)) give
    |c_j| <= F 2^d B, with F the Gram factor of _gram_factor.
    """
    d = len(entries)
    if k == 1 or not d:
        return tuple(0 if gcd(m, k) == 1 else None for m in range(k)), d
    if k == 2:  # H(-1) = 2 (S + S^T), and det(S + S^T) = (-1)^(d/2) Delta(-1)
        det = sum(c * (-1) ** (e + d // 2) for e, c in _alexander_cached(entries).items())
        symmetric = [list(map(add, r, c)) for r, c in zip(entries, zip(*entries))]
        n_plus, n_minus, nullity = _symmetric_inertia(symmetric, det)
        return (None, n_plus - n_minus), nullity
    classes = [m for m in range(1, k // 2 + 1) if gcd(m, k) == 1]
    n = min(d + 1, len(classes))
    bound = 2**d * _minor_sum_bound(entries)
    if n < d + 1:
        a, b = _gram_factor(k)
        bound = -(-bound * a // b)
    p = _proth_prime((2 * bound).bit_length(), k)
    omega = _root_of_unity(p, k)
    alexander = _alexander_cached(entries).items()
    powers = _powers(omega, k, p)
    rows, V = [], []  # what is lifted, mod p, r = 0 .. d, and V, per class used
    for m in classes[:n]:
        up = [powers[j * m % k] for j in range(d + 1)]
        down = [powers[-j * m % k] for j in range(n)]
        g = _principal_sums(entries, powers[m], p)
        if (g[d] - sum(c * up[e + d // 2] for e, c in alexander)) % p:
            raise InternalError(f"g_{d}(omega^{m}) is not det(t S - S^T) there, mod {p}")
        # e_r(H(omega^m)) = (omega^-m - 1)^r g_r(omega^m)
        rows.append([x * y % p for x, y in zip(g, _powers(powers[k - m] - 1, d + 1, p))])
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
        for r, witness in zip(nonzero, cosine_sum_signs(vectors, k, m)):
            signs[r] = witness.sign
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
    """Spectrum (sign^(m/n))_{m=0..n-1} of the knot; SignatureSpectrum refuses n < 1."""
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
    # S + S^T = S - S^T mod 2, and every SeifertMatrix has det(S - S^T) = 1: never singular
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
    return SeifertMatrix._valid(tuple(map(tuple, V)))


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
