"""Shared test utilities: random matrix generators and independent oracles."""

from __future__ import annotations

from dataclasses import dataclass
from fractions import Fraction
from functools import lru_cache
from itertools import count, product
from math import gcd, lcm, prod
from operator import mul
from typing import Sequence

from casson4 import (
    LaurentPolynomial,
    SeifertMatrix,
    alexander_polynomial,
    connected_sum,
    preset_knot,
    torus_knot_seifert,
)
from casson4 import seifert
from casson4.cyclotomic import CycElt, CyclotomicField, cyclotomic_polynomial
from casson4.errors import Casson4Error, InternalError, NotHermitian
from casson4.gf2 import bitrows_rank
from casson4.inertia import (
    CertifiedSign,
    _charpoly_mod,
    _proth_prime,
    certified_signature,
    cosine_sum_signs,
    descartes_inertia,
    integer_determinant,
)
from casson4.seifert import _alexander_cached, _minor_sum_bound


def package_caches() -> dict:
    """Every lru_cache in casson4, by qualified name: module globals and class members."""
    import importlib
    import pkgutil

    import casson4

    caches = {}
    for info in pkgutil.iter_modules(casson4.__path__):
        module = importlib.import_module(f"casson4.{info.name}")
        for value in vars(module).values():
            members = vars(value).values() if isinstance(value, type) else [value]
            for fn in members:
                if getattr(fn, "cache_parameters", None):
                    caches[f"{fn.__module__}.{fn.__qualname__}"] = fn
    return caches


def clear_caches() -> None:
    """Empty every bounded casson4 cache, so the next call does the real work."""
    for fn in package_caches().values():
        if fn.cache_parameters()["maxsize"] is not None:
            fn.cache_clear()


class NotSymmetrizable(Casson4Error):
    """No unit multiple of the polynomial is palindromic."""


class NotUnimodularAtOne(Casson4Error):
    """The polynomial does not evaluate to +-1 at t = 1."""


def laurent_normalize_symmetric(p: LaurentPolynomial) -> LaurentPolynomial:
    """Normalize p by a unit +-t^m so the result q has q(t) = q(1/t) and q(1) = 1.

    Raises NotSymmetrizable when no unit multiple is palindromic, and
    NotUnimodularAtOne when p(1) != +-1 (checked in that order, so a
    polynomial failing both reports the structural defect first).
    """
    items = p.items()
    if not items:
        raise NotUnimodularAtOne("zero polynomial evaluates to 0 at t = 1")
    lo, hi = items[0][0], items[-1][0]
    if (lo + hi) % 2 != 0:
        raise NotSymmetrizable(
            f"support [{lo}, {hi}] cannot be centered by an integer shift"
        )
    mid = (lo + hi) // 2
    if not LaurentPolynomial({e - mid: c for e, c in items}).is_palindromic():
        raise NotSymmetrizable("no unit multiple of the polynomial is palindromic")
    value_at_one = sum(c for _, c in items)
    if value_at_one not in (1, -1):
        raise NotUnimodularAtOne(f"p(1) = {value_at_one}, expected +-1")
    return LaurentPolynomial({e - mid: value_at_one * c for e, c in items})


def random_unimodular(rng, n, ops=None):
    """Product of random elementary row operations: det = +-1."""
    P = [[1 if i == j else 0 for j in range(n)] for i in range(n)]
    if n < 2:
        return P
    for _ in range(ops if ops is not None else 3 * n):
        kind = rng.randrange(3)
        i, j = rng.sample(range(n), 2)
        if kind == 0:
            c = rng.choice([-2, -1, 1, 2])
            for k in range(n):
                P[i][k] += c * P[j][k]
        elif kind == 1:
            P[i], P[j] = P[j], P[i]
        else:
            for k in range(n):
                P[i][k] = -P[i][k]
    return P


BASE_KNOTS = [
    "unknot",
    "left_trefoil",
    "right_trefoil",
    "figure_eight",
    "untwisted_double",
]


def random_seifert(rng, max_stabilizations=2) -> SeifertMatrix:
    """Random Seifert matrix: preset or torus base, stabilized and twisted."""
    choice = rng.randrange(len(BASE_KNOTS) + 2)
    if choice < len(BASE_KNOTS):
        s = preset_knot(BASE_KNOTS[choice])
    elif choice == len(BASE_KNOTS):
        s = torus_knot_seifert(2, rng.choice([3, 5, 7]))
    else:
        s = torus_knot_seifert(3, rng.choice([4, 5]))
    for _ in range(rng.randrange(max_stabilizations + 1)):
        column = [rng.randrange(-1, 2) for _ in range(s.size)]
        s = s.stabilized(column)
    if s.size:
        s = s.congruent(random_unimodular(rng, s.size))
    return s


def brute_force_arf(s: SeifertMatrix) -> int:
    """Democratic-count oracle: arf = 0 iff q has more zeros than ones."""
    d = s.size
    if d == 0:
        return 0
    zeros = 0
    for x in range(1 << d):
        support = [i for i in range(d) if (x >> i) & 1]
        value = sum(s.entries[i][j] for i in support for j in support) & 1
        zeros += 1 - value
    majority = 1 << (d - 1)
    assert zeros != majority, "degenerate form has no Arf invariant"
    return 0 if zeros > majority else 1


def sympy_alexander(s: SeifertMatrix):
    """Cofactor-expansion oracle for the normalized Alexander polynomial."""
    import sympy

    t = sympy.symbols("t")
    n = s.size
    if n == 0:
        return LaurentPolynomial.one()
    m = sympy.Matrix(
        [[t * s.entries[i][j] - s.entries[j][i] for j in range(n)] for i in range(n)]
    )
    det = sympy.expand(m.det())
    poly = sympy.Poly(det, t)
    coeffs = {exp: int(c) for (exp,), c in poly.terms()}
    raw = LaurentPolynomial({e - n // 2: c for e, c in coeffs.items()})
    return laurent_normalize_symmetric(raw)


def sympy_laurent_product(*polys: LaurentPolynomial) -> LaurentPolynomial:
    """Product of Laurent polynomials, multiplied out by sympy.

    Each factor is shifted to an ordinary polynomial first; the lowest
    exponents add, since Z[t] has no zero divisors.
    """
    import sympy

    if not all(p.items() for p in polys):
        return LaurentPolynomial({})
    t = sympy.symbols("t")
    lows = [p.items()[0][0] for p in polys]
    factors = [sum(c * t ** (e - low) for e, c in p.items()) for p, low in zip(polys, lows)]
    product = sympy.Poly(sympy.expand(sympy.Mul(*factors)), t)
    return LaurentPolynomial({e + sum(lows): int(c) for (e,), c in product.terms()})


def sympy_minor_sums(s: SeifertMatrix) -> tuple[tuple[int, ...], ...]:
    """Principal-minor oracle for g_r(t) = e_r(t S - S^T), r = 0 .. d.

    Each g_r is the sum of the r x r principal minors of t S - S^T, each a
    determinant taken by sympy over ZZ[t]; coefficients come constant
    first, padded to length r + 1.
    """
    from itertools import combinations

    import sympy
    from sympy.polys.matrices import DomainMatrix

    t = sympy.symbols("t")
    ring = sympy.ZZ[t]
    d = s.size
    entries = [
        [ring.from_sympy(t * s.entries[i][j] - s.entries[j][i]) for j in range(d)]
        for i in range(d)
    ]
    sums = []
    for r in range(d + 1):
        total = ring.zero
        for rows in combinations(range(d), r):
            minor = [[entries[i][j] for j in rows] for i in rows]
            total += DomainMatrix(minor, (r, r), ring).det() if r else ring.one
        coeffs = [int(c) for c in reversed(sympy.Poly(ring.to_sympy(total), t).all_coeffs())]
        sums.append(tuple(coeffs + [0] * (r + 1 - len(coeffs))))
    return tuple(sums)


def alexander_by_interpolation(s: SeifertMatrix) -> LaurentPolynomial:
    """Bareiss-plus-Lagrange oracle for the normalized Alexander polynomial.

    det(t S - S^T) has degree <= n, so n+1 Bareiss determinants at
    t = 0..n fix it; Lagrange interpolation over Fraction recovers it.
    """
    entries = s.entries
    n = len(entries)
    if n == 0:
        return LaurentPolynomial.one()
    points = range(n + 1)
    values = [
        integer_determinant(
            [[t * entries[i][j] - entries[j][i] for j in range(n)] for i in range(n)]
        )
        for t in points
    ]
    coeffs = [Fraction(0)] * (n + 1)
    for i, xi in enumerate(points):
        basis = [Fraction(1)]
        denom = Fraction(1)
        for j, xj in enumerate(points):
            if i == j:
                continue
            new = [Fraction(0)] * (len(basis) + 1)
            for k, c in enumerate(basis):
                new[k + 1] += c
                new[k] -= c * xj
            basis = new
            denom *= xi - xj
        scale = Fraction(values[i], 1) / denom
        for k, c in enumerate(basis):
            coeffs[k] += c * scale
    assert all(c.denominator == 1 for c in coeffs)
    raw = LaurentPolynomial({e - n // 2: int(c) for e, c in enumerate(coeffs)})
    return laurent_normalize_symmetric(raw)


def torus_alexander_closed_form(p: int, q: int) -> LaurentPolynomial:
    """(t^{pq} - 1)(t - 1) / ((t^p - 1)(t^q - 1)), normalized symmetric."""

    def poly_mul(a, b):
        out = [0] * (len(a) + len(b) - 1)
        for i, x in enumerate(a):
            for j, y in enumerate(b):
                out[i + j] += x * y
        return out

    def poly_div(a, b):
        a = a[:]
        out = [0] * (len(a) - len(b) + 1)
        for k in range(len(out) - 1, -1, -1):
            c = a[k + len(b) - 1] // b[-1]
            out[k] = c
            for j, bj in enumerate(b):
                a[k + j] -= c * bj
        assert all(x == 0 for x in a[: len(b) - 1])
        return out

    num = poly_mul([-1] + [0] * (p * q - 1) + [1], [-1, 1])
    den = poly_mul([-1] + [0] * (p - 1) + [1], [-1] + [0] * (q - 1) + [1])
    quotient = poly_div(num, den)
    return laurent_normalize_symmetric(LaurentPolynomial(dict(enumerate(quotient))))


def numpy_inertia(rows, tol=1e-8):
    """Floating-point eigenvalue oracle for inertia of small exact matrices."""
    import numpy as np

    if len(rows) == 0:
        return (0, 0, 0)
    a = np.array([[complex(x) for x in row] for row in rows], dtype=complex)
    assert np.allclose(a, a.conj().T)
    eigs = np.linalg.eigvalsh(a)
    n_plus = int((eigs > tol).sum())
    n_minus = int((eigs < -tol).sum())
    return (n_plus, n_minus, len(eigs) - n_plus - n_minus)


def corpus_knots() -> list[tuple[str, SeifertMatrix]]:
    """The built-in family battery used by the property tests."""
    knots = [(name, preset_knot(name)) for name in BASE_KNOTS]
    for p, q in [(2, 5), (2, 7), (3, 4), (3, 5), (5, 6)]:
        knots.append((f"torus({p},{q})", torus_knot_seifert(p, q)))
    tre = preset_knot("right_trefoil")
    fig8 = preset_knot("figure_eight")
    knots.append(("trefoil # fig8", connected_sum(tre, fig8)))
    knots.append(("granny", connected_sum(tre, tre)))
    knots.append(("square", connected_sum(tre, tre.mirror())))
    return knots


def rank_over_field(rows: list[list], is_zero, inverse) -> int:
    """Row-echelon rank using exact field arithmetic (pivot-count oracle)."""
    rows = [row[:] for row in rows]
    m = len(rows)
    ncols = len(rows[0]) if m else 0
    rank = 0
    for col in range(ncols):
        pivot_row = next(
            (r for r in range(rank, m) if not is_zero(rows[r][col])), None
        )
        if pivot_row is None:
            continue
        rows[rank], rows[pivot_row] = rows[pivot_row], rows[rank]
        inv = inverse(rows[rank][col])
        rows[rank] = [entry * inv for entry in rows[rank]]
        for r in range(rank + 1, m):
            c = rows[r][col]
            if not is_zero(c):
                rows[r] = [a - c * b for a, b in zip(rows[r], rows[rank])]
        rank += 1
        if rank == m:
            break
    return rank


def hermitian_pivots(matrix) -> list:
    """Pivots of one congruence diagonalization of a Hermitian matrix.

    The entries are eliminated as given: ints and Fractions, or CycElt
    values of one field, through exact zero tests (``not x``), inverses
    ``Fraction(1) / p`` and ``x.conjugate()``.  The pivots are exactly
    nonzero and real; their number is the rank and their signs give the
    inertia, by Sylvester's law for Hermitian forms.  The matrix is not
    checked: pivot_signature is the entry point for unchecked input.
    """
    M = [list(row) for row in matrix]
    active = list(range(len(M)))
    pivots = []
    while active:
        k = next((i for i in active if M[i][i]), None)
        if k is None:
            offdiag = next(
                (
                    (i, j)
                    for ai, i in enumerate(active)
                    for j in active[ai + 1:]
                    if M[i][j]
                ),
                None,
            )
            if offdiag is None:
                break  # remaining block is identically zero
            i, j = offdiag
            # congruence by (row i += c * row j) with c = M[i][j]: the new
            # diagonal entry is 2 |M[i][j]|^2 != 0
            c = M[i][j]
            cbar = c.conjugate()
            for l in active:
                M[i][l] = M[i][l] + c * M[j][l]
            for l in active:
                M[l][i] = M[l][i] + M[l][j] * cbar
            continue
        p = M[k][k]
        pivots.append(p)
        active.remove(k)
        inv_p = Fraction(1) / p
        col = {i: M[i][k] * inv_p for i in active}
        for i in active:
            ci = col[i]
            if not ci:
                continue
            row_k = M[k]
            row_i = M[i]
            for j in active:
                row_i[j] = row_i[j] - ci * row_k[j]
    return pivots


@dataclass(frozen=True)
class ZeroWitness:
    """Exact algebraic identity certifying the value is zero."""

    reason: str


@dataclass(frozen=True)
class RationalWitness:
    """Rational interval [lower, upper] excluding zero; precision 0 means exact endpoints."""

    lower: Fraction
    upper: Fraction
    precision: int


def certified_sign(x) -> CertifiedSign:
    """Sign of a real algebraic number, with a checkable witness.

    Zero is detected exactly (never from a small interval); nonzero signs
    carry a dyadic interval that excludes zero.  A rational CycElt is
    read as its Fraction.  Any other real x = sum_j c_j zeta^j is
    (2 a_0 + sum_(j>0) a_j 2 cos(2 pi j / n)) / 2L with a = L c, L the
    lcm of the denominators; cosine_sum_signs certifies the numerator, and
    its interval divided by 2L is the witness.
    """
    if isinstance(x, CycElt) and x.is_rational():
        x = x.coeffs[0] if x.coeffs else Fraction(0)
    if isinstance(x, (int, Fraction)):
        q = Fraction(x)
        if q == 0:
            return CertifiedSign(0, ZeroWitness("rational value is exactly zero"))
        sign = 1 if q > 0 else -1
        return CertifiedSign(sign, RationalWitness(q, q, 0))
    if not isinstance(x, CycElt):
        raise TypeError(f"cannot certify sign of {type(x)!r}")
    if not x.is_real():
        raise ValueError("sign is only defined for real elements")
    scale = lcm(*(c.denominator for c in x.coeffs))
    a = [c.numerator * (scale // c.denominator) for c in x.coeffs]
    a[0] *= 2
    # not rational, hence nonzero: the refinement ends
    [s] = cosine_sum_signs([a], x.field.n, 1)
    w, half = s.witness, Fraction(1, 2 * scale)
    return CertifiedSign(s.value, RationalWitness(w.lower * half, w.upper * half, w.precision))


def count_pivot_signs(pivots) -> tuple[int, int]:
    """(n_plus, n_minus) of exactly nonzero real pivots, each sign certified."""
    n_plus = n_minus = 0
    for p in pivots:
        s = certified_sign(p)
        if s.value > 0:
            n_plus += 1
        elif s.value < 0:
            n_minus += 1
        else:
            raise InternalError("elimination produced an exactly-zero pivot")
    return (n_plus, n_minus)


def pivot_signature(h) -> tuple[int, int, int]:
    """Elimination oracle for certified_signature, over Q or one Q(zeta_n).

    Exact inertia (n_plus, n_minus, n_zero) of a Hermitian matrix by one
    congruence elimination (hermitian_pivots): the pivot count is the
    rank and the certified pivot signs give n_plus and n_minus.  Entries
    may be ints, Fractions and CycElt values of one cyclotomic field.
    Raises ValueError for a matrix that is not square or mixes fields,
    TypeError for any other kind of entry, and NotHermitian when the
    matrix differs from its conjugate transpose.
    """
    n = len(h)
    fields = set()
    for row in h:
        if len(row) != n:
            raise ValueError("matrix must be square")
        for entry in row:
            if isinstance(entry, CycElt):
                fields.add(entry.field)
            elif not isinstance(entry, (int, Fraction)):
                raise TypeError(f"cannot take the inertia of a {type(entry)!r} entry")
    if len(fields) > 1:
        raise ValueError("entries come from different cyclotomic fields")
    for i in range(n):
        for j in range(i, n):
            if h[i][j] != h[j][i].conjugate():
                raise NotHermitian(f"entry ({i},{j}) breaks conjugate symmetry")
    pivots = hermitian_pivots(h)
    return count_pivot_signs(pivots) + (n - len(pivots),)


def doubled_signature(h, field: CyclotomicField):
    """Inertia via the real symmetric doubling [[Re, -Im], [Im, Re]].

    Independent cross-check route: the doubled matrix is real symmetric
    over the field of order lcm(4, n) and its inertia is exactly twice
    the Hermitian inertia.
    """
    n = len(h)
    if n == 0:
        return (0, 0, 0)
    big = CyclotomicField(lcm(4, field.n))
    eye = field_i(big)
    half = Fraction(1, 2)
    re = [[None] * n for _ in range(n)]
    im = [[None] * n for _ in range(n)]
    for i in range(n):
        for j in range(n):
            entry = h[i][j]
            z = embed(big, entry) if isinstance(entry, CycElt) else big.rational(entry)
            zbar = z.conjugate()
            re[i][j] = (z + zbar) * half
            im[i][j] = (z - zbar) * (-eye) * half
    doubled = [
        [re[i][j] for j in range(n)] + [(-im[i][j]) for j in range(n)]
        for i in range(n)
    ] + [
        [im[i][j] for j in range(n)] + [re[i][j] for j in range(n)]
        for i in range(n)
    ]
    inertia = pivot_signature(doubled)
    assert all(x % 2 == 0 for x in inertia), "doubled inertia is not even"
    return tuple(x // 2 for x in inertia)


def tl_form(s: SeifertMatrix, n: int, m: int):
    """H = (1 - w) S + (1 - conj w) S^T at w = zeta_n^m, over Q(zeta_n)."""
    field = CyclotomicField(n)
    u = field.one() - field.zeta(m)
    ubar = field.one() - field.zeta(-m)
    d = s.size
    H = [
        [u * s.entries[i][j] + ubar * s.entries[j][i] for j in range(d)]
        for i in range(d)
    ]
    return H, field


def tl_orbit_by_elimination(entries, k: int):
    """Elimination oracle for seifert._tl_orbit_cached: (values, nullity).

    H(zeta_k) is eliminated once over Q(zeta_k) (on integers for k <= 2).
    H(zeta_k^m) is the image of H(zeta_k) under zeta -> zeta^m, which
    commutes with the elimination, so the pivots' images are its pivots;
    their signs are certified one by one.  The rank is the pivot count.
    """
    d = len(entries)
    pivots = []
    if k > 1 and d:  # else H is the zero form
        if k == 2:
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
            images = pivots if m == 1 else [p.galois(m) for p in pivots]
            n_plus, n_minus = count_pivot_signs(images)
            values[m] = values[-m % k] = n_plus - n_minus
    return tuple(values), d - len(pivots)


# --- the interpolation route for orders k >= 2, kept as an oracle ---
#
# Moved here verbatim from casson4: g_r(t) = e_r(t S - S^T) interpolated
# once per matrix, and the zero tests by Phi_k divisibility.

def proth_prime_unsieved(bits: int, order: int = 1) -> int:
    """inertia._proth_prime without its small-prime sieve: every candidate takes the power test."""
    odd = order // (order & -order)
    for b in count(max(bits, (order & -order).bit_length() - 1)):
        for c in range(odd, 1 << b, 2 * odd):
            candidate = (c << b) + 1
            for a in (3, 5, 7, 11, 13):
                power = pow(a, candidate >> 1, candidate)
                if power == candidate - 1:
                    return candidate
                if power != 1:
                    break


def phi_divides(n: int, poly: Sequence[int]) -> bool:
    """Whether Phi_n divides the integer polynomial ``poly`` (constant first).

    The remainder is taken in integers: first modulo t^n - 1, which Phi_n
    divides, then modulo the monic Phi_n itself.
    """
    folded = [0] * n
    for e, c in enumerate(poly):
        folded[e % n] += c
    phi = cyclotomic_polynomial(n)
    degree = len(phi) - 1
    for top in range(n - 1, degree - 1, -1):
        c = folded[top]
        if c:
            for j, pj in enumerate(phi):
                folded[top - degree + j] -= c * pj
    return not any(folded)


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
    coeffs = dict(alexander.items())
    if sums[d] != tuple(coeffs.get(e - half, 0) for e in range(d + 1)):
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
    inertia = descartes_inertia(signs)
    expected = certified_signature(
        [[a + b for a, b in zip(row, col)] for row, col in zip(entries, columns)]
    )
    if inertia != expected:
        raise InternalError(
            f"e_r(t S - S^T) at t = -1 give inertia {inertia}; "
            f"certified_signature of S + S^T gives {expected}"
        )
    return tuple(sums)


def _descartes_orbit(
    entries: tuple[tuple[int, ...], ...], k: int
) -> tuple[tuple[int | None, ...], int]:
    """_tl_orbit_cached for k >= 2 and d > 0, by Descartes' rule.

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
            certified = iter(cosine_sum_signs([a for a, zero in rows if not zero], k, m))
            signs = [zero or next(certified) for a, zero in rows]
            n_plus, n_minus, nullity = descartes_inertia([s.value for s in signs])
            values[m] = values[-m % k] = n_plus - n_minus
    return tuple(values), nullity


def litherland_torus(p: int, q: int, a: Fraction) -> tuple[int, int]:
    """(signature, nullity) of the right-handed T(p, q) at e^(2 pi i a).

    Litherland's count over the pairs s = i/p + j/q, 0 < i < p, 0 < j < q:
    -1 for s strictly between a and a + 1, +1 for s outside [a, a + 1];
    the roots e^(2 pi i s) of Delta are simple, so the nullity is the
    number of s with s - a an integer.
    """
    if a == 0:
        return 0, 0
    signature = nullity = 0
    for i in range(1, p):
        for j in range(1, q):
            s = Fraction(i, p) + Fraction(j, q)
            if s in (a, a + 1):
                nullity += 1
            elif a < s < a + 1:
                signature -= 1
            else:
                signature += 1
    return signature, nullity


def skew_alexander_charpoly(monkeypatch):
    """Make the Alexander route return t^2 for the trefoil.

    Adding 1 to the x^1 coefficient of det(x I - N) adds (t - 1)^(n - 1)
    to det(t S - S^T): the value at t = 1 stays 1, but for the trefoil
    the result is t^2, which no shift makes palindromic.  Callers clear
    seifert._alexander_cached around the patched calls.
    """
    charpoly = seifert._charpoly_mod

    def skewed(H, p):
        coeffs = charpoly(H, p)
        coeffs[1] += 1
        return coeffs

    monkeypatch.setattr(seifert, "_charpoly_mod", skewed)


def random_gl4(rng) -> list[int]:
    """Uniformly-flavored random invertible 4x4 matrix over GF(2), as row bitmasks."""
    while True:
        rows = [rng.randrange(1, 16) for _ in range(4)]
        if bitrows_rank(rows) == 4:
            return rows


def admissible_by_enumeration(ring, w: int) -> bool:
    """Oracle for tori.admissible: (w cup xi cup eta)[X] over all 225 pairs."""
    return any(
        ring.pair(w, ring.cup(xi, eta)) for xi in range(1, 16) for eta in range(1, 16)
    )


def field_i(field: CyclotomicField) -> CycElt:
    """The square root zeta_n^(n/4) of -1 in Q(zeta_n), for 4 | n."""
    if field.n % 4:
        raise ValueError(f"Q(zeta_{field.n}) does not contain i")
    return field.zeta(field.n // 4)


def embed(field: CyclotomicField, elt: CycElt) -> CycElt:
    """Image of an element of a subfield Q(zeta_m), m | n, in Q(zeta_n)."""
    m = elt.field.n
    if field.n % m != 0:
        raise ValueError(f"Q(zeta_{m}) is not a subfield of Q(zeta_{field.n})")
    step = field.n // m
    out = field.zero()
    for j, c in enumerate(elt.coeffs):
        if c:
            out = out + field.zeta(j * step) * c
    return out


def evaluate_laurent(poly, field: CyclotomicField, power: int = 1) -> CycElt:
    """Evaluate an integer Laurent polynomial at zeta_n^power, exactly."""
    total = field.zero()
    for e, c in poly.items():
        total = total + field.zeta((power * e) % field.n) * c
    return total


def alexander_at_root_of_unity(s: SeifertMatrix, n: int, m: int = 1) -> CycElt:
    """Exact value Delta(zeta_n^m) in the cyclotomic field of order n."""
    return evaluate_laurent(alexander_polynomial(s), CyclotomicField(n), m)


def ring_defect(cup2, pairing, eval_top) -> str | None:
    """Why (cup2, pairing, eval_top) is not a cup ring, or None if it is.

    Oracle for the checks in CupRing's constructor: the checks in the
    same order with the same messages, but every top value is taken
    through the bilinear cup expansion of the four basis vectors.
    Arguments are normalized: 6-bit ints, pairing rows as ints, one bit.
    """

    def cup(x, y):
        out = 0
        for i in range(4):
            for j in range(4):
                if (x >> i) & 1 and (y >> j) & 1:
                    out ^= cup2[i][j]
        return out

    def pair(u, v):
        return sum((pairing[i] & v).bit_count() for i in range(6) if (u >> i) & 1) & 1

    def eval4(x, y, z, w):
        return pair(cup(x, y), cup(z, w))

    for i in range(4):
        if cup2[i][i]:
            return f"cup2[{i}][{i}] must vanish (odd square)"
        for j in range(4):
            if cup2[i][j] != cup2[j][i]:
                return "cup2 table must be symmetric"
    for i in range(6):
        for j in range(6):
            if (pairing[i] >> j) & 1 != (pairing[j] >> i) & 1:
                return "H^2 pairing must be symmetric"
    if bitrows_rank(list(pairing)) != 6:
        return "H^2 pairing must be nondegenerate (rank 6)"
    basis = (1, 2, 4, 8)
    for quad in product(range(4), repeat=4):
        value = eval4(*(basis[q] for q in quad))
        if len(set(quad)) < 4:
            if value:
                return "top form must vanish on repeated arguments"
            continue
        if value != eval4(*(basis[q] for q in sorted(quad))):
            return "top form is not symmetric under argument permutations"
    if eval4(*basis) != eval_top:
        return (
            f"declared top value {eval_top} does not match the "
            f"pairing evaluation {eval4(*basis)}"
        )
    return None
