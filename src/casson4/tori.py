"""GF(2) cohomology rings of homology 3- and 4-tori.

H^1 is F_2^4 (classes as 4-bit ints), H^2 is F_2^6 (6-bit ints).  The
ring is given by the table of pairwise cup products of the H^1 basis and
the symmetric pairing on H^2; the top evaluation of four 1-classes is
pairing(cup(x, y), cup(z, w)).  The determinant, the spin-Rohlin
aggregate, and the mod-2 degree-zero instanton count are all derived
from this data: the four-orbit count by exhausting the 35 planes in H^1,
the two hypotheses by bilinearity on the basis.  The constructor checks
the alternating top form on the 21 pairs of basis 2-classes; the loop over
all 256 basis quadruples is the tests' oracle.  Every form is evaluated by
``gf2.form_value``, and every H^2 class is read by ``as_h2``.
"""

from __future__ import annotations

import operator
from collections.abc import Iterable
from dataclasses import dataclass
from fractions import Fraction
from itertools import combinations, combinations_with_replacement
from typing import Sequence

from .errors import HypothesisFails, InconsistentRing, InternalError, NonBinary, ZeroW2
from .gf2 import bitrows_rank, form_value

H1_DIM = 4
H2_DIM = 6

# the 35 two-dimensional subspaces of F_2^4, each as its set of nonzero vectors
ALL_PLANES: tuple[tuple[int, int, int], ...] = tuple(
    sorted(
        tuple(sorted((a, b, a ^ b)))
        for a, b in combinations(range(1, 16), 2)
        if a ^ b > b
    )
)
if len(ALL_PLANES) != 35 or any(len({0, *plane}) != 4 for plane in ALL_PLANES):
    raise InternalError("H^1 must have 35 two-planes of 4 elements each")


@dataclass(frozen=True)
class CupRing:
    """Mod-2 cohomology ring data of a homology 4-torus.

    cup2[i][j] is the product a_i cup a_j as a 6-bit vector in H^2;
    pairing[u] is row u of the Gram matrix of the H^2 x H^2 form.  Both
    are given as as_h2 reads a class: a 6-bit int or a list of six bits.
    Construction raises InconsistentRing unless the data presents a
    genuine ring, so every CupRing is one.
    """

    cup2: tuple[tuple[int, ...], ...]          # 4x4 table of 6-bit ints
    pairing: tuple[int, ...]                   # 6 rows of 6-bit ints
    eval_top: int                              # declared (a0 a1 a2 a3)[X]

    def __init__(
        self,
        cup2: Sequence[Sequence[int | Sequence[int]]],
        pairing: Sequence[int | Sequence[int]],
        eval_top: int,
    ):
        cup_table = tuple(tuple(as_h2(v) for v in row) for row in cup2)
        if len(cup_table) != H1_DIM or any(len(r) != H1_DIM for r in cup_table):
            raise InconsistentRing("cup2 must be a 4x4 table")
        rows = tuple(as_h2(row) for row in pairing)
        if len(rows) != H2_DIM:
            raise InconsistentRing("pairing must have 6 rows")
        object.__setattr__(self, "cup2", cup_table)
        object.__setattr__(self, "pairing", rows)
        eval_top = operator.index(eval_top)
        if eval_top not in (0, 1):
            raise ValueError("eval_top is a single bit")
        object.__setattr__(self, "eval_top", eval_top)
        # the data must present a genuine ring
        for i in range(H1_DIM):
            if cup_table[i][i]:
                raise InconsistentRing(f"cup2[{i}][{i}] must vanish (odd square)")
            for j in range(H1_DIM):
                if cup_table[i][j] != cup_table[j][i]:
                    raise InconsistentRing("cup2 table must be symmetric")
        if any(rows[i] >> j & 1 != rows[j] >> i & 1
               for i, j in combinations(range(H2_DIM), 2)):
            raise InconsistentRing("H^2 pairing must be symmetric")
        if bitrows_rank(list(rows)) != H2_DIM:
            raise InconsistentRing("H^2 pairing must be nondegenerate (rank 6)")
        # mod 2, "alternating" means: invariant under permutations and
        # vanishing whenever two arguments coincide, on basis quadruples
        # (multilinearity does the rest).  There the top form is
        # pair(cup2[i][j], cup2[k][l]): 0 if i = j or k = l by the checks
        # above, else a function of {{i, j}, {k, l}}.  So these 21 pairs, met
        # in the order of their first quadruple, decide all 256 quadruples.
        top = self.pair(cup_table[0][1], cup_table[2][3])
        two_classes = combinations(range(H1_DIM), 2)
        for (i, j), (k, l) in combinations_with_replacement(two_classes, 2):
            value = self.pair(cup_table[i][j], cup_table[k][l])
            if {i, j} & {k, l}:
                if value:
                    raise InconsistentRing("top form must vanish on repeated arguments")
            elif value != top:
                raise InconsistentRing("top form is not symmetric under argument permutations")
        if top != self.eval_top:
            raise InconsistentRing(
                f"declared top value {self.eval_top} does not match the "
                f"pairing evaluation {top}"
            )

    # --- ring operations ---

    def cup(self, x: int, y: int) -> int:
        """Bilinear extension of the basis cup table to H^1 x H^1."""
        out = 0
        for i in range(H1_DIM):
            if not (x >> i) & 1:
                continue
            for j in range(H1_DIM):
                if (y >> j) & 1:
                    out ^= self.cup2[i][j]
        return out

    def pair(self, u: int, v: int) -> int:
        """Symmetric H^2 x H^2 pairing into F_2."""
        return form_value(self.pairing, u, v)


@dataclass(frozen=True)
class ThreeTorusForm:
    """Alternating triple cup form of a homology 3-torus: one bit."""

    triple: int

    def __post_init__(self):
        object.__setattr__(self, "triple", operator.index(self.triple))
        if self.triple not in (0, 1):
            raise ValueError("the triple form is a single bit")


def det3(f: ThreeTorusForm) -> int:
    """Determinant of the 3-torus: the triple product (a1 a2 a3)[Y]."""
    return f.triple


def det4(r: CupRing) -> int:
    """Determinant of the 4-torus: (a0 a1 a2 a3)[X], basis independent."""
    return r.eval_top


def product_ring(f: ThreeTorusForm) -> CupRing:
    """Ring of (circle) x (homology 3-torus with triple form f).

    a_0 is the circle class.  H^2 has basis E_1..E_3 = a_0 cup a_i and
    B_1..B_3 dual to a_1..a_3; the 3-torus cup products contribute
    a_i cup a_j = triple * B_k for {i, j, k} = {1, 2, 3}, and the
    intersection pairing is hyperbolic on (E_i, B_i).
    """
    mu = f.triple
    E = [1 << 0, 1 << 1, 1 << 2]
    B = [1 << 3, 1 << 4, 1 << 5]
    cup2 = [[0] * H1_DIM for _ in range(H1_DIM)]
    for i in range(1, 4):
        cup2[0][i] = cup2[i][0] = E[i - 1]
    third = {(1, 2): 3, (1, 3): 2, (2, 3): 1}
    for (i, j), k in third.items():
        cup2[i][j] = cup2[j][i] = mu * B[k - 1]
    pairing = [B[i] for i in range(3)] + [E[i] for i in range(3)]
    return CupRing(cup2, pairing, mu)


def torus4_ring() -> CupRing:
    """The 4-torus ring: the exterior algebra on four generators.

    H^2 basis is e_ij for i < j in the order 01, 02, 03, 12, 13, 23;
    two basis 2-classes pair to 1 exactly when their indices are
    complementary.
    """
    order = [(0, 1), (0, 2), (0, 3), (1, 2), (1, 3), (2, 3)]
    index = {pair: k for k, pair in enumerate(order)}
    cup2 = [[0] * H1_DIM for _ in range(H1_DIM)]
    for (i, j), k in index.items():
        cup2[i][j] = cup2[j][i] = 1 << k
    pairing = []
    for (i, j) in order:
        complement = tuple(sorted(set(range(4)) - {i, j}))
        pairing.append(1 << index[complement])
    return CupRing(cup2, pairing, 1)


@dataclass(frozen=True)
class SpinRohlinTable:
    """Rohlin invariants of the 8 spin structures over a fixed direction.

    Values are exact rationals representing classes in Q/2Z, so each must
    lie in [0, 2).
    """

    values: tuple[Fraction, ...]

    def __init__(self, values: Sequence):
        vals = tuple(values)
        if any(isinstance(v, float) for v in vals):
            raise TypeError("spin-Rohlin values must be exact (int, Fraction or str)")
        vals = tuple(map(Fraction, vals))
        if len(vals) != 8:
            raise ValueError("a spin-Rohlin table has exactly 8 entries")
        for v in vals:
            if not 0 <= v < 2:
                raise ValueError(f"value {v} is not a Q/2Z representative in [0, 2)")
        object.__setattr__(self, "values", vals)


def rho_bar(t: SpinRohlinTable) -> int:
    """Sum of the eight spin Rohlin invariants, reduced mod 2.

    Raises NonBinary when the reduced sum is not 0 or 1, which marks the
    table as inconsistent.
    """
    total = sum(t.values, Fraction(0)) % 2
    if total == 0:
        return 0
    if total == 1:
        return 1
    raise NonBinary(f"table sums to {total} mod 2, which is not a bit")


def four_orbit_count(r: CupRing, w: int) -> int:
    """Number of 2-planes in H^1 whose cup product is w.

    The cup product of a plane is that of any two of its distinct
    elements, well defined because cup(x, x) = 0: changing basis inside
    the plane never changes it.  These planes enumerate the orbits of
    size four in the flat moduli space with second Stiefel-Whitney class
    w; computed by exhausting all 35 planes.  Each such class has
    stabilizer the plane itself (order 4 in the 16-element group), so no
    orbit of order one or two occurs; orbits of order 8 and 16 are not
    enumerable from the ring and need gauge theory.
    """
    w = as_h2(w)
    if w == 0:
        raise ZeroW2("w_2 must be nonzero")
    return sum(1 for a, b, _ in ALL_PLANES if r.cup(a, b) == w)


def as_h2(w) -> int:
    """An H^2 class as a 6-bit int, given as an int or as a list of six bits.

    Raises ValueError for an int outside 0..63 or a bit list that is not
    six entries of 0 or 1, and TypeError for anything that is not an
    integer or a list of integers.
    """
    if not isinstance(w, Iterable):
        w = operator.index(w)
        if not 0 <= w < 1 << H2_DIM:
            raise ValueError("H^2 classes are 6-bit")
        return w
    bits = [operator.index(v) for v in w]
    if len(bits) != H2_DIM or not set(bits) <= {0, 1}:
        raise ValueError("an H^2 bit list has six entries, each 0 or 1")
    return sum(bit << j for j, bit in enumerate(bits))


def admissible(r: CupRing, w) -> bool:
    """True when some xi in H^1 has w cup xi != 0 in H^3.

    That holds when (w cup xi cup eta)[X] != 0 for some xi, eta in H^1.
    The left side is bilinear in (xi, eta), so it is nonzero for some pair
    exactly when it is for a pair of basis vectors a_i, a_j with i < j
    (a_i cup a_i = 0 and the table is symmetric): six products to test.
    """
    w = as_h2(w)
    return any(r.pair(w, r.cup2[i][j]) for i, j in combinations(range(H1_DIM), 2))


def bundle_exists(r: CupRing, w) -> bool:
    """True when a p1 = 0 bundle with second Stiefel-Whitney class w exists.

    p1 reduces mod 4 to the Pontryagin square of w2, so a p1 = 0 bundle
    requires that square to vanish.  On the even intersection form of a
    homology 4-torus this is the quadratic refinement
    q(w) = sum_{i<j} w_i w_j <u_i, u_j> (mod 2), assuming the H^2 basis
    classes lift to integral classes of square divisible by 4 (true for
    the hyperbolic bases these rings use).  The sum is the quadratic form
    of the strictly upper triangle of the pairing.
    """
    w = as_h2(w)
    upper = [row >> (i + 1) << (i + 1) for i, row in enumerate(r.pairing)]
    return form_value(upper, w, w) == 0


def donaldson_mod2(r: CupRing, w) -> int:
    """Mod-2 quarter count of the degree-zero instanton invariant.

    Two hypotheses are verified, and the operation refuses
    (HypothesisFails) rather than return an unsupported value when either
    fails: some xi in H^1 must pair nontrivially with w, and a p1 = 0
    bundle realizing w must exist (Pontryagin square of w vanishes).
    Under both, the value equals det4 of the ring.
    """
    w = as_h2(w)
    if w == 0:
        raise ZeroW2("w_2 must be nonzero")
    if not admissible(r, w):
        raise HypothesisFails(
            f"no xi in H^1 has w cup xi != 0 for w = {w:#08b}"
        )
    if not bundle_exists(r, w):
        raise HypothesisFails(
            f"no p1 = 0 bundle has w_2 = {w:#08b}: its Pontryagin square "
            "is nonzero, so the degree-zero count is undefined"
        )
    return four_orbit_count(r, w) % 2
