"""GF(2) cohomology rings of homology 3- and 4-tori.

H^1 is F_2^4 (classes as 4-bit ints), H^2 is F_2^6 (6-bit ints).  The
ring is given by the table of pairwise cup products of the H^1 basis and
the symmetric pairing on H^2; the top evaluation of four 1-classes is
pairing(cup(x, y), cup(z, w)).  The determinant, the spin-Rohlin
aggregate, and the mod-2 degree-zero instanton count are all derived
from this data by exhaustive enumeration.
"""

from __future__ import annotations

import operator
from dataclasses import dataclass
from fractions import Fraction
from itertools import combinations, product
from typing import Sequence

from .errors import HypothesisFails, InconsistentRing, InternalError, NonBinary, ZeroW2
from .gf2 import bitrows_rank

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


def _parity(x: int) -> int:
    return x.bit_count() & 1


@dataclass(frozen=True)
class CupRing:
    """Mod-2 cohomology ring data of a homology 4-torus.

    cup2[i][j] is the product a_i cup a_j as a 6-bit vector in H^2;
    pairing[u] is row u of the Gram matrix of the H^2 x H^2 form.
    Construction raises InconsistentRing unless the data presents a
    genuine ring, so every CupRing is one.
    """

    cup2: tuple[tuple[int, ...], ...]          # 4x4 table of 6-bit ints
    pairing: tuple[int, ...]                   # 6 rows of 6-bit ints
    eval_top: int                              # declared (a0 a1 a2 a3)[X]

    def __init__(
        self,
        cup2: Sequence[Sequence[int]],
        pairing: Sequence[int] | Sequence[Sequence[int]],
        eval_top: int,
    ):
        cup_table = tuple(tuple(operator.index(v) & 0x3F for v in row) for row in cup2)
        if len(cup_table) != H1_DIM or any(len(r) != H1_DIM for r in cup_table):
            raise InconsistentRing("cup2 must be a 4x4 table")
        rows = []
        for row in pairing:
            if isinstance(row, int):
                rows.append(row & 0x3F)
            else:
                rows.append(sum((operator.index(v) & 1) << j for j, v in enumerate(row)))
        if len(rows) != H2_DIM:
            raise InconsistentRing("pairing must have 6 rows")
        object.__setattr__(self, "cup2", cup_table)
        object.__setattr__(self, "pairing", tuple(rows))
        object.__setattr__(self, "eval_top", operator.index(eval_top) & 1)
        # the data must present a genuine ring
        for i in range(H1_DIM):
            if cup_table[i][i]:
                raise InconsistentRing(f"cup2[{i}][{i}] must vanish (odd square)")
            for j in range(H1_DIM):
                if cup_table[i][j] != cup_table[j][i]:
                    raise InconsistentRing("cup2 table must be symmetric")
        for i in range(H2_DIM):
            for j in range(H2_DIM):
                if (rows[i] >> j) & 1 != (rows[j] >> i) & 1:
                    raise InconsistentRing("H^2 pairing must be symmetric")
        if bitrows_rank(list(rows)) != H2_DIM:
            raise InconsistentRing("H^2 pairing must be nondegenerate (rank 6)")
        # mod 2, "alternating" means: invariant under permutations and
        # vanishing whenever two arguments coincide; checking it on all
        # basis quadruples extends to arbitrary vectors by multilinearity.
        # On basis vectors the top form is pair(cup2[i][j], cup2[k][l]).
        for i, j, k, l in product(range(H1_DIM), repeat=4):
            value = self.pair(cup_table[i][j], cup_table[k][l])
            if len({i, j, k, l}) < 4:
                if value:
                    raise InconsistentRing(
                        "top form must vanish on repeated arguments"
                    )
                continue
            a, b, c, d = sorted((i, j, k, l))
            if value != self.pair(cup_table[a][b], cup_table[c][d]):
                raise InconsistentRing(
                    "top form is not symmetric under argument permutations"
                )
        top = self.pair(cup_table[0][1], cup_table[2][3])
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
        acc = 0
        for i in range(H2_DIM):
            if (u >> i) & 1:
                acc ^= _parity(self.pairing[i] & v)
        return acc

    def eval4(self, x: int, y: int, z: int, w: int) -> int:
        """Top evaluation (x cup y cup z cup w)[X]."""
        return self.pair(self.cup(x, y), self.cup(z, w))

    def plane_cup(self, plane: tuple[int, int, int]) -> int:
        """Cup product of any two distinct elements of a 2-plane.

        Well defined because cup(x, x) = 0: changing basis inside the
        plane never changes the product.
        """
        a, b, _ = plane
        return self.cup(a, b)

    def change_basis(self, rows: Sequence[int]) -> "CupRing":
        """Ring in a new H^1 basis a_i' = sum_j P[i][j] a_j (P invertible)."""
        P = [operator.index(r) & 0xF for r in rows]
        if len(P) != H1_DIM or bitrows_rank(list(P)) != H1_DIM:
            raise ValueError("basis change must be an invertible 4x4 matrix")
        new_cup = tuple(
            tuple(self.cup(P[i], P[j]) for j in range(H1_DIM)) for i in range(H1_DIM)
        )
        new_top = self.pair(self.cup(P[0], P[1]), self.cup(P[2], P[3]))
        return CupRing(new_cup, self.pairing, new_top)


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

    These planes enumerate the orbits of size four in the flat moduli
    space with second Stiefel-Whitney class w; computed by exhausting all
    35 planes.
    """
    w = as_h2(w)
    if w == 0:
        raise ZeroW2("w_2 must be nonzero")
    return sum(1 for plane in ALL_PLANES if r.plane_cup(plane) == w)


def as_h2(w) -> int:
    """An H^2 class as a 6-bit int, given as an int or as a list of bits."""
    if isinstance(w, int):
        if not 0 <= w < 64:
            raise ValueError("H^2 classes are 6-bit")
        return w
    return sum((operator.index(v) & 1) << j for j, v in enumerate(w))


def admissible(r: CupRing, w) -> bool:
    """True when some xi in H^1 has w cup xi != 0 in H^3.

    Nonvanishing in H^3 is tested against all of H^1 through the top
    pairing, by full enumeration.
    """
    w = as_h2(w)
    return any(
        r.pair(w, r.cup(xi, eta))
        for xi in range(1, 16)
        for eta in range(1, 16)
    )


def bundle_exists(r: CupRing, w) -> bool:
    """True when a p1 = 0 bundle with second Stiefel-Whitney class w exists.

    p1 reduces mod 4 to the Pontryagin square of w2, so a p1 = 0 bundle
    requires that square to vanish.  On the even intersection form of a
    homology 4-torus this is the quadratic refinement
    q(w) = sum_{i<j} w_i w_j <u_i, u_j> (mod 2), assuming the H^2 basis
    classes lift to integral classes of square divisible by 4 (true for
    the hyperbolic bases these rings use).
    """
    w = as_h2(w)
    bits = [i for i in range(H2_DIM) if (w >> i) & 1]
    total = 0
    for a in range(len(bits)):
        for b in range(a + 1, len(bits)):
            total ^= (r.pairing[bits[a]] >> bits[b]) & 1
    return total == 0


def donaldson_mod2(r: CupRing, w) -> int:
    """Mod-2 quarter count of the degree-zero instanton invariant.

    Two hypotheses are verified by enumeration, and the operation refuses
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


@dataclass(frozen=True)
class OrbitCensus:
    """Orbit-size census of the algebraically enumerable stratum.

    Only orbits of size four (representations through Z2 + Z2) are
    enumerable from the ring; sizes 8 and 16 require gauge theory and are
    reported as unknown.  Orders one and two never occur.
    """

    four: int
    eight: None
    sixteen: None
    small_orbits_absent: bool


def orbit_order_census(r: CupRing, w) -> OrbitCensus:
    """Census of orbit sizes over the plane stratum with class w.

    Every enumerated class has stabilizer exactly the plane itself
    (order 4 in the 16-element group; ALL_PLANES is checked for that at
    import), so orbits of order one or two are absent from this stratum,
    and the 8/16 counts are left unknown.
    """
    return OrbitCensus(
        four=four_orbit_count(r, w), eight=None, sixteen=None, small_orbits_absent=True
    )
