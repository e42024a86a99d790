import random
import re
from fractions import Fraction
import pytest

from casson4 import (
    CupRing,
    SpinRohlinTable,
    ThreeTorusForm,
    admissible,
    bundle_exists,
    det3,
    det4,
    donaldson_mod2,
    four_orbit_count,
    product_ring,
    rho_bar,
    torus4_ring,
)
from casson4.errors import HypothesisFails, InconsistentRing, NonBinary, ZeroW2
from casson4.tori import as_h2
from helpers import admissible_by_enumeration, change_basis, random_gl4, ring_defect

T4 = torus4_ring()
EVEN = product_ring(ThreeTorusForm(0))
ODD = product_ring(ThreeTorusForm(1))
ALL_RINGS = [("T4", T4), ("even product", EVEN), ("odd product", ODD)]


def brute_four_orbit_count(ring, w):
    """Independent enumeration: ordered independent pairs, divided by 6."""
    total = 0
    for x in range(1, 16):
        for y in range(1, 16):
            if x == y:
                continue
            if ring.cup(x, y) == w:
                total += 1
    assert total % 6 == 0  # each plane has 6 ordered bases
    return total // 6


def test_det4_presets():
    assert det4(T4) == 1
    assert det4(EVEN) == 0
    assert det4(ODD) == 1


def test_det3_values():
    assert det3(ThreeTorusForm(1)) == 1
    assert det3(ThreeTorusForm(0)) == 0
    with pytest.raises(ValueError):
        ThreeTorusForm(2)


def test_product_ring_det_matches_three_form():
    for mu in (0, 1):
        assert det4(product_ring(ThreeTorusForm(mu))) == mu


def test_det4_gl4_invariance():
    rng = random.Random(43)
    for name, ring in ALL_RINGS:
        base = det4(ring)
        for _ in range(25):
            P = random_gl4(rng)
            changed = change_basis(ring, P)
            assert det4(changed) == base, name


def test_plane_cup_is_basis_independent():
    # replacing (a, b) by (a, a + b) never changes the product
    for _, ring in ALL_RINGS:
        for x in range(1, 16):
            for y in range(1, 16):
                if x == y:
                    continue
                assert ring.cup(x, y) == ring.cup(x, x ^ y)


def test_four_orbit_examples():
    assert four_orbit_count(T4, 1) == 1          # w = a0 cup a1
    assert four_orbit_count(T4, 1 | (1 << 5)) == 0  # w = e01 + e23
    count = four_orbit_count(EVEN, 1)            # decomposable target E1
    assert count % 2 == 0 and count == 4


def test_four_orbit_against_brute_force():
    for name, ring in ALL_RINGS:
        for w in range(1, 64):
            assert four_orbit_count(ring, w) == brute_four_orbit_count(ring, w), name


def test_zero_w_rejected():
    with pytest.raises(ZeroW2):
        four_orbit_count(T4, 0)
    with pytest.raises(ZeroW2):
        donaldson_mod2(T4, 0)


def test_donaldson_parity_law_exhaustive():
    for name, ring in ALL_RINGS:
        determinant = det4(ring)
        for w in range(1, 64):
            if not (admissible(ring, w) and bundle_exists(ring, w)):
                continue
            assert donaldson_mod2(ring, w) == determinant, (name, w)


def test_odd_rings_realize_the_bijection():
    # when the determinant is odd, plane products hit each admissible w
    # exactly once: 35 planes onto 35 classes
    for name, ring in (("T4", T4), ("odd product", ODD)):
        admissible_ws = [
            w for w in range(1, 64) if admissible(ring, w) and bundle_exists(ring, w)
        ]
        assert len(admissible_ws) == 35, name
        for w in admissible_ws:
            assert four_orbit_count(ring, w) == 1, (name, w)


def test_admissible_matches_the_pair_enumeration():
    # six basis products decide what all 225 (xi, eta) pairs decide
    rng = random.Random(61)
    rings = [ring for _, ring in ALL_RINGS]
    rings += [change_basis(ring, random_gl4(rng)) for ring in rings for _ in range(4)]
    seen = set()
    for ring in rings:
        for w in range(1, 64):
            expected = admissible_by_enumeration(ring, w)
            assert admissible(ring, w) == expected, (ring, w)
            seen.add(expected)
    assert seen == {True, False}


def test_hypothesis_failures():
    # E1 on the even ring pairs trivially with every product
    with pytest.raises(HypothesisFails):
        donaldson_mod2(EVEN, 1)
    # nonzero Pontryagin square: no p1 = 0 bundle
    assert admissible(T4, 1 | (1 << 5))
    assert not bundle_exists(T4, 1 | (1 << 5))
    with pytest.raises(HypothesisFails):
        donaldson_mod2(T4, 1 | (1 << 5))


def test_inconsistent_ring_detected():
    # break symmetry of the cup table
    cup2 = [list(row) for row in T4.cup2]
    cup2[0][1] ^= 1 << 4
    with pytest.raises(InconsistentRing):
        CupRing(cup2, T4.pairing, T4.eval_top)
    # degenerate pairing
    with pytest.raises(InconsistentRing):
        CupRing(T4.cup2, [0] * 6, T4.eval_top)
    # wrong declared top value
    with pytest.raises(InconsistentRing):
        CupRing(T4.cup2, T4.pairing, 0)
    # diagonal cup entry breaks the odd-square rule
    cup3 = [list(row) for row in T4.cup2]
    cup3[2][2] = 1
    with pytest.raises(InconsistentRing):
        CupRing(cup3, T4.pairing, T4.eval_top)


def _perturbed(rng, ring):
    """Ring data with 1-3 random flips: cup2 bits (paired or lone),
    pairing bits (paired or lone), or the declared top value."""
    cup2 = [list(row) for row in ring.cup2]
    pairing = list(ring.pairing)
    top = ring.eval_top
    for _ in range(rng.randint(1, 3)):
        kind = rng.randrange(5)
        if kind < 2:
            i, j = rng.randrange(4), rng.randrange(4)
            bit = 1 << rng.randrange(6)
            cup2[i][j] ^= bit
            if kind == 0 and i != j:
                cup2[j][i] ^= bit
        elif kind < 4:
            i, j = rng.randrange(6), rng.randrange(6)
            pairing[i] ^= 1 << j
            if kind == 2 and i != j:
                pairing[j] ^= 1 << i
        else:
            top ^= 1
    return cup2, pairing, top


def test_constructor_matches_the_ring_oracle():
    # CupRing(...) raises exactly when the 256-quadruple oracle finds a
    # defect, with the oracle's message
    rng = random.Random(59)
    seen = set()
    for _ in range(2400):
        ring = rng.choice(ALL_RINGS)[1]
        if rng.random() < 0.5:
            ring = change_basis(ring, random_gl4(rng))
        cup2, pairing, top = _perturbed(rng, ring)
        expected = ring_defect(cup2, pairing, top)
        try:
            made = CupRing(cup2, pairing, top)
        except InconsistentRing as exc:
            assert str(exc) == expected
            seen.add(re.sub(r"\d", "#", expected))
        else:
            assert expected is None
            assert det4(made) == made.pair(made.cup(1, 2), made.cup(4, 8)) == top
            seen.add(None)
    # every check fired, and some perturbations still give a ring
    assert seen == {
        None,
        "cup#[#][#] must vanish (odd square)",
        "cup# table must be symmetric",
        "H^# pairing must be symmetric",
        "H^# pairing must be nondegenerate (rank #)",
        "top form must vanish on repeated arguments",
        "top form is not symmetric under argument permutations",
        "declared top value # does not match the pairing evaluation #",
    }


def _random_table(rng):
    """Whole random ring data: a symmetric cup table with zero diagonal
    (one stray bit flip in one case in ten), a random symmetric pairing
    or a preset's in half the cases, and a random top bit."""
    cup2 = [[0] * 4 for _ in range(4)]
    for i in range(4):
        for j in range(i + 1, 4):
            cup2[i][j] = cup2[j][i] = rng.randrange(64)
    if rng.random() < 0.1:
        cup2[rng.randrange(4)][rng.randrange(4)] ^= 1 << rng.randrange(6)
    if rng.random() < 0.5:
        pairing = list(rng.choice(ALL_RINGS)[1].pairing)
    else:
        pairing = [0] * 6
        for i in range(6):
            for j in range(i, 6):
                if rng.randrange(2):
                    pairing[i] |= 1 << j
                    pairing[j] |= 1 << i
    return cup2, pairing, rng.randrange(2)


def test_constructor_matches_the_ring_oracle_on_whole_tables():
    # several defects at once: CupRing names the one the 256-quadruple
    # oracle meets first
    rng = random.Random(67)
    seen = set()
    for _ in range(2000):
        cup2, pairing, top = _random_table(rng)
        expected = ring_defect(cup2, pairing, top)
        try:
            CupRing(cup2, pairing, top)
        except InconsistentRing as exc:
            assert str(exc) == expected
        else:
            assert expected is None
        seen.add(expected)
    assert {
        "top form must vanish on repeated arguments",
        "top form is not symmetric under argument permutations",
    } <= seen


def test_constructor_pairs_each_pair_of_two_classes_once(monkeypatch):
    # one evaluation for the top value and one per pair of basis 2-classes
    evaluate, calls = CupRing.pair, []
    monkeypatch.setattr(CupRing, "pair", lambda *args: calls.append(args) or evaluate(*args))
    for make in (torus4_ring, lambda: product_ring(ThreeTorusForm(1))):
        calls.clear()
        make()
        assert len(calls) == 22


def test_inconsistent_ring_never_reaches_its_consumers():
    cup2 = [list(row) for row in T4.cup2]
    cup2[0][1] ^= 1 << 4
    for consumer in (admissible, bundle_exists, four_orbit_count):
        with pytest.raises(InconsistentRing, match="symmetric"):
            consumer(CupRing(cup2, T4.pairing, T4.eval_top), 1)


def test_rho_bar():
    assert rho_bar(SpinRohlinTable([0] * 8)) == 0
    assert rho_bar(SpinRohlinTable([1] + [0] * 7)) == 1
    table = SpinRohlinTable([Fraction(1, 4)] * 8)  # sums to 2 = 0 mod 2
    assert rho_bar(table) == 0
    with pytest.raises(NonBinary):
        rho_bar(SpinRohlinTable([Fraction(1, 4)] + [0] * 7))
    with pytest.raises(ValueError):
        SpinRohlinTable([2] + [0] * 7)
    with pytest.raises(ValueError):
        SpinRohlinTable([0] * 7)


def test_rho_bar_fixture_matches_det4():
    # a consistency lint: tables representing the presets must reduce to det4
    t4_table = SpinRohlinTable([1, 0, 0, 0, 0, 0, 0, 0])
    assert rho_bar(t4_table) == det4(T4)
    even_table = SpinRohlinTable([0] * 8)
    assert rho_bar(even_table) == det4(EVEN)


def test_all_planes_listed_once():
    from casson4.tori import ALL_PLANES

    assert len(ALL_PLANES) == len(set(ALL_PLANES)) == 35
    for plane in ALL_PLANES:
        a, b, c = plane
        assert a ^ b == c and 0 not in plane
    # matches the subspace count (2^4 - 1)(2^4 - 2) / ((2^2 - 1)(2^2 - 2))
    assert len(ALL_PLANES) == (15 * 14) // (3 * 2)


def test_pontryagin_square_is_quadratic_refinement():
    # q(u + v) = q(u) + q(v) + <u, v> for the hyperbolic-basis refinement
    for _, ring in ALL_RINGS:
        rng = random.Random(53)
        for _ in range(50):
            u, v = rng.randrange(64), rng.randrange(64)
            qu = 0 if bundle_exists(ring, u) else 1
            qv = 0 if bundle_exists(ring, v) else 1
            quv = 0 if bundle_exists(ring, u ^ v) else 1
            assert quv == (qu + qv + ring.pair(u, v)) % 2


def test_fractional_bits_refused_not_truncated():
    cup2 = [list(row) for row in T4.cup2]
    cup2[0][1] = cup2[1][0] = cup2[0][1] + 0.5
    with pytest.raises(TypeError):
        CupRing(cup2, T4.pairing, T4.eval_top)
    bit_rows = [[(row >> j) & 1 for j in range(6)] for row in T4.pairing]
    assert CupRing(T4.cup2, bit_rows, T4.eval_top) == T4
    bit_rows[0][0] = 1.0
    with pytest.raises(TypeError):
        CupRing(T4.cup2, bit_rows, T4.eval_top)
    with pytest.raises(TypeError):
        CupRing(T4.cup2, T4.pairing, 1.0)
    with pytest.raises(TypeError):
        change_basis(T4, [1, 2, 4, 8.0])
    assert as_h2([1, 0, 0, 0, 0, 0]) == 1
    with pytest.raises(TypeError):
        as_h2([1.0, 0, 0, 0, 0, 0])


@pytest.mark.parametrize("top", [2, 3, -1])
def test_top_value_outside_a_bit_refused_not_masked(top):
    # 3 and -1 are odd, 2 even: none may stand for 1 or 0
    with pytest.raises(ValueError, match="single bit"):
        CupRing(T4.cup2, T4.pairing, top)


@pytest.mark.parametrize("row", [17, -15, 16])
def test_basis_row_outside_four_bits_refused_not_masked(row):
    # 17 and -15 are 1 in their low four bits, 16 is 0
    with pytest.raises(ValueError, match="4-bit"):
        change_basis(T4, [row, 2, 4, 8])


def test_float_forms_and_tables_refused():
    with pytest.raises(TypeError):
        ThreeTorusForm(1.0)
    with pytest.raises(TypeError):
        SpinRohlinTable([0.25] * 8)
    table = SpinRohlinTable([Fraction(1, 4)] * 4 + ["1/4"] * 4)
    assert rho_bar(table) == 0


@pytest.mark.parametrize(
    "w",
    [[1, 0, 0, 0, 0, 0, 1], [1, 0, 0, 0, 0], [], [2, 0, 0, 0, 0, 0], [0, 0, 0, -1, 0, 0], 64, -1],
)
def test_malformed_h2_classes_are_refused(w):
    # neither truncated to six bits nor reduced mod 2
    with pytest.raises(ValueError):
        as_h2(w)
    for consumer in (admissible, bundle_exists, four_orbit_count, donaldson_mod2):
        with pytest.raises(ValueError):
            consumer(T4, w)


def test_out_of_range_ring_entries_are_refused():
    cup2 = [list(row) for row in T4.cup2]
    cup2[0][1] = cup2[1][0] = T4.cup2[0][1] | 64
    with pytest.raises(ValueError, match="6-bit"):
        CupRing(cup2, T4.pairing, T4.eval_top)
    pairing = list(T4.pairing)
    pairing[0] |= 64
    with pytest.raises(ValueError, match="6-bit"):
        CupRing(T4.cup2, pairing, T4.eval_top)
    bit_rows = [[(row >> j) & 1 for j in range(6)] for row in T4.pairing]
    bit_rows[0].append(0)
    with pytest.raises(ValueError, match="six entries"):
        CupRing(T4.cup2, bit_rows, T4.eval_top)
    bit_rows = [[(row >> j) & 1 for j in range(6)] for row in T4.pairing]
    bit_rows[0][5] = 3
    with pytest.raises(ValueError, match="six entries"):
        CupRing(T4.cup2, bit_rows, T4.eval_top)
    # cup2 entries may be bit lists too, as in the CLI input
    bit_cup2 = [[[(v >> j) & 1 for j in range(6)] for v in row] for row in T4.cup2]
    assert CupRing(bit_cup2, T4.pairing, T4.eval_top) == T4
