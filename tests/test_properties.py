"""Cross-module properties beyond the per-module example tests."""

import random
from fractions import Fraction
from math import gcd

from casson4 import (
    BranchedQuotientData,
    FreeQuotientData,
    SurgeryPresentation,
    alexander_polynomial,
    arf_invariant,
    casson,
    equivariant_casson_branched,
    equivariant_casson_free,
    four_orbit_count,
    preset_knot,
    product_ring,
    rohlin,
    second_derivative_at_one,
    signature_spectrum,
    tl_nullity,
    tl_signature,
    torus4_ring,
    ThreeTorusForm,
)
from helpers import (
    alexander_at_root_of_unity,
    change_basis,
    corpus_knots,
    random_gl4,
    random_seifert,
)


def test_spectrum_even_where_alexander_nonzero():
    for name, s in corpus_knots()[:9]:
        for n in range(1, 9):
            spectrum = signature_spectrum(s, n)
            for m in range(n):
                value = alexander_at_root_of_unity(s, n, m)
                if not value.is_zero():
                    assert spectrum.values[m] % 2 == 0, (name, m, n)
                    # at m = 0 the form is identically zero whatever Delta does
                    if m != 0:
                        assert tl_nullity(s, Fraction(m, n)) == 0, (name, m, n)


def test_nullity_positive_exactly_at_alexander_roots():
    rng = random.Random(101)
    for _ in range(8):
        s = random_seifert(rng, max_stabilizations=1)
        for n in (2, 3, 4, 6):
            for m in range(1, n):
                if gcd(m, n) != 1:
                    continue
                vanishes = alexander_at_root_of_unity(s, n, m).is_zero()
                assert (tl_nullity(s, Fraction(m, n)) > 0) == vanishes


def test_per_step_congruence_drives_sphere_congruence():
    # (q/2) Delta'' = q arf (mod 2) for every knot makes every chain congruent
    for name, s in corpus_knots():
        d2 = second_derivative_at_one(alexander_polynomial(s))
        assert (d2 // 2) % 2 == arf_invariant(s), name
        for q in (-2, -1, 1, 3):
            chain = SurgeryPresentation([(s, q)])
            assert casson(chain) % 2 == rohlin(chain), (name, q)


def test_branched_invariant_additive_in_quotient_casson():
    s = preset_knot("figure_eight")
    base = equivariant_casson_branched(BranchedQuotientData.from_knot(2, 0, s))
    for lam in (-3, -1, 2, 5):
        shifted = equivariant_casson_branched(BranchedQuotientData.from_knot(2, lam, s))
        assert shifted == base + 2 * lam


def test_free_invariant_linear_in_q():
    s = preset_knot("figure_eight")
    d2 = second_derivative_at_one(alexander_polynomial(s))
    values = {}
    for q in (1, 2, 4, 5):
        if gcd(3, q) != 1:
            continue
        values[q] = equivariant_casson_free(FreeQuotientData(3, q, 0, s))
    for q1 in values:
        for q2 in values:
            assert values[q1] - values[q2] == Fraction((q1 - q2) * d2, 2)


def test_four_orbit_count_is_basis_equivariant():
    rng = random.Random(107)
    for ring in (torus4_ring(), product_ring(ThreeTorusForm(1))):
        for _ in range(10):
            P = random_gl4(rng)
            changed = change_basis(ring, P)
            for w in (1, 5, 9, 33):
                assert four_orbit_count(changed, w) == four_orbit_count(ring, w)


def test_mirror_tl_antisymmetry_at_many_points():
    rng = random.Random(109)
    for _ in range(10):
        s = random_seifert(rng, max_stabilizations=1)
        m = s.mirror()
        for a in (Fraction(1, 2), Fraction(1, 4), Fraction(2, 5), Fraction(5, 6)):
            assert tl_signature(m, a) == -tl_signature(s, a)


def test_spectrum_total_is_mirror_antisymmetric():
    for _, s in corpus_knots()[:8]:
        for n in (2, 3, 5):
            assert (
                signature_spectrum(s.mirror(), n).total()
                == -signature_spectrum(s, n).total()
            )
