import random
from fractions import Fraction

import pytest

from casson4 import (
    BranchedQuotientData,
    FreeQuotientData,
    SignatureSpectrum,
    alexander_polynomial,
    branched_free_relation,
    check_rohlin_congruence,
    equivariant_casson_branched,
    equivariant_casson_free,
    furuta_ohta_mapping_torus,
    orientation_reversal_check,
    preset_knot,
    second_derivative_at_one,
    torus_knot_seifert,
)
from casson4.errors import NonIntegral, NotCoprime
from helpers import corpus_knots

TREFOIL = preset_knot("right_trefoil")
FIG8 = preset_knot("figure_eight")


def test_cork_value():
    cork = BranchedQuotientData(2, 0, SignatureSpectrum(2, [0, 16]))
    assert equivariant_casson_branched(cork) == 2


def test_zero_spectrum_scales_quotient_casson():
    data = BranchedQuotientData(3, 1, SignatureSpectrum(3, [0, 0, 0]))
    assert equivariant_casson_branched(data) == 3


def test_branched_torus_knot_matches_mubar():
    from casson4 import mubar_double_branched

    t35 = torus_knot_seifert(3, 5)
    data = BranchedQuotientData.from_knot(2, 0, t35)
    assert equivariant_casson_branched(data) == mubar_double_branched(t35) == -1


def test_free_trefoil_is_non_integral():
    data = FreeQuotientData(2, 1, 0, TREFOIL)
    assert equivariant_casson_free(data) == Fraction(3, 4)
    with pytest.raises(NonIntegral, match="^invariant is not an integer: 3/4$"):
        check_rohlin_congruence(equivariant_casson_free(data), 0)


def test_free_trivial_alexander_zero_spectrum():
    data = FreeQuotientData(2, 1, 0, preset_knot("untwisted_double"))
    assert equivariant_casson_free(data) == 0


def test_free_figure_eight_order_three():
    data = FreeQuotientData(3, 2, 0, FIG8)
    assert equivariant_casson_free(data) == -2


def test_free_requires_coprime():
    # refused when built, not when evaluated
    with pytest.raises(NotCoprime, match=r"^gcd\(n = 2, q = 4\) != 1$"):
        FreeQuotientData(2, 4, 0, FIG8)


def test_spectrum_order_must_match():
    with pytest.raises(ValueError):
        BranchedQuotientData(3, 0, SignatureSpectrum(2, [0, 16]))


def test_dispatch():
    branched = BranchedQuotientData(2, 0, SignatureSpectrum(2, [0, 16]))
    free = FreeQuotientData(3, 2, 0, FIG8)
    assert furuta_ohta_mapping_torus(branched) == equivariant_casson_branched(branched)
    assert furuta_ohta_mapping_torus(free) == equivariant_casson_free(free)
    with pytest.raises(TypeError):
        furuta_ohta_mapping_torus("nonsense")


def test_order_one_returns_plain_casson():
    data = BranchedQuotientData(1, 7, SignatureSpectrum(1, [0]))
    assert furuta_ohta_mapping_torus(data) == 7


def test_branched_free_relation_matched_and_mismatched():
    free = FreeQuotientData(2, 1, 0, TREFOIL)
    cover = BranchedQuotientData.from_knot(free.n, free.base_casson, free.knot)
    d2 = second_derivative_at_one(alexander_polynomial(TREFOIL))
    lam = equivariant_casson_free(free)
    assert branched_free_relation(lam, equivariant_casson_branched(cover), free.q, d2) == 1
    mismatched = BranchedQuotientData(2, 0, SignatureSpectrum(2, [0, 8]))
    assert branched_free_relation(lam, equivariant_casson_branched(mismatched), free.q, d2) == 0
    assert branched_free_relation(lam, equivariant_casson_branched(cover), 3, d2) == 0


def test_branched_free_relation_degenerate_q_zero():
    free = FreeQuotientData(1, 0, 2, FIG8)  # gcd(1, 0) = 1
    cover = BranchedQuotientData.from_knot(free.n, free.base_casson, free.knot)
    d2 = second_derivative_at_one(alexander_polynomial(FIG8))
    free_value = equivariant_casson_free(free)
    assert branched_free_relation(free_value, equivariant_casson_branched(cover), 0, d2) == 1
    assert equivariant_casson_free(free) == equivariant_casson_branched(cover)


def test_conjecture1_reports():
    cork = BranchedQuotientData(2, 0, SignatureSpectrum(2, [0, 16]))
    lam = furuta_ohta_mapping_torus(cork)
    assert (lam, check_rohlin_congruence(lam, 0)) == (2, 1)

    poincare = BranchedQuotientData.from_knot(2, 0, torus_knot_seifert(3, 5))
    lam = furuta_ohta_mapping_torus(poincare)
    assert (lam, check_rohlin_congruence(lam, 1)) == (-1, 1)

    trivial = BranchedQuotientData(2, 0, SignatureSpectrum(2, [0, 0]))
    lam = furuta_ohta_mapping_torus(trivial)
    assert (lam, check_rohlin_congruence(lam, 0)) == (0, 1)

    with pytest.raises(ValueError):
        check_rohlin_congruence(furuta_ohta_mapping_torus(cork), 2)


def test_orientation_reversal_examples():
    assert orientation_reversal_check(BranchedQuotientData.from_knot(2, 0, TREFOIL)) == 1
    zero = BranchedQuotientData(2, 0, SignatureSpectrum(2, [0, 0]))
    assert orientation_reversal_check(zero) == 1
    assert furuta_ohta_mapping_torus(zero) == 0
    amphichiral = BranchedQuotientData.from_knot(2, 0, FIG8)
    assert orientation_reversal_check(amphichiral) == 1
    assert furuta_ohta_mapping_torus(amphichiral) == 0


def test_antisymmetry_across_corpus():
    rng = random.Random(7)
    for _, knot in corpus_knots():
        n = rng.choice([1, 2, 3])
        branched = BranchedQuotientData.from_knot(n, rng.randint(-2, 2), knot)
        assert orientation_reversal_check(branched) == 1
        q = rng.choice([x for x in (-3, -1, 1, 3) if gcd_ok(n, x)])
        free = FreeQuotientData(n, q, rng.randint(-2, 2), knot)
        assert orientation_reversal_check(free) == 1


def gcd_ok(n, q):
    from math import gcd

    return gcd(n, q) == 1


def test_folded_sum_equals_full_sum():
    # conjugation symmetry means summing half the spectrum and doubling
    # (plus endpoints) must agree with the full sum: no double counting
    for _, knot in corpus_knots()[:8]:
        for n in (2, 3, 4, 5, 6):
            from casson4 import signature_spectrum

            spec = signature_spectrum(knot, n)
            full = sum(spec.values)
            folded = spec.values[0]
            if n % 2 == 0:
                folded += spec.values[n // 2]
                folded += 2 * sum(spec.values[m] for m in range(1, n // 2))
            else:
                folded += 2 * sum(spec.values[m] for m in range(1, (n + 1) // 2))
            assert full == folded


def test_float_invariants_refused_not_computed():
    # float quotient data once gave lambda_FO = 0.75 and 0.8
    spectrum = SignatureSpectrum(2, [0, -2])
    with pytest.raises(TypeError):
        BranchedQuotientData(2, 0.5, spectrum)
    with pytest.raises(TypeError):
        FreeQuotientData(3, 1, 0.1, FIG8)
    # orders and framings too, when built: 2.0 once failed only when evaluated
    with pytest.raises(TypeError):
        FreeQuotientData(3, 1.0, 0, FIG8)
    with pytest.raises(TypeError):
        BranchedQuotientData(2.0, 0, spectrum)
    cork = BranchedQuotientData(2, 0, SignatureSpectrum(2, [0, 16]))
    assert check_rohlin_congruence(furuta_ohta_mapping_torus(cork), 0) == 1
    with pytest.raises(TypeError):
        check_rohlin_congruence(furuta_ohta_mapping_torus(cork), 0.0)
    with pytest.raises(TypeError):
        check_rohlin_congruence(2.0, 0)
