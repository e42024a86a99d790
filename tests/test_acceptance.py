"""Acceptance suite: every criterion at its stated tolerance.

Each test prints one PASS line (run pytest with -s to see them); a test
failure is the FAIL signal.  All numeric checks are exact; the stated
wall-clock budgets are asserted after clearing the library's caches so
that the timings measure real work.
"""

import random
import time
from fractions import Fraction
from math import gcd

from casson4 import (
    BranchedQuotientData,
    CircleBundleData,
    FloerData,
    FreeQuotientData,
    SignatureSpectrum,
    SurgeryPresentation,
    ThreeTorusForm,
    admissible,
    alexander_polynomial,
    arf_invariant,
    bundle_exists,
    check_casson_rohlin,
    circle_bundle_report,
    connected_sum,
    deduce_sign_pattern,
    det4,
    donaldson_mod2,
    equivariant_casson_branched,
    four_orbit_count,
    lambda_fo_from_lefschetz,
    lefschetz,
    mubar_double_branched,
    orientation_reversal_check,
    preset_knot,
    product_ring,
    second_derivative_at_one,
    seifert_tau_floer_data,
    signature_spectrum,
    tl_signature,
    torus4_ring,
    torus_knot_seifert,
)
from helpers import (
    clear_caches, congruent, corpus_knots, random_seifert, random_unimodular, stabilized
)


def _timed(body, repeats=3):
    """Best-of-n wall time in seconds, recomputing caches each round."""
    best = float("inf")
    result = None
    for _ in range(repeats):
        clear_caches()
        start = time.perf_counter()
        result = body()
        best = min(best, time.perf_counter() - start)
    return result, best


def test_criterion_1_poincare_sphere_chain():
    chain = SurgeryPresentation([(preset_knot("left_trefoil"), -1)])

    def body():
        return check_casson_rohlin(chain)

    result, elapsed = _timed(body)
    assert (result.casson, result.rohlin) == (-1, 1)
    assert result.congruent == 1
    assert elapsed < 1e-3, f"took {elapsed * 1e3:.3f} ms, budget 1 ms"
    print(
        f"\nACCEPTANCE 1: PASS - left-trefoil chain gives lambda=-1, rho=1 "
        f"({elapsed * 1e6:.0f} us)"
    )


def test_criterion_2_akbulut_cork():
    def body():
        data = BranchedQuotientData(2, 0, SignatureSpectrum(2, [0, 16]))
        lam = equivariant_casson_branched(data)
        pattern = deduce_sign_pattern((0, 1, 0, 1, 0, 1, 0, 1), 4)
        return lam, pattern

    (lam, pattern), elapsed = _timed(body)
    assert lam == 2
    assert pattern == {1: -1, 3: -1, 5: -1, 7: -1}
    assert elapsed < 1e-3, f"took {elapsed * 1e3:.3f} ms, budget 1 ms"
    print(
        f"\nACCEPTANCE 2: PASS - cork gives lambda_fo=2 and the unique "
        f"all-minus pattern ({elapsed * 1e6:.0f} us)"
    )


def test_criterion_3_mubar_three_paths():
    def body():
        knot = torus_knot_seifert(3, 5)
        via_mubar = mubar_double_branched(knot)
        via_branched = equivariant_casson_branched(
            BranchedQuotientData.from_knot(2, 0, knot)
        )
        via_floer = lambda_fo_from_lefschetz(lefschetz(seifert_tau_floer_data(1, 0, 1, 0)))
        return via_mubar, via_branched, via_floer

    (a, b, c), elapsed = _timed(body)
    assert a == b == c == -1
    assert elapsed < 1e-2, f"took {elapsed * 1e3:.3f} ms, budget 10 ms"
    print(
        f"\nACCEPTANCE 3: PASS - mubar, branched formula, and Floer fixture "
        f"all give -1 ({elapsed * 1e3:.2f} ms)"
    )


def test_criterion_4_tori_parity_exhaustive():
    start = time.perf_counter()
    rings = [product_ring(ThreeTorusForm(mu)) for mu in (0, 1)]
    rings.append(torus4_ring())
    checked = 0
    for ring in rings:
        determinant = det4(ring)
        for w in range(1, 64):
            if not (admissible(ring, w) and bundle_exists(ring, w)):
                continue
            assert donaldson_mod2(ring, w) == determinant
            assert four_orbit_count(ring, w) % 2 == determinant
            checked += 1
    elapsed = time.perf_counter() - start
    assert checked == 28 + 35 + 35
    assert elapsed < 1.0, f"took {elapsed:.2f} s, budget 1 s"
    print(
        f"\nACCEPTANCE 4: PASS - quarter-count parity equals det4 for all "
        f"{checked} admissible (ring, w) pairs ({elapsed * 1e3:.0f} ms)"
    )


def test_criterion_5_circle_bundle_vanishing():
    unknot = preset_knot("unknot")
    double = preset_knot("untwisted_double")
    corpus = [
        ("unknot", unknot),
        ("untwisted double", double),
        ("mirror double", double.mirror()),
        ("stabilized double", stabilized(double, [1, 0])),
        ("double-stabilized double", stabilized(stabilized(double, [0, -1]), [1, 0, 0, 1])),
        ("double # double", connected_sum(double, double)),
    ]
    assert len(corpus) >= 5
    for name, knot in corpus:
        data = CircleBundleData(knot, 1)
        report = circle_bundle_report(data)
        assert report.rho == 0 and report.furuta_ohta == 0, name
        assert report.arf == 0 and report.second_derivative == 0, name
        assert report.congruent == 1
        assert len(report.certificate) == 4
    print(
        f"\nACCEPTANCE 5: PASS - rho and the instanton count vanish with "
        f"certificates on {len(corpus)} trivial-Alexander inputs"
    )


def test_criterion_6_property_suite():
    suite_start = time.perf_counter()
    rng = random.Random(20240)

    # (a) mirror antisymmetry on 1000 randomized Seifert matrices
    for _ in range(1000):
        s = random_seifert(rng)
        m = s.mirror()
        den = rng.choice([2, 3, 4, 6])
        a = Fraction(rng.randint(1, den - 1), den)
        assert tl_signature(m, a) == -tl_signature(s, a)
        n = rng.choice([1, 2, 3])
        branched = BranchedQuotientData.from_knot(n, rng.randint(-2, 2), s)
        assert orientation_reversal_check(branched) == 1
        q = rng.choice([x for x in (-3, -1, 1, 3) if gcd(n, x) == 1])
        free = FreeQuotientData(n, q, rng.randint(-2, 2), s)
        assert orientation_reversal_check(free) == 1
    print("\nACCEPTANCE 6a: PASS - mirror antisymmetry on 1000 randomized matrices")

    # (b) spectrum symmetry for all orders n <= 12
    battery = [preset_knot(k) for k in
               ("unknot", "left_trefoil", "right_trefoil", "figure_eight",
                "untwisted_double")]
    battery += [torus_knot_seifert(2, 5), torus_knot_seifert(3, 4),
                torus_knot_seifert(3, 5)]
    for s in battery:
        for n in range(1, 13):
            spectrum = signature_spectrum(s, n)
            assert spectrum.values[0] == 0
            for m in range(1, n):
                assert spectrum.values[m] == spectrum.values[n - m]
    print("ACCEPTANCE 6b: PASS - spectrum symmetry for n <= 12")

    # (c) Delta''(1)/2 = arf (mod 2) and the Murasugi mod-8 criterion
    extended = corpus_knots()
    for name, s in extended:
        d2 = second_derivative_at_one(alexander_polynomial(s))
        arf = arf_invariant(s)
        assert d2 % 2 == 0 and (d2 // 2) % 2 == arf, name
        delta_minus_one = alexander_polynomial(s)(-1)
        assert (arf == 0) == (delta_minus_one % 8 in (1, 7)), name
    for _ in range(100):
        s = random_seifert(rng)
        d2 = second_derivative_at_one(alexander_polynomial(s))
        arf = arf_invariant(s)
        assert (d2 // 2) % 2 == arf
        assert (arf == 0) == (alexander_polynomial(s)(-1) % 8 in (1, 7))
    print("ACCEPTANCE 6c: PASS - Delta''/2 = arf and Murasugi mod 8 across corpus")

    # (d) 500 random surgery chains stay congruent
    pool = [s for _, s in extended]
    for _ in range(500):
        chain = SurgeryPresentation(
            [
                (rng.choice(pool), rng.choice([-3, -2, -1, 1, 2, 3]))
                for _ in range(rng.randint(0, 5))
            ]
        )
        assert check_casson_rohlin(chain).congruent == 1
    print("ACCEPTANCE 6d: PASS - 500 random surgery chains congruent")

    # (e) evenness of the Lefschetz number on geometric fixtures
    fixtures = [
        FloerData((0, 1, 0, 1, 0, 1, 0, 1), ("-id",) * 8),  # cork
        FloerData((0, 1, 0, 0, 0, 1, 0, 0)),                # product over Poincare
        seifert_tau_floer_data(1, 0, 1, 0),
        seifert_tau_floer_data(2, 1, 1, 2),
        seifert_tau_floer_data(0, 3, 3, 0),
    ]
    for fixture in fixtures:
        lef = lefschetz(fixture)
        assert lef % 2 == 0
        assert lambda_fo_from_lefschetz(lef) == lef // 2  # no OddLefschetz
    print("ACCEPTANCE 6e: PASS - Lefschetz evenness on geometric fixtures")

    # (f) congruence invariance of all knot invariants
    for _ in range(60):
        s = random_seifert(rng, max_stabilizations=1)
        if s.size == 0:
            continue
        t = congruent(s, random_unimodular(rng, s.size))
        assert alexander_polynomial(t) == alexander_polynomial(s)
        assert arf_invariant(t) == arf_invariant(s)
        assert tl_signature(t, Fraction(1, 2)) == tl_signature(s, Fraction(1, 2))
        assert signature_spectrum(t, 4) == signature_spectrum(s, 4)
    print("ACCEPTANCE 6f: PASS - congruence invariance of all knot invariants")

    elapsed = time.perf_counter() - suite_start
    assert elapsed < 60.0, f"property suite took {elapsed:.1f} s, budget 60 s"
    print(f"ACCEPTANCE 6: PASS - full property suite in {elapsed:.1f} s")


def test_criterion_7_conjecture_sweep():
    from casson4.cli import cmd_sweep

    payload, code = cmd_sweep("torus-knot-covers", "q=3,5,7,9,11")
    assert code == 0
    assert payload["summary"]["congruence_failures"] == 0
    assert payload["summary"]["instances"] == 5
    for instance in payload["instances"]:
        assert instance["congruent"] == 1
        assert instance["mubar_agrees"] == 1
        assert instance["cover_is_homology_sphere"] == 1

    payload, code = cmd_sweep("free-quotients", "q=1,3,5")
    assert code == 0
    assert payload["summary"]["congruence_failures"] == 0
    for instance in payload["instances"]:
        assert instance["congruent"] == 1
        assert instance["cover_relation"] == 1

    print(
        "\nACCEPTANCE 7: PASS - conjecture sweep over branched covers "
        "(q in {3,5,7,9,11}) and free composites, exit code 0"
    )
