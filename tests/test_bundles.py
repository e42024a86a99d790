import random

import pytest

from casson4 import (
    CircleBundleData,
    LaurentPolynomial,
    alexander_polynomial,
    arf_invariant,
    circle_bundle_furuta_ohta,
    circle_bundle_report,
    circle_bundle_rho,
    connected_sum,
    preset_knot,
    second_derivative_at_one,
)
from casson4.errors import BadEuler, NonTrivialAlexander
from helpers import random_unimodular


def trivial_alexander_corpus():
    """Seifert matrices with Delta = 1: the circle-bundle input family."""
    unknot = preset_knot("unknot")
    double = preset_knot("untwisted_double")
    rng = random.Random(83)
    corpus = [
        ("unknot", unknot),
        ("untwisted double", double),
        ("mirror double", double.mirror()),
        ("double # double", connected_sum(double, double)),
        ("stabilized double", double.stabilized([1, -1])),
        ("double-stabilized unknot", unknot.stabilized().stabilized([0, 1])),
        (
            "twisted double",
            double.stabilized([2, 0]).congruent(random_unimodular(rng, 4)),
        ),
    ]
    for name, s in corpus:
        assert alexander_polynomial(s) == LaurentPolynomial.one(), name
    return corpus


def test_corpus_is_large_enough():
    assert len(trivial_alexander_corpus()) >= 5


def test_vanishing_on_corpus():
    for name, knot in trivial_alexander_corpus():
        data = CircleBundleData(knot, 1)
        assert circle_bundle_rho(data) == 0, name
        assert circle_bundle_furuta_ohta(data) == 0, name
        report = circle_bundle_report(data)
        assert report.arf == 0
        assert report.second_derivative == 0
        assert report.congruent == 1
        assert any("arf" in note for note in report.certificate)
        assert any("Delta''" in note for note in report.certificate)


def test_forced_vanishing_consistency():
    # trivial Alexander polynomial forces arf = 0 (mod-8 congruence) and
    # Delta''(1) = 0; this doubles as a regression on the Arf machinery
    for name, knot in trivial_alexander_corpus():
        assert arf_invariant(knot) == 0, name
        assert second_derivative_at_one(alexander_polynomial(knot)) == 0, name


def test_nontrivial_alexander_rejected():
    trefoil = preset_knot("right_trefoil")
    with pytest.raises(NonTrivialAlexander):
        circle_bundle_rho(CircleBundleData(trefoil, 1))
    with pytest.raises(NonTrivialAlexander):
        circle_bundle_furuta_ohta(CircleBundleData(trefoil, 1))


def test_bad_euler_rejected():
    unknot = preset_knot("unknot")
    for e in (-1, 0, 2, 5):
        with pytest.raises(BadEuler):
            circle_bundle_rho(CircleBundleData(unknot, e))


def test_bundle_data_is_checked_at_construction():
    with pytest.raises(BadEuler, match="got 2"):
        CircleBundleData(preset_knot("unknot"), 2)
    with pytest.raises(NonTrivialAlexander, match="not 1"):
        CircleBundleData(preset_knot("right_trefoil"), 1)
    # the Euler number is checked first
    with pytest.raises(BadEuler):
        CircleBundleData(preset_knot("right_trefoil"), 0)


def test_float_euler_number_refused():
    with pytest.raises(TypeError):
        CircleBundleData(preset_knot("unknot"), 1.0)
