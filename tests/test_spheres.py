import random
from fractions import Fraction

import pytest

from casson4 import (
    SurgeryPresentation,
    casson,
    check_casson_rohlin,
    mubar_double_branched,
    preset_knot,
    rohlin,
    torus_knot_seifert,
)
from casson4.errors import NonIntegral
from helpers import concatenated, corpus_knots, reversed_orientation


def test_empty_presentation_is_the_sphere():
    empty = SurgeryPresentation()
    assert casson(empty) == 0
    assert rohlin(empty) == 0
    result = check_casson_rohlin(empty)
    assert (result.casson, result.rohlin, result.congruent) == (0, 0, 1)


def test_poincare_sphere_chain():
    chain = SurgeryPresentation([(preset_knot("left_trefoil"), -1)])
    assert casson(chain) == -1
    assert rohlin(chain) == 1
    assert check_casson_rohlin(chain).congruent == 1


def test_figure_eight_surgery():
    chain = SurgeryPresentation([(preset_knot("figure_eight"), 1)])
    assert casson(chain) == -1


def test_trivial_alexander_contributes_nothing():
    double = preset_knot("untwisted_double")
    chain = SurgeryPresentation([(double, 5), (double, -2)])
    assert casson(chain) == 0
    assert rohlin(chain) == 0


def test_zero_framing_rejected():
    with pytest.raises(ValueError):
        SurgeryPresentation([(preset_knot("left_trefoil"), 0)])


def test_reversal_negates_casson_preserves_rohlin():
    rng = random.Random(13)
    pool = [s for _, s in corpus_knots()]
    for _ in range(40):
        chain = SurgeryPresentation(
            [
                (rng.choice(pool), rng.choice([-3, -2, -1, 1, 2, 3]))
                for _ in range(rng.randint(0, 5))
            ]
        )
        rev = reversed_orientation(chain)
        assert casson(rev) == -casson(chain)
        assert rohlin(rev) == rohlin(chain)


def test_additivity_under_concatenation():
    a = SurgeryPresentation([(preset_knot("left_trefoil"), -1)])
    b = SurgeryPresentation([(preset_knot("figure_eight"), 2)])
    ab = concatenated(a, b)
    assert casson(ab) == casson(a) + casson(b)
    assert rohlin(ab) == (rohlin(a) + rohlin(b)) % 2


def test_mubar_examples():
    t35 = torus_knot_seifert(3, 5)
    assert mubar_double_branched(t35) == Fraction(-1)
    assert mubar_double_branched(preset_knot("unknot")) == 0
    assert mubar_double_branched(t35.mirror()) == Fraction(1)


def test_mubar_rejects_non_divisible_signature():
    with pytest.raises(NonIntegral):
        mubar_double_branched(preset_knot("right_trefoil"))  # signature -2


def test_congruence_across_random_chains():
    rng = random.Random(97)
    pool = [s for _, s in corpus_knots()]
    for _ in range(60):
        chain = SurgeryPresentation(
            [
                (rng.choice(pool), rng.choice([-2, -1, 1, 2]))
                for _ in range(rng.randint(0, 4))
            ]
        )
        assert check_casson_rohlin(chain).congruent == 1


def test_fractional_framing_refused_not_truncated():
    trefoil = preset_knot("left_trefoil")
    with pytest.raises(ValueError):
        SurgeryPresentation([(trefoil, 0)])
    with pytest.raises(TypeError):
        SurgeryPresentation([(trefoil, 1.9)])
    with pytest.raises(TypeError):
        SurgeryPresentation([(trefoil, Fraction(3, 1))])


def test_presentation_holds_knot_and_integer_framing_pairs():
    trefoil = preset_knot("left_trefoil")
    chain = SurgeryPresentation([(trefoil, True), (trefoil, -2)])
    assert chain.steps == ((trefoil, 1), (trefoil, -2))
    assert type(chain.steps[0][1]) is int
    assert chain == SurgeryPresentation(list(chain.steps))
    assert reversed_orientation(reversed_orientation(chain)) == chain
    assert concatenated(chain, SurgeryPresentation()) == chain
