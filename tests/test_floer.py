import random
from fractions import Fraction

import pytest

from casson4 import (
    FloerData,
    deduce_sign_pattern,
    lambda_fo_from_lefschetz,
    lefschetz,
    seifert_tau_floer_data,
)
from casson4.errors import AmbiguousSolution, NoSolution, OddLefschetz, SizeMismatch
from helpers import block_diagonal

CORK = FloerData((0, 1, 0, 1, 0, 1, 0, 1), ("-id",) * 8)


def test_cork_lefschetz():
    assert lefschetz(CORK) == 4
    assert lambda_fo_from_lefschetz(lefschetz(CORK)) == 2


def test_identity_maps_give_euler_characteristic():
    ranks = (1, 2, 0, 3, 1, 0, 2, 1)
    assert lefschetz(FloerData(ranks)) == sum(
        (-1) ** k * b for k, b in enumerate(ranks)
    )


def test_product_over_poincare_sphere():
    data = FloerData((0, 1, 0, 0, 0, 1, 0, 0))
    assert lefschetz(data) == -2
    assert lambda_fo_from_lefschetz(lefschetz(data)) == -1


def test_odd_lefschetz_is_flagged_and_refused():
    data = FloerData((1, 0, 0, 0, 0, 0, 0, 0))
    assert lefschetz(data) == 1
    with pytest.raises(OddLefschetz):
        lambda_fo_from_lefschetz(lefschetz(data))


def test_lambda_fo_from_lefschetz_judges_the_number_it_is_given():
    # the one judge of evenness: it halves an even integer and refuses the rest
    assert lambda_fo_from_lefschetz(4) == 2
    assert lambda_fo_from_lefschetz(Fraction(-6)) == -3
    for odd in (1, -3, Fraction(1, 2), Fraction(4, 3)):
        with pytest.raises(OddLefschetz):
            lambda_fo_from_lefschetz(odd)
    with pytest.raises(TypeError):
        lambda_fo_from_lefschetz(4.0)


def test_explicit_matrices_and_size_mismatch():
    maps = ["id"] * 8
    maps[1] = [[Fraction(1, 2), 0], [7, Fraction(3, 2)]]
    data = FloerData((0, 2, 0, 0, 0, 0, 0, 0), maps)
    assert lefschetz(data) == -2
    with pytest.raises(SizeMismatch):
        lefschetz(FloerData((0, 1, 0, 0, 0, 0, 0, 0), ["id", [[1, 0], [0, 1]]] + ["id"] * 6))


def test_trace_invariance_under_conjugation():
    rng = random.Random(31)
    for _ in range(20):
        b = rng.randint(1, 3)
        m = [[Fraction(rng.randint(-3, 3)) for _ in range(b)] for _ in range(b)]
        # random unimodular conjugation over the rationals
        from helpers import random_unimodular

        P = random_unimodular(rng, b)
        Pm = [[sum(Fraction(P[i][k]) * m[k][j] for k in range(b)) for j in range(b)]
              for i in range(b)]
        # inverse of P via adjugate is overkill; use fractions gaussian inverse
        import sympy

        Pinv = sympy.Matrix(P).inv()
        conj = [
            [
                sum(Pm[i][k] * Fraction(Pinv[k, j]) for k in range(b))
                for j in range(b)
            ]
            for i in range(b)
        ]
        ranks = [0] * 8
        ranks[2] = b
        base = FloerData(ranks, ["id", "id", m] + ["id"] * 5)
        conjugated = FloerData(ranks, ["id", "id", conj] + ["id"] * 5)
        assert lefschetz(base) == lefschetz(conjugated)


def test_block_diagonal_adds_lefschetz_numbers():
    a = FloerData((0, 1, 0, 1, 0, 1, 0, 1), ("-id",) * 8)
    b = FloerData((0, 1, 0, 0, 0, 1, 0, 0))
    combined = block_diagonal(a, b)
    assert lefschetz(combined) == lefschetz(a) + lefschetz(b)
    mixed = block_diagonal(
        FloerData((0, 1, 0, 0, 0, 0, 0, 0), ["id"] * 8),
        FloerData((0, 1, 0, 0, 0, 0, 0, 0), ["-id"] * 8),
    )
    assert lefschetz(mixed) == 0


def test_deduce_pattern_cork_unique_all_minus():
    assert deduce_sign_pattern((0, 1, 0, 1, 0, 1, 0, 1), 4) == {
        1: -1, 3: -1, 5: -1, 7: -1
    }


def test_deduce_pattern_empty():
    assert deduce_sign_pattern((0,) * 8, 0) == {}
    with pytest.raises(NoSolution):
        deduce_sign_pattern((0,) * 8, 2)


def test_deduce_pattern_ambiguous():
    with pytest.raises(AmbiguousSolution) as info:
        deduce_sign_pattern((0, 1, 0, 1, 0, 0, 0, 0), 0)
    assert sorted(info.value.candidates, key=str) == sorted(
        [{1: 1, 3: -1}, {1: -1, 3: 1}], key=str
    )
    # the message shows two candidates; candidates keeps all 70
    with pytest.raises(AmbiguousSolution) as info:
        deduce_sign_pattern((1,) * 8, 0)
    assert len(info.value.candidates) == 70
    assert str(info.value).count("{") == 2


def test_deduce_pattern_requires_rank_one():
    with pytest.raises(ValueError):
        deduce_sign_pattern((0, 2, 0, 0, 0, 0, 0, 0), 0)


def test_seifert_tau_lefschetz_values():
    assert lefschetz(seifert_tau_floer_data(1, 0, 1, 0)) == -2
    assert lefschetz(seifert_tau_floer_data(0, 0, 0, 0)) == 0
    for a, b in [(1, 2), (3, 5), (2, 2)]:
        assert lefschetz(seifert_tau_floer_data(a, a, b, b)) == 0
    with pytest.raises(ValueError):
        seifert_tau_floer_data(-1, 0, 0, 0)


def test_seifert_tau_fixture_consistency():
    rng = random.Random(37)
    for _ in range(20):
        b = [rng.randint(0, 3) for _ in range(4)]
        fixture = seifert_tau_floer_data(*b)
        lef = lefschetz(fixture)
        assert lef == -b[0] + b[1] - b[2] + b[3]
        if sum(b) % 2:
            with pytest.raises(OddLefschetz):
                lambda_fo_from_lefschetz(lef)
        else:
            assert lambda_fo_from_lefschetz(lef) == lef // 2


def test_fractional_ranks_refused_not_truncated():
    with pytest.raises(TypeError):
        FloerData((0, 1.5, 0, 1, 0, 1, 0, 1), ("-id",) * 8)
    with pytest.raises(TypeError):
        deduce_sign_pattern((0, 1.0, 0, 1, 0, 1, 0, 1), 4)


def test_float_map_entries_and_targets_refused():
    with pytest.raises(TypeError):
        seifert_tau_floer_data(1.5, 0, 0, 0)
    with pytest.raises(TypeError):
        deduce_sign_pattern(CORK.ranks, -4.0)
    maps = ["id"] * 8
    maps[1] = [[0.1]]
    with pytest.raises(TypeError):
        FloerData((0, 1, 0, 0, 0, 0, 0, 0), maps)
    maps[1] = [["1/10"]]
    assert lefschetz(FloerData((0, 1, 0, 0, 0, 0, 0, 0), maps)) == Fraction(-1, 10)
    maps[1] = [[Fraction(1, 10)]]
    assert lefschetz(FloerData((0, 1, 0, 0, 0, 0, 0, 0), maps)) == Fraction(-1, 10)
