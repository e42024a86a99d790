import random

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st
from sympy import GF
from sympy.polys.matrices import DomainMatrix

from casson4 import symplectic_basis
from casson4.errors import DegeneratePolarization
from casson4.gf2 import bitrows_rank, form_value


def _gf2(entries) -> DomainMatrix:
    """The 0/1 matrix as a sympy DomainMatrix over GF(2), the oracle here."""
    return DomainMatrix.from_list(entries, GF(2))


def _bits(entries) -> list[int]:
    """Row bitmasks of a matrix given as lists: bit j of row i is entry (i, j)."""
    return [sum((int(v) % 2) << j for j, v in enumerate(row)) for row in entries]


def _lists(rows: list[int], ncols: int) -> list[list[int]]:
    return [[(r >> j) & 1 for j in range(ncols)] for r in rows]


def test_rank_examples():
    assert bitrows_rank([0b001, 0b010, 0b100]) == 3
    assert bitrows_rank([0, 0]) == 0
    assert bitrows_rank([0b11, 0b11]) == 1
    assert bitrows_rank([]) == 0


bit_matrices = st.integers(min_value=1, max_value=6).flatmap(
    lambda n: st.lists(
        st.lists(st.integers(min_value=0, max_value=1), min_size=n, max_size=n),
        min_size=1,
        max_size=6,
    )
)


@given(bit_matrices)
@settings(max_examples=80, deadline=None)
def test_rank_equals_rank_of_transpose(rows):
    transpose = _gf2(rows).transpose().to_list()
    assert bitrows_rank(_bits(rows)) == bitrows_rank(_bits(transpose))


@given(bit_matrices)
@settings(max_examples=40, deadline=None)
def test_rank_bounded_and_idempotent_reduction(rows):
    r = bitrows_rank(_bits(rows))
    assert 0 <= r <= min(len(rows), len(rows[0]))
    assert r == _gf2(rows).rank()


def test_form_value_is_the_matrix_product():
    # x^T B y as sympy's 1x1 product over GF(2), on seeded random rows
    rng = random.Random(29)
    for _ in range(300):
        n = rng.randint(1, 12)
        rows = [rng.randrange(1 << n) for _ in range(n)]
        x, y = rng.randrange(1 << n), rng.randrange(1 << n)
        product = _gf2(_lists([x], n)) * _gf2(_lists(rows, n)) * _gf2(_lists([y], n)).transpose()
        expected = int(product.to_list()[0][0]) % 2
        assert form_value(rows, x, y) == expected
        # bits of x past the last row are not read
        assert form_value(rows, x | (rng.randrange(1, 8) << n), y) == expected


def _pairing(rows, x, y):
    acc = 0
    for i in range(len(rows)):
        if (x >> i) & 1:
            acc ^= (rows[i] & y).bit_count() & 1
    return acc


def test_symplectic_basis_is_symplectic():
    rng = random.Random(23)
    for _ in range(30):
        g = rng.randint(1, 4)
        d = 2 * g
        # random alternating nonsingular form: P^T J P for unimodular-mod-2 P
        from helpers import random_unimodular

        P = random_unimodular(rng, d)
        J = [[0] * d for _ in range(d)]
        for i in range(g):
            J[2 * i][2 * i + 1] = 1
            J[2 * i + 1][2 * i] = 1
        B = [
            [sum(P[k][i] * J[k][l] * P[l][j] for k in range(d) for l in range(d)) % 2
             for j in range(d)]
            for i in range(d)
        ]
        rows = [sum(B[i][j] << j for j in range(d)) for i in range(d)]
        pairs = symplectic_basis(rows, d)
        assert len(pairs) == g
        vectors = [v for pair in pairs for v in pair]
        for a, (x, y) in enumerate(pairs):
            assert _pairing(rows, x, y) == 1
            for b, (u, v) in enumerate(pairs):
                if a != b:
                    assert _pairing(rows, x, u) == 0
                    assert _pairing(rows, x, v) == 0
                    assert _pairing(rows, y, u) == 0
                    assert _pairing(rows, y, v) == 0
        # the pairs span: rank of the vector set is d
        assert bitrows_rank(vectors) == d


def test_symplectic_basis_rejects_singular():
    with pytest.raises(DegeneratePolarization):
        symplectic_basis([0, 0], 2)
    with pytest.raises(DegeneratePolarization):
        # rank-2 form on a 4-dimensional space has a radical
        symplectic_basis([0b0010, 0b0001, 0, 0], 4)


def test_symplectic_basis_refuses_exactly_the_singular_forms():
    # a random alternating form is singular exactly when its rank is short
    rng = random.Random(31)
    verdicts = set()
    for _ in range(400):
        d = rng.randint(1, 8)
        rows = [0] * d
        for i in range(d):
            for j in range(i + 1, d):
                if rng.random() < 0.4:
                    rows[i] |= 1 << j
                    rows[j] |= 1 << i
        singular = bitrows_rank(list(rows)) < d
        verdicts.add(singular)
        try:
            pairs = symplectic_basis(rows, d)
        except DegeneratePolarization:
            assert singular
        else:
            assert not singular and 2 * len(pairs) == d
    assert verdicts == {True, False}


def test_empty_form():
    assert symplectic_basis([], 0) == []
