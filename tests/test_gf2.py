import random

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from casson4 import F2Matrix, f2_rank, symplectic_basis
from casson4.errors import DegeneratePolarization
from casson4.gf2 import bitrows_rank, form_value


def test_rank_examples():
    assert f2_rank(F2Matrix.identity(3)) == 3
    assert f2_rank(F2Matrix.zero(2, 2)) == 0
    assert f2_rank(F2Matrix([[1, 1], [1, 1]])) == 1


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
    m = F2Matrix(rows)
    assert f2_rank(m) == f2_rank(m.transpose())


@given(bit_matrices)
@settings(max_examples=40, deadline=None)
def test_rank_bounded_and_idempotent_reduction(rows):
    m = F2Matrix(rows)
    r = f2_rank(m)
    assert 0 <= r <= min(m.rows, m.ncols)
    assert f2_rank(m) == r  # rank is a pure function of the value


def test_matmul_against_naive():
    rng = random.Random(11)
    for _ in range(25):
        n, k, m = rng.randint(1, 5), rng.randint(1, 5), rng.randint(1, 5)
        a = [[rng.randint(0, 1) for _ in range(k)] for _ in range(n)]
        b = [[rng.randint(0, 1) for _ in range(m)] for _ in range(k)]
        naive = [
            [sum(a[i][l] * b[l][j] for l in range(k)) % 2 for j in range(m)]
            for i in range(n)
        ]
        assert (F2Matrix(a) @ F2Matrix(b)).to_lists() == naive


def test_form_value_is_the_matrix_product():
    # x^T B y as the 1x1 F2Matrix product, on seeded random rows
    rng = random.Random(29)
    for _ in range(300):
        n = rng.randint(1, 12)
        rows = [rng.randrange(1 << n) for _ in range(n)]
        x, y = rng.randrange(1 << n), rng.randrange(1 << n)
        product = (
            F2Matrix.from_bitrows([x], n)
            @ F2Matrix.from_bitrows(rows, n)
            @ F2Matrix.from_bitrows([y], n).transpose()
        )
        assert form_value(rows, x, y) == product.entry(0, 0)
        # bits of x past the last row are not read
        assert form_value(rows, x | (rng.randrange(1, 8) << n), y) == product.entry(0, 0)


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
        from casson4.gf2 import bitrows_rank

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
