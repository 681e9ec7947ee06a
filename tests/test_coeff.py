import random

import pytest
from hypothesis import given, settings, strategies as st

from morseminmax.coeff import (
    Coefficients,
    INTEGERS,
    RATIONALS,
    integer_kernel_basis,
    invariant_factors,
    is_prime,
    rank_over,
    smith_normal_form,
    sparse_product_columns,
    sparse_subtract,
)

from helpers import det, mat_mul, rank_fraction


small_matrices = st.integers(0, 6).flatmap(
    lambda m: st.integers(0, 6).flatmap(
        lambda n: st.lists(
            st.lists(st.integers(-9, 9), min_size=n, max_size=n),
            min_size=m,
            max_size=m,
        )
    )
)


def check_snf(A, ncols=None):
    dec = smith_normal_form(A, ncols=ncols)
    m = len(A)
    n = len(A[0]) if m else (ncols or 0)
    assert len(dec.U) == m and all(len(r) == m for r in dec.U)
    assert len(dec.V) == n and all(len(r) == n for r in dec.V)
    product = mat_mul(mat_mul(dec.U, dec.S), dec.V) if m and n else dec.S
    if m and n:
        assert product == [list(map(int, row)) for row in A]
    assert abs(det(dec.U)) == 1
    assert abs(det(dec.V)) == 1
    diag = dec.diagonal
    assert all(d >= 0 for d in diag)
    for a, b in zip(diag, diag[1:]):
        if a == 0:
            assert b == 0
        else:
            assert b % a == 0
    # off-diagonal entries are zero
    for i, row in enumerate(dec.S):
        for j, v in enumerate(row):
            if i != j:
                assert v == 0
    return dec


def test_snf_identity():
    dec = check_snf([[1, 0, 0], [0, 1, 0], [0, 0, 1]])
    assert dec.S == [[1, 0, 0], [0, 1, 0], [0, 0, 1]]
    assert dec.U == [[1, 0, 0], [0, 1, 0], [0, 0, 1]]
    assert dec.V == [[1, 0, 0], [0, 1, 0], [0, 0, 1]]


def test_snf_diag_2_3():
    # hand computation: gcd steps turn diag(2, 3) into diag(1, 6)
    dec = check_snf([[2, 0], [0, 3]])
    assert dec.diagonal == (1, 6)


def test_snf_zero_2x3():
    dec = check_snf([[0, 0, 0], [0, 0, 0]])
    assert dec.S == [[0, 0, 0], [0, 0, 0]]


def test_snf_empty_shapes():
    assert smith_normal_form([], ncols=0).diagonal == ()
    dec = smith_normal_form([], ncols=3)
    assert len(dec.V) == 3
    dec = smith_normal_form([[], []], ncols=0)
    assert len(dec.U) == 2 and len(dec.V) == 0


@settings(max_examples=150, deadline=None)
@given(small_matrices)
def test_snf_random(A):
    check_snf(A, ncols=len(A[0]) if A else 0)


def test_snf_determinism():
    rng = random.Random(5)
    A = [[rng.randint(-9, 9) for _ in range(5)] for _ in range(4)]
    assert smith_normal_form(A) == smith_normal_form(A)


def test_invariant_factors():
    assert invariant_factors([[2, 0], [0, 3]]) == (1, 6)
    assert invariant_factors([[0, 0], [0, 0]]) == ()


def _diagonal_by_minor_gcds(A):
    """Independent oracle: d1...dk from gcds of k x k minors."""
    from itertools import combinations
    from math import gcd

    m = len(A)
    n = len(A[0]) if m else 0
    diag = []
    prev = 1
    for k in range(1, min(m, n) + 1):
        g = 0
        for rows in combinations(range(m), k):
            for cols in combinations(range(n), k):
                g = gcd(g, det([[A[i][j] for j in cols] for i in rows]))
        if g == 0:
            diag.extend([0] * (min(m, n) - len(diag)))
            break
        diag.append(g // prev)
        prev = g
    return tuple(diag)


@settings(max_examples=80, deadline=None)
@given(st.integers(1, 4).flatmap(
    lambda m: st.integers(1, 4).flatmap(
        lambda n: st.lists(
            st.lists(st.integers(-6, 6), min_size=n, max_size=n),
            min_size=m, max_size=m))))
def test_snf_diagonal_matches_minor_gcds(A):
    assert smith_normal_form(A).diagonal == _diagonal_by_minor_gcds(A)


def test_rank_over_examples():
    assert rank_over([[2]], Coefficients.prime_field(2)) == 0
    assert rank_over([[2]], RATIONALS) == 1
    assert rank_over([[1, -2, -1]], RATIONALS) == 1
    assert rank_over([[1, -2, -1]], INTEGERS) == 1  # reported over Q
    assert rank_over([], RATIONALS) == 0


@settings(max_examples=100, deadline=None)
@given(small_matrices, st.sampled_from([2, 3, 5, 7]))
def test_rank_specialization_drops(A, p):
    # mapping into F_p can only collapse columns, never create new independence
    assert rank_over(A, RATIONALS) >= rank_over(A, Coefficients.prime_field(p))


def test_integer_kernel_basis():
    # x - 2y - z = 0 has a rank-2 kernel lattice
    basis = integer_kernel_basis([[1, -2, -1]])
    assert len(basis) == 2
    for vec in basis:
        assert vec[0] - 2 * vec[1] - vec[2] == 0
    # the lattice is saturated: some integer combination hits gcd 1 coordinates
    assert integer_kernel_basis([], ncols=3) == [[1, 0, 0], [0, 1, 0], [0, 0, 1]]
    assert integer_kernel_basis([[1, 0], [0, 1]]) == []


@settings(max_examples=150, deadline=None)
@given(small_matrices)
def test_integer_kernel_basis_is_echelon(A):
    n = len(A[0]) if A else 0
    basis = integer_kernel_basis(A, ncols=n)
    for vec in basis:
        assert len(vec) == n
        assert all(sum(a * v for a, v in zip(row, vec)) == 0 for row in A)
    lows = [max(i for i, v in enumerate(vec) if v) for vec in basis]
    assert all(a < b for a, b in zip(lows, lows[1:]))
    for s in range(n + 1):
        prefix = [vec for vec, low in zip(basis, lows) if low < s]
        assert len(prefix) == s - rank_fraction([row[:s] for row in A])
        # saturated: the prefix vectors span every integer cycle of the
        # first s columns, not a finite-index sublattice of them
        assert set(invariant_factors(prefix, ncols=n)) <= {1}


def test_coefficients_tokens():
    assert Coefficients.parse("z") == INTEGERS
    assert Coefficients.parse("q") == RATIONALS
    assert Coefficients.parse("f7") == Coefficients.prime_field(7)
    assert str(Coefficients.prime_field(5)) == "f5"
    with pytest.raises(ValueError):
        Coefficients.parse("f4")
    with pytest.raises(ValueError):
        Coefficients.parse("r")
    with pytest.raises(ValueError):
        Coefficients.prime_field(1)


def test_is_prime():
    def slow_prime(n):
        return n >= 2 and all(n % d for d in range(2, n))

    for n in range(-3, 200):
        assert is_prime(n) == slow_prime(n)
    assert is_prime(2**31 - 1)
    assert not is_prime(2**32 + 1)


def test_sparse_product_columns_drops_zeros():
    # A = [[1, 1], [0, 2]]; B = [[1], [-1]] cancels row 0 and leaves 2*(-1) in row 1
    A = [((0, 1),), ((0, 1), (1, 2))]
    B = [((0, 1), (1, -1))]
    assert list(sparse_product_columns(A, B)) == [{1: -2}]
    assert list(sparse_product_columns(A, B, 2)) == [{}]
    assert list(sparse_product_columns(A, B, 3)) == [{1: 1}]
    # a column of B that cancels exactly, and an empty column
    assert list(sparse_product_columns(A, [((0, 2), (1, -1)), ()])) == [{0: 1, 1: -2}, {}]
    assert list(sparse_product_columns([((0, 1),), ((0, -1),)], [((0, 1), (1, 1))])) == [{}]


def test_sparse_subtract_removes_cancelled_entries():
    col = {0: 1, 2: 3}
    sparse_subtract(col, 3, [(1, 1), (2, 1)])
    assert col == {0: 1, 1: -3}
    sparse_subtract(col, 1, [(0, 1), (1, 2)], 5)
    assert col == {}
