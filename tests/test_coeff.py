import random

import pytest
from hypothesis import given, settings, strategies as st

from morseminmax.coeff import (
    Coefficients,
    INTEGERS,
    RATIONALS,
    invariant_factors,
    is_prime,
    rank_over,
    rank_profile,
    sparse_product_columns,
    sparse_subtract,
)

from helpers import det, invariant_factor_failures, mat_mul, rank_fraction, small_matrices


def test_invariant_factors():
    assert invariant_factors([[1, 0, 0], [0, 1, 0], [0, 0, 1]]) == (1, 1, 1)
    # hand computation: gcd steps turn diag(2, 3) into diag(1, 6)
    assert invariant_factors([[2, 0], [0, 3]]) == (1, 6)
    assert invariant_factors([[0, 0], [0, 0]]) == ()
    assert invariant_factors([[0, 0, 0], [0, 0, 0]]) == ()
    # a negative pivot is reported by its magnitude
    assert invariant_factors([[-4]]) == (4,)
    assert invariant_factors([[0, -2], [-2, 0]]) == (2, 2)


@settings(max_examples=150, deadline=None)
@given(small_matrices)
def test_invariant_factors_random(A):
    n = len(A[0]) if A else 0
    assert invariant_factor_failures(A, invariant_factors(A, ncols=n)) == []


def test_invariant_factors_leave_their_input_alone():
    rng = random.Random(5)
    A = [[rng.randint(-9, 9) for _ in range(5)] for _ in range(4)]
    copy = [row[:] for row in A]
    assert invariant_factors(A) == invariant_factors(copy)
    assert A == copy


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


@settings(max_examples=150, deadline=None)
@given(st.integers(0, 4).flatmap(
    lambda m: st.integers(0, 4).flatmap(
        lambda n: st.lists(
            st.lists(st.integers(-6, 6), min_size=n, max_size=n),
            min_size=m, max_size=m).map(lambda A: (A, n)))))
def test_invariant_factors_match_minor_gcds(case):
    A, n = case
    factors = invariant_factors(A, ncols=n)
    assert factors == tuple(d for d in _diagonal_by_minor_gcds(A) if d)
    if A:
        assert invariant_factors(A) == factors


def test_invariant_factors_of_empty_shapes():
    assert invariant_factors([]) == invariant_factors([], ncols=3) == ()
    assert invariant_factors([[], []], ncols=0) == invariant_factors([[], []]) == ()
    with pytest.raises(ValueError, match="ragged"):
        invariant_factors([[1, 2], [3]])


@settings(max_examples=150, deadline=None)
@given(small_matrices, st.sampled_from([None, 2, 3, 5]))
def test_rank_profile_is_the_rank_of_every_column_prefix(A, p):
    coeff = RATIONALS if p is None else Coefficients.prime_field(p)
    n = len(A[0]) if A else 0
    profile = rank_profile(A, coeff, n)
    assert profile == [rank_over([row[:j] for row in A], coeff) for j in range(n + 1)]
    if p is None:
        assert profile == [rank_fraction([row[:j] for row in A]) for j in range(n + 1)]


def test_rank_profile_examples():
    assert rank_profile([], RATIONALS, 3) == [0, 0, 0, 0]
    assert rank_profile([[], []], RATIONALS) == [0]
    # the last two columns have determinant 2, so mod 2 the rank stays at 1
    assert rank_profile([[0, 2, 4], [0, 1, 3]], RATIONALS) == [0, 0, 1, 2]
    assert rank_profile([[0, 2, 4], [0, 1, 3]], Coefficients.prime_field(2)) == [0, 0, 1, 1]
    assert rank_profile([[1, 2, 3]], INTEGERS) == [0, 1, 1, 1]  # over Z as over Q


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
    rank_q, rank_p = rank_over(A, RATIONALS), rank_over(A, Coefficients.prime_field(p))
    assert rank_q >= rank_p
    assert rank_q == rank_fraction(A)
    assert rank_p == sum(1 for d in invariant_factors(A) if d % p)


def test_rank_over_q_divides_exactly_past_machine_words():
    # a 12x12 product of 12x7 and 7x12 factors with 60-bit entries has rank 7;
    # its entries and the minors the elimination divides by exceed 64 bits
    rng = random.Random(21)

    def wide(m, n):
        return [[rng.randrange(-2**60, 2**60) for _ in range(n)] for _ in range(m)]

    A = mat_mul(wide(12, 7), wide(7, 12))
    assert max(abs(v) for row in A for v in row).bit_length() > 64
    assert rank_over(A, RATIONALS) == rank_over(A, INTEGERS) == rank_fraction(A) == 7


def test_coefficients_tokens():
    assert Coefficients.parse("z") == INTEGERS
    assert Coefficients.parse("q") == RATIONALS
    assert Coefficients.parse("f7") == Coefficients.prime_field(7)
    assert str(Coefficients.prime_field(5)) == "f5"
    with pytest.raises(ValueError):
        Coefficients.parse("f4")
    with pytest.raises(ValueError):
        Coefficients.parse("r")
    # only ASCII digits name a prime, as in the file grammar
    for token in ("f\u0663", "f\u00b2", "f\uff17"):
        with pytest.raises(ValueError, match="unknown coefficient token"):
            Coefficients.parse(token)
    with pytest.raises(ValueError):
        Coefficients.prime_field(1)


@pytest.mark.parametrize("p", [3.0, "3", True, None])
def test_prime_field_needs_an_int_modulus(p):
    # 3.0 passes is_prime and True compares as 1; neither may name a field
    with pytest.raises(ValueError, match="needs an int modulus"):
        Coefficients.prime_field(p)


def test_coefficients_refuse_an_unknown_kind_or_a_stray_modulus():
    with pytest.raises(ValueError, match="unknown coefficient kind 'R'"):
        Coefficients("R")
    for kind in ("Z", "Q"):
        with pytest.raises(ValueError, match=f"coefficient system {kind} takes no modulus"):
            Coefficients(kind, 3)


def test_is_prime():
    def slow_prime(n):
        return n >= 2 and all(n % d for d in range(2, n))

    for n in range(-3, 200):
        assert is_prime(n) == slow_prime(n)
    assert is_prime(2**31 - 1)
    assert not is_prime(2**32 + 1)


def test_prime_moduli_stop_where_miller_rabin_is_exact():
    # 399165290221 * 798330580441 passes every prime base up to 37, not 41
    assert not is_prime(318665857834031151167461)
    # the least composite that passes every prime base up to 41
    assert is_prime(3317044064679887385961981)
    with pytest.raises(ValueError, match="below"):
        Coefficients.prime_field(3317044064679887385961981)


def test_sparse_product_columns_drops_zeros():
    # A = [[1, 1], [0, 2]]; B = [[1], [-1]] cancels row 0 and leaves 2*(-1) in row 1
    A = [((0, 1),), ((0, 1), (1, 2))]
    B = [((0, 1), (1, -1))]
    assert list(sparse_product_columns(A, B)) == [{1: -2}]
    # an empty column of B, and a column of B whose product cancels exactly
    assert list(sparse_product_columns(A, [((0, 2), (1, -1)), ()])) == [{0: 1, 1: -2}, {}]
    assert list(sparse_product_columns([((0, 1),), ((0, -1),)], [((0, 1), (1, 1))])) == [{}]


def test_sparse_subtract_removes_cancelled_entries():
    col = {0: 1, 2: 3}
    sparse_subtract(col, 3, [(1, 1), (2, 1)])
    assert col == {0: 1, 1: -3}
    sparse_subtract(col, 1, [(0, 1), (1, 2)], 5)
    assert col == {}
