"""Shared test oracles, deliberately independent of the library internals."""

from fractions import Fraction

from hypothesis import strategies as st

small_matrices = st.integers(0, 6).flatmap(
    lambda m: st.integers(0, 6).flatmap(
        lambda n: st.lists(
            st.lists(st.integers(-9, 9), min_size=n, max_size=n),
            min_size=m,
            max_size=m,
        )
    )
)


def det(M):
    """Exact determinant via fraction Gaussian elimination."""
    n = len(M)
    if n == 0:
        return 1
    rows = [[Fraction(v) for v in row] for row in M]
    sign = 1
    result = Fraction(1)
    for col in range(n):
        piv = next((r for r in range(col, n) if rows[r][col] != 0), None)
        if piv is None:
            return 0
        if piv != col:
            rows[col], rows[piv] = rows[piv], rows[col]
            sign = -sign
        pivot = rows[col][col]
        result *= pivot
        for r in range(col + 1, n):
            if rows[r][col] != 0:
                f = rows[r][col] / pivot
                rows[r] = [a - f * b for a, b in zip(rows[r], rows[col])]
    value = sign * result
    assert value.denominator == 1
    return int(value)


def mat_mul(A, B):
    k = len(B)
    n = len(B[0]) if k else 0
    return [[sum(row[t] * B[t][j] for t in range(k)) for j in range(n)] for row in A]


def rank_fraction(A):
    """Row-reduction rank over Q, written independently of the library."""
    rows = [[Fraction(v) for v in row] for row in A]
    rank = 0
    ncols = len(rows[0]) if rows else 0
    for col in range(ncols):
        piv = next((r for r in range(rank, len(rows)) if rows[r][col] != 0), None)
        if piv is None:
            continue
        rows[rank], rows[piv] = rows[piv], rows[rank]
        for r in range(rank + 1, len(rows)):
            if rows[r][col] != 0:
                f = rows[r][col] / rows[rank][col]
                rows[r] = [a - f * b for a, b in zip(rows[r], rows[rank])]
        rank += 1
    return rank


def inverse_conjugate(Plow, D, P):
    """Plow^{-1} D P, inverting Plow by fraction Gauss-Jordan elimination."""
    n = len(Plow)
    aug = [[Fraction(v) for v in row] + [Fraction(int(i == j)) for j in range(n)]
           for i, row in enumerate(Plow)]
    for col in range(n):
        piv = next(r for r in range(col, n) if aug[r][col] != 0)
        aug[col], aug[piv] = aug[piv], aug[col]
        aug[col] = [v / aug[col][col] for v in aug[col]]
        for r in range(n):
            if r != col and aug[r][col] != 0:
                f = aug[r][col]
                aug[r] = [a - f * b for a, b in zip(aug[r], aug[col])]
    inverse = [row[n:] for row in aug]
    return mat_mul(mat_mul(inverse, D), P)
