"""Exact coefficient systems and integer normal-form linear algebra.

Everything here is exact: arbitrary-precision integers, ``fractions.Fraction``
rationals (kept in lowest terms), and residues ``0..p-1`` over a prime field.
No floating point is used anywhere in the package.
"""

from __future__ import annotations

from dataclasses import dataclass
from fractions import Fraction
from typing import Sequence

IntMatrix = list[list[int]]

_MR_BASES = (2, 3, 5, 7, 11, 13, 17, 19, 23, 29, 31, 37)


def is_prime(n: int) -> bool:
    """Deterministic Miller-Rabin test (exact for every input below 3.3e24)."""
    if n < 2:
        return False
    for p in _MR_BASES:
        if n % p == 0:
            return n == p
    d, s = n - 1, 0
    while d % 2 == 0:
        d //= 2
        s += 1
    for a in _MR_BASES:
        x = pow(a, d, n)
        if x in (1, n - 1):
            continue
        for _ in range(s - 1):
            x = x * x % n
            if x == n - 1:
                break
        else:
            return False
    return True


@dataclass(frozen=True)
class Coefficients:
    """A coefficient system: the integers, the rationals, or a prime field F_p."""

    kind: str
    p: int | None = None

    def __post_init__(self):
        if self.kind not in ("Z", "Q", "Fp"):
            raise ValueError(f"unknown coefficient kind {self.kind!r}")
        if self.kind == "Fp":
            if self.p is None or not is_prime(self.p):
                raise ValueError(f"prime field needs a prime modulus, got {self.p!r}")
        elif self.p is not None:
            raise ValueError(f"coefficient system {self.kind} takes no modulus")

    @classmethod
    def integers(cls) -> "Coefficients":
        return cls("Z")

    @classmethod
    def rationals(cls) -> "Coefficients":
        return cls("Q")

    @classmethod
    def prime_field(cls, p: int) -> "Coefficients":
        return cls("Fp", p)

    @classmethod
    def parse(cls, token: str) -> "Coefficients":
        """Parse a coefficient token: ``z``, ``q``, or ``f<p>`` with p prime."""
        t = token.strip().lower()
        if t == "z":
            return cls.integers()
        if t == "q":
            return cls.rationals()
        if t.startswith("f") and t[1:].isdigit():
            return cls.prime_field(int(t[1:]))
        raise ValueError(f"unknown coefficient token {token!r}")

    @property
    def is_field(self) -> bool:
        return self.kind != "Z"

    @property
    def is_integers(self) -> bool:
        return self.kind == "Z"

    def token(self) -> str:
        if self.kind == "Z":
            return "z"
        if self.kind == "Q":
            return "q"
        return f"f{self.p}"

    def __str__(self) -> str:
        return self.token()


INTEGERS = Coefficients.integers()
RATIONALS = Coefficients.rationals()


# ---------------------------------------------------------------------------
# basic matrix helpers (row-major lists of lists)

def identity_matrix(n: int) -> IntMatrix:
    return [[1 if i == j else 0 for j in range(n)] for i in range(n)]


def sparse_columns(A: Sequence[Sequence], ncols: int = 0) -> list[list[tuple[int, object]]]:
    """The nonzero ``(row, value)`` entries of each column of a row-major matrix.

    ``ncols`` gives the column count when A has no rows.
    """
    if not A:
        return [[] for _ in range(ncols)]
    return [[(i, v) for i, v in enumerate(col) if v] for col in zip(*A)]


def sparse_product_columns(A_cols, B_cols, p: int | None = None):
    """Yield each column of A @ B as a sparse ``{row: value}`` dict.

    A and B are given as sparse columns of ``(row, value)`` entries. Values
    are reduced mod p when p is given, and zero values are dropped, so a
    zero column is ``{}``. Column j costs one scaled copy of a column of A
    per nonzero of column j of B, so the whole product costs what its
    nonzero terms cost.
    """
    for terms in B_cols:
        out: dict[int, object] = {}
        for t, b in terms:
            for i, a in A_cols[t]:
                out[i] = out.get(i, 0) + a * b
        if p is not None:
            out = {i: v % p for i, v in out.items()}
        yield {i: v for i, v in out.items() if v}


def sparse_subtract(col: dict, q, other, p: int | None = None) -> None:
    """``col -= q * other`` in place on a sparse ``{row: value}`` column.

    ``other`` yields ``(row, value)`` entries. Values are reduced mod p when
    p is given, and entries that cancel are removed.
    """
    for i, v in other:
        x = col.get(i, 0) - q * v
        if p is not None:
            x %= p
        if x:
            col[i] = x
        else:
            col.pop(i, None)


@dataclass(frozen=True)
class SmithDecomposition:
    """Unimodular factorization A = U @ S @ V with S diagonal, d1 | d2 | ...

    U is square of size ``len(U)`` (rows of A), V square of size ``len(V)``
    (columns of A); both have determinant +-1. Diagonal entries of S are
    nonnegative and each divides the next.
    """

    U: IntMatrix
    S: IntMatrix
    V: IntMatrix

    @property
    def diagonal(self) -> tuple[int, ...]:
        m, n = len(self.U), len(self.V)
        return tuple(self.S[i][i] for i in range(min(m, n)))

    @property
    def rank(self) -> int:
        return sum(1 for d in self.diagonal if d != 0)


def _snf_inplace(A: IntMatrix, ncols: int | None):
    """Core Smith reduction; returns (U, S, V, Uinv) with A = U S V."""
    m = len(A)
    n = len(A[0]) if m else (ncols if ncols is not None else 0)
    S = [list(map(int, row)) for row in A]
    for row in S:
        if len(row) != n:
            raise ValueError("ragged matrix")
    U = identity_matrix(m)
    Uinv = identity_matrix(m)
    V = identity_matrix(n)

    def row_add(i, j, q):  # row_i += q * row_j
        Si, Sj = S[i], S[j]
        for t in range(n):
            Si[t] += q * Sj[t]
        for r in range(m):
            U[r][j] -= q * U[r][i]
        Ui, Uj = Uinv[i], Uinv[j]
        for t in range(m):
            Ui[t] += q * Uj[t]

    def col_add(j, i, q):  # col_j += q * col_i
        for r in range(m):
            S[r][j] += q * S[r][i]
        Vi, Vj = V[i], V[j]
        for t in range(n):
            Vi[t] -= q * Vj[t]

    def swap_rows(i, j):
        S[i], S[j] = S[j], S[i]
        Uinv[i], Uinv[j] = Uinv[j], Uinv[i]
        for r in range(m):
            U[r][i], U[r][j] = U[r][j], U[r][i]

    def swap_cols(i, j):
        for r in range(m):
            S[r][i], S[r][j] = S[r][j], S[r][i]
        V[i], V[j] = V[j], V[i]

    def negate_row(i):
        S[i] = [-v for v in S[i]]
        Uinv[i] = [-v for v in Uinv[i]]
        for r in range(m):
            U[r][i] = -U[r][i]

    t = 0
    while True:
        best = None
        for i in range(t, m):
            Si = S[i]
            for j in range(t, n):
                v = Si[j]
                if v and (best is None or abs(v) < best[0]):
                    best = (abs(v), i, j)
        if best is None:
            break
        swap_rows(t, best[1])
        swap_cols(t, best[2])
        while True:
            restart = False
            for i in range(t + 1, m):
                if S[i][t]:
                    q = S[i][t] // S[t][t]
                    if q:
                        row_add(i, t, -q)
                    if S[i][t]:
                        swap_rows(i, t)  # remainder is strictly smaller
                        restart = True
                        break
            if restart:
                continue
            for j in range(t + 1, n):
                if S[t][j]:
                    q = S[t][j] // S[t][t]
                    if q:
                        col_add(j, t, -q)
                    if S[t][j]:
                        swap_cols(j, t)
                        restart = True
                        break
            if restart:
                continue
            # pivot must divide the whole trailing block for the chain to hold;
            # a unit pivot divides everything
            d = S[t][t]
            if d in (1, -1):
                break
            bad_row = None
            for i in range(t + 1, m):
                if any(S[i][j] % d for j in range(t + 1, n)):
                    bad_row = i
                    break
            if bad_row is None:
                break
            row_add(t, bad_row, 1)
        if S[t][t] < 0:
            negate_row(t)
        t += 1
    return U, S, V, Uinv


def smith_normal_form(A: IntMatrix, *, ncols: int | None = None) -> SmithDecomposition:
    """Smith normal form of an integer matrix, total on any shape.

    ``ncols`` disambiguates matrices with zero rows. The pivot strategy
    promotes a smallest-magnitude nonzero entry, which keeps intermediate
    coefficient growth moderate; S itself is canonical whatever the strategy.
    """
    U, S, V, _ = _snf_inplace(A, ncols)
    return SmithDecomposition(U=U, S=S, V=V)


def invariant_factors(A: IntMatrix, *, ncols: int | None = None) -> tuple[int, ...]:
    """Nonzero diagonal entries of the Smith form of A."""
    dec = smith_normal_form(A, ncols=ncols)
    return tuple(d for d in dec.diagonal if d != 0)


def integer_kernel_basis(A: IntMatrix, *, ncols: int | None = None) -> list[list[int]]:
    """Echelon basis vectors (as columns) of the integer kernel lattice of A.

    One left-to-right column reduction of ``[A; I]``: the lowest nonzero
    entry of a column is cancelled against the column that owns its row, by
    division and a swap on remainder (Euclid), and a column whose A-part
    vanishes contributes its I-part. Vector t has its last nonzero entry at
    an index ``low_t`` with ``low_0 < low_1 < ...``, and for every s the
    vectors with ``low_t < s`` form a basis of the integer kernel of the
    first s columns of A. The basis therefore extends to a basis of the
    ambient lattice, so coordinates of any integer kernel vector with respect
    to it are integers.
    """
    m = len(A)
    n = len(A[0]) if m else (ncols if ncols is not None else 0)
    if any(len(row) != n for row in A):
        raise ValueError("ragged matrix")
    owner: dict[int, tuple[list[int], list[int]]] = {}
    kernel = []
    for j in range(n):
        col = [int(A[i][j]) for i in range(m)]
        vec = [0] * n
        vec[j] = 1
        low = m - 1
        while True:
            while low >= 0 and not col[low]:
                low -= 1
            if low < 0:
                kernel.append(vec)
                break
            if low not in owner:
                owner[low] = (col, vec)
                break
            ocol, ovec = owner[low]
            q = col[low] // ocol[low]
            col = [a - q * b for a, b in zip(col, ocol)]
            vec = [a - q * b for a, b in zip(vec, ovec)]
            if col[low]:  # remainder is strictly smaller: it takes the row over
                owner[low] = (col, vec)
                col, vec = ocol, ovec
    return kernel


# ---------------------------------------------------------------------------
# field linear algebra (Q via Fraction, F_p via residues)

def _to_field_rows(A: Sequence[Sequence[int]], coeff: Coefficients):
    if coeff.kind == "Fp":
        p = coeff.p
        return [[v % p for v in row] for row in A]
    return [[Fraction(v) for v in row] for row in A]


def _echelon(rows, coeff: Coefficients) -> int:
    """In-place forward elimination; returns the rank."""
    m = len(rows)
    n = len(rows[0]) if m else 0
    p = coeff.p if coeff.kind == "Fp" else None
    rank = 0
    for col in range(n):
        piv = next((r for r in range(rank, m) if rows[r][col] != 0), None)
        if piv is None:
            continue
        rows[rank], rows[piv] = rows[piv], rows[rank]
        pv = rows[rank][col]
        inv = pow(pv, -1, p) if p else 1 / pv
        for r in range(rank + 1, m):
            factor = rows[r][col]
            if factor == 0:
                continue
            scale = factor * inv % p if p else factor * inv
            rr, rp = rows[r], rows[rank]
            if p:
                for c in range(col, n):
                    rr[c] = (rr[c] - scale * rp[c]) % p
            else:
                for c in range(col, n):
                    rr[c] = rr[c] - scale * rp[c]
        rank += 1
        if rank == m:
            break
    return rank


def rank_over(A: Sequence[Sequence[int]], coeff: Coefficients) -> int:
    """Rank of an integer matrix over the given coefficients.

    Rank over Z is reported as rank over Q (the free rank).
    """
    if not A or not A[0]:
        return 0
    field = RATIONALS if coeff.is_integers else coeff
    rows = _to_field_rows(A, field)
    return _echelon(rows, field)


def field_kernel_basis(A: Sequence[Sequence[int]], coeff: Coefficients,
                       *, ncols: int | None = None):
    """Kernel basis (list of column vectors) of an integer matrix over a field."""
    if coeff.is_integers:
        raise ValueError("field_kernel_basis needs Q or a prime field")
    m = len(A)
    n = len(A[0]) if m else (ncols if ncols is not None else 0)
    if n == 0:
        return []
    if m == 0:
        one = 1 if coeff.kind == "Fp" else Fraction(1)
        zero = 0 if coeff.kind == "Fp" else Fraction(0)
        return [[one if i == j else zero for i in range(n)] for j in range(n)]
    p = coeff.p if coeff.kind == "Fp" else None
    rows = _to_field_rows(A, coeff)
    # reduced row echelon form
    pivots: list[int] = []
    rank = 0
    for col in range(n):
        piv = next((r for r in range(rank, m) if rows[r][col] != 0), None)
        if piv is None:
            continue
        rows[rank], rows[piv] = rows[piv], rows[rank]
        pv = rows[rank][col]
        inv = pow(pv, -1, p) if p else 1 / pv
        rows[rank] = [(v * inv % p) if p else v * inv for v in rows[rank]]
        for r in range(m):
            if r != rank and rows[r][col] != 0:
                f = rows[r][col]
                if p:
                    rows[r] = [(a - f * b) % p for a, b in zip(rows[r], rows[rank])]
                else:
                    rows[r] = [a - f * b for a, b in zip(rows[r], rows[rank])]
        pivots.append(col)
        rank += 1
        if rank == m:
            break
    pivot_set = set(pivots)
    zero = 0 if p else Fraction(0)
    one = 1 if p else Fraction(1)
    basis = []
    for free in range(n):
        if free in pivot_set:
            continue
        vec = [zero] * n
        vec[free] = one
        for r, col in enumerate(pivots):
            v = rows[r][free]
            vec[col] = (-v) % p if p else -v
        basis.append(vec)
    return basis

