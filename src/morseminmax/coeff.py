"""Exact coefficient systems and the linear algebra the package shares.

Everything here is exact: arbitrary-precision integers and residues
``0..p-1`` over a prime field. Torsion is read only as the invariant
factors of an integer matrix, from one Smith elimination that keeps no
transforms; ranks over Q and F_p come from fraction-free elimination on
integers. No floating point is used anywhere in the package.
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import Sequence

IntMatrix = list[list[int]]

_MR_BASES = (2, 3, 5, 7, 11, 13, 17, 19, 23, 29, 31, 37, 41)
# the least composite that passes all of _MR_BASES (a strong pseudoprime to each)
_MR_EXACT_BELOW = 3317044064679887385961981


def is_prime(n: int) -> bool:
    """Deterministic Miller-Rabin test, exact for every input below _MR_EXACT_BELOW."""
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
            if not isinstance(self.p, int) or isinstance(self.p, bool):
                raise ValueError(f"prime field needs an int modulus, got {self.p!r}")
            if self.p >= _MR_EXACT_BELOW:
                raise ValueError(f"prime modulus must be below {_MR_EXACT_BELOW}, "
                                 f"got {self.p}")
            if not is_prime(self.p):
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
        if t.startswith("f") and t[1:].isascii() and t[1:].isdigit():
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

def sparse_columns(A: Sequence[Sequence], ncols: int = 0) -> list[list[tuple[int, object]]]:
    """The nonzero ``(row, value)`` entries of each column of a row-major matrix.

    ``ncols`` gives the column count when A has no rows.
    """
    if not A:
        return [[] for _ in range(ncols)]
    return [[(i, v) for i, v in enumerate(col) if v] for col in zip(*A)]


def sparse_product_columns(A_cols, B_cols):
    """Yield each column of A @ B as a sparse ``{row: value}`` dict.

    A and B are given as sparse columns of ``(row, value)`` entries. Zero
    values are dropped, so a zero column is ``{}``. Column j costs one scaled
    copy of a column of A per nonzero of column j of B, so the whole product
    costs what its nonzero terms cost.
    """
    for terms in B_cols:
        out: dict[int, object] = {}
        for t, b in terms:
            for i, a in A_cols[t]:
                out[i] = out.get(i, 0) + a * b
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


def back_substitute(col: dict, basis) -> dict:
    """Reduce the integer column ``col`` in place against ``basis``, which maps
    a row r to a sparse column whose largest row is r, largest row first:
    ``col -= q * basis[r]`` with ``q = col[r] // basis[r][r]``. Returns the
    nonzero quotients ``{r: q}``; ``col`` keeps the remainder."""
    coeffs, kept = {}, {}
    while col:
        r = max(col)
        b = basis.get(r)
        if b and (q := col[r] // b[r]):
            coeffs[r] = q
            sparse_subtract(col, q, b.items())
        if r in col:  # later steps touch only rows below r
            kept[r] = col.pop(r)
    col.update(kept)
    return coeffs


def invariant_factors(A: IntMatrix) -> tuple[int, ...]:
    """The invariant factors of an integer matrix: the nonzero diagonal
    entries of its Smith normal form, positive, each dividing the next. A
    matrix with no rows has none, whatever its column count.

    An int copy S of A is diagonalized. Each step t moves a first nonzero
    entry of least magnitude (rows first; the search stops at a unit) to
    ``S[t][t]``, then clears row and column t by Euclid's steps. At step t
    the rows and columns before t are zero off the diagonal, so every
    operation touches only the trailing block ``S[t:, t:]``; a column
    operation comes only once column t is zero below the pivot, so it
    touches only row t.
    """
    m = len(A)
    n = len(A[0]) if m else 0
    S = [list(map(int, row)) for row in A]
    for row in S:
        if len(row) != n:
            raise ValueError("ragged matrix")
    t = 0

    def row_add(i, j, q):  # row_i += q * row_j
        Si, Sj = S[i], S[j]
        Si[t:] = [a + q * b for a, b in zip(Si[t:], Sj[t:])]

    def swap_cols(i, j):
        for r in range(t, m):
            Sr = S[r]
            Sr[i], Sr[j] = Sr[j], Sr[i]

    while True:
        best = None  # the first entry of least magnitude, rows first
        for i in range(t, m):
            Si = S[i]
            for j in range(t, n):
                v = Si[j]
                if v and (best is None or abs(v) < best[0]):
                    best = (abs(v), i, j)
            if best and best[0] == 1:  # no later entry is smaller
                break
        if best is None:
            # no later step reads a pivot, so its sign is dropped only here
            return tuple(abs(S[i][i]) for i in range(t))
        S[t], S[best[1]] = S[best[1]], S[t]
        swap_cols(t, best[2])
        while True:
            restart = False
            for i in range(t + 1, m):
                if S[i][t]:
                    q = S[i][t] // S[t][t]
                    if q:
                        row_add(i, t, -q)
                    if S[i][t]:  # remainder is strictly smaller
                        S[i], S[t] = S[t], S[i]
                        restart = True
                        break
            if restart:
                continue
            St = S[t]
            for j in range(t + 1, n):
                if St[j]:
                    q = St[j] // St[t]
                    if q:  # col_j -= q * col_t, which is zero below row t
                        St[j] -= q * St[t]
                    if St[j]:
                        swap_cols(j, t)
                        restart = True
                        break
            if restart:
                continue
            # pivot must divide the whole trailing block for the chain to hold;
            # a unit pivot divides everything
            d = St[t]
            if d in (1, -1):
                break
            bad_row = next((i for i in range(t + 1, m)
                            if any(v % d for v in S[i][t + 1:])), None)
            if bad_row is None:
                break
            row_add(t, bad_row, 1)
        t += 1


# ---------------------------------------------------------------------------
# ranks over Q and F_p by fraction-free elimination

def _echelon(rows, p: int | None) -> list[int]:
    """Fraction-free forward elimination of integer rows in place (Bareiss
    1968); returns, per column j, the rank of the first j + 1 columns over Q
    when p is None, else over F_p, the entries being residues mod p.

    At pivot ``pv`` each lower row with leading entry ``f`` becomes
    ``pv*a - f*b`` entrywise. Over Q it is then divided by the previous
    pivot, exactly: by Sylvester's identity every entry is a minor of the
    input. Mod p there is no division, and a row with ``f == 0`` is left
    alone, since the step would only scale it by the unit ``pv``. The
    columns are taken left to right, so the rank after a column is the rank
    of the prefix it ends.
    """
    m = len(rows)
    n = len(rows[0]) if m else 0
    rank, prev, profile = 0, 1, []
    for col in range(n):
        piv = next((r for r in range(rank, m) if rows[r][col]), None)
        if piv is not None:
            rows[rank], rows[piv] = rows[piv], rows[rank]
            top = rows[rank][col:]
            pv = top[0]
            for row in rows[rank + 1:]:
                f = row[col]
                if p is None:
                    row[col:] = [(pv * a - f * b) // prev for a, b in zip(row[col:], top)]
                elif f:
                    row[col:] = [(pv * a - f * b) % p for a, b in zip(row[col:], top)]
            prev = pv
            rank += 1
        profile.append(rank)
    return profile


def rank_profile(A: Sequence[Sequence[int]], coeff: Coefficients,
                 ncols: int | None = None) -> list[int]:
    """Ranks of the column prefixes of an integer matrix over the given
    coefficients: entry j is the rank of ``A[:, :j]``, for j from 0 to the
    column count, by one :func:`_echelon` of a copy of A. Rank over Z is
    reported as rank over Q (the free rank). ``ncols`` counts the columns of
    a matrix with no rows.
    """
    if not A:
        return [0] * ((ncols or 0) + 1)
    p = coeff.p  # None over Z and Q
    rows = [list(row) for row in A] if p is None else [[v % p for v in row] for row in A]
    return [0, *_echelon(rows, p)]


def rank_over(A: Sequence[Sequence[int]], coeff: Coefficients) -> int:
    """Rank of an integer matrix over the given coefficients: the last entry
    of its :func:`rank_profile`."""
    return rank_profile(A, coeff)[-1]
