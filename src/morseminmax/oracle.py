"""Independent recomputation used to cross-check the reduction and selectors.

The routes here avoid the column reduction entirely: homology and torsion via
Smith forms, the pairing via rank inclusion-exclusion over pairs of prefix
subcomplexes, and the minmax via direct field-rank scans of the filtration.
Agreement with the fast paths is meaningful evidence; speed is a non-goal.
"""

from __future__ import annotations

from dataclasses import dataclass
from fractions import Fraction

from .coeff import (
    Coefficients,
    field_kernel_basis,
    invariant_factors,
    rank_over,
)
from .complexes import CriticalPoint, FilteredComplex
from .errors import InternalInconsistencyError, NotAdmissibleError


@dataclass(frozen=True)
class HomologySummary:
    rank: int
    torsion: tuple[int, ...] = ()


def _rank(c: FilteredComplex, field: Coefficients, k: int) -> int:
    """Rank of the degree-k boundary matrix over ``field``, memoized per complex."""
    key = ("oracle_rank", field.token(), k)
    got = c._cache.get(key)
    if got is None:
        empty = not (c.points(k - 1) and c.points(k))
        got = c._cache[key] = 0 if empty else rank_over([list(r) for r in c.matrix(k)], field)
    return got


def _factors(c: FilteredComplex, k: int) -> tuple[int, ...]:
    """Nonzero invariant factors of the degree-k boundary matrix, memoized
    per complex; their count is its rank."""
    key = ("oracle_factors", k)
    got = c._cache.get(key)
    if got is None:
        empty = not (c.points(k - 1) and c.points(k))
        got = c._cache[key] = () if empty else invariant_factors(
            [list(r) for r in c.matrix(k)], ncols=len(c.points(k)))
    return got


def homology(c: FilteredComplex, coeff: Coefficients, k: int) -> HomologySummary:
    """Rank (and over Z, torsion divisors) of homology in degree k.

    Over Z both come from the Smith forms of D_k and D_{k+1}; over a field
    the ranks come from elimination.
    """
    nk = len(c.points(k))
    if not coeff.is_integers:
        return HomologySummary(rank=nk - _rank(c, coeff, k) - _rank(c, coeff, k + 1))
    down, up = _factors(c, k), _factors(c, k + 1)
    return HomologySummary(rank=nk - len(down) - len(up),
                           torsion=tuple(d for d in up if d > 1))


class _PrefixRanks:
    """Memoized ranks of induced maps H_k(prefix_s) -> H_k(prefix_t).

    Prefixes are counted in filtration order over all points; the rank of the
    induced map is dim(Z_s + B_t) - dim(B_t) where Z_s is the kernel of the
    degree-k boundary restricted to the first s filtration levels and B_t the
    span of boundary columns present by level t.
    """

    def __init__(self, c: FilteredComplex, field: Coefficients):
        if not field.is_field:
            raise ValueError("prefix ranks are computed over a field")
        self.c = c
        self.field = field
        self.levels = c.all_points()
        self._beta: dict[tuple[int, int, int], int] = {}
        self._cols_upto: dict[tuple[int, int], int] = {}

    def _ncols(self, k: int, level: int) -> int:
        """Number of degree-k points within the first ``level`` points."""
        key = (k, level)
        got = self._cols_upto.get(key)
        if got is None:
            got = sum(1 for p in self.levels[:level] if p.degree == k)
            self._cols_upto[key] = got
        return got

    def _boundary_cols(self, k: int, count: int):
        mat = self.c.matrix(k)
        nrows = len(self.c.points(k - 1))
        return [[mat[i][j] for j in range(count)] for i in range(nrows)]

    def rank_map(self, k: int, s: int, t: int) -> int:
        if s == 0:
            return 0
        cs = self._ncols(k, s)
        ct = self._ncols(k + 1, t)
        key = (k, cs, ct)
        got = self._beta.get(key)
        if got is not None:
            return got
        nrows = len(self.c.points(k))
        restricted = self._boundary_cols(k, cs) if nrows and cs else []
        if cs and not self.c.points(k - 1):
            kernel = field_kernel_basis([], self.field, ncols=cs)
        elif cs:
            kernel = field_kernel_basis(restricted, self.field, ncols=cs)
        else:
            kernel = []
        upmat = self.c.matrix(k + 1)
        bcols = [[upmat[i][j] for i in range(nrows)] for j in range(ct)] if nrows else []
        zcols = [list(vec) + [0] * (nrows - cs) for vec in kernel]
        rank_b = _rank_cols(bcols, nrows, self.field)
        rank_zb = _rank_cols(zcols + bcols, nrows, self.field)
        value = rank_zb - rank_b
        self._beta[key] = value
        return value


def _rank_cols(cols, nrows, field):
    if not cols or nrows == 0:
        return 0
    rows = [[col[i] for col in cols] for i in range(nrows)]
    return rank_over(rows, field)


def pairs_by_rank(c: FilteredComplex, field: Coefficients,
                  ) -> set[tuple[CriticalPoint, CriticalPoint]]:
    """The canonical pairing recovered purely from prefix rank arithmetic.

    The multiplicity of a couple (lower at level s, upper at level t) is the
    inclusion-exclusion of the four induced ranks at the corners of (s, t);
    with pairwise distinct values every multiplicity is 0 or 1.
    """
    pre = _PrefixRanks(c, field)
    levels = pre.levels
    pairs = set()
    for t, upper in enumerate(levels, start=1):
        k = upper.degree - 1
        if not c.points(k):
            continue
        for s, lower in enumerate(levels[: t - 1], start=1):
            if lower.degree != k:
                continue
            mult = (pre.rank_map(k, s, t - 1) - pre.rank_map(k, s, t)
                    - pre.rank_map(k, s - 1, t - 1) + pre.rank_map(k, s - 1, t))
            if mult:
                if mult != 1:
                    raise InternalInconsistencyError(
                        f"pairing multiplicity {mult} at ({lower.name}, {upper.name})")
                pairs.add((upper, lower))
    return pairs


def _global_index(c: FilteredComplex) -> int:
    """The degree of the rank-one, torsion-free total homology, memoized.

    ``complexes.global_index`` reads homology off the column reductions, so
    the oracle computes its own from one Smith form per boundary matrix,
    shared with :func:`homology`: the nonzero invariant factors count its
    rank, and any factor above 1 is torsion.
    """
    lam = c._cache.get("oracle_global_index")
    if lam is not None:
        return lam
    factors = {k: _factors(c, k) for k in c.degrees()}
    betti = {k: len(c.points(k)) - len(factors[k]) - len(factors.get(k + 1, ()))
             for k in c.degrees()}
    ones = [k for k, b in betti.items() if b == 1]
    torsion = any(d > 1 for f in factors.values() for d in f)
    if len(ones) != 1 or any(b not in (0, 1) for b in betti.values()) or torsion:
        raise NotAdmissibleError(f"oracle homology ranks {betti}, torsion {torsion}")
    lam = c._cache["oracle_global_index"] = ones[0]
    return lam


def minmax_scan_field(c: FilteredComplex, field: Coefficients,
                      ) -> tuple[Fraction, CriticalPoint]:
    """Smallest critical value whose prefix cycles already generate the
    degree-lambda homology of the whole complex, by direct rank computation."""
    lam = _global_index(c)
    pre = _PrefixRanks(c, field)
    n = len(pre.levels)
    for s, point in enumerate(pre.levels, start=1):
        if point.degree != lam:
            continue
        if pre.rank_map(lam, s, n) >= 1:
            return point.value, point
    raise InternalInconsistencyError("no prefix generates the global class")
