"""Independent recomputation used to cross-check the reduction and selectors.

The routes here avoid the column reduction entirely. Over a field every
number is a rank of a submatrix of a boundary matrix D_k, whose rows and
columns are the degree k-1 and degree k points in value order. Homology
ranks come from whole matrices (``rank_over``), the pairing from the ranks
of the lower-left blocks ``D_k[m:, :j]`` (the pairing lemma of
Cohen-Steiner, Edelsbrunner and Morozov 2006), and the minmax from the
ranks of H_k of prefixes, which are sums of such ranks. One elimination
gives the ranks of every column prefix of a matrix (``rank_profile``), so
the pairing takes one per row offset m and the minmax two in all. Over Z,
homology and torsion come from Smith forms of whole boundary matrices, where
the fast path takes a Smith form only of the small residue its integer
reduction leaves, and the global index is read off that homology. So the
oracle computes only with integers and residues mod p: Q ranks come from
the same fraction-free elimination as F_p ranks. Within the package only
this module reads the dense view ``c.matrix``. Agreement with the fast
paths is meaningful evidence; speed is a non-goal.
"""

from __future__ import annotations

from dataclasses import dataclass
from fractions import Fraction

from .coeff import INTEGERS, Coefficients, invariant_factors, rank_over, rank_profile
from .complexes import CriticalPoint, FilteredComplex, memoized
from .errors import InternalInconsistencyError, NotAdmissibleError


@dataclass(frozen=True)
class HomologySummary:
    rank: int
    torsion: tuple[int, ...] = ()


def _rank(c: FilteredComplex, field: Coefficients, k: int,
          first_row: int = 0, ncols: int | None = None) -> int:
    """Rank over ``field`` of the submatrix ``D_k[first_row:, :ncols]`` of the
    degree-k boundary matrix; the full matrix's rank is memoized per complex."""
    n = len(c.points(k)) if ncols is None else ncols
    if not n or first_row >= len(c.points(k - 1)):
        return 0
    if first_row == 0 and n == len(c.points(k)):
        return _full_rank(c, field, k)
    return rank_over([r[:n] for r in c.matrix(k)[first_row:]], field)


@memoized
def _full_rank(c: FilteredComplex, field: Coefficients, k: int) -> int:
    return rank_over(c.matrix(k), field)


@memoized
def _factors(c: FilteredComplex, k: int) -> tuple[int, ...]:
    """Nonzero invariant factors of the degree-k boundary matrix, memoized
    per complex; their count is its rank."""
    if not (c.points(k - 1) and c.points(k)):
        return ()
    return invariant_factors([list(r) for r in c.matrix(k)], ncols=len(c.points(k)))


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


def _prefix_rank(c: FilteredComplex, field: Coefficients, k: int,
                 cs: int, ct: int) -> int:
    """Rank of the map from the cycles on the first ``cs`` degree-k points
    to H_k modulo the boundaries of the first ``ct`` degree-(k+1) points.

    It is dim Z_s - dim(Z_s ∩ B_t), and as B_t lies in the cycles,
    Z_s ∩ B_t is the part of B_t supported on the first ``cs`` rows.
    """
    return (cs - _rank(c, field, k, 0, cs)
            - _rank(c, field, k + 1, 0, ct) + _rank(c, field, k + 1, cs, ct))


def pairs_by_rank(c: FilteredComplex, field: Coefficients,
                  ) -> set[tuple[CriticalPoint, CriticalPoint]]:
    """The canonical pairing recovered purely from ranks of submatrices.

    With r(m, j) the rank of ``D_k[m:, :j]``, row m is the pivot of column
    j in every reduction exactly when r(m, j+1) - r(m, j) - r(m+1, j+1)
    + r(m+1, j) is 1 (the pairing lemma of Cohen-Steiner, Edelsbrunner and
    Morozov 2006); any other nonzero value is an inconsistency. Row m of r
    is the rank profile of ``D_k[m:, :]``.
    """
    if not field.is_field:
        raise ValueError("submatrix ranks are computed over a field")
    pairs = set()
    for k in c.degrees():
        lower, upper = c.points(k - 1), c.points(k)
        d = c.matrix(k)
        r = [rank_profile(d[m:], field, len(upper)) for m in range(len(lower) + 1)]
        for m, low in enumerate(lower):
            for j, up in enumerate(upper):
                mult = r[m][j + 1] - r[m][j] - r[m + 1][j + 1] + r[m + 1][j]
                if mult:
                    if mult != 1:
                        raise InternalInconsistencyError(
                            f"pairing multiplicity {mult} at ({low.name}, {up.name})")
                    pairs.add((up, low))
    return pairs


@memoized
def _global_index(c: FilteredComplex) -> int:
    """The degree of the rank-one, torsion-free total homology, memoized.

    ``complexes.global_index`` reads homology off the column reductions, so
    the oracle reads its own from :func:`homology` over Z, that is from one
    Smith form per boundary matrix.
    """
    groups = {k: homology(c, INTEGERS, k) for k in c.degrees()}
    betti = {k: h.rank for k, h in groups.items()}
    ones = [k for k, b in betti.items() if b == 1]
    torsion = any(h.torsion for h in groups.values())
    if len(ones) != 1 or any(b not in (0, 1) for b in betti.values()) or torsion:
        raise NotAdmissibleError(f"oracle homology ranks {betti}, torsion {torsion}")
    return ones[0]


def minmax_scan_field(c: FilteredComplex, field: Coefficients,
                      ) -> tuple[Fraction, CriticalPoint]:
    """Smallest critical value whose prefix cycles already generate the
    degree-lambda homology of the whole complex, by direct rank computation.

    The prefix rank of :func:`_prefix_rank` with every degree-(lambda+1)
    point, for each prefix at once: ranks of the column prefixes of
    D_lambda, and of the row suffixes of D_{lambda+1}, which are the column
    prefixes of D_{lambda+1} with its rows reversed, transposed.
    """
    if not field.is_field:
        raise ValueError("submatrix ranks are computed over a field")
    lam = _global_index(c)
    points = c.points(lam)
    down = rank_profile(c.matrix(lam), field, len(points))
    up = rank_profile(list(zip(*c.matrix(lam + 1)[::-1])), field, len(points))[::-1]
    for cs, point in enumerate(points, start=1):
        if cs - down[cs] - up[0] + up[cs] >= 1:
            return point.value, point
    raise InternalInconsistencyError("no prefix generates the global class")
