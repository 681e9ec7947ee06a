"""Barannikov canonical forms by persistence-style column reduction.

Each degree is reduced independently: columns are processed in ascending
critical-value order and a column's deepest nonzero row (its pivot) is
cancelled against the earlier column owning that row until the pivot is fresh
or the column dies. A surviving pivot couples the column's point with the
pivot row's point one degree down; a zeroed column is a cycle and its point
is free unless it is later consumed as a pivot target.

A second pass assembles the basis change realizing the normal form: the
column of every coupled upper point is rescaled so its boundary is exactly
the replacement basis vector of its partner, which keeps one entry equal to
one per coupled column and zeros elsewhere.

The integer variant runs the same greedy reduction over Z and reports a
certificate only when every cancellation divides exactly and every surviving
pivot is a unit, which is precisely when a value-order triangular basis
change with +-1 diagonal brings the boundary operator to normal form.
"""

from __future__ import annotations

from dataclasses import dataclass
from fractions import Fraction
from typing import Union

from .coeff import Coefficients, sparse_columns, sparse_product_columns
from .complexes import CriticalPoint, FilteredComplex
from .errors import InternalInconsistencyError


class _RationalOps:
    kind = "Q"

    @staticmethod
    def of(v):
        return Fraction(v)

    zero = Fraction(0)
    one = Fraction(1)

    @staticmethod
    def div(a, b):
        return a / b


class _PrimeOps:
    kind = "Fp"

    def __init__(self, p: int):
        self.p = p
        self.zero = 0
        self.one = 1

    def of(self, v):
        return v % self.p

    def div(self, a, b):
        return a * pow(b, -1, self.p) % self.p


class _IntegerOps:
    kind = "Z"
    zero = 0
    one = 1

    @staticmethod
    def of(v):
        return int(v)

    @staticmethod
    def div(a, b):
        q, r = divmod(a, b)
        if r:
            raise InternalInconsistencyError(
                f"inexact integer cancellation {a}/{b} against a unit pivot")
        return q


def _ops_for(coeff: Coefficients):
    if coeff.kind == "Q":
        return _RationalOps()
    if coeff.kind == "Fp":
        return _PrimeOps(coeff.p)
    return _IntegerOps()


class _Obstruction(Exception):
    def __init__(self, degree: int, column: int, pivot: int):
        self.degree = degree
        self.column = column
        self.pivot = pivot


def _low(col):
    for i in range(len(col) - 1, -1, -1):
        if col[i] != 0:
            return i
    return None


def _reduce_degree(D, nrows, ncols, ops, *, degree=None, unit_pivots=False):
    """Greedy left-to-right column reduction of one boundary matrix.

    Returns (pairs, Ccols, Rcols): ``pairs`` maps column index to its pivot
    row, ``Ccols`` are the accumulated column operations (column-major, unit
    diagonal), and ``Rcols = D @ C`` are the reduced columns with pairwise
    distinct pivots.
    """
    Rcols = [[ops.of(D[i][j]) for i in range(nrows)] for j in range(ncols)]
    Ccols = [[ops.one if i == j else ops.zero for i in range(ncols)]
             for j in range(ncols)]
    owner: dict[int, int] = {}
    pairs: dict[int, int] = {}
    p = getattr(ops, "p", None)
    for j in range(ncols):
        col = Rcols[j]
        low = _low(col)
        while low is not None and low in owner:
            k = owner[low]
            other = Rcols[k]
            q = ops.div(col[low], other[low])
            if p is None:
                for i in range(low + 1):
                    col[i] -= q * other[i]
                ck, cj = Ccols[k], Ccols[j]
                for i in range(len(cj)):
                    cj[i] -= q * ck[i]
            else:
                for i in range(low + 1):
                    col[i] = (col[i] - q * other[i]) % p
                ck, cj = Ccols[k], Ccols[j]
                for i in range(len(cj)):
                    cj[i] = (cj[i] - q * ck[i]) % p
            low = _low(col)
        if low is not None:
            if unit_pivots and col[low] not in (1, -1):
                raise _Obstruction(degree, j, col[low])
            owner[low] = j
            pairs[j] = low
    return pairs, Ccols, Rcols


@dataclass
class CanonicalForm:
    """The canonical pairing plus the basis change realizing the normal form.

    ``pairs`` couples an upper point with a strictly lower-valued point one
    degree down; ``free`` holds everything unpaired. ``basis`` maps a degree
    to the (row-major) value-order triangular basis-change matrix P_k with
    nonzero diagonal, and ``normal`` to B_k = P_{k-1}^{-1} D_k P_k, whose
    columns are zero or a single 1 in an otherwise-zero row.
    """

    coeff: Coefficients
    pairs: tuple[tuple[CriticalPoint, CriticalPoint], ...]
    free: tuple[CriticalPoint, ...]
    basis: dict[int, list[list]]
    normal: dict[int, list[list]]

    def pair_names(self) -> set[tuple[str, str]]:
        return {(u.name, l.name) for u, l in self.pairs}

    def free_names(self) -> set[str]:
        return {p.name for p in self.free}

    def free_of_degree(self, k: int) -> list[CriticalPoint]:
        return [p for p in self.free if p.degree == k]


@dataclass(frozen=True)
class Certified:
    """Integer reduction succeeded with +-1 pivots end to end."""

    form: CanonicalForm


@dataclass(frozen=True)
class Obstructed:
    """Greedy integer reduction met a non-unit surviving pivot.

    Inconclusive beyond the witness: reports the first offending column and
    pivot in (degree, value)-ascending processing order.
    """

    column: CriticalPoint
    pivot: int


IntegerReductionOutcome = Union[Certified, Obstructed]


def _columns_to_rows(cols, nrows):
    return [[cols[j][i] for j in range(len(cols))] for i in range(nrows)]


def _assemble(c: FilteredComplex, per_degree, ops, coeff) -> CanonicalForm:
    Pcols = {k: [list(col) for col in C] for k, (_, C, _) in per_degree.items()}
    Bcols = {k: [[ops.zero] * len(c.points(k - 1)) for _ in c.points(k)]
             for k in per_degree}
    pairs_points = []
    for k, (pairs, _C, R) in per_degree.items():
        for j, m in sorted(pairs.items()):
            pivot = R[j][m]
            Pcols[k][j] = [ops.div(x, pivot) for x in Pcols[k][j]]
            if k - 1 in Pcols:
                Pcols[k - 1][m] = [ops.div(x, pivot) for x in R[j]]
            Bcols[k][j][m] = ops.one
            pairs_points.append((c.points(k)[j], c.points(k - 1)[m]))
    paired = {p.name for pair in pairs_points for p in pair}
    free = tuple(p for p in c.all_points() if p.name not in paired)
    basis = {}
    normal = {}
    for k in per_degree:
        mk = len(c.points(k))
        basis[k] = _columns_to_rows(Pcols[k], mk)
        normal[k] = _columns_to_rows(Bcols[k], len(c.points(k - 1)))
    form = CanonicalForm(
        coeff=coeff,
        pairs=tuple(sorted(pairs_points, key=lambda pr: (pr[0].value, pr[0].name))),
        free=free,
        basis=basis,
        normal=normal,
    )
    _verify_normal_form(c, form)
    return form


def _verify_normal_form(c: FilteredComplex, form: CanonicalForm) -> None:
    """Check D_k P_k = P_{k-1} B_k exactly (equivalent to B = P^{-1} D P).

    Both sides are built column by column from sparse columns, so the check
    costs what the nonzero entries of D, P and B cost.
    """
    p = form.coeff.p
    for k in form.normal:
        lower = c.points(k - 1)
        upper = c.points(k)
        D = sparse_columns(c.matrix(k), len(upper))
        P = sparse_columns(form.basis[k], len(upper))
        Plow = sparse_columns(form.basis.get(k - 1, ()), len(lower))
        B = sparse_columns(form.normal[k], len(upper))
        lhs_cols = sparse_product_columns(D, P, len(lower))
        rhs_cols = sparse_product_columns(Plow, B, len(lower))
        for j, (lhs, rhs) in enumerate(zip(lhs_cols, rhs_cols)):
            if p is not None:
                lhs = [a % p for a in lhs]
                rhs = [b % p for b in rhs]
            if lhs != rhs:
                i = next(i for i, (a, b) in enumerate(zip(lhs, rhs)) if a != b)
                raise InternalInconsistencyError(
                    f"normal form verification failed over {form.coeff.token()} "
                    f"at degree {k}: row {i} ({lower[i].name}), "
                    f"column {j} ({upper[j].name})")


def reduce(c: FilteredComplex, field: Coefficients) -> CanonicalForm:
    """Barannikov canonical form of a valid complex over Q or a prime field.

    The pairing is unique: any two value-order triangular bases put the
    boundary operator into the same normal form, so the output is invariant
    under valid basis changes of the input. The form is memoized on the
    (immutable) complex, one per field, and must not be modified.
    """
    if field.is_integers:
        raise ValueError("use reduce_integer for integer coefficients")
    key = ("reduce", field.token())
    cached = c._cache.get(key)
    if cached is not None:
        return cached
    ops = _ops_for(field)
    per_degree = {}
    for k in c.degrees():
        D = c.matrix(k)
        per_degree[k] = _reduce_degree(
            D, len(c.points(k - 1)), len(c.points(k)), ops)
    form = _assemble(c, per_degree, ops, field)
    c._cache[key] = form
    return form


def reduce_integer(c: FilteredComplex) -> IntegerReductionOutcome:
    """Greedy unit-pivot reduction over Z.

    Certified means a value-order triangular basis change with +-1 diagonal
    brings the boundary to normal form; the pairing then agrees with the
    rational one. Obstructed returns the first non-unit surviving pivot as a
    witness and claims nothing else.
    """
    ops = _IntegerOps()
    per_degree = {}
    for k in c.degrees():
        D = c.matrix(k)
        try:
            per_degree[k] = _reduce_degree(
                D, len(c.points(k - 1)), len(c.points(k)), ops,
                degree=k, unit_pivots=True)
        except _Obstruction as ob:
            return Obstructed(column=c.points(k)[ob.column], pivot=ob.pivot)
    form = _assemble(c, per_degree, ops, Coefficients.integers())
    return Certified(form=form)


def betti(c: FilteredComplex, field: Coefficients, k: int) -> int:
    """Number of free points of degree k, i.e. the field Betti number."""
    return len(reduce(c, field).free_of_degree(k))
