"""Barannikov canonical forms by persistence-style column reduction.

Each degree is reduced independently: columns are processed in ascending
critical-value order and a column's deepest nonzero row (its pivot) is
cancelled against the earlier column owning that row until the pivot is fresh
or the column dies. A surviving pivot couples the column's point with the
pivot row's point one degree down; a zeroed column is a cycle and its point
is free unless it is later consumed as a pivot target.

This is the standard persistence reduction (Zomorodian-Carlsson 2005) with
each pivot normalised once: a column is scaled to pivot 1 when it takes its
pivot, so later cancellations need no division, and the reduced column is
exactly the replacement basis vector of its partner. The basis change that
realizes the normal form is therefore read off the reduction directly, with
one entry equal to one per coupled column of the normal form and zeros
elsewhere.

The integer variant runs the same greedy reduction over Z and reports a
certificate only when every surviving pivot is a unit, which is precisely
when a value-order triangular basis change with +-1 diagonal brings the
boundary operator to normal form.
"""

from __future__ import annotations

from dataclasses import dataclass
from fractions import Fraction
from typing import Union

from .coeff import INTEGERS, Coefficients, sparse_columns, sparse_product_columns
from .complexes import CriticalPoint, FilteredComplex
from .errors import InternalInconsistencyError


class _Obstruction(Exception):
    def __init__(self, degree: int, column: int, pivot: int):
        self.degree = degree
        self.column = column
        self.pivot = pivot


def _low(col, top):
    """Largest row index ``i <= top`` with ``col[i]`` nonzero, or None."""
    for i in range(top, -1, -1):
        if col[i] != 0:
            return i
    return None


def _inverse(pivot, p):
    """Inverse of a nonzero pivot, mod p over F_p. Over Z and Q a +-1 pivot
    is its own inverse, so integer entries stay integers until a column
    meets a pivot that is not a unit."""
    if p is not None:
        return pow(pivot, -1, p)
    return pivot if pivot in (1, -1) else 1 / Fraction(pivot)


def _reduce_degree(c: FilteredComplex, k: int, coeff: Coefficients):
    """Greedy left-to-right column reduction of the degree-k boundary D of c.

    Returns (pairs, Ccols, Rcols): ``pairs`` maps column index to its pivot
    row, ``Ccols`` are the accumulated column operations (column-major,
    value-order triangular) and ``Rcols = D @ C`` are the reduced columns
    with pairwise distinct pivots, both dense and filled from the sparse
    columns of D. A column is scaled to pivot 1 when it takes its pivot, so
    every later cancellation is ``col -= col[low] * other`` with no
    division. Over Z a surviving pivot other than +-1 raises
    ``_Obstruction`` before any scaling.
    """
    p = coeff.p
    nrows, ncols = len(c.points(k - 1)), len(c.points(k))
    Rcols = [[0] * nrows for _ in range(ncols)]
    for col, terms in zip(Rcols, c.columns(k)):
        for i, v in terms:
            col[i] = v % p if p else v
    Ccols = [[int(i == j) for i in range(ncols)] for j in range(ncols)]
    owner: dict[int, int] = {}
    pairs: dict[int, int] = {}
    for j in range(ncols):
        col, cj = Rcols[j], Ccols[j]
        low = _low(col, nrows - 1)
        while low is not None and low in owner:
            t = owner[low]
            q = col[low]
            other, ct = Rcols[t], Ccols[t]
            if p is None:
                for i in range(low + 1):
                    col[i] -= q * other[i]
                for i in range(t + 1):
                    cj[i] -= q * ct[i]
            else:
                for i in range(low + 1):
                    col[i] = (col[i] - q * other[i]) % p
                for i in range(t + 1):
                    cj[i] = (cj[i] - q * ct[i]) % p
            low = _low(col, low - 1)
        if low is None:
            continue
        if coeff.is_integers and col[low] not in (1, -1):
            raise _Obstruction(k, j, col[low])
        inv = _inverse(col[low], p)
        if inv != 1:
            for v, top in ((col, low), (cj, j)):
                for i in range(top + 1):
                    v[i] = v[i] * inv % p if p else v[i] * inv
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


def _assemble(c: FilteredComplex, per_degree, coeff) -> CanonicalForm:
    """P_k = C_k except that a pivot row m of D_k takes the reduced column
    R_j (pivot 1) of its partner j, and B_k holds a 1 at (m, j)."""
    Pcols = {k: C for k, (_, C, _) in per_degree.items()}
    Bcols = {k: [[0] * len(c.points(k - 1)) for _ in c.points(k)]
             for k in per_degree}
    partner = {}  # upper point name -> (upper, lower)
    for k, (pairs, _C, R) in per_degree.items():
        for j, m in pairs.items():
            Pcols[k - 1][m] = R[j]
            Bcols[k][j][m] = 1
            upper = c.points(k)[j]
            partner[upper.name] = (upper, c.points(k - 1)[m])
    paired = {p.name for pair in partner.values() for p in pair}
    order = c.all_points()  # ascending value, so pairs come out ordered by upper point
    form = CanonicalForm(
        coeff=coeff,
        pairs=tuple(partner[p.name] for p in order if p.name in partner),
        free=tuple(p for p in order if p.name not in paired),
        basis={k: _columns_to_rows(Pcols[k], len(c.points(k))) for k in per_degree},
        normal={k: _columns_to_rows(Bcols[k], len(c.points(k - 1))) for k in per_degree},
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
        P = sparse_columns(form.basis[k], len(upper))
        Plow = sparse_columns(form.basis.get(k - 1, ()), len(lower))
        B = sparse_columns(form.normal[k], len(upper))
        lhs_cols = sparse_product_columns(c.columns(k), P, len(lower))
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
    per_degree = {k: _reduce_degree(c, k, field) for k in c.degrees()}
    form = _assemble(c, per_degree, field)
    c._cache[key] = form
    return form


def reduce_integer(c: FilteredComplex) -> IntegerReductionOutcome:
    """Greedy unit-pivot reduction over Z.

    Certified means a value-order triangular basis change with +-1 diagonal
    brings the boundary to normal form; the pairing then agrees with the
    rational one. Obstructed returns the first non-unit surviving pivot as a
    witness and claims nothing else. The outcome is memoized like
    :func:`reduce`.
    """
    key = ("reduce", INTEGERS.token())
    cached = c._cache.get(key)
    if cached is not None:
        return cached
    per_degree = {}
    for k in c.degrees():
        try:
            per_degree[k] = _reduce_degree(c, k, INTEGERS)
        except _Obstruction as ob:
            outcome = Obstructed(column=c.points(k)[ob.column], pivot=ob.pivot)
            break
    else:
        outcome = Certified(form=_assemble(c, per_degree, INTEGERS))
    c._cache[key] = outcome
    return outcome


def betti(c: FilteredComplex, field: Coefficients, k: int) -> int:
    """Number of free points of degree k, i.e. the field Betti number."""
    return len(reduce(c, field).free_of_degree(k))
