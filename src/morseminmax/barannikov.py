"""Barannikov canonical forms by persistence-style column reduction.

Each degree is reduced independently on the sparse columns of its boundary
(``FilteredComplex.columns``): columns are processed in ascending
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
elsewhere. The basis change and the normal form stay sparse columns, so a
reduction costs what its nonzero entries cost.

Every form is checked exactly, by :mod:`.certify`: D_k P_k = P_{k-1} B_k,
over its own ring. Each column is checked in one sparse accumulator that
starts as P_{k-1} B_k[:, j] (the stored column of P_{k-1} that a single 1 in
B_k selects, copied) and has D_k P_k[:, j] subtracted from it term by term;
every entry left must vanish (mod p). An entry of that difference is
nonzero exactly where the two product columns differ, so this is the same
check as multiplying out both sides and comparing them, at the cost of the
nonzero terms of D_k P_k[:, j] plus one column copy.

The integer variant runs the same greedy reduction over Z and reports a
certificate only when every surviving pivot is a unit, which is precisely
when a value-order triangular basis change with +-1 diagonal brings the
boundary operator to normal form. Over Z a unit pivot is scaled like any
other, a non-unit pivot is left as it is, and the reduction reports the
first one. A column that meets a non-unit pivot takes Euclid's step (floor
division, and a remainder takes the row over), so the reduction finishes
and its zeroed columns are an echelon basis of the integer cycles. It is
memoized per degree, and homology and the integer selectors read it too.
It reads no critical value, so it and the verified integer basis change and
normal form live in the complex's shared store (see :mod:`.complexes`) and
serve every complex that differs only in its values; :func:`reduce_integer`
reads the pairs and free points off that normal form with each complex's
own points.

A certificate over Z is one over every field: the change of coefficients
Z -> Q or Z -> F_p keeps the basis change triangular with a unit diagonal
and the normal form exact. So a certified complex's field forms are its
integer form (Q) or that form with its basis reduced mod p and checked
mod p (F_p). Only an obstructed complex is reduced once per field. Callers
that read only the free points (``betti``, the field selectors) take them
from :func:`free_points`, which on a certified complex is the verified
integer form's own free tuple, so no F_p form is built for them.
"""

from __future__ import annotations

from dataclasses import dataclass, replace
from fractions import Fraction
from typing import Union

from .coeff import (INTEGERS, Coefficients, back_substitute, invariant_factors,
                    sparse_subtract)
from .certify import _verify_normal_form
from .complexes import CriticalPoint, FilteredComplex, memoized


def _inverse(pivot, p):
    """Inverse of a nonzero pivot, mod p over F_p. Over Z and Q a +-1 pivot
    is its own inverse, so integer entries stay integers until a column
    meets a pivot that is not a unit."""
    if p is not None:
        return pow(pivot, -1, p)
    return pivot if pivot in (1, -1) else 1 / Fraction(pivot)


def _reduce_degree(columns, coeff: Coefficients):
    """Greedy left-to-right reduction of the sparse columns of a matrix D.

    ``columns`` are the columns of D as ``(row, value)`` entries (dicts are
    copied). Returns (pairs, C, R, first): ``pairs`` maps column index to its
    pivot row, ``C`` are the accumulated column operations (value-order
    triangular, unimodular over Z) and ``R = D @ C`` are the reduced columns
    with pairwise distinct pivots. All columns are sparse ``{row: value}``
    dicts: ``R`` starts from the columns of D and ``C[j]`` from ``{j: 1}``.
    The pivot of a column is its largest row, and a unit pivot is scaled to
    1 when its column takes it, so cancelling against it needs no division.

    Over Z a fresh non-unit pivot is left unscaled, and ``first`` is the
    first of them as ``(column, pivot)`` (None if every pivot is a unit). A
    column meeting such a pivot takes Euclid's step: it is cancelled by floor
    division, and a nonzero remainder takes the row over, the two slots
    swapping their R and C. No remainder can arise before ``first``. A dead
    slot j (``R[j]`` empty) then holds a kernel vector ending at index j, and
    the dead slots below s are a basis of the integer kernel of the first s
    columns.
    """
    p, integers = coeff.p, coeff.is_integers
    R = [{i: v % p for i, v in terms if v % p} if p else dict(terms)
         for terms in columns]
    C = [{j: 1} for j in range(len(R))]
    owner: dict[int, int] = {}
    pairs: dict[int, int] = {}
    first = None
    for j in range(len(R)):
        col, cj = R[j], C[j]
        low = max(col, default=None)
        while low in owner:
            t = owner[low]
            q = col[low] // R[t][low] if integers else col[low]
            if q:
                sparse_subtract(col, q, R[t].items(), p)
                sparse_subtract(cj, q, C[t].items(), p)
            if low in col:  # a smaller remainder takes the row over
                R[j], R[t], C[j], C[t] = R[t], col, C[t], cj
                col, cj = R[j], C[j]
            low = max(col, default=None)
        if low is None:
            continue
        if integers and col[low] not in (1, -1):
            if first is None:
                first = (j, col[low])
        else:
            inv = _inverse(col[low], p)
            if inv != 1:
                for v in (col, cj):
                    for i in v:
                        v[i] = v[i] * inv % p if p else v[i] * inv
        owner[low] = j
        pairs[j] = low
    return pairs, C, R, first


@memoized(value_free=True)
def _integer_reduction(c: FilteredComplex, k: int):
    """``_reduce_degree`` of the degree-k boundary over Z, memoized per
    shared store and degree. Its readers share it, so none may modify it."""
    return _reduce_degree(c.columns(k), INTEGERS)


def _invariant_factors(reduction) -> tuple[int, ...]:
    """Nonzero invariant factors of D, ascending, from its reduction R = D C
    by :func:`_reduce_degree` over Z: a 1 per +-1 pivot, then the Smith form
    of the residue (Schur complement) the other pivot columns leave once
    back-substitution clears the +-1 pivot rows."""
    pairs, _, R, _ = reduction
    units = {m: R[j] for j, m in pairs.items() if R[j][m] in (1, -1)}
    residue = [dict(R[j]) for j, m in pairs.items() if m not in units]  # R is shared
    for col in residue:
        back_substitute(col, units)
    rows = sorted(set().union(*residue))
    rest = invariant_factors([[col.get(i, 0) for col in residue] for i in rows])
    return (1,) * len(units) + rest


@dataclass
class CanonicalForm:
    """The canonical pairing plus the basis change realizing the normal form.

    ``pairs`` couples an upper point with a strictly lower-valued point one
    degree down; ``free`` holds everything unpaired. ``basis`` maps a degree
    to the value-order triangular basis-change matrix P_k with nonzero
    diagonal, and ``normal`` to B_k = P_{k-1}^{-1} D_k P_k, whose columns are
    zero or a single 1 in an otherwise-zero row. Both are sparse, one
    column per degree-k point. A column of P_k is the reduction's own
    ``{row: coeff}`` dict. A column of B_k has the format of
    ``FilteredComplex.columns``: ``((m, 1),)`` for a column paired with row
    m, and ``()`` otherwise. The field forms of a certified complex share
    the integer form's ``pairs``, ``free`` and ``normal``; over Q they share
    its ``basis`` too, and over F_p their basis is that one reduced mod p.
    """

    coeff: Coefficients
    pairs: tuple[tuple[CriticalPoint, CriticalPoint], ...]
    free: tuple[CriticalPoint, ...]
    basis: dict[int, list[dict[int, object]]]
    normal: dict[int, tuple[tuple[tuple[int, int], ...], ...]]

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
    """Greedy integer reduction met a non-unit pivot.

    Inconclusive beyond the witness: reports the first offending column and
    pivot in (degree, value)-ascending processing order.
    """

    column: CriticalPoint
    pivot: int


IntegerReductionOutcome = Union[Certified, Obstructed]


def _assemble(c: FilteredComplex, per_degree, coeff) -> CanonicalForm:
    """P_k = C_k except that a pivot row m of D_k takes the reduced column
    R_j (pivot 1) of its partner j, and B_k holds a 1 at (m, j). The form
    is verified and value-free: its pairs and free stay empty until
    :func:`_label` reads them off B_k with c's points."""
    Pcols = {k: list(C) for k, (_, C, _) in per_degree.items()}  # C may be memoized
    Bcols = {k: [()] * len(c.points(k)) for k in per_degree}
    for k, (pairs, _C, R) in per_degree.items():
        for j, m in pairs.items():
            Pcols[k - 1][m] = R[j]
            Bcols[k][j] = ((m, 1),)
    form = CanonicalForm(coeff=coeff, pairs=(), free=(), basis=Pcols,
                         normal={k: tuple(B) for k, B in Bcols.items()})
    _verify_normal_form(c, form)
    return form


def _label(c: FilteredComplex, form: CanonicalForm) -> CanonicalForm:
    """The form with c's own points in its pairs and free: a column j of B_k
    that holds a 1 in row m couples point j of degree k with point m of
    degree k - 1, and every point left uncoupled is free."""
    partner = {}  # upper point name -> (upper, lower)
    for k, B in form.normal.items():
        lower = c.points(k - 1)
        for upper, col in zip(c.points(k), B):
            if col:
                partner[upper.name] = (upper, lower[col[0][0]])
    paired = {p.name for pair in partner.values() for p in pair}
    order = c.all_points()  # ascending value, so pairs come out ordered by upper point
    return replace(form, pairs=tuple(partner[p.name] for p in order if p.name in partner),
                   free=tuple(p for p in order if p.name not in paired))


@memoized
def reduce(c: FilteredComplex, field: Coefficients) -> CanonicalForm:
    """Barannikov canonical form of a valid complex over Q or a prime field.

    The pairing is unique: any two value-order triangular bases put the
    boundary operator into the same normal form, so the output is invariant
    under valid basis changes of the input. The form is memoized on the
    (immutable) complex, one per field, and must not be modified.

    A certified complex is not reduced again. Its integer basis change has
    a +-1 diagonal, so it stays value-order triangular and invertible under
    every ring map Z -> field, and D P = P B stays true there. Over Q the
    form is the integer form itself (its check would repeat the integer one
    on the same operands). Over F_p it is the integer form with its basis
    reduced mod p, checked mod p. Only an obstructed complex is reduced per
    field, since there the answer may depend on the characteristic.
    """
    if field.is_integers:
        raise ValueError("use reduce_integer for integer coefficients")
    outcome = reduce_integer(c)
    if isinstance(outcome, Obstructed):
        return _field_form(c, field)
    p = field.p
    if p is None:
        return replace(outcome.form, coeff=field)
    basis = {k: [{i: v % p for i, v in col.items() if v % p} for col in cols]
             for k, cols in outcome.form.basis.items()}
    form = replace(outcome.form, coeff=field, basis=basis)
    _verify_normal_form(c, form)
    return form


def _field_form(c: FilteredComplex, field: Coefficients) -> CanonicalForm:
    """The canonical form over a field by reducing every degree over it."""
    per_degree = {k: _reduce_degree(c.columns(k), field)[:3] for k in c.degrees()}
    return _label(c, _assemble(c, per_degree, field))


@memoized
def reduce_integer(c: FilteredComplex) -> IntegerReductionOutcome:
    """Greedy unit-pivot reduction over Z.

    Certified means a value-order triangular basis change with +-1 diagonal
    brings the boundary to normal form; the pairing then agrees with the
    rational one. Obstructed returns the first non-unit pivot as a
    witness and claims nothing else. The outcome is memoized like
    :func:`reduce`, and only labels :func:`_integer_outcome` with c's points.
    """
    outcome = _integer_outcome(c)
    if isinstance(outcome, CanonicalForm):
        return Certified(form=_label(c, outcome))
    k, j, pivot = outcome
    return Obstructed(column=c.points(k)[j], pivot=pivot)


@memoized(value_free=True)
def _integer_outcome(c: FilteredComplex):
    """The value-free part of :func:`reduce_integer`: the verified integer
    form of :func:`_assemble`, or ``(degree, position, pivot)`` of the first
    non-unit pivot."""
    per_degree = {}
    for k in c.degrees():
        pairs, C, R, first = _integer_reduction(c, k)
        if first is not None:
            return k, *first
        per_degree[k] = pairs, C, R
    return _assemble(c, per_degree, INTEGERS)


def free_points(c: FilteredComplex, field: Coefficients) -> tuple[CriticalPoint, ...]:
    """The free points of the canonical form of c over a field.

    A certified complex has the same pairing over every field, so its free
    points are read off the integer form, already verified over Z, and no
    field form is built. An obstructed complex is reduced over the field by
    :func:`reduce`, and that form is verified as always.
    """
    if field.is_integers:
        raise ValueError("use reduce_integer for integer coefficients")
    outcome = reduce_integer(c)
    if isinstance(outcome, Certified):
        return outcome.form.free
    return reduce(c, field).free


def betti(c: FilteredComplex, field: Coefficients, k: int) -> int:
    """Number of free points of degree k, i.e. the field Betti number, read
    off :func:`free_points`: the integer form's on a certified complex."""
    return sum(p.degree == k for p in free_points(c, field))
