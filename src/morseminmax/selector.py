"""Minmax and maxmin critical-value selectors over every coefficient system.

Over a field the two selectors agree and sit at the unique free critical
point of the global-index degree. The free points come from
``barannikov.free_points``: on a certified complex they are the integer
form's, which hold over every field, so no field form is built; an
obstructed complex is reduced over each field. Over the integers the
minmax is the first filtration level whose prefix carries an integer cycle
generating the global rank-one homology. It is read off two integer column
reductions: the memoized one of the boundary into the global degree that
certifies the complex, whose zeroed columns are an echelon cycle basis, and
one of the boundaries out of it written in that basis. The maxmin is always
evaluated through the negated complex, so minmax and maxmin can genuinely
differ over the integers.
"""

from __future__ import annotations

from dataclasses import dataclass
from fractions import Fraction

from .barannikov import (Certified, _integer_reduction, _reduce_degree, free_points,
                         reduce_integer)
from .coeff import INTEGERS, Coefficients, back_substitute
from .complexes import CriticalPoint, FilteredComplex, global_index, memoized, negate
from .errors import InternalInconsistencyError

Selected = tuple[Fraction, CriticalPoint]


def minmax_field(c: FilteredComplex, field: Coefficients) -> Selected:
    """Value and identity of the unique free critical point in the global degree."""
    if not field.is_field:
        raise ValueError("minmax_field needs Q or a prime field")
    return _minmax_field_at(c, field, global_index(c))


@memoized
def _minmax_field_at(c: FilteredComplex, field: Coefficients, lam: int) -> Selected:
    frees = [p for p in free_points(c, field) if p.degree == lam]
    if len(frees) != 1:
        source = ("the integer certificate" if isinstance(reduce_integer(c), Certified)
                  else f"the {field.token()} reduction")
        raise InternalInconsistencyError(
            f"expected one free point of degree {lam} over {field.token()}, found "
            f"{[p.name for p in frees]} in the free set of {source}")
    return frees[0].value, frees[0]


def _negated_index(c: FilteredComplex) -> int:
    """Global index of ``negate(c)``, read off c's own homology.

    The boundary matrices of the negated complex are the anti-transposes of
    c's, with the same ranks and invariant factors, so it is admissible
    exactly when c is, with global index ``ambient - global_index(c)``.
    """
    return c.ambient_dim - global_index(c)


def maxmin_field(c: FilteredComplex, field: Coefficients) -> Selected:
    """Field maxmin through the negated complex; must equal the minmax."""
    direct = minmax_field(c, field)
    value, point = _minmax_field_at(negate(c), field, _negated_index(c))
    result = (-value, c.point(point.name))
    if result != direct:
        raise InternalInconsistencyError(
            f"field maxmin {result[1].name} differs from minmax {direct[1].name}")
    return result


def minmax_int(c: FilteredComplex) -> Selected:
    """Smallest critical value whose prefix carries an integer cycle that
    generates the global homology; the witness is the point at that value.

    The first s points of degree lambda do so exactly when their integer
    cycles Z_s and the boundaries B span all integer cycles Z. The integer
    reduction of the degree-lambda boundary leaves an echelon cycle basis,
    whose vectors ending below s span Z_s. With the boundaries written in
    that basis and reduced the same way, Z_s + B = Z exactly when every
    basis index from s on is a +-1 pivot, so the witness is the largest
    index that is not.
    """
    return _minmax_int_at(c, global_index(c))


def _minmax_int_at(c: FilteredComplex, lam: int) -> Selected:
    point = c.points(lam)[_minmax_int_index(c, lam)]
    return point.value, point


@memoized(value_free=True)
def _minmax_int_index(c: FilteredComplex, lam: int) -> int:
    """Position of the integer minmax witness among the degree-lam points."""
    _, H, R, _ = _integer_reduction(c, lam)
    cycles = {j: H[j] for j, col in enumerate(R) if not col}  # H[j] ends at j
    Y = []
    for p, terms in zip(c.points(lam + 1), c.columns(lam + 1)):
        rest = dict(terms)
        Y.append(back_substitute(rest, cycles))
        if rest:
            raise InternalInconsistencyError(
                f"boundary of {p.name} (degree {lam + 1}) outside the cycle lattice")
    pairs, _, RY, _ = _reduce_degree(Y, INTEGERS)
    if len(pairs) != len(cycles) - 1:
        raise InternalInconsistencyError(
            f"cycle/boundary presentation has rank {len(cycles) - len(pairs)}, not one")
    units = {m for j, m in pairs.items() if RY[j][m] in (1, -1)}
    return max(cycles.keys() - units)


def maxmin_int(c: FilteredComplex) -> Selected:
    """Integer maxmin through the negated complex."""
    value, point = _minmax_int_at(negate(c), _negated_index(c))
    return -value, c.point(point.name)


@dataclass(frozen=True)
class SelectorEntry:
    coeff: Coefficients
    minmax_value: Fraction
    minmax_point: CriticalPoint
    maxmin_value: Fraction
    maxmin_point: CriticalPoint

    @property
    def equal(self) -> bool:
        return self.minmax_value == self.maxmin_value


@dataclass(frozen=True)
class SelectorReport:
    """Selector values per requested coefficient system plus consistency flags.

    ``chain_ok`` states maxmin(Z) <= maxmin(field) = minmax(field) <= minmax(Z)
    for every requested field; ``propagation_ok`` states that whenever the integer
    selectors agree, every field value equals them. The integer selectors are
    always evaluated for the flags, whether or not Z was requested.
    """

    entries: tuple[SelectorEntry, ...]
    int_equal: bool
    chain_ok: bool
    propagation_ok: bool

    def entry(self, token: str) -> SelectorEntry:
        for e in self.entries:
            if e.coeff.token() == token:
                return e
        raise KeyError(token)


def selector_report(c: FilteredComplex, coeffs) -> SelectorReport:
    """Evaluate all requested selectors and the cross-system consistency flags."""
    mm_v, mm_p = minmax_int(c)
    sm_v, sm_p = maxmin_int(c)
    entries = []
    seen = set()
    field_values = []
    for co in coeffs:
        if co.token() in seen:
            continue
        seen.add(co.token())
        if co.is_integers:
            entries.append(SelectorEntry(co, mm_v, mm_p, sm_v, sm_p))
        else:
            fv, fp = minmax_field(c, co)
            gv, gp = maxmin_field(c, co)
            entries.append(SelectorEntry(co, fv, fp, gv, gp))
            field_values.append(fv)
    int_equal = mm_v == sm_v
    chain_ok = all(sm_v <= fv <= mm_v for fv in field_values)
    propagation_ok = (not int_equal) or all(fv == mm_v for fv in field_values)
    return SelectorReport(entries=tuple(entries), int_equal=int_equal,
                          chain_ok=chain_ok, propagation_ok=propagation_ok)


def _incident(c: FilteredComplex, p: CriticalPoint) -> list[CriticalPoint]:
    """Points one degree away linked to p by a nonzero boundary coefficient:
    its boundary, and its coboundary, which is its boundary in the negated
    complex."""
    return [c.point(q.name) for cx in (c, negate(c)) for _, q in cx.boundary_chain(p.name)]


def capitanio_criterion(c: FilteredComplex, point) -> bool:
    """Incidence-gap test: every neighbor of p admits a strictly closer
    incident point. Passing does not imply freeness; the capitanio_vprime
    fixture has a point that passes without being free. Vacuously true for
    points with no incidences."""
    p = c.point(point if isinstance(point, str) else point.name)
    for eta in _incident(c, p):
        gap = abs(p.value - eta.value)
        others = (xi for xi in _incident(c, eta) if xi.name != p.name)
        if not any(abs(xi.value - eta.value) < gap for xi in others):
            return False
    return True
