"""Exact checks that read no critical value: a complex's structure and a
canonical form D_k P_k = P_{k-1} B_k.

:func:`_structural_defects` locates a complex's structural defects, which
``complexes._violations`` words. ``barannikov`` checks every form it builds
with :func:`_verify_normal_form`: the integer form, the derived F_p forms of
a certified complex and the field forms of an obstructed one. The check
reads only the form's ring, basis and normal form and the complex's
boundary columns.
"""

from __future__ import annotations

from typing import TYPE_CHECKING

from .coeff import sparse_product_columns
from .complexes import FilteredComplex, memoized
from .errors import InternalInconsistencyError

if TYPE_CHECKING:
    from .barannikov import CanonicalForm


@memoized(value_free=True)
def _structural_defects(c: FilteredComplex):
    """Every structural defect, located from names, degrees, ranks and
    columns alone: the names of the points of a degree outside 0..ambient
    and the name pairs of one value, both in value order; ``(degree, column,
    row)`` of each term that does not point down in value; the degrees k + 1
    from which d∘d is nonzero. Memoized in the shared store."""
    degrees = c.degrees()
    out = [k for k in degrees if not 0 <= k <= c.ambient_dim]
    order = ()  # the points by (rank, name), sorted only when a degree or a rank fails
    if out or len(set().union(*map(c.ranks, degrees))) < c.n_points:
        order = sorted((r, p.name, k) for k in degrees
                       for r, p in zip(c.ranks(k), c.points(k)))
    bad = tuple(name for _, name, k in order if k in out)
    ties = tuple((a, b) for (ra, a, _), (rb, b, _) in zip(order, order[1:]) if ra == rb)
    # rows ascend along a column and ranks never fall along a degree, so a
    # column's terms can fail only when its last row, its highest-ranked target, does
    ascents = tuple((k, j, row) for k in degrees for lower in (c.ranks(k - 1),)
                    for j, (rank, col) in enumerate(zip(c.ranks(k), c.columns(k)))
                    if col and rank <= lower[col[-1][0]]
                    for row, _ in col if rank <= lower[row])
    dd = tuple(k + 1 for k in degrees if c.ranks(k - 1) and c.ranks(k + 1)
               and any(sparse_product_columns(c.columns(k), c.columns(k + 1))))
    return bad, ties, ascents, dd


def _verify_normal_form(c: FilteredComplex, form: CanonicalForm) -> None:
    """Check D_k P_k = P_{k-1} B_k exactly (equivalent to B = P^{-1} D P).

    Each column j of each degree k, in order, is checked in one sparse
    accumulator. It starts as P_{k-1} B_k[:, j]: a copy of the stored column
    ``basis[k-1][m]`` when that column of B_k is ``((m, 1),)``, a term by
    term sum otherwise. D_k P_k[:, j] is subtracted from it in place, and
    every entry must vanish (mod p over F_p). Entry i of the difference is
    nonzero exactly when the two product columns differ at row i, so a
    failure names the least such row, as comparing the columns would. A
    form that names a row outside its matrix fails with that index.
    """
    p = form.coeff.p

    def failure(k, j, detail):
        return InternalInconsistencyError(
            f"normal form verification failed over {form.coeff.token()} "
            f"at degree {k}: {detail}, column {j} ({c.points(k)[j].name})")

    for k in form.normal:
        lower, D, Plow = c.points(k - 1), c.columns(k), form.basis.get(k - 1, ())
        for j, (col, terms) in enumerate(zip(form.basis[k], form.normal[k])):
            if len(terms) == 1 and terms[0][1] == 1 and 0 <= terms[0][0] < len(Plow):
                acc = dict(Plow[terms[0][0]])
            else:
                acc = {}
                for m, b in terms:
                    if not 0 <= m < len(Plow):
                        raise failure(k, j, f"row {m} of B_{k} is outside range({len(Plow)})")
                    for i, a in Plow[m].items():
                        acc[i] = acc.get(i, 0) + a * b
            for t, v in col.items():
                if not 0 <= t < len(D):
                    raise failure(k, j, f"row {t} of P_{k} is outside range({len(D)})")
                for i, d in D[t]:
                    acc[i] = acc.get(i, 0) - d * v
            if any(acc.values()) if p is None else any(x % p for x in acc.values()):
                i = min(i for i, x in acc.items() if (x % p if p else x))
                if not 0 <= i < len(lower):
                    raise failure(k, j, f"row {i} of P_{k - 1} is outside range({len(lower)})")
                raise failure(k, j, f"row {i} ({lower[i].name})")
