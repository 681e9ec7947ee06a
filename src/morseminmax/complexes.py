"""Filtered Morse complexes: data model, file format, structural operations.

A complex is a set of named critical points graded by degree, each carrying an
exact rational critical value, together with integer boundary operators. The
boundary of degree k has one row per degree-(k-1) point and one column per
degree-k point, both sorted by ascending critical value. It is stored as
sparse columns, the nonzero ``(row, coeff)`` entries of each column with rows
ascending, and the dense row-major matrix is a view derived from it on demand.
``FilteredComplex.build`` is the entry for name-keyed input. It and
``parse_complex`` hand checked input to one assembly, the only code that
compares critical values: it gives each point an integer rank, which orders
and ties as the values do. The constructor takes the stored form, ranks
included, so an operation derives a complex from one already built and every
later order test compares ranks. Nonzero entries must point strictly downward
in value, values must be pairwise distinct, and d∘d must vanish.

Results computed from a complex are memoized on it by :func:`memoized`, the
only code that touches its two stores. The per-complex store holds results
that may read critical values. The shared store holds value-free results,
those that read no ``.value``: it is shared by every complex whose stored
form differs only in its critical values (same ambient, names, degrees,
ranks and columns), which :meth:`FilteredComplex._revalued` and
:func:`negate` make. Every other operation, ``build`` and ``parse_complex``
included, gives its result fresh stores. The contract: keys never collide
across modules, a stored value is shared and must not be modified, a
value-free result reads no ``.value`` and holds no point, and a call that
raises stores nothing.
"""

from __future__ import annotations

import functools
from collections import defaultdict
from dataclasses import dataclass
from fractions import Fraction
from typing import Iterable, Mapping

from .coeff import back_substitute, sparse_columns, sparse_product_columns
from .errors import (
    EndpointCriticalError,
    InternalInconsistencyError,
    InvalidComplexError,
    NonTriangularError,
    NonUnitDiagonalError,
    NotAdmissibleError,
)
# parse_value is part of this module's interface
from .grammar import NAME_RE, parse_value, read_complex

_MISSING = object()


def memoized(fn=None, *, value_free=False):
    """Memoize ``fn(c, *args)`` on the complex ``c`` under the contract above,
    in its shared store when ``value_free``, else in its own.

    The key is ``fn``'s module-qualified name, fixed when ``fn`` is
    decorated, followed by the hashable ``args``. Two threads may compute
    the same entry twice, never a wrong one.
    """
    if fn is None:
        return functools.partial(memoized, value_free=value_free)
    name = f"{fn.__module__}.{fn.__qualname__}"
    store = "_frame" if value_free else "_cache"

    @functools.wraps(fn)
    def wrapper(c, *args):
        key, cache = (name, *args), getattr(c, store)
        value = cache.get(key, _MISSING)
        if value is _MISSING:
            value = cache[key] = fn(c, *args)
        return value

    return wrapper


def _integer(x) -> int | None:
    """``x`` as an int when it is an integral number, else None."""
    try:
        f = x if type(x) is int else Fraction(x)
    except (TypeError, ValueError, ArithmeticError):
        return None
    return int(f) if f.denominator == 1 else None


@dataclass(frozen=True, slots=True)
class CriticalPoint:
    name: str
    degree: int
    value: Fraction


@dataclass(frozen=True)
class Violation:
    code: str
    detail: str


@dataclass(frozen=True)
class ValidationReport:
    """Structural findings plus a separate selector-admissibility verdict."""

    ok: bool
    violations: tuple[Violation, ...]
    admissible: bool
    admissibility_findings: tuple[Violation, ...]

    def describe(self) -> list[str]:
        lines = [f"violation code={v.code} detail={v.detail}" for v in self.violations]
        lines += [f"admissibility code={v.code} detail={v.detail}"
                  for v in self.admissibility_findings]
        return lines


class FilteredComplex:
    """Immutable-by-convention filtered Morse complex.

    Name-keyed input goes through :meth:`build`; the constructor takes the
    stored form unchecked. Every operation returns a new complex.
    The boundary of degree k is stored as :meth:`columns`, one tuple of
    nonzero ``(row, coeff)`` entries per degree-k point in value order, rows
    ascending, beside their :meth:`ranks`. :meth:`matrix` is a dense view of
    the columns, built on first use.
    """

    __slots__ = ("ambient_dim", "_points", "_columns", "_ranks", "_by_name", "_cache", "_frame")

    def __init__(self, ambient_dim, points_by_degree, columns, ranks, frame=None):
        """``points_by_degree`` maps each degree that has points to its
        points sorted by (value, name); ``columns`` and ``ranks`` map the
        same degrees to one entry per point, as their accessors return it.
        ``frame`` is the shared store, a fresh one by default."""
        self.ambient_dim = ambient_dim
        self._points = points_by_degree
        self._columns = columns
        self._ranks = ranks
        self._by_name = {p.name: p for pts in points_by_degree.values() for p in pts}
        self._cache = {}
        self._frame = {} if frame is None else frame

    @classmethod
    def build(cls, ambient_dim: int,
              points: Iterable[tuple[str, int, object]],
              boundaries: Mapping[str, Mapping[str, int]] | None = None,
              ) -> "FilteredComplex":
        """Assemble a complex from name-keyed input: point triples and a
        sparse boundary map.

        ``points`` yields ``(name, degree, value)`` triples; ``boundaries``
        maps a point name to its boundary chain as ``{target_name:
        coefficient}``. An integral ambient dimension or degree is stored as
        an int. Structural errors (any other one, bad names, duplicate names,
        degree-incompatible boundary targets) raise ValueError; the semantic
        invariants are checked by :func:`validate`.
        """
        ambient_dim = _integer(ambient_dim)
        if ambient_dim is None or ambient_dim < 1:
            raise ValueError("ambient dimension must be a positive integer")
        keyed = []  # (floor of value, value, name, degree) per point
        for name, degree, value in points:
            if not NAME_RE.match(name):
                raise ValueError(f"bad point name {name!r}")
            if (degree := _integer(degree)) is None:
                raise ValueError(f"degree of point {name!r} is not an integer")
            value = value if type(value) is Fraction else Fraction(value)
            keyed.append((value.numerator // value.denominator, value, name, degree))
        by_name = {key[2]: key for key in keyed}  # the last point of each name
        if len(by_name) != len(keyed):
            dup = next(key[2] for key in keyed if by_name[key[2]] is not key)
            raise ValueError(f"duplicate point name {dup!r}")
        chains = {}
        for src, chain in (boundaries or {}).items():
            if src not in by_name:
                raise ValueError(f"unknown point name {src!r} in boundary")
            k = by_name[src][3]
            terms = chains[src] = {}
            for tgt, coeff in chain.items():
                if tgt not in by_name:
                    raise ValueError(f"unknown point name {tgt!r} in boundary of {src!r}")
                if coeff := int(coeff):  # a zero term is dropped, whatever its degree
                    if by_name[tgt][3] != k - 1:
                        raise ValueError(f"boundary of {src!r} (degree {k}) hits {tgt!r} "
                                         f"of degree {by_name[tgt][3]}")
                    terms[tgt] = coeff
        return cls._assemble(ambient_dim, keyed, chains)

    @classmethod
    def _assemble(cls, ambient_dim, keyed, chains):
        """The stored form of checked input, as :meth:`build` and
        :func:`grammar.read_complex` make it: per point, (floor of value,
        value, name, degree), names distinct, and per point with a boundary,
        its ``{target: coefficient}`` chain, the targets one degree lower and
        the coefficients nonzero ints. Sorts ``keyed`` in place."""
        # The one comparison of values, exact and integers first: two Fractions
        # are compared only when their floors are equal. A rank counts the
        # points of lower value.
        keyed.sort()
        ranks, points = defaultdict(list), defaultdict(list)  # per degree, in value order
        floor = value = None
        for i, (f, v, name, degree) in enumerate(keyed):
            if f != floor or v != value:
                rank, floor, value = i, f, v
            ranks[degree].append(rank)
            points[degree].append(CriticalPoint(name, degree, v))
        # a target's row is its position in its degree
        row = {p.name: i for v in points.values() for i, p in enumerate(v)}.__getitem__
        columns = {k: tuple(tuple(sorted(zip(map(row, ch), ch.values())))
                            if (ch := chains.get(p.name)) else () for p in v)
                   for k, v in points.items()}
        return cls(ambient_dim, {k: tuple(v) for k, v in points.items()}, columns,
                   {k: tuple(v) for k, v in ranks.items()})

    # -- accessors ----------------------------------------------------------

    def degrees(self) -> list[int]:
        return sorted(self._points)

    def points(self, degree: int) -> tuple[CriticalPoint, ...]:
        return self._points.get(degree, ())

    def columns(self, degree: int) -> tuple[tuple[tuple[int, int], ...], ...]:
        """Boundary from degree ``degree`` into ``degree - 1`` as sparse columns:
        per degree-``degree`` point, its nonzero ``(row, coeff)`` entries, rows
        ascending. Empty for a degree with no points."""
        return self._columns.get(degree, ())

    def ranks(self, degree: int) -> tuple[int, ...]:
        """Per point of :meth:`points`, an int that orders and ties as the values do."""
        return self._ranks.get(degree, ())

    @memoized
    def matrix(self, degree: int) -> tuple[tuple[int, ...], ...]:
        """Dense row-major view of :meth:`columns`, one row per degree
        ``degree - 1`` point; built on first use and memoized."""
        rows = [[0] * len(self.points(degree)) for _ in self.points(degree - 1)]
        for j, col in enumerate(self.columns(degree)):
            for i, v in col:
                rows[i][j] = v
        return tuple(map(tuple, rows))

    def point(self, name: str) -> CriticalPoint:
        try:
            return self._by_name[name]
        except KeyError:
            raise ValueError(f"unknown point {name!r}") from None

    def all_points(self) -> list[CriticalPoint]:
        """Every point, sorted by ascending critical value (filtration order).

        The order is computed once per complex; each call returns a new list.
        """
        return list(self._value_order())

    @memoized
    def _value_order(self) -> tuple[CriticalPoint, ...]:
        """All points by (rank, name): int and str comparisons."""
        return tuple(p for *_, p in sorted((r, p.name, p) for k, pts in self._points.items()
                                           for r, p in zip(self._ranks[k], pts)))

    def _revalued(self, points_by_degree) -> "FilteredComplex":
        """This complex with new points, of the same names in the same order,
        whose values order and tie as the old ones do; it shares this
        complex's stored form and shared store."""
        return FilteredComplex(self.ambient_dim, points_by_degree, self._columns, self._ranks,
                               self._frame)

    @property
    def n_points(self) -> int:
        return len(self._by_name)

    def boundary_chain(self, name: str) -> list[tuple[int, CriticalPoint]]:
        p = self.point(name)
        lower, pts = self.points(p.degree - 1), self.points(p.degree)
        return [(v, lower[row]) for row, v in self._columns[p.degree][pts.index(p)]]

    def __eq__(self, other):
        if not isinstance(other, FilteredComplex):
            return NotImplemented
        return (self.ambient_dim == other.ambient_dim
                and self._points == other._points
                and self._columns == other._columns)

    @memoized
    def __hash__(self):
        """Hash of the canonical serialization, which equal complexes share."""
        return hash(serialize(self))

    def __repr__(self):
        return f"FilteredComplex(ambient={self.ambient_dim}, points={self.n_points})"


# ---------------------------------------------------------------------------
# file format

def serialize(c: FilteredComplex) -> str:
    """Canonical text form: points by (degree, value), terms by target value."""
    lines = [f"ambient {c.ambient_dim}"]
    for k in c.degrees():
        for p in c.points(k):
            lines.append(f"point {p.name} {p.degree} {p.value}")
    for k in c.degrees():
        lower = c.points(k - 1)
        for p, col in zip(c.points(k), c.columns(k)):
            if col:
                lines.append(f"boundary {p.name} : "
                             + " ".join(f"{v}*{lower[row].name}" for row, v in col))
    return "\n".join(lines) + "\n"


def parse_complex(data: bytes | str, *, check: bool = True) -> FilteredComplex:
    """Parse the line-oriented complex format; see :func:`serialize` and
    :mod:`grammar`.

    Raises ParseError (with line/column) on malformed input. With ``check``
    (the default) the structure of the parsed complex is checked and
    InvalidComplexError, carrying the :func:`validate` report, is raised
    when any complex invariant fails; admissibility is not computed.
    """
    c = FilteredComplex._assemble(*read_complex(data))
    if check and _violations(c):
        raise InvalidComplexError(validate(c))
    return c


# ---------------------------------------------------------------------------
# validation and admissibility

@memoized(value_free=True)
def _homology_data(c: FilteredComplex):
    """Per-degree rational ranks and integer torsion divisors, memoized.

    Both come from the memoized integer reduction of each degree: the rank
    of D_k is its pivot count, and the torsion in degree k is the invariant
    factors above 1 of D_{k+1}. Only the small residue of its non-unit
    pivots takes a Smith form, so a certified complex takes none; its
    normal form is still verified, since ``_integer_outcome`` runs first.
    """
    # barannikov imports this module, so the reductions are imported here
    from .barannikov import _integer_outcome, _integer_reduction, _invariant_factors
    _integer_outcome(c)
    factors = {k: _invariant_factors(_integer_reduction(c, k)) for k in c.degrees()}
    ranks = {k: len(c.points(k)) - len(f) - len(factors.get(k + 1, ()))
             for k, f in factors.items()}
    torsion = {k: tuple(d for d in factors.get(k + 1, ()) if d > 1) for k in c.degrees()}
    return ranks, torsion


@memoized(value_free=True)
def _admissibility(c: FilteredComplex):
    """Return (global index or None, findings) for a structurally valid complex."""
    ranks, torsion = _homology_data(c)
    findings = []
    ones = [k for k, r in ranks.items() if r == 1]
    bad = {k: r for k, r in ranks.items() if r not in (0, 1)}
    if len(ones) != 1 or bad:
        profile = ", ".join(f"H{k}={r}" for k, r in sorted(ranks.items()) if r != 0)
        findings.append(Violation("homology_rank_defect",
                                  f"rational homology ranks [{profile or 'all zero'}]"))
    torsion_degs = {k: t for k, t in torsion.items() if t}
    if torsion_degs:
        detail = ", ".join(f"H{k}~{list(t)}" for k, t in sorted(torsion_degs.items()))
        findings.append(Violation("torsion", f"integral torsion [{detail}]"))
    lam = None if findings else ones[0]
    return lam, tuple(findings)


@memoized
def _violations(c: FilteredComplex) -> tuple[Violation, ...]:
    """Structural findings (degree, distinct values, ascent, d∘d), memoized.

    The value-free ``certify._structural_defects`` locates every defect;
    this only words them, naming c's own points and values.
    """
    # certify imports this module, so the check is imported here
    from .certify import _structural_defects
    bad, ties, ascents, dd = _structural_defects(c)
    point = c.point
    violations = [Violation("bad_degree", f"{name} has degree {point(name).degree}, "
                                          f"ambient {c.ambient_dim}") for name in bad]
    violations += [Violation("duplicate_value", f"{a} and {b} share value {point(a).value}")
                   for a, b in ties]
    violations += [Violation("ascent_violation", f"boundary of {p.name} (value {p.value}) hits "
                                                 f"{q.name} (value {q.value})")
                   for k, j, row in ascents for p, q in ((c.points(k)[j], c.points(k - 1)[row]),)]
    violations += [Violation("dd_nonzero", f"boundary squared is nonzero from degree {k}")
                   for k in dd]
    return tuple(violations)


def validate(c: FilteredComplex) -> ValidationReport:
    """Report every violated complex invariant plus selector admissibility."""
    violations = _violations(c)
    ok = not violations
    if ok:
        lam, findings = _admissibility(c)
        admissible = lam is not None
    else:
        findings = (Violation("not_evaluated", "admissibility skipped: complex invalid"),)
        admissible = False
    return ValidationReport(ok=ok, violations=violations, admissible=admissible,
                            admissibility_findings=findings)


def global_index(c: FilteredComplex) -> int:
    """The unique degree carrying a rank-one, torsion-free total homology.

    Raises InvalidComplexError when a complex invariant fails, and
    NotAdmissibleError when rational homology is not rank-one concentrated
    or integral homology has torsion.
    """
    if _violations(c):
        raise InvalidComplexError(validate(c))
    lam, findings = _admissibility(c)
    if lam is None:
        detail = "; ".join(f"{f.code}: {f.detail}" for f in findings)
        raise NotAdmissibleError(detail or "homology is not rank-one concentrated")
    return lam


# ---------------------------------------------------------------------------
# structural operations

@memoized
def negate(c: FilteredComplex) -> FilteredComplex:
    """The complex of the negated function: degree k -> ambient - k, value -> -value.

    Boundary matrices of the result are the anti-transposes of the originals
    (transpose with both row and column order reversed); points of tied value
    keep their name order, and rank r becomes ``n_points - 1 - r``. The result
    is memoized on the (immutable) input. Only its points are made here; the
    rest comes from :func:`_negated_frame`, so the negations of complexes that
    share a store share theirs, while ``negate(negate(c))`` has a fresh one.
    """
    n = c.ambient_dim
    order, *frame = _negated_frame(c)
    points = {n - k: tuple(CriticalPoint(pts[i].name, n - k, -pts[i].value) for i in pos)
              for k, pos in order.items() for pts in (c.points(k),)}
    return FilteredComplex(n, points, *frame)


@memoized(value_free=True)
def _negated_frame(c: FilteredComplex):
    """The point order, columns, ranks and shared store of :func:`negate`'s
    result: per degree, c's positions by descending rank, ties in name
    order; the anti-transposed columns and the ranks ``n_points - 1 - r`` in
    that order; and a fresh store."""
    n, top = c.ambient_dim, c.n_points - 1
    # reverse=True keeps the sort stable, so tied values stay in name order
    order = {k: tuple(sorted(range(len(rk)), key=rk.__getitem__, reverse=True))
             for k in c.degrees() for rk in (c.ranks(k),)}
    ranks, columns = {}, {}
    for k, pos in order.items():
        rk, D, cols = c.ranks(k), c.columns(k + 1), [[] for _ in pos]
        ranks[n - k] = tuple(top - rk[i] for i in pos)
        # row m of D_{k+1} is column m of the anti-transpose, filled in the
        # order of degree k + 1, so its rows ascend
        for t, j in enumerate(order.get(k + 1, ())):
            for m, v in D[j]:
                cols[m].append((t, v))
        columns[n - k] = tuple(tuple(cols[m]) for m in pos)
    return order, columns, ranks, {}


def restrict(c: FilteredComplex, lo, hi) -> FilteredComplex:
    """Keep the open value window (lo, hi); both endpoints must be regular."""
    lo, hi = Fraction(lo), Fraction(hi)
    if not lo < hi:
        raise ValueError(f"empty window {lo}:{hi}")
    for p in c.all_points():
        if p.value == lo or p.value == hi:
            raise EndpointCriticalError(
                f"window endpoint {p.value} is the critical value of {p.name}")
    points, ranks, columns, span = {}, {}, {}, {}
    # each degree is in value order, so the window keeps a slice [a, b) of it;
    # degrees ascend, so the slice of the rows, span[k - 1], is already known
    for k in c.degrees():
        pts = c.points(k)
        a, b = span[k] = sum(p.value < lo for p in pts), sum(p.value < hi for p in pts)
        if a < b:
            first, end = span.get(k - 1, (0, 0))
            points[k], ranks[k] = pts[a:b], c.ranks(k)[a:b]
            columns[k] = tuple(tuple((m - first, v) for m, v in col if first <= m < end)
                               for col in c.columns(k)[a:b])
    return FilteredComplex(c.ambient_dim, points, columns, ranks)


def change_basis(c: FilteredComplex, transforms: Mapping[int, Iterable[Iterable[int]]],
                 ) -> FilteredComplex:
    """Conjugate the boundary operator by per-degree triangular basis changes.

    Each transform column l may combine only points of value at most that of
    point l (upper-triangular in the value ordering) and must carry a +-1
    diagonal so that the inverse stays integral. Missing degrees default to
    the identity. Point names and values are unchanged; the descending-value
    rule is preserved automatically by triangularity.
    """
    mats: dict[int, list[list[int]]] = {}
    for k, P in transforms.items():
        rows = [list(r) for r in P]
        mk = len(c.points(k))
        if len(rows) != mk or any(len(r) != mk for r in rows):
            raise ValueError(f"transform for degree {k} is not {mk}x{mk}")
        for i, row in enumerate(rows):
            for j, v in enumerate(row):
                if type(v) is not int:
                    row[j] = _integer(v)
                    if row[j] is None:
                        raise NonUnitDiagonalError(
                            f"degree {k} transform has non-integer entry {v} at ({i},{j})")
                if row[j] != 0 and i > j:
                    raise NonTriangularError(
                        f"degree {k} transform mixes higher-value point into column {j}")
        for i in range(mk):
            if rows[i][i] not in (1, -1):
                raise NonUnitDiagonalError(
                    f"degree {k} transform has diagonal {rows[i][i]} at index {i}")
        mats[k] = rows
    for k in mats:
        if not c.points(k):
            raise ValueError(f"transform given for empty degree {k}")
    return _conjugate(c, {k: sparse_columns(rows, len(rows)) for k, rows in mats.items()})


def _conjugate(c: FilteredComplex, transforms) -> FilteredComplex:
    """c with each D_k replaced by P_{k-1}^{-1} D_k P_k, where ``transforms``
    maps a degree k to the sparse ``(row, value)`` columns of a value-order
    upper-triangular P_k with a +-1 diagonal, and P_k is the identity where
    it maps no k. :func:`change_basis` checks its input and calls this."""
    def P_cols(k):  # sparse columns of P_k
        n = len(c.points(k))
        return transforms[k] if k in transforms else [((j, 1),) for j in range(n)]

    # D_k P_k column by column, then back-substitution against P_{k-1},
    # whose +-1 diagonal keeps every quotient an exact integer
    columns = {k: c.columns(k) for k in c.degrees()}
    for k in c.degrees():
        lower = c.points(k - 1)
        if not lower:
            continue
        Plow = {row: dict(terms) for row, terms in enumerate(P_cols(k - 1))}
        right = sparse_product_columns(c.columns(k), P_cols(k))
        out = []
        for col, (p, rest) in enumerate(zip(c.points(k), right)):
            chain = back_substitute(rest, Plow)
            if rest:
                row = max(rest)
                raise InternalInconsistencyError(
                    f"degree {k} basis change leaves remainder {rest[row]} "
                    f"at row {row} ({lower[row].name}), column {col} ({p.name})")
            out.append(tuple(sorted(chain.items())))
        columns[k] = tuple(out)
    return FilteredComplex(c.ambient_dim, c._points, columns, c._ranks)
