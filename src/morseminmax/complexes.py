"""Filtered Morse complexes: data model, file format, structural operations.

A complex is a set of named critical points graded by degree, each carrying an
exact rational critical value, together with integer boundary operators. The
boundary of degree k has one row per degree-(k-1) point and one column per
degree-k point, both sorted by ascending critical value. It is stored as
sparse columns, the nonzero ``(row, coeff)`` entries of each column with rows
ascending, and the dense row-major matrix is a view derived from it on demand.
``FilteredComplex.build`` is the entry for name-keyed input; the constructor
takes the stored form, so an operation derives a complex from the columns of
one already built. Nonzero entries must point strictly downward in value, all
critical values must be pairwise distinct, and consecutive boundary operators
must compose to zero.

Results computed from a complex are memoized on it by :func:`memoized`, the
only code that touches the per-complex store. The contract: keys never
collide across modules, a stored value is shared and must not be modified,
and a call that raises stores nothing.
"""

from __future__ import annotations

import functools
import re
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
    ParseError,
)

_NAME_RE = re.compile(r"[A-Za-z0-9_]+\Z")
_MISSING = object()


def memoized(fn):
    """Memoize ``fn(c, *args)`` on the complex ``c`` under the contract above.

    The key is ``fn``'s module-qualified name, fixed when ``fn`` is
    decorated, followed by the hashable ``args``. Two threads may compute
    the same entry twice, never a wrong one.
    """
    name = f"{fn.__module__}.{fn.__qualname__}"

    @functools.wraps(fn)
    def wrapper(c, *args):
        key = (name, *args)
        value = c._cache.get(key, _MISSING)
        if value is _MISSING:
            value = c._cache[key] = fn(c, *args)
        return value

    return wrapper


@dataclass(frozen=True)
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
    ascending. :meth:`matrix` is a dense view of it, built on first use.
    """

    __slots__ = ("ambient_dim", "_points", "_columns", "_by_name", "_position", "_cache")

    def __init__(self, ambient_dim, points_by_degree, columns):
        """``points_by_degree`` maps each degree that has points to its
        points sorted by (value, name); ``columns`` maps the same degrees to
        one column per point, as :meth:`columns` returns it."""
        self.ambient_dim = ambient_dim
        self._points = points_by_degree
        self._columns = columns
        self._by_name = {p.name: p for pts in points_by_degree.values() for p in pts}
        self._position = {p.name: i for pts in points_by_degree.values()
                          for i, p in enumerate(pts)}
        self._cache = {}

    @classmethod
    def build(cls, ambient_dim: int,
              points: Iterable[tuple[str, int, object]],
              boundaries: Mapping[str, Mapping[str, int]] | None = None,
              ) -> "FilteredComplex":
        """Assemble a complex from name-keyed input: point triples and a
        sparse boundary map.

        ``points`` yields ``(name, degree, value)`` triples; ``boundaries``
        maps a point name to its boundary chain as ``{target_name:
        coefficient}``. Structural errors (bad names, duplicate names,
        degree-incompatible boundary targets) raise ValueError; the semantic
        invariants are checked by :func:`validate`.
        """
        if int(ambient_dim) < 1:
            raise ValueError("ambient dimension must be a positive integer")
        pts = []
        for name, degree, value in points:
            if not _NAME_RE.match(name):
                raise ValueError(f"bad point name {name!r}")
            pts.append(CriticalPoint(name, int(degree), Fraction(value)))
        names = [p.name for p in pts]
        if len(set(names)) != len(names):
            dup = next(n for n in names if names.count(n) > 1)
            raise ValueError(f"duplicate point name {dup!r}")
        by_name = {p.name: p for p in pts}
        by_degree: dict[int, list[CriticalPoint]] = {}
        for p in pts:
            by_degree.setdefault(p.degree, []).append(p)
        points_by_degree = {
            k: tuple(sorted(v, key=lambda p: (p.value, p.name)))
            for k, v in by_degree.items()
        }
        position = {p.name: i for v in points_by_degree.values() for i, p in enumerate(v)}
        chains: dict[str, list[tuple[int, int]]] = {}
        for src, chain in (boundaries or {}).items():
            if src not in by_name:
                raise ValueError(f"unknown point name {src!r} in boundary")
            k = by_name[src].degree
            terms = chains[src] = []
            for tgt, coeff in chain.items():
                if tgt not in by_name:
                    raise ValueError(f"unknown point name {tgt!r} in boundary of {src!r}")
                coeff = int(coeff)
                if coeff == 0:
                    continue
                tk = by_name[tgt].degree
                if tk != k - 1:
                    raise ValueError(
                        f"boundary of {src!r} (degree {k}) hits {tgt!r} of degree {tk}")
                terms.append((position[tgt], coeff))
        columns = {k: tuple(tuple(sorted(chains.get(p.name, ()))) for p in v)
                   for k, v in points_by_degree.items()}
        return cls(ambient_dim, points_by_degree, columns)

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
        return tuple(sorted(self._by_name.values(), key=lambda p: (p.value, p.name)))

    @property
    def n_points(self) -> int:
        return len(self._by_name)

    def boundary_chain(self, name: str) -> list[tuple[int, CriticalPoint]]:
        k, col = self._index(name)
        lower = self.points(k - 1)
        return [(v, lower[row]) for row, v in self._columns[k][col]]

    def _index(self, name: str) -> tuple[int, int]:
        """Degree of the named point and its position in :meth:`points`."""
        return self.point(name).degree, self._position[name]

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
        return (f"FilteredComplex(ambient={self.ambient_dim}, "
                f"points={self.n_points})")


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


_NAT_RE = re.compile(r"[0-9]+\Z")
_INT_RE = re.compile(r"-?[0-9]+\Z")
_VALUE_RE = re.compile(r"(-?[0-9]+)(?:/([0-9]+))?\Z")
_TERM_RE = re.compile(r"(-?[0-9]+)\*([A-Za-z0-9_]+)\Z")


def _integer(tok: str) -> int:
    try:
        return int(tok)
    except ValueError:  # more digits than int() converts
        raise ValueError(f"number {tok[:12]}... is too long ({len(tok)} characters)",
                         tok) from None


def parse_value(tok: str) -> Fraction:
    """A value in the file grammar: an integer or ``p/q`` with q > 0, and no
    decimals or exponents. A ValueError's args are its message and the part
    of ``tok`` at fault."""
    m = _VALUE_RE.match(tok)
    denominator = _integer(m.group(2) or "1") if m else 0
    if denominator == 0:
        raise ValueError(f"bad critical value {tok!r}", tok)
    return Fraction(_integer(m.group(1)), denominator)


def _decode(data: bytes) -> str:
    """UTF-8 text of ``data``; a bad byte is a ParseError at its line and column."""
    try:
        return data.decode("utf-8")
    except UnicodeDecodeError as exc:
        # a stand-in character at the bad byte takes its line and column
        lines = (data[:exc.start].decode("utf-8") + "?").splitlines()
        raise ParseError(f"input is not UTF-8 ({exc.reason})",
                         len(lines), len(lines[-1])) from None


def parse_complex(data: bytes | str, *, check: bool = True) -> FilteredComplex:
    """Parse the line-oriented complex format; see :func:`serialize`.

    Raises ParseError (with line/column) on malformed input. With ``check``
    (the default) the parsed complex is validated and InvalidComplexError is
    raised when any complex invariant fails.
    """
    text = _decode(data) if isinstance(data, (bytes, bytearray)) else data
    ambient: int | None = None
    points: list[tuple[str, int, Fraction]] = []
    boundaries: dict[str, dict[str, int]] = {}
    declared: dict[str, int] = {}

    def err(msg, lineno, line, token=None):
        column = line.find(token) + 1 if token and token in line else 1
        raise ParseError(msg, lineno, column)

    def num(tok, lineno, line, read=_integer):
        try:
            return read(tok)
        except ValueError as exc:
            message, token = exc.args
            err(message, lineno, line, token)

    for lineno, raw in enumerate(text.splitlines(), start=1):
        line = raw.split("#", 1)[0].strip()
        if not line:
            continue
        fields = line.split()
        head = fields[0]
        if ambient is None:
            if head != "ambient" or len(fields) != 2:
                err("expected 'ambient <positive integer>' as the first line",
                    lineno, raw, head)
            ambient = num(fields[1], lineno, raw) if _NAT_RE.match(fields[1]) else 0
            if ambient < 1:
                err(f"ambient dimension must be a positive integer, got {fields[1]!r}",
                    lineno, raw, fields[1])
            continue
        if head == "ambient":
            err("duplicate ambient line", lineno, raw, head)
        elif head == "point":
            if len(fields) != 4:
                err("expected 'point <name> <degree> <value>'", lineno, raw, head)
            _, name, deg_tok, val_tok = fields
            if not _NAME_RE.match(name):
                err(f"bad point name {name!r}", lineno, raw, name)
            if name in declared:
                err(f"duplicate point name {name!r}", lineno, raw, name)
            if not _INT_RE.match(deg_tok):
                err(f"degree must be an integer, got {deg_tok!r}", lineno, raw, deg_tok)
            degree = num(deg_tok, lineno, raw)
            points.append((name, degree, num(val_tok, lineno, raw, parse_value)))
            declared[name] = degree
        elif head == "boundary":
            if len(fields) < 4 or fields[2] != ":":
                err("expected 'boundary <name> : <c>*<name> ...'", lineno, raw, head)
            name = fields[1]
            if name not in declared:
                err(f"unknown point name {name!r}", lineno, raw, name)
            if name in boundaries:
                err(f"duplicate boundary line for {name!r}", lineno, raw, name)
            chain: dict[str, int] = {}
            for tok in fields[3:]:
                m = _TERM_RE.match(tok)
                if not m:
                    if "*" in tok and not _INT_RE.match(tok.split("*", 1)[0]):
                        err(f"non-integer coefficient in {tok!r}", lineno, raw, tok)
                    err(f"bad boundary term {tok!r}", lineno, raw, tok)
                coeff, tgt = num(m.group(1), lineno, raw), m.group(2)
                if coeff == 0:
                    err(f"zero coefficient on {tgt!r}", lineno, raw, tok)
                if tgt not in declared:
                    err(f"unknown point name {tgt!r}", lineno, raw, tgt)
                if declared[tgt] != declared[name] - 1:
                    err(f"boundary of {name!r} hits {tgt!r} of degree "
                        f"{declared[tgt]}, expected {declared[name] - 1}",
                        lineno, raw, tgt)
                if tgt in chain:
                    err(f"duplicate boundary term for {tgt!r}", lineno, raw, tok)
                chain[tgt] = coeff
            boundaries[name] = chain
        else:
            err(f"unknown directive {head!r}", lineno, raw, head)
    if ambient is None:
        raise ParseError("missing 'ambient' line", 1, 1)
    c = FilteredComplex.build(ambient, points, boundaries)
    if check:
        report = validate(c)
        if not report.ok:
            raise InvalidComplexError(report)
    return c


# ---------------------------------------------------------------------------
# validation and admissibility

@memoized
def _homology_data(c: FilteredComplex):
    """Per-degree rational ranks and integer torsion divisors, memoized.

    Both come from the memoized integer reduction of each degree: the rank
    of D_k is its pivot count, and the torsion in degree k is the invariant
    factors above 1 of D_{k+1}. Only the small residue of its non-unit
    pivots takes a Smith form, so a certified complex takes none; its
    normal form is still verified, since ``reduce_integer`` runs first.
    """
    # barannikov imports this module, so the reductions are imported here
    from .barannikov import _integer_reduction, _invariant_factors, reduce_integer
    reduce_integer(c)
    factors = {k: _invariant_factors(_integer_reduction(c, k)) for k in c.degrees()}
    ranks = {k: len(c.points(k)) - len(f) - len(factors.get(k + 1, ()))
             for k, f in factors.items()}
    torsion = {k: tuple(d for d in factors.get(k + 1, ()) if d > 1) for k in c.degrees()}
    return ranks, torsion


@memoized
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
    lam = ones[0] if len(ones) == 1 and not bad and not torsion_degs else None
    return lam, tuple(findings)


@memoized
def _violations(c: FilteredComplex) -> tuple[Violation, ...]:
    """Structural findings (degree, distinct values, ascent, d∘d), memoized."""
    violations: list[Violation] = []
    for p in c.all_points():
        if p.degree < 0 or p.degree > c.ambient_dim:
            violations.append(Violation(
                "bad_degree", f"{p.name} has degree {p.degree}, ambient {c.ambient_dim}"))
    pts = c.all_points()
    for a, b in zip(pts, pts[1:]):
        if a.value == b.value:
            violations.append(Violation(
                "duplicate_value", f"{a.name} and {b.name} share value {a.value}"))
    for k in c.degrees():
        lower = c.points(k - 1)
        for p, terms in zip(c.points(k), c.columns(k)):
            for row, _ in terms:
                if p.value <= lower[row].value:
                    violations.append(Violation(
                        "ascent_violation",
                        f"boundary of {p.name} (value {p.value}) hits "
                        f"{lower[row].name} (value {lower[row].value})"))
    for k in c.degrees():
        if c.points(k - 1) and c.points(k + 1):
            if any(sparse_product_columns(c.columns(k), c.columns(k + 1))):
                violations.append(Violation(
                    "dd_nonzero", f"boundary squared is nonzero from degree {k + 1}"))
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
    keep their name order. The result is memoized on the (immutable) input.
    """
    n = c.ambient_dim
    points, position, columns = {}, {}, {}
    for k in c.degrees():
        pts = c.points(k)
        # reverse=True keeps the sort stable, so tied values stay in name order
        order = sorted(range(len(pts)), key=lambda i: pts[i].value, reverse=True)
        points[n - k] = tuple(CriticalPoint(pts[i].name, n - k, -pts[i].value) for i in order)
        position[k] = dict(zip(order, range(len(pts))))
        columns[n - k] = [[] for _ in pts]
    for k in c.degrees():
        for j, col in enumerate(c.columns(k)):
            for m, v in col:  # entry (m, j) of D_k: old lower point m hits old point j
                columns[n - k + 1][position[k - 1][m]].append((position[k][j], v))
    return FilteredComplex(n, points, {k: tuple(tuple(sorted(col)) for col in cols)
                                       for k, cols in columns.items()})


def restrict(c: FilteredComplex, lo, hi) -> FilteredComplex:
    """Keep the open value window (lo, hi); both endpoints must be regular."""
    lo, hi = Fraction(lo), Fraction(hi)
    if not lo < hi:
        raise ValueError(f"empty window {lo}:{hi}")
    for p in c.all_points():
        if p.value == lo or p.value == hi:
            raise EndpointCriticalError(
                f"window endpoint {p.value} is the critical value of {p.name}")
    kept = {k: [i for i, p in enumerate(c.points(k)) if lo < p.value < hi]
            for k in c.degrees()}
    new_row = {k: {old: new for new, old in enumerate(rows)} for k, rows in kept.items()}
    points, columns = {}, {}
    for k, cols in kept.items():
        if cols:
            points[k] = tuple(c.points(k)[i] for i in cols)
            columns[k] = tuple(tuple((new_row[k - 1][m], v) for m, v in c.columns(k)[j]
                                     if m in new_row[k - 1]) for j in cols)
    return FilteredComplex(c.ambient_dim, points, columns)


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
                f = Fraction(v)
                if f.denominator != 1:
                    raise NonUnitDiagonalError(
                        f"degree {k} transform has non-integer entry {v} at ({i},{j})")
                rows[i][j] = int(f)
                if rows[i][j] != 0 and i > j:
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

    def P_cols(k):  # sparse columns of P_k, the identity where no transform is given
        n = len(c.points(k))
        return sparse_columns(mats[k], n) if k in mats else [[(j, 1)] for j in range(n)]

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
    return FilteredComplex(c.ambient_dim, c._points, columns)
