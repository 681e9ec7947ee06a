"""Filtered Morse complexes: data model, file format, structural operations.

A complex is a set of named critical points graded by degree, each carrying an
exact rational critical value, together with integer boundary matrices. The
boundary matrix of degree k has one row per degree-(k-1) point and one column
per degree-k point, both sorted by ascending critical value. Nonzero entries
must point strictly downward in value, all critical values must be pairwise
distinct, and consecutive boundary matrices must compose to zero.
"""

from __future__ import annotations

import re
from dataclasses import dataclass
from fractions import Fraction
from typing import Iterable, Mapping

from .coeff import (
    RATIONALS,
    invariant_factors,
    mat_mul,
    rank_over,
    solve_upper_triangular,
    sparse_columns,
    sparse_product_columns,
)
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

    Use :meth:`build` to construct one; every operation returns a new complex.
    """

    __slots__ = ("ambient_dim", "_points", "_matrices", "_by_name", "_cache")

    def __init__(self, ambient_dim, points_by_degree, matrices):
        self.ambient_dim = ambient_dim
        self._points = points_by_degree
        self._matrices = matrices
        self._by_name = {p.name: p for pts in points_by_degree.values() for p in pts}
        self._cache = {}

    @classmethod
    def build(cls, ambient_dim: int,
              points: Iterable[tuple[str, int, object] | CriticalPoint],
              boundaries: Mapping[str, Mapping[str, int]] | None = None,
              ) -> "FilteredComplex":
        """Assemble a complex from point triples and a sparse boundary map.

        ``points`` yields ``(name, degree, value)`` triples (or CriticalPoint
        instances); ``boundaries`` maps a point name to its boundary chain as
        ``{target_name: coefficient}``. Structural errors (bad names, duplicate
        names, degree-incompatible boundary targets) raise ValueError; the
        semantic invariants are checked by :func:`validate`.
        """
        if int(ambient_dim) < 1:
            raise ValueError("ambient dimension must be a positive integer")
        pts = []
        for item in points:
            if isinstance(item, CriticalPoint):
                name, degree, value = item.name, item.degree, item.value
            else:
                name, degree, value = item
            if not _NAME_RE.match(name):
                raise ValueError(f"bad point name {name!r}")
            pts.append(CriticalPoint(name, int(degree), Fraction(value)))
        names = [p.name for p in pts]
        if len(set(names)) != len(names):
            dup = next(n for n in names if names.count(n) > 1)
            raise ValueError(f"duplicate point name {dup!r}")
        by_degree: dict[int, list[CriticalPoint]] = {}
        for p in pts:
            by_degree.setdefault(p.degree, []).append(p)
        points_by_degree = {
            k: tuple(sorted(v, key=lambda p: (p.value, p.name)))
            for k, v in by_degree.items()
        }
        index = {}
        for k, tup in points_by_degree.items():
            for i, p in enumerate(tup):
                index[p.name] = (k, i)
        matrices: dict[int, list[list[int]]] = {}
        for k, tup in points_by_degree.items():
            rows = len(points_by_degree.get(k - 1, ()))
            matrices[k] = [[0] * len(tup) for _ in range(rows)]
        by_name = {p.name: p for p in pts}
        for src, chain in (boundaries or {}).items():
            if src not in by_name:
                raise ValueError(f"unknown point name {src!r} in boundary")
            k, col = index[src]
            for tgt, coeff in chain.items():
                if tgt not in by_name:
                    raise ValueError(f"unknown point name {tgt!r} in boundary of {src!r}")
                coeff = int(coeff)
                if coeff == 0:
                    continue
                tk, row = index[tgt]
                if tk != k - 1:
                    raise ValueError(
                        f"boundary of {src!r} (degree {k}) hits {tgt!r} of degree {tk}")
                matrices[k][row][col] = coeff
        frozen = {k: tuple(tuple(r) for r in m) for k, m in matrices.items()}
        return cls(ambient_dim, points_by_degree, frozen)

    # -- accessors ----------------------------------------------------------

    def degrees(self) -> list[int]:
        return sorted(self._points)

    def points(self, degree: int) -> tuple[CriticalPoint, ...]:
        return self._points.get(degree, ())

    def matrix(self, degree: int) -> tuple[tuple[int, ...], ...]:
        """Boundary matrix from degree ``degree`` into ``degree - 1``."""
        got = self._matrices.get(degree)
        if got is not None:
            return got
        rows = len(self.points(degree - 1))
        return tuple(() for _ in range(rows)) if rows else ()

    def point(self, name: str) -> CriticalPoint:
        try:
            return self._by_name[name]
        except KeyError:
            raise ValueError(f"unknown point {name!r}") from None

    def all_points(self) -> list[CriticalPoint]:
        """Every point, sorted by ascending critical value (filtration order).

        The order is computed once per complex; each call returns a new list.
        """
        order = self._cache.get("all_points")
        if order is None:
            order = tuple(sorted(self._by_name.values(), key=lambda p: (p.value, p.name)))
            self._cache["all_points"] = order
        return list(order)

    @property
    def n_points(self) -> int:
        return len(self._by_name)

    def boundary_chain(self, name: str) -> list[tuple[int, CriticalPoint]]:
        k, col = self._index(name)
        lower = self.points(k - 1)
        mat = self.matrix(k)
        return [(mat[row][col], lower[row]) for row in range(len(lower))
                if mat[row][col] != 0]

    def _index(self, name: str) -> tuple[int, int]:
        p = self.point(name)
        return p.degree, self.points(p.degree).index(p)

    def __eq__(self, other):
        if not isinstance(other, FilteredComplex):
            return NotImplemented
        return (self.ambient_dim == other.ambient_dim
                and self._points == other._points
                and self._matrices == other._matrices)

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
        mat = c.matrix(k)
        for col, p in enumerate(c.points(k)):
            terms = [f"{mat[row][col]}*{lower[row].name}"
                     for row in range(len(lower)) if mat[row][col] != 0]
            if terms:
                lines.append(f"boundary {p.name} : " + " ".join(terms))
    return "\n".join(lines) + "\n"


_INT_RE = re.compile(r"-?\d+\Z")
_VALUE_RE = re.compile(r"(-?\d+)(?:/(\d+))?\Z")
_TERM_RE = re.compile(r"(-?\d+)\*([A-Za-z0-9_]+)\Z")


def parse_complex(data: bytes | str, *, check: bool = True) -> FilteredComplex:
    """Parse the line-oriented complex format; see :func:`serialize`.

    Raises ParseError (with line/column) on malformed input. With ``check``
    (the default) the parsed complex is validated and InvalidComplexError is
    raised when any complex invariant fails.
    """
    text = data.decode("utf-8") if isinstance(data, (bytes, bytearray)) else data
    ambient: int | None = None
    points: list[tuple[str, int, Fraction]] = []
    boundaries: dict[str, dict[str, int]] = {}
    declared: dict[str, int] = {}

    def err(msg, lineno, line, token=None):
        column = line.find(token) + 1 if token and token in line else 1
        raise ParseError(msg, lineno, column)

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
            if not fields[1].isdigit() or int(fields[1]) < 1:
                err(f"ambient dimension must be a positive integer, got {fields[1]!r}",
                    lineno, raw, fields[1])
            ambient = int(fields[1])
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
            m = _VALUE_RE.match(val_tok)
            if not m or (m.group(2) is not None and int(m.group(2)) == 0):
                err(f"bad critical value {val_tok!r}", lineno, raw, val_tok)
            value = Fraction(int(m.group(1)), int(m.group(2) or 1))
            points.append((name, int(deg_tok), value))
            declared[name] = int(deg_tok)
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
                coeff, tgt = int(m.group(1)), m.group(2)
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

def _homology_data(c: FilteredComplex):
    """Per-degree rational ranks and integer torsion divisors, memoized."""
    cached = c._cache.get("homology_data")
    if cached is not None:
        return cached
    ranks = {}
    torsion = {}
    mat_rank = {}
    for k in range(0, c.ambient_dim + 2):
        mat = c.matrix(k)
        if mat and c.points(k):
            mat_rank[k] = rank_over([list(r) for r in mat], RATIONALS)
        else:
            mat_rank[k] = 0
    for k in range(0, c.ambient_dim + 1):
        nk = len(c.points(k))
        ranks[k] = nk - mat_rank[k] - mat_rank[k + 1]
        up = c.matrix(k + 1)
        if up and c.points(k + 1):
            torsion[k] = tuple(d for d in invariant_factors([list(r) for r in up]) if d > 1)
        else:
            torsion[k] = ()
    data = (ranks, torsion)
    c._cache["homology_data"] = data
    return data


def _admissibility(c: FilteredComplex):
    """Return (global index or None, findings) for a structurally valid complex."""
    cached = c._cache.get("admissibility")
    if cached is not None:
        return cached
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
    result = (lam, tuple(findings))
    c._cache["admissibility"] = result
    return result


def validate(c: FilteredComplex) -> ValidationReport:
    """Report every violated complex invariant plus selector admissibility."""
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
    cols = {k: sparse_columns(c.matrix(k), len(c.points(k))) for k in c.degrees()}
    for k in c.degrees():
        lower = c.points(k - 1)
        for p, terms in zip(c.points(k), cols[k]):
            for row, _ in terms:
                if p.value <= lower[row].value:
                    violations.append(Violation(
                        "ascent_violation",
                        f"boundary of {p.name} (value {p.value}) hits "
                        f"{lower[row].name} (value {lower[row].value})"))
    for k in c.degrees():
        if c.points(k - 1) and c.points(k + 1) and k + 1 in c._matrices:
            prod = sparse_product_columns(cols[k], cols[k + 1], len(c.points(k - 1)))
            if any(any(col) for col in prod):
                violations.append(Violation(
                    "dd_nonzero", f"boundary squared is nonzero from degree {k + 1}"))
    ok = not violations
    if ok:
        lam, findings = _admissibility(c)
        admissible = lam is not None
    else:
        findings = (Violation("not_evaluated", "admissibility skipped: complex invalid"),)
        admissible = False
    return ValidationReport(ok=ok, violations=tuple(violations),
                            admissible=admissible,
                            admissibility_findings=tuple(findings))


def global_index(c: FilteredComplex) -> int:
    """The unique degree carrying a rank-one, torsion-free total homology.

    Raises NotAdmissibleError when rational homology is not rank-one
    concentrated or integral homology has torsion.
    """
    lam, findings = _admissibility(c)
    if lam is None:
        detail = "; ".join(f"{f.code}: {f.detail}" for f in findings)
        raise NotAdmissibleError(detail or "homology is not rank-one concentrated")
    return lam


# ---------------------------------------------------------------------------
# structural operations

def negate(c: FilteredComplex) -> FilteredComplex:
    """The complex of the negated function: degree k -> ambient - k, value -> -value.

    Boundary matrices of the result are the anti-transposes of the originals
    (transpose with both row and column order reversed). The result is
    memoized on the (immutable) input.
    """
    cached = c._cache.get("negate")
    if cached is not None:
        return cached
    n = c.ambient_dim
    points = [(p.name, n - p.degree, -p.value)
              for k in c.degrees() for p in c.points(k)]
    boundaries: dict[str, dict[str, int]] = {}
    for k in c.degrees():
        lower = c.points(k - 1)
        upper = c.points(k)
        if not lower:
            continue
        mat = c.matrix(k)
        # old pair (row m, col l) becomes: boundary of (old lower m) hits (old upper l)
        for m, low_pt in enumerate(lower):
            chain = {upper[l].name: mat[m][l]
                     for l in range(len(upper)) if mat[m][l] != 0}
            if chain:
                boundaries[low_pt.name] = chain
    result = FilteredComplex.build(n, points, boundaries)
    c._cache["negate"] = result
    return result


def restrict(c: FilteredComplex, lo, hi) -> FilteredComplex:
    """Keep the open value window (lo, hi); both endpoints must be regular."""
    lo, hi = Fraction(lo), Fraction(hi)
    if not lo < hi:
        raise ValueError(f"empty window {lo}:{hi}")
    for p in c.all_points():
        if p.value == lo or p.value == hi:
            raise EndpointCriticalError(
                f"window endpoint {p.value} is the critical value of {p.name}")
    keep = [p for p in c.all_points() if lo < p.value < hi]
    kept_names = {p.name for p in keep}
    boundaries = {}
    for p in keep:
        chain = {q.name: coeff for coeff, q in c.boundary_chain(p.name)
                 if q.name in kept_names}
        if chain:
            boundaries[p.name] = chain
    return FilteredComplex.build(c.ambient_dim,
                                 [(p.name, p.degree, p.value) for p in keep],
                                 boundaries)


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

    def P_of(k):
        return mats.get(k) or [[1 if i == j else 0 for j in range(len(c.points(k)))]
                               for i in range(len(c.points(k)))]

    boundaries: dict[str, dict[str, int]] = {}
    for k in c.degrees():
        lower = c.points(k - 1)
        upper = c.points(k)
        if not lower or not upper:
            continue
        D = [list(r) for r in c.matrix(k)]
        right = mat_mul(D, P_of(k))
        newD = solve_upper_triangular(P_of(k - 1), right)
        for col, p in enumerate(upper):
            chain = {}
            for row in range(len(lower)):
                v = newD[row][col]
                if v.denominator != 1:
                    raise InternalInconsistencyError(
                        f"degree {k} basis change gives non-integer boundary entry {v} "
                        f"at row {row} ({lower[row].name}), column {col} ({p.name})")
                if v != 0:
                    chain[lower[row].name] = int(v)
            if chain:
                boundaries[p.name] = chain
    points = [(p.name, p.degree, p.value) for k in c.degrees() for p in c.points(k)]
    return FilteredComplex.build(c.ambient_dim, points, boundaries)
