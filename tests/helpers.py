"""Shared test oracles, deliberately independent of the library internals."""

import random
from fractions import Fraction

from hypothesis import strategies as st

from morseminmax.complexes import FilteredComplex
from morseminmax.gen import paper_fixture

small_matrices = st.integers(0, 6).flatmap(
    lambda m: st.integers(0, 6).flatmap(
        lambda n: st.lists(
            st.lists(st.integers(-9, 9), min_size=n, max_size=n),
            min_size=m,
            max_size=m,
        )
    )
)


def det(M):
    """Exact determinant via fraction Gaussian elimination."""
    n = len(M)
    if n == 0:
        return 1
    rows = [[Fraction(v) for v in row] for row in M]
    sign = 1
    result = Fraction(1)
    for col in range(n):
        piv = next((r for r in range(col, n) if rows[r][col] != 0), None)
        if piv is None:
            return 0
        if piv != col:
            rows[col], rows[piv] = rows[piv], rows[col]
            sign = -sign
        pivot = rows[col][col]
        result *= pivot
        for r in range(col + 1, n):
            if rows[r][col] != 0:
                f = rows[r][col] / pivot
                rows[r] = [a - f * b for a, b in zip(rows[r], rows[col])]
    value = sign * result
    assert value.denominator == 1
    return int(value)


def mat_mul(A, B):
    k = len(B)
    n = len(B[0]) if k else 0
    return [[sum(row[t] * B[t][j] for t in range(k)) for j in range(n)] for row in A]


def rank_fraction(A):
    """Row-reduction rank over Q, written independently of the library."""
    rows = [[Fraction(v) for v in row] for row in A]
    rank = 0
    ncols = len(rows[0]) if rows else 0
    for col in range(ncols):
        piv = next((r for r in range(rank, len(rows)) if rows[r][col] != 0), None)
        if piv is None:
            continue
        rows[rank], rows[piv] = rows[piv], rows[rank]
        for r in range(rank + 1, len(rows)):
            if rows[r][col] != 0:
                f = rows[r][col] / rows[rank][col]
                rows[r] = [a - f * b for a, b in zip(rows[r], rows[rank])]
        rank += 1
    return rank


def inverse_conjugate(Plow, D, P):
    """Plow^{-1} D P, inverting Plow by fraction Gauss-Jordan elimination."""
    n = len(Plow)
    aug = [[Fraction(v) for v in row] + [Fraction(int(i == j)) for j in range(n)]
           for i, row in enumerate(Plow)]
    for col in range(n):
        piv = next(r for r in range(col, n) if aug[r][col] != 0)
        aug[col], aug[piv] = aug[piv], aug[col]
        aug[col] = [v / aug[col][col] for v in aug[col]]
        for r in range(n):
            if r != col and aug[r][col] != 0:
                f = aug[r][col]
                aug[r] = [a - f * b for a, b in zip(aug[r], aug[col])]
    inverse = [row[n:] for row in aug]
    return mat_mul(mat_mul(inverse, D), P)


def hidden_laudenbach(pairs, seed=0):
    """The ``laudenbach`` fixture plus ``pairs`` cancelling pairs, hidden by
    +-1 handle slides: an admissible, integer-obstructed complex of
    5 + 2 * pairs points in ambient dimension 4.

    A pair is a point of degree 1 or 2 and a point one degree up and higher
    in value whose boundary is it. A slide in degree k, with point i below
    point j in value and a = +-1, is the basis change e_j -> e_j + a * e_i:
    the boundary of j gains a times that of i, and every boundary that hits
    j hits i by -a times as much. Slides and acyclic summands move neither
    integer selector, so the minmax stays at xi3_n and the maxmin at xi2_n.
    """
    rng = random.Random(f"hidden_laudenbach/{seed}/{pairs}")
    total = 5 + 2 * pairs
    values = rng.sample(range(total), total)
    lau = paper_fixture("laudenbach")
    degree, value, bnd = {}, {}, {}
    for p, v in zip(lau.all_points(), sorted(values[:5])):
        degree[p.name], value[p.name] = p.degree, v
        bnd[p.name] = {q.name: x for x, q in lau.boundary_chain(p.name)}
    for i in range(pairs):
        k = rng.choice((1, 2))
        lo, hi = sorted(values[5 + 2 * i:7 + 2 * i])
        degree[f"l{i}"], value[f"l{i}"], bnd[f"l{i}"] = k, lo, {}
        degree[f"u{i}"], value[f"u{i}"], bnd[f"u{i}"] = k + 1, hi, {f"l{i}": 1}
    by_degree = {}
    for name in sorted(value, key=value.get):
        by_degree.setdefault(degree[name], []).append(name)
    slid = [k for k, names in by_degree.items() if len(names) >= 2]
    for _ in range(2 * total):
        k = rng.choice(slid)
        i, j = sorted(rng.sample(by_degree[k], 2), key=value.get)
        a = rng.choice((1, -1))
        _add(bnd[j], a, bnd[i])
        for name in by_degree.get(k + 1, ()):
            if j in bnd[name]:
                _add(bnd[name], -a, {i: bnd[name][j]})
    return FilteredComplex.build(4, [(n, degree[n], value[n]) for n in value], bnd)


def _add(target, a, source):
    """target += a * source on sparse ``{name: coeff}`` chains."""
    for name, v in source.items():
        w = target.get(name, 0) + a * v
        if w:
            target[name] = w
        else:
            target.pop(name, None)


def assert_ranks_follow_values(c):
    """The stored ranks of ``c`` tie and order exactly as its values do,
    across all degrees, one integer rank per point."""
    for k in c.degrees():
        assert len(c.ranks(k)) == len(c.points(k)), k
        assert all(type(r) is int for r in c.ranks(k)), k
    pairs = sorted(((p.value, r) for k in c.degrees() for p, r in zip(c.points(k), c.ranks(k))),
                   key=lambda vr: vr[0])
    for (v, r), (w, s) in zip(pairs, pairs[1:]):
        assert r == s if v == w else r < s, (v, r, w, s)


# -- complexes as written, mostly invalid -------------------------------------

AMBIENT = 3
VALUES = [Fraction(v) for v in (-3, -1, 0, 1, 2)] + [
    Fraction(1, 2), Fraction(-5, 3), Fraction(2**64 + 1), Fraction(2**64 + 2),
    Fraction(-(2**70) - 3, 7), Fraction(2**65 + 1, 2**64)]


@st.composite
def written_complexes(draw):
    """(file text, points, boundaries): up to 9 points of degrees -1..4 in
    ambient dimension 3, each value written as ``n``, ``n/d`` or a multiple
    of both (``2/4`` for ``1/2``), and chains of coefficients +-1, +-2."""
    names = draw(st.lists(st.sampled_from("abcdefghij"), min_size=1, max_size=9, unique=True))
    points, lines = [], [f"ambient {AMBIENT}"]
    for name in names:
        degree, value = draw(st.integers(-1, AMBIENT + 1)), draw(st.sampled_from(VALUES))
        scale = draw(st.integers(1, 3))
        text = (f"{value.numerator * scale}/{value.denominator * scale}"
                if scale > 1 or value.denominator > 1 else str(value.numerator))
        points.append((name, degree, value))
        lines.append(f"point {name} {degree} {text}")
    boundaries = {}
    for name, degree, _ in points:
        targets = [t for t, d, _ in points if d == degree - 1]
        if targets:
            chain = draw(st.dictionaries(st.sampled_from(targets),
                                         st.sampled_from((-2, -1, 1, 2)), max_size=3))
            if chain:
                boundaries[name] = chain
                lines.append(f"boundary {name} : "
                             + " ".join(f"{v}*{t}" for t, v in chain.items()))
    return "\n".join(lines) + "\n", points, boundaries


# A complex with one ascent violation (only t's last target, x, lies above
# it) and a nonzero d∘d from degree 2 (on t and y): (points, boundaries) in
# AMBIENT.
INVALID_FIVE_POINTS = (
    [("a", 0, Fraction(0)), ("b", 1, Fraction(1)), ("t", 2, Fraction(2)),
     ("y", 2, Fraction(5, 2)), ("x", 1, Fraction(3))],
    {"b": {"a": 1}, "x": {"a": -1}, "t": {"b": 1, "x": 2}, "y": {"b": 1}},
)
