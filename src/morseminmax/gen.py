"""Fixture complexes, seeded random generation, and value perturbation."""

from __future__ import annotations

import bisect
import random
from dataclasses import dataclass
from fractions import Fraction

from .complexes import CriticalPoint, FilteredComplex, _conjugate, _integer, memoized
from .errors import InternalInconsistencyError

FIXTURE_NAMES = ("laudenbach", "f0", "capitanio_v", "capitanio_vprime")

_FIVE_POINTS = [
    ("xi1_nm1", 1, 0),
    ("xi1_n", 2, 1),
    ("xi2_n", 2, 2),
    ("xi3_n", 2, 3),
    ("xi1_np1", 3, 4),
]

_CAPITANIO_POINTS = [
    ("xi1_nm1", 1, 0),
    ("xi2_nm1", 1, 1),
    ("xi1_n", 2, 2),
    ("xi2_n", 2, 3),
    ("xi3_n", 2, 4),
]

_FIXTURES = {
    # five critical points; the minmax/maxmin selectors split over Z and the
    # field answer depends on the characteristic
    "laudenbach": (4, _FIVE_POINTS, {
        "xi1_n": {"xi1_nm1": 1},
        "xi2_n": {"xi1_nm1": -2},
        "xi3_n": {"xi1_nm1": -1},
        "xi1_np1": {"xi2_n": 1, "xi3_n": -2},
    }),
    # the same five points before any handle sliding: one obvious pairing and
    # a certifiable integer normal form
    "f0": (4, _FIVE_POINTS, {
        "xi1_n": {"xi1_nm1": 1},
        "xi1_np1": {"xi3_n": 1},
    }),
    "capitanio_v": (4, _CAPITANIO_POINTS, {
        "xi1_n": {"xi2_nm1": 1},
        "xi2_n": {"xi1_nm1": 1},
    }),
    # the slid version: xi2_n passes the incidence-gap test yet is not free
    "capitanio_vprime": (4, _CAPITANIO_POINTS, {
        "xi1_n": {"xi2_nm1": 1, "xi1_nm1": 1},
        "xi2_n": {"xi2_nm1": 1, "xi1_nm1": 2},
        "xi3_n": {"xi1_nm1": 1},
    }),
}


def paper_fixture(name: str) -> FilteredComplex:
    """One of the bundled example complexes; see FIXTURE_NAMES."""
    try:
        ambient, points, boundaries = _FIXTURES[name]
    except KeyError:
        raise ValueError(f"unknown fixture {name!r}; known: {', '.join(FIXTURE_NAMES)}"
                         ) from None
    return FilteredComplex.build(ambient, points, boundaries)


def single_point(degree: int, value, ambient: int) -> FilteredComplex:
    """A complex with a single free critical point."""
    if not 0 <= int(degree) <= int(ambient):
        raise ValueError(f"degree {degree} outside [0, {ambient}]")
    return FilteredComplex.build(ambient, [("xi", degree, Fraction(value))], {})


@dataclass(frozen=True)
class BuildPlan:
    """The matching a random complex was built from, for recovery tests."""

    pairs: tuple[tuple[str, str], ...]  # (upper name, lower name)
    free: tuple[str, ...]


def _pair_counts(sizes: dict[int, int], ambient: int) -> dict[int, int]:
    """Maximum matching between adjacent degrees, greedily from below."""
    counts = {}
    avail_prev = 0
    for k in range(0, ambient + 1):
        sk = sizes.get(k, 0)
        counts[k] = min(avail_prev, sk)
        avail_prev = sk - counts[k]
    return counts


def random_complex_plan(seed: int, sizes: dict[int, int], ambient: int,
                        ) -> tuple[FilteredComplex, BuildPlan]:
    """Seeded random complex together with the matching it realizes.

    Construction: lay out points in a random ascending-value order such that
    every matched pair opens (lower) before it closes (upper), write the
    matching as a normal-form boundary, then conjugate by random value-order
    triangular unit-diagonal integer matrices, drawn as sparse columns.
    Unmatched points stay free; with a maximum matching leaving exactly one
    point unmatched the result carries rank-one torsion-free homology.
    Integral degrees, counts and ambient are taken as ints, as
    ``FilteredComplex.build`` takes them; any other raises ValueError.
    """
    rng, points, boundaries, plan = _layout(seed, sizes, ambient)
    normal = FilteredComplex.build(ambient, points, boundaries)
    # per degree of two points or more, the sparse columns of a unit
    # upper-triangular P_k, each entry above the diagonal drawn, column by
    # column, with probability 1/2 from [-3, 3]
    transforms = {k: [[(i, v) for i in range(j) if rng.random() < 0.5
                       and (v := rng.randint(-3, 3))] + [(j, 1)]
                      for j in range(len(normal.points(k)))]
                  for k in normal.degrees() if len(normal.points(k)) >= 2}
    return _conjugate(normal, transforms), plan


def _layout(seed, sizes, ambient):
    """The seeded generator after the points of :func:`random_complex_plan`
    are laid out, with their ``(name, degree, value)`` triples, the
    normal-form boundary of the matching and its plan."""
    if (ambient := _integer(ambient)) is None or ambient < 1:
        raise ValueError("infeasible sizes: ambient must be an integer >= 1")
    clean: dict[int, int] = {}
    for key, count in sizes.items():
        k, v = _integer(key), _integer(count)
        if k is None or v is None or v < 0 or not 0 <= k <= ambient:
            raise ValueError(f"infeasible sizes: degree {key} count {count} "
                             f"with ambient {ambient}")
        if v:
            clean[k] = v
    total = sum(clean.values())
    if total == 0:
        raise ValueError("infeasible sizes: no points requested")
    rng = random.Random(seed)
    pair_count = _pair_counts(clean, ambient)
    uppers = dict(pair_count)                      # degree k points closing a pair below
    lowers = {k: pair_count.get(k + 1, 0) for k in range(ambient + 1)}
    frees = {k: clean.get(k, 0) - uppers[k] - lowers[k]
             for k in range(ambient + 1)}
    if any(v < 0 for v in frees.values()):
        raise InternalInconsistencyError(
            f"negative free counts {frees} for seed {seed}, sizes {clean}, "
            f"ambient {ambient}")

    open_lowers: dict[int, list[int]] = {k: [] for k in range(ambient + 1)}
    schedule: list[tuple[int, int, int | None]] = []  # (role, degree, partner slot)
    # the roles open to the next point as (degree, role), sorted, with role 0
    # free, 1 lower and 2 upper; an upper needs an open lower one degree down
    left = frees, lowers, uppers
    actions = sorted((k, role) for role in (0, 1) for k, n in left[role].items() if n)
    for placed in range(total):
        action = k, role = rng.choice(actions)
        left[role][k] -= 1
        if not left[role][k]:
            actions.remove(action)
        partner = None
        if role == 1:
            if not open_lowers[k] and uppers.get(k + 1):
                bisect.insort(actions, (k + 1, 2))
            open_lowers[k].append(placed)
        elif role == 2:
            partner = open_lowers[k - 1].pop(rng.randrange(len(open_lowers[k - 1])))
            if uppers[k] and not open_lowers[k - 1]:
                actions.remove(action)
        schedule.append((role, k, partner))

    denominator = rng.choice((1, 1, 2, 4))
    raw = sorted(rng.sample(range(4 * total + 1), total))
    width = len(str(total - 1))
    names = [f"p{i:0{width}d}" for i in range(total)]
    points = [(names[i], schedule[i][1], Fraction(raw[i], denominator))
              for i in range(total)]
    boundaries = {}
    plan_pairs = []
    plan_free = []
    for i, (role, _k, partner) in enumerate(schedule):
        if role == 2:
            boundaries[names[i]] = {names[partner]: 1}
            plan_pairs.append((names[i], names[partner]))
        elif role == 0:
            plan_free.append(names[i])
    if any(open_lowers.values()):
        raise InternalInconsistencyError(
            f"unclosed pair slots {open_lowers} for seed {seed}, sizes {clean}, "
            f"ambient {ambient}")
    plan = BuildPlan(pairs=tuple(sorted(plan_pairs)), free=tuple(sorted(plan_free)))
    return rng, points, boundaries, plan


def random_complex(seed: int, sizes: dict[int, int], ambient: int) -> FilteredComplex:
    """Seeded random valid complex; deterministic in (seed, sizes, ambient)."""
    return random_complex_plan(seed, sizes, ambient)[0]


def random_admissible_complex(seed: int, max_points: int = 40) -> FilteredComplex:
    """Seeded random complex with rank-one torsion-free total homology and
    at most ``max_points`` points, an integral number of at least 3."""
    if (m := _integer(max_points)) is None or m < 3:
        raise ValueError(f"max_points must be at least 3 and integral, not {max_points}")
    rng = random.Random(("admissible", seed).__repr__())
    ambient = rng.randint(2, 6)
    n_pairs = rng.randint(1, (m - 1) // 2)
    slots = list(range(1, ambient + 1))
    pair_at = {k: 0 for k in slots}
    for _ in range(n_pairs):
        pair_at[rng.choice(slots)] += 1
    lam = rng.randint(0, ambient)
    sizes: dict[int, int] = {}
    for k in range(0, ambient + 1):
        sizes[k] = pair_at.get(k, 0) + pair_at.get(k + 1, 0) + (1 if k == lam else 0)
    return random_complex(seed, sizes, ambient)


@memoized
def min_value_gap(c: FilteredComplex) -> Fraction | None:
    """Least difference between consecutive critical values, None below two
    points. Memoized: ``fuzz`` reads it and so does :func:`perturb_values`."""
    values = [p.value for p in c.all_points()]  # ascending
    return min((b - a for a, b in zip(values, values[1:])), default=None)


def perturb_values(c: FilteredComplex, eps, seed: int) -> FilteredComplex:
    """Shift every critical value by a seeded rational in [-eps, eps].

    Requires eps below half the minimum gap between critical values so the
    value order, and with it every stored boundary column and rank, is kept.
    So the result is a value sibling of c (``FilteredComplex._revalued``):
    it shares c's shared store, and every value-free result computed on one
    of them serves the other.
    """
    eps = Fraction(eps)
    if eps < 0:
        raise ValueError("perturbation size must be nonnegative")
    gap = min_value_gap(c)
    if gap is not None and eps >= gap / 2:
        raise ValueError(f"perturbation {eps} too large: must be below {gap / 2}")
    rng = random.Random(("perturb", seed).__repr__())
    # a/b + (e/d) * (r/16) as one Fraction
    e, d = eps.as_integer_ratio()
    moved = {}
    for p in c.all_points():
        a, b = p.value.as_integer_ratio()
        moved[p.name] = Fraction(16 * a * d + e * rng.randint(-16, 16) * b, 16 * b * d)
    return c._revalued({k: tuple(CriticalPoint(p.name, k, moved[p.name]) for p in c.points(k))
                        for k in c.degrees()})
