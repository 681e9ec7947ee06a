"""Sparse handle-slide family of filtered Morse complexes (stdlib only).

A complex starts as a random value-ordered normal form: degree-1/degree-2
and degree-2/degree-3 points are matched with boundary coefficient 1, and
one degree-2 point is left free. Sparse handle slides then hide the normal
form. A slide in degree k with points i below j in value and a in
{-2, -1, 1, 2} is the basis change e_j -> e_j + a*e_i:

    col_j(D_k) += a * col_i(D_k)        row_i(D_{k+1}) -= a * row_j(D_{k+1})

It is value-order triangular with unit diagonal, so boundary squared stays
zero, boundaries still point strictly down in value, and the pairing, the
free point and the integer homology are those of the normal form. Unlike the
dense conjugation of ``gen.random_complex_plan``, the entries stay a few bits
wide while the number of points grows.
"""

from __future__ import annotations

import random
from dataclasses import dataclass

AMBIENT = 4
FREE_DEGREE = 2
SLIDES_PER_POINT = 2


@dataclass(frozen=True)
class SlidComplex:
    """A generated complex with the construction truth it was built from."""

    text: str                          # the .cplx file contents
    pairs: tuple[tuple[str, str], ...]  # (upper name, lower name), sorted
    free: str
    points: int


def slid_complex(seed: int, pairs_per_degree: int) -> SlidComplex:
    """Seeded complex with sizes {1: q, 2: 2q + 1, 3: q} for q = pairs_per_degree."""
    q = pairs_per_degree
    if q < 1:
        raise ValueError("pairs_per_degree must be at least 1")
    rng = random.Random(f"slides/{seed}/{q}/{SLIDES_PER_POINT}")
    total = 4 * q + 1
    # Roles in ascending value order: every lower opens before its upper closes.
    lowers_left = {1: q, 2: q}
    uppers_left = {2: q, 3: q}
    open_lowers: dict[int, list[int]] = {1: [], 2: []}
    free_left = 1
    degree_of: list[int] = []
    partner: dict[int, int] = {}
    for slot in range(total):
        actions = [("lower", k) for k, v in lowers_left.items() if v]
        actions += [("upper", k) for k, v in uppers_left.items()
                    if v and open_lowers[k - 1]]
        if free_left:
            actions.append(("free", FREE_DEGREE))
        role, k = rng.choice(actions)
        degree_of.append(k)
        if role == "lower":
            lowers_left[k] -= 1
            open_lowers[k].append(slot)
        elif role == "upper":
            uppers_left[k] -= 1
            opened = open_lowers[k - 1]
            partner[slot] = opened.pop(rng.randrange(len(opened)))
        else:
            free_left -= 1
            free_slot = slot
    width = len(str(total - 1))
    names = [f"s{i:0{width}d}" for i in range(total)]
    # slots by degree, in ascending value order (slot order is value order)
    by_degree: dict[int, list[int]] = {k: [] for k in range(AMBIENT + 1)}
    for slot, k in enumerate(degree_of):
        by_degree[k].append(slot)
    # cols[k][j] = {i: coeff}: column j of D_k as a sparse map over rows i
    cols: dict[int, dict[int, dict[int, int]]] = {
        k: {s: {} for s in by_degree[k]} for k in range(AMBIENT + 1)}
    for upper, lower in partner.items():
        cols[degree_of[upper]][upper][lower] = 1

    slid_degrees = [k for k in range(AMBIENT + 1) if len(by_degree[k]) >= 2]
    for _ in range(SLIDES_PER_POINT * total):
        k = rng.choice(slid_degrees)
        lo, hi = sorted(rng.sample(range(len(by_degree[k])), 2))
        i, j = by_degree[k][lo], by_degree[k][hi]
        a = rng.choice((-2, -1, 1, 2))
        _axpy(cols[k][j], a, cols[k][i])
        # row_i(D_{k+1}) -= a * row_j(D_{k+1})
        for col in cols.get(k + 1, {}).values():
            v = col.get(j)
            if v:
                _axpy(col, -a, {i: v})

    points = [f"point {names[s]} {degree_of[s]} {s}" for s in range(total)]
    boundary = []
    for k in range(AMBIENT + 1):
        for s in by_degree[k]:
            col = cols[k][s]
            if col:
                terms = " ".join(f"{v}*{names[r]}" for r, v in sorted(col.items()))
                boundary.append(f"boundary {names[s]} : {terms}")
    text = "\n".join([f"ambient {AMBIENT}", *points, *boundary]) + "\n"
    return SlidComplex(
        text=text,
        pairs=tuple(sorted((names[u], names[l]) for u, l in partner.items())),
        free=names[free_slot],
        points=total,
    )


def _axpy(target: dict[int, int], a: int, source: dict[int, int]) -> None:
    """target += a * source, dropping entries that cancel to zero."""
    for r, v in source.items():
        w = target.get(r, 0) + a * v
        if w:
            target[r] = w
        else:
            target.pop(r, None)
