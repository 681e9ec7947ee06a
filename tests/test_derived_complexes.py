"""Derived complexes against a name-keyed rebuild through FilteredComplex.build.

``negate``, ``restrict``, ``change_basis`` and ``perturb_values`` derive a
complex from the stored columns of one already built. Each reference below
instead reads the input as named points and ``{name: {name: coeff}}`` chains
and rebuilds through ``build``, which sorts every degree by (value, name).
"""

import random
from fractions import Fraction

import pytest

from morseminmax.complexes import FilteredComplex, change_basis, negate, restrict, serialize
from morseminmax.gen import (
    FIXTURE_NAMES,
    min_value_gap,
    paper_fixture,
    perturb_values,
    random_admissible_complex,
    single_point,
)

from helpers import hidden_laudenbach, inverse_conjugate


INPUTS = {
    **{name: lambda name=name: paper_fixture(name) for name in FIXTURE_NAMES},
    **{f"random_admissible_complex({seed})": lambda seed=seed: random_admissible_complex(seed)
       for seed in range(50)},
    "hidden_laudenbach(20)": lambda: hidden_laudenbach(20),
    "single_point": lambda: single_point(2, 5, 4),
    "dd_nonzero": lambda: FilteredComplex.build(
        3, [("a", 0, 0), ("b", 1, 1), ("t", 2, 2)], {"b": {"a": 1}, "t": {"b": 1}}),
    # two degree-1 points share value 0 and are given out of name order
    "tied_values": lambda: FilteredComplex.build(
        2, [("z", 0, -1), ("b", 1, 0), ("a", 1, 0), ("t", 2, 1)],
        {"a": {"z": 1}, "b": {"z": 1}, "t": {"a": 1, "b": -1}}),
}


def _chains(c):
    return {p.name: {q.name: v for v, q in c.boundary_chain(p.name)} for p in c.all_points()}


def _triples(c):
    return [(p.name, p.degree, p.value) for p in c.all_points()]


def reference_negate(c):
    n = c.ambient_dim
    dual = {}
    for p, chain in _chains(c).items():
        for q, v in chain.items():
            dual.setdefault(q, {})[p] = v
    return FilteredComplex.build(n, [(name, n - k, -v) for name, k, v in _triples(c)], dual)


def reference_restrict(c, lo, hi):
    keep = {name for name, _, v in _triples(c) if lo < v < hi}
    return FilteredComplex.build(
        c.ambient_dim, [t for t in _triples(c) if t[0] in keep],
        {p: {q: v for q, v in chain.items() if q in keep}
         for p, chain in _chains(c).items() if p in keep})


def reference_change_basis(c, transforms):
    """P_{k-1}^{-1} D_k P_k by dense fraction arithmetic, read back by name."""
    def P(k):
        m = len(c.points(k))
        return transforms.get(k, [[int(i == j) for j in range(m)] for i in range(m)])

    boundaries = {}
    for k in c.degrees():
        lower = c.points(k - 1)
        if not lower:
            continue
        D = inverse_conjugate(P(k - 1), c.matrix(k), P(k))
        for j, p in enumerate(c.points(k)):
            boundaries[p.name] = {q.name: int(D[i][j]) for i, q in enumerate(lower) if D[i][j]}
    return FilteredComplex.build(c.ambient_dim, _triples(c), boundaries)


def reference_perturb_values(c, eps, seed):
    rng = random.Random(("perturb", seed).__repr__())
    return FilteredComplex.build(
        c.ambient_dim,
        [(name, k, v + eps * Fraction(rng.randint(-16, 16), 16)) for name, k, v in _triples(c)],
        _chains(c))


def _windows(c, rng):
    """The full window, an empty one, and two random windows between values."""
    values = sorted({p.value for p in c.all_points()})
    cuts = [values[0] - 1] + [(a + b) / 2 for a, b in zip(values, values[1:])] + [values[-1] + 1]
    windows = [(cuts[0], cuts[-1]), (cuts[0] - 1, cuts[0])]
    for _ in range(2):
        lo, hi = sorted(rng.sample(range(len(cuts)), 2))
        windows.append((cuts[lo], cuts[hi]))
    return windows


def _transforms(c, rng):
    """Value-order triangular +-1-diagonal transforms on a random set of degrees."""
    transforms = {}
    for k in c.degrees():
        if rng.random() < 0.25:
            continue  # this degree keeps the identity
        m = len(c.points(k))
        transforms[k] = [[rng.choice((1, -1)) if i == j else rng.randint(-2, 2) * (i < j)
                          for j in range(m)] for i in range(m)]
    return transforms


def _derivations(c, rng):
    """(what, operation, arguments) for every derived complex taken from ``c``."""
    yield "negate", negate, ()
    for window in _windows(c, rng):
        yield f"restrict{window}", restrict, window
    for _ in range(2):
        yield "change_basis", change_basis, (_transforms(c, rng),)
    gap = min_value_gap(c)
    if gap != 0:
        for eps in ((gap / 4, gap / 3) if gap else (Fraction(1),)):
            yield f"perturb_values(eps={eps})", perturb_values, (eps, rng.randrange(100))


REFERENCES = {negate: reference_negate, restrict: reference_restrict,
              change_basis: reference_change_basis, perturb_values: reference_perturb_values}


@pytest.mark.parametrize("label", list(INPUTS))
def test_derived_complex_matches_a_name_keyed_rebuild(label):
    c = INPUTS[label]()
    for what, op, args in _derivations(c, random.Random(label)):
        got, want = op(c, *args), REFERENCES[op](c, *args)
        assert got == want, (label, what)
        assert serialize(got) == serialize(want), (label, what)
    if label == "tied_values":
        with pytest.raises(ValueError):
            perturb_values(c, 0, seed=0)


def test_derived_complexes_never_call_build(monkeypatch):
    inputs = [make() for make in INPUTS.values()]
    plans = [list(_derivations(c, random.Random(i))) for i, c in enumerate(inputs)]

    def refuse(*args, **kwargs):
        raise AssertionError("FilteredComplex.build called")

    monkeypatch.setattr(FilteredComplex, "build", refuse)
    for c, plan in zip(inputs, plans):
        for _, op, args in plan:
            op(c, *args)
    assert {op for plan in plans for _, op, _ in plan} == set(REFERENCES)
