"""Traced replay of CLI commands through the layers' public functions.

Each replay calls, for one command, the public functions the CLI would call,
in the CLI's own order and on the same objects, so the per-complex ``_cache``
memoization behaves as it does end to end. Every call is wrapped in a span;
the spans live in memory and are written out when the benchmark ends.

The replay mirrors ``morseminmax.cli`` (``_cmd_*``, ``_verify_checks`` and
``_battery``). When the CLI's call order changes, the remainder between the
untraced command time and the spans (``cli.unattributed_s``) shows it.
"""

from __future__ import annotations

import time
from contextlib import contextmanager
from fractions import Fraction
from types import SimpleNamespace


class Tracer:
    """In-memory spans: [name, start, end, parent index, command id]."""

    def __init__(self):
        self.spans: list[list] = []
        self.counts: dict[str, int] = {}
        self._stack: list[int] = []
        self.command = None

    @contextmanager
    def span(self, name: str):
        parent = self._stack[-1] if self._stack else None
        record = [name, time.perf_counter(), None, parent, self.command]
        self._stack.append(len(self.spans))
        self.spans.append(record)
        try:
            yield
        finally:
            record[2] = time.perf_counter()
            self._stack.pop()

    def call(self, name: str, fn, *args, **kwargs):
        with self.span(name):
            return fn(*args, **kwargs)

    def count(self, name: str, n: int = 1) -> None:
        self.counts[name] = self.counts.get(name, 0) + n

    def self_times(self) -> dict[int, float]:
        """Span index -> duration minus the time covered by its children."""
        own = {i: s[2] - s[1] for i, s in enumerate(self.spans)}
        for s in self.spans:
            if s[3] is not None:
                own[s[3]] -= s[2] - s[1]
        return own


def program_modules():
    """The program's layer modules, imported after ``src`` is on sys.path."""
    from morseminmax import (barannikov, cli, coeff, complexes, gen, oracle,
                             selector)
    return SimpleNamespace(barannikov=barannikov, cli=cli, coeff=coeff,
                           complexes=complexes, gen=gen, oracle=oracle,
                           selector=selector)


def _load_valid(t: Tracer, m, path: str):
    with t.span("cli.read"), open(path, encoding="utf-8") as fh:
        text = fh.read()
    c = t.call("complexes.parse", m.complexes.parse_complex, text, check=False)
    t.call("complexes.validate", m.complexes.validate, c)
    return c


def _int_selectors(t: Tracer, m, c) -> None:
    """minmax_int then maxmin_int (through negate), counting scanned prefixes.

    A scan stops at its witness, so it scans witness index + 1 prefixes of
    the global degree, on ``c`` and on ``negate(c)``.
    """
    mm = t.call("selector.minmax_int", m.selector.minmax_int, c)
    neg = t.call("complexes.negate", m.complexes.negate, c)
    sm = t.call("selector.maxmin_int", m.selector.maxmin_int, c)
    lam = m.complexes.global_index(c)  # memoized by now
    scanned = c.points(lam).index(mm[1]) + 1
    scanned += neg.points(c.ambient_dim - lam).index(neg.point(sm[1].name)) + 1
    t.count("selector.int_prefixes_scanned", scanned)


def _selector_report(t: Tracer, m, c, coeffs) -> None:
    _int_selectors(t, m, c)
    seen = set()
    for co in coeffs:
        if co.is_integers or co.token() in seen:
            continue
        seen.add(co.token())
        t.call("selector.minmax_field", m.selector.minmax_field, c, co)
        t.call("selector.maxmin_field", m.selector.maxmin_field, c, co)
    t.call("selector.report", m.selector.selector_report, c, coeffs)


def _reduce(t: Tracer, m, c, co) -> None:
    if co.is_integers:
        outcome = t.call("barannikov.reduce_integer", m.barannikov.reduce_integer, c)
        certified = isinstance(outcome, m.barannikov.Certified)
        t.count("barannikov.certified" if certified else "barannikov.obstructed")
    else:
        name = "barannikov.reduce_q" if co.kind == "Q" else "barannikov.reduce_fp"
        t.call(name, m.barannikov.reduce, c, co)


def replay_validate(t: Tracer, m, cmd) -> None:
    _load_valid(t, m, cmd.path)


def replay_reduce(t: Tracer, m, cmd) -> None:
    co = m.coeff.Coefficients.parse(cmd.coeffs[0])
    _reduce(t, m, _load_valid(t, m, cmd.path), co)


def replay_selector(t: Tracer, m, cmd) -> None:
    coeffs = [m.coeff.Coefficients.parse(tok) for tok in cmd.coeffs]
    _selector_report(t, m, _load_valid(t, m, cmd.path), coeffs)


def replay_verify(t: Tracer, m, _cmd) -> None:
    Co = m.coeff.Coefficients
    lau = t.call("gen.paper_fixture", m.gen.paper_fixture, "laudenbach")
    systems = [m.coeff.INTEGERS, Co.prime_field(2), Co.prime_field(3),
               Co.prime_field(5), Co.rationals()]
    _selector_report(t, m, lau, systems)
    _reduce(t, m, lau, m.coeff.INTEGERS)
    f0 = t.call("gen.paper_fixture", m.gen.paper_fixture, "f0")
    _reduce(t, m, f0, m.coeff.INTEGERS)
    t.call("selector.minmax_int", m.selector.minmax_int, f0)
    t.call("selector.maxmin_int", m.selector.maxmin_int, f0)
    vp = t.call("gen.paper_fixture", m.gen.paper_fixture, "capitanio_vprime")
    _reduce(t, m, vp, Co.rationals())
    t.call("selector.capitanio_criterion", m.selector.capitanio_criterion, vp, "xi2_n")


def replay_fuzz(t: Tracer, m, cmd) -> None:
    Co = m.coeff.Coefficients
    fields = [Co.prime_field(2), Co.prime_field(3), Co.prime_field(5), Co.rationals()]
    for i in range(cmd.trials):
        trial_seed = cmd.fuzz_seed * 1_000_003 + i
        c = t.call("gen.random_admissible_complex", m.gen.random_admissible_complex,
                   trial_seed, max_points=cmd.max_points)
        t.count("input.points", c.n_points)
        entries = [v for k in c.degrees() for row in c.matrix(k) for v in row if v]
        t.count("input.nnz", len(entries))
        bits = max((abs(v).bit_length() for v in entries), default=0)
        t.counts["input.max_bits"] = max(t.counts.get("input.max_bits", 0), bits)
        _battery(t, m, c, trial_seed, fields)


def _battery(t: Tracer, m, c, trial_seed: int, fields) -> None:
    """The calls of ``cli._battery`` in its order, without its comparisons."""
    sel, cx, orc = m.selector, m.complexes, m.oracle
    _int_selectors(t, m, c)
    for field in fields:
        t.call("selector.minmax_field", sel.minmax_field, c, field)
        t.call("selector.maxmin_field", sel.maxmin_field, c, field)
        t.call("oracle.minmax_scan_field", orc.minmax_scan_field, c, field)
    for k in range(c.ambient_dim + 1):
        t.call("barannikov.betti", m.barannikov.betti, c, fields[0], k)
        t.call("oracle.homology", orc.homology, c, fields[0], k)
    neg = t.call("complexes.negate", cx.negate, c)
    t.call("complexes.negate", cx.negate, neg)
    gap = t.call("gen.min_value_gap", m.gen.min_value_gap, c)
    eps = gap / 4 if gap is not None else Fraction(1)
    moved = t.call("gen.perturb_values", m.gen.perturb_values, c, eps, seed=trial_seed)
    _int_selectors(t, m, moved)
    for field in fields:
        t.call("selector.minmax_field", sel.minmax_field, moved, field)


def probe_homology(t: Tracer, m, path: str) -> None:
    """Time rank_over and invariant_factors on the matrices validate reads.

    These repeat work that ``complexes.validate`` already contains, so their
    spans sit outside every command and are not added to its attribution.
    """
    with open(path, encoding="utf-8") as fh:
        c = m.complexes.parse_complex(fh.read(), check=False)
    for k in range(0, c.ambient_dim + 2):
        mat = c.matrix(k)
        if mat and c.points(k):
            t.call("coeff.rank_over", m.coeff.rank_over, [list(r) for r in mat],
                   m.coeff.RATIONALS)
    for k in range(0, c.ambient_dim + 1):
        up = c.matrix(k + 1)
        if up and c.points(k + 1):
            t.call("coeff.invariant_factors", m.coeff.invariant_factors,
                   [list(r) for r in up])


REPLAY = {
    "validate": replay_validate,
    "reduce_q": replay_reduce,
    "reduce_fp": replay_reduce,
    "reduce_z": replay_reduce,
    "selector": replay_selector,
    "verify": replay_verify,
    "fuzz": replay_fuzz,
}
