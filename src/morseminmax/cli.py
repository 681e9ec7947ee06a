"""Command-line interface.

Exit codes: 0 success, 1 validation failure of the input, 2 assertion failure
(verify-paper, fuzz) or an internal inconsistency in any command, 3 usage error.
"""

from __future__ import annotations

import argparse
import sys
from fractions import Fraction

from .barannikov import Certified, Obstructed, betti, reduce as breduce, reduce_integer
from .coeff import Coefficients, INTEGERS
from .complexes import (
    FilteredComplex,
    global_index,
    negate,
    parse_complex,
    parse_value,
    restrict,
    serialize,
    validate,
)
from .errors import InternalInconsistencyError, NotAdmissibleError, ParseError
from .gen import (
    FIXTURE_NAMES,
    min_value_gap,
    paper_fixture,
    perturb_values,
    random_admissible_complex,
    single_point,
)
from .oracle import homology, minmax_scan_field, pairs_by_rank
from .selector import (
    capitanio_criterion,
    maxmin_int,
    minmax_field,
    minmax_int,
    selector_report,
)

USAGE_ERROR = 3
# Largest point count and ambient dimension the oracle takes, and the largest
# fuzz --max-points. The oracle takes dense Smith forms of whole boundary
# matrices, whose cost grows steeply and erratically: on a 2-vCPU x86-64 VM
# (Python 3.11), 5 fuzz trials took at most 1.0 s at 200 points and 2.6 s at
# 240 over 10 seeds, but 40 s for one seed of 3 at 320 points.
ORACLE_POINTS_CAP = 200
_FIELDS = (Coefficients.prime_field(2), Coefficients.prime_field(3),
           Coefficients.prime_field(5), Coefficients.rationals())


class _Exit(Exception):
    """Ends a command with an exit code; ``main`` prints the message, if any."""

    def __init__(self, code: int, message: str | None = None):
        super().__init__(message)
        self.code = code
        self.message = message


class _Parser(argparse.ArgumentParser):
    def error(self, message):
        self.exit(USAGE_ERROR, f"{self.prog}: error: {message}\n")


def _build_parser() -> _Parser:
    parser = _Parser(prog="morseminmax",
                     description="Exact canonical forms and critical-value "
                                 "selectors for filtered Morse complexes.")
    sub = parser.add_subparsers(dest="command", required=True,
                                parser_class=_Parser)

    def add_file(p):
        p.add_argument("file", help="complex file, or - for standard input")

    p = sub.add_parser("validate", help="check the complex invariants")
    add_file(p)

    p = sub.add_parser("reduce", help="canonical pairing over one coefficient system")
    add_file(p)
    p.add_argument("--coeff", required=True, metavar="C",
                   help="coefficient token: z, q, or f<p>")

    p = sub.add_parser("selector", help="minmax/maxmin report")
    add_file(p)
    p.add_argument("--coeff", required=True, metavar="C1,C2,...",
                   help="comma-separated coefficient tokens")
    p.add_argument("--machine", action="store_true",
                   help="stable key=value records instead of the table")

    p = sub.add_parser("negate", help="print the complex of the negated function")
    add_file(p)

    p = sub.add_parser("restrict", help="restrict to an open value window")
    add_file(p)
    p.add_argument("--window", required=True, metavar="B:C",
                   help="window bounds, exact rationals separated by a colon; "
                        "write --window=-1:2 when the lower bound is negative")

    p = sub.add_parser("oracle", help="independent homology/pairing recomputation")
    add_file(p)
    p.add_argument("--coeff", required=True, metavar="C")

    p = sub.add_parser("fixture", help="print a bundled fixture "
                                       f"({', '.join(FIXTURE_NAMES)}, "
                                       "single:DEG:VALUE:AMBIENT)")
    p.add_argument("name")

    sub.add_parser("verify-paper", help="run the bundled fixture assertion suite")

    p = sub.add_parser("fuzz", help="seeded random invariant battery")
    p.add_argument("--trials", type=int, default=100, metavar="N")
    p.add_argument("--seed", type=int, default=0, metavar="S")
    p.add_argument("--max-points", type=int, default=40, metavar="M")

    return parser


def _read_input(path: str) -> bytes | str:
    """The raw input; ``parse_complex`` decodes it and reports bad bytes."""
    if path == "-":
        return getattr(sys.stdin, "buffer", sys.stdin).read()
    try:
        with open(path, "rb") as fh:
            return fh.read()
    except OSError as exc:
        raise _Exit(USAGE_ERROR, f"cannot read {path}: {exc}") from None


def _load(path: str) -> FilteredComplex:
    try:
        return parse_complex(_read_input(path), check=False)
    except ParseError as exc:
        raise _Exit(1, str(exc)) from None


def _valid(c: FilteredComplex) -> FilteredComplex:
    report = validate(c)
    if not report.ok:
        for line in report.describe():
            print(line)
        raise _Exit(1)
    return c


def _parse_coeff(token: str) -> Coefficients:
    try:
        return Coefficients.parse(token)
    except ValueError as exc:
        raise _Exit(USAGE_ERROR, str(exc)) from None


def _fmt_selected(value, point) -> str:
    return f"{value} @ {point.name}"


def _cmd_validate(args) -> int:
    report = validate(_load(args.file))
    for line in report.describe():
        print(line)
    print(f"ok {'yes' if report.ok else 'no'}")
    print(f"admissible {'yes' if report.admissible else 'no'}")
    return 0 if report.ok else 1


def _cmd_reduce(args) -> int:
    coeff = _parse_coeff(args.coeff)
    c = _valid(_load(args.file))
    if coeff.is_integers:
        outcome = reduce_integer(c)
        if isinstance(outcome, Obstructed):
            print(f"obstructed column={outcome.column.name} pivot={outcome.pivot}")
            return 0
        print("certified")
        form = outcome.form
    else:
        form = breduce(c, coeff)
    for upper, lower in form.pairs:
        print(f"pair upper={upper.name} lower={lower.name}")
    for p in form.free:
        print(f"free {p.name} degree={p.degree} value={p.value}")
    return 0


def _cmd_selector(args) -> int:
    coeffs = [_parse_coeff(t) for t in args.coeff.split(",") if t]
    if not coeffs:
        raise _Exit(USAGE_ERROR, "no coefficient systems given")
    c = _valid(_load(args.file))
    try:
        report = selector_report(c, coeffs)
    except NotAdmissibleError as exc:
        raise _Exit(1, f"input not selector-admissible: {exc}") from None
    flags = (f"int_equal={str(report.int_equal).lower()} "
             f"chain_ok={str(report.chain_ok).lower()} "
             f"propagation_ok={str(report.propagation_ok).lower()}")
    if args.machine:
        for e in report.entries:
            print(f"selector coeff={e.coeff.token()} "
                  f"minmax={e.minmax_value} minmax_witness={e.minmax_point.name} "
                  f"maxmin={e.maxmin_value} maxmin_witness={e.maxmin_point.name} "
                  f"equal={str(e.equal).lower()}")
        print(f"flags {flags}")
    else:
        print(f"{'coeff':<6} {'minmax':<16} {'maxmin':<16} equal")
        for e in report.entries:
            print(f"{e.coeff.token():<6} "
                  f"{_fmt_selected(e.minmax_value, e.minmax_point):<16} "
                  f"{_fmt_selected(e.maxmin_value, e.maxmin_point):<16} "
                  f"{'yes' if e.equal else 'no'}")
        print(f"flags: {flags}")
    return 0


def _cmd_negate(args) -> int:
    sys.stdout.write(serialize(negate(_valid(_load(args.file)))))
    return 0


def _cmd_restrict(args) -> int:
    bounds = args.window.split(":")
    if len(bounds) != 2:
        raise _Exit(USAGE_ERROR, f"bad window {args.window!r}, expected B:C")
    try:
        lo, hi = map(parse_value, bounds)
    except ValueError:
        raise _Exit(USAGE_ERROR, f"bad window bounds {args.window!r}") from None
    c = _valid(_load(args.file))
    try:
        out = restrict(c, lo, hi)
    except ValueError as exc:
        raise _Exit(1, str(exc)) from None
    sys.stdout.write(serialize(out))
    return 0


def _cmd_oracle(args) -> int:
    coeff = _parse_coeff(args.coeff)
    c = _load(args.file)
    if max(c.n_points, c.ambient_dim) > ORACLE_POINTS_CAP:
        raise _Exit(1, f"oracle takes at most {ORACLE_POINTS_CAP} points and ambient "
                       f"dimension {ORACLE_POINTS_CAP}; got {c.n_points} and {c.ambient_dim}")
    _valid(c)
    for k in range(c.ambient_dim + 1):
        h = homology(c, coeff, k)
        torsion = ",".join(str(d) for d in h.torsion) or "-"
        print(f"homology degree={k} rank={h.rank} torsion={torsion}")
    if coeff.is_field:
        pairs = sorted(pairs_by_rank(c, coeff),
                       key=lambda pr: (pr[0].value, pr[0].name))
        for upper, lower in pairs:
            print(f"pair upper={upper.name} lower={lower.name}")
        try:
            value, point = minmax_scan_field(c, coeff)
        except NotAdmissibleError:
            pass  # the oracle's own homology has no single global class
        else:
            print(f"scan minmax={value} witness={point.name}")
    return 0


def _cmd_fixture(args) -> int:
    name = args.name
    if name.startswith("single:"):
        parts = name.split(":")
        if len(parts) != 4:
            raise _Exit(USAGE_ERROR, "expected single:DEGREE:VALUE:AMBIENT")
        try:
            c = single_point(int(parts[1]), parse_value(parts[2]), int(parts[3]))
        except ValueError as exc:
            raise _Exit(USAGE_ERROR, f"bad single fixture: {exc.args[0]}") from None
    else:
        try:
            c = paper_fixture(name)
        except ValueError as exc:
            raise _Exit(USAGE_ERROR, str(exc)) from None
    sys.stdout.write(serialize(c))
    return 0


def _verify_checks():
    """The bundled end-to-end fixture assertions."""
    lau = paper_fixture("laudenbach")
    expected = {
        "z": (Fraction(3), "xi3_n", Fraction(2), "xi2_n"),
        "f2": (Fraction(3), "xi3_n", Fraction(3), "xi3_n"),
        "f3": (Fraction(2), "xi2_n", Fraction(2), "xi2_n"),
        "f5": (Fraction(2), "xi2_n", Fraction(2), "xi2_n"),
        "q": (Fraction(2), "xi2_n", Fraction(2), "xi2_n"),
    }

    def check_table():
        report = selector_report(lau, (INTEGERS, *_FIELDS))
        for tok, (mv, mp, sv, sp) in expected.items():
            e = report.entry(tok)
            got = (e.minmax_value, e.minmax_point.name,
                   e.maxmin_value, e.maxmin_point.name)
            if got != (mv, mp, sv, sp):
                return f"{tok}: got {got}"
        if report.int_equal or not report.chain_ok or not report.propagation_ok:
            return "flags wrong"
        return None

    def check_obstruction():
        outcome = reduce_integer(lau)
        if not isinstance(outcome, Obstructed):
            return "expected an obstruction"
        if outcome.column.name != "xi1_np1" or abs(outcome.pivot) != 2:
            return f"witness {outcome.column.name}/{outcome.pivot}"
        return None

    def check_f0():
        f0 = paper_fixture("f0")
        outcome = reduce_integer(f0)
        if not isinstance(outcome, Certified):
            return "expected a certificate"
        if outcome.form.free_names() != {"xi2_n"}:
            return f"free set {outcome.form.free_names()}"
        if minmax_int(f0) != (Fraction(2), f0.point("xi2_n")):
            return "integer minmax misplaced"
        if maxmin_int(f0) != (Fraction(2), f0.point("xi2_n")):
            return "integer maxmin misplaced"
        return None

    def check_criterion_refuted():
        vp = paper_fixture("capitanio_vprime")
        free = breduce(vp, Coefficients.rationals()).free_names()
        if free != {"xi3_n"}:
            return f"free set {free}"
        if not capitanio_criterion(vp, "xi2_n"):
            return "criterion unexpectedly fails on xi2_n"
        return None

    return [
        ("selector-table", check_table),
        ("integer-obstruction", check_obstruction),
        ("f0-certificate", check_f0),
        ("criterion-refutation", check_criterion_refuted),
    ]


def _cmd_verify_paper(_args) -> int:
    failures = 0
    for name, check in _verify_checks():
        try:
            detail = check()
        except InternalInconsistencyError as exc:
            detail = str(exc)
        if detail is None:
            print(f"PASS {name}")
        else:
            failures += 1
            print(f"FAIL {name}: {detail}")
    print(f"{'all checks passed' if not failures else f'{failures} check(s) failed'}")
    return 0 if failures == 0 else 2


def _battery(c: FilteredComplex, trial_seed: int) -> list[str]:
    """Invariant battery for one admissible complex; returns failure strings."""
    failures = []
    report = selector_report(c, (INTEGERS, *_FIELDS))  # raises unless maxmin = minmax
    z, *entries = report.entries
    for e in entries:
        mm = e.minmax_value, e.minmax_point
        if (scan := minmax_scan_field(c, e.coeff)) != mm:
            failures.append(f"{e.coeff}: scan {scan} != minmax {mm}")
    if not report.chain_ok:
        values = " ".join(f"{e.coeff}={e.minmax_value}" for e in entries)
        failures.append(f"chain violated: {z.maxmin_value} <= {values} <= {z.minmax_value}")
    if not report.propagation_ok:
        failures.append("integer selectors agree but a field value differs")
    for k in range(c.ambient_dim + 1):
        if betti(c, _FIELDS[0], k) != homology(c, _FIELDS[0], k).rank:
            failures.append(f"betti/homology mismatch in degree {k}")
    if negate(negate(c)) != c:
        failures.append("negation is not an involution")
    # maxmin_* take the negated complex's index as ambient - lambda unchecked
    if global_index(negate(c)) != c.ambient_dim - global_index(c):
        failures.append("global index of the negation is not ambient minus lambda")
    gap = min_value_gap(c)
    eps = gap / 4 if gap is not None else Fraction(1)
    moved = perturb_values(c, eps, seed=trial_seed)
    if abs(minmax_int(moved)[0] - z.minmax_value) > eps:
        failures.append("integer minmax moved more than the perturbation")
    if abs(maxmin_int(moved)[0] - z.maxmin_value) > eps:
        failures.append("integer maxmin moved more than the perturbation")
    for e in entries:
        if abs(minmax_field(moved, e.coeff)[0] - e.minmax_value) > eps:
            failures.append(f"{e.coeff}: minmax moved more than the perturbation")
    return failures


def _cmd_fuzz(args) -> int:
    if args.trials < 1 or not 3 <= args.max_points <= ORACLE_POINTS_CAP:
        raise _Exit(USAGE_ERROR, "need --trials >= 1 and "
                                 f"3 <= --max-points <= {ORACLE_POINTS_CAP}")
    failures = 0
    for i in range(args.trials):
        trial_seed = args.seed * 1_000_003 + i
        c = random_admissible_complex(trial_seed, max_points=args.max_points)
        try:
            problems = _battery(c, trial_seed)
        except InternalInconsistencyError as exc:
            problems = [str(exc)]
        for msg in problems:
            print(f"FAIL trial={i} seed={trial_seed}: {msg}")
        failures += len(problems)
    print(f"fuzz trials={args.trials} seed={args.seed} "
          f"max_points={args.max_points} failures={failures}")
    return 0 if failures == 0 else 2


_COMMANDS = {
    "validate": _cmd_validate,
    "reduce": _cmd_reduce,
    "selector": _cmd_selector,
    "negate": _cmd_negate,
    "restrict": _cmd_restrict,
    "oracle": _cmd_oracle,
    "fixture": _cmd_fixture,
    "verify-paper": _cmd_verify_paper,
    "fuzz": _cmd_fuzz,
}


def main(argv=None) -> int:
    parser = _build_parser()
    try:
        args = parser.parse_args(argv)
    except SystemExit as exc:
        return exc.code if isinstance(exc.code, int) else USAGE_ERROR
    try:
        return _COMMANDS[args.command](args)
    except _Exit as exc:
        if exc.message is not None:
            print(f"error: {exc.message}", file=sys.stderr)
        return exc.code
    except InternalInconsistencyError as exc:
        print(f"error: internal inconsistency: {exc}", file=sys.stderr)
        return 2


if __name__ == "__main__":
    sys.exit(main())
