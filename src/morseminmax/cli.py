"""Command-line interface.

Exit codes: 0 success, 1 validation failure of the input, 2 assertion failure
(verify-paper, fuzz) or an internal inconsistency in any command, 3 usage error.
"""

from __future__ import annotations

import argparse
import os
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
from .grammar import _INT_RE
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
# matrices, whose cost grows steeply and erratically with their entries. The
# cap bounds it on fuzz's own random complexes: on a 2-vCPU x86-64 VM (Python
# 3.11), 5 fuzz trials took at most 0.2 s at 200 points and 0.5 s at 240 over
# 10 seeds, but at 320 points 14 s for one seed of 10, in Smith forms. It does
# not bound the oracle on arbitrary input: on the 197-point
# random_complex_plan(1000, {1: 49, 2: 99, 3: 49}, 4) the Smith form of D_3
# alone took 277 s at commit 03b71f8, once U and V were no longer carried
# (577 s before), measured once on the same VM.
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
    lines = []
    if coeff.is_integers:
        outcome = reduce_integer(c)
        if isinstance(outcome, Obstructed):
            print(f"obstructed column={outcome.column.name} pivot={outcome.pivot}")
            return 0
        lines.append("certified")
        form = outcome.form
    else:
        form = breduce(c, coeff)
    lines += [f"pair upper={upper.name} lower={lower.name}" for upper, lower in form.pairs]
    lines += [f"free {p.name} degree={p.degree} value={p.value}" for p in form.free]
    sys.stdout.write("".join(line + "\n" for line in lines))
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
        order = {p.name: i for i, p in enumerate(c.all_points())}
        for upper, lower in sorted(pairs_by_rank(c, coeff), key=lambda pr: order[pr[0].name]):
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
        if len(parts) != 4 or not (_INT_RE.match(parts[1]) and _INT_RE.match(parts[3])):
            raise _Exit(USAGE_ERROR, "expected single:DEGREE:VALUE:AMBIENT, "
                                     "with integer DEGREE and AMBIENT")
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
    # each selection on the copy moves by at most eps, and is a point of the
    # copy with the copy's own value: distance 0 to c's value is not enough
    checks = [("integer minmax", minmax_int(moved), z.minmax_value),
              ("integer maxmin", maxmin_int(moved), z.maxmin_value)]
    checks += [(f"{e.coeff}: minmax", minmax_field(moved, e.coeff), e.minmax_value)
               for e in entries]
    for what, (value, point), before in checks:
        if abs(value - before) > eps:
            failures.append(f"{what} moved more than the perturbation")
        own = moved.point(point.name)
        if (value, point) != (own.value, own):
            failures.append(f"{what} of the perturbed copy is not its own point: "
                            f"{point.name} at {value}, where the copy has {own.value}")
    return failures


def _usable_cpus() -> int:
    """CPUs this process may run on; 1 where it cannot fork."""
    if not hasattr(os, "fork"):
        return 1
    if hasattr(os, "sched_getaffinity"):
        return len(os.sched_getaffinity(0))
    return os.cpu_count() or 1


def _trial(args, i: int) -> list[str]:
    """The FAIL lines of fuzz trial i."""
    trial_seed = args.seed * 1_000_003 + i
    c = random_admissible_complex(trial_seed, max_points=args.max_points)
    try:
        problems = _battery(c, trial_seed)
    except InternalInconsistencyError as exc:
        problems = [str(exc)]
    return [f"FAIL trial={i} seed={trial_seed}: {msg}" for msg in problems]


def _cmd_fuzz(args) -> int:
    if args.trials < 1 or not 3 <= args.max_points <= ORACLE_POINTS_CAP:
        raise _Exit(USAGE_ERROR, "need --trials >= 1 and "
                                 f"3 <= --max-points <= {ORACLE_POINTS_CAP}")
    # imported here, so that no other command loads the fork machinery
    from .workers import in_order

    # the trials run on every usable CPU, taken from one queue, and print in order
    n = min(_usable_cpus(), args.trials)
    results = in_order(lambda i: _trial(args, i), args.trials, n)
    failures = 0
    try:
        for lines in results:
            for line in lines:
                print(line)
            failures += len(lines)
    finally:
        results.close()  # after an exception, kills and reaps the workers
    print(f"fuzz trials={args.trials} seed={args.seed} "
          f"max_points={args.max_points} failures={failures}")
    return 0 if failures == 0 else 2


def _arg(*flags, **options):
    """One ``add_argument`` call, as a command's entry in ``_COMMANDS`` lists it."""
    return flags, options


_FILE = _arg("file", help="complex file, or - for standard input")
# name -> (run, help, arguments): the one definition of each command, which
# both the full parser and a one-command parser read
_COMMANDS = {
    "validate": (_cmd_validate, "check the complex invariants", [_FILE]),
    "reduce": (_cmd_reduce, "canonical pairing over one coefficient system", [
        _FILE, _arg("--coeff", required=True, metavar="C",
                    help="coefficient token: z, q, or f<p>")]),
    "selector": (_cmd_selector, "minmax/maxmin report", [
        _FILE, _arg("--coeff", required=True, metavar="C1,C2,...",
                    help="comma-separated coefficient tokens"),
        _arg("--machine", action="store_true",
             help="stable key=value records instead of the table")]),
    "negate": (_cmd_negate, "print the complex of the negated function", [_FILE]),
    "restrict": (_cmd_restrict, "restrict to an open value window", [
        _FILE, _arg("--window", required=True, metavar="B:C",
                    help="window bounds, exact rationals separated by a colon; "
                         "write --window=-1:2 when the lower bound is negative")]),
    "oracle": (_cmd_oracle, "independent homology/pairing recomputation", [
        _FILE, _arg("--coeff", required=True, metavar="C")]),
    "fixture": (_cmd_fixture, f"print a bundled fixture ({', '.join(FIXTURE_NAMES)}, "
                              "single:DEG:VALUE:AMBIENT)", [_arg("name")]),
    "verify-paper": (_cmd_verify_paper, "run the bundled fixture assertion suite", []),
    "fuzz": (_cmd_fuzz, "seeded random invariant battery", [
        _arg("--trials", type=int, default=100, metavar="N"),
        _arg("--seed", type=int, default=0, metavar="S"),
        _arg("--max-points", type=int, default=40, metavar="M")]),
}


def _add_arguments(parser, command):
    for flags, options in _COMMANDS[command][2]:
        parser.add_argument(*flags, **options)
    return parser


def _build_parser() -> _Parser:
    """The parser of every command."""
    parser = _Parser(prog="morseminmax",
                     description="Exact canonical forms and critical-value "
                                 "selectors for filtered Morse complexes.")
    sub = parser.add_subparsers(dest="command", required=True,
                                parser_class=_Parser)
    for command, (_, help_text, _) in _COMMANDS.items():
        _add_arguments(sub.add_parser(command, help=help_text), command)
    return parser


def _parse_args(argv):
    """The arguments of ``argv``. Where ``argv[0]`` names a command, only its
    parser is built, as the full parser would build it; the full parser
    parses any other ``argv``, and one with arguments left over, so that it
    words their errors."""
    if argv and argv[0] in _COMMANDS:
        parser = _add_arguments(_Parser(prog=f"morseminmax {argv[0]}"), argv[0])
        args, extra = parser.parse_known_args(argv[1:], argparse.Namespace(command=argv[0]))
        if not extra:
            return args
    return _build_parser().parse_args(argv)


def main(argv=None) -> int:
    try:
        args = _parse_args(sys.argv[1:] if argv is None else argv)
    except SystemExit as exc:
        return exc.code if isinstance(exc.code, int) else USAGE_ERROR
    try:
        return _COMMANDS[args.command][0](args)
    except _Exit as exc:
        if exc.message is not None:
            print(f"error: {exc.message}", file=sys.stderr)
        return exc.code
    except InternalInconsistencyError as exc:
        print(f"error: internal inconsistency: {exc}", file=sys.stderr)
        return 2


if __name__ == "__main__":
    sys.exit(main())
