"""Command-line interface.

Exit codes: 0 success, 1 validation failure of the input, 2 assertion failure
(verify-paper, fuzz), 3 usage error.
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
    restrict,
    serialize,
    validate,
)
from .errors import (
    EndpointCriticalError,
    NotAdmissibleError,
    ParseError,
)
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
    maxmin_field,
    maxmin_int,
    minmax_field,
    minmax_int,
    selector_report,
)

USAGE_ERROR = 3


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


def _read_input(path: str) -> bytes | str | None:
    """The raw input; ``parse_complex`` decodes it and reports bad bytes."""
    if path == "-":
        return getattr(sys.stdin, "buffer", sys.stdin).read()
    try:
        with open(path, "rb") as fh:
            return fh.read()
    except OSError as exc:
        print(f"error: cannot read {path}: {exc}", file=sys.stderr)
        return None


def _load(path: str) -> FilteredComplex | int:
    text = _read_input(path)
    if text is None:
        return USAGE_ERROR
    try:
        return parse_complex(text, check=False)
    except ParseError as exc:
        print(f"error: {exc}", file=sys.stderr)
        return 1


def _load_valid(path: str) -> FilteredComplex | int:
    c = _load(path)
    if isinstance(c, int):
        return c
    report = validate(c)
    if not report.ok:
        for line in report.describe():
            print(line)
        return 1
    return c


def _parse_coeff(token: str):
    try:
        return Coefficients.parse(token)
    except ValueError as exc:
        print(f"error: {exc}", file=sys.stderr)
        return None


def _fmt_selected(value, point) -> str:
    return f"{value} @ {point.name}"


def _cmd_validate(args) -> int:
    c = _load(args.file)
    if isinstance(c, int):
        return c
    report = validate(c)
    for line in report.describe():
        print(line)
    print(f"ok {'yes' if report.ok else 'no'}")
    print(f"admissible {'yes' if report.admissible else 'no'}")
    return 0 if report.ok else 1


def _cmd_reduce(args) -> int:
    coeff = _parse_coeff(args.coeff)
    if coeff is None:
        return USAGE_ERROR
    c = _load_valid(args.file)
    if isinstance(c, int):
        return c
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
    tokens = [t for t in args.coeff.split(",") if t]
    coeffs = []
    for t in tokens:
        co = _parse_coeff(t)
        if co is None:
            return USAGE_ERROR
        coeffs.append(co)
    if not coeffs:
        print("error: no coefficient systems given", file=sys.stderr)
        return USAGE_ERROR
    c = _load_valid(args.file)
    if isinstance(c, int):
        return c
    try:
        report = selector_report(c, coeffs)
    except NotAdmissibleError as exc:
        print(f"error: input not selector-admissible: {exc}", file=sys.stderr)
        return 1
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
    c = _load_valid(args.file)
    if isinstance(c, int):
        return c
    sys.stdout.write(serialize(negate(c)))
    return 0


def _cmd_restrict(args) -> int:
    parts = args.window.split(":")
    if len(parts) != 2:
        print(f"error: bad window {args.window!r}, expected B:C", file=sys.stderr)
        return USAGE_ERROR
    try:
        lo, hi = Fraction(parts[0]), Fraction(parts[1])
    except (ValueError, ZeroDivisionError):
        print(f"error: bad window bounds {args.window!r}", file=sys.stderr)
        return USAGE_ERROR
    c = _load_valid(args.file)
    if isinstance(c, int):
        return c
    try:
        out = restrict(c, lo, hi)
    except (EndpointCriticalError, ValueError) as exc:
        print(f"error: {exc}", file=sys.stderr)
        return 1
    sys.stdout.write(serialize(out))
    return 0


def _cmd_oracle(args) -> int:
    coeff = _parse_coeff(args.coeff)
    if coeff is None:
        return USAGE_ERROR
    c = _load_valid(args.file)
    if isinstance(c, int):
        return c
    for k in range(c.ambient_dim + 1):
        h = homology(c, coeff, k)
        torsion = ",".join(str(d) for d in h.torsion) or "-"
        print(f"homology degree={k} rank={h.rank} torsion={torsion}")
    if coeff.is_field:
        pairs = sorted(pairs_by_rank(c, coeff),
                       key=lambda pr: (pr[0].value, pr[0].name))
        for upper, lower in pairs:
            print(f"pair upper={upper.name} lower={lower.name}")
        if validate(c).admissible:
            value, point = minmax_scan_field(c, coeff)
            print(f"scan minmax={value} witness={point.name}")
    return 0


def _cmd_fixture(args) -> int:
    name = args.name
    if name.startswith("single:"):
        parts = name.split(":")
        if len(parts) != 4:
            print("error: expected single:DEGREE:VALUE:AMBIENT", file=sys.stderr)
            return USAGE_ERROR
        try:
            c = single_point(int(parts[1]), Fraction(parts[2]), int(parts[3]))
        except (ValueError, ZeroDivisionError) as exc:
            print(f"error: bad single fixture: {exc}", file=sys.stderr)
            return USAGE_ERROR
    else:
        try:
            c = paper_fixture(name)
        except ValueError as exc:
            print(f"error: {exc}", file=sys.stderr)
            return USAGE_ERROR
    sys.stdout.write(serialize(c))
    return 0


def _verify_checks():
    """The bundled end-to-end fixture assertions."""
    lau = paper_fixture("laudenbach")
    systems = [INTEGERS, Coefficients.prime_field(2), Coefficients.prime_field(3),
               Coefficients.prime_field(5), Coefficients.rationals()]
    report = selector_report(lau, systems)
    expected = {
        "z": (Fraction(3), "xi3_n", Fraction(2), "xi2_n"),
        "f2": (Fraction(3), "xi3_n", Fraction(3), "xi3_n"),
        "f3": (Fraction(2), "xi2_n", Fraction(2), "xi2_n"),
        "f5": (Fraction(2), "xi2_n", Fraction(2), "xi2_n"),
        "q": (Fraction(2), "xi2_n", Fraction(2), "xi2_n"),
    }

    def check_table():
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
        detail = check()
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
    fields = [Coefficients.prime_field(2), Coefficients.prime_field(3),
              Coefficients.prime_field(5), Coefficients.rationals()]
    mm_int = minmax_int(c)
    sm_int = maxmin_int(c)
    field_vals = {}
    for field in fields:
        mm = minmax_field(c, field)
        sm = maxmin_field(c, field)
        scan = minmax_scan_field(c, field)
        field_vals[field.token()] = mm[0]
        if mm != sm:
            failures.append(f"{field}: minmax {mm} != maxmin {sm}")
        if scan != mm:
            failures.append(f"{field}: scan {scan} != minmax {mm}")
        if not (sm_int[0] <= mm[0] <= mm_int[0]):
            failures.append(f"{field}: chain violated {sm_int[0]} <= {mm[0]} <= {mm_int[0]}")
    if mm_int[0] == sm_int[0] and any(v != mm_int[0] for v in field_vals.values()):
        failures.append("integer selectors agree but a field value differs")
    for k in range(c.ambient_dim + 1):
        if betti(c, fields[0], k) != homology(c, fields[0], k).rank:
            failures.append(f"betti/homology mismatch in degree {k}")
    if negate(negate(c)) != c:
        failures.append("negation is not an involution")
    # maxmin_* take the negated complex's index as ambient - lambda unchecked
    if global_index(negate(c)) != c.ambient_dim - global_index(c):
        failures.append("global index of the negation is not ambient minus lambda")
    gap = min_value_gap(c)
    eps = gap / 4 if gap is not None else Fraction(1)
    moved = perturb_values(c, eps, seed=trial_seed)
    if abs(minmax_int(moved)[0] - mm_int[0]) > eps:
        failures.append("integer minmax moved more than the perturbation")
    if abs(maxmin_int(moved)[0] - sm_int[0]) > eps:
        failures.append("integer maxmin moved more than the perturbation")
    for field in fields:
        if abs(minmax_field(moved, field)[0] - field_vals[field.token()]) > eps:
            failures.append(f"{field}: minmax moved more than the perturbation")
    return failures


def _cmd_fuzz(args) -> int:
    if args.trials < 1 or args.max_points < 3:
        print("error: need --trials >= 1 and --max-points >= 3", file=sys.stderr)
        return USAGE_ERROR
    failures = 0
    for i in range(args.trials):
        trial_seed = args.seed * 1_000_003 + i
        c = random_admissible_complex(trial_seed, max_points=args.max_points)
        problems = _battery(c, trial_seed)
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
    return _COMMANDS[args.command](args)


if __name__ == "__main__":
    sys.exit(main())
