#!/usr/bin/env python3
"""End-to-end and per-layer benchmark of the morseminmax command line.

Run from the repository root:

    python3 bench/run.py --workload dense-growth --seed 1 --seconds 30 --trace 0

The benchmark drives ``morseminmax.cli.main(argv)`` in this one
single-threaded process, the code the ``morseminmax`` console script runs,
captures stdout and checks every output against the construction truth of
its generated input (never against a second answer of the program). The
program sees only the generated ``.cplx`` files, or the ``fuzz`` seed.

Workloads (inputs are a pure function of ``--seed``; sizes are fixed, so a
seed changes only the structure of the inputs):

* ``dense-growth``: ``gen.random_complex_plan`` with sizes {1: q, 2: 2q+1,
  3: q}; dense triangular conjugation makes entry bits grow with n. It runs
  ``validate`` and ``selector --coeff z,q,f2,f3 --machine`` on six complexes
  of 61 points, ``validate``, ``reduce --coeff f3`` and ``reduce --coeff z``
  on two of 141 points, and ``verify-paper`` plus ``selector`` on the
  ``laudenbach`` and ``f0`` fixtures as correctness guards. The integer
  prefix scans and the Smith forms on wide entries do most of the work.
* ``sparse-slides``: the handle-slide family of ``slides.py``, entries of at
  most 7 bits while n grows. It runs ``validate``, ``reduce --coeff f2`` and
  ``reduce --coeff z`` on two complexes of 201 points and one of 301, and
  ``validate`` and ``reduce --coeff q`` on two of 101. Column reduction,
  normal-form verification and dense storage in dimension alone; it never
  runs ``selector``.
* ``fuzz-small``: sixteen ``fuzz --trials 30 --max-points 40`` commands. The
  same layers through many calls on complexes of at most 40 points, so
  per-call set-up and broken memoization show; the only workload that runs
  ``oracle`` and ``gen.perturb_values``.

Where the layers stop scaling on a 2-vCPU x86-64 VM (Python 3.11), measured
once while sizing the workloads: dense ``validate`` takes 0.1-0.4 s at 141
and 161 points, 0.2-2.1 s at 181, and did not finish within 38 s for one seed
in three at 201 (the torsion Smith form on ~50-bit entries); sparse ``reduce
--coeff q`` takes 0.9 s at 101 points and 7.3 s at 201 (dense Fraction
normal-form verification); ``maxmin_int`` on a sparse complex of 201 points
takes 68 s against 1.3 s for ``minmax_int``; dense ``selector`` takes 1.1 s
at 61 points, 3.3 s at 81 and 13.5 s at 121.

Steadiness: on that VM one command repeated has an interquartile range of
15-18% of its median, and neither pinning to a CPU, fixing the hash seed nor
dividing each sample by an adjacent reference sample narrows it. The machine
also drifts: the median of one command over ten 30 s windows had an
interquartile range of 28%, while the ratio of its summed time to the summed
time of a fixed reference loop run between commands had 4.8%. So a run
repeats the command list in passes for ``--seconds`` seconds, each command
after a ``gc.collect()`` and a reference sample, and each workload holds
several inputs of each size so that their structure averages out. The
reported times are scaled to nominal machine speed, where the reference loop
takes ``REF_NOMINAL_S``: ``wall_s`` is the mean pass total and ``setup_s``
the median of three complete set-ups (fresh import, generation, writing);
each is multiplied by ``REF_NOMINAL_S`` over the mean of the reference
samples taken between its own commands or set-ups. The raw figures and the
reference means are printed above the result line.

With ``--trace 1`` every command runs untraced and is then replayed traced
(``replay.py``), back to back: the replay calls the layers' public functions
in the CLI's order. One more replay of the first command of each kind runs
under ``tracemalloc``. The run reports the per-layer metrics and writes the
spans to ``.bench_out/<workload>/``.

The last line of stdout is one JSON object with ``correct``, ``attempted``,
``failed`` and ``metrics``. A command counts as failed on a nonzero exit, a
wrong output, an exception, or when it exceeds its time budget (``timeout``).
"""

from __future__ import annotations

import argparse
import contextlib
import gc
import hashlib
import io
import json
import os
import resource
import signal
import statistics
import sys
import time
import tracemalloc
from dataclasses import dataclass, field
from fractions import Fraction
from pathlib import Path

from replay import REPLAY, Tracer, probe_homology, program_modules
from slides import slid_complex

ROOT = Path(__file__).resolve().parent.parent
SRC = ROOT / "src"
DATA = ROOT / "data"
OUT = ROOT / ".bench_out"

SETUP_REPEATS = 3
SETUP_REF_SAMPLES = 3
COMMAND_BUDGET_S = 60.0
HARD_LIMIT_S = 170.0  # the whole process, set-up included
SELECTOR_COEFFS = ("z", "q", "f2", "f3")
# Workload sizes: several inputs of each size, so their structure averages out.
DENSE_SELECTOR_Q = (15, 15, 15, 15, 15, 15)  # 61 points
DENSE_REDUCE_Q = (35, 35)                # 141 points
SPARSE_INPUTS = ((50, ("f2", "z")), (50, ("f2", "z")), (75, ("f2", "z")),
                 (25, ("q",)), (25, ("q",)))  # 201, 201, 301, 101, 101 points
FUZZ_COMMANDS = 16
FUZZ_TRIALS = 30
# About the reference loop's mean time on a 2-vCPU x86-64 VM (Python 3.11).
REF_NOMINAL_S = 0.02
FUZZ_MAX_POINTS = 40

# Every workload reports every end-to-end metric, so these are the ones all
# three share. Times per command kind are zero where a workload does not run
# that kind, so they are reported with the layers, as cli.*.
END_TO_END = {"setup_s": "s", "wall_s": "s", "peak_rss_mb": "MB"}

KIND_METRICS = {
    "selector": "cli.selector_s",
    "validate": "cli.validate_s",
    "reduce_q": "cli.reduce_q_s",
    "reduce_fp": "cli.reduce_fp_s",
    "reduce_z": "cli.reduce_z_s",
}
SPAN_METRICS = (
    "selector.minmax_int", "selector.maxmin_int", "selector.minmax_field",
    "selector.maxmin_field", "barannikov.reduce_q", "barannikov.reduce_fp",
    "barannikov.reduce_integer", "barannikov.betti", "complexes.validate",
    "coeff.invariant_factors", "coeff.rank_over", "complexes.parse",
    "complexes.negate", "oracle.minmax_scan_field", "oracle.homology",
    "gen.random_admissible_complex", "gen.perturb_values",
)
COUNT_METRICS = (
    "selector.int_prefixes_scanned", "barannikov.certified",
    "barannikov.obstructed", "input.points", "input.nnz",
)
PER_LAYER = {
    **{f"{name}_s": "s" for name in SPAN_METRICS},
    **{name: "count" for name in COUNT_METRICS},
    "input.max_bits": "bits",
    **{name: "s" for name in KIND_METRICS.values()},
    "cli.fuzz_trials_per_s": "trials/s",
    "cli.failed_ops_frac": "ratio",
    "cli.unattributed_s": "s",
    "trace.overhead_frac": "ratio",
    "trace.tracemalloc_peak_mb": "MB",
    "ref.loop_s": "s",
}


@dataclass
class Command:
    kind: str
    argv: list[str]
    expected: list[str]           # stdout lines, in order unless ``unordered``
    unordered: bool = False
    path: str | None = None
    coeffs: tuple[str, ...] = ()
    trials: int = 0
    fuzz_seed: int = 0
    max_points: int = 0


@dataclass
class Workload:
    commands: list[Command]
    inputs: list[dict] = field(default_factory=list)  # one record per generated file


# ---------------------------------------------------------------------------
# inputs and their construction truth

def _describe(name: str, text: str, free: str, pairs) -> dict:
    """Load descriptors of a written input, read from its text."""
    degree_values: dict[str, tuple[int, Fraction]] = {}
    nnz = bits = 0
    for line in text.splitlines():
        fields = line.split()
        if fields[0] == "point":
            degree_values[fields[1]] = (int(fields[2]), Fraction(fields[3]))
        elif fields[0] == "boundary":
            for term in fields[3:]:
                nnz += 1
                bits = max(bits, abs(int(term.split("*")[0])).bit_length())
    free_degree, free_value = degree_values[free]
    same_degree = sorted(v for d, v in degree_values.values() if d == free_degree)
    return {
        "name": name, "points": len(degree_values), "nnz": nnz, "max_bits": bits,
        "free": free, "free_degree": free_degree, "free_value": str(free_value),
        "free_index": same_degree.index(free_value), "pairs": sorted(pairs),
        "sha256": hashlib.sha256(text.encode()).hexdigest(),
    }


def _write(outdir: Path, name: str, text: str) -> str:
    path = outdir / f"{name}.cplx"
    path.write_text(text, encoding="utf-8")
    return str(path.relative_to(ROOT))


def _validate_cmd(rec) -> Command:
    return Command("validate", ["validate", rec["path"]],
                   ["ok yes", "admissible yes"], path=rec["path"])


def _reduce_cmd(rec, token: str) -> Command:
    kind = {"z": "reduce_z", "q": "reduce_q"}.get(token, "reduce_fp")
    lines = [f"pair upper={u} lower={l}" for u, l in rec["pairs"]]
    lines.append(f"free {rec['free']} degree={rec['free_degree']} value={rec['free_value']}")
    if token == "z":
        lines.append("certified")
    return Command(kind, ["reduce", rec["path"], "--coeff", token], lines,
                   unordered=True, path=rec["path"], coeffs=(token,))


def _selector_cmd(path: str, rows: dict[str, tuple[str, str, str, str]],
                  int_equal: bool) -> Command:
    """``rows`` maps a token to (minmax, its witness, maxmin, its witness)."""
    lines = [f"selector coeff={tok} minmax={a} minmax_witness={aw} maxmin={b} "
             f"maxmin_witness={bw} equal={str(a == b).lower()}"
             for tok, (a, aw, b, bw) in rows.items()]
    lines.append(f"flags int_equal={str(int_equal).lower()} chain_ok=true "
                 "propagation_ok=true")
    return Command("selector",
                   ["selector", path, "--coeff", ",".join(rows), "--machine"],
                   lines, path=path, coeffs=tuple(rows))


def _free_selector_cmd(rec) -> Command:
    """Every selector of a complex with one free point and unit pivots sits there."""
    at = (rec["free_value"], rec["free"]) * 2
    return _selector_cmd(rec["path"], {tok: at for tok in SELECTOR_COEFFS}, True)


def _fixture_guards() -> list[Command]:
    lau = str((DATA / "laudenbach.cplx").relative_to(ROOT))
    f0 = str((DATA / "f0.cplx").relative_to(ROOT))
    # README table: the integer selectors split, the field value depends on p
    lau_rows = {"z": ("3", "xi3_n", "2", "xi2_n"), "q": ("2", "xi2_n", "2", "xi2_n"),
                "f2": ("3", "xi3_n", "3", "xi3_n"), "f3": ("2", "xi2_n", "2", "xi2_n")}
    f0_rows = {tok: ("2", "xi2_n", "2", "xi2_n") for tok in SELECTOR_COEFFS}
    verify = Command("verify", ["verify-paper"],
                     ["PASS selector-table", "PASS integer-obstruction",
                      "PASS f0-certificate", "PASS criterion-refutation",
                      "all checks passed"])
    return [_selector_cmd(lau, lau_rows, False), _selector_cmd(f0, f0_rows, True), verify]


def _dense_input(seed: int, index: int, q: int, m, outdir: Path) -> dict:
    c, plan = m.gen.random_complex_plan(seed * 1000 + index, {1: q, 2: 2 * q + 1, 3: q}, 4)
    name = f"dense{4 * q + 1}-{index}"
    text = m.complexes.serialize(c)
    rec = _describe(name, text, plan.free[0], plan.pairs)
    rec["path"] = _write(outdir, name, text)
    return rec


def build_dense(seed: int, m, outdir: Path) -> Workload:
    commands, recs = [], []
    for index, q in enumerate(DENSE_SELECTOR_Q):
        rec = _dense_input(seed, index, q, m, outdir)
        commands += [_validate_cmd(rec), _free_selector_cmd(rec)]
        recs.append(rec)
    for index, q in enumerate(DENSE_REDUCE_Q, start=len(recs)):
        rec = _dense_input(seed, index, q, m, outdir)
        commands += [_validate_cmd(rec), _reduce_cmd(rec, "f3"), _reduce_cmd(rec, "z")]
        recs.append(rec)
    return Workload(commands + _fixture_guards(), recs)


def build_sparse(seed: int, _m, outdir: Path) -> Workload:
    commands, recs = [], []
    for index, (q, tokens) in enumerate(SPARSE_INPUTS):
        sc = slid_complex(seed * 1000 + index, q)
        name = f"slides{sc.points}-{index}"
        rec = _describe(name, sc.text, sc.free, sc.pairs)
        rec["path"] = _write(outdir, name, sc.text)
        commands.append(_validate_cmd(rec))
        commands += [_reduce_cmd(rec, tok) for tok in tokens]
        recs.append(rec)
    return Workload(commands, recs)


def build_fuzz(seed: int, _m, _outdir: Path) -> Workload:
    commands = []
    for index in range(FUZZ_COMMANDS):
        fuzz_seed = seed * 1000 + index
        argv = ["fuzz", "--trials", str(FUZZ_TRIALS), "--seed", str(fuzz_seed),
                "--max-points", str(FUZZ_MAX_POINTS)]
        summary = (f"fuzz trials={FUZZ_TRIALS} seed={fuzz_seed} "
                   f"max_points={FUZZ_MAX_POINTS} failures=0")
        commands.append(Command("fuzz", argv, [summary], trials=FUZZ_TRIALS,
                                fuzz_seed=fuzz_seed, max_points=FUZZ_MAX_POINTS))
    return Workload(commands)


WORKLOADS = {"dense-growth": build_dense, "sparse-slides": build_sparse,
            "fuzz-small": build_fuzz}


# ---------------------------------------------------------------------------
# running commands

def reference_seconds() -> float:
    """Time one run of a fixed loop of Fraction, big-integer and dict work.

    The loop uses the interpreter the way the program does, so its time
    follows the machine's speed, which can drift by 30% over minutes on a
    shared VM.
    """
    start = time.perf_counter()
    rows = [[(i * 7919 + j * 104729) % 1009 - 504 for j in range(40)] for i in range(40)]
    for _ in range(3):
        acc = Fraction(0)
        for i in range(1, 400):
            acc += Fraction(i, i + 1) * Fraction(rows[i % 40][i % 37], 7)
        big = 1
        for row in rows:
            for v in row:
                big = big * 3 + v
        counts: dict[int, int] = {}
        for i in range(20000):
            counts[i % 997] = counts.get(i % 997, 0) + i
    return time.perf_counter() - start


class CommandTimeout(BaseException):
    """Raised from SIGALRM; a BaseException so the program cannot swallow it."""


def _on_alarm(_signum, _frame):
    raise CommandTimeout()


@contextlib.contextmanager
def _time_budget(deadline: float):
    budget = min(COMMAND_BUDGET_S, deadline - time.perf_counter())
    if budget <= 0:
        raise CommandTimeout()
    signal.setitimer(signal.ITIMER_REAL, budget)
    try:
        yield
    finally:
        signal.setitimer(signal.ITIMER_REAL, 0)


def _check(cmd: Command, code, out: str) -> str | None:
    if code != 0:
        return f"exit code {code}"
    lines = out.splitlines()
    if cmd.unordered:
        lines, expected = sorted(lines), sorted(cmd.expected)
    else:
        expected = cmd.expected
    if lines != expected:
        return f"wrong output: {out[:300]!r}"
    return None


def guarded(fn, *args, deadline: float) -> str | None:
    """Call ``fn`` within the time budget; return a failure reason or None."""
    try:
        with _time_budget(deadline):
            fn(*args)
    except CommandTimeout:
        return "timeout"
    except Exception as exc:  # a crash of the program is a failed command
        return f"error {type(exc).__name__}: {exc}"
    return None


def run_command(m, cmd: Command, deadline: float) -> tuple[float, str | None]:
    """Run one CLI command untraced; return (seconds, failure reason or None)."""
    out = io.StringIO()
    done = {}

    def call():
        with contextlib.redirect_stdout(out), contextlib.redirect_stderr(io.StringIO()):
            start = time.perf_counter()
            done["code"] = m.cli.main(cmd.argv)
            done["seconds"] = time.perf_counter() - start

    gc.collect()
    start = time.perf_counter()
    reason = guarded(call, deadline=deadline)
    seconds = done.get("seconds", time.perf_counter() - start)
    return seconds, reason or _check(cmd, done["code"], out.getvalue())


def _replay(tracer: Tracer, m, cmd: Command) -> None:
    with tracer.span(f"cli.{cmd.kind}"):
        REPLAY[cmd.kind](tracer, m, cmd)


# ---------------------------------------------------------------------------
# the run

def _import_program():
    """Fresh import of the package under ``src``, so repeated set-ups pay it."""
    for name in [n for n in sys.modules if n.split(".")[0] == "morseminmax"]:
        del sys.modules[name]
    m = program_modules()
    if Path(m.cli.__file__).resolve().parent != SRC / "morseminmax":
        raise SystemExit(f"error: imported morseminmax from {m.cli.__file__}, not {SRC}")
    return m


def _median(values) -> float:
    return statistics.median(values) if values else 0.0


class Run:
    def __init__(self, args, m, workload: Workload, started: float):
        self.args = args
        self.ref: list[float] = []              # reference-loop samples between commands
        self.m = m
        self.w = workload
        self.deadline = started + HARD_LIMIT_S
        self.attempted = 0
        self.failed = 0
        self.failures: list[str] = []
        self.untraced: list[list[float]] = []   # pass -> per-command seconds
        self.traced: list[Tracer] = []

    def fail(self, where: str, reason: str, units: int = 1) -> None:
        """Record ``units`` failed operations (commands, or fuzz trials)."""
        self.failed += units
        self.failures.append(f"{where}: {reason}")
        print(f"FAIL {where}: {reason}")

    def _attempt(self, cmd: Command, where: str, reason: str | None) -> None:
        self.attempted += cmd.trials or 1
        if reason:
            self.fail(f"{where} {' '.join(cmd.argv)}", reason, cmd.trials or 1)

    def _replay(self, tracer: Tracer, i: int, cmd: Command) -> str | None:
        tracer.command = i
        gc.collect()
        reason = guarded(_replay, tracer, self.m, cmd, deadline=self.deadline)
        tracer.command = None
        return reason

    def run_pass(self, tracer: Tracer | None) -> None:
        """Every command once; with a tracer, each is replayed right after it runs.

        Running the untraced command and its traced replay back to back puts
        both in the same state of the machine, so their difference is the
        tracing overhead rather than drift.
        """
        times = []
        for i, cmd in enumerate(self.w.commands):
            self.ref.append(reference_seconds())
            seconds, reason = run_command(self.m, cmd, self.deadline)
            times.append(seconds)
            self._attempt(cmd, f"pass {len(self.untraced)} cmd {i}", reason)
            if tracer is not None:
                self._attempt(cmd, f"replay cmd {i}", self._replay(tracer, i, cmd))
        self.untraced.append(times)
        if tracer is None:
            return
        for path in (rec["path"] for rec in self.w.inputs):
            reason = guarded(probe_homology, tracer, self.m, path, deadline=self.deadline)
            if reason:
                self.fail(f"probe {path}", reason)
        self.traced.append(tracer)

    def measure(self) -> None:
        """Repeat passes while another one fits into ``--seconds``."""
        begin = time.perf_counter()
        while not self.failures:
            t0 = time.perf_counter()
            self.run_pass(Tracer() if self.args.trace else None)
            now = time.perf_counter()
            if now - begin + (now - t0) > self.args.seconds:
                break

    def tracemalloc_peak_mb(self) -> float:
        """Peak traced allocation over a replay of the first command of each kind.

        tracemalloc slows this Fraction-heavy code about four-fold, so it
        covers one command of each kind rather than a whole pass.
        """
        firsts = {}
        for i, cmd in enumerate(self.w.commands):
            firsts.setdefault(cmd.kind, (i, cmd))
        tracer = Tracer()
        tracemalloc.start()
        try:
            for i, cmd in firsts.values():
                reason = self._replay(tracer, i, cmd)
                if reason:
                    self.fail(f"tracemalloc replay cmd {i}", reason)
            return tracemalloc.get_traced_memory()[1] / 2**20
        finally:
            tracemalloc.stop()

    # -- metrics ------------------------------------------------------------

    def kind_sums(self, times: list[float]) -> dict[str, float]:
        sums: dict[str, float] = {}
        for cmd, t in zip(self.w.commands, times):
            sums[cmd.kind] = sums.get(cmd.kind, 0.0) + t
        return sums

    def speed_factor(self) -> float:
        """Scales a pass time measured in this run to one at nominal speed."""
        return REF_NOMINAL_S / statistics.fmean(self.ref)

    def end_to_end(self, setups: list[float], setup_ref: list[float]) -> dict[str, float]:
        """Times at nominal speed: the set-up median and the mean pass total.

        Each is scaled by the reference samples taken around it, because the
        machine's speed can change between set-up and the passes.
        """
        passes = [sum(times) for times in self.untraced]
        return {
            "setup_s": _median(setups) * REF_NOMINAL_S / statistics.fmean(setup_ref),
            "wall_s": statistics.fmean(passes) * self.speed_factor() if passes else 0.0,
            "peak_rss_mb": resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024,
        }

    def per_layer(self) -> dict[str, float]:
        values = {name: 0.0 for name in PER_LAYER}
        per_kind = [self.kind_sums(times) for times in self.untraced]
        for kind, name in KIND_METRICS.items():
            values[name] = _median([s.get(kind, 0.0) for s in per_kind])
        fuzz_trials = sum(cmd.trials for cmd in self.w.commands)
        if fuzz_trials:
            values["cli.fuzz_trials_per_s"] = fuzz_trials / _median(
                [s["fuzz"] for s in per_kind])
        values["cli.failed_ops_frac"] = self.failed / max(self.attempted, 1)
        values["ref.loop_s"] = statistics.fmean(self.ref)
        for rec in self.w.inputs:
            values["input.points"] += rec["points"]
            values["input.nnz"] += rec["nnz"]
            values["input.max_bits"] = max(values["input.max_bits"], rec["max_bits"])

        layer_runs, attributed, command_spans = [], [], []
        for tracer in self.traced:
            own = tracer.self_times()
            sums: dict[str, float] = {}
            layer_by_cmd = [0.0] * len(self.w.commands)
            cmd_by_cmd = [0.0] * len(self.w.commands)
            for i, (name, start, end, parent, command) in enumerate(tracer.spans):
                if parent is None and command is not None:
                    cmd_by_cmd[command] = end - start
                    continue
                sums[name] = sums.get(name, 0.0) + own[i]
                if command is not None:
                    layer_by_cmd[command] += own[i]
            layer_runs.append({**sums, **tracer.counts})
            attributed.append(layer_by_cmd)
            command_spans.append(cmd_by_cmd)
        for name in SPAN_METRICS:
            values[f"{name}_s"] = _median([r.get(name, 0.0) for r in layer_runs])
        for name in COUNT_METRICS + ("input.max_bits",):
            counted = [r[name] for r in layer_runs if name in r]
            if counted:
                values[name] = _median(counted)

        n = len(self.w.commands)
        untraced = [_median([t[i] for t in self.untraced]) for i in range(n)]
        traced = [_median([t[i] for t in command_spans]) for i in range(n)]
        layers = [_median([a[i] for a in attributed]) for i in range(n)]
        values["cli.unattributed_s"] = sum(untraced) - sum(layers)
        values["trace.overhead_frac"] = (sum(traced) - sum(untraced)) / sum(untraced)
        return values

    def check_traced_counts(self) -> None:
        """Counters and generated-input descriptors must repeat in every replay."""
        first = self.traced[0].counts
        for tracer in self.traced[1:]:
            if tracer.counts != first:
                self.fail("replay", f"counters differ between replays: "
                                     f"{tracer.counts} vs {first}")

    def check_reproduced(self, path: Path, record) -> None:
        """Compare with the record an earlier run of this seed left, or leave one.

        The set-ups within a run share one hash seed, so only a second
        process shows generation that depends on it.
        """
        record = json.loads(json.dumps(record))
        if path.exists():
            if json.loads(path.read_text(encoding="utf-8")) != record:
                self.fail("reproduction", f"seed {self.args.seed} gave other inputs "
                                          f"or counters than the run that wrote {path.name}")
        else:
            path.write_text(json.dumps(record), encoding="utf-8")

    def write_spans(self, outdir: Path) -> None:
        spans = [{"pass": p, "name": s[0], "start": s[1], "end": s[2],
                  "parent": s[3], "command": s[4]}
                 for p, tracer in enumerate(self.traced) for s in tracer.spans]
        path = outdir / f"spans-seed{self.args.seed}.json"
        path.write_text(json.dumps({"commands": [c.argv for c in self.w.commands],
                                    "spans": spans}), encoding="utf-8")


def _report_passes(run: Run) -> None:
    n = len(run.untraced)
    if not n:
        return
    for i, cmd in enumerate(run.w.commands):
        times = [t[i] for t in run.untraced]
        print(f"cmd {i} {' '.join(cmd.argv)}: median {_median(times):.4f} s "
              f"min {min(times):.4f} max {max(times):.4f} over {n} passes")
    totals = [sum(t) for t in run.untraced]
    print(f"passes {n}: total mean {statistics.fmean(totals):.4f} s, "
          f"min {min(totals):.4f}, max {max(totals):.4f}; reference loop mean "
          f"{statistics.fmean(run.ref):.5f} s over {len(run.ref)} samples, "
          f"speed factor {run.speed_factor():.4f}")


def main(argv=None) -> int:
    started = time.perf_counter()
    parser = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    parser.add_argument("--workload", required=True, choices=sorted(WORKLOADS))
    parser.add_argument("--seed", type=int, required=True)
    parser.add_argument("--seconds", type=float, required=True)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    args = parser.parse_args(argv)
    if not (SRC / "morseminmax" / "cli.py").is_file():
        print(f"error: the program's source is missing under {SRC}", file=sys.stderr)
        return 2
    signal.signal(signal.SIGALRM, _on_alarm)
    sys.path.insert(0, str(SRC))
    os.chdir(ROOT)  # commands name their files relative to the repository root
    outdir = OUT / args.workload
    outdir.mkdir(parents=True, exist_ok=True)

    # Set-ups are few, so each boundary gets several reference samples.
    setups, descriptors = [], []
    setup_ref = [reference_seconds() for _ in range(SETUP_REF_SAMPLES)]
    for _ in range(SETUP_REPEATS):
        t0 = time.perf_counter()
        m = _import_program()
        workload = WORKLOADS[args.workload](args.seed, m, outdir)
        setups.append(time.perf_counter() - t0)
        setup_ref += [reference_seconds() for _ in range(SETUP_REF_SAMPLES)]
        descriptors.append(workload.inputs)
    for rec in workload.inputs:
        print("input " + json.dumps({k: v for k, v in rec.items() if k != "pairs"}))

    run = Run(args, m, workload, started)
    if any(d != descriptors[0] for d in descriptors):
        run.fail("setup", "the seed did not reproduce its inputs")
    run.check_reproduced(outdir / f"inputs-seed{args.seed}.json", workload.inputs)
    run.measure()
    _report_passes(run)
    if args.trace:
        peak_mb = 0.0
        if not run.failures:
            run.check_traced_counts()
            run.check_reproduced(outdir / f"counts-seed{args.seed}.json",
                                 run.traced[0].counts)
            peak_mb = run.tracemalloc_peak_mb()
        metrics = run.per_layer() if run.traced else {name: 0.0 for name in PER_LAYER}
        metrics["trace.tracemalloc_peak_mb"] = peak_mb
        run.write_spans(outdir)
        units = PER_LAYER
    else:
        print(f"setup: median {_median(setups):.4f} s of {len(setups)}, reference loop "
              f"mean {statistics.fmean(setup_ref):.5f} s")
        metrics = run.end_to_end(setups, setup_ref)
        units = END_TO_END
    correct = not run.failures
    print(json.dumps({
        "correct": correct,
        "attempted": max(run.attempted, 1),
        "failed": run.failed,
        "metrics": {name: {"value": metrics[name], "unit": unit}
                    for name, unit in units.items()},
    }))
    return 0 if correct else 1


if __name__ == "__main__":
    sys.exit(main())
