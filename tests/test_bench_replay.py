"""The benchmark's traced replay calls the layers' public functions by name,
so a rename that would break ``bench/run.py --trace 1`` fails here."""

import sys
from pathlib import Path

import pytest

ROOT = Path(__file__).resolve().parent.parent
sys.path.insert(0, str(ROOT / "bench"))

import replay  # noqa: E402
from run import Command  # noqa: E402

LAUDENBACH = str(ROOT / "data" / "laudenbach.cplx")
COEFFS = {"reduce_q": ("q",), "reduce_fp": ("f3",), "reduce_z": ("z",),
          "selector": ("z", "q", "f2", "f3")}


@pytest.mark.parametrize("kind", sorted(replay.REPLAY))
def test_replay_kind_runs(kind):
    tracer = replay.Tracer()
    cmd = Command(kind, [], [], path=LAUDENBACH, coeffs=COEFFS.get(kind, ()),
                  trials=2, fuzz_seed=1, max_points=12)
    with tracer.span(f"cli.{kind}"):
        replay.REPLAY[kind](tracer, replay.program_modules(), cmd)
    assert all(end is not None for _, _, end, _, _ in tracer.spans)
    assert len(tracer.spans) > 1


def test_probe_homology_runs():
    tracer = replay.Tracer()
    replay.probe_homology(tracer, replay.program_modules(), LAUDENBACH)
    names = {span[0] for span in tracer.spans}
    assert names == {"coeff.rank_over", "coeff.invariant_factors"}
