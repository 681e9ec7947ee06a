"""The column reduction works on sparse columns, so its memory grows with the
nonzero entries of the boundary and not with the square of the point count.

The inputs are the benchmark's sparse handle-slide complexes
(``bench/slides.py``), whose entries stay a few bits wide as they grow.
"""

import sys
import tracemalloc
from pathlib import Path

import pytest

from morseminmax.barannikov import Certified, reduce, reduce_integer
from morseminmax.coeff import Coefficients, RATIONALS
from morseminmax.complexes import parse_complex

sys.path.insert(0, str(Path(__file__).resolve().parent.parent / "bench"))

from slides import slid_complex  # noqa: E402

F2 = Coefficients.prime_field(2)


def _peak_bytes(text, run):
    """Peak traced allocation of ``run`` on a freshly parsed complex, left
    unvalidated so that no reduction of it is memoized yet."""
    c = parse_complex(text, check=False)
    tracemalloc.start()
    try:
        run(c)
        return tracemalloc.get_traced_memory()[1]
    finally:
        tracemalloc.stop()


def _certify(c):
    assert isinstance(reduce_integer(c), Certified)


@pytest.mark.parametrize("run", [
    pytest.param(lambda c: reduce(c, F2), id="f2"),
    pytest.param(lambda c: reduce(c, RATIONALS), id="q"),
    pytest.param(_certify, id="z"),
])
def test_reduce_memory_grows_with_nonzeros(run):
    small, large = (_peak_bytes(slid_complex(0, q).text, run) for q in (250, 500))
    assert small < 4 * 2**20, f"{small / 2**20:.1f} MB at 1001 points"
    assert large < 3 * small, f"{large / small:.1f}x from 1001 to 2001 points"
