"""Generated test: a segment's floats equal the sequential Python fold.

The compressed fleet loop builds every boundary of a multi-round
segment, and the machine's busy time after each of its rounds, with one
``np.add.accumulate`` call (``repro.fleet.simulator._accumulate_rounds``).
The reference loop adds ``round_time`` once per round instead.  Those
agree bit for bit only while numpy adds in order, one element after the
other, as ``np.add.accumulate`` documents for 1-D input.  Hypothesis
draws the cases where a different order or a compensated sum would
round differently: starts from 0 and subnormal up to 1e15, steps that
are subnormal, at or below half an ulp of the start (ties round to
even), integer-valued or arbitrary, and 1 to 5,000 rounds.  The array
must equal ``array('d', accumulate(repeat(step, count - 1),
initial=start))`` byte for byte.

Tier-1 runs a small derandomized profile.  ``make fuzz`` sets
``REPRO_FUZZ_EXAMPLES`` for a long randomized run.
"""

from __future__ import annotations

import math
import os
from array import array
from itertools import accumulate, repeat

from hypothesis import example, given, settings
from hypothesis import strategies as st

from repro.fleet.simulator import _accumulate_rounds

FUZZ_EXAMPLES = int(os.environ.get("REPRO_FUZZ_EXAMPLES", "0"))

SMALLEST_NORMAL = 2.2250738585072014e-308
subnormals = st.floats(min_value=5e-324, max_value=SMALLEST_NORMAL, exclude_max=True)

starts = st.one_of(
    st.just(0.0),
    subnormals,
    st.floats(min_value=SMALLEST_NORMAL, max_value=1e-6),
    st.floats(min_value=0.0, max_value=1e6),
    st.floats(min_value=1e6, max_value=1e15),
)


@st.composite
def cases(draw):
    start = draw(starts)
    below_half_ulp = st.floats(min_value=0.01, max_value=0.5).map(
        lambda fraction: max(math.ulp(start) * fraction, 5e-324)
    )
    step = draw(
        st.one_of(
            subnormals,
            below_half_ulp,
            st.integers(min_value=1, max_value=10**6).map(float),
            st.floats(min_value=5e-324, max_value=1e6),
        )
    )
    return start, step, draw(st.integers(min_value=1, max_value=5000))


def python_fold(start: float, step: float, count: int) -> array:
    return array("d", accumulate(repeat(step, count - 1), initial=start))


@settings(max_examples=FUZZ_EXAMPLES or 200, derandomize=not FUZZ_EXAMPLES, deadline=None)
@given(case=cases())
# A step of exactly half an ulp ties and rounds to even every time, so
# the fold never moves; a pairwise sum of the steps would.
@example(case=(1.0, 2.0**-53, 5000))
@example(case=(1e15, 0.1, 5000))
def test_numpy_accumulate_is_the_sequential_fold(case):
    start, step, count = case
    got = _accumulate_rounds(start, step, count)
    assert got.typecode == "d"
    assert got.tobytes() == python_fold(start, step, count).tobytes()
