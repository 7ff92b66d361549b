"""Generated test: ``jsonify``'s exact-type fast path == the full walk.

``repro.store.record.jsonify`` returns exact ``None``/``bool``/``int``/
``float``/``str`` values as they are and walks exact ``list``/``tuple``/
``dict`` values directly, before the :mod:`numbers` ABC chain.  The walk
it had before that fast path is copied below as the oracle.  Hypothesis
draws nested values of those types mixed with every type that must
still take the walk (``IntEnum``, numpy scalars, float and str
subclasses, ``OrderedDict``, ``MappingProxyType``, sets, dataclasses,
non-string keys, values with no encoding), and both must return the
same value, type for type, or raise the same error.

Tier-1 runs a small derandomized profile.  ``make fuzz`` sets
``REPRO_FUZZ_EXAMPLES`` for a long randomized run.
"""

from __future__ import annotations

import dataclasses
import enum
import numbers
import os
from collections import OrderedDict
from types import MappingProxyType
from typing import Any, Mapping

import numpy as np
from hypothesis import given, settings
from hypothesis import strategies as st

from repro.store import RecordingError, jsonify

FUZZ_EXAMPLES = int(os.environ.get("REPRO_FUZZ_EXAMPLES", "0"))


def reference_jsonify(value: Any) -> Any:
    """``jsonify`` as it was before the exact-type fast path."""
    if value is None or isinstance(value, (bool, str)):
        return value
    if isinstance(value, numbers.Integral):
        return int(value)
    if isinstance(value, numbers.Real):
        return float(value)
    if isinstance(value, enum.Enum):
        return reference_jsonify(value.value)
    to_dict = getattr(value, "to_dict", None)
    if callable(to_dict) and not isinstance(value, type):
        try:
            return reference_jsonify(to_dict())
        except TypeError:
            pass
    if dataclasses.is_dataclass(value) and not isinstance(value, type):
        return {
            f.name: reference_jsonify(getattr(value, f.name))
            for f in dataclasses.fields(value)
        }
    if isinstance(value, (list, tuple, set, frozenset)):
        items = sorted(value) if isinstance(value, (set, frozenset)) else value
        return [reference_jsonify(item) for item in items]
    if isinstance(value, Mapping):
        out = {}
        for key, item in value.items():
            if not isinstance(key, str):
                raise RecordingError(f"mapping key {key!r} is not a string")
            out[key] = reference_jsonify(item)
        return out
    raise RecordingError(f"no JSON encoding for {type(value).__qualname__}: {value!r}")


class Level(enum.IntEnum):
    LOW = 1
    HIGH = 2


class Seconds(float):
    pass


class Label(str):
    pass


@dataclasses.dataclass(frozen=True)
class Pair:
    left: Any
    right: Any


@dataclasses.dataclass(frozen=True)
class Coded:
    value: Any

    def to_dict(self) -> dict:
        return {"coded": self.value}


floats = st.floats(allow_nan=True, allow_infinity=True)
text = st.text(max_size=4)
scalars = st.one_of(
    st.none(),
    st.booleans(),
    st.integers(),
    floats,
    text,
    st.sampled_from(Level),
    st.integers(min_value=-(2**63), max_value=2**63 - 1).map(np.int64),
    floats.map(np.float64),
    floats.map(Seconds),
    text.map(Label),
)
keys = st.one_of(text, text.map(Label))


def containers(children):
    return st.one_of(
        st.lists(children, max_size=4),
        st.lists(children, max_size=4).map(tuple),
        st.dictionaries(keys, children, max_size=4),
        st.dictionaries(text, children, max_size=3).map(OrderedDict),
        st.dictionaries(text, children, max_size=3).map(MappingProxyType),
        st.sets(st.integers(), max_size=4),
        st.frozensets(text, max_size=4),
        st.builds(Pair, children, children),
        st.builds(Coded, children),
    )


#: Values every path encodes.
encodable = st.recursive(scalars, containers, max_leaves=24)
#: Values with no encoding: a complex leaf, a non-string key (after an
#: item the walk encodes first) or a set that does not sort.
unencodable = st.one_of(
    st.complex_numbers(max_magnitude=10).filter(lambda z: z.imag != 0),
    st.dictionaries(st.integers(0, 3), encodable, min_size=1, max_size=2).map(
        lambda items: {"first": [1.5], **items}
    ),
    st.just({1, "one"}),
)
anything = st.recursive(st.one_of(scalars, unencodable), containers, max_leaves=24)


def outcome(encode, value):
    try:
        return ("ok", encode(value))
    except TypeError as error:  # RecordingError, or an unsortable set
        return ("error", type(error), str(error))


def same(a, b) -> bool:
    """Equal value and exact type at every level; floats by bit pattern,
    dicts in key order."""
    if type(a) is not type(b):
        return False
    if isinstance(a, float):
        return a.hex() == b.hex()
    if isinstance(a, (list, tuple)):
        return len(a) == len(b) and all(map(same, a, b))
    if isinstance(a, dict):
        return list(a) == list(b) and all(map(same, a.values(), b.values()))
    return a == b


def test_oracle_sees_subclasses_and_numpy_scalars():
    assert same(reference_jsonify(Seconds(0.5)), 0.5)
    assert same(reference_jsonify(np.float64(0.1)), 0.1)
    assert same(reference_jsonify(np.int64(3)), 3)
    assert same(reference_jsonify(Level.HIGH), 2)
    assert type(reference_jsonify(Label("x"))) is Label
    assert not same(1, 1.0) and not same(True, 1) and same(float("nan"), float("nan"))


@settings(max_examples=FUZZ_EXAMPLES or 300, derandomize=not FUZZ_EXAMPLES, deadline=None)
@given(value=encodable)
def test_fast_path_matches_the_walk(value):
    got = outcome(jsonify, value)
    assert got[0] == "ok"
    assert same(got, outcome(reference_jsonify, value))


@settings(max_examples=FUZZ_EXAMPLES or 150, derandomize=not FUZZ_EXAMPLES, deadline=None)
@given(value=anything)
def test_errors_match_the_walk(value):
    assert same(outcome(jsonify, value), outcome(reference_jsonify, value))
