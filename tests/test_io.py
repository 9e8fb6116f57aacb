"""The table and effect files store every finite float64 exactly, in the
text json.dumps(doc, sort_keys=True, indent=1) writes."""

import json

import numpy as np
import pytest
from hypothesis import example, given, settings
from hypothesis import strategies as st

from andor import io as aio
from andor.extraction import InteractionSet
from andor.models import ValueTable

N = 3
# The smallest subnormal, the smallest normal, the largest double, a decimal
# that naive parsers round the wrong way, and one with no exact binary form.
EDGES = [5e-324, 2.2250738585072014e-308, 1.7976931348623157e308, 1e23, 0.1]
FINITE = st.floats(allow_nan=False, allow_infinity=False)
ROW = st.lists(FINITE, min_size=1 << N, max_size=1 << N)


@pytest.fixture(scope="module")
def scratch(tmp_path_factory):
    return tmp_path_factory.mktemp("io")


def bits(x) -> list[int]:
    return np.asarray(x, dtype=np.float64).view(np.uint64).tolist()


@settings(max_examples=100, deadline=None, derandomize=True)
@given(values=ROW)
@example(values=[-0.0, *EDGES, -EDGES[0], -EDGES[2]])
def test_table_round_trips_every_finite_float(scratch, values):
    path = scratch / "table.json"
    aio.write_table(ValueTable(n=N, values=values), path)
    assert bits(aio.read_table(path).values) == bits(values)


@settings(max_examples=100, deadline=None, derandomize=True)
@given(rows=st.tuples(ROW, ROW), bias=FINITE)
@example(rows=([0.0, *EDGES, -EDGES[0], -EDGES[2]], [0.0, *(-x for x in EDGES), 1.0, 2.0]),
         bias=EDGES[0])
def test_effects_round_trip_every_finite_float(scratch, rows, bias):
    path = scratch / "effects.json"
    effects = np.array(rows)
    effects[:, 0] = 0.0     # the empty set's effect is the bias
    aio.write_interactions(InteractionSet(n=N, effects=effects, bias=bias), path)
    read = aio.read_interactions(path)
    # a zero effect is not stored, so -0.0 reads back as 0.0
    assert bits(read.effects) == bits(effects + 0.0)
    assert bits(read.bias) == bits(bias)


# Floats from random bit patterns, and zeros, which an effect file leaves out.
BIT_FLOATS = st.integers(0, 2**64 - 1).map(
    lambda b: float(np.uint64(b).view(np.float64))).filter(np.isfinite)
ROW16 = st.lists(BIT_FLOATS | st.just(0.0), min_size=16, max_size=16)
# Where orjson's spelling leaves repr's (1e-4 and 1e16) and the extremes.
SPELLINGS = [float(np.nextafter(1e-4, 0)), 1e-4, float(np.nextafter(1e16, 0)), 1e16,
             5e-324, -0.0, 1.7976931348623157e308, -1e-7, 0.1]
LABEL = 'a "quoted" \\ back\nslash, é ☃ 𝄞'


def dumps_text(doc: dict) -> str:
    """The text write_json writes for ``doc``."""
    return json.dumps(doc, sort_keys=True, indent=1) + "\n"


@settings(max_examples=100, deadline=None, derandomize=True)
@given(n=st.integers(0, 4), values=ROW16, label=st.text(max_size=8))
@example(n=4, values=[*SPELLINGS, *(-x for x in SPELLINGS[:7])], label=LABEL)
@example(n=0, values=[1e16] * 16, label="")
def test_table_text_is_json_dumps_of_its_document(scratch, n, values, label):
    path = scratch / "table.json"
    v = ValueTable(n=n, values=values[:1 << n], label=label, meta=label[::-1])
    aio.write_table(v, path)
    assert path.read_text() == dumps_text({
        "n": n, "label": label, "values": [float(x) for x in v.values], "meta": v.meta})


@settings(max_examples=100, deadline=None, derandomize=True)
@given(n=st.integers(0, 4), rows=st.tuples(ROW16, ROW16), bias=BIT_FLOATS,
       label=st.text(max_size=8))
@example(n=4, rows=([0.0, *SPELLINGS, *(-x for x in SPELLINGS[:6])], [0.0] * 16),
         bias=-0.0, label=LABEL)
@example(n=0, rows=([0.0] * 16, [0.0] * 16), bias=1e-5, label="")
@example(n=3, rows=([0.0] * 16, [0.0, *SPELLINGS[::-1], *[0.0] * 6]), bias=1e16, label=LABEL)
def test_effects_text_is_json_dumps_of_its_document(scratch, n, rows, bias, label):
    path = scratch / "effects.json"
    effects = np.array(rows)[:, :1 << n]
    effects[:, 0] = 0.0
    aio.write_interactions(InteractionSet(n=n, effects=effects, bias=bias, label=label), path)

    def entries(row):
        return [{"mask": int(m), "value": float(row[m])} for m in np.flatnonzero(row) if m != 0]

    assert path.read_text() == dumps_text({
        "n": n, "label": label, "bias": float(bias),
        "and": entries(effects[0]), "or": entries(effects[1])})


@pytest.mark.parametrize("bad", [np.nan, np.inf, -np.inf])
def test_floats_refuses_non_finite_values(bad):
    with pytest.raises(ValueError, match="non-finite"):
        aio._floats(np.array([1.0, bad]))
