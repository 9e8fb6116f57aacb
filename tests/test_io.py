"""The table and effect files store every finite float64 exactly."""

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
