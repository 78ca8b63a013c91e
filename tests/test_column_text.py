"""csvio.column_text writes each value of a column as str and repr do."""

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from car2cloud.csvio import column_text

INT64_MIN, INT64_MAX = -(1 << 63), (1 << 63) - 1


def as_repr(column: np.ndarray) -> list[str]:
    return list(map(repr, column.tolist()))


@settings(max_examples=500, deadline=None)
@given(st.lists(st.floats(), max_size=40))
def test_floats_match_repr(values):
    column = np.array(values, dtype=np.float64)
    assert column_text(column) == as_repr(column)


@settings(max_examples=300, deadline=None)
@given(
    st.lists(
        st.integers(INT64_MIN, INT64_MAX) | st.sampled_from([INT64_MIN, INT64_MAX, -1, 0, 1]),
        max_size=40,
    )
)
def test_ints_match_str(values):
    column = np.array(values, dtype=np.int64)
    assert column_text(column) == list(map(str, values))


# repr switches to an exponent below 1e-4 and from 1e16; these sit on either side.
EDGES = [
    np.nextafter(1e-4, 0),
    1e-4,
    np.nextafter(1e-4, 1),
    np.nextafter(1e16, 0),
    1e16,
    5e-324,
    np.finfo(np.float64).tiny,
    np.finfo(np.float64).max,
    0.0,
    float("nan"),
    float("inf"),
]


@pytest.mark.parametrize("sign", [1.0, -1.0])
def test_edges_match_repr(sign):
    column = sign * np.array(EDGES)
    assert column_text(column) == as_repr(column)


def test_empty_columns():
    assert column_text(np.zeros(0)) == []
    assert column_text(np.zeros(0, dtype=np.int64)) == []


def test_a_non_contiguous_view():
    floats = np.arange(12, dtype=np.float64) / 7
    ints = np.arange(12, dtype=np.int64) * -3
    assert column_text(floats[::3]) == as_repr(floats[::3])
    assert column_text(ints[1::2]) == as_repr(ints[1::2])
    assert column_text(floats.reshape(3, 4)[:, 1]) == as_repr(floats.reshape(3, 4)[:, 1])


def test_random_bit_patterns_match_repr():
    bits = np.random.default_rng(13).integers(INT64_MIN, INT64_MAX, 200_000, endpoint=True)
    column = bits.view(np.float64)
    assert column_text(column) == as_repr(column)


@pytest.mark.parametrize("decimals", [3, 7])
def test_rounded_values_across_the_plain_range_match_repr(decimals):
    # Values as a simulation writes them: few digits, at every scale repr writes without exponent.
    rng = np.random.default_rng(decimals)
    scale = 10.0 ** rng.integers(-4, 16, 100_000)
    column = np.round(rng.uniform(-1, 1, 100_000) * scale, decimals)
    assert column_text(column) == as_repr(column)
