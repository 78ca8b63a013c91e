"""csvio.convert_column reads a column as int or float, field by field, would.

The oracle is the per-field conversion the column parser used before
convert_column, np.fromiter(map(convert, column), ...): every column must
give the same array, dtype and bits included, or the same exception, type
and text.  The tokens are the texts that one of orjson and int or float
reads and the other does not, or reads otherwise.
"""

import random

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from car2cloud import csvio
from car2cloud.csvio import convert_column
from test_trace_csv import GATE_TOKENS

INT64_MIN, INT64_MAX = -(1 << 63), (1 << 63) - 1
U64_MAX = (1 << 64) - 1
DTYPES = {int: np.int64, float: np.float64}
CONVERTERS = [int, float]

TOKENS = GATE_TOKENS + [
    "1\r", "-0\r\n", "",
    # read by orjson, not by int or float: strings, arrays, two numbers
    '"1"', "[1]", "1,2",
    # read by int or float, not by orjson: spaces, nan and inf
    " 3", "2 ", "nan", "inf", "-inf", "NaN", "Infinity",
]
# Fields the fast path reads, mixed with the tokens.
PLAIN = ["0", "1", "7", "-2", "2.5", "-0.25", "1e-05", "1e+16", "-1.5e-300", "9" * 19]


def outcome(convert_fn, column: list[str], convert):
    """(dtype, bytes) of the array convert_fn makes of column, or the type and text it raised."""
    try:
        array = convert_fn(column, convert)
    except Exception as exc:  # noqa: BLE001 - the comparison covers any error
        return type(exc), str(exc)
    return array.dtype, array.tobytes()


def per_field(column: list[str], convert) -> np.ndarray:
    return np.fromiter(map(convert, column), dtype=DTYPES[convert], count=len(column))


def assert_same(column: list[str]):
    """Same outcome for either converter as per-field conversion of the whole column."""
    for convert in CONVERTERS:
        assert outcome(convert_column, column, convert) == outcome(per_field, column, convert), (
            convert, column)


def fast_path_only(monkeypatch):
    """Patch csvio so that a column its byte gate sends field by field fails the test."""
    json_numbers = csvio._json_numbers

    def gate(column, convert):
        values = json_numbers(column, convert)
        assert values is not None, f"{convert.__name__} field by field: {column[:3]}"
        return values

    monkeypatch.setattr(csvio, "_json_numbers", gate)


@settings(max_examples=400, deadline=None)
@given(st.lists(st.floats(), max_size=30))
def test_float_reprs(values):
    """repr of any float: nan, ±inf, subnormals and -0.0 included."""
    assert_same(list(map(repr, values)))


@settings(max_examples=400, deadline=None)
@given(
    st.lists(
        st.integers()
        | st.integers(INT64_MIN - 2, INT64_MIN + 2)
        | st.integers(INT64_MAX - 2, U64_MAX + 2),
        max_size=30,
    )
)
def test_integers_across_the_int64_and_u64_bounds(values):
    assert_same(list(map(str, values)))


@settings(max_examples=1000, deadline=None)
@given(st.lists(st.sampled_from(TOKENS) | st.sampled_from(PLAIN), max_size=12))
def test_token_columns(column):
    assert_same(column)


@pytest.mark.parametrize("token", TOKENS)
def test_each_token_among_plain_fields(token):
    for column in ([token], ["1", token], [token, "2"], ["0", token, "3"]):
        assert_same(column)


def test_random_token_columns():
    rng = random.Random(14)
    fields = TOKENS + PLAIN * 3
    for _ in range(20000):
        assert_same(rng.choices(fields, k=rng.randint(1, 8)))


def test_plain_columns_take_the_fast_path(monkeypatch):
    """Plain fields are read by orjson alone: the per-field path is not taken."""
    fast_path_only(monkeypatch)
    floats = convert_column(PLAIN, float)
    assert floats.tolist() == list(map(float, PLAIN))
    ints = convert_column(["0", "1", "-7", str(INT64_MIN), str(INT64_MAX) + "\r\n"], int)
    assert ints.tolist() == [0, 1, -7, INT64_MIN, INT64_MAX] and ints.dtype == np.int64
