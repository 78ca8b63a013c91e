"""csvio's one id coder.

read_columns codes each string column as it reads it, chunk by chunk, into
the IdCodes that id_codes gives the same strings.  A reader's check sees
the whole table once, the rows before a line that does not parse and no
others, so the readers still name the first bad line in file order.
"""

import io
from unittest import mock

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from car2cloud import csvio
from car2cloud.csvio import IdCodes, id_codes, read_columns
from car2cloud.errors import ParseError, ValidationError
from car2cloud.mobility import parse_trace_csv
from car2cloud.radio import parse_stations_csv

# Id fields: any text without a comma or line break, a quote and the empty id included.
IDS = st.text(alphabet='abé"\t 0_', max_size=4)


@st.composite
def id_texts(draw):
    """Lines of an id, an int and an id, ended by LF or CRLF, some followed by blank lines."""
    rows = draw(st.lists(st.tuples(IDS, st.integers(-9, 9), IDS), max_size=60))
    ends = draw(st.lists(
        st.sampled_from(["\n", "\r\n", "\n\n", "\r\n\r\n", "\n\r\n"]),
        min_size=len(rows), max_size=len(rows),
    ))
    text = "".join(f"{a},{n},{b}{end}" for (a, n, b), end in zip(rows, ends))
    return text if draw(st.booleans()) else text.rstrip("\r\n")


def assert_codes(got: IdCodes, ids: list[str]) -> None:
    """got codes ids as id_codes does, and as sorted distinct names with indices."""
    expected = id_codes(ids)
    assert got.names == expected.names == sorted(set(ids))
    assert got.codes.dtype == expected.codes.dtype == "int64"
    assert got.codes.tolist() == expected.codes.tolist()
    assert [got.names[c] for c in got.codes.tolist()] == ids


@settings(max_examples=300, deadline=None)
@given(id_texts(), st.sampled_from([1, 40, 300, csvio.READ_CHUNK_BYTES]))
def test_read_columns_codes_each_string_column_as_id_codes_does(text, chunk_bytes):
    # The last field of a line keeps its closing line break.
    rows = [line.split(",") for line in io.StringIO(text) if line.strip("\r\n")]
    with mock.patch.object(csvio, "READ_CHUNK_BYTES", chunk_bytes):
        first, numbers, last = read_columns(io.StringIO(text), (None, int, None))
    assert_codes(first, [row[0] for row in rows])
    assert_codes(last, [row[2] for row in rows])
    assert numbers.tolist() == [int(row[1]) for row in rows]


# Lines of ids first seen in the first chunks (v0-v2) and in later ones (w0, w1).
CHECKED_LINES = [f"v{k % 3},{k}\n" for k in range(40)] + [f"w{k % 2},{k}\n" for k in range(40)]


def test_check_is_called_once_with_the_columns_read_columns_returns():
    text = "".join(CHECKED_LINES)
    assert len(text) > 6 * 60  # several chunks
    calls: list = []
    with mock.patch.object(csvio, "READ_CHUNK_BYTES", 60):
        columns = read_columns(io.StringIO(text), (None, int), calls.append)
    [checked] = calls
    assert checked is columns
    ids, values = columns
    assert ids.names == ["v0", "v1", "v2", "w0", "w1"]
    assert_codes(ids, [line.split(",")[0] for line in CHECKED_LINES])
    assert values.tolist() == list(range(40)) * 2


@pytest.mark.parametrize("bad", [0, 1, 37, 79])
def test_check_sees_exactly_the_rows_before_a_bad_line_then_it_raises(bad):
    lines = CHECKED_LINES.copy()
    lines[bad] = "w9,oops\n"
    calls: list = []
    with mock.patch.object(csvio, "READ_CHUNK_BYTES", 60), pytest.raises(ParseError) as err:
        read_columns(io.StringIO("".join(lines)), (None, int), calls.append)
    assert str(err.value) == f"line {bad + 2}: invalid literal for int() with base 10: 'oops'"
    [(ids, values)] = calls
    assert_codes(ids, [line.split(",")[0] for line in lines[:bad]])
    assert values.tolist() == [int(line.split(",")[1]) for line in lines[:bad]]


def test_read_columns_of_no_rows_gives_empty_id_codes():
    ids, numbers = read_columns(io.StringIO("\n\r\n"), (None, float))
    assert ids.names == [] and ids.codes.dtype == "int64" and len(ids.codes) == 0
    assert numbers.dtype == "float64" and len(numbers) == 0


TRACE_HEADER = "vehicle_id,t,x,y,speed\n"


def trace_lines() -> list[str]:
    return [f"veh{k % 3},{k // 3},0.0,0.0,1.0\n" for k in range(30)]


@pytest.mark.parametrize("new_id", ["fresh", '"fresh"', ""])
def test_trace_chunk_names_a_bad_number_before_a_later_new_id(new_id):
    lines = trace_lines()
    lines[9] = "veh0,3,0.0,oops,1.0\n"  # line 11
    lines[20] = f"{new_id},7,0.0,0.0,1.0\n"  # line 22
    with pytest.raises(ParseError) as err:
        parse_trace_csv(io.StringIO(TRACE_HEADER + "".join(lines)))
    assert str(err.value) == "line 11: could not convert string to float: 'oops'"


@pytest.mark.parametrize(
    "new_id, error, message",
    [
        ('"fresh"', ValidationError,
         """line 11: vehicle_id '"fresh"' contains a comma, quote or line break"""),
        ("", ParseError, "line 11: empty vehicle_id"),
    ],
)
def test_trace_chunk_names_a_bad_new_id_before_a_later_bad_number(new_id, error, message):
    lines = trace_lines()
    lines[9] = f"{new_id},3,0.0,0.0,1.0\n"  # line 11
    lines[20] = "veh0,7,0.0,oops,1.0\n"  # line 22
    with pytest.raises(error) as err:
        parse_trace_csv(io.StringIO(TRACE_HEADER + "".join(lines)))
    assert type(err.value) is error and str(err.value) == message


def test_trace_rule_before_an_undecodable_byte_is_named(tmp_path):
    # The text layer decodes 8 KiB at a time, so the bad byte fails a later chunk.
    lines = [f"veh{k % 3},{k // 3},0.0,0.0,1.0\n" for k in range(3000)]
    lines[1] = "veh1,0,0.0,0.0,-2.0\n"  # line 3
    path = tmp_path / "traces.csv"
    path.write_bytes((TRACE_HEADER + "".join(lines)).encode() + b"veh\xff,0,0.0,0.0,1.0\n")
    with mock.patch.object(csvio, "READ_CHUNK_BYTES", 60):
        with open(path, encoding="utf-8", newline="") as fh, pytest.raises(ValidationError) as err:
            parse_trace_csv(fh)
        assert str(err.value) == "line 3: negative speed -2.0"
        lines[1] = lines[0]
        path.write_bytes((TRACE_HEADER + "".join(lines)).encode() + b"veh\xff,0,0.0,0.0,1.0\n")
        with open(path, encoding="utf-8", newline="") as fh, pytest.raises(UnicodeDecodeError):
            parse_trace_csv(fh)


@pytest.mark.parametrize("new_id", ["fresh", "bs0", '"bs"', ""])
def test_stations_chunk_names_a_bad_number_before_a_later_new_id(new_id):
    lines = [f"bs{i},{i},25,,\n" for i in range(30)]
    lines[9] = "bs9,oops,25,,\n"  # line 11
    lines[20] = f"{new_id},1,25,,\n"  # line 22: new, a duplicate or a bad id
    with pytest.raises(ParseError) as err:
        parse_stations_csv(io.StringIO("station_id,x,y,antenna_gain,height\n" + "".join(lines)))
    assert str(err.value) == "line 11: could not convert string to float: 'oops'"


def test_stations_check_reads_coded_gains_and_heights_back_as_strings():
    text = "station_id,x,y,antenna_gain,height\nbs0,0,0,,\nbs1,1,0,12.5,\r\nbs2,2,0,,30\nbs3,3,0,12.5,30"
    stations = parse_stations_csv(io.StringIO(text))
    assert [(s.station_id, s.antenna_gain, s.height) for s in stations] == [
        ("bs0", 15.0, 10.0), ("bs1", 12.5, 10.0), ("bs2", 15.0, 30.0), ("bs3", 12.5, 30.0),
    ]
