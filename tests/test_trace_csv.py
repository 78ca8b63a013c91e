"""The trace CSV reader against the row-by-row reader it replaced.

Every input must give the same table, compared as emit_trace_csv bytes,
or the same exception type and message, except where the trace contract
(README, "Reading a trace CSV") departs from csv.reader on purpose:

- (a) a quote is data;
- (b) a repeated sample is named only where no line has another error;
- (c) a tick beyond int64 raises the codec's ParseError at its line;
- (d) a line longer than csv.field_size_limit() is read, and a CR or LF
  before a line's closing line break is data;
- (e) only the exact header line is read.

There the expected outcome is the row reader's on the lines as the
contract reads them (literal_outcome).
"""

import csv
import io
import sys
from unittest import mock

import numpy as np
import pytest
from hypothesis import example, given, settings
from hypothesis import strategies as st

import trace_csv_oracle
from car2cloud import csvio
from car2cloud.csvio import READ_CHUNK_BYTES
from car2cloud.errors import ParseError, ValidationError
from car2cloud.mobility import emit_trace_csv, parse_trace_csv

HEADER = "vehicle_id,t,x,y,speed\n"


def opened(text: str, file_like: bool = False):
    if file_like:  # as the CLI opens files: line breaks left as they are
        return io.TextIOWrapper(io.BytesIO(text.encode("utf-8")), encoding="utf-8", newline="")
    return io.StringIO(text)


def outcome(parse, text: str, file_like: bool = False):
    """emit_trace_csv text of parse(text), or the type and message it raised."""
    try:
        table = parse(opened(text, file_like))
    except Exception as exc:  # noqa: BLE001 - the comparison covers any error
        return type(exc), str(exc)
    buf = io.StringIO()
    emit_trace_csv(table, buf)
    return buf.getvalue()


def data_lines(text: str, file_like: bool = False) -> list[list[str] | None]:
    """Each line after the header, as the stream splits lines: its fields, split on
    commas once its closing run of CR and LF is gone, or None if it is blank.

    The header line may lack its line break only where no line follows it.
    """
    stream = opened(text, file_like)
    header = stream.readline()
    assert header == HEADER or (header == HEADER.rstrip("\n") and not stream.read())
    return [line.rstrip("\r\n").split(",") if line.strip("\r\n") else None for line in stream]


def tick_beyond_int64(fields: list[str] | None) -> bool:
    try:
        return len(fields) == 5 and not -(2**63) <= int(fields[1]) < 2**63
    except (TypeError, ValueError):
        return False


def literal_outcome(text: str, file_like: bool = False):
    """The outcome the trace contract gives text, from the row reader.

    Every field of every line is quoted for csv.reader, with no field size
    limit, so that it reads each field as it stands (a, d).  The lines from
    the first one with a tick beyond int64 are left out, and that tick is
    the error unless an earlier line fails (c).  A repeated sample's line is
    blanked and the rest read again, so that it is named only where no
    line fails (b).
    """
    lines, beyond = [HEADER], None
    for lineno, fields in enumerate(data_lines(text, file_like), start=2):
        if tick_beyond_int64(fields):
            beyond = (ParseError, f"line {lineno}: integer {fields[1]!r} exceeds 64 bits")
            break
        quoted = ('"' + field.replace('"', '""') + '"' for field in fields or ())
        lines.append(",".join(quoted) + "\n")
    limit = csv.field_size_limit(sys.maxsize)
    try:
        repeat = None
        while True:
            got = outcome(trace_csv_oracle.parse_trace_csv, "".join(lines))
            if isinstance(got, str) or "duplicate sample" not in got[1]:
                break
            repeat = repeat or got
            lines[int(got[1].split()[1].rstrip(":")) - 1] = "\n"
    finally:
        csv.field_size_limit(limit)
    if isinstance(got, str) or "1 Hz grid" in got[1]:
        return beyond or repeat or got
    return got


def assert_documented_outcome(text: str, file_like: bool = False):
    """Assert that parse_trace_csv gives text the row reader's outcome, or in cases
    (a)-(d) the contract's; return it."""
    expected = outcome(trace_csv_oracle.parse_trace_csv, text, file_like)
    documented = literal_outcome(text, file_like)
    inside = (
        '"' in text
        or any(map(tick_beyond_int64, data_lines(text, file_like)))
        or (isinstance(expected, tuple) and (
            expected[0] is csv.Error or "duplicate sample" in expected[1]
        ))
    )
    if not inside:
        assert documented == expected
    assert outcome(parse_trace_csv, text, file_like) == documented
    return documented


# Field values: mostly valid, plus each kind of bad or edge value a reader
# must treat as the row-by-row reader does.
IDS = ["a", "b", "veh1", "veh10", " c", "", '"a"', '"b"', '"a,b"', '"x""y"', 'p"q', "n\x00"]
TICKS = ["0", "1", "2", " 3", "-1", "1.0", "x", "", "1_0", str(2**63), str(-(2**63) - 1)]
FLOATS = ["0", "1.5", "-0.0", "20.25", " 2 ", "1e3", "-2", "nan", "inf", "-inf", "1e400", "east", ""]
# Texts that orjson, which reads whole columns, reads otherwise than int or
# float, or not at all: the column parser must read them as the row reader does.
GATE_TOKENS = [
    "-0", "-0.0", "-0e0", "+1", ".5", "5.", "01", "1E5", "0.1e1", "1e-400", "1e400",
    str(2**64 - 1), str(2**64), str(2**63), str(-(2**63) - 1), "1.0", "1_0", "１２", "-", "e5",
    "true", "null",
]
TICKS += GATE_TOKENS
FLOATS += GATE_TOKENS
# Values float rejects: a line's last field, such as a speed, is named
# without the line break beside it.
NOT_FLOATS = ["east", "", "-", "e5", "true", "null"]
EDITS = ["id", "t", "value", "last", "duplicate", "drop", "gap", "blank", "fields"]
ENDINGS = [["\n"], ["\n"], ["\n"], ["\r\n"], ["\n", "\n", "\n", "\r\n", "\r"]]


@st.composite
def trace_texts(draw):
    """Trace CSV text: valid vehicles on a 1 Hz grid, then edits that may break it."""
    rows = []
    for vid in draw(st.lists(st.sampled_from(IDS[:5]), min_size=1, max_size=4, unique=True)):
        start = draw(st.integers(0, 3))
        for t in range(start, start + draw(st.integers(1, 6))):
            x = draw(st.floats(-1e4, 1e4, allow_nan=False))
            rows.append([vid, str(t), repr(x), "0.0", repr(draw(st.floats(0, 60)))])
    rows = draw(st.permutations(rows))
    ends = [None] * len(rows)  # a row's own line break, or None for the file's kind
    for _ in range(draw(st.integers(0, 3))):
        i = draw(st.integers(0, len(rows) - 1))
        edit = draw(st.sampled_from(EDITS))
        if not rows[i]:  # a blank line stays blank
            continue
        if edit == "id":
            rows[i] = [draw(st.sampled_from(IDS)), *rows[i][1:]]
        elif edit == "t":
            rows[i] = [rows[i][0], draw(st.sampled_from(TICKS)), *rows[i][2:]]
        elif edit == "value":
            k = draw(st.integers(2, 4))
            rows[i] = [*rows[i][:k], draw(st.sampled_from(FLOATS)), *rows[i][k + 1:]]
        elif edit == "last":  # a bad last field, beside a line break with a CR
            rows[i] = [*rows[i][:-1], draw(st.sampled_from(NOT_FLOATS))]
            ends[i] = draw(st.sampled_from(["\r\n", "\r"]))
        elif edit == "duplicate":
            j = draw(st.integers(0, len(rows)))
            rows.insert(j, list(rows[i]))
            ends.insert(j, ends[i])
        elif edit == "drop" and len(rows) > 1:  # may open a 1 Hz gap
            del rows[i], ends[i]
        elif edit == "gap" and rows[i][1].isdigit():
            rows[i] = [rows[i][0], str(int(rows[i][1]) + 2), *rows[i][2:]]
        elif edit == "blank":
            rows.insert(i, [])
            ends.insert(i, None)
        elif edit == "fields":
            rows[i] = rows[i][:4] if draw(st.booleans()) else [*rows[i], "0"]
    endings = draw(st.sampled_from(ENDINGS))  # mostly one kind of line break per file
    ending = [end or draw(st.sampled_from(endings)) for end in ends]
    text = HEADER + "".join(",".join(row) + end for row, end in zip(rows, ending))
    return text if draw(st.booleans()) else text.rstrip("\r\n")


@settings(max_examples=400, deadline=None)
@given(trace_texts(), st.sampled_from([1, 40, 300, READ_CHUNK_BYTES]), st.booleans())
# A blank line, the drop of the only row and the trailing-break strip leave the header alone.
@example(HEADER.rstrip("\n"), 1, False)
def test_chunked_reader_matches_the_row_reader(text, chunk_bytes, file_like):
    with mock.patch.object(csvio, "READ_CHUNK_BYTES", chunk_bytes):
        assert_documented_outcome(text, file_like)


@pytest.mark.parametrize("token", GATE_TOKENS)
@pytest.mark.parametrize("field", [1, 2, 4])  # t, x and speed, the last
def test_each_gate_token_matches_the_row_reader(field, token):
    lines = [f"veh{k % 10},{k // 10},{k * 0.5!r},0.0,10.0\n" for k in range(200)]
    parts = lines[150].rstrip("\n").split(",")
    parts[field] = token
    lines[150] = ",".join(parts) + "\n"
    with mock.patch.object(csvio, "READ_CHUNK_BYTES", 2000):
        assert_documented_outcome(HEADER + "".join(lines))


def valid_lines(n: int) -> list[str]:
    """n valid rows of 100 vehicles, each on a 1 Hz grid from tick 0."""
    return [f"veh{k % 100:04d},{k // 100},{k * 0.5!r},0.0,10.0\n" for k in range(n)]


# Enough rows that the last third lies past the reader's first chunk.
MANY = READ_CHUNK_BYTES // len(valid_lines(1)[0]) * 3 // 2


def big_text(lines: list[str]) -> str:
    text = HEADER + "".join(lines)
    assert len(text) > 1.2 * READ_CHUNK_BYTES
    return text


def test_bad_line_past_the_first_chunk():
    lines = valid_lines(MANY)
    lines.insert(50, "\n")  # blank lines are skipped but counted
    lines[MANY - 5] = "veh0001,7,0.0,north,10.0\n"
    lines[MANY - 2] = ",9,0.0,0.0,10.0\n"  # a later error is not the one reported
    expected = assert_documented_outcome(big_text(lines))
    assert expected == (ParseError, f"line {MANY - 3}: could not convert string to float: 'north'")


def test_empty_id_past_the_first_chunk():
    lines = valid_lines(MANY)
    lines.insert(50, "\n")
    lines[MANY - 5] = ",5000,0.0,0.0,10.0\n"
    expected = assert_documented_outcome(big_text(lines))
    assert expected == (ParseError, f"line {MANY - 3}: empty vehicle_id")


QUOTED_ID_ERROR = "vehicle_id {!r} contains a comma, quote or line break"


@pytest.mark.parametrize("later_bad_line", [False, True])
@pytest.mark.parametrize("quoted", [False, True])
def test_duplicate_rows_in_different_chunks(quoted, later_bad_line):
    lines = valid_lines(MANY)
    lines.insert(10, "\n")
    lines.insert(20, "\n")
    if quoted:  # a quote is data: this id is bad
        lines[-2] = '"' + lines[-2].replace(",", '",', 1)
        quoted_error = (ValidationError, f"line {len(lines)}: " + QUOTED_ID_ERROR.format(
            lines[-2].split(",")[0]
        ))
    lines.append("\n")
    lines.append(lines[30])  # repeats ('veh0028', 0), right after a blank line
    repeat_line = len(lines) + 1
    if later_bad_line:  # a later bad line is reported before a repeat
        lines.append("veh0001,7,0.0,north,10.0\n")
    expected = assert_documented_outcome(big_text(lines))
    if quoted:
        assert expected == quoted_error
    elif later_bad_line:
        message = f"line {repeat_line + 1}: could not convert string to float: 'north'"
        assert expected == (ParseError, message)
    else:
        assert expected == (ValidationError, f"line {repeat_line}: duplicate sample ('veh0028', t=0)")


def test_a_later_bad_line_wins_over_a_duplicate_in_the_first_chunk():
    lines = valid_lines(MANY)
    lines.insert(5, "\n")
    lines.insert(1000, lines[700])
    lines.insert(2000, lines[600])  # a second, later repeat
    lines[MANY - 5] = "veh0001,7,0.0,north,10.0\n"
    expected = assert_documented_outcome(big_text(lines))
    assert expected == (ParseError, f"line {MANY - 3}: could not convert string to float: 'north'")
    lines[MANY - 5] = lines[MANY - 6]  # without it, the first repeating line is named
    expected = assert_documented_outcome(big_text(lines))
    assert expected == (ValidationError, "line 1002: duplicate sample ('veh0099', t=6)")


def test_duplicates_in_one_chunk_name_the_first_repeating_line():
    lines = valid_lines(MANY)
    lines.insert(3, "\n")
    lines.insert(900, lines[100])  # repeats an early sample, but late
    lines.insert(500, lines[400])  # repeats a later sample, but early
    expected = assert_documented_outcome(big_text(lines))
    assert expected == (ValidationError, "line 502: duplicate sample ('veh0099', t=3)")


def test_quoted_row_past_the_first_chunk():
    lines = valid_lines(MANY)
    k = MANY - 100
    lines[k] = '"' + lines[k].replace(",", '",', 1)
    expected = assert_documented_outcome(big_text(lines))
    assert expected == (ValidationError, f"line {k + 2}: " + QUOTED_ID_ERROR.format(f'"veh{k % 100:04d}"'))


def test_carriage_returns_past_the_first_chunk():
    lines = valid_lines(MANY)
    for k in range(MANY - 100, MANY):
        lines[k] = lines[k].replace("\n", "\r\n")
    text = big_text(lines)
    assert assert_documented_outcome(text) == outcome(parse_trace_csv, big_text(valid_lines(MANY)))
    assert assert_documented_outcome(text, file_like=True) == outcome(parse_trace_csv, text)
    bad = lines[:MANY - 50] + [lines[MANY - 50].replace("10.0\r\n", "east\r\n")]
    expected = assert_documented_outcome(big_text(bad))
    assert expected == (ParseError, f"line {MANY - 48}: could not convert string to float: 'east'")
    vid, t, x, _ = lines[MANY - 90].split(",", 3)
    lines[MANY - 90] = f"{vid},{t},{x}\r,0.0,10.0\r\n"
    text = big_text(lines)
    error, message = outcome(trace_csv_oracle.parse_trace_csv, text)
    assert error is csv.Error and message.startswith("new-line character seen in unquoted field")
    # A CR inside a line is whitespace beside x, as float reads it.
    assert assert_documented_outcome(text) == outcome(parse_trace_csv, big_text(valid_lines(MANY)))
    expected = assert_documented_outcome(text, file_like=True)
    assert expected == (ParseError, f"line {MANY - 88}: expected 5 fields, got 3")


def test_lines_beyond_the_csv_field_limit():
    limit = csv.field_size_limit()
    long_zero = "0." + "0" * (limit // 2)
    lines = valid_lines(MANY)
    k = MANY - 100
    vid, t, _ = lines[k].split(",", 2)
    lines[k] = f"{vid},{t},{long_zero},{long_zero},10.0\n"  # every field fits
    assert len(lines[k]) > limit
    assert outcome(parse_trace_csv, big_text(lines)).count("\n") == MANY + 1
    assert_documented_outcome(big_text(lines))
    lines[k] = f"{vid},{t},{long_zero}{'0' * limit},0.0,10.0\n"  # x does not fit
    assert outcome(trace_csv_oracle.parse_trace_csv, big_text(lines)) == (
        csv.Error, f"field larger than field limit ({limit})"
    )
    expected = assert_documented_outcome(big_text(lines))
    lines[k] = f"{vid},{t},0.0,0.0,10.0\n"
    assert expected == outcome(parse_trace_csv, big_text(lines))


def test_valid_input_gives_the_row_readers_table():
    lines = valid_lines(MANY)
    lines.insert(MANY // 2, "\n")
    text = big_text(lines)
    assert outcome(parse_trace_csv, text) == assert_documented_outcome(text)
    table = parse_trace_csv(io.StringIO(text))
    assert len(table.vehicle_id.names) == 100


def canonical_lines(n: int) -> list[str]:
    """n valid rows of 100 vehicles, in canonical order: by vehicle id, then tick."""
    return sorted(valid_lines(n), key=lambda line: (line[:7], int(line.split(",")[1])))


def test_rows_in_canonical_order_are_not_sorted(monkeypatch):
    lines = canonical_lines(MANY)
    text = big_text(lines)
    expected = assert_documented_outcome(text)
    monkeypatch.setattr(np, "lexsort", mock.Mock(side_effect=AssertionError("sorted")))
    assert outcome(parse_trace_csv, text) == expected == text
    with pytest.raises(AssertionError, match="sorted"):
        parse_trace_csv(io.StringIO(big_text(lines[::-1])))


@pytest.mark.parametrize("reverse", [False, True], ids=["in canonical order", "reversed"])
@pytest.mark.parametrize(
    "rows, messages",
    [
        (["a,0", "a,1", "a,1", "b,0"], ["line 4: duplicate sample ('a', t=1)"] * 2),
        (["a,0", "a,0", "b,0", "b,0"],
         ["line 3: duplicate sample ('a', t=0)", "line 3: duplicate sample ('b', t=0)"]),
        (["a,0", "a,2", "b,0", "b,3"],
         ["vehicle 'a': samples not on a 1 Hz grid (ticks 0 -> 2)"] * 2),
    ],
    ids=["one repeat", "two repeats", "gaps"],
)
def test_repeats_and_gaps_are_named_alike_in_any_row_order(rows, messages, reverse):
    lines = [f"{row},0.0,0.0,1.0\n" for row in rows]
    text = HEADER + "".join(lines[::-1] if reverse else lines)
    assert assert_documented_outcome(text) == (ValidationError, messages[reverse])
