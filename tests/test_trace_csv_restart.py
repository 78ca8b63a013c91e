"""parse_trace_csv reads each stream once, from where it stands, CRLF files too.

There is one reader and no second pass: a stream that is not seekable,
stands after a preamble, or is a text file iterated with ``next`` (whose
``tell`` fails) is read in chunks from where it stands, and the table, or
the error, is the row-by-row oracle's.  car2cloud.mobility and csvio, read
with ast, neither import csv nor call seek or tell, and no module of the
package imports csv.
"""

import ast
import csv
import io
from pathlib import Path

import pytest

import trace_csv_oracle
from car2cloud import csvio, mobility
from car2cloud.csvio import READ_CHUNK_BYTES
from car2cloud.errors import ParseError, ValidationError
from car2cloud.mobility import emit_trace_csv, parse_trace_csv
from test_codec_boundary import names_used, users
from test_trace_csv import HEADER, MANY, valid_lines


class Unseekable(io.StringIO):
    """A text stream that says it cannot seek; ``tell`` still answers."""

    def seekable(self):
        return False

    def seek(self, *args):
        raise io.UnsupportedOperation("seek")


def emitted(table) -> str:
    buf = io.StringIO()
    emit_trace_csv(table, buf)
    return buf.getvalue()


def outcome(parse, stream):
    """emit_trace_csv text of parse(stream), or the type and message it raised."""
    with stream:
        try:
            return emitted(parse(stream))
        except Exception as exc:  # noqa: BLE001 - the comparison covers any error
            return type(exc), str(exc)


def opened(kind: str, text: str, tmp_path):
    """``text`` as a stream of the given kind, positioned at its header."""
    if kind == "unseekable":
        return Unseekable(text)
    path = tmp_path / "traces.csv"
    path.write_text("# one preamble line\n" + text, encoding="utf-8", newline="")
    stream = open(path, encoding="utf-8", newline="")
    if kind == "after a preamble":
        stream.readline()
        return stream
    next(stream)  # iterated with next: tell is disabled
    with pytest.raises(OSError):
        stream.tell()
    return stream


ACCEPTED = HEADER + "".join(valid_lines(MANY))


def bad_past_the_first_chunk() -> str:
    lines = valid_lines(MANY)
    lines[MANY - 5] = "veh0001,7,0.0,north,10.0\n"
    return HEADER + "".join(lines)


@pytest.mark.parametrize("kind", ["unseekable", "after a preamble", "iterated with next"])
def test_streams_read_from_where_they_stand(kind, tmp_path):
    expected = emitted(parse_trace_csv(io.StringIO(ACCEPTED)))
    assert outcome(trace_csv_oracle.parse_trace_csv, opened(kind, ACCEPTED, tmp_path)) == expected
    assert outcome(parse_trace_csv, opened(kind, ACCEPTED, tmp_path)) == expected

    bad = bad_past_the_first_chunk()
    expected = (ParseError, f"line {MANY - 3}: could not convert string to float: 'north'")
    assert outcome(trace_csv_oracle.parse_trace_csv, opened(kind, bad, tmp_path)) == expected
    assert outcome(parse_trace_csv, opened(kind, bad, tmp_path)) == expected


class ReadOnce(io.TextIOWrapper):
    """A text file that fails the test if asked where it stands or to move."""

    def seek(self, *args):
        raise AssertionError("seek")

    def tell(self):
        raise AssertionError("tell")


def test_seekable_stream_after_a_preamble_takes_the_chunked_path(tmp_path):
    expected = emitted(parse_trace_csv(io.StringIO(ACCEPTED)))
    path = tmp_path / "traces.csv"
    path.write_text("# one preamble line\n" + ACCEPTED, encoding="utf-8", newline="")
    stream = ReadOnce(open(path, "rb"), encoding="utf-8", newline="")
    assert stream.seekable()
    stream.readline()
    assert outcome(parse_trace_csv, stream) == expected


@pytest.mark.parametrize("path", [mobility.__file__, csvio.__file__])
def test_the_trace_reader_neither_imports_csv_nor_seeks(path):
    tree = ast.parse(Path(path).read_text(encoding="utf-8"))
    assert "csv" not in names_used(Path(path))
    calls = {
        node.func.attr for node in ast.walk(tree)
        if isinstance(node, ast.Call) and isinstance(node.func, ast.Attribute)
    }
    assert not calls & {"seek", "tell", "seekable"}


def test_no_module_of_the_package_imports_csv():
    # Traces, results and stations are all read by csvio.read_columns.
    assert users({"csv"}) == {}


@pytest.mark.parametrize("final_break", [True, False])
@pytest.mark.parametrize("file_like", [False, True])
def test_crlf_trace_takes_the_chunked_path(file_like, final_break):
    lines = valid_lines(MANY)
    lines.insert(50, "\n")  # a blank line
    lf = HEADER + "".join(lines)
    if not final_break:
        lf = lf.rstrip("\n")
    crlf = lf.replace("\n", "\r\n")

    def parse(text):
        if file_like:
            stream = ReadOnce(io.BytesIO(text.encode()), encoding="utf-8", newline="")
        else:
            stream = io.StringIO(text)
        return emitted(parse_trace_csv(stream))

    assert parse(crlf) == parse(lf)


# A stream opened with newline="\r\n" ends lines only at CRLF, so a bare line
# feed can sit inside a line.  csv.reader rejects it; the trace reader reads
# it as part of an id, which check_id rejects, or as whitespace beside a number.
LINE_FEED_OUTCOMES = {
    "vehicle_id,t,x,y,speed\r\na\n,0,1,2,3\r\nb,0,1,2,3\r\n": (
        ValidationError,
        "line 2: vehicle_id 'a\\n' contains a comma, quote or line break",
    ),
    "vehicle_id,t,x,y,speed\r\na,0,1,2,3\r\nb,0,\n1,2,3": (
        "vehicle_id,t,x,y,speed\na,0,1.0,2.0,3.0\nb,0,1.0,2.0,3.0\n"
    ),
    "vehicle_id,t,x,y,speed\r\na,0,1,2,3\r\n": "vehicle_id,t,x,y,speed\na,0,1.0,2.0,3.0\n",
}


@pytest.mark.parametrize("text", list(LINE_FEED_OUTCOMES))
def test_line_feed_inside_a_line(text):
    def stream():
        return io.TextIOWrapper(io.BytesIO(text.encode()), encoding="utf-8", newline="\r\n")

    assert outcome(parse_trace_csv, stream()) == LINE_FEED_OUTCOMES[text]
    row_reader = outcome(trace_csv_oracle.parse_trace_csv, stream())
    assert row_reader == LINE_FEED_OUTCOMES[text] or row_reader[0] is csv.Error


def test_undecodable_byte_past_an_earlier_bad_line(tmp_path):
    # A repeated sample is named only after every chunk has been read, so a
    # byte that is not UTF-8 in a later chunk is what the reader meets first.
    lines = valid_lines(MANY)
    lines[1] = lines[0]  # line 3 repeats line 2's sample
    data = (HEADER + "".join(lines)).encode() + b"veh\xff,0,0.0,0.0,10.0\n"
    assert len(data) > 1.2 * READ_CHUNK_BYTES
    path = tmp_path / "traces.csv"
    path.write_bytes(data)

    def stream():
        return open(path, encoding="utf-8", newline="")

    assert outcome(parse_trace_csv, stream())[0] is UnicodeDecodeError
    expected = (ValidationError, "line 3: duplicate sample ('veh0000', t=0)")
    assert outcome(trace_csv_oracle.parse_trace_csv, stream()) == expected
    path.write_bytes(data.replace(b"\xff", b"w"))
    assert outcome(parse_trace_csv, stream()) == expected
