"""parse_trace_csv on streams it cannot read again from their start, and on CRLF files.

A stream that is not seekable, or whose ``tell`` fails, is read row by row
from where it stands; a seekable one is read by chunks first and, where
that gives up, again from where it stood.  Either way the table, or the
error, must be the row-by-row oracle's.
"""

import io
from unittest import mock

import pytest

import trace_csv_oracle
from car2cloud import mobility
from car2cloud.csvio import READ_CHUNK_BYTES
from car2cloud.errors import ParseError, ValidationError
from car2cloud.mobility import emit_trace_csv, parse_trace_csv
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


def test_seekable_stream_after_a_preamble_takes_the_chunked_path(tmp_path):
    expected = emitted(parse_trace_csv(io.StringIO(ACCEPTED)))
    with mock.patch.object(mobility.csv, "reader", side_effect=AssertionError("csv.reader")):
        assert outcome(parse_trace_csv, opened("after a preamble", ACCEPTED, tmp_path)) == expected


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
            stream = io.TextIOWrapper(io.BytesIO(text.encode()), encoding="utf-8", newline="")
        else:
            stream = io.StringIO(text)
        return emitted(parse_trace_csv(stream))

    with mock.patch.object(mobility.csv, "reader", side_effect=AssertionError("csv.reader")):
        assert parse(crlf) == parse(lf)


@pytest.mark.parametrize(
    "text",
    [
        "vehicle_id,t,x,y,speed\r\na\n,0,1,2,3\r\nb,0,1,2,3\r\n",
        "vehicle_id,t,x,y,speed\r\na,0,1,2,3\r\nb,0,\n1,2,3",
        "vehicle_id,t,x,y,speed\r\na,0,1,2,3\r\n",
    ],
)
def test_line_feed_inside_a_line(text):
    # A stream opened with newline="\r\n" ends lines only at CRLF, so a bare
    # line feed can sit inside a line, where csv.reader rejects it.
    def stream():
        return io.TextIOWrapper(io.BytesIO(text.encode()), encoding="utf-8", newline="\r\n")

    assert outcome(parse_trace_csv, stream()) == outcome(trace_csv_oracle.parse_trace_csv, stream())


def test_undecodable_byte_past_an_earlier_bad_line(tmp_path):
    # The chunked reader finds a duplicate sample only after it has read every
    # chunk, so it stops at a byte that is not UTF-8 in a later chunk.  The
    # restart is what lets the row reader name the earlier line, as it does
    # in a file without that byte.
    lines = valid_lines(MANY)
    lines[1] = lines[0]  # line 3 repeats line 2's sample
    data = (HEADER + "".join(lines)).encode() + b"veh\xff,0,0.0,0.0,10.0\n"
    assert len(data) > 1.2 * READ_CHUNK_BYTES
    path = tmp_path / "traces.csv"
    path.write_bytes(data)

    def stream():
        return open(path, encoding="utf-8", newline="")

    expected = (ValidationError, "line 3: duplicate sample ('veh0000', t=0)")
    assert outcome(parse_trace_csv, stream()) == expected
    assert outcome(trace_csv_oracle.parse_trace_csv, stream()) == expected
    assert outcome(mobility._read_chunks, stream())[0] is UnicodeDecodeError
