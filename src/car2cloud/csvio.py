"""The CSV codec of the trace, station, results and CDF files.

Writers give write_columns their columns: lists of ids, written as they
are, and numeric columns, written by column_text as str and repr write
them, from orjson's shortest round-trip digits.  Readers check their header
line with read_header and give the rest to read_columns, which reads the
stream once and splits each chunk of lines once on commas; a quote, or a
CR or LF before a line's closing line break, is data.  Each string column
is coded as it is read, by the one id coder that id_codes also runs: one
dict lookup per field, and one sort of the distinct ids at the end, into
IdCodes.  Each numeric column is converted with convert_column: one
orjson.loads call where a byte gate shows that orjson reads the column's
text as int or float would, else int or float field by field, which also
raises their errors.  Each chunk's columns are written straight into the
table's columns, which double when a chunk does not fit, for a file to no
more rows than its unread bytes foresee, and are trimmed once at the end,
so the table is never held twice.  A chunk that does not convert is
read again line by line to name its first bad line, as a row reader
would.  A reader's check sees the whole table read before that line,
once, and its errors come first; RowLines gives any row's line number.
"""

from __future__ import annotations

import os
import re
from bisect import bisect_right
from functools import partial
from itertools import repeat
from typing import IO, Callable, NamedTuple, Sequence

import numpy as np
import orjson

from .errors import ParseError, ValidationError

# Characters that would split or break a row where an id is written unquoted.
ID_FORBIDDEN_CHARS = ',"\r\n'

# Bytes of CSV lines read, parsed and converted at a time by read_columns;
# each numeric column of a chunk is one orjson.loads call.  The chunk bounds
# the parse's temporaries (the lines, their fields, a column's text and
# orjson's list of numbers).  Running ring_backlog's three commands in one
# process, chunks of 64 KiB read its traces and results at the same speed
# and peak RSS, and chunks of 1 MiB about 15 % slower and 4.7 MB higher.
READ_CHUNK_BYTES = 1 << 17
# Rows formatted per chunk by write_columns, about 1 MB of results CSV text.
# A chunk's transient column texts and row strings (about 4 MB per chunk of
# results) add to the peak RSS: on ring_backlog, chunks of 2**11 rows
# lowered the benchmark's peak_rss_mb from 83.2 to 79.6 MB, but made gen_s
# 2.2 % and simulate_s 1.6 % slower (medians of 10 pairs, 3 of 10 faster
# each).  Chunks larger than 2**13 rows write no faster.
WRITE_CHUNK_ROWS = 1 << 13

_DTYPES = {int: np.int64, float: np.float64}
# The int64 bound, exclusive, of every integer the CSV files and tables hold.
INT64_BOUND = 1 << 63
# The bytes a column's text may hold for _json_numbers to read it with
# orjson: digits, signs, line breaks and commas, and for floats the point
# and the exponent.  This keeps out what float or int reads and JSON does
# not (nan, inf, 1_0, spaces, non-ASCII digits) and what JSON reads and
# they do not (true, null, quotes, brackets).
_JSON_BYTES = {int: b"0123456789-\r\n,", float: b"0123456789-\r\n,+.eE"}
# A field -0, which orjson reads as int 0, not as float's -0.0.  A false
# hit, such as the exponent of 1e-0, only sends a column field by field.
_NEGATIVE_ZERO = re.compile(rb"-0(?:[,\r\n]|\Z)")

# The characters of a line break; read_columns skips a line of only these.
LINE_BREAK = "\r\n"


class IdCodes(NamedTuple):
    """An id column: the distinct ids, sorted, each used by some row, and
    each row's index among them, as id_codes gives them."""

    names: list[str]
    codes: np.ndarray  # int64

    def ids(self) -> np.ndarray:
        """Each row's id, as an object array, by one gather."""
        return np.array(self.names, dtype=object)[self.codes]


class _IdCoder(dict):
    """Codes ids in the order they are first seen: an unseen id gets the next code.

    names holds the ids by code.  Each field is hashed once, by the dict
    lookup that codes it.
    """

    def __init__(self) -> None:
        super().__init__()
        self.names: list[str] = []

    def __missing__(self, name: str) -> int:
        code = self[name] = len(self.names)
        self.names.append(name)
        return code

    def codes(self, ids: Sequence[str]) -> np.ndarray:
        """Each id's code, as an int64 array."""
        return np.fromiter(map(self.__getitem__, ids), np.int64, len(ids))

    def sorted(self, codes: np.ndarray) -> IdCodes:
        """Codes of this coder as IdCodes: the ids sorted once, each code
        replaced in place by its id's rank."""
        order = sorted(range(len(self.names)), key=self.names.__getitem__)
        rank = np.empty(len(order), dtype=np.int64)
        rank[order] = np.arange(len(order))
        # Every code indexes rank, so clip clips none; unlike raise, it
        # gathers into out without a buffer the size of codes.
        np.take(rank, codes, out=codes, mode="clip")
        return IdCodes([self.names[i] for i in order], codes)


def id_codes(ids: Sequence[str]) -> IdCodes:
    """The ids coded: the sorted distinct ids, and each id's index among them."""
    coder = _IdCoder()
    return coder.sorted(coder.codes(ids))


def check_id(value: str, where: str, what: str) -> None:
    """Reject an id that is empty or that a CSV output could not hold as one field."""
    if not value:
        raise ParseError(f"{where}: empty {what}")
    if any(c in value for c in ID_FORBIDDEN_CHARS):
        raise ValidationError(
            f"{where}: {what} {value!r} contains a comma, quote or line break"
        )


def column_text(column: np.ndarray) -> list[str]:
    """Each value of an int64 or float64 column as str (for a float, repr) writes it.

    orjson writes the same shortest round-trip digits as repr, many at a
    time, but writes a float 0 < |x| < 1e-4 or |x| >= 1e16 without repr's
    exponent form (0.000015, 1e16 for 1.5e-05, 1e+16) and nan and inf as
    null; those few values are written by repr instead.
    """
    column = np.ascontiguousarray(column)
    if not len(column):
        return []
    fields = orjson.dumps(column, option=orjson.OPT_SERIALIZE_NUMPY)[1:-1].decode().split(",")
    if column.dtype.kind == "f":
        magnitude = np.abs(column)
        unlike = ~(magnitude < 1e16) | ((magnitude < 1e-4) & (magnitude != 0))
        for i in np.flatnonzero(unlike).tolist():
            fields[i] = repr(column[i].item())
    return fields


def convert_column(column: list[str], convert) -> np.ndarray:
    """np.fromiter(map(convert, column), ...) into int64 (convert is int) or float64 (float).

    The column is read by _json_numbers where orjson provably reads it as
    convert would, else field by field, which raises as the per-field
    conversion always did: ValueError for a field that does not convert,
    OverflowError for an integer beyond int64.
    """
    values = _json_numbers(column, convert)
    if values is None:
        return np.fromiter(map(convert, column), dtype=_DTYPES[convert], count=len(column))
    return values


def _json_numbers(column: list[str], convert) -> np.ndarray | None:
    """The fields read by one orjson.loads call over their comma-joined text, or None.

    None unless orjson reads the fields as convert does: the text holds only
    _JSON_BYTES, orjson reads it, one number per field, a float column
    holds no integer -0 (orjson reads int 0, float reads -0.0), and an int
    column's values all fit in int64 (orjson reads an integer beyond u64 as
    a float).  Both parsers round correctly, so they agree on every number
    let through.
    """
    dtype = _DTYPES[convert]
    text = ",".join(column).encode()
    if text.translate(None, _JSON_BYTES[convert]) or (
        convert is float and b"-" in text and _NEGATIVE_ZERO.search(text)
    ):
        return None
    try:
        values = orjson.loads(b"[%b]" % text)
    except orjson.JSONDecodeError:
        return None
    array = np.array(values, dtype=None if convert is int else dtype)
    if len(values) != len(column) or array.dtype != dtype:
        return None
    return array


def parse_chunk(lines: list[str], converters: Sequence) -> list:
    """Columns of a chunk of non-blank CSV lines, one per converter.

    The lines are joined by commas, the text split once on commas and each
    column converted as a whole: by convert_column, as int into an int64
    array or as float into a float64 array, and where the converter is
    None kept as strings, for read_columns to code once the chunk parsed.
    Raises ValueError if a line has not one field per converter or a field
    does not convert, and OverflowError if an integer does not fit in int64.
    """
    width = len(converters)
    if set(map(str.count, lines, repeat(","))) != {width - 1}:
        raise ValueError(f"a line without {width} fields")
    fields = ",".join(lines).split(",")
    columns: list = []
    for i, convert in enumerate(converters):
        column = fields[i::width]
        columns.append(column if convert is None else convert_column(column, convert))
    return columns


class RowLines:
    """The line number of each row that read_columns reads, the header being line 1.

    Rows count from 0 over all chunks.  Only the skipped blank lines are
    kept, each as the number of rows before it, so a row's line number is
    its index, plus 2, plus the blank lines before it.
    """

    def __init__(self) -> None:
        self.blanks: list[int] = []

    def __call__(self, row: int) -> int:
        return row + 2 + bisect_right(self.blanks, row)


def _first_bad_row(rows: list[str], converters: Sequence) -> tuple[int, str]:
    """The index of the first of these non-blank lines that cannot be read, and why.

    Goes line by line, so the reason names the field a row reader would.
    """
    for i, row in enumerate(rows):
        parts = row.rstrip(LINE_BREAK).split(",")
        if len(parts) != len(converters):
            return i, f"expected {len(converters)} fields, got {len(parts)}"
        for part, convert in zip(parts, converters):
            if convert is None:
                continue
            try:
                value = convert(part)
            except ValueError as exc:
                return i, str(exc)
            if convert is int and not -INT64_BOUND <= value < INT64_BOUND:
                return i, f"integer {part!r} exceeds 64 bits"
    raise AssertionError("parse_chunk failed on rows that each parse")


def read_header(stream: IO[str], kind: str, accept: Callable[[str], bool]) -> str:
    """The header line of a kind CSV without its closing LF or CRLF; a
    ParseError if the stream is empty or accept rejects the header."""
    header = stream.readline()
    if not header:
        raise ParseError(f"{kind} CSV is empty (missing header)")
    header = header[:-2] if header.endswith("\r\n") else header.removesuffix("\n")
    if not accept(header):
        raise ParseError(f"bad {kind} CSV header: {header!r}")
    return header


def _capacity(stream: IO[str], end: int, chunk: list[str]) -> int:
    """The rows read_columns makes room for once its columns must hold end,
    chunk being the lines it read last.

    A stream with a file descriptor gets end, chunk's lines again for the
    text its buffer holds, and its unread bytes at chunk's lines per
    character, but at most twice end; any other stream gets twice end.
    """
    try:
        fd = stream.fileno()
        unread = os.fstat(fd).st_size - os.lseek(fd, 0, os.SEEK_CUR)
    except (AttributeError, OSError):
        return 2 * end
    return min(2 * end, end + len(chunk) + max(unread, 0) * len(chunk) // len("".join(chunk)))


def read_columns(
    stream: IO[str],
    converters: Sequence,
    check: Callable | None = None,
    lines: RowLines | None = None,
) -> list:
    """The columns of the CSV lines after a one-line header, one per converter.

    Lines are read about READ_CHUNK_BYTES at a time, from where the stream
    stands, once.  In each chunk the blank lines (of only CR and LF) are
    skipped and the rest parsed by parse_chunk, which joins them by commas
    once.  Each column whose converter is None is coded by one id coder
    over all chunks, and comes back as IdCodes.  Every chunk's columns, id
    codes included, are written straight into one int64 or float64 array
    per column, made larger by _capacity when a chunk does not fit and
    trimmed once at the end: no chunk's columns are kept or joined, so the
    table is held once.  The read stops at the first line that does not
    parse, or that does not decode.
    check(columns), if given, is called once, with the columns of every
    row before that line, and may raise; then that line's error is raised,
    a ParseError naming it or the UnicodeDecodeError, so the first bad line
    in file order is the one named.  lines, if given, learns the line
    number of every row read.
    """
    lines = RowLines() if lines is None else lines
    coders = [_IdCoder() if convert is None else None for convert in converters]
    # An id column's codes are int64 too.
    out = [np.empty(0, _DTYPES.get(convert, np.int64)) for convert in converters]
    size = 0  # rows written

    def parse(rows: list[str], chunk: list[str]) -> None:
        nonlocal size
        columns = parse_chunk(rows, converters)
        end = size + len(rows)
        if end > len(out[0]):
            capacity = _capacity(stream, end, chunk)
            for column in out:
                column.resize(capacity, refcheck=False)
        for column, values, coder in zip(out, columns, coders):
            column[size:end] = values if coder is None else coder.codes(values)
        size = end

    error = None
    try:
        for chunk in iter(partial(stream.readlines, READ_CHUNK_BYTES), []):
            rows = chunk
            if min(chunk)[0] <= "\r":  # a line starts with CR, LF or a lower character
                rows = []
                for line in chunk:
                    if line.strip(LINE_BREAK):
                        rows.append(line)
                    else:
                        lines.blanks.append(size + len(rows))
            if rows:
                try:
                    parse(rows, chunk)
                except (ValueError, OverflowError):
                    bad, reason = _first_bad_row(rows, converters)
                    error = ParseError(f"line {lines(size + bad)}: {reason}")
                    if bad:
                        parse(rows[:bad], chunk)
                    break
    except UnicodeDecodeError as exc:
        error = exc
    for column in out:
        column.resize(size, refcheck=False)
    columns = [
        column if coder is None else coder.sorted(column) for column, coder in zip(out, coders)
    ]
    if check is not None:
        check(columns)
    if error is not None:
        raise error
    return columns


def write_columns(stream: IO[str], header: str, columns: Sequence) -> None:
    """Write the header line, then the rows of columns, WRITE_CHUNK_ROWS rows per write.

    Each column is an int64 or float64 array, written as column_text writes
    it, or a list or object array of str, written as it is.
    """
    stream.write(header + "\n")
    for lo in range(0, len(columns[0]), WRITE_CHUNK_ROWS):
        rows = slice(lo, lo + WRITE_CHUNK_ROWS)
        texts = [
            column_text(c[rows]) if isinstance(c, np.ndarray) and c.dtype != object else c[rows]
            for c in columns
        ]
        stream.write("\n".join(map(",".join, zip(*texts))) + "\n")
