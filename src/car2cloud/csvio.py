"""The CSV codec of the trace, results and CDF files.

Writers give write_columns their columns: lists of ids, written as they
are, and numeric columns, written by column_text as str and repr write
them, from orjson's shortest round-trip digits.  Readers check their header
line and give the rest to read_columns, which splits each chunk of lines
once on commas and converts each column as a whole with int or float; a
chunk that does not convert is read again line by line to name its first
bad line, as a row reader would.  Readers run their chunks through
ordered_map, which hands every other chunk to a forked worker when a second
CPU is available; tables and errors are the same either way.  Writers
format every chunk in this process: with column_text, a forked worker costs
them more time than it saves.
"""

from __future__ import annotations

import gc
import os
import pickle
import sys
from functools import partial
from itertools import chain, islice, repeat
from typing import IO, Callable, Iterable, Iterator, Sequence

import numpy as np
import orjson

from .errors import ParseError, ValidationError

# Characters that would split or break a row where an id is written unquoted.
ID_FORBIDDEN_CHARS = ',"\r\n'

# Bytes of CSV lines read (and parsed) at a time by read_columns.
READ_CHUNK_BYTES = 1 << 20
# Rows formatted per chunk by write_columns, about 1 MB of results CSV text.
# Chunks of 2**11 to 2**14 rows write ring_backlog's 300k rows at one speed
# and larger ones no faster; their transient column texts and row strings
# (about 4 MB per chunk of results) only raise the peak RSS.
WRITE_CHUNK_ROWS = 1 << 13

_DTYPES = {int: np.int64, float: np.float64}

# Lines read_columns skips: a blank line, closed by LF or by CRLF.
BLANK_LINES = ("\n", "\r\n")


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


def records(reader) -> Iterator[tuple[int, list[str]]]:
    """Each csv.reader record after the line it starts on (a quoted field may hold line breaks)."""
    lineno = reader.line_num + 1
    for row in reader:
        yield lineno, row
        lineno = reader.line_num + 1


def parse_chunk(lines: list[str], converters: Sequence) -> list:
    """Columns of a chunk of non-blank CSV lines, one per converter.

    The chunk is split once on commas and each column converted as a whole:
    by int into an int64 array, by float into a float64 array, and where
    the converter is None kept as interned strings, so each distinct value
    is held once.  Raises ValueError if a line has not one field per
    converter or a field does not convert, and OverflowError if an integer
    does not fit in int64.
    """
    width = len(converters)
    if set(map(str.count, lines, repeat(","))) != {width - 1}:
        raise ValueError(f"a line without {width} fields")
    fields = ",".join(lines).split(",")
    columns: list = []
    for i, convert in enumerate(converters):
        column = fields[i::width]
        if convert is None:
            columns.append(list(map(sys.intern, column)))
        else:
            columns.append(
                np.fromiter(map(convert, column), dtype=_DTYPES[convert], count=len(lines))
            )
    return columns


def join_chunks(chunks: list[list], converters: Sequence) -> list:
    """Each column of parse_chunk's chunks, concatenated in chunk order.

    Ids are interned again: a chunk unpickled from ordered_map's worker
    holds copies of its own.
    """
    columns: list = []
    for i, convert in enumerate(converters):
        parts = [chunk[i] for chunk in chunks]
        if convert is None:
            columns.append(list(map(sys.intern, chain.from_iterable(parts))))
        else:
            columns.append(np.concatenate(parts) if parts else np.zeros(0, _DTYPES[convert]))
    return columns


def _raise_bad_line(lines: list[str], lineno: int, converters: Sequence) -> None:
    """Raise ParseError naming the first of these lines, from line lineno, that cannot be read.

    Goes line by line, so the error names the line and field a row reader would.
    """
    for lineno, line in enumerate(lines, start=lineno):
        if line in BLANK_LINES:
            continue
        parts = line.rstrip("\n").split(",")
        if len(parts) != len(converters):
            raise ParseError(f"line {lineno}: expected {len(converters)} fields, got {len(parts)}")
        for part, convert in zip(parts, converters):
            if convert is None:
                continue
            try:
                value = convert(part)
            except ValueError as exc:
                raise ParseError(f"line {lineno}: {exc}") from None
            if convert is int and not -(1 << 63) <= value < 1 << 63:
                raise ParseError(f"line {lineno}: integer {part!r} exceeds 64 bits")


def read_columns(stream: IO[str], converters: Sequence, check: Callable | None = None) -> list:
    """The columns of the CSV lines after a one-line header, one per converter.

    Lines are read about READ_CHUNK_BYTES at a time and each chunk goes
    through ordered_map: blank lines are skipped, the rest parsed by
    parse_chunk and then passed, with their columns, to check, which may
    raise.  A chunk that does not parse raises ParseError naming its first
    bad line, the header being line 1.
    """

    def read_chunk(chunk: tuple[int, list[str]]) -> list | None:
        lineno, lines = chunk
        rows = [line for line in lines if line not in BLANK_LINES]
        if not rows:
            return None
        try:
            columns = parse_chunk(rows, converters)
        except (ValueError, OverflowError):
            _raise_bad_line(lines, lineno, converters)
            raise
        if check is not None:
            check(rows, columns)
        return columns

    lineno = 2

    def number(lines: list[str]) -> tuple[int, list[str]]:
        nonlocal lineno
        lineno += len(lines)
        return lineno - len(lines), lines

    # Numbered by map: a generator would hold each chunk read while the one before it is parsed.
    chunks = map(number, iter(partial(stream.readlines, READ_CHUNK_BYTES), []))
    return join_chunks(list(filter(None, ordered_map(read_chunk, chunks))), converters)


def _send(pipe: IO[bytes], data: bytes) -> None:
    """Write one message: its length, then its bytes."""
    pipe.write(len(data).to_bytes(8, "little"))
    pipe.write(data)
    pipe.flush()


def _receive(pipe: IO[bytes]) -> bytes | None:
    """The next message _send wrote to the pipe, or None if the pipe ends first."""
    head = pipe.read(8)
    size = int.from_bytes(head, "little")
    data = pipe.read(size)
    return data if len(head) == 8 and len(data) == size else None


_END = object()


def ordered_map(fn: Callable, items: Iterable) -> Iterator:
    """map(fn, items), with every odd item computed by a forked worker.

    The worker is forked only where os.sched_getaffinity grants two CPUs or
    more, and only for two items or more.  It has fn, and whatever fn
    reads, through the fork; each odd item goes to it, and its result comes
    back, pickled over a pipe, while this process computes the even item
    before it.  An item the worker fails on, and every item after the
    worker is gone, is computed here, so an exception is raised here, at
    the item map would raise it at.  The worker leaves only through
    os._exit, so it never flushes an inherited stream, and it is reaped
    when the iteration ends, also when the consumer stops early.
    """
    items = iter(items)
    if not hasattr(os, "sched_getaffinity") or len(os.sched_getaffinity(0)) < 2:
        yield from map(fn, items)
        return
    pair = list(islice(items, 2))
    if len(pair) < 2:
        yield from map(fn, pair)
        return
    even, odd = pair
    del pair  # so that each item is freed once it is done with
    down_r, down_w = os.pipe()
    up_r, up_w = os.pipe()
    try:
        pid = os.fork()
    except OSError:  # no process to spare: compute every item here
        for fd in (down_r, down_w, up_r, up_w):
            os.close(fd)
        yield from map(fn, chain((even, odd), items))
        return
    if pid == 0:
        try:
            gc.disable()  # a collection could finalize, so flush, an inherited file
            os.close(down_w)
            os.close(up_r)
            with os.fdopen(down_r, "rb") as inbox, os.fdopen(up_w, "wb") as outbox:
                while (item := _receive(inbox)) is not None:
                    try:
                        reply = (True, fn(pickle.loads(item)))
                        _send(outbox, pickle.dumps(reply, pickle.HIGHEST_PROTOCOL))
                    except Exception:
                        _send(outbox, pickle.dumps((False, None)))
        finally:
            os._exit(0)
    os.close(down_r)
    os.close(up_w)
    inbox, outbox = os.fdopen(up_r, "rb"), os.fdopen(down_w, "wb")
    alive = True
    try:
        while odd is not _END:
            # Kept pickled, so that its objects are freed before fn(even) runs.
            odd = pickle.dumps(odd, pickle.HIGHEST_PROTOCOL)
            if alive:
                try:
                    _send(outbox, odd)
                except BrokenPipeError:
                    alive = False
            yield fn(even)
            reply = _receive(inbox) if alive else None
            alive = reply is not None
            ok, result = pickle.loads(reply) if reply else (False, None)
            yield result if ok else fn(pickle.loads(odd))
            even = next(items, _END)
            odd = next(items, _END)
        if even is not _END:
            yield fn(even)
    finally:
        try:
            outbox.close()
        except BrokenPipeError:  # what the worker did not read yet
            pass
        inbox.close()
        os.waitpid(pid, 0)


def write_columns(stream: IO[str], header: str, columns: Sequence) -> None:
    """Write the header line, then the rows of columns, WRITE_CHUNK_ROWS rows per write.

    Each column is an int64 or float64 array, written as column_text writes
    it, or a list of str, written as it is.
    """
    stream.write(header + "\n")
    for lo in range(0, len(columns[0]), WRITE_CHUNK_ROWS):
        rows = slice(lo, lo + WRITE_CHUNK_ROWS)
        texts = [column_text(c[rows]) if isinstance(c, np.ndarray) else c[rows] for c in columns]
        stream.write("\n".join(map(",".join, zip(*texts))) + "\n")
