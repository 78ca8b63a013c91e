"""Test oracle: csvio.read_columns as a reader that keeps every chunk and joins them.

read_columns here reads the same chunks of lines as csvio.read_columns,
converts each line on its own with int and float, keeps each chunk's rows
in a list, and joins them into one array per column with np.concatenate
once the read ends.  Ids are coded over the joined column by a sorted set
and a dict.  Nothing is preallocated, so no capacity rule can show in what
it returns.  Tests compare csvio.read_columns against it: the columns, the
columns check is called with, and the error raised.
"""

from __future__ import annotations

from functools import partial
from typing import IO, Callable, Sequence

import numpy as np

from car2cloud import csvio
from car2cloud.errors import ParseError

DTYPES = {int: np.int64, float: np.float64, None: np.int64}


def first_error(fields: list[str], converters: Sequence) -> str | None:
    """Why a line of these fields, its line break gone, does not read, or None."""
    if len(fields) != len(converters):
        return f"expected {len(converters)} fields, got {len(fields)}"
    for field, convert in zip(fields, converters):
        if convert is None:
            continue
        try:
            value = convert(field)
        except ValueError as exc:
            return str(exc)
        if convert is int and not -(2**63) <= value < 2**63:
            return f"integer {field!r} exceeds 64 bits"
    return None


def coded(ids: list[str]) -> tuple[list[str], np.ndarray]:
    """The sorted distinct ids, and each id's index among them."""
    names = sorted(set(ids))
    index = {name: i for i, name in enumerate(names)}
    return names, np.array([index[name] for name in ids], dtype=np.int64)


def read_columns(stream: IO[str], converters: Sequence, check: Callable | None = None) -> list:
    """The columns csvio.read_columns gives the lines after a header, an id column
    as (names, codes); check and the error as it calls and raises them."""
    chunks: list[list[np.ndarray | list[str]]] = []
    lineno = 1  # the header's
    error = None
    try:
        for chunk in iter(partial(stream.readlines, csvio.READ_CHUNK_BYTES), []):
            rows = []
            for line in chunk:
                lineno += 1
                if not line.strip("\r\n"):
                    continue
                reason = first_error(line.rstrip("\r\n").split(","), converters)
                if reason is not None:
                    error = ParseError(f"line {lineno}: {reason}")
                    break
                # The last field keeps its line break, as the column parse keeps it.
                rows.append(line.split(","))
            chunks.append([
                [row[i] for row in rows] if convert is None
                else np.array([convert(row[i]) for row in rows], dtype=DTYPES[convert])
                for i, convert in enumerate(converters)
            ])
            if error is not None:
                break
    except UnicodeDecodeError as exc:
        error = exc
    columns = []
    for i, convert in enumerate(converters):
        parts = [chunk[i] for chunk in chunks]
        if convert is None:
            columns.append(coded([name for part in parts for name in part]))
        else:
            columns.append(np.concatenate(parts or [np.zeros(0, DTYPES[convert])]))
    if check is not None:
        check(columns)
    if error is not None:
        raise error
    return columns
