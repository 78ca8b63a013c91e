"""Test oracle: the row-by-row trace CSV reader parse_trace_csv replaced.

parse_trace_csv here is car2cloud's reader before its chunked column
parse: one csv.reader loop with every check per row and a set of the
samples seen, then one lexsort into canonical order.  Tests compare the
emit_trace_csv bytes, or the exception type and message, of
mobility.parse_trace_csv against it.
"""

from __future__ import annotations

import csv
import math
from typing import IO

import numpy as np

from car2cloud.errors import ParseError, ValidationError
from car2cloud.csvio import INT64_BOUND, check_id
from car2cloud.mobility import TRACE_CSV_HEADER, IdCodes, TraceTable, id_codes


def _trace_table(names: list[str], code: np.ndarray, t, x, y, speed) -> TraceTable:
    """Samples of vehicles names[code] as a table in canonical order.

    ``t``, ``x``, ``y`` and ``speed`` are sequences or arrays, row for row
    with ``code``, and hold no two samples of one vehicle at one tick.  A
    1 Hz gap names the smallest vehicle id that has one, and its first gap.
    """
    t = np.asarray(t, dtype=np.int64)
    order = np.lexsort((t, code))
    code, t = code[order], t[order]
    gaps = np.flatnonzero((code[1:] == code[:-1]) & (t[1:] - t[:-1] != 1))
    if gaps.size:
        i = int(gaps[0])
        raise ValidationError(
            f"vehicle {names[code[i]]!r}: samples not on a 1 Hz grid "
            f"(ticks {t[i]} -> {t[i + 1]})"
        )
    x, y, speed = (np.asarray(c, dtype=np.float64)[order] for c in (x, y, speed))
    return TraceTable(IdCodes(names, code), t, x, y, speed)


def parse_trace_csv(stream: IO[str]) -> TraceTable:
    """Read a trace CSV (header ``vehicle_id,t,x,y,speed``), rows in any order."""
    reader = csv.reader(stream)
    try:
        header = next(reader)
    except StopIteration:
        raise ParseError("trace CSV is empty (missing header)") from None
    if tuple(h.strip() for h in header) != TRACE_CSV_HEADER:
        raise ParseError(f"bad trace CSV header: {','.join(header)!r}")
    vids, ts, xs, ys, speeds = [], [], [], [], []
    seen: set[tuple[str, int]] = set()
    # Each distinct id is checked where it is first seen, and then every
    # sample holds that first string object.
    ids: dict[str, str] = {}
    for lineno, row in enumerate(reader, start=2):
        if not row:
            continue
        if len(row) != 5:
            raise ParseError(f"line {lineno}: expected 5 fields, got {len(row)}")
        try:
            t = int(row[1])
            x, y, speed = float(row[2]), float(row[3]), float(row[4])
        except ValueError as exc:
            raise ParseError(f"line {lineno}: {exc}") from None
        vid = ids.get(row[0])
        if vid is None:
            vid = row[0]
            check_id(vid, f"line {lineno}", "vehicle_id")
            ids[vid] = vid
        if not (math.isfinite(x) and math.isfinite(y) and math.isfinite(speed)):
            raise ValidationError(f"line {lineno}: non-finite x, y or speed")
        if t < 0:
            raise ValidationError(f"line {lineno}: negative tick {t}")
        if t > INT64_BOUND - 1:
            raise ValidationError(f"line {lineno}: tick {t} exceeds 64 bits")
        if speed < 0:
            raise ValidationError(f"line {lineno}: negative speed {speed}")
        if (vid, t) in seen:
            raise ValidationError(f"line {lineno}: duplicate sample ({vid!r}, t={t})")
        seen.add((vid, t))
        vids.append(vid)
        ts.append(t)
        xs.append(x)
        ys.append(y)
        speeds.append(speed)
    return _trace_table(*id_codes(vids), ts, xs, ys, speeds)
