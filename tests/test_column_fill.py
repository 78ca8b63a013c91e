"""read_columns writes every chunk into columns it sizes once and trims once.

The capacity it picks, from a file's unread bytes or by doubling for a
stream without a file descriptor, must not show: each case gives the
columns, the check call and the error of chunk_concat_oracle, which keeps
every chunk and joins them.  The readers' traced peaks stay near the
tables they return.
"""

import io
import math
import tracemalloc
from dataclasses import fields
from unittest import mock

import numpy as np
import pytest

import chunk_concat_oracle
from car2cloud import csvio
from car2cloud.csvio import READ_CHUNK_BYTES, IdCodes
from car2cloud.engine import TickTable, parse_config_text, read_results_csv, run, write_results_csv
from car2cloud.mobility import TraceTable, emit_trace_csv, generate_traces, parse_trace_csv
from car2cloud.radio import BaseStation

CONVERTERS = (int, None, float, float, None)  # an id column inside the line and one at its end
HEADER = "k,a,x,pad,b\n"


def line(k: int, pad: str = "1.5") -> str:
    """Line k: of one length for every k below 9,000,000 and one pad."""
    key = 1_000_000 + k
    return f"{key},v{k % 7},{key * 0.5!r},{pad},s{k % 3}\n"


def lines_of(chars: int, pad: str = "1.5", start: int = 0) -> list[str]:
    """Lines from key start on, as many as fill about chars characters."""
    return [line(k, pad) for k in range(start, start + chars // len(line(start, pad)) + 1)]


def plain(columns) -> list:
    """columns to compare: an id column as (names, codes), a number column as its bytes."""
    return [
        (list(c[0]), c[1].dtype.str, c[1].tolist()) if isinstance(c, tuple)
        else (c.dtype.str, c.tobytes())
        for c in columns
    ]


def outcome(read, stream) -> tuple:
    """The columns read gives the lines after stream's header, or the error it raised,
    and the columns of each check call."""
    stream.readline()
    calls: list = []
    try:
        got = plain(read(stream, CONVERTERS, calls.append))
    except Exception as exc:  # noqa: BLE001 - the comparison covers any error
        got = (type(exc), str(exc))
    return got, [plain(columns) for columns in calls]


def capacities() -> tuple[list[tuple[int, int]], mock._patch]:
    """Each capacity read_columns picks, with the rows it needed room for, and the
    patch that records them."""
    picked: list[tuple[int, int]] = []
    capacity = csvio._capacity

    def recorded(stream, end, chunk):
        picked.append((end, capacity(stream, end, chunk)))
        return picked[-1][1]

    return picked, mock.patch.object(csvio, "_capacity", recorded)


def assert_as_the_oracle(opened) -> list[tuple[int, int]]:
    """read_columns and the oracle agree on the stream opened() gives; the capacities picked."""
    picked, patch = capacities()
    with patch:
        got = outcome(csvio.read_columns, opened())
    assert got == outcome(chunk_concat_oracle.read_columns, opened())
    return picked


def text_file(tmp_path, text: str):
    """A function that opens text, written to a file, as the CLI opens its inputs."""
    path = tmp_path / "table.csv"
    path.write_text(text, encoding="utf-8", newline="")
    return lambda: open(path, encoding="utf-8", newline="\n")


def test_a_string_stream_spanning_many_chunks_grows_by_doubling():
    text = HEADER + "".join(lines_of(12 * READ_CHUNK_BYTES))
    picked = assert_as_the_oracle(lambda: io.StringIO(text))
    assert len(picked) > 2 and all(capacity == 2 * end for end, capacity in picked)
    assert picked[-1][1] >= text.count("\n") - 1


def test_a_file_of_even_lines_grows_to_its_rows_and_about_one_chunk(tmp_path):
    text = HEADER + "".join(lines_of(12 * READ_CHUNK_BYTES))
    picked = assert_as_the_oracle(text_file(tmp_path, text))
    rows, chunk_lines = text.count("\n") - 1, READ_CHUNK_BYTES // len(line(0)) + 1
    assert all(capacity <= 2 * end for end, capacity in picked)
    assert rows <= picked[-1][1] <= rows + 2 * chunk_lines


LONG_PAD = "0." + "0" * 200 + "1"


def test_a_file_whose_first_lines_are_short_is_trimmed(tmp_path):
    # The first chunk foresees too many rows: the columns double past the rows.
    head = lines_of(READ_CHUNK_BYTES)
    rest = lines_of(4 * READ_CHUNK_BYTES, LONG_PAD, start=len(head))
    picked = assert_as_the_oracle(text_file(tmp_path, HEADER + "".join(head + rest)))
    assert picked[-1][1] > len(head) + len(rest)


def test_a_file_whose_first_lines_are_long_grows_past_its_estimate(tmp_path):
    # The long lines foresee too few rows: the columns grow again past a capacity
    # the unread bytes set.
    head = lines_of(4 * READ_CHUNK_BYTES, LONG_PAD)
    rest = lines_of(READ_CHUNK_BYTES, start=len(head))
    picked = assert_as_the_oracle(text_file(tmp_path, HEADER + "".join(head + rest)))
    estimated = [k for k, (end, capacity) in enumerate(picked) if capacity < 2 * end]
    assert estimated and estimated[0] < len(picked) - 1
    assert picked[-1][1] >= len(head) + len(rest)


@pytest.mark.parametrize("source", ["string", "file"])
def test_blank_and_crlf_lines(tmp_path, source):
    lines = lines_of(3 * READ_CHUNK_BYTES)
    for k in range(0, len(lines), 97):
        lines.insert(k, "\r\n" if k % 2 else "\n")
    for k in range(5, len(lines), 13):
        lines[k] = lines[k].replace("\n", "\r\n") if lines[k].strip("\r\n") else lines[k]
    text = HEADER + "".join(lines) + "\n\n"
    opened = text_file(tmp_path, text) if source == "file" else lambda: io.StringIO(text)
    assert_as_the_oracle(opened)


@pytest.mark.parametrize("bad", ["9,v1,north,1.5,s1\n", "9,v1,0.5,1.5\n", f"{2**63},v1,0.5,1.5,s1\n"])
@pytest.mark.parametrize("source", ["string", "file"])
def test_a_bad_line_in_a_later_chunk(tmp_path, source, bad):
    lines = lines_of(4 * READ_CHUNK_BYTES)
    lines.insert(10, "\n")
    k = 3 * len(lines) // 4
    lines[k] = bad
    text = HEADER + "".join(lines)
    opened = text_file(tmp_path, text) if source == "file" else lambda: io.StringIO(text)
    got, [checked] = outcome(csvio.read_columns, opened())
    assert (got, [checked]) == outcome(chunk_concat_oracle.read_columns, opened())
    assert got[0] is csvio.ParseError and got[1].startswith(f"line {k + 2}: ")
    assert len(checked[1][2]) == k - 1  # the rows before the bad line, the blank one not counted


def table_bytes(table) -> int:
    columns = [getattr(table, f.name) for f in fields(table)]
    return sum(c.codes.nbytes if isinstance(c, IdCodes) else c.nbytes for c in columns)


def traced_peak(read, path) -> tuple:
    """What read gives the file at path, opened as the CLI opens it, and its traced peak."""
    with open(path, encoding="utf-8", newline="\n") as fh:
        tracemalloc.start()
        try:
            table = read(fh)
            peak = tracemalloc.get_traced_memory()[1]
        finally:
            tracemalloc.stop()
    return table, peak


@pytest.fixture(scope="module")
def ring_files(tmp_path_factory):
    """The traces and results files of 200 vehicles on a 10 km ring, 600 s."""
    config = parse_config_text("", [
        "road.topology=ring", "road.length=10000", "road.inflow=200", "road.duration=600",
        "cell.rb_limit=1", "cvim.aggregate_ticks=20",
    ])
    radius = 10_000.0 / (2.0 * math.pi) + 25.0
    stations = [
        BaseStation(f"bs{k}", radius * math.cos(0.4 * math.pi * k), radius * math.sin(0.4 * math.pi * k))
        for k in range(5)
    ]
    traces = generate_traces(config.road_spec(), config.krauss)
    work = tmp_path_factory.mktemp("ring")
    with open(work / "traces.csv", "w", encoding="utf-8", newline="") as fh:
        emit_trace_csv(traces, fh)
    with open(work / "results.csv", "w", encoding="utf-8", newline="") as fh:
        write_results_csv(run(config, traces, stations), fh)
    return work


@pytest.mark.parametrize("name, read, kind", [
    ("traces.csv", parse_trace_csv, TraceTable),
    ("results.csv", read_results_csv, TickTable),
])
def test_reader_peak_memory_stays_near_the_table_it_returns(ring_files, name, read, kind):
    """Each chunk is written into columns sized from the file's unread bytes, so a
    reader's traced peak is the table and one chunk's temporaries: 1.25 and 1.16
    times the table here, and 1.25 and 1.08 on ring_backlog's seed-42 files, where
    keeping every chunk's columns and joining them gave 2.12, 2.04, 2.08 and 2.02."""
    path = ring_files / name
    assert path.stat().st_size > 20 * READ_CHUNK_BYTES
    table, peak = traced_peak(read, path)
    assert isinstance(table, kind) and len(table) == 120_000
    assert peak <= 1.4 * table_bytes(table)
