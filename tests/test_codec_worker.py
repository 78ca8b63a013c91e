"""mobility.ordered_map and the CSV codecs that run on it, with and without a worker.

Each test runs both paths: os.sched_getaffinity patched to one CPU (plain
map) and to two (a forked worker computes every odd item).  Results, bytes
and errors must not depend on the path.
"""

import hashlib
import io
import os

import pytest

import trace_csv_oracle
from car2cloud import analysis, cli, engine
from car2cloud.errors import ParseError
from car2cloud.mobility import READ_CHUNK_BYTES, ordered_map, parse_trace_csv
from test_engine import MANY as RESULT_LINES
from test_engine import results_lines
from test_trace_csv import HEADER, outcome, valid_lines

CPUS = {"one cpu": {0}, "two cpus": {0, 1}}


@pytest.fixture(params=sorted(CPUS))
def cpus(request, monkeypatch):
    monkeypatch.setattr(os, "sched_getaffinity", lambda pid: CPUS[request.param])
    return len(CPUS[request.param])


def assert_no_child():
    with pytest.raises(ChildProcessError):
        os.waitpid(-1, os.WNOHANG)


@pytest.mark.parametrize("n", [0, 1, 2, 3, 4, 7, 10])
def test_results_come_in_item_order(cpus, n):
    results = list(ordered_map(lambda x: (x * x, os.getpid()), range(n)))
    assert [square for square, _ in results] == [x * x for x in range(n)]
    here = os.getpid()
    worker_items = [x for x, (_, pid) in enumerate(results) if pid != here]
    assert worker_items == (list(range(1, n, 2)) if cpus == 2 and n >= 2 else [])


def test_a_failing_item_raises_here_at_its_place(cpus):
    seen = []

    def fn(x):
        if x == 5:
            raise KeyError(f"item {x} on pid {os.getpid()}")
        return x

    with pytest.raises(KeyError) as err:
        for value in ordered_map(fn, range(10)):
            seen.append(value)
    assert seen == [0, 1, 2, 3, 4]
    assert str(err.value) == repr(f"item 5 on pid {os.getpid()}")
    assert_no_child()


@pytest.mark.parametrize("exit_at", [1, 5, 9])
def test_a_worker_that_exits_leaves_its_items_to_this_process(cpus, exit_at):
    here = os.getpid()

    def fn(x):
        if x == exit_at and os.getpid() != here:
            os._exit(0)
        return -x

    assert list(ordered_map(fn, range(12))) == [-x for x in range(12)]
    assert_no_child()


def test_a_consumer_that_raises_leaves_no_child(cpus):
    def consume():
        for value in ordered_map(lambda x: x, range(10)):
            if value == 2:
                raise RuntimeError("consumer stops")

    with pytest.raises(RuntimeError):
        consume()
    assert_no_child()


class FullDisk(io.StringIO):
    def write(self, text):
        if self.tell() > 100:
            raise OSError("disk full")
        return super().write(text)


def test_a_writer_whose_stream_fails_leaves_no_child(cpus):
    points = [(float(i), (i + 1) / 30_000) for i in range(30_000)]
    with pytest.raises(OSError, match="disk full"):
        analysis.write_cdf_csv(points, FullDisk())
    assert_no_child()


def chunk_starts(lines: list[str]) -> list[int]:
    """Index of the first line of each chunk the readers read of these lines."""
    stream, starts = io.StringIO("".join(lines)), [0]
    while chunk := stream.readlines(READ_CHUNK_BYTES):
        starts.append(starts[-1] + len(chunk))
    return starts[:-1]


@pytest.mark.parametrize("chunk", [1, 2, 3])
def test_read_results_csv_names_a_bad_line_in_any_chunk(cpus, chunk):
    lines = results_lines(2 * RESULT_LINES)
    assert len(chunk_starts(lines)) > 3
    bad = chunk_starts(lines)[chunk] + 17
    lines[bad] = "1,v,bs,0.5,half,1.0,1,0,0\n"
    lines[bad + 1] = "x\n"  # a later error is not the one reported
    with pytest.raises(ParseError) as err:
        engine.read_results_csv(io.StringIO(engine.RESULTS_CSV_HEADER + "\n" + "".join(lines)))
    assert str(err.value) == f"line {bad + 2}: could not convert string to float: 'half'"
    assert_no_child()


@pytest.mark.parametrize(
    "edit",
    [
        lambda line: line.replace(",0.0,", ",north,"),  # a ParseError, read row by row
        lambda line: '"' + line.replace(",", '",', 1),  # quoted: accepted by csv.reader
    ],
    ids=["bad float", "quoted id"],
)
@pytest.mark.parametrize("chunk", [1, 2])  # the worker's first, this process's second
def test_parse_trace_csv_restarts_from_either_process(cpus, chunk, edit):
    lines = valid_lines(3 * READ_CHUNK_BYTES // len(valid_lines(1)[0]))
    assert len(chunk_starts(lines)) > 2
    bad = chunk_starts(lines)[chunk] + 701
    lines[bad] = edit(lines[bad])
    text = HEADER + "".join(lines)
    expected = outcome(trace_csv_oracle.parse_trace_csv, text)
    assert outcome(parse_trace_csv, text) == expected
    assert_no_child()


RING = (
    "road.topology = ring\nroad.length = 10000\nroad.inflow = 400\nroad.duration = 60\n"
    "cell.rb_limit = 1\ncvim.aggregate_ticks = 20\nsim.seed = 5\n"
)
STATIONS = "station_id,x,y\nbs0,1591.5,25\nbs1,-1591.5,25\nbs2,0,1616.5\n"
# SHA-256 of each output of the pipeline on RING, written by the one-process
# codecs: 24000 rows, so every codec has two chunks or more.
GOLDEN = {
    "traces.csv": "53c4a51d1286653cae928bec05bde75e7e73472424c32657772cda747f8c0eb2",
    "sim/results.csv": "2fdba10eb0410cfcb47c2882bf4b4d6f1fbf4cff91e965df1ff462703106f257",
    "sim/summary.json": "66357bcfaa34639bb9db8fe41a0f420d8e0c7b2dd322bf5488de485bfa1d5d06",
    "stats/stats.json": "7e9e0850648effef0e9008448f13ecd6b2164b0050ab1605c00be32cc10a5eda",
    "stats/cdf.csv": "daedf4a1a8746b2d885bfc2beadc05759f9124adccece4af825d0e3230f6297e",
    "stats/cell_packages.csv": "7e799f53bc1d30af23bae09f1f7c2598af02001b07f577f8f45f7da5b8fa2753",
}


def test_pipeline_bytes_match_the_golden_digests(cpus, tmp_path):
    config, stations = tmp_path / "ring.cfg", tmp_path / "stations.csv"
    config.write_text(RING, encoding="utf-8")
    stations.write_text(STATIONS, encoding="utf-8")
    traces = tmp_path / "traces.csv"
    assert cli.main(["gen-traces", "--config", str(config), "--out", str(traces)]) == 0
    assert cli.main([
        "simulate", "--config", str(config), "--traces", str(traces),
        "--stations", str(stations), "--out-dir", str(tmp_path / "sim"),
    ]) == 0
    assert cli.main([
        "analyze", str(tmp_path / "sim" / "results.csv"), "--out-dir", str(tmp_path / "stats"),
    ]) == 0
    digests = {
        name: hashlib.sha256((tmp_path / name).read_bytes()).hexdigest() for name in GOLDEN
    }
    assert digests == GOLDEN
