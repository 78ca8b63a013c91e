"""The CSV codecs on inputs of several chunks: errors in any chunk, and the pipeline's bytes.

The tests of bad lines, of the trace restart and of the pipeline's bytes
run with os.sched_getaffinity patched to one CPU and to two.  Every reader
and writer runs in this process: results, bytes and errors must not depend
on the CPU count it sees, nor on numpy's CPU dispatch, which one test
checks in a child.
"""

import bisect
import hashlib
import io
import json
import os
import subprocess
import sys
from pathlib import Path
from unittest import mock

import numpy as np
import pytest

import trace_csv_oracle
from car2cloud import analysis, cli, csvio, engine
from car2cloud.csvio import READ_CHUNK_BYTES
from car2cloud.engine import TickTable
from car2cloud.errors import ParseError, ValidationError
from car2cloud.mobility import emit_trace_csv, id_codes, parse_trace_csv
from test_convert_column import fast_path_only
from test_engine import MANY as RESULT_LINES
from test_engine import results_lines
from test_trace_csv import GATE_TOKENS, HEADER, outcome, valid_lines
from trace_rows import trace_table

CPUS = {"one cpu": {0}, "two cpus": {0, 1}}


@pytest.fixture(params=sorted(CPUS))
def cpus(request, monkeypatch):
    monkeypatch.setattr(os, "sched_getaffinity", lambda pid: CPUS[request.param])
    return len(CPUS[request.param])


class FullDisk(io.StringIO):
    def write(self, text):
        if self.tell() > 100:
            raise OSError("disk full")
        return super().write(text)


def test_a_writer_whose_stream_fails_leaves_no_child(cpus):
    points = (np.arange(30_000, dtype=np.float64), np.arange(1, 30_001) / 30_000)
    with pytest.raises(OSError, match="disk full"):
        analysis.write_cdf_csv(points, FullDisk())


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


# Gate tokens that float, or int, reads and that csvio's byte gate refuses.
FLOAT_GATE_TOKENS = ["-0", "+1", "01", "1_0", ".5", "5.", "1e400"]
INT_GATE_TOKENS = ["+1", "01", "1_0"]
assert set(FLOAT_GATE_TOKENS + INT_GATE_TOKENS) <= set(GATE_TOKENS)


@pytest.mark.parametrize(
    "name, token",
    [("snr_db", token) for token in FLOAT_GATE_TOKENS]
    + [("bits_sent", token) for token in INT_GATE_TOKENS],
)
def test_a_gate_token_sends_only_its_chunks_column_field_by_field(name, token):
    """A token in a middle chunk: that one column of that chunk is read field by field.

    Every column still equals per-field conversion of the whole file, bit for bit.
    """
    header = engine.RESULTS_CSV_HEADER.split(",")
    field = header.index(name)
    lines = results_lines(2 * RESULT_LINES)
    bad = chunk_starts(lines)[1] + 17
    parts = lines[bad].split(",")
    parts[field] = token
    lines[bad] = ",".join(parts)
    starts = chunk_starts(lines) + [len(lines)]
    chunk = bisect.bisect_right(starts, bad) - 1
    assert 0 < chunk < len(starts) - 2  # a middle chunk of several
    json_numbers, refused = csvio._json_numbers, []

    def gate(column, convert):
        values = json_numbers(column, convert)
        if values is None:
            refused.append((convert, column))
        return values

    with mock.patch.object(csvio, "_json_numbers", wraps=gate) as spy:
        table = engine.read_results_csv(
            io.StringIO(engine.RESULTS_CSV_HEADER + "\n" + "".join(lines)))
    rows = [line.rstrip("\n").split(",") for line in lines]
    assert spy.call_count == 7 * (len(starts) - 1)  # one per numeric column per chunk
    refused_column = [row[field] for row in rows[starts[chunk]:starts[chunk + 1]]]
    assert refused == [(engine._CONVERTERS[field], refused_column)]
    for i, (column, convert) in enumerate(zip(header, engine._CONVERTERS)):
        values = [row[i] for row in rows]
        if convert is None:
            assert getattr(table, column).ids().tolist() == values, column
        else:
            expected = np.array(list(map(convert, values)), np.int64 if convert is int else np.float64)
            assert getattr(table, column).dtype == expected.dtype, column
            assert getattr(table, column).tobytes() == expected.tobytes(), column


@pytest.mark.parametrize(
    "edit",
    [
        lambda line: line.replace(",0.0,", ",north,"),  # a ParseError, as the row reader's
        lambda line: '"' + line.replace(",", '",', 1),  # a quote is data: a bad id
    ],
    ids=["bad float", "quoted id"],
)
@pytest.mark.parametrize("chunk", [1, 2])
def test_parse_trace_csv_restarts_from_either_process(cpus, chunk, edit):
    lines = valid_lines(3 * READ_CHUNK_BYTES // len(valid_lines(1)[0]))
    assert len(chunk_starts(lines)) > 2
    bad = chunk_starts(lines)[chunk] + 701
    lines[bad] = edit(lines[bad])
    text = HEADER + "".join(lines)
    vid = lines[bad].split(",")[0]
    if vid.startswith('"'):
        message = f"line {bad + 2}: vehicle_id {vid!r} contains a comma, quote or line break"
        assert outcome(parse_trace_csv, text) == (ValidationError, message)
    else:
        assert outcome(parse_trace_csv, text) == outcome(trace_csv_oracle.parse_trace_csv, text)


RING = (
    "road.topology = ring\nroad.length = 10000\nroad.inflow = 400\nroad.duration = 60\n"
    "cell.rb_limit = 1\ncvim.aggregate_ticks = 20\nsim.seed = 5\n"
)
STATIONS = "station_id,x,y\nbs0,1591.5,25\nbs1,-1591.5,25\nbs2,0,1616.5\n"
# SHA-256 of each output of the pipeline on RING: 24000 rows, so every codec
# has two chunks or more.
GOLDEN = {
    "traces.csv": "53c4a51d1286653cae928bec05bde75e7e73472424c32657772cda747f8c0eb2",
    "sim/results.csv": "2fdba10eb0410cfcb47c2882bf4b4d6f1fbf4cff91e965df1ff462703106f257",
    "sim/summary.json": "66357bcfaa34639bb9db8fe41a0f420d8e0c7b2dd322bf5488de485bfa1d5d06",
    "stats/stats.json": "7e9e0850648effef0e9008448f13ecd6b2164b0050ab1605c00be32cc10a5eda",
    "stats/cdf.csv": "daedf4a1a8746b2d885bfc2beadc05759f9124adccece4af825d0e3230f6297e",
    "stats/cell_packages.csv": "7e799f53bc1d30af23bae09f1f7c2598af02001b07f577f8f45f7da5b8fa2753",
}


def run_ring_pipeline(tmp_path):
    """gen-traces, simulate and analyze on RING, writing GOLDEN's files under tmp_path."""
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


def test_pipeline_bytes_match_the_golden_digests(cpus, tmp_path):
    run_ring_pipeline(tmp_path)
    digests = {
        name: hashlib.sha256((tmp_path / name).read_bytes()).hexdigest() for name in GOLDEN
    }
    assert digests == GOLDEN


try:
    from numpy._core import _multiarray_umath as umath
except ImportError:  # numpy 1
    from numpy.core import _multiarray_umath as umath

# The child runs run_ring_pipeline into argv[1] and prints the dispatch
# targets numpy left enabled.
DISPATCH_CHILD = """
import json, pathlib, sys
from test_codec_worker import run_ring_pipeline, umath
run_ring_pipeline(pathlib.Path(sys.argv[1]))
print(json.dumps([f for f in umath.__cpu_dispatch__ if umath.__cpu_features__.get(f)]))
"""


def test_pipeline_bytes_do_not_depend_on_numpy_cpu_dispatch(tmp_path):
    """The RING pipeline in a child whose numpy dispatch is cut to its baseline.

    numpy picks SIMD loops for its ufuncs from the CPU's features when it is
    imported, and its log10, power, log2 and hypot may then miss math's
    results by an ulp.  Outputs go through math per element, so a child
    with every dispatch target that this CPU has disabled
    (NPY_DISABLE_CPU_FEATURES; naming a target the build lacks is an error)
    must write the same bytes as this process at default dispatch.  Both
    runs are compared with each other, not only with GOLDEN: a kernel using
    numpy's log10 can match GOLDEN at baseline and miss it at default.  On
    a host without AVX2 the two dispatches coincide and this proves nothing.
    """
    present = [f for f in umath.__cpu_dispatch__ if umath.__cpu_features__.get(f)]
    tests = Path(__file__).resolve().parent
    path = [str(tests.parent / "src"), str(tests), os.environ.get("PYTHONPATH", "")]
    env = {
        **os.environ,
        "NPY_DISABLE_CPU_FEATURES": " ".join(present),
        "PYTHONPATH": os.pathsep.join(filter(None, path)),
    }
    (tmp_path / "baseline").mkdir()
    (tmp_path / "default").mkdir()
    child = subprocess.run(
        [sys.executable, "-c", DISPATCH_CHILD, str(tmp_path / "baseline")],
        env=env, capture_output=True, text=True, timeout=600,
    )
    assert child.returncode == 0, child.stderr
    assert json.loads(child.stdout) == []
    run_ring_pipeline(tmp_path / "default")
    for name in GOLDEN:
        baseline = (tmp_path / "baseline" / name).read_bytes()
        assert baseline == (tmp_path / "default" / name).read_bytes(), name
        assert hashlib.sha256(baseline).hexdigest() == GOLDEN[name], name


def test_writer_output_is_read_without_the_per_field_path(tmp_path, monkeypatch):
    """Every numeric column the four writers write is read by orjson alone.

    With csvio's per-field conversion patched to fail, simulate reads the
    RING traces, analyze its results, and read_columns its CDF and per-cell
    means; so are tables of -0.0 and of values repr writes with an exponent.
    """
    fast_path_only(monkeypatch)
    run_ring_pipeline(tmp_path)
    with open(tmp_path / "stats" / "cdf.csv", encoding="utf-8", newline="") as fh:
        assert fh.readline() == "rate_bps,cum_prob\n"
        rates, probs = csvio.read_columns(fh, (float, float))
    assert len(rates) == len(probs) > 1000
    with open(tmp_path / "stats" / "cell_packages.csv", encoding="utf-8", newline="") as fh:
        assert fh.readline() == "station_id,mean_packages\n"
        ids, means = csvio.read_columns(fh, (None, float))
    assert ids.codes.tolist() == [0, 1, 2] and len(means) == len(ids.names) == 3

    values = np.array([-0.0, 0.0, 1.5e-05, -1.5e-05, 1e16, 1e300, 5e-324, -2.5])
    n = len(values)
    results = TickTable(
        np.arange(n), id_codes(["v"] * n), id_codes(["bs"] * n), values, values[::-1],
        np.abs(values),
        np.zeros(n, np.int64), np.full(n, 2**63 - 1), np.arange(n),
    )
    buf = io.StringIO()
    engine.write_results_csv(results, buf)
    buf.seek(0)
    back = engine.read_results_csv(buf)
    for name in ("snr_db", "rb_share", "rate_bps", "bits_sent"):
        assert getattr(back, name).tobytes() == getattr(results, name).tobytes(), name
    traces = trace_table(("v", t, x, -x, abs(x)) for t, x in enumerate(values.tolist()))
    buf = io.StringIO()
    emit_trace_csv(traces, buf)
    buf.seek(0)
    back = parse_trace_csv(buf)
    for name in ("x", "y", "speed"):
        assert getattr(back, name).tobytes() == getattr(traces, name).tobytes(), name
    buf = io.StringIO()
    analysis.write_cdf_csv((values, np.abs(values)), buf)
    buf.seek(0)
    buf.readline()
    back = csvio.read_columns(buf, (float, float))
    assert back[0].tobytes() == values.tobytes()
