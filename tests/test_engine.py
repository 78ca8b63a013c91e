import hashlib
import io
import json
import math

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from car2cloud.engine import (
    RESULTS_CSV_HEADER,
    SimConfig,
    TickTable,
    config_echo,
    load_config,
    parse_config_text,
    read_results_csv,
    run,
    summarize,
    undelivered_bytes,
    write_results_csv,
    write_summary_json,
)
from car2cloud.cvim import PackagingConfig, count_packages_per_cell
from car2cloud.errors import ConfigError, ParseError, ValidationError
from car2cloud.linkrate import rb_rate
from car2cloud.mobility import ID_FORBIDDEN_CHARS, READ_CHUNK_BYTES
from car2cloud.radio import BaseStation, LinkBudgetConfig
from scalar_engine import run as scalar_run
from trace_rows import trace_table


def trace(vehicle_id, xs, speed=10.0, t0=0):
    """Sample rows of one vehicle at positions xs on the x axis, from tick t0."""
    return [(vehicle_id, t0 + i, float(x), 0.0, speed) for i, x in enumerate(xs)]


STATION = [BaseStation("bs0", 0.0, 30.0)]


def csv_text(table):
    buf = io.StringIO()
    write_results_csv(table, buf)
    return buf.getvalue()


def table_of(rows):
    """TickTable holding rows given as tuples in RESULTS_CSV_HEADER order."""
    t, vid, sid, snr_db, share, rate, generated, sent, queued = zip(*rows) if rows else [()] * 9
    return TickTable(
        t=np.array(t, dtype=np.int64),
        vehicle_id=list(vid),
        serving_station=list(sid),
        snr_db=np.array(snr_db, dtype=np.float64),
        rb_share=np.array(share, dtype=np.float64),
        rate_bps=np.array(rate, dtype=np.float64),
        packages_generated=np.array(generated, dtype=np.int64),
        bits_sent=np.array(sent, dtype=np.int64),
        queue_bytes=np.array(queued, dtype=np.int64),
    )


def test_single_vehicle_gets_all_rbs():
    traces = trace_table(trace("v1", range(0, 100, 10)))
    results = run(SimConfig(), traces, STATION)
    assert len(results) == 10
    assert results.rb_share.tolist() == [100.0] * 10
    assert results.serving_station == ["bs0"] * 10
    assert results.t.tolist() == list(range(10))


def test_colocated_vehicles_equal_rates():
    traces = trace_table(trace("a", [50] * 5) + trace("b", [50] * 5))
    results = run(SimConfig(), traces, STATION)
    assert results.t.tolist() == [t for t in range(5) for _ in "ab"]
    assert results.vehicle_id == ["a", "b"] * 5
    rates = results.rate_bps.tolist()
    assert rates[0::2] == rates[1::2]
    assert results.rb_share.tolist() == [50.0] * 10


def test_rate_follows_share_times_rb_rate():
    cfg = SimConfig()
    traces = trace_table(
        trace("a", [10, 20, 30], speed=7.0) + trace("b", [500, 520, 540], speed=7.0)
    )
    results = run(cfg, traces, STATION)
    for share, snr_db, rate in zip(results.rb_share, results.snr_db, results.rate_bps):
        speed = 7.0
        assert rate == pytest.approx(share * rb_rate(float(snr_db), speed, cfg.rate))


def test_results_ordered_and_deterministic():
    traces = trace_table(trace("b", range(0, 50, 5)) + trace("a", range(0, 50, 5)))
    cfg = SimConfig()
    first = run(cfg, traces, STATION)
    second = run(cfg, traces, STATION)
    assert csv_text(first) == csv_text(second)
    keys = list(zip(first.t.tolist(), first.vehicle_id))
    assert keys == sorted(keys)


def test_rb_limit_overrides_n_rb():
    traces = trace_table(trace("v1", [10, 20]))
    limited = run(SimConfig(rb_limit=10), traces, STATION)
    assert limited.rb_share.tolist() == [10.0, 10.0]


def test_per_tick_share_conservation():
    traces = trace_table(
        trace("a", range(0, 300, 30))
        + trace("b", range(100, 400, 30))
        + trace("c", range(3000, 3300, 30))
    )
    stations = [BaseStation("bs0", 0.0, 30.0), BaseStation("bs1", 3000.0, 30.0)]
    results = run(SimConfig(), traces, stations)
    per_cell_tick = {}
    for t, sid, share in zip(results.t.tolist(), results.serving_station, results.rb_share):
        per_cell_tick[(t, sid)] = per_cell_tick.get((t, sid), 0.0) + share
    for total in per_cell_tick.values():
        assert total == pytest.approx(100.0, abs=1e-9)


def test_queue_drains_every_tick_at_high_rate():
    results = run(SimConfig(), trace_table(trace("v1", range(0, 100, 10))), STATION)
    assert results.packages_generated.tolist() == [1] * 10
    assert results.bits_sent.tolist() == [112 * 8] * 10
    assert results.queue_bytes.tolist() == [0] * 10


def test_queue_backlog_with_tiny_rate_model():
    def trickle(snr_db, speed):
        return 10.0  # 1000 bits/s at share 100: fits one 112 B package per tick

    results = run(
        SimConfig(), trace_table(trace("v1", [10, 20, 30, 40])), STATION, rate_model=trickle
    )
    # capacity 1000 bits < 896*2: exactly one package (896 bits) sent per tick
    assert results.bits_sent.tolist() == [896] * 4
    assert results.queue_bytes.tolist() == [0] * 4
    zero = run(
        SimConfig(), trace_table(trace("v1", [10, 20, 30])), STATION, rate_model=lambda s, v: 0.0
    )
    assert zero.queue_bytes.tolist() == [112, 224, 336]
    assert undelivered_bytes(zero) == {"v1": 336}


def test_aggregate_ticks_mode():
    cfg = SimConfig(packaging=SimConfig().packaging.__class__(aggregate_ticks=3))
    results = run(cfg, trace_table(trace("v1", range(0, 70, 10))), STATION)  # 7 ticks: 0..6
    generated = results.packages_generated.tolist()
    # windows [0,2], [3,5], flush at final tick 6
    assert generated == [0, 0, 1, 0, 0, 1, 1]
    assert sum(generated) == 3
    total_bytes = sum(results.bits_sent.tolist()) // 8
    assert total_bytes == (64 + 9 * 16) * 2 + (64 + 3 * 16)


def test_aggregated_packages_per_cell():
    traces = trace_table(trace("v1", range(0, 70, 10)))  # 7 ticks in one cell
    aggregated = SimConfig(packaging=PackagingConfig(aggregate_ticks=3))
    assert count_packages_per_cell(run(aggregated, traces, STATION)) == {"bs0": 3.0}
    assert count_packages_per_cell(run(SimConfig(), traces, STATION)) == {"bs0": 7.0}


def vehicle_timeseries(results, vehicle_id):
    """(t, snr_db, rate_bps) of one vehicle's rows, in tick order."""
    rows = zip(results.vehicle_id, results.t.tolist(), results.snr_db.tolist(),
               results.rate_bps.tolist())
    return sorted((t, snr_db, rate) for vid, t, snr_db, rate in rows if vid == vehicle_id)


def test_vehicle_timeseries_projection():
    traces = trace_table(trace("v1", [0] * 300, speed=0.0))
    results = run(SimConfig(), traces, STATION)
    series = vehicle_timeseries(results, "v1")
    assert [t for t, _, _ in series] == list(range(300))
    assert len({snr for _, snr, _ in series}) == 1
    assert len({rate for _, _, rate in series}) == 1


def test_empty_cell_spike():
    # vehicle x drives from a crowded cell into an empty one: rate jumps
    stations = [BaseStation("busy", 0.0, 30.0), BaseStation("idle", 2000.0, 30.0)]
    group = [row for i in range(9) for row in trace(f"g{i}", [0] * 40, speed=0.0)]
    mover = trace("x", range(0, 4000, 100), speed=25.0)
    results = run(SimConfig(), trace_table(group + mover), stations)
    series = vehicle_timeseries(results, "x")
    serving = {
        t: sid
        for vid, t, sid in zip(results.vehicle_id, results.t.tolist(), results.serving_station)
        if vid == "x"
    }
    crowded = [rate for t, _, rate in series if serving[t] == "busy"]
    alone = [rate for t, _, rate in series if serving[t] == "idle"]
    assert alone and crowded
    assert min(alone) > max(crowded)


def test_run_without_stations():
    with pytest.raises(ConfigError):
        run(SimConfig(), trace_table(trace("v1", [0])), [])


def test_results_csv_round_trip():
    results = run(SimConfig(), trace_table(trace("v1", range(0, 40, 10), speed=3.3)), STATION)
    text = csv_text(results)
    back = read_results_csv(io.StringIO(text))
    assert_tables_equal(back, results)
    assert csv_text(back) == text


def test_results_csv_rejects_bad_header():
    with pytest.raises(ParseError):
        read_results_csv(io.StringIO("a,b,c\n"))


def test_summary_content():
    cfg = SimConfig(scenario_label="unit", seed=5)
    results = run(cfg, trace_table(trace("v1", range(0, 30, 10))), STATION)
    summary = summarize(cfg, results)
    assert summary["scenario_label"] == "unit"
    assert summary["n_vehicles"] == 1
    assert summary["n_rows"] == 3
    assert summary["total_packages_generated"] == 3
    assert summary["config"]["cell.n_rb"] == "100"
    buf = io.StringIO()
    write_summary_json(summary, buf)
    assert buf.getvalue().endswith("\n")


def test_parse_config_defaults_and_sections():
    cfg = parse_config_text("")
    assert cfg.n_rb == 100
    assert cfg.road.inflow == 1000.0
    text = """
# scenario file
road.inflow = 4000
road.duration = 60 # one minute
sim.seed = 9
sim.scenario_label = traffic_jam
cell.n_rb = 50
scheduler.mode = integer
linkrate.eta_max = 4.0
cvim.n_extra_channels = 2
link.extra_loss_db = 3.0
"""
    cfg = parse_config_text(text)
    assert cfg.road.inflow == 4000.0
    assert cfg.road.duration == 60
    assert cfg.seed == 9
    assert cfg.scenario_label == "traffic_jam"
    assert cfg.n_rb == 50
    assert cfg.scheduler_mode == "integer"
    assert cfg.rate.eta_max == 4.0
    assert cfg.packaging.n_extra_channels == 2
    assert cfg.link.extra_loss_db == 3.0


def test_parse_config_unknown_key():
    with pytest.raises(ConfigError) as err:
        parse_config_text("road.lanes = 2\n")
    assert "road.lanes" in str(err.value)


def test_parse_config_bad_value_and_line():
    with pytest.raises(ConfigError):
        parse_config_text("road.length = wide\n")
    with pytest.raises(ConfigError):
        parse_config_text("just a line\n")


def test_parse_config_overrides_win():
    cfg = parse_config_text("cell.n_rb = 100\n", overrides=["cell.n_rb=10"])
    assert cfg.n_rb == 10
    with pytest.raises(ConfigError):
        parse_config_text("", overrides=["cell.bogus=1"])


def test_tick_must_be_one():
    with pytest.raises(ConfigError):
        parse_config_text("sim.tick = 2\n")


def test_load_config_file(tmp_path):
    path = tmp_path / "run.cfg"
    path.write_text("road.duration = 5\nsim.seed = 4\n", encoding="utf-8")
    cfg = load_config(path, overrides=["sim.seed=8"])
    assert cfg.road.duration == 5
    assert cfg.seed == 8
    assert cfg.road_spec().seed == 8


def test_config_echo_round_trips_values():
    cfg = parse_config_text("road.inflow = 2500\nsim.seed = 3\n")
    echo = config_echo(cfg)
    assert echo["road.inflow"] == "2500.0"
    assert echo["sim.seed"] == "3"
    rebuilt = parse_config_text(
        "\n".join(f"{k} = {v}" for k, v in echo.items())
    )
    assert rebuilt == cfg


def test_station_order_does_not_change_results():
    traces = trace_table(trace("a", range(0, 60, 6)) + trace("b", range(900, 960, 6)))
    stations = [
        BaseStation("bs1", 900.0, 30.0),
        BaseStation("bs0", 0.0, 30.0),
        BaseStation("bs2", 2000.0, 30.0),
    ]
    forward = run(SimConfig(), traces, stations)
    backward = run(SimConfig(), traces, list(reversed(stations)))
    assert csv_text(forward) == csv_text(backward)


def test_run_accepts_fcd_parsed_traces():
    import io

    from car2cloud.mobility import parse_fcd_xml

    xml = """<fcd-export>
      <timestep time="0.0"><vehicle id="car" x="5" y="0" speed="4"/></timestep>
      <timestep time="1.0"><vehicle id="car" x="9" y="0" speed="4"/></timestep>
    </fcd-export>"""
    traces = parse_fcd_xml(io.StringIO(xml))
    results = run(SimConfig(), traces, STATION)
    assert results.t.tolist() == [0, 1]
    assert results.rb_share[0] == 100.0


def queue_scenario():
    """Integer RR over 2 RBs, 4 s packages with 5 extra channels: queues build.

    Vehicle "w" is parked exactly halfway between the twin stations bs0 and
    bs1, so its association is an exact SNR tie every tick.
    """
    cfg = parse_config_text("", overrides=[
        "scheduler.mode=integer", "cell.rb_limit=2",
        "cvim.aggregate_ticks=4", "cvim.n_extra_channels=5",
    ])
    stations = [
        BaseStation("bs2", 2400.0, 40.0, antenna_gain=5.0, height=25.0),
        BaseStation("bs0", 0.0, 30.0),
        BaseStation("bs1", 1000.0, 30.0),
    ]
    rows = []
    for k in range(16):
        vid = f"v{k:02d}"
        t0, n = k % 7, 18 + (k * 5) % 17
        x0, v = float((k * 211) % 2600), float(4 + k % 9)
        rows.extend((vid, t0 + i, x0 + v * i, 0.0, v) for i in range(n))
    rows.extend(("w", t, 500.0, 0.0, 0.0) for t in range(30))
    return cfg, trace_table(rows), stations


def test_queue_scenario_golden_digest():
    cfg, traces, stations = queue_scenario()
    results = run(cfg, traces, stations)
    # SHA-256 of this results.csv from the package-object engine, which
    # built and checksummed every CVIM package.
    assert hashlib.sha256(csv_text(results).encode()).hexdigest() == (
        "36657144dc0feaaab51f89a9973eb7f27aaa372afafe0bfc0c807b543c52e697"
    )
    assert results.queue_bytes.max() >= 2 * (64 + 16 * 8 * 4)
    serving_w = {sid for vid, sid in zip(results.vehicle_id, results.serving_station) if vid == "w"}
    assert serving_w == {"bs0"}


def test_queue_scenario_conserves_bytes():
    cfg, traces, stations = queue_scenario()
    results = run(cfg, traces, stations)
    pkg = cfg.packaging
    channels = 3 + pkg.n_extra_channels
    generated = (
        pkg.header_bytes * sum(results.packages_generated.tolist())
        + pkg.record_bytes * channels * len(results)
    )
    leftover = undelivered_bytes(results)
    assert leftover  # some vehicles leave with data still queued
    assert generated == sum(results.bits_sent.tolist()) // 8 + sum(leftover.values())
    assert (results.bits_sent % 8 == 0).all()


@pytest.mark.parametrize("field", ["x", "y", "speed"])
@pytest.mark.parametrize("value", [math.nan, math.inf, -math.inf])
def test_run_rejects_non_finite_samples(field, value):
    good = ("a", 4, 10.0, 0.0, 5.0)
    bad = {"x": 20.0, "y": 0.0, "speed": 5.0, field: value}
    bad = ("b", 4, bad["x"], bad["y"], bad["speed"])
    with pytest.raises(ValidationError) as err:
        run(SimConfig(), trace_table([good, bad]), STATION)
    assert "'b'" in str(err.value) and "t=4" in str(err.value)


def test_run_names_first_bad_vehicle_of_first_bad_tick():
    rows = [
        ("a", 4, math.nan, 0.0, 5.0),
        ("b", 3, 1.0, 0.0, 5.0),
        ("c", 3, 1.0, 0.0, math.inf),
        ("d", 3, 1.0, math.nan, 5.0),
    ]
    with pytest.raises(ValidationError) as err:
        run(SimConfig(), trace_table(rows), STATION)
    assert str(err.value) == "vehicle 'c' at t=3: non-finite position or speed"


@pytest.mark.parametrize("value", [math.nan, math.inf, -5.0])
def test_run_names_the_first_row_with_a_bad_rate(value):
    rows = [("a", t, 10.0, 0.0, 10.0) for t in range(4)]
    rows += [("b", t, 20.0, 0.0, 20.0 if t >= 2 else 10.0) for t in range(4)]
    rows += [("c", t, 30.0, 0.0, 20.0) for t in range(2, 4)]

    def model(snr_db, speed):
        return value if speed == 20.0 else 1000.0

    with pytest.raises(ConfigError) as err:
        run(SimConfig(), trace_table(rows), STATION, rate_model=model)
    assert str(err.value) == (
        f"vehicle 'b' at t=2: rate {100 / 3 * value!r} bit/s is not a finite, "
        "non-negative capacity"
    )


@pytest.mark.parametrize(
    "speeds, message",
    [
        # Nothing is sent: the ninth package of 2**60 - 4 bytes overflows.
        ([0.0] * 10, f"vehicle 'b' at t=8: {9 * (2**60 - 4)} bytes queued and 0 bits sent"),
        # Four packages wait, then the fifth tick sends them all at once.
        (
            [0.0] * 4 + [1.0],
            f"vehicle 'b' at t=4: 0 bytes queued and {5 * 8 * (2**60 - 4)} bits sent",
        ),
    ],
)
def test_run_rejects_queue_totals_beyond_int64(speeds, message):
    rows = [("a", t, 10.0, 0.0, 0.0) for t in range(3)]
    rows += [("b", t, 20.0, 0.0, speed) for t, speed in enumerate(speeds)]
    config = SimConfig(packaging=PackagingConfig(header_bytes=2**60 - 52))

    def model(snr_db, speed):
        return 1e300 * speed

    with pytest.raises(ConfigError) as err:
        run(config, trace_table(rows), STATION, rate_model=model)
    assert str(err.value) == message + ", beyond 64 bits"


@pytest.mark.parametrize("key", ["n_rb", "rb_limit"])
@pytest.mark.parametrize("mode", ["fractional", "integer"])
def test_rb_counts_beyond_float_range_are_config_errors(key, mode):
    with pytest.raises(ConfigError) as err:
        parse_config_text("", [f"cell.{key}=1{'0' * 400}", f"scheduler.mode={mode}"])
    assert str(err.value) == f"cell.{key} is beyond the range of a float"
    largest = int(1.7976931348623157e308)
    assert parse_config_text("", [f"cell.{key}={largest}"]).effective_n_rb == largest


def test_run_checks_package_metadata():
    traces = trace_table(trace("v1", [0, 10]))
    with pytest.raises(ValidationError):
        run(SimConfig(packaging=PackagingConfig(owner="x" * 17)), traces, STATION)
    with pytest.raises(ConfigError):
        run(SimConfig(packaging=PackagingConfig(privacy_level="secret")), traces, STATION)


IDS = st.text(st.characters(blacklist_characters=ID_FORBIDDEN_CHARS))
FLOATS = st.floats(allow_nan=False, allow_infinity=False) | st.sampled_from(
    [-0.0, 5e-324, -2.2250738585072014e-308, 1e300, -1.7976931348623157e308]
)
TICK_ROWS = st.tuples(
    st.integers(0, 10**6),
    IDS,
    IDS,
    FLOATS,
    FLOATS,
    FLOATS,
    st.integers(0, 65),
    st.integers(0, 10**12),
    st.integers(0, 10**12),
)


def assert_tables_equal(a, b):
    assert len(a) == len(b)
    for name in RESULTS_CSV_HEADER.split(","):
        column_a, column_b = getattr(a, name), getattr(b, name)
        if isinstance(column_b, np.ndarray):
            assert column_a.dtype == column_b.dtype, name
            column_a, column_b = column_a.tolist(), column_b.tolist()
        assert column_a == column_b, name


@settings(max_examples=300, deadline=None)
@given(st.lists(TICK_ROWS, max_size=5))
def test_results_csv_round_trip_property(rows):
    results = table_of(rows)
    text = csv_text(results)
    back = read_results_csv(io.StringIO(text))
    assert_tables_equal(back, results)
    assert csv_text(back) == text  # bit for bit, -0.0 included


def results_lines(n):
    """n well-formed results CSV lines, ordered by tick."""
    return [f"{t},v{t % 7},bs{t % 3},{t * 0.25!r},50.0,{t * 1e3!r},1,896,0\n" for t in range(n)]


# Enough lines that the last ones lie past the reader's first chunk.
MANY = READ_CHUNK_BYTES // len(results_lines(1)[0]) * 2


@pytest.mark.parametrize(
    "field, value, message",
    [
        (0, str(2**63), f"integer '{2**63}' exceeds 64 bits"),
        (7, str(-(2**63) - 1), f"integer '{-(2**63) - 1}' exceeds 64 bits"),
        (8, "9" * 30 + "\n", f"integer '{'9' * 30}' exceeds 64 bits"),
        (4, "half", "could not convert string to float: 'half'"),
        (6, "1.0", "invalid literal for int() with base 10: '1.0'"),
    ],
)
def test_read_results_csv_names_bad_field_past_first_chunk(field, value, message):
    lines = results_lines(MANY)
    bad = MANY - 10
    parts = lines[bad].split(",")
    parts[field] = value
    lines[bad] = ",".join(parts)
    lines[bad + 5] = "x\n"  # a later error is not the one reported
    text = RESULTS_CSV_HEADER + "\n" + "".join(lines)
    assert len(text) > 1.5 * READ_CHUNK_BYTES
    with pytest.raises(ParseError) as err:
        read_results_csv(io.StringIO(text))
    assert str(err.value) == f"line {bad + 2}: {message}"


@pytest.mark.parametrize("line, fields", [("1,a,b,0.0,1.0,2.0,1,0\n", 8), ("1,a,b,0,1,2,1,0,0,9\n", 10)])
def test_read_results_csv_names_field_count_past_first_chunk(line, fields):
    lines = results_lines(MANY)
    bad = MANY - 3
    lines[bad] = line
    lines.insert(100, "\n")  # blank lines are skipped but counted
    text = RESULTS_CSV_HEADER + "\n" + "".join(lines)
    with pytest.raises(ParseError) as err:
        read_results_csv(io.StringIO(text))
    assert str(err.value) == f"line {bad + 3}: expected 9 fields, got {fields}"


def test_read_results_csv_skips_blank_lines_and_interns_ids():
    lines = results_lines(MANY)
    text = RESULTS_CSV_HEADER + "\n\n" + "".join(lines[:50]) + "\n\n" + "".join(lines[50:])
    table = read_results_csv(io.StringIO(text.rstrip("\n")))  # no final line break
    assert len(table) == MANY
    assert csv_text(table) == RESULTS_CSV_HEADER + "\n" + "".join(lines)
    assert len({id(vid) for vid in table.vehicle_id}) == 7
    assert table.t.dtype == np.int64 and table.rate_bps.dtype == np.float64


def test_read_results_csv_header_only():
    table = read_results_csv(io.StringIO(RESULTS_CSV_HEADER + "\n"))
    assert len(table) == 0
    assert table.t.dtype == np.int64 and table.snr_db.dtype == np.float64
    assert csv_text(table) == RESULTS_CSV_HEADER + "\n"


def test_undelivered_bytes_takes_each_vehicles_last_tick():
    rows = [
        (5, "a", "bs0", 0.0, 1.0, 0.0, 1, 0, 300),
        (2, "a", "bs0", 0.0, 1.0, 0.0, 1, 0, 100),
        (4, "b", "bs0", 0.0, 1.0, 0.0, 1, 0, 0),
        (3, "c", "bs0", 0.0, 1.0, 0.0, 1, 0, 7),
    ]
    assert undelivered_bytes(table_of(rows)) == {"a": 300, "c": 7}


def undelivered_bytes_loop(table):
    """The per-row loop undelivered_bytes replaced, as its oracle."""
    final: dict[str, tuple[int, int]] = {}
    for vid, t, queued in zip(table.vehicle_id, table.t.tolist(), table.queue_bytes.tolist()):
        cur = final.get(vid)
        if cur is None or t > cur[0]:
            final[vid] = (t, queued)
    return {vid: final[vid][1] for vid in sorted(final) if final[vid][1]}


@settings(max_examples=300, deadline=None)
@given(st.lists(
    st.tuples(
        st.integers(-3, 3) | st.sampled_from([-(2**63), 2**63 - 1]),
        st.sampled_from(["a", "b", "veh10", "veh1000", "veh10000"]),
        st.integers(0, 3) | st.integers(-(2**63), 2**63 - 1),
    ),
    max_size=30,
))
def test_undelivered_bytes_matches_the_row_loop(rows):
    # Rows in any order, with repeated ticks: the first row at a vehicle's
    # final tick counts.
    table = table_of([(t, vid, "bs0", 0.0, 1.0, 0.0, 1, 0, q) for t, vid, q in rows])
    result = undelivered_bytes(table)
    assert result == undelivered_bytes_loop(table)
    assert list(result) == sorted(result)
    assert json.dumps(result) == json.dumps(undelivered_bytes_loop(table))


@st.composite
def permuted_runs(draw):
    """Traces and stations, each with a permutation of itself.

    The traces are a table in canonical order and one of its rows permuted.
    """
    n_vehicles = draw(st.integers(1, 6))
    rows = []
    for k in range(n_vehicles):
        vid = f"v{k}"
        t0, n = draw(st.integers(0, 5)), draw(st.integers(1, 12))
        x0 = draw(st.floats(-500.0, 3000.0))
        v = draw(st.floats(0.0, 40.0))
        rows.extend((vid, t0 + i, x0 + v * i, 0.0, v) for i in range(n))
    # Stations may share a site, so that associations tie exactly.
    xs = draw(st.lists(st.sampled_from([0.0, 1200.0]) | st.floats(-500.0, 3000.0),
                       min_size=1, max_size=4))
    stations = [BaseStation(f"bs{i}", x, 30.0) for i, x in enumerate(xs)]
    return (
        trace_table(rows),
        trace_table(draw(st.permutations(rows))),
        stations,
        draw(st.permutations(stations)),
    )


@settings(max_examples=100, deadline=None)
@given(permuted_runs())
def test_run_is_invariant_under_trace_and_station_order(layout):
    traces, shuffled_traces, stations, shuffled_stations = layout
    cfg, _, _ = queue_scenario()  # integer RR on 2 RBs: queues build
    expected = csv_text(run(cfg, traces, stations))
    assert csv_text(run(cfg, shuffled_traces, shuffled_stations)) == expected


RATE_MODELS = [
    None,
    lambda snr_db, speed: max(snr_db, 0.0) * 37.5 + speed,
    lambda snr_db, speed: 9000.0 if snr_db > 15.0 else 15.0,
]


@st.composite
def engine_cases(draw):
    """Traces, stations, config and rate model across the engine's branches.

    Vehicles may leave and come back, ticks may be negative, and some
    samples sit exactly halfway between twin stations (an exact SNR tie).
    Stations mix gains and heights; extra loss drives rows into outage.
    """
    rows = []
    for k in range(draw(st.integers(0, 7))):
        t = draw(st.integers(-70, 200))
        for _ in range(draw(st.integers(1, 3))):
            n = draw(st.integers(1, 15))
            x0 = draw(st.sampled_from([600.0, 0.0, 1200.0]) | st.floats(-500.0, 2500.0))
            y = draw(st.sampled_from([0.0, 25.0]) | st.floats(-300.0, 300.0))
            v = draw(st.floats(0.0, 60.0))
            rows.extend((f"v{k}", t + i, x0 + v * i, y, v) for i in range(n))
            t += n + draw(st.integers(1, 40))
    stations = [
        BaseStation(
            f"bs{i}",
            draw(st.sampled_from([0.0, 1200.0]) | st.floats(-500.0, 2500.0)),
            draw(st.sampled_from([25.0, 0.0])),
            antenna_gain=draw(st.sampled_from([15.0, 0.0, 18.5])),
            height=draw(st.sampled_from([10.0, 1.5, 25.0])),
        )
        for i in range(draw(st.integers(1, 4)))
    ]
    config = SimConfig(
        link=LinkBudgetConfig(extra_loss_db=draw(st.sampled_from([0.0, 40.0, 95.0]))),
        packaging=PackagingConfig(
            aggregate_ticks=draw(st.integers(1, 65)),
            n_extra_channels=draw(st.integers(0, 6)),
        ),
        n_rb=draw(st.sampled_from([100, 6, 0])),
        rb_limit=draw(st.sampled_from([0, 1, 3, 7])),
        scheduler_mode=draw(st.sampled_from(["fractional", "integer"])),
    )
    return config, trace_table(rows), stations, draw(st.sampled_from(RATE_MODELS))


@settings(max_examples=300, deadline=None)
@given(engine_cases())
def test_run_matches_the_scalar_loop(case):
    config, traces, stations, rate_model = case
    expected = csv_text(scalar_run(config, traces, stations, rate_model))
    assert csv_text(run(config, traces, stations, rate_model)) == expected
