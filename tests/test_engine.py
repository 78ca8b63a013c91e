import hashlib
import io
import json
import math
import re
import tracemalloc
from dataclasses import fields
from pathlib import Path
from unittest import mock

import numpy as np
import pytest
from hypothesis import example, given, settings
from hypothesis import strategies as st

from car2cloud import csvio, engine, radio
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
from car2cloud.csvio import ID_FORBIDDEN_CHARS, READ_CHUNK_BYTES
from car2cloud.cvim import PackagingConfig, count_packages_per_cell
from car2cloud.errors import ConfigError, ParseError, ValidationError
from car2cloud.linkrate import RbRateParams, rb_rate
from car2cloud.mobility import IdCodes, KraussParams, RoadSpec, generate_traces, id_codes
from car2cloud.radio import BaseStation, LinkBudgetConfig
from same_text import assert_same_text
from scalar_engine import run as scalar_run
from test_trace_csv import GATE_TOKENS
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
        vehicle_id=id_codes(vid),
        serving_station=id_codes(sid),
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
    assert results.serving_station.ids().tolist() == ["bs0"] * 10
    assert results.t.tolist() == list(range(10))


def test_colocated_vehicles_equal_rates():
    traces = trace_table(trace("a", [50] * 5) + trace("b", [50] * 5))
    results = run(SimConfig(), traces, STATION)
    assert results.t.tolist() == [t for t in range(5) for _ in "ab"]
    assert results.vehicle_id.ids().tolist() == ["a", "b"] * 5
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
    assert_same_text(csv_text(first), csv_text(second))
    keys = list(zip(first.t.tolist(), first.vehicle_id.ids().tolist()))
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
    stations = results.serving_station.ids().tolist()
    for t, sid, share in zip(results.t.tolist(), stations, results.rb_share):
        per_cell_tick[(t, sid)] = per_cell_tick.get((t, sid), 0.0) + share
    for total in per_cell_tick.values():
        assert total == pytest.approx(100.0, abs=1e-9)


def test_queue_drains_every_tick_at_high_rate():
    results = run(SimConfig(), trace_table(trace("v1", range(0, 100, 10))), STATION)
    assert results.packages_generated.tolist() == [1] * 10
    assert results.bits_sent.tolist() == [112 * 8] * 10
    assert results.queue_bytes.tolist() == [0] * 10


def test_queue_backlog_with_tiny_rate_model():
    # 2 Hz blocks at the efficiency ceiling: about 1018 bits/s at share 100.
    trickle = parse_config_text("", ["linkrate.rb_bandwidth_hz=2"])
    results = run(trickle, trace_table(trace("v1", [10, 20, 30, 40])), STATION)
    assert all(896 <= rate < 2 * 896 for rate in results.rate_bps.tolist())
    # exactly one package (896 bits) sent per tick
    assert results.bits_sent.tolist() == [896] * 4
    assert results.queue_bytes.tolist() == [0] * 4
    # Every row is in outage below a 100 dB cutoff: nothing is sent.
    outage = parse_config_text("", ["linkrate.snr_min_db=100"])
    zero = run(outage, trace_table(trace("v1", [10, 20, 30])), STATION)
    assert zero.rate_bps.tolist() == [0.0] * 3
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
    rows = zip(results.vehicle_id.ids().tolist(), results.t.tolist(), results.snr_db.tolist(),
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
        for vid, t, sid in zip(
            results.vehicle_id.ids().tolist(), results.t.tolist(),
            results.serving_station.ids().tolist(),
        )
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
    assert_same_text(csv_text(back), text)


def test_results_csv_rejects_bad_header():
    with pytest.raises(ParseError):
        read_results_csv(io.StringIO("a,b,c\n"))


@pytest.mark.parametrize(
    "text, message",
    [
        ("", "results CSV is empty (missing header)"),
        ("a,b,c\n", "bad results CSV header: 'a,b,c'"),
        ("a,b,c\r\n0,v,bs,0,0,0,0,0,0\r\n", "bad results CSV header: 'a,b,c'"),
        (RESULTS_CSV_HEADER + "\r", f"bad results CSV header: {RESULTS_CSV_HEADER + chr(13)!r}"),
    ],
)
def test_results_csv_header_errors_read_as_the_other_readers(text, message):
    with pytest.raises(ParseError) as err:
        read_results_csv(io.StringIO(text))
    assert str(err.value) == message


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


def test_summary_counts_ticks_in_any_row_order():
    # v1 is sampled at ticks 0-4 and v2 at 3-5: six distinct ticks in nine rows.
    traces = trace_table(trace("v1", range(0, 50, 10)) + trace("v2", range(5, 35, 10), t0=3))
    cfg = SimConfig()
    results = run(cfg, traces, STATION)
    columns = [
        c.ids().tolist() if isinstance(c, IdCodes) else c.tolist()
        for c in (getattr(results, f.name) for f in fields(TickTable))
    ]
    rows = list(zip(*columns))
    shuffled = [rows[i] for i in np.random.default_rng(7).permutation(len(rows))]
    assert [row[0] for row in shuffled] != sorted(row[0] for row in shuffled)
    assert summarize(cfg, results)["n_ticks"] == 6
    assert summarize(cfg, table_of(shuffled))["n_ticks"] == 6
    assert summarize(cfg, table_of([]))["n_ticks"] == 0

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


# Each config class with float fields, the key prefix its errors name, and
# the arguments it needs besides the field under test.
FLOAT_CONFIGS = [
    (KraussParams, "krauss.", {}),
    (RoadSpec, "road.", {}),
    (LinkBudgetConfig, "link.", {}),
    (RbRateParams, "linkrate.", {}),
    (BaseStation, "station 'bs0': ", {"station_id": "bs0", "x": 0.0, "y": 0.0}),
]


@pytest.mark.parametrize("value", [math.nan, math.inf, -math.inf])
@pytest.mark.parametrize(
    "cls, prefix, args, name",
    [
        pytest.param(cls, prefix, args, f.name, id=f"{cls.__name__}.{f.name}")
        for cls, prefix, args in FLOAT_CONFIGS
        for f in fields(cls)
        if f.type in ("float", float)
    ],
)
def test_config_floats_must_be_finite(cls, prefix, args, name, value):
    with pytest.raises(ConfigError, match=f"^{re.escape(prefix + name)} must "):
        cls(**{**args, name: value})


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


CONFIG_KEYS = [
    "cell.n_rb", "cell.rb_limit",
    "cvim.aggregate_ticks", "cvim.header_bytes", "cvim.n_extra_channels", "cvim.owner",
    "cvim.privacy_level", "cvim.pseudonym_key", "cvim.record_bytes",
    "krauss.a_max", "krauss.b_max", "krauss.min_gap", "krauss.sigma", "krauss.speed_dev",
    "krauss.tau", "krauss.v_max", "krauss.veh_length",
    "link.carrier_freq_ghz", "link.extra_loss_db", "link.noise_figure_db",
    "link.noise_power_dbm", "link.tx_power_dbm", "link.ue_gain_dbi", "link.ue_height_m",
    "linkrate.attenuation_beta", "linkrate.eta_max", "linkrate.rb_bandwidth_hz",
    "linkrate.snr_min_db", "linkrate.speed_penalty_at_vmax", "linkrate.v_ref",
    "road.duration", "road.inflow", "road.length", "road.topology",
    "scheduler.mode", "sim.scenario_label", "sim.seed", "sim.tick",
]


def test_config_echo_of_the_defaults_reads_back_as_itself():
    echo = config_echo(SimConfig())
    assert list(echo) == CONFIG_KEYS
    text = "".join(f"{key} = {value}\n" for key, value in echo.items())
    assert config_echo(parse_config_text(text)) == echo
    assert parse_config_text(text) == SimConfig()


def test_station_order_does_not_change_results():
    traces = trace_table(trace("a", range(0, 60, 6)) + trace("b", range(900, 960, 6)))
    stations = [
        BaseStation("bs1", 900.0, 30.0),
        BaseStation("bs0", 0.0, 30.0),
        BaseStation("bs2", 2000.0, 30.0),
    ]
    forward = run(SimConfig(), traces, stations)
    backward = run(SimConfig(), traces, list(reversed(stations)))
    assert_same_text(csv_text(forward), csv_text(backward))


def test_co_sited_twin_stations_leave_every_row_to_the_screen():
    """Each station doubled at its site, with its gain and height, under a later id:
    the twin never serves, and no row is an exact tie for best_link."""
    configs = Path(__file__).resolve().parent.parent / "configs"
    config = load_config(configs / "traffic_jam.cfg", ["road.duration=150"])
    traces = generate_traces(config.road_spec(), config.krauss)
    with open(configs / "stations_10km.csv", encoding="utf-8", newline="") as fh:
        single = radio.parse_stations_csv(fh)
    doubled = single + [
        BaseStation(f"{s.station_id}b", s.x, s.y, antenna_gain=s.antenna_gain, height=s.height)
        for s in single
    ]
    expected = csv_text(run(config, traces, single))
    with mock.patch("car2cloud.engine.best_link", wraps=radio.best_link) as best_link:
        assert_same_text(csv_text(run(config, traces, doubled)), expected)
    assert best_link.call_count == 0
    assert_same_text(csv_text(scalar_run(config, traces, doubled)), expected)


def test_mirrored_sites_resolve_each_block_in_one_best_link_call():
    """Stations in pairs across the road tie exactly on every strip row, so
    the screen leaves those rows to best_link, which takes a block's rows at once."""
    configs = Path(__file__).resolve().parent.parent / "configs"
    config = load_config(configs / "traffic_jam.cfg", ["road.duration=150"])
    traces = generate_traces(config.road_spec(), config.krauss)
    stations = [
        BaseStation(f"bs{x}{side}", float(x), y)
        for x in range(1000, 10000, 2000)
        for side, y in (("n", 25.0), ("s", -25.0))
    ]
    with mock.patch("car2cloud.engine.best_link", wraps=radio.best_link) as best_link:
        table = run(config, traces, stations)
    blocks = -(-len(table) // (engine.KERNEL_BLOCK_ROWS // len(stations)))
    assert 1 <= best_link.call_count <= blocks
    assert_same_text(csv_text(table), csv_text(scalar_run(config, traces, stations)))


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
    rows = zip(results.vehicle_id.ids().tolist(), results.serving_station.ids().tolist())
    serving_w = {sid for vid, sid in rows if vid == "w"}
    assert serving_w == {"bs0"}


def test_deep_ring_backlog_matches_the_scalar_loop():
    # 50 cars on the 10 km ring, one 3 kHz resource block per cell and a
    # package every tick: queues reach 37 packages and drain in part.
    config = parse_config_text("", [
        "road.topology=ring", "road.inflow=50", "road.duration=120", "cell.rb_limit=1",
        "cvim.aggregate_ticks=1", "linkrate.rb_bandwidth_hz=3000", "sim.seed=42",
    ])
    traces = generate_traces(config.road_spec(), config.krauss)
    radius = config.road.length / (2.0 * math.pi) + 25.0
    stations = [
        BaseStation(f"bs{k}", radius * math.cos(2.0 * math.pi * k / 5),
                    radius * math.sin(2.0 * math.pi * k / 5))
        for k in range(5)
    ]
    results = run(config, traces, stations)
    package = config.packaging.payload_bytes(config.packaging.records_per_tick)
    assert results.queue_bytes.max() == 37 * package
    assert ((results.bits_sent > 0) & (results.queue_bytes >= 2 * package)).any()
    assert_same_text(csv_text(results), csv_text(scalar_run(config, traces, stations)))


def test_a_jam_whose_packages_all_fit_takes_no_drain_step():
    # At 100 RB per cell every package of the jam strip fits its row's
    # capacity, so no queue forms: the drain fills every row at once and
    # makes no np.searchsorted call, its one search per step.
    configs = Path(__file__).resolve().parent.parent / "configs"
    config = load_config(configs / "traffic_jam.cfg", ["road.duration=150"])
    traces = generate_traces(config.road_spec(), config.krauss)
    with open(configs / "stations_10km.csv", encoding="utf-8", newline="") as fh:
        stations = radio.parse_stations_csv(fh)
    with mock.patch.object(np, "searchsorted", wraps=np.searchsorted) as searchsorted:
        table = run(config, traces, stations)
    assert searchsorted.call_count == 0
    assert len(stations) == 5 and len(table) > 5_000
    assert not table.queue_bytes.any()
    assert_same_text(csv_text(table), csv_text(scalar_run(config, traces, stations)))


def test_run_peak_memory_stays_near_the_table_it_returns():
    """engine.run reads canonical traces in place, takes every step in their
    row order and gathers the results one column at a time, so its traced
    peak stays near the bytes of the TickTable it returns: 1.25 times them
    here, and 1.24 on ring_backlog's seed-42 traces."""
    # A 10 km ring of 100 vehicles on narrow blocks: every vehicle queues.
    config = parse_config_text("", [
        "road.topology=ring", "road.length=10000", "road.inflow=100", "road.duration=600",
        "cell.rb_limit=1", "cvim.aggregate_ticks=20", "linkrate.rb_bandwidth_hz=3000",
    ])
    radius = 10_000.0 / (2.0 * math.pi) + 25.0
    angles = [0.4 * math.pi * k for k in range(5)]
    stations = [
        BaseStation(f"bs{k}", radius * math.cos(a), radius * math.sin(a))
        for k, a in enumerate(angles)
    ]
    traces = generate_traces(config.road_spec(), config.krauss)
    tracemalloc.start()
    try:
        table = run(config, traces, stations)
        peak = tracemalloc.get_traced_memory()[1]
    finally:
        tracemalloc.stop()
    columns = [getattr(table, f.name) for f in fields(TickTable)]
    table_bytes = sum(c.codes.nbytes if isinstance(c, IdCodes) else c.nbytes for c in columns)
    assert len(table) == 60_000 and np.count_nonzero(table.queue_bytes) > 50_000
    assert peak <= 1.5 * table_bytes


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


def test_run_rejects_a_repeated_sample():
    # Dealt as a second vehicle of its cell, a repeat would take 1 and 2 of
    # 3 blocks, and the scalar loop, which deals per vehicle, 2 and 2.
    config = parse_config_text("", ["scheduler.mode=integer", "cell.n_rb=3"])
    rows = [("a", 1, 5.0, 0.0, 2.0), ("a", 1, 6.0, 0.0, 2.0)]
    with pytest.raises(ValidationError) as err:
        run(config, trace_table(rows), [BaseStation("bs0", 0.0, 25.0)])
    assert str(err.value) == "vehicle 'a' at t=1: repeated sample"


def test_run_names_the_first_repeated_sample_in_results_order():
    # 'b' repeats t=2 and 'c' t=1: 'b' comes first by vehicle, 'c' by tick.
    rows = [("a", t, 10.0, 0.0, 5.0) for t in range(4)]
    rows += [("b", 2, 10.0, 0.0, 5.0)] * 2 + [("c", 1, 10.0, 0.0, 5.0)] * 2
    for order in (rows, rows[::-1]):
        with pytest.raises(ValidationError) as err:
            run(SimConfig(), trace_table(order), STATION)
        assert str(err.value) == "vehicle 'c' at t=1: repeated sample"


@pytest.mark.parametrize(
    "value, overrides",
    [
        # A block's rate overflows to inf where the SNR is high; its share is 0.
        pytest.param(math.nan, ["cell.n_rb=0", "linkrate.rb_bandwidth_hz=1e308"], id="nan"),
        # A share of 10**307 / 3 blocks times a finite rate overflows.
        pytest.param(math.inf, [f"cell.n_rb={10**307}"], id="inf"),
    ],
)
def test_run_names_the_first_row_with_a_bad_rate(value, overrides):
    # Rows 10 km and more from the station are in outage, with rate 0.
    rows = [("a", t, 10_000.0, 0.0, 10.0) for t in range(4)]
    rows += [("b", t, 20.0 if t >= 2 else 20_000.0, 0.0, 10.0) for t in range(4)]
    rows += [("c", t, 30_000.0, 0.0, 10.0) for t in range(2, 4)]
    with pytest.raises(ConfigError) as err:
        run(parse_config_text("", overrides), trace_table(rows), STATION)
    assert str(err.value) == (
        f"vehicle 'b' at t=2: rate {value!r} bit/s is not a finite, non-negative capacity"
    )


@pytest.mark.parametrize(
    "speeds, message",
    [
        # Nothing is sent: the ninth package of 2**60 - 4 bytes overflows.
        ([1.0] * 10, f"vehicle 'b' at t=8: {9 * (2**60 - 4)} bytes queued and 0 bits sent"),
        # Four packages wait, then the fifth tick sends them all at once.
        (
            [1.0] * 4 + [0.0],
            f"vehicle 'b' at t=4: 0 bytes queued and {5 * 8 * (2**60 - 4)} bits sent",
        ),
    ],
)
def test_run_rejects_queue_totals_beyond_int64(speeds, message):
    rows = [("a", t, 10.0, 0.0, 1.0) for t in range(3)]
    rows += [("b", t, 20.0, 0.0, speed) for t, speed in enumerate(speeds)]
    # Packages of 2**63 - 32 bits.  A standing vehicle alone in its cell
    # gets 100 * 5.55 * 1e17 bit/s, room for six; at v_ref = 1 m/s the
    # penalty leaves a tenth of that, under one.
    config = parse_config_text("", [
        f"cvim.header_bytes={2**60 - 52}", "linkrate.rb_bandwidth_hz=1e17",
        "linkrate.speed_penalty_at_vmax=0.9", "linkrate.v_ref=1",
    ])
    with pytest.raises(ConfigError) as err:
        run(config, trace_table(rows), STATION)
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
    """The package metadata run once checked is checked when the config is built."""
    cases = [
        ("owner", "x" * 17, "cvim.owner must be at most 16 bytes of UTF-8, got '" + "x" * 17 + "'"),
        ("owner", "é" * 9, "cvim.owner must be at most 16 bytes of UTF-8, got '" + "é" * 9 + "'"),
        ("privacy_level", "secret", "cvim.privacy_level must be one of "
         "('public', 'restricted', 'private'), got 'secret'"),
    ]
    for key, value, message in cases:
        with pytest.raises(ConfigError) as err:
            parse_config_text("", [f"cvim.{key}={value}"])
        assert str(err.value) == message
        with pytest.raises(ConfigError):
            PackagingConfig(**{key: value})
    assert parse_config_text("", ["cvim.owner=" + "é" * 8]).packaging.owner == "é" * 8


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
        if isinstance(column_b, IdCodes):
            assert column_a.names == column_b.names, name
            column_a, column_b = column_a.codes, column_b.codes
        if isinstance(column_b, np.ndarray):
            assert column_a.dtype == column_b.dtype, name
            column_a, column_b = column_a.tolist(), column_b.tolist()
        assert column_a == column_b, name


CHUNK_BYTES = [1, 40, 300, READ_CHUNK_BYTES]
ROW = (3, "v", "bs", 0.5, 1.0, 2.0, 1, 0, 0)


@settings(max_examples=300, deadline=None)
@given(
    st.lists(TICK_ROWS, max_size=5),
    st.lists(st.integers(0, 2), min_size=6, max_size=6),
    st.integers(-1, 4),
    st.sampled_from(CHUNK_BYTES),
    st.integers(0, 2**18 - 1),
)
@example([ROW] * 4, [0, 2, 1, 0, 2, 0], -1, 1, 0)
@example([ROW] * 4, [0, 2, 1, 0, 2, 0], 3, 1, 0)
@example([ROW] * 4, [0, 2, 1, 0, 2, 0], 3, 40, 0)
@example([ROW] * 4, [0, 2, 1, 0, 2, 0], 3, 300, 0)
@example([ROW] * 4, [0, 2, 1, 0, 2, 0], 3, READ_CHUNK_BYTES, 0)
@example([ROW] * 4, [0, 2, 1, 0, 2, 0], -1, 1, 2**18 - 1)
@example([ROW] * 4, [0, 2, 1, 0, 2, 0], 3, 40, 2**18 - 1)
@example([ROW] * 4, [0, 2, 1, 0, 2, 0], -1, READ_CHUNK_BYTES, 0b1010101010101)
def test_results_csv_round_trip_property(rows, blanks, bad, chunk_bytes, crlf):
    """A table read back at every chunk size, around blank lines and a bad field.

    blanks[i] blank lines go before row i (the last entry: after the last
    row); at 1 and 40 bytes they fill whole chunks.  Row bad, if any, gets a
    bad rb_share, and the error must name its line.  Line i, header and
    blank lines included, ends in CRLF if bit i of crlf is set, else in LF.
    """
    results = table_of(rows)
    text = csv_text(results)
    header, *lines = text.split("\n")[:-1]
    edited, bad_lineno = [header], None
    for i, line in enumerate(lines):
        edited += [""] * blanks[i]
        if i == bad:
            parts = line.split(",")
            line = ",".join([*parts[:4], "half", *parts[5:]])
            bad_lineno = len(edited) + 1
        edited.append(line)
    edited += [""] * blanks[len(lines)]
    ends = ("\r\n" if crlf >> i & 1 else "\n" for i in range(len(edited)))
    stream = io.StringIO("".join(map(str.__add__, edited, ends)))
    with mock.patch.object(csvio, "READ_CHUNK_BYTES", chunk_bytes):
        if bad_lineno is not None:
            with pytest.raises(ParseError) as err:
                read_results_csv(stream)
            assert str(err.value) == f"line {bad_lineno}: could not convert string to float: 'half'"
            return
        back = read_results_csv(stream)
    assert_tables_equal(back, results)
    assert_same_text(csv_text(back), text)  # bit for bit, -0.0 included


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


RESULTS_NAMES = RESULTS_CSV_HEADER.split(",")


@pytest.mark.parametrize("token", GATE_TOKENS + ["1\r", "-0\r", ""])
@pytest.mark.parametrize("field", [4, 8, 0])  # rb_share; queue_bytes, the last; t, the first
def test_read_results_csv_reads_each_token_as_int_or_float_does(field, token):
    """The token in one field of a line past the first chunk, against int or float on it."""
    lines = results_lines(400)
    bad = 390
    parts = lines[bad].rstrip("\n").split(",")
    parts[field] = token
    lines[bad] = ",".join(parts) + "\n"
    stream = io.StringIO(RESULTS_CSV_HEADER + "\n" + "".join(lines))
    convert = float if field == 4 else int
    try:
        value = convert(token)
    except ValueError as exc:
        message = str(exc)
    else:
        if convert is float or -(2**63) <= value < 2**63:
            with mock.patch.object(csvio, "READ_CHUNK_BYTES", 4096):
                column = getattr(read_results_csv(stream), RESULTS_NAMES[field])
            assert column[bad:bad + 1].tobytes() == np.array([value], column.dtype).tobytes()
            return
        message = f"integer {token!r} exceeds 64 bits"
    with mock.patch.object(csvio, "READ_CHUNK_BYTES", 4096), pytest.raises(ParseError) as err:
        read_results_csv(stream)
    assert str(err.value) == f"line {bad + 2}: {message}"


def test_read_results_csv_skips_blank_lines_and_interns_ids():
    lines = results_lines(MANY)
    text = RESULTS_CSV_HEADER + "\n\n" + "".join(lines[:50]) + "\n\n" + "".join(lines[50:])
    table = read_results_csv(io.StringIO(text.rstrip("\n")))  # no final line break
    assert len(table) == MANY
    assert_same_text(csv_text(table), RESULTS_CSV_HEADER + "\n" + "".join(lines))
    assert table.vehicle_id.names == sorted({line.split(",")[1] for line in lines})
    assert len(table.vehicle_id.names) == 7
    assert table.t.dtype == np.int64 and table.rate_bps.dtype == np.float64


def test_read_results_csv_header_only():
    table = read_results_csv(io.StringIO(RESULTS_CSV_HEADER + "\n"))
    assert len(table) == 0
    assert table.t.dtype == np.int64 and table.snr_db.dtype == np.float64
    assert_same_text(csv_text(table), RESULTS_CSV_HEADER + "\n")


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
    rows = zip(table.vehicle_id.ids().tolist(), table.t.tolist(), table.queue_bytes.tolist())
    for vid, t, queued in rows:
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
    assert_same_text(csv_text(run(cfg, shuffled_traces, shuffled_stations)), expected)


@st.composite
def engine_cases(draw):
    """Traces, stations and config across the engine's branches.

    Vehicles may leave and come back, ticks may be negative, and some
    samples sit exactly halfway between twin stations (an exact SNR tie).
    Stations mix gains and heights; extra loss and a high outage cutoff
    drive rows into outage, and narrow blocks leave packages queued.
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
        rate=RbRateParams(
            # 3 and 30 Hz blocks give a few packages per tick at some shares.
            rb_bandwidth_hz=draw(
                st.sampled_from([180_000.0, 3.0, 30.0])
                | st.floats(-1.0, 4.0).map(lambda exponent: 10.0**exponent)
            ),
            snr_min_db=draw(st.sampled_from([-10.0, 15.0]) | st.floats(-40.0, 70.0)),
        ),
        packaging=PackagingConfig(
            aggregate_ticks=draw(st.sampled_from([1, 2]) | st.integers(1, 65)),
            n_extra_channels=draw(st.integers(0, 6)),
        ),
        n_rb=draw(st.sampled_from([100, 6, 0])),
        rb_limit=draw(st.sampled_from([0, 1, 3, 7])),
        scheduler_mode=draw(st.sampled_from(["fractional", "integer"])),
    )
    return config, trace_table(rows), stations


@settings(max_examples=300, deadline=None)
@given(engine_cases())
def test_run_matches_the_scalar_loop(case):
    config, traces, stations = case
    expected = csv_text(scalar_run(config, traces, stations))
    assert_same_text(csv_text(run(config, traces, stations)), expected)


@pytest.mark.parametrize("block_rows", [1, 7, 64])
@settings(max_examples=100, deadline=None)
@given(engine_cases())
def test_run_matches_the_scalar_loop_in_small_blocks(block_rows, case):
    # The association, SNR and rate kernels run on blocks of 1, 7 or 64
    # rows; the drain takes the whole table at once.
    config, traces, stations = case
    expected = csv_text(scalar_run(config, traces, stations))
    with mock.patch.object(engine, "KERNEL_BLOCK_ROWS", block_rows):
        assert_same_text(csv_text(run(config, traces, stations)), expected)


@pytest.mark.parametrize("block_rows", [1, 4])
def test_queue_totals_beyond_int64_name_the_first_vehicle_in_any_block(block_rows):
    # 'a' stays below int64; 'b' overflows at t=8 and 'c' at an earlier
    # tick.  The drain takes one vehicle after another, so 'b' is named,
    # however small the association and rate blocks.
    rows = [("a", t, 10.0, 0.0, 0.0) for t in range(3)]
    rows += [("b", t, 20.0, 0.0, 0.0) for t in range(10)]
    rows += [("c", t, 30.0, 0.0, 0.0) for t in range(-5, 5)]
    config = SimConfig(
        packaging=PackagingConfig(header_bytes=2**60 - 52),
        rate=RbRateParams(snr_min_db=100.0),  # every row in outage: nothing is sent
    )
    with mock.patch.object(engine, "KERNEL_BLOCK_ROWS", block_rows):
        with pytest.raises(ConfigError) as err:
            run(config, trace_table(rows), STATION)
    assert str(err.value) == (
        f"vehicle 'b' at t=8: {9 * (2**60 - 4)} bytes queued and 0 bits sent, beyond 64 bits"
    )
