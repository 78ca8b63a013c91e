import csv
import errno
import hashlib
import json
import math
import os
from pathlib import Path

import pytest

from car2cloud import engine
from car2cloud.cli import main
from car2cloud.linkrate import rb_rate

STATIONS_10KM = Path(__file__).resolve().parent.parent / "configs" / "stations_10km.csv"

FREE_CFG = """
road.topology = strip
road.length = 1500
road.inflow = 1000
road.duration = 90
sim.seed = 13
sim.scenario_label = free_flow
"""

JAM_CFG = FREE_CFG.replace("1000", "4000").replace("free_flow", "traffic_jam")

STATIONS = "station_id,x,y,antenna_gain,height\nbs0,400,25,15,10\nbs1,1100,25,15,10\n"


@pytest.fixture
def workspace(tmp_path):
    (tmp_path / "free.cfg").write_text(FREE_CFG, encoding="utf-8")
    (tmp_path / "jam.cfg").write_text(JAM_CFG, encoding="utf-8")
    (tmp_path / "stations.csv").write_text(STATIONS, encoding="utf-8")
    return tmp_path


def test_gen_traces_writes_csv(workspace, capsys):
    out = workspace / "traces.csv"
    code = main(["gen-traces", "--config", str(workspace / "free.cfg"), "--out", str(out)])
    assert code == 0
    lines = out.read_text().splitlines()
    assert lines[0] == "vehicle_id,t,x,y,speed"
    assert len(lines) > 10
    n_vehicles = len({line.split(",")[0] for line in lines[1:]})
    assert f"wrote {n_vehicles} traces to {out}" in capsys.readouterr().err


def test_gen_traces_zero_duration(workspace):
    out = workspace / "empty.csv"
    code = main([
        "gen-traces", "--config", str(workspace / "free.cfg"),
        "--set", "road.duration=0", "--out", str(out),
    ])
    assert code == 0
    assert out.read_text() == "vehicle_id,t,x,y,speed\n"


def test_gen_traces_unknown_key_exits_2(workspace, capsys):
    code = main([
        "gen-traces", "--config", str(workspace / "free.cfg"),
        "--set", "road.bogus=1", "--out", str(workspace / "x.csv"),
    ])
    assert code == 2
    assert "road.bogus" in capsys.readouterr().err


def test_simulate_single_vehicle_fixture(tmp_path):
    traces = tmp_path / "one.csv"
    rows = ["vehicle_id,t,x,y,speed"]
    rows += [f"v1,{t},{t * 10.0},0.0,10.0" for t in range(10)]
    traces.write_text("\n".join(rows) + "\n", encoding="utf-8")
    (tmp_path / "stations.csv").write_text(STATIONS, encoding="utf-8")
    out_dir = tmp_path / "out"
    code = main([
        "simulate", "--traces", str(traces),
        "--stations", str(tmp_path / "stations.csv"), "--out-dir", str(out_dir),
    ])
    assert code == 0
    lines = (out_dir / "results.csv").read_text().splitlines()
    assert len(lines) == 11
    summary = json.loads((out_dir / "summary.json").read_text())
    assert summary["n_vehicles"] == 1
    assert summary["n_rows"] == 10


def test_simulate_missing_stations_exits_3(workspace):
    traces = workspace / "traces.csv"
    main(["gen-traces", "--config", str(workspace / "free.cfg"), "--out", str(traces)])
    code = main([
        "simulate", "--traces", str(traces),
        "--stations", str(workspace / "nope.csv"), "--out-dir", str(workspace / "o"),
    ])
    assert code == 3


def test_simulate_rb_scaling_via_set(workspace):
    traces = workspace / "traces.csv"
    main(["gen-traces", "--config", str(workspace / "free.cfg"), "--out", str(traces)])
    for n_rb, name in ((100, "full"), (10, "tenth")):
        code = main([
            "simulate", "--config", str(workspace / "free.cfg"),
            "--traces", str(traces), "--stations", str(workspace / "stations.csv"),
            "--set", f"cell.n_rb={n_rb}", "--out-dir", str(workspace / name),
        ])
        assert code == 0
    full = (workspace / "full" / "results.csv").read_text().splitlines()[1:]
    tenth = (workspace / "tenth" / "results.csv").read_text().splitlines()[1:]
    assert len(full) == len(tenth)
    for row_a, row_b in zip(full, tenth):
        rate_a = float(row_a.split(",")[5])
        rate_b = float(row_b.split(",")[5])
        assert rate_b == pytest.approx(0.1 * rate_a, rel=1e-9)


def test_pipeline_end_to_end_with_ratio(workspace):
    for label in ("free", "jam"):
        traces = workspace / f"{label}_traces.csv"
        assert main(["gen-traces", "--config", str(workspace / f"{label}.cfg"),
                     "--out", str(traces)]) == 0
        assert main(["simulate", "--config", str(workspace / f"{label}.cfg"),
                     "--traces", str(traces),
                     "--stations", str(workspace / "stations.csv"),
                     "--out-dir", str(workspace / f"{label}_out")]) == 0
    out = workspace / "analysis"
    code = main([
        "analyze",
        str(workspace / "free_out" / "results.csv"),
        str(workspace / "jam_out" / "results.csv"),
        "--label", "free_flow", "--label", "traffic_jam",
        "--out-dir", str(out),
    ])
    assert code == 0
    stats = json.loads((out / "stats.json").read_text())
    assert set(stats["scenarios"]) == {"free_flow", "traffic_jam"}
    assert stats["ratio"]["a"] == "free_flow"
    assert stats["ratio"]["mean"] > 1.0
    assert (out / "cdf.csv").exists()
    assert (out / "cdf_traffic_jam.csv").exists()
    assert (out / "cell_packages.csv").exists()


def test_analyze_single_file_no_ratio(workspace):
    traces = workspace / "traces.csv"
    main(["gen-traces", "--config", str(workspace / "free.cfg"), "--out", str(traces)])
    main(["simulate", "--config", str(workspace / "free.cfg"), "--traces", str(traces),
          "--stations", str(workspace / "stations.csv"),
          "--out-dir", str(workspace / "solo")])
    code = main(["analyze", str(workspace / "solo" / "results.csv"),
                 "--out-dir", str(workspace / "solo_stats")])
    assert code == 0
    stats = json.loads((workspace / "solo_stats" / "stats.json").read_text())
    assert "ratio" not in stats
    assert list(stats["scenarios"]) == ["solo"]  # label from parent directory


def test_analyze_empty_results_exits_3(tmp_path):
    empty = tmp_path / "results.csv"
    empty.write_text(
        "t,vehicle_id,serving_station,snr_db,rb_share,rate_bps,"
        "packages_generated,bits_sent,queue_bytes\n",
        encoding="utf-8",
    )
    assert main(["analyze", str(empty), "--out-dir", str(tmp_path / "o")]) == 3


def test_plan_prints_json(capsys):
    code = main(["plan", "--rate", "50000", "--snr", "20", "--speed", "0"])
    assert code == 0
    payload = json.loads(capsys.readouterr().out)
    assert payload == {
        "required_rate_bps": 50000.0,
        "snr_db": 20.0,
        "speed_mps": 0.0,
        "rb_needed": 1,
    }


def test_plan_zero_rate(capsys):
    assert main(["plan", "--rate", "0", "--snr", "5", "--speed", "10"]) == 0
    assert json.loads(capsys.readouterr().out)["rb_needed"] == 0


def test_plan_outage_exits_3(capsys):
    assert main(["plan", "--rate", "1000", "--snr", "-30", "--speed", "0"]) == 3
    assert "outage" in capsys.readouterr().err


def test_plan_with_an_infinite_block_rate_exits_2(capsys):
    args = ["--rate", "50000", "--snr", "20", "--speed", "0"]
    assert main(["plan", *args, "--set", "linkrate.rb_bandwidth_hz=1e308"]) == 2
    captured = capsys.readouterr()
    assert "rate of one resource block inf bit/s" in captured.err
    assert captured.out == ""


@pytest.mark.parametrize(
    "rate, snr, speed, ceiling, needed",
    [
        # ceil(rate / rate of one block) rounds one block too high ...
        ("747520517810.3289", "36.82202933997298", "16.88427999845661", 870358, 870357),
        # ... and one block too low
        ("180454874074.1338", "9.679984318895698", "6.813967874227251", 526637, 526638),
    ],
)
def test_plan_corrects_a_ceiling_that_rounding_moved(capsys, rate, snr, speed, ceiling, needed):
    assert main(["plan", "--rate", rate, "--snr", snr, "--speed", speed]) == 0
    n = json.loads(capsys.readouterr().out)["rb_needed"]
    required, per_rb = float(rate), rb_rate(float(snr), float(speed))
    assert math.ceil(required / per_rb) == ceiling
    assert n == needed
    assert n * per_rb >= required > (n - 1) * per_rb


def test_seed_flag_overrides(workspace):
    out_a = workspace / "a.csv"
    out_b = workspace / "b.csv"
    main(["gen-traces", "--config", str(workspace / "free.cfg"), "--seed", "99",
          "--out", str(out_a)])
    main(["gen-traces", "--config", str(workspace / "free.cfg"),
          "--set", "sim.seed=99", "--out", str(out_b)])
    assert out_a.read_text() == out_b.read_text()


@pytest.mark.parametrize("command", ["gen-traces", "simulate", "plan"])
def test_negative_seed_is_a_config_error_for_every_command(workspace, capsys, command):
    traces, out = workspace / "traces.csv", workspace / "out"
    traces.write_text(INPUTS["traces.csv"], encoding="utf-8")
    argv = {
        "gen-traces": ["gen-traces", "--out", str(out)],
        "simulate": ["simulate", "--traces", str(traces),
                     "--stations", str(workspace / "stations.csv"), "--out-dir", str(out)],
        "plan": ["plan", "--rate", "50000", "--snr", "20", "--speed", "0"],
    }[command]
    assert main([*argv, "--config", str(workspace / "free.cfg"), "--seed", "-1"]) == 2
    captured = capsys.readouterr()
    assert captured.err == "configuration error: sim.seed must be non-negative, got -1\n"
    assert captured.out == ""
    assert not out.exists()


@pytest.mark.parametrize(
    "flag, value, message",
    [
        ("--rate", "inf", "required_rate must be finite, got inf"),
        ("--rate", "nan", "required_rate must be finite, got nan"),
        ("--snr", "nan", "snr_db must be finite, got nan"),
        ("--speed", "nan", "speed must be finite, got nan"),
        ("--speed", "-5", "speed must be non-negative"),
    ],
)
def test_plan_rejects_bad_numbers_with_exit_3(capsys, flag, value, message):
    args = {"--rate": "50000", "--snr": "20", "--speed": "0", flag: value}
    assert main(["plan", *[part for item in args.items() for part in item]]) == 3
    captured = capsys.readouterr()
    assert message in captured.err
    assert captured.out == ""


def test_analyze_label_count_mismatch_exits_2(workspace):
    traces = workspace / "traces.csv"
    main(["gen-traces", "--config", str(workspace / "free.cfg"), "--out", str(traces)])
    main(["simulate", "--config", str(workspace / "free.cfg"), "--traces", str(traces),
          "--stations", str(workspace / "stations.csv"),
          "--out-dir", str(workspace / "r")])
    code = main(["analyze", str(workspace / "r" / "results.csv"),
                 "--label", "a", "--label", "b",
                 "--out-dir", str(workspace / "s")])
    assert code == 2


RESULTS_HEADER = (
    "t,vehicle_id,serving_station,snr_db,rb_share,rate_bps,"
    "packages_generated,bits_sent,queue_bytes\n"
)


def write_results(path, rows):
    path.parent.mkdir(parents=True, exist_ok=True)
    path.write_text(RESULTS_HEADER + "".join(row + "\n" for row in rows), encoding="utf-8")
    return str(path)


@pytest.mark.parametrize("explicit", [True, False])
def test_analyze_rejects_duplicate_labels(tmp_path, capsys, explicit):
    a = write_results(tmp_path / "a" / "x" / "results.csv", ["0,v,bs,1.0,1.0,5.0,1,0,0"])
    b = write_results(tmp_path / "b" / "x" / "results.csv", ["0,v,bs,1.0,1.0,7.0,1,0,0"])
    c = write_results(tmp_path / "c" / "y" / "results.csv", ["0,v,bs,1.0,1.0,9.0,1,0,0"])
    labels = ["--label", "p", "--label", "q", "--label", "p"] if explicit else []
    out = tmp_path / "stats"
    code = main(["analyze", a, c, b, *labels, "--out-dir", str(out)])
    assert code == 2
    assert repr("p" if explicit else "x") in capsys.readouterr().err
    assert not out.exists()  # rejected before any file is read or written


def test_analyze_rejects_a_label_with_a_slash(tmp_path, capsys):
    a = write_results(tmp_path / "a" / "results.csv", ["0,v,bs,1.0,1.0,5.0,1,0,0"])
    b = write_results(tmp_path / "b" / "results.csv", ["0,v,bs,1.0,1.0,7.0,1,0,0"])
    out = tmp_path / "stats"
    out.mkdir()
    code = main(["analyze", a, b, "--label", "free", "--label", "jam/x", "--out-dir", str(out)])
    assert code == 2
    assert repr("jam/x") in capsys.readouterr().err
    assert list(out.iterdir()) == []  # rejected before the first scenario's files are written


def test_analyze_rejects_a_label_too_long_for_a_file_name(tmp_path, capsys):
    a = write_results(tmp_path / "a" / "results.csv", ["0,v,bs,1.0,1.0,5.0,1,0,0"])
    b = write_results(tmp_path / "b" / "results.csv", ["0,v,bs,1.0,1.0,7.0,1,0,0"])
    out = tmp_path / "stats"
    out.mkdir()
    label = "x" * (os.pathconf(out, "PC_NAME_MAX") - len("cell_packages_.csv") + 1)
    code = main(["analyze", a, b, "--label", "free", "--label", label, "--out-dir", str(out)])
    assert code == 2
    assert repr(label) in capsys.readouterr().err
    assert list(out.iterdir()) == []  # rejected before the first scenario's files are written
    # One byte shorter, the label names its files.
    code = main(["analyze", a, b, "--label", "free", "--label", label[1:], "--out-dir", str(out)])
    assert code == 0
    assert (out / f"cell_packages_{label[1:]}.csv").exists()


def test_analyze_int_beyond_int64_exits_3(tmp_path, capsys):
    rows = ["0,v,bs,1.0,1.0,5.0,1,0,0", "1,v,bs,1.0,1.0,5.0,1,0,9223372036854775808"]
    path = write_results(tmp_path / "r" / "results.csv", rows)
    assert main(["analyze", path, "--out-dir", str(tmp_path / "o")]) == 3
    assert "line 3: integer '9223372036854775808' exceeds 64 bits" in capsys.readouterr().err


@pytest.mark.parametrize("rate", ["nan", "inf", "-inf"])
def test_analyze_rejects_a_non_finite_rate_naming_file_vehicle_and_tick(tmp_path, capsys, rate):
    rows = ["0,v,bs,1.0,1.0,5.0,1,0,0", f"1,v,bs,1.0,1.0,{rate},1,0,0"]
    path = write_results(tmp_path / "r" / "results.csv", rows)
    assert main(["analyze", path, "--out-dir", str(tmp_path / "o")]) == 3
    assert capsys.readouterr().err == (
        f"input error: results file {path}: vehicle 'v' at t=1: rate {rate} bit/s is not finite\n"
    )
    assert not (tmp_path / "o" / "stats.json").exists()


def strict_json(path):
    """The JSON document at path; NaN, Infinity and -Infinity are errors."""
    def reject(token):
        raise ValueError(f"{path.name} holds {token}, which strict JSON lacks")

    return json.loads(path.read_text(encoding="utf-8"), parse_constant=reject)


def simulate_four_rows_at_1000_m(tmp_path, *settings):
    """simulate's exit code on one vehicle's 4 rows at x = 1000 m, 10 km layout."""
    traces = tmp_path / "traces.csv"
    traces.write_text(
        "vehicle_id,t,x,y,speed\n" + "".join(f"v1,{t},1000,0,10\n" for t in range(4)),
        encoding="utf-8",
    )
    overrides = [arg for setting in settings for arg in ("--set", setting)]
    return main([
        "simulate", "--traces", str(traces), "--stations", str(STATIONS_10KM),
        *overrides, "--out-dir", str(tmp_path / "sim"),
    ])


@pytest.mark.parametrize(
    "settings, rate",
    [
        (["cell.n_rb=0", "linkrate.rb_bandwidth_hz=1e308"], "nan"),  # 0 blocks * inf
        ([f"cell.n_rb=1{'0' * 307}"], "inf"),
    ],
)
def test_simulate_rejects_a_non_finite_rate_with_exit_2(tmp_path, capsys, settings, rate):
    assert simulate_four_rows_at_1000_m(tmp_path, *settings) == 2
    assert capsys.readouterr().err == (
        f"configuration error: vehicle 'v1' at t=0: rate {rate} bit/s is not a finite, "
        "non-negative capacity\n"
    )


def test_overflowing_rate_sums_are_written_as_strict_json(tmp_path):
    """Finite rates whose left-to-right sum overflows: the means are written 'inf'."""
    code = simulate_four_rows_at_1000_m(
        tmp_path, "linkrate.rb_bandwidth_hz=1e307", "cell.n_rb=1"
    )
    assert code == 0
    summary = strict_json(tmp_path / "sim" / "summary.json")
    assert summary["mean_rate_bps"] == "inf"
    results = str(tmp_path / "sim" / "results.csv")
    assert main(["analyze", results, results, "--label", "a", "--label", "b",
                 "--out-dir", str(tmp_path / "stats")]) == 0
    stats = strict_json(tmp_path / "stats" / "stats.json")
    assert stats["scenarios"]["a"]["mean_rate_bps"] == "inf"
    assert math.isfinite(stats["scenarios"]["a"]["percentiles_bps"]["50"])
    assert stats["ratio"]["mean"] == "nan"  # inf / inf
    assert stats["ratio"]["percentiles"]["50"] == 1.0


def test_a_negative_overflowing_mean_keeps_its_sign(tmp_path):
    path = write_results(tmp_path / "r" / "results.csv",
                         ["0,v,bs,1.0,1.0,-1e308,1,0,0", "1,v,bs,1.0,1.0,-1e308,1,0,0"])
    assert main(["analyze", path, "--out-dir", str(tmp_path / "o")]) == 0
    stats = strict_json(tmp_path / "o" / "stats.json")
    assert stats["scenarios"]["r"]["mean_rate_bps"] == "-inf"


def test_simulate_non_finite_trace_exits_3_naming_the_line(tmp_path, capsys):
    traces = tmp_path / "traces.csv"
    traces.write_text("vehicle_id,t,x,y,speed\nv1,0,0,0,1\nv1,1,nan,0,1\n", encoding="utf-8")
    (tmp_path / "stations.csv").write_text(STATIONS, encoding="utf-8")
    code = main([
        "simulate", "--traces", str(traces),
        "--stations", str(tmp_path / "stations.csv"), "--out-dir", str(tmp_path / "o"),
    ])
    assert code == 3
    assert "line 3" in capsys.readouterr().err


@pytest.mark.parametrize(
    "key", ["link.tx_power_dbm", "linkrate.rb_bandwidth_hz", "road.length"]
)
@pytest.mark.parametrize("value", ["nan", "inf", "-inf"])
def test_simulate_rejects_non_finite_config_float(tmp_path, capsys, key, value):
    traces = tmp_path / "traces.csv"
    traces.write_text("vehicle_id,t,x,y,speed\nv1,0,0,0,1\nv1,1,1,0,1\n", encoding="utf-8")
    (tmp_path / "stations.csv").write_text(STATIONS, encoding="utf-8")
    code = main([
        "simulate", "--traces", str(traces), "--stations", str(tmp_path / "stations.csv"),
        "--set", f"{key}={value}", "--out-dir", str(tmp_path / "o"),
    ])
    assert code == 2
    assert f"config key {key}: '{value}' is not a finite number" in capsys.readouterr().err
    assert not (tmp_path / "o").exists()


@pytest.mark.parametrize(
    "setting, message",
    [
        ("cvim.header_bytes=20000000000000000000", "cvim.header_bytes=20000000000000000000"),
        (f"cell.n_rb=1{'0' * 400}", "cell.n_rb is beyond the range of a float"),
    ],
)
def test_simulate_sizes_beyond_int64_or_float_exit_2(tmp_path, capsys, setting, message):
    traces = tmp_path / "traces.csv"
    traces.write_text("vehicle_id,t,x,y,speed\nv1,0,0,0,1\nv1,1,1,0,1\n", encoding="utf-8")
    (tmp_path / "stations.csv").write_text(STATIONS, encoding="utf-8")
    code = main([
        "simulate", "--traces", str(traces), "--stations", str(tmp_path / "stations.csv"),
        "--set", setting, "--out-dir", str(tmp_path / "o"),
    ])
    assert code == 2
    assert message in capsys.readouterr().err


def test_simulate_with_snr_beyond_double_range_saturates(tmp_path):
    # 10 ** (snr / 10) exceeds the largest double above about 3082 dB; the
    # efficiency then sits at eta_max.
    traces = tmp_path / "traces.csv"
    rows = [f"v{k},{t},{200.0 * k + 9.5 * t},0,{17.0 * k}" for k in range(4) for t in range(5)]
    traces.write_text("vehicle_id,t,x,y,speed\n" + "\n".join(rows) + "\n", encoding="utf-8")
    (tmp_path / "stations.csv").write_text(STATIONS, encoding="utf-8")
    code = main([
        "simulate", "--traces", str(traces), "--stations", str(tmp_path / "stations.csv"),
        "--set", "link.tx_power_dbm=5000", "--out-dir", str(tmp_path / "o"),
    ])
    assert code == 0
    speed = {(line.split(",")[0], line.split(",")[1]): float(line.split(",")[4]) for line in rows}
    lines = (tmp_path / "o" / "results.csv").read_text().splitlines()[1:]
    assert len(lines) == 20
    for line in lines:
        t, vid, _, snr_db, share, rate = line.split(",")[:6]
        assert float(snr_db) > 3083.0
        phi = 1.0 - 0.3 * min(speed[vid, t], 36.11) / 36.11
        assert float(rate) == float(share) * (5.55 * 180_000.0 * phi)


def test_simulate_rejects_comma_in_vehicle_id(tmp_path, capsys):
    # Unquoted in results.csv, such an id would split its row into 10 fields.
    traces = tmp_path / "traces.csv"
    traces.write_text('vehicle_id,t,x,y,speed\n"a,b",0,0,0,1\n', encoding="utf-8")
    (tmp_path / "stations.csv").write_text(STATIONS, encoding="utf-8")
    code = main([
        "simulate", "--traces", str(traces),
        "--stations", str(tmp_path / "stations.csv"), "--out-dir", str(tmp_path / "o"),
    ])
    assert code == 3
    assert "line 2" in capsys.readouterr().err
    assert not (tmp_path / "o" / "results.csv").exists()


INPUTS = {
    "run.cfg": "sim.seed = 3\n",
    "traces.csv": "vehicle_id,t,x,y,speed\nv1,0,0,0,1\nv1,1,1,0,1\n",
    "stations.csv": STATIONS,
    "results.csv": RESULTS_HEADER + "0,v1,bs0,1.0,1.0,5.0,1,0,0\n1,v1,bs0,1.0,1.0,5.0,1,0,0\n",
}
COMMANDS = {
    "gen-traces": ["gen-traces", "--config", "run.cfg", "--out", "out.csv"],
    "simulate": [
        "simulate", "--config", "run.cfg", "--traces", "traces.csv",
        "--stations", "stations.csv", "--out-dir", "out",
    ],
    "analyze": ["analyze", "results.csv", "--out-dir", "out"],
}


@pytest.mark.parametrize(
    "command, name, code, message",
    [
        ("simulate", "traces.csv", 3, "input error: traces.csv is not UTF-8 text: byte 0xff"),
        ("simulate", "stations.csv", 3, "input error: stations.csv is not UTF-8 text: byte 0xff"),
        ("analyze", "results.csv", 3, "input error: results.csv is not UTF-8 text: byte 0xff"),
        ("gen-traces", "run.cfg", 2, "configuration error: config file run.cfg is not UTF-8"),
        ("simulate", "run.cfg", 2, "configuration error: config file run.cfg is not UTF-8"),
    ],
)
def test_input_that_is_not_utf8(tmp_path, monkeypatch, capsys, command, name, code, message):
    monkeypatch.chdir(tmp_path)
    for path, text in INPUTS.items():
        (tmp_path / path).write_text(text, encoding="utf-8")
    data = (tmp_path / name).read_bytes()
    (tmp_path / name).write_bytes(data[:-8] + b"\xff" + data[-8:])  # in the last line
    assert main(COMMANDS[command]) == code
    assert capsys.readouterr().err.startswith(message)


def test_analyze_names_the_results_file_that_is_not_utf8(tmp_path, monkeypatch, capsys):
    monkeypatch.chdir(tmp_path)
    (tmp_path / "a.csv").write_text(INPUTS["results.csv"], encoding="utf-8")
    bad_row = b"2,v\xff,bs0,1.0,1.0,5.0,1,0,0\n"
    (tmp_path / "b.csv").write_bytes(INPUTS["results.csv"].encode() + bad_row)
    assert main(["analyze", "a.csv", "b.csv", "--out-dir", "out"]) == 3
    err = capsys.readouterr().err
    assert err == "input error: b.csv is not UTF-8 text: byte 0xff (invalid start byte)\n"


def test_big_trace_that_is_not_utf8_is_named_without_a_block_offset(
    tmp_path, monkeypatch, capsys
):
    monkeypatch.chdir(tmp_path)
    for path, text in INPUTS.items():
        (tmp_path / path).write_text(text, encoding="utf-8")
    lines = "".join(f"v{i},0,{i}.5,0,1\n" for i in range(20_000))
    data = ("vehicle_id,t,x,y,speed\n" + lines).encode() + b"w\xff,0,0,0,1\n"
    (tmp_path / "traces.csv").write_bytes(data)
    assert main(COMMANDS["simulate"]) == 3
    err = capsys.readouterr().err
    assert err == "input error: traces.csv is not UTF-8 text: byte 0xff (invalid start byte)\n"


@pytest.mark.parametrize(
    "command, name",
    [
        ("simulate", "traces.csv"),
        ("simulate", "stations.csv"),
        ("analyze", "results.csv"),
        ("gen-traces", "run.cfg"),
    ],
)
@pytest.mark.parametrize("missing", [False, True])
def test_input_that_is_a_directory_exits_3_like_a_missing_one(
    tmp_path, monkeypatch, capsys, command, name, missing
):
    monkeypatch.chdir(tmp_path)
    for path, text in INPUTS.items():
        if path != name:
            (tmp_path / path).write_text(text, encoding="utf-8")
    if not missing:
        (tmp_path / name).mkdir()
    assert main(COMMANDS[command]) == 3
    error = errno.ENOENT if missing else errno.EISDIR
    expected = f"file error: [Errno {error}] {os.strerror(error)}: '{name}'"
    assert capsys.readouterr().err.startswith(expected)


def _write_inputs(root, **replaced):
    for path, text in {**INPUTS, **replaced}.items():
        (root / path).write_text(text, encoding="utf-8")


@pytest.mark.parametrize(
    "command, name",
    [
        ("simulate", "traces.csv"),
        ("simulate", "stations.csv"),
        ("simulate", "run.cfg"),
        ("analyze", "results.csv"),
        ("gen-traces", "run.cfg"),
    ],
)
def test_input_path_through_a_file_exits_3(tmp_path, monkeypatch, capsys, command, name):
    monkeypatch.chdir(tmp_path)
    _write_inputs(tmp_path)
    argv = [f"{arg}/x" if arg == name else arg for arg in COMMANDS[command]]
    assert main(argv) == 3
    expected = f"file error: [Errno {errno.ENOTDIR}] {os.strerror(errno.ENOTDIR)}: '{name}/x'"
    assert capsys.readouterr().err.startswith(expected)


@pytest.mark.parametrize("command", ["simulate", "analyze"])
def test_out_dir_that_is_a_file_exits_3(tmp_path, monkeypatch, capsys, command):
    monkeypatch.chdir(tmp_path)
    _write_inputs(tmp_path, out="not a directory\n")
    assert main(COMMANDS[command]) == 3
    expected = f"file error: [Errno {errno.EEXIST}] {os.strerror(errno.EEXIST)}: 'out'"
    assert capsys.readouterr().err.startswith(expected)
    assert (tmp_path / "out").read_text(encoding="utf-8") == "not a directory\n"


def test_gen_traces_out_path_through_a_file_exits_3(tmp_path, monkeypatch, capsys):
    monkeypatch.chdir(tmp_path)
    _write_inputs(tmp_path)
    assert main(["gen-traces", "--config", "run.cfg", "--out", "run.cfg/out.csv"]) == 3
    assert capsys.readouterr().err.startswith(f"file error: [Errno {errno.ENOTDIR}]")


@pytest.mark.parametrize("stations", ["station_id,x,y\n", "station_id,x,y,antenna_gain\n\n\n"])
def test_station_file_without_stations_exits_3(tmp_path, monkeypatch, capsys, stations):
    monkeypatch.chdir(tmp_path)
    _write_inputs(tmp_path, **{"stations.csv": stations})
    assert main(COMMANDS["simulate"]) == 3
    assert capsys.readouterr().err == "input error: station CSV holds no stations\n"
    assert not (tmp_path / "out").exists()


@pytest.mark.parametrize(
    "name, message",
    [
        ("traces.csv", "trace CSV is empty (missing header)"),
        ("stations.csv", "station CSV is empty (missing header)"),
        ("results.csv", "results CSV is empty (missing header)"),
    ],
)
def test_an_empty_input_csv_exits_3(tmp_path, monkeypatch, capsys, name, message):
    monkeypatch.chdir(tmp_path)
    _write_inputs(tmp_path, **{name: ""})
    assert main(COMMANDS["analyze" if name == "results.csv" else "simulate"]) == 3
    assert capsys.readouterr().err == f"input error: {message}\n"
    if name == "results.csv":  # analyze makes its out-dir before it reads; it writes nothing
        assert list((tmp_path / "out").iterdir()) == []
    else:
        assert not (tmp_path / "out").exists()


@pytest.mark.parametrize(
    "override, message",
    [
        ("road.length", "override 'road.length': expected key=value"),
        ("cell.n_rb=-1", "cell.n_rb and cell.rb_limit must be non-negative"),
        ("cell.rb_limit=-1", "cell.n_rb and cell.rb_limit must be non-negative"),
        ("cvim.n_extra_channels=-1", "cvim.n_extra_channels must be non-negative"),
        ("road.duration=-1", "road.duration must be non-negative"),
    ],
)
def test_a_bad_override_exits_2_naming_its_rule(tmp_path, monkeypatch, capsys, override, message):
    monkeypatch.chdir(tmp_path)
    _write_inputs(tmp_path)
    assert main([*COMMANDS["gen-traces"], "--set", override]) == 2
    assert capsys.readouterr().err == f"configuration error: {message}\n"
    assert not (tmp_path / "out.csv").exists()


def test_an_unexpected_exception_exits_4(tmp_path, monkeypatch, capsys):
    monkeypatch.chdir(tmp_path)
    _write_inputs(tmp_path)

    def run(*args):
        raise RuntimeError("boom")

    monkeypatch.setattr(engine, "run", run)
    assert main(COMMANDS["simulate"]) == 4
    assert capsys.readouterr().err == "internal error: boom\n"
    assert not (tmp_path / "out").exists()


def test_an_unexpected_exception_without_a_message_is_named_by_its_type(
    tmp_path, monkeypatch, capsys
):
    monkeypatch.chdir(tmp_path)
    _write_inputs(tmp_path)

    def run(*args):
        raise MemoryError()

    monkeypatch.setattr(engine, "run", run)
    assert main(COMMANDS["simulate"]) == 4
    assert capsys.readouterr().err == "internal error: MemoryError\n"
    assert not (tmp_path / "out").exists()


def test_station_field_beyond_the_csv_field_limit_simulates(tmp_path, monkeypatch):
    monkeypatch.chdir(tmp_path)
    long_x = "0" * csv.field_size_limit() + "400"
    _write_inputs(tmp_path, **{"stations.csv": f"station_id,x,y\nbs0,{long_x},25\n"})
    assert main(COMMANDS["simulate"]) == 0
    assert (tmp_path / "out" / "results.csv").read_text().startswith(f"{RESULTS_HEADER}0,v1,bs0,")


@pytest.mark.parametrize(
    "traces, message",
    [
        ('vehicle_id,t,x,y,speed\nv1,0,0,0,1\n"v1",1,1,0,1\n',
         """line 3: vehicle_id '"v1"' contains a comma, quote or line break"""),
        ("vehicle_id, t, x, y, speed\nv1,0,0,0,1\n",
         "bad trace CSV header: 'vehicle_id, t, x, y, speed'"),
    ],
    ids=["quoted id", "padded header"],
)
def test_trace_with_a_quoted_id_or_a_padded_header_exits_3(tmp_path, monkeypatch, capsys, traces, message):
    monkeypatch.chdir(tmp_path)
    _write_inputs(tmp_path, **{"traces.csv": traces})
    assert main(COMMANDS["simulate"]) == 3
    assert capsys.readouterr().err == f"input error: {message}\n"
    assert not (tmp_path / "out").exists()


def test_trace_line_beyond_the_csv_field_limit_simulates(tmp_path, monkeypatch):
    monkeypatch.chdir(tmp_path)
    long_zero = "0." + "0" * csv.field_size_limit()
    _write_inputs(tmp_path, **{"traces.csv": f"vehicle_id,t,x,y,speed\nv1,0,{long_zero},0,1\n"})
    assert main(COMMANDS["simulate"]) == 0
    assert (tmp_path / "out" / "results.csv").read_text().startswith(f"{RESULTS_HEADER}0,v1,bs0,")


RING_CFG = """
road.topology = ring
road.length = 2000
road.inflow = 100
road.duration = 120
cell.rb_limit = 1
cvim.aggregate_ticks = 20
cvim.n_extra_channels = 4
sim.seed = 13
sim.scenario_label = ring
"""

# Two stations just outside the rim of the 2 km ring, on opposite sides.
RING_STATIONS = "station_id,x,y,antenna_gain,height\nrim0,345,0,15,10\nrim1,-345,0,15,10\n"

# SHA-256 of every file gen-traces, simulate and analyze write for the strip
# pair and the ring below.  On the ring, queues build and drain and packages
# span 20 ticks.  Taken from the row-object pipeline before the column table.
GOLDEN_PIPELINE_DIGESTS = {
    "free_flow/results.csv": "a2c73c6063e41c99a568a7bb05933029226fe0a37b67c89a283b0d2e0a137e9c",
    "free_flow/summary.json": "f0d0e28c30785dd4c57b4a5744fabf5608d83597d2c1dc6fd752f400585f92f2",
    "free_flow/traces.csv": "67f261828106bbe07a4d50381da3e8950739afb5be9df81058e8a23f3d37e236",
    "ring/results.csv": "11f7687bd73e9e55c46080981ad57cb8ae5965858a19834b9f1d8e113c0060f9",
    "ring/summary.json": "c9917f004d6d0f9e74849deaa0c94828accdbcff22040562387d707d52f4188b",
    "ring/traces.csv": "c3d413aef0e8cded9ee420ae30ae5fa903b6a892791305ec6297dfc2cbbbb7ba",
    "stats/cdf.csv": "35798542d40b4ad7c7d1455535a7a881078193b2ef92872e6b64ae9e2d59619f",
    "stats/cdf_ring.csv": "a9caabd101356037b4a32b8408420e5a1d8ca52d063584d6f13c9f75180ef5fd",
    "stats/cdf_traffic_jam.csv": "a14c8be6bd9cb09f445b089f5d481bc1c9672fde9d0b03e0472727fa9b157091",
    "stats/cell_packages.csv": "ba44f2f9565839e842493dbf2443843c885346ca74b26ff83a0a5fbc18b322a7",
    "stats/cell_packages_ring.csv": "cf80f6b10feb58a8c3b8c99deb831aff62b6a6b0755b16666656a33d11cfae29",
    "stats/cell_packages_traffic_jam.csv": "3f5e8081eb229ecba30c105695bb599bf2e265dbeafca9b4fdf91d49331cc949",
    "stats/stats.json": "0cc84bab5401b1971c6adc6b74a7abceb7ed7b030d3c6b42a8ef0e6d045d2ae3",
    "traffic_jam/results.csv": "b71c8c35eb6c84741b84fa7340cf27312572090fc24663bfed08981aaa57ef06",
    "traffic_jam/summary.json": "12ee4155dc92064ae983114d10ab7598a86c023d23077e179cc538f583311c79",
    "traffic_jam/traces.csv": "78ae8dbf07445fccabbab6b64589f20bf3898b955d7cff2a96761590817095ca",
}


def _run_golden_pipeline(root):
    (root / "ring.cfg").write_text(RING_CFG, encoding="utf-8")
    (root / "ring_stations.csv").write_text(RING_STATIONS, encoding="utf-8")
    scenarios = [
        ("free_flow", root / "free.cfg", root / "stations.csv"),
        ("traffic_jam", root / "jam.cfg", root / "stations.csv"),
        ("ring", root / "ring.cfg", root / "ring_stations.csv"),
    ]
    out = root / "out"
    for label, cfg, stations in scenarios:
        traces = out / label / "traces.csv"
        traces.parent.mkdir(parents=True)
        assert main(["gen-traces", "--config", str(cfg), "--out", str(traces)]) == 0
        assert main(["simulate", "--config", str(cfg), "--traces", str(traces),
                     "--stations", str(stations), "--out-dir", str(traces.parent)]) == 0
    analyze = ["analyze", *(str(out / label / "results.csv") for label, _, _ in scenarios)]
    for label, _, _ in scenarios:
        analyze += ["--label", label]
    assert main([*analyze, "--out-dir", str(out / "stats")]) == 0
    return {
        path.relative_to(out).as_posix(): hashlib.sha256(path.read_bytes()).hexdigest()
        for path in sorted(out.rglob("*"))
        if path.is_file()
    }


def test_pipeline_outputs_match_golden_digests(workspace):
    assert _run_golden_pipeline(workspace) == GOLDEN_PIPELINE_DIGESTS


BAD_CONFIG_VALUES = [
    ("cvim.owner", "abcdefghijklmnopq"),
    ("cvim.privacy_level", "x"),
    ("link.ue_height_m", "1"),
]


@pytest.mark.parametrize("key, value", BAD_CONFIG_VALUES)
@pytest.mark.parametrize("command", ["gen-traces", "simulate", "plan"])
def test_config_values_are_checked_when_the_config_is_read(
    workspace, monkeypatch, capsys, command, key, value
):
    monkeypatch.chdir(workspace)
    (workspace / "traces.csv").write_text(INPUTS["traces.csv"], encoding="utf-8")
    argv = {
        "gen-traces": ["gen-traces", "--out", "out.csv"],
        "simulate": ["simulate", "--traces", "traces.csv", "--stations", "stations.csv",
                     "--out-dir", "out"],
        "plan": ["plan", "--rate", "50000", "--snr", "20", "--speed", "0"],
    }[command]
    assert main([*argv, "--set", f"{key}={value}"]) == 2
    captured = capsys.readouterr()
    assert captured.err.startswith(f"configuration error: {key} must ")
    assert captured.out == ""
    assert not (workspace / "out.csv").exists() and not (workspace / "out").exists()


def test_a_lone_cr_in_a_trace_id_is_data_as_in_a_string(tmp_path, monkeypatch, capsys):
    # Input files end lines at LF only, so the CR stays inside the id.
    monkeypatch.chdir(tmp_path)
    _write_inputs(tmp_path, **{"traces.csv": "vehicle_id,t,x,y,speed\nv\r1,0,0,0,1\n"})
    assert main(COMMANDS["simulate"]) == 3
    assert capsys.readouterr().err == (
        "input error: line 2: vehicle_id 'v\\r1' contains a comma, quote or line break\n"
    )


def test_a_lone_cr_beside_a_trace_number_is_read(tmp_path, monkeypatch):
    monkeypatch.chdir(tmp_path)
    clean = "vehicle_id,t,x,y,speed\nv1,0,0,0,1\nv1,1,1,0,1\n"
    _write_inputs(tmp_path, **{"traces.csv": clean})
    assert main(COMMANDS["simulate"]) == 0
    expected = (tmp_path / "out" / "results.csv").read_bytes()
    _write_inputs(tmp_path, **{"traces.csv": "vehicle_id,t,x,y,speed\nv1,0,0\r,0,1\nv1,1,\r1,0,1\r\n"})
    assert main(COMMANDS["simulate"]) == 0
    assert (tmp_path / "out" / "results.csv").read_bytes() == expected


def test_a_later_bad_trace_line_is_numbered_by_its_lfs(tmp_path, monkeypatch, capsys):
    monkeypatch.chdir(tmp_path)
    _write_inputs(tmp_path, **{"traces.csv": "vehicle_id,t,x,y,speed\nv1,0,0,0,1\r\r\nv1,1,nan,0,1\n"})
    assert main(COMMANDS["simulate"]) == 3
    assert capsys.readouterr().err == "input error: line 3: non-finite x, y or speed\n"
