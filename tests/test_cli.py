import json

import pytest

from car2cloud.cli import main

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


def test_seed_flag_overrides(workspace):
    out_a = workspace / "a.csv"
    out_b = workspace / "b.csv"
    main(["gen-traces", "--config", str(workspace / "free.cfg"), "--seed", "99",
          "--out", str(out_a)])
    main(["gen-traces", "--config", str(workspace / "free.cfg"),
          "--set", "sim.seed=99", "--out", str(out_b)])
    assert out_a.read_text() == out_b.read_text()


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
