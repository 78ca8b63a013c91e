"""Acceptance suite: one test per criterion, each printing a PASS/FAIL line.

The shared scenario is a 10 km single-lane strip with 5 equally spaced
roadside stations, default (highway measurement) parameters, 600 s runs at
1000 veh/h (free flow) and 4000 veh/h (jam) with a shared seed, plus 10-RB
reruns of both on identical traces and a 1-RB integer-mode rerun of the jam,
where queues build.  Run with ``pytest -s`` to see the per-criterion lines.
"""

import math
import random
import time
from dataclasses import dataclass

import numpy as np
import pytest

from car2cloud import analysis, cli, cvim, engine, linkrate, mobility, radio, scheduler
from speed_histogram import speed_distribution

SEED = 42
STATIONS = [radio.BaseStation(f"bs{i}", 1000.0 + 2000.0 * i, 25.0) for i in range(5)]
PKG_BYTES = 112  # 64 B header + 3 channel records


def report(name: str, ok: bool, detail: str = "") -> None:
    line = f"ACCEPTANCE {name}: {'PASS' if ok else 'FAIL'}"
    if detail:
        line += f" ({detail})"
    print(line)
    assert ok, line


@dataclass
class Scenario:
    label: str
    traces: mobility.TraceTable
    results_100: engine.TickTable
    results_10: engine.TickTable
    positions: dict  # (vehicle_id, t) -> (x, y, speed)


@pytest.fixture(scope="session")
def runs():
    out = {}
    start = time.perf_counter()
    for label, inflow in (("free_flow", 1000.0), ("traffic_jam", 4000.0)):
        road = mobility.RoadSpec("strip", 10_000.0, inflow, 600, seed=SEED)
        traces = mobility.generate_traces(road)
        cfg = engine.SimConfig(road=road, seed=SEED, scenario_label=label)
        results_100 = engine.run(cfg, traces, STATIONS)
        results_10 = engine.run(
            engine.SimConfig(road=road, seed=SEED, scenario_label=label, n_rb=10),
            traces,
            STATIONS,
        )
        positions = {
            (vid, t): (x, y, speed)
            for vid, t, x, y, speed in zip(
                traces.vehicle_id.ids().tolist(),
                traces.t.tolist(),
                traces.x.tolist(),
                traces.y.tolist(),
                traces.speed.tolist(),
            )
        }
        out[label] = Scenario(label, traces, results_100, results_10, positions)
    out["elapsed"] = time.perf_counter() - start
    return out


def mean_rate(results) -> float:
    return sum(results.rate_bps.tolist()) / len(results)


def test_scenario_ordering(runs):
    free = mean_rate(runs["free_flow"].results_100)
    jam = mean_rate(runs["traffic_jam"].results_100)
    ratio = free / jam
    elapsed = runs["elapsed"]
    detail = f"ratio {ratio:.2f} needs >= 3.0; runtime {elapsed:.1f}s"
    report("scenario-ordering", ratio >= 3.0 and elapsed < 60.0, detail)


def test_generation_residence_identity(runs):
    identity_ok = True
    for scenario in (runs["free_flow"], runs["traffic_jam"]):
        results = scenario.results_100
        per_vehicle = {}
        for row in zip(results.vehicle_id.ids().tolist(), results.t.tolist(),
                       results.serving_station.ids().tolist(),
                       results.packages_generated.tolist()):
            per_vehicle.setdefault(row[0], []).append(row[1:])
        for rows in per_vehicle.values():
            rows.sort(key=lambda r: r[0])
            station, ticks, generated = None, 0, 0
            prev_t = None
            spans = []
            for t, sid, packages in rows:
                contiguous = prev_t is not None and t == prev_t + 1
                if sid == station and contiguous:
                    ticks += 1
                    generated += packages
                else:
                    if station is not None:
                        spans.append((ticks, generated))
                    station, ticks, generated = sid, 1, packages
                prev_t = t
            spans.append((ticks, generated))
            identity_ok &= all(t == g for t, g in spans)
    per_cell_free = cvim.count_packages_per_cell(runs["free_flow"].results_100)
    per_cell_jam = cvim.count_packages_per_cell(runs["traffic_jam"].results_100)
    jam_mean = sum(per_cell_jam.values()) / len(per_cell_jam)
    free_mean = sum(per_cell_free.values()) / len(per_cell_free)
    report(
        "generation-residence",
        identity_ok and jam_mean > free_mean,
        f"identity {'exact' if identity_ok else 'broken'}; "
        f"packages/cell jam {jam_mean:.1f} vs free {free_mean:.1f}",
    )


def test_linear_rb_scaling(runs):
    worst = 0.0
    for scenario in (runs["free_flow"], runs["traffic_jam"]):
        full, tenth = scenario.results_100, scenario.results_10
        assert len(full) == len(tenth)
        assert full.t.tolist() == tenth.t.tolist()
        assert full.vehicle_id.ids().tolist() == tenth.vehicle_id.ids().tolist()
        for rate_full, rate_tenth in zip(full.rate_bps.tolist(), tenth.rate_bps.tolist()):
            expected = 0.1 * rate_full
            if expected == 0.0:
                worst = max(worst, abs(rate_tenth))
            else:
                worst = max(worst, abs(rate_tenth - expected) / expected)
    report("linear-rb-scaling", worst <= 1e-9, f"max relative error {worst:.2e}")


def _p5(rates) -> float:
    return analysis.percentile(sorted(rates), 5)


def test_limited_rb_percentiles(runs):
    station_xy = {s.station_id: (s.x, s.y) for s in STATIONS}
    p5 = {}
    p5_near = {}
    for label in ("free_flow", "traffic_jam"):
        scenario = runs[label]
        results = scenario.results_10
        p5[label] = _p5(results.rate_bps.tolist())
        near = []
        for vid, t, sid, rate in zip(results.vehicle_id.ids().tolist(), results.t.tolist(),
                                     results.serving_station.ids().tolist(),
                                     results.rate_bps.tolist()):
            x, y, _ = scenario.positions[(vid, t)]
            sx, sy = station_xy[sid]
            if math.hypot(x - sx, y - sy) < 500.0:
                near.append(rate)
        p5_near[label] = _p5(near)
    ok = (
        p5["traffic_jam"] < p5["free_flow"]
        and p5_near["traffic_jam"] > 0.0
        and p5_near["free_flow"] > 0.0
    )
    report(
        "limited-rb-percentiles",
        ok,
        f"p5 jam {p5['traffic_jam']:.0f} < free {p5['free_flow']:.0f} bit/s; "
        f"near-station p5 jam {p5_near['traffic_jam']:.0f}, "
        f"free {p5_near['free_flow']:.0f}",
    )


def test_link_budget_oracle():
    cfg = radio.LinkBudgetConfig()
    station = radio.BaseStation("o", 0.0, 0.0)
    snr = radio.link_snrs(np.array([[100.0, 0.0]]), np.zeros(1, np.int64), [station], cfg).item()
    d_bp = radio.breakpoint_distance(cfg, 10.0)
    ok = abs(snr - 55.474) <= 0.001 and abs(d_bp - 108.0) <= 0.1
    report(
        "link-budget-oracle",
        ok,
        f"snr(100m) {snr:.4f} dB, breakpoint {d_bp:.2f} m",
    )


def test_scheduler_properties():
    def deal(k, n_rb, offset):
        counts = [0] * k
        for i in range(n_rb):
            counts[(offset + i) % k] += 1
        return counts

    ok = True
    for k in range(1, 21):
        cell = scheduler.CellTickState("c", 0, tuple(f"v{i:02d}" for i in range(k)))
        frac = scheduler.rr_allocate(cell, 100, "fractional")
        ok &= abs(sum(frac.shares.values()) - 100.0) < 1e-9
        ok &= len(set(frac.shares.values())) == 1
        for offset in range(k):
            integer = scheduler.rr_allocate(cell, 100, "integer", offset)
            shares = [integer.shares[v] for v in cell.attached]
            ok &= shares == [float(c) for c in deal(k, 100, offset)]
            ok &= sum(shares) == 100
            ok &= max(shares) - min(shares) <= 1
        totals = {v: 0.0 for v in cell.attached}
        for tick in range(k):
            allocation = scheduler.rr_allocate(cell, 100, "integer", tick)
            for v, share in allocation.shares.items():
                totals[v] += share
        ok &= len(set(totals.values())) == 1
        # rr_shares, which engine.run calls: one cell of k vehicles at ticks
        # 0..k-1, so every rotation offset occurs.
        ticks = np.repeat(np.arange(k), k)
        cells = np.zeros(k * k, dtype=np.int64)
        frac = scheduler.rr_shares(ticks, cells, 100, "fractional")
        ok &= abs(sum(frac[:k].tolist()) - 100.0) < 1e-9
        ok &= len(set(frac.tolist())) == 1
        integer = scheduler.rr_shares(ticks, cells, 100, "integer").reshape(k, k)
        for offset in range(k):
            ok &= integer[offset].tolist() == [float(c) for c in deal(k, 100, offset)]
    detail = "rr_allocate and rr_shares, cell sizes 1..20 vs dealing oracle"
    report("scheduler-properties", ok, detail)


def test_rb_rate_properties():
    params = linkrate.RbRateParams()
    rng = random.Random(SEED)
    bound = params.eta_max * params.rb_bandwidth_hz
    ok = True
    for _ in range(10_000):
        snr = rng.uniform(-30.0, 60.0)
        speed = rng.uniform(0.0, 70.0)
        rate = linkrate.rb_rate(snr, speed, params)
        ok &= 0.0 <= rate <= bound + 1e-9
        ok &= linkrate.rb_rate(snr + rng.uniform(0.0, 25.0), speed, params) >= rate
        ok &= linkrate.rb_rate(snr, speed + rng.uniform(0.0, 25.0), params) <= rate
    report("rb-rate-properties", ok, "10^4 random (snr, speed) pairs")


def test_queue_and_plan_invariants(runs):
    ok = True
    # One RB per cell, dealt whole: the jam's queues build here, which they
    # never do at 100 or 10 RB.
    jam = runs["traffic_jam"]
    backlog = engine.run(
        engine.SimConfig(seed=SEED, n_rb=1, scheduler_mode="integer"), jam.traces, STATIONS
    )
    queued_rows = int(np.count_nonzero(backlog.queue_bytes))
    ok &= queued_rows > 0
    for results in (runs["free_flow"].results_100, jam.results_100, backlog):
        cum_generated = {}
        cum_sent_bytes = {}
        rows = sorted(zip(
            results.vehicle_id.ids().tolist(), results.t.tolist(),
            results.packages_generated.tolist(),
            results.bits_sent.tolist(), results.rate_bps.tolist(), results.queue_bytes.tolist(),
        ))
        for vid, _, generated, bits_sent, rate, queue_bytes in rows:
            cum_generated[vid] = cum_generated.get(vid, 0) + generated
            ok &= bits_sent % (PKG_BYTES * 8) == 0  # whole packages only
            ok &= bits_sent <= rate + 1e-6          # within tick capacity
            cum_sent_bytes[vid] = cum_sent_bytes.get(vid, 0) + bits_sent // 8
            expected_queue = cum_generated[vid] * PKG_BYTES - cum_sent_bytes[vid]
            ok &= queue_bytes == expected_queue
    params = linkrate.RbRateParams()
    rng = random.Random(SEED + 1)
    checked = 0
    while checked < 1000:
        snr = rng.uniform(-9.5, 45.0)
        speed = rng.uniform(0.0, 50.0)
        demand = rng.uniform(1.0, 3e7)
        per_rb = linkrate.rb_rate(snr, speed, params)
        if per_rb <= 0.0:
            continue
        plan = analysis.plan_rb(demand, snr, speed, params)
        ok &= plan.rb_needed * per_rb >= demand
        checked += 1
    detail = f"conservation, atomicity, {queued_rows} queued rows at 1 RB, 10^3 plans"
    report("queue-and-plan-invariants", ok, detail)


def test_pipeline_determinism(tmp_path):
    cfg_text = (
        "road.length = 3000\nroad.inflow = 2500\nroad.duration = 150\n"
        "sim.seed = 7\nsim.scenario_label = determinism\n"
    )
    cfg_path = tmp_path / "run.cfg"
    cfg_path.write_text(cfg_text, encoding="utf-8")
    stations_path = tmp_path / "stations.csv"
    stations_path.write_text(
        "station_id,x,y\nbs0,750,25\nbs1,2250,25\n", encoding="utf-8"
    )
    outputs = []
    for attempt in ("one", "two"):
        base = tmp_path / attempt
        base.mkdir()
        traces = base / "traces.csv"
        assert cli.main(["gen-traces", "--config", str(cfg_path), "--out", str(traces)]) == 0
        assert cli.main([
            "simulate", "--config", str(cfg_path), "--traces", str(traces),
            "--stations", str(stations_path), "--out-dir", str(base / "sim"),
        ]) == 0
        assert cli.main([
            "analyze", str(base / "sim" / "results.csv"), "--out-dir", str(base / "stats"),
        ]) == 0
        outputs.append({
            "results.csv": (base / "sim" / "results.csv").read_bytes(),
            "stats.json": (base / "stats" / "stats.json").read_bytes(),
            "cdf.csv": (base / "stats" / "cdf.csv").read_bytes(),
        })
    ok = all(outputs[0][name] == outputs[1][name] for name in outputs[0])
    report("pipeline-determinism", ok, "results.csv, stats.json, cdf.csv byte-identical")


def test_mobility_safety(runs):
    params = mobility.KraussParams()
    collisions = 0
    for scenario in (runs["free_flow"], runs["traffic_jam"]):
        by_tick = {}
        for t, x in zip(scenario.traces.t.tolist(), scenario.traces.x.tolist()):
            by_tick.setdefault(t, []).append(x)
        for positions in by_tick.values():
            positions.sort()
            for rear, front in zip(positions, positions[1:]):
                if rear + params.min_gap > front - params.veh_length + 1e-9:
                    collisions += 1
    hist_free = speed_distribution(runs["free_flow"].traces, 2.0)
    hist_jam = speed_distribution(runs["traffic_jam"].traces, 2.0)

    def mass_below(hist, threshold):
        return sum(p for edge, p in hist.items() if edge < threshold)

    def hist_mean(hist):
        return sum(edge * p for edge, p in hist.items())

    threshold = 30.0
    ordering = (
        mass_below(hist_jam, threshold) > mass_below(hist_free, threshold)
        and hist_mean(hist_jam) < hist_mean(hist_free)
    )
    report(
        "mobility-safety",
        collisions == 0 and ordering,
        f"collisions {collisions}; jam mass below {threshold} m/s "
        f"{mass_below(hist_jam, threshold):.2f} vs free "
        f"{mass_below(hist_free, threshold):.2f}",
    )
