"""Benchmark workloads: the pipeline commands each one runs, in README order.

A workload is a list of scenarios that share one station layout.  Every
scenario is generated (`gen-traces`), simulated (`simulate`) and finally all
of them are analysed together (`analyze`).  The seed goes to the program's
own trace generator; station CSVs and extra config files are written by the
benchmark, so the program only ever sees files.
"""

from __future__ import annotations

import math
from dataclasses import dataclass
from pathlib import Path

DEFAULT_SEED = 42  # the seed in configs/*.cfg, for which reference digests exist

# Self-test size: applied to gen-traces and simulate of every workload.
TINY_OVERRIDES = ["road.duration=60"]

RING_CONFIG = """\
# 500 vehicles on a 10 km ring, one resource block per cell, 20 s packages
road.topology = ring
road.length = 10000
road.inflow = 500
road.duration = 600
cell.rb_limit = 1
cvim.aggregate_ticks = 20
sim.scenario_label = ring_backlog
"""


@dataclass(frozen=True)
class Scenario:
    """One gen-traces + simulate pair; creates its own work directory."""

    label: str
    config: Path
    work: Path  # holds traces.csv and the simulate outputs

    def __post_init__(self) -> None:
        self.work.mkdir(parents=True, exist_ok=True)

    @property
    def traces(self) -> Path:
        return self.work / "traces.csv"

    @property
    def results(self) -> Path:
        return self.work / "results.csv"

    @property
    def summary(self) -> Path:
        return self.work / "summary.json"


@dataclass(frozen=True)
class Plan:
    """Everything one pipeline pass of a workload runs and writes."""

    scenarios: list[Scenario]
    stations: Path
    n_stations: int
    stats_dir: Path
    overrides: list[str]

    @property
    def stats(self) -> Path:
        return self.stats_dir / "stats.json"

    def commands(self, seed: int) -> list[list[str]]:
        """cli.main argument lists: all gen-traces, all simulate, one analyze."""
        common = ["--seed", str(seed)]
        for item in self.overrides:
            common += ["--set", item]
        gen = [
            ["gen-traces", "--config", str(s.config), *common, "--out", str(s.traces)]
            for s in self.scenarios
        ]
        sim = [
            ["simulate", "--config", str(s.config), *common, "--traces", str(s.traces),
             "--stations", str(self.stations), "--out-dir", str(s.work)]
            for s in self.scenarios
        ]
        analyze = ["analyze", *(str(s.results) for s in self.scenarios)]
        for s in self.scenarios:
            analyze += ["--label", s.label]
        analyze += ["--out-dir", str(self.stats_dir)]
        return gen + sim + [analyze]


def _write_stations(path: Path, positions: list[tuple[float, float]]) -> Path:
    width = len(str(len(positions) - 1))
    lines = ["station_id,x,y,antenna_gain,height"]
    lines += [f"bs{i:0{width}d},{x!r},{y!r},15,10" for i, (x, y) in enumerate(positions)]
    path.write_text("\n".join(lines) + "\n", encoding="utf-8")
    return path


def paper_pair(root: Path, work: Path, tiny: bool) -> Plan:
    """The README pipeline: free flow and jam on the 10 km strip, 5 stations."""
    scenarios = [
        Scenario("free_flow", root / "configs" / "free_flow.cfg", work / "free_flow"),
        Scenario("traffic_jam", root / "configs" / "traffic_jam.cfg", work / "traffic_jam"),
    ]
    return Plan(scenarios, root / "configs" / "stations_10km.csv", 5, work / "stats",
                TINY_OVERRIDES if tiny else [])


def urban_dense(root: Path, work: Path, tiny: bool) -> Plan:
    """The jam traffic under a 20-station, 500 m urban-micro grid."""
    grid = [(250.0 + 500.0 * i, 25.0) for i in range(20)]
    stations = _write_stations(work / "stations.csv", grid)
    scenarios = [Scenario("traffic_jam", root / "configs" / "traffic_jam.cfg", work / "traffic_jam")]
    return Plan(scenarios, stations, len(grid), work / "stats", TINY_OVERRIDES if tiny else [])


def ring_backlog(root: Path, work: Path, tiny: bool) -> Plan:
    """500 vehicles on a 10 km ring with 5 rim stations and 1 RB per cell.

    Queues build and drain only here; with fewer than 5 stations no
    aggregated package ever fits into one tick's capacity.
    """
    config = work / "ring_backlog.cfg"
    config.write_text(RING_CONFIG, encoding="utf-8")
    radius = 10_000.0 / (2.0 * math.pi) + 25.0
    rim = [
        (radius * math.cos(2.0 * math.pi * k / 5), radius * math.sin(2.0 * math.pi * k / 5))
        for k in range(5)
    ]
    stations = _write_stations(work / "stations.csv", rim)
    overrides = TINY_OVERRIDES + ["road.inflow=50"] if tiny else []
    return Plan([Scenario("ring_backlog", config, work / "ring_backlog")], stations,
                len(rim), work / "stats", overrides)


WORKLOADS = {
    "paper_pair": paper_pair,
    "urban_dense": urban_dense,
    "ring_backlog": ring_backlog,
}
