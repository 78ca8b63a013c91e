"""Per-second simulation loop and its file interfaces.

Each tick: vehicles present in the traces are associated to their best-SNR
station (a numpy screen over all present vehicles, exact scalar SNR for
the winner), every cell splits its resource blocks Round-Robin, each
vehicle's rate follows from its share and the rate model, one CVIM package
is generated (or buffered, in aggregate mode) and the transmit queue drains
against the tick's capacity.  Queues hold package sizes only; no output
reads package contents.  The loop is strictly sequential over ticks, so
queue state is causal, and all outputs are byte-identical across runs with
equal inputs.

Config files are flat ``section.key = value`` text; unknown keys are
rejected outright so typos cannot silently fall back to defaults.
"""

from __future__ import annotations

import json
from dataclasses import dataclass, field, fields, replace
from pathlib import Path
from typing import IO, Iterable, Sequence

import numpy as np

from . import cvim, scheduler
from .cvim import PackagingConfig, TransmitQueue
from .errors import ConfigError, ParseError, ValidationError
from .linkrate import RateModel, RbRateParams, model_from_params
from .mobility import KraussParams, RoadSpec, TraceSample, VehicleTrace
from .radio import BaseStation, LinkBudgetConfig, best_link, screen_links, snr

RESULTS_CSV_HEADER = (
    "t,vehicle_id,serving_station,snr_db,rb_share,rate_bps,"
    "packages_generated,bits_sent,queue_bytes"
)


@dataclass(frozen=True)
class TickResult:
    """One vehicle's communication outcome in one second."""

    t: int
    vehicle_id: str
    serving_station: str
    snr_db: float
    rb_share: float
    rate_bps: float
    packages_generated: int
    bits_sent: int
    queue_bytes: int


@dataclass(frozen=True)
class SimConfig:
    """Every parameter group of one simulation run."""

    road: RoadSpec = field(default_factory=RoadSpec)
    krauss: KraussParams = field(default_factory=KraussParams)
    link: LinkBudgetConfig = field(default_factory=LinkBudgetConfig)
    rate: RbRateParams = field(default_factory=RbRateParams)
    packaging: PackagingConfig = field(default_factory=PackagingConfig)
    n_rb: int = 100
    rb_limit: int = 0          # 0 means no override of n_rb
    scheduler_mode: str = "fractional"
    tick: int = 1
    seed: int = 1
    scenario_label: str = "default"

    def __post_init__(self) -> None:
        if self.tick != 1:
            raise ConfigError("sim.tick is fixed at 1 second")
        if self.n_rb < 0 or self.rb_limit < 0:
            raise ConfigError("cell.n_rb and cell.rb_limit must be non-negative")
        if self.scheduler_mode not in scheduler.MODES:
            raise ConfigError(
                f"scheduler.mode must be one of {scheduler.MODES}, "
                f"got {self.scheduler_mode!r}"
            )

    @property
    def effective_n_rb(self) -> int:
        return self.rb_limit if self.rb_limit > 0 else self.n_rb

    def road_spec(self) -> RoadSpec:
        """Road geometry with the run seed applied."""
        return replace(self.road, seed=self.seed)


# Flat config registry: dotted key -> (group attr, field name, type name).
def _registry() -> dict[str, tuple[str, str, str]]:
    reg: dict[str, tuple[str, str, str]] = {}
    groups = {
        "road": RoadSpec,
        "krauss": KraussParams,
        "link": LinkBudgetConfig,
        "linkrate": RbRateParams,
        "cvim": PackagingConfig,
    }
    attr_of = {
        "road": "road",
        "krauss": "krauss",
        "link": "link",
        "linkrate": "rate",
        "cvim": "packaging",
    }
    for section, cls in groups.items():
        for f in fields(cls):
            if section == "road" and f.name == "seed":
                continue  # the run seed is sim.seed
            reg[f"{section}.{f.name}"] = (attr_of[section], f.name, f.type)
    reg["cell.n_rb"] = ("", "n_rb", "int")
    reg["cell.rb_limit"] = ("", "rb_limit", "int")
    reg["scheduler.mode"] = ("", "scheduler_mode", "str")
    reg["sim.tick"] = ("", "tick", "int")
    reg["sim.seed"] = ("", "seed", "int")
    reg["sim.scenario_label"] = ("", "scenario_label", "str")
    return reg


_CONFIG_KEYS = _registry()


def _cast(key: str, raw: str, type_name: str):
    type_name = str(type_name)
    try:
        if "int" in type_name:
            return int(raw)
        if "float" in type_name:
            return float(raw)
    except ValueError:
        raise ConfigError(f"config key {key}: cannot parse {raw!r}") from None
    return raw


def parse_config_text(text: str, overrides: Sequence[str] = ()) -> SimConfig:
    """Build a SimConfig from flat config text plus ``key=value`` overrides."""
    values: dict[str, str] = {}
    for lineno, line in enumerate(text.splitlines(), start=1):
        stripped = line.strip()
        if not stripped or stripped.startswith("#"):
            continue
        # Inline comments start at ' #' so values themselves may contain '#'.
        body = stripped.split(" #", 1)[0].strip()
        if "=" not in body:
            raise ConfigError(f"config line {lineno}: expected key = value")
        key, raw = (part.strip() for part in body.split("=", 1))
        values[key] = raw
    for override in overrides:
        if "=" not in override:
            raise ConfigError(f"override {override!r}: expected key=value")
        key, raw = (part.strip() for part in override.split("=", 1))
        values[key] = raw
    return build_config(values)


def build_config(values: dict[str, str]) -> SimConfig:
    group_kwargs: dict[str, dict] = {"road": {}, "krauss": {}, "link": {}, "rate": {}, "packaging": {}}
    top_kwargs: dict = {}
    for key, raw in values.items():
        if key not in _CONFIG_KEYS:
            raise ConfigError(f"unknown config key: {key}")
        attr, field_name, type_name = _CONFIG_KEYS[key]
        value = _cast(key, raw, type_name)
        if attr:
            group_kwargs[attr][field_name] = value
        else:
            top_kwargs[field_name] = value
    return SimConfig(
        road=RoadSpec(**group_kwargs["road"]),
        krauss=KraussParams(**group_kwargs["krauss"]),
        link=LinkBudgetConfig(**group_kwargs["link"]),
        rate=RbRateParams(**group_kwargs["rate"]),
        packaging=PackagingConfig(**group_kwargs["packaging"]),
        **top_kwargs,
    )


def load_config(path: str | Path, overrides: Sequence[str] = ()) -> SimConfig:
    return parse_config_text(Path(path).read_text(encoding="utf-8"), overrides)


def config_echo(config: SimConfig) -> dict[str, str]:
    """Flat key -> value view of a config, as written in config files."""
    echo = {}
    for key, (attr, field_name, _) in sorted(_CONFIG_KEYS.items()):
        obj = getattr(config, attr) if attr else config
        value = getattr(obj, field_name)
        echo[key] = repr(value) if isinstance(value, float) else str(value)
    return echo


def run(
    config: SimConfig,
    traces: Iterable[VehicleTrace],
    stations: Sequence[BaseStation],
    rate_model: RateModel | None = None,
) -> list[TickResult]:
    """Execute the tick loop over all traces; rows ordered by (t, vehicle_id)."""
    stations = sorted(stations, key=lambda s: str(s.station_id))
    if not stations:
        raise ConfigError("simulation needs at least one base station")
    model = rate_model or model_from_params(config.rate)
    pkg_cfg = config.packaging
    # Package metadata is checked here once, as no package object is built.
    cvim.PackageMeta(owner=pkg_cfg.owner, privacy_level=pkg_cfg.privacy_level)
    n_rb = config.effective_n_rb
    mode = config.scheduler_mode

    samples_by_tick: dict[int, list[TraceSample]] = {}
    last_tick: dict[str, int] = {}
    for trace in traces:
        for s in trace.samples:
            samples_by_tick.setdefault(s.t, []).append(s)
            last = last_tick.get(s.vehicle_id)
            if last is None or s.t > last:
                last_tick[s.vehicle_id] = s.t

    # Queues hold package sizes: a package carries the records of the ticks
    # buffered since the vehicle's last flush (one tick unless aggregating).
    queues: dict[str, TransmitQueue] = {}
    buffered: dict[str, int] = {}
    window = pkg_cfg.aggregate_ticks
    results: list[TickResult] = []

    for t in sorted(samples_by_tick):
        present = sorted(samples_by_tick[t], key=lambda s: s.vehicle_id)
        state = np.array([(s.x, s.y, s.speed) for s in present])
        finite = np.isfinite(state).all(axis=1)
        if not finite.all():
            bad = present[int(np.argmin(finite))]
            raise ValidationError(
                f"vehicle {bad.vehicle_id!r} at t={t}: non-finite position or speed"
            )
        winners, unsure = screen_links(state[:, :2], stations, config.link)
        links: list[tuple[str, float]] = []
        cells: dict[str, list[str]] = {}
        for s, winner, needs_scalar in zip(present, winners.tolist(), unsure.tolist()):
            if needs_scalar:
                station, link = best_link((s.x, s.y), stations, config.link)
            else:
                station = stations[winner]
                link = snr((s.x, s.y), station, config.link)
            links.append((station.station_id, link.snr))
            cells.setdefault(station.station_id, []).append(s.vehicle_id)
        shares: dict[str, float] = {}
        for sid in sorted(cells):
            cell = scheduler.CellTickState(sid, t, tuple(cells[sid]))
            allocation = scheduler.rr_allocate(cell, n_rb, mode, rotation_offset=t)
            shares.update(allocation.shares)
        for s, (sid, snr_db) in zip(present, links):
            vid = s.vehicle_id
            share = shares[vid]
            rate = scheduler.vehicle_rate(share, snr_db, s.speed, model)
            queue = queues.get(vid)
            if queue is None:
                queue = queues[vid] = TransmitQueue(vid)
            ticks = buffered.pop(vid, 0) + 1
            if (t + 1) % window == 0 or t == last_tick[vid]:
                queue.push_size(pkg_cfg.payload_bytes(pkg_cfg.records_per_tick * ticks))
                generated = 1
            else:
                buffered[vid] = ticks
                generated = 0
            capacity = int(rate * config.tick)
            _, remaining = cvim.try_transmit(queue, capacity)
            results.append(
                TickResult(
                    t=t,
                    vehicle_id=vid,
                    serving_station=sid,
                    snr_db=snr_db,
                    rb_share=share,
                    rate_bps=rate,
                    packages_generated=generated,
                    bits_sent=capacity - remaining,
                    queue_bytes=queue.queued_bytes,
                )
            )
    return results


def write_results_csv(results: Iterable[TickResult], stream: IO[str]) -> None:
    stream.write(RESULTS_CSV_HEADER + "\n")
    for r in results:
        stream.write(
            f"{r.t},{r.vehicle_id},{r.serving_station},{r.snr_db!r},"
            f"{r.rb_share!r},{r.rate_bps!r},{r.packages_generated},"
            f"{r.bits_sent},{r.queue_bytes}\n"
        )


def read_results_csv(stream: IO[str]) -> list[TickResult]:
    header = stream.readline().rstrip("\n")
    if header != RESULTS_CSV_HEADER:
        raise ParseError(f"bad results header: {header!r}")
    results = []
    for lineno, line in enumerate(stream, start=2):
        line = line.rstrip("\n")
        if not line:
            continue
        parts = line.split(",")
        if len(parts) != 9:
            raise ParseError(f"line {lineno}: expected 9 fields, got {len(parts)}")
        try:
            results.append(
                TickResult(
                    t=int(parts[0]),
                    vehicle_id=parts[1],
                    serving_station=parts[2],
                    snr_db=float(parts[3]),
                    rb_share=float(parts[4]),
                    rate_bps=float(parts[5]),
                    packages_generated=int(parts[6]),
                    bits_sent=int(parts[7]),
                    queue_bytes=int(parts[8]),
                )
            )
        except ValueError as exc:
            raise ParseError(f"line {lineno}: {exc}") from None
    return results


def undelivered_bytes(results: Sequence[TickResult]) -> dict[str, int]:
    """Bytes still queued at each vehicle's final tick (departed unsent)."""
    final: dict[str, TickResult] = {}
    for r in results:
        cur = final.get(r.vehicle_id)
        if cur is None or r.t > cur.t:
            final[r.vehicle_id] = r
    return {
        vid: final[vid].queue_bytes for vid in sorted(final) if final[vid].queue_bytes
    }


def summarize(config: SimConfig, results: Sequence[TickResult]) -> dict:
    """Run metadata, config echo and aggregate statistics for summary.json."""
    vehicles = sorted({r.vehicle_id for r in results})
    ticks = sorted({r.t for r in results})
    total_bits = sum(r.bits_sent for r in results)
    total_packages = sum(r.packages_generated for r in results)
    mean_rate = (
        sum(r.rate_bps for r in results) / len(results) if results else 0.0
    )
    return {
        "scenario_label": config.scenario_label,
        "seed": config.seed,
        "config": config_echo(config),
        "n_vehicles": len(vehicles),
        "n_ticks": len(ticks),
        "n_rows": len(results),
        "mean_rate_bps": mean_rate,
        "total_bits_sent": total_bits,
        "total_packages_generated": total_packages,
        "undelivered_bytes": undelivered_bytes(results),
    }


def write_summary_json(summary: dict, stream: IO[str]) -> None:
    json.dump(summary, stream, indent=2, sort_keys=True)
    stream.write("\n")
