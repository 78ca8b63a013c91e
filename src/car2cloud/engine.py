"""Per-second simulation of every trace sample, and its file interfaces.

The traces come in as one mobility.TraceTable, whose rows one lexsort puts
in (tick, vehicle id) order.  run computes each results column for all rows
with array kernels that give the scalar formulas' bits:

- association: a numpy screen per tick (radio.screen_links) picks each
  vehicle's best-SNR station; rows it cannot decide go to radio.best_link;
- radio.link_snrs: the SNR to that station, as radio.snr computes it;
- scheduler.rr_shares: the vehicle's Round-Robin share of its cell's
  resource blocks, as scheduler.rr_allocate deals them;
- linkrate.rb_rates, or the caller's rate model per row: the rate of one
  block, times the share;
- cvim.drain_sizes: per vehicle and in tick order, the package queued at a
  flush and the whole packages each tick's capacity sends, as
  cvim.try_transmit sends them.

numpy's + - * / and comparisons round exactly as Python's float operations
do, so the kernels follow the scalar code's operation order on arrays; only
the transcendental functions (math.hypot, math.log10, ** and math.log2) run
in Python per element, as numpy's may differ in the last ulp.  The queues are
the only causal state, and they hold package sizes only; no output reads
package contents.  All outputs are byte-identical across runs with equal
inputs.  Results travel as one column table, TickTable, from run through
the results CSV to the analysis; the results CSV writer and reader run
their chunks through mobility.ordered_map, so a second CPU formats or
parses every other chunk.

Config files are flat ``section.key = value`` text; unknown keys are
rejected outright so typos cannot silently fall back to defaults.
"""

from __future__ import annotations

import json
import math
from dataclasses import dataclass, field, fields, replace
from pathlib import Path
from typing import IO, Iterator, Sequence

import numpy as np

from . import cvim, scheduler
from .cvim import PackagingConfig
from .errors import ConfigError, ParseError, ValidationError
from .linkrate import RateModel, RbRateParams, rb_rates
from .mobility import (
    READ_CHUNK_BYTES,
    KraussParams,
    RoadSpec,
    TraceTable,
    id_codes,
    join_chunks,
    ordered_map,
    parse_chunk,
    write_chunks,
)
from .radio import BaseStation, LinkBudgetConfig, best_link, link_snrs, screen_links

RESULTS_CSV_HEADER = (
    "t,vehicle_id,serving_station,snr_db,rb_share,rate_bps,"
    "packages_generated,bits_sent,queue_bytes"
)


# Rows per call of the SNR and rate kernels: whole-table per-element Python
# lists would raise the peak RSS of simulate with the table's size.
KERNEL_BLOCK_ROWS = 1 << 14

_INT64_MIN, _INT64_MAX = -(1 << 63), (1 << 63) - 1
# Conversion of each results CSV field: ids (None) are kept as read.
_CONVERTERS = (int, None, None, float, float, float, int, int, int)


@dataclass(frozen=True, eq=False)
class TickTable:
    """Every vehicle's communication outcome in every second, as columns.

    One column per RESULTS_CSV_HEADER field, all of one length: int64
    arrays for the counts, float64 arrays for the radio values and lists
    of str for the ids.  Row i is the i-th entry of every column.
    """

    t: np.ndarray
    vehicle_id: list[str]
    serving_station: list[str]
    snr_db: np.ndarray
    rb_share: np.ndarray
    rate_bps: np.ndarray
    packages_generated: np.ndarray
    bits_sent: np.ndarray
    queue_bytes: np.ndarray

    def __len__(self) -> int:
        return len(self.vehicle_id)


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
        # RB shares are floats.
        for key, value in (("cell.n_rb", self.n_rb), ("cell.rb_limit", self.rb_limit)):
            try:
                float(value)
            except OverflowError:
                raise ConfigError(f"{key} is beyond the range of a float") from None
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
            value = float(raw)
            if not math.isfinite(value):
                raise ConfigError(f"config key {key}: {raw!r} is not a finite number")
            return value
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
    traces: TraceTable,
    stations: Sequence[BaseStation],
    rate_model: RateModel | None = None,
) -> TickTable:
    """Simulate every trace sample; rows ordered by (t, vehicle_id)."""
    stations = sorted(stations, key=lambda s: str(s.station_id))
    if not stations:
        raise ConfigError("simulation needs at least one base station")
    pkg_cfg = config.packaging
    # Package metadata is checked here once, as no package object is built.
    cvim.PackageMeta(owner=pkg_cfg.owner, privacy_level=pkg_cfg.privacy_level)

    names, vehicle = id_codes(traces.vehicle_id)
    order = np.lexsort((vehicle, traces.t))
    ticks, vehicle = traces.t[order], vehicle[order]
    state = np.column_stack((traces.x, traces.y, traces.speed))[order]
    finite = np.isfinite(state).all(axis=1)
    if not finite.all():
        i = int(np.argmin(finite))
        raise ValidationError(
            f"vehicle {names[vehicle[i]]!r} at t={ticks[i]}: non-finite position or speed"
        )
    n = len(ticks)

    # Association, one tick at a time (a whole-table screen would hold an
    # n x stations matrix): rows the screen cannot decide go to best_link.
    serving = np.empty(n, dtype=np.int64)
    station_index = {id(s): i for i, s in enumerate(stations)}
    _, starts = np.unique(ticks, return_index=True)
    bounds = [*starts.tolist(), n]
    for start, stop in zip(bounds, bounds[1:]):
        winners, unsure = screen_links(state[start:stop, :2], stations, config.link)
        for i in np.flatnonzero(unsure).tolist():
            station, _ = best_link(tuple(state[start + i, :2].tolist()), stations, config.link)
            winners[i] = station_index[id(station)]
        serving[start:stop] = winners
    station_ids = [s.station_id for s in stations]
    _, cell = id_codes(station_ids)
    shares = scheduler.rr_shares(
        ticks, cell[serving], config.effective_n_rb, config.scheduler_mode
    )

    snr_db = np.empty(n)
    rates = np.empty(n)
    for lo in range(0, n, KERNEL_BLOCK_ROWS):
        block = slice(lo, lo + KERNEL_BLOCK_ROWS)
        snr_db[block] = link_snrs(state[block, :2], serving[block], stations, config.link)
        speed = state[block, 2]
        if rate_model:
            per_rb = np.fromiter(
                map(rate_model, snr_db[block].tolist(), speed.tolist()), np.float64, len(speed)
            )
        else:
            per_rb = rb_rates(snr_db[block], speed, config.rate)
        with np.errstate(all="ignore"):
            rates[block] = shares[block] * per_rb
    # A one-second tick's capacity is int(rate) bits, which must exist and
    # not be negative.
    bad = ~np.isfinite(rates) | (rates <= -1.0)
    if bad.any():
        i = int(np.argmax(bad))
        raise ConfigError(
            f"vehicle {names[vehicle[i]]!r} at t={ticks[i]}: rate {float(rates[i])!r} bit/s "
            "is not a finite, non-negative capacity"
        )

    # A package carries the records of the ticks a vehicle was present since
    # its last flush: at the last tick of each aggregation window, and at
    # its departure.
    last_tick = np.full(len(names), np.iinfo(np.int64).min)
    np.maximum.at(last_tick, vehicle, ticks)
    agg = pkg_cfg.aggregate_ticks
    flush = (ticks % agg == agg - 1) | (ticks == last_tick[vehicle])
    # Queues are causal, so they run per vehicle over its rows in tick order.
    # In that order, buffered[i] is the number of ticks the package pushed at
    # row i carries, 0 if none; a vehicle's last row flushes, so no count
    # spans two vehicles.
    by_vehicle = np.argsort(vehicle, kind="stable")
    flushed = np.flatnonzero(flush[by_vehicle])
    buffered = np.zeros(n, dtype=np.int64)
    buffered[flushed] = np.diff(flushed, prepend=-1)
    package_bytes = [0] + [
        pkg_cfg.payload_bytes(pkg_cfg.records_per_tick * k)
        for k in range(1, int(buffered.max(initial=0)) + 1)
    ]
    vehicle_rates = rates[by_vehicle]
    sent = np.empty(n, dtype=np.int64)
    queued = np.empty(n, dtype=np.int64)
    stops = np.cumsum(np.bincount(vehicle, minlength=len(names))).tolist()
    for lo, hi in zip([0, *stops], stops):
        rows = by_vehicle[lo:hi]
        bits, left = cvim.drain_sizes(
            map(package_bytes.__getitem__, buffered[lo:hi].tolist()),
            map(int, vehicle_rates[lo:hi].tolist()),
        )
        try:
            sent[rows], queued[rows] = bits, left
        except OverflowError:
            i = next(i for i, pair in enumerate(zip(bits, left)) if max(pair) > _INT64_MAX)
            raise ConfigError(
                f"vehicle {names[vehicle[rows[i]]]!r} at t={ticks[rows[i]]}: {left[i]} bytes "
                f"queued and {bits[i]} bits sent, beyond 64 bits"
            ) from None
    return TickTable(
        t=ticks,
        vehicle_id=list(map(names.__getitem__, vehicle.tolist())),
        serving_station=list(map(station_ids.__getitem__, serving.tolist())),
        snr_db=snr_db,
        rb_share=shares,
        rate_bps=rates,
        packages_generated=flush.astype(np.int64),
        bits_sent=sent,
        queue_bytes=queued,
    )


def write_results_csv(table: TickTable, stream: IO[str]) -> None:
    """Write the table as results CSV, with mobility.write_chunks."""
    stream.write(RESULTS_CSV_HEADER + "\n")

    def format_rows(rows: slice) -> str:
        return "".join(
            f"{t},{vid},{sid},{snr_db!r},{share!r},{rate!r},{generated},{sent},{queued}\n"
            for t, vid, sid, snr_db, share, rate, generated, sent, queued in zip(
                table.t[rows].tolist(),
                table.vehicle_id[rows],
                table.serving_station[rows],
                table.snr_db[rows].tolist(),
                table.rb_share[rows].tolist(),
                table.rate_bps[rows].tolist(),
                table.packages_generated[rows].tolist(),
                table.bits_sent[rows].tolist(),
                table.queue_bytes[rows].tolist(),
            )
        )

    write_chunks(stream, len(table), format_rows)


def _raise_first_bad_line(lines: list[str], first_lineno: int) -> None:
    """Raise ParseError for the first line of a chunk that cannot be read.

    Runs only once the columnar reading of the chunk failed, and goes line
    by line, so the error names the line and field a row reader would.
    """
    for lineno, line in enumerate(lines, start=first_lineno):
        line = line.rstrip("\n")
        if not line:
            continue
        parts = line.split(",")
        if len(parts) != 9:
            raise ParseError(f"line {lineno}: expected 9 fields, got {len(parts)}")
        for i, convert in enumerate(_CONVERTERS):
            if convert is None:
                continue
            try:
                value = convert(parts[i])
            except ValueError as exc:
                raise ParseError(f"line {lineno}: {exc}") from None
            if convert is int and not _INT64_MIN <= value <= _INT64_MAX:
                raise ParseError(f"line {lineno}: integer {parts[i]!r} exceeds 64 bits")


def _numbered_chunks(stream: IO[str]) -> Iterator[tuple[int, list[str]]]:
    """Each chunk of about READ_CHUNK_BYTES of lines, after its first line's number."""
    lineno = 2  # the header is line 1
    while lines := stream.readlines(READ_CHUNK_BYTES):
        yield lineno, lines
        lineno += len(lines)


def _results_chunk(chunk: tuple[int, list[str]]) -> list | None:
    """parse_chunk's columns of a numbered chunk of results lines, None if all are blank."""
    lineno, lines = chunk
    rows = [line for line in lines if line != "\n"]
    if not rows:
        return None
    try:
        return parse_chunk(rows, _CONVERTERS)
    except (ValueError, OverflowError):
        _raise_first_bad_line(lines, lineno)
        raise


def read_results_csv(stream: IO[str]) -> TickTable:
    """Read a results CSV written by write_results_csv into a TickTable.

    Lines are read and converted a chunk of about READ_CHUNK_BYTES at a time,
    through mobility.ordered_map: each chunk is split once and every field
    column converted as a whole.  Blank lines are skipped, ids are interned,
    so each distinct id is held once, and an integer beyond int64 is an
    error.  A chunk that does not convert is read again line by line to name
    the first bad line.
    """
    header = stream.readline().rstrip("\n")
    if header != RESULTS_CSV_HEADER:
        raise ParseError(f"bad results header: {header!r}")
    chunks = ordered_map(_results_chunk, _numbered_chunks(stream))
    return TickTable(*join_chunks(list(filter(None, chunks)), _CONVERTERS))


def undelivered_bytes(table: TickTable) -> dict[str, int]:
    """Bytes still queued at each vehicle's final tick (departed unsent).

    Of rows with a vehicle's final tick, the first in row order counts.
    """
    names, vehicle = id_codes(table.vehicle_id)
    n = len(vehicle)
    # Rows by vehicle, then tick, with equal ticks in reverse row order, so
    # the last of each vehicle's rows is the first at its final tick.
    order = n - 1 - np.lexsort((table.t[::-1], vehicle[::-1]))
    last = order[np.cumsum(np.bincount(vehicle, minlength=len(names))) - 1]
    return {vid: q for vid, q in zip(names, table.queue_bytes[last].tolist()) if q}


def summarize(config: SimConfig, table: TickTable) -> dict:
    """Run metadata, config echo and aggregate statistics for summary.json.

    The mean rate is a left-to-right sum in row order, as float addition
    depends on order.
    """
    n = len(table)
    return {
        "scenario_label": config.scenario_label,
        "seed": config.seed,
        "config": config_echo(config),
        "n_vehicles": len(set(table.vehicle_id)),
        "n_ticks": len(set(table.t.tolist())),
        "n_rows": n,
        "mean_rate_bps": sum(table.rate_bps.tolist()) / n if n else 0.0,
        "total_bits_sent": sum(table.bits_sent.tolist()),
        "total_packages_generated": sum(table.packages_generated.tolist()),
        "undelivered_bytes": undelivered_bytes(table),
    }


def write_summary_json(summary: dict, stream: IO[str]) -> None:
    json.dump(summary, stream, indent=2, sort_keys=True)
    stream.write("\n")
