"""Per-second simulation of every trace sample, and its file interfaces.

The traces come in as one mobility.TraceTable, whose rows one lexsort puts
in (tick, vehicle id) order.  run computes each results column for all rows
with array kernels that give the scalar formulas' bits:

- association: a numpy screen (radio.screen_links) picks each vehicle's
  best-SNR station; rows it cannot decide go to radio.best_link;
- radio.link_snrs: the SNR to that station, as radio.snr computes it;
- scheduler.rr_shares: the vehicle's Round-Robin share of its cell's
  resource blocks, as scheduler.rr_allocate deals them;
- linkrate.rb_rates: the rate of one block, times the share;
- cvim.drain_queues: over each vehicle's rows in tick order, the package
  queued at a flush and the whole packages each tick's capacity sends, as
  cvim.try_transmit sends them.

numpy's + - * / and comparisons round exactly as Python's float operations
do, so the kernels follow the scalar code's operation order on arrays; only
the transcendental functions (math.hypot, math.log10, ** and math.log2) run
in Python per element, as numpy's may differ in the last ulp.  The queues are
the only causal state, and they hold package sizes only; no output reads
package contents.  All outputs are byte-identical across runs with equal
inputs.  Results travel as one column table, TickTable, from run through
the results CSV, written and read with the csvio codec, to the analysis.

Config files are flat ``section.key = value`` text; unknown keys are
rejected outright so typos cannot silently fall back to defaults.
"""

from __future__ import annotations

import json
import math
from dataclasses import dataclass, field, fields, replace
from pathlib import Path
from typing import IO, Sequence

import numpy as np

from . import cvim, scheduler
from .analysis import float_total, json_float
from .csvio import INT64_BOUND, read_columns, write_columns
from .cvim import PackagingConfig
from .errors import ConfigError, ParseError, ValidationError
from .linkrate import RbRateParams, rb_rates
from .mobility import KraussParams, RoadSpec, TraceTable, id_codes
from .radio import BaseStation, LinkBudgetConfig, best_link, link_snrs, screen_links

RESULTS_CSV_HEADER = (
    "t,vehicle_id,serving_station,snr_db,rb_share,rate_bps,"
    "packages_generated,bits_sent,queue_bytes"
)


# Rows per call of the SNR and rate kernels and values per call of the
# association screen: whole-table temporaries and per-element Python lists
# would raise the peak RSS of simulate with the table's size.
KERNEL_BLOCK_ROWS = 1 << 14

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


# Config sections of the parameter groups -> SimConfig attribute, in the
# order build_config builds them; each group's class is its default factory.
_SECTIONS = {
    "road": "road", "krauss": "krauss", "link": "link", "linkrate": "rate", "cvim": "packaging"
}
# SimConfig's own keys -> SimConfig attribute.
_OWN_KEYS = {
    "cell.n_rb": "n_rb",
    "cell.rb_limit": "rb_limit",
    "scheduler.mode": "scheduler_mode",
    "sim.tick": "tick",
    "sim.seed": "seed",
    "sim.scenario_label": "scenario_label",
}
_SIM_FIELDS = {f.name: f for f in fields(SimConfig)}
# Flat config registry: dotted key -> (group attr or "", field name, type name).
_CONFIG_KEYS = {
    **{
        f"{section}.{f.name}": (attr, f.name, f.type)
        for section, attr in _SECTIONS.items()
        for f in fields(_SIM_FIELDS[attr].default_factory)
        if (section, f.name) != ("road", "seed")  # the run seed is sim.seed
    },
    **{key: ("", name, _SIM_FIELDS[name].type) for key, name in _OWN_KEYS.items()},
}


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
    kwargs: dict[str, dict] = {attr: {} for attr in ("", *_SECTIONS.values())}
    for key, raw in values.items():
        if key not in _CONFIG_KEYS:
            raise ConfigError(f"unknown config key: {key}")
        attr, field_name, type_name = _CONFIG_KEYS[key]
        kwargs[attr][field_name] = _cast(key, raw, type_name)
    own = kwargs.pop("")
    groups = {attr: _SIM_FIELDS[attr].default_factory(**group) for attr, group in kwargs.items()}
    return SimConfig(**groups, **own)


def load_config(path: str | Path, overrides: Sequence[str] = ()) -> SimConfig:
    try:
        text = Path(path).read_text(encoding="utf-8")
    except UnicodeDecodeError as exc:
        raise ConfigError(f"config file {path} is not UTF-8 text: {exc}") from None
    return parse_config_text(text, overrides)


def config_echo(config: SimConfig) -> dict[str, str]:
    """Flat key -> value view of a config, as written in config files."""
    echo = {}
    for key, (attr, field_name, _) in sorted(_CONFIG_KEYS.items()):
        obj = getattr(config, attr) if attr else config
        value = getattr(obj, field_name)
        echo[key] = repr(value) if isinstance(value, float) else str(value)
    return echo


def run(config: SimConfig, traces: TraceTable, stations: Sequence[BaseStation]) -> TickTable:
    """Simulate every trace sample; rows ordered by (t, vehicle_id)."""
    stations = sorted(stations, key=lambda s: str(s.station_id))
    if not stations:
        raise ConfigError("simulation needs at least one base station")
    pkg_cfg = config.packaging

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

    # Association, in blocks of rows whose rows x stations screen matrix
    # holds KERNEL_BLOCK_ROWS values: rows it cannot decide go to best_link.
    serving = np.empty(n, dtype=np.int64)
    station_index = {id(s): i for i, s in enumerate(stations)}
    step = max(1, KERNEL_BLOCK_ROWS // len(stations))
    for lo in range(0, n, step):
        winners, unsure = screen_links(state[lo : lo + step, :2], stations, config.link)
        for i in np.flatnonzero(unsure).tolist():
            station, _ = best_link(tuple(state[lo + i, :2].tolist()), stations, config.link)
            winners[i] = station_index[id(station)]
        serving[lo : lo + step] = winners
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
        per_rb = rb_rates(snr_db[block], state[block, 2], config.rate)
        with np.errstate(all="ignore"):
            rates[block] = shares[block] * per_rb
    # The drain's whole-table columns need not stack on the trace state.
    order = state = finite = None
    # A one-second tick's capacity is int(rate) bits, which must exist.  No
    # rate is negative: shares and efficiencies are not, and the speed
    # penalty is positive at any speed.
    bad = ~np.isfinite(rates)
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
    package_bytes = np.array([0] + [
        pkg_cfg.payload_bytes(pkg_cfg.records_per_tick * k)
        for k in range(1, int(buffered.max(initial=0)) + 1)
    ], dtype=np.int64)
    pushed = package_bytes[buffered]
    if int(pushed.max(initial=0)) * int(np.count_nonzero(pushed)) < 1 << 59:
        # The pushed bits stay below 2**62, so the drain's sums fit in int64
        # and a capacity of 2**62 bits holds every package, as any larger
        # one does.
        bits, left = cvim.drain_queues(
            pushed, np.minimum(rates[by_vehicle], 2.0**62).astype(np.int64), vehicle[by_vehicle]
        )
    else:
        bits, left = cvim.drain_queues(
            pushed.astype(object), np.frompyfunc(int, 1, 1)(rates[by_vehicle]), vehicle[by_vehicle]
        )
        beyond = np.flatnonzero((bits >= INT64_BOUND) | (left >= INT64_BOUND))
        if beyond.size:
            k = beyond[0]
            i = by_vehicle[k]
            raise ConfigError(
                f"vehicle {names[vehicle[i]]!r} at t={ticks[i]}: {left[k]} bytes "
                f"queued and {bits[k]} bits sent, beyond 64 bits"
            )
    sent = np.empty(n, dtype=np.int64)
    queued = np.empty(n, dtype=np.int64)
    sent[by_vehicle], queued[by_vehicle] = bits, left
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
    """Write the table as results CSV, with csvio.write_columns."""
    columns = [getattr(table, name) for name in RESULTS_CSV_HEADER.split(",")]
    write_columns(stream, RESULTS_CSV_HEADER, columns)


def read_results_csv(stream: IO[str]) -> TickTable:
    """Read a results CSV written by write_results_csv, with csvio.read_columns.

    Lines may end in LF or CRLF.
    """
    header = stream.readline()
    if header not in (RESULTS_CSV_HEADER, RESULTS_CSV_HEADER + "\n", RESULTS_CSV_HEADER + "\r\n"):
        raise ParseError("bad results header: " + repr(header.rstrip("\n")))
    return TickTable(*read_columns(stream, _CONVERTERS))


def undelivered_bytes(
    table: TickTable, codes: tuple[list[str], np.ndarray] | None = None
) -> dict[str, int]:
    """Bytes still queued at each vehicle's final tick (departed unsent).

    Of rows with a vehicle's final tick, the first in row order counts.
    codes is id_codes of the table's vehicle ids, if the caller has it.
    """
    names, vehicle = codes or id_codes(table.vehicle_id)
    final = np.full(len(names), np.iinfo(np.int64).min)
    np.maximum.at(final, vehicle, table.t)
    at_final = np.flatnonzero(table.t == final[vehicle])
    first = np.full(len(names), len(vehicle))
    np.minimum.at(first, vehicle[at_final], at_final)
    return {vid: q for vid, q in zip(names, table.queue_bytes[first].tolist()) if q}


def int_total(column: np.ndarray) -> int:
    """The exact sum of an int64 column, also beyond int64.

    The sums of the values' high and low 32 bits each fit in int64 for
    fewer than 2**31 values.
    """
    return (int((column >> 32).sum()) << 32) + int((column & 0xFFFFFFFF).sum())


def summarize(config: SimConfig, table: TickTable) -> dict:
    """Run metadata, config echo and aggregate statistics for summary.json.

    The mean rate is a left-to-right sum in row order, as float addition
    depends on order; a sum that overflows gives the mean 'inf'.
    """
    n = len(table)
    codes = id_codes(table.vehicle_id)
    return {
        "scenario_label": config.scenario_label,
        "seed": config.seed,
        "config": config_echo(config),
        "n_vehicles": len(codes[0]),
        "n_ticks": len(np.unique(table.t)),
        "n_rows": n,
        "mean_rate_bps": json_float(float_total(table.rate_bps) / n if n else 0.0),
        "total_bits_sent": int_total(table.bits_sent),
        "total_packages_generated": int_total(table.packages_generated),
        "undelivered_bytes": undelivered_bytes(table, codes),
    }


def write_summary_json(summary: dict, stream: IO[str]) -> None:
    json.dump(summary, stream, indent=2, sort_keys=True, allow_nan=False)
    stream.write("\n")
