"""Vehicle mobility: trace ingestion and a single-lane Krauss generator.

Trajectories are 1 Hz samples of (x, y, speed) per vehicle.  They come from
one of three sources: an external trace CSV, a SUMO floating-car-data XML
export, or the built-in car-following generator.  Every source yields one
TraceTable: id, tick, x, y and speed columns with rows by vehicle id, then
tick, which emit_trace_csv writes in that order and engine.run takes as is.
Ids are coded once, where they arrive as strings, by csvio's one id coder
(read_columns as it reads a CSV file, id_codes elsewhere): a table holds
each id column as IdCodes, and writers turn the codes back into ids.
A trace CSV is read once, in chunks, by csvio.read_columns, with the
sample rules as array masks; an error names the first bad line, and a
quote or a line break inside a line is data.  In both trace readers a
repeated sample is named only where no sample breaks a rule.  Synthetic
roads are either a straight strip along the x axis (vehicles injected at
the origin) or a ring mapped onto a circle in the plane, so radio
distances are always well defined.
"""

from __future__ import annotations

import math
import xml.etree.ElementTree as ET
from dataclasses import dataclass
from typing import IO, Callable, Iterator, Sequence

import numpy as np

from .csvio import (
    INT64_BOUND, IdCodes, RowLines, check_id, id_codes, read_columns, read_header,
    write_columns,
)
from .errors import ConfigError, ParseError, SimulationError, ValidationError, check_finite

TRACE_CSV_HEADER = ("vehicle_id", "t", "x", "y", "speed")
# Conversion of each trace CSV field by csvio.read_columns: ids (None) are coded.
_TRACE_CONVERTERS = (None, int, float, float, float)
_FCD_ATTRIBUTES = ("id", "x", "y", "speed")  # of an FCD <vehicle> element

# Ticks are held as int64 in the trace and result tables.
MAX_TICK = INT64_BOUND - 1

# Per-vehicle desired-speed factors are clamped to keep pathological normal
# draws out of the dynamics; the 0.1 deviation only fixes the spread.
SPEED_FACTOR_MIN = 0.7
SPEED_FACTOR_MAX = 1.3


@dataclass(frozen=True, eq=False)
class TraceTable:
    """1 Hz samples of (x, y, speed) of every vehicle, as columns.

    ``vehicle_id`` is IdCodes, ``t`` an int64 array and ``x``, ``y`` and
    ``speed`` float64 arrays, all of one length; row i is the i-th entry of
    every column.  Producers give rows in canonical order: by vehicle id
    string, then by tick, with each vehicle's ticks consecutive.
    """

    vehicle_id: IdCodes
    t: np.ndarray
    x: np.ndarray
    y: np.ndarray
    speed: np.ndarray

    def __len__(self) -> int:
        return len(self.t)


def _trace_table(
    names: list[str], code: np.ndarray, t, x, y, speed, where: Callable[[int], str] | None = None
) -> TraceTable:
    """Samples of vehicles names[code] as a table in canonical order.

    ``t``, ``x``, ``y`` and ``speed`` are sequences or arrays, row for row
    with ``code``, and every name has a row.  A repeated sample names, by
    ``where`` of its row index (``line 7``, or an FCD element's path), the
    first row in input order that repeats an earlier one; only rows read
    from a file, which ``where`` names, can repeat.  Then a 1 Hz gap names
    the smallest vehicle id that has one, and its first gap.  Rows already
    in canonical order, as emit_trace_csv writes them, are not reordered.
    """
    t = np.asarray(t, dtype=np.int64)
    x, y, speed = (np.asarray(c, dtype=np.float64) for c in (x, y, speed))
    order = None
    if not ((code[1:] > code[:-1]) | (code[1:] == code[:-1]) & (t[1:] >= t[:-1])).all():
        order = np.lexsort((t, code))
        code, t, x, y, speed = (c[order] for c in (code, t, x, y, speed))
    gaps = np.flatnonzero((code[1:] == code[:-1]) & (t[1:] - t[:-1] != 1))
    if gaps.size:
        # The sort is stable, so of two equal samples the later in input order repeats.
        repeats = gaps[t[gaps] == t[gaps + 1]] + 1
        if repeats.size:
            rows = repeats if order is None else order[repeats]
            i = int(repeats[rows.argmin()])
            raise ValidationError(
                f"{where(int(rows.min()))}: duplicate sample ({names[code[i]]!r}, t={t[i]})"
            )
        i = int(gaps[0])
        raise ValidationError(
            f"vehicle {names[code[i]]!r}: samples not on a 1 Hz grid "
            f"(ticks {t[i]} -> {t[i + 1]})"
        )
    return TraceTable(IdCodes(names, code), t, x, y, speed)


@dataclass(frozen=True)
class KraussParams:
    """Car-follower parameters; defaults are the highway measurement set."""

    a_max: float = 1.5        # m/s^2 maximum acceleration
    b_max: float = 4.5        # m/s^2 maximum deceleration
    v_max: float = 36.11      # m/s (130 km/h)
    sigma: float = 0.5        # driver imperfection in [0, 1]
    tau: float = 1.0          # s driver reaction time
    min_gap: float = 2.5      # m standstill gap
    veh_length: float = 5.0   # m
    speed_dev: float = 0.1    # per-vehicle speed-factor std deviation

    def __post_init__(self) -> None:
        for name in ("a_max", "b_max", "v_max", "tau", "min_gap", "veh_length"):
            if getattr(self, name) <= 0:
                raise ConfigError(f"krauss.{name} must be positive")
        if not 0.0 <= self.sigma <= 1.0:
            raise ConfigError("krauss.sigma must be in [0, 1]")
        if self.speed_dev < 0:
            raise ConfigError("krauss.speed_dev must be non-negative")
        check_finite(self, "krauss.")


@dataclass(frozen=True)
class RoadSpec:
    """Synthetic road geometry and demand.

    ``inflow`` is vehicles/hour on a strip and the vehicle count on a ring.
    """

    topology: str = "strip"
    length: float = 10_000.0
    inflow: float = 1000.0
    duration: int = 600
    seed: int = 1

    def __post_init__(self) -> None:
        if self.topology not in ("strip", "ring"):
            raise ConfigError(f"road.topology must be strip or ring, got {self.topology!r}")
        if self.length <= 0:
            raise ConfigError("road.length must be positive")
        if self.inflow <= 0:
            raise ConfigError("road.inflow must be positive")
        if self.topology == "ring" and not float(self.inflow).is_integer():
            raise ConfigError(
                f"road.inflow is the vehicle count on a ring, got {self.inflow!r}"
            )
        if self.duration < 0:
            raise ConfigError("road.duration must be non-negative")
        if self.seed < 0:  # numpy's SeedSequence takes no negative entropy
            raise ConfigError(f"sim.seed must be non-negative, got {self.seed}")
        check_finite(self, "road.")


def _safe_speed(gap, v_lead, v, params: KraussParams):
    """The Krauss safe speed v_safe of krauss_step's docstring, on floats or arrays."""
    brake = (v_lead + v) / (2.0 * params.b_max) + params.tau
    return v_lead + (gap - v_lead * params.tau) / brake


def krauss_step(
    position: np.ndarray,
    speed: np.ndarray,
    factor: np.ndarray,
    dawdle: np.ndarray,
    params: KraussParams,
    ids: Sequence[str],
    ring_length: float | None = None,
) -> tuple[np.ndarray, np.ndarray]:
    """Advance an ordered platoon (index 0 = rearmost) by one 1 s tick.

    Every vehicle follows the Krauss safe-speed model.  With gap
    g = x_leader - x_follower - length - min_gap the safe speed is

        v_safe = v_l + (g - v_l*tau) / ((v_l + v) / (2*b_max) + tau)

    and the new speed is the desired speed min(v_max*factor, v + a_max,
    v_safe) reduced by the random imperfection sigma*a_max*dawdle, floored
    at zero.  The frontmost vehicle of a strip has no leader; on a ring of
    more than one vehicle the rearmost leads the frontmost, one lap ahead,
    and new positions wrap into [0, ring_length).  ``ids`` name the vehicles
    in an overlap error.

    The operations follow the scalar formula's order and every min/max keeps
    the operand Python's min/max would keep, so results equal the scalar
    model bit for bit; np.maximum(0.0, -0.0), unlike max, returns -0.0.
    """
    v_free = params.v_max * factor
    v_acc = speed + params.a_max
    v_des = np.where(v_acc < v_free, v_acc, v_free)
    n = len(position)
    if ring_length is not None and n > 1:
        lead_pos = np.append(position[1:], position[0] + ring_length)
        lead_speed = np.append(speed[1:], speed[0])
    else:
        lead_pos, lead_speed = position[1:], speed[1:]
    m = len(lead_pos)  # vehicles with a leader
    gap = lead_pos - position[:m] - params.veh_length - params.min_gap
    overlap = np.flatnonzero(gap < 0)
    if overlap.size:
        i = int(overlap[0])
        raise SimulationError(
            f"vehicles {ids[i]} and {ids[(i + 1) % n]} overlap (gap {gap[i]:.3f} m)"
        )
    v_safe = _safe_speed(gap, lead_speed, speed[:m], params)
    v_des[:m] = np.where(v_safe < v_des[:m], v_safe, v_des[:m])
    v_new = v_des - params.sigma * params.a_max * dawdle
    v_new = np.where(v_new > 0.0, v_new, 0.0)
    new_position = position + v_new
    if ring_length is not None:
        new_position = np.fmod(new_position, ring_length)
    return new_position, v_new


def _vehicle_draws(seed: int, k: int, speed_dev: float, steps: int) -> tuple[float, np.ndarray]:
    """Vehicle k's speed factor, then its ``steps`` dawdles, from its own stream.

    The stream is keyed by (seed, k), so a vehicle's draws depend neither on
    insertion order nor on when they are made, and runs stay reproducible
    however the set of simultaneously active vehicles changes.
    """
    rng = np.random.default_rng(np.random.SeedSequence(entropy=seed, spawn_key=(1, k)))
    raw = 1.0 + speed_dev * rng.standard_normal()
    return min(max(raw, SPEED_FACTOR_MIN), SPEED_FACTOR_MAX), rng.random(steps)


def _entry_offset(
    rear_position: float, rear_speed: float, arrival_offset: float, params: KraussParams
) -> float:
    """The offset into a tick's window at which an arrival enters the strip.

    The rear vehicle ends the window at rear_position, having moved at
    rear_speed through it, and blocks the origin while it is inside the
    entry envelope veh_length + min_gap + rear_speed * tau.  The arrival
    enters at arrival_offset or when the envelope clears, whichever is
    later; at 1.0 or more (inf behind a standing rear vehicle inside it) it
    waits for the next window.  The envelope's sum and _entry_gap's
    differences round apart, so an offset at which _entry_gap, the gap
    _entry_speed takes, would fall below 0 is inf too.  An empty road is a
    standing rear vehicle at infinity, (math.inf, 0.0), which never blocks.
    """
    start = rear_position - rear_speed  # the rear vehicle at the window's start
    envelope = params.veh_length + params.min_gap + rear_speed * params.tau
    if rear_speed > 0.0:
        offset = max(arrival_offset, (envelope - start) / rear_speed)
    elif start >= envelope:
        offset = arrival_offset
    else:
        return math.inf
    return offset if _entry_gap(start + rear_speed * offset, params) >= 0.0 else math.inf


def _entry_gap(rear_position: float, params: KraussParams) -> float:
    """The gap to the rear vehicle at rear_position of a vehicle entering at the origin."""
    return rear_position - params.veh_length - params.min_gap


def _entry_speed(
    rear_position: float, rear_speed: float, factor: float, params: KraussParams
) -> float:
    """Speed assigned to a vehicle entering the strip behind the rear vehicle.

    Entrants obey the same safe-speed law as everyone else, evaluated
    against the rearmost vehicle already on the road.
    """
    v_free = params.v_max * factor
    gap = _entry_gap(rear_position, params)
    if gap < 0:
        raise SimulationError("injection attempted while origin blocked")
    return max(0.0, min(v_free, _safe_speed(gap, rear_speed, rear_speed, params)))


def _arrival_times(road: RoadSpec) -> Iterator[float]:
    """Exponentially spaced arrival times for the strip inflow process, before
    the run's end, each drawn as it is taken: a strip whose demand exceeds
    what can enter draws only the arrivals it reaches."""
    rng = np.random.default_rng(np.random.SeedSequence(entropy=road.seed, spawn_key=(0,)))
    rate = road.inflow / 3600.0
    # A subnormal inflow's rate rounds to 0: its mean spacing is beyond any float.
    spacing = 1.0 / rate if rate else math.inf
    t = 0.0
    while (t := t + rng.exponential(spacing)) < road.duration:
        yield t


class _Recorder:
    """Platoon snapshots, appended one tick's arrays at a time.

    A strip position is x with y = 0; a ring position is mapped onto a
    circle of matching circumference with the scalar math.cos and math.sin
    through np.fromiter; numpy's vectorised versions may miss by an ulp.
    """

    def __init__(self, ring_length: float | None):
        self.radius = None if ring_length is None else ring_length / (2.0 * math.pi)
        self.ticks: list[tuple[np.ndarray, ...]] = []  # (vehicle, t, x, y, speed) per tick

    def record(self, vehicles: np.ndarray, position: np.ndarray, speed: np.ndarray) -> None:
        """Snapshot of the next tick, the first being tick 0."""
        n = len(vehicles)
        if self.radius is None:
            x, y = position, np.zeros(n)
        else:
            angles = (position / self.radius).tolist()
            x = self.radius * np.fromiter(map(math.cos, angles), np.float64, n)
            y = self.radius * np.fromiter(map(math.sin, angles), np.float64, n)
        self.ticks.append((vehicles, np.full(n, len(self.ticks), dtype=np.int64), x, y, speed))

    def table(self, names: np.ndarray) -> TraceTable:
        """Every recorded sample, in canonical order; names[k] names vehicle k."""
        if not self.ticks:
            return _trace_table([], np.zeros(0, dtype=np.int64), [], [], [], [])
        vehicle, t, x, y, speed = map(np.concatenate, zip(*self.ticks))
        # Vehicle names are unique, so the codes of those recorded rank them by id string.
        recorded = np.flatnonzero(np.bincount(vehicle, minlength=len(names)))
        code = np.zeros(len(names), dtype=np.int64)
        names, code[recorded] = id_codes(names[recorded].tolist())
        return _trace_table(names, code[vehicle], t, x, y, speed)


def _vehicle_names(count: int) -> np.ndarray:
    return np.array([f"veh{k:04d}" for k in range(count)], dtype=object)


def _generate_strip(road: RoadSpec, params: KraussParams) -> TraceTable:
    """Strip run: arrivals enter at the origin, traces end past the far end.

    The arrival process is continuous, so entries happen at sub-tick
    instants and the 1 Hz grid merely samples the road.  Arrivals enter in
    order, by _entry_offset behind the rearmost vehicle: nothing can
    materialize within a driver's reaction headway, so entries always
    satisfy the safe-speed law at full platoon speed, which lets the road
    reach single-lane capacity under jam demand.  An entrant joins the
    platoon's rear at once and draws its random stream then, so an arrival
    that never enters draws nothing.  Arrival times are drawn as they are
    taken, so at most one is drawn past the last entrant, however high the
    demand.
    """
    arrivals = _arrival_times(road)
    # A row of dawdles and a name per vehicle, grown as vehicles enter.
    dawdles = np.zeros((1, road.duration))
    names = _vehicle_names(1)
    recorder = _Recorder(ring_length=None)

    # The platoon, ordered back to front.
    vehicles = np.zeros(0, dtype=np.int64)
    position = speed = factor = np.zeros(0)
    k, arrival = 0, next(arrivals, math.inf)  # the next arrival to enter, and its time
    for t in range(road.duration):
        recorder.record(vehicles, position, speed)
        position, speed = krauss_step(
            position, speed, factor, dawdles[vehicles, t], params, names[vehicles]
        )
        # Entries during (t, t+1] appear in the t+1 sample set.  Positions
        # within the window are linear at the post-step speed, matching the
        # discrete position update.
        while arrival <= t + 1 < road.duration:
            x_r, v_r = (float(position[0]), float(speed[0])) if len(vehicles) else (math.inf, 0.0)
            offset = _entry_offset(x_r, v_r, max(arrival - t, 0.0), params)
            if offset >= 1.0:
                break
            # one dawdle for each of its steps, at ticks t+1 .. duration-1
            factor_k, row = _vehicle_draws(road.seed, k, params.speed_dev, road.duration - t - 1)
            if k == len(dawdles):
                dawdles = np.concatenate((dawdles, np.zeros_like(dawdles)))
                names = _vehicle_names(len(dawdles))
            dawdles[k, t + 1:] = row
            v_in = _entry_speed(x_r - v_r + v_r * offset, v_r, factor_k, params)
            vehicles = np.concatenate(([k], vehicles))
            position = np.concatenate(([v_in * (1.0 - offset)], position))
            speed = np.concatenate(([v_in], speed))
            factor = np.concatenate(([factor_k], factor))
            k += 1
            arrival = next(arrivals, math.inf)
        on_road = position <= road.length
        if not on_road.all():
            vehicles, position, speed, factor = (
                a[on_road] for a in (vehicles, position, speed, factor)
            )
    return recorder.table(names)


def _generate_ring(road: RoadSpec, params: KraussParams) -> TraceTable:
    count = int(road.inflow)
    spacing = road.length / count
    if spacing < params.veh_length + params.min_gap:
        raise ConfigError(
            f"ring of {road.length} m cannot hold {count} vehicles "
            f"(need {params.veh_length + params.min_gap} m each)"
        )
    names = _vehicle_names(count)
    factor, dawdles = map(np.array, zip(*(
        _vehicle_draws(road.seed, k, params.speed_dev, road.duration) for k in range(count)
    )))
    recorder = _Recorder(ring_length=road.length)

    # The platoon, ordered back to front.
    vehicles = np.arange(count)
    position = np.array([k * spacing for k in range(count)])
    speed = np.zeros(count)
    for t in range(road.duration):
        recorder.record(vehicles, position, speed)
        position, speed = krauss_step(
            position, speed, factor, dawdles[vehicles, t], params, names[vehicles],
            ring_length=road.length,
        )
        order = np.argsort(position, kind="stable")
        vehicles, position, speed, factor = (
            a[order] for a in (vehicles, position, speed, factor)
        )
    return recorder.table(names)


def generate_traces(road: RoadSpec, params: KraussParams | None = None) -> TraceTable:
    """Run the car-following generator and return its samples as a TraceTable.

    Deterministic for equal (road, params) including the seed.  Strip
    vehicles live on the x axis (y = 0); ring positions are mapped onto a
    circle of matching circumference.
    """
    params = params or KraussParams()
    if road.topology == "strip":
        return _generate_strip(road, params)
    return _generate_ring(road, params)


def _check_sample(where: str, t: int, x: float, y: float, speed: float) -> None:
    """Raise ValidationError, starting with where, at the first sample rule the sample breaks.

    The rules, in order: finite x, y and speed, then t >= 0, then speed >= 0.
    """
    if not (math.isfinite(x) and math.isfinite(y) and math.isfinite(speed)):
        raise ValidationError(f"{where}: non-finite x, y or speed")
    if t < 0:
        raise ValidationError(f"{where}: negative tick {t}")
    if speed < 0:
        raise ValidationError(f"{where}: negative speed {speed}")


def parse_trace_csv(stream: IO[str]) -> TraceTable:
    """Read a trace CSV (header ``vehicle_id,t,x,y,speed``), rows in any order.

    The stream is read once, from where it stands, by csvio.read_columns,
    which codes the ids.  Its check marks, as array masks, the rows that
    break a rule of _check_sample and the rows of every id that fails
    check_id; the first marked row names its line, as in ``line 7:
    negative speed -2.0``, unless an earlier line does not parse.  A
    repeated sample, found with the 1 Hz gaps by _trace_table, is named
    only where no line has another error.
    """
    read_header(stream, "trace", ",".join(TRACE_CSV_HEADER).__eq__)
    lines = RowLines()

    def check(columns: list) -> None:
        vid, t, x, y, speed = columns
        bad = ~(np.isfinite(x) & np.isfinite(y) & np.isfinite(speed)) | (t < 0) | (speed < 0)
        for code, name in enumerate(vid.names):
            try:
                check_id(name, "", "")
            except ValidationError:
                bad |= vid.codes == code
        if bad.any():
            first = int(bad.argmax())
            where = f"line {lines(first)}"
            check_id(vid.names[vid.codes[first]], where, "vehicle_id")
            _check_sample(where, *(column[first].item() for column in (t, x, y, speed)))

    vid, t, x, y, speed = read_columns(stream, _TRACE_CONVERTERS, check, lines)
    return _trace_table(*vid, t, x, y, speed, lambda i: f"line {lines(i)}")


def emit_trace_csv(traces: TraceTable, stream: IO[str]) -> None:
    """Write traces in the canonical CSV schema; round-trips via parse_trace_csv."""
    write_columns(
        stream, ",".join(TRACE_CSV_HEADER),
        [traces.vehicle_id.ids(), traces.t, traces.x, traces.y, traces.speed],
    )


def parse_fcd_xml(stream: IO) -> TraceTable:
    """Read the SUMO floating-car-data export subset.

    Only ``<timestep time="..">`` elements with ``<vehicle id x y speed/>``
    children are interpreted; anything else is ignored.  Timesteps must fall
    on whole seconds.  Each sample gets _check_sample as it is read, and an
    error names its element's path, as in
    ``timestep[time='1.00']/vehicle[id='v1']: negative speed -2.0``.  A
    repeated (id, tick), found by _trace_table, is named only if no element
    has an error, as parse_trace_csv names it.
    """
    try:
        root = ET.parse(stream).getroot()
    except ET.ParseError as exc:
        raise ParseError(f"bad FCD XML: {exc}") from None

    rows = []
    for timestep in root.iter("timestep"):
        raw_t = timestep.get("time")
        if raw_t is None:
            raise ParseError("timestep: missing required attribute 'time'")
        element = f"timestep[time={raw_t!r}]"
        try:
            t_float = float(raw_t)
        except ValueError:
            raise ParseError(f"{element}: not a number") from None
        if t_float % 1 != 0:  # also true of inf and nan
            raise ValidationError(
                f"timestep time={raw_t}: not a whole second (traces are 1 Hz)"
            )
        t = int(t_float)
        if t < 0:
            raise ValidationError(f"timestep time={raw_t}: negative tick")
        if t > MAX_TICK:
            raise ValidationError(f"timestep time={raw_t}: tick exceeds 64 bits")
        for vehicle in timestep.iter("vehicle"):
            attrs = [vehicle.get(name) for name in _FCD_ATTRIBUTES]
            if None in attrs:
                name = _FCD_ATTRIBUTES[attrs.index(None)]
                raise ParseError(f"{element}/vehicle: missing required attribute {name!r}")
            vid, *xys = attrs
            path = f"{element}/vehicle[id={vid!r}]"
            check_id(vid, path, "vehicle id")
            try:
                x, y, speed = map(float, xys)
            except ValueError as exc:
                raise ParseError(f"{element}/vehicle: {exc}") from None
            _check_sample(path, t, x, y, speed)
            rows.append((path, vid, t, x, y, speed))
    paths, vids, *columns = zip(*rows) if rows else [()] * 6
    return _trace_table(*id_codes(vids), *columns, paths.__getitem__)
